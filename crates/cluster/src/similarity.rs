//! The cosine coefficient between scans — the paper's distance metric
//! ("The distance metric used is the cosine coefficient", §4.1).

use crate::scan::Scan;

/// Cosine coefficient between two scans viewed as sparse vectors indexed
/// by BSSID. Returns a value in `[0, 1]` (strengths are non-negative);
/// `0` if either scan is empty.
///
/// # Example
///
/// ```
/// use pogo_cluster::{cosine, Bssid, Scan};
///
/// let a = Scan::from_parts(0, vec![(Bssid::new(1), 0.8), (Bssid::new(2), 0.6)]);
/// let b = Scan::from_parts(1, vec![(Bssid::new(1), 0.8), (Bssid::new(2), 0.6)]);
/// assert!((cosine(&a, &b) - 1.0).abs() < 1e-12);
/// ```
pub fn cosine(a: &Scan, b: &Scan) -> f64 {
    // Norms are cached on the scans; only the dot product needs the
    // merge join (both sides are sorted by BSSID).
    let (norm_a, norm_b) = (a.norm(), b.norm());
    if norm_a == 0.0 || norm_b == 0.0 {
        return 0.0;
    }
    let (aps_a, aps_b) = (a.aps(), b.aps());
    let mut dot = 0.0;
    let (mut i, mut j) = (0, 0);
    while i < aps_a.len() && j < aps_b.len() {
        let (ba, sa) = aps_a[i];
        let (bb, sb) = aps_b[j];
        match ba.cmp(&bb) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                dot += sa * sb;
                i += 1;
                j += 1;
            }
        }
    }
    dot / (norm_a * norm_b)
}

/// Cosine *distance*: `1 − cosine(a, b)`, in `[0, 1]`.
#[inline]
pub fn cosine_distance(a: &Scan, b: &Scan) -> f64 {
    1.0 - cosine(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::Bssid;

    fn scan(pairs: &[(u64, f64)]) -> Scan {
        Scan::from_parts(0, pairs.iter().map(|&(b, s)| (Bssid::new(b), s)).collect())
    }

    #[test]
    fn identical_scans_have_similarity_one() {
        let a = scan(&[(1, 0.3), (2, 0.9), (3, 0.1)]);
        assert!((cosine(&a, &a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disjoint_scans_have_similarity_zero() {
        let a = scan(&[(1, 0.5), (2, 0.5)]);
        let b = scan(&[(3, 0.5), (4, 0.5)]);
        assert_eq!(cosine(&a, &b), 0.0);
    }

    #[test]
    fn scale_invariance() {
        // Cosine ignores magnitude: same AP profile at different overall
        // signal level is the same place.
        let near = scan(&[(1, 0.9), (2, 0.6)]);
        let far = scan(&[(1, 0.3), (2, 0.2)]);
        assert!((cosine(&near, &far) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn partial_overlap_is_between_zero_and_one() {
        let a = scan(&[(1, 1.0), (2, 1.0)]);
        let b = scan(&[(2, 1.0), (3, 1.0)]);
        let s = cosine(&a, &b);
        assert!(s > 0.0 && s < 1.0);
        assert!((s - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_scan_yields_zero() {
        let a = scan(&[]);
        let b = scan(&[(1, 0.5)]);
        assert_eq!(cosine(&a, &b), 0.0);
        assert_eq!(cosine(&a, &a), 0.0);
    }

    #[test]
    fn symmetry() {
        let a = scan(&[(1, 0.2), (3, 0.7), (9, 0.4)]);
        let b = scan(&[(1, 0.9), (2, 0.1), (9, 0.5)]);
        assert_eq!(cosine(&a, &b), cosine(&b, &a));
    }

    #[test]
    fn distance_complements_similarity() {
        let a = scan(&[(1, 1.0)]);
        let b = scan(&[(1, 1.0), (2, 1.0)]);
        assert!((cosine(&a, &b) + cosine_distance(&a, &b) - 1.0).abs() < 1e-12);
    }
}
