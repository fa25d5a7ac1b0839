//! Randomized agreement between `cosine` (cached norms, one merge join)
//! and a from-scratch reference that recomputes everything with the
//! textbook formula.
//!
//! This oracle deliberately computes in a different association order
//! (norms via a separate pass, no caching), so agreement is asserted to
//! 1e-12 rather than exactly.

use pogo_cluster::{cosine, cosine_distance, Bssid, Scan};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Textbook cosine over sparse vectors: no caching, no merge join.
/// Inputs are canonicalized the way `Scan::from_parts` does (stable sort
/// by BSSID, first reading wins on duplicates).
fn reference_cosine(a: &[(u64, f64)], b: &[(u64, f64)]) -> f64 {
    let (a, b) = (canonical(a), canonical(b));
    let (a, b) = (a.as_slice(), b.as_slice());
    let dot: f64 = a
        .iter()
        .map(|&(ba, sa)| {
            b.iter()
                .find(|&&(bb, _)| bb == ba)
                .map_or(0.0, |&(_, sb)| sa * sb)
        })
        .sum();
    let norm_a: f64 = a.iter().map(|&(_, s)| s * s).sum::<f64>().sqrt();
    let norm_b: f64 = b.iter().map(|&(_, s)| s * s).sum::<f64>().sqrt();
    if norm_a == 0.0 || norm_b == 0.0 {
        return 0.0;
    }
    dot / (norm_a * norm_b)
}

fn canonical(pairs: &[(u64, f64)]) -> Vec<(u64, f64)> {
    let mut out = pairs.to_vec();
    out.sort_by_key(|&(b, _)| b);
    out.dedup_by_key(|&mut (b, _)| b);
    out
}

fn scan_of(pairs: &[(u64, f64)]) -> Scan {
    Scan::from_parts(0, pairs.iter().map(|&(b, s)| (Bssid::new(b), s)).collect())
}

fn assert_agrees(a: &[(u64, f64)], b: &[(u64, f64)], what: &str) {
    let (sa, sb) = (scan_of(a), scan_of(b));
    let got = cosine(&sa, &sb);
    let want = reference_cosine(a, b);
    assert!(
        (got - want).abs() < 1e-12,
        "{what}: cosine {got} vs reference {want}\n  a: {a:?}\n  b: {b:?}"
    );
    assert!(
        (cosine_distance(&sa, &sb) - (1.0 - got)).abs() < 1e-12,
        "{what}: distance must complement similarity"
    );
    // Symmetry comes free from the formula; the merge join must keep it.
    assert_eq!(got, cosine(&sb, &sa), "{what}: symmetry");
}

/// Random scans of every shape a merge join can meet: empty, fully
/// disjoint ranges, interleaved, identical layouts, and partial overlaps
/// with equal lengths.
#[test]
fn random_scans_agree_with_reference() {
    let mut rng = SmallRng::seed_from_u64(0x636f_7369);
    for case in 0..2_000u32 {
        let shape = rng.gen_range(0..6usize);
        let len_a = rng.gen_range(0..8usize);
        let a: Vec<(u64, f64)> = (0..len_a)
            .map(|_| {
                (
                    rng.gen_range(1..40u64),
                    rng.gen_range(0..1_000u64) as f64 / 1_000.0,
                )
            })
            .collect();
        let b: Vec<(u64, f64)> = match shape {
            // Same BSSIDs, different strengths.
            0 => a
                .iter()
                .map(|&(bssid, _)| (bssid, rng.gen_range(0..1_000u64) as f64 / 1_000.0))
                .collect(),
            // Strictly above a's range: no shared AP.
            1 => (0..rng.gen_range(0..8usize))
                .map(|_| {
                    (
                        rng.gen_range(100..140u64),
                        rng.gen_range(0..1_000u64) as f64 / 1_000.0,
                    )
                })
                .collect(),
            // Empty versus whatever a is.
            2 => Vec::new(),
            // Same length but different BSSIDs.
            3 => (0..len_a)
                .map(|_| {
                    (
                        rng.gen_range(1..40u64),
                        rng.gen_range(0..1_000u64) as f64 / 1_000.0,
                    )
                })
                .collect(),
            // Identical scan (similarity 1 unless empty).
            4 => a.clone(),
            // Unrelated length and range, overlapping a's.
            _ => (0..rng.gen_range(0..12usize))
                .map(|_| {
                    (
                        rng.gen_range(1..60u64),
                        rng.gen_range(0..1_000u64) as f64 / 1_000.0,
                    )
                })
                .collect(),
        };
        assert_agrees(&a, &b, &format!("case {case} shape {shape}"));
    }
}

/// The corner shapes, pinned explicitly so a refactor can't lose them to
/// an unlucky seed.
#[test]
fn edge_shapes_agree_with_reference() {
    let empty: &[(u64, f64)] = &[];
    let one = &[(5, 0.7)];
    let low = &[(1, 0.4), (2, 0.9)];
    let high = &[(10, 0.3), (11, 0.8)];
    let zeros = &[(1, 0.0), (2, 0.0)];

    assert_agrees(empty, empty, "empty/empty");
    assert_agrees(empty, one, "empty/one");
    assert_agrees(low, high, "range-disjoint");
    assert_agrees(high, low, "range-disjoint flipped");
    assert_agrees(low, low, "identical");
    assert_agrees(zeros, low, "zero-norm strengths");
    // Same length, one shared endpoint: the merge join's tail handling.
    assert_agrees(
        &[(1, 0.5), (7, 0.5)],
        &[(7, 0.5), (9, 0.5)],
        "shared endpoint",
    );
}
