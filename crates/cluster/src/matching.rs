//! Cluster matching: computes Table 4's "Match" and "Partial" columns.
//!
//! §5.3: "The 'match' column … shows the percentage of clusters found in
//! the post-processed data set that exactly matched the ones gathered by
//! the collector node. The 'partial' column shows the percentage of
//! `[clusters]` that were matched only partially due to the problems
//! described" (clusters truncated by restarts — "a later start time" —
//! or purged by the 24-hour expiry).

use crate::similarity::cosine;
use crate::stream::ClusterSummary;

/// Matching tolerances.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatchParams {
    /// Maximum entry/exit timestamp difference for an *exact* match.
    pub time_tolerance_ms: u64,
    /// Minimum representative-scan cosine similarity for any match.
    pub min_similarity: f64,
}

impl Default for MatchParams {
    fn default() -> Self {
        MatchParams {
            time_tolerance_ms: 90_000, // one and a half scan intervals
            min_similarity: 0.75,
        }
    }
}

/// Result of matching a collected cluster set against ground truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MatchReport {
    /// Number of ground-truth (post-processed) clusters.
    pub ground_truth: usize,
    /// Ground-truth clusters with an exact counterpart at the collector.
    pub exact: usize,
    /// Ground-truth clusters with at least a partial counterpart
    /// (includes the exact ones, as in the paper's table where
    /// Partial ≥ Match).
    pub partial: usize,
}

impl MatchReport {
    /// The "Match" percentage (0–100); `None` without ground truth, where
    /// there is nothing to match.
    pub fn match_pct(&self) -> Option<f64> {
        percentage(self.exact, self.ground_truth)
    }

    /// The "Partial" percentage (0–100); `None` without ground truth.
    pub fn partial_pct(&self) -> Option<f64> {
        percentage(self.partial, self.ground_truth)
    }
}

fn percentage(num: usize, den: usize) -> Option<f64> {
    (den > 0).then(|| 100.0 * num as f64 / den as f64)
}

/// Matches `collected` (what reached the collector node) against `truth`
/// (clusters recomputed offline over the complete raw trace).
///
/// A truth cluster matches *exactly* if some collected cluster has a
/// representative within [`MatchParams::min_similarity`] and entry/exit
/// timestamps within [`MatchParams::time_tolerance_ms`]; it matches
/// *partially* if a similar collected cluster overlaps it in time at all
/// (a truncated or split dwelling session).
pub fn match_clusters(
    truth: &[ClusterSummary],
    collected: &[ClusterSummary],
    params: MatchParams,
) -> MatchReport {
    let mut exact = 0;
    let mut partial = 0;
    for t in truth {
        let mut found_exact = false;
        let mut found_partial = false;
        for c in collected {
            if cosine(&t.representative, &c.representative) < params.min_similarity {
                continue;
            }
            let entry_diff = t.entry_ms.abs_diff(c.entry_ms);
            let exit_diff = t.exit_ms.abs_diff(c.exit_ms);
            if entry_diff <= params.time_tolerance_ms && exit_diff <= params.time_tolerance_ms {
                found_exact = true;
                found_partial = true;
                break;
            }
            // Any time overlap counts as partial.
            if c.entry_ms <= t.exit_ms && t.entry_ms <= c.exit_ms {
                found_partial = true;
            }
        }
        if found_exact {
            exact += 1;
        }
        if found_partial {
            partial += 1;
        }
    }
    MatchReport {
        ground_truth: truth.len(),
        exact,
        partial,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::{Bssid, Scan};

    fn summary(base: u64, entry_min: u64, exit_min: u64) -> ClusterSummary {
        ClusterSummary {
            representative: Scan::from_parts(
                entry_min * 60_000,
                (0..3).map(|i| (Bssid::new(base + i), 0.7)).collect(),
            ),
            entry_ms: entry_min * 60_000,
            exit_ms: exit_min * 60_000,
            samples: (exit_min - entry_min + 1) as usize,
        }
    }

    #[test]
    fn identical_sets_match_100_percent() {
        let truth = vec![summary(10, 0, 60), summary(20, 100, 200)];
        let report = match_clusters(&truth, &truth, MatchParams::default());
        assert_eq!(report.exact, 2);
        assert_eq!(report.partial, 2);
        assert_eq!(report.match_pct(), Some(100.0));
    }

    #[test]
    fn truncated_cluster_counts_as_partial_only() {
        let truth = vec![summary(10, 0, 100)];
        // Collector saw only the second half (restart mid-cluster).
        let collected = vec![summary(10, 50, 100)];
        let report = match_clusters(&truth, &collected, MatchParams::default());
        assert_eq!(report.exact, 0);
        assert_eq!(report.partial, 1);
        assert_eq!(report.partial_pct(), Some(100.0));
        assert_eq!(report.match_pct(), Some(0.0));
    }

    #[test]
    fn missing_cluster_matches_nothing() {
        let truth = vec![summary(10, 0, 60), summary(20, 100, 160)];
        let collected = vec![summary(10, 0, 60)];
        let report = match_clusters(&truth, &collected, MatchParams::default());
        assert_eq!(report.exact, 1);
        assert_eq!(report.partial, 1);
    }

    #[test]
    fn different_place_never_matches_even_with_overlap() {
        let truth = vec![summary(10, 0, 60)];
        let collected = vec![summary(999, 0, 60)]; // disjoint AP sets
        let report = match_clusters(&truth, &collected, MatchParams::default());
        assert_eq!(report.exact, 0);
        assert_eq!(report.partial, 0);
    }

    #[test]
    fn small_timestamp_jitter_still_exact() {
        let truth = vec![summary(10, 10, 60)];
        let mut c = summary(10, 10, 60);
        c.entry_ms += 60_000; // one scan interval late
        let report = match_clusters(&truth, &[c], MatchParams::default());
        assert_eq!(report.exact, 1);
    }

    #[test]
    fn empty_truth_reports_no_data() {
        let report = match_clusters(&[], &[summary(10, 0, 60)], MatchParams::default());
        assert_eq!(report.match_pct(), None);
        assert_eq!(report.partial_pct(), None);
    }

    #[test]
    fn partial_includes_exact_like_the_paper() {
        let truth = vec![summary(1, 0, 50), summary(2, 100, 150)];
        let collected = vec![summary(1, 0, 50), summary(2, 120, 150)];
        let report = match_clusters(&truth, &collected, MatchParams::default());
        assert_eq!(report.exact, 1);
        assert_eq!(report.partial, 2, "Partial column is a superset of Match");
    }
}
