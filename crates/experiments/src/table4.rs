//! Table 4 — "Results of the localization experiment": the 24-day,
//! eight-user deployment (§5.3), with each user's real disruptions.

use pogo::cluster::{match_clusters, MatchParams};
use pogo::mobility::paper_cohort;

use crate::report;
use crate::session::{run_session, SessionResult};

/// One Table 4 row plus its paper counterpart.
#[derive(Debug, Clone)]
pub struct Row {
    /// The session's measurements.
    pub(crate) result: SessionResult,
    /// Match percentage (exact); `None` for a session without ground truth.
    pub match_pct: Option<f64>,
    /// Partial-match percentage (superset of exact).
    pub partial_pct: Option<f64>,
    /// Paper's row: (scans, raw size, locations, loc size, match, partial).
    pub paper: (u64, u64, u64, u64, f64, f64),
}

/// The paper's Table 4 rows, in order.
pub const PAPER_ROWS: [(&str, u64, u64, u64, u64, f64, f64); 9] = [
    ("User 1", 25_562, 6_278_929, 230, 89_514, 95.0, 96.0),
    ("User 2a", 11_474, 3_082_356, 121, 48_048, 86.0, 90.0),
    ("User 2b", 6_745, 2_139_525, 93, 44_154, 97.0, 100.0),
    ("User 3", 33_224, 9_064_727, 1_282, 437_527, 80.0, 83.0),
    ("User 4", 32_092, 12_664_291, 274, 139_572, 92.0, 97.0),
    ("User 5", 33_549, 11_836_962, 333, 197_433, 95.0, 98.0),
    ("User 6", 34_230, 14_426_142, 158, 77_251, 89.0, 96.0),
    ("User 7", 35_637, 9_305_313, 703, 181_389, 96.0, 98.0),
    ("User 8", 34_395, 11_618_974, 329, 141_634, 95.0, 97.0),
];

/// Runs the full deployment. `days` shortens the window (24 = paper).
pub fn run(days: u64, seed: u64) -> Vec<Row> {
    paper_cohort()
        .iter()
        .map(|spec| {
            let result = run_session(spec, days, seed ^ spec.seed_salt, false);
            let report = match_clusters(&result.truth, &result.collected, MatchParams::default());
            let paper = PAPER_ROWS
                .iter()
                .find(|(n, ..)| *n == spec.name)
                .map(|&(_, a, b, c, d, e, f)| (a, b, c, d, e, f))
                .expect("cohort rows match paper rows");
            Row {
                match_pct: report.match_pct(),
                partial_pct: report.partial_pct(),
                result,
                paper,
            }
        })
        .collect()
}

/// Aggregate statistics across rows (the §5.3 prose numbers).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Totals {
    /// Total scans collected.
    pub scans: u64,
    /// Total raw bytes.
    pub raw_bytes: u64,
    /// Total locations.
    pub locations: u64,
    /// Total location bytes.
    pub location_bytes: u64,
    /// Data reduction achieved by on-line clustering, percent; `None`
    /// without raw bytes to reduce.
    pub reduction_pct: Option<f64>,
}

/// Computes the aggregate §5.3 statistics.
pub(crate) fn totals(rows: &[Row]) -> Totals {
    let scans: u64 = rows.iter().map(|r| r.result.scans as u64).sum();
    let raw_bytes: u64 = rows.iter().map(|r| r.result.raw_bytes as u64).sum();
    let locations: u64 = rows.iter().map(|r| r.result.locations as u64).sum();
    let location_bytes: u64 = rows.iter().map(|r| r.result.location_bytes as u64).sum();
    Totals {
        scans,
        raw_bytes,
        locations,
        location_bytes,
        reduction_pct: (raw_bytes > 0)
            .then(|| 100.0 * (1.0 - location_bytes as f64 / raw_bytes as f64)),
    }
}

/// Renders the table, paper numbers alongside.
pub fn render(rows: &[Row]) -> String {
    let mut out = report::banner("Table 4 — localization deployment (per session)");
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.result.name.clone(),
                report::thousands(r.result.scans as u64),
                report::thousands(r.result.raw_bytes as u64),
                report::thousands(r.result.locations as u64),
                report::thousands(r.result.location_bytes as u64),
                report::percent(r.match_pct, 0),
                report::percent(r.partial_pct, 0),
                format!("{:.0}/{:.0}%", r.paper.4, r.paper.5),
                report::thousands(r.paper.0),
                r.result.purged.to_string(),
                r.result.reboots.to_string(),
            ]
        })
        .collect();
    out.push_str(&report::table(
        &[
            "User",
            "Scans",
            "Size",
            "Locations",
            "Size",
            "Match",
            "Partial",
            "paper M/P",
            "paper scans",
            "purged",
            "restarts",
        ],
        &cells,
    ));
    let t = totals(rows);
    out.push_str(&format!(
        "\nTotals: {} scans ({} B raw) -> {} locations ({} B); data reduction {} (paper: 246,908 scans, 76.7 MB -> 3,525 locations, 1.3 MB, 98.3%)\n",
        report::thousands(t.scans),
        report::thousands(t.raw_bytes),
        report::thousands(t.locations),
        report::thousands(t.location_bytes),
        report::percent(t.reduction_pct, 1),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_of_no_rows_have_no_reduction() {
        let t = totals(&[]);
        assert_eq!((t.scans, t.raw_bytes, t.location_bytes), (0, 0, 0));
        assert_eq!(t.reduction_pct, None);
        assert_eq!(report::percent(t.reduction_pct, 1), "n/a");
    }
}
