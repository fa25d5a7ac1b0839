//! The paper's modified DBSCAN: streaming, sliding-window clustering.
//!
//! §4.1: "clusters (locations) [are extracted] using a modified version of
//! the DBSCAN clustering algorithm. The modification in this case is
//! that we use a sliding window of 60 samples from which we extract core
//! objects. Clusters are 'closed' whenever a user moves away from the
//! place it represents (when a sample is found that is not reachable from
//! the cluster). … When a cluster is closed, a sample is selected that
//! best characterizes the cluster [the nearest neighbour to the mean of
//! all scan results] and sent to the server along with entry and exit
//! timestamps."
//!
//! The paper does not pin down every detail; this implementation fixes
//! the following interpretation (mirrored exactly by the PogoScript
//! version in `assets/scripts/clustering.pogo`, and differentially tested
//! against it):
//!
//! * A scan is a **core object** if at least `min_pts` scans in the
//!   sliding window (itself included) lie within `eps` cosine distance.
//! * With no cluster open, a core object opens one; its window
//!   neighbours within `eps` become the initial members (so the entry
//!   timestamp reflects when the user actually arrived, not when density
//!   was first reached).
//! * A new sample is **reachable** if it lies within `eps` of any of the
//!   cluster's `reach_depth` most recent members.
//! * A non-reachable sample closes the cluster immediately (the paper's
//!   literal rule). Clusters smaller than `min_pts` members are
//!   discarded, which suppresses transit noise.

use std::collections::VecDeque;

use crate::scan::{Bssid, Scan};
use crate::similarity::{cosine, cosine_distance};

/// Parameters of the streaming clusterer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamConfig {
    /// Sliding-window length in samples (the paper uses 60).
    pub window: usize,
    /// Neighbourhood radius in cosine distance.
    pub eps: f64,
    /// Core-object density threshold and minimum emitted-cluster size.
    pub min_pts: usize,
    /// How many most-recent members a new sample is compared against for
    /// reachability.
    pub reach_depth: usize,
    /// A gap between consecutive scan timestamps larger than this closes
    /// the open cluster and clears the window: a 60-*sample* window that
    /// silently spans a phone-off night would otherwise fuse the evening
    /// and the next morning into one dwelling session.
    pub max_gap_ms: u64,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            window: 60,
            eps: 0.35,
            min_pts: 4,
            reach_depth: 5,
            max_gap_ms: 30 * 60_000,
        }
    }
}

/// A closed cluster: one dwelling session at some place.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSummary {
    /// The member scan nearest to the cluster mean — "a sample … that
    /// best characterizes the cluster".
    pub representative: Scan,
    /// Timestamp of the first member (arrival).
    pub entry_ms: u64,
    /// Timestamp of the last member (departure).
    pub exit_ms: u64,
    /// Number of member scans.
    pub samples: usize,
}

/// The streaming clusterer. Feed scans in timestamp order with
/// [`StreamClusterer::push`]; closed clusters come back as they happen,
/// plus a final one from [`StreamClusterer::finish`].
///
/// # Example
///
/// ```
/// use pogo_cluster::{Bssid, Scan, StreamClusterer, StreamConfig};
///
/// let mut c = StreamClusterer::new(StreamConfig::default());
/// let mut out = Vec::new();
/// for t in 0..30 {
///     let scan = Scan::from_parts(t * 60_000, vec![(Bssid::new(7), 0.8)]);
///     out.extend(c.push(scan));
/// }
/// out.extend(c.finish());
/// assert_eq!(out.len(), 1); // one dwelling session
/// ```
#[derive(Debug, Clone)]
pub struct StreamClusterer {
    cfg: StreamConfig,
    window: VecDeque<Scan>,
    members: Vec<Scan>,
    emitted: u64,
}

impl StreamClusterer {
    /// Creates a clusterer.
    ///
    /// # Panics
    ///
    /// Panics if `window` or `min_pts` is zero.
    pub fn new(cfg: StreamConfig) -> Self {
        assert!(cfg.window > 0, "window must be non-empty");
        assert!(cfg.min_pts > 0, "min_pts must be at least 1");
        StreamClusterer {
            cfg,
            window: VecDeque::with_capacity(cfg.window),
            members: Vec::new(),
            emitted: 0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> StreamConfig {
        self.cfg
    }

    /// Number of clusters emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Feeds the next scan; returns a summary if this sample closed a
    /// cluster.
    pub fn push(&mut self, scan: Scan) -> Option<ClusterSummary> {
        // Scan-gap reset: a long silence (phone off) ends the session.
        let mut gap_closed = None;
        if let Some(last) = self.window.back() {
            if scan.timestamp_ms.saturating_sub(last.timestamp_ms) > self.cfg.max_gap_ms {
                gap_closed = self.close();
                self.window.clear();
            }
        }
        if self.window.len() == self.cfg.window {
            self.window.pop_front();
        }
        self.window.push_back(scan.clone());

        let mut closed = None;
        if !self.members.is_empty() {
            if self.is_reachable(&scan) {
                self.members.push(scan);
                return gap_closed;
            }
            closed = self.close();
        }
        // No cluster open (or just closed): a core object seeds one from
        // its window neighbours.
        let neighbours: Vec<Scan> = self
            .window
            .iter()
            .filter(|other| cosine_distance(&scan, other) <= self.cfg.eps)
            .cloned()
            .collect();
        if neighbours.len() >= self.cfg.min_pts {
            self.members = neighbours;
        }
        // At most one of the two can be Some: a gap reset empties the
        // window, so the ordinary close path has nothing open.
        gap_closed.or(closed)
    }

    /// Closes any open cluster (end of trace / script shutdown).
    pub fn finish(&mut self) -> Option<ClusterSummary> {
        self.close()
    }

    fn is_reachable(&self, scan: &Scan) -> bool {
        self.members
            .iter()
            .rev()
            .take(self.cfg.reach_depth)
            .any(|m| cosine_distance(scan, m) <= self.cfg.eps)
    }

    fn close(&mut self) -> Option<ClusterSummary> {
        let members = std::mem::take(&mut self.members);
        if members.len() < self.cfg.min_pts {
            return None;
        }
        let representative = nearest_to_mean(&members);
        let summary = ClusterSummary {
            entry_ms: members.first().expect("non-empty").timestamp_ms,
            exit_ms: members.last().expect("non-empty").timestamp_ms,
            samples: members.len(),
            representative,
        };
        self.emitted += 1;
        Some(summary)
    }
}

/// Picks the member scan with the highest cosine similarity to the mean
/// of all members (footnote 6 of the paper).
fn nearest_to_mean(members: &[Scan]) -> Scan {
    let mean = mean_scan(members);
    // Strict `>` keeps the earliest member on ties.
    let mut best = 0;
    let mut best_sim = f64::NEG_INFINITY;
    for (i, s) in members.iter().enumerate() {
        let sim = cosine(s, &mean);
        if sim > best_sim {
            best_sim = sim;
            best = i;
        }
    }
    members[best].clone()
}

/// Component-wise mean of scans as sparse vectors (absent APs count as 0).
fn mean_scan(members: &[Scan]) -> Scan {
    let mut sums: Vec<(Bssid, f64)> = Vec::new();
    for scan in members {
        for &(bssid, s) in scan.aps() {
            match sums.binary_search_by_key(&bssid, |&(b, _)| b) {
                Ok(i) => sums[i].1 += s,
                Err(i) => sums.insert(i, (bssid, s)),
            }
        }
    }
    let n = members.len() as f64;
    for (_, s) in &mut sums {
        *s /= n;
    }
    Scan::from_parts(members[0].timestamp_ms, sums)
}

/// Test hooks: nothing outside this crate's unit tests calls these.
#[cfg(test)]
impl StreamClusterer {
    /// True while a cluster is being built.
    pub(crate) fn has_open_cluster(&self) -> bool {
        !self.members.is_empty()
    }

    /// Drops all clustering state, as a reboot without freeze/thaw would
    /// (§5.3 observed exactly this data loss; the window and any
    /// half-built cluster vanish).
    pub(crate) fn reset(&mut self) {
        self.window.clear();
        self.members.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stable scan at "place" `base` with small deterministic jitter.
    fn place_scan(t_min: u64, base: u64, jitter: f64) -> Scan {
        Scan::from_parts(
            t_min * 60_000,
            (0..4)
                .map(|i| {
                    let s = 0.5 + 0.1 * i as f64 + jitter * if i % 2 == 0 { 1.0 } else { -1.0 };
                    (Bssid::new(base + i), s.clamp(0.05, 1.0))
                })
                .collect(),
        )
    }

    fn transit_scan(t_min: u64, salt: u64) -> Scan {
        Scan::from_parts(t_min * 60_000, vec![(Bssid::new(90_000 + salt * 17), 0.2)])
    }

    #[test]
    fn single_dwell_yields_one_cluster() {
        let mut c = StreamClusterer::new(StreamConfig::default());
        let mut out = Vec::new();
        for t in 0..30 {
            out.extend(c.push(place_scan(t, 100, 0.01 * (t % 3) as f64)));
        }
        out.extend(c.finish());
        assert_eq!(out.len(), 1);
        let s = &out[0];
        assert_eq!(s.entry_ms, 0);
        assert_eq!(s.exit_ms, 29 * 60_000);
        assert_eq!(s.samples, 30);
    }

    #[test]
    fn moving_between_places_closes_and_reopens() {
        let mut c = StreamClusterer::new(StreamConfig::default());
        let mut out = Vec::new();
        for t in 0..20 {
            out.extend(c.push(place_scan(t, 100, 0.0)));
        }
        // Commute: 8 minutes of unfamiliar APs.
        for t in 20..28 {
            out.extend(c.push(transit_scan(t, t)));
        }
        for t in 28..50 {
            out.extend(c.push(place_scan(t, 500, 0.0)));
        }
        out.extend(c.finish());
        assert_eq!(out.len(), 2, "home then office");
        assert_eq!(out[0].exit_ms, 19 * 60_000);
        assert!(out[1].entry_ms >= 28 * 60_000);
    }

    #[test]
    fn transit_noise_alone_emits_nothing() {
        let mut c = StreamClusterer::new(StreamConfig::default());
        let mut out = Vec::new();
        for t in 0..40 {
            out.extend(c.push(transit_scan(t, t * 31)));
        }
        out.extend(c.finish());
        assert!(out.is_empty());
    }

    #[test]
    fn short_dwell_below_min_pts_is_discarded() {
        let cfg = StreamConfig {
            min_pts: 5,
            ..StreamConfig::default()
        };
        let mut c = StreamClusterer::new(cfg);
        let mut out = Vec::new();
        // Only 3 samples at the place, then away.
        for t in 0..3 {
            out.extend(c.push(place_scan(t, 100, 0.0)));
        }
        for t in 3..20 {
            out.extend(c.push(transit_scan(t, t * 7)));
        }
        out.extend(c.finish());
        assert!(out.is_empty());
    }

    #[test]
    fn representative_is_a_member_and_similar_to_all() {
        let mut c = StreamClusterer::new(StreamConfig::default());
        let scans: Vec<Scan> = (0..12)
            .map(|t| place_scan(t, 77, 0.02 * (t % 4) as f64))
            .collect();
        for s in &scans {
            assert!(c.push(s.clone()).is_none());
        }
        let summary = c.finish().expect("cluster closes on finish");
        assert!(
            scans.contains(&summary.representative),
            "representative must be an actual member scan"
        );
        for s in &scans {
            assert!(cosine(s, &summary.representative) > 0.9);
        }
    }

    #[test]
    fn reset_loses_partial_cluster_like_a_reboot() {
        let mut c = StreamClusterer::new(StreamConfig::default());
        for t in 0..10 {
            c.push(place_scan(t, 100, 0.0));
        }
        assert!(c.has_open_cluster());
        c.reset();
        assert!(!c.has_open_cluster());
        // Continuing at the same place re-forms a cluster with a LATER
        // entry time — exactly the §5.3 "later start time" artefact.
        let mut out = Vec::new();
        for t in 10..25 {
            out.extend(c.push(place_scan(t, 100, 0.0)));
        }
        out.extend(c.finish());
        assert_eq!(out.len(), 1);
        assert!(out[0].entry_ms >= 10 * 60_000);
    }

    #[test]
    fn entry_time_backfills_from_window_neighbours() {
        // Density is reached at the min_pts-th sample, but entry should be
        // the FIRST sample at the place (it is in the window).
        let cfg = StreamConfig {
            min_pts: 4,
            ..StreamConfig::default()
        };
        let mut c = StreamClusterer::new(cfg);
        for t in 0..10 {
            c.push(place_scan(t, 100, 0.0));
        }
        let s = c.finish().unwrap();
        assert_eq!(s.entry_ms, 0);
    }

    #[test]
    fn emitted_counter_tracks_closures() {
        let mut c = StreamClusterer::new(StreamConfig::default());
        for t in 0..10 {
            c.push(place_scan(t, 1, 0.0));
        }
        for t in 10..20 {
            c.push(transit_scan(t, t * 13));
        }
        assert_eq!(c.emitted(), 1);
    }

    #[test]
    #[should_panic(expected = "window")]
    fn zero_window_rejected() {
        StreamClusterer::new(StreamConfig {
            window: 0,
            ..StreamConfig::default()
        });
    }
}
