//! The streaming clusterer against the seed's naive one.
//!
//! `StreamClusterer` is the seed algorithm over cached norms and
//! refcount-shared AP tables. The oracle here is the seed
//! implementation, kept verbatim: plain `Vec` scans cloned at every
//! step, norms re-derived inside every cosine, separate core-object and
//! seeding sweeps, `max_by` representative selection. The closed-cluster
//! summaries must agree *exactly*, on a trace the size of one Table 4
//! user (33,224 scans for User 3) and on short ones.

use std::collections::VecDeque;

use pogo_cluster::{cosine, Bssid, ClusterSummary, Scan, StreamClusterer, StreamConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Table 4's per-user scan counts are 25k–36k.
const TABLE4_SCANS: usize = 33_000;

/// A uniform draw from `[lo, hi)`.
fn range_f64(rng: &mut SmallRng, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * rng.gen::<f64>()
}

/// A Table-4-shaped synthetic trace: alternating dwells (one of 40
/// places, each with its own 6-AP neighbourhood) and commutes (a few
/// weak unfamiliar APs), one scan per simulated minute.
fn table4_scale_trace(seed: u64, len: usize) -> Vec<Scan> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut scans = Vec::with_capacity(len + 128);
    let mut t_ms: u64 = 0;
    while scans.len() < len {
        let base = 1_000 * rng.gen_range(1..=40u64);
        for _ in 0..rng.gen_range(40..90u64) {
            let aps = (0..6u64)
                .map(|k| {
                    let s = 0.3 + 0.1 * k as f64 + range_f64(&mut rng, -0.05, 0.05);
                    (Bssid::new(base + k), s.clamp(0.05, 1.0))
                })
                .collect();
            scans.push(Scan::from_parts(t_ms, aps));
            t_ms += 60_000;
        }
        for _ in 0..rng.gen_range(6..18u64) {
            let first = rng.gen_range(50_000..120_000u64);
            let aps = (0..rng.gen_range(1..=3u64))
                .map(|k| (Bssid::new(first + k), range_f64(&mut rng, 0.05, 0.35)))
                .collect();
            scans.push(Scan::from_parts(t_ms, aps));
            t_ms += 60_000;
        }
    }
    scans.truncate(len);
    scans
}

/// The seed's scan representation: a plain `Vec` AP table, so every
/// clone the clusterer makes (into the window, into the member list) is
/// a heap copy.
#[derive(Debug, Clone, PartialEq)]
struct SeedScan {
    timestamp_ms: u64,
    aps: Vec<(Bssid, f64)>,
}

impl SeedScan {
    fn of(scan: &Scan) -> SeedScan {
        SeedScan {
            timestamp_ms: scan.timestamp_ms,
            aps: scan.aps().to_vec(),
        }
    }
}

/// The seed's cosine: norms re-derived inside every call, two square
/// roots per invocation.
fn naive_cosine(a: &SeedScan, b: &SeedScan) -> f64 {
    let (mut dot, mut norm_a, mut norm_b) = (0.0, 0.0, 0.0);
    let (aps_a, aps_b) = (&a.aps, &b.aps);
    let (mut i, mut j) = (0, 0);
    while i < aps_a.len() && j < aps_b.len() {
        let (ba, sa) = aps_a[i];
        let (bb, sb) = aps_b[j];
        match ba.cmp(&bb) {
            std::cmp::Ordering::Less => {
                norm_a += sa * sa;
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                norm_b += sb * sb;
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                dot += sa * sb;
                norm_a += sa * sa;
                norm_b += sb * sb;
                i += 1;
                j += 1;
            }
        }
    }
    for &(_, s) in &aps_a[i..] {
        norm_a += s * s;
    }
    for &(_, s) in &aps_b[j..] {
        norm_b += s * s;
    }
    if norm_a == 0.0 || norm_b == 0.0 {
        return 0.0;
    }
    dot / (norm_a.sqrt() * norm_b.sqrt())
}

fn naive_distance(a: &SeedScan, b: &SeedScan) -> f64 {
    1.0 - naive_cosine(a, b)
}

/// A closed cluster as the seed clusterer reports it.
#[derive(Debug, Clone, PartialEq)]
struct SeedSummary {
    representative: SeedScan,
    entry_ms: u64,
    exit_ms: u64,
    samples: usize,
}

/// The seed's streaming clusterer, verbatim.
struct NaiveClusterer {
    cfg: StreamConfig,
    window: VecDeque<SeedScan>,
    members: Vec<SeedScan>,
}

impl NaiveClusterer {
    fn new(cfg: StreamConfig) -> Self {
        NaiveClusterer {
            cfg,
            window: VecDeque::with_capacity(cfg.window),
            members: Vec::new(),
        }
    }

    fn push(&mut self, scan: SeedScan) -> Option<SeedSummary> {
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
        if self.is_core(&scan) {
            self.members = self
                .window
                .iter()
                .filter(|other| naive_distance(&scan, other) <= self.cfg.eps)
                .cloned()
                .collect();
        }
        gap_closed.or(closed)
    }

    fn finish(&mut self) -> Option<SeedSummary> {
        self.close()
    }

    fn is_reachable(&self, scan: &SeedScan) -> bool {
        self.members
            .iter()
            .rev()
            .take(self.cfg.reach_depth)
            .any(|m| naive_distance(scan, m) <= self.cfg.eps)
    }

    fn is_core(&self, scan: &SeedScan) -> bool {
        let hits = self
            .window
            .iter()
            .filter(|other| naive_distance(scan, other) <= self.cfg.eps)
            .count();
        hits >= self.cfg.min_pts
    }

    fn close(&mut self) -> Option<SeedSummary> {
        let members = std::mem::take(&mut self.members);
        if members.len() < self.cfg.min_pts {
            return None;
        }
        let representative = naive_nearest_to_mean(&members);
        Some(SeedSummary {
            entry_ms: members.first().expect("non-empty").timestamp_ms,
            exit_ms: members.last().expect("non-empty").timestamp_ms,
            samples: members.len(),
            representative,
        })
    }
}

fn naive_nearest_to_mean(members: &[SeedScan]) -> SeedScan {
    let mean = naive_mean_scan(members);
    members
        .iter()
        .enumerate()
        .max_by(|(i, a), (j, b)| {
            naive_cosine(a, &mean)
                .partial_cmp(&naive_cosine(b, &mean))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(j.cmp(i))
        })
        .map(|(_, s)| s.clone())
        .expect("members is non-empty")
}

fn naive_mean_scan(members: &[SeedScan]) -> SeedScan {
    let mut sums: Vec<(Bssid, f64)> = Vec::new();
    for scan in members {
        for &(bssid, s) in &scan.aps {
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
    SeedScan {
        timestamp_ms: members[0].timestamp_ms,
        aps: sums,
    }
}

fn replay_streaming(trace: &[Scan], cfg: StreamConfig) -> Vec<ClusterSummary> {
    let mut c = StreamClusterer::new(cfg);
    let mut out = Vec::new();
    for scan in trace {
        out.extend(c.push(scan.clone()));
    }
    out.extend(c.finish());
    out
}

fn replay_naive(trace: &[Scan], cfg: StreamConfig) -> Vec<SeedSummary> {
    let mut c = NaiveClusterer::new(cfg);
    let mut out = Vec::new();
    for scan in trace {
        out.extend(c.push(SeedScan::of(scan)));
    }
    out.extend(c.finish());
    out
}

fn summaries_agree(streaming: &[ClusterSummary], naive: &[SeedSummary]) -> bool {
    streaming.len() == naive.len()
        && streaming.iter().zip(naive).all(|(a, b)| {
            a.entry_ms == b.entry_ms
                && a.exit_ms == b.exit_ms
                && a.samples == b.samples
                && a.representative.timestamp_ms == b.representative.timestamp_ms
                && a.representative.aps() == b.representative.aps.as_slice()
        })
}

/// Replays `trace` through both clusterers, requires identical
/// summaries, and returns how many clusters closed.
fn assert_agreement(trace: &[Scan], what: &str) -> usize {
    let cfg = StreamConfig::default();
    let streaming = replay_streaming(trace, cfg);
    let naive = replay_naive(trace, cfg);
    assert!(
        summaries_agree(&streaming, &naive),
        "{what}: streaming clusterer closed {} clusters, the naive one {}, or their contents differ",
        streaming.len(),
        naive.len()
    );
    streaming.len()
}

#[test]
fn table4_scale_trace_clusters_identically() {
    let trace = table4_scale_trace(0x706f_676f, TABLE4_SCANS);
    assert_eq!(trace.len(), TABLE4_SCANS);
    let clusters = assert_agreement(&trace, "33k-scan trace");
    assert!(
        clusters > 100,
        "trace must exercise many cluster closures (got {clusters})"
    );
}

#[test]
fn short_seeded_traces_cluster_identically() {
    for seed in 1..=12u64 {
        let len = 400 + 150 * seed as usize;
        let trace = table4_scale_trace(seed, len);
        let clusters = assert_agreement(&trace, &format!("seed {seed}, {len} scans"));
        assert!(clusters > 0, "seed {seed}: trace closed no cluster");
    }
}

#[test]
fn naive_cosine_is_bit_identical_to_the_cached_one() {
    let trace = table4_scale_trace(11, 200);
    for a in trace.iter().step_by(7) {
        for b in trace.iter().step_by(13) {
            assert_eq!(
                naive_cosine(&SeedScan::of(a), &SeedScan::of(b)),
                cosine(a, b)
            );
        }
    }
}
