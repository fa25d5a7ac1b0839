//! Seeded property tests for the clustering substrate: the similarity
//! metric, scan sanitization and the streaming clusterer's summaries. Inputs come from a seeded `SmallRng`, so the
//! suite runs by default and every failure names its seed.

use pogo_cluster::{cosine, ApReading, Bssid, RawScan, Scan, StreamClusterer, StreamConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const SEEDS: u64 = 200;

/// A uniform draw from `[lo, hi)`.
fn range_f64(rng: &mut SmallRng, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * rng.gen::<f64>()
}

/// A plausible scan with up to 11 APs from a 40-AP universe (overlap is
/// likely, which is what exercises the metric).
fn scan(rng: &mut SmallRng, timestamp_ms: u64) -> Scan {
    let aps = (0..rng.gen_range(0usize..12))
        .map(|_| {
            (
                Bssid::new(rng.gen_range(0u64..40)),
                range_f64(rng, 0.01, 1.0),
            )
        })
        .collect();
    Scan::from_parts(timestamp_ms, aps)
}

/// A time-ordered stream of fewer than `max_len` scans at 1-minute spacing.
fn stream(rng: &mut SmallRng, max_len: usize) -> Vec<Scan> {
    (0..rng.gen_range(0..max_len))
        .map(|i| scan(rng, i as u64 * 60_000))
        .collect()
}

fn run_stream(
    cfg: StreamConfig,
    scans: impl IntoIterator<Item = Scan>,
) -> Vec<pogo_cluster::ClusterSummary> {
    let mut clusterer = StreamClusterer::new(cfg);
    let mut out = Vec::new();
    for s in scans {
        out.extend(clusterer.push(s));
    }
    out.extend(clusterer.finish());
    out
}

#[test]
fn cosine_is_bounded_symmetric_and_one_on_self() {
    for seed in 0..SEEDS {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (t_a, t_b) = (
            rng.gen_range(0u64..1_000_000),
            rng.gen_range(0u64..1_000_000),
        );
        let (a, b) = (scan(&mut rng, t_a), scan(&mut rng, t_b));
        let (ab, ba) = (cosine(&a, &b), cosine(&b, &a));
        assert!(
            (0.0..=1.0 + 1e-12).contains(&ab),
            "seed {seed}: cosine {ab}"
        );
        assert!(
            (ab - ba).abs() < 1e-12,
            "seed {seed}: symmetry {ab} vs {ba}"
        );
        if !a.is_empty() {
            let s = cosine(&a, &a);
            assert!((s - 1.0).abs() < 1e-9, "seed {seed}: self-cosine {s}");
        }
    }
}

/// No locally administered BSSID survives; strengths are normalized;
/// the result is sorted and unique by BSSID.
#[test]
fn sanitize_is_clean() {
    for seed in 0..SEEDS {
        let mut rng = SmallRng::seed_from_u64(seed);
        let raw = RawScan {
            timestamp_ms: rng.gen_range(0u64..1_000_000),
            readings: (0..rng.gen_range(0usize..20))
                .map(|_| ApReading {
                    bssid: Bssid::new(rng.gen_range(0u64..(1u64 << 48))),
                    rssi_dbm: range_f64(&mut rng, -120.0, -20.0),
                })
                .collect(),
        };
        let scan = raw.sanitize();
        for w in scan.aps().windows(2) {
            assert!(w[0].0 < w[1].0, "seed {seed}: sorted unique");
        }
        for &(b, l) in scan.aps() {
            assert!(!b.is_locally_administered(), "seed {seed}");
            assert!((0.0..=1.0).contains(&l), "seed {seed}: strength {l}");
        }
    }
}

#[test]
fn stream_summaries_are_wellformed() {
    let cfg = StreamConfig::default();
    let mut summaries = 0;
    for seed in 0..SEEDS {
        let scans = stream(&mut SmallRng::seed_from_u64(seed), 120);
        let mut last_exit = 0;
        for s in run_stream(cfg, scans) {
            summaries += 1;
            assert!(s.samples >= cfg.min_pts, "seed {seed}");
            assert!(s.entry_ms <= s.exit_ms, "seed {seed}");
            assert!(
                !s.representative.is_empty(),
                "seed {seed}: representative has APs"
            );
            // Emissions are ordered by closing time, which is monotone in
            // exit timestamps.
            assert!(s.exit_ms >= last_exit, "seed {seed}: exit order");
            last_exit = s.exit_ms;
        }
    }
    assert!(
        summaries > 0,
        "no seed emitted a summary: nothing was checked"
    );
}

/// Clustering A ++ (gap) ++ B equals clustering A and B independently:
/// the gap reset makes the window memoryless across long silences.
#[test]
fn gap_reset_equals_split_runs() {
    let cfg = StreamConfig::default();
    let gap_offset = 60 * 60_000 + cfg.max_gap_ms * 2;
    for seed in 0..SEEDS {
        let mut rng = SmallRng::seed_from_u64(seed);
        let first = stream(&mut rng, 60);
        let second: Vec<Scan> = stream(&mut rng, 60)
            .iter()
            .map(|s| Scan::from_parts(s.timestamp_ms + gap_offset, s.aps().to_vec()))
            .collect();
        let joined = run_stream(cfg, first.iter().chain(&second).cloned());
        let mut split = run_stream(cfg, first);
        split.extend(run_stream(cfg, second));
        assert_eq!(joined, split, "seed {seed}");
    }
}

/// A stable dwell followed by transit through unfamiliar APs emits
/// exactly one cluster, holding the whole dwell.
#[test]
fn dwell_then_move_emits_exactly_the_dwell() {
    for seed in 0..SEEDS {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (dwell_len, noise_len) = (rng.gen_range(5usize..40), rng.gen_range(5usize..40));
        let dwell = (0..dwell_len).map(|t| {
            Scan::from_parts(
                t as u64 * 60_000,
                vec![(Bssid::new(1), 0.9), (Bssid::new(2), 0.7)],
            )
        });
        let transit = (0..noise_len).map(|t| {
            Scan::from_parts(
                (dwell_len + t) as u64 * 60_000,
                vec![(Bssid::new(1_000 + 17 * t as u64), 0.4)],
            )
        });
        let out = run_stream(StreamConfig::default(), dwell.chain(transit));
        assert_eq!(out.len(), 1, "seed {seed}: {dwell_len} + {noise_len}");
        assert_eq!(out[0].samples, dwell_len, "seed {seed}");
    }
}
