//! The benchmark's vocabulary: every metric it prints, with unit,
//! direction, time base and regression bound, plus the small numeric
//! helpers the rest of the crate shares (percentile rule, VmHWM reader,
//! digest).
//!
//! `BENCHMARK.json` at the repo root repeats these tables for the
//! driver; a unit test keeps the two in step.

use std::collections::BTreeMap;

/// Which clock a number was read from. *Host* is what the machine
/// running the simulator spends and varies run to run; *simulated* is
/// what the modelled phones spend and is exact for a seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Base {
    Host,
    Simulated,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub base: Base,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// Printed for an end-to-end metric on a workload it is not defined on
/// (the device-cost metrics on `collector_readwrite`, which has no
/// devices). The driver wants every metric on every workload and none
/// equal to zero; a constant can neither spread nor regress.
pub const NOT_APPLICABLE: f64 = 1.0;

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        base: Base::Host,
        bound: 0.25,
    },
    EndToEnd {
        name: "sim_speed",
        unit: "dev_sim_s/s",
        better: Better::Higher,
        base: Base::Host,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        base: Base::Host,
        bound: 0.05,
    },
    EndToEnd {
        name: "ingest_rows_per_s",
        unit: "rows/s",
        better: Better::Higher,
        base: Base::Host,
        bound: 0.25,
    },
    EndToEnd {
        name: "scan_rows_per_s",
        unit: "rows/s",
        better: Better::Higher,
        base: Base::Host,
        bound: 0.25,
    },
    EndToEnd {
        name: "export_mb_per_s",
        unit: "MB/s",
        better: Better::Higher,
        base: Base::Host,
        bound: 0.25,
    },
    EndToEnd {
        name: "uplink_bytes_per_device_hour",
        unit: "B",
        better: Better::Lower,
        base: Base::Simulated,
        bound: 0.10,
    },
    EndToEnd {
        name: "energy_j_per_device_hour",
        unit: "J",
        better: Better::Lower,
        base: Base::Simulated,
        bound: 0.02,
    },
    EndToEnd {
        name: "ramp_ups_per_device_day",
        unit: "count",
        better: Better::Lower,
        base: Base::Simulated,
        bound: 0.10,
    },
    EndToEnd {
        name: "delivery_age_p50_s",
        unit: "sim_sec",
        better: Better::Lower,
        base: Base::Simulated,
        bound: 0.05,
    },
    EndToEnd {
        name: "delivery_age_p99_s",
        unit: "sim_sec",
        better: Better::Lower,
        base: Base::Simulated,
        bound: 0.05,
    },
];

/// One per-layer metric: `layer.name`, its unit and direction. No bound:
/// these explain an end-to-end movement, they do not gate.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn pl(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher as H, Lower as L};

pub const PER_LAYER: &[PerLayer] = &[
    pl("testbed.add_fleet_us_per_device", "us", L),
    pl("testbed.boot_rss_kb_per_device", "kB", L),
    pl("testbed.end_rss_kb_per_device", "kB", L),
    pl("deploy.send_ms", "ms", L),
    pl("deploy.us_per_device", "us", L),
    pl("deploy.lint_ms", "ms", L),
    pl("deploy.verify_ms", "ms", L),
    pl("deploy.absint_ms", "ms", L),
    pl("deploy.compile_ms", "ms", L),
    pl("sim.events", "count", L),
    pl("sim.events_per_device_hour", "count", L),
    pl("sim.pending_peak", "count", L),
    pl("sim.step_ns_p50", "ns", L),
    pl("sim.step_ns_p99", "ns", L),
    pl("sim.heavy_step_time_share", "ratio", L),
    pl("sim.dispatch_ns", "ns", L),
    pl("sim.busy_s", "s", L),
    pl("platform.cpu_wakeups_per_device_hour", "count", L),
    pl("platform.cpu_awake_share", "ratio", L),
    pl("platform.radio_ramp_ups_per_device_hour", "count", L),
    pl("platform.radio_tx_bytes", "B", L),
    pl("platform.alarm_ns", "ns", L),
    pl("platform.transmit_ns", "ns", L),
    pl("platform.busy_s", "s", L),
    pl("sensor.samples", "count", L),
    pl("sensor.sample_ns", "ns", L),
    pl("sensor.busy_s", "s", L),
    pl("broker.publishes", "count", L),
    pl("broker.publish_ns", "ns", L),
    pl("broker.busy_s", "s", L),
    pl("script.callbacks", "count", L),
    pl("script.steps", "count", L),
    pl("script.steps_per_callback", "count", L),
    pl("script.publishes", "count", L),
    pl("script.watchdog_trips", "count", L),
    pl("script.errors", "count", L),
    pl("script.callback_us_p50", "us", L),
    pl("script.callback_us_p99", "us", L),
    pl("script.ns_per_step", "ns", L),
    pl("script.busy_s", "s", L),
    pl("tail.detections", "count", L),
    pl("tail.flushes", "count", L),
    pl("tail.rode_foreign_tail_share", "ratio", H),
    pl("tail.batch_size_mean", "count", H),
    pl("tail.extra_ramp_ups_per_device_day", "count", L),
    pl("scheduler.tasks_run", "count", L),
    pl("sf.enqueued", "count", L),
    pl("sf.sent", "count", L),
    pl("sf.retransmit_share", "ratio", L),
    pl("sf.purged", "count", L),
    pl("sf.buffered_peak", "count", L),
    pl("sf.enqueue_ack_ns", "ns", L),
    pl("sf.busy_s", "s", L),
    pl("wire.envelopes", "count", L),
    pl("wire.bytes", "B", L),
    pl("wire.bytes_per_sample", "B", L),
    pl("wire.encode_ns_per_kb", "ns", L),
    pl("wire.decode_ns_per_kb", "ns", L),
    pl("wire.busy_s", "s", L),
    pl("switchboard.routed", "count", L),
    pl("switchboard.dropped", "count", L),
    pl("switchboard.route_ns", "ns", L),
    pl("switchboard.busy_s", "s", L),
    pl("collector.data_received", "count", L),
    pl("collector.schema_mismatches", "count", L),
    pl("collector.errors_logged", "count", L),
    pl("collector.handle_ns", "ns", L),
    pl("ingest.rows", "count", L),
    pl("ingest.batches_flushed", "count", L),
    pl("ingest.rows_per_batch", "count", H),
    pl("ingest.append_ns", "ns", L),
    pl("ingest.evicted_rows", "count", L),
    pl("ingest.store_bytes_per_row", "B", L),
    pl("ingest.scan_ms_p50", "ms", L),
    pl("ingest.scan_ms_p90", "ms", L),
    pl("ingest.scan_returned_share", "ratio", H),
    pl("ingest.export_csv_ns_per_row", "ns", L),
    pl("ingest.export_jsonl_ns_per_row", "ns", L),
    pl("ingest.export_senml_ns_per_row", "ns", L),
    pl("ingest.busy_s", "s", L),
    pl("obs.overhead_ratio", "ratio", L),
    pl("obs.events_recorded", "count", L),
    pl("obs.ring_dropped", "count", L),
    pl("obs.metric_rows", "count", L),
    pl("run.window_ms_p50", "ms", L),
    pl("run.window_ms_p90", "ms", L),
    pl("run.failed_share", "ratio", L),
    pl("trace.overhead_ratio", "ratio", L),
    pl("layers.explained_ratio", "ratio", H),
    pl("layers.unexplained_s", "s", L),
];

/// The four workloads and, in one line each, why they are here.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "fleet_localization",
        "scan.js + clustering.js on every device: the script VM does the work, the uplink is almost idle",
    ),
    (
        "fleet_uplink",
        "no scripts, 5 s sensors, 1 % link loss: sensor to store path with retransmit and dedup; the VM is bypassed",
    ),
    (
        "cohort_tailsync",
        "e-mail app plus tail-synchronised flush for a simulated day: platform models, scheduler and timer queue",
    ),
    (
        "collector_readwrite",
        "no devices: ingest appends beside scans, retention and exports, so a write-side gain that slows reads shows",
    ),
];

/// How long the driver asks one run to measure, in seconds.
pub const RUN_SECONDS: u64 = 12;

/// `BENCHMARK.json`, generated from the tables above so that the driver's
/// copy cannot drift from what the program prints.
pub fn manifest_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let rows = |rows: Vec<String>| rows.join(",\n");
    out.push_str("  \"workloads\": [\n");
    out.push_str(&rows(
        WORKLOADS
            .iter()
            .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
            .collect(),
    ));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    out.push_str(&rows(
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name,
                    m.unit,
                    m.better.as_str(),
                    m.bound
                )
            })
            .collect(),
    ));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    out.push_str(&rows(
        PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    m.name,
                    m.unit,
                    m.better.as_str()
                )
            })
            .collect(),
    ));
    out.push_str("\n  ]\n}\n");
    out
}

/// Named values, kept sorted so output and digests are stable.
pub type Values = BTreeMap<String, f64>;

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
        .unwrap_or("")
}

// ---- percentiles -------------------------------------------------------

/// The reporting rule for timings: the median, plus the highest of
/// p90/p99/p99.9 that still has at least ten samples beyond it. With
/// fewer than 100 samples there is no such tail percentile and only the
/// median is meaningful.
pub fn highest_percentile(n: usize) -> Option<f64> {
    // In per mille, so that 10,000 samples × 0.1 % is exactly ten.
    [999u64, 990, 900]
        .into_iter()
        .find(|pm| n as u64 * (1000 - pm) >= 10 * 1000)
        .map(|pm| pm as f64 / 10.0)
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A timing distribution as the benchmark reports it.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    /// `(percentile, value)` per [`highest_percentile`].
    pub tail: Option<(f64, f64)>,
}

pub fn summarize(samples: &mut [f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    Some(Summary {
        n: samples.len(),
        p50: percentile(samples, 50.0),
        tail: highest_percentile(samples.len()).map(|p| (p, percentile(samples, p))),
    })
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method), which is what the driver uses for spreads.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let q = |k: usize| {
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    Some((q(1), q(2), q(3)))
}

/// Inter-quartile distance as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(values)?;
    (q2 != 0.0).then(|| ((q3 - q1) / q2).abs())
}

// ---- log-bucket histogram ----------------------------------------------

/// Fixed log-scale histogram for per-step host times: 8 sub-buckets per
/// power of two, so a bucket is at most 9 % wide. Recording is two
/// shifts and an add, cheap enough to sit between `Sim::step` calls.
pub struct LogHist {
    counts: Vec<u64>,
    sums: Vec<u64>,
}

const SUB: u32 = 3;

impl Default for LogHist {
    fn default() -> Self {
        LogHist {
            counts: vec![0; 64 << SUB],
            sums: vec![0; 64 << SUB],
        }
    }
}

impl LogHist {
    fn bucket(v: u64) -> usize {
        if v < (1 << SUB) {
            return v as usize;
        }
        let msb = 63 - v.leading_zeros();
        let sub = (v >> (msb - SUB)) & ((1 << SUB) - 1);
        (((msb - SUB + 1) << SUB) as u64 + sub) as usize
    }

    #[inline]
    pub fn record(&mut self, v: u64) {
        let b = Self::bucket(v);
        self.counts[b] += 1;
        self.sums[b] += v;
    }

    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    pub fn total(&self) -> u64 {
        self.sums.iter().sum()
    }

    /// Mean of the bucket holding the `p`-th percentile sample.
    pub fn percentile(&self, p: f64) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (c, s) in self.counts.iter().zip(&self.sums) {
            seen += c;
            if seen >= rank {
                return *s as f64 / *c as f64;
            }
        }
        unreachable!("rank within count")
    }

    /// Share of the total recorded time spent in the slowest `share` of
    /// the samples (bucket granularity).
    pub fn top_share_of_total(&self, share: f64) -> f64 {
        let n = self.count();
        let total = self.total();
        if n == 0 || total == 0 {
            return 0.0;
        }
        let mut want = (n as f64 * share).ceil() as u64;
        let mut time = 0.0;
        for (c, s) in self.counts.iter().zip(&self.sums).rev() {
            if want == 0 {
                break;
            }
            let take = want.min(*c);
            if *c > 0 {
                time += *s as f64 * take as f64 / *c as f64;
            }
            want -= take;
        }
        time / total as f64
    }
}

// ---- process memory ----------------------------------------------------

/// Parses one `Vm*:   123 kB` line out of `/proc/<pid>/status` text.
pub fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

fn self_status_kb(key: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_kb(&s, key))
        .unwrap_or(0)
}

/// Peak resident set of this process so far, in kB.
pub fn vm_hwm_kb() -> u64 {
    self_status_kb("VmHWM")
}

/// Current resident set of this process, in kB.
pub fn vm_rss_kb() -> u64 {
    self_status_kb("VmRSS")
}

// ---- digest ------------------------------------------------------------

/// FNV-1a over everything a run simulated: the simulated end-to-end
/// metrics, the deterministic counts and the store's CSV export. Equal
/// digests on two commits mean a change sped the simulator up without
/// changing the simulation.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn value(&mut self, name: &str, v: f64) {
        self.bytes(name.as_bytes());
        self.bytes(b"=");
        self.bytes(&v.to_bits().to_le_bytes());
        self.bytes(b";");
    }

    pub fn values(&mut self, values: &Values) {
        for (k, v) in values {
            self.value(k, *v);
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_percentile(50), None);
        assert_eq!(highest_percentile(99), None);
        assert_eq!(highest_percentile(100), Some(90.0));
        assert_eq!(highest_percentile(999), Some(90.0));
        assert_eq!(highest_percentile(1_000), Some(99.0));
        assert_eq!(highest_percentile(9_999), Some(99.0));
        assert_eq!(highest_percentile(10_000), Some(99.9));
    }

    #[test]
    fn summary_reports_median_tail_and_count() {
        let mut v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = summarize(&mut v).unwrap();
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.tail, Some((99.0, 990.0)));
        let mut few = vec![3.0, 1.0, 2.0];
        let s = summarize(&mut few).unwrap();
        assert_eq!((s.n, s.p50, s.tail), (3, 2.0, None));
        assert_eq!(summarize(&mut []), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        assert_eq!(quartiles(&[8.0, 1.0, 4.0, 2.0]), Some((1.25, 3.0, 7.0)));
        assert_eq!(spread(&v), Some(1.0));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn log_hist_percentiles_and_heavy_share() {
        let mut h = LogHist::default();
        for _ in 0..990 {
            h.record(100);
        }
        for _ in 0..10 {
            h.record(100_000);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.percentile(50.0), 100.0);
        assert_eq!(h.percentile(99.5), 100_000.0);
        let heavy = h.top_share_of_total(0.01);
        let expect = 1_000_000.0 / 1_099_000.0;
        assert!((heavy - expect).abs() < 1e-9, "{heavy} vs {expect}");
        // Buckets are monotone in the value.
        let mut last = 0;
        for v in [0u64, 1, 7, 8, 9, 15, 16, 17, 1000, 1 << 40, u64::MAX] {
            let b = LogHist::bucket(v);
            assert!(b >= last, "bucket({v}) = {b} < {last}");
            last = b;
        }
    }

    #[test]
    fn vm_hwm_reader_parses_proc_status() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t  123456 kB\nVmRSS:\t  1000 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(123_456));
        assert_eq!(parse_status_kb(status, "VmRSS"), Some(1_000));
        assert_eq!(parse_status_kb(status, "VmSwap"), None);
        assert_eq!(parse_status_kb("VmHWM: junk kB\n", "VmHWM"), None);
        // On Linux the live reader sees this very process. RSS first: the
        // high-water mark read afterwards can only be at or above it.
        if std::path::Path::new("/proc/self/status").exists() {
            let rss = vm_rss_kb();
            assert!(rss > 0 && vm_hwm_kb() >= rss);
        }
    }

    #[test]
    fn digest_is_stable_and_order_sensitive() {
        let mut values = Values::new();
        values.insert("a".into(), 1.5);
        values.insert("b".into(), 2.0);
        let mut d1 = Digest::default();
        d1.values(&values);
        d1.bytes(b"csv");
        let mut d2 = Digest::default();
        d2.values(&values);
        d2.bytes(b"csv");
        assert_eq!(d1.hex(), d2.hex());
        // Pinned: a silent change of the hash would invalidate every
        // recorded baseline digest.
        assert_eq!(d1.hex(), "1955848596bb0645");
        values.insert("b".into(), 2.0000000000000004);
        let mut d3 = Digest::default();
        d3.values(&values);
        d3.bytes(b"csv");
        assert_ne!(d1.hex(), d3.hex());
    }

    /// `BENCHMARK.json` is `pogo-benchmark manifest`, byte for byte.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let on_disk = include_str!("../../BENCHMARK.json");
        assert_eq!(
            on_disk,
            manifest_json(),
            "regenerate with `pogo-benchmark manifest`"
        );
        for (name, why) in WORKLOADS {
            assert!(*name == crate::collector::NAME || crate::fleet_kind(name).is_some());
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
        assert!(on_disk.len() < 64 * 1024);
    }

    #[test]
    fn tables_have_unique_well_formed_names() {
        let mut seen = std::collections::BTreeSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)));
        for (name, unit) in names {
            assert!(seen.insert(name), "duplicate metric {name}");
            assert!(name.len() <= 64 && unit.len() <= 16, "{name} [{unit}]");
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    }
}
