//! The chaos soak: a whole fleet, days of simulated time, one seed.
//!
//! [`run_workload_soak`] assembles a testbed, runs a
//! [`WorkloadSpec`]'s setup and deployment around the invariant
//! harness, generates a [`FaultPlan`] from the config seed, injects
//! it, checks invariants after every fault window, drains the fleet,
//! and runs the final loss accounting. The returned [`SoakReport`]
//! carries the verdict plus the full obs trace as JSONL — two runs of
//! the same config produce byte-identical traces, which the
//! `chaos_soak --check` CI gate asserts. [`run_soak`] is the original
//! synthetic-counter entry point, now a thin wrapper.

use std::collections::BTreeMap;

use pogo_core::{ObsConfig, ScanQuery, Testbed};
use pogo_platform::Bearer;
use pogo_sim::{Sim, SimDuration, SimTime};

use crate::inject::ChaosController;
use crate::invariant::{InvariantHarness, Violation};
use crate::plan::FaultPlan;
use crate::workload::{CounterWorkload, WorkloadSpec};

/// Quiet time between a fault window closing and the invariant check,
/// so in-flight retransmissions settle.
const SETTLE: SimDuration = SimDuration::from_mins(2);

/// Post-run drain: every phone powered and plugged in, long enough for
/// several retry periods to flush the stores.
const DRAIN: SimDuration = SimDuration::from_mins(30);

/// Configuration for [`run_soak`].
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Seed for the fault plan and all link-loss randomness.
    pub seed: u64,
    /// Fleet size.
    pub phones: usize,
    /// Simulated length of the faulted phase.
    pub duration: SimDuration,
    /// How often each phone publishes a sample.
    pub publish_period: SimDuration,
    /// Mean gap between injected faults (exponential inter-arrivals).
    pub mean_fault_gap: SimDuration,
    /// Store-and-forward age limit; older samples may expire (the one
    /// permitted loss).
    pub max_msg_age: SimDuration,
    /// Whether the report carries the obs trace as JSONL.
    pub capture_trace: bool,
}

impl Default for SoakConfig {
    /// The CI soak: 8 phones for 2 simulated days, a fault every ~20
    /// minutes (~140 faults), hour-long message expiry.
    fn default() -> Self {
        SoakConfig {
            seed: 0x0060_0d5e_ed00,
            phones: 8,
            duration: SimDuration::from_hours(48),
            publish_period: SimDuration::from_secs(120),
            mean_fault_gap: SimDuration::from_mins(20),
            max_msg_age: SimDuration::from_hours(1),
            capture_trace: true,
        }
    }
}

/// What a soak run saw; see [`run_soak`].
#[derive(Debug, Clone)]
pub struct SoakReport {
    /// The workload that was soaked.
    pub workload: String,
    /// The seed the run used.
    pub seed: u64,
    /// Faults injected.
    pub faults_injected: u64,
    /// Faults skipped because the target was already dead.
    pub faults_skipped: u64,
    /// Injection counts per fault class.
    pub faults_by_class: BTreeMap<String, u64>,
    /// Samples published across the fleet (from the `chaos-sent` logs).
    pub published: u64,
    /// Samples delivered at the collector, duplicates included.
    pub delivered: u64,
    /// Distinct samples delivered at the collector.
    pub delivered_distinct: u64,
    /// Samples expired by the store-and-forward age purge.
    pub purged: u64,
    /// Samples still buffered on devices after the drain.
    pub buffered: u64,
    /// Invariant violations (empty on a passing run).
    pub violations: Vec<Violation>,
    /// The obs trace as JSONL, empty unless `capture_trace` was set.
    pub trace_jsonl: String,
    /// The audited channels' sample-store rows exported as CSV —
    /// deterministic per seed, which the determinism gate asserts.
    pub store_csv: String,
    /// The same rows as JSONL.
    pub store_jsonl: String,
}

impl SoakReport {
    /// Number of distinct fault classes injected.
    pub fn classes(&self) -> usize {
        self.faults_by_class.len()
    }

    /// True when no invariant broke.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// FNV-1a over `trace_jsonl` then `store_csv`: one number that pins a
    /// run's trace and store across commits.
    pub fn digest(&self) -> u64 {
        let bytes = self.trace_jsonl.bytes().chain(self.store_csv.bytes());
        bytes.fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Multi-line human summary.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "chaos soak [{workload}] seed=0x{seed:x}: {injected} faults injected \
             ({skipped} skipped) across {classes} classes\n",
            workload = self.workload,
            seed = self.seed,
            injected = self.faults_injected,
            skipped = self.faults_skipped,
            classes = self.classes(),
        ));
        for (class, count) in &self.faults_by_class {
            out.push_str(&format!("  {class}: {count}\n"));
        }
        out.push_str(&format!(
            "delivery: {delivered}/{published} samples (distinct {distinct}), \
             {purged} expired, {buffered} still buffered\n",
            delivered = self.delivered,
            published = self.published,
            distinct = self.delivered_distinct,
            purged = self.purged,
            buffered = self.buffered,
        ));
        out.push_str(&format!("violations: {}\n", self.violations.len()));
        for v in &self.violations {
            out.push_str(&format!(
                "  [{at}] {device} {kind}: {detail}\n",
                at = v.at,
                device = v.device,
                kind = v.kind,
                detail = v.detail,
            ));
        }
        out
    }
}

/// The per-device counting script. `thaw`/`freeze` persist the counter
/// across reboots; the counter is frozen and logged in the same atomic
/// script step as the publish, which is what makes the invariant checks
/// sound.
pub(crate) fn tick_script(period: SimDuration) -> String {
    let period_ms = period.as_millis();
    format!(
        "var st = thaw();\n\
         var n = st == null ? 0 : st.n;\n\
         function tick() {{\n\
             n = n + 1;\n\
             freeze({{ n: n }});\n\
             publish('chaos-data', {{ n: n }});\n\
             logTo('chaos-sent', n);\n\
             setTimeout(tick, {period_ms});\n\
         }}\n\
         tick();\n"
    )
}

/// Runs one soak of the synthetic counter workload; see the module
/// docs.
pub fn run_soak(cfg: &SoakConfig) -> SoakReport {
    run_workload_soak(cfg, &CounterWorkload)
}

/// Runs one soak of an arbitrary [`WorkloadSpec`]; see the module docs.
pub fn run_workload_soak(cfg: &SoakConfig, workload: &dyn WorkloadSpec) -> SoakReport {
    let sim = Sim::new();
    let obs_cfg = ObsConfig::on()
        .ring_capacity(1 << 20)
        .only_categories(["chaos", "pogo"]);
    let mut testbed = Testbed::with_obs(&sim, obs_cfg);
    workload.setup(&mut testbed, cfg);

    let harness = InvariantHarness::for_workload(&testbed, workload.name(), workload.audits());
    workload.deploy(&testbed, cfg);

    let end = SimTime::ZERO + workload.duration(cfg);
    let plan = FaultPlan::seeded(cfg.seed)
        .devices(testbed.devices().len())
        .window(SimTime::ZERO + SimDuration::from_mins(30), end)
        .mean_gap(cfg.mean_fault_gap)
        .build();
    let controller = ChaosController::install(&testbed, &plan);
    for fault in plan.faults() {
        let h = harness.clone();
        sim.schedule_at(fault.at + fault.kind.window() + SETTLE, move || {
            h.check();
        });
    }

    sim.run_until(end + SETTLE);

    // Drain: revive and plug in the whole fleet, then let the retry
    // machinery flush every store before the loss accounting runs.
    for node in testbed.devices() {
        if node.is_powered_off() {
            node.power_on();
        }
        let phone = node.phone();
        phone.battery().set_charging(true);
        if phone.connectivity().active().is_none() {
            phone.connectivity().set_active(Some(Bearer::Wifi));
        }
    }
    sim.run_for(DRAIN);
    harness.final_check();

    let published = harness.sent_total();
    let mut purged = 0u64;
    let mut buffered = 0u64;
    for node in testbed.devices() {
        purged += node.purged();
        buffered += node.buffered() as u64;
    }
    let trace_jsonl = if cfg.capture_trace {
        pogo_obs::export::to_jsonl(&testbed.obs().events())
    } else {
        String::new()
    };
    let store = testbed.collector().store();
    let mut store_rows = Vec::new();
    for audit in workload.audits() {
        store_rows.extend(store.scan(&ScanQuery::exp(&audit.exp).channel(&audit.channel)));
    }
    let store_csv = pogo_ingest::export::to_csv(&store_rows);
    let store_jsonl = pogo_ingest::export::to_jsonl(&store_rows);
    SoakReport {
        workload: workload.name().to_owned(),
        seed: cfg.seed,
        faults_injected: controller.injected(),
        faults_skipped: controller.skipped(),
        faults_by_class: controller
            .by_class()
            .into_iter()
            .map(|(class, count)| (class.to_owned(), count))
            .collect(),
        published,
        delivered: harness.delivered_total(),
        delivered_distinct: harness.delivered_distinct(),
        purged,
        buffered,
        violations: harness.violations(),
        trace_jsonl,
        store_csv,
        store_jsonl,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature soak that still crosses several fault windows; the
    /// full-size run lives in the `chaos_soak` binary (CI runs it with
    /// `--check`).
    #[test]
    fn short_soak_holds_the_invariants() {
        let cfg = SoakConfig {
            seed: 11,
            phones: 3,
            duration: SimDuration::from_hours(4),
            mean_fault_gap: SimDuration::from_mins(10),
            capture_trace: false,
            ..SoakConfig::default()
        };
        let report = run_soak(&cfg);
        assert!(report.faults_injected >= 10, "{}", report.summary());
        assert!(report.classes() >= 3, "{}", report.summary());
        assert!(report.passed(), "{}", report.summary());
        assert!(report.delivered_distinct > 0);
    }
}
