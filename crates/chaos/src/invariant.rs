//! Delivery invariants checked during and after a chaos run.
//!
//! The harness audits N experiment channels at the collector against
//! the per-device *sent logs* each script appends to. Each audited
//! channel is declared on the collector's registry with an integer
//! schema extracting the audit's key field, so the delivered side of
//! every check is a [`SampleStore`](pogo_core::SampleStore) scan — the
//! same queryable store the benches export from — rather than a
//! harness-private callback tally. The checks assert the §4.6
//! reliability contract on every channel:
//!
//! 1. **Exactly-once arrival** — the at-least-once transport plus the
//!    collector's dedup filter never surface the same sample twice.
//! 2. **No phantoms** — everything delivered was actually published by
//!    a device (the log is written in the same atomic script step as
//!    the publish).
//! 3. **Frozen state never regresses** — where a script persists a
//!    counter with `freeze()` before every publish (the audit's
//!    `monotonic` flag), the sent log is exactly `1, 2, 3, …` with no
//!    repeats and no gaps, surviving reboots and battery deaths.
//! 4. **Expiry is the only loss** — after a final drain, every
//!    published sample is delivered, still buffered, or accounted for
//!    by the [`MessageStore`](pogo_net::MessageStore) age purge. Loss
//!    is accounted per device *across* channels, because the purge
//!    counter is store-wide.
//!
//! Which channels to audit, and with what semantics, comes from the
//! workload's [`ChannelAudit`](crate::workload::ChannelAudit) list —
//! the same harness audits the synthetic counter soak, the
//! localization pipeline, RogueFinder's geofenced stream, and the
//! table-4 cohort replay.
//!
//! Violations are deduplicated (a standing failure reports once, not
//! once per check) and mirrored as `chaos`/`violation` obs events so
//! they land in the trace next to the fault that caused them; a
//! per-workload gauge tracks the running violation count.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use pogo_core::{
    ChannelSchema, CollectorNode, DeviceNode, SampleValue, ScanQuery, Template, Testbed,
};
use pogo_obs::{field, Obs};
use pogo_sim::{Sim, SimTime};

use crate::workload::ChannelAudit;

/// One invariant violation.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Simulated time the violation was detected.
    pub at: SimTime,
    /// JID of the device involved.
    pub device: String,
    /// Audited channel the violation was found on (`*` for cross-channel
    /// checks like loss accounting).
    pub channel: String,
    /// Which invariant broke: `duplicate-delivery`, `phantom-delivery`,
    /// `frozen-state-regression`, or `untracked-loss`.
    pub kind: &'static str,
    /// Human-readable specifics.
    pub detail: String,
}

struct Inner {
    sim: Sim,
    devices: Vec<DeviceNode>,
    /// The audited collector; delivered counters are scans of its
    /// sample store (duplicates included — that is the point).
    collector: CollectorNode,
    obs: Obs,
    workload: &'static str,
    audits: Vec<ChannelAudit>,
    /// Dedup keys of violations already reported.
    reported: BTreeSet<String>,
    violations: Vec<Violation>,
    checks: u64,
}

/// Watches a chaos workload and asserts its delivery invariants; see
/// the module docs. Cheap to clone; clones share state.
#[derive(Clone)]
pub struct InvariantHarness {
    inner: Rc<RefCell<Inner>>,
}

impl std::fmt::Debug for InvariantHarness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("InvariantHarness")
            .field("workload", &inner.workload)
            .field("audits", &inner.audits.len())
            .field("checks", &inner.checks)
            .field("violations", &inner.violations.len())
            .finish()
    }
}

impl InvariantHarness {
    /// Registers every audited channel on the testbed collector's
    /// registry (an `i64` schema extracting the audit's key field).
    /// Install *before* deploying the workload so the subscriptions are
    /// mirrored to devices from the start.
    ///
    /// For each audit, device scripts must publish samples carrying the
    /// audit's `key_field` and append the same number to the audit's
    /// `sent_log` in the same script step. A sample *without* the
    /// numeric key is rejected by the schema check and surfaces as
    /// `INGEST_SCHEMA_MISMATCH` in the collector's error log and
    /// stats, instead of reaching the store.
    pub(crate) fn for_workload(
        testbed: &Testbed,
        workload: &'static str,
        audits: Vec<ChannelAudit>,
    ) -> Self {
        for audit in &audits {
            testbed
                .collector()
                .registry()
                .register(
                    &audit.exp,
                    &audit.channel,
                    ChannelSchema::new(Template::I64).field(&audit.key_field),
                )
                .expect("audit channel registers on the collector");
        }
        InvariantHarness {
            inner: Rc::new(RefCell::new(Inner {
                sim: testbed.sim().clone(),
                devices: testbed.devices().to_vec(),
                collector: testbed.collector().clone(),
                obs: testbed.obs().clone(),
                workload,
                audits,
                reported: BTreeSet::new(),
                violations: Vec::new(),
                checks: 0,
            })),
        }
    }

    /// The single-channel counter harness: subscribes to `channel` on
    /// experiment `exp`, expecting `{ n: <counter> }` samples mirrored
    /// to a `chaos-sent` log.
    pub fn install(testbed: &Testbed, exp: &str, channel: &str) -> Self {
        Self::for_workload(
            testbed,
            "counter",
            vec![ChannelAudit::new(exp, channel, "chaos-sent", "n")],
        )
    }

    /// Runs the always-valid invariants (exactly-once, no phantoms,
    /// frozen-state monotonicity) on every audited channel and returns
    /// the number of *new* violations found.
    pub fn check(&self) -> usize {
        self.run_check(false)
    }

    /// Runs every invariant including the loss accounting. Call after
    /// the run has drained (devices powered, links clean, retry periods
    /// elapsed); in-flight messages would otherwise count as loss.
    pub fn final_check(&self) -> usize {
        self.run_check(true)
    }

    /// All violations found so far.
    pub fn violations(&self) -> Vec<Violation> {
        self.inner.borrow().violations.clone()
    }

    /// Total samples delivered at the collector across all audited
    /// channels (duplicates included) — a sample-store row count.
    pub fn delivered_total(&self) -> u64 {
        let (collector, audits) = self.collector_and_audits();
        // `store()` flushes first, so the counters cover every sample.
        let store = collector.store();
        audits
            .iter()
            .filter_map(|a| store.channel_counters(&a.exp, &a.channel))
            .map(|c| c.rows)
            .sum()
    }

    /// Distinct samples delivered at the collector, per audited channel
    /// per device.
    pub fn delivered_distinct(&self) -> u64 {
        let (collector, audits) = self.collector_and_audits();
        let store = collector.store();
        let mut total = 0u64;
        for audit in &audits {
            let mut per_device: BTreeMap<String, BTreeSet<i64>> = BTreeMap::new();
            for row in store.scan(&ScanQuery::exp(&audit.exp).channel(&audit.channel)) {
                if let SampleValue::I64(n) = row.value {
                    per_device.entry(row.device).or_default().insert(n);
                }
            }
            total += per_device.values().map(|s| s.len() as u64).sum::<u64>();
        }
        total
    }

    fn collector_and_audits(&self) -> (CollectorNode, Vec<ChannelAudit>) {
        let inner = self.inner.borrow();
        (inner.collector.clone(), inner.audits.clone())
    }

    /// The delivered key sequence for one audit channel and device, in
    /// arrival order, scanned from the collector's sample store. Every
    /// check runs it once per phone per channel, which makes it the
    /// in-repo consumer of device-filtered scans (the store resolves
    /// `jid` to its id once and compares ids, not names, row by row).
    fn delivered_seq(&self, audit: &ChannelAudit, jid: &str) -> Vec<i64> {
        let collector = self.inner.borrow().collector.clone();
        collector
            .store()
            .scan(
                &ScanQuery::exp(&audit.exp)
                    .channel(&audit.channel)
                    .device(jid),
            )
            .into_iter()
            .filter_map(|row| match row.value {
                SampleValue::I64(n) => Some(n),
                _ => None,
            })
            .collect()
    }

    /// Total samples the devices logged as sent across all audits.
    pub(crate) fn sent_total(&self) -> u64 {
        let inner = self.inner.borrow();
        let mut total = 0u64;
        for audit in &inner.audits {
            for node in &inner.devices {
                total += node.logs().line_count(&audit.sent_log) as u64;
            }
        }
        total
    }

    fn run_check(&self, full: bool) -> usize {
        let (devices, audits) = {
            let inner = self.inner.borrow();
            (inner.devices.clone(), inner.audits.clone())
        };
        let before = self.inner.borrow().violations.len();
        for audit in &audits {
            for node in &devices {
                let jid = node.jid().to_string();
                let sent = self.sent_log(node, audit);
                let delivered = self.delivered_seq(audit, &jid);
                self.check_exactly_once(&jid, &audit.channel, &delivered);
                self.check_no_phantoms(&jid, &audit.channel, &sent, &delivered);
                if audit.monotonic {
                    self.check_frozen_monotonic(&jid, &audit.channel, &sent);
                }
            }
        }
        if full {
            // Loss is accounted per device across every audited channel:
            // the store's purge counter does not distinguish channels.
            for node in &devices {
                self.check_loss_accounting(node, &audits);
            }
        }
        let (new, checks, workload, total) = {
            let mut inner = self.inner.borrow_mut();
            inner.checks += 1;
            (
                inner.violations.len() - before,
                inner.checks,
                inner.workload,
                inner.violations.len(),
            )
        };
        let obs = self.inner.borrow().obs.clone();
        obs.event(
            "chaos",
            if full {
                "final-check"
            } else {
                "invariant-check"
            },
            vec![field("check", checks), field("new_violations", new)],
        );
        obs.metrics().gauge(violation_gauge(workload), total as f64);
        new
    }

    fn sent_log(&self, node: &DeviceNode, audit: &ChannelAudit) -> Vec<i64> {
        node.logs()
            .lines(&audit.sent_log)
            .iter()
            .filter_map(|line| line.trim().parse::<f64>().ok())
            .map(|v| v as i64)
            .collect()
    }

    fn check_exactly_once(&self, jid: &str, channel: &str, delivered: &[i64]) {
        let mut counts: BTreeMap<i64, usize> = BTreeMap::new();
        for &n in delivered {
            *counts.entry(n).or_insert(0) += 1;
        }
        for (n, count) in counts {
            if count > 1 {
                self.report(
                    jid,
                    channel,
                    "duplicate-delivery",
                    format!("sample n={n} delivered {count} times"),
                );
            }
        }
    }

    fn check_no_phantoms(&self, jid: &str, channel: &str, sent: &[i64], delivered: &[i64]) {
        let sent: BTreeSet<i64> = sent.iter().copied().collect();
        for &n in delivered {
            if !sent.contains(&n) {
                self.report(
                    jid,
                    channel,
                    "phantom-delivery",
                    format!("sample n={n} delivered but never logged as sent"),
                );
            }
        }
    }

    fn check_frozen_monotonic(&self, jid: &str, channel: &str, sent: &[i64]) {
        for (i, &n) in sent.iter().enumerate() {
            let expected = i as i64 + 1;
            if n != expected {
                self.report(
                    jid,
                    channel,
                    "frozen-state-regression",
                    format!("sent log position {i} holds n={n}, expected {expected}"),
                );
                // One report per device: after the first divergence every
                // later position is off by the same shift.
                break;
            }
        }
    }

    fn check_loss_accounting(&self, node: &DeviceNode, audits: &[ChannelAudit]) {
        let jid = node.jid().to_string();
        let mut sent_total = 0u64;
        let mut distinct = 0u64;
        for audit in audits {
            sent_total += self.sent_log(node, audit).len() as u64;
            distinct += self
                .delivered_seq(audit, &jid)
                .iter()
                .collect::<BTreeSet<_>>()
                .len() as u64;
        }
        let purged = node.purged();
        let buffered = node.buffered() as u64;
        if sent_total > distinct + purged + buffered {
            self.report(
                &jid,
                "*",
                "untracked-loss",
                format!(
                    "{sent_total} sent but only {distinct} delivered + {purged} expired \
                     + {buffered} buffered"
                ),
            );
        }
    }

    fn report(&self, device: &str, channel: &str, kind: &'static str, detail: String) {
        let key = format!("{device}|{channel}|{kind}|{detail}");
        {
            let mut inner = self.inner.borrow_mut();
            if !inner.reported.insert(key) {
                return;
            }
            let at = inner.sim.now();
            inner.violations.push(Violation {
                at,
                device: device.to_owned(),
                channel: channel.to_owned(),
                kind,
                detail: detail.clone(),
            });
        }
        let obs = self.inner.borrow().obs.clone();
        obs.event(
            "chaos",
            "violation",
            vec![
                field("kind", kind),
                field("device", device.to_owned()),
                field("channel", channel.to_owned()),
                field("detail", detail),
            ],
        );
        obs.metrics().inc("chaos.violations", 1);
    }
}

/// Static per-workload violation gauge names (metrics keys must not
/// allocate on the hot path and must be stable across versions).
fn violation_gauge(workload: &str) -> &'static str {
    match workload {
        "counter" => "chaos.violations.counter",
        "localization" => "chaos.violations.localization",
        "roguefinder" => "chaos.violations.roguefinder",
        "table4" => "chaos.violations.table4",
        _ => "chaos.violations.workload",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pogo_core::proto::{ExperimentSpec, ScriptSpec};
    use pogo_core::DeviceSetup;
    use pogo_net::FlushPolicy;
    use pogo_sim::SimDuration;

    /// Forges a sample straight into the collector-side broker, as if a
    /// device had published it — it flows through the registry's real
    /// ingest path into the store, which is what the checks scan.
    fn forge(tb: &Testbed, channel: &str, n: f64) {
        use pogo_core::Msg;
        tb.collector()
            .context("chaos")
            .expect("experiment exists")
            .broker()
            .publish_from(
                channel,
                &Msg::obj([("n", Msg::Num(n))]),
                Some("phone-0@pogo"),
            );
    }

    fn ticking_testbed(sim: &Sim) -> (Testbed, InvariantHarness) {
        let mut tb = Testbed::new(sim);
        tb.add(
            DeviceSetup::named("phone-0")
                .configure(|c| c.with_flush_policy(FlushPolicy::Immediate)),
        );
        let harness = InvariantHarness::install(&tb, "chaos", "chaos-data");
        let jids = vec![tb.devices()[0].jid()];
        tb.collector()
            .deployment(&ExperimentSpec {
                id: "chaos".into(),
                scripts: vec![ScriptSpec {
                    name: "tick.js".into(),
                    source: crate::soak::tick_script(SimDuration::from_secs(60)),
                }],
            })
            .to(&jids)
            .send()
            .expect("tick script passes lint");
        (tb, harness)
    }

    #[test]
    fn clean_run_has_no_violations() {
        let sim = Sim::new();
        let (_tb, harness) = ticking_testbed(&sim);
        sim.run_for(SimDuration::from_mins(30));
        assert_eq!(harness.final_check(), 0, "{:?}", harness.violations());
        assert!(harness.delivered_distinct() >= 25);
    }

    #[test]
    fn fabricated_duplicate_is_caught_once() {
        let sim = Sim::new();
        let (tb, harness) = ticking_testbed(&sim);
        sim.run_for(SimDuration::from_mins(10));
        forge(&tb, "chaos-data", 1.0);
        assert_eq!(harness.check(), 1);
        assert_eq!(harness.check(), 0, "standing violation reports once");
        assert_eq!(harness.violations()[0].kind, "duplicate-delivery");
        assert_eq!(harness.violations()[0].channel, "chaos-data");
    }

    #[test]
    fn fabricated_phantom_is_caught() {
        let sim = Sim::new();
        let (tb, harness) = ticking_testbed(&sim);
        sim.run_for(SimDuration::from_mins(10));
        forge(&tb, "chaos-data", 9_999.0);
        harness.check();
        assert!(harness
            .violations()
            .iter()
            .any(|v| v.kind == "phantom-delivery"));
    }

    /// Two audited channels are tracked independently: a duplicate
    /// fabricated on one never bleeds into the other's bookkeeping.
    #[test]
    fn audits_are_tracked_per_channel() {
        let sim = Sim::new();
        let mut tb = Testbed::new(&sim);
        tb.add(
            DeviceSetup::named("phone-0")
                .configure(|c| c.with_flush_policy(FlushPolicy::Immediate)),
        );
        let harness = InvariantHarness::for_workload(
            &tb,
            "dual",
            vec![
                ChannelAudit::new("chaos", "chaos-data", "chaos-sent", "n"),
                ChannelAudit::new("chaos", "chaos-echo", "chaos-echo-sent", "n"),
            ],
        );
        let jids = vec![tb.devices()[0].jid()];
        // One script, two channels, two sent logs.
        let src = "var n = 0;\n\
                   function tick() {\n\
                       n = n + 1;\n\
                       publish('chaos-data', { n: n });\n\
                       logTo('chaos-sent', n);\n\
                       publish('chaos-echo', { n: n });\n\
                       logTo('chaos-echo-sent', n);\n\
                       setTimeout(tick, 60000);\n\
                   }\n\
                   tick();\n";
        tb.collector()
            .deployment(&ExperimentSpec {
                id: "chaos".into(),
                scripts: vec![ScriptSpec {
                    name: "dual.js".into(),
                    source: src.into(),
                }],
            })
            .to(&jids)
            .send()
            .expect("dual script passes lint");
        sim.run_for(SimDuration::from_mins(20));
        assert_eq!(harness.final_check(), 0, "{:?}", harness.violations());
        // Both channels saw the same distinct counters.
        let data_audit = ChannelAudit::new("chaos", "chaos-data", "chaos-sent", "n");
        let echo_audit = ChannelAudit::new("chaos", "chaos-echo", "chaos-echo-sent", "n");
        let a = harness.delivered_seq(&data_audit, "phone-0@pogo");
        let b = harness.delivered_seq(&echo_audit, "phone-0@pogo");
        assert!(!a.is_empty());
        assert_eq!(a, b);
        // A duplicate on channel 1 is attributed to channel 1 only.
        forge(&tb, "chaos-echo", 1.0);
        assert_eq!(harness.check(), 1);
        assert_eq!(harness.violations()[0].channel, "chaos-echo");
    }
}
