//! Workload abstraction for the chaos harness.
//!
//! A [`WorkloadSpec`] describes everything the soak driver needs to run
//! delivery-invariant checks against an arbitrary Pogo deployment: how
//! to populate the testbed, how to deploy its experiments, and which
//! channels to audit with which semantics. The original synthetic
//! counter soak is [`CounterWorkload`]; the root crate implements the
//! localization, RogueFinder, and table-4 cohort workloads on the same
//! trait.
//!
//! Each audited channel names a *sent log* — a device-side log stream
//! the script appends the sample's sequence number to in the same
//! atomic script step as the publish — and the message field carrying
//! that number. That pairing is what makes exactly-once / no-phantom
//! checks sound without trusting the transport being tested.

use pogo_core::Testbed;
use pogo_sim::SimDuration;

use crate::soak::SoakConfig;

/// One collector-side channel audited for delivery invariants.
#[derive(Debug, Clone)]
pub struct ChannelAudit {
    /// Experiment id the channel belongs to.
    pub exp: String,
    /// Channel name at the collector.
    pub channel: String,
    /// Device log stream the script appends each published sequence
    /// number to (same script step as the publish).
    pub sent_log: String,
    /// Message field carrying the sequence number.
    pub key_field: String,
    /// Whether the script emits a dense `1, 2, 3, …` sequence that the
    /// frozen-state monotonicity check can assert.
    pub monotonic: bool,
}

impl ChannelAudit {
    /// An audit with the monotonic-sequence check enabled (the common
    /// case: scripts that `freeze()` a counter before publishing).
    pub fn new(exp: &str, channel: &str, sent_log: &str, key_field: &str) -> Self {
        ChannelAudit {
            exp: exp.to_owned(),
            channel: channel.to_owned(),
            sent_log: sent_log.to_owned(),
            key_field: key_field.to_owned(),
            monotonic: true,
        }
    }
}

/// A workload the chaos soak can run and audit; see the module docs.
pub trait WorkloadSpec {
    /// Short stable name (used in reports and per-workload metrics).
    fn name(&self) -> &'static str;

    /// Adds devices (and any sensor sources) to the testbed. Runs
    /// before the invariant harness subscribes, so every audited
    /// channel sees traffic from the first sample.
    fn setup(&self, testbed: &mut Testbed, cfg: &SoakConfig);

    /// Deploys the workload's experiments. Runs after the harness has
    /// subscribed to the audited channels.
    fn deploy(&self, testbed: &Testbed, cfg: &SoakConfig);

    /// The channels to audit and their per-channel semantics.
    fn audits(&self) -> Vec<ChannelAudit>;

    /// Simulated length of the faulted phase; defaults to the config's.
    fn duration(&self, cfg: &SoakConfig) -> SimDuration {
        cfg.duration
    }
}

/// The original synthetic workload: every phone runs the counting
/// script and publishes `{ n: 1, 2, 3, … }` on one channel.
#[derive(Debug, Clone, Copy, Default)]
pub struct CounterWorkload;

impl WorkloadSpec for CounterWorkload {
    fn name(&self) -> &'static str {
        "counter"
    }

    fn setup(&self, testbed: &mut Testbed, cfg: &SoakConfig) {
        use pogo_core::DeviceSetup;
        use pogo_net::FlushPolicy;
        let age = cfg.max_msg_age;
        for i in 0..cfg.phones {
            testbed.add(
                DeviceSetup::named(&format!("phone-{i}")).configure(move |c| {
                    c.with_flush_policy(FlushPolicy::Interval(SimDuration::from_secs(90)))
                        .with_max_msg_age(age)
                }),
            );
        }
    }

    fn deploy(&self, testbed: &Testbed, cfg: &SoakConfig) {
        use pogo_core::proto::{ExperimentSpec, ScriptSpec};
        use pogo_core::DeviceNode;
        use pogo_net::Jid;
        let jids: Vec<Jid> = testbed.devices().iter().map(DeviceNode::jid).collect();
        testbed
            .collector()
            .deployment(&ExperimentSpec {
                id: "chaos".into(),
                scripts: vec![ScriptSpec {
                    name: "tick.js".into(),
                    source: crate::soak::tick_script(cfg.publish_period),
                }],
            })
            .to(&jids)
            .send()
            .expect("chaos tick script passes the lint gate");
    }

    fn audits(&self) -> Vec<ChannelAudit> {
        vec![ChannelAudit::new("chaos", "chaos-data", "chaos-sent", "n")]
    }
}
