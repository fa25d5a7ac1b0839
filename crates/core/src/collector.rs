//! The collector node: the researcher's side of the middleware.
//!
//! §4.2: "researcher nodes are operating in *collector* mode, which gives
//! them the ability to deploy scripts". A collector runs the same
//! middleware minus the phone: it is a PC on mains power with a wired
//! connection, so its "CPU" never sleeps and its transmissions carry no
//! tail energy. It owns the collector-side contexts (multi-brokers), the
//! reliable control channel to each device (retransmitting on presence),
//! and script deployment.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use pogo_ingest::{ChannelSchema, IngestError, IngestPipeline, SampleStore};
use pogo_net::{Jid, Switchboard};
use pogo_obs::{field, Obs};
use pogo_platform::{Cpu, CpuConfig, EnergyMeter};
use pogo_script::ScriptError;
use pogo_sim::{Sim, SimDuration};

use crate::bump;
use crate::context::CollectorContext;
use crate::host::{LogStore, ScriptHost};
use crate::link::{Hooks, Link};
use crate::proto::{ControlMsg, ExperimentSpec};
use crate::registry::{self, ChannelFilter, ChannelRegistry, CollectorStats, SampleEvent};
use crate::scheduler::Scheduler;
use crate::value::Msg;

/// Retransmission backstop for pending control messages (presence is the
/// fast path; this covers acks lost in flight).
const RETRY_PERIOD: SimDuration = SimDuration::from_secs(60);

/// Delay between reconnect attempts after the switchboard kicks the
/// collector (restart or outage). The collector is on mains with a wired
/// link, so it dials back in aggressively.
const RECONNECT_DELAY: SimDuration = SimDuration::from_secs(2);

/// One-way latency of the collector's wired link.
const LINK_LATENCY: SimDuration = SimDuration::from_millis(5);

/// The collector's half of the link: a wired, always-on dial; acks sent
/// at once; device presence → retransmit; after a kick (restart/outage),
/// a retransmission to every device, whose presence may have fired while
/// we were dark.
static LINK_HOOKS: Hooks<CollectorNode> = Hooks {
    link: |me| &me.inner.link,
    dial: |_| Some(LINK_LATENCY),
    redial: |_| Some(RECONNECT_DELAY),
    radio: None,
    deliver: CollectorNode::on_control,
    reconnected: |me| {
        me.inner.obs.event("pogo", "reconnect", vec![]);
        me.inner.link.transmit(None, true);
    },
    presence: |me, device| me.inner.link.transmit(Some(device), true),
};

/// A deployment rejected by the pre-flight static analyzer: the bundle
/// contains at least one error-severity finding, so no device was sent
/// anything.
#[derive(Debug, Clone)]
pub struct DeployError {
    /// The experiment whose deployment was rejected.
    pub experiment: String,
    /// `(script name, diagnostic)` for every error-severity finding.
    pub errors: Vec<(String, pogo_script::Diagnostic)>,
}

impl std::fmt::Display for DeployError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "experiment `{}` rejected by pre-deployment analysis ({} error(s))",
            self.experiment,
            self.errors.len()
        )?;
        for (script, diag) in &self.errors {
            write!(f, "\n  {script}: {diag}")?;
        }
        Ok(())
    }
}

impl std::error::Error for DeployError {}

/// A staged deployment, built with [`CollectorNode::deployment`].
///
/// `.to(devices)` adds explicit targets (deploy). With **no** targets,
/// [`Deployment::send`] pushes to the experiment's existing members
/// (redeploy) — a no-op if the experiment has none.
#[must_use = "a Deployment does nothing until .send() is called"]
pub struct Deployment<'a> {
    collector: CollectorNode,
    spec: &'a ExperimentSpec,
    targets: Vec<Jid>,
}

impl Deployment<'_> {
    /// Adds explicit target devices. May be called repeatedly; targets
    /// accumulate.
    pub fn to(mut self, devices: &[Jid]) -> Self {
        self.targets.extend_from_slice(devices);
        self
    }

    /// Runs the pre-flight gate and pushes the scripts out. The gate is
    /// always on — "never burn a phone's energy on a script that cannot
    /// run": error-severity findings reject the deployment, warnings go
    /// to the collector's `pogo-lint` log.
    ///
    /// # Errors
    ///
    /// Returns every error-severity diagnostic when the bundle fails
    /// analysis; no device receives anything in that case.
    pub fn send(self) -> Result<(), DeployError> {
        self.collector.gate(self.spec)?;
        self.collector.push(self.spec, &self.targets);
        Ok(())
    }
}

/// Wiring is set once in [`CollectorNode::with_obs`] and never
/// reassigned (every handle is itself shared). Of what changes, a
/// collector restart would keep the durable part — with the link's
/// per-peer records, `logs` and the `pipeline`'s store — and rebuild the
/// rest.
struct Inner {
    // -- wiring --
    jid: Jid,
    sim: Sim,
    scheduler: Scheduler,
    /// The reliable control channel to every device (§4.6).
    link: Link<CollectorNode>,
    logs: LogStore,
    /// The ingestion pipeline behind the registry API: registered
    /// channels, batch builders, and the queryable sample store.
    pipeline: IngestPipeline,
    /// JID-scoped observability handle (off unless configured).
    obs: Obs,
    // -- durable state --
    versions: RefCell<HashMap<String, u64>>,
    data_received: Cell<u64>,
    // -- volatile state --
    contexts: RefCell<HashMap<String, CollectorContext>>,
    /// Push consumers attached with `attach_listener`, fired after a
    /// sample is accepted into the pipeline.
    listeners: RefCell<Vec<(ChannelFilter, registry::Listener)>>,
    retry_armed: Cell<bool>,
}

/// A Pogo collector node. Cheap to clone; clones share state.
#[derive(Clone)]
pub struct CollectorNode {
    inner: Rc<Inner>,
}

impl std::fmt::Debug for CollectorNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CollectorNode")
            .field("jid", &self.inner.jid.as_str())
            .field("experiments", &self.inner.contexts.borrow().len())
            .field("data_received", &self.inner.data_received.get())
            .finish()
    }
}

impl CollectorNode {
    /// Creates and connects a collector. The JID must be registered on
    /// the server.
    ///
    /// # Panics
    ///
    /// Panics if the JID is unknown to the server (a deployment
    /// configuration error).
    pub fn new(sim: &Sim, server: &Switchboard, jid: &Jid) -> Self {
        Self::with_obs(sim, server, jid, &Obs::off())
    }

    /// Like [`CollectorNode::new`], additionally recording into `obs`
    /// (scoped to the collector's JID).
    ///
    /// # Panics
    ///
    /// Panics if the JID is unknown to the server (a deployment
    /// configuration error).
    pub fn with_obs(sim: &Sim, server: &Switchboard, jid: &Jid, obs: &Obs) -> Self {
        let obs = obs.scoped(jid.as_str());
        // The collector's machine: always-on, not energy-metered (mains).
        let meter = EnergyMeter::new(sim);
        let cpu = Cpu::new(
            sim,
            &meter,
            CpuConfig {
                awake_power: 0.0,
                asleep_power: 0.0,
                ..CpuConfig::default()
            },
        );
        // Never let the PC sleep.
        std::mem::forget(cpu.acquire_wake_lock());
        let logs = LogStore::with_obs(&obs);
        let link = Link::new(&LINK_HOOKS, sim, server, jid, &obs, &logs);
        let node = CollectorNode {
            inner: Rc::new(Inner {
                jid: jid.clone(),
                sim: sim.clone(),
                scheduler: Scheduler::with_obs(&cpu, &obs),
                link,
                logs,
                pipeline: IngestPipeline::new(sim, &obs),
                obs,
                versions: RefCell::default(),
                data_received: Cell::new(0),
                contexts: RefCell::default(),
                listeners: RefCell::default(),
                retry_armed: Cell::new(false),
            }),
        };
        let connected = node.inner.link.connect(&node).is_some();
        assert!(connected, "collector JID must be registered");
        node
    }

    /// This collector's JID.
    pub fn jid(&self) -> Jid {
        self.inner.jid.clone()
    }

    /// The collector's log storage (collector scripts' `log`/`logTo`).
    pub fn logs(&self) -> LogStore {
        self.inner.logs.clone()
    }

    /// A snapshot of the collector's counters: transport receipts, the
    /// ingestion pipeline's write-side stats, and diagnostic log sizes.
    pub fn stats(&self) -> CollectorStats {
        let inner = &self.inner;
        CollectorStats {
            data_received: inner.data_received.get(),
            ingest: inner.pipeline.stats(),
            lint_findings: inner.logs.line_count("pogo-lint"),
            errors_logged: inner.logs.line_count("pogo-errors"),
        }
    }

    /// Seqs the collector's dedup sets hold above their floors, every
    /// device together: none once each device's low-water mark has
    /// arrived and nothing it sent is still in flight.
    pub fn held_above_floor(&self) -> usize {
        self.inner.link.held_above_floor()
    }

    /// The registry handle for declaring typed channels on this
    /// collector — the consumption API (see [`ChannelRegistry`]).
    pub fn registry(&self) -> ChannelRegistry {
        ChannelRegistry::new(self)
    }

    /// The queryable sample store behind the registry. Flushes every
    /// pending batch first, so a scan right after a run sees all
    /// ingested samples regardless of the flush watermarks.
    pub fn store(&self) -> SampleStore {
        self.inner.pipeline.flush_all();
        self.inner.pipeline.store()
    }

    pub(crate) fn pipeline(&self) -> &IngestPipeline {
        &self.inner.pipeline
    }

    /// Attaches a push consumer: `f` runs for every sample matching
    /// `filter` *after* it is accepted into the ingestion pipeline
    /// (schema-mismatched samples are rejected and never reach
    /// listeners). When the filter names a single `(exp, channel)`,
    /// the channel is auto-registered with the catch-all JSON schema —
    /// so attaching a listener alone is enough to start consuming.
    /// Filters broader than one channel only see channels that were
    /// (or later are) registered.
    pub fn attach_listener(&self, filter: ChannelFilter, f: impl Fn(&SampleEvent) + 'static) {
        if let (Some(exp), Some(channel)) = (filter.exp_name(), filter.channel_name()) {
            let (exp, channel) = (exp.to_owned(), channel.to_owned());
            // An existing registration (any schema) already ingests the
            // channel; a conflict here just means the listener rides on
            // the declared schema instead of the catch-all.
            let _ = self.register_channel(&exp, &channel, Msg::Null, ChannelSchema::json());
        }
        self.inner.listeners.borrow_mut().push((filter, Rc::new(f)));
    }

    /// Registers a channel in the pipeline and, when newly registered,
    /// creates its collector-side broker subscription (mirrored to
    /// devices like any other subscription). The subscription's sink
    /// is the ingest path: extract per schema → append → listeners.
    pub(crate) fn register_channel(
        &self,
        exp: &str,
        channel: &str,
        params: Msg,
        schema: ChannelSchema,
    ) -> Result<(), IngestError> {
        let newly = self.inner.pipeline.register(exp, channel, schema.clone())?;
        if !newly {
            return Ok(());
        }
        let ctx = self.create_experiment(exp);
        let me = self.clone();
        let exp_owned = exp.to_owned();
        // A registered schema never changes (re-registering another is a
        // conflict), so the sink keeps it rather than look it up per sample.
        ctx.broker()
            .subscribe(channel, params, move |channel, msg, from| {
                me.ingest_data(&exp_owned, channel, &schema, from.unwrap_or(""), msg);
            });
        Ok(())
    }

    /// One sample arrived on a registered channel's subscription.
    fn ingest_data(
        &self,
        exp: &str,
        channel: &str,
        schema: &ChannelSchema,
        device: &str,
        msg: &Msg,
    ) {
        let pipeline = &self.inner.pipeline;
        match registry::extract_sample(schema, msg) {
            Ok(value) => match pipeline.append(exp, channel, device, value) {
                Ok(()) => self.dispatch_listeners(exp, channel, device, msg),
                Err(e) => self.log_ingest_error(&e),
            },
            Err(got) => {
                let e = pipeline.reject_mismatch(exp, channel, device, &got);
                self.log_ingest_error(&e);
            }
        }
    }

    fn dispatch_listeners(&self, exp: &str, channel: &str, device: &str, msg: &Msg) {
        let event = SampleEvent {
            exp,
            channel,
            device,
            at: self.inner.sim.now(),
            msg,
        };
        // By index, not under one borrow: a listener may use the collector.
        // Listeners are only ever appended.
        for i in 0.. {
            let listener = match self.inner.listeners.borrow().get(i) {
                Some((filter, listener)) if filter.matches(exp, channel, device) => {
                    listener.clone()
                }
                Some(_) => continue,
                None => break,
            };
            listener(&event);
        }
    }

    fn log_ingest_error(&self, e: &IngestError) {
        let line = format!("[{}] {e}", e.code());
        self.inner.logs.append("pogo-errors", line);
    }

    /// This node's observability handle (scoped to its JID; off unless
    /// constructed via [`CollectorNode::with_obs`]).
    pub fn obs(&self) -> Obs {
        self.inner.obs.clone()
    }

    /// The context for an experiment, if created.
    pub fn context(&self, exp: &str) -> Option<CollectorContext> {
        self.inner.contexts.borrow().get(exp).cloned()
    }

    // ---- experiment management ----------------------------------------------

    /// Creates (or returns) the collector-side context for `exp`.
    pub fn create_experiment(&self, exp: &str) -> CollectorContext {
        if let Some(ctx) = self.context(exp) {
            return ctx;
        }
        let me = self.clone();
        let ctx = CollectorContext::with_obs(
            exp,
            move |device, ctl| {
                let Ok(jid) = Jid::new(device) else { return };
                me.send_reliable(&jid, &ctl);
            },
            &self.inner.obs,
        );
        let mut contexts = self.inner.contexts.borrow_mut();
        contexts.insert(exp.to_owned(), ctx.clone());
        ctx
    }

    /// Installs a collector-side script into an experiment.
    ///
    /// # Errors
    ///
    /// Returns the script's load error.
    pub fn install_collector_script(
        &self,
        exp: &str,
        name: &str,
        source: &str,
        customize: impl FnOnce(&ScriptHost),
    ) -> Result<ScriptHost, ScriptError> {
        let ctx = self.create_experiment(exp);
        let inner = &self.inner;
        ctx.install_script(name, source, &inner.scheduler, &inner.logs, customize)
    }

    /// Convenience for scripts without extension natives.
    ///
    /// # Errors
    ///
    /// Returns the script's load error.
    pub fn install_script(
        &self,
        exp: &str,
        name: &str,
        source: &str,
    ) -> Result<ScriptHost, ScriptError> {
        self.install_collector_script(exp, name, source, |_| {})
    }

    /// Starts a [`Deployment`] of `spec`'s device scripts — §3.2's
    /// push-based deployment: devices receive and run the scripts with
    /// no user interaction.
    ///
    /// Chain `.to(devices)` to add targets, then `.send()`:
    ///
    /// ```ignore
    /// collector.deployment(&spec).to(&[device.jid()]).send()?;   // deploy
    /// collector.deployment(&spec).send()?;                       // redeploy to members
    /// ```
    pub fn deployment<'a>(&self, spec: &'a ExperimentSpec) -> Deployment<'a> {
        Deployment {
            collector: self.clone(),
            spec,
            targets: Vec::new(),
        }
    }

    /// Sends `spec` (with a bumped version) to `targets`, adding them as
    /// context members — or, with no targets, to the experiment's
    /// existing members: quick redeployment, the §3.2 motivation (a
    /// no-op when the experiment has no context yet).
    fn push(&self, spec: &ExperimentSpec, targets: &[Jid]) {
        let (ctx, devices) = if targets.is_empty() {
            let Some(ctx) = self.context(&spec.id) else {
                return;
            };
            let members = ctx.devices();
            let devices = members.iter().filter_map(|d| Jid::new(d).ok()).collect();
            (ctx, devices)
        } else {
            (self.create_experiment(&spec.id), targets.to_vec())
        };
        let version = self.bump_version(&spec.id);
        for device in &devices {
            // Sync existing collector subscriptions FIRST so they are in
            // place before any deployed script's load-time publishes (a
            // no-op for a device that is already a member).
            ctx.add_device(device.as_str());
            self.send_reliable(
                device,
                &ControlMsg::Deploy {
                    exp: spec.id.clone(),
                    version,
                    scripts: spec.scripts.clone(),
                },
            );
        }
    }

    fn bump_version(&self, exp: &str) -> u64 {
        let mut versions = self.inner.versions.borrow_mut();
        let v = versions.entry(exp.to_owned()).or_insert(0);
        *v += 1;
        let version = *v;
        self.inner.obs.event(
            "pogo",
            "deploy",
            vec![field("exp", exp.to_owned()), field("version", version)],
        );
        version
    }

    /// Runs the spec's bundle through [`pogo_script::deploy_gate`] — the
    /// same lint → compile → verify → cost pass `pogo-lint` runs, against
    /// the watchdog budgets the devices enforce. Errors reject the
    /// deployment; warnings go to the collector's `pogo-lint` log — the
    /// same [`LogStore`] stream the scripts write to, so `pogo-trace`
    /// sees one unified log. The gate compiles through the per-thread
    /// cache, so the bundle is compiled once per spec and every simulated
    /// phone then loads the shared chunks.
    fn gate(&self, spec: &ExperimentSpec) -> Result<(), DeployError> {
        let bundle: Vec<(&str, &str)> = spec
            .scripts
            .iter()
            .map(|s| (s.name.as_str(), s.source.as_str()))
            .collect();
        let report = pogo_script::deploy_gate(&bundle, &pogo_script::AnalyzeOptions::default());
        let inner = &self.inner;
        // A lint-rejected bundle compiled nothing: it leaves no `deploy.*`
        // sample. Stage timings count once lint passed, the compile
        // counters only for a bundle that is pushed.
        let programs = &report.programs;
        if inner.obs.is_enabled() && !programs.is_empty() {
            let m = inner.obs.metrics();
            m.observe("deploy.verify_us", report.verify_us);
            m.observe("deploy.absint_us", report.absint_us);
            if report.deployable() {
                m.inc("deploy.compiled_scripts", programs.len() as u64);
                m.inc(
                    "deploy.compile.ops",
                    programs.iter().map(|p| p.op_count).sum(),
                );
                let fns = programs.iter().map(|p| u64::from(p.fn_count)).sum();
                m.inc("deploy.compile.fns", fns);
                m.observe("deploy.compile_us", report.compile_us);
            }
        }
        let mut errors = Vec::new();
        for (script, diag) in report.findings {
            if diag.is_error() {
                errors.push((script, diag));
            } else {
                inner.logs.append("pogo-lint", format!("{script}: {diag}"));
            }
        }
        if errors.is_empty() {
            Ok(())
        } else {
            Err(DeployError {
                experiment: spec.id.clone(),
                errors,
            })
        }
    }

    /// Removes the experiment from `devices`.
    pub fn undeploy(&self, exp: &str, devices: &[Jid]) {
        for device in devices {
            self.send_reliable(
                device,
                &ControlMsg::Undeploy {
                    exp: exp.to_owned(),
                },
            );
        }
    }

    // ---- reliable control channel ---------------------------------------------

    /// Queues a control message for a device, transmitting immediately if
    /// it is online (the collector is on mains: no batching needed).
    fn send_reliable(&self, device: &Jid, ctl: &ControlMsg) {
        self.inner.link.enqueue(device, ctl.to_json());
        self.inner.link.transmit(Some(device), false);
        self.arm_retry();
    }

    /// Periodic retransmission backstop while anything is pending.
    fn arm_retry(&self) {
        if self.inner.retry_armed.replace(true) {
            return;
        }
        let me = self.clone();
        self.inner.scheduler.run_later(RETRY_PERIOD, move || {
            me.inner.retry_armed.set(false);
            me.inner.link.transmit(None, true);
            if me.inner.link.owes() {
                me.arm_retry();
            }
        });
    }

    // ---- inbound ----------------------------------------------------------------

    /// A fresh control message from a device: only sample data is
    /// expected.
    fn on_control(&self, ctl: ControlMsg, from: &Jid) {
        let inner = &self.inner;
        match ctl {
            ControlMsg::Data {
                exp,
                channel,
                msg,
                sub_ref,
            } => {
                bump(&inner.data_received, 1);
                inner.obs.metrics().inc("pogo.data_received", 1);
                if let Some(ctx) = self.context(&exp) {
                    ctx.handle_data(from.as_str(), &channel, &msg, sub_ref);
                }
            }
            other => inner.logs.append(
                "pogo-errors",
                format!("unexpected control from {from}: {other:?}"),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{DeviceConfig, DeviceNode};
    use crate::proto::ScriptSpec;
    use crate::sensor::SensorSources;

    use pogo_net::FlushPolicy;
    use pogo_platform::{Phone, PhoneConfig};

    fn testbed() -> (Sim, Switchboard, CollectorNode, DeviceNode, Phone) {
        let sim = Sim::new();
        let server = Switchboard::new(&sim);
        let col_jid = Jid::new("collector@pogo").unwrap();
        let dev_jid = Jid::new("device-1@pogo").unwrap();
        server.register(&col_jid);
        server.register(&dev_jid);
        server.befriend(&col_jid, &dev_jid).unwrap();
        let collector = CollectorNode::new(&sim, &server, &col_jid);
        let phone = Phone::new(&sim, PhoneConfig::default());
        let mut cfg = DeviceConfig::new(dev_jid);
        cfg.flush_policy = FlushPolicy::Immediate;
        let device = DeviceNode::new(&phone, &server, cfg, SensorSources::default());
        device.boot();
        (sim, server, collector, device, phone)
    }

    #[test]
    fn deploy_runs_scripts_on_device() {
        let (sim, _server, collector, device, _phone) = testbed();
        collector
            .deployment(&ExperimentSpec {
                id: "exp".into(),
                scripts: vec![ScriptSpec {
                    name: "hello.js".into(),
                    source: "print('deployed');".into(),
                }],
            })
            .to(&[device.jid()])
            .send()
            .expect("scripts pass pre-deployment analysis");
        sim.run_for(SimDuration::from_mins(1));
        let ctx = device.context("exp").expect("deployed");
        assert_eq!(ctx.scripts()[0].prints(), vec!["deployed"]);
    }

    #[test]
    fn collector_script_receives_device_data_with_attribution() {
        let (sim, _server, collector, device, _phone) = testbed();
        collector
            .install_script(
                "exp",
                "collect.js",
                "var n = 0;
                 subscribe('readings', function (msg, from) {
                     n++;
                     print(from + ' says ' + msg.value);
                 });",
            )
            .unwrap();
        collector
            .deployment(&ExperimentSpec {
                id: "exp".into(),
                scripts: vec![ScriptSpec {
                    name: "send.js".into(),
                    source: "publish('readings', { value: 42 });".into(),
                }],
            })
            .to(&[device.jid()])
            .send()
            .expect("scripts pass pre-deployment analysis");
        sim.run_for(SimDuration::from_mins(2));
        let host = &collector.context("exp").unwrap().scripts()[0];
        assert_eq!(host.prints(), vec!["device-1@pogo says 42"]);
    }

    #[test]
    fn collector_subscription_activates_device_sensor() {
        let (sim, _server, collector, device, _phone) = testbed();
        let readings = Rc::new(RefCell::new(Vec::new()));
        let r = readings.clone();
        collector
            .registry()
            .register(
                "exp",
                "battery",
                ChannelSchema::new(pogo_ingest::Template::F64).field("voltage"),
            )
            .unwrap();
        collector.attach_listener(
            ChannelFilter::exp("exp").channel("battery"),
            move |event: &SampleEvent| {
                r.borrow_mut()
                    .push((event.device.to_owned(), event.msg.clone()));
            },
        );
        collector
            .deployment(&ExperimentSpec {
                id: "exp".into(),
                scripts: vec![],
            })
            .to(&[device.jid()])
            .send()
            .expect("scripts pass pre-deployment analysis");
        sim.run_for(SimDuration::from_mins(1));
        assert!(
            device.sensors().is_sampling("battery"),
            "mirrored subscription woke the battery sensor"
        );
        sim.run_for(SimDuration::from_mins(5));
        let readings = readings.borrow();
        assert!(
            readings.len() >= 4,
            "battery readings arrived: {}",
            readings.len()
        );
        assert_eq!(readings[0].0, "device-1@pogo");
        assert!(readings[0].1.get("voltage").is_some());
        // The registered schema extracted the voltage field into the
        // store's f64 column.
        let rows = collector
            .store()
            .scan(&pogo_ingest::ScanQuery::exp("exp").channel("battery"));
        assert_eq!(rows.len(), readings.len());
        assert!(matches!(rows[0].value, pogo_ingest::SampleValue::F64(_)));
    }

    #[test]
    fn schema_mismatch_rejects_sample_and_logs_stable_code() {
        let (sim, _server, collector, device, _phone) = testbed();
        collector
            .registry()
            .register(
                "exp",
                "readings",
                ChannelSchema::new(pogo_ingest::Template::I64).field("n"),
            )
            .unwrap();
        let heard = Rc::new(RefCell::new(0u32));
        let h = heard.clone();
        collector.attach_listener(ChannelFilter::exp("exp").channel("readings"), move |_| {
            *h.borrow_mut() += 1
        });
        collector
            .deployment(&ExperimentSpec {
                id: "exp".into(),
                scripts: vec![ScriptSpec {
                    name: "send.js".into(),
                    // One good sample, one string where an integer
                    // belongs.
                    source: "publish('readings', { n: 1 });\n\
                             publish('readings', { n: 'oops' });"
                        .into(),
                }],
            })
            .to(&[device.jid()])
            .send()
            .expect("scripts pass pre-deployment analysis");
        sim.run_for(SimDuration::from_mins(2));
        let stats = collector.stats();
        assert_eq!(stats.ingest.ingested_rows, 1);
        assert_eq!(stats.ingest.schema_mismatches, 1);
        // The rejected sample never reached listeners …
        assert_eq!(*heard.borrow(), 1);
        // … and surfaced in the error log with the stable code.
        let errors = collector.logs().lines("pogo-errors").join("\n");
        assert!(
            errors.contains("INGEST_SCHEMA_MISMATCH") && errors.contains("readings"),
            "mismatch logged: {errors:?}"
        );
        // The store holds only the well-typed sample.
        let rows = collector
            .store()
            .scan(&pogo_ingest::ScanQuery::exp("exp").channel("readings"));
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].value, pogo_ingest::SampleValue::I64(1));
    }

    #[test]
    fn single_channel_listener_delivers_and_ingests() {
        let (sim, _server, collector, device, _phone) = testbed();
        let heard = Rc::new(RefCell::new(Vec::new()));
        let h = heard.clone();
        collector.attach_listener(
            ChannelFilter::exp("exp").channel("pings"),
            move |event: &SampleEvent| {
                h.borrow_mut()
                    .push((event.device.to_owned(), event.msg.clone()));
            },
        );
        collector
            .deployment(&ExperimentSpec {
                id: "exp".into(),
                scripts: vec![ScriptSpec {
                    name: "send.js".into(),
                    source: "publish('pings', { hello: 1 });".into(),
                }],
            })
            .to(&[device.jid()])
            .send()
            .expect("scripts pass pre-deployment analysis");
        sim.run_for(SimDuration::from_mins(2));
        assert_eq!(heard.borrow().len(), 1);
        assert_eq!(heard.borrow()[0].0, "device-1@pogo");
        // The shim auto-registered the channel with the JSON schema.
        let rows = collector
            .store()
            .scan(&pogo_ingest::ScanQuery::exp("exp").channel("pings"));
        assert_eq!(rows.len(), 1);
        assert_eq!(
            rows[0].value,
            pogo_ingest::SampleValue::Json("{\"hello\":1}".into())
        );
    }

    #[test]
    fn pending_deploy_waits_for_offline_device() {
        let sim = Sim::new();
        let server = Switchboard::new(&sim);
        let col_jid = Jid::new("collector@pogo").unwrap();
        let dev_jid = Jid::new("device-1@pogo").unwrap();
        server.register(&col_jid);
        server.register(&dev_jid);
        server.befriend(&col_jid, &dev_jid).unwrap();
        let collector = CollectorNode::new(&sim, &server, &col_jid);
        // Deploy while the device does not exist yet.
        collector
            .deployment(&ExperimentSpec {
                id: "exp".into(),
                scripts: vec![ScriptSpec {
                    name: "s.js".into(),
                    source: "print('late boot');".into(),
                }],
            })
            .to(std::slice::from_ref(&dev_jid))
            .send()
            .expect("scripts pass pre-deployment analysis");
        sim.run_for(SimDuration::from_mins(5));
        // Device comes online much later; presence triggers retransmit.
        let phone = Phone::new(&sim, PhoneConfig::default());
        let device = DeviceNode::new(
            &phone,
            &server,
            DeviceConfig::new(dev_jid),
            SensorSources::default(),
        );
        device.boot();
        sim.run_for(SimDuration::from_mins(2));
        let ctx = device.context("exp").expect("deploy arrived on reconnect");
        assert_eq!(ctx.scripts()[0].prints(), vec!["late boot"]);
    }

    #[test]
    fn redeploy_restarts_device_scripts_with_new_version() {
        let (sim, _server, collector, device, _phone) = testbed();
        collector
            .deployment(&ExperimentSpec {
                id: "exp".into(),
                scripts: vec![ScriptSpec {
                    name: "v.js".into(),
                    source: "print('v1');".into(),
                }],
            })
            .to(&[device.jid()])
            .send()
            .expect("scripts pass pre-deployment analysis");
        sim.run_for(SimDuration::from_mins(1));
        collector
            .deployment(&ExperimentSpec {
                id: "exp".into(),
                scripts: vec![ScriptSpec {
                    name: "v.js".into(),
                    source: "print('v2');".into(),
                }],
            })
            .send()
            .expect("scripts pass pre-deployment analysis");
        sim.run_for(SimDuration::from_mins(1));
        let ctx = device.context("exp").unwrap();
        assert_eq!(ctx.version(), 2);
        assert_eq!(ctx.scripts()[0].prints(), vec!["v2"]);
    }

    #[test]
    fn undeploy_removes_context() {
        let (sim, _server, collector, device, _phone) = testbed();
        collector
            .deployment(&ExperimentSpec {
                id: "exp".into(),
                scripts: vec![],
            })
            .to(&[device.jid()])
            .send()
            .expect("scripts pass pre-deployment analysis");
        sim.run_for(SimDuration::from_mins(1));
        assert!(device.context("exp").is_some());
        collector.undeploy("exp", &[device.jid()]);
        sim.run_for(SimDuration::from_mins(1));
        assert!(device.context("exp").is_none());
    }

    #[test]
    fn collector_publish_fans_out_to_device_scripts() {
        let (sim, _server, collector, device, _phone) = testbed();
        collector
            .deployment(&ExperimentSpec {
                id: "exp".into(),
                scripts: vec![ScriptSpec {
                    name: "listen.js".into(),
                    source: "subscribe('config', function (m, from) { print('cfg ' + m.rate); });"
                        .into(),
                }],
            })
            .to(&[device.jid()])
            .send()
            .expect("scripts pass pre-deployment analysis");
        sim.run_for(SimDuration::from_mins(1));
        // A collector script publishes configuration.
        collector
            .install_script("exp", "push.js", "publish('config', { rate: 9 });")
            .unwrap();
        sim.run_for(SimDuration::from_mins(1));
        let ctx = device.context("exp").unwrap();
        assert_eq!(ctx.scripts()[0].prints(), vec!["cfg 9"]);
    }

    #[test]
    fn deploy_rejects_broken_script_before_any_phone_receives_it() {
        let (sim, _server, collector, device, _phone) = testbed();
        // A scope error, and nesting deep enough to overflow the stack
        // of a parser without a depth budget.
        let deep = format!("var x = {}1;", "(".repeat(200_000));
        for (source, code) in [
            ("publish('ch', missing_variable);", "P001"),
            (&deep, "P000"),
        ] {
            let err = collector
                .deployment(&ExperimentSpec {
                    id: "exp".into(),
                    scripts: vec![ScriptSpec {
                        name: "broken.js".into(),
                        source: source.into(),
                    }],
                })
                .to(&[device.jid()])
                .send()
                .expect_err("an error-level finding must reject the deployment");
            assert_eq!(err.experiment, "exp");
            assert_eq!(err.errors.len(), 1);
            assert_eq!(err.errors[0].0, "broken.js");
            assert_eq!(err.errors[0].1.rule.code(), code);
        }
        // Nothing was sent: the device never hears about the experiment.
        sim.run_for(SimDuration::from_mins(5));
        assert!(device.context("exp").is_none());
        assert_eq!(collector.stats().data_received, 0);
    }

    #[test]
    fn deploy_forwards_warnings_to_collector_log() {
        let (sim, _server, collector, device, _phone) = testbed();
        collector
            .deployment(&ExperimentSpec {
                id: "exp".into(),
                scripts: vec![ScriptSpec {
                    name: "warny.js".into(),
                    // Subscribes a channel nothing publishes → P103
                    // warning: deploys fine, but leaves a log trail.
                    source: "subscribe('nonexistent-feed', function (m) { print(m); });".into(),
                }],
            })
            .to(&[device.jid()])
            .send()
            .expect("warnings do not block deployment");
        sim.run_for(SimDuration::from_mins(1));
        assert!(device.context("exp").is_some());
        let lint_log = collector.logs().lines("pogo-lint").join("\n");
        assert!(
            lint_log.contains("P103") && lint_log.contains("nonexistent-feed"),
            "lint log records the warning: {lint_log:?}"
        );
    }

    #[test]
    fn deploy_rejects_guaranteed_over_budget_callback_with_p301() {
        let (sim, _server, collector, device, _phone) = testbed();
        // Every invocation of this callback provably burns ≥ 20M × a
        // few instructions — past the 10M watchdog budget on its
        // cheapest path, so no phone could ever complete it.
        let err = collector
            .deployment(&ExperimentSpec {
                id: "exp".into(),
                scripts: vec![ScriptSpec {
                    name: "hot.js".into(),
                    source: "subscribe('accelerometer', function (m) {\n\
                             \x20 var s = 0;\n\
                             \x20 for (var i = 0; i < 20000000; i++) { s = s + i; }\n\
                             \x20 publish(s, 'out');\n\
                             });"
                    .into(),
                }],
            })
            .to(&[device.jid()])
            .send()
            .expect_err("statically over-budget callback must reject the deployment");
        assert_eq!(err.experiment, "exp");
        assert_eq!(err.errors.len(), 1);
        assert_eq!(err.errors[0].0, "hot.js");
        assert_eq!(err.errors[0].1.rule.code(), "P301");
        // Rejected at the collector: the device never hears about it.
        sim.run_for(SimDuration::from_mins(5));
        assert!(device.context("exp").is_none());
    }

    #[test]
    fn unbounded_cost_is_a_warning_not_a_deploy_blocker() {
        let (sim, _server, collector, device, _phone) = testbed();
        // Data-dependent iteration: the analyzer cannot bound it, but
        // the runtime watchdog still protects the fleet — P302 is a
        // logged warning, not a rejection.
        collector
            .deployment(&ExperimentSpec {
                id: "exp".into(),
                scripts: vec![ScriptSpec {
                    name: "scan.js".into(),
                    source: "subscribe('wifi-scan', function (msg) {\n\
                             \x20 var n = 0;\n\
                             \x20 for (var i = 0; i < msg.count; i++) { n = n + 1; }\n\
                             \x20 publish(n, 'seen');\n\
                             });"
                    .into(),
                }],
            })
            .to(&[device.jid()])
            .send()
            .expect("unbounded cost deploys with a warning");
        sim.run_for(SimDuration::from_mins(1));
        assert!(device.context("exp").is_some());
        let lint_log = collector.logs().lines("pogo-lint").join("\n");
        assert!(
            lint_log.contains("P302"),
            "unbounded-cost warning reaches the log: {lint_log:?}"
        );
    }

    #[test]
    fn rejected_deployments_leave_no_compile_metrics() {
        let sim = Sim::new();
        let server = Switchboard::new(&sim);
        let jid = Jid::new("collector@pogo").unwrap();
        server.register(&jid);
        let obs = pogo_obs::ObsConfig::on().build(&sim);
        let collector = CollectorNode::with_obs(&sim, &server, &jid, &obs);
        let deploy = |source: &str| {
            let spec = ExperimentSpec {
                id: "exp".into(),
                scripts: vec![ScriptSpec {
                    name: "s.js".into(),
                    source: source.into(),
                }],
            };
            collector.deployment(&spec).send().is_ok()
        };
        let deploy_keys = || -> Vec<String> {
            let rows = obs.metrics().snapshot();
            let names = rows.into_iter().map(|r| r.name);
            names.filter(|n| n.starts_with("deploy.")).collect()
        };
        // Lint-rejected: nothing was compiled, nothing is recorded.
        assert!(!deploy("publish('ch', missing_variable);"));
        assert_eq!(deploy_keys(), Vec::<String>::new());
        // Cost-rejected (P301): the stages ran, but nothing is pushed.
        assert!(!deploy(
            "subscribe('accelerometer', function (m) {\n\
             \x20 var s = 0;\n\
             \x20 for (var i = 0; i < 20000000; i++) { s = s + i; }\n\
             \x20 publish(s, 'out');\n\
             });"
        ));
        assert_eq!(deploy_keys(), ["deploy.absint_us", "deploy.verify_us"]);
        assert!(deploy("print('ok');"));
        assert_eq!(
            obs.metrics()
                .scoped(jid.as_str())
                .counter("deploy.compiled_scripts"),
            1
        );
    }

    #[test]
    fn redeploy_rejects_broken_script_set() {
        let (sim, _server, collector, device, _phone) = testbed();
        collector
            .deployment(&ExperimentSpec {
                id: "exp".into(),
                scripts: vec![ScriptSpec {
                    name: "v.js".into(),
                    source: "print('v1');".into(),
                }],
            })
            .to(&[device.jid()])
            .send()
            .expect("scripts pass pre-deployment analysis");
        sim.run_for(SimDuration::from_mins(1));
        collector
            .deployment(&ExperimentSpec {
                id: "exp".into(),
                scripts: vec![ScriptSpec {
                    name: "v.js".into(),
                    source: "print(v2_counter); var v2_counter = 0;".into(),
                }],
            })
            .send()
            .expect_err("use-before-declaration rejects the redeploy");
        sim.run_for(SimDuration::from_mins(1));
        // The old version keeps running.
        let ctx = device.context("exp").unwrap();
        assert_eq!(ctx.version(), 1);
    }

    #[test]
    fn redeploy_with_no_targets_and_no_context_is_a_noop() {
        let (sim, _server, collector, device, _phone) = testbed();
        collector
            .deployment(&ExperimentSpec {
                id: "ghost".into(),
                scripts: vec![],
            })
            .send()
            .expect("nothing to lint away");
        sim.run_for(SimDuration::from_mins(1));
        assert!(device.context("ghost").is_none());
    }

    #[test]
    fn collector_reconnects_after_switchboard_restart() {
        let (sim, server, collector, device, _phone) = testbed();
        collector
            .deployment(&ExperimentSpec {
                id: "exp".into(),
                scripts: vec![ScriptSpec {
                    name: "s.js".into(),
                    source: "print('survived');".into(),
                }],
            })
            .to(&[device.jid()])
            .send()
            .expect("scripts pass pre-deployment analysis");
        sim.run_for(SimDuration::from_mins(1));
        server.restart();
        sim.run_for(SimDuration::from_mins(2));
        assert!(
            server.is_online(&collector.jid()),
            "collector dialed back in after the restart"
        );
        assert!(server.is_online(&device.jid()), "device too");
    }
}
