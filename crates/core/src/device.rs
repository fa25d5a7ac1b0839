//! The device node: the Pogo middleware as it runs on a phone.
//!
//! Owns the per-experiment [`DeviceContext`]s, the [`SensorManager`], the
//! reliable link (§4.6; `link.rs`) with its persistent store-and-forward
//! buffer, and §4.7's tail-synchronized transmission. Reboots tear down
//! everything *except* what lives on flash — installed experiments, the
//! message store, logs, and frozen script state — exactly the §5.3
//! failure model.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::rc::{Rc, Weak};

use pogo_net::{FlushPolicy, Jid, Switchboard};
use pogo_obs::{field, Obs};
use pogo_platform::{Bearer, Phone, RadioState};
use pogo_sim::{SimDuration, SimTime};

use crate::bump;
use crate::context::{DataSink, DeviceContext};
use crate::host::{FrozenSlot, LogStore};
use crate::link::{self, Hooks, Link};
use crate::privacy::PrivacyPolicy;
use crate::proto::{ControlMsg, ScriptSpec};
use crate::scheduler::Scheduler;
use crate::sensor::{SensorManager, SensorSources};
use crate::tail::TailDetector;
use crate::value::Msg;

/// One-way latency on the cellular bearer.
const CELLULAR_LATENCY: SimDuration = SimDuration::from_millis(120);
/// One-way latency on Wi-Fi.
const WIFI_LATENCY: SimDuration = SimDuration::from_millis(30);
/// How long a data message stays in flight once it has entered the
/// network: until then the device does not hand it to the same session
/// again, however often its flush policy fires. Its ack comes back one
/// cellular leg each way and two 5 ms wired legs later, 250 ms (70 ms on
/// Wi-Fi), so this leaves eight round trips for jitter, and a message
/// still unacked after it goes out again with the next flush.
pub const ACK_TIMEOUT: SimDuration = SimDuration::from_secs(2);
/// Tail-detector poll period (§4.7 uses 1 second).
const TAIL_POLL: SimDuration = SimDuration::from_secs(1);
/// Delay before reconnecting after an interface change or a kick.
const RECONNECT_DELAY: SimDuration = SimDuration::from_secs(5);
/// Time from reboot to the middleware running again.
const BOOT_DELAY: SimDuration = SimDuration::from_secs(45);

/// The device's half of the link: dial over the active bearer, carry
/// acks over the radio, hand control messages to the contexts.
static LINK_HOOKS: Hooks<DeviceNode> = Hooks {
    link: |me| &me.inner.link,
    dial: |me| {
        let connectivity = me.inner.phone.connectivity();
        let latency = match connectivity.active()? {
            Bearer::Cellular => CELLULAR_LATENCY,
            Bearer::Wifi => WIFI_LATENCY,
        };
        connectivity.is_online().then_some(latency)
    },
    redial: |me| me.is_booted().then_some(RECONNECT_DELAY),
    // Acks ride immediately: the modem is already in DCH from receiving
    // the data, so this costs almost nothing extra.
    radio: Some(|me, session, ack| {
        let me2 = me.clone();
        let _ = me.inner.phone.transmit(ack.wire_size(), 0, move || {
            let _ = session.send(&ack.to, ack.seq, ack.payload);
            me2.resync_tail();
        });
    }),
    deliver: DeviceNode::handle_control,
    reconnected: |me| me.maybe_flush(false),
    presence: |_, _| {},
};

/// Device-node configuration.
#[derive(Debug, Clone)]
pub struct DeviceConfig {
    /// This device's address.
    pub jid: Jid,
    /// When buffered messages go out (§4.7; Pogo default: tail-sync).
    pub flush_policy: FlushPolicy,
    /// Buffered messages older than this are purged — §5.3's 24 hours.
    pub max_msg_age: SimDuration,
    /// How long after a flush an unchanged buffer is not evaluated for
    /// another: the flush policy is not asked again until new data is
    /// queued or this has passed. It gates re-flushing only; whether a
    /// message already sent goes out again is [`ACK_TIMEOUT`]'s call.
    pub retransmit_timeout: SimDuration,
    /// The owner's sharing preferences (§3.3). Shared handle: toggling a
    /// channel in the "settings UI" applies immediately.
    pub privacy: PrivacyPolicy,
    /// Observability handle; [`Obs::off`] (the default) records nothing.
    /// The node scopes it to its own JID at construction.
    pub obs: Obs,
}

impl DeviceConfig {
    /// Default configuration for a device JID.
    pub fn new(jid: Jid) -> Self {
        DeviceConfig {
            jid,
            flush_policy: FlushPolicy::pogo_default(),
            max_msg_age: SimDuration::from_hours(24),
            retransmit_timeout: SimDuration::from_secs(60),
            privacy: PrivacyPolicy::allow_all(),
            obs: Obs::off(),
        }
    }

    /// Sets the flush policy (§4.7; default: tail-sync).
    pub fn with_flush_policy(mut self, policy: FlushPolicy) -> Self {
        self.flush_policy = policy;
        self
    }

    /// Sets the buffered-message age limit (§5.3; default 24 h).
    pub fn with_max_msg_age(mut self, age: SimDuration) -> Self {
        self.max_msg_age = age;
        self
    }

    /// Attaches an observability handle; the node scopes it to its JID.
    pub fn with_obs(mut self, obs: &Obs) -> Self {
        self.obs = obs.clone();
        self
    }
}

/// An installed experiment as persisted to "flash".
#[derive(Debug, Clone)]
struct Installed {
    version: u64,
    scripts: Rc<[ScriptSpec]>,
    collector: Jid,
}

/// `scripts` as one allocation for every simulated phone on this thread
/// that has the same list installed. A phone keeps the sources it was
/// sent so that it can restart them after a reboot; a fleet is sent the
/// same ones, and the simulator need not hold a copy for each phone (the
/// compiled chunks are shared the same way, by `compile_cached`).
fn shared_scripts(scripts: &[ScriptSpec]) -> Rc<[ScriptSpec]> {
    thread_local! {
        static INSTALLED: RefCell<Vec<Weak<[ScriptSpec]>>> = const { RefCell::new(Vec::new()) };
    }
    INSTALLED.with(|lists| {
        let mut lists = lists.borrow_mut();
        lists.retain(|list| list.strong_count() > 0);
        let mut known = lists.iter().filter_map(Weak::upgrade);
        if let Some(shared) = known.find(|list| **list == *scripts) {
            return shared;
        }
        let shared: Rc<[ScriptSpec]> = scripts.into();
        lists.push(Rc::downgrade(&shared));
        shared
    })
}

/// A mirrored collector subscription as persisted: `(channel, params,
/// active)`.
type MirrorSpec = (String, Msg, bool);

/// A flush listener: `(instant, batch size)`.
type FlushListener = Rc<dyn Fn(SimTime, usize)>;

/// Wiring is set once in [`DeviceNode::new`] and never reassigned (every
/// handle is itself shared); only what changes afterwards sits in a cell.
/// No cell borrow is held across a call that can re-enter the node.
struct Inner {
    // -- wiring --
    cfg: DeviceConfig,
    phone: Phone,
    scheduler: Scheduler,
    sensors: SensorManager,
    /// JID-scoped observability handle (off unless configured).
    obs: Obs,
    // -- flash-persistent state (survives reboot) --
    /// The session and the per-peer outboxes and seen-sets (§4.6).
    link: Link<DeviceNode>,
    logs: LogStore,
    frozen: RefCell<HashMap<(String, String), FrozenSlot>>,
    // BTreeMaps where HashMaps would do: boot/reboot/privacy iterate
    // these while scheduling events, and the deterministic sim (and the
    // chaos determinism property) needs a stable order.
    installed: RefCell<BTreeMap<String, Installed>>,
    /// Mirrored collector subscriptions, persisted so they are re-applied
    /// when a context is re-instantiated (reboot, script update, or a
    /// Subscribe that arrived before its Deploy).
    mirror_specs: RefCell<BTreeMap<String, BTreeMap<u64, MirrorSpec>>>,
    // -- volatile state --
    contexts: RefCell<BTreeMap<String, DeviceContext>>,
    tail: RefCell<Option<TailDetector>>,
    booted: Cell<bool>,
    /// True from power-off until [`DeviceNode::power_on`] — the battery
    /// died; unlike a reboot, nothing is scheduled to bring it back.
    powered_off: Cell<bool>,
    flushing: Cell<bool>,
    deadline_armed: Cell<bool>,
    /// New data was enqueued since the last flush.
    dirty: Cell<bool>,
    last_flush: Cell<Option<SimTime>>,
    flush_listeners: RefCell<Vec<FlushListener>>,
    flushes: Cell<u64>,
    reboots: Cell<u64>,
    messages_sent: Cell<u64>,
}

/// A Pogo device node. Cheap to clone; clones share state.
#[derive(Clone)]
pub struct DeviceNode {
    inner: Rc<Inner>,
}

impl std::fmt::Debug for DeviceNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeviceNode")
            .field("jid", &self.inner.cfg.jid.as_str())
            .field("booted", &self.inner.booted.get())
            .field("contexts", &self.inner.contexts.borrow().len())
            .field("buffered", &self.inner.link.depth())
            .finish()
    }
}

impl DeviceNode {
    /// Creates a device node on `phone`, talking to `server`. The JID
    /// must already be registered. Call [`DeviceNode::boot`] to start.
    pub fn new(
        phone: &Phone,
        server: &Switchboard,
        cfg: DeviceConfig,
        sources: SensorSources,
    ) -> Self {
        let obs = cfg.obs.scoped(cfg.jid.as_str());
        let scheduler = Scheduler::with_obs(phone.cpu(), &obs);
        let sensors = SensorManager::with_obs(phone, &scheduler, sources, &obs);
        let logs = LogStore::with_obs(&obs);
        let link = Link::new(&LINK_HOOKS, phone.sim(), server, &cfg.jid, &obs, &logs);
        let node = DeviceNode {
            inner: Rc::new(Inner {
                cfg,
                phone: phone.clone(),
                scheduler,
                sensors,
                obs,
                link,
                logs,
                frozen: RefCell::default(),
                installed: RefCell::default(),
                mirror_specs: RefCell::default(),
                contexts: RefCell::default(),
                tail: RefCell::new(None),
                booted: Cell::new(false),
                powered_off: Cell::new(false),
                flushing: Cell::new(false),
                deadline_armed: Cell::new(false),
                dirty: Cell::new(false),
                last_flush: Cell::new(None),
                flush_listeners: RefCell::default(),
                flushes: Cell::new(0),
                reboots: Cell::new(0),
                messages_sent: Cell::new(0),
            }),
        };
        node.wire_connectivity();
        node.wire_privacy();
        node.wire_obs();
        node
    }

    /// This node's observability handle (scoped to its JID; off unless
    /// configured via [`DeviceConfig::with_obs`]).
    pub fn obs(&self) -> Obs {
        self.inner.obs.clone()
    }

    /// Subscribes the CPU and radio state machines into the trace: `cpu`
    /// wake/sleep events with awake-dwell (wake-lock hold) histograms,
    /// `radio` RRC transitions with per-state dwell histograms and a
    /// ramp-up counter.
    fn wire_obs(&self) {
        let obs = &self.inner.obs;
        if !obs.is_enabled() {
            return;
        }
        {
            let obs = obs.clone();
            let awake_since: Cell<Option<SimTime>> = Cell::new(None);
            self.inner.phone.cpu().on_state_change(move |awake| {
                let now = obs.now();
                if awake {
                    obs.event("cpu", "wake", vec![]);
                    obs.metrics().inc("cpu.wakeups", 1);
                    awake_since.set(Some(now));
                } else {
                    obs.event("cpu", "sleep", vec![]);
                    if let Some(since) = awake_since.take() {
                        obs.metrics().observe(
                            "cpu.awake_ms",
                            now.saturating_duration_since(since).as_millis() as f64,
                        );
                    }
                }
            });
        }
        {
            let obs = obs.clone();
            let last: Cell<Option<(RadioState, SimTime)>> = Cell::new(None);
            self.inner.phone.modem().on_state_change(move |state, at| {
                if let Some((prev, since)) = last.replace(Some((state, at))) {
                    obs.metrics().observe(
                        radio_dwell_metric(prev),
                        at.saturating_duration_since(since).as_millis() as f64,
                    );
                }
                if state == RadioState::RampUp {
                    obs.metrics().inc("radio.ramp_ups", 1);
                }
                obs.event_at(at, "radio", radio_state_name(state), vec![]);
            });
        }
    }

    /// This device's JID.
    pub fn jid(&self) -> Jid {
        self.inner.cfg.jid.clone()
    }

    /// The phone this node runs on.
    pub fn phone(&self) -> Phone {
        self.inner.phone.clone()
    }

    /// The device's persistent log storage (`log`/`logTo` output; the
    /// experiment's "raw traces … collected after the experiment as
    /// ground truth" live here).
    pub fn logs(&self) -> LogStore {
        self.inner.logs.clone()
    }

    /// The context for an experiment, if deployed.
    pub fn context(&self, exp: &str) -> Option<DeviceContext> {
        self.inner.contexts.borrow().get(exp).cloned()
    }

    /// The sensor manager.
    pub fn sensors(&self) -> SensorManager {
        self.inner.sensors.clone()
    }

    /// Unacknowledged buffered messages.
    pub fn buffered(&self) -> usize {
        self.inner.link.depth()
    }

    /// Messages purged by the age limit so far.
    pub fn purged(&self) -> u64 {
        self.inner.link.purged()
    }

    /// Seqs the phone's dedup sets hold above their floors, every sender
    /// together: none once each sender's low-water mark has arrived and
    /// nothing it sent is still in flight.
    pub fn held_above_floor(&self) -> usize {
        self.inner.link.held_above_floor()
    }

    /// Data messages handed to the network so far.
    pub fn messages_sent(&self) -> u64 {
        self.inner.messages_sent.get()
    }

    /// Number of buffer flushes performed.
    pub fn flushes(&self) -> u64 {
        self.inner.flushes.get()
    }

    /// Number of reboots so far.
    pub fn reboots(&self) -> u64 {
        self.inner.reboots.get()
    }

    /// Registers a listener invoked with `(instant, batch_size)` whenever
    /// the device pushes its buffer out (used by the Figure 4 timeline).
    pub fn on_flush(&self, f: impl Fn(SimTime, usize) + 'static) {
        self.inner.flush_listeners.borrow_mut().push(Rc::new(f));
    }

    // ---- lifecycle ---------------------------------------------------------

    /// Starts the middleware: connects (if a bearer is up), starts the
    /// tail detector, and re-installs experiments persisted from before a
    /// reboot.
    pub fn boot(&self) {
        if self.inner.booted.get() || self.inner.powered_off.get() {
            return;
        }
        self.inner.booted.set(true);
        self.inner.obs.event("pogo", "boot", vec![]);
        self.inner.link.connect(self);
        self.start_tail_detector();
        // Reinstall persisted experiments (empty on first boot).
        let installed = self.inner.installed.borrow().clone();
        for (exp, spec) in installed {
            self.instantiate_context(&exp, spec.version, &spec.scripts, &spec.collector);
        }
        self.maybe_flush(false);
    }

    /// Reboots the phone's middleware: everything volatile is lost —
    /// running scripts (unfrozen state included), mirrored subscriptions,
    /// the session — then the node boots again after `BOOT_DELAY` (45 s).
    pub fn reboot(&self) {
        self.inner.obs.event("pogo", "reboot", vec![]);
        self.inner.obs.metrics().inc("pogo.reboots", 1);
        bump(&self.inner.reboots, 1);
        self.shutdown_volatile();
        let me = self.clone();
        // A reboot is not CPU sleep/wake bookkeeping; schedule directly.
        self.inner
            .phone
            .sim()
            .schedule_in(BOOT_DELAY, move || me.boot());
    }

    /// Hard power loss (battery death): everything volatile dies exactly
    /// as in a reboot, but nothing is scheduled to bring the device back —
    /// it stays dark until [`DeviceNode::power_on`].
    pub fn power_off(&self) {
        if self.inner.powered_off.get() {
            return;
        }
        self.inner.obs.event("pogo", "power-off", vec![]);
        self.inner.obs.metrics().inc("pogo.power_offs", 1);
        self.inner.powered_off.set(true);
        self.shutdown_volatile();
    }

    /// Powers the device back on (battery replaced / charged): boots the
    /// middleware immediately; flash state is intact.
    pub fn power_on(&self) {
        if !self.inner.powered_off.replace(false) {
            return;
        }
        self.inner.obs.event("pogo", "power-on", vec![]);
        self.boot();
    }

    /// True while the device is hard powered off.
    pub fn is_powered_off(&self) -> bool {
        self.inner.powered_off.get()
    }

    /// True while the middleware is running (between boot and reboot).
    pub fn is_booted(&self) -> bool {
        self.inner.booted.get()
    }

    /// Tears down everything that does not live on flash: contexts (with
    /// their unfrozen script state), the session, the tail detector, and
    /// the sensors. Shared by [`DeviceNode::reboot`] and
    /// [`DeviceNode::power_off`].
    fn shutdown_volatile(&self) {
        self.inner.booted.set(false);
        self.inner.flushing.set(false);
        self.inner.deadline_armed.set(false);
        let contexts = self.inner.contexts.take();
        let tail = self.inner.tail.take();
        for (_, ctx) in contexts {
            ctx.shutdown();
        }
        if let Some(tail) = tail {
            tail.stop();
        }
        self.inner.link.disconnect();
        self.inner.sensors.shutdown();
    }

    /// Restarts one experiment's scripts in place (a researcher pushed a
    /// new version, or §5.3's clean restart). Frozen state survives.
    fn instantiate_context(
        &self,
        exp: &str,
        version: u64,
        scripts: &[ScriptSpec],
        collector: &Jid,
    ) {
        // Tear down any previous incarnation.
        let old = self.inner.contexts.borrow_mut().remove(exp);
        if let Some(old) = old {
            old.shutdown();
            self.inner.sensors.detach_context(exp);
        }
        let outbound: DataSink = {
            let me = self.clone();
            let collector = collector.clone();
            Rc::new(move |data| me.enqueue_json(&collector, data.to_json()))
        };
        let inner = &self.inner;
        let ctx = DeviceContext::with_obs(
            exp,
            version,
            &inner.scheduler,
            &inner.logs,
            outbound,
            &inner.obs,
        );
        // Re-apply persisted collector-side subscriptions before any
        // script body runs, so load-time publishes are not lost.
        let mirrors = inner.mirror_specs.borrow().get(exp).cloned();
        for (sub_ref, spec) in mirrors.unwrap_or_default() {
            // Unless the owner vetoed this sensor channel (§3.3).
            if inner.cfg.privacy.is_allowed(&spec.0) {
                replay_mirror(&ctx, exp, sub_ref, spec, collector.as_str());
            }
        }
        let errors = ctx.install_scripts(scripts, |script_name| {
            let key = (exp.to_owned(), script_name.to_owned());
            inner.frozen.borrow_mut().entry(key).or_default().clone()
        });
        for (script, error) in errors {
            inner
                .logs
                .append("pogo-errors", format!("{exp}/{script}: {error}"));
        }
        inner
            .contexts
            .borrow_mut()
            .insert(exp.to_owned(), ctx.clone());
        inner.sensors.attach_context(exp, &ctx.broker());
    }

    /// Applies live privacy toggles (§3.3: "changed at any time") to
    /// every context's mirrored subscriptions.
    fn wire_privacy(&self) {
        let me = self.clone();
        self.inner.cfg.privacy.on_change(move |channel, allowed| {
            let contexts = me.inner.contexts.borrow().clone();
            for (exp, ctx) in contexts {
                let specs = me.inner.mirror_specs.borrow().get(&exp).cloned();
                for (sub_ref, spec) in specs.unwrap_or_default() {
                    if spec.0 != channel {
                        continue;
                    }
                    if allowed {
                        replay_mirror(&ctx, &exp, sub_ref, spec, "privacy-restore");
                    } else {
                        ctx.handle_control(
                            &ControlMsg::Unsubscribe {
                                exp: exp.clone(),
                                sub_ref,
                            },
                            "privacy-revoke",
                        );
                    }
                }
            }
        });
    }

    // ---- connectivity ------------------------------------------------------

    fn wire_connectivity(&self) {
        let me = self.clone();
        self.inner.phone.connectivity().on_change(move |bearer| {
            // §4.6: detect the interface change, drop the stale session,
            // reconnect on the new interface.
            me.inner.link.disconnect();
            if bearer.is_some() && me.inner.booted.get() {
                let me2 = me.clone();
                me.inner.phone.sim().schedule_in(RECONNECT_DELAY, move || {
                    me2.inner.link.connect(&me2);
                    me2.maybe_flush(false);
                });
            }
        });
    }

    /// Our own bytes just moved the interface counters; tell the detector
    /// so it does not fire on them next wake-up.
    fn resync_tail(&self) {
        let tail = self.inner.tail.borrow().clone();
        if let Some(tail) = tail {
            tail.resync();
        }
    }

    fn handle_control(&self, ctl: ControlMsg, from: &Jid) {
        match &ctl {
            ControlMsg::Deploy {
                exp,
                version,
                scripts,
            } => {
                {
                    let mut installed = self.inner.installed.borrow_mut();
                    if installed.get(exp).is_some_and(|i| *version < i.version) {
                        return; // stale redelivery
                    }
                    installed.insert(
                        exp.clone(),
                        Installed {
                            version: *version,
                            scripts: shared_scripts(scripts),
                            collector: from.clone(),
                        },
                    );
                }
                self.instantiate_context(exp, *version, scripts, from);
            }
            ControlMsg::Undeploy { exp } => {
                self.inner.installed.borrow_mut().remove(exp);
                let ctx = self.inner.contexts.borrow_mut().remove(exp);
                if let Some(ctx) = ctx {
                    ctx.shutdown();
                }
                self.inner.sensors.detach_context(exp);
                // Frozen state and logs for the experiment are kept: the
                // user may re-join later; a real device would garbage-
                // collect eventually.
            }
            ControlMsg::Subscribe {
                exp,
                channel,
                params,
                sub_ref,
            } => {
                self.inner
                    .mirror_specs
                    .borrow_mut()
                    .entry(exp.clone())
                    .or_default()
                    .insert(*sub_ref, (channel.clone(), params.clone(), true));
                self.route_to_context(&ctl, exp, from);
            }
            ControlMsg::Unsubscribe { exp, sub_ref } => {
                if let Some(specs) = self.inner.mirror_specs.borrow_mut().get_mut(exp) {
                    specs.remove(sub_ref);
                }
                self.route_to_context(&ctl, exp, from);
            }
            ControlMsg::SetActive {
                exp,
                sub_ref,
                active,
            } => {
                if let Some(spec) = self
                    .inner
                    .mirror_specs
                    .borrow_mut()
                    .get_mut(exp)
                    .and_then(|m| m.get_mut(sub_ref))
                {
                    spec.2 = *active;
                }
                self.route_to_context(&ctl, exp, from);
            }
            ControlMsg::Data { exp, .. } => self.route_to_context(&ctl, exp, from),
        }
    }

    /// Hands a per-experiment control message to `exp`'s context.
    fn route_to_context(&self, ctl: &ControlMsg, exp: &str, from: &Jid) {
        // The owner's privacy policy gates sensor-channel mirrors: the
        // spec is remembered (the setting may be re-enabled later), but
        // no mirror is created, so the sensor never turns on.
        let denied = match ctl {
            ControlMsg::Subscribe { channel, .. } => !self.inner.cfg.privacy.is_allowed(channel),
            _ => false,
        };
        // Subscriptions may arrive before the Deploy (reordering across
        // the reliable layer): create the context shell so nothing is
        // lost. That already applies the persisted mirrors, including
        // this one if it was a Subscribe.
        let existed = self.inner.contexts.borrow().contains_key(exp);
        if !existed {
            self.instantiate_context(exp, 0, &[], from);
        }
        if denied || (!existed && matches!(ctl, ControlMsg::Subscribe { .. })) {
            return;
        }
        let ctx = self.context(exp).expect("exists or just created");
        ctx.handle_control(ctl, from.as_str());
    }

    // ---- outbound ----------------------------------------------------------

    /// Queues an encoded protocol message for `to` in the persistent
    /// buffer (which holds wire bytes) and applies the flush policy.
    fn enqueue_json(&self, to: &Jid, json: String) {
        self.inner.link.enqueue(to, json);
        self.inner.dirty.set(true);
        self.arm_deadline();
        self.maybe_flush(false);
    }

    /// Arms the max-delay deadline alarm for the TailSync policy.
    fn arm_deadline(&self) {
        let delay = match self.inner.cfg.flush_policy {
            FlushPolicy::TailSync { max_delay } => max_delay,
            FlushPolicy::Interval(period) => period,
            _ => return,
        };
        if self.inner.deadline_armed.replace(true) {
            return;
        }
        let me = self.clone();
        self.inner.scheduler.run_later(delay, move || {
            me.inner.deadline_armed.set(false);
            me.maybe_flush(false);
            // Re-arm if data (or a purge's mark) is still waiting (e.g.
            // offline).
            if me.inner.link.owes() {
                me.arm_deadline();
            }
        });
    }

    /// §4.7 entry point: the tail detector saw foreign traffic.
    fn start_tail_detector(&self) {
        let me = self.clone();
        let obs = self.inner.obs.clone();
        let detector = TailDetector::new(&self.inner.phone, TAIL_POLL, move |_delta| {
            obs.metrics().inc("tail.detections", 1);
            me.maybe_flush(true);
        });
        detector.start();
        *self.inner.tail.borrow_mut() = Some(detector);
    }

    /// Evaluates the flush policy and pushes the buffer out if it says
    /// so. `traffic` is §4.7's trigger: the tail detector saw some app use
    /// the modem, so data pushed now rides that app's tail. Every other
    /// trigger (enqueue, deadline, reconnect, charger) passes `false`, and
    /// the tail-sync policy then honours only its max-delay deadline: an
    /// open tail at enqueue time may be one the device itself paid for
    /// (flushing then would keep the modem alive forever).
    pub(crate) fn maybe_flush(&self, traffic: bool) {
        let inner = &self.inner;
        let now = inner.phone.sim().now();
        if !inner.booted.get() || inner.flushing.get() {
            return;
        }
        // Everything pending was already sent recently; wait for acks (or
        // the retransmit timeout) instead of re-sending on every tail we
        // detect — including our own.
        let sent_recently = |t| now.saturating_duration_since(t) < inner.cfg.retransmit_timeout;
        if !inner.dirty.get() && inner.last_flush.get().is_some_and(sent_recently) {
            return;
        }
        // The fateful expiry purge (§5.3).
        let oldest_age = inner.link.expire(now, inner.cfg.max_msg_age);
        let connectivity = inner.phone.connectivity();
        let tail_open = traffic
            && inner.phone.modem().is_tail_open()
            && connectivity.active() == Some(Bearer::Cellular);
        let on_wifi = connectivity.active() == Some(Bearer::Wifi);
        let charging = inner.phone.battery().is_charging();
        let policy = &inner.cfg.flush_policy;
        let due = policy.should_flush(tail_open, oldest_age, charging, on_wifi);
        if !due || !connectivity.is_online() {
            return;
        }
        self.flush(match (tail_open, charging, on_wifi) {
            (true, ..) => "tail",
            (_, true, _) => "charger",
            (_, _, true) => "wifi",
            _ => "deadline",
        });
    }

    /// Pushes every message due out over the active bearer: those not
    /// sent yet and those whose ack is overdue, not those in flight. With
    /// nothing due it transmits nothing. `reason` names the policy
    /// trigger ("tail", "deadline", "wifi", "charger") for the trace.
    fn flush(&self, reason: &'static str) {
        let inner = &self.inner;
        let Some(session) = inner.link.connect(self) else {
            return;
        };
        let Some(out) = inner.link.outgoing(None, ACK_TIMEOUT) else {
            return;
        };
        let (frames, batch) = (out.frames, out.messages);
        let now = inner.phone.sim().now();
        inner.flushing.set(true);
        inner.dirty.set(false);
        inner.last_flush.set(Some(now));
        bump(&inner.flushes, 1);
        bump(&inner.messages_sent, batch as u64);
        if inner.obs.is_enabled() {
            inner.obs.event(
                "pogo",
                "flush",
                vec![
                    field("batch", batch as u64),
                    field("bytes", out.bytes),
                    field("reason", reason),
                ],
            );
            let metrics = inner.obs.metrics();
            metrics.inc("net.flushes", 1);
            if matches!(inner.cfg.flush_policy, FlushPolicy::TailSync { .. }) {
                if reason == "tail" {
                    metrics.inc("tail.sync.hits", 1);
                } else {
                    metrics.inc("tail.sync.misses", 1);
                }
            }
        }
        let listeners = inner.flush_listeners.borrow().clone();
        for l in listeners {
            l(now, batch);
        }
        // Envelopes enter the network when the last byte leaves the air
        // interface.
        let me = self.clone();
        let result = inner.phone.transmit(out.bytes, 64, move || {
            link::send_data(&session, frames);
            me.inner.link.landed(ACK_TIMEOUT);
            me.inner.flushing.set(false);
            me.resync_tail();
            // Messages stay in the store until acked end-to-end. Anything
            // enqueued while this flush was in flight gets its own policy
            // evaluation now.
            me.maybe_flush(false);
        });
        if result.is_err() {
            // Nothing left the phone: all of it is due at once.
            inner.link.landed(SimDuration::ZERO);
            inner.flushing.set(false);
        }
    }
}

/// Replays one persisted mirror into `ctx`: the `Subscribe`, then a
/// `SetActive false` if the collector had paused it.
fn replay_mirror(
    ctx: &DeviceContext,
    exp: &str,
    sub_ref: u64,
    (channel, params, active): MirrorSpec,
    from: &str,
) {
    ctx.handle_control(
        &ControlMsg::Subscribe {
            exp: exp.to_owned(),
            channel,
            params,
            sub_ref,
        },
        from,
    );
    if !active {
        ctx.handle_control(
            &ControlMsg::SetActive {
                exp: exp.to_owned(),
                sub_ref,
                active: false,
            },
            from,
        );
    }
}

/// Stable trace-event name for an RRC state (the Figure 4 vocabulary).
fn radio_state_name(state: RadioState) -> &'static str {
    match state {
        RadioState::RampUp => "ramp-up",
        RadioState::Dch => "dch",
        RadioState::Fach => "fach",
        RadioState::Idle => "idle",
    }
}

/// Static metric name for dwell time in an RRC state (no allocation on
/// the hot path).
fn radio_dwell_metric(state: RadioState) -> &'static str {
    match state {
        RadioState::RampUp => "radio.dwell_ms.ramp-up",
        RadioState::Dch => "radio.dwell_ms.dch",
        RadioState::Fach => "radio.dwell_ms.fach",
        RadioState::Idle => "radio.dwell_ms.idle",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Msg;
    use pogo_net::Payload;
    use pogo_platform::PhoneConfig;
    use pogo_sim::Sim;

    fn setup(policy: FlushPolicy) -> (Sim, Switchboard, Phone, DeviceNode, Jid) {
        let sim = Sim::new();
        let server = Switchboard::new(&sim);
        let phone = Phone::new(&sim, PhoneConfig::default());
        let dev_jid = Jid::new("device@pogo").unwrap();
        let col_jid = Jid::new("collector@pogo").unwrap();
        server.register(&dev_jid);
        server.register(&col_jid);
        server.befriend(&dev_jid, &col_jid).unwrap();
        let mut cfg = DeviceConfig::new(dev_jid);
        cfg.flush_policy = policy;
        let node = DeviceNode::new(&phone, &server, cfg, SensorSources::default());
        (sim, server, phone, node, col_jid)
    }

    /// Queues a protocol message the way a context's outbound sink does.
    fn enqueue(node: &DeviceNode, to: &Jid, ctl: &ControlMsg) {
        node.enqueue_json(to, ctl.to_json());
    }

    fn data_msg(n: f64) -> ControlMsg {
        ControlMsg::Data {
            exp: "e".into(),
            channel: "ch".into(),
            msg: Msg::Num(n),
            sub_ref: None,
        }
    }

    #[test]
    fn phones_with_the_same_scripts_installed_hold_one_copy() {
        let spec = |source: &str| ScriptSpec {
            name: "s.js".into(),
            source: source.into(),
        };
        let fleet = [spec("print('a');"), spec("print('b');")];
        let first = shared_scripts(&fleet);
        assert!(Rc::ptr_eq(&first, &shared_scripts(&fleet.clone())));
        assert_eq!(*first, fleet);
        let other = shared_scripts(&fleet[..1]);
        assert!(!Rc::ptr_eq(&first, &other));
        assert_eq!(*other, fleet[..1]);
        assert!(Rc::ptr_eq(&shared_scripts(&[]), &shared_scripts(&[])));
    }

    #[test]
    fn boot_connects_when_online() {
        let (sim, server, _phone, node, _col) = setup(FlushPolicy::Immediate);
        node.boot();
        assert!(server.is_online(&node.jid()));
        let _ = sim;
    }

    #[test]
    fn immediate_policy_sends_right_away() {
        let (sim, server, _phone, node, col) = setup(FlushPolicy::Immediate);
        node.boot();
        let cs = server.connect(&col, SimDuration::from_millis(10)).unwrap();
        let got = Rc::new(RefCell::new(0));
        let g = got.clone();
        cs.on_receive(move |e| {
            if matches!(e.payload, Payload::Data(_)) {
                *g.borrow_mut() += 1;
            }
        });
        enqueue(&node, &col, &data_msg(1.0));
        sim.run_for(SimDuration::from_mins(2));
        assert_eq!(*got.borrow(), 1);
        assert_eq!(node.flushes(), 1);
    }

    #[test]
    fn tail_sync_waits_for_foreign_traffic() {
        let (sim, server, phone, node, col) = setup(FlushPolicy::pogo_default());
        node.boot();
        let _cs = server.connect(&col, SimDuration::from_millis(10)).unwrap();
        enqueue(&node, &col, &data_msg(1.0));
        sim.run_for(SimDuration::from_mins(5));
        assert_eq!(node.flushes(), 0, "no foreign traffic yet");
        assert_eq!(node.buffered(), 1);
        // An e-mail check opens a tail...
        pogo_platform::PeriodicNetApp::install(
            &phone,
            pogo_platform::NetAppConfig {
                start_offset: SimDuration::from_mins(1),
                ..pogo_platform::NetAppConfig::email()
            },
        );
        sim.run_for(SimDuration::from_mins(2));
        assert_eq!(node.flushes(), 1, "flushed inside the tail");
        // Exactly one cold ramp-up: the e-mail's own.
        assert_eq!(phone.modem().ramp_ups(), 1);
    }

    #[test]
    fn tail_sync_deadline_forces_flush() {
        let (sim, server, _phone, node, col) = setup(FlushPolicy::TailSync {
            max_delay: SimDuration::from_mins(30),
        });
        node.boot();
        let _cs = server.connect(&col, SimDuration::from_millis(10)).unwrap();
        enqueue(&node, &col, &data_msg(1.0));
        sim.run_for(SimDuration::from_mins(29));
        assert_eq!(node.flushes(), 0);
        sim.run_for(SimDuration::from_mins(2));
        assert_eq!(node.flushes(), 1, "max_delay cap fired");
    }

    #[test]
    fn acked_messages_leave_the_store_unacked_retransmit() {
        let (sim, server, _phone, node, col) = setup(FlushPolicy::Immediate);
        node.boot();
        let cs = server.connect(&col, SimDuration::from_millis(10)).unwrap();
        // A collector that acks everything it receives.
        let server2 = server.clone();
        let col2 = col.clone();
        let cs2 = cs.clone();
        cs.on_receive(move |e| {
            if matches!(e.payload, Payload::Data(_)) {
                let _ = cs2.send(&e.from, 0, Payload::Ack(e.seq));
            }
            let _ = (&server2, &col2);
        });
        enqueue(&node, &col, &data_msg(1.0));
        sim.run_for(SimDuration::from_mins(1));
        assert_eq!(node.buffered(), 0, "acked and removed");
    }

    #[test]
    fn messages_survive_offline_and_flush_on_reconnect() {
        let (sim, server, phone, node, col) = setup(FlushPolicy::Immediate);
        node.boot();
        let cs = server.connect(&col, SimDuration::from_millis(10)).unwrap();
        let got = Rc::new(RefCell::new(0));
        let g = got.clone();
        cs.on_receive(move |e| {
            if matches!(e.payload, Payload::Data(_)) {
                *g.borrow_mut() += 1;
            }
        });
        // Go offline, enqueue, stay offline a while.
        phone.connectivity().set_active(None);
        sim.run_for(SimDuration::from_secs(10));
        enqueue(&node, &col, &data_msg(1.0));
        sim.run_for(SimDuration::from_hours(2));
        assert_eq!(*got.borrow(), 0);
        assert_eq!(node.buffered(), 1);
        // Back online: reconnect then deliver.
        phone.connectivity().set_active(Some(Bearer::Cellular));
        sim.run_for(SimDuration::from_mins(1));
        assert_eq!(*got.borrow(), 1);
    }

    #[test]
    fn expiry_purges_old_messages_like_user_2a() {
        let (sim, _server, phone, node, col) = setup(FlushPolicy::Immediate);
        node.boot();
        phone.connectivity().set_active(None); // roaming, data off
        enqueue(&node, &col, &data_msg(1.0));
        sim.run_for(SimDuration::from_hours(30));
        enqueue(&node, &col, &data_msg(2.0)); // triggers a purge check
        assert_eq!(node.purged(), 1);
        assert_eq!(node.buffered(), 1, "only the fresh message remains");
    }

    #[test]
    fn deploy_creates_context_and_runs_scripts() {
        let (sim, server, _phone, node, col) = setup(FlushPolicy::Immediate);
        node.boot();
        let cs = server.connect(&col, SimDuration::from_millis(10)).unwrap();
        let deploy = ControlMsg::Deploy {
            exp: "hello".into(),
            version: 1,
            scripts: vec![ScriptSpec {
                name: "hi.js".into(),
                source: "print('hello from device');".into(),
            }],
        };
        cs.send(&node.jid(), 1, Payload::Data(deploy.to_json()))
            .unwrap();
        sim.run_for(SimDuration::from_secs(5));
        let ctx = node.context("hello").expect("context created");
        assert_eq!(ctx.scripts()[0].prints(), vec!["hello from device"]);
    }

    #[test]
    fn duplicate_deploy_is_ignored_by_dedup() {
        let (sim, server, _phone, node, col) = setup(FlushPolicy::Immediate);
        node.boot();
        let cs = server.connect(&col, SimDuration::from_millis(10)).unwrap();
        let deploy = ControlMsg::Deploy {
            exp: "once".into(),
            version: 1,
            scripts: vec![ScriptSpec {
                name: "s.js".into(),
                source: "print('ran');".into(),
            }],
        };
        cs.send(&node.jid(), 9, Payload::Data(deploy.to_json()))
            .unwrap();
        cs.send(&node.jid(), 9, Payload::Data(deploy.to_json()))
            .unwrap();
        sim.run_for(SimDuration::from_secs(5));
        let ctx = node.context("once").unwrap();
        assert_eq!(ctx.scripts().len(), 1, "retransmission deduplicated");
    }

    #[test]
    fn device_acks_incoming_data() {
        let (sim, server, _phone, node, col) = setup(FlushPolicy::Immediate);
        node.boot();
        let cs = server.connect(&col, SimDuration::from_millis(10)).unwrap();
        let acked: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
        let a = acked.clone();
        cs.on_receive(move |e| {
            if let Payload::Ack(seq) = e.payload {
                a.borrow_mut().push(seq);
            }
        });
        let deploy = ControlMsg::Deploy {
            exp: "e".into(),
            version: 1,
            scripts: vec![],
        };
        cs.send(&node.jid(), 33, Payload::Data(deploy.to_json()))
            .unwrap();
        sim.run_for(SimDuration::from_mins(1));
        assert_eq!(*acked.borrow(), vec![33]);
    }

    #[test]
    fn reboot_restarts_scripts_and_preserves_store() {
        let (sim, server, _phone, node, col) = setup(FlushPolicy::OnCharge);
        node.boot();
        let cs = server.connect(&col, SimDuration::from_millis(10)).unwrap();
        let deploy = ControlMsg::Deploy {
            exp: "e".into(),
            version: 1,
            scripts: vec![ScriptSpec {
                name: "s.js".into(),
                source: "print('booted');".into(),
            }],
        };
        cs.send(&node.jid(), 1, Payload::Data(deploy.to_json()))
            .unwrap();
        sim.run_for(SimDuration::from_secs(5));
        enqueue(&node, &col, &data_msg(1.0)); // OnCharge: stays buffered
        node.reboot();
        assert!(!node.is_booted());
        sim.run_for(SimDuration::from_mins(1));
        assert!(node.is_booted());
        assert_eq!(node.reboots(), 1);
        assert_eq!(node.buffered(), 1, "store survived");
        let ctx = node
            .context("e")
            .expect("experiment reinstalled from flash");
        assert_eq!(
            ctx.scripts()[0].prints(),
            vec!["booted"],
            "script restarted"
        );
    }

    #[test]
    fn frozen_state_survives_reboot() {
        let (sim, server, _phone, node, col) = setup(FlushPolicy::OnCharge);
        node.boot();
        let cs = server.connect(&col, SimDuration::from_millis(10)).unwrap();
        let deploy = ControlMsg::Deploy {
            exp: "e".into(),
            version: 1,
            scripts: vec![ScriptSpec {
                name: "s.js".into(),
                source: "var st = thaw(); if (st == null) { freeze({ n: 7 }); print('init'); } else { print('thawed ' + st.n); }".into(),
            }],
        };
        cs.send(&node.jid(), 1, Payload::Data(deploy.to_json()))
            .unwrap();
        sim.run_for(SimDuration::from_secs(5));
        assert_eq!(
            node.context("e").unwrap().scripts()[0].prints(),
            vec!["init"]
        );
        node.reboot();
        sim.run_for(SimDuration::from_mins(1));
        assert_eq!(
            node.context("e").unwrap().scripts()[0].prints(),
            vec!["thawed 7"]
        );
    }

    #[test]
    fn privacy_veto_keeps_sensor_off_and_toggles_live() {
        use crate::broker::SubscriptionId;
        let (sim, server, _phone, node, col) = setup(FlushPolicy::Immediate);
        // The owner vetoes battery sharing before anything is deployed.
        let policy = node.inner.cfg.privacy.clone();
        policy.set_allowed("battery", false);
        node.boot();
        let cs = server.connect(&col, SimDuration::from_millis(10)).unwrap();
        let deploy = ControlMsg::Deploy {
            exp: "e".into(),
            version: 1,
            scripts: vec![],
        };
        let sub = ControlMsg::Subscribe {
            exp: "e".into(),
            channel: "battery".into(),
            params: Msg::obj([("interval", Msg::Num(60_000.0))]),
            sub_ref: SubscriptionId(7).0,
        };
        cs.send(&node.jid(), 1, Payload::Data(sub.to_json()))
            .unwrap();
        cs.send(&node.jid(), 2, Payload::Data(deploy.to_json()))
            .unwrap();
        sim.run_for(SimDuration::from_mins(10));
        assert!(
            !node.sensors().is_sampling("battery"),
            "vetoed channel keeps the sensor off"
        );
        assert_eq!(node.messages_sent(), 0, "no battery data leaves the phone");

        // The owner changes their mind in the settings UI.
        policy.set_allowed("battery", true);
        sim.run_for(SimDuration::from_mins(5));
        assert!(node.sensors().is_sampling("battery"), "re-enabled live");
        assert!(node.messages_sent() > 0, "data flows after consent");

        // And vetoes again: sampling stops immediately.
        policy.set_allowed("battery", false);
        let sent = node.messages_sent();
        sim.run_for(SimDuration::from_mins(10));
        assert!(!node.sensors().is_sampling("battery"));
        assert_eq!(node.messages_sent(), sent, "veto stops the flow");
    }

    #[test]
    fn privacy_veto_survives_reboot() {
        use crate::broker::SubscriptionId;
        let (sim, server, _phone, node, col) = setup(FlushPolicy::Immediate);
        let policy = node.inner.cfg.privacy.clone();
        policy.set_allowed("wifi-scan", false);
        node.boot();
        let cs = server.connect(&col, SimDuration::from_millis(10)).unwrap();
        let sub = ControlMsg::Subscribe {
            exp: "e".into(),
            channel: "wifi-scan".into(),
            params: Msg::Null,
            sub_ref: SubscriptionId(1).0,
        };
        cs.send(&node.jid(), 1, Payload::Data(sub.to_json()))
            .unwrap();
        sim.run_for(SimDuration::from_mins(2));
        node.reboot();
        sim.run_for(SimDuration::from_mins(2));
        assert!(
            !node.sensors().is_sampling("wifi-scan"),
            "the veto is not forgotten across restarts"
        );
    }

    #[test]
    fn on_charge_policy_flushes_when_plugged_in() {
        let (sim, server, phone, node, col) = setup(FlushPolicy::OnCharge);
        node.boot();
        let _cs = server.connect(&col, SimDuration::from_millis(10)).unwrap();
        enqueue(&node, &col, &data_msg(1.0));
        sim.run_for(SimDuration::from_hours(1));
        assert_eq!(node.flushes(), 0);
        phone.battery().set_charging(true);
        node.maybe_flush(false); // charger-plug event
        sim.run_for(SimDuration::from_mins(1));
        assert_eq!(node.flushes(), 1);
    }
}
