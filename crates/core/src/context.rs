//! Contexts: per-experiment sandboxes with remote counterparts (§4.2).
//!
//! "Scripts belonging to a certain experiment run inside a so-called
//! *context*, which acts as a sandbox; scripts can only communicate
//! within the same experiment. Each context has a counterpart on a remote
//! node … The brokers on either end synchronize with each other so that
//! the publish-subscribe mechanism works seamlessly across the network
//! boundary. Since contexts on collector nodes can have more than one
//! remote context associated with them, a *multi broker* is used to make
//! the communication fan out over the different devices."
//!
//! Synchronization protocol (see [`crate::proto`]):
//!
//! * collector-side subscriptions are **mirrored** onto every member
//!   device's broker ([`ControlMsg::Subscribe`]); data matching a mirror
//!   flows back targeted at the originating subscription;
//! * collector-side publishes **fan out** to every member device
//!   ([`ControlMsg::Data`] with `sub_ref: None`), where they are
//!   republished locally.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use pogo_obs::Obs;
use pogo_script::ScriptError;

use crate::broker::{Broker, SubscriptionId};
use crate::host::{FrozenSlot, LogStore, ScriptHost};
use crate::proto::{ControlMsg, DataRef, ScriptSpec};
use crate::scheduler::Scheduler;
use crate::value::Msg;

/// Callback taking owned protocol messages; [`DeviceContext::new`] accepts
/// one and adapts it to the borrowed sink the node encodes from.
pub type Outbound = Rc<dyn Fn(ControlMsg)>;

/// How a device context hands the data its mirrored subscriptions match
/// to the node's transport: a view borrowed from the publisher, which the
/// device node encodes straight into its store-and-forward buffer.
pub(crate) type DataSink = Rc<dyn Fn(DataRef<'_>)>;

// =============================== device side ===============================

/// Everything but `scripts` and `mirrors` is set once at construction.
struct DeviceCtxInner {
    exp: String,
    version: u64,
    broker: Broker,
    scheduler: Scheduler,
    logs: LogStore,
    outbound: DataSink,
    obs: Obs,
    scripts: RefCell<Vec<ScriptHost>>,
    /// collector sub_ref → mirrored local subscription.
    mirrors: RefCell<BTreeMap<u64, SubscriptionId>>,
}

/// The device-side half of an experiment.
#[derive(Clone)]
pub struct DeviceContext {
    inner: Rc<DeviceCtxInner>,
}

impl std::fmt::Debug for DeviceContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeviceContext")
            .field("exp", &self.inner.exp)
            .field("version", &self.inner.version)
            .field("scripts", &self.inner.scripts.borrow().len())
            .field("mirrors", &self.inner.mirrors.borrow().len())
            .finish()
    }
}

impl DeviceContext {
    /// Creates an empty context for experiment `exp` whose outbound data
    /// arrives at `outbound` as owned [`ControlMsg::Data`] messages.
    pub fn new(
        exp: &str,
        version: u64,
        scheduler: &Scheduler,
        logs: &LogStore,
        outbound: Outbound,
    ) -> Self {
        let sink: DataSink = Rc::new(move |data| outbound(data.to_control()));
        Self::with_obs(exp, version, scheduler, logs, sink, &Obs::off())
    }

    /// Creates an empty context for experiment `exp`, handing outbound
    /// data to `outbound` borrowed and recording broker and script
    /// activity into `obs`.
    pub(crate) fn with_obs(
        exp: &str,
        version: u64,
        scheduler: &Scheduler,
        logs: &LogStore,
        outbound: DataSink,
        obs: &Obs,
    ) -> Self {
        DeviceContext {
            inner: Rc::new(DeviceCtxInner {
                exp: exp.to_owned(),
                version,
                broker: Broker::with_obs(obs),
                scheduler: scheduler.clone(),
                logs: logs.clone(),
                outbound,
                obs: obs.clone(),
                scripts: RefCell::default(),
                mirrors: RefCell::default(),
            }),
        }
    }

    /// The experiment id.
    pub fn exp(&self) -> String {
        self.inner.exp.clone()
    }

    /// Installed script version.
    pub fn version(&self) -> u64 {
        self.inner.version
    }

    /// The context's broker (sensors attach to this).
    pub fn broker(&self) -> Broker {
        self.inner.broker.clone()
    }

    /// The running scripts.
    pub fn scripts(&self) -> Vec<ScriptHost> {
        self.inner.scripts.borrow().clone()
    }

    /// Installs and loads the experiment's scripts. `frozen_for` supplies
    /// each script's persistent freeze/thaw slot (owned by the device so
    /// it survives reboots). Load errors are reported per script; healthy
    /// scripts keep running regardless.
    pub fn install_scripts(
        &self,
        scripts: &[ScriptSpec],
        frozen_for: impl Fn(&str) -> FrozenSlot,
    ) -> Vec<(String, ScriptError)> {
        let inner = &self.inner;
        let mut errors = Vec::new();
        for spec in scripts {
            let host = ScriptHost::with_obs(
                &spec.name,
                &inner.broker,
                &inner.scheduler,
                frozen_for(&spec.name),
                inner.logs.clone(),
                &inner.obs,
            );
            if let Err(e) = host.load(&spec.source) {
                errors.push((spec.name.clone(), e));
            }
            inner.scripts.borrow_mut().push(host);
        }
        errors
    }

    /// Handles a control message addressed to this context.
    pub(crate) fn handle_control(&self, ctl: &ControlMsg, from: &str) {
        let broker = &self.inner.broker;
        match ctl {
            ControlMsg::Subscribe {
                channel,
                params,
                sub_ref,
                ..
            } => self.add_mirror(channel, params.clone(), *sub_ref),
            ControlMsg::Unsubscribe { sub_ref, .. } => {
                let id = self.inner.mirrors.borrow_mut().remove(sub_ref);
                if let Some(id) = id {
                    broker.unsubscribe(id);
                }
            }
            ControlMsg::SetActive {
                sub_ref, active, ..
            } => {
                let id = self.inner.mirrors.borrow().get(sub_ref).copied();
                if let Some(id) = id {
                    broker.set_active(id, *active);
                }
            }
            ControlMsg::Data { channel, msg, .. } => {
                // Collector fan-out: republish locally, attributed to the
                // collector.
                broker.publish_from(channel, msg, Some(from));
            }
            ControlMsg::Deploy { .. } | ControlMsg::Undeploy { .. } => {
                // Handled by the device node (context lifecycle).
            }
        }
    }

    /// Mirrors a collector-side subscription into this broker; matching
    /// data flows back targeted at `sub_ref`.
    fn add_mirror(&self, channel: &str, params: Msg, sub_ref: u64) {
        let inner = &self.inner;
        // Re-subscribing with an existing ref replaces the old mirror
        // (collector restarted its script).
        let old = inner.mirrors.borrow().get(&sub_ref).copied();
        if let Some(old) = old {
            inner.broker.unsubscribe(old);
        }
        let (outbound, exp) = (inner.outbound.clone(), inner.exp.clone());
        let id = inner
            .broker
            .subscribe(channel, params, move |channel, msg, _from| {
                outbound(DataRef {
                    exp: &exp,
                    channel,
                    msg,
                    sub_ref: Some(sub_ref),
                });
            });
        inner.mirrors.borrow_mut().insert(sub_ref, id);
    }

    /// Stops all scripts and drops mirrored subscriptions (undeploy or
    /// reboot). Frozen slots and logs live on in the device.
    pub(crate) fn shutdown(&self) {
        let scripts = self.inner.scripts.take();
        let mirrors = self.inner.mirrors.take();
        for script in scripts {
            script.stop();
        }
        for (_, id) in mirrors {
            self.inner.broker.unsubscribe(id);
        }
    }
}

// ============================= collector side ==============================

/// Collector-side outbound: `(device, message)` into the reliable queue.
type DeviceOutbound = Rc<dyn Fn(&str, ControlMsg)>;

/// Everything but `scripts`, `devices` and `synced` is set once at
/// construction.
struct CollectorCtxInner {
    exp: String,
    broker: Broker,
    outbound: DeviceOutbound,
    obs: Obs,
    scripts: RefCell<Vec<ScriptHost>>,
    devices: RefCell<Vec<String>>,
    /// Subscription ids already synced to devices, with last-known state.
    synced: RefCell<BTreeMap<u64, (String, bool)>>,
}

impl CollectorCtxInner {
    /// Sends a fresh `ctl()` to every member device.
    fn fan_out(&self, ctl: impl Fn() -> ControlMsg) {
        let devices = self.devices.borrow().clone();
        for device in &devices {
            (self.outbound)(device, ctl());
        }
    }
}

/// The collector-side half of an experiment: scripts plus the
/// multi-broker that fans communication out over member devices.
#[derive(Clone)]
pub struct CollectorContext {
    inner: Rc<CollectorCtxInner>,
}

impl std::fmt::Debug for CollectorContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CollectorContext")
            .field("exp", &self.inner.exp)
            .field("devices", &self.inner.devices.borrow().len())
            .field("scripts", &self.inner.scripts.borrow().len())
            .finish()
    }
}

impl CollectorContext {
    /// Creates the collector half of experiment `exp`. `outbound` sends a
    /// control message to one device (reliably).
    pub fn new(exp: &str, outbound: impl Fn(&str, ControlMsg) + 'static) -> Self {
        Self::with_obs(exp, outbound, &Obs::off())
    }

    /// Like [`CollectorContext::new`], additionally recording broker and
    /// script activity into `obs`.
    pub fn with_obs(exp: &str, outbound: impl Fn(&str, ControlMsg) + 'static, obs: &Obs) -> Self {
        let ctx = CollectorContext {
            inner: Rc::new(CollectorCtxInner {
                exp: exp.to_owned(),
                broker: Broker::with_obs(obs),
                outbound: Rc::new(outbound),
                obs: obs.clone(),
                scripts: RefCell::default(),
                devices: RefCell::default(),
                synced: RefCell::default(),
            }),
        };
        ctx.wire_multi_broker();
        ctx
    }

    /// The experiment id.
    pub fn exp(&self) -> String {
        self.inner.exp.clone()
    }

    /// The multi-broker.
    pub fn broker(&self) -> Broker {
        self.inner.broker.clone()
    }

    /// The collector-side scripts.
    pub fn scripts(&self) -> Vec<ScriptHost> {
        self.inner.scripts.borrow().clone()
    }

    /// Member devices.
    pub fn devices(&self) -> Vec<String> {
        self.inner.devices.borrow().clone()
    }

    /// Adds a member device, syncing every existing subscription to it.
    pub(crate) fn add_device(&self, device: &str) {
        let inner = &self.inner;
        {
            let mut devices = inner.devices.borrow_mut();
            if devices.iter().any(|d| d == device) {
                return;
            }
            devices.push(device.to_owned());
        }
        let synced = inner.synced.borrow().clone();
        for (sub_ref, (channel, active)) in synced {
            let params = inner
                .broker
                .subscriptions_on(&channel)
                .into_iter()
                .find(|s| s.id.0 == sub_ref)
                .map(|s| s.params)
                .unwrap_or(Msg::Null);
            (inner.outbound)(
                device,
                ControlMsg::Subscribe {
                    exp: inner.exp.clone(),
                    channel,
                    params,
                    sub_ref,
                },
            );
            if !active {
                (inner.outbound)(
                    device,
                    ControlMsg::SetActive {
                        exp: inner.exp.clone(),
                        sub_ref,
                        active: false,
                    },
                );
            }
        }
    }

    /// Installs a collector-side script (e.g. `collect.js`). Extension
    /// natives (like `geolocate`) can be registered via `customize`
    /// before the body runs.
    ///
    /// # Errors
    ///
    /// Returns the script's load error.
    pub fn install_script(
        &self,
        name: &str,
        source: &str,
        scheduler: &Scheduler,
        logs: &LogStore,
        customize: impl FnOnce(&ScriptHost),
    ) -> Result<ScriptHost, ScriptError> {
        let inner = &self.inner;
        let host = ScriptHost::with_obs(
            name,
            &inner.broker,
            scheduler,
            FrozenSlot::new(),
            logs.clone(),
            &inner.obs,
        );
        customize(&host);
        host.load(source)?;
        inner.scripts.borrow_mut().push(host.clone());
        Ok(host)
    }

    /// Handles a data message arriving from a member device.
    pub(crate) fn handle_data(&self, from: &str, channel: &str, msg: &Msg, sub_ref: Option<u64>) {
        let broker = &self.inner.broker;
        match sub_ref {
            Some(r) => {
                broker.publish_to_from(SubscriptionId(r), msg, Some(from));
            }
            None => {
                broker.publish_from(channel, msg, Some(from));
            }
        }
    }

    /// Wires the multi-broker behaviour: local subscriptions sync to
    /// devices; local publishes fan out to devices.
    fn wire_multi_broker(&self) {
        let broker = &self.inner.broker;
        // Subscription sync.
        let weak = Rc::downgrade(&self.inner);
        broker.on_subscriptions_changed("", move |channel, subs| {
            let Some(inner) = weak.upgrade() else {
                return;
            };
            let known = inner.synced.borrow().clone();
            for sub in subs {
                let id = sub.id.0;
                match known.get(&id) {
                    None => inner.fan_out(|| ControlMsg::Subscribe {
                        exp: inner.exp.clone(),
                        channel: channel.to_owned(),
                        params: sub.params.clone(),
                        sub_ref: id,
                    }),
                    Some(&(_, was_active)) if was_active != sub.active => {
                        inner.fan_out(|| ControlMsg::SetActive {
                            exp: inner.exp.clone(),
                            sub_ref: id,
                            active: sub.active,
                        })
                    }
                    _ => continue,
                }
                let state = (channel.to_owned(), sub.active);
                inner.synced.borrow_mut().insert(id, state);
            }
            // Removed subscriptions.
            let removed = known
                .iter()
                .filter(|(id, (ch, _))| ch == channel && !subs.iter().any(|s| s.id.0 == **id));
            for (&id, _) in removed {
                inner.fan_out(|| ControlMsg::Unsubscribe {
                    exp: inner.exp.clone(),
                    sub_ref: id,
                });
                inner.synced.borrow_mut().remove(&id);
            }
        });
        // Publish fan-out: local publishes go to every device; device-
        // attributed messages came *from* a device and must not bounce.
        let weak = Rc::downgrade(&self.inner);
        broker.on_publish(move |channel, msg, from| {
            if from.is_some() {
                return;
            }
            let Some(inner) = weak.upgrade() else {
                return;
            };
            inner.fan_out(|| ControlMsg::Data {
                exp: inner.exp.clone(),
                channel: channel.to_owned(),
                msg: msg.clone(),
                sub_ref: None,
            });
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pogo_platform::{Cpu, CpuConfig, EnergyMeter, Phone, PhoneConfig};
    use pogo_sim::Sim;

    fn scheduler(sim: &Sim) -> Scheduler {
        let meter = EnergyMeter::new(sim);
        let cpu = Cpu::new(sim, &meter, CpuConfig::default());
        std::mem::forget(cpu.acquire_wake_lock());
        Scheduler::new(&cpu)
    }

    fn outbound_log() -> (Rc<RefCell<Vec<ControlMsg>>>, Outbound) {
        let log: Rc<RefCell<Vec<ControlMsg>>> = Rc::new(RefCell::new(Vec::new()));
        let l = log.clone();
        (log, Rc::new(move |m| l.borrow_mut().push(m)))
    }

    #[test]
    fn mirrored_subscription_forwards_data_targeted() {
        let sim = Sim::new();
        let sched = scheduler(&sim);
        let (out, outbound) = outbound_log();
        let ctx = DeviceContext::new("exp", 1, &sched, &LogStore::new(), outbound);
        ctx.handle_control(
            &ControlMsg::Subscribe {
                exp: "exp".into(),
                channel: "battery".into(),
                params: Msg::Null,
                sub_ref: 7,
            },
            "collector@pogo",
        );
        ctx.broker().publish("battery", &Msg::Num(3.9));
        let out = out.borrow();
        assert_eq!(out.len(), 1);
        match &out[0] {
            ControlMsg::Data {
                channel, sub_ref, ..
            } => {
                assert_eq!(channel, "battery");
                assert_eq!(*sub_ref, Some(7));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn mirror_setactive_and_unsubscribe() {
        let sim = Sim::new();
        let sched = scheduler(&sim);
        let (out, outbound) = outbound_log();
        let ctx = DeviceContext::new("exp", 1, &sched, &LogStore::new(), outbound);
        ctx.handle_control(
            &ControlMsg::Subscribe {
                exp: "exp".into(),
                channel: "ch".into(),
                params: Msg::Null,
                sub_ref: 1,
            },
            "c@p",
        );
        ctx.handle_control(
            &ControlMsg::SetActive {
                exp: "exp".into(),
                sub_ref: 1,
                active: false,
            },
            "c@p",
        );
        ctx.broker().publish("ch", &Msg::Null);
        assert!(out.borrow().is_empty(), "released mirror is silent");
        ctx.handle_control(
            &ControlMsg::Unsubscribe {
                exp: "exp".into(),
                sub_ref: 1,
            },
            "c@p",
        );
        assert!(ctx.broker().subscriptions_on("ch").is_empty());
    }

    #[test]
    fn collector_fanout_data_republishes_locally() {
        let sim = Sim::new();
        let sched = scheduler(&sim);
        let (_, outbound) = outbound_log();
        let ctx = DeviceContext::new("exp", 1, &sched, &LogStore::new(), outbound);
        let seen = Rc::new(RefCell::new(Vec::new()));
        let s = seen.clone();
        ctx.broker()
            .subscribe("config", Msg::Null, move |_, m, from| {
                s.borrow_mut().push((m.clone(), from.map(str::to_owned)));
            });
        ctx.handle_control(
            &ControlMsg::Data {
                exp: "exp".into(),
                channel: "config".into(),
                msg: Msg::Num(5.0),
                sub_ref: None,
            },
            "collector@pogo",
        );
        assert_eq!(seen.borrow().len(), 1);
        assert_eq!(
            seen.borrow()[0].1.as_deref(),
            Some("collector@pogo"),
            "attributed to the collector"
        );
    }

    #[test]
    fn device_scripts_share_context_broker() {
        let sim = Sim::new();
        let sched = scheduler(&sim);
        let (_, outbound) = outbound_log();
        let ctx = DeviceContext::new("exp", 1, &sched, &LogStore::new(), outbound);
        let errors = ctx.install_scripts(
            &[
                ScriptSpec {
                    name: "a.js".into(),
                    source: "subscribe('x', function (m) { print('got ' + m); });".into(),
                },
                ScriptSpec {
                    name: "b.js".into(),
                    source: "publish('x', 42);".into(),
                },
            ],
            |_| FrozenSlot::new(),
        );
        assert!(errors.is_empty());
        sim.run_until_idle();
        assert_eq!(ctx.scripts()[0].prints(), vec!["got 42"]);
    }

    #[test]
    fn install_reports_bad_script_but_keeps_good_ones() {
        let sim = Sim::new();
        let sched = scheduler(&sim);
        let (_, outbound) = outbound_log();
        let ctx = DeviceContext::new("exp", 1, &sched, &LogStore::new(), outbound);
        let errors = ctx.install_scripts(
            &[
                ScriptSpec {
                    name: "bad.js".into(),
                    source: "var = broken;".into(),
                },
                ScriptSpec {
                    name: "good.js".into(),
                    source: "print('alive');".into(),
                },
            ],
            |_| FrozenSlot::new(),
        );
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].0, "bad.js");
        assert_eq!(ctx.scripts()[1].prints(), vec!["alive"]);
    }

    #[test]
    fn shutdown_stops_scripts_and_mirrors() {
        let sim = Sim::new();
        let sched = scheduler(&sim);
        let (out, outbound) = outbound_log();
        let ctx = DeviceContext::new("exp", 1, &sched, &LogStore::new(), outbound);
        ctx.handle_control(
            &ControlMsg::Subscribe {
                exp: "exp".into(),
                channel: "ch".into(),
                params: Msg::Null,
                sub_ref: 1,
            },
            "c@p",
        );
        ctx.install_scripts(
            &[ScriptSpec {
                name: "s.js".into(),
                source: "subscribe('ch', function (m) {});".into(),
            }],
            |_| FrozenSlot::new(),
        );
        ctx.shutdown();
        ctx.broker().publish("ch", &Msg::Null);
        assert!(out.borrow().is_empty());
        assert!(!ctx.broker().has_active_subscribers("ch"));
    }

    // ---- collector context -------------------------------------------------

    #[allow(clippy::type_complexity)]
    fn collector_outbound() -> (
        Rc<RefCell<Vec<(String, ControlMsg)>>>,
        impl Fn(&str, ControlMsg) + 'static,
    ) {
        let log: Rc<RefCell<Vec<(String, ControlMsg)>>> = Rc::new(RefCell::new(Vec::new()));
        let l = log.clone();
        (log, move |dev: &str, m: ControlMsg| {
            l.borrow_mut().push((dev.to_owned(), m))
        })
    }

    #[test]
    fn collector_subscription_syncs_to_all_devices() {
        let (out, outbound) = collector_outbound();
        let ctx = CollectorContext::new("exp", outbound);
        ctx.add_device("d1@pogo");
        ctx.add_device("d2@pogo");
        ctx.broker().subscribe(
            "battery",
            Msg::obj([("interval", Msg::Num(60_000.0))]),
            |_, _, _| {},
        );
        let out = out.borrow();
        let subs: Vec<&(String, ControlMsg)> = out
            .iter()
            .filter(|(_, m)| matches!(m, ControlMsg::Subscribe { .. }))
            .collect();
        assert_eq!(subs.len(), 2);
        assert_eq!(subs[0].0, "d1@pogo");
        assert_eq!(subs[1].0, "d2@pogo");
    }

    #[test]
    fn late_joining_device_receives_existing_subscriptions() {
        let (out, outbound) = collector_outbound();
        let ctx = CollectorContext::new("exp", outbound);
        let id = ctx.broker().subscribe("battery", Msg::Null, |_, _, _| {});
        ctx.broker().set_active(id, false);
        ctx.add_device("late@pogo");
        let out = out.borrow();
        assert!(matches!(out[0].1, ControlMsg::Subscribe { .. }));
        assert!(
            matches!(out[1].1, ControlMsg::SetActive { active: false, .. }),
            "released state also synced"
        );
    }

    #[test]
    fn device_data_reaches_targeted_subscription_with_attribution() {
        let (_, outbound) = collector_outbound();
        let ctx = CollectorContext::new("exp", outbound);
        let seen = Rc::new(RefCell::new(Vec::new()));
        let s = seen.clone();
        let id = ctx
            .broker()
            .subscribe("battery", Msg::Null, move |_, m, from| {
                s.borrow_mut().push((m.clone(), from.map(str::to_owned)));
            });
        ctx.handle_data("d1@pogo", "battery", &Msg::Num(4.1), Some(id.0));
        assert_eq!(seen.borrow().len(), 1);
        assert_eq!(seen.borrow()[0].1.as_deref(), Some("d1@pogo"));
    }

    #[test]
    fn collector_publish_fans_out_but_device_data_does_not_bounce() {
        let (out, outbound) = collector_outbound();
        let ctx = CollectorContext::new("exp", outbound);
        ctx.add_device("d1@pogo");
        ctx.broker().publish("config", &Msg::Num(1.0));
        assert_eq!(
            out.borrow()
                .iter()
                .filter(|(_, m)| matches!(m, ControlMsg::Data { .. }))
                .count(),
            1
        );
        // Device-attributed republish must not fan back out.
        ctx.handle_data("d1@pogo", "config", &Msg::Num(2.0), None);
        assert_eq!(
            out.borrow()
                .iter()
                .filter(|(_, m)| matches!(m, ControlMsg::Data { .. }))
                .count(),
            1,
            "no echo loop"
        );
    }

    #[test]
    fn collector_script_install_with_extension_native() {
        let sim = Sim::new();
        let sched = {
            let phone = Phone::new(&sim, PhoneConfig::default());
            std::mem::forget(phone.cpu().acquire_wake_lock());
            Scheduler::new(phone.cpu())
        };
        let (_, outbound) = collector_outbound();
        let ctx = CollectorContext::new("exp", outbound);
        let host = ctx
            .install_script(
                "collect.js",
                "print(magic());",
                &sched,
                &LogStore::new(),
                |h| {
                    h.register_native("magic", |_, _| Ok(pogo_script::Value::from(99.0)));
                },
            )
            .unwrap();
        assert_eq!(host.prints(), vec!["99"]);
    }
}
