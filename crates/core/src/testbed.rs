//! Testbed assembly: server + collector + devices, with the
//! administrator's roster management (§3.1) folded in.
//!
//! A convenience layer used by the examples, integration tests, and
//! experiment harness; production users can wire
//! [`crate::device::DeviceNode`] and [`crate::collector::CollectorNode`]
//! directly.

use pogo_net::{Jid, Switchboard};
use pogo_obs::{Obs, ObsConfig};
use pogo_platform::{Phone, PhoneConfig};
use pogo_sim::{DeviceId, Sim, SimDuration};

use crate::collector::CollectorNode;
use crate::device::{DeviceConfig, DeviceNode};
use crate::fleet::{Fleet, FleetMember, FleetSpec};
use crate::sensor::SensorSources;

/// A volunteer device about to join a [`Testbed`], built field by field
/// and handed to [`Testbed::add`].
///
/// ```ignore
/// let (device, phone) = testbed.add(
///     DeviceSetup::named("device-1")
///         .phone(PhoneConfig::default())
///         .configure(|c| c.with_flush_policy(FlushPolicy::Immediate)),
/// );
/// ```
#[must_use = "a DeviceSetup does nothing until passed to Testbed::add"]
pub struct DeviceSetup {
    name: String,
    phone_config: PhoneConfig,
    config: Box<dyn FnOnce(DeviceConfig) -> DeviceConfig>,
    sources: SensorSources,
}

impl DeviceSetup {
    /// Starts a setup for a device named `node` (JID `node@pogo`) with
    /// default phone, config, and sensor sources.
    pub fn named(node: &str) -> Self {
        DeviceSetup {
            name: node.to_owned(),
            phone_config: PhoneConfig::default(),
            config: Box::new(|c| c),
            sources: SensorSources::default(),
        }
    }

    /// Sets the phone's hardware configuration.
    pub fn phone(mut self, config: PhoneConfig) -> Self {
        self.phone_config = config;
        self
    }

    /// Adjusts the middleware configuration (flush policy, latencies,
    /// privacy…). Later calls compose after earlier ones.
    pub fn configure(mut self, f: impl FnOnce(DeviceConfig) -> DeviceConfig + 'static) -> Self {
        let prev = self.config;
        self.config = Box::new(move |c| f(prev(c)));
        self
    }

    /// Sets the phone's synthetic sensor sources.
    pub fn sensors(mut self, sources: SensorSources) -> Self {
        self.sources = sources;
        self
    }
}

/// A complete Pogo deployment on one simulation.
#[derive(Debug, Clone)]
pub struct Testbed {
    sim: Sim,
    server: Switchboard,
    collector: CollectorNode,
    devices: Vec<DeviceNode>,
    obs: Obs,
}

impl Testbed {
    /// Creates a testbed with a switchboard and one collector
    /// (`collector@pogo`).
    pub fn new(sim: &Sim) -> Self {
        Self::with_obs(sim, ObsConfig::off())
    }

    /// Like [`Testbed::new`], with observability per `config`: one
    /// shared recorder and metrics registry covers the collector and
    /// every device (scoped by JID), so [`Testbed::obs`] yields a
    /// single, time-ordered trace of the whole deployment.
    pub fn with_obs(sim: &Sim, config: ObsConfig) -> Self {
        let obs = config.build(sim);
        let server = Switchboard::new(sim);
        let jid = Jid::new("collector@pogo").expect("static JID is valid");
        server.register(&jid);
        let collector = CollectorNode::with_obs(sim, &server, &jid, &obs);
        Testbed {
            sim: sim.clone(),
            server,
            collector,
            devices: Vec::new(),
            obs,
        }
    }

    /// The simulation.
    pub fn sim(&self) -> &Sim {
        &self.sim
    }

    /// The switchboard server.
    pub fn server(&self) -> &Switchboard {
        &self.server
    }

    /// The collector node.
    pub fn collector(&self) -> &CollectorNode {
        &self.collector
    }

    /// The device nodes, in creation order. Index `i` is device
    /// [`DeviceId`] `i`.
    pub fn devices(&self) -> &[DeviceNode] {
        &self.devices
    }

    /// The device with the given dense id, if it exists.
    pub fn device(&self, id: DeviceId) -> Option<&DeviceNode> {
        self.devices.get(id.index())
    }

    /// Looks up a device's dense id by JID (creation-order scan).
    pub fn device_id(&self, jid: &Jid) -> Option<DeviceId> {
        self.devices
            .iter()
            .position(|d| &d.jid() == jid)
            .map(DeviceId::new)
    }

    /// The testbed-wide observability handle (unscoped). Off unless the
    /// testbed was built with [`Testbed::with_obs`].
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Adds a volunteer device described by `setup`: creates the phone,
    /// registers the account, performs the administrator's roster
    /// assignment to the collector, and boots the middleware.
    ///
    /// # Panics
    ///
    /// Panics if the setup's name does not form a valid JID.
    pub fn add(&mut self, setup: DeviceSetup) -> (DeviceNode, Phone) {
        let jid = Jid::new(&format!("{}@pogo", setup.name)).expect("valid device JID");
        self.server.register(&jid);
        self.server
            .befriend(&jid, &self.collector.jid())
            .expect("both registered");
        let phone = Phone::new(&self.sim, setup.phone_config);
        let cfg = (setup.config)(DeviceConfig::new(jid).with_obs(&self.obs));
        let device = DeviceNode::new(&phone, &self.server, cfg, setup.sources);
        device.boot();
        self.devices.push(device.clone());
        (device, phone)
    }

    /// Builds every device a [`FleetSpec`] describes: names them
    /// `{prefix}-{i}@pogo`, applies the spec's factories and seeded
    /// jitter (battery spread, carrier mix, per-device sensor streams),
    /// and boots each through [`Testbed::add`]. Returns the fleet with
    /// each member's dense [`DeviceId`].
    pub fn add_fleet(&mut self, spec: FleetSpec) -> Fleet {
        let mut members = Vec::with_capacity(spec.count);
        for i in 0..spec.count {
            let mut rng = spec.device_rng(i);
            let mut phone_config = (spec.phone)(i, PhoneConfig::default());
            if spec.battery_jitter > 0.0 {
                let spread = rng.range_f64(-spec.battery_jitter, spec.battery_jitter);
                phone_config.battery_capacity_joules *= 1.0 + spread;
            }
            if !spec.carriers.is_empty() {
                phone_config.carrier = rng.pick(&spec.carriers).clone();
            }
            let sources = (spec.sensors)(i, &mut rng);
            let configure = spec.configure.clone();
            let id = DeviceId::new(self.devices.len());
            let (device, phone) = self.add(
                DeviceSetup::named(&format!("{}-{i}", spec.prefix))
                    .phone(phone_config)
                    .sensors(sources)
                    .configure(move |c| configure(i, c)),
            );
            members.push(FleetMember { id, device, phone });
        }
        Fleet { members }
    }

    /// Runs the simulation for `duration` in fixed lock-step windows:
    /// the whole fleet advances exactly one window at a time, so a
    /// caller that wants a barrier (to sample host time or memory per
    /// window, say) gets one every `window`. Windowing touches neither
    /// the event queue nor the recorder, so the event trace is
    /// byte-identical to a straight [`Sim::run_for`] of the same
    /// duration. Returns the number of windows stepped.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn run_lockstep(&self, duration: SimDuration, window: SimDuration) -> u64 {
        assert!(!window.is_zero(), "lock-step window must be non-zero");
        let deadline = self.sim.now() + duration;
        let mut windows = 0;
        while self.sim.now() < deadline {
            let remaining = deadline.duration_since(self.sim.now());
            self.sim.run_for(remaining.min(window));
            windows += 1;
        }
        windows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{ExperimentSpec, ScriptSpec};
    use pogo_net::FlushPolicy;
    use pogo_sim::SimDuration;

    #[test]
    fn testbed_wires_roster_and_boots_devices() {
        let sim = Sim::new();
        let mut tb = Testbed::new(&sim);
        let (device, _phone) = tb.add(
            DeviceSetup::named("device-1")
                .configure(|c| c.with_flush_policy(FlushPolicy::Immediate)),
        );
        assert!(tb.server().is_online(&device.jid()));
        assert_eq!(
            tb.server().roster(&device.jid()),
            vec![tb.collector().jid()]
        );
    }

    #[test]
    fn add_fleet_builds_named_jittered_devices() {
        use pogo_platform::CarrierProfile;
        let build = |count: usize| {
            let sim = Sim::new();
            let mut tb = Testbed::new(&sim);
            let fleet = tb.add_fleet(
                FleetSpec::new(count)
                    .prefix("phone")
                    .seed(42)
                    .battery_jitter(0.2)
                    .carriers(vec![
                        CarrierProfile::kpn(),
                        CarrierProfile::t_mobile(),
                        CarrierProfile::vodafone(),
                    ]),
            );
            fleet
                .iter()
                .map(|m| (m.device.jid().to_string(), m.phone.modem().profile().name))
                .collect::<Vec<_>>()
        };
        let a = build(8);
        assert_eq!(a.len(), 8);
        assert_eq!(a[0].0, "phone-0@pogo");
        assert_eq!(a[7].0, "phone-7@pogo");
        let carriers: std::collections::BTreeSet<&str> =
            a.iter().map(|(_, c)| c.as_str()).collect();
        assert!(carriers.len() > 1, "mix draws more than one carrier: {a:?}");
        // Same seed → same draws; a bigger fleet keeps the prefix stable.
        assert_eq!(a, build(8));
        assert_eq!(build(12)[..8], a[..]);
    }

    #[test]
    fn fleet_ids_are_dense_creation_order() {
        let sim = Sim::new();
        let mut tb = Testbed::new(&sim);
        tb.add(DeviceSetup::named("solo"));
        let fleet = tb.add_fleet(FleetSpec::new(3));
        let ids: Vec<usize> = fleet.ids().iter().map(|id| id.index()).collect();
        assert_eq!(ids, vec![1, 2, 3], "fleet ids continue after add()");
        assert_eq!(tb.devices().len(), 4);
        let jid = fleet.members()[1].device.jid();
        assert_eq!(tb.device_id(&jid), Some(pogo_sim::DeviceId::new(2)));
        assert_eq!(
            tb.device(pogo_sim::DeviceId::new(2)).map(|d| d.jid()),
            Some(jid)
        );
    }

    #[test]
    fn lockstep_steps_whole_windows_then_the_remainder() {
        let sim = Sim::new();
        let mut tb = Testbed::new(&sim);
        tb.add_fleet(
            FleetSpec::new(6).configure(|_, c| c.with_flush_policy(FlushPolicy::Immediate)),
        );
        let start = sim.now();
        let windows = tb.run_lockstep(SimDuration::from_secs(630), SimDuration::from_mins(1));
        assert_eq!(windows, 11, "10 full windows + a 30 s remainder");
        assert_eq!(sim.now().duration_since(start), SimDuration::from_secs(630));
    }

    #[test]
    fn end_to_end_smoke_deploy_and_collect() {
        let sim = Sim::new();
        let mut tb = Testbed::new(&sim);
        for i in 0..3 {
            tb.add(
                DeviceSetup::named(&format!("device-{i}"))
                    .configure(|c| c.with_flush_policy(FlushPolicy::Immediate)),
            );
        }
        let received = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let r = received.clone();
        tb.collector().attach_listener(
            crate::registry::ChannelFilter::exp("smoke").channel("pings"),
            move |event| {
                r.borrow_mut()
                    .push((event.device.to_owned(), event.msg.clone()));
            },
        );
        let device_jids: Vec<Jid> = tb.devices().iter().map(DeviceNode::jid).collect();
        tb.collector()
            .deployment(&ExperimentSpec {
                id: "smoke".into(),
                scripts: vec![ScriptSpec {
                    name: "ping.js".into(),
                    source: "publish('pings', { hello: true });".into(),
                }],
            })
            .to(&device_jids)
            .send()
            .expect("scripts pass pre-deployment analysis");
        sim.run_for(SimDuration::from_mins(3));
        let received = received.borrow();
        assert_eq!(received.len(), 3, "one ping per device");
        let mut froms: Vec<&str> = received.iter().map(|(f, _)| f.as_str()).collect();
        froms.sort_unstable();
        assert_eq!(
            froms,
            vec!["device-0@pogo", "device-1@pogo", "device-2@pogo"]
        );
        // The auto-registered channel also recorded into the store.
        let rows = tb
            .collector()
            .store()
            .scan(&pogo_ingest::ScanQuery::exp("smoke").channel("pings"));
        assert_eq!(rows.len(), 3, "one store row per ping");
    }
}
