//! Fleet construction: stamp out N volunteer devices from one spec.
//!
//! The growth path to a 100k-device testbed. Every bench and chaos
//! harness used to hand-roll the same loop — format a name, tweak a
//! [`PhoneConfig`], build [`SensorSources`], call [`Testbed::add`] —
//! with ad-hoc per-device variation. [`FleetSpec`] centralizes that
//! loop behind [`Testbed::add_fleet`]: a device count, a name prefix,
//! and three per-device factories (phone, middleware config, sensors),
//! plus *seeded jitter* so a fleet is heterogeneous the way a real
//! volunteer crowd is — battery capacities spread around nominal,
//! carriers drawn from a mix — without giving up determinism.
//!
//! Jitter for device `i` is derived from `seed` and `i` alone, so
//! device 417 gets the same battery, carrier, and sensor stream in a
//! 10k-device run as in a 100k-device run. Scaling the fleet up never
//! perturbs the devices already in it.
//!
//! [`Testbed::add`]: crate::Testbed::add
//! [`Testbed::add_fleet`]: crate::Testbed::add_fleet

use std::rc::Rc;

use pogo_net::Jid;
use pogo_platform::{CarrierProfile, Phone, PhoneConfig};
use pogo_sim::{DeviceId, SimRng};

use crate::device::{DeviceConfig, DeviceNode};
use crate::sensor::SensorSources;

/// Per-device sensor factory: `(index, jitter rng) -> sources`.
type SensorFactory = Rc<dyn Fn(usize, &mut SimRng) -> SensorSources>;

/// Describes a homogeneous-by-construction, heterogeneous-by-jitter
/// batch of devices for [`Testbed::add_fleet`](crate::Testbed::add_fleet).
///
/// ```ignore
/// let fleet = testbed.add_fleet(
///     FleetSpec::new(10_000)
///         .seed(7)
///         .battery_jitter(0.2)
///         .carriers(vec![CarrierProfile::kpn(), CarrierProfile::t_mobile()])
///         .sensors(|i, rng| walker_sources(i, rng.range_f64(0.0, 1.0))),
/// );
/// ```
#[must_use = "a FleetSpec does nothing until passed to Testbed::add_fleet"]
pub struct FleetSpec {
    pub(crate) count: usize,
    pub(crate) prefix: String,
    pub(crate) seed: u64,
    pub(crate) battery_jitter: f64,
    pub(crate) carriers: Vec<CarrierProfile>,
    pub(crate) phone: Rc<dyn Fn(usize, PhoneConfig) -> PhoneConfig>,
    pub(crate) configure: Rc<dyn Fn(usize, DeviceConfig) -> DeviceConfig>,
    pub(crate) sensors: SensorFactory,
}

impl FleetSpec {
    /// A spec for `count` devices named `device-0` … `device-{count-1}`
    /// with default phones, middleware config, sensors, and no jitter.
    pub fn new(count: usize) -> Self {
        FleetSpec {
            count,
            prefix: "device".to_owned(),
            seed: 0x506f_676f_f1ee_7000, // "Pogo fleet"
            battery_jitter: 0.0,
            carriers: Vec::new(),
            phone: Rc::new(|_, c| c),
            configure: Rc::new(|_, c| c),
            sensors: Rc::new(|_, _| SensorSources::default()),
        }
    }

    /// Sets the device-name prefix (device `i` becomes `{prefix}-{i}@pogo`).
    pub fn prefix(mut self, prefix: &str) -> Self {
        self.prefix = prefix.to_owned();
        self
    }

    /// Sets the jitter seed. Two fleets with the same seed and spec get
    /// identical per-device draws.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Spreads battery capacity uniformly within `±frac` of nominal
    /// (volunteers' phones age differently).
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ frac < 1`.
    pub fn battery_jitter(mut self, frac: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&frac),
            "battery jitter must be in [0, 1), got {frac}"
        );
        self.battery_jitter = frac;
        self
    }

    /// Draws each device's carrier uniformly from `carriers` (empty:
    /// keep whatever the phone factory set).
    pub fn carriers(mut self, carriers: Vec<CarrierProfile>) -> Self {
        self.carriers = carriers;
        self
    }

    /// Adjusts the phone hardware per device; runs before the built-in
    /// battery/carrier jitter so jitter wins. Later calls compose after
    /// earlier ones.
    pub fn phone(mut self, f: impl Fn(usize, PhoneConfig) -> PhoneConfig + 'static) -> Self {
        let prev = self.phone;
        self.phone = Rc::new(move |i, c| f(i, prev(i, c)));
        self
    }

    /// Adjusts the middleware configuration per device (flush policy,
    /// latencies, privacy…). Later calls compose after earlier ones.
    pub fn configure(mut self, f: impl Fn(usize, DeviceConfig) -> DeviceConfig + 'static) -> Self {
        let prev = self.configure;
        self.configure = Rc::new(move |i, c| f(i, prev(i, c)));
        self
    }

    /// Builds each device's synthetic sensor sources. The [`SimRng`] is
    /// the device's private jitter stream (mobility phase, noise…),
    /// derived from the fleet seed and the device index alone.
    pub fn sensors(mut self, f: impl Fn(usize, &mut SimRng) -> SensorSources + 'static) -> Self {
        self.sensors = Rc::new(f);
        self
    }

    /// The number of devices this spec builds.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Device `i`'s private jitter stream: a function of the fleet seed
    /// and `i` only, so fleet size never shifts anyone's draws.
    pub(crate) fn device_rng(&self, i: usize) -> SimRng {
        SimRng::seed_from_u64(self.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

impl std::fmt::Debug for FleetSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetSpec")
            .field("count", &self.count)
            .field("prefix", &self.prefix)
            .field("seed", &self.seed)
            .field("battery_jitter", &self.battery_jitter)
            .field("carriers", &self.carriers.len())
            .finish()
    }
}

/// One device built by [`Testbed::add_fleet`](crate::Testbed::add_fleet):
/// its dense testbed-wide id, the middleware node, and the handset.
#[derive(Debug, Clone)]
pub struct FleetMember {
    /// Dense creation-order id, valid testbed-wide (fault plans and
    /// [`Testbed::device`](crate::Testbed::device) index by it).
    pub id: DeviceId,
    /// The booted middleware node.
    pub device: DeviceNode,
    /// The simulated handset under it.
    pub phone: Phone,
}

/// The devices one [`FleetSpec`] built, in index order.
#[derive(Debug, Clone, Default)]
pub struct Fleet {
    pub(crate) members: Vec<FleetMember>,
}

impl Fleet {
    /// Number of devices in the fleet.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True if the fleet is empty.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The members in spec-index order.
    pub fn members(&self) -> &[FleetMember] {
        &self.members
    }

    /// Iterates the members.
    pub fn iter(&self) -> std::slice::Iter<'_, FleetMember> {
        self.members.iter()
    }

    /// The testbed-wide [`DeviceId`]s, in spec-index order.
    pub fn ids(&self) -> Vec<DeviceId> {
        self.members.iter().map(|m| m.id).collect()
    }

    /// The device JIDs, in spec-index order.
    pub fn jids(&self) -> Vec<Jid> {
        self.members.iter().map(|m| m.device.jid()).collect()
    }
}

impl<'a> IntoIterator for &'a Fleet {
    type Item = &'a FleetMember;
    type IntoIter = std::slice::Iter<'a, FleetMember>;
    fn into_iter(self) -> Self::IntoIter {
        self.members.iter()
    }
}
