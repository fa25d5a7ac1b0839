//! The battery: level/voltage derived from metered energy consumption.
//!
//! Pogo's Table 3 experiment has the middleware sample "the battery
//! sensor every minute" and report voltage readings. This model derives
//! the state of charge from the [`EnergyMeter`] so that what the battery
//! sensor publishes is consistent with what the rest of the simulation
//! consumed, and supports charge cycles (users plug phones in at night).

use std::cell::RefCell;
use std::rc::Rc;

use crate::energy::EnergyMeter;

/// Galaxy-Nexus-class battery: 1750 mAh at 3.7 V nominal ≈ 23.3 kJ.
pub const DEFAULT_CAPACITY_JOULES: f64 = 23_300.0;

struct Inner {
    meter: EnergyMeter,
    capacity_joules: f64,
    /// Meter reading at the moment the battery was last full.
    full_at_joules: f64,
    charging: bool,
}

/// Simulated battery. Cheap to clone; clones share state.
#[derive(Clone)]
pub struct Battery {
    inner: Rc<RefCell<Inner>>,
}

impl std::fmt::Debug for Battery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Battery")
            .field("level", &self.level())
            .field("charging", &self.is_charging())
            .finish()
    }
}

impl Battery {
    /// Creates a full battery with the given capacity in joules.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_joules` is not positive.
    pub fn new(meter: &EnergyMeter, capacity_joules: f64) -> Self {
        assert!(capacity_joules > 0.0, "battery capacity must be positive");
        let full_at = meter.total_joules();
        Battery {
            inner: Rc::new(RefCell::new(Inner {
                meter: meter.clone(),
                capacity_joules,
                full_at_joules: full_at,
                charging: false,
            })),
        }
    }

    /// State of charge in `[0, 1]`.
    pub fn level(&self) -> f64 {
        let inner = self.inner.borrow();
        if inner.charging {
            return 1.0;
        }
        let used = inner.meter.total_joules() - inner.full_at_joules;
        (1.0 - used / inner.capacity_joules).clamp(0.0, 1.0)
    }

    /// True once the battery is fully drained.
    pub fn is_empty(&self) -> bool {
        self.level() <= 0.0
    }

    /// Terminal voltage: a simple affine discharge curve from 4.2 V (full)
    /// to 3.5 V (empty) — the quantity the paper's experiment reports.
    pub fn voltage(&self) -> f64 {
        3.5 + 0.7 * self.level()
    }

    /// True while on the charger.
    pub fn is_charging(&self) -> bool {
        self.inner.borrow().charging
    }

    /// Plugs/unplugs the charger. Unplugging marks the battery full
    /// (overnight charges complete in the scenarios we model).
    pub fn set_charging(&self, charging: bool) {
        let mut inner = self.inner.borrow_mut();
        if inner.charging && !charging {
            inner.full_at_joules = inner.meter.total_joules();
        }
        inner.charging = charging;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pogo_sim::{Sim, SimDuration};

    fn setup(capacity: f64) -> (Sim, EnergyMeter, Battery) {
        let sim = Sim::new();
        let meter = EnergyMeter::new(&sim);
        let battery = Battery::new(&meter, capacity);
        (sim, meter, battery)
    }

    #[test]
    fn drains_with_consumed_energy() {
        let (sim, meter, battery) = setup(100.0);
        let r = meter.register("load");
        meter.set_power(r, 1.0);
        assert_eq!(battery.level(), 1.0);
        sim.run_for(SimDuration::from_secs(25));
        assert!((battery.level() - 0.75).abs() < 1e-9);
        sim.run_for(SimDuration::from_secs(200));
        assert_eq!(battery.level(), 0.0);
        assert!(battery.is_empty());
    }

    #[test]
    fn voltage_follows_level() {
        let (sim, meter, battery) = setup(100.0);
        assert!((battery.voltage() - 4.2).abs() < 1e-9);
        let r = meter.register("load");
        meter.set_power(r, 1.0);
        sim.run_for(SimDuration::from_secs(100));
        assert!((battery.voltage() - 3.5).abs() < 1e-9);
    }

    #[test]
    fn charging_restores_full() {
        let (sim, meter, battery) = setup(100.0);
        let r = meter.register("load");
        meter.set_power(r, 1.0);
        sim.run_for(SimDuration::from_secs(50));
        assert!((battery.level() - 0.5).abs() < 1e-9);
        battery.set_charging(true);
        assert_eq!(battery.level(), 1.0);
        assert!(battery.is_charging());
        sim.run_for(SimDuration::from_secs(10));
        battery.set_charging(false);
        // Full again; subsequent drain counts from here.
        sim.run_for(SimDuration::from_secs(10));
        assert!((battery.level() - 0.9).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let sim = Sim::new();
        let meter = EnergyMeter::new(&sim);
        let _ = Battery::new(&meter, 0.0);
    }
}
