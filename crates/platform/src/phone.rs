//! Assembly of the simulated handset.

use std::fmt;

use pogo_sim::{DeviceClock, Sim};

use crate::battery::{Battery, DEFAULT_CAPACITY_JOULES};
use crate::connectivity::{Bearer, Connectivity};
use crate::cpu::{Cpu, CpuConfig};
use crate::energy::EnergyMeter;
use crate::radio::{CarrierProfile, CellularModem};
use crate::wifi::{WifiConfig, WifiRadio};

/// Configuration for a [`Phone`].
#[derive(Debug, Clone)]
pub struct PhoneConfig {
    /// Carrier the 3G modem is subscribed to.
    pub carrier: CarrierProfile,
    /// CPU power/linger parameters.
    pub cpu: CpuConfig,
    /// Wi-Fi chipset parameters.
    pub wifi: WifiConfig,
    /// Battery capacity in joules.
    pub battery_capacity_joules: f64,
    /// Bearer that is up when the phone boots.
    pub initial_bearer: Option<Bearer>,
}

impl Default for PhoneConfig {
    fn default() -> Self {
        PhoneConfig {
            carrier: CarrierProfile::kpn(),
            cpu: CpuConfig::default(),
            wifi: WifiConfig::default(),
            battery_capacity_joules: DEFAULT_CAPACITY_JOULES,
            initial_bearer: Some(Bearer::Cellular),
        }
    }
}

/// Error returned by [`Phone::transmit`] when no bearer is up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OfflineError;

impl fmt::Display for OfflineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("no network bearer is active")
    }
}

impl std::error::Error for OfflineError {}

/// A complete simulated handset: CPU, 3G modem, Wi-Fi, battery, and
/// connectivity state sharing one [`EnergyMeter`].
///
/// All component handles are cheap to clone; `Phone` itself is a bundle of
/// handles and is also cheap to clone.
#[derive(Clone, Debug)]
pub struct Phone {
    sim: Sim,
    meter: EnergyMeter,
    cpu: Cpu,
    modem: CellularModem,
    wifi: WifiRadio,
    connectivity: Connectivity,
    battery: Battery,
    clock: DeviceClock,
}

impl Phone {
    /// Boots a phone on the given simulation.
    pub fn new(sim: &Sim, config: PhoneConfig) -> Self {
        let meter = EnergyMeter::new(sim);
        let cpu = Cpu::new(sim, &meter, config.cpu);
        let modem = CellularModem::new(sim, &meter, config.carrier);
        let wifi = WifiRadio::new(sim, &meter, config.wifi);
        let connectivity = Connectivity::new(config.initial_bearer);
        let battery = Battery::new(&meter, config.battery_capacity_joules);
        let clock = DeviceClock::new(sim);
        Phone {
            sim: sim.clone(),
            meter,
            cpu,
            modem,
            wifi,
            connectivity,
            battery,
            clock,
        }
    }

    /// The simulation clock this phone lives on.
    pub fn sim(&self) -> &Sim {
        &self.sim
    }

    /// The phone's energy meter.
    pub fn meter(&self) -> &EnergyMeter {
        &self.meter
    }

    /// The application CPU.
    pub fn cpu(&self) -> &Cpu {
        &self.cpu
    }

    /// The 3G modem.
    pub fn modem(&self) -> &CellularModem {
        &self.modem
    }

    /// The Wi-Fi interface.
    pub fn wifi(&self) -> &WifiRadio {
        &self.wifi
    }

    /// Connectivity (active-bearer) state.
    pub fn connectivity(&self) -> &Connectivity {
        &self.connectivity
    }

    /// The battery.
    pub fn battery(&self) -> &Battery {
        &self.battery
    }

    /// The device's real-time clock. Identity on [`Sim::now`] until a
    /// skew is injected; sensor timestamps are stamped from it, timers
    /// are not (they keep elapsed-time semantics on the global clock).
    pub fn clock(&self) -> &DeviceClock {
        &self.clock
    }

    /// Sends `tx`/`rx` bytes over whichever bearer is active; `done` fires
    /// when the last byte moves.
    ///
    /// # Errors
    ///
    /// Returns [`OfflineError`] (without consuming energy) when no bearer
    /// is up.
    pub fn transmit(
        &self,
        tx: u64,
        rx: u64,
        done: impl FnOnce() + 'static,
    ) -> Result<Bearer, OfflineError> {
        match self.connectivity.active() {
            Some(Bearer::Cellular) => {
                self.modem.transmit(tx, rx, done);
                Ok(Bearer::Cellular)
            }
            Some(Bearer::Wifi) => {
                self.wifi.transmit(tx, rx, done);
                Ok(Bearer::Wifi)
            }
            None => Err(OfflineError),
        }
    }

    /// The 2G/3G interface byte counters `(tx, rx)` — the quantity Pogo's
    /// tail detector polls (§4.7 reads "the number of bytes received and
    /// transmitted on the 2G/3G network interface").
    pub fn mobile_byte_counters(&self) -> (u64, u64) {
        self.modem.byte_counters()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pogo_sim::SimDuration;
    use std::cell::Cell;
    use std::rc::Rc;

    #[test]
    fn transmit_routes_to_active_bearer() {
        let sim = Sim::new();
        let phone = Phone::new(&sim, PhoneConfig::default());
        assert_eq!(phone.transmit(1_000, 0, || {}), Ok(Bearer::Cellular));
        sim.run_until_idle();
        assert_eq!(phone.modem().byte_counters().0, 1_000);
        assert_eq!(phone.wifi().byte_counters().0, 0);

        phone.connectivity().set_active(Some(Bearer::Wifi));
        assert_eq!(phone.transmit(500, 0, || {}), Ok(Bearer::Wifi));
        sim.run_until_idle();
        assert_eq!(phone.wifi().byte_counters().0, 500);
    }

    #[test]
    fn transmit_offline_fails_without_energy() {
        let sim = Sim::new();
        let phone = Phone::new(
            &sim,
            PhoneConfig {
                initial_bearer: None,
                ..PhoneConfig::default()
            },
        );
        let called = Rc::new(Cell::new(false));
        let c = called.clone();
        assert_eq!(phone.transmit(1, 0, move || c.set(true)), Err(OfflineError));
        sim.run_for(SimDuration::from_secs(120));
        assert!(!called.get());
        assert_eq!(phone.mobile_byte_counters(), (0, 0));
    }

    #[test]
    fn two_phones_on_one_sim_keep_independent_state() {
        let sim = Sim::new();
        let a = Phone::new(&sim, PhoneConfig::default());
        let b = Phone::new(&sim, PhoneConfig::default());

        a.clock().set_skew(1_000, 0);
        assert_eq!(a.clock().skew_ms(), 1_000);
        assert_eq!(b.clock().skew_ms(), 0);

        a.connectivity().set_active(Some(Bearer::Wifi));
        assert_eq!(a.connectivity().change_count(), 1);
        assert_eq!(b.connectivity().active(), Some(Bearer::Cellular));
        assert_eq!(b.connectivity().change_count(), 0);

        // Only `b` ramps its modem up; `a` stays at the idle floor.
        b.transmit(50_000, 0, || {}).unwrap();
        sim.run_for(SimDuration::from_mins(10));
        let (ja, jb) = (a.meter().total_joules(), b.meter().total_joules());
        assert!(jb > ja + 1.0, "b transmitted ({jb} J), a idled ({ja} J)");
        for phone in [&a, &b] {
            let rails = phone.meter().breakdown();
            assert_eq!(rails.len(), 3, "cpu + modem + wifi: {rails:?}");
            let sum: f64 = rails.iter().map(|(_, j)| j).sum();
            assert_eq!(phone.meter().total_joules(), sum);
        }
    }

    #[test]
    fn idle_phone_energy_is_floor_power() {
        let sim = Sim::new();
        let phone = Phone::new(&sim, PhoneConfig::default());
        sim.run_for(SimDuration::from_hours(1));
        // After the boot linger the phone draws asleep CPU + idle radios.
        let joules = phone.meter().total_joules();
        let floor = 0.008 + 0.002 + 0.002; // cpu + modem + wifi idle
        let expected = floor * 3_600.0;
        assert!(
            (joules - expected).abs() < 1.0,
            "idle hour {joules} J vs floor {expected} J"
        );
    }
}
