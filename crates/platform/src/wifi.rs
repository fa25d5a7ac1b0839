//! The Wi-Fi interface: access-point scans and (comparatively cheap)
//! data transfers.
//!
//! Unlike the 3G modem, Wi-Fi has no multi-second tail — which is why the
//! paper's user 7, who had no mobile Internet, could offload over Wi-Fi
//! without the tail-sync machinery. A scan occupies the chipset for
//! 1–2 seconds (§4.5: "the 1-2 seconds the process generally requires"),
//! during which the caller must hold a wake lock or the completion is
//! never observed.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use pogo_sim::{Sim, SimDuration};

use crate::energy::{EnergyMeter, RailId};

/// Wi-Fi chipset parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WifiConfig {
    /// Draw while associated but idle, watts (power-save mode).
    pub idle_power: f64,
    /// Draw while actively transferring, watts.
    pub active_power: f64,
    /// Draw during an access-point scan, watts.
    pub scan_power: f64,
    /// Duration of one access-point scan.
    pub scan_duration: SimDuration,
    /// Goodput in bytes/second (either direction).
    pub bytes_per_sec: f64,
    /// Fixed per-burst association/overhead time.
    pub burst_overhead: SimDuration,
}

impl Default for WifiConfig {
    fn default() -> Self {
        WifiConfig {
            idle_power: 0.002,
            active_power: 0.35,
            scan_power: 0.45,
            scan_duration: SimDuration::from_millis(1_500),
            bytes_per_sec: 1_500_000.0,
            burst_overhead: SimDuration::from_millis(100),
        }
    }
}

enum Job {
    Transfer {
        tx: u64,
        rx: u64,
        done: Box<dyn FnOnce()>,
    },
    Scan {
        done: Box<dyn FnOnce()>,
    },
}

struct Inner {
    sim: Sim,
    meter: EnergyMeter,
    rail: RailId,
    cfg: WifiConfig,
    busy: bool,
    queue: VecDeque<Job>,
    tx_total: u64,
    rx_total: u64,
    scans: u64,
}

/// The simulated Wi-Fi interface. Cheap to clone; clones share state.
#[derive(Clone)]
pub struct WifiRadio {
    inner: Rc<RefCell<Inner>>,
}

impl std::fmt::Debug for WifiRadio {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("WifiRadio")
            .field("busy", &inner.busy)
            .field("tx_total", &inner.tx_total)
            .field("scans", &inner.scans)
            .finish()
    }
}

impl WifiRadio {
    /// Creates an idle Wi-Fi interface.
    pub fn new(sim: &Sim, meter: &EnergyMeter, cfg: WifiConfig) -> Self {
        let rail = meter.register("wifi");
        meter.set_power(rail, cfg.idle_power);
        WifiRadio {
            inner: Rc::new(RefCell::new(Inner {
                sim: sim.clone(),
                meter: meter.clone(),
                rail,
                cfg,
                busy: false,
                queue: VecDeque::new(),
                tx_total: 0,
                rx_total: 0,
                scans: 0,
            })),
        }
    }

    /// Interface byte counters `(tx, rx)`.
    pub fn byte_counters(&self) -> (u64, u64) {
        let inner = self.inner.borrow();
        (inner.tx_total, inner.rx_total)
    }

    /// Number of completed access-point scans.
    pub fn scan_count(&self) -> u64 {
        self.inner.borrow().scans
    }

    /// Queues a data transfer; `done` fires when the burst completes.
    pub fn transmit(&self, tx: u64, rx: u64, done: impl FnOnce() + 'static) {
        self.inner.borrow_mut().queue.push_back(Job::Transfer {
            tx,
            rx,
            done: Box::new(done),
        });
        self.kick();
    }

    /// Queues an access-point scan; `done` fires after
    /// [`WifiConfig::scan_duration`]. The caller is responsible for holding
    /// a CPU wake lock for the duration (the Wi-Fi sensor in `pogo-core`
    /// does this, mirroring §4.5).
    pub fn scan(&self, done: impl FnOnce() + 'static) {
        self.inner.borrow_mut().queue.push_back(Job::Scan {
            done: Box::new(done),
        });
        self.kick();
    }

    fn kick(&self) {
        let mut inner = self.inner.borrow_mut();
        if inner.busy {
            return;
        }
        let Some(job) = inner.queue.pop_front() else {
            return;
        };
        inner.busy = true;
        let me = self.clone();
        let sim = inner.sim.clone();
        match job {
            Job::Transfer { tx, rx, done } => {
                inner.meter.set_power(inner.rail, inner.cfg.active_power);
                let secs = (tx + rx) as f64 / inner.cfg.bytes_per_sec;
                let duration = inner.cfg.burst_overhead + SimDuration::from_secs_f64(secs);
                drop(inner);
                sim.schedule_in(duration, move || me.finish(Some((tx, rx)), done));
            }
            Job::Scan { done } => {
                inner.meter.set_power(inner.rail, inner.cfg.scan_power);
                let duration = inner.cfg.scan_duration;
                drop(inner);
                sim.schedule_in(duration, move || me.finish(None, done));
            }
        }
    }

    fn finish(&self, transfer: Option<(u64, u64)>, done: Box<dyn FnOnce()>) {
        {
            let mut inner = self.inner.borrow_mut();
            inner.busy = false;
            match transfer {
                Some((tx, rx)) => {
                    inner.tx_total += tx;
                    inner.rx_total += rx;
                }
                None => inner.scans += 1,
            }
            inner.meter.set_power(inner.rail, inner.cfg.idle_power);
        }
        done();
        self.kick();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pogo_sim::SimTime;
    use std::cell::Cell;

    fn setup() -> (Sim, EnergyMeter, WifiRadio) {
        let sim = Sim::new();
        let meter = EnergyMeter::new(&sim);
        let wifi = WifiRadio::new(&sim, &meter, WifiConfig::default());
        (sim, meter, wifi)
    }

    #[test]
    fn scan_takes_configured_duration() {
        let (sim, _meter, wifi) = setup();
        let done_at: Rc<Cell<Option<u64>>> = Rc::new(Cell::new(None));
        let d = done_at.clone();
        let s = sim.clone();
        wifi.scan(move || d.set(Some(s.now().as_millis())));
        sim.run_until_idle();
        assert_eq!(done_at.get(), Some(1_500));
        assert_eq!(wifi.scan_count(), 1);
    }

    #[test]
    fn transfer_updates_counters_and_power_returns_to_idle() {
        let (sim, meter, wifi) = setup();
        wifi.transmit(150_000, 0, || {});
        sim.run_until_idle();
        assert_eq!(wifi.byte_counters(), (150_000, 0));
        // 100 ms overhead + 0.1 s payload at 0.35 W, idle otherwise.
        let active_secs = 0.1 + 0.1;
        let total_secs = sim.now().as_secs_f64();
        let expected = active_secs * 0.35 + (total_secs - active_secs) * 0.002;
        let got = meter.total_joules();
        assert!((got - expected).abs() < 1e-9, "got {got} want {expected}");
    }

    #[test]
    fn jobs_run_serially_in_order() {
        let (sim, _meter, wifi) = setup();
        let order: Rc<RefCell<Vec<&'static str>>> = Rc::new(RefCell::new(Vec::new()));
        let o1 = order.clone();
        let o2 = order.clone();
        wifi.scan(move || o1.borrow_mut().push("scan"));
        wifi.transmit(1, 0, move || o2.borrow_mut().push("tx"));
        sim.run_until_idle();
        assert_eq!(*order.borrow(), vec!["scan", "tx"]);
    }

    #[test]
    fn scan_energy_is_metered() {
        let (sim, meter, wifi) = setup();
        wifi.scan(|| {});
        sim.run_until(SimTime::from_millis(1_500));
        let expected = 1.5 * 0.45;
        let got = meter.total_joules();
        assert!((got - expected).abs() < 1e-9);
    }
}
