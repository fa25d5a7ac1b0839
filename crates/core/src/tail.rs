//! Tail detection (§4.7): noticing that *some other app* just used the
//! modem, without ever waking the CPU ourselves.
//!
//! "We therefore use a side-effect of how Java's `Thread.sleep` method is
//! implemented on Android. When the processor is in sleep mode, the
//! timers that govern the sleeping behavior are also frozen, which means
//! that the thread will only continue to execute after the CPU has been
//! woken up by some other process. We use this to detect when the CPU is
//! woken up by another application, possibly a background service that
//! wants to engage in data transmission. … *Pogo* checks for network
//! activity every second, but uses `Thread.sleep` instead of alarms."
//!
//! The detector therefore costs nothing while the phone sleeps, and
//! reacts within about a second of awake time when foreign traffic moves.

use std::cell::RefCell;
use std::rc::{Rc, Weak};

use pogo_platform::{FrozenTimer, Phone};
use pogo_sim::SimDuration;

struct Inner {
    phone: Phone,
    /// The frozen sleep behind every poll: one timer, armed again each
    /// time it elapses.
    sleep: FrozenTimer,
    period: SimDuration,
    last_counters: (u64, u64),
    on_traffic: Rc<dyn Fn(u64)>,
    running: bool,
}

/// The §4.7 traffic detector. Cheap to clone; clones share state.
#[derive(Clone)]
pub(crate) struct TailDetector {
    inner: Rc<RefCell<Inner>>,
}

impl std::fmt::Debug for TailDetector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("TailDetector")
            .field("running", &inner.running)
            .finish()
    }
}

impl TailDetector {
    /// Creates a detector polling the phone's 2G/3G byte counters every
    /// `period` of *awake* time, invoking `on_traffic(delta_bytes)` when
    /// they move. Call [`TailDetector::start`] to begin.
    pub fn new(phone: &Phone, period: SimDuration, on_traffic: impl Fn(u64) + 'static) -> Self {
        let (tx, rx) = phone.mobile_byte_counters();
        TailDetector {
            inner: Rc::new_cyclic(|weak: &Weak<RefCell<Inner>>| {
                let weak = weak.clone();
                RefCell::new(Inner {
                    phone: phone.clone(),
                    // The timer outlives a dropped detector on the CPU's
                    // list; its last sleep then elapses into nothing.
                    sleep: phone.cpu().frozen_timer(move || {
                        if let Some(inner) = weak.upgrade() {
                            TailDetector { inner }.tick();
                        }
                    }),
                    period,
                    last_counters: (tx, rx),
                    on_traffic: Rc::new(on_traffic),
                    running: false,
                })
            }),
        }
    }

    /// Starts the polling loop.
    pub fn start(&self) {
        {
            let mut inner = self.inner.borrow_mut();
            if inner.running {
                return;
            }
            inner.running = true;
        }
        self.arm();
    }

    /// Stops the loop (the current sleep still fires but does nothing).
    pub fn stop(&self) {
        self.inner.borrow_mut().running = false;
    }

    /// Re-baselines the byte counters to their current values. The device
    /// node calls this when its own upload completes so Pogo's traffic is
    /// not mistaken for another app's (real Pogo knows what it sent).
    pub(crate) fn resync(&self) {
        let mut inner = self.inner.borrow_mut();
        inner.last_counters = inner.phone.mobile_byte_counters();
    }

    fn arm(&self) {
        let inner = self.inner.borrow();
        // The frozen sleep is the crux: it only elapses while the CPU is
        // awake, i.e. when somebody *else* woke it.
        inner.sleep.arm(inner.period);
    }

    fn tick(&self) {
        let action = {
            let mut inner = self.inner.borrow_mut();
            if !inner.running {
                return;
            }
            let (tx, rx) = inner.phone.mobile_byte_counters();
            let (ltx, lrx) = inner.last_counters;
            let delta = (tx - ltx) + (rx - lrx);
            inner.last_counters = (tx, rx);
            if delta > 0 {
                Some((inner.on_traffic.clone(), delta))
            } else {
                None
            }
        };
        if let Some((cb, delta)) = action {
            cb(delta);
        }
        self.arm();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pogo_platform::{NetAppConfig, PeriodicNetApp, PhoneConfig};
    use pogo_sim::Sim;
    use std::cell::Cell;

    #[test]
    fn detects_foreign_traffic_within_seconds() {
        let sim = Sim::new();
        let phone = Phone::new(&sim, PhoneConfig::default());
        let _email = PeriodicNetApp::install(&phone, NetAppConfig::email());
        let hits = Rc::new(Cell::new(0u32));
        let h = hits.clone();
        let detector = TailDetector::new(&phone, SimDuration::from_secs(1), move |_| {
            h.set(h.get() + 1)
        });
        detector.start();
        sim.run_for(SimDuration::from_mins(31));
        // 6 e-mail checks in 31 minutes, each detected once.
        assert_eq!(hits.get(), 6);
    }

    #[test]
    fn detection_happens_while_radio_tail_is_still_open() {
        let sim = Sim::new();
        let phone = Phone::new(&sim, PhoneConfig::default());
        let _email = PeriodicNetApp::install(&phone, NetAppConfig::email());
        let tail_open_at_detect = Rc::new(Cell::new(true));
        let t = tail_open_at_detect.clone();
        let p = phone.clone();
        let detector = TailDetector::new(&phone, SimDuration::from_secs(1), move |_| {
            t.set(t.get() && p.modem().is_tail_open());
        });
        detector.start();
        sim.run_for(SimDuration::from_mins(20));
        assert!(
            tail_open_at_detect.get(),
            "every detection must land inside the paid-for tail"
        );
    }

    #[test]
    fn no_cpu_wakeups_attributable_to_detector() {
        // The whole point of §4.7: polling via frozen sleeps never wakes
        // the CPU. With no other apps, the CPU stays asleep forever.
        let sim = Sim::new();
        let phone = Phone::new(&sim, PhoneConfig::default());
        let detector = TailDetector::new(&phone, SimDuration::from_secs(1), |_| {});
        detector.start();
        sim.run_for(SimDuration::from_hours(2));
        assert_eq!(phone.cpu().wakeups(), 0);
        assert!(!phone.cpu().is_awake());
        // Awake time is just the boot linger.
        assert!(phone.cpu().awake_time().as_secs_f64() < 2.0);
    }

    #[test]
    fn stop_halts_detections() {
        let sim = Sim::new();
        let phone = Phone::new(&sim, PhoneConfig::default());
        let _email = PeriodicNetApp::install(&phone, NetAppConfig::email());
        let hits = Rc::new(Cell::new(0u32));
        let h = hits.clone();
        let detector = TailDetector::new(&phone, SimDuration::from_secs(1), move |_| {
            h.set(h.get() + 1)
        });
        detector.start();
        sim.run_for(SimDuration::from_mins(12));
        let before = hits.get();
        assert!(before >= 2);
        detector.stop();
        sim.run_for(SimDuration::from_mins(20));
        assert_eq!(hits.get(), before);
    }
}
