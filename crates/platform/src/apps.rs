//! Background applications that generate foreign network traffic.
//!
//! §4.7: "there are typically many applications already present on a
//! mobile phone that periodically trigger a 3G tail. Examples are
//! background processes that check for e-mail, instant messaging
//! applications, and turn-based multi-player games." Pogo's headline
//! mechanism piggybacks on exactly this traffic, so the Table 3 / Figure 4
//! experiments need a faithful e-mail checker: it sets an Android *alarm*
//! (waking the CPU), holds a wake lock while it talks to the server, and
//! transfers a handful of kilobytes.

use std::cell::RefCell;
use std::rc::Rc;

use pogo_sim::SimDuration;

use crate::phone::Phone;

/// Configuration of a periodic network application.
#[derive(Debug, Clone)]
pub struct NetAppConfig {
    /// Display name (for diagnostics).
    pub name: String,
    /// Check interval (the paper's experiment uses 5 minutes).
    pub period: SimDuration,
    /// Uplink bytes per check.
    pub tx_bytes: u64,
    /// Downlink bytes per check.
    pub rx_bytes: u64,
    /// How long the app holds a wake lock per check.
    pub cpu_hold: SimDuration,
    /// Delay before the first check.
    pub start_offset: SimDuration,
}

impl NetAppConfig {
    /// The e-mail application from §5.2: checks every 5 minutes.
    pub fn email() -> Self {
        NetAppConfig {
            name: "email".to_owned(),
            period: SimDuration::from_mins(5),
            tx_bytes: 2_000,
            rx_bytes: 15_000,
            cpu_hold: SimDuration::from_secs(2),
            start_offset: SimDuration::from_mins(5),
        }
    }
}

struct Inner {
    phone: Phone,
    cfg: NetAppConfig,
    checks: u64,
}

/// A background app that periodically wakes the CPU and exchanges data,
/// generating 3G tails for Pogo to synchronize with.
#[derive(Clone)]
pub struct PeriodicNetApp {
    inner: Rc<RefCell<Inner>>,
}

impl std::fmt::Debug for PeriodicNetApp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("PeriodicNetApp")
            .field("name", &inner.cfg.name)
            .field("checks", &inner.checks)
            .finish()
    }
}

impl PeriodicNetApp {
    /// Installs the app on `phone` and schedules its first check.
    pub fn install(phone: &Phone, cfg: NetAppConfig) -> Self {
        let app = PeriodicNetApp {
            inner: Rc::new(RefCell::new(Inner {
                phone: phone.clone(),
                cfg,
                checks: 0,
            })),
        };
        app.schedule_next(app.inner.borrow().cfg.start_offset);
        app
    }

    /// Number of checks performed so far.
    pub fn checks(&self) -> u64 {
        self.inner.borrow().checks
    }

    fn schedule_next(&self, delay: SimDuration) {
        let me = self.clone();
        let cpu = self.inner.borrow().phone.cpu().clone();
        cpu.set_alarm_in(delay, move || me.on_alarm());
    }

    fn on_alarm(&self) {
        let (phone, cfg) = {
            let inner = self.inner.borrow();
            (inner.phone.clone(), inner.cfg.clone())
        };
        self.inner.borrow_mut().checks += 1;
        // Hold a wake lock while the check is in flight, like a real
        // mail client does.
        let lock = phone.cpu().acquire_wake_lock();
        let lock = Rc::new(RefCell::new(Some(lock)));
        let release_after = cfg.cpu_hold;
        let sim = phone.sim().clone();
        let l = lock.clone();
        let release = move || {
            sim.schedule_in(release_after, move || {
                l.borrow_mut().take();
            });
        };
        // Offline is fine: the app simply fails its check.
        match phone.transmit(cfg.tx_bytes, cfg.rx_bytes, release.clone()) {
            Ok(_) => {}
            Err(_) => release(),
        }
        self.schedule_next(cfg.period);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phone::PhoneConfig;
    use pogo_sim::Sim;

    #[test]
    fn email_checks_on_schedule() {
        let sim = Sim::new();
        let phone = Phone::new(&sim, PhoneConfig::default());
        let app = PeriodicNetApp::install(&phone, NetAppConfig::email());
        // Run slightly past the hour so the check at t=60:00 finishes its
        // transfer (ramp-up + payload ≈ 2.2 s).
        sim.run_for(SimDuration::from_mins(61));
        assert_eq!(app.checks(), 12);
        let (tx, rx) = phone.mobile_byte_counters();
        assert_eq!(tx, 12 * 2_000);
        assert_eq!(rx, 12 * 15_000);
        assert_eq!(phone.modem().ramp_ups(), 12, "each check pays a tail");
    }

    #[test]
    fn each_check_wakes_the_cpu() {
        let sim = Sim::new();
        let phone = Phone::new(&sim, PhoneConfig::default());
        let _app = PeriodicNetApp::install(&phone, NetAppConfig::email());
        sim.run_for(SimDuration::from_mins(61));
        // Boot wake doesn't count (CPU starts awake); 12 alarm wakes do.
        assert_eq!(phone.cpu().wakeups(), 12);
        assert!(!phone.cpu().is_awake());
    }

    #[test]
    fn offline_check_consumes_no_radio_energy() {
        let sim = Sim::new();
        let phone = Phone::new(
            &sim,
            PhoneConfig {
                initial_bearer: None,
                ..PhoneConfig::default()
            },
        );
        let app = PeriodicNetApp::install(&phone, NetAppConfig::email());
        sim.run_for(SimDuration::from_hours(1));
        assert_eq!(app.checks(), 12);
        assert_eq!(phone.mobile_byte_counters(), (0, 0));
        assert_eq!(phone.modem().ramp_ups(), 0);
    }
}
