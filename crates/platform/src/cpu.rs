//! The application CPU: deep sleep, wake locks, alarms, and the
//! sleep-frozen timers that make Pogo's tail detection possible.
//!
//! Android semantics reproduced here (paper §4.5 and §4.7):
//!
//! * With no wake locks held and no recent activity, the CPU enters deep
//!   sleep after a short *linger* ("the processor will stay awake for
//!   typically more than a second before going back to sleep").
//! * An *alarm* wakes the CPU at an absolute instant even from deep sleep.
//! * `Thread.sleep`-style timers **freeze** while the CPU sleeps and only
//!   resume counting down once something else wakes it — the side effect
//!   Pogo uses to detect foreign network activity without setting alarms
//!   of its own.

use std::cell::RefCell;
use std::rc::{Rc, Weak};

use pogo_sim::{EventId, Sim, SimDuration, SimTime};

use crate::energy::{EnergyMeter, RailId};

/// Tunable CPU parameters.
#[derive(Debug, Clone, Copy)]
pub struct CpuConfig {
    /// Draw while awake with the screen off, in watts.
    pub awake_power: f64,
    /// Draw in deep sleep, in watts.
    pub asleep_power: f64,
    /// How long the CPU stays awake after the last activity before it may
    /// deep-sleep.
    pub linger: SimDuration,
}

impl Default for CpuConfig {
    fn default() -> Self {
        // Calibrated for a Galaxy-Nexus-class device with the screen off.
        CpuConfig {
            awake_power: 0.140,
            asleep_power: 0.008,
            linger: SimDuration::from_millis(1_200),
        }
    }
}

/// Handle to a pending alarm, for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AlarmId(EventId);

/// One `Thread.sleep`-style countdown, armed again and again by its owner.
struct FrozenState {
    remaining: SimDuration,
    /// `Some(instant)` while actively counting down (CPU awake).
    resumed_at: Option<SimTime>,
    event: Option<EventId>,
    /// True from [`FrozenTimer::arm`] until the countdown completes or is
    /// cancelled; only armed timers freeze and resume with the CPU.
    armed: bool,
    /// The sim event behind every countdown of this timer: disarms it,
    /// then runs the owner's callback. Built once, scheduled shared.
    elapse: Rc<dyn Fn()>,
}

// Manual Debug because of the closure.
impl std::fmt::Debug for FrozenState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrozenState")
            .field("remaining", &self.remaining)
            .field("resumed_at", &self.resumed_at)
            .field("armed", &self.armed)
            .finish()
    }
}

type StateListener = Rc<dyn Fn(bool)>;

struct Inner {
    sim: Sim,
    meter: EnergyMeter,
    rail: RailId,
    cfg: CpuConfig,
    awake: bool,
    locks: usize,
    last_activity: SimTime,
    sleep_event: Option<EventId>,
    /// The linger check, scheduled shared: one closure for the CPU's life.
    sleep_check: Rc<dyn Fn()>,
    /// Armed frozen timers, in the order they were armed.
    frozen: Vec<Rc<RefCell<FrozenState>>>,
    listeners: Vec<StateListener>,
    wakeups: u64,
    awake_since: Option<SimTime>,
    awake_total: SimDuration,
}

impl Inner {
    fn schedule_sleep_check(&mut self, at: SimTime) {
        let check = self.sleep_check.clone();
        self.sleep_event = Some(self.sim.schedule_shared_at(at, check));
    }
}

/// The simulated application processor.
///
/// Cheap to clone; all clones share state.
#[derive(Clone)]
pub struct Cpu {
    inner: Rc<RefCell<Inner>>,
}

impl std::fmt::Debug for Cpu {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("Cpu")
            .field("awake", &inner.awake)
            .field("locks", &inner.locks)
            .field("wakeups", &inner.wakeups)
            .finish()
    }
}

/// An RAII wake lock. The CPU cannot deep-sleep while any lock is held.
/// Dropping the guard releases the lock.
#[derive(Debug)]
pub struct WakeLock {
    cpu: Option<Cpu>,
}

impl WakeLock {
    /// Releases the lock explicitly (equivalent to dropping it).
    pub fn release(mut self) {
        self.release_inner();
    }

    fn release_inner(&mut self) {
        if let Some(cpu) = self.cpu.take() {
            cpu.release_lock();
        }
    }
}

impl Drop for WakeLock {
    fn drop(&mut self) {
        self.release_inner();
    }
}

/// An alarm created with [`Cpu::repeating_alarm`]: one callback, kept,
/// set again and again without boxing it each time.
#[derive(Clone)]
pub struct RepeatingAlarm {
    sim: Sim,
    /// Wakes the CPU, then runs the owner's callback.
    ring: Rc<dyn Fn()>,
}

impl RepeatingAlarm {
    /// Sets the alarm to go off `delay` from now, waking the CPU from deep
    /// sleep first (see [`Cpu::set_alarm`]). Each call is one more alarm;
    /// cancel one with [`Cpu::cancel_alarm`].
    pub fn set_in(&self, delay: SimDuration) -> AlarmId {
        let at = self.sim.now() + delay;
        AlarmId(self.sim.schedule_shared_at(at, self.ring.clone()))
    }
}

/// A re-armable timer created with [`Cpu::frozen_timer`].
#[derive(Debug, Clone)]
pub struct FrozenTimer {
    state: Rc<RefCell<FrozenState>>,
    cpu: Cpu,
}

impl FrozenTimer {
    /// Starts a countdown of `duration` of *awake* time, after which the
    /// timer's callback runs once; arm it again for the next one. The
    /// countdown freezes whenever the CPU deep-sleeps and resumes when
    /// something else wakes it, so the callback runs only while the CPU is
    /// awake, possibly much later than `now + duration` in wall time.
    /// Arming a timer that is still counting restarts it.
    pub fn arm(&self, duration: SimDuration) {
        self.cancel();
        let mut inner = self.cpu.inner.borrow_mut();
        // Spent timers leave the list here, this one's last countdown
        // among them: armed, it goes to the back like a new one.
        inner.frozen.retain(|t| t.borrow().armed);
        {
            let mut t = self.state.borrow_mut();
            t.remaining = duration;
            t.armed = true;
        }
        inner.frozen.push(self.state.clone());
        if inner.awake {
            Cpu::resume_frozen(&inner.sim, &self.state);
        }
    }

    /// Stops the countdown if it has not completed.
    pub fn cancel(&self) {
        let mut t = self.state.borrow_mut();
        if let Some(ev) = t.event.take() {
            self.cpu.inner.borrow().sim.cancel(ev);
        }
        t.resumed_at = None;
        t.armed = false;
    }
}

impl Cpu {
    /// Creates a CPU, initially awake (boot), registered on `meter`.
    pub fn new(sim: &Sim, meter: &EnergyMeter, cfg: CpuConfig) -> Self {
        let rail = meter.register("cpu");
        meter.set_power(rail, cfg.awake_power);
        let cpu = Cpu {
            inner: Rc::new_cyclic(|weak: &Weak<RefCell<Inner>>| {
                let weak = weak.clone();
                RefCell::new(Inner {
                    sim: sim.clone(),
                    meter: meter.clone(),
                    rail,
                    cfg,
                    awake: true,
                    locks: 0,
                    last_activity: sim.now(),
                    sleep_event: None,
                    sleep_check: Rc::new(move || {
                        if let Some(inner) = weak.upgrade() {
                            Cpu { inner }.on_sleep_check();
                        }
                    }),
                    frozen: Vec::new(),
                    listeners: Vec::new(),
                    wakeups: 0,
                    awake_since: Some(sim.now()),
                    awake_total: SimDuration::ZERO,
                })
            }),
        };
        cpu.maybe_schedule_sleep();
        cpu
    }

    /// True while the CPU is out of deep sleep.
    pub fn is_awake(&self) -> bool {
        self.inner.borrow().awake
    }

    /// Number of deep-sleep → awake transitions so far.
    pub fn wakeups(&self) -> u64 {
        self.inner.borrow().wakeups
    }

    /// Cumulative time spent awake.
    pub fn awake_time(&self) -> SimDuration {
        let inner = self.inner.borrow();
        let mut total = inner.awake_total;
        if let Some(since) = inner.awake_since {
            total += inner.sim.now().duration_since(since);
        }
        total
    }

    /// Registers a callback invoked with `true` on wake and `false` on
    /// sleep transitions.
    pub fn on_state_change(&self, f: impl Fn(bool) + 'static) {
        self.inner.borrow_mut().listeners.push(Rc::new(f));
    }

    /// Acquires a wake lock, waking the CPU if needed.
    pub fn acquire_wake_lock(&self) -> WakeLock {
        self.poke();
        self.inner.borrow_mut().locks += 1;
        WakeLock {
            cpu: Some(self.clone()),
        }
    }

    /// Marks CPU activity: wakes the CPU if asleep and restarts the linger
    /// countdown.
    pub(crate) fn poke(&self) {
        let wake_actions = {
            let mut inner = self.inner.borrow_mut();
            inner.last_activity = inner.sim.now();
            if inner.awake {
                None
            } else {
                Some(Self::transition(&mut inner, true))
            }
        };
        if let Some(actions) = wake_actions {
            self.run_listeners(actions);
        }
        self.maybe_schedule_sleep();
    }

    /// Schedules `callback` at the absolute instant `at`. The alarm wakes
    /// the CPU from deep sleep before the callback runs.
    pub fn set_alarm(&self, at: SimTime, callback: impl FnOnce() + 'static) -> AlarmId {
        let cpu = self.clone();
        let sim = self.inner.borrow().sim.clone();
        AlarmId(sim.schedule_at(at, move || {
            cpu.poke();
            callback();
        }))
    }

    /// Schedules `callback` to fire `delay` from now (see [`Cpu::set_alarm`]).
    pub fn set_alarm_in(&self, delay: SimDuration, callback: impl FnOnce() + 'static) -> AlarmId {
        let at = self.inner.borrow().sim.now() + delay;
        self.set_alarm(at, callback)
    }

    /// Wraps `callback` as an alarm to set many times over: what a
    /// periodic task uses instead of a fresh [`Cpu::set_alarm`] closure
    /// per period.
    pub fn repeating_alarm(&self, callback: impl Fn() + 'static) -> RepeatingAlarm {
        let cpu = self.clone();
        RepeatingAlarm {
            sim: self.inner.borrow().sim.clone(),
            ring: Rc::new(move || {
                cpu.poke();
                callback();
            }),
        }
    }

    /// Cancels a pending alarm; returns `true` if it had not fired.
    pub fn cancel_alarm(&self, id: AlarmId) -> bool {
        self.inner.borrow().sim.cancel(id.0)
    }

    /// Creates a `Thread.sleep`-style timer, idle until
    /// [`FrozenTimer::arm`] starts a countdown; `callback` runs each time
    /// one completes. Countdowns only run down while the CPU is awake: the
    /// primitive behind Pogo's tail detection (§4.7). One timer serves a
    /// whole polling loop, re-armed from its own callback.
    pub fn frozen_timer(&self, callback: impl Fn() + 'static) -> FrozenTimer {
        let state = Rc::new_cyclic(|weak: &Weak<RefCell<FrozenState>>| {
            let weak = weak.clone();
            RefCell::new(FrozenState {
                remaining: SimDuration::ZERO,
                resumed_at: None,
                event: None,
                armed: false,
                elapse: Rc::new(move || {
                    // An armed timer is on its CPU's list, so it is alive.
                    let Some(state) = weak.upgrade() else { return };
                    {
                        let mut t = state.borrow_mut();
                        t.event = None;
                        t.resumed_at = None;
                        t.remaining = SimDuration::ZERO;
                        t.armed = false;
                    }
                    callback();
                }),
            })
        });
        FrozenTimer {
            state,
            cpu: self.clone(),
        }
    }

    // ---- internals -------------------------------------------------------

    fn release_lock(&self) {
        {
            let mut inner = self.inner.borrow_mut();
            assert!(inner.locks > 0, "wake lock released twice");
            inner.locks -= 1;
            inner.last_activity = inner.sim.now();
        }
        self.maybe_schedule_sleep();
    }

    /// Schedules the sim event that ends an armed timer's countdown. CPU
    /// must be awake.
    fn resume_frozen(sim: &Sim, timer: &Rc<RefCell<FrozenState>>) {
        let mut t = timer.borrow_mut();
        if !t.armed || t.event.is_some() {
            return;
        }
        t.resumed_at = Some(sim.now());
        let fire_at = sim.now() + t.remaining;
        t.event = Some(sim.schedule_shared_at(fire_at, t.elapse.clone()));
    }

    /// Flips the awake flag, updates power and statistics, freezes or
    /// resumes timers. Returns listeners to notify (run without borrows).
    fn transition(inner: &mut Inner, awake: bool) -> (Vec<StateListener>, bool) {
        debug_assert_ne!(inner.awake, awake);
        inner.awake = awake;
        let now = inner.sim.now();
        if awake {
            inner.wakeups += 1;
            inner.awake_since = Some(now);
            inner.meter.set_power(inner.rail, inner.cfg.awake_power);
            inner.frozen.retain(|t| t.borrow().armed);
            for t in &inner.frozen {
                Self::resume_frozen(&inner.sim, t);
            }
        } else {
            if let Some(since) = inner.awake_since.take() {
                inner.awake_total += now.duration_since(since);
            }
            inner.meter.set_power(inner.rail, inner.cfg.asleep_power);
            inner.frozen.retain(|t| t.borrow().armed);
            for t in &inner.frozen {
                let mut t = t.borrow_mut();
                if let Some(ev) = t.event.take() {
                    inner.sim.cancel(ev);
                }
                if let Some(resumed) = t.resumed_at.take() {
                    let elapsed = now.duration_since(resumed);
                    t.remaining = t.remaining.saturating_sub(elapsed);
                }
            }
        }
        (inner.listeners.clone(), awake)
    }

    fn run_listeners(&self, (listeners, awake): (Vec<StateListener>, bool)) {
        for l in listeners {
            l(awake);
        }
    }

    /// Ensures a sleep check is pending whenever the CPU could sleep.
    fn maybe_schedule_sleep(&self) {
        let mut inner = self.inner.borrow_mut();
        if !inner.awake || inner.locks > 0 || inner.sleep_event.is_some() {
            return;
        }
        let at = inner.last_activity + inner.cfg.linger;
        inner.schedule_sleep_check(at);
    }

    fn on_sleep_check(&self) {
        let actions = {
            let mut inner = self.inner.borrow_mut();
            inner.sleep_event = None;
            if !inner.awake || inner.locks > 0 {
                return;
            }
            let now = inner.sim.now();
            let earliest = inner.last_activity + inner.cfg.linger;
            if now < earliest {
                // Activity happened since this check was scheduled; try
                // again at the new earliest sleep instant.
                inner.schedule_sleep_check(earliest);
                return;
            }
            Self::transition(&mut inner, false)
        };
        self.run_listeners(actions);
    }
}

/// Test hooks: nothing outside this crate's unit tests calls these.
#[cfg(test)]
impl Cpu {
    /// Number of wake locks currently held.
    pub(crate) fn lock_count(&self) -> usize {
        self.inner.borrow().locks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    fn setup() -> (Sim, EnergyMeter, Cpu) {
        let sim = Sim::new();
        let meter = EnergyMeter::new(&sim);
        let cpu = Cpu::new(&sim, &meter, CpuConfig::default());
        (sim, meter, cpu)
    }

    #[test]
    fn sleeps_after_linger_without_locks() {
        let (sim, _meter, cpu) = setup();
        assert!(cpu.is_awake());
        sim.run_for(SimDuration::from_secs(5));
        assert!(!cpu.is_awake());
    }

    #[test]
    fn wake_lock_prevents_sleep() {
        let (sim, _meter, cpu) = setup();
        let lock = cpu.acquire_wake_lock();
        sim.run_for(SimDuration::from_secs(30));
        assert!(cpu.is_awake());
        lock.release();
        sim.run_for(SimDuration::from_secs(5));
        assert!(!cpu.is_awake());
    }

    #[test]
    fn dropping_wake_lock_releases_it() {
        let (sim, _meter, cpu) = setup();
        {
            let _lock = cpu.acquire_wake_lock();
            assert_eq!(cpu.lock_count(), 1);
        }
        assert_eq!(cpu.lock_count(), 0);
        sim.run_for(SimDuration::from_secs(5));
        assert!(!cpu.is_awake());
    }

    #[test]
    fn alarm_wakes_cpu_and_runs_callback() {
        let (sim, _meter, cpu) = setup();
        sim.run_for(SimDuration::from_secs(10));
        assert!(!cpu.is_awake());
        let fired = Rc::new(Cell::new(false));
        let f = fired.clone();
        let c2 = cpu.clone();
        cpu.set_alarm_in(SimDuration::from_secs(60), move || {
            assert!(c2.is_awake(), "alarm callback must see an awake CPU");
            f.set(true);
        });
        sim.run_for(SimDuration::from_secs(61));
        assert!(fired.get());
        assert!(cpu.is_awake(), "linger keeps CPU awake just after alarm");
        sim.run_for(SimDuration::from_secs(5));
        assert!(!cpu.is_awake());
    }

    #[test]
    fn repeating_alarm_wakes_cpu_each_time_it_is_set() {
        let (sim, _meter, cpu) = setup();
        let rings = Rc::new(Cell::new(0u32));
        let (r, c2) = (rings.clone(), cpu.clone());
        let alarm = cpu.repeating_alarm(move || {
            assert!(c2.is_awake(), "alarm callback must see an awake CPU");
            r.set(r.get() + 1);
        });
        alarm.set_in(SimDuration::from_secs(10));
        let late = alarm.set_in(SimDuration::from_secs(20));
        alarm.set_in(SimDuration::from_secs(30));
        assert!(cpu.cancel_alarm(late));
        sim.run_for(SimDuration::from_secs(60));
        assert_eq!(rings.get(), 2);
        assert_eq!(cpu.wakeups(), 2);
        assert!(!cpu.is_awake());
    }

    #[test]
    fn cancelled_alarm_does_not_fire_or_wake() {
        let (sim, _meter, cpu) = setup();
        let fired = Rc::new(Cell::new(false));
        let f = fired.clone();
        let id = cpu.set_alarm_in(SimDuration::from_secs(10), move || f.set(true));
        assert!(cpu.cancel_alarm(id));
        sim.run_for(SimDuration::from_secs(20));
        assert!(!fired.get());
        assert_eq!(cpu.wakeups(), 0);
    }

    #[test]
    fn frozen_sleep_fires_on_time_while_awake() {
        let (sim, _meter, cpu) = setup();
        let _lock = cpu.acquire_wake_lock();
        let fired_at = Rc::new(Cell::new(None));
        let f = fired_at.clone();
        let s = sim.clone();
        cpu.frozen_timer(move || f.set(Some(s.now())))
            .arm(SimDuration::from_secs(1));
        sim.run_for(SimDuration::from_secs(2));
        assert_eq!(fired_at.get(), Some(SimTime::from_millis(1_000)));
    }

    #[test]
    fn frozen_sleep_pauses_during_deep_sleep() {
        // This is the §4.7 mechanism: a 1 s Thread.sleep armed just before
        // the CPU sleeps only completes after something wakes the CPU.
        let (sim, _meter, cpu) = setup();
        let fired_at: Rc<Cell<Option<SimTime>>> = Rc::new(Cell::new(None));
        let f = fired_at.clone();
        let s = sim.clone();
        cpu.frozen_timer(move || f.set(Some(s.now())))
            .arm(SimDuration::from_secs(1));
        // CPU sleeps at t = linger = 1.2 s, with 1.0 s... wait, timer would
        // fire at t = 1.0 s < 1.2 s. Use a longer timer instead.
        let fired2: Rc<Cell<Option<SimTime>>> = Rc::new(Cell::new(None));
        let f2 = fired2.clone();
        let s2 = sim.clone();
        cpu.frozen_timer(move || f2.set(Some(s2.now())))
            .arm(SimDuration::from_secs(10));

        // Nothing wakes the CPU for a long time: the 10 s timer must not
        // have fired 100 s in.
        sim.run_for(SimDuration::from_secs(100));
        assert!(!cpu.is_awake());
        assert_eq!(fired2.get(), None, "timer froze during deep sleep");

        // An alarm (some other app) wakes the CPU at t = 100 s. The timer
        // had counted 1.2 s before the CPU slept, so 8.8 s remain.
        cpu.set_alarm_in(SimDuration::ZERO, || {});
        let lock = cpu.acquire_wake_lock(); // keep awake so it can finish
        sim.run_for(SimDuration::from_secs(20));
        let fired = fired2.get().expect("timer fired after wake");
        assert_eq!(fired, SimTime::from_millis(100_000 + 8_800));
        lock.release();
    }

    #[test]
    fn frozen_sleep_cancel() {
        let (sim, _meter, cpu) = setup();
        let _lock = cpu.acquire_wake_lock();
        let fired = Rc::new(Cell::new(false));
        let f = fired.clone();
        let h = cpu.frozen_timer(move || f.set(true));
        h.arm(SimDuration::from_secs(1));
        h.cancel();
        assert!(!h.state.borrow().armed);
        sim.run_for(SimDuration::from_secs(5));
        assert!(!fired.get());
    }

    #[test]
    fn frozen_timer_re_arms_from_its_own_callback() {
        // The tail detector's loop: one timer, armed again each time it
        // elapses, frozen across the sleeps in between.
        let (sim, _meter, cpu) = setup();
        let fired_at: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
        let timer: Rc<RefCell<Option<FrozenTimer>>> = Rc::new(RefCell::new(None));
        let (f, t, s) = (fired_at.clone(), Rc::downgrade(&timer), sim.clone());
        *timer.borrow_mut() = Some(cpu.frozen_timer(move || {
            f.borrow_mut().push(s.now().as_millis());
            let timer = t.upgrade().expect("the test holds the timer");
            let timer = timer.borrow().clone().expect("set before it is armed");
            timer.arm(SimDuration::from_secs(1));
        }));
        let armed = timer.borrow().clone().expect("just set");
        armed.arm(SimDuration::from_secs(1));
        // Awake for the 1.2 s boot linger: one countdown completes, the
        // next has run 0.2 s when the CPU sleeps.
        sim.run_for(SimDuration::from_secs(60));
        assert_eq!(*fired_at.borrow(), vec![1_000]);
        // Woken at 60 s for another 1.2 s: the 0.8 s left elapse, then
        // 0.4 s of the third countdown.
        cpu.set_alarm_in(SimDuration::ZERO, || {});
        sim.run_for(SimDuration::from_secs(60));
        assert_eq!(*fired_at.borrow(), vec![1_000, 60_800]);
        assert_eq!(cpu.inner.borrow().frozen.len(), 1, "one timer, re-armed");
        assert_eq!(cpu.wakeups(), 1, "the timer itself never woke the CPU");
    }

    #[test]
    fn energy_reflects_sleep_states() {
        let (sim, meter, cpu) = setup();
        // Awake for linger (1.2 s) at 0.14 W, then asleep at 0.011 W.
        sim.run_for(SimDuration::from_secs(601));
        assert!(!cpu.is_awake());
        let expected = 1.2 * 0.140 + (601.0 - 1.2) * 0.008;
        let got = meter.total_joules();
        assert!(
            (got - expected).abs() < 1e-6,
            "got {got}, expected {expected}"
        );
    }

    #[test]
    fn wakeup_and_awake_time_stats() {
        let (sim, _meter, cpu) = setup();
        sim.run_for(SimDuration::from_secs(10)); // sleeps at 1.2s
        cpu.set_alarm_in(SimDuration::from_secs(10), || {});
        sim.run_for(SimDuration::from_secs(30)); // wakes at 20s, sleeps at 21.2s
        assert_eq!(cpu.wakeups(), 1);
        let awake = cpu.awake_time().as_secs_f64();
        assert!((awake - 2.4).abs() < 0.01, "awake {awake}");
    }

    #[test]
    fn state_change_listener_sees_both_transitions() {
        let (sim, _meter, cpu) = setup();
        let log: Rc<RefCell<Vec<bool>>> = Rc::new(RefCell::new(Vec::new()));
        let l = log.clone();
        cpu.on_state_change(move |awake| l.borrow_mut().push(awake));
        sim.run_for(SimDuration::from_secs(5)); // sleep
        cpu.set_alarm_in(SimDuration::from_secs(5), || {}); // wake at 10s
        sim.run_for(SimDuration::from_secs(20)); // sleep again
        assert_eq!(*log.borrow(), vec![false, true, false]);
    }

    #[test]
    fn repeated_pokes_extend_awake_window() {
        let (sim, _meter, cpu) = setup();
        for i in 0..5 {
            let c = cpu.clone();
            sim.schedule_at(SimTime::from_millis(i * 1_000), move || c.poke());
        }
        sim.run_until(SimTime::from_millis(4_500));
        assert!(cpu.is_awake(), "pokes every 1s < 1.2s linger keep it awake");
        sim.run_for(SimDuration::from_secs(5));
        assert!(!cpu.is_awake());
        assert_eq!(cpu.wakeups(), 0, "never slept in between");
    }
}
