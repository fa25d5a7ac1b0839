//! The simulation driver: a shared clock plus the event loop.

use std::cell::RefCell;
use std::rc::Rc;

use crate::queue::{Callback, EventId, EventQueue};
use crate::time::{SimDuration, SimTime};

struct Inner {
    now: SimTime,
    queue: EventQueue,
    executed: u64,
}

/// A cheaply-cloneable handle to the simulation.
///
/// All components of the simulated phone, network, and middleware hold a
/// `Sim` clone and use it to read the clock and schedule callbacks. The
/// simulation is single-threaded; callbacks run with no outstanding borrows
/// so they may freely schedule or cancel further events.
///
/// # Example
///
/// ```
/// use pogo_sim::{Sim, SimDuration, SimTime};
///
/// let sim = Sim::new();
/// let s2 = sim.clone();
/// sim.schedule_in(SimDuration::from_secs(1), move || {
///     assert_eq!(s2.now(), SimTime::from_millis(1_000));
/// });
/// sim.run_until_idle();
/// ```
#[derive(Clone)]
pub struct Sim {
    inner: Rc<RefCell<Inner>>,
}

impl std::fmt::Debug for Sim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("Sim")
            .field("now", &inner.now)
            .field("pending", &inner.queue.len())
            .field("executed", &inner.executed)
            .finish()
    }
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

impl Sim {
    /// Creates a new simulation with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Sim {
            inner: Rc::new(RefCell::new(Inner {
                now: SimTime::ZERO,
                queue: EventQueue::new(),
                executed: 0,
            })),
        }
    }

    /// The current simulated instant.
    pub fn now(&self) -> SimTime {
        self.inner.borrow().now
    }

    /// Total number of events executed so far.
    pub fn executed(&self) -> u64 {
        self.inner.borrow().executed
    }

    /// Number of pending (scheduled, not yet fired) events.
    pub fn pending(&self) -> usize {
        self.inner.borrow().queue.len()
    }

    /// Schedules `callback` at the absolute instant `at`.
    ///
    /// Scheduling in the past is a bug; the event is clamped to fire at the
    /// current instant (it still runs after the currently-executing event).
    pub fn schedule_at(&self, at: SimTime, callback: impl FnOnce() + 'static) -> EventId {
        let mut inner = self.inner.borrow_mut();
        let at = at.max(inner.now);
        inner.queue.push(at, Box::new(callback))
    }

    /// Schedules one more firing of `callback`, a closure its owner keeps
    /// and schedules again and again (a periodic poll, a state-machine
    /// timer): unlike [`Sim::schedule_at`] it boxes nothing. Same clamping,
    /// same `(time, id)` order as every other event.
    pub fn schedule_shared_at(&self, at: SimTime, callback: Rc<dyn Fn()>) -> EventId {
        let mut inner = self.inner.borrow_mut();
        let at = at.max(inner.now);
        inner.queue.push_shared(at, callback)
    }

    /// Schedules `callback` to fire `delay` from now.
    pub fn schedule_in(&self, delay: SimDuration, callback: impl FnOnce() + 'static) -> EventId {
        let at = self.now() + delay;
        self.schedule_at(at, callback)
    }

    /// Cancels a pending event; returns `true` if it had not fired.
    pub fn cancel(&self, id: EventId) -> bool {
        self.inner.borrow_mut().queue.cancel(id)
    }

    /// Executes the next pending event, advancing the clock to its instant.
    /// Returns `false` if the queue is empty.
    pub fn step(&self) -> bool {
        let popped = self.inner.borrow_mut().queue.pop();
        self.fire(popped)
    }

    /// Runs every event scheduled at or before `deadline`, then advances the
    /// clock to exactly `deadline`. Returns the number of events executed.
    pub fn run_until(&self, deadline: SimTime) -> u64 {
        let start = self.inner.borrow().executed;
        loop {
            let popped = self.inner.borrow_mut().queue.pop_until(deadline);
            if !self.fire(popped) {
                break;
            }
        }
        let mut inner = self.inner.borrow_mut();
        if deadline > inner.now {
            inner.now = deadline;
        }
        inner.executed - start
    }

    /// Advances the clock to a popped event's instant and runs it, with no
    /// borrow outstanding. Returns `false` if there was none.
    fn fire(&self, popped: Option<(SimTime, Callback)>) -> bool {
        let Some((time, callback)) = popped else {
            return false;
        };
        {
            let mut inner = self.inner.borrow_mut();
            debug_assert!(time >= inner.now, "event queue yielded a past event");
            inner.now = time;
            inner.executed += 1;
        }
        callback.call();
        true
    }

    /// Runs the simulation for `span` from the current instant.
    pub fn run_for(&self, span: SimDuration) -> u64 {
        let deadline = self.now() + span;
        self.run_until(deadline)
    }

    /// Runs until no events remain. Returns the number executed.
    ///
    /// # Panics
    ///
    /// Panics after 500 million events as a runaway-loop backstop; real
    /// experiment runs in this repository stay far below that.
    pub fn run_until_idle(&self) -> u64 {
        let start = self.inner.borrow().executed;
        while self.step() {
            let executed = self.inner.borrow().executed;
            assert!(
                executed - start < 500_000_000,
                "simulation did not go idle after 500M events"
            );
        }
        self.inner.borrow().executed - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn clock_advances_to_event_times() {
        let sim = Sim::new();
        let seen = Rc::new(Cell::new(SimTime::ZERO));
        let s = seen.clone();
        let sim2 = sim.clone();
        sim.schedule_in(SimDuration::from_millis(42), move || s.set(sim2.now()));
        sim.run_until_idle();
        assert_eq!(seen.get(), SimTime::from_millis(42));
    }

    #[test]
    fn run_until_advances_clock_even_without_events() {
        let sim = Sim::new();
        sim.run_until(SimTime::from_millis(777));
        assert_eq!(sim.now(), SimTime::from_millis(777));
    }

    #[test]
    fn run_until_does_not_run_later_events() {
        let sim = Sim::new();
        let hits = Rc::new(Cell::new(0));
        for ms in [10u64, 20, 30] {
            let h = hits.clone();
            sim.schedule_at(SimTime::from_millis(ms), move || h.set(h.get() + 1));
        }
        sim.run_until(SimTime::from_millis(20));
        assert_eq!(hits.get(), 2);
        assert_eq!(sim.pending(), 1);
        sim.run_until_idle();
        assert_eq!(hits.get(), 3);
    }

    #[test]
    fn callbacks_can_reschedule() {
        // A self-rescheduling "periodic" callback: the core pattern used by
        // sensors and background apps.
        let sim = Sim::new();
        let count = Rc::new(Cell::new(0u32));

        fn tick(sim: Sim, count: Rc<Cell<u32>>) {
            count.set(count.get() + 1);
            if count.get() < 5 {
                let s = sim.clone();
                sim.schedule_in(SimDuration::from_secs(1), move || tick(s.clone(), count));
            }
        }

        let s = sim.clone();
        let c = count.clone();
        sim.schedule_at(SimTime::ZERO, move || tick(s, c));
        sim.run_until_idle();
        assert_eq!(count.get(), 5);
        assert_eq!(sim.now(), SimTime::from_millis(4_000));
    }

    #[test]
    fn cancelled_events_do_not_fire() {
        let sim = Sim::new();
        let hits = Rc::new(Cell::new(0));
        let h = hits.clone();
        let id = sim.schedule_in(SimDuration::from_secs(1), move || h.set(h.get() + 1));
        assert!(sim.cancel(id));
        sim.run_until_idle();
        assert_eq!(hits.get(), 0);
    }

    #[test]
    fn pending_counts_live_events_only() {
        let sim = Sim::new();
        let ids: Vec<EventId> = (1..=4)
            .map(|s| sim.schedule_in(SimDuration::from_secs(s), || {}))
            .collect();
        assert_eq!(sim.pending(), 4);
        assert!(sim.cancel(ids[2]));
        assert_eq!(sim.pending(), 3);
        sim.run_until(SimTime::from_millis(1_500));
        assert_eq!(sim.pending(), 2);
        assert!(!sim.cancel(ids[0]), "fired");
        assert!(!sim.cancel(ids[2]), "cancelled");
        assert_eq!(sim.pending(), 2);
        sim.run_until_idle();
        assert_eq!(sim.pending(), 0);
    }

    #[test]
    fn shared_callbacks_re_arm_themselves() {
        // The re-armable form of `callbacks_can_reschedule`: one closure,
        // scheduled again from inside itself.
        struct Poll {
            sim: Sim,
            count: Cell<u32>,
            again: RefCell<Option<Rc<dyn Fn()>>>,
        }
        let sim = Sim::new();
        let poll = Rc::new(Poll {
            sim: sim.clone(),
            count: Cell::new(0),
            again: RefCell::new(None),
        });
        let weak = Rc::downgrade(&poll);
        let tick: Rc<dyn Fn()> = Rc::new(move || {
            let Some(poll) = weak.upgrade() else { return };
            poll.count.set(poll.count.get() + 1);
            if poll.count.get() < 5 {
                let again = poll.again.borrow().clone().expect("set before the run");
                let at = poll.sim.now() + SimDuration::from_secs(1);
                poll.sim.schedule_shared_at(at, again);
            }
        });
        *poll.again.borrow_mut() = Some(tick.clone());
        sim.schedule_shared_at(SimTime::ZERO, tick);
        sim.run_until_idle();
        assert_eq!(poll.count.get(), 5);
        assert_eq!(sim.now(), SimTime::from_millis(4_000));
        assert_eq!(sim.executed(), 5);
    }

    #[test]
    fn past_scheduling_clamps_to_now() {
        let sim = Sim::new();
        sim.run_until(SimTime::from_millis(100));
        let hits = Rc::new(Cell::new(0));
        let h = hits.clone();
        sim.schedule_at(SimTime::from_millis(5), move || h.set(h.get() + 1));
        sim.run_until_idle();
        assert_eq!(hits.get(), 1);
        assert_eq!(sim.now(), SimTime::from_millis(100));
    }

    #[test]
    fn executed_counts_events() {
        let sim = Sim::new();
        for _ in 0..3 {
            sim.schedule_in(SimDuration::from_millis(1), || {});
        }
        let n = sim.run_until_idle();
        assert_eq!(n, 3);
        assert_eq!(sim.executed(), 3);
    }
}
