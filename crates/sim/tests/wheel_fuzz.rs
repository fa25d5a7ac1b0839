//! Randomized differential test for the calendar-wheel event queue:
//! replays seeded workloads against a sorted reference model and demands
//! the exact (time, schedule-sequence) total order.
//!
//! The mix is what the slab and the bitmaps have to survive: boxed
//! one-shot events; shared closures that re-arm themselves from inside
//! their own firing, into the slab slot that firing just freed; cancels
//! through live and through stale handles (fired, cancelled, slot since
//! reused); `pop_until` calls that find nothing due and leave the wheel
//! cursor ahead of the clock, so that later schedules land behind it.
//! After every operation the live count must equal the model's and every
//! level's occupancy bitmap must have exactly the bits of its non-empty
//! slots.

use pogo_sim::queue::{Callback, EventQueue};
use pogo_sim::{EventId, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// Shared closures in play: each has at most one firing pending, like a
/// platform timer.
const TIMERS: usize = 4;

struct World {
    q: EventQueue,
    seed: u64,
    state: u64,
    tmax: u64,
    now: u64,
    seq: u64,
    /// Pending `(time, seq)` pairs: what the queue must still deliver.
    model: Vec<(u64, u64)>,
    /// Every schedule not cancelled since: sorted, it is the order the
    /// whole run must have fired in.
    scheduled: Vec<(u64, u64)>,
    /// Sequence numbers in the order their events fired.
    fired: Vec<u64>,
    /// Every handle ever returned, some kept after they went stale.
    ids: Vec<(EventId, u64, u64)>,
    timers: Vec<Rc<dyn Fn()>>,
    /// The `(time, seq)` each timer's pending firing was scheduled as.
    armed: [Option<(u64, u64)>; TIMERS],
}

impl World {
    fn rand(&mut self) -> u64 {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        self.state
    }

    /// Draws a deadline and a sequence number and records them as pending.
    fn next_schedule(&mut self) -> (u64, u64) {
        let t = self.now + self.rand() % self.tmax;
        let s = self.seq;
        self.seq += 1;
        self.model.push((t, s));
        self.scheduled.push((t, s));
        (t, s)
    }

    fn arm(&mut self, k: usize) {
        let (t, s) = self.next_schedule();
        let callback = self.timers[k].clone();
        let id = self.q.push_shared(SimTime::from_millis(t), callback);
        self.armed[k] = Some((t, s));
        self.ids.push((id, t, s));
    }

    fn check(&self, what: &str) {
        let seed = self.seed;
        assert!(
            self.q.bitmaps_match_slots(),
            "seed {seed}: bitmaps and slots disagree after {what}"
        );
        assert_eq!(self.q.len(), self.model.len(), "seed {seed}: after {what}");
        assert_eq!(self.q.is_empty(), self.model.is_empty());
    }
}

/// Fires a popped event and checks it was the model's earliest.
fn fire(world: &Rc<RefCell<World>>, t: SimTime, callback: Callback) {
    {
        let mut w = world.borrow_mut();
        assert!(
            t.as_millis() >= w.now,
            "seed {}: time went backwards",
            w.seed
        );
        w.now = t.as_millis();
    }
    // No borrow outstanding: a shared callback re-arms itself in there.
    callback.call();
    let mut w = world.borrow_mut();
    let s = *w.fired.last().expect("the callback recorded itself");
    let earliest = *w.model.iter().min().expect("the model had it pending");
    assert_eq!((t.as_millis(), s), earliest, "seed {}", w.seed);
    w.model.retain(|&pending| pending != earliest);
}

fn run_seed(seed: u64, ops: usize, tmax: u64) {
    let world = Rc::new(RefCell::new(World {
        q: EventQueue::new(),
        seed,
        state: seed | 1,
        tmax,
        now: 0,
        seq: 0,
        model: Vec::new(),
        scheduled: Vec::new(),
        fired: Vec::new(),
        ids: Vec::new(),
        timers: Vec::new(),
        armed: [None; TIMERS],
    }));
    for k in 0..TIMERS {
        let weak = Rc::downgrade(&world);
        let timer: Rc<dyn Fn()> = Rc::new(move || {
            let world = weak.upgrade().expect("the run holds the world");
            let mut w = world.borrow_mut();
            let (_, s) = w.armed[k].take().expect("only an armed timer fires");
            w.fired.push(s);
            // Half the time, re-arm from inside the firing: the slab hands
            // back the slot this very event just left.
            if w.rand().is_multiple_of(2) {
                w.arm(k);
            }
        });
        world.borrow_mut().timers.push(timer);
    }

    for _ in 0..ops {
        let op = world.borrow_mut().rand() % 8;
        match op {
            0..=2 => {
                let mut w = world.borrow_mut();
                let (t, s) = w.next_schedule();
                let weak = Rc::downgrade(&world);
                let id = w.q.push(
                    SimTime::from_millis(t),
                    Box::new(move || {
                        let world = weak.upgrade().expect("the run holds the world");
                        world.borrow_mut().fired.push(s);
                    }),
                );
                w.ids.push((id, t, s));
                w.check("push");
            }
            3 => {
                let mut w = world.borrow_mut();
                let k = (w.rand() % TIMERS as u64) as usize;
                if w.armed[k].is_none() {
                    w.arm(k);
                }
                w.check("push_shared");
            }
            4 => {
                let popped = world.borrow_mut().q.pop();
                match popped {
                    Some((t, callback)) => fire(&world, t, callback),
                    None => assert!(world.borrow().model.is_empty()),
                }
                world.borrow().check("pop");
            }
            5 => {
                // A bounded pop: when nothing is due by the deadline the
                // wheel stays advanced to the event it found, and the next
                // schedules fall behind its cursor.
                let (deadline, popped) = {
                    let mut w = world.borrow_mut();
                    let deadline = w.now + w.rand() % w.tmax;
                    (deadline, w.q.pop_until(SimTime::from_millis(deadline)))
                };
                match popped {
                    Some((t, callback)) => {
                        assert!(t.as_millis() <= deadline);
                        fire(&world, t, callback);
                    }
                    None => {
                        let w = world.borrow();
                        assert!(
                            w.model.iter().all(|&(t, _)| t > deadline),
                            "seed {seed}: an event due by {deadline} was withheld"
                        );
                    }
                }
                world.borrow().check("pop_until");
            }
            _ => {
                let mut w = world.borrow_mut();
                if !w.ids.is_empty() {
                    let pick = (w.rand() % w.ids.len() as u64) as usize;
                    // One handle in four stays in the pool after use, to be
                    // tried again once it is stale and its slot re-let.
                    let (id, t, s) = if w.rand().is_multiple_of(4) {
                        w.ids[pick]
                    } else {
                        w.ids.swap_remove(pick)
                    };
                    let pending = w.model.contains(&(t, s));
                    assert_eq!(w.q.cancel(id), pending, "seed {seed}: cancel of ({t}, {s})");
                    if pending {
                        w.model.retain(|&m| m != (t, s));
                        w.scheduled.retain(|&m| m != (t, s));
                    }
                    if let Some(k) = w.armed.iter().position(|&a| a == Some((t, s))) {
                        w.armed[k] = None;
                    }
                }
                w.check("cancel");
            }
        }
    }
    loop {
        let popped = world.borrow_mut().q.pop();
        let Some((t, callback)) = popped else { break };
        fire(&world, t, callback);
        world.borrow().check("drain");
    }

    // The sorted-reference oracle, over the whole run: what fired is every
    // schedule that was not cancelled, in (time, sequence) order.
    let mut w = world.borrow_mut();
    assert!(w.model.is_empty(), "seed {seed}: the drain left events");
    assert!(w.q.is_empty());
    let mut expected = std::mem::take(&mut w.scheduled);
    expected.sort_unstable();
    let expected: Vec<u64> = expected.into_iter().map(|(_, s)| s).collect();
    assert_eq!(w.fired, expected, "seed {seed} ops {ops} tmax {tmax}");
}

#[test]
fn dense_near_deadlines() {
    for seed in 1..200 {
        run_seed(seed, 400, 100);
    }
}

#[test]
fn mid_range_deadlines_cross_levels() {
    for seed in 1..200 {
        run_seed(seed, 400, 5_000);
    }
}

#[test]
fn sparse_far_deadlines() {
    for seed in 1..100 {
        run_seed(seed, 400, 300_000_000);
    }
}
