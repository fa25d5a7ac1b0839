//! The benchmark's contract with this crate, type-checked in tier-1.
//!
//! `benchmark/` is a package of its own that tier-1 never builds, so a
//! signature drift in `pogo-sim` would otherwise show only in `ci.sh`'s
//! perf step. This file names every `pogo_sim` item that
//! `benchmark/README.md` ("what the benchmark uses of the program")
//! lists, with the types the benchmark uses them at: a change that
//! breaks one fails to compile here first. When that list changes,
//! change this file with it.

use std::cell::Cell;
use std::rc::Rc;

use pogo_sim::{Sim, SimDuration, SimRng, SimTime};

#[test]
fn signatures_are_what_the_benchmark_calls() {
    let _: fn() -> Sim = Sim::new;
    let _: fn(&Sim) -> SimTime = Sim::now;
    let _: fn(&Sim) -> u64 = Sim::executed;
    let _: fn(&Sim) -> usize = Sim::pending;
    let _: fn(&Sim) -> bool = Sim::step;
    let _: fn(&Sim, SimTime) -> u64 = Sim::run_until;
    let _: fn(&Sim, SimDuration) -> u64 = Sim::run_for;

    let _: fn(u64) -> SimDuration = SimDuration::from_millis;
    let _: fn(u64) -> SimDuration = SimDuration::from_secs;
    let _: fn(u64) -> SimDuration = SimDuration::from_mins;
    let _: fn(u64) -> SimDuration = SimDuration::from_hours;
    let _: fn(SimDuration, u64) -> SimDuration = SimDuration::mul;
    let _: fn(SimDuration) -> u64 = SimDuration::as_millis;

    let _: fn(u64) -> SimTime = SimTime::from_millis;
    let _: fn(SimTime) -> u64 = SimTime::as_millis;
    let _: fn(SimTime) -> f64 = SimTime::as_secs_f64;

    let _: fn(u64) -> SimRng = SimRng::seed_from_u64;
    let _: fn(&mut SimRng, u64, u64) -> u64 = SimRng::range_u64;
    let _: fn(&mut SimRng, f64, f64) -> f64 = SimRng::range_f64;
    let _: fn(&mut SimRng, usize) -> usize = SimRng::index;
    let _: fn(&mut SimRng, f64) -> bool = SimRng::chance;
}

#[test]
fn scheduling_takes_the_closures_the_benchmark_passes() {
    // `schedule_at` and `schedule_in` take `impl FnOnce() + 'static`, which
    // no function-pointer type names: call them as the benchmark does, with
    // an empty closure, a capturing `move` closure and one that schedules
    // itself again, and discard the handle as it does.
    fn tick(sim: Sim, gap: SimDuration, left: u32, hits: Rc<Cell<u32>>) {
        hits.set(hits.get() + 1);
        if left > 0 {
            let next = sim.clone();
            sim.schedule_in(gap, move || tick(next, gap, left - 1, hits));
        }
    }
    let sim = Sim::new();
    sim.schedule_in(SimDuration::from_millis(3), || {});
    let flag = Rc::new(Cell::new(false));
    let seen = flag.clone();
    sim.schedule_at(SimTime::from_millis(5), move || seen.set(true));
    let hits = Rc::new(Cell::new(0));
    let (next, counted) = (sim.clone(), hits.clone());
    let gap = SimDuration::from_millis(10);
    sim.schedule_in(gap, move || tick(next, gap, 4, counted));
    assert_eq!(sim.pending(), 3);

    assert!(sim.step());
    assert_eq!(sim.now(), SimTime::from_millis(3));
    assert_eq!(sim.run_until(SimTime::from_millis(5)), 1);
    assert!(flag.get());
    assert_eq!(sim.run_for(gap.mul(10)), 5);
    assert_eq!((hits.get(), sim.executed(), sim.pending()), (5, 7, 0));
    assert!(!sim.step());
    assert_eq!(sim.now().as_millis(), 105);
}
