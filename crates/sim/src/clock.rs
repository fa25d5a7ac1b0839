//! Per-device wall clocks that can drift and step away from simulated
//! truth.
//!
//! The event queue always runs on the global [`Sim`] clock —
//! timers have *elapsed-time* semantics, exactly like Android's
//! `SystemClock.elapsedRealtime()` alarms — but the timestamps a phone
//! *reports* come from its own real-time clock, which in the field
//! drifts (cheap crystals, tens of ppm and worse) and steps (NITZ/NTP
//! corrections, manual changes). A [`DeviceClock`] models that gap: it
//! is an affine function of true simulated time, `local = base_local +
//! elapsed + elapsed * drift_ppm / 1e6`, rebased on every skew change so
//! the local clock never jumps except when a step is injected on
//! purpose.
//!
//! Everything is integer arithmetic on milliseconds, so two runs with
//! the same injected skews produce bit-identical timestamps.

use std::cell::Cell;
use std::rc::Rc;

use crate::sim::Sim;
use crate::time::SimTime;

/// The current affine segment of one clock.
#[derive(Clone, Copy)]
struct Segment {
    /// True simulated instant the segment started.
    base_true: SimTime,
    /// Local reading at `base_true` (may be ahead of truth after steps).
    base_local_ms: i64,
    /// Drift rate: local milliseconds gained per 1e6 true milliseconds.
    drift_ppm: i64,
}

impl Segment {
    fn in_sync(now: SimTime) -> Self {
        Segment {
            base_true: now,
            base_local_ms: now.as_millis() as i64,
            drift_ppm: 0,
        }
    }
}

/// A skewable per-device real-time clock; see the module docs.
///
/// Cheap to clone; clones share state. With no skew ever set, the clock
/// is the identity on [`Sim::now`].
#[derive(Clone)]
pub struct DeviceClock {
    sim: Sim,
    seg: Rc<Cell<Segment>>,
}

impl std::fmt::Debug for DeviceClock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeviceClock")
            .field("skew_ms", &self.skew_ms())
            .field("drift_ppm", &self.seg.get().drift_ppm)
            .finish()
    }
}

impl DeviceClock {
    /// A clock born in sync with the simulation.
    pub fn new(sim: &Sim) -> Self {
        DeviceClock {
            sim: sim.clone(),
            seg: Rc::new(Cell::new(Segment::in_sync(sim.now()))),
        }
    }

    /// The local clock reading, in milliseconds since the simulation
    /// epoch as this device believes it.
    pub fn now_ms(&self) -> i64 {
        let seg = self.seg.get();
        let elapsed = self.sim.now().duration_since(seg.base_true).as_millis() as i64;
        seg.base_local_ms + elapsed + elapsed * seg.drift_ppm / 1_000_000
    }

    /// How far the local clock is ahead of simulated truth (negative:
    /// behind).
    pub fn skew_ms(&self) -> i64 {
        self.now_ms() - self.sim.now().as_millis() as i64
    }

    /// True when the clock currently diverges from simulated truth.
    pub fn is_skewed(&self) -> bool {
        self.skew_ms() != 0 || self.seg.get().drift_ppm != 0
    }

    /// Injects a skew: the local clock steps forward by `step_ms` right
    /// now and gains `drift_ppm` local milliseconds per 1e6 true ones
    /// from here on. Rebases on the current reading, so repeated calls
    /// compound (a second step lands on top of the first).
    pub fn set_skew(&self, step_ms: i64, drift_ppm: i64) {
        self.seg.set(Segment {
            base_true: self.sim.now(),
            base_local_ms: self.now_ms() + step_ms,
            drift_ppm,
        });
    }

    /// Snaps the clock back to simulated truth (the NITZ/NTP fix).
    pub fn clear(&self) {
        self.seg.set(Segment::in_sync(self.sim.now()));
    }

    /// Inverts the *current* affine segment: maps a local timestamp this
    /// clock produced (since the last skew change) back to true
    /// simulated milliseconds. The collector-side normalization step.
    pub fn normalize(&self, local_ms: i64) -> i64 {
        let seg = self.seg.get();
        let elapsed_local = local_ms - seg.base_local_ms;
        let elapsed_true = elapsed_local * 1_000_000 / (1_000_000 + seg.drift_ppm);
        seg.base_true.as_millis() as i64 + elapsed_true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn unskewed_clock_is_identity() {
        let sim = Sim::new();
        let clock = DeviceClock::new(&sim);
        sim.run_for(SimDuration::from_secs(90));
        assert_eq!(clock.now_ms(), 90_000);
        assert_eq!(clock.skew_ms(), 0);
        assert!(!clock.is_skewed());
    }

    #[test]
    fn step_and_drift_accumulate() {
        let sim = Sim::new();
        let clock = DeviceClock::new(&sim);
        sim.run_for(SimDuration::from_secs(10));
        // +5 s step, then 10% fast.
        clock.set_skew(5_000, 100_000);
        assert_eq!(clock.now_ms(), 15_000);
        sim.run_for(SimDuration::from_secs(10));
        assert_eq!(clock.now_ms(), 15_000 + 10_000 + 1_000);
        assert_eq!(clock.skew_ms(), 6_000);
    }

    #[test]
    fn repeated_skews_compound_without_jumps() {
        let sim = Sim::new();
        let clock = DeviceClock::new(&sim);
        clock.set_skew(1_000, 50_000);
        sim.run_for(SimDuration::from_secs(20));
        let before = clock.now_ms();
        clock.set_skew(0, 0); // stop drifting, keep accumulated skew
        assert_eq!(clock.now_ms(), before, "rebasing must not jump");
        sim.run_for(SimDuration::from_secs(5));
        assert_eq!(clock.now_ms(), before + 5_000);
    }

    #[test]
    fn clear_snaps_back_to_truth() {
        let sim = Sim::new();
        let clock = DeviceClock::new(&sim);
        clock.set_skew(30_000, 10_000);
        sim.run_for(SimDuration::from_mins(5));
        assert!(clock.is_skewed());
        clock.clear();
        assert_eq!(clock.now_ms(), sim.now().as_millis() as i64);
        assert!(!clock.is_skewed());
    }

    // The name predates the removal of the arenas (PR 14) and is pinned by
    // the test floor; it checks that two handles on one `Sim` share nothing.
    #[test]
    fn arena_clocks_are_independent() {
        let sim = Sim::new();
        let a = DeviceClock::new(&sim);
        let b = DeviceClock::new(&sim);
        sim.run_for(SimDuration::from_secs(10));
        a.set_skew(5_000, 0);
        assert_eq!(a.now_ms(), 15_000);
        assert_eq!(a.clone().now_ms(), 15_000, "clones share state");
        assert_eq!(b.now_ms(), 10_000, "sibling clock unaffected");
        assert!(!b.is_skewed());
    }

    #[test]
    fn normalize_inverts_the_current_segment() {
        let sim = Sim::new();
        let clock = DeviceClock::new(&sim);
        sim.run_for(SimDuration::from_secs(100));
        clock.set_skew(42_000, 20_000);
        sim.run_for(SimDuration::from_secs(500));
        let local = clock.now_ms();
        let truth = sim.now().as_millis() as i64;
        let normalized = clock.normalize(local);
        assert!(
            (normalized - truth).abs() <= 1,
            "normalize({local}) = {normalized}, truth {truth}"
        );
    }
}
