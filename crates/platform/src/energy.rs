//! Power accounting: the simulated replacement for the paper's shunt
//! resistor + NI USB-6009 ADC setup (§5.2).
//!
//! Every hardware component registers a *rail* and reports its current
//! power draw whenever it changes state. The meter integrates power over
//! simulated time exactly (power is piecewise constant between state
//! changes) and can optionally record the total-power step function as a
//! [`PowerTrace`], which is how Figure 3 is regenerated.

use std::cell::RefCell;
use std::rc::Rc;

use pogo_sim::{Sim, SimDuration, SimTime};

/// Identifies one power rail (CPU, 3G modem, Wi-Fi, …) on a meter.
///
/// Indexes the owning meter's rails in registration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RailId(usize);

/// One rail: its current draw and the energy integrated so far.
struct Rail {
    name: String,
    watts: f64,
    joules: f64,
    last_update: SimTime,
}

impl Rail {
    /// Integrates the current draw up to `now`.
    fn settle(&mut self, now: SimTime) {
        let dt = now.saturating_duration_since(self.last_update);
        self.joules += self.watts * dt.as_secs_f64();
        self.last_update = now;
    }
}

/// What the clones of one meter share: its rails, in registration
/// order, and the optional Figure-3 trace.
#[derive(Default)]
struct MeterState {
    rails: Vec<Rail>,
    trace: Option<Vec<(SimTime, f64)>>,
}

impl MeterState {
    fn total_watts(&self) -> f64 {
        self.rails.iter().map(|r| r.watts).sum()
    }
}

/// Integrates per-rail power draw over simulated time.
///
/// # Example
///
/// ```
/// use pogo_sim::{Sim, SimDuration};
/// use pogo_platform::EnergyMeter;
///
/// let sim = Sim::new();
/// let meter = EnergyMeter::new(&sim);
/// let rail = meter.register("cpu");
/// meter.set_power(rail, 0.5); // 0.5 W
/// sim.run_for(SimDuration::from_secs(10));
/// assert!((meter.energy_joules(rail) - 5.0).abs() < 1e-9);
/// ```
#[derive(Clone)]
pub struct EnergyMeter {
    sim: Sim,
    state: Rc<RefCell<MeterState>>,
}

impl std::fmt::Debug for EnergyMeter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EnergyMeter")
            .field("rails", &self.state.borrow().rails.len())
            .field("total_watts", &self.total_power())
            .finish()
    }
}

impl EnergyMeter {
    /// Creates a meter bound to the simulation clock, with no rails yet;
    /// components add theirs via [`EnergyMeter::register`].
    pub fn new(sim: &Sim) -> Self {
        EnergyMeter {
            sim: sim.clone(),
            state: Rc::new(RefCell::new(MeterState::default())),
        }
    }

    /// Registers a new rail drawing 0 W.
    pub fn register(&self, name: &str) -> RailId {
        let mut state = self.state.borrow_mut();
        state.rails.push(Rail {
            name: name.to_owned(),
            watts: 0.0,
            joules: 0.0,
            last_update: self.sim.now(),
        });
        RailId(state.rails.len() - 1)
    }

    /// Sets the instantaneous draw of a rail, integrating the previous
    /// level up to the current instant first.
    ///
    /// # Panics
    ///
    /// Panics if `watts` is negative or not finite.
    pub fn set_power(&self, rail: RailId, watts: f64) {
        assert!(
            watts.is_finite() && watts >= 0.0,
            "power must be a non-negative finite wattage, got {watts}"
        );
        let now = self.sim.now();
        let mut state = self.state.borrow_mut();
        let r = &mut state.rails[rail.0];
        r.settle(now);
        r.watts = watts;
        let total = state.total_watts();
        if let Some(trace) = &mut state.trace {
            // Collapse multiple changes at the same instant into one point.
            match trace.last_mut() {
                Some(last) if last.0 == now => last.1 = total,
                _ => trace.push((now, total)),
            }
        }
    }

    /// Current draw of one rail in watts.
    pub fn power(&self, rail: RailId) -> f64 {
        self.state.borrow().rails[rail.0].watts
    }

    /// Current total draw across all of this meter's rails in watts.
    pub(crate) fn total_power(&self) -> f64 {
        self.state.borrow().total_watts()
    }

    /// Energy consumed by one rail up to the current instant, in joules.
    pub fn energy_joules(&self, rail: RailId) -> f64 {
        let mut state = self.state.borrow_mut();
        let r = &mut state.rails[rail.0];
        r.settle(self.sim.now());
        r.joules
    }

    /// Total energy across this meter's rails up to the current instant,
    /// in joules.
    pub fn total_joules(&self) -> f64 {
        let now = self.sim.now();
        let mut state = self.state.borrow_mut();
        state
            .rails
            .iter_mut()
            .map(|r| {
                r.settle(now);
                r.joules
            })
            .sum()
    }

    /// Per-rail `(name, joules)` breakdown up to the current instant.
    pub fn breakdown(&self) -> Vec<(String, f64)> {
        let now = self.sim.now();
        let mut state = self.state.borrow_mut();
        state
            .rails
            .iter_mut()
            .map(|r| {
                r.settle(now);
                (r.name.clone(), r.joules)
            })
            .collect()
    }

    /// Starts recording the total-power step function (used for Figure 3).
    /// Recording begins at the current instant with the current total.
    pub fn start_trace(&self) {
        let mut state = self.state.borrow_mut();
        let point = (self.sim.now(), state.total_watts());
        state.trace = Some(vec![point]);
    }

    /// Stops recording and returns the trace.
    ///
    /// Returns an empty trace if [`EnergyMeter::start_trace`] was never
    /// called.
    pub fn take_trace(&self) -> PowerTrace {
        PowerTrace {
            points: self.state.borrow_mut().trace.take().unwrap_or_default(),
            end: self.sim.now(),
        }
    }
}

/// A recorded total-power step function: the value at each point holds
/// until the next point.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PowerTrace {
    points: Vec<(SimTime, f64)>,
    end: SimTime,
}

impl PowerTrace {
    /// The instant recording stopped.
    pub fn end(&self) -> SimTime {
        self.end
    }

    /// Resamples the step function at a fixed interval, returning
    /// `(seconds since trace start, watts)` pairs — the format used to
    /// print Figure 3.
    pub fn sample(&self, interval: SimDuration) -> Vec<(f64, f64)> {
        let Some(&(start, _)) = self.points.first() else {
            return Vec::new();
        };
        assert!(!interval.is_zero(), "sampling interval must be non-zero");
        let mut out = Vec::new();
        let mut t = start;
        let mut idx = 0;
        while t <= self.end {
            while idx + 1 < self.points.len() && self.points[idx + 1].0 <= t {
                idx += 1;
            }
            out.push((t.duration_since(start).as_secs_f64(), self.points[idx].1));
            t += interval;
        }
        out
    }

    /// Resamples with the **maximum** power in each bucket — the right
    /// view for plotting spiky signals (Figure 3's 20 ms paging blips
    /// would vanish under point sampling).
    pub fn sample_max(&self, interval: SimDuration) -> Vec<(f64, f64)> {
        let Some(&(start, _)) = self.points.first() else {
            return Vec::new();
        };
        assert!(!interval.is_zero(), "sampling interval must be non-zero");
        let mut out = Vec::new();
        let mut bucket_start = start;
        let mut idx = 0;
        while bucket_start <= self.end {
            let bucket_end = bucket_start + interval;
            // Power at the bucket's start…
            while idx + 1 < self.points.len() && self.points[idx + 1].0 <= bucket_start {
                idx += 1;
            }
            let mut peak = self.points[idx].1;
            // …and any change points inside the bucket.
            let mut j = idx + 1;
            while j < self.points.len() && self.points[j].0 < bucket_end {
                peak = peak.max(self.points[j].1);
                j += 1;
            }
            out.push((bucket_start.duration_since(start).as_secs_f64(), peak));
            bucket_start = bucket_end;
        }
        out
    }

    /// Peak power over the trace in watts.
    pub fn peak_watts(&self) -> f64 {
        self.points.iter().map(|&(_, w)| w).fold(0.0, f64::max)
    }
}

#[cfg(test)]
impl PowerTrace {
    /// The raw `(instant, watts)` change points.
    pub(crate) fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Sim, EnergyMeter) {
        let sim = Sim::new();
        let meter = EnergyMeter::new(&sim);
        (sim, meter)
    }

    #[test]
    fn integrates_constant_power() {
        let (sim, meter) = setup();
        let r = meter.register("cpu");
        meter.set_power(r, 2.0);
        sim.run_for(SimDuration::from_secs(3));
        assert!((meter.energy_joules(r) - 6.0).abs() < 1e-9);
    }

    #[test]
    fn integrates_step_changes() {
        let (sim, meter) = setup();
        let r = meter.register("radio");
        meter.set_power(r, 1.0);
        sim.run_for(SimDuration::from_secs(2)); // 2 J
        meter.set_power(r, 0.25);
        sim.run_for(SimDuration::from_secs(4)); // 1 J
        meter.set_power(r, 0.0);
        sim.run_for(SimDuration::from_secs(100)); // 0 J
        assert!((meter.energy_joules(r) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn rails_are_independent_and_total_sums() {
        let (sim, meter) = setup();
        let a = meter.register("a");
        let b = meter.register("b");
        meter.set_power(a, 1.0);
        meter.set_power(b, 0.5);
        sim.run_for(SimDuration::from_secs(10));
        assert!((meter.energy_joules(a) - 10.0).abs() < 1e-9);
        assert!((meter.energy_joules(b) - 5.0).abs() < 1e-9);
        assert!((meter.total_joules() - 15.0).abs() < 1e-9);
        assert!((meter.total_power() - 1.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_power_rejected() {
        let (_sim, meter) = setup();
        let r = meter.register("x");
        meter.set_power(r, -1.0);
    }

    #[test]
    fn trace_records_step_function() {
        let (sim, meter) = setup();
        let r = meter.register("radio");
        meter.start_trace();
        meter.set_power(r, 0.8);
        sim.run_for(SimDuration::from_secs(2));
        meter.set_power(r, 0.3);
        sim.run_for(SimDuration::from_secs(2));
        meter.set_power(r, 0.0);
        sim.run_for(SimDuration::from_secs(1));
        let trace = meter.take_trace();
        assert_eq!(
            trace.points(),
            [
                (SimTime::ZERO, 0.8),
                (SimTime::from_millis(2_000), 0.3),
                (SimTime::from_millis(4_000), 0.0)
            ]
        );
        assert_eq!(trace.end(), sim.now());
        assert!((trace.peak_watts() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn trace_sampling_holds_last_value() {
        let (sim, meter) = setup();
        let r = meter.register("radio");
        meter.start_trace();
        meter.set_power(r, 1.0);
        sim.run_for(SimDuration::from_millis(1_500));
        meter.set_power(r, 0.0);
        sim.run_for(SimDuration::from_millis(1_000));
        let trace = meter.take_trace();
        let samples = trace.sample(SimDuration::from_millis(500));
        // t=0,0.5,1.0 -> 1.0 W; t=1.5,2.0,2.5 -> 0.0 W
        assert_eq!(samples.len(), 6);
        assert_eq!(samples[0], (0.0, 1.0));
        assert_eq!(samples[2], (1.0, 1.0));
        assert_eq!(samples[3], (1.5, 0.0));
        assert_eq!(samples[5], (2.5, 0.0));
    }

    #[test]
    fn sample_max_catches_short_spikes() {
        let (sim, meter) = setup();
        let r = meter.register("radio");
        meter.start_trace();
        // A 20 ms spike inside an otherwise-quiet second.
        sim.run_for(SimDuration::from_millis(400));
        meter.set_power(r, 0.5);
        sim.run_for(SimDuration::from_millis(20));
        meter.set_power(r, 0.0);
        sim.run_for(SimDuration::from_millis(580));
        let trace = meter.take_trace();
        let point = trace.sample(SimDuration::from_millis(1_000));
        assert_eq!(point[0].1, 0.0, "point sampling misses the spike");
        let peak = trace.sample_max(SimDuration::from_millis(1_000));
        assert_eq!(peak[0].1, 0.5, "max sampling catches it");
    }

    #[test]
    fn same_instant_changes_collapse_in_trace() {
        let (sim, meter) = setup();
        let a = meter.register("a");
        let b = meter.register("b");
        meter.start_trace();
        meter.set_power(a, 1.0);
        meter.set_power(b, 2.0);
        sim.run_for(SimDuration::from_secs(1));
        let trace = meter.take_trace();
        // start point plus one collapsed change point at t=0 (merged).
        assert_eq!(trace.points().len(), 1);
        assert_eq!(trace.points()[0].1, 3.0);
    }

    #[test]
    fn breakdown_lists_all_rails() {
        let (sim, meter) = setup();
        let a = meter.register("cpu");
        let _b = meter.register("radio");
        meter.set_power(a, 1.0);
        sim.run_for(SimDuration::from_secs(2));
        let bd = meter.breakdown();
        assert_eq!(bd.len(), 2);
        assert_eq!(bd[0].0, "cpu");
        assert!((bd[0].1 - 2.0).abs() < 1e-9);
        assert_eq!(bd[1].1, 0.0);
    }

    // The name predates the removal of the arenas (PR 14) and is pinned by
    // the test floor; it checks that two handles on one `Sim` share nothing.
    #[test]
    fn arena_meters_share_columns_but_not_rails() {
        let sim = Sim::new();
        let m1 = EnergyMeter::new(&sim);
        let m2 = EnergyMeter::new(&sim);
        let r1 = m1.register("cpu");
        let r2 = m2.register("cpu");
        m1.set_power(r1, 1.0);
        m2.set_power(r2, 0.25);
        sim.run_for(SimDuration::from_secs(4));
        assert!((m1.total_joules() - 4.0).abs() < 1e-9);
        assert!((m2.total_joules() - 1.0).abs() < 1e-9, "meters independent");
        // Per-meter traces see only their own rails.
        m1.start_trace();
        m2.set_power(r2, 5.0);
        sim.run_for(SimDuration::from_secs(1));
        assert!((m1.take_trace().peak_watts() - 1.0).abs() < 1e-12);
    }
}
