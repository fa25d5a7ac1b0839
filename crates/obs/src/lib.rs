//! # pogo-obs — observability for the Pogo middleware
//!
//! The paper validates Pogo by *watching* it: Fig. 4 is a timeline of
//! CPU/e-mail/Pogo activity, and §5's deployment lessons came from
//! per-device logs. This crate makes that first-class: a ring-buffered
//! structured-event [`Recorder`], a [`Metrics`] registry
//! (counters/gauges/histograms), and exporters that turn any run into a
//! JSON-lines dump, a `chrome://tracing` timeline, or a `pogo-top`
//! summary table.
//!
//! Instrumentation is configured at node construction via [`ObsConfig`]
//! and is **off by default**: both the recorder and the registry are
//! enum-dispatched, so a disabled testbed pays one two-variant match per
//! hook — nothing is allocated, nothing is retained.
//!
//! ```
//! use pogo_obs::{field, ObsConfig};
//! use pogo_sim::{Sim, SimDuration};
//!
//! let sim = Sim::new();
//! let obs = ObsConfig::on().build(&sim);
//! let device = obs.scoped("phone-1@pogo");
//! sim.run_for(SimDuration::from_secs(3));
//! device.event("pogo", "flush", vec![field("batch", 5u64)]);
//! device.metrics().inc("net.flushes", 1);
//! assert_eq!(obs.events().len(), 1);
//! assert_eq!(obs.events()[0].at.as_millis(), 3_000);
//! ```

mod event;
pub mod export;
mod metrics;
mod recorder;

pub use event::{field, Event, FieldValue, Name};
pub use export::{summary, to_chrome_trace, to_jsonl};
pub use metrics::{Hist, Metric, MetricRow, Metrics};
pub use recorder::{Recorder, DEFAULT_RING_CAPACITY};

use pogo_sim::{Sim, SimTime};

/// Observability settings, passed to node constructors.
#[derive(Debug, Clone, Default)]
pub struct ObsConfig {
    enabled: bool,
    ring_capacity: Option<usize>,
    categories: Option<Vec<String>>,
}

impl ObsConfig {
    /// Observability disabled (the default): zero overhead, records
    /// nothing.
    pub fn off() -> Self {
        ObsConfig::default()
    }

    /// Events and metrics enabled with default settings.
    pub fn on() -> Self {
        ObsConfig {
            enabled: true,
            ..ObsConfig::default()
        }
    }

    /// Overrides the event ring capacity
    /// (default [`DEFAULT_RING_CAPACITY`]).
    pub fn ring_capacity(mut self, capacity: usize) -> Self {
        self.ring_capacity = Some(capacity);
        self
    }

    /// Restricts event recording to the given categories (metrics are
    /// unaffected).
    pub fn only_categories<S: Into<String>>(
        mut self,
        categories: impl IntoIterator<Item = S>,
    ) -> Self {
        self.categories = Some(categories.into_iter().map(Into::into).collect());
        self
    }

    /// Whether this configuration records anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Builds the live handle, stamping events with `sim`'s clock.
    pub fn build(&self, sim: &Sim) -> Obs {
        if !self.enabled {
            return Obs::off();
        }
        Obs {
            recorder: Recorder::ring(
                self.ring_capacity.unwrap_or(DEFAULT_RING_CAPACITY),
                self.categories.clone(),
            ),
            metrics: Metrics::on(),
            clock: Some(sim.clone()),
        }
    }
}

/// A cheap-to-clone handle bundling the event recorder, the metrics
/// registry, and the simulation clock used to stamp events. Nodes hold
/// one (scoped to their JID); `Obs::off()` is the no-op default.
#[derive(Debug, Clone)]
pub struct Obs {
    recorder: Recorder,
    metrics: Metrics,
    clock: Option<Sim>,
}

impl Obs {
    /// The disabled handle: every hook is a no-op.
    pub fn off() -> Self {
        Obs {
            recorder: Recorder::off(),
            metrics: Metrics::off(),
            clock: None,
        }
    }

    /// Whether any instrumentation is live. Hot paths branch on this
    /// before assembling payloads.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.recorder.is_enabled() || self.metrics.is_enabled()
    }

    /// A clone whose events and metrics are attributed to `device`.
    pub fn scoped(&self, device: &str) -> Obs {
        Obs {
            recorder: self.recorder.scoped(device),
            metrics: self.metrics.scoped(device),
            clock: self.clock.clone(),
        }
    }

    /// Records one event stamped with the current simulated time.
    #[inline]
    pub fn event(
        &self,
        category: impl Into<Name>,
        name: impl Into<Name>,
        fields: Vec<(Name, FieldValue)>,
    ) {
        if let Some(clock) = &self.clock {
            self.recorder.record(clock.now(), category, name, fields);
        }
    }

    /// Records one event at an explicit timestamp (for callbacks that
    /// carry their own time).
    #[inline]
    pub fn event_at(
        &self,
        at: SimTime,
        category: impl Into<Name>,
        name: impl Into<Name>,
        fields: Vec<(Name, FieldValue)>,
    ) {
        self.recorder.record(at, category, name, fields);
    }

    /// The event recorder.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Snapshot of retained events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.recorder.events()
    }

    /// The current simulated time (`ZERO` when off).
    pub fn now(&self) -> SimTime {
        self.clock.as_ref().map(Sim::now).unwrap_or(SimTime::ZERO)
    }
}

impl Default for Obs {
    fn default() -> Self {
        Obs::off()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_config_builds_disabled_handle() {
        let sim = Sim::new();
        let obs = ObsConfig::off().build(&sim);
        assert!(!obs.is_enabled());
        obs.event("cpu", "wake", vec![]);
        obs.metrics().inc("x", 1);
        assert!(obs.events().is_empty());
        assert!(obs.metrics().snapshot().is_empty());
    }

    #[test]
    fn on_config_stamps_with_sim_clock() {
        let sim = Sim::new();
        let obs = ObsConfig::on().build(&sim);
        sim.run_for(pogo_sim::SimDuration::from_millis(42));
        obs.event("pogo", "boot", vec![]);
        let events = obs.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].at.as_millis(), 42);
    }

    #[test]
    fn scoped_handle_shares_ring_and_registry() {
        let sim = Sim::new();
        let obs = ObsConfig::on().build(&sim);
        let dev = obs.scoped("d@pogo");
        dev.event("pogo", "flush", vec![]);
        dev.metrics().inc("net.flushes", 1);
        assert_eq!(obs.events().len(), 1);
        assert_eq!(obs.events()[0].device.as_deref(), Some("d@pogo"));
        assert_eq!(obs.metrics().counter_for(Some("d@pogo"), "net.flushes"), 1);
    }
}
