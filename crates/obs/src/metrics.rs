//! The metrics registry: counters, gauges, and summary histograms keyed
//! by `(device, name)`.
//!
//! Like [`crate::Recorder`], the registry is enum-dispatched so the off
//! state costs a two-variant match per call. Keys are `BTreeMap`-ordered,
//! which makes every exported table deterministic.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use crate::event::Name;

/// Running summary of an observed distribution (no buckets; the summary
/// table reports count/sum/min/max/mean, which is what the paper-style
/// analyses need).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Hist {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
}

impl Hist {
    fn observe(&mut self, v: f64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
    }

    /// Arithmetic mean, or 0 with no observations.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// One registered metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Metric {
    /// Monotonic counter.
    Counter(u64),
    /// Last-write-wins value.
    Gauge(f64),
    /// Distribution summary.
    Histogram(Hist),
}

/// One row of a metrics snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricRow {
    /// Device scope (`None` = testbed-global).
    pub device: Option<String>,
    /// Metric name, e.g. `net.bytes_up`.
    pub name: String,
    /// Current value.
    pub metric: Metric,
}

type Key = (Option<Rc<str>>, Name);

#[derive(Debug, Clone)]
enum Backend {
    Off,
    On(Rc<RefCell<BTreeMap<Key, Metric>>>),
}

/// Counter/gauge/histogram registry shared by every scoped clone.
#[derive(Debug, Clone)]
pub struct Metrics {
    backend: Backend,
    scope: Option<Rc<str>>,
}

impl Metrics {
    /// A registry that ignores everything (the default).
    pub fn off() -> Self {
        Metrics {
            backend: Backend::Off,
            scope: None,
        }
    }

    /// A live registry.
    pub fn on() -> Self {
        Metrics {
            backend: Backend::On(Rc::new(RefCell::new(BTreeMap::new()))),
            scope: None,
        }
    }

    /// Whether the registry is live.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        matches!(self.backend, Backend::On(_))
    }

    /// A clone whose updates are attributed to `device`.
    pub fn scoped(&self, device: &str) -> Metrics {
        Metrics {
            backend: self.backend.clone(),
            scope: Some(Rc::from(device)),
        }
    }

    /// Adds `by` to the counter `name`.
    #[inline]
    pub fn inc(&self, name: impl Into<Name>, by: u64) {
        if let Backend::On(map) = &self.backend {
            let mut map = map.borrow_mut();
            let entry = map
                .entry((self.scope.clone(), name.into()))
                .or_insert(Metric::Counter(0));
            if let Metric::Counter(c) = entry {
                *c += by;
            }
        }
    }

    /// Sets the gauge `name` to `value`.
    #[inline]
    pub fn gauge(&self, name: impl Into<Name>, value: f64) {
        if let Backend::On(map) = &self.backend {
            map.borrow_mut()
                .insert((self.scope.clone(), name.into()), Metric::Gauge(value));
        }
    }

    /// Adds `value` to the histogram `name`.
    #[inline]
    pub fn observe(&self, name: impl Into<Name>, value: f64) {
        if let Backend::On(map) = &self.backend {
            let mut map = map.borrow_mut();
            let entry = map
                .entry((self.scope.clone(), name.into()))
                .or_insert(Metric::Histogram(Hist::default()));
            if let Metric::Histogram(h) = entry {
                h.observe(value);
            }
        }
    }

    /// Reads a counter in this clone's scope (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counter_for(self.scope.as_deref(), name)
    }

    /// Reads a counter for an explicit device scope (0 if absent).
    pub fn counter_for(&self, device: Option<&str>, name: &str) -> u64 {
        match self.lookup(device, name) {
            Some(Metric::Counter(c)) => c,
            _ => 0,
        }
    }

    fn lookup(&self, device: Option<&str>, name: &str) -> Option<Metric> {
        if let Backend::On(map) = &self.backend {
            let key = (device.map(Rc::from), Name::Owned(name.to_owned()));
            map.borrow().get(&key).copied()
        } else {
            None
        }
    }

    /// Every metric, ordered by `(device, name)` (global rows first).
    pub fn snapshot(&self) -> Vec<MetricRow> {
        match &self.backend {
            Backend::Off => Vec::new(),
            Backend::On(map) => map
                .borrow()
                .iter()
                .map(|((device, name), metric)| MetricRow {
                    device: device.as_deref().map(str::to_owned),
                    name: name.to_string(),
                    metric: *metric,
                })
                .collect(),
        }
    }
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::off()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_registry_stays_empty() {
        let m = Metrics::off();
        m.inc("a", 1);
        m.gauge("b", 2.0);
        m.observe("c", 3.0);
        assert!(m.snapshot().is_empty());
        assert_eq!(m.counter("a"), 0);
    }

    #[test]
    fn counters_gauges_histograms() {
        let m = Metrics::on();
        let dev = m.scoped("phone-1@pogo");
        dev.inc("net.flushes", 1);
        dev.inc("net.flushes", 2);
        dev.gauge("net.store_depth", 4.0);
        dev.observe("radio.dwell_ms.dch", 100.0);
        dev.observe("radio.dwell_ms.dch", 300.0);
        assert_eq!(dev.counter("net.flushes"), 3);
        assert_eq!(m.counter_for(Some("phone-1@pogo"), "net.flushes"), 3);
        let rows = m.snapshot();
        assert!(rows
            .iter()
            .all(|r| r.device.as_deref() == Some("phone-1@pogo")));
        let metric = |name: &str| rows.iter().find(|r| r.name == name).unwrap().metric;
        assert_eq!(metric("net.store_depth"), Metric::Gauge(4.0));
        let Metric::Histogram(h) = metric("radio.dwell_ms.dch") else {
            panic!("not a histogram");
        };
        assert_eq!(h.count, 2);
        assert_eq!(h.mean(), 200.0);
        assert_eq!(h.min, 100.0);
        assert_eq!(h.max, 300.0);
    }

    #[test]
    fn snapshot_orders_global_before_devices() {
        let m = Metrics::on();
        m.scoped("z@pogo").inc("x", 1);
        m.inc("broker.published", 5);
        m.scoped("a@pogo").inc("x", 1);
        let rows = m.snapshot();
        assert_eq!(rows[0].device, None);
        assert_eq!(rows[0].name, "broker.published");
        assert_eq!(rows[1].device.as_deref(), Some("a@pogo"));
        assert_eq!(rows[2].device.as_deref(), Some("z@pogo"));
    }
}
