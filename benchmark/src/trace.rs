//! Spans recorded from the benchmark's own files, around its calls
//! into each layer's public functions. Nothing inside the program under
//! test is instrumented. Spans stay in memory and are written out once,
//! when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call (or group of calls) into the program.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
    /// Counter deltas observed at the span's boundaries.
    pub counts: Vec<(String, f64)>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Span recorder. Off for the end-to-end runs: `begin`/`end` then cost
/// one branch each.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

#[derive(Clone, Copy)]
pub struct SpanId(Option<usize>);

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn begin(&mut self, name: &str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let idx = self.spans.len();
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            counts: Vec::new(),
        });
        self.open.push(idx);
        SpanId(Some(idx))
    }

    pub fn end(&mut self, id: SpanId) {
        self.end_with(id, Vec::new());
    }

    pub fn end_with(&mut self, id: SpanId, counts: Vec<(String, f64)>) {
        let Some(idx) = id.0 else { return };
        let now = self.epoch.elapsed().as_nanos() as u64;
        assert_eq!(self.open.pop(), Some(idx), "spans close innermost first");
        self.spans[idx].end_ns = now;
        self.spans[idx].counts = counts;
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total seconds of the spans called `name`.
    pub fn total_secs(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .sum()
    }

    /// Durations, in milliseconds, of the spans called `name`.
    pub fn millis(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.secs() * 1e3)
            .collect()
    }

    /// A span's self time: its duration less what its children cover.
    pub fn self_secs(&self, idx: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(idx))
            .map(Span::secs)
            .sum();
        self.spans[idx].secs() - children
    }

    /// One JSON object per line: name, start, end, parent, self time,
    /// counts.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"self_s\":{}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_owned(), |p| p.to_string()),
                self.self_secs(i),
            );
            for (k, v) in &s.counts {
                let _ = write!(out, ",\"{k}\":{v}");
            }
            out.push_str("}\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer");
        let inner = t.begin("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end_with(inner, vec![("rows".into(), 3.0)]);
        t.end(outer);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].secs() >= spans[1].secs());
        let self_outer = t.self_secs(0);
        assert!(self_outer >= 0.0 && self_outer < spans[0].secs());
        assert!(t.to_jsonl().contains("\"rows\":3"));
        assert_eq!(t.millis("inner").len(), 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("x");
        t.end(id);
        assert!(t.spans().is_empty());
    }
}
