//! Trace exporters: JSON-lines dumps, Chrome-trace timelines, and the
//! `pogo-top` style plain-text summary.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use pogo_sim::SimTime;

use crate::event::{Event, FieldValue};
use crate::metrics::{Metric, Metrics};

/// Serializes events to JSON-lines: one object per event, in order.
///
/// Schema (stable, documented in DESIGN.md §10):
/// `{"t":<ms>,"dev":"<jid>","cat":"<category>","ev":"<name>","fields":{...}}`
/// with `dev` omitted for global events and `fields` omitted when empty.
/// The output is a pure function of the events — identical traces
/// serialize to identical bytes, which the determinism tests rely on.
pub fn to_jsonl(events: &[Event]) -> String {
    let mut out = String::with_capacity(events.len() * 64);
    for e in events {
        out.push_str("{\"t\":");
        let _ = write!(out, "{}", e.at.as_millis());
        if let Some(dev) = &e.device {
            out.push_str(",\"dev\":");
            json_string(&mut out, dev);
        }
        out.push_str(",\"cat\":");
        json_string(&mut out, &e.category);
        out.push_str(",\"ev\":");
        json_string(&mut out, &e.name);
        if !e.fields.is_empty() {
            out.push_str(",\"fields\":{");
            for (i, (name, value)) in e.fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                json_string(&mut out, name);
                out.push(':');
                json_value(&mut out, value);
            }
            out.push('}');
        }
        out.push_str("}\n");
    }
    out
}

fn json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn json_value(out: &mut String, value: &FieldValue) {
    match value {
        FieldValue::U64(v) => {
            let _ = write!(out, "{v}");
        }
        FieldValue::F64(v) if v.is_finite() => {
            let _ = write!(out, "{v}");
        }
        FieldValue::F64(_) => out.push_str("null"),
        FieldValue::Bool(v) => {
            let _ = write!(out, "{v}");
        }
        FieldValue::Str(v) => json_string(out, v),
    }
}

/// Converts a trace to Chrome-trace JSON (the `chrome://tracing` /
/// Perfetto "JSON Array" flavor wrapped in `{"traceEvents": [...]}`).
///
/// Interval synthesis renders the Fig.-4 picture for any run:
/// - `cpu` `wake`/`sleep` pairs become complete (`"X"`) slices on a
///   per-device "cpu" track — the paper's CPU lane;
/// - `radio` state events become one slice per non-idle RRC dwell
///   (ramp-up/DCH/FACH) on a "radio" track — the e-mail lane;
/// - everything else becomes an instant (`"i"`) event on a per-category
///   track, with the payload as `args` — flushes land on the "pogo" lane.
///
/// Timestamps are microseconds as the format requires.
pub fn to_chrome_trace(events: &[Event]) -> String {
    // Track ids: deterministic, dense, grouped per device.
    let mut tids: BTreeMap<(Option<String>, String), u64> = BTreeMap::new();
    for e in events {
        let key = (
            e.device.as_deref().map(str::to_owned),
            e.category.to_string(),
        );
        let next = tids.len() as u64;
        tids.entry(key).or_insert(next);
    }

    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let emit = |line: String, out: &mut String, first: &mut bool| {
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push('\n');
        out.push_str(&line);
    };

    for ((device, track), tid) in &tids {
        let mut name = String::new();
        json_string(
            &mut name,
            &match device {
                Some(d) => format!("{d} {track}"),
                None => track.clone(),
            },
        );
        emit(
            format!(
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":{name}}}}}"
            ),
            &mut out,
            &mut first,
        );
    }

    // Open interval state per track: (start, slice name).
    let mut open: BTreeMap<u64, (SimTime, String)> = BTreeMap::new();
    let end = events.last().map(|e| e.at).unwrap_or(SimTime::ZERO);

    for e in events {
        let key = (
            e.device.as_deref().map(str::to_owned),
            e.category.to_string(),
        );
        let tid = tids[&key];
        match e.category.as_ref() {
            "cpu" => match e.name.as_ref() {
                "wake" => {
                    open.insert(tid, (e.at, "awake".to_owned()));
                }
                _ => {
                    if let Some((start, name)) = open.remove(&tid) {
                        emit(slice(tid, start, e.at, &name), &mut out, &mut first);
                    }
                }
            },
            "radio" => {
                if let Some((start, name)) = open.remove(&tid) {
                    emit(slice(tid, start, e.at, &name), &mut out, &mut first);
                }
                if e.name.as_ref() != "idle" {
                    open.insert(tid, (e.at, e.name.to_string()));
                }
            }
            _ => {
                let mut args = String::from("{");
                for (i, (name, value)) in e.fields.iter().enumerate() {
                    if i > 0 {
                        args.push(',');
                    }
                    json_string(&mut args, name);
                    args.push(':');
                    json_value(&mut args, value);
                }
                args.push('}');
                let mut name = String::new();
                json_string(&mut name, &e.name);
                emit(
                    format!(
                        "{{\"ph\":\"i\",\"pid\":1,\"tid\":{tid},\"ts\":{},\"s\":\"t\",\
                         \"name\":{name},\"args\":{args}}}",
                        e.at.as_millis() * 1_000
                    ),
                    &mut out,
                    &mut first,
                );
            }
        }
    }
    // Close any interval still open at the end of the capture.
    for (tid, (start, name)) in open {
        emit(slice(tid, start, end, &name), &mut out, &mut first);
    }
    out.push_str("\n]}\n");
    out
}

fn slice(tid: u64, start: SimTime, end: SimTime, name: &str) -> String {
    let mut quoted = String::new();
    json_string(&mut quoted, name);
    format!(
        "{{\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{},\"dur\":{},\"name\":{quoted}}}",
        start.as_millis() * 1_000,
        end.saturating_duration_since(start).as_millis() * 1_000
    )
}

/// Renders the `pogo-top` style plain-text summary: per-device event
/// counts by category, then every metric grouped by scope.
pub fn summary(events: &[Event], metrics: &Metrics) -> String {
    let mut out = String::new();
    let span = match (events.first(), events.last()) {
        (Some(a), Some(b)) => (a.at, b.at),
        _ => (SimTime::ZERO, SimTime::ZERO),
    };
    let _ = writeln!(
        out,
        "pogo-top — {} events over {:.1} s",
        events.len(),
        span.1.saturating_duration_since(span.0).as_millis() as f64 / 1_000.0
    );

    // Event counts: device x category.
    let mut counts: BTreeMap<(Option<String>, String), u64> = BTreeMap::new();
    for e in events {
        *counts
            .entry((
                e.device.as_deref().map(str::to_owned),
                e.category.to_string(),
            ))
            .or_insert(0) += 1;
    }
    if !counts.is_empty() {
        let _ = writeln!(out, "\n{:<24} {:<10} {:>8}", "device", "category", "events");
        for ((device, category), n) in &counts {
            let _ = writeln!(
                out,
                "{:<24} {:<10} {n:>8}",
                device.as_deref().unwrap_or("-"),
                category
            );
        }
    }

    let rows = metrics.snapshot();

    if !rows.is_empty() {
        let _ = writeln!(
            out,
            "\n{:<24} {:<28} {:>14}  detail",
            "device", "metric", "value"
        );
        for row in rows {
            let (value, detail) = match row.metric {
                Metric::Counter(c) => (format!("{c}"), String::new()),
                Metric::Gauge(v) => (format!("{v:.1}"), "gauge".to_owned()),
                Metric::Histogram(h) => (
                    format!("{:.1}", h.mean()),
                    format!("n={} min={:.1} max={:.1}", h.count, h.min, h.max),
                ),
            };
            let _ = writeln!(
                out,
                "{:<24} {:<28} {value:>14}  {detail}",
                row.device.as_deref().unwrap_or("-"),
                row.name
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::field;
    use crate::recorder::Recorder;

    fn sample() -> Vec<Event> {
        let rec = Recorder::ring(64, None);
        let dev = rec.scoped("phone-1@pogo");
        dev.record(SimTime::from_millis(1_000), "cpu", "wake", vec![]);
        dev.record(SimTime::from_millis(1_100), "radio", "ramp-up", vec![]);
        dev.record(SimTime::from_millis(3_000), "radio", "dch", vec![]);
        dev.record(
            SimTime::from_millis(4_000),
            "pogo",
            "flush",
            vec![field("batch", 5u64), field("bytes", 640u64)],
        );
        dev.record(SimTime::from_millis(5_000), "radio", "idle", vec![]);
        dev.record(SimTime::from_millis(6_000), "cpu", "sleep", vec![]);
        rec.events()
    }

    #[test]
    fn jsonl_schema_and_determinism() {
        let events = sample();
        let a = to_jsonl(&events);
        let b = to_jsonl(&events);
        assert_eq!(a, b);
        let first = a.lines().next().unwrap();
        assert_eq!(
            first,
            "{\"t\":1000,\"dev\":\"phone-1@pogo\",\"cat\":\"cpu\",\"ev\":\"wake\"}"
        );
        assert!(a
            .lines()
            .any(|l| l.contains("\"fields\":{\"batch\":5,\"bytes\":640}")));
        assert_eq!(a.lines().count(), events.len());
    }

    #[test]
    fn json_strings_are_escaped() {
        let mut out = String::new();
        json_string(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn chrome_trace_builds_slices() {
        let trace = to_chrome_trace(&sample());
        // CPU slice: wake at 1s to sleep at 6s = 5s.
        assert!(trace.contains("\"ph\":\"X\""));
        assert!(trace.contains("\"dur\":5000000"), "{trace}");
        // Radio dwells: ramp-up 1.1s..3s and dch 3s..5s; idle closes.
        assert!(trace.contains("\"dur\":1900000"));
        assert!(trace.contains("\"dur\":2000000"));
        // Flush is an instant with its payload.
        assert!(trace.contains("\"ph\":\"i\""));
        assert!(trace.contains("\"batch\":5"));
        // Track metadata names the device lanes.
        assert!(trace.contains("phone-1@pogo cpu"));
    }

    #[test]
    fn summary_lists_counts_and_metrics() {
        let metrics = Metrics::on();
        metrics.scoped("phone-1@pogo").inc("net.flushes", 3);
        let text = summary(&sample(), &metrics);
        assert!(text.contains("pogo-top"));
        assert!(text.contains("net.flushes"));
        assert!(text.contains("radio"));
    }
}
