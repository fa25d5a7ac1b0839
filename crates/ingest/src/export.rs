//! Multi-format exporters over store scans: CSV, JSONL, and SenML.
//!
//! All three reuse the allocation-free JSON writer ([`crate::jsonw`])
//! for numbers and string escaping, and all three are deterministic:
//! the same rows always serialize to the same bytes, which the chaos
//! determinism gate asserts across same-seed re-runs.
//!
//! Each export is one `String`, allocated once before its first byte is
//! written. A format lays a row out through a `Sink`; the first pass
//! hands every row to a `Tally`, which adds up field lengths, the bytes
//! escaping and quote doubling add and integer digits, all counted from
//! the row without writing it, and the second hands them to the
//! `String`. Only an `F64`'s text is not known without formatting it; the
//! tally takes a bound on its length, so the writes never outgrow the
//! reservation.

use crate::jsonw::{self, QUOTE};
use crate::schema::SampleValue;
use crate::store::Row;

/// `"` inside a JSON string literal that sits in a quoted CSV field,
/// where the field doubles it.
const CSV_QUOTE: &str = "\\\"\"";

/// What a format lays a row out into: the export's `String`, or a
/// [`Tally`] of the bytes that would take. One layout function does both,
/// so the size and the bytes cannot disagree.
trait Sink {
    /// Text copied as it is.
    fn text(&mut self, s: &str);
    /// An integer's digits.
    fn int(&mut self, n: i64);
    /// A JSON number.
    fn num(&mut self, n: f64);
    /// The inside of `s`'s JSON string literal, with `"` spelled `quote`.
    fn escaped(&mut self, s: &str, quote: &str);
    /// `s` as a CSV field: quoted, its quotes doubled, when it holds a
    /// delimiter, quote, or newline.
    fn csv_field(&mut self, s: &str);

    /// `s` as a JSON string literal, quotes included.
    fn json_str(&mut self, s: &str) {
        self.text("\"");
        self.escaped(s, QUOTE);
        self.text("\"");
    }

    /// The typed value as a JSON fragment (raw for `Json`, which is
    /// already serialized).
    fn json_value(&mut self, value: &SampleValue) {
        match value {
            SampleValue::I64(n) => self.int(*n),
            SampleValue::F64(n) => self.num(*n),
            SampleValue::Bool(b) => self.text(if *b { "true" } else { "false" }),
            SampleValue::Str(s) => self.json_str(s),
            SampleValue::Json(raw) => self.text(raw),
        }
    }
}

/// How many `"`s `s` holds.
fn quotes(s: &str) -> usize {
    s.bytes().filter(|&b| b == b'"').count()
}

/// Whether a CSV field is quoted.
fn csv_quoted(field: &str) -> bool {
    field
        .bytes()
        .any(|b| matches!(b, b'"' | b',' | b'\n' | b'\r'))
}

impl Sink for String {
    fn text(&mut self, s: &str) {
        self.push_str(s);
    }

    fn int(&mut self, n: i64) {
        let _ = jsonw::write_int(n, self);
    }

    fn num(&mut self, n: f64) {
        let _ = jsonw::write_num(n, self);
    }

    fn escaped(&mut self, s: &str, quote: &str) {
        let _ = jsonw::write_escaped(s, quote, self);
    }

    fn csv_field(&mut self, s: &str) {
        if !csv_quoted(s) {
            self.push_str(s);
            return;
        }
        self.push('"');
        for (i, run) in s.split('"').enumerate() {
            if i > 0 {
                self.push_str("\"\"");
            }
            self.push_str(run);
        }
        self.push('"');
    }
}

/// The bytes a layout would write, counted without writing them.
struct Tally(usize);

impl Sink for Tally {
    fn text(&mut self, s: &str) {
        self.0 += s.len();
    }

    fn int(&mut self, n: i64) {
        self.0 += jsonw::int_len(n);
    }

    fn num(&mut self, n: f64) {
        self.0 += jsonw::num_len_bound(n);
    }

    fn escaped(&mut self, s: &str, quote: &str) {
        // `escaped_len` counts each `"` as `QUOTE`.
        self.0 += jsonw::escaped_len(s);
        if quote.len() > QUOTE.len() {
            self.0 += (quote.len() - QUOTE.len()) * quotes(s);
        }
    }

    fn csv_field(&mut self, s: &str) {
        self.0 += s.len();
        if csv_quoted(s) {
            self.0 += 2 + quotes(s);
        }
    }
}

/// One export format: the text around its rows, and how it lays out the
/// `i`th.
trait Layout {
    const HEAD: &'static str;
    const TAIL: &'static str;
    fn row<S: Sink>(&self, i: usize, row: &Row, out: &mut S);
}

/// Sizes the export of `rows`, then writes it into one allocation.
fn export<L: Layout>(layout: &L, rows: &[Row]) -> String {
    let mut size = Tally(L::HEAD.len() + L::TAIL.len());
    for (i, row) in rows.iter().enumerate() {
        layout.row(i, row, &mut size);
    }
    let mut out = String::with_capacity(size.0);
    out.push_str(L::HEAD);
    for (i, row) in rows.iter().enumerate() {
        layout.row(i, row, &mut out);
    }
    out.push_str(L::TAIL);
    out
}

struct Csv;

impl Layout for Csv {
    const HEAD: &'static str = "exp,channel,device,t_ms,value\n";
    const TAIL: &'static str = "";

    fn row<S: Sink>(&self, _: usize, row: &Row, out: &mut S) {
        out.csv_field(&row.exp);
        out.text(",");
        out.csv_field(&row.channel);
        out.text(",");
        out.csv_field(&row.device);
        out.text(",");
        out.int(row.at.as_millis() as i64);
        out.text(",");
        match &row.value {
            // A string literal holds quotes, so its field is always quoted.
            SampleValue::Str(s) => {
                out.text("\"\"\"");
                out.escaped(s, CSV_QUOTE);
                out.text("\"\"\"");
            }
            SampleValue::Json(raw) => out.csv_field(raw),
            // Numbers, `null` and booleans hold nothing CSV quotes.
            value => out.json_value(value),
        }
        out.text("\n");
    }
}

/// Exports rows as CSV with an `exp,channel,device,t_ms,value` header.
/// Timestamps are integral sim milliseconds; values render as their
/// JSON fragment (then CSV-quoted if needed).
pub fn to_csv(rows: &[Row]) -> String {
    export(&Csv, rows)
}

struct Jsonl;

impl Layout for Jsonl {
    const HEAD: &'static str = "";
    const TAIL: &'static str = "";

    fn row<S: Sink>(&self, _: usize, row: &Row, out: &mut S) {
        out.text("{\"exp\":");
        out.json_str(&row.exp);
        out.text(",\"channel\":");
        out.json_str(&row.channel);
        out.text(",\"device\":");
        out.json_str(&row.device);
        out.text(",\"t\":");
        out.int(row.at.as_millis() as i64);
        out.text(",\"v\":");
        out.json_value(&row.value);
        out.text("}\n");
    }
}

/// Exports rows as JSONL: one `{"exp":…,"channel":…,"device":…,"t":…,
/// "v":…}` object per line, `t` in sim milliseconds.
pub fn to_jsonl(rows: &[Row]) -> String {
    export(&Jsonl, rows)
}

/// SenML against the first row, which sets the base name and time.
struct Senml<'a> {
    base: &'a Row,
}

impl Layout for Senml<'_> {
    const HEAD: &'static str = "[";
    const TAIL: &'static str = "]";

    fn row<S: Sink>(&self, i: usize, row: &Row, out: &mut S) {
        let base = self.base;
        out.text(if i == 0 { "{" } else { ",{" });
        if i == 0 {
            out.text("\"bn\":\"");
            out.escaped(&base.exp, QUOTE);
            out.text("/");
            out.escaped(&base.channel, QUOTE);
            out.text("/\",\"bt\":");
            out.num(base.at.as_secs_f64());
            out.text(",");
        }
        out.text("\"n\":\"");
        if row.exp != base.exp || row.channel != base.channel {
            // Outside the base name: spell the full name.
            out.escaped(&row.exp, QUOTE);
            out.text("/");
            out.escaped(&row.channel, QUOTE);
            out.text("/");
        }
        out.escaped(&row.device, QUOTE);
        out.text("\",\"t\":");
        // From the whole milliseconds, which are exact in an `f64`: 3,759
        // ms after a 1,000 s base is `3.759`, where the difference of the
        // two second counts is `3.7590000000000146`.
        out.num((row.at.as_millis() as f64 - base.at.as_millis() as f64) / 1_000.0);
        out.text(",");
        match &row.value {
            SampleValue::I64(_) | SampleValue::F64(_) => out.text("\"v\":"),
            SampleValue::Bool(_) => out.text("\"vb\":"),
            SampleValue::Str(_) => out.text("\"vs\":"),
            SampleValue::Json(_) => out.text("\"vd\":"),
        }
        match &row.value {
            SampleValue::Json(raw) => out.json_str(raw),
            value => out.json_value(value),
        }
        out.text("}");
    }
}

/// Exports rows as a SenML-style pack (RFC 8428 shape): the first
/// record carries the base name `exp/channel/` and base time (seconds),
/// each record names its device with a relative time. Numbers use `v`,
/// strings `vs`, booleans `vb`, and pre-serialized JSON trees ride in
/// `vd` (data) as a string.
pub fn to_senml(rows: &[Row]) -> String {
    match rows.first() {
        Some(base) => export(&Senml { base }, rows),
        None => String::from("[]"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pogo_sim::{SimDuration, SimTime};

    fn row(channel: &str, device: &str, secs: u64, value: SampleValue) -> Row {
        Row {
            exp: "e".into(),
            channel: channel.into(),
            device: device.into(),
            at: SimTime::ZERO + SimDuration::from_secs(secs),
            value,
        }
    }

    fn sample_rows() -> Vec<Row> {
        vec![
            row("counts", "phone-1@pogo", 10, SampleValue::I64(42)),
            row("counts", "phone-2@pogo", 11, SampleValue::F64(2.5)),
            row("flags", "phone-1@pogo", 12, SampleValue::Bool(true)),
            row(
                "tags",
                "phone-1@pogo",
                13,
                SampleValue::Str("a,\"b\"".into()),
            ),
            row(
                "scans",
                "phone-2@pogo",
                14,
                SampleValue::Json("{\"aps\":[1,2]}".into()),
            ),
        ]
    }

    #[test]
    fn csv_golden() {
        assert_eq!(
            to_csv(&sample_rows()),
            "exp,channel,device,t_ms,value\n\
             e,counts,phone-1@pogo,10000,42\n\
             e,counts,phone-2@pogo,11000,2.5\n\
             e,flags,phone-1@pogo,12000,true\n\
             e,tags,phone-1@pogo,13000,\"\"\"a,\\\"\"b\\\"\"\"\"\"\n\
             e,scans,phone-2@pogo,14000,\"{\"\"aps\"\":[1,2]}\"\n"
        );
    }

    #[test]
    fn jsonl_golden() {
        assert_eq!(
            to_jsonl(&sample_rows()),
            "{\"exp\":\"e\",\"channel\":\"counts\",\"device\":\"phone-1@pogo\",\"t\":10000,\"v\":42}\n\
             {\"exp\":\"e\",\"channel\":\"counts\",\"device\":\"phone-2@pogo\",\"t\":11000,\"v\":2.5}\n\
             {\"exp\":\"e\",\"channel\":\"flags\",\"device\":\"phone-1@pogo\",\"t\":12000,\"v\":true}\n\
             {\"exp\":\"e\",\"channel\":\"tags\",\"device\":\"phone-1@pogo\",\"t\":13000,\"v\":\"a,\\\"b\\\"\"}\n\
             {\"exp\":\"e\",\"channel\":\"scans\",\"device\":\"phone-2@pogo\",\"t\":14000,\"v\":{\"aps\":[1,2]}}\n"
        );
    }

    #[test]
    fn senml_golden() {
        assert_eq!(
            to_senml(&sample_rows()),
            "[{\"bn\":\"e/counts/\",\"bt\":10,\"n\":\"phone-1@pogo\",\"t\":0,\"v\":42},\
             {\"n\":\"phone-2@pogo\",\"t\":1,\"v\":2.5},\
             {\"n\":\"e/flags/phone-1@pogo\",\"t\":2,\"vb\":true},\
             {\"n\":\"e/tags/phone-1@pogo\",\"t\":3,\"vs\":\"a,\\\"b\\\"\"},\
             {\"n\":\"e/scans/phone-2@pogo\",\"t\":4,\"vd\":\"{\\\"aps\\\":[1,2]}\"}]"
        );
        assert_eq!(to_senml(&[]), "[]");
    }

    #[test]
    fn empty_exports() {
        assert_eq!(to_csv(&[]), "exp,channel,device,t_ms,value\n");
        assert_eq!(to_jsonl(&[]), "");
    }
}
