//! Seeded property suite over the exporters: for 2,000 seeds, a random
//! batch of rows must export to exactly the bytes the reference writers
//! below give, in CSV, JSONL and SenML alike.
//!
//! The reference writers are the exporters as they were before each
//! export was sized up front: they grow their `String` as they go, escape
//! a JSON string char by char, CSV-quote a value's JSON text after
//! building it in a `String` of its own, and `format!` SenML's names. The
//! rows cover all five templates; text holding `"`, `\`, `,`, `\n`, `\r`,
//! tabs and other control bytes, multi-byte UTF-8, and the empty string,
//! in names and values alike; SenML rows before the base time and outside
//! the base name; timestamps a whole number of seconds apart and not; and
//! `F64` values that are NaN, infinite, huge, subnormal or fractional.
//! Where every number's text length is known without formatting it, an
//! export's capacity must also equal its length: the size counted before
//! the first byte was exact.

use std::fmt::Write as _;

use pogo_ingest::{export, Row, SampleValue};
use pogo_sim::SimTime;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The exporters as they were, kept as the oracle.
mod reference {
    use super::*;

    fn write_str(s: &str, out: &mut String) {
        out.push('"');
        let mut plain_start = 0;
        for (i, c) in s.char_indices() {
            let escape: Option<&str> = match c {
                '"' => Some("\\\""),
                '\\' => Some("\\\\"),
                '\n' => Some("\\n"),
                '\t' => Some("\\t"),
                '\r' => Some("\\r"),
                c if (c as u32) < 0x20 => None,
                _ => continue,
            };
            out.push_str(&s[plain_start..i]);
            match escape {
                Some(esc) => out.push_str(esc),
                None => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
            }
            plain_start = i + c.len_utf8();
        }
        out.push_str(&s[plain_start..]);
        out.push('"');
    }

    fn write_num(n: f64, out: &mut String) {
        if !n.is_finite() {
            out.push_str("null");
        } else if n.fract() == 0.0 && n.abs() < 1e15 {
            let _ = write!(out, "{}", n as i64);
        } else {
            let _ = write!(out, "{n}");
        }
    }

    fn write_value_json(value: &SampleValue, out: &mut String) {
        match value {
            SampleValue::I64(n) => {
                let _ = write!(out, "{n}");
            }
            SampleValue::F64(n) => write_num(*n, out),
            SampleValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            SampleValue::Str(s) => write_str(s, out),
            SampleValue::Json(raw) => out.push_str(raw),
        }
    }

    fn write_csv_field(field: &str, out: &mut String) {
        if field.contains(['"', ',', '\n', '\r']) {
            out.push('"');
            for c in field.chars() {
                if c == '"' {
                    out.push('"');
                }
                out.push(c);
            }
            out.push('"');
        } else {
            out.push_str(field);
        }
    }

    pub fn to_csv(rows: &[Row]) -> String {
        let mut out = String::from("exp,channel,device,t_ms,value\n");
        let mut value = String::new();
        for row in rows {
            write_csv_field(&row.exp, &mut out);
            out.push(',');
            write_csv_field(&row.channel, &mut out);
            out.push(',');
            write_csv_field(&row.device, &mut out);
            out.push(',');
            let _ = write!(out, "{}", row.at.as_millis() as i64);
            out.push(',');
            value.clear();
            write_value_json(&row.value, &mut value);
            write_csv_field(&value, &mut out);
            out.push('\n');
        }
        out
    }

    pub fn to_jsonl(rows: &[Row]) -> String {
        let mut out = String::new();
        for row in rows {
            out.push_str("{\"exp\":");
            write_str(&row.exp, &mut out);
            out.push_str(",\"channel\":");
            write_str(&row.channel, &mut out);
            out.push_str(",\"device\":");
            write_str(&row.device, &mut out);
            out.push_str(",\"t\":");
            let _ = write!(out, "{}", row.at.as_millis() as i64);
            out.push_str(",\"v\":");
            write_value_json(&row.value, &mut out);
            out.push_str("}\n");
        }
        out
    }

    pub fn to_senml(rows: &[Row]) -> String {
        let mut out = String::from("[");
        let base = rows
            .first()
            .map(|r| (r.exp.clone(), r.channel.clone(), r.at));
        for (i, row) in rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            let (base_exp, base_channel, bt) = base.as_ref().expect("rows non-empty");
            if i == 0 {
                out.push_str("\"bn\":");
                write_str(&format!("{base_exp}/{base_channel}/"), &mut out);
                out.push_str(",\"bt\":");
                write_num(bt.as_secs_f64(), &mut out);
                out.push(',');
            }
            out.push_str("\"n\":");
            if row.exp == *base_exp && row.channel == *base_channel {
                write_str(&row.device, &mut out);
            } else {
                write_str(
                    &format!("{}/{}/{}", row.exp, row.channel, row.device),
                    &mut out,
                );
            }
            out.push_str(",\"t\":");
            write_num(
                (row.at.as_millis() as f64 - bt.as_millis() as f64) / 1_000.0,
                &mut out,
            );
            out.push(',');
            match &row.value {
                SampleValue::I64(n) => {
                    let _ = write!(out, "\"v\":{n}");
                }
                SampleValue::F64(n) => {
                    out.push_str("\"v\":");
                    write_num(*n, &mut out);
                }
                SampleValue::Bool(b) => {
                    out.push_str("\"vb\":");
                    out.push_str(if *b { "true" } else { "false" });
                }
                SampleValue::Str(s) => {
                    out.push_str("\"vs\":");
                    write_str(s, &mut out);
                }
                SampleValue::Json(raw) => {
                    out.push_str("\"vd\":");
                    write_str(raw, &mut out);
                }
            }
            out.push('}');
        }
        out.push(']');
        out
    }
}

/// The pieces text is made of: plain ASCII, every byte CSV or JSON
/// treats specially, control bytes with and without a short escape, DEL,
/// and characters of two, three and four bytes.
const PIECES: [&str; 21] = [
    "a",
    "Zz9",
    "phone-1@pogo",
    "/",
    " ",
    "\"",
    "\\",
    ",",
    "\n",
    "\r",
    "\t",
    "\u{0}",
    "\u{1}",
    "\u{8}",
    "\u{c}",
    "\u{1f}",
    "\u{7f}",
    "\u{e9}",
    "\u{4e2d}",
    "\u{1F600}",
    "\"\"",
];

/// Text of zero to eight pieces; a quarter of it empty.
fn text(rng: &mut SmallRng) -> String {
    if rng.gen_range(0u64..4) == 0 {
        return String::new();
    }
    let n = rng.gen_range(1usize..9);
    (0..n)
        .map(|_| PIECES[rng.gen_range(0..PIECES.len())])
        .collect()
}

/// A name from a small pool, so that rows share the base name often and
/// leave it often; some of the pool needs quoting or escaping.
fn name(rng: &mut SmallRng, pool: &[&str]) -> String {
    if rng.gen_range(0u64..8) == 0 {
        text(rng)
    } else {
        pool[rng.gen_range(0..pool.len())].to_owned()
    }
}

fn coin(rng: &mut SmallRng) -> bool {
    rng.gen_range(0u64..2) == 0
}

/// A whole number in `-bound..bound`.
fn signed(rng: &mut SmallRng, bound: u64) -> i64 {
    rng.gen_range(0..2 * bound) as i64 - bound as i64
}

fn f64_value(rng: &mut SmallRng) -> f64 {
    const SPECIAL: [f64; 16] = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.0,
        -0.0,
        1e15,
        -1e15,
        1e15 + 0.5,
        1e300,
        -1e300,
        f64::MAX,
        f64::MIN_POSITIVE,
        5e-324,
        -1e-7,
        0.1,
        0.30000000000000004,
    ];
    match rng.gen_range(0u64..4) {
        0 => SPECIAL[rng.gen_range(0..SPECIAL.len())],
        1 => signed(rng, 1_000_000) as f64,
        2 => signed(rng, 1_000_000) as f64 / 1_000.0,
        _ => (rng.gen::<f64>() - 0.5) * 10f64.powi(signed(rng, 16) as i32 + 4),
    }
}

fn value(rng: &mut SmallRng) -> SampleValue {
    match rng.gen_range(0u64..5) {
        0 => SampleValue::I64(match rng.gen_range(0u64..4) {
            0 => [i64::MIN, i64::MAX, 0, -1][rng.gen_range(0usize..4)],
            _ => signed(rng, 100_000),
        }),
        1 => SampleValue::F64(f64_value(rng)),
        2 => SampleValue::Bool(coin(rng)),
        3 => SampleValue::Str(text(rng)),
        // The exporters take a `Json` value's text as they find it.
        _ => SampleValue::Json(if coin(rng) {
            format!("{{\"k\":{},\"s\":\"x,y\"}}", rng.gen_range(0u64..100))
        } else {
            text(rng)
        }),
    }
}

/// Up to 40 rows; each is a whole number of seconds from the first, or a
/// number of milliseconds that is not, and may come before it.
fn rows(seed: u64) -> Vec<Row> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x0E59_0127_5EED);
    let base_ms = rng.gen_range(0u64..10_000_000);
    let n = rng.gen_range(0usize..40);
    (0..n)
        .map(|_| {
            let offset_ms = if coin(&mut rng) {
                signed(&mut rng, 600) * 1_000
            } else {
                signed(&mut rng, 600_000)
            };
            Row {
                exp: name(&mut rng, &["e", "exp,1", "q\"x"]),
                channel: name(&mut rng, &["battery", "locations", "a/b", "\u{e9}\n"]),
                device: name(&mut rng, &["phone-1@pogo", "phone-2@pogo", ""]),
                at: SimTime::from_millis(base_ms.saturating_add_signed(offset_ms)),
                value: value(&mut rng),
            }
        })
        .collect()
}

/// Whether a number's text length is known without formatting it: `null`
/// and integers below 1e15 are; the rest are reserved at a bound.
fn sized_exactly(n: f64) -> bool {
    !n.is_finite() || (n.fract() == 0.0 && n.abs() < 1e15)
}

#[test]
fn exports_equal_the_reference_writers_byte_for_byte() {
    let mut covered = [0usize; 5];
    let mut exact_exports = 0;
    for seed in 0..2_000 {
        let rows = rows(seed);
        for row in &rows {
            let k = match row.value {
                SampleValue::I64(_) => 0,
                SampleValue::F64(_) => 1,
                SampleValue::Bool(_) => 2,
                SampleValue::Str(_) => 3,
                SampleValue::Json(_) => 4,
            };
            covered[k] += 1;
        }
        let exact_values = rows.iter().all(|r| match r.value {
            SampleValue::F64(n) => sized_exactly(n),
            _ => true,
        });
        let exact_times = rows.first().is_none_or(|base| {
            let bt = base.at.as_millis() as f64;
            rows.iter().all(|r| {
                sized_exactly(bt / 1_000.0)
                    && sized_exactly((r.at.as_millis() as f64 - bt) / 1_000.0)
            })
        });
        for (format, got, want, exact) in [
            (
                "CSV",
                export::to_csv(&rows),
                reference::to_csv(&rows),
                exact_values,
            ),
            (
                "JSONL",
                export::to_jsonl(&rows),
                reference::to_jsonl(&rows),
                exact_values,
            ),
            (
                "SenML",
                export::to_senml(&rows),
                reference::to_senml(&rows),
                exact_values && exact_times,
            ),
        ] {
            assert_eq!(got, want, "seed {seed}: {format}");
            // Sized to the byte, so a count that fell short shows as a
            // `String` that grew past its reservation.
            if exact {
                assert_eq!(got.capacity(), got.len(), "seed {seed}: {format} size");
                exact_exports += 1;
            }
        }
    }
    assert!(exact_exports > 500, "{exact_exports} exports sized exactly");
    assert!(
        covered.iter().all(|&n| n > 1_000),
        "templates covered {covered:?}"
    );
}

/// The cases a random batch might miss, one row each after a fixed first
/// row: every control byte in a name and a value, a row before the base
/// time and one outside the base name, a fractional offset whose
/// difference in seconds would not be the offset's decimal (3,759 ms) but
/// is written as it, and the numbers whose text is longest.
#[test]
fn edge_rows_equal_the_reference_writers() {
    let first = Row {
        exp: "e".into(),
        channel: "c".into(),
        device: "d".into(),
        at: SimTime::from_millis(1_000_000),
        value: SampleValue::I64(1),
    };
    let all_control: String = (0u8..0x20).map(char::from).collect();
    let mut rows = vec![first.clone()];
    for (at_ms, value) in [
        (1_003_759, SampleValue::F64(f64::NAN)),
        (999_999, SampleValue::F64(f64::NEG_INFINITY)),
        (0, SampleValue::F64(f64::INFINITY)),
        (1_000_001, SampleValue::F64(5e-324)),
        (1_000_002, SampleValue::F64(f64::MIN)),
        (1_000_003, SampleValue::Str(all_control.clone())),
        (1_000_004, SampleValue::Json(all_control.clone())),
        (1_000_005, SampleValue::Str(String::new())),
        (1_000_006, SampleValue::Json(String::new())),
    ] {
        rows.push(Row {
            at: SimTime::from_millis(at_ms),
            value,
            ..first.clone()
        });
    }
    rows.push(Row {
        exp: format!("x{all_control}"),
        channel: "\u{1F600}\",\\".into(),
        device: all_control,
        ..first.clone()
    });
    assert_eq!(export::to_csv(&rows), reference::to_csv(&rows));
    assert_eq!(export::to_jsonl(&rows), reference::to_jsonl(&rows));
    let senml = export::to_senml(&rows);
    assert_eq!(senml, reference::to_senml(&rows));
    assert!(senml.contains("\"t\":3.759,"), "{senml}");
    assert_eq!(export::to_csv(&[]), reference::to_csv(&[]));
    assert_eq!(export::to_jsonl(&[]), reference::to_jsonl(&[]));
    assert_eq!(export::to_senml(&[]), reference::to_senml(&[]));
}
