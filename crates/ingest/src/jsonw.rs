//! Allocation-free JSON writing primitives.
//!
//! These were born in `pogo-core`'s message codec, where serialization
//! cost is part of the system under reproduction (message sizes feed
//! the radio energy model and the Table 4 data-reduction figure). The
//! ingest exporters need exactly the same primitives — integers via a
//! stack buffer, strings via run-based escaping, byte-counting without
//! materializing output — so they live here and `pogo-core` delegates.
//! The exporters also size their output before writing it, so the
//! integer, number and string writers each have a length function that
//! counts what they would write without writing it.

use std::fmt;

/// `fmt::Write` sink that only counts bytes — size accounting
/// serializes into this instead of materializing a `String`.
#[derive(Debug, Default)]
pub struct ByteCounter(pub u64);

impl fmt::Write for ByteCounter {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0 += s.len() as u64;
        Ok(())
    }
}

/// Formats an integer into a stack buffer and writes it in one call,
/// bypassing the general `Display` machinery on the hottest number path
/// (timestamps, counters, sensor readings are all integral).
///
/// # Errors
///
/// Propagates the sink's write error.
pub(crate) fn write_int<W: fmt::Write>(value: i64, out: &mut W) -> fmt::Result {
    let mut buf = [0u8; 20]; // i64::MIN is 20 bytes with the sign
    let mut pos = buf.len();
    let negative = value < 0;
    // Work in negative space so i64::MIN doesn't overflow on negation.
    let mut rest = if negative { value } else { -value };
    loop {
        pos -= 1;
        buf[pos] = (b'0' as i64 - rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    if negative {
        pos -= 1;
        buf[pos] = b'-';
    }
    out.write_str(std::str::from_utf8(&buf[pos..]).expect("ASCII digits"))
}

/// The bytes [`write_int`] writes for `value`, counted, not written.
pub(crate) fn int_len(value: i64) -> usize {
    let digits = value
        .unsigned_abs()
        .checked_ilog10()
        .map_or(1, |d| d as usize + 1);
    digits + usize::from(value < 0)
}

/// Whether [`write_num`] writes `n` through [`write_int`].
fn is_int_path(n: f64) -> bool {
    n.fract() == 0.0 && n.abs() < 1e15
}

/// Writes a JSON number: non-finite values become `null` (like
/// browsers), integral values take the stack-buffer fast path.
///
/// # Errors
///
/// Propagates the sink's write error.
pub fn write_num<W: fmt::Write>(n: f64, out: &mut W) -> fmt::Result {
    if !n.is_finite() {
        out.write_str("null")
    } else if is_int_path(n) {
        write_int(n as i64, out)
    } else {
        // Writes digits straight into the sink — no intermediate
        // `format!` String.
        write!(out, "{n}")
    }
}

/// The most bytes [`write_num`] writes for `n`, without formatting it:
/// exact for `null` and for the integer path, otherwise a bound from
/// `n`'s binary exponent. `{n}` writes the shortest digits that read
/// back as `n`, at most 17 significant ones, and never an exponent, so
/// where the point falls sets the length.
pub(crate) fn num_len_bound(n: f64) -> usize {
    if !n.is_finite() {
        return "null".len();
    }
    if is_int_path(n) {
        return int_len(n as i64);
    }
    const MAX_DIGITS: usize = 17;
    let sign = usize::from(n < 0.0);
    // 2^e2 <= |n| < 2^(e2 + 1); a subnormal is at least 2^-1074.
    let biased = ((n.to_bits() >> 52) & 0x7ff) as i32;
    let e2 = if biased == 0 { -1074 } else { biased - 1023 };
    if e2 >= 0 {
        // The integer digits, one more should rounding carry into a new
        // one; the fraction shares the 17 digits with them, behind a point.
        let int_digits = (f64::from(e2 + 1) * std::f64::consts::LOG10_2) as usize + 2;
        sign + int_digits.max(MAX_DIGITS + 1)
    } else {
        // "0.", the zeros after the point (one spare), the digits.
        let zeros = -(f64::from(e2) * std::f64::consts::LOG10_2).floor() as usize;
        sign + 2 + zeros + MAX_DIGITS
    }
}

/// How a JSON string literal spells `"`.
pub(crate) const QUOTE: &str = "\\\"";

/// How a JSON string literal spells each byte of its content that it
/// does not copy as it is, `""` for those it does. Every escaped byte is
/// ASCII, so the run of bytes between two of them is whole UTF-8.
static ESCAPE: [&str; 256] = {
    const CONTROL: [&str; 32] = [
        "\\u0000", "\\u0001", "\\u0002", "\\u0003", "\\u0004", "\\u0005", "\\u0006", "\\u0007",
        "\\u0008", "\\t", "\\n", "\\u000b", "\\u000c", "\\r", "\\u000e", "\\u000f", "\\u0010",
        "\\u0011", "\\u0012", "\\u0013", "\\u0014", "\\u0015", "\\u0016", "\\u0017", "\\u0018",
        "\\u0019", "\\u001a", "\\u001b", "\\u001c", "\\u001d", "\\u001e", "\\u001f",
    ];
    let mut table = [""; 256];
    let mut b = 0;
    while b < CONTROL.len() {
        table[b] = CONTROL[b];
        b += 1;
    }
    table[b'"' as usize] = QUOTE;
    table[b'\\' as usize] = "\\\\";
    table
};

/// The bytes escaping adds to each byte value, 0 for one copied as it is:
/// [`ESCAPE`]'s lengths, dense enough to scan a string with.
static ESCAPE_EXTRA: [u8; 256] = {
    let mut extra = [0; 256];
    let mut b = 0;
    while b < 256 {
        if !ESCAPE[b].is_empty() {
            extra[b] = ESCAPE[b].len() as u8 - 1;
        }
        b += 1;
    }
    extra
};

/// The bytes [`write_escaped`] writes for `s` with `"` spelled [`QUOTE`]: the
/// inside of its JSON string literal, counted, not written.
pub(crate) fn escaped_len(s: &str) -> usize {
    s.len()
        + s.bytes()
            .map(|b| usize::from(ESCAPE_EXTRA[usize::from(b)]))
            .sum::<usize>()
}

/// Writes the inside of `s`'s JSON string literal, quotes not included,
/// with each `"` spelled `quote`: `\"` in JSON, `\""` where the literal
/// sits in a quoted CSV field. Scans bytes and writes each run between
/// two escapes in one call.
///
/// # Errors
///
/// Propagates the sink's write error.
pub(crate) fn write_escaped<W: fmt::Write>(s: &str, quote: &str, out: &mut W) -> fmt::Result {
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if ESCAPE_EXTRA[usize::from(b)] == 0 {
            continue;
        }
        out.write_str(&s[run..i])?;
        out.write_str(if b == b'"' {
            quote
        } else {
            ESCAPE[usize::from(b)]
        })?;
        run = i + 1;
    }
    out.write_str(&s[run..])
}

/// Writes a JSON string literal, quotes included.
///
/// # Errors
///
/// Propagates the sink's write error.
pub fn write_str<W: fmt::Write>(s: &str, out: &mut W) -> fmt::Result {
    out.write_char('"')?;
    write_escaped(s, QUOTE, out)?;
    out.write_char('"')
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int_str(v: i64) -> String {
        let mut s = String::new();
        write_int(v, &mut s).unwrap();
        s
    }

    #[test]
    fn integer_edges() {
        assert_eq!(int_str(0), "0");
        assert_eq!(int_str(-1), "-1");
        assert_eq!(int_str(i64::MAX), i64::MAX.to_string());
        assert_eq!(int_str(i64::MIN), i64::MIN.to_string());
    }

    #[test]
    fn numbers_match_display_or_null() {
        let mut s = String::new();
        write_num(2.5, &mut s).unwrap();
        write_num(f64::NAN, &mut s).unwrap();
        write_num(42.0, &mut s).unwrap();
        assert_eq!(s, "2.5null42");
    }

    #[test]
    fn string_escaping_and_counting() {
        let mut s = String::new();
        write_str("a\"b\\c\nd\u{1}", &mut s).unwrap();
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001\"");
        let mut counter = ByteCounter::default();
        write_str("a\"b\\c\nd\u{1}", &mut counter).unwrap();
        assert_eq!(counter.0, s.len() as u64);
        assert_eq!(escaped_len("a\"b\\c\nd\u{1}") + 2, s.len());
    }

    #[test]
    fn every_control_byte_escapes_as_before() {
        for b in 0u8..0x20 {
            let c = char::from(b);
            let mut s = String::new();
            write_str(&c.to_string(), &mut s).unwrap();
            let want = match c {
                '\n' => "\"\\n\"".to_string(),
                '\t' => "\"\\t\"".to_string(),
                '\r' => "\"\\r\"".to_string(),
                _ => format!("\"\\u{:04x}\"", b),
            };
            assert_eq!(s, want);
            assert_eq!(escaped_len(&c.to_string()) + 2, s.len());
        }
    }

    #[test]
    fn lengths_are_counted_without_writing() {
        for v in [0, 7, -7, 9, 10, 99, 100, -100, i64::MAX, i64::MIN] {
            assert_eq!(int_len(v), int_str(v).len(), "{v}");
        }
        let mut samples = vec![
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            0.1 + 0.2,
            3.759 - 0.001,
            -2.5,
            1e15,
            -1e15 - 2.0,
            9.999_999_999_999_999e16,
            1e17 + 0.5,
            1e300,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            f64::EPSILON,
            5e-324,
            -5e-324,
            0.999_999_999_999_999_9,
            1e-7,
            123_456_789.123_456_78,
        ];
        // Every power of two, and a value just either side of it.
        for e in -1074..1024 {
            let p = 2f64.powi(e);
            samples.extend([p, p * (1.0 + f64::EPSILON), p * (1.0 - f64::EPSILON / 2.0)]);
        }
        for n in samples {
            let mut s = String::new();
            write_num(n, &mut s).unwrap();
            let bound = num_len_bound(n);
            assert!(bound >= s.len(), "{n:e}: bound {bound} < {}", s.len());
            if !n.is_finite() || is_int_path(n) {
                assert_eq!(bound, s.len(), "{n:e}");
            }
        }
    }
}
