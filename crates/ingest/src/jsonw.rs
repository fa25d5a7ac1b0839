//! Allocation-free JSON writing primitives.
//!
//! These were born in `pogo-core`'s message codec, where serialization
//! cost is part of the system under reproduction (message sizes feed
//! the radio energy model and the Table 4 data-reduction figure). The
//! ingest exporters need exactly the same primitives — integers via a
//! stack buffer, strings via run-based escaping, byte-counting without
//! materializing output — so they live here and `pogo-core` delegates.

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

/// Writes a JSON number: non-finite values become `null` (like
/// browsers), integral values take the stack-buffer fast path.
///
/// # Errors
///
/// Propagates the sink's write error.
pub fn write_num<W: fmt::Write>(n: f64, out: &mut W) -> fmt::Result {
    if !n.is_finite() {
        out.write_str("null")
    } else if n.fract() == 0.0 && n.abs() < 1e15 {
        write_int(n as i64, out)
    } else {
        // Writes digits straight into the sink — no intermediate
        // `format!` String.
        write!(out, "{n}")
    }
}

/// Writes a JSON string literal, quotes included.
///
/// # Errors
///
/// Propagates the sink's write error.
pub fn write_str<W: fmt::Write>(s: &str, out: &mut W) -> fmt::Result {
    out.write_char('"')?;
    // Fast path: runs of characters that need no escaping go out as one
    // `write_str` slice instead of char-by-char pushes.
    let mut plain_start = 0;
    for (i, c) in s.char_indices() {
        let escape: Option<&str> = match c {
            '"' => Some("\\\""),
            '\\' => Some("\\\\"),
            '\n' => Some("\\n"),
            '\t' => Some("\\t"),
            '\r' => Some("\\r"),
            c if (c as u32) < 0x20 => None, // \uXXXX, handled below
            _ => continue,
        };
        out.write_str(&s[plain_start..i])?;
        match escape {
            Some(esc) => out.write_str(esc)?,
            None => write!(out, "\\u{:04x}", c as u32)?,
        }
        plain_start = i + c.len_utf8();
    }
    out.write_str(&s[plain_start..])?;
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
    }
}
