//! Typed columnar batches and the watermark-driven batch builder.
//!
//! A `Batch` is the unit the store ingests: one (experiment, channel)
//! slice of samples laid out column-wise: a [`SimTime`] timestamp
//! column, a device column of ids from the store-wide dictionary
//! ([`SampleStore`] owns it, so a batch only means something beside the
//! store it was built for), and one typed value column (`Column`). The
//! `BatchBuilder` accumulates appends and reports when a size watermark
//! is crossed; the age watermark is a sim-timer the pipeline arms when a
//! builder goes non-empty. Only [`Watermarks`] is visible outside the
//! crate.

use std::ops::Range;

use pogo_sim::{SimDuration, SimTime};

use crate::error::IngestError;
use crate::schema::{SampleValue, Template};
use crate::store::SampleStore;

/// One typed value column. All variants hold exactly as many entries
/// as the batch has rows.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Column {
    /// Integral numbers.
    I64(Vec<i64>),
    /// Floats.
    F64(Vec<f64>),
    /// Booleans.
    Bool(Vec<bool>),
    /// Strings.
    Str(Text),
    /// Pre-serialized compact JSON trees.
    Json(Text),
}

/// A column of text values end to end in one buffer: row `i` is
/// `text[ends[i - 1]..ends[i]]` (from 0 for the first row). A value
/// costs its bytes and a `u32`, where a `String` of its own cost a
/// 24-byte header, an allocator chunk and whatever slack it grew.
///
/// A flushed `Json` column may be *shaped* (`pieces > 0`): every row was
/// a compact object with the first row's keys in the same order, so the
/// buffer starts with that key skeleton once, cut by `ends[..pieces]`
/// into the text around the values (`{"a":`, `,"b":`, `}`), and each row
/// after it holds only its values, each behind its length as one byte.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct Text {
    text: String,
    ends: Vec<u32>,
    pieces: usize,
}

impl Text {
    /// Entry `i` of the buffer: a skeleton piece below `pieces`, a row
    /// from there on.
    fn entry(&self, i: usize) -> &str {
        let start = i.checked_sub(1).map_or(0, |prev| self.ends[prev] as usize);
        &self.text[start..self.ends[i] as usize]
    }

    /// Row `row` as stored: its text, or its values if shaped.
    fn get(&self, row: usize) -> &str {
        self.entry(self.pieces + row)
    }

    fn rows(&self) -> usize {
        self.ends.len() - self.pieces
    }

    /// Row `row`'s text, rebuilt from skeleton and values when shaped, in
    /// one allocation of its exact size.
    fn json(&self, row: usize) -> String {
        let stored = self.get(row);
        let Some(values) = self.pieces.checked_sub(1) else {
            return stored.to_owned();
        };
        let skeleton = self.ends[values] as usize;
        let mut out = String::with_capacity(skeleton + stored.len() - values);
        let mut rest = stored;
        for k in 0..values {
            out.push_str(self.entry(k));
            let len = usize::from(rest.as_bytes()[0]);
            out.push_str(&rest[1..=len]);
            rest = &rest[1 + len..];
        }
        out.push_str(self.entry(values));
        out
    }

    /// Bytes of text the rows hold as appended, skeleton included.
    fn raw_len(&self) -> usize {
        match self.pieces.checked_sub(1) {
            None => self.text.len(),
            Some(values) => {
                let skeleton = self.ends[values] as usize;
                self.text.len() - skeleton + self.rows() * (skeleton - values)
            }
        }
    }

    fn push(&mut self, value: &str) {
        self.text.push_str(value);
        let end = u32::try_from(self.text.len())
            .expect("the pipeline flushes before a batch's text passes u32::MAX");
        self.ends.push(end);
    }

    fn take_exact(&mut self) -> Text {
        let text = self.text.as_str().to_owned();
        self.text.clear();
        Text {
            text,
            ends: take_exact(&mut self.ends),
            pieces: 0,
        }
    }

    /// [`Text::take_exact`] for a `Json` column whose every row rebuilds
    /// byte for byte from the first row's skeleton and values of under
    /// 128 bytes: the rows shaped, each buffer allocated once at its exact
    /// size. `None`, with `self` untouched, when a row does not, or when
    /// shaping would not make the batch smaller. `cuts` is the builder's
    /// scratch.
    fn take_shaped(&mut self, cuts: &mut Vec<Range<usize>>) -> Option<Text> {
        cuts.clear();
        let first = self.get(0);
        if !cut_members(first.as_bytes(), cuts) {
            return None;
        }
        let skeleton = first.len() - cuts.iter().map(ExactSizeIterator::len).sum::<usize>();
        // Each row sheds the skeleton but gains a length byte per value;
        // the batch gains the skeleton once and an offset per piece.
        let saved = self.rows() * (skeleton - cuts.len());
        if saved <= skeleton + 4 * (cuts.len() + 1) {
            return None;
        }
        // Exact once every row has proved to share the skeleton.
        let mut text = Vec::with_capacity((self.text.len() + skeleton).saturating_sub(saved));
        let mut ends = Vec::with_capacity(cuts.len() + 1 + self.rows());
        for k in 0..=cuts.len() {
            text.extend_from_slice(piece(first, cuts, k).as_bytes());
            ends.push(text.len() as u32);
        }
        for row in 0..self.rows() {
            let bytes = self.get(row).as_bytes();
            let mut pos = 0;
            for k in 0..=cuts.len() {
                let gap = piece(first, cuts, k).as_bytes();
                if bytes.get(pos..pos + gap.len()) != Some(gap) {
                    return None;
                }
                pos += gap.len();
                if k == cuts.len() {
                    break;
                }
                let end = value_end(bytes, pos)?;
                let value = &bytes[pos..end];
                if value.len() >= 128 {
                    return None;
                }
                text.push(value.len() as u8);
                text.extend_from_slice(value);
                pos = end;
            }
            if pos != bytes.len() {
                return None;
            }
            ends.push(text.len() as u32);
        }
        // Cut at ASCII bytes, and every length byte is ASCII.
        let text = String::from_utf8(text).expect("shaped text is UTF-8");
        let pieces = cuts.len() + 1;
        self.text.clear();
        self.ends.clear();
        Some(Text { text, ends, pieces })
    }
}

/// Skeleton piece `k` of `first`, whose member values `cuts` holds: the
/// text before value `k`, or after the last one for `k == cuts.len()`.
fn piece<'a>(first: &'a str, cuts: &[Range<usize>], k: usize) -> &'a str {
    let start = k.checked_sub(1).map_or(0, |prev| cuts[prev].end);
    &first[start..cuts.get(k).map_or(first.len(), |c| c.start)]
}

/// Pushes to `cuts` the byte range of each member value of `row`, a
/// compact JSON object of one member or more (`{"k":v,...}`, no space
/// outside values); `false` when `row` is not one. Values are not
/// validated: one ends at the first `,` or `}` outside strings and brackets.
fn cut_members(row: &[u8], cuts: &mut Vec<Range<usize>>) -> bool {
    if row.first() != Some(&b'{') {
        return false;
    }
    let mut pos = 1;
    loop {
        if row.get(pos) != Some(&b'"') {
            return false;
        }
        let Some(close) = string_end(row, pos) else {
            return false;
        };
        if row.get(close + 1) != Some(&b':') {
            return false;
        }
        let start = close + 2;
        let Some(end) = value_end(row, start) else {
            return false;
        };
        cuts.push(start..end);
        match row[end] {
            b',' => pos = end + 1,
            b'}' => return end + 1 == row.len(),
            _ => return false,
        }
    }
}

/// The index of the closing quote of the string opened at `row[open]`.
fn string_end(row: &[u8], open: usize) -> Option<usize> {
    let mut i = open + 1;
    loop {
        match *row.get(i)? {
            b'\\' => i += 2,
            b'"' => return Some(i),
            _ => i += 1,
        }
    }
}

/// The index of the first `,`, `}` or `]` at or after `from` that is
/// outside every string and bracket opened there.
fn value_end(row: &[u8], from: usize) -> Option<usize> {
    let mut depth = 0usize;
    let mut i = from;
    loop {
        match *row.get(i)? {
            b'"' => i = string_end(row, i)?,
            b'{' | b'[' => depth += 1,
            b',' if depth == 0 => return Some(i),
            b'}' | b']' => match depth.checked_sub(1) {
                Some(d) => depth = d,
                None => return Some(i),
            },
            _ => {}
        }
        i += 1;
    }
}

/// Whether `value` more bytes of text still end where a `u32` offset
/// can say, behind `pending` bytes a batch already holds.
pub(crate) fn text_fits(pending: usize, value: usize) -> bool {
    pending
        .checked_add(value)
        .is_some_and(|end| end <= u32::MAX as usize)
}

/// `v`'s entries in a vector of their own at its exact length; `v` is
/// emptied and keeps its capacity for the next batch.
fn take_exact<T: Clone>(v: &mut Vec<T>) -> Vec<T> {
    let out = v.as_slice().to_vec();
    v.clear();
    out
}

impl Column {
    fn empty(template: Template) -> Column {
        match template {
            Template::I64 => Column::I64(Vec::new()),
            Template::F64 => Column::F64(Vec::new()),
            Template::Bool => Column::Bool(Vec::new()),
            Template::Str => Column::Str(Text::default()),
            Template::Json => Column::Json(Text::default()),
        }
    }

    /// The value at `row`, materialized.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    pub(crate) fn value(&self, row: usize) -> SampleValue {
        match self {
            Column::I64(v) => SampleValue::I64(v[row]),
            Column::F64(v) => SampleValue::F64(v[row]),
            Column::Bool(v) => SampleValue::Bool(v[row]),
            Column::Str(t) => SampleValue::Str(t.get(row).to_owned()),
            Column::Json(t) => SampleValue::Json(t.json(row)),
        }
    }

    /// Appends one value; a text value is copied into the column's
    /// buffer and its `String` freed here.
    fn push(&mut self, value: SampleValue) {
        match (self, value) {
            (Column::I64(v), SampleValue::I64(x)) => v.push(x),
            (Column::F64(v), SampleValue::F64(x)) => v.push(x),
            (Column::Bool(v), SampleValue::Bool(x)) => v.push(x),
            (Column::Str(t), SampleValue::Str(x)) | (Column::Json(t), SampleValue::Json(x)) => {
                t.push(&x)
            }
            _ => unreachable!("append type-checks against the template first"),
        }
    }

    /// Bytes of text the column holds (0 for the scalar columns).
    fn text_len(&self) -> usize {
        match self {
            Column::Str(t) | Column::Json(t) => t.text.len(),
            _ => 0,
        }
    }

    /// The entries at their exact length, a `Json` column shaped when
    /// that rebuilds every row (`Text::take_shaped`); `self` keeps its
    /// capacity.
    fn take_exact(&mut self, cuts: &mut Vec<Range<usize>>) -> Column {
        match self {
            Column::I64(v) => Column::I64(take_exact(v)),
            Column::F64(v) => Column::F64(take_exact(v)),
            Column::Bool(v) => Column::Bool(take_exact(v)),
            Column::Str(t) => Column::Str(t.take_exact()),
            Column::Json(t) => Column::Json(t.take_shaped(cuts).unwrap_or_else(|| t.take_exact())),
        }
    }

    /// The charged size: 8 bytes per number, 1 per boolean, and `len +
    /// 24` per text value as appended, what a `String` of its own was
    /// charged, shaped or not.
    fn approx_bytes(&self) -> u64 {
        match self {
            Column::I64(v) => v.len() as u64 * 8,
            Column::F64(v) => v.len() as u64 * 8,
            Column::Bool(v) => v.len() as u64,
            Column::Str(t) | Column::Json(t) => t.raw_len() as u64 + 24 * t.rows() as u64,
        }
    }
}

/// One flushed columnar batch for a single (experiment, channel).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Batch {
    /// Experiment the samples belong to.
    pub(crate) exp: String,
    /// Channel the samples arrived on.
    pub(crate) channel: String,
    /// Per-row device id in the store-wide dictionary.
    pub(crate) device_idx: Vec<u32>,
    /// Per-row ingestion timestamp, non-decreasing: the store refuses a
    /// batch that breaks this, because scans binary-search the column.
    pub(crate) at: Vec<SimTime>,
    /// The typed value column.
    pub(crate) values: Column,
}

impl Batch {
    /// Number of rows.
    pub(crate) fn rows(&self) -> usize {
        self.at.len()
    }

    /// The charged size of the three columns: 4 bytes per device id, 8
    /// per timestamp, and the value column's charge (`len + 24` per text
    /// value). It is a stable count, not the resident size, which
    /// `tests/alloc_budget.rs` measures. The device names are the
    /// store's, charged there once.
    pub(crate) fn approx_bytes(&self) -> u64 {
        self.device_idx.len() as u64 * 4 + self.at.len() as u64 * 8 + self.values.approx_bytes()
    }
}

/// Flush watermarks: a builder flushes when it holds `max_rows`
/// samples, or when its oldest pending sample is `max_age` old.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Watermarks {
    /// Size watermark (rows per batch).
    pub max_rows: usize,
    /// Age watermark (oldest pending sample).
    pub max_age: SimDuration,
}

impl Default for Watermarks {
    fn default() -> Self {
        Watermarks {
            max_rows: 256,
            max_age: SimDuration::from_secs(60),
        }
    }
}

/// Accumulates samples for one (experiment, channel) into the next
/// [`Batch`].
#[derive(Debug)]
pub(crate) struct BatchBuilder {
    exp: String,
    channel: String,
    template: Template,
    watermarks: Watermarks,
    device_idx: Vec<u32>,
    at: Vec<SimTime>,
    values: Column,
    /// Scratch for a `Json` flush: the first row's member values.
    cuts: Vec<Range<usize>>,
}

impl BatchBuilder {
    /// A fresh builder for `exp`/`channel` with the given template.
    pub(crate) fn new(
        exp: &str,
        channel: &str,
        template: Template,
        watermarks: Watermarks,
    ) -> Self {
        BatchBuilder {
            exp: exp.to_owned(),
            channel: channel.to_owned(),
            template,
            watermarks,
            device_idx: Vec::new(),
            at: Vec::new(),
            values: Column::empty(template),
            cuts: Vec::new(),
        }
    }

    /// Rows currently pending (not yet flushed).
    pub(crate) fn pending_rows(&self) -> usize {
        self.at.len()
    }

    /// Timestamp of the oldest pending sample, if any.
    pub(crate) fn oldest(&self) -> Option<SimTime> {
        self.at.first().copied()
    }

    /// The builder's age watermark.
    pub(crate) fn max_age(&self) -> SimDuration {
        self.watermarks.max_age
    }

    /// Whether `value` can join the pending rows: `false` when its text
    /// would end past what the batch's `u32` offsets can say, and the
    /// caller must [`BatchBuilder::flush`] first.
    pub(crate) fn has_room_for(&self, value: &SampleValue) -> bool {
        text_fits(self.values.text_len(), text_len(value))
    }

    /// Appends one sample, interning `device` in `store`'s dictionary.
    /// Returns `true` when the size watermark is reached and the caller
    /// should [`BatchBuilder::flush`].
    ///
    /// # Errors
    ///
    /// [`IngestError::SchemaMismatch`] when the value does not belong
    /// in this builder's typed column, or is text that even an empty
    /// batch could not hold (4 GiB or more); builder and dictionary are
    /// unchanged.
    ///
    /// # Panics
    ///
    /// Panics if the value would carry the pending text past
    /// `u32::MAX` bytes: [`BatchBuilder::has_room_for`] says when to
    /// flush first.
    pub(crate) fn append(
        &mut self,
        store: &SampleStore,
        device: &str,
        at: SimTime,
        value: SampleValue,
    ) -> Result<bool, IngestError> {
        let got = if !value.matches(self.template) {
            Some(value.type_name().to_owned())
        } else if !text_fits(0, text_len(&value)) {
            Some(format!(
                "{} of {} bytes",
                value.type_name(),
                text_len(&value)
            ))
        } else {
            None
        };
        if let Some(got) = got {
            return Err(IngestError::SchemaMismatch {
                exp: self.exp.clone(),
                channel: self.channel.clone(),
                device: device.to_owned(),
                expected: self.template,
                got,
            });
        }
        self.device_idx.push(store.intern_device(device));
        self.at.push(at);
        self.values.push(value);
        Ok(self.at.len() >= self.watermarks.max_rows)
    }

    /// Copies the pending rows out into a [`Batch`] that holds every
    /// column at its exact length; the builder keeps its capacity for the
    /// next one. `None` when empty.
    pub(crate) fn flush(&mut self) -> Option<Batch> {
        if self.at.is_empty() {
            return None;
        }
        Some(Batch {
            exp: self.exp.clone(),
            channel: self.channel.clone(),
            device_idx: take_exact(&mut self.device_idx),
            at: take_exact(&mut self.at),
            values: self.values.take_exact(&mut self.cuts),
        })
    }
}

/// Bytes of text `value` carries (0 for a scalar).
fn text_len(value: &SampleValue) -> usize {
    match value {
        SampleValue::Str(s) | SampleValue::Json(s) => s.len(),
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    #[test]
    fn size_watermark_reports_full() {
        let store = SampleStore::new();
        let mut b = BatchBuilder::new(
            "e",
            "c",
            Template::I64,
            Watermarks {
                max_rows: 3,
                max_age: SimDuration::from_secs(60),
            },
        );
        assert!(!b.append(&store, "d1", t(1), SampleValue::I64(1)).unwrap());
        assert!(!b.append(&store, "d2", t(2), SampleValue::I64(2)).unwrap());
        assert!(b.append(&store, "d1", t(3), SampleValue::I64(3)).unwrap());
        let batch = b.flush().expect("non-empty");
        assert_eq!(batch.rows(), 3);
        assert_eq!(store.device_names(), vec!["d1", "d2"]);
        assert_eq!(store.device_names()[batch.device_idx[2] as usize], "d1");
        assert_eq!(batch.values, Column::I64(vec![1, 2, 3]));
        assert_eq!(b.pending_rows(), 0);
        assert!(b.flush().is_none(), "flush drained the builder");
    }

    #[test]
    fn device_ids_are_store_wide_across_batches_and_builders() {
        let store = SampleStore::new();
        let mut b = BatchBuilder::new("e", "c", Template::I64, Watermarks::default());
        for (device, v) in [("d1", 1), ("d2", 2), ("d1", 3)] {
            b.append(&store, device, t(1), SampleValue::I64(v)).unwrap();
        }
        let first = b.flush().unwrap();
        assert_eq!(store.device_names(), vec!["d1", "d2"]);
        assert_eq!(first.device_idx, vec![0, 1, 0]);
        // A known device keeps its id in every later batch; a new one
        // takes the next id in order of first appearance.
        for (device, v) in [("d2", 4), ("d3", 5), ("d2", 6), ("d1", 7)] {
            b.append(&store, device, t(2), SampleValue::I64(v)).unwrap();
        }
        let second = b.flush().unwrap();
        assert_eq!(store.device_names(), vec!["d1", "d2", "d3"]);
        assert_eq!(second.device_idx, vec![1, 2, 1, 0]);
        // Another channel's builder reads the same dictionary.
        let mut other = BatchBuilder::new("e", "other", Template::I64, Watermarks::default());
        other
            .append(&store, "d3", t(3), SampleValue::I64(8))
            .unwrap();
        assert_eq!(other.flush().unwrap().device_idx, vec![2]);
        assert_eq!(store.device_names().len(), 3);
    }

    #[test]
    fn mismatch_rejects_without_mutating() {
        let store = SampleStore::new();
        let mut b = BatchBuilder::new("e", "c", Template::I64, Watermarks::default());
        let err = b
            .append(&store, "d", t(1), SampleValue::Str("no".into()))
            .unwrap_err();
        assert_eq!(err.code(), "INGEST_SCHEMA_MISMATCH");
        assert_eq!(b.pending_rows(), 0);
        assert!(
            store.device_names().is_empty(),
            "a rejected row interns nothing"
        );
    }

    /// A text value is charged `len + 24` whatever holds it, so the store's
    /// byte counts compare with those of a column of `String`s.
    #[test]
    fn batch_bytes_account_for_strings() {
        let store = SampleStore::new();
        let mut b = BatchBuilder::new("e", "c", Template::Str, Watermarks::default());
        for s in ["hello", "", "\u{e9}t\u{e9}"] {
            b.append(&store, "d", t(1), SampleValue::Str(s.into()))
                .unwrap();
        }
        let batch = b.flush().unwrap();
        let text = ("hello".len() + "\u{e9}t\u{e9}".len()) as u64;
        assert_eq!(batch.approx_bytes(), 3 * (4 + 8) + text + 3 * 24);
    }

    /// Every text value comes back as it went in, the empty one and those
    /// whose characters take several bytes included; the flushed batch
    /// holds its columns at their exact length and the builder keeps its
    /// buffers for the next batch.
    #[test]
    fn text_columns_return_each_value_and_flush_at_exact_length() {
        let store = SampleStore::new();
        let values = [
            "",
            "plain",
            "",
            "\u{e9}\u{1F600}\u{4e2d}",
            "a,\"b\"\nc",
            "\u{1F600}",
            "",
        ];
        for (template, wrap) in [
            (Template::Str, SampleValue::Str as fn(String) -> SampleValue),
            (Template::Json, SampleValue::Json),
        ] {
            let mut b = BatchBuilder::new("e", "c", template, Watermarks::default());
            for round in 0..2 {
                for v in values {
                    b.append(&store, "d", t(round), wrap(v.to_owned())).unwrap();
                }
                let batch = b.flush().unwrap();
                for (row, v) in values.iter().enumerate() {
                    assert_eq!(batch.values.value(row), wrap((*v).to_owned()), "{row}");
                }
                let (Column::Str(text) | Column::Json(text)) = &batch.values else {
                    panic!("{template:?} is a text column");
                };
                assert_eq!(text.text.capacity(), text.text.len());
                assert_eq!(text.ends.capacity(), values.len());
                assert_eq!(batch.at.capacity(), values.len());
                assert_eq!(batch.device_idx.capacity(), values.len());
                assert_eq!(b.values.text_len(), 0, "the builder starts empty");
                assert!(b.at.capacity() >= values.len(), "and keeps its capacity");
            }
        }
    }

    fn json_batch(rows: &[&str]) -> Batch {
        let store = SampleStore::new();
        let mut b = BatchBuilder::new("e", "c", Template::Json, Watermarks::default());
        for row in rows {
            b.append(&store, "d", t(1), SampleValue::Json((*row).to_owned()))
                .unwrap();
        }
        b.flush().unwrap()
    }

    /// A batch of same-keyed objects keeps the keys once and per row only
    /// the values, each behind its length; every row rebuilds to its text
    /// and the charge is that of the text as appended.
    #[test]
    fn same_keyed_json_is_stored_shaped_and_rebuilds_exactly() {
        let rows = [
            r#"{"charging":false,"level":0.5,"voltage":3.7}"#,
            r#"{"charging":true,"level":0.25,"voltage":3.91}"#,
            r#"{"charging":false,"level":1,"voltage":4.2}"#,
        ];
        let batch = json_batch(&rows);
        let Column::Json(text) = &batch.values else {
            panic!("a json column");
        };
        assert_eq!(text.pieces, 4);
        assert_eq!(
            text.text,
            "{\"charging\":,\"level\":,\"voltage\":}\u{5}false\u{3}0.5\u{3}3.7\
             \u{4}true\u{4}0.25\u{4}3.91\u{5}false\u{1}1\u{3}4.2"
        );
        for (row, want) in rows.iter().enumerate() {
            assert_eq!(
                batch.values.value(row),
                SampleValue::Json((*want).to_owned())
            );
        }
        let raw: usize = rows.iter().map(|r| r.len()).sum();
        assert!(text.text.len() < raw);
        assert_eq!(text.text.capacity(), text.text.len());
        assert_eq!(text.ends.capacity(), text.ends.len());
        assert_eq!(batch.approx_bytes(), 3 * (4 + 8 + 24) + raw as u64);
    }

    /// A batch keeps its layout when a row is not a compact object with
    /// the first row's keys, when a value is 128 bytes or longer, and when
    /// shaping would not make it smaller.
    #[test]
    fn json_that_does_not_rebuild_keeps_its_layout() {
        let long = format!(r#"{{"aaaa":"{}"}}"#, "x".repeat(126));
        for rows in [
            &[r#"{"a":1,"b":2}"#, r#"{"b":1,"a":2}"#, r#"{"a":1,"b":2}"#][..],
            &[r#"{"a":1,"b":2}"#, r#"{"a":1}"#, r#"{"a":1,"b":2}"#],
            &[r#"{"a":1,"b":2}"#, r#"{"a":1, "b":2}"#, r#"{"a":1,"b":2}"#],
            &[r#"{"a":1,"b":2}"#, "[1,2]", r#"{"a":1,"b":2}"#],
            &[r#"{"a":1,"b":2}"#, r#"{"a":1,"b":2"#, r#"{"a":1,"b":2}"#],
            &[
                r#"{"a":1,"b":2} "#,
                r#"{"a":1,"b":2} "#,
                r#"{"a":1,"b":2} "#,
            ],
            &[r#"{"aaaa":1}"#, long.as_str(), r#"{"aaaa":1}"#],
            &[r#"{"aaaa":1}"#],
        ] {
            let batch = json_batch(rows);
            let Column::Json(text) = &batch.values else {
                panic!("a json column");
            };
            assert_eq!(text.pieces, 0, "{rows:?}");
            assert_eq!(text.text, rows.concat());
        }
        assert_eq!(long.len() - r#"{"aaaa":}"#.len(), 128);
    }

    #[test]
    fn text_fits_up_to_u32_max_and_not_a_byte_past() {
        let max = u32::MAX as usize;
        assert!(text_fits(0, 0));
        assert!(text_fits(0, max));
        assert!(!text_fits(0, max + 1));
        assert!(text_fits(max - 5, 5));
        assert!(!text_fits(max - 5, 6));
        assert!(text_fits(max, 0));
        assert!(!text_fits(max, 1));
        assert!(!text_fits(1, usize::MAX), "no overflow on the way");
    }
}
