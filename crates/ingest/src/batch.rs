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
    Str(Vec<String>),
    /// Pre-serialized compact JSON trees.
    Json(Vec<String>),
}

impl Column {
    fn empty(template: Template) -> Column {
        match template {
            Template::I64 => Column::I64(Vec::new()),
            Template::F64 => Column::F64(Vec::new()),
            Template::Bool => Column::Bool(Vec::new()),
            Template::Str => Column::Str(Vec::new()),
            Template::Json => Column::Json(Vec::new()),
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
            Column::Str(v) => SampleValue::Str(v[row].clone()),
            Column::Json(v) => SampleValue::Json(v[row].clone()),
        }
    }

    fn push(&mut self, value: SampleValue) {
        match (self, value) {
            (Column::I64(v), SampleValue::I64(x)) => v.push(x),
            (Column::F64(v), SampleValue::F64(x)) => v.push(x),
            (Column::Bool(v), SampleValue::Bool(x)) => v.push(x),
            (Column::Str(v), SampleValue::Str(x)) => v.push(x),
            (Column::Json(v), SampleValue::Json(x)) => v.push(x),
            _ => unreachable!("append type-checks against the template first"),
        }
    }

    fn approx_bytes(&self) -> u64 {
        match self {
            Column::I64(v) => v.len() as u64 * 8,
            Column::F64(v) => v.len() as u64 * 8,
            Column::Bool(v) => v.len() as u64,
            Column::Str(v) | Column::Json(v) => v.iter().map(|s| s.len() as u64 + 24).sum(),
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

    /// Approximate resident size of the three columns. The device names
    /// are the store's, accounted there once.
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

    /// Appends one sample, interning `device` in `store`'s dictionary.
    /// Returns `true` when the size watermark is reached and the caller
    /// should [`BatchBuilder::flush`].
    ///
    /// # Errors
    ///
    /// [`IngestError::SchemaMismatch`] when the value does not belong
    /// in this builder's typed column; builder and dictionary are
    /// unchanged.
    pub(crate) fn append(
        &mut self,
        store: &SampleStore,
        device: &str,
        at: SimTime,
        value: SampleValue,
    ) -> Result<bool, IngestError> {
        if !value.matches(self.template) {
            return Err(IngestError::SchemaMismatch {
                exp: self.exp.clone(),
                channel: self.channel.clone(),
                device: device.to_owned(),
                expected: self.template,
                got: value.type_name().to_owned(),
            });
        }
        self.device_idx.push(store.intern_device(device));
        self.at.push(at);
        self.values.push(value);
        Ok(self.at.len() >= self.watermarks.max_rows)
    }

    /// Drains the pending rows into a [`Batch`]; `None` when empty.
    pub(crate) fn flush(&mut self) -> Option<Batch> {
        if self.at.is_empty() {
            return None;
        }
        Some(Batch {
            exp: self.exp.clone(),
            channel: self.channel.clone(),
            device_idx: std::mem::take(&mut self.device_idx),
            at: std::mem::take(&mut self.at),
            values: std::mem::replace(&mut self.values, Column::empty(self.template)),
        })
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

    #[test]
    fn batch_bytes_account_for_strings() {
        let store = SampleStore::new();
        let mut b = BatchBuilder::new("e", "c", Template::Str, Watermarks::default());
        b.append(&store, "d", t(1), SampleValue::Str("hello".into()))
            .unwrap();
        let batch = b.flush().unwrap();
        assert!(batch.approx_bytes() > "hello".len() as u64);
    }
}
