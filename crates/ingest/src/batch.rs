//! Typed columnar batches and the watermark-driven batch builder.
//!
//! A [`Batch`] is the unit the store ingests: one (experiment, channel)
//! slice of samples laid out column-wise — a [`SimTime`] timestamp
//! column, a dictionary-encoded device column, and one typed value
//! column ([`Column`]). The [`BatchBuilder`] accumulates appends and
//! reports when a size watermark is crossed; the age watermark is a
//! sim-timer the pipeline arms when a builder goes non-empty.

use std::collections::HashMap;

use pogo_sim::{SimDuration, SimTime};

use crate::error::IngestError;
use crate::schema::{SampleValue, Template};

/// One typed value column. All variants hold exactly as many entries
/// as the batch has rows.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
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

    /// Number of rows in the column.
    pub fn len(&self) -> usize {
        match self {
            Column::I64(v) => v.len(),
            Column::F64(v) => v.len(),
            Column::Bool(v) => v.len(),
            Column::Str(v) => v.len(),
            Column::Json(v) => v.len(),
        }
    }

    /// Whether the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value at `row`, materialized.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    pub fn value(&self, row: usize) -> SampleValue {
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
pub struct Batch {
    /// Experiment the samples belong to.
    pub exp: String,
    /// Channel the samples arrived on.
    pub channel: String,
    /// Device dictionary; `device_idx` indexes into it.
    pub devices: Vec<String>,
    /// Per-row index into `devices`.
    pub device_idx: Vec<u32>,
    /// Per-row ingestion timestamp (monotone within the batch).
    pub at: Vec<SimTime>,
    /// The typed value column.
    pub values: Column,
}

impl Batch {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.at.len()
    }

    /// The device name for `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    pub fn device(&self, row: usize) -> &str {
        &self.devices[self.device_idx[row] as usize]
    }

    /// Approximate resident size: columns plus the device dictionary.
    pub fn approx_bytes(&self) -> u64 {
        let dict: u64 = self.devices.iter().map(|d| d.len() as u64 + 24).sum();
        dict + self.device_idx.len() as u64 * 4
            + self.at.len() as u64 * 8
            + self.values.approx_bytes()
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
pub struct BatchBuilder {
    exp: String,
    channel: String,
    template: Template,
    watermarks: Watermarks,
    devices: Vec<String>,
    device_idx: Vec<u32>,
    at: Vec<SimTime>,
    values: Column,
    /// Every device this builder has seen → `(batch, index)`: its place
    /// in the dictionary of the batch numbered `batch`. An entry from an
    /// earlier batch is stale and overwritten, so a flush clears nothing.
    device_index: HashMap<String, (u64, u32)>,
    /// Number of the batch being built.
    batch: u64,
}

impl BatchBuilder {
    /// A fresh builder for `exp`/`channel` with the given template.
    pub fn new(exp: &str, channel: &str, template: Template, watermarks: Watermarks) -> Self {
        BatchBuilder {
            exp: exp.to_owned(),
            channel: channel.to_owned(),
            template,
            watermarks,
            devices: Vec::new(),
            device_idx: Vec::new(),
            at: Vec::new(),
            values: Column::empty(template),
            device_index: HashMap::new(),
            batch: 0,
        }
    }

    /// Rows currently pending (not yet flushed).
    pub fn pending_rows(&self) -> usize {
        self.at.len()
    }

    /// Timestamp of the oldest pending sample, if any.
    pub fn oldest(&self) -> Option<SimTime> {
        self.at.first().copied()
    }

    /// The builder's age watermark.
    pub fn max_age(&self) -> SimDuration {
        self.watermarks.max_age
    }

    /// Appends one sample. Returns `true` when the size watermark is
    /// reached and the caller should [`BatchBuilder::flush`].
    ///
    /// # Errors
    ///
    /// [`IngestError::SchemaMismatch`] when the value does not belong
    /// in this builder's typed column; the builder is unchanged.
    pub fn append(
        &mut self,
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
        let next = (self.batch, self.devices.len() as u32);
        let idx = match self.device_index.get_mut(device) {
            Some(&mut (batch, idx)) if batch == self.batch => idx,
            seen => {
                match seen {
                    Some(stale) => *stale = next,
                    None => {
                        self.device_index.insert(device.to_owned(), next);
                    }
                }
                self.devices.push(device.to_owned());
                next.1
            }
        };
        self.device_idx.push(idx);
        self.at.push(at);
        self.values.push(value);
        Ok(self.at.len() >= self.watermarks.max_rows)
    }

    /// Drains the pending rows into a [`Batch`]; `None` when empty.
    pub fn flush(&mut self) -> Option<Batch> {
        if self.at.is_empty() {
            return None;
        }
        self.batch += 1;
        let batch = Batch {
            exp: self.exp.clone(),
            channel: self.channel.clone(),
            devices: std::mem::take(&mut self.devices),
            device_idx: std::mem::take(&mut self.device_idx),
            at: std::mem::take(&mut self.at),
            values: Column::empty(self.template),
        };
        let values = std::mem::replace(&mut self.values, Column::empty(self.template));
        Some(Batch { values, ..batch })
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
        let mut b = BatchBuilder::new(
            "e",
            "c",
            Template::I64,
            Watermarks {
                max_rows: 3,
                max_age: SimDuration::from_secs(60),
            },
        );
        assert!(!b.append("d1", t(1), SampleValue::I64(1)).unwrap());
        assert!(!b.append("d2", t(2), SampleValue::I64(2)).unwrap());
        assert!(b.append("d1", t(3), SampleValue::I64(3)).unwrap());
        let batch = b.flush().expect("non-empty");
        assert_eq!(batch.rows(), 3);
        assert_eq!(batch.devices, vec!["d1", "d2"]);
        assert_eq!(batch.device(2), "d1");
        assert_eq!(batch.values, Column::I64(vec![1, 2, 3]));
        assert_eq!(b.pending_rows(), 0);
        assert!(b.flush().is_none(), "flush drained the builder");
    }

    #[test]
    fn device_dictionary_restarts_with_every_batch() {
        let mut b = BatchBuilder::new("e", "c", Template::I64, Watermarks::default());
        for (device, v) in [("d1", 1), ("d2", 2), ("d1", 3)] {
            b.append(device, t(1), SampleValue::I64(v)).unwrap();
        }
        let first = b.flush().unwrap();
        assert_eq!(first.devices, vec!["d1", "d2"]);
        assert_eq!(first.device_idx, vec![0, 1, 0]);
        // Known devices take their place in order of appearance again.
        for (device, v) in [("d2", 4), ("d3", 5), ("d2", 6), ("d1", 7)] {
            b.append(device, t(2), SampleValue::I64(v)).unwrap();
        }
        let second = b.flush().unwrap();
        assert_eq!(second.devices, vec!["d2", "d3", "d1"]);
        assert_eq!(second.device_idx, vec![0, 1, 0, 2]);
    }

    #[test]
    fn mismatch_rejects_without_mutating() {
        let mut b = BatchBuilder::new("e", "c", Template::I64, Watermarks::default());
        let err = b
            .append("d", t(1), SampleValue::Str("no".into()))
            .unwrap_err();
        assert_eq!(err.code(), "INGEST_SCHEMA_MISMATCH");
        assert_eq!(b.pending_rows(), 0);
    }

    #[test]
    fn batch_bytes_account_for_strings() {
        let mut b = BatchBuilder::new("e", "c", Template::Str, Watermarks::default());
        b.append("d", t(1), SampleValue::Str("hello".into()))
            .unwrap();
        let batch = b.flush().unwrap();
        assert!(batch.approx_bytes() > "hello".len() as u64);
    }
}
