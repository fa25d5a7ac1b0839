//! # pogo-ingest — the collector's ingestion pipeline
//!
//! Per-(experiment, channel) sample streams are accumulated into typed
//! columnar batches (i64/f64/bool/str/json value columns, a
//! [`pogo_sim::SimTime`] timestamp column and a column of device ids),
//! flushed by size/age watermarks ([`Watermarks`]) into a queryable
//! [`SampleStore`] with per-channel [`Retention`] and time-range /
//! device / channel predicate scans ([`ScanQuery`]), and exported via
//! CSV, JSONL, and SenML-style writers ([`export`]) that reuse the
//! allocation-free JSON writer ([`jsonw`]).
//!
//! The store is indexed for the way a sensing store is read, through
//! per-source time windows: device names are interned once, store-wide,
//! so a device predicate is an integer compare, and timestamps never
//! decrease within a channel, so a time window is found by binary
//! search. A filtered scan examines the rows inside its window, not the
//! rows resident. Batches and their builder are internal: they carry
//! ids that only mean something beside the store's dictionary.
//!
//! This crate sits *below* `pogo-core`: it knows nothing about the
//! message model or the network. The collector extracts a
//! [`SampleValue`] from each inbound message per the channel's
//! declared [`ChannelSchema`] and appends it to the [`IngestPipeline`];
//! everything downstream of that point — batching, retention, scans,
//! export — lives here.

#![warn(missing_docs)]

mod batch;
mod error;
pub mod export;
pub mod jsonw;
mod pipeline;
mod schema;
mod store;

pub use batch::Watermarks;
pub use error::IngestError;
pub use pipeline::{IngestPipeline, IngestStats};
pub use schema::{ChannelSchema, Retention, SampleValue, Template};
pub use store::{ChannelCounters, Row, SampleStore, ScanQuery};
