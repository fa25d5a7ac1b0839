//! The benchmark's contract with this crate, type-checked in tier-1.
//!
//! `benchmark/` is a package of its own that tier-1 never builds, so a
//! signature drift in `pogo-ingest` would otherwise show only in
//! `ci.sh`'s perf step. This file names every `pogo_ingest` item that
//! `benchmark/README.md` ("what the benchmark uses of the program")
//! lists, with the types the benchmark uses them at: a change that
//! breaks one fails to compile here first. When that list changes,
//! change this file with it.

use pogo_ingest::{
    export, ChannelCounters, ChannelSchema, IngestError, IngestPipeline, IngestStats, Retention,
    Row, SampleStore, SampleValue, ScanQuery, Template,
};
use pogo_obs::Obs;
use pogo_sim::{Sim, SimTime};

#[test]
fn signatures_are_what_the_benchmark_calls() {
    let _: fn(&Sim, &Obs) -> IngestPipeline = IngestPipeline::new;
    let _: fn(&IngestPipeline, &str, &str, ChannelSchema) -> Result<bool, IngestError> =
        IngestPipeline::register;
    let _: fn(&IngestPipeline, &str, &str, &str, SampleValue) -> Result<(), IngestError> =
        IngestPipeline::append;
    let _: fn(&IngestPipeline) = IngestPipeline::flush_all;
    let _: fn(&IngestPipeline) -> SampleStore = IngestPipeline::store;
    let _: fn(&IngestPipeline) -> IngestStats = IngestPipeline::stats;

    let _: fn(&SampleStore, &ScanQuery) -> Vec<Row> = SampleStore::scan;
    let _: fn(&SampleStore, &str, &str) -> Option<ChannelCounters> = SampleStore::channel_counters;
    let _: fn(&SampleStore) -> u64 = SampleStore::rows;
    let _: fn(&SampleStore) -> u64 = SampleStore::bytes;

    let _: fn(&str) -> ScanQuery = ScanQuery::exp;
    let _: fn(ScanQuery, &str) -> ScanQuery = ScanQuery::channel;
    let _: fn(ScanQuery, &str) -> ScanQuery = ScanQuery::device;
    let _: fn(ScanQuery, SimTime) -> ScanQuery = ScanQuery::since;

    let _: fn(Template) -> ChannelSchema = ChannelSchema::new;
    let _: fn() -> ChannelSchema = ChannelSchema::json;
    let _: fn(ChannelSchema, Retention) -> ChannelSchema = ChannelSchema::retention;

    let _: fn(&[Row]) -> String = export::to_csv;
    let _: fn(&[Row]) -> String = export::to_jsonl;
    let _: fn(&[Row]) -> String = export::to_senml;
}

#[test]
fn fields_and_variants_are_what_the_benchmark_reads() {
    // Built and taken apart field by field, so a renamed or retyped
    // field is a compile error.
    let row = Row {
        exp: String::from("rw"),
        channel: String::from("c"),
        device: String::from("d@pogo"),
        at: SimTime::from_millis(5),
        value: SampleValue::Json(String::from("{}")),
    };
    let Row {
        exp,
        channel,
        device,
        at,
        value,
    }: Row = row;
    let _: (String, String, String, SimTime) = (exp, channel, device, at);
    let SampleValue::Json(raw) = value else {
        panic!("built as Json");
    };
    let _: String = raw;
    let _ = [
        SampleValue::I64(1),
        SampleValue::F64(1.0),
        SampleValue::Bool(true),
        SampleValue::Str(String::new()),
    ];
    let _ = [
        Template::I64,
        Template::F64,
        Template::Bool,
        Template::Str,
        Template::Json,
    ];
    let _: bool = Retention::MaxRows(1usize) == Retention::KeepAll;

    let ChannelCounters { rows, evicted, .. } = ChannelCounters::default();
    let _: (u64, u64) = (rows, evicted);
    let IngestStats {
        ingested_rows,
        schema_mismatches,
        batches_flushed,
        ..
    } = IngestStats::default();
    let _: (u64, u64, u64) = (ingested_rows, schema_mismatches, batches_flushed);
    let _: Option<SimTime> = ScanQuery::exp("rw").since;
}
