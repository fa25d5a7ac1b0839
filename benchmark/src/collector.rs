//! `collector_readwrite`: the ingest layer used the other way — writes
//! beside reads, no devices.
//!
//! A seeded stream of `IngestPipeline::append` calls over 16 channels ×
//! 2,000 devices (`I64`/`F64`/`Str`/`Json` templates, whole-batch
//! `MaxRows` retention on half). The sim clock advances 50 ms every 64
//! appends so the age watermarks fire; after every 20,000 appends a read
//! round runs one device-filtered scan, one `since` scan over the last
//! 20 simulated seconds, and one export of that window rotating
//! CSV/JSONL/SenML. An append-side gain that slows scans or eviction
//! shows here and nowhere else. The input is generated before timing.

use std::time::Instant;

use pogo_ingest::{export, ChannelSchema, IngestPipeline, Row, ScanQuery};
use pogo_obs::Obs;
use pogo_sim::{Sim, SimDuration, SimTime};

use crate::gen::{self, CollectorInput};
use crate::metrics::{self, Digest, Values, NOT_APPLICABLE};
use crate::report::Record;
use crate::trace::Tracer;

pub const NAME: &str = "collector_readwrite";
pub const EXP: &str = "rw";

/// Appends at the design size; the gated run uses a quarter.
pub const DESIGN_APPENDS: usize = 6_000_000;
pub const APPENDS: usize = DESIGN_APPENDS / 4;

const APPENDS_PER_TICK: usize = 64;
const TICK: SimDuration = SimDuration::from_millis(50);
const APPENDS_PER_READ_ROUND: usize = 20_000;
const SINCE_WINDOW: SimDuration = SimDuration::from_secs(20);
/// The set-up (generate, build, register) is repeated this many times
/// and its median reported: it is too short for one reading to be steady.
const SETUP_REPEATS: usize = 5;

/// The three exporters the read rounds use (rotated here, all three per
/// round on the fleets): name, span name, function.
type Exporter = (&'static str, &'static str, fn(&[Row]) -> String);
pub const EXPORTERS: [Exporter; 3] = [
    ("csv", "export::to_csv", export::to_csv),
    ("jsonl", "export::to_jsonl", export::to_jsonl),
    ("senml", "export::to_senml", export::to_senml),
];

pub struct Outcome {
    pub record: Record,
    pub write_s: f64,
    pub scan_ms: Vec<f64>,
    pub rows_scanned_share: f64,
    /// `(format, seconds, rows)` summed per export format.
    pub export: [(&'static str, f64, u64); 3],
    pub store_bytes_per_row: f64,
    pub tracer: Tracer,
}

fn build(sim: &Sim, input: &CollectorInput) -> IngestPipeline {
    let pipeline = IngestPipeline::new(sim, &Obs::off());
    for (channel, template, retention) in &input.channels {
        pipeline
            .register(
                EXP,
                channel,
                ChannelSchema::new(*template).retention(*retention),
            )
            .expect("fresh channel registers");
    }
    pipeline
}

pub fn run(appends: usize, seed: u64, traced: bool) -> Outcome {
    let mut tracer = Tracer::new(traced);
    let mut problems = Vec::new();

    // ---- set-up ---------------------------------------------------------
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut rig = None;
    for _ in 0..SETUP_REPEATS {
        drop(rig.take());
        let t = Instant::now();
        let input = gen::collector_input(seed, appends);
        let sim = Sim::new();
        let sp = tracer.begin("IngestPipeline::register");
        let pipeline = build(&sim, &input);
        tracer.end(sp);
        setups.push(t.elapsed().as_secs_f64());
        rig = Some((input, sim, pipeline));
    }
    let setup_s = metrics::median(&setups);
    let (input, sim, pipeline) = rig.expect("set up at least once");
    let CollectorInput {
        channels,
        devices,
        appends: stream,
    } = input;

    // ---- measured: appends with read rounds beside them ---------------------
    let mut failed = 0u64;
    let mut write_s = 0.0;
    let mut scan_ms = Vec::new();
    let mut rows_returned = 0u64;
    let mut rows_resident_at_scans = 0u64;
    let mut export_stats = EXPORTERS.map(|(name, _, _)| (name, 0.0, 0u64));
    let mut export_bytes = 0u64;
    let mut read_digest = Digest::default();
    let mut round = 0usize;
    let t_measured = Instant::now();
    let mut stream = stream.into_iter().enumerate().peekable();
    while stream.peek().is_some() {
        let sp = tracer.begin("append x20k");
        let t = Instant::now();
        for (i, a) in stream.by_ref() {
            let (channel, _, _) = &channels[a.channel as usize];
            if pipeline
                .append(EXP, channel, &devices[a.device as usize], a.value)
                .is_err()
            {
                failed += 1;
            }
            if (i + 1) % APPENDS_PER_TICK == 0 {
                sim.run_for(TICK);
            }
            if (i + 1) % APPENDS_PER_READ_ROUND == 0 {
                break;
            }
        }
        write_s += t.elapsed().as_secs_f64();
        tracer.end(sp);

        // One read round. `flush_all` is the read barrier a collector's
        // `store()` applies before every scan.
        let sp = tracer.begin("read round");
        pipeline.flush_all();
        let store = pipeline.store();
        let device = &devices[(round * 37) % devices.len()];
        let since = SimTime::from_millis(
            sim.now()
                .as_millis()
                .saturating_sub(SINCE_WINDOW.as_millis()),
        );
        let resident = store.rows();
        for query in [
            ScanQuery::exp(EXP).device(device),
            ScanQuery::exp(EXP).since(since),
        ] {
            let sps = tracer.begin("SampleStore::scan");
            let t = Instant::now();
            let rows = store.scan(&query);
            scan_ms.push(t.elapsed().as_secs_f64() * 1e3);
            tracer.end(sps);
            rows_returned += rows.len() as u64;
            rows_resident_at_scans += resident;
            if query.since.is_some() {
                let (_, span, exporter) = EXPORTERS[round % EXPORTERS.len()];
                let slot = &mut export_stats[round % EXPORTERS.len()];
                let spe = tracer.begin(span);
                let t = Instant::now();
                let text = exporter(&rows);
                slot.1 += t.elapsed().as_secs_f64();
                slot.2 += rows.len() as u64;
                tracer.end(spe);
                export_bytes += text.len() as u64;
                read_digest.bytes(text.as_bytes());
            } else if rows.iter().any(|r| r.device != *device) {
                problems.push(format!("device scan for {device} returned another device"));
            }
        }
        tracer.end(sp);
        round += 1;
    }
    let measured_s = t_measured.elapsed().as_secs_f64();

    // ---- output checks: the counter invariant and a full export ------------
    pipeline.flush_all();
    let store = pipeline.store();
    let stats = pipeline.stats();
    let mut counts = Values::new();
    let mut evicted = 0;
    let mut digest = Digest::default();
    for (channel, _, _) in &channels {
        let c = store
            .channel_counters(EXP, channel)
            .expect("registered channel is declared in the store");
        evicted += c.evicted;
        let rows = store.scan(&ScanQuery::exp(EXP).channel(channel));
        if rows.len() as u64 != c.rows {
            problems.push(format!(
                "{channel}: scan returns {} of {} rows",
                rows.len(),
                c.rows
            ));
        }
        digest.bytes(export::to_csv(&rows).as_bytes());
    }
    let accepted = appends as u64 - failed;
    if stats.ingested_rows != accepted || store.rows() + evicted != accepted {
        problems.push(format!(
            "rows {} + evicted {evicted} differs from {accepted} appended",
            store.rows()
        ));
    }
    if stats.schema_mismatches != 0 {
        problems.push(format!("{} schema mismatches", stats.schema_mismatches));
    }
    let scan_s: f64 = scan_ms.iter().sum::<f64>() / 1e3;
    let export_s: f64 = export_stats.iter().map(|e| e.1).sum();
    counts.insert("ingest.rows".into(), stats.ingested_rows as f64);
    counts.insert(
        "ingest.batches_flushed".into(),
        stats.batches_flushed as f64,
    );
    counts.insert("ingest.evicted_rows".into(), evicted as f64);
    counts.insert("ingest.store_rows".into(), store.rows() as f64);
    counts.insert("ingest.store_bytes".into(), store.bytes() as f64);
    counts.insert("read.rounds".into(), round as f64);
    counts.insert("read.rows_returned".into(), rows_returned as f64);
    counts.insert("read.export_bytes".into(), export_bytes as f64);
    counts.insert("sim.events".into(), sim.executed() as f64);
    counts.insert("read.digest".into(), {
        // Fold the read rounds' exports in as a number so one digest
        // covers both what was read on the way and what is left at the end.
        u64::from_str_radix(&read_digest.hex()[..12], 16).expect("hex") as f64
    });
    digest.values(&counts);

    let simulated_s = sim.now().as_secs_f64();
    let mut e2e = Values::new();
    e2e.insert("setup_s".into(), setup_s);
    e2e.insert(
        "sim_speed".into(),
        devices.len() as f64 * simulated_s / measured_s,
    );
    e2e.insert("peak_rss_mb".into(), metrics::vm_hwm_kb() as f64 / 1024.0);
    e2e.insert("ingest_rows_per_s".into(), accepted as f64 / write_s);
    e2e.insert("scan_rows_per_s".into(), rows_returned as f64 / scan_s);
    e2e.insert(
        "export_mb_per_s".into(),
        export_bytes as f64 / 1e6 / export_s,
    );
    for name in [
        "uplink_bytes_per_device_hour",
        "energy_j_per_device_hour",
        "ramp_ups_per_device_day",
        "delivery_age_p50_s",
        "delivery_age_p99_s",
    ] {
        e2e.insert(name.into(), NOT_APPLICABLE);
    }

    let mut info = Values::new();
    info.insert("setup_s".into(), setup_s);
    info.insert("measured_s".into(), measured_s);
    info.insert("write_s".into(), write_s);
    info.insert("appends".into(), appends as f64);
    info.insert("scan_n".into(), scan_ms.len() as f64);
    Outcome {
        record: Record {
            workload: NAME.to_owned(),
            seed,
            mode: if traced { "traced" } else { "plain" }.to_owned(),
            digest: digest.hex(),
            attempted: appends as u64,
            failed,
            problems,
            e2e,
            layer: Values::new(),
            counts,
            info,
        },
        write_s,
        scan_ms,
        rows_scanned_share: rows_returned as f64 / rows_resident_at_scans.max(1) as f64,
        export: export_stats,
        store_bytes_per_row: store.bytes() as f64 / store.rows().max(1) as f64,
        tracer,
    }
}
