//! Deterministic work counter for the sample path: heap allocations per
//! stored sample, from sensor tick to ingest row.
//!
//! Wall-clock numbers belong to `pogo-benchmark`; this is the count that
//! repeats exactly on any machine, so it can be gated tightly. Two small
//! fleets mirror the benchmark's two uplink-heavy workloads — a scriptless
//! uplink fleet (accelerometer at 5 s, battery at 60 s, 30 s interval
//! flush, 1 % link loss so retransmit and dedup run) and a tail-sync
//! cohort (battery at 60 s, e-mail app, Pogo's default flush policy) — and
//! the test fails when a run allocates more per stored sample than the
//! budget below, or leaves more heap bytes held per stored sample: what
//! the collector's store costs to keep a sample, which is what a
//! many-phone, many-day deployment piles up. A `clone()` creeping back
//! onto the path shows up here before it shows up in any timing. On the
//! uplink fleet it also gates the data envelopes the devices send per
//! stored sample: above one by the copies a lossy link needs, and by
//! nothing more while a flush never resends what is still in flight. Those
//! bytes mix the store with the simulation around it, so a fourth gauge
//! takes the store alone: 10,000 `battery` and 10,000 `accelerometer`
//! values, in the fleets' own JSON shapes, appended to a bare pipeline
//! and flushed, with the heap bytes held per stored row gated. The same
//! two stores gauge the read path: the allocator calls one CSV, JSONL or
//! SenML export of the whole store makes, pinned exactly, not gated.
//!
//! A third fleet is the gauge for the script path: `scan.js` and
//! `clustering.js` on every device, one Wi-Fi scan a minute, as in the
//! benchmark's `fleet_localization`. It reports allocator calls per
//! delivered scan and VM steps per script callback — the two counts a
//! change to the compiler's lowering or to the value representation
//! moves — and gates both, and with them the heap bytes the thread still
//! holds per device when the run ends: what a phone's scripts, logs and
//! buffers have grown to, which is what a fleet's size multiplies, and
//! the part of that a phone's `raw-scans` log holds, the one state that
//! grows with the run. Every gate is the count read when the constants below were last re-based,
//! plus 3 %. Beside the steps it reports VM dispatches per callback: a
//! step is one op of the verified ISA and is what the watchdog bills, a
//! dispatch is one trip round the VM's loop, and a fused instruction
//! makes one trip for all the ops it stands for. The steps are pinned
//! exactly (the VM may change what a step costs, never what a step is);
//! the dispatches are gated against them.
//!
//! The counting `#[global_allocator]` is why this is its own test binary;
//! it is the repository's only `unsafe`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;

use pogo::core::{Broker, ChannelFilter, FleetSpec, Msg, Scheduler, ScriptHost, Testbed};
use pogo::ingest::{export, ChannelSchema, IngestPipeline, Row, SampleValue, ScanQuery};
use pogo::net::{FlushPolicy, LinkShape};
use pogo::obs::Obs;
use pogo::platform::{Cpu, CpuConfig, EnergyMeter, NetAppConfig, PeriodicNetApp};
use pogo::sim::{Sim, SimDuration};
use pogo_core::host::{FrozenSlot, LogStore};
use pogo_core::proto::ExperimentSpec;
use pogo_core::sensor::{AccelSample, SensorSources, WifiReading};

thread_local! {
    /// Allocator calls made by this thread. Const-initialised and without
    /// a destructor, so reading it never allocates and it outlives every
    /// other thread-local.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread has allocated and not freed, by the sizes asked
    /// for. Signed: a thread may free what another allocated.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

/// The system allocator, counting `alloc`, `alloc_zeroed` and `realloc`
/// calls and the bytes outstanding per thread (the harness's other
/// threads do not disturb a test's count).
struct Counting;

fn count() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

fn resize(from: usize, to: usize) {
    let _ = LIVE.try_with(|n| n.set(n.get() - from as i64 + to as i64));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a thread-local
// bump of two counters that neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        resize(0, layout.size());
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        resize(0, layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        resize(layout.size(), new_size);
        // SAFETY: `ptr` came from this allocator, that is from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        resize(layout.size(), 0);
        // SAFETY: `ptr` came from this allocator, that is from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

fn live_bytes() -> i64 {
    LIVE.with(Cell::get)
}

const EXP: &str = "budget";
const DEVICES: usize = 20;
const MINUTE: SimDuration = SimDuration::from_mins(1);
const WARMUP_MIN: u64 = 5;
const MEASURED_MIN: u64 = 10;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Fleet {
    Uplink,
    Tailsync,
}

impl Fleet {
    fn channels(self) -> &'static [(&'static str, f64)] {
        match self {
            Fleet::Uplink => &[("accelerometer", 5_000.0), ("battery", 60_000.0)],
            Fleet::Tailsync => &[("battery", 60_000.0)],
        }
    }

    fn spec(self) -> FleetSpec {
        let spec = FleetSpec::new(DEVICES).prefix("phone").seed(13);
        match self {
            Fleet::Uplink => spec
                .configure(|_, c| {
                    c.with_flush_policy(FlushPolicy::Interval(SimDuration::from_secs(30)))
                })
                .sensors(|_, rng| {
                    let mut rng = rng.clone();
                    SensorSources {
                        accelerometer: Some(Box::new(move |t_ms| {
                            Some(AccelSample {
                                x: t_ms as f64,
                                y: (rng.range_f64(-0.5, 0.5) * 1000.0).round() / 1000.0,
                                z: 9.81,
                            })
                        })),
                        ..SensorSources::default()
                    }
                }),
            Fleet::Tailsync => spec,
        }
    }
}

/// `(allocator calls, samples stored, heap bytes still held, data
/// envelopes the devices sent)` over the measured window: the third is
/// what the window's samples cost to keep, in the collector's store above
/// all.
fn measure(fleet: Fleet) -> (u64, u64, i64, u64) {
    let sim = Sim::new();
    let mut testbed = Testbed::new(&sim);
    testbed.server().reseed_link_rng(0x5eed);
    let members = testbed.add_fleet(fleet.spec());
    let collector = testbed.collector();
    for (channel, interval_ms) in fleet.channels() {
        collector
            .registry()
            .register_with_params(
                EXP,
                channel,
                Msg::obj([("interval", Msg::Num(*interval_ms))]),
                ChannelSchema::json(),
            )
            .expect("fresh channel registers");
    }
    // The benchmark's fleets carry one push consumer; so does this one.
    let delivered = Rc::new(Cell::new(0u64));
    let seen = delivered.clone();
    collector.attach_listener(ChannelFilter::exp(EXP), move |_| seen.set(seen.get() + 1));
    collector
        .deployment(&ExperimentSpec {
            id: EXP.into(),
            scripts: vec![],
        })
        .to(&members.jids())
        .send()
        .expect("an empty deployment passes the gate");
    let mut apps = Vec::new();
    for (i, m) in members.iter().enumerate() {
        match fleet {
            Fleet::Uplink => testbed.server().shape_link(
                &m.device.jid(),
                LinkShape {
                    loss: 0.01,
                    ..LinkShape::default()
                },
            ),
            Fleet::Tailsync => apps.push(PeriodicNetApp::install(
                &m.phone,
                NetAppConfig {
                    start_offset: SimDuration::from_secs(60 + 12 * i as u64),
                    ..NetAppConfig::email()
                },
            )),
        }
    }
    testbed.run_lockstep(MINUTE.mul(WARMUP_MIN), MINUTE);

    let rows_before = collector.stats().ingest.ingested_rows;
    let delivered_before = delivered.get();
    let sent = || {
        members
            .iter()
            .map(|m| m.device.messages_sent())
            .sum::<u64>()
    };
    let sent_before = sent();
    let allocs_before = allocs();
    let live_before = live_bytes();
    testbed.run_lockstep(MINUTE.mul(MEASURED_MIN), MINUTE);
    let spent = allocs() - allocs_before;
    let held = live_bytes() - live_before;
    let sent = sent() - sent_before;
    let rows = collector.stats().ingest.ingested_rows - rows_before;
    assert_eq!(
        delivered.get() - delivered_before,
        rows,
        "every stored sample reached the listener"
    );
    assert_eq!(
        collector.stats().errors_logged,
        0,
        "{fleet:?} logged errors"
    );
    (spent, rows, held, sent)
}

/// Allocator calls per stored sample, the heap bytes a stored sample
/// leaves held and, on the uplink fleet, the data envelopes the devices
/// sent per stored sample, that this same test read at the parent commit
/// (dde1187, where each flush resent every unacked message, those whose
/// acks were still on their way included) and reads at this one (a flush
/// sends only the messages not in flight).
const PARENT_UPLINK: f64 = 23.9;
const PARENT_TAILSYNC: f64 = 25.0;
const PARENT_UPLINK_LIVE: f64 = 77.4;
const PARENT_TAILSYNC_LIVE: f64 = 233.3;
const PARENT_UPLINK_SENT: f64 = 1.221;
const UPLINK: f64 = 22.9;
const TAILSYNC: f64 = 25.0;
const UPLINK_LIVE: f64 = 72.0;
const TAILSYNC_LIVE: f64 = 233.3;
const UPLINK_SENT: f64 = 1.023;

/// The gate on every count in this file: what this commit reads plus
/// 3 %. The counts repeat exactly, so the headroom is for deliberate
/// small additions, not for noise; a change that lowers a count lowers
/// its constant with it.
const HEADROOM: f64 = 1.03;

#[test]
fn sample_path_allocations_stay_within_budget_and_repeat_exactly() {
    for (fleet, least_rows, [parent, now], [parent_live, now_live]) in [
        (
            Fleet::Uplink,
            2_000,
            [PARENT_UPLINK, UPLINK],
            [PARENT_UPLINK_LIVE, UPLINK_LIVE],
        ),
        (
            Fleet::Tailsync,
            150,
            [PARENT_TAILSYNC, TAILSYNC],
            [PARENT_TAILSYNC_LIVE, TAILSYNC_LIVE],
        ),
    ] {
        let first = measure(fleet);
        let second = measure(fleet);
        assert_eq!(first, second, "{fleet:?}: two runs must count the same");
        let (spent, rows, held, sent) = first;
        assert!(rows >= least_rows, "{fleet:?} stored only {rows} samples");
        if fleet == Fleet::Uplink {
            let sent_per_sample = sent as f64 / rows as f64;
            println!(
                "{fleet:?}: {sent} data envelopes sent / {rows} samples = {sent_per_sample:.3} per \
                 stored sample (parent {PARENT_UPLINK_SENT:.3})"
            );
            assert!(
                sent_per_sample <= HEADROOM * UPLINK_SENT,
                "{fleet:?}: {sent_per_sample:.3} data envelopes sent per stored sample exceeds \
                 {:.3} ({UPLINK_SENT:.3} at the last re-base, plus 3 %)",
                HEADROOM * UPLINK_SENT,
            );
        }
        let per_sample = spent as f64 / rows as f64;
        let live_per_sample = held as f64 / rows as f64;
        println!("{fleet:?}: {spent} allocations / {rows} samples = {per_sample:.1} per sample (parent {parent:.1})");
        println!(
            "{fleet:?}: {held} live heap bytes / {rows} samples = {live_per_sample:.1} per \
             stored sample (parent {parent_live:.1})"
        );
        for (what, got, now) in [
            ("allocations per stored sample", per_sample, now),
            (
                "live heap bytes per stored sample",
                live_per_sample,
                now_live,
            ),
        ] {
            assert!(
                got <= HEADROOM * now,
                "{fleet:?}: {got:.1} {what} exceeds {:.1} ({now:.1} at the last re-base, plus 3 %)",
                HEADROOM * now,
            );
        }
    }
}

/// A bare pipeline with one JSON channel, `channel`, registered.
fn bare_pipeline(sim: &Sim, channel: &str) -> IngestPipeline {
    let pipeline = IngestPipeline::new(sim, &Obs::off());
    pipeline
        .register(EXP, channel, ChannelSchema::json())
        .expect("fresh channel registers");
    pipeline
}

/// Appends [`STORE_ROWS`] values of `channel`, in the shape its fleet's
/// sensor sends, and flushes.
fn fill_store(pipeline: &IngestPipeline, channel: &str) {
    for i in 0..STORE_ROWS {
        let t_ms = 5_000 * i;
        let msg = if channel == "battery" {
            let level = 1.0 - i as f64 / 7_919.0;
            Msg::obj([
                ("voltage", Msg::Num(3.5 + 0.7 * level)),
                ("level", Msg::Num(level)),
                ("charging", Msg::Bool(i % 7 == 0)),
                ("timestamp", Msg::Num(t_ms as f64)),
            ])
        } else {
            let sample = AccelSample {
                x: t_ms as f64,
                y: ((i % 1_000) as f64 - 500.0) / 1_000.0,
                z: 9.81,
            };
            Msg::obj([
                ("x", Msg::Num(sample.x)),
                ("y", Msg::Num(sample.y)),
                ("z", Msg::Num(sample.z)),
                ("magnitude", Msg::Num(sample.magnitude())),
            ])
        };
        let device = format!("phone{}", i % DEVICES as u64);
        pipeline
            .append(EXP, channel, &device, SampleValue::Json(msg.to_json()))
            .expect("a json value ingests");
    }
    pipeline.flush_all();
    assert_eq!(pipeline.store().rows(), STORE_ROWS);
}

/// Heap bytes a bare pipeline holds after taking [`STORE_ROWS`] values of
/// one channel, in the shape its fleet's sensor sends, and flushing: the
/// store alone, without the simulation around it that the per-sample
/// counts above include.
fn store_live_bytes(channel: &str) -> i64 {
    let sim = Sim::new();
    let pipeline = bare_pipeline(&sim, channel);
    let live_before = live_bytes();
    fill_store(&pipeline, channel);
    live_bytes() - live_before
}

const STORE_ROWS: u64 = 10_000;
/// Heap bytes per stored row that `store_live_bytes` read at the parent commit (91ca331, every
/// JSON row kept its keys) and reads at this one (a batch of same-keyed
/// objects keeps them once).
const PARENT_BATTERY_ROW_LIVE: f64 = 116.0;
const PARENT_ACCEL_ROW_LIVE: f64 = 84.2;
const BATTERY_ROW_LIVE: f64 = 74.4;
const ACCEL_ROW_LIVE: f64 = 59.5;

#[test]
fn store_resident_bytes_per_row_stay_within_budget_and_repeat_exactly() {
    for (channel, parent, now) in [
        ("battery", PARENT_BATTERY_ROW_LIVE, BATTERY_ROW_LIVE),
        ("accelerometer", PARENT_ACCEL_ROW_LIVE, ACCEL_ROW_LIVE),
    ] {
        // On threads of their own, as the localization runs below: both
        // start with empty per-thread tables.
        let run = || {
            let thread = std::thread::spawn(move || store_live_bytes(channel));
            thread.join().expect("the run does not panic")
        };
        let held = run();
        assert_eq!(held, run(), "{channel}: two runs must count the same");
        let got = held as f64 / STORE_ROWS as f64;
        println!(
            "Store {channel}: {held} live heap bytes / {STORE_ROWS} rows = {got:.1} per \
             stored row, the store alone (parent {parent:.1})"
        );
        assert!(
            got <= HEADROOM * now,
            "{channel}: {got:.1} live heap bytes per stored row exceeds {:.1} ({now:.1} at the \
             last re-base, plus 3 %)",
            HEADROOM * now,
        );
    }
}

/// Allocator calls one export of a whole [`STORE_ROWS`]-row store makes,
/// CSV / JSONL / SenML, that this same test read at the parent commit
/// (1f7b4ba, each exporter grew its `String` by doubling) and reads at
/// this one (each sizes its `String` from the rows before the first
/// byte). Pinned exactly: the rows are JSON values, so nothing falls
/// back to growth.
const PARENT_EXPORT_ALLOCS: [(&str, [u64; 3]); 2] =
    [("battery", [19, 19, 23]), ("accelerometer", [19, 19, 24])];
const EXPORT_ALLOCS: [u64; 3] = [1, 1, 1];

#[test]
fn export_allocations_are_pinned_exactly() {
    for (channel, parent) in PARENT_EXPORT_ALLOCS {
        let sim = Sim::new();
        let pipeline = bare_pipeline(&sim, channel);
        fill_store(&pipeline, channel);
        let rows = pipeline.store().scan(&ScanQuery::exp(EXP));
        let exporters: [fn(&[Row]) -> String; 3] =
            [export::to_csv, export::to_jsonl, export::to_senml];
        let spent = exporters.map(|exporter| {
            let before = allocs();
            let text = exporter(&rows);
            let spent = allocs() - before;
            assert!(!text.is_empty());
            spent
        });
        let [csv, jsonl, senml] = spent;
        let [p_csv, p_jsonl, p_senml] = parent;
        println!(
            "Store {channel}: {csv} / {jsonl} / {senml} allocations (CSV / JSONL / SenML) per \
             export of {STORE_ROWS} rows (parent {p_csv} / {p_jsonl} / {p_senml})"
        );
        assert_eq!(
            spent, EXPORT_ALLOCS,
            "{channel}: allocator calls per export"
        );
    }
}

/// Allocator calls and heap bytes (the sizes asked for) `run` costs per
/// unit of `n`, from a run at `n` and one at `2 * n`, each in an
/// interpreter made for it after a warm-up run has filled the thread's
/// tables: what every further unit costs, the fixed costs cancelled.
fn per_unit(n: u64, run: fn(u64) -> (u64, i64)) -> (f64, f64) {
    let thread = std::thread::spawn(move || {
        run(8);
        let (a1, b1) = run(n);
        let (a2, b2) = run(2 * n);
        ((a2 - a1) as f64 / n as f64, (b2 - b1) as f64 / n as f64)
    });
    thread.join().expect("the run does not panic")
}

/// Runs a chain of `n` two-key object literals, each holding the one
/// before it, and counts what it allocates and still holds.
fn object_literals(n: u64) -> (u64, i64) {
    let program = pogo_script::compile(&format!(
        "var head = null;\nfor (var i = 0; i < {n}; i++) {{ head = {{ b: i, l: head }}; }}"
    ))
    .expect("compiles");
    let mut interp = pogo_script::Interpreter::new();
    let (allocs_before, live_before) = (allocs(), live_bytes());
    interp.run_compiled(&program).expect("runs");
    (allocs() - allocs_before, live_bytes() - live_before)
}

/// Makes `n` script hosts, the Pogo API installed on each, and counts
/// what that allocates and holds.
fn script_hosts(n: u64) -> (u64, i64) {
    let sim = Sim::new();
    let meter = EnergyMeter::new(&sim);
    let cpu = Cpu::new(&sim, &meter, CpuConfig::default());
    let (broker, scheduler) = (Broker::new(), Scheduler::new(&cpu));
    let (allocs_before, live_before) = (allocs(), live_bytes());
    let hosts: Vec<ScriptHost> = (0..n)
        .map(|_| {
            ScriptHost::new(
                "s.js",
                &broker,
                &scheduler,
                FrozenSlot::new(),
                LogStore::new(),
            )
        })
        .collect();
    let spent = (allocs() - allocs_before, live_bytes() - live_before);
    drop(hosts);
    spent
}

/// What one two-key object literal and one script host with the Pogo
/// API cost, read with this test at the parent commit (fda8950: an
/// object's `Rc` box and its values' slice, 56 + 48 bytes; every
/// interpreter with its own natives, global names and name table) and at
/// this one (one 104-byte box holding two values and an empty overflow
/// slice, a 112-byte chunk where the two took 128; one set of natives per
/// thread, names from the key interner). Pinned exactly. The host's bytes
/// include its `Vec` slot here.
const PARENT_PER_OBJECT: (f64, f64) = (2.0, 104.0);
const PARENT_PER_HOST: (f64, f64) = (122.0, 5628.0);
const PER_OBJECT: (f64, f64) = (1.0, 104.0);
const PER_HOST: (f64, f64) = (11.0, 2420.0);

#[test]
fn script_object_and_host_footprints_are_pinned_exactly() {
    let got = [per_unit(1_000, object_literals), per_unit(50, script_hosts)];
    for (what, got, parent) in [
        ("two-key object literal", got[0], PARENT_PER_OBJECT),
        ("script host with the Pogo API", got[1], PARENT_PER_HOST),
    ] {
        println!(
            "Script: {:.1} allocations, {:.1} live heap bytes per {what}, each after the \
             first on a thread (parent {:.1}, {:.1})",
            got.0, got.1, parent.0, parent.1
        );
    }
    assert_eq!(got, [PER_OBJECT, PER_HOST], "allocations and heap bytes");
}

/// What a localization fleet costs over an hour, after the hour that
/// fills `clustering.js`'s 60-scan window, and what it still holds then.
#[derive(Debug, PartialEq)]
struct Localization {
    allocs: u64,
    scans: u64,
    steps: u64,
    dispatches: u64,
    callbacks: u64,
    /// Heap bytes outstanding at the end of the second hour that were not
    /// at the start of the first: fleet, testbed and per-thread tables.
    live_bytes: i64,
    /// Heap bytes the phones' `raw-scans` logs hold then, summed: each
    /// phone's lines appended in order to a store of its own, what that
    /// store holds counted.
    log_bytes: i64,
}

/// Every phone alternates between two neighbourhoods of five access
/// points, 25 to 44 minutes in each, so places open, close and are
/// published inside the window.
fn measure_localization() -> Localization {
    let live_before = live_bytes();
    const HOUR_MIN: u64 = 60;
    let sim = Sim::new();
    let mut testbed = Testbed::new(&sim);
    let spec = FleetSpec::new(DEVICES)
        .prefix("phone")
        .seed(13)
        .configure(|_, c| c.with_flush_policy(FlushPolicy::Interval(SimDuration::from_secs(90))))
        .sensors(|i, rng| {
            let mut rng = rng.clone();
            let dwell_ms = (25 + i as u64) * 60_000;
            SensorSources {
                wifi_scan: Some(Box::new(move |t_ms| {
                    let side = (t_ms / dwell_ms) % 2;
                    Some(
                        (0..5)
                            .map(|j| WifiReading {
                                bssid: format!("00:00:{i:02x}:00:0{side}:{j:02x}"),
                                rssi_dbm: -55.0 - 4.0 * j as f64
                                    + (rng.range_f64(-1.5, 1.5) * 100.0).round() / 100.0,
                            })
                            .collect(),
                    )
                })),
                ..SensorSources::default()
            }
        });
    let members = testbed.add_fleet(spec);
    let collector = testbed.collector();
    collector
        .registry()
        .register_with_params(EXP, "locations", Msg::Null, ChannelSchema::json())
        .expect("fresh channel registers");
    collector
        .deployment(&pogo::glue::localization_experiment(EXP))
        .to(&members.jids())
        .send()
        .expect("the paper's scripts pass pre-deployment analysis");

    let script_counts = || {
        let (mut scans, mut steps, mut dispatches, mut callbacks) = (0, 0, 0, 0);
        for m in members.iter() {
            scans += m.device.sensors().sample_count("wifi-scan");
            let ctx = m.device.context(EXP).expect("the experiment is deployed");
            for host in ctx.scripts() {
                assert!(host.errors().is_empty(), "{:?}", host.errors());
                assert_eq!(host.watchdog_trips(), 0);
                steps += host.steps_used();
                dispatches += host.dispatches_used();
                callbacks += host.callbacks_run();
            }
        }
        (scans, steps, dispatches, callbacks)
    };
    testbed.run_lockstep(MINUTE.mul(HOUR_MIN), MINUTE);
    let (scans_before, steps_before, dispatches_before, callbacks_before) = script_counts();
    let rows_before = collector.stats().ingest.ingested_rows;
    let allocs_before = allocs();
    testbed.run_lockstep(MINUTE.mul(HOUR_MIN), MINUTE);
    let spent = allocs() - allocs_before;
    let (scans, steps, dispatches, callbacks) = script_counts();
    assert!(
        collector.stats().ingest.ingested_rows - rows_before >= DEVICES as u64,
        "every phone's places reach the store"
    );
    let live = live_bytes() - live_before;
    let mut log_bytes = 0;
    for m in members.iter() {
        let lines = m.device.logs().lines("raw-scans");
        let held_before = live_bytes();
        let log = LogStore::new();
        for line in &lines {
            log.append("raw-scans", line);
        }
        log_bytes += live_bytes() - held_before;
        assert_eq!(log.lines("raw-scans"), lines);
    }
    Localization {
        allocs: spent,
        scans: scans - scans_before,
        steps: steps - steps_before,
        dispatches: dispatches - dispatches_before,
        callbacks: callbacks - callbacks_before,
        live_bytes: live,
        log_bytes,
    }
}

/// What this same test read at the parent commit (fda8950) and reads at
/// this one: the same steps and log, fewer allocations (a small object is
/// one) and fewer live bytes (one set of natives per thread, no name
/// table, one pool of VM stacks per thread).
const PARENT_ALLOCS_PER_SCAN: f64 = 136.0;
const PARENT_LIVE_PER_DEVICE: f64 = 117_116.0;
const PARENT_LOG_PER_DEVICE: f64 = 10_774.0;
const ALLOCS_PER_SCAN: f64 = 117.8;
const STEPS: u64 = 3_579_138;
const STEPS_PER_CALLBACK: f64 = 1516.6;
const LIVE_PER_DEVICE: f64 = 106_975.0;
const LOG_PER_DEVICE: f64 = 10_774.0;
/// Most dispatches the VM may make per step on this fleet.
const DISPATCHES_PER_STEP: f64 = 0.55;

#[test]
fn script_path_allocations_and_steps_stay_within_budget_and_repeat_exactly() {
    // Each run on a thread of its own: both start with empty per-thread
    // tables (compiled chunks, interned keys, shapes), so what the second
    // still holds at the end is what the first does.
    let run = || {
        let thread = std::thread::spawn(measure_localization);
        thread.join().expect("the run does not panic")
    };
    let first = run();
    assert_eq!(first, run(), "two runs must count the same");
    let Localization {
        allocs,
        scans,
        steps,
        dispatches,
        callbacks,
        live_bytes,
        log_bytes,
    } = first;
    assert!(scans >= 59 * DEVICES as u64, "only {scans} scans");
    // scan.js hears the sensor, clustering.js hears scan.js.
    assert_eq!(callbacks, 2 * scans);
    let per_scan = allocs as f64 / scans as f64;
    let per_callback = steps as f64 / callbacks as f64;
    let live_per_device = live_bytes as f64 / DEVICES as f64;
    let log_per_device = log_bytes as f64 / DEVICES as f64;
    println!(
        "Localization: {allocs} allocations / {scans} scans = {per_scan:.1} per scan \
         (parent {PARENT_ALLOCS_PER_SCAN:.1}); {steps} steps / {callbacks} callbacks = \
         {per_callback:.1} per callback (parent {STEPS_PER_CALLBACK:.1})"
    );
    let dispatches_per_callback = dispatches as f64 / callbacks as f64;
    println!(
        "Localization: {dispatches} VM dispatches / {callbacks} callbacks = \
         {dispatches_per_callback:.1} per callback, {:.3} per step (at most {DISPATCHES_PER_STEP})",
        dispatches as f64 / steps as f64
    );
    println!(
        "Localization: {live_bytes} live heap bytes / {DEVICES} devices = {live_per_device:.0} \
         per device after the second hour (parent {PARENT_LIVE_PER_DEVICE:.0})"
    );
    println!(
        "Localization: {log_bytes} raw-scans log bytes / {DEVICES} devices = {log_per_device:.0} \
         log bytes held per device (parent {PARENT_LOG_PER_DEVICE:.0})"
    );
    assert_eq!(
        steps, STEPS,
        "the VM's steps are pinned, not merely bounded"
    );
    assert!(
        dispatches_per_callback <= DISPATCHES_PER_STEP * per_callback,
        "{dispatches_per_callback:.1} VM dispatches per callback for {per_callback:.1} steps"
    );
    for (what, got, now) in [
        ("allocations per delivered scan", per_scan, ALLOCS_PER_SCAN),
        (
            "live heap bytes per device",
            live_per_device,
            LIVE_PER_DEVICE,
        ),
        ("log bytes held per device", log_per_device, LOG_PER_DEVICE),
    ] {
        assert!(
            got <= HEADROOM * now,
            "{got:.1} {what} exceeds {:.1} ({now:.1} at the last re-base, plus 3 %)",
            HEADROOM * now,
        );
    }
}
