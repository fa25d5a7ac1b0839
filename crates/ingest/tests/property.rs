//! Property suite over the ingestion pipeline: for 1,600 seeds, a
//! randomized stream of appends/flushes/time-advances must leave the
//! store exactly equal to a flat log-replay oracle under every scan
//! predicate, and the same seed must export byte-identical CSV, JSONL,
//! and SenML.
//!
//! The oracle is deliberately dumb: a `Vec` of `(channel, device, at,
//! value)` in append order. Retention only ever drops a channel's
//! oldest rows, so what is resident is the log minus each channel's
//! first `evicted` entries; scans replay that with the query's filters,
//! on `KeepAll`, `MaxRows` and `MaxAge` channels alike. The stream is
//! shaped for the store's index: more devices than a batch has rows,
//! runs of equal timestamps that straddle batch boundaries, windows cut
//! one millisecond either side of a real row, a device that is never
//! appended and one whose rows are the first to be evicted. Text values,
//! which a batch holds end to end in one buffer, include the empty
//! string, multi-byte characters, quotes, commas and newlines, and values
//! of 64 KiB, each counted through scans and evictions.

use pogo_ingest::{
    export, ChannelSchema, IngestPipeline, Retention, SampleValue, ScanQuery, Template, Watermarks,
};
use pogo_obs::Obs;
use pogo_sim::{Sim, SimDuration, SimTime};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const EXP: &str = "prop";
/// The steady senders: more of them than the largest batch has rows (7).
const DEVICES: usize = 12;
/// Sends only the stream's first few samples, so that retention evicts
/// every row it has while the dictionary still knows the name.
const EARLY: &str = "early@pogo";
const EARLY_APPENDS: usize = 3;
/// Never sends: the store's dictionary has no id for it.
const NEVER: &str = "never@pogo";
const TEMPLATES: [Template; 5] = [
    Template::I64,
    Template::F64,
    Template::Bool,
    Template::Str,
    Template::Json,
];

fn device_name(i: usize) -> String {
    format!("d{i}@pogo")
}

/// One oracle entry: a sample the pipeline accepted.
#[derive(Debug, Clone, PartialEq)]
struct LogEntry {
    channel: String,
    device: String,
    at: SimTime,
    value: SampleValue,
}

struct Channel {
    name: String,
    template: Template,
    retention: Retention,
}

/// At least this long, a text value spans many of a column's neighbours.
const BIG: usize = 64 * 1024;

/// The text of a `Str` or `Json` value: besides the short ASCII a sample
/// usually is, the cases a column holding its values end to end must
/// slice exactly. Those are the empty string, characters of two to four
/// bytes (a cut off their boundary panics), the characters CSV and JSON
/// quote, and a value of at least [`BIG`] bytes.
fn text(rng: &mut SmallRng) -> String {
    let n = rng.gen_range(0u64..100);
    match rng.gen_range(0u64..64) {
        0..8 => String::new(),
        8..16 => format!("\u{e9}{n}\u{4e2d}\u{1F600}"),
        16..24 => format!("a\"{n}\",\n\"b"),
        24 => format!("{}\u{1F600}", "\u{e9}".repeat(BIG / 2 + n as usize)),
        _ => format!("s{n},\"q\""),
    }
}

fn value_for(template: Template, rng: &mut SmallRng) -> SampleValue {
    match template {
        Template::I64 => SampleValue::I64(rng.gen_range(0u64..2000) as i64 - 1000),
        Template::F64 => SampleValue::F64((rng.gen_range(0u64..20) as f64 - 10.0) * 0.5),
        Template::Bool => SampleValue::Bool(rng.gen_range(0u64..2) == 0),
        Template::Str => SampleValue::Str(text(rng)),
        Template::Json => SampleValue::Json(text(rng)),
    }
}

/// Which of [`text`]'s cases a value is, if it is text.
fn text_case(value: &SampleValue) -> Option<usize> {
    let (SampleValue::Str(s) | SampleValue::Json(s)) = value else {
        return None;
    };
    Some(if s.is_empty() {
        0
    } else if s.len() >= BIG {
        3
    } else if !s.is_ascii() {
        1
    } else if s.contains('\n') {
        2
    } else {
        4
    })
}

/// A value that never matches `template` (exercises the rejection path).
fn mismatched_for(template: Template) -> SampleValue {
    match template {
        Template::Str => SampleValue::I64(7),
        _ => SampleValue::Str("wrong".into()),
    }
}

struct RunResult {
    log: Vec<LogEntry>,
    channels: Vec<Channel>,
    watermarks: Watermarks,
    mismatches: u64,
    end: SimTime,
    pipeline: IngestPipeline,
}

/// Drives one randomized stream through a fresh pipeline.
fn run_stream(seed: u64) -> RunResult {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xA5A5_5A5A_1234_5678);
    let sim = Sim::new();
    let watermarks = Watermarks {
        max_rows: rng.gen_range(1usize..8),
        max_age: SimDuration::from_secs(rng.gen_range(5u64..120)),
    };
    let pipeline = IngestPipeline::with_watermarks(&sim, &Obs::off(), watermarks);

    let n_channels = rng.gen_range(1usize..4);
    let mut channels = Vec::new();
    for i in 0..n_channels {
        let template = TEMPLATES[rng.gen_range(0..TEMPLATES.len())];
        // Roughly one channel in four caps its rows, one in four its age.
        let retention = match rng.gen_range(0u64..4) {
            0 => Retention::MaxRows(rng.gen_range(2usize..10)),
            1 => Retention::MaxAge(SimDuration::from_secs(rng.gen_range(20u64..300))),
            _ => Retention::KeepAll,
        };
        let name = format!("ch{i}");
        pipeline
            .register(
                EXP,
                &name,
                ChannelSchema::new(template).retention(retention),
            )
            .expect("fresh channel registers");
        channels.push(Channel {
            name,
            template,
            retention,
        });
    }

    let mut log = Vec::new();
    let mut mismatches = 0u64;
    for _ in 0..rng.gen_range(30usize..90) {
        // One step in three stays in the same millisecond, so runs of
        // equal timestamps form and batch boundaries fall inside them.
        if rng.gen_range(0u64..3) != 0 {
            sim.run_for(SimDuration::from_secs(rng.gen_range(1u64..30)));
        }
        let ch = &channels[rng.gen_range(0..channels.len())];
        match rng.gen_range(0u64..10) {
            0 => pipeline.flush_channel(EXP, &ch.name),
            1 => pipeline.flush_all(),
            2 => {
                pipeline
                    .append(EXP, &ch.name, &device_name(0), mismatched_for(ch.template))
                    .expect_err("mismatched value is rejected");
                mismatches += 1;
            }
            _ => {
                let device = if log.len() < EARLY_APPENDS {
                    EARLY.to_owned()
                } else {
                    device_name(rng.gen_range(0..DEVICES))
                };
                let value = value_for(ch.template, &mut rng);
                pipeline
                    .append(EXP, &ch.name, &device, value.clone())
                    .expect("valid value ingests");
                log.push(LogEntry {
                    channel: ch.name.clone(),
                    device,
                    at: sim.now(),
                    value,
                });
            }
        }
    }
    pipeline.flush_all();
    RunResult {
        log,
        channels,
        watermarks,
        mismatches,
        end: sim.now(),
        pipeline,
    }
}

/// Replays the oracle log under a scan predicate, in the store's output
/// order (channels lexicographic, append order within a channel).
fn replay(log: &[LogEntry], channels: &[Channel], q: &ScanQuery) -> Vec<LogEntry> {
    let mut names: Vec<&str> = channels.iter().map(|c| c.name.as_str()).collect();
    names.sort_unstable();
    let mut out = Vec::new();
    for name in names {
        if q.channel.as_deref().is_some_and(|want| want != name) {
            continue;
        }
        out.extend(
            log.iter()
                .filter(|e| e.channel == name)
                .filter(|e| q.device.as_deref().is_none_or(|d| d == e.device))
                .filter(|e| q.since.is_none_or(|s| e.at >= s))
                .filter(|e| q.until.is_none_or(|u| e.at < u))
                .cloned(),
        );
    }
    out
}

/// A window bound: any millisecond of the run, or (as often) a real
/// row's timestamp moved by -1, 0 or +1 ms, which is where an off-by-one
/// in a binary search over runs of equal timestamps would show.
fn bound(run: &RunResult, rng: &mut SmallRng) -> SimTime {
    if run.log.is_empty() || rng.gen_range(0u64..2) == 0 {
        return SimTime::from_millis(rng.gen_range(0..=run.end.as_millis()));
    }
    let at = run.log[rng.gen_range(0..run.log.len())].at.as_millis();
    SimTime::from_millis((at + rng.gen_range(0u64..3)).saturating_sub(1))
}

fn queries(run: &RunResult, rng: &mut SmallRng) -> Vec<ScanQuery> {
    let mut out = vec![
        ScanQuery::exp(EXP),
        ScanQuery::exp(EXP).device(NEVER),
        ScanQuery::exp(EXP).device(EARLY),
    ];
    for _ in 0..6 {
        let mut q = ScanQuery::exp(EXP);
        if rng.gen_range(0u64..2) == 0 {
            q = q.channel(&run.channels[rng.gen_range(0..run.channels.len())].name);
        }
        if rng.gen_range(0u64..2) == 0 {
            q = match rng.gen_range(0..DEVICES + 2) {
                i if i < DEVICES => q.device(&device_name(i)),
                i if i == DEVICES => q.device(EARLY),
                _ => q.device(NEVER),
            };
        }
        match rng.gen_range(0u64..4) {
            0 => q = q.since(bound(run, rng)),
            1 => q = q.until(bound(run, rng)),
            2 => {
                let (a, b) = (bound(run, rng), bound(run, rng));
                q = q.since(a.min(b)).until(a.max(b));
            }
            _ => {}
        }
        out.push(q);
    }
    out
}

#[test]
fn store_scans_equal_the_log_replay_oracle() {
    const SEEDS: u64 = 1600;
    let mut compared = 0usize;
    let mut compared_with_evictions = 0usize;
    let mut early_fully_evicted = 0usize;
    let mut max_age_evictions = 0usize;
    // Per case of `text`: rows scans returned, and rows retention evicted.
    let mut text_scanned = [0usize; 5];
    let mut text_evicted = [0usize; 5];
    for seed in 0..SEEDS {
        let run = run_stream(seed);
        let store = run.pipeline.store();
        let stats = run.pipeline.stats();
        assert_eq!(
            stats.schema_mismatches, run.mismatches,
            "seed {seed}: every rejected append is counted"
        );
        assert_eq!(stats.pending_rows, 0, "seed {seed}: flush_all drained");

        // What must be resident: each channel's log minus the prefix its
        // counters say retention dropped, which each policy bounds.
        let mut resident = Vec::new();
        for ch in &run.channels {
            let all = replay(
                &run.log,
                &run.channels,
                &ScanQuery::exp(EXP).channel(&ch.name),
            );
            let counters = store
                .channel_counters(EXP, &ch.name)
                .expect("registered channel has counters");
            assert_eq!(
                counters.rows + counters.evicted,
                all.len() as u64,
                "seed {seed} {}: every accepted sample is resident or evicted",
                ch.name
            );
            let (gone, kept) = all.split_at(counters.evicted as usize);
            match ch.retention {
                Retention::KeepAll => assert!(
                    gone.is_empty(),
                    "seed {seed} {}: KeepAll retains everything",
                    ch.name
                ),
                // Whole batches go while the channel is over its cap
                // and has more than one.
                Retention::MaxRows(cap) => assert!(
                    kept.len() <= cap.max(run.watermarks.max_rows),
                    "seed {seed} {}: {} rows resident under MaxRows({cap})",
                    ch.name,
                    kept.len()
                ),
                Retention::MaxAge(age) => {
                    for e in gone {
                        assert!(
                            run.end.saturating_duration_since(e.at) > age,
                            "seed {seed} {}: evicted a row younger than {age:?}",
                            ch.name
                        );
                    }
                    max_age_evictions += gone.len();
                }
            }
            for case in gone.iter().filter_map(|e| text_case(&e.value)) {
                text_evicted[case] += 1;
            }
            resident.extend_from_slice(kept);
        }
        let evicted_any = resident.len() < run.log.len();
        let early_sent = run.log.iter().any(|e| e.device == EARLY);
        if early_sent && !resident.iter().any(|e| e.device == EARLY) {
            early_fully_evicted += 1;
        }

        // Every predicate, on every retention policy, against the replay
        // of what is resident.
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x0DDC_0FFE_E0DD_F00D);
        for q in queries(&run, &mut rng) {
            let rows = store.scan(&q);
            let oracle = replay(&resident, &run.channels, &q);
            assert_eq!(rows.len(), oracle.len(), "seed {seed} query {q:?}");
            for (row, entry) in rows.iter().zip(&oracle) {
                assert!(
                    row.exp == EXP
                        && row.channel == entry.channel
                        && row.device == entry.device
                        && row.at == entry.at
                        && row.value == entry.value,
                    "seed {seed} query {q:?}: {row:?} != {entry:?}"
                );
                if let Some(case) = text_case(&row.value) {
                    text_scanned[case] += 1;
                }
            }
            if q.device.as_deref() == Some(NEVER) {
                assert!(rows.is_empty(), "seed {seed}: {NEVER} never sent");
            }
            compared += 1;
            compared_with_evictions += usize::from(evicted_any);
        }
    }
    // The generator reaches the cases it was shaped for (10,125, 550
    // and 11,757 when written).
    assert_eq!(compared, SEEDS as usize * 9);
    assert!(
        compared_with_evictions > 4000,
        "few predicate comparisons on evicting channels: {compared_with_evictions}"
    );
    assert!(
        early_fully_evicted > 100,
        "few runs evict every row of a known device: {early_fully_evicted}"
    );
    assert!(
        max_age_evictions > 5000,
        "few rows evicted by MaxAge: {max_age_evictions}"
    );
    println!("text cases scanned {text_scanned:?}, evicted {text_evicted:?}");
    for (case, name) in ["empty", "multi-byte", "quoted", "64 KiB", "plain"]
        .into_iter()
        .enumerate()
    {
        assert!(
            text_scanned[case] > 200 && text_evicted[case] > 20,
            "few {name} text values: {} scanned, {} evicted",
            text_scanned[case],
            text_evicted[case]
        );
    }
}

#[test]
fn same_seed_exports_are_byte_identical() {
    for seed in [3u64, 17, 99, 1234] {
        let export_of = || {
            let run = run_stream(seed);
            let rows = run.pipeline.store().scan(&ScanQuery::exp(EXP));
            (
                export::to_csv(&rows),
                export::to_jsonl(&rows),
                export::to_senml(&rows),
            )
        };
        let (csv_a, jsonl_a, senml_a) = export_of();
        let (csv_b, jsonl_b, senml_b) = export_of();
        assert!(!csv_a.is_empty());
        assert_eq!(csv_a, csv_b, "seed {seed}: CSV diverged");
        assert_eq!(jsonl_a, jsonl_b, "seed {seed}: JSONL diverged");
        assert_eq!(senml_a, senml_b, "seed {seed}: SenML diverged");
    }
}
