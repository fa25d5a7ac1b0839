//! Seeded round-trip suite for `Json` columns whose rows share their
//! keys: a flushed batch of same-keyed compact objects keeps the keys
//! once and per row only the values, and must still return every
//! appended text byte for byte, whatever the batch mixes in.
//!
//! For 500 seeds a stream of objects with one key list is appended to a
//! JSON channel through watermarks of 2 to 40 rows, and between them
//! rows that make a batch keep its layout: keys and values holding
//! quotes, backslashes, `,`, `:`, `}` and multi-byte characters, nested
//! objects and arrays, values of 127, 128 and 129 bytes, `{}`, duplicate
//! keys, whitespace, non-objects, invalid JSON and a change of key list
//! mid-stream. Every scan, whole and windowed, returns the log, and the
//! channel is charged what the rows cost as appended text.

use pogo_ingest::{ChannelSchema, IngestPipeline, SampleValue, ScanQuery, Watermarks};
use pogo_obs::Obs;
use pogo_sim::{Sim, SimDuration, SimTime};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const EXP: &str = "shapes";
const CHANNEL: &str = "json";
const SEEDS: u64 = 500;

/// Keys as they stand in the text, quotes included.
const KEYS: [&str; 9] = [
    r#""level""#,
    r#""a""#,
    r#""""#,
    r#""k\"q""#,
    r#""back\\slash""#,
    r#""p,u:n}c""#,
    "\"\u{e9}\u{4e2d}\u{1F600}\"",
    r#""{\"nested\":1}""#,
    r#""timestamp""#,
];

/// A value `len` bytes long: a string of `x`s between its quotes.
fn sized(len: usize) -> String {
    format!("\"{}\"", "x".repeat(len - 2))
}

/// A member value; one of 128 or 129 bytes, which keeps its batch's
/// layout, only when `long`.
fn value(rng: &mut SmallRng, long: bool) -> String {
    let n = rng.gen_range(0u64..1000);
    match rng.gen_range(0u64..16) {
        0 => format!("{n}"),
        1 => format!("-{n}.25e-3"),
        2 => "true".into(),
        3 => "null".into(),
        4 => r#""q\"u\"o\"te""#.into(),
        5 => r#""back\\""#.into(),
        6 => format!("\",:}}{n}]\""),
        7 => format!("\"\u{e9}{n}\u{1F600}\u{4e2d}\""),
        8 => format!(r#"{{"x":[1,{{"y":"}}"}}],"z":{{}},"n":{n}}}"#),
        9 => format!("[{n},[\"]\",{{}}],[]]"),
        10 => sized(127),
        11 if long => sized(128),
        12 if long => sized(129),
        13 => r#""""#.into(),
        _ => format!("{}", n as f64 / 8.0),
    }
}

fn object(keys: &[&str], rng: &mut SmallRng, long: bool) -> String {
    let members: Vec<String> = keys
        .iter()
        .map(|k| format!("{k}:{}", value(rng, long)))
        .collect();
    format!("{{{}}}", members.join(","))
}

/// A row that does not share the stream's key list, or is no compact
/// object at all.
fn odd_row(keys: &[&str], rng: &mut SmallRng) -> String {
    let shaped = object(keys, rng, false);
    match rng.gen_range(0u64..12) {
        0 => "{}".into(),
        1 => format!(r#"{{"a":1,"a":{}}}"#, value(rng, false)),
        2 => format!("{{ {}:1 }}", keys[0]),
        3 => shaped.replacen(':', " : ", 1),
        4 => format!("{shaped} "),
        5 => "[1,2,{\"a\":3}]".into(),
        6 => format!("\"{}\"", rng.gen_range(0u64..9)),
        7 => shaped[..shaped.len() - 1].into(),
        8 => format!("{}}}", shaped),
        9 => format!(r#"{{{}:"unterminated}}"#, keys[0]),
        10 => String::new(),
        _ => format!(r#"{{{}:}}"#, keys[0]),
    }
}

fn key_list(rng: &mut SmallRng) -> Vec<&'static str> {
    let mut keys = KEYS.to_vec();
    for i in (1..keys.len()).rev() {
        keys.swap(i, rng.gen_range(0..=i));
    }
    keys.truncate(rng.gen_range(1..=5));
    keys
}

#[test]
fn same_keyed_json_round_trips_byte_for_byte() {
    let mut rows_checked = 0usize;
    for seed in 0..SEEDS {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5AFE_0B1E_u64);
        let sim = Sim::new();
        let watermarks = Watermarks {
            max_rows: rng.gen_range(2usize..40),
            max_age: SimDuration::from_secs(600),
        };
        let pipeline = IngestPipeline::with_watermarks(&sim, &Obs::off(), watermarks);
        pipeline
            .register(EXP, CHANNEL, ChannelSchema::json())
            .expect("fresh channel registers");
        // Most seeds append nothing but same-keyed rows; the rest mix in
        // one odd row in `odd_every`. One seed in four has long values.
        let odd_every: u64 = [0, 0, 3, 10, 40][rng.gen_range(0usize..5)];
        let long = rng.gen_range(0u64..4) == 0;
        let mut keys = key_list(&mut rng);
        let mut log: Vec<(SimTime, String)> = Vec::new();
        for _ in 0..rng.gen_range(20usize..200) {
            if rng.gen_range(0u64..4) == 0 {
                sim.run_for(SimDuration::from_secs(rng.gen_range(1u64..30)));
            }
            if rng.gen_range(0u64..60) == 0 {
                keys = key_list(&mut rng);
            }
            let text = if odd_every > 0 && rng.gen_range(0..odd_every) == 0 {
                odd_row(&keys, &mut rng)
            } else {
                object(&keys, &mut rng, long)
            };
            let device = format!("d{}", rng.gen_range(0u64..5));
            pipeline
                .append(EXP, CHANNEL, &device, SampleValue::Json(text.clone()))
                .expect("any text is a JSON value");
            log.push((sim.now(), text));
        }
        pipeline.flush_all();
        let store = pipeline.store();

        let rows = store.scan(&ScanQuery::exp(EXP));
        assert_eq!(rows.len(), log.len(), "seed {seed}");
        for (row, (at, text)) in rows.iter().zip(&log) {
            assert_eq!(row.at, *at, "seed {seed}");
            assert_eq!(row.value, SampleValue::Json(text.clone()), "seed {seed}");
        }
        rows_checked += rows.len();

        let (a, b) = (log[rng.gen_range(0..log.len())].0, sim.now());
        let window = store.scan(&ScanQuery::exp(EXP).since(a).until(b));
        let want: Vec<&String> = log
            .iter()
            .filter(|(at, _)| *at >= a && *at < b)
            .map(|(_, text)| text)
            .collect();
        let got: Vec<&String> = window
            .iter()
            .map(|row| match &row.value {
                SampleValue::Json(text) => text,
                other => panic!("seed {seed}: {other:?} from a json channel"),
            })
            .collect();
        assert_eq!(got, want, "seed {seed}: window [{a:?}, {b:?})");

        // The charge is the appended text's: a device id, a timestamp,
        // and `len + 24` per value.
        let charged: u64 = log.iter().map(|(_, t)| 4 + 8 + t.len() as u64 + 24).sum();
        let counters = store.channel_counters(EXP, CHANNEL).unwrap();
        assert_eq!(counters.bytes, charged, "seed {seed}");
        assert_eq!(counters.rows, log.len() as u64, "seed {seed}");
    }
    assert!(rows_checked > 40_000, "only {rows_checked} rows checked");
}
