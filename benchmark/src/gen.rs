//! Seeded input generators. `--seed` feeds every one of them; the
//! program under test only ever sees the generated inputs.
//!
//! Each stream is a function of `(seed, stream tag, device index)`
//! alone, so device `i` gets the same walk, e-mail offset and sensor
//! noise whatever the fleet size — growing a fleet never perturbs the
//! devices already in it, and ladder runs (`--devices`) stay comparable.

use pogo_core::sensor::{AccelSample, WifiReading};
use pogo_ingest::{Retention, SampleValue, Template};
use pogo_sim::SimRng;

/// Stream tags: one independent RNG stream per generator.
const WALKER: u64 = 1;
const EMAIL: u64 = 2;
const ACCEL: u64 = 3;
const COLLECTOR: u64 = 4;
/// Tag for the switchboard's link-loss stream (`reseed_link_rng`).
pub const LINK_LOSS: u64 = 5;

/// SplitMix64 finaliser: spreads nearby `(seed, tag, i)` triples over
/// the whole seed space so neighbouring devices do not get correlated
/// `SmallRng` streams.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

pub fn stream_seed(seed: u64, tag: u64, i: usize) -> u64 {
    mix(mix(seed ^ tag.wrapping_mul(0xA24B_AED4_963E_E407)) ^ i as u64)
}

fn stream(seed: u64, tag: u64, i: usize) -> SimRng {
    SimRng::seed_from_u64(stream_seed(seed, tag, i))
}

/// APs per neighbourhood.
const APS: usize = 5;

/// A phone carried between two disjoint Wi-Fi neighbourhoods. Every
/// crossing is cosine distance 1 from the open cluster, so
/// `clustering.js` closes it and publishes a place. The dwell per side
/// is uniform in 40–100 minutes with a random phase: the paper's
/// deployment saw one place change per ≈70 scans (3,525 places from
/// 246,908 scans).
pub struct Walker {
    sides: [Vec<String>; 2],
    dwell_ms: u64,
    phase_ms: u64,
    noise: SimRng,
}

impl Walker {
    pub fn new(seed: u64, i: usize) -> Self {
        let mut rng = stream(seed, WALKER, i);
        let dwell_ms = rng.range_u64(40 * 60_000, 100 * 60_000 + 1);
        let phase_ms = rng.range_u64(0, 2 * dwell_ms);
        let side = |s: usize| {
            (0..APS)
                .map(|j| {
                    format!(
                        "00:{:02x}:{:02x}:00:0{s}:{j:02x}",
                        (i >> 8) & 0xff,
                        i & 0xff
                    )
                })
                .collect()
        };
        Walker {
            sides: [side(0), side(1)],
            dwell_ms,
            phase_ms,
            noise: rng,
        }
    }

    #[cfg(test)]
    pub fn dwell_ms(&self) -> u64 {
        self.dwell_ms
    }

    /// Which neighbourhood the phone is in at `t_ms`.
    pub fn side(&self, t_ms: u64) -> usize {
        (((t_ms + self.phase_ms) / self.dwell_ms) % 2) as usize
    }

    /// The scan a phone would see at `t_ms`: the side's five APs at
    /// −55, −59, … dBm with ±1.5 dB of noise.
    pub fn scan(&mut self, t_ms: u64) -> Vec<WifiReading> {
        let side = self.side(t_ms);
        self.sides[side]
            .iter()
            .enumerate()
            .map(|(j, bssid)| {
                let noise = (self.noise.range_f64(-1.5, 1.5) * 100.0).round() / 100.0;
                WifiReading {
                    bssid: bssid.clone(),
                    rssi_dbm: -55.0 - 4.0 * j as f64 + noise,
                }
            })
            .collect()
    }
}

/// Start offset of device `i`'s e-mail app, uniform over one check
/// period, so the cohort's radio tails are spread rather than aligned.
pub fn email_offset_ms(seed: u64, i: usize, period_ms: u64) -> u64 {
    stream(seed, EMAIL, i).range_u64(0, period_ms)
}

/// Accelerometer source whose `x` carries the sampling instant. The
/// sensor's message has no timestamp of its own, and the benchmark
/// needs the creation time at the collector to compute delivery age and
/// to decide whether a sample was created before the window closed.
pub fn accel_source(seed: u64, i: usize) -> impl FnMut(u64) -> Option<AccelSample> {
    let mut rng = stream(seed, ACCEL, i);
    move |t_ms| {
        Some(AccelSample {
            x: t_ms as f64,
            y: (rng.range_f64(-0.5, 0.5) * 1000.0).round() / 1000.0,
            z: 9.81,
        })
    }
}

/// One `IngestPipeline::append` call of the collector workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Append {
    pub channel: u8,
    pub device: u16,
    pub value: SampleValue,
}

/// The collector workload's registered channels and its append stream.
pub struct CollectorInput {
    pub channels: Vec<(String, Template, Retention)>,
    pub devices: Vec<String>,
    pub appends: Vec<Append>,
}

pub const COLLECTOR_CHANNELS: usize = 16;
pub const COLLECTOR_DEVICES: usize = 2_000;

/// Retention on the odd channels: whole-batch eviction past this many
/// rows (100,000 at the design size of 6 M appends), so eviction runs
/// beside appends and scans: a channel receives about four times this.
pub fn collector_max_rows(appends: usize) -> usize {
    (appends / 60).max(512)
}

const TEMPLATES: [Template; 4] = [Template::I64, Template::F64, Template::Str, Template::Json];
const WORDS: [&str; 8] = [
    "still", "walking", "running", "vehicle", "home", "office", "unknown", "tilting",
];

fn word(rng: &mut SimRng) -> &'static str {
    WORDS[rng.index(WORDS.len())]
}

fn value_for(template: Template, rng: &mut SimRng) -> SampleValue {
    match template {
        Template::I64 => SampleValue::I64(rng.range_u64(0, 1_000_000) as i64 - 500_000),
        Template::F64 => SampleValue::F64((rng.range_f64(-100.0, 100.0) * 1e4).round() / 1e4),
        Template::Bool => SampleValue::Bool(rng.chance(0.5)),
        Template::Str => {
            let mut s = word(rng).to_owned();
            if rng.chance(0.1) {
                // One in ten needs CSV quoting.
                s.push_str(", \"");
                s.push_str(word(rng));
                s.push('"');
            }
            SampleValue::Str(s)
        }
        Template::Json => {
            let level = (rng.range_f64(0.0, 1.0) * 1000.0).round() / 1000.0;
            SampleValue::Json(format!(
                "{{\"level\":{level},\"mode\":\"{}\",\"n\":{}}}",
                word(rng),
                rng.range_u64(0, 64)
            ))
        }
    }
}

pub fn collector_input(seed: u64, appends: usize) -> CollectorInput {
    let channels: Vec<(String, Template, Retention)> = (0..COLLECTOR_CHANNELS)
        .map(|c| {
            let retention = if c % 2 == 1 {
                Retention::MaxRows(collector_max_rows(appends))
            } else {
                Retention::KeepAll
            };
            // c / 2 so that each template has a KeepAll and a MaxRows channel.
            (
                format!("ch{c:02}"),
                TEMPLATES[(c / 2) % TEMPLATES.len()],
                retention,
            )
        })
        .collect();
    let devices = (0..COLLECTOR_DEVICES)
        .map(|d| format!("phone-{d}@pogo"))
        .collect();
    let mut rng = stream(seed, COLLECTOR, 0);
    let appends = (0..appends)
        .map(|_| {
            let channel = rng.index(COLLECTOR_CHANNELS);
            Append {
                channel: channel as u8,
                device: rng.index(COLLECTOR_DEVICES) as u16,
                value: value_for(channels[channel].1, &mut rng),
            }
        })
        .collect();
    CollectorInput {
        channels,
        devices,
        appends,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn walk(seed: u64, i: usize) -> Vec<Vec<WifiReading>> {
        let mut w = Walker::new(seed, i);
        (0..200).map(|m| w.scan(m * 60_000)).collect()
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(walk(7, 3), walk(7, 3));
        assert_ne!(walk(7, 3), walk(8, 3));
        assert_eq!(
            email_offset_ms(7, 3, 300_000),
            email_offset_ms(7, 3, 300_000)
        );
        let accel = |seed| {
            let mut src = accel_source(seed, 5);
            (0..50).map(|k| src(k * 5_000).unwrap()).collect::<Vec<_>>()
        };
        assert_eq!(accel(1), accel(1));
        assert_ne!(accel(1), accel(2));
        let a = collector_input(11, 5_000);
        let b = collector_input(11, 5_000);
        assert_eq!(a.appends, b.appends);
        assert_ne!(a.appends, collector_input(12, 5_000).appends);
    }

    /// The generators never look at the fleet size, so device `i` in a
    /// fleet of 8 is device `i` in a fleet of 8,000: streams are keyed
    /// by index, and neighbouring indices are independent.
    #[test]
    fn device_streams_depend_on_index_only() {
        let small: Vec<_> = (0..8).map(|i| walk(42, i)).collect();
        let large: Vec<_> = (0..64).map(|i| walk(42, i)).collect();
        assert_eq!(small[..], large[..8]);
        let offsets: std::collections::BTreeSet<u64> =
            (0..64).map(|i| email_offset_ms(42, i, 300_000)).collect();
        assert!(offsets.len() > 60, "offsets are spread: {}", offsets.len());
        // A longer collector stream extends a shorter one.
        let short = collector_input(9, 1_000);
        let long = collector_input(9, 4_000);
        assert_eq!(short.appends[..], long.appends[..1_000]);
    }

    #[test]
    fn walker_follows_the_paper_dwell_and_crosses_sides() {
        for i in 0..50 {
            let mut w = Walker::new(1, i);
            assert!((40 * 60_000..=100 * 60_000).contains(&w.dwell_ms()));
            let first = w.scan(0);
            assert_eq!(first.len(), APS);
            assert!(first.iter().all(|r| (-75.0..=-53.0).contains(&r.rssi_dbm)));
            // Within 100 minutes every walker has seen both sides, and
            // the two sides share no BSSID.
            let sides: std::collections::BTreeSet<usize> =
                (0..=100).map(|m| w.side(m * 60_000)).collect();
            assert_eq!(sides.len(), 2);
            assert!(w.sides[0].iter().all(|b| !w.sides[1].contains(b)));
        }
    }

    #[test]
    fn collector_values_fit_their_channel_templates() {
        let input = collector_input(3, 20_000);
        assert_eq!(input.channels.len(), COLLECTOR_CHANNELS);
        for a in &input.appends {
            let (_, template, _) = &input.channels[a.channel as usize];
            assert!(a.value.matches(*template), "{a:?}");
            assert!((a.device as usize) < COLLECTOR_DEVICES);
        }
        // Every template appears under both retention policies.
        for t in TEMPLATES {
            let policies: std::collections::BTreeSet<bool> = input
                .channels
                .iter()
                .filter(|c| c.1 == t)
                .map(|c| c.2 == Retention::KeepAll)
                .collect();
            assert_eq!(policies.len(), 2, "{t:?}");
        }
    }
}
