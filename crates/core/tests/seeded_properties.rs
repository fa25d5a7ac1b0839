//! Seeded property tests for the message model and the broker: JSON
//! round-trip, `json_size`, script conversion, canonical form, and
//! exactly-once fan-out. Inputs come from `SimRng`, so the suite runs by
//! default and every failure names its seed.

use std::cell::{Cell, RefCell};
use std::collections::HashSet;
use std::rc::Rc;

use pogo_core::value::SeenStrings;
use pogo_core::{Broker, Msg};
use pogo_sim::SimRng;

const SEEDS: u64 = 600;

fn string(rng: &mut SimRng) -> String {
    match rng.index(3) {
        // Printable ASCII, quotes and backslashes included.
        0 => (0..rng.index(25))
            .map(|_| rng.range_u64(0x20, 0x7f) as u8 as char)
            .collect(),
        // Any scalar value: controls, surrogates' neighbours, astral planes.
        1 => (0..rng.index(8))
            .filter_map(|_| char::from_u32(rng.range_u64(0, 0x11_0000) as u32))
            .collect(),
        _ => {
            (*rng.pick(&["", "k", "interval", "déjà", "漢字", "😀", "a\"b\\c\nd\u{1}"])).to_owned()
        }
    }
}

/// An arbitrary message tree at most `depth` containers deep. Numbers are
/// finite (NaN/∞ deliberately serialize as `null`) and object keys unique
/// (JSON objects with duplicate keys are ambiguous).
fn msg(rng: &mut SimRng, depth: usize) -> Msg {
    let kinds = if depth == 0 { 4 } else { 6 };
    match rng.index(kinds) {
        0 => Msg::Null,
        1 => Msg::Bool(rng.chance(0.5)),
        2 => Msg::Num(match rng.index(3) {
            0 => rng.range_u64(0, 2_000_000_000_000_000) as f64 - 1e15,
            1 => rng.range_f64(-1e12, 1e12),
            _ => rng.range_f64(-1.0, 1.0) * 10f64.powi(rng.range_u64(0, 600) as i32 - 300),
        }),
        3 => Msg::Str(string(rng)),
        4 => Msg::Arr((0..rng.index(6)).map(|_| msg(rng, depth - 1)).collect()),
        _ => {
            let mut seen = HashSet::new();
            Msg::Obj(
                (0..rng.index(6))
                    .map(|_| (string(rng), msg(rng, depth - 1)))
                    .filter(|(k, _)| seen.insert(k.clone()))
                    .collect(),
            )
        }
    }
}

fn for_each_msg(check: impl Fn(u64, &Msg)) {
    for seed in 0..SEEDS {
        let mut rng = SimRng::seed_from_u64(seed);
        check(seed, &msg(&mut rng, 4));
    }
}

#[test]
fn json_round_trips() {
    for_each_msg(|seed, m| {
        let json = m.to_json();
        let back = Msg::from_json(&json)
            .unwrap_or_else(|e| panic!("seed {seed}: parse failure on {json}: {e}"));
        assert_eq!(&back, m, "seed {seed}");
    });
}

#[test]
fn json_size_is_serialization_length() {
    for_each_msg(|seed, m| {
        let json = m.to_json();
        assert_eq!(m.json_size(), json.len() as u64, "seed {seed}");
        assert_eq!(json.capacity(), json.len(), "seed {seed}: sized buffer");
    });
}

/// `Msg` → script `Value` → `Msg` is the identity (no functions can
/// appear on this path) and so is the JSON text, with one script
/// context's string table behind all of them: strings that repeat arrive
/// shared, and the table fills up and starts over on the way.
#[test]
fn script_conversion_round_trips() {
    let seen = RefCell::new(SeenStrings::default());
    for_each_msg(|seed, m| {
        let back = Msg::from_script(&m.to_script(&mut seen.borrow_mut()))
            .expect("a generated message is shallower than the bound");
        assert_eq!(&back, m, "seed {seed}");
        assert_eq!(back.to_json(), m.to_json(), "seed {seed}");
    });
}

#[test]
fn canonicalize_is_idempotent_and_order_insensitive() {
    for_each_msg(|seed, m| {
        let canon = m.canonicalize();
        assert_eq!(canon.canonicalize(), canon, "seed {seed}");
        // Reversing the top-level members does not change the canon form.
        if let Msg::Obj(mut pairs) = m.clone() {
            pairs.reverse();
            assert_eq!(Msg::Obj(pairs).canonicalize(), canon, "seed {seed}");
        }
    });
}

#[test]
fn broker_delivers_to_every_active_subscriber_exactly_once() {
    for seed in 0..SEEDS {
        let mut rng = SimRng::seed_from_u64(seed);
        let broker = Broker::new();
        let n_subs = 1 + rng.index(9);
        let counters: Vec<Rc<Cell<u32>>> = (0..n_subs).map(|_| Rc::default()).collect();
        let mut released = Vec::new();
        for counter in &counters {
            let c = counter.clone();
            let id = broker.subscribe("ch", Msg::Null, move |_, _, _| c.set(c.get() + 1));
            released.push(rng.chance(0.5));
            if released[released.len() - 1] {
                broker.set_active(id, false);
            }
        }
        let payload = msg(&mut rng, 3);
        let active = released.iter().filter(|r| !**r).count();
        // A channel publish and a sensor's filtered delivery reach the
        // same set when the filter passes everyone.
        assert_eq!(broker.publish("ch", &payload), active, "seed {seed}");
        assert_eq!(broker.publish_where("ch", &payload, |_| true), active);
        for (i, counter) in counters.iter().enumerate() {
            let expected = if released[i] { 0 } else { 2 };
            assert_eq!(counter.get(), expected, "seed {seed}: subscriber {i}");
        }
    }
}
