//! Randomized equivalence between the channel-indexed broker and a
//! linear reference model (the seed's flat-`Vec` routing semantics):
//! identical operation sequences must produce identical delivery logs,
//! counts, and introspection results.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use pogo_core::{Broker, Msg};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const CHANNELS: &[&str] = &["wifi", "gps", "accel", "battery", "sensor-a", "sensor-b"];

struct ModelSub {
    ordinal: u64,
    channel: &'static str,
    active: bool,
    alive: bool,
}

/// The reference model is the seed's semantics spelled out: subscriptions
/// in subscribe order, a publish delivering to every live+active match in
/// that order, taps after sinks. The indexed broker must be outwardly
/// indistinguishable from it under any operation sequence.
#[test]
fn indexed_broker_matches_linear_model() {
    for seed in 0..32 {
        run_sequence(seed);
    }
}

fn run_sequence(seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let broker = Broker::new();
    // Every real delivery lands here as (actor, channel); `expected` is
    // what the linear model says should land.
    let log: Rc<RefCell<Vec<(u64, String)>>> = Rc::new(RefCell::new(Vec::new()));
    let mut expected: Vec<(u64, String)> = Vec::new();

    let mut model: Vec<ModelSub> = Vec::new();
    let mut ids = Vec::new();
    let mut taps = 0u64;

    for _ in 0..300 {
        match rng.gen_range(0..10usize) {
            0..=2 => {
                let ch = CHANNELS[rng.gen_range(0..CHANNELS.len())];
                let ordinal = model.len() as u64;
                let l = log.clone();
                let id = broker.subscribe(ch, Msg::Null, move |channel, _, _| {
                    l.borrow_mut().push((ordinal, channel.to_owned()));
                });
                ids.push(id);
                model.push(ModelSub {
                    ordinal,
                    channel: ch,
                    active: true,
                    alive: true,
                });
            }
            3 => {
                // May pick an already-removed subscription: the broker
                // treats that as a no-op, and so does the model.
                if !model.is_empty() {
                    let i = rng.gen_range(0..model.len());
                    broker.unsubscribe(ids[i]);
                    model[i].alive = false;
                }
            }
            4..=5 => {
                if !model.is_empty() {
                    let i = rng.gen_range(0..model.len());
                    let active = rng.gen_range(0..2usize) == 0;
                    broker.set_active(ids[i], active);
                    if model[i].alive {
                        model[i].active = active;
                    }
                }
            }
            6 => {
                if !model.is_empty() {
                    let i = rng.gen_range(0..model.len());
                    let hit = broker.publish_to_from(ids[i], &Msg::Num(1.0), None);
                    let m = &model[i];
                    assert_eq!(
                        hit,
                        m.alive && m.active,
                        "publish_to_from hit (seed {seed})"
                    );
                    if m.alive && m.active {
                        expected.push((m.ordinal, m.channel.to_owned()));
                    }
                }
            }
            7 if taps < 2 => {
                let tap_id = 1_000 + taps;
                taps += 1;
                let l = log.clone();
                broker.on_publish(move |channel, _, _| {
                    l.borrow_mut().push((tap_id, channel.to_owned()));
                });
            }
            _ => {
                let ch = CHANNELS[rng.gen_range(0..CHANNELS.len())];
                let delivered = broker.publish(ch, &Msg::Num(2.0));
                let hits: Vec<u64> = model
                    .iter()
                    .filter(|s| s.alive && s.active && s.channel == ch)
                    .map(|s| s.ordinal)
                    .collect();
                assert_eq!(delivered, hits.len(), "delivery count (seed {seed})");
                expected.extend(hits.into_iter().map(|o| (o, ch.to_owned())));
                for t in 0..taps {
                    expected.push((1_000 + t, ch.to_owned()));
                }
            }
        }

        // Introspection must match the model after every single step.
        let ch = CHANNELS[rng.gen_range(0..CHANNELS.len())];
        let listed: Vec<_> = broker
            .subscriptions_on(ch)
            .iter()
            .map(|s| (s.id, s.active))
            .collect();
        let model_listed: Vec<_> = model
            .iter()
            .filter(|s| s.alive && s.channel == ch)
            .map(|s| (ids[s.ordinal as usize], s.active))
            .collect();
        assert_eq!(listed, model_listed, "subscriptions_on (seed {seed})");
        assert_eq!(
            broker.has_active_subscribers(ch),
            model.iter().any(|s| s.alive && s.active && s.channel == ch),
            "has_active_subscribers (seed {seed})"
        );
    }

    assert_eq!(*log.borrow(), expected, "delivery log (seed {seed})");
}

/// The delivery set is snapshotted per publish: a sink that subscribes
/// mid-publish must not receive that same round (the seed's
/// collect-then-invoke behaviour, preserved by the `Rc` snapshots).
#[test]
fn publish_snapshot_ignores_mid_publish_subscriptions() {
    let broker = Broker::new();
    let count = Rc::new(Cell::new(0u64));
    let b2 = broker.clone();
    let c2 = count.clone();
    broker.subscribe("ch", Msg::Null, move |_, _, _| {
        let c3 = c2.clone();
        b2.subscribe("ch", Msg::Null, move |_, _, _| c3.set(c3.get() + 100));
        c2.set(c2.get() + 1);
    });

    assert_eq!(broker.publish("ch", &Msg::Null), 1);
    assert_eq!(
        count.get(),
        1,
        "the mid-publish subscriber sat this round out"
    );
    assert_eq!(broker.publish("ch", &Msg::Null), 2);
    assert_eq!(count.get(), 102, "and joined the next one");
}
