//! Seeded property tests for the messaging substrate: dedup correctness,
//! the store against a model, exactly-once delivery under handover loss,
//! and JID interning. Inputs come from `SimRng`, so the suite runs by
//! default and every failure names its seed.

use std::cell::RefCell;
use std::collections::HashSet;
use std::rc::Rc;

use pogo_net::{Jid, MessageStore, Payload, SeenSet, Session, Switchboard};
use pogo_sim::{Sim, SimDuration, SimRng, SimTime};

const SEEDS: u64 = 200;

#[test]
fn dedup_admits_exactly_first_occurrences() {
    for seed in 0..SEEDS {
        let mut rng = SimRng::seed_from_u64(seed);
        // One seen-set per sender, as a receiver keeps them.
        let mut senders: Vec<SeenSet> = (0..3).map(|_| SeenSet::default()).collect();
        let mut seen: HashSet<(usize, u64)> = HashSet::new();
        for _ in 0..rng.index(60) {
            let (s, seq) = (rng.index(3), rng.range_u64(0, 20));
            let fresh = senders[s].insert(seq);
            assert_eq!(
                fresh,
                seen.insert((s, seq)),
                "seed {seed}: sender {s} seq {seq}"
            );
        }
    }
}

/// The store against a plain list under enqueue, ack (single, batched,
/// absent and repeated sequence numbers) and the age purge: `pending` is
/// the model, in FIFO order, after every operation.
#[test]
fn store_matches_model_under_enqueue_ack_and_purge() {
    let max_age = SimDuration::from_hours(24);
    for seed in 0..SEEDS {
        let mut rng = SimRng::seed_from_u64(seed);
        let store = MessageStore::new();
        let to = Jid::new("c@pogo").unwrap();
        let mut now = SimTime::ZERO;
        let mut live: Vec<(u64, SimTime)> = Vec::new();
        let mut purged = 0u64;
        for step in 0..1 + rng.index(80) {
            match rng.index(4) {
                0 | 1 => {
                    let seq = store.enqueue(&to, format!("m{step}"), now);
                    live.push((seq, now));
                }
                2 => {
                    let seqs: Vec<u64> = (0..rng.index(4)).map(|_| rng.range_u64(0, 40)).collect();
                    let acked = store.ack(&seqs);
                    let before = live.len();
                    live.retain(|(s, _)| !seqs.contains(s));
                    assert_eq!(acked, before - live.len(), "seed {seed} step {step}");
                }
                _ => {
                    now += SimDuration::from_hours(rng.range_u64(0, 30));
                    let before = live.len();
                    live.retain(|&(_, at)| now.saturating_duration_since(at) <= max_age);
                    let dropped = store.purge_older_than(now, max_age);
                    assert_eq!(dropped, before - live.len(), "seed {seed} step {step}");
                    purged += dropped as u64;
                }
            }
            let pending: Vec<u64> = store.pending().iter().map(|m| m.seq).collect();
            let model: Vec<u64> = live.iter().map(|&(s, _)| s).collect();
            assert_eq!(
                pending, model,
                "seed {seed} step {step}: store matches model"
            );
            assert!(pending.windows(2).all(|w| w[0] < w[1]), "FIFO by seq");
            assert_eq!(store.len(), model.len());
            assert_eq!(store.purged_total(), purged);
        }
    }
}

fn retransmit(sim: &Sim, store: &MessageStore, session: &Rc<RefCell<Session>>) {
    for msg in store.pending() {
        let _ = session
            .borrow()
            .send(&msg.to, msg.seq, Payload::Data(msg.data));
    }
    if !store.is_empty() {
        let (sim2, store2, session2) = (sim.clone(), store.clone(), session.clone());
        sim.schedule_in(SimDuration::from_millis(500), move || {
            retransmit(&sim2, &store2, &session2);
        });
    }
}

/// A sender with a persistent store retransmits unacked messages every
/// 500 ms; the link dies at arbitrary instants (handover) and reconnects
/// at once with a new session. The receiver acks everything and
/// deduplicates. Every message arrives exactly once and the store drains.
#[test]
fn retransmission_achieves_exactly_once_despite_handovers() {
    for seed in 0..60 {
        let mut rng = SimRng::seed_from_u64(seed);
        let n_messages = 1 + rng.index(11);
        let drop_points: Vec<u64> = (0..rng.index(6))
            .map(|_| rng.range_u64(50, 5_000))
            .collect();

        let sim = Sim::new();
        let server = Switchboard::new(&sim);
        let a = Jid::new("sender@pogo").unwrap();
        let b = Jid::new("receiver@pogo").unwrap();
        server.register(&a);
        server.register(&b);
        server.befriend(&a, &b).unwrap();

        let store = MessageStore::new();
        for i in 0..n_messages {
            store.enqueue(&b, format!("payload-{i}"), SimTime::ZERO);
        }

        let received: Rc<RefCell<Vec<String>>> = Rc::new(RefCell::new(Vec::new()));
        // One sender, so one seen-set.
        let dedup = RefCell::new(SeenSet::default());
        let receiver = server.connect(&b, SimDuration::from_millis(20)).unwrap();
        {
            let received = received.clone();
            let receiver2 = receiver.clone();
            receiver.on_receive(move |env| {
                if let Payload::Data(data) = &env.payload {
                    let _ = receiver2.send(&env.from, 0, Payload::Ack(env.seq));
                    if dedup.borrow_mut().insert(env.seq) {
                        received.borrow_mut().push(data.clone());
                    }
                }
            });
        }

        // The sender's session sits in a slot so handovers can replace it.
        let install_ack_handler = {
            let store = store.clone();
            move |session: &Session| {
                let store = store.clone();
                session.on_receive(move |env| {
                    if let Payload::Ack(seq) = env.payload {
                        store.ack(&[seq]);
                    }
                });
            }
        };
        let sender_session = Rc::new(RefCell::new(
            server.connect(&a, SimDuration::from_millis(20)).unwrap(),
        ));
        install_ack_handler(&sender_session.borrow());
        retransmit(&sim, &store, &sender_session);

        for at in drop_points {
            let (server, a, slot) = (server.clone(), a.clone(), sender_session.clone());
            let install = install_ack_handler.clone();
            sim.schedule_at(SimTime::from_millis(at), move || {
                slot.borrow().disconnect();
                let fresh = server.connect(&a, SimDuration::from_millis(20)).unwrap();
                install(&fresh);
                *slot.borrow_mut() = fresh;
            });
        }

        sim.run_for(SimDuration::from_secs(60));

        let mut got = received.borrow().clone();
        got.sort();
        let mut want: Vec<String> = (0..n_messages).map(|i| format!("payload-{i}")).collect();
        want.sort();
        assert_eq!(got, want, "seed {seed}: exactly once");
        assert!(store.is_empty(), "seed {seed}: all messages acked");
    }
}

/// Interning is a pure function of the text: re-parsing yields the same
/// record (same uid, salt, parts), accessors rebuild the text exactly,
/// and ordering matches plain string order.
#[test]
fn jid_interning_round_trips() {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789-";
    for seed in 0..SEEDS {
        let mut rng = SimRng::seed_from_u64(seed);
        let names: Vec<String> = (0..1 + rng.index(23))
            .map(|_| {
                let mut name = String::from(ALPHABET[rng.index(26)] as char);
                for _ in 0..rng.index(13) {
                    name.push(*rng.pick(ALPHABET) as char);
                }
                name
            })
            .collect();
        let jids: Vec<Jid> = names
            .iter()
            .map(|n| Jid::new(&format!("{n}@pogo")).unwrap())
            .collect();
        for (name, jid) in names.iter().zip(&jids) {
            let again = Jid::new(jid.as_str()).unwrap();
            assert_eq!(&again, jid);
            assert_eq!(again.uid(), jid.uid());
            assert_eq!(again.salt(), jid.salt());
            assert_eq!(jid.node(), name.as_str());
            assert_eq!(jid.domain(), "pogo");
            assert_eq!(jid.as_str(), format!("{name}@pogo"));
        }
        let mut by_jid = jids.clone();
        by_jid.sort();
        let mut by_text: Vec<String> = names.iter().map(|n| format!("{n}@pogo")).collect();
        by_text.sort();
        let sorted: Vec<&str> = by_jid.iter().map(Jid::as_str).collect();
        assert_eq!(sorted, by_text, "seed {seed}");
    }
}
