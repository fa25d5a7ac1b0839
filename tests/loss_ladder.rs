//! The reliable link on a ladder of loss rates. A small scriptless uplink
//! fleet (the accelerometer at 5 s, a 30 s interval flush) runs at 0, 1,
//! 5 and 10 % loss on each leg of every phone's link. The phones sample
//! for a quarter of an hour and then go quiet while the link drains.
//! After the drain every sample a phone took is stored exactly once, and
//! the data messages the phones sent per stored sample stay within 3 %
//! of what this test read when the constants below were last re-based:
//! one per sample, plus the copies the loss makes necessary, and none
//! for copies still in flight. Beside them it prints the data envelopes
//! the phones put on the wire per stored sample: one per run of a flush.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use pogo::core::{ChannelFilter, FleetSpec, Msg, Testbed};
use pogo::ingest::ChannelSchema;
use pogo::net::{FlushPolicy, LinkFate, LinkShape};
use pogo::sim::{Sim, SimDuration};
use pogo_core::proto::ExperimentSpec;
use pogo_core::sensor::{AccelSample, SensorSources};

const EXP: &str = "ladder";
const DEVICES: usize = 10;
const MINUTE: SimDuration = SimDuration::from_mins(1);
/// Minutes the phones take samples for.
const SAMPLING_MIN: u64 = 15;
/// Minutes the link then has to deliver the rest: ten 60 s rounds of
/// the device's retransmit gate.
const DRAIN_MIN: u64 = 10;

/// `(loss per leg, data messages sent per stored sample at the parent
/// commit, and at this one)`. The parent (dde1187) resent every unacked
/// message on each flush, those whose acks were still on their way
/// included; this commit sends only what is not in flight.
const LADDER: [(f64, f64, f64); 4] = [
    (0.0, 1.168, 1.000),
    (0.01, 1.172, 1.022),
    (0.05, 1.278, 1.121),
    (0.10, 1.412, 1.251),
];

/// The gate: this commit's read plus 3 %.
const HEADROOM: f64 = 1.03;

/// Runs the fleet at `loss`: `(samples taken, data messages sent, data
/// envelopes sent)`, after asserting that each sample was stored exactly
/// once.
fn run(loss: f64) -> (u64, u64, u64) {
    let sim = Sim::new();
    let mut testbed = Testbed::new(&sim);
    testbed.server().reseed_link_rng(0x5eed);
    // Every sample a phone takes, by device and sample time: the
    // accelerometer's `x` carries the time it was taken.
    let taken: Rc<RefCell<Vec<(usize, u64)>>> = Rc::default();
    let log = taken.clone();
    let quiet_from = MINUTE.mul(SAMPLING_MIN).as_millis();
    let spec = FleetSpec::new(DEVICES)
        .prefix("phone")
        .seed(13)
        .configure(|_, c| c.with_flush_policy(FlushPolicy::Interval(SimDuration::from_secs(30))))
        .sensors(move |i, _| {
            let log = log.clone();
            SensorSources {
                accelerometer: Some(Box::new(move |t_ms| {
                    (t_ms < quiet_from).then(|| {
                        log.borrow_mut().push((i, t_ms));
                        AccelSample {
                            x: t_ms as f64,
                            y: 0.0,
                            z: 9.81,
                        }
                    })
                })),
                ..SensorSources::default()
            }
        });
    let members = testbed.add_fleet(spec);
    let collector = testbed.collector();
    collector
        .registry()
        .register_with_params(
            EXP,
            "accelerometer",
            Msg::obj([("interval", Msg::Num(5_000.0))]),
            ChannelSchema::json(),
        )
        .expect("fresh channel registers");
    // How often each (device, sample time) reached the store.
    let stored: Rc<RefCell<BTreeMap<(String, u64), u32>>> = Rc::default();
    let sink = stored.clone();
    collector.attach_listener(ChannelFilter::exp(EXP), move |event| {
        let x = event.msg.get("x").and_then(Msg::as_num).expect("x");
        let key = (event.device.to_owned(), x as u64);
        *sink.borrow_mut().entry(key).or_default() += 1;
    });
    collector
        .deployment(&ExperimentSpec {
            id: EXP.into(),
            scripts: vec![],
        })
        .to(&members.jids())
        .send()
        .expect("an empty deployment passes the gate");
    let envelopes = Rc::new(Cell::new(0u64));
    for m in members.iter() {
        let shape = LinkShape {
            loss,
            ..LinkShape::default()
        };
        testbed.server().shape_link(&m.device.jid(), shape);
        // Sees each envelope a phone sends as it leaves, before the loss.
        let (jid, count) = (m.device.jid(), envelopes.clone());
        testbed
            .server()
            .set_link_chaos(&m.device.jid(), move |env| {
                if env.from == jid && env.data().is_some() {
                    count.set(count.get() + 1);
                }
                LinkFate::Deliver
            });
    }
    testbed.run_lockstep(MINUTE.mul(SAMPLING_MIN + DRAIN_MIN), MINUTE);

    let jids: Vec<String> = members.jids().iter().map(|j| j.to_string()).collect();
    let taken = taken.borrow();
    let once = |(i, t_ms): &(usize, u64)| ((jids[*i].clone(), *t_ms), 1);
    let expected: BTreeMap<(String, u64), u32> = taken.iter().map(once).collect();
    assert_eq!(
        *stored.borrow(),
        expected,
        "{loss}: every sample taken is stored exactly once"
    );
    for m in members.iter() {
        assert_eq!(m.device.buffered(), 0, "{loss}: {} drained", m.device.jid());
    }
    let sent = members.iter().map(|m| m.device.messages_sent()).sum();
    (taken.len() as u64, sent, envelopes.get())
}

#[test]
fn every_sample_is_stored_once_and_resends_track_the_loss() {
    for (loss, parent, now) in LADDER {
        let (samples, sent, envelopes) = run(loss);
        let per_sample = sent as f64 / samples as f64;
        println!(
            "loss {:>4.1} %: {sent} data messages sent / {samples} samples = {per_sample:.3} \
             per stored sample (parent {parent:.3})",
            loss * 100.0
        );
        println!(
            "loss {:>4.1} %: {envelopes} data envelopes sent / {samples} samples = {:.3} per \
             stored sample (parent {now:.3}, one per message)",
            loss * 100.0,
            envelopes as f64 / samples as f64,
        );
        assert!(
            per_sample <= HEADROOM * now,
            "loss {loss}: {per_sample:.3} data messages sent per stored sample exceeds {:.3} \
             ({now:.3} at the last re-base, plus 3 %)",
            HEADROOM * now,
        );
    }
}
