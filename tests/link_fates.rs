//! Every fate for the first few envelopes of a device's link: each of the
//! first `K` envelopes crossing it, in either direction and acks included,
//! is delivered, dropped or held past the 60 s retransmit timeout, and
//! every combination runs. At quiescence each message has arrived exactly
//! once, both outboxes are empty, and the link's `net.*` counters agree
//! with what the switchboard saw.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

use pogo::core::proto::ScriptSpec;
use pogo::core::{ChannelFilter, DeviceSetup, ExperimentSpec, ObsConfig, Testbed};
use pogo::net::{FlushPolicy, Jid, LinkFate, Payload};
use pogo::sim::{Sim, SimDuration};

/// Envelopes whose fate is enumerated: `3^K` runs.
const K: u32 = 7;

/// Held this long: past the retransmit timeout, so the copy it races is
/// already on its way.
const HOLD: SimDuration = SimDuration::from_secs(90);

const FATES: [LinkFate; 3] = [LinkFate::Deliver, LinkFate::Drop, LinkFate::Delay(HOLD)];

/// Publishes two samples, a minute apart, a minute after it loads.
const SCRIPT: &str = "var n = 0;\n\
    function tick() {\n\
        n = n + 1;\n\
        publish('data', { n: n });\n\
        if (n < 2) { setTimeout(tick, 60000); }\n\
    }\n\
    setTimeout(tick, 60000);\n";

/// One envelope as the switchboard's hook saw it: `(from, seq, data?,
/// fate)`; an ack's `seq` is the one it acknowledges.
type Seen = (Jid, u64, bool, LinkFate);

/// Runs one schedule: envelope `i < K` meets `FATES[digit i of schedule]`.
fn run(schedule: u32) {
    let sim = Sim::new();
    let mut tb = Testbed::with_obs(&sim, ObsConfig::on());
    let (device, _phone) = tb.add(
        DeviceSetup::named("phone-0")
            .configure(|c| c.with_flush_policy(FlushPolicy::Interval(SimDuration::from_secs(30)))),
    );
    let log: Rc<RefCell<Vec<Seen>>> = Rc::default();
    let sink = log.clone();
    tb.server().set_link_chaos(&device.jid(), move |env| {
        let mut log = sink.borrow_mut();
        let i = log.len() as u32;
        let fate = if i < K {
            FATES[(schedule / 3u32.pow(i) % 3) as usize]
        } else {
            LinkFate::Deliver
        };
        let (seq, data) = match env.payload {
            Payload::Data(_) => (env.seq, true),
            Payload::Ack(seq) => (seq, false),
        };
        log.push((env.from.clone(), seq, data, fate));
        fate
    });
    let samples: Rc<RefCell<Vec<i64>>> = Rc::default();
    let got = samples.clone();
    tb.collector()
        .attach_listener(ChannelFilter::exp("fates").channel("data"), move |event| {
            let n = event.msg.get("n").and_then(pogo::core::Msg::as_num);
            got.borrow_mut().push(n.unwrap_or(-1.0) as i64);
        });
    let spec = ExperimentSpec {
        id: "fates".into(),
        scripts: vec![ScriptSpec {
            name: "tick.js".into(),
            source: SCRIPT.into(),
        }],
    };
    tb.collector()
        .deployment(&spec)
        .to(&[device.jid()])
        .send()
        .expect("the script passes the deploy gate");

    sim.run_for(SimDuration::from_mins(30));
    // Quiescent: a non-empty outbox would be retransmitted within a
    // minute (the collector's backstop, the device's interval flush).
    let settled = log.borrow().len();
    sim.run_for(SimDuration::from_mins(10));
    let log = log.borrow();
    assert_eq!(log.len(), settled, "schedule {schedule}: still sending");
    assert_eq!(device.buffered(), 0, "schedule {schedule}: device outbox");

    let data = || log.iter().filter(|seen| seen.2);
    let sent: BTreeSet<(&Jid, u64)> = data().map(|(from, seq, ..)| (from, *seq)).collect();
    let arrived = data().filter(|seen| seen.3 != LinkFate::Drop);
    let copies = arrived.clone().count() as u64;
    let distinct: BTreeSet<(&Jid, u64)> = arrived.map(|(from, seq, ..)| (from, *seq)).collect();
    assert_eq!(distinct, sent, "schedule {schedule}: every message arrived");

    let metrics = tb.obs().metrics();
    let net = |name: &str| {
        let count = |jid: Jid| metrics.counter_for(Some(jid.as_str()), name);
        count(device.jid()) + count(tb.collector().jid())
    };
    let acks = log.iter().filter(|seen| !seen.2).count() as u64;
    assert_eq!(
        net("net.messages_sent"),
        data().count() as u64,
        "schedule {schedule}"
    );
    assert_eq!(net("net.acks_sent"), acks, "schedule {schedule}");
    assert_eq!(
        net("net.messages_received"),
        distinct.len() as u64,
        "schedule {schedule}: each message delivered once"
    );
    assert_eq!(
        net("net.dedup_drops"),
        copies - distinct.len() as u64,
        "schedule {schedule}: every other copy dropped"
    );
    let samples = samples.borrow();
    let unique: BTreeSet<&i64> = samples.iter().collect();
    assert_eq!(
        unique.len(),
        samples.len(),
        "schedule {schedule}: {samples:?}"
    );
}

#[test]
fn every_fate_of_the_first_envelopes_delivers_each_message_once() {
    for schedule in 0..3u32.pow(K) {
        run(schedule);
    }
}
