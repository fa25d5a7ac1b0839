//! Every fate for the first few envelopes of a device's link: each of the
//! first `K` envelopes crossing it, in either direction and acks included,
//! is delivered, dropped or held past the 60 s retransmit timeout, and
//! every combination runs. At quiescence each message has arrived exactly
//! once, both outboxes are empty, and the link's `net.*` counters agree
//! with what the switchboard saw. Throughout, the device never hands a
//! message to its session again before the ack timeout has run out since
//! it last did: a copy in flight is not sent twice. A last run queues
//! samples while a flush is on the air, the case that once resent a
//! whole batch whose acks were still on their way.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use pogo::core::proto::ScriptSpec;
use pogo::core::{ChannelFilter, DeviceSetup, ExperimentSpec, ObsConfig, Testbed, ACK_TIMEOUT};
use pogo::net::{FlushPolicy, Jid, LinkFate, Payload};
use pogo::sim::{Sim, SimDuration, SimTime};

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

/// Publishes a sample a second for 40 seconds, a minute after it loads:
/// the 30 s interval flush goes out with the first thirty, and the next
/// ones are queued while it is on the air.
const ON_AIR_SCRIPT: &str = "var n = 0;\n\
    function tick() {\n\
        n = n + 1;\n\
        publish('data', { n: n });\n\
        if (n < 40) { setTimeout(tick, 1000); }\n\
    }\n\
    setTimeout(tick, 60000);\n";

/// One envelope as the switchboard's hook saw it: `(from, seq, data?,
/// fate)`; an ack's `seq` is the one it acknowledges.
type Seen = (Jid, u64, bool, LinkFate);

/// Runs one schedule of `script`: envelope `i < K` meets `FATES[digit i
/// of schedule]`.
fn run(script: &str, schedule: u32) -> BTreeSet<SimTime> {
    let sim = Sim::new();
    let mut tb = Testbed::with_obs(&sim, ObsConfig::on());
    let (device, _phone) = tb.add(
        DeviceSetup::named("phone-0")
            .configure(|c| c.with_flush_policy(FlushPolicy::Interval(SimDuration::from_secs(30)))),
    );
    let log: Rc<RefCell<Vec<Seen>>> = Rc::default();
    let sink = log.clone();
    // When the device last handed each seq to its session (the fates
    // never drop the session), the instants it handed data over, and
    // every hand-over that came too soon.
    let handed: RefCell<BTreeMap<u64, SimTime>> = RefCell::default();
    let flights: Rc<RefCell<BTreeSet<SimTime>>> = Rc::default();
    let too_soon: Rc<RefCell<Vec<(u64, SimTime, SimTime)>>> = Rc::default();
    let (clock, me) = (sim.clone(), device.jid());
    let (flown, early) = (flights.clone(), too_soon.clone());
    tb.server().set_link_chaos(&device.jid(), move |env| {
        if env.from == me && matches!(env.payload, Payload::Data(_)) {
            let now = clock.now();
            flown.borrow_mut().insert(now);
            let last = handed.borrow_mut().insert(env.seq, now);
            if let Some(last) = last.filter(|t| now.saturating_duration_since(*t) < ACK_TIMEOUT) {
                early.borrow_mut().push((env.seq, last, now));
            }
        }
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
            source: script.into(),
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
    // A phone counts its resends too: every copy of a seq after the first.
    let phone = device.jid();
    let phone_sent = data().filter(|seen| seen.0 == phone).count();
    let phone_distinct = sent.iter().filter(|(from, _)| **from == phone).count();
    assert_eq!(
        metrics.counter_for(Some(phone.as_str()), "net.retransmits"),
        (phone_sent - phone_distinct) as u64,
        "schedule {schedule}: the phone's resends"
    );
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
    let too_soon = too_soon.borrow();
    assert!(
        too_soon.is_empty(),
        "schedule {schedule}: handed to the session again within the {ACK_TIMEOUT:?} ack \
         timeout, (seq, first, again): {too_soon:?}"
    );
    flights.take()
}

#[test]
fn every_fate_of_the_first_envelopes_delivers_each_message_once() {
    for schedule in 0..3u32.pow(K) {
        run(SCRIPT, schedule);
    }
}

#[test]
fn samples_queued_while_a_flush_is_on_the_air_do_not_resend_it() {
    let flights: Vec<SimTime> = run(ON_AIR_SCRIPT, 0).into_iter().collect();
    let overlapping = flights
        .windows(2)
        .any(|pair| pair[1].saturating_duration_since(pair[0]) < ACK_TIMEOUT);
    assert!(
        overlapping,
        "no flush went out while the one before it was in flight: {flights:?}"
    );
}
