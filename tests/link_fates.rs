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
//!
//! A second enumeration adds a fourth fate, a kick (the switchboard
//! restarts while the envelope is on its way), and gives the phone a
//! 45 s message age limit, so that what a lost or held envelope carried
//! is purged at the phone's next flush evaluation instead of resent.
//! Each sample then arrives at most once, none is lost but to the purge,
//! and at quiescence no seen-set holds a seq below its sender's low-water
//! mark: with both outboxes empty that mark is the sender's next seq, so
//! no seen-set may hold any seq above its floor.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::rc::Rc;

use pogo::core::proto::ScriptSpec;
use pogo::core::{ChannelFilter, DeviceSetup, ExperimentSpec, ObsConfig, Testbed, ACK_TIMEOUT};
use pogo::net::{FlushPolicy, Jid, LinkFate, Payload, Switchboard};
use pogo::sim::{Sim, SimDuration, SimTime};

/// Envelopes whose fate is enumerated: `3^K` runs.
const K: u32 = 7;

/// Envelopes whose fate is enumerated with kicks: `4^K_KICK` runs.
const K_KICK: u32 = 6;

/// Held this long: past the retransmit timeout, so the copy it races is
/// already on its way.
const HOLD: SimDuration = SimDuration::from_secs(90);

/// The phone's message age limit in the kick runs: past the 30 s flush
/// interval, short of the 60 s retransmit gate.
const PURGE_AGE: SimDuration = SimDuration::from_secs(45);

/// What happens to one envelope.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Fate {
    Deliver,
    Drop,
    /// Delivered [`HOLD`] late.
    Hold,
    /// The switchboard restarts right after the envelope leaves: it is
    /// lost with everything else in flight, and both nodes dial back in.
    Kick,
}

impl Fate {
    fn on_link(self) -> LinkFate {
        match self {
            Fate::Deliver | Fate::Kick => LinkFate::Deliver,
            Fate::Drop => LinkFate::Drop,
            Fate::Hold => LinkFate::Delay(HOLD),
        }
    }
}

const FATES: [Fate; 3] = [Fate::Deliver, Fate::Drop, Fate::Hold];
const KICK_FATES: [Fate; 4] = [Fate::Deliver, Fate::Drop, Fate::Hold, Fate::Kick];

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

/// One envelope as the switchboard's hook saw it: `(from, seqs, data?,
/// fate)`; an ack's seqs are the ones it acknowledges.
type Seen = (Jid, Range<u64>, bool, Fate);

/// The seqs a data envelope numbered `seq` carries: its messages, one
/// per line, after a `mark <seq>` line when the sender owes its
/// low-water mark (a frame may be that line alone).
fn carried(seq: u64, data: &str) -> Range<u64> {
    let lines = data.split('\n').count() as u64;
    seq..seq + lines - u64::from(data.starts_with("mark "))
}

/// Runs one schedule of `script`: envelope `i < k` meets `fates[digit i
/// of schedule]`, in base `fates.len()`.
fn run(script: &str, schedule: u32, fates: &[Fate], k: u32) -> BTreeSet<SimTime> {
    let kicks = fates.contains(&Fate::Kick);
    let sim = Sim::new();
    let mut tb = Testbed::with_obs(&sim, ObsConfig::on());
    let (device, _phone) = tb.add(DeviceSetup::named("phone-0").configure(move |c| {
        let c = c.with_flush_policy(FlushPolicy::Interval(SimDuration::from_secs(30)));
        if kicks {
            c.with_max_msg_age(PURGE_AGE)
        } else {
            c
        }
    }));
    let log: Rc<RefCell<Vec<Seen>>> = Rc::default();
    let sink = log.clone();
    // When the device last handed each seq to a session (a kicked phone
    // redials after 5 s, past the ack timeout), the instants it handed
    // data over, and every hand-over that came too soon.
    let handed: RefCell<BTreeMap<u64, SimTime>> = RefCell::default();
    let flights: Rc<RefCell<BTreeSet<SimTime>>> = Rc::default();
    let too_soon: Rc<RefCell<Vec<(u64, SimTime, SimTime)>>> = Rc::default();
    let (clock, me) = (sim.clone(), device.jid());
    let (flown, early) = (flights.clone(), too_soon.clone());
    // Taken when the run ends: the hook lives in the switchboard.
    let kicker: Rc<RefCell<Option<Switchboard>>> = Rc::new(RefCell::new(Some(tb.server().clone())));
    let server = kicker.clone();
    let base = fates.len() as u32;
    let fates = fates.to_vec();
    tb.server().set_link_chaos(&device.jid(), move |env| {
        let seqs = match &env.payload {
            Payload::Data(data) => carried(env.seq, data),
            Payload::Ack(first) => *first..first + env.seq.wrapping_add(1),
        };
        let data = matches!(env.payload, Payload::Data(_));
        if env.from == me && data {
            let now = clock.now();
            flown.borrow_mut().insert(now);
            for seq in seqs.clone() {
                let last = handed.borrow_mut().insert(seq, now);
                if let Some(last) = last.filter(|t| now.saturating_duration_since(*t) < ACK_TIMEOUT)
                {
                    early.borrow_mut().push((seq, last, now));
                }
            }
        }
        let mut log = sink.borrow_mut();
        let i = log.len() as u32;
        let fate = if i < k {
            fates[(schedule / base.pow(i) % base) as usize]
        } else {
            Fate::Deliver
        };
        if fate == Fate::Kick {
            let server = server.borrow().clone();
            clock.schedule_in(SimDuration::ZERO, move || {
                server.into_iter().for_each(|s| s.restart())
            });
        }
        log.push((env.from.clone(), seqs, data, fate));
        fate.on_link()
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
    kicker.take();
    let log = log.borrow();
    assert_eq!(log.len(), settled, "schedule {schedule}: still sending");
    assert_eq!(device.buffered(), 0, "schedule {schedule}: device outbox");
    // Both outboxes are empty, so each sender's low-water mark is its
    // next seq: every seq it sent is below it.
    let held = (device.held_above_floor(), tb.collector().held_above_floor());
    assert_eq!(
        held,
        (0, 0),
        "schedule {schedule}: (phone, collector) seen-sets hold seqs below their sender's \
         low-water mark"
    );

    let data = || log.iter().filter(|seen| seen.2);
    let copies_of = |seen: &Seen| seen.1.end - seen.1.start;
    let each = |seen: &Seen| {
        seen.1
            .clone()
            .map(|seq| (seen.0.clone(), seq))
            .collect::<Vec<_>>()
    };
    let sent: BTreeSet<(Jid, u64)> = data().flat_map(each).collect();
    let metrics = tb.obs().metrics();
    // A phone counts its resends too: every copy of a seq after the first.
    let phone = device.jid();
    let phone_data = || data().filter(|seen| seen.0 == phone);
    let phone_sent: u64 = phone_data().map(copies_of).sum();
    let phone_distinct = sent.iter().filter(|(from, _)| *from == phone).count();
    let phone_net = |name: &str| metrics.counter_for(Some(phone.as_str()), name);
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
    if kicks {
        // A kick loses what else is in flight, unseen by the hook, and
        // what a flush had on the air when its session died. Each message
        // the phone sent is a sample, and expiry is the only loss.
        assert!(
            phone_net("net.messages_sent") >= phone_sent,
            "schedule {schedule}"
        );
        assert!(
            samples.len() + device.purged() as usize >= phone_distinct,
            "schedule {schedule}: {phone_distinct} sent, {samples:?} stored, {} purged",
            device.purged()
        );
        return flights.take();
    }

    assert_eq!(
        phone_net("net.messages_sent"),
        phone_sent,
        "schedule {schedule}"
    );
    assert_eq!(
        phone_net("net.retransmits"),
        phone_sent - phone_distinct as u64,
        "schedule {schedule}: the phone's resends"
    );
    let arrived = data().filter(|seen| seen.3 != Fate::Drop);
    let copies: u64 = arrived.clone().map(copies_of).sum();
    let distinct: BTreeSet<(Jid, u64)> = arrived.flat_map(each).collect();
    assert_eq!(distinct, sent, "schedule {schedule}: every message arrived");
    let net = |name: &str| {
        let count = |jid: Jid| metrics.counter_for(Some(jid.as_str()), name);
        count(device.jid()) + count(tb.collector().jid())
    };
    let acks = log.iter().filter(|seen| !seen.2).count() as u64;
    assert_eq!(
        net("net.messages_sent"),
        data().map(copies_of).sum::<u64>(),
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
    flights.take()
}

#[test]
fn every_fate_of_the_first_envelopes_delivers_each_message_once() {
    for schedule in 0..3u32.pow(K) {
        run(SCRIPT, schedule, &FATES, K);
    }
}

#[test]
fn kicks_and_purges_lose_nothing_else_and_leave_no_seq_below_a_mark() {
    for schedule in 0..4u32.pow(K_KICK) {
        run(SCRIPT, schedule, &KICK_FATES, K_KICK);
    }
}

#[test]
fn samples_queued_while_a_flush_is_on_the_air_do_not_resend_it() {
    let flights: Vec<SimTime> = run(ON_AIR_SCRIPT, 0, &FATES, K).into_iter().collect();
    let overlapping = flights
        .windows(2)
        .any(|pair| pair[1].saturating_duration_since(pair[0]) < ACK_TIMEOUT);
    assert!(
        overlapping,
        "no flush went out while the one before it was in flight: {flights:?}"
    );
}
