//! Data envelopes as the collector's link reads them: the front door a
//! phone's bytes cross. A run of one message without a mark is the
//! message's JSON exactly, as every data envelope was before frames; a
//! longer run is its messages one per line, numbered from the envelope's
//! seq, with a `mark <seq>` line first while the sender owes its
//! low-water mark. Frames of mixed channels arrive in seq order, repeated
//! and overlapping runs deliver each seq once, and a frame that cannot be
//! read costs one stable `pogo-errors` line, never a panic.

use std::cell::RefCell;
use std::rc::Rc;

use pogo::core::proto::{ControlMsg, ScriptSpec};
use pogo::core::{
    ChannelFilter, CollectorNode, DeviceSetup, ExperimentSpec, Msg, ObsConfig, Testbed,
};
use pogo::ingest::ChannelSchema;
use pogo::net::{FlushPolicy, Jid, LinkFate, Payload, Session, Switchboard};
use pogo::sim::{Sim, SimDuration, SimRng};

const EXP: &str = "frames";

/// A collector with `battery` and `accelerometer` registered, and a bare
/// session posing as a phone: what the collector stored (channel, JSON)
/// and the acks it sent back (first seq, seqs acked).
struct Rig {
    sim: Sim,
    collector: CollectorNode,
    phone: Session,
    stored: Rc<RefCell<Vec<(String, String)>>>,
    acks: Rc<RefCell<Vec<(u64, u64)>>>,
}

impl Rig {
    fn new() -> Rig {
        let sim = Sim::new();
        let server = Switchboard::new(&sim);
        let (col, dev) = (jid("collector@pogo"), jid("phone-0@pogo"));
        server.register(&col);
        server.register(&dev);
        server.befriend(&col, &dev).expect("both registered");
        let collector = CollectorNode::new(&sim, &server, &col);
        collector.create_experiment(EXP);
        for channel in ["battery", "accelerometer"] {
            collector
                .registry()
                .register(EXP, channel, ChannelSchema::json())
                .expect("fresh channel registers");
        }
        let stored: Rc<RefCell<Vec<(String, String)>>> = Rc::default();
        let sink = stored.clone();
        collector.attach_listener(ChannelFilter::exp(EXP), move |event| {
            let row = (event.channel.to_owned(), event.msg.to_json());
            sink.borrow_mut().push(row);
        });
        let phone = server
            .connect(&dev, SimDuration::from_millis(10))
            .expect("registered");
        let acks: Rc<RefCell<Vec<(u64, u64)>>> = Rc::default();
        let got = acks.clone();
        phone.on_receive(move |env| {
            if let Payload::Ack(first) = env.payload {
                got.borrow_mut().push((first, env.seq.wrapping_add(1)));
            }
        });
        Rig {
            sim,
            collector,
            phone,
            stored,
            acks,
        }
    }

    /// Sends `frame` numbered `seq` and lets it land.
    fn send(&self, seq: u64, frame: &str) {
        let collector = self.collector.jid();
        let sent = self
            .phone
            .send(&collector, seq, Payload::Data(frame.to_owned()));
        sent.expect("the phone is connected and befriended");
        self.sim.run_for(SimDuration::from_secs(1));
    }

    fn errors(&self) -> Vec<String> {
        self.collector.logs().lines("pogo-errors")
    }
}

fn jid(s: &str) -> Jid {
    Jid::new(s).expect("static JID")
}

/// One sample's message on `channel`, its reading `n`.
fn sample(channel: &str, n: i64) -> String {
    ControlMsg::Data {
        exp: EXP.into(),
        channel: channel.into(),
        msg: Msg::obj([("n", Msg::Num(n as f64)), ("note", Msg::str("a\nb"))]),
        sub_ref: None,
    }
    .to_json()
}

/// The runs' messages one per line, behind `mark` if given.
fn frame(mark: Option<u64>, messages: &[String]) -> String {
    let lines = messages.join("\n");
    match mark {
        Some(mark) if messages.is_empty() => format!("mark {mark}"),
        Some(mark) => format!("mark {mark}\n{lines}"),
        None => lines,
    }
}

/// What one sample of [`sample`]'s stores as.
fn row(channel: &str, n: i64) -> (String, String) {
    (channel.to_owned(), format!(r#"{{"n":{n},"note":"a\nb"}}"#))
}

#[test]
fn a_run_of_one_goes_out_as_the_message_itself() {
    // A phone whose script publishes one sample; the switchboard sees its
    // data envelope.
    let sim = Sim::new();
    let mut tb = Testbed::with_obs(&sim, ObsConfig::on());
    let (device, _phone) = tb.add(
        DeviceSetup::named("phone-0").configure(|c| c.with_flush_policy(FlushPolicy::Immediate)),
    );
    let payloads: Rc<RefCell<Vec<(u64, String)>>> = Rc::default();
    let (sink, me) = (payloads.clone(), device.jid());
    tb.server().set_link_chaos(&device.jid(), move |env| {
        if let (true, Some(data)) = (env.from == me, env.data()) {
            sink.borrow_mut().push((env.seq, data.to_owned()));
        }
        LinkFate::Deliver
    });
    tb.collector()
        .attach_listener(ChannelFilter::exp("golden").channel("data"), |_| {});
    let spec = ExperimentSpec {
        id: "golden".into(),
        scripts: vec![ScriptSpec {
            name: "once.js".into(),
            source: "setTimeout(function () { publish('data', { n: 1 }); }, 60000);\n".into(),
        }],
    };
    tb.collector()
        .deployment(&spec)
        .to(&[device.jid()])
        .send()
        .expect("the script passes the deploy gate");
    sim.run_for(SimDuration::from_mins(5));
    let golden = r#"{"t":"data","exp":"golden","ch":"data","msg":{"n":1},"ref":0}"#;
    assert_eq!(*payloads.borrow(), vec![(0, golden.to_owned())]);
    assert!(ControlMsg::from_json(golden).is_ok());
}

#[test]
fn mixed_channels_arrive_in_seq_order_under_one_ack() {
    let rig = Rig::new();
    let messages = [
        sample("battery", 1),
        sample("accelerometer", 2),
        sample("battery", 3),
    ];
    rig.send(0, &frame(None, &messages));
    assert_eq!(
        *rig.stored.borrow(),
        vec![
            row("battery", 1),
            row("accelerometer", 2),
            row("battery", 3)
        ]
    );
    assert_eq!(
        *rig.acks.borrow(),
        vec![(0, 3), (0, 3)],
        "one ack, sent twice"
    );
    // Under a mark: the same, and the mark line is not a message.
    rig.send(3, &frame(Some(3), &[sample("accelerometer", 4)]));
    assert_eq!(rig.stored.borrow().last(), Some(&row("accelerometer", 4)));
    assert_eq!(rig.acks.borrow().last(), Some(&(3, 1)));
    // A mark alone is acked as an empty run.
    rig.send(4, &frame(Some(4), &[]));
    assert_eq!(rig.acks.borrow().last(), Some(&(4, 0)));
    assert_eq!((rig.stored.borrow().len(), rig.errors()), (4, vec![]));
    assert_eq!(rig.collector.held_above_floor(), 0);
}

#[test]
fn repeated_and_overlapping_runs_deliver_each_seq_once() {
    let rig = Rig::new();
    let messages: Vec<String> = (0..6).map(|n| sample("battery", n)).collect();
    let run = |seqs: std::ops::Range<usize>| {
        let first = seqs.start as u64;
        rig.send(first, &frame(None, &messages[seqs]));
    };
    run(2..5); // ahead of a gap
    run(0..3); // fills it, overlapping
    run(2..5); // a resend after a lost ack
    run(4..6); // overlapping the tail
    run(1..2);
    let stored: Vec<(String, String)> = rig.stored.borrow().clone();
    let expected: Vec<(String, String)> = [2, 3, 4, 0, 1, 5]
        .into_iter()
        .map(|n| row("battery", n))
        .collect();
    assert_eq!(
        stored, expected,
        "each seq stored once, fresh ones in order"
    );
    let acks = rig.acks.borrow();
    assert_eq!(
        acks.len(),
        9,
        "every frame acked, a run of one once: {acks:?}"
    );
    assert_eq!(
        (rig.errors(), rig.collector.held_above_floor()),
        (vec![], 0)
    );
}

/// Frames that cannot be read whole, and the one line each costs.
const BROKEN: [(&str, &str); 5] = [
    (
        "mark x\n{}",
        "malformed frame from phone-0@pogo at seq 10: unreadable mark",
    ),
    (
        "mark 11\n{}",
        "malformed frame from phone-0@pogo at seq 10: mark above the run",
    ),
    ("", "malformed message from phone-0@pogo at seq 10: "),
    (
        "{\"t\":\"da",
        "malformed message from phone-0@pogo at seq 10: ",
    ),
    ("{\n}\n[", "malformed message from phone-0@pogo at seq 10: "),
];

#[test]
fn unreadable_frames_cost_one_stable_error_line_each() {
    for (frame, line) in BROKEN {
        let rig = Rig::new();
        rig.send(10, frame);
        let errors = rig.errors();
        assert_eq!(errors.len(), 1, "{frame:?}: {errors:?}");
        assert!(errors[0].starts_with(line), "{frame:?}: {errors:?}");
        assert!(rig.stored.borrow().is_empty());
        // The same bytes again, on a fresh collector: the same line.
        let again = Rig::new();
        again.send(10, frame);
        assert_eq!(again.errors(), errors, "{frame:?}: a stable line");
    }
    // Three bad lines in one frame are still one line.
    let rig = Rig::new();
    rig.send(0, "x\ny\nz");
    let errors = rig.errors();
    assert_eq!(errors.len(), 1, "{errors:?}");
    assert!(
        errors[0].ends_with("(and 2 more in its frame)"),
        "{errors:?}"
    );
    // A run that would number past the last seq is refused whole.
    let rig = Rig::new();
    rig.send(
        u64::MAX,
        &frame(None, &[sample("battery", 1), sample("battery", 2)]),
    );
    assert_eq!(
        rig.errors(),
        vec![
            "malformed frame from phone-0@pogo at seq 18446744073709551615: run past the last \
              seq"
            .to_owned()
        ]
    );
}

#[test]
fn truncated_and_mutated_frames_never_panic_and_cost_at_most_one_line() {
    let messages = [
        sample("battery", 1),
        sample("accelerometer", 2),
        sample("battery", 3),
    ];
    let whole = frame(Some(0), &messages);
    let rig = Rig::new();
    let mut seq = 0;
    let mut check = |frame: &str, what: &str| {
        let (errors, stored) = (rig.errors().len(), rig.stored.borrow().len());
        rig.send(seq, frame);
        let (errors_now, stored_now) = (rig.errors().len(), rig.stored.borrow().len());
        assert!(
            errors_now - errors <= 1,
            "{what} {frame:?}: {:?}",
            rig.errors()
        );
        assert!(stored_now - stored <= messages.len(), "{what} {frame:?}");
        seq += 100;
    };
    // Cut anywhere, a frame at most loses its tail to one error line.
    for cut in 0..whole.len() {
        check(&whole[..cut], "truncated");
    }
    // One byte replaced, removed or doubled, from a seeded stream.
    const ALPHABET: &[u8] = b"{}[]\":,\n 0123456789.-abemnrtx";
    let mut rng = SimRng::seed_from_u64(0xf4a3e);
    for _ in 0..500 {
        let mut bytes = whole.clone().into_bytes();
        let at = rng.index(bytes.len());
        match rng.range_u64(0, 3) {
            0 => bytes[at] = ALPHABET[rng.index(ALPHABET.len())],
            1 => drop(bytes.remove(at)),
            _ => bytes.insert(at, bytes[at]),
        }
        let mutated = String::from_utf8(bytes).expect("ASCII in, ASCII out");
        check(&mutated, "mutated");
    }
}
