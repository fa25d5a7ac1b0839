//! Chaos-layer integration tests: determinism of seeded soaks, the
//! reliability machinery under forced switchboard failures, dedup under
//! duplicated retransmits, and stable error codes for chaos assertions.

use std::cell::RefCell;
use std::rc::Rc;

use pogo::chaos::{run_soak, SoakConfig};
use pogo::core::proto::ScriptSpec;
use pogo::core::{DeviceSetup, ExperimentSpec, ObsConfig, Testbed};
use pogo::net::{FlushPolicy, LinkFate, Payload};
use pogo::sim::{Sim, SimDuration};
use pogo::{Error, ErrorCode};

/// A per-device counter script: freeze + log + publish in one atomic
/// script step, the contract the invariant harness relies on. Each start
/// of the script logs `version` to the `loads` log.
fn counter_script(period_ms: u64, version: u32) -> String {
    format!(
        "logTo('loads', 'v{version}');\n\
         var st = thaw();\n\
         var n = st == null ? 0 : st.n;\n\
         function tick() {{\n\
             n = n + 1;\n\
             freeze({{ n: n }});\n\
             publish('chaos-data', {{ n: n }});\n\
             logTo('chaos-sent', n);\n\
             setTimeout(tick, {period_ms});\n\
         }}\n\
         tick();\n"
    )
}

/// The counter experiment at script `version`.
fn counter_spec(period_ms: u64, version: u32) -> ExperimentSpec {
    ExperimentSpec {
        id: "chaos".into(),
        scripts: vec![ScriptSpec {
            name: "tick.js".into(),
            source: counter_script(period_ms, version),
        }],
    }
}

fn deploy_counter(tb: &Testbed, period_ms: u64) {
    let jids: Vec<_> = tb.devices().iter().map(|d| d.jid()).collect();
    tb.collector()
        .deployment(&counter_spec(period_ms, 1))
        .to(&jids)
        .send()
        .expect("counter script passes the lint gate");
}

/// Collects delivered sample counters per publish, in arrival order.
fn collect_delivered(tb: &Testbed) -> Rc<RefCell<Vec<i64>>> {
    let delivered = Rc::new(RefCell::new(Vec::new()));
    let sink = delivered.clone();
    tb.collector().attach_listener(
        pogo::core::ChannelFilter::exp("chaos").channel("chaos-data"),
        move |event| {
            let n = event
                .msg
                .get("n")
                .and_then(pogo::core::Msg::as_num)
                .unwrap_or(-1.0) as i64;
            sink.borrow_mut().push(n);
        },
    );
    delivered
}

#[test]
fn same_seed_soaks_produce_byte_identical_traces() {
    let cfg = SoakConfig {
        seed: 99,
        phones: 2,
        duration: SimDuration::from_hours(2),
        mean_fault_gap: SimDuration::from_mins(12),
        capture_trace: true,
        ..SoakConfig::default()
    };
    let first = run_soak(&cfg);
    let second = run_soak(&cfg);
    assert!(!first.trace_jsonl.is_empty());
    assert_eq!(
        first.trace_jsonl, second.trace_jsonl,
        "same seed must replay the exact same trace"
    );
    assert!(first.passed(), "{}", first.summary());

    // The sample-store exports are deterministic too: same seed, byte-
    // identical CSV and JSONL of the audited channels.
    assert!(
        first.store_csv.lines().count() > 1,
        "store export carries rows: {}",
        first.store_csv
    );
    assert_eq!(
        first.store_csv, second.store_csv,
        "same seed must export the exact same CSV"
    );
    assert_eq!(
        first.store_jsonl, second.store_jsonl,
        "same seed must export the exact same JSONL"
    );

    let other = run_soak(&SoakConfig {
        seed: 100,
        ..cfg.clone()
    });
    assert_ne!(
        first.trace_jsonl, other.trace_jsonl,
        "a different seed explores a different schedule"
    );
}

#[test]
fn store_and_forward_rides_out_outage_and_restart() {
    let sim = Sim::new();
    let mut tb = Testbed::new(&sim);
    tb.add(
        DeviceSetup::named("phone-0")
            .configure(|c| c.with_flush_policy(FlushPolicy::Interval(SimDuration::from_secs(30)))),
    );
    let delivered = collect_delivered(&tb);
    deploy_counter(&tb, 30_000);
    sim.run_for(SimDuration::from_mins(2));

    // Hard outage: sessions die, reconnects are refused for 90 s. The
    // script keeps publishing into the store the whole time, and the
    // researcher redeploys into the outage: the collector's own outbox
    // must carry version 2 across it.
    tb.server().set_down(true);
    sim.run_for(SimDuration::from_secs(30));
    tb.collector()
        .deployment(&counter_spec(30_000, 2))
        .send()
        .expect("counter script passes the lint gate");
    sim.run_for(SimDuration::from_secs(60));
    tb.server().set_down(false);
    sim.run_for(SimDuration::from_mins(3));
    let device = &tb.devices()[0];
    assert_eq!(device.context("chaos").map(|c| c.version()), Some(2));
    assert_eq!(
        device.logs().lines("loads"),
        ["v1", "v2"],
        "version 2 arrived after the outage and started exactly once"
    );

    // Bounce the server again with no grace at all.
    tb.server().restart();
    sim.run_for(SimDuration::from_mins(5));
    // Stop publishing, so that nothing is left waiting for the next
    // 30 s flush when the store is checked.
    tb.collector().undeploy("chaos", &[device.jid()]);
    sim.run_for(SimDuration::from_mins(2));
    assert!(device.context("chaos").is_none());

    let got = delivered.borrow();
    let max = *got.iter().max().expect("samples arrived");
    let mut sorted: Vec<i64> = got.clone();
    sorted.sort_unstable();
    assert_eq!(
        sorted,
        (1..=max).collect::<Vec<i64>>(),
        "every published sample arrives exactly once, in spite of the outage"
    );
    assert!(max >= 15, "publishing continued across the faults");
    assert!(tb.server().restarts() >= 1);
    assert_eq!(device.buffered(), 0, "store fully drained");
}

#[test]
fn dedup_absorbs_duplicated_retransmits_when_acks_vanish() {
    let sim = Sim::new();
    let mut tb = Testbed::with_obs(&sim, ObsConfig::on());
    tb.add(DeviceSetup::named("phone-0").configure(|mut c| {
        c.retransmit_timeout = SimDuration::from_secs(30);
        c.with_flush_policy(FlushPolicy::Immediate)
    }));
    let device = tb.devices()[0].clone();
    let delivered = collect_delivered(&tb);
    deploy_counter(&tb, 60_000);

    // Black-hole every ack crossing phone-0's link: data keeps flowing,
    // nothing is ever confirmed, so the sender retransmits over and over.
    tb.server().set_link_chaos(&device.jid(), |env| {
        if matches!(env.payload, Payload::Ack(_)) {
            LinkFate::Drop
        } else {
            LinkFate::Deliver
        }
    });
    sim.run_for(SimDuration::from_mins(10));

    let dedup_drops = tb
        .obs()
        .metrics()
        .counter_for(Some("collector@pogo"), "net.dedup_drops");
    assert!(
        dedup_drops > 0,
        "ack loss must actually force duplicate retransmits"
    );
    // The same holds downstream: the collector's backstop resends the
    // deploy, the phone drops the copies and runs the script once.
    let device_drops = tb
        .obs()
        .metrics()
        .counter_for(Some("phone-0@pogo"), "net.dedup_drops");
    assert!(
        device_drops > 0,
        "the deploy was retransmitted to the phone"
    );
    assert_eq!(device.logs().lines("loads"), ["v1"], "deployed once");
    {
        let got = delivered.borrow();
        let mut sorted: Vec<i64> = got.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(
            sorted.len(),
            got.len(),
            "dedup filter lets every sample through exactly once"
        );
    }

    // Heal the link: acks flow again and the store drains.
    tb.server()
        .set_link_chaos(&device.jid(), |_| LinkFate::Deliver);
    sim.run_for(SimDuration::from_mins(3));
    assert_eq!(device.buffered(), 0, "store drains once acks return");
}

#[test]
fn chaos_failures_surface_stable_error_codes() {
    let sim = Sim::new();
    let tb = Testbed::new(&sim);
    tb.server().set_down(true);
    let jid = tb.collector().jid();
    let err = tb
        .server()
        .connect(&jid, SimDuration::from_millis(5))
        .expect_err("switchboard is down");
    let err: Error = err.into();
    assert_eq!(err.code(), ErrorCode::NetServerDown);
    assert_eq!(err.code().as_str(), "NET_SERVER_DOWN");
    let source = std::error::Error::source(&err).expect("chains to NetError");
    assert!(source.to_string().contains("down"));
}
