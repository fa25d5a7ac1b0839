//! The benchmark's contract with the workspace, type-checked in tier-1.
//!
//! `benchmark/` is a package of its own that tier-1 never builds, so a
//! signature drift would otherwise show only in `ci.sh`'s perf step. This
//! file names every `pogo`, `pogo_core`, `pogo_net`, `pogo_obs`,
//! `pogo_platform` and `pogo_script` item that `benchmark/README.md`
//! ("Public items the benchmark calls") lists, at the types the benchmark
//! uses them at: a change that breaks one fails to compile here first.
//! (`pogo_ingest` and `pogo_sim` have their own `bench_contract.rs`.) When
//! that list changes, change this file with it.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use pogo::glue;
use pogo_cluster::Scan;
use pogo_core::context::{CollectorContext, DeviceContext};
use pogo_core::host::{FrozenSlot, LogStore};
use pogo_core::proto::{ControlMsg, ScriptSpec};
use pogo_core::sensor::{AccelSample, SensorManager, SensorSources, WifiReading};
use pogo_core::{
    Broker, ChannelFilter, ChannelRegistry, ChannelSchema, CollectorNode, CollectorStats,
    DeployError, DeviceConfig, DeviceNode, ExperimentSpec, Fleet, FleetMember, FleetSpec,
    IngestError, IngestStats, Msg, SampleEvent, SampleStore, ScanQuery, Scheduler, ScriptHost,
    Testbed, WATCHDOG_BUDGET,
};
use pogo_net::{
    Envelope, FlushPolicy, Jid, LinkFate, LinkShape, MessageStore, Payload, Session, StoredMessage,
    Switchboard,
};
use pogo_obs::{Metric, MetricRow, Metrics, Obs, ObsConfig, Recorder};
use pogo_platform::{
    CarrierProfile, CellularModem, Cpu, EnergyMeter, NetAppConfig, PeriodicNetApp, Phone,
    PhoneConfig,
};
use pogo_script::{CompiledProgram, CostBudgets, CostReport, Diagnostic, ScriptError};
use pogo_sim::{Sim, SimDuration, SimTime};

// The function-pointer types below spell out whole signatures on purpose.
#[allow(clippy::type_complexity)]
#[test]
fn signatures_are_what_the_benchmark_calls() {
    // pogo
    let _: fn(&str) -> ExperimentSpec = glue::localization_experiment;
    let _: fn(&Msg) -> Option<Scan> = glue::scan_from_msg;

    // pogo_core: testbed and fleet
    let _: fn(&Sim) -> Testbed = Testbed::new;
    let _: fn(&Sim, ObsConfig) -> Testbed = Testbed::with_obs;
    let _: fn(&mut Testbed, FleetSpec) -> Fleet = Testbed::add_fleet;
    let _: fn(&Testbed) -> &Switchboard = Testbed::server;
    let _: fn(&Testbed) -> &CollectorNode = Testbed::collector;
    let _: fn(&Testbed, SimDuration, SimDuration) -> u64 = Testbed::run_lockstep;
    let _: fn(&Testbed) -> &Obs = Testbed::obs;
    let _: fn(usize) -> FleetSpec = FleetSpec::new;
    let _: fn(FleetSpec, &str) -> FleetSpec = FleetSpec::prefix;
    let _: fn(FleetSpec, u64) -> FleetSpec = FleetSpec::seed;
    let _: fn(FleetSpec, f64) -> FleetSpec = FleetSpec::battery_jitter;
    let _: fn(&Fleet) -> std::slice::Iter<'_, FleetMember> = Fleet::iter;
    let _: fn(&Fleet) -> Vec<Jid> = Fleet::jids;
    let _: fn(DeviceConfig, FlushPolicy) -> DeviceConfig = DeviceConfig::with_flush_policy;
    let _: fn(&DeviceNode) -> SensorManager = DeviceNode::sensors;
    let _: fn(&DeviceNode, &str) -> Option<DeviceContext> = DeviceNode::context;
    let _: fn(&DeviceNode) -> u64 = DeviceNode::messages_sent;
    let _: fn(&DeviceNode) -> u64 = DeviceNode::flushes;
    let _: fn(&DeviceNode) -> u64 = DeviceNode::purged;
    let _: fn(&DeviceNode) -> usize = DeviceNode::buffered;

    // pogo_core: the pieces the replays stand up on their own
    let _: fn(&Phone, &Scheduler, SensorSources) -> SensorManager = SensorManager::new;
    let _: fn(&SensorManager, &str, &Broker) = SensorManager::attach_context;
    let _: fn(&SensorManager, &str) -> u64 = SensorManager::sample_count;
    let _: fn(&str, u64, &Scheduler, &LogStore, Rc<dyn Fn(ControlMsg)>) -> DeviceContext =
        DeviceContext::new;
    let _: fn(&DeviceContext) -> Broker = DeviceContext::broker;
    let _: fn(&DeviceContext) -> Vec<ScriptHost> = DeviceContext::scripts;
    let _: fn(&CollectorContext) -> Broker = CollectorContext::broker;
    let _: fn(&ScriptHost) -> String = ScriptHost::name;
    let _: fn(&ScriptHost) -> u64 = ScriptHost::callbacks_run;
    let _: fn(&ScriptHost) -> u64 = ScriptHost::steps_used;
    let _: fn(&ScriptHost) -> u64 = ScriptHost::publishes;
    let _: fn(&ScriptHost) -> u64 = ScriptHost::watchdog_trips;
    let _: fn(&ScriptHost) -> Vec<String> = ScriptHost::errors;
    let _: fn() -> FrozenSlot = FrozenSlot::new;
    let _: fn() -> LogStore = LogStore::new;
    let _: fn() -> Broker = Broker::new;
    let _: fn(&Broker, &str, &Msg) -> usize = Broker::publish;
    let _: fn(&Broker) -> u64 = Broker::published_count;
    let _: fn(&Cpu) -> Scheduler = Scheduler::new;

    // pogo_core: the collector
    let _: fn(&Sim, &Switchboard, &Jid) -> CollectorNode = CollectorNode::new;
    let _: fn(&CollectorNode) -> Jid = CollectorNode::jid;
    let _: fn(&CollectorNode) -> ChannelRegistry = CollectorNode::registry;
    let _: fn(&CollectorNode) -> SampleStore = CollectorNode::store;
    let _: fn(&CollectorNode) -> CollectorStats = CollectorNode::stats;
    let _: fn(&CollectorNode, &str) -> Option<CollectorContext> = CollectorNode::context;
    let _: fn(&ChannelRegistry, &str, &str, ChannelSchema) -> Result<(), IngestError> =
        ChannelRegistry::register;
    let _: fn(&ChannelRegistry, &str, &str, Msg, ChannelSchema) -> Result<(), IngestError> =
        ChannelRegistry::register_with_params;
    let _: fn(&str) -> ChannelFilter = ChannelFilter::exp;
    let _: fn(&str) -> Result<ControlMsg, pogo_core::proto::ProtoError> = ControlMsg::from_json;
    let _: fn(&ControlMsg) -> String = ControlMsg::to_json;
    let _: u64 = WATCHDOG_BUDGET;

    // pogo_core: Msg
    let _: for<'a> fn(&'a Msg, &str) -> Option<&'a Msg> = Msg::get;
    let _: fn(&Msg) -> Option<f64> = Msg::as_num;
    let _: fn(&Msg) -> Option<&str> = Msg::as_str;
    let _: fn(&Msg) -> Option<&[Msg]> = Msg::as_arr;
    let _: fn(&Msg) -> String = Msg::to_json;
    let _: fn(&str) -> Result<Msg, pogo_core::value::JsonError> = Msg::from_json;

    // pogo_net
    let _: fn(&Sim) -> Switchboard = Switchboard::new;
    let _: fn(&Switchboard, &Jid) = Switchboard::register;
    let _: fn(&Switchboard, &Jid, &Jid) -> Result<(), pogo_net::NetError> = Switchboard::befriend;
    let _: fn(&Switchboard, &Jid, SimDuration) -> Result<Session, pogo_net::NetError> =
        Switchboard::connect;
    let _: fn(&Switchboard, u64) = Switchboard::reseed_link_rng;
    let _: fn(&Switchboard, &Jid, LinkShape) = Switchboard::shape_link;
    let _: fn(&Switchboard) -> u64 = Switchboard::routed;
    let _: fn(&Switchboard) -> u64 = Switchboard::dropped;
    let _: fn(&Session, &Jid, u64, Payload) -> Result<(), pogo_net::NetError> = Session::send;
    let _: fn(&Envelope) -> u64 = Envelope::wire_size;
    let _: fn(&Envelope) -> Option<&str> = Envelope::data;
    let _: fn(&str) -> Result<Jid, pogo_net::jid::ParseJidError> = Jid::new;
    let _: fn() -> MessageStore = MessageStore::new;
    let _: fn(&MessageStore, &Jid, String, SimTime) -> u64 = MessageStore::enqueue;
    let _: fn(&MessageStore) -> Vec<StoredMessage> = MessageStore::pending;
    let _: fn(&MessageStore, &[u64]) -> usize = MessageStore::ack;
    let _: fn(SimDuration) -> FlushPolicy = FlushPolicy::Interval;

    // pogo_obs
    let _: fn() -> ObsConfig = ObsConfig::on;
    let _: fn() -> Obs = Obs::off;
    let _: fn(&Obs) -> &Metrics = Obs::metrics;
    let _: fn(&Obs) -> &Recorder = Obs::recorder;
    let _: fn(&Metrics) -> Vec<MetricRow> = Metrics::snapshot;
    let _: fn(&Recorder) -> usize = Recorder::len;
    let _: fn(&Recorder) -> u64 = Recorder::dropped;

    // pogo_platform
    let _: fn(&Sim, PhoneConfig) -> Phone = Phone::new;
    let _: fn(&Phone) -> &EnergyMeter = Phone::meter;
    let _: fn(&Phone) -> &Cpu = Phone::cpu;
    let _: fn(&Phone) -> &CellularModem = Phone::modem;
    let _: fn(&Phone) -> (u64, u64) = Phone::mobile_byte_counters;
    let _: fn() -> PhoneConfig = PhoneConfig::default;
    let _: fn(&EnergyMeter) -> f64 = EnergyMeter::total_joules;
    let _: fn(&Cpu) -> u64 = Cpu::wakeups;
    let _: fn(&Cpu) -> SimDuration = Cpu::awake_time;
    let _: fn(&CellularModem) -> u64 = CellularModem::ramp_ups;
    let _: [fn() -> CarrierProfile; 3] = [
        CarrierProfile::kpn,
        CarrierProfile::t_mobile,
        CarrierProfile::vodafone,
    ];
    let _: fn() -> NetAppConfig = NetAppConfig::email;
    let _: fn(&Phone, NetAppConfig) -> PeriodicNetApp = PeriodicNetApp::install;
    let _: fn(&PeriodicNetApp) -> u64 = PeriodicNetApp::checks;

    // pogo_script
    let _: fn(&[(&str, &str)]) -> Vec<(String, Diagnostic)> = pogo_script::analyze_bundle;
    let _: fn(&str) -> Result<CompiledProgram, ScriptError> = pogo_script::compile;
    let _: fn(&CompiledProgram) -> Result<(), pogo_script::VerifyError> =
        pogo_script::verify::check;
    let _: fn(&CompiledProgram) -> CostReport = pogo_script::analyze_costs;
    let _: fn(&CostReport, &CostBudgets) -> Vec<Diagnostic> = pogo_script::cost_diagnostics;
    let _ = CostBudgets {
        callback: WATCHDOG_BUDGET,
        load: WATCHDOG_BUDGET * 10,
    };
}

#[test]
fn fields_and_variants_are_what_the_benchmark_reads() {
    // `report.rs` builds `Msg::Obj` from owned `(String, Msg)` pairs and
    // takes it apart again, so the key type is part of the contract.
    let pairs: Vec<(String, Msg)> = vec![(String::from("setup_s"), Msg::Num(1.5))];
    let obj = Msg::Obj(pairs);
    let Msg::Obj(pairs) = &obj else {
        panic!("built as Obj");
    };
    let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["setup_s"]);
    let back = Msg::from_json(&obj.to_json()).expect("round trip");
    assert_eq!(back.get("setup_s").and_then(Msg::as_num), Some(1.5));
    // `Msg::str` and `Msg::obj` take `impl Into<String>`: called with the
    // `&str`, `&String` and `String` the benchmark passes, and as the
    // mapping function `report.rs` uses.
    let problems = [String::from("p")];
    let _ = [
        Msg::Null,
        Msg::Bool(true),
        Msg::str("s"),
        Msg::str(&problems[0]),
        Msg::str(7.to_string()),
        Msg::Arr(problems.iter().map(Msg::str).collect()),
        Msg::obj([("value", Msg::Num(1.0)), ("unit", Msg::str("s"))]),
    ];

    let data = ControlMsg::Data {
        exp: String::from("e"),
        channel: String::from("battery"),
        msg: Msg::obj([("voltage", Msg::Num(3.9))]),
        sub_ref: None,
    };
    match ControlMsg::from_json(&data.to_json()) {
        Ok(ControlMsg::Data { channel, msg, .. }) => {
            let _: (String, Msg) = (channel, msg);
        }
        other => panic!("decoded to {other:?}"),
    }

    let spec = ExperimentSpec {
        id: String::from("e"),
        scripts: Vec::<ScriptSpec>::new(),
    };
    let _: (&String, &Vec<ScriptSpec>) = (&spec.id, &spec.scripts);
    let stats = CollectorStats::default();
    let _: (u64, IngestStats, usize) = (stats.data_received, stats.ingest, stats.errors_logged);
    let _: (u64, u64, u64) = (
        stats.ingest.ingested_rows,
        stats.ingest.schema_mismatches,
        stats.ingest.batches_flushed,
    );
    let _ = WifiReading {
        bssid: String::from("00:1a:2b:3c:4d:5e"),
        rssi_dbm: -60.0,
    };
    let _ = AccelSample {
        x: 0.0,
        y: 0.0,
        z: 9.81,
    };
    let _ = LinkShape {
        loss: 0.01,
        ..LinkShape::default()
    };
    let email = NetAppConfig::email();
    let _: (SimDuration, u64) = (email.period, email.tx_bytes);
    let _ = NetAppConfig {
        start_offset: SimDuration::from_millis(7),
        ..email
    };
    let _ = PhoneConfig {
        carrier: CarrierProfile::vodafone(),
        ..PhoneConfig::default()
    };
    let row = MetricRow {
        device: None,
        name: String::from("tail.detections"),
        metric: Metric::Counter(3),
    };
    let Metric::Counter(n) = row.metric else {
        panic!("built as Counter");
    };
    let _: (String, u64) = (row.name, n);
}

/// The functions that take closures, called with the closures the benchmark
/// passes (no function-pointer type names an `impl Fn` parameter), on a
/// two-phone fleet and on the standalone pieces the replays build.
#[test]
fn closures_are_accepted_as_the_benchmark_passes_them() {
    const EXP: &str = "contract";
    let sim = Sim::new();
    let mut testbed = Testbed::with_obs(&sim, ObsConfig::on());
    testbed.server().reseed_link_rng(7);
    let spec = FleetSpec::new(2)
        .prefix("phone")
        .seed(7)
        .battery_jitter(0.15)
        .phone(|i, mut phone| {
            phone.carrier = [CarrierProfile::kpn(), CarrierProfile::t_mobile()][i % 2].clone();
            phone
        })
        .configure(|_, c| c.with_flush_policy(FlushPolicy::Interval(SimDuration::from_secs(30))))
        .sensors(|_, _| SensorSources {
            accelerometer: Some(Box::new(|t_ms| {
                Some(AccelSample {
                    x: t_ms as f64,
                    y: 0.0,
                    z: 9.81,
                })
            })),
            wifi_scan: Some(Box::new(|_| Some(Vec::<WifiReading>::new()))),
            ..SensorSources::default()
        });
    let fleet = testbed.add_fleet(spec);

    let seen = Rc::new(Cell::new(0u64));
    let tap = seen.clone();
    let collector_jid = testbed.collector().jid();
    testbed.server().set_link_chaos(&collector_jid, move |env| {
        tap.set(tap.get() + env.wire_size() + env.data().map_or(0, |d| d.len() as u64));
        let _: Envelope = env.clone();
        LinkFate::Deliver
    });
    testbed
        .collector()
        .registry()
        .register_with_params(
            EXP,
            "accelerometer",
            Msg::obj([("interval", Msg::Num(5_000.0))]),
            ChannelSchema::json(),
        )
        .expect("fresh channel registers");
    let heard = Rc::new(RefCell::new(Vec::new()));
    let sink = heard.clone();
    testbed
        .collector()
        .attach_listener(ChannelFilter::exp(EXP), move |ev: &SampleEvent| {
            let x = ev.msg.get("x").and_then(Msg::as_num);
            let row = (ev.channel.to_owned(), ev.device.to_owned(), ev.at, x);
            sink.borrow_mut().push(row);
        });
    let sent: Result<(), DeployError> = testbed
        .collector()
        .deployment(&ExperimentSpec {
            id: EXP.into(),
            scripts: vec![],
        })
        .to(&fleet.jids())
        .send();
    sent.expect("an empty bundle deploys");
    let email: Vec<PeriodicNetApp> = fleet
        .iter()
        .map(|m| PeriodicNetApp::install(&m.phone, NetAppConfig::email()))
        .collect();
    testbed.run_lockstep(SimDuration::from_mins(6), SimDuration::from_mins(1));

    let heard = heard.borrow().clone();
    assert!(!heard.is_empty(), "samples reached the listener");
    assert!(heard.iter().all(|(ch, ..)| ch == "accelerometer"));
    assert!(seen.get() > 0, "the link hook saw the collector's traffic");
    assert!(email.iter().all(|app| app.checks() > 0));
    let member: &FleetMember = fleet.iter().next().expect("two members");
    assert!(member.device.sensors().sample_count("accelerometer") > 0);
    assert!(member.device.messages_sent() > 0 && member.device.flushes() > 0);
    assert!(member.device.context(EXP).is_some());
    assert!(member.phone.meter().total_joules() > 0.0);
    assert!(testbed.collector().stats().data_received > 0);
    let rows = testbed.collector().store().scan(&ScanQuery::exp(EXP));
    assert_eq!(rows.len(), heard.len());
    let counters = testbed.obs().metrics().snapshot();
    assert!(counters
        .iter()
        .any(|row| row.name == "scheduler.tasks"
            && matches!(row.metric, Metric::Counter(n) if n > 0)));

    // The replays' standalone pieces.
    let phone = Phone::new(&sim, PhoneConfig::default());
    let scheduler = Scheduler::new(phone.cpu());
    let ctx = DeviceContext::new(
        EXP,
        1,
        &scheduler,
        &LogStore::new(),
        Rc::new(|_ctl: ControlMsg| {}),
    );
    let errors: Vec<(String, ScriptError)> = ctx
        .install_scripts(&glue::localization_experiment(EXP).scripts, |_| {
            FrozenSlot::new()
        });
    assert!(errors.is_empty(), "the paper's scripts load: {errors:?}");
    let got = Rc::new(Cell::new(0u32));
    let counted = got.clone();
    ctx.broker()
        .subscribe("wifi-scan", Msg::Null, move |_, msg, _| {
            let _: &Msg = msg;
            counted.set(counted.get() + 1);
        });
    assert!(
        ctx.broker()
            .publish("wifi-scan", &Msg::obj([("aps", Msg::Arr(vec![]))]))
            >= 1
    );
    assert_eq!(got.get(), 1);
    phone.cpu().set_alarm_in(SimDuration::from_millis(5), || {});
    phone
        .transmit(100, 64, || {})
        .expect("the default phone boots on cellular");
    let server = Switchboard::new(&sim);
    let (a, b) = (Jid::new("a@pogo").unwrap(), Jid::new("b@pogo").unwrap());
    server.register(&a);
    server.register(&b);
    server.befriend(&a, &b).expect("both registered");
    let sa = server.connect(&a, SimDuration::from_millis(120)).unwrap();
    let sb = server.connect(&b, SimDuration::from_millis(5)).unwrap();
    sb.on_receive(|env| {
        let _: Envelope = env;
    });
    sa.send(&b, 1, Payload::Data(String::from("{}")))
        .expect("authorized");
    sim.run_for(SimDuration::from_secs(30));
    assert!(phone.modem().ramp_ups() >= 1);
    assert_eq!((server.routed(), server.dropped()), (1, 0));
}
