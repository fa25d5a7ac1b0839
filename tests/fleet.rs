//! Fleet-scale invariants: a fleet run is a function of its spec and
//! seed alone.
//!
//! The same fleet spec and seed must yield byte-identical observability
//! traces and an identical sample store, run after run, with or without
//! lock-step stepping.

use pogo::core::{FleetSpec, Msg, ObsConfig, Testbed};
use pogo::ingest::{ChannelSchema, Row, ScanQuery};
use pogo::net::{FlushPolicy, Jid};
use pogo::obs::export;
use pogo::platform::{NetAppConfig, PeriodicNetApp};
use pogo::sim::{DeviceId, Sim, SimDuration};
use pogo_core::sensor::{SensorSources, WifiReading};

const FLEET: usize = 24;
const RUN: SimDuration = SimDuration::from_mins(20);

/// A miniature localization fleet: every device publishes a `report`
/// with a per-device cadence drawn from its jitter stream.
fn fleet_spec() -> FleetSpec {
    FleetSpec::new(FLEET)
        .prefix("phone")
        .seed(42)
        .battery_jitter(0.2)
        .configure(|_, c| c.with_flush_policy(FlushPolicy::Interval(SimDuration::from_secs(90))))
        .sensors(|i, rng| {
            let phase = rng.range_u64(0, 120_000);
            SensorSources {
                wifi_scan: Some(Box::new(move |t_ms| {
                    let slot = (t_ms + phase) / 600_000;
                    Some(vec![WifiReading {
                        bssid: format!("00:{:02x}:00:00:00:{:02x}", i, slot % 16),
                        rssi_dbm: -60.0,
                    }])
                })),
                ..SensorSources::default()
            }
        })
}

/// Runs the fleet; `lockstep` switches between `Sim::run_for` and
/// `Testbed::run_lockstep`. Returns the JSONL event trace and the
/// collector's full sample store contents.
fn run_fleet(lockstep: bool) -> (String, Vec<Row>) {
    let sim = Sim::new();
    let mut testbed = Testbed::with_obs(&sim, ObsConfig::on());
    let fleet = testbed.add_fleet(fleet_spec());
    assert_eq!(fleet.len(), FLEET);

    testbed
        .collector()
        .registry()
        .register("fleet", "reports", ChannelSchema::json())
        .expect("fresh channel registers");
    testbed
        .collector()
        .deployment(&pogo::core::proto::ExperimentSpec {
            id: "fleet".into(),
            scripts: vec![pogo::core::proto::ScriptSpec {
                name: "report.js".into(),
                source: "subscribe('wifi-scan', function (msg) {\n\
                             publish('reports', { n: msg.aps.length, t: msg.timestamp });\n\
                         }, { interval: 5 * 60 * 1000 });"
                    .into(),
            }],
        })
        .to(&fleet.jids())
        .send()
        .expect("scripts pass pre-deployment analysis");

    if lockstep {
        testbed.run_lockstep(RUN, SimDuration::from_mins(1));
    } else {
        sim.run_for(RUN);
    }
    let trace = export::to_jsonl(&testbed.obs().events());
    let rows = testbed.collector().store().scan(&ScanQuery::exp("fleet"));
    assert!(!rows.is_empty(), "fleet must land samples");
    (trace, rows)
}

#[test]
fn same_seed_twice_gives_byte_identical_trace_and_store() {
    let (trace_a, rows_a) = run_fleet(false);
    let (trace_b, rows_b) = run_fleet(false);
    assert!(
        rows_a.len() >= FLEET,
        "every device should land a report: {} rows",
        rows_a.len()
    );
    assert_eq!(trace_a, trace_b, "second run's trace diverged");
    assert_eq!(rows_a, rows_b, "second run's store diverged");
}

/// FNV-1a over the `Obs` trace (JSONL) and the store (CSV) of a
/// 20-device tail-sync cohort: battery at 60 s, an e-mail app per phone,
/// Pogo's default flush policy, an hour of lock-step. Tail detection,
/// alarms, radio timers and sensor ticks all interleave here, so the hash
/// moves when an event id is handed out at another call site or two
/// same-instant events fire the other way round.
fn tailsync_fleet_hash() -> u64 {
    let sim = Sim::new();
    let mut testbed = Testbed::with_obs(&sim, ObsConfig::on());
    let fleet = testbed.add_fleet(FleetSpec::new(20).prefix("phone").seed(7));
    let collector = testbed.collector();
    collector
        .registry()
        .register_with_params(
            "pin",
            "battery",
            Msg::obj([("interval", Msg::Num(60_000.0))]),
            ChannelSchema::json(),
        )
        .expect("fresh channel registers");
    collector
        .deployment(&pogo::core::proto::ExperimentSpec {
            id: "pin".into(),
            scripts: vec![],
        })
        .to(&fleet.jids())
        .send()
        .expect("an empty deployment passes the gate");
    let _apps: Vec<PeriodicNetApp> = fleet
        .iter()
        .enumerate()
        .map(|(i, m)| {
            PeriodicNetApp::install(
                &m.phone,
                NetAppConfig {
                    start_offset: SimDuration::from_secs(60 + 12 * i as u64),
                    ..NetAppConfig::email()
                },
            )
        })
        .collect();
    testbed.run_lockstep(SimDuration::from_hours(1), SimDuration::from_mins(1));

    let rows = collector.store().scan(&ScanQuery::exp("pin"));
    assert!(rows.len() >= 20 * 50, "only {} rows stored", rows.len());
    let trace = export::to_jsonl(&testbed.obs().events());
    let csv = pogo::ingest::export::to_csv(&rows);
    trace
        .bytes()
        .chain(csv.bytes())
        .fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// What [`tailsync_fleet_hash`] read at the parent of the commit that
/// rebuilt the event queue (f2da3ec). A change that means to move event
/// order re-reads it there and says so; any other change leaves it alone.
const TAILSYNC_FLEET_HASH: u64 = 0x3df2_a281_c961_81f8;

#[test]
fn tailsync_fleet_trace_and_store_hash_is_pinned_across_commits() {
    assert_eq!(
        tailsync_fleet_hash(),
        TAILSYNC_FLEET_HASH,
        "event ids or firing order moved: the trace or the store differs from the pinned commit's"
    );
}

#[test]
fn lockstep_stepping_changes_nothing_but_metrics() {
    let (trace_straight, rows_straight) = run_fleet(false);
    let (trace_lockstep, rows_lockstep) = run_fleet(true);
    assert_eq!(trace_straight, trace_lockstep);
    assert_eq!(rows_straight, rows_lockstep);
}

#[test]
fn fleet_ids_round_trip_through_interned_jids() {
    let sim = Sim::new();
    let mut testbed = Testbed::new(&sim);
    let fleet = testbed.add_fleet(FleetSpec::new(32).prefix("node"));
    for (i, member) in fleet.iter().enumerate() {
        assert_eq!(member.id, DeviceId::new(i));
        // Dense id -> device -> JID -> dense id.
        let device = testbed.device(member.id).expect("id resolves");
        let jid = device.jid();
        assert_eq!(testbed.device_id(&jid), Some(member.id));
        // Interning: re-parsing the text yields the same record.
        let reparsed = Jid::new(jid.as_str()).expect("valid JID");
        assert_eq!(reparsed, jid);
        assert_eq!(reparsed.uid(), jid.uid());
        assert_eq!(reparsed.salt(), jid.salt());
    }
}
