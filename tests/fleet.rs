//! Fleet-scale invariants: a fleet run is a function of its spec and
//! seed alone.
//!
//! The same fleet spec and seed must yield byte-identical observability
//! traces and an identical sample store, run after run, with or without
//! lock-step stepping.

use pogo::core::{FleetSpec, ObsConfig, Testbed};
use pogo::ingest::{ChannelSchema, Row, ScanQuery};
use pogo::net::{FlushPolicy, Jid};
use pogo::obs::export;
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
