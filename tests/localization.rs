//! End-to-end integration test of the paper's localization application
//! (§4.1): scan.js → clustering.js on a simulated phone, collect.js on
//! the collector, with the geolocation service — plus the differential
//! check that the PogoScript clustering matches the native
//! implementation scan-for-scan.

use std::cell::RefCell;

use pogo::cluster::{match_clusters, MatchParams, StreamConfig};
use pogo::core::sensor::SensorSources;
use pogo::core::Testbed;
use pogo::glue;
use pogo::mobility::{MovementTrace, ScanSynthesizer, Whereabouts, World};
use pogo::net::FlushPolicy;
use pogo::sim::{Sim, SimDuration, SimRng};

const MIN: u64 = 60_000;
const HOUR: u64 = 3_600_000;

/// A day in the life: home, commute, office, commute, home, late walk.
fn day_trace(home_end: u64) -> MovementTrace {
    let mut t = MovementTrace::new(14 * HOUR);
    t.push(0, Whereabouts::At(pogo::mobility::PlaceId(0)));
    t.push(4 * HOUR, Whereabouts::Transit);
    t.push(
        4 * HOUR + 20 * MIN,
        Whereabouts::At(pogo::mobility::PlaceId(1)),
    );
    t.push(9 * HOUR, Whereabouts::Transit);
    t.push(
        9 * HOUR + 20 * MIN,
        Whereabouts::At(pogo::mobility::PlaceId(0)),
    );
    t.push(home_end, Whereabouts::Transit); // long final walk closes the cluster
    t
}

struct Setup {
    sim: Sim,
    testbed: Testbed,
    world: World,
}

fn launch() -> Setup {
    let sim = Sim::new();
    let mut rng = SimRng::seed_from_u64(2024);
    // A realistic street-AP population: transit scans rarely repeat an
    // AP within the clustering window, so walking does not form places.
    let mut world = World::new(600, &mut rng);
    world.add_place("home", 8, &mut rng);
    world.add_place("office", 12, &mut rng);

    let mut testbed = Testbed::new(&sim);
    let trace = day_trace(13 * HOUR);
    let world2 = world.clone();
    let synth = RefCell::new(ScanSynthesizer::new(rng.fork(7)));
    let sources = SensorSources {
        wifi_scan: Some(Box::new(move |t_ms| {
            let w = trace.whereabouts(t_ms);
            synth
                .borrow_mut()
                .scan(&world2, w, t_ms)
                .map(|raw| glue::readings_from_raw(&raw))
        })),
        ..SensorSources::default()
    };
    testbed.add(
        pogo::core::DeviceSetup::named("phone-1")
            .configure(|cfg| cfg.with_flush_policy(FlushPolicy::Immediate))
            .sensors(sources),
    );
    Setup {
        sim,
        testbed,
        world,
    }
}

fn deploy_localization(setup: &Setup) {
    glue::deploy_localization(&setup.testbed, setup.world.clone(), None);
}

#[test]
fn localization_pipeline_finds_home_and_office() {
    let setup = launch();
    deploy_localization(&setup);
    setup.sim.run_for(SimDuration::from_hours(15));

    // The collector's places log has the dwelling sessions. Brief street
    // coincidences can add tiny clusters; real dwells are long.
    let lines = setup.testbed.collector().logs().lines("places");
    let all_places = glue::places_from_log(&lines);
    let places: Vec<_> = all_places
        .iter()
        .filter(|(_, s, _)| s.samples >= 15)
        .collect();
    assert_eq!(places.len(), 3, "home, office, home again: {lines:?}");
    for (user, _summary, located) in &places {
        assert_eq!(user, "phone-1@pogo");
        assert!(located, "geolocation service annotated the place");
    }
    // Entry/exit shape: first home session covers the first four hours.
    let first = &places[0].1;
    assert!(first.entry_ms < 10 * MIN);
    assert!((first.exit_ms as i64 - 4 * HOUR as i64).unsigned_abs() < 5 * MIN);
    // Office session is the second one.
    let office = &places[1].1;
    assert!(office.entry_ms >= 4 * HOUR);
    assert!(office.exit_ms <= 9 * HOUR + 5 * MIN);

    // Geolocation put home and office at their true coordinates.
    let home_place = setup.world.place(pogo::mobility::PlaceId(0));
    let lines = &lines[0];
    assert!(lines.contains("lat"), "annotated: {lines}");
    let msg = pogo::core::Msg::from_json(lines).unwrap();
    let lat = msg.get("lat").and_then(pogo::core::Msg::as_num).unwrap();
    assert!((lat - home_place.lat).abs() < 0.01, "home at home");
}

#[test]
fn script_clustering_matches_native_ground_truth_exactly() {
    let setup = launch();
    deploy_localization(&setup);
    setup.sim.run_for(SimDuration::from_hours(15));

    // §5.3's methodology: recompute clusters offline from the raw SD-card
    // log with the native implementation.
    let raw_lines = setup.testbed.devices()[0].logs().lines("raw-scans");
    assert!(
        raw_lines.len() > 700,
        "one scan per minute for ~14h: {}",
        raw_lines.len()
    );
    let truth = glue::ground_truth_from_log(&raw_lines, StreamConfig::default());

    let collected: Vec<_> =
        glue::places_from_log(&setup.testbed.collector().logs().lines("places"))
            .into_iter()
            .map(|(_, s, _)| s)
            .collect();

    // With no disruptions the device-side script and the native offline
    // run must agree 100% — the Table 4 baseline.
    assert_eq!(collected.len(), truth.len(), "same cluster count");
    for (a, b) in truth.iter().zip(&collected) {
        assert_eq!(a.entry_ms, b.entry_ms, "entry timestamps in lock-step");
        assert_eq!(a.exit_ms, b.exit_ms, "exit timestamps in lock-step");
        assert_eq!(a.samples, b.samples, "member counts in lock-step");
    }
    let report = match_clusters(&truth, &collected, MatchParams::default());
    assert_eq!(report.match_pct(), Some(100.0));
    assert_eq!(report.partial_pct(), Some(100.0));
}

#[test]
fn data_reduction_is_dramatic() {
    // §5.3: "we reduced the total amount of data transferred by 98.3% by
    // making use of on-line clustering as opposed to sending all data
    // back to the collector node."
    let setup = launch();
    deploy_localization(&setup);
    setup.sim.run_for(SimDuration::from_hours(15));

    let raw_bytes: usize = setup.testbed.devices()[0]
        .logs()
        .lines("raw-scans")
        .iter()
        .map(String::len)
        .sum();
    let location_bytes: usize = setup
        .testbed
        .collector()
        .logs()
        .lines("places")
        .iter()
        .map(String::len)
        .sum();
    assert!(
        raw_bytes > 100_000,
        "raw corpus is substantial: {raw_bytes}"
    );
    let reduction = 100.0 * (1.0 - location_bytes as f64 / raw_bytes as f64);
    assert!(
        reduction > 95.0,
        "on-line clustering reduces transfer: {reduction:.1}% (raw {raw_bytes}, locations {location_bytes})"
    );
}
