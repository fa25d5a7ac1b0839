//! The paper's flagship application (§4.1, Figure 1): Wi-Fi place
//! clustering. A simulated commuter carries a phone for two days;
//! `scan.js` sanitizes access-point scans, `clustering.js` runs the
//! sliding-window DBSCAN on the device, and `collect.js` geo-annotates
//! the dwelling sessions at the collector.
//!
//! Run with: `cargo run --example localization`

use std::cell::RefCell;

use pogo::core::sensor::SensorSources;
use pogo::core::Testbed;
use pogo::glue;
use pogo::mobility::{Archetype, ScanSynthesizer, UserSpec, World};
use pogo::sim::{Sim, SimDuration, SimRng};

fn main() {
    let sim = Sim::new();
    let mut rng = SimRng::seed_from_u64(7);
    let mut world = World::new(600, &mut rng);

    // A regular commuter, two days.
    let mut spec = UserSpec::new("commuter", Archetype::Regular, 1);
    spec.end_day = 2;
    let scenario = spec.build(&mut world, &mut rng);

    let mut testbed = Testbed::new(&sim);
    let trace = scenario.trace.clone();
    let world2 = world.clone();
    let synth = RefCell::new(ScanSynthesizer::new(rng.fork(99)));
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
    let (device, _phone) = testbed.add(pogo::core::DeviceSetup::named("commuter").sensors(sources));

    // collect.js with the geolocation service on the collector, scan.js +
    // clustering.js on the device.
    glue::deploy_localization(&testbed, world, None);

    println!("running 2 simulated days of commuting ...");
    sim.run_for(SimDuration::from_hours(49));

    // The places database collect.js built:
    let lines = testbed.collector().logs().lines("places");
    println!("\ndiscovered {} dwelling sessions:", lines.len());
    for line in &lines {
        let msg = pogo::core::Msg::from_json(line).expect("collect.js writes JSON");
        let fmt_h = |k: &str| {
            msg.get(k)
                .and_then(pogo::core::Msg::as_num)
                .map(|ms| format!("{:5.1}h", ms / 3_600_000.0))
                .unwrap_or_default()
        };
        println!(
            "  {} -> {}  at ({:.4}, {:.4})  [{} scans]",
            fmt_h("entry"),
            fmt_h("exit"),
            msg.get("lat")
                .and_then(pogo::core::Msg::as_num)
                .unwrap_or(0.0),
            msg.get("lon")
                .and_then(pogo::core::Msg::as_num)
                .unwrap_or(0.0),
            msg.get("n")
                .and_then(pogo::core::Msg::as_num)
                .unwrap_or(0.0),
        );
    }

    // §5.3's headline: on-line clustering slashes what crosses the radio.
    let raw: usize = device
        .logs()
        .lines("raw-scans")
        .iter()
        .map(String::len)
        .sum();
    let loc: usize = lines.iter().map(String::len).sum();
    println!(
        "\nraw scan data: {raw} B; transferred locations: {loc} B; reduction {:.1}%",
        100.0 * (1.0 - loc as f64 / raw as f64)
    );
}
