//! One Table 4 deployment session: a simulated user carrying a phone for
//! up to 24 days with the localization experiment deployed, complete
//! with that user's real-world disruptions (§5.3).

use std::cell::RefCell;

use pogo::cluster::{ClusterSummary, StreamConfig};
use pogo::core::sensor::SensorSources;
use pogo::core::{ChannelSchema, Msg, Obs, ObsConfig, SampleValue, ScanQuery, Testbed};
use pogo::glue;
use pogo::mobility::{GeolocationService, ScanSynthesizer, UserScenario, UserSpec, World};
use pogo::sim::{Sim, SimDuration, SimRng, SimTime};
use pogo_platform::{NetAppConfig, PeriodicNetApp};

const DAY: u64 = 86_400_000;

/// Everything measured from one user session.
#[derive(Debug, Clone)]
pub(crate) struct SessionResult {
    /// Table 4 row label.
    pub name: String,
    /// Raw access-point scans captured (the "Scans" column).
    pub scans: usize,
    /// Bytes of the raw scan data set (the first "Size" column).
    pub raw_bytes: usize,
    /// Ground-truth dwelling sessions from offline post-processing (the
    /// "Locations" column).
    pub locations: usize,
    /// Bytes of the location summaries (the second "Size" column).
    pub location_bytes: usize,
    /// Summaries that actually reached the collector.
    pub collected: Vec<ClusterSummary>,
    /// Ground truth (offline clustering of the raw trace).
    pub truth: Vec<ClusterSummary>,
    /// Messages purged by the 24-hour expiry.
    pub purged: u64,
    /// Middleware restarts (reboots + phone-off mornings).
    pub reboots: u64,
}

/// Runs one session. `days` can shorten the window for tests; the
/// disruption days scale with the session's own window. `use_freeze`
/// enables the §5.3 freeze/thaw fix (off in the paper's deployment).
pub(crate) fn run_session(
    spec: &UserSpec,
    days: u64,
    seed: u64,
    use_freeze: bool,
) -> SessionResult {
    run_session_with(spec, days, seed, use_freeze, ObsConfig::off()).0
}

/// Returns the testbed-wide [`Obs`] handle alongside the measurements so
/// the unit test can cross-check the session against the metrics registry.
fn run_session_with(
    spec: &UserSpec,
    days: u64,
    seed: u64,
    use_freeze: bool,
    obs_config: ObsConfig,
) -> (SessionResult, Obs) {
    let mut spec = spec.clone();
    spec.end_day = spec.end_day.min(days);
    spec.start_day = spec.start_day.min(spec.end_day);
    if let Some((a, b)) = spec.roaming_days {
        spec.roaming_days = if a < spec.end_day {
            Some((a, b.min(spec.end_day)))
        } else {
            None
        };
    }
    if let Some((a, b)) = spec.outage_days {
        spec.outage_days = if a < spec.end_day {
            Some((a, b.min(spec.end_day)))
        } else {
            None
        };
    }

    let sim = Sim::new();
    let mut rng = SimRng::seed_from_u64(seed);
    let mut world = World::new(600, &mut rng);
    let scenario = spec.build(&mut world, &mut rng);

    let mut testbed = Testbed::with_obs(&sim, obs_config);
    let trace = scenario.trace.clone();
    let world2 = world.clone();
    let synth = RefCell::new(ScanSynthesizer::new(rng.fork(spec.seed_salt)));
    let failure_rng = RefCell::new(rng.fork(spec.seed_salt ^ 0xF41));
    let scan_failure_prob = spec.scan_failure_prob;
    let sources = SensorSources {
        wifi_scan: Some(Box::new(move |t_ms| {
            let w = trace.whereabouts(t_ms);
            if failure_rng.borrow_mut().chance(scan_failure_prob) {
                return None; // the chipset returned nothing this time
            }
            synth
                .borrow_mut()
                .scan(&world2, w, t_ms)
                .map(|raw| glue::readings_from_raw(&raw))
        })),
        ..SensorSources::default()
    };
    let node_name = spec.name.to_lowercase().replace(' ', "-");
    let (device, phone) = testbed.add(pogo::core::DeviceSetup::named(&node_name).sensors(sources));

    // Background e-mail traffic for tail synchronization, like the §5.2
    // measurement phones.
    let _email = PeriodicNetApp::install(&phone, NetAppConfig::email());

    glue::drive_connectivity(&sim, &phone, &scenario);
    schedule_disruptions(&sim, &device, &testbed, &scenario, use_freeze);

    // Deploy the localization experiment. The registry ingests every
    // location summary into the collector's sample store alongside the
    // collect.js script that geolocates them.
    testbed
        .collector()
        .registry()
        .register("loc", "locations", ChannelSchema::json())
        .expect("locations channel registers");
    let service = GeolocationService::new(world.clone());
    testbed
        .collector()
        .install_collector_script("loc", "collect.js", glue::COLLECT_JS, |host| {
            glue::register_geolocate(host, service);
        })
        .expect("collect.js loads");
    let mut experiment = glue::localization_experiment("loc");
    if use_freeze {
        experiment.scripts[1].source = glue::clustering_js_with_freeze();
    }
    testbed
        .collector()
        .deployment(&experiment)
        .to(&[device.jid()])
        .send()
        .expect("scripts pass pre-deployment analysis");

    // Run the window plus slack for the final uploads.
    sim.run_until(SimTime::from_millis(spec.end_day * DAY) + SimDuration::from_hours(2));

    // Harvest.
    let raw_lines = device.logs().lines("raw-scans");
    let truth = glue::ground_truth_from_log(&raw_lines, StreamConfig::default());
    let collected: Vec<ClusterSummary> = testbed
        .collector()
        .store()
        .scan(&ScanQuery::exp("loc").channel("locations"))
        .iter()
        .filter_map(|row| match &row.value {
            SampleValue::Json(raw) => {
                let msg = Msg::from_json(raw).ok()?;
                glue::summary_from_msg(&msg)
            }
            _ => None,
        })
        .collect();
    let raw_bytes = raw_lines.iter().map(String::len).sum();
    let location_bytes = truth.iter().map(summary_bytes).sum::<usize>();
    let obs = testbed.obs().clone();
    (
        SessionResult {
            name: spec.name.clone(),
            scans: raw_lines.len(),
            raw_bytes,
            locations: truth.len(),
            location_bytes,
            collected,
            truth,
            purged: device.purged(),
            reboots: device.reboots(),
        },
        obs,
    )
}

/// Serialized size of one location summary (for the Size column), as
/// clustering.js would publish it.
fn summary_bytes(s: &ClusterSummary) -> usize {
    let aps: Vec<Msg> = s
        .representative
        .aps()
        .iter()
        .map(|&(b, l)| Msg::obj([("b", Msg::str(b.to_string())), ("l", Msg::Num(l))]))
        .collect();
    Msg::obj([
        ("entry", Msg::Num(s.entry_ms as f64)),
        ("exit", Msg::Num(s.exit_ms as f64)),
        ("n", Msg::Num(s.samples as f64)),
        (
            "rep",
            Msg::obj([
                ("t", Msg::Num(s.representative.timestamp_ms as f64)),
                ("aps", Msg::Arr(aps)),
            ]),
        ),
    ])
    .to_json()
    .len()
}

/// Schedules reboots (incl. phone-off mornings) and the researchers'
/// script redeployments.
fn schedule_disruptions(
    sim: &Sim,
    device: &pogo::core::DeviceNode,
    testbed: &Testbed,
    scenario: &UserScenario,
    use_freeze: bool,
) {
    glue::schedule_reboots(sim, device, scenario);
    for &t in &scenario.disruptions.script_updates {
        let collector = testbed.collector().clone();
        let mut experiment = glue::localization_experiment("loc");
        if use_freeze {
            experiment.scripts[1].source = glue::clustering_js_with_freeze();
        }
        sim.schedule_at(SimTime::from_millis(t), move || {
            collector
                .deployment(&experiment)
                .send()
                .expect("scripts pass pre-deployment analysis");
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pogo::mobility::paper_cohort;

    #[test]
    fn traced_session_metrics_agree_with_the_harvest() {
        let spec = &paper_cohort()[0];
        let (result, obs) = run_session_with(spec, 1, 42, false, ObsConfig::on());
        let metrics = obs.metrics();
        let jid = format!("{}@pogo", spec.name.to_lowercase().replace(' ', "-"));
        let dev = Some(jid.as_str());

        assert_eq!(metrics.counter_for(dev, "pogo.reboots"), result.reboots);
        // Every raw scan the clustering script logged was a sensor sample.
        assert!(
            metrics.counter_for(dev, "sensor.samples.wifi-scan") >= result.scans as u64,
            "samples {} < scans {}",
            metrics.counter_for(dev, "sensor.samples.wifi-scan"),
            result.scans
        );
        assert!(metrics.counter_for(dev, "net.messages_sent") > 0);
        assert!(metrics.counter_for(dev, "script.callbacks") > 0);
        // The collector heard from the device.
        let coll = Some("collector@pogo");
        assert!(metrics.counter_for(coll, "net.messages_received") > 0);
        // The raw-scans log the harvest reads is also in the trace.
        assert!(obs
            .events()
            .iter()
            .any(|e| e.category.as_ref() == "log" && e.device.as_deref() == dev));
    }
}
