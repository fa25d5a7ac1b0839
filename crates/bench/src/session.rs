//! One Table 4 deployment session: a simulated user carrying a phone for
//! up to 24 days with the localization experiment deployed, complete
//! with that user's real-world disruptions (§5.3).

use pogo::cluster::{ClusterSummary, StreamConfig};
use pogo::core::{ChannelSchema, Msg, Obs, ObsConfig, SampleValue, ScanQuery, Testbed};
use pogo::glue;
use pogo::mobility::{UserSpec, World};
use pogo::sim::{Sim, SimDuration, SimRng, SimTime};

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
    let end_day = spec.end_day.min(days);
    let spec = glue::clip_user(spec, spec.start_day.min(end_day), end_day);

    let sim = Sim::new();
    let mut rng = SimRng::seed_from_u64(seed);
    let mut world = World::new(600, &mut rng);
    let mut testbed = Testbed::with_obs(&sim, obs_config);
    let (device, scenario) =
        glue::add_cohort_phone(&mut testbed, &spec, &mut world, &mut rng, |c| c);

    // The researchers' script redeployments.
    let clustering = use_freeze.then(glue::clustering_js_with_freeze);
    let mut experiment = glue::localization_experiment("loc");
    if let Some(source) = &clustering {
        experiment.scripts[1].source.clone_from(source);
    }
    for &t in &scenario.disruptions.script_updates {
        let (collector, experiment) = (testbed.collector().clone(), experiment.clone());
        sim.schedule_at(SimTime::from_millis(t), move || {
            collector
                .deployment(&experiment)
                .send()
                .expect("scripts pass pre-deployment analysis");
        });
    }

    // Deploy the localization experiment. The registry ingests every
    // location summary into the collector's sample store alongside the
    // collect.js script that geolocates them.
    testbed
        .collector()
        .registry()
        .register("loc", "locations", ChannelSchema::json())
        .expect("locations channel registers");
    glue::deploy_localization(&testbed, world, clustering);

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
