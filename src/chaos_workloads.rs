//! Chaos workloads: the paper's real experiments under fault injection.
//!
//! [`WorkloadSpec`] implementations that put the localization pipeline
//! (§4.1), RogueFinder (§5.1), and the Table 4 cohort replay (§5.3)
//! under the same delivery-invariant harness that audits the synthetic
//! counter soak. Each workload's device scripts are patched with a
//! *chaos sequence counter*: a `cseq` frozen before every publish and
//! mirrored to a device log in the same atomic script step, giving the
//! harness a per-channel exactly-once / no-phantom / monotonicity
//! oracle without changing what the scripts compute.

use std::cell::RefCell;

use pogo_chaos::{ChannelAudit, SoakConfig, WorkloadSpec};
use pogo_core::proto::ScriptSpec;
use pogo_core::sensor::{LocationFix, SensorSources, WifiReading};
use pogo_core::{DeviceNode, DeviceSetup, ExperimentSpec, FleetSpec, Testbed};
use pogo_mobility::{paper_cohort, GeolocationService, ScanSynthesizer, UserSpec, World};
use pogo_net::{FlushPolicy, Jid};
use pogo_platform::{NetAppConfig, PeriodicNetApp};
use pogo_sim::{SimDuration, SimRng};

use crate::glue;

const STORE_FLUSH: SimDuration = SimDuration::from_secs(90);

/// `clustering.js` with the chaos sequence counter: every closed
/// cluster carries a `cseq` frozen before the publish and mirrored to
/// the `chaos-sent-locations` log in the same script step. Uses the
/// freeze slot the paper's deployment leaves free (`USE_FREEZE` off),
/// so the counter survives reboots even though the cluster state does
/// not — exactly the property the frozen-monotonicity invariant needs.
pub fn clustering_js_chaos() -> String {
    let with_seq = glue::CLUSTERING_JS.replace(
        "var saved = thaw();",
        "var saved = thaw();\nvar cseq = saved == null ? 0 : saved.cseq;",
    );
    assert_ne!(with_seq, glue::CLUSTERING_JS, "thaw line must exist");
    let publish_block = "    publish('locations', {\n        \
         entry: ms[0].t,\n        \
         exit: ms[ms.length - 1].t,\n        \
         n: ms.length,\n        \
         rep: nearestToMean(ms)\n    \
         });";
    let chaos_block = "    cseq = cseq + 1;\n    \
         freeze({ cseq: cseq });\n    \
         publish('locations', {\n        \
         entry: ms[0].t,\n        \
         exit: ms[ms.length - 1].t,\n        \
         n: ms.length,\n        \
         cseq: cseq,\n        \
         rep: nearestToMean(ms)\n    \
         });\n    \
         logTo('chaos-sent-locations', cseq);";
    let patched = with_seq.replace(publish_block, chaos_block);
    assert_ne!(patched, with_seq, "closeCluster publish block must exist");
    patched
}

/// `roguefinder.js` with the chaos sequence counter on the geofenced
/// `filtered-scans` stream; same freeze-before-publish discipline as
/// [`clustering_js_chaos`].
pub fn roguefinder_js_chaos() -> String {
    let descr = "setDescription('RogueFinder: scan for APs inside a target area');";
    let with_seq = glue::ROGUEFINDER_JS.replace(
        descr,
        "setDescription('RogueFinder: scan for APs inside a target area');\n\
         var st = thaw();\n\
         var cseq = st == null ? 0 : st.cseq;",
    );
    assert_ne!(
        with_seq,
        glue::ROGUEFINDER_JS,
        "description line must exist"
    );
    let patched = with_seq.replace(
        "        publish(msg, 'filtered-scans');",
        "        cseq = cseq + 1;\n        \
         freeze({ cseq: cseq });\n        \
         msg.cseq = cseq;\n        \
         publish(msg, 'filtered-scans');\n        \
         logTo('chaos-sent-filtered', cseq);",
    );
    assert_ne!(patched, with_seq, "filtered-scans publish must exist");
    patched
}

fn localization_audit() -> ChannelAudit {
    ChannelAudit::new("loc", "locations", "chaos-sent-locations", "cseq")
}

/// Installs `collect.js` (with the geolocation native over `world`) and
/// deploys the localization experiment, clustering patched with the
/// chaos counter, to every device.
fn deploy_localization(testbed: &Testbed, world: World) {
    let service = GeolocationService::new(world);
    testbed
        .collector()
        .install_collector_script("loc", "collect.js", glue::COLLECT_JS, |host| {
            glue::register_geolocate(host, service);
        })
        .expect("collect.js loads");
    let mut experiment = glue::localization_experiment("loc");
    experiment.scripts[1].source = clustering_js_chaos();
    let jids: Vec<Jid> = testbed.devices().iter().map(DeviceNode::jid).collect();
    testbed
        .collector()
        .deployment(&experiment)
        .to(&jids)
        .send()
        .expect("scripts pass pre-deployment analysis");
}

/// The localization pipeline (§4.1) as a chaos workload: `cfg.phones`
/// synthetic devices, each alternating between two disjoint AP
/// neighbourhoods every 30 minutes so `clustering.js` closes about two
/// clusters per device-hour onto the audited `locations` channel.
#[derive(Debug, Clone, Copy, Default)]
pub struct LocalizationWorkload;

impl WorkloadSpec for LocalizationWorkload {
    fn name(&self) -> &'static str {
        "localization"
    }

    fn setup(&self, testbed: &mut Testbed, cfg: &SoakConfig) {
        let age = cfg.max_msg_age;
        testbed.add_fleet(
            FleetSpec::new(cfg.phones)
                .prefix("phone")
                .configure(move |_, c| {
                    c.with_flush_policy(FlushPolicy::Interval(STORE_FLUSH))
                        .with_max_msg_age(age)
                })
                .sensors(|i, _| SensorSources {
                    wifi_scan: Some(Box::new(move |t_ms| {
                        // Two disjoint AP sets per device, alternating every
                        // 30 minutes: each switch is cosine distance 1 from
                        // the open cluster, forcing a close-and-publish.
                        let side = (t_ms / 1_800_000) % 2;
                        Some(
                            (0..5u64)
                                .map(|j| WifiReading {
                                    bssid: format!("00:{i:02x}:00:00:0{side}:{j:02x}"),
                                    rssi_dbm: -55.0 - j as f64,
                                })
                                .collect(),
                        )
                    })),
                    ..SensorSources::default()
                }),
        );
    }

    fn deploy(&self, testbed: &Testbed, cfg: &SoakConfig) {
        // The geolocation stand-in resolves nothing for the synthetic
        // APs; collect.js still exercises its annotate-and-log path.
        let mut rng = SimRng::seed_from_u64(cfg.seed);
        let world = World::new(20, &mut rng);
        deploy_localization(testbed, world);
    }

    fn audits(&self) -> Vec<ChannelAudit> {
        vec![localization_audit()]
    }
}

/// RogueFinder (§5.1) as a chaos workload: `cfg.phones` walkers loop
/// through the target triangle (offset along the walk so the geofence
/// keeps opening and closing across the fleet), publishing on the
/// audited `filtered-scans` channel only while inside.
#[derive(Debug, Clone, Copy, Default)]
pub struct RogueFinderWorkload;

impl WorkloadSpec for RogueFinderWorkload {
    fn name(&self) -> &'static str {
        "roguefinder"
    }

    fn setup(&self, testbed: &mut Testbed, cfg: &SoakConfig) {
        let age = cfg.max_msg_age;
        testbed.add_fleet(
            FleetSpec::new(cfg.phones)
                .prefix("phone")
                .configure(move |_, c| {
                    c.with_flush_policy(FlushPolicy::Interval(STORE_FLUSH))
                        .with_max_msg_age(age)
                })
                .sensors(|i, _| {
                    let phase = i as f64 * 0.3;
                    SensorSources {
                        location: Some(Box::new(move |t_ms| {
                            // Loop east through the target triangle {(1,1),
                            // (2,2),(3,0)} at 2.5 units/hour, wrapping at x=5.
                            let x = (t_ms as f64 / 3_600_000.0 * 2.5 + phase) % 5.0;
                            Some(LocationFix {
                                lon: x,
                                lat: 1.2,
                                provider: "GPS".into(),
                            })
                        })),
                        wifi_scan: Some(Box::new(move |t_ms| {
                            Some(vec![WifiReading {
                                bssid: format!(
                                    "00:{:02x}:00:00:00:{:02x}",
                                    i,
                                    (t_ms / 600_000) % 64
                                ),
                                rssi_dbm: -63.0,
                            }])
                        })),
                        ..SensorSources::default()
                    }
                }),
        );
    }

    fn deploy(&self, testbed: &Testbed, _cfg: &SoakConfig) {
        testbed
            .collector()
            .install_script("rogue", "collect.js", glue::ROGUEFINDER_COLLECT_JS)
            .expect("collector script loads");
        let jids: Vec<Jid> = testbed.devices().iter().map(DeviceNode::jid).collect();
        testbed
            .collector()
            .deployment(&ExperimentSpec {
                id: "rogue".into(),
                scripts: vec![ScriptSpec {
                    name: "roguefinder.js".into(),
                    source: roguefinder_js_chaos(),
                }],
            })
            .to(&jids)
            .send()
            .expect("scripts pass pre-deployment analysis");
    }

    fn audits(&self) -> Vec<ChannelAudit> {
        vec![ChannelAudit::new(
            "rogue",
            "filtered-scans",
            "chaos-sent-filtered",
            "cseq",
        )]
    }
}

/// The Table 4 deployment (§5.3) as a chaos workload: the paper's
/// eight-phone cohort (user 2's replacement phone stands in for both 2a
/// and 2b) carrying the localization experiment through their full
/// movement traces, nightly phone-offs, scenario reboots, roaming and
/// outage data gaps — with the fault plan injected *on top of* all of
/// that. The headline CI soak.
#[derive(Debug)]
pub struct Table4ChaosWorkload {
    days: u64,
    world: RefCell<Option<World>>,
}

impl Table4ChaosWorkload {
    /// A cohort replay truncated (or extended) to `days` days.
    pub fn new(days: u64) -> Self {
        Table4ChaosWorkload {
            days: days.max(1),
            world: RefCell::new(None),
        }
    }
}

impl WorkloadSpec for Table4ChaosWorkload {
    fn name(&self) -> &'static str {
        "table4"
    }

    fn duration(&self, _cfg: &SoakConfig) -> SimDuration {
        SimDuration::from_days(self.days)
    }

    fn setup(&self, testbed: &mut Testbed, cfg: &SoakConfig) {
        let sim = testbed.sim().clone();
        let mut rng = SimRng::seed_from_u64(cfg.seed ^ 0x007a_b1e4); // "table4"
        let mut world = World::new(600, &mut rng);
        let age = cfg.max_msg_age;
        // The paper's eight phones: user 2's early phone (2a) is folded
        // into its replacement, and every session is stretched to the
        // full window so the whole fleet stays under fire.
        let days = self.days;
        let specs: Vec<UserSpec> = paper_cohort()
            .into_iter()
            .filter(|s| s.name != "User 2a")
            .map(|mut s| {
                s.start_day = 0;
                s.end_day = days;
                s.roaming_days = s
                    .roaming_days
                    .and_then(|(a, b)| (a < days).then_some((a, b.min(days))));
                s.outage_days = s
                    .outage_days
                    .and_then(|(a, b)| (a < days).then_some((a, b.min(days))));
                s
            })
            .collect();
        for spec in &specs {
            let scenario = spec.build(&mut world, &mut rng);
            let trace = scenario.trace.clone();
            let world2 = world.clone();
            let synth = RefCell::new(ScanSynthesizer::new(rng.fork(spec.seed_salt)));
            let failure_rng = RefCell::new(rng.fork(spec.seed_salt ^ 0xF41));
            let scan_failure_prob = spec.scan_failure_prob;
            let sources = SensorSources {
                wifi_scan: Some(Box::new(move |t_ms| {
                    let w = trace.whereabouts(t_ms);
                    if failure_rng.borrow_mut().chance(scan_failure_prob) {
                        return None; // the chipset returned nothing
                    }
                    synth
                        .borrow_mut()
                        .scan(&world2, w, t_ms)
                        .map(|raw| glue::readings_from_raw(&raw))
                })),
                ..SensorSources::default()
            };
            let node_name = spec.name.to_lowercase().replace(' ', "-");
            let (device, phone) = testbed.add(
                DeviceSetup::named(&node_name)
                    .sensors(sources)
                    .configure(move |c| {
                        c.with_flush_policy(FlushPolicy::Interval(STORE_FLUSH))
                            .with_max_msg_age(age)
                    }),
            );
            // Background e-mail traffic for tail synchronization, like
            // the §5.2 measurement phones. The app keeps itself alive
            // through its own alarms; the handle can be dropped.
            let _ = PeriodicNetApp::install(&phone, NetAppConfig::email());
            glue::drive_connectivity(&sim, &phone, &scenario);
            // The researchers' script redeployments are left out: a
            // redeploy racing an injected server outage would fail the
            // deployment, which is a test-harness artifact, not a
            // middleware bug.
            glue::schedule_reboots(&sim, &device, &scenario);
        }
        *self.world.borrow_mut() = Some(world);
    }

    fn deploy(&self, testbed: &Testbed, _cfg: &SoakConfig) {
        let world = self
            .world
            .borrow()
            .clone()
            .expect("setup populates the world");
        deploy_localization(testbed, world);
    }

    fn audits(&self) -> Vec<ChannelAudit> {
        vec![localization_audit()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_script_variants_parse() {
        for (name, src) in [
            ("clustering-chaos", clustering_js_chaos()),
            ("roguefinder-chaos", roguefinder_js_chaos()),
        ] {
            pogo_script::parse(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn chaos_variants_carry_the_counter() {
        let c = clustering_js_chaos();
        assert!(c.contains("freeze({ cseq: cseq })"));
        assert!(c.contains("logTo('chaos-sent-locations', cseq)"));
        let r = roguefinder_js_chaos();
        assert!(r.contains("freeze({ cseq: cseq })"));
        assert!(r.contains("logTo('chaos-sent-filtered', cseq)"));
    }
}
