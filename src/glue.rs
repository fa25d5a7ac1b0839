//! Glue between the middleware, the scripts, and the native clustering —
//! everything needed to stand up the paper's localization experiment.

use std::cell::RefCell;

use pogo_cluster::{ClusterSummary, RawScan, Scan};
use pogo_core::proto::{ExperimentSpec, ScriptSpec};
use pogo_core::sensor::{SensorSources, WifiReading};
use pogo_core::{DeviceConfig, DeviceNode, DeviceSetup, Msg, ScriptHost, Testbed};
use pogo_mobility::{
    GeolocationService, ScanSynthesizer, UserScenario, UserSpec, Whereabouts, World,
};
use pogo_net::Jid;
use pogo_platform::{Bearer, NetAppConfig, PeriodicNetApp, Phone};
use pogo_script::{ObjMap, ScriptError, Value};
use pogo_sim::{Sim, SimRng, SimTime};

/// `scan.js` source (Figure 1 / Table 2).
pub const SCAN_JS: &str = include_str!("../assets/scripts/scan.js");
/// `clustering.js` source (Figure 1 / Table 2) — freeze/thaw disabled, as
/// in the paper's deployment.
pub const CLUSTERING_JS: &str = include_str!("../assets/scripts/clustering.js");
/// `collect.js` source (Figure 1 / Table 2).
pub const COLLECT_JS: &str = include_str!("../assets/scripts/collect.js");
/// `roguefinder.js` source (Listing 2 / Table 2).
pub const ROGUEFINDER_JS: &str = include_str!("../assets/scripts/roguefinder.js");
/// RogueFinder's collector endpoint (Table 2).
pub const ROGUEFINDER_COLLECT_JS: &str = include_str!("../assets/scripts/roguefinder-collect.js");

/// The localization experiment's device-side scripts, ready to deploy.
pub fn localization_experiment(id: &str) -> ExperimentSpec {
    ExperimentSpec {
        id: id.to_owned(),
        scripts: vec![
            ScriptSpec {
                name: "scan.js".into(),
                source: SCAN_JS.to_owned(),
            },
            ScriptSpec {
                name: "clustering.js".into(),
                source: CLUSTERING_JS.to_owned(),
            },
        ],
    }
}

/// `clustering.js` with freeze/thaw persistence enabled — §5.3's fix,
/// exercised by the freeze ablation.
pub fn clustering_js_with_freeze() -> String {
    let patched = CLUSTERING_JS.replace("var USE_FREEZE = false;", "var USE_FREEZE = true;");
    assert_ne!(patched, CLUSTERING_JS, "USE_FREEZE flag must exist");
    patched
}

/// Converts a raw simulated scan into the readings the Wi-Fi sensor
/// publishes.
pub fn readings_from_raw(raw: &RawScan) -> Vec<WifiReading> {
    raw.readings
        .iter()
        .map(|r| WifiReading {
            bssid: r.bssid.to_string(),
            rssi_dbm: r.rssi_dbm,
        })
        .collect()
}

/// Parses a sanitized scan message (`{t, aps: [{b, l}]}` as published by
/// `scan.js` or carried in a cluster's `rep` field) into a native [`Scan`].
pub fn scan_from_msg(msg: &Msg) -> Option<Scan> {
    let t = msg.get("t").and_then(Msg::as_num)? as u64;
    let aps = msg.get("aps")?.as_arr()?;
    let mut parts = Vec::with_capacity(aps.len());
    for ap in aps {
        let bssid: pogo_cluster::Bssid = ap.get("b")?.as_str()?.parse().ok()?;
        let level = ap.get("l").and_then(Msg::as_num)?;
        parts.push((bssid, level));
    }
    Some(Scan::from_parts(t, parts))
}

/// Parses a raw sensor scan message (`{timestamp, aps: [{bssid, rssi}]}`
/// as logged by `scan.js` to `raw-scans`) into a native [`RawScan`].
pub(crate) fn raw_scan_from_msg(msg: &Msg) -> Option<RawScan> {
    let timestamp_ms = msg.get("timestamp").and_then(Msg::as_num)? as u64;
    let aps = msg.get("aps")?.as_arr()?;
    let mut readings = Vec::with_capacity(aps.len());
    for ap in aps {
        readings.push(pogo_cluster::ApReading {
            bssid: ap.get("bssid")?.as_str()?.parse().ok()?,
            rssi_dbm: ap.get("rssi").and_then(Msg::as_num)?,
        });
    }
    Some(RawScan {
        timestamp_ms,
        readings,
    })
}

/// Parses a `locations` message (`{entry, exit, n, rep}` as published by
/// `clustering.js`) into a native [`ClusterSummary`].
pub fn summary_from_msg(msg: &Msg) -> Option<ClusterSummary> {
    Some(ClusterSummary {
        entry_ms: msg.get("entry").and_then(Msg::as_num)? as u64,
        exit_ms: msg.get("exit").and_then(Msg::as_num)? as u64,
        samples: msg.get("n").and_then(Msg::as_num)? as usize,
        representative: scan_from_msg(msg.get("rep")?)?,
    })
}

/// Deploys the localization experiment (Figure 1) as `loc` to every phone
/// on `testbed`: `collect.js` on the collector, with the `geolocate`
/// native over `world`, then `scan.js` and `clustering` (`clustering.js`
/// when `None`) on the phones.
pub fn deploy_localization(testbed: &Testbed, world: World, clustering: Option<String>) {
    let service = GeolocationService::new(world);
    let collector = testbed.collector();
    collector
        .install_collector_script("loc", "collect.js", COLLECT_JS, |host| {
            register_geolocate(host, service);
        })
        .expect("collect.js loads");
    let mut experiment = localization_experiment("loc");
    if let Some(source) = clustering {
        experiment.scripts[1].source = source;
    }
    let jids: Vec<Jid> = testbed.devices().iter().map(DeviceNode::jid).collect();
    collector
        .deployment(&experiment)
        .to(&jids)
        .send()
        .expect("scripts pass pre-deployment analysis");
}

/// Registers the `geolocate` extension native (the Google-geolocation
/// stand-in, §4.1) on a collector script host.
fn register_geolocate(host: &ScriptHost, service: GeolocationService) {
    host.register_native("geolocate", move |_, args: &[Value]| {
        let scan = args
            .first()
            .ok_or_else(|| ScriptError::host("geolocate: expected a scan"))?;
        let msg = Msg::from_script(scan)?;
        let Some(scan) = scan_from_msg(&msg) else {
            return Ok(Value::Null);
        };
        match service.locate(&scan) {
            Some(point) => {
                let mut obj = ObjMap::new();
                obj.insert("lat", Value::from(point.lat));
                obj.insert("lon", Value::from(point.lon));
                Ok(Value::object(obj))
            }
            None => Ok(Value::Null),
        }
    });
}

/// Reconstructs ground truth the way §5.3 does: parse the device's
/// `raw-scans` log, sanitize, and run the (native) streaming clusterer
/// over the complete, uninterrupted trace.
pub fn ground_truth_from_log(
    lines: &[String],
    cfg: pogo_cluster::StreamConfig,
) -> Vec<ClusterSummary> {
    let mut clusterer = pogo_cluster::StreamClusterer::new(cfg);
    let mut out = Vec::new();
    for line in lines {
        let Ok(msg) = Msg::from_json(line) else {
            continue;
        };
        let Some(raw) = raw_scan_from_msg(&msg) else {
            continue;
        };
        out.extend(clusterer.push(raw.sanitize()));
    }
    out.extend(clusterer.finish());
    out
}

/// Parses the collector's `places` log (written by `collect.js`) back
/// into per-user summaries: `(user_jid, summary, located)`.
pub fn places_from_log(lines: &[String]) -> Vec<(String, ClusterSummary, bool)> {
    let mut out = Vec::new();
    for line in lines {
        let Ok(msg) = Msg::from_json(line) else {
            continue;
        };
        let Some(user) = msg.get("user").and_then(Msg::as_str) else {
            continue;
        };
        let summary = ClusterSummary {
            entry_ms: match msg.get("entry").and_then(Msg::as_num) {
                Some(v) => v as u64,
                None => continue,
            },
            exit_ms: match msg.get("exit").and_then(Msg::as_num) {
                Some(v) => v as u64,
                None => continue,
            },
            samples: msg.get("n").and_then(Msg::as_num).unwrap_or(0.0) as usize,
            representative: match msg.get("rep").and_then(scan_from_msg) {
                Some(s) => s,
                None => continue,
            },
        };
        let located = msg.get("lat").is_some();
        out.push((user.to_owned(), summary, located));
    }
    out
}

/// `spec` over days `start_day..end_day`, its roaming and outage gaps
/// clipped to that window (a gap that starts after it is dropped).
pub fn clip_user(spec: &UserSpec, start_day: u64, end_day: u64) -> UserSpec {
    let clip = |gap: Option<(u64, u64)>| {
        gap.and_then(|(a, b)| (a < end_day).then_some((a, b.min(end_day))))
    };
    UserSpec {
        start_day,
        end_day,
        roaming_days: clip(spec.roaming_days),
        outage_days: clip(spec.outage_days),
        ..spec.clone()
    }
}

/// Adds one Table 4 user's phone (§5.2, §5.3) to `testbed`: `spec`'s
/// scenario, built on `world` and `rng`; a Wi-Fi scanner along its trace
/// that fails as often as the user's chipset did; the §5.2 background
/// e-mail app, whose radio tails the flushes ride; and the scenario's
/// connectivity and reboots. The scanner and its failure stream fork
/// `rng`, in that order, after the scenario is built.
pub fn add_cohort_phone(
    testbed: &mut Testbed,
    spec: &UserSpec,
    world: &mut World,
    rng: &mut SimRng,
    configure: impl FnOnce(DeviceConfig) -> DeviceConfig + 'static,
) -> (DeviceNode, UserScenario) {
    let scenario = spec.build(world, rng);
    let trace = scenario.trace.clone();
    let world = world.clone();
    let synth = RefCell::new(ScanSynthesizer::new(rng.fork(spec.seed_salt)));
    let failure_rng = RefCell::new(rng.fork(spec.seed_salt ^ 0xF41));
    let scan_failure_prob = spec.scan_failure_prob;
    let sources = SensorSources {
        wifi_scan: Some(Box::new(move |t_ms| {
            let w = trace.whereabouts(t_ms);
            if failure_rng.borrow_mut().chance(scan_failure_prob) {
                return None; // the chipset returned nothing this time
            }
            let raw = synth.borrow_mut().scan(&world, w, t_ms)?;
            Some(readings_from_raw(&raw))
        })),
        ..SensorSources::default()
    };
    let node_name = spec.name.to_lowercase().replace(' ', "-");
    let setup = DeviceSetup::named(&node_name).sensors(sources);
    let (device, phone) = testbed.add(setup.configure(configure));
    // The app keeps itself alive through its own alarms.
    let _ = PeriodicNetApp::install(&phone, NetAppConfig::email());
    drive_connectivity(testbed.sim(), &phone, &scenario);
    schedule_reboots(testbed.sim(), &device, &scenario);
    (device, scenario)
}

/// Applies a Table 4 user's movement/connectivity schedule to `phone`:
/// cellular normally, no data during roaming/outage gaps, Wi-Fi only at
/// home/office for the wifi-only user, nothing while the phone is off.
/// (In the chaos soak the controller's own bearer manipulation
/// interleaves with these breakpoints, which is the point.)
fn drive_connectivity(sim: &Sim, phone: &Phone, scenario: &UserScenario) {
    let mut breakpoints: Vec<u64> = scenario.trace.segments().iter().map(|&(t, _)| t).collect();
    for &(a, b) in &scenario.disruptions.data_gaps {
        breakpoints.push(a);
        breakpoints.push(b);
    }
    breakpoints.push(0);
    breakpoints.sort_unstable();
    breakpoints.dedup();

    let desired = {
        let trace = scenario.trace.clone();
        let disruptions = scenario.disruptions.clone();
        let wifi_places = scenario.wifi_places.clone();
        move |t: u64| -> Option<Bearer> {
            match trace.whereabouts(t) {
                Whereabouts::PhoneOff => None,
                w => {
                    if disruptions.wifi_only {
                        match w {
                            Whereabouts::At(p) if wifi_places.contains(&p) => Some(Bearer::Wifi),
                            _ => None,
                        }
                    } else if disruptions.in_data_gap(t) {
                        None
                    } else {
                        Some(Bearer::Cellular)
                    }
                }
            }
        }
    };
    for t in breakpoints {
        let conn = phone.connectivity().clone();
        let desired = desired.clone();
        sim.schedule_at(SimTime::from_millis(t), move || {
            conn.set_active(desired(t));
        });
    }
}

/// Schedules the scenario's reboots plus the morning middleware restart
/// after every phone-off night. (A reboot landing inside a chaos
/// battery-death window is a harmless no-op: the device refuses to boot
/// while powered off.)
fn schedule_reboots(sim: &Sim, device: &DeviceNode, scenario: &UserScenario) {
    let mut reboots = scenario.disruptions.reboots.clone();
    let segments = scenario.trace.segments();
    for pair in segments.windows(2) {
        if pair[0].1 == Whereabouts::PhoneOff && pair[1].1 != Whereabouts::PhoneOff {
            reboots.push(pair[1].0);
        }
    }
    for t in reboots {
        let device = device.clone();
        sim.schedule_at(SimTime::from_millis(t), move || device.reboot());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pogo_cluster::Bssid;

    #[test]
    fn scan_msg_roundtrip() {
        let msg = Msg::obj([
            ("t", Msg::Num(60_000.0)),
            (
                "aps",
                Msg::Arr(vec![Msg::obj([
                    ("b", Msg::str("00:10:00:00:00:01")),
                    ("l", Msg::Num(0.5)),
                ])]),
            ),
        ]);
        let scan = scan_from_msg(&msg).unwrap();
        assert_eq!(scan.timestamp_ms, 60_000);
        assert_eq!(scan.len(), 1);
        assert_eq!(
            scan.aps()[0].0,
            "00:10:00:00:00:01".parse::<Bssid>().unwrap()
        );
    }

    #[test]
    fn malformed_scan_msgs_are_none() {
        assert!(scan_from_msg(&Msg::Null).is_none());
        assert!(scan_from_msg(&Msg::obj([("t", Msg::Num(1.0))])).is_none());
        let bad_bssid = Msg::obj([
            ("t", Msg::Num(1.0)),
            (
                "aps",
                Msg::Arr(vec![Msg::obj([
                    ("b", Msg::str("zz")),
                    ("l", Msg::Num(0.1)),
                ])]),
            ),
        ]);
        assert!(scan_from_msg(&bad_bssid).is_none());
    }

    #[test]
    fn summary_msg_roundtrip() {
        let msg = Msg::obj([
            ("entry", Msg::Num(60_000.0)),
            ("exit", Msg::Num(300_000.0)),
            ("n", Msg::Num(5.0)),
            (
                "rep",
                Msg::obj([
                    ("t", Msg::Num(120_000.0)),
                    (
                        "aps",
                        Msg::Arr(vec![Msg::obj([
                            ("b", Msg::str("00:10:00:00:00:01")),
                            ("l", Msg::Num(0.8)),
                        ])]),
                    ),
                ]),
            ),
        ]);
        let summary = summary_from_msg(&msg).unwrap();
        assert_eq!(summary.entry_ms, 60_000);
        assert_eq!(summary.exit_ms, 300_000);
        assert_eq!(summary.samples, 5);
        assert_eq!(summary.representative.len(), 1);
        // Missing fields are rejected, not defaulted.
        assert!(summary_from_msg(&Msg::obj([("entry", Msg::Num(1.0))])).is_none());
    }

    #[test]
    fn ground_truth_skips_malformed_log_lines() {
        let lines = vec![
            "not json".to_owned(),
            "{\"timestamp\":0,\"aps\":[]}".to_owned(),
            "{\"unrelated\":true}".to_owned(),
        ];
        let truth = ground_truth_from_log(&lines, pogo_cluster::StreamConfig::default());
        assert!(truth.is_empty(), "garbage tolerated, nothing fabricated");
    }

    #[test]
    fn freeze_variant_differs() {
        let v = clustering_js_with_freeze();
        assert!(v.contains("USE_FREEZE = true"));
    }

    #[test]
    fn localization_spec_carries_both_scripts() {
        let spec = localization_experiment("loc");
        assert_eq!(spec.scripts.len(), 2);
        assert_eq!(spec.scripts[0].name, "scan.js");
        assert_eq!(spec.scripts[1].name, "clustering.js");
    }

    #[test]
    fn all_bundled_scripts_parse() {
        for (name, src) in [
            ("scan.js", SCAN_JS),
            ("clustering.js", CLUSTERING_JS),
            ("collect.js", COLLECT_JS),
            ("roguefinder.js", ROGUEFINDER_JS),
            ("roguefinder-collect.js", ROGUEFINDER_COLLECT_JS),
        ] {
            pogo_script::parse(src).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }
}
