//! Cross-crate integration tests of middleware behaviours the paper's
//! deployment depended on: deterministic replay, disruption recovery,
//! message expiry, multi-device fan-in, and the §5.3 freeze/thaw fix.

use std::cell::RefCell;
use std::rc::Rc;

use pogo::core::proto::ScriptSpec;
use pogo::core::sensor::{SensorSources, WifiReading};
use pogo::core::{
    ChannelFilter, ChannelSchema, DeviceSetup, ExperimentSpec, Msg, PrivacyPolicy, ScanQuery,
    Testbed,
};
use pogo::glue;
use pogo::net::FlushPolicy;
use pogo::platform::Bearer;
use pogo::sim::{Sim, SimDuration, SimTime};

const MIN: u64 = 60_000;

/// A stable fake environment: always "at home" with three APs.
fn home_sources() -> SensorSources {
    SensorSources {
        wifi_scan: Some(Box::new(|t_ms| {
            Some(
                (0..3)
                    .map(|i| WifiReading {
                        bssid: format!("00:10:00:00:00:0{i}"),
                        rssi_dbm: -60.0 - i as f64 * 5.0 - ((t_ms / MIN) % 3) as f64,
                    })
                    .collect(),
            )
        })),
        ..SensorSources::default()
    }
}

fn immediate(cfg: pogo::core::DeviceConfig) -> pogo::core::DeviceConfig {
    cfg.with_flush_policy(FlushPolicy::Immediate)
}

#[test]
fn identical_seeds_replay_identically() {
    // The entire stack — simulation, middleware, scripts, network — is
    // deterministic: two runs produce byte-identical collector logs.
    let run = || {
        let sim = Sim::new();
        let mut testbed = Testbed::new(&sim);
        let (device, _phone) = testbed.add(
            DeviceSetup::named("phone")
                .configure(immediate)
                .sensors(home_sources()),
        );
        testbed
            .collector()
            .install_script(
                "exp",
                "log.js",
                "subscribe('scans', function (m, from) { logTo('out', from + ' ' + json(m)); });",
            )
            .unwrap();
        testbed
            .collector()
            .deployment(&glue::localization_experiment("exp"))
            .to(&[device.jid()])
            .send()
            .expect("scripts pass pre-deployment analysis");
        sim.run_for(SimDuration::from_hours(3));
        testbed.collector().logs().lines("out").join("\n")
    };
    let a = run();
    let b = run();
    assert!(!a.is_empty());
    assert_eq!(a, b, "replays diverged");
}

#[test]
fn owner_veto_in_the_device_config_keeps_a_channel_on_the_phone() {
    // §3.3: the owner's sharing settings are a `PrivacyPolicy` the
    // embedder hands the device's config. A veto keeps the sensor off and
    // the channel's data on the phone; lifting it lets the data flow.
    let sim = Sim::new();
    let mut testbed = Testbed::new(&sim);
    let policy = PrivacyPolicy::default();
    policy.set_allowed("battery", false);
    let owner = policy.clone();
    let (device, _phone) = testbed.add(DeviceSetup::named("phone").configure(move |cfg| {
        let mut cfg = immediate(cfg);
        cfg.privacy = owner;
        cfg
    }));
    let collector = testbed.collector();
    collector
        .registry()
        .register_with_params(
            "exp",
            "battery",
            Msg::obj([("interval", Msg::Num(60_000.0))]),
            ChannelSchema::json(),
        )
        .expect("fresh channel registers");
    collector
        .deployment(&ExperimentSpec {
            id: "exp".into(),
            scripts: vec![],
        })
        .to(&[device.jid()])
        .send()
        .expect("an empty deployment passes the gate");
    let stored = || collector.store().scan(&ScanQuery::exp("exp")).len();

    sim.run_for(SimDuration::from_mins(10));
    assert_eq!(
        device.sensors().sample_count("battery"),
        0,
        "the sensor stays off"
    );
    assert_eq!(stored(), 0, "a vetoed channel's data stays on the phone");

    policy.set_allowed("battery", true);
    sim.run_for(SimDuration::from_mins(10));
    assert!(device.sensors().sample_count("battery") > 0);
    assert!(stored() > 0, "data flows once the veto is lifted");
}

#[test]
fn offline_device_buffers_and_recovers_without_loss() {
    let sim = Sim::new();
    let mut testbed = Testbed::new(&sim);
    let (device, phone) = testbed.add(
        DeviceSetup::named("phone")
            .configure(immediate)
            .sensors(home_sources()),
    );
    let received = Rc::new(RefCell::new(Vec::new()));
    let r = received.clone();
    testbed
        .collector()
        .attach_listener(ChannelFilter::exp("exp").channel("ticks"), move |event| {
            r.borrow_mut().push(
                event
                    .msg
                    .get("n")
                    .and_then(pogo::core::Msg::as_num)
                    .unwrap(),
            );
        });
    testbed
        .collector()
        .deployment(&ExperimentSpec {
            id: "exp".into(),
            scripts: vec![ScriptSpec {
                name: "tick.js".into(),
                source: r#"
                    var n = 0;
                    function tick() {
                        n = n + 1;
                        publish('ticks', { n: n });
                        setTimeout(tick, 10 * 60 * 1000);
                    }
                    tick();
                "#
                .into(),
            }],
        })
        .to(&[device.jid()])
        .send()
        .expect("scripts pass pre-deployment analysis");
    sim.run_for(SimDuration::from_mins(25)); // ticks 1, 2, 3 delivered
    phone.connectivity().set_active(None); // tunnel / airplane mode
    sim.run_for(SimDuration::from_hours(2)); // ticks pile up in the store
    assert!(device.buffered() > 5);
    phone.connectivity().set_active(Some(Bearer::Cellular));
    sim.run_for(SimDuration::from_mins(5));
    let got = received.borrow().clone();
    // Every tick arrived exactly once, in order.
    let expected: Vec<f64> = (1..=got.len() as u64).map(|n| n as f64).collect();
    assert_eq!(got, expected);
    assert!(got.len() >= 14, "2h25m of 10-min ticks: {}", got.len());
    assert_eq!(device.buffered(), 0, "store drained after recovery");
}

#[test]
fn wifi_to_cellular_handover_loses_nothing_end_to_end() {
    let sim = Sim::new();
    let mut testbed = Testbed::new(&sim);
    let (device, phone) = testbed.add(
        DeviceSetup::named("phone")
            .configure(immediate)
            .sensors(home_sources()),
    );
    let count = Rc::new(RefCell::new(0u64));
    let c = count.clone();
    testbed
        .collector()
        .attach_listener(ChannelFilter::exp("exp").channel("ticks"), move |_event| {
            *c.borrow_mut() += 1
        });
    testbed
        .collector()
        .deployment(&ExperimentSpec {
            id: "exp".into(),
            scripts: vec![ScriptSpec {
                name: "tick.js".into(),
                source: r#"
                    function tick() { publish('ticks', {}); setTimeout(tick, 60 * 1000); }
                    tick();
                "#
                .into(),
            }],
        })
        .to(&[device.jid()])
        .send()
        .expect("scripts pass pre-deployment analysis");
    // Flip the bearer every 7 minutes for 2 hours.
    for i in 1..=17u64 {
        let conn = phone.connectivity().clone();
        let bearer = if i % 2 == 0 {
            Bearer::Cellular
        } else {
            Bearer::Wifi
        };
        sim.schedule_at(SimTime::from_millis(i * 7 * MIN), move || {
            conn.set_active(Some(bearer));
        });
    }
    sim.run_for(SimDuration::from_hours(2));
    sim.run_for(SimDuration::from_mins(3)); // drain
    let delivered = *count.borrow();
    assert!(
        delivered >= 118,
        "one tick per minute for 2h, none lost: {delivered}"
    );
}

#[test]
fn message_expiry_drops_exactly_the_stale_window() {
    let sim = Sim::new();
    let mut testbed = Testbed::new(&sim);
    let (device, phone) = testbed.add(
        DeviceSetup::named("phone")
            .configure(immediate)
            .sensors(home_sources()),
    );
    testbed
        .collector()
        .attach_listener(ChannelFilter::exp("exp").channel("ticks"), |_event| {});
    testbed
        .collector()
        .deployment(&ExperimentSpec {
            id: "exp".into(),
            scripts: vec![ScriptSpec {
                name: "tick.js".into(),
                source: r#"
                    function tick() { publish('ticks', {}); setTimeout(tick, 60 * 60 * 1000); }
                    tick();
                "#
                .into(),
            }],
        })
        .to(&[device.jid()])
        .send()
        .expect("scripts pass pre-deployment analysis");
    sim.run_for(SimDuration::from_mins(5));
    // The user-2a scenario: abroad with data off for 3 days.
    phone.connectivity().set_active(None);
    sim.run_for(SimDuration::from_days(3));
    phone.connectivity().set_active(Some(Bearer::Cellular));
    sim.run_for(SimDuration::from_mins(10));
    // Hourly ticks for 3 days = 72; everything older than 24 h purged.
    let purged = device.purged();
    assert!(
        (44..=52).contains(&(purged as i64)),
        "roughly two days of messages purged: {purged}"
    );
    assert_eq!(device.buffered(), 0, "the fresh day was delivered");
}

#[test]
fn many_devices_fan_in_with_attribution() {
    let sim = Sim::new();
    let mut testbed = Testbed::new(&sim);
    for i in 0..8 {
        testbed.add(
            DeviceSetup::named(&format!("d{i}"))
                .configure(immediate)
                .sensors(home_sources()),
        );
    }
    let seen = Rc::new(RefCell::new(
        std::collections::BTreeMap::<String, u64>::new(),
    ));
    let s = seen.clone();
    testbed
        .collector()
        .attach_listener(ChannelFilter::exp("exp").channel("hello"), move |event| {
            *s.borrow_mut().entry(event.device.to_owned()).or_default() += 1;
        });
    let jids: Vec<_> = testbed.devices().iter().map(|d| d.jid()).collect();
    testbed
        .collector()
        .deployment(&ExperimentSpec {
            id: "exp".into(),
            scripts: vec![ScriptSpec {
                name: "hello.js".into(),
                source: "publish('hello', { hi: 1 });".into(),
            }],
        })
        .to(&jids)
        .send()
        .expect("scripts pass pre-deployment analysis");
    sim.run_for(SimDuration::from_mins(5));
    let seen = seen.borrow();
    assert_eq!(seen.len(), 8, "all devices reported: {seen:?}");
    assert!(
        seen.values().all(|&n| n == 1),
        "exactly once each: {seen:?}"
    );
}

#[test]
fn freeze_fix_preserves_clusters_across_reboots() {
    // The §5.3 ablation in miniature: a dwell interrupted by a reboot is
    // reported whole with freeze/thaw, truncated without.
    let moving_sources = || -> SensorSources {
        SensorSources {
            wifi_scan: Some(Box::new(|t_ms| {
                if t_ms < 3 * 60 * MIN {
                    // At home.
                    Some(
                        (0..3)
                            .map(|i| WifiReading {
                                bssid: format!("00:10:00:00:00:0{i}"),
                                rssi_dbm: -60.0 - i as f64 * 5.0,
                            })
                            .collect(),
                    )
                } else {
                    // Walking: a different street AP every scan.
                    Some(vec![WifiReading {
                        bssid: format!(
                            "00:20:00:00:{:02x}:{:02x}",
                            (t_ms / MIN) % 199,
                            (t_ms / MIN) % 251
                        ),
                        rssi_dbm: -88.0,
                    }])
                }
            })),
            ..SensorSources::default()
        }
    };
    let run = |use_freeze: bool| -> Vec<(u64, u64)> {
        let sim = Sim::new();
        let mut testbed = Testbed::new(&sim);
        let (device, _phone) = testbed.add(
            DeviceSetup::named("phone")
                .configure(immediate)
                .sensors(moving_sources()),
        );
        let places = Rc::new(RefCell::new(Vec::new()));
        let p = places.clone();
        testbed.collector().attach_listener(
            ChannelFilter::exp("loc").channel("locations"),
            move |event| {
                let msg = event.msg;
                p.borrow_mut().push((
                    msg.get("entry").and_then(pogo::core::Msg::as_num).unwrap() as u64,
                    msg.get("exit").and_then(pogo::core::Msg::as_num).unwrap() as u64,
                ));
            },
        );
        let mut spec = glue::localization_experiment("loc");
        if use_freeze {
            spec.scripts[1].source = glue::clustering_js_with_freeze();
        }
        testbed
            .collector()
            .deployment(&spec)
            .to(&[device.jid()])
            .send()
            .expect("scripts pass pre-deployment analysis");
        // Dwell 0–3h with a reboot at 2h, then an hour of walking: the
        // dissimilar transit scans close the home cluster.
        let d = device.clone();
        sim.schedule_at(SimTime::from_millis(2 * 60 * MIN), move || d.reboot());
        sim.run_for(SimDuration::from_hours(4));
        let result = places.borrow().clone();
        result
    };
    // Without freeze, the morning half restarts the cluster: when the
    // cluster eventually closes it will carry a post-reboot entry time.
    // (The run ends before a close, so compare the device-side open state
    // indirectly through a second phase — easiest: look at what a gap
    // reset right before the end emits.)
    // For a crisp observable, use the freeze run's ability to span the
    // reboot: with freeze the FIRST reported cluster must start near 0
    // even though the reboot happened mid-dwell.
    let frozen = run(true);
    let unfrozen = run(false);
    // A cluster that starts near arrival AND ends after the reboot can
    // only exist if clustering state survived the restart.
    let spans_reboot = |places: &[(u64, u64)]| {
        places
            .iter()
            .any(|&(e, x)| e < 30 * MIN && x > 2 * 60 * MIN)
    };
    assert!(
        spans_reboot(&frozen),
        "with freeze, the home dwell is reported whole: {frozen:?}"
    );
    assert!(
        !spans_reboot(&unfrozen),
        "without freeze, no cluster can span the reboot: {unfrozen:?}"
    );
    // The paper's exact artefact: "some clusters ... had a later start
    // time" — the unfrozen run still reports the post-reboot half.
    assert!(
        unfrozen.iter().any(|&(e, x)| e > 2 * 60 * MIN && x > e),
        "unfrozen run reports the truncated half: {unfrozen:?}"
    );
}

#[test]
fn watchdog_errors_are_contained_per_script() {
    let sim = Sim::new();
    let mut testbed = Testbed::new(&sim);
    let (device, _phone) = testbed.add(
        DeviceSetup::named("phone")
            .configure(immediate)
            .sensors(home_sources()),
    );
    let good = Rc::new(RefCell::new(0));
    let g = good.clone();
    testbed
        .collector()
        .attach_listener(ChannelFilter::exp("exp").channel("ok"), move |_event| {
            *g.borrow_mut() += 1
        });
    testbed
        .collector()
        .deployment(&ExperimentSpec {
            id: "exp".into(),
            scripts: vec![
                ScriptSpec {
                    name: "evil.js".into(),
                    source: "subscribe('wifi-scan', function (m) { while (true) {} });".into(),
                },
                ScriptSpec {
                    name: "good.js".into(),
                    source: "subscribe('wifi-scan', function (m) { publish('ok', {}); });".into(),
                },
            ],
        })
        .to(&[device.jid()])
        .send()
        .expect("scripts pass pre-deployment analysis");
    sim.run_for(SimDuration::from_mins(10));
    let ctx = device.context("exp").unwrap();
    let evil = &ctx.scripts()[0];
    assert!(
        evil.watchdog_trips() >= 5,
        "runaway callback killed each time"
    );
    assert!(*good.borrow() >= 5, "well-behaved script unaffected");
}
