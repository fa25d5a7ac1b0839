//! Integration tests for the observability layer (`pogo-obs`) and the
//! builder-style testbed API it rides on: zero-overhead off mode,
//! deterministic traces, category filtering, and the unified log stream
//! (script logs and `pogo-lint` warnings in one trace).

use pogo::core::proto::ScriptSpec;
use pogo::core::sensor::{AccelSample, SensorSources};
use pogo::core::{DeviceSetup, ExperimentSpec, ObsConfig, Testbed};
use pogo::net::FlushPolicy;
use pogo::obs::export;
use pogo::sim::{Sim, SimDuration, SimRng};
use std::cell::RefCell;

const ACCEL_LOGGER_JS: &str = r#"
    setDescription('Accelerometer logger');
    subscribe('accelerometer', function (m) {
        log('magnitude ' + m.magnitude);
        publish('magnitudes', { m: m.magnitude });
    }, { interval: 60 * 1000 });
"#;

/// A seeded workload: one device with a jittery accelerometer, the
/// logger script above, 30 simulated minutes.
fn run_workload(seed: u64, obs_config: ObsConfig) -> Testbed {
    let sim = Sim::new();
    let mut testbed = Testbed::with_obs(&sim, obs_config);
    let rng = RefCell::new(SimRng::seed_from_u64(seed));
    let sources = SensorSources {
        accelerometer: Some(Box::new(move |_t_ms| {
            let jitter = rng.borrow_mut().range_f64(0.0, 1.0);
            Some(AccelSample {
                x: 0.1 * jitter,
                y: 0.0,
                z: 9.81,
            })
        })),
        ..SensorSources::default()
    };
    let (device, _phone) = testbed.add(
        DeviceSetup::named("phone-1")
            .configure(|cfg| cfg.with_flush_policy(FlushPolicy::Immediate))
            .sensors(sources),
    );
    testbed.collector().attach_listener(
        pogo::core::ChannelFilter::exp("accel").channel("magnitudes"),
        |_event| {},
    );
    testbed
        .collector()
        .deployment(&ExperimentSpec {
            id: "accel".into(),
            scripts: vec![ScriptSpec {
                name: "logger.js".into(),
                source: ACCEL_LOGGER_JS.into(),
            }],
        })
        .to(&[device.jid()])
        .send()
        .expect("scripts pass pre-deployment analysis");
    sim.run_for(SimDuration::from_mins(30));
    testbed
}

#[test]
fn off_config_records_nothing() {
    let testbed = run_workload(1, ObsConfig::off());
    let obs = testbed.obs();
    assert!(!obs.is_enabled());
    assert!(obs.events().is_empty());
    assert!(obs.metrics().snapshot().is_empty());
    assert!(!testbed.devices()[0].obs().is_enabled());
    // ... while the workload itself ran normally.
    assert!(testbed.devices()[0].flushes() > 0);
}

#[test]
fn same_seed_gives_byte_identical_jsonl() {
    let a = export::to_jsonl(&run_workload(7, ObsConfig::on()).obs().events());
    let b = export::to_jsonl(&run_workload(7, ObsConfig::on()).obs().events());
    assert!(!a.is_empty());
    assert_eq!(a, b, "same seed must serialize to identical bytes");

    let c = export::to_jsonl(&run_workload(8, ObsConfig::on()).obs().events());
    assert_ne!(a, c, "the seed reaches the trace via the logged jitter");
}

#[test]
fn trace_is_one_ordered_stream_across_nodes() {
    let testbed = run_workload(3, ObsConfig::on());
    let events = testbed.obs().events();
    // Device and collector events interleave in one trace...
    assert!(events
        .iter()
        .any(|e| e.device.as_deref() == Some("phone-1@pogo")));
    assert!(events
        .iter()
        .any(|e| e.device.as_deref() == Some("collector@pogo")));
    // ...in non-decreasing time order.
    assert!(events.windows(2).all(|w| w[0].at <= w[1].at));
    // Script `log()` lines ride the same stream as middleware events.
    assert!(events
        .iter()
        .any(|e| e.category.as_ref() == "log" && e.name.as_ref() == "logger.js"));
    let metrics = testbed.obs().metrics();
    assert!(metrics.counter_for(Some("phone-1@pogo"), "log.lines") > 0);
    assert!(metrics.counter_for(Some("phone-1@pogo"), "broker.published") > 0);
}

#[test]
fn lint_warnings_share_the_log_stream() {
    let sim = Sim::new();
    let mut testbed = Testbed::with_obs(&sim, ObsConfig::on());
    let (device, _phone) = testbed.add(DeviceSetup::named("phone-1"));
    testbed
        .collector()
        .deployment(&ExperimentSpec {
            id: "exp".into(),
            scripts: vec![ScriptSpec {
                name: "warny.js".into(),
                // Subscribes a channel nothing publishes: a P103 warning.
                source: "subscribe('nonexistent-feed', function (m) { print(m); });".into(),
            }],
        })
        .to(&[device.jid()])
        .send()
        .expect("warnings do not block deployment");
    sim.run_for(SimDuration::from_mins(1));

    // The analyzer finding is in the collector's LogStore...
    let lint_log = testbed.collector().logs().lines("pogo-lint").join("\n");
    assert!(
        lint_log.contains("warny.js") && lint_log.contains("P103"),
        "{lint_log:?}"
    );
    // ...and, because the store is wired to obs, in the trace too.
    assert!(testbed.obs().events().iter().any(|e| {
        e.category.as_ref() == "log"
            && e.name.as_ref() == "pogo-lint"
            && e.device.as_deref() == Some("collector@pogo")
    }));
}

#[test]
fn category_allowlist_filters_events_not_metrics() {
    let sim = Sim::new();
    let mut testbed = Testbed::with_obs(&sim, ObsConfig::on().only_categories(["pogo"]));
    let (device, _phone) = testbed.add(DeviceSetup::named("phone-1"));
    testbed
        .collector()
        .deployment(&ExperimentSpec {
            id: "exp".into(),
            scripts: vec![],
        })
        .to(&[device.jid()])
        .send()
        .expect("empty experiment lints clean");
    sim.run_for(SimDuration::from_mins(30));

    let events = testbed.obs().events();
    assert!(!events.is_empty());
    assert!(events.iter().all(|e| e.category.as_ref() == "pogo"));
    // Metrics are unaffected by the event allowlist: the device
    // received at least the experiment push.
    assert!(
        testbed
            .obs()
            .metrics()
            .counter_for(Some("phone-1@pogo"), "net.messages_received")
            > 0
    );
}
