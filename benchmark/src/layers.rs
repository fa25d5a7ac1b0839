//! Per-layer numbers: counts from the traced pass, unit costs from
//! layer replays.
//!
//! A replay is a timed loop over one layer's public functions alone, fed
//! inputs captured from (or regenerated for) the workload at the rates
//! the traced pass observed. Unit cost × count = `<layer>.busy_s`: the
//! host time that layer would account for if nothing else ran. Replays
//! that need a `Sim` to drive them subtract the bare queue-and-dispatch
//! cost of the events they executed, which `sim.busy_s` already covers.

use std::cell::Cell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use pogo_core::context::DeviceContext;
use pogo_core::host::{FrozenSlot, LogStore};
use pogo_core::proto::ControlMsg;
use pogo_core::sensor::{SensorManager, SensorSources};
use pogo_core::{Broker, ChannelSchema, CollectorNode, Msg, Scheduler};
use pogo_ingest::{IngestPipeline, SampleValue};
use pogo_net::{Envelope, Jid, MessageStore, Payload, Switchboard};
use pogo_obs::Obs;
use pogo_platform::{Phone, PhoneConfig};
use pogo_sim::{Sim, SimDuration, SimTime};

use crate::collector;
use crate::fleet::{self, Kind, Outcome};
use crate::gen;
use crate::metrics::{self, Values, PER_LAYER};

/// Devices whose scan streams feed the script replay.
const SCRIPT_REPLAY_DEVICES: usize = 32;

fn ns_per(elapsed: std::time::Duration, n: u64) -> f64 {
    elapsed.as_nanos() as f64 / n.max(1) as f64
}

/// Cost of one operation of a sim-driven replay, net of the bare
/// dispatch cost of the `events` it executed.
fn net_ns(elapsed: std::time::Duration, events: u64, dispatch_ns: f64, ops: u64) -> f64 {
    ((elapsed.as_nanos() as f64 - events as f64 * dispatch_ns) / ops.max(1) as f64).max(0.0)
}

// ---- replays -------------------------------------------------------------

/// The delays the middleware's timers use: link latencies, the 1 s tail
/// poll, 5 s and 60 s sensors, 30–90 s flushes.
const FLEET_DELAYS_MS: [u64; 8] = [5, 120, 1_000, 1_000, 5_000, 30_000, 60_000, 90_000];

/// A bare `Sim` holding `pending` events, executing and rescheduling
/// no-ops `delays_ms` ahead, round robin: the cost of queueing and
/// dispatching one event. It depends on both arguments (the timer wheel
/// walks empty slots when events are sparse), so each sim-driven replay
/// is netted against a control with its own depth and delays.
pub fn replay_sim(pending: usize, delays_ms: &[u64]) -> f64 {
    const N: u64 = 1_000_000;
    let sim = Sim::new();
    for k in 0..pending.max(1) {
        let delay = delays_ms[k % delays_ms.len()] + (k as u64 * 7_919) % delays_ms[0].max(2);
        sim.schedule_in(SimDuration::from_millis(delay), || {});
    }
    let t = Instant::now();
    for k in 0..N {
        sim.step();
        let delay = delays_ms[(k % delays_ms.len() as u64) as usize];
        sim.schedule_in(SimDuration::from_millis(delay), || {});
    }
    black_box(sim.executed());
    ns_per(t.elapsed(), N)
}

/// Phones a sim-driven replay stands up. A replay with one phone would
/// mostly measure the timer wheel walking empty simulated time; with a
/// fleet-like density of events that cost is amortised as it is in the
/// workload, and the matched `replay_sim` control subtracts the rest.
const REPLAY_PHONES: usize = 250;

fn bare_phones(sim: &Sim) -> Vec<Phone> {
    (0..REPLAY_PHONES)
        .map(|_| Phone::new(sim, PhoneConfig::default()))
        .collect()
}

/// Runs `op(phone index)` on every phone once per `gap`, staggered over
/// the gap, for `rounds` gaps. Returns the elapsed host time and the
/// events executed.
fn drive_per_phone(
    sim: &Sim,
    gap: SimDuration,
    rounds: u64,
    op: impl Fn(usize) + 'static,
) -> (std::time::Duration, u64) {
    fn tick(sim: Sim, gap: SimDuration, i: usize, op: Rc<dyn Fn(usize)>) {
        op(i);
        let next = sim.clone();
        sim.schedule_in(gap, move || tick(next, gap, i, op));
    }
    let op: Rc<dyn Fn(usize)> = Rc::new(op);
    for i in 0..REPLAY_PHONES {
        let offset = gap.as_millis() * i as u64 / REPLAY_PHONES as u64;
        let (s, op) = (sim.clone(), op.clone());
        sim.schedule_in(SimDuration::from_millis(offset), move || {
            tick(s, gap, i, op)
        });
    }
    let before = sim.executed();
    let t = Instant::now();
    sim.run_for(gap.mul(rounds));
    (t.elapsed(), sim.executed() - before)
}

/// `Cpu::set_alarm_in` on bare phones, one alarm per phone per `gap`:
/// wake, callback, linger, sleep, with the energy rails following.
pub fn replay_alarm(gap: SimDuration) -> f64 {
    const ROUNDS: u64 = 400;
    let sim = Sim::new();
    let phones = bare_phones(&sim);
    let cpus: Vec<_> = phones.iter().map(|p| p.cpu().clone()).collect();
    let half = SimDuration::from_millis(gap.as_millis() / 2);
    let (elapsed, events) = drive_per_phone(&sim, gap, ROUNDS, move |i| {
        cpus[i].set_alarm_in(half, || {});
    });
    black_box(phones[0].meter().total_joules());
    let dispatch_ns = replay_sim(REPLAY_PHONES, &[gap.as_millis()]);
    net_ns(elapsed, events, dispatch_ns, ROUNDS * REPLAY_PHONES as u64)
}

/// `Phone::transmit` on bare phones, one burst of `bytes` per phone per
/// `gap`: the RRC state machine ramps up, holds its DCH and FACH tails,
/// and idles.
pub fn replay_transmit(bytes: u64, gap: SimDuration) -> f64 {
    const ROUNDS: u64 = 200;
    let sim = Sim::new();
    let phones = bare_phones(&sim);
    let radios = phones.clone();
    let (elapsed, events) = drive_per_phone(&sim, gap, ROUNDS, move |i| {
        let _ = radios[i].transmit(bytes.max(1), 64, || {});
    });
    black_box(phones[0].modem().ramp_ups());
    let dispatch_ns = replay_sim(REPLAY_PHONES, &[gap.as_millis()]);
    net_ns(elapsed, events, dispatch_ns, ROUNDS * REPLAY_PHONES as u64)
}

/// Standalone `SensorManager`s on bare phones, sampling the workload's
/// channels into a broker with a no-op subscriber each. Net of dispatch
/// and of the alarm each sample rides on.
pub fn replay_sensor(kind: Kind, seed: u64, alarm_ns: f64) -> f64 {
    let channels: &[(&str, f64)] = match kind {
        Kind::Localization => &[("wifi-scan", 60_000.0)],
        Kind::Uplink => &[("accelerometer", 5_000.0), ("battery", 60_000.0)],
        Kind::Tailsync => &[("battery", 60_000.0)],
    };
    let sim = Sim::new();
    let phones = bare_phones(&sim);
    let managers: Vec<SensorManager> = phones
        .iter()
        .enumerate()
        .map(|(i, phone)| {
            let sources = match kind {
                Kind::Localization => {
                    let mut walker = gen::Walker::new(seed, i);
                    SensorSources {
                        wifi_scan: Some(Box::new(move |t| Some(walker.scan(t)))),
                        ..SensorSources::default()
                    }
                }
                Kind::Uplink => SensorSources {
                    accelerometer: Some(Box::new(gen::accel_source(seed, i))),
                    ..SensorSources::default()
                },
                Kind::Tailsync => SensorSources::default(),
            };
            let scheduler = Scheduler::new(phone.cpu());
            let broker = Broker::new();
            let manager = SensorManager::new(phone, &scheduler, sources);
            manager.attach_context(fleet::EXP, &broker);
            for (channel, interval) in channels {
                broker.subscribe(
                    channel,
                    Msg::obj([("interval", Msg::Num(*interval))]),
                    |_, msg, _| {
                        black_box(msg);
                    },
                );
            }
            manager
        })
        .collect();
    let before = sim.executed();
    let t = Instant::now();
    sim.run_for(SimDuration::from_mins(40));
    let elapsed = t.elapsed();
    let events = sim.executed() - before;
    let samples: u64 = managers
        .iter()
        .flat_map(|m| channels.iter().map(|(c, _)| m.sample_count(c)))
        .sum();
    let intervals: Vec<u64> = channels.iter().map(|(_, ms)| *ms as u64).collect();
    let dispatch_ns = replay_sim(REPLAY_PHONES * channels.len(), &intervals);
    (net_ns(elapsed, events, dispatch_ns, samples) - alarm_ns).max(0.0)
}

/// A standalone `Broker` with one subscriber, publishing `msgs` round
/// robin.
pub fn replay_broker(msgs: &[(String, Msg)]) -> f64 {
    const N: u64 = 500_000;
    if msgs.is_empty() {
        return 0.0;
    }
    let broker = Broker::new();
    let channels: std::collections::BTreeSet<&str> = msgs.iter().map(|(c, _)| c.as_str()).collect();
    for channel in channels {
        broker.subscribe(channel, Msg::Null, |_, msg, _| {
            black_box(msg);
        });
    }
    let t = Instant::now();
    for k in 0..N {
        let (channel, msg) = &msgs[(k % msgs.len() as u64) as usize];
        broker.publish(channel, msg);
    }
    ns_per(t.elapsed(), N)
}

/// What the script replay measured.
pub struct ScriptReplay {
    pub callback_us: Vec<f64>,
    pub steps: u64,
    pub seconds: f64,
}

/// The experiment's real `ScriptHost`s on the scan streams of a sample
/// of the fleet's devices: each device gets a standalone
/// `DeviceContext`, and every `wifi-scan` the walker would have produced
/// over `minutes` is published into it. Each `Sim::step` delivers one
/// callback and is timed on its own.
pub fn replay_scripts(seed: u64, devices: usize, minutes: u64) -> ScriptReplay {
    let spec = Kind::Localization.experiment_spec();
    let mut callback_us = Vec::new();
    let mut steps = 0;
    let mut seconds = 0.0;
    for i in (0..devices).step_by((devices / SCRIPT_REPLAY_DEVICES).max(1)) {
        let sim = Sim::new();
        let phone = Phone::new(&sim, PhoneConfig::default());
        let scheduler = Scheduler::new(phone.cpu());
        let ctx = DeviceContext::new(
            fleet::EXP,
            1,
            &scheduler,
            &LogStore::new(),
            Rc::new(|_ctl: ControlMsg| {}),
        );
        let errors = ctx.install_scripts(&spec.scripts, |_| FrozenSlot::new());
        assert!(errors.is_empty(), "the paper's scripts load: {errors:?}");
        let broker = ctx.broker();
        let mut walker = gen::Walker::new(seed, i);
        let before: u64 = ctx.scripts().iter().map(|h| h.steps_used()).sum();
        for minute in 1..=minutes {
            let t_ms = minute * 60_000;
            sim.run_until(SimTime::from_millis(t_ms));
            let aps = walker
                .scan(t_ms)
                .iter()
                .map(|r| {
                    Msg::obj([
                        ("bssid", Msg::str(&r.bssid)),
                        ("rssi", Msg::Num(r.rssi_dbm)),
                    ])
                })
                .collect();
            let msg = Msg::obj([("timestamp", Msg::Num(t_ms as f64)), ("aps", Msg::Arr(aps))]);
            broker.publish("wifi-scan", &msg);
            let target = sim.now() + SimDuration::from_millis(1);
            let done = Rc::new(Cell::new(false));
            let flag = done.clone();
            sim.schedule_at(target, move || flag.set(true));
            loop {
                let t = Instant::now();
                if !sim.step() || done.get() {
                    break;
                }
                let dt = t.elapsed();
                seconds += dt.as_secs_f64();
                callback_us.push(dt.as_nanos() as f64 / 1e3);
            }
        }
        let after: u64 = ctx.scripts().iter().map(|h| h.steps_used()).sum();
        steps += after - before;
        let failed: usize = ctx.scripts().iter().map(|h| h.errors().len()).sum();
        assert_eq!(failed, 0, "replayed scripts raise no errors");
    }
    ScriptReplay {
        callback_us,
        steps,
        seconds,
    }
}

/// `MessageStore` enqueue → pending → ack, in batches of `batch`.
pub fn replay_store_forward(payloads: &[String], batch: usize) -> f64 {
    const N: u64 = 200_000;
    if payloads.is_empty() {
        return 0.0;
    }
    let to = Jid::new("collector@pogo").expect("static JID");
    let store = MessageStore::new();
    let batch = batch.clamp(1, 512) as u64;
    let t = Instant::now();
    for k in 0..N {
        let data = payloads[(k % payloads.len() as u64) as usize].clone();
        store.enqueue(&to, data, SimTime::from_millis(k));
        if (k + 1) % batch == 0 {
            let pending = store.pending();
            let seqs: Vec<u64> = pending.iter().map(|m| m.seq).collect();
            store.ack(black_box(&seqs));
        }
    }
    ns_per(t.elapsed(), N)
}

/// `ControlMsg` JSON decode and encode of captured data payloads:
/// `(encode ns per kB, decode ns per kB)`.
pub fn replay_wire(payloads: &[String]) -> (f64, f64) {
    if payloads.is_empty() {
        return (0.0, 0.0);
    }
    let rounds = (2_000_000 / payloads.iter().map(String::len).sum::<usize>().max(1)).clamp(1, 200);
    let mut bytes = 0u64;
    let t = Instant::now();
    let mut decoded = Vec::with_capacity(payloads.len());
    for _ in 0..rounds {
        decoded.clear();
        for p in payloads {
            bytes += p.len() as u64;
            decoded.push(ControlMsg::from_json(p).expect("captured payload decodes"));
        }
    }
    let decode = t.elapsed();
    let t = Instant::now();
    for _ in 0..rounds {
        for ctl in &decoded {
            black_box(ctl.to_json());
        }
    }
    let encode = t.elapsed();
    let kb = bytes as f64 / 1024.0;
    (encode.as_nanos() as f64 / kb, decode.as_nanos() as f64 / kb)
}

/// One-way latencies of the two replayed links: device and collector.
const LINK_DELAYS_MS: [u64; 2] = [120, 5];

/// A bare `Switchboard` with one device and the collector registered as
/// friends, neither connected yet.
fn bare_link() -> (Sim, Switchboard, Jid, Jid) {
    let sim = Sim::new();
    let server = Switchboard::new(&sim);
    let device = Jid::new("phone-0@pogo").expect("static JID");
    let collector = Jid::new("collector@pogo").expect("static JID");
    server.register(&device);
    server.register(&collector);
    server
        .befriend(&device, &collector)
        .expect("both registered");
    (sim, server, device, collector)
}

/// Two `Session`s on a bare `Switchboard`, one sending the other
/// envelopes of the captured sizes. Net of dispatch.
pub fn replay_switchboard(payloads: &[String]) -> f64 {
    const N: u64 = 200_000;
    if payloads.is_empty() {
        return 0.0;
    }
    let dispatch_ns = replay_sim(64, &LINK_DELAYS_MS);
    let (sim, server, a, b) = bare_link();
    let sa = server
        .connect(&a, SimDuration::from_millis(LINK_DELAYS_MS[0]))
        .expect("registered");
    let sb = server
        .connect(&b, SimDuration::from_millis(LINK_DELAYS_MS[1]))
        .expect("registered");
    sb.on_receive(|env| {
        black_box(env);
    });
    let before = sim.executed();
    let t = Instant::now();
    for k in 0..N {
        let data = payloads[(k % payloads.len() as u64) as usize].clone();
        sa.send(&b, k, Payload::Data(data)).expect("authorized");
        if k % 64 == 63 {
            sim.run_for(SimDuration::from_millis(200));
        }
    }
    sim.run_for(SimDuration::from_secs(1));
    let elapsed = t.elapsed();
    assert_eq!(server.routed(), N, "every replayed envelope is routed");
    net_ns(elapsed, sim.executed() - before, dispatch_ns, N)
}

/// A `CollectorNode` on a bare switchboard receiving the captured data
/// payloads from one raw device session: dedup, ack, decode, context
/// fan-in, extract, append. Gross of the layers below it (routing of the
/// data and of the ack, JSON decode, ingest), net of dispatch.
pub fn replay_collector(kind: Kind, payloads: &[String]) -> f64 {
    const N: u64 = 100_000;
    if payloads.is_empty() {
        return 0.0;
    }
    let dispatch_ns = replay_sim(64, &LINK_DELAYS_MS);
    let (sim, server, device, cjid) = bare_link();
    let node = CollectorNode::new(&sim, &server, &cjid);
    for (channel, _) in kind.channel_list() {
        node.registry()
            .register(fleet::EXP, channel, ChannelSchema::json())
            .expect("fresh channel registers");
    }
    let session = server
        .connect(&device, SimDuration::from_millis(LINK_DELAYS_MS[0]))
        .expect("registered");
    session.on_receive(|env| {
        black_box(env);
    });
    let before = sim.executed();
    let t = Instant::now();
    for k in 0..N {
        let data = payloads[(k % payloads.len() as u64) as usize].clone();
        session
            .send(&cjid, k + 1, Payload::Data(data))
            .expect("authorized");
        if k % 64 == 63 {
            sim.run_for(SimDuration::from_millis(300));
        }
    }
    sim.run_for(SimDuration::from_secs(1));
    let elapsed = t.elapsed();
    assert_eq!(
        node.stats().data_received,
        N,
        "every replayed payload is handled"
    );
    net_ns(elapsed, sim.executed() - before, dispatch_ns, N)
}

/// `IngestPipeline::append` of the captured values on a standalone
/// pipeline, the clock advancing so age watermarks fire.
pub fn replay_ingest(values: &[(String, String)]) -> f64 {
    const N: u64 = 500_000;
    if values.is_empty() {
        return 0.0;
    }
    let sim = Sim::new();
    let pipeline = IngestPipeline::new(&sim, &Obs::off());
    let channels: std::collections::BTreeSet<&str> =
        values.iter().map(|(c, _)| c.as_str()).collect();
    for channel in channels {
        pipeline
            .register(fleet::EXP, channel, ChannelSchema::json())
            .expect("fresh channel registers");
    }
    let devices: Vec<String> = (0..500).map(|d| format!("phone-{d}@pogo")).collect();
    let inputs: Vec<SampleValue> = (0..N)
        .map(|k| SampleValue::Json(values[(k % values.len() as u64) as usize].1.clone()))
        .collect();
    let t = Instant::now();
    for (k, value) in inputs.into_iter().enumerate() {
        let channel = &values[k % values.len()].0;
        pipeline
            .append(fleet::EXP, channel, &devices[k % devices.len()], value)
            .expect("value fits its channel");
        if k % 64 == 63 {
            sim.run_for(SimDuration::from_millis(50));
        }
    }
    ns_per(t.elapsed(), N)
}

/// Milliseconds of the deployment gate's stages on `spec`, timed through
/// `pogo_script`'s public entry points: `(lint, verify, absint, compile)`.
pub fn replay_deploy_gate(spec: &pogo_core::ExperimentSpec) -> (f64, f64, f64, f64) {
    let bundle: Vec<(&str, &str)> = spec
        .scripts
        .iter()
        .map(|s| (s.name.as_str(), s.source.as_str()))
        .collect();
    if bundle.is_empty() {
        return (0.0, 0.0, 0.0, 0.0);
    }
    const ROUNDS: u32 = 20;
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3 / f64::from(ROUNDS);
    let t = Instant::now();
    for _ in 0..ROUNDS {
        black_box(pogo_script::analyze_bundle(&bundle));
    }
    let lint = ms(t);
    let t = Instant::now();
    let mut programs = Vec::new();
    for _ in 0..ROUNDS {
        programs = bundle
            .iter()
            .map(|(_, src)| pogo_script::compile(src).expect("the paper's scripts compile"))
            .collect();
    }
    let compile = ms(t);
    let t = Instant::now();
    for _ in 0..ROUNDS {
        for p in &programs {
            pogo_script::verify::check(p).expect("compiled chunks verify");
        }
    }
    let verify = ms(t);
    let budgets = pogo_script::CostBudgets {
        callback: pogo_core::WATCHDOG_BUDGET,
        load: pogo_core::WATCHDOG_BUDGET * 10,
    };
    let t = Instant::now();
    for _ in 0..ROUNDS {
        for p in &programs {
            let report = pogo_script::analyze_costs(p);
            black_box(pogo_script::cost_diagnostics(&report, &budgets));
        }
    }
    let absint = ms(t);
    (lint, verify, absint, compile)
}

// ---- assembly --------------------------------------------------------------

/// A table with every per-layer metric present; the ones a workload does
/// not define stay 0.
fn blank() -> Values {
    PER_LAYER.iter().map(|m| (m.name.to_owned(), 0.0)).collect()
}

fn set(values: &mut Values, name: &str, v: f64) {
    let slot = values
        .get_mut(name)
        .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
    *slot = if v.is_finite() { v } else { 0.0 };
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Sets `<stem>_p50` and `<stem>_p<tail>` from `samples`; leaves both 0
/// when there are none.
fn set_percentiles(values: &mut Values, stem: &str, tail: u32, samples: &mut [f64]) {
    if let Some(s) = metrics::summarize(samples) {
        set(values, &format!("{stem}_p50"), s.p50);
        set(
            values,
            &format!("{stem}_p{tail}"),
            metrics::percentile(samples, f64::from(tail)),
        );
    }
}

/// The data messages among the captured envelopes, decoded once:
/// `(payload as sent, channel, message)`.
fn data_messages(sample: &[Envelope]) -> Vec<(String, String, Msg)> {
    sample
        .iter()
        .filter_map(|e| {
            let payload = e.data()?;
            match ControlMsg::from_json(payload) {
                Ok(ControlMsg::Data { channel, msg, .. }) => {
                    Some((payload.to_owned(), channel, msg))
                }
                _ => None,
            }
        })
        .collect()
}

/// Per-layer metrics of a traced fleet pass: counts over the measured
/// window, then the replays. The cross-pass ratios (`trace.*`, `obs.*`,
/// `layers.*`) are filled in by [`finish`].
pub fn fleet_layers(o: &Outcome) -> Values {
    let mut v = blank();
    let c = |name: &str| o.record.counts.get(name).copied().unwrap_or(0.0);
    let devices = o.scale.devices as f64;
    let device_hours = devices * o.scale.measured_min as f64 / 60.0;
    let window_s = o.scale.measured_min as f64 * 60.0;
    let span = |name: &str| o.tracer.total_secs(name);

    // testbed, deploy
    set(
        &mut v,
        "testbed.add_fleet_us_per_device",
        span("Testbed::add_fleet") * 1e6 / devices,
    );
    set(
        &mut v,
        "testbed.boot_rss_kb_per_device",
        o.rss_kb.booted.saturating_sub(o.rss_kb.start) as f64 / devices,
    );
    set(
        &mut v,
        "testbed.end_rss_kb_per_device",
        o.rss_kb.end.saturating_sub(o.rss_kb.start) as f64 / devices,
    );
    let send_s = span("Deployment::send");
    set(&mut v, "deploy.send_ms", send_s * 1e3);
    set(&mut v, "deploy.us_per_device", send_s * 1e6 / devices);
    let (lint, verify, absint, compile) = replay_deploy_gate(&o.kind.experiment_spec());
    set(&mut v, "deploy.lint_ms", lint);
    set(&mut v, "deploy.verify_ms", verify);
    set(&mut v, "deploy.absint_ms", absint);
    set(&mut v, "deploy.compile_ms", compile);

    // sim
    let events = c("window.sim_events");
    let pending_peak = c("host.sim_pending_peak");
    let dispatch_ns = replay_sim(pending_peak as usize, &FLEET_DELAYS_MS);
    set(&mut v, "sim.events", events);
    set(&mut v, "sim.events_per_device_hour", events / device_hours);
    set(&mut v, "sim.pending_peak", pending_peak);
    set(&mut v, "sim.step_ns_p50", o.steps.percentile(50.0));
    set(&mut v, "sim.step_ns_p99", o.steps.percentile(99.0));
    set(
        &mut v,
        "sim.heavy_step_time_share",
        o.steps.top_share_of_total(0.01),
    );
    set(&mut v, "sim.dispatch_ns", dispatch_ns);
    set(&mut v, "sim.busy_s", dispatch_ns * events / 1e9);

    // platform
    let wakeups = c("window.cpu_wakeups");
    let transmits = c("window.sf_flushes") + c("window.email_checks");
    let gap = |n: f64| {
        SimDuration::from_millis(
            (window_s * 1e3 * devices / n.max(1.0)).clamp(100.0, 600_000.0) as u64,
        )
    };
    let alarm_ns = replay_alarm(gap(wakeups));
    let tx_bytes = c("window.tx_bytes");
    let transmit_ns = replay_transmit((tx_bytes / transmits.max(1.0)) as u64, gap(transmits));
    set(
        &mut v,
        "platform.cpu_wakeups_per_device_hour",
        wakeups / device_hours,
    );
    set(
        &mut v,
        "platform.cpu_awake_share",
        c("window.cpu_awake_ms") / (window_s * 1e3 * devices),
    );
    set(
        &mut v,
        "platform.radio_ramp_ups_per_device_hour",
        c("window.ramp_ups") / device_hours,
    );
    set(&mut v, "platform.radio_tx_bytes", tx_bytes);
    set(&mut v, "platform.alarm_ns", alarm_ns);
    set(&mut v, "platform.transmit_ns", transmit_ns);
    set(
        &mut v,
        "platform.busy_s",
        (alarm_ns * wakeups + transmit_ns * transmits) / 1e9,
    );

    // sensor
    let samples = c("window.sensor_samples");
    let sample_ns = replay_sensor(o.kind, o.seed, alarm_ns);
    set(&mut v, "sensor.samples", samples);
    set(&mut v, "sensor.sample_ns", sample_ns);
    set(&mut v, "sensor.busy_s", sample_ns * samples / 1e9);

    // wire, store-and-forward, switchboard, collector, ingest: replays of
    // the captured data payloads.
    let data = data_messages(&o.captured.sample);
    let payloads: Vec<String> = data.iter().map(|(p, _, _)| p.clone()).collect();
    let decoded: Vec<(String, Msg)> = data.into_iter().map(|(_, c, m)| (c, m)).collect();

    let publishes = c("window.broker_publishes");
    let publish_ns = replay_broker(&decoded);
    set(&mut v, "broker.publishes", publishes);
    set(&mut v, "broker.publish_ns", publish_ns);
    set(&mut v, "broker.busy_s", publish_ns * publishes / 1e9);

    // script
    let callbacks = c("window.script_callbacks");
    let script_steps = c("window.script_steps");
    set(&mut v, "script.callbacks", callbacks);
    set(&mut v, "script.steps", script_steps);
    set(
        &mut v,
        "script.steps_per_callback",
        ratio(script_steps, callbacks),
    );
    set(&mut v, "script.publishes", c("window.script_publishes"));
    set(
        &mut v,
        "script.watchdog_trips",
        c("window.script_watchdog_trips"),
    );
    set(&mut v, "script.errors", c("window.script_errors"));
    if o.kind == Kind::Localization {
        let minutes = o.scale.warmup_min + o.scale.measured_min;
        let mut r = replay_scripts(o.seed, o.scale.devices, minutes);
        let mean_us = ratio(r.seconds * 1e6, r.callback_us.len() as f64);
        set_percentiles(&mut v, "script.callback_us", 99, &mut r.callback_us);
        set(
            &mut v,
            "script.ns_per_step",
            ratio(r.seconds * 1e9, r.steps as f64),
        );
        set(&mut v, "script.busy_s", mean_us * callbacks / 1e6);
    }

    // tail
    let flushes = c("window.sf_flushes");
    let extra = c("window.ramp_ups") - c("window.email_checks");
    set(&mut v, "tail.flushes", flushes);
    set(
        &mut v,
        "tail.rode_foreign_tail_share",
        (1.0 - ratio(extra, flushes)).clamp(0.0, 1.0),
    );
    set(
        &mut v,
        "tail.batch_size_mean",
        ratio(c("window.sf_sent"), flushes),
    );
    set(
        &mut v,
        "tail.extra_ramp_ups_per_device_day",
        extra / device_hours * 24.0,
    );

    // store-and-forward
    let enqueued = c("window.created");
    let sent = c("window.sf_sent");
    let batch = ratio(sent, flushes).round() as usize;
    let enqueue_ack_ns = replay_store_forward(&payloads, batch);
    set(&mut v, "sf.enqueued", enqueued);
    set(&mut v, "sf.sent", sent);
    set(
        &mut v,
        "sf.retransmit_share",
        ratio((sent - enqueued).max(0.0), sent),
    );
    set(&mut v, "sf.purged", c("window.sf_purged"));
    set(&mut v, "sf.buffered_peak", c("host.sf_buffered_peak"));
    set(&mut v, "sf.enqueue_ack_ns", enqueue_ack_ns);
    set(&mut v, "sf.busy_s", enqueue_ack_ns * enqueued / 1e9);

    // wire
    let (encode, decode) = replay_wire(&payloads);
    let wire_bytes = o.captured.bytes as f64;
    set(&mut v, "wire.envelopes", o.captured.envelopes as f64);
    set(&mut v, "wire.bytes", wire_bytes);
    set(
        &mut v,
        "wire.bytes_per_sample",
        ratio(wire_bytes, c("window.ingest_rows")),
    );
    set(&mut v, "wire.encode_ns_per_kb", encode);
    set(&mut v, "wire.decode_ns_per_kb", decode);
    set(
        &mut v,
        "wire.busy_s",
        (encode + decode) * o.captured.data_bytes as f64 / 1024.0 / 1e9,
    );

    // switchboard, collector
    let routed = c("window.switchboard_routed");
    let route_ns = replay_switchboard(&payloads);
    set(&mut v, "switchboard.routed", routed);
    set(
        &mut v,
        "switchboard.dropped",
        c("window.switchboard_dropped"),
    );
    set(&mut v, "switchboard.route_ns", route_ns);
    set(&mut v, "switchboard.busy_s", route_ns * routed / 1e9);
    set(
        &mut v,
        "collector.data_received",
        c("window.collector_data_received"),
    );
    set(
        &mut v,
        "collector.schema_mismatches",
        c("window.collector_schema_mismatches"),
    );
    set(
        &mut v,
        "collector.errors_logged",
        c("window.collector_errors_logged"),
    );
    set(
        &mut v,
        "collector.handle_ns",
        replay_collector(o.kind, &payloads),
    );

    // ingest
    let rows = c("window.ingest_rows");
    let batches = c("window.ingest_batches_flushed");
    let values: Vec<(String, String)> = decoded
        .iter()
        .map(|(channel, msg)| (channel.clone(), msg.to_json()))
        .collect();
    let append_ns = replay_ingest(&values);
    let mut scan_ms: Vec<f64> = o.scan_secs.iter().map(|s| s * 1e3).collect();
    set(&mut v, "ingest.rows", rows);
    set(&mut v, "ingest.batches_flushed", batches);
    set(&mut v, "ingest.rows_per_batch", ratio(rows, batches));
    set(&mut v, "ingest.append_ns", append_ns);
    set(
        &mut v,
        "ingest.store_bytes_per_row",
        ratio(o.store_bytes as f64, o.scan_rows as f64),
    );
    set_percentiles(&mut v, "ingest.scan_ms", 90, &mut scan_ms);
    set(&mut v, "ingest.scan_returned_share", 1.0);
    for ((format, _, _), secs) in collector::EXPORTERS.iter().zip(&o.export_secs) {
        set(
            &mut v,
            &format!("ingest.export_{format}_ns_per_row"),
            ratio(metrics::median(secs) * 1e9, o.scan_rows as f64),
        );
    }
    set(&mut v, "ingest.busy_s", append_ns * rows / 1e9);

    // roll-up
    let mut window_ms = o.window_ms.clone();
    set_percentiles(&mut v, "run.window_ms", 90, &mut window_ms);
    set(
        &mut v,
        "run.failed_share",
        ratio(o.record.failed as f64, o.record.attempted as f64),
    );
    v
}

/// Per-layer metrics of a traced `collector_readwrite` pass. Only the
/// ingest layer (and the sim clock under it) runs, and every call into
/// it is already timed by the workload itself, so there is no replay:
/// `ingest.busy_s` is the measured time inside `append`, `scan` and the
/// exporters.
pub fn collector_layers(o: &collector::Outcome) -> Values {
    let mut v = blank();
    let c = |name: &str| o.record.counts.get(name).copied().unwrap_or(0.0);
    let rows = c("ingest.rows");
    let events = c("sim.events");
    set(&mut v, "sim.events", events);
    let dispatch_ns = replay_sim(gen::COLLECTOR_CHANNELS, &[60_000]);
    set(&mut v, "sim.dispatch_ns", dispatch_ns);
    set(&mut v, "sim.busy_s", dispatch_ns * events / 1e9);
    set(&mut v, "ingest.rows", rows);
    set(
        &mut v,
        "ingest.batches_flushed",
        c("ingest.batches_flushed"),
    );
    set(
        &mut v,
        "ingest.rows_per_batch",
        ratio(rows, c("ingest.batches_flushed")),
    );
    set(&mut v, "ingest.append_ns", ratio(o.write_s * 1e9, rows));
    set(&mut v, "ingest.evicted_rows", c("ingest.evicted_rows"));
    set(&mut v, "ingest.store_bytes_per_row", o.store_bytes_per_row);
    let mut scan_ms = o.scan_ms.clone();
    set_percentiles(&mut v, "ingest.scan_ms", 90, &mut scan_ms);
    set(&mut v, "ingest.scan_returned_share", o.rows_scanned_share);
    for (format, secs, n) in o.export {
        set(
            &mut v,
            &format!("ingest.export_{format}_ns_per_row"),
            ratio(secs * 1e9, n as f64),
        );
    }
    let scan_s: f64 = o.scan_ms.iter().sum::<f64>() / 1e3;
    let export_s: f64 = o.export.iter().map(|e| e.1).sum();
    set(&mut v, "ingest.busy_s", o.write_s + scan_s + export_s);
    let mut window_ms = o.tracer.millis("append x20k");
    set_percentiles(&mut v, "run.window_ms", 90, &mut window_ms);
    set(
        &mut v,
        "run.failed_share",
        ratio(o.record.failed as f64, o.record.attempted as f64),
    );
    v
}

/// Fills in what only the parent can know, from the three passes of a
/// traced run: tracing and observability overhead against the plain
/// pass, pass B's counters, and how much of the plain pass's measured
/// host time the layers' `busy_s` add up to.
pub fn finish(
    layer: &mut Values,
    plain_measured_s: f64,
    traced_measured_s: f64,
    obs: Option<&Values>,
) {
    set(
        layer,
        "trace.overhead_ratio",
        ratio(traced_measured_s - plain_measured_s, plain_measured_s),
    );
    if let Some(obs) = obs {
        let o = |name: &str| obs.get(name).copied().unwrap_or(0.0);
        set(
            layer,
            "obs.overhead_ratio",
            ratio(o("measured_s") - plain_measured_s, plain_measured_s),
        );
        set(layer, "obs.events_recorded", o("obs_events_recorded"));
        set(layer, "obs.ring_dropped", o("obs_ring_dropped"));
        set(layer, "obs.metric_rows", o("obs_metric_rows"));
        set(layer, "tail.detections", o("obs_tail_detections"));
        set(layer, "scheduler.tasks_run", o("obs_scheduler_tasks"));
    }
    let busy: f64 = layer
        .iter()
        .filter(|(name, _)| name.ends_with(".busy_s"))
        .map(|(_, v)| *v)
        .sum();
    set(
        layer,
        "layers.explained_ratio",
        ratio(busy, plain_measured_s),
    );
    set(layer, "layers.unexplained_s", plain_measured_s - busy);
}
