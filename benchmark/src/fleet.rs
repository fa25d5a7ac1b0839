//! The three fleet workloads: one runner, three plans.
//!
//! All three stand up `Testbed::new`, stamp a fleet out with
//! `Testbed::add_fleet`, register channels on the collector's registry,
//! warm up, measure a window of lock-step minutes, drain, then scan and
//! export the store. They differ in which layers do the work:
//!
//! * `fleet_localization` — the paper's `scan.js` + `clustering.js` on
//!   every device: the script VM is the workload, the uplink is idle.
//! * `fleet_uplink` — no scripts; accelerometer at 5 s and battery at
//!   60 s through sensor manager → broker → store-and-forward → wire →
//!   switchboard → collector → ingest → store, with 1 % loss per leg so
//!   retransmit and dedup run.
//! * `cohort_tailsync` — §5.2's e-mail app on every phone and Pogo's
//!   default tail-synchronised flush: platform models, scheduler, tail
//!   detector and the timer queue do the work.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

use pogo::glue;
use pogo_core::sensor::SensorSources;
use pogo_core::{ChannelFilter, ChannelSchema, ExperimentSpec, FleetSpec, Msg, ScanQuery, Testbed};
use pogo_net::{Envelope, FlushPolicy, LinkFate, LinkShape};
use pogo_obs::ObsConfig;
use pogo_platform::{CarrierProfile, NetAppConfig, PeriodicNetApp};
use pogo_sim::{Sim, SimDuration};

use crate::collector::EXPORTERS;
use crate::gen;
use crate::metrics::{self, Digest, LogHist, Values};
use crate::report::Record;
use crate::trace::Tracer;

/// Experiment id every workload deploys under.
pub const EXP: &str = "bench";

const MINUTE: SimDuration = SimDuration::from_mins(1);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Localization,
    Uplink,
    Tailsync,
}

/// Fleet size and the three phases, in simulated minutes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    pub devices: usize,
    pub warmup_min: u64,
    pub measured_min: u64,
    pub drain_min: u64,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Localization => "fleet_localization",
            Kind::Uplink => "fleet_uplink",
            Kind::Tailsync => "cohort_tailsync",
        }
    }

    /// The gated size: a quarter of the fleet the workload was designed
    /// at (see `design_scale`), so that a run of several repetitions
    /// fits the driver's time budget. Phase lengths are the design's.
    pub fn scale(self) -> Scale {
        let design = self.design_scale();
        Scale {
            devices: design.devices / 4,
            ..design
        }
    }

    /// The size each workload was designed and prototyped at; reach it
    /// with `--devices`.
    pub fn design_scale(self) -> Scale {
        match self {
            // 60 minutes fill clustering.js's 60-scan window.
            Kind::Localization => Scale {
                devices: 2_000,
                warmup_min: 60,
                measured_min: 120,
                drain_min: 5,
            },
            // The drain leaves room for three 60 s retransmit rounds.
            Kind::Uplink => Scale {
                devices: 2_000,
                warmup_min: 5,
                measured_min: 45,
                drain_min: 10,
            },
            Kind::Tailsync => Scale {
                devices: 1_000,
                warmup_min: 60,
                measured_min: 24 * 60,
                drain_min: 15,
            },
        }
    }

    /// Registered channels with the sensor interval asked for, in ms.
    pub fn channel_list(self) -> &'static [(&'static str, Option<f64>)] {
        match self {
            Kind::Localization => &[("locations", None)],
            Kind::Uplink => &[
                ("accelerometer", Some(5_000.0)),
                ("battery", Some(60_000.0)),
            ],
            Kind::Tailsync => &[("battery", Some(60_000.0))],
        }
    }

    pub fn experiment_spec(self) -> ExperimentSpec {
        match self {
            Kind::Localization => glue::localization_experiment(EXP),
            // No scripts: the empty deployment only enrols the devices,
            // so the registry's subscriptions are mirrored to them.
            Kind::Uplink | Kind::Tailsync => ExperimentSpec {
                id: EXP.into(),
                scripts: vec![],
            },
        }
    }

    fn fleet_spec(self, devices: usize, seed: u64) -> FleetSpec {
        let spec = FleetSpec::new(devices).prefix("phone").seed(seed);
        // Carriers in equal thirds by index rather than by a seeded draw:
        // their tail timers differ, and a draw's share would move the
        // radio figures by several percent from seed to seed.
        let mixed = |spec: FleetSpec| {
            let carriers = [
                CarrierProfile::kpn(),
                CarrierProfile::t_mobile(),
                CarrierProfile::vodafone(),
            ];
            spec.battery_jitter(0.15).phone(move |i, mut phone| {
                phone.carrier = carriers[i % carriers.len()].clone();
                phone
            })
        };
        match self {
            Kind::Localization => mixed(spec)
                .configure(|_, c| {
                    c.with_flush_policy(FlushPolicy::Interval(SimDuration::from_secs(90)))
                })
                .sensors(move |i, _| {
                    let mut walker = gen::Walker::new(seed, i);
                    SensorSources {
                        wifi_scan: Some(Box::new(move |t_ms| Some(walker.scan(t_ms)))),
                        ..SensorSources::default()
                    }
                }),
            Kind::Uplink => mixed(spec)
                .configure(|_, c| {
                    c.with_flush_policy(FlushPolicy::Interval(SimDuration::from_secs(30)))
                })
                .sensors(move |i, _| SensorSources {
                    accelerometer: Some(Box::new(gen::accel_source(seed, i))),
                    ..SensorSources::default()
                }),
            // Default phone (cellular, KPN) and Pogo's default
            // tail-synchronised flush: the paper's Table 3 setting.
            Kind::Tailsync => spec,
        }
    }
}

/// How a pass is run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// No tracing: the end-to-end numbers.
    Plain,
    /// Pass A: spans, per-step timing, envelope capture.
    Traced,
    /// Pass B: the plain run with `ObsConfig::on()`.
    Obs,
}

impl Mode {
    pub fn name(self) -> &'static str {
        match self {
            Mode::Plain => "plain",
            Mode::Traced => "traced",
            Mode::Obs => "obs",
        }
    }
}

/// Fleet-wide sums of the public counters, read at phase boundaries.
#[derive(Debug, Clone, Default)]
struct Snap {
    v: Values,
}

impl Snap {
    fn add(&mut self, name: &str, x: f64) {
        match self.v.get_mut(name) {
            Some(v) => *v += x,
            None => {
                self.v.insert(name.to_owned(), x);
            }
        }
    }

    fn get(&self, name: &str) -> f64 {
        self.v.get(name).copied().unwrap_or(0.0)
    }

    fn pairs(&self) -> Vec<(String, f64)> {
        self.v.iter().map(|(k, v)| (k.clone(), *v)).collect()
    }

    /// `self − earlier`, counter by counter.
    fn since(&self, earlier: &Snap) -> Snap {
        let mut out = Snap::default();
        for (k, v) in &self.v {
            out.v.insert(k.clone(), v - earlier.get(k));
        }
        out
    }
}

struct Rig {
    sim: Sim,
    testbed: Testbed,
    fleet: pogo_core::Fleet,
    email: Vec<PeriodicNetApp>,
    email_tx_bytes: u64,
}

impl Rig {
    fn snapshot(&self) -> Snap {
        let mut s = Snap::default();
        for m in self.fleet.iter() {
            let phone = &m.phone;
            s.add("energy_j", phone.meter().total_joules());
            s.add("tx_bytes", phone.mobile_byte_counters().0 as f64);
            s.add("ramp_ups", phone.modem().ramp_ups() as f64);
            s.add("cpu_wakeups", phone.cpu().wakeups() as f64);
            s.add("cpu_awake_ms", phone.cpu().awake_time().as_millis() as f64);
            let sensors = m.device.sensors();
            for ch in ["wifi-scan", "battery", "accelerometer"] {
                s.add("sensor_samples", sensors.sample_count(ch) as f64);
            }
            s.add("sf_sent", m.device.messages_sent() as f64);
            s.add("sf_flushes", m.device.flushes() as f64);
            s.add("sf_purged", m.device.purged() as f64);
            s.add("sf_buffered", m.device.buffered() as f64);
            if let Some(ctx) = m.device.context(EXP) {
                s.add("broker_publishes", ctx.broker().published_count() as f64);
                for host in ctx.scripts() {
                    s.add("script_callbacks", host.callbacks_run() as f64);
                    s.add("script_steps", host.steps_used() as f64);
                    s.add("script_publishes", host.publishes() as f64);
                    s.add("script_watchdog_trips", host.watchdog_trips() as f64);
                    s.add("script_errors", host.errors().len() as f64);
                }
            }
        }
        for app in &self.email {
            s.add("email_checks", app.checks() as f64);
        }
        let collector = self.testbed.collector();
        if let Some(ctx) = collector.context(EXP) {
            s.add("broker_publishes", ctx.broker().published_count() as f64);
        }
        let stats = collector.stats();
        s.add("collector_data_received", stats.data_received as f64);
        s.add(
            "collector_schema_mismatches",
            stats.ingest.schema_mismatches as f64,
        );
        s.add("collector_errors_logged", stats.errors_logged as f64);
        s.add("ingest_rows", stats.ingest.ingested_rows as f64);
        s.add(
            "ingest_batches_flushed",
            stats.ingest.batches_flushed as f64,
        );
        s.add("switchboard_routed", self.testbed.server().routed() as f64);
        s.add(
            "switchboard_dropped",
            self.testbed.server().dropped() as f64,
        );
        s.add("sim_events", self.sim.executed() as f64);
        s
    }

    /// Messages waiting in the fleet's store-and-forward buffers.
    fn buffered(&self) -> usize {
        self.fleet.iter().map(|m| m.device.buffered()).sum()
    }

    /// Samples each device has created so far on the registered
    /// channels: sensor samples, or `locations` published by
    /// `clustering.js`.
    fn created(&self, kind: Kind) -> Vec<u64> {
        self.fleet
            .iter()
            .map(|m| match kind {
                Kind::Localization => m
                    .device
                    .context(EXP)
                    .map(|ctx| {
                        ctx.scripts()
                            .iter()
                            .filter(|h| h.name() == "clustering.js")
                            .map(|h| h.publishes())
                            .sum()
                    })
                    .unwrap_or(0),
                Kind::Uplink | Kind::Tailsync => {
                    let sensors = m.device.sensors();
                    kind.channel_list()
                        .iter()
                        .map(|(ch, _)| sensors.sample_count(ch))
                        .sum()
                }
            })
            .collect()
    }
}

/// What the collector-side listener learns about deliveries.
#[derive(Default)]
struct Deliveries {
    /// Per device: samples delivered that were created no later than the
    /// end of the measured window (`locations` carry no creation time;
    /// every delivery counts, which is exact because a device's buffer
    /// drains in order on a loss-free link).
    before_end: Vec<u64>,
    /// Age at ingestion, in ms, of samples arriving inside the window.
    ages_ms: Vec<f64>,
    window: (u64, u64),
    unparsed: u64,
}

/// `phone-<i>@pogo` → `i`.
fn device_index(jid: &str) -> Option<usize> {
    jid.strip_prefix("phone-")?.split('@').next()?.parse().ok()
}

/// The instant a sample was created, from the sample itself:
/// `timestamp` on `battery`, the cluster's `exit` on `locations`, and on
/// `accelerometer` the `x` the benchmark's source wrote.
fn created_ms(channel: &str, msg: &Msg) -> Option<f64> {
    let field = match channel {
        "battery" => "timestamp",
        "locations" => "exit",
        "accelerometer" => "x",
        _ => return None,
    };
    msg.get(field).and_then(Msg::as_num)
}

/// Envelopes seen on the collector's link during a traced pass.
#[derive(Default)]
pub struct Captured {
    /// Set for the measured window only.
    active: bool,
    pub envelopes: u64,
    pub bytes: u64,
    /// Bytes of the data payloads alone (no acks, no envelope overhead).
    pub data_bytes: u64,
    /// A bounded sample, for the layer replays.
    pub sample: Vec<Envelope>,
}

/// Rows one timed read round covers at least (see the read loop).
const READ_ROUND_ROWS: usize = 50_000;

/// Keep at most this many envelopes for replay.
const ENVELOPE_SAMPLE: usize = 20_000;

/// Everything one pass over a fleet workload yields: the record the
/// parent reads, plus what only the layer tables need.
pub struct Outcome {
    pub kind: Kind,
    pub scale: Scale,
    pub seed: u64,
    pub record: Record,
    pub window_ms: Vec<f64>,
    pub rss_kb: RssMarks,
    pub scan_secs: Vec<f64>,
    pub scan_rows: u64,
    /// Seconds per export call, per round, in `EXPORTERS` order.
    pub export_secs: [Vec<f64>; 3],
    pub store_bytes: u64,
    // Traced passes only.
    pub tracer: Tracer,
    pub steps: LogHist,
    pub captured: Captured,
}

#[derive(Debug, Clone, Copy, Default)]
pub struct RssMarks {
    pub start: u64,
    pub booted: u64,
    pub end: u64,
    pub peak: u64,
}

/// Fleet-wide sums of the `tail.detections` and `scheduler.tasks`
/// counters of an enabled `Obs` (pass B). They exist nowhere else: no
/// public accessor reaches a testbed device's `TailDetector` or
/// `Scheduler`.
fn obs_counters(obs: &pogo_obs::Obs) -> (u64, u64) {
    let mut sums = (0, 0);
    for row in obs.metrics().snapshot() {
        if let pogo_obs::Metric::Counter(n) = row.metric {
            match row.name.as_str() {
                "tail.detections" => sums.0 += n,
                "scheduler.tasks" => sums.1 += n,
                _ => {}
            }
        }
    }
    sums
}

/// One lock-step minute driven by `Sim::step`, each step timed. A
/// sentinel event ends the loop; `run_until` then sweeps any event that
/// shares the sentinel's instant, so the execution order is that of the
/// untraced `run_lockstep`.
fn stepped_minute(sim: &Sim, hist: &mut LogHist) {
    let deadline = sim.now() + MINUTE;
    let hit = Rc::new(Cell::new(false));
    let flag = hit.clone();
    sim.schedule_at(deadline, move || flag.set(true));
    let mut last = Instant::now();
    while !hit.get() && sim.step() {
        let now = Instant::now();
        hist.record((now - last).as_nanos() as u64);
        last = now;
    }
    sim.run_until(deadline);
}

pub fn run(kind: Kind, scale: Scale, seed: u64, mode: Mode) -> Outcome {
    let mut tracer = Tracer::new(mode == Mode::Traced);
    let mut steps = LogHist::default();
    let mut rss = RssMarks {
        start: metrics::vm_rss_kb(),
        ..RssMarks::default()
    };
    let mut problems = Vec::new();

    // ---- set-up: everything up to the start of the measured window ----
    let t_setup = Instant::now();
    let sim = Sim::new();
    let mut testbed = match mode {
        Mode::Obs => Testbed::with_obs(&sim, ObsConfig::on()),
        _ => Testbed::new(&sim),
    };
    testbed
        .server()
        .reseed_link_rng(gen::stream_seed(seed, gen::LINK_LOSS, 0));

    let sp = tracer.begin("Testbed::add_fleet");
    let fleet = testbed.add_fleet(kind.fleet_spec(scale.devices, seed));
    tracer.end(sp);
    rss.booted = metrics::vm_rss_kb();

    let captured = Rc::new(RefCell::new(Captured::default()));
    if mode == Mode::Traced {
        // Every envelope to or from the collector crosses this hook; it
        // always delivers, so the simulation is unchanged.
        let cap = captured.clone();
        testbed
            .server()
            .set_link_chaos(&testbed.collector().jid(), move |env| {
                let mut cap = cap.borrow_mut();
                if cap.active {
                    cap.envelopes += 1;
                    cap.bytes += env.wire_size();
                    cap.data_bytes += env.data().map_or(0, |d| d.len() as u64);
                    if cap.sample.len() < ENVELOPE_SAMPLE {
                        cap.sample.push(env.clone());
                    }
                }
                LinkFate::Deliver
            });
    }

    let sp = tracer.begin("registry.register");
    for (channel, interval) in kind.channel_list() {
        let params = match interval {
            Some(ms) => Msg::obj([("interval", Msg::Num(*ms))]),
            None => Msg::Null,
        };
        testbed
            .collector()
            .registry()
            .register_with_params(EXP, channel, params, ChannelSchema::json())
            .expect("fresh channel registers");
    }
    tracer.end(sp);

    let deliveries = Rc::new(RefCell::new(Deliveries {
        before_end: vec![0; scale.devices],
        ..Deliveries::default()
    }));
    {
        let d = deliveries.clone();
        testbed
            .collector()
            .attach_listener(ChannelFilter::exp(EXP), move |ev| {
                let mut d = d.borrow_mut();
                let created = created_ms(ev.channel, ev.msg);
                let (Some(i), Some(created)) = (device_index(ev.device), created) else {
                    d.unparsed += 1;
                    return;
                };
                let at = ev.at.as_millis();
                let (start, end) = d.window;
                if ev.channel == "locations" || created <= end as f64 {
                    d.before_end[i] += 1;
                }
                if at >= start && at < end {
                    d.ages_ms.push(at as f64 - created);
                }
            });
    }

    let sp = tracer.begin("Deployment::send");
    testbed
        .collector()
        .deployment(&kind.experiment_spec())
        .to(&fleet.jids())
        .send()
        .expect("the paper's scripts pass pre-deployment analysis");
    tracer.end(sp);

    let mut email = Vec::new();
    let mut email_tx_bytes = 0;
    if kind == Kind::Tailsync {
        let cfg = NetAppConfig::email();
        email_tx_bytes = cfg.tx_bytes;
        for (i, m) in fleet.iter().enumerate() {
            let offset = gen::email_offset_ms(seed, i, cfg.period.as_millis());
            email.push(PeriodicNetApp::install(
                &m.phone,
                NetAppConfig {
                    start_offset: SimDuration::from_millis(offset),
                    ..cfg.clone()
                },
            ));
        }
    }
    if kind == Kind::Uplink {
        for jid in fleet.jids() {
            testbed.server().shape_link(
                &jid,
                LinkShape {
                    loss: 0.01,
                    ..LinkShape::default()
                },
            );
        }
    }

    let start_ms = scale.warmup_min * 60_000;
    let end_ms = start_ms + scale.measured_min * 60_000;
    deliveries.borrow_mut().window = (start_ms, end_ms);

    let sp_warm = tracer.begin("warm-up");
    testbed.run_lockstep(MINUTE.mul(scale.warmup_min), MINUTE);
    let setup_s = t_setup.elapsed().as_secs_f64();

    let rig = Rig {
        sim,
        testbed,
        fleet,
        email,
        email_tx_bytes,
    };
    let at_start = rig.snapshot();
    tracer.end_with(sp_warm, at_start.pairs());
    let created_by_start: u64 = rig.created(kind).iter().sum();
    let obs_at_start = obs_counters(rig.testbed.obs());
    captured.borrow_mut().active = true;

    // ---- the measured window -------------------------------------------
    let mut window_ms = Vec::with_capacity(scale.measured_min as usize);
    // Peaks are sampled at the minute boundaries.
    let mut pending_peak = rig.sim.pending();
    let mut buffered_peak = rig.buffered();
    let sp_measured = tracer.begin("measured window");
    let t_measured = Instant::now();
    for _ in 0..scale.measured_min {
        let t = Instant::now();
        let sp = tracer.begin("run_lockstep window");
        if mode == Mode::Traced {
            stepped_minute(&rig.sim, &mut steps);
        } else {
            rig.testbed.run_lockstep(MINUTE, MINUTE);
        }
        tracer.end(sp);
        window_ms.push(t.elapsed().as_secs_f64() * 1e3);
        pending_peak = pending_peak.max(rig.sim.pending());
        buffered_peak = buffered_peak.max(rig.buffered());
    }
    let measured_s = t_measured.elapsed().as_secs_f64();
    captured.borrow_mut().active = false;
    let at_end = rig.snapshot();
    tracer.end_with(sp_measured, at_end.since(&at_start).pairs());
    let created_by_end = rig.created(kind);
    let obs_at_end = obs_counters(rig.testbed.obs());

    // ---- drain, then read the store --------------------------------------
    let sp = tracer.begin("drain");
    rig.testbed
        .run_lockstep(MINUTE.mul(scale.drain_min), MINUTE);
    let at_drained = rig.snapshot();
    tracer.end_with(sp, at_drained.since(&at_end).pairs());

    let sp = tracer.begin("CollectorNode::store");
    let store = rig.testbed.collector().store();
    tracer.end(sp);

    // Read rounds, until enough host time has passed for a steady rate.
    // A round scans the store and exports its rows in each format `reps`
    // times, so that it covers `READ_ROUND_ROWS` rows (once, if the store
    // holds that many), keeping every result alive until the timed calls
    // are over. One scan or export of a thousand rows takes half a
    // millisecond and mostly measures which freed chunks the allocator
    // hands back, which differs by a third from seed to seed.
    let query = ScanQuery::exp(EXP);
    let mut scan_secs = Vec::new();
    let mut export_secs = EXPORTERS.map(|_| Vec::new());
    let mut export_mb_per_s = Vec::new();
    let mut rows = Vec::new();
    let mut texts: Vec<String> = Vec::new();
    let t_read = Instant::now();
    while scan_secs.len() < 3 || (t_read.elapsed().as_secs_f64() < 1.0 && scan_secs.len() < 200) {
        // Free the previous results first: dropping them inside the timed
        // calls, or building a 45 MB export while the last one is still
        // alive, makes later rounds read up to a fifth slower than the
        // first.
        drop(std::mem::take(&mut rows));
        drop(std::mem::take(&mut texts));
        let sp = tracer.begin("SampleStore::scan");
        let t = Instant::now();
        let mut scans = vec![store.scan(&query)];
        let reps = READ_ROUND_ROWS.div_ceil(scans[0].len().max(1));
        while scans.len() < reps {
            scans.push(store.scan(&query));
        }
        scan_secs.push(t.elapsed().as_secs_f64() / reps as f64);
        tracer.end(sp);
        rows = scans.swap_remove(0);
        drop(scans);
        // All three exporters, as `collector_readwrite` rotates them: the
        // rate of one tight loop alone moves by a fifth with where an
        // unrelated rebuild happens to place it. CSV last, so that it is
        // the one left alive for the checks and the digest.
        let (mut bytes, mut secs) = (0, 0.0);
        for (k, (_, span, exporter)) in EXPORTERS.iter().enumerate().rev() {
            drop(std::mem::take(&mut texts));
            let sp = tracer.begin(span);
            let t = Instant::now();
            texts = (0..reps).map(|_| exporter(&rows)).collect();
            let per_call = t.elapsed().as_secs_f64() / reps as f64;
            tracer.end(sp);
            export_secs[k].push(per_call);
            bytes += texts[0].len();
            secs += per_call;
        }
        export_mb_per_s.push(bytes as f64 / 1e6 / secs);
    }
    let scan_rows = rows.len() as u64;
    let csv = texts.swap_remove(0);
    drop(texts);
    let csv_bytes = csv.len() as u64;
    rss.end = metrics::vm_rss_kb();

    // ---- simulated end-to-end metrics --------------------------------------
    let d = deliveries.borrow();
    let win = at_end.since(&at_start);
    let device_hours = scale.devices as f64 * scale.measured_min as f64 / 60.0;
    let email_bytes = win.get("email_checks") * rig.email_tx_bytes as f64;
    let mut ages = d.ages_ms.clone();
    let age = metrics::summarize(&mut ages);
    let mut e2e = Values::new();
    e2e.insert(
        "uplink_bytes_per_device_hour".into(),
        (win.get("tx_bytes") - email_bytes) / device_hours,
    );
    e2e.insert(
        "energy_j_per_device_hour".into(),
        win.get("energy_j") / device_hours,
    );
    e2e.insert(
        "ramp_ups_per_device_day".into(),
        win.get("ramp_ups") / device_hours * 24.0,
    );
    match &age {
        Some(s) => {
            e2e.insert("delivery_age_p50_s".into(), s.p50 / 1e3);
            e2e.insert(
                "delivery_age_p99_s".into(),
                metrics::percentile(&ages, 99.0) / 1e3,
            );
        }
        None => problems.push("no sample reached the store inside the measured window".into()),
    }

    // ---- failures: created before the window closed, absent after drain ----
    let attempted: u64 = created_by_end.iter().sum();
    let undelivered: u64 = created_by_end
        .iter()
        .zip(&d.before_end)
        .map(|(created, delivered)| created.saturating_sub(*delivered))
        .sum();
    let mismatches = at_drained.get("collector_schema_mismatches") as u64;
    let error_lines = at_drained.get("collector_errors_logged") as u64;
    let failed = undelivered + mismatches + error_lines + d.unparsed;
    if attempted == 0 {
        problems.push("no sample was created".into());
    }

    // ---- output checks ---------------------------------------------------
    let delivered_total = at_drained.get("ingest_rows") as u64;
    if scan_rows != delivered_total {
        problems.push(format!(
            "store holds {scan_rows} rows but {delivered_total} were ingested"
        ));
    }
    let mut stored = 0;
    for (channel, _) in kind.channel_list() {
        match store.channel_counters(EXP, channel) {
            Some(c) => stored += c.rows + c.evicted,
            None => problems.push(format!("channel {channel} is not in the store")),
        }
    }
    if stored != delivered_total {
        problems.push(format!(
            "rows + evicted = {stored} differs from {delivered_total} appended"
        ));
    }
    if csv.lines().count() as u64 != scan_rows + 1 {
        problems.push("CSV export does not have one line per row".into());
    }
    if at_drained.get("script_errors") + at_drained.get("script_watchdog_trips") > 0.0 {
        problems.push("a script raised an error or tripped the watchdog".into());
    }
    if (at_drained.get("script_callbacks") > 0.0) != (kind == Kind::Localization) {
        problems.push(format!(
            "script.callbacks = {} on {}",
            at_drained.get("script_callbacks"),
            kind.name()
        ));
    }
    if let Some(bad) = rows.iter().find(|r| !row_is_sane(kind, r)) {
        problems.push(format!("malformed row in the store: {bad:?}"));
    }

    // ---- deterministic counts ---------------------------------------------
    let mut counts = Values::new();
    for (k, v) in &win.v {
        counts.insert(format!("window.{k}"), *v);
    }
    // Sentinel events of a traced pass are the benchmark's, not the
    // simulation's.
    if mode == Mode::Traced {
        *counts.get_mut("window.sim_events").expect("counted") -= scale.measured_min as f64;
    }
    counts.insert("window.delivered_in_window".into(), d.ages_ms.len() as f64);
    counts.insert(
        "window.created".into(),
        (attempted - created_by_start) as f64,
    );
    counts.insert("total.created_by_end".into(), attempted as f64);
    counts.insert("total.undelivered".into(), undelivered as f64);
    counts.insert("total.rows_stored".into(), scan_rows as f64);
    counts.insert("total.csv_bytes".into(), csv_bytes as f64);
    counts.insert("total.sf_purged".into(), at_drained.get("sf_purged"));
    counts.insert(
        "total.sf_buffered_after_drain".into(),
        at_drained.get("sf_buffered"),
    );
    counts.insert(
        "total.switchboard_dropped".into(),
        at_drained.get("switchboard_dropped"),
    );

    let mut digest = Digest::default();
    digest.values(&e2e);
    digest.values(&counts);
    digest.bytes(csv.as_bytes());

    // ---- host end-to-end metrics --------------------------------------------
    let measured_sim_s = scale.measured_min as f64 * 60.0;
    e2e.insert("setup_s".into(), setup_s);
    e2e.insert(
        "sim_speed".into(),
        scale.devices as f64 * measured_sim_s / measured_s,
    );
    e2e.insert(
        "ingest_rows_per_s".into(),
        win.get("ingest_rows") / measured_s,
    );
    e2e.insert(
        "scan_rows_per_s".into(),
        scan_rows as f64 / metrics::median(&scan_secs),
    );
    e2e.insert("export_mb_per_s".into(), metrics::median(&export_mb_per_s));
    rss.peak = metrics::vm_hwm_kb();
    e2e.insert("peak_rss_mb".into(), rss.peak as f64 / 1024.0);

    counts.insert("host.sim_pending_peak".into(), pending_peak as f64);
    counts.insert("host.sf_buffered_peak".into(), buffered_peak as f64);

    let mut info = Values::new();
    info.insert("setup_s".into(), setup_s);
    info.insert("measured_s".into(), measured_s);
    info.insert("devices".into(), scale.devices as f64);
    info.insert("measured_sim_min".into(), scale.measured_min as f64);
    info.insert("delivery_age_n".into(), d.ages_ms.len() as f64);
    info.insert("steps_timed".into(), steps.count() as f64);
    if mode == Mode::Obs {
        let obs = rig.testbed.obs();
        info.insert("obs_events_recorded".into(), obs.recorder().len() as f64);
        info.insert("obs_ring_dropped".into(), obs.recorder().dropped() as f64);
        info.insert(
            "obs_metric_rows".into(),
            obs.metrics().snapshot().len() as f64,
        );
        // Deltas over the measured window.
        info.insert(
            "obs_tail_detections".into(),
            (obs_at_end.0 - obs_at_start.0) as f64,
        );
        info.insert(
            "obs_scheduler_tasks".into(),
            (obs_at_end.1 - obs_at_start.1) as f64,
        );
    }

    let store_bytes = store.bytes();
    drop(d);
    let captured = std::mem::take(&mut *captured.borrow_mut());
    Outcome {
        kind,
        scale,
        seed,
        record: Record {
            workload: kind.name().to_owned(),
            seed,
            mode: mode.name().to_owned(),
            digest: digest.hex(),
            attempted,
            failed,
            problems,
            e2e,
            layer: Values::new(),
            counts,
            info,
        },
        window_ms,
        rss_kb: rss,
        scan_secs,
        scan_rows,
        export_secs,
        store_bytes,
        tracer,
        steps,
        captured,
    }
}

/// A stored row decodes to what its channel carries.
fn row_is_sane(kind: Kind, row: &pogo_ingest::Row) -> bool {
    let pogo_ingest::SampleValue::Json(raw) = &row.value else {
        return false;
    };
    let Ok(msg) = Msg::from_json(raw) else {
        return false;
    };
    let num = |k: &str| msg.get(k).and_then(Msg::as_num);
    let arrived = row.at.as_millis() as f64;
    device_index(&row.device).is_some()
        && match (kind, row.channel.as_str()) {
            (Kind::Localization, "locations") => {
                matches!((num("entry"), num("exit"), num("n")),
                    (Some(entry), Some(exit), Some(n)) if entry <= exit && exit <= arrived && n >= 4.0)
                    && msg.get("rep").and_then(glue::scan_from_msg).is_some()
            }
            (Kind::Uplink, "accelerometer") => {
                matches!((num("x"), num("z")), (Some(x), Some(z)) if x <= arrived && z == 9.81)
            }
            (Kind::Uplink | Kind::Tailsync, "battery") => {
                matches!((num("timestamp"), num("voltage")),
                    (Some(t), Some(v)) if t <= arrived && v > 0.0)
            }
            _ => false,
        }
}
