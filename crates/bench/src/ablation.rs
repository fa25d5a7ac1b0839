//! Design-choice ablations.
//!
//! **Batching (§4.7):** the paper argues that flushing on detected
//! foreign tails almost never generates a tail of Pogo's own, unlike
//! sending immediately or on a private timer. We sweep the flush policy
//! in the Table 3 scenario and count energy and Pogo-attributable
//! ramp-ups.
//!
//! **Freeze/thaw (§5.3):** the deployment lost cluster halves to script
//! restarts; the paper's fix is persisting state with `freeze`/`thaw`.
//! We run a disruption-heavy session with the fix off and on and compare
//! Table 4's match percentage.

use std::cell::Cell;
use std::rc::Rc;

use pogo::cluster::{match_clusters, MatchParams};
use pogo::core::{Msg, Testbed};
use pogo::mobility::{Archetype, UserSpec};
use pogo::net::FlushPolicy;
use pogo_platform::{NetAppConfig, PeriodicNetApp};
use pogo_sim::{SimDuration, SimTime};

use crate::report;
use crate::session::run_session;

// ---- batching ----------------------------------------------------------------

/// One batching-policy measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchingRow {
    /// Policy label.
    pub policy: String,
    /// Joules over the steady-state hour.
    pub joules: f64,
    /// Total radio ramp-ups over the hour (the e-mail app alone causes
    /// 12). Note that a policy can be expensive with FEW ramp-ups by
    /// keeping the modem's tail perpetually extended (see `immediate`).
    pub ramp_ups: u64,
    /// Battery readings delivered to the collector in the hour.
    pub delivered: u64,
    /// Mean sample-to-collector latency in seconds (§4.6: "data
    /// gathering applications generally allow for long latencies" — this
    /// is the price paid for the energy savings).
    pub mean_latency_s: f64,
    /// Worst sample-to-collector latency in seconds.
    pub max_latency_s: f64,
}

/// Runs the Table 3 "with Pogo" scenario (KPN) under one flush policy.
pub(crate) fn measure_policy(policy: FlushPolicy, label: &str) -> BatchingRow {
    let sim = pogo_sim::Sim::new();
    let mut testbed = Testbed::new(&sim);
    let (device, phone) = testbed.add(
        pogo::core::DeviceSetup::named("galaxy-nexus")
            .configure(move |c| c.with_flush_policy(policy)),
    );
    let delivered = Rc::new(Cell::new(0u64));
    let latencies: Rc<std::cell::RefCell<Vec<f64>>> = Rc::new(std::cell::RefCell::new(Vec::new()));
    let d = delivered.clone();
    let lat = latencies.clone();
    let lat_sim = sim.clone();
    let ctx = testbed.collector().create_experiment("power");
    ctx.broker().subscribe(
        "battery",
        Msg::obj([("interval", Msg::Num(60_000.0))]),
        move |_, msg, _| {
            d.set(d.get() + 1);
            // Battery messages carry their sample timestamp.
            if let Some(sampled) = msg.get("timestamp").and_then(Msg::as_num) {
                let now_ms = lat_sim.now().as_millis() as f64;
                lat.borrow_mut().push((now_ms - sampled) / 1_000.0);
            }
        },
    );
    testbed
        .collector()
        .deployment(&pogo::core::ExperimentSpec {
            id: "power".into(),
            scripts: vec![],
        })
        .to(&[device.jid()])
        .send()
        .expect("scripts pass pre-deployment analysis");
    let _email = PeriodicNetApp::install(&phone, NetAppConfig::email());

    let settle = SimDuration::from_millis(630_000);
    let start_j = Rc::new(Cell::new(0.0));
    let start_r = Rc::new(Cell::new(0u64));
    let start_d = Rc::new(Cell::new(0u64));
    {
        let (sj, sr, sd) = (start_j.clone(), start_r.clone(), start_d.clone());
        let (meter, modem, del) = (
            phone.meter().clone(),
            phone.modem().clone(),
            delivered.clone(),
        );
        sim.schedule_at(SimTime::ZERO + settle, move || {
            sj.set(meter.total_joules());
            sr.set(modem.ramp_ups());
            sd.set(del.get());
        });
    }
    sim.run_until(SimTime::ZERO + settle + SimDuration::from_hours(1));
    let joules = phone.meter().total_joules() - start_j.get();
    let ramps = phone.modem().ramp_ups() - start_r.get();
    let latencies = latencies.borrow();
    let (mean_latency_s, max_latency_s) = if latencies.is_empty() {
        (f64::NAN, f64::NAN)
    } else {
        (
            latencies.iter().sum::<f64>() / latencies.len() as f64,
            latencies.iter().copied().fold(0.0, f64::max),
        )
    };
    BatchingRow {
        policy: label.to_owned(),
        joules,
        ramp_ups: ramps,
        delivered: delivered.get() - start_d.get(),
        mean_latency_s,
        max_latency_s,
    }
}

/// Sweeps the batching policies (Ablation A).
pub fn run_batching() -> Vec<BatchingRow> {
    vec![
        measure_policy(FlushPolicy::pogo_default(), "tail-sync (Pogo)"),
        measure_policy(
            FlushPolicy::Interval(SimDuration::from_hours(1)),
            "interval 1h",
        ),
        measure_policy(
            FlushPolicy::Interval(SimDuration::from_mins(5)),
            "interval 5min",
        ),
        measure_policy(FlushPolicy::Immediate, "immediate"),
        measure_policy(FlushPolicy::OnCharge, "on-charge (never charges)"),
    ]
}

/// Renders Ablation A.
pub fn render_batching(rows: &[BatchingRow]) -> String {
    let mut out = report::banner("Ablation A — flush policy (Table 3 scenario, KPN, 1 h)");
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.policy.clone(),
                format!("{:.2} J", r.joules),
                r.ramp_ups.to_string(),
                r.delivered.to_string(),
                if r.mean_latency_s.is_nan() {
                    "-".to_owned()
                } else {
                    format!("{:.0} s", r.mean_latency_s)
                },
                if r.max_latency_s.is_nan() {
                    "-".to_owned()
                } else {
                    format!("{:.0} s", r.max_latency_s)
                },
            ]
        })
        .collect();
    out.push_str(&report::table(
        &[
            "Policy",
            "Energy",
            "ramp-ups",
            "delivered",
            "mean latency",
            "max latency",
        ],
        &cells,
    ));
    out
}

// ---- freeze/thaw ----------------------------------------------------------------

/// Result of the freeze ablation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FreezeResult {
    /// Match % without freeze (the paper's deployment).
    pub match_without: f64,
    /// Partial % without freeze.
    pub partial_without: f64,
    /// Match % with the §5.3 fix.
    pub match_with: f64,
    /// Partial % with the fix.
    pub partial_with: f64,
    /// Restarts suffered in each run (same schedule).
    pub restarts: u64,
}

/// Runs a disruption-heavy 6-day session twice (Ablation B).
pub fn run_freeze(days: u64, seed: u64) -> FreezeResult {
    let spec = UserSpec {
        // Reboot roughly daily: plenty of opportunities to lose state.
        reboot_mean_days: 0.8,
        ..UserSpec::new("Ablation", Archetype::Regular, 99)
    };
    let without = run_session(&spec, days, seed, false);
    let with = run_session(&spec, days, seed, true);
    let report_without = match_clusters(&without.truth, &without.collected, MatchParams::default());
    let report_with = match_clusters(&with.truth, &with.collected, MatchParams::default());
    FreezeResult {
        match_without: report_without.match_pct(),
        partial_without: report_without.partial_pct(),
        match_with: report_with.match_pct(),
        partial_with: report_with.partial_pct(),
        restarts: without.reboots,
    }
}

/// Renders Ablation B.
pub fn render_freeze(r: &FreezeResult) -> String {
    let mut out = report::banner("Ablation B — freeze/thaw state preservation (§5.3 fix)");
    out.push_str(&format!(
        "restarts in window : {}\nwithout freeze     : match {:.0}%  partial {:.0}%\nwith freeze        : match {:.0}%  partial {:.0}%\n",
        r.restarts, r.match_without, r.partial_without, r.match_with, r.partial_with,
    ));
    out
}
