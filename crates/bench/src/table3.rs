//! Table 3 — "Power consumption with- and without Pogo running" on the
//! three Dutch carriers (§5.2).
//!
//! Scenario per the paper: a Galaxy-Nexus-class phone, one e-mail account
//! checked every 5 minutes, all other background services off. With Pogo
//! running, the middleware samples the battery sensor once per minute
//! and — thanks to tail synchronization — "these values were reported in
//! batches of five whenever the e-mail application checked for updates".
//! We measure a steady-state one-hour window.

use std::cell::Cell;
use std::rc::Rc;

use pogo::core::{Msg, Testbed};
use pogo_platform::{CarrierProfile, NetAppConfig, PeriodicNetApp, Phone, PhoneConfig};
use pogo_sim::{Sim, SimDuration, SimTime};

use crate::report;

/// Warm-up before the measured hour (connection setup, deployment).
/// Offset half a minute from the 5-minute check grid so no e-mail check
/// coincides with a window boundary.
const SETTLE: SimDuration = SimDuration::from_millis(630_000);
/// The measured window, as in the paper.
const WINDOW: SimDuration = SimDuration::from_hours(1);

/// One Table 3 row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Carrier name.
    pub carrier: String,
    /// Joules over one hour without Pogo.
    pub without_j: f64,
    /// Joules over one hour with Pogo reporting battery voltage.
    pub with_j: f64,
    /// Paper's numbers for side-by-side printing.
    pub paper_without_j: f64,
    /// Paper's "with Pogo" joules.
    pub paper_with_j: f64,
    /// Extra radio ramp-ups caused by Pogo in the measured hour (should
    /// be zero: every upload rides an e-mail tail).
    pub extra_ramp_ups: i64,
}

impl Row {
    /// Measured relative increase, percent.
    pub(crate) fn increase_pct(&self) -> f64 {
        100.0 * (self.with_j - self.without_j) / self.without_j
    }

    /// Paper's relative increase, percent.
    pub(crate) fn paper_increase_pct(&self) -> f64 {
        100.0 * (self.paper_with_j - self.paper_without_j) / self.paper_without_j
    }
}

/// Measures one configuration; returns `(joules, email_checks,
/// ramp_ups)` over the steady-state window.
pub fn measure(carrier: CarrierProfile, with_pogo: bool) -> (f64, u64, u64) {
    let sim = Sim::new();
    let phone_config = PhoneConfig {
        carrier,
        ..PhoneConfig::default()
    };

    let phone: Phone;
    if with_pogo {
        let mut testbed = Testbed::new(&sim);
        let (device, ph) =
            testbed.add(pogo::core::DeviceSetup::named("galaxy-nexus").phone(phone_config));
        phone = ph;
        // The researcher's side: one subscription to battery voltage,
        // sampled once per minute, across the experiment's devices.
        let ctx = testbed.collector().create_experiment("power");
        ctx.broker().subscribe(
            "battery",
            Msg::obj([("interval", Msg::Num(60_000.0))]),
            |_, _, _| {},
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
    } else {
        phone = Phone::new(&sim, phone_config);
    }
    let email = PeriodicNetApp::install(&phone, NetAppConfig::email());

    // Steady state, then measure the window.
    let start_j = Rc::new(Cell::new(0.0));
    let start_checks = Rc::new(Cell::new(0u64));
    let start_ramps = Rc::new(Cell::new(0u64));
    {
        let (sj, sc, sr) = (start_j.clone(), start_checks.clone(), start_ramps.clone());
        let (meter, email, modem) = (phone.meter().clone(), email.clone(), phone.modem().clone());
        sim.schedule_at(SimTime::ZERO + SETTLE, move || {
            sj.set(meter.total_joules());
            sc.set(email.checks());
            sr.set(modem.ramp_ups());
        });
    }
    sim.run_until(SimTime::ZERO + SETTLE + WINDOW);
    let joules = phone.meter().total_joules() - start_j.get();
    let checks = email.checks() - start_checks.get();
    let ramps = phone.modem().ramp_ups() - start_ramps.get();
    (joules, checks, ramps)
}

/// Runs the full Table 3 sweep.
pub fn run() -> Vec<Row> {
    let paper: [(&str, f64, f64); 3] = [
        ("KPN", 277.59, 288.76),
        ("T-Mobile", 182.05, 194.3),
        ("Vodafone", 205.47, 218.98),
    ];
    CarrierProfile::all()
        .into_iter()
        .map(|profile| {
            let name = profile.name.clone();
            let (without_j, _, ramps_without) = measure(profile.clone(), false);
            let (with_j, _, ramps_with) = measure(profile, true);
            let (paper_without_j, paper_with_j) = paper
                .iter()
                .find(|(n, _, _)| *n == name)
                .map(|&(_, a, b)| (a, b))
                .expect("carrier is one of the paper's three");
            Row {
                carrier: name,
                without_j,
                with_j,
                paper_without_j,
                paper_with_j,
                extra_ramp_ups: ramps_with as i64 - ramps_without as i64,
            }
        })
        .collect()
}

/// Renders the table, paper numbers alongside.
pub fn render(rows: &[Row]) -> String {
    let mut out = report::banner(
        "Table 3 — hourly energy, e-mail every 5 min, Pogo reporting battery voltage",
    );
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.carrier.clone(),
                format!("{:.2} J", r.without_j),
                format!("{:.2} J", r.with_j),
                format!("{:+.2}%", r.increase_pct()),
                format!("{:.2} J", r.paper_without_j),
                format!("{:.2} J", r.paper_with_j),
                format!("{:+.2}%", r.paper_increase_pct()),
                r.extra_ramp_ups.to_string(),
            ]
        })
        .collect();
    out.push_str(&report::table(
        &[
            "Carrier",
            "Without Pogo",
            "With Pogo",
            "Increase",
            "paper w/o",
            "paper w/",
            "paper incr.",
            "extra tails",
        ],
        &cells,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kpn_baseline_matches_papers_scale() {
        let (joules, checks, ramps) = measure(CarrierProfile::kpn(), false);
        assert_eq!(checks, 12, "12 e-mail checks per hour");
        assert_eq!(ramps, 12, "each one pays a cold tail");
        // Paper: 277.59 J. Shape target: same order, within ~15%.
        assert!(
            (235.0..320.0).contains(&joules),
            "KPN hourly baseline {joules:.1} J"
        );
    }

    #[test]
    fn pogo_overhead_is_single_digit_percent_and_tail_free() {
        let profile = CarrierProfile::t_mobile();
        let (without, _, _) = measure(profile.clone(), false);
        let (with, _, ramps_with) = measure(profile, true);
        let increase = 100.0 * (with - without) / without;
        assert!(
            (0.5..10.0).contains(&increase),
            "T-Mobile increase {increase:.2}%"
        );
        assert_eq!(ramps_with, 12, "Pogo never generates its own tail");
    }

    #[test]
    fn with_pogo_metrics_agree_with_the_meters() {
        use pogo::core::{DeviceSetup, ObsConfig, Testbed};

        // The Table 3 "with Pogo" scenario, observability on: the
        // metrics registry must agree with the platform's own meters.
        let sim = Sim::new();
        let mut testbed = Testbed::with_obs(&sim, ObsConfig::on());
        let (device, phone) = testbed.add(DeviceSetup::named("galaxy-nexus"));
        let ctx = testbed.collector().create_experiment("power");
        ctx.broker().subscribe(
            "battery",
            Msg::obj([("interval", Msg::Num(60_000.0))]),
            |_, _, _| {},
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
        sim.run_until(SimTime::ZERO + SETTLE + WINDOW);

        let metrics = testbed.obs().metrics();
        let jid = device.jid();
        let dev = Some(jid.as_str());
        assert_eq!(metrics.counter_for(dev, "net.flushes"), device.flushes());
        assert_eq!(
            metrics.counter_for(dev, "radio.ramp_ups"),
            phone.modem().ramp_ups()
        );
        assert_eq!(
            metrics.counter_for(dev, "sensor.samples.battery"),
            device.sensors().sample_count("battery")
        );
        // Every flush is classified; in steady state they ride tails.
        let hits = metrics.counter_for(dev, "tail.sync.hits");
        let misses = metrics.counter_for(dev, "tail.sync.misses");
        assert_eq!(hits + misses, device.flushes());
        assert!(hits >= misses, "hits {hits} misses {misses}");
        assert!(metrics.counter_for(dev, "cpu.wakeups") > 0);
    }

    #[test]
    fn carrier_ordering_matches_paper() {
        // KPN (longest tails) > Vodafone > T-Mobile.
        let kpn = measure(CarrierProfile::kpn(), false).0;
        let tmo = measure(CarrierProfile::t_mobile(), false).0;
        let vod = measure(CarrierProfile::vodafone(), false).0;
        assert!(
            kpn > vod && vod > tmo,
            "kpn {kpn:.0} vod {vod:.0} tmo {tmo:.0}"
        );
    }
}
