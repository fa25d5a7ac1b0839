//! Figure 4 — "Pogo running alongside an e-mail application": the
//! activity timeline showing the CPU waking for the e-mail alarm, the
//! e-mail transfer, and Pogo's frozen-sleep detector resuming just in
//! time to push its batch inside the already-open radio tail.

use std::cell::RefCell;
use std::rc::Rc;

use pogo::core::{ChannelSchema, DeviceSetup, Msg, Obs, ObsConfig, ScanQuery, Template, Testbed};
use pogo_platform::{NetAppConfig, PeriodicNetApp, RadioState};
use pogo_sim::{Sim, SimDuration, SimTime};

use crate::report;

/// Who did what when.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Actor {
    /// The application CPU (awake intervals).
    Cpu,
    /// The e-mail client (radio activity it triggers).
    Email,
    /// The Pogo middleware (buffer flushes).
    Pogo,
}

/// One timeline event.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Event {
    /// Which component.
    pub actor: Actor,
    /// Seconds from the start of the captured slice.
    pub at_secs: f64,
    /// Human-readable description.
    pub what: String,
}

/// The captured timeline.
#[derive(Debug, Clone, Default)]
pub struct Figure4 {
    /// Ordered events in the slice.
    pub(crate) events: Vec<Event>,
    /// Batch sizes Pogo pushed (the paper: "reported in batches of five").
    pub batch_sizes: Vec<usize>,
    /// Battery samples the collector's sample store ingested over the
    /// whole run (typed `f64` voltages via the channel registry).
    pub battery_samples: usize,
}

/// Captures a 15-minute slice of the Table 3 "with Pogo" scenario.
pub fn run() -> Figure4 {
    run_with(ObsConfig::off()).0
}

/// Same workload, with the observability layer recording: returns the
/// figure plus the testbed-wide [`Obs`] handle so the structured trace
/// can be exported (`pogo-trace --workload fig4`).
pub fn run_traced() -> (Figure4, Obs) {
    run_with(ObsConfig::on())
}

fn run_with(obs_config: ObsConfig) -> (Figure4, Obs) {
    let sim = Sim::new();
    let mut testbed = Testbed::with_obs(&sim, obs_config);
    let (device, phone) = testbed.add(DeviceSetup::named("galaxy-nexus"));
    testbed
        .collector()
        .registry()
        .register_with_params(
            "power",
            "battery",
            Msg::obj([("interval", Msg::Num(60_000.0))]),
            ChannelSchema::new(Template::F64).field("voltage"),
        )
        .expect("battery channel registers");
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

    // Steady state first; then capture 15 minutes.
    let slice_start = SimTime::ZERO + SimDuration::from_mins(12);
    let events: Rc<RefCell<Vec<Event>>> = Rc::new(RefCell::new(Vec::new()));
    let batches: Rc<RefCell<Vec<usize>>> = Rc::new(RefCell::new(Vec::new()));

    let secs_of =
        move |t: SimTime| (t.as_millis() as f64 - slice_start.as_millis() as f64) / 1_000.0;

    {
        let events = events.clone();
        let sim2 = sim.clone();
        phone.cpu().on_state_change(move |awake| {
            events.borrow_mut().push(Event {
                actor: Actor::Cpu,
                at_secs: secs_of(sim2.now()),
                what: if awake {
                    "wakes".into()
                } else {
                    "sleeps".into()
                },
            });
        });
    }
    {
        let events = events.clone();
        phone.modem().on_state_change(move |state, at| {
            let what = match state {
                RadioState::RampUp => "radio ramp-up (e-mail check)",
                RadioState::Dch => "radio DCH (transfer)",
                RadioState::Fach => "radio FACH tail",
                RadioState::Idle => "radio idle",
            };
            events.borrow_mut().push(Event {
                actor: Actor::Email,
                at_secs: secs_of(at),
                what: what.into(),
            });
        });
    }
    {
        let events = events.clone();
        let batches = batches.clone();
        device.on_flush(move |at, batch| {
            let at_secs = secs_of(at);
            events.borrow_mut().push(Event {
                actor: Actor::Pogo,
                at_secs,
                what: format!("detects traffic, pushes batch of {batch}"),
            });
            if at_secs >= 0.0 {
                batches.borrow_mut().push(batch);
            }
        });
    }

    sim.run_until(slice_start + SimDuration::from_mins(15));
    let obs = testbed.obs().clone();
    let mut events = events.borrow().clone();
    events.retain(|e| e.at_secs >= 0.0);
    let batch_sizes = batches.borrow().clone();
    let battery_samples = testbed
        .collector()
        .store()
        .scan(&ScanQuery::exp("power").channel("battery"))
        .len();
    (
        Figure4 {
            events,
            batch_sizes,
            battery_samples,
        },
        obs,
    )
}

/// Renders the timeline.
pub fn render(fig: &Figure4) -> String {
    let mut out =
        report::banner("Figure 4 — Pogo synchronizing with the e-mail app (15-min slice)");
    for e in &fig.events {
        let actor = match e.actor {
            Actor::Cpu => "CPU  ",
            Actor::Email => "email",
            Actor::Pogo => "Pogo ",
        };
        out.push_str(&format!("{:8.1} s  [{actor}] {}\n", e.at_secs, e.what));
    }
    out.push_str(&format!(
        "\nPogo batches pushed: {:?} (paper: batches of five, one per e-mail check)\n",
        fig.batch_sizes
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pogo_pushes_batches_of_five_inside_email_tails() {
        let fig = run();
        // Three e-mail checks in 15 minutes; one Pogo flush each.
        assert_eq!(fig.batch_sizes.len(), 3, "events: {:#?}", fig.events);
        // Battery is sampled once a minute, e-mail checked every five:
        // batches of five, like the paper says.
        for &batch in &fig.batch_sizes {
            assert_eq!(batch, 5);
        }
        // Every delivered sample landed in the typed sample store; the
        // whole run (steady-state warmup + slice) covers at least the
        // slice's batches.
        assert!(
            fig.battery_samples >= fig.batch_sizes.iter().sum::<usize>(),
            "store ingested {} battery samples",
            fig.battery_samples
        );
        // Every Pogo flush happens within seconds of a radio ramp-up.
        let ramp_times: Vec<f64> = fig
            .events
            .iter()
            .filter(|e| e.what.contains("ramp-up"))
            .map(|e| e.at_secs)
            .collect();
        for flush in fig.events.iter().filter(|e| e.actor == Actor::Pogo) {
            let nearest = ramp_times
                .iter()
                .map(|t| (flush.at_secs - t).abs())
                .fold(f64::INFINITY, f64::min);
            assert!(
                nearest < 10.0,
                "flush at {:.1}s rides a tail (nearest ramp {nearest:.1}s away)",
                flush.at_secs
            );
        }
    }

    #[test]
    fn cpu_sleeps_between_checks() {
        let fig = run();
        let sleeps = fig
            .events
            .iter()
            .filter(|e| e.actor == Actor::Cpu && e.what == "sleeps")
            .count();
        assert!(sleeps >= 10, "CPU sleeps after every wake: {sleeps}");
    }

    #[test]
    fn traced_run_matches_the_figure() {
        let (fig, obs) = run_traced();
        let trace = obs.events();

        // Every radio transition the figure saw in its slice appears in
        // the structured trace at the same instant.
        let slice_start_ms = SimDuration::from_mins(12).as_millis() as f64;
        let radio_ms: Vec<f64> = trace
            .iter()
            .filter(|e| e.category.as_ref() == "radio")
            .map(|e| e.at.as_millis() as f64 - slice_start_ms)
            .collect();
        for email in fig.events.iter().filter(|e| e.actor == Actor::Email) {
            let want_ms = email.at_secs * 1_000.0;
            assert!(
                radio_ms.iter().any(|&t| (t - want_ms).abs() < 1.0),
                "figure radio event at {:.1}s missing from obs trace",
                email.at_secs
            );
        }

        // One pogo/flush trace event per batch the figure recorded.
        let flushes = trace
            .iter()
            .filter(|e| e.category.as_ref() == "pogo" && e.name.as_ref() == "flush")
            .filter(|e| e.at.as_millis() as f64 >= slice_start_ms)
            .count();
        assert_eq!(flushes, fig.batch_sizes.len());

        // The Chrome trace built from the same events is valid JSON with
        // complete slices covering the radio dwells.
        let chrome = pogo::obs::export::to_chrome_trace(&trace);
        let parsed = Msg::from_json(&chrome).expect("chrome trace is valid JSON");
        let entries = match parsed.get("traceEvents") {
            Some(Msg::Arr(items)) => items.clone(),
            other => panic!("traceEvents array missing: {other:?}"),
        };
        assert!(
            entries
                .iter()
                .any(|e| e.get("ph").and_then(Msg::as_str) == Some("X")),
            "chrome trace has complete (ph=X) slices"
        );
    }
}
