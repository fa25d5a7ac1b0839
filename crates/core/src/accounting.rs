//! Per-script resource accounting — the paper's first future-work item
//! (§6: "we would like to implement power modelling to estimate the
//! resource consumption of individual scripts").
//!
//! Every framework→script invocation already runs under the watchdog's
//! instruction budget; the host additionally records how much of the
//! budget each call consumed. Combined with the calibrated interpreter
//! rate and the CPU's awake power, that yields a defensible per-script
//! CPU-energy estimate, and the publish counters attribute network
//! payload bytes to their producing script.

use crate::host::ScriptHost;

/// Interpreter steps per second of phone CPU time — the same calibration
/// constant behind [`crate::WATCHDOG_BUDGET`].
pub const STEPS_PER_SECOND: f64 = 100_000_000.0;

/// Resource usage of one script, as measured by its host.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceReport {
    /// Script name.
    pub script: String,
    /// Callbacks delivered (subscription events + timers).
    pub callbacks: u64,
    /// Interpreter steps consumed across all callbacks.
    pub steps: u64,
    /// Messages the script published.
    pub publishes: u64,
    /// Bytes of published payloads (JSON size), the script's share of
    /// any upload volume.
    pub published_bytes: u64,
    /// Watchdog kills.
    pub watchdog_trips: u64,
}

impl ResourceReport {
    /// Estimated CPU seconds consumed by this script's code.
    pub fn est_cpu_seconds(&self) -> f64 {
        self.steps as f64 / STEPS_PER_SECOND
    }

    /// Estimated CPU energy in joules at the given awake power draw
    /// (default Galaxy-Nexus calibration: 0.14 W).
    pub fn est_cpu_joules(&self, awake_power_watts: f64) -> f64 {
        self.est_cpu_seconds() * awake_power_watts
    }
}

/// Builds a report from a script host's counters.
pub fn report_for(host: &ScriptHost) -> ResourceReport {
    ResourceReport {
        script: host.name(),
        callbacks: host.callbacks_run(),
        steps: host.steps_used(),
        publishes: host.publishes(),
        published_bytes: host.published_bytes(),
        watchdog_trips: host.watchdog_trips(),
    }
}

/// Renders a set of reports as a small table (the future "per-script
/// power view" a deployment dashboard would show).
pub fn render(reports: &[ResourceReport]) -> String {
    let mut out = String::from(
        "script                callbacks       steps  publishes      bytes  cpu-est\n",
    );
    for r in reports {
        out.push_str(&format!(
            "{:<20} {:>10} {:>11} {:>10} {:>10}  {:.4} J\n",
            r.script,
            r.callbacks,
            r.steps,
            r.publishes,
            r.published_bytes,
            r.est_cpu_joules(0.14),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::Broker;
    use crate::host::{FrozenSlot, LogStore};
    use crate::scheduler::Scheduler;
    use crate::value::Msg;
    use pogo_platform::{Cpu, CpuConfig, EnergyMeter};
    use pogo_sim::{Sim, SimDuration};

    fn setup() -> (Sim, Broker, Scheduler) {
        let sim = Sim::new();
        let meter = EnergyMeter::new(&sim);
        let cpu = Cpu::new(&sim, &meter, CpuConfig::default());
        std::mem::forget(cpu.acquire_wake_lock());
        (sim, Broker::new(), Scheduler::new(&cpu))
    }

    #[test]
    fn accounts_steps_and_publishes_per_script() {
        let (sim, broker, sched) = setup();
        let heavy = ScriptHost::new(
            "heavy.js",
            &broker,
            &sched,
            FrozenSlot::new(),
            LogStore::new(),
        );
        heavy
            .load(
                "subscribe('in', function (m) {
                     var s = 0;
                     for (var i = 0; i < 1000; i++) s += i;
                     publish('out', { s: s });
                 });",
            )
            .unwrap();
        let light = ScriptHost::new(
            "light.js",
            &broker,
            &sched,
            FrozenSlot::new(),
            LogStore::new(),
        );
        light
            .load("subscribe('in', function (m) { publish('out', 1); });")
            .unwrap();

        for _ in 0..5 {
            broker.publish("in", &Msg::Null);
        }
        sim.run_for(SimDuration::from_secs(10));

        let heavy_report = report_for(&heavy);
        let light_report = report_for(&light);
        assert_eq!(heavy_report.callbacks, 5);
        assert_eq!(light_report.callbacks, 5);
        assert_eq!(heavy_report.publishes, 5);
        assert!(heavy_report.published_bytes > 0);
        assert!(
            heavy_report.steps > light_report.steps * 20,
            "the loop dominates: {} vs {}",
            heavy_report.steps,
            light_report.steps
        );
        assert!(heavy_report.est_cpu_seconds() > 0.0);
        assert!(heavy_report.est_cpu_joules(0.14) > 0.0);
    }

    #[test]
    fn load_cost_is_attributed_too() {
        let (_sim, broker, sched) = setup();
        let host = ScriptHost::new(
            "init.js",
            &broker,
            &sched,
            FrozenSlot::new(),
            LogStore::new(),
        );
        host.load("var s = 0; for (var i = 0; i < 500; i++) s += i;")
            .unwrap();
        assert!(report_for(&host).steps > 1_000);
    }

    #[test]
    fn render_lists_every_script() {
        let (_sim, broker, sched) = setup();
        let host = ScriptHost::new("a.js", &broker, &sched, FrozenSlot::new(), LogStore::new());
        host.load("print('x');").unwrap();
        let out = render(&[report_for(&host)]);
        assert!(out.contains("a.js"));
        assert!(out.contains("cpu-est"));
    }
}
