//! The 2G/3G cellular modem: an RRC state machine with tail energy.
//!
//! The paper (§4.7, Figure 3) describes the modem exactly as modelled here:
//! a transmission triggers a ramp-up (channel negotiation with the cell
//! tower, ~2 s), data flows in the high-power DCH state, the modem then
//! lingers in DCH for a *tail* (~6 s on KPN), drops to the medium-power
//! FACH state for a much longer tail (~53.5 s on KPN), and finally returns
//! to idle. Tail durations are carrier policy, which is why Table 3 runs
//! the experiment on the three major Dutch carriers.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::{Rc, Weak};

use pogo_sim::{EventId, Sim, SimDuration, SimTime};

use crate::energy::{EnergyMeter, RailId};

/// RRC state of the modem.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RadioState {
    /// Low-power idle (paging only).
    Idle,
    /// Negotiating a dedicated channel (the "ramp-up" before data flows).
    RampUp,
    /// Dedicated channel: full power, data can flow.
    Dch,
    /// Shared forward-access channel: medium power, no bulk data.
    Fach,
}

impl std::fmt::Display for RadioState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            RadioState::Idle => "IDLE",
            RadioState::RampUp => "RAMP",
            RadioState::Dch => "DCH",
            RadioState::Fach => "FACH",
        };
        f.write_str(s)
    }
}

/// Carrier-specific RRC timing and power parameters.
///
/// The three constructors correspond to the carriers measured in Table 3;
/// tail lengths are taken from Figure 3 (KPN) and calibrated for the other
/// two so that baseline hourly energy reproduces the paper's ordering
/// (KPN > Vodafone > T-Mobile).
#[derive(Debug, Clone, PartialEq)]
pub struct CarrierProfile {
    /// Carrier name as printed in Table 3.
    pub name: String,
    /// Idle → DCH channel negotiation time.
    pub ramp_up: SimDuration,
    /// FACH → DCH promotion time (much cheaper than a cold ramp-up).
    pub fach_promote: SimDuration,
    /// Time spent in DCH after the last byte before demotion to FACH.
    pub dch_tail: SimDuration,
    /// Time spent in FACH before returning to idle.
    pub fach_tail: SimDuration,
    /// Average idle draw including paging duty cycle, watts.
    pub idle_power: f64,
    /// Draw during ramp-up/promotion, watts.
    pub ramp_power: f64,
    /// Draw in DCH, watts.
    pub dch_power: f64,
    /// Draw in FACH, watts.
    pub fach_power: f64,
    /// Uplink goodput, bytes/second.
    pub up_bytes_per_sec: f64,
    /// Downlink goodput, bytes/second.
    pub down_bytes_per_sec: f64,
    /// Minimum time any transfer occupies DCH.
    pub min_transfer: SimDuration,
}

impl CarrierProfile {
    /// KPN: the long-tail carrier of Figure 3 (≈6 s DCH + ≈53.5 s FACH).
    pub fn kpn() -> Self {
        CarrierProfile {
            name: "KPN".to_owned(),
            ramp_up: SimDuration::from_millis(2_000),
            fach_promote: SimDuration::from_millis(500),
            dch_tail: SimDuration::from_millis(6_000),
            fach_tail: SimDuration::from_millis(53_500),
            idle_power: 0.002,
            ramp_power: 0.50,
            dch_power: 0.65,
            fach_power: 0.258,
            up_bytes_per_sec: 120_000.0,
            down_bytes_per_sec: 400_000.0,
            min_transfer: SimDuration::from_millis(200),
        }
    }

    /// T-Mobile NL: shortest tails, lowest hourly baseline in Table 3.
    pub fn t_mobile() -> Self {
        CarrierProfile {
            dch_tail: SimDuration::from_millis(4_000),
            fach_tail: SimDuration::from_millis(28_000),
            ..Self::named_like_kpn("T-Mobile")
        }
    }

    /// Vodafone NL: mid-length tails.
    pub fn vodafone() -> Self {
        CarrierProfile {
            dch_tail: SimDuration::from_millis(5_000),
            fach_tail: SimDuration::from_millis(32_500),
            ..Self::named_like_kpn("Vodafone")
        }
    }

    fn named_like_kpn(name: &str) -> Self {
        CarrierProfile {
            name: name.to_owned(),
            ..Self::kpn()
        }
    }

    /// All three Table 3 carriers, in the paper's row order.
    pub fn all() -> Vec<CarrierProfile> {
        vec![Self::kpn(), Self::t_mobile(), Self::vodafone()]
    }

    fn power_for(&self, state: RadioState) -> f64 {
        match state {
            RadioState::Idle => self.idle_power,
            RadioState::RampUp => self.ramp_power,
            RadioState::Dch => self.dch_power,
            RadioState::Fach => self.fach_power,
        }
    }
}

type StateListener = Rc<dyn Fn(RadioState, SimTime)>;

struct Transfer {
    tx: u64,
    rx: u64,
    done: Box<dyn FnOnce()>,
}

struct Inner {
    sim: Sim,
    meter: EnergyMeter,
    rail: RailId,
    profile: CarrierProfile,
    state: RadioState,
    /// Pending demotion or ramp-up completion event.
    timer: Option<EventId>,
    /// What `timer` runs, one closure each for the modem's life,
    /// scheduled shared: ramp-up or promotion done, DCH tail over, FACH
    /// tail over.
    on_ramped: Rc<dyn Fn()>,
    on_dch_tail_end: Rc<dyn Fn()>,
    on_fach_tail_end: Rc<dyn Fn()>,
    /// True while a transfer occupies DCH.
    transferring: bool,
    queue: VecDeque<Transfer>,
    tx_total: u64,
    rx_total: u64,
    ramp_ups: u64,
    listeners: Vec<StateListener>,
    /// Render discrete paging spikes while idle (Figure 3's "small
    /// spikes before a and after d"). Off by default: long simulations
    /// fold the duty cycle into `idle_power` instead.
    idle_spikes: bool,
    spike_high: bool,
}

impl Inner {
    fn enter(&mut self, state: RadioState) -> Vec<StateListener> {
        self.state = state;
        self.meter
            .set_power(self.rail, self.profile.power_for(state));
        self.listeners.clone()
    }

    fn clear_timer(&mut self) {
        if let Some(t) = self.timer.take() {
            self.sim.cancel(t);
        }
    }

    /// Arms `timer` to run `callback`, one of the three above, in `delay`.
    fn set_timer(&mut self, delay: SimDuration, callback: Rc<dyn Fn()>) {
        let at = self.sim.now() + delay;
        self.timer = Some(self.sim.schedule_shared_at(at, callback));
    }
}

/// The simulated cellular modem. Cheap to clone; clones share state.
///
/// Transfers are queued and processed serially; each transfer's completion
/// callback fires when its last byte has been sent, which is when the
/// interface byte counters (visible to Pogo's tail detector) advance.
#[derive(Clone)]
pub struct CellularModem {
    inner: Rc<RefCell<Inner>>,
}

impl std::fmt::Debug for CellularModem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("CellularModem")
            .field("carrier", &inner.profile.name)
            .field("state", &inner.state)
            .field("tx_total", &inner.tx_total)
            .field("rx_total", &inner.rx_total)
            .field("ramp_ups", &inner.ramp_ups)
            .finish()
    }
}

impl CellularModem {
    /// Creates an idle modem on the given carrier.
    pub fn new(sim: &Sim, meter: &EnergyMeter, profile: CarrierProfile) -> Self {
        let rail = meter.register("modem-3g");
        meter.set_power(rail, profile.idle_power);
        CellularModem {
            inner: Rc::new_cyclic(|weak: &Weak<RefCell<Inner>>| {
                let timer_callback = |step: fn(&CellularModem)| -> Rc<dyn Fn()> {
                    let weak = weak.clone();
                    Rc::new(move || {
                        if let Some(inner) = weak.upgrade() {
                            step(&CellularModem { inner });
                        }
                    })
                };
                RefCell::new(Inner {
                    sim: sim.clone(),
                    meter: meter.clone(),
                    rail,
                    profile,
                    state: RadioState::Idle,
                    timer: None,
                    on_ramped: timer_callback(CellularModem::begin_transfer),
                    on_dch_tail_end: timer_callback(CellularModem::demote_to_fach),
                    on_fach_tail_end: timer_callback(CellularModem::demote_to_idle),
                    transferring: false,
                    queue: VecDeque::new(),
                    tx_total: 0,
                    rx_total: 0,
                    ramp_ups: 0,
                    listeners: Vec::new(),
                    idle_spikes: false,
                    spike_high: false,
                })
            }),
        }
    }

    /// Current RRC state.
    pub fn state(&self) -> RadioState {
        self.inner.borrow().state
    }

    /// Carrier profile in use.
    pub fn profile(&self) -> CarrierProfile {
        self.inner.borrow().profile.clone()
    }

    /// Interface byte counters `(tx, rx)` — what Pogo's tail detector polls
    /// (the Android `TrafficStats` equivalent).
    pub fn byte_counters(&self) -> (u64, u64) {
        let inner = self.inner.borrow();
        (inner.tx_total, inner.rx_total)
    }

    /// Number of cold ramp-ups (idle → DCH) so far: each one implies a full
    /// tail was paid. The batching ablation compares this across policies.
    pub fn ramp_ups(&self) -> u64 {
        self.inner.borrow().ramp_ups
    }

    /// True while the modem is in a high- or medium-power state, i.e. data
    /// sent *now* rides an already-paid-for tail.
    pub fn is_tail_open(&self) -> bool {
        self.inner.borrow().state != RadioState::Idle
    }

    /// Registers a state-transition listener (used for the Figure 4
    /// timeline and by tests).
    pub fn on_state_change(&self, f: impl Fn(RadioState, SimTime) + 'static) {
        self.inner.borrow_mut().listeners.push(Rc::new(f));
    }

    /// Enables discrete paging-cycle spikes while idle — the "small
    /// spikes before a and after d" visible in Figure 3's trace. Costs an
    /// event every 1.28 s of idle time, so leave it off for multi-day
    /// runs (the average draw is already part of
    /// [`CarrierProfile::idle_power`]).
    pub fn enable_idle_spikes(&self) {
        {
            let mut inner = self.inner.borrow_mut();
            if inner.idle_spikes {
                return;
            }
            inner.idle_spikes = true;
        }
        self.spike_tick();
    }

    /// One edge of the paging duty cycle: 20 ms at elevated draw every
    /// 1.28 s (the UMTS paging interval), only while idle.
    fn spike_tick(&self) {
        let (sim, next_delay) = {
            let mut inner = self.inner.borrow_mut();
            if !inner.idle_spikes {
                return;
            }
            let sim = inner.sim.clone();
            if inner.state != RadioState::Idle {
                inner.spike_high = false;
                // Idle again later; check on the paging cadence.
                (sim, SimDuration::from_millis(1_280))
            } else if inner.spike_high {
                inner.spike_high = false;
                inner.meter.set_power(inner.rail, inner.profile.idle_power);
                (sim, SimDuration::from_millis(1_260))
            } else {
                inner.spike_high = true;
                inner
                    .meter
                    .set_power(inner.rail, inner.profile.idle_power + 0.12);
                (sim, SimDuration::from_millis(20))
            }
        };
        let me = self.clone();
        sim.schedule_in(next_delay, move || me.spike_tick());
    }

    /// Queues a transfer of `tx` uplink and `rx` downlink bytes; `done`
    /// fires when the last byte moves (counters advance at that point).
    pub fn transmit(&self, tx: u64, rx: u64, done: impl FnOnce() + 'static) {
        {
            let mut inner = self.inner.borrow_mut();
            inner.queue.push_back(Transfer {
                tx,
                rx,
                done: Box::new(done),
            });
        }
        self.kick();
    }

    // ---- state machine ---------------------------------------------------

    /// Starts moving queued data if the modem is not already doing so.
    fn kick(&self) {
        let notify = {
            let mut inner = self.inner.borrow_mut();
            if inner.transferring || inner.queue.is_empty() {
                None
            } else {
                match inner.state {
                    RadioState::Idle => {
                        inner.ramp_ups += 1;
                        inner.clear_timer();
                        let notify = inner.enter(RadioState::RampUp);
                        let (delay, ramped) = (inner.profile.ramp_up, inner.on_ramped.clone());
                        inner.set_timer(delay, ramped);
                        Some(notify)
                    }
                    RadioState::Fach => {
                        inner.clear_timer();
                        let notify = inner.enter(RadioState::RampUp);
                        let (delay, ramped) = (inner.profile.fach_promote, inner.on_ramped.clone());
                        inner.set_timer(delay, ramped);
                        Some(notify)
                    }
                    RadioState::Dch => {
                        // Tail still open: cancel the pending demotion and
                        // transfer immediately.
                        inner.clear_timer();
                        drop(inner);
                        self.begin_transfer();
                        return;
                    }
                    RadioState::RampUp => None, // already heading to DCH
                }
            }
        };
        self.notify(notify);
    }

    fn begin_transfer(&self) {
        let notify = {
            let mut inner = self.inner.borrow_mut();
            inner.timer = None;
            let Some(transfer) = inner.queue.pop_front() else {
                // Ramp-up completed with nothing to send (all cancelled):
                // start the DCH tail immediately.
                drop(inner);
                self.start_dch_tail();
                return;
            };
            let notify = if inner.state != RadioState::Dch {
                Some(inner.enter(RadioState::Dch))
            } else {
                None
            };
            inner.transferring = true;
            let p = &inner.profile;
            let secs =
                transfer.tx as f64 / p.up_bytes_per_sec + transfer.rx as f64 / p.down_bytes_per_sec;
            let duration = SimDuration::from_secs_f64(secs).max(p.min_transfer);
            let me = self.clone();
            let sim = inner.sim.clone();
            sim.schedule_in(duration, move || me.complete_transfer(transfer));
            notify
        };
        self.notify(notify);
    }

    fn complete_transfer(&self, transfer: Transfer) {
        {
            let mut inner = self.inner.borrow_mut();
            inner.transferring = false;
            inner.tx_total += transfer.tx;
            inner.rx_total += transfer.rx;
        }
        (transfer.done)();
        let more = !self.inner.borrow().queue.is_empty();
        if more {
            self.begin_transfer();
        } else {
            self.start_dch_tail();
        }
    }

    fn start_dch_tail(&self) {
        let notify = {
            let mut inner = self.inner.borrow_mut();
            inner.clear_timer();
            let notify = if inner.state != RadioState::Dch {
                Some(inner.enter(RadioState::Dch))
            } else {
                None
            };
            let (delay, tail_end) = (inner.profile.dch_tail, inner.on_dch_tail_end.clone());
            inner.set_timer(delay, tail_end);
            notify
        };
        self.notify(notify);
    }

    fn demote_to_fach(&self) {
        let notify = {
            let mut inner = self.inner.borrow_mut();
            inner.timer = None;
            if inner.state != RadioState::Dch || inner.transferring {
                return;
            }
            let notify = inner.enter(RadioState::Fach);
            let (delay, tail_end) = (inner.profile.fach_tail, inner.on_fach_tail_end.clone());
            inner.set_timer(delay, tail_end);
            Some(notify)
        };
        self.notify(notify);
    }

    fn demote_to_idle(&self) {
        let notify = {
            let mut inner = self.inner.borrow_mut();
            inner.timer = None;
            if inner.state != RadioState::Fach {
                return;
            }
            Some(inner.enter(RadioState::Idle))
        };
        self.notify(notify);
    }

    fn notify(&self, listeners: Option<Vec<StateListener>>) {
        if let Some(listeners) = listeners {
            let (state, now) = {
                let inner = self.inner.borrow();
                (inner.state, inner.sim.now())
            };
            for l in listeners {
                l(state, now);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    fn setup(profile: CarrierProfile) -> (Sim, EnergyMeter, CellularModem) {
        let sim = Sim::new();
        let meter = EnergyMeter::new(&sim);
        let modem = CellularModem::new(&sim, &meter, profile);
        (sim, meter, modem)
    }

    #[test]
    fn full_state_cycle_on_kpn() {
        let (sim, _meter, modem) = setup(CarrierProfile::kpn());
        let log: Rc<RefCell<Vec<(RadioState, u64)>>> = Rc::new(RefCell::new(Vec::new()));
        let l = log.clone();
        modem.on_state_change(move |s, t| l.borrow_mut().push((s, t.as_millis())));

        modem.transmit(1_000, 0, || {});
        sim.run_until_idle();

        // ramp at 0, DCH at 2000, transfer ends 2200 (min 200ms),
        // FACH at 2200+6000=8200, idle at 8200+53500=61700.
        assert_eq!(
            *log.borrow(),
            vec![
                (RadioState::RampUp, 0),
                (RadioState::Dch, 2_000),
                (RadioState::Fach, 8_200),
                (RadioState::Idle, 61_700),
            ]
        );
        assert_eq!(modem.ramp_ups(), 1);
    }

    #[test]
    fn counters_advance_at_transfer_completion() {
        let (sim, _meter, modem) = setup(CarrierProfile::kpn());
        modem.transmit(5_000, 20_000, || {});
        sim.run_until(SimTime::from_millis(1_999));
        assert_eq!(modem.byte_counters(), (0, 0), "nothing during ramp-up");
        sim.run_until_idle();
        assert_eq!(modem.byte_counters(), (5_000, 20_000));
    }

    #[test]
    fn completion_callback_fires_once_bytes_move() {
        let (sim, _meter, modem) = setup(CarrierProfile::kpn());
        let done_at: Rc<Cell<Option<u64>>> = Rc::new(Cell::new(None));
        let d = done_at.clone();
        let s = sim.clone();
        modem.transmit(1_000, 0, move || d.set(Some(s.now().as_millis())));
        sim.run_until_idle();
        assert_eq!(done_at.get(), Some(2_200));
    }

    #[test]
    fn data_during_tail_reuses_channel_without_new_ramp() {
        let (sim, _meter, modem) = setup(CarrierProfile::kpn());
        modem.transmit(1_000, 0, || {});
        // First transfer done at 2.2 s; DCH tail open until 8.2 s.
        let m = modem.clone();
        sim.schedule_at(SimTime::from_millis(5_000), move || {
            assert_eq!(m.state(), RadioState::Dch);
            m.transmit(1_000, 0, || {});
        });
        sim.run_until_idle();
        assert_eq!(modem.ramp_ups(), 1, "second transfer rode the tail");
        assert_eq!(modem.byte_counters().0, 2_000);
    }

    #[test]
    fn data_during_fach_promotes_without_cold_ramp() {
        let (sim, _meter, modem) = setup(CarrierProfile::kpn());
        modem.transmit(1_000, 0, || {});
        // FACH from 8.2 s to 61.7 s.
        let m = modem.clone();
        let done = Rc::new(Cell::new(false));
        let d = done.clone();
        sim.schedule_at(SimTime::from_millis(30_000), move || {
            assert_eq!(m.state(), RadioState::Fach);
            m.transmit(500, 0, move || d.set(true));
        });
        sim.run_until_idle();
        assert!(done.get());
        assert_eq!(modem.ramp_ups(), 1);
    }

    #[test]
    fn queued_transfers_processed_serially() {
        let (sim, _meter, modem) = setup(CarrierProfile::kpn());
        let order: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(Vec::new()));
        for i in 0..3 {
            let o = order.clone();
            modem.transmit(1_000, 0, move || o.borrow_mut().push(i));
        }
        sim.run_until_idle();
        assert_eq!(*order.borrow(), vec![0, 1, 2]);
        assert_eq!(modem.ramp_ups(), 1, "one ramp covers the whole queue");
    }

    #[test]
    fn tail_energy_matches_closed_form() {
        let (sim, meter, modem) = setup(CarrierProfile::kpn());
        modem.transmit(1_000, 0, || {});
        sim.run_for(SimDuration::from_mins(5));
        let p = modem.profile();
        let expected = p.ramp_power * 2.0
            + p.dch_power * 0.2          // min transfer
            + p.dch_power * 6.0          // DCH tail
            + p.fach_power * 53.5        // FACH tail
            + p.idle_power * (300.0 - 61.7);
        let got = meter.total_joules();
        assert!(
            (got - expected).abs() < 1e-6,
            "got {got}, expected {expected}"
        );
    }

    #[test]
    fn carriers_differ_only_in_tails() {
        let kpn = CarrierProfile::kpn();
        let tmo = CarrierProfile::t_mobile();
        let vod = CarrierProfile::vodafone();
        assert!(kpn.fach_tail > vod.fach_tail && vod.fach_tail > tmo.fach_tail);
        assert_eq!(kpn.dch_power, tmo.dch_power);
        assert_eq!(kpn.ramp_up, vod.ramp_up);
    }

    #[test]
    fn is_tail_open_tracks_states() {
        let (sim, _meter, modem) = setup(CarrierProfile::t_mobile());
        assert!(!modem.is_tail_open());
        modem.transmit(100, 0, || {});
        sim.run_until(SimTime::from_millis(3_000));
        assert!(modem.is_tail_open());
        sim.run_until_idle();
        assert!(!modem.is_tail_open());
    }

    #[test]
    fn idle_spikes_render_duty_cycle_without_breaking_totals() {
        let (sim, meter, modem) = setup(CarrierProfile::kpn());
        meter.start_trace();
        modem.enable_idle_spikes();
        sim.run_for(SimDuration::from_secs(10));
        let trace = meter.take_trace();
        // ~7 paging cycles in 10 s; each contributes a visible spike.
        let spikes = trace.points().iter().filter(|&&(_, w)| w > 0.1).count();
        assert!((6..=9).contains(&spikes), "spikes {spikes}");
        // Energy: idle floor + 20 ms × 0.12 W per cycle.
        let expected = 10.0 * 0.002 + spikes as f64 * 0.020 * 0.12;
        let got = meter.total_joules();
        assert!((got - expected).abs() < 0.01, "got {got} want {expected}");
        // Spikes pause during transmission.
        modem.transmit(1_000, 0, || {});
        sim.run_until(sim.now() + SimDuration::from_secs(4));
        assert_eq!(modem.state(), RadioState::Dch);
    }

    #[test]
    fn long_transfer_duration_scales_with_bytes() {
        let (sim, _meter, modem) = setup(CarrierProfile::kpn());
        let done_at: Rc<Cell<Option<u64>>> = Rc::new(Cell::new(None));
        let d = done_at.clone();
        let s = sim.clone();
        // 1.2 MB uplink at 120 kB/s = 10 s.
        modem.transmit(1_200_000, 0, move || d.set(Some(s.now().as_millis())));
        sim.run_until_idle();
        assert_eq!(done_at.get(), Some(2_000 + 10_000));
    }
}
