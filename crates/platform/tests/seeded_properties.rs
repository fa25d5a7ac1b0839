//! Seeded property tests for the phone platform: exact energy
//! integration, radio state-machine invariants, and CPU power ordering.
//! Inputs come from `SimRng`, so the suite runs by default and every
//! failure names its seed.

use std::cell::RefCell;
use std::rc::Rc;

use pogo_platform::{
    CarrierProfile, CellularModem, Cpu, CpuConfig, EnergyMeter, Phone, PhoneConfig, RadioState,
};
use pogo_sim::{Sim, SimDuration, SimRng, SimTime};

const SEEDS: u64 = 200;

/// Arbitrary piecewise-constant schedules on three rails: the total
/// equals the independent per-rail integrals, and is exactly the sum of
/// the breakdown.
#[test]
fn meter_total_equals_sum_of_rails() {
    for seed in 0..SEEDS {
        let mut rng = SimRng::seed_from_u64(seed);
        let sim = Sim::new();
        let meter = EnergyMeter::new(&sim);
        let rails = [
            meter.register("a"),
            meter.register("b"),
            meter.register("c"),
        ];
        let mut expected = [0.0f64; 3];
        let mut levels = [0.0f64; 3];
        for _ in 0..1 + rng.index(39) {
            let (rail, watts) = (rng.index(3), rng.range_f64(0.0, 2.0));
            let dt = SimDuration::from_millis(rng.range_u64(1, 5_000));
            for i in 0..3 {
                expected[i] += levels[i] * dt.as_secs_f64();
            }
            sim.run_for(dt);
            meter.set_power(rails[rail], watts);
            levels[rail] = watts;
        }
        let total: f64 = expected.iter().sum();
        assert!(
            (meter.total_joules() - total).abs() < 1e-9,
            "seed {seed}: {} vs {total}",
            meter.total_joules()
        );
        for i in 0..3 {
            assert!(
                (meter.energy_joules(rails[i]) - expected[i]).abs() < 1e-9,
                "seed {seed} rail {i}"
            );
        }
        let breakdown: f64 = meter.breakdown().iter().map(|(_, j)| j).sum();
        assert_eq!(meter.total_joules(), breakdown, "seed {seed}");
    }
}

/// Any schedule of transfers ends with the modem idle, every byte
/// accounted for, at least one ramp-up, and every ramp-up flowing
/// straight into DCH.
#[test]
fn radio_always_returns_to_idle_and_counts_tails() {
    for seed in 0..SEEDS {
        let mut rng = SimRng::seed_from_u64(seed);
        let sim = Sim::new();
        let meter = EnergyMeter::new(&sim);
        let modem = CellularModem::new(&sim, &meter, CarrierProfile::kpn());
        let transitions: Rc<RefCell<Vec<RadioState>>> = Rc::new(RefCell::new(Vec::new()));
        let tr = transitions.clone();
        modem.on_state_change(move |s, _| tr.borrow_mut().push(s));
        let mut total_bytes = 0u64;
        let mut at = SimTime::ZERO;
        for _ in 0..1 + rng.index(14) {
            at += SimDuration::from_millis(rng.range_u64(0, 200_000));
            let bytes = rng.range_u64(100, 50_000);
            total_bytes += bytes;
            let m = modem.clone();
            sim.schedule_at(at, move || m.transmit(bytes, 0, || {}));
        }
        sim.run_until_idle();
        assert_eq!(modem.state(), RadioState::Idle, "seed {seed}");
        assert_eq!(modem.byte_counters().0, total_bytes, "seed {seed}");
        assert!(modem.ramp_ups() >= 1, "seed {seed}");
        let ts = transitions.borrow();
        for (i, s) in ts.iter().enumerate() {
            if *s == RadioState::RampUp {
                assert_eq!(
                    ts.get(i + 1),
                    Some(&RadioState::Dch),
                    "seed {seed}: ramp-up flows into DCH: {ts:?}"
                );
            }
        }
    }
}

/// Same transfer, longer carrier tails ⇒ strictly more energy.
#[test]
fn radio_energy_monotone_in_tail_length() {
    for seed in 0..SEEDS {
        let bytes = SimRng::seed_from_u64(seed).range_u64(1, 100_000);
        let energy = |profile: CarrierProfile| {
            let sim = Sim::new();
            let meter = EnergyMeter::new(&sim);
            let modem = CellularModem::new(&sim, &meter, profile);
            modem.transmit(bytes, 0, || {});
            sim.run_until_idle();
            sim.run_for(SimDuration::from_mins(2));
            meter.total_joules()
        };
        let kpn = energy(CarrierProfile::kpn());
        let vod = energy(CarrierProfile::vodafone());
        let tmo = energy(CarrierProfile::t_mobile());
        assert!(
            kpn > vod && vod > tmo,
            "seed {seed} ({bytes} B): kpn {kpn} vod {vod} tmo {tmo}"
        );
    }
}

#[test]
fn cpu_awake_time_never_exceeds_wall_time() {
    for seed in 0..SEEDS {
        let mut rng = SimRng::seed_from_u64(seed);
        let alarms: Vec<u64> = (0..rng.index(20))
            .map(|_| rng.range_u64(1, 600_000))
            .collect();
        let sim = Sim::new();
        let meter = EnergyMeter::new(&sim);
        let cpu = Cpu::new(&sim, &meter, CpuConfig::default());
        for at in &alarms {
            cpu.set_alarm(SimTime::from_millis(*at), || {});
        }
        sim.run_for(SimDuration::from_mins(15));
        let awake = cpu.awake_time().as_millis();
        let wall = sim.now().as_millis();
        assert!(awake <= wall, "seed {seed}");
        // Energy bracket: between all-asleep and all-awake.
        let joules = meter.total_joules();
        let lo = 0.008 * wall as f64 / 1_000.0 - 1e-6;
        let hi = 0.140 * wall as f64 / 1_000.0 + 1e-6;
        assert!(
            joules >= lo && joules <= hi,
            "seed {seed}: {lo} <= {joules} <= {hi}"
        );
        assert!(cpu.wakeups() <= alarms.len() as u64, "seed {seed}");
    }
}

#[test]
fn phone_transmit_offline_never_moves_counters() {
    for seed in 0..SEEDS {
        let mut rng = SimRng::seed_from_u64(seed);
        let sim = Sim::new();
        let phone = Phone::new(
            &sim,
            PhoneConfig {
                initial_bearer: None,
                ..PhoneConfig::default()
            },
        );
        for _ in 0..1 + rng.index(9) {
            let result = phone.transmit(rng.range_u64(1, 10_000), 0, || {});
            assert!(result.is_err(), "seed {seed}: offline transmit must fail");
        }
        sim.run_for(SimDuration::from_mins(5));
        assert_eq!(phone.mobile_byte_counters(), (0, 0), "seed {seed}");
        assert_eq!(phone.wifi().byte_counters(), (0, 0), "seed {seed}");
    }
}
