//! Seeded property tests for the simulation kernel: the deterministic
//! total order of events, exact cancellation, and time arithmetic.
//! Inputs come from `SimRng`, so the suite runs by default and every
//! failure names its seed.

use std::cell::RefCell;
use std::rc::Rc;

use pogo_sim::{Sim, SimDuration, SimRng, SimTime};

const SEEDS: u64 = 200;

/// `1..max_len` deadlines in `[0, 10 s)`, duplicates likely.
fn deadlines(rng: &mut SimRng, max_len: usize) -> Vec<u64> {
    (0..1 + rng.index(max_len - 1))
        .map(|_| rng.range_u64(0, 10_000))
        .collect()
}

#[test]
fn events_fire_in_time_then_schedule_order() {
    for seed in 0..SEEDS {
        let times = deadlines(&mut SimRng::seed_from_u64(seed), 60);
        let sim = Sim::new();
        let log: Rc<RefCell<Vec<(u64, usize)>>> = Rc::new(RefCell::new(Vec::new()));
        for (seq, &t) in times.iter().enumerate() {
            let (log, sim2) = (log.clone(), sim.clone());
            sim.schedule_at(SimTime::from_millis(t), move || {
                log.borrow_mut().push((sim2.now().as_millis(), seq));
            });
        }
        sim.run_until_idle();
        // Fired order is exactly (time, scheduling sequence).
        let mut expected: Vec<(u64, usize)> =
            times.iter().enumerate().map(|(seq, &t)| (t, seq)).collect();
        expected.sort();
        assert_eq!(*log.borrow(), expected, "seed {seed}");
    }
}

#[test]
fn cancellation_is_exact() {
    for seed in 0..SEEDS {
        let mut rng = SimRng::seed_from_u64(seed);
        let times = deadlines(&mut rng, 40);
        let sim = Sim::new();
        let fired: Rc<RefCell<Vec<usize>>> = Rc::new(RefCell::new(Vec::new()));
        let mut kept = Vec::new();
        let ids: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(seq, &t)| {
                let fired = fired.clone();
                sim.schedule_at(SimTime::from_millis(t), move || {
                    fired.borrow_mut().push(seq);
                })
            })
            .collect();
        for (seq, id) in ids.into_iter().enumerate() {
            if rng.chance(0.5) {
                assert!(sim.cancel(id), "seed {seed}: first cancel succeeds");
                assert!(!sim.cancel(id), "seed {seed}: second cancel fails");
            } else {
                kept.push(seq);
            }
        }
        sim.run_until_idle();
        let mut got = fired.borrow().clone();
        got.sort_unstable();
        assert_eq!(got, kept, "seed {seed}");
    }
}

/// Running to `split` then to the end is the same as running once: every
/// event fires exactly once, in the same global order.
#[test]
fn run_until_partitions_time() {
    for seed in 0..SEEDS {
        let mut rng = SimRng::seed_from_u64(seed);
        let times = deadlines(&mut rng, 40);
        let split = rng.range_u64(0, 10_000);
        let run_split = |at: Option<u64>| {
            let sim = Sim::new();
            let log: Rc<RefCell<Vec<usize>>> = Rc::new(RefCell::new(Vec::new()));
            for (seq, &t) in times.iter().enumerate() {
                let log = log.clone();
                sim.schedule_at(SimTime::from_millis(t), move || {
                    log.borrow_mut().push(seq);
                });
            }
            if let Some(at) = at {
                sim.run_until(SimTime::from_millis(at));
            }
            sim.run_until(SimTime::from_millis(20_000));
            let fired = log.borrow().clone();
            fired
        };
        let whole = run_split(None);
        assert_eq!(whole.len(), times.len(), "seed {seed}");
        assert_eq!(run_split(Some(split)), whole, "seed {seed} split {split}");
    }
}

#[test]
fn rng_streams_are_reproducible() {
    for seed in (0..SEEDS).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15)) {
        let mut a = SimRng::seed_from_u64(seed);
        let mut b = SimRng::seed_from_u64(seed);
        for _ in 0..50 {
            assert_eq!(a.unit().to_bits(), b.unit().to_bits(), "seed {seed}");
            assert_eq!(a.gauss(0.0, 1.0).to_bits(), b.gauss(0.0, 1.0).to_bits());
            assert_eq!(a.range_u64(0, 100), b.range_u64(0, 100));
        }
    }
}

#[test]
fn duration_arithmetic_is_consistent() {
    for seed in 0..SEEDS {
        let mut rng = SimRng::seed_from_u64(seed);
        let (a, b) = (rng.range_u64(0, 1_000_000), rng.range_u64(0, 1_000_000));
        let da = SimDuration::from_millis(a);
        let db = SimDuration::from_millis(b);
        assert_eq!((da + db).as_millis(), a + b, "seed {seed}");
        assert_eq!(da.saturating_sub(db).as_millis(), a.saturating_sub(b));
        assert_eq!(da.min(db).as_millis(), a.min(b));
        assert_eq!(da.max(db).as_millis(), a.max(b));
        let t = SimTime::from_millis(a) + db;
        assert_eq!(t.as_millis(), a + b);
        assert_eq!(t.duration_since(SimTime::from_millis(a)), db);
    }
}
