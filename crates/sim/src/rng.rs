//! Deterministic randomness for workload generation.
//!
//! Every stochastic element of the reproduction — RSSI noise, user
//! schedules, reboot times, network latency jitter — draws from a [`SimRng`]
//! seeded at experiment start, so runs are exactly reproducible.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A seeded random source with the handful of distributions the simulation
/// needs (uniform, Bernoulli, Gaussian via Box–Muller, exponential).
#[derive(Debug, Clone)]
pub struct SimRng {
    rng: SmallRng,
    gauss_spare: Option<f64>,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        SimRng {
            rng: SmallRng::seed_from_u64(seed),
            gauss_spare: None,
        }
    }

    /// Derives an independent child generator; used to give each simulated
    /// user / component its own stream so adding one does not perturb the
    /// others.
    pub fn fork(&mut self, salt: u64) -> SimRng {
        let seed = self.rng.gen::<u64>() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        SimRng::seed_from_u64(seed)
    }

    /// Uniform value in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.rng.gen::<f64>()
    }

    /// Uniform float in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo <= hi, "empty range");
        lo + self.unit() * (hi - lo)
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        self.rng.gen_range(lo..hi)
    }

    /// Uniform index in `[0, len)` — convenience for slice picking.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub fn index(&mut self, len: usize) -> usize {
        assert!(len > 0, "cannot pick from an empty collection");
        self.rng.gen_range(0..len)
    }

    /// Picks a reference to a uniformly random element.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.index(items.len())]
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p.clamp(0.0, 1.0)
    }

    /// Normally distributed value with the given mean and standard
    /// deviation (Box–Muller; `rand_distr` is not in the offline set).
    pub fn gauss(&mut self, mean: f64, std_dev: f64) -> f64 {
        let z = match self.gauss_spare.take() {
            Some(z) => z,
            None => {
                // Avoid ln(0).
                let u1 = loop {
                    let u = self.unit();
                    if u > f64::EPSILON {
                        break u;
                    }
                };
                let u2 = self.unit();
                let r = (-2.0 * u1.ln()).sqrt();
                let theta = 2.0 * std::f64::consts::PI * u2;
                self.gauss_spare = Some(r * theta.sin());
                r * theta.cos()
            }
        };
        mean + std_dev * z
    }

    /// Exponentially distributed value with the given mean (for inter-event
    /// gaps such as reboot arrival times).
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not positive.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "exponential mean must be positive");
        let u = loop {
            let u = self.unit();
            if u > f64::EPSILON {
                break u;
            }
        };
        -mean * u.ln()
    }
}

/// Test hooks: nothing outside this crate's unit tests calls these.
#[cfg(test)]
impl SimRng {
    /// Fisher–Yates shuffle.
    pub(crate) fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.rng.gen_range(0..=i);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from_u64(7);
        let mut b = SimRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.unit(), b.unit());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let same = (0..32).filter(|_| a.unit() == b.unit()).count();
        assert!(same < 4);
    }

    #[test]
    fn forked_streams_are_independent_of_sibling_draws() {
        let mut root1 = SimRng::seed_from_u64(42);
        let mut root2 = SimRng::seed_from_u64(42);
        let mut child1 = root1.fork(5);
        let mut child2 = root2.fork(5);
        assert_eq!(child1.unit(), child2.unit());
    }

    #[test]
    fn range_bounds_respected() {
        let mut rng = SimRng::seed_from_u64(3);
        for _ in 0..1_000 {
            let v = rng.range_f64(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&v));
            let i = rng.range_u64(10, 20);
            assert!((10..20).contains(&i));
        }
    }

    #[test]
    fn gauss_mean_and_spread_are_sane() {
        let mut rng = SimRng::seed_from_u64(11);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.gauss(5.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.1, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.1, "std {}", var.sqrt());
    }

    #[test]
    fn exponential_mean_is_sane() {
        let mut rng = SimRng::seed_from_u64(13);
        let n = 20_000;
        let mean = (0..n).map(|_| rng.exponential(3.0)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.15, "mean {mean}");
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed_from_u64(17);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-3.0));
        assert!(rng.chance(7.0));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SimRng::seed_from_u64(19);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "shuffle should move something");
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn pick_from_empty_panics() {
        let mut rng = SimRng::seed_from_u64(23);
        rng.pick::<u32>(&[]);
    }
}
