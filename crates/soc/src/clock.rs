use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, LogNormal};

use bt_rt::Micros;

/// The virtual clock driving a discrete-event simulation.
///
/// Monotonic by construction: [`SimClock::advance_to`] refuses to move
/// backwards, mirroring the paper's use of monotonic hardware timers
/// (`cntvct_el0` on ARM64).
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    now: Micros,
}

impl SimClock {
    /// A clock starting at time zero.
    pub fn new() -> SimClock {
        SimClock { now: Micros::ZERO }
    }

    /// Current virtual time.
    pub fn now(&self) -> Micros {
        self.now
    }

    /// Advances the clock to `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is earlier than the current time.
    pub fn advance_to(&mut self, t: Micros) {
        assert!(t >= self.now, "virtual clock must be monotonic");
        self.now = t;
    }
}

/// Multiplicative measurement-noise model for simulated timings.
///
/// Real measurements on edge devices jitter even after the paper's
/// mitigations (30-rep averaging, warmup, affinity pinning). We model the
/// residual as log-normal multiplicative noise with median 1, which keeps
/// simulated timings positive and mildly right-skewed like real latency
/// distributions. Deterministic per seed.
///
/// ```
/// use bt_soc::NoiseModel;
/// let mut n = NoiseModel::new(0.03, 42);
/// let f = n.factor();
/// assert!(f > 0.8 && f < 1.2);
/// ```
#[derive(Debug, Clone)]
pub struct NoiseModel {
    dist: Option<LogNormal<f64>>,
    rng: StdRng,
}

impl NoiseModel {
    /// Creates a noise model with log-scale standard deviation `sigma`,
    /// seeded deterministically. `sigma == 0` disables noise.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or not finite.
    pub fn new(sigma: f64, seed: u64) -> NoiseModel {
        assert!(sigma >= 0.0 && sigma.is_finite(), "sigma must be >= 0");
        NoiseModel {
            dist: if sigma > 0.0 {
                Some(LogNormal::new(0.0, sigma).expect("validated sigma"))
            } else {
                None
            },
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// A noiseless model (every factor is exactly 1.0).
    pub fn disabled() -> NoiseModel {
        NoiseModel::new(0.0, 0)
    }

    /// Draws the next multiplicative noise factor.
    pub fn factor(&mut self) -> f64 {
        match &self.dist {
            Some(d) => d.sample(&mut self.rng),
            None => 1.0,
        }
    }

    /// Applies noise to a duration.
    pub fn perturb(&mut self, t: Micros) -> Micros {
        t * self.factor()
    }

    /// Draws a uniform value in `[0, 1)` from the same stream (used for
    /// tie-breaking decisions that should be reproducible).
    pub fn uniform(&mut self) -> f64 {
        self.rng.gen()
    }
}

/// Derives a stable 64-bit seed from a list of labels and a salt, so every
/// (device, application, schedule) combination gets its own reproducible
/// noise stream. FNV-1a; stability across runs is all that matters here.
pub fn seed_from_labels(labels: &[&str], salt: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ salt;
    for label in labels {
        for b in label.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h ^= 0xff;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotonic() {
        let mut c = SimClock::new();
        c.advance_to(Micros::new(5.0));
        assert_eq!(c.now().as_f64(), 5.0);
    }

    #[test]
    #[should_panic(expected = "monotonic")]
    fn clock_rejects_backwards() {
        let mut c = SimClock::new();
        c.advance_to(Micros::new(5.0));
        c.advance_to(Micros::new(4.0));
    }

    #[test]
    fn noise_is_deterministic_per_seed() {
        let mut a = NoiseModel::new(0.05, 7);
        let mut b = NoiseModel::new(0.05, 7);
        for _ in 0..10 {
            assert_eq!(a.factor(), b.factor());
        }
    }

    #[test]
    fn noise_differs_across_seeds() {
        let mut a = NoiseModel::new(0.05, 7);
        let mut b = NoiseModel::new(0.05, 8);
        let va: Vec<f64> = (0..4).map(|_| a.factor()).collect();
        let vb: Vec<f64> = (0..4).map(|_| b.factor()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn disabled_noise_is_identity() {
        let mut n = NoiseModel::disabled();
        let t = Micros::new(123.0);
        assert_eq!(n.perturb(t), t);
        assert_eq!(n.factor(), 1.0);
    }

    #[test]
    fn noise_centered_near_one() {
        let mut n = NoiseModel::new(0.03, 99);
        let mean: f64 = (0..2000).map(|_| n.factor()).sum::<f64>() / 2000.0;
        assert!((mean - 1.0).abs() < 0.01, "mean was {mean}");
    }

    #[test]
    fn seed_from_labels_is_stable_and_sensitive() {
        let a = seed_from_labels(&["pixel", "octree"], 1);
        let b = seed_from_labels(&["pixel", "octree"], 1);
        let c = seed_from_labels(&["pixel", "alexnet"], 1);
        let d = seed_from_labels(&["pixel", "octree"], 2);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }
}
