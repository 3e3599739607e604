use rand::rngs::StdRng;
use rand::SeedableRng;
use rand_distr::{Distribution, LogNormal};

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

    /// Draws the next multiplicative noise factor.
    pub fn factor(&mut self) -> f64 {
        match &self.dist {
            Some(d) => d.sample(&mut self.rng),
            None => 1.0,
        }
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
