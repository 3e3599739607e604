use std::collections::hash_map::{Entry, HashMap};
use std::hash::BuildHasherDefault;
use std::sync::{Arc, Mutex, OnceLock};

use rand::rngs::StdRng;
use rand::SeedableRng;
use rand_distr::{Distribution, LogNormal};

use crate::hash::KeyHasher;

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

/// Factors a lane's table entry holds. A default run draws one per stage
/// service plus one ahead, 35 tasks × 9 stages + 1 = 316 for the deepest
/// builtin app, so a default run never leaves the prefix; a long run
/// (3 000-task lanes) reads the prefix and then draws live.
const LANE_DRAWS: usize = 512;

/// Lanes the table keeps, first come first kept, never evicted: the Fig. 2
/// loop's K ≤ 20 candidates plus its baselines and a plan service's
/// evaluation lanes all run on lane seeds `seed + index`, far below 64.
/// A lane past the cap draws live, so the table is at most
/// `MAX_LANES × LANE_DRAWS × 8` bytes (256 KiB) of factors.
const MAX_LANES: usize = 64;

/// A table entry: the first [`LANE_DRAWS`] factors of a lane's stream and
/// the model positioned after them.
type Lane = (Arc<[f64]>, NoiseModel);

/// The DES's noise streams, keyed by `(sigma bits, seed)`. Seeds are lane
/// indices, so a cold solve's 12 runs draw 3 streams and every autotune
/// sweep redraws lanes `0..K`; drawing each once per process removes the
/// sampler (a normal draw and an `exp` per factor) from every later run.
#[derive(Debug, Default)]
pub(crate) struct LaneTable {
    lanes: HashMap<(u64, u64), Lane, BuildHasherDefault<KeyHasher>>,
}

impl LaneTable {
    /// The process-wide table every DES tree reads.
    fn global() -> &'static Mutex<LaneTable> {
        static TABLE: OnceLock<Mutex<LaneTable>> = OnceLock::new();
        TABLE.get_or_init(|| {
            Mutex::new(LaneTable {
                lanes: HashMap::with_capacity_and_hasher(MAX_LANES, Default::default()),
            })
        })
    }

    /// `live`'s stream for lane `key`: from the table when the lane is
    /// there or fits, live past the cap.
    fn lane(&mut self, key: (u64, u64), mut live: NoiseModel) -> LaneNoise {
        let full = self.lanes.len() >= MAX_LANES;
        let (prefix, live) = match self.lanes.entry(key) {
            Entry::Occupied(lane) => lane.into_mut(),
            Entry::Vacant(_) if full => return LaneNoise::live(live),
            Entry::Vacant(lane) => {
                let prefix = (0..LANE_DRAWS).map(|_| live.factor()).collect();
                lane.insert((prefix, live))
            }
        };
        LaneNoise {
            prefix: Some(Arc::clone(prefix)),
            next: 0,
            live: live.clone(),
        }
    }
}

/// One DES tree's noise stream, factor for factor `NoiseModel::new(sigma,
/// seed)`'s: the lane's shared prefix, then live draws.
#[derive(Debug)]
pub(crate) struct LaneNoise {
    prefix: Option<Arc<[f64]>>,
    /// The next prefix index; past the prefix, `live` draws.
    next: usize,
    live: NoiseModel,
}

impl LaneNoise {
    /// The stream of `NoiseModel::new(sigma, seed)`, through the
    /// process-wide lane table (one lookup per tree).
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or not finite.
    pub(crate) fn new(sigma: f64, seed: u64) -> LaneNoise {
        LaneNoise::through(LaneTable::global(), sigma, seed)
    }

    /// The stream through `table`. The model is validated before the
    /// lock, so a bad `sigma` cannot poison the table; without noise the
    /// table is never touched.
    fn through(table: &Mutex<LaneTable>, sigma: f64, seed: u64) -> LaneNoise {
        let live = NoiseModel::new(sigma, seed);
        if sigma == 0.0 {
            return LaneNoise::live(live);
        }
        (table.lock().expect("lane table lock")).lane((sigma.to_bits(), seed), live)
    }

    fn live(live: NoiseModel) -> LaneNoise {
        LaneNoise {
            prefix: None,
            next: 0,
            live,
        }
    }

    /// Draws the next multiplicative noise factor.
    pub(crate) fn factor(&mut self) -> f64 {
        if let Some(&f) = self.prefix.as_deref().and_then(|p| p.get(self.next)) {
            self.next += 1;
            return f;
        }
        self.live.factor()
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

    /// `n` draws of `factor`, as bit patterns.
    fn drawn(n: usize, mut factor: impl FnMut() -> f64) -> Vec<u64> {
        (0..n).map(|_| factor().to_bits()).collect()
    }

    #[test]
    fn a_lane_replays_its_noise_model_across_the_prefix() {
        let table = Mutex::new(LaneTable::default());
        for sigma in [0.02, 0.3] {
            for seed in [0, 1, (1 << 40) + 7] {
                let mut model = NoiseModel::new(sigma, seed);
                let want = drawn(2 * LANE_DRAWS, || model.factor());
                // The first tree builds the lane; the second reads it.
                for _ in 0..2 {
                    let mut lane = LaneNoise::through(&table, sigma, seed);
                    assert_eq!(drawn(2 * LANE_DRAWS, || lane.factor()), want);
                }
            }
        }
        assert_eq!(table.lock().unwrap().lanes.len(), 6);
    }

    #[test]
    fn a_lane_past_the_cap_draws_live() {
        let table = Mutex::new(LaneTable::default());
        for seed in 0..MAX_LANES as u64 {
            LaneNoise::through(&table, 0.05, seed);
        }
        let late = MAX_LANES as u64 + 3;
        let mut model = NoiseModel::new(0.05, late);
        let want = drawn(LANE_DRAWS + 10, || model.factor());
        let mut lane = LaneNoise::through(&table, 0.05, late);
        assert!(lane.prefix.is_none(), "past the cap a lane is live");
        assert_eq!(drawn(LANE_DRAWS + 10, || lane.factor()), want);
        let lanes = &table.lock().unwrap().lanes;
        assert_eq!(lanes.len(), MAX_LANES);
        assert!(!lanes.contains_key(&(0.05f64.to_bits(), late)));
    }

    #[test]
    fn no_noise_never_touches_the_table() {
        let table = Mutex::new(LaneTable::default());
        let mut lane = LaneNoise::through(&table, 0.0, 7);
        assert!((0..2 * LANE_DRAWS).all(|_| lane.factor() == 1.0));
        assert!(table.lock().unwrap().lanes.is_empty());
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
