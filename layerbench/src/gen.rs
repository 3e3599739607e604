//! Seeded input generation: everything a workload feeds the program is a
//! pure function of `--seed`, produced here and handed over as plain data.

/// SplitMix64 — small, fast, and good enough to drive permutations, Zipf
/// draws and random latency matrices.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` from the top 53 bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias at these sizes is far
    /// below anything the benchmark resolves.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }
}

/// Zipf(`s`) over ranks `0..n` by inverse-CDF lookup.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf over no items");
        let weights: Vec<f64> = (1..=n).map(|k| (k as f64).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut SplitMix) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// FNV-1a over a byte stream; the digest function for op streams and for
/// every reference value in `benchmark/reference.json`.
#[derive(Debug, Clone)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Fnv {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Fnv {
        self.bytes(&v.to_le_bytes())
    }

    /// Hashes the exact bit pattern, so two floats digest equal only if
    /// they are the same number to the last bit.
    pub fn f64(&mut self, v: f64) -> &mut Fnv {
        self.u64(v.to_bits())
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of a string (used for `Deployment` debug renderings).
pub fn digest_str(s: &str) -> u64 {
    Fnv::default().bytes(s.as_bytes()).finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_seed_sensitive() {
        let a: Vec<u64> = {
            let mut r = SplitMix::new(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix::new(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = SplitMix::new(8);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Reference value of the published SplitMix64 for seed 0.
        assert_eq!(SplitMix::new(0).next_u64(), 0xe220_a839_7b1d_cdaf);
    }

    #[test]
    fn permutation_covers_every_index_once() {
        let mut p = SplitMix::new(3).permutation(13);
        assert_ne!(p, (0..13).collect::<Vec<_>>(), "seed 3 shuffles");
        p.sort_unstable();
        assert_eq!(p, (0..13).collect::<Vec<_>>());
    }

    #[test]
    fn zipf_is_deterministic_skewed_and_in_range() {
        let z = Zipf::new(128, 1.0);
        let draw = |seed| {
            let mut r = SplitMix::new(seed);
            (0..20_000).map(|_| z.sample(&mut r)).collect::<Vec<_>>()
        };
        let a = draw(1);
        assert_eq!(a, draw(1));
        assert!(a.iter().all(|&k| k < 128));
        let count = |k| a.iter().filter(|&&x| x == k).count() as f64;
        // Rank 0 carries 1/H(128) ≈ 18.4 % of the mass, rank 1 half that.
        assert!((count(0) / 20_000.0 - 0.184).abs() < 0.02);
        assert!((count(0) / count(1) - 2.0).abs() < 0.25);
    }

    #[test]
    fn digests_are_stable() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(digest_str(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest_str("a"), 0xaf63_dc4c_8601_ec8c);
        let mut f = Fnv::default();
        f.u64(1).f64(0.5);
        let mut g = Fnv::default();
        g.u64(1).f64(0.5);
        assert_eq!(f.finish(), g.finish());
        g.f64(-0.0);
        f.f64(0.0);
        assert_ne!(f.finish(), g.finish(), "bit patterns, not values");
    }
}
