//! The content-addressed plan cache.
//!
//! A plan's identity is the content that went into solving it: the device
//! model hash, the (scaled) app signature, the profiling-table signature,
//! and the objective. [`PlanKey`] mixes those four 64-bit hashes into one
//! 128-bit key; the cache is a plain `RwLock<HashMap>` from keys to
//! `Arc`-shared [`PlanArtifact`]s. A key is already well mixed, so the map
//! hashes it with bt-soc's multiplicative [`KeyHasher`] (two multiplies)
//! rather than SipHash.
//!
//! Keys are derived when a serving cell's signature changes, not per
//! request: each cell stores its current key per objective, and the hit
//! path hands that stored key to [`PlanCache::get`] — a read-lock, one
//! `HashMap` probe on a `Copy` key, an `Arc::clone`, and one relaxed
//! counter bump: zero heap allocations, verified by the
//! `#[global_allocator]`-instrumented `hit_alloc` test and timed as
//! `layerbench`'s `serve_hit_ns_p50`.
//!
//! Eviction is keep-base-and-current: a serving cell keeps the plans
//! keyed under its factor-free base signature (so recovery serves the
//! pristine artifact again without a solve) and under its current one.
//! When drift moves the cell off any *other* signature, the cell removes
//! that signature's one-per-objective keys ([`PlanCache::evict`]) under
//! the write lock it already holds, so a cell never owns more than
//! `2 × objectives` plans however long it drifts. Re-requesting an
//! evicted factor re-solves to the same content — assignment, measured
//! latency, energy, table signature — with a later `solve_index`; that
//! provenance field is the only thing eviction can change. Keys are
//! content-addressed, so two registrations of one spec share them:
//! evicting costs the twin one re-solve, never a wrong plan.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use bt_soc::hash::KeyHasher;

use crate::artifact::PlanArtifact;

/// A `HashMap` over keys this crate builds itself — content keys and
/// registry indices — hashed with [`KeyHasher`] instead of SipHash.
pub(crate) type KeyMap<K, V> = HashMap<K, V, BuildHasherDefault<KeyHasher>>;

/// A 128-bit content-derived cache key. Construction is pure mixing over
/// the component hashes — no allocation, stable across processes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanKey(u128);

/// `splitmix64` finalizer — a fast, well-dispersed 64-bit mixer.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl PlanKey {
    /// Derives the key for `(device hash, app signature, table signature,
    /// objective tag)`. Two sequential mixing passes with different seeds
    /// produce the two independent 64-bit halves.
    pub fn derive(device_hash: u64, app_sig: u64, table_sig: u64, objective_tag: u64) -> PlanKey {
        let mix = |seed: u64| {
            let mut h = splitmix64(seed ^ device_hash);
            h = splitmix64(h ^ app_sig);
            h = splitmix64(h ^ table_sig);
            splitmix64(h ^ objective_tag)
        };
        let hi = mix(0x6274_5f73_6572_7665); // "bt_serve"
        let lo = mix(0x706c_616e_5f6b_6579); // "plan_key"
        PlanKey((u128::from(hi) << 64) | u128::from(lo))
    }

    /// The high 64 bits (for serializable artifacts).
    pub fn hi(self) -> u64 {
        (self.0 >> 64) as u64
    }

    /// The low 64 bits.
    pub fn lo(self) -> u64 {
        self.0 as u64
    }
}

/// Monotonic cache counters, sampled with [`PlanCache::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CacheStats {
    /// Requests answered straight from the cache.
    pub hits: u64,
    /// Requests that required a cold solve.
    pub misses: u64,
    /// Drift-triggered invalidations (a serving cell rescaled its table,
    /// making previously cached plans content-unreachable).
    pub invalidations: u64,
    /// Plans removed because their cell drifted off their signature.
    pub evictions: u64,
    /// Plans currently cached.
    pub plans: usize,
}

/// The concurrent plan store. Shared by reference across serving threads.
#[derive(Debug, Default)]
pub struct PlanCache {
    map: RwLock<KeyMap<PlanKey, Arc<PlanArtifact>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
    evictions: AtomicU64,
}

impl PlanCache {
    /// Creates an empty cache.
    pub fn new() -> PlanCache {
        PlanCache::default()
    }

    /// Looks up a plan, counting the hit or miss. Allocation-free.
    pub(crate) fn get(&self, key: PlanKey) -> Option<Arc<PlanArtifact>> {
        let found = self
            .map
            .read()
            .expect("plan cache lock poisoned")
            .get(&key)
            .cloned();
        match found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Peeks without touching the hit/miss counters (used when a batched
    /// solve re-resolves requests it already counted as misses).
    pub(crate) fn peek(&self, key: PlanKey) -> Option<Arc<PlanArtifact>> {
        self.map
            .read()
            .expect("plan cache lock poisoned")
            .get(&key)
            .cloned()
    }

    /// Stores a plan under its content key.
    pub fn insert(&self, key: PlanKey, plan: Arc<PlanArtifact>) {
        self.map
            .write()
            .expect("plan cache lock poisoned")
            .insert(key, plan);
    }

    /// Records a miss that never reached [`PlanCache::get`] (no serving
    /// cell yet, or the cell drifted), keeping request accounting exact.
    pub(crate) fn note_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one drift-triggered invalidation.
    pub(crate) fn note_invalidation(&self) {
        self.invalidations.fetch_add(1, Ordering::Relaxed);
    }

    /// Removes the plans under `keys` (a signature a cell has left),
    /// counting each one actually removed.
    pub(crate) fn evict(&self, keys: &[PlanKey]) {
        let mut map = self.map.write().expect("plan cache lock poisoned");
        let removed = keys.iter().filter(|k| map.remove(k).is_some()).count();
        self.evictions.fetch_add(removed as u64, Ordering::Relaxed);
    }

    /// Drops every cached plan, keeping the counters (benchmark support:
    /// re-measure the cold path against warm serving cells).
    pub(crate) fn clear(&self) {
        self.map.write().expect("plan cache lock poisoned").clear();
    }

    /// Samples the counters.
    pub(crate) fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            plans: self.map.read().expect("plan cache lock poisoned").len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_stable_and_discriminating() {
        let k = PlanKey::derive(1, 2, 3, 4);
        assert_eq!(k, PlanKey::derive(1, 2, 3, 4));
        // Changing any one component changes the key.
        assert_ne!(k, PlanKey::derive(9, 2, 3, 4));
        assert_ne!(k, PlanKey::derive(1, 9, 3, 4));
        assert_ne!(k, PlanKey::derive(1, 2, 9, 4));
        assert_ne!(k, PlanKey::derive(1, 2, 3, 9));
        // Components are not interchangeable.
        assert_ne!(PlanKey::derive(1, 2, 3, 4), PlanKey::derive(2, 1, 3, 4));
    }

    #[test]
    fn counters_track_hits_misses() {
        let cache = PlanCache::new();
        let key = PlanKey::derive(1, 2, 3, 4);
        assert!(cache.get(key).is_none());
        cache.insert(
            key,
            Arc::new(crate::artifact::PlanArtifact {
                device: "d".into(),
                app: "a".into(),
                scale_bucket: 0,
                objective: crate::PlanObjective::MinLatency,
                key_hi: key.hi(),
                key_lo: key.lo(),
                table_sig: 3,
                assignment: vec![bt_soc::PuClass::BigCpu],
                predicted_us: 1.0,
                measured_us: 1.0,
                energy_per_task_mj: 0.1,
                candidates_considered: 1,
                solve_index: 0,
            }),
        );
        assert!(cache.get(key).is_some());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.plans), (1, 1, 1));
    }
}
