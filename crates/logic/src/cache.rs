//! Bounded memo caches for repeat-heavy derived structures.
//!
//! One cache uses this module: the `blu.cache.genmask` memo of
//! `genmask(Φ)`, a pure function of the state that every `insert`
//! recomputes for its parameter. A [`MemoCache`] keys each result on the
//! whole input (a [`crate::ClauseSet`]), so staleness is impossible by
//! construction: a changed state is a different key. Invalidation
//! therefore exists for *memory*, not for correctness — caches are
//! bounded ([`MemoCache::new`]'s capacity) and flushed wholesale when an
//! insert finds them full, so a long-lived process holds at most `cap`
//! entries per cache. The metamorphic tests
//! (`tests/cache_metamorphic.rs`) pin the soundness claim: interleaved
//! updates with caching on answer exactly like a fresh engine.
//!
//! Under [`EngineMode::Naive`] every cache is bypassed, so the naive
//! engine reproduces the uncached behavior bit for bit — which is what lets
//! the differential harness compare engines rather than cache hits.
//!
//! Hit/miss/eviction counts are kept per cache (visible through
//! [`all_stats`]) and mirrored into `pwdb-metrics` counters
//! `<name>.hits` / `<name>.misses`.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::engine::{engine_mode, EngineMode};

/// A point-in-time view of one cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheStats {
    /// The cache's dotted name (`"blu.cache.genmask"`).
    pub name: &'static str,
    /// Live entries.
    pub entries: usize,
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute.
    pub misses: u64,
    /// Wholesale flushes (capacity evictions plus explicit clears).
    pub invalidations: u64,
}

/// Erased control surface so heterogeneous caches share one registry.
pub trait CacheControl: Sync + Send {
    /// Current statistics.
    fn stats(&self) -> CacheStats;
    /// Drops every entry (counted as an invalidation).
    fn clear(&self);
}

fn registry() -> &'static Mutex<Vec<&'static dyn CacheControl>> {
    static REGISTRY: OnceLock<Mutex<Vec<&'static dyn CacheControl>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

/// Registers a cache for [`all_stats`]/[`clear_all`]. Called once per
/// cache by [`MemoCache::register`].
pub fn register(cache: &'static dyn CacheControl) {
    registry()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push(cache);
}

/// Statistics for every registered cache, in registration order.
pub fn all_stats() -> Vec<CacheStats> {
    registry()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .map(|c| c.stats())
        .collect()
}

/// Clears every registered cache (used to make measurement runs start
/// cold).
pub fn clear_all() {
    for c in registry().lock().unwrap_or_else(|e| e.into_inner()).iter() {
        c.clear();
    }
}

/// A bounded, thread-safe memo table with hit/miss accounting.
pub struct MemoCache<K, V> {
    name: &'static str,
    cap: usize,
    map: Mutex<HashMap<K, V>>,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
    hits_counter: &'static str,
    misses_counter: &'static str,
}

impl<K: Eq + Hash, V: Clone> MemoCache<K, V> {
    /// A cache holding at most `cap` entries; when an insert would exceed
    /// the bound the whole table is flushed (wholesale eviction keeps the
    /// hot path to one lock and no bookkeeping).
    pub fn new(name: &'static str, cap: usize) -> Self {
        MemoCache {
            name,
            cap: cap.max(1),
            map: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            hits_counter: Box::leak(format!("{name}.hits").into_boxed_str()),
            misses_counter: Box::leak(format!("{name}.misses").into_boxed_str()),
        }
    }

    /// Registers `self` (typically a `OnceLock` static) with the global
    /// registry and returns it, for one-line cache setup.
    pub fn register(&'static self) -> &'static Self
    where
        K: Send,
        V: Send,
    {
        register(self);
        self
    }

    /// The memoized value of `f` at `key`. Under
    /// [`EngineMode::Naive`] the cache is bypassed entirely.
    pub fn get_or_insert_with(&self, key: K, f: impl FnOnce() -> V) -> V {
        if engine_mode() == EngineMode::Naive {
            return f();
        }
        {
            let map = self.map.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(v) = map.get(&key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                pwdb_metrics::counter(self.hits_counter).inc();
                return v.clone();
            }
        }
        // Compute outside the lock: closures may be expensive (and may
        // consult other caches). Racing computations insert-last-wins.
        let v = f();
        self.misses.fetch_add(1, Ordering::Relaxed);
        pwdb_metrics::counter(self.misses_counter).inc();
        let mut map = self.map.lock().unwrap_or_else(|e| e.into_inner());
        if map.len() >= self.cap {
            map.clear();
            self.invalidations.fetch_add(1, Ordering::Relaxed);
        }
        map.insert(key, v.clone());
        v
    }
}

impl<K: Eq + Hash + Send, V: Clone + Send> CacheControl for MemoCache<K, V> {
    fn stats(&self) -> CacheStats {
        CacheStats {
            name: self.name,
            entries: self.map.lock().unwrap_or_else(|e| e.into_inner()).len(),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
        }
    }

    fn clear(&self) {
        self.map.lock().unwrap_or_else(|e| e.into_inner()).clear();
        self.invalidations.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::with_engine;

    fn test_cache() -> &'static MemoCache<u64, u64> {
        static CACHE: OnceLock<MemoCache<u64, u64>> = OnceLock::new();
        CACHE.get_or_init(|| MemoCache::new("logic.cache.test", 4))
    }

    // The engine mode is process-global and `naive_mode_bypasses` flips
    // it, so every test that relies on the cache being consulted pins the
    // indexed engine under the engine lock.

    #[test]
    fn memoizes_and_counts() {
        with_engine(EngineMode::Indexed, || {
            let cache = test_cache();
            let mut calls = 0;
            let a = cache.get_or_insert_with(1, || {
                calls += 1;
                10
            });
            let b = cache.get_or_insert_with(1, || {
                calls += 1;
                10
            });
            assert_eq!((a, b, calls), (10, 10, 1));
            let s = cache.stats();
            assert!(s.hits >= 1 && s.misses >= 1);
        });
    }

    #[test]
    fn capacity_flushes_wholesale() {
        with_engine(EngineMode::Indexed, || {
            let cache: MemoCache<u64, u64> = MemoCache::new("logic.cache.cap_test", 2);
            for k in 0..5 {
                cache.get_or_insert_with(k, || k);
            }
            assert!(cache.stats().entries <= 2);
            assert!(cache.stats().invalidations >= 1);
        });
    }

    #[test]
    fn naive_mode_bypasses() {
        let cache: MemoCache<u64, u64> = MemoCache::new("logic.cache.bypass_test", 8);
        with_engine(EngineMode::Naive, || {
            let mut calls = 0;
            for _ in 0..3 {
                cache.get_or_insert_with(7, || {
                    calls += 1;
                    1
                });
            }
            assert_eq!(calls, 3);
            assert_eq!(cache.stats().entries, 0);
        });
    }
}
