//! Cache statistics, for callers that still ask for them.
//!
//! The workspace keeps no process-global cache: `genmask` is computed
//! from its (small) parameter on every call, and what is worth
//! remembering about a state is kept with the state by the HLU
//! database's query memo. This module is kept only because the
//! `perfbench` benchmark package calls [`all_stats`] and [`clear_all`];
//! its `blu.cache.genmask.*` rows read 0.

/// A point-in-time view of one cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheStats {
    /// The cache's dotted name.
    pub name: &'static str,
    /// Wholesale flushes.
    pub invalidations: u64,
}

/// Statistics for every cache: none.
pub fn all_stats() -> Vec<CacheStats> {
    Vec::new()
}

/// Clears every cache: a no-op.
pub fn clear_all() {}
