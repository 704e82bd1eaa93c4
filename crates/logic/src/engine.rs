//! Engine-mode switch: naive reference algorithms vs the indexed engine.
//!
//! The clausal primitives (subsumption sweeps, resolution closures, prime
//! implicates) exist in two implementations that are proven observationally
//! identical by the differential oracle harness
//! (`tests/index_differential.rs`):
//!
//! * [`EngineMode::Naive`] — the paper-direct O(n²) pairwise algorithms,
//!   preserved verbatim in [`crate::reference`]; the genmask memo is
//!   bypassed, so this mode reproduces the algorithms as written exactly.
//! * [`EngineMode::Indexed`] — the default: sweeps over a flat
//!   subsumption-minimal list whose probes a per-clause signature word
//!   filters ([`crate::subsumption::MinimalSet`]), Tison's method for
//!   both resolution closures, and a genmask memo keyed on whole inputs
//!   ([`crate::cache`]).
//!
//! The mode is a process-wide atomic so a whole stack (BLU, HLU, wilkins,
//! benches) can be flipped without threading a parameter through every
//! call. [`with_engine`] serializes flips behind a lock so concurrent
//! tests do not interleave mode changes.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;

/// Which clausal engine the dispatching entry points use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineMode {
    /// The paper-direct pairwise algorithms ([`crate::reference`]), with
    /// the genmask memo bypassed.
    Naive,
    /// Signature-filtered subsumption-minimal sweeps, Tison's method and
    /// memoization. The name stays because the report keys in
    /// `BENCH_index.json` use it.
    #[default]
    Indexed,
}

static MODE: AtomicU8 = AtomicU8::new(1);

/// The current engine mode.
#[inline]
pub fn engine_mode() -> EngineMode {
    if MODE.load(Ordering::Relaxed) == 0 {
        EngineMode::Naive
    } else {
        EngineMode::Indexed
    }
}

/// Sets the engine mode, returning the previous one. Prefer
/// [`with_engine`] in tests.
pub fn set_engine_mode(mode: EngineMode) -> EngineMode {
    let prev = MODE.swap(
        match mode {
            EngineMode::Naive => 0,
            EngineMode::Indexed => 1,
        },
        Ordering::Relaxed,
    );
    if prev == 0 {
        EngineMode::Naive
    } else {
        EngineMode::Indexed
    }
}

static ENGINE_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` under the given engine mode, restoring the previous mode
/// afterwards. Flips are serialized behind a global lock so concurrent
/// callers (e.g. parallel tests) each see a consistent mode for the whole
/// closure. Not reentrant: do not nest `with_engine` calls.
pub fn with_engine<T>(mode: EngineMode, f: impl FnOnce() -> T) -> T {
    let _guard = ENGINE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let prev = set_engine_mode(mode);
    struct Restore(EngineMode);
    impl Drop for Restore {
        fn drop(&mut self) {
            set_engine_mode(self.0);
        }
    }
    let _restore = Restore(prev);
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_indexed_and_with_engine_restores() {
        assert_eq!(EngineMode::default(), EngineMode::Indexed);
        let before = engine_mode();
        let seen = with_engine(EngineMode::Naive, engine_mode);
        assert_eq!(seen, EngineMode::Naive);
        assert_eq!(engine_mode(), before);
    }
}
