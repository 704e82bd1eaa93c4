//! `pwdb-metrics`: a zero-dependency observability layer.
//!
//! The paper's central empirical claims are complexity bounds (Theorems
//! 2.3.4(b), 2.3.6(b), 2.3.9(b)); this crate makes those costs visible at
//! runtime without pulling in any external crate. It provides two metric
//! kinds, both hand-rolled on `std::sync::atomic`:
//!
//! * [`Counter`] — a monotone `AtomicU64` event count;
//! * [`Timer`] — accumulated wall time (count + total nanoseconds). The
//!   engine feeds its timers through `pwdb_trace` span guards, so a
//!   timer's count is the number of calls of the operation it times.
//!
//! Metrics are named with dotted paths (`"blu.combine.wall"`) and live in
//! a global registry; handles are `&'static` and lock-free on the hot
//! path. The [`counter!`] and [`timer!`] macros cache the registry lookup
//! in a per-call-site `OnceLock` so steady-state cost is one relaxed
//! atomic op.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

pub mod json;
mod snapshot;

pub use snapshot::{MetricsSnapshot, TimerStat};

/// A monotone event counter on a relaxed `AtomicU64`.
#[derive(Debug)]
pub struct Counter(AtomicU64);

impl Counter {
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Accumulated wall time: an event count plus total elapsed nanoseconds.
#[derive(Debug)]
pub struct Timer {
    count: AtomicU64,
    total_ns: AtomicU64,
}

impl Timer {
    /// Records one timed event that took `elapsed`.
    #[inline]
    pub fn observe(&self, elapsed: Duration) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn total_ns(&self) -> u64 {
        self.total_ns.load(Ordering::Relaxed)
    }
}

#[derive(Default)]
struct Registry {
    counters: Mutex<BTreeMap<&'static str, &'static Counter>>,
    timers: Mutex<BTreeMap<&'static str, &'static Timer>>,
}

/// No registry operation panics while holding a lock, so a poisoned
/// lock is a bug.
const POISONED: &str = "a thread panicked while holding the metrics registry lock";

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

/// The counter registered under `name` (created on first use).
pub fn counter(name: &'static str) -> &'static Counter {
    let mut map = registry().counters.lock().expect(POISONED);
    map.entry(name)
        .or_insert_with(|| Box::leak(Box::new(Counter(AtomicU64::new(0)))))
}

/// The timer registered under `name` (created on first use).
pub fn timer(name: &'static str) -> &'static Timer {
    let mut map = registry().timers.lock().expect(POISONED);
    map.entry(name).or_insert_with(|| {
        Box::leak(Box::new(Timer {
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
        }))
    })
}

/// A point-in-time copy of every registered metric.
pub fn snapshot() -> MetricsSnapshot {
    let reg = registry();
    let mut snap = MetricsSnapshot::default();
    for (name, c) in reg.counters.lock().expect(POISONED).iter() {
        snap.counters.insert((*name).to_owned(), c.get());
    }
    for (name, t) in reg.timers.lock().expect(POISONED).iter() {
        snap.timers.insert(
            (*name).to_owned(),
            TimerStat {
                count: t.count(),
                total_ns: t.total_ns(),
            },
        );
    }
    snap
}

/// Zero every registered metric (handles stay valid).
pub fn reset() {
    let reg = registry();
    for c in reg.counters.lock().expect(POISONED).values() {
        c.0.store(0, Ordering::Relaxed);
    }
    for t in reg.timers.lock().expect(POISONED).values() {
        t.count.store(0, Ordering::Relaxed);
        t.total_ns.store(0, Ordering::Relaxed);
    }
}

/// Look up (and cache per call site) the counter with the given name.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static __PWDB_COUNTER: ::std::sync::OnceLock<&'static $crate::Counter> =
            ::std::sync::OnceLock::new();
        *__PWDB_COUNTER.get_or_init(|| $crate::counter($name))
    }};
}

/// Look up (and cache per call site) the timer with the given name.
#[macro_export]
macro_rules! timer {
    ($name:expr) => {{
        static __PWDB_TIMER: ::std::sync::OnceLock<&'static $crate::Timer> =
            ::std::sync::OnceLock::new();
        *__PWDB_TIMER.get_or_init(|| $crate::timer($name))
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_monotone() {
        let c = counter("test.monotone");
        let mut last = c.get();
        for i in 1..=100u64 {
            if i % 3 == 0 {
                c.add(i);
            } else {
                c.inc();
            }
            let now = c.get();
            assert!(now > last, "counter must strictly grow on inc/add");
            last = now;
        }
    }

    #[test]
    fn macro_caches_same_handle() {
        let a = counter!("test.macro_cached");
        a.inc();
        let b = counter!("test.macro_cached_other");
        b.add(2);
        assert_eq!(counter("test.macro_cached").get(), 1);
        assert_eq!(counter("test.macro_cached_other").get(), 2);
    }

    #[test]
    fn timer_accumulates() {
        let t = timer!("test.timer");
        t.observe(Duration::from_nanos(40));
        assert_eq!((t.count(), t.total_ns()), (1, 40));
        t.observe(Duration::from_nanos(2));
        assert_eq!((t.count(), t.total_ns()), (2, 42));
    }

    #[test]
    fn snapshot_delta_subtracts() {
        let c = counter("test.delta");
        c.add(5);
        let before = snapshot();
        c.add(7);
        let after = snapshot();
        assert_eq!(after.delta(&before).counter("test.delta"), 7);
    }

    #[test]
    fn snapshot_json_roundtrip() {
        let mut snap = MetricsSnapshot::default();
        snap.counters.insert("a.b".into(), 3);
        snap.counters.insert("a.c".into(), u64::MAX);
        snap.timers.insert(
            "t.x".into(),
            TimerStat {
                count: 2,
                total_ns: 12345,
            },
        );
        let text = snap.to_json();
        let back = MetricsSnapshot::from_json(&text).expect("parse back");
        assert_eq!(back, snap);
    }
}
