//! Point-in-time metric snapshots with a hand-written JSON writer and
//! delta arithmetic for per-experiment reporting.

use std::collections::BTreeMap;

use crate::json::Json;

/// A timer's accumulated state.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TimerStat {
    pub count: u64,
    pub total_ns: u64,
}

/// A point-in-time copy of every registered metric, detached from the
/// registry.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub timers: BTreeMap<String, TimerStat>,
}

impl MetricsSnapshot {
    /// The counter's value, or 0 when it never fired.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// What happened between `earlier` and `self` (saturating per entry,
    /// so a `reset` in between degrades to the later snapshot). Metrics
    /// that saw no activity in the interval are omitted entirely.
    pub fn delta(&self, earlier: &Self) -> Self {
        let mut out = Self::default();
        for (name, &v) in &self.counters {
            let d = v.saturating_sub(earlier.counter(name));
            if d > 0 {
                out.counters.insert(name.clone(), d);
            }
        }
        for (name, t) in &self.timers {
            let e = earlier.timers.get(name).copied().unwrap_or_default();
            let d = TimerStat {
                count: t.count.saturating_sub(e.count),
                total_ns: t.total_ns.saturating_sub(e.total_ns),
            };
            if d.count > 0 || d.total_ns > 0 {
                out.timers.insert(name.clone(), d);
            }
        }
        out
    }

    /// The snapshot as a [`Json`] object (for embedding in larger reports).
    pub fn to_json_value(&self) -> Json {
        let counters = Json::obj(
            self.counters
                .iter()
                .map(|(k, &v)| (k.clone(), Json::UInt(v))),
        );
        let timers = Json::obj(self.timers.iter().map(|(k, t)| {
            (
                k.clone(),
                Json::obj([
                    ("count".to_owned(), Json::UInt(t.count)),
                    ("total_ns".to_owned(), Json::UInt(t.total_ns)),
                ]),
            )
        }));
        Json::obj([
            ("counters".to_owned(), counters),
            ("timers".to_owned(), timers),
        ])
    }

    pub fn to_json(&self) -> String {
        self.to_json_value().render()
    }
}
