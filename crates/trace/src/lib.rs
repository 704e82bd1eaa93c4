//! `pwdb-trace`: zero-dependency span tracing for the BLU/HLU engine.
//!
//! The paper defines HLU purely by translation into BLU (§3.1–3.2) and
//! gives each BLU-C primitive an explicit algorithm with a complexity
//! bound (Algorithms 2.3.3 / 2.3.5 / 2.3.8). That makes every HLU
//! statement's execution a concrete tree — translation nodes over
//! primitive invocations over logic-layer work — and this crate records
//! that tree as *spans*:
//!
//! * [`span`] / [`span!`] open a named span on a **thread-local stack**;
//!   the returned [`SpanGuard`] closes it on drop, so lexical scope is
//!   span scope and nesting falls out of the call structure.
//! * Spans carry **structured attributes** ([`SpanGuard::attr`]) with
//!   `&'static str` keys and u64/string values — clause counts, the
//!   theorem's dominant cost term, strategy names.
//! * Completed spans land in a bounded per-thread **ring buffer**
//!   (drop-oldest; eviction preserves ancestor closure because parents
//!   complete after their children). [`take`] drains it as a [`Trace`].
//! * [`capture`] runs a closure with recording force-enabled on a fresh
//!   ring and returns exactly the spans it produced — the engine behind
//!   `EXPLAIN`.
//! * [`Trace::render_tree`] renders an indented tree;
//!   [`export_chrome`] emits Chrome trace-event JSON (reusing
//!   [`pwdb_metrics::json::Json`]) loadable in `chrome://tracing`.
//! * [`timed_span`] / `span!(name, timer = "...")` open a span whose
//!   guard also feeds a `pwdb_metrics` [`Timer`](pwdb_metrics::Timer)
//!   on drop, recording or not. It is the engine's one instrumentation
//!   point per timed operation: the timer's count is the call count.
//!
//! Recording is **off by default** per thread — call sites pay a single
//! thread-local flag check until [`set_enabled`] turns tracing on or
//! [`capture`] scopes it around one call.

mod record;
mod tracer;

pub use record::{export_chrome, AttrValue, SpanRecord, Trace};
pub use tracer::{
    capture, is_enabled, set_capacity, set_enabled, span, take, timed_span, SpanGuard,
    DEFAULT_CAPACITY,
};

#[doc(hidden)]
pub use pwdb_metrics as __metrics;

/// Opens a span for the enclosing scope, optionally timed and with
/// initial attributes:
///
/// ```
/// let _sp = pwdb_trace::span!("blu.clausal.assert");
/// let _sp2 = pwdb_trace::span!("blu.clausal.combine", "in_left" => 3u64, "in_right" => 4u64);
/// let _sp3 = pwdb_trace::span!("blu.clausal.mask", timer = "blu.mask.wall", "letters" => 2u64);
/// ```
///
/// `timer = "<name>"` makes the guard feed the named timer (looked up
/// once per call site). The attribute expressions are evaluated only
/// when the span records, so an expensive cost term costs nothing while
/// tracing is off.
#[macro_export]
macro_rules! span {
    (@attrs $guard:expr $(, $key:expr => $value:expr)*) => {{
        let __pwdb_span = $guard;
        if __pwdb_span.is_recording() {
            $(__pwdb_span.attr($key, $value);)*
        }
        __pwdb_span
    }};
    ($name:expr, timer = $timer:expr $(, $key:expr => $value:expr)* $(,)?) => {
        $crate::span!(@attrs $crate::timed_span($name, $crate::__metrics::timer!($timer)) $(, $key => $value)*)
    };
    ($name:expr $(, $key:expr => $value:expr)* $(,)?) => {
        $crate::span!(@attrs $crate::span($name) $(, $key => $value)*)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that flip the thread-local enabled flag. Each
    /// test runs on its own thread anyway under `cargo test`, but keep
    /// ordering deterministic within one thread too.
    fn with_recording<R>(f: impl FnOnce() -> R) -> (R, Trace) {
        let _ = take(); // discard anything a prior test on this thread left
        capture(f)
    }

    #[test]
    fn spans_nest_lexically() {
        let (_, trace) = with_recording(|| {
            let _a = span!("outer");
            {
                let _b = span!("inner.first");
            }
            let _c = span!("inner.second");
        });
        assert_eq!(
            trace.names_pre_order(),
            vec!["outer", "inner.first", "inner.second"]
        );
        let pre = trace.pre_order();
        assert_eq!(pre[1].parent, Some(pre[0].id));
        assert_eq!(pre[2].parent, Some(pre[0].id));
        assert!(pre[0].dur_ns >= pre[1].dur_ns);
    }

    #[test]
    fn attributes_attach_to_the_right_span() {
        let (_, trace) = with_recording(|| {
            let sp = span!("op", "in" => 5u64);
            assert!(sp.is_recording());
            {
                let inner = span!("child");
                inner.attr("mode", "fast");
            }
            sp.attr("out", 7u64);
        });
        let pre = trace.pre_order();
        assert_eq!(pre[0].attr_u64("in"), Some(5));
        assert_eq!(pre[0].attr_u64("out"), Some(7));
        assert_eq!(pre[1].attrs, vec![("mode", AttrValue::Str("fast".into()))]);
    }

    #[test]
    fn disabled_thread_records_nothing() {
        let _ = take();
        assert!(!is_enabled());
        {
            let sp = span!("ghost");
            assert!(!sp.is_recording());
            sp.attr("x", 1u64);
        }
        assert!(take().is_empty());
    }

    #[test]
    fn ring_buffer_bounds_memory_and_counts_drops() {
        set_capacity(8);
        let (_, trace) = with_recording(|| {
            for _ in 0..20 {
                let _sp = span!("tick");
            }
        });
        set_capacity(DEFAULT_CAPACITY);
        assert_eq!(trace.spans.len(), 8);
        assert_eq!(trace.dropped, 12);
        let text = trace.render_tree();
        assert!(text.contains("12 span(s) dropped"), "{text}");
    }

    #[test]
    fn capture_restores_ambient_ring_and_flag() {
        let _ = take();
        set_enabled(true);
        {
            let _sp = span!("ambient.before");
        }
        let ((), inner) = capture(|| {
            let _sp = span!("captured");
        });
        assert_eq!(inner.names_pre_order(), vec!["captured"]);
        assert!(is_enabled(), "capture must restore the enabled flag");
        {
            let _sp = span!("ambient.after");
        }
        set_enabled(false);
        let ambient = take();
        assert_eq!(
            ambient.names_pre_order(),
            vec!["ambient.before", "ambient.after"],
            "EXPLAIN must not steal the ambient session's spans"
        );
    }

    #[test]
    fn capture_returns_the_closure_result() {
        let (n, trace) = with_recording(|| {
            let _sp = span!("work");
            41 + 1
        });
        assert_eq!(n, 42);
        assert_eq!(trace.spans.len(), 1);
    }

    #[test]
    fn timestamps_are_monotone_and_nested() {
        let (_, trace) = with_recording(|| {
            let _a = span!("parent");
            let _b = span!("child");
        });
        let pre = trace.pre_order();
        let (parent, child) = (pre[0], pre[1]);
        assert!(child.start_ns >= parent.start_ns);
        assert!(child.start_ns + child.dur_ns <= parent.start_ns + parent.dur_ns);
    }

    #[test]
    fn attribute_expressions_run_only_while_recording() {
        let _ = take();
        let runs = std::cell::Cell::new(0u64);
        let costly = || {
            runs.set(runs.get() + 1);
            7u64
        };
        {
            let _sp = span!("lazy", "cost" => costly());
        }
        assert_eq!(runs.get(), 0, "an inert span must not evaluate attributes");
        let ((), trace) = with_recording(|| {
            let _sp = span!("lazy", "cost" => costly());
        });
        assert_eq!(runs.get(), 1);
        assert_eq!(trace.spans[0].attr_u64("cost"), Some(7));
    }

    #[test]
    fn timed_spans_feed_their_timer_whether_or_not_recording() {
        let _ = take();
        let timer = pwdb_metrics::timer("test.trace.timed");
        {
            let _sp = span!("timed", timer = "test.trace.timed");
        }
        assert_eq!(timer.count(), 1);
        let ((), trace) = with_recording(|| {
            let _sp = span!("timed", timer = "test.trace.timed", "k" => 1u64);
        });
        assert_eq!(timer.count(), 2);
        assert_eq!(trace.names_pre_order(), vec!["timed"]);
        assert!(take().is_empty(), "the inert span must not have recorded");
    }
}
