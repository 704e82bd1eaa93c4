//! The tracer: a thread-local span stack feeding a bounded ring buffer
//! of completed [`SpanRecord`]s, and the span guard that also feeds a
//! [`Timer`].
//!
//! Recording is off by default — call sites pay one thread-local flag
//! check until [`set_enabled`] (or [`capture`]) turns recording on for
//! the current thread. A timed span reads the clock at open and close
//! whether or not it records.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::OnceLock;
use std::time::Instant;

use pwdb_metrics::Timer;

use crate::record::{AttrValue, SpanRecord, Trace};

/// Default ring-buffer capacity (completed spans retained per thread).
pub const DEFAULT_CAPACITY: usize = 4096;

/// Per-thread tracer state.
struct Tracer {
    enabled: bool,
    next_id: u64,
    stack: Vec<Open>,
    ring: VecDeque<SpanRecord>,
    capacity: usize,
    dropped: u64,
}

struct Open {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start_ns: u64,
    attrs: Vec<(&'static str, AttrValue)>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            enabled: false,
            next_id: 1,
            stack: Vec::new(),
            ring: VecDeque::new(),
            capacity: DEFAULT_CAPACITY,
            dropped: 0,
        }
    }

    fn push_record(&mut self, rec: SpanRecord) {
        // Drop-oldest keeps ancestor closure intact: a span's ancestors
        // always complete after it, so they sit *later* in the ring and
        // survive at least as long as the span itself.
        if self.ring.len() >= self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(rec);
    }
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer::new());
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn ns_since(epoch: Instant, at: Instant) -> u64 {
    at.saturating_duration_since(epoch).as_nanos() as u64
}

/// Turns recording on or off for the current thread. Off by default;
/// already-open spans are unaffected (they complete into the ring only
/// if they were begun while recording).
pub fn set_enabled(on: bool) {
    TRACER.with(|t| t.borrow_mut().enabled = on);
}

/// Whether the current thread is recording spans.
pub fn is_enabled() -> bool {
    TRACER.with(|t| t.borrow().enabled)
}

/// Resizes the current thread's ring buffer (existing overflow is
/// evicted oldest-first and counted as dropped).
pub fn set_capacity(capacity: usize) {
    TRACER.with(|t| {
        let mut tr = t.borrow_mut();
        tr.capacity = capacity.max(1);
        while tr.ring.len() > tr.capacity {
            tr.ring.pop_front();
            tr.dropped += 1;
        }
    });
}

/// Drains the current thread's completed spans (and the dropped count),
/// leaving the ring empty. Open spans stay on the stack and will land
/// in the *next* drain when they complete.
pub fn take() -> Trace {
    TRACER.with(|t| {
        let mut tr = t.borrow_mut();
        let spans = tr.ring.drain(..).collect();
        let dropped = std::mem::take(&mut tr.dropped);
        Trace { spans, dropped }
    })
}

/// Runs `f` with recording force-enabled on a fresh ring, returning its
/// result together with exactly the spans recorded during the call.
/// The previous ring contents, dropped count, and enabled flag are
/// restored afterwards, so an ambient `:trace on` session does not lose
/// its accumulated spans to a nested `EXPLAIN`.
pub fn capture<R>(f: impl FnOnce() -> R) -> (R, Trace) {
    let (was_enabled, stash_ring, stash_dropped) = TRACER.with(|t| {
        let mut tr = t.borrow_mut();
        let was = tr.enabled;
        tr.enabled = true;
        (
            was,
            std::mem::take(&mut tr.ring),
            std::mem::take(&mut tr.dropped),
        )
    });
    let result = f();
    let trace = take();
    TRACER.with(|t| {
        let mut tr = t.borrow_mut();
        tr.enabled = was_enabled;
        tr.ring = stash_ring;
        tr.dropped = stash_dropped;
    });
    (result, trace)
}

/// Opens a span named `name` on the current thread. The returned guard
/// closes the span on drop; if recording is off the guard is inert and
/// the call costs one thread-local flag check.
pub fn span(name: &'static str) -> SpanGuard {
    open(name, None)
}

/// Opens a span like [`span`] whose guard also records its duration into
/// `timer` on drop, whether or not the span itself records.
pub fn timed_span(name: &'static str, timer: &'static Timer) -> SpanGuard {
    open(name, Some(timer))
}

fn open(name: &'static str, timer: Option<&'static Timer>) -> SpanGuard {
    TRACER.with(|t| {
        let mut tr = t.borrow_mut();
        if !tr.enabled {
            // Inert span: read the clock only if a timer needs it.
            let start = timer.map(|_| Instant::now());
            return SpanGuard {
                id: 0,
                timer,
                start,
            };
        }
        let epoch = epoch();
        let start = Instant::now();
        let id = tr.next_id;
        tr.next_id += 1;
        let parent = tr.stack.last().map(|o| o.id);
        tr.stack.push(Open {
            id,
            parent,
            name,
            start_ns: ns_since(epoch, start),
            attrs: Vec::new(),
        });
        SpanGuard {
            id,
            timer,
            start: Some(start),
        }
    })
}

/// An RAII guard for an open span; dropping it ends the span and feeds
/// its timer, if any.
#[must_use = "dropping the guard ends the span immediately"]
pub struct SpanGuard {
    /// 0 means inert (recording was off when the span was opened).
    id: u64,
    timer: Option<&'static Timer>,
    /// When the span opened; `None` for an inert span without a timer.
    start: Option<Instant>,
}

impl SpanGuard {
    /// Whether this guard refers to a live, recording span. [`span!`]
    /// gates its attribute expressions on it; call sites use it to gate
    /// attributes they compute later:
    /// `if sp.is_recording() { sp.attr("cost", big_product()); }`
    ///
    /// [`span!`]: crate::span!
    pub fn is_recording(&self) -> bool {
        self.id != 0
    }

    /// Attaches a structured attribute to the span (no-op if inert).
    pub fn attr(&self, key: &'static str, value: impl Into<AttrValue>) {
        if self.id == 0 {
            return;
        }
        let value = value.into();
        TRACER.with(|t| {
            let mut tr = t.borrow_mut();
            if let Some(open) = tr.stack.iter_mut().rev().find(|o| o.id == self.id) {
                open.attrs.push((key, value));
            }
        });
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let end = Instant::now();
        if let Some(timer) = self.timer {
            timer.observe(end.saturating_duration_since(start));
        }
        if self.id == 0 {
            return;
        }
        let end_ns = ns_since(epoch(), end);
        TRACER.with(|t| {
            let mut tr = t.borrow_mut();
            // Close any spans above ours that leaked (their guards were
            // forgotten); the stack discipline must stay consistent.
            while let Some(open) = tr.stack.pop() {
                let done = open.id == self.id;
                let rec = SpanRecord {
                    id: open.id,
                    parent: open.parent,
                    name: open.name,
                    start_ns: open.start_ns,
                    dur_ns: end_ns.saturating_sub(open.start_ns),
                    attrs: open.attrs,
                };
                tr.push_record(rec);
                if done {
                    break;
                }
            }
        });
    }
}
