//! The traced run's span recorder. Spans are opened by the benchmark
//! around its calls into each layer, kept in memory, and written out when
//! the run ends. Each span also records how much `blu.*.wall` time the
//! program's own timers accumulated inside it, so BLU shows as a layer of
//! its own in the self-time table. Spans outside any request (recoveries
//! between episodes) keep their BLU time, so the `blu` row is request
//! work only.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use pwdb_metrics::Timer;

/// The span around one whole request.
pub const REQUEST: &str = "op";

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
    /// `blu.*.wall` nanoseconds accumulated while the span was open.
    pub blu_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    blu_timers: Vec<&'static Timer>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        let names = [
            "blu.mask.wall",
            "blu.genmask.wall",
            "blu.combine.wall",
            "blu.complement.wall",
            "blu.assert.wall",
        ];
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            blu_timers: names.iter().map(|n| pwdb_metrics::timer(n)).collect(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn blu_ns(&self) -> u64 {
        self.blu_timers.iter().map(|t| t.total_ns()).sum()
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; returns a handle for [`Recorder::close`] (inert when
    /// tracing is off).
    pub fn open(&mut self, name: &'static str, op: u64) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let idx = self.spans.len();
        let blu = self.blu_ns();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            op,
            blu_ns: blu,
        });
        self.stack.push(idx);
        Some(idx)
    }

    pub fn close(&mut self, handle: Option<usize>) {
        let Some(idx) = handle else { return };
        let end = self.now_ns();
        let blu = self.blu_ns();
        let span = &mut self.spans[idx];
        span.end_ns = end;
        span.blu_ns = blu - span.blu_ns;
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(idx), "spans close in stack order");
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let h = self.open(name, op);
        let out = f();
        self.close(h);
        out
    }

    /// Total duration of every span with this name.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .sum()
    }

    /// Per span name: (calls, total ns, self ns), plus a `blu` row. A
    /// span's self time is its duration minus its children's, minus (in a
    /// request) the BLU time inside it that no child span accounts for.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let spans = &self.spans;
        let mut child_ns = vec![0u64; spans.len()];
        let mut child_blu = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
                child_blu[p] += s.blu_ns;
            }
        }
        let mut rows: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        let mut blu = 0u64;
        for (i, s) in spans.iter().enumerate() {
            let in_request = s.parent.is_some() || s.name == REQUEST;
            let own_blu = if in_request {
                s.blu_ns.saturating_sub(child_blu[i])
            } else {
                0
            };
            blu += own_blu;
            let row = rows.entry(s.name).or_default();
            row.0 += 1;
            row.1 += s.dur_ns();
            row.2 += s.dur_ns().saturating_sub(child_ns[i] + own_blu);
        }
        rows.insert("blu", (0, blu, blu));
        rows
    }

    /// Writes every span as CSV: `name,start_ns,end_ns,parent,op,blu_ns`.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name,start_ns,end_ns,parent,op,blu_ns")?;
        for s in &self.spans {
            let parent = s.parent.map_or(String::new(), |p| p.to_string());
            writeln!(
                out,
                "{},{},{},{},{},{}",
                s.name, s.start_ns, s.end_ns, parent, s.op, s.blu_ns
            )?;
        }
        out.flush()
    }
}
