//! Completed-span records, trace trees, and the Chrome trace-event
//! exporter.

use std::collections::BTreeMap;
use std::fmt;

use pwdb_metrics::json::Json;

/// A structured attribute value attached to a span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttrValue {
    /// An unsigned integer (counts, lengths, cost terms).
    U64(u64),
    /// A short string (strategy names, outcomes).
    Str(String),
}

impl fmt::Display for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrValue::U64(n) => write!(f, "{n}"),
            AttrValue::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<u64> for AttrValue {
    fn from(n: u64) -> Self {
        AttrValue::U64(n)
    }
}

impl From<u32> for AttrValue {
    fn from(n: u32) -> Self {
        AttrValue::U64(n as u64)
    }
}

impl From<usize> for AttrValue {
    fn from(n: usize) -> Self {
        AttrValue::U64(n as u64)
    }
}

impl From<bool> for AttrValue {
    fn from(b: bool) -> Self {
        AttrValue::U64(b as u64)
    }
}

impl From<&str> for AttrValue {
    fn from(s: &str) -> Self {
        AttrValue::Str(s.to_owned())
    }
}

impl From<String> for AttrValue {
    fn from(s: String) -> Self {
        AttrValue::Str(s)
    }
}

/// One completed span: a named interval on the monotonic process clock,
/// with its parent link and structured attributes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Thread-unique id, strictly increasing in begin order.
    pub id: u64,
    /// Id of the enclosing span, if any.
    pub parent: Option<u64>,
    /// Static span name (dotted path, like metric names).
    pub name: &'static str,
    /// Begin time in nanoseconds since the process trace epoch.
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds.
    pub dur_ns: u64,
    /// Structured attributes in attachment order.
    pub attrs: Vec<(&'static str, AttrValue)>,
}

impl SpanRecord {
    /// The attribute's integer value, if present with that type.
    pub fn attr_u64(&self, key: &str) -> Option<u64> {
        self.attrs
            .iter()
            .find(|(k, _)| *k == key)
            .and_then(|(_, v)| match v {
                AttrValue::U64(n) => Some(*n),
                AttrValue::Str(_) => None,
            })
    }
}

/// A drained batch of completed spans (plus how many were lost to the
/// bounded ring buffer). Spans arrive in *completion* order — children
/// precede their parents; [`Trace::pre_order`] recovers tree order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    /// Completed spans in completion order.
    pub spans: Vec<SpanRecord>,
    /// Spans evicted because the ring buffer was full. Eviction is
    /// oldest-first, which preserves ancestor closure: a retained span's
    /// ancestors always complete later and are therefore retained too.
    pub dropped: u64,
}

impl Trace {
    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    fn index(&self) -> (Vec<&SpanRecord>, BTreeMap<u64, Vec<&SpanRecord>>) {
        let known: std::collections::BTreeSet<u64> = self.spans.iter().map(|s| s.id).collect();
        let mut roots: Vec<&SpanRecord> = Vec::new();
        let mut children: BTreeMap<u64, Vec<&SpanRecord>> = BTreeMap::new();
        for s in &self.spans {
            match s.parent {
                Some(p) if known.contains(&p) => children.entry(p).or_default().push(s),
                _ => roots.push(s),
            }
        }
        // Ids are assigned in begin order, so sorting by id is begin order.
        roots.sort_by_key(|s| s.id);
        for kids in children.values_mut() {
            kids.sort_by_key(|s| s.id);
        }
        (roots, children)
    }

    /// All spans in tree (pre-)order: each parent before its children,
    /// siblings in begin order. This is the order in which the spans
    /// *began*, which for the BLU evaluator is the order in which the
    /// primitives were invoked.
    pub fn pre_order(&self) -> Vec<&SpanRecord> {
        let (roots, children) = self.index();
        let mut out = Vec::with_capacity(self.spans.len());
        fn walk<'a>(
            node: &'a SpanRecord,
            children: &BTreeMap<u64, Vec<&'a SpanRecord>>,
            out: &mut Vec<&'a SpanRecord>,
        ) {
            out.push(node);
            if let Some(kids) = children.get(&node.id) {
                for k in kids {
                    walk(k, children, out);
                }
            }
        }
        for r in roots {
            walk(r, &children, &mut out);
        }
        out
    }

    /// Span names in tree order (convenience for assertions and tests).
    pub fn names_pre_order(&self) -> Vec<&'static str> {
        self.pre_order().iter().map(|s| s.name).collect()
    }

    /// Renders the trace as an indented tree with per-span wall time and
    /// attributes — the body of an `EXPLAIN` reply.
    pub fn render_tree(&self) -> String {
        let mut out = String::new();
        if self.spans.is_empty() {
            out.push_str("(empty trace)");
            return out;
        }
        let (roots, children) = self.index();
        for (i, r) in roots.iter().enumerate() {
            Self::render_node(&mut out, r, &children, "", i + 1 == roots.len());
        }
        if self.dropped > 0 {
            out.push_str(&format!(
                "({} span(s) dropped: ring buffer full)\n",
                self.dropped
            ));
        }
        out
    }

    fn render_node(
        out: &mut String,
        node: &SpanRecord,
        children: &BTreeMap<u64, Vec<&SpanRecord>>,
        prefix: &str,
        last: bool,
    ) {
        let branch = if last { "└─ " } else { "├─ " };
        out.push_str(prefix);
        out.push_str(branch);
        out.push_str(node.name);
        out.push_str(&format!("  {}", fmt_ns(node.dur_ns)));
        for (k, v) in &node.attrs {
            out.push_str(&format!("  {k}={v}"));
        }
        out.push('\n');
        let child_prefix = format!("{prefix}{}", if last { "   " } else { "│  " });
        if let Some(kids) = children.get(&node.id) {
            for (i, kid) in kids.iter().enumerate() {
                Self::render_node(out, kid, children, &child_prefix, i + 1 == kids.len());
            }
        }
    }

    /// The trace as a Chrome trace-event JSON document (the "JSON Object
    /// Format" with a `traceEvents` array of complete `"ph": "X"` events;
    /// loadable in `chrome://tracing` and Perfetto). Timestamps and
    /// durations are microseconds, as the format requires; the exact
    /// nanosecond values ride along in `args`.
    pub fn to_chrome_json(&self) -> Json {
        let events: Vec<Json> = self
            .spans
            .iter()
            .map(|s| {
                let mut args: Vec<(String, Json)> = s
                    .attrs
                    .iter()
                    .map(|(k, v)| {
                        (
                            (*k).to_owned(),
                            match v {
                                AttrValue::U64(n) => Json::UInt(*n),
                                AttrValue::Str(t) => Json::Str(t.clone()),
                            },
                        )
                    })
                    .collect();
                args.push(("span_id".to_owned(), Json::UInt(s.id)));
                if let Some(p) = s.parent {
                    args.push(("parent_span".to_owned(), Json::UInt(p)));
                }
                args.push(("start_ns".to_owned(), Json::UInt(s.start_ns)));
                args.push(("dur_ns".to_owned(), Json::UInt(s.dur_ns)));
                Json::obj([
                    ("name".to_owned(), Json::Str(s.name.to_owned())),
                    ("cat".to_owned(), Json::Str("pwdb".to_owned())),
                    ("ph".to_owned(), Json::Str("X".to_owned())),
                    ("ts".to_owned(), Json::UInt(s.start_ns / 1_000)),
                    ("dur".to_owned(), Json::UInt(s.dur_ns / 1_000)),
                    ("pid".to_owned(), Json::UInt(1)),
                    ("tid".to_owned(), Json::UInt(1)),
                    ("args".to_owned(), Json::Obj(args)),
                ])
            })
            .collect();
        Json::obj([
            ("traceEvents".to_owned(), Json::Arr(events)),
            ("displayTimeUnit".to_owned(), Json::Str("ms".to_owned())),
            ("droppedSpans".to_owned(), Json::UInt(self.dropped)),
        ])
    }
}

/// Exports a trace in Chrome trace-event format (see
/// [`Trace::to_chrome_json`]).
pub fn export_chrome(trace: &Trace) -> Json {
    trace.to_chrome_json()
}

/// Adaptive duration formatting for the tree renderer.
fn fmt_ns(ns: u64) -> String {
    if ns < 10_000 {
        format!("{ns} ns")
    } else if ns < 10_000_000 {
        format!("{:.1} µs", ns as f64 / 1e3)
    } else if ns < 10_000_000_000 {
        format!("{:.1} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: Option<u64>, name: &'static str) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name,
            start_ns: id * 100,
            dur_ns: 50,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn pre_order_recovers_tree_from_completion_order() {
        // Completion order: leaf first, root last.
        let trace = Trace {
            spans: vec![
                rec(3, Some(2), "leaf"),
                rec(2, Some(1), "mid"),
                rec(4, Some(1), "sibling"),
                rec(1, None, "root"),
            ],
            dropped: 0,
        };
        assert_eq!(
            trace.names_pre_order(),
            vec!["root", "mid", "leaf", "sibling"]
        );
    }

    #[test]
    fn orphan_spans_become_roots() {
        let trace = Trace {
            spans: vec![rec(5, Some(99), "orphan"), rec(6, None, "root")],
            dropped: 0,
        };
        assert_eq!(trace.names_pre_order(), vec!["orphan", "root"]);
    }

    #[test]
    fn render_tree_shows_names_attrs_and_drops() {
        let mut leaf = rec(2, Some(1), "child");
        leaf.attrs.push(("cost", AttrValue::U64(7)));
        leaf.attrs
            .push(("strategy", AttrValue::Str("paper".into())));
        let trace = Trace {
            spans: vec![leaf, rec(1, None, "top")],
            dropped: 3,
        };
        let text = trace.render_tree();
        assert!(text.contains("└─ top"), "{text}");
        assert!(text.contains("└─ child"), "{text}");
        assert!(text.contains("cost=7"), "{text}");
        assert!(text.contains("strategy=paper"), "{text}");
        assert!(text.contains("3 span(s) dropped"), "{text}");
    }

    #[test]
    fn empty_trace_renders_placeholder() {
        assert_eq!(Trace::default().render_tree(), "(empty trace)");
    }

    #[test]
    fn chrome_export_shape_round_trips() {
        let mut leaf = rec(2, Some(1), "child");
        leaf.attrs.push(("n", AttrValue::U64(4)));
        let trace = Trace {
            spans: vec![leaf, rec(1, None, "top")],
            dropped: 0,
        };
        let doc = export_chrome(&trace);
        let text = doc.render();
        let back = Json::parse(&text).expect("chrome JSON re-parses");
        let events = match back.get("traceEvents") {
            Some(Json::Arr(items)) => items,
            other => panic!("traceEvents missing: {other:?}"),
        };
        assert_eq!(events.len(), 2);
        for e in events {
            assert_eq!(e.get("ph").and_then(Json::as_str), Some("X"));
            assert!(e.get("name").is_some());
            assert!(e.get("ts").and_then(Json::as_u64).is_some());
            assert!(e.get("dur").and_then(Json::as_u64).is_some());
        }
        let child = &events[0];
        assert_eq!(
            child
                .get("args")
                .and_then(|a| a.get("parent_span"))
                .and_then(Json::as_u64),
            Some(1)
        );
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_ns(900), "900 ns");
        assert_eq!(fmt_ns(50_000), "50.0 µs");
        assert_eq!(fmt_ns(50_000_000), "50.0 ms");
        assert_eq!(fmt_ns(50_000_000_000), "50.00 s");
    }

    #[test]
    fn attr_lookup() {
        let mut r = rec(1, None, "x");
        r.attrs.push(("cost", AttrValue::U64(9)));
        r.attrs.push(("mode", AttrValue::Str("sat".into())));
        assert_eq!(r.attr_u64("cost"), Some(9));
        assert_eq!(r.attr_u64("mode"), None);
        assert_eq!(r.attr_u64("missing"), None);
    }
}
