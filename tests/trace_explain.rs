//! End-to-end tracing: `EXPLAIN`ing an HLU statement must produce a span
//! tree whose shape matches the paper's translation semantics (§3.2,
//! Definitions 3.2.3/3.2.4). A durable `EXPLAIN` explains the same
//! execution as an in-memory one, and one whose commit fails names the
//! failure and leaves no trace in state or log.
//!
//! Unlike `metrics_observability.rs`, these tests need no delta
//! gymnastics: the span ring is thread-local, so parallel tests cannot
//! see each other's spans.

use pwdb::hlu::DurableError;
use pwdb::logic::Limits;
use pwdb::prelude::*;
use pwdb::store::{wal, RetryPolicy, TestDir, WriteFaultKind, WriteFaults};
use pwdb_metrics::json::Json;

fn explained(src: &str, setup: &[&str]) -> Explanation {
    let mut atoms = AtomTable::new();
    let mut db = ClausalDatabase::new();
    for s in setup {
        let p = parse_hlu(s, &mut atoms).expect("setup parses");
        db.run(&p);
    }
    let stmt = parse_hlu_statement(src, &mut atoms).expect("statement parses");
    let HluStatement::Explain(prog) = stmt else {
        panic!("expected an EXPLAIN statement");
    };
    Explanation::capture(&prog, || db.run(&prog)).0
}

/// The same statements, `EXPLAIN`ed through a durable database (governed,
/// unlimited) in a fresh directory.
fn explained_durably(src: &str, setup: &[&str]) -> Explanation {
    let dir = TestDir::new("explain-durable");
    let mut db = ClausalDatabase::open(dir.path()).unwrap();
    let unlimited = Limits::unlimited();
    for s in setup {
        db.run_statement_governed(s, &unlimited)
            .1
            .expect("setup commits");
    }
    let (exp, result) = db.run_statement_governed(src, &unlimited);
    result.expect("statement commits");
    exp.expect("an EXPLAIN statement returns its explanation")
}

/// The statement records of the on-disk log, in order.
fn logged_statements(dir: &TestDir) -> Vec<String> {
    wal::scan(&dir.path().join("wal.log"))
        .unwrap()
        .records
        .into_iter()
        .filter_map(|r| match r {
            wal::Record::Stmt(text) => Some(text),
            _ => None,
        })
        .collect()
}

/// A durable `EXPLAIN` whose commit hits a persistent write fault still
/// returns its explanation, whose outcome names the I/O error; the failed
/// statement reaches neither the log nor memory.
#[test]
fn durable_explain_under_a_write_fault_names_the_error_and_changes_nothing() {
    let dir = TestDir::new("explain-fault");
    let mut db = ClausalDatabase::open(dir.path()).unwrap();
    let unlimited = Limits::unlimited();
    db.run_statement_governed("(insert {A2 | A3})", &unlimited)
        .1
        .unwrap();
    let state = db.state().clone();
    let history = db.history().to_vec();
    let updates_run = db.updates_run();

    db.inject_write_faults(WriteFaults::persistent_from(0, WriteFaultKind::Eio));
    db.set_retry_policy(RetryPolicy::none());
    let (exp, result) = db.run_statement_governed("EXPLAIN (insert {A1})", &unlimited);

    let err = result.unwrap_err();
    assert!(matches!(err, DurableError::Io(_)), "{err:?}");
    let exp = exp.expect("EXPLAIN returns an explanation even on failure");
    let outcome = exp.outcome.as_deref().unwrap_or_default();
    assert!(outcome.contains("I/O error"), "outcome: {outcome}");
    assert_eq!(outcome, err.to_string());
    assert!(exp.render().contains("outcome:"));

    assert_eq!(logged_statements(&dir), ["(insert {A2 | A3})"]);
    assert_eq!(db.state(), &state);
    assert_eq!(db.history(), &history[..]);
    assert_eq!(db.updates_run(), updates_run);
}

mod with_tracer {
    use super::*;

    /// The `blu.clausal.*` leaf spans in pre-order — the primitive
    /// execution sequence, in the order the BLU program ran them.
    fn clausal_ops(e: &Explanation) -> Vec<&'static str> {
        e.trace
            .names_pre_order()
            .into_iter()
            .filter(|n| n.starts_with("blu.clausal.") && *n != "blu.clausal.mask.step")
            .collect()
    }

    #[test]
    fn explained_insert_follows_the_mask_assert_paradigm() {
        let e = explained("EXPLAIN (insert {a | b})", &["(insert {c})"]);
        assert!(!e.trace.is_empty());

        // The statement span is the root; the translation (compile) and
        // the BLU evaluation both run beneath it.
        let names = e.trace.names_pre_order();
        assert_eq!(names[0], "hlu.stmt.insert");
        assert!(names.contains(&"hlu.compile"));
        assert!(names.contains(&"hlu.compile.insert"));
        assert!(names.contains(&"blu.eval.assert"));

        // Definition 3.2.3: insert = mask–assert — first derive the mask
        // (genmask), apply it (mask), then assert the new information.
        assert_eq!(
            clausal_ops(&e),
            vec![
                "blu.clausal.genmask",
                "blu.clausal.mask",
                "blu.clausal.assert"
            ],
        );
    }

    #[test]
    fn explained_modify_splits_with_combine() {
        let e = explained("EXPLAIN (modify {a} {b})", &["(insert {a})"]);
        let names = e.trace.names_pre_order();
        assert_eq!(names[0], "hlu.stmt.modify");
        assert!(names.contains(&"hlu.compile.modify"));

        // Definition 3.2.4: modify is a where-style split whose branches
        // recombine — `combine` must appear, and both branches mask.
        let ops = clausal_ops(&e);
        let count = |op: &str| ops.iter().filter(|n| **n == op).count();
        assert!(count("blu.clausal.combine") >= 1, "ops: {ops:?}");
        assert!(count("blu.clausal.genmask") >= 1, "ops: {ops:?}");
        assert!(count("blu.clausal.mask") >= 1, "ops: {ops:?}");
    }

    #[test]
    fn spans_carry_cost_attributes() {
        let e = explained("EXPLAIN (insert {a | b})", &["(insert {c})"]);
        // Every clausal primitive span records the theorem's dominant
        // cost term (Theorems 2.3.4(b)/2.3.6(b)/2.3.9(b)) as `cost`.
        let costed: Vec<_> = e
            .trace
            .spans
            .iter()
            .filter(|s| s.name.starts_with("blu.clausal.") && s.name != "blu.clausal.mask.step")
            .collect();
        assert!(!costed.is_empty());
        for s in &costed {
            assert!(s.attr_u64("cost").is_some(), "span {} has no cost", s.name);
        }
    }

    #[test]
    fn explain_leaves_ambient_tracing_untouched() {
        pwdb_trace::set_enabled(false);
        let _ = pwdb_trace::take();
        let e = explained("EXPLAIN (insert {a})", &[]);
        assert!(!e.trace.is_empty(), "EXPLAIN must trace even when off");
        // …but the ambient (disabled) ring must stay empty.
        assert!(pwdb_trace::take().is_empty());
        assert!(!pwdb_trace::is_enabled());
    }

    /// A durable `EXPLAIN` runs the same statement through the same BLU
    /// program as an in-memory one: the rendering's statement, compilation
    /// and bindings and the primitive sequence all agree.
    #[test]
    fn durable_and_in_memory_explain_agree() {
        for (src, setup) in [
            ("EXPLAIN (insert {a | b})", &["(insert {c})"][..]),
            ("EXPLAIN (modify {a} {b})", &["(insert {a})"][..]),
            (
                "EXPLAIN (where {c} (delete {a}))",
                &["(insert {a | c})"][..],
            ),
        ] {
            let memory = explained(src, setup);
            let durable = explained_durably(src, setup);
            assert_eq!(durable.statement, memory.statement, "{src}");
            assert_eq!(durable.compiled, memory.compiled, "{src}");
            assert_eq!(durable.args, memory.args, "{src}");
            assert_eq!(clausal_ops(&durable), clausal_ops(&memory), "{src}");
            assert!(!clausal_ops(&memory).is_empty(), "{src}");
            // The durable trace also covers the commit itself.
            assert!(
                durable
                    .trace
                    .names_pre_order()
                    .contains(&"store.durable.commit"),
                "{src}"
            );
            assert_eq!(durable.outcome.as_deref(), Some("committed"));
        }
    }

    /// Every span family the docs promise is recorded by a short session
    /// (updates of every primitive's kind plus a query), and the Chrome
    /// export carries one complete (`"ph": "X"`) event per captured span.
    #[test]
    fn span_families_are_recorded_and_exported_as_chrome_events() {
        let mut atoms = AtomTable::new();
        let mut db = ClausalDatabase::new();
        let mut run = |text: &str, db: &mut ClausalDatabase| {
            let prog = parse_hlu(text, &mut atoms).unwrap();
            db.run(&prog);
        };
        let ((), trace) = pwdb_trace::capture(|| {
            run("(insert {a | b})", &mut db);
            run("(delete {a})", &mut db);
            run("(where {c} (insert {a}))", &mut db);
            db.is_certain(&Wff::atom(1));
        });
        let names = trace.names_pre_order();
        for family in [
            "blu.clausal.assert",
            "blu.clausal.combine",
            "blu.clausal.complement",
            "blu.clausal.mask",
            "blu.clausal.genmask",
            "logic.dpll.solve",
            "hlu.stmt.insert",
            "hlu.query.certain",
        ] {
            assert!(
                names.contains(&family),
                "span family {family} never recorded"
            );
        }

        let Json::Obj(doc) = pwdb_trace::export_chrome(&trace) else {
            panic!("the export is not an object");
        };
        let Some((_, Json::Arr(events))) = doc.iter().find(|(k, _)| k == "traceEvents") else {
            panic!("traceEvents missing");
        };
        assert_eq!(events.len(), trace.spans.len());
        for (ev, span) in events.iter().zip(&trace.spans) {
            let Json::Obj(fields) = ev else {
                panic!("event is not an object: {ev:?}");
            };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(
                keys,
                ["name", "cat", "ph", "ts", "dur", "pid", "tid", "args"]
            );
            assert_eq!(fields[0].1, Json::Str(span.name.to_owned()));
            assert_eq!(fields[2].1, Json::Str("X".to_owned()));
            assert_eq!(fields[3].1, Json::UInt(span.start_ns / 1_000));
            assert_eq!(fields[4].1, Json::UInt(span.dur_ns / 1_000));
        }
    }

    #[test]
    fn rendered_explanation_shows_statement_and_tree() {
        let e = explained("EXPLAIN (insert {a | b})", &[]);
        let text = e.render();
        assert!(text.contains("statement: (insert {A1 | A2})"), "{text}");
        assert!(text.contains("compiled:"), "{text}");
        assert!(text.contains("hlu.stmt.insert"), "{text}");
        assert!(text.contains("blu.clausal.assert"), "{text}");
    }
}
