//! Counters that must match the work done exactly.
//!
//! `pwdb-metrics` counters are process-global, so exact deltas are only
//! trustworthy where nothing else runs concurrently. This binary
//! therefore holds a single test, run in sequence: one timer event per
//! span of each timed operation, one memo hit or one solve per query,
//! one governor outcome counter per
//! governed statement (an isolated engine panic included), one
//! `complement` product per disjunction formed, one fsync per
//! durable commit, one snapshot write per checkpoint, a replay count
//! equal to the log suffix recovery re-applied, and one degraded-mode
//! entry per outage. `genmask` keeps no state: a repeated call on one
//! input does the same work and charges the same steps as the first.

use pwdb::blu::{BluClausal, BluSemantics, GenmaskStrategy};
use pwdb::hlu::{ClausalDatabase, GovernedError, HluProgram, InstanceDatabase};
use pwdb::logic::{
    govern, governor, parse_clause_set, AtomTable, Budget, ExecError, Limits, Rng, Wff,
};
use pwdb::store::{RetryPolicy, TestDir, WriteFaultKind, WriteFaults};
use pwdb_suite::testgen;

const STATEMENTS: usize = 64;

/// The counter `name`'s delta across `f`, with `f`'s result.
fn delta<T>(name: &str, f: impl FnOnce() -> T) -> (u64, T) {
    let before = pwdb_metrics::snapshot();
    let out = f();
    (pwdb_metrics::snapshot().delta(&before).counter(name), out)
}

#[test]
fn counters_match_the_work_done() {
    let mut rng = Rng::new(0x570BE);
    let programs: Vec<_> = (0..STATEMENTS)
        .map(|_| testgen::hlu_program(&mut rng, 4))
        .collect();
    let mut oracle = ClausalDatabase::new();
    for p in &programs {
        oracle.run(p);
    }

    // Each timed operation's timer counts exactly its spans: the BLU
    // primitives, the statement kinds, the queries and the constraint
    // enforcement.
    pwdb_trace::set_capacity(1 << 22);
    let before = pwdb_metrics::snapshot();
    let ((), trace) = pwdb_trace::capture(|| {
        let mut db = ClausalDatabase::new().with_constraints(Wff::atom(0).or(Wff::atom(1)));
        for p in &programs {
            db.run(p);
            db.is_certain(&Wff::atom(2));
            db.is_possible(&Wff::atom(3));
        }
    });
    pwdb_trace::set_capacity(pwdb_trace::DEFAULT_CAPACITY);
    assert_eq!(trace.dropped, 0, "the ring must hold every span");
    let d = pwdb_metrics::snapshot().delta(&before);
    let calls = |timer: &str| d.timers.get(timer).map_or(0, |t| t.count);
    let spans = |name: &str| trace.spans.iter().filter(|s| s.name == name).count() as u64;
    for op in ["assert", "combine", "complement", "mask", "genmask"] {
        let timer = format!("blu.{op}.wall");
        assert!(calls(&timer) > 0, "{timer} never ran");
        assert_eq!(
            calls(&timer),
            spans(&format!("blu.clausal.{op}")),
            "{timer}"
        );
    }
    let kinds = [
        "identity", "assert", "clear", "insert", "delete", "modify", "where",
    ];
    let mut statements = 0;
    for kind in kinds {
        let name = format!("hlu.stmt.{kind}");
        assert_eq!(calls(&name), spans(&name), "{name}");
        statements += calls(&name);
    }
    assert_eq!(statements, STATEMENTS as u64);
    for (timer, span) in [
        ("hlu.query.certain.wall", "hlu.query.certain"),
        ("hlu.query.possible.wall", "hlu.query.possible"),
        ("hlu.constraints.wall", "hlu.constraints"),
    ] {
        assert_eq!(calls(timer), STATEMENTS as u64, "{timer}");
        assert_eq!(spans(span), STATEMENTS as u64, "{span}");
    }

    // `genmask` is computed from its parameter on every call: a repeat
    // charges the same steps and does the same work as the first call.
    let mut atoms = AtomTable::with_indexed_atoms(4);
    let param = parse_clause_set("{A1 | A2, !A2 | A3, A4 | !A1}", &mut atoms).unwrap();
    for (strategy, work) in [
        (GenmaskStrategy::PaperExhaustive, "blu.genmask.assignments"),
        (GenmaskStrategy::SatBased, "logic.dpll.solves"),
    ] {
        let alg = BluClausal::new().with_genmask(strategy);
        let calls: Vec<_> = (0..2)
            .map(|_| {
                let (done, mask) = delta(work, || {
                    govern(&Limits::unlimited(), || alg.op_genmask(&param)).unwrap()
                });
                (governor::last_spent(), done, mask)
            })
            .collect();
        assert!(calls[0].0 > 0 && calls[0].1 > 0, "{strategy:?}: {calls:?}");
        assert_eq!(calls[0], calls[1], "{strategy:?}");
    }

    // Every query is answered either from the per-state memo (one
    // `hlu.query.memo.hits`) or by exactly one solve, and a repeated query
    // on an unchanged state is a hit.
    let queries = [
        Wff::atom(2),
        Wff::atom(0).and(Wff::atom(3).not()),
        Wff::atom(1).or(Wff::atom(2)),
        Wff::atom(0).implies(Wff::atom(3)),
    ];
    let mut db = ClausalDatabase::new().with_constraints(Wff::atom(0).or(Wff::atom(1)));
    let (mut asked, mut hits, mut solves) = (0, 0, 0);
    for (i, p) in programs.iter().enumerate() {
        if i % 2 == 0 {
            db.run(p);
        } else {
            let _ = db.run_governed(p, &Limits::unlimited());
        }
        let before = pwdb_metrics::snapshot();
        for q in &queries {
            db.is_certain(q);
            db.is_possible(q);
            asked += 2;
        }
        let d = pwdb_metrics::snapshot().delta(&before);
        hits += d.counter("hlu.query.memo.hits");
        solves += d.counter("logic.dpll.solves");
        let (repeat_hits, _) = delta("hlu.query.memo.hits", || db.is_certain(&queries[1]));
        assert_eq!(repeat_hits, 1, "repeated query after {p}");
    }
    assert_eq!(hits + solves, asked);
    assert!(hits > 0 && solves > 0, "{hits} hits, {solves} solves");

    // Each governed statement lands in exactly one outcome counter.
    let generous = Limits::budget(Budget::steps(u64::MAX / 2));
    let tight = Limits::budget(Budget::steps(100_000));
    let corpus = testgen::exponential_update_corpus(24, 2);
    let mut governed = ClausalDatabase::new();
    let before = pwdb_metrics::snapshot();
    let stream = programs.iter().map(|p| (p, &generous));
    let stream = stream.chain(corpus.iter().map(|p| (p, &tight)));
    let results: Vec<_> = stream
        .map(|(p, limits)| governed.run_governed(p, limits))
        .collect();
    let d = pwdb_metrics::snapshot().delta(&before);
    let count = |pred: fn(&Result<(), GovernedError>) -> bool| {
        results.iter().filter(|r| pred(r)).count() as u64
    };
    assert_eq!(d.counter("governor.stmt.total"), results.len() as u64);
    assert_eq!(d.counter("governor.stmt.committed"), count(|r| r.is_ok()));
    assert_eq!(
        d.counter("governor.stmt.rejected"),
        count(|r| matches!(r, Err(GovernedError::Rejected)))
    );
    assert_eq!(
        d.counter("governor.stmt.budget_exceeded"),
        count(|r| matches!(
            r,
            Err(GovernedError::Exec(ExecError::BudgetExceeded { .. }))
        ))
    );
    assert_eq!(
        d.counter("governor.stmt.budget_exceeded"),
        corpus.len() as u64
    );

    // `complement` counts each product it forms: 2 for the first clause,
    // 2·3 for the second. An adversarial statement whose floor exceeds
    // its budget is refused, one step over, before it forms any.
    let mut atoms = AtomTable::with_indexed_atoms(8);
    let phi = parse_clause_set("{A1 | A2, A3 | A4 | A5}", &mut atoms).unwrap();
    let (products, _) = delta("blu.complement.products", || {
        BluClausal::complement_clauses(&phi)
    });
    assert_eq!(products, 2 + 6);
    let adversarial = &testgen::exponential_update_corpus(24, 1)[0];
    let (products, result) = delta("blu.complement.products", || {
        ClausalDatabase::new().run_governed(adversarial, &tight)
    });
    assert_eq!(
        result,
        Err(GovernedError::Exec(ExecError::BudgetExceeded {
            spent: 100_001,
            limit: 100_000
        }))
    );
    assert_eq!(products, 0);

    // An engine panic is isolated at the statement: nothing is installed,
    // and the statement lands in `governor.stmt.panicked`. The instance
    // backend refuses a parameter beyond its universe with an assertion.
    let mut small = InstanceDatabase::with_atoms(2);
    small.insert(Wff::atom(0));
    let (state, history) = (small.state().clone(), small.history().to_vec());
    let (panicked, result) = delta("governor.stmt.panicked", || {
        small.run_governed(&HluProgram::Insert(Wff::atom(4)), &Limits::unlimited())
    });
    assert_eq!(
        result,
        Err(GovernedError::Exec(ExecError::EnginePanic {
            message: "assertion failed: wff.atom_bound() <= n_atoms".into()
        }))
    );
    assert_eq!(panicked, 1);
    assert_eq!(small.state(), &state);
    assert_eq!(small.updates_run(), 1);
    assert_eq!(small.history(), &history[..]);

    // One fsync per durable commit.
    let dir = TestDir::new("metrics-fsync");
    let mut db = ClausalDatabase::open(dir.path()).unwrap();
    let (fsyncs, ()) = delta("store.wal.fsyncs", || {
        for p in &programs {
            db.run(p).unwrap();
        }
    });
    assert_eq!(fsyncs as usize, STATEMENTS);
    assert_eq!(db.state(), oracle.state(), "durable run diverged");
    drop(db);

    // Without a snapshot, recovery replays every statement.
    let (replayed, db) = delta("store.recover.replayed", || {
        ClausalDatabase::open(dir.path()).unwrap()
    });
    assert_eq!(replayed as usize, STATEMENTS);
    assert_eq!(db.recovery_report().replayed, STATEMENTS);
    assert_eq!(db.state(), oracle.state(), "log recovery diverged");

    // One checkpoint writes one snapshot; recovery from it replays none.
    let mut db = db;
    let (writes, _) = delta("store.snapshot.writes", || db.checkpoint().unwrap());
    assert_eq!(writes, 1);
    drop(db);
    let (replayed, db) = delta("store.recover.replayed", || {
        ClausalDatabase::open(dir.path()).unwrap()
    });
    assert_eq!(replayed, 0);
    assert_eq!(db.recovery_report().replayed, 0);
    assert_eq!(db.recovery_report().from_snapshot, STATEMENTS);
    assert_eq!(db.state(), oracle.state(), "snapshot recovery diverged");

    // A persistent write fault degrades the store once; reads go on.
    let mut db = db;
    db.inject_write_faults(WriteFaults::persistent_from(0, WriteFaultKind::Eio));
    db.set_retry_policy(RetryPolicy::none());
    let (entered, result) = delta("store.degraded.entered", || db.run(&programs[0]));
    assert!(result.is_err());
    assert_eq!(entered, 1);
    assert!(db.is_degraded());
    assert_eq!(
        db.is_certain(&Wff::atom(0)),
        oracle.is_certain(&Wff::atom(0))
    );
}
