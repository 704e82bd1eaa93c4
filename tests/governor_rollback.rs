//! The execution governor's end-to-end contract, on adversarial input.
//!
//! The corpus (`testgen::exponential_update_corpus`) is built from the
//! exponential prime-implicate family: each `(delete W)` statement
//! compiles to `(assert (mask s0 (genmask s1)) (complement s1))` and the
//! `complement` of `n` binary clauses plus one long clause is the
//! Θ(ε^L) product of Theorem 2.3.4(b) — ≈ `2^n · (n+1)` literals of work
//! at `n = 24`, far beyond any interactive budget.
//!
//! Three properties are pinned, per the governor's design:
//!
//! 1. **The corpus really is adversarial**: even a 10⁷-step budget — two
//!    orders of magnitude above the interactive budget used below — is
//!    exceeded. (Running ungoverned to completion would cost ≈ 8×10⁸
//!    steps; proving the threshold via a tripped 10⁷ budget keeps the
//!    test bounded.)
//! 2. **Budgets bound every statement**: under a 10⁵-step budget each
//!    corpus statement returns `BudgetExceeded` promptly, with bounded
//!    overshoot.
//! 3. **Failure is transactional**: after every failed statement the
//!    database — state, update count, history — is bit-identical to its
//!    pre-statement snapshot, under both engines, and a failed statement
//!    never reaches the WAL, so recovery reproduces exactly the committed
//!    prefix.

use pwdb::hlu::{ClausalDatabase, DurableError, GovernedError, HluProgram};
use pwdb::logic::{with_engine, Budget, EngineMode, ExecError, Limits, Resource};
use pwdb::store::TestDir;
use pwdb_suite::testgen;

/// 2^24 · 25 ≈ 4×10⁸ literal-steps of complement work per statement.
const N_PAIRS: usize = 24;
/// The interactive budget every statement must respect.
const TIGHT: u64 = 100_000;
/// The acceptance threshold the ungoverned corpus must exceed.
const THRESHOLD: u64 = 10_000_000;

fn corpus(count: usize) -> Vec<HluProgram> {
    testgen::exponential_update_corpus(N_PAIRS, count)
}

fn assert_steps_exceeded(err: &GovernedError, limit: u64) {
    match err {
        GovernedError::Exec(ExecError::BudgetExceeded {
            resource: Resource::Steps,
            spent,
            limit: l,
        }) => {
            assert_eq!(*l, limit);
            assert!(*spent > limit, "spent {spent} must exceed limit {limit}");
            // Overshoot is bounded by the largest single charge (one
            // clause-pair product), not by the blow-up.
            assert!(
                *spent < limit + 10_000,
                "overshoot must stay bounded: spent {spent} vs limit {limit}"
            );
        }
        other => panic!("expected BudgetExceeded(Steps), got {other:?}"),
    }
}

#[test]
fn corpus_exceeds_ten_million_steps_ungoverned() {
    for mode in [EngineMode::Naive, EngineMode::Indexed] {
        with_engine(mode, || {
            let mut db = ClausalDatabase::new();
            let limits = Limits::budget(Budget::steps(THRESHOLD));
            let err = db.run_governed(&corpus(1)[0], &limits).unwrap_err();
            assert_steps_exceeded(&err, THRESHOLD);
        });
    }
}

#[test]
fn tight_budget_bounds_every_statement_and_rolls_back() {
    for mode in [EngineMode::Naive, EngineMode::Indexed] {
        with_engine(mode, || {
            let mut db = ClausalDatabase::new();
            // Non-trivial pre-state so rollback has something to restore.
            db.run(&parse_stmt("(insert {A1 | A2})"));
            db.run(&parse_stmt("(assert {A3})"));
            let pre_state = db.state().clone();
            let pre_history = db.history().to_vec();
            let pre_updates = db.updates_run();

            let limits = Limits::budget(Budget::steps(TIGHT));
            for stmt in corpus(3) {
                let err = db.run_governed(&stmt, &limits).unwrap_err();
                assert_steps_exceeded(&err, TIGHT);
                assert_eq!(db.state(), &pre_state, "state must roll back ({mode:?})");
                assert_eq!(db.history(), &pre_history[..], "history must roll back");
                assert_eq!(db.updates_run(), pre_updates);
            }

            // The same budget is ample for ordinary statements: the
            // governed path still commits real work.
            db.run_governed(&parse_stmt("(delete {A2})"), &limits)
                .expect("benign statement commits under the same budget");
            assert_eq!(db.updates_run(), pre_updates + 1);
        });
    }
}

#[test]
fn live_clause_and_wall_clock_budgets_also_bound_the_corpus() {
    let mut db = ClausalDatabase::new();
    let limits = Limits::budget(Budget::unlimited().with_live_clauses(2_000));
    let err = db.run_governed(&corpus(1)[0], &limits).unwrap_err();
    match err {
        GovernedError::Exec(ExecError::BudgetExceeded {
            resource: Resource::LiveClauses,
            ..
        }) => {}
        other => panic!("expected BudgetExceeded(LiveClauses), got {other:?}"),
    }
    assert_eq!(db.updates_run(), 0);

    let limits = Limits::budget(Budget::unlimited().with_wall(std::time::Duration::from_millis(5)));
    let err = db.run_governed(&corpus(1)[0], &limits).unwrap_err();
    match err {
        GovernedError::Exec(ExecError::BudgetExceeded {
            resource: Resource::WallClockMs,
            ..
        }) => {}
        other => panic!("expected BudgetExceeded(WallClockMs), got {other:?}"),
    }
    assert_eq!(db.updates_run(), 0);
}

#[test]
fn durable_path_never_logs_failed_statements_and_recovery_matches() {
    let dir = TestDir::new("governor-durable-rollback");
    let committed = ["(insert {A1 | A2})", "(assert {A3})", "(delete {A2})"];
    {
        let mut db = ClausalDatabase::open(dir.path()).unwrap();
        db.run(&parse_stmt(committed[0])).unwrap();
        db.run(&parse_stmt(committed[1])).unwrap();

        let pre_state = db.state().clone();
        let pre_records = db.store_stats().wal_records;
        let limits = Limits::budget(Budget::steps(TIGHT));
        for stmt in corpus(2) {
            let err = db.run_governed(&stmt, &limits).unwrap_err();
            assert!(
                matches!(
                    err,
                    DurableError::Exec(ExecError::BudgetExceeded {
                        resource: Resource::Steps,
                        ..
                    })
                ),
                "{err:?}"
            );
            assert_eq!(db.state(), &pre_state, "memory must roll back");
            assert_eq!(
                db.store_stats().wal_records,
                pre_records,
                "a failed statement must never reach the WAL"
            );
        }

        // Governed success is logged like any committed statement.
        db.run_governed(&parse_stmt(committed[2]), &limits).unwrap();
    }

    // Recovery sees exactly the committed prefix.
    let recovered = ClausalDatabase::open(dir.path()).unwrap();
    assert_eq!(recovered.updates_run(), committed.len());

    let mut oracle = ClausalDatabase::new();
    let mut atoms = pwdb::logic::AtomTable::new();
    for text in committed {
        oracle.run(&pwdb::hlu::parse_hlu(text, &mut atoms).unwrap());
    }
    assert_eq!(recovered.state(), oracle.state());
    assert_eq!(recovered.history(), oracle.history());
}

/// Parses a statement over the default `A<i>` table.
fn parse_stmt(text: &str) -> HluProgram {
    let mut atoms = pwdb::logic::AtomTable::with_indexed_atoms(8);
    pwdb::hlu::parse_hlu(text, &mut atoms).unwrap()
}

/// A statement's outcome under the governor, without its step count.
fn outcome(result: &Result<(), GovernedError>) -> String {
    match result {
        Ok(()) => "committed".into(),
        Err(GovernedError::Rejected) => "rejected".into(),
        Err(GovernedError::Exec(ExecError::BudgetExceeded {
            resource, limit, ..
        })) => format!("budget exceeded: {resource:?} limit {limit}"),
        Err(other) => format!("{other:?}"),
    }
}

/// The reduced algebra's factored `combine` and one-index `mask` change
/// how much work a statement does, never its outcome. On a stream that
/// interleaves the adversarial corpus with chained `modify`/`where`
/// statements and a refused `assert`, both engines commit, reject and
/// abort exactly the same statements, and no statement the indexed
/// engine finishes costs it more governor steps than the naive engine.
/// (Aborted statements stop just past the limit under either engine, so
/// their step counts differ only by the last charge.)
#[test]
fn outcomes_match_across_engines_and_the_factored_path_spends_no_more() {
    let mut rng = pwdb::logic::Rng::new(0x60BE);
    let mut stream = vec![
        parse_stmt("(insert {A1 | A2})"),
        parse_stmt("(assert {A3})"),
    ];
    for (i, adversarial) in corpus(3).into_iter().enumerate() {
        for _ in 0..6 {
            let modify = |rng: &mut pwdb::logic::Rng| {
                HluProgram::Modify(testgen::wff(rng, 6, 1), testgen::wff(rng, 6, 2))
            };
            let stmt = if rng.coin() {
                modify(&mut rng)
            } else {
                let (then, otherwise) = (modify(&mut rng), modify(&mut rng));
                HluProgram::where2(testgen::wff(&mut rng, 6, 1), then, otherwise)
            };
            stream.push(stmt);
        }
        stream.push(adversarial);
        if i == 1 {
            stream.push(parse_stmt("(assert {A7})"));
            stream.push(parse_stmt("(assert {!A7})"));
        }
    }
    let limits = Limits::budget(Budget::steps(TIGHT));
    let run = |mode| {
        with_engine(mode, || {
            let mut db = ClausalDatabase::new_reduced();
            stream
                .iter()
                .map(|stmt| {
                    let result = db.run_governed(stmt, &limits);
                    (outcome(&result), pwdb::logic::governor::last_spent())
                })
                .collect::<Vec<_>>()
        })
    };
    let naive = run(EngineMode::Naive);
    let indexed = run(EngineMode::Indexed);
    let outcomes = |runs: &[(String, u64)]| runs.iter().map(|r| r.0.clone()).collect::<Vec<_>>();
    assert_eq!(outcomes(&naive), outcomes(&indexed));
    for kind in ["committed", "rejected", "budget exceeded"] {
        assert!(
            naive.iter().any(|(o, _)| o.starts_with(kind)),
            "the stream must exercise `{kind}`"
        );
    }
    for (i, ((o, naive_steps), (_, indexed_steps))) in naive.iter().zip(&indexed).enumerate() {
        if !o.starts_with("budget exceeded") {
            assert!(
                indexed_steps <= naive_steps,
                "statement {i} ({o}): indexed spent {indexed_steps}, naive {naive_steps}"
            );
        }
    }
}
