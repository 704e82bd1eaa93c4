//! The clausal database's per-state query memo answers exactly what a
//! refutation answers.
//!
//! Random episodes drive a clausal database through ungoverned and
//! governed statements (rejected and over-budget ones included),
//! wholesale `set_state`, `normalize` and integrity constraints. After
//! every step they ask literal queries — literals, conjunctions and
//! disjunctions, some behind a negation, some naming atoms past the
//! state's bound — and a few arbitrary wffs, on consistent and
//! inconsistent states. Every answer must equal the world-set truth and
//! the naive engine's answer, which never reads the memo.

use pwdb::hlu::{ClausalDatabase, HluProgram};
use pwdb::logic::{
    set_engine_mode, with_engine, AtomId, Budget, ClauseSet, EngineMode, Limits, Literal, Rng, Wff,
};
use pwdb::worlds::WorldSet;
use pwdb_suite::testgen;

/// Atoms the statements, constraints and states use.
const N: usize = 5;
/// Atoms the queries may name: two past every state's bound.
const Q: usize = N + 2;
const EPISODES: usize = 300;
const STEPS: usize = 10;
const QUERIES: usize = 12;

/// `f` under the naive engine; the caller holds the engine lock with the
/// indexed engine selected.
fn naive<T>(f: impl FnOnce() -> T) -> T {
    set_engine_mode(EngineMode::Naive);
    let out = f();
    set_engine_mode(EngineMode::Indexed);
    out
}

/// A literal query: one to four literals over `Q` atoms joined by one
/// connective, negated as a whole one time in four; or, one time in six,
/// an arbitrary wff (which the memo leaves to refutation).
fn query(rng: &mut Rng) -> Wff {
    if rng.below(6) == 0 {
        return testgen::wff(rng, Q, 2);
    }
    let lits: Vec<Wff> = (0..rng.range_usize(1, 5))
        .map(|_| Wff::literal(Literal::new(AtomId(rng.below(Q as u64) as u32), rng.coin())))
        .collect();
    let q = if rng.coin() {
        Wff::conj(lits)
    } else {
        Wff::disj(lits)
    };
    if rng.below(4) == 0 {
        q.not()
    } else {
        q
    }
}

/// One random step of an episode.
fn step(db: &mut ClausalDatabase, rng: &mut Rng) {
    match rng.below(10) {
        0..=2 => db.run(&testgen::hlu_program(rng, N)),
        3..=6 => {
            let limits = match rng.below(3) {
                0 => Limits::budget(Budget::steps(rng.below(400) + 1)),
                _ => Limits::unlimited(),
            };
            let prog = match rng.below(4) {
                // Often contradicts the state or the constraints: rejected.
                0 => HluProgram::Assert(testgen::wff(rng, N, 1)),
                _ => testgen::hlu_program(rng, N),
            };
            let _ = db.run_governed(&prog, &limits);
        }
        7 => db.set_state(testgen::clause_set(rng, N, 4, 3)),
        8 => db.set_state(ClauseSet::contradiction()),
        _ => db.normalize(),
    }
}

#[test]
fn memo_answers_equal_world_set_truth_and_the_naive_engine() {
    let (answered, hits) = with_engine(EngineMode::Indexed, || {
        let before = pwdb_metrics::snapshot();
        let mut rng = Rng::new(0x3E30);
        let mut answered = 0u64;
        for episode in 0..EPISODES {
            let mut db = if rng.coin() {
                ClausalDatabase::new_reduced()
            } else {
                ClausalDatabase::new()
            };
            if episode % 3 == 0 {
                db = db.with_constraints(testgen::wff(&mut rng, N, 1));
            }
            for _ in 0..STEPS {
                step(&mut db, &mut rng);
                let worlds = WorldSet::from_clauses(Q, db.state());
                let ctx = |q: &Wff| format!("episode {episode}, state {}, query {q}", db.state());
                assert_eq!(db.is_consistent(), !worlds.is_empty(), "{}", db.state());
                for _ in 0..QUERIES {
                    let q = query(&mut rng);
                    let certain = worlds.iter().all(|w| q.eval(&w));
                    let possible = worlds.iter().any(|w| q.eval(&w));
                    // Asked twice: the repeat reads what the first answer
                    // put in the memo.
                    for _ in 0..2 {
                        assert_eq!(db.is_certain(&q), certain, "certain: {}", ctx(&q));
                        assert_eq!(db.is_possible(&q), possible, "possible: {}", ctx(&q));
                        answered += 2;
                    }
                    assert_eq!(naive(|| db.is_certain(&q)), certain, "naive: {}", ctx(&q));
                    assert_eq!(naive(|| db.is_possible(&q)), possible, "naive: {}", ctx(&q));
                }
                assert_eq!(db.is_consistent(), !worlds.is_empty(), "{}", db.state());
            }
        }
        let hits = pwdb_metrics::snapshot()
            .delta(&before)
            .counter("hlu.query.memo.hits");
        (answered, hits)
    });
    // The memo must actually answer a share of the queries, or this test
    // checks nothing beyond refutation.
    assert!(
        hits > answered / 4,
        "{hits} memo hits in {answered} queries"
    );
}

#[test]
fn a_clone_keeps_answering_its_own_state() {
    with_engine(EngineMode::Indexed, || {
        let a = Wff::atom(0);
        let mut db = ClausalDatabase::new();
        db.run_governed(&HluProgram::Insert(a.clone()), &Limits::unlimited())
            .unwrap();
        assert!(db.is_certain(&a));
        let before = db.clone();
        db.run_governed(&HluProgram::Insert(a.clone().not()), &Limits::unlimited())
            .unwrap();
        assert!(db.is_certain(&a.clone().not()));
        assert!(!db.is_possible(&a));
        db = before;
        assert!(db.is_certain(&a));
        assert!(!db.is_possible(&a.not()));
    });
}
