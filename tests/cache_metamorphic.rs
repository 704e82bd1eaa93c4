//! Metamorphic tests for the genmask memo and the subsumption-insert
//! contract.
//!
//! The genmask memo (`blu.cache.genmask`) is keyed on its *full* input
//! (the strategy and the `ClauseSet` itself), so a stale answer is only
//! possible if keying or invalidation is wrong. These tests interleave
//! state-mutating primitives (`assert`, `combine`) with repeated
//! `genmask` calls and demand that every cached answer equals a fresh
//! computation — both a cache-cleared indexed run and the
//! cache-bypassing naive engine.
//!
//! The file also pins the `insert_with_subsumption` return-count
//! contract on duplicate and mutually-subsuming inputs (the latent
//! asymmetry where a clause equal to an existing member was reported
//! "added"), for both engines.

use pwdb::blu::{BluClausal, BluSemantics, GenmaskStrategy};
use pwdb::logic::subsumption::insert_with_subsumption;
use pwdb::logic::{cache, with_engine, AtomId, Clause, ClauseSet, EngineMode, Literal, Rng};
use pwdb_suite::testgen;

const N_ATOMS: usize = 5;

fn lit(a: u32, pos: bool) -> Literal {
    Literal::new(AtomId(a), pos)
}

fn clause(lits: &[(u32, bool)]) -> Clause {
    Clause::new(lits.iter().map(|&(a, p)| lit(a, p)).collect())
}

fn set(clauses: &[&[(u32, bool)]]) -> ClauseSet {
    clauses.iter().map(|c| clause(c)).collect()
}

/// Interleaves state-mutating primitives with repeated `genmask` calls:
/// every repeat must equal the first (memoized) answer, a cache-cleared
/// recomputation, and the naive engine's answer on the same state.
#[test]
fn genmask_cache_survives_interleaved_mutations() {
    let mut rng = Rng::new(0xCAC1);
    let alg = BluClausal::new().with_genmask(GenmaskStrategy::PaperExhaustive);
    let mut state = testgen::clause_set(&mut rng, N_ATOMS, 4, 3);
    for step in 0..24 {
        let operand = testgen::clause_set(&mut rng, N_ATOMS, 3, 3);
        // Mutating primitive: alternates assert/combine, each of which
        // yields a new state, hence a new memo key.
        state = with_engine(EngineMode::Indexed, || {
            if step % 2 == 0 {
                alg.op_assert(&state, &operand)
            } else {
                alg.op_combine(&state, &operand)
            }
        });
        let first = with_engine(EngineMode::Indexed, || alg.op_genmask(&state));
        let repeated = with_engine(EngineMode::Indexed, || alg.op_genmask(&state));
        assert_eq!(first, repeated, "step {step}: memoized repeat diverged");
        let cold = with_engine(EngineMode::Indexed, || {
            cache::clear_all();
            alg.op_genmask(&state)
        });
        assert_eq!(
            first, cold,
            "step {step}: cached answer != cache-cleared answer"
        );
        let naive = with_engine(EngineMode::Naive, || alg.op_genmask(&state));
        assert_eq!(first, naive, "step {step}: cached answer != naive engine");
    }
}

/// The genmask memo actually memoizes: after a state mutation, a
/// repeated call on the same state registers as a hit and the memo
/// holds the computed entry.
#[test]
fn genmask_memo_counts_a_repeat_as_a_hit() {
    with_engine(EngineMode::Indexed, || {
        cache::clear_all();
        let alg = BluClausal::new();
        let mut rng = Rng::new(0xCAC3);
        let x = testgen::clause_set(&mut rng, N_ATOMS, 4, 3);
        let y = testgen::clause_set(&mut rng, N_ATOMS, 3, 3);
        let _ = alg.op_assert(&x, &y); // state mutation
        let _ = alg.op_genmask(&x); // miss
        let _ = alg.op_genmask(&x); // hit
        let stats = cache::all_stats();
        let genmask = stats
            .iter()
            .find(|s| s.name == "blu.cache.genmask")
            .expect("genmask cache registered");
        assert!(genmask.entries >= 1, "memo holds the computed entry");
        assert!(genmask.hits >= 1, "repeat call must hit the memo");
    });
}

/// `reduce_subsumed` is idempotent under both engines: a second sweep
/// over an already-reduced set drops nothing and changes nothing, even
/// when the first sweep ran through indexed insertion.
#[test]
fn reduce_subsumed_is_idempotent() {
    let mut rng = Rng::new(0xCAC4);
    for case in 0..48 {
        let original = testgen::clause_set(&mut rng, N_ATOMS, 8, 4);
        for mode in [EngineMode::Naive, EngineMode::Indexed] {
            with_engine(mode, || {
                let mut s = original.clone();
                s.reduce_subsumed();
                let reduced = s.clone();
                let dropped_again = s.reduce_subsumed();
                assert_eq!(
                    dropped_again, 0,
                    "case {case} {mode:?}: second sweep dropped"
                );
                assert_eq!(
                    s, reduced,
                    "case {case} {mode:?}: second sweep changed the set"
                );
            });
        }
    }
}

/// Pins the insert contract on duplicates: a clause equal to an existing
/// member is *not* added (the pre-fix scan reported it "added" because a
/// clause subsumes itself, short-circuiting the forward check without
/// membership ever being consulted).
#[test]
fn insert_duplicate_reports_not_added() {
    let base = set(&[&[(0, true), (1, true)], &[(2, false)]]);
    for mode in [EngineMode::Naive, EngineMode::Indexed] {
        with_engine(mode, || {
            let mut s = base.clone();
            let added = insert_with_subsumption(&mut s, clause(&[(0, true), (1, true)]));
            assert!(!added, "{mode:?}: duplicate insert must report not-added");
            assert_eq!(
                s, base,
                "{mode:?}: duplicate insert must not change the set"
            );
        });
    }
}

/// Pins the insert contract on proper subsumption in both directions.
#[test]
fn insert_subsumption_counts_are_pinned() {
    let base = set(&[&[(0, true), (1, true)], &[(2, false)]]);
    for mode in [EngineMode::Naive, EngineMode::Indexed] {
        with_engine(mode, || {
            // A strictly weaker clause is absorbed: not added, set intact.
            let mut s = base.clone();
            let added = insert_with_subsumption(&mut s, clause(&[(0, true), (1, true), (3, true)]));
            assert!(!added, "{mode:?}: subsumed insert must report not-added");
            assert_eq!(s, base);

            // A strictly stronger clause replaces its victims.
            let mut s = base.clone();
            let added = insert_with_subsumption(&mut s, clause(&[(0, true)]));
            assert!(added, "{mode:?}: subsuming insert must report added");
            assert_eq!(s, set(&[&[(0, true)], &[(2, false)]]));
        });
    }
}
