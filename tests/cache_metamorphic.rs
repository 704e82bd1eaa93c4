//! Metamorphic tests for the subsumption-insert contract.
//!
//! They pin the `insert_with_subsumption` return-count contract on
//! duplicate and mutually-subsuming inputs (the latent asymmetry where a
//! clause equal to an existing member was reported "added"), and the
//! idempotence of `reduce_subsumed`, for both engines.

use pwdb::logic::subsumption::insert_with_subsumption;
use pwdb::logic::{with_engine, AtomId, Clause, ClauseSet, EngineMode, Literal, Rng};
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
