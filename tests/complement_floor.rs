//! `complement`'s step floor (Theorem 2.3.4(b)) is sound, and reserving it
//! changes no outcome.
//!
//! `BluClausal::complement_floor(Φ)` is a lower bound on the governor
//! steps `complement_clauses(Φ)` charges, and a governed `complement`
//! reserves it before forming any product. The seeded loops below check,
//! over random clause sets that include tautologies, `□` and
//! unsatisfiable sets:
//!
//! 1. the floor never exceeds the steps an unlimited run spends;
//! 2. under any step budget `b`, the governed run succeeds exactly when
//!    that unlimited spend is at most `b`, and a run that succeeds spends
//!    exactly what the unlimited run spends;
//! 3. on the adversarial `delete` corpus the floor alone exceeds a
//!    500,000-step budget, so those statements are refused up front.

use pwdb::blu::BluClausal;
use pwdb::hlu::HluProgram;
use pwdb::logic::{cnf_of, govern, governor, is_satisfiable, Budget, ExecError, Limits};
use pwdb::logic::{AtomId, Clause, ClauseSet, Literal, Rng};
use pwdb_suite::testgen;

const CASES: usize = 12_000;
const ATOMS: usize = 5;

/// A random clause set; half lose `□` (the generator draws it often),
/// and one in four gets a tautology, which `ClauseSet::insert` would
/// filter out.
fn clause_set(rng: &mut Rng) -> ClauseSet {
    let mut phi = testgen::clause_set(rng, ATOMS, 7, 3);
    if rng.coin() {
        phi.remove(&Clause::empty());
    }
    if rng.below(4) == 0 {
        let a = AtomId(rng.below(ATOMS as u64) as u32);
        let other = Literal::new(AtomId(rng.below(ATOMS as u64) as u32), rng.coin());
        phi.insert_raw(Clause::new(vec![Literal::pos(a), Literal::neg(a), other]));
    }
    phi
}

/// The steps an unlimited governed `complement` of `phi` spends.
fn unlimited_spend(phi: &ClauseSet) -> u64 {
    govern(&Limits::unlimited(), || BluClausal::complement_clauses(phi)).unwrap();
    governor::last_spent()
}

#[test]
fn floor_never_exceeds_the_steps_complement_spends() {
    let mut rng = Rng::new(0xF100_0001);
    let (mut nonzero, mut tautologies, mut empties, mut unsat) = (0, 0, 0, 0);
    let mut max_ratio = 0f64;
    for case in 0..CASES {
        let phi = clause_set(&mut rng);
        let floor = BluClausal::complement_floor(&phi);
        let spent = unlimited_spend(&phi);
        assert!(
            floor <= spent,
            "case {case}: floor {floor} > spent {spent} for {phi:?}"
        );
        if floor > 0 {
            nonzero += 1;
            max_ratio = max_ratio.max(floor as f64 / spent as f64);
        }
        tautologies += usize::from(phi.iter().any(Clause::is_tautology));
        empties += usize::from(phi.has_empty_clause());
        unsat += usize::from(!is_satisfiable(&phi));
    }
    println!(
        "{CASES} sets: {nonzero} nonzero floors (max floor/spent {max_ratio:.3}), \
         {tautologies} with a tautology, {empties} with □, {unsat} unsatisfiable"
    );
    assert!(nonzero > CASES / 10, "only {nonzero} nonzero floors");
    for (what, n) in [("tautology", tautologies), ("□", empties), ("unsat", unsat)] {
        assert!(n > CASES / 50, "only {n} sets with {what}");
    }
}

#[test]
fn a_budget_refuses_complement_exactly_when_the_work_exceeds_it() {
    let mut rng = Rng::new(0xF100_0002);
    let (mut committed, mut refused) = (0, 0);
    for case in 0..CASES {
        let phi = clause_set(&mut rng);
        let spent = unlimited_spend(&phi);
        let budget = match rng.below(3) {
            0 => spent,
            1 => spent.saturating_sub(1),
            _ => rng.below(2 * spent + 2),
        };
        let limits = Limits::budget(Budget::steps(budget));
        match govern(&limits, || BluClausal::complement_clauses(&phi)) {
            Ok(_) => {
                assert!(
                    spent <= budget,
                    "case {case}: {spent} steps ran under {budget}"
                );
                assert_eq!(
                    governor::last_spent(),
                    spent,
                    "case {case}: a reservation charged"
                );
                committed += 1;
            }
            Err(ExecError::BudgetExceeded { limit, .. }) => {
                assert_eq!(limit, budget);
                assert!(
                    spent > budget,
                    "case {case}: refused {spent} steps under {budget}"
                );
                refused += 1;
            }
            Err(other) => panic!("case {case}: {other:?}"),
        }
    }
    println!("{CASES} budgets: {committed} committed, {refused} refused");
    assert!(committed > CASES / 4 && refused > CASES / 4);
}

#[test]
fn floor_exceeds_the_benchmark_budget_on_the_adversarial_corpus() {
    for (i, stmt) in testgen::exponential_update_corpus(24, 8).iter().enumerate() {
        let HluProgram::Delete(wff) = stmt else {
            panic!("statement {i} is not a delete: {stmt:?}");
        };
        let floor = BluClausal::complement_floor(&cnf_of(wff));
        assert!(floor > 500_000, "statement {i}: floor {floor}");
    }
}
