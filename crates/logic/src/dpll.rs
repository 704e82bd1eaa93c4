//! A complete DPLL SAT solver over clause sets.
//!
//! The paper's algorithms lean on semantic questions that are NP-hard in
//! general — dependence of a clause set on a letter is NP-complete
//! (Theorem 2.3.9(c)) — so a real solver is part of the substrate. This is
//! a classical recursive DPLL with unit propagation and pure-literal
//! elimination; clause sets in this domain are small enough that watched
//! literals and clause learning would be over-engineering, but the solver
//! is exact and handles the worst cases the benchmarks construct.

use pwdb_metrics::counter;
use pwdb_trace::span;

use crate::atom::AtomId;
use crate::clause::Clause;
use crate::clause_set::ClauseSet;
use crate::literal::Literal;
use crate::truth::Assignment;
use crate::wff::Wff;

/// A reusable DPLL solver instance.
///
/// Borrows the clauses it solves over: building a solver is one vector
/// of slice pointers into the caller's clause sets, with no clause
/// copied. Assumption literals may be supplied per query, which is how
/// entailment (`Φ ⊨ ψ` as `unsat(Φ ∧ ¬ψ)`) is implemented without copying
/// `Φ`.
pub struct Solver<'a> {
    clauses: Vec<&'a [Literal]>,
    n_atoms: usize,
}

/// Result of a satisfiability query: a model if one exists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SatResult {
    /// Satisfiable, with a witness over the solve's atoms, cut at 64: an
    /// [`Assignment`] packs one atom per bit of a `u64`, so the witness
    /// covers atoms `0..min(n, 64)` of a universe of `n` atoms (see
    /// [`Solver::solve_with`]).
    Sat(Assignment),
    /// Unsatisfiable.
    Unsat,
}

impl SatResult {
    /// Whether this is the satisfiable case.
    pub fn is_sat(&self) -> bool {
        matches!(self, SatResult::Sat(_))
    }
}

/// Per-call search statistics, accumulated through the recursion and
/// flushed to the global counters (and the call's trace span) once per
/// [`Solver::solve_with`].
#[derive(Default)]
struct DpllStats {
    decisions: u64,
    propagations: u64,
    conflicts: u64,
}

/// A clause's status under a partial assignment.
#[derive(Debug, Clone, Copy)]
enum ClauseState {
    /// Some literal is true.
    Satisfied,
    /// Every literal is false.
    Conflict,
    /// Exactly one literal is unassigned and the rest are false.
    Unit(Literal),
    /// Two or more literals are unassigned and none is true.
    Open,
}

/// Polarity bits of the per-solve occurrence scratch buffer.
const SEEN_POS: u8 = 1;
const SEEN_NEG: u8 = 2;

impl<'a> Solver<'a> {
    /// Builds a solver over `set`, with the atom universe sized to the
    /// larger of the set's own bound and `min_atoms`.
    pub fn new(set: &'a ClauseSet, min_atoms: usize) -> Self {
        let n_atoms = set.atom_bound().max(min_atoms);
        let clauses = set
            .iter()
            .filter(|c| !c.is_tautology())
            .map(Clause::literals)
            .collect();
        Solver { clauses, n_atoms }
    }

    /// Adds one clause to the database.
    pub fn add_clause(&mut self, clause: &'a Clause) {
        if clause.is_tautology() {
            return;
        }
        self.n_atoms = self.n_atoms.max(clause.atom_bound());
        self.clauses.push(clause.literals());
    }

    /// Number of atoms in the solver's universe.
    pub fn n_atoms(&self) -> usize {
        self.n_atoms
    }

    /// Solves under the given assumption literals.
    ///
    /// The search runs over every atom of the universe ([`Solver::n_atoms`],
    /// widened to cover the assumptions), so the answer is exact for any
    /// size. The witness of a `Sat` answer, though, keeps only the first
    /// 64 atoms' values ([`crate::MAX_ATOMS`]); the values found for
    /// later atoms are dropped. A caller that reads the witness must keep
    /// to universes of at most 64 atoms, as the HLU query memo does.
    pub fn solve_with(&self, assumptions: &[Literal]) -> SatResult {
        counter!("logic.dpll.solves").inc();
        let sp = span!(
            "logic.dpll.solve",
            "clauses" => self.clauses.len(),
            "atoms" => self.n_atoms,
        );
        let mut values: Vec<Option<bool>> = vec![None; self.n_atoms];
        for &lit in assumptions {
            let idx = lit.atom().index();
            if idx >= values.len() {
                values.resize(idx + 1, None);
            }
            match values[idx] {
                Some(v) if v != lit.is_positive() => {
                    sp.attr("sat", false);
                    return SatResult::Unsat;
                }
                _ => values[idx] = Some(lit.is_positive()),
            }
        }
        let mut stats = DpllStats::default();
        let mut seen = vec![0u8; values.len()];
        let sat = self.dpll(&mut values, &mut seen, &mut stats);
        counter!("logic.dpll.decisions").add(stats.decisions);
        counter!("logic.dpll.propagations").add(stats.propagations);
        counter!("logic.dpll.conflicts").add(stats.conflicts);
        if sp.is_recording() {
            sp.attr("decisions", stats.decisions);
            sp.attr("propagations", stats.propagations);
            sp.attr("conflicts", stats.conflicts);
            sp.attr("sat", sat);
        }
        if sat {
            let n = values.len().min(64);
            let mut bits = 0u64;
            for (i, v) in values.iter().take(n).enumerate() {
                if v.unwrap_or(false) {
                    bits |= 1 << i;
                }
            }
            SatResult::Sat(Assignment::from_bits(bits, n))
        } else {
            SatResult::Unsat
        }
    }

    /// Solves with no assumptions.
    pub fn solve(&self) -> SatResult {
        self.solve_with(&[])
    }

    /// Clause status under a partial assignment, found in one scan with
    /// no allocation.
    fn clause_state(clause: &[Literal], values: &[Option<bool>]) -> ClauseState {
        let mut unit = None;
        let mut open = 0usize;
        for &lit in clause {
            match values.get(lit.atom().index()).copied().flatten() {
                Some(v) if v == lit.is_positive() => return ClauseState::Satisfied,
                Some(_) => {} // falsified literal
                None => {
                    open += 1;
                    unit.get_or_insert(lit);
                }
            }
        }
        match (open, unit) {
            (0, _) => ClauseState::Conflict,
            (1, Some(lit)) => ClauseState::Unit(lit),
            _ => ClauseState::Open,
        }
    }

    /// Unit propagation to fixpoint; false on a conflict. Each round
    /// (and so each search node) charges one step per clause scanned.
    // Inlined into each search node, as it was before counting shared
    // it: as a call, it made `update_heavy`'s `query_p99_us` (cold
    // entailment solves) about 18% slower.
    #[inline(always)]
    fn propagate(&self, values: &mut [Option<bool>], stats: &mut DpllStats) -> bool {
        loop {
            crate::governor::step_n(self.clauses.len() as u64 + 1);
            let mut changed = false;
            for clause in &self.clauses {
                match Self::clause_state(clause, values) {
                    ClauseState::Satisfied | ClauseState::Open => {}
                    ClauseState::Conflict => {
                        stats.conflicts += 1;
                        return false;
                    }
                    ClauseState::Unit(lit) => {
                        values[lit.atom().index()] = Some(lit.is_positive());
                        stats.propagations += 1;
                        changed = true;
                    }
                }
            }
            if !changed {
                return true;
            }
        }
    }

    /// One search node. `seen` is the solve's polarity scratch buffer
    /// (one byte per atom); each node clears and fills it before
    /// recursing, so one buffer serves the whole search.
    fn dpll(&self, values: &mut Vec<Option<bool>>, seen: &mut [u8], stats: &mut DpllStats) -> bool {
        if !self.propagate(values, stats) {
            return false;
        }

        // Pure-literal elimination and branch selection in one pass:
        // track polarity occurrences among unresolved clauses. A clause
        // that is not satisfied has its unassigned literals as its open
        // ones, so they are walked in place.
        seen.fill(0);
        let mut branch: Option<AtomId> = None;
        let mut any_open = false;
        for clause in &self.clauses {
            match Self::clause_state(clause, values) {
                ClauseState::Satisfied => continue,
                ClauseState::Conflict => {
                    stats.conflicts += 1;
                    return false;
                }
                ClauseState::Unit(_) | ClauseState::Open => {}
            }
            any_open = true;
            for &lit in clause.iter() {
                let idx = lit.atom().index();
                if values[idx].is_some() {
                    continue;
                }
                seen[idx] |= if lit.is_positive() {
                    SEEN_POS
                } else {
                    SEEN_NEG
                };
                if branch.is_none() {
                    branch = Some(lit.atom());
                }
            }
        }
        if !any_open {
            return true; // all clauses satisfied
        }

        // Assign pure literals (cannot flip any satisfied clause).
        let mut assigned_pure = false;
        for (value, &s) in values.iter_mut().zip(seen.iter()) {
            if value.is_none() && (s == SEEN_POS || s == SEEN_NEG) {
                *value = Some(s == SEEN_POS);
                assigned_pure = true;
            }
        }
        if assigned_pure {
            return self.dpll(values, seen, stats);
        }

        let atom = branch.expect("open clause implies an unassigned literal");
        stats.decisions += 1;
        let idx = atom.index();
        let snapshot = values.clone();
        values[idx] = Some(true);
        if self.dpll(values, seen, stats) {
            return true;
        }
        *values = snapshot;
        values[idx] = Some(false);
        self.dpll(values, seen, stats)
    }

    /// Exact number of models over the atoms `0..n_atoms` (#SAT), for
    /// at most [`crate::MAX_ATOMS`] atoms.
    ///
    /// The search of [`Solver::solve_with`] without the pure-literal
    /// rule, which keeps satisfiability but not the count: propagate,
    /// branch on the first open literal, and once every clause is
    /// satisfied count the `2^free` extensions of the unassigned atoms.
    /// Bumps `logic.counting.recursive_calls` once per search node and
    /// adds nothing to `logic.dpll.*`.
    pub(crate) fn count_models(&self) -> u128 {
        self.count(&mut vec![None; self.n_atoms])
    }

    fn count(&self, values: &mut [Option<bool>]) -> u128 {
        counter!("logic.counting.recursive_calls").inc();
        if !self.propagate(values, &mut DpllStats::default()) {
            return 0;
        }
        // After propagation every clause is satisfied or open.
        let branch =
            self.clauses
                .iter()
                .find_map(|clause| match Self::clause_state(clause, values) {
                    ClauseState::Satisfied => None,
                    _ => clause.iter().find(|l| values[l.atom().index()].is_none()),
                });
        let Some(lit) = branch else {
            // `u128`, so the 2^64 worlds of an empty set over 64 atoms
            // are exact.
            return 1u128 << values.iter().filter(|v| v.is_none()).count();
        };
        let idx = lit.atom().index();
        let snapshot = values.to_vec();
        values[idx] = Some(true);
        let with_true = self.count(values);
        values.copy_from_slice(&snapshot);
        values[idx] = Some(false);
        with_true + self.count(values)
    }
}

/// Whether `Φ` has a model.
pub fn is_satisfiable(set: &ClauseSet) -> bool {
    Solver::new(set, 0).solve().is_sat()
}

/// Whether `Φ ⊨ ψ`, i.e. every model of the clause set satisfies the wff.
///
/// Implemented by refutation: `Φ ∧ ¬ψ` must be unsatisfiable.
pub fn entails(set: &ClauseSet, wff: &Wff) -> bool {
    let negated = crate::cnf::cnf_of(&wff.clone().not());
    let mut solver = Solver::new(set, negated.atom_bound());
    for c in negated.iter() {
        solver.add_clause(c);
    }
    !solver.solve().is_sat()
}

/// Whether `a ⊨ φ` for every clause `φ ∈ b` — clause-set entailment
/// without any formula conversion: each clause is refuted by assuming its
/// literals false, one (cheap) SAT call per clause.
pub fn entails_clauses(a: &ClauseSet, b: &ClauseSet) -> bool {
    let solver = Solver::new(a, b.atom_bound());
    b.iter().all(|c| {
        if c.is_tautology() {
            return true;
        }
        let assumptions: Vec<Literal> = c.literals().iter().map(|&l| l.negated()).collect();
        !solver.solve_with(&assumptions).is_sat()
    })
}

/// Whether two clause sets have exactly the same models over any common
/// atom universe (mutual entailment).
pub fn equivalent(a: &ClauseSet, b: &ClauseSet) -> bool {
    entails_clauses(a, b) && entails_clauses(b, a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::AtomTable;
    use crate::parser::{parse_clause_set, parse_wff};
    use crate::truth::Assignment;

    fn set(s: &str, t: &mut AtomTable) -> ClauseSet {
        parse_clause_set(s, t).unwrap()
    }

    #[test]
    fn empty_set_is_satisfiable() {
        assert!(is_satisfiable(&ClauseSet::new()));
    }

    #[test]
    fn empty_clause_is_unsat() {
        assert!(!is_satisfiable(&ClauseSet::contradiction()));
    }

    #[test]
    fn simple_sat_and_unsat() {
        let mut t = AtomTable::with_indexed_atoms(3);
        assert!(is_satisfiable(&set("{A1 | A2, !A1 | A3}", &mut t)));
        assert!(!is_satisfiable(&set(
            "{A1 | A2, !A1 | A2, A1 | !A2, !A1 | !A2}",
            &mut t
        )));
    }

    #[test]
    fn model_actually_satisfies() {
        let mut t = AtomTable::with_indexed_atoms(4);
        let s = set("{A1 | A2, !A2 | A3, !A1, A4 | A2}", &mut t);
        match Solver::new(&s, 0).solve() {
            SatResult::Sat(m) => assert!(s.eval(&m)),
            SatResult::Unsat => panic!("should be satisfiable"),
        }
    }

    #[test]
    fn assumptions_constrain() {
        let mut t = AtomTable::with_indexed_atoms(2);
        let s = set("{A1 | A2}", &mut t);
        let solver = Solver::new(&s, 2);
        use crate::atom::AtomId;
        let n1 = Literal::neg(AtomId(0));
        let n2 = Literal::neg(AtomId(1));
        assert!(solver.solve_with(&[n1]).is_sat());
        assert_eq!(solver.solve_with(&[n1, n2]), SatResult::Unsat);
        // Contradictory assumptions.
        assert_eq!(solver.solve_with(&[n1, n1.negated()]), SatResult::Unsat);
    }

    #[test]
    fn entailment_basic() {
        let mut t = AtomTable::with_indexed_atoms(3);
        let s = set("{A1, !A1 | A2}", &mut t);
        let q1 = parse_wff("A2", &mut t).unwrap();
        let q2 = parse_wff("A3", &mut t).unwrap();
        let q3 = parse_wff("A1 & A2", &mut t).unwrap();
        assert!(entails(&s, &q1));
        assert!(!entails(&s, &q2));
        assert!(entails(&s, &q3));
    }

    #[test]
    fn inconsistent_set_entails_everything() {
        let mut t = AtomTable::with_indexed_atoms(1);
        let s = ClauseSet::contradiction();
        let q = parse_wff("A1 & !A1", &mut t).unwrap();
        assert!(entails(&s, &q));
    }

    #[test]
    fn equivalence_detects_syntactic_variants() {
        let mut t = AtomTable::with_indexed_atoms(3);
        let a = set("{A1 | A2, !A1 | A2}", &mut t);
        let b = set("{A2}", &mut t);
        assert!(equivalent(&a, &b));
        let c = set("{A1}", &mut t);
        assert!(!equivalent(&a, &c));
    }

    fn random_literals(rng: &mut crate::rng::Rng, n: usize, k: usize) -> Vec<Literal> {
        (0..k)
            .map(|_| Literal::new(crate::atom::AtomId(rng.below(n as u64) as u32), rng.coin()))
            .collect()
    }

    fn random_set(rng: &mut crate::rng::Rng, n: usize) -> ClauseSet {
        let k = rng.range_usize(0, 7);
        (0..k)
            .map(|_| {
                let w = rng.range_usize(1, 4);
                crate::clause::Clause::new(random_literals(rng, n, w))
            })
            .collect()
    }

    #[test]
    fn agrees_with_truth_table_on_random_sets() {
        let mut rng = crate::rng::Rng::new(0xBEEF);
        for _ in 0..200 {
            let n = rng.range_usize(1, 6);
            let s = random_set(&mut rng, n);
            let brute = Assignment::enumerate(n).any(|a| s.eval(&a));
            assert_eq!(
                Solver::new(&s, n).solve().is_sat(),
                brute,
                "mismatch on {s}"
            );
        }
    }

    /// `solve_with` answers exactly the truth table of the set under
    /// the assumptions, and every witness satisfies both.
    fn check_under_assumptions(
        solver: &Solver<'_>,
        s: &ClauseSet,
        n: usize,
        assumptions: &[Literal],
    ) {
        let holds = |a: &Assignment| s.eval(a) && assumptions.iter().all(|&l| a.satisfies(l));
        let brute = Assignment::enumerate(n).any(|a| holds(&a));
        match solver.solve_with(assumptions) {
            SatResult::Sat(m) => {
                assert!(brute, "spurious model of {s} under {assumptions:?}");
                assert!(holds(&m), "witness {m:?} fails {s} under {assumptions:?}");
            }
            SatResult::Unsat => assert!(!brute, "missed model of {s} under {assumptions:?}"),
        }
    }

    #[test]
    fn assumptions_agree_with_truth_table_on_random_sets() {
        let mut rng = crate::rng::Rng::new(0xA55E);
        for _ in 0..300 {
            let n = rng.range_usize(1, 6);
            let s = random_set(&mut rng, n);
            let w = rng.range_usize(1, 4);
            let extra = crate::clause::Clause::new(random_literals(&mut rng, n, w));
            let k = rng.range_usize(0, 4);
            let assumptions = random_literals(&mut rng, n, k);

            let mut solver = Solver::new(&s, n);
            check_under_assumptions(&solver, &s, n, &assumptions);

            solver.add_clause(&extra);
            let mut extended = s.clone();
            extended.insert(extra.clone());
            check_under_assumptions(&solver, &extended, n, &assumptions);

            // An assumption and its negation together are never satisfiable.
            if let Some(&l) = assumptions.first() {
                let mut contradictory = assumptions.clone();
                contradictory.push(l.negated());
                assert_eq!(solver.solve_with(&contradictory), SatResult::Unsat);
            }
        }
    }
}
