//! Prime implicates via Tison's consensus method.
//!
//! A clause `φ` is an *implicate* of `Φ` when `Φ ⊨ φ`, and *prime* when
//! no proper subclause of it is an implicate. The prime implicates of a
//! set are its strongest clausal consequences; they give a canonical,
//! representation-independent clausal form — the natural normal form for
//! the **BLU-C** states whose meaning the emulation theorems pin to world
//! sets, and the idealized output of the paper's `mask`/`cleanup`
//! pipelines (a fully "cleaned up" knowledge base in the §3.3.1 sense).
//!
//! Tison's method: process the atoms in order; for each atom, resolve
//! every clause holding it against every clause holding its complement,
//! keeping the set subsumption-reduced. A resolvent on an atom never
//! mentions that atom again (tautologies are dropped), so one pass per
//! atom closes it, and after one pass over the atoms every prime
//! implicate is present. Worst-case exponential, as it must be (even
//! counting prime implicates is hard); the paper's own `mask` complexity
//! discussion (2.3.6) applies verbatim.

use pwdb_metrics::counter;
use pwdb_trace::span;

use crate::clause_set::ClauseSet;
use crate::engine::{engine_mode, EngineMode};
use crate::resolution::resolvent;
use crate::subsumption::MinimalSet;

/// Computes the set of prime implicates of `set`.
///
/// For an unsatisfiable input the result is `{□}`; for a tautologous
/// input (no models excluded) the result is empty.
///
/// Tison's fixpoint is canonical (the subsumption-minimal one-atom
/// closures are unique), so the naive engine
/// ([`crate::reference::prime_implicates`]), which re-tries every pair
/// until nothing changes, and the single pass over a [`MinimalSet`]
/// below return bit-identical sets.
pub fn prime_implicates(set: &ClauseSet) -> ClauseSet {
    let sp = span!("logic.implicates.prime", "clauses_in" => set.len());
    let out = match engine_mode() {
        EngineMode::Naive => crate::reference::prime_implicates(set),
        EngineMode::Indexed => {
            let mut pi =
                MinimalSet::from_clauses(set.iter().filter(|c| !c.is_tautology()).cloned());
            for atom in set.props() {
                let (pos, neg) = pi.mentioning(atom);
                for p in &pos {
                    for n in &neg {
                        counter!("logic.resolution.pairs_tried").inc();
                        crate::governor::step_n((p.len() + n.len()) as u64 + 1);
                        if let Some(r) = resolvent(p, n, atom) {
                            pi.insert(r);
                        }
                    }
                }
            }
            pi.into_set()
        }
    };
    sp.attr("clauses_out", out.len());
    out
}

/// Whether `clause` is an implicate of `set` (by refutation with the
/// DPLL solver).
pub fn is_implicate(set: &ClauseSet, clause: &crate::clause::Clause) -> bool {
    if clause.is_tautology() {
        return true;
    }
    let assumptions: Vec<crate::literal::Literal> =
        clause.literals().iter().map(|&l| l.negated()).collect();
    let solver = crate::dpll::Solver::new(set, clause.atom_bound());
    !solver.solve_with(&assumptions).is_sat()
}

/// Whether `clause` is a *prime* implicate of `set`.
pub fn is_prime_implicate(set: &ClauseSet, clause: &crate::clause::Clause) -> bool {
    if !is_implicate(set, clause) {
        return false;
    }
    clause
        .literals()
        .iter()
        .all(|&l| !is_implicate(set, &clause.without(l)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::{AtomId, AtomTable};
    use crate::clause::Clause;
    use crate::literal::Literal;
    use crate::parser::parse_clause_set;

    /// Brute-force prime implicates for small universes: enumerate every
    /// non-tautological clause and keep the prime ones.
    fn brute_prime(set: &ClauseSet, n: usize) -> ClauseSet {
        let mut out = ClauseSet::new();
        // All clauses over n atoms: each atom absent/pos/neg.
        let mut choice = vec![0u8; n];
        loop {
            let lits: Vec<Literal> = choice
                .iter()
                .enumerate()
                .filter_map(|(i, &c)| match c {
                    1 => Some(Literal::pos(AtomId(i as u32))),
                    2 => Some(Literal::neg(AtomId(i as u32))),
                    _ => None,
                })
                .collect();
            let clause = Clause::new(lits);
            if is_prime_implicate(set, &clause) {
                out.insert(clause);
            }
            let mut i = 0;
            loop {
                if i == n {
                    return out;
                }
                choice[i] += 1;
                if choice[i] == 3 {
                    choice[i] = 0;
                    i += 1;
                } else {
                    break;
                }
            }
        }
    }

    #[test]
    fn simple_chain_produces_transitive_implicate() {
        let mut t = AtomTable::with_indexed_atoms(3);
        let s = parse_clause_set("{!A1 | A2, !A2 | A3}", &mut t).unwrap();
        let pi = prime_implicates(&s);
        let transitive = crate::parse_clause("!A1 | A3", &mut t).unwrap();
        assert!(pi.contains(&transitive));
        assert_eq!(pi.len(), 3);
    }

    #[test]
    fn matches_brute_force_on_fixed_cases() {
        let mut t = AtomTable::with_indexed_atoms(4);
        for src in [
            "{A1}",
            "{A1 | A2, !A1 | A2}",
            "{!A1 | A2, !A2 | A3, !A3 | A4}",
            "{A1 | A2, !A2 | A3, !A1 | A3}",
            "{A1 | A2 | A3, !A1 | !A2 | !A3}",
            "{}",
        ] {
            let s = parse_clause_set(src, &mut t).unwrap();
            let n = s.atom_bound().max(1);
            assert_eq!(prime_implicates(&s), brute_prime(&s, n), "set {src}");
        }
    }

    #[test]
    fn unsat_yields_empty_clause() {
        let mut t = AtomTable::with_indexed_atoms(2);
        let s = parse_clause_set("{A1, !A1}", &mut t).unwrap();
        let pi = prime_implicates(&s);
        assert!(pi.has_empty_clause());
        assert_eq!(pi.len(), 1);
    }

    #[test]
    fn equivalent_sets_share_prime_implicates() {
        // Canonical form: syntactically different, semantically equal
        // sets normalize identically.
        let mut t = AtomTable::with_indexed_atoms(3);
        let a = parse_clause_set("{A1 | A2, !A2 | A1}", &mut t).unwrap(); // ≡ A1
        let b = parse_clause_set("{A1}", &mut t).unwrap();
        assert_eq!(prime_implicates(&a), prime_implicates(&b));
    }

    #[test]
    fn agrees_with_brute_force_on_random_sets() {
        let mut rng = crate::rng::Rng::new(0x7150);
        for _ in 0..40 {
            let n = rng.range_usize(1, 5);
            let k = rng.range_usize(0, 6);
            let mut s = ClauseSet::new();
            for _ in 0..k {
                let w = rng.range_usize(1, 4);
                let lits: Vec<Literal> = (0..w)
                    .map(|_| Literal::new(AtomId(rng.below(n as u64) as u32), rng.coin()))
                    .collect();
                s.insert(Clause::new(lits));
            }
            assert_eq!(prime_implicates(&s), brute_prime(&s, n), "set {s}");
        }
    }

    #[test]
    fn implicate_predicates() {
        let mut t = AtomTable::with_indexed_atoms(2);
        let s = parse_clause_set("{A1}", &mut t).unwrap();
        let weak = crate::parse_clause("A1 | A2", &mut t).unwrap();
        let strong = crate::parse_clause("A1", &mut t).unwrap();
        assert!(is_implicate(&s, &weak));
        assert!(!is_prime_implicate(&s, &weak));
        assert!(is_prime_implicate(&s, &strong));
        let unrelated = crate::parse_clause("A2", &mut t).unwrap();
        assert!(!is_implicate(&s, &unrelated));
    }
}
