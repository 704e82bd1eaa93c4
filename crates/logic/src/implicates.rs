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
//! Tison's method: process the atoms in order; for each atom, close the
//! current set under resolution on that atom while keeping the set
//! subsumption-reduced. After one pass every prime implicate is present.
//! Worst-case exponential, as it must be (even counting prime implicates
//! is hard); the paper's own `mask` complexity discussion (2.3.6) applies
//! verbatim.

use std::collections::BTreeSet;
use std::sync::OnceLock;

use pwdb_metrics::counter;
use pwdb_trace::span;

use crate::atom::AtomId;
use crate::cache::MemoCache;
use crate::clause_set::ClauseSet;
use crate::engine::{engine_mode, EngineMode};
use crate::index::{IndexedClauseSet, Slot};
use crate::literal::Literal;
use crate::resolution::resolvent;

/// The prime-implicate memo: keyed on the input set itself, so equal sets
/// hit regardless of how they were built. Pure (the closure is a function
/// of the set), bounded, bypassed under the naive engine.
fn pi_cache() -> &'static MemoCache<ClauseSet, ClauseSet> {
    static CACHE: OnceLock<&'static MemoCache<ClauseSet, ClauseSet>> = OnceLock::new();
    CACHE.get_or_init(|| {
        static INNER: OnceLock<MemoCache<ClauseSet, ClauseSet>> = OnceLock::new();
        INNER
            .get_or_init(|| MemoCache::new("logic.cache.prime_implicates", 512))
            .register()
    })
}

/// Computes the set of prime implicates of `set`.
///
/// For an unsatisfiable input the result is `{□}`; for a tautologous
/// input (no models excluded) the result is empty.
///
/// Tison's fixpoint is canonical (the subsumption-minimal one-atom
/// closures are unique), so the naive engine
/// ([`crate::reference::prime_implicates`]) and the indexed worklist
/// below return bit-identical sets; the indexed engine additionally
/// memoizes whole closures keyed on the input set.
pub fn prime_implicates(set: &ClauseSet) -> ClauseSet {
    let sp = span!("logic.implicates.prime", "clauses_in" => set.len());
    let out = match engine_mode() {
        EngineMode::Naive => crate::reference::prime_implicates(set),
        EngineMode::Indexed => {
            pi_cache().get_or_insert_with(set.clone(), || prime_implicates_indexed(set))
        }
    };
    sp.attr("clauses_out", out.len());
    out
}

/// Tison's method on the literal-occurrence index: per atom, a worklist
/// over the clauses that mention it, resolving each against the
/// occurrence list of the complementary literal only. Resolvents on an
/// atom never mention that atom again (tautologies are dropped on
/// insert), so one pass per atom closes it.
fn prime_implicates_indexed(set: &ClauseSet) -> ClauseSet {
    let mut idx = IndexedClauseSet::new();
    for c in set.iter() {
        idx.insert_with_subsumption(c.clone());
    }
    let atoms: BTreeSet<AtomId> = idx
        .iter()
        .flat_map(|c| c.atoms().collect::<Vec<_>>())
        .collect();
    for &atom in &atoms {
        let pos = Literal::pos(atom);
        let neg = Literal::neg(atom);
        let mut queue: Vec<Slot> = idx.partners(pos);
        queue.extend(idx.partners(neg));
        while let Some(slot) = queue.pop() {
            let Some(c) = idx.clause(slot).cloned() else {
                continue;
            };
            if c.contains(pos) {
                for pslot in idx.partners(neg) {
                    let Some(d) = idx.clause(pslot).cloned() else {
                        continue;
                    };
                    counter!("logic.resolution.pairs_tried").inc();
                    crate::governor::step_n((c.len() + d.len()) as u64 + 1);
                    if let Some(r) = resolvent(&c, &d, atom) {
                        if !r.is_tautology() && idx.insert_with_subsumption(r.clone()) {
                            if let Some(s) = idx.slot_of(&r) {
                                queue.push(s);
                            }
                        }
                    }
                }
            }
            if c.contains(neg) {
                for pslot in idx.partners(pos) {
                    let Some(d) = idx.clause(pslot).cloned() else {
                        continue;
                    };
                    counter!("logic.resolution.pairs_tried").inc();
                    crate::governor::step_n((c.len() + d.len()) as u64 + 1);
                    if let Some(r) = resolvent(&d, &c, atom) {
                        if !r.is_tautology() && idx.insert_with_subsumption(r.clone()) {
                            if let Some(s) = idx.slot_of(&r) {
                                queue.push(s);
                            }
                        }
                    }
                }
            }
        }
    }
    idx.to_set()
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
    use crate::atom::AtomTable;
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
