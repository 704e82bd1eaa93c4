//! Resolution (§1.1, after Chang–Lee \[2\]).
//!
//! `Resolvent(φ₁, φ₂, A)` is the resolvent with respect to atom `A` of the
//! clauses `φ₁` and `φ₂`, if it exists. The paper's `rclosure` (Algorithm
//! 2.3.5) closes a clause set under resolution on a given set of atoms;
//! both it and full resolution closure live here, shared by the BLU-C
//! `mask` implementation and the refutation prover.

use std::collections::BTreeSet;

use pwdb_metrics::counter;
use pwdb_trace::span;

use crate::atom::AtomId;
use crate::clause::Clause;
use crate::clause_set::ClauseSet;
use crate::governor;
use crate::literal::Literal;

/// The paper's `Resolvent(φ₁, φ₂, A)`: requires `A ∈ φ₁` and `¬A ∈ φ₂`
/// (in that orientation); returns `None` otherwise.
pub fn resolvent(c1: &Clause, c2: &Clause, atom: AtomId) -> Option<Clause> {
    let pos = Literal::pos(atom);
    let neg = Literal::neg(atom);
    if !c1.contains(pos) || !c2.contains(neg) {
        return None;
    }
    let mut lits: Vec<Literal> = Vec::with_capacity(c1.len() + c2.len() - 2);
    lits.extend(c1.literals().iter().copied().filter(|&l| l != pos));
    lits.extend(c2.literals().iter().copied().filter(|&l| l != neg));
    counter!("logic.resolution.resolvents").inc();
    Some(Clause::new(lits))
}

/// Closes `set` under resolution on the single atom `atom`: the inner loop
/// of the paper's `rclosure` (Algorithm 2.3.5).
///
/// Tautological resolvents are discarded (model-preserving; the paper's
/// presentation leaves normalization implicit).
pub fn rclosure_on_atom(set: &ClauseSet, atom: AtomId) -> ClauseSet {
    let mut out = set.clone();
    let (pos_side, neg_side) = set.split_on(atom);
    for p in &pos_side {
        for n in &neg_side {
            governor::step_n((p.len() + n.len()) as u64 + 1);
            if let Some(r) = resolvent(p, n, atom) {
                out.insert(r);
            }
        }
    }
    out
}

/// The paper's `rclosure(Φ, P)`: closes `Φ` under resolution with respect
/// to each proposition letter in `P`, in order.
pub fn rclosure(set: &ClauseSet, atoms: &BTreeSet<AtomId>) -> ClauseSet {
    let sp = span!(
        "logic.resolution.rclosure",
        "letters" => atoms.len(),
        "clauses_in" => set.len(),
    );
    let mut out = set.clone();
    for &a in atoms {
        out = rclosure_on_atom(&out, a);
    }
    sp.attr("clauses_out", out.len());
    out
}

/// The paper's `drop(Φ, P)`: removes every clause that mentions a letter
/// of `P` (Algorithm 2.3.5).
pub fn drop_atoms(set: &ClauseSet, atoms: &BTreeSet<AtomId>) -> ClauseSet {
    set.iter()
        .filter(|c| !c.atoms().any(|a| atoms.contains(&a)))
        .cloned()
        .collect()
}

/// Saturates `set` under resolution on all atoms, up to subsumption.
/// Used by the refutation-based consistency check and by tests; worst-case
/// exponential, as the paper's complexity discussion (§2.3.6) warns.
///
/// The fixpoint is canonical — the subsumption-minimal elements of the
/// resolution closure — so the naive round-based engine
/// ([`crate::reference::saturate`]) and the indexed worklist engine
/// (`saturate_indexed`) return bit-identical sets; only the number of
/// resolvent pairs tried (`logic.resolution.pairs_tried`) differs.
pub fn saturate(set: &ClauseSet) -> ClauseSet {
    let sp = span!("logic.resolution.saturate", "clauses_in" => set.len());
    let out = match crate::engine::engine_mode() {
        crate::engine::EngineMode::Naive => crate::reference::saturate(set),
        crate::engine::EngineMode::Indexed => saturate_indexed(set),
    };
    sp.attr("clauses_out", out.len());
    out
}

/// Semi-naive saturation on the literal-occurrence index: a given-clause
/// worklist seeded units-first (ascending clause length). Each clause is
/// popped once and resolved only against the occurrence lists of its own
/// literals' complements — no round ever re-tries old × old pairs, which
/// is where the naive engine burns its `pairs_tried` budget.
fn saturate_indexed(set: &ClauseSet) -> ClauseSet {
    let mut idx = crate::index::IndexedClauseSet::new();
    let mut order: Vec<Clause> = set.iter().cloned().collect();
    order.sort_by_key(Clause::len);
    for c in order {
        // Raw insert: input tautologies stay members unless subsumed,
        // exactly as the naive engine's initial reduce_subsumed leaves
        // them.
        idx.insert_with_subsumption_raw(c);
    }
    let mut queue: Vec<crate::index::Slot> = idx.live_slots();
    while let Some(slot) = queue.pop() {
        let Some(c) = idx.clause(slot).cloned() else {
            continue; // subsumed away before its turn
        };
        for &lit in c.literals() {
            for pslot in idx.partners(lit.negated()) {
                let Some(d) = idx.clause(pslot).cloned() else {
                    continue;
                };
                counter!("logic.resolution.pairs_tried").inc();
                governor::step_n((c.len() + d.len()) as u64 + 1);
                let r = if lit.is_positive() {
                    resolvent(&c, &d, lit.atom())
                } else {
                    resolvent(&d, &c, lit.atom())
                };
                if let Some(r) = r {
                    if !r.is_tautology() && idx.insert_with_subsumption(r.clone()) {
                        if let Some(s) = idx.slot_of(&r) {
                            queue.push(s);
                        }
                    }
                }
            }
        }
    }
    idx.to_set()
}

/// Resolution-refutation consistency check: `Φ` is inconsistent iff the
/// empty clause is derivable. Complete for propositional clause sets;
/// prefer [`crate::dpll`] for performance.
pub fn refutes(set: &ClauseSet) -> bool {
    saturate(set).has_empty_clause()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::AtomTable;
    use crate::parser::{parse_clause, parse_clause_set};

    fn atoms() -> AtomTable {
        AtomTable::with_indexed_atoms(8)
    }

    #[test]
    fn resolvent_requires_orientation() {
        let mut t = atoms();
        let c1 = parse_clause("A1 | A2", &mut t).unwrap();
        let c2 = parse_clause("!A1 | A3", &mut t).unwrap();
        let r = resolvent(&c1, &c2, AtomId(0)).unwrap();
        assert_eq!(r.to_string(), "A2 | A3");
        // Swapped orientation fails.
        assert!(resolvent(&c2, &c1, AtomId(0)).is_none());
        // Wrong atom fails.
        assert!(resolvent(&c1, &c2, AtomId(1)).is_none());
    }

    #[test]
    fn resolvent_of_units_is_empty_clause() {
        let mut t = atoms();
        let c1 = parse_clause("A1", &mut t).unwrap();
        let c2 = parse_clause("!A1", &mut t).unwrap();
        assert_eq!(resolvent(&c1, &c2, AtomId(0)).unwrap(), Clause::empty());
    }

    #[test]
    fn rclosure_adds_paper_example_resolvents() {
        // Example 3.1.5: Φ = {¬A1∨A3, A1∨A4, A4∨A5, ¬A1∨¬A2∨¬A5},
        // rclosure on A1 adds A3∨A4 and A4∨¬A2∨¬A5.
        let mut t = atoms();
        let phi =
            parse_clause_set("{!A1 | A3, A1 | A4, A4 | A5, !A1 | !A2 | !A5}", &mut t).unwrap();
        let closed = rclosure_on_atom(&phi, AtomId(0));
        assert!(closed.contains(&parse_clause("A3 | A4", &mut t).unwrap()));
        assert!(closed.contains(&parse_clause("A4 | !A2 | !A5", &mut t).unwrap()));
        assert_eq!(closed.len(), 6);
    }

    #[test]
    fn drop_removes_mentioning_clauses() {
        let mut t = atoms();
        let phi = parse_clause_set("{!A1 | A3, A4 | A5, A3 | A4}", &mut t).unwrap();
        let dropped = drop_atoms(&phi, &BTreeSet::from([AtomId(0)]));
        assert_eq!(dropped.len(), 2);
        assert!(!dropped.contains(&parse_clause("!A1 | A3", &mut t).unwrap()));
    }

    #[test]
    fn drop_on_empty_mask_is_identity() {
        let mut t = atoms();
        let phi = parse_clause_set("{A1, A2 | A3}", &mut t).unwrap();
        assert_eq!(drop_atoms(&phi, &BTreeSet::new()), phi);
    }

    #[test]
    fn refutation_detects_inconsistency() {
        let mut t = atoms();
        let incons = parse_clause_set("{A1 | A2, !A1 | A2, A1 | !A2, !A1 | !A2}", &mut t).unwrap();
        assert!(refutes(&incons));
        let cons = parse_clause_set("{A1 | A2, !A1 | A3}", &mut t).unwrap();
        assert!(!cons.has_empty_clause());
        assert!(!refutes(&cons));
    }

    #[test]
    fn saturate_is_idempotent() {
        let mut t = atoms();
        let phi = parse_clause_set("{A1 | A2, !A2 | A3, !A3}", &mut t).unwrap();
        let s1 = saturate(&phi);
        let s2 = saturate(&s1);
        assert_eq!(s1, s2);
    }

    #[test]
    fn rclosure_then_drop_matches_paper_mask_step() {
        // Mask {A1, A2} of Example 3.1.5 should leave {A4∨A5, A3∨A4}.
        let mut t = atoms();
        let phi =
            parse_clause_set("{!A1 | A3, A1 | A4, A4 | A5, !A1 | !A2 | !A5}", &mut t).unwrap();
        let p = BTreeSet::from([AtomId(0), AtomId(1)]);
        let masked = drop_atoms(&rclosure(&phi, &p), &p);
        let expected = parse_clause_set("{A4 | A5, A3 | A4}", &mut t).unwrap();
        assert_eq!(masked, expected);
    }
}
