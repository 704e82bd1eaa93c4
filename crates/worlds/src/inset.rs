//! Literal bases and insertion sets (Definition 1.4.4).
//!
//! To insert an arbitrary wff `Φ` the paper decomposes it into the set
//! `Inset[Φ]` of *complete* literal sets: each branch of the resulting
//! nondeterministic morphism performs one deterministic literal insertion.
//! The running example (Discussion 1.4.6):
//! `Inset[{A1 ∨ A2}] = {{A1,A2}, {A1,¬A2}, {¬A1,A2}}` — precisely the
//! satisfying total assignments over the proposition letters the formula
//! *semantically* depends on.
//!
//! # On the paper's literal-level definitions
//!
//! Definition 1.4.4 defines irrelevance per-literal and completeness via a
//! subset-maximality condition; read literally, those conditions are
//! mutually inconsistent with the worked example (e.g. the literal `¬A2`
//! would come out "irrelevant" to `A1 ∨ A2`, excluding `{A1,¬A2}`). The
//! example, Remark 1.4.7 (`insert[{A1 ∨ ¬A1}]` must be the identity
//! because "the empty set is complete"), and Theorem 1.5.4 pin down the
//! intended semantics, which is what we implement:
//!
//! * a literal is **irrelevant** iff its atom is outside
//!   `Dep[Mod[Φ]]` — the formula's semantic dependency set;
//! * a member of the literal base is **minimal** iff it contains no
//!   irrelevant literal;
//! * it is **complete** iff it is minimal and total on `Dep[Mod[Φ]]`.
//!
//! `literal_base_members` additionally exposes the brute-force literal
//! base `LB[Φ]` itself for small universes, used by tests to confirm that
//! the complete members coincide with [`inset`]'s output.

use pwdb_logic::{AtomId, Literal, Wff};

use crate::worldset::WorldSet;
use crate::World;

/// The atoms `Φ` semantically depends on: `Dep[Mod[{φ}]]` over a universe
/// of `n` atoms. By Theorem 1.5.4 these are exactly the letters an
/// insertion of `φ` masks.
pub fn relevant_atoms(wff: &Wff, n_atoms: usize) -> Vec<AtomId> {
    WorldSet::from_wff(n_atoms, wff).dep()
}

/// `Inset[Φ]` (Definition 1.4.4(d)): the complete members of the literal
/// base — all consistent literal sets total on [`relevant_atoms`] that
/// entail `φ`.
///
/// For an unsatisfiable `φ` the result is empty (there is no way to make
/// `φ` hold); for a tautology it is `{∅}`, making the induced insertion
/// the identity (Remark 1.4.7).
pub fn inset(wff: &Wff, n_atoms: usize) -> Vec<Vec<Literal>> {
    let worlds = WorldSet::from_wff(n_atoms, wff);
    if worlds.is_empty() {
        return Vec::new();
    }
    let relevant = worlds.dep();
    let k = relevant.len();
    let mut out = Vec::new();
    for pattern in 0u64..(1u64 << k) {
        // Build a witness world assigning the pattern on relevant atoms
        // and false elsewhere; since φ is independent of the others, its
        // truth under the witness decides entailment by the literal set.
        let mut witness = World::all_false(n_atoms);
        for (j, &a) in relevant.iter().enumerate() {
            if (pattern >> j) & 1 == 1 {
                witness = witness.with(a, true);
            }
        }
        if wff.eval(&witness) {
            out.push(
                relevant
                    .iter()
                    .map(|&a| Literal::new(a, witness.get(a)))
                    .collect(),
            );
        }
    }
    out
}

/// Brute-force `LB[Φ]` (Definition 1.4.4(a)): every consistent literal set
/// over the `n`-atom universe that entails `φ`. Exponential (`3^n`); test
/// and validation use only.
pub fn literal_base_members(wff: &Wff, n_atoms: usize) -> Vec<Vec<Literal>> {
    assert!(n_atoms <= 12, "literal base enumeration is 3^n");
    let mut out = Vec::new();
    // Each atom is positive (1), negative (2), or absent (0).
    let mut choice = vec![0u8; n_atoms];
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
        if literal_set_entails(&lits, wff, n_atoms) {
            out.push(lits);
        }
        // Odometer increment over base-3 digits.
        let mut i = 0;
        loop {
            if i == n_atoms {
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

/// Whether `Ψ ⊨ φ`: every world extending the literal set satisfies the
/// formula.
pub fn literal_set_entails(lits: &[Literal], wff: &Wff, n_atoms: usize) -> bool {
    World::enumerate(n_atoms)
        .filter(|w| lits.iter().all(|&l| w.satisfies(l)))
        .all(|w| wff.eval(&w))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwdb_logic::{parse_wff, AtomTable};
    use std::collections::BTreeSet;

    fn lits(v: &[(u32, bool)]) -> Vec<Literal> {
        v.iter()
            .map(|&(a, pos)| Literal::new(AtomId(a), pos))
            .collect()
    }

    fn as_set(v: Vec<Vec<Literal>>) -> BTreeSet<Vec<Literal>> {
        v.into_iter()
            .map(|mut x| {
                x.sort_unstable();
                x
            })
            .collect()
    }

    #[test]
    fn paper_example_disjunction() {
        // Discussion 1.4.6.
        let mut t = AtomTable::with_indexed_atoms(3);
        let w = parse_wff("A1 | A2", &mut t).unwrap();
        let got = as_set(inset(&w, 3));
        let expected = as_set(vec![
            lits(&[(0, true), (1, true)]),
            lits(&[(0, true), (1, false)]),
            lits(&[(0, false), (1, true)]),
        ]);
        assert_eq!(got, expected);
    }

    #[test]
    fn tautology_has_empty_complete_set() {
        // Remark 1.4.7.
        let mut t = AtomTable::with_indexed_atoms(2);
        let w = parse_wff("A1 | !A1", &mut t).unwrap();
        assert_eq!(inset(&w, 2), vec![Vec::<Literal>::new()]);
    }

    #[test]
    fn contradiction_has_no_insset() {
        let mut t = AtomTable::with_indexed_atoms(2);
        let w = parse_wff("A1 & !A1", &mut t).unwrap();
        assert!(inset(&w, 2).is_empty());
    }

    #[test]
    fn single_literal() {
        let mut t = AtomTable::with_indexed_atoms(2);
        let w = parse_wff("!A2", &mut t).unwrap();
        assert_eq!(as_set(inset(&w, 2)), as_set(vec![lits(&[(1, false)])]));
    }

    #[test]
    fn conjunction_has_single_member() {
        let mut t = AtomTable::with_indexed_atoms(3);
        let w = parse_wff("A1 & !A3", &mut t).unwrap();
        assert_eq!(
            as_set(inset(&w, 3)),
            as_set(vec![lits(&[(0, true), (2, false)])])
        );
    }

    #[test]
    fn semantically_irrelevant_atoms_excluded() {
        // (A1 & A2) | (A1 & !A2) ≡ A1 — Inset must not mention A2.
        let mut t = AtomTable::with_indexed_atoms(2);
        let w = parse_wff("(A1 & A2) | (A1 & !A2)", &mut t).unwrap();
        assert_eq!(as_set(inset(&w, 2)), as_set(vec![lits(&[(0, true)])]));
    }

    #[test]
    fn relevant_atoms_of_xor() {
        let mut t = AtomTable::with_indexed_atoms(3);
        let w = parse_wff("A1 <-> !A2", &mut t).unwrap();
        assert_eq!(relevant_atoms(&w, 3), vec![AtomId(0), AtomId(1)]);
    }

    #[test]
    fn inset_members_are_in_literal_base_and_maximal_minimal() {
        let mut t = AtomTable::with_indexed_atoms(3);
        let w = parse_wff("A1 | (A2 & A3)", &mut t).unwrap();
        let lb = as_set(literal_base_members(&w, 3));
        let ins = as_set(inset(&w, 3));
        let relevant: BTreeSet<AtomId> = relevant_atoms(&w, 3).into_iter().collect();
        for member in &ins {
            // Every Inset member entails the formula…
            assert!(lb.contains(member), "{member:?} not in LB");
            // …is minimal (only relevant atoms)…
            assert!(member.iter().all(|l| relevant.contains(&l.atom())));
            // …and is total on the relevant atoms.
            let atoms: BTreeSet<AtomId> = member.iter().map(|l| l.atom()).collect();
            assert_eq!(atoms, relevant);
        }
    }

    #[test]
    fn inset_equals_minimal_total_lb_members() {
        // Cross-validate the semantic construction against brute force on
        // several formulas.
        let inputs = [
            "A1 | A2",
            "A1 & A2",
            "A1 -> A2",
            "A1 <-> A2",
            "(A1 & A2) | !A3",
            "A1 | !A1",
        ];
        for input in inputs {
            let mut t = AtomTable::with_indexed_atoms(3);
            let w = parse_wff(input, &mut t).unwrap();
            let relevant: BTreeSet<AtomId> = relevant_atoms(&w, 3).into_iter().collect();
            let lb = literal_base_members(&w, 3);
            let filtered: BTreeSet<Vec<Literal>> = as_set(
                lb.into_iter()
                    .filter(|m| {
                        let atoms: BTreeSet<AtomId> = m.iter().map(|l| l.atom()).collect();
                        atoms == relevant
                    })
                    .collect(),
            );
            assert_eq!(as_set(inset(&w, 3)), filtered, "formula {input}");
        }
    }

    #[test]
    fn literal_set_entails_edge_cases() {
        let mut t = AtomTable::with_indexed_atoms(2);
        let w = parse_wff("A1 | A2", &mut t).unwrap();
        assert!(literal_set_entails(&lits(&[(0, true)]), &w, 2));
        assert!(!literal_set_entails(&[], &w, 2));
        // Inconsistent literal sets entail everything vacuously.
        assert!(literal_set_entails(&lits(&[(0, true), (0, false)]), &w, 2));
    }
}
