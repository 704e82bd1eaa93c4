//! Exact model counting (#SAT) for clause sets.
//!
//! The size of an incomplete-information database *is* its number of
//! possible worlds (`|Mod[Φ]|` over the schema universe). The instance
//! representation reads it off a popcount; the clausal representation
//! counts on the DPLL [`Solver`] — exponential in the worst case
//! (counting is #P-complete), but exact, and fast on the clause sets
//! these databases hold.

use crate::clause_set::ClauseSet;
use crate::dpll::Solver;
use crate::error::LogicError;
use crate::truth::MAX_ATOMS;

/// Model count of `set` over the universe of atoms `0..n_atoms`, as a
/// `u128` so that the full `2^64` world count of an unconstrained
/// 64-atom universe is exactly representable. Atoms beyond the set's
/// own letters contribute a factor of two each.
///
/// Returns [`LogicError::TooManyAtoms`] when `n_atoms` exceeds
/// [`MAX_ATOMS`], and panics if `n_atoms` is smaller than the set's own
/// atom bound (caller bug, not input-dependent).
pub fn try_count_models(set: &ClauseSet, n_atoms: usize) -> crate::error::Result<u128> {
    if n_atoms > MAX_ATOMS {
        return Err(LogicError::TooManyAtoms {
            requested: n_atoms,
            max: MAX_ATOMS,
        });
    }
    assert!(
        n_atoms >= set.atom_bound(),
        "universe smaller than the clause set's atoms"
    );
    Ok(Solver::new(set, n_atoms).count_models())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::{AtomId, AtomTable};
    use crate::literal::Literal;
    use crate::parser::parse_clause_set;
    use crate::truth::Assignment;

    fn count_models(set: &ClauseSet, n: usize) -> u128 {
        try_count_models(set, n).unwrap()
    }

    fn brute(set: &ClauseSet, n: usize) -> u128 {
        Assignment::enumerate(n).filter(|a| set.eval(a)).count() as u128
    }

    #[test]
    fn empty_set_counts_full_universe() {
        assert_eq!(count_models(&ClauseSet::new(), 5), 32);
        assert_eq!(count_models(&ClauseSet::new(), 0), 1);
    }

    #[test]
    fn contradiction_counts_zero() {
        assert_eq!(count_models(&ClauseSet::contradiction(), 4), 0);
    }

    #[test]
    fn unit_clause_halves() {
        let mut t = AtomTable::with_indexed_atoms(4);
        let s = parse_clause_set("{A1}", &mut t).unwrap();
        assert_eq!(count_models(&s, 4), 8);
    }

    #[test]
    fn disjunction_three_quarters() {
        let mut t = AtomTable::with_indexed_atoms(4);
        let s = parse_clause_set("{A1 | A2}", &mut t).unwrap();
        assert_eq!(count_models(&s, 4), 12);
    }

    #[test]
    fn agrees_with_enumeration_on_random_sets() {
        let mut rng = crate::rng::Rng::new(0xC0FFEE);
        for _ in 0..300 {
            let n = rng.range_usize(1, 8);
            let k = rng.range_usize(0, 9);
            let mut s = ClauseSet::new();
            for _ in 0..k {
                let w = rng.range_usize(1, 4);
                let lits: Vec<Literal> = (0..w)
                    .map(|_| Literal::new(AtomId(rng.below(n as u64) as u32), rng.coin()))
                    .collect();
                s.insert(crate::clause::Clause::new(lits));
            }
            assert_eq!(count_models(&s, n), brute(&s, n), "mismatch on {s}");
        }
    }

    #[test]
    fn implication_chain_count() {
        // A1→A2→A3 over 3 atoms: the true atoms of a model are none,
        // {A3}, {A2, A3} or all three — checked by brute force and pinned.
        let mut t = AtomTable::with_indexed_atoms(3);
        let s = parse_clause_set("{!A1 | A2, !A2 | A3}", &mut t).unwrap();
        assert_eq!(count_models(&s, 3), brute(&s, 3));
        assert_eq!(count_models(&s, 3), 4);
    }

    #[test]
    fn boundary_63_64_65_atoms() {
        assert_eq!(
            try_count_models(&ClauseSet::new(), 63).unwrap(),
            1u128 << 63
        );
        assert_eq!(
            try_count_models(&ClauseSet::new(), 64).unwrap(),
            1u128 << 64
        );
        assert_eq!(
            try_count_models(&ClauseSet::new(), 65),
            Err(LogicError::TooManyAtoms {
                requested: 65,
                max: 64
            })
        );
        // One unit clause at the 64-atom edge halves the space.
        let mut t = AtomTable::with_indexed_atoms(64);
        let s = parse_clause_set("{A64}", &mut t).unwrap();
        assert_eq!(try_count_models(&s, 64).unwrap(), 1u128 << 63);
    }

    #[test]
    #[should_panic(expected = "universe smaller")]
    fn rejects_small_universe() {
        let mut t = AtomTable::with_indexed_atoms(3);
        let s = parse_clause_set("{A3}", &mut t).unwrap();
        let _ = count_models(&s, 2);
    }
}
