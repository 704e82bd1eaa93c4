//! Structures (`Struct[L]`, §1.1): total truth assignments.
//!
//! A structure over `n ≤ 64` atoms is packed into a `u64`, bit `i` holding
//! the value of atom `A_{i+1}`. This makes a *possible world* one machine
//! word, and a set of possible worlds a bitset over `2^n` positions (see
//! `pwdb-worlds`).

use std::fmt;

use crate::atom::AtomId;
use crate::error::{LogicError, Result};
use crate::literal::Literal;

/// Maximum number of atoms representable in a packed assignment.
pub const MAX_ATOMS: usize = 64;

/// A total truth assignment over atoms `A1 … An` (the paper's structure
/// `s : P → {0,1}`, represented as an n-tuple over `{0,1}`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Assignment {
    bits: u64,
    n: u8,
}

impl Assignment {
    /// Creates the all-false assignment over `n` atoms.
    pub fn all_false(n: usize) -> Self {
        assert!(n <= MAX_ATOMS, "at most {MAX_ATOMS} atoms supported");
        Assignment {
            bits: 0,
            n: n as u8,
        }
    }

    /// Creates an assignment from raw bits; bits at positions `≥ n` are
    /// cleared.
    pub fn from_bits(bits: u64, n: usize) -> Self {
        assert!(n <= MAX_ATOMS, "at most {MAX_ATOMS} atoms supported");
        let mask = if n == MAX_ATOMS {
            u64::MAX
        } else {
            (1u64 << n) - 1
        };
        Assignment {
            bits: bits & mask,
            n: n as u8,
        }
    }

    /// Checked variant of [`Assignment::from_bits`].
    pub fn try_from_bits(bits: u64, n: usize) -> Result<Self> {
        if n > MAX_ATOMS {
            return Err(LogicError::TooManyAtoms {
                requested: n,
                max: MAX_ATOMS,
            });
        }
        Ok(Self::from_bits(bits, n))
    }

    /// Raw packed bits.
    #[inline]
    pub fn bits(self) -> u64 {
        self.bits
    }

    /// Number of atoms in the universe of this assignment.
    #[inline]
    pub fn len(self) -> usize {
        self.n as usize
    }

    /// Whether the universe is empty.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.n == 0
    }

    /// Value of `atom` (atoms beyond the universe read as false).
    #[inline]
    pub fn get(self, atom: AtomId) -> bool {
        (self.bits >> atom.0) & 1 == 1
    }

    /// Returns a copy with `atom` set to `value`.
    #[inline]
    pub fn with(self, atom: AtomId, value: bool) -> Self {
        debug_assert!(atom.index() < self.len());
        let bit = 1u64 << atom.0;
        Assignment {
            bits: if value {
                self.bits | bit
            } else {
                self.bits & !bit
            },
            n: self.n,
        }
    }

    /// Whether the assignment satisfies `lit`.
    #[inline]
    pub fn satisfies(self, lit: Literal) -> bool {
        self.get(lit.atom()) == lit.is_positive()
    }

    /// The set of literals made true — the paper's identification of a
    /// structure with a complete consistent literal set (`CLS`, Def. 2.3.7).
    pub fn to_literals(self) -> Vec<Literal> {
        (0..self.len() as u32)
            .map(|i| Literal::new(AtomId(i), self.get(AtomId(i))))
            .collect()
    }

    /// Builds an assignment over `n` atoms from a consistent literal set;
    /// unmentioned atoms default to false.
    pub fn from_literals(n: usize, lits: &[Literal]) -> Result<Self> {
        if !crate::literal::literals_consistent(lits) {
            return Err(LogicError::InconsistentLiterals);
        }
        let mut s = Self::all_false(n);
        for &l in lits {
            if l.atom().index() >= n {
                return Err(LogicError::TooManyAtoms {
                    requested: l.atom().index() + 1,
                    max: n,
                });
            }
            s = s.with(l.atom(), l.is_positive());
        }
        Ok(s)
    }

    /// Iterates over all `2^n` assignments for a universe of `n ≤ 32`
    /// atoms, in increasing bit order.
    pub fn enumerate(n: usize) -> impl Iterator<Item = Assignment> {
        assert!(n <= 32, "full enumeration only supported for n <= 32");
        (0u64..(1u64 << n)).map(move |bits| Assignment::from_bits(bits, n))
    }
}

impl fmt::Display for Assignment {
    /// Renders as the paper's n-tuple over `{0,1}`, e.g. `(1,0,1)`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for i in 0..self.len() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", u8::from(self.get(AtomId(i as u32))))?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_set_flip() {
        let s = Assignment::all_false(4);
        assert!(!s.get(AtomId(2)));
        let s = s.with(AtomId(2), true);
        assert!(s.get(AtomId(2)));
        let s = s.with(AtomId(2), false);
        assert!(!s.get(AtomId(2)));
        let s = s.with(AtomId(0), true);
        assert_eq!(s.bits(), 0b0001);
    }

    #[test]
    fn from_bits_masks_excess() {
        let s = Assignment::from_bits(0b1111, 2);
        assert_eq!(s.bits(), 0b11);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn try_from_bits_rejects_large_universe() {
        assert!(Assignment::try_from_bits(0, 65).is_err());
        assert!(Assignment::try_from_bits(u64::MAX, 64).is_ok());
    }

    #[test]
    fn satisfies_literals() {
        let s = Assignment::from_bits(0b10, 2);
        assert!(s.satisfies(Literal::neg(AtomId(0))));
        assert!(s.satisfies(Literal::pos(AtomId(1))));
        assert!(!s.satisfies(Literal::pos(AtomId(0))));
    }

    #[test]
    fn literal_roundtrip() {
        let s = Assignment::from_bits(0b101, 3);
        let lits = s.to_literals();
        assert_eq!(lits.len(), 3);
        let back = Assignment::from_literals(3, &lits).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn from_literals_rejects_inconsistent() {
        let lits = [Literal::pos(AtomId(0)), Literal::neg(AtomId(0))];
        assert_eq!(
            Assignment::from_literals(2, &lits).unwrap_err(),
            LogicError::InconsistentLiterals
        );
    }

    #[test]
    fn from_literals_rejects_out_of_universe() {
        let lits = [Literal::pos(AtomId(5))];
        assert!(Assignment::from_literals(2, &lits).is_err());
    }

    #[test]
    fn enumerate_covers_all() {
        let all: Vec<_> = Assignment::enumerate(3).collect();
        assert_eq!(all.len(), 8);
        assert_eq!(all[0].bits(), 0);
        assert_eq!(all[7].bits(), 0b111);
    }

    #[test]
    fn display_tuple_form() {
        let s = Assignment::from_bits(0b101, 3);
        assert_eq!(s.to_string(), "(1,0,1)");
    }
}
