//! Clauses (`CF[L]`, §1.1): disjunctions of literals.
//!
//! A clause is stored as a sorted, duplicate-free slice of literals that
//! is shared and immutable: a clone bumps a reference count and copies no
//! literals, so cloning a clause set (a BLU state) copies no clause. Each
//! constructor builds its slice with one allocation. Order, equality and
//! hashing are by content. The paper's *length* of a clause is the number
//! of distinct literals in it ([`Clause::len`]); `□`/`0` is the empty
//! clause and a clause containing a complementary pair is tautologous (the
//! paper's `1`).

use std::fmt;
use std::iter::Peekable;
use std::sync::Arc;

use pwdb_metrics::counter;

use crate::atom::{AtomId, AtomTable};
use crate::literal::Literal;
use crate::truth::Assignment;

/// A clause: a finite disjunction of distinct literals.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Clause {
    lits: Arc<[Literal]>,
}

/// Clauses up to this length are assembled on the stack, so building one
/// allocates only its shared slice.
const INLINE: usize = 32;

impl Clause {
    /// Builds a clause from literals, sorting and deduplicating.
    ///
    /// Complementary pairs are *kept*: `A ∨ ¬A` is a legitimate
    /// (tautological) clause in the paper's presentation; callers that want
    /// them removed filter with [`Clause::is_tautology`] (as
    /// [`crate::ClauseSet::insert`] does).
    pub fn new(mut lits: Vec<Literal>) -> Self {
        lits.sort_unstable();
        lits.dedup();
        Clause {
            lits: Arc::from(lits),
        }
    }

    /// Builds from literals that are already sorted and duplicate-free,
    /// at most `bound` of them.
    fn from_sorted(bound: usize, lits: impl Iterator<Item = Literal>) -> Self {
        let lits = if bound <= INLINE {
            let mut buf = [Literal::pos(AtomId(0)); INLINE];
            let mut n = 0;
            for l in lits {
                buf[n] = l;
                n += 1;
            }
            Arc::from(&buf[..n])
        } else {
            Arc::from(lits.collect::<Vec<_>>())
        };
        Clause { lits }
    }

    /// The sorted union of two sorted, duplicate-free literal sequences.
    fn union(
        bound: usize,
        a: impl Iterator<Item = Literal>,
        b: impl Iterator<Item = Literal>,
    ) -> Self {
        Self::from_sorted(
            bound,
            Union {
                a: a.peekable(),
                b: b.peekable(),
            },
        )
    }

    /// The empty clause `□` (the paper's `0`), satisfied by no structure.
    pub fn empty() -> Self {
        Clause {
            lits: Arc::from([]),
        }
    }

    /// A unit clause.
    pub fn unit(lit: Literal) -> Self {
        Clause {
            lits: Arc::from([lit]),
        }
    }

    /// The literals, sorted.
    #[inline]
    pub fn literals(&self) -> &[Literal] {
        &self.lits
    }

    /// The paper's clause length: number of distinct literals.
    #[inline]
    pub fn len(&self) -> usize {
        self.lits.len()
    }

    /// Whether this is the empty clause `□`.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.lits.is_empty()
    }

    /// Whether the clause contains `lit`.
    #[inline]
    pub fn contains(&self, lit: Literal) -> bool {
        self.lits.binary_search(&lit).is_ok()
    }

    /// Whether the clause mentions `atom` (in either polarity).
    pub fn mentions(&self, atom: AtomId) -> bool {
        self.contains(Literal::pos(atom)) || self.contains(Literal::neg(atom))
    }

    /// Whether the clause contains a complementary pair and is therefore
    /// true in every structure (the paper's tautological clause `1`).
    pub fn is_tautology(&self) -> bool {
        // Literals are sorted with the two polarities of an atom adjacent.
        self.lits.windows(2).any(|w| w[0].negated() == w[1])
    }

    /// The atoms occurring in the clause — `Prop[{φ}]`.
    pub fn atoms(&self) -> impl Iterator<Item = AtomId> + '_ {
        let mut last: Option<AtomId> = None;
        self.lits.iter().filter_map(move |l| {
            let a = l.atom();
            if last == Some(a) {
                None
            } else {
                last = Some(a);
                Some(a)
            }
        })
    }

    /// Largest atom index occurring, plus one.
    pub fn atom_bound(&self) -> usize {
        self.lits.last().map_or(0, |l| l.atom().index() + 1)
    }

    /// Evaluates under a structure.
    pub fn eval(&self, s: &Assignment) -> bool {
        self.lits.iter().any(|&l| s.satisfies(l))
    }

    /// `self ∨ other`, deduplicated — the elementwise operation of the
    /// paper's `combine` algorithm (2.3.3).
    pub fn disjoin(&self, other: &Clause) -> Clause {
        Self::union(
            self.len() + other.len(),
            self.lits.iter().copied(),
            other.lits.iter().copied(),
        )
    }

    /// `self ∨ lit`: `disjoin` with a unit clause, without building the
    /// unit. A clause that already holds `lit` is returned shared.
    pub fn with(&self, lit: Literal) -> Clause {
        match self.lits.binary_search(&lit) {
            Ok(_) => self.clone(),
            Err(i) => {
                let (below, above) = self.lits.split_at(i);
                let lits = below
                    .iter()
                    .copied()
                    .chain([lit])
                    .chain(above.iter().copied());
                Self::from_sorted(self.len() + 1, lits)
            }
        }
    }

    /// The resolvent on `pos`'s atom: `(self ∖ {pos}) ∨ (other ∖ {¬pos})`.
    pub(crate) fn resolve(&self, other: &Clause, pos: Literal) -> Clause {
        let neg = pos.negated();
        Self::union(
            self.len() + other.len(),
            self.lits.iter().copied().filter(|&l| l != pos),
            other.lits.iter().copied().filter(|&l| l != neg),
        )
    }

    /// Returns the clause with every occurrence of `lit` removed (used by
    /// unit resolution, Algorithm 2.3.8).
    pub fn without(&self, lit: Literal) -> Clause {
        Self::from_sorted(self.len(), self.lits.iter().copied().filter(|&l| l != lit))
    }

    /// Whether every literal of `self` occurs in `other` (subsumption).
    ///
    /// Every call is counted in `logic.subsumption.comparisons` — the
    /// op-cost measure the naive-vs-indexed engine comparison
    /// (`report_index`, `BENCH_index.json`) is keyed on.
    pub fn subsumes(&self, other: &Clause) -> bool {
        counter!("logic.subsumption.comparisons").inc();
        if self.len() > other.len() {
            return false;
        }
        self.lits.iter().all(|&l| other.contains(l))
    }

    /// Renders with a name table.
    pub fn display<'a>(&'a self, atoms: &'a AtomTable) -> ClauseDisplay<'a> {
        ClauseDisplay {
            clause: self,
            atoms: Some(atoms),
        }
    }
}

/// The merge behind [`Clause::disjoin`] and [`Clause::resolve`]: yields each literal of either sorted input once,
/// in order.
struct Union<A: Iterator<Item = Literal>, B: Iterator<Item = Literal>> {
    a: Peekable<A>,
    b: Peekable<B>,
}

impl<A: Iterator<Item = Literal>, B: Iterator<Item = Literal>> Iterator for Union<A, B> {
    type Item = Literal;

    fn next(&mut self) -> Option<Literal> {
        match (self.a.peek(), self.b.peek()) {
            (Some(x), Some(y)) => match x.cmp(y) {
                std::cmp::Ordering::Less => self.a.next(),
                std::cmp::Ordering::Greater => self.b.next(),
                std::cmp::Ordering::Equal => {
                    self.b.next();
                    self.a.next()
                }
            },
            (Some(_), None) => self.a.next(),
            (None, _) => self.b.next(),
        }
    }
}

impl FromIterator<Literal> for Clause {
    fn from_iter<T: IntoIterator<Item = Literal>>(iter: T) -> Self {
        Clause::new(iter.into_iter().collect())
    }
}

impl fmt::Debug for Clause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Clause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        ClauseDisplay {
            clause: self,
            atoms: None,
        }
        .fmt(f)
    }
}

/// Helper returned by [`Clause::display`].
pub struct ClauseDisplay<'a> {
    clause: &'a Clause,
    atoms: Option<&'a AtomTable>,
}

impl fmt::Display for ClauseDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.clause.is_empty() {
            return write!(f, "[]");
        }
        for (i, l) in self.clause.literals().iter().enumerate() {
            if i > 0 {
                write!(f, " | ")?;
            }
            match self.atoms {
                Some(t) => write!(f, "{}", l.display(t))?,
                None => write!(f, "{l}")?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lp(i: u32) -> Literal {
        Literal::pos(AtomId(i))
    }
    fn ln(i: u32) -> Literal {
        Literal::neg(AtomId(i))
    }

    #[test]
    fn new_sorts_and_dedups() {
        let c = Clause::new(vec![lp(2), lp(0), lp(2), ln(1)]);
        assert_eq!(c.literals(), &[lp(0), ln(1), lp(2)]);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn empty_clause_is_unsatisfiable() {
        let c = Clause::empty();
        assert!(c.is_empty());
        assert!(!c.eval(&Assignment::from_bits(0b11, 2)));
    }

    #[test]
    fn tautology_detection() {
        assert!(Clause::new(vec![lp(0), ln(0)]).is_tautology());
        assert!(!Clause::new(vec![lp(0), ln(1)]).is_tautology());
        assert!(!Clause::empty().is_tautology());
        assert!(Clause::new(vec![lp(3), ln(2), lp(2)]).is_tautology());
    }

    #[test]
    fn eval_is_disjunction() {
        let c = Clause::new(vec![lp(0), ln(1)]);
        assert!(c.eval(&Assignment::from_bits(0b01, 2))); // A1
        assert!(c.eval(&Assignment::from_bits(0b00, 2))); // ¬A2
        assert!(!c.eval(&Assignment::from_bits(0b10, 2)));
    }

    #[test]
    fn disjoin_merges() {
        let c1 = Clause::new(vec![lp(0), lp(2)]);
        let c2 = Clause::new(vec![lp(1), lp(2), ln(3)]);
        let d = c1.disjoin(&c2);
        assert_eq!(d.literals(), &[lp(0), lp(1), lp(2), ln(3)]);
    }

    #[test]
    fn disjoin_with_empty_is_identity() {
        let c = Clause::new(vec![lp(0), ln(1)]);
        assert_eq!(c.disjoin(&Clause::empty()), c);
        assert_eq!(Clause::empty().disjoin(&c), c);
    }

    #[test]
    fn mentions_and_atoms() {
        let c = Clause::new(vec![lp(0), ln(0), lp(2)]);
        assert!(c.mentions(AtomId(0)));
        assert!(!c.mentions(AtomId(1)));
        let atoms: Vec<_> = c.atoms().collect();
        assert_eq!(atoms, vec![AtomId(0), AtomId(2)]);
        assert_eq!(c.atom_bound(), 3);
    }

    #[test]
    fn without_strips_literal() {
        let c = Clause::new(vec![lp(0), ln(1)]);
        assert_eq!(c.without(ln(1)).literals(), &[lp(0)]);
        assert_eq!(c.without(lp(5)), c);
    }

    #[test]
    fn subsumption() {
        let small = Clause::new(vec![lp(0)]);
        let big = Clause::new(vec![lp(0), ln(1)]);
        assert!(small.subsumes(&big));
        assert!(!big.subsumes(&small));
        assert!(Clause::empty().subsumes(&small));
        assert!(big.subsumes(&big));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Clause::empty().to_string(), "[]");
        let c = Clause::new(vec![lp(0), ln(1)]);
        assert_eq!(c.to_string(), "A1 | !A2");
    }

    #[test]
    fn clone_shares_the_literals() {
        let c = Clause::new(vec![lp(0), ln(1), lp(3)]);
        let copy = c.clone();
        assert_eq!(copy.literals().as_ptr(), c.literals().as_ptr());
    }

    #[test]
    fn constructors_equal_new_of_the_same_literals() {
        let a = Clause::new(vec![lp(0), ln(2), lp(4)]);
        let b = Clause::new(vec![ln(1), ln(2), lp(5)]);
        assert_eq!(Clause::empty(), Clause::new(vec![]));
        assert_eq!(Clause::unit(ln(3)), Clause::new(vec![ln(3)]));
        assert_eq!(
            a.disjoin(&b),
            Clause::new(vec![lp(0), ln(1), ln(2), lp(4), lp(5)])
        );
        assert_eq!(a.with(lp(3)), Clause::new(vec![lp(0), ln(2), lp(3), lp(4)]));
        assert_eq!(a.with(ln(2)).literals().as_ptr(), a.literals().as_ptr());
        assert_eq!(a.without(ln(2)), Clause::new(vec![lp(0), lp(4)]));
        // The resolvent keeps a literal both sides share once.
        let p = Clause::new(vec![lp(1), ln(2), lp(4)]);
        assert_eq!(p.resolve(&b, lp(1)), Clause::new(vec![ln(2), lp(4), lp(5)]));
    }

    #[test]
    fn constructors_past_the_inline_length_agree_with_new() {
        let evens: Vec<Literal> = (0..40).map(|i| lp(2 * i)).collect();
        let odds: Vec<Literal> = (0..40).map(|i| ln(2 * i + 1)).collect();
        let a = Clause::new(evens.clone());
        let b = Clause::new(odds.clone());
        let all = Clause::new([evens.clone(), odds].concat());
        assert_eq!(a.disjoin(&b), all);
        assert_eq!(
            all.without(lp(0)),
            Clause::new(evens[1..].to_vec()).disjoin(&b)
        );
        assert_eq!(a.with(lp(1)), Clause::new([evens, vec![lp(1)]].concat()));
        let c = Clause::new([b.literals(), &[ln(0)]].concat());
        assert_eq!(a.resolve(&c, lp(0)), a.without(lp(0)).disjoin(&b));
    }

    #[test]
    fn from_iterator() {
        let c: Clause = [lp(1), lp(0)].into_iter().collect();
        assert_eq!(c.literals(), &[lp(0), lp(1)]);
    }
}
