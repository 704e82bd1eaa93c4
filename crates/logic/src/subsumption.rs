//! Subsumption: the §4 reduction behind the optimized BLU-C operators,
//! and the flat subsumption-minimal list the indexed engine runs it on.
//!
//! Subsumption is the workhorse normalization of the optimized BLU-C
//! operators: it is model-preserving, cheap relative to the operations it
//! shrinks, and keeps the clause-level states close to canonical so that
//! emulation checks against the instance level stay tractable.
//!
//! [`MinimalSet`] keeps a subsumption-minimal list of clauses, each with a
//! 64-bit signature (one hashed bit per literal). `φ ⊆ ψ` requires
//! `sig(φ) & !sig(ψ) == 0`, a one-word test that skips most
//! [`Clause::subsumes`] calls; the skips are counted in
//! `logic.index.sig_prunes`. Every probe is a flat scan over the members.
//! The reduce sweep ([`ClauseSet::reduce_subsumed`]), the reduced `mask`,
//! Tison's method ([`crate::prime_implicates`]) and
//! [`crate::resolution::saturate`] run on it under
//! [`crate::EngineMode::Indexed`]; the naive engine ([`crate::reference`])
//! scans a [`ClauseSet`] instead and is the oracle it is checked against.

use pwdb_metrics::counter;

use crate::atom::AtomId;
use crate::clause::Clause;
use crate::clause_set::ClauseSet;
use crate::governor;
use crate::literal::Literal;

/// Inserts `clause` into `set` applying forward and backward subsumption:
/// the clause is skipped if subsumed by a member, and members it subsumes
/// are removed. Tautologies are skipped, and a clause equal to an existing
/// member reports "not added" *before* any subsumption work. Returns
/// whether `set` changed.
///
/// One insert is one scan either way, so both engines share the naive
/// path; the bulk sweeps are the ones that run on [`MinimalSet`].
pub fn insert_with_subsumption(set: &mut ClauseSet, clause: Clause) -> bool {
    crate::reference::insert_with_subsumption(set, clause)
}

/// Members one governor step pays for in a flat scan: a scan over `n`
/// members charges `⌈n / 64⌉` steps, on top of `len + 1` for each member
/// it passes to [`Clause::subsumes`].
const MEMBERS_PER_STEP: usize = 64;

/// The 64-bit Bloom signature of a clause: one hashed bit per literal.
/// `a.subsumes(b)` implies `signature(a) & !signature(b) == 0`.
fn signature(clause: &Clause) -> u64 {
    clause.literals().iter().fold(0u64, |sig, &l| {
        // Fibonacci hash of the packed code; the top 6 bits pick the bit.
        sig | 1u64 << ((l.code() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58)
    })
}

/// A subsumption-minimal list of clauses: no member subsumes another.
#[derive(Debug, Default)]
pub struct MinimalSet {
    members: Vec<(Clause, u64)>,
}

impl MinimalSet {
    /// The subsumption-minimal members of `clauses`. They are visited
    /// shortest first, so only forward checks can fire: distinct clauses
    /// of equal length never subsume each other. Tautologies stay as
    /// members unless something subsumes them, as in the naive
    /// [`crate::reference::reduce_subsumed`].
    pub fn from_clauses(clauses: impl IntoIterator<Item = Clause>) -> Self {
        let mut order: Vec<Clause> = clauses.into_iter().collect();
        order.sort_by_key(Clause::len);
        let mut out = Self::default();
        for clause in order {
            let sig = signature(&clause);
            if !out.forward_subsumed(&clause, sig) {
                out.push(clause, sig);
            }
        }
        out
    }

    /// Adds `clause` unless it is a tautology or a member subsumes it (an
    /// equal member included), then drops the members it subsumes.
    /// Returns whether the set changed.
    pub fn insert(&mut self, clause: Clause) -> bool {
        if clause.is_tautology() {
            return false;
        }
        let sig = signature(&clause);
        if self.forward_subsumed(&clause, sig) {
            return false;
        }
        self.drop_subsumed_by(&clause, sig);
        self.push(clause, sig);
        true
    }

    /// Removes the members that mention `atom` and returns them split into
    /// those holding `atom` and those holding `¬atom` (a member holding
    /// both goes with `atom`).
    pub fn take_atom(&mut self, atom: AtomId) -> (Vec<Clause>, Vec<Clause>) {
        self.charge_scan();
        self.members
            .extract_if(.., |(c, _)| c.mentions(atom))
            .map(|(c, _)| c)
            .partition(|c| c.contains(Literal::pos(atom)))
    }

    /// Copies of the members that mention `atom`, split as in
    /// [`Self::take_atom`].
    pub fn mentioning(&self, atom: AtomId) -> (Vec<Clause>, Vec<Clause>) {
        self.charge_scan();
        self.members
            .iter()
            .filter(|(c, _)| c.mentions(atom))
            .map(|(c, _)| c.clone())
            .partition(|c| c.contains(Literal::pos(atom)))
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether there are no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The members as a [`ClauseSet`], tautologies included.
    pub fn into_set(self) -> ClauseSet {
        ClauseSet::from_clauses_raw(self.members.into_iter().map(|(c, _)| c))
    }

    fn charge_scan(&self) {
        governor::step_n(self.members.len().div_ceil(MEMBERS_PER_STEP) as u64);
    }

    fn push(&mut self, clause: Clause, sig: u64) {
        governor::step_n(clause.len() as u64 + 1);
        self.members.push((clause, sig));
    }

    /// Whether some member subsumes `clause`. `□` has signature 0, so it
    /// passes every signature test and is always compared.
    fn forward_subsumed(&self, clause: &Clause, sig: u64) -> bool {
        self.charge_scan();
        let mut prunes = 0;
        let hit = self.members.iter().any(|(m, msig)| {
            if m.len() > clause.len() {
                return false;
            }
            if msig & !sig != 0 {
                prunes += 1;
                return false;
            }
            governor::step_n(m.len() as u64 + 1);
            m.subsumes(clause)
        });
        counter!("logic.index.sig_prunes").add(prunes);
        if hit {
            counter!("logic.subsumption.forward_hits").inc();
        }
        hit
    }

    /// Drops the members `clause` subsumes. Only longer members qualify:
    /// an equal one was caught by the forward check.
    fn drop_subsumed_by(&mut self, clause: &Clause, sig: u64) {
        self.charge_scan();
        let before = self.members.len();
        let mut prunes = 0;
        self.members.retain(|(m, msig)| {
            if m.len() <= clause.len() {
                return true;
            }
            if sig & !msig != 0 {
                prunes += 1;
                return true;
            }
            governor::step_n(m.len() as u64 + 1);
            !clause.subsumes(m)
        });
        counter!("logic.index.sig_prunes").add(prunes);
        counter!("logic.subsumption.backward_hits").add((before - self.members.len()) as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::AtomTable;
    use crate::parser::{parse_clause, parse_clause_set};

    fn lp(i: u32) -> Literal {
        Literal::pos(AtomId(i))
    }
    fn ln(i: u32) -> Literal {
        Literal::neg(AtomId(i))
    }

    #[test]
    fn skips_subsumed_insert() {
        let mut t = AtomTable::with_indexed_atoms(4);
        let mut s = parse_clause_set("{A1}", &mut t).unwrap();
        let weaker = parse_clause("A1 | A2", &mut t).unwrap();
        assert!(!insert_with_subsumption(&mut s, weaker));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn removes_subsumed_members() {
        let mut t = AtomTable::with_indexed_atoms(4);
        let mut s = parse_clause_set("{A1 | A2, A1 | A3}", &mut t).unwrap();
        let stronger = parse_clause("A1", &mut t).unwrap();
        assert!(insert_with_subsumption(&mut s, stronger.clone()));
        assert_eq!(s.len(), 1);
        assert!(s.contains(&stronger));
    }

    #[test]
    fn skips_tautologies() {
        let mut t = AtomTable::with_indexed_atoms(2);
        let mut s = ClauseSet::new();
        let taut = parse_clause("A1 | !A1", &mut t).unwrap();
        assert!(!insert_with_subsumption(&mut s, taut));
        assert!(s.is_empty());
    }

    #[test]
    fn signature_respects_subsumption() {
        let small = Clause::new(vec![lp(0), ln(3)]);
        let big = Clause::new(vec![lp(0), ln(3), lp(7)]);
        assert_eq!(signature(&small) & !signature(&big), 0);
        assert_eq!(signature(&Clause::empty()), 0);
    }

    #[test]
    fn insert_filters_both_directions_and_rejects_duplicates() {
        let mut set = MinimalSet::default();
        assert!(set.insert(Clause::new(vec![lp(0), lp(1)])));
        assert!(set.insert(Clause::new(vec![lp(0), lp(2)])));
        // Forward: weaker than a member.
        assert!(!set.insert(Clause::new(vec![lp(0), lp(1), lp(3)])));
        // Duplicate: unchanged.
        assert!(!set.insert(Clause::new(vec![lp(0), lp(1)])));
        // Tautology: never a member through `insert`.
        assert!(!set.insert(Clause::new(vec![lp(4), ln(4)])));
        assert_eq!(set.len(), 2);
        // Backward: subsumes both members.
        assert!(set.insert(Clause::unit(lp(0))));
        assert_eq!(
            set.into_set(),
            ClauseSet::from_clauses([Clause::unit(lp(0))])
        );
    }

    #[test]
    fn empty_clause_subsumes_all() {
        let mut set =
            MinimalSet::from_clauses([Clause::unit(lp(0)), Clause::new(vec![lp(1), ln(2)])]);
        assert!(set.insert(Clause::empty()));
        assert_eq!(set.len(), 1);
        // And everything after it is forward-subsumed.
        assert!(!set.insert(Clause::unit(lp(5))));
        assert_eq!(set.into_set(), ClauseSet::contradiction());
    }

    #[test]
    fn from_clauses_keeps_unsubsumed_tautologies_and_drops_duplicates() {
        let taut = Clause::new(vec![lp(0), ln(0), lp(1)]);
        let set = MinimalSet::from_clauses([
            taut.clone(),
            Clause::new(vec![lp(0), ln(0), lp(1), lp(2)]),
            Clause::new(vec![lp(2), lp(3)]),
            Clause::new(vec![lp(2), lp(3)]),
            Clause::unit(lp(3)),
        ]);
        let mut expected = ClauseSet::from_clauses([Clause::unit(lp(3))]);
        expected.insert_raw(taut);
        assert_eq!(set.into_set(), expected);
    }

    #[test]
    fn take_atom_splits_by_polarity_and_removes() {
        let mut set = MinimalSet::from_clauses([
            Clause::new(vec![lp(0), lp(1)]),
            Clause::new(vec![ln(0), lp(2)]),
            Clause::new(vec![ln(0), ln(1)]),
            Clause::unit(lp(3)),
        ]);
        let copies = set.mentioning(AtomId(0));
        let (pos, neg) = set.take_atom(AtomId(0));
        assert_eq!(copies, (pos.clone(), neg.clone()));
        assert_eq!(pos, vec![Clause::new(vec![lp(0), lp(1)])]);
        assert_eq!(neg.len(), 2);
        assert!(neg.iter().all(|c| c.contains(ln(0))));
        assert_eq!(set.len(), 1);
        assert_eq!(set.take_atom(AtomId(0)), (vec![], vec![]));
    }
}
