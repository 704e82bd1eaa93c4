//! The literal-occurrence index behind the indexed clausal engine.
//!
//! Every BLU-C primitive bottoms out in two sweeps over a clause set:
//! *subsumption* (is some member ⊆ this clause? which members ⊇ it?) and
//! *resolution partner lookup* (which members contain `¬λ`?). The naive
//! forms ([`crate::reference`]) scan the whole set per probe — O(n²)
//! over a sweep. [`IndexedClauseSet`] replaces the scans with:
//!
//! * **occurrence lists** — for each literal, the slots of the live
//!   clauses containing it. A clause that subsumes `φ` draws all its
//!   literals from `φ`, so forward-subsumption candidates come from the
//!   occurrence lists of `φ`'s own literals (visited once each via the
//!   first-literal trick); backward candidates must contain *every*
//!   literal of `φ`, so the shortest occurrence list suffices.
//! * **signatures** — a 64-bit Bloom word per clause (one hashed bit per
//!   literal). `φ ⊆ ψ` requires `sig(φ) & !sig(ψ) == 0`, a one-word
//!   rejection that skips most [`Clause::subsumes`] comparisons; the
//!   skips are counted in `logic.index.sig_prunes`.
//!
//! Removal marks a slot dead and leaves the occurrence lists lazily
//! stale; lists are compacted when dead entries dominate. The engine
//! entry points (`reduce_subsumed`, `merge_with_subsumption`, `saturate`,
//! `prime_implicates`) build an index per closure — `O(Length[Φ])` — and
//! amortize it across the whole sweep.

use std::collections::HashMap;

use pwdb_metrics::counter;

use crate::clause::Clause;
use crate::clause_set::ClauseSet;
use crate::governor;
use crate::literal::Literal;

/// The 64-bit Bloom signature of a clause: one hashed bit per literal.
/// `a.subsumes(b)` implies `signature(a) & !signature(b) == 0`.
#[inline]
pub fn signature(clause: &Clause) -> u64 {
    clause
        .literals()
        .iter()
        .fold(0u64, |sig, &l| sig | 1u64 << literal_bit(l))
}

#[inline]
fn literal_bit(l: Literal) -> u32 {
    // Fibonacci hash of the packed code; the top 6 bits select the bit.
    ((l.code() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58) as u32
}

/// A clause-slot handle inside one [`IndexedClauseSet`].
pub type Slot = u32;

/// A clause set maintained under a literal-occurrence index and per-clause
/// signatures. Semantically identical to [`ClauseSet`] (the differential
/// harness proves it); structurally tuned for subsumption and resolution
/// sweeps.
#[derive(Debug, Default)]
pub struct IndexedClauseSet {
    /// Slot arena; `None` marks a removed clause.
    slots: Vec<Option<(Clause, u64)>>,
    /// literal → slots of live clauses containing it (may hold stale
    /// slots of removed clauses; skipped and compacted lazily).
    occ: HashMap<Literal, Vec<Slot>>,
    /// Exact membership, for O(1) duplicate detection.
    members: HashMap<Clause, Slot>,
    /// Slot of the empty clause `□`, if present (it has no literals, so
    /// no occurrence list ever finds it).
    empty_slot: Option<Slot>,
    /// Live-clause count.
    len: usize,
    /// Literal occurrences of the live clauses.
    live_lits: usize,
    /// Dead entries currently left in occurrence lists.
    stale: usize,
}

impl IndexedClauseSet {
    /// An empty indexed set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Indexes an existing set (no subsumption applied — the members are
    /// taken as they are, tautologies included).
    pub fn from_set(set: &ClauseSet) -> Self {
        let mut out = Self::new();
        for c in set.iter() {
            out.insert_raw(c.clone());
        }
        out
    }

    /// Converts back to a plain [`ClauseSet`], preserving every live
    /// member (tautologies included, mirroring `insert_raw`).
    pub fn to_set(&self) -> ClauseSet {
        let mut out = ClauseSet::new();
        for (c, _) in self.slots.iter().flatten() {
            out.insert_raw(c.clone());
        }
        out
    }

    /// Number of live clauses.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no clause is live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether the exact clause is a live member.
    pub fn contains(&self, clause: &Clause) -> bool {
        self.members.contains_key(clause)
    }

    /// Whether `□` is a live member.
    pub fn has_empty_clause(&self) -> bool {
        self.empty_slot.is_some()
    }

    /// Iterates over the live clauses in slot (insertion) order.
    pub fn iter(&self) -> impl Iterator<Item = &Clause> {
        self.slots.iter().flatten().map(|(c, _)| c)
    }

    /// The live clause in `slot`, if any.
    #[inline]
    fn live(&self, slot: Slot) -> Option<&(Clause, u64)> {
        self.slots[slot as usize].as_ref()
    }

    /// Inserts without any subsumption processing; duplicates are
    /// rejected, tautologies are kept. Returns the new slot if added.
    pub fn insert_raw(&mut self, clause: Clause) -> Option<Slot> {
        if self.members.contains_key(&clause) {
            return None;
        }
        let slot = u32::try_from(self.slots.len()).expect("slot overflow");
        governor::step_n(clause.len() as u64 + 1);
        let sig = signature(&clause);
        for &l in clause.literals() {
            self.occ.entry(l).or_default().push(slot);
        }
        if clause.is_empty() {
            self.empty_slot = Some(slot);
        }
        self.live_lits += clause.len();
        self.members.insert(clause.clone(), slot);
        self.slots.push(Some((clause, sig)));
        self.len += 1;
        Some(slot)
    }

    /// Removes and returns the clause in `slot`, `None` if it is already
    /// gone (occurrence lists stay lazily stale).
    pub fn remove(&mut self, slot: Slot) -> Option<Clause> {
        let (clause, _) = self.slots[slot as usize].take()?;
        self.stale += clause.len();
        self.live_lits -= clause.len();
        if clause.is_empty() {
            self.empty_slot = None;
        }
        self.members.remove(&clause);
        self.len -= 1;
        self.maybe_compact();
        Some(clause)
    }

    /// Drops dead entries from the occurrence lists once they outnumber
    /// the live literal occurrences.
    fn maybe_compact(&mut self) {
        if self.stale <= self.live_lits.max(64) {
            return;
        }
        let slots = &self.slots;
        for list in self.occ.values_mut() {
            list.retain(|&s| slots[s as usize].is_some());
        }
        self.occ.retain(|_, list| !list.is_empty());
        self.stale = 0;
    }

    /// Whether some live member subsumes `clause` (forward subsumption).
    ///
    /// Any subsumer draws all its literals from `clause`, so it appears in
    /// the occurrence list of its *first* literal, which must be one of
    /// `clause`'s literals — each candidate is therefore tested exactly
    /// once. An equal member subsumes trivially; `□` subsumes everything.
    pub fn is_forward_subsumed(&self, clause: &Clause, sig: u64) -> bool {
        if self.empty_slot.is_some() {
            return true;
        }
        for &l in clause.literals() {
            let Some(list) = self.occ.get(&l) else {
                continue;
            };
            for &slot in list {
                let Some((cand, cand_sig)) = self.live(slot) else {
                    continue;
                };
                governor::step();
                if cand.literals().first() != Some(&l) || cand.len() > clause.len() {
                    continue;
                }
                if cand_sig & !sig != 0 {
                    counter!("logic.index.sig_prunes").inc();
                    continue;
                }
                governor::step_n(cand.len() as u64);
                if cand.subsumes(clause) {
                    return true;
                }
            }
        }
        false
    }

    /// The slots of live members subsumed by `clause` (backward
    /// subsumption). A subsumed member contains every literal of
    /// `clause`, so the shortest of `clause`'s occurrence lists already
    /// holds all candidates; for `□` every member qualifies.
    fn subsumed_slots(&self, clause: &Clause, sig: u64) -> Vec<Slot> {
        if clause.is_empty() {
            return self
                .slots
                .iter()
                .enumerate()
                .filter(|(_, s)| s.as_ref().is_some_and(|(c, _)| !c.is_empty()))
                .map(|(i, _)| i as Slot)
                .collect();
        }
        let Some(shortest) = clause
            .literals()
            .iter()
            .filter_map(|l| self.occ.get(l))
            .min_by_key(|list| list.len())
        else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for &slot in shortest {
            let Some((cand, cand_sig)) = self.live(slot) else {
                continue;
            };
            governor::step_n(clause.len() as u64 + 1);
            if cand.len() <= clause.len() {
                // Equal-length distinct clauses never subsume; the equal
                // clause itself is never live here (duplicates are
                // rejected before the backward sweep).
                continue;
            }
            if sig & !cand_sig != 0 {
                counter!("logic.index.sig_prunes").inc();
                continue;
            }
            if clause.subsumes(cand) {
                out.push(slot);
            }
        }
        out
    }

    /// Inserts with forward and backward subsumption, keeping
    /// tautologies out (the [`ClauseSet::insert`] normalization).
    /// Returns whether the set changed.
    pub fn insert_with_subsumption(&mut self, clause: Clause) -> bool {
        if clause.is_tautology() {
            return false;
        }
        self.insert_with_subsumption_raw(clause)
    }

    /// Subsumption-processed insert that admits tautological clauses
    /// (needed by the reduce sweep, which must treat an existing
    /// tautology like any other member).
    pub fn insert_with_subsumption_raw(&mut self, clause: Clause) -> bool {
        if self.members.contains_key(&clause) {
            return false;
        }
        let sig = signature(&clause);
        if self.is_forward_subsumed(&clause, sig) {
            counter!("logic.subsumption.forward_hits").inc();
            return false;
        }
        let doomed = self.subsumed_slots(&clause, sig);
        counter!("logic.subsumption.backward_hits").add(doomed.len() as u64);
        for slot in doomed {
            self.remove(slot);
        }
        self.insert_raw(clause);
        true
    }

    /// The live clauses containing `lit` — the resolution partners of a
    /// clause containing `¬lit` — with their slots.
    pub fn partners(&self, lit: Literal) -> Vec<Slot> {
        match self.occ.get(&lit) {
            Some(list) => list
                .iter()
                .copied()
                .filter(|&s| self.slots[s as usize].is_some())
                .collect(),
            None => Vec::new(),
        }
    }

    /// The clause in `slot`; `None` once removed.
    pub fn clause(&self, slot: Slot) -> Option<&Clause> {
        self.live(slot).map(|(c, _)| c)
    }

    /// The slot currently holding exactly `clause`, if it is a live
    /// member (used by the closure worklists to enqueue fresh inserts).
    pub fn slot_of(&self, clause: &Clause) -> Option<Slot> {
        self.members.get(clause).copied()
    }

    /// The slots of every live clause, in insertion order — ascending
    /// clause length when the inserts were length-sorted, which seeds the
    /// closure worklists units-first.
    pub fn live_slots(&self) -> Vec<Slot> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_some())
            .map(|(i, _)| i as Slot)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::AtomId;

    fn lp(i: u32) -> Literal {
        Literal::pos(AtomId(i))
    }
    fn ln(i: u32) -> Literal {
        Literal::neg(AtomId(i))
    }

    #[test]
    fn signature_respects_subsumption() {
        let small = Clause::new(vec![lp(0), ln(3)]);
        let big = Clause::new(vec![lp(0), ln(3), lp(7)]);
        assert_eq!(signature(&small) & !signature(&big), 0);
        assert_eq!(signature(&Clause::empty()), 0);
    }

    #[test]
    fn insert_with_subsumption_filters_both_directions() {
        let mut idx = IndexedClauseSet::new();
        assert!(idx.insert_with_subsumption(Clause::new(vec![lp(0), lp(1)])));
        assert!(idx.insert_with_subsumption(Clause::new(vec![lp(0), lp(2)])));
        // Forward: weaker than an existing member.
        assert!(!idx.insert_with_subsumption(Clause::new(vec![lp(0), lp(1), lp(3)])));
        // Duplicate: unchanged.
        assert!(!idx.insert_with_subsumption(Clause::new(vec![lp(0), lp(1)])));
        // Backward: subsumes both members.
        assert!(idx.insert_with_subsumption(Clause::unit(lp(0))));
        assert_eq!(idx.len(), 1);
        assert!(idx.contains(&Clause::unit(lp(0))));
    }

    #[test]
    fn empty_clause_subsumes_all() {
        let mut idx = IndexedClauseSet::new();
        idx.insert_with_subsumption(Clause::unit(lp(0)));
        idx.insert_with_subsumption(Clause::new(vec![lp(1), ln(2)]));
        assert!(idx.insert_with_subsumption(Clause::empty()));
        assert_eq!(idx.len(), 1);
        assert!(idx.has_empty_clause());
        // And everything after it is forward-subsumed.
        assert!(!idx.insert_with_subsumption(Clause::unit(lp(5))));
    }

    #[test]
    fn partners_track_removals() {
        let mut idx = IndexedClauseSet::new();
        idx.insert_with_subsumption(Clause::new(vec![lp(0), lp(1)]));
        idx.insert_with_subsumption(Clause::new(vec![lp(0), ln(2)]));
        assert_eq!(idx.partners(lp(0)).len(), 2);
        // A unit subsuming both replaces them; stale occurrences must not
        // resurface.
        idx.insert_with_subsumption(Clause::unit(lp(0)));
        assert_eq!(idx.partners(lp(0)).len(), 1);
        assert_eq!(idx.partners(lp(1)).len(), 0);
    }

    #[test]
    fn remove_returns_the_clause_once() {
        let mut idx = IndexedClauseSet::new();
        let c = Clause::new(vec![lp(0), ln(1)]);
        let slot = idx.insert_raw(c.clone()).unwrap();
        idx.insert_raw(Clause::empty());
        assert_eq!(idx.remove(slot), Some(c.clone()));
        assert_eq!(idx.remove(slot), None);
        assert!(!idx.contains(&c));
        assert!(idx.partners(lp(0)).is_empty());
        assert_eq!(idx.len(), 1);
        // The slot is dead, but the clause may come back in a new one.
        assert!(idx.insert_raw(c.clone()).is_some());
        assert_eq!(idx.partners(ln(1)).len(), 1);
    }

    #[test]
    fn roundtrip_preserves_members() {
        let set = ClauseSet::from_clauses([
            Clause::unit(lp(0)),
            Clause::new(vec![ln(1), lp(2)]),
            Clause::empty(),
        ]);
        let idx = IndexedClauseSet::from_set(&set);
        assert_eq!(idx.to_set(), set);
        assert_eq!(idx.len(), set.len());
        assert!(idx.has_empty_clause());
    }
}
