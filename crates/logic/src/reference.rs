//! The naive clausal engine, preserved as the differential oracle.
//!
//! These are the paper-direct pairwise algorithms that predate the
//! literal-occurrence index: every subsumption probe scans the whole set
//! and every resolution round re-tries every pair. They are kept — not
//! deleted — because they are the *specification* the indexed engine in
//! [`crate::index`] is measured against: the differential harness
//! (`tests/index_differential.rs`) runs both engines over seeded
//! programs and requires bit-identical clause sets, and the
//! `report_index` bench binary runs both over the E1–E5 workloads to
//! quantify the saved subsumption comparisons and resolvent pairs.
//!
//! Dispatch happens in the public entry points
//! ([`ClauseSet::reduce_subsumed`],
//! [`crate::subsumption::merge_with_subsumption`],
//! [`crate::resolution::saturate`], [`crate::prime_implicates`]) on
//! [`crate::engine::engine_mode`].

use pwdb_metrics::counter;

use crate::atom::AtomId;
use crate::clause::Clause;
use crate::clause_set::ClauseSet;
use crate::governor;
use crate::resolution::resolvent;

/// Naive `reduce_subsumed`: for each member, scan every other remaining
/// member for a subsumer — O(n²) subsumption comparisons.
pub fn reduce_subsumed(set: &mut ClauseSet) -> usize {
    let clauses: Vec<Clause> = set.iter().cloned().collect();
    let mut dropped = 0;
    for c in &clauses {
        if !set.contains(c) {
            continue;
        }
        // A clause is removed if some *other* remaining clause subsumes it.
        let subsumed = set.iter().any(|other| {
            governor::step_n(other.len() as u64 + 1);
            other != c && other.subsumes(c)
        });
        if subsumed {
            set.remove(c);
            dropped += 1;
        }
    }
    dropped
}

/// Naive subsumption-processed insert: forward scan, then backward scan,
/// both over the full set.
pub fn insert_with_subsumption(set: &mut ClauseSet, clause: Clause) -> bool {
    if clause.is_tautology() {
        return false;
    }
    if set.contains(&clause) {
        return false;
    }
    let forward_subsumed = set.iter().any(|c| {
        governor::step_n(c.len() as u64 + 1);
        c.subsumes(&clause)
    });
    if forward_subsumed {
        counter!("logic.subsumption.forward_hits").inc();
        return false;
    }
    let doomed: Vec<Clause> = set
        .iter()
        .filter(|c| {
            governor::step_n(clause.len() as u64 + 1);
            clause.subsumes(c)
        })
        .cloned()
        .collect();
    counter!("logic.subsumption.backward_hits").add(doomed.len() as u64);
    for c in &doomed {
        set.remove(c);
    }
    set.insert(clause)
}

/// Naive merge: one naive insert per member of `other`.
pub fn merge_with_subsumption(set: &mut ClauseSet, other: &ClauseSet) -> usize {
    let mut added = 0;
    for c in other.iter() {
        if insert_with_subsumption(set, c.clone()) {
            added += 1;
        }
    }
    added
}

/// Naive saturation under resolution up to subsumption: every round
/// re-tries every (positive, negative) pair on every atom against a
/// snapshot, with a full subsumption scan per resolvent.
pub fn saturate(set: &ClauseSet) -> ClauseSet {
    let mut current = set.clone();
    current.reduce_subsumed();
    loop {
        let mut added = false;
        let atoms: Vec<AtomId> = current.props().into_iter().collect();
        let snapshot = current.clone();
        for a in atoms {
            let (pos_side, neg_side) = snapshot.split_on(a);
            for p in &pos_side {
                for n in &neg_side {
                    counter!("logic.resolution.pairs_tried").inc();
                    governor::step_n((p.len() + n.len()) as u64 + 1);
                    if let Some(r) = resolvent(p, n, a) {
                        if r.is_tautology() {
                            continue;
                        }
                        // Skip resolvents already subsumed by a member.
                        let skip = current.iter().any(|c| {
                            governor::step_n(c.len() as u64 + 1);
                            c.subsumes(&r)
                        });
                        if skip {
                            continue;
                        }
                        current.insert(r);
                        added = true;
                    }
                }
            }
        }
        if !added {
            current.reduce_subsumed();
            return current;
        }
        current.reduce_subsumed();
    }
}

/// Naive Tison closure: per atom, re-try every ordered snapshot pair to a
/// fixpoint, with naive subsumption-processed inserts throughout.
pub fn prime_implicates(set: &ClauseSet) -> ClauseSet {
    let mut current = ClauseSet::new();
    for c in set.iter() {
        insert_with_subsumption(&mut current, c.clone());
    }
    let atoms: Vec<AtomId> = current.props().into_iter().collect();
    for &atom in &atoms {
        loop {
            let snapshot: Vec<_> = current.iter().cloned().collect();
            let mut added = false;
            for (i, c1) in snapshot.iter().enumerate() {
                for c2 in &snapshot[..i] {
                    for (a, b) in [(c1, c2), (c2, c1)] {
                        counter!("logic.resolution.pairs_tried").inc();
                        governor::step_n((a.len() + b.len()) as u64 + 1);
                        if let Some(r) = resolvent(a, b, atom) {
                            if !r.is_tautology() && insert_with_subsumption(&mut current, r) {
                                added = true;
                            }
                        }
                    }
                }
            }
            if !added {
                break;
            }
        }
    }
    current
}
