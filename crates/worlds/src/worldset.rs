//! Sets of possible worlds (`IDB[D]`, Definition 1.2.2), as bitsets.
//!
//! A schema over `n` atoms has `2^n` structures; a [`WorldSet`] is a
//! bitset with `2^n` positions, bit `w` meaning "the structure whose
//! packed bits are `w` is a possible world". The Boolean algebra that
//! gives **BLU-I** its `combine`/`assert`/`complement` (Definition 2.2.2)
//! is word-parallel, and the *flip* permutation along one atom's axis
//! gives `Dep`, simple masks, and mask application in `O(n · 2^n / 64)`.

use std::fmt;

use pwdb_logic::{AtomId, ClauseSet, Wff};

use crate::World;

/// Butterfly masks for in-word axis flips: `IN_WORD_MASKS[a]` selects the
/// bits whose world index has a 0 at atom position `a`, for `a < 6`.
const IN_WORD_MASKS: [u64; 6] = [
    0x5555_5555_5555_5555,
    0x3333_3333_3333_3333,
    0x0F0F_0F0F_0F0F_0F0F,
    0x00FF_00FF_00FF_00FF,
    0x0000_FFFF_0000_FFFF,
    0x0000_0000_FFFF_FFFF,
];

/// A set of possible worlds over a fixed universe of `n` atoms.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct WorldSet {
    n_atoms: usize,
    /// `ceil(2^n / 64)` words; for `n < 6` only the low `2^n` bits of
    /// `blocks[0]` are meaningful and the rest are kept zero.
    blocks: Vec<u64>,
}

impl WorldSet {
    fn n_blocks(n_atoms: usize) -> usize {
        if n_atoms >= 6 {
            1 << (n_atoms - 6)
        } else {
            1
        }
    }

    /// Mask of meaningful bits in the (single) block when `n < 6`.
    fn tail_mask(n_atoms: usize) -> u64 {
        if n_atoms >= 6 {
            u64::MAX
        } else {
            (1u64 << (1usize << n_atoms)) - 1
        }
    }

    /// The empty set of worlds (`∅ ∈ IDB[D]`, the overconstrained state).
    pub fn empty(n_atoms: usize) -> Self {
        assert!(
            n_atoms <= crate::schema::MAX_SCHEMA_ATOMS,
            "a WorldSet materializes 2^n_atoms bits: n_atoms = {n_atoms} \
             exceeds the {} supported (use the clausal backend instead)",
            crate::schema::MAX_SCHEMA_ATOMS
        );
        WorldSet {
            n_atoms,
            blocks: vec![0; Self::n_blocks(n_atoms)],
        }
    }

    /// The full set `DB[D]` (no information).
    pub fn full(n_atoms: usize) -> Self {
        let mut s = Self::empty(n_atoms);
        for b in &mut s.blocks {
            *b = u64::MAX;
        }
        let tail = Self::tail_mask(n_atoms);
        if let Some(last) = s.blocks.last_mut() {
            *last &= tail;
        }
        s
    }

    /// Singleton `{s}` — the image of a complete database under the
    /// inclusion `DB[D] → IDB[D]` of §1.2.
    pub fn singleton(n_atoms: usize, world: World) -> Self {
        let mut s = Self::empty(n_atoms);
        s.insert(world);
        s
    }

    /// `Mod[Φ]` over this universe: the worlds satisfying a clause set.
    pub fn from_clauses(n_atoms: usize, clauses: &ClauseSet) -> Self {
        assert!(clauses.atom_bound() <= n_atoms);
        let mut s = Self::full(n_atoms);
        for c in clauses.iter() {
            // Remove the worlds falsifying this clause: those assigning
            // every literal false. They form a subcube; enumerate it.
            if c.is_tautology() {
                continue;
            }
            let mut fixed_bits = 0u64;
            let mut fixed_mask = 0u64;
            for &lit in c.literals() {
                fixed_mask |= 1u64 << lit.atom().0;
                if !lit.is_positive() {
                    fixed_bits |= 1u64 << lit.atom().0;
                }
            }
            s.remove_subcube(fixed_bits, fixed_mask);
        }
        s
    }

    /// `Mod[{φ}]` for a wff.
    pub fn from_wff(n_atoms: usize, wff: &Wff) -> Self {
        assert!(wff.atom_bound() <= n_atoms);
        let mut s = Self::empty(n_atoms);
        for w in World::enumerate(n_atoms) {
            if wff.eval(&w) {
                s.insert(w);
            }
        }
        s
    }

    /// Removes every world `w` with `w & fixed_mask == fixed_bits`.
    fn remove_subcube(&mut self, fixed_bits: u64, fixed_mask: u64) {
        // Enumerate the free atoms' combinations.
        let n = self.n_atoms;
        let free_mask = (Self::universe_mask(n)) & !fixed_mask;
        // Iterate subsets of free_mask via the standard trick.
        let mut sub = 0u64;
        loop {
            let world = fixed_bits | sub;
            self.remove_bits(world);
            if sub == free_mask {
                break;
            }
            sub = (sub.wrapping_sub(free_mask)) & free_mask;
        }
    }

    fn universe_mask(n_atoms: usize) -> u64 {
        if n_atoms == 64 {
            u64::MAX
        } else {
            (1u64 << n_atoms) - 1
        }
    }

    /// Number of atoms in the universe.
    pub fn n_atoms(&self) -> usize {
        self.n_atoms
    }

    /// Number of possible worlds in the set.
    pub fn len(&self) -> usize {
        self.blocks.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// Whether the set is empty (inconsistent information state).
    pub fn is_empty(&self) -> bool {
        self.blocks.iter().all(|&b| b == 0)
    }

    /// Whether the set is all of `DB[D]`.
    pub fn is_full(&self) -> bool {
        *self == Self::full(self.n_atoms)
    }

    #[inline]
    fn locate(bits: u64) -> (usize, u64) {
        ((bits >> 6) as usize, 1u64 << (bits & 63))
    }

    /// Membership test.
    pub fn contains(&self, world: World) -> bool {
        let (blk, bit) = Self::locate(world.bits());
        self.blocks.get(blk).is_some_and(|b| b & bit != 0)
    }

    /// Inserts a world; returns whether it was new.
    pub fn insert(&mut self, world: World) -> bool {
        assert!(world.len() == self.n_atoms, "world universe mismatch");
        let (blk, bit) = Self::locate(world.bits());
        let had = self.blocks[blk] & bit != 0;
        self.blocks[blk] |= bit;
        !had
    }

    fn remove_bits(&mut self, world_bits: u64) {
        let (blk, bit) = Self::locate(world_bits);
        self.blocks[blk] &= !bit;
    }

    /// Removes a world; returns whether it was present.
    pub fn remove(&mut self, world: World) -> bool {
        let (blk, bit) = Self::locate(world.bits());
        let had = self.blocks[blk] & bit != 0;
        self.blocks[blk] &= !bit;
        had
    }

    fn zip_with(&self, other: &WorldSet, f: impl Fn(u64, u64) -> u64) -> WorldSet {
        assert_eq!(self.n_atoms, other.n_atoms, "universe mismatch");
        WorldSet {
            n_atoms: self.n_atoms,
            blocks: self
                .blocks
                .iter()
                .zip(&other.blocks)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// `X ∪ Y` — BLU-I `combine` (Definition 2.2.2(b)(i)).
    pub fn union(&self, other: &WorldSet) -> WorldSet {
        self.zip_with(other, |a, b| a | b)
    }

    /// `X ∩ Y` — BLU-I `assert` (Definition 2.2.2(b)(ii)).
    pub fn intersect(&self, other: &WorldSet) -> WorldSet {
        self.zip_with(other, |a, b| a & b)
    }

    /// `X \ Y`.
    pub fn difference(&self, other: &WorldSet) -> WorldSet {
        self.zip_with(other, |a, b| a & !b)
    }

    /// `universe \ X` — BLU-I `complement` relative to the given universe
    /// (Definition 2.2.2(b)(iii) uses `ILDB[D]`; pass
    /// [`Schema::legal_worlds`](crate::Schema::legal_worlds) or
    /// [`WorldSet::full`] as appropriate).
    pub fn complement_within(&self, universe: &WorldSet) -> WorldSet {
        universe.difference(self)
    }

    /// Complement relative to all of `DB[D]`.
    pub fn complement(&self) -> WorldSet {
        self.complement_within(&Self::full(self.n_atoms))
    }

    /// Whether `self ⊆ other`.
    pub fn is_subset(&self, other: &WorldSet) -> bool {
        self.blocks
            .iter()
            .zip(&other.blocks)
            .all(|(&a, &b)| a & !b == 0)
    }

    /// The image of the set under the permutation flipping `atom`'s value
    /// in every world.
    pub fn flip(&self, atom: AtomId) -> WorldSet {
        assert!(atom.index() < self.n_atoms);
        let a = atom.index();
        let mut out = self.clone();
        if a < 6 {
            let m = IN_WORD_MASKS[a];
            let s = 1u32 << a;
            for b in &mut out.blocks {
                *b = ((*b & m) << s) | ((*b >> s) & m);
            }
            if self.n_atoms < 6 {
                let tail = Self::tail_mask(self.n_atoms);
                out.blocks[0] &= tail;
            }
        } else {
            let stride = 1usize << (a - 6);
            for i in 0..out.blocks.len() {
                if i & stride == 0 {
                    out.blocks.swap(i, i | stride);
                }
            }
        }
        out
    }

    /// Whether the set is closed under flipping `atom` — i.e. whether the
    /// set does **not** depend on `atom`.
    pub fn independent_of(&self, atom: AtomId) -> bool {
        self.flip(atom) == *self
    }

    /// `Dep[S]` (§1.1): atoms the set depends on.
    pub fn dep(&self) -> Vec<AtomId> {
        (0..self.n_atoms as u32)
            .map(AtomId)
            .filter(|&a| !self.independent_of(a))
            .collect()
    }

    /// Saturates along `atom`: `X ∪ flip(X)`, making the result
    /// independent of `atom`. Applying this for every atom of a simple
    /// mask `P` computes BLU-I `mask` (Definition 2.2.2(b)(iv)): the image
    /// of `X` under the congruence identifying worlds that agree outside
    /// `P`.
    pub fn saturate(&self, atom: AtomId) -> WorldSet {
        self.union(&self.flip(atom))
    }

    /// Saturates along every atom in `mask_atoms`.
    pub fn saturate_all(&self, mask_atoms: &[AtomId]) -> WorldSet {
        let mut out = self.clone();
        for &a in mask_atoms {
            out = out.saturate(a);
        }
        out
    }

    /// Iterates over member worlds in increasing packed order.
    pub fn iter(&self) -> impl Iterator<Item = World> + '_ {
        let n = self.n_atoms;
        self.blocks.iter().enumerate().flat_map(move |(i, &blk)| {
            let mut b = blk;
            std::iter::from_fn(move || {
                if b == 0 {
                    None
                } else {
                    let tz = b.trailing_zeros() as u64;
                    b &= b - 1;
                    Some(World::from_bits(((i as u64) << 6) | tz, n))
                }
            })
        })
    }

    /// Collects member worlds into a vector.
    pub fn worlds(&self) -> Vec<World> {
        self.iter().collect()
    }

    /// Filters by a predicate over worlds (e.g. legality).
    pub fn retain(&mut self, mut pred: impl FnMut(World) -> bool) {
        let members: Vec<World> = self.iter().collect();
        for w in members {
            if !pred(w) {
                self.remove(w);
            }
        }
    }
}

impl fmt::Debug for WorldSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "WorldSet(n={}, {{", self.n_atoms)?;
        for (i, w) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            if i >= 16 {
                write!(f, "… {} total", self.len())?;
                break;
            }
            write!(f, "{w}")?;
        }
        write!(f, "}})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwdb_logic::{parse_clause_set, parse_wff, AtomTable};

    fn w(bits: u64, n: usize) -> World {
        World::from_bits(bits, n)
    }

    #[test]
    fn empty_full_singleton() {
        let e = WorldSet::empty(3);
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
        let f = WorldSet::full(3);
        assert_eq!(f.len(), 8);
        assert!(f.is_full());
        let s = WorldSet::singleton(3, w(0b101, 3));
        assert_eq!(s.len(), 1);
        assert!(s.contains(w(0b101, 3)));
        assert!(!s.contains(w(0b100, 3)));
    }

    #[test]
    fn small_universe_tail_is_clean() {
        let f = WorldSet::full(2);
        assert_eq!(f.len(), 4);
        let c = f.complement();
        assert!(c.is_empty());
    }

    #[test]
    fn large_universe_blocks() {
        let f = WorldSet::full(10);
        assert_eq!(f.len(), 1024);
        let mut s = WorldSet::empty(10);
        s.insert(w(1023, 10));
        assert!(s.contains(w(1023, 10)));
        assert_eq!(f.difference(&s).len(), 1023);
    }

    #[test]
    fn boolean_algebra() {
        let mut a = WorldSet::empty(3);
        a.insert(w(0, 3));
        a.insert(w(1, 3));
        let mut b = WorldSet::empty(3);
        b.insert(w(1, 3));
        b.insert(w(2, 3));
        assert_eq!(a.union(&b).len(), 3);
        assert_eq!(a.intersect(&b).len(), 1);
        assert_eq!(a.difference(&b).len(), 1);
        assert_eq!(a.complement().len(), 6);
        assert!(a.intersect(&b).is_subset(&a));
        assert!(a.is_subset(&a.union(&b)));
    }

    #[test]
    fn from_clauses_matches_eval() {
        let mut t = AtomTable::with_indexed_atoms(4);
        let cs = parse_clause_set("{A1 | A2, !A2 | A3, !A4}", &mut t).unwrap();
        let s = WorldSet::from_clauses(4, &cs);
        for world in World::enumerate(4) {
            assert_eq!(s.contains(world), cs.eval(&world), "world {world}");
        }
    }

    #[test]
    fn from_wff_matches_eval() {
        let mut t = AtomTable::with_indexed_atoms(3);
        let wff = parse_wff("A1 <-> (A2 | !A3)", &mut t).unwrap();
        let s = WorldSet::from_wff(3, &wff);
        for world in World::enumerate(3) {
            assert_eq!(s.contains(world), wff.eval(&world));
        }
    }

    #[test]
    fn flip_small_axis() {
        let mut s = WorldSet::empty(3);
        s.insert(w(0b000, 3));
        let f = s.flip(AtomId(0));
        assert!(f.contains(w(0b001, 3)));
        assert_eq!(f.len(), 1);
        let f2 = s.flip(AtomId(2));
        assert!(f2.contains(w(0b100, 3)));
    }

    #[test]
    fn flip_large_axis_crosses_blocks() {
        // Atom index 7 ⇒ block stride of 2.
        let mut s = WorldSet::empty(8);
        s.insert(w(0, 8));
        let f = s.flip(AtomId(7));
        assert!(f.contains(w(1 << 7, 8)));
        assert_eq!(f.len(), 1);
        // Flip twice = identity.
        assert_eq!(f.flip(AtomId(7)), s);
    }

    #[test]
    fn flip_is_involution_every_axis() {
        let mut s = WorldSet::empty(9);
        for bits in [0u64, 5, 77, 300, 511] {
            s.insert(w(bits, 9));
        }
        for a in 0..9u32 {
            assert_eq!(s.flip(AtomId(a)).flip(AtomId(a)), s, "axis {a}");
        }
    }

    #[test]
    fn dep_and_independence() {
        // Worlds where A1 is true: depends only on A1.
        let mut t = AtomTable::with_indexed_atoms(3);
        let cs = parse_clause_set("{A1}", &mut t).unwrap();
        let s = WorldSet::from_clauses(3, &cs);
        assert_eq!(s.dep(), vec![AtomId(0)]);
        assert!(!s.independent_of(AtomId(0)));
        assert!(s.independent_of(AtomId(1)));
    }

    #[test]
    fn dep_of_extremes_is_empty() {
        assert!(WorldSet::empty(3).dep().is_empty());
        assert!(WorldSet::full(3).dep().is_empty());
    }

    #[test]
    fn dep_of_disjunction_is_both_atoms() {
        // The running example: Dep[Mod[{A1 ∨ A2}]] = {A1, A2} (§1.4.6).
        let mut t = AtomTable::with_indexed_atoms(3);
        let w = parse_wff("A1 | A2", &mut t).unwrap();
        assert_eq!(WorldSet::from_wff(3, &w).dep(), vec![AtomId(0), AtomId(1)]);
    }

    #[test]
    fn dep_of_tautology_is_empty() {
        // Remark 1.4.7: A1 ∨ ¬A1 depends on nothing.
        let mut t = AtomTable::with_indexed_atoms(2);
        let w = parse_wff("A1 | !A1", &mut t).unwrap();
        assert!(WorldSet::from_wff(2, &w).dep().is_empty());
    }

    #[test]
    fn dep_sees_through_syntax() {
        // (A1 & A2) | (A1 & !A2) mentions A2 but depends only on A1.
        let mut t = AtomTable::with_indexed_atoms(2);
        let w = parse_wff("(A1 & A2) | (A1 & !A2)", &mut t).unwrap();
        assert_eq!(WorldSet::from_wff(2, &w).dep(), vec![AtomId(0)]);
    }

    #[test]
    fn saturate_forgets_information() {
        let mut t = AtomTable::with_indexed_atoms(2);
        let cs = parse_clause_set("{A1, A2}", &mut t).unwrap();
        let s = WorldSet::from_clauses(2, &cs);
        assert_eq!(s.len(), 1);
        let m = s.saturate(AtomId(0));
        assert_eq!(m.len(), 2);
        assert!(m.independent_of(AtomId(0)));
        assert!(!m.independent_of(AtomId(1)));
        let m2 = s.saturate_all(&[AtomId(0), AtomId(1)]);
        assert!(m2.is_full());
    }

    #[test]
    fn saturate_is_idempotent() {
        let mut t = AtomTable::with_indexed_atoms(3);
        let cs = parse_clause_set("{A1 | A2, A3}", &mut t).unwrap();
        let s = WorldSet::from_clauses(3, &cs);
        let once = s.saturate(AtomId(1));
        assert_eq!(once.saturate(AtomId(1)), once);
    }

    #[test]
    fn iter_yields_sorted_members() {
        let mut s = WorldSet::empty(7);
        for bits in [100u64, 3, 64, 127] {
            s.insert(w(bits, 7));
        }
        let got: Vec<u64> = s.iter().map(|x| x.bits()).collect();
        assert_eq!(got, vec![3, 64, 100, 127]);
    }

    #[test]
    fn retain_filters() {
        let mut s = WorldSet::full(3);
        s.retain(|world| world.get(AtomId(0)));
        assert_eq!(s.len(), 4);
        assert!(s.iter().all(|world| world.get(AtomId(0))));
    }

    #[test]
    fn remove_subcube_via_from_clauses_unit() {
        let mut t = AtomTable::with_indexed_atoms(3);
        let cs = parse_clause_set("{A2}", &mut t).unwrap();
        let s = WorldSet::from_clauses(3, &cs);
        assert_eq!(s.len(), 4);
        assert!(s.iter().all(|world| world.get(AtomId(1))));
    }

    #[test]
    #[should_panic(expected = "universe mismatch")]
    fn universe_mismatch_panics() {
        let a = WorldSet::full(3);
        let b = WorldSet::full(4);
        let _ = a.union(&b);
    }

    /// Bits above the meaningful `2^n` positions must stay zero — the
    /// equality/hash derivations and `len` depend on it.
    fn assert_tail_clean(s: &WorldSet) {
        let tail = WorldSet::tail_mask(s.n_atoms);
        assert_eq!(
            s.blocks[0] & !tail,
            0,
            "garbage above the tail mask for n={}",
            s.n_atoms
        );
    }

    #[test]
    fn tail_mask_invariant_after_complement_small_universes() {
        for n in 0..6usize {
            let full = WorldSet::full(n);
            assert_tail_clean(&full);
            assert_eq!(full.len(), 1 << n);
            let empty_again = full.complement();
            assert_tail_clean(&empty_again);
            assert!(empty_again.is_empty());
            // Complement of empty is full, with a clean tail.
            let back = WorldSet::empty(n).complement();
            assert_tail_clean(&back);
            assert!(back.is_full());
        }
    }

    #[test]
    fn tail_mask_invariant_after_flip_small_universes() {
        for n in 1..6usize {
            let mut rng = pwdb_logic::Rng::new(0x7A11 + n as u64);
            for _ in 0..32 {
                let mut s = WorldSet::empty(n);
                for _ in 0..rng.range_usize(0, (1 << n) + 1) {
                    s.insert(w(rng.below(1 << n), n));
                }
                for a in 0..n as u32 {
                    let f = s.flip(AtomId(a));
                    assert_tail_clean(&f);
                    assert_eq!(f.len(), s.len(), "flip must be a permutation");
                    assert_eq!(f.flip(AtomId(a)), s);
                    // Saturation built on flip keeps the invariant too.
                    assert_tail_clean(&s.saturate(AtomId(a)));
                }
            }
        }
    }

    #[test]
    fn remove_subcube_on_empty_set_is_noop() {
        for n in [2usize, 3, 7] {
            let mut s = WorldSet::empty(n);
            // Whole universe as the subcube (no fixed atoms).
            s.remove_subcube(0, 0);
            assert!(s.is_empty());
            // A single fully-fixed world.
            s.remove_subcube(WorldSet::universe_mask(n), WorldSet::universe_mask(n));
            assert!(s.is_empty());
        }
    }

    #[test]
    fn remove_subcube_on_full_set() {
        for n in [2usize, 3, 7] {
            // No fixed atoms: the subcube is the whole universe.
            let mut s = WorldSet::full(n);
            s.remove_subcube(0, 0);
            assert!(s.is_empty());

            // One fixed atom: exactly half the worlds go.
            let mut s = WorldSet::full(n);
            s.remove_subcube(0b1, 0b1);
            assert_eq!(s.len(), 1 << (n - 1));
            assert!(s.iter().all(|world| !world.get(AtomId(0))));

            // Fully fixed: exactly one world goes.
            let mut s = WorldSet::full(n);
            let all = WorldSet::universe_mask(n);
            s.remove_subcube(all, all);
            assert_eq!(s.len(), (1 << n) - 1);
            assert!(!s.contains(w(all, n)));
        }
    }

    #[test]
    fn from_clauses_agrees_with_from_wff_on_random_cnf() {
        let mut rng = pwdb_logic::Rng::new(0xC4F_1234);
        for _ in 0..64 {
            let n = rng.range_usize(1, 8);
            let n_clauses = rng.range_usize(0, 7);
            let mut cs = ClauseSet::new();
            for _ in 0..n_clauses {
                let width = rng.range_usize(0, 4);
                let lits: Vec<pwdb_logic::Literal> = (0..width)
                    .map(|_| {
                        pwdb_logic::Literal::new(AtomId(rng.below(n as u64) as u32), rng.coin())
                    })
                    .collect();
                cs.insert(pwdb_logic::Clause::new(lits));
            }
            let as_wff = Wff::conj(
                cs.iter()
                    .map(|c| Wff::disj(c.literals().iter().map(|&l| Wff::literal(l)))),
            );
            assert_eq!(
                WorldSet::from_clauses(n, &cs),
                WorldSet::from_wff(n, &as_wff),
                "clause set {cs} over {n} atoms"
            );
        }
    }
}
