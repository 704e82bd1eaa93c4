//! **BLU-C**: the clause-level semantics (§2.3).
//!
//! States are sets of clauses (`2^{CF[D]}`), masks are sets of proposition
//! letters (`2^{Prop[D]}`). The operators are *algorithms*, not abstract
//! operations — the paper's Algorithms 2.3.3, 2.3.5 and 2.3.8 — and this
//! module implements them as written, plus optimized variants whose
//! improvements are exactly the "correctness-preserving optimizations"
//! §4 alludes to (tautology elimination and subsumption reduction).
//!
//! With reduction on, under [`EngineMode::Indexed`], two of the
//! operators also do only the work the update changes. Both return the
//! same set as the reduced algorithm as written; [`EngineMode::Naive`]
//! keeps the algorithm as written, which is the differential oracle.
//!
//! * **Factored `combine`** (the Θ(L₁×L₂) term of Theorem 2.3.4(b)).
//!   With `C = Φ₁ ∩ Φ₂`, `A = Φ₁ ∖ C` and `B = Φ₂ ∖ C`,
//!   `reduce(combine(Φ₁, Φ₂)) = reduce(C ∪ combine(A, B))`: each
//!   `c ∨ c` is `c`, and every other product `c ∨ z` with `c ∈ C` is
//!   subsumed by `c`. `modify` and `where` build both inputs from the
//!   same state, so `C` is most of it and the product shrinks to the
//!   residues.
//! * **One subsumption-minimal list across `mask` letters** (Theorem
//!   2.3.6(b)). The state is reduced once into a
//!   [`pwdb_logic::subsumption::MinimalSet`]; each letter then takes out
//!   the clauses mentioning it and inserts their pairwise resolvents with
//!   subsumption. That is `reduce(drop({A}, rclosure(Φ, {A})))` per
//!   letter without re-cloning and re-reducing the whole state for each
//!   one.
//!
//! `genmask` keeps no state: both engines compute it from its parameter
//! on every call. Its input is the statement's (small) parameter, never
//! the state (§4), so recomputing costs less than looking it up.
//!
//! Complexity (Theorems 2.3.4(b), 2.3.6(b), 2.3.9(b)) — reproduced by the
//! `pwdb-bench` experiments E1–E5:
//!
//! | op          | worst case                                     |
//! |-------------|------------------------------------------------|
//! | `assert`    | Θ(L₁ + L₂)                                     |
//! | `combine`   | Θ(L₁ × L₂)                                     |
//! | `complement`| Θ(ε^L), ε = e^{1/e}                            |
//! | `mask`      | O(L^{2^|P|})                                   |
//! | `genmask`   | Θ(2^{|Prop|} · L · |Prop|²); NP-complete core |

use std::cmp::{Ordering, Reverse};
use std::collections::BTreeSet;

use pwdb_logic::governor;
use pwdb_logic::resolution::{drop_atoms, rclosure_on_atom, resolvent};
use pwdb_logic::subsumption::MinimalSet;
use pwdb_logic::{engine_mode, AtomId, Clause, ClauseSet, EngineMode, Literal};
use pwdb_metrics::counter;
use pwdb_trace::span;

use crate::eval::BluSemantics;

/// Which algorithm `genmask` uses for the (NP-complete) dependence test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GenmaskStrategy {
    /// Algorithm 2.3.8 as written: enumerate the `Ldiff` assignment pairs
    /// over `Prop[Phi]` and compare truth values — exponential in the
    /// letter count.
    #[default]
    PaperExhaustive,
    /// Decide dependence by cofactor equivalence with the DPLL solver:
    /// `Φ` depends on `A` iff `Φ[A:=1] ≢ Φ[A:=0]`.
    SatBased,
}

/// The BLU-C algebra.
#[derive(Debug, Clone, Default)]
pub struct BluClausal {
    genmask_strategy: GenmaskStrategy,
    /// Apply subsumption reduction after `combine`, `complement`, and each
    /// `mask` elimination step. Off by default (paper-exact shapes).
    reduce: bool,
}

impl BluClausal {
    /// Paper-exact algebra (tautologies dropped, no further reduction).
    pub fn new() -> Self {
        Self::default()
    }

    /// Selects the genmask strategy.
    pub fn with_genmask(mut self, strategy: GenmaskStrategy) -> Self {
        self.genmask_strategy = strategy;
        self
    }

    /// Enables subsumption reduction (the optimized variant).
    pub fn with_reduction(mut self, reduce: bool) -> Self {
        self.reduce = reduce;
        self
    }

    fn maybe_reduce(&self, mut set: ClauseSet) -> ClauseSet {
        if self.reduce {
            set.reduce_subsumed();
        }
        set
    }

    /// Whether `combine` and `mask` take their delta-driven forms: the
    /// reduced algebra under the indexed engine (see the module docs).
    fn delta_driven(&self) -> bool {
        self.reduce && engine_mode() == EngineMode::Indexed
    }

    // ------------------------------------------------------------------
    // Algorithm 2.3.3
    // ------------------------------------------------------------------

    /// `assert(Φ₁, Φ₂) = Φ₁ ∪ Φ₂` — Θ(L₁+L₂).
    pub fn assert_clauses(phi1: &ClauseSet, phi2: &ClauseSet) -> ClauseSet {
        let mut out = phi1.clone();
        for c in phi2.iter() {
            out.insert(c.clone());
        }
        out
    }

    /// `combine(Φ₁, Φ₂) = { φ₁ ∨ φ₂ | φ₁ ∈ Φ₁, φ₂ ∈ Φ₂ }` — Θ(L₁×L₂).
    pub fn combine_clauses(phi1: &ClauseSet, phi2: &ClauseSet) -> ClauseSet {
        let mut out = ClauseSet::new();
        for c1 in phi1.iter() {
            for c2 in phi2.iter() {
                governor::step_n((c1.len() + c2.len()) as u64 + 1);
                out.insert(c1.disjoin(c2));
            }
        }
        out
    }

    /// Splits `combine`'s inputs into their shared clauses `C = Φ₁ ∩ Φ₂`
    /// and the residues `Φ₁ ∖ C`, `Φ₂ ∖ C`. Tautologies are dropped on the
    /// way: every product with one is a tautology, which `combine` drops.
    /// One merge of the two sorted inputs fills the three parts, and each
    /// is bulk-built.
    fn split_shared(phi1: &ClauseSet, phi2: &ClauseSet) -> [ClauseSet; 3] {
        let [mut shared, mut rest1, mut rest2] = [Vec::new(), Vec::new(), Vec::new()];
        let mut a = phi1.iter().filter(|c| !c.is_tautology()).peekable();
        let mut b = phi2.iter().filter(|c| !c.is_tautology()).peekable();
        while let (Some(x), Some(y)) = (a.peek(), b.peek()) {
            match x.cmp(y) {
                Ordering::Less => rest1.extend(a.next().cloned()),
                Ordering::Greater => rest2.extend(b.next().cloned()),
                Ordering::Equal => {
                    shared.extend(a.next().cloned());
                    b.next();
                }
            }
        }
        rest1.extend(a.cloned());
        rest2.extend(b.cloned());
        [shared, rest1, rest2].map(ClauseSet::from_clauses_raw)
    }

    /// `complement(Φ)` via the recursive support procedure `C` of
    /// Algorithm 2.3.3 (iterated here): start from `Δ = {□}` and for each
    /// clause `γ` replace every `δ ∈ Δ` by `{ δ ∨ ¬λ | λ ∈ Lit[γ] }`.
    /// Output length is Θ(ε^L) in the worst case (ε = e^{1/e}, attained
    /// by length-3 clauses).
    ///
    /// Tautological products are dropped (model-preserving). A governed
    /// run first reserves [`Self::complement_floor`], so a product the
    /// budget cannot afford is refused before it is formed.
    pub fn complement_clauses(phi: &ClauseSet) -> ClauseSet {
        governor::reserve(|| Self::complement_floor(phi));
        let products = counter!("blu.complement.products");
        let mut delta = ClauseSet::new();
        delta.insert_raw(Clause::empty());
        for gamma in phi.iter() {
            let mut next = ClauseSet::new();
            for d in delta.iter() {
                governor::step_n((d.len() * gamma.len().max(1)) as u64 + 1);
                products.add(gamma.len() as u64);
                for &lambda in gamma.literals() {
                    next.insert(d.with(lambda.negated()));
                }
            }
            delta = next;
        }
        delta
    }

    /// A lower bound on the steps [`Self::complement_clauses`] charges for
    /// `Φ`: the witness of Theorem 2.3.4(b)'s exponential term.
    ///
    /// It fixes a greedy assignment `M`: each atom takes the polarity whose
    /// literal occurs in exactly one clause (if both do, the one in the
    /// shorter clause), otherwise the polarity with more occurrences. If
    /// `M` falsifies `Φ` — as it must when `Φ` is unsatisfiable or holds
    /// `□` — the floor is 0. Otherwise let `uᵢ` be the number, at least 1,
    /// of literals of the `i`-th clause `γᵢ` that are true in `M` and occur
    /// in no other clause, and `Pᵢ = u₁⋯uᵢ`. Choosing one such literal
    /// `λⱼ` per clause (a fixed true literal where there is none) gives the
    /// product `¬λ₁ ∨ … ∨ ¬λᵢ`. It is false in `M`, so not a tautology, and
    /// distinct choices give distinct products, because the negation of a
    /// literal that occurs in one clause only enters from that clause. So
    /// the loop's `Δ` holds at least `Pᵢ` clauses after `γᵢ`. It charges 1
    /// for the first clause and at least `|Δ|·(|γᵢ| + 1)` for each later
    /// one, which gives the floor `1 + Σ_{i≥2} Pᵢ₋₁·(|γᵢ| + 1)`
    /// (saturating).
    pub fn complement_floor(phi: &ClauseSet) -> u64 {
        // Every literal occurrence with its clause's length, sorted: each
        // literal's run starts at its shortest clause, and the two
        // literals of an atom are adjacent.
        let mut occurrences: Vec<(Literal, usize)> = phi
            .iter()
            .flat_map(|c| c.literals().iter().map(move |&l| (l, c.len())))
            .collect();
        occurrences.sort_unstable();
        // M's true literals, sorted, each with whether it is unique. Per
        // atom, each literal's run is (literal, occurrences, shortest
        // clause holding it).
        let model: Vec<(Literal, bool)> = occurrences
            .chunk_by(|x, y| x.0.atom() == y.0.atom())
            .filter_map(|atom| {
                atom.chunk_by(|x, y| x.0 == y.0)
                    .map(|run| (run[0].0, run.len(), run[0].1))
                    .max_by_key(|&(_, n, shortest)| {
                        let unique = n == 1;
                        (unique, Reverse(if unique { shortest } else { 0 }), n)
                    })
            })
            .map(|(l, n, _)| (l, n == 1))
            .collect();
        let mut floor = 0u64;
        let mut product = 1u64; // Pᵢ₋₁
        for (i, gamma) in phi.iter().enumerate() {
            let mut satisfied = false;
            let mut unique = 0u64;
            for l in gamma.literals() {
                if let Ok(k) = model.binary_search_by_key(l, |&(m, _)| m) {
                    satisfied = true;
                    unique += u64::from(model[k].1);
                }
            }
            if !satisfied {
                return 0;
            }
            let charge = if i == 0 {
                1
            } else {
                product.saturating_mul(gamma.len() as u64 + 1)
            };
            floor = floor.saturating_add(charge);
            product = product.saturating_mul(unique.max(1));
        }
        floor
    }

    // ------------------------------------------------------------------
    // Algorithm 2.3.5
    // ------------------------------------------------------------------

    /// One elimination step of `mask`: `drop({A}, rclosure(Φ, {A}))`.
    ///
    /// `rclosure` ensures that when the clauses involving `A` are
    /// discarded, "there are enough others around to completely describe
    /// the constraints on those which are left" — this is resolution-based
    /// variable forgetting.
    pub fn mask_step(phi: &ClauseSet, atom: AtomId) -> ClauseSet {
        counter!("blu.mask.steps").inc();
        let sp = span!("blu.clausal.mask.step", "clauses_in" => phi.len());
        let closed = rclosure_on_atom(phi, atom);
        let single = BTreeSet::from([atom]);
        let out = drop_atoms(&closed, &single);
        sp.attr("clauses_out", out.len());
        out
    }

    /// `mask(Φ, P)`: eliminates each letter of `P` in turn.
    pub fn mask_clauses(&self, phi: &ClauseSet, mask: &BTreeSet<AtomId>) -> ClauseSet {
        if self.delta_driven() && !mask.is_empty() {
            return Self::mask_indexed(phi, mask);
        }
        let mut out = phi.clone();
        for &a in mask {
            out = self.maybe_reduce(Self::mask_step(&out, a));
        }
        out
    }

    /// The reduced `mask` on one [`MinimalSet`] (module docs): per letter
    /// `A`, the clauses holding `A` or `¬A` leave the set and their
    /// resolvents on `A` enter it with subsumption. Tautologies never
    /// enter the set: `drop` filters them out of every step's output, and
    /// their resolvents are tautologies or mention `A` again. So no
    /// resolvent of the remaining clauses mentions `A`.
    fn mask_indexed(phi: &ClauseSet, mask: &BTreeSet<AtomId>) -> ClauseSet {
        let mut set = MinimalSet::from_clauses(phi.iter().filter(|c| !c.is_tautology()).cloned());
        for &a in mask {
            counter!("blu.mask.steps").inc();
            let sp = span!("blu.clausal.mask.step", "clauses_in" => set.len());
            let (pos, neg) = set.take_atom(a);
            for p in &pos {
                for n in &neg {
                    governor::step_n((p.len() + n.len()) as u64 + 1);
                    if let Some(r) = resolvent(p, n, a) {
                        set.insert(r);
                    }
                }
            }
            sp.attr("clauses_out", set.len());
        }
        set.into_set()
    }

    // ------------------------------------------------------------------
    // Algorithm 2.3.8
    // ------------------------------------------------------------------

    /// `genmask(Φ)` by Algorithm 2.3.8: for each `A ∈ Prop[Φ]`, search the
    /// pairs `(L₁, L₂) ∈ Ldiff[A, Φ]` — complete literal sets (`CLS[Φ]`,
    /// Definition 2.3.7) differing only at `A` — for one on which `Φ`'s
    /// truth value differs. Evaluating `Φ` under a complete literal set is
    /// the fixed point of the paper's `unitres`: with every letter
    /// decided, unit resolution reduces each clause to true or to `□`.
    ///
    /// Implementation note: the truth table over `Prop[Φ]` is computed
    /// once and shared across the per-atom `Ldiff` scans (the paper's
    /// loop recomputes it per pair); this is a constant-factor refinement
    /// that leaves the exponential behavior of Theorem 2.3.9(b)
    /// intact, as experiment E5 confirms.
    pub fn genmask_paper(phi: &ClauseSet) -> BTreeSet<AtomId> {
        let props: Vec<AtomId> = phi.props().into_iter().collect();
        let k = props.len();
        if k > 26 {
            // The exhaustive table would need 2^k > 64M rows. Rather than
            // panic on user-reachable input, decide the same (NP-complete)
            // dependence question via the SAT strategy — identical result,
            // Theorem 2.3.9(c).
            return Self::genmask_sat(phi);
        }
        // Per clause: bitmasks over prop *positions* for each polarity.
        let position: std::collections::HashMap<AtomId, usize> = props
            .iter()
            .copied()
            .enumerate()
            .map(|(i, a)| (a, i))
            .collect();
        let clause_masks: Vec<(u64, u64)> = phi
            .iter()
            .map(|c| {
                let mut pos = 0u64;
                let mut neg = 0u64;
                for &l in c.literals() {
                    let bit = 1u64 << position[&l.atom()];
                    if l.is_positive() {
                        pos |= bit;
                    } else {
                        neg |= bit;
                    }
                }
                (pos, neg)
            })
            .collect();
        // Truth table of Φ over the 2^k complete literal sets. The full
        // Θ(2^k · (L + |Prop|)) cost is charged up front as admission
        // control: a governed run with an insufficient step budget aborts
        // here before the table is materialized.
        let size = 1usize << k;
        governor::step_n((size as u64).saturating_mul((phi.len() + k) as u64 + 1));
        counter!("blu.genmask.assignments").add(size as u64);
        let mut truth = vec![false; size];
        for (m, slot) in truth.iter_mut().enumerate() {
            let m = m as u64;
            *slot = clause_masks
                .iter()
                .all(|&(pos, neg)| (m & pos) != 0 || (!m & neg) != 0);
        }
        // Ldiff scan per atom.
        let mut out = BTreeSet::new();
        for (ai, &atom) in props.iter().enumerate() {
            let bit = 1usize << ai;
            let depends = (0..size)
                .filter(|m| m & bit == 0)
                .any(|m| truth[m] != truth[m | bit]);
            if depends {
                out.insert(atom);
            }
        }
        out
    }

    /// The cofactor `Φ[A := value]`: satisfied clauses are dropped, the
    /// falsified literal removed from the rest.
    pub fn cofactor(phi: &ClauseSet, atom: AtomId, value: bool) -> ClauseSet {
        let satisfied = Literal::new(atom, value);
        let falsified = satisfied.negated();
        let mut out = ClauseSet::new();
        for c in phi.iter() {
            if c.contains(satisfied) {
                continue;
            }
            out.insert(c.without(falsified));
        }
        out
    }

    /// `genmask(Φ)` by SAT: `A ∈ genmask(Φ)` iff the two cofactors are
    /// inequivalent. Decides the same NP-complete problem (Theorem
    /// 2.3.9(c)) without full enumeration.
    pub fn genmask_sat(phi: &ClauseSet) -> BTreeSet<AtomId> {
        phi.props()
            .into_iter()
            .filter(|&a| {
                let c1 = Self::cofactor(phi, a, true);
                let c0 = Self::cofactor(phi, a, false);
                !pwdb_logic::equivalent(&c1, &c0)
            })
            .collect()
    }
}

impl BluSemantics for BluClausal {
    type State = ClauseSet;
    type Mask = BTreeSet<AtomId>;

    // Each primitive opens one timed span, under the theorem whose bound
    // it witnesses (2.3.4(b) for assert/combine/complement, 2.3.6(b) for
    // mask, 2.3.9(b) for genmask): its `blu.X.wall` timer counts the calls
    // and their wall time, and the span carries the theorem's dominant
    // cost term as its `cost` attribute (in the input length L, the
    // paper's total literal count, where the bound is stated over it).
    // Attributes are computed only while tracing. See docs/PAPER_MAP.md.

    fn op_assert(&self, x: &ClauseSet, y: &ClauseSet) -> ClauseSet {
        let sp = span!(
            "blu.clausal.assert",
            timer = "blu.assert.wall",
            "in_clauses" => x.len() + y.len(),
            "cost" => x.length() + y.length(), // Θ(L₁+L₂), Thm 2.3.4(b)
        );
        let out = Self::assert_clauses(x, y);
        sp.attr("out_clauses", out.len());
        out
    }

    fn op_combine(&self, x: &ClauseSet, y: &ClauseSet) -> ClauseSet {
        let sp = span!(
            "blu.clausal.combine",
            timer = "blu.combine.wall",
            "in_clauses" => x.len() + y.len(),
        );
        // The factored form multiplies only the residues; the shared
        // clauses join the product unchanged (module docs).
        let split = self.delta_driven().then(|| Self::split_shared(x, y));
        let (shared, a, b) = match &split {
            Some([shared, a, b]) => (shared.len(), a, b),
            None => (0, x, y),
        };
        let products = a.length() * b.length();
        counter!("blu.combine.products").add(products as u64);
        sp.attr("shared", shared);
        sp.attr("cost", products); // Θ(L₁×L₂), Thm 2.3.4(b)
        let mut out = Self::combine_clauses(a, b);
        if let Some([shared, ..]) = split {
            out.extend(shared);
        }
        let out = self.maybe_reduce(out);
        sp.attr("out_clauses", out.len());
        out
    }

    fn op_complement(&self, x: &ClauseSet) -> ClauseSet {
        let sp = span!(
            "blu.clausal.complement",
            timer = "blu.complement.wall",
            "in_clauses" => x.len(),
            "cost" => x.length(), // output is Θ(ε^L) in this L, Thm 2.3.4(b)
        );
        let out = self.maybe_reduce(Self::complement_clauses(x));
        sp.attr("out_clauses", out.len());
        out
    }

    fn op_mask(&self, x: &ClauseSet, m: &BTreeSet<AtomId>) -> ClauseSet {
        let sp = span!(
            "blu.clausal.mask",
            timer = "blu.mask.wall",
            "in_clauses" => x.len(),
            "letters" => m.len(),
            "cost" => x.length(), // O(L^{2^|P|}) in this L, Thm 2.3.6(b)
        );
        let out = self.mask_clauses(x, m);
        sp.attr("out_clauses", out.len());
        out
    }

    fn op_genmask(&self, x: &ClauseSet) -> BTreeSet<AtomId> {
        // Θ(2^|Prop|·L·|Prop|²), Thm 2.3.9(b): `cost` is the dominant
        // 2^|Prop| factor (saturating; |Prop| can exceed 63 under the SAT
        // strategy).
        let sp = span!(
            "blu.clausal.genmask",
            timer = "blu.genmask.wall",
            "in_clauses" => x.len(),
            "props" => x.props().len(),
            "cost" => 1u64.checked_shl(x.props().len() as u32).unwrap_or(u64::MAX),
        );
        let out = match self.genmask_strategy {
            GenmaskStrategy::PaperExhaustive => Self::genmask_paper(x),
            GenmaskStrategy::SatBased => Self::genmask_sat(x),
        };
        sp.attr("mask_size", out.len());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwdb_logic::{parse_clause, parse_clause_set, AtomTable};

    fn t8() -> AtomTable {
        AtomTable::with_indexed_atoms(8)
    }

    #[test]
    fn assert_is_union() {
        let mut t = t8();
        let a = parse_clause_set("{A1, A2 | A3}", &mut t).unwrap();
        let b = parse_clause_set("{A2 | A3, !A4}", &mut t).unwrap();
        let u = BluClausal::assert_clauses(&a, &b);
        assert_eq!(u.len(), 3);
    }

    #[test]
    fn combine_is_pairwise_disjunction() {
        let mut t = t8();
        let a = parse_clause_set("{A1, A2}", &mut t).unwrap();
        let b = parse_clause_set("{A3, A4}", &mut t).unwrap();
        let c = BluClausal::combine_clauses(&a, &b);
        let expected = parse_clause_set("{A1 | A3, A1 | A4, A2 | A3, A2 | A4}", &mut t).unwrap();
        assert_eq!(c, expected);
    }

    #[test]
    fn combine_with_empty_state_is_empty() {
        // Φ = ∅ denotes "no information" (all worlds); combine must give ∅.
        let mut t = t8();
        let a = parse_clause_set("{A1}", &mut t).unwrap();
        assert!(BluClausal::combine_clauses(&a, &ClauseSet::new()).is_empty());
    }

    #[test]
    fn combine_drops_tautological_products() {
        let mut t = t8();
        let a = parse_clause_set("{A1}", &mut t).unwrap();
        let b = parse_clause_set("{!A1}", &mut t).unwrap();
        // A1 ∨ ¬A1 is tautologous ⇒ empty set (all worlds) — and indeed
        // Mod[{A1}] ∪ Mod[{¬A1}] is everything.
        assert!(BluClausal::combine_clauses(&a, &b).is_empty());
    }

    #[test]
    fn complement_floor_is_tight_on_disjoint_clauses_and_zero_on_contradictions() {
        use pwdb_logic::{govern, Limits};
        let mut t = t8();
        let spent = |phi: &ClauseSet| {
            govern(&Limits::unlimited(), || BluClausal::complement_clauses(phi)).unwrap();
            governor::last_spent()
        };
        // Every literal is true and unique: 1 + 2·(3 + 1).
        let phi = parse_clause_set("{A1 | A2, A3 | A4 | A5}", &mut t).unwrap();
        assert_eq!(BluClausal::complement_floor(&phi), 9);
        assert_eq!(spent(&phi), 9);
        // No M satisfies A1 and ¬A1, so the floor is 0. It must be: every
        // product holds A1 ∨ ¬A1, so Δ empties after two clauses and the
        // loop charges 1 + 2, not the 2³ a product of |γ| over the
        // clauses with disjoint atoms would claim.
        let phi = parse_clause_set("{A1, !A1, A2 | A3, A4 | A5, A6 | A7}", &mut t).unwrap();
        assert_eq!(BluClausal::complement_floor(&phi), 0);
        assert_eq!(spent(&phi), 3);
        for phi in [ClauseSet::new(), ClauseSet::contradiction()] {
            assert_eq!(BluClausal::complement_floor(&phi), 0);
        }
        // The adversarial family: ≈ 3·2²⁴ steps before the product ends.
        let family = pwdb_logic::stress::exponential_pi_set(24);
        assert!(BluClausal::complement_floor(&family) > 50_000_000);
    }

    #[test]
    fn complement_of_empty_and_contradiction() {
        // complement(∅) = {□}; complement({□}) = ∅.
        let c = BluClausal::complement_clauses(&ClauseSet::new());
        assert!(c.has_empty_clause());
        assert_eq!(c.len(), 1);
        let c2 = BluClausal::complement_clauses(&ClauseSet::contradiction());
        assert!(c2.is_empty());
    }

    #[test]
    fn complement_of_single_clause_negates_literals() {
        let mut t = t8();
        let phi = parse_clause_set("{A1 | !A2}", &mut t).unwrap();
        let c = BluClausal::complement_clauses(&phi);
        let expected = parse_clause_set("{!A1, A2}", &mut t).unwrap();
        assert_eq!(c, expected);
    }

    #[test]
    fn complement_cross_product_size() {
        let mut t = t8();
        // Two clauses of width 2 and 3 ⇒ up to 6 product clauses.
        let phi = parse_clause_set("{A1 | A2, A3 | A4 | A5}", &mut t).unwrap();
        let c = BluClausal::complement_clauses(&phi);
        assert_eq!(c.len(), 6);
    }

    #[test]
    fn complement_agrees_with_truth_table() {
        let mut t = t8();
        for src in [
            "{A1}",
            "{A1 | A2}",
            "{A1, !A2}",
            "{A1 | A2, !A1 | A3}",
            "{A1 | !A2, A2 | A3, !A1 | !A3}",
        ] {
            let phi = parse_clause_set(src, &mut t).unwrap();
            let comp = BluClausal::complement_clauses(&phi);
            let n = phi.atom_bound().max(comp.atom_bound());
            for w in pwdb_logic::Assignment::enumerate(n) {
                assert_eq!(phi.eval(&w), !comp.eval(&w), "world {w} of {src}");
            }
        }
    }

    #[test]
    fn mask_reproduces_example_3_1_5() {
        let mut t = t8();
        let phi =
            parse_clause_set("{!A1 | A3, A1 | A4, A4 | A5, !A1 | !A2 | !A5}", &mut t).unwrap();
        let alg = BluClausal::new();
        let mask = BTreeSet::from([AtomId(0), AtomId(1)]);
        let masked = alg.mask_clauses(&phi, &mask);
        let expected = parse_clause_set("{A4 | A5, A3 | A4}", &mut t).unwrap();
        assert_eq!(masked, expected);
    }

    #[test]
    fn mask_of_unconstrained_atom_just_drops() {
        let mut t = t8();
        let phi = parse_clause_set("{A1 | A2, A3}", &mut t).unwrap();
        let alg = BluClausal::new();
        let masked = alg.mask_clauses(&phi, &BTreeSet::from([AtomId(2)]));
        let expected = parse_clause_set("{A1 | A2}", &mut t).unwrap();
        assert_eq!(masked, expected);
    }

    #[test]
    fn mask_semantics_is_forgetting() {
        // Mod[mask(Φ,P)] must equal the saturation of Mod[Φ] along P.
        use pwdb_worlds::WorldSet;
        let mut t = t8();
        let alg = BluClausal::new();
        for src in [
            "{A1 | A2, !A2 | A3}",
            "{A1, A2, A3}",
            "{A1 | !A3, !A1 | A3}",
            "{A1 | A2 | A3, !A1 | !A2}",
        ] {
            let phi = parse_clause_set(src, &mut t).unwrap();
            for masked_atom in 0..3u32 {
                let p = BTreeSet::from([AtomId(masked_atom)]);
                let lhs = WorldSet::from_clauses(3, &alg.mask_clauses(&phi, &p));
                let rhs = WorldSet::from_clauses(3, &phi).saturate(AtomId(masked_atom));
                assert_eq!(lhs, rhs, "masking A{} of {src}", masked_atom + 1);
            }
        }
    }

    #[test]
    fn genmask_paper_matches_example() {
        let mut t = t8();
        let phi = parse_clause_set("{A1 | A2}", &mut t).unwrap();
        assert_eq!(
            BluClausal::genmask_paper(&phi),
            BTreeSet::from([AtomId(0), AtomId(1)])
        );
    }

    #[test]
    fn genmask_sees_through_syntax() {
        let mut t = t8();
        // {A1 ∨ A2, A1 ∨ ¬A2} ≡ A1: depends on A1 only.
        let phi = parse_clause_set("{A1 | A2, A1 | !A2}", &mut t).unwrap();
        assert_eq!(BluClausal::genmask_paper(&phi), BTreeSet::from([AtomId(0)]));
        assert_eq!(BluClausal::genmask_sat(&phi), BTreeSet::from([AtomId(0)]));
    }

    #[test]
    fn genmask_strategies_agree() {
        let mut t = t8();
        for src in [
            "{}",
            "{A1}",
            "{A1 | A2}",
            "{A1 | A2, !A1 | A3}",
            "{A1 | A2, A1 | !A2}",
            "{A1 | A2 | A3, !A1 | !A2 | !A3}",
            "{[]}",
        ] {
            let phi = parse_clause_set(src, &mut t).unwrap();
            assert_eq!(
                BluClausal::genmask_paper(&phi),
                BluClausal::genmask_sat(&phi),
                "set {src}"
            );
        }
    }

    #[test]
    fn genmask_matches_semantic_dep() {
        use pwdb_worlds::WorldSet;
        let mut t = t8();
        for src in [
            "{A1 | A2, !A2 | A3}",
            "{A1, !A1}",
            "{A2 | A3}",
            "{A1 | !A2, A2 | !A3, A3 | !A1}",
        ] {
            let phi = parse_clause_set(src, &mut t).unwrap();
            let semantic: BTreeSet<AtomId> =
                WorldSet::from_clauses(3, &phi).dep().into_iter().collect();
            assert_eq!(BluClausal::genmask_paper(&phi), semantic, "set {src}");
        }
    }

    #[test]
    fn cofactor_shapes() {
        let mut t = t8();
        let phi = parse_clause_set("{A1 | A2, !A1 | A3, A4}", &mut t).unwrap();
        let c1 = BluClausal::cofactor(&phi, AtomId(0), true);
        let expected1 = parse_clause_set("{A3, A4}", &mut t).unwrap();
        assert_eq!(c1, expected1);
        let c0 = BluClausal::cofactor(&phi, AtomId(0), false);
        let expected0 = parse_clause_set("{A2, A4}", &mut t).unwrap();
        assert_eq!(c0, expected0);
    }

    #[test]
    fn cofactor_can_produce_empty_clause() {
        let mut t = t8();
        let phi = parse_clause_set("{A1}", &mut t).unwrap();
        let c = BluClausal::cofactor(&phi, AtomId(0), false);
        assert!(c.has_empty_clause());
    }

    #[test]
    fn reduction_variant_shrinks_but_preserves_models() {
        use pwdb_worlds::WorldSet;
        let mut t = t8();
        let a = parse_clause_set("{A1, A1 | A2}", &mut t).unwrap();
        let b = parse_clause_set("{A3, A3 | A4}", &mut t).unwrap();
        let plain = BluClausal::new();
        let reduced = BluClausal::new().with_reduction(true);
        let c_plain = plain.op_combine(&a, &b);
        let c_red = reduced.op_combine(&a, &b);
        assert!(c_red.len() <= c_plain.len());
        assert_eq!(
            WorldSet::from_clauses(4, &c_plain),
            WorldSet::from_clauses(4, &c_red)
        );
    }

    #[test]
    fn example_3_1_5_full_insert_program() {
        // (insert {A1∨A2}) on Φ: mask {A1,A2} then assert the parameter.
        let mut t = t8();
        let phi =
            parse_clause_set("{!A1 | A3, A1 | A4, A4 | A5, !A1 | !A2 | !A5}", &mut t).unwrap();
        let param = parse_clause_set("{A1 | A2}", &mut t).unwrap();
        let alg = BluClausal::new();
        let gm = alg.op_genmask(&param);
        assert_eq!(gm, BTreeSet::from([AtomId(0), AtomId(1)]));
        let masked = alg.op_mask(&phi, &gm);
        let asserted = alg.op_assert(&masked, &param);
        let expected = parse_clause_set("{A1 | A2, A4 | A5, A3 | A4}", &mut t).unwrap();
        assert_eq!(asserted, expected);
        let _ = parse_clause("A1 | A2", &mut t).unwrap();
    }
}
