//! The index-comparison workloads `report_index` runs under both
//! engines.
//!
//! The paper-exact E1–E5 shapes do no subsumption at all, so they
//! cannot show what the indexed engine's signature-filtered
//! subsumption-minimal list and Tison closures buy. These variants run
//! the same experiments in their *reduced* forms (subsumption sweeps
//! after each primitive — the §4 "correctness-preserving optimizations"),
//! plus a resolution-saturation section and a normalizing HLU script.
//! `report_index` runs each once under the naive engine and once under
//! the indexed engine and records the op-cost counter deltas; results are
//! engine-independent (the differential harness proves it), only the
//! counters move.

use std::collections::BTreeSet;

use pwdb::blu::{BluClausal, BluSemantics, GenmaskStrategy};
use pwdb::hlu::ClausalDatabase;
use pwdb::logic::AtomId;

use crate::{random_clause_set, random_wff, rng};

/// E1 reduced: the asserted union carries many subsumed members (the
/// second operand uses shorter clauses); one reduce sweep follows.
pub fn e1_assert_reduced() {
    let alg = BluClausal::new();
    for exp in [6u32, 7, 8] {
        let clauses = 1usize << exp;
        let mut r = rng(7000 + exp as u64);
        let a = random_clause_set(&mut r, 32, clauses, 4);
        let b = random_clause_set(&mut r, 32, clauses, 2);
        let mut union = alg.op_assert(&a, &b);
        union.reduce_subsumed();
        std::hint::black_box(union);
    }
}

/// E2 reduced: `combine` products swept by subsumption.
pub fn e2_combine_reduced() {
    let alg = BluClausal::new().with_reduction(true);
    for exp in [3u32, 4, 5] {
        let clauses = 1usize << exp;
        let mut r = rng(7100 + exp as u64);
        let a = random_clause_set(&mut r, 32, clauses, 3);
        let b = random_clause_set(&mut r, 32, clauses, 3);
        std::hint::black_box(alg.op_combine(&a, &b));
    }
}

/// E3 reduced: `complement` output swept by subsumption.
pub fn e3_complement_reduced() {
    let alg = BluClausal::new().with_reduction(true);
    for k in [4usize, 6, 8] {
        let mut r = rng(7200 + k as u64);
        let set = random_clause_set(&mut r, (k * 3).max(8), k, 3);
        std::hint::black_box(alg.op_complement(&set));
    }
}

/// E4 reduced: `mask` with a reduce sweep after every elimination step.
pub fn e4_mask_reduced() {
    let alg = BluClausal::new().with_reduction(true);
    let mut r = rng(7300);
    let state = random_clause_set(&mut r, 20, 48, 3);
    for p in [1usize, 2, 4] {
        let mask: BTreeSet<AtomId> = (0..p as u32).map(AtomId).collect();
        std::hint::black_box(alg.op_mask(&state, &mask));
    }
}

/// E5 memoized: both `genmask` strategies called repeatedly on the same
/// states. The indexed engine answers repeats from the genmask memo; the
/// naive engine (caches bypassed) re-enumerates every time, which shows
/// up in `blu.genmask.assignments` and `logic.dpll.solves`.
pub fn e5_genmask_memo() {
    let paper = BluClausal::new().with_genmask(GenmaskStrategy::PaperExhaustive);
    let sat = BluClausal::new().with_genmask(GenmaskStrategy::SatBased);
    for n in [6usize, 8, 10] {
        let mut r = rng(5000 + n as u64);
        let set = random_clause_set(&mut r, n, n * 2, 3);
        for _ in 0..3 {
            std::hint::black_box(paper.op_genmask(&set));
            std::hint::black_box(sat.op_genmask(&set));
        }
    }
}

/// Resolution saturation up to subsumption: where the naive engine
/// re-tries every pair per round (`logic.resolution.pairs_tried`) and
/// Tison's method tries each pair on each atom once.
pub fn saturation() {
    for seed in 0..4u64 {
        let mut r = rng(7400 + seed);
        let set = random_clause_set(&mut r, 10, 24, 3);
        std::hint::black_box(pwdb::logic::resolution::saturate(&set));
    }
}

/// HLU script on the reduced backend with periodic prime-implicate
/// normalization (Tison closures) and certain/possible queries.
pub fn hlu_normalized() {
    const N_ATOMS: usize = 10;
    let mut r = rng(7500);
    let mut db = ClausalDatabase::new_reduced();
    for i in 0..12 {
        db.insert(random_wff(&mut r, N_ATOMS, 1));
        if i % 3 == 2 {
            db.normalize();
        }
    }
    let mut qr = rng(7600);
    for _ in 0..8 {
        let q = random_wff(&mut qr, N_ATOMS, 2);
        std::hint::black_box(db.is_certain(&q));
        std::hint::black_box(db.is_possible(&q));
    }
}

/// The naive-vs-indexed comparison suite, in order, with the section
/// names `report_index` writes to `BENCH_index.json`.
pub const INDEX_COMPARISON: &[(&str, fn())] = &[
    ("e1_assert_reduced", e1_assert_reduced),
    ("e2_combine_reduced", e2_combine_reduced),
    ("e3_complement_reduced", e3_complement_reduced),
    ("e4_mask_reduced", e4_mask_reduced),
    ("e5_genmask_memo", e5_genmask_memo),
    ("saturation", saturation),
    ("hlu_normalized", hlu_normalized),
];
