//! Naive-vs-indexed clausal engine comparison.
//!
//! Runs the reduced E1–E5 workloads — plus a resolution-saturation
//! section and a normalizing HLU script — twice: once under the naive
//! reference engine (full-set scans, round-based closures) and once
//! under the indexed engine (signature-filtered flat scans over a
//! subsumption-minimal list, Tison's method for both closures, the
//! factored `combine` and the one-list `mask`). The per-section counter
//! deltas of both sides go to `BENCH_index.json` as the
//! `index_comparison` document, with a `summary` of the headline op-cost
//! counters. Timers are left out, so the file is a function of the code
//! alone: CI reruns the binary and fails when the committed file differs.
//!
//! The binary *asserts* the headline claims: indexed must try strictly
//! fewer subsumption comparisons and resolvent pairs than naive,
//! `genmask` (which neither engine indexes or remembers) must do exactly
//! the same work on both sides, and the signature filter must actually
//! prune. Result equality between the engines is the differential
//! harness's job (`tests/index_differential.rs`); this report measures
//! the cost of getting those identical results.

use std::cmp::Ordering;

use pwdb::logic::{with_engine, EngineMode};
use pwdb_bench::workloads;
use pwdb_metrics::json::Json;
use pwdb_metrics::MetricsSnapshot;

/// Runs every comparison section under one engine, returning per-section
/// counter deltas.
fn run_side(mode: EngineMode) -> Vec<(String, MetricsSnapshot)> {
    workloads::INDEX_COMPARISON
        .iter()
        .map(|&(name, f)| {
            let before = pwdb_metrics::snapshot();
            with_engine(mode, f);
            let mut delta = pwdb_metrics::snapshot().delta(&before);
            delta.timers.clear();
            (name.to_string(), delta)
        })
        .collect()
}

fn total(side: &[(String, MetricsSnapshot)], counter: &str) -> u64 {
    side.iter().map(|(_, s)| s.counter(counter)).sum()
}

fn main() {
    pwdb_metrics::reset();
    let naive = run_side(EngineMode::Naive);
    let indexed = run_side(EngineMode::Indexed);

    // Headline counters: (name, how indexed must compare with naive).
    let headline = [
        ("logic.subsumption.comparisons", Some(Ordering::Less)),
        ("logic.resolution.pairs_tried", Some(Ordering::Less)),
        ("blu.genmask.assignments", Some(Ordering::Equal)),
        ("logic.dpll.solves", Some(Ordering::Equal)),
        ("logic.index.sig_prunes", None),
    ];

    let mut summary_pairs = Vec::new();
    for (counter, claim) in headline {
        let n = total(&naive, counter);
        let i = total(&indexed, counter);
        if let Some(want) = claim {
            assert_eq!(i.cmp(&n), want, "counter {counter}: naive {n}, indexed {i}");
        }
        summary_pairs.push((
            counter.to_string(),
            Json::obj([
                ("naive".to_string(), Json::UInt(n)),
                ("indexed".to_string(), Json::UInt(i)),
            ]),
        ));
    }
    assert!(
        total(&indexed, "logic.index.sig_prunes") > 0,
        "signature filter never pruned a comparison"
    );
    assert!(
        total(&naive, "logic.index.sig_prunes") == 0,
        "naive side must not touch the index"
    );

    let sections = Json::obj(naive.iter().zip(indexed.iter()).map(
        |((name, n_snap), (_, i_snap))| {
            (
                name.clone(),
                Json::obj([
                    ("naive".to_string(), n_snap.to_json_value()),
                    ("indexed".to_string(), i_snap.to_json_value()),
                ]),
            )
        },
    ));
    let doc = Json::obj([
        ("index_comparison".to_string(), sections),
        ("summary".to_string(), Json::obj(summary_pairs)),
    ]);
    let rendered = doc.render();
    std::fs::write("BENCH_index.json", &rendered).expect("write BENCH_index.json");

    println!("wrote BENCH_index.json ({} bytes)", rendered.len());
    for (counter, _) in headline {
        let n = total(&naive, counter);
        let i = total(&indexed, counter);
        let pct = if n > 0 {
            format!("{:>5.1}%", 100.0 * i as f64 / n as f64)
        } else {
            "    —".to_owned()
        };
        println!("  {counter:<34} naive {n:>10}  indexed {i:>10}  ({pct} of naive)");
    }
}
