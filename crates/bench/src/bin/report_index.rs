//! Naive-vs-indexed clausal engine comparison.
//!
//! Runs the reduced E1–E5 workloads — plus a resolution-saturation
//! section and a normalizing HLU script — twice: once under the naive
//! reference engine (full-set scans, round-based closures, the genmask
//! memo bypassed) and once under the indexed engine (signature-filtered
//! flat scans over a subsumption-minimal list, Tison's method for both
//! closures, the genmask memo keyed on whole inputs, the factored
//! `combine` and the one-list `mask`). The per-section counter deltas of
//! both sides go to `BENCH_index.json` as the `index_comparison`
//! document, with a `summary` of the headline op-cost counters. Timers
//! are left out, so the file is a function of the code alone: CI reruns
//! the binary and fails when the committed file differs.
//!
//! The binary *asserts* the headline claims: indexed must try strictly
//! fewer subsumption comparisons and resolvent pairs than naive, the
//! genmask memo must absorb the repeated E5 calls, and the signature
//! filter must actually prune. The written document must re-parse, every
//! section's `naive` and `indexed` snapshot must decode back into a
//! `MetricsSnapshot`, and every summary entry must be numeric. Result
//! equality between the engines is the differential harness's job
//! (`tests/index_differential.rs`); this report measures the cost of
//! getting those identical results.

use pwdb::logic::{with_engine, EngineMode};
use pwdb_bench::workloads;
use pwdb_metrics::json::Json;
use pwdb_metrics::MetricsSnapshot;

/// Runs every comparison section under one engine, returning per-section
/// counter deltas. The genmask memo is cleared before each section so
/// sections are independent and the indexed side always pays its first
/// computation.
fn run_side(mode: EngineMode) -> Vec<(String, MetricsSnapshot)> {
    workloads::INDEX_COMPARISON
        .iter()
        .map(|&(name, f)| {
            pwdb::logic::cache::clear_all();
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

    // Headline counters: (name, must strictly drop under the index).
    let headline = [
        ("logic.subsumption.comparisons", true),
        ("logic.resolution.pairs_tried", true),
        ("blu.genmask.assignments", true),
        ("logic.dpll.solves", true),
        ("logic.index.sig_prunes", false),
    ];

    let mut summary_pairs = Vec::new();
    for (counter, must_drop) in headline {
        let n = total(&naive, counter);
        let i = total(&indexed, counter);
        if must_drop {
            assert!(
                i < n,
                "counter {counter} did not drop: naive {n}, indexed {i}"
            );
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
    let parsed = Json::parse(&rendered).expect("rendered JSON must re-parse");
    assert_eq!(parsed.render(), rendered, "JSON round-trip mismatch");
    check_shape(&parsed);
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

/// Checks the re-parsed document: each section's `naive` and `indexed`
/// snapshot decodes, and each summary counter carries both engine totals
/// as numbers.
fn check_shape(doc: &Json) {
    let Some(Json::Obj(sections)) = doc.get("index_comparison") else {
        panic!("index_comparison is not an object");
    };
    for (name, section) in sections {
        for side in ["naive", "indexed"] {
            let snap = section
                .get(side)
                .unwrap_or_else(|| panic!("section '{name}' is missing '{side}'"));
            if let Err(e) = MetricsSnapshot::from_json_value(snap) {
                panic!("section '{name}' side '{side}' does not decode: {e}");
            }
        }
    }
    let Some(Json::Obj(summary)) = doc.get("summary") else {
        panic!("summary is not an object");
    };
    for (name, entry) in summary {
        for side in ["naive", "indexed"] {
            assert!(
                entry.get(side).and_then(Json::as_u64).is_some(),
                "summary '{name}' is missing a numeric '{side}'"
            );
        }
    }
}
