//! End-to-end observability: driving the public BLU/HLU APIs must light up
//! the corresponding metric families, and live snapshots must survive the
//! hand-written JSON round-trip.

use std::collections::BTreeSet;

use pwdb::blu::{BluClausal, BluSemantics, GenmaskStrategy};
use pwdb::hlu::ClausalDatabase;
use pwdb::logic::{AtomId, Rng};
use pwdb_metrics::MetricsSnapshot;
use pwdb_suite::testgen;

/// Snapshot-delta around a workload. Tests in this binary run in
/// parallel against one global registry, so deltas may include other
/// tests' activity — assertions below are therefore all lower bounds.
fn delta_of(f: impl FnOnce()) -> MetricsSnapshot {
    let before = pwdb_metrics::snapshot();
    f();
    pwdb_metrics::snapshot().delta(&before)
}

/// How many times the timer `name` fired in the delta `d`.
fn calls(d: &MetricsSnapshot, name: &str) -> u64 {
    d.timers.get(name).map_or(0, |t| t.count)
}

#[test]
fn blu_primitives_bump_their_counters() {
    let mut rng = Rng::new(0x0B5E_0001);
    let x = testgen::clause_set(&mut rng, 6, 5, 3);
    let y = testgen::clause_set(&mut rng, 6, 4, 3);
    let mask: BTreeSet<AtomId> = [AtomId(0), AtomId(2)].into_iter().collect();

    let alg = BluClausal::new();
    let d = delta_of(|| {
        std::hint::black_box(alg.op_assert(&x, &y));
        std::hint::black_box(alg.op_combine(&x, &y));
        std::hint::black_box(alg.op_complement(&y));
        std::hint::black_box(alg.op_mask(&x, &mask));
        std::hint::black_box(alg.op_genmask(&x));
    });

    // Each primitive's timer counts its calls.
    for name in [
        "blu.assert.wall",
        "blu.combine.wall",
        "blu.complement.wall",
        "blu.mask.wall",
        "blu.genmask.wall",
    ] {
        assert!(calls(&d, name) >= 1, "{name} did not fire: {:?}", d.timers);
    }
}

#[test]
fn sat_genmask_drives_the_dpll_counters() {
    let mut rng = Rng::new(0x0B5E_0002);
    let alg = BluClausal::new().with_genmask(GenmaskStrategy::SatBased);
    let d = delta_of(|| {
        for _ in 0..4 {
            let phi = testgen::clause_set(&mut rng, 7, 8, 3);
            std::hint::black_box(alg.op_genmask(&phi));
        }
    });
    assert!(calls(&d, "blu.genmask.wall") >= 4);
    assert!(
        d.counter("logic.dpll.solves") > 0,
        "SAT strategy must reach DPLL"
    );
}

#[test]
fn hlu_database_bumps_statement_and_query_counters() {
    let mut rng = Rng::new(0x0B5E_0003);
    let mut db = ClausalDatabase::new();
    let d = delta_of(|| {
        for _ in 0..6 {
            db.insert(testgen::literal_disjunction(&mut rng, 8));
        }
        for _ in 0..4 {
            let q = testgen::wff(&mut rng, 8, 2);
            std::hint::black_box(db.is_certain(&q));
            std::hint::black_box(db.is_possible(&q));
        }
    });
    // The statement timer is named per kind: its count is the mix.
    assert!(calls(&d, "hlu.stmt.insert") >= 6);
    assert!(calls(&d, "hlu.query.certain.wall") >= 4);
    assert!(calls(&d, "hlu.query.possible.wall") >= 4);
}

#[test]
fn counters_are_monotone_across_snapshots() {
    let mut rng = Rng::new(0x0B5E_0004);
    let alg = BluClausal::new();
    let s1 = pwdb_metrics::snapshot();
    let x = testgen::clause_set(&mut rng, 6, 5, 3);
    let y = testgen::clause_set(&mut rng, 6, 5, 3);
    std::hint::black_box(alg.op_combine(&x, &y));
    let s2 = pwdb_metrics::snapshot();
    for (name, &v1) in &s1.counters {
        assert!(
            s2.counter(name) >= v1,
            "counter {name} went backwards: {v1} -> {}",
            s2.counter(name)
        );
    }
}

#[test]
fn live_snapshot_round_trips_through_json() {
    let mut rng = Rng::new(0x0B5E_0005);
    let alg = BluClausal::new();
    let x = testgen::clause_set(&mut rng, 6, 6, 3);
    std::hint::black_box(alg.op_complement(&x));
    std::hint::black_box(alg.op_genmask(&x));

    let snap = pwdb_metrics::snapshot();
    let text = snap.to_json();
    let back = MetricsSnapshot::from_json(&text).expect("snapshot JSON must re-parse");
    assert_eq!(back, snap);
    // The document itself renders back byte for byte.
    let doc = pwdb_metrics::json::Json::parse(&text).expect("snapshot JSON must re-parse");
    assert_eq!(doc.render(), text, "JSON round-trip mismatch");
}
