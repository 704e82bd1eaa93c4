//! Differential oracle: the indexed clausal engine must be observably
//! identical to the naive reference engine.
//!
//! Every test runs the same seeded computation twice — once under
//! `EngineMode::Naive` (full-set scans, round-based closures) and once
//! under `EngineMode::Indexed` (signature-filtered flat scans over a
//! subsumption-minimal list, Tison's method for both closures, the
//! factored `combine` and the one-list `mask`) — and asserts bit-identical
//! results. Together the suites replay well over 200 seeded programs:
//! raw engine operations, all five BLU-C primitives under the reduced
//! algebra, full HLU scripts checked against the possible-worlds backend,
//! and the emulation squares of Theorems 2.3.4/2.3.6/2.3.9.

use std::collections::BTreeSet;

use pwdb::blu::{check_states, BluClausal, BluSemantics, GenmaskStrategy};
use pwdb::hlu::{ClausalDatabase, HluProgram, InstanceDatabase};
use pwdb::logic::resolution::saturate;
use pwdb::logic::stress::seeded_exponential_pi_set;
use pwdb::logic::subsumption::insert_with_subsumption;
use pwdb::logic::{
    prime_implicates, with_engine, AtomId, Clause, ClauseSet, EngineMode, Literal, Rng,
};
use pwdb::worlds::WorldSet;
use pwdb_suite::testgen;

const N_ATOMS: usize = 5;

/// Runs `f` under both engines and asserts the results agree; returns the
/// indexed result. The closure must be deterministic — it is evaluated
/// twice from the same inputs.
fn run_both<T: PartialEq + std::fmt::Debug>(ctx: &str, f: impl Fn() -> T) -> T {
    let naive = with_engine(EngineMode::Naive, &f);
    let indexed = with_engine(EngineMode::Indexed, &f);
    assert_eq!(naive, indexed, "engines diverged on {ctx}");
    indexed
}

/// Raw engine operations: subsumption reduction (result *and* drop
/// count), single insert (result and return flag), saturation, and prime
/// implicates. Besides the testgen sets, the inputs include sets holding
/// raw tautologies, the seeded exponential prime-implicate family, and
/// one state of over 300 clauses for the reduce sweep and `mask`.
#[test]
fn raw_operations_agree() {
    let mut rng = Rng::new(0xD1F1);
    for case in 0..64 {
        let a = testgen::clause_set(&mut rng, N_ATOMS, 8, 4);
        let b = testgen::clause_set(&mut rng, N_ATOMS, 5, 3);
        let c = testgen::clause(&mut rng, N_ATOMS, 4);

        run_both(&format!("reduce_subsumed #{case}"), || {
            let mut s = a.clone();
            let dropped = s.reduce_subsumed();
            (s, dropped)
        });
        run_both(&format!("insert_with_subsumption #{case}"), || {
            let mut s = a.clone();
            let added = insert_with_subsumption(&mut s, c.clone());
            (s, added)
        });
        run_both(&format!("saturate #{case}"), || saturate(&a));
        run_both(&format!("prime_implicates #{case}"), || {
            prime_implicates(&a)
        });

        // testgen collects through `insert`, which drops tautologies; put
        // `b` and a tautology in raw so the closures and the sweep see
        // them.
        let mut raw = a.clone();
        for clause in b.iter().chain([&c]) {
            raw.insert_raw(clause.clone());
        }
        let atom = AtomId((case % N_ATOMS) as u32);
        let mut lits = c.literals().to_vec();
        lits.extend([Literal::pos(atom), Literal::neg(atom)]);
        raw.insert_raw(Clause::new(lits));
        let exponential = seeded_exponential_pi_set(case % 7, Some(case as u64));
        for (name, set) in [("raw", &raw), ("exponential", &exponential)] {
            run_both(&format!("reduce_subsumed {name} #{case}"), || {
                let mut s = set.clone();
                let dropped = s.reduce_subsumed();
                (s, dropped)
            });
            run_both(&format!("saturate {name} #{case}"), || saturate(set));
            run_both(&format!("prime_implicates {name} #{case}"), || {
                prime_implicates(set)
            });
        }
        // On a tautology-free input the saturation is exactly Tison's.
        for set in [&a, &exponential] {
            let (saturated, prime) =
                with_engine(EngineMode::Naive, || (saturate(set), prime_implicates(set)));
            assert_eq!(saturated, prime, "saturate != prime_implicates #{case}");
        }
    }

    // The testgen sets hold at most 8 clauses; one state of over 300
    // exercises the reduce sweep and `mask` at size.
    let mut rng = Rng::new(0xD1F8);
    let large: ClauseSet = (0..720)
        .map(|_| testgen::clause(&mut rng, 12, 4))
        .filter(|c| c.len() > 1)
        .collect();
    assert!(large.len() > 300, "large state has {} clauses", large.len());
    run_both("reduce_subsumed large", || {
        let mut s = large.clone();
        let dropped = s.reduce_subsumed();
        (s, dropped)
    });
    let alg = BluClausal::new().with_reduction(true);
    run_both("mask large", || {
        alg.op_mask(&large, &BTreeSet::from([AtomId(0), AtomId(5)]))
    });
}

/// All five BLU-C primitives under the optimized (reduced) algebra, with
/// both genmask strategies.
#[test]
fn blu_primitives_agree() {
    let mut rng = Rng::new(0xD1F2);
    for case in 0..48 {
        let x = testgen::clause_set(&mut rng, N_ATOMS, 5, 4);
        let y = testgen::clause_set(&mut rng, N_ATOMS, 4, 3);
        let m = testgen::mask(&mut rng, N_ATOMS, 2);
        for strategy in [GenmaskStrategy::PaperExhaustive, GenmaskStrategy::SatBased] {
            let alg = BluClausal::new()
                .with_reduction(true)
                .with_genmask(strategy);
            run_both(&format!("primitives #{case} {strategy:?}"), || {
                (
                    alg.op_assert(&x, &y),
                    alg.op_combine(&x, &y),
                    alg.op_complement(&x),
                    alg.op_mask(&x, &m),
                    alg.op_genmask(&y),
                )
            });
        }
    }
}

/// `x = C ∪ A` and `y = C ∪ B`, each clause put in raw so that
/// tautologies and `□` survive as members.
fn overlapping(shared: &ClauseSet, a: &ClauseSet, b: &ClauseSet) -> (ClauseSet, ClauseSet) {
    let mut x = ClauseSet::new();
    let mut y = ClauseSet::new();
    for c in shared.iter() {
        x.insert_raw(c.clone());
        y.insert_raw(c.clone());
    }
    for c in a.iter() {
        x.insert_raw(c.clone());
    }
    for c in b.iter() {
        y.insert_raw(c.clone());
    }
    (x, y)
}

/// A clause holding both `A` and `¬A`, plus up to two more literals.
fn tautology_on(rng: &mut Rng, atom: u32) -> Clause {
    let mut lits = vec![Literal::pos(AtomId(atom)), Literal::neg(AtomId(atom))];
    lits.extend(testgen::clause(rng, N_ATOMS, 2).literals().iter().copied());
    Clause::new(lits)
}

/// Checks the reduced `combine` and `mask` on one input pair: identical
/// under both engines, `combine` equal to `reduce(combine_clauses(x, y))`
/// and `mask` equal to the reduced as-written algorithm (`mask` of the
/// paper-exact algebra, then `reduce`); an empty mask returns `x` as is.
fn check_combine_and_mask(ctx: &str, x: &ClauseSet, y: &ClauseSet, m: &BTreeSet<AtomId>) {
    let alg = BluClausal::new().with_reduction(true);
    let (combined, masked) = run_both(ctx, || (alg.op_combine(x, y), alg.op_mask(x, m)));
    let (expected_combine, expected_mask) = with_engine(EngineMode::Naive, || {
        let mut c = BluClausal::combine_clauses(x, y);
        c.reduce_subsumed();
        let mut k = BluClausal::new().mask_clauses(x, m);
        if !m.is_empty() {
            k.reduce_subsumed();
        }
        (c, k)
    });
    assert_eq!(combined, expected_combine, "{ctx}: combine");
    assert_eq!(masked, expected_mask, "{ctx}: mask");
}

/// `combine` and `mask` on inputs that really overlap, as `modify` and
/// `where` produce them: `x = C ∪ A`, `y = C ∪ B`. The edge cases ride
/// along: `□ ∈ C`, raw tautologies in any part (also ones holding a mask
/// letter in both polarities), unreduced inputs (an `assert` output),
/// empty masks, and mask letters absent from the state.
#[test]
fn combine_and_mask_agree_on_overlapping_inputs() {
    let mut rng = Rng::new(0xD1F6);
    for case in 0..96 {
        let mut shared = testgen::clause_set(&mut rng, N_ATOMS, 6, 3);
        let mut a = testgen::clause_set(&mut rng, N_ATOMS, 3, 3);
        let mut b = testgen::clause_set(&mut rng, N_ATOMS, 3, 3);
        if case % 8 == 0 {
            shared.insert_raw(Clause::empty());
        }
        for (i, part) in [&mut shared, &mut a, &mut b].into_iter().enumerate() {
            if rng.below(3) == 0 {
                let atom = rng.below(N_ATOMS as u64) as u32;
                part.insert_raw(tautology_on(&mut rng, atom));
            }
            if case % 5 == i {
                part.insert_raw(testgen::clause(&mut rng, N_ATOMS, 4));
            }
        }
        let (x, y) = overlapping(&shared, &a, &b);
        let mut m = testgen::mask(&mut rng, N_ATOMS, 3);
        if case % 6 == 0 {
            // A letter no clause mentions.
            m.insert(AtomId(N_ATOMS as u32 + 2));
        }
        check_combine_and_mask(&format!("overlap #{case}"), &x, &y, &m);
        // Unreduced input: the raw union `assert` returns.
        let union = BluClausal::assert_clauses(&x, &y);
        check_combine_and_mask(&format!("overlap #{case} assert"), &union, &y, &m);
        check_combine_and_mask(&format!("overlap #{case} swapped"), &y, &union, &m);
    }
}

/// Hand-picked edge cases of the factored `combine` and the one-list
/// `mask` over `MinimalSet`.
#[test]
fn combine_and_mask_edge_cases_agree() {
    let lit = |a: u32, pos: bool| Literal::new(AtomId(a), pos);
    let cl = |lits: &[(u32, bool)]| Clause::new(lits.iter().map(|&(a, p)| lit(a, p)).collect());
    let raw = |clauses: &[Clause]| {
        let mut s = ClauseSet::new();
        for c in clauses {
            s.insert_raw(c.clone());
        }
        s
    };
    let taut = cl(&[(0, true), (0, false), (1, true)]);
    let cases = [
        // □ shared: the result is {□}.
        (
            raw(&[Clause::empty(), cl(&[(0, true)])]),
            raw(&[cl(&[(1, true), (2, true)])]),
            raw(&[cl(&[(1, false)])]),
        ),
        // A tautology in every part.
        (
            raw(&[taut.clone(), cl(&[(2, true)])]),
            raw(&[taut.clone(), cl(&[(3, true)])]),
            raw(&[cl(&[(0, false), (3, false)])]),
        ),
        // Identical inputs: no residue at all.
        (
            raw(&[cl(&[(0, true), (1, false)]), cl(&[(2, true)])]),
            ClauseSet::new(),
            ClauseSet::new(),
        ),
        // Disjoint inputs: the full product.
        (
            ClauseSet::new(),
            raw(&[cl(&[(0, true)]), cl(&[(1, true)])]),
            raw(&[cl(&[(0, false)]), cl(&[(2, true)])]),
        ),
        // One side empty: combine is empty.
        (ClauseSet::new(), raw(&[cl(&[(0, true)])]), ClauseSet::new()),
    ];
    let masks = [
        BTreeSet::new(),
        BTreeSet::from([AtomId(0)]),
        BTreeSet::from([AtomId(0), AtomId(1)]),
        BTreeSet::from([AtomId(40)]),
    ];
    for (i, (shared, a, b)) in cases.iter().enumerate() {
        let (x, y) = overlapping(shared, a, b);
        for (j, m) in masks.iter().enumerate() {
            check_combine_and_mask(&format!("edge #{i} mask #{j}"), &x, &y, m);
        }
    }
    // A state holding a clause with both A1 and ¬A1, masked on A1: its
    // resolvents all mention A1 again, so it contributes nothing.
    let state = raw(&[
        taut.clone(),
        cl(&[(0, true), (2, true)]),
        cl(&[(0, false), (3, true)]),
        cl(&[(4, true)]),
    ]);
    let alg = BluClausal::new().with_reduction(true);
    let masked = run_both("both polarities", || {
        alg.op_mask(&state, &BTreeSet::from([AtomId(0)]))
    });
    assert_eq!(
        masked,
        raw(&[cl(&[(2, true), (3, true)]), cl(&[(4, true)])])
    );
}

/// Runs one HLU script on the reduced clausal backend under both engines
/// (normalizing after every second statement) and checks the shared
/// trajectory against the instance-level backend.
fn check_script(ctx: &str, script: &[HluProgram], queries: &[pwdb::logic::Wff]) {
    let trace = run_both(ctx, || {
        let mut db = ClausalDatabase::new_reduced();
        let mut steps = Vec::new();
        for (i, prog) in script.iter().enumerate() {
            db.run(prog);
            if i % 2 == 1 {
                db.normalize();
            }
            let answers: Vec<(bool, bool)> = queries
                .iter()
                .map(|q| (db.is_certain(q), db.is_possible(q)))
                .collect();
            steps.push((db.state().clone(), answers));
        }
        steps
    });

    // The shared result must also be semantically right: replay the
    // script world-by-world and compare denotations.
    let mut instance = InstanceDatabase::with_atoms(N_ATOMS);
    for (prog, (state, _)) in script.iter().zip(&trace) {
        instance.run(prog);
        assert_eq!(
            &WorldSet::from_clauses(N_ATOMS, state),
            instance.state(),
            "{ctx}: clausal state diverged from world semantics after {prog}"
        );
    }
}

/// Full HLU scripts on the reduced clausal backend: both engines must
/// produce identical clause states and query answers at every step, and
/// each must still denote the same worlds as the instance-level backend
/// (the Theorem 3.1.4 soundness oracle). The second half chains `modify`
/// and `where` statements, whose `combine` inputs share most clauses.
#[test]
fn hlu_scripts_agree() {
    let mut rng = Rng::new(0xD1F3);
    for case in 0..48 {
        let script: Vec<HluProgram> = (0..rng.range_usize(1, 5))
            .map(|_| testgen::hlu_program(&mut rng, N_ATOMS))
            .collect();
        let queries: Vec<_> = (0..3).map(|_| testgen::wff(&mut rng, N_ATOMS, 2)).collect();
        check_script(&format!("hlu script #{case}"), &script, &queries);
    }

    let mut rng = Rng::new(0xD1F7);
    for case in 0..32 {
        let mut script = vec![HluProgram::Insert(testgen::wff(&mut rng, N_ATOMS, 2))];
        for _ in 0..rng.range_usize(3, 7) {
            let modify = |rng: &mut Rng| {
                HluProgram::Modify(testgen::wff(rng, N_ATOMS, 1), testgen::wff(rng, N_ATOMS, 1))
            };
            let stmt = match rng.below(3) {
                0 => modify(&mut rng),
                1 => {
                    let (then, otherwise) = (modify(&mut rng), modify(&mut rng));
                    HluProgram::where2(testgen::wff(&mut rng, N_ATOMS, 1), then, otherwise)
                }
                _ => {
                    let inner = HluProgram::where2(
                        testgen::wff(&mut rng, N_ATOMS, 1),
                        modify(&mut rng),
                        testgen::simple_hlu_program(&mut rng, N_ATOMS),
                    );
                    HluProgram::where2(testgen::wff(&mut rng, N_ATOMS, 1), inner, modify(&mut rng))
                }
            };
            script.push(stmt);
        }
        let queries: Vec<_> = (0..3).map(|_| testgen::wff(&mut rng, N_ATOMS, 2)).collect();
        check_script(&format!("modify/where chain #{case}"), &script, &queries);
    }
}

/// The emulation squares of Theorems 2.3.4, 2.3.6, and 2.3.9 hold under
/// both engines: every BLU-C operator commutes with `e_CI` into BLU-I no
/// matter which engine computes the clausal side.
#[test]
fn emulation_theorems_hold_under_both_engines() {
    let mut rng = Rng::new(0xD1F5);
    for case in 0..32 {
        let x = testgen::clause_set(&mut rng, N_ATOMS, 4, 4);
        let y = testgen::clause_set(&mut rng, N_ATOMS, 3, 3);
        let extra: BTreeSet<_> = testgen::mask(&mut rng, N_ATOMS, 2);
        let alg = BluClausal::new().with_reduction(true);
        for mode in [EngineMode::Naive, EngineMode::Indexed] {
            let report = with_engine(mode, || check_states(&alg, N_ATOMS, &x, &y, &extra));
            assert!(
                report.all_ok(),
                "case {case} under {mode:?}: {:?}",
                report.failures
            );
        }
    }
}

/// Empty and degenerate inputs take the indexed fast paths; make sure
/// they agree with the reference on them too.
#[test]
fn degenerate_inputs_agree() {
    let empty = ClauseSet::new();
    let contradiction: ClauseSet = [pwdb::logic::Clause::empty()].into_iter().collect();
    for (name, set) in [("empty", &empty), ("contradiction", &contradiction)] {
        run_both(&format!("saturate {name}"), || saturate(set));
        run_both(&format!("prime_implicates {name}"), || {
            prime_implicates(set)
        });
        run_both(&format!("reduce {name}"), || {
            let mut s = set.clone();
            let dropped = s.reduce_subsumed();
            (s, dropped)
        });
    }
}
