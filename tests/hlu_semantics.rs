//! Cross-backend and cross-definition semantics tests for HLU:
//! the clausal database must agree with the possible-worlds database on
//! arbitrary scripts, and the HLU translations must agree with the
//! morphism-level update definitions of §1.3–1.4 where the paper claims
//! they do (Theorem 3.1.4).
//!
//! Seeded deterministic loops stand in for the old proptest strategies;
//! cases the old `prop_assume!` guards would discard are skipped with
//! `continue`.

use pwdb::hlu::{ClausalDatabase, HluProgram, InstanceDatabase};
use pwdb::logic::{AtomId, Literal, Rng, Wff};
use pwdb::worlds::{delete_wff, insert_wff, WorldSet};
use pwdb_suite::testgen;

const N: usize = 4;
const CASES: usize = 96;

fn arb_wff(rng: &mut Rng, depth: usize) -> Wff {
    testgen::wff(rng, N, depth)
}

/// The central soundness property: the clausal implementation of any
/// HLU script denotes exactly the same set of possible worlds as the
/// instance implementation.
#[test]
fn backends_agree_on_scripts() {
    let mut rng = Rng::new(0x41A1);
    for _ in 0..CASES {
        let script: Vec<HluProgram> = (0..rng.range_usize(1, 5))
            .map(|_| testgen::hlu_program(&mut rng, N))
            .collect();
        let mut clausal = ClausalDatabase::new();
        let mut instance = InstanceDatabase::with_atoms(N);
        for prog in &script {
            clausal.run(prog);
            instance.run(prog);
            assert_eq!(
                &WorldSet::from_clauses(N, clausal.state()),
                instance.state(),
                "diverged after {prog}"
            );
        }
    }
}

/// A seeded query: a conjunction or disjunction of 1–3 literals, or an
/// arbitrary wff.
fn arb_query(rng: &mut Rng) -> Wff {
    match rng.below(3) {
        0 => testgen::literal_disjunction(rng, N),
        1 => {
            Wff::conj((0..rng.range_usize(1, 4)).map(|_| {
                Wff::literal(Literal::new(AtomId(rng.below(N as u64) as u32), rng.coin()))
            }))
        }
        _ => arb_wff(rng, 2),
    }
}

/// Query answers on the clausal backend — both algebras, with and
/// without integrity constraints — match the possible-worlds oracle
/// after every statement, including on scripts that end inconsistent
/// (where everything is certain and nothing is possible).
#[test]
fn query_answers_match_world_set_oracle() {
    let mut rng = Rng::new(0x41AB);
    for case in 0..CASES {
        let mut script: Vec<HluProgram> = (0..rng.range_usize(1, 4))
            .map(|_| testgen::hlu_program(&mut rng, N))
            .collect();
        let ends_inconsistent = case % 3 == 0;
        if ends_inconsistent {
            let a = Wff::atom(rng.below(N as u64) as u32);
            script.push(HluProgram::Assert(a.clone().and(a.not())));
        }
        let constraints = (case % 2 == 1).then(|| arb_wff(&mut rng, 1));
        let queries: Vec<Wff> = (0..6).map(|_| arb_query(&mut rng)).collect();
        for reduced in [false, true] {
            let mut clausal = if reduced {
                ClausalDatabase::new_reduced()
            } else {
                ClausalDatabase::new()
            };
            let mut instance = InstanceDatabase::with_atoms(N);
            if let Some(con) = &constraints {
                clausal = clausal.with_constraints(con.clone());
                instance = instance.with_constraints(con.clone());
            }
            for prog in &script {
                clausal.run(prog);
                instance.run(prog);
                for q in &queries {
                    let ctx = format!("case {case}, reduced={reduced}, after {prog}, query {q:?}");
                    assert_eq!(
                        clausal.is_certain(q),
                        instance.is_certain(q),
                        "certain: {ctx}"
                    );
                    assert_eq!(
                        clausal.is_possible(q),
                        instance.is_possible(q),
                        "possible: {ctx}"
                    );
                }
                // Both backends share the enforcement step, so check it
                // against the constraint itself rather than each other.
                if let Some(con) = &constraints {
                    assert!(clausal.is_certain(con), "constraints lost after {prog}");
                }
            }
            if ends_inconsistent {
                assert!(!instance.is_consistent() && !clausal.is_consistent());
                assert!(queries
                    .iter()
                    .all(|q| clausal.is_certain(q) && !clausal.is_possible(q)));
            }
        }
    }
}

/// HLU insert agrees with the nondeterministic morphism insert[Φ] of
/// Definition 1.4.5(a) on arbitrary states and satisfiable formulas.
#[test]
fn hlu_insert_matches_morphism_insert() {
    let mut rng = Rng::new(0x41A2);
    for _ in 0..CASES {
        let state_wff = arb_wff(&mut rng, 2);
        let param = arb_wff(&mut rng, 2);
        let start = WorldSet::from_wff(N, &state_wff);
        if WorldSet::from_wff(N, &param).is_empty() {
            continue;
        }

        let mut db = InstanceDatabase::with_atoms(N);
        db.set_state(start.clone());
        db.run(&HluProgram::Insert(param.clone()));

        let nd = insert_wff(N, &param).expect("satisfiable");
        let via_morphism = nd.apply_set(&start);
        assert_eq!(db.state(), &via_morphism);
    }
}

/// Likewise for delete (Definition 1.4.5(b)), when the negation is
/// satisfiable.
#[test]
fn hlu_delete_matches_morphism_delete() {
    let mut rng = Rng::new(0x41A3);
    for _ in 0..CASES {
        let state_wff = arb_wff(&mut rng, 2);
        let param = arb_wff(&mut rng, 2);
        let start = WorldSet::from_wff(N, &state_wff);
        if WorldSet::from_wff(N, &param.clone().not()).is_empty() {
            continue;
        }

        let mut db = InstanceDatabase::with_atoms(N);
        db.set_state(start.clone());
        db.run(&HluProgram::Delete(param.clone()));

        let nd = delete_wff(N, &param).expect("negation satisfiable");
        assert_eq!(db.state(), &nd.apply_set(&start));
    }
}

/// Insert establishes its parameter (when satisfiable): afterwards the
/// parameter is certain.
#[test]
fn insert_establishes_parameter() {
    let mut rng = Rng::new(0x41A4);
    for _ in 0..CASES {
        let state_wff = arb_wff(&mut rng, 2);
        let param = arb_wff(&mut rng, 2);
        if WorldSet::from_wff(N, &param).is_empty() {
            continue;
        }
        let mut db = InstanceDatabase::with_atoms(N);
        db.set_state(WorldSet::from_wff(N, &state_wff));
        db.run(&HluProgram::Insert(param.clone()));
        assert!(db.is_certain(&param));
    }
}

/// Delete refutes its parameter (when refutable).
#[test]
fn delete_refutes_parameter() {
    let mut rng = Rng::new(0x41A5);
    for _ in 0..CASES {
        let state_wff = arb_wff(&mut rng, 2);
        let param = arb_wff(&mut rng, 2);
        if WorldSet::from_wff(N, &param.clone().not()).is_empty() {
            continue;
        }
        let mut db = InstanceDatabase::with_atoms(N);
        db.set_state(WorldSet::from_wff(N, &state_wff));
        db.run(&HluProgram::Delete(param.clone()));
        assert!(db.is_certain(&param.not()));
    }
}

/// Insert never empties a non-empty state (unlike assert): the mask
/// step guarantees consistency is preserved for satisfiable inserts.
#[test]
fn insert_preserves_consistency() {
    let mut rng = Rng::new(0x41A6);
    for _ in 0..CASES {
        let state_wff = arb_wff(&mut rng, 2);
        let param = arb_wff(&mut rng, 2);
        if WorldSet::from_wff(N, &param).is_empty() {
            continue;
        }
        let mut db = InstanceDatabase::with_atoms(N);
        db.set_state(WorldSet::from_wff(N, &state_wff));
        if !db.is_consistent() {
            continue;
        }
        db.run(&HluProgram::Insert(param));
        assert!(db.is_consistent());
    }
}

/// The where-split is a partition: (where W P Q) on S equals
/// P(S ∩ pw(W)) ∪ Q(S \ pw(W)).
#[test]
fn where_is_a_partitioned_update() {
    let mut rng = Rng::new(0x41A7);
    for _ in 0..CASES {
        let state_wff = arb_wff(&mut rng, 2);
        let cond = arb_wff(&mut rng, 2);
        let param = arb_wff(&mut rng, 1);
        let start = WorldSet::from_wff(N, &state_wff);
        let cond_worlds = WorldSet::from_wff(N, &cond);

        let mut whole = InstanceDatabase::with_atoms(N);
        whole.set_state(start.clone());
        whole.run(&HluProgram::where2(
            cond.clone(),
            HluProgram::Insert(param.clone()),
            HluProgram::Delete(param.clone()),
        ));

        // By hand: run insert on the intersection, delete on the rest.
        let mut then_db = InstanceDatabase::with_atoms(N);
        then_db.set_state(start.intersect(&cond_worlds));
        then_db.run(&HluProgram::Insert(param.clone()));
        let mut else_db = InstanceDatabase::with_atoms(N);
        else_db.set_state(start.difference(&cond_worlds));
        else_db.run(&HluProgram::Delete(param));

        assert_eq!(whole.state(), &then_db.state().union(else_db.state()));
    }
}

/// `clear` leaves certainty about unmasked atoms intact.
#[test]
fn clear_preserves_unmasked_knowledge() {
    let mut rng = Rng::new(0x41A8);
    for _ in 0..CASES {
        let a = rng.below(N as u64) as u32;
        let b = rng.below(N as u64) as u32;
        if a == b {
            continue;
        }
        let mut db = ClausalDatabase::new();
        db.insert(Wff::atom(a).and(Wff::atom(b)));
        db.clear([AtomId(a)]);
        assert!(!db.is_certain(&Wff::atom(a)));
        assert!(db.is_certain(&Wff::atom(b)));
    }
}

fn subset_state(state_bits: u64) -> WorldSet {
    let mut s = WorldSet::empty(N);
    for b in 0..(1u64 << N) {
        if b & state_bits == b {
            s.insert(pwdb::worlds::World::from_bits(b, N));
        }
    }
    s
}

/// Theorem 3.1.4 on single-literal parameters: HLU-modify equals the
/// morphism modify[Φ₁,Φ₂] of Definitions 1.3.3(c)/1.4.5(c).
#[test]
fn theorem_3_1_4_modify_single_literals() {
    use pwdb::worlds::modify_wff;
    let cases = [
        (Wff::atom(0u32), Wff::atom(1u32)),
        (Wff::atom(0u32).not(), Wff::atom(1u32)),
        (Wff::atom(3u32), Wff::atom(0u32).not()),
        (Wff::atom(2u32).not(), Wff::atom(3u32).not()),
    ];
    for (from, to) in cases {
        for state_bits in [0u64, 3, 7, 10, 15] {
            let start = subset_state(state_bits);
            let mut db = InstanceDatabase::with_atoms(N);
            db.set_state(start.clone());
            db.run(&HluProgram::Modify(from.clone(), to.clone()));
            let nd = modify_wff(N, &from, &to).expect("satisfiable literals");
            assert_eq!(
                db.state(),
                &nd.apply_set(&start),
                "modify({from}, {to}) diverged on state mask {state_bits}"
            );
        }
    }
}

/// Faithfulness finding (documented in DESIGN.md/EXPERIMENTS.md): on
/// MULTI-literal conjunctions the two printed definitions genuinely
/// differ. `modify[{A1,A2},{A3}]` flips each condition literal
/// individually (Definition 1.3.4(b): the world where A1∧A2 held gets
/// A1=0 ∧ A2=0), while the HLU translation (Definition 3.1.2) *deletes*
/// the formula — asserting ¬(A1∧A2), i.e. "at least one false" — which
/// keeps strictly more worlds. The theorem's "logical equivalence" holds
/// only for the single-literal case pinned above.
#[test]
fn theorem_3_1_4_divergence_on_conjunctions() {
    use pwdb::worlds::modify_wff;
    let from = Wff::atom(0u32).and(Wff::atom(1u32));
    let to = Wff::atom(2u32);
    // Worlds with A3 = A4 = 0 and A1, A2 free.
    let start = subset_state(0b0011);
    let mut db = InstanceDatabase::with_atoms(N);
    db.set_state(start.clone());
    db.run(&HluProgram::Modify(from.clone(), to.clone()));
    let via_hlu = db.state().clone();
    let via_morphism = modify_wff(N, &from, &to).unwrap().apply_set(&start);
    assert_ne!(via_hlu, via_morphism, "the divergence is real");
    // The morphism result is the sharper one and is contained in HLU's.
    assert!(via_morphism.is_subset(&via_hlu));
    assert_eq!(via_morphism.len(), 4);
    assert_eq!(via_hlu.len(), 6);
    // Both agree that A1 ∧ A2 no longer holds anywhere…
    let cond = WorldSet::from_wff(N, &from);
    assert!(via_hlu.intersect(&cond).is_empty());
    assert!(via_morphism.intersect(&cond).is_empty());
}
