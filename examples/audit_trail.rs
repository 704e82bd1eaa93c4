//! Checked updates, integrity constraints, and uncertainty accounting —
//! the database-engineering surface of the library on a procurement
//! scenario.
//!
//! Run with `cargo run --example audit_trail`.
//!
//! A purchasing system tracks four flags per order: `ordered`, `paid`,
//! `shipped`, `flagged`. Business rules: shipping requires payment, and
//! payment requires an order. Each update must keep the state
//! consistent (the §1.3.3 rejection discipline); the
//! auditor watches `try_world_count` — the number of possible worlds — shrink
//! as evidence accumulates.

use pwdb::hlu::{HluProgram, InstanceDatabase};
use pwdb::logic::Limits;
use pwdb::prelude::*;

fn main() {
    let mut atoms = AtomTable::new();
    for name in ["ordered", "paid", "shipped", "flagged"] {
        atoms.intern(name);
    }
    let n = atoms.len();
    let wff = |text: &str, atoms: &mut AtomTable| parse_wff(text, atoms).unwrap();

    // Business rules as integrity constraints (enforced after every
    // update by world elimination, §1.3.3).
    let rules = wff("(shipped -> paid) & (paid -> ordered)", &mut atoms);
    let mut db = InstanceDatabase::with_atoms(n).with_constraints(rules);
    // No resource budget: `run_governed` then only applies the §1.3.3
    // check, rejecting (and never installing) an update that leaves no
    // world.
    let unlimited = Limits::unlimited();
    println!(
        "fresh ledger: {} possible world(s) under the business rules",
        db.try_world_count(n).unwrap()
    );

    // Evidence 1: the order exists.
    db.insert(wff("ordered", &mut atoms));
    println!(
        "after insert(ordered):      {} worlds",
        db.try_world_count(n).unwrap()
    );

    // Evidence 2, as a bundle: a shipment notice arrives, but the
    // operator bundles it with a bogus "not paid" assertion — the bundle
    // would make shipping unpaid, violating the rules. The second
    // statement is rejected, and restoring the clone taken before the
    // bundle undoes the first one too.
    let before_bundle = db.clone();
    let committed = db
        .run_governed(&HluProgram::Insert(wff("shipped", &mut atoms)), &unlimited)
        .and_then(|()| db.run_governed(&HluProgram::Assert(wff("!paid", &mut atoms)), &unlimited))
        .is_ok();
    if !committed {
        db = before_bundle;
    }
    println!(
        "bundled (shipped, !paid):   committed = {committed}, {} worlds (rolled back)",
        db.try_world_count(n).unwrap()
    );
    assert!(!committed);

    // The shipment alone is fine — and the rules *propagate*: shipped
    // forces paid forces ordered.
    db.run_governed(&HluProgram::Insert(wff("shipped", &mut atoms)), &unlimited)
        .expect("consistent update");
    println!(
        "after insert(shipped):      {} worlds",
        db.try_world_count(n).unwrap()
    );
    assert!(db.is_certain(&wff("paid & ordered", &mut atoms)));

    // A direct contradiction is rejected outright.
    let err = db.run_governed(&HluProgram::Assert(wff("!ordered", &mut atoms)), &unlimited);
    println!("assert(!ordered):           rejected = {}", err.is_err());
    assert!(err.is_err());

    // The fraud flag stays genuinely unknown until someone decides.
    let flagged = wff("flagged", &mut atoms);
    assert!(db.is_possible(&flagged) && !db.is_certain(&flagged));
    println!(
        "final: {} worlds; flagged possible={}, certain={}",
        db.try_world_count(n).unwrap(),
        db.is_possible(&flagged),
        db.is_certain(&flagged)
    );

    // Cross-check the whole run on the clausal engine.
    let mut clausal = pwdb::hlu::ClausalDatabase::new()
        .with_constraints(wff("(shipped -> paid) & (paid -> ordered)", &mut atoms));
    clausal.insert(wff("ordered", &mut atoms));
    clausal.insert(wff("shipped", &mut atoms));
    assert_eq!(
        clausal.try_world_count(n).unwrap(),
        db.try_world_count(n).unwrap()
    );
    println!(
        "clausal engine agrees: {} worlds",
        clausal.try_world_count(n).unwrap()
    );

    // The audit trail itself: every statement that actually committed, in
    // order. The rejected assert and the rolled-back bundle are
    // excised — the history always derives the current state.
    println!(
        "\naudit trail ({} committed statement(s)):",
        db.history().len()
    );
    for (i, stmt) in db.history().iter().enumerate() {
        println!("  {:>2}. {}", i + 1, stmt.display(&atoms));
    }
    assert_eq!(db.history().len(), db.updates_run());
}
