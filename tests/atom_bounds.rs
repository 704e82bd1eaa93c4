//! The 64-atom edge of the packed-assignment universe.
//!
//! Assignments pack one atom per bit of a `u64`, so 64 atoms is the
//! largest supported universe — and exactly the size where the naive
//! `1u64 << n_atoms` world count would overflow (wrapping to 0 in
//! release builds). These tests pin the public surface at 63, 64, and
//! 65 atoms: counts stay exact through 64 (as `u128`), and 65 fails
//! with a consistent typed `TooManyAtoms` everywhere rather than a
//! panic or a silent wrap.

use pwdb::hlu::{ClausalDatabase, HluProgram};
use pwdb::logic::{
    parse_wff, try_count_models, Assignment, AtomTable, ClauseSet, Limits, LogicError, MAX_ATOMS,
};

#[test]
fn world_counts_are_exact_at_63_and_64_atoms() {
    let empty = ClauseSet::new();
    assert_eq!(try_count_models(&empty, 63), Ok(1u128 << 63));
    assert_eq!(try_count_models(&empty, 64), Ok(1u128 << 64));

    let db = ClausalDatabase::new();
    assert_eq!(db.try_world_count(63), Ok(1u128 << 63));
    assert_eq!(db.try_world_count(64), Ok(1u128 << 64));

    // A constraint at the boundary still halves the space exactly.
    let mut atoms = AtomTable::with_indexed_atoms(64);
    let mut db = ClausalDatabase::new();
    db.insert(parse_wff("A64", &mut atoms).unwrap());
    assert_eq!(db.try_world_count(64), Ok(1u128 << 63));
}

#[test]
fn queries_past_the_packed_word_answer_through_refutation() {
    // The query memo packs a model into one `u64`, so a query naming atom
    // 64 (`A65`), and every query on a state that holds it, is answered by
    // refutation instead.
    let mut atoms = AtomTable::with_indexed_atoms(65);
    let mut wff = |text: &str| parse_wff(text, &mut atoms).unwrap();
    let (a1, a2, a65) = (wff("A1"), wff("A2"), wff("A65"));
    let (not_a1, a1_and_a65, a1_or_a65) = (wff("!A1"), wff("A1 & A65"), wff("A1 | A65"));
    let unlimited = Limits::unlimited();

    let mut db = ClausalDatabase::new();
    db.run_governed(&HluProgram::Insert(a1.clone()), &unlimited)
        .unwrap();
    assert!(!db.is_certain(&a65) && db.is_possible(&a65));
    assert!(!db.is_certain(&a1_and_a65) && db.is_possible(&a1_and_a65));
    assert!(db.is_certain(&a1_or_a65));

    db.run_governed(
        &HluProgram::Insert(a65.clone().and(not_a1.clone())),
        &unlimited,
    )
    .unwrap();
    assert!(db.is_certain(&a65) && db.is_certain(&not_a1));
    assert!(!db.is_possible(&a1) && !db.is_possible(&a1_and_a65));
    assert!(db.is_certain(&a1_or_a65));
    assert!(db.is_possible(&a2) && !db.is_certain(&a2));
    assert!(db.is_consistent());
}

#[test]
fn sixty_five_atoms_is_too_many_atoms_everywhere() {
    let expected = LogicError::TooManyAtoms {
        requested: 65,
        max: MAX_ATOMS,
    };
    assert_eq!(
        try_count_models(&ClauseSet::new(), 65),
        Err(expected.clone())
    );
    assert_eq!(
        ClausalDatabase::new().try_world_count(65),
        Err(expected.clone())
    );
    assert_eq!(Assignment::try_from_bits(0, 65).unwrap_err(), expected);
}

#[test]
fn packed_assignments_cover_the_full_64_atom_word() {
    // At n = 64 the validity mask must be all-ones, not `(1 << 64) - 1`
    // (which would overflow): the top bit has to survive the round trip.
    let a = Assignment::try_from_bits(u64::MAX, 64).unwrap();
    assert_eq!(a.bits(), u64::MAX);
    assert_eq!(a.len(), 64);
    let b = Assignment::try_from_bits(1u64 << 63, 63).unwrap();
    assert_eq!(b.bits(), 0, "bits beyond a 63-atom universe are cleared");
}
