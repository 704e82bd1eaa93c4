//! Crash-matrix tests for the durable storage subsystem.
//!
//! The invariant under test: **a database killed at any injected fault
//! point recovers to a state bit-identical to an in-memory replay of the
//! statement prefix recovery claims** — and that claimed prefix is always
//! a record-aligned prefix of what was actually written. The oracle is
//! the PR 3 differential pattern: the same statements through a fresh
//! `ClausalDatabase`, compared on the whole observable surface (clause
//! set, update count, history, name table).
//!
//! Faults are injected with the deterministic SplitMix64-seeded helpers
//! of `pwdb::store::fault`: torn tails at arbitrary byte offsets, single
//! bit flips at controlled positions, truncations, corrupt and leftover
//! temporary snapshot files. Set `PWDB_STORE_FAULT_CASES` to scale the
//! seeded matrix (default 24 cases per matrix test).

use pwdb::hlu::{ClausalDatabase, DurableDatabase, HluProgram};
use pwdb::logic::{AtomId, AtomTable, Rng};
use pwdb::store::fault;
use pwdb::store::{Record, TestDir};
use pwdb_suite::testgen;

const N_ATOMS: usize = 5;

fn fault_cases() -> usize {
    std::env::var("PWDB_STORE_FAULT_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(24)
}

/// Generates a seeded script of HLU programs over `N_ATOMS` atoms.
fn script(rng: &mut Rng, len: usize) -> Vec<HluProgram> {
    (0..len)
        .map(|_| testgen::hlu_program(rng, N_ATOMS))
        .collect()
}

/// `(clear [A1 … A5])` — semantically near-trivial, but it references the
/// whole vocabulary, forcing every `A` record into the log. Used as a
/// script prologue by tests that hand-craft unacknowledged tail records
/// (whose statements must parse against an already-complete name table).
fn clear_all() -> HluProgram {
    HluProgram::Clear((0..N_ATOMS as u32).map(AtomId).collect())
}

/// Runs `programs` through a fresh in-memory database — the oracle.
fn oracle(programs: &[HluProgram]) -> ClausalDatabase {
    let mut db = ClausalDatabase::new();
    for p in programs {
        db.run(p);
    }
    db
}

/// Asserts the recovered database is bit-identical to the in-memory
/// oracle over `programs`: same clause set, same counters, same history,
/// same vocabulary.
fn assert_identical(recovered: &DurableDatabase, programs: &[HluProgram]) {
    let reference = oracle(programs);
    assert_eq!(recovered.state(), reference.state(), "clause sets differ");
    assert_eq!(recovered.updates_run(), programs.len());
    assert_eq!(recovered.history(), programs, "histories differ");
    // Auto-named atoms must come back with their default names, at their
    // original dense ids.
    for (id, name) in recovered.atoms().iter() {
        assert_eq!(name, id.default_name(), "atom names differ");
    }
}

/// Writes `programs` durably into `dir`, committing each; returns the
/// WAL length in bytes at close (= the last commit point).
fn write_committed(dir: &TestDir, programs: &[HluProgram]) -> u64 {
    let mut db = ClausalDatabase::open(dir.path()).unwrap();
    for p in programs {
        db.run(p).unwrap();
    }
    db.store_stats().wal_bytes
}

fn wal_path(dir: &TestDir) -> std::path::PathBuf {
    dir.path().join("wal.log")
}

#[test]
fn clean_reopen_recovers_everything() {
    let mut rng = Rng::new(0x5704E);
    for case in 0..fault_cases() {
        let dir = TestDir::new("rec-clean");
        let len = rng.range_usize(1, 12);
        let programs = script(&mut rng, len);
        write_committed(&dir, &programs);
        let db = ClausalDatabase::open(dir.path()).unwrap();
        assert_identical(&db, &programs);
        assert_eq!(db.recovery_report().truncated_bytes, 0, "case {case}");
    }
}

/// Kill-point: mid-record. A torn tail at every possible byte offset of
/// the last record must recover exactly the committed prefix.
#[test]
fn torn_mid_record_recovers_the_prefix() {
    let mut rng = Rng::new(0x7EA7);
    let dir = TestDir::new("rec-torn");
    let programs = script(&mut rng, 6);
    let committed = write_committed(&dir, &programs[..5]);

    // Hand-craft the unacked suffix: the encoded record of one more
    // statement, torn at every cut point.
    let atoms = AtomTable::with_indexed_atoms(N_ATOMS);
    let text = programs[5].display(&atoms).to_string();
    let encoded = Record::Stmt(text).encode();
    for cut in 1..encoded.len() {
        fault::truncate_file(&wal_path(&dir), committed).unwrap();
        fault::append_raw(&wal_path(&dir), &encoded[..cut]).unwrap();
        let db = ClausalDatabase::open(dir.path()).unwrap();
        assert_identical(&db, &programs[..5]);
        assert_eq!(db.recovery_report().truncated_bytes, cut as u64);
        // Recovery physically truncated the torn tail.
        let len = std::fs::metadata(wal_path(&dir)).unwrap().len();
        assert_eq!(len, committed, "cut {cut}");
    }
}

/// Kill-point: post-record, pre-fsync-acknowledgement. A record that is
/// intact on disk but was never acknowledged IS replayed — legitimate
/// WAL semantics; the comparison uses what recovery claims.
#[test]
fn intact_unacked_record_is_replayed() {
    let mut rng = Rng::new(0xACED);
    let dir = TestDir::new("rec-unacked");
    let mut programs = vec![clear_all()];
    programs.extend(script(&mut rng, 4));
    write_committed(&dir, &programs[..4]);

    let atoms = AtomTable::with_indexed_atoms(N_ATOMS);
    let text = programs[4].display(&atoms).to_string();
    fault::append_raw(&wal_path(&dir), &Record::Stmt(text).encode()).unwrap();

    let db = ClausalDatabase::open(dir.path()).unwrap();
    assert_identical(&db, &programs); // all 5, including the unacked one
    assert_eq!(db.recovery_report().truncated_bytes, 0);
}

/// Kill-point: bit rot in the unacked tail. The checksum catches the
/// flip and recovery falls back to the committed prefix.
#[test]
fn bit_flip_in_unacked_tail_is_detected() {
    let mut rng = Rng::new(0xB17F);
    for case in 0..fault_cases() {
        let dir = TestDir::new("rec-flip");
        let mut programs = vec![clear_all()];
        let len = rng.range_usize(2, 8);
        programs.extend(script(&mut rng, len));
        let n = programs.len();
        let committed = write_committed(&dir, &programs[..n - 1]);

        let atoms = AtomTable::with_indexed_atoms(N_ATOMS);
        let text = programs[n - 1].display(&atoms).to_string();
        fault::append_raw(&wal_path(&dir), &Record::Stmt(text).encode()).unwrap();
        let (offset, bit) =
            fault::flip_random_bit_after(&wal_path(&dir), committed, &mut rng).unwrap();

        let db = ClausalDatabase::open(dir.path()).unwrap();
        assert_identical(&db, &programs[..n - 1]);
        assert!(
            db.recovery_report().truncated_bytes > 0,
            "case {case}: flip at ({offset},{bit}) went undetected"
        );
    }
}

/// Kill-point: mid-snapshot. A corrupt newest snapshot is skipped;
/// recovery falls back to an older snapshot or to full log replay, and
/// the result is identical either way.
#[test]
fn corrupt_snapshot_falls_back() {
    let mut rng = Rng::new(0x54AB);
    let dir = TestDir::new("rec-snap");
    let programs = script(&mut rng, 8);
    {
        let mut db = ClausalDatabase::open(dir.path()).unwrap();
        for p in &programs[..3] {
            db.run(p).unwrap();
        }
        db.checkpoint().unwrap(); // older, intact snapshot
        for p in &programs[3..] {
            db.run(p).unwrap();
        }
        let (newest, _) = db.checkpoint().unwrap();
        // Corrupt the newest snapshot body.
        fault::flip_random_bit_after(&newest, 16, &mut rng).unwrap();
    }
    {
        let db = ClausalDatabase::open(dir.path()).unwrap();
        assert_identical(&db, &programs);
        let r = db.recovery_report();
        assert_eq!(r.snapshots_skipped, 1);
        assert_eq!((r.from_snapshot, r.replayed), (3, 5)); // older snapshot won
    }
    // Corrupt the older snapshot too: full replay from an empty state.
    for entry in std::fs::read_dir(dir.path()).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "pwdb") {
            fault::flip_random_bit_after(&path, 16, &mut rng).unwrap();
        }
    }
    let db = ClausalDatabase::open(dir.path()).unwrap();
    assert_identical(&db, &programs);
    let r = db.recovery_report();
    assert_eq!(r.snapshots_skipped, 2);
    assert_eq!((r.from_snapshot, r.replayed), (0, 8));
}

/// A snapshot left behind as a `.tmp-` file (crash mid-checkpoint,
/// before the atomic rename) is invisible to recovery.
#[test]
fn leftover_tmp_snapshot_is_ignored() {
    let mut rng = Rng::new(0x73A9);
    let dir = TestDir::new("rec-tmp");
    let programs = script(&mut rng, 4);
    write_committed(&dir, &programs);
    std::fs::write(
        dir.path().join("tmp-snap-0000000000000099.pwdb"),
        b"half-written garbage",
    )
    .unwrap();
    std::fs::write(dir.path().join(".tmp-snap"), b"more garbage").unwrap();
    let db = ClausalDatabase::open(dir.path()).unwrap();
    assert_identical(&db, &programs);
    assert_eq!(db.recovery_report().snapshots_skipped, 0);
}

/// Kill-point: stale snapshot + long log suffix. Replay picks up exactly
/// where the snapshot's coverage ends.
#[test]
fn stale_snapshot_with_long_log() {
    let mut rng = Rng::new(0x57A1E);
    let dir = TestDir::new("rec-stale");
    let programs = script(&mut rng, 20);
    {
        let mut db = ClausalDatabase::open(dir.path()).unwrap();
        for p in &programs[..2] {
            db.run(p).unwrap();
        }
        db.checkpoint().unwrap();
        for p in &programs[2..] {
            db.run(p).unwrap();
        }
    }
    let db = ClausalDatabase::open(dir.path()).unwrap();
    assert_identical(&db, &programs);
    let r = db.recovery_report();
    assert_eq!((r.from_snapshot, r.replayed), (2, 18));
}

/// Named atoms (not the default `A<i>` vocabulary) survive the round
/// trip: ids are reassigned by replaying `A` records in file order.
#[test]
fn named_atoms_round_trip() {
    let dir = TestDir::new("rec-names");
    {
        let mut db = ClausalDatabase::open(dir.path()).unwrap();
        for text in [
            "(insert {rain | snow})",
            "(where {snow} (insert {plows'}) (delete {de_ice}))",
        ] {
            let prog = pwdb::hlu::parse_hlu(text, db.atoms_mut()).unwrap();
            db.run(&prog).unwrap();
        }
        db.checkpoint().unwrap();
        let prog = pwdb::hlu::parse_hlu("(assert {!rain})", db.atoms_mut()).unwrap();
        db.run(&prog).unwrap();
    }
    let mut db = ClausalDatabase::open(dir.path()).unwrap();
    let names: Vec<String> = db.atoms().iter().map(|(_, n)| n.to_owned()).collect();
    assert_eq!(names, ["rain", "snow", "plows'", "de_ice"]);
    assert_eq!(db.updates_run(), 3);
    let q = pwdb::logic::parse_wff("snow -> plows'", db.atoms_mut()).unwrap();
    assert!(db.is_certain(&q));
}

/// The seeded matrix: random scripts, random kill points (tear or bit
/// flip at a random offset beyond a random commit point). Recovery must
/// land on a *record-aligned prefix* of the written statements, and be
/// bit-identical to the oracle over that prefix.
#[test]
fn seeded_crash_matrix() {
    let mut rng = Rng::new(0xC4A5);
    for case in 0..fault_cases() {
        let dir = TestDir::new("rec-matrix");
        let len = rng.range_usize(3, 14);
        let programs = script(&mut rng, len);

        // Record the WAL length after every commit — the legal recovery
        // points.
        let mut commit_points = Vec::with_capacity(programs.len());
        {
            let mut db = ClausalDatabase::open(dir.path()).unwrap();
            for p in &programs {
                db.run(p).unwrap();
                commit_points.push(db.store_stats().wal_bytes);
            }
        }

        // Inject one fault somewhere beyond a random non-final commit
        // point (past the last one there is nothing to damage).
        let k = rng.index(commit_points.len() - 1);
        let from = commit_points[k];
        let flipped = if rng.coin() {
            fault::tear_randomly_after(&wal_path(&dir), from, &mut rng).unwrap();
            false
        } else {
            fault::flip_random_bit_after(&wal_path(&dir), from, &mut rng).unwrap();
            true
        };

        let db = ClausalDatabase::open(dir.path()).unwrap();
        // Recovery claims some prefix; it must be at least the statements
        // committed before the fault region, and a true prefix of the
        // script.
        let recovered = db.updates_run();
        assert!(
            recovered > k && recovered <= programs.len(),
            "case {case}: recovered {recovered} not in [{}, {}] (flip={flipped})",
            k + 1,
            programs.len()
        );
        assert_identical(&db, &programs[..recovered]);

        // And the truncated log must survive a second clean reopen.
        drop(db);
        let db = ClausalDatabase::open(dir.path()).unwrap();
        assert_eq!(db.updates_run(), recovered);
        assert_eq!(db.recovery_report().truncated_bytes, 0, "case {case}");
    }
}

/// Durability composes with checkpoints under the matrix: a snapshot
/// mid-script plus a torn tail still recovers a record-aligned prefix
/// at least as long as the snapshot's coverage.
#[test]
fn seeded_crash_matrix_with_checkpoints() {
    let mut rng = Rng::new(0xC4A6);
    for case in 0..fault_cases() {
        let dir = TestDir::new("rec-matrix-ckpt");
        let len = rng.range_usize(4, 12);
        let programs = script(&mut rng, len);
        let ckpt_after = rng.range_usize(1, programs.len());

        let mut commit_points = Vec::with_capacity(programs.len());
        {
            let mut db = ClausalDatabase::open(dir.path()).unwrap();
            for (i, p) in programs.iter().enumerate() {
                db.run(p).unwrap();
                if i + 1 == ckpt_after {
                    db.checkpoint().unwrap();
                }
                commit_points.push(db.store_stats().wal_bytes);
            }
        }

        // Tear beyond a non-final commit point at or after the checkpoint
        // (faults before the snapshot's coverage are a different failure
        // class — media corruption of acknowledged data, not a crash).
        let k = rng.range_usize(ckpt_after - 1, commit_points.len() - 1);
        assert!(k + 1 < commit_points.len());
        fault::tear_randomly_after(&wal_path(&dir), commit_points[k], &mut rng).unwrap();

        let db = ClausalDatabase::open(dir.path()).unwrap();
        let recovered = db.updates_run();
        assert!(
            recovered > k && recovered <= programs.len(),
            "case {case}: recovered {recovered} not in [{}, {}]",
            k + 1,
            programs.len()
        );
        assert_identical(&db, &programs[..recovered]);
        assert!(db.recovery_report().from_snapshot <= recovered);
    }
}
