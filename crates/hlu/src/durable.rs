//! Durable clausal databases: WAL-backed apply, checkpoints, recovery.
//!
//! [`DurableDatabase`] wraps a [`ClausalDatabase`] and a
//! [`pwdb_store::Store`] so that every committed statement is durable
//! before the call returns. Every write, governed or not, computes the
//! next state first, logs the statement second and installs the state
//! last, so memory never runs ahead of the log:
//!
//! ```text
//! run(P):   next := P(state)      (governed: also checked; a failed
//!                                  run returns here and the WAL never
//!                                  sees P)
//!           intern-events → WAL   (new atom names, in id order)
//!           text(P)       → WAL   (canonical HLU syntax)
//!           fsync                 ← the commit point (a failure returns
//!                                  here, with memory untouched)
//!           state := next
//! ```
//!
//! Because HLU statements are morphisms on clausal instances (§1.4), the
//! database is a deterministic state machine over the statement log:
//! [`ClausalDatabase::open`] rebuilds the exact state by loading the
//! newest valid snapshot and re-running the log suffix. Atom ids are kept
//! stable across restarts by logging *interning events* (`A` records) —
//! replaying them in order reassigns every name the dense id it had when
//! first seen, which is what makes the textual statement encoding exact.
//!
//! The recovery invariant — a database killed at any injected fault point
//! recovers to a state **bit-identical** to an in-memory replay of the
//! committed statement prefix — is enforced by the crash-matrix suite in
//! `tests/store_recovery.rs`, using the PR 3 differential-oracle pattern
//! (same inputs through two implementations, `assert_eq!` on the whole
//! observable surface: clause set, update count, history, name table).

use std::collections::BTreeSet;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

use pwdb_logic::{AtomId, AtomTable, ClauseSet, ExecError, Limits, LogicError};
use pwdb_metrics::counter;
use pwdb_store::{Record, RetryPolicy, SnapshotData, Store, StoreError, StoreStats, WriteFaults};

use crate::ast::HluProgram;
use crate::database::{ClausalDatabase, Explanation, GovernedError, Memo};
use crate::parser::{parse_hlu, parse_hlu_statement, HluStatement};

/// Failures of the durable layer.
#[derive(Debug)]
pub enum DurableError {
    /// The underlying filesystem failed.
    Io(io::Error),
    /// A statement failed to parse (user input via
    /// [`DurableDatabase::run_statement_governed`]).
    Parse(LogicError),
    /// The stored data is not self-consistent (a logged statement no
    /// longer parses, an atom name collides, the log lost statements the
    /// snapshot covers, …).
    Corrupt(String),
    /// The update was rejected by the §1.3.3 consistency check and was
    /// not logged.
    Rejected,
    /// The execution governor aborted the statement (budget exhausted or
    /// engine panic); nothing was logged and nothing was installed.
    Exec(ExecError),
    /// The store is in degraded read-only mode after persistent write
    /// failures: queries are still answered, updates are refused.
    ReadOnly { reason: String },
    /// [`DurableDatabase::open_with`] was handed a database that has
    /// already run updates: its state is not derivable from the log
    /// alone, so recovery would replay into a different state.
    NotFresh { updates_run: usize },
}

impl fmt::Display for DurableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurableError::Io(e) => write!(f, "storage I/O error: {e}"),
            DurableError::Parse(e) => write!(f, "{e}"),
            DurableError::Corrupt(m) => write!(f, "store corrupt: {m}"),
            DurableError::Rejected => GovernedError::Rejected.fmt(f),
            DurableError::Exec(e) => e.fmt(f),
            DurableError::ReadOnly { reason } => {
                write!(f, "store is read-only (degraded): {reason}")
            }
            DurableError::NotFresh { updates_run } => write!(
                f,
                "open_with requires a fresh database, but {updates_run} update(s) \
                 have already run (its state must be derivable from the log alone)"
            ),
        }
    }
}

impl std::error::Error for DurableError {}

impl From<io::Error> for DurableError {
    fn from(e: io::Error) -> Self {
        DurableError::Io(e)
    }
}

impl From<LogicError> for DurableError {
    fn from(e: LogicError) -> Self {
        DurableError::Parse(e)
    }
}

impl From<GovernedError> for DurableError {
    fn from(e: GovernedError) -> Self {
        match e {
            GovernedError::Exec(e) => DurableError::Exec(e),
            GovernedError::Rejected => DurableError::Rejected,
        }
    }
}

impl From<StoreError> for DurableError {
    fn from(e: StoreError) -> Self {
        match e {
            StoreError::Io(e) => DurableError::Io(e),
            StoreError::ReadOnly { reason } => DurableError::ReadOnly { reason },
        }
    }
}

/// What [`ClausalDatabase::open`] found and did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Statements replayed from the log suffix.
    pub replayed: usize,
    /// Statements restored to the history without replay (covered by the
    /// snapshot).
    pub from_snapshot: usize,
    /// Bytes of torn or corrupt log tail that were truncated.
    pub truncated_bytes: u64,
    /// Corrupt snapshot files skipped before one validated.
    pub snapshots_skipped: u64,
}

/// A clausal database whose every committed statement is durable.
///
/// Read access goes through `Deref<Target = ClausalDatabase>` (queries,
/// `state()`, `history()`); updates must go through the durable methods
/// here, which log every statement they apply. There is deliberately no
/// `DerefMut` — a mutable escape hatch would let statements bypass the
/// log.
#[derive(Debug)]
pub struct DurableDatabase {
    db: ClausalDatabase,
    atoms: AtomTable,
    store: Store,
    /// Atoms already made durable as WAL `A` records; ids at or beyond
    /// this are logged before the next statement commits.
    persisted_atoms: usize,
    recovery: RecoveryReport,
}

impl ClausalDatabase {
    /// Opens (creating if needed) a durable database in `dir`, running
    /// crash recovery: newest valid snapshot + replay of the log suffix,
    /// with torn tails truncated. Uses the paper-exact algebra; see
    /// [`DurableDatabase::open_with`] to open with a configured backend.
    pub fn open(dir: &Path) -> Result<DurableDatabase, DurableError> {
        DurableDatabase::open_with(ClausalDatabase::new(), dir)
    }
}

impl DurableDatabase {
    /// Opens `dir` with an explicitly configured (but fresh — zero
    /// updates run) database, e.g. `ClausalDatabase::new_reduced()`. The
    /// configuration must match the one that wrote the directory:
    /// recovery replays statements through *this* backend, and the algebra
    /// (reduced vs paper-exact) is part of the state machine. A database
    /// that has already run updates is refused with
    /// [`DurableError::NotFresh`], and a log that lost statements the
    /// newest snapshot covers with [`DurableError::Corrupt`].
    pub fn open_with(db: ClausalDatabase, dir: &Path) -> Result<DurableDatabase, DurableError> {
        if db.updates_run() > 0 {
            return Err(DurableError::NotFresh {
                updates_run: db.updates_run(),
            });
        }
        let _sp = pwdb_trace::span!("store.recover");
        let (store, recovery) = Store::open(dir)?;

        let mut atoms = AtomTable::new();
        for name in &recovery.atom_names {
            let id = atoms.intern(name);
            if id.index() + 1 != atoms.len() {
                return Err(DurableError::Corrupt(format!(
                    "duplicate atom record '{name}'"
                )));
            }
        }

        let mut db = db;
        let mut report = RecoveryReport {
            replayed: 0,
            from_snapshot: recovery.replay_from,
            truncated_bytes: recovery.truncated_bytes,
            snapshots_skipped: recovery.snapshots_skipped,
        };
        if let Some(snap) = &recovery.snapshot {
            // The snapshot plus the log suffix must derive the state: a log
            // that lost statements the snapshot covers cannot be replayed
            // onto it, and new records would land below its coverage.
            if (recovery.replay_from as u64) < snap.updates_run {
                return Err(DurableError::Corrupt(format!(
                    "snapshot covers {} statement(s) but the log holds only {} before its coverage",
                    snap.updates_run, recovery.replay_from
                )));
            }
            db.set_state(snap.clauses.clone());
        }

        // Parse the full statement log (history), replay only the suffix.
        let mut prefix_history = Vec::with_capacity(recovery.replay_from);
        let mut suffix = Vec::new();
        for (i, text) in recovery.statements.iter().enumerate() {
            let prog = parse_hlu(text, &mut atoms).map_err(|e| {
                DurableError::Corrupt(format!("logged statement {i} no longer parses: {e}"))
            })?;
            if i < recovery.replay_from {
                prefix_history.push(prog);
            } else {
                suffix.push(prog);
            }
        }
        let baked = prefix_history.len();
        db.restore_history(prefix_history, baked);
        {
            let _sp = pwdb_trace::span!("store.recover.replay");
            for prog in &suffix {
                db.run(prog);
                counter!("store.recover.replayed").inc();
                report.replayed += 1;
            }
        }

        let persisted_atoms = atoms.len();
        Ok(DurableDatabase {
            db,
            atoms,
            store,
            persisted_atoms,
            recovery: report,
        })
    }

    /// What recovery found and did when this database was opened.
    pub fn recovery_report(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// The wrapped in-memory database (read-only).
    pub fn db(&self) -> &ClausalDatabase {
        &self.db
    }

    /// The persistent name table (read-only).
    pub fn atoms(&self) -> &AtomTable {
        &self.atoms
    }

    /// Mutable access to the name table for *parsing*: new names interned
    /// here become durable (as WAL `A` records) the next time a statement
    /// commits or a checkpoint is taken. A name the log refuses (one
    /// outside `[A-Za-z_][A-Za-z0-9_']*`, or over the record size cap) is
    /// dropped from the table by the commit that refuses it, together
    /// with every name interned after it: ids are dense, so the later
    /// atoms cannot be logged without it. Ids handed out for the dropped
    /// names are then stale.
    pub fn atoms_mut(&mut self) -> &mut AtomTable {
        &mut self.atoms
    }

    /// Durability statistics (log records/bytes, newest snapshot).
    pub fn store_stats(&self) -> StoreStats {
        self.store.stats()
    }

    /// Installs a plan of injected write faults on the underlying store
    /// (steady-state fault-tolerance tests).
    pub fn inject_write_faults(&mut self, faults: WriteFaults) {
        self.store.inject_write_faults(faults);
    }

    /// Configures the store's write-path retry budget.
    pub fn set_retry_policy(&mut self, retry: RetryPolicy) {
        self.store.set_retry_policy(retry);
    }

    /// Whether persistent write faults have driven the store read-only.
    /// Queries keep working; updates return [`DurableError::ReadOnly`].
    pub fn is_degraded(&self) -> bool {
        self.store.is_degraded()
    }

    /// Why the store is degraded, if it is.
    pub fn degraded_reason(&self) -> Option<&str> {
        self.store.degraded_reason()
    }

    /// The storage directory.
    pub fn dir(&self) -> &Path {
        self.store.dir()
    }

    /// Runs `prog` as [`ClausalDatabase::run`] does (ungoverned, installed
    /// even when inconsistent), logging it before the result is installed.
    /// On return the statement is durable: recovery after any crash replays
    /// it. If logging fails (I/O fault, degraded store), the error surfaces
    /// and memory is untouched — memory never runs ahead of the log.
    pub fn run(&mut self, prog: &HluProgram) -> Result<(), DurableError> {
        self.commit(prog, |db| Ok((db.next_state(prog), None)))
    }

    /// Runs one statement under resource `limits`, durably, with the checks
    /// of [`crate::database::Database::run_governed`]: on budget
    /// exhaustion, engine panic, or the §1.3.3 rejection nothing is
    /// installed and the WAL **never sees the failed statement**. Only a
    /// result that passed is logged, and only a logged one is installed.
    pub fn run_governed(&mut self, prog: &HluProgram, limits: &Limits) -> Result<(), DurableError> {
        self.commit(prog, |db| {
            let (next, memo) = db.checked_next_state(prog, limits)?;
            Ok((next, Some(memo)))
        })
    }

    /// Parses and runs one shell-level statement under `limits`. An
    /// `EXPLAIN` wrapper returns the trace of the whole durable commit,
    /// with its outcome recorded, alongside the governed result.
    pub fn run_statement_governed(
        &mut self,
        text: &str,
        limits: &Limits,
    ) -> (Option<Explanation>, Result<(), DurableError>) {
        match parse_hlu_statement(text, &mut self.atoms) {
            Ok(HluStatement::Run(prog)) => (None, self.run_governed(&prog, limits)),
            Ok(HluStatement::Explain(prog)) => {
                let (exp, result) =
                    Explanation::capture(&prog, || self.run_governed(&prog, limits));
                (Some(exp.with_outcome(&result)), result)
            }
            Err(e) => (None, Err(DurableError::from(e))),
        }
    }

    /// The one durable write path: compute the next state (with the memo
    /// its check proved, when it was checked), log `prog`, then install the
    /// state. A failure at either of the first two steps returns before
    /// anything is assigned.
    fn commit(
        &mut self,
        prog: &HluProgram,
        next_state: impl FnOnce(&ClausalDatabase) -> Result<(ClauseSet, Option<Memo>), DurableError>,
    ) -> Result<(), DurableError> {
        let (next, memo) = next_state(&self.db)?;
        self.log_statement(prog)?;
        self.db.install(prog, next, memo);
        Ok(())
    }

    /// Writes a snapshot of the current state, atomically and durably.
    /// The log is kept whole, so older snapshots remain valid fallbacks;
    /// recovery always picks the newest snapshot that validates. Returns
    /// the snapshot path and its size in bytes.
    pub fn checkpoint(&mut self) -> Result<(PathBuf, u64), DurableError> {
        // Atoms interned since the last commit (e.g. by queries) must hit
        // the log first: the WAL is the single source of truth for the
        // name table, under any snapshot ∘ suffix combination. They are
        // committed *before* the snapshot write so that a snapshot failure
        // cannot strand the atom watermark ahead of the log.
        let watermark = self.persisted_atoms;
        if let Err(e) = self
            .log_new_atoms()
            .and_then(|()| self.store.commit().map_err(DurableError::from))
        {
            self.persisted_atoms = watermark;
            let _ = self.store.discard_pending();
            return Err(e);
        }
        let data = SnapshotData {
            wal_records: self.store.records(),
            updates_run: self.db.updates_run() as u64,
            clauses: self.db.state().clone(),
        };
        Ok(self.store.checkpoint(&data)?)
    }

    /// Appends `A` records for atoms not yet durable, validating that
    /// their names survive the textual round trip. The records are only
    /// *buffered*; `persisted_atoms` advances optimistically and the
    /// caller must restore it if the enclosing commit fails (the store
    /// discards pending records on failure, so the atoms were never made
    /// durable). A refused record drops its atom and every later one from
    /// the table (see [`DurableDatabase::atoms_mut`]); otherwise every
    /// later commit would retry the record and fail.
    fn log_new_atoms(&mut self) -> Result<(), DurableError> {
        for i in self.persisted_atoms..self.atoms.len() {
            let name = self
                .atoms
                .name(AtomId(i as u32))
                .expect("dense ids")
                .to_owned();
            let refused = if !is_parseable_name(&name) {
                DurableError::Corrupt(format!(
                    "atom name {name:?} cannot be stored: the WAL's textual \
                     statement encoding requires [A-Za-z_][A-Za-z0-9_']*"
                ))
            } else {
                match self.store.append(&Record::Atom(name)) {
                    Ok(()) => continue,
                    Err(e @ StoreError::ReadOnly { .. }) => return Err(e.into()),
                    // The only other refusal: a name over the record cap.
                    Err(e) => e.into(),
                }
            };
            self.atoms.truncate(i);
            return Err(refused);
        }
        self.persisted_atoms = self.atoms.len();
        Ok(())
    }

    /// WAL append + fsync for one statement whose next state is computed
    /// but not yet installed (the middle step of
    /// [`DurableDatabase::commit`]). On failure the store has discarded
    /// everything buffered, so the atom watermark is rolled back with it:
    /// nothing of the failed statement — neither its `A` records nor its
    /// `S` record — is in the log.
    fn log_statement(&mut self, prog: &HluProgram) -> Result<(), DurableError> {
        let _sp = pwdb_trace::span!("store.durable.commit");
        let atoms_watermark = self.persisted_atoms;
        self.ensure_named(prog)?;
        let result = (|| -> Result<(), DurableError> {
            self.log_new_atoms()?;
            let text = prog.display(&self.atoms).to_string();
            self.store.append(&Record::Stmt(text))?;
            self.store.commit()?;
            Ok(())
        })();
        if result.is_err() {
            self.persisted_atoms = atoms_watermark;
            // Records buffered before the failure (e.g. `A` records ahead
            // of a refused name, or everything when the commit itself
            // failed) must not leak into a later statement's commit.
            let _ = self.store.discard_pending();
        }
        result
    }

    /// Guarantees every atom `prog` references has a name, extending the
    /// table with the paper's default `A<i+1>` names for ids created
    /// programmatically (e.g. `Wff::atom(7)` against an empty table).
    fn ensure_named(&mut self, prog: &HluProgram) -> Result<(), DurableError> {
        let referenced = referenced_atoms(prog);
        let Some(max) = referenced.iter().last().copied() else {
            return Ok(());
        };
        for i in self.atoms.len()..=max.index() {
            let name = AtomId(i as u32).default_name();
            let id = self.atoms.intern(&name);
            if id.index() != i {
                return Err(DurableError::Corrupt(format!(
                    "cannot auto-name atom id {i}: '{name}' already names \
                     atom id {}",
                    id.index()
                )));
            }
        }
        Ok(())
    }
}

impl std::ops::Deref for DurableDatabase {
    type Target = ClausalDatabase;

    fn deref(&self) -> &ClausalDatabase {
        &self.db
    }
}

/// Whether `name` lexes as a single atom name in the wff/HLU grammars
/// (so `display → parse` reproduces it exactly).
fn is_parseable_name(name: &str) -> bool {
    !name.is_empty() && pwdb_logic::atom_name_len(name.as_bytes()) == name.len()
}

/// All atoms a program mentions (parameters of both sorts).
fn referenced_atoms(prog: &HluProgram) -> BTreeSet<AtomId> {
    fn collect(prog: &HluProgram, out: &mut BTreeSet<AtomId>) {
        match prog {
            HluProgram::Identity => {}
            HluProgram::Assert(w) | HluProgram::Insert(w) | HluProgram::Delete(w) => {
                out.extend(w.props());
            }
            HluProgram::Modify(w, v) => {
                out.extend(w.props());
                out.extend(v.props());
            }
            HluProgram::Clear(mask) => out.extend(mask.iter().copied()),
            HluProgram::Where(w, p, q) => {
                out.extend(w.props());
                collect(p.as_ref(), out);
                collect(q.as_ref(), out);
            }
        }
    }
    let mut out = BTreeSet::new();
    collect(prog, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwdb_logic::parse_wff;
    use pwdb_store::TestDir;

    fn run_text(db: &mut DurableDatabase, text: &str) {
        let prog = parse_hlu(text, db.atoms_mut()).unwrap();
        db.run(&prog).unwrap();
    }

    #[test]
    fn open_run_reopen_recovers_state_and_names() {
        let dir = TestDir::new("durable-basic");
        {
            let mut db = ClausalDatabase::open(dir.path()).unwrap();
            run_text(&mut db, "(insert {rain | snow})");
            run_text(&mut db, "(assert {!rain})");
            run_text(&mut db, "(where {snow} (insert {plows}))");
        }
        let mut db = ClausalDatabase::open(dir.path()).unwrap();
        assert_eq!(db.updates_run(), 3);
        assert_eq!(db.history().len(), 3);
        let q = parse_wff("snow & plows", db.atoms_mut()).unwrap();
        assert!(db.is_certain(&q));
        assert_eq!(
            db.atoms()
                .iter()
                .map(|(_, n)| n.to_owned())
                .collect::<Vec<_>>(),
            vec!["rain", "snow", "plows"]
        );
    }

    #[test]
    fn checkpoint_then_more_statements_then_recover() {
        let dir = TestDir::new("durable-ckpt");
        {
            let mut db = ClausalDatabase::open(dir.path()).unwrap();
            run_text(&mut db, "(insert {A1 | A2})");
            let (_, bytes) = db.checkpoint().unwrap();
            assert!(bytes > 0);
            run_text(&mut db, "(delete {A2})");
        }
        let db = ClausalDatabase::open(dir.path()).unwrap();
        assert_eq!(db.updates_run(), 2);
        assert_eq!(db.recovery_report().replayed, 1);
        assert_eq!(db.recovery_report().from_snapshot, 1);
        // Bit-identical to a pure in-memory replay.
        let mut oracle = ClausalDatabase::new();
        let mut t = AtomTable::with_indexed_atoms(2);
        for text in ["(insert {A1 | A2})", "(delete {A2})"] {
            oracle.run(&parse_hlu(text, &mut t).unwrap());
        }
        assert_eq!(db.state(), oracle.state());
        assert_eq!(db.history(), oracle.history());
    }

    #[test]
    fn programmatic_atoms_get_default_names() {
        let dir = TestDir::new("durable-autoname");
        {
            let mut db = ClausalDatabase::open(dir.path()).unwrap();
            // Atom ids 0..=2 used with an empty table.
            db.run(&HluProgram::Insert(
                pwdb_logic::Wff::atom(0).or(pwdb_logic::Wff::atom(2)),
            ))
            .unwrap();
        }
        let db = ClausalDatabase::open(dir.path()).unwrap();
        assert_eq!(db.atoms().name(AtomId(2)), Some("A3"));
        assert_eq!(db.updates_run(), 1);
    }

    #[test]
    fn rejected_updates_never_reach_the_log() {
        let dir = TestDir::new("durable-reject");
        {
            let mut db = DurableDatabase::open_with(
                ClausalDatabase::new().with_constraints(pwdb_logic::Wff::atom(0)),
                dir.path(),
            )
            .unwrap();
            db.atoms_mut().intern("A1");
            let not_a1 = pwdb_logic::Wff::atom(0).not();
            let unlimited = Limits::unlimited();
            let err = db
                .run_governed(&HluProgram::Assert(not_a1), &unlimited)
                .unwrap_err();
            assert!(matches!(err, DurableError::Rejected), "{err:?}");
            assert_eq!(
                err.to_string(),
                "update rejected: no possible world satisfies the constraints"
            );
            assert_eq!(db.store_stats().wal_records, 0);
            db.run_governed(&HluProgram::Insert(pwdb_logic::Wff::atom(1)), &unlimited)
                .unwrap();
        }
        let db = DurableDatabase::open_with(
            ClausalDatabase::new().with_constraints(pwdb_logic::Wff::atom(0)),
            dir.path(),
        )
        .unwrap();
        assert_eq!(db.updates_run(), 1);
        assert!(db.is_consistent());
    }

    #[test]
    fn unstorable_atom_names_are_refused() {
        let oversized = "a".repeat(pwdb_store::frame::MAX_PAYLOAD as usize + 1);
        for (case, bad) in [("badname", "not a name"), ("hugename", &oversized)] {
            let dir = TestDir::new(&format!("durable-{case}"));
            {
                let mut db = ClausalDatabase::open(dir.path()).unwrap();
                db.atoms_mut().intern(bad);
                let err = db
                    .run(&HluProgram::Insert(pwdb_logic::Wff::atom(0)))
                    .unwrap_err();
                match case {
                    "badname" => assert!(matches!(err, DurableError::Corrupt(_)), "{err}"),
                    _ => assert!(matches!(err, DurableError::Io(_)), "{err}"),
                }
                // The refused name is gone, so the store is not wedged.
                run_text(&mut db, "(insert {snow})");
                db.checkpoint().unwrap();
                assert!(!db.is_degraded());
            }
            let mut db = ClausalDatabase::open(dir.path()).unwrap();
            let snow = parse_wff("snow", db.atoms_mut()).unwrap();
            assert!(db.is_certain(&snow), "{case}");
            assert!(db.atoms().iter().all(|(_, n)| n != bad), "{case}");
        }
    }

    #[test]
    fn explain_is_logged_like_run() {
        let dir = TestDir::new("durable-explain");
        {
            let mut db = ClausalDatabase::open(dir.path()).unwrap();
            let (explanation, result) =
                db.run_statement_governed("EXPLAIN (insert {A1})", &Limits::unlimited());
            result.unwrap();
            assert_eq!(explanation.unwrap().outcome.as_deref(), Some("committed"));
        }
        let db = ClausalDatabase::open(dir.path()).unwrap();
        assert_eq!(db.updates_run(), 1);
    }

    #[test]
    fn open_with_refuses_a_database_that_already_ran_updates() {
        let dir = TestDir::new("durable-not-fresh");
        let mut used = ClausalDatabase::new();
        used.insert(pwdb_logic::Wff::atom(0));
        let err = DurableDatabase::open_with(used, dir.path()).unwrap_err();
        assert!(
            matches!(err, DurableError::NotFresh { updates_run: 1 }),
            "{err:?}"
        );
        assert!(err.to_string().contains("1 update(s)"), "{err}");
        // Constraints alone do not count as updates.
        let constrained = ClausalDatabase::new().with_constraints(pwdb_logic::Wff::atom(0));
        DurableDatabase::open_with(constrained, dir.path()).unwrap();
    }
}
