//! `pwdb-store`: durable storage for the clausal update engine.
//!
//! Hegner's update semantics makes the database a *deterministic state
//! machine*: every HLU statement is a morphism on the space of clausal
//! instances (§1.4), so the state is fully reconstructible by replaying
//! the statement sequence — the observation behind logical replay in
//! database abstract state machines. This crate persists exactly that:
//!
//! * a **write-ahead log** ([`wal`]) of serialized statements and
//!   atom-interning events, with per-record length + CRC-32 framing
//!   ([`frame`]) and explicit fsync commit points;
//! * **snapshots** ([`snapshot`]) of the interned clausal state — a
//!   binary image (two counters, then each clause's literal codes) in the
//!   same CRC frame — written with atomic rename-into-place so a crash
//!   never exposes a torn file;
//! * a **recovery path** ([`Store::open`]) that loads the newest valid
//!   snapshot, hands back the log suffix for replay, and truncates torn
//!   tails;
//! * a **fault-injection toolkit** ([`fault`]) of deterministic,
//!   SplitMix64-seeded torn writes, truncations, and bit flips for the
//!   crash-matrix tests.
//!
//! The crate is std-only (the build environment has no route to
//! crates.io) and knows nothing about HLU syntax: statements cross the
//! boundary as opaque text. `pwdb-hlu`'s `DurableDatabase` supplies the
//! statement codec and drives replay; see its module docs for the
//! write path (`WAL append → fsync → apply`) and the recovery invariant
//! (recovered state is bit-identical to an in-memory replay of the
//! committed prefix, checked by `tests/store_recovery.rs`).

// Storage code runs on user data and real I/O: failures must surface as
// typed errors, never panics. `unwrap` is reserved for internal
// invariants with an explanatory `expect`/allow.
#![warn(clippy::unwrap_used)]

pub mod fault;
pub mod frame;
pub mod snapshot;
pub mod testdir;
pub mod wal;

use std::path::{Path, PathBuf};
use std::time::Duration;

use pwdb_metrics::counter;

pub use fault::{WriteFaultKind, WriteFaults};
pub use snapshot::SnapshotData;
pub use testdir::TestDir;
pub use wal::{Record, WalScan};

/// Failures of the durability layer, as callers see them.
#[derive(Debug)]
pub enum StoreError {
    /// An I/O operation failed (after exhausting the retry budget, for
    /// write-path operations).
    Io(std::io::Error),
    /// The store is in degraded read-only mode: persistent write faults
    /// exhausted the retry budget, so updates are refused while reads
    /// (which never touch the store) continue to be served.
    ReadOnly {
        /// What drove the store read-only, for operators.
        reason: String,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "storage I/O error: {e}"),
            StoreError::ReadOnly { reason } => {
                write!(f, "store is read-only (degraded): {reason}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// How hard the write path tries before declaring an outage: up to
/// `attempts` retries after the first failure, sleeping `backoff`
/// (doubling each retry) in between. Retries are the right reaction to
/// transient faults (momentary EIO, a disk-full race with a cleaner);
/// once the budget is exhausted the store enters degraded read-only mode
/// rather than failing every future statement slowly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the initial attempt (0 = fail fast).
    pub attempts: u32,
    /// Sleep before the first retry; doubles per subsequent retry.
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 3,
            backoff: Duration::from_millis(1),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries and never sleeps (tests).
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            attempts: 0,
            backoff: Duration::ZERO,
        }
    }
}

/// What [`Store::open`] reconstructed from a directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recovery {
    /// The newest snapshot that validated, if any.
    pub snapshot: Option<SnapshotData>,
    /// Every atom name the valid log prefix interned, in id order
    /// (position `i` is `AtomId(i)`). The WAL — not the snapshot — is the
    /// single source of truth for the name table.
    pub atom_names: Vec<String>,
    /// Every statement of the valid log prefix, in order.
    pub statements: Vec<String>,
    /// Index into `statements` where replay must begin: statements before
    /// it are already reflected in `snapshot` (history only), statements
    /// from it on must be re-applied.
    pub replay_from: usize,
    /// Bytes of torn or corrupt tail that were cut from the log.
    pub truncated_bytes: u64,
    /// Snapshot files skipped as corrupt before one validated.
    pub snapshots_skipped: u64,
}

/// Point-in-time durability statistics (the shell's `:wal` command).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreStats {
    /// Records in the log (atom + statement records).
    pub wal_records: u64,
    /// Bytes in the log, counting buffered appends.
    pub wal_bytes: u64,
    /// Records covered by the newest snapshot written or recovered from,
    /// if any.
    pub snapshot_records: Option<u64>,
    /// Byte size of that snapshot.
    pub snapshot_bytes: Option<u64>,
}

/// A durable storage directory: `wal.log` plus `snap-*.pwdb` files.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    wal: wal::Wal,
    last_snapshot: Option<(u64, u64)>, // (records covered, bytes)
    faults: WriteFaults,
    retry: RetryPolicy,
    degraded: Option<String>,
}

impl Store {
    /// Opens (creating if needed) the storage directory and runs
    /// recovery: scan the log, cut any invalid tail, load the newest
    /// valid snapshot, and compute the replay suffix. The returned
    /// [`Store`] is positioned to append after the valid prefix.
    pub fn open(dir: &Path) -> std::io::Result<(Store, Recovery)> {
        let _sp = pwdb_trace::span!("store.recover");
        std::fs::create_dir_all(dir)?;
        let wal_path = dir.join("wal.log");

        let scan = wal::scan(&wal_path)?;
        let truncated_bytes = scan.total_bytes - scan.valid_bytes;
        counter!("store.recover.truncated_bytes").add(truncated_bytes);

        let latest = snapshot::load_latest(dir)?;
        let snapshot_records = latest.data.as_ref().map(|s| s.wal_records);

        let mut atom_names = Vec::new();
        let mut statements = Vec::new();
        let mut replay_from = 0usize;
        for (i, record) in scan.records.iter().enumerate() {
            match record {
                Record::Atom(name) => atom_names.push(name.clone()),
                Record::Stmt(text) => {
                    // Statements at record indices the snapshot already
                    // covers are history only; later ones get replayed.
                    if (i as u64) < snapshot_records.unwrap_or(0) {
                        replay_from = statements.len() + 1;
                    }
                    statements.push(text.clone());
                }
            }
        }

        let wal = wal::Wal::open(&wal_path, scan.valid_bytes, scan.records.len() as u64)?;
        let store = Store {
            dir: dir.to_owned(),
            wal,
            last_snapshot: snapshot_records.map(|records| (records, latest.bytes)),
            faults: WriteFaults::none(),
            retry: RetryPolicy::default(),
            degraded: None,
        };
        let recovery = Recovery {
            snapshot: latest.data,
            atom_names,
            statements,
            replay_from,
            truncated_bytes,
            snapshots_skipped: latest.skipped,
        };
        Ok((store, recovery))
    }

    /// The storage directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Total records in the log (committed prefix + this session).
    pub fn records(&self) -> u64 {
        self.wal.records()
    }

    /// Installs a plan of injected write faults (tests). The plan is
    /// consulted once per physical durability attempt, retries included.
    pub fn inject_write_faults(&mut self, faults: WriteFaults) {
        self.faults = faults;
    }

    /// Configures the write-path retry budget.
    pub fn set_retry_policy(&mut self, retry: RetryPolicy) {
        self.retry = retry;
    }

    /// Whether persistent write faults have driven the store read-only.
    pub fn is_degraded(&self) -> bool {
        self.degraded.is_some()
    }

    /// Why the store is degraded, if it is.
    pub fn degraded_reason(&self) -> Option<&str> {
        self.degraded.as_deref()
    }

    /// The refusal every write-path entry returns while degraded.
    fn read_only_error(&self) -> StoreError {
        StoreError::ReadOnly {
            reason: self
                .degraded
                .clone()
                .unwrap_or_else(|| "unknown".to_owned()),
        }
    }

    /// Buffers a record; not durable until [`Store::commit`]. Refused in
    /// degraded mode.
    pub fn append(&mut self, record: &Record) -> Result<(), StoreError> {
        if self.degraded.is_some() {
            return Err(self.read_only_error());
        }
        self.wal.append(record)?;
        Ok(())
    }

    /// Writes and fsyncs buffered log records — the commit point.
    ///
    /// A failed attempt is retried per the [`RetryPolicy`] (with the WAL
    /// self-healing any torn bytes a short write left). When the budget
    /// is exhausted the store **degrades**: pending records are discarded
    /// (the caller abandons the statement), the on-disk log is
    /// restored to exactly the committed prefix, and every future write
    /// returns [`StoreError::ReadOnly`] while reads continue unharmed.
    pub fn commit(&mut self) -> Result<(), StoreError> {
        if self.degraded.is_some() {
            return Err(self.read_only_error());
        }
        self.retrying(
            "WAL commit",
            counter!("store.wal.retries"),
            |store, fault| store.wal.sync_injected(fault),
        )
    }

    /// Writes a snapshot of `data` atomically and durably. The log is
    /// *not* truncated: older snapshots plus the full log remain valid
    /// fallback recovery sources. Checkpoint writes run under the same
    /// fault plan, retry budget, and degraded-mode discipline as commits;
    /// a failed checkpoint never corrupts — the snapshot is written to a
    /// temporary file and renamed into place only when complete. A state
    /// too large to frame is refused before any write, without retries
    /// and without degrading the store.
    pub fn checkpoint(&mut self, data: &SnapshotData) -> Result<(PathBuf, u64), StoreError> {
        let _sp = pwdb_trace::span!("store.checkpoint");
        let image = data.encode()?;
        // Anything buffered must be durable before a snapshot may cover it.
        self.commit()?;
        let path = self.retrying(
            "checkpoint",
            counter!("store.snapshot.retries"),
            |store, fault| match fault {
                Some(kind) => Err(kind.to_error()),
                None => snapshot::write_snapshot(&store.dir, data.wal_records, &image),
            },
        )?;
        let bytes = image.len() as u64;
        self.last_snapshot = Some((data.wal_records, bytes));
        Ok((path, bytes))
    }

    /// The write path's retry loop. Runs `op` once per physical attempt,
    /// handing it the fault the plan injects into that attempt (if any),
    /// and retries a failure per the [`RetryPolicy`], counting each retry
    /// on `retries`. When the budget is exhausted the store degrades with
    /// the reason `"{what} failed after {n} retries: {error}"`.
    fn retrying<T>(
        &mut self,
        what: &str,
        retries: &pwdb_metrics::Counter,
        mut op: impl FnMut(&mut Store, Option<WriteFaultKind>) -> std::io::Result<T>,
    ) -> Result<T, StoreError> {
        let mut backoff = self.retry.backoff;
        let mut attempt = 0u32;
        loop {
            let fault = self.faults.next_op();
            match op(self, fault) {
                Ok(value) => return Ok(value),
                Err(_) if attempt < self.retry.attempts => {
                    attempt += 1;
                    retries.inc();
                    if !backoff.is_zero() {
                        std::thread::sleep(backoff);
                        backoff = backoff.saturating_mul(2);
                    }
                }
                Err(e) => {
                    self.enter_degraded(&format!("{what} failed after {attempt} retries: {e}"));
                    return Err(StoreError::Io(e));
                }
            }
        }
    }

    /// Drops buffered, never-committed records and restores the on-disk
    /// log to exactly the committed prefix — the caller abandons a
    /// statement. Deliberately *not* gated on degraded mode: discarding
    /// must work precisely when writes no longer do.
    pub fn discard_pending(&mut self) -> Result<(), StoreError> {
        self.wal.discard_pending()?;
        Ok(())
    }

    /// Flips the store read-only, discarding pending records and
    /// restoring the on-disk log to its committed prefix (best effort —
    /// if even the truncate fails, recovery's torn-tail cut handles it).
    fn enter_degraded(&mut self, reason: &str) {
        counter!("store.degraded.entered").inc();
        let _ = self.wal.discard_pending();
        self.degraded = Some(reason.to_owned());
    }

    /// Current durability statistics.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            wal_records: self.wal.records(),
            wal_bytes: self.wal.bytes(),
            snapshot_records: self.last_snapshot.map(|(r, _)| r),
            snapshot_bytes: self.last_snapshot.map(|(_, b)| b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwdb_logic::ClauseSet;

    fn stmt(i: usize) -> Record {
        Record::Stmt(format!("(insert {{A{}}})", i + 1))
    }

    #[test]
    fn open_fresh_directory_is_empty() {
        let dir = TestDir::new("store-fresh");
        let (store, rec) = Store::open(dir.path()).unwrap();
        assert_eq!(store.records(), 0);
        assert_eq!(rec.snapshot, None);
        assert!(rec.atom_names.is_empty() && rec.statements.is_empty());
        assert_eq!(rec.replay_from, 0);
    }

    #[test]
    fn append_commit_reopen_replays_everything() {
        let dir = TestDir::new("store-replay");
        {
            let (mut store, _) = Store::open(dir.path()).unwrap();
            store.append(&Record::Atom("A1".into())).unwrap();
            store.append(&Record::Atom("A2".into())).unwrap();
            for i in 0..4 {
                store.append(&stmt(i % 2)).unwrap();
                store.commit().unwrap();
            }
        }
        let (store, rec) = Store::open(dir.path()).unwrap();
        assert_eq!(store.records(), 6);
        assert_eq!(rec.atom_names, vec!["A1".to_owned(), "A2".to_owned()]);
        assert_eq!(rec.statements.len(), 4);
        assert_eq!(rec.replay_from, 0);
        assert_eq!(rec.truncated_bytes, 0);
    }

    #[test]
    fn snapshot_limits_replay_to_the_suffix() {
        let dir = TestDir::new("store-suffix");
        {
            let (mut store, _) = Store::open(dir.path()).unwrap();
            store.append(&Record::Atom("A1".into())).unwrap();
            store.append(&stmt(0)).unwrap();
            store.append(&stmt(0)).unwrap();
            store.commit().unwrap();
            store
                .checkpoint(&SnapshotData {
                    wal_records: store.records(),
                    updates_run: 2,
                    clauses: ClauseSet::new(),
                })
                .unwrap();
            store.append(&stmt(0)).unwrap();
            store.commit().unwrap();
        }
        let (store, rec) = Store::open(dir.path()).unwrap();
        assert_eq!(store.records(), 4);
        let snap = rec.snapshot.as_ref().unwrap();
        assert_eq!((snap.wal_records, snap.updates_run), (3, 2));
        assert_eq!(rec.statements.len(), 3); // full history retained
        assert_eq!(rec.replay_from, 2); // but only the suffix replays
        assert_eq!(rec.statements.len() - rec.replay_from, 1);
        assert_eq!(rec.snapshots_skipped, 0);
    }

    #[test]
    fn checkpoint_flushes_buffered_records_first() {
        let dir = TestDir::new("store-ckpt-flush");
        {
            let (mut store, _) = Store::open(dir.path()).unwrap();
            store.append(&stmt(0)).unwrap();
            // No explicit commit: checkpoint must make it durable itself.
            store
                .checkpoint(&SnapshotData {
                    wal_records: 1,
                    updates_run: 1,
                    clauses: ClauseSet::new(),
                })
                .unwrap();
        }
        let (_, rec) = Store::open(dir.path()).unwrap();
        assert_eq!(rec.statements.len(), 1);
        assert_eq!(rec.replay_from, 1);
    }

    #[test]
    fn stats_track_log_and_snapshot() {
        let dir = TestDir::new("store-stats");
        let (mut store, _) = Store::open(dir.path()).unwrap();
        store.append(&stmt(0)).unwrap();
        store.commit().unwrap();
        let s = store.stats();
        assert_eq!(s.wal_records, 1);
        assert!(s.wal_bytes > 0);
        assert_eq!(s.snapshot_records, None);
        store
            .checkpoint(&SnapshotData {
                wal_records: 1,
                updates_run: 1,
                clauses: ClauseSet::new(),
            })
            .unwrap();
        let s = store.stats();
        assert_eq!(s.snapshot_records, Some(1));
        assert!(s.snapshot_bytes.unwrap() > 0);

        // A reopen reports the recovered file's size on disk.
        drop(store);
        let (store, _) = Store::open(dir.path()).unwrap();
        let on_disk = std::fs::metadata(dir.path().join(snapshot::snapshot_file_name(1)))
            .unwrap()
            .len();
        assert_eq!(store.stats().snapshot_records, Some(1));
        assert_eq!(store.stats().snapshot_bytes, Some(on_disk));
        assert_eq!(on_disk, s.snapshot_bytes.unwrap());
    }

    #[test]
    fn oversized_record_is_refused_and_the_store_stays_writable() {
        let dir = TestDir::new("store-oversized");
        let (mut store, _) = Store::open(dir.path()).unwrap();
        let huge = Record::Atom("a".repeat(frame::MAX_PAYLOAD as usize + 1));
        match store.append(&huge) {
            Err(StoreError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput),
            other => panic!("expected an InvalidInput refusal, got {other:?}"),
        }
        assert!(!store.is_degraded());
        assert_eq!(store.records(), 0);
        store.append(&stmt(0)).unwrap();
        store.commit().unwrap();
        drop(store);
        let (store, rec) = Store::open(dir.path()).unwrap();
        assert_eq!(store.records(), 1);
        assert_eq!(rec.statements, vec!["(insert {A1})".to_owned()]);
    }
}
