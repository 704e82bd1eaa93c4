//! Snapshots of the clausal state, written atomically.
//!
//! A snapshot file (`snap-<seq>.pwdb`, `seq` = the number of WAL records
//! it covers, zero-padded hex so lexicographic order is numeric order)
//! holds:
//!
//! ```text
//! ┌───────────────┬──────────────────────────────────────────┐
//! │ "PWDBSNP2"    │ one framed record (kind 'Z', see frame)  │
//! │ 8-byte magic  │ payload = binary image below             │
//! └───────────────┴──────────────────────────────────────────┘
//! ```
//!
//! The payload is little-endian throughout:
//!
//! ```text
//! wal_records: u64 │ updates_run: u64 │ clause │ clause │ …
//! clause = len: u32 │ len × literal code: u32
//! ```
//!
//! Clauses follow one another until the payload ends. A literal code is
//! [`pwdb_logic::Literal::code`] (`atom_id * 2 + negated`). Atom *names*
//! are deliberately not stored: the WAL's `A` records are the single
//! source of truth for the name table, so any snapshot combines correctly
//! with any valid log prefix. A file with another magic — including the
//! retired `PWDBSNP1` layout — fails validation like a corrupt one.
//!
//! Writes go to a temp file first, `fsync`, then atomic rename into
//! place, then directory `fsync` — a crash mid-checkpoint leaves either
//! the old snapshot set or the new one, never a half-written visible
//! file. Loading validates the magic, the frame checksum, and the body,
//! falling back to the next-newest snapshot on any failure.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use pwdb_logic::{Clause, ClauseSet, Literal};
use pwdb_metrics::counter;

use crate::frame::{decode_record, encode_record, Decoded};

/// Magic prefix of every snapshot file.
pub const MAGIC: &[u8; 8] = b"PWDBSNP2";
/// Frame kind byte used for the snapshot body.
pub const KIND_SNAPSHOT: u8 = b'Z';

/// The logical content of a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotData {
    /// How many WAL records this snapshot covers: recovery replays the
    /// log suffix starting at this index.
    pub wal_records: u64,
    /// The database's `updates_run` at checkpoint time.
    pub updates_run: u64,
    /// The interned clausal state.
    pub clauses: ClauseSet,
}

impl SnapshotData {
    /// The full file image (magic + framed binary body). A state whose
    /// body exceeds the frame's payload cap is refused with
    /// [`std::io::ErrorKind::InvalidInput`].
    pub fn encode(&self) -> std::io::Result<Vec<u8>> {
        let words = self.clauses.len() + self.clauses.length();
        let mut body = Vec::with_capacity(16 + 4 * words);
        body.extend_from_slice(&self.wal_records.to_le_bytes());
        body.extend_from_slice(&self.updates_run.to_le_bytes());
        for c in self.clauses.iter() {
            body.extend_from_slice(&(c.len() as u32).to_le_bytes());
            for l in c.literals() {
                body.extend_from_slice(&l.code().to_le_bytes());
            }
        }
        let mut out = MAGIC.to_vec();
        out.extend_from_slice(&encode_record(KIND_SNAPSHOT, &body)?);
        Ok(out)
    }

    /// Decodes a full file image, validating magic, checksum, and body.
    pub fn decode(bytes: &[u8]) -> Result<SnapshotData, String> {
        if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
            return Err("bad snapshot magic".to_owned());
        }
        match decode_record(bytes, MAGIC.len(), &[KIND_SNAPSHOT]) {
            Decoded::Record { payload, next, .. } if next == bytes.len() => {
                SnapshotData::decode_body(payload)
            }
            Decoded::Record { .. } => Err("trailing bytes after snapshot body".to_owned()),
            other => Err(format!("snapshot frame invalid: {other:?}")),
        }
    }

    /// Decodes the binary payload. Every read is bounds-checked, and a
    /// clause length is checked against the bytes left before anything
    /// is allocated from it.
    fn decode_body(mut rest: &[u8]) -> Result<SnapshotData, String> {
        let wal_records = u64::from_le_bytes(take(&mut rest)?);
        let updates_run = u64::from_le_bytes(take(&mut rest)?);
        let mut clauses = ClauseSet::new();
        while !rest.is_empty() {
            let len = u32::from_le_bytes(take(&mut rest)?) as usize;
            if len > rest.len() / 4 {
                return Err(format!("clause of {len} literal(s) overruns the body"));
            }
            let (codes, tail) = rest.split_at(4 * len);
            rest = tail;
            let lits = codes
                .chunks_exact(4)
                .map(|w| Literal::from_code(u32::from_le_bytes([w[0], w[1], w[2], w[3]])))
                .collect();
            // `insert_raw`: the snapshot is a verbatim image of the state,
            // not something to re-normalize.
            clauses.insert_raw(Clause::new(lits));
        }
        Ok(SnapshotData {
            wal_records,
            updates_run,
            clauses,
        })
    }
}

/// Splits an `N`-byte word off the front of `rest`, or fails when fewer
/// bytes remain.
fn take<const N: usize>(rest: &mut &[u8]) -> Result<[u8; N], String> {
    let (word, tail) = rest
        .split_first_chunk::<N>()
        .ok_or("snapshot body ends early")?;
    *rest = tail;
    Ok(*word)
}

/// The file name of the snapshot covering `seq` WAL records.
pub fn snapshot_file_name(seq: u64) -> String {
    format!("snap-{seq:016x}.pwdb")
}

/// Writes a snapshot file image ([`SnapshotData::encode`]) covering
/// `seq` WAL records atomically into `dir`, returning its path. Durable
/// (file and directory both fsynced) when this returns.
pub fn write_snapshot(dir: &Path, seq: u64, bytes: &[u8]) -> std::io::Result<PathBuf> {
    let _sp = pwdb_trace::span!("store.snapshot.write");
    let final_path = dir.join(snapshot_file_name(seq));
    let tmp_path = dir.join(format!(".tmp-{}", snapshot_file_name(seq)));
    {
        let mut f = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp_path)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp_path, &final_path)?;
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all(); // directory entry durability (best effort off-Linux)
    }
    counter!("store.snapshot.writes").inc();
    counter!("store.snapshot.bytes").add(bytes.len() as u64);
    Ok(final_path)
}

/// The newest loadable snapshot in `dir`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LatestSnapshot {
    /// The snapshot, if any file validated.
    pub data: Option<SnapshotData>,
    /// Byte length of the file `data` was decoded from (0 without one).
    pub bytes: u64,
    /// Snapshot files that existed but failed validation (corrupt, torn,
    /// or unreadable) and were skipped in favor of an older one.
    pub skipped: u64,
}

/// Scans `dir` for `snap-*.pwdb` files and loads the newest one that
/// validates, skipping (but not deleting) corrupt ones. Leftover
/// `.tmp-*` files from a crashed checkpoint are ignored entirely.
pub fn load_latest(dir: &Path) -> std::io::Result<LatestSnapshot> {
    let _sp = pwdb_trace::span!("store.recover.snapshot");
    let mut seqs: Vec<(u64, PathBuf)> = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(hex) = name
            .strip_prefix("snap-")
            .and_then(|r| r.strip_suffix(".pwdb"))
        else {
            continue;
        };
        if let Ok(seq) = u64::from_str_radix(hex, 16) {
            seqs.push((seq, entry.path()));
        }
    }
    seqs.sort_by_key(|&(seq, _)| std::cmp::Reverse(seq));

    let mut skipped = 0u64;
    for (_, path) in &seqs {
        match std::fs::read(path)
            .map_err(|e| e.to_string())
            .and_then(|b| Ok((SnapshotData::decode(&b)?, b.len() as u64)))
        {
            Ok((data, bytes)) => {
                counter!("store.snapshot.skipped").add(skipped);
                return Ok(LatestSnapshot {
                    data: Some(data),
                    bytes,
                    skipped,
                });
            }
            Err(_) => skipped += 1,
        }
    }
    counter!("store.snapshot.skipped").add(skipped);
    Ok(LatestSnapshot {
        data: None,
        bytes: 0,
        skipped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testdir::TestDir;
    use pwdb_logic::{parse_clause_set, AtomTable};

    fn sample(wal_records: u64) -> SnapshotData {
        let mut t = AtomTable::with_indexed_atoms(4);
        SnapshotData {
            wal_records,
            updates_run: wal_records / 2,
            clauses: parse_clause_set("{A1 | !A2, A3, !A1 | A2 | !A4}", &mut t).unwrap(),
        }
    }

    /// Writes `data`'s image the way a checkpoint does.
    fn write(dir: &Path, data: &SnapshotData) -> PathBuf {
        write_snapshot(dir, data.wal_records, &data.encode().unwrap()).unwrap()
    }

    #[test]
    fn encode_decode_roundtrip() {
        let data = sample(42);
        let decoded = SnapshotData::decode(&data.encode().unwrap()).unwrap();
        assert_eq!(decoded, data);
    }

    #[test]
    fn empty_and_contradictory_states_roundtrip() {
        for clauses in [ClauseSet::new(), ClauseSet::contradiction()] {
            let data = SnapshotData {
                wal_records: 0,
                updates_run: 0,
                clauses,
            };
            assert_eq!(SnapshotData::decode(&data.encode().unwrap()).unwrap(), data);
        }
    }

    #[test]
    fn write_then_load_latest() {
        let dir = TestDir::new("snap-load");
        write(dir.path(), &sample(10));
        write(dir.path(), &sample(25));
        let latest = load_latest(dir.path()).unwrap();
        assert_eq!(latest.skipped, 0);
        assert_eq!(latest.data.unwrap().wal_records, 25);
    }

    #[test]
    fn corrupt_latest_falls_back() {
        let dir = TestDir::new("snap-fallback");
        write(dir.path(), &sample(10));
        let newest = write(dir.path(), &sample(25));
        // Flip one byte in the newest file's body.
        let mut bytes = std::fs::read(&newest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(&newest, &bytes).unwrap();

        let latest = load_latest(dir.path()).unwrap();
        assert_eq!(latest.skipped, 1);
        assert_eq!(latest.data.unwrap().wal_records, 10);
    }

    #[test]
    fn all_corrupt_means_no_snapshot() {
        let dir = TestDir::new("snap-none");
        let p = write(dir.path(), &sample(10));
        std::fs::write(&p, b"PWDBSNP2 but then garbage").unwrap();
        let latest = load_latest(dir.path()).unwrap();
        assert_eq!(latest.skipped, 1);
        assert!(latest.data.is_none());
    }

    #[test]
    fn leftover_tmp_files_are_ignored() {
        let dir = TestDir::new("snap-tmp");
        write(dir.path(), &sample(10));
        std::fs::write(
            dir.path().join(".tmp-snap-00000000000000ff.pwdb"),
            b"half-written garbage",
        )
        .unwrap();
        let latest = load_latest(dir.path()).unwrap();
        assert_eq!(latest.skipped, 0);
        assert_eq!(latest.data.unwrap().wal_records, 10);
    }

    #[test]
    fn truncated_snapshot_is_rejected() {
        let data = sample(7);
        let bytes = data.encode().unwrap();
        for cut in [0, 4, MAGIC.len(), bytes.len() - 1] {
            assert!(SnapshotData::decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(SnapshotData::decode(&extended).is_err());

        // Checksum-valid frames whose body is malformed: the last clause
        // claims one literal more than the payload holds, and a payload
        // too short for the two leading counters.
        let framed = |body: &[u8]| {
            let mut image = MAGIC.to_vec();
            image.extend_from_slice(&encode_record(KIND_SNAPSHOT, body).unwrap());
            image
        };
        let body = &bytes[MAGIC.len() + crate::frame::HEADER_LEN..];
        assert!(SnapshotData::decode(&framed(body)).is_ok());
        let last = data.clauses.iter().last().unwrap().len();
        let at = body.len() - 4 * (1 + last);
        let mut overrun = body.to_vec();
        overrun[at..at + 4].copy_from_slice(&(last as u32 + 1).to_le_bytes());
        assert!(SnapshotData::decode(&framed(&overrun)).is_err());
        assert!(SnapshotData::decode(&framed(&body[..15])).is_err());
        let huge = [&body[..16], &u32::MAX.to_le_bytes()[..]].concat();
        assert!(SnapshotData::decode(&framed(&huge)).is_err());
    }
}
