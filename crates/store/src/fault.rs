//! Deterministic fault injection for crash-recovery testing.
//!
//! Two fault families live here:
//!
//! * **At-rest corruption** — helpers that mutate files in place the way
//!   a crash or media fault would: torn tails (truncation mid-record),
//!   stray bytes that were written but never acknowledged, and bit flips
//!   at controlled offsets. Offsets derive from a caller-supplied
//!   [`pwdb_logic::Rng`] (SplitMix64) so each scenario in the crash
//!   matrix is replayable from its seed.
//! * **Steady-state write faults** — [`WriteFaults`], a deterministic
//!   plan of EIO / disk-full / short-write errors injected into *live*
//!   durability operations (WAL fsyncs, checkpoint writes) via
//!   [`crate::Store::inject_write_faults`]. The store reacts with
//!   bounded retry-with-backoff, then degrades to read-only.

use std::fs::OpenOptions;
use std::io::Write;
use std::path::Path;

use pwdb_logic::Rng;

/// Which I/O failure a live write fault simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFaultKind {
    /// A hard I/O error (`EIO`): nothing reached the medium.
    Eio,
    /// The device is full (`ENOSPC`): nothing reached the medium.
    DiskFull,
    /// A short write: a *prefix* of the buffered bytes reached the file
    /// before the error, leaving a torn (CRC-invalid) tail on disk.
    ShortWrite,
}

impl WriteFaultKind {
    /// The `io::Error` this fault surfaces as.
    pub fn to_error(self) -> std::io::Error {
        match self {
            WriteFaultKind::Eio => std::io::Error::other("injected fault: I/O error (EIO)"),
            WriteFaultKind::DiskFull => std::io::Error::new(
                std::io::ErrorKind::StorageFull,
                "injected fault: device full (ENOSPC)",
            ),
            WriteFaultKind::ShortWrite => {
                std::io::Error::new(std::io::ErrorKind::WriteZero, "injected fault: short write")
            }
        }
    }
}

/// A deterministic plan of faults on live durability operations.
///
/// The store consults the plan once per physical durability attempt
/// (each WAL fsync try — including retries — and each checkpoint file
/// write). Operations are numbered from 0; the plan fails operations
/// `fail_from .. fail_from + fail_count` and lets every other one
/// through, so a single plan expresses both a transient glitch that a
/// retry absorbs (`fail_count` ≤ retry budget) and a persistent outage
/// that forces degraded mode (`fail_count` = `u64::MAX`).
#[derive(Debug, Clone, Default)]
pub struct WriteFaults {
    kind: Option<WriteFaultKind>,
    fail_from: u64,
    fail_count: u64,
    ops: u64,
}

impl WriteFaults {
    /// A plan that never fires.
    pub fn none() -> WriteFaults {
        WriteFaults::default()
    }

    /// Fails exactly one operation (number `n`, counting from 0) —
    /// a transient fault the retry loop should absorb.
    pub fn fail_nth(n: u64, kind: WriteFaultKind) -> WriteFaults {
        WriteFaults {
            kind: Some(kind),
            fail_from: n,
            fail_count: 1,
            ops: 0,
        }
    }

    /// Fails every operation from number `n` on — a persistent outage
    /// that exhausts the retries and degrades the store.
    pub fn persistent_from(n: u64, kind: WriteFaultKind) -> WriteFaults {
        WriteFaults {
            kind: Some(kind),
            fail_from: n,
            fail_count: u64::MAX,
            ops: 0,
        }
    }

    /// Adjusts how many consecutive operations fail.
    pub fn with_fail_count(mut self, count: u64) -> WriteFaults {
        self.fail_count = count;
        self
    }

    /// Advances the operation counter and reports the fault (if any) to
    /// inject into this operation.
    pub fn next_op(&mut self) -> Option<WriteFaultKind> {
        let op = self.ops;
        self.ops += 1;
        let kind = self.kind?;
        let fired = op >= self.fail_from && op - self.fail_from < self.fail_count;
        if fired {
            pwdb_metrics::counter!("store.fault.injected").inc();
            Some(kind)
        } else {
            None
        }
    }
}

/// Truncates `path` to `len` bytes — a crash that lost the tail.
pub fn truncate_file(path: &Path, len: u64) -> std::io::Result<()> {
    let f = OpenOptions::new().write(true).open(path)?;
    f.set_len(len)?;
    f.sync_all()?;
    Ok(())
}

/// Truncates `path` by `drop` bytes from the end (clamped at zero).
pub fn tear_tail(path: &Path, drop: u64) -> std::io::Result<u64> {
    let len = std::fs::metadata(path)?.len();
    let new_len = len.saturating_sub(drop);
    truncate_file(path, new_len)?;
    Ok(new_len)
}

/// Appends raw bytes — data a crashed process wrote past the last fsync
/// (possibly a whole record that was never acknowledged to the client).
pub fn append_raw(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut f = OpenOptions::new().create(true).append(true).open(path)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    Ok(())
}

/// Flips bit `bit` (0–7) of the byte at `offset`.
pub fn flip_bit(path: &Path, offset: u64, bit: u8) -> std::io::Result<()> {
    let mut bytes = std::fs::read(path)?;
    let i = offset as usize;
    assert!(
        i < bytes.len(),
        "flip offset {i} out of range {}",
        bytes.len()
    );
    bytes[i] ^= 1 << (bit & 7);
    std::fs::write(path, &bytes)?;
    Ok(())
}

/// Flips one seeded-random bit within `path`'s byte range
/// `[from, len)` — used to corrupt an unacknowledged tail without
/// touching the committed prefix. Returns the (offset, bit) flipped.
pub fn flip_random_bit_after(path: &Path, from: u64, rng: &mut Rng) -> std::io::Result<(u64, u8)> {
    let len = std::fs::metadata(path)?.len();
    assert!(from < len, "no bytes after offset {from} (len {len})");
    let offset = rng.range_u64(from, len);
    let bit = rng.below(8) as u8;
    flip_bit(path, offset, bit)?;
    Ok((offset, bit))
}

/// Truncates `path` to a seeded-random length in `[from, len)` —
/// a torn write that stopped partway through the uncommitted tail.
pub fn tear_randomly_after(path: &Path, from: u64, rng: &mut Rng) -> std::io::Result<u64> {
    let len = std::fs::metadata(path)?.len();
    assert!(from < len, "no bytes after offset {from} (len {len})");
    let cut = rng.range_u64(from, len);
    truncate_file(path, cut)?;
    Ok(cut)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testdir::TestDir;

    #[test]
    fn helpers_mutate_as_described() {
        let dir = TestDir::new("fault-helpers");
        let p = dir.path().join("f");
        std::fs::write(&p, b"0123456789").unwrap();

        flip_bit(&p, 0, 0).unwrap();
        assert_eq!(std::fs::read(&p).unwrap()[0], b'0' ^ 1);

        append_raw(&p, b"AB").unwrap();
        assert_eq!(std::fs::metadata(&p).unwrap().len(), 12);

        tear_tail(&p, 5).unwrap();
        assert_eq!(std::fs::metadata(&p).unwrap().len(), 7);

        truncate_file(&p, 2).unwrap();
        assert_eq!(std::fs::read(&p).unwrap().len(), 2);
    }

    #[test]
    fn random_faults_stay_in_range_and_are_deterministic() {
        let dir = TestDir::new("fault-seeded");
        let p = dir.path().join("f");
        let mut picks = Vec::new();
        for round in 0..8 {
            std::fs::write(&p, vec![0u8; 64]).unwrap();
            let mut rng = Rng::new(0xFA17 + round);
            let (off, bit) = flip_random_bit_after(&p, 16, &mut rng).unwrap();
            assert!((16..64).contains(&off) && bit < 8);
            // Re-seeding reproduces the identical fault.
            std::fs::write(&p, vec![0u8; 64]).unwrap();
            let mut rng2 = Rng::new(0xFA17 + round);
            assert_eq!(
                flip_random_bit_after(&p, 16, &mut rng2).unwrap(),
                (off, bit)
            );
            picks.push((off, bit));

            let cut = tear_randomly_after(&p, 16, &mut rng).unwrap();
            assert!((16..64).contains(&cut));
            assert_eq!(std::fs::metadata(&p).unwrap().len(), cut);
        }
        // Different seeds explore different offsets.
        assert!(picks.windows(2).any(|w| w[0] != w[1]));
    }
}
