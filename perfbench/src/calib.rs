//! Machine-speed calibration. The CPU and disk speed of the shared machine
//! the benchmark was built on drift by ±20% and more over minutes, which
//! moves every timing between runs of the same code by more than any bound
//! worth having. Probes time fixed pieces of work, independent of the
//! program under test, at regular intervals; timings are reported divided
//! by the run's slowdown against [`NOMINAL_CPU_NS`] and
//! [`NOMINAL_FSYNC_NS`], in the units of a machine running at those
//! speeds.

use std::fs::File;
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::gen::Rng;

/// The CPU probe's typical duration on the machine the benchmark was
/// tuned on (a 2-vCPU container), so reported timings read close to
/// measured ones there.
const NOMINAL_CPU_NS: f64 = 100_000.0;
/// The disk probe's typical (median) `write` + `fsync` time there.
const NOMINAL_FSYNC_NS: f64 = 85_000.0;
/// In a timed phase the probes run once per this much wall time.
const EVERY: Duration = Duration::from_millis(20);
const KEYS: usize = 1024;
const SLOTS: usize = 4096;
/// Bytes the disk probe appends per `fsync`, about one WAL record.
const RECORD: [u8; 32] = [0x5A; 32];

/// Times a fixed piece of CPU work (seeded keys, a sort, open-addressing
/// inserts) on buffers of its own, so the program's heap does not touch
/// it; and, for a workload with a store, a 32-byte append and `fsync` on a
/// file of its own, as a WAL commit does.
pub struct Probe {
    keys: Vec<u64>,
    slots: Vec<u64>,
    cpu_ns: Vec<f64>,
    disk: Option<File>,
    fsync_ns: Vec<f64>,
    last: Instant,
}

impl Probe {
    /// A CPU probe, plus a disk probe writing to `disk` when given.
    pub fn new(disk: Option<&Path>) -> std::io::Result<Self> {
        Ok(Probe {
            keys: vec![0; KEYS],
            slots: vec![0; SLOTS],
            cpu_ns: Vec::new(),
            disk: disk.map(File::create).transpose()?,
            fsync_ns: Vec::new(),
            last: Instant::now(),
        })
    }

    fn work(&mut self) -> u64 {
        let mut acc = 0u64;
        for round in 0..4 {
            let mut rng = Rng::new(0xCA1B + round);
            for k in self.keys.iter_mut() {
                *k = rng.below(1 << 20) + 1;
            }
            self.keys.sort_unstable();
            self.slots.fill(0);
            for &k in &self.keys {
                let mut at = (k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 52) as usize;
                while self.slots[at] != 0 && self.slots[at] != k {
                    at = (at + 1) % SLOTS;
                }
                self.slots[at] = k;
            }
            acc = self.slots.iter().fold(acc, |a, &s| a.rotate_left(5) ^ s);
        }
        acc
    }

    /// Times one probe of each kind.
    pub fn run(&mut self) -> std::io::Result<()> {
        let start = Instant::now();
        black_box(self.work());
        self.cpu_ns.push(start.elapsed().as_nanos() as f64);
        if let Some(file) = &mut self.disk {
            let start = Instant::now();
            file.write_all(&RECORD)?;
            file.sync_data()?;
            self.fsync_ns.push(start.elapsed().as_nanos() as f64);
        }
        self.last = Instant::now();
        Ok(())
    }

    /// Times the probes if [`EVERY`] has passed since the last time.
    pub fn tick(&mut self) -> std::io::Result<()> {
        if self.last.elapsed() >= EVERY {
            self.run()?;
        }
        Ok(())
    }

    /// How much slower than the reference the CPU ran (1 when no probe
    /// ran). Timings of work that does not write are divided by it.
    pub fn cpu_slowdown(&self) -> f64 {
        if self.cpu_ns.is_empty() {
            return 1.0;
        }
        self.cpu_ns.iter().sum::<f64>() / self.cpu_ns.len() as f64 / NOMINAL_CPU_NS
    }

    /// The disk probe's median, in ns (0 without one). The median rather
    /// than the mean: in trials the mean, swayed by rare long stalls,
    /// overcorrected.
    fn fsync_median_ns(&self) -> f64 {
        let mut v = self.fsync_ns.clone();
        v.sort_by(f64::total_cmp);
        v.get(v.len() / 2).copied().unwrap_or(0.0)
    }

    /// How much slower than the reference the machine ran `busy` of work
    /// that made `fsyncs` WAL commits. `fsyncs` times the disk probe's
    /// median is taken as disk time and scaled by the disk's slowdown; the
    /// rest is scaled by the CPU's. Timings of such work are divided by it.
    pub fn slowdown(&self, busy: Duration, fsyncs: u64) -> f64 {
        if self.fsync_ns.is_empty() {
            return self.cpu_slowdown();
        }
        let busy = busy.as_nanos() as f64;
        let n = fsyncs as f64;
        let disk = (n * self.fsync_median_ns()).min(busy);
        let reference = (busy - disk) / self.cpu_slowdown() + n * NOMINAL_FSYNC_NS;
        busy / reference
    }

    /// The CPU probe's mean and the disk probe's median, in µs (0 without
    /// a disk probe).
    pub fn probes_us(&self) -> (f64, f64) {
        (
            self.cpu_slowdown() * NOMINAL_CPU_NS / 1e3,
            self.fsync_median_ns() / 1e3,
        )
    }
}
