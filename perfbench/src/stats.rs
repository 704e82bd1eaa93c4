//! Latency samples and the statistics reported from them.

use crate::gen::Rng;

/// At most this many samples are kept, so memory (and `peak_rss_mb`) does
/// not grow with the run's length.
const KEEP: usize = 50_000;
/// Consecutive samples per block of [`Samples::tail`].
const BLOCK: usize = 2_000;

/// Latency samples: a uniform reservoir (Vitter's algorithm R) for the
/// median, plus the p99 of every block of [`BLOCK`] consecutive samples.
pub struct Samples {
    kept: Vec<f64>,
    count: u64,
    rng: Rng,
    block: Vec<f64>,
    block_p99: Vec<f64>,
}

impl Default for Samples {
    fn default() -> Self {
        Samples {
            kept: Vec::new(),
            count: 0,
            rng: Rng::new(0x05A3_D1E5),
            block: Vec::with_capacity(BLOCK),
            block_p99: Vec::new(),
        }
    }
}

impl Samples {
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        if self.kept.len() < KEEP {
            self.kept.push(x);
        } else {
            let j = self.rng.below(self.count) as usize;
            if j < KEEP {
                self.kept[j] = x;
            }
        }
        self.block.push(x);
        if self.block.len() == BLOCK {
            self.block.sort_by(f64::total_cmp);
            self.block_p99.push(percentile(&self.block, 99.0));
            self.block.clear();
        }
    }

    /// Samples offered, kept or not.
    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn median(&self) -> f64 {
        percentile(&sorted(&self.kept), 50.0)
    }

    /// The tail latency and how it was taken. With at least three full
    /// blocks it is the median of the blocks' p99 (each block has 20
    /// samples beyond its p99), so one burst of disk or CPU contention
    /// moves it less than it moves a single p99 over the run. Otherwise it
    /// is the highest percentile of all samples that has at least ten
    /// samples beyond it.
    pub fn tail(&self) -> (String, f64) {
        if self.block_p99.len() >= 3 {
            let how = format!("median p99 of {} blocks of {BLOCK}", self.block_p99.len());
            return (how, median(&self.block_p99));
        }
        let p = tail_percentile(self.count);
        (format!("p{p}"), percentile(&sorted(&self.kept), p))
    }
}

pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of ascending values (0 when empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of p99, p95, p90 and p75 that has at least ten of `n`
/// samples beyond it (the median when none has).
fn tail_percentile(n: u64) -> f64 {
    [99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(50.0)
}

pub fn median(v: &[f64]) -> f64 {
    let v = sorted(v);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}
