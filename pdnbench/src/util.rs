//! Shared helpers: the seeded input generator, order statistics, process
//! memory, per-run scratch directories, and bit-exact comparisons.

use pdnspot::PdnEvaluation;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// SplitMix64: a tiny seeded generator, so the workload inputs depend on
/// `--seed` alone and never on a dependency's RNG implementation.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream derived from `seed` and a per-use `stream` tag.
    pub fn new(seed: u64, stream: u64) -> Self {
        Self(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.f64()
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `k` distinct picks from `pool`, in ascending pool order.
    pub fn subset<T: Copy>(&mut self, pool: &[T], k: usize) -> Vec<T> {
        let mut idx: Vec<usize> = (0..pool.len()).collect();
        for i in 0..k {
            let j = i + self.below(pool.len() - i);
            idx.swap(i, j);
        }
        let mut chosen = idx[..k].to_vec();
        chosen.sort_unstable();
        chosen.into_iter().map(|i| pool[i]).collect()
    }

    /// `k` strictly increasing values drawn uniformly from `[lo, hi)`.
    pub fn sorted_values(&mut self, k: usize, lo: f64, hi: f64) -> Vec<f64> {
        loop {
            let mut v: Vec<f64> = (0..k).map(|_| self.range(lo, hi)).collect();
            v.sort_by(f64::total_cmp);
            if v.windows(2).all(|w| w[0] < w[1]) {
                return v;
            }
        }
    }
}

/// The `ReferenceSystem` seed: one fixed lab unit on the bench, as the
/// paper measured one board, so `model_error_pct` moves with the operating
/// points a workload seed draws and not with simulated unit variation.
pub const REFERENCE_UNIT: u64 = 42;

/// Nearest-rank percentile (`q` in `[0, 1]`) of an unsorted sample.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// The `q` percentile of each consecutive window of about `per_window`
/// samples (at most 200 windows), summarised by the windows' median. A
/// burst of host stalls (CPU steal on a shared VM) inflates the tail of
/// the few windows it hits and moves the median little; a tail the system adds in at least
/// half of the windows moves it fully. A tail confined to fewer than half
/// of the windows (a rare stall) is not seen: the whole-run percentile,
/// which the workloads print beside it, shows that.
pub fn windowed(values: &[f64], q: f64, per_window: usize) -> f64 {
    let windows = (values.len() / per_window).clamp(1, 200);
    let size = values.len().div_ceil(windows);
    let tails: Vec<f64> = values.chunks(size.max(1)).map(|w| percentile(w, q)).collect();
    median(&tails)
}

/// End-to-end figures of a run recorded as `(work items, milliseconds)`
/// per operation: work per second (the median over twenty consecutive
/// slices of the run), the median operation latency, the windowed p99
/// over windows of at least 1000 operations, and the whole-run p99.
pub fn summarize(ops: &[(f64, f64)]) -> (f64, f64, f64, f64) {
    let latencies: Vec<f64> = ops.iter().map(|&(_, ms)| ms).collect();
    let size = ops.len().div_ceil(20).max(1);
    let rates: Vec<f64> = ops
        .chunks(size)
        .map(|slice| {
            let (work, ms) = slice.iter().fold((0.0, 0.0), |(w, t), &(dw, dt)| (w + dw, t + dt));
            1e3 * work / ms
        })
        .collect();
    let p99 = windowed(&latencies, 0.99, 1000);
    (median(&rates), median(&latencies), p99, percentile(&latencies, 0.99))
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident memory of this process in MB (`VmHWM`), or NaN where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return f64::NAN };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Set-up timings spread over a run: a few back to back at the start,
/// then one more each time [`SetupTimes::sample`] finds a sampling slot
/// due, so a transient host stall moves one sample, not the median.
#[derive(Debug)]
pub struct SetupTimes {
    times: Vec<f64>,
    next: Instant,
    every: Duration,
}

/// Set-ups timed back to back at the start of a run.
const SETUP_FIRST: usize = 5;
/// Set-ups sampled while the run measures.
const SETUP_SPREAD: usize = 16;

impl SetupTimes {
    /// Times [`SETUP_FIRST`] set-ups, keeping the last one built, and
    /// schedules [`SETUP_SPREAD`] more over the next `seconds`.
    pub fn start<T>(seconds: f64, mut build: impl FnMut() -> T) -> (T, Self) {
        let mut times = Vec::with_capacity(SETUP_FIRST + SETUP_SPREAD);
        let mut last = None;
        for _ in 0..SETUP_FIRST {
            drop(last.take());
            let start = Instant::now();
            last = Some(build());
            times.push(start.elapsed().as_secs_f64());
        }
        let every = Duration::from_secs_f64(seconds / SETUP_SPREAD as f64);
        (last.expect("SETUP_FIRST is nonzero"), Self { times, next: Instant::now() + every, every })
    }

    /// Times one more set-up (and drops it) if a sampling slot is due.
    /// Callers invoke this between timed operations.
    pub fn sample<T>(&mut self, build: impl FnOnce() -> T) {
        if Instant::now() < self.next || self.times.len() >= SETUP_FIRST + SETUP_SPREAD {
            return;
        }
        let start = Instant::now();
        drop(build());
        self.times.push(start.elapsed().as_secs_f64());
        self.next += self.every;
    }

    /// The median set-up time in seconds.
    pub fn median(&self) -> f64 {
        median(&self.times)
    }
}

/// A directory private to one run, under `.bench_scratch/` in the
/// working directory, removed with everything in it on drop. The name
/// carries the pid, the clock, and a counter, so concurrent runs and
/// repeated calls within one process never share (or delete) a path.
#[derive(Debug)]
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    pub fn new(tag: &str) -> std::io::Result<Self> {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let nanos = SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_nanos());
        let dir = Path::new(".bench_scratch").join(format!(
            "{tag}-{}-{nanos}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir)?;
        Ok(Self { dir })
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
        // Succeeds only once no other run is using the parent.
        if let Some(parent) = self.dir.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Bit-exact equality of two evaluations: every reported float compared
/// by its IEEE-754 bits, every rail by name and bits.
pub fn evaluations_bit_equal(a: &PdnEvaluation, b: &PdnEvaluation) -> bool {
    let bits = |x: f64| x.to_bits();
    bits(a.nominal_power.get()) == bits(b.nominal_power.get())
        && bits(a.input_power.get()) == bits(b.input_power.get())
        && bits(a.etee.get()) == bits(b.etee.get())
        && bits(a.breakdown.vr_loss.get()) == bits(b.breakdown.vr_loss.get())
        && bits(a.breakdown.conduction_compute.get()) == bits(b.breakdown.conduction_compute.get())
        && bits(a.breakdown.conduction_sa_io.get()) == bits(b.breakdown.conduction_sa_io.get())
        && bits(a.breakdown.other.get()) == bits(b.breakdown.other.get())
        && bits(a.chip_input_current.get()) == bits(b.chip_input_current.get())
        && a.rails.len() == b.rails.len()
        && a.rails.iter().zip(&b.rails).all(|(x, y)| {
            x.name == y.name
                && bits(x.voltage.get()) == bits(y.voltage.get())
                && bits(x.current.get()) == bits(y.current.get())
                && bits(x.input_power.get()) == bits(y.input_power.get())
                && x.efficiency.map(|e| bits(e.get())) == y.efficiency.map(|e| bits(e.get()))
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
    }

    #[test]
    fn rng_is_seeded_and_subsets_are_sorted_and_distinct() {
        let mut a = Rng::new(7, 1);
        let mut b = Rng::new(7, 1);
        assert_eq!(a.next_u64(), b.next_u64());
        let pick = a.subset(&[1, 2, 3, 4, 5, 6, 7, 8], 5);
        assert_eq!(pick.len(), 5);
        assert!(pick.windows(2).all(|w| w[0] < w[1]));
        let v = a.sorted_values(6, 4.0, 50.0);
        assert!(v.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn scratch_dirs_are_unique_and_removed() {
        let a = Scratch::new("t").unwrap();
        let b = Scratch::new("t").unwrap();
        assert_ne!(a.path(""), b.path(""));
        let dir = a.path("");
        std::fs::write(a.path("f"), b"x").unwrap();
        drop(a);
        assert!(!dir.exists());
    }
}
