//! A plain-harness micro-benchmark timer (the workspace's `criterion`
//! replacement — no external dependencies, `harness = false` benches).
//!
//! Methodology: a warmup phase sizes the per-sample iteration count so each
//! sample runs ≥ ~20 ms, then 11 samples are timed and the median / min /
//! max per-iteration times are reported. The median is robust to scheduler
//! noise; min approximates the noise floor. Set `APF_BENCH_QUICK=1` to cut
//! the sample count to 3 for smoke runs (empty or `0` leaves it at 11).

use std::hint::black_box as std_black_box;
use std::io::Write;
use std::time::{Duration, Instant};

/// Opaque-to-the-optimizer identity, so benchmarked results are not elided.
pub fn black_box<T>(x: T) -> T {
    std_black_box(x)
}

/// Per-sample minimum runtime the warmup phase calibrates toward.
const TARGET_SAMPLE: Duration = Duration::from_millis(20);

/// Ceiling on the calibrated per-sample iteration count. A body LLVM folds
/// away never fills [`TARGET_SAMPLE`]; the count stops here, where it still
/// fits the `u32` a [`Duration`] divides by.
const MAX_ITERS: u64 = 1 << 30;

fn samples_per_bench() -> usize {
    samples_for(std::env::var("APF_BENCH_QUICK").ok().as_deref())
}

/// Samples per row when `APF_BENCH_QUICK` reads `quick`: unset, empty and
/// `0` are the full run, the way `APF_PROF` reads off.
fn samples_for(quick: Option<&str>) -> usize {
    match quick.map(str::trim) {
        None | Some("" | "0") => 11,
        Some(_) => 3,
    }
}

// Public because `BenchGroup::bench` and `BenchGroup::results` return it.
/// One measured benchmark result.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Benchmark label, e.g. `"matmul/128"`.
    pub label: String,
    /// Median per-iteration time.
    pub median: Duration,
    /// Fastest per-iteration time observed.
    pub min: Duration,
    /// Slowest per-iteration time observed.
    pub max: Duration,
    /// Iterations per sample.
    pub iters: u64,
    /// Samples taken.
    pub samples: usize,
}

/// Formats a duration with an appropriate unit.
fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.3} s", ns as f64 / 1e9)
    }
}

/// A group of related benchmarks printed as one aligned table.
pub struct BenchGroup {
    name: String,
    results: Vec<Measurement>,
    out: Box<dyn Write + Send>,
}

impl BenchGroup {
    /// Starts a group writing to stdout (header is written immediately so
    /// long benches show progress).
    pub fn new(name: &str) -> Self {
        BenchGroup::with_writer(name, Box::new(std::io::stdout()))
    }

    /// Starts a group writing progress to `out` (e.g. a buffer in tests, or
    /// `io::sink()` for silent runs). Write errors are ignored.
    fn with_writer(name: &str, mut out: Box<dyn Write + Send>) -> Self {
        let _ = writeln!(out, "\n== {name} ==");
        BenchGroup {
            name: name.to_owned(),
            results: Vec::new(),
            out,
        }
    }

    /// Times `f`, printing one row: warmup-calibrated iteration count,
    /// median of N samples.
    pub fn bench(&mut self, label: &str, mut f: impl FnMut()) -> &Measurement {
        // Warmup + calibration: run until TARGET_SAMPLE is filled, doubling.
        let mut iters: u64 = 1;
        loop {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            let elapsed = t0.elapsed();
            if elapsed >= TARGET_SAMPLE || iters >= MAX_ITERS {
                break;
            }
            // Aim directly at the target when we have signal, else double.
            iters = if elapsed.is_zero() {
                iters * 2
            } else {
                let scale = TARGET_SAMPLE.as_secs_f64() / elapsed.as_secs_f64();
                (iters as f64 * scale.clamp(1.5, 16.0)).ceil() as u64
            }
            .min(MAX_ITERS);
        }
        let samples = samples_per_bench();
        let mut per_iter: Vec<Duration> = (0..samples)
            .map(|_| {
                let t0 = Instant::now();
                for _ in 0..iters {
                    f();
                }
                t0.elapsed() / iters as u32
            })
            .collect();
        per_iter.sort_unstable();
        let m = Measurement {
            label: format!("{}/{}", self.name, label),
            median: per_iter[samples / 2],
            min: per_iter[0],
            max: per_iter[samples - 1],
            iters,
            samples,
        };
        let _ = writeln!(
            self.out,
            "  {label:<24} median {:>12}  min {:>12}  max {:>12}  ({} iters x {} samples)",
            fmt_duration(m.median),
            fmt_duration(m.min),
            fmt_duration(m.max),
            m.iters,
            m.samples,
        );
        self.results.push(m);
        self.results.last().unwrap()
    }

    /// All measurements taken so far.
    pub fn results(&self) -> &[Measurement] {
        &self.results
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_duration_units() {
        assert_eq!(fmt_duration(Duration::from_nanos(500)), "500 ns");
        assert_eq!(fmt_duration(Duration::from_micros(1500)), "1.50 ms");
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.000 s");
    }

    #[test]
    fn quick_mode_is_off_when_unset_empty_or_zero() {
        for off in [None, Some(""), Some("0"), Some(" 0 ")] {
            assert_eq!(samples_for(off), 11, "{off:?}");
        }
        for on in ["1", "true", "yes"] {
            assert_eq!(samples_for(Some(on)), 3, "{on:?}");
        }
    }

    #[test]
    fn bench_measures_something() {
        std::env::set_var("APF_BENCH_QUICK", "1");
        let mut g = BenchGroup::with_writer("selftest", Box::new(std::io::sink()));
        // The xor keeps LLVM from closed-forming the loop into a constant;
        // a folded body runs sub-nanosecond and `elapsed / iters` truncates
        // the per-iteration median to zero.
        let m = g.bench("spin", || {
            black_box((0..black_box(1000u64)).fold(0u64, |acc, x| acc ^ x.wrapping_mul(31)));
        });
        assert!(m.median > Duration::ZERO);
        assert!(m.min <= m.median && m.median <= m.max);
        assert_eq!(g.results().len(), 1);
        std::env::remove_var("APF_BENCH_QUICK");
    }

    #[test]
    fn empty_closure_stops_at_the_iteration_ceiling() {
        // In --release the empty body folds away, a pass reads tens of
        // nanoseconds whatever the count, and calibration used to walk
        // 1, 16, …, 2^28, 2^32 — a count that truncates to `0u32` in
        // `elapsed / iters as u32`.
        let mut g = BenchGroup::with_writer("selftest", Box::new(std::io::sink()));
        let m = g.bench("noop", || {});
        assert!(m.iters <= MAX_ITERS);
        assert!(m.min <= m.median && m.median <= m.max);
    }
}
