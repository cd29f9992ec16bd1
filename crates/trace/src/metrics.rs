//! A process-global metrics registry: named monotonic counters, gauges,
//! and fixed-bucket histograms.
//!
//! Handles are cheap `Arc` clones; hot paths pay one atomic RMW per update
//! with no locking (the registry lock is only taken on first lookup).
//! [`emit`] dumps a snapshot into the trace as `metric` events, and
//! [`reset`] clears everything for tests.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::{event, Level};

/// A monotonic counter handle.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge handle: a named value that can go up *and* down (current frozen
/// ratio, live client count, pool depth — anything a [`Counter`]'s
/// monotonicity cannot express).
///
/// The value is an `f64` stored as its bit pattern in an `AtomicU64`;
/// [`Gauge::set`] is a single relaxed store, [`Gauge::add`] a CAS loop.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the gauge to `x`.
    #[inline]
    pub fn set(&self, x: f64) {
        self.0.store(x.to_bits(), Ordering::Relaxed);
    }

    /// Adds `d` (negative `d` decrements).
    pub fn add(&self, d: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + d).to_bits();
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(v) => cur = v,
            }
        }
    }

    /// Subtracts `d`.
    pub fn sub(&self, d: f64) {
        self.add(-d);
    }

    /// The current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A fixed-bucket histogram handle.
///
/// Bucket `i` counts samples `x <= bounds[i]`; one extra overflow bucket
/// counts the rest. Bounds are fixed at registration.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Sum of samples, stored as f64 bits (updated with a CAS loop).
    sum_bits: AtomicU64,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Histogram {
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0.0f64.to_bits()),
        }
    }

    /// Records one sample.
    pub fn record(&self, x: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| x <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + x).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(v) => cur = v,
            }
        }
    }

    /// The bucket upper bounds this histogram was registered with.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket counts (one extra overflow bucket at the end).
    fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// Total number of samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Estimates the `q`-quantile (`q` in `[0, 1]`, clamped) by linear
    /// interpolation within the bucket holding the target rank — the same
    /// scheme Prometheus' `histogram_quantile` uses.
    ///
    /// The first bucket's lower edge is taken as `0` when its upper bound is
    /// positive (latencies, byte counts), otherwise as the bound itself.
    /// Ranks landing in the overflow bucket clamp to the largest bound (the
    /// true value is unknowable there). Returns `None` when the histogram is
    /// empty or was registered with no bounds.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.bounds.is_empty() {
            return None;
        }
        let counts = self.bucket_counts();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return None;
        }
        let rank = q.clamp(0.0, 1.0) * total as f64;
        let mut cum = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            let prev = cum;
            cum += c;
            if (cum as f64) < rank || c == 0 {
                continue;
            }
            if i == self.bounds.len() {
                // Overflow bucket: clamp to the largest finite bound.
                return Some(self.bounds[self.bounds.len() - 1]);
            }
            let upper = self.bounds[i];
            let lower = if i == 0 {
                if upper > 0.0 {
                    0.0
                } else {
                    upper
                }
            } else {
                self.bounds[i - 1]
            };
            let frac = ((rank - prev as f64) / c as f64).clamp(0.0, 1.0);
            return Some(lower + (upper - lower) * frac);
        }
        Some(self.bounds[self.bounds.len() - 1])
    }
}

#[derive(Default)]
struct Registry {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

/// Looks up (registering on first use) the counter `name`.
pub fn counter(name: &str) -> Counter {
    let mut map = registry().counters.lock().expect("metrics lock poisoned");
    map.entry(name.to_owned())
        .or_insert_with(|| Counter(Arc::new(AtomicU64::new(0))))
        .clone()
}

/// Looks up (registering on first use) the gauge `name` (initial value 0).
pub fn gauge(name: &str) -> Gauge {
    let mut map = registry().gauges.lock().expect("metrics lock poisoned");
    map.entry(name.to_owned())
        .or_insert_with(|| Gauge(Arc::new(AtomicU64::new(0.0f64.to_bits()))))
        .clone()
}

/// Looks up (registering on first use) the histogram `name`.
///
/// `bounds` must be sorted ascending; they are fixed by the first
/// registration — later callers get the existing histogram regardless of
/// the bounds they pass.
pub fn histogram(name: &str, bounds: &[f64]) -> Arc<Histogram> {
    let mut map = registry().histograms.lock().expect("metrics lock poisoned");
    Arc::clone(
        map.entry(name.to_owned())
            .or_insert_with(|| Arc::new(Histogram::new(bounds))),
    )
}

// Public because it is the element type of `Snapshot::histograms`.
/// One histogram in a [`Snapshot`]: `(name, bounds, bucket_counts, count,
/// sum)`.
pub type HistogramSnapshot = (String, Vec<f64>, Vec<u64>, u64, f64);

/// A point-in-time copy of every registered metric.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// `(name, value)` per counter, name-sorted.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` per gauge, name-sorted.
    pub gauges: Vec<(String, f64)>,
    /// One [`HistogramSnapshot`] per histogram, name-sorted.
    pub histograms: Vec<HistogramSnapshot>,
}

/// Snapshots all registered metrics.
pub fn snapshot() -> Snapshot {
    let counters = registry()
        .counters
        .lock()
        .expect("metrics lock poisoned")
        .iter()
        .map(|(k, v)| (k.clone(), v.get()))
        .collect();
    let gauges = registry()
        .gauges
        .lock()
        .expect("metrics lock poisoned")
        .iter()
        .map(|(k, v)| (k.clone(), v.get()))
        .collect();
    let histograms = registry()
        .histograms
        .lock()
        .expect("metrics lock poisoned")
        .iter()
        .map(|(k, h)| {
            (
                k.clone(),
                h.bounds().to_vec(),
                h.bucket_counts(),
                h.count(),
                h.sum(),
            )
        })
        .collect();
    Snapshot {
        counters,
        gauges,
        histograms,
    }
}

/// Writes the current snapshot to the trace as one `metric` event per
/// metric (level Info, target `metrics`). No-op when tracing is disabled.
pub fn emit() {
    if !crate::enabled(Level::Info) {
        return;
    }
    let snap = snapshot();
    for (name, value) in &snap.counters {
        event!(Level::Info, target: "metrics", "counter",
            name = name.as_str(), value = *value);
    }
    for (name, value) in &snap.gauges {
        event!(Level::Info, target: "metrics", "gauge",
            name = name.as_str(), value = *value);
    }
    for (name, bounds, buckets, count, sum) in &snap.histograms {
        let bounds_s = bounds
            .iter()
            .map(|b| format!("{b}"))
            .collect::<Vec<_>>()
            .join("|");
        let buckets_s = buckets
            .iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join("|");
        event!(Level::Info, target: "metrics", "histogram",
            name = name.as_str(), bounds = bounds_s, buckets = buckets_s,
            count = *count, sum = *sum);
    }
}

/// Removes every registered metric (tests).
pub fn reset() {
    registry()
        .counters
        .lock()
        .expect("metrics lock poisoned")
        .clear();
    registry()
        .gauges
        .lock()
        .expect("metrics lock poisoned")
        .clear();
    registry()
        .histograms
        .lock()
        .expect("metrics lock poisoned")
        .clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_share() {
        let c1 = counter("test.metrics.shared");
        let c2 = counter("test.metrics.shared");
        c1.add(3);
        c2.inc();
        assert_eq!(c1.get(), c2.get());
        assert!(c1.get() >= 4);
    }

    #[test]
    fn histogram_buckets_and_sum() {
        let h = histogram("test.metrics.hist", &[1.0, 10.0]);
        let before = h.count();
        h.record(0.5);
        h.record(5.0);
        h.record(100.0);
        assert_eq!(h.count(), before + 3);
        let b = h.bucket_counts();
        assert_eq!(b.len(), 3);
        assert!(h.sum() >= 105.5);
    }

    #[test]
    fn snapshot_contains_registered_names() {
        counter("test.metrics.snap").inc();
        let snap = snapshot();
        assert!(snap
            .counters
            .iter()
            .any(|(n, v)| n == "test.metrics.snap" && *v >= 1));
    }

    #[test]
    fn gauges_go_up_and_down_and_share() {
        let g1 = gauge("test.metrics.gauge");
        let g2 = gauge("test.metrics.gauge");
        g1.set(2.5);
        assert_eq!(g2.get(), 2.5);
        g2.add(1.5);
        g1.sub(3.0);
        assert!((g1.get() - 1.0).abs() < 1e-12);
        let snap = snapshot();
        assert!(snap
            .gauges
            .iter()
            .any(|(n, v)| n == "test.metrics.gauge" && (*v - 1.0).abs() < 1e-12));
    }

    #[test]
    fn quantile_uniform_distribution_is_exact_at_bucket_edges() {
        // 1..=100 into decade buckets: each bucket holds exactly 10 samples,
        // so linear interpolation recovers the true quantiles exactly.
        let bounds: Vec<f64> = (1..=10).map(|i| (i * 10) as f64).collect();
        let h = histogram("test.metrics.quantile_uniform", &bounds);
        for x in 1..=100 {
            h.record(x as f64);
        }
        assert_eq!(h.quantile(0.5), Some(50.0));
        assert_eq!(h.quantile(0.95), Some(95.0));
        assert_eq!(h.quantile(0.99), Some(99.0));
        assert_eq!(h.quantile(1.0), Some(100.0));
        // q = 0 lands at rank 0: the lower edge of the first bucket.
        assert_eq!(h.quantile(0.0), Some(0.0));
    }

    #[test]
    fn quantile_interpolates_within_a_bucket() {
        let h = histogram("test.metrics.quantile_interp", &[0.0, 100.0]);
        // 4 samples all in (0, 100]: p50 is the bucket midpoint.
        for x in [10.0, 20.0, 80.0, 90.0] {
            h.record(x);
        }
        assert_eq!(h.quantile(0.5), Some(50.0));
        assert_eq!(h.quantile(0.25), Some(25.0));
    }

    #[test]
    fn quantile_overflow_clamps_to_last_bound() {
        let h = histogram("test.metrics.quantile_overflow", &[1.0, 2.0]);
        h.record(0.5);
        h.record(1e9);
        h.record(1e9);
        assert_eq!(h.quantile(0.99), Some(2.0));
    }

    #[test]
    fn quantile_empty_and_unbounded_are_none() {
        let h = histogram("test.metrics.quantile_empty", &[1.0]);
        assert_eq!(h.quantile(0.5), None);
        let h2 = histogram("test.metrics.quantile_nobounds", &[]);
        h2.record(1.0);
        assert_eq!(h2.quantile(0.5), None);
    }

    #[test]
    fn quantile_single_sample_interpolates_its_bucket() {
        // One sample in (10, 20]: every rank lands in that bucket, so all
        // quantiles interpolate between its edges and never escape them.
        let h = histogram("test.metrics.quantile_single", &[10.0, 20.0, 30.0]);
        h.record(15.0);
        assert_eq!(h.quantile(0.0), Some(10.0));
        assert_eq!(h.quantile(0.5), Some(15.0));
        assert_eq!(h.quantile(1.0), Some(20.0));
        // Out-of-range q clamps rather than extrapolating.
        assert_eq!(h.quantile(-1.0), Some(10.0));
        assert_eq!(h.quantile(2.0), Some(20.0));
    }

    #[test]
    fn quantile_all_samples_in_one_bucket_stays_inside_it() {
        // Everything lands in (1, 2]: empty neighbours must be skipped and
        // the answer confined to the occupied bucket for any q.
        let h = histogram("test.metrics.quantile_one_bucket", &[1.0, 2.0, 3.0]);
        for _ in 0..8 {
            h.record(1.5);
        }
        for q in [0.0, 0.25, 0.5, 0.75, 0.99, 1.0] {
            let v = h.quantile(q).unwrap();
            assert!((1.0..=2.0).contains(&v), "q={q} escaped the bucket: {v}");
        }
        assert_eq!(h.quantile(0.5), Some(1.5));
        assert_eq!(h.quantile(1.0), Some(2.0));
    }
}
