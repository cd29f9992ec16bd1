//! The in-memory time-series store: fixed-capacity ring buffers keyed by
//! metric name.
//!
//! Each series holds up to `capacity` `(x, value)` points; older points are
//! evicted first. The x coordinate is supplied by the producer (the fedsim
//! runner uses the round index; [`crate::SeriesSink`] uses a per-series
//! sample counter), so stored histories are deterministic and clock-free.
//! The number of distinct series is also bounded — a runaway producer cannot
//! grow memory without limit; series beyond the cap are counted and
//! silently dropped.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Default per-series point capacity.
pub const DEFAULT_CAPACITY: usize = 1024;
/// Default bound on the number of distinct series.
const DEFAULT_MAX_SERIES: usize = 256;

struct Ring {
    points: VecDeque<(f64, f64)>,
    /// Total points ever pushed (drives the x coordinate of [`SeriesStore::push`]).
    pushed: u64,
}

/// A bounded, thread-safe collection of named time series.
pub struct SeriesStore {
    series: Mutex<BTreeMap<String, Ring>>,
    capacity: usize,
    max_series: usize,
    rejected: AtomicU64,
}

impl std::fmt::Debug for SeriesStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SeriesStore")
            .field("capacity", &self.capacity)
            .field("max_series", &self.max_series)
            .finish()
    }
}

impl Default for SeriesStore {
    fn default() -> Self {
        SeriesStore::new(DEFAULT_CAPACITY, DEFAULT_MAX_SERIES)
    }
}

impl SeriesStore {
    /// Creates a store holding at most `max_series` series of `capacity`
    /// points each (both clamped to at least 1).
    pub fn new(capacity: usize, max_series: usize) -> SeriesStore {
        SeriesStore {
            series: Mutex::new(BTreeMap::new()),
            capacity: capacity.max(1),
            max_series: max_series.max(1),
            rejected: AtomicU64::new(0),
        }
    }

    /// Appends `(x, value)` to series `name`, evicting the oldest point of a
    /// full ring. New series beyond the series cap are dropped (counted in
    /// [`SeriesStore::rejected`]).
    pub fn record(&self, name: &str, x: f64, value: f64) {
        let Ok(mut map) = self.series.lock() else {
            return;
        };
        if !map.contains_key(name) && map.len() >= self.max_series {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let ring = map.entry(name.to_owned()).or_insert_with(|| Ring {
            points: VecDeque::with_capacity(16),
            pushed: 0,
        });
        if ring.points.len() == self.capacity {
            ring.points.pop_front();
        }
        ring.points.push_back((x, value));
        ring.pushed += 1;
    }

    /// Appends `value` with x = the series' cumulative sample count (0-based).
    pub fn push(&self, name: &str, value: f64) {
        let x = {
            let Ok(map) = self.series.lock() else { return };
            map.get(name).map_or(0, |r| r.pushed)
        };
        self.record(name, x as f64, value);
    }

    /// A copy of series `name`, oldest point first; `None` if unknown.
    pub fn series(&self, name: &str) -> Option<Vec<(f64, f64)>> {
        self.series
            .lock()
            .ok()?
            .get(name)
            .map(|r| r.points.iter().copied().collect())
    }

    /// All series names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.series
            .lock()
            .map(|m| m.keys().cloned().collect())
            .unwrap_or_default()
    }

    /// Points recorded against series beyond the series cap (and dropped).
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_evicts_oldest() {
        let s = SeriesStore::new(3, 8);
        for i in 0..5 {
            s.record("a", i as f64, (i * 10) as f64);
        }
        assert_eq!(
            s.series("a").unwrap(),
            vec![(2.0, 20.0), (3.0, 30.0), (4.0, 40.0)]
        );
    }

    #[test]
    fn push_assigns_monotone_x() {
        let s = SeriesStore::new(2, 8);
        s.push("b", 1.0);
        s.push("b", 2.0);
        s.push("b", 3.0);
        // Capacity 2: points 1 and 2 survive, x keeps counting from birth.
        assert_eq!(s.series("b").unwrap(), vec![(1.0, 2.0), (2.0, 3.0)]);
    }

    #[test]
    fn series_cap_is_enforced() {
        let s = SeriesStore::new(4, 2);
        s.record("a", 0.0, 1.0);
        s.record("b", 0.0, 2.0);
        s.record("c", 0.0, 3.0);
        assert_eq!(s.names(), vec!["a".to_owned(), "b".to_owned()]);
        assert_eq!(s.rejected(), 1);
        assert!(s.series("c").is_none());
    }
}
