//! Size-class slab store: recycled `f32` buffers in power-of-two size
//! classes, behind one mutex per class.
//!
//! The thread-local [`scratch`](crate::scratch) pool serves the *kernel* hot
//! path, where every thread's take/give pattern recurs each batch. This
//! store serves the one traffic that does not recur per thread: the
//! population runner's data shards. `PopulationRunner::make_shard` takes a
//! buffer for each client it materializes and `materialize` gives back the
//! buffer of the shard that client replaces — both on the runner's own
//! thread, always for the same `per_client * row` floats — and the buffer
//! spends the time in between inside a `Dataset` that pool workers read.
//! The class lists are process-wide and locked so that any thread may take
//! and give; the lock is uncontended in that traffic.
//!
//! Buffers are allocated at the full capacity of their size class
//! (`1 << class` floats), so any request that rounds to a class is served by
//! any cached buffer of that class — after a warm-up round, steady-state
//! churn allocates nothing no matter which clients are sampled.
//! [`global_stats`] exposes hit/miss/alloc/resident counters so
//! `population-smoke` and the benchmark can assert exactly that.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Number of size classes: class `c` holds buffers of capacity `1 << c`
/// floats, up to `1 << 24` (64 MiB) — the scratch pool's per-thread budget.
const NUM_CLASSES: usize = 25;
/// Buffers kept per class before dropping.
const PER_CLASS: usize = 64;

/// Process-wide totals. These feed the `slab.*` gauges the fedsim runners
/// publish.
static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
/// Bytes actually allocated on misses (class capacity * 4).
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
/// Bytes currently resident in the class lists. Falls when buffers are taken
/// out, rises when they are given back; flat across rounds at steady state.
static RESIDENT_BYTES: AtomicU64 = AtomicU64::new(0);

/// Process-wide slab totals: `(hits, misses, alloc_bytes, resident_bytes)`.
pub fn global_stats() -> (u64, u64, u64, u64) {
    (
        HITS.load(Ordering::Relaxed),
        MISSES.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
        RESIDENT_BYTES.load(Ordering::Relaxed),
    )
}

/// The size class serving a request of `len` floats: the smallest `c` with
/// `1 << c >= len`. Returns `NUM_CLASSES` or more for oversized requests
/// (served by a plain allocation that is never cached).
fn class_of(len: usize) -> usize {
    if len <= 1 {
        return 0;
    }
    (usize::BITS - (len - 1).leading_zeros()) as usize
}

/// Per-class free lists.
static CLASSES: [Mutex<Vec<Vec<f32>>>; NUM_CLASSES] =
    [const { Mutex::new(Vec::new()) }; NUM_CLASSES];

fn lock(class: usize) -> std::sync::MutexGuard<'static, Vec<Vec<f32>>> {
    CLASSES[class]
        .lock()
        .expect("a thread panicked inside slab::take or slab::give")
}

/// Takes a zero-filled buffer of exactly `len` elements from the store,
/// allocating (a full size-class capacity) only on a miss.
pub fn take(len: usize) -> Vec<f32> {
    let class = class_of(len);
    let cached = if class < NUM_CLASSES {
        lock(class).pop()
    } else {
        None
    };
    let mut buf = match cached {
        Some(mut buf) => {
            RESIDENT_BYTES.fetch_sub(buf.capacity() as u64 * 4, Ordering::Relaxed);
            HITS.fetch_add(1, Ordering::Relaxed);
            buf.clear();
            buf
        }
        None => {
            // Oversized requests get exactly what they asked for.
            let cap = if class < NUM_CLASSES { 1 << class } else { len };
            MISSES.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(cap as u64 * 4, Ordering::Relaxed);
            Vec::with_capacity(cap)
        }
    };
    buf.resize(len, 0.0);
    buf
}

/// Returns a buffer to the store for reuse by any thread.
///
/// Zero-capacity and oversized buffers are dropped, as is a buffer whose
/// class list is full. The buffer files under `floor(log2(capacity))`, so
/// its capacity covers every request of that class.
pub fn give(buf: Vec<f32>) {
    let cap = buf.capacity();
    if cap == 0 {
        return;
    }
    let class = cap.ilog2() as usize;
    if class >= NUM_CLASSES {
        return;
    }
    let mut list = lock(class);
    if list.len() < PER_CLASS {
        RESIDENT_BYTES.fetch_add(cap as u64 * 4, Ordering::Relaxed);
        list.push(buf);
    }
}

/// Drops every cached buffer. For tests and for measuring from a cold store.
pub fn clear() {
    for class in 0..NUM_CLASSES {
        for buf in lock(class).drain(..) {
            RESIDENT_BYTES.fetch_sub(buf.capacity() as u64 * 4, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Slab state is process-global; serialize the tests that assert on it.
    static LOCK: Mutex<()> = Mutex::new(());

    /// `(hits, misses)` since `since`.
    fn traffic(since: (u64, u64, u64, u64)) -> (u64, u64) {
        let now = global_stats();
        (now.0 - since.0, now.1 - since.1)
    }

    #[test]
    fn take_rounds_up_to_class_and_reuses() {
        let _g = LOCK.lock().unwrap();
        clear();
        let s0 = global_stats();
        let a = take(100);
        assert_eq!(a.len(), 100);
        assert!(a.capacity() >= 128, "class capacity is 1 << 7");
        assert!(a.iter().all(|&x| x == 0.0));
        give(a);
        assert_eq!(traffic(s0), (0, 1));
        // Any request in the same class reuses the buffer.
        let mut b = take(120);
        assert_eq!(traffic(s0), (1, 1));
        b.fill(7.0);
        give(b);
        let c = take(128);
        assert!(c.iter().all(|&x| x == 0.0), "reused buffer must be zeroed");
        give(c);
        clear();
    }

    #[test]
    fn buffers_cross_threads() {
        let _g = LOCK.lock().unwrap();
        clear();
        // A worker thread warms the store; this thread's take is a hit.
        std::thread::spawn(|| {
            give(take(1 << 10));
        })
        .join()
        .unwrap();
        let s0 = global_stats();
        let b = take(1 << 10);
        assert_eq!(traffic(s0), (1, 0), "cross-thread reuse must hit");
        give(b);
        clear();
    }

    #[test]
    fn resident_bytes_track_cached_buffers() {
        let _g = LOCK.lock().unwrap();
        clear();
        let (.., r0) = global_stats();
        let a = take(1 << 9); // capacity exactly 512 floats
        give(a);
        let (.., r1) = global_stats();
        assert_eq!(r1 - r0, 512 * 4, "give must add the class bytes");
        let a = take(1 << 9);
        let (.., r2) = global_stats();
        assert_eq!(r2, r0, "take must remove the class bytes");
        give(a);
        clear();
        let (.., r3) = global_stats();
        assert_eq!(r3, r0, "clear must drain resident bytes");
    }

    #[test]
    fn oversized_requests_bypass_the_store() {
        let _g = LOCK.lock().unwrap();
        clear();
        let huge = 1 << 25;
        let b = take(huge);
        assert_eq!(b.len(), huge);
        give(b);
        let (.., r) = global_stats();
        assert!(
            (0..NUM_CLASSES).all(|c| lock(c).is_empty()),
            "oversized buffers are never cached"
        );
        assert_eq!(r, 0, "oversized give must not count resident");
        clear();
    }

    #[test]
    fn class_lists_cap_and_stop_counting_resident() {
        let _g = LOCK.lock().unwrap();
        clear();
        let many: Vec<_> = (0..(PER_CLASS + 10)).map(|_| take(1 << 5)).collect();
        for b in many {
            give(b);
        }
        assert_eq!(lock(5).len(), PER_CLASS);
        let (.., r) = global_stats();
        assert_eq!(
            r,
            PER_CLASS as u64 * 32 * 4,
            "dropped buffers are not resident"
        );
        clear();
    }
}
