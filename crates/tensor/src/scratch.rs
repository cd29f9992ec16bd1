//! Thread-local scratch workspace: recycled `f32` buffers for the hot path.
//!
//! The GEMM packing buffers, im2col planes, and the forward/backward
//! activation tensors in `apf-nn` all have sizes that recur every batch.
//! Allocating them per call costs a trip through the global allocator (and,
//! for large buffers, fresh page faults) thousands of times per round. This
//! module keeps a small per-thread pool of previously used buffers:
//! [`take`] hands out a cleared buffer (reusing the best-fitting pooled one
//! when available), [`give`] returns a buffer to the pool.
//!
//! Buffers never migrate between threads — each pool is thread-local, so
//! there is no locking and no sharing. A buffer taken on one pool thread and
//! given back on another simply warms the second thread's pool; steady-state
//! reuse only requires that each thread's take/give pattern recurs, which it
//! does because `apf-par` tasks run the same kernels round after round.
//!
//! [`stats`] exposes take/hit/miss counters so tests (and the benchmark
//! harness) can assert the steady state allocates nothing: after a warm-up round,
//! `misses` must stay flat across further training rounds.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Max buffers retained per thread. Beyond this, [`give`] drops the incoming
/// buffer (the pool keeps its larger residents).
const MAX_BUFS: usize = 64;
/// Max total retained capacity per thread, in `f32` elements (64 MiB).
const MAX_FLOATS: usize = 1 << 24;

/// Counters for scratch-pool traffic on the calling thread.
///
/// `takes == hits + misses`; a miss is a real heap allocation. `gives`
/// counts buffers returned (whether or not the pool retained them).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScratchStats {
    /// Buffers requested via [`take`].
    pub takes: u64,
    /// Requests served from the pool (no allocation).
    pub hits: u64,
    /// Requests that had to allocate.
    pub misses: u64,
    /// Buffers handed back via [`give`].
    pub gives: u64,
}

/// Process-wide totals across every thread's pool, updated alongside the
/// per-thread counters (relaxed adds; the per-thread [`stats`] stay the
/// source of truth for single-thread asserts). These feed the
/// `scratch.hits`/`scratch.misses`/`scratch.alloc_bytes` gauges the fedsim
/// runner publishes, so pool health is visible on `/metrics` of any run.
static GLOBAL_HITS: AtomicU64 = AtomicU64::new(0);
static GLOBAL_MISSES: AtomicU64 = AtomicU64::new(0);
/// Bytes actually allocated on misses (capacity requested * 4).
static GLOBAL_ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// Process-wide scratch totals: `(hits, misses, alloc_bytes)` summed over
/// every thread since process start ([`reset_stats`]/[`clear`] reset only
/// the calling thread's counters, not these).
pub fn global_stats() -> (u64, u64, u64) {
    (
        GLOBAL_HITS.load(Ordering::Relaxed),
        GLOBAL_MISSES.load(Ordering::Relaxed),
        GLOBAL_ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

#[derive(Default)]
struct Pool {
    bufs: Vec<Vec<f32>>,
    total_cap: usize,
    stats: ScratchStats,
}

thread_local! {
    static POOL: RefCell<Pool> = RefCell::new(Pool::default());
}

/// Takes a cleared buffer with capacity at least `len` from the pool,
/// allocating only when no pooled buffer is large enough (a `miss`).
/// The returned buffer has `len() == 0`.
fn take_raw(len: usize) -> Vec<f32> {
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        p.stats.takes += 1;
        // Best fit: the smallest pooled buffer that is large enough.
        let best = p
            .bufs
            .iter()
            .enumerate()
            .filter(|(_, b)| b.capacity() >= len)
            .min_by_key(|(_, b)| b.capacity())
            .map(|(i, _)| i);
        match best {
            Some(i) => {
                p.stats.hits += 1;
                GLOBAL_HITS.fetch_add(1, Ordering::Relaxed);
                let mut buf = p.bufs.swap_remove(i);
                p.total_cap -= buf.capacity();
                buf.clear();
                buf
            }
            None => {
                p.stats.misses += 1;
                GLOBAL_MISSES.fetch_add(1, Ordering::Relaxed);
                GLOBAL_ALLOC_BYTES.fetch_add(len as u64 * 4, Ordering::Relaxed);
                Vec::with_capacity(len)
            }
        }
    })
}

/// Takes a zero-filled buffer of exactly `len` elements from the pool.
pub fn take(len: usize) -> Vec<f32> {
    let mut buf = take_raw(len);
    buf.resize(len, 0.0);
    buf
}

/// Takes a buffer holding a copy of `src` from the pool (no zero-fill pass).
pub fn take_copy(src: &[f32]) -> Vec<f32> {
    let mut buf = take_raw(src.len());
    buf.extend_from_slice(src);
    buf
}

/// Takes an *empty* buffer with capacity at least `cap` from the pool, for
/// callers that build content with `extend_from_slice` (no zero-fill pass).
pub fn take_reserved(cap: usize) -> Vec<f32> {
    take_raw(cap)
}

/// Returns a buffer to the calling thread's pool for reuse.
///
/// Zero-capacity buffers are dropped. When the pool is at capacity
/// ([`MAX_BUFS`] buffers or [`MAX_FLOATS`] total elements), the smallest
/// resident buffers are evicted to make room; an incoming buffer larger
/// than the whole budget is simply dropped.
pub fn give(buf: Vec<f32>) {
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        p.stats.gives += 1;
        if buf.capacity() == 0 || buf.capacity() > MAX_FLOATS {
            return;
        }
        while p.bufs.len() >= MAX_BUFS || p.total_cap + buf.capacity() > MAX_FLOATS {
            let smallest = p
                .bufs
                .iter()
                .enumerate()
                .min_by_key(|(_, b)| b.capacity())
                .map(|(i, _)| i);
            match smallest {
                Some(i) => {
                    let evicted = p.bufs.swap_remove(i);
                    p.total_cap -= evicted.capacity();
                }
                None => break,
            }
        }
        p.total_cap += buf.capacity();
        p.bufs.push(buf);
    });
}

/// Snapshot of the calling thread's scratch counters.
pub fn stats() -> ScratchStats {
    POOL.with(|p| p.borrow().stats)
}

/// Resets the calling thread's scratch counters (the pooled buffers stay).
pub fn reset_stats() {
    POOL.with(|p| p.borrow_mut().stats = ScratchStats::default());
}

/// Drops every pooled buffer on the calling thread and resets counters.
pub fn clear() {
    POOL.with(|p| *p.borrow_mut() = Pool::default());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_give_reuses_buffers() {
        clear();
        let a = take(100);
        assert_eq!(a.len(), 100);
        assert!(a.iter().all(|&x| x == 0.0));
        give(a);
        let s0 = stats();
        assert_eq!(s0.misses, 1);
        // Second take of the same size must be a hit.
        let b = take(100);
        let s1 = stats();
        assert_eq!(s1.hits, 1);
        assert_eq!(s1.misses, 1);
        assert!(b.iter().all(|&x| x == 0.0), "reused buffer must be zeroed");
        give(b);
        clear();
    }

    #[test]
    fn take_copy_copies_without_zeroing() {
        clear();
        give(take(8));
        let c = take_copy(&[1.0, 2.0, 3.0]);
        assert_eq!(c, vec![1.0, 2.0, 3.0]);
        assert_eq!(stats().hits, 1, "take_copy must reuse the pooled buffer");
        give(c);
        clear();
    }

    #[test]
    fn best_fit_prefers_smallest_adequate() {
        clear();
        give(Vec::with_capacity(1000));
        give(Vec::with_capacity(10));
        let b = take(5);
        assert!(b.capacity() < 1000, "should reuse the small buffer");
        give(b);
        let big = take(500);
        assert!(big.capacity() >= 1000, "should reuse the large buffer");
        clear();
    }

    #[test]
    fn global_stats_accumulate_across_threads() {
        let (h0, m0, b0) = global_stats();
        clear();
        give(take(16)); // miss (64 bytes) then pooled
        let a = take(16); // hit
        give(a);
        std::thread::spawn(|| {
            clear();
            let b = take(8); // miss on a fresh thread (32 bytes)
            give(b);
            clear();
        })
        .join()
        .unwrap();
        let (h1, m1, b1) = global_stats();
        assert!(h1 > h0, "hits {h0} -> {h1}");
        assert!(m1 >= m0 + 2, "misses {m0} -> {m1}");
        assert!(b1 >= b0 + 64 + 32, "alloc bytes {b0} -> {b1}");
        clear();
    }

    #[test]
    fn pool_respects_buffer_cap() {
        clear();
        for _ in 0..(MAX_BUFS + 10) {
            give(Vec::with_capacity(4));
        }
        POOL.with(|p| assert!(p.borrow().bufs.len() <= MAX_BUFS));
        clear();
    }
}
