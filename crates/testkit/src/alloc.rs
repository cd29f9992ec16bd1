//! The counting allocator behind the zero-allocation test binaries, with
//! the lock that serialises their measurements built in.
//!
//! A binary installs it as its global allocator,
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: apf_testkit::alloc::CountingAlloc = CountingAlloc(std::alloc::System);
//! ```
//!
//! and every test takes [`serial`] for its whole body and reads the count
//! through the guard. Allocations are counted per thread, so the libtest
//! harness's own activity on other threads (output capture, bookkeeping)
//! cannot pollute a measurement; the lock additionally keeps two tests of
//! one binary from flipping process-global state (trace level, profiler
//! session, metrics registry) under each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Mutex, MutexGuard};

// Const-initialized `thread_local!` never allocates, so reading it from
// inside the allocator is safe; `try_with` covers thread teardown.
thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
}

/// Counts every `alloc`/`realloc` of the calling thread, then defers to the
/// wrapped allocator (`System`, or the production stack under test).
pub struct CountingAlloc<A = System>(pub A);

unsafe impl<A: GlobalAlloc> GlobalAlloc for CountingAlloc<A> {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { self.0.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { self.0.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { self.0.realloc(ptr, layout, new_size) }
    }
}

/// The measurement lock of this test binary, held.
pub struct Serial {
    _guard: MutexGuard<'static, ()>,
}

impl Serial {
    /// Allocator calls the current thread has made so far (always 0 unless
    /// the binary installed [`CountingAlloc`]).
    pub fn allocs(&self) -> u64 {
        THREAD_ALLOCS.with(Cell::get)
    }
}

/// Takes the binary-wide measurement lock; hold it for the test's whole
/// body. (A panicking holder poisons the mutex; the `()` inside cannot be
/// left inconsistent, so later tests carry on.)
pub fn serial() -> Serial {
    static SERIAL: Mutex<()> = Mutex::new(());
    Serial {
        _guard: SERIAL.lock().unwrap_or_else(|e| e.into_inner()),
    }
}
