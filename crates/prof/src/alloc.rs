//! Allocation-site profiling: a global allocator that attributes every
//! allocation to the innermost open span on the allocating thread.
//!
//! This generalizes the workspace's counting-allocator *test* pattern
//! (`crates/net/tests/alloc.rs`) into an opt-in production facility:
//! instead of asserting "this path allocates zero bytes", a profiled run
//! reports *which span* allocated, how often, and how many bytes — so a
//! scratch-pool miss or a hot-path regression shows up as data.
//!
//! Binaries opt in by installing [`ProfAlloc`]:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: apf_prof::alloc::ProfAlloc = apf_prof::alloc::ProfAlloc;
//! ```
//!
//! Attribution is off by default and costs one relaxed atomic load per
//! allocator call. When on (`APF_PROF=alloc` or [`set_enabled`]), each
//! alloc/realloc adds to a fixed table of atomics indexed by the current
//! span's interned name id ([`apf_trace::stack::current_name_id`]) — no
//! allocation, no locks, no TLS with destructors, so the hook is safe to
//! run inside the allocator itself.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Attribution table size. Slot 0 = allocations outside any span; interned
/// name ids at or past the last slot share it (reported as `"(other)"`).
const SLOTS: usize = 256;

static ENABLED: AtomicBool = AtomicBool::new(false);

#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);
static COUNTS: [AtomicU64; SLOTS] = [ZERO; SLOTS];
static BYTES: [AtomicU64; SLOTS] = [ZERO; SLOTS];

/// Turns allocation attribution on or off (no-op table writes when off).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether attribution is currently on.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Clears the attribution table.
pub fn reset() {
    for slot in 0..SLOTS {
        COUNTS[slot].store(0, Ordering::Relaxed);
        BYTES[slot].store(0, Ordering::Relaxed);
    }
}

/// Non-empty attribution slots as `(name_id, count, bytes)` (name id 0 =
/// outside any span). The caller resolves ids to names.
pub fn sites() -> Vec<(u32, u64, u64)> {
    (0..SLOTS)
        .filter_map(|slot| {
            let count = COUNTS[slot].load(Ordering::Relaxed);
            let bytes = BYTES[slot].load(Ordering::Relaxed);
            (count > 0).then_some((slot as u32, count, bytes))
        })
        .collect()
}

#[inline]
fn attribute(bytes: usize) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    let id = apf_trace::stack::current_name_id() as usize;
    let slot = id.min(SLOTS - 1);
    COUNTS[slot].fetch_add(1, Ordering::Relaxed);
    BYTES[slot].fetch_add(bytes as u64, Ordering::Relaxed);
}

/// The attributing global allocator: forwards everything to [`System`],
/// adding one relaxed load (plus two relaxed adds when attribution is on)
/// per alloc/realloc.
#[derive(Debug, Default, Clone, Copy)]
pub struct ProfAlloc;

unsafe impl GlobalAlloc for ProfAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        attribute(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        attribute(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attribution_table_round_trips() {
        reset();
        assert!(sites().is_empty());
        set_enabled(true);
        // Drive the hook directly (this test binary does not install the
        // allocator, so table writes come only from here).
        attribute(128);
        attribute(64);
        set_enabled(false);
        attribute(9999); // ignored while off
        let sites = sites();
        assert_eq!(sites.len(), 1);
        let (id, count, bytes) = sites[0];
        assert_eq!(id, 0, "no span open in this test");
        assert_eq!(count, 2);
        assert_eq!(bytes, 192);
        reset();
        assert!(super::sites().is_empty());
    }

    #[test]
    fn overflow_ids_share_the_last_slot() {
        // attribute() cannot be handed a synthetic current id, so assert the
        // clamp logic via slot arithmetic. No table or flag access: the
        // table is process-global and the round-trip test above runs
        // concurrently.
        assert_eq!((SLOTS + 50).min(SLOTS - 1), SLOTS - 1);
    }
}
