//! Zero-allocation guarantees for the networked hot path.
//!
//! The net crate's round loop is instrumented with spans, events, trace
//! contexts, and pre-resolved metric handles. With tracing disabled
//! (this process never calls `init`) every instrumentation site must cost
//! one relaxed atomic load and touch the allocator **zero** times, and the
//! metric-update path must stay allocation-free even when metrics are live
//! (handles are resolved once per run; updates are pure atomics). A
//! counting global allocator enforces both (own test binary: the allocator
//! and the trace level are process-global).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Mutex, MutexGuard};

use apf_trace::metrics::{counter, gauge, histogram};
use apf_trace::{current_context, event, span, Level, Role, TraceContext};

// Per-thread counting so libtest harness threads cannot pollute the
// measurement; const-initialized thread_local never allocates, so reading
// it inside the allocator is safe.
thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

fn bump() {
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

/// Serialises the measurements. The trace level and the metrics registry
/// are process-global and libtest runs the tests of this binary on parallel
/// threads; allocations are counted per thread, so they do not race today,
/// but holding this for each test's whole body keeps it that way if a test
/// here ever enables tracing (as `apf-prof`'s twin binary does with its
/// profiler). (A panicking holder poisons it; the `()` inside cannot be
/// left inconsistent, so later tests carry on.)
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// The exact span/event shapes `server.rs`/`client.rs` emit each round,
/// run with tracing disabled.
fn net_instrumentation_workload(iters: u64) -> u64 {
    let mut acc = 0u64;
    for round in 0..iters {
        let mut round_span = span!(Level::Info, target: "net.server", "round",
            round = round);
        let mut sp = span!(Level::Debug, target: "net.server", "push_read",
            round = round, client = 1usize);
        sp.record("bytes_wire", 4096u64);
        drop(sp);
        event!(Level::Debug, target: "net.comm", "transfer",
            round = round, client = 1usize, dir = "up", bytes = 2048u64);
        let _sp = span!(Level::Debug, target: "net.server", "reduce",
            round = round, alive = 3usize);
        event!(Level::Debug, target: "net.server", "round_bytes",
            round = round, bytes_up = 100u64, bytes_down = 100u64,
            cum_bytes = 12345u64, alive = 3usize);
        round_span.record("alive", 3usize);
        acc = acc.wrapping_add(std::hint::black_box(round_span.id()));
    }
    acc
}

#[test]
fn disabled_net_instrumentation_does_not_allocate() {
    let _serial = serial();
    // Warm-up excludes any lazy runtime setup from the measurement.
    std::hint::black_box(net_instrumentation_workload(10));
    let before = allocs();
    std::hint::black_box(net_instrumentation_workload(50_000));
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "disabled net spans/events must not allocate (got {})",
        after - before
    );
}

#[test]
fn trace_context_wire_path_does_not_allocate() {
    let _serial = serial();
    // Per-frame context work on the wire path: construct, link, encode,
    // decode, read the ambient context. All fixed-size, all stack-only.
    let ctx = TraceContext::new(0xfeed_beef, Role::Client(2));
    std::hint::black_box(ctx.with_link(7).to_wire());
    let before = allocs();
    let mut acc = 0u64;
    for i in 0..50_000u64 {
        let linked = ctx.with_link(i);
        let wire = linked.to_wire();
        let back = TraceContext::from_wire(std::hint::black_box(&wire)).unwrap();
        acc = acc.wrapping_add(back.link_span) ^ current_context().run_id;
    }
    std::hint::black_box(acc);
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "TraceContext encode/decode must not allocate (got {})",
        after - before
    );
}

#[test]
fn metric_updates_through_resolved_handles_do_not_allocate() {
    let _serial = serial();
    // Resolving a handle interns the name (allocates, once per run) —
    // updating through it afterwards is the per-round path and must not.
    let c = counter("alloc_test.wire_bytes");
    let g = gauge("alloc_test.clients_alive");
    let h = histogram("alloc_test.round_us", &[10.0, 100.0, 1000.0]);
    c.add(1);
    g.set(1.0);
    h.record(5.0);
    let before = allocs();
    for i in 0..50_000u64 {
        c.add(i);
        g.set(i as f64);
        h.record((i % 1500) as f64);
    }
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "metric updates must not allocate (got {})",
        after - before
    );
}
