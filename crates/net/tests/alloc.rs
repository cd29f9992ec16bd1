//! Zero-allocation guarantees for the networked hot path.
//!
//! The net crate's round loop is instrumented with spans, events, trace
//! contexts, and pre-resolved metric handles. With tracing disabled
//! (this process never calls `init`) every instrumentation site must cost
//! one relaxed atomic load and touch the allocator **zero** times, and the
//! metric-update path must stay allocation-free even when metrics are live
//! (handles are resolved once per run; updates are pure atomics). The
//! testkit's counting global allocator enforces both (own test binary: the
//! allocator and the trace level are process-global).

use apf_testkit::alloc::{serial, CountingAlloc};
use apf_trace::metrics::{counter, gauge, histogram};
use apf_trace::{current_context, event, span, Level, Role, TraceContext};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc(std::alloc::System);

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
    let serial = serial();
    // Warm-up excludes any lazy runtime setup from the measurement.
    std::hint::black_box(net_instrumentation_workload(10));
    let before = serial.allocs();
    std::hint::black_box(net_instrumentation_workload(50_000));
    let after = serial.allocs();
    assert_eq!(
        after - before,
        0,
        "disabled net spans/events must not allocate (got {})",
        after - before
    );
}

#[test]
fn trace_context_wire_path_does_not_allocate() {
    let serial = serial();
    // Per-frame context work on the wire path: construct, link, encode,
    // decode, read the ambient context. All fixed-size, all stack-only.
    let ctx = TraceContext::new(0xfeed_beef, Role::Client(2));
    std::hint::black_box(ctx.with_link(7).to_wire());
    let before = serial.allocs();
    let mut acc = 0u64;
    for i in 0..50_000u64 {
        let linked = ctx.with_link(i);
        let wire = linked.to_wire();
        let back = TraceContext::from_wire(std::hint::black_box(&wire)).unwrap();
        acc = acc.wrapping_add(back.link_span) ^ current_context().run_id;
    }
    std::hint::black_box(acc);
    let after = serial.allocs();
    assert_eq!(
        after - before,
        0,
        "TraceContext encode/decode must not allocate (got {})",
        after - before
    );
}

#[test]
fn metric_updates_through_resolved_handles_do_not_allocate() {
    let serial = serial();
    // Resolving a handle interns the name (allocates, once per run) —
    // updating through it afterwards is the per-round path and must not.
    let c = counter("alloc_test.wire_bytes");
    let g = gauge("alloc_test.clients_alive");
    let h = histogram("alloc_test.round_us", &[10.0, 100.0, 1000.0]);
    c.add(1);
    g.set(1.0);
    h.record(5.0);
    let before = serial.allocs();
    for i in 0..50_000u64 {
        c.add(i);
        g.set(i as f64);
        h.record((i % 1500) as f64);
    }
    let after = serial.allocs();
    assert_eq!(
        after - before,
        0,
        "metric updates must not allocate (got {})",
        after - before
    );
}
