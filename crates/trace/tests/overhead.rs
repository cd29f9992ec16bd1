//! Disabled-tracing overhead guarantees.
//!
//! The facade promises that when no level is enabled, `event!` and `span!`
//! cost a single relaxed atomic load and never touch the allocator. This
//! binary installs the testkit's counting global allocator to prove it (own
//! test binary: both the allocator and the trace level are process-global).

use std::time::Instant;

use apf_testkit::alloc::{serial, CountingAlloc};
use apf_trace::{event, span, Level};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc(std::alloc::System);

/// A hot loop mixing events (with string and float fields) and spans, as the
/// instrumented library code does.
fn traced_workload(iters: u64) -> u64 {
    let mut acc = 0u64;
    for i in 0..iters {
        event!(Level::Debug, target: "overhead", "tick",
            i = i, name = "layer-name", ratio = 0.25f32);
        let _s = span!(Level::Debug, target: "overhead", "step", i = i);
        acc = acc.wrapping_add(std::hint::black_box(i));
    }
    acc
}

#[test]
fn disabled_hot_path_does_not_allocate_and_is_cheap() {
    let serial = serial();
    // Tracing starts disabled (no init in this process). Warm up once so any
    // lazy runtime setup is excluded from the measurement.
    std::hint::black_box(traced_workload(10));

    let before = serial.allocs();
    std::hint::black_box(traced_workload(100_000));
    let after = serial.allocs();
    assert_eq!(
        after - before,
        0,
        "disabled event!/span! must not allocate (got {} allocations)",
        after - before
    );

    // Lenient wall-clock bound: 200k disabled event!+span! pairs in well
    // under a second even on a loaded CI machine. The real guarantee is the
    // single relaxed load; this is a smoke check against accidental
    // formatting or locking sneaking onto the disabled path.
    let start = Instant::now();
    std::hint::black_box(traced_workload(200_000));
    let elapsed = start.elapsed();
    assert!(
        elapsed.as_millis() < 900,
        "disabled tracing too slow: {elapsed:?} for 200k iterations"
    );
}
