//! The disabled profiler must be free: with NO profiler running and NO
//! tracing configured, every `span!`/`event!` site costs one relaxed atomic
//! load and zero allocator calls — even with [`apf_prof::alloc::ProfAlloc`]
//! installed as the global allocator, as the profiled binaries do.
//!
//! A counting allocator wraps `ProfAlloc` (which wraps `System`), so this
//! measures the exact production stack: span gate -> prof allocator ->
//! system. Own test binary: the allocator and trace gate are
//! process-global.

use apf_prof::alloc::ProfAlloc;
use apf_testkit::alloc::{serial, CountingAlloc};
use apf_trace::{event, span, Level};

// The profiler session and the trace gate are process-global, and libtest
// runs the tests of this binary on parallel threads: one test starting a
// session would break the other's "nothing is running" precondition, so
// every test holds `serial()` for its whole body.
#[global_allocator]
static ALLOC: CountingAlloc<ProfAlloc> = CountingAlloc(ProfAlloc);

/// The span/event shapes the fedsim round loop and net round loop emit,
/// with tracing AND profiling disabled.
fn instrumentation_workload(iters: u64) -> u64 {
    let mut acc = 0u64;
    for round in 0..iters {
        let round_span = span!(Level::Info, target: "fedsim", "round", round = round);
        {
            let _local = span!(Level::Info, target: "fedsim", "local_train",
                round = round, clients = 3usize);
            event!(Level::Debug, target: "fedsim.client", "local_round",
                round = round, client = 1usize, loss = 0.5f32);
        }
        {
            let _agg = span!(Level::Info, target: "fedsim", "aggregate", round = round);
        }
        acc = acc.wrapping_add(std::hint::black_box(round_span.id()));
    }
    acc
}

#[test]
fn disabled_profiler_and_tracing_do_not_allocate() {
    let serial = serial();
    assert!(!apf_prof::is_running());
    assert!(!apf_trace::stack_tracking());
    // Warm-up excludes any lazy runtime setup from the measurement.
    std::hint::black_box(instrumentation_workload(10));
    let before = serial.allocs();
    std::hint::black_box(instrumentation_workload(50_000));
    let after = serial.allocs();
    assert_eq!(
        after - before,
        0,
        "disabled spans through ProfAlloc must not allocate (got {})",
        after - before
    );
}

#[test]
fn enabling_then_disabling_restores_the_free_path() {
    let serial = serial();
    // A completed profiling session must leave the disabled path free
    // again (modulo the retained per-thread stack registration).
    assert!(apf_prof::start(std::time::Duration::from_millis(1)));
    std::hint::black_box(instrumentation_workload(100));
    let profile = apf_prof::stop().expect("profiler was running");
    std::hint::black_box(profile);
    assert!(!apf_trace::stack_tracking());
    std::hint::black_box(instrumentation_workload(10));
    let before = serial.allocs();
    std::hint::black_box(instrumentation_workload(20_000));
    let after = serial.allocs();
    assert_eq!(
        after - before,
        0,
        "post-session disabled spans must not allocate (got {})",
        after - before
    );
}
