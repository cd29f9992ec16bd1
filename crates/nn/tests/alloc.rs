//! Steady-state allocation test: after a warm-up round, the GEMM/conv
//! training hot path must be served entirely from the thread-local scratch
//! pool — zero buffer allocations (`misses`) per further step.
//!
//! Runs under `with_threads(1)` so every kernel executes on the test thread
//! and the pool counters observed here cover all hot-path traffic.

use apf::FreezeMask;
use apf_nn::models::{lenet5, mlp};
use apf_nn::{evaluate, train_batch, Sgd};
use apf_tensor::{scratch, seeded_rng, uniform_init, Tensor};

fn batch(n: usize) -> (Tensor, Vec<usize>) {
    let mut rng = seeded_rng(7);
    let x = uniform_init(&[n, 3, 16, 16], -1.0, 1.0, &mut rng);
    let labels = (0..n).map(|i| i % 10).collect();
    (x, labels)
}

#[test]
fn training_steady_state_allocates_no_tensor_buffers() {
    // The guard the counting-allocator binaries (`apf-trace`, `apf-prof`,
    // `apf-net`) take: the counters here are per-thread and do not race
    // today, and a kernel that one day moves work onto the shared pool
    // cannot turn this into a flaky tier-1 test.
    let _serial = apf_testkit::alloc::serial();
    apf_par::with_threads(1, || {
        scratch::clear();
        let mut model = lenet5(3);
        let mut opt = Sgd::new(0.01).with_momentum(0.9);
        let frozen = FreezeMask::all_unfrozen(model.param_count());
        let (x, labels) = batch(8);
        // Warm-up: populate layer caches, optimizer state, and the pool.
        for _ in 0..3 {
            train_batch(&mut model, &mut opt, &x, &labels, &frozen, None);
        }
        scratch::reset_stats();
        for _ in 0..5 {
            train_batch(&mut model, &mut opt, &x, &labels, &frozen, None);
        }
        let s = scratch::stats();
        assert!(s.takes > 0, "scratch pool unused — instrumentation broken?");
        assert_eq!(
            s.misses, 0,
            "steady-state training allocated tensor buffers: {s:?}"
        );
        scratch::clear();
    });
}

#[test]
fn mlp_training_steady_state_allocates_no_tensor_buffers() {
    // The population MLP at batch 4 and the benchmark MLP at batch 8: both
    // linear layers run the batch-row kernels, whose transposed input must
    // come from the pool too.
    let _serial = apf_testkit::alloc::serial();
    apf_par::with_threads(1, || {
        for (dims, n) in [([768, 16, 10], 4), ([768, 256, 10], 8)] {
            scratch::clear();
            let mut model = mlp("m", &dims, 5);
            let mut opt = Sgd::new(0.05).with_momentum(0.9);
            let frozen = FreezeMask::all_unfrozen(model.param_count());
            let mut rng = seeded_rng(9);
            let x = uniform_init(&[n, dims[0]], -1.0, 1.0, &mut rng);
            let labels: Vec<usize> = (0..n).map(|i| i % 10).collect();
            for _ in 0..3 {
                train_batch(&mut model, &mut opt, &x, &labels, &frozen, None);
            }
            scratch::reset_stats();
            for _ in 0..5 {
                train_batch(&mut model, &mut opt, &x, &labels, &frozen, None);
            }
            let s = scratch::stats();
            assert!(s.takes > 0, "scratch pool unused — instrumentation broken?");
            assert_eq!(
                s.misses, 0,
                "steady-state MLP {dims:?} training at batch {n} allocated tensor buffers: {s:?}"
            );
        }
        scratch::clear();
    });
}

#[test]
fn evaluation_steady_state_allocates_no_tensor_buffers() {
    let _serial = apf_testkit::alloc::serial();
    apf_par::with_threads(1, || {
        scratch::clear();
        let mut model = lenet5(4);
        let (x, labels) = batch(12);
        // Warm-up (layer caches are replace-and-recycled, so eval-only loops
        // reach a fixed point too).
        evaluate(&mut model, &x, &labels, 4);
        scratch::reset_stats();
        for _ in 0..3 {
            evaluate(&mut model, &x, &labels, 4);
        }
        let s = scratch::stats();
        assert!(s.takes > 0, "scratch pool unused — instrumentation broken?");
        assert_eq!(
            s.misses, 0,
            "steady-state evaluation allocated tensor buffers: {s:?}"
        );
        scratch::clear();
    });
}
