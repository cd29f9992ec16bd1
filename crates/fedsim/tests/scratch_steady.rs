//! Steady-state allocation test for the round driver: after warm-up, a
//! plain `FlRunner` + `ApfStrategy` run must be served entirely from the
//! scratch pool. The flat model vectors are the largest buffers in the
//! process, so one that is taken and dropped instead of given back shows up
//! as a miss on every later round.
//!
//! Serial clients under one pool thread, so every take lands on the test
//! thread whose counters are read here.

use apf::ApfConfig;
use apf_data::{iid_partition, synth_images_split, Dataset};
use apf_fedsim::{ApfStrategy, FlConfig, FlRunner, OptimizerKind};
use apf_nn::models;
use apf_tensor::scratch;

fn flat_images(n: usize, split: u64) -> Dataset {
    let ds = synth_images_split(n, 1, split);
    Dataset::new(
        ds.inputs().reshape(&[ds.len(), 3 * 16 * 16]),
        ds.labels().to_vec(),
        10,
    )
}

#[test]
fn round_driver_steady_state_allocates_no_scratch_buffers() {
    apf_par::with_threads(1, || {
        scratch::clear();
        let train = flat_images(96, 0);
        let parts = iid_partition(train.len(), 3, 7);
        let strategy = ApfStrategy::new(ApfConfig {
            check_every_rounds: 1,
            stability_threshold: 0.3,
            ema_alpha: 0.9,
            ..ApfConfig::default()
        })
        .unwrap();
        let cfg = FlConfig {
            local_iters: 2,
            rounds: 12,
            batch_size: 16,
            eval_every: 2,
            eval_batch: 16,
            seed: 7,
            parallel: false,
            ..FlConfig::default()
        };
        let mut runner =
            FlRunner::builder(|seed| models::mlp("m", &[3 * 16 * 16, 12, 10], seed), cfg)
                .optimizer(OptimizerKind::Sgd {
                    lr: 0.05,
                    momentum: 0.9,
                    weight_decay: 0.0,
                })
                .clients_from_partition(&train, &parts)
                .test_set(flat_images(48, 1))
                .strategy(Box::new(strategy))
                .build();
        // Warm-up covers an evaluating and a non-evaluating round.
        for r in 0..4 {
            runner.run_round(r);
        }
        scratch::reset_stats();
        let mut frozen = 0.0f32;
        for r in 4..12 {
            frozen = frozen.max(runner.run_round(r).frozen_ratio);
        }
        let s = scratch::stats();
        assert!(s.takes > 0, "scratch pool unused — instrumentation broken?");
        assert_eq!(s.misses, 0, "steady-state rounds allocated buffers: {s:?}");
        assert!(frozen > 0.0, "masks never came into play");
        scratch::clear();
    });
}
