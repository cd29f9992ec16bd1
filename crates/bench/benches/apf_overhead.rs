//! Micro-benchmarks of the APF manager's per-round operations — the
//! measured basis of Table 4 (§7.9): rollback, masked select, aggregate
//! scatter, and the stability check, across the three model sizes.
//!
//! Plain harness (`apf_bench::harness`); run with
//! `cargo bench -p apf-bench --bench apf_overhead`.

use apf::{Aimd, ApfConfig, ApfManager};
use apf_bench::harness::{black_box, BenchGroup};
use apf_nn::models;

fn model_sizes() -> Vec<(&'static str, usize)> {
    vec![
        ("lenet5", models::lenet5(0).param_count()),
        ("resnet", models::resnet(0).param_count()),
        ("lstm", models::lstm_classifier(0).param_count()),
    ]
}

/// Rounds [`warmed_manager`] has run: the round its manager holds the mask of.
const WARM_ROUNDS: u64 = 20;

/// A manager mid-training: roughly half the scalars frozen, EMA state warm.
fn warmed_manager(n: usize) -> (ApfManager, Vec<f32>) {
    let init = vec![0.0f32; n];
    let cfg = ApfConfig {
        check_every_rounds: 1,
        threshold_decay: None,
        ..ApfConfig::default()
    };
    let mut mgr = ApfManager::new(&init, cfg, Box::new(Aimd::default())).unwrap();
    let mut params = init;
    for r in 0..WARM_ROUNDS {
        for (j, p) in params.iter_mut().enumerate() {
            if !mgr.is_frozen(j, r) {
                // Half the scalars oscillate (will freeze), half drift.
                *p += if j % 2 == 0 {
                    if r % 2 == 0 {
                        0.1
                    } else {
                        -0.1
                    }
                } else {
                    0.05
                };
            }
        }
        mgr.sync(&mut params, r, |up| up.to_vec());
    }
    (mgr, params)
}

fn main() {
    let mut g = BenchGroup::new("apf_rollback");
    for (name, n) in model_sizes() {
        let (mgr, params) = warmed_manager(n);
        let mut p = params.clone();
        g.bench(name, || {
            mgr.rollback(&mut p, WARM_ROUNDS);
        });
    }

    let mut g = BenchGroup::new("apf_select_unfrozen");
    for (name, n) in model_sizes() {
        let (mgr, params) = warmed_manager(n);
        g.bench(name, || {
            black_box(mgr.select_unfrozen(&params, WARM_ROUNDS));
        });
    }

    let mut g = BenchGroup::new("apf_full_round");
    for (name, n) in model_sizes() {
        let (mut mgr, params) = warmed_manager(n);
        let mut p = params.clone();
        let mut r = WARM_ROUNDS;
        g.bench(name, || {
            mgr.sync(&mut p, r, |up| up.to_vec());
            r += 1;
        });
    }

    let mut g = BenchGroup::new("apf_stability_check_via_finish");
    for (name, n) in model_sizes() {
        let (mut mgr, params) = warmed_manager(n);
        let mut r = WARM_ROUNDS;
        g.bench(name, || {
            mgr.finish_round(&params, r);
            r += 1;
        });
    }
}
