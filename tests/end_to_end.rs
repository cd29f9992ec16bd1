//! Cross-crate integration tests: the full APF stack (data → nn → fedsim →
//! apf) end to end on a small task.
//!
//! All runs go through [`RunSpec`] + the shared `apf-testkit` golden
//! recorder, so the exact fixture here is replayable by name from any other
//! suite (and over the wire by `apf-net`).

use apf_fedsim::{
    Controller, ExperimentLog, PartitionKind, RunSpec, SpecModel, SpecOptimizer, SpecStrategy,
};
use apf_testkit::golden::run_recorded;

/// The workspace end-to-end fixture: 4 Dirichlet non-IID clients on noisy
/// synthetic images. Label noise keeps asymptotic gradient noise non-zero,
/// the oscillation regime APF exploits (see DESIGN.md).
fn spec(strategy: SpecStrategy, rounds: usize) -> RunSpec {
    RunSpec {
        clients: 4,
        rounds,
        local_iters: 4,
        batch_size: 16,
        eval_every: 5,
        eval_batch: 100,
        seed: 9,
        train_n: 200,
        test_n: 150,
        hidden: 24,
        lr: 0.05,
        momentum: 0.9,
        weight_decay: 0.0,
        label_noise: 0.25,
        partition: PartitionKind::Dirichlet {
            alpha: 1.0,
            seed: 2,
        },
        strategy,
        parallel: false,
        cohort: 0,
        dormant: apf_quant::EmaCodec::Dense,
        model: SpecModel::Mlp,
        data_seed: 1,
        optimizer: SpecOptimizer::Sgd,
        lr_decay: None,
        stragglers: Vec::new(),
        drop_stragglers: false,
        prox_mu: None,
        variant: apf::ApfVariant::Standard,
        controller: Controller::default(),
    }
}

/// Scaled APF defaults (shorter EMA horizon, looser threshold) as used by
/// the experiment harness — the paper's values assume 1000+ round runs.
fn apf(check_every: u32, f16: bool) -> SpecStrategy {
    SpecStrategy::Apf {
        check_every,
        threshold: 0.1,
        ema_alpha: 0.9,
        f16,
    }
}

fn run(strategy: SpecStrategy, rounds: usize) -> ExperimentLog {
    run_recorded(&spec(strategy, rounds)).log
}

/// Scalars in the `[768, 24, 10]` MLP this fixture trains.
const MODEL_SCALARS: u64 = (3 * 16 * 16 * 24 + 24 + 24 * 10 + 10) as u64;

#[test]
fn apf_matches_fedavg_accuracy_with_fewer_bytes() {
    let rounds = 60;
    let fedavg = run(SpecStrategy::Fedavg, rounds);
    let apf = run(apf(1, false), rounds);
    // Accuracy must be comparable (the paper finds APF equal or better).
    assert!(
        apf.best_accuracy() >= fedavg.best_accuracy() - 0.08,
        "apf {:.3} vs fedavg {:.3}",
        apf.best_accuracy(),
        fedavg.best_accuracy()
    );
    // Both must actually learn.
    assert!(
        fedavg.best_accuracy() > 0.3,
        "fedavg only reached {}",
        fedavg.best_accuracy()
    );
    // APF must transmit strictly less.
    assert!(
        apf.total_bytes() < fedavg.total_bytes(),
        "apf {} bytes vs fedavg {}",
        apf.total_bytes(),
        fedavg.total_bytes()
    );
    // And freezing must have engaged at some point.
    assert!(
        apf.records.iter().any(|r| r.frozen_ratio > 0.05),
        "freezing never engaged"
    );
}

#[test]
fn byte_accounting_is_consistent_with_frozen_ratio() {
    let log = run(apf(1, false), 30);
    let n_clients = 4u64;
    // Masked-transfer encoding: freeze bitmap + 4 bytes per unfrozen scalar,
    // per client, both directions.
    let bitmap = MODEL_SCALARS.div_ceil(8);
    for r in &log.records {
        let per_client = r.bytes_up / n_clients;
        assert_eq!(
            r.bytes_up % n_clients,
            0,
            "round {}: ragged upload",
            r.round
        );
        assert!(per_client >= bitmap, "round {}: lost the bitmap", r.round);
        let unfrozen = (per_client - bitmap) / 4;
        // frozen_ratio is reported as an f32 ratio; recover the scalar count
        // and allow one unit of rounding slack.
        let expected = (MODEL_SCALARS as f64 * f64::from(1.0 - r.frozen_ratio)).round() as i64;
        assert!(
            (unfrozen as i64 - expected).abs() <= 1,
            "round {}: {} unfrozen scalars on the wire, frozen_ratio implies {}",
            r.round,
            unfrozen,
            expected
        );
        assert_eq!(
            r.bytes_up, r.bytes_down,
            "APF compresses both directions equally"
        );
    }
}

#[test]
fn runs_are_deterministic() {
    let a = run(apf(2, false), 10);
    let b = run(apf(2, false), 10);
    // Wall-clock fields (compute_secs and the times derived from them) are
    // inherently non-deterministic; everything else must match exactly.
    assert_eq!(a.records.len(), b.records.len());
    for (x, y) in a.records.iter().zip(&b.records) {
        assert_eq!(x.round, y.round);
        assert_eq!(x.loss, y.loss);
        assert_eq!(x.accuracy, y.accuracy);
        assert_eq!(x.best_accuracy, y.best_accuracy);
        assert_eq!(x.frozen_ratio, y.frozen_ratio);
        assert_eq!(x.bytes_up, y.bytes_up);
        assert_eq!(x.bytes_down, y.bytes_down);
        assert_eq!(x.cum_bytes, y.cum_bytes);
    }
}

#[test]
fn f16_stacking_halves_value_bytes_and_preserves_learning() {
    let rounds = 30;
    let plain = run(apf(2, false), rounds);
    let quant = run(apf(2, true), rounds);
    // Round 0: nothing frozen yet in either run, so the value payload is the
    // full model. f16 halves exactly that part; the bitmap is unchanged.
    let saved = 4 * MODEL_SCALARS * 2; // 4 clients x model x 2 bytes saved
    assert_eq!(plain.records[0].bytes_up - quant.records[0].bytes_up, saved);
    assert!(
        quant.best_accuracy() > 0.35,
        "quantized run failed to learn"
    );
}

#[test]
fn cumulative_bytes_monotone_and_include_initial_distribution() {
    let log = run(apf(2, false), 10);
    let mut prev = 0;
    for r in &log.records {
        assert!(r.cum_bytes > prev, "cumulative bytes must strictly grow");
        prev = r.cum_bytes;
    }
    // Round 0 includes the initial model distribution (4 clients x model).
    assert!(log.records[0].cum_bytes >= 4 * MODEL_SCALARS * 4);
}
