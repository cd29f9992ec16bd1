//! Table 4: APF computation and memory overheads (§7.9).

use std::time::Instant;

use apf::{Aimd, ApfConfig, ApfManager};
use apf_bench::report::{print_table, write_csv};
use apf_bench::setups::ModelKind;
use apf_nn::{LrSchedule, Trainer};

use crate::common::Ctx;

/// Bytes of APF manager state per managed scalar: EMA numerator + EMA
/// denominator + pinned value + check reference (f32 each), freezing period
/// (u32) and unfreeze round (u64).
const STATE_BYTES_PER_SCALAR: usize = 4 * 4 + 4 + 8;

/// Table 4: measures, per model, the extra per-round computation time of the
/// APF manager operations (rollback × F_s + select + apply + finish) against
/// the round's training compute, and the manager's memory footprint against
/// the model size.
pub fn table4(ctx: &Ctx) {
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for (model, tag) in [
        (ModelKind::Lenet5, "lenet5"),
        (ModelKind::Resnet, "resnet"),
        (ModelKind::Lstm, "lstm"),
    ] {
        let net = model.build(ctx.seed);
        let n = net.param_count();
        let flat = net.flat_params();
        let cfg = ApfConfig {
            seed: ctx.seed,
            ..ApfConfig::default()
        };
        let mut mgr = ApfManager::new(&flat, cfg, Box::new(Aimd::default())).unwrap();
        let fs = 8usize;

        // Time the APF-side work of one round (amortized over many rounds).
        let rounds = 50u64;
        let mut params = flat.clone();
        let t0 = Instant::now();
        for r in 0..rounds {
            for _ in 0..fs {
                mgr.rollback(&mut params, r);
            }
            let up = mgr.select_unfrozen(&params, r);
            mgr.apply_aggregate(&mut params, &up, r);
            mgr.finish_round(&params, r);
        }
        let apf_secs = t0.elapsed().as_secs_f64() / rounds as f64;

        // Time one round of actual training compute (F_s batches).
        let (train, _) = model.datasets(64, 10, ctx.seed);
        let kind = model.optimizer();
        let mut trainer = Trainer::new(
            model.build(ctx.seed),
            kind.build(),
            LrSchedule::Constant(kind.base_lr()),
        );
        let mut rng = apf_tensor::seeded_rng(ctx.seed);
        let batches: Vec<_> = train.batches(16, &mut rng).take(fs).collect();
        let reps = 3;
        let t1 = Instant::now();
        for _ in 0..reps {
            for (x, y) in &batches {
                trainer.train_batch(x, y);
            }
        }
        let train_secs = t1.elapsed().as_secs_f64() / reps as f64;

        let mem_bytes = n * STATE_BYTES_PER_SCALAR;
        let model_bytes = n * 4;
        // Rough activation footprint: one batch of activations ~ input size x
        // layer count; we report manager memory against model + optimizer
        // state (the dominant persistent footprint at this scale).
        let baseline_bytes = model_bytes * 3; // params + grads + optimizer moments
        rows.push(vec![
            tag.to_owned(),
            format!("{:.4} s", apf_secs),
            format!("{:.2}%", 100.0 * apf_secs / (apf_secs + train_secs)),
            format!("{:.2} MB", mem_bytes as f64 / 1e6),
            format!(
                "{:.2}%",
                100.0 * mem_bytes as f64 / (mem_bytes + baseline_bytes) as f64
            ),
        ]);
        csv.push(vec![
            tag.to_owned(),
            format!("{apf_secs:.6}"),
            format!("{train_secs:.6}"),
            mem_bytes.to_string(),
            baseline_bytes.to_string(),
        ]);
    }
    print_table(
        "Table 4 — APF computation and memory overheads",
        &[
            "model",
            "APF time/round",
            "time inflation",
            "APF memory",
            "memory inflation",
        ],
        &rows,
    );
    write_csv(
        "table4_overheads.csv",
        &[
            "model",
            "apf_secs_per_round",
            "train_secs_per_round",
            "apf_state_bytes",
            "baseline_bytes",
        ],
        &csv,
    );
}
