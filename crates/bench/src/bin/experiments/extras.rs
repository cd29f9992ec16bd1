//! Supplementary experiments beyond the paper's figures, grounded in its
//! discussion sections:
//!
//! * `extra-granularity` — §3.2.2 / §8: per-scalar APF vs filter-granular
//!   APF (whole conv filters / matrix rows coarsened from the scalar mask)
//!   vs FreezeOut-style whole-layer freezing vs magnitude top-k
//!   sparsification;
//! * `extra-dp` — §9: differential-privacy noise makes updates *look* more
//!   stable (lower effective perturbation); a tighter stability threshold
//!   counteracts it.

use apf::ApfConfig;
use apf_bench::report::print_table;
use apf_bench::setups::ModelKind;
use apf_fedsim::{ApfStrategy, DpGaussian, LayerFreeze, TopK};

use crate::common::{
    aimd_for, apf_cfg, curves_csv, frozen_csv, rounds, run_fl, summary_row, Ctx, Partition, RunSpec,
};

/// Per-scalar vs filter-granular vs per-layer freezing granularity, plus
/// top-k sparsification.
pub fn extra_granularity(ctx: &Ctx) {
    let r = rounds(ctx, 150);
    let spec = |label: &str| RunSpec {
        model: ModelKind::Lenet5,
        clients: 4,
        rounds: r,
        partition: Partition::Dirichlet(1.0),
        label: label.to_owned(),
    };
    let apf = run_fl(
        ctx,
        spec("extra/apf"),
        Box::new(
            ApfStrategy::with_controller(
                apf_cfg(ctx, 2),
                Box::new(|| Box::new(aimd_for(2))),
                "apf",
            )
            .unwrap(),
        ),
        |b| b,
    );
    // Filter-granular APF: a whole conv filter / matrix row freezes only
    // when >=50% of its scalars are individually stable (ledger bytes then
    // reflect min(bitmap, RLE) for the run-length-friendly mask). Measured
    // result: on LeNet-5 the stable scalars are spread across filters, so
    // even this permissive threshold almost never fires — the coarse mask
    // forfeits nearly all of APF's savings, the paper's §3.2.2 case for
    // scalar granularity stated as a measurement.
    let apf_filt = run_fl(
        ctx,
        spec("extra/apf-filter"),
        Box::new(
            ApfStrategy::with_controller(
                apf_cfg(ctx, 2),
                Box::new(|| Box::new(aimd_for(2))),
                "apf",
            )
            .unwrap()
            .with_filter_granularity(0.5),
        ),
        |b| b,
    );
    // Layer layout of LeNet-5 for the FreezeOut-style baseline: freeze one
    // tensor every r/12 rounds (roughly matching APF's end-of-run frozen
    // fraction so the comparison is accuracy-at-equal-savings).
    let model = ModelKind::Lenet5.build(0);
    let layers: Vec<(usize, usize)> = model
        .flat_spec()
        .params()
        .iter()
        .map(|p| (p.offset, p.len))
        .collect();
    let layer_freeze = run_fl(
        ctx,
        spec("extra/layer-freeze"),
        Box::new(LayerFreeze::new(layers, (r as u64 / 12).max(1))),
        |b| b,
    );
    let topk = run_fl(ctx, spec("extra/topk"), Box::new(TopK::new(0.25)), |b| b);
    curves_csv(
        "extra_granularity_accuracy.csv",
        &[&apf, &apf_filt, &layer_freeze, &topk],
    );
    frozen_csv(
        "extra_granularity_frozen.csv",
        &[&apf, &apf_filt, &layer_freeze, &topk],
    );
    print_table(
        "Extra — freezing granularity: per-scalar APF vs filter-granular APF vs per-layer FreezeOut vs top-k",
        &["run", "best_acc", "volume", "mean_excluded"],
        &[
            summary_row(&apf),
            summary_row(&apf_filt),
            summary_row(&layer_freeze),
            summary_row(&topk),
        ],
    );
}

/// APF under differential-privacy noise (§9): with DP noise and the default
/// threshold, spurious freezing rises; a tighter threshold restores it.
pub fn extra_dp(ctx: &Ctx) {
    let r = rounds(ctx, 100);
    let spec = |label: &str| RunSpec {
        model: ModelKind::Lenet5,
        clients: 4,
        rounds: r,
        partition: Partition::Dirichlet(1.0),
        label: label.to_owned(),
    };
    let mk_apf = |cfg: ApfConfig| {
        ApfStrategy::with_controller(cfg, Box::new(|| Box::new(aimd_for(2))), "apf").unwrap()
    };
    let clean = run_fl(
        ctx,
        spec("extra/dp-none"),
        Box::new(mk_apf(apf_cfg(ctx, 2))),
        |b| b,
    );
    // DP noise comparable to late-training update magnitudes.
    let noisy = run_fl(
        ctx,
        spec("extra/dp-default-threshold"),
        Box::new(DpGaussian::new(mk_apf(apf_cfg(ctx, 2)), 2e-3, ctx.seed)),
        |b| b,
    );
    let tight_cfg = ApfConfig {
        stability_threshold: 0.05,
        ..apf_cfg(ctx, 2)
    };
    let tight = run_fl(
        ctx,
        spec("extra/dp-tight-threshold"),
        Box::new(DpGaussian::new(mk_apf(tight_cfg), 2e-3, ctx.seed)),
        |b| b,
    );
    curves_csv("extra_dp_accuracy.csv", &[&clean, &noisy, &tight]);
    frozen_csv("extra_dp_frozen.csv", &[&clean, &noisy, &tight]);
    print_table(
        "Extra — APF under differential-privacy noise (§9)",
        &["run", "best_acc", "volume", "mean_frozen"],
        &[
            summary_row(&clean),
            summary_row(&noisy),
            summary_row(&tight),
        ],
    );
}
