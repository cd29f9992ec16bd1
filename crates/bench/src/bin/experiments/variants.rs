//! Controller ablation (Fig. 15), APF# (Fig. 16), APF++ (Fig. 17), and
//! APF+quantization (Fig. 18).

use apf::ApfVariant;
use apf_bench::report::print_table;
use apf_bench::setups::ModelKind;
use apf_fedsim::{Controller, RunSpec, SpecStrategy};

use crate::common::{apf, curves_csv, frozen_csv, run, summary_row, volume_csv, Ctx};

/// Fig. 15: the TCP-style AIMD controller vs pure-additive,
/// pure-multiplicative, and fixed-period controllers.
pub fn fig15(ctx: &Ctx) {
    let aimd = apf(ctx.arm(ModelKind::Lenet5, 4, 100), 2);
    let with = |controller| RunSpec {
        controller,
        ..aimd.clone()
    };
    let logs = [
        ("aimd", aimd.clone()),
        ("pure-additive", with(Controller::PureAdditive { step: 5 })),
        (
            "pure-multiplicative",
            with(Controller::PureMultiplicative { factor: 2 }),
        ),
        // Fixed: 10 stability checks = 10 * F_c rounds (§7.5).
        ("fixed", with(Controller::FixedPeriod { len: 50 })),
    ]
    .map(|(arm, spec)| run(&format!("fig15/{arm}"), &spec));
    let refs: Vec<_> = logs.iter().collect();
    curves_csv("fig15_controller_accuracy.csv", &refs);
    frozen_csv("fig15_controller_frozen.csv", &refs);
    print_table(
        "Fig. 15 — freezing-period controllers (LeNet-5)",
        &["run", "best_acc", "volume", "mean_frozen"],
        &logs.each_ref().map(summary_row),
    );
}

/// Fig. 16: APF# vs vanilla APF (LeNet-5 and LSTM, `F_c = F_s`, random
/// 1-round freezing of unstable scalars with p = 0.5).
pub fn fig16(ctx: &Ctx) {
    for (model, base_rounds) in [(ModelKind::Lenet5, 80), (ModelKind::Lstm, 50)] {
        let tag = model.name();
        // §7.6 uses F_c = F_s: check every round, increment 1.
        let spec = apf(ctx.arm(model, 5, base_rounds), 1);
        let apf = run(&format!("fig16/{tag}/apf"), &spec);
        let sharp = RunSpec {
            variant: ApfVariant::Sharp { prob: 0.5 },
            ..spec
        };
        let sharp = run(&format!("fig16/{tag}/apf-sharp"), &sharp);
        curves_csv(&format!("fig16_{tag}_accuracy.csv"), &[&apf, &sharp]);
        frozen_csv(&format!("fig16_{tag}_frozen.csv"), &[&apf, &sharp]);
        print_table(
            &format!("Fig. 16 — APF# vs APF ({tag})"),
            &["run", "best_acc", "volume", "mean_frozen"],
            &[summary_row(&apf), summary_row(&sharp)],
        );
    }
}

/// Fig. 17: APF++ vs vanilla APF (LeNet-5 and the residual net). The paper's
/// coefficients (`a1 = K/4000`, lengths up to `1 + K/20`) are rescaled so the
/// freezing probability reaches ~0.5 by the end of our (shorter) runs.
pub fn fig17(ctx: &Ctx) {
    for (model, base_rounds) in [(ModelKind::Lenet5, 80), (ModelKind::Resnet, 50)] {
        let tag = model.name();
        let spec = apf(ctx.arm(model, 5, base_rounds), 1);
        let apf = run(&format!("fig17/{tag}/apf"), &spec);
        let pp = RunSpec {
            variant: ApfVariant::PlusPlus {
                a1: 1.0 / (2.0 * spec.rounds as f64),
                a2: 1.0 / 20.0,
            },
            ..spec
        };
        let pp = run(&format!("fig17/{tag}/apf-plusplus"), &pp);
        curves_csv(&format!("fig17_{tag}_accuracy.csv"), &[&apf, &pp]);
        frozen_csv(&format!("fig17_{tag}_frozen.csv"), &[&apf, &pp]);
        print_table(
            &format!("Fig. 17 — APF++ vs APF ({tag})"),
            &["run", "best_acc", "volume", "mean_frozen"],
            &[summary_row(&apf), summary_row(&pp)],
        );
    }
}

/// Fig. 18: APF with fp16 quantization stacked on the wire (§7.7).
pub fn fig18(ctx: &Ctx) {
    for (model, base_rounds) in [(ModelKind::Lenet5, 80), (ModelKind::Lstm, 50)] {
        let tag = model.name();
        let spec = apf(ctx.arm(model, 4, base_rounds), 2);
        let apf = run(&format!("fig18/{tag}/apf"), &spec);
        let quant = RunSpec {
            strategy: SpecStrategy::Apf {
                check_every: 2,
                threshold: 0.1,
                ema_alpha: 0.95,
                f16: true,
            },
            ..spec
        };
        let quant = run(&format!("fig18/{tag}/apf-q"), &quant);
        curves_csv(&format!("fig18_{tag}_accuracy.csv"), &[&apf, &quant]);
        volume_csv(&format!("fig18_{tag}_volume.csv"), &[&apf, &quant]);
        print_table(
            &format!("Fig. 18 — APF vs APF+Quantization ({tag})"),
            &["run", "best_acc", "volume", "mean_frozen"],
            &[summary_row(&apf), summary_row(&quant)],
        );
    }
}
