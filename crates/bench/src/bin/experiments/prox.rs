//! Fig. 19: FedAvg vs FedProx vs FedProx+APF under system and statistical
//! heterogeneity (§7.7).

use apf_bench::report::print_table;
use apf_bench::setups::ModelKind;
use apf_fedsim::{ApfStrategy, FullSync};

use crate::common::{
    aimd_for, apf_cfg, curves_csv, frozen_csv, rounds, run_fl, summary_row, Ctx, Partition, RunSpec,
};

/// Fig. 19: 5 clients × 2 classes, with two stragglers processing 25% and
/// 50% of each round's work. FedAvg drops straggler uploads; FedProx keeps
/// them with a μ = 0.01 proximal term; FedProx+APF adds freezing.
pub fn fig19(ctx: &Ctx) {
    let r = rounds(ctx, 80);
    let spec = |label: &str| RunSpec {
        model: ModelKind::Lenet5,
        clients: 5,
        rounds: r,
        partition: Partition::ClassesPerClient(2),
        label: label.to_owned(),
    };
    let with_stragglers = |b: apf_fedsim::FlRunnerBuilder| b.straggler(0, 0.25).straggler(1, 0.5);

    let fedavg = run_fl(ctx, spec("fig19/fedavg"), Box::new(FullSync::new()), |b| {
        with_stragglers(b).config(|c| c.drop_stragglers = true)
    });
    let fedprox = run_fl(ctx, spec("fig19/fedprox"), Box::new(FullSync::new()), |b| {
        with_stragglers(b).config(|c| c.prox_mu = Some(0.01))
    });
    let fedprox_apf = run_fl(
        ctx,
        spec("fig19/fedprox-apf"),
        Box::new(
            ApfStrategy::with_controller(
                apf_cfg(ctx, 2),
                Box::new(|| Box::new(aimd_for(2))),
                "fedprox+apf",
            )
            .unwrap(),
        ),
        |b| with_stragglers(b).config(|c| c.prox_mu = Some(0.01)),
    );
    curves_csv("fig19_accuracy.csv", &[&fedavg, &fedprox, &fedprox_apf]);
    frozen_csv("fig19_frozen.csv", &[&fedprox_apf]);
    print_table(
        "Fig. 19 — heterogeneity: FedAvg vs FedProx vs FedProx+APF",
        &["run", "best_acc", "volume", "mean_frozen"],
        &[
            summary_row(&fedavg),
            summary_row(&fedprox),
            summary_row(&fedprox_apf),
        ],
    );
}
