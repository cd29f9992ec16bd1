//! Fig. 19: FedAvg vs FedProx vs FedProx+APF under system and statistical
//! heterogeneity (§7.7).

use apf_bench::report::print_table;
use apf_bench::setups::ModelKind;
use apf_fedsim::{PartitionKind, RunSpec};

use crate::common::{apf, curves_csv, frozen_csv, run, summary_row, Ctx};

/// Fig. 19: 5 clients × 2 classes, with two stragglers processing 25% and
/// 50% of each round's work. FedAvg drops straggler uploads; FedProx keeps
/// them with a μ = 0.01 proximal term; FedProx+APF adds freezing.
pub fn fig19(ctx: &Ctx) {
    let spec = RunSpec {
        partition: PartitionKind::ClassesPerClient {
            k: 2,
            seed: ctx.seed,
        },
        stragglers: vec![0.25, 0.5],
        ..ctx.arm(ModelKind::Lenet5, 5, 80)
    };
    let fedavg = run(
        "fig19/fedavg",
        &RunSpec {
            drop_stragglers: true,
            ..spec.clone()
        },
    );
    let fedprox = RunSpec {
        prox_mu: Some(0.01),
        ..spec
    };
    let fedprox_apf = apf(fedprox.clone(), 2);
    let fedprox = run("fig19/fedprox", &fedprox);
    let fedprox_apf = run("fig19/fedprox-apf", &fedprox_apf);
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
