//! §7.4: APF vs the Gaia and CMFL sparsification baselines (Figs. 13–14).

use apf_bench::report::print_table;
use apf_bench::setups::ModelKind;
use apf_fedsim::{ExperimentLog, PartitionKind, RunSpec, SpecStrategy};

use crate::common::{apf, curves_csv, load_or_run, run, summary_row, volume_csv, Ctx};

const SETS: [(ModelKind, usize); 2] = [(ModelKind::Lenet5, 80), (ModelKind::Lstm, 50)];

/// One model's three arms on 5 clients x 2 classes, run afresh or loaded
/// from `results/` where a saved log is a run of the same spec.
fn run_set(ctx: &Ctx, model: ModelKind, base_rounds: usize, reuse: bool) -> [ExperimentLog; 3] {
    let go = if reuse { load_or_run } else { run };
    let tag = model.name();
    let spec = RunSpec {
        partition: PartitionKind::ClassesPerClient {
            k: 2,
            seed: ctx.seed,
        },
        ..ctx.arm(model, 5, base_rounds)
    };
    [
        ("apf", apf(spec.clone(), 2)),
        // Gaia: 1% significance threshold (its paper's default).
        (
            "gaia",
            RunSpec {
                strategy: SpecStrategy::Gaia { threshold: 0.01 },
                ..spec.clone()
            },
        ),
        // CMFL: 0.8 relevance threshold with a gentle decay (its paper's setup).
        (
            "cmfl",
            RunSpec {
                strategy: SpecStrategy::Cmfl {
                    threshold: 0.8,
                    decay: 0.99,
                },
                ..spec
            },
        ),
    ]
    .map(|(arm, spec)| go(&format!("fig13/{tag}/{arm}"), &spec))
}

/// Fig. 13: accuracy comparison across sparsification methods.
pub fn fig13(ctx: &Ctx) {
    for (model, base_rounds) in SETS {
        let tag = model.name();
        let [apf, gaia, cmfl] = run_set(ctx, model, base_rounds, false);
        curves_csv(&format!("fig13_{tag}_accuracy.csv"), &[&apf, &gaia, &cmfl]);
        print_table(
            &format!("Fig. 13 — sparsification methods, {tag} (5 clients x 2 classes)"),
            &["run", "best_acc", "volume", "mean_excluded"],
            &[summary_row(&apf), summary_row(&gaia), summary_row(&cmfl)],
        );
    }
}

/// Fig. 14: cumulative transmission volume across sparsification methods.
pub fn fig14(ctx: &Ctx) {
    for (model, base_rounds) in SETS {
        let tag = model.name();
        let [apf, gaia, cmfl] = run_set(ctx, model, base_rounds, true);
        volume_csv(&format!("fig14_{tag}_volume.csv"), &[&apf, &gaia, &cmfl]);
        println!(
            "[fig14/{tag}] cumulative volume: apf {:.2} MB, gaia {:.2} MB, cmfl {:.2} MB",
            apf.total_bytes() as f64 / 1e6,
            gaia.total_bytes() as f64 / 1e6,
            cmfl.total_bytes() as f64 / 1e6,
        );
    }
}
