//! §7.4: APF vs the Gaia and CMFL sparsification baselines (Figs. 13–14).

use apf_bench::report::{load_log, print_table};
use apf_bench::setups::ModelKind;
use apf_fedsim::{ApfStrategy, Cmfl, ExperimentLog, Gaia};

use crate::common::{
    aimd_for, apf_cfg, curves_csv, rounds, run_fl, summary_row, volume_csv, Ctx, Partition, RunSpec,
};

const SETS: [(ModelKind, usize, &str); 2] = [
    (ModelKind::Lenet5, 80, "lenet5"),
    (ModelKind::Lstm, 50, "lstm"),
];

fn run_set(ctx: &Ctx, model: ModelKind, base_rounds: usize, tag: &str) -> [ExperimentLog; 3] {
    let r = rounds(ctx, base_rounds);
    let spec = |label: String| RunSpec {
        model,
        clients: 5,
        rounds: r,
        partition: Partition::ClassesPerClient(2),
        label,
    };
    let apf = run_fl(
        ctx,
        spec(format!("fig13/{tag}/apf")),
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
    // Gaia: 1% significance threshold (its paper's default).
    let gaia = run_fl(
        ctx,
        spec(format!("fig13/{tag}/gaia")),
        Box::new(Gaia::new(0.01)),
        |b| b,
    );
    // CMFL: 0.8 relevance threshold with a gentle decay (its paper's setup).
    let cmfl = run_fl(
        ctx,
        spec(format!("fig13/{tag}/cmfl")),
        Box::new(Cmfl::new(0.8, 0.99)),
        |b| b,
    );
    [apf, gaia, cmfl]
}

fn cached(ctx: &Ctx) -> Vec<(String, [ExperimentLog; 3])> {
    let mut out = Vec::new();
    for (model, base_rounds, tag) in SETS {
        let r = rounds(ctx, base_rounds);
        let logs = ["apf", "gaia", "cmfl"].map(|arm| load_log(&format!("fig13_{tag}_{arm}"), r));
        match logs {
            [Some(a), Some(g), Some(c)] => out.push((tag.to_owned(), [a, g, c])),
            _ => out.push((tag.to_owned(), run_set(ctx, model, base_rounds, tag))),
        }
    }
    out
}

/// Fig. 13: accuracy comparison across sparsification methods.
pub fn fig13(ctx: &Ctx) {
    for (model, base_rounds, tag) in SETS {
        let [apf, gaia, cmfl] = run_set(ctx, model, base_rounds, tag);
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
    for (tag, [apf, gaia, cmfl]) in cached(ctx) {
        volume_csv(&format!("fig14_{tag}_volume.csv"), &[&apf, &gaia, &cmfl]);
        println!(
            "[fig14/{tag}] cumulative volume: apf {:.2} MB, gaia {:.2} MB, cmfl {:.2} MB",
            apf.total_bytes() as f64 / 1e6,
            gaia.total_bytes() as f64 / 1e6,
            cmfl.total_bytes() as f64 / 1e6,
        );
    }
}
