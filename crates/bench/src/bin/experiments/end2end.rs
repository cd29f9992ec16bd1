//! End-to-end evaluation (§7.2): Fig. 11 accuracy/frozen-ratio curves and
//! Tables 1–3.

use apf_bench::report::{fmt_mb, load_log, print_table, write_csv};
use apf_bench::setups::ModelKind;
use apf_fedsim::{ApfStrategy, ExperimentLog, FullSync};

use crate::common::{aimd_for, apf_cfg, curves_csv, frozen_csv, run_fl, Ctx, Partition, RunSpec};

const MODELS: [(ModelKind, &str); 3] = [
    (ModelKind::Lenet5, "lenet5"),
    (ModelKind::Resnet, "resnet"),
    (ModelKind::Lstm, "lstm"),
];

fn stem(tag: &str, arm: &str) -> String {
    format!("fig11/{tag}/{arm}")
}

/// Runs (or loads) the six fig11 arms: {lenet5, resnet, lstm} x {fedavg, apf}.
fn arms(ctx: &Ctx) -> Vec<(String, ExperimentLog, ExperimentLog)> {
    let mut out = Vec::new();
    for (model, tag) in MODELS {
        // `default_rounds` is already scaled: apply no second factor.
        let r = model.default_rounds(ctx.scale);
        let spec = |label: String| RunSpec {
            model,
            clients: 4,
            rounds: r,
            partition: Partition::Dirichlet(1.0),
            label,
        };
        let full = run_fl(
            ctx,
            spec(stem(tag, "fedavg")),
            Box::new(FullSync::new()),
            |b| b,
        );
        let apf = run_fl(
            ctx,
            spec(stem(tag, "apf")),
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
        out.push((tag.to_owned(), full, apf));
    }
    out
}

/// Loads the fig11 logs from `results/` or reruns them.
fn arms_cached(ctx: &Ctx) -> Vec<(String, ExperimentLog, ExperimentLog)> {
    let mut out = Vec::new();
    for (model, tag) in MODELS {
        let r = model.default_rounds(ctx.scale);
        let f = load_log(&stem(tag, "fedavg").replace('/', "_"), r);
        let a = load_log(&stem(tag, "apf").replace('/', "_"), r);
        match (f, a) {
            (Some(f), Some(a)) => out.push((tag.to_owned(), f, a)),
            _ => return arms(ctx),
        }
    }
    out
}

/// Fig. 11: test-accuracy curves with and without APF, plus the frozen-ratio
/// series, for all three models.
pub fn fig11(ctx: &Ctx) {
    for (tag, full, apf) in arms(ctx) {
        curves_csv(&format!("fig11_{tag}_accuracy.csv"), &[&full, &apf]);
        frozen_csv(&format!("fig11_{tag}_frozen_ratio.csv"), &[&apf]);
        println!(
            "[fig11/{tag}] best accuracy: fedavg {:.3} vs apf {:.3}; mean frozen ratio {:.1}%",
            full.best_accuracy(),
            apf.best_accuracy(),
            apf.mean_frozen_ratio() * 100.0
        );
    }
}

/// Table 1: best testing accuracy per model, with and without APF.
pub fn table1(ctx: &Ctx) {
    let arms = arms_cached(ctx);
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for (tag, full, apf) in &arms {
        rows.push(vec![
            tag.clone(),
            format!("{:.3}", apf.best_accuracy()),
            format!("{:.3}", full.best_accuracy()),
        ]);
        csv.push(vec![
            tag.clone(),
            format!("{:.4}", apf.best_accuracy()),
            format!("{:.4}", full.best_accuracy()),
        ]);
    }
    print_table(
        "Table 1 — best testing accuracy",
        &["model", "w/ APF", "w/o APF"],
        &rows,
    );
    write_csv(
        "table1_best_accuracy.csv",
        &["model", "apf", "fedavg"],
        &csv,
    );
}

/// Table 2: cumulative transmission volume per model, with savings.
pub fn table2(ctx: &Ctx) {
    let arms = arms_cached(ctx);
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for (tag, full, apf) in &arms {
        let saving = 1.0 - apf.total_bytes() as f64 / full.total_bytes().max(1) as f64;
        rows.push(vec![
            tag.clone(),
            fmt_mb(apf.total_bytes()),
            fmt_mb(full.total_bytes()),
            format!("{:.1}%", saving * 100.0),
        ]);
        csv.push(vec![
            tag.clone(),
            apf.total_bytes().to_string(),
            full.total_bytes().to_string(),
            format!("{:.4}", saving),
        ]);
    }
    print_table(
        "Table 2 — cumulative transmission volume",
        &["model", "w/ APF", "w/o APF", "APF saving"],
        &rows,
    );
    write_csv(
        "table2_transmission_volume.csv",
        &["model", "apf_bytes", "fedavg_bytes", "saving"],
        &csv,
    );
}

/// Table 3: average per-round time (measured compute + simulated 9/3 Mbps
/// transfer).
pub fn table3(ctx: &Ctx) {
    let arms = arms_cached(ctx);
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for (tag, full, apf) in &arms {
        let t_apf = apf.mean_round_secs();
        let t_full = full.mean_round_secs();
        let imp = 1.0 - t_apf / t_full.max(1e-12);
        rows.push(vec![
            tag.clone(),
            format!("{t_apf:.3} s"),
            format!("{t_full:.3} s"),
            format!("{:.1}%", imp * 100.0),
        ]);
        csv.push(vec![
            tag.clone(),
            format!("{t_apf:.6}"),
            format!("{t_full:.6}"),
            format!("{imp:.4}"),
        ]);
    }
    print_table(
        "Table 3 — average per-round time (compute + simulated 9/3 Mbps links)",
        &["model", "w/ APF", "w/o APF", "improvement"],
        &rows,
    );
    write_csv(
        "table3_per_round_time.csv",
        &["model", "apf_secs", "fedavg_secs", "improvement"],
        &csv,
    );
}
