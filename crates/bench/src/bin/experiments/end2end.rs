//! End-to-end evaluation (§7.2): Fig. 11 accuracy/frozen-ratio curves and
//! Tables 1–3.

use apf_bench::report::{fmt_mb, print_table, write_csv};
use apf_bench::setups::ModelKind;
use apf_fedsim::ExperimentLog;

use crate::common::{apf, curves_csv, frozen_csv, load_or_run, run, Ctx};

/// The six fig11 arms, {lenet5, resnet, lstm} x {fedavg, apf}, run afresh
/// or (for the tables) loaded from `results/` where a saved log is a run of
/// the same spec.
fn arms(ctx: &Ctx, reuse: bool) -> Vec<(String, ExperimentLog, ExperimentLog)> {
    let go = if reuse { load_or_run } else { run };
    [ModelKind::Lenet5, ModelKind::Resnet, ModelKind::Lstm]
        .into_iter()
        .map(|model| {
            let tag = model.name();
            // `default_rounds` is already scaled: apply no second factor.
            let fedavg = model.spec(ctx.scale, 4, model.default_rounds(ctx.scale), ctx.seed);
            let full = go(&format!("fig11/{tag}/fedavg"), &fedavg);
            let apf = go(&format!("fig11/{tag}/apf"), &apf(fedavg, 2));
            (tag.to_owned(), full, apf)
        })
        .collect()
}

/// Fig. 11: test-accuracy curves with and without APF, plus the frozen-ratio
/// series, for all three models.
pub fn fig11(ctx: &Ctx) {
    for (tag, full, apf) in arms(ctx, false) {
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
    let arms = arms(ctx, true);
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
    let arms = arms(ctx, true);
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
    let arms = arms(ctx, true);
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
