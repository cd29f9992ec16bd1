//! §4.1 strawman experiments: Fig. 4 (partial-sync divergence), Fig. 5
//! (partial-sync accuracy loss), Fig. 6 (permanent-freeze accuracy loss),
//! and Fig. 12 (all schemes on extremely non-IID data).

use apf_bench::report::{print_table, write_csv};
use apf_bench::setups::ModelKind;
use apf_data::classes_per_client_partition;
use apf_fedsim::{ApfStrategy, FullSync, PartialSync, SyncStrategy};

use crate::common::{
    aimd_for, apf_cfg, curves_csv, rounds, run_fl, summary_row, Ctx, Partition, RunSpec,
};

/// Fig. 4: once excluded from synchronization, a scalar's local values
/// diverge across non-IID clients. Two clients, 5 distinct classes each.
pub fn fig4(ctx: &Ctx) {
    let r = rounds(ctx, 100);
    // Drive a bespoke two-client loop with the strategy API on raw flats so
    // we can watch per-client local values (FlRunner does not expose them).
    let model = ModelKind::Lenet5;
    let (train, _test) = model.datasets(2 * ctx.scale.per_client_samples(), 10, ctx.seed);
    let parts = classes_per_client_partition(train.labels(), 2, 5, ctx.seed);
    let mut strategy = PartialSync::new(0.1, 0.95, 2);
    let mut c0 = build_client(&model, &train, &parts[0], ctx.seed, 0);
    let mut c1 = build_client(&model, &train, &parts[1], ctx.seed, 1);
    let init = c0.flat_params();
    c1.load_flat(&init);
    strategy.init(&init, 2);
    let mut global = init.clone();
    // Track a spread of scalars; pick diverged ones afterwards.
    let track: Vec<usize> = (0..64).map(|i| (i * 331) % init.len()).collect();
    let mut hist: Vec<(Vec<f32>, Vec<f32>)> = Vec::with_capacity(r);
    let noop = |_: &mut [f32]| {};
    for round in 0..r as u64 {
        c0.local_round(8, &noop);
        c1.local_round(8, &noop);
        let mut locals = vec![c0.flat_params(), c1.flat_params()];
        strategy.sync_round(round, &mut locals, &[1.0, 1.0], &mut global);
        c0.load_flat(&locals[0]);
        c1.load_flat(&locals[1]);
        hist.push((
            track.iter().map(|&j| locals[0][j]).collect(),
            track.iter().map(|&j| locals[1][j]).collect(),
        ));
    }
    // Find the two tracked scalars with the largest final divergence among
    // the excluded ones.
    let excluded = strategy.excluded();
    let mut div: Vec<(usize, f32)> = track
        .iter()
        .enumerate()
        .filter(|(_, &j)| excluded.is_frozen(j))
        .map(|(k, _)| {
            let last = hist.last().unwrap();
            (k, (last.0[k] - last.1[k]).abs())
        })
        .collect();
    div.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    let picks: Vec<usize> = div.iter().take(2).map(|&(k, _)| k).collect();
    if picks.is_empty() {
        println!("[fig4] no scalar was excluded at this scale; nothing diverged");
        return;
    }
    let mut rows = Vec::new();
    for (e, (v0, v1)) in hist.iter().enumerate() {
        let mut row = vec![e.to_string()];
        for &k in &picks {
            row.push(format!("{:.5}", v0[k]));
            row.push(format!("{:.5}", v1[k]));
        }
        rows.push(row);
    }
    let headers: Vec<&str> = match picks.len() {
        1 => vec!["round", "pA_client0", "pA_client1"],
        _ => vec![
            "round",
            "pA_client0",
            "pA_client1",
            "pB_client0",
            "pB_client1",
        ],
    };
    write_csv("fig4_partial_sync_divergence.csv", &headers, &rows);
    println!(
        "[fig4] largest cross-client gap of an excluded scalar: {:.4} ({} scalars excluded overall)",
        div.first().map(|d| d.1).unwrap_or(0.0),
        excluded.frozen_count()
    );
}

fn build_client(
    model: &ModelKind,
    train: &apf_data::Dataset,
    part: &[usize],
    seed: u64,
    idx: u64,
) -> apf_fedsim::Client {
    use apf_nn::{LrSchedule, Trainer};
    let kind = model.optimizer();
    let (opt, lr): (Box<dyn apf_nn::Optimizer>, f32) = match kind {
        apf_fedsim::OptimizerKind::Sgd {
            lr,
            momentum,
            weight_decay,
        } => (
            Box::new(
                apf_nn::Sgd::new(lr)
                    .with_momentum(momentum)
                    .with_weight_decay(weight_decay),
            ),
            lr,
        ),
        apf_fedsim::OptimizerKind::Adam { lr, weight_decay } => (
            Box::new(apf_nn::Adam::new(lr).with_weight_decay(weight_decay)),
            lr,
        ),
    };
    let trainer = Trainer::new(
        model.build(apf_tensor::derive_seed(seed, 0x30DE1)),
        opt,
        LrSchedule::Constant(lr),
    );
    apf_fedsim::Client::new(
        trainer,
        train.select(part),
        16,
        apf_tensor::derive_seed(seed, idx),
    )
}

/// Fig. 5: partial synchronization loses accuracy vs full-model sync on
/// non-IID data.
pub fn fig5(ctx: &Ctx) {
    let r = rounds(ctx, 80);
    let spec = |label: &str| RunSpec {
        model: ModelKind::Lenet5,
        clients: 2,
        rounds: r,
        partition: Partition::ClassesPerClient(5),
        label: label.to_owned(),
    };
    let full = run_fl(
        ctx,
        spec("fig5/full-sync"),
        Box::new(FullSync::new()),
        |b| b,
    );
    let partial = run_fl(
        ctx,
        spec("fig5/partial-sync"),
        Box::new(PartialSync::new(0.1, 0.95, 2)),
        |b| b,
    );
    curves_csv("fig5_partial_sync_accuracy.csv", &[&full, &partial]);
    print_table(
        "Fig. 5 — partial synchronization vs full sync (2 clients, 5 classes each)",
        &["run", "best_acc", "volume", "mean_excluded"],
        &[summary_row(&full), summary_row(&partial)],
    );
}

/// Fig. 6: permanent freezing also loses accuracy.
pub fn fig6(ctx: &Ctx) {
    let r = rounds(ctx, 80);
    let spec = |label: &str| RunSpec {
        model: ModelKind::Lenet5,
        clients: 2,
        rounds: r,
        partition: Partition::ClassesPerClient(5),
        label: label.to_owned(),
    };
    let full = run_fl(
        ctx,
        spec("fig6/full-sync"),
        Box::new(FullSync::new()),
        |b| b,
    );
    let frozen = run_fl(
        ctx,
        spec("fig6/permanent-freeze"),
        Box::new(ApfStrategy::permanent_freeze(apf_cfg(ctx, 2)).unwrap()),
        |b| b,
    );
    curves_csv("fig6_permanent_freeze_accuracy.csv", &[&full, &frozen]);
    print_table(
        "Fig. 6 — permanent freezing vs full sync",
        &["run", "best_acc", "volume", "mean_frozen"],
        &[summary_row(&full), summary_row(&frozen)],
    );
}

/// Fig. 12: FedAvg vs APF vs both strawmen on extremely non-IID data
/// (5 clients × 2 classes), LeNet-5 and LSTM.
pub fn fig12(ctx: &Ctx) {
    for (model, base_rounds, tag) in [
        (ModelKind::Lenet5, 80, "lenet5"),
        (ModelKind::Lstm, 50, "lstm"),
    ] {
        let r = rounds(ctx, base_rounds);
        let spec = |label: String| RunSpec {
            model,
            clients: 5,
            rounds: r,
            partition: Partition::ClassesPerClient(2),
            label,
        };
        let full = run_fl(
            ctx,
            spec(format!("fig12/{tag}/fedavg")),
            Box::new(FullSync::new()),
            |b| b,
        );
        let apf = run_fl(
            ctx,
            spec(format!("fig12/{tag}/apf")),
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
        let partial = run_fl(
            ctx,
            spec(format!("fig12/{tag}/partial-sync")),
            Box::new(PartialSync::new(0.1, 0.95, 2)),
            |b| b,
        );
        let perm = run_fl(
            ctx,
            spec(format!("fig12/{tag}/permanent-freeze")),
            Box::new(ApfStrategy::permanent_freeze(apf_cfg(ctx, 2)).unwrap()),
            |b| b,
        );
        curves_csv(
            &format!("fig12_{tag}_accuracy.csv"),
            &[&full, &apf, &partial, &perm],
        );
        print_table(
            &format!("Fig. 12 — extremely non-IID ({tag}: 5 clients x 2 classes)"),
            &["run", "best_acc", "volume", "mean_excluded"],
            &[
                summary_row(&full),
                summary_row(&apf),
                summary_row(&partial),
                summary_row(&perm),
            ],
        );
    }
}
