//! §4.1 strawman experiments: Fig. 4 (partial-sync divergence), Fig. 5
//! (partial-sync accuracy loss), Fig. 6 (permanent-freeze accuracy loss),
//! and Fig. 12 (all schemes on extremely non-IID data).

use apf_bench::report::{print_table, write_csv};
use apf_bench::setups::ModelKind;
use apf_fedsim::{Controller, PartialSync, PartitionKind, RunSpec, SpecStrategy, SyncStrategy};

use crate::common::{apf, curves_csv, run, summary_row, Ctx};

/// Strawman 1 with the harness's APF stability settings.
const PARTIAL_SYNC: SpecStrategy = SpecStrategy::PartialSync {
    check_every: 2,
    threshold: 0.1,
    ema_alpha: 0.95,
};

/// `model`'s arm on `clients` clients holding `k` classes each.
fn non_iid(ctx: &Ctx, model: ModelKind, clients: usize, k: usize, base_rounds: usize) -> RunSpec {
    RunSpec {
        partition: PartitionKind::ClassesPerClient { k, seed: ctx.seed },
        ..ctx.arm(model, clients, base_rounds)
    }
}

/// Strawman 2: the harness's APF with stabilized scalars frozen forever.
fn permanent_freeze(spec: RunSpec) -> RunSpec {
    RunSpec {
        controller: Controller::FixedPeriod { len: u32::MAX },
        ..apf(spec, 2)
    }
}

/// Fig. 4: once excluded from synchronization, a scalar's local values
/// diverge across non-IID clients. Two clients, 5 distinct classes each.
pub fn fig4(ctx: &Ctx) {
    let spec = non_iid(ctx, ModelKind::Lenet5, 2, 5, 100);
    let r = spec.rounds;
    // Drive a bespoke two-client loop with the strategy API on raw flats so
    // we can watch per-client local values (FlRunner does not expose them).
    let mut strategy = PartialSync::new(0.1, 0.95, 2);
    let mut c0 = spec.make_client(0);
    let mut c1 = spec.make_client(1);
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

/// Fig. 5: partial synchronization loses accuracy vs full-model sync on
/// non-IID data.
pub fn fig5(ctx: &Ctx) {
    let spec = non_iid(ctx, ModelKind::Lenet5, 2, 5, 80);
    let full = run("fig5/full-sync", &spec);
    let partial = RunSpec {
        strategy: PARTIAL_SYNC,
        ..spec
    };
    let partial = run("fig5/partial-sync", &partial);
    curves_csv("fig5_partial_sync_accuracy.csv", &[&full, &partial]);
    print_table(
        "Fig. 5 — partial synchronization vs full sync (2 clients, 5 classes each)",
        &["run", "best_acc", "volume", "mean_excluded"],
        &[summary_row(&full), summary_row(&partial)],
    );
}

/// Fig. 6: permanent freezing also loses accuracy.
pub fn fig6(ctx: &Ctx) {
    let spec = non_iid(ctx, ModelKind::Lenet5, 2, 5, 80);
    let full = run("fig6/full-sync", &spec);
    let frozen = run("fig6/permanent-freeze", &permanent_freeze(spec));
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
    for (model, base_rounds) in [(ModelKind::Lenet5, 80), (ModelKind::Lstm, 50)] {
        let tag = model.name();
        let spec = non_iid(ctx, model, 5, 2, base_rounds);
        let logs = [
            ("fedavg", spec.clone()),
            ("apf", apf(spec.clone(), 2)),
            (
                "partial-sync",
                RunSpec {
                    strategy: PARTIAL_SYNC,
                    ..spec.clone()
                },
            ),
            ("permanent-freeze", permanent_freeze(spec)),
        ]
        .map(|(arm, spec)| run(&format!("fig12/{tag}/{arm}"), &spec));
        let refs: Vec<_> = logs.iter().collect();
        curves_csv(&format!("fig12_{tag}_accuracy.csv"), &refs);
        print_table(
            &format!("Fig. 12 — extremely non-IID ({tag}: 5 clients x 2 classes)"),
            &["run", "best_acc", "volume", "mean_excluded"],
            &logs.each_ref().map(summary_row),
        );
    }
}
