//! §7.8 hyper-parameter sensitivity: stability threshold and check
//! frequency (Fig. 20), learning rates (Fig. 21), synchronization frequency
//! (Fig. 22).

use apf_bench::report::print_table;
use apf_bench::setups::ModelKind;
use apf_fedsim::{Controller, PartitionKind, RunSpec, SpecOptimizer, SpecStrategy};

use crate::common::{apf, curves_csv, frozen_csv, run, summary_row, Ctx};

/// Fig. 20a: a deliberately loose initial stability threshold (0.5 instead
/// of 0.05) — the runtime threshold decay must rectify it. Fig. 20b: a
/// coarser check cadence (`F_c = 5 F_s` vs `F_c = F_s`, with matched
/// controller steps) must not hurt.
pub fn fig20(ctx: &Ctx) {
    // (a) LeNet-5, loose threshold.
    let tight = apf(ctx.arm(ModelKind::Lenet5, 4, 100), 2);
    let loose = RunSpec {
        strategy: SpecStrategy::Apf {
            check_every: 2,
            threshold: 0.5,
            ema_alpha: 0.95,
            f16: false,
        },
        ..tight.clone()
    };
    let tight = run("fig20/lenet5/threshold-default", &tight);
    let loose = run("fig20/lenet5/threshold-0.5", &loose);
    curves_csv("fig20a_threshold_accuracy.csv", &[&tight, &loose]);
    frozen_csv("fig20a_threshold_frozen.csv", &[&tight, &loose]);
    print_table(
        "Fig. 20a — loose initial stability threshold (decay rectifies it)",
        &["run", "best_acc", "volume", "mean_frozen"],
        &[summary_row(&tight), summary_row(&loose)],
    );

    // (b) LSTM, F_c = F_s vs F_c = 5 F_s with matched controller steps.
    let lstm = ctx.arm(ModelKind::Lstm, 4, 50);
    let fc1 = run("fig20/lstm/fc-1", &apf(lstm.clone(), 1));
    // §7.8: with F_c = 5, increment 5 and scale-down factor 5.
    let fc5 = RunSpec {
        controller: Controller::Aimd {
            increment: 5,
            decrease_factor: 5,
        },
        ..apf(lstm, 5)
    };
    let fc5 = run("fig20/lstm/fc-5", &fc5);
    curves_csv("fig20b_check_frequency_accuracy.csv", &[&fc1, &fc5]);
    frozen_csv("fig20b_check_frequency_frozen.csv", &[&fc1, &fc5]);
    print_table(
        "Fig. 20b — stability-check frequency (LSTM)",
        &["run", "best_acc", "volume", "mean_frozen"],
        &[summary_row(&fc1), summary_row(&fc5)],
    );
}

/// Fig. 21: APF under different learning rates (0.01 vs 0.001, SGD) and
/// under a multiplicatively decaying learning rate, vs FedAvg.
pub fn fig21(ctx: &Ctx) {
    let sgd = |lr: f32| RunSpec {
        optimizer: SpecOptimizer::Sgd,
        lr,
        momentum: 0.9,
        weight_decay: 0.01,
        ..ctx.arm(ModelKind::Lenet5, 4, 100)
    };
    // (a) two fixed learning rates.
    let lr_hi = run("fig21/lr-0.01", &apf(sgd(0.01), 2));
    let lr_lo = run("fig21/lr-0.001", &apf(sgd(0.001), 2));
    curves_csv("fig21a_lr_accuracy.csv", &[&lr_hi, &lr_lo]);
    frozen_csv("fig21a_lr_frozen.csv", &[&lr_hi, &lr_lo]);
    print_table(
        "Fig. 21a — APF under different learning rates (LeNet-5, SGD)",
        &["run", "best_acc", "volume", "mean_frozen"],
        &[summary_row(&lr_hi), summary_row(&lr_lo)],
    );
    // (b) decaying learning rate: initial 0.01, x0.99 every 10 local steps,
    // APF vs FedAvg.
    let decay = RunSpec {
        lr_decay: Some((0.99, 10)),
        ..sgd(0.01)
    };
    let apf_decay = run("fig21/decay-apf", &apf(decay.clone(), 2));
    let fedavg_decay = run("fig21/decay-fedavg", &decay);
    curves_csv("fig21b_decay_accuracy.csv", &[&apf_decay, &fedavg_decay]);
    frozen_csv("fig21b_decay_frozen.csv", &[&apf_decay]);
    print_table(
        "Fig. 21b — decaying learning rate: APF vs FedAvg",
        &["run", "best_acc", "volume", "mean_frozen"],
        &[summary_row(&apf_decay), summary_row(&fedavg_decay)],
    );
}

/// Fig. 22: synchronization frequency `F_s` sweep (extreme non-IID, APF).
/// The paper sweeps 10/100/500 iterations per round; at our scale we sweep
/// 4/20/80.
pub fn fig22(ctx: &Ctx) {
    let sweeps: [(usize, usize, &str); 3] = [(4, 60, "fs-4"), (20, 30, "fs-20"), (80, 12, "fs-80")];
    let logs = sweeps.map(|(fs, base_rounds, tag)| {
        let spec = RunSpec {
            local_iters: fs,
            partition: PartitionKind::ClassesPerClient {
                k: 2,
                seed: ctx.seed,
            },
            ..ctx.arm(ModelKind::Lenet5, 4, base_rounds)
        };
        run(&format!("fig22/{tag}"), &apf(spec, 2))
    });
    let refs: Vec<_> = logs.iter().collect();
    curves_csv("fig22_sync_frequency_accuracy.csv", &refs);
    frozen_csv("fig22_sync_frequency_frozen.csv", &refs);
    print_table(
        "Fig. 22 — synchronization frequency sweep (extreme non-IID LeNet-5)",
        &["run", "best_acc", "volume", "mean_frozen"],
        &logs.each_ref().map(summary_row),
    );
}
