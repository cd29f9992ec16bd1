//! §7.8 hyper-parameter sensitivity: stability threshold and check
//! frequency (Fig. 20), learning rates (Fig. 21), synchronization frequency
//! (Fig. 22).

use apf::ApfConfig;
use apf_bench::report::print_table;
use apf_bench::setups::ModelKind;
use apf_fedsim::{ApfStrategy, FullSync};
use apf_nn::LrSchedule;

use crate::common::{
    aimd_for, apf_cfg, curves_csv, frozen_csv, rounds, run_fl, summary_row, Ctx, Partition, RunSpec,
};

/// Fig. 20a: a deliberately loose initial stability threshold (0.5 instead
/// of 0.05) — the runtime threshold decay must rectify it. Fig. 20b: a
/// coarser check cadence (`F_c = 5 F_s` vs `F_c = F_s`, with matched
/// controller steps) must not hurt.
pub fn fig20(ctx: &Ctx) {
    // (a) LeNet-5, loose threshold.
    let r = rounds(ctx, 100);
    let spec_lenet = |label: &str| RunSpec {
        model: ModelKind::Lenet5,
        clients: 4,
        rounds: r,
        partition: Partition::Dirichlet(1.0),
        label: label.to_owned(),
    };
    let tight = run_fl(
        ctx,
        spec_lenet("fig20/lenet5/threshold-default"),
        Box::new(
            ApfStrategy::with_controller(
                apf_cfg(ctx, 2),
                Box::new(|| Box::new(aimd_for(2))),
                "Ts=0.1",
            )
            .unwrap(),
        ),
        |b| b,
    );
    let loose_cfg = ApfConfig {
        stability_threshold: 0.5,
        ..apf_cfg(ctx, 2)
    };
    let loose = run_fl(
        ctx,
        spec_lenet("fig20/lenet5/threshold-0.5"),
        Box::new(
            ApfStrategy::with_controller(loose_cfg, Box::new(|| Box::new(aimd_for(2))), "Ts=0.5")
                .unwrap(),
        ),
        |b| b,
    );
    curves_csv("fig20a_threshold_accuracy.csv", &[&tight, &loose]);
    frozen_csv("fig20a_threshold_frozen.csv", &[&tight, &loose]);
    print_table(
        "Fig. 20a — loose initial stability threshold (decay rectifies it)",
        &["run", "best_acc", "volume", "mean_frozen"],
        &[summary_row(&tight), summary_row(&loose)],
    );

    // (b) LSTM, F_c = F_s vs F_c = 5 F_s with matched controller steps.
    let r = rounds(ctx, 50);
    let spec_lstm = |label: &str| RunSpec {
        model: ModelKind::Lstm,
        clients: 4,
        rounds: r,
        partition: Partition::Dirichlet(1.0),
        label: label.to_owned(),
    };
    let fc1 = run_fl(
        ctx,
        spec_lstm("fig20/lstm/fc-1"),
        Box::new(
            ApfStrategy::with_controller(
                apf_cfg(ctx, 1),
                Box::new(|| Box::new(aimd_for(1))),
                "Fc=Fs",
            )
            .unwrap(),
        ),
        |b| b,
    );
    // §7.8: with F_c = 5, increment 5 and scale-down factor 5.
    let fc5 = run_fl(
        ctx,
        spec_lstm("fig20/lstm/fc-5"),
        Box::new(
            ApfStrategy::with_controller(
                apf_cfg(ctx, 5),
                Box::new(|| {
                    Box::new(apf::Aimd {
                        increment: 5,
                        decrease_factor: 5,
                    })
                }),
                "Fc=5Fs",
            )
            .unwrap(),
        ),
        |b| b,
    );
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
    let r = rounds(ctx, 100);
    let spec = |label: &str| RunSpec {
        model: ModelKind::Lenet5,
        clients: 4,
        rounds: r,
        partition: Partition::Dirichlet(1.0),
        label: label.to_owned(),
    };
    let apf_strategy = || {
        Box::new(
            ApfStrategy::with_controller(
                apf_cfg(ctx, 2),
                Box::new(|| Box::new(aimd_for(2))),
                "apf",
            )
            .unwrap(),
        )
    };
    let sgd = |lr: f32| apf_fedsim::OptimizerKind::Sgd {
        lr,
        momentum: 0.9,
        weight_decay: 0.01,
    };
    // (a) two fixed learning rates.
    let lr_hi = run_fl(ctx, spec("fig21/lr-0.01"), apf_strategy(), |b| {
        b.optimizer(sgd(0.01))
    });
    let lr_lo = run_fl(ctx, spec("fig21/lr-0.001"), apf_strategy(), |b| {
        b.optimizer(sgd(0.001))
    });
    curves_csv("fig21a_lr_accuracy.csv", &[&lr_hi, &lr_lo]);
    frozen_csv("fig21a_lr_frozen.csv", &[&lr_hi, &lr_lo]);
    print_table(
        "Fig. 21a — APF under different learning rates (LeNet-5, SGD)",
        &["run", "best_acc", "volume", "mean_frozen"],
        &[summary_row(&lr_hi), summary_row(&lr_lo)],
    );
    // (b) decaying learning rate: initial 0.1, x0.99 every 10 local epochs,
    // APF vs FedAvg.
    let decay = LrSchedule::Multiplicative {
        initial: 0.01,
        factor: 0.99,
        every: 10,
    };
    let apf_decay = run_fl(ctx, spec("fig21/decay-apf"), apf_strategy(), |b| {
        b.optimizer(sgd(0.01)).schedule(decay)
    });
    let fedavg_decay = run_fl(
        ctx,
        spec("fig21/decay-fedavg"),
        Box::new(FullSync::new()),
        |b| b.optimizer(sgd(0.01)).schedule(decay),
    );
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
    let mut logs = Vec::new();
    for (fs, base_rounds, tag) in sweeps {
        let r = rounds(ctx, base_rounds);
        let spec = RunSpec {
            model: ModelKind::Lenet5,
            clients: 4,
            rounds: r,
            partition: Partition::ClassesPerClient(2),
            label: format!("fig22/{tag}"),
        };
        let log = run_fl(
            ctx,
            spec,
            Box::new(
                ApfStrategy::with_controller(
                    apf_cfg(ctx, 2),
                    Box::new(|| Box::new(aimd_for(2))),
                    tag,
                )
                .unwrap(),
            ),
            |b| b.config(|c| c.local_iters = fs),
        );
        logs.push(log);
    }
    let refs: Vec<&apf_fedsim::ExperimentLog> = logs.iter().collect();
    curves_csv("fig22_sync_frequency_accuracy.csv", &refs);
    frozen_csv("fig22_sync_frequency_frozen.csv", &refs);
    let rows: Vec<Vec<String>> = logs.iter().map(summary_row).collect();
    print_table(
        "Fig. 22 — synchronization frequency sweep (extreme non-IID LeNet-5)",
        &["run", "best_acc", "volume", "mean_frozen"],
        &rows,
    );
}
