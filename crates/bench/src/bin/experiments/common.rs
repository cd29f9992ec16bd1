//! Shared plumbing for the experiment harness.

use apf::{Aimd, ApfConfig, ThresholdDecay};
use apf_bench::report::save_log;
use apf_bench::setups::{standard_builder, ModelKind, Scale};
use apf_data::{classes_per_client_partition, dirichlet_partition, Dataset};
use apf_fedsim::{ExperimentLog, FlRunnerBuilder, SyncStrategy};

/// Global harness context.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    /// Experiment scale.
    pub scale: Scale,
    /// Base seed.
    pub seed: u64,
}

/// How client shards are drawn.
#[derive(Debug, Clone, Copy)]
pub enum Partition {
    /// Dirichlet(α) non-IID mixture per class (the §7.1 default, α = 1).
    Dirichlet(f64),
    /// k distinct classes per client (the §7.3 extreme non-IID setup).
    ClassesPerClient(usize),
}

impl Partition {
    fn split(self, ds: &Dataset, clients: usize, seed: u64) -> Vec<Vec<usize>> {
        // Retry a few seeds so no client ends up empty under harsh skews.
        for salt in 0..16u64 {
            let parts = match self {
                Partition::Dirichlet(a) => {
                    dirichlet_partition(ds.labels(), clients, a, seed + salt)
                }
                Partition::ClassesPerClient(k) => {
                    classes_per_client_partition(ds.labels(), clients, k, seed + salt)
                }
            };
            if parts.iter().all(|p| !p.is_empty()) {
                return parts;
            }
        }
        panic!("could not find a partition without empty clients");
    }
}

/// One federated run specification.
pub struct RunSpec {
    /// Workload.
    pub model: ModelKind,
    /// Number of clients.
    pub clients: usize,
    /// Rounds.
    pub rounds: usize,
    /// Client shard layout.
    pub partition: Partition,
    /// Log label (also the cache stem under `results/`).
    pub label: String,
}

/// Runs one federated experiment, applying `tweak` to the builder before
/// construction, and saves its log under `results/` by label.
pub fn run_fl(
    ctx: &Ctx,
    spec: RunSpec,
    strategy: Box<dyn SyncStrategy>,
    tweak: impl FnOnce(FlRunnerBuilder) -> FlRunnerBuilder,
) -> ExperimentLog {
    let stem = spec.label.replace('/', "_");
    let (builder, train, test) =
        standard_builder(spec.model, ctx.scale, spec.clients, spec.rounds, ctx.seed);
    let parts = spec.partition.split(&train, spec.clients, ctx.seed);
    let runner = tweak(
        builder
            .clients_from_partition(&train, &parts)
            .test_set(test)
            .strategy(strategy)
            .name(&spec.label),
    );
    let mut runner = runner.build();
    let log = runner.run().clone();
    save_log(&log, &stem);
    log
}

/// The paper-default APF configuration at a given check cadence (in rounds).
pub fn apf_cfg(ctx: &Ctx, check_every_rounds: u32) -> ApfConfig {
    // Scale adaptation (see DESIGN.md / EXPERIMENTS.md): the paper's
    // Ts = 0.05 / alpha = 0.99 assume thousands of rounds; at our 100-400
    // round budget the EMA horizon must shrink (alpha 0.95) and the
    // threshold loosen (0.1) for the same freezing dynamics to unfold.
    ApfConfig {
        stability_threshold: 0.1,
        threshold_decay: Some(ThresholdDecay {
            trigger_fraction: 0.8,
            factor: 0.5,
        }),
        check_every_rounds,
        ema_alpha: 0.95,
        variant: apf::ApfVariant::Standard,
        seed: ctx.seed,
        bytes_per_scalar: 4,
    }
}

/// The Alg. 1 AIMD controller matched to a check cadence (`L += F_c` per
/// stable verdict, halve on drift).
pub fn aimd_for(check_every_rounds: u32) -> Aimd {
    Aimd {
        increment: check_every_rounds,
        decrease_factor: 2,
    }
}

/// Summarizes a log as one console row: label, best acc, volume, frozen %.
pub fn summary_row(log: &ExperimentLog) -> Vec<String> {
    vec![
        log.name.clone(),
        format!("{:.3}", log.best_accuracy()),
        apf_bench::report::fmt_mb(log.total_bytes()),
        format!("{:.1}%", log.mean_frozen_ratio() * 100.0),
    ]
}

/// Prints accuracy-curve CSV rows for several logs side by side:
/// `round, <label1>, <label2>, ...` using best-ever accuracy.
pub fn curves_csv(name: &str, logs: &[&ExperimentLog]) {
    let rounds = logs.iter().map(|l| l.records.len()).max().unwrap_or(0);
    let mut rows = Vec::new();
    for r in 0..rounds {
        let mut row = vec![r.to_string()];
        for log in logs {
            row.push(
                log.records
                    .get(r)
                    .map_or(String::new(), |rec| format!("{:.4}", rec.best_accuracy)),
            );
        }
        rows.push(row);
    }
    let mut headers = vec!["round"];
    let labels: Vec<&str> = logs.iter().map(|l| l.name.as_str()).collect();
    headers.extend(labels);
    apf_bench::report::write_csv(name, &headers, &rows);
}

/// Like [`curves_csv`] but for the frozen-ratio series.
pub fn frozen_csv(name: &str, logs: &[&ExperimentLog]) {
    let rounds = logs.iter().map(|l| l.records.len()).max().unwrap_or(0);
    let mut rows = Vec::new();
    for r in 0..rounds {
        let mut row = vec![r.to_string()];
        for log in logs {
            row.push(
                log.records
                    .get(r)
                    .map_or(String::new(), |rec| format!("{:.4}", rec.frozen_ratio)),
            );
        }
        rows.push(row);
    }
    let mut headers = vec!["round"];
    let labels: Vec<&str> = logs.iter().map(|l| l.name.as_str()).collect();
    headers.extend(labels);
    apf_bench::report::write_csv(name, &headers, &rows);
}

/// Like [`curves_csv`] but for cumulative transmission volume (MB).
pub fn volume_csv(name: &str, logs: &[&ExperimentLog]) {
    let rounds = logs.iter().map(|l| l.records.len()).max().unwrap_or(0);
    let mut rows = Vec::new();
    for r in 0..rounds {
        let mut row = vec![r.to_string()];
        for log in logs {
            row.push(log.records.get(r).map_or(String::new(), |rec| {
                format!("{:.3}", rec.cum_bytes as f64 / 1e6)
            }));
        }
        rows.push(row);
    }
    let mut headers = vec!["round"];
    let labels: Vec<&str> = logs.iter().map(|l| l.name.as_str()).collect();
    headers.extend(labels);
    apf_bench::report::write_csv(name, &headers, &rows);
}

/// Rounds budget scaled by the context (respects `--scale quick`). Takes an
/// unscaled standard-scale count: never pass it `ModelKind::default_rounds`,
/// which is scaled already.
pub fn rounds(ctx: &Ctx, standard: usize) -> usize {
    match ctx.scale {
        Scale::Quick => (standard / 10).max(4),
        Scale::Standard => standard,
        Scale::Paper => standard * 5 / 2,
    }
}
