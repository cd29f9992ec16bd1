//! Shared plumbing for the experiment harness.

use apf_bench::report::{load_log, save_log};
use apf_bench::setups::{ModelKind, Scale};
use apf_fedsim::{Controller, ExperimentLog, RoundRecord, RunSpec, SpecStrategy};

/// Global harness context.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    /// Experiment scale.
    pub scale: Scale,
    /// Base seed.
    pub seed: u64,
}

impl Ctx {
    /// `model`'s standard FedAvg arm with `clients` clients for a
    /// standard-scale budget of `standard_rounds` rounds, scaled.
    pub fn arm(&self, model: ModelKind, clients: usize, standard_rounds: usize) -> RunSpec {
        model.spec(
            self.scale,
            clients,
            self.scale.rounds(standard_rounds),
            self.seed,
        )
    }
}

/// `spec` under the harness's APF: checks every `check_every` rounds with
/// the Alg. 1 AIMD controller matched to the cadence (`L += F_c` per stable
/// verdict, halve on drift).
///
/// Scale adaptation (see DESIGN.md / EXPERIMENTS.md): the paper's
/// Ts = 0.05 / alpha = 0.99 assume thousands of rounds; at our 100-400
/// round budget the EMA horizon must shrink (alpha 0.95) and the threshold
/// loosen (0.1) for the same freezing dynamics to unfold.
pub fn apf(spec: RunSpec, check_every: u32) -> RunSpec {
    RunSpec {
        strategy: SpecStrategy::Apf {
            check_every,
            threshold: 0.1,
            ema_alpha: 0.95,
            f16: false,
        },
        controller: Controller::Aimd {
            increment: check_every,
            decrease_factor: 2,
        },
        ..spec
    }
}

/// Runs `spec`, names its log `label` and saves it under `results/` (the
/// label with `/` as `_` is the file stem).
pub fn run(label: &str, spec: &RunSpec) -> ExperimentLog {
    let mut log = spec.build_runner().run().clone();
    log.name = label.to_owned();
    save_log(&log, &label.replace('/', "_"));
    log
}

/// The log saved under `label` if it is a run of `spec`, else [`run`].
pub fn load_or_run(label: &str, spec: &RunSpec) -> ExperimentLog {
    load_log(&label.replace('/', "_"), spec).unwrap_or_else(|| run(label, spec))
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

/// Writes one per-round series of several logs side by side:
/// `round, <label1>, <label2>, ...`, a cell rendered by `cell`.
fn series_csv(name: &str, logs: &[&ExperimentLog], cell: fn(&RoundRecord) -> String) {
    let rounds = logs.iter().map(|l| l.records.len()).max().unwrap_or(0);
    let rows: Vec<Vec<String>> = (0..rounds)
        .map(|r| {
            let cells = logs
                .iter()
                .map(|log| log.records.get(r).map_or(String::new(), cell));
            std::iter::once(r.to_string()).chain(cells).collect()
        })
        .collect();
    let mut headers = vec!["round"];
    headers.extend(logs.iter().map(|l| l.name.as_str()));
    apf_bench::report::write_csv(name, &headers, &rows);
}

/// Best-ever accuracy curves of several logs side by side.
pub fn curves_csv(name: &str, logs: &[&ExperimentLog]) {
    series_csv(name, logs, |rec| format!("{:.4}", rec.best_accuracy));
}

/// Like [`curves_csv`] but for the frozen-ratio series.
pub fn frozen_csv(name: &str, logs: &[&ExperimentLog]) {
    series_csv(name, logs, |rec| format!("{:.4}", rec.frozen_ratio));
}

/// Like [`curves_csv`] but for cumulative transmission volume (MB).
pub fn volume_csv(name: &str, logs: &[&ExperimentLog]) {
    series_csv(name, logs, |rec| {
        format!("{:.3}", rec.cum_bytes as f64 / 1e6)
    });
}
