//! The part of a federated round that is the same code in every driver.
//!
//! Three loops run rounds — [`crate::FlRunner`], [`crate::PopulationRunner`]
//! and `apf-net`'s `NetServer`. What they share lives here exactly once: the
//! round tail ([`RoundBook`]), the block trainer ([`train_clients`]), the
//! participant sampler ([`sample_cohort`]), and the held-out evaluation with
//! its cadence ([`EvalSetup`], [`evaluates_at`]). The fourth shared piece,
//! the streaming APF reduce, is [`crate::ApfStrategy::absorb`] /
//! [`crate::ApfStrategy::commit`].

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use apf_data::Dataset;
use apf_nn::Sequential;
use apf_obs::{ObsServer, ObsState, RunInfo};
use apf_tensor::{derive_seed, seeded_rng};
use apf_trace::metrics::{counter, gauge};
use apf_trace::{event, span, Level};

use crate::client::Client;
use crate::ledger::{ledger_path, peak_resident_bytes, LedgerRecord};
use crate::metrics::{ExperimentLog, RoundRecord};
use crate::network::NetworkModel;
use crate::runner::FlConfig;
use crate::strategy::RoundComm;

/// Held-out evaluation bundle: the eval model replica plus the test split.
pub struct EvalSetup {
    model: Sequential,
    test: Dataset,
    eval_batch: usize,
}

impl EvalSetup {
    /// Bundles an evaluation replica of the model with the test split.
    pub fn new(model: Sequential, test: Dataset, eval_batch: usize) -> Self {
        EvalSetup {
            model,
            test,
            eval_batch,
        }
    }

    /// Test accuracy of the flat model `params`.
    pub fn accuracy(&mut self, params: &[f32]) -> f32 {
        self.model.load_flat(params);
        apf_nn::evaluate(
            &mut self.model,
            self.test.inputs(),
            self.test.labels(),
            self.eval_batch,
        )
    }
}

/// Whether `round` evaluates the global model: every `eval_every` rounds,
/// and always on the last of `rounds`.
pub fn evaluates_at(round: u64, eval_every: usize, rounds: usize) -> bool {
    round.is_multiple_of(eval_every as u64) || round + 1 == rounds as u64
}

/// Draws round `round`'s cohort of `k` out of `registered` clients: sorted,
/// distinct, seeded by `(seed, round)` so reruns and thread counts cannot
/// change it. `k == 0` or `k >= registered` is full participation.
pub fn sample_cohort(seed: u64, round: u64, registered: usize, k: usize) -> Vec<u64> {
    let n = registered as u64;
    if k == 0 || k >= registered {
        return (0..n).collect();
    }
    let mut rng = seeded_rng(derive_seed(derive_seed(seed, 0xC040), round));
    let mut chosen = std::collections::BTreeSet::new();
    while chosen.len() < k {
        chosen.insert(rng.gen_range(0..n));
    }
    chosen.into_iter().collect()
}

/// Runs one local round on every client of `clients`, writing client `i`'s
/// mean batch loss to `losses[i]` and its wall time to `times[i]`; `hook`
/// gets `(i, flat params)` after every local iteration (the strategy's
/// rollback, Alg. 1 line 2). With `parallel`, one `apf-par` task per client;
/// each writes only its own slots, so the result is bitwise equal to the
/// serial path whatever the completion order.
pub(crate) fn train_clients(
    clients: &mut [&mut Client],
    local_iters: usize,
    hook: &(dyn Fn(usize, &mut [f32]) + Sync),
    parallel: bool,
    losses: &mut [f32],
    times: &mut [f64],
) {
    let parallel = parallel && clients.len() > 1;
    let slots = clients.iter_mut().zip(losses).zip(times).enumerate();
    let train = move |i: usize, client: &mut Client, loss: &mut f32, time: &mut f64| {
        let t0 = Instant::now();
        *loss = client.local_round(local_iters, &|p: &mut [f32]| hook(i, p));
        *time = t0.elapsed().as_secs_f64();
    };
    if parallel {
        apf_par::scope(|s| {
            for (i, ((client, loss), time)) in slots {
                s.spawn(move || train(i, client, loss, time));
            }
        });
    } else {
        for (i, ((client, loss), time)) in slots {
            train(i, client, loss, time);
        }
    }
}

/// The books of one run: the metric log and everything a driver does to it
/// at the end of a round and of the run. A driver calls [`RoundBook::join`]
/// when clients pull the initial model, [`RoundBook::close`] once per round,
/// and [`RoundBook::finish`] once. Cumulative bytes, seconds and best
/// accuracy are read back from the log's last record: the log is the only
/// copy of them.
pub struct RoundBook {
    log: ExperimentLog,
    eval: EvalSetup,
    network: NetworkModel,
    obs: Option<ObsServer>,
    ledger_path: Option<PathBuf>,
    model: String,
    strategy: String,
    rounds: usize,
    eval_every: usize,
    model_bytes: u64,
    /// Initial-model bytes and seconds `join` charged since the last close.
    joined: (u64, f64),
}

impl RoundBook {
    /// Opens the books of a run labelled `name`: `cfg` supplies the round
    /// count and evaluation cadence, `eval` the model (its name and size)
    /// and the test split. `spec`, the canonical [`crate::RunSpec`] string
    /// of a spec-built run, goes into the log, and its digest pairs the
    /// run's ledger record with its baseline. The link model is the paper's
    /// 9/3 Mbps.
    pub fn new(
        name: &str,
        strategy: &str,
        spec: Option<String>,
        cfg: &FlConfig,
        eval: EvalSetup,
    ) -> Self {
        RoundBook {
            log: ExperimentLog {
                spec,
                ..ExperimentLog::new(name)
            },
            network: NetworkModel::default(),
            obs: None,
            ledger_path: None,
            model: eval.model.name().to_owned(),
            strategy: strategy.to_owned(),
            rounds: cfg.rounds,
            eval_every: cfg.eval_every,
            model_bytes: eval.model.param_count() as u64 * 4,
            eval,
            joined: (0, 0.0),
        }
    }

    /// Appends the run's [`LedgerRecord`] to `path` in [`RoundBook::finish`]
    /// (wins over `APF_LEDGER_FILE`).
    pub fn ledger(&mut self, path: impl Into<PathBuf>) {
        self.ledger_path = Some(path.into());
    }

    /// Serves live telemetry (`/metrics`, `/snapshot`, `/series`,
    /// `/healthz`) for the lifetime of the book from `addr`, or from
    /// `APF_OBS_ADDR` when `addr` is `None`; with neither there is no
    /// listener and no per-round sampling cost. The actually-bound address
    /// is written to `APF_OBS_ADDR_FILE` when set (how scripts discover an
    /// ephemeral port).
    pub fn serve(&mut self, addr: Option<&str>) {
        let env = std::env::var("APF_OBS_ADDR").ok();
        let Some(addr) = addr.or(env.as_deref()).filter(|s| !s.is_empty()) else {
            return;
        };
        let state = ObsState::new();
        state.configure_run(RunInfo {
            name: self.log.name.clone(),
            model: self.model.clone(),
            strategy: self.strategy.clone(),
            rounds_total: self.rounds as u64,
            threads: apf_par::threads() as u64,
            host_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
        });
        match ObsServer::bind(addr, state) {
            Ok(server) => {
                if let Some(path) = std::env::var_os("APF_OBS_ADDR_FILE").filter(|p| !p.is_empty())
                {
                    let _ = std::fs::write(path, server.addr().to_string());
                }
                self.obs = Some(server);
            }
            Err(e) => event!(Level::Warn, target: "obs", "bind_failed",
                addr = addr, error = e.to_string()),
        }
    }

    /// The bound telemetry address, when serving (resolves `:0` to the
    /// actual ephemeral port).
    pub fn obs_addr(&self) -> Option<std::net::SocketAddr> {
        self.obs.as_ref().map(ObsServer::addr)
    }

    /// The observable state behind `/snapshot`, when serving.
    pub fn obs_state(&self) -> Option<&Arc<ObsState>> {
        self.obs.as_ref().map(ObsServer::state)
    }

    /// The metric log so far.
    pub fn log(&self) -> &ExperimentLog {
        &self.log
    }

    /// Test accuracy of the flat model `params`.
    pub fn evaluate(&mut self, params: &[f32]) -> f32 {
        self.eval.accuracy(params)
    }

    /// Charges the initial model for `n` clients pulling it for the first
    /// time: the whole fleet before round 0, or late joiners in the round
    /// that first samples them. The seconds are `measured_secs`, or the link
    /// model's (the pulls run in parallel) when `None`.
    pub fn join(&mut self, n: usize, measured_secs: Option<f64>) {
        if n == 0 {
            return;
        }
        let bytes = self.model_bytes * n as u64;
        let secs = measured_secs.unwrap_or_else(|| self.network.transfer_secs(0, self.model_bytes));
        self.joined = (self.joined.0 + bytes, self.joined.1 + secs);
        event!(Level::Debug, target: "fedsim.comm", "transfer",
            round = self.log.records.len() as u64, phase = "init_broadcast",
            bytes_down = bytes, bytes_up = 0u64);
    }

    /// Closes round `round`: accounts `comm` and the seconds (communication
    /// seconds are `comm_secs`, or the link model applied to the busiest
    /// client's transfers when `None`), evaluates `global` when the cadence
    /// says so, appends and returns the round's record, and publishes it
    /// (counters, gauges, telemetry sample, `round_complete` event).
    pub fn close(
        &mut self,
        round: u64,
        mean_loss: f32,
        comm: RoundComm,
        compute_secs: f64,
        comm_secs: Option<f64>,
        global: &[f32],
    ) -> RoundRecord {
        let link = |n: &NetworkModel| n.transfer_secs(comm.max_client_up, comm.max_client_down);
        let comm_secs = comm_secs.unwrap_or_else(|| link(&self.network));
        event!(Level::Debug, target: "fedsim.comm", "transfer",
            round = round, phase = "sync",
            bytes_up = comm.bytes_up, bytes_down = comm.bytes_down,
            max_client_up = comm.max_client_up, max_client_down = comm.max_client_down,
            comm_secs = comm_secs, compute_secs = compute_secs);
        let accuracy = evaluates_at(round, self.eval_every, self.rounds).then(|| {
            let _s = span!(Level::Info, target: "fedsim", "eval", round = round);
            self.eval.accuracy(global)
        });
        let (cum_bytes, cum_secs, best) = self.log.records.last().map_or((0, 0.0, 0.0), |r| {
            (r.cum_bytes, r.cum_secs, r.best_accuracy)
        });
        let (joined_bytes, joined_secs) = std::mem::take(&mut self.joined);
        let record = RoundRecord {
            round,
            loss: mean_loss,
            accuracy,
            best_accuracy: accuracy.map_or(best, |a| best.max(a)),
            frozen_ratio: comm.frozen_ratio,
            bytes_up: comm.bytes_up,
            bytes_down: comm.bytes_down,
            cum_bytes: cum_bytes + joined_bytes + comm.bytes_up + comm.bytes_down,
            compute_secs,
            comm_secs,
            cum_secs: cum_secs + joined_secs + (compute_secs + comm_secs),
        };
        self.log.push(record);
        self.publish(&record);
        record
    }

    /// Counters, gauges, the telemetry sample and the `round_complete` event
    /// of a freshly closed round.
    fn publish(&self, r: &RoundRecord) {
        counter("fedsim.bytes_up").add(r.bytes_up);
        counter("fedsim.bytes_down").add(r.bytes_down);
        counter("fedsim.rounds").inc();
        // Pool health at the round boundary: a healthy steady state holds
        // misses and alloc_bytes flat after the warm-up round, and the slab
        // store's resident_bytes bounded.
        let (scratch_hits, scratch_misses, scratch_bytes) = apf_tensor::scratch::global_stats();
        let (slab_hits, slab_misses, slab_alloc, slab_resident) = apf_tensor::slab::global_stats();
        let gauges = [
            ("fedsim.round", r.round as f64),
            ("fedsim.loss", f64::from(r.loss)),
            ("fedsim.best_accuracy", f64::from(r.best_accuracy)),
            ("fedsim.frozen_ratio", f64::from(r.frozen_ratio)),
            ("scratch.hits", scratch_hits as f64),
            ("scratch.misses", scratch_misses as f64),
            ("scratch.alloc_bytes", scratch_bytes as f64),
            ("slab.hits", slab_hits as f64),
            ("slab.misses", slab_misses as f64),
            ("slab.alloc_bytes", slab_alloc as f64),
            ("slab.resident_bytes", slab_resident as f64),
        ];
        for (name, value) in gauges {
            gauge(name).set(value);
        }
        if let Some(obs) = self.obs_state() {
            // Round-boundary sample for /snapshot and /series: every gauge
            // but the round itself (the sample's x), plus the record.
            let mut fields = gauges[1..].to_vec();
            fields.extend([
                ("fedsim.bytes_up", r.bytes_up as f64),
                ("fedsim.bytes_down", r.bytes_down as f64),
                ("fedsim.cum_bytes", r.cum_bytes as f64),
                ("fedsim.compute_secs", r.compute_secs),
                ("fedsim.comm_secs", r.comm_secs),
                ("fedsim.cum_secs", r.cum_secs),
            ]);
            fields.extend(r.accuracy.map(|a| ("fedsim.accuracy", f64::from(a))));
            obs.record_round(r.round, &fields, Vec::new());
        }
        event!(Level::Info, target: "fedsim", "round_complete",
            round = r.round, loss = r.loss,
            accuracy = r.accuracy.unwrap_or(f32::NAN),
            frozen_ratio = r.frozen_ratio,
            bytes_up = r.bytes_up, bytes_down = r.bytes_down, cum_bytes = r.cum_bytes,
            compute_secs = r.compute_secs, comm_secs = r.comm_secs);
    }

    /// Ends the run: dumps the metrics registry into the trace and flushes
    /// the sink (no-ops when tracing is disabled), marks the telemetry
    /// snapshot completed, and appends the run's [`LedgerRecord`] — with
    /// `extra_metrics` and the peak resident set size — to the ledger named
    /// by [`RoundBook::ledger`] or `APF_LEDGER_FILE`, when either is set.
    pub fn finish(&mut self, wall_secs: f64, extra_metrics: &[(&str, f64)]) {
        apf_trace::metrics::emit();
        apf_trace::flush();
        if let Some(obs) = self.obs_state() {
            obs.mark_completed();
        }
        let Some(path) = ledger_path(self.ledger_path.clone()) else {
            return;
        };
        let mut record = LedgerRecord::from_log(&self.log, &self.model, &self.strategy, wall_secs);
        let peak = peak_resident_bytes().map(|p| ("peak_resident_bytes", p as f64));
        for (name, value) in extra_metrics.iter().copied().chain(peak) {
            record.metrics.insert(name.to_owned(), value);
        }
        match record.append_to(&path) {
            Ok(()) => event!(Level::Info, target: "fedsim", "ledger_appended",
                path = path.display().to_string(), digest = record.config_digest.as_str()),
            Err(e) => event!(Level::Warn, target: "fedsim", "ledger_write_failed",
                path = path.display().to_string(), error = e.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apf_nn::models;

    const MODEL_SCALARS: u64 = 3 * 16 * 16 * 4 + 4 + 4 * 10 + 10;

    fn model(seed: u64) -> Sequential {
        models::mlp("m", &[3 * 16 * 16, 4, 10], seed)
    }

    fn book(rounds: usize, eval_every: usize) -> RoundBook {
        let cfg = FlConfig {
            rounds,
            eval_every,
            ..FlConfig::default()
        };
        let ds = apf_data::synth_images_split(40, 1, 1);
        let test = Dataset::new(
            ds.inputs().reshape(&[ds.len(), 3 * 16 * 16]),
            ds.labels().to_vec(),
            10,
        );
        RoundBook::new("t/s", "s", None, &cfg, EvalSetup::new(model(1), test, 20))
    }

    fn comm(up: u64, down: u64) -> RoundComm {
        RoundComm {
            bytes_up: 3 * up,
            bytes_down: 3 * down,
            max_client_up: up,
            max_client_down: down,
            frozen_ratio: 0.25,
        }
    }

    #[test]
    fn fleet_broadcast_costs_what_the_same_clients_joining_late_cost() {
        let global = model(1).flat_params();
        let mut fleet = book(3, 1);
        let mut late = book(3, 1);
        fleet.join(3, None);
        for round in 0..3 {
            late.join(1, None);
            for b in [&mut fleet, &mut late] {
                b.close(round, 1.0, comm(100, 300), 0.5, None, &global);
            }
        }
        assert_eq!(fleet.log().total_bytes(), late.log().total_bytes());
        assert_eq!(
            fleet.log().total_bytes(),
            3 * MODEL_SCALARS * 4 + 3 * 3 * (100 + 300)
        );
        // The pulls of one join run in parallel; three joins pay the link
        // three times.
        let once = NetworkModel::default().transfer_secs(0, MODEL_SCALARS * 4);
        let secs = |b: &RoundBook| b.log().records[2].cum_secs;
        assert!((secs(&late) - secs(&fleet) - 2.0 * once).abs() < 1e-9);
        // Nobody joining is free.
        late.join(0, None);
        assert_eq!(late.joined, (0, 0.0));
    }

    #[test]
    fn evaluates_on_cadence_multiples_and_the_final_round() {
        let global = model(1).flat_params();
        let mut b = book(8, 3);
        let evaluated: Vec<bool> = (0..8)
            .map(|r| {
                b.close(r, 1.0, comm(1, 1), 0.0, None, &global)
                    .accuracy
                    .is_some()
            })
            .collect();
        assert_eq!(
            evaluated,
            [true, false, false, true, false, false, true, true]
        );
        assert_eq!(
            evaluated,
            (0..8).map(|r| evaluates_at(r, 3, 8)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn best_accuracy_is_monotone_and_cumulatives_are_running_sums() {
        let mut b = book(6, 2);
        b.join(2, Some(0.125));
        let (mut bytes, mut secs, mut best) = (2 * MODEL_SCALARS * 4, 0.125f64, 0.0f32);
        for round in 0..6u64 {
            // A different model every round, so accuracy moves both ways.
            let global = model(round).flat_params();
            let c = comm(10 * (round + 1), 20);
            // Odd rounds pass measured seconds, even rounds use the link.
            let measured = (round % 2 == 1).then_some(0.25);
            let r = b.close(round, 0.5, c, 1.0, measured, &global);
            let comm_secs = measured.unwrap_or(
                NetworkModel::default().transfer_secs(c.max_client_up, c.max_client_down),
            );
            assert_eq!(r.comm_secs, comm_secs);
            bytes += c.bytes_up + c.bytes_down;
            secs += 1.0 + comm_secs;
            best = r.accuracy.map_or(best, |a| best.max(a));
            assert_eq!(r.cum_bytes, bytes, "round {round}");
            assert!((r.cum_secs - secs).abs() < 1e-9, "round {round}");
            assert_eq!(r.best_accuracy, best, "round {round}");
            assert_eq!((r.frozen_ratio, r.loss), (0.25, 0.5));
        }
        let log = b.log();
        assert!(log
            .records
            .windows(2)
            .all(|w| w[0].best_accuracy <= w[1].best_accuracy));
        assert_eq!(log.best_accuracy(), best);
        assert!(best > 0.0, "some model classified something");
    }

    #[test]
    fn cohort_sampling_is_deterministic_sorted_distinct() {
        let a = sample_cohort(7, 3, 1000, 64);
        assert_eq!(a, sample_cohort(7, 3, 1000, 64));
        assert_eq!(a.len(), 64);
        assert!(a.windows(2).all(|w| w[0] < w[1]), "sorted and distinct");
        assert!(a.iter().all(|&c| c < 1000));
        assert_ne!(a, sample_cohort(7, 4, 1000, 64), "rounds draw differently");
        assert_ne!(a, sample_cohort(8, 3, 1000, 64), "seeds draw differently");
        // Full participation: no cohort size, or one the fleet cannot exceed.
        let everyone: Vec<u64> = (0..5).collect();
        assert_eq!(sample_cohort(7, 3, 5, 0), everyone);
        assert_eq!(sample_cohort(7, 3, 5, 5), everyone);
        assert_eq!(sample_cohort(7, 3, 5, 9), everyone);
    }
}
