//! The federated experiment runner: builds clients, drives rounds, logs
//! metrics.

use std::path::PathBuf;
use std::time::Instant;

use apf_data::Dataset;
use apf_nn::{Adam, LrSchedule, Optimizer, Sequential, Sgd, Trainer};
use apf_tensor::derive_seed;
use apf_trace::{event, span, Level};

use crate::client::Client;
use crate::metrics::{ExperimentLog, RoundRecord};
use crate::round::{sample_cohort, train_clients, EvalSetup, RoundBook};
use crate::strategy::{FullSync, SyncStrategy};

/// Which optimizer each client runs (§7.1: Adam for LeNet-5, SGD elsewhere).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OptimizerKind {
    /// SGD with optional momentum and weight decay.
    Sgd {
        /// Learning rate.
        lr: f32,
        /// Classical momentum (0 disables).
        momentum: f32,
        /// L2 weight decay.
        weight_decay: f32,
    },
    /// Adam with weight decay.
    Adam {
        /// Learning rate.
        lr: f32,
        /// L2 weight decay.
        weight_decay: f32,
    },
}

impl OptimizerKind {
    /// A fresh optimizer of this kind, at its base learning rate (pair it
    /// with [`OptimizerKind::base_lr`]'s constant schedule, or a decay).
    pub fn build(&self) -> Box<dyn Optimizer> {
        match *self {
            OptimizerKind::Sgd {
                lr,
                momentum,
                weight_decay,
            } => Box::new(
                Sgd::new(lr)
                    .with_momentum(momentum)
                    .with_weight_decay(weight_decay),
            ),
            OptimizerKind::Adam { lr, weight_decay } => {
                Box::new(Adam::new(lr).with_weight_decay(weight_decay))
            }
        }
    }

    /// The learning rate the optimizer starts from.
    pub fn base_lr(&self) -> f32 {
        match *self {
            OptimizerKind::Sgd { lr, .. } | OptimizerKind::Adam { lr, .. } => lr,
        }
    }
}

/// Federated-run hyper-parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct FlConfig {
    /// Local iterations per round (`F_s`, equivalently local epochs × steps).
    pub local_iters: usize,
    /// Number of communication rounds.
    pub rounds: usize,
    /// Mini-batch size (the paper uses 100; scaled setups use less).
    pub batch_size: usize,
    /// Evaluate the global model every this many rounds (always evaluates
    /// the final round).
    pub eval_every: usize,
    /// Evaluation batch size.
    pub eval_batch: usize,
    /// Experiment seed (drives data order, initialization, APF randomness).
    pub seed: u64,
    /// FedProx proximal coefficient μ (None = plain local SGD).
    pub prox_mu: Option<f32>,
    /// Drop stragglers' uploads (FedAvg semantics in §7.7); FedProx keeps
    /// them.
    pub drop_stragglers: bool,
    /// Fraction of clients participating each round (§7.1 footnote 5):
    /// below 1.0 a cohort of `ceil(participation * clients)` is drawn per
    /// round from `(seed, round)`. Non-participants skip local training,
    /// contribute weight 0 to aggregation, and rejoin from the latest global
    /// model. 1.0 = everyone.
    pub participation: f32,
    /// Train clients concurrently on the `apf-par` pool (bounded by
    /// `APF_PAR_THREADS`). Aggregation order is by client index either way,
    /// so results are bitwise identical to the serial path.
    pub parallel: bool,
}

impl Default for FlConfig {
    fn default() -> Self {
        FlConfig {
            local_iters: 10,
            rounds: 100,
            batch_size: 32,
            eval_every: 5,
            eval_batch: 100,
            seed: 0,
            prox_mu: None,
            drop_stragglers: false,
            participation: 1.0,
            parallel: true,
        }
    }
}

/// Builder for [`FlRunner`].
pub struct FlRunnerBuilder {
    model_factory: Box<dyn Fn(u64) -> Sequential>,
    cfg: FlConfig,
    optimizer: OptimizerKind,
    schedule: Option<LrSchedule>,
    client_data: Vec<Dataset>,
    stragglers: Vec<(usize, f32)>,
    test: Option<Dataset>,
    strategy: Option<Box<dyn SyncStrategy>>,
    spec: Option<String>,
    obs_addr: Option<String>,
    ledger_path: Option<PathBuf>,
}

impl FlRunnerBuilder {
    /// Sets the optimizer kind (default: SGD, lr 0.1, no momentum/decay).
    pub fn optimizer(mut self, kind: OptimizerKind) -> Self {
        self.optimizer = kind;
        self
    }

    /// Sets the learning-rate schedule (default: constant at the optimizer's
    /// base rate).
    pub fn schedule(mut self, s: LrSchedule) -> Self {
        self.schedule = Some(s);
        self
    }

    /// Creates one client per index set of `partition`, each holding its
    /// shard of `train`.
    ///
    /// # Panics
    /// Panics if any part is empty.
    pub fn clients_from_partition(mut self, train: &Dataset, partition: &[Vec<usize>]) -> Self {
        for part in partition {
            assert!(
                !part.is_empty(),
                "a client received no data; re-seed the partition"
            );
            self.client_data.push(train.select(part));
        }
        self
    }

    /// Marks client `index` as a straggler doing only `fraction` of the
    /// local work each round.
    pub fn straggler(mut self, index: usize, fraction: f32) -> Self {
        self.stragglers.push((index, fraction));
        self
    }

    /// Sets the held-out evaluation set.
    pub fn test_set(mut self, test: Dataset) -> Self {
        self.test = Some(test);
        self
    }

    /// Edits the run configuration handed to [`FlRunner::builder`], e.g.
    /// `.config(|c| c.prox_mu = Some(0.01))` for FedProx (§7.7).
    pub fn config(mut self, edit: impl FnOnce(&mut FlConfig)) -> Self {
        edit(&mut self.cfg);
        self
    }

    /// Sets the synchronization strategy (default: [`FullSync`]).
    pub fn strategy(mut self, s: Box<dyn SyncStrategy>) -> Self {
        self.strategy = Some(s);
        self
    }

    /// Records `canonical`, the [`crate::RunSpec`] this runner was built
    /// from, in the log and as the ledger digest's input. A runner assembled
    /// by hand has none, and its ledger record pairs with nothing.
    pub(crate) fn spec(mut self, canonical: String) -> Self {
        self.spec = Some(canonical);
        self
    }

    /// Serves live telemetry over HTTP from `addr` (e.g. `"127.0.0.1:9898"`,
    /// or port `0` for an ephemeral port) for the lifetime of the runner.
    /// Wins over `APF_OBS_ADDR`; see [`RoundBook::serve`].
    pub fn serve(mut self, addr: &str) -> Self {
        self.obs_addr = Some(addr.to_owned());
        self
    }

    /// Appends the run's [`crate::LedgerRecord`] to the JSONL ledger at
    /// `path` (conventionally `results/ledger.jsonl`) when [`FlRunner::run`]
    /// completes. Wins over `APF_LEDGER_FILE`.
    pub fn ledger(mut self, path: impl Into<PathBuf>) -> Self {
        self.ledger_path = Some(path.into());
        self
    }

    /// Assembles the runner.
    ///
    /// # Panics
    /// Panics if no clients or no test set were configured.
    pub fn build(self) -> FlRunner {
        // Honor APF_TRACE/APF_TRACE_FILE for any entry point that reaches a
        // runner; idempotent and free after the first call.
        apf_trace::init_from_env();
        assert!(!self.client_data.is_empty(), "no clients configured");
        let test = self.test.expect("no test set configured");
        let cfg = self.cfg;
        // Every client starts from the SAME model (seeded identically): in
        // real FL the server distributes the initial model.
        let model_seed = derive_seed(cfg.seed, 0x30DE1);
        let schedule = self
            .schedule
            .unwrap_or(LrSchedule::Constant(self.optimizer.base_lr()));
        let mut clients: Vec<Client> = self
            .client_data
            .into_iter()
            .enumerate()
            .map(|(i, data)| {
                let trainer = Trainer::new(
                    (self.model_factory)(model_seed),
                    self.optimizer.build(),
                    schedule,
                );
                Client::new(
                    trainer,
                    data,
                    cfg.batch_size,
                    derive_seed(cfg.seed, i as u64),
                )
            })
            .collect();
        for (i, frac) in self.stragglers {
            clients[i].set_workload(frac);
        }
        let mut strategy = self.strategy.unwrap_or_else(|| Box::new(FullSync::new()));
        let init = clients[0].flat_params();
        let eval_model = (self.model_factory)(model_seed);
        let layout: Vec<(String, usize)> = eval_model
            .flat_spec()
            .params()
            .iter()
            .map(|p| (p.name.clone(), p.len))
            .collect();
        strategy.set_model_layout(layout);
        strategy.init(&init, clients.len());
        let name = format!("{}/{}", eval_model.name(), strategy.name());
        event!(Level::Info, target: "fedsim", "run_configured",
            name = name.as_str(), clients = clients.len(), model_scalars = init.len(),
            rounds = cfg.rounds, local_iters = cfg.local_iters, strategy = strategy.name());
        let mut book = RoundBook::new(
            &name,
            &strategy.name(),
            self.spec,
            &cfg,
            EvalSetup::new(eval_model, test, cfg.eval_batch),
        );
        if let Some(path) = self.ledger_path {
            book.ledger(path);
        }
        // Live telemetry is strictly opt-in: no `.serve()` and no
        // APF_OBS_ADDR means no listener and no per-round sampling cost.
        book.serve(self.obs_addr.as_deref());
        // Profiling is driven by APF_PROF. The runner only *finishes* (and
        // writes) a session it started itself — a binary that began
        // profiling before building the runner (e.g. apf-server --sim
        // --prof-file) keeps ownership of its session.
        let prof_owned = apf_prof::init_from_env(None);
        FlRunner {
            clients,
            strategy,
            cfg,
            global: init,
            book,
            prof_owned,
        }
    }
}

/// Drives a federated-learning run and records per-round metrics.
pub struct FlRunner {
    clients: Vec<Client>,
    strategy: Box<dyn SyncStrategy>,
    cfg: FlConfig,
    global: Vec<f32>,
    book: RoundBook,
    /// Whether this runner started the `apf-prof` session (and so finishes
    /// and writes it when [`FlRunner::run`] completes).
    prof_owned: bool,
}

impl FlRunner {
    /// Starts a builder. `model_factory` must be deterministic in its seed.
    pub fn builder(
        model_factory: impl Fn(u64) -> Sequential + 'static,
        cfg: FlConfig,
    ) -> FlRunnerBuilder {
        FlRunnerBuilder {
            model_factory: Box::new(model_factory),
            cfg,
            optimizer: OptimizerKind::Sgd {
                lr: 0.1,
                momentum: 0.0,
                weight_decay: 0.0,
            },
            schedule: None,
            client_data: Vec::new(),
            stragglers: Vec::new(),
            test: None,
            strategy: None,
            spec: None,
            obs_addr: None,
            ledger_path: None,
        }
    }

    /// The metric log so far.
    pub fn log(&self) -> &ExperimentLog {
        self.book.log()
    }

    /// The current global flat model.
    pub fn global(&self) -> &[f32] {
        &self.global
    }

    /// The clients (for inspection).
    pub fn clients(&self) -> &[Client] {
        &self.clients
    }

    /// The live-telemetry server's bound address, when serving (resolves
    /// `:0` to the actual ephemeral port).
    pub fn obs_addr(&self) -> Option<std::net::SocketAddr> {
        self.book.obs_addr()
    }

    /// [`FlRunnerBuilder::serve`] for an already-built runner.
    pub fn serve(&mut self, addr: &str) {
        self.book.serve(Some(addr));
    }

    /// [`FlRunnerBuilder::ledger`] for an already-built runner.
    pub fn ledger(&mut self, path: impl Into<PathBuf>) {
        self.book.ledger(path);
    }

    /// Evaluates the current global model on the held-out set.
    pub fn evaluate_global(&mut self) -> f32 {
        self.book.evaluate(&self.global)
    }

    /// Runs one communication round and returns its record.
    pub fn run_round(&mut self, round: u64) -> RoundRecord {
        let _round_span = span!(Level::Info, target: "fedsim", "round", round = round);
        let n = self.clients.len();
        if round == 0 {
            // Initial model distribution: every client pulls the full model.
            self.book.join(n, None);
        }
        // This round's participants: everyone, or a fixed-size cohort.
        let k = if self.cfg.participation < 1.0 {
            ((self.cfg.participation * n as f32).ceil() as usize).max(1)
        } else {
            n
        };
        let cohort = sample_cohort(self.cfg.seed, round, n, k);
        // Local training; compute time is the slowest client's wall time
        // (synchronous barrier).
        let local_span = span!(Level::Info, target: "fedsim", "local_train",
            round = round, clients = cohort.len());
        let mut losses = vec![0.0f32; cohort.len()];
        let mut times = vec![0.0f64; cohort.len()];
        let strategy = &*self.strategy;
        let hook =
            |i: usize, p: &mut [f32]| strategy.post_local_iteration(round, cohort[i] as usize, p);
        let mut members: Vec<&mut Client> = self
            .clients
            .iter_mut()
            .enumerate()
            .filter_map(|(i, c)| cohort.binary_search(&(i as u64)).is_ok().then_some(c))
            .collect();
        train_clients(
            &mut members,
            self.cfg.local_iters,
            &hook,
            self.cfg.parallel,
            &mut losses,
            &mut times,
        );
        drop(local_span);
        let compute_secs = times.iter().cloned().fold(0.0, f64::max);
        for (i, &id) in cohort.iter().enumerate() {
            event!(Level::Debug, target: "fedsim.client", "local_round",
                round = round, client = id as usize,
                loss = losses[i], compute_secs = times[i]);
        }
        // Aggregation weights: non-participants contribute nothing, and
        // FedAvg additionally drops stragglers (FedProx keeps them).
        let mut weights = vec![0.0f32; n];
        for &id in &cohort {
            let straggler = self.clients[id as usize].workload() < 1.0;
            weights[id as usize] = f32::from(!(self.cfg.drop_stragglers && straggler));
        }
        let comm = {
            let _s = span!(Level::Info, target: "fedsim", "aggregate", round = round);
            // Each client's arena is its local: moved out and back, never
            // copied.
            let mut locals: Vec<Vec<f32>> = self
                .clients
                .iter_mut()
                .map(|c| c.trainer_mut().model_mut().take_arena())
                .collect();
            let comm = self
                .strategy
                .sync_round(round, &mut locals, &weights, &mut self.global);
            for (c, l) in self.clients.iter_mut().zip(locals) {
                c.trainer_mut().model_mut().put_arena(l);
            }
            comm
        };
        {
            let _s = span!(Level::Info, target: "fedsim", "sync", round = round);
            // FedProx: anchor the next round's proximal term at the new global.
            if let Some(mu) = self.cfg.prox_mu {
                for c in self.clients.iter_mut() {
                    c.trainer_mut().set_prox(mu, self.global.clone());
                }
            }
        }
        let mean_loss = losses.iter().sum::<f32>() / cohort.len() as f32;
        let record = self
            .book
            .close(round, mean_loss, comm, compute_secs, None, &self.global);
        if let Some(obs) = self.book.obs_state() {
            // The per-layer view only this driver's strategy can supply.
            obs.record_round(round, &[], self.strategy.layer_frozen_ratios(round));
        }
        record
    }

    /// Runs all configured rounds and returns the final log. On completion,
    /// finishes the profiler session the runner started (if any) and closes
    /// the books ([`RoundBook::finish`]: metrics dump, flush, ledger record).
    pub fn run(&mut self) -> &ExperimentLog {
        let t0 = Instant::now();
        for r in 0..self.cfg.rounds as u64 {
            self.run_round(r);
        }
        let wall_secs = t0.elapsed().as_secs_f64();
        if self.prof_owned {
            self.prof_owned = false;
            if let Some(profile) = apf_prof::finish() {
                event!(Level::Info, target: "prof", "profile_complete",
                    passes = profile.passes,
                    samples = profile.total_samples(),
                    stacks = profile.stacks.len());
            }
        }
        self.book.finish(wall_secs, &[]);
        self.book.log()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::ApfStrategy;
    use apf::ApfConfig;
    use apf_data::iid_partition;
    use apf_nn::models;

    fn tiny_cfg(rounds: usize) -> FlConfig {
        FlConfig {
            local_iters: 3,
            rounds,
            batch_size: 10,
            eval_every: 2,
            eval_batch: 50,
            seed: 7,
            parallel: false,
            ..FlConfig::default()
        }
    }

    fn mlp_factory(seed: u64) -> Sequential {
        models::mlp("m", &[3 * 16 * 16, 24, 10], seed)
    }

    fn flat_images(n: usize, split: u64) -> Dataset {
        let ds = apf_data::synth_images_split(n, 1, split);
        Dataset::new(
            ds.inputs().reshape(&[ds.len(), 3 * 16 * 16]),
            ds.labels().to_vec(),
            10,
        )
    }

    #[test]
    fn fedavg_run_improves_accuracy() {
        let train = flat_images(120, 1);
        let test = flat_images(100, 2);
        let parts = iid_partition(train.len(), 3, 7);
        let mut runner = FlRunner::builder(mlp_factory, tiny_cfg(12))
            .optimizer(OptimizerKind::Sgd {
                lr: 0.05,
                momentum: 0.9,
                weight_decay: 0.0,
            })
            .clients_from_partition(&train, &parts)
            .test_set(test)
            .build();
        let log = runner.run();
        assert_eq!(log.records.len(), 12);
        assert!(log.best_accuracy() > 0.3, "best {}", log.best_accuracy());
        // Cumulative bytes: initial distribution + 12 rounds full model.
        let model_bytes = (3 * 16 * 16 * 24 + 24 + 24 * 10 + 10) as u64 * 4;
        assert_eq!(
            log.total_bytes(),
            model_bytes * 3 + 12 * 2 * 3 * model_bytes
        );
    }

    #[test]
    fn parallel_and_serial_agree() {
        let train = flat_images(60, 3);
        let test = flat_images(40, 4);
        let parts = iid_partition(train.len(), 2, 1);
        let run = |parallel: bool| {
            let cfg = FlConfig {
                parallel,
                ..tiny_cfg(4)
            };
            let mut runner = FlRunner::builder(mlp_factory, cfg)
                .clients_from_partition(&train, &parts)
                .test_set(test.clone())
                .build();
            runner.run();
            runner.global().to_vec()
        };
        let a = run(false);
        let b = run(true);
        assert_eq!(a, b, "client parallelism must not change results");
    }

    #[test]
    fn apf_strategy_saves_bytes_eventually() {
        let train = flat_images(80, 5);
        let test = flat_images(40, 6);
        let parts = iid_partition(train.len(), 2, 2);
        let apf_cfg = ApfConfig {
            check_every_rounds: 2,
            ..ApfConfig::default()
        };
        let mut runner = FlRunner::builder(mlp_factory, tiny_cfg(20))
            .optimizer(OptimizerKind::Sgd {
                lr: 0.05,
                momentum: 0.9,
                weight_decay: 0.0,
            })
            .clients_from_partition(&train, &parts)
            .test_set(test)
            .strategy(Box::new(ApfStrategy::new(apf_cfg).unwrap()))
            .build();
        let log = runner.run();
        // Some freezing should have occurred by round 20.
        assert!(
            log.records.iter().any(|r| r.frozen_ratio > 0.0),
            "APF never froze anything in 20 rounds"
        );
    }

    #[test]
    fn straggler_weights_respected() {
        let train = flat_images(60, 8);
        let test = flat_images(30, 9);
        let parts = iid_partition(train.len(), 2, 3);
        let cfg = FlConfig {
            drop_stragglers: true,
            ..tiny_cfg(2)
        };
        let mut runner = FlRunner::builder(mlp_factory, cfg)
            .clients_from_partition(&train, &parts)
            .straggler(1, 0.5)
            .test_set(test)
            .build();
        let r0 = runner.run_round(0);
        // Only one client uploads: bytes_up is half of bytes_down.
        assert_eq!(r0.bytes_up * 2, r0.bytes_down);
    }

    #[test]
    fn fedprox_engages_after_first_round() {
        let train = flat_images(60, 10);
        let test = flat_images(30, 11);
        let parts = iid_partition(train.len(), 2, 4);
        let cfg = FlConfig {
            prox_mu: Some(0.01),
            ..tiny_cfg(3)
        };
        let mut runner = FlRunner::builder(mlp_factory, cfg)
            .clients_from_partition(&train, &parts)
            .test_set(test)
            .build();
        let log = runner.run();
        assert_eq!(log.records.len(), 3);
        assert!(log.records.iter().all(|r| r.loss.is_finite()));
    }

    #[test]
    fn eval_cadence() {
        let train = flat_images(40, 12);
        let test = flat_images(20, 13);
        let parts = iid_partition(train.len(), 2, 5);
        let mut runner = FlRunner::builder(mlp_factory, tiny_cfg(5))
            .clients_from_partition(&train, &parts)
            .test_set(test)
            .build();
        let log = runner.run();
        let evals: Vec<bool> = log.records.iter().map(|r| r.accuracy.is_some()).collect();
        // eval_every = 2 plus the final round.
        assert_eq!(evals, vec![true, false, true, false, true]);
    }

    #[test]
    fn partial_participation_reduces_uploads() {
        let train = flat_images(80, 16);
        let test = flat_images(30, 17);
        let parts = iid_partition(train.len(), 4, 7);
        let cfg = FlConfig {
            participation: 0.5,
            ..tiny_cfg(6)
        };
        let mut runner = FlRunner::builder(mlp_factory, cfg)
            .clients_from_partition(&train, &parts)
            .test_set(test.clone())
            .build();
        let log = runner.run().clone();
        let full_round_up = {
            let cfg = tiny_cfg(1);
            let mut r = FlRunner::builder(mlp_factory, cfg)
                .clients_from_partition(&train, &parts)
                .test_set(test)
                .build();
            r.run_round(0).bytes_up
        };
        // At 50% participation exactly ceil(0.5 * 4) = 2 of the 4 clients
        // upload, every round.
        for r in &log.records {
            assert_eq!(r.bytes_up * 2, full_round_up, "round {}", r.round);
        }
        // And training still progresses.
        assert!(log.records.iter().all(|r| r.loss.is_finite()));
    }

    #[test]
    fn determinism_across_runs() {
        let train = flat_images(40, 14);
        let test = flat_images(20, 15);
        let parts = iid_partition(train.len(), 2, 6);
        let run = || {
            let mut r = FlRunner::builder(mlp_factory, tiny_cfg(3))
                .clients_from_partition(&train, &parts)
                .test_set(test.clone())
                .build();
            r.run();
            r.global().to_vec()
        };
        assert_eq!(run(), run());
    }
}
