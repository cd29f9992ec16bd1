//! The federated experiment runner: builds clients, drives rounds, logs
//! metrics.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use apf_data::Dataset;
use apf_nn::{models, Adam, LrSchedule, Optimizer, Sequential, Sgd, Trainer};
use apf_obs::{ObsServer, ObsState, RunInfo};
use apf_tensor::derive_seed;
use apf_trace::{event, span, Level};

use crate::client::Client;
use crate::ledger::{fnv1a64, LedgerRecord};
use crate::metrics::{ExperimentLog, RoundRecord};
use crate::network::NetworkModel;
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
    pub(crate) fn build(&self) -> Box<dyn Optimizer> {
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

    fn base_lr(&self) -> f32 {
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
    /// Fraction of clients participating each round (§7.1 footnote 5:
    /// clients dynamically leave and join). Non-participants skip local
    /// training and contribute weight 0 to aggregation; with admission
    /// control they rejoin from the latest global model. 1.0 = everyone.
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
    network: NetworkModel,
    name: Option<String>,
    obs_addr: Option<String>,
    ledger_path: Option<PathBuf>,
    profile: bool,
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

    /// Enables or disables parallel client training over the `apf-par` pool
    /// (results are identical either way; see [`FlConfig::parallel`]).
    pub fn parallel(mut self, on: bool) -> Self {
        self.cfg.parallel = on;
        self
    }

    /// Overrides the local iterations per round (`F_s`).
    pub fn local_iters(mut self, iters: usize) -> Self {
        self.cfg.local_iters = iters;
        self
    }

    /// Sets the per-round client participation fraction in `(0, 1]`.
    ///
    /// # Panics
    /// Panics if the fraction is outside `(0, 1]`.
    pub fn participation(mut self, fraction: f32) -> Self {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "participation must be in (0, 1]"
        );
        self.cfg.participation = fraction;
        self
    }

    /// Enables the FedProx proximal term with coefficient `mu` (§7.7).
    pub fn prox_mu(mut self, mu: f32) -> Self {
        self.cfg.prox_mu = Some(mu);
        self
    }

    /// Makes the server drop stragglers' uploads (FedAvg semantics in §7.7).
    pub fn drop_stragglers(mut self) -> Self {
        self.cfg.drop_stragglers = true;
        self
    }

    /// Sets the synchronization strategy (default: [`FullSync`]).
    pub fn strategy(mut self, s: Box<dyn SyncStrategy>) -> Self {
        self.strategy = Some(s);
        self
    }

    /// Sets the link model (default: the paper's 9/3 Mbps).
    pub fn network(mut self, n: NetworkModel) -> Self {
        self.network = n;
        self
    }

    /// Sets the experiment label (default: `"<model>/<strategy>"`).
    pub fn name(mut self, n: &str) -> Self {
        self.name = Some(n.to_owned());
        self
    }

    /// Serves live telemetry over HTTP from `addr` (e.g. `"127.0.0.1:9898"`,
    /// or port `0` for an ephemeral port) for the lifetime of the runner:
    /// `/metrics`, `/snapshot`, `/series`, `/healthz`.
    ///
    /// Also enabled without code changes by setting `APF_OBS_ADDR`; this
    /// method wins over the environment. When `APF_OBS_ADDR_FILE` is set,
    /// the actually-bound address is written there (how scripts discover an
    /// ephemeral port).
    pub fn serve(mut self, addr: &str) -> Self {
        self.obs_addr = Some(addr.to_owned());
        self
    }

    /// Appends a [`LedgerRecord`] for the run to the JSONL ledger at `path`
    /// when [`FlRunner::run`] completes (conventionally
    /// `results/ledger.jsonl`). Also enabled by `APF_LEDGER_FILE`; this
    /// method wins over the environment.
    pub fn ledger(mut self, path: impl Into<PathBuf>) -> Self {
        self.ledger_path = Some(path.into());
        self
    }

    /// Samples this run with the `apf-prof` profiler: when
    /// [`FlRunner::run`] completes it writes `flamegraph.pl`-compatible
    /// folded stacks to `APF_PROF_FILE` (when set) and emits a
    /// `profile_complete` summary event. Also enabled without code changes
    /// by `APF_PROF=1` (or `APF_PROF=alloc` for allocation-site
    /// attribution); if something else in the process already started a
    /// profiler session, the runner leaves it alone.
    pub fn profile(mut self) -> Self {
        self.profile = true;
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
        let mut eval_model = (self.model_factory)(model_seed);
        let layout: Vec<(String, usize)> = eval_model
            .flat_spec()
            .params()
            .iter()
            .map(|p| (p.name.clone(), p.len))
            .collect();
        strategy.set_model_layout(layout);
        strategy.set_filter_layout(eval_model.filter_segments());
        strategy.init(&init, clients.len());
        let name = self
            .name
            .unwrap_or_else(|| format!("{}/{}", eval_model.name(), strategy.name()));
        let model_bytes = init.len() as u64 * 4;
        event!(Level::Info, target: "fedsim", "run_configured",
            name = name.as_str(),
            clients = clients.len(),
            model_scalars = init.len(),
            rounds = cfg.rounds,
            local_iters = cfg.local_iters,
            strategy = strategy.name(),
        );
        let model_name = eval_model.name().to_owned();
        let config_digest = fnv1a64(
            config_canonical(&cfg, &model_name, &strategy.name(), clients.len()).as_bytes(),
        );
        // Live telemetry is strictly opt-in: no `.serve()` and no
        // APF_OBS_ADDR means no listener and no per-round sampling cost.
        let obs_addr = self
            .obs_addr
            .or_else(|| std::env::var("APF_OBS_ADDR").ok())
            .filter(|s| !s.is_empty());
        let obs = obs_addr.and_then(|addr| {
            let state = ObsState::new();
            state.configure_run(RunInfo {
                name: name.clone(),
                model: model_name.clone(),
                strategy: strategy.name(),
                rounds_total: cfg.rounds as u64,
                threads: apf_par::threads() as u64,
                host_parallelism: host_parallelism(),
            });
            match ObsServer::bind(addr.as_str(), state) {
                Ok(server) => {
                    // Scripts binding port 0 discover the real port here.
                    if let Ok(path) = std::env::var("APF_OBS_ADDR_FILE") {
                        if !path.is_empty() {
                            let _ = std::fs::write(&path, server.addr().to_string());
                        }
                    }
                    Some(server)
                }
                Err(e) => {
                    event!(Level::Warn, target: "obs", "bind_failed",
                        addr = addr.as_str(), error = e.to_string());
                    None
                }
            }
        });
        let ledger_path = self.ledger_path.or_else(|| {
            std::env::var("APF_LEDGER_FILE")
                .ok()
                .filter(|s| !s.is_empty())
                .map(PathBuf::from)
        });
        // Profiling: the builder flag forces a session on; otherwise defer
        // to APF_PROF. Either way the runner only *finishes* (and writes)
        // a session it started itself — a binary that began profiling
        // before building the runner (e.g. bench-kernels --prof-file)
        // keeps ownership of its session.
        let prof_owned = if self.profile {
            let file = std::env::var("APF_PROF_FILE")
                .ok()
                .filter(|s| !s.is_empty());
            apf_prof::start_with(apf_prof::env_interval(), file, apf_prof::env_wants_alloc())
        } else {
            apf_prof::init_from_env()
        };
        FlRunner {
            clients,
            strategy,
            cfg,
            global: init,
            eval_model,
            test,
            network: self.network,
            log: ExperimentLog::new(&name),
            cum_bytes: 0,
            cum_secs: 0.0,
            best_accuracy: 0.0,
            initial_model_bytes: model_bytes,
            model_name,
            config_digest,
            obs,
            ledger_path,
            prof_owned,
        }
    }
}

/// Canonical configuration string the ledger digest is computed over. Field
/// order is fixed; changing any run-relevant knob changes the digest.
pub(crate) fn config_canonical(
    cfg: &FlConfig,
    model: &str,
    strategy: &str,
    clients: usize,
) -> String {
    format!(
        "model={model};strategy={strategy};clients={clients};local_iters={};rounds={};\
         batch_size={};eval_every={};eval_batch={};seed={};prox_mu={:?};\
         drop_stragglers={};participation={}",
        cfg.local_iters,
        cfg.rounds,
        cfg.batch_size,
        cfg.eval_every,
        cfg.eval_batch,
        cfg.seed,
        cfg.prox_mu,
        cfg.drop_stragglers,
        cfg.participation,
    )
}

fn host_parallelism() -> u64 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u64)
}

/// Drives a federated-learning run and records per-round metrics.
pub struct FlRunner {
    clients: Vec<Client>,
    strategy: Box<dyn SyncStrategy>,
    cfg: FlConfig,
    global: Vec<f32>,
    eval_model: Sequential,
    test: Dataset,
    network: NetworkModel,
    log: ExperimentLog,
    cum_bytes: u64,
    cum_secs: f64,
    best_accuracy: f32,
    initial_model_bytes: u64,
    model_name: String,
    config_digest: u64,
    obs: Option<ObsServer>,
    ledger_path: Option<PathBuf>,
    /// Whether this runner started the `apf-prof` session (and so finishes
    /// and writes it when [`FlRunner::run`] completes).
    prof_owned: bool,
}

impl std::fmt::Debug for FlRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlRunner")
            .field("name", &self.log.name)
            .field("clients", &self.clients.len())
            .finish()
    }
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
            network: NetworkModel::default(),
            name: None,
            obs_addr: None,
            ledger_path: None,
            profile: false,
        }
    }

    /// Convenience builder for one of the paper models by name
    /// (`"lenet5"`, `"resnet"`, `"vgg"`, `"lstm"`).
    ///
    /// # Errors
    /// Returns [`models::ModelError`] (whose `Display` lists the valid
    /// names) for an unrecognized name, so CLI callers can print usage.
    pub fn builder_for_model(
        model: &'static str,
        cfg: FlConfig,
    ) -> Result<FlRunnerBuilder, models::ModelError> {
        if !models::MODEL_NAMES.contains(&model) {
            return Err(models::ModelError {
                name: model.to_owned(),
            });
        }
        Ok(FlRunner::builder(
            move |seed| models::by_name(model, seed).expect("name validated above"),
            cfg,
        ))
    }

    /// The metric log so far.
    pub fn log(&self) -> &ExperimentLog {
        &self.log
    }

    /// The current global flat model.
    pub fn global(&self) -> &[f32] {
        &self.global
    }

    /// The clients (for inspection).
    pub fn clients(&self) -> &[Client] {
        &self.clients
    }

    /// The strategy (for inspection).
    pub fn strategy(&self) -> &dyn SyncStrategy {
        self.strategy.as_ref()
    }

    /// The live-telemetry server's bound address, when serving (resolves
    /// `:0` to the actual ephemeral port).
    pub fn obs_addr(&self) -> Option<std::net::SocketAddr> {
        self.obs.as_ref().map(ObsServer::addr)
    }

    /// The observable state behind `/snapshot`, when serving.
    pub fn obs_state(&self) -> Option<&Arc<ObsState>> {
        self.obs.as_ref().map(ObsServer::state)
    }

    /// Evaluates the current global model on the held-out set.
    pub fn evaluate_global(&mut self) -> f32 {
        self.eval_model.load_flat(&self.global);
        apf_nn::evaluate(
            &mut self.eval_model,
            self.test.inputs(),
            self.test.labels(),
            self.cfg.eval_batch,
        )
    }

    /// Runs one communication round and returns its record.
    pub fn run_round(&mut self, round: u64) -> RoundRecord {
        let _round_span = span!(Level::Info, target: "fedsim", "round", round = round);
        if round == 0 {
            // Initial model distribution: every client pulls the full model.
            self.cum_bytes += self.initial_model_bytes * self.clients.len() as u64;
            self.cum_secs += self.network.transfer_secs(0, self.initial_model_bytes);
            event!(Level::Debug, target: "fedsim.comm", "transfer",
                round = round,
                phase = "init_broadcast",
                bytes_down = self.initial_model_bytes * self.clients.len() as u64,
                bytes_up = 0u64,
            );
        }
        let local_iters = self.cfg.local_iters;
        let strategy = &*self.strategy;
        // Sample this round's participants (everyone when participation = 1;
        // at least one client always participates).
        let participating: Vec<bool> = if self.cfg.participation >= 1.0 {
            vec![true; self.clients.len()]
        } else {
            let mut rng =
                apf_tensor::seeded_rng(apf_tensor::derive_seed(self.cfg.seed, 0x9A27 ^ round));
            let mut p: Vec<bool> = (0..self.clients.len())
                .map(|_| rng.gen::<f32>() < self.cfg.participation)
                .collect();
            if !p.iter().any(|&x| x) {
                let idx = rng.gen_range(0..p.len());
                p[idx] = true;
            }
            p
        };
        // Local training, optionally parallel across clients; compute time is
        // the slowest client's wall time (synchronous barrier).
        let local_span = span!(Level::Info, target: "fedsim", "local_train",
            round = round,
            participants = participating.iter().filter(|&&p| p).count());
        let mut losses = vec![0.0f32; self.clients.len()];
        let mut times = vec![0.0f64; self.clients.len()];
        if self.cfg.parallel && self.clients.len() > 1 {
            // One pool task per participating client, each writing into its
            // own (loss, time) slot; the pool bounds concurrency at
            // `apf_par::threads()` instead of one OS thread per client.
            // Aggregation below reads the slots in client-index order, so
            // results do not depend on completion order.
            apf_par::scope(|s| {
                let participating = &participating;
                for (((i, client), loss_slot), time_slot) in self
                    .clients
                    .iter_mut()
                    .enumerate()
                    .zip(losses.iter_mut())
                    .zip(times.iter_mut())
                {
                    s.spawn(move || {
                        if !participating[i] {
                            return;
                        }
                        let t0 = Instant::now();
                        let hook = move |p: &mut [f32]| {
                            strategy.post_local_iteration(round, i, p);
                        };
                        *loss_slot = client.local_round(local_iters, &hook);
                        *time_slot = t0.elapsed().as_secs_f64();
                    });
                }
            });
        } else {
            for (i, client) in self.clients.iter_mut().enumerate() {
                if !participating[i] {
                    continue;
                }
                let t0 = Instant::now();
                let hook = move |p: &mut [f32]| {
                    strategy.post_local_iteration(round, i, p);
                };
                losses[i] = client.local_round(local_iters, &hook);
                times[i] = t0.elapsed().as_secs_f64();
            }
        }
        drop(local_span);
        let compute_secs = times.iter().cloned().fold(0.0, f64::max);
        if apf_trace::enabled(Level::Debug) {
            for i in 0..self.clients.len() {
                if participating[i] {
                    event!(Level::Debug, target: "fedsim.client", "local_round",
                        round = round, client = i,
                        loss = losses[i], compute_secs = times[i]);
                }
            }
        }
        // Aggregation weights: non-participants contribute nothing, and
        // FedAvg additionally drops stragglers (FedProx keeps them).
        let weights: Vec<f32> = self
            .clients
            .iter()
            .enumerate()
            .map(|(i, c)| {
                if !participating[i] || (self.cfg.drop_stragglers && c.workload() < 1.0) {
                    0.0
                } else {
                    1.0
                }
            })
            .collect();
        let comm = {
            let _s = span!(Level::Info, target: "fedsim", "aggregate", round = round);
            let mut locals: Vec<Vec<f32>> =
                self.clients.iter_mut().map(Client::flat_params).collect();
            let comm = self
                .strategy
                .sync_round(round, &mut locals, &weights, &mut self.global);
            for (c, l) in self.clients.iter_mut().zip(locals) {
                c.load_flat(&l);
                apf_tensor::scratch::give(l);
            }
            comm
        };
        let sync_span = span!(Level::Info, target: "fedsim", "sync", round = round);
        // FedProx: anchor the next round's proximal term at the fresh global.
        if let Some(mu) = self.cfg.prox_mu {
            for c in self.clients.iter_mut() {
                c.trainer_mut().set_prox(mu, self.global.clone());
            }
        }
        let comm_secs = self
            .network
            .transfer_secs(comm.max_client_up, comm.max_client_down);
        self.cum_bytes += comm.bytes_up + comm.bytes_down;
        self.cum_secs += compute_secs + comm_secs;
        event!(Level::Debug, target: "fedsim.comm", "transfer",
            round = round,
            phase = "sync",
            bytes_up = comm.bytes_up,
            bytes_down = comm.bytes_down,
            max_client_up = comm.max_client_up,
            max_client_down = comm.max_client_down,
            comm_secs = comm_secs,
            compute_secs = compute_secs,
        );
        apf_trace::metrics::counter("fedsim.bytes_up").add(comm.bytes_up);
        apf_trace::metrics::counter("fedsim.bytes_down").add(comm.bytes_down);
        drop(sync_span);
        let accuracy = if round.is_multiple_of(self.cfg.eval_every as u64)
            || round + 1 == self.cfg.rounds as u64
        {
            let _s = span!(Level::Info, target: "fedsim", "eval", round = round);
            let acc = self.evaluate_global();
            self.best_accuracy = self.best_accuracy.max(acc);
            Some(acc)
        } else {
            None
        };
        let record = RoundRecord {
            round,
            loss: {
                let k = participating.iter().filter(|&&p| p).count().max(1);
                losses.iter().sum::<f32>() / k as f32
            },
            accuracy,
            best_accuracy: self.best_accuracy,
            frozen_ratio: comm.frozen_ratio,
            bytes_up: comm.bytes_up,
            bytes_down: comm.bytes_down,
            cum_bytes: self.cum_bytes,
            compute_secs,
            comm_secs,
            cum_secs: self.cum_secs,
        };
        self.log.push(record);
        apf_trace::metrics::counter("fedsim.rounds").inc();
        apf_trace::metrics::gauge("fedsim.round").set(round as f64);
        apf_trace::metrics::gauge("fedsim.loss").set(f64::from(record.loss));
        apf_trace::metrics::gauge("fedsim.frozen_ratio").set(f64::from(record.frozen_ratio));
        apf_trace::metrics::gauge("fedsim.best_accuracy").set(f64::from(record.best_accuracy));
        // Scratch-pool health at the round boundary: a healthy steady state
        // holds misses/alloc_bytes flat after the warm-up round.
        let (scratch_hits, scratch_misses, scratch_bytes) = apf_tensor::scratch::global_stats();
        apf_trace::metrics::gauge("scratch.hits").set(scratch_hits as f64);
        apf_trace::metrics::gauge("scratch.misses").set(scratch_misses as f64);
        apf_trace::metrics::gauge("scratch.alloc_bytes").set(scratch_bytes as f64);
        // Slab-store health, same contract as the scratch pool: steady state
        // means misses and alloc_bytes flat, resident_bytes bounded.
        let (slab_hits, slab_misses, slab_alloc, slab_resident) = apf_tensor::slab::global_stats();
        apf_trace::metrics::gauge("slab.hits").set(slab_hits as f64);
        apf_trace::metrics::gauge("slab.misses").set(slab_misses as f64);
        apf_trace::metrics::gauge("slab.alloc_bytes").set(slab_alloc as f64);
        apf_trace::metrics::gauge("slab.resident_bytes").set(slab_resident as f64);
        if let Some(obs) = &self.obs {
            // Round-boundary sample for /snapshot and /series.
            let mut fields: Vec<(&str, f64)> = vec![
                ("fedsim.loss", f64::from(record.loss)),
                ("fedsim.best_accuracy", f64::from(record.best_accuracy)),
                ("fedsim.frozen_ratio", f64::from(record.frozen_ratio)),
                ("fedsim.bytes_up", record.bytes_up as f64),
                ("fedsim.bytes_down", record.bytes_down as f64),
                ("fedsim.cum_bytes", record.cum_bytes as f64),
                ("fedsim.compute_secs", record.compute_secs),
                ("fedsim.comm_secs", record.comm_secs),
                ("fedsim.cum_secs", record.cum_secs),
                ("scratch.hits", scratch_hits as f64),
                ("scratch.misses", scratch_misses as f64),
                ("scratch.alloc_bytes", scratch_bytes as f64),
                ("slab.hits", slab_hits as f64),
                ("slab.misses", slab_misses as f64),
                ("slab.alloc_bytes", slab_alloc as f64),
                ("slab.resident_bytes", slab_resident as f64),
            ];
            if let Some(acc) = record.accuracy {
                fields.push(("fedsim.accuracy", f64::from(acc)));
            }
            obs.state()
                .record_round(round, &fields, self.strategy.layer_frozen_ratios(round));
        }
        event!(Level::Info, target: "fedsim", "round_complete",
            round = round,
            loss = record.loss,
            accuracy = record.accuracy.map_or(f32::NAN, |a| a),
            frozen_ratio = record.frozen_ratio,
            bytes_up = record.bytes_up,
            bytes_down = record.bytes_down,
            cum_bytes = record.cum_bytes,
            compute_secs = record.compute_secs,
            comm_secs = record.comm_secs,
        );
        record
    }

    /// Runs all configured rounds and returns the final log.
    ///
    /// On completion, dumps the metrics registry into the trace and flushes
    /// the sink (both no-ops when tracing is disabled), marks the telemetry
    /// snapshot completed, and — when a ledger is configured via
    /// [`FlRunnerBuilder::ledger`] or `APF_LEDGER_FILE` — appends a
    /// [`LedgerRecord`] for the run.
    pub fn run(&mut self) -> &ExperimentLog {
        let t0 = Instant::now();
        for r in 0..self.cfg.rounds as u64 {
            self.run_round(r);
        }
        let wall_secs = t0.elapsed().as_secs_f64();
        apf_trace::metrics::emit();
        if self.prof_owned {
            self.prof_owned = false;
            if let Some(profile) = apf_prof::finish() {
                event!(Level::Info, target: "prof", "profile_complete",
                    passes = profile.passes,
                    samples = profile.total_samples(),
                    stacks = profile.stacks.len());
            }
        }
        apf_trace::flush();
        if let Some(obs) = &self.obs {
            obs.state().mark_completed();
        }
        if let Some(path) = self.ledger_path.clone() {
            let mut record = LedgerRecord::from_log(
                &self.log,
                &self.model_name,
                &self.strategy.name(),
                self.config_digest,
                wall_secs,
            );
            if let Some(peak) = crate::ledger::peak_resident_bytes() {
                record
                    .metrics
                    .insert("peak_resident_bytes".to_owned(), peak as f64);
            }
            match record.append_to(&path) {
                Ok(()) => event!(Level::Info, target: "fedsim", "ledger_appended",
                    path = path.display().to_string(),
                    digest = record.config_digest.as_str()),
                Err(e) => event!(Level::Warn, target: "fedsim", "ledger_write_failed",
                    path = path.display().to_string(),
                    error = e.to_string()),
            }
        }
        &self.log
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::ApfStrategy;
    use apf::ApfConfig;
    use apf_data::iid_partition;

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
        // At 50% participation, at least one round must upload less than a
        // full-participation round.
        assert!(
            log.records.iter().any(|r| r.bytes_up < full_round_up),
            "no round had reduced uploads"
        );
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
