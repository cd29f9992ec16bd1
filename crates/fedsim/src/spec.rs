//! Self-contained run specifications: one value that deterministically
//! reconstructs an entire federated experiment — datasets, partition,
//! clients, model, optimizer, strategy — on any process.
//!
//! [`RunSpec`] exists so that *two different executions agree bitwise*. The
//! in-process simulator consumes it through [`RunSpec::build_runner`]; the
//! `apf-net` parameter server and its remote clients consume the same spec
//! through [`RunSpec::make_client`] / [`RunSpec::eval_setup`] after shipping
//! [`RunSpec::canonical`] over the wire in the Welcome frame. Because every
//! seed, every dataset draw, and every aggregation happens in the same order
//! on both paths, the loss/frozen-ratio/accuracy trajectories must match bit
//! for bit — the parity contract `crates/net/tests/parity.rs` enforces.
//!
//! The canonical string is versioned (`apf-spec-v1`) and round-trips exactly:
//! floats are formatted with Rust's shortest-roundtrip `Display`, so
//! `parse(canonical())` reproduces the spec field-for-field.

use apf::ApfConfig;
use apf_data::{dirichlet_partition, iid_partition, synth_images_split, with_label_noise, Dataset};
use apf_nn::{models, LrSchedule, Sequential, Sgd, Trainer};
use apf_quant::EmaCodec;
use apf_tensor::derive_seed;

use crate::client::Client;
use crate::ledger::fnv1a64;
use crate::population::{PopulationConfig, PopulationData, PopulationRunner};
use crate::round::{evaluates_at, EvalSetup};
use crate::runner::{config_canonical, FlConfig, FlRunner, OptimizerKind};
use crate::strategy::{ApfStrategy, FullSync, SyncStrategy};

/// How the training set is split across clients.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PartitionKind {
    /// IID shards of equal size, shuffled with `seed`.
    Iid {
        /// Partition shuffle seed.
        seed: u64,
    },
    /// Dirichlet(label) non-IID partition (smaller `alpha` = more skew).
    Dirichlet {
        /// Dirichlet concentration.
        alpha: f64,
        /// Partition sampling seed.
        seed: u64,
    },
}

/// Which synchronization strategy the run uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SpecStrategy {
    /// Vanilla FedAvg ([`FullSync`]).
    Fedavg,
    /// The APF family with the default AIMD controller.
    Apf {
        /// Stability-check cadence in rounds.
        check_every: u32,
        /// Effective-perturbation stability threshold.
        threshold: f32,
        /// EMA smoothing factor.
        ema_alpha: f32,
        /// Stack fp16 wire quantization (§7.7).
        f16: bool,
    },
}

/// Spec parse failure: which token was malformed and why.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecError(pub String);

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad run spec: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

/// A complete, deterministic description of one federated run on the
/// synthetic-image MLP task.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// Number of clients.
    pub clients: usize,
    /// Communication rounds.
    pub rounds: usize,
    /// Local iterations per round.
    pub local_iters: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Evaluation cadence in rounds (the final round always evaluates).
    pub eval_every: usize,
    /// Evaluation batch size.
    pub eval_batch: usize,
    /// Master seed (drives model init, data order, APF randomness).
    pub seed: u64,
    /// Training-set size (synthetic images, split 0).
    pub train_n: usize,
    /// Test-set size (synthetic images, split 1).
    pub test_n: usize,
    /// Hidden width of the `[768, hidden, 10]` MLP.
    pub hidden: usize,
    /// SGD learning rate.
    pub lr: f32,
    /// SGD momentum.
    pub momentum: f32,
    /// L2 weight decay.
    pub weight_decay: f32,
    /// Label-noise fraction applied to the training split (0 disables).
    pub label_noise: f32,
    /// Client data partition.
    pub partition: PartitionKind,
    /// Synchronization strategy.
    pub strategy: SpecStrategy,
    /// Clients sampled per round by the population runner (`0` = full
    /// participation). Emitted in the canonical string only when non-zero,
    /// so existing golden strings and digests are untouched.
    pub cohort: usize,
    /// Dormant-state codec of the population runner's registry and manager
    /// hop. Emitted in the canonical string only when not dense.
    pub dormant: EmaCodec,
    /// Train clients on the `apf-par` pool. Not part of the canonical
    /// string: parallelism is bitwise-invisible by the determinism contract.
    pub parallel: bool,
}

impl RunSpec {
    /// The golden fixture shared by the fedsim determinism tests and the
    /// net-vs-sim parity harness: 3 IID clients, 4 rounds, tiny MLP.
    pub fn golden() -> RunSpec {
        RunSpec {
            clients: 3,
            rounds: 4,
            local_iters: 2,
            batch_size: 16,
            eval_every: 1,
            eval_batch: 100,
            seed: 7,
            train_n: 96,
            test_n: 48,
            hidden: 12,
            lr: 0.05,
            momentum: 0.9,
            weight_decay: 1e-4,
            label_noise: 0.0,
            partition: PartitionKind::Iid { seed: 7 },
            strategy: SpecStrategy::Apf {
                check_every: 1,
                threshold: 0.1,
                ema_alpha: 0.9,
                f16: false,
            },
            cohort: 0,
            dormant: EmaCodec::Dense,
            parallel: true,
        }
    }

    /// The versioned canonical string; `parse` inverts it exactly.
    pub fn canonical(&self) -> String {
        let partition = match self.partition {
            PartitionKind::Iid { seed } => format!("iid,{seed}"),
            PartitionKind::Dirichlet { alpha, seed } => format!("dirichlet,{alpha},{seed}"),
        };
        let strategy = match self.strategy {
            SpecStrategy::Fedavg => "fedavg".to_owned(),
            SpecStrategy::Apf {
                check_every,
                threshold,
                ema_alpha,
                f16,
            } => format!(
                "apf,{check_every},{threshold},{ema_alpha},{}",
                if f16 { "f16" } else { "f32" }
            ),
        };
        let mut s = format!(
            "apf-spec-v1;clients={};rounds={};local_iters={};batch={};eval_every={};\
             eval_batch={};seed={};train_n={};test_n={};hidden={};lr={};momentum={};\
             weight_decay={};label_noise={};partition={partition};strategy={strategy}",
            self.clients,
            self.rounds,
            self.local_iters,
            self.batch_size,
            self.eval_every,
            self.eval_batch,
            self.seed,
            self.train_n,
            self.test_n,
            self.hidden,
            self.lr,
            self.momentum,
            self.weight_decay,
            self.label_noise,
        );
        // Population keys entered the format after v1 shipped: default
        // values stay invisible so pre-population canonical strings (and
        // their digests) are bit-for-bit unchanged.
        if self.cohort != 0 {
            s.push_str(&format!(";cohort={}", self.cohort));
        }
        if self.dormant != EmaCodec::Dense {
            s.push_str(&format!(";dormant={}", self.dormant.name()));
        }
        s
    }

    /// Parses a canonical string back into a spec.
    ///
    /// # Errors
    /// Returns [`SpecError`] on an unknown version, missing or duplicate
    /// key, unparseable value, or a spec no run could execute: a zero
    /// count or size, fewer training samples than clients, a non-finite
    /// optimizer setting, a label-noise fraction outside `[0, 1]`, a
    /// Dirichlet `alpha` that is not positive and finite, or an APF
    /// configuration [`ApfConfig::validate`] rejects. (Whether a Dirichlet
    /// draw leaves a client without data depends on the seed; that stays a
    /// runtime panic of the runner.)
    pub fn parse(s: &str) -> Result<RunSpec, SpecError> {
        let mut parts = s.trim().split(';');
        let version = parts.next().unwrap_or("");
        if version != "apf-spec-v1" {
            return Err(SpecError(format!("unknown version {version:?}")));
        }
        let mut spec = RunSpec::golden();
        let mut seen = std::collections::BTreeSet::new();
        for kv in parts {
            let (k, v) = kv
                .split_once('=')
                .ok_or_else(|| SpecError(format!("token {kv:?} is not key=value")))?;
            if !seen.insert(k.to_owned()) {
                return Err(SpecError(format!("duplicate key {k:?}")));
            }
            let bad = |what: &str| SpecError(format!("key {k}: bad {what} {v:?}"));
            match k {
                "clients" => spec.clients = v.parse().map_err(|_| bad("usize"))?,
                "rounds" => spec.rounds = v.parse().map_err(|_| bad("usize"))?,
                "local_iters" => spec.local_iters = v.parse().map_err(|_| bad("usize"))?,
                "batch" => spec.batch_size = v.parse().map_err(|_| bad("usize"))?,
                "eval_every" => spec.eval_every = v.parse().map_err(|_| bad("usize"))?,
                "eval_batch" => spec.eval_batch = v.parse().map_err(|_| bad("usize"))?,
                "seed" => spec.seed = v.parse().map_err(|_| bad("u64"))?,
                "train_n" => spec.train_n = v.parse().map_err(|_| bad("usize"))?,
                "test_n" => spec.test_n = v.parse().map_err(|_| bad("usize"))?,
                "hidden" => spec.hidden = v.parse().map_err(|_| bad("usize"))?,
                "lr" => spec.lr = v.parse().map_err(|_| bad("f32"))?,
                "momentum" => spec.momentum = v.parse().map_err(|_| bad("f32"))?,
                "weight_decay" => spec.weight_decay = v.parse().map_err(|_| bad("f32"))?,
                "label_noise" => spec.label_noise = v.parse().map_err(|_| bad("f32"))?,
                "cohort" => spec.cohort = v.parse().map_err(|_| bad("usize"))?,
                "dormant" => {
                    spec.dormant = EmaCodec::parse(v).ok_or_else(|| bad("dormant codec"))?;
                }
                "partition" => {
                    let fields: Vec<&str> = v.split(',').collect();
                    spec.partition = match fields.as_slice() {
                        ["iid", seed] => PartitionKind::Iid {
                            seed: seed.parse().map_err(|_| bad("iid seed"))?,
                        },
                        ["dirichlet", alpha, seed] => PartitionKind::Dirichlet {
                            alpha: alpha.parse().map_err(|_| bad("alpha"))?,
                            seed: seed.parse().map_err(|_| bad("dirichlet seed"))?,
                        },
                        _ => return Err(bad("partition")),
                    };
                }
                "strategy" => {
                    let fields: Vec<&str> = v.split(',').collect();
                    spec.strategy = match fields.as_slice() {
                        ["fedavg"] => SpecStrategy::Fedavg,
                        ["apf", check, thresh, ema, width] => SpecStrategy::Apf {
                            check_every: check.parse().map_err(|_| bad("check_every"))?,
                            threshold: thresh.parse().map_err(|_| bad("threshold"))?,
                            ema_alpha: ema.parse().map_err(|_| bad("ema_alpha"))?,
                            f16: match *width {
                                "f16" => true,
                                "f32" => false,
                                _ => return Err(bad("wire width")),
                            },
                        },
                        _ => return Err(bad("strategy")),
                    };
                }
                _ => return Err(SpecError(format!("unknown key {k:?}"))),
            }
        }
        let sizes = [
            spec.clients,
            spec.rounds,
            spec.local_iters,
            spec.batch_size,
            spec.eval_batch,
            spec.train_n,
            spec.test_n,
            spec.hidden,
        ];
        if sizes.contains(&0) {
            return Err(SpecError(
                "clients/rounds/local_iters/batch/eval_batch/train_n/test_n/hidden must be > 0"
                    .into(),
            ));
        }
        if spec.train_n < spec.clients {
            return Err(SpecError(format!(
                "train_n {} leaves some of {} clients without data",
                spec.train_n, spec.clients
            )));
        }
        for (name, v) in [
            ("lr", spec.lr),
            ("momentum", spec.momentum),
            ("weight_decay", spec.weight_decay),
        ] {
            if !v.is_finite() {
                return Err(SpecError(format!("{name} {v} is not finite")));
            }
        }
        if !(0.0..=1.0).contains(&spec.label_noise) {
            return Err(SpecError(format!(
                "label_noise {} outside [0, 1]",
                spec.label_noise
            )));
        }
        if let PartitionKind::Dirichlet { alpha, .. } = spec.partition {
            if !(alpha > 0.0 && alpha.is_finite()) {
                return Err(SpecError(format!(
                    "dirichlet alpha {alpha} is not positive and finite"
                )));
            }
        }
        if let Some(cfg) = spec.apf_config() {
            cfg.validate()
                .map_err(|e| SpecError(format!("strategy: {e}")))?;
        }
        Ok(spec)
    }

    /// The model-init seed every client and the server share.
    pub fn model_seed(&self) -> u64 {
        derive_seed(self.seed, 0x30DE1)
    }

    /// A fresh model at the shared initialization.
    pub fn model(&self) -> Sequential {
        models::mlp("m", &[3 * 16 * 16, self.hidden, 10], self.model_seed())
    }

    /// The initial flat parameter vector (what round 0 broadcasts).
    pub fn init_params(&self) -> Vec<f32> {
        self.model().flat_params()
    }

    /// The training split (with label noise applied when configured).
    pub fn train_set(&self) -> Dataset {
        let ds = synth_images_split(self.train_n, 1, 0);
        let ds = if self.label_noise > 0.0 {
            with_label_noise(&ds, self.label_noise, 1)
        } else {
            ds
        };
        Dataset::new(
            ds.inputs().reshape(&[ds.len(), 3 * 16 * 16]),
            ds.labels().to_vec(),
            10,
        )
    }

    /// The held-out test split.
    pub fn test_set(&self) -> Dataset {
        let ds = synth_images_split(self.test_n, 1, 1);
        Dataset::new(
            ds.inputs().reshape(&[ds.len(), 3 * 16 * 16]),
            ds.labels().to_vec(),
            10,
        )
    }

    /// The per-client index partition of the training set.
    pub fn partition_indices(&self, train: &Dataset) -> Vec<Vec<usize>> {
        match self.partition {
            PartitionKind::Iid { seed } => iid_partition(train.len(), self.clients, seed),
            PartitionKind::Dirichlet { alpha, seed } => {
                dirichlet_partition(train.labels(), self.clients, alpha, seed)
            }
        }
    }

    /// Builds client `i` exactly as [`FlRunner`] would: same model seed,
    /// same optimizer, same shard, same data-order RNG.
    ///
    /// # Panics
    /// Panics if `i` is out of range or the partition left shard `i` empty.
    pub fn make_client(&self, i: usize) -> Client {
        assert!(i < self.clients, "client index {i} out of range");
        let train = self.train_set();
        let shard = train.select(&self.partition_indices(&train)[i]);
        let trainer = Trainer::new(
            self.model(),
            Box::new(
                Sgd::new(self.lr)
                    .with_momentum(self.momentum)
                    .with_weight_decay(self.weight_decay),
            ),
            LrSchedule::Constant(self.lr),
        );
        Client::new(
            trainer,
            shard,
            self.batch_size,
            derive_seed(self.seed, i as u64),
        )
    }

    /// The APF configuration for the strategy, or `None` for FedAvg.
    pub fn apf_config(&self) -> Option<ApfConfig> {
        match self.strategy {
            SpecStrategy::Fedavg => None,
            SpecStrategy::Apf {
                check_every,
                threshold,
                ema_alpha,
                f16,
            } => Some(ApfConfig {
                check_every_rounds: check_every,
                stability_threshold: threshold,
                ema_alpha,
                seed: self.seed,
                bytes_per_scalar: if f16 { 2 } else { 4 },
                ..ApfConfig::default()
            }),
        }
    }

    /// Whether the wire carries binary16 payloads.
    pub fn wire_f16(&self) -> bool {
        matches!(self.strategy, SpecStrategy::Apf { f16: true, .. })
    }

    /// The strategy label as the runner would report it.
    pub fn strategy_name(&self) -> String {
        match self.strategy {
            SpecStrategy::Fedavg => "fedavg".to_owned(),
            SpecStrategy::Apf { f16, .. } => {
                if f16 {
                    "apf+q".to_owned()
                } else {
                    "apf".to_owned()
                }
            }
        }
    }

    /// Instantiates the strategy.
    fn make_strategy(&self) -> Box<dyn SyncStrategy> {
        match self.strategy {
            SpecStrategy::Fedavg => Box::new(FullSync::new()),
            SpecStrategy::Apf { f16, .. } => {
                let cfg = self.apf_config().expect("Apf variant has a config");
                let s = ApfStrategy::new(ApfConfig {
                    // `with_f16` owns the bytes_per_scalar switch.
                    bytes_per_scalar: 4,
                    ..cfg
                })
                .expect("spec-derived ApfConfig must validate");
                if f16 {
                    Box::new(s.with_f16())
                } else {
                    Box::new(s)
                }
            }
        }
    }

    /// The equivalent [`FlConfig`].
    pub fn fl_config(&self) -> FlConfig {
        FlConfig {
            local_iters: self.local_iters,
            rounds: self.rounds,
            batch_size: self.batch_size,
            eval_every: self.eval_every,
            eval_batch: self.eval_batch,
            seed: self.seed,
            parallel: self.parallel,
            ..FlConfig::default()
        }
    }

    /// The ledger configuration digest a simulator run of this spec gets —
    /// networked runs reuse it so `ledger-report diff` pairs the records.
    pub fn config_digest(&self) -> u64 {
        fnv1a64(
            config_canonical(&self.fl_config(), "m", &self.strategy_name(), self.clients)
                .as_bytes(),
        )
    }

    /// The experiment label the runner would use (`"<model>/<strategy>"`).
    pub fn run_name(&self) -> String {
        format!("m/{}", self.strategy_name())
    }

    /// Assembles the in-process simulator for this spec.
    pub fn build_runner(&self) -> FlRunner {
        let hidden = self.hidden;
        let train = self.train_set();
        let parts = self.partition_indices(&train);
        FlRunner::builder(
            move |seed| models::mlp("m", &[3 * 16 * 16, hidden, 10], seed),
            self.fl_config(),
        )
        .optimizer(OptimizerKind::Sgd {
            lr: self.lr,
            momentum: self.momentum,
            weight_decay: self.weight_decay,
        })
        .clients_from_partition(&train, &parts)
        .test_set(self.test_set())
        .strategy(self.make_strategy())
        .build()
    }

    /// Assembles the event-driven population runner for this spec: the same
    /// registered clients and data shards as [`RunSpec::build_runner`], but
    /// held as compact dormant registry state with cohort sampling per
    /// [`RunSpec::cohort`]. With `cohort == 0` and a dense dormant codec the
    /// result is bitwise identical to the classic runner.
    ///
    /// # Panics
    /// Panics if the spec's strategy is not an APF variant — the population
    /// runner's single-shared-manager design (§6.2) is APF-specific.
    pub fn build_population_runner(&self) -> PopulationRunner {
        let hidden = self.hidden;
        let train = self.train_set();
        let parts = self.partition_indices(&train);
        let cfg = PopulationConfig {
            fl: self.fl_config(),
            registered: self.clients,
            cohort: self.cohort,
            codec: self.dormant,
            shells: self.clients.clamp(1, 64),
            apf: self
                .apf_config()
                .expect("population runner requires an APF strategy"),
            wire_f16: self.wire_f16(),
            optimizer: OptimizerKind::Sgd {
                lr: self.lr,
                momentum: self.momentum,
                weight_decay: self.weight_decay,
            },
            schedule: LrSchedule::Constant(self.lr),
        };
        PopulationRunner::new(
            cfg,
            move |seed| models::mlp("m", &[3 * 16 * 16, hidden, 10], seed),
            PopulationData::Shared { train, parts },
            self.test_set(),
        )
    }

    /// The evaluation half of the run (for processes that are not running
    /// the full simulator, i.e. the `apf-net` server).
    pub fn eval_setup(&self) -> EvalSetup {
        EvalSetup::new(self.model(), self.test_set(), self.eval_batch)
    }

    /// Whether `round` is an evaluation round under this spec.
    pub fn evaluates_at(&self, round: u64) -> bool {
        evaluates_at(round, self.eval_every, self.rounds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_roundtrips_exactly() {
        let mut spec = RunSpec::golden();
        assert_eq!(RunSpec::parse(&spec.canonical()).unwrap(), spec);
        spec.partition = PartitionKind::Dirichlet {
            alpha: 0.3,
            seed: 11,
        };
        spec.strategy = SpecStrategy::Apf {
            check_every: 2,
            threshold: 0.05,
            ema_alpha: 0.99,
            f16: true,
        };
        spec.label_noise = 0.25;
        spec.weight_decay = 1e-4;
        assert_eq!(RunSpec::parse(&spec.canonical()).unwrap(), spec);
        spec.strategy = SpecStrategy::Fedavg;
        assert_eq!(RunSpec::parse(&spec.canonical()).unwrap(), spec);
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "",
            "apf-spec-v2;clients=3",
            "apf-spec-v1;clients",
            "apf-spec-v1;clients=x",
            "apf-spec-v1;clients=0",
            "apf-spec-v1;rounds=0",
            "apf-spec-v1;mystery=1",
            "apf-spec-v1;clients=2;clients=2",
            "apf-spec-v1;partition=ring,3",
            "apf-spec-v1;strategy=apf,1,0.1,0.9,f64",
            // Each of these parsed once and then panicked in the run.
            "apf-spec-v1;batch=0",
            "apf-spec-v1;local_iters=0",
            "apf-spec-v1;eval_batch=0",
            "apf-spec-v1;hidden=0",
            "apf-spec-v1;strategy=apf,0,0.1,0.9,f32",
            "apf-spec-v1;strategy=apf,1,-1,0.9,f32",
            "apf-spec-v1;strategy=apf,1,0.1,1.5,f32",
            "apf-spec-v1;label_noise=2",
            "apf-spec-v1;partition=dirichlet,0,7",
            "apf-spec-v1;clients=200;train_n=96",
            // These ran to the end on a meaningless loss.
            "apf-spec-v1;lr=NaN",
            "apf-spec-v1;lr=inf",
            "apf-spec-v1;momentum=NaN",
            "apf-spec-v1;weight_decay=inf",
        ] {
            assert!(RunSpec::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn population_keys_default_invisibly() {
        // Pre-population canonical strings (and digests) must be unchanged
        // by the cohort/dormant additions.
        let golden = RunSpec::golden();
        let canon = golden.canonical();
        assert!(!canon.contains("cohort="), "{canon}");
        assert!(!canon.contains("dormant="), "{canon}");
        // Non-default values round-trip exactly.
        let spec = RunSpec {
            cohort: 5,
            dormant: EmaCodec::F16,
            ..RunSpec::golden()
        };
        let canon = spec.canonical();
        assert!(canon.ends_with(";cohort=5;dormant=f16"), "{canon}");
        assert_eq!(RunSpec::parse(&canon).unwrap(), spec);
        assert!(RunSpec::parse("apf-spec-v1;dormant=f64").is_err());
    }

    #[test]
    fn spec_clients_match_runner_clients() {
        // make_client(i) must reproduce the runner's client i exactly: same
        // initial params, same shard size.
        let spec = RunSpec::golden();
        let runner = spec.build_runner();
        for i in 0..spec.clients {
            let mut mine = spec.make_client(i);
            assert_eq!(mine.data().len(), runner.clients()[i].data().len());
            assert_eq!(mine.flat_params(), spec.init_params());
        }
    }

    #[test]
    fn digest_matches_what_the_runner_ledgers() {
        // Changing a run-relevant knob must change the digest.
        let a = RunSpec::golden().config_digest();
        let b = RunSpec {
            seed: 8,
            ..RunSpec::golden()
        }
        .config_digest();
        assert_ne!(a, b);
        // parallel is bitwise-invisible and must not affect the digest.
        let c = RunSpec {
            parallel: false,
            ..RunSpec::golden()
        }
        .config_digest();
        assert_eq!(a, c);
    }

    #[test]
    fn eval_setup_matches_runner_eval() {
        let spec = RunSpec::golden();
        let mut runner = spec.build_runner();
        runner.run();
        let acc_runner = runner.evaluate_global();
        let acc_spec = spec.eval_setup().accuracy(runner.global());
        assert_eq!(acc_runner.to_bits(), acc_spec.to_bits());
    }

    #[test]
    fn eval_cadence_matches_runner() {
        let spec = RunSpec {
            rounds: 7,
            eval_every: 3,
            ..RunSpec::golden()
        };
        let evals: Vec<bool> = (0..7).map(|r| spec.evaluates_at(r)).collect();
        assert_eq!(evals, [true, false, false, true, false, false, true]);
    }
}
