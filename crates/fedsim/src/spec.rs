//! Self-contained run specifications: one value that deterministically
//! reconstructs an entire federated experiment — model and synthetic task,
//! partition, clients, optimizer, strategy — on any process.
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
//! It is also every experiment arm of the paper harness, and its canonical
//! string is the run's identity: the ledger's config digest is
//! [`RunSpec::config_digest`] and a saved `results/*.json` log is reused
//! only under the same string.
//!
//! The canonical string is versioned (`apf-spec-v1`) and round-trips exactly:
//! floats are formatted with Rust's shortest-roundtrip `Display`, so
//! `parse(canonical())` reproduces the spec field-for-field. Keys added after
//! v1 shipped are written only when they differ from what v1 means, so every
//! v1 string still renders byte for byte (DESIGN.md lists the grammar).

use apf::{ApfConfig, ApfVariant};
use apf_data::{
    classes_per_client_partition, dirichlet_partition, iid_partition, synth_images_split,
    synth_kws_split, with_label_noise, Dataset,
};
use apf_nn::{models, LrSchedule, Sequential, Trainer};
use apf_quant::EmaCodec;
use apf_tensor::derive_seed;

use crate::client::Client;
use crate::ledger::fnv1a64;
use crate::population::{PopulationConfig, PopulationData, PopulationRunner};
use crate::round::{evaluates_at, EvalSetup};
use crate::runner::{FlConfig, FlRunner, OptimizerKind};
use crate::strategy::{ApfStrategy, Cmfl, Controller, FullSync, Gaia, PartialSync, SyncStrategy};

/// Which network the run trains, on which synthetic task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecModel {
    /// The `[768, hidden, 10]` MLP on flattened synthetic images.
    Mlp,
    /// LeNet-5 on synthetic images (the CIFAR-10 stand-in).
    Lenet5,
    /// The residual CNN on synthetic images.
    Resnet,
    /// The 2-layer LSTM on the synthetic keyword-spotting task.
    Lstm,
}

impl SpecModel {
    /// The spec token; for the paper models also the `models::by_name` name.
    pub fn name(self) -> &'static str {
        match self {
            SpecModel::Mlp => "mlp",
            SpecModel::Lenet5 => "lenet5",
            SpecModel::Resnet => "resnet",
            SpecModel::Lstm => "lstm",
        }
    }
}

/// Which optimizer every client runs; [`RunSpec::lr`], `momentum` and
/// `weight_decay` are its settings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecOptimizer {
    /// SGD with momentum and weight decay.
    Sgd,
    /// Adam with weight decay (no momentum setting: `momentum` must be 0).
    Adam,
}

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
    /// `k` distinct classes per client (the §7.3 extreme non-IID setup).
    ClassesPerClient {
        /// Classes each client holds.
        k: usize,
        /// Partition sampling seed.
        seed: u64,
    },
}

/// Which synchronization strategy the run uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SpecStrategy {
    /// Vanilla FedAvg ([`FullSync`]).
    Fedavg,
    /// The APF family; [`RunSpec::variant`] and [`RunSpec::controller`]
    /// pick APF#/APF++ and the freezing-period controller.
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
    /// Strawman 1 of §4.1 ([`PartialSync`]).
    PartialSync {
        /// Stability-check cadence in rounds.
        check_every: u32,
        /// Effective-perturbation stability threshold.
        threshold: f32,
        /// EMA smoothing factor.
        ema_alpha: f32,
    },
    /// Gaia's significance filter ([`Gaia`]).
    Gaia {
        /// Initial significance threshold.
        threshold: f32,
    },
    /// CMFL's relevance filter ([`Cmfl`]).
    Cmfl {
        /// Initial relevance threshold.
        threshold: f32,
        /// Per-round threshold decay.
        decay: f32,
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

/// A complete, deterministic description of one federated run.
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
    /// Training-set size (split 0 of the task).
    pub train_n: usize,
    /// Test-set size (split 1 of the task).
    pub test_n: usize,
    /// Hidden width of the `[768, hidden, 10]` MLP (the other models
    /// reject any value but the default 12).
    pub hidden: usize,
    /// Learning rate (the initial one under [`RunSpec::lr_decay`]).
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
    /// participation).
    pub cohort: usize,
    /// Dormant-state codec of the population runner's registry and manager
    /// hop.
    pub dormant: EmaCodec,
    /// The network and its synthetic task.
    pub model: SpecModel,
    /// Generator seed of the task's samples and of the label noise (v1: 1,
    /// whatever `seed` is).
    pub data_seed: u64,
    /// The clients' optimizer.
    pub optimizer: SpecOptimizer,
    /// Multiply the learning rate by `.0` once every `.1` local steps
    /// (`None` = constant).
    pub lr_decay: Option<(f32, usize)>,
    /// Workload fractions of clients `0..stragglers.len()`: a straggler does
    /// only that share of each round's local iterations (§7.7).
    pub stragglers: Vec<f32>,
    /// Drop stragglers' uploads (FedAvg's §7.7 semantics).
    pub drop_stragglers: bool,
    /// FedProx proximal coefficient μ (`None` = plain local training).
    pub prox_mu: Option<f32>,
    /// APF variant (standard, APF# or APF++); APF strategies only.
    pub variant: ApfVariant,
    /// Freezing-period controller; APF strategies only.
    pub controller: Controller,
    /// Train clients on the `apf-par` pool. Not part of the canonical
    /// string: parallelism is bitwise-invisible by the determinism contract.
    pub parallel: bool,
}

/// Parses one spec value, naming the key on failure.
fn field<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, SpecError> {
    value
        .parse()
        .map_err(|_| SpecError(format!("key {key}: bad value {value:?}")))
}

impl RunSpec {
    /// The golden fixture shared by the fedsim determinism tests and the
    /// net-vs-sim parity harness: 3 IID clients, 4 rounds, tiny MLP. Its
    /// values are also what a key missing from a spec string means.
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
            model: SpecModel::Mlp,
            data_seed: 1,
            optimizer: SpecOptimizer::Sgd,
            lr_decay: None,
            stragglers: Vec::new(),
            drop_stragglers: false,
            prox_mu: None,
            variant: ApfVariant::Standard,
            controller: Controller::default(),
            parallel: true,
        }
    }

    /// The keys that entered the format after v1, rendered, in canonical
    /// order.
    fn later_keys(&self) -> [(&'static str, String); 11] {
        let list = |v: &[f32]| v.iter().map(f32::to_string).collect::<Vec<_>>().join(",");
        [
            ("cohort", self.cohort.to_string()),
            ("dormant", self.dormant.name().to_owned()),
            ("model", self.model.name().to_owned()),
            ("data_seed", self.data_seed.to_string()),
            (
                "optimizer",
                match self.optimizer {
                    SpecOptimizer::Sgd => "sgd",
                    SpecOptimizer::Adam => "adam",
                }
                .to_owned(),
            ),
            (
                "lr_decay",
                self.lr_decay
                    .map_or("none".to_owned(), |(f, every)| format!("{f},{every}")),
            ),
            ("stragglers", list(&self.stragglers)),
            ("drop_stragglers", self.drop_stragglers.to_string()),
            (
                "prox_mu",
                self.prox_mu.map_or("none".to_owned(), |mu| mu.to_string()),
            ),
            (
                "variant",
                match self.variant {
                    ApfVariant::Standard => "standard".to_owned(),
                    ApfVariant::Sharp { prob } => format!("sharp,{prob}"),
                    ApfVariant::PlusPlus { a1, a2 } => format!("plusplus,{a1},{a2}"),
                },
            ),
            (
                "controller",
                match self.controller {
                    Controller::Aimd {
                        increment,
                        decrease_factor,
                    } => format!("aimd,{increment},{decrease_factor}"),
                    Controller::PureAdditive { step } => format!("additive,{step}"),
                    Controller::PureMultiplicative { factor } => format!("multiplicative,{factor}"),
                    Controller::FixedPeriod { len } => format!("fixed,{len}"),
                },
            ),
        ]
    }

    /// The versioned canonical string; `parse` inverts it exactly.
    pub fn canonical(&self) -> String {
        let partition = match self.partition {
            PartitionKind::Iid { seed } => format!("iid,{seed}"),
            PartitionKind::Dirichlet { alpha, seed } => format!("dirichlet,{alpha},{seed}"),
            PartitionKind::ClassesPerClient { k, seed } => format!("classes-per-client,{k},{seed}"),
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
            SpecStrategy::PartialSync {
                check_every,
                threshold,
                ema_alpha,
            } => format!("partial-sync,{check_every},{threshold},{ema_alpha}"),
            SpecStrategy::Gaia { threshold } => format!("gaia,{threshold}"),
            SpecStrategy::Cmfl { threshold, decay } => format!("cmfl,{threshold},{decay}"),
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
        // A later key is written only where it departs from v1, so every v1
        // string (and its digest) is unchanged.
        let v1 = RunSpec::golden().later_keys();
        for ((key, value), (_, default)) in self.later_keys().into_iter().zip(v1) {
            if value != default {
                s.push_str(&format!(";{key}={value}"));
            }
        }
        s
    }

    /// Parses a canonical string back into a spec.
    ///
    /// # Errors
    /// Returns [`SpecError`] on an unknown version, missing or duplicate
    /// key, unparseable value, or a spec no run could execute: a zero
    /// count, size or cadence, fewer training samples than clients, a
    /// non-finite optimizer setting, momentum under Adam, a label-noise
    /// fraction outside `[0, 1]`, a Dirichlet `alpha` that is not positive
    /// and finite, a straggler beyond the fleet or outside `(0, 1]`, an APF
    /// variant or controller on a strategy that is not APF, or a strategy
    /// configuration its constructor rejects. (Whether a Dirichlet draw
    /// leaves a client without data depends on the seed; that stays a
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
            let bad = || SpecError(format!("key {k}: bad value {v:?}"));
            let fields: Vec<&str> = v.split(',').collect();
            match k {
                "clients" => spec.clients = field(k, v)?,
                "rounds" => spec.rounds = field(k, v)?,
                "local_iters" => spec.local_iters = field(k, v)?,
                "batch" => spec.batch_size = field(k, v)?,
                "eval_every" => spec.eval_every = field(k, v)?,
                "eval_batch" => spec.eval_batch = field(k, v)?,
                "seed" => spec.seed = field(k, v)?,
                "train_n" => spec.train_n = field(k, v)?,
                "test_n" => spec.test_n = field(k, v)?,
                "hidden" => spec.hidden = field(k, v)?,
                "lr" => spec.lr = field(k, v)?,
                "momentum" => spec.momentum = field(k, v)?,
                "weight_decay" => spec.weight_decay = field(k, v)?,
                "label_noise" => spec.label_noise = field(k, v)?,
                "cohort" => spec.cohort = field(k, v)?,
                "dormant" => spec.dormant = EmaCodec::parse(v).ok_or_else(bad)?,
                "data_seed" => spec.data_seed = field(k, v)?,
                "drop_stragglers" => spec.drop_stragglers = field(k, v)?,
                "model" => {
                    spec.model = [
                        SpecModel::Mlp,
                        SpecModel::Lenet5,
                        SpecModel::Resnet,
                        SpecModel::Lstm,
                    ]
                    .into_iter()
                    .find(|m| m.name() == v)
                    .ok_or_else(bad)?;
                }
                "optimizer" => {
                    spec.optimizer = match v {
                        "sgd" => SpecOptimizer::Sgd,
                        "adam" => SpecOptimizer::Adam,
                        _ => return Err(bad()),
                    };
                }
                "lr_decay" => {
                    spec.lr_decay = match fields.as_slice() {
                        ["none"] => None,
                        [factor, every] => Some((field(k, factor)?, field(k, every)?)),
                        _ => return Err(bad()),
                    };
                }
                "stragglers" => {
                    spec.stragglers = fields
                        .iter()
                        .filter(|f| !f.is_empty())
                        .map(|f| field(k, f))
                        .collect::<Result<_, _>>()?;
                }
                "prox_mu" => {
                    spec.prox_mu = match v {
                        "none" => None,
                        mu => Some(field(k, mu)?),
                    };
                }
                "variant" => {
                    spec.variant = match fields.as_slice() {
                        ["standard"] => ApfVariant::Standard,
                        ["sharp", prob] => ApfVariant::Sharp {
                            prob: field(k, prob)?,
                        },
                        ["plusplus", a1, a2] => ApfVariant::PlusPlus {
                            a1: field(k, a1)?,
                            a2: field(k, a2)?,
                        },
                        _ => return Err(bad()),
                    };
                }
                "controller" => {
                    spec.controller = match fields.as_slice() {
                        ["aimd", increment, factor] => Controller::Aimd {
                            increment: field(k, increment)?,
                            decrease_factor: field(k, factor)?,
                        },
                        ["additive", step] => Controller::PureAdditive {
                            step: field(k, step)?,
                        },
                        ["multiplicative", factor] => Controller::PureMultiplicative {
                            factor: field(k, factor)?,
                        },
                        ["fixed", len] => Controller::FixedPeriod {
                            len: field(k, len)?,
                        },
                        _ => return Err(bad()),
                    };
                }
                "partition" => {
                    spec.partition = match fields.as_slice() {
                        ["iid", seed] => PartitionKind::Iid {
                            seed: field(k, seed)?,
                        },
                        ["dirichlet", alpha, seed] => PartitionKind::Dirichlet {
                            alpha: field(k, alpha)?,
                            seed: field(k, seed)?,
                        },
                        ["classes-per-client", classes, seed] => PartitionKind::ClassesPerClient {
                            k: field(k, classes)?,
                            seed: field(k, seed)?,
                        },
                        _ => return Err(bad()),
                    };
                }
                "strategy" => {
                    spec.strategy = match fields.as_slice() {
                        ["fedavg"] => SpecStrategy::Fedavg,
                        ["apf", check, thresh, ema, width] => SpecStrategy::Apf {
                            check_every: field(k, check)?,
                            threshold: field(k, thresh)?,
                            ema_alpha: field(k, ema)?,
                            f16: match *width {
                                "f16" => true,
                                "f32" => false,
                                _ => return Err(bad()),
                            },
                        },
                        ["partial-sync", check, thresh, ema] => SpecStrategy::PartialSync {
                            check_every: field(k, check)?,
                            threshold: field(k, thresh)?,
                            ema_alpha: field(k, ema)?,
                        },
                        ["gaia", thresh] => SpecStrategy::Gaia {
                            threshold: field(k, thresh)?,
                        },
                        ["cmfl", thresh, decay] => SpecStrategy::Cmfl {
                            threshold: field(k, thresh)?,
                            decay: field(k, decay)?,
                        },
                        _ => return Err(bad()),
                    };
                }
                _ => return Err(SpecError(format!("unknown key {k:?}"))),
            }
        }
        spec.validate()?;
        Ok(spec)
    }

    /// Rejects a spec no run could execute (see [`RunSpec::parse`]).
    fn validate(&self) -> Result<(), SpecError> {
        let err = |msg: String| Err(SpecError(msg));
        let sizes = [
            self.clients,
            self.rounds,
            self.local_iters,
            self.batch_size,
            self.eval_every,
            self.eval_batch,
            self.train_n,
            self.test_n,
            self.hidden,
        ];
        if sizes.contains(&0) {
            return err(
                "clients/rounds/local_iters/batch/eval_every/eval_batch/train_n/test_n/\
                 hidden must be > 0"
                    .into(),
            );
        }
        if self.train_n < self.clients {
            return err(format!(
                "train_n {} leaves some of {} clients without data",
                self.train_n, self.clients
            ));
        }
        let decay = self.lr_decay.map_or(1.0, |(f, _)| f);
        for (name, v) in [
            ("lr", self.lr),
            ("momentum", self.momentum),
            ("weight_decay", self.weight_decay),
            ("lr_decay factor", decay),
            ("prox_mu", self.prox_mu.unwrap_or(0.0)),
        ] {
            if !v.is_finite() {
                return err(format!("{name} {v} is not finite"));
            }
        }
        if self.optimizer == SpecOptimizer::Adam && self.momentum != 0.0 {
            return err("adam takes no momentum".into());
        }
        if self.lr_decay.is_some_and(|(_, every)| every == 0) {
            return err("lr_decay interval must be > 0".into());
        }
        if self.prox_mu.is_some_and(|mu| mu < 0.0) {
            return err("prox_mu must be >= 0".into());
        }
        if self.stragglers.len() > self.clients
            || self.stragglers.iter().any(|f| !(*f > 0.0 && *f <= 1.0))
        {
            return err(format!(
                "stragglers {:?}: one fraction in (0, 1] per client at most",
                self.stragglers
            ));
        }
        if !(0.0..=1.0).contains(&self.label_noise) {
            return err(format!("label_noise {} outside [0, 1]", self.label_noise));
        }
        match self.partition {
            PartitionKind::Dirichlet { alpha, .. } if !(alpha > 0.0 && alpha.is_finite()) => {
                return err(format!(
                    "dirichlet alpha {alpha} is not positive and finite"
                ));
            }
            PartitionKind::ClassesPerClient { k: 0, .. } => {
                return err("classes-per-client needs k > 0".into());
            }
            _ => {}
        }
        let v1 = RunSpec::golden();
        // The canonical string writes `hidden=` for every model; only the
        // MLP reads it, so any other value would give one run two digests.
        if self.model != SpecModel::Mlp && self.hidden != v1.hidden {
            return err(format!("hidden={} applies to model=mlp only", self.hidden));
        }
        let apf = matches!(self.strategy, SpecStrategy::Apf { .. });
        if !apf && (self.variant != v1.variant || self.controller != v1.controller) {
            return err("variant and controller apply to strategy=apf only".into());
        }
        let strategy_ok = match self.strategy {
            SpecStrategy::Fedavg => true,
            SpecStrategy::Apf { .. } => {
                let cfg = self.apf_config().expect("an apf strategy has a config");
                cfg.validate()
                    .map_err(|e| SpecError(format!("strategy: {e}")))?;
                true
            }
            SpecStrategy::PartialSync { check_every, .. } => check_every > 0,
            SpecStrategy::Gaia { threshold } => threshold > 0.0 && threshold.is_finite(),
            SpecStrategy::Cmfl { threshold, decay } => {
                (0.0..=1.0).contains(&threshold) && (0.0..=1.0).contains(&decay)
            }
        };
        if !strategy_ok {
            return err(format!("strategy {:?} is out of range", self.strategy));
        }
        Ok(())
    }

    /// The model-init seed every client and the server share.
    pub fn model_seed(&self) -> u64 {
        derive_seed(self.seed, 0x30DE1)
    }

    /// The spec's network initialized from `seed`.
    fn model_at(&self, seed: u64) -> Sequential {
        match self.model {
            SpecModel::Mlp => models::mlp("m", &[3 * 16 * 16, self.hidden, 10], seed),
            m => models::by_name(m.name(), seed).expect("bundled model names are valid"),
        }
    }

    /// A fresh model at the shared initialization.
    pub fn model(&self) -> Sequential {
        self.model_at(self.model_seed())
    }

    /// The initial flat parameter vector (what round 0 broadcasts).
    pub fn init_params(&self) -> Vec<f32> {
        self.model().flat_params()
    }

    /// Split `split` of the task: `n` samples from generator `data_seed`,
    /// flattened for the MLP.
    fn task_split(&self, n: usize, split: u64) -> Dataset {
        match self.model {
            SpecModel::Mlp => {
                let ds = synth_images_split(n, self.data_seed, split);
                Dataset::new(
                    ds.inputs().reshape(&[ds.len(), 3 * 16 * 16]),
                    ds.labels().to_vec(),
                    10,
                )
            }
            SpecModel::Lenet5 | SpecModel::Resnet => synth_images_split(n, self.data_seed, split),
            SpecModel::Lstm => synth_kws_split(n, self.data_seed, split),
        }
    }

    /// The training split (with label noise applied when configured).
    pub fn train_set(&self) -> Dataset {
        let ds = self.task_split(self.train_n, 0);
        if self.label_noise > 0.0 {
            with_label_noise(&ds, self.label_noise, self.data_seed)
        } else {
            ds
        }
    }

    /// The held-out test split.
    pub fn test_set(&self) -> Dataset {
        self.task_split(self.test_n, 1)
    }

    /// The per-client index partition of the training set: the first of
    /// partition seeds `seed, seed + 1, …, seed + 15` that leaves no client
    /// empty.
    ///
    /// # Panics
    /// Panics if all sixteen draws leave some client without data.
    pub fn partition_indices(&self, train: &Dataset) -> Vec<Vec<usize>> {
        let (labels, n) = (train.labels(), self.clients);
        for salt in 0..16u64 {
            let parts = match self.partition {
                PartitionKind::Iid { seed } => {
                    iid_partition(train.len(), n, seed.wrapping_add(salt))
                }
                PartitionKind::Dirichlet { alpha, seed } => {
                    dirichlet_partition(labels, n, alpha, seed.wrapping_add(salt))
                }
                PartitionKind::ClassesPerClient { k, seed } => {
                    classes_per_client_partition(labels, n, k, seed.wrapping_add(salt))
                }
            };
            if parts.iter().all(|p| !p.is_empty()) {
                return parts;
            }
        }
        panic!("no partition seed of 16 leaves every client with data");
    }

    /// The clients' optimizer with its settings.
    fn optimizer_kind(&self) -> OptimizerKind {
        match self.optimizer {
            SpecOptimizer::Sgd => OptimizerKind::Sgd {
                lr: self.lr,
                momentum: self.momentum,
                weight_decay: self.weight_decay,
            },
            SpecOptimizer::Adam => OptimizerKind::Adam {
                lr: self.lr,
                weight_decay: self.weight_decay,
            },
        }
    }

    /// The clients' learning-rate schedule.
    fn schedule(&self) -> LrSchedule {
        match self.lr_decay {
            None => LrSchedule::Constant(self.lr),
            Some((factor, every)) => LrSchedule::Multiplicative {
                initial: self.lr,
                factor,
                every,
            },
        }
    }

    /// Builds client `i` exactly as [`FlRunner`] would: same model seed,
    /// same optimizer, same shard, same data-order RNG, same workload.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn make_client(&self, i: usize) -> Client {
        assert!(i < self.clients, "client index {i} out of range");
        let train = self.train_set();
        let shard = train.select(&self.partition_indices(&train)[i]);
        let trainer = Trainer::new(self.model(), self.optimizer_kind().build(), self.schedule());
        let mut client = Client::new(
            trainer,
            shard,
            self.batch_size,
            derive_seed(self.seed, i as u64),
        );
        if let Some(&fraction) = self.stragglers.get(i) {
            client.set_workload(fraction);
        }
        client
    }

    /// The APF configuration for the strategy, or `None` for a strategy
    /// that is not APF.
    pub fn apf_config(&self) -> Option<ApfConfig> {
        match self.strategy {
            SpecStrategy::Apf {
                check_every,
                threshold,
                ema_alpha,
                f16,
            } => Some(ApfConfig {
                check_every_rounds: check_every,
                stability_threshold: threshold,
                ema_alpha,
                variant: self.variant,
                seed: self.seed,
                bytes_per_scalar: if f16 { 2 } else { 4 },
                ..ApfConfig::default()
            }),
            _ => None,
        }
    }

    /// Whether the wire carries binary16 payloads.
    pub fn wire_f16(&self) -> bool {
        matches!(self.strategy, SpecStrategy::Apf { f16: true, .. })
    }

    /// The strategy label as the runner would report it.
    pub fn strategy_name(&self) -> String {
        self.make_strategy().name()
    }

    /// The APF strategy of an APF spec.
    fn apf_strategy(&self) -> ApfStrategy {
        let cfg = self.apf_config().expect("the spec's strategy is APF");
        // `with_f16` owns the bytes_per_scalar switch.
        let cfg = ApfConfig {
            bytes_per_scalar: 4,
            ..cfg
        };
        let s = ApfStrategy::with_controller(cfg, self.controller)
            .expect("spec-derived ApfConfig must validate");
        if self.wire_f16() {
            s.with_f16()
        } else {
            s
        }
    }

    /// Instantiates the strategy.
    fn make_strategy(&self) -> Box<dyn SyncStrategy> {
        match self.strategy {
            SpecStrategy::Fedavg => Box::new(FullSync::new()),
            SpecStrategy::Apf { .. } => Box::new(self.apf_strategy()),
            SpecStrategy::PartialSync {
                check_every,
                threshold,
                ema_alpha,
            } => Box::new(PartialSync::new(threshold, ema_alpha, check_every)),
            SpecStrategy::Gaia { threshold } => Box::new(Gaia::new(threshold)),
            SpecStrategy::Cmfl { threshold, decay } => Box::new(Cmfl::new(threshold, decay)),
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
            prox_mu: self.prox_mu,
            drop_stragglers: self.drop_stragglers,
            parallel: self.parallel,
            ..FlConfig::default()
        }
    }

    /// The ledger configuration digest of every run built from this spec:
    /// the FNV-1a hash of [`RunSpec::canonical`].
    pub fn config_digest(&self) -> u64 {
        fnv1a64(self.canonical().as_bytes())
    }

    /// The experiment label the runner would use (`"<model>/<strategy>"`).
    pub fn run_name(&self) -> String {
        let model = match self.model {
            SpecModel::Mlp => "m",
            m => m.name(),
        };
        format!("{model}/{}", self.strategy_name())
    }

    /// Assembles the in-process simulator for this spec.
    pub fn build_runner(&self) -> FlRunner {
        let train = self.train_set();
        let parts = self.partition_indices(&train);
        let spec = self.clone();
        let mut builder = FlRunner::builder(move |seed| spec.model_at(seed), self.fl_config())
            .optimizer(self.optimizer_kind())
            .schedule(self.schedule())
            .clients_from_partition(&train, &parts)
            .test_set(self.test_set())
            .strategy(self.make_strategy())
            .spec(self.canonical());
        for (i, &fraction) in self.stragglers.iter().enumerate() {
            builder = builder.straggler(i, fraction);
        }
        builder.build()
    }

    /// Assembles the event-driven population runner for this spec: the same
    /// registered clients and data shards as [`RunSpec::build_runner`], but
    /// held as compact dormant registry state with cohort sampling per
    /// [`RunSpec::cohort`]. With `cohort == 0` and a dense dormant codec the
    /// result is bitwise identical to the classic runner.
    ///
    /// # Panics
    /// Panics if the spec's strategy is not an APF variant — the population
    /// runner's single-shared-manager design (§6.2) is APF-specific — or if
    /// it has stragglers or FedProx, which the population runner does not
    /// model.
    pub fn build_population_runner(&self) -> PopulationRunner {
        assert!(
            self.stragglers.is_empty() && !self.drop_stragglers && self.prox_mu.is_none(),
            "the population runner models neither stragglers nor FedProx"
        );
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
            optimizer: self.optimizer_kind(),
            schedule: self.schedule(),
        };
        let spec = self.clone();
        PopulationRunner::assemble(
            cfg,
            Box::new(move |seed| spec.model_at(seed)),
            PopulationData::Shared { train, parts },
            self.test_set(),
            self.apf_strategy(),
            Some(self.canonical()),
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
        // Every later key away from its v1 default.
        let every = RunSpec {
            model: SpecModel::Lstm,
            data_seed: 42,
            optimizer: SpecOptimizer::Adam,
            momentum: 0.0,
            lr_decay: Some((0.99, 10)),
            stragglers: vec![0.25, 0.5],
            drop_stragglers: true,
            prox_mu: Some(0.01),
            variant: ApfVariant::PlusPlus {
                a1: 1.0 / 3.0,
                a2: 0.05,
            },
            controller: Controller::FixedPeriod { len: u32::MAX },
            partition: PartitionKind::ClassesPerClient { k: 2, seed: 42 },
            ..RunSpec::golden()
        };
        assert_eq!(RunSpec::parse(&every.canonical()).unwrap(), every);
        for strategy in [
            SpecStrategy::PartialSync {
                check_every: 2,
                threshold: 0.1,
                ema_alpha: 0.95,
            },
            SpecStrategy::Gaia { threshold: 0.01 },
            SpecStrategy::Cmfl {
                threshold: 0.8,
                decay: 0.99,
            },
        ] {
            let spec = RunSpec {
                strategy,
                ..RunSpec::golden()
            };
            assert_eq!(RunSpec::parse(&spec.canonical()).unwrap(), spec);
        }
    }

    #[test]
    fn v1_strings_render_byte_for_byte() {
        // The golden string as v1 wrote it: every later key at its default
        // stays invisible, so the string, its digest and the Welcome frame
        // that carries it are unchanged.
        let v1 = "apf-spec-v1;clients=3;rounds=4;local_iters=2;batch=16;eval_every=1;\
                  eval_batch=100;seed=7;train_n=96;test_n=48;hidden=12;lr=0.05;momentum=0.9;\
                  weight_decay=0.0001;label_noise=0;partition=iid,7;strategy=apf,1,0.1,0.9,f32";
        assert_eq!(RunSpec::golden().canonical(), v1);
        assert_eq!(RunSpec::parse(v1).unwrap(), RunSpec::golden());
        // Spelling a default out parses to the same spec.
        let spelled = format!("{v1};model=mlp;data_seed=1;controller=aimd,1,2;stragglers=");
        assert_eq!(RunSpec::parse(&spelled).unwrap().canonical(), v1);
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
            // Evaluated only round 0 and the last round.
            "apf-spec-v1;eval_every=0",
            // Later keys out of range, or on a strategy they do not touch.
            "apf-spec-v1;model=vgg",
            // One run, two digests: only the MLP reads `hidden`.
            "apf-spec-v1;model=lenet5;hidden=24",
            "apf-spec-v1;optimizer=adam",
            "apf-spec-v1;lr_decay=0.99,0",
            "apf-spec-v1;stragglers=0.5,0.5,0.5,0.5",
            "apf-spec-v1;stragglers=0",
            "apf-spec-v1;prox_mu=-1",
            "apf-spec-v1;partition=classes-per-client,0,7",
            "apf-spec-v1;strategy=fedavg;controller=fixed,5",
            "apf-spec-v1;strategy=gaia,0",
            "apf-spec-v1;strategy=cmfl,2,0.9",
            "apf-spec-v1;strategy=partial-sync,0,0.1,0.9",
            "apf-spec-v1;variant=sharp,2",
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
        assert_eq!(a, fnv1a64(RunSpec::golden().canonical().as_bytes()));
    }

    #[test]
    fn specs_differing_only_in_threshold_get_different_digests() {
        let with_threshold = |threshold| RunSpec {
            strategy: SpecStrategy::Apf {
                check_every: 1,
                threshold,
                ema_alpha: 0.9,
                f16: false,
            },
            ..RunSpec::golden()
        };
        assert_ne!(
            with_threshold(0.1).config_digest(),
            with_threshold(0.5).config_digest()
        );
        // And the runner ledgers the spec the digest hashes.
        let mut runner = with_threshold(0.5).build_runner();
        assert_eq!(
            runner.run().spec.as_deref(),
            Some(with_threshold(0.5).canonical().as_str())
        );
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
