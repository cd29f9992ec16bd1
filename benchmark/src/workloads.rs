//! The four workloads: what each runs, why it exists, and how its inputs
//! are generated from `--seed`.

use std::time::Duration;

use apf::ApfConfig;
use apf_data::{iid_partition, synth_images_split, with_label_noise, Dataset, SynthImageGen};
use apf_fedsim::{
    ApfStrategy, Client, FlConfig, FlRunner, OptimizerKind, PopulationConfig, PopulationData,
    PopulationRunner, RunSpec, SyncStrategy,
};
use apf_nn::{models, Adam, LrSchedule, Optimizer, Sequential, Sgd, Trainer};
use apf_quant::EmaCodec;
use apf_tensor::{derive_seed, Tensor};

/// Which of the program's three round drivers a workload exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `FlRunner`, LeNet-5, 4 clients: compute-bound.
    SimLenet,
    /// `FlRunner`, MLP-256, 8 clients: sync-bound.
    SimMlp,
    /// `PopulationRunner`, 1 000 000 registered, cohort 500.
    Pop,
    /// `NetServer` + 2 `run_client` over loopback TCP, fp16 wire.
    Net,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name, as `--workload` takes it.
    pub name: &'static str,
    /// Why the workload exists (one line, mirrored in `BENCHMARK.json`).
    pub why: &'static str,
    /// The round driver and model.
    pub kind: Kind,
    /// Warm-up rounds per session; setup ends when they do.
    pub warmup: usize,
    /// Timed rounds per session.
    pub timed: usize,
    /// `apf-par` pool threads.
    pub threads: usize,
    /// Net only: length of one progress window of the round sampler.
    pub net_window: Duration,
}

const NET_WINDOW: Duration = Duration::from_millis(250);

/// Rounds are sized so that one session (set-up, warm-up, timed rounds)
/// takes 3 to 9 s on the 2-core reference host, so that a run of 20 s
/// executes every round at least twice.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "sim-lenet-compute",
        why: "Compute-bound: conv, GEMM and Adam in tensor and nn do about 90% of the round, \
              core and fedsim.strategy almost none; a kernel gain shows here and nowhere else",
        kind: Kind::SimLenet,
        warmup: 5,
        timed: 40,
        threads: 1,
        net_window: NET_WINDOW,
    },
    Workload {
        name: "sim-mlp-sync",
        why: "Sync-bound: 199434 scalars x 8 clients put most of the round in sync_round while \
              the frozen ratio sweeps 0 to 50%; a manager, mask or aggregation gain shows here",
        kind: Kind::SimMlp,
        warmup: 2,
        timed: 80,
        threads: 1,
        net_window: NET_WINDOW,
    },
    Workload {
        name: "pop-1m-cohort",
        why: "Same layers used differently: one shared manager with a dormant hop, per-round \
              shard synthesis, slab recycling, a 500-client reduce, a registry that grows",
        kind: Kind::Pop,
        warmup: 2,
        timed: 40,
        threads: 1,
        net_window: NET_WINDOW,
    },
    Workload {
        name: "net-loopback-f16",
        why: "The only workload that crosses apf-net: frame encode and decode, sockets, fp16 \
              narrowing, three manager replicas; the in-process workloads bypass all of it",
        kind: Kind::Net,
        warmup: 5,
        timed: 145,
        threads: 1,
        net_window: NET_WINDOW,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The workload cut to 5 timed rounds after one warm-up round, for
    /// `--smoke`: checks only, no timing claims.
    pub fn smoke(&self) -> Workload {
        Workload {
            warmup: 1,
            timed: 5,
            // Five rounds end well inside one full window.
            net_window: Duration::from_millis(5),
            ..*self
        }
    }

    /// Rounds in one session.
    pub fn rounds(&self) -> usize {
        self.warmup + self.timed
    }
}

const MLP_SPEC: &str = "apf-spec-v1;clients=8;rounds={R};local_iters=1;batch=8;eval_every=10;\
    eval_batch=100;seed={S};train_n=1024;test_n=300;hidden=256;lr=0.05;momentum=0.9;\
    weight_decay=0.0001;label_noise=0.2;partition=iid,{S};strategy=apf,1,0.3,0.9,f32";

const NET_SPEC: &str = "apf-spec-v1;clients=2;rounds={R};local_iters=1;batch=8;eval_every=50;\
    eval_batch=100;seed={S};train_n=1024;test_n=300;hidden=256;lr=0.01;momentum=0.9;\
    weight_decay=0.0001;label_noise=0.2;partition=iid,{S};strategy=apf,1,0.3,0.9,f16";

fn fill(template: &str, seed: u64, rounds: usize) -> String {
    template
        .replace("{S}", &seed.to_string())
        .replace("{R}", &rounds.to_string())
}

/// The `sim-mlp-sync` spec string for `seed`.
pub fn mlp_spec_string(seed: u64, rounds: usize) -> String {
    fill(MLP_SPEC, seed, rounds)
}

/// The `net-loopback-f16` spec string for `seed`.
pub fn net_spec_string(seed: u64, rounds: usize) -> String {
    fill(NET_SPEC, seed, rounds)
}

fn parse(spec: &str) -> RunSpec {
    RunSpec::parse(spec).expect("workload spec strings are valid")
}

/// LeNet-5 inputs for `seed`: 800 training images with 20% label noise split
/// IID over 4 clients, and 300 test images.
pub struct LenetData {
    /// Training set.
    pub train: Dataset,
    /// Per-client sample indices.
    pub parts: Vec<Vec<usize>>,
    /// Held-out test set.
    pub test: Dataset,
}

/// Generates the `sim-lenet-compute` inputs.
pub fn lenet_data(seed: u64) -> LenetData {
    let train = with_label_noise(&synth_images_split(800, seed, 0), 0.2, seed);
    let parts = iid_partition(train.len(), 4, seed);
    LenetData {
        train,
        parts,
        test: synth_images_split(300, seed, 1),
    }
}

/// The `sim-lenet-compute` run configuration (paper §7.1 for LeNet-5).
pub fn lenet_config(seed: u64, rounds: usize) -> FlConfig {
    FlConfig {
        local_iters: 4,
        rounds,
        batch_size: 16,
        eval_every: 5,
        eval_batch: 100,
        seed,
        ..FlConfig::default()
    }
}

const LENET_LR: f32 = 0.001;
const LENET_WD: f32 = 0.01;

/// A simulator workload: enough to build the program's own `FlRunner` and,
/// from the same public pieces, the harness's staged round.
pub enum SimDef {
    /// `sim-lenet-compute`.
    Lenet {
        /// Run configuration.
        cfg: FlConfig,
    },
    /// `sim-mlp-sync`, and the in-process twin of `net-loopback-f16`.
    Spec(RunSpec),
}

/// The pieces of a staged simulator round.
pub struct SimParts {
    /// One client per shard, built as `FlRunner` builds them.
    pub clients: Vec<Client>,
    /// The concrete strategy, so its managers can be inspected.
    pub strategy: ApfStrategy,
    /// The model replica that evaluates the global model.
    pub eval_model: Sequential,
    /// Held-out test set.
    pub test: Dataset,
    /// Configuration of a replay manager that evolves as the strategy's do.
    pub apf: ApfConfig,
    /// The synchronized initial model.
    pub init: Vec<f32>,
}

impl SimDef {
    /// The definition of simulator workload `kind` for `seed`.
    ///
    /// # Panics
    /// Panics for a workload that is not a simulator workload.
    pub fn new(kind: Kind, seed: u64, rounds: usize) -> SimDef {
        match kind {
            Kind::SimLenet => SimDef::Lenet {
                cfg: lenet_config(seed, rounds),
            },
            Kind::SimMlp => SimDef::Spec(parse(&mlp_spec_string(seed, rounds))),
            Kind::Net => SimDef::Spec(net_spec(seed, rounds)),
            Kind::Pop => panic!("the population workload has no FlRunner twin"),
        }
    }

    /// The run configuration.
    pub fn config(&self) -> FlConfig {
        match self {
            SimDef::Lenet { cfg } => cfg.clone(),
            SimDef::Spec(spec) => spec.fl_config(),
        }
    }

    /// The program's own runner for this workload.
    pub fn runner(&self) -> FlRunner {
        match self {
            SimDef::Lenet { cfg } => {
                let data = lenet_data(cfg.seed);
                FlRunner::builder(models::lenet5, cfg.clone())
                    .optimizer(OptimizerKind::Adam {
                        lr: LENET_LR,
                        weight_decay: LENET_WD,
                    })
                    .clients_from_partition(&data.train, &data.parts)
                    .test_set(data.test)
                    .strategy(Box::new(lenet_strategy()))
                    .build()
            }
            SimDef::Spec(spec) => spec.build_runner(),
        }
    }

    /// A trainer built as the workload's clients build theirs, and a second
    /// optimizer of the same kind.
    pub fn trainer_and_optimizer(&self) -> (Trainer, Box<dyn Optimizer>) {
        match self {
            SimDef::Lenet { cfg } => {
                let adam = || Box::new(Adam::new(LENET_LR).with_weight_decay(LENET_WD));
                let model = models::lenet5(derive_seed(cfg.seed, 0x30DE1));
                (
                    Trainer::new(model, adam(), LrSchedule::Constant(LENET_LR)),
                    adam(),
                )
            }
            SimDef::Spec(spec) => {
                let opt = || sgd(spec.lr, spec.momentum, spec.weight_decay);
                (
                    Trainer::new(spec.model(), opt(), LrSchedule::Constant(spec.lr)),
                    opt(),
                )
            }
        }
    }

    /// The same run assembled by the harness from public pieces.
    pub fn parts(&self) -> SimParts {
        let (clients, mut strategy, mut eval_model, test, apf) = match self {
            SimDef::Lenet { cfg } => {
                let data = lenet_data(cfg.seed);
                let model_seed = derive_seed(cfg.seed, 0x30DE1);
                let clients = data
                    .parts
                    .iter()
                    .enumerate()
                    .map(|(i, part)| {
                        Client::new(
                            self.trainer_and_optimizer().0,
                            data.train.select(part),
                            cfg.batch_size,
                            derive_seed(cfg.seed, i as u64),
                        )
                    })
                    .collect();
                (
                    clients,
                    lenet_strategy(),
                    models::lenet5(model_seed),
                    data.test,
                    ApfConfig::default(),
                )
            }
            SimDef::Spec(spec) => {
                let apf = spec.apf_config().expect("workload specs use APF");
                let strategy = ApfStrategy::new(ApfConfig {
                    bytes_per_scalar: 4,
                    ..apf
                })
                .expect("workload APF config is valid");
                let strategy = if spec.wire_f16() {
                    strategy.with_f16()
                } else {
                    strategy
                };
                (
                    (0..spec.clients).map(|i| spec.make_client(i)).collect(),
                    strategy,
                    spec.model(),
                    spec.test_set(),
                    apf,
                )
            }
        };
        let mut clients: Vec<Client> = clients;
        let init = clients[0].flat_params();
        let layout = eval_model
            .flat_spec()
            .params()
            .iter()
            .map(|p| (p.name.clone(), p.len))
            .collect();
        strategy.set_model_layout(layout);
        strategy.set_filter_layout(eval_model.filter_segments());
        strategy.init(&init, clients.len());
        SimParts {
            clients,
            strategy,
            eval_model,
            test,
            apf,
            init,
        }
    }
}

/// SGD as `OptimizerKind::Sgd` builds it.
pub fn sgd(lr: f32, momentum: f32, weight_decay: f32) -> Box<dyn Optimizer> {
    Box::new(
        Sgd::new(lr)
            .with_momentum(momentum)
            .with_weight_decay(weight_decay),
    )
}

fn lenet_strategy() -> ApfStrategy {
    ApfStrategy::new(ApfConfig::default()).expect("default APF config is valid")
}

/// The `net-loopback-f16` run for `seed`.
pub fn net_spec(seed: u64, rounds: usize) -> RunSpec {
    parse(&net_spec_string(seed, rounds))
}

/// Registered clients of `pop-1m-cohort`.
pub const POP_REGISTERED: usize = 1_000_000;
/// Clients sampled per round.
pub const POP_COHORT: usize = 500;
/// Samples in each synthesized client shard.
pub const POP_PER_CLIENT: usize = 8;

/// The `pop-1m-cohort` configuration for `seed`.
pub fn pop_config(seed: u64, rounds: usize) -> PopulationConfig {
    PopulationConfig {
        fl: FlConfig {
            local_iters: 2,
            rounds,
            batch_size: 4,
            eval_every: 10,
            eval_batch: 100,
            seed,
            ..FlConfig::default()
        },
        registered: POP_REGISTERED,
        cohort: POP_COHORT,
        codec: EmaCodec::F16,
        shells: 64,
        apf: ApfConfig {
            stability_threshold: 0.3,
            ema_alpha: 0.9,
            check_every_rounds: 1,
            seed,
            ..ApfConfig::default()
        },
        wire_f16: false,
        // Momentum 0 keeps optimizer exports empty, so a dormant client is
        // its 45-byte record and nothing else.
        optimizer: OptimizerKind::Sgd {
            lr: 0.05,
            momentum: 0.0,
            weight_decay: 0.0,
        },
        schedule: LrSchedule::Constant(0.05),
    }
}

/// The population model: MLP [768, 16, 10].
pub fn pop_model(seed: u64) -> Sequential {
    models::mlp("pop-mlp", &[3 * 16 * 16, 16, 10], seed)
}

/// The population inputs for `seed`: the shard generator and 300 test
/// samples from its split 1 (client `id` trains on split `2 + id`).
pub fn pop_test_and_gen(seed: u64) -> (Dataset, SynthImageGen) {
    let gen = SynthImageGen::new(seed);
    let (mut data, mut labels) = (Vec::new(), Vec::new());
    gen.fill_split(300, 1, &mut data, &mut labels);
    let test = Dataset::new(
        Tensor::from_vec(data, &[300, gen.sample_numel()]),
        labels,
        apf_data::NUM_CLASSES,
    );
    (test, gen)
}

/// The `pop-1m-cohort` runner for `seed`.
pub fn pop_runner(seed: u64, rounds: usize) -> PopulationRunner {
    let (test, gen) = pop_test_and_gen(seed);
    PopulationRunner::new(
        pop_config(seed, rounds),
        pop_model,
        PopulationData::Synth {
            gen,
            per_client: POP_PER_CLIENT,
        },
        test,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_strings_round_trip_through_runspec() {
        for s in [mlp_spec_string(7, 82), net_spec_string(7, 200)] {
            let spec = RunSpec::parse(&s).unwrap();
            assert_eq!(spec.canonical(), s, "spec string is not canonical");
            assert_eq!(RunSpec::parse(&spec.canonical()).unwrap(), spec);
        }
        let net = net_spec(7, 200);
        assert!(net.wire_f16() && net.clients == 2 && net.rounds == 200);
        assert!(!parse(&mlp_spec_string(7, 82)).wire_f16());
    }

    #[test]
    fn seed_changes_inputs_and_not_configuration() {
        // Spec workloads: only the seed and partition-seed tokens differ.
        let (a, b) = (mlp_spec_string(7, 82), mlp_spec_string(8, 82));
        let differing: Vec<(&str, &str)> = a
            .split(';')
            .zip(b.split(';'))
            .filter(|(x, y)| x != y)
            .collect();
        assert_eq!(
            differing,
            [("seed=7", "seed=8"), ("partition=iid,7", "partition=iid,8")]
        );
        let (sa, sb) = (parse(&a), parse(&b));
        assert_ne!(sa.init_params(), sb.init_params());
        let train = sa.train_set();
        assert_ne!(sa.partition_indices(&train), sb.partition_indices(&train));
        // LeNet: data, partition and model seed change; the rest does not.
        let (ca, cb) = (lenet_config(7, 45), lenet_config(8, 45));
        assert_eq!(FlConfig { seed: 0, ..ca }, FlConfig { seed: 0, ..cb });
        let (da, db) = (lenet_data(7), lenet_data(8));
        assert_ne!(da.train.inputs().data(), db.train.inputs().data());
        assert_ne!(da.parts, db.parts);
        assert_eq!(da.train.len(), db.train.len());
        assert_eq!(
            lenet_data(7).train.inputs().data(),
            da.train.inputs().data()
        );
        // Population: same shape, different seed.
        let (pa, pb) = (pop_config(7, 42), pop_config(8, 42));
        assert_eq!(
            (pa.registered, pa.cohort, pa.shells),
            (pb.registered, pb.cohort, pb.shells)
        );
        assert_ne!(pa.fl.seed, pb.fl.seed);
    }

    #[test]
    fn workloads_are_named_once_and_smoke_is_five_rounds() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert_eq!(by_name(w.name).unwrap().kind, w.kind);
            assert_eq!(w.smoke().timed, 5);
        }
        assert!(by_name("nope").is_none());
    }
}
