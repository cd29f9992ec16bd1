//! Million-client event-driven population simulator.
//!
//! [`FlRunner`] materializes every client up front — fine for the paper's
//! 10-client testbed, hopeless for a realistic federated population where
//! millions of devices are *registered* but only a small cohort is sampled
//! each round (the C-fraction of McMahan et al.). [`PopulationRunner`]
//! inverts the representation:
//!
//! * A [`ClientRegistry`] holds only **compact dormant state** per client
//!   that has ever participated: the batch-shuffle RNG state, the trainer
//!   step counter, and the optimizer state encoded with an
//!   [`EmaCodec`] (dense = bit-exact, f16 = half-size). A client that has
//!   never been sampled costs **zero bytes** — its fresh state is derivable
//!   from the run seed.
//! * Per-client APF state is shared, not stored: §6.2 of the paper proves
//!   every client's `ApfManager` evolves identically under synchronized
//!   inputs, so one manager serves the whole population. At each round
//!   boundary it is itself squeezed through [`DormantApfState`] (bit-packed
//!   freeze mask, codec-compressed EMA trajectories) — the dormant encode
//!   path is load-bearing, not dead code.
//! * Full replicas ("shells": model + optimizer + data shard) exist only
//!   for the cohort block currently training, and are **recycled** across
//!   blocks and rounds; their backing buffers cycle through the
//!   `apf_tensor::slab` size-class store, so steady-state allocation is
//!   zero regardless of cohort composition.
//!
//! The round is driven as a deterministic event queue — `Sample` →
//! `Train{block}`... → `Finalize` — so cohort blocks are scheduled
//! explicitly and resident memory is bounded by the shell pool, never by
//! the registered population.
//!
//! **Parity contract:** with full participation (`cohort = 0`), dense
//! dormant encoding, and shared-partition data, a [`PopulationRunner`] is
//! bitwise identical to [`FlRunner`] with [`crate::ApfStrategy`] — same
//! trajectory, same final global bits, at any thread count
//! (`tests/population_parity.rs`).

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Instant;

use apf::{Aimd, ApfConfig, ApfManager, DormantApfState};
use apf_data::{Dataset, SynthImageGen};
use apf_nn::{LrSchedule, Sequential, Trainer};
use apf_quant::{f16_roundtrip_in_place, EmaCodec};
use apf_tensor::{derive_seed, seeded_rng, slab, Tensor};
use apf_trace::{event, span, Level};

use crate::client::Client;
use crate::ledger::{fnv1a64, peak_resident_bytes, LedgerRecord};
use crate::metrics::{ExperimentLog, RoundRecord};
use crate::network::NetworkModel;
use crate::runner::{config_canonical, FlConfig, OptimizerKind};

/// Estimated per-entry bookkeeping overhead of the registry map, counted on
/// top of the packed blob itself when reporting resident bytes.
const REGISTRY_ENTRY_OVERHEAD: u64 = 48;

/// Compact dormant storage for every client that has ever participated.
///
/// Keys are client ids; values are packed blobs from [`pack_dormant`]. A
/// missing key means "fresh client" — state derivable from the run seed.
#[derive(Debug, Default)]
pub struct ClientRegistry {
    entries: HashMap<u64, Box<[u8]>>,
    blob_bytes: u64,
}

impl ClientRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        ClientRegistry::default()
    }

    /// Number of clients with stored (non-fresh) state.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no client has participated yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The dormant blob for `id`, if it has participated before.
    pub fn get(&self, id: u64) -> Option<&[u8]> {
        self.entries.get(&id).map(|b| &b[..])
    }

    /// Stores (or replaces) the dormant blob for `id`.
    pub fn insert(&mut self, id: u64, blob: Box<[u8]>) {
        self.blob_bytes += blob.len() as u64;
        if let Some(old) = self.entries.insert(id, blob) {
            self.blob_bytes -= old.len() as u64;
        }
    }

    /// Resident-byte estimate: packed blobs plus per-entry map overhead.
    pub fn resident_bytes(&self) -> u64 {
        self.blob_bytes + self.entries.len() as u64 * REGISTRY_ENTRY_OVERHEAD
    }
}

/// Packs a client's dormant state: RNG words, step counter, and the
/// codec-encoded optimizer state.
fn pack_dormant(rng: [u64; 4], steps: u64, opt: &[f32], codec: EmaCodec) -> Box<[u8]> {
    let mut out = Vec::with_capacity(1 + 32 + 8 + 4 + codec.encoded_len(opt.len()));
    out.push(match codec {
        EmaCodec::Dense => 0u8,
        EmaCodec::F16 => 1,
    });
    for w in rng {
        out.extend_from_slice(&w.to_le_bytes());
    }
    out.extend_from_slice(&steps.to_le_bytes());
    out.extend_from_slice(&(opt.len() as u32).to_le_bytes());
    codec.encode_into(opt, &mut out);
    out.into_boxed_slice()
}

/// Inverts [`pack_dormant`].
///
/// # Panics
/// Panics on a malformed blob — the registry is process-local, so
/// corruption is a bug, not an input error.
fn unpack_dormant(blob: &[u8]) -> ([u64; 4], u64, Vec<f32>) {
    assert!(blob.len() >= 45, "dormant blob too short: {}", blob.len());
    let codec = match blob[0] {
        0 => EmaCodec::Dense,
        1 => EmaCodec::F16,
        other => panic!("unknown dormant codec byte {other}"),
    };
    let word = |i: usize| {
        let s = 1 + i * 8;
        u64::from_le_bytes(blob[s..s + 8].try_into().expect("8 bytes"))
    };
    let rng = [word(0), word(1), word(2), word(3)];
    let steps = word(4);
    let n = u32::from_le_bytes(blob[41..45].try_into().expect("4 bytes")) as usize;
    let payload = &blob[45..];
    assert_eq!(
        payload.len(),
        codec.encoded_len(n),
        "dormant payload length"
    );
    let opt = codec.decode(payload).expect("stride-aligned payload");
    (rng, steps, opt)
}

/// Where cohort clients get their data shards.
pub enum PopulationData {
    /// Every client holds a fixed slice of one shared training set — the
    /// [`FlRunner`] layout, used by the parity harness.
    Shared {
        /// The full training set.
        train: Dataset,
        /// Per-client sample indices (one entry per registered client).
        parts: Vec<Vec<usize>>,
    },
    /// Each client owns a private synthetic shard, generated on
    /// materialization into slab-recycled buffers (split `2 + id`, so no
    /// client shares samples with the conventional train/test splits 0/1).
    Synth {
        /// Shared prototype generator.
        gen: SynthImageGen,
        /// Samples per client.
        per_client: usize,
    },
}

impl std::fmt::Debug for PopulationData {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PopulationData::Shared { parts, .. } => f
                .debug_struct("Shared")
                .field("clients", &parts.len())
                .finish(),
            PopulationData::Synth { per_client, .. } => f
                .debug_struct("Synth")
                .field("per_client", per_client)
                .finish(),
        }
    }
}

/// Configuration of a [`PopulationRunner`] beyond the shared [`FlConfig`].
#[derive(Debug, Clone)]
pub struct PopulationConfig {
    /// Round/training hyper-parameters (seed, rounds, local iters, ...).
    pub fl: FlConfig,
    /// Registered population size.
    pub registered: usize,
    /// Clients sampled per round; `0` = full participation.
    pub cohort: usize,
    /// Dormant-state encoding (dense = bit-exact, f16 = half-size).
    pub codec: EmaCodec,
    /// Maximum simultaneously materialized replicas (block size).
    pub shells: usize,
    /// The APF configuration for the shared manager.
    pub apf: ApfConfig,
    /// Stack fp16 quantization on the wire (§7.7).
    pub wire_f16: bool,
    /// Client optimizer.
    pub optimizer: OptimizerKind,
    /// Learning-rate schedule.
    pub schedule: LrSchedule,
}

/// One materialized replica, re-bound to a different registered client as
/// cohort blocks stream through.
struct Shell {
    client: Client,
    bound: u64,
}

/// The deterministic per-round event schedule.
enum RoundEvent {
    /// Draw the cohort and schedule its blocks.
    Sample,
    /// Materialize, train, aggregate, and suspend cohort block
    /// `[lo, lo + shells)`.
    Train {
        /// Cohort-list offset of the block.
        lo: usize,
    },
    /// Close the round: finish aggregation, sync, evaluate, record.
    Finalize,
}

/// Event-driven sampled-participation simulator over a registered
/// population (see the module docs for the architecture and the parity
/// contract).
pub struct PopulationRunner {
    cfg: PopulationConfig,
    data: PopulationData,
    model_factory: Box<dyn Fn(u64) -> Sequential>,
    model_seed: u64,
    mgr: ApfManager,
    mgr_dormant_bytes: usize,
    shells: Vec<Shell>,
    registry: ClientRegistry,
    global: Vec<f32>,
    rep: Vec<f32>,
    eval_model: Sequential,
    test: Dataset,
    network: NetworkModel,
    log: ExperimentLog,
    cum_bytes: u64,
    cum_secs: f64,
    best_accuracy: f32,
    initial_model_bytes: u64,
    model_name: String,
    strategy_label: String,
    config_digest: u64,
    ledger_path: Option<PathBuf>,
}

impl std::fmt::Debug for PopulationRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PopulationRunner")
            .field("registered", &self.cfg.registered)
            .field("cohort", &self.cfg.cohort)
            .field("shells", &self.shells.len())
            .finish()
    }
}

impl PopulationRunner {
    /// Assembles the runner.
    ///
    /// # Panics
    /// Panics when the configuration is structurally invalid: zero
    /// registered clients or shells, an APF config that fails validation,
    /// or shared-partition data whose part count differs from `registered`.
    pub fn new(
        cfg: PopulationConfig,
        model_factory: impl Fn(u64) -> Sequential + 'static,
        data: PopulationData,
        test: Dataset,
    ) -> Self {
        apf_trace::init_from_env();
        assert!(cfg.registered > 0, "no registered clients");
        assert!(cfg.shells > 0, "need at least one shell");
        cfg.apf.validate().expect("invalid APF config");
        if let PopulationData::Shared { parts, .. } = &data {
            assert_eq!(
                parts.len(),
                cfg.registered,
                "partition does not cover the registered population"
            );
        }
        let model_seed = derive_seed(cfg.fl.seed, 0x30DE1);
        let mut eval_model = model_factory(model_seed);
        let init = eval_model.flat_params();
        let mgr = ApfManager::new(&init, cfg.apf, Box::new(Aimd::default()))
            .expect("config validated above");
        let model_name = eval_model.name().to_owned();
        let strategy_label = if cfg.wire_f16 { "apf-pop+q" } else { "apf-pop" }.to_owned();
        let name = format!("{model_name}/{strategy_label}");
        let config_digest =
            fnv1a64(population_canonical(&cfg, &model_name, &strategy_label).as_bytes());
        let ledger_path = std::env::var("APF_LEDGER_FILE")
            .ok()
            .filter(|s| !s.is_empty())
            .map(PathBuf::from);
        event!(Level::Info, target: "fedsim.pop", "population_configured",
            name = name.as_str(),
            registered = cfg.registered,
            cohort = cfg.cohort,
            shells = cfg.shells,
            model_scalars = init.len(),
            dormant = cfg.codec.name(),
        );
        let initial_model_bytes = init.len() as u64 * 4;
        PopulationRunner {
            cfg,
            data,
            model_factory: Box::new(model_factory),
            model_seed,
            mgr,
            mgr_dormant_bytes: 0,
            shells: Vec::new(),
            registry: ClientRegistry::new(),
            rep: init.clone(),
            global: init,
            eval_model,
            test,
            network: NetworkModel::default(),
            log: ExperimentLog::new(&name),
            cum_bytes: 0,
            cum_secs: 0.0,
            best_accuracy: 0.0,
            initial_model_bytes,
            model_name,
            strategy_label,
            config_digest,
            ledger_path,
        }
    }

    /// Appends a [`LedgerRecord`] when [`PopulationRunner::run`] completes
    /// (also enabled by `APF_LEDGER_FILE`; this method wins).
    pub fn ledger(&mut self, path: impl Into<PathBuf>) {
        self.ledger_path = Some(path.into());
    }

    /// The metric log so far.
    pub fn log(&self) -> &ExperimentLog {
        &self.log
    }

    /// The current global flat model.
    pub fn global(&self) -> &[f32] {
        &self.global
    }

    /// The registry of dormant clients.
    pub fn registry(&self) -> &ClientRegistry {
        &self.registry
    }

    /// Deterministic steady-state resident-byte estimate: slab free lists,
    /// registry blobs, the shared manager's dormant footprint, and the
    /// materialized shells. Independent of the registered population size —
    /// that is the claim the `bench-kernels` population sweep pins.
    pub fn steady_resident_bytes(&self) -> u64 {
        let (_, _, _, slab_resident) = slab::global_stats();
        let n = self.global.len() as u64;
        // Shells: flat params + grads + optimizer state + the data shard.
        let shells: u64 = self
            .shells
            .iter()
            .map(|s| {
                let data = s.client.data();
                let shard = (data.len() * data.sample_numel()) as u64 * 4 + data.len() as u64 * 8;
                n * 8 + s.client.trainer().optimizer_state().len() as u64 * 4 + shard
            })
            .sum();
        // Runner-owned dense vectors: global + representative + eval model.
        let runner = n * 4 * 3;
        slab_resident
            + self.registry.resident_bytes()
            + self.mgr_dormant_bytes as u64
            + shells
            + runner
    }

    /// Draws the round's cohort: sorted, distinct, seeded by
    /// `(run seed, round)` so reruns and thread counts cannot change it.
    fn sample_cohort(&self, round: u64) -> Vec<u64> {
        let n = self.cfg.registered as u64;
        let k = self.cfg.cohort as u64;
        if k == 0 || k >= n {
            return (0..n).collect();
        }
        let mut rng = seeded_rng(derive_seed(derive_seed(self.cfg.fl.seed, 0xC040), round));
        let mut chosen = std::collections::HashSet::with_capacity(k as usize);
        let mut out = Vec::with_capacity(k as usize);
        while out.len() < k as usize {
            let c = rng.gen_range(0..n);
            if chosen.insert(c) {
                out.push(c);
            }
        }
        out.sort_unstable();
        out
    }

    /// Builds client `id`'s data shard (slab-backed in synthetic mode).
    fn make_shard(&self, id: u64) -> Dataset {
        match &self.data {
            PopulationData::Shared { train, parts } => train.select(&parts[id as usize]),
            PopulationData::Synth { gen, per_client } => {
                let row = gen.sample_numel();
                let mut buf = slab::take(per_client * row);
                let mut labels = Vec::with_capacity(*per_client);
                gen.fill_split(*per_client, 2 + id, &mut buf, &mut labels);
                Dataset::new(
                    Tensor::from_vec(buf, &[*per_client, row]),
                    labels,
                    apf_data::NUM_CLASSES,
                )
            }
        }
    }

    /// Returns a retired shard's backing buffer to the slab store.
    fn recycle_shard(ds: Dataset) {
        let (inputs, _labels) = ds.into_parts();
        slab::give(inputs.into_vec());
    }

    /// Materializes client `id` into shell `slot` — building the shell on
    /// first use, re-binding (and recycling) it otherwise — and restores
    /// the client's dormant state. Returns whether this is the client's
    /// first-ever participation.
    fn materialize(&mut self, slot: usize, id: u64) -> bool {
        let shard = self.make_shard(id);
        let dormant = self.registry.get(id).map(unpack_dormant);
        let first_time = dormant.is_none();
        let (rng, steps, opt) = dormant.unwrap_or_else(|| {
            let fresh = seeded_rng(derive_seed(derive_seed(self.cfg.fl.seed, id), 0xC11E));
            (fresh.state(), 0, Vec::new())
        });
        if self.shells.len() <= slot {
            debug_assert_eq!(self.shells.len(), slot);
            let trainer = Trainer::new(
                (self.model_factory)(self.model_seed),
                self.cfg.optimizer.build(),
                self.cfg.schedule,
            );
            let client = Client::new(
                trainer,
                shard,
                self.cfg.fl.batch_size,
                derive_seed(self.cfg.fl.seed, id),
            );
            self.shells.push(Shell { client, bound: id });
        } else {
            let shell = &mut self.shells[slot];
            let old = shell.client.replace_data(shard);
            PopulationRunner::recycle_shard(old);
            shell.bound = id;
        }
        let client = &mut self.shells[slot].client;
        client.load_flat(&self.global);
        client.set_rng_state(rng);
        client.trainer_mut().set_step_count(steps as usize);
        client.trainer_mut().load_optimizer_state(&opt);
        first_time
    }

    /// Suspends shell `slot`'s client back into the registry.
    fn suspend(&mut self, slot: usize) {
        let shell = &self.shells[slot];
        let blob = pack_dormant(
            shell.client.rng_state(),
            shell.client.trainer().step_count() as u64,
            &shell.client.trainer().optimizer_state(),
            self.cfg.codec,
        );
        self.registry.insert(shell.bound, blob);
    }

    /// Trains the first `count` shells (one local round each), writing mean
    /// batch losses into `losses`. `words` is the round's packed freeze
    /// mask: after every local iteration the frozen scalars are pinned back
    /// with it (Alg. 1 line 2), without the per-call mask rebuild the
    /// manager's own method would do. Parallel over the `apf-par` pool when
    /// configured; bitwise identical either way.
    fn train_block(&mut self, words: &[u64], count: usize, losses: &mut [f32]) {
        let local_iters = self.cfg.fl.local_iters;
        let parallel = self.cfg.fl.parallel;
        let pinned = self.mgr.pinned();
        let hook = &|p: &mut [f32]| apf_tensor::mask_fill(p, pinned, words);
        let shells = &mut self.shells[..count];
        if parallel && count > 1 {
            apf_par::scope(|s| {
                for (shell, slot) in shells.iter_mut().zip(losses.iter_mut()) {
                    s.spawn(move || {
                        *slot = shell.client.local_round(local_iters, hook);
                    });
                }
            });
        } else {
            for (shell, slot) in shells.iter_mut().zip(losses.iter_mut()) {
                *slot = shell.client.local_round(local_iters, hook);
            }
        }
    }

    /// Runs one communication round and returns its record.
    pub fn run_round(&mut self, round: u64) -> RoundRecord {
        let _round_span = span!(Level::Info, target: "fedsim.pop", "round", round = round);
        let n = self.global.len();
        let block = self.cfg.shells;
        // The one mask of this round: the manager is not mutated until
        // `apply_aggregate_dense`, so every `mask_fill` below shares it.
        let mask = self.mgr.frozen_mask_packed(round);
        let words = mask.words();
        let mut cohort: Vec<u64> = Vec::new();
        let mut losses: Vec<f32> = Vec::new();
        let mut agg = slab::take(n);
        let mut new_clients = 0u64;
        let mut compute_secs = 0.0f64;
        let mut report = None;
        let mut events = std::collections::VecDeque::new();
        events.push_back(RoundEvent::Sample);
        while let Some(ev) = events.pop_front() {
            match ev {
                RoundEvent::Sample => {
                    let _s = span!(Level::Info, target: "fedsim.pop", "sample", round = round);
                    cohort = self.sample_cohort(round);
                    losses = vec![0.0f32; cohort.len()];
                    let mut lo = 0;
                    while lo < cohort.len() {
                        events.push_back(RoundEvent::Train { lo });
                        lo += block;
                    }
                    events.push_back(RoundEvent::Finalize);
                }
                RoundEvent::Train { lo } => {
                    let hi = (lo + block).min(cohort.len());
                    let s = span!(Level::Info, target: "fedsim.pop", "materialize",
                        round = round, clients = hi - lo);
                    for (slot, idx) in (lo..hi).enumerate() {
                        if self.materialize(slot, cohort[idx]) {
                            new_clients += 1;
                        }
                    }
                    drop(s);
                    let s = span!(Level::Info, target: "fedsim.pop", "local_train",
                        round = round, clients = hi - lo);
                    let t0 = Instant::now();
                    self.train_block(words, hi - lo, &mut losses[lo..hi]);
                    compute_secs += t0.elapsed().as_secs_f64();
                    drop(s);
                    // Aggregate in ascending client order — the same f32
                    // accumulation order as FlRunner's per-client loop.
                    let _s = span!(Level::Info, target: "fedsim.pop", "aggregate",
                        round = round, clients = hi - lo);
                    for slot in 0..hi - lo {
                        let mut flat = self.shells[slot].client.flat_params();
                        apf_tensor::mask_fill(&mut flat, self.mgr.pinned(), words);
                        if self.cfg.wire_f16 {
                            mask.for_each_unfrozen_run_in(0, n, |s, e| {
                                f16_roundtrip_in_place(&mut flat[s..e]);
                            });
                        }
                        apf_tensor::masked_axpy(&mut agg, &flat, 1.0, words);
                        apf_tensor::scratch::give(flat);
                        self.suspend(slot);
                    }
                }
                RoundEvent::Finalize => {
                    let _s = span!(Level::Info, target: "fedsim.pop", "sync", round = round);
                    // Weight total accumulated exactly as FlRunner sums its
                    // per-client unit weights.
                    let mut total = 0.0f32;
                    for _ in 0..cohort.len() {
                        total += 1.0;
                    }
                    apf_tensor::masked_div(&mut agg, total, words);
                    if self.cfg.wire_f16 {
                        mask.for_each_unfrozen_run_in(0, n, |s, e| {
                            f16_roundtrip_in_place(&mut agg[s..e]);
                        });
                    }
                    self.mgr.apply_aggregate_dense(&mut self.rep, &agg, round);
                    report = Some(self.mgr.finish_round(&self.rep, round));
                    self.global.copy_from_slice(&self.rep);
                    // The shared manager's round-boundary dormant hop:
                    // encode → decode through the configured codec, proving
                    // the compact form carries everything the next round
                    // needs.
                    let snapshot = self.mgr.snapshot();
                    let dormant = DormantApfState::encode(&snapshot, self.cfg.codec);
                    self.mgr_dormant_bytes = dormant.len_bytes();
                    let restored = dormant.decode(self.cfg.apf).expect("self-encoded blob");
                    self.mgr = ApfManager::restore(restored, Box::new(Aimd::default()));
                }
            }
        }
        let report = report.expect("Sample always schedules Finalize");
        slab::give(agg);
        // Communication accounting: every cohort client moves the masked
        // frame both ways; first-timers additionally pull the initial model
        // (FlRunner's round-0 broadcast, amortized over late joiners).
        let cohort_n = cohort.len() as u64;
        let bytes_up = report.bytes_up * cohort_n;
        let bytes_down = report.bytes_down * cohort_n;
        if new_clients > 0 {
            self.cum_bytes += self.initial_model_bytes * new_clients;
            self.cum_secs += self.network.transfer_secs(0, self.initial_model_bytes);
        }
        let comm_secs = self
            .network
            .transfer_secs(report.bytes_up, report.bytes_down);
        self.cum_bytes += bytes_up + bytes_down;
        self.cum_secs += compute_secs + comm_secs;
        let accuracy = if round.is_multiple_of(self.cfg.fl.eval_every as u64)
            || round + 1 == self.cfg.fl.rounds as u64
        {
            let _s = span!(Level::Info, target: "fedsim.pop", "eval", round = round);
            self.eval_model.load_flat(&self.global);
            let acc = apf_nn::evaluate(
                &mut self.eval_model,
                self.test.inputs(),
                self.test.labels(),
                self.cfg.fl.eval_batch,
            );
            self.best_accuracy = self.best_accuracy.max(acc);
            Some(acc)
        } else {
            None
        };
        let record = RoundRecord {
            round,
            loss: losses.iter().sum::<f32>() / cohort.len().max(1) as f32,
            accuracy,
            best_accuracy: self.best_accuracy,
            frozen_ratio: report.frozen_ratio(),
            bytes_up,
            bytes_down,
            cum_bytes: self.cum_bytes,
            compute_secs,
            comm_secs,
            cum_secs: self.cum_secs,
        };
        self.log.push(record);
        let (slab_hits, slab_misses, slab_alloc, slab_resident) = slab::global_stats();
        apf_trace::metrics::counter("fedsim.bytes_up").add(record.bytes_up);
        apf_trace::metrics::counter("fedsim.bytes_down").add(record.bytes_down);
        apf_trace::metrics::gauge("slab.hits").set(slab_hits as f64);
        apf_trace::metrics::gauge("slab.misses").set(slab_misses as f64);
        apf_trace::metrics::gauge("slab.alloc_bytes").set(slab_alloc as f64);
        apf_trace::metrics::gauge("slab.resident_bytes").set(slab_resident as f64);
        apf_trace::metrics::gauge("population.registry_clients").set(self.registry.len() as f64);
        apf_trace::metrics::gauge("population.registry_bytes")
            .set(self.registry.resident_bytes() as f64);
        event!(Level::Info, target: "fedsim.pop", "round_complete",
            round = round,
            cohort = cohort_n,
            new_clients = new_clients,
            loss = record.loss,
            frozen_ratio = record.frozen_ratio,
            bytes_up = record.bytes_up,
            registry_clients = self.registry.len(),
            slab_misses = slab_misses,
        );
        record
    }

    /// Runs all configured rounds; appends a ledger record when configured.
    pub fn run(&mut self) -> &ExperimentLog {
        let t0 = Instant::now();
        for r in 0..self.cfg.fl.rounds as u64 {
            self.run_round(r);
        }
        let wall_secs = t0.elapsed().as_secs_f64();
        apf_trace::metrics::emit();
        apf_trace::flush();
        if let Some(path) = self.ledger_path.clone() {
            let mut record = LedgerRecord::from_log(
                &self.log,
                &self.model_name,
                &self.strategy_label,
                self.config_digest,
                wall_secs,
            );
            record
                .metrics
                .insert("registered".to_owned(), self.cfg.registered as f64);
            record
                .metrics
                .insert("cohort_size".to_owned(), self.cfg.cohort as f64);
            record.metrics.insert(
                "registry_bytes".to_owned(),
                self.registry.resident_bytes() as f64,
            );
            record.metrics.insert(
                "steady_resident_bytes".to_owned(),
                self.steady_resident_bytes() as f64,
            );
            if let Some(peak) = peak_resident_bytes() {
                record
                    .metrics
                    .insert("peak_resident_bytes".to_owned(), peak as f64);
            }
            match record.append_to(&path) {
                Ok(()) => event!(Level::Info, target: "fedsim.pop", "ledger_appended",
                    path = path.display().to_string(),
                    digest = record.config_digest.as_str()),
                Err(e) => event!(Level::Warn, target: "fedsim.pop", "ledger_write_failed",
                    path = path.display().to_string(),
                    error = e.to_string()),
            }
        }
        &self.log
    }
}

/// Canonical configuration string behind the population runner's ledger
/// digest: the shared [`FlConfig`] canonical plus the population knobs.
pub(crate) fn population_canonical(cfg: &PopulationConfig, model: &str, strategy: &str) -> String {
    format!(
        "{};registered={};cohort={};dormant={};shells={}",
        config_canonical(&cfg.fl, model, strategy, cfg.registered),
        cfg.registered,
        cfg.cohort,
        cfg.codec.name(),
        cfg.shells,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dormant_blob_roundtrips() {
        let rng = [1u64, u64::MAX, 3, 0xDEAD_BEEF];
        let opt = vec![0.5f32, -1.25, 3.0];
        for codec in [EmaCodec::Dense, EmaCodec::F16] {
            let blob = pack_dormant(rng, 42, &opt, codec);
            let (r2, s2, o2) = unpack_dormant(&blob);
            assert_eq!(r2, rng);
            assert_eq!(s2, 42);
            assert_eq!(o2, opt, "{codec:?} must be exact on these values");
        }
        // Empty optimizer state (momentum-free SGD) stays tiny.
        let blob = pack_dormant(rng, 0, &[], EmaCodec::Dense);
        assert_eq!(blob.len(), 45);
    }

    #[test]
    fn registry_accounting_tracks_replacements() {
        let mut reg = ClientRegistry::new();
        assert!(reg.is_empty());
        reg.insert(5, pack_dormant([0; 4], 0, &[1.0; 8], EmaCodec::Dense));
        let b1 = reg.resident_bytes();
        reg.insert(5, pack_dormant([0; 4], 1, &[], EmaCodec::Dense));
        assert_eq!(reg.len(), 1);
        assert!(reg.resident_bytes() < b1, "replacement must shrink");
        reg.insert(9, pack_dormant([0; 4], 0, &[], EmaCodec::Dense));
        assert_eq!(reg.len(), 2);
        assert!(reg.get(7).is_none());
    }

    #[test]
    fn cohort_sampling_is_deterministic_sorted_distinct() {
        let spec = crate::RunSpec::golden();
        let mut runner = spec.build_population_runner();
        runner.cfg.registered = 1000;
        runner.cfg.cohort = 64;
        let a = runner.sample_cohort(3);
        let b = runner.sample_cohort(3);
        assert_eq!(a, b);
        assert_eq!(a.len(), 64);
        assert!(a.windows(2).all(|w| w[0] < w[1]), "sorted and distinct");
        assert!(a.iter().all(|&c| c < 1000));
        let c = runner.sample_cohort(4);
        assert_ne!(a, c, "different rounds draw different cohorts");
    }
}
