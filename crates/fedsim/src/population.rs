//! Million-client sampled-cohort population simulator.
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
//!   inputs, so one [`ApfStrategy`] — the same one [`FlRunner`] drives —
//!   serves the whole population. At each round boundary its manager is
//!   squeezed through [`apf::DormantApfState`] (bit-packed freeze mask,
//!   codec-compressed EMA trajectories) — the dormant encode path is
//!   load-bearing, not dead code.
//! * Full replicas ("shells": model + optimizer + data shard) exist only
//!   for the cohort block currently training, and are **recycled** across
//!   blocks and rounds; their backing buffers cycle through the
//!   `apf_tensor::slab` size-class store, so steady-state allocation is
//!   zero regardless of cohort composition.
//!
//! A round samples its cohort, streams it through the shell pool a block at
//! a time — materialize, train, absorb each local into the strategy's
//! running aggregate, suspend — and commits once, so resident memory is
//! bounded by the shell pool, never by the registered population. The rest
//! (accounting, evaluation, telemetry, ledger) is the shared [`RoundBook`].
//!
//! **Parity contract:** with full participation (`cohort = 0`), dense
//! dormant encoding, and shared-partition data, a [`PopulationRunner`] is
//! bitwise identical to [`FlRunner`] with [`crate::ApfStrategy`] — same
//! trajectory, same final global bits, at any thread count
//! (`tests/population_parity.rs`).

use std::collections::HashMap;
use std::time::Instant;

use apf::ApfConfig;
use apf_data::{Dataset, SynthImageGen};
use apf_nn::{LrSchedule, Sequential, Trainer};
use apf_quant::EmaCodec;
use apf_tensor::{derive_seed, seeded_rng, slab, Tensor};
use apf_trace::{event, span, Level};

use crate::client::Client;
use crate::metrics::{ExperimentLog, RoundRecord};
use crate::round::{sample_cohort, train_clients, EvalSetup, RoundBook};
use crate::runner::{FlConfig, OptimizerKind};
use crate::strategy::{ApfStrategy, SyncStrategy};

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

/// Sampled-participation simulator over a registered population (see the
/// module docs for the architecture and the parity contract).
pub struct PopulationRunner {
    cfg: PopulationConfig,
    data: PopulationData,
    model_factory: Box<dyn Fn(u64) -> Sequential>,
    strategy: ApfStrategy,
    mgr_dormant_bytes: usize,
    /// Materialized replicas, re-bound to a different registered client as
    /// cohort blocks stream through.
    shells: Vec<Client>,
    registry: ClientRegistry,
    global: Vec<f32>,
    book: RoundBook,
}

impl PopulationRunner {
    /// Assembles the runner, with the default AIMD controller and no spec
    /// (so its ledger record pairs with nothing). Live telemetry is served
    /// when `APF_OBS_ADDR` is set (or after [`PopulationRunner::serve`]).
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
        let mut strategy = ApfStrategy::new(cfg.apf).expect("invalid APF config");
        if cfg.wire_f16 {
            strategy = strategy.with_f16();
        }
        PopulationRunner::assemble(cfg, Box::new(model_factory), data, test, strategy, None)
    }

    /// [`PopulationRunner::new`] with the shared `strategy` and the run's
    /// canonical spec string given (what [`crate::RunSpec`] builds).
    pub(crate) fn assemble(
        cfg: PopulationConfig,
        model_factory: Box<dyn Fn(u64) -> Sequential>,
        data: PopulationData,
        test: Dataset,
        mut strategy: ApfStrategy,
        spec: Option<String>,
    ) -> Self {
        apf_trace::init_from_env();
        assert!(cfg.registered > 0, "no registered clients");
        assert!(cfg.shells > 0, "need at least one shell");
        if let PopulationData::Shared { parts, .. } = &data {
            assert_eq!(
                parts.len(),
                cfg.registered,
                "partition does not cover the registered population"
            );
        }
        let eval_model = model_factory(derive_seed(cfg.fl.seed, 0x30DE1));
        let init = eval_model.flat_params();
        strategy.init(&init, cfg.registered);
        let strategy_label = if cfg.wire_f16 { "apf-pop+q" } else { "apf-pop" };
        let name = format!("{}/{strategy_label}", eval_model.name());
        event!(Level::Info, target: "fedsim.pop", "population_configured",
            name = name.as_str(), registered = cfg.registered, cohort = cfg.cohort,
            shells = cfg.shells, model_scalars = init.len(), dormant = cfg.codec.name());
        let mut book = RoundBook::new(
            &name,
            strategy_label,
            spec,
            &cfg.fl,
            EvalSetup::new(eval_model, test, cfg.fl.eval_batch),
        );
        book.serve(None);
        PopulationRunner {
            cfg,
            data,
            model_factory,
            strategy,
            mgr_dormant_bytes: 0,
            shells: Vec::new(),
            registry: ClientRegistry::default(),
            global: init,
            book,
        }
    }

    /// Serves live telemetry from `addr` for the lifetime of the runner
    /// (also enabled by `APF_OBS_ADDR`; see [`RoundBook::serve`]).
    pub fn serve(&mut self, addr: &str) {
        self.book.serve(Some(addr));
    }

    /// The live-telemetry server's bound address, when serving.
    pub fn obs_addr(&self) -> Option<std::net::SocketAddr> {
        self.book.obs_addr()
    }

    /// The metric log so far.
    pub fn log(&self) -> &ExperimentLog {
        self.book.log()
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
    /// that is the claim `population-smoke` pins (100k against 1M registered).
    pub fn steady_resident_bytes(&self) -> u64 {
        let (_, _, _, slab_resident) = slab::global_stats();
        let n = self.global.len() as u64;
        // Shells: flat params + grads + optimizer state + the data shard.
        let shells: u64 = self
            .shells
            .iter()
            .map(|client| {
                let data = client.data();
                let shard = (data.len() * data.sample_numel()) as u64 * 4 + data.len() as u64 * 8;
                n * 8 + client.trainer().optimizer_state().len() as u64 * 4 + shard
            })
            .sum();
        // Runner-owned dense vectors: global + the strategy's running
        // aggregate + eval model.
        let runner = n * 4 * 3;
        slab_resident
            + self.registry.resident_bytes()
            + self.mgr_dormant_bytes as u64
            + shells
            + runner
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

    /// Materializes client `id` into shell `slot` — building the shell on
    /// first use, re-binding it (and recycling the retired shard's buffer
    /// through the slab store) otherwise — and restores the client's
    /// dormant state. Returns whether this is the client's first-ever
    /// participation.
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
                (self.model_factory)(derive_seed(self.cfg.fl.seed, 0x30DE1)),
                self.cfg.optimizer.build(),
                self.cfg.schedule,
            );
            self.shells.push(Client::new(
                trainer,
                shard,
                self.cfg.fl.batch_size,
                derive_seed(self.cfg.fl.seed, id),
            ));
        } else {
            let (inputs, _labels) = self.shells[slot].replace_data(shard).into_parts();
            slab::give(inputs.into_vec());
        }
        let client = &mut self.shells[slot];
        client.load_flat(&self.global);
        client.set_rng_state(rng);
        client.trainer_mut().set_step_count(steps as usize);
        client.trainer_mut().load_optimizer_state(&opt);
        first_time
    }

    /// Suspends shell `slot`'s client back into the registry as client `id`.
    fn suspend(&mut self, slot: usize, id: u64) {
        let client = &self.shells[slot];
        let blob = pack_dormant(
            client.rng_state(),
            client.trainer().step_count() as u64,
            &client.trainer().optimizer_state(),
            self.cfg.codec,
        );
        self.registry.insert(id, blob);
    }

    /// Runs one communication round and returns its record.
    pub fn run_round(&mut self, round: u64) -> RoundRecord {
        let _round_span = span!(Level::Info, target: "fedsim", "round", round = round);
        let cohort = {
            let _s = span!(Level::Info, target: "fedsim.pop", "sample", round = round);
            sample_cohort(
                self.cfg.fl.seed,
                round,
                self.cfg.registered,
                self.cfg.cohort,
            )
        };
        let mut losses = vec![0.0f32; cohort.len()];
        let mut times = vec![0.0f64; self.cfg.shells];
        let mut new_clients = 0usize;
        let mut compute_secs = 0.0f64;
        for (block, losses) in cohort
            .chunks(self.cfg.shells)
            .zip(losses.chunks_mut(self.cfg.shells))
        {
            let clients = block.len();
            {
                let _s = span!(Level::Info, target: "fedsim.pop", "materialize",
                    round = round, clients = clients);
                for (slot, &id) in block.iter().enumerate() {
                    new_clients += usize::from(self.materialize(slot, id));
                }
            }
            {
                // The cohort's local training, block after block, is the
                // round's compute time.
                let _s = span!(Level::Info, target: "fedsim", "local_train",
                    round = round, clients = clients);
                let t0 = Instant::now();
                let strategy = &self.strategy;
                let hook = |i: usize, p: &mut [f32]| strategy.post_local_iteration(round, i, p);
                let mut members: Vec<&mut Client> = self.shells[..clients].iter_mut().collect();
                train_clients(
                    &mut members,
                    self.cfg.fl.local_iters,
                    &hook,
                    self.cfg.fl.parallel,
                    losses,
                    &mut times[..clients],
                );
                compute_secs += t0.elapsed().as_secs_f64();
            }
            // Absorb in ascending client order — the same f32 accumulation
            // order as FlRunner's fleet-wide `sync_round`.
            let _s = span!(Level::Info, target: "fedsim", "aggregate",
                round = round, clients = clients);
            // Straight from each shell's arena: `absorb` may overwrite the
            // scalars it reads, and the next `materialize` reloads them all.
            for (slot, &id) in block.iter().enumerate() {
                let params = self.shells[slot].trainer_mut().model_mut().params_mut();
                self.strategy.absorb(round, params, 1.0);
                self.suspend(slot, id);
            }
        }
        let comm = {
            let _s = span!(Level::Info, target: "fedsim", "sync", round = round);
            let comm = self.strategy.commit(round, &mut self.global);
            // The shared manager's round-boundary dormant hop: encode →
            // decode through the configured codec, proving the compact form
            // carries everything the next round needs.
            self.mgr_dormant_bytes = self.strategy.dormant_hop(self.cfg.codec, round + 1);
            comm
        };
        // First-timers additionally pull the initial model (FlRunner's
        // round-0 broadcast, amortized over late joiners).
        self.book.join(new_clients, None);
        let mean_loss = losses.iter().sum::<f32>() / cohort.len() as f32;
        let record = self
            .book
            .close(round, mean_loss, comm, compute_secs, None, &self.global);
        apf_trace::metrics::gauge("population.registry_clients").set(self.registry.len() as f64);
        apf_trace::metrics::gauge("population.registry_bytes")
            .set(self.registry.resident_bytes() as f64);
        record
    }

    /// Runs all configured rounds and closes the books ([`RoundBook::finish`];
    /// the ledger record carries the population's footprint metrics).
    pub fn run(&mut self) -> &ExperimentLog {
        let t0 = Instant::now();
        for r in 0..self.cfg.fl.rounds as u64 {
            self.run_round(r);
        }
        let extra = [
            ("registered", self.cfg.registered as f64),
            ("cohort_size", self.cfg.cohort as f64),
            ("registry_bytes", self.registry.resident_bytes() as f64),
            ("steady_resident_bytes", self.steady_resident_bytes() as f64),
        ];
        self.book.finish(t0.elapsed().as_secs_f64(), &extra);
        self.book.log()
    }
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
        let mut reg = ClientRegistry::default();
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
}
