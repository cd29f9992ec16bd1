//! Synchronization strategies: FedAvg, the §4.1 strawmen, the APF family,
//! and the §7.4 sparsification baselines (Gaia, CMFL).

use apf::{
    Aimd, ApfConfig, ApfError, ApfManager, DormantApfState, EmaPerturbation, FixedPeriod,
    FreezeController, FreezeMask, PureAdditive, PureMultiplicative,
};
use apf_quant::{f16_roundtrip_in_place, EmaCodec};

/// Communication accounting for one synchronization round.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RoundComm {
    /// Bytes uploaded this round, summed over clients.
    pub bytes_up: u64,
    /// Bytes downloaded this round, summed over clients.
    pub bytes_down: u64,
    /// Largest single-client upload (gates the synchronous barrier).
    pub max_client_up: u64,
    /// Largest single-client download.
    pub max_client_down: u64,
    /// Fraction of scalars excluded from synchronization (frozen under APF,
    /// excluded under partial sync, unreported under Gaia/CMFL), averaged
    /// over clients.
    pub frozen_ratio: f32,
}

/// A federated synchronization strategy.
///
/// The simulator hands the strategy every client's flat model at the end of
/// each round; the strategy must leave the locals and the `global` evaluation
/// model consistent with its semantics and report the bytes it moved.
pub trait SyncStrategy: Send + Sync {
    /// Label for logs, e.g. `"apf"`.
    fn name(&self) -> String;

    /// Called once before round 0 with the synchronized initial model.
    fn init(&mut self, _init_params: &[f32], _num_clients: usize) {}

    /// Registers the model's `(layer name, scalar count)` layout for
    /// per-layer telemetry. Called (when available) before
    /// [`SyncStrategy::init`]. Default: ignored.
    fn set_model_layout(&mut self, _layout: Vec<(String, usize)>) {}

    /// Performs the round's synchronization.
    ///
    /// `weights` are per-client aggregation weights (0 drops a client's
    /// upload, e.g. FedAvg discarding stragglers in §7.7).
    fn sync_round(
        &mut self,
        round: u64,
        locals: &mut [Vec<f32>],
        weights: &[f32],
        global: &mut Vec<f32>,
    ) -> RoundComm;

    /// Ignores its argument: every strategy freezes per scalar. It stays
    /// only because the benchmark harness (`benchmark/src/workloads.rs`)
    /// still calls it with [`apf_nn::Sequential::filter_segments`]; both go
    /// once that call does.
    fn set_filter_layout(&mut self, _segments: Vec<usize>) {}

    /// Per-local-iteration hook (Alg. 1 line 2 rollback for APF). Default:
    /// no-op.
    fn post_local_iteration(&self, _round: u64, _client: usize, _params: &mut [f32]) {}

    /// Per-layer frozen fraction for `round`, as `(layer name, ratio)` in
    /// layout order — live-telemetry fodder for `/snapshot`. Default (for
    /// strategies with no freezing notion): empty.
    fn layer_frozen_ratios(&self, _round: u64) -> Vec<(String, f64)> {
        Vec::new()
    }
}

/// Weighted elementwise mean of `vecs` (sum `w * x` in index order, then
/// divide by the weight total); `None` when all weights are zero. The one
/// copy: the networked server averages compact uploads through it too, which
/// is what keeps a networked run bitwise equal to the simulator.
pub fn weighted_mean(vecs: &[Vec<f32>], weights: &[f32]) -> Option<Vec<f32>> {
    let total: f32 = weights.iter().sum();
    if total <= 0.0 || vecs.is_empty() {
        return None;
    }
    let n = vecs[0].len();
    let mut out = vec![0.0f32; n];
    for (v, &w) in vecs.iter().zip(weights) {
        if w == 0.0 {
            continue;
        }
        debug_assert_eq!(v.len(), n);
        for (o, &x) in out.iter_mut().zip(v) {
            *o += w * x;
        }
    }
    for o in &mut out {
        *o /= total;
    }
    Some(out)
}

// ---------------------------------------------------------------------------
// FedAvg
// ---------------------------------------------------------------------------

/// Vanilla FedAvg: every round, every client ships the full model both ways.
#[derive(Debug, Default)]
pub struct FullSync {
    bytes_per_scalar: u64,
}

impl FullSync {
    /// Creates the strategy (4 bytes per scalar).
    pub fn new() -> Self {
        FullSync {
            bytes_per_scalar: 4,
        }
    }
}

impl SyncStrategy for FullSync {
    fn name(&self) -> String {
        "fedavg".to_owned()
    }

    fn sync_round(
        &mut self,
        _round: u64,
        locals: &mut [Vec<f32>],
        weights: &[f32],
        global: &mut Vec<f32>,
    ) -> RoundComm {
        if let Some(mean) = weighted_mean(locals, weights) {
            *global = mean;
        }
        let n = global.len() as u64;
        let uploaders = weights.iter().filter(|&&w| w > 0.0).count() as u64;
        for l in locals.iter_mut() {
            l.copy_from_slice(global);
        }
        RoundComm {
            bytes_up: uploaders * n * self.bytes_per_scalar,
            bytes_down: locals.len() as u64 * n * self.bytes_per_scalar,
            max_client_up: n * self.bytes_per_scalar,
            max_client_down: n * self.bytes_per_scalar,
            frozen_ratio: 0.0,
        }
    }
}

// ---------------------------------------------------------------------------
// Strawman 1: partial synchronization (§4.1)
// ---------------------------------------------------------------------------

/// Strawman 1 of §4.1: scalars judged stable are *excluded from
/// synchronization but keep training locally* — which lets them diverge on
/// non-IID clients (Fig. 4) and costs accuracy (Fig. 5).
///
/// The reported `global` model is the average of the local models (what one
/// would deploy); only the non-excluded scalars actually move on the wire.
#[derive(Debug)]
pub struct PartialSync {
    threshold: f32,
    ema_alpha: f32,
    check_every: u32,
    ema: EmaPerturbation,
    check_ref: Vec<f32>,
    excluded: FreezeMask,
    bytes_per_scalar: u64,
}

impl PartialSync {
    /// The per-scalar exclusion mask (frozen = no longer synchronized).
    pub fn excluded(&self) -> &FreezeMask {
        &self.excluded
    }

    /// Creates the strategy with the given stability threshold, EMA
    /// smoothing factor, and check cadence (in rounds).
    pub fn new(threshold: f32, ema_alpha: f32, check_every_rounds: u32) -> Self {
        assert!(check_every_rounds > 0, "check cadence must be positive");
        PartialSync {
            threshold,
            ema_alpha,
            check_every: check_every_rounds,
            ema: EmaPerturbation::new(0, ema_alpha),
            check_ref: Vec::new(),
            excluded: FreezeMask::all_unfrozen(0),
            bytes_per_scalar: 4,
        }
    }
}

impl SyncStrategy for PartialSync {
    fn name(&self) -> String {
        "partial-sync".to_owned()
    }

    fn init(&mut self, init_params: &[f32], _num_clients: usize) {
        self.ema = EmaPerturbation::new(init_params.len(), self.ema_alpha);
        self.check_ref = init_params.to_vec();
        self.excluded = FreezeMask::all_unfrozen(init_params.len());
    }

    fn sync_round(
        &mut self,
        round: u64,
        locals: &mut [Vec<f32>],
        weights: &[f32],
        global: &mut Vec<f32>,
    ) -> RoundComm {
        let n = global.len();
        // The deployable model: mean over everything (evaluation only).
        if let Some(mean) = weighted_mean(locals, weights) {
            *global = mean;
        }
        // Wire traffic and write-back: only the non-excluded scalars
        // (excluded = frozen in mask terms, so the copy kernel skips them).
        for l in locals.iter_mut() {
            apf_tensor::mask_copy(l, global, self.excluded.words());
        }
        // Stability check on the synchronized portion.
        if (round + 1).is_multiple_of(u64::from(self.check_every)) {
            self.ema
                .update_unfrozen(global, &self.check_ref, &self.excluded);
            for j in 0..n {
                if !self.excluded.is_frozen(j) && self.ema.value(j) < self.threshold {
                    self.excluded.set(j, true); // sticky: never synchronized again
                }
            }
            self.check_ref.copy_from_slice(global);
        }
        let synced = self.excluded.unfrozen_count();
        // Same masked-frame encoding as APF: exclusion bitmap + packed values.
        let per_client = apf::masked_transfer_bytes(n, synced, self.bytes_per_scalar);
        RoundComm {
            bytes_up: per_client * locals.len() as u64,
            bytes_down: per_client * locals.len() as u64,
            max_client_up: per_client,
            max_client_down: per_client,
            frozen_ratio: 1.0 - synced as f32 / n.max(1) as f32,
        }
    }
}

// ---------------------------------------------------------------------------
// APF family (plus strawman 2 via permanent freezing)
// ---------------------------------------------------------------------------

/// The freezing-period controller of an [`ApfStrategy`]'s manager, as data:
/// Fig. 8's AIMD or one of the §7.5 ablations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Controller {
    /// [`apf::Aimd`]: add `increment` on a stable verdict, divide by
    /// `decrease_factor` on drift.
    Aimd {
        /// Rounds added per stable verdict.
        increment: u32,
        /// Division factor on drift.
        decrease_factor: u32,
    },
    /// [`apf::PureAdditive`]: add or subtract `step`.
    PureAdditive {
        /// Step in rounds.
        step: u32,
    },
    /// [`apf::PureMultiplicative`]: multiply or divide by `factor`.
    PureMultiplicative {
        /// Multiplication/division factor.
        factor: u32,
    },
    /// [`FixedPeriod`]: freeze every stable scalar for `len` rounds
    /// (`u32::MAX` is strawman 2's permanent freezing).
    FixedPeriod {
        /// Freezing period in rounds.
        len: u32,
    },
}

impl Default for Controller {
    /// Alg. 1's controller: `L += 1` on stability, halve on drift.
    fn default() -> Self {
        let Aimd {
            increment,
            decrease_factor,
        } = Aimd::default();
        Controller::Aimd {
            increment,
            decrease_factor,
        }
    }
}

impl Controller {
    /// A fresh controller of this kind.
    pub fn build(self) -> Box<dyn FreezeController> {
        match self {
            Controller::Aimd {
                increment,
                decrease_factor,
            } => Box::new(Aimd {
                increment,
                decrease_factor,
            }),
            Controller::PureAdditive { step } => Box::new(PureAdditive { step }),
            Controller::PureMultiplicative { factor } => Box::new(PureMultiplicative { factor }),
            Controller::FixedPeriod { len } => Box::new(FixedPeriod { len }),
        }
    }

    /// The display label of an [`ApfStrategy`] running this controller.
    fn label(self) -> String {
        match self {
            Controller::Aimd { .. } => "apf".to_owned(),
            Controller::PureAdditive { .. } => "pure-additive".to_owned(),
            Controller::PureMultiplicative { .. } => "pure-multiplicative".to_owned(),
            Controller::FixedPeriod { len: u32::MAX } => "permanent-freeze".to_owned(),
            Controller::FixedPeriod { len } => format!("fixed-{len}"),
        }
    }
}

/// The APF strategy (§4–6): one [`ApfManager`] for the whole fleet;
/// optionally stacked with fp16 quantization (§7.7).
///
/// Every client's manager would derive the same mask from the same
/// synchronized state (§6.2), so N replicas evolve bit for bit alike and the
/// simulator keeps a single one. Networked clients do each run their own
/// replica; the parity tests in `apf-net` are the live proof that they agree.
///
/// The strategy keeps no mask of its own: the round's mask is the manager's
/// resident one ([`ApfManager::mask`]), filled by the manager at its
/// `&mut self` points, so the concurrent `&self` rollback hook, the reduce
/// and the telemetry all borrow the same copy.
///
/// The reduce streams: [`ApfStrategy::absorb`] takes one local at a time,
/// [`ApfStrategy::commit`] closes the round. [`SyncStrategy::sync_round`] is
/// the two over a fleet of materialized locals; [`crate::PopulationRunner`]
/// calls them directly, a cohort block at a time.
///
/// With a [`FixedPeriod`] controller of `u32::MAX` rounds this degenerates
/// into strawman 2 of §4.1 (permanent freezing) — see
/// [`ApfStrategy::permanent_freeze`].
pub struct ApfStrategy {
    cfg: ApfConfig,
    controller: Controller,
    /// The fleet's manager; `None` before [`SyncStrategy::init`].
    manager: Option<ApfManager>,
    /// The running aggregate of the round being reduced: full length, only
    /// unfrozen slots ever written, all zero between rounds.
    agg: Vec<f32>,
    /// Weight total and number of locals absorbed into `agg` so far.
    total: f32,
    absorbed: u64,
    quantize_f16: bool,
    label: String,
    layout: Vec<(String, usize)>,
}

impl std::fmt::Debug for ApfStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ApfStrategy")
            .field("label", &self.label)
            .finish()
    }
}

impl ApfStrategy {
    /// Creates standard APF with the default AIMD controller.
    ///
    /// # Errors
    /// Returns [`ApfError::InvalidConfig`] for an invalid `cfg`.
    pub fn new(cfg: ApfConfig) -> Result<Self, ApfError> {
        ApfStrategy::with_controller(cfg, Controller::default())
    }

    /// Creates APF with a custom controller (the §7.5 ablations), labelled
    /// by [`Controller::label`].
    ///
    /// # Errors
    /// Returns [`ApfError::InvalidConfig`] for an invalid `cfg`.
    pub fn with_controller(cfg: ApfConfig, controller: Controller) -> Result<Self, ApfError> {
        cfg.validate().map_err(ApfError::InvalidConfig)?;
        Ok(ApfStrategy {
            cfg,
            controller,
            manager: None,
            agg: Vec::new(),
            total: 0.0,
            absorbed: 0,
            quantize_f16: false,
            label: controller.label(),
            layout: Vec::new(),
        })
    }

    /// Strawman 2 of §4.1: freeze stabilized scalars forever.
    ///
    /// # Errors
    /// Returns [`ApfError::InvalidConfig`] for an invalid `cfg`.
    pub fn permanent_freeze(cfg: ApfConfig) -> Result<Self, ApfError> {
        ApfStrategy::with_controller(cfg, Controller::FixedPeriod { len: u32::MAX })
    }

    /// Stacks fp16 quantization on the wire (§7.7): uploads and downloads are
    /// converted to binary16, halving the per-scalar wire size.
    pub fn with_f16(mut self) -> Self {
        self.quantize_f16 = true;
        self.cfg.bytes_per_scalar = 2;
        self.label = format!("{}+q", self.label);
        self
    }

    /// The fleet's manager as a one-element slice (empty before
    /// [`SyncStrategy::init`]), for inspection in tests/experiments.
    pub fn managers(&self) -> &[ApfManager] {
        self.manager.as_slice()
    }

    /// Installs `manager` as the fleet's, with the registered layout (a
    /// restored manager comes back without it).
    fn install(&mut self, mut manager: ApfManager) {
        manager.set_layout(self.layout.clone());
        self.manager = Some(manager);
    }

    /// First half of the streaming reduce: takes one client's local model
    /// as it finished round `round`, with aggregation weight `weight`
    /// (0 drops the upload). Pins the frozen scalars back (Alg. 1 line 2),
    /// applies the fp16 wire hop to the unfrozen runs in place, and adds
    /// `weight * local` into the running aggregate — full length and driven
    /// by the mask's unfrozen runs, bitwise equal to averaging compact
    /// uploads scalar for scalar. Locals must arrive in client order.
    pub fn absorb(&mut self, round: u64, local: &mut [f32], weight: f32) {
        let manager = self.manager.as_ref().expect("strategy not initialized");
        let mask = manager.mask(round);
        let words = mask.words();
        apf_tensor::mask_fill(local, manager.pinned(), words);
        if self.quantize_f16 {
            mask.for_each_unfrozen_run_in(0, local.len(), |s, e| {
                f16_roundtrip_in_place(&mut local[s..e]);
            });
        }
        if weight != 0.0 {
            if self.total == 0.0 && self.absorbed > 0 {
                // A real upload after all: drop the fallback stashed below.
                self.agg.fill(0.0);
            }
            apf_tensor::masked_axpy(&mut self.agg, local, weight, words);
            self.total += weight;
        } else if self.absorbed == 0 {
            // Should every upload be dropped, the round falls back to the
            // first client's (already quantized) unfrozen values.
            apf_tensor::mask_copy(&mut self.agg, local, words);
        }
        self.absorbed += 1;
    }

    /// Second half of the streaming reduce: divides the running aggregate
    /// by the weight total, applies the fp16 hop to it, writes it into the
    /// unfrozen slots of `params` (frozen slots get their pinned values) and
    /// runs the stability machinery once, which leaves the manager holding
    /// the mask of `round + 1`. Bytes are one masked transfer per absorbed
    /// client.
    ///
    /// # Panics
    /// Panics if no local was absorbed for `round`.
    pub fn commit(&mut self, round: u64, params: &mut [f32]) -> RoundComm {
        let manager = self.manager.as_mut().expect("strategy not initialized");
        assert!(self.absorbed > 0, "sync_round needs at least one client");
        let mask = manager.mask(round);
        if self.total > 0.0 {
            apf_tensor::masked_div(&mut self.agg, self.total, mask.words());
        }
        if self.quantize_f16 {
            mask.for_each_unfrozen_run_in(0, self.agg.len(), |s, e| {
                f16_roundtrip_in_place(&mut self.agg[s..e]);
            });
        }
        manager.apply_aggregate_dense(params, &self.agg, round);
        let rep = manager.finish_round(params, round);
        let fleet = std::mem::take(&mut self.absorbed);
        self.agg.fill(0.0);
        self.total = 0.0;
        RoundComm {
            bytes_up: rep.bytes_up * fleet,
            bytes_down: rep.bytes_down * fleet,
            max_client_up: rep.bytes_up,
            max_client_down: rep.bytes_down,
            frozen_ratio: rep.frozen_ratio(),
        }
    }

    /// Squeezes the manager through its compact dormant form and back
    /// (the population runner's round-boundary hop, which keeps the codec
    /// honest) and has the restored manager hold `next_round`'s mask, which
    /// it rebuilds from the decoded bookkeeping; returns the encoded size
    /// in bytes.
    pub(crate) fn dormant_hop(&mut self, codec: EmaCodec, next_round: u64) -> usize {
        let manager = self.manager.take().expect("strategy not initialized");
        let dormant = DormantApfState::encode(&manager.snapshot(), codec);
        let restored = dormant.decode(self.cfg).expect("self-encoded blob");
        self.install(ApfManager::restore(restored, self.controller.build()));
        self.manager
            .as_mut()
            .expect("installed above")
            .hold_round(next_round);
        dormant.len_bytes()
    }
}

impl SyncStrategy for ApfStrategy {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn init(&mut self, init_params: &[f32], _num_clients: usize) {
        let manager = ApfManager::new(init_params, self.cfg, self.controller.build())
            .expect("config validated at strategy construction");
        self.install(manager);
        self.agg = vec![0.0; init_params.len()];
    }

    fn set_model_layout(&mut self, layout: Vec<(String, usize)>) {
        self.layout = layout.clone();
        if let Some(m) = &mut self.manager {
            m.set_layout(layout);
        }
    }

    fn sync_round(
        &mut self,
        round: u64,
        locals: &mut [Vec<f32>],
        weights: &[f32],
        global: &mut Vec<f32>,
    ) -> RoundComm {
        // Every local ends up with the aggregate in its unfrozen slots and
        // the pinned values in its frozen ones, so `global` is everyone's.
        for (l, &w) in locals.iter_mut().zip(weights) {
            self.absorb(round, l, w);
        }
        let comm = self.commit(round, global);
        for l in locals.iter_mut() {
            l.copy_from_slice(global);
        }
        comm
    }

    fn post_local_iteration(&self, round: u64, _client: usize, params: &mut [f32]) {
        let manager = self.manager.as_ref().expect("strategy not initialized");
        manager.rollback(params, round);
    }

    fn layer_frozen_ratios(&self, round: u64) -> Vec<(String, f64)> {
        let Some(m) = &self.manager else {
            return Vec::new();
        };
        if self.layout.is_empty() {
            return Vec::new();
        }
        let mask = m.mask(round);
        let lens = self.layout.iter().map(|(_, len)| *len);
        self.layout
            .iter()
            .zip(mask.frozen_by_segment(lens))
            .map(|((name, len), (_, frozen))| {
                let ratio = if *len == 0 {
                    0.0
                } else {
                    frozen as f64 / *len as f64
                };
                (name.clone(), ratio)
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Gaia (Hsieh et al., NSDI 2017)
// ---------------------------------------------------------------------------

/// Gaia-style significance sparsification: a client uploads only the scalar
/// updates whose *relative* magnitude exceeds a significance threshold; the
/// rest accumulate locally until they become significant. The threshold
/// decays as `threshold0 / sqrt(round + 1)`, following the Gaia paper's
/// practice of shrinking the threshold over time (there, with the learning
/// rate).
///
/// Wire format for a sparse component is `(index, value)` = 8 bytes.
/// Gaia compresses only the *push* path; every touched index is broadcast
/// back to all clients (§7.4 notes APF beats this by compressing both
/// directions).
#[derive(Debug)]
pub struct Gaia {
    threshold0: f32,
    last_global: Vec<f32>,
}

impl Gaia {
    /// Creates Gaia with the paper's default 1% significance threshold.
    pub fn new(threshold0: f32) -> Self {
        assert!(threshold0 > 0.0, "threshold must be positive");
        Gaia {
            threshold0,
            last_global: Vec::new(),
        }
    }

    fn threshold_at(&self, round: u64) -> f32 {
        self.threshold0 / ((round + 1) as f32).sqrt()
    }
}

impl SyncStrategy for Gaia {
    fn name(&self) -> String {
        "gaia".to_owned()
    }

    fn init(&mut self, init_params: &[f32], _num_clients: usize) {
        self.last_global = init_params.to_vec();
    }

    fn sync_round(
        &mut self,
        round: u64,
        locals: &mut [Vec<f32>],
        weights: &[f32],
        global: &mut Vec<f32>,
    ) -> RoundComm {
        let n = self.last_global.len();
        let thresh = self.threshold_at(round);
        let total_w: f32 = weights.iter().sum::<f32>().max(f32::EPSILON);
        // Decide significance per client, accumulate the server-side delta.
        let mut delta = vec![0.0f32; n];
        let mut touched = vec![false; n];
        let mut sent: Vec<Vec<bool>> = Vec::with_capacity(locals.len());
        let mut comm = RoundComm::default();
        let mut excluded_total = 0.0f32;
        for (l, &w) in locals.iter().zip(weights) {
            let mut s = vec![false; n];
            let mut count = 0u64;
            for j in 0..n {
                let u = l[j] - self.last_global[j];
                let denom = self.last_global[j].abs().max(1e-3);
                if u.abs() / denom > thresh {
                    s[j] = true;
                    count += 1;
                    if w > 0.0 {
                        delta[j] += w * u;
                        touched[j] = true;
                    }
                }
            }
            excluded_total += 1.0 - count as f32 / n.max(1) as f32;
            let bytes = count * 8;
            comm.bytes_up += bytes;
            comm.max_client_up = comm.max_client_up.max(bytes);
            sent.push(s);
        }
        // Apply the touched deltas and broadcast them. A client that did
        // *not* send its own update for a touched index keeps that residual
        // (measured against the old global, which `global` still holds) on
        // top of the fresh global value — local accumulation.
        for j in 0..n {
            if touched[j] {
                self.last_global[j] += delta[j] / total_w;
            }
        }
        for (l, s) in locals.iter_mut().zip(&sent) {
            for j in 0..n {
                if touched[j] {
                    let residual = if s[j] { 0.0 } else { l[j] - global[j] };
                    l[j] = self.last_global[j] + residual;
                }
            }
        }
        global.copy_from_slice(&self.last_global);
        // Each touched `(index, value)` goes down as 8 bytes.
        let down = touched.iter().filter(|&&t| t).count() as u64 * 8;
        comm.bytes_down = down * locals.len() as u64;
        comm.max_client_down = down;
        comm.frozen_ratio = excluded_total / locals.len().max(1) as f32;
        comm
    }
}

// ---------------------------------------------------------------------------
// CMFL (Wang et al., ICDCS 2019)
// ---------------------------------------------------------------------------

/// CMFL-style relevance filtering: a client uploads its (full) update only
/// when the fraction of components whose sign agrees with the previous
/// global update exceeds a relevance threshold; irrelevant updates are
/// withheld entirely. The threshold decays multiplicatively per round, as in
/// the CMFL paper.
#[derive(Debug)]
pub struct Cmfl {
    threshold0: f32,
    decay: f32,
    last_global: Vec<f32>,
    prev_update: Vec<f32>,
}

impl Cmfl {
    /// Creates CMFL with the paper's default relevance threshold (0.8) and a
    /// gentle per-round threshold decay.
    pub fn new(threshold0: f32, decay: f32) -> Self {
        assert!((0.0..=1.0).contains(&threshold0), "threshold in [0,1]");
        assert!((0.0..=1.0).contains(&decay), "decay in [0,1]");
        Cmfl {
            threshold0,
            decay,
            last_global: Vec::new(),
            prev_update: Vec::new(),
        }
    }

    fn threshold_at(&self, round: u64) -> f32 {
        self.threshold0 * self.decay.powi(round.min(1_000_000) as i32)
    }

    /// Fraction of components of `update` whose sign matches `reference`.
    fn relevance(update: &[f32], reference: &[f32]) -> f32 {
        if update.is_empty() {
            return 1.0;
        }
        let same = update
            .iter()
            .zip(reference)
            .filter(|(u, r)| {
                (u.is_sign_positive() && **r >= 0.0) || (u.is_sign_negative() && **r < 0.0)
            })
            .count();
        same as f32 / update.len() as f32
    }
}

impl SyncStrategy for Cmfl {
    fn name(&self) -> String {
        "cmfl".to_owned()
    }

    fn init(&mut self, init_params: &[f32], _num_clients: usize) {
        self.last_global = init_params.to_vec();
        self.prev_update = vec![0.0; init_params.len()];
    }

    fn sync_round(
        &mut self,
        round: u64,
        locals: &mut [Vec<f32>],
        weights: &[f32],
        global: &mut Vec<f32>,
    ) -> RoundComm {
        let n = self.last_global.len();
        let thresh = self.threshold_at(round);
        // Relevance check per client (first round: everyone reports, since
        // there is no previous global update to compare against).
        let mut reporters = Vec::new();
        for (i, l) in locals.iter().enumerate() {
            if weights[i] <= 0.0 {
                continue;
            }
            let update: Vec<f32> = l
                .iter()
                .zip(&self.last_global)
                .map(|(a, b)| a - b)
                .collect();
            let relevant = round == 0 || Cmfl::relevance(&update, &self.prev_update) >= thresh;
            if relevant {
                reporters.push(i);
            }
        }
        if reporters.is_empty() {
            // Degenerate round: fall back to everyone to avoid stalling.
            reporters = (0..locals.len()).filter(|&i| weights[i] > 0.0).collect();
        }
        let rep_locals: Vec<Vec<f32>> = reporters.iter().map(|&i| locals[i].clone()).collect();
        let rep_weights: Vec<f32> = reporters.iter().map(|&i| weights[i]).collect();
        let new_global =
            weighted_mean(&rep_locals, &rep_weights).unwrap_or_else(|| self.last_global.clone());
        self.prev_update = new_global
            .iter()
            .zip(&self.last_global)
            .map(|(a, b)| a - b)
            .collect();
        self.last_global = new_global.clone();
        *global = new_global;
        for l in locals.iter_mut() {
            l.copy_from_slice(global);
        }
        let model_bytes = n as u64 * 4;
        RoundComm {
            bytes_up: reporters.len() as u64 * model_bytes,
            bytes_down: locals.len() as u64 * model_bytes,
            max_client_up: model_bytes,
            max_client_down: model_bytes,
            frozen_ratio: 1.0 - reporters.len() as f32 / locals.len().max(1) as f32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apf::ApfVariant;

    fn locals(n_clients: usize, n: usize, f: impl Fn(usize, usize) -> f32) -> Vec<Vec<f32>> {
        (0..n_clients)
            .map(|i| (0..n).map(|j| f(i, j)).collect())
            .collect()
    }

    #[test]
    fn full_sync_averages_and_distributes() {
        let mut s = FullSync::new();
        let mut ls = locals(2, 3, |i, j| (i * 3 + j) as f32);
        let mut g = vec![0.0; 3];
        let w = vec![1.0, 1.0];
        let comm = s.sync_round(0, &mut ls, &w, &mut g);
        assert_eq!(g, vec![1.5, 2.5, 3.5]);
        assert_eq!(ls[0], g);
        assert_eq!(ls[1], g);
        assert_eq!(comm.bytes_up, 2 * 3 * 4);
        assert_eq!(comm.bytes_down, 2 * 3 * 4);
        assert_eq!(comm.frozen_ratio, 0.0);
    }

    #[test]
    fn full_sync_zero_weight_drops_upload() {
        let mut s = FullSync::new();
        let mut ls = locals(2, 2, |i, _| i as f32);
        let mut g = vec![9.0, 9.0];
        let comm = s.sync_round(0, &mut ls, &[1.0, 0.0], &mut g);
        // Only client 0 contributes.
        assert_eq!(g, vec![0.0, 0.0]);
        assert_eq!(comm.bytes_up, 2 * 4);
        assert_eq!(comm.bytes_down, 2 * 2 * 4);
    }

    #[test]
    fn full_sync_all_dropped_keeps_global() {
        let mut s = FullSync::new();
        let mut ls = locals(2, 2, |_, _| 5.0);
        let mut g = vec![1.0, 2.0];
        s.sync_round(0, &mut ls, &[0.0, 0.0], &mut g);
        assert_eq!(g, vec![1.0, 2.0]);
        assert_eq!(ls[0], g);
    }

    #[test]
    fn partial_sync_excludes_stable_scalars_permanently() {
        let mut s = PartialSync::new(0.05, 0.99, 1);
        let init = vec![0.0f32; 2];
        s.init(&init, 2);
        let mut g = init.clone();
        // Scalar 0 oscillates (stable); scalar 1 drifts.
        let mut ls = locals(2, 2, |_, _| 0.0);
        let mut excluded_seen = false;
        for r in 0..60u64 {
            for l in ls.iter_mut() {
                l[0] += if r % 2 == 0 { 0.1 } else { -0.1 };
                l[1] += 0.1;
            }
            let comm = s.sync_round(r, &mut ls, &[1.0, 1.0], &mut g);
            if comm.frozen_ratio > 0.0 {
                excluded_seen = true;
                // Excluded scalars are no longer written back: the two
                // clients' scalar-0 values may now differ.
                assert!(comm.frozen_ratio <= 0.5 + 1e-6);
            }
        }
        assert!(excluded_seen, "oscillating scalar never became excluded");
        // Drifting scalar must still be synchronized.
        assert!((ls[0][1] - ls[1][1]).abs() < 1e-6);
    }

    #[test]
    fn apf_strategy_matches_manager_semantics() {
        let cfg = ApfConfig {
            check_every_rounds: 1,
            threshold_decay: None,
            ..ApfConfig::default()
        };
        let mut s = ApfStrategy::new(cfg).unwrap();
        let init = vec![0.0f32; 4];
        s.init(&init, 3);
        let mut g = init.clone();
        let mut ls = locals(3, 4, |_, _| 0.0);
        let mut saw_frozen = false;
        for r in 0..40u64 {
            for l in ls.iter_mut() {
                for (j, lj) in l.iter_mut().enumerate() {
                    if !s.managers()[0].is_frozen(j, r) {
                        *lj += if j < 2 {
                            if r % 2 == 0 {
                                0.1
                            } else {
                                -0.1
                            }
                        } else {
                            0.1
                        };
                    }
                }
            }
            let comm = s.sync_round(r, &mut ls, &[1.0; 3], &mut g);
            saw_frozen |= comm.frozen_ratio > 0.0;
            // All clients stay in lockstep.
            assert_eq!(ls[0], ls[1]);
            assert_eq!(ls[1], ls[2]);
            assert_eq!(g, ls[0]);
        }
        assert!(saw_frozen, "APF never froze the oscillators");
    }

    #[test]
    fn sparse_aggregation_matches_compact_reference() {
        // The run-driven sync (masked_axpy/masked_div + dense write-back)
        // against a hand-rolled compact select -> mean -> scatter using the
        // manager API directly — bitwise, f16 wire hop included.
        use apf::Aimd;
        use apf_quant::{f16_decode, f16_encode};
        let cfg = ApfConfig {
            check_every_rounds: 1,
            threshold_decay: None,
            ..ApfConfig::default()
        };
        let n = 150;
        let clients = 3;
        let weights = [1.0f32, 0.0, 2.0];
        let init = vec![0.0f32; n];
        let mut s = ApfStrategy::new(cfg).unwrap().with_f16();
        s.init(&init, clients);
        let ref_cfg = ApfConfig {
            bytes_per_scalar: 2,
            ..cfg
        };
        let mut ref_mgrs: Vec<ApfManager> = (0..clients)
            .map(|_| ApfManager::new(&init, ref_cfg, Box::new(Aimd::default())).unwrap())
            .collect();
        let mut ls = locals(clients, n, |_, _| 0.0);
        let mut ref_ls = ls.clone();
        let mut g = init.clone();
        for r in 0..25u64 {
            for (i, (l, rl)) in ls.iter_mut().zip(ref_ls.iter_mut()).enumerate() {
                for j in 0..n {
                    let d = ((i + 1) as f32 * 0.05) * ((r + j as u64) as f32 * 0.7).sin();
                    l[j] += d;
                    rl[j] += d;
                }
            }
            let comm = s.sync_round(r, &mut ls, &weights, &mut g);
            // Reference: the pre-optimization compact path.
            let mut ups = Vec::with_capacity(clients);
            for (m, rl) in ref_mgrs.iter().zip(ref_ls.iter_mut()) {
                m.rollback(rl, r);
                ups.push(f16_decode(&f16_encode(&m.select_unfrozen(rl, r))));
            }
            let agg = weighted_mean(&ups, &weights).unwrap_or_else(|| ups[0].clone());
            let agg = f16_decode(&f16_encode(&agg));
            let mut ref_up = 0u64;
            for (m, rl) in ref_mgrs.iter_mut().zip(ref_ls.iter_mut()) {
                m.apply_aggregate(rl, &agg, r);
                ref_up += m.finish_round(rl, r).bytes_up;
            }
            assert_eq!(ls, ref_ls, "round {r}: models diverged");
            assert_eq!(comm.bytes_up, ref_up, "round {r}: byte accounting diverged");
        }
    }

    #[test]
    fn apf_f16_halves_bytes() {
        let cfg = ApfConfig::default();
        let mut plain = ApfStrategy::new(cfg).unwrap();
        let mut quant = ApfStrategy::new(cfg).unwrap().with_f16();
        let init = vec![0.5f32; 100];
        plain.init(&init, 2);
        quant.init(&init, 2);
        let mut g1 = init.clone();
        let mut g2 = init.clone();
        let mut l1 = locals(2, 100, |_, _| 0.5);
        let mut l2 = locals(2, 100, |_, _| 0.5);
        let c1 = plain.sync_round(0, &mut l1, &[1.0, 1.0], &mut g1);
        let c2 = quant.sync_round(0, &mut l2, &[1.0, 1.0], &mut g2);
        // f16 halves the packed-value bytes; the freeze bitmap (13 bytes for
        // 100 scalars) is unchanged.
        assert_eq!(c1.bytes_up, 2 * (13 + 100 * 4));
        assert_eq!(c2.bytes_up, 2 * (13 + 100 * 2));
        assert!(quant.name().ends_with("+q"));
    }

    #[test]
    fn permanent_freeze_never_unfreezes() {
        let cfg = ApfConfig {
            check_every_rounds: 1,
            threshold_decay: None,
            ..ApfConfig::default()
        };
        let mut s = ApfStrategy::permanent_freeze(cfg).unwrap();
        let init = vec![0.0f32];
        s.init(&init, 1);
        let mut g = init.clone();
        let mut ls = locals(1, 1, |_, _| 0.0);
        // Oscillate until frozen, then drift hard: it must stay frozen.
        let mut frozen_round = None;
        for r in 0..200u64 {
            if !s.managers()[0].is_frozen(0, r) {
                ls[0][0] += if r % 2 == 0 { 0.1 } else { -0.1 };
            } else if frozen_round.is_none() {
                frozen_round = Some(r);
            }
            s.sync_round(r, &mut ls, &[1.0], &mut g);
        }
        let fr = frozen_round.expect("never froze");
        // Check it stays frozen arbitrarily far in the future.
        assert!(s.managers()[0].is_frozen(0, fr + 1_000_000));
    }

    #[test]
    fn apf_sharp_reduces_traffic_relative_to_standard() {
        let n = 1000;
        let mk = |variant| {
            let cfg = ApfConfig {
                check_every_rounds: 1,
                variant,
                threshold_decay: None,
                ..ApfConfig::default()
            };
            let mut s = ApfStrategy::new(cfg).unwrap();
            s.init(&vec![0.0f32; n], 2);
            s
        };
        let mut std_apf = mk(ApfVariant::Standard);
        let mut sharp = mk(ApfVariant::Sharp { prob: 0.5 });
        let run = |s: &mut ApfStrategy| -> u64 {
            let mut g = vec![0.0f32; n];
            let mut ls = locals(2, n, |_, _| 0.0);
            let mut total = 0;
            for r in 0..10u64 {
                for l in ls.iter_mut() {
                    for (j, v) in l.iter_mut().enumerate() {
                        if !s.managers()[0].is_frozen(j, r) {
                            *v += 0.1 + j as f32 * 1e-5; // all drift: never stable
                        }
                    }
                }
                total += s.sync_round(r, &mut ls, &[1.0, 1.0], &mut g).bytes_up;
            }
            total
        };
        let b_std = run(&mut std_apf);
        let b_sharp = run(&mut sharp);
        assert!(
            (b_sharp as f64) < 0.7 * b_std as f64,
            "sharp {b_sharp} should be well under standard {b_std}"
        );
    }

    #[test]
    fn gaia_sends_only_significant_updates() {
        let mut s = Gaia::new(0.01);
        let init = vec![1.0f32; 4];
        s.init(&init, 2);
        let mut g = init.clone();
        // Client updates: scalar 0 large (significant), others tiny.
        let mut ls = vec![
            vec![1.5, 1.000001, 1.000001, 1.000001],
            vec![1.3, 1.000001, 1.000001, 1.000001],
        ];
        let comm = s.sync_round(0, &mut ls, &[1.0, 1.0], &mut g);
        assert_eq!(comm.bytes_up, 2 * 8, "one significant scalar per client");
        // The significant scalar aggregated to the mean of the updates.
        assert!((g[0] - 1.4).abs() < 1e-6, "g[0] = {}", g[0]);
        // Insignificant scalars unchanged globally.
        assert_eq!(g[1], 1.0);
        // Locals keep their unsent residuals.
        assert!((ls[0][1] - 1.000001).abs() < 1e-7);
    }

    #[test]
    fn gaia_accumulates_until_significant() {
        let mut s = Gaia::new(0.5); // very high threshold
        let init = vec![1.0f32];
        s.init(&init, 1);
        let mut g = init.clone();
        let mut ls = vec![vec![1.0f32]];
        // Drift by 0.2/round: insignificant alone (0.2 < 0.5), but the local
        // residual accumulates and eventually crosses the threshold.
        let mut sent_round = None;
        for r in 0..10u64 {
            ls[0][0] += 0.2;
            let comm = s.sync_round(r, &mut ls, &[1.0], &mut g);
            if comm.bytes_up > 0 && sent_round.is_none() {
                sent_round = Some(r);
            }
        }
        let sr = sent_round.expect("accumulated update never became significant");
        assert!(sr >= 1, "should need at least 2 rounds of accumulation");
        assert!(
            (g[0] - 1.0).abs() > 0.3,
            "global finally received the bulk update"
        );
    }

    #[test]
    fn cmfl_withholds_irrelevant_updates() {
        let mut s = Cmfl::new(0.8, 1.0);
        let init = vec![0.0f32; 4];
        s.init(&init, 2);
        let mut g = init.clone();
        // Round 0: both report (no reference yet); global update = +0.1.
        let mut ls = vec![vec![0.1; 4], vec![0.1; 4]];
        let c0 = s.sync_round(0, &mut ls, &[1.0, 1.0], &mut g);
        assert_eq!(c0.frozen_ratio, 0.0);
        // Round 1: client 0 moves with the trend, client 1 against it.
        ls[0].iter_mut().for_each(|v| *v += 0.1);
        ls[1].iter_mut().for_each(|v| *v -= 0.1);
        let c1 = s.sync_round(1, &mut ls, &[1.0, 1.0], &mut g);
        assert!(
            (c1.frozen_ratio - 0.5).abs() < 1e-6,
            "one of two clients withheld"
        );
        assert_eq!(c1.bytes_up, 4 * 4, "only one full-model upload");
        assert_eq!(c1.bytes_down, 2 * 4 * 4, "both still pull");
        // Global moved with the relevant client only.
        assert!(g[0] > 0.1);
    }

    #[test]
    fn cmfl_relevance_math() {
        assert_eq!(Cmfl::relevance(&[1.0, -1.0], &[2.0, -3.0]), 1.0);
        assert_eq!(Cmfl::relevance(&[1.0, 1.0], &[-1.0, 1.0]), 0.5);
        assert_eq!(Cmfl::relevance(&[], &[]), 1.0);
    }

    #[test]
    fn weighted_mean_respects_weights() {
        let vs = vec![vec![0.0f32, 2.0], vec![4.0, 6.0]];
        let m = weighted_mean(&vs, &[3.0, 1.0]).unwrap();
        assert_eq!(m, vec![1.0, 3.0]);
        assert!(weighted_mean(&vs, &[0.0, 0.0]).is_none());
    }
}
