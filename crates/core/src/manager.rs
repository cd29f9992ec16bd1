//! The `APF_Manager` of Algorithm 1: per-client bookkeeping that freezes
//! stable scalars, synchronizes only the rest, and adapts freezing periods.

use std::borrow::Cow;

use apf_tensor::{derive_seed, splitmix64};
use apf_trace::{event, span, Level};

use crate::config::ApfConfig;
use crate::controller::FreezeController;
use crate::error::ApfError;
use crate::mask::{for_each_set_bit, low_mask, FreezeMask};
use crate::perturbation::EmaPerturbation;
use crate::state::ApfState;

/// Communication/freezing statistics for one synchronization round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyncReport {
    /// The round this report describes.
    pub round: u64,
    /// Total scalar count of the model.
    pub total: usize,
    /// Scalars frozen during this round (excluded from sync).
    pub frozen: usize,
    /// Bytes pushed to the server this round: the bit-packed freeze bitmap
    /// plus the packed unfrozen values ([`crate::masked_transfer_bytes`]).
    pub bytes_up: u64,
    /// Bytes pulled from the server this round (same encoding as up).
    pub bytes_down: u64,
    /// Whether a stability check ran at the end of this round.
    pub checked: bool,
    /// The stability threshold in force after this round.
    pub threshold: f32,
}

impl SyncReport {
    /// Fraction of scalars frozen this round.
    pub fn frozen_ratio(&self) -> f32 {
        if self.total == 0 {
            0.0
        } else {
            self.frozen as f32 / self.total as f32
        }
    }
}

/// Per-client APF state machine (Alg. 1 / Fig. 10 of the paper).
///
/// One manager wraps one client's flat parameter vector. All mask-relevant
/// state is derived exclusively from *synchronized* quantities (the
/// post-aggregation model, the round number, and the shared seed), so every
/// client's manager computes bit-identical masks with zero mask traffic —
/// the property §6.2 relies on.
///
/// Round lifecycle (round `r`):
/// 1. during local training call [`ApfManager::rollback`] after each local
///    iteration (emulated scalar freezing by rollback, Alg. 1 line 2);
/// 2. at round end call [`ApfManager::select_unfrozen`] and ship the compact
///    tensor (`masked_select`, line 4);
/// 3. scatter the aggregate back with [`ApfManager::apply_aggregate`]
///    (`masked_fill`, line 6);
/// 4. call [`ApfManager::finish_round`], which runs the stability check when
///    due (lines 7–8) plus the APF#/APF++ random freezing, and reports
///    communication statistics.
///
/// [`ApfManager::sync`] bundles all four for single-process use.
///
/// # The resident mask
///
/// `M_is_frozen` is manager state, as in Alg. 1: the manager holds the mask
/// of exactly one round, tagged with that round, and every call above for
/// that round borrows it. It is written only at `&mut self` points —
/// [`ApfManager::new`] (round 0), the end of [`ApfManager::finish_round`]
/// (round `r + 1`, the one place freezing decisions change) and
/// [`ApfManager::hold_round`] (once after [`ApfManager::restore`], which
/// cannot know the round) — so a round costs one mask build per manager.
/// There is no interior mutability: the `&self` readers
/// ([`ApfManager::rollback`] runs concurrently on the pool as the
/// per-iteration hook) may assume the mask does not change under them, and
/// a call for a round the manager does not hold derives that round's mask
/// from scratch, uses it, and drops it.
pub struct ApfManager {
    cfg: ApfConfig,
    controller: Box<dyn FreezeController>,
    n: usize,
    ema: EmaPerturbation,
    freeze_len: Vec<u32>,
    /// First round index at which the scalar trains again; scalar `j` is
    /// frozen during round `r` iff `r < unfreeze_round[j]`.
    unfreeze_round: Vec<u64>,
    /// Last synchronized global values — the rollback target.
    pinned: Vec<f32>,
    /// Parameter values at the previous stability check.
    check_ref: Vec<f32>,
    threshold: f32,
    checks_run: u64,
    /// Optional `(layer name, scalar count)` layout over the flat vector,
    /// used only for per-layer trace telemetry.
    layout: Vec<(String, usize)>,
    /// The resident mask and the round it belongs to (see the type docs);
    /// `None` only between [`ApfManager::restore`] and the first
    /// [`ApfManager::hold_round`] / [`ApfManager::finish_round`].
    resident: Option<(u64, FreezeMask)>,
}

impl std::fmt::Debug for ApfManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ApfManager")
            .field("n", &self.n)
            .field("threshold", &self.threshold)
            .field("controller", &self.controller.name())
            .field("checks_run", &self.checks_run)
            .finish()
    }
}

impl ApfManager {
    /// Creates a manager for a model whose initial (already synchronized)
    /// parameters are `init`.
    ///
    /// # Errors
    /// Returns [`ApfError::InvalidConfig`] if `cfg` fails
    /// [`ApfConfig::validate`].
    pub fn new(
        init: &[f32],
        cfg: ApfConfig,
        controller: Box<dyn FreezeController>,
    ) -> Result<Self, ApfError> {
        cfg.validate().map_err(ApfError::InvalidConfig)?;
        let n = init.len();
        let mut manager = ApfManager {
            controller,
            n,
            ema: EmaPerturbation::new(n, cfg.ema_alpha),
            freeze_len: vec![0; n],
            unfreeze_round: vec![0; n],
            pinned: init.to_vec(),
            check_ref: init.to_vec(),
            threshold: cfg.stability_threshold,
            checks_run: 0,
            cfg,
            layout: Vec::new(),
            resident: None,
        };
        manager.hold_round(0);
        Ok(manager)
    }

    /// Registers a `(layer name, scalar count)` layout over the flat vector.
    ///
    /// Purely observational: when set, [`ApfManager::finish_round`] emits a
    /// per-layer frozen-ratio trace event per round. Segments beyond the
    /// managed length are ignored.
    pub fn set_layout(&mut self, layout: Vec<(String, usize)>) {
        self.layout = layout;
    }

    /// Number of managed scalars.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the manager tracks zero scalars.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The stability threshold currently in force (after any decays).
    pub fn threshold(&self) -> f32 {
        self.threshold
    }

    /// Number of stability checks run so far.
    pub fn checks_run(&self) -> u64 {
        self.checks_run
    }

    /// Current per-scalar freezing periods (rounds).
    pub fn freezing_periods(&self) -> &[u32] {
        &self.freeze_len
    }

    /// The last synchronized model — the values frozen scalars are rolled
    /// back to. With [`ApfManager::mask`], lets a caller fold the rollback
    /// into a sweep of its own (the simulator's streaming reduce).
    pub fn pinned(&self) -> &[f32] {
        &self.pinned
    }

    /// Current per-scalar effective perturbations (EMA form).
    pub fn perturbations(&self) -> Vec<f32> {
        self.ema.values()
    }

    /// Whether scalar `j` is frozen during round `round`.
    pub fn is_frozen(&self, j: usize, round: u64) -> bool {
        round < self.unfreeze_round[j]
    }

    /// The from-scratch derivation of round `round`'s mask from
    /// `unfreeze_round`. The only other source of a mask is [`ApfManager::stability_check`], which
    /// packs the same predicate word by word while it holds the entries;
    /// `apf.manager.mask_builds` counts both.
    fn build_mask(&self, round: u64) -> FreezeMask {
        let _sp = span!(Level::Debug, target: "apf.manager", "mask_build", round = round);
        apf_trace::metrics::counter("apf.manager.mask_builds").inc();
        let unfreeze_round = &self.unfreeze_round[..self.n];
        FreezeMask::from_fn(self.n, |j| round < unfreeze_round[j])
    }

    /// The resident mask, if it is `round`'s.
    fn held(&self, round: u64) -> Option<&FreezeMask> {
        match &self.resident {
            Some((r, mask)) if *r == round => Some(mask),
            _ => None,
        }
    }

    /// Makes `round`'s mask the resident one (a no-op when it already is).
    /// [`ApfManager::finish_round`] does this for the next round by itself;
    /// call it once after [`ApfManager::restore`], or before driving a
    /// round out of sequence.
    pub fn hold_round(&mut self, round: u64) {
        if self.held(round).is_none() {
            self.resident = Some((round, self.build_mask(round)));
        }
    }

    /// The freezing mask for round `round` (`M_is_frozen` of Alg. 1): the
    /// resident mask by reference when the manager holds `round`, else built from scratch.
    /// This is the mask every masked kernel, payload builder, and byte
    /// accountant consumes.
    pub fn mask(&self, round: u64) -> Cow<'_, FreezeMask> {
        match self.held(round) {
            Some(mask) => Cow::Borrowed(mask),
            None => Cow::Owned(self.build_mask(round)),
        }
    }

    /// [`ApfManager::mask`] as an owned value (a copy of the resident mask).
    pub fn frozen_mask_packed(&self, round: u64) -> FreezeMask {
        self.mask(round).into_owned()
    }

    /// Number of scalars frozen during `round`.
    pub fn frozen_count(&self, round: u64) -> usize {
        self.mask(round).frozen_count()
    }

    /// Pins frozen scalars back to their last synchronized values
    /// (Alg. 1 line 2, the rollback emulation of per-scalar freezing).
    ///
    /// Call after every local training iteration of round `round`.
    ///
    /// # Panics
    /// Panics if `params.len()` differs from the managed scalar count.
    pub fn rollback(&self, params: &mut [f32], round: u64) {
        assert_eq!(params.len(), self.n, "parameter length mismatch");
        apf_tensor::mask_fill(params, &self.pinned, self.mask(round).words());
    }

    /// Packs the unfrozen scalars of `params` into a compact upload tensor
    /// (Alg. 1 line 4, `masked_select`): a run-wise gather over the packed
    /// mask, no per-scalar branch.
    ///
    /// # Panics
    /// Panics if `params.len()` differs from the managed scalar count.
    pub fn select_unfrozen(&self, params: &[f32], round: u64) -> Vec<f32> {
        assert_eq!(params.len(), self.n, "parameter length mismatch");
        let mask = self.mask(round);
        let mut out = Vec::with_capacity(mask.unfrozen_count());
        apf_tensor::mask_select(params, mask.words(), &mut out);
        out
    }

    /// Scatters the aggregated compact tensor back into the unfrozen slots
    /// (Alg. 1 line 6, `masked_fill`) and re-pins the now-consistent model.
    ///
    /// # Panics
    /// Panics if `agg` does not have exactly one value per unfrozen scalar.
    pub fn apply_aggregate(&mut self, params: &mut [f32], agg: &[f32], round: u64) {
        assert_eq!(params.len(), self.n, "parameter length mismatch");
        let _sp = span!(Level::Debug, target: "apf.manager", "apply_aggregate", round = round);
        let mask = self.mask(round);
        let unfrozen = mask.unfrozen_count();
        assert!(
            agg.len() == unfrozen,
            "aggregate {} than unfrozen count: {} values for {unfrozen} unfrozen scalars",
            if agg.len() < unfrozen {
                "shorter"
            } else {
                "longer"
            },
            agg.len()
        );
        apf_tensor::mask_scatter(params, agg, mask.words());
        // Frozen scalars must still hold their pinned value.
        apf_tensor::mask_fill(params, &self.pinned, mask.words());
        self.pinned.copy_from_slice(params);
    }

    /// [`ApfManager::apply_aggregate`] for a *full-length* aggregate vector
    /// whose unfrozen slots hold the aggregated values (frozen slots are
    /// ignored) — the simulator's sparse-aggregation path, which never
    /// materializes compact per-client uploads.
    ///
    /// # Panics
    /// Panics if either length differs from the managed scalar count.
    pub fn apply_aggregate_dense(&mut self, params: &mut [f32], agg: &[f32], round: u64) {
        assert_eq!(params.len(), self.n, "parameter length mismatch");
        assert_eq!(agg.len(), self.n, "aggregate length mismatch");
        let _sp = span!(Level::Debug, target: "apf.manager", "apply_aggregate", round = round);
        let mask = self.mask(round);
        apf_tensor::mask_copy(params, agg, mask.words());
        apf_tensor::mask_fill(params, &self.pinned, mask.words());
        self.pinned.copy_from_slice(params);
    }

    /// Ends round `round`: runs the stability check when due, applies the
    /// variant's random freezing, and returns the round's statistics.
    ///
    /// Must be called after [`ApfManager::apply_aggregate`] with the
    /// synchronized parameters.
    ///
    /// # Panics
    /// Panics if `params.len()` differs from the managed scalar count.
    pub fn finish_round(&mut self, params: &[f32], round: u64) -> SyncReport {
        assert_eq!(params.len(), self.n, "parameter length mismatch");
        let sp = span!(Level::Debug, target: "apf.manager", "finish_round", round = round);
        // The round's mask moves out while the freezing decisions change
        // under it; the next round's moves in at the end.
        let mask_now = match self.resident.take() {
            Some((r, mask)) if r == round => mask,
            _ => self.build_mask(round),
        };
        let frozen_now = mask_now.frozen_count();
        let unfrozen_now = self.n - frozen_now;
        let checked = (round + 1).is_multiple_of(u64::from(self.cfg.check_every_rounds));
        let after_check = checked.then(|| self.stability_check(params, round, &mask_now));
        let refroze = self.random_freeze(round);
        let mask_next = match after_check {
            Some(mask) if !refroze => mask,
            _ => self.build_mask(round + 1),
        };
        self.resident = Some((round + 1, mask_next));
        let wire_bytes =
            crate::mask::masked_transfer_bytes(self.n, unfrozen_now, self.cfg.bytes_per_scalar);
        let report = SyncReport {
            round,
            total: self.n,
            frozen: frozen_now,
            bytes_up: wire_bytes,
            bytes_down: wire_bytes,
            checked,
            threshold: self.threshold,
        };
        // The spans time the paper's Table-4 cost; what follows is the
        // observer's own.
        drop(sp);
        if checked {
            self.emit_check_telemetry(round);
        }
        self.emit_round_telemetry(&report, &mask_now);
        report
    }

    /// Per-round trace output: one round-level event plus, when a layout is
    /// registered, one frozen-ratio event per layer over `mask`, the
    /// reported round's. Costs a relaxed atomic load when tracing is below
    /// `Debug`.
    fn emit_round_telemetry(&self, report: &SyncReport, mask: &FreezeMask) {
        if !apf_trace::enabled(Level::Debug) {
            return;
        }
        event!(Level::Debug, target: "apf.manager", "round",
            round = report.round,
            total = report.total,
            frozen = report.frozen,
            frozen_ratio = report.frozen_ratio(),
            bytes_up = report.bytes_up,
            bytes_down = report.bytes_down,
            checked = report.checked,
            threshold = report.threshold,
        );
        apf_trace::metrics::counter("apf.bytes_up").add(report.bytes_up);
        apf_trace::metrics::counter("apf.bytes_down").add(report.bytes_down);
        if self.layout.is_empty() {
            return;
        }
        let lens = self.layout.iter().map(|(_, len)| *len);
        for ((name, _), (range, frozen)) in self.layout.iter().zip(mask.frozen_by_segment(lens)) {
            if range.is_empty() {
                break;
            }
            event!(Level::Debug, target: "apf.manager", "layer_freeze",
                round = report.round,
                layer = name.as_str(),
                offset = range.start,
                len = range.len(),
                frozen = frozen,
                frozen_ratio = frozen as f32 / range.len() as f32,
            );
        }
    }

    /// One-call round synchronization for single-process use: rollback,
    /// select, aggregate (via the supplied closure, which receives the
    /// compact upload and returns the aggregated compact download), scatter,
    /// and finish.
    pub fn sync<F>(&mut self, params: &mut [f32], round: u64, aggregate: F) -> SyncReport
    where
        F: FnOnce(&[f32]) -> Vec<f32>,
    {
        self.rollback(params, round);
        let upload = self.select_unfrozen(params, round);
        let download = aggregate(&upload);
        self.apply_aggregate(params, &download, round);
        self.finish_round(params, round)
    }

    /// Alg. 1 `StabilityCheck`, with the refinement that only scalars that
    /// actually trained since the previous check feed the EMA (frozen
    /// scalars produce zero deltas that would spuriously look "stable").
    /// `mask` is round `round`'s; returns the mask of `round + 1` that the
    /// new freezing periods imply.
    ///
    /// One sweep over `mask`'s words. Per-scalar freezing makes nearly every
    /// word mixed, so a word's Eq. 17 and verdicts are computed for all its
    /// lanes with no mask in the arithmetic (which vectorizes) into stack
    /// arrays, and only the lanes that trained are committed, bit by bit.
    /// The word's `round + 1` bits are packed from the `unfreeze_round`
    /// entries while they are at hand — what [`ApfManager::build_mask`]
    /// would derive from scratch, and counted as the round's mask build.
    fn stability_check(&mut self, params: &[f32], round: u64, mask: &FreezeMask) -> FreezeMask {
        let _sp = span!(Level::Debug, target: "apf.manager", "stability_check", round = round);
        assert_eq!(mask.len(), self.n, "mask length mismatch");
        self.checks_run += 1;
        apf_trace::metrics::counter("apf.manager.mask_builds").inc();
        let next_round = round + 1;
        let threshold = self.threshold;
        let (alpha, e, a) = self.ema.begin_update();
        let mut next_words = Vec::with_capacity(mask.words().len());
        for (w, &word) in mask.words().iter().enumerate() {
            let span = w * 64..(w * 64 + 64).min(self.n);
            let (now, reference) = (&params[span.clone()], &mut self.check_ref[span.clone()]);
            let (e, a) = (&mut e[span.clone()], &mut a[span.clone()]);
            let lens = &mut self.freeze_len[span.clone()];
            let until = &mut self.unfreeze_round[span];
            // A scalar trained this round iff the mask left it unfrozen.
            let trained = !word & low_mask(now.len());
            if trained != 0 {
                let (mut e_new, mut a_new) = ([0.0f32; 64], [0.0f32; 64]);
                let mut is_stable = [false; 64];
                for b in 0..now.len() {
                    let (en, an) = EmaPerturbation::step(alpha, e[b], a[b], now[b] - reference[b]);
                    (e_new[b], a_new[b]) = (en, an);
                    is_stable[b] = EmaPerturbation::ratio(en, an) < threshold;
                }
                let mut stable = 0u64;
                for_each_set_bit(trained, |b| {
                    (e[b], a[b]) = (e_new[b], a_new[b]);
                    stable |= u64::from(is_stable[b]) << b;
                });
                self.controller.step_word(lens, trained, stable);
                for_each_set_bit(trained, |b| until[b] = next_round + u64::from(lens[b]));
            }
            reference.copy_from_slice(now);
            let mut next = 0u64;
            for (b, &u) in until.iter().enumerate() {
                next |= u64::from(next_round < u) << b;
            }
            next_words.push(next);
        }
        let mask_next = FreezeMask::from_words(next_words, self.n);
        if let Some(decay) = self.cfg.threshold_decay {
            let frozen_next = mask_next.frozen_count();
            if frozen_next as f32 >= decay.trigger_fraction * self.n as f32 && self.n > 0 {
                self.threshold *= decay.factor;
                event!(Level::Debug, target: "apf.manager", "threshold_decay",
                    round = round, threshold = self.threshold);
            }
        }
        mask_next
    }

    /// Distribution telemetry at each stability check: freezing-period and
    /// effective-perturbation histograms (metrics registry) plus a summary
    /// event. Costs a relaxed atomic load when tracing is below `Debug`.
    fn emit_check_telemetry(&self, round: u64) {
        if !apf_trace::enabled(Level::Debug) {
            return;
        }
        let periods = apf_trace::metrics::histogram(
            "apf.freeze_period_rounds",
            &[0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0],
        );
        for &len in &self.freeze_len {
            periods.record(f64::from(len));
        }
        let perturb = apf_trace::metrics::histogram(
            "apf.effective_perturbation",
            &[1e-4, 1e-3, 1e-2, 0.05, 0.1, 0.2, 0.5, 1.0],
        );
        let mut sum = 0.0f64;
        let mut max = 0.0f32;
        let values = self.ema.values();
        for &p in &values {
            perturb.record(f64::from(p));
            sum += f64::from(p);
            max = max.max(p);
        }
        let mean = if values.is_empty() {
            0.0
        } else {
            sum / values.len() as f64
        };
        event!(Level::Debug, target: "apf.manager", "stability_check",
            round = round,
            checks_run = self.checks_run,
            threshold = self.threshold,
            perturbation_mean = mean,
            perturbation_max = max,
        );
    }

    /// Snapshots the manager's state for checkpointing.
    pub fn snapshot(&self) -> ApfState {
        let (e, a, updates) = self.ema.raw();
        ApfState {
            cfg: self.cfg,
            ema_e: e.to_vec(),
            ema_a: a.to_vec(),
            ema_updates: updates,
            freeze_len: self.freeze_len.clone(),
            unfreeze_round: self.unfreeze_round.clone(),
            pinned: self.pinned.clone(),
            check_ref: self.check_ref.clone(),
            threshold: self.threshold,
            checks_run: self.checks_run,
        }
    }

    /// Restores a manager from a snapshot plus a (matching) controller.
    /// Layouts are not part of the snapshot: register them again. Neither
    /// is the round: the restored manager holds no mask until
    /// [`ApfManager::hold_round`] names the round it resumes at.
    pub fn restore(state: ApfState, controller: Box<dyn FreezeController>) -> ApfManager {
        let n = state.pinned.len();
        ApfManager {
            controller,
            n,
            ema: EmaPerturbation::from_raw(
                state.cfg.ema_alpha,
                state.ema_e,
                state.ema_a,
                state.ema_updates,
            ),
            freeze_len: state.freeze_len,
            unfreeze_round: state.unfreeze_round,
            pinned: state.pinned,
            check_ref: state.check_ref,
            threshold: state.threshold,
            checks_run: state.checks_run,
            cfg: state.cfg,
            layout: Vec::new(),
            resident: None,
        }
    }

    /// APF# / APF++ random freezing (§5): each scalar unfrozen at round
    /// `round + 1` is frozen with the variant's probability for a variant-
    /// drawn length. Draws are keyed on `(seed, round, j)` so they are
    /// order-independent and identical on every client. Returns whether it
    /// froze anything (it only ever adds frozen scalars to round
    /// `round + 1`, so a mask built before it is then stale).
    fn random_freeze(&mut self, round: u64) -> bool {
        let prob = self.cfg.variant.freeze_prob(round);
        if prob <= 0.0 {
            return false;
        }
        let mut froze = false;
        let max_len = u64::from(self.cfg.variant.max_freeze_len(round).max(1));
        let base = derive_seed(self.cfg.seed, round);
        for j in 0..self.n {
            if round + 1 < self.unfreeze_round[j] {
                continue; // already frozen beyond next round
            }
            let h = splitmix64(base ^ (j as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let u = (h >> 11) as f64 / (1u64 << 53) as f64;
            if u < prob {
                let h2 = splitmix64(h ^ 0xABCD_EF01_2345_6789);
                let len = 1 + h2 % max_len; // uniform in [1, max_len]
                self.unfreeze_round[j] = round + 1 + len;
                froze = true;
            }
        }
        froze
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ApfVariant, ThresholdDecay};
    use crate::controller::{Aimd, FixedPeriod, PureAdditive, PureMultiplicative};
    use apf_testkit::{prop_assert, prop_assert_eq, property, u64s, TestCaseError};

    fn cfg_every(check_every_rounds: u32) -> ApfConfig {
        ApfConfig {
            check_every_rounds,
            ..ApfConfig::default()
        }
    }

    /// Drives a manager through rounds where each scalar follows a scripted
    /// per-round update, mimicking single-client training.
    fn drive(
        mgr: &mut ApfManager,
        params: &mut [f32],
        rounds: std::ops::Range<u64>,
        update: impl Fn(u64, usize) -> f32,
    ) -> Vec<SyncReport> {
        let mut reports = Vec::new();
        for r in rounds {
            // Local training: apply the scripted update, then rollback.
            for (j, p) in params.iter_mut().enumerate() {
                *p += update(r, j);
            }
            let report = mgr.sync(params, r, |up| up.to_vec());
            reports.push(report);
        }
        reports
    }

    #[test]
    fn oscillating_scalars_get_frozen() {
        let mut params = vec![0.0f32; 4];
        let mut mgr = ApfManager::new(
            &params,
            ApfConfig {
                check_every_rounds: 1,
                threshold_decay: None,
                ..ApfConfig::default()
            },
            Box::new(Aimd::default()),
        )
        .unwrap();
        // Scalars 0,1 oscillate; scalars 2,3 drift steadily.
        let reports = drive(&mut mgr, &mut params, 0..40, |r, j| {
            if j < 2 {
                if r % 2 == 0 {
                    0.1
                } else {
                    -0.1
                }
            } else {
                0.1
            }
        });
        let last = reports.last().unwrap();
        assert_eq!(last.total, 4);
        // The two oscillators should be frozen by the end.
        assert!(last.frozen >= 2, "frozen {}", last.frozen);
        // Drifting scalars must never freeze under Standard APF (query the
        // upcoming round 40, whose mask the round-39 check just set), while
        // the oscillators accumulated growing freezing periods.
        assert!(!mgr.is_frozen(2, 40));
        assert!(!mgr.is_frozen(3, 40));
        assert!(mgr.freezing_periods()[0] >= 2);
        assert!(mgr.freezing_periods()[1] >= 2);
        assert_eq!(mgr.freezing_periods()[2], 0);
        assert_eq!(mgr.freezing_periods()[3], 0);
    }

    #[test]
    fn frozen_scalars_are_rolled_back_and_excluded() {
        let init = vec![1.0f32, 2.0];
        let mut mgr = ApfManager::new(
            &init,
            ApfConfig {
                check_every_rounds: 1,
                threshold_decay: None,
                ..ApfConfig::default()
            },
            Box::new(Aimd::default()),
        )
        .unwrap();
        let mut params = init.clone();
        // Oscillate scalar 0 until it becomes frozen for the *next* round.
        let mut r = 0u64;
        loop {
            assert!(r < 100, "oscillator never froze");
            if !mgr.is_frozen(0, r) {
                params[0] += if r.is_multiple_of(2) { 0.5 } else { -0.5 };
            }
            params[1] += 0.3;
            mgr.sync(&mut params, r, |up| up.to_vec());
            r += 1;
            if mgr.is_frozen(0, r) {
                break;
            }
        }
        // Scalar 0 is frozen during round r: it keeps its pinned value and
        // the upload shrinks to scalar 1 alone.
        let pinned = params[0];
        params[0] += 99.0; // local drift that must be rolled back
        params[1] += 0.3;
        let rep = mgr.sync(&mut params, r, |up| up.to_vec());
        assert_eq!(params[0], pinned, "frozen scalar not rolled back");
        assert_eq!(rep.frozen, 1);
        // One f32 plus the 1-byte freeze bitmap over 2 scalars.
        assert_eq!(rep.bytes_up, 4 + 1, "only one f32 + bitmap should go up");
    }

    #[test]
    fn reports_account_bytes_both_directions() {
        let params = vec![0.0f32; 10];
        let mut mgr = ApfManager::new(&params, cfg_every(5), Box::new(Aimd::default())).unwrap();
        let mut p = params.clone();
        let rep = mgr.sync(&mut p, 0, |up| up.to_vec());
        // 10 f32 values + the 2-byte bitmap over 10 scalars, each direction.
        assert_eq!(rep.bytes_up, 40 + 2);
        assert_eq!(rep.bytes_down, 40 + 2);
        assert_eq!(rep.frozen_ratio(), 0.0);
    }

    #[test]
    fn aimd_period_grows_with_sustained_stability() {
        let mut params = vec![0.0f32; 1];
        let mut mgr = ApfManager::new(
            &params,
            ApfConfig {
                check_every_rounds: 1,
                threshold_decay: None,
                ..ApfConfig::default()
            },
            Box::new(Aimd::default()),
        )
        .unwrap();
        let mut periods = Vec::new();
        for r in 0..200u64 {
            // Pure oscillation while unfrozen.
            if !mgr.is_frozen(0, r) {
                params[0] += if r % 2 == 0 { 0.2 } else { -0.2 };
            }
            mgr.sync(&mut params, r, |up| up.to_vec());
            periods.push(mgr.freezing_periods()[0]);
        }
        let max_period = *periods.iter().max().unwrap();
        assert!(
            max_period >= 3,
            "period should grow additively, got {max_period}"
        );
    }

    #[test]
    fn drifting_after_freeze_halves_period() {
        // Script: stable for a while, then persistent drift. The freezing
        // period must collapse multiplicatively.
        let mut params = vec![0.0f32; 1];
        let mut mgr = ApfManager::new(
            &params,
            ApfConfig {
                check_every_rounds: 1,
                threshold_decay: None,
                ..ApfConfig::default()
            },
            Box::new(Aimd::default()),
        )
        .unwrap();
        let mut grew_to = 0;
        for r in 0..60u64 {
            if !mgr.is_frozen(0, r) {
                params[0] += if r % 2 == 0 { 0.2 } else { -0.2 };
            }
            mgr.sync(&mut params, r, |up| up.to_vec());
            grew_to = grew_to.max(mgr.freezing_periods()[0]);
        }
        assert!(grew_to >= 2);
        // Now drift hard whenever unfrozen.
        for r in 60..200u64 {
            if !mgr.is_frozen(0, r) {
                params[0] += 1.0;
            }
            mgr.sync(&mut params, r, |up| up.to_vec());
        }
        assert_eq!(
            mgr.freezing_periods()[0],
            0,
            "sustained drift must collapse the period to zero"
        );
        assert!(!mgr.is_frozen(0, 200));
    }

    #[test]
    fn threshold_decays_when_most_params_frozen() {
        let n = 10;
        let mut params = vec![0.0f32; n];
        let mut mgr = ApfManager::new(
            &params,
            ApfConfig {
                check_every_rounds: 1,
                ..ApfConfig::default()
            },
            Box::new(Aimd {
                increment: 50,
                decrease_factor: 2,
            }),
        )
        .unwrap();
        let t0 = mgr.threshold();
        // Everything oscillates -> everything freezes -> threshold halves.
        for r in 0..20u64 {
            for (j, p) in params.iter_mut().enumerate() {
                if !mgr.is_frozen(j, r) {
                    *p += if r % 2 == 0 { 0.1 } else { -0.1 };
                }
            }
            mgr.sync(&mut params, r, |up| up.to_vec());
        }
        assert!(
            mgr.threshold() < t0,
            "threshold {} should have decayed",
            mgr.threshold()
        );
    }

    #[test]
    fn apf_sharp_freezes_some_unstable_params() {
        let n = 400;
        let mut params = vec![0.0f32; n];
        let cfg = ApfConfig {
            check_every_rounds: 1,
            variant: ApfVariant::Sharp { prob: 0.5 },
            threshold_decay: None,
            ..ApfConfig::default()
        };
        let mut mgr = ApfManager::new(&params, cfg, Box::new(Aimd::default())).unwrap();
        // All scalars drift (never naturally stable).
        for (j, p) in params.iter_mut().enumerate() {
            *p += 0.1 + j as f32 * 1e-4;
        }
        mgr.sync(&mut params, 0, |up| up.to_vec());
        // After round 0's random freezing, roughly half must be frozen for round 1.
        let frozen = mgr.frozen_count(1);
        assert!(
            (100..300).contains(&frozen),
            "APF# should freeze ~50% (got {frozen}/{n})"
        );
        // And they thaw after one round (length exactly 1).
        assert_eq!(mgr.frozen_count(2), 0);
    }

    #[test]
    fn apf_plusplus_probability_grows_with_rounds() {
        let n = 500;
        let cfg = ApfConfig {
            check_every_rounds: 1_000_000, // disable stability checks
            variant: ApfVariant::PlusPlus {
                a1: 1.0 / 100.0,
                a2: 0.0,
            },
            threshold_decay: None,
            ..ApfConfig::default()
        };
        let params = vec![0.0f32; n];
        let mut mgr = ApfManager::new(&params, cfg, Box::new(Aimd::default())).unwrap();
        let mut p = params.clone();
        // Early round: low probability.
        mgr.sync(&mut p, 5, |up| up.to_vec());
        let early = mgr.frozen_count(6);
        // Late round: ~50% probability at K=50.
        let mut mgr2 = ApfManager::new(&params, cfg, Box::new(Aimd::default())).unwrap();
        let mut p2 = params.clone();
        mgr2.sync(&mut p2, 50, |up| up.to_vec());
        let late = mgr2.frozen_count(51);
        assert!(late > early + 50, "late {late} vs early {early}");
    }

    #[test]
    fn masks_identical_across_clients() {
        // Two managers fed the same synchronized values step in lockstep.
        let n = 64;
        let cfg = ApfConfig {
            check_every_rounds: 2,
            variant: ApfVariant::Sharp { prob: 0.3 },
            ..ApfConfig::default()
        };
        let init = vec![0.0f32; n];
        let mut a = ApfManager::new(&init, cfg, Box::new(Aimd::default())).unwrap();
        let mut b = ApfManager::new(&init, cfg, Box::new(Aimd::default())).unwrap();
        let mut pa = init.clone();
        let mut pb = init.clone();
        for r in 0..30u64 {
            for j in 0..n {
                // Different *local* trajectories...
                let da = if (r + j as u64).is_multiple_of(2) {
                    0.1
                } else {
                    -0.1
                };
                let db = if (r + j as u64).is_multiple_of(2) {
                    0.12
                } else {
                    -0.12
                };
                if !a.is_frozen(j, r) {
                    pa[j] += da;
                    pb[j] += db;
                }
            }
            // ...but a shared aggregate (mean), as in real FL.
            a.rollback(&mut pa, r);
            b.rollback(&mut pb, r);
            let ua = a.select_unfrozen(&pa, r);
            let ub = b.select_unfrozen(&pb, r);
            assert_eq!(ua.len(), ub.len(), "round {r}: upload sizes diverged");
            let agg: Vec<f32> = ua.iter().zip(&ub).map(|(x, y)| (x + y) / 2.0).collect();
            a.apply_aggregate(&mut pa, &agg, r);
            b.apply_aggregate(&mut pb, &agg, r);
            let ra = a.finish_round(&pa, r);
            let rb = b.finish_round(&pb, r);
            assert_eq!(ra, rb, "round {r}: reports diverged");
            assert_eq!(
                a.frozen_mask_packed(r + 1),
                b.frozen_mask_packed(r + 1),
                "round {r}: masks diverged"
            );
            assert_eq!(pa, pb, "round {r}: models diverged");
        }
    }

    #[test]
    fn apply_aggregate_restores_frozen_to_pinned() {
        let init = vec![5.0f32, 7.0];
        let mut mgr = ApfManager::new(&init, cfg_every(1), Box::new(Aimd::default())).unwrap();
        // Manually freeze scalar 1 by oscillating it.
        let mut params = init.clone();
        for r in 0..20u64 {
            if !mgr.is_frozen(1, r) {
                params[1] += if r % 2 == 0 { 0.1 } else { -0.1 };
            }
            params[0] += 0.2;
            mgr.sync(&mut params, r, |up| up.to_vec());
        }
        assert!(mgr.is_frozen(1, 20), "oscillator should be frozen by now");
        let pinned = params[1];
        // Corrupt the frozen slot, then apply an aggregate: it must be restored.
        params[1] = -999.0;
        let up = mgr.select_unfrozen(&params, 20);
        mgr.apply_aggregate(&mut params, &up, 20);
        assert_eq!(params[1], pinned);
    }

    #[test]
    #[should_panic(expected = "aggregate shorter")]
    fn short_aggregate_panics() {
        let init = vec![0.0f32; 3];
        let mut mgr =
            ApfManager::new(&init, ApfConfig::default(), Box::new(Aimd::default())).unwrap();
        let mut p = init.clone();
        mgr.apply_aggregate(&mut p, &[1.0], 0);
    }

    #[test]
    #[should_panic(expected = "aggregate longer than unfrozen count: 4 values for 3")]
    fn long_aggregate_panics() {
        let init = vec![0.0f32; 3];
        let mut mgr =
            ApfManager::new(&init, ApfConfig::default(), Box::new(Aimd::default())).unwrap();
        let mut p = init.clone();
        mgr.apply_aggregate(&mut p, &[1.0; 4], 0);
    }

    #[test]
    fn invalid_config_is_a_typed_error() {
        let err = ApfManager::new(
            &[0.0],
            ApfConfig {
                check_every_rounds: 0,
                ..ApfConfig::default()
            },
            Box::new(Aimd::default()),
        )
        .unwrap_err();
        assert!(matches!(err, ApfError::InvalidConfig(_)));
        assert!(err.to_string().contains("check_every_rounds"));
    }

    #[test]
    fn check_cadence_respected() {
        let init = vec![0.0f32; 2];
        let mut mgr = ApfManager::new(&init, cfg_every(5), Box::new(Aimd::default())).unwrap();
        let mut p = init.clone();
        let mut checks = Vec::new();
        for r in 0..10u64 {
            let rep = mgr.sync(&mut p, r, |up| up.to_vec());
            checks.push(rep.checked);
        }
        assert_eq!(
            checks,
            vec![false, false, false, false, true, false, false, false, false, true]
        );
        assert_eq!(mgr.checks_run(), 2);
    }

    impl ApfManager {
        /// The `stability_check` the word sweep replaced, kept as its
        /// oracle: four passes (Eq. 17 over the trained scalars, the
        /// controller scalar by scalar through `next_len`, the reference
        /// copy, a from-scratch build of the next mask).
        fn stability_check_oracle(
            &mut self,
            params: &[f32],
            round: u64,
            mask: &FreezeMask,
        ) -> FreezeMask {
            self.checks_run += 1;
            self.ema.update_unfrozen(params, &self.check_ref, mask);
            for j in (0..self.n).filter(|&j| !mask.is_frozen(j)) {
                let stable = self.ema.value(j) < self.threshold;
                self.freeze_len[j] = self.controller.next_len(self.freeze_len[j], stable);
                self.unfreeze_round[j] = round + 1 + u64::from(self.freeze_len[j]);
            }
            self.check_ref.copy_from_slice(params);
            let mask_next = self.build_mask(round + 1);
            if let Some(decay) = self.cfg.threshold_decay {
                let frozen_next = mask_next.frozen_count();
                if frozen_next as f32 >= decay.trigger_fraction * self.n as f32 && self.n > 0 {
                    self.threshold *= decay.factor;
                }
            }
            mask_next
        }

        /// [`ApfManager::finish_round`]'s freezing decisions with the
        /// oracle in the sweep's place.
        fn finish_round_oracle(&mut self, params: &[f32], round: u64) {
            let mask_now = self.frozen_mask_packed(round);
            let checked = (round + 1).is_multiple_of(u64::from(self.cfg.check_every_rounds));
            let after_check =
                checked.then(|| self.stability_check_oracle(params, round, &mask_now));
            let refroze = self.random_freeze(round);
            let mask_next = match after_check {
                Some(mask) if !refroze => mask,
                _ => self.build_mask(round + 1),
            };
            self.resident = Some((round + 1, mask_next));
        }
    }

    fn controllers() -> [fn() -> Box<dyn FreezeController>; 4] {
        [
            || Box::new(Aimd::default()),
            || Box::new(PureAdditive::default()),
            || Box::new(PureMultiplicative::default()),
            || Box::new(FixedPeriod { len: 3 }),
        ]
    }

    /// One manager on the sweep and one on the oracle through `rounds`
    /// rounds of one seeded update stream (a third of the scalars oscillate
    /// and stabilise, the rest drift), every piece of state compared bit
    /// for bit after each round. Returns the largest frozen count seen.
    fn sweep_vs_oracle(
        n: usize,
        cfg: ApfConfig,
        controller: fn() -> Box<dyn FreezeController>,
        rounds: u64,
    ) -> Result<usize, TestCaseError> {
        let init = vec![0.0f32; n];
        let mut sweep = ApfManager::new(&init, cfg, controller()).unwrap();
        let mut oracle = ApfManager::new(&init, cfg, controller()).unwrap();
        let mut params = init;
        let mut max_frozen = 0;
        for round in 0..rounds {
            let mask = sweep.frozen_mask_packed(round);
            max_frozen = max_frozen.max(mask.frozen_count());
            for (j, p) in params.iter_mut().enumerate() {
                if mask.is_frozen(j) {
                    continue;
                }
                let h = splitmix64(cfg.seed ^ (round * 1009 + j as u64));
                let step = 0.05 + (h % 100) as f32 * 1e-3;
                *p += match (j % 3, round % 2) {
                    (0, 0) => step,
                    (0, _) => -step,
                    _ => 0.1,
                };
            }
            sweep.finish_round(&params, round);
            oracle.finish_round_oracle(&params, round);
            let at = format!("n={n} {cfg:?} {} round {round}", sweep.controller.name());
            let (got, want) = (sweep.snapshot(), oracle.snapshot());
            // The first index where two vectors differ, not 199 434 values.
            let same = |what: &str, differ: Option<usize>| match differ {
                Some(j) => Err(TestCaseError::Fail(format!(
                    "{what} differs at scalar {j}, {at}"
                ))),
                None => Ok(()),
            };
            let floats = |x: &[f32], y: &[f32]| (0..n).find(|&j| x[j].to_bits() != y[j].to_bits());
            same("E", floats(&got.ema_e, &want.ema_e))?;
            same("A", floats(&got.ema_a, &want.ema_a))?;
            same("check_ref", floats(&got.check_ref, &want.check_ref))?;
            same(
                "freeze_len",
                (0..n).find(|&j| got.freeze_len[j] != want.freeze_len[j]),
            )?;
            same(
                "unfreeze_round",
                (0..n).find(|&j| got.unfreeze_round[j] != want.unfreeze_round[j]),
            )?;
            prop_assert_eq!(got.ema_updates, want.ema_updates, "EMA updates, {at}");
            prop_assert_eq!(
                got.threshold.to_bits(),
                want.threshold.to_bits(),
                "threshold, {at}"
            );
            prop_assert_eq!(got.checks_run, want.checks_run, "checks_run, {at}");
            prop_assert!(
                sweep.held(round + 1).is_some() && sweep.held(round + 1) == oracle.held(round + 1),
                "resident mask of round {}, {at}",
                round + 1
            );
        }
        Ok(max_frozen)
    }

    fn sweep_grid(seed: u64) -> Vec<ApfConfig> {
        let variants = [
            ApfVariant::Standard,
            ApfVariant::Sharp { prob: 0.3 },
            ApfVariant::PlusPlus {
                a1: 1.0 / 40.0,
                a2: 1.0 / 4.0,
            },
        ];
        let mut grid = Vec::new();
        for variant in variants {
            for check_every_rounds in [1, 3] {
                for threshold_decay in [None, Some(ThresholdDecay::default())] {
                    grid.push(ApfConfig {
                        stability_threshold: 0.3,
                        ema_alpha: 0.9,
                        check_every_rounds,
                        threshold_decay,
                        variant,
                        seed,
                        ..ApfConfig::default()
                    });
                }
            }
        }
        grid
    }

    property! {
        // The word sweep is the four-pass check, bit for bit, across the
        // variants, both cadences, decay on and off and
        // the four controllers (so `step_word` is `next_len` per lane), at
        // lengths on either side of a mask word.
        fn stability_sweep_matches_the_four_pass_oracle(seed in u64s(0..1_000_000)) {
            let (mut combos, mut froze) = (0, 0);
            for cfg in sweep_grid(seed) {
                for controller in controllers() {
                    for n in [1usize, 63, 64, 65] {
                        combos += 1;
                        froze += usize::from(sweep_vs_oracle(n, cfg, controller, 18)? > 0);
                    }
                }
            }
            // Not vacuous: masks have to be in play.
            prop_assert!(froze * 2 > combos, "only {froze}/{combos} runs froze anything");
        }
    }

    #[test]
    fn stability_sweep_matches_the_oracle_at_the_benchmark_length() {
        // 199 434 scalars (the benchmark's MLP): 3 116 full words and a
        // 42-lane tail, long enough for every word to end up mixed.
        let grid = sweep_grid(7);
        let picks = [0, 1, 6, 11];
        for (&pick, controller) in picks.iter().zip(controllers()) {
            let frozen = sweep_vs_oracle(199_434, grid[pick], controller, 7).unwrap();
            assert!(frozen > 199_434 / 10, "config {pick}: only {frozen} frozen");
        }
    }
}
