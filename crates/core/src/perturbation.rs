//! Effective perturbation: the paper's parameter-stability metric.
//!
//! For a scalar parameter with recent updates `u_{k-S+1} .. u_k`, the
//! effective perturbation (Eq. 2) is
//! `P_k = |Σ u_i| / Σ |u_i|` — 1.0 when updates all point the same way,
//! near 0 when consecutive updates cancel (pure oscillation around an
//! optimum). [`WindowedPerturbation`] implements the literal sliding-window
//! definition used by the §3 motivation study; [`EmaPerturbation`] implements
//! the memory-efficient exponential-moving-average form (Eq. 17) that the
//! production `APF_Manager` uses.

use crate::mask::FreezeMask;

/// Sliding-window effective perturbation (Eq. 1–2).
///
/// Stores the last `window` update vectors; memory is `window * n` scalars,
/// which is why the paper replaces it with the EMA form on edge devices.
#[derive(Debug, Clone)]
pub struct WindowedPerturbation {
    window: usize,
    n: usize,
    buf: Vec<Vec<f32>>,
    next: usize,
    filled: usize,
}

impl WindowedPerturbation {
    /// Creates a tracker for `n` scalars over a `window`-update window.
    ///
    /// # Panics
    /// Panics if `window` is zero.
    pub fn new(n: usize, window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        WindowedPerturbation {
            window,
            n,
            buf: Vec::new(),
            next: 0,
            filled: 0,
        }
    }

    /// Number of tracked scalars.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether no updates have been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.filled == 0
    }

    /// Records one update vector `u_k = x_k - x_{k-1}`.
    ///
    /// # Panics
    /// Panics if `update.len() != n`.
    pub fn push_update(&mut self, update: &[f32]) {
        assert_eq!(update.len(), self.n, "update length mismatch");
        if self.buf.len() < self.window {
            self.buf.push(update.to_vec());
        } else {
            self.buf[self.next].copy_from_slice(update);
        }
        self.next = (self.next + 1) % self.window;
        self.filled = (self.filled + 1).min(self.window);
    }

    /// Per-scalar effective perturbation over the current window.
    ///
    /// Scalars with zero total movement (denominator 0) report 0.0: a
    /// parameter that never moves is maximally stable. With no recorded
    /// updates every scalar reports 1.0 (assume unstable until observed).
    pub fn values(&self) -> Vec<f32> {
        if self.filled == 0 {
            return vec![1.0; self.n];
        }
        let mut num = vec![0.0f32; self.n];
        let mut den = vec![0.0f32; self.n];
        for upd in self.buf.iter().take(self.filled) {
            for j in 0..self.n {
                num[j] += upd[j];
                den[j] += upd[j].abs();
            }
        }
        num.iter()
            .zip(&den)
            .map(|(&s, &a)| {
                if a == 0.0 {
                    0.0
                } else {
                    (s.abs() / a).min(1.0)
                }
            })
            .collect()
    }

    /// Mean effective perturbation across all scalars (the Fig. 2 curve).
    pub fn mean(&self) -> f32 {
        let v = self.values();
        v.iter().sum::<f32>() / v.len().max(1) as f32
    }
}

/// EMA effective perturbation (Eq. 17):
/// `E_K = α E_{K-1} + (1-α) Δ_K`, `A_K = α A_{K-1} + (1-α) |Δ_K|`,
/// `P_K = |E_K| / A_K`.
#[derive(Debug, Clone)]
pub struct EmaPerturbation {
    alpha: f32,
    e: Vec<f32>,
    a: Vec<f32>,
    updates: u64,
}

impl EmaPerturbation {
    /// Creates an EMA tracker for `n` scalars with smoothing factor `alpha`
    /// (the paper uses 0.99).
    ///
    /// # Panics
    /// Panics unless `0.0 <= alpha < 1.0`.
    pub fn new(n: usize, alpha: f32) -> Self {
        assert!((0.0..1.0).contains(&alpha), "alpha must be in [0, 1)");
        EmaPerturbation {
            alpha,
            e: vec![0.0; n],
            a: vec![0.0; n],
            updates: 0,
        }
    }

    /// Number of tracked scalars.
    pub fn len(&self) -> usize {
        self.e.len()
    }

    /// Whether no deltas have been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.updates == 0
    }

    /// Eq. 17 for one scalar: `(E, A)` after the cumulative update `delta`.
    #[inline]
    pub(crate) fn step(alpha: f32, e: f32, a: f32, delta: f32) -> (f32, f32) {
        (
            alpha * e + (1.0 - alpha) * delta,
            alpha * a + (1.0 - alpha) * delta.abs(),
        )
    }

    /// `P = |E| / A` of a scalar that has been observed: 0.0 when it never
    /// moved (indistinguishable from converged), capped at 1.0.
    #[inline]
    pub(crate) fn ratio(e: f32, a: f32) -> f32 {
        if a == 0.0 {
            0.0
        } else {
            (e.abs() / a).min(1.0)
        }
    }

    /// Eq. 17 for scalar `j` with cumulative update `delta`.
    #[inline]
    fn record(&mut self, j: usize, delta: f32) {
        (self.e[j], self.a[j]) = Self::step(self.alpha, self.e[j], self.a[j], delta);
    }

    /// `(α, E, A)` for a caller that applies [`EmaPerturbation::step`] inside
    /// a sweep of its own (`ApfManager::stability_check`); counts as one
    /// update, like [`EmaPerturbation::update_unfrozen`].
    pub(crate) fn begin_update(&mut self) -> (f32, &mut [f32], &mut [f32]) {
        self.updates += 1;
        (self.alpha, &mut self.e, &mut self.a)
    }

    /// Records the cumulative update `Δ_K = params − reference` since the
    /// previous stability check, but only for the scalars `mask` leaves
    /// unfrozen, walked run by run (frozen scalars accumulate no genuine
    /// updates and must not dilute their history — §6.1's
    /// once-for-multiple-rounds checking applies to *trained* parameters).
    ///
    /// # Panics
    /// Panics on length mismatches.
    pub fn update_unfrozen(&mut self, params: &[f32], reference: &[f32], mask: &FreezeMask) {
        assert_eq!(params.len(), self.e.len(), "parameter length mismatch");
        assert_eq!(reference.len(), self.e.len(), "reference length mismatch");
        assert_eq!(mask.len(), self.e.len(), "mask length mismatch");
        for j in mask.iter_unfrozen_runs().flatten() {
            self.record(j, params[j] - reference[j]);
        }
        self.updates += 1;
    }

    /// Records `Δ_K` for every scalar.
    ///
    /// # Panics
    /// Panics if `delta.len()` differs from the tracked scalar count.
    pub fn update(&mut self, delta: &[f32]) {
        assert_eq!(delta.len(), self.e.len(), "delta length mismatch");
        for (j, &d) in delta.iter().enumerate() {
            self.record(j, d);
        }
        self.updates += 1;
    }

    /// The effective perturbation of scalar `j`.
    ///
    /// Returns 1.0 before any update has been recorded for the scalar
    /// (unobserved ⇒ assumed unstable); 0.0 if the scalar has history but
    /// zero accumulated movement.
    pub fn value(&self, j: usize) -> f32 {
        if self.updates == 0 && self.a[j] == 0.0 {
            1.0
        } else {
            // A scalar never genuinely updated (E and A both zero from
            // masking) reads like one that never moved: maximally stable.
            Self::ratio(self.e[j], self.a[j])
        }
    }

    /// Per-scalar effective perturbations.
    pub fn values(&self) -> Vec<f32> {
        (0..self.e.len()).map(|j| self.value(j)).collect()
    }

    /// Mean effective perturbation.
    pub fn mean(&self) -> f32 {
        if self.e.is_empty() {
            return 0.0;
        }
        self.values().iter().sum::<f32>() / self.e.len() as f32
    }

    /// Raw state `(E, A, update count)` for checkpointing.
    pub fn raw(&self) -> (&[f32], &[f32], u64) {
        (&self.e, &self.a, self.updates)
    }

    /// Rebuilds a tracker from raw checkpoint state.
    ///
    /// # Panics
    /// Panics if `e` and `a` lengths differ or `alpha` is invalid.
    pub fn from_raw(alpha: f32, e: Vec<f32>, a: Vec<f32>, updates: u64) -> Self {
        assert!((0.0..1.0).contains(&alpha), "alpha must be in [0, 1)");
        assert_eq!(e.len(), a.len(), "E/A length mismatch");
        EmaPerturbation {
            alpha,
            e,
            a,
            updates,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windowed_monotone_updates_give_one() {
        let mut w = WindowedPerturbation::new(2, 4);
        for _ in 0..4 {
            w.push_update(&[0.1, -0.2]);
        }
        let v = w.values();
        assert!((v[0] - 1.0).abs() < 1e-6);
        assert!((v[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn windowed_perfect_oscillation_gives_zero() {
        let mut w = WindowedPerturbation::new(1, 4);
        for i in 0..4 {
            w.push_update(&[if i % 2 == 0 { 0.5 } else { -0.5 }]);
        }
        assert!(w.values()[0] < 1e-6);
    }

    #[test]
    fn windowed_window_slides() {
        let mut w = WindowedPerturbation::new(1, 2);
        w.push_update(&[1.0]);
        w.push_update(&[-1.0]);
        assert!(w.values()[0] < 1e-6);
        // Two more same-direction updates push the oscillation out.
        w.push_update(&[1.0]);
        w.push_update(&[1.0]);
        assert!((w.values()[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn windowed_empty_reports_unstable() {
        let w = WindowedPerturbation::new(3, 5);
        assert_eq!(w.values(), vec![1.0, 1.0, 1.0]);
        assert!(w.is_empty());
    }

    #[test]
    fn windowed_zero_movement_is_stable() {
        let mut w = WindowedPerturbation::new(1, 3);
        w.push_update(&[0.0]);
        w.push_update(&[0.0]);
        assert_eq!(w.values()[0], 0.0);
    }

    #[test]
    fn ema_matches_windowed_qualitatively() {
        // Oscillating scalar -> near 0; drifting scalar -> near 1.
        let mut ema = EmaPerturbation::new(2, 0.9);
        for i in 0..200 {
            let osc = if i % 2 == 0 { 0.3 } else { -0.3 };
            ema.update(&[osc, 0.05]);
        }
        assert!(ema.value(0) < 0.1, "oscillating {}", ema.value(0));
        assert!(ema.value(1) > 0.9, "drifting {}", ema.value(1));
    }

    #[test]
    fn ema_first_update_is_one() {
        let mut ema = EmaPerturbation::new(1, 0.99);
        assert_eq!(ema.value(0), 1.0);
        ema.update(&[0.7]);
        assert!((ema.value(0) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn ema_masked_scalars_keep_state() {
        let mut ema = EmaPerturbation::new(2, 0.5);
        ema.update(&[1.0, 1.0]);
        let before = ema.value(1);
        // Update only scalar 0 for a while with oscillation.
        let mask = FreezeMask::from_fn(2, |j| j == 1);
        for i in 0..10 {
            let v = if i % 2 == 0 { 1.0 } else { -1.0 };
            ema.update_unfrozen(&[v, 123.0], &[0.0, 0.0], &mask);
        }
        assert!(ema.value(0) < 0.5);
        assert_eq!(ema.value(1), before, "masked scalar state must not change");
    }

    /// The per-element loop `update_unfrozen` replaced, over a dense delta
    /// and a `true` = trained flag per scalar.
    fn update_masked_oracle(ema: &mut EmaPerturbation, delta: &[f32], mask: &[bool]) {
        for j in 0..delta.len() {
            if mask[j] {
                ema.e[j] = ema.alpha * ema.e[j] + (1.0 - ema.alpha) * delta[j];
                ema.a[j] = ema.alpha * ema.a[j] + (1.0 - ema.alpha) * delta[j].abs();
            }
        }
        ema.updates += 1;
    }

    #[test]
    fn update_unfrozen_matches_the_per_element_loop_bitwise() {
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        let mut rng = apf_tensor::seeded_rng(0xE17);
        for n in [1usize, 64, 150, 257] {
            for frozen_pct in [0u32, 35, 90, 100] {
                let mut new = EmaPerturbation::new(n, 0.99);
                let mut old = new.clone();
                let mut reference = vec![0.0f32; n];
                for step in 0..6 {
                    let params: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
                    let frozen: Vec<bool> = (0..n)
                        .map(|_| rng.gen_range(0u32..100) < frozen_pct)
                        .collect();
                    let mask = FreezeMask::from_fn(n, |j| frozen[j]);
                    new.update_unfrozen(&params, &reference, &mask);
                    // What `stability_check` used to build: a dense delta,
                    // zero where frozen, and the trained flags.
                    let trained: Vec<bool> = frozen.iter().map(|&f| !f).collect();
                    let delta: Vec<f32> = (0..n)
                        .map(|j| {
                            if trained[j] {
                                params[j] - reference[j]
                            } else {
                                0.0
                            }
                        })
                        .collect();
                    update_masked_oracle(&mut old, &delta, &trained);
                    let (e, a, updates) = new.raw();
                    let (oe, oa, oupdates) = old.raw();
                    let case = format!("n={n} frozen={frozen_pct}% step={step}");
                    assert_eq!(bits(e), bits(oe), "E, {case}");
                    assert_eq!(bits(a), bits(oa), "A, {case}");
                    assert_eq!(updates, oupdates, "{case}");
                    reference = params;
                }
            }
        }
    }

    #[test]
    fn ema_values_bounded() {
        let mut ema = EmaPerturbation::new(3, 0.8);
        for i in 0..50 {
            ema.update(&[(i as f32).sin(), 1.0, -2.0]);
        }
        for v in ema.values() {
            assert!((0.0..=1.0).contains(&v), "value {v} out of range");
        }
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn ema_rejects_bad_alpha() {
        let _ = EmaPerturbation::new(1, 1.0);
    }
}
