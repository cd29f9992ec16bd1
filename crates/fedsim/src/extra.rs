//! Additional baselines beyond the paper's main comparison set, implemented
//! from its related-work discussion:
//!
//! * [`TopK`] — magnitude top-k update sparsification with residual
//!   accumulation (Dryden et al., cited as [20] in §2.2);
//! * [`LayerFreeze`] — FreezeOut/AutoFreeze-style *whole-layer* freezing on
//!   a schedule (§8), the coarse-granularity approach whose deficiency
//!   motivates APF's per-scalar masks (§3.2.2);
//! * [`DpGaussian`] — a differential-privacy wrapper adding Gaussian noise
//!   to client uploads (§9 discusses DP's interaction with the effective-
//!   perturbation metric).

use apf_tensor::{derive_seed, seeded_rng};

use crate::strategy::{broadcast_touched, RoundComm, SyncStrategy};

/// Magnitude top-k sparsification with residual feedback: each round a
/// client uploads only its `k_fraction` largest-magnitude update components
/// (8 bytes each: index + value); the rest accumulate locally and are
/// retried next round.
#[derive(Debug)]
pub struct TopK {
    k_fraction: f32,
    last_global: Vec<f32>,
}

impl TopK {
    /// Creates the sparsifier keeping the given fraction of components
    /// (e.g. 0.1 keeps the top 10%).
    ///
    /// # Panics
    /// Panics unless `0 < k_fraction <= 1`.
    pub fn new(k_fraction: f32) -> Self {
        assert!(
            k_fraction > 0.0 && k_fraction <= 1.0,
            "k fraction must be in (0, 1]"
        );
        TopK {
            k_fraction,
            last_global: Vec::new(),
        }
    }
}

impl SyncStrategy for TopK {
    fn name(&self) -> String {
        format!("topk-{}", self.k_fraction)
    }

    fn init(&mut self, init_params: &[f32], _num_clients: usize) {
        self.last_global = init_params.to_vec();
    }

    fn sync_round(
        &mut self,
        _round: u64,
        locals: &mut [Vec<f32>],
        weights: &[f32],
        global: &mut Vec<f32>,
    ) -> RoundComm {
        let n = self.last_global.len();
        let k = ((n as f32 * self.k_fraction).ceil() as usize).clamp(1, n);
        let total_w: f32 = weights.iter().sum::<f32>().max(f32::EPSILON);
        let mut delta = vec![0.0f32; n];
        let mut touched = vec![false; n];
        let mut sent: Vec<Vec<bool>> = Vec::with_capacity(locals.len());
        let mut comm = RoundComm::default();
        for (l, &w) in locals.iter().zip(weights) {
            // Select the top-k |update| components of this client.
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by(|&a, &b| {
                let ua = (l[a] - self.last_global[a]).abs();
                let ub = (l[b] - self.last_global[b]).abs();
                ub.partial_cmp(&ua).unwrap_or(std::cmp::Ordering::Equal)
            });
            let mut s = vec![false; n];
            for &j in order.iter().take(k) {
                s[j] = true;
                if w > 0.0 {
                    delta[j] += w * (l[j] - self.last_global[j]);
                    touched[j] = true;
                }
            }
            let bytes = k as u64 * 8;
            comm.bytes_up += bytes;
            comm.max_client_up = comm.max_client_up.max(bytes);
            sent.push(s);
        }
        let down = broadcast_touched(
            &mut self.last_global,
            &delta,
            total_w,
            &touched,
            &sent,
            locals,
            global,
        );
        comm.bytes_down = down * locals.len() as u64;
        comm.max_client_down = down;
        comm.frozen_ratio = 1.0 - self.k_fraction;
        comm
    }
}

/// FreezeOut/AutoFreeze-style whole-layer freezing: layers are frozen
/// bottom-up on a fixed schedule, with no unfreezing. The paper's §3.2.2
/// argues this granularity is too coarse because scalars within one tensor
/// stabilize at very different times (Fig. 3) — this baseline lets the
/// harness demonstrate that.
pub struct LayerFreeze {
    /// `(offset, len)` of each layer in the flat vector, in freeze order
    /// (front layers first, as in FreezeOut).
    layers: Vec<(usize, usize)>,
    /// Freeze the next layer every this many rounds.
    freeze_every: u64,
    pinned: Vec<f32>,
    frozen_layers: usize,
}

impl std::fmt::Debug for LayerFreeze {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LayerFreeze")
            .field("layers", &self.layers.len())
            .field("frozen_layers", &self.frozen_layers)
            .finish()
    }
}

impl LayerFreeze {
    /// Creates the baseline from the model's flat layout (`(offset, len)`
    /// per tensor, e.g. from `apf_nn::FlatSpec::params`) and a freezing
    /// cadence in rounds.
    ///
    /// # Panics
    /// Panics if `layers` is empty or `freeze_every` is zero.
    pub fn new(layers: Vec<(usize, usize)>, freeze_every: u64) -> Self {
        assert!(!layers.is_empty(), "need at least one layer");
        assert!(freeze_every > 0, "freeze cadence must be positive");
        LayerFreeze {
            layers,
            freeze_every,
            pinned: Vec::new(),
            frozen_layers: 0,
        }
    }

    fn frozen_scalars(&self) -> usize {
        self.layers[..self.frozen_layers]
            .iter()
            .map(|&(_, len)| len)
            .sum()
    }

    fn is_frozen(&self, j: usize) -> bool {
        self.layers[..self.frozen_layers]
            .iter()
            .any(|&(off, len)| (off..off + len).contains(&j))
    }
}

impl SyncStrategy for LayerFreeze {
    fn name(&self) -> String {
        "layer-freeze".to_owned()
    }

    fn init(&mut self, init_params: &[f32], _num_clients: usize) {
        self.pinned = init_params.to_vec();
        self.frozen_layers = 0;
    }

    fn sync_round(
        &mut self,
        round: u64,
        locals: &mut [Vec<f32>],
        weights: &[f32],
        global: &mut Vec<f32>,
    ) -> RoundComm {
        let n = self.pinned.len();
        // Advance the schedule: freeze one more layer every `freeze_every`
        // rounds (never freezing the final layer, as FreezeOut keeps the
        // head training).
        let due = (round / self.freeze_every) as usize;
        self.frozen_layers = due.min(self.layers.len().saturating_sub(1));
        // Pin frozen layers on every client, aggregate the rest.
        let total_w: f32 = weights.iter().sum::<f32>().max(f32::EPSILON);
        let mut mean = vec![0.0f32; n];
        for (l, &w) in locals.iter().zip(weights) {
            if w == 0.0 {
                continue;
            }
            for j in 0..n {
                mean[j] += w * l[j];
            }
        }
        for m in &mut mean {
            *m /= total_w;
        }
        for (j, m) in mean.iter_mut().enumerate() {
            if self.is_frozen(j) {
                *m = self.pinned[j];
            }
        }
        global.copy_from_slice(&mean);
        for l in locals.iter_mut() {
            l.copy_from_slice(&mean);
        }
        self.pinned.copy_from_slice(&mean);
        let frozen = self.frozen_scalars();
        let wire = (n - frozen) as u64 * 4;
        RoundComm {
            bytes_up: wire * locals.len() as u64,
            bytes_down: wire * locals.len() as u64,
            max_client_up: wire,
            max_client_down: wire,
            frozen_ratio: frozen as f32 / n.max(1) as f32,
        }
    }

    fn post_local_iteration(&self, _round: u64, _client: usize, params: &mut [f32]) {
        for &(off, len) in &self.layers[..self.frozen_layers] {
            params[off..off + len].copy_from_slice(&self.pinned[off..off + len]);
        }
    }
}

/// Differential-privacy wrapper: adds zero-mean Gaussian noise of the given
/// standard deviation to every scalar each client uploads, then delegates to
/// the inner strategy. §9 of the paper notes such noise *reduces* measured
/// effective perturbation (it oscillates around zero), so APF should use a
/// tighter stability threshold under DP — which this wrapper lets the
/// harness demonstrate.
pub struct DpGaussian<S> {
    inner: S,
    noise_std: f32,
    seed: u64,
}

impl<S: std::fmt::Debug> std::fmt::Debug for DpGaussian<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DpGaussian")
            .field("inner", &self.inner)
            .field("noise_std", &self.noise_std)
            .finish()
    }
}

impl<S: SyncStrategy> DpGaussian<S> {
    /// Wraps `inner`, perturbing uploads with `N(0, noise_std^2)` noise.
    ///
    /// # Panics
    /// Panics if `noise_std` is negative.
    pub fn new(inner: S, noise_std: f32, seed: u64) -> Self {
        assert!(noise_std >= 0.0, "noise std must be non-negative");
        DpGaussian {
            inner,
            noise_std,
            seed,
        }
    }

    /// The wrapped strategy.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: SyncStrategy> SyncStrategy for DpGaussian<S> {
    fn name(&self) -> String {
        format!("{}+dp", self.inner.name())
    }

    fn init(&mut self, init_params: &[f32], num_clients: usize) {
        self.inner.init(init_params, num_clients);
    }

    fn sync_round(
        &mut self,
        round: u64,
        locals: &mut [Vec<f32>],
        weights: &[f32],
        global: &mut Vec<f32>,
    ) -> RoundComm {
        for (i, l) in locals.iter_mut().enumerate() {
            let mut rng = seeded_rng(derive_seed(self.seed, round * 1000 + i as u64));
            // Drawn a chunk at a time: the same bits, in the same order, as
            // one `sample_normal` per scalar.
            let mut z = [0.0f32; 256];
            for chunk in l.chunks_mut(z.len()) {
                let z = &mut z[..chunk.len()];
                rng.fill_normal_f32(z);
                for (v, &z) in chunk.iter_mut().zip(z.iter()) {
                    *v += self.noise_std * z;
                }
            }
        }
        self.inner.sync_round(round, locals, weights, global)
    }

    fn post_local_iteration(&self, round: u64, client: usize, params: &mut [f32]) {
        self.inner.post_local_iteration(round, client, params);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::FullSync;

    #[test]
    fn topk_uploads_exactly_k() {
        let mut s = TopK::new(0.25);
        let init = vec![0.0f32; 8];
        s.init(&init, 2);
        let mut g = init.clone();
        let mut locals = vec![
            vec![5.0, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 4.0],
            vec![0.1, 6.0, 0.1, 0.1, 0.1, 0.1, 3.0, 0.1],
        ];
        let comm = s.sync_round(0, &mut locals, &[1.0, 1.0], &mut g);
        // 25% of 8 = 2 components per client, 8 bytes each.
        assert_eq!(comm.bytes_up, 2 * 2 * 8);
        // The large components moved the global; tiny ones did not.
        assert!(g[0] > 1.0);
        assert!(g[1] > 1.0);
        assert!(g[2] < 0.2);
    }

    #[test]
    fn topk_residuals_accumulate() {
        let mut s = TopK::new(0.5); // 1 of 2 scalars
        let init = vec![0.0f32; 2];
        s.init(&init, 1);
        let mut g = init.clone();
        // Scalar 0 always larger -> scalar 1's residual builds locally.
        let mut locals = vec![vec![1.0f32, 0.4]];
        s.sync_round(0, &mut locals, &[1.0], &mut g);
        assert_eq!(g[0], 1.0);
        assert_eq!(g[1], 0.0);
        assert!(
            (locals[0][1] - 0.4).abs() < 1e-6,
            "residual lost: {}",
            locals[0][1]
        );
        // Next round scalar 1 grows past scalar 0's fresh update.
        locals[0][1] += 0.8; // local now 1.2 vs global 0
        let _ = s.sync_round(1, &mut locals, &[1.0], &mut g);
        assert!(g[1] > 1.0, "accumulated residual finally shipped: {}", g[1]);
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn topk_rejects_zero_fraction() {
        let _ = TopK::new(0.0);
    }

    #[test]
    fn layer_freeze_advances_schedule_and_pins() {
        let layers = vec![(0usize, 2usize), (2, 2), (4, 2)];
        let mut s = LayerFreeze::new(layers, 2);
        let init = vec![1.0f32; 6];
        s.init(&init, 1);
        let mut g = init.clone();
        let mut locals = vec![vec![2.0f32; 6]];
        // Round 0-1: nothing frozen.
        let c0 = s.sync_round(0, &mut locals, &[1.0], &mut g);
        assert_eq!(c0.frozen_ratio, 0.0);
        assert_eq!(g, vec![2.0; 6]);
        // Round 2: first layer frozen; its scalars pinned to last value.
        locals[0] = vec![9.0; 6];
        let c2 = s.sync_round(2, &mut locals, &[1.0], &mut g);
        assert!((c2.frozen_ratio - 1.0 / 3.0).abs() < 1e-6);
        assert_eq!(&g[0..2], &[2.0, 2.0], "frozen layer must stay pinned");
        assert_eq!(&g[2..6], &[9.0, 9.0, 9.0, 9.0]);
        // Round 4: two layers frozen; the last layer never freezes.
        let c4 = s.sync_round(4, &mut locals, &[1.0], &mut g);
        assert!((c4.frozen_ratio - 2.0 / 3.0).abs() < 1e-6);
        let c99 = s.sync_round(99, &mut locals, &[1.0], &mut g);
        assert!(
            (c99.frozen_ratio - 2.0 / 3.0).abs() < 1e-6,
            "head layer froze"
        );
    }

    #[test]
    fn layer_freeze_hook_pins_during_local_training() {
        let mut s = LayerFreeze::new(vec![(0, 2), (2, 2)], 1);
        let init = vec![1.0f32; 4];
        s.init(&init, 1);
        let mut g = init.clone();
        let mut locals = vec![vec![1.0f32; 4]];
        s.sync_round(1, &mut locals, &[1.0], &mut g); // freezes layer 0
        let mut p = vec![7.0f32; 4];
        s.post_local_iteration(2, 0, &mut p);
        assert_eq!(&p[0..2], &[1.0, 1.0]);
        assert_eq!(&p[2..4], &[7.0, 7.0]);
    }

    #[test]
    fn dp_wrapper_perturbs_uploads_but_preserves_protocol() {
        let mut dp = DpGaussian::new(FullSync::new(), 0.1, 42);
        let init = vec![0.0f32; 64];
        dp.init(&init, 2);
        let mut g = init.clone();
        let mut locals = vec![vec![1.0f32; 64], vec![1.0f32; 64]];
        let comm = dp.sync_round(0, &mut locals, &[1.0, 1.0], &mut g);
        // Bytes identical to the inner strategy.
        assert_eq!(comm.bytes_up, 2 * 64 * 4);
        // Global is 1.0 + averaged noise: close to 1, not exactly 1.
        let mean = g.iter().sum::<f32>() / 64.0;
        assert!((mean - 1.0).abs() < 0.1);
        assert!(
            g.iter().any(|&v| (v - 1.0).abs() > 1e-4),
            "no noise was added"
        );
        assert_eq!(dp.name(), "fedavg+dp");
    }

    #[test]
    fn dp_noise_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut dp = DpGaussian::new(FullSync::new(), 0.1, seed);
            let init = vec![0.0f32; 8];
            dp.init(&init, 1);
            let mut g = init.clone();
            let mut locals = vec![vec![1.0f32; 8]];
            dp.sync_round(0, &mut locals, &[1.0], &mut g);
            g
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn dp_uploads_match_the_per_element_noise_loop() {
        // Two chunks and a ragged third. A lone client's full-sync mean is
        // its upload, so the global shows the perturbed upload bit for bit.
        let (n, seed, std) = (600, 9u64, 0.3f32);
        let mut dp = DpGaussian::new(FullSync::new(), std, seed);
        dp.init(&vec![0.0f32; n], 1);
        let mut global = vec![0.0f32; n];
        dp.sync_round(3, &mut [vec![1.0f32; n]], &[1.0], &mut global);
        let mut rng = seeded_rng(derive_seed(seed, 3 * 1000));
        let expect: Vec<f32> = (0..n)
            .map(|_| 1.0 + std * apf_tensor::sample_normal(&mut rng))
            .collect();
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        assert_eq!(bits(&global), bits(&expect));
    }
}
