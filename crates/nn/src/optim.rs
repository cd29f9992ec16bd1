//! Optimizers operating on flat parameter/gradient vectors, plus
//! learning-rate schedules.
//!
//! The vectors are a model's own arenas ([`crate::Sequential`] stores its
//! parameters and gradients as two flat `Vec<f32>`s), so a training step
//! updates the model in place, with no copy in or out.
//!
//! The paper's setup (§7.1): Adam for LeNet-5, SGD for ResNet-18 and LSTM,
//! with weight decay 0.01; §7.8 additionally evaluates a multiplicative
//! learning-rate decay.
//!
//! Optimizer steps are elementwise over the flat vector, so large models
//! update in parallel chunks over the `apf-par` pool; every scalar's update
//! uses only its own index, making results bitwise identical at any
//! `APF_PAR_THREADS`.
//!
//! Frozen scalars are skipped at *run* granularity: the bit-packed
//! [`FreezeMask`] is walked word-at-a-time, so an all-frozen 64-bit word
//! costs one compare and unfrozen stretches run dense inner loops. The
//! per-scalar arithmetic is that of a dense loop that tests every scalar's
//! bit, so the two are bitwise identical; that loop is kept as the test
//! oracle.

use apf::FreezeMask;

/// Minimum scalars before an optimizer step is dispatched to the pool.
const PAR_STEP_MIN: usize = 1 << 15;

/// One chunk of a plain (no-momentum) SGD step over the global scalar range
/// `off..off + p.len()`.
fn sgd_chunk_plain(lr: f32, wd: f32, p: &mut [f32], g: &[f32], frozen: &FreezeMask, off: usize) {
    frozen.for_each_unfrozen_run_in(off, off + p.len(), |s, e| {
        for i in s - off..e - off {
            p[i] -= lr * (g[i] + wd * p[i]);
        }
    });
}

/// One chunk of a momentum SGD step over the global range `off..`.
#[allow(clippy::too_many_arguments)]
fn sgd_chunk_momentum(
    lr: f32,
    momentum: f32,
    wd: f32,
    p: &mut [f32],
    v: &mut [f32],
    g: &[f32],
    frozen: &FreezeMask,
    off: usize,
) {
    frozen.for_each_unfrozen_run_in(off, off + p.len(), |s, e| {
        for i in s - off..e - off {
            let grad = g[i] + wd * p[i];
            let vel = momentum * v[i] + grad;
            v[i] = vel;
            p[i] -= lr * vel;
        }
    });
}

/// One chunk of an Adam step (`b1t`/`b2t` are the bias corrections) over the
/// global range `off..`.
#[allow(clippy::too_many_arguments)]
fn adam_chunk(
    lr: f32,
    betas: (f32, f32),
    eps: f32,
    wd: f32,
    corr: (f32, f32),
    p: &mut [f32],
    m: &mut [f32],
    v: &mut [f32],
    g: &[f32],
    frozen: &FreezeMask,
    off: usize,
) {
    let (beta1, beta2) = betas;
    let (b1t, b2t) = corr;
    frozen.for_each_unfrozen_run_in(off, off + p.len(), |s, e| {
        for i in s - off..e - off {
            let grad = g[i] + wd * p[i];
            m[i] = beta1 * m[i] + (1.0 - beta1) * grad;
            v[i] = beta2 * v[i] + (1.0 - beta2) * grad * grad;
            let mhat = m[i] / b1t;
            let vhat = v[i] / b2t;
            p[i] -= lr * mhat / (vhat.sqrt() + eps);
        }
    });
}

/// A learning-rate schedule mapping a step index to a learning rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LrSchedule {
    /// The same rate forever.
    Constant(f32),
    /// `initial * factor^(step / every)`: multiply by `factor` once every
    /// `every` steps (the paper's "multiply by 0.99 every 10 epochs").
    Multiplicative {
        /// Rate at step 0.
        initial: f32,
        /// Per-interval multiplier (e.g. 0.99).
        factor: f32,
        /// Interval length in steps.
        every: usize,
    },
    /// `initial / sqrt(1 + step)`: the `O(1/sqrt(T))` choice that satisfies
    /// the convergence condition of Theorem 2 (Eq. 16).
    InverseSqrt {
        /// Rate at step 0.
        initial: f32,
    },
}

impl LrSchedule {
    /// The learning rate at `step` (0-based).
    pub fn lr_at(&self, step: usize) -> f32 {
        match *self {
            LrSchedule::Constant(lr) => lr,
            LrSchedule::Multiplicative {
                initial,
                factor,
                every,
            } => initial * factor.powi((step / every.max(1)) as i32),
            LrSchedule::InverseSqrt { initial } => initial / (1.0 + step as f32).sqrt(),
        }
    }
}

/// An optimizer updating a flat parameter vector in place.
///
/// `frozen` marks scalars optimizers must *not* touch — buffer scalars
/// (batch-norm running statistics) and anything else the caller wants
/// skipped entirely: no update, no weight decay, no momentum/moment state
/// change (see [`crate::FlatSpec::freeze_mask`]).
pub trait Optimizer: Send {
    /// Applies one update step.
    ///
    /// # Panics
    /// Implementations panic if `params`, `grads` and `frozen` lengths
    /// disagree.
    fn step(&mut self, params: &mut [f32], grads: &[f32], frozen: &FreezeMask);

    /// Overrides the current learning rate (used by schedules).
    fn set_lr(&mut self, lr: f32);

    /// The current learning rate.
    fn lr(&self) -> f32;

    /// Clears momentum/moment state (used when a client is reinitialized).
    fn reset_state(&mut self);

    /// Serializes the optimizer's mutable state (momentum/moments/step
    /// counters) into a flat `f32` vector, for suspending a client to
    /// compact dormant storage. Stateless optimizers return an empty
    /// vector. Counters are stored as raw bit patterns, so the round-trip
    /// through [`Optimizer::import_state`] is exact.
    fn export_state(&self) -> Vec<f32> {
        Vec::new()
    }

    /// Restores state captured by [`Optimizer::export_state`]. Passing an
    /// empty slice resets to the fresh state.
    ///
    /// # Panics
    /// Implementations panic when `state` has an incompatible layout.
    fn import_state(&mut self, state: &[f32]) {
        assert!(
            state.is_empty(),
            "this optimizer carries no importable state"
        );
        self.reset_state();
    }
}

/// Stochastic gradient descent with classical momentum and decoupled-style
/// L2 weight decay (`grad + wd * param`).
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    weight_decay: f32,
    velocity: Vec<f32>,
}

impl Sgd {
    /// Creates plain SGD (no momentum, no decay).
    pub fn new(lr: f32) -> Self {
        Sgd {
            lr,
            momentum: 0.0,
            weight_decay: 0.0,
            velocity: Vec::new(),
        }
    }

    /// Adds classical momentum.
    pub fn with_momentum(mut self, momentum: f32) -> Self {
        self.momentum = momentum;
        self
    }

    /// Adds L2 weight decay.
    pub fn with_weight_decay(mut self, wd: f32) -> Self {
        self.weight_decay = wd;
        self
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut [f32], grads: &[f32], frozen: &FreezeMask) {
        assert_eq!(params.len(), grads.len(), "param/grad length mismatch");
        assert_eq!(params.len(), frozen.len(), "param/mask length mismatch");
        if self.momentum != 0.0 && self.velocity.len() != params.len() {
            self.velocity = vec![0.0; params.len()];
        }
        let (lr, momentum, wd) = (self.lr, self.momentum, self.weight_decay);
        let serial = apf_par::threads() <= 1 || params.len() < PAR_STEP_MIN;
        if momentum != 0.0 {
            if serial {
                sgd_chunk_momentum(
                    lr,
                    momentum,
                    wd,
                    params,
                    &mut self.velocity,
                    grads,
                    frozen,
                    0,
                );
                return;
            }
            let chunk = apf_par::chunk_len(params.len());
            apf_par::scope(|s| {
                for (ci, ((p, v), g)) in params
                    .chunks_mut(chunk)
                    .zip(self.velocity.chunks_mut(chunk))
                    .zip(grads.chunks(chunk))
                    .enumerate()
                {
                    let off = ci * chunk;
                    s.spawn(move || sgd_chunk_momentum(lr, momentum, wd, p, v, g, frozen, off));
                }
            });
        } else if serial {
            sgd_chunk_plain(lr, wd, params, grads, frozen, 0);
        } else {
            let chunk = apf_par::chunk_len(params.len());
            apf_par::scope(|s| {
                for (ci, (p, g)) in params
                    .chunks_mut(chunk)
                    .zip(grads.chunks(chunk))
                    .enumerate()
                {
                    let off = ci * chunk;
                    s.spawn(move || sgd_chunk_plain(lr, wd, p, g, frozen, off));
                }
            });
        }
    }

    fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn lr(&self) -> f32 {
        self.lr
    }

    fn reset_state(&mut self) {
        self.velocity.clear();
    }

    fn export_state(&self) -> Vec<f32> {
        self.velocity.clone()
    }

    fn import_state(&mut self, state: &[f32]) {
        self.velocity.clear();
        self.velocity.extend_from_slice(state);
    }
}

/// Adam (Kingma & Ba) with L2 weight decay folded into the gradient,
/// matching PyTorch's `torch.optim.Adam(weight_decay=...)` semantics used by
/// the paper for LeNet-5.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    t: u64,
    m: Vec<f32>,
    v: Vec<f32>,
}

impl Adam {
    /// Creates Adam with the standard betas `(0.9, 0.999)` and `eps = 1e-8`.
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Adds L2 weight decay.
    pub fn with_weight_decay(mut self, wd: f32) -> Self {
        self.weight_decay = wd;
        self
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut [f32], grads: &[f32], frozen: &FreezeMask) {
        assert_eq!(params.len(), grads.len(), "param/grad length mismatch");
        assert_eq!(params.len(), frozen.len(), "param/mask length mismatch");
        if self.m.len() != params.len() {
            self.m = vec![0.0; params.len()];
            self.v = vec![0.0; params.len()];
            self.t = 0;
        }
        self.t += 1;
        let corr = (
            1.0 - self.beta1.powi(self.t as i32),
            1.0 - self.beta2.powi(self.t as i32),
        );
        let (lr, betas, eps, wd) = (
            self.lr,
            (self.beta1, self.beta2),
            self.eps,
            self.weight_decay,
        );
        if apf_par::threads() <= 1 || params.len() < PAR_STEP_MIN {
            adam_chunk(
                lr,
                betas,
                eps,
                wd,
                corr,
                params,
                &mut self.m,
                &mut self.v,
                grads,
                frozen,
                0,
            );
            return;
        }
        let chunk = apf_par::chunk_len(params.len());
        apf_par::scope(|s| {
            for (ci, (((p, m), v), g)) in params
                .chunks_mut(chunk)
                .zip(self.m.chunks_mut(chunk))
                .zip(self.v.chunks_mut(chunk))
                .zip(grads.chunks(chunk))
                .enumerate()
            {
                let off = ci * chunk;
                s.spawn(move || adam_chunk(lr, betas, eps, wd, corr, p, m, v, g, frozen, off));
            }
        });
    }

    fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn lr(&self) -> f32 {
        self.lr
    }

    fn reset_state(&mut self) {
        self.m.clear();
        self.v.clear();
        self.t = 0;
    }

    fn export_state(&self) -> Vec<f32> {
        if self.m.is_empty() {
            return Vec::new();
        }
        // Layout: [t_lo_bits, t_hi_bits, m..., v...] — the step counter is
        // carried as raw bit patterns, so the round-trip is exact.
        let mut out = Vec::with_capacity(2 + self.m.len() + self.v.len());
        out.push(f32::from_bits(self.t as u32));
        out.push(f32::from_bits((self.t >> 32) as u32));
        out.extend_from_slice(&self.m);
        out.extend_from_slice(&self.v);
        out
    }

    fn import_state(&mut self, state: &[f32]) {
        if state.is_empty() {
            self.reset_state();
            return;
        }
        assert!(
            state.len() >= 2 && (state.len() - 2).is_multiple_of(2),
            "malformed Adam state (len {})",
            state.len()
        );
        let n = (state.len() - 2) / 2;
        self.t = u64::from(state[0].to_bits()) | (u64::from(state[1].to_bits()) << 32);
        self.m.clear();
        self.m.extend_from_slice(&state[2..2 + n]);
        self.v.clear();
        self.v.extend_from_slice(&state[2 + n..]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn none_frozen(n: usize) -> FreezeMask {
        FreezeMask::all_unfrozen(n)
    }

    #[test]
    fn sgd_descends_quadratic() {
        // f(x) = x^2, grad = 2x.
        let mut x = vec![10.0f32];
        let mut opt = Sgd::new(0.1);
        for _ in 0..100 {
            let g = vec![2.0 * x[0]];
            opt.step(&mut x, &g, &none_frozen(1));
        }
        assert!(x[0].abs() < 1e-3, "x = {}", x[0]);
    }

    #[test]
    fn sgd_momentum_accelerates() {
        let run = |momentum: f32| {
            let mut x = vec![10.0f32];
            let mut opt = Sgd::new(0.01).with_momentum(momentum);
            for _ in 0..50 {
                let g = vec![2.0 * x[0]];
                opt.step(&mut x, &g, &none_frozen(1));
            }
            x[0]
        };
        assert!(run(0.9).abs() < run(0.0).abs());
    }

    #[test]
    fn weight_decay_shrinks_params_with_zero_grad() {
        let mut x = vec![1.0f32];
        let mut opt = Sgd::new(0.1).with_weight_decay(0.5);
        opt.step(&mut x, &[0.0], &none_frozen(1));
        assert!((x[0] - 0.95).abs() < 1e-6);
    }

    #[test]
    fn frozen_scalars_untouched() {
        let mut x = vec![1.0f32, 1.0];
        let g = vec![1.0f32, 1.0];
        let mask = FreezeMask::from_fn(2, |j| j == 1);
        let mut sgd = Sgd::new(0.1).with_weight_decay(0.1);
        sgd.step(&mut x, &g, &mask);
        assert_ne!(x[0], 1.0);
        assert_eq!(x[1], 1.0);
        let mut adam = Adam::new(0.1).with_weight_decay(0.1);
        let mut y = vec![1.0f32, 1.0];
        adam.step(&mut y, &g, &mask);
        assert_ne!(y[0], 1.0);
        assert_eq!(y[1], 1.0);
    }

    #[test]
    fn adam_descends_quadratic() {
        let mut x = vec![3.0f32];
        let mut opt = Adam::new(0.1);
        for _ in 0..300 {
            let g = vec![2.0 * x[0]];
            opt.step(&mut x, &g, &none_frozen(1));
        }
        assert!(x[0].abs() < 1e-2, "x = {}", x[0]);
    }

    #[test]
    fn adam_first_step_magnitude_is_lr() {
        // With bias correction, the first Adam step is ~lr regardless of
        // gradient magnitude.
        let mut x = vec![0.0f32];
        let mut opt = Adam::new(0.05);
        opt.step(&mut x, &[1e-4], &none_frozen(1));
        assert!((x[0].abs() - 0.05).abs() < 1e-3, "step {}", x[0]);
    }

    #[test]
    fn schedules() {
        let c = LrSchedule::Constant(0.1);
        assert_eq!(c.lr_at(0), 0.1);
        assert_eq!(c.lr_at(1000), 0.1);
        let m = LrSchedule::Multiplicative {
            initial: 1.0,
            factor: 0.5,
            every: 10,
        };
        assert_eq!(m.lr_at(0), 1.0);
        assert_eq!(m.lr_at(9), 1.0);
        assert_eq!(m.lr_at(10), 0.5);
        assert_eq!(m.lr_at(25), 0.25);
        let i = LrSchedule::InverseSqrt { initial: 1.0 };
        assert_eq!(i.lr_at(0), 1.0);
        assert!((i.lr_at(3) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn steps_bitwise_identical_across_thread_counts() {
        // Large enough to cross PAR_STEP_MIN so the pool path actually runs.
        let n = PAR_STEP_MIN + 100;
        let params: Vec<f32> = (0..n).map(|i| ((i as f32) * 0.013).sin()).collect();
        let grads: Vec<f32> = (0..n).map(|i| ((i as f32) * 0.031).cos()).collect();
        let mask = FreezeMask::from_fn(n, |i| i % 17 == 0);
        let run = |t: usize| {
            apf_par::with_threads(t, || {
                let mut sp = params.clone();
                let mut sgd = Sgd::new(0.05).with_momentum(0.9).with_weight_decay(0.01);
                sgd.step(&mut sp, &grads, &mask);
                sgd.step(&mut sp, &grads, &mask);
                let mut ap = params.clone();
                let mut adam = Adam::new(0.05).with_weight_decay(0.01);
                adam.step(&mut ap, &grads, &mask);
                adam.step(&mut ap, &grads, &mask);
                (sp, ap)
            })
        };
        let (sgd1, adam1) = run(1);
        for t in [2usize, 4, 7] {
            let (sgd_t, adam_t) = run(t);
            assert_eq!(sgd1, sgd_t, "sgd threads={t}");
            assert_eq!(adam1, adam_t, "adam threads={t}");
        }
    }

    // The per-scalar oracle: the same arithmetic as the chunk functions, one
    // mask test per scalar instead of a walk over unfrozen runs.
    fn sgd_chunk_plain_ref(
        lr: f32,
        wd: f32,
        p: &mut [f32],
        g: &[f32],
        frozen: &FreezeMask,
        off: usize,
    ) {
        for i in 0..p.len() {
            if frozen.is_frozen(off + i) {
                continue;
            }
            p[i] -= lr * (g[i] + wd * p[i]);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn sgd_chunk_momentum_ref(
        lr: f32,
        momentum: f32,
        wd: f32,
        p: &mut [f32],
        v: &mut [f32],
        g: &[f32],
        frozen: &FreezeMask,
        off: usize,
    ) {
        for i in 0..p.len() {
            if frozen.is_frozen(off + i) {
                continue;
            }
            let grad = g[i] + wd * p[i];
            let vel = momentum * v[i] + grad;
            v[i] = vel;
            p[i] -= lr * vel;
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn adam_chunk_ref(
        lr: f32,
        betas: (f32, f32),
        eps: f32,
        wd: f32,
        corr: (f32, f32),
        p: &mut [f32],
        m: &mut [f32],
        v: &mut [f32],
        g: &[f32],
        frozen: &FreezeMask,
        off: usize,
    ) {
        let (beta1, beta2) = betas;
        let (b1t, b2t) = corr;
        for i in 0..p.len() {
            if frozen.is_frozen(off + i) {
                continue;
            }
            let grad = g[i] + wd * p[i];
            m[i] = beta1 * m[i] + (1.0 - beta1) * grad;
            v[i] = beta2 * v[i] + (1.0 - beta2) * grad * grad;
            let mhat = m[i] / b1t;
            let vhat = v[i] / b2t;
            p[i] -= lr * mhat / (vhat.sqrt() + eps);
        }
    }

    #[test]
    fn run_skipping_matches_per_scalar_reference() {
        // Each 64-scalar mask word is all-frozen, all-unfrozen or mixed, in
        // three rotations, so every length (ragged tails included) meets every
        // word class; exact equality, from offset 0 and from a mid-word offset.
        let corr = (1.0 - 0.9f32, 1.0 - 0.999f32);
        for n in [1usize, 63, 64, 65, 300] {
            let params: Vec<f32> = (0..n).map(|i| ((i as f32) * 0.017).sin()).collect();
            let grads: Vec<f32> = (0..n).map(|i| ((i as f32) * 0.029).cos()).collect();
            let moments: Vec<f32> = (0..n).map(|i| ((i as f32) * 0.011).cos().abs()).collect();
            for shift in 0..3 {
                let mask = FreezeMask::from_fn(n, |i| match (i / 64 + shift) % 3 {
                    0 => true,
                    1 => false,
                    _ => i % 5 == 0 || i % 7 == 3,
                });
                for off in [0, n / 3] {
                    let ctx = format!("n={n} shift={shift} off={off}");
                    let g = &grads[off..];

                    let (mut fast, mut slow) = (params[off..].to_vec(), params[off..].to_vec());
                    sgd_chunk_plain(0.05, 0.01, &mut fast, g, &mask, off);
                    sgd_chunk_plain_ref(0.05, 0.01, &mut slow, g, &mask, off);
                    assert_eq!(fast, slow, "plain sgd {ctx}");

                    let (mut fast, mut slow) = (params[off..].to_vec(), params[off..].to_vec());
                    let (mut fv, mut sv) = (moments[off..].to_vec(), moments[off..].to_vec());
                    sgd_chunk_momentum(0.05, 0.9, 0.01, &mut fast, &mut fv, g, &mask, off);
                    sgd_chunk_momentum_ref(0.05, 0.9, 0.01, &mut slow, &mut sv, g, &mask, off);
                    assert_eq!(fast, slow, "momentum sgd params {ctx}");
                    assert_eq!(fv, sv, "momentum sgd velocity {ctx}");

                    let (mut fast, mut slow) = (params[off..].to_vec(), params[off..].to_vec());
                    let (mut fm, mut sm) = (moments[off..].to_vec(), moments[off..].to_vec());
                    let (mut fv, mut sv) = (moments[off..].to_vec(), moments[off..].to_vec());
                    let (lr, betas, eps, wd) = (0.05, (0.9, 0.999), 1e-8, 0.01);
                    adam_chunk(
                        lr, betas, eps, wd, corr, &mut fast, &mut fm, &mut fv, g, &mask, off,
                    );
                    adam_chunk_ref(
                        lr, betas, eps, wd, corr, &mut slow, &mut sm, &mut sv, g, &mask, off,
                    );
                    assert_eq!(fast, slow, "adam params {ctx}");
                    assert_eq!(fm, sm, "adam m {ctx}");
                    assert_eq!(fv, sv, "adam v {ctx}");
                }
            }
        }
    }

    #[test]
    fn exported_state_resumes_bitwise_identically() {
        let grads = [0.3f32, -0.7, 1.1, 0.05];
        let mask = none_frozen(4);
        // Run a reference optimizer straight through; run a second one that is
        // suspended/resumed mid-stream via export_state/import_state.
        for (mut reference, mut resumed) in [
            (
                Box::new(Sgd::new(0.1).with_momentum(0.9).with_weight_decay(1e-3))
                    as Box<dyn Optimizer>,
                Box::new(Sgd::new(0.1).with_momentum(0.9).with_weight_decay(1e-3))
                    as Box<dyn Optimizer>,
            ),
            (
                Box::new(Adam::new(0.05)) as Box<dyn Optimizer>,
                Box::new(Adam::new(0.05)) as Box<dyn Optimizer>,
            ),
        ] {
            let mut a = vec![1.0f32, -2.0, 0.5, 3.0];
            let mut b = a.clone();
            for _ in 0..3 {
                reference.step(&mut a, &grads, &mask);
                resumed.step(&mut b, &grads, &mask);
            }
            let blob = resumed.export_state();
            resumed.reset_state(); // clobber, then restore
            resumed.import_state(&blob);
            for _ in 0..3 {
                reference.step(&mut a, &grads, &mask);
                resumed.step(&mut b, &grads, &mask);
            }
            assert_eq!(a, b);
        }
    }

    #[test]
    fn empty_state_import_resets() {
        let mut opt = Adam::new(0.05);
        let mut x = vec![1.0f32, 2.0];
        opt.step(&mut x, &[0.5, 0.5], &none_frozen(2));
        assert!(!opt.export_state().is_empty());
        opt.import_state(&[]);
        assert!(opt.export_state().is_empty());
    }

    #[test]
    fn reset_state_clears_momentum() {
        let mut opt = Sgd::new(0.1).with_momentum(0.9);
        let mut x = vec![1.0f32];
        opt.step(&mut x, &[1.0], &none_frozen(1));
        opt.reset_state();
        let mut y = vec![1.0f32];
        let mut fresh = Sgd::new(0.1).with_momentum(0.9);
        fresh.step(&mut y, &[1.0], &none_frozen(1));
        let mut x2 = vec![1.0f32];
        opt.step(&mut x2, &[1.0], &none_frozen(1));
        assert_eq!(x2, y);
    }
}
