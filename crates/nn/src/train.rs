//! Local training driver: one SGD/Adam step per batch, with optional FedProx
//! proximal term, plus evaluation helpers.

use apf::FreezeMask;
use apf_tensor::Tensor;
use apf_trace::{span, Level};

use crate::layer::Mode;
use crate::loss::{accuracy, softmax_cross_entropy};
use crate::optim::{LrSchedule, Optimizer};
use crate::sequential::Sequential;

/// Performs one training step on `model` with the given optimizer.
///
/// Returns the batch loss. `frozen` is the bit-packed per-scalar freeze mask
/// (see [`crate::FlatSpec::freeze_mask`]); `prox` optionally adds the
/// FedProx proximal gradient `mu * (x - anchor)` (Li et al., MLSys 2020,
/// used in §7.7 of the paper).
///
/// # Panics
/// Panics on shape mismatches between the model, mask and anchor.
pub fn train_batch(
    model: &mut Sequential,
    optimizer: &mut dyn Optimizer,
    x: &Tensor,
    labels: &[usize],
    frozen: &FreezeMask,
    prox: Option<(f32, &[f32])>,
) -> f32 {
    model.zero_grads();
    let logits = {
        let _s = span!(Level::Debug, target: "nn.train", "forward", batch = labels.len());
        model.forward(x.scratch_copy(), Mode::Train)
    };
    let (loss, grad) = softmax_cross_entropy(&logits, labels);
    logits.recycle();
    {
        let _s = span!(Level::Debug, target: "nn.train", "backward");
        model.backward_params(grad);
    }
    let _s = span!(Level::Debug, target: "nn.train", "optimizer");
    // The model's own arenas: the step updates the model in place.
    let (params, grads) = model.params_and_grads_mut();
    if let Some((mu, anchor)) = prox {
        assert_eq!(anchor.len(), params.len(), "prox anchor length mismatch");
        // Elementwise, so chunking over the pool cannot change any value;
        // the run iterator skips whole frozen words.
        let chunk = apf_par::chunk_len(grads.len());
        let params = &*params;
        apf_par::par_chunks_mut(grads, chunk, |ci, g| {
            let off = ci * chunk;
            frozen.for_each_unfrozen_run_in(off, off + g.len(), |s, e| {
                for i in s..e {
                    g[i - off] += mu * (params[i] - anchor[i]);
                }
            });
        });
    }
    optimizer.step(params, grads, frozen);
    loss
}

/// Evaluates classification accuracy over `(x, labels)` in mini-batches.
///
/// # Panics
/// Panics if `labels.len()` differs from the number of rows in `x` or if
/// `batch_size` is zero.
pub fn evaluate(model: &mut Sequential, x: &Tensor, labels: &[usize], batch_size: usize) -> f32 {
    assert!(batch_size > 0, "batch_size must be positive");
    let n = x.shape()[0];
    assert_eq!(labels.len(), n, "label count mismatch");
    if n == 0 {
        return 0.0;
    }
    let row: usize = x.shape()[1..].iter().product();
    let mut correct = 0usize;
    let mut start = 0;
    while start < n {
        let end = (start + batch_size).min(n);
        let mut shape = x.shape().to_vec();
        shape[0] = end - start;
        let batch = Tensor::scratch_from(&x.data()[start * row..end * row], &shape);
        let logits = model.forward(batch, Mode::Eval);
        correct += (accuracy(&logits, &labels[start..end]) * (end - start) as f32).round() as usize;
        logits.recycle();
        start = end;
    }
    correct as f32 / n as f32
}

/// Owns a model, optimizer and schedule, counting steps.
///
/// This is the unit a federated client wraps: it performs local iterations
/// and exposes the flat parameter vector for synchronization.
pub struct Trainer {
    model: Sequential,
    optimizer: Box<dyn Optimizer>,
    schedule: LrSchedule,
    frozen: FreezeMask,
    step: usize,
    prox: Option<(f32, Vec<f32>)>,
}

impl std::fmt::Debug for Trainer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Trainer")
            .field("model", &self.model)
            .field("step", &self.step)
            .finish()
    }
}

impl Trainer {
    /// Wraps a model with an optimizer and learning-rate schedule.
    pub fn new(mut model: Sequential, optimizer: Box<dyn Optimizer>, schedule: LrSchedule) -> Self {
        model.ensure_grads();
        let frozen = model.flat_spec().freeze_mask();
        Trainer {
            model,
            optimizer,
            schedule,
            frozen,
            step: 0,
            prox: None,
        }
    }

    /// The wrapped model.
    pub fn model(&self) -> &Sequential {
        &self.model
    }

    /// Mutable access to the wrapped model.
    pub fn model_mut(&mut self) -> &mut Sequential {
        &mut self.model
    }

    /// Number of completed training steps.
    pub fn step_count(&self) -> usize {
        self.step
    }

    /// Overwrites the step counter — used when a dormant client resumes, so
    /// the learning-rate schedule picks up exactly where it left off.
    pub fn set_step_count(&mut self, step: usize) {
        self.step = step;
    }

    /// Serialized optimizer state (see [`Optimizer::export_state`]).
    pub fn optimizer_state(&self) -> Vec<f32> {
        self.optimizer.export_state()
    }

    /// Restores optimizer state captured by [`Trainer::optimizer_state`].
    /// An empty slice resets the optimizer to its fresh state.
    ///
    /// # Panics
    /// Panics when `state` does not match the optimizer's layout.
    pub fn load_optimizer_state(&mut self, state: &[f32]) {
        self.optimizer.import_state(state);
    }

    /// The bit-packed per-scalar freeze mask the optimizer skips (buffer
    /// scalars such as batch-norm running statistics).
    pub fn freeze_mask(&self) -> &FreezeMask {
        &self.frozen
    }

    /// Enables the FedProx proximal term anchored at `anchor`.
    pub fn set_prox(&mut self, mu: f32, anchor: Vec<f32>) {
        self.prox = Some((mu, anchor));
    }

    /// Runs one training step; returns the batch loss.
    pub fn train_batch(&mut self, x: &Tensor, labels: &[usize]) -> f32 {
        let lr = self.schedule.lr_at(self.step);
        self.optimizer.set_lr(lr);
        let prox = self.prox.as_ref().map(|(mu, a)| (*mu, a.as_slice()));
        let loss = train_batch(
            &mut self.model,
            self.optimizer.as_mut(),
            x,
            labels,
            &self.frozen,
            prox,
        );
        self.step += 1;
        loss
    }

    /// Evaluates accuracy on `(x, labels)`.
    pub fn evaluate(&mut self, x: &Tensor, labels: &[usize], batch_size: usize) -> f32 {
        evaluate(&mut self.model, x, labels, batch_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Activation, Linear};
    use crate::optim::Sgd;
    use apf_tensor::{normal_init, seeded_rng};

    fn toy_problem(n: usize, seed: u64) -> (Tensor, Vec<usize>) {
        // Two Gaussian blobs in 2-D: class 0 around (-1,-1), class 1 around (1,1).
        let mut rng = seeded_rng(seed);
        let mut x = Vec::with_capacity(n * 2);
        let mut y = Vec::with_capacity(n);
        for i in 0..n {
            let c = i % 2;
            let center = if c == 0 { -1.0 } else { 1.0 };
            let noise = normal_init(&[2], 0.0, 0.3, &mut rng);
            x.push(center + noise.data()[0]);
            x.push(center + noise.data()[1]);
            y.push(c);
        }
        (Tensor::from_vec(x, &[n, 2]), y)
    }

    fn toy_model(seed: u64) -> Sequential {
        let mut rng = seeded_rng(seed);
        Sequential::new("toy")
            .push(Linear::new("fc1", 2, 8, &mut rng))
            .push(Activation::relu())
            .push(Linear::new("fc2", 8, 2, &mut rng))
    }

    #[test]
    fn training_learns_blobs() {
        let (x, y) = toy_problem(64, 0);
        let mut trainer = Trainer::new(
            toy_model(0),
            Box::new(Sgd::new(0.1).with_momentum(0.9)),
            LrSchedule::Constant(0.1),
        );
        let initial = trainer.evaluate(&x, &y, 16);
        let mut last_loss = f32::INFINITY;
        for _ in 0..100 {
            last_loss = trainer.train_batch(&x, &y);
        }
        let final_acc = trainer.evaluate(&x, &y, 16);
        assert!(final_acc > 0.95, "accuracy {final_acc} (initial {initial})");
        assert!(last_loss < 0.2, "loss {last_loss}");
        assert_eq!(trainer.step_count(), 100);
    }

    #[test]
    fn prox_term_pulls_toward_anchor() {
        let (x, y) = toy_problem(32, 1);
        // Strong proximal pull toward the initial parameters should keep the
        // model close to them even under training pressure.
        let mut free = Trainer::new(
            toy_model(2),
            Box::new(Sgd::new(0.05)),
            LrSchedule::Constant(0.05),
        );
        let mut proxed = Trainer::new(
            toy_model(2),
            Box::new(Sgd::new(0.05)),
            LrSchedule::Constant(0.05),
        );
        let anchor = proxed.model_mut().flat_params();
        // lr * mu = 0.5: a stable, strongly contracting proximal pull.
        proxed.set_prox(10.0, anchor.clone());
        for _ in 0..20 {
            free.train_batch(&x, &y);
            proxed.train_batch(&x, &y);
        }
        let drift = |t: &mut Trainer| -> f32 {
            t.model_mut()
                .flat_params()
                .iter()
                .zip(&anchor)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f32>()
                .sqrt()
        };
        let d_free = drift(&mut free);
        let d_prox = drift(&mut proxed);
        assert!(
            d_prox < d_free * 0.5,
            "prox drift {d_prox} vs free {d_free}"
        );
    }

    #[test]
    fn evaluate_handles_uneven_batches() {
        let (x, y) = toy_problem(10, 3);
        let mut model = toy_model(3);
        let a1 = evaluate(&mut model, &x, &y, 3);
        let a2 = evaluate(&mut model, &x, &y, 10);
        assert!((a1 - a2).abs() < 1e-6);
    }

    #[test]
    fn trainer_suspend_resume_is_bitwise_exact() {
        let (x, y) = toy_problem(16, 5);
        let schedule = LrSchedule::Multiplicative {
            initial: 0.1,
            factor: 0.5,
            every: 2,
        };
        let mut reference = Trainer::new(
            toy_model(5),
            Box::new(Sgd::new(0.1).with_momentum(0.9)),
            schedule,
        );
        for _ in 0..3 {
            reference.train_batch(&x, &y);
        }
        // Capture the dormant snapshot: params + optimizer state + step count.
        let params = reference.model_mut().flat_params();
        let opt_state = reference.optimizer_state();
        let step = reference.step_count();
        // Rebuild from a differently-seeded model and restore everything.
        let mut resumed = Trainer::new(
            toy_model(99),
            Box::new(Sgd::new(0.1).with_momentum(0.9)),
            schedule,
        );
        resumed.model_mut().load_flat(&params);
        resumed.load_optimizer_state(&opt_state);
        resumed.set_step_count(step);
        for _ in 0..3 {
            reference.train_batch(&x, &y);
            resumed.train_batch(&x, &y);
        }
        assert_eq!(
            reference.model_mut().flat_params(),
            resumed.model_mut().flat_params()
        );
    }

    #[test]
    fn schedule_decays_lr() {
        let (x, y) = toy_problem(8, 4);
        let mut t = Trainer::new(
            toy_model(4),
            Box::new(Sgd::new(1.0)),
            LrSchedule::Multiplicative {
                initial: 1.0,
                factor: 0.5,
                every: 1,
            },
        );
        t.train_batch(&x, &y);
        t.train_batch(&x, &y);
        // After two steps the internal optimizer lr must have decayed.
        assert!(t.optimizer.lr() <= 0.5);
    }
}
