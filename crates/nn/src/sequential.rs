//! The [`Sequential`] model container.

use std::ops::Range;

use apf_tensor::Tensor;
use apf_trace::{span, Level};

use crate::flat::FlatSpec;
use crate::layer::{Layer, Mode};

/// An ordered stack of layers over one parameter arena and one gradient
/// arena.
///
/// The arena *is* the model: the flat vector of §3.2.2, laid out as
/// [`Sequential::flat_spec`] records. Each layer reads and writes its own
/// contiguous sub-slice of it, so the optimizer, the FedProx term and the
/// APF rollback all work on the model in place. Layers draw their initial
/// values from the constructor's RNG; the forward pass is deterministic.
pub struct Sequential {
    name: String,
    layers: Vec<Box<dyn Layer>>,
    /// Layer `i` owns `params[ranges[i]]` and `grads[ranges[i]]`.
    ranges: Vec<Range<usize>>,
    spec: FlatSpec,
    params: Vec<f32>,
    grads: Vec<f32>,
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kinds: Vec<&str> = self.layers.iter().map(|l| l.kind()).collect();
        f.debug_struct("Sequential")
            .field("name", &self.name)
            .field("layers", &kinds)
            .finish()
    }
}

impl Sequential {
    /// Creates an empty model with the given name.
    pub fn new(name: &str) -> Self {
        Sequential {
            name: name.to_owned(),
            layers: Vec::new(),
            ranges: Vec::new(),
            spec: FlatSpec::default(),
            params: Vec::new(),
            grads: Vec::new(),
        }
    }

    /// Appends a layer (builder style), moving its initial parameters into
    /// the arena.
    pub fn push(mut self, mut layer: impl Layer + 'static) -> Self {
        let start = self.params.len();
        let init = layer.take_params();
        self.params
            .reserve_exact(init.iter().map(|p| p.value.numel()).sum());
        for p in init {
            self.spec.push(p.name, p.value.shape(), p.trainable);
            self.params.extend_from_slice(p.value.data());
        }
        self.ranges.push(start..self.params.len());
        self.layers.push(Box::new(layer));
        self
    }

    /// Model name (e.g. `"lenet5"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the model has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Runs all layers forward.
    pub fn forward(&mut self, x: Tensor, mode: Mode) -> Tensor {
        let mut cur = x;
        for (i, (layer, r)) in self.layers.iter_mut().zip(&self.ranges).enumerate() {
            let _s = span!(Level::Trace, target: "nn.layer", "forward",
                layer = i, kind = layer.kind());
            cur = layer.forward(&mut self.params[r.clone()], cur, mode);
        }
        cur
    }

    /// Allocates the gradient arena, zeroed, unless it exists: when a
    /// [`crate::Trainer`] takes the model, or on a bare model's first
    /// backward pass. A model that only evaluates (a runner's evaluation
    /// replica) never holds one.
    pub(crate) fn ensure_grads(&mut self) {
        if self.grads.len() != self.spec.total_len() {
            self.grads = vec![0.0; self.spec.total_len()];
        }
    }

    /// Runs all layers backward, accumulating parameter gradients.
    pub fn backward(&mut self, grad: Tensor) -> Tensor {
        self.ensure_grads();
        let mut cur = grad;
        for (i, (layer, r)) in self.layers.iter_mut().zip(&self.ranges).enumerate().rev() {
            let _s = span!(Level::Trace, target: "nn.layer", "backward",
                layer = i, kind = layer.kind());
            cur = layer.backward(&self.params[r.clone()], &mut self.grads[r.clone()], cur);
        }
        cur
    }

    /// [`Sequential::backward`] for training: accumulates the same parameter
    /// gradients but never computes the gradient w.r.t. the model input —
    /// layer 0 runs [`Layer::backward_params`].
    pub fn backward_params(&mut self, grad: Tensor) {
        self.ensure_grads();
        let mut cur = grad;
        for (i, (layer, r)) in self.layers.iter_mut().zip(&self.ranges).enumerate().rev() {
            let _s = span!(Level::Trace, target: "nn.layer", "backward",
                layer = i, kind = layer.kind());
            let (p, g) = (&self.params[r.clone()], &mut self.grads[r.clone()]);
            if i == 0 {
                return layer.backward_params(p, g, cur);
            }
            cur = layer.backward(p, g, cur);
        }
        cur.recycle();
    }

    /// The layout of the parameter arena.
    pub fn flat_spec(&self) -> &FlatSpec {
        &self.spec
    }

    /// Per-filter segment lengths covering the flat parameter vector: one
    /// segment per output filter / row for tensors with ≥2 dims, one segment
    /// per whole tensor otherwise (biases, buffers), summing to
    /// [`Sequential::param_count`] in concatenation order. Nothing in the
    /// workspace consumes it — freezing is per scalar. It stays only because
    /// the benchmark harness (`benchmark/src/workloads.rs`) passes it to
    /// `SyncStrategy::set_filter_layout`; both go once that call does.
    pub fn filter_segments(&self) -> Vec<usize> {
        let mut segs = Vec::new();
        for p in self.spec.params() {
            if p.shape.len() >= 2 && p.shape[0] > 0 {
                segs.extend(std::iter::repeat_n(p.len / p.shape[0], p.shape[0]));
            } else if p.len > 0 {
                segs.push(p.len);
            }
        }
        segs
    }

    /// Total number of parameter scalars (trainable or not).
    pub fn param_count(&self) -> usize {
        self.spec.total_len()
    }

    /// The parameter arena itself, for in-place updates (the APF rollback,
    /// aggregation, tests that perturb one scalar).
    pub fn params_mut(&mut self) -> &mut [f32] {
        &mut self.params
    }

    /// Moves the parameter arena out, for a reduce that takes every client's
    /// parameters as owned vectors (`SyncStrategy::sync_round`): no copy
    /// either way. The model has no parameters until
    /// [`Sequential::put_arena`] returns them.
    pub fn take_arena(&mut self) -> Vec<f32> {
        std::mem::take(&mut self.params)
    }

    /// Returns a parameter arena taken by [`Sequential::take_arena`] (or
    /// any vector of the model's layout).
    ///
    /// # Panics
    /// Panics if `params.len()` differs from the model's parameter count.
    pub fn put_arena(&mut self, params: Vec<f32>) {
        assert_eq!(params.len(), self.param_count(), "arena length mismatch");
        self.params = params;
    }

    /// Both arenas at once: the optimizer steps the first from the second.
    pub(crate) fn params_and_grads_mut(&mut self) -> (&mut [f32], &mut [f32]) {
        self.ensure_grads();
        (&mut self.params, &mut self.grads)
    }

    /// A copy of the parameter arena.
    ///
    /// The returned buffer comes from the scratch pool; hot-loop callers
    /// should hand it back via [`apf_tensor::scratch::give`].
    pub fn flat_params(&self) -> Vec<f32> {
        apf_tensor::scratch::take_copy(&self.params)
    }

    /// A copy of the gradient arena (same layout), scratch-pooled like
    /// [`Sequential::flat_params`].
    pub fn flat_grads(&self) -> Vec<f32> {
        if self.grads.is_empty() {
            return apf_tensor::scratch::take(self.param_count());
        }
        apf_tensor::scratch::take_copy(&self.grads)
    }

    /// Overwrites the parameter arena from a flat vector.
    ///
    /// # Panics
    /// Panics if `flat.len()` differs from the model's parameter count.
    pub fn load_flat(&mut self, flat: &[f32]) {
        assert_eq!(self.params.len(), flat.len(), "flat vector length mismatch");
        self.params.copy_from_slice(flat);
    }

    /// Zeroes all accumulated gradients.
    pub fn zero_grads(&mut self) {
        self.ensure_grads();
        self.grads.fill(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Activation, Linear};
    use apf_tensor::seeded_rng;

    fn tiny_model(seed: u64) -> Sequential {
        let mut rng = seeded_rng(seed);
        Sequential::new("tiny")
            .push(Linear::new("fc1", 3, 4, &mut rng))
            .push(Activation::relu())
            .push(Linear::new("fc2", 4, 2, &mut rng))
    }

    #[test]
    fn forward_shape() {
        let mut m = tiny_model(0);
        let y = m.forward(Tensor::zeros(&[5, 3]), Mode::Eval);
        assert_eq!(y.shape(), &[5, 2]);
    }

    #[test]
    fn flat_roundtrip_preserves_model() {
        let mut m = tiny_model(1);
        let flat = m.flat_params();
        assert_eq!(flat.len(), 3 * 4 + 4 + 4 * 2 + 2);
        let x = Tensor::ones(&[1, 3]);
        let y1 = m.forward(x.clone(), Mode::Eval);
        let mut perturbed = flat.clone();
        for v in &mut perturbed {
            *v += 1.0;
        }
        m.load_flat(&perturbed);
        let y2 = m.forward(x.clone(), Mode::Eval);
        assert_ne!(y1.data(), y2.data());
        m.load_flat(&flat);
        let y3 = m.forward(x, Mode::Eval);
        assert_eq!(y1.data(), y3.data());
    }

    #[test]
    fn flat_spec_names_in_order() {
        let m = tiny_model(2);
        let spec = m.flat_spec();
        let names: Vec<&str> = spec.params().iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, vec!["fc1-w", "fc1-b", "fc2-w", "fc2-b"]);
        assert_eq!(spec.total_len(), m.param_count());
    }

    #[test]
    fn zero_grads_clears_accumulation() {
        let mut m = tiny_model(3);
        let y = m.forward(Tensor::ones(&[2, 3]), Mode::Train);
        m.backward(Tensor::ones(y.shape()));
        assert!(m.flat_grads().iter().any(|&g| g != 0.0));
        m.zero_grads();
        assert!(m.flat_grads().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn same_seed_same_init() {
        let a = tiny_model(7);
        let b = tiny_model(7);
        assert_eq!(a.flat_params(), b.flat_params());
        let c = tiny_model(8);
        assert_ne!(a.flat_params(), c.flat_params());
    }
}
