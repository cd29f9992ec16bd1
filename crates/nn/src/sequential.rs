//! The [`Sequential`] model container.

use apf_tensor::Rng;
use apf_tensor::{derive_seed, seeded_rng, Tensor};
use apf_trace::{span, Level};

use crate::flat::FlatSpec;
use crate::layer::{Layer, Mode};

/// An ordered stack of layers with named parameters and flat-vector views.
///
/// `Sequential` owns an internal RNG (for dropout masks); construct it with a
/// seed so forward passes are reproducible.
pub struct Sequential {
    name: String,
    layers: Vec<Box<dyn Layer>>,
    rng: Rng,
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
    /// Creates an empty model with the given name and RNG seed.
    pub fn new(name: &str, seed: u64) -> Self {
        Sequential {
            name: name.to_owned(),
            layers: Vec::new(),
            rng: seeded_rng(derive_seed(seed, 0xF0F0)),
        }
    }

    /// Appends a layer (builder style).
    pub fn push(mut self, layer: impl Layer + 'static) -> Self {
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
        for (i, layer) in self.layers.iter_mut().enumerate() {
            let _s = span!(Level::Trace, target: "nn.layer", "forward",
                layer = i, kind = layer.kind());
            cur = layer.forward(cur, mode, &mut self.rng);
        }
        cur
    }

    /// Runs all layers backward, accumulating parameter gradients.
    pub fn backward(&mut self, grad: Tensor) -> Tensor {
        let mut cur = grad;
        let last = self.layers.len().saturating_sub(1);
        for (i, layer) in self.layers.iter_mut().rev().enumerate() {
            let _s = span!(Level::Trace, target: "nn.layer", "backward",
                layer = last - i, kind = layer.kind());
            cur = layer.backward(cur);
        }
        cur
    }

    /// [`Sequential::backward`] for training: accumulates the same parameter
    /// gradients but never computes the gradient w.r.t. the model input —
    /// layer 0 runs [`Layer::backward_params`].
    pub fn backward_params(&mut self, grad: Tensor) {
        let mut cur = grad;
        for (i, layer) in self.layers.iter_mut().enumerate().rev() {
            let _s = span!(Level::Trace, target: "nn.layer", "backward",
                layer = i, kind = layer.kind());
            if i == 0 {
                return layer.backward_params(cur);
            }
            cur = layer.backward(cur);
        }
        cur.recycle();
    }

    /// Visits every parameter as `(name, trainable, value, grad)`.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&str, bool, &mut Tensor, &mut Tensor)) {
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }

    /// The flat-vector layout of this model's parameters.
    pub fn flat_spec(&mut self) -> FlatSpec {
        let mut entries = Vec::new();
        self.visit_params(&mut |name, trainable, v, _| {
            entries.push((name.to_owned(), v.numel(), trainable));
        });
        FlatSpec::from_entries(entries)
    }

    /// Filter-granular segment lengths covering the flat parameter vector:
    /// one segment per output filter / row for tensors with ≥2 dims, one
    /// segment per whole tensor otherwise (biases, buffers). Segment lengths
    /// sum to [`Sequential::param_count`], in concatenation order — the
    /// layout `apf` expects for filter-granular freezing.
    pub fn filter_segments(&mut self) -> Vec<usize> {
        let mut segs = Vec::new();
        self.visit_params(&mut |_, _, v, _| {
            let shape = v.shape();
            if shape.len() >= 2 && shape[0] > 0 {
                let per = v.numel() / shape[0];
                segs.extend(std::iter::repeat_n(per, shape[0]));
            } else if v.numel() > 0 {
                segs.push(v.numel());
            }
        });
        segs
    }

    /// Total number of parameter scalars (including buffers).
    ///
    /// Requires `&mut self` because parameter traversal is defined on mutable
    /// layers; the model is not modified.
    pub fn num_params(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |_, _, v, _| n += v.numel());
        n
    }

    /// Total number of parameter scalars (trainable or not).
    pub fn param_count(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |_, _, v, _| n += v.numel());
        n
    }

    /// Copies all parameters into one flat vector (concatenation order).
    ///
    /// The returned buffer comes from the scratch pool; hot-loop callers
    /// should hand it back via [`apf_tensor::scratch::give`].
    pub fn flat_params(&mut self) -> Vec<f32> {
        let mut out = apf_tensor::scratch::take_reserved(self.param_count());
        self.visit_params(&mut |_, _, v, _| out.extend_from_slice(v.data()));
        out
    }

    /// Copies all gradients into one flat vector (same order).
    ///
    /// Scratch-pooled like [`Sequential::flat_params`].
    pub fn flat_grads(&mut self) -> Vec<f32> {
        let mut out = apf_tensor::scratch::take_reserved(self.param_count());
        self.visit_params(&mut |_, _, _, g| out.extend_from_slice(g.data()));
        out
    }

    /// Loads parameters from a flat vector.
    ///
    /// # Panics
    /// Panics if `flat.len()` differs from the model's parameter count.
    pub fn load_flat(&mut self, flat: &[f32]) {
        let mut offset = 0;
        self.visit_params(&mut |_, _, v, _| {
            let n = v.numel();
            v.data_mut().copy_from_slice(&flat[offset..offset + n]);
            offset += n;
        });
        assert_eq!(offset, flat.len(), "flat vector length mismatch");
    }

    /// Zeroes all accumulated gradients.
    pub fn zero_grads(&mut self) {
        self.visit_params(&mut |_, _, _, g| g.fill(0.0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Activation, Linear};
    use apf_tensor::seeded_rng;

    fn tiny_model(seed: u64) -> Sequential {
        let mut rng = seeded_rng(seed);
        Sequential::new("tiny", seed)
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
        let mut m = tiny_model(2);
        let spec = m.flat_spec();
        let names: Vec<&str> = spec.params().iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, vec!["fc1-w", "fc1-b", "fc2-w", "fc2-b"]);
        assert_eq!(spec.total_len(), m.num_params());
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
        let mut a = tiny_model(7);
        let mut b = tiny_model(7);
        assert_eq!(a.flat_params(), b.flat_params());
        let mut c = tiny_model(8);
        assert_ne!(a.flat_params(), c.flat_params());
    }
}
