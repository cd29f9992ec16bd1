//! The [`Layer`] trait: forward and backward over a slice of the model's
//! parameter arena.

use apf_tensor::Tensor;

/// Whether a forward pass is part of training or evaluation.
///
/// Training mode normalizes [`crate::BatchNorm2d`] by batch statistics and
/// updates its running statistics; evaluation mode uses the running
/// statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Training: batch statistics used.
    Train,
    /// Evaluation: deterministic forward pass.
    Eval,
}

/// One parameter tensor as a layer's constructor initialised it.
///
/// [`crate::Sequential::push`] moves the values into the model's arena and
/// records the name, shape and trainability in its [`crate::FlatSpec`].
/// Non-trainable entries are buffers (e.g. batch-norm running statistics)
/// that take part in synchronization and freezing but that optimizers never
/// touch.
#[derive(Debug)]
pub struct Param {
    /// Tensor name, e.g. `"conv1-w"`.
    pub name: String,
    /// Whether optimizers update it.
    pub trainable: bool,
    /// Initial values and shape.
    pub value: Tensor,
}

impl Param {
    /// A trainable tensor.
    pub fn trainable(name: String, value: Tensor) -> Self {
        Param {
            name,
            trainable: true,
            value,
        }
    }

    /// A buffer: synchronized and frozen like a parameter, never stepped.
    pub fn buffer(name: String, value: Tensor) -> Self {
        Param {
            name,
            trainable: false,
            value,
        }
    }
}

/// A neural-network layer with a manual backward pass.
///
/// A layer owns no parameter storage. Its constructor builds the initial
/// [`Param`]s; [`Layer::take_params`] hands them over once, and from then
/// on every call receives the layer's own contiguous slice of the model's
/// parameter arena (`params`) and of its gradient arena (`grads`), laid out
/// in the order `take_params` returned the tensors.
///
/// Layers cache whatever they need during [`Layer::forward`] and consume the
/// cache in [`Layer::backward`]. Parameter gradients *accumulate* into
/// `grads`; call sites zero them between steps via
/// [`crate::Sequential::zero_grads`].
pub trait Layer: Send {
    /// Moves out the layer's initial parameter tensors, in arena order.
    /// Parameterless layers keep the default (none).
    fn take_params(&mut self) -> Vec<Param> {
        Vec::new()
    }

    /// Runs the layer forward, caching state for the next `backward` call.
    /// `params` is mutable because batch-norm writes its running statistics
    /// in training mode.
    fn forward(&mut self, params: &mut [f32], x: Tensor, mode: Mode) -> Tensor;

    /// Propagates `grad` (w.r.t. this layer's output) backward, accumulating
    /// parameter gradients into `grads` and returning the gradient w.r.t.
    /// the input.
    ///
    /// # Panics
    /// Implementations may panic if called before `forward`.
    fn backward(&mut self, params: &[f32], grads: &mut [f32], grad: Tensor) -> Tensor;

    /// Like [`Layer::backward`], for a caller that has no use for the
    /// gradient w.r.t. the input — the first layer of a model in training.
    /// Accumulates exactly the parameter gradients `backward` would;
    /// layers override it to skip the input-gradient work.
    fn backward_params(&mut self, params: &[f32], grads: &mut [f32], grad: Tensor) {
        self.backward(params, grads, grad).recycle();
    }

    /// A short human-readable kind tag, e.g. `"linear"`.
    fn kind(&self) -> &'static str;
}
