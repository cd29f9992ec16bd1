//! From-scratch neural-network library for the APF reproduction.
//!
//! The paper trains LeNet-5, ResNet-18 and a 2-layer LSTM with PyTorch; this
//! crate provides the equivalent substrate in pure Rust: layers with manual
//! backward passes, a [`Sequential`] container with *named* parameter tensors
//! (the per-tensor names drive the Fig. 3 stability analysis), cross-entropy
//! loss, SGD/Adam optimizers with learning-rate schedules, and — crucially for
//! APF — the whole model stored as one `Vec<f32>` of scalars (plus one of
//! gradients), which is the representation §3.2.2 of the paper operates on.
//!
//! # Parallelism
//!
//! Forward/backward passes inherit parallel matmul/conv kernels from
//! `apf-tensor`; optimizer steps and the FedProx proximal gradient are
//! additionally chunked over the `apf-par` pool for large flat vectors. All
//! of it is bitwise deterministic at any `APF_PAR_THREADS` (see the
//! `apf-par` crate docs for the contract).
//!
//! # Example
//!
//! ```
//! use apf_nn::{models, Mode};
//! use apf_tensor::Tensor;
//!
//! let mut model = models::mlp("m", &[4, 8, 3], 0);
//! let x = Tensor::zeros(&[2, 4]);
//! let logits = model.forward(x, Mode::Eval);
//! assert_eq!(logits.shape(), &[2, 3]);
//! ```

mod flat;
mod layer;
mod layers;
mod loss;
pub mod models;
mod optim;
mod sequential;
mod train;

pub use flat::{FlatSpec, ParamSpec};
pub use layer::{Layer, Mode, Param};
pub use layers::{
    Activation, ActivationKind, BatchNorm2d, Conv2d, Flatten, GlobalAvgPool, LastStep, Linear,
    LstmLayer, MaxPool2d, ResidualBlock,
};
pub use loss::{accuracy, softmax, softmax_cross_entropy, softmax_in_place};
pub use optim::{Adam, LrSchedule, Optimizer, Sgd};
pub use sequential::Sequential;
pub use train::{evaluate, train_batch, Trainer};
