//! Dense `f32` tensor substrate for the APF reproduction.
//!
//! This crate provides the minimal numerical kernels the rest of the
//! workspace builds on: an owned row-major [`Tensor`], matrix products,
//! im2col-based convolution and pooling kernels, parameter initializers,
//! deterministic seeded RNG helpers, and small statistics utilities.
//!
//! Everything is implemented from scratch (no BLAS, no ndarray): the matmul
//! family runs on an in-tree packed, register-tiled GEMM (see `gemm.rs` and
//! the "Kernel design" section of PERFLOG.md), or at a client's batch size
//! on the packing-free kernels of `batch.rs`, convolution runs the
//! packing-free kernels of `direct.rs` at stride 1 (forward and both
//! gradients) and `im2col` + `matmul` otherwise, and hot-path buffers come
//! from the thread-local [`scratch`] pool, keeping the whole reproduction
//! self-contained, auditable, and allocation-free at steady state.
//!
//! # Example
//!
//! ```
//! use apf_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b);
//! assert_eq!(c.data(), a.data());
//! ```

mod batch;
mod conv;
mod direct;
mod gemm;
mod init;
mod lanes;
mod masked;
mod rng;
pub mod scratch;
pub mod slab;
mod stats;
mod tensor;

pub use conv::{
    avgpool2d_backward, avgpool2d_forward, col2im, conv2d_backward, conv2d_backward_fused,
    conv2d_backward_params_fused, conv2d_forward, conv2d_forward_fused, im2col, maxpool2d_backward,
    maxpool2d_forward, maxpool2d_forward_into, Conv2dGrads, ConvSpec, PoolSpec,
};
pub use init::{kaiming_uniform, normal_init, sample_normal, uniform_init, xavier_uniform};
pub use masked::{mask_copy, mask_fill, mask_scatter, mask_select, masked_axpy, masked_div};
pub use rng::{derive_seed, seeded_rng, splitmix64, Rng, Sample, SampleRange, SliceRandom};
pub use scratch::ScratchStats;
pub use stats::{l1_norm, l2_norm, mean, percentile, variance};
pub use tensor::{axpy, matmul_nt_slices, matmul_slices, matmul_tn_add, Tensor};
