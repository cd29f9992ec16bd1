//! Convolution and pooling kernels, with full backward passes.
//!
//! Layout conventions: activations are `[N, C, H, W]`, convolution weights are
//! `[O, C * kh * kw]` (pre-flattened), and the im2col matrix is
//! `[C * kh * kw, N * out_h * out_w]` so that the forward pass is a single
//! matrix product `weight x cols`.
//!
//! A convolution takes one of two paths, chosen from the call's shape alone:
//!
//! * the **oracle** — [`im2col`] + `matmul` ([`conv2d_forward`],
//!   [`conv2d_backward`]): the column matrix is materialized and the GEMM of
//!   [`crate::gemm`] does the arithmetic. It serves every geometry, is the
//!   reference the other path is tested against, and some callers want the
//!   explicit matrix;
//! * the **direct** kernels of [`crate::direct`] — forward, weight gradient
//!   and input gradient with no column matrix and no packed panels — for
//!   stride-1 calls of at least `PACK_OPS_MIN` (4096) multiply-adds, bit
//!   for bit the oracle's results.
//!
//! [`conv2d_forward_fused`], [`conv2d_backward_fused`] and
//! [`conv2d_backward_params_fused`] are the dispatching entry points the
//! layers call: direct where the shape allows, the oracle otherwise (every
//! strided call — in the model zoo, `resnet`'s `rb2-c1` alone — and every
//! tiny one). "Fused" is historical: they take and return no `cols`.
//!
//! The im2col/col2im transforms and the layout-shuffling assembly loops are
//! parallelized over contiguous row or plane blocks; within each block the
//! per-element operation order matches the serial code, so outputs are
//! bitwise identical at any `APF_PAR_THREADS`. The direct kernels keep the
//! GEMM's ascending-`k` accumulation, so both paths agree bit for bit.

use crate::direct;
use crate::gemm;
#[cfg(debug_assertions)]
use crate::tensor::assert_same_bits;
use crate::tensor::{matmul_slices, matmul_tn_slices, rows_per_block, Tensor, PAR_OPS_MIN};

/// Geometry of a 2-D convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvSpec {
    /// Input channels.
    pub in_channels: usize,
    /// Output channels.
    pub out_channels: usize,
    /// Square kernel side.
    pub kernel: usize,
    /// Stride (same in both dimensions). A stride of 1 is what the direct
    /// kernels take; any other runs the `im2col` + `matmul` oracle.
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub padding: usize,
}

impl ConvSpec {
    /// Output spatial size for an `h x w` input.
    ///
    /// # Panics
    /// Panics if `stride` or `kernel` is 0 or the padded input is smaller
    /// than the kernel.
    pub fn out_size(&self, h: usize, w: usize) -> (usize, usize) {
        assert!(self.stride > 0, "ConvSpec stride must be positive");
        assert!(self.kernel > 0, "ConvSpec kernel must be positive");
        let ph = h + 2 * self.padding;
        let pw = w + 2 * self.padding;
        assert!(
            ph >= self.kernel && pw >= self.kernel,
            "input {h}x{w} (+pad {}) smaller than kernel {}",
            self.padding,
            self.kernel
        );
        (
            (ph - self.kernel) / self.stride + 1,
            (pw - self.kernel) / self.stride + 1,
        )
    }
}

/// Geometry of a 2-D pooling window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolSpec {
    /// Square window side.
    pub kernel: usize,
    /// Stride (same in both dimensions).
    pub stride: usize,
}

impl PoolSpec {
    /// Output spatial size for an `h x w` input.
    ///
    /// # Panics
    /// Panics if `stride` or `kernel` is 0 or the input is smaller than the
    /// window.
    pub fn out_size(&self, h: usize, w: usize) -> (usize, usize) {
        assert!(self.stride > 0, "PoolSpec stride must be positive");
        assert!(self.kernel > 0, "PoolSpec kernel must be positive");
        assert!(
            h >= self.kernel && w >= self.kernel,
            "input smaller than pool window"
        );
        (
            (h - self.kernel) / self.stride + 1,
            (w - self.kernel) / self.stride + 1,
        )
    }
}

/// Gradients produced by [`conv2d_backward`].
#[derive(Debug, Clone)]
pub struct Conv2dGrads {
    /// Gradient w.r.t. the input, `[N, C, H, W]`.
    pub input: Tensor,
    /// Gradient w.r.t. the flattened weight, `[O, C*kh*kw]`.
    pub weight: Tensor,
    /// Gradient w.r.t. the bias, `[O]`.
    pub bias: Tensor,
}

/// Unfolds `input` (`[N, C, H, W]`) into the im2col matrix
/// `[C*k*k, N*out_h*out_w]` for the given convolution geometry.
///
/// # Panics
/// Panics if `input` is not rank 4 or channels disagree with `spec`.
pub fn im2col(input: &Tensor, spec: &ConvSpec) -> Tensor {
    let s = input.shape();
    assert_eq!(s.len(), 4, "im2col expects [N,C,H,W]");
    let (n, c, h, w) = (s[0], s[1], s[2], s[3]);
    assert_eq!(c, spec.in_channels, "channel mismatch");
    let k = spec.kernel;
    let (oh, ow) = spec.out_size(h, w);
    let cols_w = n * oh * ow;
    let rows = c * k * k;
    let mut cols_t = Tensor::scratch(&[rows, cols_w]);
    let data = input.data();
    let pad = spec.padding as isize;
    // Row-outer so each parallel chunk is a contiguous block of complete
    // matrix rows; every element is written at most once (pure gather), so
    // the result is independent of chunking.
    let rows_per = rows_per_block(rows, cols_w.max(1));
    apf_par::par_chunks_mut(cols_t.data_mut(), rows_per * cols_w, |bi, block| {
        for (ri, cols_row) in block.chunks_mut(cols_w).enumerate() {
            let row = bi * rows_per + ri;
            let ci = row / (k * k);
            let ky = (row / k) % k;
            let kx = row % k;
            for ni in 0..n {
                let plane = &data[(ni * c + ci) * h * w..(ni * c + ci + 1) * h * w];
                let row_base = ni * oh * ow;
                for oy in 0..oh {
                    let iy = (oy * spec.stride) as isize + ky as isize - pad;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    let in_row = &plane[iy as usize * w..(iy as usize + 1) * w];
                    let out_base = row_base + oy * ow;
                    for ox in 0..ow {
                        let ix = (ox * spec.stride) as isize + kx as isize - pad;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        cols_row[out_base + ox] = in_row[ix as usize];
                    }
                }
            }
        }
    });
    cols_t
}

/// Folds an im2col-layout gradient back into an input-shaped tensor
/// (the adjoint of [`im2col`]): overlapping windows accumulate.
///
/// # Panics
/// Panics if `cols` does not have the layout produced by `im2col` for
/// `(n, h, w)` under `spec`.
pub fn col2im(cols: &Tensor, spec: &ConvSpec, n: usize, h: usize, w: usize) -> Tensor {
    let k = spec.kernel;
    let c = spec.in_channels;
    let (oh, ow) = spec.out_size(h, w);
    let cols_w = n * oh * ow;
    assert_eq!(cols.shape(), &[c * k * k, cols_w], "col2im layout mismatch");
    let mut out = Tensor::scratch(&[n, c, h, w]);
    let data = cols.data();
    let pad = spec.padding as isize;
    // Parallel over contiguous `[h, w]` planes. Overlapping windows only
    // accumulate *within* a plane, and the per-plane loop order (ky, kx, oy,
    // ox) matches the serial code exactly, so splitting across planes keeps
    // every float association identical.
    let hw = h * w;
    let planes_per = rows_per_block(n * c, k * k * oh * ow);
    apf_par::par_chunks_mut(out.data_mut(), planes_per * hw, |bi, block| {
        for (pi, plane) in block.chunks_mut(hw).enumerate() {
            let nc = bi * planes_per + pi;
            let (ni, ci) = (nc / c, nc % c);
            for ky in 0..k {
                for kx in 0..k {
                    let row = ci * k * k + ky * k + kx;
                    let row_base = row * cols_w + ni * oh * ow;
                    for oy in 0..oh {
                        let iy = (oy * spec.stride) as isize + ky as isize - pad;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        let out_base = iy as usize * w;
                        let in_base = row_base + oy * ow;
                        for ox in 0..ow {
                            let ix = (ox * spec.stride) as isize + kx as isize - pad;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            plane[out_base + ix as usize] += data[in_base + ox];
                        }
                    }
                }
            }
        }
    });
    out
}

/// Checks a convolution's weight (`[O, C*k*k]`, row-major) and bias (`[O]`)
/// buffers against `spec`; returns `C*k*k`.
fn check_params(spec: &ConvSpec, weight: &[f32], bias: &[f32]) -> usize {
    let ckk = spec.in_channels * spec.kernel * spec.kernel;
    assert_eq!(
        weight.len(),
        spec.out_channels * ckk,
        "weight shape mismatch"
    );
    assert_eq!(bias.len(), spec.out_channels, "bias shape mismatch");
    ckk
}

/// `weight^T x grad_mat`: `[O, CKK]^T x [O, N*oh*ow] -> [CKK, N*oh*ow]`.
fn weight_tn(weight: &[f32], grad_mat: &Tensor) -> Tensor {
    let (o, cols) = (grad_mat.shape()[0], grad_mat.shape()[1]);
    matmul_tn_slices(weight, grad_mat.data(), weight.len() / o.max(1), o, cols)
}

/// 2-D convolution forward pass.
///
/// `input` is `[N, C, H, W]`, `weight` is `[O, C*k*k]`, `bias` is `[O]`:
/// tensors, or slices of a model's parameter arena (only the row-major
/// buffer is read, `spec` fixes the shape; the same holds for every
/// convolution entry point). Returns `(output [N, O, oh, ow], cols)` where
/// `cols` is the im2col matrix to be reused by [`conv2d_backward`].
///
/// # Panics
/// Panics on any shape mismatch.
pub fn conv2d_forward(
    input: &Tensor,
    weight: &(impl AsRef<[f32]> + ?Sized),
    bias: &(impl AsRef<[f32]> + ?Sized),
    spec: &ConvSpec,
) -> (Tensor, Tensor) {
    let (weight, bias) = (weight.as_ref(), bias.as_ref());
    let s = input.shape();
    assert_eq!(s.len(), 4, "conv2d expects [N,C,H,W]");
    let (n, _, h, w) = (s[0], s[1], s[2], s[3]);
    let ckk = check_params(spec, weight, bias);
    let (oh, ow) = spec.out_size(h, w);
    let cols = im2col(input, spec);
    let o = spec.out_channels;
    let hw = oh * ow;
    // [O, CKK] x [CKK, N*oh*ow] -> [O, N*oh*ow]
    let out_mat = matmul_slices(weight, cols.data(), o, ckk, n * hw);
    let mut out = Tensor::scratch(&[n, o, oh, ow]);
    assemble_output(out.data_mut(), out_mat.data(), bias, n, o, hw);
    out_mat.recycle();
    (out, cols)
}

/// Assembles the GEMM output `[O, N*oh*ow]` into `[N, O, oh, ow]`, adding
/// the per-channel bias. Each output plane is written exactly once (pure
/// scatter + bias add), so parallel chunking cannot change the result.
fn assemble_output(out: &mut [f32], om: &[f32], b: &[f32], n: usize, o: usize, hw: usize) {
    let planes_per = rows_per_block(n * o, hw.max(1));
    apf_par::par_chunks_mut(out, planes_per * hw, |bi, block| {
        for (pi, dst) in block.chunks_mut(hw).enumerate() {
            let pl = bi * planes_per + pi;
            let (ni, oi) = (pl / o, pl % o);
            let src = &om[oi * n * hw + ni * hw..oi * n * hw + (ni + 1) * hw];
            for (d, &v) in dst.iter_mut().zip(src) {
                *d = v + b[oi];
            }
        }
    });
}

/// 2-D convolution backward pass.
///
/// `grad_out` is `[N, O, oh, ow]`; `cols` is the matrix returned by
/// [`conv2d_forward`]. Returns gradients for input, weight, and bias.
///
/// # Panics
/// Panics on any shape mismatch.
pub fn conv2d_backward(
    grad_out: &Tensor,
    cols: &Tensor,
    weight: &(impl AsRef<[f32]> + ?Sized),
    spec: &ConvSpec,
    input_hw: (usize, usize),
) -> Conv2dGrads {
    let weight = weight.as_ref();
    let s = grad_out.shape();
    assert_eq!(s.len(), 4, "grad_out must be [N,O,oh,ow]");
    let (n, o, oh, ow) = (s[0], s[1], s[2], s[3]);
    assert_eq!(o, spec.out_channels);
    let hw = oh * ow;
    let grad_mat = rearrange_grad(grad_out, n, o, hw);
    let grad_weight = grad_mat.matmul_nt(cols); // [O, CKK]
    let grad_bias = bias_sums(&grad_mat, n, o, hw);
    let grad_cols = weight_tn(weight, &grad_mat); // [CKK, N*oh*ow]
    let (h, w) = input_hw;
    let grad_input = col2im(&grad_cols, spec, n, h, w);
    grad_cols.recycle();
    grad_mat.recycle();
    Conv2dGrads {
        input: grad_input,
        weight: grad_weight,
        bias: grad_bias,
    }
}

/// Rearranges `grad_out` `[N,O,oh,ow]` into `[O, N*oh*ow]` (mirroring the
/// forward layout); each destination plane is a disjoint copy.
fn rearrange_grad(grad_out: &Tensor, n: usize, o: usize, hw: usize) -> Tensor {
    let mut gm = Tensor::scratch(&[o, n * hw]);
    let g = grad_out.data();
    let planes_per = rows_per_block(o * n, hw.max(1));
    apf_par::par_chunks_mut(gm.data_mut(), planes_per * hw, |bi, block| {
        for (pi, dst) in block.chunks_mut(hw).enumerate() {
            let pl = bi * planes_per + pi;
            let (oi, ni) = (pl / n, pl % n);
            let src = &g[(ni * o + oi) * hw..(ni * o + oi + 1) * hw];
            dst.copy_from_slice(src);
        }
    });
    gm
}

/// Per-output-channel sums of `grad_mat` `[O, N*oh*ow]` (the bias gradient).
fn bias_sums(grad_mat: &Tensor, n: usize, o: usize, hw: usize) -> Tensor {
    let mut b = Tensor::scratch(&[o]);
    let gm = grad_mat.data();
    for (oi, bo) in b.data_mut().iter_mut().enumerate() {
        *bo = gm[oi * n * hw..(oi + 1) * n * hw].iter().sum();
    }
    b
}

/// Whether a convolution of `ops` multiply-adds takes the direct kernels:
/// unit stride (a window's taps are then plain offsets from its first) and
/// a product past the size where `matmul` itself leaves its naive kernel.
/// Every other call is the oracle's.
fn takes_direct(spec: &ConvSpec, ops: usize) -> bool {
    spec.stride == 1 && ops >= gemm::PACK_OPS_MIN
}

/// 2-D convolution forward pass without the column matrix: the operands of
/// [`conv2d_forward`], a bitwise identical output tensor, no `cols`
/// returned. A stride-1 call of at least `PACK_OPS_MIN` (4096)
/// multiply-adds runs the direct kernel ([`crate::direct`]; checked against
/// the oracle in debug builds for small problems); any other call *is*
/// [`conv2d_forward`] with its `cols` recycled. Pair it with
/// [`conv2d_backward_fused`], which takes the input instead of `cols`.
///
/// # Panics
/// Panics on any shape mismatch.
pub fn conv2d_forward_fused(
    input: &Tensor,
    weight: &(impl AsRef<[f32]> + ?Sized),
    bias: &(impl AsRef<[f32]> + ?Sized),
    spec: &ConvSpec,
) -> Tensor {
    let (weight, bias) = (weight.as_ref(), bias.as_ref());
    let s = input.shape();
    assert_eq!(s.len(), 4, "conv2d expects [N,C,H,W]");
    let (n, c, h, w) = (s[0], s[1], s[2], s[3]);
    assert_eq!(c, spec.in_channels, "channel mismatch");
    let ckk = check_params(spec, weight, bias);
    let (oh, ow) = spec.out_size(h, w);
    let o = spec.out_channels;
    let ops = o * ckk * n * oh * ow;
    if !takes_direct(spec, ops) {
        let (out, cols) = conv2d_forward(input, weight, bias, spec);
        cols.recycle();
        return out;
    }
    let mut out = Tensor::scratch(&[n, o, oh, ow]);
    direct::forward(
        input.data(),
        weight,
        bias,
        out.data_mut(),
        &direct_geom(spec, n, (h, w), (oh, ow)),
    );
    #[cfg(debug_assertions)]
    if ops <= gemm::REF_CHECK_OPS_MAX {
        let (want, cols) = conv2d_forward(input, weight, bias, spec);
        cols.recycle();
        assert_same_bits(&out, &want, "direct conv2d forward");
        want.recycle();
    }
    out
}

/// 2-D convolution backward pass from the forward `input` instead of the
/// cached im2col matrix, bitwise identical to [`conv2d_backward`]. A
/// stride-1 call of at least `PACK_OPS_MIN` multiply-adds takes its
/// parameter gradients, and its input gradient where there are input
/// channels and output positions to fill a vector, from [`crate::direct`] —
/// neither `cols` nor the `[O, N*oh*ow]` and `[C*k*k, N*oh*ow]` gradient
/// matrices are built (checked against the oracle in debug builds for small
/// problems). Any other call *is* [`im2col`] + [`conv2d_backward`].
///
/// # Panics
/// Panics on any shape mismatch.
pub fn conv2d_backward_fused(
    grad_out: &Tensor,
    input: &Tensor,
    weight: &(impl AsRef<[f32]> + ?Sized),
    spec: &ConvSpec,
) -> Conv2dGrads {
    let weight = weight.as_ref();
    let dims = backward_dims(grad_out, input, spec);
    let oracle = || {
        let cols = im2col(input, spec);
        let grads = conv2d_backward(grad_out, &cols, weight, spec, (dims.h, dims.w));
        cols.recycle();
        grads
    };
    if !takes_direct(spec, dims.ops()) {
        return oracle();
    }
    let shape = dims.direct_geom(spec);
    let (grad_weight, grad_bias) = direct_param_grads(grad_out, input, &dims, &shape);
    let grad_input = if shape.input_grad_is_direct() {
        assert_eq!(weight.len(), dims.o * dims.ckk, "weight shape mismatch");
        let mut grad_input = Tensor::scratch(&[dims.n, spec.in_channels, dims.h, dims.w]);
        direct::input_grad(grad_out.data(), weight, grad_input.data_mut(), &shape);
        grad_input
    } else {
        let grad_mat = rearrange_grad(grad_out, dims.n, dims.o, dims.hw);
        let grad_cols = weight_tn(weight, &grad_mat); // [CKK, N*oh*ow]
        let grad_input = col2im(&grad_cols, spec, dims.n, dims.h, dims.w);
        grad_cols.recycle();
        grad_mat.recycle();
        grad_input
    };
    #[cfg(debug_assertions)]
    if dims.ops() <= gemm::REF_CHECK_OPS_MAX {
        let want = oracle();
        assert_same_bits(&grad_input, &want.input, "direct conv2d grad_input");
        assert_same_bits(&grad_weight, &want.weight, "direct conv2d grad_weight");
        assert_same_bits(&grad_bias, &want.bias, "direct conv2d grad_bias");
    }
    Conv2dGrads {
        input: grad_input,
        weight: grad_weight,
        bias: grad_bias,
    }
}

/// The parameter half of [`conv2d_backward_fused`]: `(grad_weight
/// [O, C*k*k], grad_bias [O])`, bitwise identical to the ones it returns,
/// without the work that only the input gradient needs. A network's first
/// layer has no use for that gradient.
///
/// # Panics
/// Panics on any shape mismatch.
pub fn conv2d_backward_params_fused(
    grad_out: &Tensor,
    input: &Tensor,
    spec: &ConvSpec,
) -> (Tensor, Tensor) {
    let dims = backward_dims(grad_out, input, spec);
    // The parameter half of `conv2d_backward`, spelled out.
    let oracle = || {
        let cols = im2col(input, spec);
        let grad_mat = rearrange_grad(grad_out, dims.n, dims.o, dims.hw);
        let grad_weight = grad_mat.matmul_nt(&cols);
        let grad_bias = bias_sums(&grad_mat, dims.n, dims.o, dims.hw);
        cols.recycle();
        grad_mat.recycle();
        (grad_weight, grad_bias)
    };
    if !takes_direct(spec, dims.ops()) {
        return oracle();
    }
    let (grad_weight, grad_bias) =
        direct_param_grads(grad_out, input, &dims, &dims.direct_geom(spec));
    #[cfg(debug_assertions)]
    if dims.ops() <= gemm::REF_CHECK_OPS_MAX {
        let (want_weight, want_bias) = oracle();
        assert_same_bits(&grad_weight, &want_weight, "direct conv2d grad_weight");
        assert_same_bits(&grad_bias, &want_bias, "direct conv2d grad_bias");
    }
    (grad_weight, grad_bias)
}

/// Checked shapes of one backward call.
struct BackwardDims {
    n: usize,
    o: usize,
    h: usize,
    w: usize,
    oh: usize,
    ow: usize,
    /// `oh*ow`, output positions per sample.
    hw: usize,
    /// `C*k*k`, the depth of the column matrix.
    ckk: usize,
}

impl BackwardDims {
    /// Multiply-adds of the grad-weight product.
    fn ops(&self) -> usize {
        self.o * self.n * self.hw * self.ckk
    }

    fn direct_geom(&self, spec: &ConvSpec) -> direct::Geom {
        direct_geom(spec, self.n, (self.h, self.w), (self.oh, self.ow))
    }
}

fn backward_dims(grad_out: &Tensor, input: &Tensor, spec: &ConvSpec) -> BackwardDims {
    let s = grad_out.shape();
    assert_eq!(s.len(), 4, "grad_out must be [N,O,oh,ow]");
    let (n, o, oh, ow) = (s[0], s[1], s[2], s[3]);
    assert_eq!(o, spec.out_channels);
    let si = input.shape();
    assert_eq!(si.len(), 4, "input must be [N,C,H,W]");
    let (c, h, w) = (si[1], si[2], si[3]);
    assert_eq!(si[0], n, "batch mismatch");
    assert_eq!(c, spec.in_channels, "channel mismatch");
    assert_eq!(spec.out_size(h, w), (oh, ow), "conv geometry mismatch");
    BackwardDims {
        n,
        o,
        h,
        w,
        oh,
        ow,
        hw: oh * ow,
        ckk: c * spec.kernel * spec.kernel,
    }
}

/// Shapes of a stride-1 convolution call as the direct kernels take them.
fn direct_geom(
    spec: &ConvSpec,
    n: usize,
    (h, w): (usize, usize),
    (oh, ow): (usize, usize),
) -> direct::Geom {
    direct::Geom {
        n,
        c: spec.in_channels,
        h,
        w,
        o: spec.out_channels,
        k: spec.kernel,
        pad: spec.padding,
        oh,
        ow,
    }
}

/// The parameter gradients from the direct kernels, which read `grad_out`
/// `[N, O, oh, ow]` as it lies: no `grad_mat` is built for them.
fn direct_param_grads(
    grad_out: &Tensor,
    input: &Tensor,
    dims: &BackwardDims,
    shape: &direct::Geom,
) -> (Tensor, Tensor) {
    let mut grad_weight = Tensor::scratch(&[dims.o, dims.ckk]);
    let mut grad_bias = Tensor::scratch(&[dims.o]);
    direct::param_grads(
        grad_out.data(),
        input.data(),
        grad_weight.data_mut(),
        grad_bias.data_mut(),
        shape,
    );
    (grad_weight, grad_bias)
}

/// Max-pooling forward. Returns `(output [N,C,oh,ow], argmax)` where `argmax`
/// stores, per output element, the flat index into `input`'s data of the
/// selected maximum (used by [`maxpool2d_backward`]).
///
/// # Panics
/// Panics if `input` is not rank 4.
pub fn maxpool2d_forward(input: &Tensor, spec: &PoolSpec) -> (Tensor, Vec<usize>) {
    let mut arg = Vec::new();
    let out = maxpool2d_forward_into(input, spec, &mut arg);
    (out, arg)
}

/// [`maxpool2d_forward`] writing the argmax indices into a caller-kept
/// buffer (resized to the output's element count), so a layer that pools
/// every step does not allocate one per call.
///
/// # Panics
/// Panics if `input` is not rank 4.
pub fn maxpool2d_forward_into(input: &Tensor, spec: &PoolSpec, arg: &mut Vec<usize>) -> Tensor {
    let s = input.shape();
    assert_eq!(s.len(), 4, "maxpool expects [N,C,H,W]");
    let (n, c, h, w) = (s[0], s[1], s[2], s[3]);
    let (oh, ow) = spec.out_size(h, w);
    let ohw = oh * ow;
    let mut out = Tensor::scratch(&[n, c, oh, ow]);
    // Every slot is overwritten below.
    arg.resize(n * c * ohw, 0);
    let data = input.data();
    // Each `[oh, ow]` plane of (out, arg) depends on one input plane only;
    // argmax selection per window is order-independent across planes.
    let pool_plane = |nc: usize, o_plane: &mut [f32], a_plane: &mut [usize]| {
        let plane = &data[nc * h * w..][..h * w];
        if (spec.kernel, spec.stride) == (2, 2) {
            pool_plane_2x2(plane, nc * h * w, w, o_plane, a_plane);
        } else {
            pool_plane_any(plane, nc * h * w, w, spec, o_plane, a_plane);
        }
    };
    let cost = ohw * spec.kernel * spec.kernel;
    let planes = out
        .data_mut()
        .chunks_mut(ohw)
        .zip(arg.chunks_mut(ohw))
        .enumerate();
    if apf_par::threads() <= 1 || (n * c).saturating_mul(cost) < PAR_OPS_MIN {
        for (nc, (op, ap)) in planes {
            pool_plane(nc, op, ap);
        }
    } else {
        apf_par::scope(|s| {
            let pool_plane = &pool_plane;
            for (nc, (op, ap)) in planes {
                s.spawn(move || pool_plane(nc, op, ap));
            }
        });
    }
    out
}

/// One `[h, w]` plane of the max-pool under any `spec`: per window the first
/// maximum in `(ky, kx)` order (`-inf` at the window's first index when
/// nothing in it compares greater), the argmax as `plane_base` plus the
/// index within `plane`.
fn pool_plane_any(
    plane: &[f32],
    plane_base: usize,
    w: usize,
    spec: &PoolSpec,
    o_plane: &mut [f32],
    a_plane: &mut [usize],
) {
    let ow = (w - spec.kernel) / spec.stride + 1;
    for (oy, (o_row, a_row)) in o_plane
        .chunks_mut(ow)
        .zip(a_plane.chunks_mut(ow))
        .enumerate()
    {
        for (ox, (o, a)) in o_row.iter_mut().zip(a_row).enumerate() {
            let mut best = f32::NEG_INFINITY;
            let mut best_idx = oy * spec.stride * w + ox * spec.stride;
            for ky in 0..spec.kernel {
                let iy = oy * spec.stride + ky;
                for kx in 0..spec.kernel {
                    let idx = iy * w + ox * spec.stride + kx;
                    if plane[idx] > best {
                        best = plane[idx];
                        best_idx = idx;
                    }
                }
            }
            *o = best;
            *a = plane_base + best_idx;
        }
    }
}

/// [`pool_plane_any`] for the 2x2 / stride-2 window, without its branch on
/// the data: post-ReLU activations make `v > best` a coin toss, so each
/// candidate is a select instead. The candidates come in the same
/// `(ky, kx)` order, so ties keep the first, a NaN is never taken and an
/// all-NaN window stays `-inf` at its first index.
fn pool_plane_2x2(
    plane: &[f32],
    plane_base: usize,
    w: usize,
    o_plane: &mut [f32],
    a_plane: &mut [usize],
) {
    let ow = w / 2;
    let windows = o_plane
        .chunks_exact_mut(ow)
        .zip(a_plane.chunks_exact_mut(ow));
    for (oy, ((o_row, a_row), rows)) in windows.zip(plane.chunks_exact(2 * w)).enumerate() {
        let (top, bottom) = rows.split_at(w);
        let pairs = top.chunks_exact(2).zip(bottom.chunks_exact(2));
        for (ox, ((o, a), (t, b))) in o_row.iter_mut().zip(a_row).zip(pairs).enumerate() {
            let first = plane_base + 2 * oy * w + 2 * ox;
            let (mut best, mut best_idx) = (f32::NEG_INFINITY, first);
            for (v, idx) in [
                (t[0], first),
                (t[1], first + 1),
                (b[0], first + w),
                (b[1], first + w + 1),
            ] {
                let take = v > best;
                best = if take { v } else { best };
                best_idx = if take { idx } else { best_idx };
            }
            *o = best;
            *a = best_idx;
        }
    }
}

/// Max-pooling backward: scatters `grad_out` to the argmax positions.
///
/// # Panics
/// Panics if `argmax` length differs from `grad_out`'s element count.
pub fn maxpool2d_backward(grad_out: &Tensor, argmax: &[usize], input_shape: &[usize]) -> Tensor {
    assert_eq!(grad_out.numel(), argmax.len(), "argmax length mismatch");
    let mut grad_in = Tensor::scratch(input_shape);
    let gi = grad_in.data_mut();
    for (&idx, &g) in argmax.iter().zip(grad_out.data()) {
        gi[idx] += g;
    }
    grad_in
}

/// Average-pooling forward over `[N,C,H,W]`.
///
/// # Panics
/// Panics if `input` is not rank 4.
pub fn avgpool2d_forward(input: &Tensor, spec: &PoolSpec) -> Tensor {
    let s = input.shape();
    assert_eq!(s.len(), 4, "avgpool expects [N,C,H,W]");
    let (n, c, h, w) = (s[0], s[1], s[2], s[3]);
    let (oh, ow) = spec.out_size(h, w);
    let inv = 1.0 / (spec.kernel * spec.kernel) as f32;
    let mut out_t = Tensor::scratch(&[n, c, oh, ow]);
    let out = out_t.data_mut();
    let data = input.data();
    for nc in 0..n * c {
        let plane_base = nc * h * w;
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = 0.0f32;
                for ky in 0..spec.kernel {
                    let iy = oy * spec.stride + ky;
                    for kx in 0..spec.kernel {
                        let ix = ox * spec.stride + kx;
                        acc += data[plane_base + iy * w + ix];
                    }
                }
                out[nc * oh * ow + oy * ow + ox] = acc * inv;
            }
        }
    }
    out_t
}

/// Average-pooling backward: spreads each output gradient uniformly over its
/// window.
///
/// # Panics
/// Panics if shapes are inconsistent with `spec`.
pub fn avgpool2d_backward(grad_out: &Tensor, spec: &PoolSpec, input_shape: &[usize]) -> Tensor {
    let s = grad_out.shape();
    assert_eq!(s.len(), 4, "grad_out must be [N,C,oh,ow]");
    let (n, c, oh, ow) = (s[0], s[1], s[2], s[3]);
    let (h, w) = (input_shape[2], input_shape[3]);
    assert_eq!(spec.out_size(h, w), (oh, ow), "pool geometry mismatch");
    let inv = 1.0 / (spec.kernel * spec.kernel) as f32;
    let mut grad_in = Tensor::scratch(input_shape);
    let gi = grad_in.data_mut();
    let g = grad_out.data();
    for nc in 0..n * c {
        let plane_base = nc * h * w;
        for oy in 0..oh {
            for ox in 0..ow {
                let gv = g[nc * oh * ow + oy * ow + ox] * inv;
                for ky in 0..spec.kernel {
                    let iy = oy * spec.stride + ky;
                    for kx in 0..spec.kernel {
                        let ix = ox * spec.stride + kx;
                        gi[plane_base + iy * w + ix] += gv;
                    }
                }
            }
        }
    }
    grad_in
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_conv(input: &Tensor, weight: &Tensor, bias: &Tensor, spec: &ConvSpec) -> Tensor {
        let s = input.shape();
        let (n, c, h, w) = (s[0], s[1], s[2], s[3]);
        let k = spec.kernel;
        let (oh, ow) = spec.out_size(h, w);
        let mut out = Tensor::zeros(&[n, spec.out_channels, oh, ow]);
        for ni in 0..n {
            for oi in 0..spec.out_channels {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = bias.data()[oi];
                        for ci in 0..c {
                            for ky in 0..k {
                                for kx in 0..k {
                                    let iy =
                                        (oy * spec.stride + ky) as isize - spec.padding as isize;
                                    let ix =
                                        (ox * spec.stride + kx) as isize - spec.padding as isize;
                                    if iy < 0 || ix < 0 || iy >= h as isize || ix >= w as isize {
                                        continue;
                                    }
                                    let iv = input.data()
                                        [((ni * c + ci) * h + iy as usize) * w + ix as usize];
                                    let wv =
                                        weight.data()[oi * c * k * k + ci * k * k + ky * k + kx];
                                    acc += iv * wv;
                                }
                            }
                        }
                        out.data_mut()[((ni * spec.out_channels + oi) * oh + oy) * ow + ox] = acc;
                    }
                }
            }
        }
        out
    }

    fn det_input(shape: &[usize]) -> Tensor {
        let n: usize = shape.iter().product();
        Tensor::from_vec(
            (0..n).map(|i| ((i * 37 % 17) as f32 - 8.0) * 0.1).collect(),
            shape,
        )
    }

    #[test]
    fn conv_forward_matches_naive_padded() {
        let spec = ConvSpec {
            in_channels: 2,
            out_channels: 3,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let input = det_input(&[2, 2, 5, 5]);
        let weight = det_input(&[3, 2 * 9]);
        let bias = Tensor::from_vec(vec![0.1, -0.2, 0.3], &[3]);
        let (out, _) = conv2d_forward(&input, &weight, &bias, &spec);
        let naive = naive_conv(&input, &weight, &bias, &spec);
        assert_eq!(out.shape(), naive.shape());
        for (a, b) in out.data().iter().zip(naive.data()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn conv_forward_matches_naive_strided() {
        let spec = ConvSpec {
            in_channels: 1,
            out_channels: 2,
            kernel: 2,
            stride: 2,
            padding: 0,
        };
        let input = det_input(&[1, 1, 6, 6]);
        let weight = det_input(&[2, 4]);
        let bias = Tensor::zeros(&[2]);
        let (out, _) = conv2d_forward(&input, &weight, &bias, &spec);
        let naive = naive_conv(&input, &weight, &bias, &spec);
        for (a, b) in out.data().iter().zip(naive.data()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y: the defining
        // property of the adjoint, which is exactly what backward needs.
        let spec = ConvSpec {
            in_channels: 2,
            out_channels: 1,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let x = det_input(&[2, 2, 4, 4]);
        let cols = im2col(&x, &spec);
        let y = det_input(&[cols.shape()[0], cols.shape()[1]]);
        let lhs: f32 = cols.data().iter().zip(y.data()).map(|(a, b)| a * b).sum();
        let back = col2im(&y, &spec, 2, 4, 4);
        let rhs: f32 = x.data().iter().zip(back.data()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn conv_backward_weight_matches_finite_difference() {
        let spec = ConvSpec {
            in_channels: 1,
            out_channels: 2,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let input = det_input(&[1, 1, 4, 4]);
        let mut weight = det_input(&[2, 9]);
        let bias = Tensor::zeros(&[2]);
        // Loss = sum(output); analytic gradient via backward with ones.
        let (out, cols) = conv2d_forward(&input, &weight, &bias, &spec);
        let grad_out = Tensor::ones(out.shape());
        let grads = conv2d_backward(&grad_out, &cols, &weight, &spec, (4, 4));
        let eps = 1e-3;
        for wi in [0usize, 5, 11, 17] {
            let orig = weight.data()[wi];
            weight.data_mut()[wi] = orig + eps;
            let (op, _) = conv2d_forward(&input, &weight, &bias, &spec);
            weight.data_mut()[wi] = orig - eps;
            let (om, _) = conv2d_forward(&input, &weight, &bias, &spec);
            weight.data_mut()[wi] = orig;
            let fd = (op.sum() - om.sum()) / (2.0 * eps);
            let an = grads.weight.data()[wi];
            assert!(
                (fd - an).abs() < 1e-2,
                "weight[{wi}]: fd={fd} analytic={an}"
            );
        }
    }

    #[test]
    fn conv_backward_input_matches_finite_difference() {
        let spec = ConvSpec {
            in_channels: 2,
            out_channels: 1,
            kernel: 2,
            stride: 1,
            padding: 0,
        };
        let mut input = det_input(&[1, 2, 3, 3]);
        let weight = det_input(&[1, 8]);
        let bias = Tensor::zeros(&[1]);
        let (out, cols) = conv2d_forward(&input, &weight, &bias, &spec);
        let grad_out = Tensor::ones(out.shape());
        let grads = conv2d_backward(&grad_out, &cols, &weight, &spec, (3, 3));
        let eps = 1e-3;
        for xi in [0usize, 4, 9, 17] {
            let orig = input.data()[xi];
            input.data_mut()[xi] = orig + eps;
            let (op, _) = conv2d_forward(&input, &weight, &bias, &spec);
            input.data_mut()[xi] = orig - eps;
            let (om, _) = conv2d_forward(&input, &weight, &bias, &spec);
            input.data_mut()[xi] = orig;
            let fd = (op.sum() - om.sum()) / (2.0 * eps);
            let an = grads.input.data()[xi];
            assert!((fd - an).abs() < 1e-2, "input[{xi}]: fd={fd} analytic={an}");
        }
    }

    #[test]
    fn conv_backward_bias_counts_positions() {
        let spec = ConvSpec {
            in_channels: 1,
            out_channels: 2,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let input = det_input(&[2, 1, 4, 4]);
        let weight = det_input(&[2, 9]);
        let bias = Tensor::zeros(&[2]);
        let (out, cols) = conv2d_forward(&input, &weight, &bias, &spec);
        let grad_out = Tensor::ones(out.shape());
        let grads = conv2d_backward(&grad_out, &cols, &weight, &spec, (4, 4));
        // d(sum out)/d(bias_o) = number of output positions = N * oh * ow.
        assert_eq!(grads.bias.data(), &[32.0, 32.0]);
    }

    #[test]
    fn maxpool_forward_and_backward() {
        let input = Tensor::from_vec(
            vec![
                1.0, 2.0, 5.0, 4.0, //
                3.0, 0.0, 1.0, 1.0, //
                0.0, 0.0, 9.0, 1.0, //
                1.0, 7.0, 1.0, 1.0,
            ],
            &[1, 1, 4, 4],
        );
        let spec = PoolSpec {
            kernel: 2,
            stride: 2,
        };
        let (out, arg) = maxpool2d_forward(&input, &spec);
        assert_eq!(out.data(), &[3.0, 5.0, 7.0, 9.0]);
        let grad_out = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]);
        let grad_in = maxpool2d_backward(&grad_out, &arg, &[1, 1, 4, 4]);
        assert_eq!(grad_in.data()[4], 1.0); // the 3.0
        assert_eq!(grad_in.data()[2], 2.0); // the 5.0
        assert_eq!(grad_in.data()[13], 3.0); // the 7.0
        assert_eq!(grad_in.data()[10], 4.0); // the 9.0
        assert_eq!(grad_in.sum(), 10.0);
    }

    #[test]
    fn avgpool_roundtrip_gradient_mass() {
        let input = det_input(&[2, 3, 4, 4]);
        let spec = PoolSpec {
            kernel: 2,
            stride: 2,
        };
        let out = avgpool2d_forward(&input, &spec);
        assert_eq!(out.shape(), &[2, 3, 2, 2]);
        // Mean is preserved by average pooling with exact tiling.
        assert!((out.mean() - input.mean()).abs() < 1e-5);
        let grad_out = Tensor::ones(out.shape());
        let grad_in = avgpool2d_backward(&grad_out, &spec, &[2, 3, 4, 4]);
        // Each input position receives 1/4 from exactly one window.
        assert!(grad_in.data().iter().all(|&g| (g - 0.25).abs() < 1e-6));
    }

    #[test]
    fn fused_forward_is_bitwise_identical_to_unfused() {
        // A stride-1 batch past PACK_OPS_MIN: the direct kernel against the
        // oracle, across thread counts. (Strided and tiny calls are the
        // oracle itself; `tests/proptests.rs` pins that dispatch.)
        let spec = ConvSpec {
            in_channels: 3,
            out_channels: 5,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let input = det_input(&[4, 3, 9, 9]);
        let weight = det_input(&[5, 3 * 9]);
        let bias = det_input(&[5]);
        let (want, cols) = conv2d_forward(&input, &weight, &bias, &spec);
        cols.recycle();
        for t in [1usize, 2, 7] {
            let got =
                apf_par::with_threads(t, || conv2d_forward_fused(&input, &weight, &bias, &spec));
            assert_eq!(got.shape(), want.shape());
            for (g, r) in got.data().iter().zip(want.data()) {
                assert_eq!(g.to_bits(), r.to_bits(), "threads={t}: {g} vs {r}");
            }
        }
    }

    #[test]
    fn fused_backward_is_bitwise_identical_to_unfused() {
        let spec = ConvSpec {
            in_channels: 3,
            out_channels: 4,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let input = det_input(&[3, 3, 8, 8]);
        let weight = det_input(&[4, 3 * 9]);
        let bias = det_input(&[4]);
        let (out, cols) = conv2d_forward(&input, &weight, &bias, &spec);
        let grad_out = det_input(out.shape());
        let want = conv2d_backward(&grad_out, &cols, &weight, &spec, (8, 8));
        cols.recycle();
        for t in [1usize, 2, 7] {
            let got = apf_par::with_threads(t, || {
                conv2d_backward_fused(&grad_out, &input, &weight, &spec)
            });
            for (what, g_t, w_t) in [
                ("input", &got.input, &want.input),
                ("weight", &got.weight, &want.weight),
                ("bias", &got.bias, &want.bias),
            ] {
                assert_eq!(g_t.shape(), w_t.shape(), "threads={t} grad_{what}");
                for (g, r) in g_t.data().iter().zip(w_t.data()) {
                    assert_eq!(
                        g.to_bits(),
                        r.to_bits(),
                        "threads={t} grad_{what}: {g} vs {r}"
                    );
                }
            }
        }
    }

    #[test]
    fn fused_tiny_problem_takes_reference_path() {
        // Below PACK_OPS_MIN the fused entry points fall back to the unfused
        // implementation; results must still agree exactly.
        let spec = ConvSpec {
            in_channels: 1,
            out_channels: 1,
            kernel: 2,
            stride: 1,
            padding: 0,
        };
        let input = det_input(&[1, 1, 3, 3]);
        let weight = det_input(&[1, 4]);
        let bias = det_input(&[1]);
        let (want, cols) = conv2d_forward(&input, &weight, &bias, &spec);
        let got = conv2d_forward_fused(&input, &weight, &bias, &spec);
        for (g, r) in got.data().iter().zip(want.data()) {
            assert_eq!(g.to_bits(), r.to_bits());
        }
        let grad_out = det_input(want.shape());
        let wantb = conv2d_backward(&grad_out, &cols, &weight, &spec, (3, 3));
        let gotb = conv2d_backward_fused(&grad_out, &input, &weight, &spec);
        for (g, r) in gotb.weight.data().iter().zip(wantb.weight.data()) {
            assert_eq!(g.to_bits(), r.to_bits());
        }
        cols.recycle();
    }

    #[test]
    #[should_panic(expected = "ConvSpec stride")]
    fn conv_out_size_rejects_zero_stride() {
        let spec = ConvSpec {
            in_channels: 1,
            out_channels: 1,
            kernel: 3,
            stride: 0,
            padding: 1,
        };
        spec.out_size(8, 8);
    }

    #[test]
    #[should_panic(expected = "ConvSpec kernel")]
    fn conv_out_size_rejects_zero_kernel() {
        // `k = 0` would otherwise reach the GEMM as a depth of zero.
        let spec = ConvSpec {
            in_channels: 1,
            out_channels: 1,
            kernel: 0,
            stride: 1,
            padding: 0,
        };
        spec.out_size(8, 8);
    }

    #[test]
    #[should_panic(expected = "PoolSpec kernel")]
    fn pool_out_size_rejects_zero_kernel() {
        // An empty window pools to `-inf` with an argmax that can lie
        // outside its plane.
        let spec = PoolSpec {
            kernel: 0,
            stride: 2,
        };
        spec.out_size(8, 8);
    }

    #[test]
    fn maxpool_2x2_keeps_the_general_loops_values_and_argmax() {
        // Ties (the first wins), NaN (never taken), `-inf` and all-NaN
        // windows (stay `-inf` at the first index), odd sides (a last row
        // and column no window covers).
        let specials = [f32::NAN, f32::NEG_INFINITY, f32::INFINITY, 0.0, -0.0, 1.0];
        for (h, w) in [(2usize, 2usize), (4, 4), (5, 7), (9, 6), (16, 16)] {
            let (n, c) = (2, 3);
            let mut input = det_input(&[n, c, h, w]).map(|v| v.max(0.0));
            for (i, v) in input.data_mut().iter_mut().enumerate() {
                if i % 3 == 0 {
                    *v = specials[i / 3 % specials.len()];
                }
            }
            // One window of NaNs only.
            for idx in [0, 1, w, w + 1] {
                input.data_mut()[idx] = f32::NAN;
            }
            for (kernel, stride) in [(2usize, 2usize), (2, 1), (3, 1), (3, 2)] {
                if h < kernel || w < kernel {
                    continue;
                }
                let spec = PoolSpec { kernel, stride };
                let (oh, ow) = spec.out_size(h, w);
                let (got, got_arg) = maxpool2d_forward(&input, &spec);
                let mut want = vec![f32::NAN; n * c * oh * ow];
                let mut want_arg = vec![usize::MAX; want.len()];
                for (nc, (o, a)) in want
                    .chunks_mut(oh * ow)
                    .zip(want_arg.chunks_mut(oh * ow))
                    .enumerate()
                {
                    let plane = &input.data()[nc * h * w..][..h * w];
                    pool_plane_any(plane, nc * h * w, w, &spec, o, a);
                }
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(got.data()), bits(&want), "{spec:?} on {h}x{w}");
                assert_eq!(got_arg, want_arg, "{spec:?} on {h}x{w}");
            }
            let all_nan = maxpool2d_forward(
                &input,
                &PoolSpec {
                    kernel: 2,
                    stride: 2,
                },
            );
            assert_eq!(all_nan.0.data()[0], f32::NEG_INFINITY);
            assert_eq!(all_nan.1[0], 0);
        }
    }

    #[test]
    #[should_panic(expected = "PoolSpec stride")]
    fn pool_out_size_rejects_zero_stride() {
        let spec = PoolSpec {
            kernel: 2,
            stride: 0,
        };
        spec.out_size(8, 8);
    }

    #[test]
    fn out_size_math() {
        let spec = ConvSpec {
            in_channels: 1,
            out_channels: 1,
            kernel: 5,
            stride: 1,
            padding: 2,
        };
        assert_eq!(spec.out_size(16, 16), (16, 16));
        let spec2 = ConvSpec {
            in_channels: 1,
            out_channels: 1,
            kernel: 3,
            stride: 2,
            padding: 1,
        };
        assert_eq!(spec2.out_size(8, 8), (4, 4));
    }
}
