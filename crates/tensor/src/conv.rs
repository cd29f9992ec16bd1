//! Convolution and pooling kernels (im2col-based), with full backward passes.
//!
//! Layout conventions: activations are `[N, C, H, W]`, convolution weights are
//! `[O, C * kh * kw]` (pre-flattened), and the im2col matrix is
//! `[C * kh * kw, N * out_h * out_w]` so that the forward pass is a single
//! matrix product `weight x cols`.
//!
//! The hot path is the **fused** pair [`conv2d_forward_fused`] /
//! [`conv2d_backward_fused`]: instead of materializing the full im2col
//! matrix they generate its entries *directly into the packed GEMM panels*
//! (the B-operand packing closure of [`crate::gemm`]), so the column matrix
//! never exists in memory and the working set per task is one KC×NR panel.
//! Stride-1 calls skip the panels too: the fused entry points hand them to
//! the packing-free kernels of [`crate::direct`] — forward, weight gradient
//! and input gradient — chosen from the call's shape alone and
//! bit-identical, which leaves the GEMM the strided layers.
//! The unfused [`im2col`]/[`conv2d_forward`]/[`conv2d_backward`] entry
//! points are kept — they are the reference the fused path is tested
//! against, and some callers want the explicit matrix.
//!
//! The im2col/col2im transforms and the layout-shuffling assembly loops are
//! parallelized over contiguous row or plane blocks; within each block the
//! per-element operation order matches the serial code, so outputs are
//! bitwise identical at any `APF_PAR_THREADS`. The fused path reuses the
//! GEMM's ascending-`k` accumulation, so its outputs are bitwise identical
//! to the unfused `matmul`-based path too.

use crate::direct;
use crate::gemm;
#[cfg(debug_assertions)]
use crate::tensor::assert_same_bits;
use crate::tensor::{rows_per_block, Tensor, PAR_OPS_MIN};

/// Geometry of a 2-D convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvSpec {
    /// Input channels.
    pub in_channels: usize,
    /// Output channels.
    pub out_channels: usize,
    /// Square kernel side.
    pub kernel: usize,
    /// Stride (same in both dimensions).
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

    /// Number of weight scalars: `out_channels * in_channels * kernel^2`.
    pub fn weight_len(&self) -> usize {
        self.out_channels * self.in_channels * self.kernel * self.kernel
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

/// 2-D convolution forward pass.
///
/// `input` is `[N, C, H, W]`, `weight` is `[O, C*k*k]`, `bias` is `[O]`.
/// Returns `(output [N, O, oh, ow], cols)` where `cols` is the im2col matrix
/// to be reused by [`conv2d_backward`].
///
/// # Panics
/// Panics on any shape mismatch.
pub fn conv2d_forward(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    spec: &ConvSpec,
) -> (Tensor, Tensor) {
    let s = input.shape();
    assert_eq!(s.len(), 4, "conv2d expects [N,C,H,W]");
    let (n, _, h, w) = (s[0], s[1], s[2], s[3]);
    let k = spec.kernel;
    assert_eq!(
        weight.shape(),
        &[spec.out_channels, spec.in_channels * k * k],
        "weight shape mismatch"
    );
    assert_eq!(bias.numel(), spec.out_channels, "bias shape mismatch");
    let (oh, ow) = spec.out_size(h, w);
    let cols = im2col(input, spec);
    // [O, CKK] x [CKK, N*oh*ow] -> [O, N*oh*ow]
    let out_mat = weight.matmul(&cols);
    let o = spec.out_channels;
    let hw = oh * ow;
    let mut out = Tensor::scratch(&[n, o, oh, ow]);
    assemble_output(out.data_mut(), out_mat.data(), bias.data(), n, o, hw);
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
    weight: &Tensor,
    spec: &ConvSpec,
    input_hw: (usize, usize),
) -> Conv2dGrads {
    let s = grad_out.shape();
    assert_eq!(s.len(), 4, "grad_out must be [N,O,oh,ow]");
    let (n, o, oh, ow) = (s[0], s[1], s[2], s[3]);
    assert_eq!(o, spec.out_channels);
    let hw = oh * ow;
    let grad_mat = rearrange_grad(grad_out, n, o, hw);
    let grad_weight = grad_mat.matmul_nt(cols); // [O, CKK]
    let grad_bias = bias_sums(&grad_mat, n, o, hw);
    let grad_cols = weight.matmul_tn(&grad_mat); // [CKK, N*oh*ow]
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

/// Convolution geometry prepared for generating im2col entries on the fly.
///
/// The fused GEMM path never materializes the `[C*k*k, N*oh*ow]` column
/// matrix; instead the B-operand packing closures ask this struct for panels
/// of it, computed straight from the input tensor. Entry `(row, col)` of the
/// virtual matrix is `input[ni, ci, iy, ix]` with
/// `row = ci*k*k + ky*k + kx`, `col = ni*oh*ow + oy*ow + ox`,
/// `iy = oy*stride + ky - pad`, `ix = ox*stride + kx - pad` (0.0 when the
/// sample falls in the zero padding) — exactly what [`im2col`] writes, so
/// the fused and unfused paths feed the GEMM bitwise-identical panels.
///
/// Neither packer does index arithmetic per entry: a stretch of consecutive
/// `col`s inside one output row (an [`OutRun`]) reads one input row at a
/// fixed step, and `(ci, ky, kx)` and `(ni, oy, ox)` are carried as counters
/// from one division per panel. (Only strided calls pack any more; the
/// stride-1 ones go to [`crate::direct`].)
struct ColsGeom {
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    pad: isize,
    oh: usize,
    ow: usize,
}

/// `len` consecutive columns of the virtual matrix that share one output
/// row: output positions `(oy, ox0..ox0+len)` of one sample.
#[derive(Clone, Copy, Default)]
struct OutRun {
    /// Offset of the sample's `[C, H, W]` block in the input data.
    base: usize,
    /// `oy*stride - pad`: the input row that kernel row `ky = 0` reads.
    iy0: isize,
    /// `ox0*stride - pad`: the input column that `kx = 0` reads at `ox0`.
    ix0: isize,
    len: usize,
}

impl ColsGeom {
    fn new(spec: &ConvSpec, h: usize, w: usize) -> Self {
        let (oh, ow) = spec.out_size(h, w);
        ColsGeom {
            c: spec.in_channels,
            h,
            w,
            k: spec.kernel,
            stride: spec.stride,
            pad: spec.padding as isize,
            oh,
            ow,
        }
    }

    /// Decomposes a virtual-matrix row index into `(ci, ky, kx)`.
    #[inline]
    fn row_parts(&self, row: usize) -> (usize, usize, usize) {
        (
            row / (self.k * self.k),
            (row / self.k) % self.k,
            row % self.k,
        )
    }

    /// Steps `(ci, ky, kx)` to the next virtual-matrix row.
    #[inline]
    fn next_row(&self, (ci, ky, kx): (usize, usize, usize)) -> (usize, usize, usize) {
        if kx + 1 < self.k {
            (ci, ky, kx + 1)
        } else if ky + 1 < self.k {
            (ci, ky + 1, 0)
        } else {
            (ci + 1, 0, 0)
        }
    }

    /// Splits columns `col0..col0+count` into output-row runs, calling
    /// `f(offset, run)` for each in ascending column order (`offset` is the
    /// run's first column minus `col0`).
    #[inline]
    fn for_each_out_run(&self, col0: usize, count: usize, mut f: impl FnMut(usize, OutRun)) {
        let ohw = self.oh * self.ow;
        let (mut ni, rem) = (col0 / ohw, col0 % ohw);
        let (mut oy, mut ox) = (rem / self.ow, rem % self.ow);
        let mut done = 0;
        while done < count {
            let len = (self.ow - ox).min(count - done);
            f(
                done,
                OutRun {
                    base: ni * self.c * self.h * self.w,
                    iy0: (oy * self.stride) as isize - self.pad,
                    ix0: (ox * self.stride) as isize - self.pad,
                    len,
                },
            );
            done += len;
            ox = 0;
            oy += 1;
            if oy == self.oh {
                oy = 0;
                ni += 1;
            }
        }
    }

    /// The input row that `run` reads at kernel row `ky` of the channel
    /// whose plane starts `chan = ci*h*w` into a sample, or `None` when it
    /// lies in the zero padding.
    #[inline]
    fn in_row<'a>(
        &self,
        data: &'a [f32],
        run: &OutRun,
        chan: usize,
        ky: usize,
    ) -> Option<&'a [f32]> {
        let iy = run.iy0 + ky as isize;
        if iy < 0 || iy >= self.h as isize {
            return None;
        }
        Some(&data[run.base + chan + iy as usize * self.w..][..self.w])
    }

    /// B-packing closure body for the forward GEMM: NR-column panels of
    /// `cols` at depth `pc..pc+kc_eff`, columns `jc..jc+nc_eff`.
    ///
    /// A panel's NR columns are split into output-row runs once. Its rows are
    /// taken a kernel row at a time — the up to `k` consecutive rows that
    /// share `(ci, ky)` — so each run looks its input row up once per kernel
    /// row and fills one panel row per `kx` from it.
    fn pack_cols_panels(
        &self,
        data: &[f32],
        dst: &mut [f32],
        pc: usize,
        kc_eff: usize,
        jc: usize,
        nc_eff: usize,
    ) {
        for (jr, panel) in dst.chunks_exact_mut(kc_eff * gemm::NR).enumerate() {
            let cols_n = gemm::NR.min(nc_eff - jr * gemm::NR);
            let mut runs = [(0usize, OutRun::default()); gemm::NR];
            let mut n_runs = 0;
            self.for_each_out_run(jc + jr * gemm::NR, cols_n, |j, run| {
                runs[n_runs] = (j, run);
                n_runs += 1;
            });
            let (mut ci, mut ky, mut kx) = self.row_parts(pc);
            let mut rest = panel;
            while !rest.is_empty() {
                let rows = (self.k - kx).min(rest.len() / gemm::NR);
                let (kernel_row, tail) = rest.split_at_mut(rows * gemm::NR);
                for &(j, run) in &runs[..n_runs] {
                    let in_row = self.in_row(data, &run, ci * self.h * self.w, ky);
                    for (i, out) in kernel_row.chunks_exact_mut(gemm::NR).enumerate() {
                        let out = &mut out[j..j + run.len];
                        match in_row {
                            Some(in_row) => self.fill_run(in_row, run.ix0 + (kx + i) as isize, out),
                            None => out.fill(0.0),
                        }
                    }
                }
                if cols_n < gemm::NR {
                    for out in kernel_row.chunks_exact_mut(gemm::NR) {
                        out[cols_n..].fill(0.0);
                    }
                }
                rest = tail;
                kx = 0;
                ky += 1;
                if ky == self.k {
                    ky = 0;
                    ci += 1;
                }
            }
        }
    }

    /// Fills `dst[t]` with input column `ix0 + t*stride` of `in_row`, 0.0
    /// where that falls outside the image.
    #[inline]
    fn fill_run(&self, in_row: &[f32], ix0: isize, dst: &mut [f32]) {
        for (t, d) in dst.iter_mut().enumerate() {
            // A negative column wraps to a huge one.
            let ix = (ix0 + (t * self.stride) as isize) as usize;
            *d = if ix < self.w { in_row[ix] } else { 0.0 };
        }
    }

    /// B-packing closure body for the grad-weight GEMM, whose B operand is
    /// the *transpose* `colsᵀ [N*oh*ow, C*k*k]`: panel entry `(p, j)` is
    /// `cols[jc + j][pc + p]` — lane `j` is one `(ci, ky, kx)`, and going
    /// down the panel walks the output positions `pc..pc+kc_eff`.
    ///
    /// Those positions are split into output-row runs, and each position
    /// gathers its lanes with the row and column offsets precomputed.
    fn pack_cols_t_panels(
        &self,
        data: &[f32],
        dst: &mut [f32],
        pc: usize,
        kc_eff: usize,
        jc: usize,
        nc_eff: usize,
    ) {
        for (jr, panel) in dst.chunks_exact_mut(kc_eff * gemm::NR).enumerate() {
            let cols_n = gemm::NR.min(nc_eff - jr * gemm::NR);
            if cols_n < gemm::NR {
                for out in panel.chunks_exact_mut(gemm::NR) {
                    out[cols_n..].fill(0.0);
                }
            }
            // Per lane: its channel plane's offset within a sample, ky, kx.
            let mut lanes = [(0usize, 0usize, 0usize); gemm::NR];
            let mut row = self.row_parts(jc + jr * gemm::NR);
            for lane in lanes.iter_mut().take(cols_n) {
                *lane = (row.0 * self.h * self.w, row.1, row.2);
                row = self.next_row(row);
            }
            let lanes = &lanes[..cols_n];
            self.for_each_out_run(pc, kc_eff, |p, run| {
                let rows = &mut panel[p * gemm::NR..(p + run.len) * gemm::NR];
                for (t, out) in rows.chunks_exact_mut(gemm::NR).enumerate() {
                    let ix0 = run.ix0 + (t * self.stride) as isize;
                    for (o, &(chan, ky, kx)) in out.iter_mut().zip(lanes) {
                        // Negative coordinates wrap to huge values.
                        let iy = (run.iy0 + ky as isize) as usize;
                        let ix = (ix0 + kx as isize) as usize;
                        *o = if iy < self.h && ix < self.w {
                            data[run.base + chan + iy * self.w + ix]
                        } else {
                            0.0
                        };
                    }
                }
            });
        }
    }
}

/// Fused 2-D convolution forward pass: im2col directly into the packed GEMM
/// panels, so the column matrix never exists in memory — or, for a stride-1
/// call, no panels at all ([`crate::direct`]).
///
/// Takes the same operands as [`conv2d_forward`] and produces a bitwise
/// identical output tensor (asserted in debug builds for small problems);
/// it just skips materializing (and returning) `cols`. Pair it with
/// [`conv2d_backward_fused`], which re-derives the column entries from the
/// input instead of consuming a cached `cols`.
///
/// # Panics
/// Panics on any shape mismatch.
pub fn conv2d_forward_fused(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    spec: &ConvSpec,
) -> Tensor {
    let s = input.shape();
    assert_eq!(s.len(), 4, "conv2d expects [N,C,H,W]");
    let (n, c, h, w) = (s[0], s[1], s[2], s[3]);
    assert_eq!(c, spec.in_channels, "channel mismatch");
    let k = spec.kernel;
    assert_eq!(
        weight.shape(),
        &[spec.out_channels, spec.in_channels * k * k],
        "weight shape mismatch"
    );
    assert_eq!(bias.numel(), spec.out_channels, "bias shape mismatch");
    let (oh, ow) = spec.out_size(h, w);
    let o = spec.out_channels;
    let ckk = c * k * k;
    let cols_w = n * oh * ow;
    let ops = o * ckk * cols_w;
    if ops < gemm::PACK_OPS_MIN {
        // Tiny problem: the unfused path already uses the naive reference
        // matmul here, and packing traffic would dominate.
        let (out, cols) = conv2d_forward(input, weight, bias, spec);
        cols.recycle();
        return out;
    }
    let shape = direct_geom(spec, n, (h, w), (oh, ow));
    let out = if shape.forward_is_direct(spec.stride) {
        let mut out = Tensor::scratch(&[n, o, oh, ow]);
        direct::forward(
            input.data(),
            weight.data(),
            bias.data(),
            out.data_mut(),
            &shape,
        );
        out
    } else {
        let geom = ColsGeom::new(spec, h, w);
        let wdata = weight.data();
        let idata = input.data();
        let mut out_mat = Tensor::scratch(&[o, cols_w]);
        gemm::gemm_packed(
            o,
            ckk,
            cols_w,
            &|dst: &mut [f32], ic, mc_eff, pc, kc_eff| {
                gemm::pack_a_rowmajor(dst, wdata, ckk, ic, mc_eff, pc, kc_eff)
            },
            &|dst: &mut [f32], pc, kc_eff, jc, nc_eff| {
                geom.pack_cols_panels(idata, dst, pc, kc_eff, jc, nc_eff)
            },
            out_mat.data_mut(),
        );
        let mut out = Tensor::scratch(&[n, o, oh, ow]);
        assemble_output(out.data_mut(), out_mat.data(), bias.data(), n, o, oh * ow);
        out_mat.recycle();
        out
    };
    #[cfg(debug_assertions)]
    if ops <= gemm::REF_CHECK_OPS_MAX {
        let (want, cols) = conv2d_forward(input, weight, bias, spec);
        cols.recycle();
        assert_same_bits(&out, &want, "fused conv2d forward");
        want.recycle();
    }
    out
}

/// Fused 2-D convolution backward pass.
///
/// Unlike [`conv2d_backward`] it takes the forward `input` instead of the
/// cached im2col matrix: the grad-weight GEMM regenerates the column entries
/// (transposed) directly into its packed B panels, and a stride-1 call
/// builds neither panels nor the `[O, N*oh*ow]` and `[C*k*k, N*oh*ow]`
/// gradient matrices ([`crate::direct`]). Gradients are bitwise identical
/// to the unfused path (asserted in debug builds for small problems).
///
/// # Panics
/// Panics on any shape mismatch.
pub fn conv2d_backward_fused(
    grad_out: &Tensor,
    input: &Tensor,
    weight: &Tensor,
    spec: &ConvSpec,
) -> Conv2dGrads {
    let dims = backward_dims(grad_out, input, spec);
    let direct_params = direct_param_grads(grad_out, input, spec, &dims);
    let direct_input = direct_input_grad(grad_out, weight, spec, &dims);
    // Only the GEMMs read the gradient as `[O, N*oh*ow]`.
    let grad_mat = (direct_params.is_none() || direct_input.is_none())
        .then(|| rearrange_grad(grad_out, dims.n, dims.o, dims.hw));
    let gemm_operand = || grad_mat.as_ref().expect("built for the GEMM path");
    let (grad_weight, grad_bias) =
        direct_params.unwrap_or_else(|| param_grads(gemm_operand(), input, spec, &dims));
    let grad_input = direct_input.unwrap_or_else(|| {
        let grad_cols = weight.matmul_tn(gemm_operand()); // [CKK, N*oh*ow]
        let grad_input = col2im(&grad_cols, spec, dims.n, dims.h, dims.w);
        grad_cols.recycle();
        grad_input
    });
    if let Some(grad_mat) = grad_mat {
        grad_mat.recycle();
    }
    #[cfg(debug_assertions)]
    if dims.ops() <= gemm::REF_CHECK_OPS_MAX {
        let cols = im2col(input, spec);
        let want = conv2d_backward(grad_out, &cols, weight, spec, (dims.h, dims.w));
        cols.recycle();
        assert_same_bits(&grad_input, &want.input, "fused conv2d backward grad_input");
        assert_same_bits(
            &grad_weight,
            &want.weight,
            "fused conv2d backward grad_weight",
        );
        assert_same_bits(&grad_bias, &want.bias, "fused conv2d backward grad_bias");
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
    let (grad_weight, grad_bias) =
        direct_param_grads(grad_out, input, spec, &dims).unwrap_or_else(|| {
            let grad_mat = rearrange_grad(grad_out, dims.n, dims.o, dims.hw);
            let grads = param_grads(&grad_mat, input, spec, &dims);
            grad_mat.recycle();
            grads
        });
    #[cfg(debug_assertions)]
    if dims.ops() <= gemm::REF_CHECK_OPS_MAX {
        // The parameter half of `conv2d_backward`, spelled out.
        let cols = im2col(input, spec);
        let grad_mat = rearrange_grad(grad_out, dims.n, dims.o, dims.hw);
        let want_weight = grad_mat.matmul_nt(&cols);
        let want_bias = bias_sums(&grad_mat, dims.n, dims.o, dims.hw);
        assert_same_bits(
            &grad_weight,
            &want_weight,
            "fused conv2d params grad_weight",
        );
        assert_same_bits(&grad_bias, &want_bias, "fused conv2d params grad_bias");
        cols.recycle();
        grad_mat.recycle();
    }
    (grad_weight, grad_bias)
}

/// Checked shapes of one fused backward call.
struct BackwardDims {
    n: usize,
    o: usize,
    h: usize,
    w: usize,
    oh: usize,
    ow: usize,
    /// `oh*ow`, output positions per sample.
    hw: usize,
    /// `C*k*k`, the depth of the virtual column matrix.
    ckk: usize,
}

impl BackwardDims {
    /// Multiply-adds of the grad-weight GEMM.
    fn ops(&self) -> usize {
        self.o * self.n * self.hw * self.ckk
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

/// Shapes of a convolution call as the direct kernels take them.
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

/// The parameter gradients from the direct kernels, when the call's shape
/// is theirs: they read `grad_out` `[N, O, oh, ow]` as it lies, so no
/// `grad_mat` is built for them.
fn direct_param_grads(
    grad_out: &Tensor,
    input: &Tensor,
    spec: &ConvSpec,
    dims: &BackwardDims,
) -> Option<(Tensor, Tensor)> {
    let shape = direct_geom(spec, dims.n, (dims.h, dims.w), (dims.oh, dims.ow));
    if dims.ops() < gemm::PACK_OPS_MIN || !shape.param_grads_are_direct(spec.stride) {
        return None;
    }
    let mut grad_weight = Tensor::scratch(&[dims.o, dims.ckk]);
    let mut grad_bias = Tensor::scratch(&[dims.o]);
    direct::param_grads(
        grad_out.data(),
        input.data(),
        grad_weight.data_mut(),
        grad_bias.data_mut(),
        &shape,
    );
    Some((grad_weight, grad_bias))
}

/// The input gradient from the direct kernel, when the call's shape is its.
fn direct_input_grad(
    grad_out: &Tensor,
    weight: &Tensor,
    spec: &ConvSpec,
    dims: &BackwardDims,
) -> Option<Tensor> {
    let shape = direct_geom(spec, dims.n, (dims.h, dims.w), (dims.oh, dims.ow));
    if dims.ops() < gemm::PACK_OPS_MIN || !shape.input_grad_is_direct(spec.stride) {
        return None;
    }
    assert_eq!(weight.shape(), &[dims.o, dims.ckk], "weight shape mismatch");
    let mut grad_input = Tensor::scratch(&[dims.n, spec.in_channels, dims.h, dims.w]);
    direct::input_grad(
        grad_out.data(),
        weight.data(),
        grad_input.data_mut(),
        &shape,
    );
    Some(grad_input)
}

/// `grad_weight = grad_mat [O, N*hw] · colsᵀ [N*hw, CKK]` with the column
/// entries generated into the packed B panels, and the bias row sums.
fn param_grads(
    grad_mat: &Tensor,
    input: &Tensor,
    spec: &ConvSpec,
    dims: &BackwardDims,
) -> (Tensor, Tensor) {
    let o = dims.o;
    let cols_w = dims.n * dims.hw;
    let grad_bias = bias_sums(grad_mat, dims.n, o, dims.hw);
    if dims.ops() < gemm::PACK_OPS_MIN {
        // Tiny problem: `matmul_nt` takes the naive reference kernel here.
        let cols = im2col(input, spec);
        let grad_weight = grad_mat.matmul_nt(&cols);
        cols.recycle();
        return (grad_weight, grad_bias);
    }
    let geom = ColsGeom::new(spec, dims.h, dims.w);
    let gm = grad_mat.data();
    let idata = input.data();
    let mut grad_weight = Tensor::scratch(&[o, dims.ckk]);
    gemm::gemm_packed(
        o,
        cols_w,
        dims.ckk,
        &|dst: &mut [f32], ic, mc_eff, pc, kc_eff| {
            gemm::pack_a_rowmajor(dst, gm, cols_w, ic, mc_eff, pc, kc_eff)
        },
        &|dst: &mut [f32], pc, kc_eff, jc, nc_eff| {
            geom.pack_cols_t_panels(idata, dst, pc, kc_eff, jc, nc_eff)
        },
        grad_weight.data_mut(),
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

    /// The packers the run-based ones replaced, verbatim, kept as their
    /// oracle: index divisions per span or per entry, a bounds test per
    /// entry.
    impl ColsGeom {
        fn fill_row_span(&self, data: &[f32], row: usize, col0: usize, dst: &mut [f32]) {
            let (ci, ky, kx) = self.row_parts(row);
            let ohw = self.oh * self.ow;
            let mut j = 0;
            while j < dst.len() {
                let col = col0 + j;
                let ni = col / ohw;
                let rem = col % ohw;
                let (oy, ox0) = (rem / self.ow, rem % self.ow);
                let run = (self.ow - ox0).min(dst.len() - j);
                let iy = (oy * self.stride) as isize + ky as isize - self.pad;
                if iy < 0 || iy >= self.h as isize {
                    dst[j..j + run].fill(0.0);
                } else {
                    let in_row =
                        &data[((ni * self.c + ci) * self.h + iy as usize) * self.w..][..self.w];
                    for (t, d) in dst[j..j + run].iter_mut().enumerate() {
                        let ix = ((ox0 + t) * self.stride) as isize + kx as isize - self.pad;
                        *d = if ix < 0 || ix >= self.w as isize {
                            0.0
                        } else {
                            in_row[ix as usize]
                        };
                    }
                }
                j += run;
            }
        }

        fn pack_cols_panels_oracle(
            &self,
            data: &[f32],
            dst: &mut [f32],
            pc: usize,
            kc_eff: usize,
            jc: usize,
            nc_eff: usize,
        ) {
            for (jr, panel) in dst.chunks_exact_mut(kc_eff * gemm::NR).enumerate() {
                let cols_n = gemm::NR.min(nc_eff - jr * gemm::NR);
                let col0 = jc + jr * gemm::NR;
                for p in 0..kc_eff {
                    let out = &mut panel[p * gemm::NR..(p + 1) * gemm::NR];
                    self.fill_row_span(data, pc + p, col0, &mut out[..cols_n]);
                    out[cols_n..].fill(0.0);
                }
            }
        }

        fn pack_cols_t_panels_oracle(
            &self,
            data: &[f32],
            dst: &mut [f32],
            pc: usize,
            kc_eff: usize,
            jc: usize,
            nc_eff: usize,
        ) {
            let ohw = self.oh * self.ow;
            for (jr, panel) in dst.chunks_exact_mut(kc_eff * gemm::NR).enumerate() {
                let cols_n = gemm::NR.min(nc_eff - jr * gemm::NR);
                let mut rows = [(0usize, 0usize, 0usize); gemm::NR];
                for (j, r) in rows.iter_mut().enumerate().take(cols_n) {
                    *r = self.row_parts(jc + jr * gemm::NR + j);
                }
                for p in 0..kc_eff {
                    let col = pc + p;
                    let ni = col / ohw;
                    let rem = col % ohw;
                    let (oy, ox) = (rem / self.ow, rem % self.ow);
                    let out = &mut panel[p * gemm::NR..(p + 1) * gemm::NR];
                    for (o, &(ci, ky, kx)) in out.iter_mut().zip(&rows).take(cols_n) {
                        let iy = (oy * self.stride) as isize + ky as isize - self.pad;
                        let ix = (ox * self.stride) as isize + kx as isize - self.pad;
                        *o = if iy < 0 || iy >= self.h as isize || ix < 0 || ix >= self.w as isize {
                            0.0
                        } else {
                            data[((ni * self.c + ci) * self.h + iy as usize) * self.w + ix as usize]
                        };
                    }
                    out[cols_n..].fill(0.0);
                }
            }
        }
    }

    /// Every geometry of the conv test grid that has a non-empty output:
    /// runs shorter than, equal to and longer than NR, panels that straddle
    /// a sample boundary, `cols_w` not a multiple of NR or NC.
    fn geometry_grid() -> Vec<(ConvSpec, [usize; 4])> {
        let mut grid = Vec::new();
        for kernel in [1usize, 3, 5] {
            for stride in [1usize, 2] {
                for padding in [0usize, 1, 2] {
                    for hw in [4usize, 5, 8, 9, 16] {
                        for n in [1usize, 3, 16] {
                            if hw + 2 * padding < kernel {
                                continue;
                            }
                            let spec = ConvSpec {
                                in_channels: 3,
                                out_channels: 4,
                                kernel,
                                stride,
                                padding,
                            };
                            grid.push((spec, [n, 3, hw, hw]));
                        }
                    }
                }
            }
        }
        grid
    }

    #[test]
    fn run_packers_match_per_element_oracle_byte_for_byte() {
        for (spec, shape) in geometry_grid() {
            let [n, c, h, w] = shape;
            // Distinct non-zero values: a misplaced or wrongly padded entry
            // cannot coincide with the right one.
            let data: Vec<f32> = (0..n * c * h * w).map(|i| i as f32 + 1.0).collect();
            let geom = ColsGeom::new(&spec, h, w);
            let ckk = c * spec.kernel * spec.kernel;
            let cols_w = n * geom.oh * geom.ow;
            type Packer = fn(&ColsGeom, &[f32], &mut [f32], usize, usize, usize, usize);
            let cases: [(&str, usize, usize, Packer, Packer); 2] = [
                (
                    "cols",
                    ckk,
                    cols_w,
                    ColsGeom::pack_cols_panels,
                    ColsGeom::pack_cols_panels_oracle,
                ),
                (
                    "cols_t",
                    cols_w,
                    ckk,
                    ColsGeom::pack_cols_t_panels,
                    ColsGeom::pack_cols_t_panels_oracle,
                ),
            ];
            for (what, depth, width, new, oracle) in cases {
                // The GEMM's own (KC, NC) block grid, then one block that
                // starts mid-kernel-row and mid-output-row.
                let mut blocks = Vec::new();
                for pc in (0..depth).step_by(gemm::KC) {
                    for jc in (0..width).step_by(gemm::NC) {
                        blocks.push((pc, gemm::KC.min(depth - pc), jc, gemm::NC.min(width - jc)));
                    }
                }
                if depth > 3 && width > 5 {
                    blocks.push((3, depth - 3, 5, (width - 5).min(gemm::NC + 3)));
                }
                for (pc, kc_eff, jc, nc_eff) in blocks {
                    let len = nc_eff.div_ceil(gemm::NR) * gemm::NR * kc_eff;
                    let mut got = vec![f32::NAN; len];
                    let mut want = vec![f32::NAN; len];
                    new(&geom, &data, &mut got, pc, kc_eff, jc, nc_eff);
                    oracle(&geom, &data, &mut want, pc, kc_eff, jc, nc_eff);
                    for (i, (g, r)) in got.iter().zip(&want).enumerate() {
                        assert_eq!(
                            g.to_bits(),
                            r.to_bits(),
                            "{what} {spec:?} {shape:?} block pc={pc} kc={kc_eff} jc={jc} \
                             nc={nc_eff}: entry {i}: {g} vs {r}"
                        );
                    }
                }
            }
        }
    }

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
        // Covers padded/strided geometry and a batch large enough that the
        // GEMM takes the packed path (ops >= PACK_OPS_MIN), across thread
        // counts. The debug-build parity assert inside the fused functions
        // double-checks every case too.
        for (spec, shape) in [
            (
                ConvSpec {
                    in_channels: 3,
                    out_channels: 5,
                    kernel: 3,
                    stride: 1,
                    padding: 1,
                },
                [4usize, 3, 9, 9],
            ),
            (
                ConvSpec {
                    in_channels: 2,
                    out_channels: 4,
                    kernel: 2,
                    stride: 2,
                    padding: 0,
                },
                [3, 2, 8, 8],
            ),
        ] {
            let input = det_input(&shape);
            let weight = det_input(&[
                spec.out_channels,
                spec.in_channels * spec.kernel * spec.kernel,
            ]);
            let bias = det_input(&[spec.out_channels]);
            let (want, cols) = conv2d_forward(&input, &weight, &bias, &spec);
            cols.recycle();
            for t in [1usize, 2, 7] {
                let got = apf_par::with_threads(t, || {
                    conv2d_forward_fused(&input, &weight, &bias, &spec)
                });
                assert_eq!(got.shape(), want.shape());
                for (g, r) in got.data().iter().zip(want.data()) {
                    assert_eq!(g.to_bits(), r.to_bits(), "threads={t}: {g} vs {r}");
                }
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
