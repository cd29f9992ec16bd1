//! Batch-row kernels: the products whose row count is one client's
//! mini-batch (at most [`BATCH_ROWS_MAX`]). At those sizes the packed GEMM
//! is bound by packing an operand it then uses only a batch's worth of
//! times, and the weight gradient by a model-sized temporary that is added
//! into the gradient arena afterwards. Nothing here is packed:
//!
//! * **batch lanes** (the forward `x·Wᵀ`, `matmul_nt`): the lanes are the
//!   batch rows. `x` `[m, k]` is transposed once into a pool buffer (idle
//!   lanes zero), and `W` `[n, k]` is read where it lies, one broadcast
//!   scalar per term: `acc[j] = acc[j] + xᵀ[p] * splat(w[j][p])` for
//!   ascending `p`, over a tile of [`COLS`] output columns `j`;
//! * **row lanes** (the accumulated weight gradient `C += Aᵀ·B`,
//!   `matmul_tn_add`, whose depth is the batch): the lanes run along a row
//!   of `B`, and `A` is the broadcast: `acc[r] = acc[r] + splat(a[p][r]) *
//!   b[p][j..]` for ascending `p`, over a tile of [`ROWS`] output rows ×
//!   [`VECS`] vectors, after which `C = C + acc`. The product never exists
//!   as a tensor of its own.
//!
//! # Determinism
//!
//! The argument is `gemm.rs`'s and `direct.rs`'s. Every output is one
//! accumulator that starts at `0.0` and takes its terms in ascending depth
//! order, each term a `mul` then an `add`, never an FMA, with the operands
//! in the reference kernels' order; SIMD only widens across independent
//! outputs. So the forward is bit for bit `matmul_nt_reference`, and the
//! accumulated product is bit for bit `axpy(c, 1.0, matmul_tn(a, b))`: the
//! finished chain is added to `C` once, and `1.0 * x` is `x` (a NaN's sign
//! and payload excepted here as there). Blocks split the outputs, never a
//! chain, so any thread count gives the same bits.
//!
//! Edges never change a chain either: a forward tile short of columns
//! repeats its last one (stored twice with the same bits), a row-lane tile
//! short of rows repeats its last one and adds it once, and the columns
//! past the last whole vector run the same chain one scalar at a time.

use crate::gemm;
use crate::lanes::{load_vectors, Lanes, LANES};
use crate::scratch;
use crate::tensor::rows_per_block;

/// Largest row count (the forward) or depth (the accumulated product) the
/// kernels here take; larger batches go to the packed GEMM. At 16 both
/// kernels also beat the packed path (PERFLOG.md "Batch-row kernels"), but
/// LeNet-5's batch-16 training then shifts the scratch pool's best fits
/// enough to raise its peak resident memory by 0.85 MB.
pub(crate) const BATCH_ROWS_MAX: usize = LANES;
/// Output columns per batch-lane tile: one accumulator each, beside the
/// input vector and a broadcast.
const COLS: usize = 8;
/// Output rows per row-lane tile.
const ROWS: usize = 4;
/// Vectors per row of a row-lane tile: `ROWS × VECS` accumulators, `VECS`
/// loads of `B` and a broadcast fit AVX's 16 registers.
const VECS: usize = 3;

/// `out = x · wᵀ` for `x` `[m, k]` and `w` `[n, k]`, `1 ≤ m ≤
/// BATCH_ROWS_MAX`; `out` `[m, n]` is overwritten.
pub(crate) fn nt(x: &[f32], w: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    assert!((1..=BATCH_ROWS_MAX).contains(&m), "batch of {m} rows");
    assert_eq!(x.len(), m * k, "batch-lane lhs length");
    assert_eq!(w.len(), n * k, "batch-lane rhs length");
    assert_eq!(out.len(), m * n, "batch-lane output length");
    // One pool buffer: `x` transposed, `[k][LANES]` (lane `i` of vector `p`
    // is `x[i][p]`), then the output transposed, `[n][LANES]`, so that a
    // block of columns owns a contiguous run of it.
    let mut buf = scratch::take((k + n) * LANES);
    let (xt, ot) = buf.split_at_mut(k * LANES);
    for (i, row) in x.chunks(k.max(1)).enumerate() {
        for (p, &v) in row.iter().enumerate() {
            xt[p * LANES + i] = v;
        }
    }
    let cols_per = rows_per_block(n, k * LANES);
    apf_par::par_chunks_mut(ot, cols_per * LANES, |bi, block| {
        let w_b = &w[bi * cols_per * k..][..block.len() / LANES * k];
        batch_lane_block(block, xt, w_b, k);
    });
    for (j, lanes) in ot.chunks_exact(LANES).enumerate() {
        for (i, &v) in lanes[..m].iter().enumerate() {
            out[i * n + j] = v;
        }
    }
    scratch::give(buf);
}

/// One block of columns: `ot` `[cols][LANES]` from `xt` `[k][LANES]` and
/// the block's rows of `w` `[cols, k]`.
fn batch_lane_block(ot: &mut [f32], xt: &[f32], w: &[f32], k: usize) {
    #[cfg(target_arch = "x86_64")]
    if gemm::use_avx() {
        // SAFETY: `use_avx()` detected AVX on this host.
        unsafe { x86::batch_lane_block_avx(ot, xt, w, k) };
        return;
    }
    // SAFETY: the portable lanes need no instruction-set extension.
    unsafe { batch_lane_block_on::<[f32; LANES]>(ot, xt, w, k) }
}

/// # Safety
/// The host must support `V`'s instruction set.
#[inline(always)]
unsafe fn batch_lane_block_on<V: Lanes>(ot: &mut [f32], xt: &[f32], w: &[f32], k: usize) {
    let cols = ot.len() / LANES;
    let xt = &xt[..k * LANES];
    for j0 in (0..cols).step_by(COLS) {
        let js: [usize; COLS] = std::array::from_fn(|c| (j0 + c).min(cols - 1));
        let ws = js.map(|j| &w[j * k..][..k]);
        let mut acc = [V::zero(); COLS];
        for (xp, p) in xt.chunks_exact(LANES).zip(0..k) {
            let xv = V::load(xp.try_into().expect("LANES-wide chunk"));
            for (a, wj) in acc.iter_mut().zip(&ws) {
                *a = a.add(xv.mul(V::splat(wj[p])));
            }
        }
        for (a, &j) in acc.iter().zip(&js) {
            a.store(
                (&mut ot[j * LANES..][..LANES])
                    .try_into()
                    .expect("LANES-wide chunk"),
            );
        }
    }
}

/// `c += aᵀ · b` for `a` `[k, m]`, `b` `[k, n]` and `c` `[m, n]`,
/// `k ≤ BATCH_ROWS_MAX`: each output's chain over `k` from `0.0`, then one
/// add into `c`.
pub(crate) fn tn_add(c: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    assert!(k <= BATCH_ROWS_MAX, "depth of {k} rows");
    assert_eq!(a.len(), k * m, "row-lane lhs length");
    assert_eq!(b.len(), k * n, "row-lane rhs length");
    assert_eq!(c.len(), m * n, "row-lane output length");
    if n == 0 {
        return;
    }
    let rows_per = rows_per_block(m, k * n);
    apf_par::par_chunks_mut(c, rows_per * n, |bi, block| {
        let rows = RowLanes {
            a,
            m,
            r0: bi * rows_per,
            b,
            k,
            n,
        };
        row_lane_block(block, &rows);
    });
}

/// The operands of one row-lane product: output row `r` is
/// `Σ_p a[p*m + r] * b[p][..]`, and a block's row `i` is output row
/// `r0 + i`.
struct RowLanes<'a> {
    a: &'a [f32],
    m: usize,
    r0: usize,
    b: &'a [f32],
    k: usize,
    n: usize,
}

impl RowLanes<'_> {
    /// `A`'s entry at depth `p` for the block's row `i`.
    #[inline(always)]
    fn a(&self, p: usize, i: usize) -> f32 {
        self.a[p * self.m + self.r0 + i]
    }
}

fn row_lane_block(c: &mut [f32], ops: &RowLanes) {
    #[cfg(target_arch = "x86_64")]
    if gemm::use_avx() {
        // SAFETY: `use_avx()` detected AVX on this host.
        unsafe { x86::row_lane_block_avx(c, ops) };
        return;
    }
    // SAFETY: the portable lanes need no instruction-set extension.
    unsafe { row_lane_block_on::<[f32; LANES]>(c, ops) }
}

/// # Safety
/// The host must support `V`'s instruction set.
#[inline(always)]
unsafe fn row_lane_block_on<V: Lanes>(c: &mut [f32], ops: &RowLanes) {
    let n = ops.n;
    let rows = c.len() / n;
    for i0 in (0..rows).step_by(ROWS) {
        let live = ROWS.min(rows - i0);
        let is: [usize; ROWS] = std::array::from_fn(|r| i0 + r.min(live - 1));
        let mut j = 0;
        while j + VECS * LANES <= n {
            row_lane_tile::<V, VECS>(c, ops, &is, live, j, 0);
            j += VECS * LANES;
        }
        while j + LANES <= n {
            row_lane_tile::<V, 1>(c, ops, &is, live, j, 0);
            j += LANES;
        }
        if j == n {
            continue;
        }
        if n >= LANES {
            // The row's last vector, shifted back to end on it: its first
            // lanes were added above.
            row_lane_tile::<V, 1>(c, ops, &is, live, n - LANES, LANES - (n - j));
            continue;
        }
        // A row narrower than a vector: the same chains, a scalar at a time.
        for &i in &is[..live] {
            for jj in 0..n {
                let mut acc = 0.0f32;
                for p in 0..ops.k {
                    acc += ops.a(p, i) * ops.b[p * n + jj];
                }
                c[i * n + jj] += acc;
            }
        }
    }
}

/// Columns `j..j + NV*LANES` of the block's rows `is`, of which the first
/// `live` are distinct and added into `c`, except a vector's first `done`
/// lanes (an earlier tile added those).
///
/// # Safety
/// The host must support `V`'s instruction set.
#[inline(always)]
unsafe fn row_lane_tile<V: Lanes, const NV: usize>(
    c: &mut [f32],
    ops: &RowLanes,
    is: &[usize; ROWS],
    live: usize,
    j: usize,
    done: usize,
) {
    let n = ops.n;
    let mut acc = [[V::zero(); NV]; ROWS];
    for p in 0..ops.k {
        let bs: [V; NV] = load_vectors(&ops.b[p * n + j..]);
        for (a, &i) in acc.iter_mut().zip(is) {
            let av = V::splat(ops.a(p, i));
            for (acc_v, &bv) in a.iter_mut().zip(&bs) {
                *acc_v = acc_v.add(av.mul(bv));
            }
        }
    }
    for (a, &i) in acc.iter().zip(is).take(live) {
        let dst = &mut c[i * n + j..][..NV * LANES];
        for (acc_v, dst8) in a.iter().zip(dst.chunks_exact_mut(LANES)) {
            let dst8: &mut [f32; LANES] = dst8.try_into().expect("LANES-wide chunk");
            let sum = V::load(dst8).add(*acc_v);
            if done == 0 {
                sum.store(dst8);
            } else {
                let mut lanes = [0.0; LANES];
                sum.store(&mut lanes);
                dst8[done..].copy_from_slice(&lanes[done..]);
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The AVX tier: the kernel bodies instantiated at `__m256` inside
    //! `#[target_feature(enable = "avx")]` entry points.

    use super::RowLanes;
    use std::arch::x86_64::__m256;

    /// # Safety
    /// Caller must ensure the host supports AVX.
    #[target_feature(enable = "avx")]
    pub(super) unsafe fn batch_lane_block_avx(ot: &mut [f32], xt: &[f32], w: &[f32], k: usize) {
        // SAFETY: the caller guarantees AVX, all that `__m256` lanes need.
        unsafe { super::batch_lane_block_on::<__m256>(ot, xt, w, k) }
    }

    /// # Safety
    /// Caller must ensure the host supports AVX.
    #[target_feature(enable = "avx")]
    pub(super) unsafe fn row_lane_block_avx(c: &mut [f32], ops: &RowLanes) {
        // SAFETY: the caller guarantees AVX, all that `__m256` lanes need.
        unsafe { super::row_lane_block_on::<__m256>(c, ops) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{axpy, matmul_nt_slices, matmul_tn_add, seeded_rng, Tensor};
    use apf_testkit::{prop_assert, property, u64s, usizes};

    /// `len` entries in `[-10, 10)`, with `±0.0` (one in 16) and `±inf` and
    /// NaN (one in 512 each) mixed in.
    fn entries(len: usize, seed: u64) -> Vec<f32> {
        let mut rng = seeded_rng(seed);
        (0..len)
            .map(|_| match rng.gen_range(0u32..512) {
                0 => f32::INFINITY,
                1 => f32::NEG_INFINITY,
                2 => f32::NAN,
                r if r < 3 + 32 => [0.0, -0.0][r as usize % 2],
                _ => rng.gen_range(-10.0f32..10.0),
            })
            .collect()
    }

    /// Bit for bit, a NaN standing wherever `want` has one (its sign and
    /// payload are not pinned: LLVM may commute the operands of a `mul`).
    fn same_bits(got: &[f32], want: &[f32]) -> bool {
        got.len() == want.len()
            && got
                .iter()
                .zip(want)
                .all(|(g, w)| g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()))
    }

    /// The forward `x·wᵀ` through `matmul_nt` and through [`nt`] itself,
    /// and the weight gradient `grads += gᵀ·x` through `matmul_tn_add`,
    /// against the reference kernels (plus `axpy`) at 1, 2 and 7 threads.
    /// `x` is `[m, k]`, `w` `[n, k]`, `g` `[m, n]`.
    fn check(m: usize, k: usize, n: usize, seed: u64) -> Result<(), String> {
        let x = Tensor::from_vec(entries(m * k, seed), &[m, k]);
        let w = Tensor::from_vec(entries(n * k, seed ^ 0xB), &[n, k]);
        let g = Tensor::from_vec(entries(m * n, seed ^ 0x6), &[m, n]);
        let arena = entries(n * k, seed ^ 0xA);
        let want_out = x.matmul_nt_reference(&w);
        let mut want_grads = arena.clone();
        axpy(&mut want_grads, 1.0, g.matmul_tn_reference(&x).data());
        for t in [1usize, 2, 7] {
            let what = format!("m={m} k={k} n={n} threads={t}");
            let (out, direct, grads) = apf_par::with_threads(t, || {
                let out = matmul_nt_slices(x.data(), w.data(), m, k, n);
                let mut direct = want_out.data().to_vec();
                if m <= BATCH_ROWS_MAX {
                    direct.fill(f32::NAN);
                    nt(x.data(), w.data(), m, k, n, &mut direct);
                }
                let mut grads = arena.clone();
                matmul_tn_add(&mut grads, g.data(), x.data(), n, m, k);
                (out, direct, grads)
            });
            if !same_bits(out.data(), want_out.data()) {
                return Err(format!("matmul_nt {what}"));
            }
            if !same_bits(&direct, want_out.data()) {
                return Err(format!("batch-lane forward {what}"));
            }
            if !same_bits(&grads, &want_grads) {
                return Err(format!("matmul_tn_add {what}"));
            }
        }
        Ok(())
    }

    property! {
        fn batch_row_kernels_match_the_references_bitwise(
            // One batch past the largest the kernels take: both sides of
            // the dispatch.
            m in usizes(1..BATCH_ROWS_MAX + 2),
            k in usizes(0..60),
            n in usizes(1..70),
            seed in u64s(0..1000),
        ) {
            let checked = check(m, k, n, seed);
            prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
        }
    }

    #[test]
    fn program_shapes_match_the_references_bitwise() {
        // Large enough to split into blocks across the pool: the MLP's first
        // layer at batch 8, the LSTM's recurrent product at batch 16 (the
        // packed side of the dispatch) and a ragged one.
        for (m, k, n) in [(8, 768, 40), (16, 64, 256), (3, 301, 77)] {
            check(m, k, n, 5).unwrap();
        }
    }

    #[test]
    fn every_tier_matches_the_portable_lanes_bitwise() {
        // The dispatchers pick one tier per host, so without this the
        // portable bodies would run in no test on an AVX machine.
        let avx = cfg!(target_arch = "x86_64") && gemm::use_avx();
        for (m, k, n) in [(1usize, 5, 3), (8, 37, 19), (6, 9, 12), (8, 64, 33)] {
            let xt = entries(k * LANES, 1);
            let w = entries(n * k, 2);
            let a = entries(k * n, 3);
            let b = entries(k * m, 4);
            let arena = entries(n * m, 5);
            // SAFETY: the portable lanes need no instruction-set extension.
            let want = unsafe {
                let mut ot = vec![f32::NAN; n * LANES];
                batch_lane_block_on::<[f32; LANES]>(&mut ot, &xt, &w, k);
                let ops = RowLanes {
                    a: &a,
                    m: n,
                    r0: 0,
                    b: &b,
                    k,
                    n: m,
                };
                let mut c = arena.clone();
                row_lane_block_on::<[f32; LANES]>(&mut c, &ops);
                (ot, c)
            };
            #[cfg(target_arch = "x86_64")]
            if avx {
                // SAFETY: `use_avx()` detected AVX on this host.
                let got = unsafe {
                    let mut ot = vec![f32::NAN; n * LANES];
                    x86::batch_lane_block_avx(&mut ot, &xt, &w, k);
                    let ops = RowLanes {
                        a: &a,
                        m: n,
                        r0: 0,
                        b: &b,
                        k,
                        n: m,
                    };
                    let mut c = arena.clone();
                    x86::row_lane_block_avx(&mut c, &ops);
                    (ot, c)
                };
                assert!(same_bits(&got.0, &want.0), "batch lanes {m}x{k}x{n}");
                assert!(same_bits(&got.1, &want.1), "row lanes {m}x{k}x{n}");
            }
        }
    }
}
