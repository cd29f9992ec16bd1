//! Direct (packing-free) kernels for stride-1 convolutions with wide output
//! rows — the shapes where the im2col GEMM is bound by forming its panels,
//! not by the microkernel (LeNet-5 conv1 is `[6×75]·[75×4096]`: 12 flops
//! per packed element).
//!
//! Nothing is packed. The input is copied once into a zero-padded buffer
//! (`[N, C, H+2p, W+2p]`), after which every tap of every output position is
//! a plain offset into it:
//!
//! * **forward** keeps an [`OB`]-channel × 8/16-column tile of one output
//!   row in registers and walks the taps `(ci, ky, kx)` in ascending order,
//!   `acc = acc + w[o][tap] * x[tap]`, finishing with `+ bias` straight
//!   into `[N, O, oh, ow]`;
//! * **weight gradient** makes the lanes the `kx` taps of one `(ci, ky)`
//!   kernel row — eight consecutive padded-input floats starting at the
//!   output column — and walks the output positions `(n, oy, ox)` in
//!   ascending order, `acc = acc + g[o][pos] * x[pos + kx]`.
//!
//! # Determinism
//!
//! The argument is `gemm.rs`'s own. Every output scalar is one accumulator
//! that starts at `0.0`, takes its terms in the GEMM's ascending-`k` order
//! (taps forward, output positions for the weight gradient), and each term
//! is a `mul` then an `add`, never an FMA, with the operands in
//! `microkernel_avx`'s order. SIMD only widens across *independent*
//! outputs. Taps that fall in the zero padding are multiplied like any
//! other, so an `inf` weight still poisons the outputs whose im2col row
//! holds a padding zero. The results are therefore bit for bit those of
//! the im2col GEMM, at any thread count, on either tier (a NaN's sign and
//! payload excepted: LLVM may commute the operands of a `mul`).
//!
//! Edges never change a chain: a tile that would overhang the output row
//! is shifted back to end on it, and a tile short of channels or kernel
//! rows repeats its last one, so a few outputs are computed (and stored)
//! twice with the same bits. Weight-gradient lanes past `k` hold sums over
//! the neighbouring pixels and are dropped.
//!
//! The kernels are written once, over [`Lanes`]: `[f32; 8]` is the portable
//! definition, `__m256` the AVX tier chosen by [`gemm::use_avx`].

use crate::gemm;
use crate::scratch;
use crate::tensor::rows_per_block;

/// Floats per vector.
const LANES: usize = 8;
/// Output channels per register tile: 6 × 2 accumulators, 2 input vectors
/// and a broadcast fit AVX's 16 registers.
const OB: usize = 6;
/// Kernel rows `(ci, ky)` per weight-gradient tile (6 × 2 accumulators).
const ROWS: usize = 2;
/// Floats in one weight-gradient tile as it is handed back: `OB × ROWS`
/// vectors.
const TILE: usize = OB * ROWS * LANES;
/// Floats past the end of the padded input. A weight-gradient load is a
/// full vector starting at its output column, so on the last padded row it
/// runs `LANES - k` floats past the data.
const SLACK: usize = LANES;

/// Shapes of one direct call.
#[derive(Clone, Copy)]
pub(crate) struct Geom {
    pub n: usize,
    pub c: usize,
    pub h: usize,
    pub w: usize,
    pub o: usize,
    pub k: usize,
    pub pad: usize,
    pub oh: usize,
    pub ow: usize,
}

impl Geom {
    fn ph(&self) -> usize {
        self.h + 2 * self.pad
    }

    fn pw(&self) -> usize {
        self.w + 2 * self.pad
    }

    fn ckk(&self) -> usize {
        self.c * self.k * self.k
    }

    /// Whether the forward pass goes direct: unit stride (a tile's inputs
    /// are then consecutive floats) and an output row that fills a vector.
    pub(crate) fn forward_is_direct(&self, stride: usize) -> bool {
        stride == 1 && self.ow >= LANES
    }

    /// Whether the parameter gradients go direct: the forward rule, and a
    /// kernel row that fits one vector and fills more than half of it.
    pub(crate) fn param_grads_are_direct(&self, stride: usize) -> bool {
        self.forward_is_direct(stride) && self.k <= LANES && 2 * self.k > LANES
    }
}

/// One vector of [`LANES`] floats. `mul` and `add` round separately in
/// every lane, exactly as the scalar operators do.
///
/// # Safety
/// Every method requires that the host supports the instruction set of the
/// implementing type (none for `[f32; LANES]`).
trait Lanes: Copy {
    unsafe fn zero() -> Self;
    unsafe fn splat(v: f32) -> Self;
    unsafe fn load(src: &[f32; LANES]) -> Self;
    unsafe fn store(self, dst: &mut [f32; LANES]);
    unsafe fn mul(self, rhs: Self) -> Self;
    unsafe fn add(self, rhs: Self) -> Self;
}

impl Lanes for [f32; LANES] {
    #[inline(always)]
    unsafe fn zero() -> Self {
        [0.0; LANES]
    }

    #[inline(always)]
    unsafe fn splat(v: f32) -> Self {
        [v; LANES]
    }

    #[inline(always)]
    unsafe fn load(src: &[f32; LANES]) -> Self {
        *src
    }

    #[inline(always)]
    unsafe fn store(self, dst: &mut [f32; LANES]) {
        *dst = self;
    }

    #[inline(always)]
    unsafe fn mul(self, rhs: Self) -> Self {
        std::array::from_fn(|l| self[l] * rhs[l])
    }

    #[inline(always)]
    unsafe fn add(self, rhs: Self) -> Self {
        std::array::from_fn(|l| self[l] + rhs[l])
    }
}

/// The `OB` channels of the tile starting at channel `o0`, the last one
/// repeated where the layer runs out.
#[inline(always)]
fn tile_channels(o0: usize, o: usize) -> [usize; OB] {
    std::array::from_fn(|i| (o0 + i).min(o - 1))
}

/// Zero-padded copy of `input` `[N, C, H, W]` as `[N, C, ph, pw]`, plus
/// [`SLACK`] floats, from the scratch pool.
fn pad_input(input: &[f32], g: &Geom) -> Vec<f32> {
    let (ph, pw) = (g.ph(), g.pw());
    let plane = ph * pw;
    let body = g.n * g.c * plane;
    let mut padded = scratch::take(body + SLACK);
    // The weight gradient slices `ow + LANES - 1` floats from the start of
    // a padded row, `LANES - k` more than the row holds; from the last row
    // of the last plane that ends past `body`. Every such slice is bounds
    // checked where it is taken — this names the requirement up front.
    assert!(
        g.k >= 1 && padded.len() >= body + LANES - 1,
        "padded input lacks the slack for a trailing vector load"
    );
    let planes_per = rows_per_block(g.n * g.c, g.h * g.w);
    apf_par::par_chunks_mut(&mut padded[..body], planes_per * plane, |bi, block| {
        for (pi, dst) in block.chunks_mut(plane).enumerate() {
            let src = &input[(bi * planes_per + pi) * g.h * g.w..][..g.h * g.w];
            for (y, src_row) in src.chunks_exact(g.w).enumerate() {
                dst[(y + g.pad) * pw + g.pad..][..g.w].copy_from_slice(src_row);
            }
        }
    });
    padded
}

/// Direct forward pass into `out` `[N, O, oh, ow]`, parallel over blocks of
/// samples (each owns its output planes).
pub(crate) fn forward(input: &[f32], weight: &[f32], bias: &[f32], out: &mut [f32], g: &Geom) {
    assert!(
        g.ow >= LANES,
        "direct forward needs a vector-wide output row"
    );
    assert_eq!(weight.len(), g.o * g.ckk());
    assert_eq!(bias.len(), g.o);
    let padded = pad_input(input, g);
    let taps = tile_major(weight, g.o, g.ckk());
    let out_sample = g.o * g.oh * g.ow;
    let pad_sample = g.c * g.ph() * g.pw();
    let samples_per = rows_per_block(g.n, out_sample * g.ckk());
    apf_par::par_chunks_mut(out, samples_per * out_sample, |bi, block| {
        for (si, out_s) in block.chunks_mut(out_sample).enumerate() {
            let pad_s = &padded[(bi * samples_per + si) * pad_sample..][..pad_sample];
            forward_sample(out_s, pad_s, &taps, bias, g);
        }
    });
    scratch::give(taps);
    scratch::give(padded);
}

/// `src` `[o, len]` regrouped for the tiles as `[o.div_ceil(OB)][len][OB]`:
/// the `OB` channels of a tile side by side at every index, the last
/// channel repeated where the layer runs out.
fn tile_major(src: &[f32], o: usize, len: usize) -> Vec<f32> {
    let mut dst = scratch::take_reserved(o.div_ceil(OB) * len * OB);
    for o0 in (0..o).step_by(OB) {
        let chans = tile_channels(o0, o);
        for i in 0..len {
            dst.extend(chans.iter().map(|&ch| src[ch * len + i]));
        }
    }
    dst
}

/// One sample's `[O, oh, ow]` output from its padded `[C, ph, pw]` input.
fn forward_sample(out_s: &mut [f32], pad_s: &[f32], taps: &[f32], bias: &[f32], g: &Geom) {
    #[cfg(target_arch = "x86_64")]
    if gemm::use_avx() {
        // SAFETY: `use_avx()` detected AVX on this host.
        unsafe { x86::forward_sample_avx(out_s, pad_s, taps, bias, g) };
        return;
    }
    // SAFETY: the portable lanes need no instruction-set extension.
    unsafe { forward_sample_on::<[f32; LANES]>(out_s, pad_s, taps, bias, g) }
}

/// `taps` is the weight in [`tile_major`] order.
///
/// # Safety
/// The host must support `V`'s instruction set.
#[inline(always)]
unsafe fn forward_sample_on<V: Lanes>(
    out_s: &mut [f32],
    pad_s: &[f32],
    taps: &[f32],
    bias: &[f32],
    g: &Geom,
) {
    for (o0, tile_taps) in (0..g.o).step_by(OB).zip(taps.chunks_exact(g.ckk() * OB)) {
        let chans = tile_channels(o0, g.o);
        for oy in 0..g.oh {
            let mut ox = 0;
            while ox + 2 * LANES <= g.ow {
                forward_tile::<V, 2>(out_s, pad_s, tile_taps, bias, g, &chans, oy, ox);
                ox += 2 * LANES;
            }
            if g.ow - ox > LANES {
                forward_tile::<V, 1>(out_s, pad_s, tile_taps, bias, g, &chans, oy, ox);
            }
            if g.ow > ox {
                // The row's last vector, shifted back to end on the row.
                let ox = g.ow - LANES;
                forward_tile::<V, 1>(out_s, pad_s, tile_taps, bias, g, &chans, oy, ox);
            }
        }
    }
}

/// Output columns `ox..ox + NV*LANES` of row `oy` for the channels `chans`,
/// whose weights are `tile_taps` `[C*k*k][OB]`.
///
/// # Safety
/// The host must support `V`'s instruction set.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn forward_tile<V: Lanes, const NV: usize>(
    out_s: &mut [f32],
    pad_s: &[f32],
    tile_taps: &[f32],
    bias: &[f32],
    g: &Geom,
    chans: &[usize; OB],
    oy: usize,
    ox: usize,
) {
    let (k, ph, pw) = (g.k, g.ph(), g.pw());
    let mut acc = [[V::zero(); NV]; OB];
    // One kernel row `(ci, ky)` at a time: its `k` taps read `k` windows
    // of one padded row, each a column further right.
    for (row, row_taps) in tile_taps.chunks_exact(k * OB).enumerate() {
        let (ci, ky) = (row / k, row % k);
        let x_row = &pad_s[(ci * ph + oy + ky) * pw + ox..][..NV * LANES + k - 1];
        for (w, x) in row_taps.chunks_exact(OB).zip(x_row.windows(NV * LANES)) {
            let mut xs = [V::zero(); NV];
            for (xv, x8) in xs.iter_mut().zip(x.chunks_exact(LANES)) {
                *xv = V::load(x8.try_into().expect("LANES-wide chunk"));
            }
            for (a, &wv) in acc.iter_mut().zip(w) {
                let wv = V::splat(wv);
                for (av, &xv) in a.iter_mut().zip(&xs) {
                    *av = av.add(wv.mul(xv));
                }
            }
        }
    }
    for (a, &ch) in acc.iter().zip(chans) {
        let b = V::splat(bias[ch]);
        let dst = &mut out_s[(ch * g.oh + oy) * g.ow + ox..][..NV * LANES];
        for (av, dst8) in a.iter().zip(dst.chunks_exact_mut(LANES)) {
            av.add(b).store(dst8.try_into().expect("LANES-wide chunk"));
        }
    }
}

/// Direct parameter gradients: `grad_weight` `[O, C*k*k]`, parallel over
/// tiles of `OB` channels × `ROWS` kernel rows (each owns its outputs), and
/// `grad_bias` `[O]`.
pub(crate) fn param_grads(
    grad_out: &[f32],
    input: &[f32],
    grad_weight: &mut [f32],
    grad_bias: &mut [f32],
    g: &Geom,
) {
    assert!(g.k <= LANES, "direct weight gradient needs k <= LANES");
    assert_eq!(grad_out.len(), g.n * g.o * g.oh * g.ow);
    assert_eq!(grad_weight.len(), g.o * g.ckk());
    assert_eq!(grad_bias.len(), g.o);
    let padded = pad_input(input, g);
    let positions = g.n * g.oh * g.ow;
    let grads = grads_tile_major(grad_out, grad_bias, g);
    let kernel_rows = g.c * g.k;
    let row_tiles = kernel_rows.div_ceil(ROWS);
    let tiles_n = g.o.div_ceil(OB) * row_tiles;
    let mut tiles = scratch::take(tiles_n * TILE);
    let tiles_per = rows_per_block(tiles_n, TILE * positions);
    apf_par::par_chunks_mut(&mut tiles, tiles_per * TILE, |bi, block| {
        for (ti, tile) in block.chunks_mut(TILE).enumerate() {
            let t = bi * tiles_per + ti;
            let tile_grads = &grads[t / row_tiles * positions * OB..][..positions * OB];
            let rows = std::array::from_fn(|r| (t % row_tiles * ROWS + r).min(kernel_rows - 1));
            weight_grad_tile(tile, tile_grads, &padded, &rows, g);
        }
    });
    // Lanes `0..k` of each accumulator are one kernel row of one channel.
    for (t, tile) in tiles.chunks_exact(TILE).enumerate() {
        let (o0, row0) = (t / row_tiles * OB, t % row_tiles * ROWS);
        for (i, per_chan) in tile.chunks_exact(ROWS * LANES).enumerate() {
            for (r, lanes) in per_chan.chunks_exact(LANES).enumerate() {
                if o0 + i < g.o && row0 + r < kernel_rows {
                    grad_weight[(o0 + i) * g.ckk() + (row0 + r) * g.k..][..g.k]
                        .copy_from_slice(&lanes[..g.k]);
                }
            }
        }
    }
    scratch::give(tiles);
    scratch::give(grads);
    scratch::give(padded);
}

/// `grad_out` `[N, O, oh*ow]` regrouped for the tiles as
/// `[O.div_ceil(OB)][N*oh*ow][OB]` — a tile's `OB` gradients side by side at
/// every output position, the last channel repeated where the layer runs
/// out — and, from the same pass, the per-channel sums into `grad_bias`.
///
/// Each sum is `Iterator::sum`'s chain over its channel (from `-0.0`,
/// samples then positions ascending); a tile's chains advance in lock-step,
/// so no add waits on the previous one of its own chain.
fn grads_tile_major(grad_out: &[f32], grad_bias: &mut [f32], g: &Geom) -> Vec<f32> {
    let hw = g.oh * g.ow;
    let mut dst = scratch::take(g.o.div_ceil(OB) * g.n * hw * OB);
    for ((slab, sums), o0) in dst
        .chunks_exact_mut(g.n * hw * OB)
        .zip(grad_bias.chunks_mut(OB))
        .zip((0..g.o).step_by(OB))
    {
        let chans = tile_channels(o0, g.o);
        let mut acc = [-0.0f32; OB];
        for (ni, sample) in slab.chunks_exact_mut(hw * OB).enumerate() {
            let planes = chans.map(|ch| &grad_out[(ni * g.o + ch) * hw..][..hw]);
            for (p, side_by_side) in sample.chunks_exact_mut(OB).enumerate() {
                for ((d, a), plane) in side_by_side.iter_mut().zip(&mut acc).zip(&planes) {
                    *d = plane[p];
                    *a += plane[p];
                }
            }
        }
        sums.copy_from_slice(&acc[..sums.len()]);
    }
    dst
}

/// Accumulators of one tile's channels × the kernel rows `rows`
/// (`ci*k + ky`) over every output position, written to `tile` as
/// `[OB][ROWS][LANES]`. `tile_grads` is the tile's `[N*oh*ow][OB]` slab of
/// [`grads_tile_major`].
fn weight_grad_tile(
    tile: &mut [f32],
    tile_grads: &[f32],
    padded: &[f32],
    rows: &[usize; ROWS],
    g: &Geom,
) {
    #[cfg(target_arch = "x86_64")]
    if gemm::use_avx() {
        // SAFETY: `use_avx()` detected AVX on this host.
        unsafe { x86::weight_grad_tile_avx(tile, tile_grads, padded, rows, g) };
        return;
    }
    // SAFETY: the portable lanes need no instruction-set extension.
    unsafe { weight_grad_tile_on::<[f32; LANES]>(tile, tile_grads, padded, rows, g) }
}

/// # Safety
/// The host must support `V`'s instruction set.
#[inline(always)]
unsafe fn weight_grad_tile_on<V: Lanes>(
    tile: &mut [f32],
    tile_grads: &[f32],
    padded: &[f32],
    rows: &[usize; ROWS],
    g: &Geom,
) {
    let (k, ph, pw) = (g.k, g.ph(), g.pw());
    // Where each kernel row's taps for output position (0, 0) start within
    // a padded sample.
    let row_offs = rows.map(|row| (row / k * ph + row % k) * pw);
    let mut acc = [[V::zero(); ROWS]; OB];
    for (out_row, row_grads) in tile_grads.chunks_exact(g.ow * OB).enumerate() {
        let (ni, oy) = (out_row / g.oh, out_row % g.oh);
        let first = (ni * g.c * ph + oy) * pw;
        // Output column `ox` reads the vector at column `ox`; the one at
        // `ow - 1` of the last padded row ends in `pad_input`'s slack.
        let [x_row0, x_row1] = row_offs.map(|off| &padded[first + off..][..g.ow + LANES - 1]);
        for ((grads, x0), x1) in row_grads
            .chunks_exact(OB)
            .zip(x_row0.windows(LANES))
            .zip(x_row1.windows(LANES))
        {
            let xs = [x0, x1].map(|x| V::load(x.try_into().expect("LANES-wide window")));
            for (a, &gv) in acc.iter_mut().zip(grads) {
                let gv = V::splat(gv);
                for (av, &xv) in a.iter_mut().zip(&xs) {
                    *av = av.add(gv.mul(xv));
                }
            }
        }
    }
    for (a, dst) in acc.iter().zip(tile.chunks_exact_mut(ROWS * LANES)) {
        for (av, dst8) in a.iter().zip(dst.chunks_exact_mut(LANES)) {
            av.store(dst8.try_into().expect("LANES-wide chunk"));
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The AVX tier: the kernel bodies instantiated at `__m256` inside
    //! `#[target_feature(enable = "avx")]` entry points (they inline into
    //! them, intrinsics and all). `mul` + `add` only, never FMA.

    use super::{Geom, Lanes, LANES, ROWS};
    use std::arch::x86_64::*;

    impl Lanes for __m256 {
        #[inline(always)]
        unsafe fn zero() -> Self {
            _mm256_setzero_ps()
        }

        #[inline(always)]
        unsafe fn splat(v: f32) -> Self {
            _mm256_set1_ps(v)
        }

        #[inline(always)]
        unsafe fn load(src: &[f32; LANES]) -> Self {
            // An unaligned load of exactly the `LANES` = 8 floats of `src`.
            _mm256_loadu_ps(src.as_ptr())
        }

        #[inline(always)]
        unsafe fn store(self, dst: &mut [f32; LANES]) {
            // An unaligned store over exactly the `LANES` = 8 floats of `dst`.
            _mm256_storeu_ps(dst.as_mut_ptr(), self)
        }

        #[inline(always)]
        unsafe fn mul(self, rhs: Self) -> Self {
            _mm256_mul_ps(self, rhs)
        }

        #[inline(always)]
        unsafe fn add(self, rhs: Self) -> Self {
            _mm256_add_ps(self, rhs)
        }
    }

    /// # Safety
    /// Caller must ensure the host supports AVX.
    #[target_feature(enable = "avx")]
    pub(super) unsafe fn forward_sample_avx(
        out_s: &mut [f32],
        pad_s: &[f32],
        taps: &[f32],
        bias: &[f32],
        g: &Geom,
    ) {
        // SAFETY: the caller guarantees AVX, all that `__m256` lanes need.
        unsafe { super::forward_sample_on::<__m256>(out_s, pad_s, taps, bias, g) }
    }

    /// # Safety
    /// Caller must ensure the host supports AVX.
    #[target_feature(enable = "avx")]
    pub(super) unsafe fn weight_grad_tile_avx(
        tile: &mut [f32],
        tile_grads: &[f32],
        padded: &[f32],
        rows: &[usize; ROWS],
        g: &Geom,
    ) {
        // SAFETY: the caller guarantees AVX, all that `__m256` lanes need.
        unsafe { super::weight_grad_tile_on::<__m256>(tile, tile_grads, padded, rows, g) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo(len: usize, seed: u32) -> Vec<f32> {
        (0..len)
            .map(|i| ((i as f32 + seed as f32) * 0.173).sin())
            .collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Channel counts short of, equal to and past a tile; output rows that
    /// are one vector, two, and neither; kernels from one lane to all eight.
    fn geoms() -> Vec<Geom> {
        let mut out = Vec::new();
        for (c, o, k, pad, hw) in [
            (3, 6, 5, 2, 16),
            (1, 1, 1, 0, 8),
            (2, 7, 3, 1, 9),
            (3, 13, 7, 3, 17),
            (1, 5, 8, 2, 24),
            (2, 6, 6, 0, 20),
        ] {
            let side = hw + 2 * pad + 1 - k;
            out.push(Geom {
                n: 2,
                c,
                h: hw,
                w: hw,
                o,
                k,
                pad,
                oh: side,
                ow: side,
            });
        }
        out
    }

    #[test]
    fn every_tier_matches_the_portable_lanes_bitwise() {
        // The dispatchers pick one tier per host, so without this the
        // portable bodies would run in no test on an AVX machine.
        for g in geoms() {
            let input = pseudo(g.n * g.c * g.h * g.w, 3);
            let padded = pad_input(&input, &g);
            let pad_sample = g.c * g.ph() * g.pw();
            let weight = pseudo(g.o * g.ckk(), 7);
            let taps = tile_major(&weight, g.o, g.ckk());
            let bias = pseudo(g.o, 11);
            let out_len = g.o * g.oh * g.ow;
            let forward = |f: &dyn Fn(&mut [f32], &[f32])| {
                let mut out = vec![f32::NAN; out_len]; // dirty: every slot is written
                f(&mut out, &padded[pad_sample..][..pad_sample]);
                bits(&out)
            };
            // SAFETY: the portable lanes need no instruction-set extension.
            let want = forward(&|out, pad_s| unsafe {
                forward_sample_on::<[f32; LANES]>(out, pad_s, &taps, &bias, &g)
            });
            let dispatched = forward(&|out, pad_s| forward_sample(out, pad_s, &taps, &bias, &g));
            assert_eq!(
                dispatched,
                want,
                "forward, dispatched, {:?}",
                (g.o, g.k, g.ow)
            );

            let grad_out = pseudo(g.n * out_len, 13);
            let mut grad_bias = vec![0.0; g.o];
            let grads = grads_tile_major(&grad_out, &mut grad_bias, &g);
            let tile_grads = &grads[..g.n * g.oh * g.ow * OB];
            let rows = [g.c * g.k - 1, 0];
            let tile_of = |f: &dyn Fn(&mut [f32])| {
                let mut tile = vec![f32::NAN; TILE];
                f(&mut tile);
                bits(&tile)
            };
            // SAFETY: as above.
            let want_tile = tile_of(&|tile| unsafe {
                weight_grad_tile_on::<[f32; LANES]>(tile, tile_grads, &padded, &rows, &g)
            });
            let dispatched =
                tile_of(&|tile| weight_grad_tile(tile, tile_grads, &padded, &rows, &g));
            assert_eq!(
                dispatched, want_tile,
                "weight gradient, dispatched, k={}",
                g.k
            );

            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx") {
                // SAFETY: AVX was just detected on this host.
                let avx = forward(&|out, pad_s| unsafe {
                    x86::forward_sample_avx(out, pad_s, &taps, &bias, &g)
                });
                assert_eq!(avx, want, "forward, avx, {:?}", (g.o, g.k, g.ow));
                // SAFETY: as above.
                let avx = tile_of(&|tile| unsafe {
                    x86::weight_grad_tile_avx(tile, tile_grads, &padded, &rows, &g)
                });
                assert_eq!(avx, want_tile, "weight gradient, avx, k={}", g.k);
            }
            scratch::give(grads);
            scratch::give(taps);
            scratch::give(padded);
        }
    }

    #[test]
    fn bias_sums_are_the_sum_of_each_channel_from_negative_zero() {
        // All-negative-zero gradients tell `-0.0` (what `Iterator::sum`
        // folds from, and the unfused path with it) from `0.0`.
        let g = Geom {
            n: 2,
            c: 1,
            h: 8,
            w: 8,
            o: 7,
            k: 1,
            pad: 0,
            oh: 8,
            ow: 8,
        };
        let hw = g.oh * g.ow;
        let mut grad_out = pseudo(g.n * g.o * hw, 5);
        for ni in 0..g.n {
            grad_out[(ni * g.o + 3) * hw..][..hw].fill(-0.0);
        }
        let mut got = vec![f32::NAN; g.o];
        scratch::give(grads_tile_major(&grad_out, &mut got, &g));
        for (ch, got) in got.iter().enumerate() {
            let want: f32 = (0..g.n)
                .flat_map(|ni| &grad_out[(ni * g.o + ch) * hw..][..hw])
                .sum();
            assert_eq!(got.to_bits(), want.to_bits(), "channel {ch}");
        }
        assert_eq!(got[3].to_bits(), (-0.0f32).to_bits());
    }
}
