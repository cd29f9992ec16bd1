//! Direct (packing-free) kernels for stride-1 convolutions — the shapes
//! where the im2col GEMM is bound by forming its panels, not by the
//! microkernel (LeNet-5 conv1 is `[6×75]·[75×4096]`: 12 flops per packed
//! element; conv2's output rows are 4 wide, half a panel).
//!
//! Nothing is packed. The input is used where it lies, or copied once into
//! a zero-padded buffer (`[N, C, H+2p, W+2p]`) when the call pads, after
//! which every tap of every output position is a plain offset into it. The
//! kernels differ in what the eight lanes of a vector are:
//!
//! * **row lanes** (forward, output rows of at least a vector): an
//!   [`OB`]-channel × 8/16-column tile of one output row in registers, the
//!   taps `(ci, ky, kx)` in ascending order, `acc = acc + w[o][tap] *
//!   x[tap]`, finishing with `+ bias` straight into `[N, O, oh, ow]`;
//! * **tap lanes** (weight gradient, kernel rows of 5–8 taps): the lanes
//!   are the `kx` taps of one `(ci, ky)` kernel row — eight consecutive
//!   padded-input floats starting at the output column — and the output
//!   positions `(n, oy, ox)` go by in ascending order, `acc = acc +
//!   g[o][pos] * x[pos + kx]`;
//! * **channel lanes** (all three products; the only choice for narrow
//!   rows and short kernel rows): the operand that carries the channels —
//!   the weight forward, the output gradient for the weight gradient, the
//!   weight again for the input gradient — is regrouped once per call with
//!   8 or 16 channels side by side, and every other factor is a broadcast
//!   scalar: `acc = acc + w_vec * splat(x)` over the taps for a tile of
//!   output positions, `acc = acc + g_vec * splat(x)` over the positions
//!   for a tile of taps, and for the input gradient `t = t + w_vec *
//!   splat(g)` over the output channels, then `pixel = pixel + t`.
//!
//! [`Geom`]'s predicates pick one kernel per product from the call's shape
//! alone (PERFLOG.md has the measurements that set them); `conv.rs` sends
//! them stride-1 calls only.
//!
//! # Determinism
//!
//! The argument is `gemm.rs`'s own. Every output scalar is one accumulator
//! that starts at `0.0`, takes its terms in the GEMM's ascending-`k` order
//! (taps forward, output positions for the weight gradient), and each term
//! is a `mul` then an `add`, never an FMA. SIMD only widens across
//! *independent* outputs. Taps that fall in the zero padding are
//! multiplied like any other, so an `inf` weight still poisons the outputs
//! whose im2col row holds a padding zero. The results are therefore bit for
//! bit those of the im2col GEMM, at any thread count, on either tier (a
//! NaN's sign and payload excepted: LLVM may commute the operands of a
//! `mul`).
//!
//! The input gradient is two chains deep, as `matmul_tn` followed by
//! `col2im` is: the term a tap hands to a pixel is itself a sum over the
//! output channels (ascending, from `0.0` — the GEMM's chain), and a pixel
//! adds its taps' terms in ascending `(ky, kx)` order from `0.0`
//! (`col2im`'s chain). The kernel accumulates into a plane as large as the
//! *padded* input: the terms `col2im` skips — taps that read padding — land
//! in the ring around the image and are dropped with it, so nothing is ever
//! multiplied by a padding zero and an `inf` weight poisons exactly the
//! pixels it poisons there.
//!
//! Edges never change a chain: a tile that would overhang its row or its
//! sample is shifted back to end on it, and a tile short of channels, taps
//! or positions repeats its last one, so a few outputs are computed (and
//! stored) twice with the same bits — or, where a repeat would add twice,
//! computed and not added. Tap-lane lanes past `k` hold sums over the
//! neighbouring pixels and are dropped.
//!
//! The kernels are written once, over `lanes.rs`'s [`Lanes`]: `[f32; 8]` is
//! the portable definition, `__m256` the AVX tier chosen by
//! [`gemm::use_avx`].

use crate::gemm;
use crate::lanes::{load_vectors, Lanes, LANES};
use crate::scratch;
use crate::tensor::rows_per_block;

/// Output channels per row-lane and tap-lane tile: 6 × 2 accumulators, 2
/// input vectors and a broadcast fit AVX's 16 registers.
const OB: usize = 6;
/// Kernel rows `(ci, ky)` per tap-lane tile (6 × 2 accumulators).
const ROWS: usize = 2;
/// Floats in one tap-lane tile as it is handed back: `OB × ROWS` vectors.
const TILE: usize = OB * ROWS * LANES;
/// Floats past the end of the padded input. A tap-lane load is a full
/// vector starting at its output column, so on the last padded row it runs
/// `LANES - k` floats past the data.
const SLACK: usize = LANES;
/// Accumulators of a channel-lane tile of output positions (forward and
/// input gradient): 8 positions of one channel vector or 4 of two, beside
/// the weight vectors, a broadcast and a product.
const POSITION_ACCS: usize = 8;
/// Accumulators of a channel-lane weight-gradient tile: 12 taps of one
/// channel vector or 6 of two.
const TAP_ACCS: usize = 12;

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

    /// Output positions per sample.
    fn hw(&self) -> usize {
        self.oh * self.ow
    }

    /// Floats in one sample of the padded input.
    fn pad_sample(&self) -> usize {
        self.c * self.ph() * self.pw()
    }

    /// Whether the output channels fill the vectors of their channel-lane
    /// tiles; idle lanes are what the other kernels win by.
    fn channels_fill_lanes(&self) -> bool {
        self.o.is_multiple_of(LANES * channel_vectors(self.o))
    }

    /// Row lanes where an output row fills two vectors, or fills one while
    /// the channels would leave channel lanes idle; channel lanes
    /// otherwise.
    fn forward_by_rows(&self) -> bool {
        self.ow >= 2 * LANES || (self.ow >= LANES && !self.channels_fill_lanes())
    }

    /// Tap lanes where an output row fills a vector and a kernel row fits
    /// one and fills more than half of it, while the channels would leave
    /// channel lanes idle; channel lanes otherwise.
    fn param_grads_by_taps(&self) -> bool {
        self.ow >= LANES && self.k <= LANES && 2 * self.k > LANES && !self.channels_fill_lanes()
    }

    /// Whether the input gradient goes direct: input channels to put in
    /// the lanes, and a tile of output positions per sample.
    pub(crate) fn input_grad_is_direct(&self) -> bool {
        self.c > 1 && self.hw() >= LANES
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

/// The zero-padded copy of `input` when the call pads at all.
fn padded_input(input: &[f32], g: &Geom) -> Option<Vec<f32>> {
    (g.pad > 0).then(|| pad_input(input, g))
}

/// Direct forward pass into `out` `[N, O, oh, ow]`, parallel over blocks of
/// samples (each owns its output planes).
pub(crate) fn forward(input: &[f32], weight: &[f32], bias: &[f32], out: &mut [f32], g: &Geom) {
    assert_eq!(weight.len(), g.o * g.ckk());
    assert_eq!(bias.len(), g.o);
    let padded = padded_input(input, g);
    let x = padded.as_deref().unwrap_or(input);
    let by_rows = g.forward_by_rows();
    let width = if by_rows {
        OB
    } else {
        LANES * channel_vectors(g.o)
    };
    let taps = tile_major(weight, g.o, g.ckk(), width);
    let out_sample = g.o * g.hw();
    let samples_per = rows_per_block(g.n, out_sample * g.ckk());
    apf_par::par_chunks_mut(out, samples_per * out_sample, |bi, block| {
        let x_b =
            &x[bi * samples_per * g.pad_sample()..][..block.len() / out_sample * g.pad_sample()];
        if by_rows {
            for (out_s, pad_s) in block
                .chunks_mut(out_sample)
                .zip(x_b.chunks_exact(g.pad_sample()))
            {
                forward_sample(out_s, pad_s, &taps, bias, g);
            }
        } else {
            forward_channels_block(block, x_b, &taps, bias, g);
        }
    });
    scratch::give(taps);
    if let Some(padded) = padded {
        scratch::give(padded);
    }
}

/// `src` `[o, len]` regrouped for tiles of `width` channels as
/// `[o.div_ceil(width)][len][width]`: a tile's channels side by side at
/// every index, the last channel repeated where the layer runs out.
fn tile_major(src: &[f32], o: usize, len: usize, width: usize) -> Vec<f32> {
    let mut dst = scratch::take_reserved(o.div_ceil(width) * len * width);
    for c0 in (0..o).step_by(width) {
        for i in 0..len {
            dst.extend((c0..c0 + width).map(|ch| src[ch.min(o - 1) * len + i]));
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
    assert_eq!(grad_out.len(), g.n * g.o * g.oh * g.ow);
    assert_eq!(grad_weight.len(), g.o * g.ckk());
    assert_eq!(grad_bias.len(), g.o);
    if !g.param_grads_by_taps() {
        return param_grads_by_channels(grad_out, input, grad_weight, grad_bias, g);
    }
    let padded = pad_input(input, g);
    let positions = g.n * g.oh * g.ow;
    let grads = grads_tile_major::<OB>(grad_out, grad_bias, g);
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
            tap_lane_tile(tile, tile_grads, &padded, &rows, g);
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

/// `grad_out` `[N, O, oh*ow]` regrouped for tiles of `W` channels as
/// `[O.div_ceil(W)][N*oh*ow][W]` — a tile's gradients side by side at
/// every output position, the last channel repeated where the layer runs
/// out — and, from the same pass, the per-channel sums into `grad_bias`.
///
/// Each sum is `Iterator::sum`'s chain over its channel (from `-0.0`,
/// samples then positions ascending); a tile's chains advance in lock-step,
/// so no add waits on the previous one of its own chain.
fn grads_tile_major<const W: usize>(grad_out: &[f32], grad_bias: &mut [f32], g: &Geom) -> Vec<f32> {
    let hw = g.oh * g.ow;
    let mut dst = scratch::take(g.o.div_ceil(W) * g.n * hw * W);
    for ((slab, sums), c0) in dst
        .chunks_exact_mut(g.n * hw * W)
        .zip(grad_bias.chunks_mut(W))
        .zip((0..g.o).step_by(W))
    {
        let chans: [usize; W] = std::array::from_fn(|i| (c0 + i).min(g.o - 1));
        let mut acc = [-0.0f32; W];
        for (ni, sample) in slab.chunks_exact_mut(hw * W).enumerate() {
            let planes = chans.map(|ch| &grad_out[(ni * g.o + ch) * hw..][..hw]);
            for (p, side_by_side) in sample.chunks_exact_mut(W).enumerate() {
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
fn tap_lane_tile(
    tile: &mut [f32],
    tile_grads: &[f32],
    padded: &[f32],
    rows: &[usize; ROWS],
    g: &Geom,
) {
    #[cfg(target_arch = "x86_64")]
    if gemm::use_avx() {
        // SAFETY: `use_avx()` detected AVX on this host.
        unsafe { x86::tap_lane_tile_avx(tile, tile_grads, padded, rows, g) };
        return;
    }
    // SAFETY: the portable lanes need no instruction-set extension.
    unsafe { tap_lane_tile_on::<[f32; LANES]>(tile, tile_grads, padded, rows, g) }
}

/// # Safety
/// The host must support `V`'s instruction set.
#[inline(always)]
unsafe fn tap_lane_tile_on<V: Lanes>(
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

/// An output position: sample, row, column.
#[derive(Clone, Copy, Default)]
struct Pos {
    si: usize,
    oy: usize,
    ox: usize,
}

impl Pos {
    /// The `P` positions from `self` on in `(si, oy, ox)` order, of which
    /// `left` exist (a tile past the last one repeats it), leaving `self`
    /// on the next tile's first. Counters, not divisions: a tile is
    /// re-derived for every few hundred multiply-adds.
    #[inline(always)]
    fn tile<const P: usize>(&mut self, left: usize, g: &Geom) -> [Pos; P] {
        let mut tile = [*self; P];
        for (i, slot) in tile.iter_mut().enumerate() {
            *slot = *self;
            if i + 1 < left {
                self.ox += 1;
                if self.ox == g.ow {
                    (self.oy, self.ox) = (self.oy + 1, 0);
                }
                if self.oy == g.oh {
                    (self.si, self.oy) = (self.si + 1, 0);
                }
            }
        }
        tile
    }
}

/// Vectors per channel-lane tile for a layer of `channels`: two, unless
/// one holds them all.
fn channel_vectors(channels: usize) -> usize {
    if channels > LANES {
        2
    } else {
        1
    }
}

/// A block of samples' `[O, oh, ow]` outputs from their padded inputs.
fn forward_channels_block(out_b: &mut [f32], x_b: &[f32], taps: &[f32], bias: &[f32], g: &Geom) {
    #[cfg(target_arch = "x86_64")]
    if gemm::use_avx() {
        // SAFETY: `use_avx()` detected AVX on this host.
        unsafe { x86::forward_channels_block_avx(out_b, x_b, taps, bias, g) };
        return;
    }
    // SAFETY: the portable lanes need no instruction-set extension.
    unsafe { forward_channels_block_on::<[f32; LANES]>(out_b, x_b, taps, bias, g) }
}

/// # Safety
/// The host must support `V`'s instruction set.
#[inline(always)]
unsafe fn forward_channels_block_on<V: Lanes>(
    out_b: &mut [f32],
    x_b: &[f32],
    taps: &[f32],
    bias: &[f32],
    g: &Geom,
) {
    if channel_vectors(g.o) == 2 {
        forward_channels_tiles::<V, 2, { POSITION_ACCS / 2 }>(out_b, x_b, taps, bias, g)
    } else {
        forward_channels_tiles::<V, 1, POSITION_ACCS>(out_b, x_b, taps, bias, g)
    }
}

/// Tiles of `NV` channel vectors x `P` output positions; the positions run
/// over the whole block, so a sample of few positions still fills a tile.
/// `taps` is the weight in [`tile_major`] order, `NV * LANES` wide.
///
/// # Safety
/// The host must support `V`'s instruction set.
#[inline(always)]
unsafe fn forward_channels_tiles<V: Lanes, const NV: usize, const P: usize>(
    out_b: &mut [f32],
    x_b: &[f32],
    taps: &[f32],
    bias: &[f32],
    g: &Geom,
) {
    let (k, ph, pw, hw) = (g.k, g.ph(), g.pw(), g.hw());
    let width = NV * LANES;
    let positions = out_b.len() / g.o;
    // One past the last tap of a window, from its first.
    let reach = ((g.c - 1) * ph + k - 1) * pw + k;
    let mut next = Pos::default();
    for q0 in (0..positions).step_by(P) {
        let at = next.tile::<P>(positions - q0, g).map(|Pos { si, oy, ox }| {
            (
                si * g.pad_sample() + oy * pw + ox,
                si * g.o * hw + oy * g.ow + ox,
            )
        });
        // Every position reads the same taps of its own window.
        let xs = at.map(|(x_off, _)| &x_b[x_off..][..reach]);
        for (c0, tile_taps) in (0..g.o)
            .step_by(width)
            .zip(taps.chunks_exact(g.ckk() * width))
        {
            let mut acc = [[V::zero(); NV]; P];
            let mut tap_w = tile_taps.chunks_exact(width);
            for ci in 0..g.c {
                for ky in 0..k {
                    let row_off = (ci * ph + ky) * pw;
                    for (tap_off, w) in (row_off..row_off + k).zip(tap_w.by_ref()) {
                        let wv: [V; NV] = load_vectors(w);
                        for (a, x) in acc.iter_mut().zip(&xs) {
                            let xv = V::splat(x[tap_off]);
                            for (av, &wv) in a.iter_mut().zip(&wv) {
                                *av = av.add(wv.mul(xv));
                            }
                        }
                    }
                }
            }
            for (a, &(_, out_off)) in acc.iter().zip(&at) {
                let mut lanes = [0.0; LANES];
                for (av, ch0) in a.iter().zip((c0..).step_by(LANES)) {
                    av.store(&mut lanes);
                    for (ch, &v) in (ch0..g.o).zip(&lanes) {
                        out_b[out_off + ch * hw] = v + bias[ch];
                    }
                }
            }
        }
    }
}

/// Channel-lane parameter gradients: `grad_weight` `[O, C*k*k]`, parallel
/// over tiles of channel vectors x taps (each owns its outputs), and
/// `grad_bias` `[O]`.
fn param_grads_by_channels(
    grad_out: &[f32],
    input: &[f32],
    grad_weight: &mut [f32],
    grad_bias: &mut [f32],
    g: &Geom,
) {
    let padded = padded_input(input, g);
    let x = padded.as_deref().unwrap_or(input);
    if channel_vectors(g.o) == 2 {
        let grads = grads_tile_major::<{ 2 * LANES }>(grad_out, grad_bias, g);
        weight_grad_tiles::<2, { TAP_ACCS / 2 }>(&grads, x, grad_weight, g);
        scratch::give(grads);
    } else {
        let grads = grads_tile_major::<LANES>(grad_out, grad_bias, g);
        weight_grad_tiles::<1, TAP_ACCS>(&grads, x, grad_weight, g);
        scratch::give(grads);
    }
    if let Some(padded) = padded {
        scratch::give(padded);
    }
}

/// Tiles of `NV` channel vectors x `T` taps `(ci, ky, kx)`, each a sum over
/// every output position. `grads` is [`grads_tile_major`]'s, `NV * LANES`
/// wide.
fn weight_grad_tiles<const NV: usize, const T: usize>(
    grads: &[f32],
    x: &[f32],
    grad_weight: &mut [f32],
    g: &Geom,
) {
    let (ckk, width) = (g.ckk(), NV * LANES);
    let tap_tiles = ckk.div_ceil(T);
    let tiles_n = g.o.div_ceil(width) * tap_tiles;
    let tile_len = T * width;
    // A tile past the last tap repeats it.
    let taps_of =
        |t: usize| -> [usize; T] { std::array::from_fn(|i| (t % tap_tiles * T + i).min(ckk - 1)) };
    let mut tiles = scratch::take(tiles_n * tile_len);
    let tiles_per = rows_per_block(tiles_n, tile_len * g.n * g.hw());
    apf_par::par_chunks_mut(&mut tiles, tiles_per * tile_len, |bi, block| {
        for (ti, tile) in block.chunks_mut(tile_len).enumerate() {
            let t = bi * tiles_per + ti;
            let tile_grads = &grads[t / tap_tiles * g.n * g.hw() * width..][..g.n * g.hw() * width];
            weight_grad_tile::<NV, T>(tile, tile_grads, x, &taps_of(t), g);
        }
    });
    for (t, tile) in tiles.chunks_exact(tile_len).enumerate() {
        let c0 = t / tap_tiles * width;
        for (per_tap, tap) in tile.chunks_exact(width).zip(taps_of(t)) {
            for (ch, &v) in (c0..g.o).zip(per_tap) {
                grad_weight[ch * ckk + tap] = v;
            }
        }
    }
    scratch::give(tiles);
}

/// Accumulators of one tile's channels x the taps `taps`
/// (`(ci*k + ky)*k + kx`) over every output position, written to `tile` as
/// `[T][NV * LANES]`.
fn weight_grad_tile<const NV: usize, const T: usize>(
    tile: &mut [f32],
    tile_grads: &[f32],
    x: &[f32],
    taps: &[usize; T],
    g: &Geom,
) {
    #[cfg(target_arch = "x86_64")]
    if gemm::use_avx() {
        // SAFETY: `use_avx()` detected AVX on this host.
        unsafe { x86::weight_grad_tile_avx::<NV, T>(tile, tile_grads, x, taps, g) };
        return;
    }
    // SAFETY: the portable lanes need no instruction-set extension.
    unsafe { weight_grad_tile_on::<[f32; LANES], NV, T>(tile, tile_grads, x, taps, g) }
}

/// # Safety
/// The host must support `V`'s instruction set.
#[inline(always)]
unsafe fn weight_grad_tile_on<V: Lanes, const NV: usize, const T: usize>(
    tile: &mut [f32],
    tile_grads: &[f32],
    x: &[f32],
    taps: &[usize; T],
    g: &Geom,
) {
    let (k, ph, pw) = (g.k, g.ph(), g.pw());
    // One past the last output position of the batch, from the first.
    let reach = (g.n - 1) * g.pad_sample() + (g.oh - 1) * pw + g.ow;
    // Every tap reads the same positions of its own window.
    let xs = taps.map(|t| &x[(t / (k * k) * ph + t / k % k) * pw + t % k..][..reach]);
    let mut acc = [[V::zero(); NV]; T];
    let (mut pos_off, mut oy, mut ox) = (0, 0, 0);
    for grads in tile_grads.chunks_exact(NV * LANES) {
        let gv: [V; NV] = load_vectors(grads);
        for (a, x) in acc.iter_mut().zip(&xs) {
            let xv = V::splat(x[pos_off]);
            for (av, &gv) in a.iter_mut().zip(&gv) {
                *av = av.add(gv.mul(xv));
            }
        }
        // The next position: a column on; past a row's end, a row down;
        // past the last row, a sample on.
        (pos_off, ox) = (pos_off + 1, ox + 1);
        if ox == g.ow {
            (pos_off, oy, ox) = (pos_off + pw - g.ow, oy + 1, 0);
        }
        if oy == g.oh {
            (pos_off, oy) = (pos_off + g.pad_sample() - g.oh * pw, 0);
        }
    }
    for (av, dst8) in acc.iter().flatten().zip(tile.chunks_exact_mut(LANES)) {
        av.store(dst8.try_into().expect("LANES-wide chunk"));
    }
}

/// Direct input gradient into `grad_input` `[N, C, H, W]`, parallel over
/// blocks of samples (each owns its planes). The lanes are input channels.
pub(crate) fn input_grad(grad_out: &[f32], weight: &[f32], grad_input: &mut [f32], g: &Geom) {
    assert_eq!(grad_out.len(), g.n * g.o * g.hw());
    assert_eq!(weight.len(), g.o * g.ckk());
    assert_eq!(grad_input.len(), g.n * g.c * g.h * g.w);
    let width = LANES * channel_vectors(g.c);
    let taps = taps_outermost(weight, width, g);
    let (in_sample, out_sample) = (g.c * g.h * g.w, g.o * g.hw());
    let samples_per = rows_per_block(g.n, out_sample * g.ckk());
    apf_par::par_chunks_mut(grad_input, samples_per * in_sample, |bi, block| {
        let mut plane = scratch::take(g.ph() * g.pw() * width);
        for (si, grad_in_s) in block.chunks_mut(in_sample).enumerate() {
            let grad_s = &grad_out[(bi * samples_per + si) * out_sample..][..out_sample];
            input_grad_sample(grad_in_s, grad_s, &taps, &mut plane, g);
        }
        scratch::give(plane);
    });
    scratch::give(taps);
}

/// `weight` `[O][C][k*k]` regrouped for tiles of `width` input channels as
/// `[C.div_ceil(width)][k*k][O][width]`, the last channel repeated where
/// the layer runs out.
fn taps_outermost(weight: &[f32], width: usize, g: &Geom) -> Vec<f32> {
    let kk = g.k * g.k;
    let mut dst = scratch::take_reserved(g.c.div_ceil(width) * kk * g.o * width);
    for c0 in (0..g.c).step_by(width) {
        for tap in 0..kk {
            for per_out in weight.chunks_exact(g.ckk()) {
                dst.extend((c0..c0 + width).map(|ci| per_out[ci.min(g.c - 1) * kk + tap]));
            }
        }
    }
    dst
}

/// One sample's `[C, H, W]` input gradient from its `[O, oh, ow]` output
/// gradient; `plane` is scratch of `ph*pw` pixels x one tile's channels.
fn input_grad_sample(
    grad_in_s: &mut [f32],
    grad_s: &[f32],
    taps: &[f32],
    plane: &mut [f32],
    g: &Geom,
) {
    #[cfg(target_arch = "x86_64")]
    if gemm::use_avx() {
        // SAFETY: `use_avx()` detected AVX on this host.
        unsafe { x86::input_grad_sample_avx(grad_in_s, grad_s, taps, plane, g) };
        return;
    }
    // SAFETY: the portable lanes need no instruction-set extension.
    unsafe { input_grad_sample_on::<[f32; LANES]>(grad_in_s, grad_s, taps, plane, g) }
}

/// # Safety
/// The host must support `V`'s instruction set.
#[inline(always)]
unsafe fn input_grad_sample_on<V: Lanes>(
    grad_in_s: &mut [f32],
    grad_s: &[f32],
    taps: &[f32],
    plane: &mut [f32],
    g: &Geom,
) {
    if channel_vectors(g.c) == 2 {
        input_grad_tiles::<V, 2, { POSITION_ACCS / 2 }>(grad_in_s, grad_s, taps, plane, g)
    } else {
        input_grad_tiles::<V, 1, POSITION_ACCS>(grad_in_s, grad_s, taps, plane, g)
    }
}

/// Tiles of `NV` input-channel vectors x `P` output positions. Per tile
/// and tap, the sum over the output channels (`matmul_tn`'s chain) is
/// formed in registers and then added to the pixel the tap reads
/// (`col2im`'s chain, taps ascending) of the padded accumulator `plane`
/// `[ph*pw][NV*LANES]`; what lands in the padding ring is dropped.
/// `grad_s` is the sample's `[O, oh*ow]` gradient as it lies, `taps` is
/// [`taps_outermost`]'s.
///
/// # Safety
/// The host must support `V`'s instruction set.
#[inline(always)]
unsafe fn input_grad_tiles<V: Lanes, const NV: usize, const P: usize>(
    grad_in_s: &mut [f32],
    grad_s: &[f32],
    taps: &[f32],
    plane: &mut [f32],
    g: &Geom,
) {
    let (k, pw, hw) = (g.k, g.pw(), g.hw());
    let width = NV * LANES;
    assert!(hw >= P, "direct input gradient needs a tile of positions");
    // A tile's input channels: their taps, and their planes of the result.
    let tiles = taps
        .chunks_exact(k * k * g.o * width)
        .zip(grad_in_s.chunks_mut(width * g.h * g.w));
    for (tile_taps, grad_in_t) in tiles {
        plane.fill(0.0);
        // Tiles from the last to the first: a pixel's taps ascend as the
        // positions that reach it descend, so it meets its taps in
        // `col2im`'s order tile by tile as within one.
        for q0 in (0..hw).step_by(P).rev() {
            // The last tile is shifted back to end on the last position;
            // what it shares with the one before is left to that one.
            let fresh = P.min(hw - q0);
            let q0 = q0.min(hw - P);
            let pixels: [usize; P] = std::array::from_fn(|i| {
                let q = q0 + i;
                (q / g.ow * pw + q % g.ow) * width
            });
            let (mut tap_off, mut kx) = (0, 0);
            for tap_w in tile_taps.chunks_exact(g.o * width) {
                let mut acc = [[V::zero(); NV]; P];
                for (o, w) in tap_w.chunks_exact(width).enumerate() {
                    let wv: [V; NV] = load_vectors(w);
                    let gs: &[f32; P] =
                        grad_s[o * hw + q0..][..P].try_into().expect("P-wide slice");
                    for (a, &gv) in acc.iter_mut().zip(gs) {
                        let gv = V::splat(gv);
                        for (av, &wv) in a.iter_mut().zip(&wv) {
                            *av = av.add(wv.mul(gv));
                        }
                    }
                }
                for (i, (a, pixel)) in acc.iter().zip(&pixels).enumerate() {
                    if i + fresh < P {
                        continue;
                    }
                    let sums = &mut plane[pixel + tap_off * width..][..width];
                    for (&av, sum8) in a.iter().zip(sums.chunks_exact_mut(LANES)) {
                        let sum8: &mut [f32; LANES] = sum8.try_into().expect("LANES-wide chunk");
                        V::load(sum8).add(av).store(sum8);
                    }
                }
                // The next tap: a column on; past a kernel row's end, a
                // row down.
                (tap_off, kx) = (tap_off + 1, kx + 1);
                if kx == k {
                    (tap_off, kx) = (tap_off + pw - k, 0);
                }
            }
        }
        for (lane, dst) in grad_in_t.chunks_exact_mut(g.h * g.w).enumerate() {
            for (y, dst_row) in dst.chunks_exact_mut(g.w).enumerate() {
                let src = &plane[((y + g.pad) * pw + g.pad) * width..][..g.w * width];
                for (d, pixel) in dst_row.iter_mut().zip(src.chunks_exact(width)) {
                    *d = pixel[lane];
                }
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The AVX tier: the kernel bodies instantiated at `__m256` inside
    //! `#[target_feature(enable = "avx")]` entry points (they inline into
    //! them, intrinsics and all). `mul` + `add` only, never FMA.

    use super::{Geom, ROWS};
    use std::arch::x86_64::__m256;

    /// # Safety
    /// Caller must ensure the host supports AVX.
    #[target_feature(enable = "avx")]
    pub(super) unsafe fn forward_channels_block_avx(
        out_b: &mut [f32],
        x_b: &[f32],
        taps: &[f32],
        bias: &[f32],
        g: &Geom,
    ) {
        // SAFETY: the caller guarantees AVX, all that `__m256` lanes need.
        unsafe { super::forward_channels_block_on::<__m256>(out_b, x_b, taps, bias, g) }
    }

    /// # Safety
    /// Caller must ensure the host supports AVX.
    #[target_feature(enable = "avx")]
    pub(super) unsafe fn weight_grad_tile_avx<const NV: usize, const T: usize>(
        tile: &mut [f32],
        tile_grads: &[f32],
        x: &[f32],
        taps: &[usize; T],
        g: &Geom,
    ) {
        // SAFETY: the caller guarantees AVX, all that `__m256` lanes need.
        unsafe { super::weight_grad_tile_on::<__m256, NV, T>(tile, tile_grads, x, taps, g) }
    }

    /// # Safety
    /// Caller must ensure the host supports AVX.
    #[target_feature(enable = "avx")]
    pub(super) unsafe fn input_grad_sample_avx(
        grad_in_s: &mut [f32],
        grad_s: &[f32],
        taps: &[f32],
        plane: &mut [f32],
        g: &Geom,
    ) {
        // SAFETY: the caller guarantees AVX, all that `__m256` lanes need.
        unsafe { super::input_grad_sample_on::<__m256>(grad_in_s, grad_s, taps, plane, g) }
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
    pub(super) unsafe fn tap_lane_tile_avx(
        tile: &mut [f32],
        tile_grads: &[f32],
        padded: &[f32],
        rows: &[usize; ROWS],
        g: &Geom,
    ) {
        // SAFETY: the caller guarantees AVX, all that `__m256` lanes need.
        unsafe { super::tap_lane_tile_on::<__m256>(tile, tile_grads, padded, rows, g) }
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
    /// are one vector, two, neither, and narrower than one; kernels from one
    /// lane to all eight.
    fn geoms() -> Vec<Geom> {
        let mut out = Vec::new();
        for (c, o, k, pad, hw) in [
            (3, 6, 5, 2, 16),
            (1, 1, 1, 0, 8),
            (2, 7, 3, 1, 9),
            (3, 13, 7, 3, 17),
            (1, 5, 8, 2, 24),
            (2, 6, 6, 0, 20),
            (6, 16, 5, 0, 8),
            (9, 17, 3, 1, 4),
            (16, 24, 3, 2, 3),
            (17, 8, 1, 0, 3),
            (2, 9, 5, 1, 5),
        ] {
            let side = hw + 2 * pad + 1 - k;
            out.push(Geom {
                n: 3,
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

    /// `f`'s output into a dirty buffer (every slot must be written), as
    /// bits.
    fn bits_of(len: usize, f: &dyn Fn(&mut [f32])) -> Vec<u32> {
        let mut out = vec![f32::NAN; len];
        f(&mut out);
        bits(&out)
    }

    #[test]
    fn every_tier_matches_the_portable_lanes_bitwise() {
        // The dispatchers pick one tier per host, so without this the
        // portable bodies would run in no test on an AVX machine.
        let avx = cfg!(target_arch = "x86_64") && gemm::use_avx();
        for g in geoms() {
            let what = format!("{:?}", (g.c, g.o, g.k, g.pad, g.ow));
            let input = pseudo(g.n * g.c * g.h * g.w, 3);
            let padded = pad_input(&input, &g);
            let weight = pseudo(g.o * g.ckk(), 7);
            let bias = pseudo(g.o, 11);
            let out_len = g.o * g.hw();
            let grad_out = pseudo(g.n * out_len, 13);
            let mut grad_bias = vec![0.0; g.o];

            if g.ow >= LANES {
                let pad_s = &padded[g.pad_sample()..][..g.pad_sample()];
                let taps = tile_major(&weight, g.o, g.ckk(), OB);
                // SAFETY: the portable lanes need no instruction-set extension.
                let want = bits_of(out_len, &|out| unsafe {
                    forward_sample_on::<[f32; LANES]>(out, pad_s, &taps, &bias, &g)
                });
                let got = bits_of(out_len, &|out| forward_sample(out, pad_s, &taps, &bias, &g));
                assert_eq!(got, want, "row-lane forward, dispatched, {what}");
                #[cfg(target_arch = "x86_64")]
                if avx {
                    // SAFETY: `use_avx()` detected AVX on this host.
                    let got = bits_of(out_len, &|out| unsafe {
                        x86::forward_sample_avx(out, pad_s, &taps, &bias, &g)
                    });
                    assert_eq!(got, want, "row-lane forward, avx, {what}");
                }
                scratch::give(taps);
            }

            if g.ow >= LANES && g.k <= LANES {
                let grads = grads_tile_major::<OB>(&grad_out, &mut grad_bias, &g);
                let tile_grads = &grads[..g.n * g.hw() * OB];
                let rows = [g.c * g.k - 1, 0];
                // SAFETY: as above.
                let want = bits_of(TILE, &|tile| unsafe {
                    tap_lane_tile_on::<[f32; LANES]>(tile, tile_grads, &padded, &rows, &g)
                });
                let got = bits_of(TILE, &|tile| {
                    tap_lane_tile(tile, tile_grads, &padded, &rows, &g)
                });
                assert_eq!(got, want, "tap-lane weight gradient, dispatched, {what}");
                #[cfg(target_arch = "x86_64")]
                if avx {
                    // SAFETY: as above.
                    let got = bits_of(TILE, &|tile| unsafe {
                        x86::tap_lane_tile_avx(tile, tile_grads, &padded, &rows, &g)
                    });
                    assert_eq!(got, want, "tap-lane weight gradient, avx, {what}");
                }
                scratch::give(grads);
            }

            // Channel lanes: the whole batch as one block.
            let x = &padded[..g.n * g.pad_sample()];
            let taps = tile_major(&weight, g.o, g.ckk(), LANES * channel_vectors(g.o));
            // SAFETY: as above.
            let want = bits_of(g.n * out_len, &|out| unsafe {
                forward_channels_block_on::<[f32; LANES]>(out, x, &taps, &bias, &g)
            });
            let got = bits_of(g.n * out_len, &|out| {
                forward_channels_block(out, x, &taps, &bias, &g)
            });
            assert_eq!(got, want, "channel-lane forward, dispatched, {what}");
            #[cfg(target_arch = "x86_64")]
            if avx {
                // SAFETY: as above.
                let got = bits_of(g.n * out_len, &|out| unsafe {
                    x86::forward_channels_block_avx(out, x, &taps, &bias, &g)
                });
                assert_eq!(got, want, "channel-lane forward, avx, {what}");
            }
            scratch::give(taps);

            // One tile of each width, its taps the layer's last and first.
            let grads = grads_tile_major::<LANES>(&grad_out, &mut grad_bias, &g);
            let tile_grads = &grads[..g.n * g.hw() * LANES];
            let taps: [usize; 12] = std::array::from_fn(|i| (g.ckk() - 1) * (1 - i % 2));
            // SAFETY: as above.
            let want = bits_of(12 * LANES, &|tile| unsafe {
                weight_grad_tile_on::<[f32; LANES], 1, 12>(tile, tile_grads, x, &taps, &g)
            });
            let got = bits_of(12 * LANES, &|tile| {
                weight_grad_tile::<1, 12>(tile, tile_grads, x, &taps, &g)
            });
            assert_eq!(
                got, want,
                "channel-lane weight gradient, dispatched, {what}"
            );
            #[cfg(target_arch = "x86_64")]
            if avx {
                // SAFETY: as above.
                let got = bits_of(12 * LANES, &|tile| unsafe {
                    x86::weight_grad_tile_avx::<1, 12>(tile, tile_grads, x, &taps, &g)
                });
                assert_eq!(got, want, "channel-lane weight gradient, avx, {what}");
            }
            scratch::give(grads);
            let grads = grads_tile_major::<{ 2 * LANES }>(&grad_out, &mut grad_bias, &g);
            let tile_grads = &grads[..g.n * g.hw() * 2 * LANES];
            let taps: [usize; 6] = std::array::from_fn(|i| (g.ckk() - 1) * (1 - i % 2));
            // SAFETY: as above.
            let want = bits_of(12 * LANES, &|tile| unsafe {
                weight_grad_tile_on::<[f32; LANES], 2, 6>(tile, tile_grads, x, &taps, &g)
            });
            let got = bits_of(12 * LANES, &|tile| {
                weight_grad_tile::<2, 6>(tile, tile_grads, x, &taps, &g)
            });
            assert_eq!(
                got, want,
                "channel-lane weight gradient x2, dispatched, {what}"
            );
            #[cfg(target_arch = "x86_64")]
            if avx {
                // SAFETY: as above.
                let got = bits_of(12 * LANES, &|tile| unsafe {
                    x86::weight_grad_tile_avx::<2, 6>(tile, tile_grads, x, &taps, &g)
                });
                assert_eq!(got, want, "channel-lane weight gradient x2, avx, {what}");
            }
            scratch::give(grads);

            if g.hw() >= LANES {
                let width = LANES * channel_vectors(g.c);
                let taps = taps_outermost(&weight, width, &g);
                let grad_s = &grad_out[out_len..][..out_len];
                let in_len = g.c * g.h * g.w;
                let plane_len = g.ph() * g.pw() * width;
                // SAFETY: as above.
                let want = bits_of(in_len, &|grad_in| unsafe {
                    let mut plane = vec![f32::NAN; plane_len];
                    input_grad_sample_on::<[f32; LANES]>(grad_in, grad_s, &taps, &mut plane, &g)
                });
                let got = bits_of(in_len, &|grad_in| {
                    let mut plane = vec![f32::NAN; plane_len];
                    input_grad_sample(grad_in, grad_s, &taps, &mut plane, &g)
                });
                assert_eq!(got, want, "input gradient, dispatched, {what}");
                #[cfg(target_arch = "x86_64")]
                if avx {
                    // SAFETY: as above.
                    let got = bits_of(in_len, &|grad_in| unsafe {
                        let mut plane = vec![f32::NAN; plane_len];
                        x86::input_grad_sample_avx(grad_in, grad_s, &taps, &mut plane, &g)
                    });
                    assert_eq!(got, want, "input gradient, avx, {what}");
                }
                scratch::give(taps);
            }
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
        // A tile narrower than the layer, as wide, and wider.
        type Regroup = fn(&[f32], &mut [f32], &Geom) -> Vec<f32>;
        let regroupings: [Regroup; 3] = [
            grads_tile_major::<OB>,
            grads_tile_major::<LANES>,
            grads_tile_major::<{ 2 * LANES }>,
        ];
        for regroup in regroupings {
            let mut got = vec![f32::NAN; g.o];
            scratch::give(regroup(&grad_out, &mut got, &g));
            for (ch, got) in got.iter().enumerate() {
                let want: f32 = (0..g.n)
                    .flat_map(|ni| &grad_out[(ni * g.o + ch) * hw..][..hw])
                    .sum();
                assert_eq!(got.to_bits(), want.to_bits(), "channel {ch}");
            }
            assert_eq!(got[3].to_bits(), (-0.0f32).to_bits());
        }
    }
}
