//! Packed, register-tiled GEMM — the workspace's dense matrix kernel.
//!
//! # Design
//!
//! This is a classic three-level blocked GEMM (the BLIS decomposition):
//!
//! * The innermost unit is an **MR×NR microkernel** ([`MR`]=8 rows ×
//!   [`NR`]=8 columns). It keeps the C tile in SIMD registers and for each
//!   `k` performs `acc[i][j] += a[i] * b[j]` over the tile; the
//!   accumulators never touch memory inside the `k` loop. On x86-64 the
//!   kernel is explicit SSE2/AVX intrinsics (`mul`+`add` only, never FMA);
//!   elsewhere a fixed-trip-count scalar kernel autovectorizes.
//! * Operands are **packed** into contiguous panels first: A into MR-row
//!   panels laid out k-major (for each `k`, MR consecutive values), B into
//!   NR-column panels (for each `k`, NR consecutive values). The microkernel
//!   then streams both panels linearly regardless of the original operand
//!   layout — which is how `matmul` and the transposed variants
//!   (`matmul_tn`, `matmul_nt`) share one kernel: they only differ in
//!   their packing closures.
//! * Loops are **cache-blocked** with [`KC`]/[`MC`]/[`NC`]: a KC-deep slab
//!   of B panels is packed once per NC-wide column block and reused across
//!   all row blocks; an MC×KC slab of A panels lives in L1/L2 while it is
//!   swept over the B panels.
//!
//! # Determinism
//!
//! Every output element is still **one ascending-`k` accumulation starting
//! from 0.0**, bitwise identical to the naive reference kernels: the
//! microkernel *loads* the current C tile into its accumulators, accumulates
//! ascending `k` within the KC slab, and stores it back, so the float
//! association across KC slabs is exactly the association of one continuous
//! `k` loop. Parallelism is over the fixed (MC, NC) block grid — block
//! boundaries come from compile-time constants, never from the thread
//! count — and each block is written by exactly one task. Rust performs no
//! floating-point reassociation or contraction, and the SIMD kernels only
//! widen the independent `j` lanes (each lane is the exact scalar mul+add
//! sequence), so results are bitwise identical at any `APF_PAR_THREADS`
//! and on any host (asserted by the cross-thread-count property tests and,
//! in debug builds, against the reference kernel on every small call).
//!
//! Padding: edge panels are zero-padded to full MR/NR width in the packed
//! buffers; the padded lanes compute garbage that is simply never written
//! back (K is never padded, so no spurious `0 * inf` terms enter real
//! outputs).
//!
//! # Dispatch
//!
//! The `matmul` family in `tensor.rs` picks one of three kernels from the
//! call's shape alone (no knob):
//!
//! | product | reference kernel | batch-row kernel (`batch.rs`) | packed (here) |
//! |---|---|---|---|
//! | `matmul`, `matmul_tn` | `m·k·n <` [`PACK_OPS_MIN`] | — | otherwise |
//! | `matmul_nt` (the forward `x·Wᵀ`) | `m·k·n <` [`PACK_OPS_MIN`] | `m ≤ BATCH_ROWS_MAX` (8) | otherwise |
//! | `matmul_tn_add` (`grads += aᵀ·b`, depth `k` the batch) | — | `k ≤ BATCH_ROWS_MAX` | `k >` it: `matmul_tn` into a temporary, then `axpy` |
//!
//! At a client's batch size a product uses each packed element only `m`
//! (or `k`) times, so packing costs as much as the multiply-adds it feeds;
//! the batch-row kernels read the weight where it lies instead, and the
//! accumulated weight gradient never exists as a tensor. All three kernels
//! compute every output as the same ascending-`k` chain from `0.0`, `mul`
//! then `add` with the operands in the same order, SIMD only across
//! independent outputs — so which one ran is invisible in the bits, and the
//! added product is bit for bit `axpy(grads, 1.0, matmul_tn(a, b))`.

use crate::scratch;

/// Microkernel tile rows.
const MR: usize = 8;
/// Microkernel tile columns: one AVX vector (or two SSE vectors) per row.
const NR: usize = 8;
/// K-blocking: one packed A panel (MR×KC) is 4 KiB, one B panel (NR×KC) is
/// 8 KiB — both live in L1 while the microkernel streams them.
const KC: usize = 256;
/// Row blocking: an MC×KC slab of packed A (64 KiB) stays L2-resident.
const MC: usize = 64;
/// Column blocking: an NC×KC slab of packed B (64 KiB) stays L2-resident.
/// MC×NC also fixes the parallel block grid — see [`gemm_packed`].
const NC: usize = 64;

/// Below this many multiply-adds the packing traffic is not worth it and
/// the callers use the naive reference kernels instead.
pub(crate) const PACK_OPS_MIN: usize = 1 << 12;

/// `m*k*n` cap for the debug-build bitwise check against the reference
/// kernel, so debug test runs do not become cubic in the largest call.
#[cfg(debug_assertions)]
pub(crate) const REF_CHECK_OPS_MAX: usize = 1 << 18;

/// The raw output pointer shared by the parallel block tasks.
///
/// Tasks write disjoint (MC×NC-gridded) tiles of C, so concurrent use never
/// aliases; writes go through raw pointers only (no `&mut` slices are formed
/// over overlapping regions).
#[derive(Clone, Copy)]
struct SendPtr(*mut f32);
unsafe impl Send for SendPtr {}
unsafe impl Sync for SendPtr {}

/// Accumulates `kc` steps of the packed panels into the MR×NR tile:
/// `acc[i][j] += a_panel[p*MR + i] * b_panel[p*NR + j]` for ascending `p`.
///
/// `a_panel` is `kc * MR` long (k-major), `b_panel` is `kc * NR` long.
///
/// On x86-64 this dispatches to an explicit-SIMD kernel (AVX when the host
/// has it, else SSE2, detected once). Both use only `mul` + `add` vector
/// ops — **never FMA** — so every lane performs exactly the two IEEE
/// roundings of the scalar expression and the result is bitwise identical
/// to the portable fallback (and to the naive reference kernels) on every
/// host, at every lane width.
#[inline]
fn microkernel(a_panel: &[f32], b_panel: &[f32], acc: &mut [[f32; NR]; MR]) {
    #[cfg(target_arch = "x86_64")]
    {
        if use_avx() {
            // SAFETY: gated on runtime AVX detection.
            unsafe { x86::microkernel_avx(a_panel, b_panel, acc) };
        } else {
            // SAFETY: SSE2 is part of the x86-64 baseline.
            unsafe { x86::microkernel_sse2(a_panel, b_panel, acc) };
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    microkernel_generic(a_panel, b_panel, acc);
}

/// Portable scalar microkernel; the semantic definition the SIMD paths must
/// match bitwise. Written with fixed trip counts so LLVM can still
/// autovectorize it on non-x86 targets.
#[cfg_attr(target_arch = "x86_64", allow(dead_code))]
fn microkernel_generic(a_panel: &[f32], b_panel: &[f32], acc: &mut [[f32; NR]; MR]) {
    for (ap, bp) in a_panel.chunks_exact(MR).zip(b_panel.chunks_exact(NR)) {
        let ap: &[f32; MR] = ap.try_into().unwrap();
        let bp: &[f32; NR] = bp.try_into().unwrap();
        for i in 0..MR {
            let ai = ap[i];
            for j in 0..NR {
                acc[i][j] += ai * bp[j];
            }
        }
    }
}

/// Returns whether the AVX kernel should be used, detecting once.
/// Shared with the freeze-mask kernels in `masked.rs`.
#[cfg(target_arch = "x86_64")]
pub(crate) fn use_avx() -> bool {
    use std::sync::atomic::{AtomicU8, Ordering};
    static AVX: AtomicU8 = AtomicU8::new(0); // 0 = unknown, 1 = no, 2 = yes
    match AVX.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => {
            let has = std::arch::is_x86_feature_detected!("avx");
            AVX.store(if has { 2 } else { 1 }, Ordering::Relaxed);
            has
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! Explicit-SIMD microkernels. `mul` + `add` only (no FMA, no horizontal
    //! ops): each lane computes the exact scalar op sequence, so lane width
    //! cannot change results.

    use super::{MR, NR};
    use std::arch::x86_64::*;

    /// AVX microkernel: one 8-wide accumulator vector per tile row.
    ///
    /// # Safety
    /// Caller must ensure the host supports AVX.
    #[target_feature(enable = "avx")]
    pub(super) unsafe fn microkernel_avx(
        a_panel: &[f32],
        b_panel: &[f32],
        acc: &mut [[f32; NR]; MR],
    ) {
        let mut rows = [_mm256_setzero_ps(); MR];
        for (i, row) in rows.iter_mut().enumerate() {
            *row = _mm256_loadu_ps(acc[i].as_ptr());
        }
        for (ap, bp) in a_panel.chunks_exact(MR).zip(b_panel.chunks_exact(NR)) {
            let b = _mm256_loadu_ps(bp.as_ptr());
            for (i, row) in rows.iter_mut().enumerate() {
                let a = _mm256_set1_ps(ap[i]);
                *row = _mm256_add_ps(*row, _mm256_mul_ps(a, b));
            }
        }
        for (i, row) in rows.iter().enumerate() {
            _mm256_storeu_ps(acc[i].as_mut_ptr(), *row);
        }
    }

    /// SSE2 microkernel: two 4-wide accumulator vectors per tile row,
    /// processed four rows at a time to stay within 16 XMM registers.
    ///
    /// # Safety
    /// SSE2 is unconditionally available on x86-64; no extra precondition.
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn microkernel_sse2(
        a_panel: &[f32],
        b_panel: &[f32],
        acc: &mut [[f32; NR]; MR],
    ) {
        for half in 0..2 {
            let r0 = half * (MR / 2);
            let mut lo = [_mm_setzero_ps(); MR / 2];
            let mut hi = [_mm_setzero_ps(); MR / 2];
            for i in 0..MR / 2 {
                lo[i] = _mm_loadu_ps(acc[r0 + i].as_ptr());
                hi[i] = _mm_loadu_ps(acc[r0 + i].as_ptr().add(4));
            }
            for (ap, bp) in a_panel.chunks_exact(MR).zip(b_panel.chunks_exact(NR)) {
                let b_lo = _mm_loadu_ps(bp.as_ptr());
                let b_hi = _mm_loadu_ps(bp.as_ptr().add(4));
                for i in 0..MR / 2 {
                    let a = _mm_set1_ps(ap[r0 + i]);
                    lo[i] = _mm_add_ps(lo[i], _mm_mul_ps(a, b_lo));
                    hi[i] = _mm_add_ps(hi[i], _mm_mul_ps(a, b_hi));
                }
            }
            for i in 0..MR / 2 {
                _mm_storeu_ps(acc[r0 + i].as_mut_ptr(), lo[i]);
                _mm_storeu_ps(acc[r0 + i].as_mut_ptr().add(4), hi[i]);
            }
        }
    }
}

/// Runs one microkernel tile against C at (`i0`, `j0`).
///
/// `first` marks the first KC slab: the accumulators start from zero and the
/// store overwrites C (so callers never need to pre-zero the output). Later
/// slabs load the tile, continuing the ascending-`k` accumulation exactly
/// where the previous slab stopped. Only the valid `mr_eff × nr_eff` window
/// is read or written; padded lanes stay in registers and are discarded.
///
/// # Safety
/// `c` must be valid for `ldc`-strided reads/writes of the tile window, and
/// no other reference may access that window concurrently.
#[allow(clippy::too_many_arguments)]
unsafe fn tile(
    c: SendPtr,
    ldc: usize,
    i0: usize,
    j0: usize,
    mr_eff: usize,
    nr_eff: usize,
    a_panel: &[f32],
    b_panel: &[f32],
    first: bool,
) {
    let mut acc = [[0.0f32; NR]; MR];
    if !first {
        for (i, row) in acc.iter_mut().enumerate().take(mr_eff) {
            let base = c.0.add((i0 + i) * ldc + j0);
            for (j, v) in row.iter_mut().enumerate().take(nr_eff) {
                *v = *base.add(j);
            }
        }
    }
    microkernel(a_panel, b_panel, &mut acc);
    for (i, row) in acc.iter().enumerate().take(mr_eff) {
        let base = c.0.add((i0 + i) * ldc + j0);
        for (j, v) in row.iter().enumerate().take(nr_eff) {
            *base.add(j) = *v;
        }
    }
}

/// Packs rows `ic..ic+mc_eff`, depth `pc..pc+kc_eff` of row-major
/// `src[·, lda]` into MR-row panels (k-major, zero-padded to MR).
fn pack_a_rowmajor(
    dst: &mut [f32],
    src: &[f32],
    lda: usize,
    ic: usize,
    mc_eff: usize,
    pc: usize,
    kc_eff: usize,
) {
    for (ir, panel) in dst.chunks_exact_mut(kc_eff * MR).enumerate() {
        let rows = MR.min(mc_eff - ir * MR);
        for r in 0..rows {
            let row = &src[(ic + ir * MR + r) * lda + pc..][..kc_eff];
            for (p, &v) in row.iter().enumerate() {
                panel[p * MR + r] = v;
            }
        }
        for r in rows..MR {
            for p in 0..kc_eff {
                panel[p * MR + r] = 0.0;
            }
        }
    }
}

/// Packs columns `ic..ic+mc_eff`, depth `pc..pc+kc_eff` of the *transposed*
/// operand `src` (stored `[k_total, m]`, so A[i][p] = src[p*m + i]) into
/// MR-row panels.
fn pack_a_colmajor(
    dst: &mut [f32],
    src: &[f32],
    m: usize,
    ic: usize,
    mc_eff: usize,
    pc: usize,
    kc_eff: usize,
) {
    for (ir, panel) in dst.chunks_exact_mut(kc_eff * MR).enumerate() {
        let rows = MR.min(mc_eff - ir * MR);
        for p in 0..kc_eff {
            let seg = &src[(pc + p) * m + ic + ir * MR..][..rows];
            let out = &mut panel[p * MR..(p + 1) * MR];
            out[..rows].copy_from_slice(seg);
            out[rows..].fill(0.0);
        }
    }
}

/// Packs depth `pc..pc+kc_eff`, columns `jc..jc+nc_eff` of row-major
/// `src[·, ldb]` into NR-column panels (k-major, zero-padded to NR).
fn pack_b_rowmajor(
    dst: &mut [f32],
    src: &[f32],
    ldb: usize,
    pc: usize,
    kc_eff: usize,
    jc: usize,
    nc_eff: usize,
) {
    for (jr, panel) in dst.chunks_exact_mut(kc_eff * NR).enumerate() {
        let cols = NR.min(nc_eff - jr * NR);
        for p in 0..kc_eff {
            let seg = &src[(pc + p) * ldb + jc + jr * NR..][..cols];
            let out = &mut panel[p * NR..(p + 1) * NR];
            out[..cols].copy_from_slice(seg);
            out[cols..].fill(0.0);
        }
    }
}

/// Packs the *transposed* operand `src` (stored `[n_total, k]`, so
/// B[p][j] = src[j*k + p]) into NR-column panels.
fn pack_b_colmajor(
    dst: &mut [f32],
    src: &[f32],
    ldb: usize,
    pc: usize,
    kc_eff: usize,
    jc: usize,
    nc_eff: usize,
) {
    for (jr, panel) in dst.chunks_exact_mut(kc_eff * NR).enumerate() {
        let cols = NR.min(nc_eff - jr * NR);
        for c in 0..cols {
            let col = &src[(jc + jr * NR + c) * ldb + pc..][..kc_eff];
            for (p, &v) in col.iter().enumerate() {
                panel[p * NR + c] = v;
            }
        }
        if cols < NR {
            for p in 0..kc_eff {
                panel[p * NR + cols..(p + 1) * NR].fill(0.0);
            }
        }
    }
}

/// Blocked, packed `C = A·B` over caller-supplied packing closures.
///
/// `pack_a(dst, ic, mc_eff, pc, kc_eff)` must fill `dst` with the MR-row
/// panels of A rows `ic..ic+mc_eff` at depth `pc..pc+kc_eff`;
/// `pack_b(dst, pc, kc_eff, jc, nc_eff)` with the NR-column panels of B.
/// This indirection is what lets the three operand layouts
/// ([`gemm_nn`], [`gemm_tn`], [`gemm_nt`]) share one driver.
///
/// C is fully overwritten (no pre-zeroing needed); `k == 0` zero-fills.
/// Parallelism: one pool task per (MC, NC) block of the output grid — each
/// task packs the A/B slabs it needs into thread-local scratch buffers and
/// owns its C block exclusively. Packing is re-done per block (a few percent
/// of the kernel's own traffic) in exchange for tasks that share nothing.
fn gemm_packed<PA, PB>(m: usize, k: usize, n: usize, pack_a: &PA, pack_b: &PB, c: &mut [f32])
where
    PA: Fn(&mut [f32], usize, usize, usize, usize) + Sync,
    PB: Fn(&mut [f32], usize, usize, usize, usize) + Sync,
{
    assert_eq!(c.len(), m * n, "gemm output length mismatch");
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        c.fill(0.0);
        return;
    }
    let ic_blocks = m.div_ceil(MC);
    let jc_blocks = n.div_ceil(NC);
    let kc_max = KC.min(k);
    let cp = SendPtr(c.as_mut_ptr());
    apf_par::parallel_for_each(ic_blocks * jc_blocks, move |blk| {
        let ic = (blk / jc_blocks) * MC;
        let jc = (blk % jc_blocks) * NC;
        let mc_eff = MC.min(m - ic);
        let nc_eff = NC.min(n - jc);
        let mr_panels = mc_eff.div_ceil(MR);
        let nr_panels = nc_eff.div_ceil(NR);
        let mut pa = scratch::take(mr_panels * MR * kc_max);
        let mut pb = scratch::take(nr_panels * NR * kc_max);
        let mut pc = 0;
        while pc < k {
            let kc_eff = KC.min(k - pc);
            pack_a(&mut pa[..mr_panels * MR * kc_eff], ic, mc_eff, pc, kc_eff);
            pack_b(&mut pb[..nr_panels * NR * kc_eff], pc, kc_eff, jc, nc_eff);
            for jr in 0..nr_panels {
                let nr_eff = NR.min(nc_eff - jr * NR);
                let b_panel = &pb[jr * kc_eff * NR..(jr + 1) * kc_eff * NR];
                for ir in 0..mr_panels {
                    let mr_eff = MR.min(mc_eff - ir * MR);
                    let a_panel = &pa[ir * kc_eff * MR..(ir + 1) * kc_eff * MR];
                    // SAFETY: this task exclusively owns C rows
                    // ic..ic+mc_eff × cols jc..jc+nc_eff (the block grid is
                    // disjoint), and the tile window lies inside it.
                    unsafe {
                        tile(
                            cp,
                            n,
                            ic + ir * MR,
                            jc + jr * NR,
                            mr_eff,
                            nr_eff,
                            a_panel,
                            b_panel,
                            pc == 0,
                        )
                    };
                }
            }
            pc += KC;
        }
        scratch::give(pa);
        scratch::give(pb);
    });
}

/// Packed `[m,k] x [k,n]` (both row-major).
pub(crate) fn gemm_nn(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, c: &mut [f32]) {
    gemm_packed(
        m,
        k,
        n,
        &|dst: &mut [f32], ic, mc_eff, pc, kc_eff| {
            pack_a_rowmajor(dst, a, k, ic, mc_eff, pc, kc_eff)
        },
        &|dst: &mut [f32], pc, kc_eff, jc, nc_eff| {
            pack_b_rowmajor(dst, b, n, pc, kc_eff, jc, nc_eff)
        },
        c,
    );
}

/// Packed `[k,m]^T x [k,n]` (A transposed in storage).
pub(crate) fn gemm_tn(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, c: &mut [f32]) {
    gemm_packed(
        m,
        k,
        n,
        &|dst: &mut [f32], ic, mc_eff, pc, kc_eff| {
            pack_a_colmajor(dst, a, m, ic, mc_eff, pc, kc_eff)
        },
        &|dst: &mut [f32], pc, kc_eff, jc, nc_eff| {
            pack_b_rowmajor(dst, b, n, pc, kc_eff, jc, nc_eff)
        },
        c,
    );
}

/// Packed `[m,k] x [n,k]^T` (B transposed in storage).
pub(crate) fn gemm_nt(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, c: &mut [f32]) {
    gemm_packed(
        m,
        k,
        n,
        &|dst: &mut [f32], ic, mc_eff, pc, kc_eff| {
            pack_a_rowmajor(dst, a, k, ic, mc_eff, pc, kc_eff)
        },
        &|dst: &mut [f32], pc, kc_eff, jc, nc_eff| {
            pack_b_colmajor(dst, b, k, pc, kc_eff, jc, nc_eff)
        },
        c,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo(len: usize, seed: u32) -> Vec<f32> {
        (0..len)
            .map(|i| ((i as f32 + seed as f32) * 0.173).sin())
            .collect()
    }

    fn naive_nn(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for p in 0..k {
                let av = a[i * k + p];
                for j in 0..n {
                    c[i * n + j] += av * b[p * n + j];
                }
            }
        }
        c
    }

    fn assert_bitwise(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}: element {i}: {g} vs {w}");
        }
    }

    #[test]
    fn every_microkernel_matches_the_generic_one_bitwise() {
        // `microkernel` dispatches to one kernel per host, so without this the
        // other two would run in no test at all.
        fn bits(acc: &[[f32; NR]; MR]) -> Vec<u32> {
            acc.iter().flatten().map(|v| v.to_bits()).collect()
        }
        for kc in [1usize, 7, 75, 256] {
            let a = pseudo(kc * MR, 11 + kc as u32);
            let b = pseudo(kc * NR, 23 + kc as u32);
            // Non-zero starting accumulators: the kernels continue a C tile.
            let start_flat = pseudo(MR * NR, 5);
            let mut start = [[0.0f32; NR]; MR];
            for (row, vals) in start.iter_mut().zip(start_flat.chunks_exact(NR)) {
                row.copy_from_slice(vals);
            }
            let mut want = start;
            microkernel_generic(&a, &b, &mut want);
            let mut dispatched = start;
            microkernel(&a, &b, &mut dispatched);
            assert_eq!(bits(&dispatched), bits(&want), "dispatched, kc={kc}");
            #[cfg(target_arch = "x86_64")]
            {
                let mut sse2 = start;
                // SAFETY: SSE2 is part of the x86-64 baseline.
                unsafe { x86::microkernel_sse2(&a, &b, &mut sse2) };
                assert_eq!(bits(&sse2), bits(&want), "sse2, kc={kc}");
                if std::arch::is_x86_feature_detected!("avx") {
                    let mut avx = start;
                    // SAFETY: AVX was just detected on this host.
                    unsafe { x86::microkernel_avx(&a, &b, &mut avx) };
                    assert_eq!(bits(&avx), bits(&want), "avx, kc={kc}");
                }
            }
        }
    }

    #[test]
    fn packed_matches_naive_on_ragged_shapes() {
        // Shapes straddling every MR/NR/KC/MC/NC boundary case, plus K=0 and M=1.
        let shapes = [
            (1, 1, 1),
            (1, 7, 9),
            (3, 0, 5),
            (MR, KC, NR),
            (MR + 1, KC + 1, NR + 1),
            (MC - 1, 17, NC - 1),
            (MC + 3, KC + 5, NC + 7),
            (2 * MC, 2 * KC, 2 * NC),
            (13, 300, 77),
        ];
        for &(m, k, n) in &shapes {
            let a = pseudo(m * k, 1);
            let b = pseudo(k * n, 2);
            let want = naive_nn(&a, &b, m, k, n);
            let mut got = vec![f32::NAN; m * n]; // dirty: gemm must overwrite
            gemm_nn(&a, &b, m, k, n, &mut got);
            assert_bitwise(&got, &want, &format!("nn {m}x{k}x{n}"));
        }
    }

    #[test]
    fn transposed_variants_match_naive() {
        let (m, k, n) = (37, 65, 43);
        let a = pseudo(m * k, 3);
        let b = pseudo(k * n, 4);
        let want = naive_nn(&a, &b, m, k, n);
        // TN: store A as [k, m].
        let mut at = vec![0.0f32; m * k];
        for i in 0..m {
            for p in 0..k {
                at[p * m + i] = a[i * k + p];
            }
        }
        let mut got = vec![0.0f32; m * n];
        gemm_tn(&at, &b, m, k, n, &mut got);
        assert_bitwise(&got, &want, "tn");
        // NT: store B as [n, k].
        let mut bt = vec![0.0f32; k * n];
        for p in 0..k {
            for j in 0..n {
                bt[j * k + p] = b[p * n + j];
            }
        }
        let mut got = vec![0.0f32; m * n];
        gemm_nt(&a, &bt, m, k, n, &mut got);
        assert_bitwise(&got, &want, "nt");
    }

    #[test]
    fn parallel_blocks_are_bitwise_identical() {
        let (m, k, n) = (2 * MC + 5, KC + 9, 2 * NC + 3);
        let a = pseudo(m * k, 5);
        let b = pseudo(k * n, 6);
        let run = |t: usize| {
            apf_par::with_threads(t, || {
                let mut c = vec![0.0f32; m * n];
                gemm_nn(&a, &b, m, k, n, &mut c);
                c
            })
        };
        let c1 = run(1);
        for t in [2usize, 3, 7] {
            assert_bitwise(&run(t), &c1, &format!("threads={t}"));
        }
    }
}
