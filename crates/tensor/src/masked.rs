//! Freeze-mask kernels: select, fill, scatter, copy, axpy, and scale over
//! bit-packed freeze masks.
//!
//! APF freezes most scalars most of the time, so every dense pass over the
//! flat parameter vector wastes work proportional to the frozen fraction.
//! These kernels take the mask as packed 64-bit words (bit `j % 64` of word
//! `j / 64` set = scalar `j` frozen, the `apf-core` `FreezeMask` layout) and
//! work **word-at-a-time** over three word classes: a word with no active
//! lane is skipped with one compare, a word whose lanes are all active runs
//! one full-width SIMD block, and a *mixed* word visits its active lanes one
//! by one (`trailing_zeros`, clear the lowest set bit) with the scalar op
//! inline. Alg. 1 freezes per scalar, so once freezing starts its masks are
//! Bernoulli: every word is mixed and the mean active run is 1 / frozen
//! share (7.6 scalars at 13 % frozen, 1.9 at 53 %), too short to pay for a
//! block-kernel call per run. Cost scales with `len / 64` plus the active
//! scalar count, never with the inactive one.
//!
//! # Determinism
//!
//! Same contract as `gemm.rs`: the x86-64 block paths (runtime AVX/SSE2
//! dispatch, scalar fallback elsewhere) use only per-lane `mul`/`add`/`div`
//! and the mixed-word path is the scalar expression itself — every lane
//! performs exactly the scalar op sequence on its own index, so results are
//! bitwise identical to the portable reference at any lane width and on any
//! host. Inactive lanes are never read or written, so `NaN`/`inf` garbage in
//! frozen slots cannot leak.

/// The valid-bit mask for a word covering `nbits` scalars (`1..=64`).
#[inline]
fn word_limit_mask(nbits: usize) -> u64 {
    debug_assert!(0 < nbits && nbits <= 64);
    if nbits == 64 {
        u64::MAX
    } else {
        (1u64 << nbits) - 1
    }
}

/// The set bits of one word's `active` lanes as ascending scalar indices
/// from `base`. Counted up front, so the iterator knows its length and
/// `Vec::extend` reserves once.
#[inline]
fn lanes(base: usize, mut active: u64) -> impl Iterator<Item = usize> {
    (0..active.count_ones()).map(move |_| {
        let j = base + active.trailing_zeros() as usize;
        active &= active - 1;
        j
    })
}

/// Drives a kernel over `len` scalars word-at-a-time. A word with no active
/// lane costs one compare; a fully active word is one `block(state, start,
/// end)` call; a mixed word is one `mixed(state, base, active)` call, which
/// visits [`lanes`]`(base, active)` with the scalar op inline. `state` is
/// what both callbacks mutate (the destination, a cursor) and comes back
/// when the sweep ends. Active means unfrozen, or frozen when `invert` is
/// set (the [`mask_fill`] direction).
#[inline]
fn drive<S>(
    len: usize,
    words: &[u64],
    invert: bool,
    mut state: S,
    block: impl Fn(&mut S, usize, usize),
    mixed: impl Fn(&mut S, usize, u64),
) -> S {
    assert!(
        words.len() >= len.div_ceil(64),
        "mask words too short: {} words for {len} scalars",
        words.len()
    );
    for (w, &word) in words.iter().enumerate() {
        let base = w * 64;
        if base >= len {
            break;
        }
        let limit = (base + 64).min(len);
        let valid = word_limit_mask(limit - base);
        let active = if invert { word } else { !word } & valid;
        if active == valid {
            block(&mut state, base, limit);
        } else if active != 0 {
            mixed(&mut state, base, active);
        }
    }
    state
}

/// Appends the **unfrozen** scalars of `src` to `out`, in index order.
/// This is the compact-upload gather: no dense boolean pass.
pub fn mask_select(src: &[f32], words: &[u64], out: &mut Vec<f32>) {
    drive(
        src.len(),
        words,
        false,
        out,
        |out, s, e| out.extend_from_slice(&src[s..e]),
        |out, base, active| out.extend(lanes(base, active).map(|j| src[j])),
    );
}

/// Scatters compact `values` into the **unfrozen** slots of `dst` in index
/// order (the inverse of [`mask_select`]); frozen slots are untouched.
///
/// # Panics
/// Panics if `values` does not hold exactly one value per unfrozen slot.
pub fn mask_scatter(dst: &mut [f32], values: &[f32], words: &[u64]) {
    // The next `n` compact values, advancing the cursor past them.
    let take = |cursor: &mut usize, n: usize| {
        let chunk = values
            .get(*cursor..*cursor + n)
            .expect("scatter value count mismatch");
        *cursor += n;
        chunk
    };
    let (_, used) = drive(
        dst.len(),
        words,
        false,
        (dst, 0usize),
        |(dst, cursor), s, e| dst[s..e].copy_from_slice(take(cursor, e - s)),
        |(dst, cursor), base, active| {
            let chunk = take(cursor, active.count_ones() as usize);
            for (j, &v) in lanes(base, active).zip(chunk) {
                dst[j] = v;
            }
        },
    );
    assert_eq!(used, values.len(), "scatter value count mismatch");
}

/// `dst[j] = src[j]` on the active lanes: what [`mask_fill`] (frozen lanes)
/// and [`mask_copy`] (unfrozen lanes) both are.
fn copy_active(dst: &mut [f32], src: &[f32], words: &[u64], invert: bool) {
    drive(
        dst.len(),
        words,
        invert,
        dst,
        |dst, s, e| copy_block(&mut dst[s..e], &src[s..e]),
        |dst, base, active| lanes(base, active).for_each(|j| dst[j] = src[j]),
    );
}

/// Overwrites the **frozen** slots of `dst` from the dense `src` — the
/// rollback kernel: `dst` is the live parameters, `src` the pinned values.
///
/// # Panics
/// Panics if `dst` and `src` lengths disagree.
pub fn mask_fill(dst: &mut [f32], src: &[f32], words: &[u64]) {
    assert_eq!(dst.len(), src.len(), "fill length mismatch");
    copy_active(dst, src, words, true);
}

/// Overwrites the **unfrozen** slots of `dst` from the dense `src` — the
/// aggregate-application / partial-sync write-back kernel.
///
/// # Panics
/// Panics if `dst` and `src` lengths disagree.
pub fn mask_copy(dst: &mut [f32], src: &[f32], words: &[u64]) {
    assert_eq!(dst.len(), src.len(), "copy length mismatch");
    copy_active(dst, src, words, false);
}

/// `y[j] += a * x[j]` for every **unfrozen** `j` — the sparse-aggregation
/// accumulator (weighted sums over client uploads without compacting first).
///
/// # Panics
/// Panics if `y` and `x` lengths disagree.
pub fn masked_axpy(y: &mut [f32], x: &[f32], a: f32, words: &[u64]) {
    assert_eq!(y.len(), x.len(), "axpy length mismatch");
    drive(
        y.len(),
        words,
        false,
        y,
        |y, s, e| axpy_block(&mut y[s..e], &x[s..e], a),
        |y, base, active| lanes(base, active).for_each(|j| y[j] += a * x[j]),
    );
}

/// `y[j] /= d` for every **unfrozen** `j` — the weighted-mean normalizer.
/// Division (not multiplication by a reciprocal) to stay bitwise identical
/// to the scalar reference.
pub fn masked_div(y: &mut [f32], d: f32, words: &[u64]) {
    drive(
        y.len(),
        words,
        false,
        y,
        |y, s, e| div_block(&mut y[s..e], d),
        |y, base, active| lanes(base, active).for_each(|j| y[j] /= d),
    );
}

/// Dense block copy, runtime-dispatched like the GEMM microkernel.
#[inline]
fn copy_block(dst: &mut [f32], src: &[f32]) {
    #[cfg(target_arch = "x86_64")]
    {
        if crate::gemm::use_avx() {
            // SAFETY: gated on runtime AVX detection.
            unsafe { x86::copy_avx(dst, src) };
        } else {
            // SAFETY: SSE2 is part of the x86-64 baseline.
            unsafe { x86::copy_sse2(dst, src) };
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    dst.copy_from_slice(src);
}

/// Dense `y += a * x` block; per-lane `mul` + `add`, never FMA.
#[inline]
fn axpy_block(y: &mut [f32], x: &[f32], a: f32) {
    #[cfg(target_arch = "x86_64")]
    {
        if crate::gemm::use_avx() {
            // SAFETY: gated on runtime AVX detection.
            unsafe { x86::axpy_avx(y, x, a) };
        } else {
            // SAFETY: SSE2 is part of the x86-64 baseline.
            unsafe { x86::axpy_sse2(y, x, a) };
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    axpy_generic(y, x, a);
}

/// Dense `y /= d` block; per-lane IEEE division.
#[inline]
fn div_block(y: &mut [f32], d: f32) {
    #[cfg(target_arch = "x86_64")]
    {
        if crate::gemm::use_avx() {
            // SAFETY: gated on runtime AVX detection.
            unsafe { x86::div_avx(y, d) };
        } else {
            // SAFETY: SSE2 is part of the x86-64 baseline.
            unsafe { x86::div_sse2(y, d) };
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    div_generic(y, d);
}

/// Portable axpy; the semantic definition the SIMD paths match bitwise.
#[cfg_attr(target_arch = "x86_64", allow(dead_code))]
fn axpy_generic(y: &mut [f32], x: &[f32], a: f32) {
    for (yv, &xv) in y.iter_mut().zip(x) {
        *yv += a * xv;
    }
}

/// Portable divide; the semantic definition the SIMD paths match bitwise.
#[cfg_attr(target_arch = "x86_64", allow(dead_code))]
fn div_generic(y: &mut [f32], d: f32) {
    for yv in y.iter_mut() {
        *yv /= d;
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! Explicit-SIMD block kernels. Per-lane `mul`/`add`/`div` only — each
    //! lane computes the exact scalar op sequence, so lane width cannot
    //! change results; scalar tails reuse the same expressions.

    use std::arch::x86_64::*;

    /// # Safety
    /// Caller must ensure the host supports AVX; slices must be equal length.
    #[target_feature(enable = "avx")]
    pub(super) unsafe fn copy_avx(dst: &mut [f32], src: &[f32]) {
        let n = dst.len();
        let mut i = 0;
        while i + 8 <= n {
            _mm256_storeu_ps(
                dst.as_mut_ptr().add(i),
                _mm256_loadu_ps(src.as_ptr().add(i)),
            );
            i += 8;
        }
        dst[i..].copy_from_slice(&src[i..]);
    }

    /// # Safety
    /// SSE2 is unconditionally available on x86-64; slices equal length.
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn copy_sse2(dst: &mut [f32], src: &[f32]) {
        let n = dst.len();
        let mut i = 0;
        while i + 4 <= n {
            _mm_storeu_ps(dst.as_mut_ptr().add(i), _mm_loadu_ps(src.as_ptr().add(i)));
            i += 4;
        }
        dst[i..].copy_from_slice(&src[i..]);
    }

    /// # Safety
    /// Caller must ensure the host supports AVX; slices must be equal length.
    #[target_feature(enable = "avx")]
    pub(super) unsafe fn axpy_avx(y: &mut [f32], x: &[f32], a: f32) {
        let n = y.len();
        let av = _mm256_set1_ps(a);
        let mut i = 0;
        while i + 8 <= n {
            let yv = _mm256_loadu_ps(y.as_ptr().add(i));
            let xv = _mm256_loadu_ps(x.as_ptr().add(i));
            _mm256_storeu_ps(
                y.as_mut_ptr().add(i),
                _mm256_add_ps(yv, _mm256_mul_ps(av, xv)),
            );
            i += 8;
        }
        for j in i..n {
            y[j] += a * x[j];
        }
    }

    /// # Safety
    /// SSE2 is unconditionally available on x86-64; slices equal length.
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn axpy_sse2(y: &mut [f32], x: &[f32], a: f32) {
        let n = y.len();
        let av = _mm_set1_ps(a);
        let mut i = 0;
        while i + 4 <= n {
            let yv = _mm_loadu_ps(y.as_ptr().add(i));
            let xv = _mm_loadu_ps(x.as_ptr().add(i));
            _mm_storeu_ps(y.as_mut_ptr().add(i), _mm_add_ps(yv, _mm_mul_ps(av, xv)));
            i += 4;
        }
        for j in i..n {
            y[j] += a * x[j];
        }
    }

    /// # Safety
    /// Caller must ensure the host supports AVX.
    #[target_feature(enable = "avx")]
    pub(super) unsafe fn div_avx(y: &mut [f32], d: f32) {
        let n = y.len();
        let dv = _mm256_set1_ps(d);
        let mut i = 0;
        while i + 8 <= n {
            let yv = _mm256_loadu_ps(y.as_ptr().add(i));
            _mm256_storeu_ps(y.as_mut_ptr().add(i), _mm256_div_ps(yv, dv));
            i += 8;
        }
        for yv in &mut y[i..] {
            *yv /= d;
        }
    }

    /// # Safety
    /// SSE2 is unconditionally available on x86-64.
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn div_sse2(y: &mut [f32], d: f32) {
        let n = y.len();
        let dv = _mm_set1_ps(d);
        let mut i = 0;
        while i + 4 <= n {
            let yv = _mm_loadu_ps(y.as_ptr().add(i));
            _mm_storeu_ps(y.as_mut_ptr().add(i), _mm_div_ps(yv, dv));
            i += 4;
        }
        for yv in &mut y[i..] {
            *yv /= d;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Packs a boolean frozen mask into words (the `FreezeMask` layout).
    fn pack_words(frozen: &[bool]) -> Vec<u64> {
        let mut words = vec![0u64; frozen.len().div_ceil(64)];
        for (j, &f) in frozen.iter().enumerate() {
            if f {
                words[j / 64] |= 1 << (j % 64);
            }
        }
        words
    }

    fn pseudo(len: usize, seed: u32) -> Vec<f32> {
        (0..len)
            .map(|i| ((i as f32 + seed as f32) * 0.173).sin())
            .collect()
    }

    /// Masks exercising every word class: none frozen, all frozen, whole
    /// frozen/unfrozen words, runs crossing word boundaries, and the mixed
    /// words per-scalar freezing makes — alternating bits either way round
    /// (`0x5555…` / `0xAAAA…`), one bit set or clear per word, Bernoulli at
    /// 1–99 % — each over whatever ragged tail `n` leaves.
    fn mask_cases(n: usize) -> Vec<Vec<bool>> {
        let mut cases = vec![
            vec![false; n],
            vec![true; n],
            (0..n).map(|j| j % 3 == 0).collect(),
            (0..n).map(|j| (j / 64) % 2 == 0).collect(),
            (0..n).map(|j| !(60..70).contains(&(j % 150))).collect(),
            (0..n).map(|j| j % 2 == 0).collect(),
            (0..n).map(|j| j % 2 == 1).collect(),
            (0..n).map(|j| j % 64 == (j / 64 * 37) % 64).collect(),
            (0..n).map(|j| j % 64 != (j / 64 * 37) % 64).collect(),
        ];
        for pct in [1u64, 5, 35, 50, 65, 95, 99] {
            let frozen = |j: usize| crate::splitmix64(j as u64 ^ pct << 32) % 100 < pct;
            cases.push((0..n).map(frozen).collect());
        }
        cases
    }

    #[test]
    fn select_and_scatter_roundtrip_match_reference() {
        for n in (0usize..=65).chain([127, 128, 200, 333]) {
            let src = pseudo(n, 1);
            for frozen in mask_cases(n) {
                let words = pack_words(&frozen);
                let mut got = Vec::new();
                mask_select(&src, &words, &mut got);
                let want: Vec<f32> = (0..n).filter(|&j| !frozen[j]).map(|j| src[j]).collect();
                assert_eq!(got, want, "select n={n}");
                let mut dst = pseudo(n, 2);
                let before = dst.clone();
                mask_scatter(&mut dst, &got, &words);
                for j in 0..n {
                    let want = if frozen[j] { before[j] } else { src[j] };
                    assert_eq!(dst[j].to_bits(), want.to_bits(), "scatter n={n} j={j}");
                }
            }
        }
    }

    #[test]
    fn fill_and_copy_match_reference() {
        for n in (0usize..=65).chain([127, 128, 257]) {
            let src = pseudo(n, 3);
            for frozen in mask_cases(n) {
                let words = pack_words(&frozen);
                let mut filled = pseudo(n, 4);
                let orig = filled.clone();
                mask_fill(&mut filled, &src, &words);
                let mut copied = orig.clone();
                mask_copy(&mut copied, &src, &words);
                for j in 0..n {
                    let (wf, wc) = if frozen[j] {
                        (src[j], orig[j])
                    } else {
                        (orig[j], src[j])
                    };
                    assert_eq!(filled[j].to_bits(), wf.to_bits(), "fill n={n} j={j}");
                    assert_eq!(copied[j].to_bits(), wc.to_bits(), "copy n={n} j={j}");
                }
            }
        }
    }

    #[test]
    fn axpy_and_div_are_bitwise_scalar() {
        for n in (0usize..=65).chain([100, 127, 128, 321]) {
            let x = pseudo(n, 5);
            for frozen in mask_cases(n) {
                let words = pack_words(&frozen);
                let mut y = pseudo(n, 6);
                let mut want = y.clone();
                masked_axpy(&mut y, &x, 0.37, &words);
                masked_div(&mut y, 3.0, &words);
                for j in 0..n {
                    if !frozen[j] {
                        want[j] += 0.37 * x[j];
                        want[j] /= 3.0;
                    }
                }
                for j in 0..n {
                    assert_eq!(y[j].to_bits(), want[j].to_bits(), "n={n} j={j}");
                }
            }
        }
    }

    #[test]
    fn inactive_lanes_are_neither_read_into_results_nor_written() {
        // NaN/inf in the lanes a kernel must skip (frozen ones, or unfrozen
        // ones for `mask_fill`) reach no output, and those lanes of the
        // destination keep their bits — in mixed words of every density and
        // in the whole-word classes.
        let n = 64 * 3 + 17;
        let poison = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        for frozen in mask_cases(n) {
            let words = pack_words(&frozen);
            let clean = pseudo(n, 7);
            let poisoned = |skip_frozen: bool| -> Vec<f32> {
                (0..n)
                    .map(|j| match frozen[j] == skip_frozen {
                        true => poison[j % 3],
                        false => clean[j],
                    })
                    .collect()
            };
            let x = poisoned(true);
            let base = pseudo(n, 8);

            let mut y = base.clone();
            masked_axpy(&mut y, &x, 2.0, &words);
            masked_div(&mut y, 4.0, &words);
            let mut copied = base.clone();
            mask_copy(&mut copied, &x, &words);
            let mut selected = Vec::new();
            mask_select(&x, &words, &mut selected);
            let mut filled = base.clone();
            mask_fill(&mut filled, &poisoned(false), &words);
            assert!(selected.iter().all(|v| v.is_finite()), "select read poison");
            for j in 0..n {
                let (want_y, want_copy, want_fill) = if frozen[j] {
                    (base[j], base[j], clean[j])
                } else {
                    ((base[j] + 2.0 * clean[j]) / 4.0, clean[j], base[j])
                };
                assert_eq!(y[j].to_bits(), want_y.to_bits(), "axpy/div j={j}");
                assert_eq!(copied[j].to_bits(), want_copy.to_bits(), "copy j={j}");
                assert_eq!(filled[j].to_bits(), want_fill.to_bits(), "fill j={j}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "scatter value count mismatch")]
    fn scatter_rejects_wrong_value_count() {
        let words = pack_words(&[false, false]);
        mask_scatter(&mut [0.0, 0.0], &[1.0], &words);
    }

    /// Scatters `unfrozen + extra` values over one full word and a mixed
    /// tail word (`0x5555…`: the shortfall or surplus lands in it).
    fn scatter_into_mixed_tail(extra: isize) {
        let frozen: Vec<bool> = (0..100).map(|j| j >= 64 && j % 2 == 0).collect();
        let unfrozen = frozen.iter().filter(|&&f| !f).count() as isize;
        let values = vec![1.0f32; (unfrozen + extra) as usize];
        mask_scatter(&mut [0.0; 100], &values, &pack_words(&frozen));
    }

    #[test]
    fn scatter_accepts_the_exact_count_into_a_mixed_word() {
        scatter_into_mixed_tail(0);
    }

    #[test]
    #[should_panic(expected = "scatter value count mismatch")]
    fn scatter_rejects_one_value_too_few_in_a_mixed_word() {
        scatter_into_mixed_tail(-1);
    }

    #[test]
    #[should_panic(expected = "scatter value count mismatch")]
    fn scatter_rejects_one_value_too_many_in_a_mixed_word() {
        scatter_into_mixed_tail(1);
    }

    #[test]
    fn lanes_visit_exactly_the_set_bits_in_ascending_order() {
        for bits in [0u64, 1, u64::MAX, 0b1011_0111, 1 << 63, (1 << 63) | 1] {
            let got: Vec<usize> = lanes(128, bits).collect();
            let want: Vec<usize> = (0..64)
                .filter(|b| bits >> b & 1 == 1)
                .map(|b| 128 + b)
                .collect();
            assert_eq!(got, want, "bits={bits:#x}");
            assert_eq!(lanes(0, bits).size_hint(), (want.len(), Some(want.len())));
        }
    }
}
