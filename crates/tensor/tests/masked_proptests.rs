//! Property tests for the bit-packed freeze-mask kernels in `masked.rs`.
//!
//! Each kernel is checked bitwise (`f32::to_bits`) against a naive
//! per-scalar reference over randomly generated masks. Masks are built
//! word-by-word from a class generator so the three word classes the driver
//! tells apart — all-frozen words (skipped with one compare), all-unfrozen
//! words (one SIMD block), and mixed words (visited lane by lane: the only
//! class per-scalar freezing produces once it starts) — all appear in every
//! run, including a ragged tail word of 1 to 64 lanes.

use apf_testkit::{prop_assert, prop_assert_eq, property, u64s, u8s, usizes, vecs};

/// Packs a dense `frozen` vector into `FreezeMask`-layout words: bit
/// `j % 64` of word `j / 64` set = scalar `j` frozen, tail bits zero.
fn pack(frozen: &[bool]) -> Vec<u64> {
    let mut words = vec![0u64; frozen.len().div_ceil(64)];
    for (j, &f) in frozen.iter().enumerate() {
        if f {
            words[j / 64] |= 1u64 << (j % 64);
        }
    }
    words
}

/// Expands per-word classes into a dense frozen vector of
/// `(classes.len() - 1) * 64 + tail` scalars. Classes: 0 = all frozen,
/// 1 = all unfrozen, 2 = `0x5555…`, 3 = `0xAAAA…`, 4 = one bit set,
/// 5 = one bit clear, 6 = seeded coin flips, 7 = seeded Bernoulli at a
/// per-word share of 1–99 % frozen.
fn mask_from_classes(classes: &[u8], tail: usize, seed: u64) -> Vec<bool> {
    let mut state = seed | 1;
    // xorshift64*: cheap, deterministic, well mixed.
    let mut draw = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 32
    };
    let mut frozen = Vec::with_capacity(classes.len() * 64);
    for (w, &class) in classes.iter().enumerate() {
        let nbits = if w + 1 == classes.len() { tail } else { 64 };
        let lone = draw() as usize % nbits;
        let pct = 1 + draw() % 99;
        for j in 0..nbits {
            frozen.push(match class {
                0 => true,
                1 => false,
                2 => j % 2 == 0,
                3 => j % 2 == 1,
                4 => j == lone,
                5 => j != lone,
                6 => draw() % 2 == 0,
                _ => draw() % 100 < pct,
            });
        }
    }
    frozen
}

/// The mask classes of [`mask_from_classes`].
const CLASSES: std::ops::Range<u8> = 0..8;

/// `clean` with NaN / ±inf in every slot where `skipped` says the kernel
/// under test must not look.
fn poison(clean: &[f32], skipped: impl Fn(usize) -> bool) -> Vec<f32> {
    let bad = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
    (0..clean.len())
        .map(|j| if skipped(j) { bad[j % 3] } else { clean[j] })
        .collect()
}

/// Deterministic well-formed f32 data (no NaN/inf so bit comparisons see
/// arithmetic, not payload propagation quirks): values in roughly [-2, 2).
fn data(len: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(2).wrapping_add(1);
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 40) as f32 / (1u64 << 22) as f32) - 2.0
        })
        .collect()
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

property! {
    // mask_select gathers exactly the unfrozen scalars in index order, and
    // mask_scatter is its exact inverse back into the same mask.
    fn select_matches_reference_and_scatter_inverts(
        classes in vecs(u8s(CLASSES), 1..6),
        tail in usizes(1..65),
        seed in u64s(0..u64::MAX)
    ) {
        let frozen = mask_from_classes(&classes, tail, seed);
        let words = pack(&frozen);
        // Frozen slots of the source hold NaN/inf: none may be gathered.
        let src = poison(&data(frozen.len(), seed ^ 0xa5a5), |j| frozen[j]);

        let mut compact = Vec::new();
        apf_tensor::mask_select(&src, &words, &mut compact);
        let reference: Vec<f32> = src
            .iter()
            .zip(&frozen)
            .filter(|(_, &f)| !f)
            .map(|(&x, _)| x)
            .collect();
        prop_assert_eq!(bits(&compact), bits(&reference));
        prop_assert!(compact.iter().all(|v| v.is_finite()), "gathered a frozen slot");

        // Scatter the selection into a poisoned buffer: unfrozen slots get
        // the compact values back, frozen slots keep their sentinel.
        let mut dst = vec![f32::from_bits(0x7fc0_dead); frozen.len()];
        apf_tensor::mask_scatter(&mut dst, &compact, &words);
        for (j, &f) in frozen.iter().enumerate() {
            if f {
                prop_assert_eq!(dst[j].to_bits(), 0x7fc0_dead, "frozen slot {j} written");
            } else {
                prop_assert_eq!(dst[j].to_bits(), src[j].to_bits(), "slot {j}");
            }
        }
    }

    // mask_copy writes exactly the unfrozen slots; mask_fill (the rollback
    // kernel) writes exactly the frozen slots — together they tile the
    // vector with no overlap and no gap.
    fn copy_and_fill_partition_the_vector(
        classes in vecs(u8s(CLASSES), 1..6),
        tail in usizes(1..65),
        seed in u64s(0..u64::MAX)
    ) {
        let frozen = mask_from_classes(&classes, tail, seed);
        let words = pack(&frozen);
        let n = frozen.len();
        let src = data(n, seed ^ 0x1111);
        let base = data(n, seed ^ 0x2222);

        // Each kernel's source is poisoned exactly where it must not read.
        let mut copied = base.clone();
        apf_tensor::mask_copy(&mut copied, &poison(&src, |j| frozen[j]), &words);
        let mut filled = base.clone();
        apf_tensor::mask_fill(&mut filled, &poison(&src, |j| !frozen[j]), &words);
        for j in 0..n {
            let (exp_copy, exp_fill) = if frozen[j] {
                (base[j], src[j])
            } else {
                (src[j], base[j])
            };
            prop_assert_eq!(copied[j].to_bits(), exp_copy.to_bits(), "copy slot {j}");
            prop_assert_eq!(filled[j].to_bits(), exp_fill.to_bits(), "fill slot {j}");
        }
        // Applying the complementary kernel on top reconstructs src exactly.
        apf_tensor::mask_fill(&mut copied, &src, &words);
        prop_assert_eq!(bits(&copied), bits(&src));
    }

    // masked_axpy and masked_div match the per-scalar IEEE reference bit for
    // bit on unfrozen slots and never touch frozen ones — NaN poison in the
    // frozen slots of `x` must not leak into `y`.
    fn axpy_and_div_match_scalar_reference(
        classes in vecs(u8s(CLASSES), 1..6),
        tail in usizes(1..65),
        seed in u64s(0..u64::MAX),
        a_raw in u8s(0..200),
        d_raw in u8s(1..200)
    ) {
        let frozen = mask_from_classes(&classes, tail, seed);
        let words = pack(&frozen);
        let n = frozen.len();
        let a = (a_raw as f32 - 100.0) / 32.0;
        let d = d_raw as f32 / 16.0;
        let x = poison(&data(n, seed ^ 0x3333), |j| frozen[j]);
        let base = data(n, seed ^ 0x4444);

        let mut y = base.clone();
        apf_tensor::masked_axpy(&mut y, &x, a, &words);
        apf_tensor::masked_div(&mut y, d, &words);
        for j in 0..n {
            if frozen[j] {
                prop_assert_eq!(y[j].to_bits(), base[j].to_bits(), "frozen slot {j}");
            } else {
                let expect = (base[j] + a * x[j]) / d;
                prop_assert!(!y[j].is_nan(), "NaN leaked into unfrozen slot {j}");
                prop_assert_eq!(y[j].to_bits(), expect.to_bits(), "slot {j}");
            }
        }
    }
}

property! {
    // mask_scatter takes exactly one value per unfrozen slot: one too few
    // and one too many both panic with the same message, wherever the
    // shortfall lands — here in a mixed last word.
    fn scatter_rejects_a_miscounted_compact_vector(
        classes in vecs(u8s(CLASSES), 0..4),
        last in u8s(2..8),
        tail in usizes(2..65),
        seed in u64s(0..u64::MAX)
    ) {
        let mut classes = classes;
        classes.push(last);
        let frozen = mask_from_classes(&classes, tail, seed);
        let words = pack(&frozen);
        let unfrozen = frozen.iter().filter(|&&f| !f).count();
        for count in [unfrozen.wrapping_sub(1), unfrozen + 1] {
            if count == usize::MAX {
                continue;
            }
            let values = vec![1.0f32; count];
            let mut dst = vec![0.0f32; frozen.len()];
            let words = words.clone();
            let caught = std::panic::catch_unwind(move || {
                apf_tensor::mask_scatter(&mut dst, &values, &words);
            });
            let message = caught.expect_err("a miscounted scatter must panic");
            let message = message
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| message.downcast_ref::<&str>().copied())
                .unwrap_or("");
            prop_assert!(
                message.contains("scatter value count mismatch"),
                "{count} values for {unfrozen} slots panicked with {message:?}"
            );
        }
    }
}

#[test]
fn all_frozen_and_none_frozen_whole_vectors() {
    // Degenerate masks at a few lengths straddling word boundaries.
    for n in [1usize, 63, 64, 65, 129] {
        let src = data(n, 9);
        let base = data(n, 10);
        for frozen_all in [false, true] {
            let frozen = vec![frozen_all; n];
            let words = pack(&frozen);
            let mut compact = Vec::new();
            apf_tensor::mask_select(&src, &words, &mut compact);
            assert_eq!(compact.len(), if frozen_all { 0 } else { n });
            let mut y = base.clone();
            apf_tensor::masked_axpy(&mut y, &src, 0.5, &words);
            let expect: Vec<f32> = if frozen_all {
                base.clone()
            } else {
                base.iter().zip(&src).map(|(&b, &s)| b + 0.5 * s).collect()
            };
            assert_eq!(bits(&y), bits(&expect), "n={n} frozen_all={frozen_all}");
        }
    }
}
