//! The one vector abstraction of the packing-free kernels (`direct.rs`,
//! `batch.rs`): a kernel body is written once, generic over [`Lanes`], and
//! instantiated at `[f32; LANES]` (the portable definition) and at
//! `__m256` inside an `#[target_feature(enable = "avx")]` entry point (the
//! AVX tier chosen by [`crate::gemm::use_avx`]).
//!
//! Every method is one IEEE operation per lane, `mul` and `add` rounding
//! separately and never fused, so a lane computes exactly what the scalar
//! operators compute and the lane width cannot change a result.

/// Floats per vector.
pub(crate) const LANES: usize = 8;

/// One vector of [`LANES`] floats. `mul` and `add` round separately in
/// every lane, exactly as the scalar operators do.
///
/// # Safety
/// Every method requires that the host supports the instruction set of the
/// implementing type (none for `[f32; LANES]`).
pub(crate) trait Lanes: Copy {
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

/// `NV` vectors from the front of `src`.
///
/// # Safety
/// The host must support `V`'s instruction set.
#[inline(always)]
pub(crate) unsafe fn load_vectors<V: Lanes, const NV: usize>(src: &[f32]) -> [V; NV] {
    let mut out = [V::zero(); NV];
    for (v, src8) in out.iter_mut().zip(src[..NV * LANES].chunks_exact(LANES)) {
        *v = V::load(src8.try_into().expect("LANES-wide chunk"));
    }
    out
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{Lanes, LANES};
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
}
