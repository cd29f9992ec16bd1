//! The harness's private PRNG (xoshiro256++ over SplitMix64 seeding).
//!
//! The package is not dependency-free — its `Cargo.toml` depends on
//! `apf-fedsim` (for [`crate::golden`]), and through it on `apf-tensor` —
//! but the property harness uses none of it: the ~40 lines of generator
//! below are a copy of the stream in `apf_tensor::rng`, pinned independently
//! so test-case generation is stable across refactors of the tensor crate,
//! whose test suites are the harness's first consumers.

pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives an independent per-case seed from `(base, case_index)`.
pub(crate) fn derive_seed(base: u64, salt: u64) -> u64 {
    splitmix64(base ^ splitmix64(salt.wrapping_mul(0xA076_1D64_78BD_642F)))
}

/// Deterministic generator handed to [`crate::Gen`] samplers.
#[derive(Debug, Clone)]
pub struct TkRng {
    s: [u64; 4],
}

impl TkRng {
    pub(crate) fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            let out = splitmix64(sm);
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            out
        };
        TkRng {
            s: [next(), next(), next(), next()],
        }
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform on `[0, 1)` (53-bit mantissa).
    pub(crate) fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `lo..hi`.
    pub(crate) fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo < hi);
        lo.wrapping_add(self.next_u64() % (hi - lo))
    }
}
