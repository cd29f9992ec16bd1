//! Composable value generators with integrated shrinking.
//!
//! A [`Gen<T>`] bundles a sampling function (seeded, deterministic) with a
//! shrinking function that proposes strictly "smaller" candidate values once
//! a counterexample is found. Combinators preserve shrinking where the value
//! flow is invertible (tuples, vectors, filters) and drop it where it is not
//! (`map`, `flat_map`) — the runner then simply reports the original input.

use std::ops::Range;
use std::rc::Rc;

use crate::rng::TkRng;

/// Sampling half of a generator: draws a value from the RNG.
type SampleFn<T> = Rc<dyn Fn(&mut TkRng) -> T>;
/// Shrinking half of a generator: proposes smaller counterexamples.
type ShrinkFn<T> = Rc<dyn Fn(&T) -> Vec<T>>;

/// A property-test value generator.
pub struct Gen<T> {
    sample: SampleFn<T>,
    shrink: ShrinkFn<T>,
}

impl<T> Clone for Gen<T> {
    fn clone(&self) -> Self {
        Gen {
            sample: Rc::clone(&self.sample),
            shrink: Rc::clone(&self.shrink),
        }
    }
}

impl<T: 'static> Gen<T> {
    /// A generator from a plain sampling closure (no shrinking).
    pub fn from_fn(sample: impl Fn(&mut TkRng) -> T + 'static) -> Self {
        Gen {
            sample: Rc::new(sample),
            shrink: Rc::new(|_| Vec::new()),
        }
    }

    /// A generator with both a sampler and a shrinker.
    fn with_shrink(
        sample: impl Fn(&mut TkRng) -> T + 'static,
        shrink: impl Fn(&T) -> Vec<T> + 'static,
    ) -> Self {
        Gen {
            sample: Rc::new(sample),
            shrink: Rc::new(shrink),
        }
    }

    /// Draws one value.
    pub fn sample(&self, rng: &mut TkRng) -> T {
        (self.sample)(rng)
    }

    /// Proposes smaller failing-candidate values.
    pub fn shrink(&self, value: &T) -> Vec<T> {
        (self.shrink)(value)
    }

    /// Transforms generated values (shrinking is not preserved).
    pub fn map<U: 'static>(self, f: impl Fn(T) -> U + 'static) -> Gen<U> {
        Gen::from_fn(move |rng| f(self.sample(rng)))
    }

    /// Builds a dependent generator (shrinking is not preserved).
    pub fn flat_map<U: 'static>(self, f: impl Fn(T) -> Gen<U> + 'static) -> Gen<U> {
        Gen::from_fn(move |rng| f(self.sample(rng)).sample(rng))
    }
}

/// A generator that always yields `value`.
pub fn just<T: Clone + 'static>(value: T) -> Gen<T> {
    Gen::from_fn(move |_| value.clone())
}

macro_rules! int_gen {
    ($name:ident, $t:ty) => {
        /// Uniform integers in the half-open range, shrinking toward the low
        /// end.
        pub fn $name(r: Range<$t>) -> Gen<$t> {
            assert!(r.start < r.end, "empty generator range");
            let (lo, hi) = (r.start, r.end);
            Gen::with_shrink(
                move |rng| rng.range_u64(lo as u64, hi as u64) as $t,
                move |&v| {
                    // Halving ladder toward `lo`: lo, v-(v-lo)/2, v-(v-lo)/4,
                    // …, v-1. Each adopted step halves the remaining distance,
                    // so shrinking converges in O(log) property evaluations.
                    let mut out = Vec::new();
                    if v > lo {
                        out.push(lo);
                        let mut d = (v - lo) / 2;
                        while d > 0 {
                            if v - d > lo {
                                out.push(v - d);
                            }
                            d /= 2;
                        }
                    }
                    out
                },
            )
        }
    };
}

int_gen!(u8s, u8);
int_gen!(u32s, u32);
int_gen!(u64s, u64);
int_gen!(usizes, usize);

macro_rules! float_gen {
    ($name:ident, $t:ty) => {
        /// Uniform floats in the half-open range, shrinking toward zero (or
        /// the in-range point nearest zero).
        pub fn $name(r: Range<$t>) -> Gen<$t> {
            assert!(r.start < r.end, "empty generator range");
            let (lo, hi) = (r.start, r.end);
            // Shrink target: the representable point of the range closest to 0.
            let origin: $t = if lo > 0.0 {
                lo
            } else if hi <= 0.0 {
                // hi itself is excluded; aim just inside.
                lo.max(hi - (hi - lo) * 1e-3)
            } else {
                0.0
            };
            Gen::with_shrink(
                move |rng| {
                    let v = lo + rng.unit_f64() as $t * (hi - lo);
                    if v < hi {
                        v
                    } else {
                        lo
                    }
                },
                move |&v| {
                    // Halving ladder toward the origin (see the integer
                    // shrinker): converges in O(log) adopted steps.
                    let mut out = Vec::new();
                    if (v - origin).abs() > <$t>::EPSILON {
                        out.push(origin);
                        let mut d = (v - origin) / 2.0;
                        for _ in 0..24 {
                            let c = v - d;
                            if (c - origin).abs() > <$t>::EPSILON && c != v {
                                out.push(c);
                            }
                            d /= 2.0;
                        }
                    }
                    out
                },
            )
        }
    };
}

float_gen!(f32s, f32);
float_gen!(f64s, f64);

/// Vectors with element generator `elem` and length drawn from `len`
/// (half-open). Shrinks by truncating toward the minimum length, then by
/// shrinking individual elements.
pub fn vecs<T: Clone + 'static>(elem: Gen<T>, len: Range<usize>) -> Gen<Vec<T>> {
    assert!(len.start < len.end, "empty length range");
    let (min_len, max_len) = (len.start, len.end);
    let elem2 = elem.clone();
    Gen::with_shrink(
        move |rng| {
            let n = rng.range_u64(min_len as u64, max_len as u64) as usize;
            (0..n).map(|_| elem.sample(rng)).collect()
        },
        move |v: &Vec<T>| {
            let mut out: Vec<Vec<T>> = Vec::new();
            if v.len() > min_len {
                let half = min_len.max(v.len() / 2);
                if half < v.len() {
                    out.push(v[..half].to_vec());
                }
                out.push(v[..v.len() - 1].to_vec());
            }
            for i in 0..v.len() {
                for c in elem2.shrink(&v[i]).into_iter().take(2) {
                    let mut w = v.clone();
                    w[i] = c;
                    out.push(w);
                }
                if out.len() >= 48 {
                    break;
                }
            }
            out
        },
    )
}

/// Converts a tuple of generators into a generator of tuples (componentwise
/// shrinking: one coordinate at a time).
pub fn zip<Z: ZipGens>(gens: Z) -> Gen<Z::Value> {
    gens.into_gen()
}

/// Tuples of [`Gen`]s convertible into a [`Gen`] of tuples.
pub trait ZipGens {
    /// The generated tuple type.
    type Value;
    /// Performs the conversion.
    fn into_gen(self) -> Gen<Self::Value>;
}

macro_rules! impl_zip {
    ($($g:ident : $t:ident : $idx:tt),+) => {
        impl<$($t: Clone + 'static),+> ZipGens for ($(Gen<$t>,)+) {
            type Value = ($($t,)+);
            fn into_gen(self) -> Gen<Self::Value> {
                let ($($g,)+) = self;
                let samplers = ($($g.clone(),)+);
                let shrinkers = ($($g,)+);
                Gen::with_shrink(
                    move |rng| ($(samplers.$idx.sample(rng),)+),
                    move |v| {
                        let mut out = Vec::new();
                        $(
                            for c in shrinkers.$idx.shrink(&v.$idx) {
                                let mut w = v.clone();
                                w.$idx = c;
                                out.push(w);
                            }
                        )+
                        out
                    },
                )
            }
        }
    };
}

impl_zip!(a: A: 0);
impl_zip!(a: A: 0, b: B: 1);
impl_zip!(a: A: 0, b: B: 1, c: C: 2);
impl_zip!(a: A: 0, b: B: 1, c: C: 2, d: D: 3);
impl_zip!(a: A: 0, b: B: 1, c: C: 2, d: D: 3, e: E: 4);
impl_zip!(a: A: 0, b: B: 1, c: C: 2, d: D: 3, e: E: 4, f: F: 5);
