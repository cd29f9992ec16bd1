//! `apf-testkit`: an in-tree property-testing harness.
//!
//! The build environment for this workspace has no crates-io access, so the
//! `proptest` suites the repo started with could never even compile. This
//! crate supplies the subset the workspace actually needs, fully in-tree:
//!
//! - **Seeded generators** ([`Gen`], [`u64s`], [`f32s`], [`vecs`], [`zip`],
//!   …) — every case is derived from a pinned base seed through the
//!   workspace's one generator (`apf_tensor::Rng`, behind [`TkRng`]), so
//!   failures reproduce bit-for-bit on any machine.
//! - **Shrinking** — when a case fails, the runner greedily minimizes the
//!   counterexample (integers toward the range minimum, floats toward zero,
//!   vectors toward the minimum length) before reporting.
//! - **Failure-seed reporting** — the panic message includes the
//!   `APF_TESTKIT_SEED=… APF_TESTKIT_CASES=…` environment needed to replay
//!   the exact failing case.
//! - **Configurable effort** — `APF_TESTKIT_CASES` globally scales how many
//!   cases every property runs (default [`DEFAULT_CASES`]).
//!
//! The [`property!`] macro gives a `proptest!`-like declaration syntax;
//! [`prop_assert!`], [`prop_assert_eq!`], [`prop_assert_ne!`], and
//! [`prop_assume!`] work inside property bodies.
//!
//! Beyond the property harness, [`golden`] hosts the shared seeded
//! run-and-record helper the golden-trajectory and net-vs-sim parity suites
//! replay their fixtures with, and [`alloc`] the counting allocator (with
//! its serialising guard) of the zero-allocation test binaries.
//!
//! ```
//! apf_testkit::property! {
//!     fn reverse_is_involutive(xs in apf_testkit::vecs(apf_testkit::u32s(0..100), 1..20)) {
//!         let mut ys = xs.clone();
//!         ys.reverse();
//!         ys.reverse();
//!         apf_testkit::prop_assert_eq!(xs, ys);
//!     }
//! }
//! ```

pub mod alloc;
pub mod golden;

mod gen;
mod rng;
mod runner;

pub use gen::{f32s, f64s, just, u32s, u64s, u8s, usizes, vecs, zip, Gen, ZipGens};
pub use rng::TkRng;
pub use runner::{
    run, run_cases, run_config, Config, TestCaseError, TestCaseResult, DEFAULT_BASE_SEED,
    DEFAULT_CASES,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic() {
        let g = zip((u64s(0..1000), f32s(-1.0..1.0)));
        let mut a = TkRng::new(42);
        let mut b = TkRng::new(42);
        for _ in 0..32 {
            assert_eq!(g.sample(&mut a), g.sample(&mut b));
        }
    }

    #[test]
    fn ranges_are_respected() {
        let mut rng = TkRng::new(7);
        let gi = usizes(3..17);
        let gf = f64s(-2.0..2.0);
        let gv = vecs(u8s(0..10), 2..6);
        for _ in 0..5000 {
            assert!((3..17).contains(&gi.sample(&mut rng)));
            let f = gf.sample(&mut rng);
            assert!((-2.0..2.0).contains(&f));
            let v = gv.sample(&mut rng);
            assert!((2..6).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 10));
        }
    }

    #[test]
    fn passing_property_runs_quietly() {
        run("tautology", &u64s(0..10), |_| Ok(()));
    }

    #[test]
    fn failing_property_panics_and_shrinks_to_minimum() {
        let result = std::panic::catch_unwind(|| {
            run("gt_zero", &u64s(0..1000), |&v| {
                prop_assert!(v < 500, "{v} too big");
                Ok(())
            });
        });
        let msg = *result.unwrap_err().downcast::<String>().unwrap();
        // The minimal counterexample for `v < 500` over 0..1000 is exactly 500.
        assert!(msg.contains("minimal failing input: 500"), "{msg}");
        assert!(msg.contains("APF_TESTKIT_SEED="), "{msg}");
    }

    #[test]
    fn vec_shrinking_reaches_minimal_length() {
        let result = std::panic::catch_unwind(|| {
            run("short_vecs", &vecs(u32s(0..5), 1..40), |v| {
                prop_assert!(v.len() < 4, "len {}", v.len());
                Ok(())
            });
        });
        let msg = *result.unwrap_err().downcast::<String>().unwrap();
        // Greedy truncation must land on a length-4 vector of range minima.
        assert!(msg.contains("minimal failing input: [0, 0, 0, 0]"), "{msg}");
    }

    #[test]
    fn panics_are_caught_and_shrunk() {
        let result = std::panic::catch_unwind(|| {
            run("no_panics", &usizes(0..64), |&v| {
                let xs = [0u8; 10];
                let _ = xs[v]; // out of bounds for v >= 10
                Ok(())
            });
        });
        let msg = *result.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("minimal failing input: 10"), "{msg}");
        assert!(msg.contains("panic"), "{msg}");
    }

    #[test]
    fn assume_rejects_and_redraws() {
        let evens = std::cell::Cell::new(0u32);
        run("assume_even", &u64s(0..1000), |&v| {
            prop_assume!(v % 2 == 0);
            evens.set(evens.get() + 1);
            prop_assert_eq!(v % 2, 0);
            Ok(())
        });
        assert!(evens.get() > 0);
    }

    property! {
        fn property_macro_compiles(a in u32s(0..50), b in u32s(0..50)) {
            prop_assert_eq!(a + b, b + a);
        }

        [8]
        fn property_macro_with_cases(xs in vecs(f32s(-1.0..1.0), 0..8)) {
            prop_assert!(xs.iter().all(|x| x.abs() <= 1.0));
        }
    }
}
