//! The property runner: drives cases, shrinks counterexamples, and reports
//! the seed needed to replay a failure bit-for-bit.

use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};

use apf_tensor::derive_seed;

use crate::gen::Gen;
use crate::rng::TkRng;

/// Why a single test case did not pass.
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// The property is false for this input.
    Fail(String),
    /// The input does not satisfy the property's precondition
    /// (see [`prop_assume!`](crate::prop_assume)); the case is discarded.
    Reject,
}

/// Result of evaluating a property on one input.
pub type TestCaseResult = Result<(), TestCaseError>;

/// Base seed used when `APF_TESTKIT_SEED` is not set. Fixed so every CI run
/// and every machine exercises the identical case sequence.
pub const DEFAULT_BASE_SEED: u64 = 0x5EED_AB1E_2026_0806;

/// Default number of cases per property when `APF_TESTKIT_CASES` is not set.
pub const DEFAULT_CASES: usize = 64;

/// Runner configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Cases to run per property.
    pub cases: usize,
    /// Base seed; case `i` uses a seed derived from `(seed, i)`.
    pub seed: u64,
    /// Cap on property evaluations spent shrinking one counterexample.
    pub max_shrink_steps: usize,
}

impl Config {
    /// Builds the config from the environment: `APF_TESTKIT_CASES` and
    /// `APF_TESTKIT_SEED` override the defaults.
    fn from_env() -> Self {
        Self::from_env_or(DEFAULT_CASES)
    }

    /// [`Config::from_env`] with `cases` per property where
    /// `APF_TESTKIT_CASES` does not say. The one place either variable is
    /// read.
    fn from_env_or(cases: usize) -> Self {
        let cases = std::env::var("APF_TESTKIT_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(cases);
        let seed = std::env::var("APF_TESTKIT_SEED")
            .ok()
            .and_then(|v| parse_seed(&v))
            .unwrap_or(DEFAULT_BASE_SEED);
        Config {
            cases,
            seed,
            max_shrink_steps: 400,
        }
    }
}

fn parse_seed(v: &str) -> Option<u64> {
    if let Some(hex) = v.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else {
        v.parse().ok()
    }
}

/// Runs `prop` on cases drawn from `gen`, using the environment config.
///
/// # Panics
/// Panics (failing the enclosing `#[test]`) with the shrunk counterexample
/// and replay instructions if any case fails.
pub fn run<T: Clone + Debug + 'static>(
    name: &str,
    gen: &Gen<T>,
    prop: impl Fn(&T) -> TestCaseResult,
) {
    run_config(name, Config::from_env(), gen, prop);
}

/// Like [`run`] but with an explicit case count (still overridden by
/// `APF_TESTKIT_CASES` so a CI sweep can crank everything up at once).
pub fn run_cases<T: Clone + Debug + 'static>(
    name: &str,
    cases: usize,
    gen: &Gen<T>,
    prop: impl Fn(&T) -> TestCaseResult,
) {
    run_config(name, Config::from_env_or(cases), gen, prop);
}

/// Evaluates the property, converting panics into failures.
fn eval<T>(prop: &impl Fn(&T) -> TestCaseResult, value: &T) -> TestCaseResult {
    match catch_unwind(AssertUnwindSafe(|| prop(value))) {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
                .unwrap_or_else(|| "panicked (non-string payload)".to_owned());
            Err(TestCaseError::Fail(format!("panic: {msg}")))
        }
    }
}

/// Runs `prop` under an explicit [`Config`].
///
/// # Panics
/// Panics with the shrunk counterexample on failure, or if more than
/// `10 * cases` inputs in a row are rejected by `prop_assume!`.
pub fn run_config<T: Clone + Debug + 'static>(
    name: &str,
    cfg: Config,
    gen: &Gen<T>,
    prop: impl Fn(&T) -> TestCaseResult,
) {
    let mut rejects = 0usize;
    for case in 0..cfg.cases {
        let mut rng = TkRng::new(derive_seed(cfg.seed, case as u64));
        // Re-draw (from the same stream) when the precondition rejects.
        let (value, failure) = loop {
            let value = gen.sample(&mut rng);
            match eval(&prop, &value) {
                Ok(()) => break (value, None),
                Err(TestCaseError::Reject) => {
                    rejects += 1;
                    assert!(
                        rejects <= 10 * cfg.cases,
                        "[testkit] property '{name}': too many rejected inputs \
                         ({rejects}); loosen the generator or the prop_assume!"
                    );
                }
                Err(TestCaseError::Fail(msg)) => break (value, Some(msg)),
            }
        };
        if let Some(msg) = failure {
            let (min_value, min_msg) = shrink_failure(gen, &prop, value.clone(), msg, &cfg);
            panic!(
                "[testkit] property '{name}' failed at case {case}/{cases}\n\
                 \x20 minimal failing input: {min_value:?}\n\
                 \x20 error: {min_msg}\n\
                 \x20 original input: {value:?}\n\
                 \x20 replay: APF_TESTKIT_SEED={seed:#x} APF_TESTKIT_CASES={cases} cargo test {name}",
                cases = cfg.cases,
                seed = cfg.seed,
            );
        }
    }
}

/// Greedy shrink loop: repeatedly adopt the first shrink candidate that still
/// fails, until no candidate fails or the step budget runs out.
fn shrink_failure<T: Clone + Debug + 'static>(
    gen: &Gen<T>,
    prop: &impl Fn(&T) -> TestCaseResult,
    mut best: T,
    mut best_msg: String,
    cfg: &Config,
) -> (T, String) {
    let mut steps = 0usize;
    'outer: loop {
        for candidate in gen.shrink(&best) {
            steps += 1;
            if steps > cfg.max_shrink_steps {
                break 'outer;
            }
            if let Err(TestCaseError::Fail(msg)) = eval(prop, &candidate) {
                best = candidate;
                best_msg = msg;
                continue 'outer;
            }
        }
        break;
    }
    (best, best_msg)
}

/// Asserts a condition inside a property; on failure the case fails with the
/// stringified condition (or a custom `format!` message) and is shrunk.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::TestCaseError::Fail(format!(
                "assertion failed: {} ({}:{})", stringify!($cond), file!(), line!()
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::TestCaseError::Fail(format!(
                "{} ({}:{})", format!($($fmt)+), file!(), line!()
            )));
        }
    };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a == b, "{a:?} != {b:?}");
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a == b, "{a:?} != {b:?}: {}", format!($($fmt)+));
    }};
}

/// Asserts inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a != b, "{a:?} == {b:?}");
    }};
}

/// Discards the current case when its precondition does not hold; the runner
/// draws a replacement input.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::TestCaseError::Reject);
        }
    };
}

/// Declares property tests in a `proptest!`-like syntax.
///
/// ```
/// apf_testkit::property! {
///     fn addition_commutes(a in apf_testkit::u32s(0..1000), b in apf_testkit::u32s(0..1000)) {
///         apf_testkit::prop_assert_eq!(a + b, b + a);
///     }
/// }
/// ```
///
/// An optional `[N]` before `fn` pins the case count (still overridden by
/// `APF_TESTKIT_CASES`).
#[macro_export]
macro_rules! property {
    () => {};
    ($(#[$meta:meta])* [$cases:expr] fn $name:ident($($arg:ident in $g:expr),+ $(,)?) $body:block $($rest:tt)*) => {
        $(#[$meta])*
        #[test]
        fn $name() {
            let gen = $crate::zip(($($g,)+));
            $crate::run_cases(stringify!($name), $cases, &gen, |value| {
                let ($($arg,)+) = value.clone();
                $body
                #[allow(unreachable_code)]
                Ok(())
            });
        }
        $crate::property!{ $($rest)* }
    };
    ($(#[$meta:meta])* fn $name:ident($($arg:ident in $g:expr),+ $(,)?) $body:block $($rest:tt)*) => {
        $(#[$meta])*
        #[test]
        fn $name() {
            let gen = $crate::zip(($($g,)+));
            $crate::run(stringify!($name), &gen, |value| {
                let ($($arg,)+) = value.clone();
                $body
                #[allow(unreachable_code)]
                Ok(())
            });
        }
        $crate::property!{ $($rest)* }
    };
}
