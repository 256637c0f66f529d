//! Offline stand-in for the subset of `proptest` this workspace uses.
//!
//! The build environment has no reachable cargo registry, so the real
//! `proptest` cannot be fetched. This crate keeps the seed property tests
//! compiling and *meaningful*: strategies generate seeded pseudo-random
//! values and each `proptest!` test runs its configured number of cases.
//! What is intentionally missing versus the real crate is shrinking — a
//! failing case is *not* minimized, but it **is reported**: the failure
//! message (for `prop_assert!` violations) or a line on stderr (for
//! panicking bodies) carries the case index, the RNG seed to replay the
//! whole test, and the `Debug` rendering of every generated input, so
//! failures are debuggable without shrinking. This requires every
//! generated value type to implement `Debug` (all of the real crate's
//! strategies do too). The per-test RNG seed is derived from the test
//! name (override with `PROPTEST_STUB_SEED`), so failures reproduce
//! exactly.

use rand::rngs::StdRng;
use rand::SeedableRng;

pub mod strategy {
    use super::TestRng;

    /// A generator of test values (no shrinking in this stand-in).
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        /// Generates with `self`, then generates from the strategy `f`
        /// returns.
        fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
        {
            FlatMap { inner: self, f }
        }

        /// Keeps only values `f` maps to `Some`; retries otherwise.
        fn prop_filter_map<U, F: Fn(Self::Value) -> Option<U>>(
            self,
            reason: &'static str,
            f: F,
        ) -> FilterMap<Self, F>
        where
            Self: Sized,
        {
            FilterMap {
                inner: self,
                f,
                reason,
            }
        }

        /// Keeps only values satisfying `f`; retries otherwise.
        fn prop_filter<F: Fn(&Self::Value) -> bool>(
            self,
            reason: &'static str,
            f: F,
        ) -> Filter<Self, F>
        where
            Self: Sized,
        {
            Filter {
                inner: self,
                f,
                reason,
            }
        }
    }

    /// See [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
        type Value = U;
        fn generate(&self, rng: &mut TestRng) -> U {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// See [`Strategy::prop_flat_map`].
    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, T: Strategy, F: Fn(S::Value) -> T> Strategy for FlatMap<S, F> {
        type Value = T::Value;
        fn generate(&self, rng: &mut TestRng) -> T::Value {
            (self.f)(self.inner.generate(rng)).generate(rng)
        }
    }

    const MAX_REJECTS: usize = 10_000;

    /// See [`Strategy::prop_filter_map`].
    pub struct FilterMap<S, F> {
        inner: S,
        f: F,
        reason: &'static str,
    }

    impl<S: Strategy, U, F: Fn(S::Value) -> Option<U>> Strategy for FilterMap<S, F> {
        type Value = U;
        fn generate(&self, rng: &mut TestRng) -> U {
            for _ in 0..MAX_REJECTS {
                if let Some(v) = (self.f)(self.inner.generate(rng)) {
                    return v;
                }
            }
            panic!(
                "strategy rejected {MAX_REJECTS} candidates: {}",
                self.reason
            );
        }
    }

    /// See [`Strategy::prop_filter`].
    pub struct Filter<S, F> {
        inner: S,
        f: F,
        reason: &'static str,
    }

    impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> S::Value {
            for _ in 0..MAX_REJECTS {
                let v = self.inner.generate(rng);
                if (self.f)(&v) {
                    return v;
                }
            }
            panic!(
                "strategy rejected {MAX_REJECTS} candidates: {}",
                self.reason
            );
        }
    }

    /// Always generates a clone of the given value.
    #[derive(Clone, Copy, Debug)]
    pub struct Just<T>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    impl<T: rand::SampleUniform + Copy> Strategy for core::ops::Range<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::sample_exclusive(self.start, self.end, &mut rng.0)
        }
    }

    impl<T: rand::SampleUniform + Copy> Strategy for core::ops::RangeInclusive<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::sample_inclusive(*self.start(), *self.end(), &mut rng.0)
        }
    }

    macro_rules! impl_tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        };
    }

    impl_tuple_strategy!(A);
    impl_tuple_strategy!(A, B);
    impl_tuple_strategy!(A, B, C);
    impl_tuple_strategy!(A, B, C, D);
    impl_tuple_strategy!(A, B, C, D, E);
    impl_tuple_strategy!(A, B, C, D, E, G);

    /// Types with a canonical strategy, for [`super::prelude::any`].
    pub trait Arbitrary: Sized {
        /// Draws one value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rand::RngCore::next_u64(&mut rng.0) & 1 == 1
        }
    }

    /// Strategy for an [`Arbitrary`] type.
    pub struct Any<T>(core::marker::PhantomData<T>);

    impl<T> Default for Any<T> {
        fn default() -> Self {
            Any(core::marker::PhantomData)
        }
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }
}

pub mod collection {
    use super::strategy::Strategy;
    use super::TestRng;

    /// Sizes accepted by [`vec()`]: `n`, `a..b`, or `a..=b`.
    pub trait SizeRange {
        /// Draws a length.
        fn pick(&self, rng: &mut TestRng) -> usize;
    }

    impl SizeRange for usize {
        fn pick(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl SizeRange for core::ops::Range<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            self.clone().generate(rng)
        }
    }

    impl SizeRange for core::ops::RangeInclusive<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            self.clone().generate(rng)
        }
    }

    /// Strategy for `Vec`s of `element` values with a length drawn from
    /// `size`.
    pub fn vec<S: Strategy, Z: SizeRange>(element: S, size: Z) -> VecStrategy<S, Z> {
        VecStrategy { element, size }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S, Z> {
        element: S,
        size: Z,
    }

    impl<S: Strategy, Z: SizeRange> Strategy for VecStrategy<S, Z> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// The RNG handed to strategies.
pub struct TestRng(StdRng);

/// A failed test case.
#[derive(Debug)]
pub struct TestCaseError(String);

impl TestCaseError {
    /// Fails the current case with a message.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError(msg.into())
    }
}

impl core::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Per-test configuration (only the case count is honored).
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of cases to run.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// Drives the cases of one `proptest!` test (used by the macro).
pub struct TestRunner {
    rng: TestRng,
    cases: u32,
    seed: u64,
}

impl TestRunner {
    /// Builds a runner whose RNG seed derives from the test name (or the
    /// `PROPTEST_STUB_SEED` environment variable when set).
    pub fn new(config: &ProptestConfig, test_name: &str) -> Self {
        let seed = std::env::var("PROPTEST_STUB_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| {
                // FNV-1a of the test name: stable across runs and platforms.
                let mut h: u64 = 0xcbf2_9ce4_8422_2325;
                for b in test_name.bytes() {
                    h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
                }
                h
            });
        TestRunner {
            rng: TestRng(StdRng::seed_from_u64(seed)),
            cases: config.cases,
            seed,
        }
    }

    /// Number of cases to run.
    pub fn cases(&self) -> u32 {
        self.cases
    }

    /// The RNG seed this run started from (replay the whole test with
    /// `PROPTEST_STUB_SEED=<seed>`).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The case RNG.
    pub fn rng(&mut self) -> &mut TestRng {
        &mut self.rng
    }
}

/// Cap on one input's `Debug` rendering in a failure report; generated
/// layouts/graphs can be large, and the point is debuggability, not a
/// full dump.
const MAX_INPUT_REPR: usize = 16 * 1024;

/// A `fmt::Write` sink that stops accepting bytes once its budget is
/// spent (always cutting at a char boundary), so rendering a huge value
/// costs at most the cap — not a full format followed by a truncate.
struct CappedWriter<'a> {
    out: &'a mut String,
    remaining: usize,
    truncated: bool,
}

impl core::fmt::Write for CappedWriter<'_> {
    fn write_str(&mut self, s: &str) -> core::fmt::Result {
        if self.truncated {
            return Err(core::fmt::Error);
        }
        if s.len() <= self.remaining {
            self.out.push_str(s);
            self.remaining -= s.len();
            return Ok(());
        }
        let mut cut = self.remaining;
        while cut > 0 && !s.is_char_boundary(cut) {
            cut -= 1;
        }
        self.out.push_str(&s[..cut]);
        self.remaining = 0;
        self.truncated = true;
        Err(core::fmt::Error)
    }
}

/// Appends `pat = value;` to a failure-report buffer (used by the
/// [`proptest!`] macro), rendering at most 16 KiB of the value.
pub fn append_input<T: core::fmt::Debug>(out: &mut String, pat: &str, value: &T) {
    use core::fmt::Write;
    out.push_str(pat);
    out.push_str(" = ");
    let mut w = CappedWriter {
        out,
        remaining: MAX_INPUT_REPR,
        truncated: false,
    };
    let truncated = write!(w, "{value:?}").is_err() && w.truncated;
    if truncated {
        out.push_str("… <truncated>");
    }
    out.push_str("; ");
}

/// Everything the seed tests import.
pub mod prelude {
    pub use crate::collection;
    pub use crate::strategy::{Any, Arbitrary, Just, Strategy};
    pub use crate::{
        prop_assert, prop_assert_eq, proptest, ProptestConfig, TestCaseError, TestRunner,
    };

    /// The canonical strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any::default()
    }
}

/// Asserts a condition inside a `proptest!` body, failing the case (not
/// aborting the process) on violation.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// Equality assertion variant of [`prop_assert!`].
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, "assertion failed: {:?} != {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, "{}: {:?} != {:?}", format!($($fmt)*), l, r);
    }};
}

/// Declares property tests: each `#[test] fn name(pat in strategy, ...)`
/// item becomes a normal `#[test]` running the configured number of
/// generated cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@cfg ($cfg) $($rest)*);
    };
    // `#[test]` is captured as one of the leading attributes and re-emitted
    // with them (matching it literally is ambiguous with `$attr:meta`).
    (@cfg ($cfg:expr) $($(#[$attr:meta])* fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$attr])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let mut runner = $crate::TestRunner::new(&config, stringify!($name));
                let seed = runner.seed();
                for case in 0..runner.cases() {
                    let mut __inputs = ::std::string::String::new();
                    $(
                        let __generated = $crate::strategy::Strategy::generate(&($strat), runner.rng());
                        $crate::append_input(&mut __inputs, stringify!($pat), &__generated);
                        let $pat = __generated;
                    )+
                    // `catch_unwind` so panicking bodies (plain asserts,
                    // expects) also report the generated inputs before
                    // the panic propagates.
                    let outcome = ::std::panic::catch_unwind(
                        ::std::panic::AssertUnwindSafe(
                            || -> ::core::result::Result<(), $crate::TestCaseError> {
                                $body Ok(())
                            },
                        ),
                    );
                    match outcome {
                        Ok(Ok(())) => {}
                        Ok(Err(e)) => panic!(
                            "proptest case {case} of {} failed (replay with PROPTEST_STUB_SEED={seed}): {e}\n  input: {}",
                            stringify!($name),
                            __inputs
                        ),
                        Err(payload) => {
                            eprintln!(
                                "proptest case {case} of {} panicked (replay with PROPTEST_STUB_SEED={seed})\n  input: {}",
                                stringify!($name),
                                __inputs
                            );
                            ::std::panic::resume_unwind(payload);
                        }
                    }
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@cfg ($crate::ProptestConfig::default()) $($rest)*);
    };
}
