//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no access to crates.io, so this workspace
//! vendors the slice of the proptest API its test suites use: the
//! [`proptest!`] macro, [`Strategy`](strategy::Strategy) with `prop_map`,
//! range and tuple strategies, [`collection::vec`], [`arbitrary::any`],
//! the `prop_assert!`/`prop_assert_eq!`/`prop_assume!` macros, and
//! [`test_runner::ProptestConfig::with_cases`].
//!
//! Differences from upstream, deliberately accepted:
//!
//! - **No shrinking.** A failing case panics with the case index and the
//!   assertion message. Generation is deterministic per test name, so a
//!   failure reproduces exactly by re-running the test.
//! - **`proptest-regressions` files are ignored** (they only replay
//!   upstream seeds, which have no meaning here).
//!
//! # Examples
//!
//! ```
//! use proptest::prelude::*;
//!
//! proptest! {
//!     #![proptest_config(ProptestConfig::with_cases(64))]
//!     // (would normally carry #[test]; omitted so the doctest can call it)
//!     fn addition_commutes(a in -1_000i64..1_000, b in -1_000i64..1_000) {
//!         prop_assert_eq!(a + b, b + a);
//!     }
//! }
//! addition_commutes();
//! ```

#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::{Rng, SampleUniform};
use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

/// Test-case generation strategies (subset of `proptest::strategy`).
pub mod strategy {
    use super::*;

    /// A generator of test-case values.
    ///
    /// Upstream proptest strategies produce shrinkable value *trees*; this
    /// stand-in produces plain values.
    pub trait Strategy {
        /// The type of value this strategy generates.
        type Value;

        /// Draws one value.
        fn sample(&self, rng: &mut StdRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { source: self, f }
        }
    }

    /// Strategy returned by [`Strategy::prop_map`].
    pub struct Map<S, F> {
        source: S,
        f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;

        fn sample(&self, rng: &mut StdRng) -> O {
            (self.f)(self.source.sample(rng))
        }
    }

    impl<T: SampleUniform> Strategy for Range<T> {
        type Value = T;

        fn sample(&self, rng: &mut StdRng) -> T {
            rng.gen_range(self.clone())
        }
    }

    impl<T: SampleUniform> Strategy for RangeInclusive<T> {
        type Value = T;

        fn sample(&self, rng: &mut StdRng) -> T {
            rng.gen_range(self.clone())
        }
    }

    macro_rules! impl_tuple_strategy {
        ($(($($s:ident $idx:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);

                fn sample(&self, rng: &mut StdRng) -> Self::Value {
                    ($(self.$idx.sample(rng),)+)
                }
            }
        )*};
    }

    impl_tuple_strategy! {
        (A 0)
        (A 0, B 1)
        (A 0, B 1, C 2)
        (A 0, B 1, C 2, D 3)
        (A 0, B 1, C 2, D 3, E 4)
        (A 0, B 1, C 2, D 3, E 4, F 5)
    }
}

/// `any::<T>()` support (subset of `proptest::arbitrary`).
pub mod arbitrary {
    use super::strategy::Strategy;
    use super::*;

    /// Types with a canonical whole-domain strategy.
    pub trait Arbitrary: Sized {
        /// Draws one value from the type's full domain.
        fn arbitrary_sample(rng: &mut StdRng) -> Self;
    }

    impl Arbitrary for bool {
        fn arbitrary_sample(rng: &mut StdRng) -> bool {
            rng.gen::<bool>()
        }
    }

    impl Arbitrary for u64 {
        fn arbitrary_sample(rng: &mut StdRng) -> u64 {
            rng.gen::<u64>()
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary_sample(rng: &mut StdRng) -> f64 {
            rng.gen::<f64>()
        }
    }

    /// Strategy returned by [`any`].
    pub struct AnyStrategy<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for AnyStrategy<T> {
        type Value = T;

        fn sample(&self, rng: &mut StdRng) -> T {
            T::arbitrary_sample(rng)
        }
    }

    /// The canonical strategy for `T`, e.g. `any::<bool>()`.
    pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
        AnyStrategy(PhantomData)
    }
}

/// Collection strategies (subset of `proptest::collection`).
pub mod collection {
    use super::strategy::Strategy;
    use super::*;

    /// Length specification for [`vec()`]: a fixed size or a half-open range.
    pub struct SizeRange {
        min: usize,
        max_excl: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { min: n, max_excl: n + 1 }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange { min: r.start, max_excl: r.end }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            let (lo, hi) = r.into_inner();
            assert!(lo <= hi, "empty vec size range");
            SizeRange { min: lo, max_excl: hi + 1 }
        }
    }

    /// Strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let len = rng.gen_range(self.size.min..self.size.max_excl);
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// A strategy for vectors of `element` values with length in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }
}

/// Case execution machinery (subset of `proptest::test_runner`).
pub mod test_runner {
    use super::strategy::Strategy;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Per-test configuration (subset: only `cases`).
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of accepted cases to run per property.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A config running `cases` cases per property.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            // Matches upstream proptest's default case count.
            ProptestConfig { cases: 256 }
        }
    }

    /// Why a single case did not pass.
    #[derive(Debug)]
    pub enum TestCaseError {
        /// An assertion failed; the property is falsified.
        Fail(String),
        /// `prop_assume!` rejected the inputs; the case does not count.
        Reject(String),
    }

    impl TestCaseError {
        /// A falsification with the given message.
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError::Fail(msg.into())
        }

        /// An input rejection with the given reason.
        pub fn reject(msg: impl Into<String>) -> Self {
            TestCaseError::Reject(msg.into())
        }
    }

    /// Outcome of one generated case.
    pub type TestCaseResult = Result<(), TestCaseError>;

    fn seed_for(name: &str) -> u64 {
        // FNV-1a over the test name: each property gets its own
        // deterministic stream, so failures reproduce run-to-run.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Runs `test` against `config.cases` accepted samples of `strategy`.
    ///
    /// # Panics
    ///
    /// Panics if any case fails, or if `prop_assume!` rejects too large a
    /// fraction of generated inputs.
    pub fn run_cases<S, F>(config: &ProptestConfig, name: &str, strategy: S, test: F)
    where
        S: Strategy,
        F: Fn(S::Value) -> TestCaseResult,
    {
        let mut rng = StdRng::seed_from_u64(seed_for(name));
        let mut accepted = 0u32;
        let mut attempts = 0u64;
        let max_attempts = u64::from(config.cases) * 20 + 100;
        while accepted < config.cases {
            attempts += 1;
            assert!(
                attempts <= max_attempts,
                "{name}: too many rejected cases ({accepted} accepted of {} wanted \
                 after {attempts} attempts)",
                config.cases
            );
            match test(strategy.sample(&mut rng)) {
                Ok(()) => accepted += 1,
                Err(TestCaseError::Reject(_)) => continue,
                Err(TestCaseError::Fail(msg)) => {
                    panic!("{name}: property falsified at case {accepted}: {msg}")
                }
            }
        }
    }
}

/// Everything a property-test module needs in scope.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::Strategy;
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, proptest};
}

/// Fails the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)*),
            ));
        }
    };
}

/// Fails the current case unless the two expressions compare equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (l, r) => {
                $crate::prop_assert!(
                    *l == *r,
                    "assertion failed: `{:?}` == `{:?}`",
                    l,
                    r
                );
            }
        }
    };
    ($left:expr, $right:expr, $($fmt:tt)*) => {
        match (&$left, &$right) {
            (l, r) => {
                $crate::prop_assert!(*l == *r, $($fmt)*);
            }
        }
    };
}

/// Discards the current case (without failing) unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::reject(
                stringify!($cond),
            ));
        }
    };
}

/// Declares property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running the body against generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! {
            ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

/// Internal muncher for [`proptest!`]; not part of the public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr)) => {};
    (($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config = $cfg;
            $crate::test_runner::run_cases(
                &config,
                stringify!($name),
                ($($strat,)+),
                |($($arg,)+)| -> $crate::test_runner::TestCaseResult {
                    $body
                    ::core::result::Result::Ok(())
                },
            );
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(50))]

        /// Ranges and tuples compose; prop_map applies.
        #[test]
        fn mapped_tuples(v in (1usize..10, 2u64..5).prop_map(|(a, b)| a as u64 * b)) {
            prop_assert!((2..50).contains(&v));
        }

        /// prop_assume rejects without failing.
        #[test]
        fn assume_filters(a in 0i64..100, b in 0i64..100) {
            prop_assume!(a != b);
            prop_assert!(a != b);
        }

        /// Vec strategy respects its size range.
        #[test]
        fn vec_sizes(v in crate::collection::vec(0usize..4, 1..6)) {
            prop_assert!((1..6).contains(&v.len()));
            prop_assert!(v.iter().all(|&x| x < 4));
        }

        /// any::<bool>() produces both values across a run (statistically).
        #[test]
        #[allow(clippy::overly_complex_bool_expr)]
        fn any_bool_compiles(b in any::<bool>()) {
            prop_assert!(b || !b);
        }
    }

    #[test]
    fn failing_property_panics() {
        let result = std::panic::catch_unwind(|| {
            crate::test_runner::run_cases(
                &ProptestConfig::with_cases(10),
                "always_fails",
                (0usize..10,),
                |(_n,)| -> crate::test_runner::TestCaseResult {
                    prop_assert!(false, "intentional");
                    Ok(())
                },
            );
        });
        assert!(result.is_err());
    }

    #[test]
    fn generation_is_deterministic() {
        use rand::SeedableRng;
        let strat = (0u64..1_000_000, 0.0f64..1.0);
        let mut a = rand::rngs::StdRng::seed_from_u64(5);
        let mut b = rand::rngs::StdRng::seed_from_u64(5);
        use crate::strategy::Strategy;
        for _ in 0..100 {
            assert_eq!(strat.sample(&mut a), strat.sample(&mut b));
        }
    }
}
