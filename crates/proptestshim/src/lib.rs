//! Offline stand-in for the subset of `proptest` this workspace uses.
//!
//! The real crate cannot be fetched in the sandboxed reproduction
//! environment, so this shim reimplements the API surface the
//! workspace's property tests rely on: the [`proptest!`] macro with an
//! optional `#![proptest_config(...)]` header, `prop_assert!` /
//! `prop_assert_eq!` / `prop_assert_ne!`, range and collection
//! strategies, `any::<bool>()`, `prop::num::f64::NORMAL`, `prop_map`,
//! and the `TestRunner`/`ValueTree` pair. Failing cases report the
//! case number and generated inputs; there is **no shrinking** — a
//! deliberate trade for zero dependencies.
//!
//! Cases are generated from a fixed seed so failures are reproducible
//! run-to-run (set `PROPTEST_SEED` to explore a different stream).

#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Strategy combinators and the [`Strategy`](strategy::Strategy) trait.
pub mod strategy {
    use super::*;

    /// A source of generated values.
    pub trait Strategy {
        /// The type of value this strategy produces.
        type Value;

        /// Generates one value.
        fn generate(&self, rng: &mut StdRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<U, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> U,
        {
            Map { inner: self, f }
        }

        /// Produces a (non-shrinking) value tree, mirroring the real
        /// crate's `Strategy::new_tree`.
        ///
        /// # Errors
        ///
        /// Never fails in this shim; the `Result` mirrors upstream.
        fn new_tree(
            &self,
            runner: &mut crate::test_runner::TestRunner,
        ) -> Result<SingleValueTree<Self::Value>, String>
        where
            Self::Value: Clone,
        {
            Ok(SingleValueTree {
                value: self.generate(runner.rng_mut()),
            })
        }
    }

    /// A generated value without shrink structure.
    #[derive(Debug, Clone)]
    pub struct SingleValueTree<T> {
        pub(crate) value: T,
    }

    impl<T: Clone + std::fmt::Debug> ValueTree for SingleValueTree<T> {
        type Value = T;
        fn current(&self) -> T {
            self.value.clone()
        }
    }

    /// The value-tree interface (`current` only; no shrinking).
    pub trait ValueTree {
        /// The type of value the tree holds.
        type Value;
        /// The current value.
        fn current(&self) -> Self::Value;
    }

    /// The strategy returned by [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S, U, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> U,
    {
        type Value = U;
        fn generate(&self, rng: &mut StdRng) -> U {
            (self.f)(self.inner.generate(rng))
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut StdRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut StdRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
            impl Strategy for std::ops::RangeFrom<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut StdRng) -> $t {
                    rng.gen_range(self.start..=<$t>::MAX)
                }
            }
        )*};
    }

    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! impl_float_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut StdRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut StdRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
        )*};
    }

    impl_float_range_strategy!(f32, f64);

    /// A strategy that always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut StdRng) -> T {
            self.0.clone()
        }
    }
}

/// `any::<T>()` support.
pub mod arbitrary {
    use super::*;
    use crate::strategy::Strategy;

    /// Types with a canonical "any value" strategy.
    pub trait Arbitrary: Sized {
        /// Generates an arbitrary value of the type.
        fn arbitrary(rng: &mut StdRng) -> Self;
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut StdRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    macro_rules! impl_arbitrary_uint {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut StdRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    impl_arbitrary_uint!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    /// The strategy returned by [`any`].
    #[derive(Debug, Clone, Copy)]
    pub struct AnyStrategy<T>(std::marker::PhantomData<T>);

    impl<T: Arbitrary> Strategy for AnyStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut StdRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// A strategy over all values of `T`.
    pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
        AnyStrategy(std::marker::PhantomData)
    }
}

/// Collection strategies (`prop::collection::vec`).
pub mod collection {
    use super::*;
    use crate::strategy::Strategy;

    /// A size specification: fixed or ranged.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi_inclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self {
                lo: n,
                hi_inclusive: n,
            }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            Self {
                lo: r.start,
                hi_inclusive: r.end - 1,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            let (lo, hi) = r.into_inner();
            assert!(lo <= hi, "empty size range");
            Self {
                lo,
                hi_inclusive: hi,
            }
        }
    }

    /// The strategy returned by [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let n = rng.gen_range(self.size.lo..=self.size.hi_inclusive);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// A strategy for vectors whose elements come from `element` and
    /// whose length comes from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

/// Numeric strategies (`prop::num::f64::NORMAL`).
pub mod num {
    /// `f64` strategies.
    pub mod f64 {
        use crate::strategy::Strategy;
        use rand::rngs::StdRng;
        use rand::Rng;

        /// Strategy over "normal" (finite, non-subnormal, non-zero)
        /// floats, spread over several orders of magnitude so both the
        /// integer and fractional parts vary.
        #[derive(Debug, Clone, Copy)]
        pub struct NormalF64;

        /// The canonical instance.
        pub const NORMAL: NormalF64 = NormalF64;

        impl Strategy for NormalF64 {
            type Value = f64;
            fn generate(&self, rng: &mut StdRng) -> f64 {
                let magnitude: f64 = rng.gen_range(1e-3_f64..1e6);
                let sign = if rng.gen_range(0u32..2) == 0 {
                    1.0
                } else {
                    -1.0
                };
                sign * magnitude
            }
        }
    }
}

/// The test runner and its configuration.
pub mod test_runner {
    use super::*;

    /// How many cases to run, mirroring `ProptestConfig`.
    #[derive(Debug, Clone)]
    pub struct Config {
        /// Number of generated cases per property.
        pub cases: u32,
    }

    /// Upstream-compatible alias.
    pub type ProptestConfig = Config;

    impl Config {
        /// A config running `cases` cases.
        #[must_use]
        pub fn with_cases(cases: u32) -> Self {
            Self { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Self { cases: 64 }
        }
    }

    /// The error a failing property case reports.
    pub type TestCaseError = String;

    /// Drives case generation for one property.
    #[derive(Debug)]
    pub struct TestRunner {
        config: Config,
        rng: StdRng,
    }

    impl TestRunner {
        /// A runner with the given config and the deterministic
        /// default seed (override with `PROPTEST_SEED`).
        #[must_use]
        pub fn new(config: Config) -> Self {
            let seed = std::env::var("PROPTEST_SEED")
                .ok()
                .and_then(|s| s.parse().ok())
                .unwrap_or(0x5EED_CAFE_F00D_u64);
            Self {
                config,
                rng: StdRng::seed_from_u64(seed),
            }
        }

        /// The number of cases to run.
        #[must_use]
        pub fn cases(&self) -> u32 {
            self.config.cases
        }

        /// The runner's generator.
        pub fn rng_mut(&mut self) -> &mut StdRng {
            &mut self.rng
        }
    }

    impl Default for TestRunner {
        fn default() -> Self {
            Self::new(Config::default())
        }
    }
}

/// Everything a property-test module conventionally imports.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{Strategy, ValueTree};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};

    /// The `prop` namespace (`prop::collection`, `prop::num`).
    pub mod prop {
        pub use crate::collection;
        pub use crate::num;
    }
}

/// Declares property tests. Supports an optional
/// `#![proptest_config(...)]` header followed by `#[test]` functions
/// whose arguments are drawn from strategies:
///
/// ```
/// use proptest::prelude::*;
///
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(16))]
///     #[test]
///     fn addition_commutes(a in 0u32..1000, b in 0u32..1000) {
///         prop_assert_eq!(a + b, b + a);
///     }
/// }
/// ```
#[allow(clippy::test_attr_in_doctest)]
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! {
            (<$crate::test_runner::ProptestConfig as ::std::default::Default>::default())
            $($rest)*
        }
    };
}

/// Internal: expands each property function. Not public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr)) => {};
    (
        ($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config = $cfg;
            let mut runner = $crate::test_runner::TestRunner::new(config);
            for case in 0..runner.cases() {
                $(let $arg = $crate::strategy::Strategy::generate(
                    &($strat),
                    runner.rng_mut(),
                );)+
                // Render inputs before the body gets a chance to move
                // them; only `Debug` is needed.
                let inputs =
                    [$(format!(concat!(stringify!($arg), " = {:?}"), $arg)),+].join(", ");
                let outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                if let ::std::result::Result::Err(message) = outcome {
                    panic!("proptest case {case} failed: {message}\n  inputs: {inputs}");
                }
            }
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
}

/// Skips the current case when `cond` is false. The real crate
/// retries with fresh inputs; this shim simply counts the case as
/// passed, which preserves soundness (never hides a failure).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Ok(());
        }
    };
}

/// `assert!` that reports through the proptest failure path.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::std::result::Result::Err(format!($($fmt)*));
        }
    };
}

/// `assert_eq!` through the proptest failure path.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{:?}` == `{:?}`",
            l,
            r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, $($fmt)*);
    }};
}

/// `assert_ne!` through the proptest failure path.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: `{:?}` != `{:?}`",
            l,
            r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l != *r, $($fmt)*);
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Doc comments and extra attributes survive expansion.
        #[test]
        fn ranges_stay_in_bounds(a in 5u64..10, b in 0.25f64..0.75, flag in any::<bool>()) {
            prop_assert!((5..10).contains(&a));
            prop_assert!((0.25..0.75).contains(&b));
            prop_assert!(u8::from(flag) <= 1);
        }

        #[test]
        fn vec_strategy_respects_sizes(
            xs in prop::collection::vec(0u32..100, 3),
            ys in prop::collection::vec(0u32..100, 1..5),
        ) {
            prop_assert_eq!(xs.len(), 3);
            prop_assert!((1..5).contains(&ys.len()));
        }

        #[test]
        fn normal_floats_are_finite_nonzero(v in prop::num::f64::NORMAL) {
            prop_assert!(v.is_finite());
            prop_assert_ne!(v, 0.0);
        }

        #[test]
        fn prop_map_applies(v in (0u32..10).prop_map(|x| x * 2)) {
            prop_assert!(v % 2 == 0 && v < 20);
        }
    }

    #[test]
    fn new_tree_and_current_work() {
        let mut runner = crate::test_runner::TestRunner::default();
        let v = (2.0f64..3.0).new_tree(&mut runner).unwrap().current();
        assert!((2.0..3.0).contains(&v));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// Extra attributes pass through to the generated test, so the
        /// failure path is testable with `should_panic`.
        #[test]
        #[should_panic(expected = "proptest case")]
        fn failures_report_inputs(x in 0u32..10) {
            prop_assert!(x > 100, "x was {}", x);
        }
    }
}
