//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no registry access, so the workspace
//! resolves `proptest` to this path crate (see the root `Cargo.toml`).
//! It implements the subset of the API the test suites use — the
//! [`proptest!`] macro, [`Strategy`] with `prop_map` /
//! `prop_filter_map` / `prop_perturb`, `any`, ranges, tuples,
//! `collection::vec`, `bits::u32::masked`, `Just`, the `prop_assert*`
//! macros and [`ProptestConfig`] — as straightforward random testing:
//! each case draws fresh values from a deterministic RNG and runs the
//! body. **No shrinking** is performed on failure; the failing values
//! are printed instead.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::marker::PhantomData;
use std::ops::Range;

pub mod test_runner {
    //! The runtime driving each generated test.

    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};
    use std::fmt;

    /// The RNG handed to strategies (and to `prop_perturb` closures).
    /// Implements the workspace `rand` traits so test bodies can use it
    /// with `SliceRandom::shuffle` and friends.
    #[derive(Clone, Debug)]
    pub struct TestRng(StdRng);

    impl TestRng {
        /// A deterministic generator for the named test.
        pub fn deterministic(test_name: &str) -> TestRng {
            // FNV-1a over the test name: stable across runs, distinct
            // streams per test.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in test_name.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            TestRng(StdRng::seed_from_u64(h))
        }

        /// Splits off an independent generator (used by `prop_perturb`).
        pub fn fork(&mut self) -> TestRng {
            TestRng(StdRng::seed_from_u64(self.0.next_u64()))
        }
    }

    impl RngCore for TestRng {
        fn next_u64(&mut self) -> u64 {
            self.0.next_u64()
        }
    }

    /// A failed property: carries the assertion message.
    #[derive(Debug)]
    pub struct TestCaseError(String);

    impl TestCaseError {
        /// Builds a failure from a message.
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError(msg.into())
        }
    }

    impl fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str(&self.0)
        }
    }

    /// Per-test configuration.
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Number of random cases to run per property.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Overrides the case count.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            // The real proptest defaults to 256; tests here synthesize
            // circuits per case, so default lower and honour the same
            // env override.
            let cases = std::env::var("PROPTEST_CASES")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(64);
            ProptestConfig { cases }
        }
    }
}

pub mod strategy {
    //! Value-generation strategies.

    use super::test_runner::TestRng;
    use rand::Rng;
    use std::marker::PhantomData;
    use std::ops::Range;

    /// A recipe for generating random values of `Self::Value`.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        /// Maps through `f`, rejecting values where it returns `None`.
        fn prop_filter_map<O, F: Fn(Self::Value) -> Option<O>>(
            self,
            whence: &'static str,
            f: F,
        ) -> FilterMap<Self, F>
        where
            Self: Sized,
        {
            FilterMap {
                inner: self,
                f,
                whence,
            }
        }

        /// Post-processes values with access to an independent RNG.
        fn prop_perturb<O, F: Fn(Self::Value, TestRng) -> O>(self, f: F) -> Perturb<Self, F>
        where
            Self: Sized,
        {
            Perturb { inner: self, f }
        }
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;
        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            (**self).sample(rng)
        }
    }

    /// See [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn sample(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.sample(rng))
        }
    }

    /// See [`Strategy::prop_filter_map`].
    pub struct FilterMap<S, F> {
        inner: S,
        f: F,
        whence: &'static str,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> Option<O>> Strategy for FilterMap<S, F> {
        type Value = O;
        fn sample(&self, rng: &mut TestRng) -> O {
            for _ in 0..10_000 {
                if let Some(v) = (self.f)(self.inner.sample(rng)) {
                    return v;
                }
            }
            panic!("prop_filter_map rejected 10000 candidates: {}", self.whence);
        }
    }

    /// See [`Strategy::prop_perturb`].
    pub struct Perturb<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value, TestRng) -> O> Strategy for Perturb<S, F> {
        type Value = O;
        fn sample(&self, rng: &mut TestRng) -> O {
            let v = self.inner.sample(rng);
            (self.f)(v, rng.fork())
        }
    }

    /// Always yields a clone of the wrapped value.
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn sample(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Uniform values of the full type domain; see [`any`].
    pub struct Any<T>(PhantomData<T>);

    /// Types `any::<T>()` can generate.
    pub trait ArbitraryValue {
        /// Draws a uniform value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    impl ArbitraryValue for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }
    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl ArbitraryValue for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    use rand::RngCore;

    /// Uniform values over the whole domain of `T`.
    pub fn any<T: ArbitraryValue>() -> Any<T> {
        Any(PhantomData)
    }

    impl<T: ArbitraryValue> Strategy for Any<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    rng.random_range(self.clone())
                }
            }
        )*};
    }
    impl_range_strategy!(usize, u8, u16, u32, u64);

    macro_rules! impl_tuple_strategy {
        ($(($($s:ident $idx:tt),+);)*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.sample(rng),)+)
                }
            }
        )*};
    }
    impl_tuple_strategy! {
        (A 0, B 1);
        (A 0, B 1, C 2);
        (A 0, B 1, C 2, D 3);
        (A 0, B 1, C 2, D 3, E 4);
    }
}

pub mod collection {
    //! Collection strategies.

    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use rand::Rng;
    use std::ops::{Range, RangeInclusive};

    /// An inclusive size band for generated collections.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        min: usize,
        max: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { min: n, max: n }
        }
    }
    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                min: r.start,
                max: r.end - 1,
            }
        }
    }
    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            SizeRange {
                min: *r.start(),
                max: *r.end(),
            }
        }
    }

    /// `Vec`s of `element` values with a length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.random_range(self.size.min..=self.size.max);
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

pub mod bits {
    //! Bit-set strategies.

    #[allow(non_snake_case)]
    pub mod u32 {
        //! `u32` bit masks.

        use crate::strategy::Strategy;
        use crate::test_runner::TestRng;
        use rand::RngCore;

        /// Uniform `u32`s restricted to the given mask's bits.
        pub fn masked(mask: ::core::primitive::u32) -> Masked {
            Masked { mask }
        }

        /// See [`masked`].
        pub struct Masked {
            mask: ::core::primitive::u32,
        }

        impl Strategy for Masked {
            type Value = ::core::primitive::u32;
            fn sample(&self, rng: &mut TestRng) -> ::core::primitive::u32 {
                rng.next_u64() as ::core::primitive::u32 & self.mask
            }
        }
    }
}

pub mod prelude {
    //! The glob-import surface matching real proptest.

    pub use crate::strategy::{any, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

// Re-exports so `proptest::collection::vec` etc. resolve (they already
// do as modules above); keep the umbrella paths stable.
pub use strategy::Strategy;
pub use test_runner::{ProptestConfig, TestCaseError};

// Suppress unused-import lints for the top-level convenience imports.
#[allow(unused_imports)]
use std::{marker::PhantomData as _PhantomData_, ops::Range as _Range_};
const _: Option<PhantomData<()>> = None;
const _: Option<Range<u8>> = None;

/// Asserts a condition inside a `proptest!` body, failing the case (not
/// panicking) so the harness can report the generated inputs.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("assertion failed: {}: {}", stringify!($cond), format!($($fmt)+)),
            ));
        }
    };
}

/// Equality assertion inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("assertion failed: `{:?}` != `{:?}`", l, r),
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!(
                    "assertion failed: `{:?}` != `{:?}`: {}",
                    l, r, format!($($fmt)+)
                ),
            ));
        }
    }};
}

/// Inequality assertion inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("assertion failed: both sides equal `{:?}`", l),
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!(
                    "assertion failed: both sides equal `{:?}`: {}",
                    l, format!($($fmt)+)
                ),
            ));
        }
    }};
}

/// Declares property tests: each `fn name(arg in strategy, ...) { .. }`
/// becomes a `#[test]` that runs the body for `config.cases` randomly
/// generated inputs. Failures print the generated values (no shrinking).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_tests!(($config) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_tests!(($crate::test_runner::ProptestConfig::default()) $($rest)*);
    };
}

/// Internal expansion helper for [`proptest!`]; not part of the API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_tests {
    (($config:expr) $($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config: $crate::test_runner::ProptestConfig = $config;
                let mut __rng =
                    $crate::test_runner::TestRng::deterministic(stringify!($name));
                let __strats = ($($strat,)+);
                for __case in 0..__config.cases {
                    let ($(ref $arg,)+) = __strats;
                    let ($($arg,)+) = ($(
                        $crate::strategy::Strategy::sample($arg, &mut __rng),
                    )+);
                    let __described = format!(
                        concat!($(concat!(stringify!($arg), " = {:?}, ")),+),
                        $(&$arg),+
                    );
                    let __result: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                        (move || {
                            $body
                            ::std::result::Result::Ok(())
                        })();
                    if let ::std::result::Result::Err(e) = __result {
                        panic!(
                            "proptest case {}/{} failed: {}\n  inputs: {}",
                            __case + 1,
                            __config.cases,
                            e,
                            __described
                        );
                    }
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        /// Generated values respect range strategies.
        #[test]
        fn ranges_in_bounds(x in 3usize..9, y in 0u32..16) {
            prop_assert!((3..9).contains(&x));
            prop_assert!(y < 16, "y = {}", y);
        }

        /// Vec strategies honour their size band and element strategy.
        #[test]
        fn vec_sizes(v in crate::collection::vec(any::<bool>(), 2..5)) {
            prop_assert!(v.len() >= 2 && v.len() < 5);
        }

        /// Map/filter-map compose.
        #[test]
        fn combinators(x in (0usize..10).prop_map(|v| v * 2)) {
            prop_assert!(x % 2 == 0);
            prop_assert!(x < 20);
        }

        /// Masked bit strategies never set bits outside the mask.
        #[test]
        fn masked_bits(m in crate::bits::u32::masked(0b1010)) {
            prop_assert_eq!(m & !0b1010, 0);
        }

        /// Tuples and Just work.
        #[test]
        fn tuples(pair in (Just(7usize), any::<bool>())) {
            prop_assert_eq!(pair.0, 7);
        }
    }

    #[test]
    fn failing_property_panics_with_inputs() {
        let result = std::panic::catch_unwind(|| {
            proptest! {
                #[allow(unused)]
                fn always_fails(x in 0usize..4) {
                    prop_assert!(x > 100, "x is small");
                }
            }
            always_fails();
        });
        let msg = *result.unwrap_err().downcast::<String>().unwrap();
        assert!(
            msg.contains("x is small") && msg.contains("inputs"),
            "{msg}"
        );
    }

    #[test]
    fn deterministic_rng_is_stable_per_name() {
        use crate::test_runner::TestRng;
        use rand::RngCore;
        let mut a = TestRng::deterministic("foo");
        let mut b = TestRng::deterministic("foo");
        let mut c = TestRng::deterministic("bar");
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(a.next_u64(), c.next_u64());
    }
}
