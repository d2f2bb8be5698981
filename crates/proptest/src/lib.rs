//! Minimal, dependency-free property-testing shim.
//!
//! This workspace must build with **no registry access at all** (the
//! environments it grows in are fully offline), so the real `proptest`
//! crate cannot be downloaded. This crate provides the subset of its API
//! the test suite actually uses — `proptest!`, `prop_assert!`,
//! `prop_assert_eq!`, `prop_oneof!`, `any`, `Just`, ranges, tuples,
//! `prop_map` and `collection::vec` — backed by a deterministic SplitMix64
//! generator. There is no shrinking: a failing case reports its case
//! number and message, and re-runs reproduce it exactly (generation is
//! seeded per test by a fixed constant).

#![forbid(unsafe_code)]

use std::fmt;
use std::ops::{Range, RangeInclusive};

// ---------------------------------------------------------------------
// Deterministic generator.
// ---------------------------------------------------------------------

/// SplitMix64 — the same tiny generator the simulator uses in-tree.
#[derive(Clone, Debug)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        TestRng { state: seed }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`; `bound` must be non-zero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

// ---------------------------------------------------------------------
// Failure reporting.
// ---------------------------------------------------------------------

/// A failed test case (the only variant this shim distinguishes).
#[derive(Clone, Debug)]
pub struct TestCaseError(String);

impl TestCaseError {
    /// Marks the current case as failed with `reason`.
    pub fn fail(reason: impl Into<String>) -> Self {
        TestCaseError(reason.into())
    }

    /// Alias used by some call sites of the real crate.
    pub fn reject(reason: impl Into<String>) -> Self {
        TestCaseError(reason.into())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for TestCaseError {}

/// Runner configuration. Only `cases` is honoured; `max_shrink_iters`
/// exists so `..ProptestConfig::default()` spreads stay meaningful (this
/// shim never shrinks).
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// How many random cases each property runs.
    pub cases: u32,
    /// Accepted for source compatibility with the real crate; unused.
    pub max_shrink_iters: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256, max_shrink_iters: 0 }
    }
}

// ---------------------------------------------------------------------
// Strategies.
// ---------------------------------------------------------------------

/// A recipe for generating values of `Value`.
///
/// Unlike the real crate there is no value tree and no shrinking —
/// `generate` produces a value directly.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Produces one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }
}

impl<T> Strategy for Box<dyn Strategy<Value = T>> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (**self).generate(rng)
    }
}

/// Always produces a clone of the given value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// See [`Strategy::prop_map`].
#[derive(Clone, Debug)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, U> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// Uniform choice between same-valued strategies (built by `prop_oneof!`).
pub struct Union<T> {
    arms: Vec<Box<dyn Strategy<Value = T>>>,
}

impl<T> Union<T> {
    /// A union over `arms`; must be non-empty.
    pub fn new(arms: Vec<Box<dyn Strategy<Value = T>>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union { arms }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let idx = rng.next_below(self.arms.len() as u64) as usize;
        self.arms[idx].generate(rng)
    }
}

macro_rules! impl_range_strategy {
    ($($ty:ty),*) => {$(
        impl Strategy for Range<$ty> {
            type Value = $ty;
            fn generate(&self, rng: &mut TestRng) -> $ty {
                assert!(self.start < self.end, "empty range strategy");
                let width = (self.end as i128 - self.start as i128) as u128;
                let off = (rng.next_u64() as u128) % width;
                (self.start as i128 + off as i128) as $ty
            }
        }
        impl Strategy for RangeInclusive<$ty> {
            type Value = $ty;
            fn generate(&self, rng: &mut TestRng) -> $ty {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let width = (hi as i128 - lo as i128) as u128 + 1;
                let off = (rng.next_u64() as u128) % width;
                (lo as i128 + off as i128) as $ty
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_tuple_strategy {
    ($(($($name:ident),+))*) => {$(
        #[allow(non_snake_case)]
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (A)
    (A, B)
    (A, B, C)
    (A, B, C, D)
    (A, B, C, D, E)
    (A, B, C, D, E, F)
    (A, B, C, D, E, F, G)
    (A, B, C, D, E, F, G, H)
}

// ---------------------------------------------------------------------
// `any::<T>()`.
// ---------------------------------------------------------------------

/// Types with a canonical full-domain strategy.
pub trait Arbitrary: Sized {
    /// Produces an arbitrary value of the type.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($ty:ty),*) => {$(
        impl Arbitrary for $ty {
            fn arbitrary(rng: &mut TestRng) -> $ty {
                rng.next_u64() as $ty
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// The strategy returned by [`any`].
#[derive(Clone, Debug, Default)]
pub struct AnyStrategy<T> {
    _marker: std::marker::PhantomData<T>,
}

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Full-domain strategy for `T`.
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy { _marker: std::marker::PhantomData }
}

// ---------------------------------------------------------------------
// Collections.
// ---------------------------------------------------------------------

/// Strategies over collections.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::{Range, RangeInclusive};

    /// Anything usable as a `vec` length specification.
    pub trait IntoSizeRange {
        /// Picks a concrete length.
        fn pick(&self, rng: &mut TestRng) -> usize;
    }

    impl IntoSizeRange for usize {
        fn pick(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl IntoSizeRange for Range<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            assert!(self.start < self.end, "empty size range");
            self.start + rng.next_below((self.end - self.start) as u64) as usize
        }
    }

    impl IntoSizeRange for RangeInclusive<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            self.start() + rng.next_below((self.end() - self.start() + 1) as u64) as usize
        }
    }

    /// The strategy returned by [`vec()`].
    pub struct VecStrategy<S, R> {
        elem: S,
        size: R,
    }

    impl<S: Strategy, R: IntoSizeRange> Strategy for VecStrategy<S, R> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.elem.generate(rng)).collect()
        }
    }

    /// A `Vec` of values from `elem` with a length drawn from `size`.
    pub fn vec<S: Strategy, R: IntoSizeRange>(elem: S, size: R) -> VecStrategy<S, R> {
        VecStrategy { elem, size }
    }
}

// ---------------------------------------------------------------------
// Macros.
// ---------------------------------------------------------------------

/// Asserts a condition inside a property, failing the case (not
/// panicking) so the runner can report the case number.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// Equality assertion counterpart of [`prop_assert!`].
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($left),
            stringify!($right),
            l,
            r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{} == {}`: {}\n  left: {:?}\n right: {:?}",
            stringify!($left),
            stringify!($right),
            format!($($fmt)*),
            l,
            r
        );
    }};
}

/// Uniform choice between strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::Union::new(vec![
            $(::std::boxed::Box::new($arm) as ::std::boxed::Box<dyn $crate::Strategy<Value = _>>,)+
        ])
    };
}

/// Declares property tests. Each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running `cases` deterministic random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::proptest!(@cfg ($config) $($rest)*);
    };
    (@cfg ($config:expr)
        $($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)*
    ) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $config;
            // Fixed seed: deterministic, reproducible runs (no shrinking).
            let mut rng = $crate::TestRng::new(0x5348_5249_4d50_0001);
            for case in 0..config.cases {
                $(let $arg = $crate::Strategy::generate(&($strat), &mut rng);)+
                let result: ::std::result::Result<(), $crate::TestCaseError> =
                    (|| { $body ::std::result::Result::Ok(()) })();
                if let ::std::result::Result::Err(e) = result {
                    panic!("property `{}` failed at case {}/{}: {}",
                        stringify!($name), case + 1, config.cases, e);
                }
            }
        }
    )*};
    ($($rest:tt)*) => {
        $crate::proptest!(@cfg ($crate::ProptestConfig::default()) $($rest)*);
    };
}

/// The subset of the real crate's prelude that the workspace uses.
pub mod prelude {
    pub use crate::collection as prop_collection;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_oneof, proptest, AnyStrategy, Arbitrary, Just,
        ProptestConfig, Strategy, TestCaseError, TestRng,
    };

    /// Mirror of the real crate's `prelude::prop` re-export namespace.
    pub mod prop {
        pub use crate::collection;
    }
}

#[cfg(test)]
mod tests {
    use crate::collection;
    use crate::prelude::*;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::new(7);
        for _ in 0..1000 {
            let v = (3u64..17).generate(&mut rng);
            assert!((3..17).contains(&v));
            let w = (1..=4u8).generate(&mut rng);
            assert!((1..=4).contains(&w));
            let s = (-5i64..9).generate(&mut rng);
            assert!((-5..9).contains(&s));
        }
    }

    #[test]
    fn oneof_hits_every_arm() {
        let strat = prop_oneof![Just(1u32), Just(2u32), Just(3u32)];
        let mut rng = TestRng::new(11);
        let mut seen = [false; 3];
        for _ in 0..100 {
            seen[(strat.generate(&mut rng) - 1u32) as usize] = true;
        }
        assert_eq!(seen, [true, true, true]);
    }

    #[test]
    fn vec_respects_size_specs() {
        let mut rng = TestRng::new(13);
        for _ in 0..200 {
            let v = collection::vec(0u64..10, 2..5).generate(&mut rng);
            assert!((2..5).contains(&v.len()));
            let w = collection::vec(any::<bool>(), 4usize).generate(&mut rng);
            assert_eq!(w.len(), 4);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        #[test]
        fn macro_wires_args_and_asserts(x in 0u64..100, flag in any::<bool>()) {
            prop_assert!(x < 100);
            if flag {
                prop_assert_eq!(x + 1, 1 + x, "addition commutes for {}", x);
            }
        }
    }

    proptest! {
        #[test]
        fn macro_defaults_to_256_cases(v in collection::vec(any::<u8>(), 0..8)) {
            prop_assert!(v.len() < 8);
        }
    }
}
