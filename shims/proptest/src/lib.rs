//! Offline shim for [proptest](https://crates.io/crates/proptest).
//!
//! Implements the subset the workspace's property tests use: the
//! [`proptest!`] macro (with `#![proptest_config(...)]` and `pat in strategy`
//! arguments), range / tuple / [`Just`] / [`prop_oneof!`] /
//! [`collection::vec`] strategies, `prop_map`, and the `prop_assert*`
//! macros.
//!
//! Unlike the real crate there is **no shrinking** and no persisted failure
//! seeds: each test runs `cases` deterministic samples derived from the
//! test's module path, so failures reproduce exactly across runs and
//! machines. That trades minimal-counterexample reporting for zero
//! dependencies, which is the right trade in this offline environment.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Runner plumbing used by the generated tests.
pub mod test_runner {
    use super::*;

    /// Deterministic per-(test, case) random source.
    pub struct TestRng(pub(crate) StdRng);

    impl TestRng {
        /// Derive the RNG for one case of one named test.
        pub fn deterministic(test_name: &str, case: u32) -> Self {
            use std::hash::{Hash, Hasher};
            let mut h = std::collections::hash_map::DefaultHasher::new();
            test_name.hash(&mut h);
            case.hash(&mut h);
            Self(StdRng::seed_from_u64(h.finish()))
        }

        /// Raw 64-bit draw.
        pub fn next_u64(&mut self) -> u64 {
            self.0.next_u64()
        }
    }
}

use test_runner::TestRng;

/// Configuration accepted by `#![proptest_config(...)]`.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of cases each test runs.
    pub cases: u32,
}

impl ProptestConfig {
    /// Run `cases` samples per test.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 64 }
    }
}

/// A generator of test inputs.
pub trait Strategy {
    /// The generated value type.
    type Value;

    /// Draw one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values (mirrors proptest's `prop_map`).
    fn prop_map<T, F: Fn(Self::Value) -> T>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// Strategy produced by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, T, F: Fn(S::Value) -> T> Strategy for Map<S, F> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> T {
        (self.f)(self.inner.sample(rng))
    }
}

/// Strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

impl<S: Strategy + ?Sized> Strategy for Box<S> {
    type Value = S::Value;

    fn sample(&self, rng: &mut TestRng) -> S::Value {
        (**self).sample(rng)
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;

    fn sample(&self, rng: &mut TestRng) -> S::Value {
        (**self).sample(rng)
    }
}

/// Uniform choice among boxed strategies (backs [`prop_oneof!`]).
pub struct Union<T> {
    arms: Vec<Box<dyn Strategy<Value = T>>>,
}

impl<T> Union<T> {
    /// Build from the macro's collected arms.
    pub fn new(arms: Vec<Box<dyn Strategy<Value = T>>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Self { arms }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> T {
        let i = (rng.next_u64() % self.arms.len() as u64) as usize;
        self.arms[i].sample(rng)
    }
}

macro_rules! impl_int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                rng.0.gen_range(self.clone())
            }
        }
    )*};
}

impl_int_range_strategy!(usize, u64, u32, u16, u8);

macro_rules! impl_float_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let u: f64 = rng.0.gen::<f64>();
                let (lo, hi) = (self.start as f64, self.end as f64);
                (lo + u * (hi - lo)) as $t
            }
        }
    )*};
}

impl_float_range_strategy!(f32, f64);

macro_rules! impl_tuple_strategy {
    ($(($($n:ident . $i:tt),+ );)*) => {$(
        impl<$($n: Strategy),+> Strategy for ($($n,)+) {
            type Value = ($($n::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$i.sample(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (A.0, B.1);
    (A.0, B.1, C.2);
    (A.0, B.1, C.2, D.3);
    (A.0, B.1, C.2, D.3, E.4);
}

/// Collection strategies, mirroring `proptest::collection`.
pub mod collection {
    use super::{Strategy, TestRng};

    /// Element count for [`vec`](fn@vec): fixed or ranged.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self { lo: n, hi: n + 1 }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            Self { lo: r.start, hi: r.end }
        }
    }

    /// Strategy for `Vec`s of values drawn from `element`.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// `Vec` strategy with a fixed or ranged length (mirrors
    /// `proptest::collection::vec`).
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64;
            let n = self.size.lo + (rng.next_u64() % span) as usize;
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Everything the tests import with `use proptest::prelude::*`.
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_oneof, proptest, Just, ProptestConfig, Strategy,
    };
}

/// Assert inside a proptest case (no shrinking, so a plain `assert!`).
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Equality assert inside a proptest case.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Uniform choice among strategies yielding one value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::Union::new(vec![$(Box::new($arm) as Box<dyn $crate::Strategy<Value = _>>),+])
    };
}

/// The proptest entry macro: wraps each `fn name(pat in strategy, ...)`
/// into a `#[test]` running `cases` deterministic samples.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_tests!{ ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_tests!{ (<$crate::ProptestConfig as Default>::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_tests {
    ( ($cfg:expr) ) => {};
    ( ($cfg:expr)
      $(#[$meta:meta])*
      fn $name:ident( $($p:pat in $s:expr),* $(,)? ) $body:block
      $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::ProptestConfig = $cfg;
            for __case in 0..__cfg.cases {
                let mut __rng = $crate::test_runner::TestRng::deterministic(
                    concat!(module_path!(), "::", stringify!($name)),
                    __case,
                );
                $(let $p = $crate::Strategy::sample(&($s), &mut __rng);)*
                $body
            }
        }
        $crate::__proptest_tests!{ ($cfg) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn evens() -> impl Strategy<Value = usize> {
        (0usize..50).prop_map(|v| v * 2)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_respect_bounds(v in 3usize..17, f in -2.0f32..2.0) {
            prop_assert!((3..17).contains(&v));
            prop_assert!((-2.0..2.0).contains(&f));
        }

        #[test]
        fn tuples_and_maps((a, b) in (0u64..10, 0u64..10), e in evens()) {
            prop_assert!(a < 10 && b < 10);
            prop_assert_eq!(e % 2, 0);
        }

        #[test]
        fn oneof_picks_only_arms(v in prop_oneof![Just(1usize), Just(4usize), Just(9usize)]) {
            prop_assert!(matches!(v, 1usize | 4 | 9));
        }

        #[test]
        fn vec_lengths_in_range(v in crate::collection::vec(0u32..5, 2..6)) {
            prop_assert!((2..6).contains(&v.len()));
            prop_assert!(v.iter().all(|&x| x < 5));
        }
    }

    #[test]
    fn cases_are_deterministic() {
        let mut a = crate::test_runner::TestRng::deterministic("t", 3);
        let mut b = crate::test_runner::TestRng::deterministic("t", 3);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = crate::test_runner::TestRng::deterministic("t", 4);
        assert_ne!(a.next_u64(), c.next_u64());
    }
}
