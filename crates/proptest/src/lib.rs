//! Vendored stand-in for the `proptest` crate, implementing the subset
//! this workspace uses so property tests run with no network access to
//! a registry:
//!
//! * the [`proptest!`] macro (with optional
//!   `#![proptest_config(ProptestConfig::with_cases(N))]`),
//! * [`prop_assert!`] / [`prop_assert_eq!`] / [`prop_assert_ne!`],
//! * strategies: integer/float ranges, [`any`], [`Just`], tuples,
//!   [`collection::vec`], weighted [`prop_oneof!`], and
//!   [`Strategy::prop_map`].
//!
//! Cases are generated from a seed derived from the test's module path
//! and name, so every run of a given binary sees the same inputs
//! (deterministic CI). Unlike real proptest there is **no shrinking**:
//! a failing case reports its inputs via `Debug` instead.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Per-block test configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases per test.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// A failed property (what `prop_assert!` returns and `?` propagates).
#[derive(Debug, Clone)]
pub struct TestCaseError(String);

impl TestCaseError {
    /// Build a failure with the given message.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError(msg.into())
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for TestCaseError {}

/// A generator of values of one type.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Produce one value.
    fn generate(&self, rng: &mut StdRng) -> Self::Value;

    /// Transform generated values with `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }
}

impl<S: Strategy + ?Sized> Strategy for Box<S> {
    type Value = S::Value;

    fn generate(&self, rng: &mut StdRng) -> Self::Value {
        (**self).generate(rng)
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;

    fn generate(&self, rng: &mut StdRng) -> Self::Value {
        (**self).generate(rng)
    }
}

/// See [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;

    fn generate(&self, rng: &mut StdRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// Strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut StdRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut StdRng) -> f64 {
        rng.gen_range(self.clone())
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn generate(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}
impl_tuple_strategy! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
}

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    /// Draw an unconstrained value.
    fn arbitrary(rng: &mut StdRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut StdRng) -> Self {
                rng.gen::<$t>()
            }
        }
    )*};
}
impl_arbitrary_int!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, isize, bool, f64);

impl<T: Arbitrary, const N: usize> Arbitrary for [T; N] {
    fn arbitrary(rng: &mut StdRng) -> Self {
        std::array::from_fn(|_| T::arbitrary(rng))
    }
}

/// See [`any`].
#[derive(Debug)]
pub struct Any<T>(PhantomData<T>);

impl<T> Clone for Any<T> {
    fn clone(&self) -> Self {
        Any(PhantomData)
    }
}

/// Strategy producing unconstrained values of `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut StdRng) -> T {
        T::arbitrary(rng)
    }
}

/// Weighted choice between strategies of one value type (the expansion
/// of [`prop_oneof!`]).
pub struct Union<V> {
    arms: Vec<(u32, Box<dyn Strategy<Value = V>>)>,
}

impl<V> Union<V> {
    /// Build from `(weight, strategy)` arms. Panics if empty or all
    /// weights are zero.
    pub fn new(arms: Vec<(u32, Box<dyn Strategy<Value = V>>)>) -> Self {
        let total: u64 = arms.iter().map(|(w, _)| *w as u64).sum();
        assert!(total > 0, "prop_oneof! needs at least one positive weight");
        Union { arms }
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;

    fn generate(&self, rng: &mut StdRng) -> V {
        let total: u64 = self.arms.iter().map(|(w, _)| *w as u64).sum();
        let mut pick = rng.gen_range(0..total);
        for (w, strat) in &self.arms {
            if pick < *w as u64 {
                return strat.generate(rng);
            }
            pick -= *w as u64;
        }
        unreachable!("weighted pick out of range")
    }
}

/// Box a strategy for use in a [`Union`] (type-inference helper used by
/// [`prop_oneof!`]).
pub fn boxed<S: Strategy + 'static>(s: S) -> Box<dyn Strategy<Value = S::Value>> {
    Box::new(s)
}

/// Collection strategies.
pub mod collection {
    use super::{StdRng, Strategy};
    use rand::Rng;

    /// Sources of a collection length: a fixed size or a range.
    pub trait SizeRange {
        /// Pick a length.
        fn pick(&self, rng: &mut StdRng) -> usize;
    }

    impl SizeRange for usize {
        fn pick(&self, _rng: &mut StdRng) -> usize {
            *self
        }
    }

    impl SizeRange for std::ops::Range<usize> {
        fn pick(&self, rng: &mut StdRng) -> usize {
            rng.gen_range(self.clone())
        }
    }

    impl SizeRange for std::ops::RangeInclusive<usize> {
        fn pick(&self, rng: &mut StdRng) -> usize {
            rng.gen_range(self.clone())
        }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S, Z> {
        elem: S,
        size: Z,
    }

    /// Strategy producing a `Vec` of `size.pick()` elements of `elem`.
    pub fn vec<S: Strategy, Z: SizeRange>(elem: S, size: Z) -> VecStrategy<S, Z> {
        VecStrategy { elem, size }
    }

    impl<S: Strategy, Z: SizeRange> Strategy for VecStrategy<S, Z> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let len = self.size.pick(rng);
            (0..len).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

/// Everything a property-test module needs in scope.
pub mod prelude {
    pub use crate::collection;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Any, Arbitrary,
        Just, ProptestConfig, Strategy, TestCaseError,
    };
}

#[doc(hidden)]
pub fn __seed_for(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[doc(hidden)]
pub fn __rng_for_case(seed: u64, case: u32) -> StdRng {
    StdRng::seed_from_u64(seed ^ (case as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Assert a condition inside a `proptest!` body, failing the case (not
/// panicking directly) when false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Assert equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, "assertion failed: {:?} == {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, "{}: {:?} == {:?}", format!($($fmt)+), l, r);
    }};
}

/// Assert inequality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l != *r, "assertion failed: {:?} != {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l != *r, "{}: {:?} != {:?}", format!($($fmt)+), l, r);
    }};
}

/// Weighted choice: `prop_oneof![3 => a, 1 => b]` (or unweighted
/// `prop_oneof![a, b]`).
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![$(($weight as u32, $crate::boxed($strat))),+])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![$((1u32, $crate::boxed($strat))),+])
    };
}

/// Define property tests: each `fn name(arg in strategy, ..) { body }`
/// becomes a `#[test]` running `cases` generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { @cfg($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { @cfg($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (@cfg($cfg:expr)) => {};
    (@cfg($cfg:expr)
        $(#[$attr:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$attr])*
        fn $name() {
            let __cfg: $crate::ProptestConfig = $cfg;
            let __seed = $crate::__seed_for(concat!(module_path!(), "::", stringify!($name)));
            for __case in 0..__cfg.cases {
                let mut __rng = $crate::__rng_for_case(__seed, __case);
                $(let $arg = $crate::Strategy::generate(&($strat), &mut __rng);)+
                let __inputs = format!(
                    concat!($(stringify!($arg), " = {:?}  "),+),
                    $(&$arg),+
                );
                let __result = (|| -> ::core::result::Result<(), $crate::TestCaseError> {
                    $body
                    ::core::result::Result::Ok(())
                })();
                if let ::core::result::Result::Err(e) = __result {
                    panic!(
                        "proptest {} failed at case {}/{}: {}\n  inputs: {}",
                        stringify!($name), __case, __cfg.cases, e, __inputs,
                    );
                }
            }
        }
        $crate::__proptest_impl! { @cfg($cfg) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[derive(Debug, Clone, PartialEq)]
    enum Op {
        Get(u64),
        Put(u64, u8),
        Flush,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            3 => (0u64..100).prop_map(Op::Get),
            2 => (0u64..100, any::<u8>()).prop_map(|(k, v)| Op::Put(k, v)),
            1 => Just(Op::Flush),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_in_bounds(x in 5u64..10, y in 1usize..=3, f in 0.25f64..0.75) {
            prop_assert!((5..10).contains(&x));
            prop_assert!((1..=3).contains(&y));
            prop_assert!((0.25..0.75).contains(&f), "f = {f}");
        }

        #[test]
        fn vecs_respect_size(v in collection::vec(any::<u8>(), 2..5)) {
            prop_assert!(v.len() >= 2 && v.len() < 5, "len {}", v.len());
        }

        #[test]
        fn nested_vec_and_tuples(
            rows in collection::vec((any::<bool>(), collection::vec(0u8..4, 3)), 1..4),
        ) {
            for (_, row) in &rows {
                prop_assert_eq!(row.len(), 3);
                for cell in row {
                    prop_assert!(*cell < 4);
                }
            }
        }

        #[test]
        fn oneof_covers_arms(ops in collection::vec(op_strategy(), 50)) {
            prop_assert_eq!(ops.len(), 50);
            for op in &ops {
                match op {
                    Op::Get(k) => prop_assert!(*k < 100),
                    Op::Put(k, _) => prop_assert!(*k < 100),
                    Op::Flush => {}
                }
            }
        }

        #[test]
        fn question_mark_propagates(x in any::<u32>()) {
            fn helper(x: u32) -> Result<u32, TestCaseError> {
                prop_assert!(x == x, "reflexivity");
                Ok(x)
            }
            let y = helper(x)?;
            prop_assert_eq!(x, y);
        }
    }

    #[test]
    fn cases_are_deterministic() {
        let s = collection::vec(any::<u64>(), 4);
        let a: Vec<u64> = Strategy::generate(&s, &mut crate::__rng_for_case(9, 3));
        let b: Vec<u64> = Strategy::generate(&s, &mut crate::__rng_for_case(9, 3));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "proptest")]
    fn failing_property_panics_with_inputs() {
        mod inner {
            use crate::prelude::*;
            proptest! {
                #![proptest_config(ProptestConfig::with_cases(4))]
                #[allow(dead_code)]
                fn always_fails(x in 0u8..4) {
                    prop_assert!(x > 200, "x = {x}");
                }
            }
            pub fn run() {
                always_fails();
            }
        }
        inner::run();
    }
}
