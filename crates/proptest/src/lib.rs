//! Vendored offline subset of the `proptest` crate.
//!
//! This workspace builds in environments with no access to crates.io, so
//! the property-testing API its test suites use is reimplemented here:
//! deterministic pseudo-random generation (seeded from the test name, so
//! failures reproduce run-to-run), the [`Strategy`] combinators the tests
//! call (`prop_map`, `prop_filter`, `prop_flat_map`, tuples, ranges,
//! [`Just`], `prop_oneof!`, `collection::vec`), and the `proptest!` /
//! `prop_assert*` / `prop_assume!` macros. There is **no shrinking**: a
//! failing case reports its values (via the assertion message) and the
//! case index.

// The shim mirrors the upstream crate's API surface; keep signatures as
// the real crate spells them rather than contorting them for lints.
#![allow(clippy::type_complexity)]
#![forbid(unsafe_code)]

use std::cell::RefCell;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::rc::Rc;

/// Deterministic splitmix64 generator.
#[derive(Clone, Debug)]
pub struct TestRng(u64);

impl TestRng {
    /// Seed from an arbitrary string (the test's name).
    pub fn from_name(name: &str) -> TestRng {
        let mut h = DefaultHasher::new();
        name.hash(&mut h);
        TestRng(h.finish() | 1)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[lo, hi]` (inclusive). `lo <= hi` required.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        let span = hi - lo;
        if span == u64::MAX {
            return self.next_u64();
        }
        lo + self.next_u64() % (span + 1)
    }

    /// Uniform value in `[lo, hi]` for signed bounds.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        let span = hi.wrapping_sub(lo) as u64;
        lo.wrapping_add((self.next_u64() % (span.wrapping_add(1)).max(1)) as i64)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Why a test case did not pass.
#[derive(Clone, Debug)]
pub enum TestCaseError {
    /// `prop_assume!` rejected the inputs; the case is re-drawn.
    Reject(String),
    /// A `prop_assert*!` failed.
    Fail(String),
}

impl TestCaseError {
    /// Construct a failure.
    pub fn fail(msg: impl Into<String>) -> TestCaseError {
        TestCaseError::Fail(msg.into())
    }
    /// Construct a rejection.
    pub fn reject(msg: impl Into<String>) -> TestCaseError {
        TestCaseError::Reject(msg.into())
    }
}

/// Result type the `proptest!` body closure returns.
pub type TestCaseResult = Result<(), TestCaseError>;

/// Per-test configuration. Only `cases` is honoured.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of successful (non-rejected) cases to run.
    pub cases: u32,
    /// Upper bound on total draws before giving up on `prop_assume!` /
    /// `prop_filter` rejections.
    pub max_global_rejects: u32,
}

impl ProptestConfig {
    /// Config running `cases` cases.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig {
            cases,
            ..ProptestConfig::default()
        }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig {
            cases: 256,
            max_global_rejects: 65536,
        }
    }
}

/// A generator of test values. Unlike upstream proptest there is no value
/// tree and no shrinking: `generate` draws a concrete value directly, or
/// `None` when a `prop_filter` (or empty size range) rejects the draw.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draw one value. `None` means "rejected, draw again".
    fn generate(&self, rng: &mut TestRng) -> Option<Self::Value>;

    /// Transform generated values.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Reject values failing the predicate.
    fn prop_filter<F: Fn(&Self::Value) -> bool>(
        self,
        _whence: impl AsRef<str>,
        f: F,
    ) -> Filter<Self, F>
    where
        Self: Sized,
    {
        Filter { inner: self, f }
    }

    /// Transform values, rejecting those mapped to `None`.
    fn prop_filter_map<O, F: Fn(Self::Value) -> Option<O>>(
        self,
        _whence: impl AsRef<str>,
        f: F,
    ) -> FilterMap<Self, F>
    where
        Self: Sized,
    {
        FilterMap { inner: self, f }
    }

    /// Chain a dependent strategy.
    fn prop_flat_map<S2: Strategy, F: Fn(Self::Value) -> S2>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap { inner: self, f }
    }

    /// Type-erase into a clonable boxed strategy.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Rc::new(move |rng| self.generate(rng)))
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> Option<O> {
        self.inner.generate(rng).map(&self.f)
    }
}

/// See [`Strategy::prop_filter`].
pub struct Filter<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
        self.inner.generate(rng).filter(|v| (self.f)(v))
    }
}

/// See [`Strategy::prop_filter_map`].
pub struct FilterMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> Option<O>> Strategy for FilterMap<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> Option<O> {
        self.inner.generate(rng).and_then(&self.f)
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;
    fn generate(&self, rng: &mut TestRng) -> Option<S2::Value> {
        let first = self.inner.generate(rng)?;
        (self.f)(first).generate(rng)
    }
}

/// A type-erased, reference-counted strategy (the `prop_oneof!` element
/// type).
pub struct BoxedStrategy<V>(Rc<dyn Fn(&mut TestRng) -> Option<V>>);

impl<V> Clone for BoxedStrategy<V> {
    fn clone(&self) -> Self {
        BoxedStrategy(Rc::clone(&self.0))
    }
}

impl<V> Strategy for BoxedStrategy<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> Option<V> {
        (self.0)(rng)
    }
}

/// Strategy producing exactly one value.
#[derive(Clone, Copy, Debug)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> Option<T> {
        Some(self.0.clone())
    }
}

/// Uniform choice between boxed alternatives — built by `prop_oneof!`.
pub struct OneOf<V> {
    options: Vec<(u32, BoxedStrategy<V>)>,
    total_weight: u64,
}

impl<V> OneOf<V> {
    /// Build from weighted alternatives. Panics if empty.
    pub fn new_weighted(options: Vec<(u32, BoxedStrategy<V>)>) -> OneOf<V> {
        assert!(!options.is_empty(), "prop_oneof! needs at least one option");
        let total_weight = options.iter().map(|(w, _)| *w as u64).sum();
        assert!(total_weight > 0, "prop_oneof! weights must not all be zero");
        OneOf {
            options,
            total_weight,
        }
    }

    /// Build from equally likely alternatives.
    pub fn new(options: Vec<BoxedStrategy<V>>) -> OneOf<V> {
        OneOf::new_weighted(options.into_iter().map(|s| (1, s)).collect())
    }
}

impl<V> Strategy for OneOf<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> Option<V> {
        let mut pick = rng.range_u64(0, self.total_weight - 1);
        for (w, s) in &self.options {
            if pick < *w as u64 {
                return s.generate(rng);
            }
            pick -= *w as u64;
        }
        unreachable!("weight bookkeeping")
    }
}

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    /// Draw an arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! arb_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
arb_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f32 {
    fn arbitrary(rng: &mut TestRng) -> f32 {
        f32::from_bits(rng.next_u64() as u32)
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        f64::from_bits(rng.next_u64())
    }
}

/// Strategy for [`Arbitrary`] types; see [`any`].
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> Option<T> {
        Some(T::arbitrary(rng))
    }
}

/// `any::<T>()` — the canonical whole-domain strategy.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

macro_rules! range_strategy {
    ($($t:ty => $draw:ident),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> Option<$t> {
                assert!(self.start < self.end, "empty range strategy");
                Some(rng.$draw(self.start as _, (self.end - 1) as _) as $t)
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> Option<$t> {
                assert!(self.start() <= self.end(), "empty range strategy");
                Some(rng.$draw(*self.start() as _, *self.end() as _) as $t)
            }
        }
    )*};
}
range_strategy!(u8 => range_u64, u16 => range_u64, u32 => range_u64,
                u64 => range_u64, usize => range_u64,
                i8 => range_i64, i16 => range_i64, i32 => range_i64,
                i64 => range_i64, isize => range_i64);

macro_rules! float_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> Option<$t> {
                assert!(self.start < self.end, "empty range strategy");
                Some(self.start + rng.unit_f64() as $t * (self.end - self.start))
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> Option<$t> {
                Some(self.start() + rng.unit_f64() as $t * (self.end() - self.start()))
            }
        }
    )*};
}
float_range_strategy!(f32, f64);

macro_rules! tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Option<Self::Value> {
                let ($($name,)+) = self;
                Some(($($name.generate(rng)?,)+))
            }
        }
    };
}
tuple_strategy!(A);
tuple_strategy!(A, B);
tuple_strategy!(A, B, C);
tuple_strategy!(A, B, C, D);
tuple_strategy!(A, B, C, D, E);
tuple_strategy!(A, B, C, D, E, F);
tuple_strategy!(A, B, C, D, E, F, G);
tuple_strategy!(A, B, C, D, E, F, G, H);
tuple_strategy!(A, B, C, D, E, F, G, H, I);
tuple_strategy!(A, B, C, D, E, F, G, H, I, J);

/// Collection strategies (`prop::collection::vec`).
pub mod collection {
    use super::{Strategy, TestRng};

    /// An inclusive element-count range for collection strategies.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        /// Minimum length (inclusive).
        pub min: usize,
        /// Maximum length (inclusive).
        pub max: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange { min: n, max: n }
        }
    }
    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange {
                min: r.start,
                max: r.end - 1,
            }
        }
    }
    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> SizeRange {
            SizeRange {
                min: *r.start(),
                max: *r.end(),
            }
        }
    }

    /// Strategy generating `Vec`s of values from an element strategy.
    pub struct VecStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    /// `vec(element_strategy, len_range)`.
    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            elem,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<Vec<S::Value>> {
            let len = rng.range_u64(self.size.min as u64, self.size.max as u64) as usize;
            (0..len).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

/// Value-selection strategies (`prop::sample::select`).
pub mod sample {
    use super::{Strategy, TestRng};

    /// Strategy choosing uniformly from a fixed list of values — built by
    /// [`select`].
    pub struct Select<T> {
        options: Vec<T>,
    }

    /// `select(values)`: draw one of the given values uniformly. Panics
    /// on an empty list, mirroring upstream.
    pub fn select<T: Clone>(options: impl Into<Vec<T>>) -> Select<T> {
        let options = options.into();
        assert!(
            !options.is_empty(),
            "sample::select needs at least one value"
        );
        Select { options }
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> Option<T> {
            let i = rng.range_u64(0, self.options.len() as u64 - 1) as usize;
            Some(self.options[i].clone())
        }
    }
}

thread_local! {
    /// Values drawn for the case currently executing, rendered with
    /// `Debug` by the harness so failures are diagnosable without
    /// shrinking.
    static CURRENT_CASE: RefCell<String> = const { RefCell::new(String::new()) };
}

/// Harness plumbing used by the `proptest!` macro — not public API.
pub mod harness {
    use super::*;

    /// Record the `Debug` rendering of the current case's inputs.
    pub fn set_current_case(desc: String) {
        CURRENT_CASE.with(|c| *c.borrow_mut() = desc);
    }

    /// Run `cases` accepted cases of `body` over `strategy`.
    pub fn run<S: Strategy>(
        name: &str,
        config: &ProptestConfig,
        strategy: &S,
        body: impl Fn(S::Value) -> TestCaseResult,
    ) {
        let mut rng = TestRng::from_name(name);
        let mut accepted = 0u32;
        let mut rejected = 0u32;
        while accepted < config.cases {
            let Some(value) = strategy.generate(&mut rng) else {
                rejected += 1;
                assert!(
                    rejected < config.max_global_rejects,
                    "proptest '{name}': too many prop_filter rejections \
                     ({rejected}) before reaching {} cases",
                    config.cases
                );
                continue;
            };
            match body(value) {
                Ok(()) => accepted += 1,
                Err(TestCaseError::Reject(why)) => {
                    rejected += 1;
                    assert!(
                        rejected < config.max_global_rejects,
                        "proptest '{name}': too many prop_assume! rejections \
                         ({rejected}): {why}"
                    );
                }
                Err(TestCaseError::Fail(msg)) => {
                    let inputs = CURRENT_CASE.with(|c| c.borrow().clone());
                    panic!(
                        "proptest '{name}' failed at case {accepted}\n\
                         inputs: {inputs}\n{msg}"
                    );
                }
            }
        }
    }
}

/// The property-test entry macro: generates one `#[test]` fn per body.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Internal expansion of [`proptest!`].
#[macro_export]
#[doc(hidden)]
macro_rules! __proptest_impl {
    ( ($cfg:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
    )* ) => { $(
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let strategy = ($($strat,)+);
            $crate::harness::run(stringify!($name), &config, &strategy, |values| {
                $crate::harness::set_current_case(format!("{values:?}"));
                let ($($pat,)+) = values;
                $body
                Ok(())
            });
        }
    )* };
}

/// Weighted/uniform choice between strategies with a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::OneOf::new_weighted(vec![
            $(($weight as u32, $crate::Strategy::boxed($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::OneOf::new(vec![$($crate::Strategy::boxed($strat)),+])
    };
}

/// `assert!` that reports through the proptest harness.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError::Fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// `assert_eq!` that reports through the proptest harness.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($left), stringify!($right), l, r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}\n{}",
            stringify!($left), stringify!($right), l, r, format!($($fmt)+)
        );
    }};
}

/// `assert_ne!` that reports through the proptest harness.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: `{} != {}`\n  both: {:?}",
            stringify!($left), stringify!($right), l
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: `{} != {}`\n  both: {:?}\n{}",
            stringify!($left), stringify!($right), l, format!($($fmt)+)
        );
    }};
}

/// Discard the current case (does not count toward `cases`).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError::Reject(
                stringify!($cond).to_string(),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError::Reject(
                format!($($fmt)+),
            ));
        }
    };
}

/// The glob-import surface test files use: `use proptest::prelude::*;`.
pub mod prelude {
    pub use crate as prop;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        Arbitrary, BoxedStrategy, Just, ProptestConfig, Strategy, TestCaseError,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn determinism() {
        let mut a = crate::TestRng::from_name("x");
        let mut b = crate::TestRng::from_name("x");
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn select_draws_only_listed_values() {
        let mut rng = crate::TestRng::from_name("select");
        let s = crate::sample::select(vec![2usize, 3, 5]);
        let mut seen = [false; 3];
        for _ in 0..200 {
            let v = s.generate(&mut rng).unwrap();
            let i = [2, 3, 5].iter().position(|&x| x == v).expect("listed");
            seen[i] = true;
        }
        assert_eq!(seen, [true; 3], "all options eventually drawn");
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = crate::TestRng::from_name("bounds");
        for _ in 0..1000 {
            let v = (3usize..10).generate(&mut rng).unwrap();
            assert!((3..10).contains(&v));
            let w = (5i64..=5).generate(&mut rng).unwrap();
            assert_eq!(w, 5);
            let f = (-2.0f32..2.0).generate(&mut rng).unwrap();
            assert!((-2.0..2.0).contains(&f));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn macro_round_trip((a, b) in (0u32..100, 0u32..100), flip in any::<bool>()) {
            prop_assume!(a != 99);
            let sum = a + b;
            prop_assert!(sum >= a, "sum {} under a {}", sum, a);
            prop_assert_eq!(sum - b, a);
            if flip {
                prop_assert_ne!(sum + 1, a + b);
            }
        }
    }

    proptest! {
        #[test]
        fn oneof_and_vec(v in prop::collection::vec(prop_oneof![Just(1u8), Just(2u8)], 0..8)) {
            prop_assert!(v.len() < 8);
            prop_assert!(v.iter().all(|&x| x == 1 || x == 2));
        }
    }
}
