//! Offline stand-in for the `proptest` crate.
//!
//! The build container cannot reach a crates.io registry, so this crate
//! vendors the subset of proptest's API the workspace's property tests
//! use: the [`Strategy`] trait with `prop_map` / `prop_flat_map` /
//! `boxed`, range and tuple strategies, [`collection::vec`],
//! [`arbitrary::any`], [`strategy::Just`], `prop_oneof!`, and the
//! `proptest!` test macro with `prop_assert*` / `prop_assume!`.
//!
//! Differences from upstream proptest, by design:
//!
//! * **No shrinking.** A failing case panics with the full generated
//!   inputs instead of a minimized counterexample.
//! * **Deterministic seeding.** Each test's RNG is seeded from a hash of
//!   the test name (override with `PROPTEST_RNG_SEED`), so failures
//!   reproduce exactly across runs and machines.
//! * **Default case count 64** (override with `PROPTEST_CASES`); the
//!   cycle-accurate simulator makes upstream's 256 needlessly slow here.

/// Test-runner plumbing: configuration, RNG and case-level errors.
pub mod test_runner {
    /// Run configuration, mirroring `proptest::test_runner::ProptestConfig`.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of successful cases required for the test to pass.
        pub cases: u32,
        /// Maximum `prop_assume!` rejections tolerated before the run
        /// aborts.
        pub max_global_rejects: u32,
    }

    impl ProptestConfig {
        /// A configuration running `cases` successful cases.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig {
                cases,
                ..Self::default()
            }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            let cases = std::env::var("PROPTEST_CASES")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(64);
            ProptestConfig {
                cases,
                max_global_rejects: 4096,
            }
        }
    }

    /// Why a single generated case did not pass.
    #[derive(Debug)]
    pub enum TestCaseError {
        /// `prop_assume!` rejected the inputs; the case is retried.
        Reject(String),
        /// An assertion failed; the test fails.
        Fail(String),
    }

    /// The per-test deterministic generator (SplitMix64).
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// A generator seeded from the test name (or `PROPTEST_RNG_SEED`).
        pub fn for_test(name: &str) -> Self {
            let base = std::env::var("PROPTEST_RNG_SEED")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(0xDA7E_2013_C0FF_EE00u64);
            // FNV-1a over the name keeps distinct tests on distinct streams.
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for b in name.bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
            }
            TestRng { state: base ^ h }
        }

        /// Next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// A float in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }

        /// A uniform index in `[0, n)`.
        ///
        /// # Panics
        ///
        /// Panics if `n == 0`.
        pub fn index(&mut self, n: usize) -> usize {
            assert!(n > 0, "index over empty range");
            ((self.next_u64() as u128 * n as u128) >> 64) as usize
        }
    }
}

/// Strategies: the value-generation half of proptest.
pub mod strategy {
    use crate::test_runner::TestRng;
    use std::fmt::Debug;
    use std::ops::{Range, RangeInclusive};

    /// A recipe for generating values of `Self::Value`.
    pub trait Strategy {
        /// The generated type.
        type Value: Debug;

        /// Generates one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O: Debug, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        /// Generates a value, then generates from the strategy `f` builds
        /// out of it.
        fn prop_flat_map<S2: Strategy, F: Fn(Self::Value) -> S2>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
        {
            FlatMap { inner: self, f }
        }

        /// Erases the concrete strategy type.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Box::new(self))
        }
    }

    /// Object-safe shim behind [`BoxedStrategy`].
    trait DynStrategy<V> {
        fn generate_dyn(&self, rng: &mut TestRng) -> V;
    }

    impl<V: Debug, S: Strategy<Value = V>> DynStrategy<V> for S {
        fn generate_dyn(&self, rng: &mut TestRng) -> V {
            self.generate(rng)
        }
    }

    /// A type-erased strategy.
    pub struct BoxedStrategy<V>(Box<dyn DynStrategy<V>>);

    impl<V: Debug> Strategy for BoxedStrategy<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            self.0.generate_dyn(rng)
        }
    }

    /// Always generates a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone + Debug>(pub T);

    impl<T: Clone + Debug> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Picks one of several strategies uniformly (the `prop_oneof!`
    /// backing type).
    pub struct Union<V> {
        arms: Vec<BoxedStrategy<V>>,
    }

    impl<V: Debug> Union<V> {
        /// A union over `arms`.
        ///
        /// # Panics
        ///
        /// Panics if `arms` is empty.
        pub fn new(arms: Vec<BoxedStrategy<V>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Union { arms }
        }
    }

    impl<V: Debug> Strategy for Union<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            let i = rng.index(self.arms.len());
            self.arms[i].generate(rng)
        }
    }

    /// See [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O: Debug, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// See [`Strategy::prop_flat_map`].
    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
        type Value = S2::Value;
        fn generate(&self, rng: &mut TestRng) -> S2::Value {
            (self.f)(self.inner.generate(rng)).generate(rng)
        }
    }

    macro_rules! impl_int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as u128).wrapping_sub(self.start as u128);
                    let draw = (rng.next_u64() as u128 * span) >> 64;
                    self.start + draw as $t
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi as u128) - (lo as u128) + 1;
                    let draw = (rng.next_u64() as u128 * span) >> 64;
                    lo + draw as $t
                }
            }
        )*};
    }

    impl_int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! impl_float_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let v = self.start + rng.unit_f64() as $t * (self.end - self.start);
                    if v < self.end { v } else { self.start }
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    lo + rng.unit_f64() as $t * (hi - lo)
                }
            }
        )*};
    }

    impl_float_range_strategy!(f32, f64);

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
    impl_tuple_strategy!(A, B, C, D, E, F);
}

/// `any::<T>()` support.
pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::fmt::Debug;
    use std::marker::PhantomData;

    /// Types with a canonical full-domain strategy.
    pub trait Arbitrary: Debug + Sized {
        /// Generates one arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> f64 {
            // Finite full-range doubles: sign * mantissa * 2^exp.
            let m = rng.unit_f64() * 2.0 - 1.0;
            let e = rng.index(129) as i32 - 64;
            m * (e as f64).exp2()
        }
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    /// The strategy returned by [`any`].
    #[derive(Debug, Clone, Copy)]
    pub struct Any<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The canonical strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

/// Collection strategies.
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// An inclusive-exclusive element-count specification.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    /// The strategy returned by [`vec`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = self.size.hi - self.size.lo;
            let len = self.size.lo + if span > 0 { rng.index(span) } else { 0 };
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// A strategy for vectors of `element` values with a length drawn from
    /// `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

/// The glob import used by every property test.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// Fails the current case with a message.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                format!($($fmt)*),
            ));
        }
    };
}

/// Fails the current case unless both sides are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(
            *a == *b,
            "assertion failed: `{:?}` == `{:?}`",
            a,
            b
        );
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(*a == *b, $($fmt)*);
    }};
}

/// Fails the current case if both sides are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(
            *a != *b,
            "assertion failed: `{:?}` != `{:?}`",
            a,
            b
        );
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(*a != *b, $($fmt)*);
    }};
}

/// Rejects the current inputs (the case is regenerated, not failed).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject(
                concat!("assumption failed: ", stringify!($cond)).to_string(),
            ));
        }
    };
}

/// Uniformly picks one of several strategies with the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

/// Declares property tests: each `fn` runs `cases` times over freshly
/// generated inputs; failures panic with the generated values (no
/// shrinking).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { cfg = ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! {
            cfg = ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (cfg = ($cfg:expr)) => {};
    (cfg = ($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $cfg;
            let mut rng = $crate::test_runner::TestRng::for_test(concat!(
                module_path!(), "::", stringify!($name)
            ));
            let mut passed = 0u32;
            let mut rejected = 0u32;
            while passed < config.cases {
                $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut rng);)+
                let inputs = format!(
                    concat!($(stringify!($arg), " = {:?}; "),+),
                    $(&$arg),+
                );
                let outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                match outcome {
                    Ok(()) => passed += 1,
                    Err($crate::test_runner::TestCaseError::Reject(why)) => {
                        rejected += 1;
                        assert!(
                            rejected <= config.max_global_rejects,
                            "too many prop_assume! rejections ({rejected}); last: {why}"
                        );
                    }
                    Err($crate::test_runner::TestCaseError::Fail(why)) => {
                        panic!(
                            "proptest case {} failed: {why}\n  inputs: {inputs}",
                            passed + 1
                        );
                    }
                }
            }
        }
        $crate::__proptest_items! { cfg = ($cfg) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[derive(Debug, Clone, PartialEq)]
    enum Tag {
        A,
        B(usize),
    }

    fn tag_strategy() -> impl Strategy<Value = Tag> {
        prop_oneof![Just(Tag::A), (1usize..10).prop_map(Tag::B),]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(x in 3usize..10, y in 0.5f64..=2.0) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((0.5..=2.0).contains(&y));
        }

        #[test]
        fn vec_lengths_respect_size(v in crate::collection::vec(0u8..4, 2..6)) {
            prop_assert!(v.len() >= 2 && v.len() < 6, "len {}", v.len());
            for &b in &v {
                prop_assert!(b < 4);
            }
        }

        #[test]
        fn flat_map_threads_dependent_values(
            pair in (2usize..5).prop_flat_map(|n| {
                crate::collection::vec(0usize..n, 1..4).prop_map(move |v| (n, v))
            })
        ) {
            let (n, v) = pair;
            for &x in &v {
                prop_assert!(x < n);
            }
        }

        #[test]
        fn oneof_produces_every_arm_eventually(t in tag_strategy()) {
            match t {
                Tag::A => {}
                Tag::B(n) => prop_assert!((1..10).contains(&n)),
            }
        }

        #[test]
        fn assume_rejects_without_failing(x in 0usize..100) {
            prop_assume!(x % 2 == 0);
            prop_assert!(x % 2 == 0);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        use crate::strategy::Strategy;
        let mut a = crate::test_runner::TestRng::for_test("t");
        let mut b = crate::test_runner::TestRng::for_test("t");
        let s = 0usize..1000;
        for _ in 0..32 {
            assert_eq!(s.generate(&mut a), s.generate(&mut b));
        }
    }

    #[test]
    #[should_panic(expected = "proptest case")]
    fn failures_report_inputs() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(1))]
            #[allow(unused)]
            fn always_fails(x in 0usize..10) {
                prop_assert!(false, "forced failure");
            }
        }
        always_fails();
    }
}
