//! Shim exposing the `proptest` API surface used by this workspace.
//!
//! Semantics relative to upstream:
//!
//! * case generation is **deterministic**: the per-test seed is derived
//!   from the test's name (override with `PROPTEST_SEED`), so failures
//!   reproduce without a persistence file;
//! * a failure — a failed `prop_assert*!` or a panic in the body — names
//!   the case, the attempt and the runner's seed, so `PROPTEST_SEED=<seed>
//!   cargo test <name>` replays the failing run;
//! * there is **no shrinking** — a failing case reports its inputs via the
//!   assertion message only;
//! * `prop_assume!` rejects the current case; rejected cases are retried
//!   with fresh draws, up to 10× the configured case count.

use std::fmt;
use std::ops::{Range, RangeInclusive};

pub mod collection;
pub mod sample;
mod tuples;

/// The error type a generated property body returns.
#[derive(Debug)]
pub enum TestCaseError {
    /// The case does not satisfy a `prop_assume!` precondition.
    Reject,
    /// A `prop_assert*!` failed.
    Fail(String),
}

/// Runner configuration. Only `cases` is honoured.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of accepted cases to run per property.
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

/// Deterministic 64-bit generator driving all strategies.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    fn new(seed: u64) -> Self {
        // splitmix64 scramble so nearby seeds decorrelate.
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        TestRng {
            state: (z ^ (z >> 31)) | 1,
        }
    }

    /// The next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform draw in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "cannot draw below 0");
        self.next_u64() % n
    }

    /// Uniform draw in `[0, 1)` with 53 bits.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A value generator. Unlike upstream there is no shrinking, so a strategy
/// is just a function from a [`TestRng`] to a value.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    /// Generates an intermediate value and runs a dependent strategy built
    /// from it.
    fn prop_flat_map<U, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        U: Strategy,
        F: Fn(Self::Value) -> U,
    {
        FlatMap { inner: self, f }
    }

    /// Type-erases the strategy.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// A type-erased strategy.
pub type BoxedStrategy<V> = Box<dyn Strategy<Value = V>>;

impl<V> Strategy for Box<dyn Strategy<Value = V>> {
    type Value = V;

    fn generate(&self, rng: &mut TestRng) -> V {
        (**self).generate(rng)
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;

    fn generate(&self, rng: &mut TestRng) -> S::Value {
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

    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
#[derive(Debug, Clone)]
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U: Strategy, F: Fn(S::Value) -> U> Strategy for FlatMap<S, F> {
    type Value = U::Value;

    fn generate(&self, rng: &mut TestRng) -> U::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// A strategy producing clones of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Uniform choice between boxed alternatives — the engine behind
/// [`prop_oneof!`].
pub struct Union<V> {
    options: Vec<BoxedStrategy<V>>,
}

impl<V> Union<V> {
    /// Builds from a non-empty list of alternatives.
    pub fn new(options: Vec<BoxedStrategy<V>>) -> Self {
        assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
        Union { options }
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;

    fn generate(&self, rng: &mut TestRng) -> V {
        let ix = rng.below(self.options.len() as u64) as usize;
        self.options[ix].generate(rng)
    }
}

macro_rules! impl_int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u128;
                let off = (rng.next_u64() as u128) % span;
                (self.start as i128 + off as i128) as $t
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start() <= self.end(), "empty range strategy");
                let span = (*self.end() as i128 - *self.start() as i128 + 1) as u128;
                let off = (rng.next_u64() as u128) % span;
                (*self.start() as i128 + off as i128) as $t
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
                self.start + (rng.unit_f64() as $t) * (self.end - self.start)
            }
        }
    )*};
}

impl_float_range_strategy!(f32, f64);

/// Marker for types with a canonical [`any`] strategy.
pub trait Arbitrary: Sized {
    /// Draws one arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! impl_int_arbitrary {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_int_arbitrary!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// See [`any`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The canonical strategy for `T` (`any::<bool>()` and friends).
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

/// Drives one property: draws cases, skips rejections, panics on failure.
pub struct TestRunner {
    config: ProptestConfig,
    rng: TestRng,
    seed: u64,
    name: &'static str,
}

impl TestRunner {
    /// Builds a runner whose seed derives from the test name, or from
    /// `PROPTEST_SEED` when set.
    pub fn new(config: ProptestConfig, name: &'static str) -> Self {
        let seed = match std::env::var("PROPTEST_SEED") {
            Ok(s) => s
                .parse::<u64>()
                .expect("PROPTEST_SEED must be an unsigned integer"),
            Err(_) => name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ b as u64).wrapping_mul(0x1000_0000_01b3)
            }),
        };
        TestRunner {
            config,
            rng: TestRng::new(seed),
            seed,
            name,
        }
    }

    /// Runs the property until `cases` accepted cases pass. Panics on the
    /// first failure — a failed assertion or a panic in the body —
    /// reporting the case index and the seed that replays it.
    pub fn run<F>(&mut self, mut case: F)
    where
        F: FnMut(&mut TestRng) -> Result<(), TestCaseError>,
    {
        let mut accepted = 0u32;
        let mut attempts = 0u64;
        let max_attempts = (self.config.cases as u64).saturating_mul(10).max(100);
        while accepted < self.config.cases {
            attempts += 1;
            assert!(
                attempts <= max_attempts,
                "{}: too many rejected cases ({} accepted of {} wanted)",
                self.name,
                accepted,
                self.config.cases
            );
            let failed = || {
                format!(
                    "{} failed at case {} (attempt {}, seed {})",
                    self.name, accepted, attempts, self.seed
                )
            };
            let outcome =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| case(&mut self.rng)));
            match outcome {
                Ok(Ok(())) => accepted += 1,
                Ok(Err(TestCaseError::Reject)) => continue,
                Ok(Err(TestCaseError::Fail(msg))) => panic!("{}: {}", failed(), msg),
                Err(panic) => {
                    eprintln!("{}: the body panicked", failed());
                    std::panic::resume_unwind(panic)
                }
            }
        }
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TestCaseError::Reject => write!(f, "case rejected by prop_assume!"),
            TestCaseError::Fail(msg) => write!(f, "{msg}"),
        }
    }
}

/// Everything a property-test module needs.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        Arbitrary, BoxedStrategy, Just, ProptestConfig, Strategy, TestCaseError, TestRng,
    };

    /// Mirror of upstream's `prelude::prop` module path
    /// (`prop::collection::vec`, `prop::sample::select`).
    pub mod prop {
        pub use crate::collection;
        pub use crate::sample;
    }
}

/// Defines property tests: each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` running the body over generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_cases! { $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_cases! { $crate::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_cases {
    ($cfg:expr; $( $(#[$meta:meta])* fn $name:ident ( $($pat:pat in $strat:expr),+ $(,)? ) $body:block )* ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let mut runner = $crate::TestRunner::new(config, stringify!($name));
                runner.run(|__proptest_rng| {
                    $(let $pat = $crate::Strategy::generate(&($strat), __proptest_rng);)+
                    $body
                    Ok(())
                });
            }
        )*
    };
}

/// Asserts inside a property body; failure fails the case (not the
/// process) with the formatted message.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!($($fmt)*)));
        }
    };
}

/// Equality assertion inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, "assertion failed: {:?} == {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, $($fmt)*);
    }};
}

/// Inequality assertion inside a property body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l != r, "assertion failed: {:?} != {:?}", l, r);
    }};
}

/// Rejects the current case unless `cond` holds; rejected cases are
/// redrawn.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::Reject);
        }
    };
}

/// Uniform choice among strategies with a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($strat)),+])
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn deterministic_per_name() {
        let mut a = crate::TestRunner::new(ProptestConfig::with_cases(5), "x");
        let mut b = crate::TestRunner::new(ProptestConfig::with_cases(5), "x");
        let mut va = vec![];
        let mut vb = vec![];
        a.run(|rng| {
            va.push(rng.next_u64());
            Ok(())
        });
        b.run(|rng| {
            vb.push(rng.next_u64());
            Ok(())
        });
        assert_eq!(va, vb);
    }

    #[test]
    fn a_failure_names_the_seed_that_replays_it() {
        let mut runner = crate::TestRunner::new(ProptestConfig::with_cases(5), "x");
        let seed = runner.seed;
        let mut case = 0;
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            runner.run(|_| {
                case += 1;
                match case {
                    2 => Err(TestCaseError::Reject),
                    4 => Err(TestCaseError::Fail("boom".into())),
                    _ => Ok(()),
                }
            })
        }))
        .unwrap_err();
        assert_eq!(
            panic.downcast_ref::<String>().unwrap(),
            &format!("x failed at case 2 (attempt 4, seed {seed}): boom")
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn ranges_and_tuples((a, b) in (0usize..10, -1.0f64..1.0), c in 1u32..=4) {
            prop_assert!(a < 10);
            prop_assert!((-1.0..1.0).contains(&b));
            prop_assert!((1..=4).contains(&c));
        }

        #[test]
        fn collections(v in prop::collection::vec(0usize..5, 2..6),
                       m in prop::collection::btree_map(0usize..20, 0.0f64..1.0, 0..8)) {
            prop_assert!(v.len() >= 2 && v.len() < 6);
            prop_assert!(m.len() < 8);
            prop_assert!(v.iter().all(|&x| x < 5));
        }

        #[test]
        fn oneof_and_maps(x in prop_oneof![Just(1usize), (10usize..12).prop_map(|v| v)],
                          flag in any::<bool>()) {
            prop_assert!(x == 1 || (10..12).contains(&x));
            let _ = flag;
        }

        #[test]
        fn flat_map_dependent(v in (1usize..4).prop_flat_map(|n| prop::collection::vec(0usize..9, n..n + 1))) {
            prop_assert!(!v.is_empty() && v.len() < 4);
        }

        #[test]
        fn assume_rejects(x in 0usize..10) {
            prop_assume!(x != 3);
            prop_assert_ne!(x, 3);
        }
    }
}
