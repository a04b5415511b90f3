//! Offline drop-in subset of the `proptest` API.
//!
//! The build environment has no registry access, so this workspace vendors
//! the slice of `proptest` its test suites use: the [`proptest!`] macro over
//! named strategies (`arg in strategy`), range strategies over integers and
//! floats, [`any`], [`prop_assert!`]/[`prop_assert_eq!`], and
//! [`ProptestConfig::with_cases`].
//!
//! Differences from upstream: cases are sampled from a generator seeded
//! deterministically from the test name (fully reproducible runs), and
//! failing cases are reported but **not shrunk**.

#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::{Rng, SampleRange, SampleUniform, SeedableRng};
use std::fmt;
use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

/// Runner configuration (subset: number of cases per property).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run per property.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

impl ProptestConfig {
    /// A configuration running `cases` cases per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// A failed property case.
#[derive(Debug, Clone)]
pub struct TestCaseError {
    message: String,
}

impl TestCaseError {
    /// Creates a failure with the given message.
    pub fn fail(message: impl Into<String>) -> Self {
        TestCaseError {
            message: message.into(),
        }
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

/// A source of random values of an associated type.
pub trait Strategy {
    /// The type of value this strategy produces.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut StdRng) -> Self::Value;
}

impl<T: SampleUniform> Strategy for Range<T> {
    type Value = T;

    fn sample(&self, rng: &mut StdRng) -> T {
        self.clone().sample_single(rng)
    }
}

impl<T: SampleUniform> Strategy for RangeInclusive<T> {
    type Value = T;

    fn sample(&self, rng: &mut StdRng) -> T {
        self.clone().sample_single(rng)
    }
}

/// Types with a canonical full-domain strategy (see [`any`]).
pub trait Arbitrary: Sized {
    /// Draws an arbitrary value.
    fn arbitrary(rng: &mut StdRng) -> Self;
}

macro_rules! arbitrary_via_standard {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut StdRng) -> Self {
                rng.gen()
            }
        }
    )*};
}

// Floats are deliberately omitted: upstream `any::<f64>()` covers the full
// domain (negatives, infinities, NaN) while the shim's Standard
// distribution samples only [0, 1) — a silent narrowing that could make
// properties pass vacuously. Use explicit range strategies for floats.
arbitrary_via_standard!(u32, u64, usize, bool);

/// The full-domain strategy for `T` (`any::<u64>()` etc.).
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

/// Strategy returned by [`any`].
#[derive(Debug, Clone, Copy)]
pub struct Any<T>(PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn sample(&self, rng: &mut StdRng) -> T {
        T::arbitrary(rng)
    }
}

/// Samples one value from either a [`Strategy`] or an [`Any`] — the macro
/// funnels every `arg in strat` binding through this.
pub fn sample_from<S: SampleSource>(strat: &S, rng: &mut StdRng) -> S::Value {
    strat.draw(rng)
}

/// Unifies range strategies and [`any`] under one sampling entry point.
pub trait SampleSource {
    /// The produced value type.
    type Value;

    /// Draws one value.
    fn draw(&self, rng: &mut StdRng) -> Self::Value;
}

impl<T: SampleUniform> SampleSource for Range<T> {
    type Value = T;

    fn draw(&self, rng: &mut StdRng) -> T {
        self.clone().sample_single(rng)
    }
}

impl<T: SampleUniform> SampleSource for RangeInclusive<T> {
    type Value = T;

    fn draw(&self, rng: &mut StdRng) -> T {
        self.clone().sample_single(rng)
    }
}

impl<T: Arbitrary> SampleSource for Any<T> {
    type Value = T;

    fn draw(&self, rng: &mut StdRng) -> T {
        T::arbitrary(rng)
    }
}

macro_rules! sample_source_for_tuple {
    ($($s:ident : $idx:tt),+) => {
        impl<$($s: SampleSource),+> SampleSource for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn draw(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$idx.draw(rng),)+)
            }
        }
    };
}

sample_source_for_tuple!(S0: 0);
sample_source_for_tuple!(S0: 0, S1: 1);
sample_source_for_tuple!(S0: 0, S1: 1, S2: 2);
sample_source_for_tuple!(S0: 0, S1: 1, S2: 2, S3: 3);
sample_source_for_tuple!(S0: 0, S1: 1, S2: 2, S3: 3, S4: 4);
sample_source_for_tuple!(S0: 0, S1: 1, S2: 2, S3: 3, S4: 4, S5: 5);

/// Collection strategies (subset: `prop::collection::vec`).
pub mod collection {
    use super::{SampleSource, StdRng};
    use rand::Rng;
    use std::ops::{Range, RangeInclusive};

    /// Element-count specification accepted by [`vec()`].
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi_inclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange {
                lo: n,
                hi_inclusive: n,
            }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi_inclusive: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            let (lo, hi) = r.into_inner();
            assert!(lo <= hi, "empty size range");
            SizeRange {
                lo,
                hi_inclusive: hi,
            }
        }
    }

    /// Strategy producing vectors of `element` with a length in `size`.
    pub fn vec<S: SampleSource>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// Strategy returned by [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: SampleSource> SampleSource for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn draw(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let n = rng.gen_range(self.size.lo..=self.size.hi_inclusive);
            (0..n).map(|_| self.element.draw(rng)).collect()
        }
    }
}

/// Deterministic per-property generator (FNV-1a of the test path).
pub fn rng_for(test_name: &str) -> StdRng {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    StdRng::seed_from_u64(h)
}

/// Declares property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running `body` over sampled inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@expand ($cfg) $($rest)*);
    };
    (@expand ($cfg:expr) $(
        $(#[$meta:meta])*
        fn $name:ident( $($arg:ident in $strat:expr),* $(,)? ) $body:block
    )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config: $crate::ProptestConfig = $cfg;
                let mut __rng = $crate::rng_for(concat!(module_path!(), "::", stringify!($name)));
                for __case in 0..__config.cases {
                    $(let $arg = $crate::sample_from(&($strat), &mut __rng);)*
                    let __result: ::std::result::Result<(), $crate::TestCaseError> = (|| {
                        $body
                        #[allow(unreachable_code)]
                        ::std::result::Result::Ok(())
                    })();
                    if let ::std::result::Result::Err(e) = __result {
                        panic!(
                            "property {} failed at case {}: {}",
                            stringify!($name),
                            __case,
                            e
                        );
                    }
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@expand ($crate::ProptestConfig::default()) $($rest)*);
    };
}

/// Fails the enclosing property case when `cond` is false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)));
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// Fails the enclosing property case when `left != right`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l == r,
            "assertion failed: `{:?}` == `{:?}`",
            l,
            r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    }};
}

/// One-stop imports mirroring `proptest::prelude::*` (including the `prop`
/// module alias used for `prop::collection::vec`).
pub mod prelude {
    pub use crate as prop;
    pub use crate::{
        any, prop_assert, prop_assert_eq, proptest, Any, ProptestConfig, Strategy, TestCaseError,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Sampled values stay inside their strategy's range.
        #[test]
        fn ranges_are_respected(
            a in 1usize..16,
            b in 1usize..=256,
            x in 0.01f64..1.0,
            s in any::<u64>(),
        ) {
            prop_assert!((1..16).contains(&a));
            prop_assert!((1..=256).contains(&b));
            prop_assert!((0.01..1.0).contains(&x));
            prop_assert_eq!(s, s);
        }
    }

    proptest! {
        /// Default config also expands.
        #[test]
        fn default_config_expands(v in 0u64..10) {
            prop_assert!(v < 10);
        }
    }

    #[test]
    #[should_panic(expected = "property")]
    fn failing_property_panics() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4))]
            #[allow(unused)]
            fn inner(v in 0usize..4) {
                prop_assert!(v > 100, "v was {}", v);
            }
        }
        inner();
    }

    #[test]
    fn rng_for_is_deterministic() {
        use rand::Rng;
        let mut a = crate::rng_for("x");
        let mut b = crate::rng_for("x");
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
    }
}
