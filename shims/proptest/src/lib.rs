//! Vendored, API-compatible shim for the slice of `proptest` this
//! workspace uses: the [`proptest!`] macro with `#![proptest_config]`,
//! [`Strategy`](strategy::Strategy) with `prop_map`/`prop_flat_map`,
//! numeric-range and tuple strategies, [`collection::vec`],
//! [`collection::btree_set`], [`option::of`], [`bool::ANY`],
//! [`arbitrary::any`], and `prop_assert!`/`prop_assert_eq!`.
//!
//! The build environment has no access to crates.io. Compared to the real
//! proptest this shim drops shrinking and failure persistence: each test
//! runs `cases` deterministic random inputs (seeded per test name) and a
//! failing case panics with the normal assertion message. That preserves
//! the regression-catching power the workspace relies on while staying a
//! few hundred lines.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Runtime re-exports used by the macros; not part of the public API.
#[doc(hidden)]
pub mod __rt {
    pub use rand::rngs::StdRng;
    pub use rand::{Rng, SeedableRng};

    /// Stable per-test seed: FNV-1a over the test name.
    pub fn seed_of(name: &str) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
}

/// The core [`Strategy`](strategy::Strategy) trait and combinators.
pub mod strategy {
    use rand::rngs::StdRng;
    use rand::Rng;
    use std::ops::{Range, RangeInclusive};

    /// A recipe for generating values of `Self::Value`.
    ///
    /// Unlike real proptest there is no value tree and no shrinking: a
    /// strategy is just a deterministic sampler.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut StdRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        /// Generates a value, then generates from the strategy `f` builds
        /// out of it (dependent generation).
        fn prop_flat_map<S2, F>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            S2: Strategy,
            F: Fn(Self::Value) -> S2,
        {
            FlatMap { inner: self, f }
        }
    }

    /// Strategy returned by [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;

        fn generate(&self, rng: &mut StdRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Strategy returned by [`Strategy::prop_flat_map`].
    #[derive(Debug, Clone)]
    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S, S2, F> Strategy for FlatMap<S, F>
    where
        S: Strategy,
        S2: Strategy,
        F: Fn(S::Value) -> S2,
    {
        type Value = S2::Value;

        fn generate(&self, rng: &mut StdRng) -> S2::Value {
            let seed = self.inner.generate(rng);
            (self.f)(seed).generate(rng)
        }
    }

    /// A strategy that always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn generate(&self, _rng: &mut StdRng) -> T {
            self.0.clone()
        }
    }

    /// String literals are regex strategies, like in real proptest. The
    /// shim supports the subset the workspace uses: literal characters,
    /// character classes `[a-z0-9_]` (with ranges), and the quantifiers
    /// `{n}`, `{m,n}`, `?`, `*`, `+` (the unbounded ones cap at 8 reps).
    impl Strategy for &str {
        type Value = String;

        fn generate(&self, rng: &mut StdRng) -> String {
            let atoms = parse_regex(self);
            let mut out = String::new();
            for (chars, lo, hi) in atoms {
                let reps = if hi > lo { rng.gen_range(lo..=hi) } else { lo };
                for _ in 0..reps {
                    out.push(chars[rng.gen_range(0..chars.len())]);
                }
            }
            out
        }
    }

    /// Parses the supported regex subset into `(alternatives, min, max)`
    /// repetition units.
    fn parse_regex(pattern: &str) -> Vec<(Vec<char>, usize, usize)> {
        let chars: Vec<char> = pattern.chars().collect();
        let mut i = 0;
        let mut out: Vec<(Vec<char>, usize, usize)> = Vec::new();
        while i < chars.len() {
            let alts: Vec<char> = match chars[i] {
                '[' => {
                    let close = chars[i..]
                        .iter()
                        .position(|&c| c == ']')
                        .map(|p| i + p)
                        .unwrap_or_else(|| panic!("unclosed `[` in regex strategy `{pattern}`"));
                    let mut set = Vec::new();
                    let mut j = i + 1;
                    while j < close {
                        if j + 2 < close && chars[j + 1] == '-' {
                            let (a, b) = (chars[j], chars[j + 2]);
                            set.extend((a as u32..=b as u32).filter_map(char::from_u32));
                            j += 3;
                        } else {
                            set.push(chars[j]);
                            j += 1;
                        }
                    }
                    i = close + 1;
                    set
                }
                '\\' => {
                    i += 2;
                    vec![chars[i - 1]]
                }
                c => {
                    i += 1;
                    vec![c]
                }
            };
            let (lo, hi) = match chars.get(i) {
                Some('{') => {
                    let close = chars[i..]
                        .iter()
                        .position(|&c| c == '}')
                        .map(|p| i + p)
                        .unwrap_or_else(|| panic!("unclosed `{{` in regex strategy `{pattern}`"));
                    let body: String = chars[i + 1..close].iter().collect();
                    i = close + 1;
                    match body.split_once(',') {
                        Some((lo, hi)) => (
                            lo.trim().parse().expect("bad repetition bound"),
                            hi.trim().parse().expect("bad repetition bound"),
                        ),
                        None => {
                            let n = body.trim().parse().expect("bad repetition count");
                            (n, n)
                        }
                    }
                }
                Some('?') => {
                    i += 1;
                    (0, 1)
                }
                Some('*') => {
                    i += 1;
                    (0, 8)
                }
                Some('+') => {
                    i += 1;
                    (1, 8)
                }
                _ => (1, 1),
            };
            assert!(!alts.is_empty(), "empty character class in `{pattern}`");
            out.push((alts, lo, hi));
        }
        out
    }

    macro_rules! range_strategy {
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

    range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

    macro_rules! tuple_strategy {
        ($($S:ident . $idx:tt),+) => {
            impl<$($S: Strategy),+> Strategy for ($($S,)+) {
                type Value = ($($S::Value,)+);
                fn generate(&self, rng: &mut StdRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        };
    }

    tuple_strategy!(A.0);
    tuple_strategy!(A.0, B.1);
    tuple_strategy!(A.0, B.1, C.2);
    tuple_strategy!(A.0, B.1, C.2, D.3);
    tuple_strategy!(A.0, B.1, C.2, D.3, E.4);
    tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5);
    tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5, G.6);
    tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7);
}

/// `any::<T>()` support.
pub mod arbitrary {
    use super::strategy::Strategy;
    use rand::rngs::StdRng;
    use rand::Rng;
    use std::marker::PhantomData;

    /// Types with a canonical full-range strategy.
    pub trait Arbitrary: Sized {
        /// Draws one arbitrary value.
        fn arbitrary(rng: &mut StdRng) -> Self;
    }

    /// Strategy returned by [`any`].
    #[derive(Debug)]
    pub struct Any<T>(pub(crate) PhantomData<T>);

    impl<T> Clone for Any<T> {
        fn clone(&self) -> Self {
            *self
        }
    }

    impl<T> Copy for Any<T> {}

    /// The canonical strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;

        fn generate(&self, rng: &mut StdRng) -> T {
            T::arbitrary(rng)
        }
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut StdRng) -> bool {
            rng.gen_bool(0.5)
        }
    }

    macro_rules! int_arbitrary {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut StdRng) -> $t {
                    use rand::RngCore;
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    int_arbitrary!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut StdRng) -> f64 {
            // Finite values across a wide magnitude range; no NaN/inf,
            // matching how the workspace's tests consume `any::<f64>()`.
            rng.gen_range(-1.0e9..1.0e9)
        }
    }

    impl Arbitrary for f32 {
        fn arbitrary(rng: &mut StdRng) -> f32 {
            rng.gen_range(-1.0e9f32..1.0e9)
        }
    }
}

/// Collection strategies (`vec`, `btree_set`).
pub mod collection {
    use super::strategy::Strategy;
    use rand::rngs::StdRng;
    use rand::Rng;
    use std::collections::BTreeSet;
    use std::ops::{Range, RangeInclusive};

    /// A half-open size range for generated collections.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl SizeRange {
        fn sample(&self, rng: &mut StdRng) -> usize {
            if self.hi <= self.lo + 1 {
                self.lo
            } else {
                rng.gen_range(self.lo..self.hi)
            }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> SizeRange {
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> SizeRange {
            SizeRange {
                lo: *r.start(),
                hi: r.end() + 1,
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    /// Strategy for `Vec<S::Value>` with a length drawn from `size`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Generates vectors whose elements come from `element` and whose
    /// length is drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let len = self.size.sample(rng);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Strategy for `BTreeSet<S::Value>`.
    #[derive(Debug, Clone)]
    pub struct BTreeSetStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Generates ordered sets; duplicates are retried a bounded number of
    /// times, so very narrow element domains may yield smaller sets.
    pub fn btree_set<S>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        BTreeSetStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S> Strategy for BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;

        fn generate(&self, rng: &mut StdRng) -> BTreeSet<S::Value> {
            let target = self.size.sample(rng);
            let mut out = BTreeSet::new();
            let mut attempts = 0;
            while out.len() < target && attempts < target.saturating_mul(10) + 16 {
                out.insert(self.element.generate(rng));
                attempts += 1;
            }
            out
        }
    }
}

/// `Option` strategies.
pub mod option {
    use super::strategy::Strategy;
    use rand::rngs::StdRng;
    use rand::Rng;

    /// Strategy returned by [`of`].
    #[derive(Debug, Clone)]
    pub struct OptionStrategy<S>(S);

    /// Generates `Some` (75%) or `None` (25%), roughly matching real
    /// proptest's default weighting.
    pub fn of<S: Strategy>(element: S) -> OptionStrategy<S> {
        OptionStrategy(element)
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;

        fn generate(&self, rng: &mut StdRng) -> Option<S::Value> {
            if rng.gen_bool(0.75) {
                Some(self.0.generate(rng))
            } else {
                None
            }
        }
    }
}

/// `bool` strategies.
pub mod bool {
    use super::arbitrary::Any;
    use std::marker::PhantomData;

    /// Uniformly random booleans.
    pub const ANY: Any<core::primitive::bool> = Any(PhantomData);
}

/// Test-runner configuration.
pub mod test_runner {
    /// Runner configuration; only `cases` is honored by the shim.
    #[derive(Debug, Clone)]
    pub struct Config {
        /// Number of random cases each test executes.
        pub cases: u32,
    }

    impl Config {
        /// A config running `cases` cases per test.
        pub fn with_cases(cases: u32) -> Config {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Config {
            // The real default is 256; 64 keeps `cargo test -q` quick
            // while still exercising plenty of inputs.
            Config { cases: 64 }
        }
    }
}

/// The glob-import surface test files use.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// Defines property tests.
///
/// Mirrors real proptest's surface syntax: an optional
/// `#![proptest_config(expr)]` header followed by `fn name(pat in
/// strategy, ...) { body }` items, each carrying its own `#[test]`
/// attribute.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($config) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! {
            (<$crate::test_runner::Config as ::std::default::Default>::default())
            $($rest)*
        }
    };
}

/// Internal expansion worker for [`proptest!`]; not public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($config:expr)) => {};
    (($config:expr)
     $(#[$meta:meta])*
     fn $name:ident($($arg:pat_param in $strategy:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config: $crate::test_runner::Config = $config;
            let mut __rng = <$crate::__rt::StdRng as $crate::__rt::SeedableRng>::seed_from_u64(
                $crate::__rt::seed_of(concat!(module_path!(), "::", stringify!($name))),
            );
            let __strategy = ($($strategy,)+);
            for __case in 0..__config.cases {
                let ($($arg,)+) =
                    $crate::strategy::Strategy::generate(&__strategy, &mut __rng);
                { $body }
            }
        }
        $crate::__proptest_items! { ($config) $($rest)* }
    };
}

/// `assert!` under a proptest-flavored name (no shrinking in the shim, so
/// failures panic directly with the formatted message).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// `assert_eq!` under a proptest-flavored name.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// `assert_ne!` under a proptest-flavored name.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::strategy::Strategy;

    #[test]
    fn ranges_tuples_and_collections_generate_in_bounds() {
        let mut rng = <crate::__rt::StdRng as crate::__rt::SeedableRng>::seed_from_u64(5);
        let strat = (
            crate::collection::vec(0.5f64..2.0, 1..9),
            0u8..3,
            crate::bool::ANY,
        );
        for _ in 0..200 {
            let (v, small, _flag) = strat.generate(&mut rng);
            assert!((1..9).contains(&v.len()));
            assert!(v.iter().all(|x| (0.5..2.0).contains(x)));
            assert!(small < 3);
        }
    }

    #[test]
    fn flat_map_feeds_dependent_strategies() {
        let mut rng = <crate::__rt::StdRng as crate::__rt::SeedableRng>::seed_from_u64(6);
        let strat = (1usize..5).prop_flat_map(|n| crate::collection::vec(0..10i32, n));
        for _ in 0..100 {
            let v = strat.generate(&mut rng);
            assert!((1..5).contains(&v.len()));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn the_macro_itself_runs(x in 0usize..10, flag in any::<bool>()) {
            prop_assert!(x < 10);
            let _ = flag;
        }
    }
}
