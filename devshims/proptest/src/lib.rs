//! Offline drop-in subset of the `proptest` API.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the slice of `proptest` its property tests actually use:
//! the [`proptest!`] macro, the [`strategy::Strategy`] trait with
//! `prop_map`, [`prop_oneof!`] unions (weighted and unweighted), tuple
//! and range strategies, `any::<T>()`, `prop::sample::{select, Index}`,
//! `prop::collection::vec`, `prop::option::of`, the `prop_assert*` /
//! `prop_assume!` macros, and `ProptestConfig::with_cases`.
//!
//! Differences from the real crate are deliberate and small:
//!
//! * **No shrinking.** A failing case reports the generated inputs
//!   (every bound value is `Debug`-printed) but is not minimised.
//! * **Deterministic seeding.** Cases derive from a hash of the test
//!   name and the case index, so failures reproduce exactly on re-run.
//! * **Regex strategies** support only the `.{min,max}` form the
//!   workspace uses; anything else falls back to short random text.

pub mod test_runner {
    //! Config, error type, and the case-driving loop.

    /// Pseudo-random source for strategies: xoshiro256** seeded through
    /// SplitMix64, deterministic per (test name, case index).
    pub struct TestRng {
        s: [u64; 4],
    }

    impl TestRng {
        pub fn from_seed(seed: u64) -> TestRng {
            let mut x = seed;
            let mut next = move || {
                x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            };
            TestRng {
                s: [next(), next(), next(), next()],
            }
        }

        pub fn next_u64(&mut self) -> u64 {
            let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }

        /// Uniform draw from `[0, bound)` via multiply-shift reduction.
        pub fn below(&mut self, bound: u64) -> u64 {
            debug_assert!(bound > 0);
            ((self.next_u64() as u128 * bound as u128) >> 64) as u64
        }

        /// Uniform draw from `[0, 1)` using 53 bits.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }

    /// Subset of `proptest::test_runner::Config`; re-exported from the
    /// prelude under its familiar name `ProptestConfig`.
    #[derive(Debug, Clone)]
    pub struct Config {
        /// Number of successful cases required for the test to pass.
        pub cases: u32,
    }

    impl Default for Config {
        fn default() -> Config {
            Config { cases: 256 }
        }
    }

    impl Config {
        pub fn with_cases(cases: u32) -> Config {
            Config { cases }
        }
    }

    /// A single case's verdict when it does not simply succeed.
    #[derive(Debug, Clone)]
    pub enum TestCaseError {
        /// The property failed; the harness panics with this message.
        Fail(String),
        /// The inputs were rejected (`prop_assume!`); the case is retried
        /// with fresh inputs and does not count toward `cases`.
        Reject(String),
    }

    impl TestCaseError {
        pub fn fail(reason: impl Into<String>) -> TestCaseError {
            TestCaseError::Fail(reason.into())
        }

        pub fn reject(reason: impl Into<String>) -> TestCaseError {
            TestCaseError::Reject(reason.into())
        }

        /// Attach the generated inputs to a failure message.
        pub fn annotate(self, inputs: &[String]) -> TestCaseError {
            match self {
                TestCaseError::Fail(msg) => {
                    TestCaseError::Fail(format!("{msg}\n  inputs:\n    {}", inputs.join("\n    ")))
                }
                reject => reject,
            }
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                TestCaseError::Fail(msg) => write!(f, "test case failed: {msg}"),
                TestCaseError::Reject(msg) => write!(f, "test case rejected: {msg}"),
            }
        }
    }

    fn fnv1a(text: &str) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for byte in text.bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    }

    /// Drive `case` until `config.cases` successes, panicking on the
    /// first failure. Rejections are retried with fresh inputs, with a
    /// cap so a degenerate `prop_assume!` cannot spin forever.
    pub fn run_cases<F>(config: &Config, name: &str, mut case: F)
    where
        F: FnMut(&mut TestRng) -> Result<(), TestCaseError>,
    {
        let name_seed = fnv1a(name);
        let max_rejects = u64::from(config.cases) * 64 + 1024;
        let mut rejects = 0u64;
        let mut passed = 0u32;
        let mut iteration = 0u64;
        while passed < config.cases {
            let seed = name_seed ^ iteration.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let mut rng = TestRng::from_seed(seed);
            iteration += 1;
            match case(&mut rng) {
                Ok(()) => passed += 1,
                Err(TestCaseError::Reject(_)) => {
                    rejects += 1;
                    assert!(
                        rejects <= max_rejects,
                        "proptest '{name}': too many rejected cases ({rejects})"
                    );
                }
                Err(err @ TestCaseError::Fail(_)) => {
                    panic!("proptest '{name}' (case {passed}, iteration {iteration}): {err}")
                }
            }
        }
    }
}

pub mod strategy {
    //! The `Strategy` trait and generic combinators.

    use super::test_runner::TestRng;
    use std::fmt;
    use std::ops::Range;
    use std::rc::Rc;

    /// A recipe for generating values of `Self::Value`.
    ///
    /// Unlike the real crate there is no value tree or shrinking: a
    /// strategy is just a deterministic function of the RNG stream.
    pub trait Strategy {
        type Value: fmt::Debug;

        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        fn prop_map<T, F>(self, map: F) -> Map<Self, F>
        where
            Self: Sized,
            T: fmt::Debug,
            F: Fn(Self::Value) -> T,
        {
            Map { source: self, map }
        }
    }

    /// Always produces a clone of the given value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone + fmt::Debug>(pub T);

    impl<T: Clone + fmt::Debug> Strategy for Just<T> {
        type Value = T;

        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// The result of [`Strategy::prop_map`].
    pub struct Map<S, F> {
        source: S,
        map: F,
    }

    impl<S: Clone, F: Clone> Clone for Map<S, F> {
        fn clone(&self) -> Self {
            Map {
                source: self.source.clone(),
                map: self.map.clone(),
            }
        }
    }

    impl<S, T, F> Strategy for Map<S, F>
    where
        S: Strategy,
        T: fmt::Debug,
        F: Fn(S::Value) -> T,
    {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            (self.map)(self.source.generate(rng))
        }
    }

    /// Object-safe view of a strategy, for heterogeneous unions.
    pub trait DynStrategy<V> {
        fn generate_dyn(&self, rng: &mut TestRng) -> V;
    }

    impl<S: Strategy> DynStrategy<S::Value> for S {
        fn generate_dyn(&self, rng: &mut TestRng) -> S::Value {
            self.generate(rng)
        }
    }

    /// Weighted choice between strategies ([`prop_oneof!`](crate::prop_oneof)).
    pub struct Union<V> {
        arms: Vec<(u32, Rc<dyn DynStrategy<V>>)>,
    }

    impl<V> Clone for Union<V> {
        fn clone(&self) -> Self {
            Union {
                arms: self.arms.clone(),
            }
        }
    }

    impl<V> Union<V> {
        pub fn new(arms: Vec<(u32, Rc<dyn DynStrategy<V>>)>) -> Union<V> {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            assert!(
                arms.iter().any(|(weight, _)| *weight > 0),
                "prop_oneof! needs a positive total weight"
            );
            Union { arms }
        }

        pub fn arm<S>(strategy: S) -> Rc<dyn DynStrategy<V>>
        where
            S: Strategy<Value = V> + 'static,
        {
            Rc::new(strategy)
        }
    }

    impl<V: fmt::Debug> Strategy for Union<V> {
        type Value = V;

        fn generate(&self, rng: &mut TestRng) -> V {
            let total: u64 = self.arms.iter().map(|(w, _)| u64::from(*w)).sum();
            let mut pick = rng.below(total);
            for (weight, strategy) in &self.arms {
                let weight = u64::from(*weight);
                if pick < weight {
                    return strategy.generate_dyn(rng);
                }
                pick -= weight;
            }
            unreachable!("weighted pick out of range")
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    let draw = ((rng.next_u64() as u128 * span) >> 64) as i128;
                    (self.start as i128 + draw) as $t
                }
            }
        )*};
    }

    int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for Range<f64> {
        type Value = f64;

        fn generate(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty range strategy");
            self.start + rng.unit_f64() * (self.end - self.start)
        }
    }

    macro_rules! tuple_strategy {
        ($(($($T:ident . $idx:tt),+))+) => {$(
            impl<$($T: Strategy),+> Strategy for ($($T,)+) {
                type Value = ($($T::Value,)+);

                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )+};
    }

    tuple_strategy! {
        (A.0, B.1)
        (A.0, B.1, C.2)
        (A.0, B.1, C.2, D.3)
        (A.0, B.1, C.2, D.3, E.4)
        (A.0, B.1, C.2, D.3, E.4, F.5)
        (A.0, B.1, C.2, D.3, E.4, F.5, G.6)
        (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7)
        (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7, I.8)
        (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7, I.8, J.9)
        (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7, I.8, J.9, K.10)
        (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7, I.8, J.9, K.10, L.11)
    }

    /// `&'static str` patterns act as regex strategies in the real
    /// crate. This shim understands the one shape the workspace uses —
    /// `.{min,max}` (that many non-newline chars) — and falls back to
    /// short random text for anything else.
    impl Strategy for &'static str {
        type Value = String;

        fn generate(&self, rng: &mut TestRng) -> String {
            let (min, max) = parse_dot_repeat(self).unwrap_or((0, 16));
            let len = min + rng.below((max - min + 1) as u64) as usize;
            (0..len).map(|_| random_char(rng, false)).collect()
        }
    }

    fn parse_dot_repeat(pattern: &str) -> Option<(usize, usize)> {
        let body = pattern.strip_prefix(".{")?.strip_suffix('}')?;
        let (min, max) = body.split_once(',')?;
        let (min, max) = (min.trim().parse().ok()?, max.trim().parse().ok()?);
        (min <= max).then_some((min, max))
    }

    /// Random `char`, biased toward ASCII so generated text exercises
    /// parsers rather than mostly tripping on exotic code points.
    pub(crate) fn random_char(rng: &mut TestRng, allow_newline: bool) -> char {
        loop {
            let c = match rng.below(10) {
                0..=5 => rng.below(0x5f) as u32 + 0x20, // printable ASCII
                6 => match rng.below(4) {
                    0 if allow_newline => return '\n',
                    1 => return '\t',
                    _ => rng.below(0x20) as u32, // control chars
                },
                _ => rng.below(0x11_0000) as u32,
            };
            match char::from_u32(c) {
                Some('\n') if !allow_newline => continue,
                Some(ch) => return ch,
                None => continue,
            }
        }
    }
}

pub mod arbitrary {
    //! `any::<T>()` and the `Arbitrary` trait behind it.

    use super::strategy::{random_char, Strategy};
    use super::test_runner::TestRng;
    use std::fmt;
    use std::marker::PhantomData;

    pub trait Arbitrary: fmt::Debug + Sized {
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    pub struct Any<T>(PhantomData<T>);

    impl<T> Clone for Any<T> {
        fn clone(&self) -> Self {
            Any(PhantomData)
        }
    }

    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
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

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> f64 {
            rng.unit_f64()
        }
    }

    impl Arbitrary for char {
        fn arbitrary(rng: &mut TestRng) -> char {
            random_char(rng, true)
        }
    }
}

pub mod sample {
    //! Uniform selection from explicit value lists, and random indices.

    use super::arbitrary::Arbitrary;
    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use std::fmt;

    /// Uniform choice from a fixed list (`prop::sample::select`).
    #[derive(Debug, Clone)]
    pub struct Select<T: Clone + fmt::Debug>(Vec<T>);

    pub fn select<T: Clone + fmt::Debug>(items: Vec<T>) -> Select<T> {
        assert!(!items.is_empty(), "select requires a non-empty list");
        Select(items)
    }

    impl<T: Clone + fmt::Debug> Strategy for Select<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            self.0[rng.below(self.0.len() as u64) as usize].clone()
        }
    }

    /// A position into a collection whose length is only known at use
    /// time; `index(len)` maps it uniformly into `[0, len)`.
    #[derive(Debug, Clone, Copy)]
    pub struct Index(u64);

    impl Index {
        pub fn index(&self, len: usize) -> usize {
            assert!(len > 0, "Index::index on an empty collection");
            ((self.0 as u128 * len as u128) >> 64) as usize
        }
    }

    impl Arbitrary for Index {
        fn arbitrary(rng: &mut TestRng) -> Index {
            Index(rng.next_u64())
        }
    }
}

pub mod collection {
    //! `prop::collection::vec`.

    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use std::ops::Range;

    /// Acceptable size arguments for [`vec()`]: an exact length or a
    /// half-open range.
    pub trait IntoSizeRange {
        /// Inclusive minimum and maximum lengths.
        fn bounds(self) -> (usize, usize);
    }

    impl IntoSizeRange for usize {
        fn bounds(self) -> (usize, usize) {
            (self, self)
        }
    }

    impl IntoSizeRange for Range<usize> {
        fn bounds(self) -> (usize, usize) {
            assert!(self.start < self.end, "empty vec size range");
            (self.start, self.end - 1)
        }
    }

    pub struct VecStrategy<S> {
        element: S,
        min: usize,
        max: usize,
    }

    impl<S: Clone> Clone for VecStrategy<S> {
        fn clone(&self) -> Self {
            VecStrategy {
                element: self.element.clone(),
                min: self.min,
                max: self.max,
            }
        }
    }

    pub fn vec<S: Strategy>(element: S, size: impl IntoSizeRange) -> VecStrategy<S> {
        let (min, max) = size.bounds();
        VecStrategy { element, min, max }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.min + rng.below((self.max - self.min + 1) as u64) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod option {
    //! `prop::option::of`.

    use super::strategy::Strategy;
    use super::test_runner::TestRng;

    pub struct OptionStrategy<S>(S);

    impl<S: Clone> Clone for OptionStrategy<S> {
        fn clone(&self) -> Self {
            OptionStrategy(self.0.clone())
        }
    }

    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy(inner)
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            (rng.next_u64() & 1 == 1).then(|| self.0.generate(rng))
        }
    }
}

pub mod prelude {
    //! The glob-import surface: `use proptest::prelude::*`.

    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{Config as ProptestConfig, TestCaseError};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };

    /// The real prelude exposes the crate itself as `prop`, enabling
    /// paths like `prop::sample::select` and `prop::collection::vec`.
    pub use crate as prop;
}

/// Define property tests. Each `fn name(pat in strategy, ...) { body }`
/// expands to a `#[test]` running `cases` generated inputs; the body may
/// use `prop_assert*` / `prop_assume!` or plain `assert!`/panics (inputs
/// are echoed either way on failure).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_items!($config; $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items!($crate::test_runner::Config::default(); $($rest)*);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    ($config:expr;) => {};
    ($config:expr;
     $(#[$meta:meta])*
     fn $name:ident($($pat:pat in $strategy:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config = $config;
            $crate::test_runner::run_cases(&__config, stringify!($name), |__rng| {
                let mut __inputs: ::std::vec::Vec<::std::string::String> = ::std::vec::Vec::new();
                $(
                    let __value = $crate::strategy::Strategy::generate(&($strategy), __rng);
                    __inputs.push(::std::format!("{} = {:?}", stringify!($pat), __value));
                    let $pat = __value;
                )+
                let __case = ::std::panic::AssertUnwindSafe(
                    move || -> ::std::result::Result<(), $crate::test_runner::TestCaseError> {
                        $body
                        ::std::result::Result::Ok(())
                    },
                );
                match ::std::panic::catch_unwind(__case) {
                    ::std::result::Result::Ok(outcome) => {
                        outcome.map_err(|error| error.annotate(&__inputs))
                    }
                    ::std::result::Result::Err(payload) => {
                        ::std::eprintln!(
                            "proptest case inputs:\n    {}",
                            __inputs.join("\n    ")
                        );
                        ::std::panic::resume_unwind(payload)
                    }
                }
            });
        }
        $crate::__proptest_items!($config; $($rest)*);
    };
}

/// Weighted (`weight => strategy`) or unweighted choice between arms.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new(::std::vec![
            $(($weight as u32, $crate::strategy::Union::arm($strategy))),+
        ])
    };
    ($($strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new(::std::vec![
            $((1u32, $crate::strategy::Union::arm($strategy))),+
        ])
    };
}

/// Fail the current case (without panicking) if the condition is false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                ::std::format!($($fmt)+),
            ));
        }
    };
}

/// Fail the current case if the two expressions are unequal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__left, __right) = (&$left, &$right);
        $crate::prop_assert!(
            __left == __right,
            "assertion failed: `{:?}` == `{:?}`",
            __left,
            __right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__left, __right) = (&$left, &$right);
        $crate::prop_assert!(
            __left == __right,
            "assertion failed: `{:?}` == `{:?}`: {}",
            __left,
            __right,
            ::std::format!($($fmt)+)
        );
    }};
}

/// Fail the current case if the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (__left, __right) = (&$left, &$right);
        $crate::prop_assert!(
            __left != __right,
            "assertion failed: `{:?}` != `{:?}`",
            __left,
            __right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__left, __right) = (&$left, &$right);
        $crate::prop_assert!(
            __left != __right,
            "assertion failed: `{:?}` != `{:?}`: {}",
            __left,
            __right,
            ::std::format!($($fmt)+)
        );
    }};
}

/// Discard the current case (retry with fresh inputs) if the condition
/// does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::reject(
                stringify!($cond),
            ));
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = crate::test_runner::TestRng::from_seed(1);
        for _ in 0..1000 {
            let v = Strategy::generate(&(3u8..9), &mut rng);
            assert!((3..9).contains(&v));
            let i = Strategy::generate(&(-5i64..5), &mut rng);
            assert!((-5..5).contains(&i));
            let f = Strategy::generate(&(0.25f64..0.75), &mut rng);
            assert!((0.25..0.75).contains(&f));
        }
    }

    #[test]
    fn vec_sizes_honour_exact_and_ranged_bounds() {
        let mut rng = crate::test_runner::TestRng::from_seed(2);
        for _ in 0..200 {
            let exact = Strategy::generate(&prop::collection::vec(any::<u8>(), 8), &mut rng);
            assert_eq!(exact.len(), 8);
            let ranged = Strategy::generate(&prop::collection::vec(any::<u8>(), 1..4), &mut rng);
            assert!((1..4).contains(&ranged.len()));
        }
    }

    #[test]
    fn oneof_respects_zero_weight_arms() {
        let mut rng = crate::test_runner::TestRng::from_seed(3);
        let strategy = prop_oneof![
            1 => Just(1u32),
            0 => Just(2u32),
        ];
        for _ in 0..100 {
            assert_eq!(Strategy::generate(&strategy, &mut rng), 1);
        }
    }

    #[test]
    fn regex_like_strings_honour_length() {
        let mut rng = crate::test_runner::TestRng::from_seed(4);
        for _ in 0..200 {
            let s = Strategy::generate(&".{0,20}", &mut rng);
            assert!(s.chars().count() <= 20);
            assert!(!s.contains('\n'));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn the_macro_binds_multiple_inputs(
            a in 0u32..10,
            items in prop::collection::vec(any::<bool>(), 0..5),
            choice in prop::sample::select(vec!["x", "y"]),
        ) {
            prop_assert!(a < 10);
            prop_assert!(items.len() < 5);
            prop_assert_ne!(choice, "z");
        }

        #[test]
        fn assume_rejects_without_failing(v in 0u32..100) {
            prop_assume!(v % 2 == 0);
            prop_assert_eq!(v % 2, 0, "v was {}", v);
        }
    }
}
