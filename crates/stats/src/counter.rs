//! Event counters and ratios.

use std::fmt;
use std::ops::AddAssign;

/// `(field name, value)` for the listed [`Counter`] fields of a stats
/// struct. The struct is destructured without `..`: every field must be
/// named, either as a counter or after `not`, so a new field fails to
/// compile until its owner decides which list it belongs in.
#[macro_export]
macro_rules! named_counters {
    ($stats:expr, $ty:ident { $($counter:ident),* $(,)? } not { $($other:ident),* $(,)? }) => {{
        let $ty { $($counter,)* $($other: _,)* } = $stats;
        vec![$((stringify!($counter), $counter.get())),*]
    }};
}

/// A saturating event counter.
///
/// Counters are the basic unit of simulator bookkeeping: cycles, accesses,
/// hits, stalls. They saturate rather than wrap so a pathological run can
/// never produce a silently-wrapped statistic.
///
/// ```
/// use cpe_stats::Counter;
///
/// let mut hits = Counter::new();
/// hits.add(3);
/// hits.inc();
/// assert_eq!(hits.get(), 4);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Counter(u64);

impl Counter {
    /// A zeroed counter.
    pub const fn new() -> Counter {
        Counter(0)
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&mut self) {
        self.add(1);
    }

    /// Increment by `n`, saturating at `u64::MAX`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 = self.0.saturating_add(n);
    }

    /// Current count.
    #[inline]
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Current count as `f64` (for rate computations).
    #[inline]
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// Raise the count to `value` if it is larger (a running maximum,
    /// e.g. the longest observed commit gap).
    #[inline]
    pub fn record_max(&mut self, value: u64) {
        self.0 = self.0.max(value);
    }

    /// This counter as a fraction of `denominator`.
    pub fn ratio(self, denominator: Counter) -> Ratio {
        Ratio {
            numerator: self.0,
            denominator: denominator.0,
        }
    }
}

impl From<u64> for Counter {
    fn from(v: u64) -> Counter {
        Counter(v)
    }
}

impl AddAssign<u64> for Counter {
    fn add_assign(&mut self, rhs: u64) {
        self.add(rhs);
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

/// A numerator/denominator pair that formats as a fraction or percentage and
/// never divides by zero.
///
/// ```
/// use cpe_stats::{Counter, Ratio};
///
/// let hits = Counter::from(90);
/// let accesses = Counter::from(100);
/// let r: Ratio = hits.ratio(accesses);
/// assert_eq!(r.value(), 0.9);
/// assert_eq!(r.percent(), 90.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Ratio {
    /// Event count.
    pub numerator: u64,
    /// Opportunity count.
    pub denominator: u64,
}

impl Ratio {
    /// Construct from raw counts.
    pub const fn new(numerator: u64, denominator: u64) -> Ratio {
        Ratio {
            numerator,
            denominator,
        }
    }

    /// The fraction, or 0.0 when the denominator is zero.
    pub fn value(self) -> f64 {
        if self.denominator == 0 {
            0.0
        } else {
            self.numerator as f64 / self.denominator as f64
        }
    }

    /// The fraction as a percentage.
    pub fn percent(self) -> f64 {
        self.value() * 100.0
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}%", self.percent())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let mut c = Counter::new();
        c.inc();
        c.add(41);
        c += 8;
        assert_eq!(c.get(), 50);
    }

    #[test]
    fn counter_saturates() {
        let mut c = Counter::from(u64::MAX - 1);
        c.add(10);
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn ratio_handles_zero_denominator() {
        assert_eq!(Ratio::new(5, 0).value(), 0.0);
        assert_eq!(Counter::from(5).ratio(Counter::new()).percent(), 0.0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Counter::from(7).to_string(), "7");
        assert_eq!(Ratio::new(1, 4).to_string(), "25.00%");
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Counters accumulate like saturating u64 addition.
            #[test]
            fn add_matches_saturating_sum(values in prop::collection::vec(any::<u64>(), 0..20)) {
                let mut counter = Counter::new();
                let mut reference = 0u64;
                for &v in &values {
                    counter.add(v);
                    reference = reference.saturating_add(v);
                }
                prop_assert_eq!(counter.get(), reference);
            }

            /// Ratios are always within [0, 1] when numerator <= denominator.
            #[test]
            fn bounded_ratios(n in any::<u32>(), extra in any::<u32>()) {
                let d = u64::from(n) + u64::from(extra);
                let r = Ratio::new(u64::from(n), d);
                if d > 0 {
                    prop_assert!((0.0..=1.0).contains(&r.value()));
                }
                prop_assert!(r.percent() >= 0.0);
            }
        }
    }
}
