//! Log2-bucketed histograms for wide-range latency distributions.

use std::fmt;

/// Number of exact buckets: values `0..EXACT_LIMIT` each get their own
/// bucket; values at or above it fall into power-of-two ranges.
///
/// 64 covers every single-digit-to-L2 latency exactly, so the common-case
/// percentiles (p50/p90 of port-served loads) are precise to the cycle,
/// while DRAM-class tails still resolve to within a factor of two.
const EXACT_LIMIT: u64 = 64;

/// `log2(EXACT_LIMIT)` — the first log bucket covers
/// `[EXACT_LIMIT, 2 * EXACT_LIMIT)`, i.e. bit length `LIMIT_BITS + 1`.
const LIMIT_BITS: u32 = EXACT_LIMIT.trailing_zeros(); // 6

/// One log2 bucket per remaining bit position of a `u64` (bit lengths
/// `LIMIT_BITS + 1 ..= 64`).
const LOG_BUCKETS: usize = (64 - LIMIT_BITS) as usize;

/// A histogram with exact buckets below `EXACT_LIMIT` (64) and log2-width
/// buckets above, covering the full `u64` range in fixed space.
///
/// This is the latency-distribution counterpart to the dense
/// [`Histogram`](crate::Histogram): occupancies are small and bounded, so
/// dense buckets fit them; latencies span from 1 cycle to a DRAM miss
/// behind a full MSHR file, so they need log-scaled tails. Percentile
/// queries are exact below the threshold and bucket-resolved above it
/// (clamped to the true maximum, so `p99 <= max` always holds).
///
/// ```
/// use cpe_stats::Log2Histogram;
///
/// let mut h = Log2Histogram::new();
/// for v in [1, 1, 2, 3, 200] {
///     h.record(v);
/// }
/// assert_eq!(h.total(), 5);
/// assert_eq!(h.percentile(0.50), Some(2));
/// assert_eq!(h.max_seen(), 200);
/// assert_eq!(Log2Histogram::new().percentile(0.99), None);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Log2Histogram {
    exact: Vec<u64>,
    log: Vec<u64>,
    sum: u128,
    total: u64,
    max_seen: u64,
}

impl Default for Log2Histogram {
    fn default() -> Log2Histogram {
        Log2Histogram::new()
    }
}

impl Log2Histogram {
    /// An empty histogram.
    pub fn new() -> Log2Histogram {
        Log2Histogram {
            exact: vec![0; EXACT_LIMIT as usize],
            log: vec![0; LOG_BUCKETS],
            sum: 0,
            total: 0,
            max_seen: 0,
        }
    }

    /// Bucket index within `self.log` for a value `>= EXACT_LIMIT`.
    fn log_index(value: u64) -> usize {
        debug_assert!(value >= EXACT_LIMIT);
        // Values in [2^k, 2^(k+1)) share a bucket; the first bucket holds
        // [EXACT_LIMIT, 2 * EXACT_LIMIT).
        (64 - value.leading_zeros() - LIMIT_BITS - 1) as usize
    }

    /// Inclusive `(lo, hi)` range of log bucket `i`.
    fn log_range(i: usize) -> (u64, u64) {
        let lo = EXACT_LIMIT << i;
        // 2*lo - 1; the top bucket's 2*lo wraps to 0 and -1 gives u64::MAX,
        // which is exactly its upper edge.
        let hi = lo.wrapping_mul(2).wrapping_sub(1);
        (lo, hi)
    }

    /// Record one sample.
    pub fn record(&mut self, value: u64) {
        if value < EXACT_LIMIT {
            self.exact[value as usize] += 1;
        } else {
            self.log[Self::log_index(value)] += 1;
        }
        self.sum += u128::from(value);
        self.total += 1;
        self.max_seen = self.max_seen.max(value);
    }

    /// Total number of samples.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Sum of all recorded values.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Largest sample seen (0 when empty).
    pub fn max_seen(&self) -> u64 {
        self.max_seen
    }

    /// Arithmetic mean of all samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// The value at quantile `p` in `[0, 1]`, or `None` when empty.
    ///
    /// Exact for values below the dense threshold. For log buckets the
    /// bucket's upper edge is reported (a conservative bound), clamped to
    /// the largest sample actually seen, so for any `p <= q`,
    /// `percentile(p) <= percentile(q) <= Some(max_seen())`.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let p = p.clamp(0.0, 1.0);
        // Rank of the sample we want, 1-based: ceil(p * total), at least 1.
        let rank = ((p * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (value, &count) in self.exact.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return Some(value as u64);
            }
        }
        for (i, &count) in self.log.iter().enumerate() {
            seen += count;
            if seen >= rank {
                let (_, hi) = Self::log_range(i);
                return Some(hi.min(self.max_seen));
            }
        }
        Some(self.max_seen)
    }

    /// Median (`None` when empty).
    pub fn p50(&self) -> Option<u64> {
        self.percentile(0.50)
    }

    /// 90th percentile (`None` when empty).
    pub fn p90(&self) -> Option<u64> {
        self.percentile(0.90)
    }

    /// 95th percentile (`None` when empty).
    pub fn p95(&self) -> Option<u64> {
        self.percentile(0.95)
    }

    /// 99th percentile (`None` when empty).
    pub fn p99(&self) -> Option<u64> {
        self.percentile(0.99)
    }

    /// Merge another histogram's samples into this one.
    ///
    /// All `Log2Histogram`s share one bucket layout, so any two merge.
    pub fn merge(&mut self, other: &Log2Histogram) {
        for (a, b) in self.exact.iter_mut().zip(&other.exact) {
            *a += b;
        }
        for (a, b) in self.log.iter_mut().zip(&other.log) {
            *a += b;
        }
        self.sum += other.sum;
        self.total += other.total;
        self.max_seen = self.max_seen.max(other.max_seen);
    }

    /// Samples recorded in `self` but not in `earlier` — the per-epoch
    /// delta between two cumulative snapshots of the same histogram.
    ///
    /// `earlier` must be a prior snapshot (every bucket `<=` the current
    /// one); counts saturate at zero otherwise. `max_seen` is inherited
    /// from `self` since a maximum cannot be un-seen.
    pub fn delta(&self, earlier: &Log2Histogram) -> Log2Histogram {
        let mut out = Log2Histogram::new();
        for (o, (a, b)) in out
            .exact
            .iter_mut()
            .zip(self.exact.iter().zip(&earlier.exact))
        {
            *o = a.saturating_sub(*b);
        }
        for (o, (a, b)) in out.log.iter_mut().zip(self.log.iter().zip(&earlier.log)) {
            *o = a.saturating_sub(*b);
        }
        out.sum = self.sum.saturating_sub(earlier.sum);
        out.total = self.total.saturating_sub(earlier.total);
        out.max_seen = self.max_seen;
        out
    }

    /// Iterate the non-empty buckets as `(lo, hi, count)` inclusive ranges,
    /// in increasing value order. Exact buckets yield `lo == hi`.
    pub fn iter_buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        let exact = self
            .exact
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(v, &c)| (v as u64, v as u64, c));
        let log = self
            .log
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                let (lo, hi) = Self::log_range(i);
                (lo, hi, c)
            });
        exact.chain(log)
    }
}

impl fmt::Display for Log2Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.total == 0 {
            return write!(f, "n=0");
        }
        let fmt_q = |q: Option<u64>| q.map_or_else(|| "-".to_string(), |v| v.to_string());
        write!(
            f,
            "n={} mean={:.1} p50={} p90={} p95={} p99={} max={}",
            self.total,
            self.mean(),
            fmt_q(self.p50()),
            fmt_q(self.p90()),
            fmt_q(self.p95()),
            fmt_q(self.p99()),
            self.max_seen
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_histogram_percentiles_are_none() {
        let h = Log2Histogram::new();
        assert_eq!(h.total(), 0);
        assert_eq!(h.percentile(0.0), None);
        assert_eq!(h.p50(), None);
        assert_eq!(h.p99(), None);
        assert_eq!(h.max_seen(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.to_string(), "n=0");
    }

    #[test]
    fn single_sample_pins_every_percentile() {
        for value in [0, 1, 63, 64, 1000, u64::MAX] {
            let mut h = Log2Histogram::new();
            h.record(value);
            for p in [0.0, 0.5, 0.9, 0.95, 0.99, 1.0] {
                assert_eq!(h.percentile(p), Some(value), "value {value} p {p}");
            }
            assert_eq!(h.max_seen(), value);
        }
    }

    #[test]
    fn exact_region_percentiles_are_exact() {
        let mut h = Log2Histogram::new();
        for v in 1..=10u64 {
            h.record(v);
        }
        assert_eq!(h.percentile(0.1), Some(1));
        assert_eq!(h.p50(), Some(5));
        assert_eq!(h.p90(), Some(9));
        assert_eq!(h.percentile(1.0), Some(10));
    }

    #[test]
    fn log_region_reports_bucket_upper_edge_clamped_to_max() {
        let mut h = Log2Histogram::new();
        h.record(100); // bucket [64, 127]
        h.record(100);
        assert_eq!(h.p50(), Some(100)); // clamped to max_seen
        let mut h = Log2Histogram::new();
        h.record(100);
        h.record(120);
        assert_eq!(h.p50(), Some(120)); // upper edge 127 clamps to 120
        assert_eq!(h.p99(), Some(120));
    }

    #[test]
    fn log_index_boundaries() {
        assert_eq!(Log2Histogram::log_index(64), 0);
        assert_eq!(Log2Histogram::log_index(127), 0);
        assert_eq!(Log2Histogram::log_index(128), 1);
        assert_eq!(Log2Histogram::log_index(u64::MAX), LOG_BUCKETS - 1);
        let (lo, hi) = Log2Histogram::log_range(0);
        assert_eq!((lo, hi), (64, 127));
    }

    #[test]
    fn delta_recovers_epoch_counts() {
        let mut cumulative = Log2Histogram::new();
        cumulative.record(3);
        cumulative.record(500);
        let snapshot = cumulative.clone();
        cumulative.record(3);
        cumulative.record(7);
        let epoch = cumulative.delta(&snapshot);
        assert_eq!(epoch.total(), 2);
        assert_eq!(epoch.p50(), Some(3));
        assert_eq!(epoch.percentile(1.0), Some(7));
    }

    #[test]
    fn bucket_iteration_covers_all_samples() {
        let mut h = Log2Histogram::new();
        for v in [0, 5, 5, 64, 4096] {
            h.record(v);
        }
        let buckets: Vec<_> = h.iter_buckets().collect();
        assert_eq!(buckets.iter().map(|&(_, _, c)| c).sum::<u64>(), h.total());
        for w in buckets.windows(2) {
            assert!(w[0].1 < w[1].0, "buckets ordered and disjoint: {buckets:?}");
        }
        assert!(buckets.contains(&(5, 5, 2)));
        assert!(buckets.contains(&(64, 127, 1)));
    }

    proptest! {
        #[test]
        fn percentiles_are_monotone_and_bounded(
            values in prop::collection::vec(0u64..100_000, 1..200),
        ) {
            let mut h = Log2Histogram::new();
            for &v in &values {
                h.record(v);
            }
            let ps = [0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0];
            let qs: Vec<u64> = ps.iter().map(|&p| h.percentile(p).unwrap()).collect();
            for w in qs.windows(2) {
                prop_assert!(w[0] <= w[1], "{qs:?}");
            }
            prop_assert!(*qs.last().unwrap() <= h.max_seen());
            prop_assert_eq!(h.total(), values.len() as u64);
        }

        #[test]
        fn merge_is_associative_and_counts_add(
            a in prop::collection::vec(0u64..10_000, 0..50),
            b in prop::collection::vec(0u64..10_000, 0..50),
            c in prop::collection::vec(0u64..10_000, 0..50),
        ) {
            let hist = |vals: &[u64]| {
                let mut h = Log2Histogram::new();
                for &v in vals {
                    h.record(v);
                }
                h
            };
            // (a ∪ b) ∪ c == a ∪ (b ∪ c)
            let mut left = hist(&a);
            left.merge(&hist(&b));
            left.merge(&hist(&c));
            let mut bc = hist(&b);
            bc.merge(&hist(&c));
            let mut right = hist(&a);
            right.merge(&bc);
            prop_assert_eq!(&left, &right);
            prop_assert_eq!(left.total(), (a.len() + b.len() + c.len()) as u64);
            let direct: u128 = a.iter().chain(&b).chain(&c).map(|&v| u128::from(v)).sum();
            prop_assert_eq!(left.sum(), direct);
        }

        #[test]
        fn percentile_matches_sorted_rank_in_exact_region(
            values in prop::collection::vec(0u64..EXACT_LIMIT, 1..100),
            p in 0.0f64..1.0,
        ) {
            let mut h = Log2Histogram::new();
            for &v in &values {
                h.record(v);
            }
            let mut sorted = values.clone();
            sorted.sort_unstable();
            let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            prop_assert_eq!(h.percentile(p), Some(sorted[rank - 1]));
        }
    }
}
