//! Timing arithmetic: per-cell best of repetitions, quartiles, tails.
//!
//! Host interference on a shared machine only ever adds time to a
//! deterministic, single-threaded, CPU-bound computation, so the fastest
//! repetition of a cell is the one least disturbed. The benchmark keeps
//! every sample and takes each cell's own minimum: a pass that was slow
//! in one cell and fast in another contributes its fast cell.

use std::time::{Duration, Instant};

/// Every timing sample of every cell, one row per cell.
#[derive(Debug, Clone, Default)]
pub struct CellTimes {
    samples: Vec<Vec<f64>>,
}

impl CellTimes {
    /// Room for `cells` cells and no samples yet.
    pub fn new(cells: usize) -> CellTimes {
        CellTimes {
            samples: vec![Vec::new(); cells],
        }
    }

    /// One repetition of `cell` took `seconds`.
    pub fn record(&mut self, cell: usize, seconds: f64) {
        self.samples[cell].push(seconds);
    }

    /// The fastest repetition of `cell`.
    pub fn best(&self, cell: usize) -> f64 {
        self.samples[cell]
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
    }

    /// The sum over cells of each cell's fastest repetition.
    pub fn best_total(&self) -> f64 {
        (0..self.samples.len()).map(|cell| self.best(cell)).sum()
    }

    /// Every sample of every cell, in no particular order.
    pub fn all(&self) -> Vec<f64> {
        self.samples.iter().flatten().copied().collect()
    }

    /// The sum over cells of each pass's samples, one total per complete
    /// pass.
    pub fn pass_totals(&self) -> Vec<f64> {
        (0..self.repetitions())
            .map(|pass| self.samples.iter().map(|cell| cell[pass]).sum())
            .collect()
    }

    /// Repetitions every cell has completed.
    pub fn repetitions(&self) -> usize {
        self.samples.iter().map(Vec::len).min().unwrap_or(0)
    }
}

/// Time `f` `reps` times; the fastest time and the last result.
pub fn best_of<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut result = None;
    for _ in 0..reps.max(1) {
        let started = Instant::now();
        let value = f();
        best = best.min(started.elapsed().as_secs_f64());
        result = Some(value);
    }
    (best, result.expect("at least one repetition"))
}

/// Seconds `f` took, and its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let started = Instant::now();
    let value = f();
    (started.elapsed().as_secs_f64(), value)
}

/// A repetition budget: keep going until `seconds` have passed, but do
/// at least `min_reps`.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    started: Instant,
    length: Duration,
    min_reps: usize,
}

impl Budget {
    /// A budget starting now.
    pub fn new(seconds: f64, min_reps: usize) -> Budget {
        Budget {
            started: Instant::now(),
            length: Duration::from_secs_f64(seconds.max(0.0)),
            min_reps,
        }
    }

    /// Whether another repetition fits after `done` of them.
    pub fn another(&self, done: usize) -> bool {
        done < self.min_reps || self.started.elapsed() < self.length
    }
}

/// First quartile, median and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the "exclusive" method), so
/// the figures here match the ones a reader recomputes from the runs.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let m = data.len();
    if m < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// The median of `values` (`None` when empty).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let m = data.len();
    match m {
        0 => None,
        _ if m % 2 == 1 => Some(data[m / 2]),
        _ => Some((data[m / 2 - 1] + data[m / 2]) / 2.0),
    }
}

/// The highest percentile of `values` that still has `beyond` samples
/// above it, as `(percentile, value)`; with too few samples for that, the
/// maximum. `None` only when `values` is empty.
pub fn tail(values: &[f64], beyond: usize) -> Option<(f64, f64)> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    let index = if n > beyond {
        n - 1 - beyond
    } else {
        n.checked_sub(1)?
    };
    Some(((index + 1) as f64 * 100.0 / n as f64, data[index]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_is_taken_per_cell_not_per_pass() {
        // Pass 0 is fast in cell 0 and slow in cell 1; pass 1 the other
        // way round. The best pass totals 4.0, the per-cell best 2.0.
        let mut times = CellTimes::new(2);
        times.record(0, 1.0);
        times.record(1, 3.0);
        times.record(0, 3.0);
        times.record(1, 1.0);
        assert_eq!(times.best(0), 1.0);
        assert_eq!(times.best(1), 1.0);
        assert_eq!(times.best_total(), 2.0);
        assert_eq!(times.pass_totals(), vec![4.0, 4.0]);
        assert_eq!(times.repetitions(), 2);
        assert_eq!(times.all().len(), 4);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_leaves_the_requested_samples_beyond_it() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let (percentile, value) = tail(&values, 10).expect("enough samples");
        assert_eq!(value, 90.0);
        assert_eq!(percentile, 90.0);
        assert_eq!(values.iter().filter(|&&v| v > value).count(), 10);
        assert_eq!(tail(&values[..10], 10), Some((100.0, 10.0)));
        assert_eq!(tail(&[], 10), None);
    }

    #[test]
    fn budget_runs_the_minimum_even_when_out_of_time() {
        let budget = Budget::new(0.0, 3);
        assert!(budget.another(2));
        assert!(!budget.another(3));
    }
}
