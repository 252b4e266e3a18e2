//! Means and percentages over benchmark result sets.

/// Arithmetic mean. Returns `None` for an empty input.
pub fn mean(values: impl IntoIterator<Item = f64>) -> Option<f64> {
    let (sum, n) = values
        .into_iter()
        .fold((0.0, 0u64), |(s, n), v| (s + v, n + 1));
    (n > 0).then(|| sum / n as f64)
}

/// Geometric mean — the paper-standard way to summarise normalised
/// performance across workloads. Returns `None` for an empty input or when
/// any value is non-positive.
pub fn geometric_mean(values: impl IntoIterator<Item = f64>) -> Option<f64> {
    let mut log_sum = 0.0;
    let mut n = 0u64;
    for v in values {
        if v <= 0.0 {
            return None;
        }
        log_sum += v.ln();
        n += 1;
    }
    (n > 0).then(|| (log_sum / n as f64).exp())
}

/// Format a fraction as a fixed-width percentage string (`"91.3%"`).
///
/// Non-finite input (a `0/0` ratio upstream) renders as `"-"` rather than
/// `"NaN%"`, so report tables for degenerate runs stay readable.
pub fn percent(fraction: f64) -> String {
    if fraction.is_finite() {
        format!("{:.1}%", fraction * 100.0)
    } else {
        "-".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn means_of_known_inputs() {
        assert_eq!(mean([1.0, 2.0, 3.0]), Some(2.0));
        assert_eq!(mean(std::iter::empty()), None);
        let g = geometric_mean([1.0, 4.0]).unwrap();
        assert!((g - 2.0).abs() < 1e-12);
    }

    #[test]
    fn non_positive_values_poison_the_geometric_mean() {
        assert_eq!(geometric_mean([1.0, 0.0]), None);
        assert_eq!(geometric_mean([1.0, -2.0]), None);
        assert_eq!(geometric_mean(std::iter::empty()), None);
    }

    #[test]
    fn percent_formats() {
        assert_eq!(percent(0.913), "91.3%");
        assert_eq!(percent(1.0), "100.0%");
    }

    #[test]
    fn percent_guards_non_finite_ratios() {
        assert_eq!(percent(f64::NAN), "-");
        assert_eq!(percent(f64::INFINITY), "-");
        assert_eq!(percent(f64::NEG_INFINITY), "-");
    }

    proptest! {
        #[test]
        fn am_gm_inequality(values in prop::collection::vec(0.001f64..1e6, 1..100)) {
            let am = mean(values.iter().copied()).unwrap();
            let gm = geometric_mean(values.iter().copied()).unwrap();
            prop_assert!(gm <= am * (1.0 + 1e-9));
        }
    }
}
