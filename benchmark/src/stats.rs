//! Order statistics over small sample sets.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! "exclusive" method), because that is how the driver computes the
//! spread it holds this benchmark to.

/// The value at fraction `q ∈ [0, 1]` of the sorted samples, linearly
/// interpolated between neighbours. `None` for an empty set.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median; 0 for an empty set (callers only report metrics they
/// sampled at least once).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5).unwrap_or(0.0)
}

/// First and third quartile as `statistics.quantiles(samples, n=4)` gives
/// them: position `q·(n+1)` in the 1-based sorted list, clamped to the
/// ends. Both equal the single sample when there is only one.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    let n = sorted.len();
    if n == 0 {
        return (0.0, 0.0);
    }
    let at = |q: f64| {
        let pos = (q * (n + 1) as f64 - 1.0).clamp(0.0, (n - 1) as f64);
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
    };
    (at(0.25), at(0.75))
}

/// Inter-quartile distance as a share of the median — the spread the
/// driver computes over ten runs.
pub fn iqr_share(samples: &[f64]) -> f64 {
    let m = median(samples);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(samples);
    (q3 - q1) / m.abs()
}

/// The highest percentile `≤ want` that `n` samples support: a percentile
/// is only reported when at least ten samples lie beyond it. With fewer
/// than twenty samples not even the median qualifies, and the median is
/// what is reported.
pub fn supported_percentile(n: usize, want: f64) -> f64 {
    if n < 20 {
        return 0.5;
    }
    want.min(1.0 - 10.0 / n as f64).max(0.5)
}

/// The value at the highest supported percentile `≤ want`, together with
/// the percentile actually used (so the report can say "p99 asked, p90
/// given, 100 samples").
pub fn tail(samples: &[f64], want: f64) -> (f64, f64) {
    let q = supported_percentile(samples.len(), want);
    (quantile(samples, q).unwrap_or(0.0), q)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7], n=4) == [2, 4, 6]
        let v: Vec<f64> = (1..=7).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.0, 6.0));
        // Two samples: positions clamp to the ends.
        assert_eq!(quartiles(&[1.0, 2.0]), (1.0, 2.0));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
    }

    #[test]
    fn iqr_share_is_relative_to_the_median() {
        let v: Vec<f64> = (1..=7).map(f64::from).collect();
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12); // (6 - 2) / 4
        assert_eq!(iqr_share(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p99 needs 1000 samples; 100 samples support p90 at most.
        assert_eq!(supported_percentile(1000, 0.99), 0.99);
        assert!((supported_percentile(100, 0.99) - 0.90).abs() < 1e-12);
        assert!((supported_percentile(20, 0.99) - 0.5).abs() < 1e-12);
        // Fewer than twenty samples: the median is all there is.
        assert_eq!(supported_percentile(19, 0.99), 0.5);
        assert_eq!(supported_percentile(0, 0.99), 0.5);
        // A wanted percentile below the ceiling is kept.
        assert_eq!(supported_percentile(1000, 0.9), 0.9);
    }

    #[test]
    fn tail_reports_the_percentile_it_used() {
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        let (value, q) = tail(&v, 0.99);
        assert!((q - 0.90).abs() < 1e-12);
        assert!((value - 89.1).abs() < 1e-9);
    }
}
