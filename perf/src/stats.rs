//! Sample statistics for the benchmark: median, quartiles, the "ten
//! samples beyond" percentile rule, and the two-point estimator that
//! separates a training call's per-epoch cost from its fixed cost.

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice or a NaN sample.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// First and third quartile, computed like Python's
/// `statistics.quantiles(xs, n=4)` (the "exclusive" method), because
/// that is how the driver computes the spread it gates on. With fewer
/// than two samples both quartiles are the sample itself.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let s = sorted(xs);
    let n = s.len();
    if n < 2 {
        return (s[0], s[0]);
    }
    let q = |i: usize| {
        // Position i·(n+1)/4 on a 1-based axis, clamped to the data.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (q(1), q(3))
}

/// Interquartile range (`q3 − q1`).
pub fn iqr(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    q3 - q1
}

/// The highest percentile that still has ten samples beyond it:
/// `Some((percentile, value))`, or `None` with ten samples or fewer.
/// With N = 20 this is the median; it only climbs past p90 at N ≥ 100,
/// which is why a short run reports no tail beyond it.
pub fn tail_percentile(xs: &[f64]) -> Option<(u32, f64)> {
    let n = xs.len();
    if n <= 10 {
        return None;
    }
    let s = sorted(xs);
    let rank = n - 10; // 1-based rank of the sample with ten above it
    Some(((100 * rank / n) as u32, s[rank - 1]))
}

/// Two-point estimator: a call of `e` epochs costs
/// `intercept + slope·e`. Given one short and one long call on the same
/// inputs, returns `(slope, intercept)`.
pub fn two_point(t_short: f64, e_short: usize, t_long: f64, e_long: usize) -> (f64, f64) {
    assert!(e_long > e_short, "the long call must run more epochs");
    let slope = (t_long - t_short) / (e_long - e_short) as f64;
    (slope, t_short - e_short as f64 * slope)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    assert!(!xs.is_empty(), "statistic of an empty sample");
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    /// Values checked against `statistics.quantiles(range(1, 11), n=4)`
    /// = [2.75, 5.5, 8.25] and `quantiles([1, 2, 3], n=4)` = [1, 2, 3].
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        assert_eq!(iqr(&xs), 5.5);
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), Some((50, 10.0)));
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), Some((90, 90.0)));
        let xs: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), Some((16, 2.0)));
        assert_eq!(tail_percentile(&xs[..10]), None);
    }

    /// Synthetic timings `T(e) = 0.25 + 0.0625·e` (exact in binary) must
    /// come back exactly.
    #[test]
    fn two_point_recovers_slope_and_intercept() {
        let t = |e: usize| 0.25 + 0.0625 * e as f64;
        assert_eq!(two_point(t(2), 2, t(22), 22), (0.0625, 0.25));
        assert_eq!(two_point(t(2), 2, t(12), 12), (0.0625, 0.25));
    }
}
