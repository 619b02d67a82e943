//! Order statistics used by the report and by `compare`.

/// A percentile is only reported when at least this many samples lie
/// strictly beyond it; below that the tail is a handful of outliers,
/// not a distribution.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `q`-quantile of an ascending-sorted slice, or `None`
/// when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[u32], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_BEYOND).then(|| f64::from(sorted[rank - 1]))
}

/// Sort `samples` (nanoseconds) and report the `q`-quantile in
/// microseconds.
pub fn percentile_us(samples: &mut [u32], q: f64) -> Option<f64> {
    samples.sort_unstable();
    percentile(samples, q).map(|ns| ns / 1e3)
}

/// Median of `values` (mean of the two middle values for an even
/// count). Panics on an empty slice: every caller measured something.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile by the method of Python's
/// `statistics.quantiles(values, n=4)` (exclusive), which is what the
/// driver uses for its spread check. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let at = |i: usize| {
        // Position i*(n+1)/4 on the 1-based sorted sample, clamped so
        // both neighbours exist, linearly interpolated.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Inter-quartile range as a share of the median; falls back to
/// (max − min) ÷ median below four values, and 0 for a single one.
pub fn spread(values: &[f64]) -> f64 {
    let med = median(values);
    if med == 0.0 {
        return 0.0;
    }
    let width = match quartiles(values) {
        Some((q1, q3)) if values.len() >= 4 => q3 - q1,
        _ => {
            let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            hi - lo
        }
    };
    (width / med).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let sorted: Vec<u32> = (1..=1000).collect();
        // p99 of 1000: rank 990, exactly 10 beyond.
        assert_eq!(percentile(&sorted, 0.99), Some(990.0));
        // One sample fewer leaves only 9 beyond rank 990 of 999.
        assert_eq!(percentile(&sorted[..999], 0.99), None);
        // p50 of 20: rank 10, 10 beyond; of 19: rank 10, 9 beyond.
        assert_eq!(percentile(&sorted[..20], 0.50), Some(10.0));
        assert_eq!(percentile(&sorted[..19], 0.50), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let (q1, q3) = quartiles(&[20.0, 10.0]).unwrap();
        assert!((q1 - 7.5).abs() < 1e-12 && (q3 - 22.5).abs() < 1e-12);
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(spread(&[5.0]), 0.0);
        assert!((spread(&[9.0, 10.0, 11.0]) - 0.2).abs() < 1e-12);
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
