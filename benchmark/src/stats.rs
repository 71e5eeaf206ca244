//! Order statistics used by every report: medians and quartiles of host-time
//! samples, and latency percentiles that are only as high as the sample
//! count supports.

/// Quartiles `(q1, median, q3)` exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// computes them, so the spread kdmark prints is the spread the driver sees.
/// One sample yields itself three times.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    if ld == 1 {
        return (data[0], data[0], data[0]);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// Interquartile distance as a share of the median (0 when the median is 0).
pub fn spread(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice, `p` in `(0, 1]`.
pub fn percentile<T: Copy>(sorted: &[T], p: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The percentile actually reported when `want` is asked of `n` samples:
/// `want` itself if at least [`MIN_BEYOND`] samples lie beyond it, otherwise
/// the highest percentile that still has that many beyond (never below the
/// median).
pub fn supported(want: f64, n: usize) -> f64 {
    let beyond = |p: f64| n - ((p * n as f64).ceil() as usize).min(n);
    if beyond(want) >= MIN_BEYOND || n == 0 {
        return want;
    }
    let p = (n.saturating_sub(MIN_BEYOND)) as f64 / n as f64;
    p.max(0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3.1, 9.0, 4.4, 1.2, 7.7], n=4)
        let (q1, q2, q3) = quartiles(&[3.1, 9.0, 4.4, 1.2, 7.7]);
        assert!((q1 - 2.15).abs() < 1e-12 && q2 == 4.4 && (q3 - 8.35).abs() < 1e-12);
        // statistics.quantiles([5, 1], n=4) == [0.0, 3.0, 6.0]: two samples extrapolate
        assert_eq!(quartiles(&[5.0, 1.0]), (0.0, 3.0, 6.0));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&v), 1.0);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&[42], 0.99), 42);
    }

    #[test]
    fn low_decile_is_the_third_fastest_of_thirty() {
        let v: Vec<f64> = (1..=30).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.1), 3.0);
        assert_eq!(percentile(&[7.0, 8.0, 9.0], 0.1), 7.0, "three repeats");
    }

    #[test]
    fn high_percentile_needs_ten_samples_beyond() {
        // p99 of 1000 samples leaves exactly 10 beyond: supported.
        assert_eq!(supported(0.99, 1000), 0.99);
        assert_eq!(supported(0.99, 2000), 0.99);
        // 999 samples leave 9 beyond p99: fall back to the rank with 10 beyond.
        let p = supported(0.99, 999);
        assert!(p < 0.99);
        assert_eq!(999 - (p * 999.0).ceil() as usize, 10);
        // 100 samples: p90 is the highest supported.
        assert_eq!(supported(0.99, 100), 0.9);
        // Tiny samples never report below the median.
        assert_eq!(supported(0.99, 12), 0.5);
        assert_eq!(supported(0.5, 12), 0.5);
    }
}
