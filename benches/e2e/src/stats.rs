//! Order statistics over small sample vectors.

/// The median (mean of the two middle values for an even count). Panics on
/// an empty slice: every caller owns at least one trial.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile (`p` in `[0, 100]`) of nanosecond samples, as
/// microseconds. Reorders `samples`.
pub fn percentile_us(samples: &mut [u32], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    let k = rank.clamp(1, samples.len()) - 1;
    let (_, v, _) = samples.select_nth_unstable(k);
    f64::from(*v) / 1e3
}

/// Distance between the first and third quartile as a share of the median,
/// with the quartiles Python's `statistics.quantiles(values, n=4)` gives
/// (the "exclusive" method) — the driver's spread measure.
pub fn iqr_share(values: &[f64]) -> f64 {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let quantile = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (quantile(3) - quantile(1)) / median(&v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let mut ns: Vec<u32> = (1..=100).map(|i| i * 1000).collect();
        ns.reverse();
        assert_eq!(percentile_us(&mut ns, 50.0), 50.0);
        assert_eq!(percentile_us(&mut ns, 99.0), 99.0);
        assert_eq!(percentile_us(&mut ns, 100.0), 100.0);
        assert_eq!(percentile_us(&mut ns, 0.0), 1.0);
        assert_eq!(percentile_us(&mut [5000], 99.0), 5.0);
    }

    #[test]
    fn iqr_matches_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - 5.5 / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 11, 13], n=4) == [10.0, 11.0, 13.0]
        assert!((iqr_share(&[13.0, 10.0, 11.0]) - 3.0 / 11.0).abs() < 1e-12);
    }
}
