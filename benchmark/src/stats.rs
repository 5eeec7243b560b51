//! Order statistics for timings: medians for passes, percentiles for
//! pooled latencies.

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
/// On an empty slice or a NaN: both are bugs in the caller.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The `p`-th percentile (`0 < p < 100`) by nearest rank.
///
/// # Errors
/// When fewer than ten samples lie beyond the answer on the far side of
/// the median: such a percentile is decided by a handful of outliers and
/// must not be reported.
pub fn percentile(values: &[f64], p: f64) -> Result<f64, String> {
    assert!(p > 0.0 && p < 100.0, "percentile {p} out of range");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    let n = v.len();
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1));
    let beyond = if p >= 50.0 { n.saturating_sub(rank) } else { rank.saturating_sub(1) };
    if beyond < 10 {
        return Err(format!("p{p} of {n} samples has only {beyond} beyond it (need 10)"));
    }
    Ok(v[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_refuses_thin_tails() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 90.0), Ok(90.0));
        assert_eq!(percentile(&hundred, 50.0), Ok(50.0));
        assert_eq!(
            percentile(&hundred, 10.0),
            Err("p10 of 100 samples has only 9 beyond it (need 10)".into())
        );
        assert!(percentile(&hundred, 95.0).is_err(), "only 5 samples beyond p95 of 100");
        let fifteen: Vec<f64> = (1..=15).map(f64::from).collect();
        assert!(percentile(&fifteen, 50.0).is_err(), "7 beyond the median of 15");
        assert!(percentile(&[], 50.0).is_err());
    }
}
