//! Order statistics with sample floors.
//!
//! A percentile is only reported when at least [`MIN_BEYOND`] samples lie on
//! each side of it that the percentile separates from the bulk: ten above a
//! p99, ten above *and* below a median. A metric that cannot meet its floor
//! is `low_n`, and the run that needed it fails.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Smallest sample count at which quantile `q` (0 < q < 1) may be reported:
/// `MIN_BEYOND` samples in the thinner tail.
pub fn floor_for(q: f64) -> usize {
    let tail = q.min(1.0 - q);
    (MIN_BEYOND as f64 / tail).ceil() as usize
}

/// Nearest-rank quantile of an already sorted slice; `None` when empty.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// Quantile `q` of `values`, or `None` (= `low_n`) below the sample floor.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.len() < floor_for(q) {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, q)
}

/// Median without a sample floor (mean of the two middle values for even n).
/// Used where the sample is small by design: per-type medians over a few
/// rounds, the median of the repeated set-ups.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 { v[mid] } else { (v[mid - 1] + v[mid]) / 2.0 })
}

/// Arithmetic mean; `None` when empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    Some(values.iter().sum::<f64>() / values.len() as f64)
}

/// Geometric mean of strictly positive values; `None` when empty or when a
/// value is not positive (a zero latency is a measurement bug, not a datum).
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0 || !v.is_finite()) {
        return None;
    }
    Some((values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp())
}

/// Distance between the largest and the smallest value as a share of the
/// median — the steadiness figure the repeatability gate compares against a
/// metric's bound. `None` for fewer than two values or a zero median.
pub fn range_share(values: &[f64]) -> Option<f64> {
    let m = median(values).filter(|&m| m != 0.0 && values.len() >= 2)?;
    let (lo, hi) = values.iter().fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    Some((hi - lo) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floors_follow_the_ten_beyond_rule() {
        assert_eq!(floor_for(0.99), 1000);
        assert_eq!(floor_for(0.95), 200);
        assert_eq!(floor_for(0.50), 20);
    }

    #[test]
    fn percentile_refuses_small_samples() {
        let small: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(percentile(&small, 0.99), None, "999 samples leave 9 beyond p99");
        let enough: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&enough, 0.99), Some(990.0));
        assert_eq!(percentile(&enough, 0.50), Some(500.0));
        assert_eq!(percentile(&[1.0; 19], 0.5), None);
        assert_eq!(percentile(&[1.0; 20], 0.5), Some(1.0));
    }

    #[test]
    fn nearest_rank_is_order_independent() {
        let mut v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        v.swap(3, 700);
        assert_eq!(percentile(&v, 0.99), Some(990.0));
    }

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn geomean_matches_hand_values() {
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        let g = geomean(&[1.0, 10.0, 100.0]).unwrap();
        assert!((g - 10.0).abs() < 1e-9, "{g}");
        let g = geomean(&[2.0, 8.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-9, "{g}");
    }

    #[test]
    fn range_share_is_the_extreme_distance_over_the_median() {
        assert_eq!(range_share(&[5.0; 10]), Some(0.0));
        assert_eq!(range_share(&[10.0, 12.0]), Some(2.0 / 11.0));
        assert_eq!(range_share(&[9.0, 10.0, 12.0]), Some(0.3));
        assert_eq!(range_share(&[1.0]), None);
        assert_eq!(range_share(&[-1.0, 1.0]), None);
    }
}
