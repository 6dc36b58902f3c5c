//! Order statistics for the benchmark's timings.
//!
//! A percentile is the order statistic at rank `ceil(q/100 * n)` (1-based)
//! of the sorted samples: no interpolation, so every reported value is a
//! sample that was actually observed. A percentile is only reported when
//! at least [`MIN_BEYOND`] samples lie beyond it; the median is always
//! reported.

/// Samples that must lie strictly above a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// The `q`-th percentile (0 < q <= 100) of `samples` as an order
/// statistic, or `None` for an empty slice.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), q) - 1])
}

/// 1-based rank of the `q`-th percentile among `n` sorted samples.
fn rank(n: usize, q: f64) -> usize {
    let r = (q / 100.0 * n as f64).ceil() as usize;
    r.clamp(1, n)
}

/// Samples lying beyond the `q`-th percentile of `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// The `q`-th percentile, but only when at least [`MIN_BEYOND`] samples
/// lie beyond it (the median is exempt).
pub fn tail_percentile(samples: &[f64], q: f64) -> Option<f64> {
    if q > 50.0 && beyond(samples.len(), q) < MIN_BEYOND {
        return None;
    }
    percentile(samples, q)
}

/// Median of `samples` (the 50th-percentile order statistic).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_an_observed_order_statistic() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(50.0));
        assert_eq!(percentile(&xs, 90.0), Some(90.0));
        assert_eq!(percentile(&xs, 99.0), Some(99.0));
        assert_eq!(percentile(&xs, 100.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 50.0), Some(7.0));
        assert_eq!(percentile(&[3.0, 1.0], 50.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn odd_counts_pick_the_middle_sample() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(percentile(&[5.0, 1.0, 3.0, 2.0, 4.0], 90.0), Some(5.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 100 samples: 10 lie beyond p90, 1 beyond p99.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(tail_percentile(&xs, 90.0), Some(90.0));
        assert_eq!(tail_percentile(&xs, 99.0), None);
        let few: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(beyond(99, 90.0), 9);
        assert_eq!(tail_percentile(&few, 90.0), None);
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&many, 99.0), Some(990.0));
        // The median needs nothing beyond it.
        assert_eq!(tail_percentile(&[2.0, 1.0], 50.0), Some(1.0));
    }

    #[test]
    fn nan_free_inputs_sort_totally() {
        let xs = [0.5, -1.0, 2.0, 0.0];
        assert_eq!(percentile(&xs, 25.0), Some(-1.0));
        assert_eq!(percentile(&xs, 75.0), Some(0.5));
    }
}
