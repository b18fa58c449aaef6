//! Order statistics used by every workload.

/// Number of equal windows a run's samples are split into.
pub const WINDOWS: usize = 10;

/// Sorts in place (samples are finite by construction).
fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
}

/// The `p`-quantile (0..=1) of an already sorted, non-empty slice, by the
/// nearest-rank rule the program's own `LatencySummary` uses.
fn quantile_sorted(sorted: &[f64], p: f64) -> f64 {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// The `p`-quantile of `values` (0.0 when empty).
pub fn quantile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    quantile_sorted(&sorted, p)
}

/// Median of `values` (0.0 when empty); the mean of the two middle values
/// for an even count, so the median of the ten windows is well defined.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Arithmetic mean (0.0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Splits `samples` (in record order) into [`WINDOWS`] equal windows, takes
/// the `p`-quantile of each and returns the median of those, with the
/// per-window sample count. One scheduler hiccup then costs one window,
/// not the metric. Fewer samples than windows fall back to one window.
pub fn window_median_quantile(samples: &[f64], p: f64) -> (f64, usize) {
    let per_window = samples.len() / WINDOWS;
    if per_window == 0 {
        return (quantile(samples, p), samples.len());
    }
    let per: Vec<f64> = samples
        .chunks_exact(per_window)
        .take(WINDOWS)
        .map(|w| quantile(w, p))
        .collect();
    (median(&per), per_window)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.5), 51.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
    }

    #[test]
    fn one_bad_window_does_not_move_the_window_median() {
        // 1000 samples of 1.0, except that window 4 is one long stall.
        let mut samples = vec![1.0; 1000];
        for s in &mut samples[400..500] {
            *s = 500.0;
        }
        let (p99, per_window) = window_median_quantile(&samples, 0.99);
        assert_eq!(per_window, 100);
        assert_eq!(p99, 1.0);
        // The whole-run p99 sees the stall.
        assert_eq!(quantile(&samples, 0.99), 500.0);
    }

    #[test]
    fn window_median_uses_record_order_and_drops_the_remainder() {
        // 25 samples: ten windows of 2, the last 5 samples ignored.
        let samples: Vec<f64> = (0..25).map(f64::from).collect();
        let (p50, per_window) = window_median_quantile(&samples, 0.5);
        assert_eq!(per_window, 2);
        // Window k holds {2k, 2k+1}; nearest rank of p50 picks 2k+1
        // (index round(0.5) = 1 by round-half-away); medians 1,3,..,19.
        assert_eq!(p50, 10.0);
    }

    #[test]
    fn short_series_falls_back_to_one_window() {
        let (p, n) = window_median_quantile(&[5.0, 7.0, 6.0], 0.5);
        assert_eq!(n, 3);
        assert_eq!(p, 6.0);
    }
}
