//! Streaming statistics — the Jubatus `stat` service substitute.

use std::collections::VecDeque;

/// Welford running moments: count, mean, variance, min, max in O(1)
/// memory.
///
/// ```
/// use ifot_ml::stat::RunningStats;
///
/// let mut s = RunningStats::new();
/// for v in [1.0, 2.0, 3.0, 4.0] {
///     s.push(v);
/// }
/// assert_eq!(s.mean(), 2.5);
/// assert_eq!(s.min(), 1.0);
/// assert_eq!(s.max(), 4.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Creates empty statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes one value. Non-finite values are ignored.
    pub fn push(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
    }

    /// Observations consumed.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Running mean (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (0 until two observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.mean * self.count as f64
    }

    /// Merges another statistics object into this one (parallel Welford).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Exponentially weighted moving average.
#[derive(Debug, Clone)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// Creates an EWMA with smoothing factor `alpha ∈ (0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1]`.
    pub fn new(alpha: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha <= 1.0,
            "alpha must be in (0, 1], got {alpha}"
        );
        Ewma { alpha, value: None }
    }

    /// Consumes one value; the first observation seeds the average.
    pub fn push(&mut self, value: f64) {
        self.value = Some(match self.value {
            Some(prev) => prev + self.alpha * (value - prev),
            None => value,
        });
    }

    /// Current average, if any value was consumed.
    pub fn value(&self) -> Option<f64> {
        self.value
    }
}

/// Fixed-capacity sliding window with O(1) aggregate queries via
/// recomputation on demand (windows here are small — sensor batches).
#[derive(Debug, Clone)]
pub struct SlidingWindow {
    values: VecDeque<f64>,
    capacity: usize,
}

impl SlidingWindow {
    /// Creates a window keeping the last `capacity` values.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        SlidingWindow {
            values: VecDeque::with_capacity(capacity),
            capacity,
        }
    }

    /// Appends a value, evicting the oldest beyond capacity.
    pub fn push(&mut self, value: f64) {
        if self.values.len() == self.capacity {
            self.values.pop_front();
        }
        self.values.push_back(value);
    }

    /// Values currently held, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        self.values.iter().copied()
    }

    /// Number of values currently held.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the window holds no values.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Whether the window has reached capacity.
    pub fn is_full(&self) -> bool {
        self.values.len() == self.capacity
    }

    /// Mean of the current contents (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    /// Minimum of the current contents, if non-empty.
    pub fn min(&self) -> Option<f64> {
        self.values.iter().copied().reduce(f64::min)
    }

    /// Maximum of the current contents, if non-empty.
    pub fn max(&self) -> Option<f64> {
        self.values.iter().copied().reduce(f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_batch_computation() {
        let data: Vec<f64> = (0..100).map(|i| ((i * 31) % 17) as f64).collect();
        let mut s = RunningStats::new();
        for &v in &data {
            s.push(v);
        }
        let mean = data.iter().sum::<f64>() / data.len() as f64;
        let var = data.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / data.len() as f64;
        assert!((s.mean() - mean).abs() < 1e-9);
        assert!((s.variance() - var).abs() < 1e-9);
        assert_eq!(s.count(), 100);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 16.0);
        assert!((s.sum() - data.iter().sum::<f64>()).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = RunningStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    fn non_finite_values_ignored() {
        let mut s = RunningStats::new();
        s.push(f64::NAN);
        s.push(f64::INFINITY);
        s.push(1.0);
        assert_eq!(s.count(), 1);
        assert_eq!(s.mean(), 1.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let all: Vec<f64> = (0..50).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = RunningStats::new();
        for &v in &all {
            whole.push(v);
        }
        let mut left = RunningStats::new();
        let mut right = RunningStats::new();
        for &v in &all[..20] {
            left.push(v);
        }
        for &v in &all[20..] {
            right.push(v);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(left.min(), whole.min());
        assert_eq!(left.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = RunningStats::new();
        a.push(3.0);
        let before = a.clone();
        a.merge(&RunningStats::new());
        assert_eq!(a.count(), before.count());
        let mut empty = RunningStats::new();
        empty.merge(&before);
        assert_eq!(empty.count(), 1);
        assert_eq!(empty.mean(), 3.0);
    }

    #[test]
    fn ewma_converges_to_constant() {
        let mut e = Ewma::new(0.3);
        assert_eq!(e.value(), None);
        for _ in 0..100 {
            e.push(7.0);
        }
        assert!((e.value().expect("seeded") - 7.0).abs() < 1e-9);
    }

    #[test]
    fn ewma_tracks_recent_values_more() {
        let mut fast = Ewma::new(0.9);
        let mut slow = Ewma::new(0.1);
        for _ in 0..10 {
            fast.push(0.0);
            slow.push(0.0);
        }
        fast.push(10.0);
        slow.push(10.0);
        assert!(fast.value().expect("seeded") > slow.value().expect("seeded"));
    }

    #[test]
    fn sliding_window_evicts_fifo() {
        let mut w = SlidingWindow::new(3);
        for v in [1.0, 2.0, 3.0, 4.0] {
            w.push(v);
        }
        assert_eq!(w.iter().collect::<Vec<_>>(), vec![2.0, 3.0, 4.0]);
        assert!(w.is_full());
        assert_eq!(w.mean(), 3.0);
        assert_eq!(w.min(), Some(2.0));
        assert_eq!(w.max(), Some(4.0));
    }

    #[test]
    fn sliding_window_empty_queries() {
        let w = SlidingWindow::new(4);
        assert!(w.is_empty());
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.min(), None);
        assert_eq!(w.max(), None);
    }

    #[test]
    #[should_panic(expected = "alpha must be in (0, 1]")]
    fn ewma_rejects_bad_alpha() {
        let _ = Ewma::new(0.0);
    }
}
