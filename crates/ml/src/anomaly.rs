//! Streaming anomaly detection — the Jubatus `anomaly` service
//! substitute.
//!
//! Three detectors with different trade-offs:
//!
//! * [`RunningZScore`] — scalar streams, O(1) memory; flags values far
//!   from the running mean in units of the running standard deviation.
//! * [`MahalanobisDetector`] — multivariate datums with a diagonal
//!   covariance estimate; O(features) memory.
//! * [`WindowedLof`] — a sliding-window Local Outlier Factor: density-based,
//!   catches anomalies that are not extreme in any single coordinate (the
//!   algorithm family Jubatus' anomaly service uses).

use std::collections::VecDeque;

use crate::feature::FeatureVector;
use crate::stat::RunningStats;

/// Scalar z-score detector.
///
/// ```
/// use ifot_ml::anomaly::RunningZScore;
///
/// let mut d = RunningZScore::new(3.0);
/// for i in 0..100 {
///     d.observe(10.0 + 0.1 * ((i % 7) as f64 - 3.0));
/// }
/// assert!(!d.is_anomalous(10.1));
/// assert!(d.is_anomalous(17.0));
/// ```
#[derive(Debug, Clone)]
pub struct RunningZScore {
    stats: RunningStats,
    threshold: f64,
}

impl RunningZScore {
    /// Creates a detector flagging values beyond `threshold` standard
    /// deviations.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is not strictly positive.
    pub fn new(threshold: f64) -> Self {
        assert!(
            threshold.is_finite() && threshold > 0.0,
            "threshold must be positive"
        );
        RunningZScore {
            stats: RunningStats::new(),
            threshold,
        }
    }

    /// Consumes one value into the running statistics.
    pub fn observe(&mut self, value: f64) {
        self.stats.push(value);
    }

    /// The z-score of `value` under the running estimate (0 until at
    /// least two observations).
    pub fn score(&self, value: f64) -> f64 {
        let sd = self.stats.std_dev();
        if self.stats.count() < 2 || sd == 0.0 {
            0.0
        } else {
            ((value - self.stats.mean()) / sd).abs()
        }
    }

    /// Whether `value` exceeds the configured threshold.
    pub fn is_anomalous(&self, value: f64) -> bool {
        self.score(value) > self.threshold
    }

    /// Observations consumed so far.
    pub fn count(&self) -> u64 {
        self.stats.count()
    }
}

/// Consecutive flags after which a [`ContaminationGuard`] lets flagged
/// samples into the baseline again.
pub const GUARD_RELEASE_RUN: u32 = 32;

/// Decides which scored samples a running detector may learn from.
///
/// A flagged sample is withheld, so an anomaly does not teach the detector
/// that it is normal. Withholding alone latches: if the signal's level
/// has moved past the threshold by the time an episode ends, every later
/// sample is flagged, none is absorbed and the estimate never catches up.
/// So more than [`GUARD_RELEASE_RUN`] flags in a row count as a level
/// shift rather than an episode, and flagged samples are absorbed until
/// one scores under the threshold again.
///
/// ```
/// use ifot_ml::anomaly::{ContaminationGuard, GUARD_RELEASE_RUN};
///
/// let mut guard = ContaminationGuard::default();
/// assert!(guard.absorbs(false));
/// for _ in 0..GUARD_RELEASE_RUN {
///     assert!(!guard.absorbs(true));
/// }
/// assert!(guard.absorbs(true));
/// ```
#[derive(Debug, Clone, Default)]
pub struct ContaminationGuard {
    flagged_run: u32,
}

impl ContaminationGuard {
    /// Whether the sample just scored goes into the baseline, given
    /// whether it was flagged.
    pub fn absorbs(&mut self, flagged: bool) -> bool {
        if flagged {
            self.flagged_run = self.flagged_run.saturating_add(1);
            self.flagged_run > GUARD_RELEASE_RUN
        } else {
            self.flagged_run = 0;
            true
        }
    }
}

/// Multivariate detector with a per-dimension (diagonal) variance
/// estimate; the score is the normalized Mahalanobis distance.
#[derive(Debug, Clone, Default)]
pub struct MahalanobisDetector {
    dims: std::collections::BTreeMap<u32, RunningStats>,
    count: u64,
}

impl MahalanobisDetector {
    /// Creates an empty detector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes one observation.
    pub fn observe(&mut self, x: &FeatureVector) {
        self.count += 1;
        for (i, v) in x.iter() {
            self.dims.entry(i).or_default().push(v);
        }
    }

    /// Root-mean-square of per-dimension z-scores (0 until two
    /// observations). Dimensions never seen score as 0.
    pub fn score(&self, x: &FeatureVector) -> f64 {
        if self.count < 2 {
            return 0.0;
        }
        let mut sum = 0.0;
        let mut n = 0usize;
        for (i, v) in x.iter() {
            if let Some(stats) = self.dims.get(&i) {
                let sd = stats.std_dev();
                if sd > 0.0 && stats.count() >= 2 {
                    let z = (v - stats.mean()) / sd;
                    sum += z * z;
                    n += 1;
                }
            }
        }
        if n == 0 {
            0.0
        } else {
            (sum / n as f64).sqrt()
        }
    }

    /// Observations consumed so far.
    pub fn count(&self) -> u64 {
        self.count
    }
}

/// Sliding-window Local Outlier Factor.
///
/// Keeps the last `window` observations; the score of a query point is the
/// ratio of its average k-nearest-neighbour distance to the average
/// k-NN distance among its neighbours — ≈1 for inliers, ≫1 for outliers.
#[derive(Debug, Clone)]
pub struct WindowedLof {
    window: VecDeque<FeatureVector>,
    capacity: usize,
    k: usize,
}

impl WindowedLof {
    /// Creates a detector with the given window capacity and neighbour
    /// count `k`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`, `k == 0`, or `k >= capacity`.
    pub fn new(capacity: usize, k: usize) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        assert!(k > 0 && k < capacity, "k must be in 1..capacity");
        WindowedLof {
            window: VecDeque::with_capacity(capacity),
            capacity,
            k,
        }
    }

    /// Consumes one observation, evicting the oldest beyond capacity.
    pub fn observe(&mut self, x: FeatureVector) {
        if self.window.len() == self.capacity {
            self.window.pop_front();
        }
        self.window.push_back(x);
    }

    /// Observations currently in the window.
    pub fn len(&self) -> usize {
        self.window.len()
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.window.is_empty()
    }

    fn knn_distance(&self, x: &FeatureVector, skip: Option<usize>) -> f64 {
        let mut dists: Vec<f64> = self
            .window
            .iter()
            .enumerate()
            .filter(|(i, _)| Some(*i) != skip)
            .map(|(_, p)| x.distance(p))
            .collect();
        dists.sort_by(|a, b| a.partial_cmp(b).expect("finite distances"));
        let k = self.k.min(dists.len());
        if k == 0 {
            return 0.0;
        }
        dists[..k].iter().sum::<f64>() / k as f64
    }

    /// LOF-style score of `x` against the window: ~1 is normal, larger is
    /// more anomalous. Returns 1.0 while fewer than `k + 1` points are
    /// stored (not enough context to judge).
    pub fn score(&self, x: &FeatureVector) -> f64 {
        if self.window.len() <= self.k {
            return 1.0;
        }
        let own = self.knn_distance(x, None);
        if own == 0.0 {
            return 1.0;
        }
        // Average k-NN distance of the window members themselves.
        let mut neighbour_avg = 0.0;
        for i in 0..self.window.len() {
            neighbour_avg += self.knn_distance(&self.window[i], Some(i));
        }
        neighbour_avg /= self.window.len() as f64;
        if neighbour_avg == 0.0 {
            // Degenerate cluster: any distance is infinitely surprising.
            return f64::INFINITY;
        }
        own / neighbour_avg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fv(values: &[f64]) -> FeatureVector {
        FeatureVector::from_dense(values)
    }

    #[test]
    fn zscore_flags_outliers_only() {
        let mut d = RunningZScore::new(3.0);
        for i in 0..1000 {
            d.observe(5.0 + ((i * 37) % 100) as f64 / 100.0);
        }
        assert!(!d.is_anomalous(5.5));
        assert!(d.is_anomalous(50.0));
        assert!(d.score(50.0) > d.score(6.0));
    }

    #[test]
    fn zscore_cold_start_is_silent() {
        let mut d = RunningZScore::new(3.0);
        assert_eq!(d.score(100.0), 0.0);
        d.observe(1.0);
        assert!(!d.is_anomalous(100.0));
        assert_eq!(d.count(), 1);
    }

    #[test]
    fn zscore_constant_stream_never_divides_by_zero() {
        let mut d = RunningZScore::new(3.0);
        for _ in 0..10 {
            d.observe(2.0);
        }
        assert_eq!(d.score(2.0), 0.0);
        assert_eq!(d.score(99.0), 0.0); // sd == 0 -> undefined, treated as 0
    }

    #[test]
    fn mahalanobis_accounts_for_scale_per_dimension() {
        let mut d = MahalanobisDetector::new();
        // Dimension 0 varies widely, dimension 1 barely.
        for i in 0..200 {
            let a = (i % 20) as f64; // 0..19
            let b = 5.0 + ((i % 3) as f64) * 0.01;
            d.observe(&fv(&[a, b]));
        }
        // A large deviation in the tight dimension scores much higher than
        // the same absolute deviation in the loose one.
        let loose = d.score(&fv(&[25.0, 5.0]));
        let tight = d.score(&fv(&[10.0, 11.0]));
        assert!(tight > loose, "tight {tight} loose {loose}");
    }

    #[test]
    fn mahalanobis_cold_start() {
        let d = MahalanobisDetector::new();
        assert_eq!(d.score(&fv(&[1.0])), 0.0);
        assert_eq!(d.count(), 0);
    }

    #[test]
    fn lof_scores_cluster_members_near_one() {
        let mut d = WindowedLof::new(64, 3);
        for i in 0..40 {
            let a = (i % 7) as f64 * 0.1;
            let b = (i % 5) as f64 * 0.1;
            d.observe(fv(&[a, b]));
        }
        let inlier = d.score(&fv(&[0.2, 0.2]));
        let outlier = d.score(&fv(&[10.0, 10.0]));
        assert!(inlier < 2.0, "inlier score {inlier}");
        assert!(outlier > 5.0, "outlier score {outlier}");
    }

    #[test]
    fn lof_window_evicts_old_points() {
        let mut d = WindowedLof::new(8, 2);
        for _ in 0..8 {
            d.observe(fv(&[0.0]));
        }
        assert_eq!(d.len(), 8);
        for _ in 0..8 {
            d.observe(fv(&[100.0]));
        }
        assert_eq!(d.len(), 8);
        // The old cluster is gone: 100 is now normal, 0 is anomalous.
        assert!(d.score(&fv(&[100.0])).is_finite());
        let old = d.score(&fv(&[0.0]));
        assert!(old > 1.0 || old.is_infinite());
    }

    #[test]
    fn lof_cold_start_returns_neutral() {
        let mut d = WindowedLof::new(16, 3);
        assert_eq!(d.score(&fv(&[5.0])), 1.0);
        d.observe(fv(&[0.0]));
        assert_eq!(d.score(&fv(&[5.0])), 1.0);
        assert!(!d.is_empty());
    }

    #[test]
    #[should_panic(expected = "k must be in 1..capacity")]
    fn lof_rejects_bad_k() {
        let _ = WindowedLof::new(4, 4);
    }
}
