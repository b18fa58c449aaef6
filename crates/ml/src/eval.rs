//! Evaluation utilities: confusion counting and detection quality.
//!
//! The virtual testbed injects faults with ground truth
//! (`ifot_sensors::inject`); these helpers turn detector outputs plus
//! that ground truth into honest precision/recall numbers for the
//! examples and tests.

/// Binary confusion counts with the derived quality metrics.
///
/// ```
/// use ifot_ml::eval::BinaryConfusion;
///
/// let mut c = BinaryConfusion::new();
/// c.record(true, true);   // hit
/// c.record(true, false);  // miss
/// c.record(false, false); // correct reject
/// c.record(false, true);  // false alarm
/// assert_eq!(c.precision(), 0.5);
/// assert_eq!(c.recall(), 0.5);
/// assert_eq!(c.accuracy(), 0.5);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BinaryConfusion {
    /// Positive truth, positive prediction.
    pub true_positives: u64,
    /// Negative truth, positive prediction.
    pub false_positives: u64,
    /// Positive truth, negative prediction.
    pub false_negatives: u64,
    /// Negative truth, negative prediction.
    pub true_negatives: u64,
}

impl BinaryConfusion {
    /// Creates empty counts.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one `(truth, prediction)` pair.
    pub fn record(&mut self, truth: bool, prediction: bool) {
        match (truth, prediction) {
            (true, true) => self.true_positives += 1,
            (false, true) => self.false_positives += 1,
            (true, false) => self.false_negatives += 1,
            (false, false) => self.true_negatives += 1,
        }
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.true_positives + self.false_positives + self.false_negatives + self.true_negatives
    }

    /// TP / (TP + FP); 0 when nothing was predicted positive.
    pub fn precision(&self) -> f64 {
        let denom = self.true_positives + self.false_positives;
        if denom == 0 {
            0.0
        } else {
            self.true_positives as f64 / denom as f64
        }
    }

    /// TP / (TP + FN); 0 when nothing was truly positive.
    pub fn recall(&self) -> f64 {
        let denom = self.true_positives + self.false_negatives;
        if denom == 0 {
            0.0
        } else {
            self.true_positives as f64 / denom as f64
        }
    }

    /// Harmonic mean of precision and recall (0 when both are 0).
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// (TP + TN) / total; 0 when empty.
    pub fn accuracy(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            (self.true_positives + self.true_negatives) as f64 / total as f64
        }
    }

    /// Merges another confusion into this one.
    pub fn merge(&mut self, other: &BinaryConfusion) {
        self.true_positives += other.true_positives;
        self.false_positives += other.false_positives;
        self.false_negatives += other.false_negatives;
        self.true_negatives += other.true_negatives;
    }
}

impl core::fmt::Display for BinaryConfusion {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "precision {:.3} recall {:.3} f1 {:.3} (tp {} fp {} fn {} tn {})",
            self.precision(),
            self.recall(),
            self.f1(),
            self.true_positives,
            self.false_positives,
            self.false_negatives,
            self.true_negatives
        )
    }
}

/// Multiclass accuracy counter for classifier evaluation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AccuracyCounter {
    correct: u64,
    total: u64,
}

impl AccuracyCounter {
    /// Creates an empty counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one prediction against the truth.
    pub fn record(&mut self, truth: &str, prediction: Option<&str>) {
        self.total += 1;
        if prediction == Some(truth) {
            self.correct += 1;
        }
    }

    /// Fraction correct (0 when empty).
    pub fn accuracy(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.correct as f64 / self.total as f64
        }
    }

    /// Observations recorded.
    pub fn total(&self) -> u64 {
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_detector_scores_one() {
        let mut c = BinaryConfusion::new();
        for _ in 0..10 {
            c.record(true, true);
            c.record(false, false);
        }
        assert_eq!(c.precision(), 1.0);
        assert_eq!(c.recall(), 1.0);
        assert_eq!(c.f1(), 1.0);
        assert_eq!(c.accuracy(), 1.0);
        assert_eq!(c.total(), 20);
    }

    #[test]
    fn silent_detector_has_zero_recall() {
        let mut c = BinaryConfusion::new();
        c.record(true, false);
        c.record(false, false);
        assert_eq!(c.recall(), 0.0);
        assert_eq!(c.precision(), 0.0, "no positive predictions");
        assert_eq!(c.f1(), 0.0);
        assert_eq!(c.accuracy(), 0.5);
    }

    #[test]
    fn trigger_happy_detector_has_low_precision() {
        let mut c = BinaryConfusion::new();
        c.record(true, true);
        for _ in 0..9 {
            c.record(false, true);
        }
        assert_eq!(c.precision(), 0.1);
        assert_eq!(c.recall(), 1.0);
        assert!(c.f1() > 0.0 && c.f1() < 0.2);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = BinaryConfusion::new();
        a.record(true, true);
        let mut b = BinaryConfusion::new();
        b.record(false, true);
        a.merge(&b);
        assert_eq!(a.true_positives, 1);
        assert_eq!(a.false_positives, 1);
        assert_eq!(a.precision(), 0.5);
    }

    #[test]
    fn empty_confusion_is_all_zero() {
        let c = BinaryConfusion::new();
        assert_eq!(c.precision(), 0.0);
        assert_eq!(c.recall(), 0.0);
        assert_eq!(c.f1(), 0.0);
        assert_eq!(c.accuracy(), 0.0);
        assert!(!c.to_string().is_empty());
    }

    #[test]
    fn accuracy_counter_counts() {
        let mut a = AccuracyCounter::new();
        a.record("x", Some("x"));
        a.record("x", Some("y"));
        a.record("x", None);
        assert_eq!(a.total(), 3);
        assert!((a.accuracy() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(AccuracyCounter::new().accuracy(), 0.0);
    }
}
