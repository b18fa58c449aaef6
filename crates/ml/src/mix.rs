//! MIX — Jubatus-style distributed model averaging.
//!
//! In Jubatus, nodes train local models and periodically run a *MIX*: each
//! node exports its parameters, a coordinator averages them, and the
//! average is pushed back to every node. IFoT's *Managing class* uses the
//! same scheme to keep distributed learners consistent. The exported
//! [`ModelDiff`] travels as an MQTT payload; `ifot-core`'s wire codec
//! frames it through [`ModelDiff::iter`] and [`ModelDiff::from_parts`].

use std::collections::BTreeMap;

use crate::feature::SparseWeights;

/// A snapshot of a linear model's parameters
/// (label → sparse weights).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ModelDiff {
    weights: BTreeMap<String, SparseWeights>,
}

impl ModelDiff {
    /// Creates an empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of labels in the snapshot.
    pub fn label_count(&self) -> usize {
        self.weights.len()
    }

    /// The weights for one label, if present.
    pub fn label(&self, label: &str) -> Option<&SparseWeights> {
        self.weights.get(label)
    }

    /// Iterates over labels in order.
    pub fn labels(&self) -> impl Iterator<Item = &str> {
        self.weights.keys().map(String::as_str)
    }

    /// Builds a snapshot from explicit per-label weights — the inverse
    /// of [`ModelDiff::iter`], used by the wire codec.
    pub fn from_parts(weights: impl IntoIterator<Item = (String, SparseWeights)>) -> Self {
        ModelDiff {
            weights: weights.into_iter().collect(),
        }
    }

    /// Iterates over `(label, weights)` pairs in label order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &SparseWeights)> {
        self.weights.iter().map(|(k, v)| (k.as_str(), v))
    }
}

/// Anything with per-label linear weights that can participate in a MIX.
///
/// Implemented by the classifiers and the linear regressor. The default
/// `export`/`import` methods snapshot and replace the weights.
pub trait LinearModel {
    /// Immutable view of the per-label weights.
    fn weights(&self) -> &BTreeMap<String, SparseWeights>;

    /// Mutable view of the per-label weights.
    fn weights_mut(&mut self) -> &mut BTreeMap<String, SparseWeights>;

    /// Exports the current parameters.
    fn export_diff(&self) -> ModelDiff {
        ModelDiff {
            weights: self.weights().clone(),
        }
    }

    /// Replaces the parameters with a mixed snapshot.
    fn import_diff(&mut self, diff: &ModelDiff) {
        *self.weights_mut() = diff.weights.clone();
    }
}

/// Averages a non-empty set of snapshots — the MIX reduce step.
///
/// Labels missing from some snapshots are averaged over **all** snapshots
/// (absent = zero weights), matching iterative parameter mixing.
///
/// Returns `None` for an empty input.
///
/// ```
/// use ifot_ml::classifier::{OnlineClassifier, Perceptron};
/// use ifot_ml::feature::FeatureVector;
/// use ifot_ml::mix::{mix_average, LinearModel};
///
/// let mut a = Perceptron::new();
/// let mut b = Perceptron::new();
/// a.train(&FeatureVector::from_pairs(vec![(0, 1.0)]), "x");
/// b.train(&FeatureVector::from_pairs(vec![(1, 1.0)]), "x");
/// let avg = mix_average(&[a.export_diff(), b.export_diff()]).expect("non-empty");
/// a.import_diff(&avg);
/// b.import_diff(&avg);
/// assert_eq!(a.export_diff(), b.export_diff());
/// ```
pub fn mix_average(diffs: &[ModelDiff]) -> Option<ModelDiff> {
    if diffs.is_empty() {
        return None;
    }
    let n = diffs.len() as f64;
    let mut labels: Vec<&str> = diffs.iter().flat_map(|d| d.labels()).collect();
    labels.sort_unstable();
    labels.dedup();

    let mut out = BTreeMap::new();
    for label in labels {
        let mut acc: BTreeMap<u32, f64> = BTreeMap::new();
        for diff in diffs {
            if let Some(w) = diff.label(label) {
                for (i, v) in w.iter() {
                    *acc.entry(i).or_insert(0.0) += v;
                }
            }
        }
        let averaged: SparseWeights = acc.into_iter().map(|(i, v)| (i, v / n)).collect();
        out.insert(label.to_owned(), averaged);
    }
    Some(ModelDiff { weights: out })
}

/// Round counter and bookkeeping for a MIX coordinator (the IFoT
/// *Managing class* holds one of these).
#[derive(Debug, Clone, Default)]
pub struct MixCoordinator {
    pending: Vec<ModelDiff>,
    expected: usize,
    rounds_completed: u64,
}

impl MixCoordinator {
    /// Creates a coordinator expecting `expected` participants per round.
    ///
    /// # Panics
    ///
    /// Panics if `expected` is zero.
    pub fn new(expected: usize) -> Self {
        assert!(expected > 0, "a mix round needs at least one participant");
        MixCoordinator {
            pending: Vec::new(),
            expected,
            rounds_completed: 0,
        }
    }

    /// Number of snapshots collected in the current round.
    pub fn collected(&self) -> usize {
        self.pending.len()
    }

    /// Completed rounds so far.
    pub fn rounds_completed(&self) -> u64 {
        self.rounds_completed
    }

    /// Adds one participant's snapshot. When the round is complete, the
    /// averaged model is returned and a new round begins.
    pub fn offer(&mut self, diff: ModelDiff) -> Option<ModelDiff> {
        self.pending.push(diff);
        if self.pending.len() >= self.expected {
            let avg = mix_average(&self.pending).expect("round is non-empty");
            self.pending.clear();
            self.rounds_completed += 1;
            Some(avg)
        } else {
            None
        }
    }

    /// Abandons the current round (e.g. a participant died).
    pub fn reset_round(&mut self) {
        self.pending.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::{OnlineClassifier, PassiveAggressive, Perceptron};
    use crate::feature::FeatureVector;

    fn x(pairs: Vec<(u32, f64)>) -> FeatureVector {
        FeatureVector::from_pairs(pairs)
    }

    #[test]
    fn averaging_two_disjoint_models() {
        let mut a = Perceptron::new();
        let mut b = Perceptron::new();
        a.train(&x(vec![(0, 2.0)]), "l");
        b.train(&x(vec![(1, 4.0)]), "l");
        let avg = mix_average(&[a.export_diff(), b.export_diff()]).expect("non-empty");
        let w = avg.label("l").expect("label present");
        assert_eq!(w.get(0), 1.0);
        assert_eq!(w.get(1), 2.0);
    }

    #[test]
    fn empty_input_yields_none() {
        assert_eq!(mix_average(&[]), None);
    }

    #[test]
    fn label_union_is_used() {
        let mut a = Perceptron::new();
        let mut b = Perceptron::new();
        a.train(&x(vec![(0, 1.0)]), "only-a");
        b.train(&x(vec![(0, 1.0)]), "only-b");
        let avg = mix_average(&[a.export_diff(), b.export_diff()]).expect("non-empty");
        assert_eq!(avg.label_count(), 2);
        // Each label averaged over both nodes: weight halves.
        assert_eq!(avg.label("only-a").expect("present").get(0), 0.5);
    }

    #[test]
    fn import_synchronizes_models() {
        let mut a = PassiveAggressive::default();
        let mut b = PassiveAggressive::default();
        a.train(&x(vec![(0, 1.0)]), "p");
        a.train(&x(vec![(0, -1.0)]), "n");
        b.train(&x(vec![(1, 1.0)]), "p");
        let avg = mix_average(&[a.export_diff(), b.export_diff()]).expect("non-empty");
        a.import_diff(&avg);
        b.import_diff(&avg);
        let probe = x(vec![(0, 1.0), (1, 1.0)]);
        assert_eq!(a.scores(&probe), b.scores(&probe));
    }

    #[test]
    fn mixed_model_still_classifies() {
        // Train two nodes on different halves of a separable problem and
        // verify the mixed model solves both halves.
        let mut a = PassiveAggressive::default();
        let mut b = PassiveAggressive::default();
        for _ in 0..20 {
            a.train(&x(vec![(0, 1.0)]), "pos");
            a.train(&x(vec![(1, 1.0)]), "neg");
            b.train(&x(vec![(2, 1.0)]), "pos");
            b.train(&x(vec![(3, 1.0)]), "neg");
        }
        let avg = mix_average(&[a.export_diff(), b.export_diff()]).expect("non-empty");
        a.import_diff(&avg);
        assert_eq!(a.classify(&x(vec![(0, 1.0)])).as_deref(), Some("pos"));
        assert_eq!(a.classify(&x(vec![(3, 1.0)])).as_deref(), Some("neg"));
    }

    #[test]
    fn coordinator_completes_rounds() {
        let mut c = MixCoordinator::new(3);
        let mut m = Perceptron::new();
        m.train(&x(vec![(0, 3.0)]), "l");
        assert!(c.offer(m.export_diff()).is_none());
        assert!(c.offer(m.export_diff()).is_none());
        assert_eq!(c.collected(), 2);
        let avg = c.offer(m.export_diff()).expect("round complete");
        assert_eq!(c.rounds_completed(), 1);
        assert_eq!(c.collected(), 0);
        // Average of three identical models is the model itself.
        assert_eq!(avg, m.export_diff());
    }

    #[test]
    fn coordinator_reset_round_drops_partial_state() {
        let mut c = MixCoordinator::new(2);
        let m = Perceptron::new();
        assert!(c.offer(m.export_diff()).is_none());
        c.reset_round();
        assert_eq!(c.collected(), 0);
        assert!(c.offer(m.export_diff()).is_none());
    }

    #[test]
    #[should_panic(expected = "at least one participant")]
    fn coordinator_rejects_zero_participants() {
        let _ = MixCoordinator::new(0);
    }

    #[test]
    fn diff_parts_round_trip() {
        let mut m = Perceptron::new();
        m.train(&x(vec![(3, 2.0)]), "a");
        m.train(&x(vec![(5, -1.0)]), "b");
        let diff = m.export_diff();
        let rebuilt =
            ModelDiff::from_parts(diff.iter().map(|(label, w)| (label.to_owned(), w.clone())));
        assert_eq!(rebuilt, diff);
    }
}
