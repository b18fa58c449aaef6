//! Name-keyed model runtime — the plug-in surface the middleware's
//! stream operators use to host ML models.
//!
//! Recipes name algorithms as strings (`"pa"`, `"zscore"`, ...); the
//! executor resolves the name once, here, and from then on drives the
//! model through the uniform [`AnyClassifier`] / [`AnyDetector`]
//! surface. This keeps `ifot-core` free of per-algorithm knowledge: a
//! new learner is added by extending these enums, not by editing the
//! operator dispatch.

use std::borrow::Borrow;

use crate::anomaly::{MahalanobisDetector, RunningZScore, WindowedLof};
use crate::classifier::{Arow, OnlineClassifier, PassiveAggressive, Perceptron};
use crate::feature::{Datum, FeatureVector, DEFAULT_DIMENSIONS};
use crate::mix::ModelDiff;

/// A concrete classifier selected by algorithm name.
#[derive(Debug, Clone)]
pub enum AnyClassifier {
    /// Multiclass perceptron.
    Perceptron(Perceptron),
    /// Passive-Aggressive (PA-I).
    Pa(PassiveAggressive),
    /// AROW.
    Arow(Arow),
}

impl AnyClassifier {
    /// Builds a model from its algorithm name (`perceptron`, `pa`,
    /// `arow`); unknown names fall back to PA (logged by callers).
    pub fn by_name(name: &str) -> AnyClassifier {
        match name {
            "perceptron" => AnyClassifier::Perceptron(Perceptron::new()),
            "arow" => AnyClassifier::Arow(Arow::default()),
            _ => AnyClassifier::Pa(PassiveAggressive::default()),
        }
    }

    fn model(&self) -> &dyn OnlineClassifier {
        match self {
            AnyClassifier::Perceptron(m) => m,
            AnyClassifier::Pa(m) => m,
            AnyClassifier::Arow(m) => m,
        }
    }

    fn model_mut(&mut self) -> &mut dyn OnlineClassifier {
        match self {
            AnyClassifier::Perceptron(m) => m,
            AnyClassifier::Pa(m) => m,
            AnyClassifier::Arow(m) => m,
        }
    }

    /// Trains on one example.
    pub fn train(&mut self, x: &FeatureVector, label: &str) {
        self.model_mut().train(x, label);
    }

    /// Classifies one example.
    pub fn classify(&self, x: &FeatureVector) -> Option<String> {
        self.model().classify(x)
    }

    /// Trains on a batch of examples in order, resolving the algorithm
    /// once per batch instead of once per example — the Jubatus-style
    /// joined-batch `train` RPC the paper's cost model charges as a
    /// single call. Model state afterwards is identical to calling
    /// [`AnyClassifier::train`] per example. The vectors may be borrowed
    /// or handed over as they are built.
    pub fn train_batch<'a, X: Borrow<FeatureVector>>(
        &mut self,
        examples: impl IntoIterator<Item = (X, &'a str)>,
    ) {
        let model = self.model_mut();
        for (x, label) in examples {
            model.train(x.borrow(), label);
        }
    }

    /// Classifies a batch of examples in order (one resolution, one
    /// batched `classify` call). Results are identical to calling
    /// [`AnyClassifier::classify`] per example.
    pub fn classify_batch(&self, xs: &[FeatureVector]) -> Vec<Option<String>> {
        let model = self.model();
        xs.iter().map(|x| model.classify(x)).collect()
    }

    /// Examples consumed.
    pub fn examples_seen(&self) -> u64 {
        self.model().examples_seen()
    }

    /// Exports parameters for MIX.
    pub fn export_diff(&self) -> ModelDiff {
        self.model().export_diff()
    }

    /// Imports mixed parameters.
    pub fn import_diff(&mut self, diff: &ModelDiff) {
        self.model_mut().import_diff(diff);
    }
}

/// A streaming anomaly detector selected by name.
#[derive(Debug)]
pub enum AnyDetector {
    /// Scalar z-score on the sum of datum values.
    ZScore(RunningZScore),
    /// Diagonal Mahalanobis over the hashed vector.
    Mahalanobis(MahalanobisDetector),
    /// Windowed LOF over the hashed vector.
    Lof(WindowedLof),
}

impl AnyDetector {
    /// Builds a detector from its name (`zscore`, `mahalanobis`, `lof`);
    /// unknown names fall back to z-score.
    pub fn by_name(name: &str) -> AnyDetector {
        match name {
            "mahalanobis" => AnyDetector::Mahalanobis(MahalanobisDetector::new()),
            "lof" => AnyDetector::Lof(WindowedLof::new(64, 5)),
            _ => AnyDetector::ZScore(RunningZScore::new(1.0)),
        }
    }

    fn scalar(datum: &Datum) -> f64 {
        datum.iter().map(|(_, v)| v).sum()
    }

    /// Scores an item against the current baseline.
    pub fn score(&self, datum: &Datum) -> f64 {
        match self {
            AnyDetector::ZScore(d) => d.score(Self::scalar(datum)),
            AnyDetector::Mahalanobis(d) => d.score(&datum.to_vector(DEFAULT_DIMENSIONS)),
            AnyDetector::Lof(d) => d.score(&datum.to_vector(DEFAULT_DIMENSIONS)),
        }
    }

    /// Absorbs an item into the baseline. Callers should skip this for
    /// items they flagged — learning from anomalies drags the baseline
    /// toward them and silences the detector for the rest of a sustained
    /// episode (contamination).
    pub fn observe(&mut self, datum: &Datum) {
        match self {
            AnyDetector::ZScore(d) => d.observe(Self::scalar(datum)),
            AnyDetector::Mahalanobis(d) => d.observe(&datum.to_vector(DEFAULT_DIMENSIONS)),
            AnyDetector::Lof(d) => d.observe(datum.to_vector(DEFAULT_DIMENSIONS)),
        }
    }

    /// Scores an item, then absorbs it unconditionally (callers that
    /// handle contamination themselves should use [`AnyDetector::score`]
    /// and [`AnyDetector::observe`] separately).
    pub fn score_and_observe(&mut self, datum: &Datum) -> f64 {
        let score = self.score(datum);
        self.observe(datum);
        score
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifier_names_resolve() {
        assert!(matches!(
            AnyClassifier::by_name("perceptron"),
            AnyClassifier::Perceptron(_)
        ));
        assert!(matches!(
            AnyClassifier::by_name("arow"),
            AnyClassifier::Arow(_)
        ));
        assert!(matches!(
            AnyClassifier::by_name("anything"),
            AnyClassifier::Pa(_)
        ));
    }

    #[test]
    fn detector_names_resolve() {
        assert!(matches!(
            AnyDetector::by_name("mahalanobis"),
            AnyDetector::Mahalanobis(_)
        ));
        assert!(matches!(AnyDetector::by_name("lof"), AnyDetector::Lof(_)));
        assert!(matches!(
            AnyDetector::by_name("anything"),
            AnyDetector::ZScore(_)
        ));
    }

    #[test]
    fn classifier_round_trips_through_diff() {
        let mut a = AnyClassifier::by_name("pa");
        let hot = Datum::new().with("t", 30.0).to_vector(DEFAULT_DIMENSIONS);
        let cold = Datum::new().with("t", -5.0).to_vector(DEFAULT_DIMENSIONS);
        for _ in 0..10 {
            a.train(&hot, "hot");
            a.train(&cold, "cold");
        }
        let mut b = AnyClassifier::by_name("pa");
        b.import_diff(&a.export_diff());
        assert_eq!(b.classify(&hot).as_deref(), Some("hot"));
    }

    #[test]
    fn detector_scores_and_observes() {
        let mut d = AnyDetector::by_name("zscore");
        for i in 0..50 {
            d.observe(&Datum::new().with("v", 10.0 + (i % 3) as f64 * 0.1));
        }
        let spike = Datum::new().with("v", 500.0);
        assert!(d.score(&spike) > 3.0);
        let normal = Datum::new().with("v", 10.0);
        assert!(d.score_and_observe(&normal) < 3.0);
    }
}
