//! Online multiclass linear classifiers — the Jubatus `classifier` service
//! substitute.
//!
//! All learners keep one sparse weight vector per label and classify by
//! argmax score. Updates follow the standard online multiclass recipe:
//! compare the true label's score against the strongest rival and, when
//! the margin is insufficient, move the true label's weights towards the
//! example and the rival's away from it.
//!
//! Implemented algorithms (the same set Jubatus ships for linear
//! classification): Perceptron, Passive-Aggressive (PA, PA-I, PA-II) and
//! AROW.

use std::collections::BTreeMap;

use crate::feature::{FeatureVector, SparseWeights};
use crate::mix::LinearModel;

/// A label with its score, as returned by [`OnlineClassifier::scores`].
#[derive(Debug, Clone, PartialEq)]
pub struct LabelScore {
    /// The candidate label.
    pub label: String,
    /// The linear score (higher is more likely).
    pub score: f64,
}

/// Common interface of the online classifiers: per-label linear weights
/// ([`LinearModel`]) plus an update rule.
pub trait OnlineClassifier: LinearModel {
    /// Updates the model with one labelled example.
    fn train(&mut self, x: &FeatureVector, label: &str);

    /// Scores every known label, sorted by descending score (ties broken
    /// by label for determinism).
    fn scores(&self, x: &FeatureVector) -> Vec<LabelScore> {
        let mut out: Vec<LabelScore> = self
            .weights()
            .iter()
            .map(|(label, w)| LabelScore {
                label: label.clone(),
                score: w.score(x),
            })
            .collect();
        out.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .expect("finite scores")
                .then_with(|| a.label.cmp(&b.label))
        });
        out
    }

    /// The best label, if any example has been seen: `scores(x)[0]`'s,
    /// found without building the list (only the winner is copied).
    fn classify(&self, x: &FeatureVector) -> Option<String> {
        strongest(self.weights().iter().map(|(label, w)| (label, w.score(x))))
            .map(|(label, _)| label.clone())
    }

    /// Labels the model has seen so far.
    fn labels(&self) -> Vec<String> {
        self.weights().keys().cloned().collect()
    }

    /// Number of training examples consumed.
    fn examples_seen(&self) -> u64;
}

/// The highest-scoring candidate; on a tie the first one wins, which for
/// candidates in label order (a `BTreeMap`'s) is the smallest label.
fn strongest<L>(scored: impl Iterator<Item = (L, f64)>) -> Option<(L, f64)> {
    scored.reduce(
        |best, next| match next.1.partial_cmp(&best.1).expect("finite scores") {
            core::cmp::Ordering::Greater => next,
            _ => best,
        },
    )
}

/// The weights stored under `label`, created empty when the label is new
/// (the one time its name is copied).
fn entry_mut<'a>(
    weights: &'a mut BTreeMap<String, SparseWeights>,
    label: &str,
) -> &'a mut SparseWeights {
    if !weights.contains_key(label) {
        weights.insert(label.to_owned(), SparseWeights::new());
    }
    weights.get_mut(label).expect("just ensured")
}

/// The weights of the known label `label` and, with its name and score,
/// those of its highest-scoring rival — as disjoint borrows, so an update
/// moves both without looking either up again.
fn own_and_rival<'a>(
    weights: &'a mut BTreeMap<String, SparseWeights>,
    x: &FeatureVector,
    label: &str,
) -> (
    &'a mut SparseWeights,
    Option<(&'a str, &'a mut SparseWeights, f64)>,
) {
    let mut own = None;
    let rival = strongest(weights.iter_mut().filter_map(|(l, w)| {
        if l == label {
            own = Some(w);
            return None;
        }
        let score = w.score(x);
        Some(((l.as_str(), w), score))
    }));
    (
        own.expect("the label was entered before the search"),
        rival.map(|((l, w), score)| (l, w, score)),
    )
}

/// The classic multiclass perceptron.
#[derive(Debug, Clone, Default)]
pub struct Perceptron {
    weights: BTreeMap<String, SparseWeights>,
    examples: u64,
}

impl Perceptron {
    /// Creates an empty model.
    pub fn new() -> Self {
        Self::default()
    }
}

impl OnlineClassifier for Perceptron {
    fn train(&mut self, x: &FeatureVector, label: &str) {
        self.examples += 1;
        entry_mut(&mut self.weights, label);
        let (own, rival) = own_and_rival(&mut self.weights, x, label);
        let own_score = own.score(x);
        match rival {
            Some((_, rival, rival_score)) if own_score <= rival_score => {
                own.add_scaled(x, 1.0);
                rival.add_scaled(x, -1.0);
            }
            None if own_score <= 0.0 => own.add_scaled(x, 1.0),
            _ => {}
        }
    }

    fn examples_seen(&self) -> u64 {
        self.examples
    }
}

impl LinearModel for Perceptron {
    fn weights(&self) -> &BTreeMap<String, SparseWeights> {
        &self.weights
    }
    fn weights_mut(&mut self) -> &mut BTreeMap<String, SparseWeights> {
        &mut self.weights
    }
}

/// Passive-Aggressive flavour: how aggressively updates are clipped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PaVariant {
    /// Unbounded step (original PA).
    #[default]
    Pa,
    /// Step clipped at the aggressiveness constant `C` (PA-I).
    PaI,
    /// Step smoothed by `C` (PA-II).
    PaII,
}

/// Multiclass Passive-Aggressive classifier (Crammer et al. 2006).
#[derive(Debug, Clone)]
pub struct PassiveAggressive {
    variant: PaVariant,
    c: f64,
    weights: BTreeMap<String, SparseWeights>,
    examples: u64,
}

impl PassiveAggressive {
    /// Creates a model with the given variant and aggressiveness `C`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is not strictly positive and finite.
    pub fn new(variant: PaVariant, c: f64) -> Self {
        assert!(
            c.is_finite() && c > 0.0,
            "aggressiveness must be positive, got {c}"
        );
        PassiveAggressive {
            variant,
            c,
            weights: BTreeMap::new(),
            examples: 0,
        }
    }

    /// The configured variant.
    pub fn variant(&self) -> PaVariant {
        self.variant
    }
}

impl Default for PassiveAggressive {
    fn default() -> Self {
        PassiveAggressive::new(PaVariant::PaI, 1.0)
    }
}

impl OnlineClassifier for PassiveAggressive {
    fn train(&mut self, x: &FeatureVector, label: &str) {
        self.examples += 1;
        entry_mut(&mut self.weights, label);
        let norm_sq = x.norm_sq();
        if norm_sq == 0.0 {
            return;
        }
        let (own, rival) = own_and_rival(&mut self.weights, x, label);
        let own_score = own.score(x);
        let Some((_, rival, rival_score)) = rival else {
            // First label ever: require unit margin against zero.
            let loss = (1.0 - own_score).max(0.0);
            if loss > 0.0 {
                own.add_scaled(x, self.variant.step(self.c, loss, norm_sq));
            }
            return;
        };
        let loss = (1.0 - (own_score - rival_score)).max(0.0);
        if loss > 0.0 {
            // The effective norm doubles because two vectors move.
            let tau = self.variant.step(self.c, loss, 2.0 * norm_sq);
            own.add_scaled(x, tau);
            rival.add_scaled(x, -tau);
        }
    }

    fn examples_seen(&self) -> u64 {
        self.examples
    }
}

impl PaVariant {
    fn step(self, c: f64, loss: f64, norm_sq: f64) -> f64 {
        match self {
            PaVariant::Pa => loss / norm_sq,
            PaVariant::PaI => (loss / norm_sq).min(c),
            PaVariant::PaII => loss / (norm_sq + 1.0 / (2.0 * c)),
        }
    }
}

impl LinearModel for PassiveAggressive {
    fn weights(&self) -> &BTreeMap<String, SparseWeights> {
        &self.weights
    }
    fn weights_mut(&mut self) -> &mut BTreeMap<String, SparseWeights> {
        &mut self.weights
    }
}

/// AROW — Adaptive Regularization of Weight Vectors (Crammer et al. 2009).
///
/// Keeps a per-label diagonal confidence matrix; frequently seen features
/// receive smaller updates, making the learner robust to label noise.
#[derive(Debug, Clone)]
pub struct Arow {
    r: f64,
    weights: BTreeMap<String, SparseWeights>,
    /// Diagonal confidence per label; absent entries read as 1.0.
    sigma: BTreeMap<String, SparseWeights>,
    examples: u64,
}

impl Arow {
    /// Creates a model with regularization `r` (Jubatus default 1.0).
    ///
    /// # Panics
    ///
    /// Panics if `r` is not strictly positive and finite.
    pub fn new(r: f64) -> Self {
        assert!(
            r.is_finite() && r > 0.0,
            "regularization must be positive, got {r}"
        );
        Arow {
            r,
            weights: BTreeMap::new(),
            sigma: BTreeMap::new(),
            examples: 0,
        }
    }

    fn sigma_get(sigma: &SparseWeights, index: u32) -> f64 {
        // Confidence defaults to 1.0 for unseen features; the sparse map
        // stores the *deviation* from 1.0 to stay compact.
        1.0 + sigma.get(index)
    }

    /// Confidence-weighted variance of x under a label's sigma.
    fn confidence(sigma: &SparseWeights, x: &FeatureVector) -> f64 {
        x.iter()
            .map(|(i, v)| Self::sigma_get(sigma, i) * v * v)
            .sum()
    }

    /// Moves one label's weights along `direction` and tightens its
    /// confidence.
    fn update(
        sigma: &mut SparseWeights,
        weights: &mut SparseWeights,
        x: &FeatureVector,
        direction: f64,
        beta: f64,
    ) {
        // w += direction * alpha * Sigma x   with alpha = loss * beta folded
        // into `beta` by the caller; Sigma is diagonal.
        for (i, v) in x.iter() {
            let s = Self::sigma_get(sigma, i);
            let w = weights.get(i) + direction * beta * s * v;
            weights.set(i, w);
            // Sigma update: s' = s - beta * s^2 * v^2 (keeps positivity
            // because beta <= 1 / (x' Sigma x + r)).
            let s_new = s - beta * s * s * v * v;
            sigma.set(i, s_new - 1.0);
        }
    }

    /// Minimum diagonal confidence across labels (test hook: must stay
    /// positive).
    pub fn min_confidence(&self) -> f64 {
        self.sigma
            .values()
            .flat_map(|s| s.iter().map(|(_, dev)| 1.0 + dev))
            .fold(f64::INFINITY, f64::min)
    }
}

impl Default for Arow {
    fn default() -> Self {
        Arow::new(1.0)
    }
}

impl OnlineClassifier for Arow {
    fn train(&mut self, x: &FeatureVector, label: &str) {
        self.examples += 1;
        entry_mut(&mut self.weights, label);
        entry_mut(&mut self.sigma, label);
        if x.norm_sq() == 0.0 {
            return;
        }
        let (own, rival) = own_and_rival(&mut self.weights, x, label);
        let own_score = own.score(x);
        let rival_score = rival.as_ref().map_or(0.0, |(_, _, score)| *score);
        let loss = (1.0 - (own_score - rival_score)).max(0.0);
        if loss <= 0.0 {
            return;
        }
        let beta = |sigma: &SparseWeights| 1.0 / (Self::confidence(sigma, x) + self.r);
        let own_sigma = entry_mut(&mut self.sigma, label);
        Self::update(own_sigma, own, x, loss, beta(own_sigma));
        if let Some((rival_label, rival, _)) = rival {
            let rival_sigma = entry_mut(&mut self.sigma, rival_label);
            Self::update(rival_sigma, rival, x, -loss, beta(rival_sigma));
        }
    }

    fn examples_seen(&self) -> u64 {
        self.examples
    }
}

impl LinearModel for Arow {
    fn weights(&self) -> &BTreeMap<String, SparseWeights> {
        &self.weights
    }
    fn weights_mut(&mut self) -> &mut BTreeMap<String, SparseWeights> {
        &mut self.weights
    }
}

/// Classifier algorithm selector, e.g. for recipes and configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Algorithm {
    /// [`Perceptron`].
    Perceptron,
    /// [`PassiveAggressive`] with PA-I clipping.
    #[default]
    PassiveAggressive,
    /// [`Arow`].
    Arow,
}

/// A boxed classifier constructed from an [`Algorithm`] tag.
pub fn build(algorithm: Algorithm) -> Box<dyn OnlineClassifier + Send> {
    match algorithm {
        Algorithm::Perceptron => Box::new(Perceptron::new()),
        Algorithm::PassiveAggressive => Box::new(PassiveAggressive::default()),
        Algorithm::Arow => Box::new(Arow::default()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feature::Datum;

    /// Two well-separated Gaussian-ish blobs, deterministic.
    fn blob_dataset() -> Vec<(FeatureVector, &'static str)> {
        let mut data = Vec::new();
        let mut seed = 1234u64;
        let mut noise = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) as f64 / (1u64 << 31) as f64) - 0.5
        };
        for _ in 0..200 {
            let a = Datum::new()
                .with("x", 2.0 + noise())
                .with("y", 2.0 + noise())
                .to_vector(1 << 12);
            data.push((a, "hot"));
            let b = Datum::new()
                .with("x", -2.0 + noise())
                .with("y", -2.0 + noise())
                .to_vector(1 << 12);
            data.push((b, "cold"));
        }
        data
    }

    fn accuracy(model: &dyn OnlineClassifier, data: &[(FeatureVector, &str)]) -> f64 {
        let correct = data
            .iter()
            .filter(|(x, y)| model.classify(x).as_deref() == Some(*y))
            .count();
        correct as f64 / data.len() as f64
    }

    fn train_all(model: &mut dyn OnlineClassifier, data: &[(FeatureVector, &str)]) {
        for (x, y) in data {
            model.train(x, y);
        }
    }

    #[test]
    fn perceptron_separates_blobs() {
        let data = blob_dataset();
        let mut m = Perceptron::new();
        train_all(&mut m, &data);
        assert!(accuracy(&m, &data) > 0.95);
        assert_eq!(m.labels(), vec!["cold", "hot"]);
        assert_eq!(m.examples_seen(), 400);
    }

    #[test]
    fn pa_separates_blobs_with_margin() {
        let data = blob_dataset();
        for variant in [PaVariant::Pa, PaVariant::PaI, PaVariant::PaII] {
            let mut m = PassiveAggressive::new(variant, 1.0);
            train_all(&mut m, &data);
            assert!(
                accuracy(&m, &data) > 0.95,
                "variant {variant:?} failed to separate"
            );
        }
    }

    #[test]
    fn arow_separates_blobs() {
        let data = blob_dataset();
        let mut m = Arow::default();
        train_all(&mut m, &data);
        assert!(accuracy(&m, &data) > 0.95);
    }

    #[test]
    fn arow_confidence_stays_positive() {
        let data = blob_dataset();
        let mut m = Arow::new(0.5);
        train_all(&mut m, &data);
        assert!(m.min_confidence() > 0.0, "sigma went non-positive");
    }

    #[test]
    fn arow_tolerates_label_noise_better_than_pa() {
        // Flip 20% of labels; AROW should retain higher clean accuracy.
        let clean = blob_dataset();
        let noisy: Vec<(FeatureVector, &str)> = clean
            .iter()
            .enumerate()
            .map(|(i, (x, y))| {
                let label = if i % 5 == 0 {
                    if *y == "hot" {
                        "cold"
                    } else {
                        "hot"
                    }
                } else {
                    *y
                };
                (x.clone(), label)
            })
            .collect();
        let mut arow = Arow::default();
        let mut pa = PassiveAggressive::new(PaVariant::Pa, 1.0);
        train_all(&mut arow, &noisy);
        train_all(&mut pa, &noisy);
        let acc_arow = accuracy(&arow, &clean);
        let acc_pa = accuracy(&pa, &clean);
        assert!(acc_arow >= acc_pa - 0.02, "arow {acc_arow} vs pa {acc_pa}");
        assert!(acc_arow > 0.9);
    }

    #[test]
    fn pa_update_satisfies_margin_on_example() {
        // After a PA (unbounded) update, the updated example must satisfy
        // the unit margin constraint — the defining PA property.
        let mut m = PassiveAggressive::new(PaVariant::Pa, 1.0);
        let a = FeatureVector::from_pairs(vec![(0, 1.0), (1, 0.5)]);
        let b = FeatureVector::from_pairs(vec![(0, -1.0), (1, 0.5)]);
        m.train(&a, "pos");
        m.train(&b, "neg");
        m.train(&a, "pos");
        let scores = m.scores(&a);
        let own = scores
            .iter()
            .find(|s| s.label == "pos")
            .expect("pos scored")
            .score;
        let rival = scores
            .iter()
            .find(|s| s.label == "neg")
            .expect("neg scored")
            .score;
        assert!(
            own - rival >= 1.0 - 1e-9,
            "margin violated: {own} - {rival}"
        );
    }

    #[test]
    fn classify_on_empty_model_is_none() {
        let m = Perceptron::new();
        let x = FeatureVector::from_pairs(vec![(0, 1.0)]);
        assert_eq!(m.classify(&x), None);
        assert!(m.scores(&x).is_empty());
    }

    #[test]
    fn scores_are_sorted_and_deterministic() {
        let data = blob_dataset();
        let mut m = Perceptron::new();
        train_all(&mut m, &data);
        let x = &data[0].0;
        let s = m.scores(x);
        assert_eq!(s.len(), 2);
        assert!(s[0].score >= s[1].score);
        assert_eq!(m.scores(x), m.scores(x));
    }

    #[test]
    fn zero_vector_is_ignored_by_pa_and_arow() {
        let mut pa = PassiveAggressive::default();
        let mut arow = Arow::default();
        let zero = FeatureVector::default();
        pa.train(&zero, "a");
        arow.train(&zero, "a");
        // No weight should have been created beyond the label entry.
        let x = FeatureVector::from_pairs(vec![(0, 1.0)]);
        assert_eq!(pa.scores(&x)[0].score, 0.0);
        assert_eq!(arow.scores(&x)[0].score, 0.0);
    }

    #[test]
    fn builder_constructs_each_algorithm() {
        for alg in [
            Algorithm::Perceptron,
            Algorithm::PassiveAggressive,
            Algorithm::Arow,
        ] {
            let mut m = build(alg);
            let x = FeatureVector::from_pairs(vec![(0, 1.0)]);
            m.train(&x, "l");
            assert_eq!(m.labels(), vec!["l"]);
        }
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn pa_rejects_nonpositive_c() {
        let _ = PassiveAggressive::new(PaVariant::Pa, 0.0);
    }
}
