//! Online linear regression — the Jubatus `regression` service
//! substitute (Passive-Aggressive regression with an ε-insensitive loss).

use std::collections::BTreeMap;

use crate::feature::{FeatureVector, SparseWeights};
use crate::mix::LinearModel;

/// Passive-Aggressive regressor (PA-I clipping).
///
/// ```
/// use ifot_ml::feature::FeatureVector;
/// use ifot_ml::regression::PaRegression;
///
/// let mut r = PaRegression::default();
/// // Learn y = 2 * x.
/// for _ in 0..50 {
///     for v in [0.5, 1.0, 2.0] {
///         let x = FeatureVector::from_pairs(vec![(0, v)]);
///         r.train(&x, 2.0 * v);
///     }
/// }
/// let x = FeatureVector::from_pairs(vec![(0, 3.0)]);
/// assert!((r.predict(&x) - 6.0).abs() < 0.2);
/// ```
#[derive(Debug, Clone)]
pub struct PaRegression {
    epsilon: f64,
    c: f64,
    weights: BTreeMap<String, SparseWeights>,
    examples: u64,
}

/// Weight-map key used for the single regression weight vector.
const REGRESSION_LABEL: &str = "__regression__";

impl PaRegression {
    /// Creates a regressor with insensitivity `epsilon` and
    /// aggressiveness `c`.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is negative or `c` is not strictly positive.
    pub fn new(epsilon: f64, c: f64) -> Self {
        assert!(
            epsilon.is_finite() && epsilon >= 0.0,
            "epsilon must be non-negative"
        );
        assert!(c.is_finite() && c > 0.0, "aggressiveness must be positive");
        let mut weights = BTreeMap::new();
        weights.insert(REGRESSION_LABEL.to_owned(), SparseWeights::new());
        PaRegression {
            epsilon,
            c,
            weights,
            examples: 0,
        }
    }

    fn w(&self) -> &SparseWeights {
        self.weights
            .get(REGRESSION_LABEL)
            .expect("regression weight vector always present")
    }

    fn w_mut(&mut self) -> &mut SparseWeights {
        self.weights.entry(REGRESSION_LABEL.to_owned()).or_default()
    }

    /// Predicted value for `x`.
    pub fn predict(&self, x: &FeatureVector) -> f64 {
        self.w().score(x)
    }

    /// Updates the model with one `(x, y)` example.
    pub fn train(&mut self, x: &FeatureVector, y: f64) {
        self.examples += 1;
        let norm_sq = x.norm_sq();
        if norm_sq == 0.0 || !y.is_finite() {
            return;
        }
        let prediction = self.predict(x);
        let error = y - prediction;
        let loss = (error.abs() - self.epsilon).max(0.0);
        if loss > 0.0 {
            let tau = (loss / norm_sq).min(self.c) * error.signum();
            self.w_mut().add_scaled(x, tau);
        }
    }

    /// Number of training examples consumed.
    pub fn examples_seen(&self) -> u64 {
        self.examples
    }

    /// The ε-insensitivity.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }
}

impl Default for PaRegression {
    fn default() -> Self {
        PaRegression::new(0.05, 1.0)
    }
}

impl LinearModel for PaRegression {
    fn weights(&self) -> &BTreeMap<String, SparseWeights> {
        &self.weights
    }
    fn weights_mut(&mut self) -> &mut BTreeMap<String, SparseWeights> {
        &mut self.weights
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mix::{mix_average, LinearModel};

    fn fv(pairs: Vec<(u32, f64)>) -> FeatureVector {
        FeatureVector::from_pairs(pairs)
    }

    #[test]
    fn learns_linear_function_of_two_variables() {
        // y = 3 a - 2 b
        let mut r = PaRegression::new(0.01, 1.0);
        let mut seed = 99u64;
        let mut rnd = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((seed >> 33) as f64 / (1u64 << 31) as f64) * 2.0 - 1.0
        };
        for _ in 0..3000 {
            let a = rnd();
            let b = rnd();
            r.train(&fv(vec![(0, a), (1, b)]), 3.0 * a - 2.0 * b);
        }
        let pred = r.predict(&fv(vec![(0, 1.0), (1, 1.0)]));
        assert!((pred - 1.0).abs() < 0.15, "prediction {pred}");
    }

    #[test]
    fn epsilon_suppresses_small_updates() {
        let mut r = PaRegression::new(1.0, 1.0);
        let x = fv(vec![(0, 1.0)]);
        r.train(&x, 0.5); // inside the epsilon tube around 0
        assert_eq!(r.predict(&x), 0.0);
        r.train(&x, 5.0); // outside: updates
        assert!(r.predict(&x) > 0.0);
    }

    #[test]
    fn ignores_degenerate_examples() {
        let mut r = PaRegression::default();
        r.train(&FeatureVector::default(), 1.0);
        r.train(&fv(vec![(0, 1.0)]), f64::NAN);
        assert_eq!(r.predict(&fv(vec![(0, 1.0)])), 0.0);
        assert_eq!(r.examples_seen(), 2);
    }

    #[test]
    fn update_is_clipped_by_c() {
        let mut r = PaRegression::new(0.0, 0.1);
        let x = fv(vec![(0, 1.0)]);
        r.train(&x, 100.0);
        // tau clipped at c=0.1 so prediction moves by at most 0.1.
        assert!(r.predict(&x) <= 0.1 + 1e-12);
    }

    #[test]
    fn negative_targets_learned() {
        let mut r = PaRegression::new(0.0, 1.0);
        let x = fv(vec![(0, 1.0)]);
        for _ in 0..100 {
            r.train(&x, -4.0);
        }
        assert!((r.predict(&x) + 4.0).abs() < 0.1);
    }

    #[test]
    fn regressors_can_mix() {
        let mut a = PaRegression::new(0.0, 1.0);
        let mut b = PaRegression::new(0.0, 1.0);
        let x = fv(vec![(0, 1.0)]);
        for _ in 0..100 {
            a.train(&x, 2.0);
            b.train(&x, 4.0);
        }
        let avg = mix_average(&[a.export_diff(), b.export_diff()]).expect("non-empty");
        a.import_diff(&avg);
        assert!((a.predict(&x) - 3.0).abs() < 0.1, "mixed {}", a.predict(&x));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_epsilon_rejected() {
        let _ = PaRegression::new(-0.1, 1.0);
    }
}
