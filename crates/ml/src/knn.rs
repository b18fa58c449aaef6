//! Instance-based learners — the Jubatus `nearest_neighbor` and
//! `recommender` service substitutes.
//!
//! Both operate on the same sparse vectors as the linear learners and
//! keep bounded state, preserving the stream-processing property that no
//! unbounded history is stored.

use std::collections::{BTreeMap, VecDeque};

use crate::feature::FeatureVector;

/// Cosine similarity between two sparse vectors (0 when either is zero).
pub fn cosine(a: &FeatureVector, b: &FeatureVector) -> f64 {
    let na = a.norm_sq().sqrt();
    let nb = b.norm_sq().sqrt();
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        a.dot(b) / (na * nb)
    }
}

/// Sliding-window k-nearest-neighbour classifier: majority vote over the
/// `k` nearest stored examples (Euclidean distance).
///
/// ```
/// use ifot_ml::feature::FeatureVector;
/// use ifot_ml::knn::KnnClassifier;
///
/// let mut knn = KnnClassifier::new(64, 3);
/// for i in 0..10 {
///     knn.observe(FeatureVector::from_dense(&[i as f64 * 0.1]), "low");
///     knn.observe(FeatureVector::from_dense(&[5.0 + i as f64 * 0.1]), "high");
/// }
/// assert_eq!(knn.classify(&FeatureVector::from_dense(&[0.3])).as_deref(), Some("low"));
/// assert_eq!(knn.classify(&FeatureVector::from_dense(&[5.2])).as_deref(), Some("high"));
/// ```
#[derive(Debug, Clone)]
pub struct KnnClassifier {
    window: VecDeque<(FeatureVector, String)>,
    capacity: usize,
    k: usize,
}

impl KnnClassifier {
    /// Creates a classifier keeping the last `capacity` examples and
    /// voting over `k` neighbours.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` or `k == 0`.
    pub fn new(capacity: usize, k: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        assert!(k > 0, "k must be positive");
        KnnClassifier {
            window: VecDeque::with_capacity(capacity),
            capacity,
            k,
        }
    }

    /// Stores one labelled example, evicting the oldest beyond capacity.
    pub fn observe(&mut self, x: FeatureVector, label: impl Into<String>) {
        if self.window.len() == self.capacity {
            self.window.pop_front();
        }
        self.window.push_back((x, label.into()));
    }

    /// Stored examples.
    pub fn len(&self) -> usize {
        self.window.len()
    }

    /// Whether no example is stored.
    pub fn is_empty(&self) -> bool {
        self.window.is_empty()
    }

    /// The `k` nearest stored examples to `x` as `(distance, label)`,
    /// nearest first.
    pub fn neighbors(&self, x: &FeatureVector) -> Vec<(f64, &str)> {
        let mut dists: Vec<(f64, &str)> = self
            .window
            .iter()
            .map(|(p, label)| (x.distance(p), label.as_str()))
            .collect();
        dists.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite distances"));
        dists.truncate(self.k);
        dists
    }

    /// Majority-vote label of the `k` nearest examples (ties broken by
    /// summed inverse distance, then lexicographically).
    pub fn classify(&self, x: &FeatureVector) -> Option<String> {
        let neighbors = self.neighbors(x);
        if neighbors.is_empty() {
            return None;
        }
        let mut votes: BTreeMap<&str, (usize, f64)> = BTreeMap::new();
        for (d, label) in &neighbors {
            let e = votes.entry(label).or_insert((0, 0.0));
            e.0 += 1;
            e.1 += 1.0 / (d + 1e-9);
        }
        votes
            .into_iter()
            .max_by(|a, b| {
                (a.1 .0, a.1 .1)
                    .partial_cmp(&(b.1 .0, b.1 .1))
                    .expect("finite weights")
                    .then_with(|| b.0.cmp(a.0))
            })
            .map(|(label, _)| label.to_owned())
    }
}

/// Item-based recommender: stores item vectors, answers similarity
/// queries by cosine — the Jubatus `recommender` service shape.
///
/// ```
/// use ifot_ml::feature::FeatureVector;
/// use ifot_ml::knn::Recommender;
///
/// let mut rec = Recommender::new(100);
/// rec.upsert("quiet-park", FeatureVector::from_dense(&[1.0, 0.0]));
/// rec.upsert("busy-station", FeatureVector::from_dense(&[0.0, 1.0]));
/// rec.upsert("calm-garden", FeatureVector::from_dense(&[0.9, 0.1]));
/// let similar = rec.similar_to_item("quiet-park", 1);
/// assert_eq!(similar[0].0, "calm-garden");
/// ```
#[derive(Debug, Clone, Default)]
pub struct Recommender {
    items: BTreeMap<String, FeatureVector>,
    capacity: usize,
    insertion_order: VecDeque<String>,
}

impl Recommender {
    /// Creates a recommender keeping at most `capacity` items (oldest
    /// evicted first).
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        Recommender {
            items: BTreeMap::new(),
            capacity,
            insertion_order: VecDeque::new(),
        }
    }

    /// Inserts or updates an item vector.
    pub fn upsert(&mut self, id: impl Into<String>, vector: FeatureVector) {
        let id = id.into();
        if !self.items.contains_key(&id) {
            if self.items.len() == self.capacity {
                if let Some(oldest) = self.insertion_order.pop_front() {
                    self.items.remove(&oldest);
                }
            }
            self.insertion_order.push_back(id.clone());
        }
        self.items.insert(id, vector);
    }

    /// Removes an item; returns whether it existed.
    pub fn remove(&mut self, id: &str) -> bool {
        let existed = self.items.remove(id).is_some();
        if existed {
            self.insertion_order.retain(|x| x != id);
        }
        existed
    }

    /// Number of stored items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The vector of an item.
    pub fn item(&self, id: &str) -> Option<&FeatureVector> {
        self.items.get(id)
    }

    /// The `n` items most similar to `query`, best first, as
    /// `(id, cosine)`.
    pub fn similar_to_vector(&self, query: &FeatureVector, n: usize) -> Vec<(&str, f64)> {
        let mut scored: Vec<(&str, f64)> = self
            .items
            .iter()
            .map(|(id, v)| (id.as_str(), cosine(query, v)))
            .collect();
        scored.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("finite similarities")
                .then_with(|| a.0.cmp(b.0))
        });
        scored.truncate(n);
        scored
    }

    /// The `n` items most similar to a stored item (excluding itself).
    pub fn similar_to_item(&self, id: &str, n: usize) -> Vec<(&str, f64)> {
        match self.items.get(id) {
            Some(query) => self
                .similar_to_vector(query, n + 1)
                .into_iter()
                .filter(|(other, _)| *other != id)
                .take(n)
                .collect(),
            None => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fv(values: &[f64]) -> FeatureVector {
        FeatureVector::from_dense(values)
    }

    #[test]
    fn cosine_basics() {
        assert!((cosine(&fv(&[1.0, 0.0]), &fv(&[1.0, 0.0])) - 1.0).abs() < 1e-12);
        assert!(cosine(&fv(&[1.0, 0.0]), &fv(&[0.0, 1.0])).abs() < 1e-12);
        assert!((cosine(&fv(&[1.0, 0.0]), &fv(&[-1.0, 0.0])) + 1.0).abs() < 1e-12);
        assert_eq!(cosine(&fv(&[0.0]), &fv(&[1.0])), 0.0);
    }

    #[test]
    fn knn_classifies_two_clusters() {
        let mut knn = KnnClassifier::new(64, 5);
        for i in 0..20 {
            knn.observe(fv(&[(i % 5) as f64 * 0.1, 0.0]), "a");
            knn.observe(fv(&[10.0 + (i % 5) as f64 * 0.1, 0.0]), "b");
        }
        assert_eq!(knn.classify(&fv(&[0.2, 0.0])).as_deref(), Some("a"));
        assert_eq!(knn.classify(&fv(&[10.2, 0.0])).as_deref(), Some("b"));
        assert_eq!(knn.len(), 40);
    }

    #[test]
    fn knn_empty_returns_none() {
        let knn = KnnClassifier::new(4, 2);
        assert!(knn.is_empty());
        assert_eq!(knn.classify(&fv(&[1.0])), None);
        assert!(knn.neighbors(&fv(&[1.0])).is_empty());
    }

    #[test]
    fn knn_window_evicts_and_adapts() {
        let mut knn = KnnClassifier::new(10, 3);
        for _ in 0..10 {
            knn.observe(fv(&[0.0]), "old");
        }
        // Concept drift: the window fills with the new concept.
        for _ in 0..10 {
            knn.observe(fv(&[0.1]), "new");
        }
        assert_eq!(knn.classify(&fv(&[0.05])).as_deref(), Some("new"));
        assert_eq!(knn.len(), 10);
    }

    #[test]
    fn knn_neighbors_sorted_by_distance() {
        let mut knn = KnnClassifier::new(8, 3);
        knn.observe(fv(&[0.0]), "x");
        knn.observe(fv(&[1.0]), "y");
        knn.observe(fv(&[5.0]), "z");
        let n = knn.neighbors(&fv(&[0.4]));
        assert_eq!(n.len(), 3);
        assert!(n[0].0 <= n[1].0 && n[1].0 <= n[2].0);
        assert_eq!(n[0].1, "x");
    }

    #[test]
    fn recommender_similarity_ranking() {
        let mut rec = Recommender::new(10);
        rec.upsert("a", fv(&[1.0, 0.0]));
        rec.upsert("b", fv(&[0.8, 0.2]));
        rec.upsert("c", fv(&[0.0, 1.0]));
        let sim = rec.similar_to_vector(&fv(&[1.0, 0.05]), 2);
        assert_eq!(sim[0].0, "a");
        assert_eq!(sim[1].0, "b");
        let from_item = rec.similar_to_item("a", 2);
        assert_eq!(from_item[0].0, "b");
        assert!(from_item.iter().all(|(id, _)| *id != "a"));
        assert!(rec.similar_to_item("ghost", 3).is_empty());
    }

    #[test]
    fn recommender_upsert_updates_in_place() {
        let mut rec = Recommender::new(4);
        rec.upsert("a", fv(&[1.0, 0.0]));
        rec.upsert("a", fv(&[0.0, 1.0]));
        assert_eq!(rec.len(), 1);
        assert_eq!(rec.item("a").expect("present"), &fv(&[0.0, 1.0]));
    }

    #[test]
    fn recommender_capacity_evicts_oldest() {
        let mut rec = Recommender::new(2);
        rec.upsert("a", fv(&[1.0]));
        rec.upsert("b", fv(&[1.0]));
        rec.upsert("c", fv(&[1.0]));
        assert_eq!(rec.len(), 2);
        assert!(rec.item("a").is_none(), "oldest evicted");
        assert!(rec.item("c").is_some());
    }

    #[test]
    fn recommender_remove() {
        let mut rec = Recommender::new(4);
        rec.upsert("a", fv(&[1.0]));
        assert!(rec.remove("a"));
        assert!(!rec.remove("a"));
        assert!(rec.is_empty());
    }
}
