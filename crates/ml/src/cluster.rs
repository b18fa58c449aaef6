//! Online clustering — the Jubatus `clustering` service substitute
//! (sequential k-means, MacQueen's update).

/// Sequential k-means over dense points of a fixed dimensionality.
///
/// The first `k` distinct points seed the centroids; every further point
/// moves its nearest centroid by `1 / count` of the residual (MacQueen),
/// so centroids converge to cluster means without storing the stream.
///
/// ```
/// use ifot_ml::cluster::OnlineKMeans;
///
/// let mut km = OnlineKMeans::new(2, 1);
/// for _ in 0..50 {
///     km.observe(&[0.0]);
///     km.observe(&[10.0]);
/// }
/// let (low, _) = km.assign(&[1.0]).expect("seeded");
/// let (high, _) = km.assign(&[9.0]).expect("seeded");
/// assert_ne!(low, high);
/// ```
#[derive(Debug, Clone)]
pub struct OnlineKMeans {
    k: usize,
    dims: usize,
    centroids: Vec<Vec<f64>>,
    counts: Vec<u64>,
}

impl OnlineKMeans {
    /// Creates a clusterer with `k` clusters over `dims`-dimensional
    /// points.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `dims == 0`.
    pub fn new(k: usize, dims: usize) -> Self {
        assert!(k > 0, "k must be positive");
        assert!(dims > 0, "dimensionality must be positive");
        OnlineKMeans {
            k,
            dims,
            centroids: Vec::new(),
            counts: Vec::new(),
        }
    }

    /// The configured number of clusters.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The configured dimensionality.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Centroids discovered so far (≤ `k`).
    pub fn centroids(&self) -> &[Vec<f64>] {
        &self.centroids
    }

    /// Points consumed so far.
    pub fn observations(&self) -> u64 {
        self.counts.iter().sum()
    }

    fn distance_sq(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
    }

    /// Nearest centroid index and distance for `point`, or `None` before
    /// any centroid exists.
    ///
    /// # Panics
    ///
    /// Panics if `point.len() != dims`.
    pub fn assign(&self, point: &[f64]) -> Option<(usize, f64)> {
        assert_eq!(point.len(), self.dims, "point dimensionality mismatch");
        self.centroids
            .iter()
            .enumerate()
            .map(|(i, c)| (i, Self::distance_sq(c, point)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite distances"))
            .map(|(i, d)| (i, d.sqrt()))
    }

    /// Consumes one point, updating the nearest centroid (or seeding a
    /// new one while fewer than `k` exist); returns the assigned cluster.
    ///
    /// # Panics
    ///
    /// Panics if `point.len() != dims`.
    pub fn observe(&mut self, point: &[f64]) -> usize {
        assert_eq!(point.len(), self.dims, "point dimensionality mismatch");
        if self.centroids.len() < self.k {
            // Seed with distinct points; duplicates update instead.
            let duplicate = self
                .centroids
                .iter()
                .position(|c| Self::distance_sq(c, point) == 0.0);
            if duplicate.is_none() {
                self.centroids.push(point.to_vec());
                self.counts.push(1);
                return self.centroids.len() - 1;
            }
        }
        let (idx, _) = self.assign(point).expect("at least one centroid");
        self.counts[idx] += 1;
        let eta = 1.0 / self.counts[idx] as f64;
        for (c, p) in self.centroids[idx].iter_mut().zip(point) {
            *c += eta * (p - *c);
        }
        idx
    }

    /// Sum of squared distances of the given points to their assigned
    /// centroids — lower is tighter.
    pub fn inertia(&self, points: &[Vec<f64>]) -> f64 {
        points
            .iter()
            .filter_map(|p| self.assign(p).map(|(_, d)| d * d))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_blob_points() -> Vec<Vec<f64>> {
        let mut pts = Vec::new();
        for i in 0..100 {
            let j = (i % 10) as f64 * 0.05;
            pts.push(vec![0.0 + j, 0.0 - j]);
            pts.push(vec![8.0 - j, 8.0 + j]);
        }
        pts
    }

    #[test]
    fn separates_two_blobs() {
        let mut km = OnlineKMeans::new(2, 2);
        for p in two_blob_points() {
            km.observe(&p);
        }
        let (a, _) = km.assign(&[0.1, 0.1]).expect("seeded");
        let (b, _) = km.assign(&[7.9, 7.9]).expect("seeded");
        assert_ne!(a, b);
        // Centroids near the blob centres.
        let centroids = km.centroids();
        let near = |target: &[f64]| {
            centroids
                .iter()
                .any(|c| OnlineKMeans::distance_sq(c, target).sqrt() < 1.0)
        };
        assert!(near(&[0.2, -0.2]));
        assert!(near(&[7.8, 8.2]));
    }

    #[test]
    fn centroid_count_never_exceeds_k() {
        let mut km = OnlineKMeans::new(3, 1);
        for i in 0..50 {
            km.observe(&[i as f64]);
        }
        assert_eq!(km.centroids().len(), 3);
        assert_eq!(km.k(), 3);
        assert_eq!(km.observations() as usize, 50);
    }

    #[test]
    fn assignment_before_seeding_is_none() {
        let km = OnlineKMeans::new(2, 1);
        assert_eq!(km.assign(&[1.0]), None);
    }

    #[test]
    fn duplicate_seed_points_do_not_burn_slots() {
        let mut km = OnlineKMeans::new(2, 1);
        km.observe(&[5.0]);
        km.observe(&[5.0]); // duplicate: must not create a second centroid
        assert_eq!(km.centroids().len(), 1);
        km.observe(&[9.0]);
        assert_eq!(km.centroids().len(), 2);
    }

    #[test]
    fn inertia_decreases_with_more_clusters() {
        let pts = two_blob_points();
        let mut km1 = OnlineKMeans::new(1, 2);
        let mut km2 = OnlineKMeans::new(2, 2);
        for p in &pts {
            km1.observe(p);
            km2.observe(p);
        }
        assert!(km2.inertia(&pts) < km1.inertia(&pts));
    }

    #[test]
    fn centroid_converges_to_mean() {
        let mut km = OnlineKMeans::new(1, 1);
        for i in 1..=1000 {
            km.observe(&[(i % 11) as f64]);
        }
        let c = km.centroids()[0][0];
        // Mean of 0..=10 cycling is 5.
        assert!((c - 5.0).abs() < 0.2, "centroid {c}");
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn dimension_mismatch_panics() {
        let mut km = OnlineKMeans::new(1, 2);
        km.observe(&[1.0]);
    }
}
