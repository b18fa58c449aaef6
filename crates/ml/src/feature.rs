//! Feature representation: key-sorted datums and hashed sparse vectors.
//!
//! Jubatus feeds learners with a *datum* — a bag of named numeric values.
//! Here a [`Datum`] is a small value: its `(key, value)` pairs sit in one
//! key-sorted vector, inline up to three of them (the paper's joined
//! tuple), and a [`FeatureKey`] is a `&'static str` or a shared string, so
//! building, cloning and merging datums copies no key text.
//! Learners work on a [`FeatureVector`]: a sparse, sorted list of
//! `(index, value)` pairs obtained from a datum by the hashing trick, which
//! keeps model memory bounded regardless of how many distinct sensor keys
//! a deployment produces.

use core::fmt;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Default hash space size (2^18 buckets).
pub const DEFAULT_DIMENSIONS: u32 = 1 << 18;

/// A feature name that is cheap to clone: a `&'static str` (the sensor
/// channel tables, operator constants) or a shared string (names decoded
/// off the wire). Compares and orders as the string it holds.
#[derive(Clone)]
pub enum FeatureKey {
    /// A name known at compile time.
    Static(&'static str),
    /// A name built at run time, shared by every datum carrying it.
    Shared(Arc<str>),
}

impl FeatureKey {
    /// The name as a string slice.
    pub fn as_str(&self) -> &str {
        match self {
            FeatureKey::Static(s) => s,
            FeatureKey::Shared(s) => s,
        }
    }
}

impl core::ops::Deref for FeatureKey {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl From<&'static str> for FeatureKey {
    fn from(s: &'static str) -> Self {
        FeatureKey::Static(s)
    }
}

impl From<String> for FeatureKey {
    fn from(s: String) -> Self {
        FeatureKey::Shared(s.into())
    }
}

impl From<Arc<str>> for FeatureKey {
    fn from(s: Arc<str>) -> Self {
        FeatureKey::Shared(s)
    }
}

impl PartialEq for FeatureKey {
    fn eq(&self, other: &FeatureKey) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for FeatureKey {}

impl PartialOrd for FeatureKey {
    fn partial_cmp(&self, other: &FeatureKey) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for FeatureKey {
    fn cmp(&self, other: &FeatureKey) -> core::cmp::Ordering {
        self.as_str().cmp(other.as_str())
    }
}

impl fmt::Debug for FeatureKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

type Entry = (FeatureKey, f64);

/// Entries a [`Datum`] holds without touching the heap.
const INLINE: usize = 3;
const VACANT: Entry = (FeatureKey::Static(""), 0.0);

/// A datum's entries: inline up to [`INLINE`], one heap `Vec` beyond.
#[derive(Clone)]
enum Entries {
    /// `slots[..len]` are the entries; the rest is [`VACANT`].
    Inline {
        len: u8,
        slots: [Entry; INLINE],
    },
    Heap(Vec<Entry>),
}

impl Entries {
    fn as_slice(&self) -> &[Entry] {
        match self {
            Entries::Inline { len, slots } => &slots[..usize::from(*len)],
            Entries::Heap(entries) => entries,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [Entry] {
        match self {
            Entries::Inline { len, slots } => &mut slots[..usize::from(*len)],
            Entries::Heap(entries) => entries,
        }
    }

    fn insert(&mut self, at: usize, entry: Entry) {
        match self {
            Entries::Inline { len, slots } if usize::from(*len) < INLINE => {
                // Brings the vacant slot behind the last entry to `at`.
                slots[at..=usize::from(*len)].rotate_right(1);
                slots[at] = entry;
                *len += 1;
            }
            Entries::Inline { slots, .. } => {
                // Room for a join of three three-channel sensors.
                let mut entries = Vec::with_capacity(4 * INLINE);
                entries.extend(std::mem::replace(slots, [VACANT; INLINE]));
                entries.insert(at, entry);
                *self = Entries::Heap(entries);
            }
            Entries::Heap(entries) => entries.insert(at, entry),
        }
    }
}

/// A named bag of numeric features, the unit of observation.
///
/// ```
/// use ifot_ml::feature::Datum;
///
/// let d = Datum::new()
///     .with("accel_x", 0.2)
///     .with("accel_y", -0.9);
/// assert_eq!(d.get("accel_x"), Some(0.2));
/// assert_eq!(d.len(), 2);
/// ```
#[derive(Clone)]
pub struct Datum {
    /// Sorted by key, keys unique.
    entries: Entries,
}

impl Default for Datum {
    fn default() -> Self {
        Datum {
            entries: Entries::Inline {
                len: 0,
                slots: [VACANT; INLINE],
            },
        }
    }
}

impl PartialEq for Datum {
    fn eq(&self, other: &Datum) -> bool {
        self.entries.as_slice() == other.entries.as_slice()
    }
}

impl fmt::Debug for Datum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl Datum {
    /// Creates an empty datum.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets a feature (builder style).
    pub fn with(mut self, key: impl Into<FeatureKey>, value: f64) -> Self {
        self.set(key, value);
        self
    }

    /// Sets a feature in place; the last value written under a key wins.
    pub fn set(&mut self, key: impl Into<FeatureKey>, value: f64) {
        let key = key.into();
        let entries = self.entries.as_mut_slice();
        match entries.binary_search_by(|(k, _)| k.cmp(&key)) {
            Ok(at) => entries[at].1 = value,
            Err(at) => self.entries.insert(at, (key, value)),
        }
    }

    /// Reads a feature.
    pub fn get(&self, key: &str) -> Option<f64> {
        let entries = self.entries.as_slice();
        let at = entries
            .binary_search_by(|(k, _)| k.as_str().cmp(key))
            .ok()?;
        Some(entries[at].1)
    }

    /// Number of features.
    pub fn len(&self) -> usize {
        self.entries.as_slice().len()
    }

    /// Whether the datum holds no features.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over `(key, value)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.entries().map(|(k, v)| (k.as_str(), v))
    }

    /// [`Datum::iter`] with the keys as they are held, for copying
    /// features into another datum without copying their names.
    pub fn entries(&self) -> impl Iterator<Item = (&FeatureKey, f64)> {
        self.entries.as_slice().iter().map(|(k, v)| (k, *v))
    }

    /// Hashes the datum into a sparse feature vector of the given
    /// dimensionality.
    ///
    /// # Panics
    ///
    /// Panics if `dimensions` is zero.
    pub fn to_vector(&self, dimensions: u32) -> FeatureVector {
        assert!(dimensions > 0, "feature space needs at least one dimension");
        FeatureVector::from_pairs(
            self.iter()
                .map(|(key, value)| (fnv1a(key.as_bytes()) % dimensions, value)),
        )
    }
}

impl<K: Into<FeatureKey>> FromIterator<(K, f64)> for Datum {
    fn from_iter<I: IntoIterator<Item = (K, f64)>>(iter: I) -> Self {
        let mut datum = Datum::new();
        datum.extend(iter);
        datum
    }
}

impl<K: Into<FeatureKey>> Extend<(K, f64)> for Datum {
    fn extend<I: IntoIterator<Item = (K, f64)>>(&mut self, iter: I) {
        for (key, value) in iter {
            self.set(key, value);
        }
    }
}

fn fnv1a(bytes: &[u8]) -> u32 {
    let mut hash: u32 = 0x811c_9dc5;
    for &b in bytes {
        hash ^= b as u32;
        hash = hash.wrapping_mul(0x0100_0193);
    }
    hash
}

/// A sparse feature vector: sorted `(index, value)` pairs.
///
/// ```
/// use ifot_ml::feature::FeatureVector;
///
/// let a = FeatureVector::from_pairs(vec![(1, 2.0), (5, 1.0)]);
/// let b = FeatureVector::from_pairs(vec![(1, 3.0), (4, 9.0)]);
/// assert_eq!(a.dot(&b), 6.0);
/// assert_eq!(a.norm_sq(), 5.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FeatureVector {
    items: Vec<(u32, f64)>,
}

impl FeatureVector {
    /// Builds a vector from arbitrary pairs; duplicate indices are summed,
    /// in the order given, each sum starting from `+0.0`.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (u32, f64)>) -> Self {
        let mut items: Vec<(u32, f64)> = pairs.into_iter().collect();
        // Stable, so pairs sharing an index keep their order and add up
        // in it: bit for bit what accumulating into an index-keyed map
        // gives, in the one buffer.
        items.sort_by_key(|(index, _)| *index);
        let mut kept = 0;
        for i in 0..items.len() {
            let (index, value) = items[i];
            if kept > 0 && items[kept - 1].0 == index {
                items[kept - 1].1 += value;
            } else {
                items[kept] = (index, 0.0 + value);
                kept += 1;
            }
        }
        items.truncate(kept);
        FeatureVector { items }
    }

    /// Builds a vector from a dense slice (index = position).
    pub fn from_dense(values: &[f64]) -> Self {
        FeatureVector {
            items: values
                .iter()
                .enumerate()
                .filter(|(_, v)| **v != 0.0)
                .map(|(i, v)| (i as u32, *v))
                .collect(),
        }
    }

    /// Number of non-zero entries.
    pub fn nnz(&self) -> usize {
        self.items.len()
    }

    /// Whether the vector is all zeros.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Iterates over `(index, value)` pairs in index order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.items.iter().copied()
    }

    /// Dot product with another sparse vector (merge join).
    pub fn dot(&self, other: &FeatureVector) -> f64 {
        let mut sum = 0.0;
        let (mut i, mut j) = (0, 0);
        while i < self.items.len() && j < other.items.len() {
            match self.items[i].0.cmp(&other.items[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    sum += self.items[i].1 * other.items[j].1;
                    i += 1;
                    j += 1;
                }
            }
        }
        sum
    }

    /// Squared L2 norm.
    pub fn norm_sq(&self) -> f64 {
        self.items.iter().map(|(_, v)| v * v).sum()
    }

    /// Euclidean distance to another sparse vector.
    pub fn distance(&self, other: &FeatureVector) -> f64 {
        (self.norm_sq() - 2.0 * self.dot(other) + other.norm_sq())
            .max(0.0)
            .sqrt()
    }

    /// Returns the vector scaled by `factor`.
    pub fn scaled(&self, factor: f64) -> FeatureVector {
        FeatureVector {
            items: self.items.iter().map(|(i, v)| (*i, v * factor)).collect(),
        }
    }
}

/// A sparse weight map used by linear learners.
///
/// Absent indices read as zero; [`SparseWeights::add_scaled`] implements
/// the `w += eta * x` update every online linear algorithm performs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SparseWeights {
    map: BTreeMap<u32, f64>,
}

impl SparseWeights {
    /// Creates an all-zero weight map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Weight at `index` (zero when absent).
    pub fn get(&self, index: u32) -> f64 {
        self.map.get(&index).copied().unwrap_or(0.0)
    }

    /// Sets the weight at `index` (removing it when zero).
    pub fn set(&mut self, index: u32, value: f64) {
        if value == 0.0 {
            self.map.remove(&index);
        } else {
            self.map.insert(index, value);
        }
    }

    /// Number of stored (non-zero) weights.
    pub fn nnz(&self) -> usize {
        self.map.len()
    }

    /// Score of a feature vector under these weights.
    pub fn score(&self, x: &FeatureVector) -> f64 {
        x.iter().map(|(i, v)| self.get(i) * v).sum()
    }

    /// `self += eta * x`.
    pub fn add_scaled(&mut self, x: &FeatureVector, eta: f64) {
        for (i, v) in x.iter() {
            let w = self.map.entry(i).or_insert(0.0);
            *w += eta * v;
            if *w == 0.0 {
                self.map.remove(&i);
            }
        }
    }

    /// `self = (1 - alpha) * self + alpha * other` — the building block of
    /// MIX averaging.
    pub fn blend(&mut self, other: &SparseWeights, alpha: f64) {
        let mut indices: Vec<u32> = self.map.keys().copied().collect();
        indices.extend(other.map.keys().copied());
        indices.sort_unstable();
        indices.dedup();
        for i in indices {
            let v = (1.0 - alpha) * self.get(i) + alpha * other.get(i);
            self.set(i, v);
        }
    }

    /// Iterates over stored `(index, weight)` pairs in index order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.map.iter().map(|(i, v)| (*i, *v))
    }

    /// Squared L2 norm of the weights.
    pub fn norm_sq(&self) -> f64 {
        self.map.values().map(|v| v * v).sum()
    }
}

impl FromIterator<(u32, f64)> for SparseWeights {
    fn from_iter<I: IntoIterator<Item = (u32, f64)>>(iter: I) -> Self {
        let mut w = SparseWeights::new();
        for (i, v) in iter {
            w.set(i, w.get(i) + v);
        }
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datum_builder_and_lookup() {
        let d = Datum::new().with("a", 1.0).with("b", 2.0);
        assert_eq!(d.get("a"), Some(1.0));
        assert_eq!(d.get("missing"), None);
        assert_eq!(d.len(), 2);
        assert!(!d.is_empty());
        assert_eq!(d.iter().count(), 2);
    }

    #[test]
    fn datum_hashing_is_stable() {
        let d = Datum::new().with("x", 1.5);
        let v1 = d.to_vector(DEFAULT_DIMENSIONS);
        let v2 = d.to_vector(DEFAULT_DIMENSIONS);
        assert_eq!(v1, v2);
        assert_eq!(v1.nnz(), 1);
    }

    #[test]
    fn distinct_keys_rarely_collide() {
        let mut d = Datum::new();
        for i in 0..100 {
            d.set(format!("feature_{i}"), 1.0);
        }
        let v = d.to_vector(DEFAULT_DIMENSIONS);
        // A few collisions are tolerable; total wipeout is not.
        assert!(v.nnz() >= 98, "nnz {}", v.nnz());
    }

    #[test]
    fn vector_from_pairs_dedupes() {
        let v = FeatureVector::from_pairs(vec![(3, 1.0), (1, 2.0), (3, 4.0)]);
        assert_eq!(v.nnz(), 2);
        assert_eq!(v.iter().collect::<Vec<_>>(), vec![(1, 2.0), (3, 5.0)]);
    }

    #[test]
    fn dense_conversion_skips_zeros() {
        let v = FeatureVector::from_dense(&[0.0, 1.0, 0.0, 2.0]);
        assert_eq!(v.iter().collect::<Vec<_>>(), vec![(1, 1.0), (3, 2.0)]);
    }

    #[test]
    fn dot_and_norm() {
        let a = FeatureVector::from_pairs(vec![(0, 1.0), (2, 2.0)]);
        let b = FeatureVector::from_pairs(vec![(2, 3.0), (5, 1.0)]);
        assert_eq!(a.dot(&b), 6.0);
        assert_eq!(b.dot(&a), 6.0);
        assert_eq!(a.norm_sq(), 5.0);
        assert!(a.dot(&FeatureVector::default()).abs() < 1e-12);
    }

    #[test]
    fn distance_is_metric_like() {
        let a = FeatureVector::from_pairs(vec![(0, 1.0)]);
        let b = FeatureVector::from_pairs(vec![(0, 4.0)]);
        assert_eq!(a.distance(&b), 3.0);
        assert_eq!(a.distance(&a), 0.0);
    }

    #[test]
    fn scaled_scales() {
        let a = FeatureVector::from_pairs(vec![(1, 2.0)]).scaled(2.5);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![(1, 5.0)]);
    }

    #[test]
    fn weights_update_and_score() {
        let mut w = SparseWeights::new();
        let x = FeatureVector::from_pairs(vec![(1, 1.0), (2, 2.0)]);
        w.add_scaled(&x, 0.5);
        assert_eq!(w.get(1), 0.5);
        assert_eq!(w.get(2), 1.0);
        assert_eq!(w.score(&x), 0.5 + 2.0);
        assert_eq!(w.nnz(), 2);
        // Cancelling an entry removes it.
        w.add_scaled(&FeatureVector::from_pairs(vec![(1, 1.0)]), -0.5);
        assert_eq!(w.nnz(), 1);
    }

    #[test]
    fn blend_averages_weights() {
        let mut a: SparseWeights = vec![(1, 2.0)].into_iter().collect();
        let b: SparseWeights = vec![(1, 4.0), (2, 2.0)].into_iter().collect();
        a.blend(&b, 0.5);
        assert_eq!(a.get(1), 3.0);
        assert_eq!(a.get(2), 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one dimension")]
    fn zero_dimensions_rejected() {
        let _ = Datum::new().with("a", 1.0).to_vector(0);
    }
}
