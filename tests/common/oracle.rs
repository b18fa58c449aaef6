//! Reference models the value-typed flow items are checked against: the
//! string-keyed `BTreeMap` datum, with the map-accumulating `to_vector`,
//! that `ifot::ml::feature::Datum` was before it became a sorted small
//! vector. Kept as a test oracle only.

use std::collections::BTreeMap;

/// The former `Datum`: last writer wins, iteration in key order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MapDatum {
    values: BTreeMap<String, f64>,
}

impl MapDatum {
    pub fn set(&mut self, key: &str, value: f64) {
        self.values.insert(key.to_owned(), value);
    }

    pub fn get(&self, key: &str) -> Option<f64> {
        self.values.get(key).copied()
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.values.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// The former `Datum::to_vector`: FNV-1a of each key modulo
    /// `dimensions`, colliding values summed in key order from zero,
    /// pairs in index order.
    pub fn to_vector(&self, dimensions: u32) -> Vec<(u32, f64)> {
        let mut acc: BTreeMap<u32, f64> = BTreeMap::new();
        for (key, value) in &self.values {
            *acc.entry(fnv1a(key.as_bytes()) % dimensions).or_insert(0.0) += value;
        }
        acc.into_iter().collect()
    }
}

impl<'a> Extend<(&'a str, f64)> for MapDatum {
    fn extend<I: IntoIterator<Item = (&'a str, f64)>>(&mut self, iter: I) {
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
