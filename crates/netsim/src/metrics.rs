//! Measurement collection: latency series, counters, and summary statistics.
//!
//! Actors record named observations during a run; the harness reads the
//! summaries afterwards to print the paper's tables (average and maximum
//! delay per sampling rate).

use std::collections::BTreeMap;

use crate::time::SimDuration;

/// Summary of a latency series: count, mean, min/max and percentiles.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencySummary {
    /// Number of recorded observations.
    pub count: usize,
    /// Mean in milliseconds.
    pub mean_ms: f64,
    /// Minimum in milliseconds.
    pub min_ms: f64,
    /// Maximum in milliseconds.
    pub max_ms: f64,
    /// Median (p50) in milliseconds.
    pub p50_ms: f64,
    /// 95th percentile in milliseconds.
    pub p95_ms: f64,
    /// 99th percentile in milliseconds.
    pub p99_ms: f64,
}

impl LatencySummary {
    fn empty() -> Self {
        LatencySummary {
            count: 0,
            mean_ms: 0.0,
            min_ms: 0.0,
            max_ms: 0.0,
            p50_ms: 0.0,
            p95_ms: 0.0,
            p99_ms: 0.0,
        }
    }
}

/// A named series of latency observations.
///
/// Samples are kept in full (runs are laptop-scale) so exact percentiles and
/// maxima — the quantities the paper reports — are available.
///
/// ```
/// use ifot_netsim::metrics::LatencySeries;
/// use ifot_netsim::time::SimDuration;
///
/// let mut s = LatencySeries::new();
/// s.record(SimDuration::from_millis(10));
/// s.record(SimDuration::from_millis(20));
/// let sum = s.summary();
/// assert_eq!(sum.count, 2);
/// assert_eq!(sum.mean_ms, 15.0);
/// assert_eq!(sum.max_ms, 20.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct LatencySeries {
    samples_ms: Vec<f64>,
}

impl LatencySeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    pub fn record(&mut self, d: SimDuration) {
        self.samples_ms.push(d.as_millis_f64());
    }

    /// Number of observations recorded so far.
    pub fn len(&self) -> usize {
        self.samples_ms.len()
    }

    /// Whether no observation has been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples_ms.is_empty()
    }

    /// Raw samples in milliseconds, in recording order.
    pub fn samples_ms(&self) -> &[f64] {
        &self.samples_ms
    }

    /// Computes the summary statistics of the series.
    pub fn summary(&self) -> LatencySummary {
        if self.samples_ms.is_empty() {
            return LatencySummary::empty();
        }
        let mut sorted = self.samples_ms.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("latency samples are finite"));
        let count = sorted.len();
        let mean_ms = sorted.iter().sum::<f64>() / count as f64;
        let pct = |p: f64| -> f64 {
            let idx = ((count as f64 - 1.0) * p).round() as usize;
            sorted[idx.min(count - 1)]
        };
        LatencySummary {
            count,
            mean_ms,
            min_ms: sorted[0],
            max_ms: sorted[count - 1],
            p50_ms: pct(0.50),
            p95_ms: pct(0.95),
            p99_ms: pct(0.99),
        }
    }
}

/// Central metrics hub: named latency series and named counters.
///
/// Keyed by `&'static str`-free owned strings so actors can build names
/// dynamically (e.g. per-rate); a name is copied when it is first seen
/// and looked up by `&str` ever after, so a bump or a recording on an
/// existing key allocates nothing. Iteration order is deterministic
/// (BTreeMap).
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    latencies: BTreeMap<String, LatencySeries>,
    counters: BTreeMap<String, u64>,
}

impl Metrics {
    /// Creates an empty hub.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a latency observation under `name`.
    pub fn record_latency(&mut self, name: &str, d: SimDuration) {
        self.series_mut(name).record(d);
    }

    fn series_mut(&mut self, name: &str) -> &mut LatencySeries {
        if !self.latencies.contains_key(name) {
            self.latencies
                .insert(name.to_owned(), LatencySeries::default());
        }
        self.latencies
            .get_mut(name)
            .expect("present or just inserted")
    }

    /// Adds `delta` to the counter `name`.
    pub fn add(&mut self, name: &str, delta: u64) {
        match self.counters.get_mut(name) {
            Some(v) => *v += delta,
            None => {
                self.counters.insert(name.to_owned(), delta);
            }
        }
    }

    /// Increments the counter `name` by one.
    pub fn incr(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Current value of a counter (zero if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The latency series recorded under `name`, if any.
    pub fn latency(&self, name: &str) -> Option<&LatencySeries> {
        self.latencies.get(name)
    }

    /// Summary of the series under `name`; empty summary if absent.
    pub fn latency_summary(&self, name: &str) -> LatencySummary {
        self.latencies
            .get(name)
            .map(LatencySeries::summary)
            .unwrap_or_else(LatencySummary::empty)
    }

    /// Iterates over all latency series in name order.
    pub fn latencies(&self) -> impl Iterator<Item = (&str, &LatencySeries)> {
        self.latencies.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Iterates over all counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Merges a buffered [`MetricsDelta`] into the hub in one pass.
    ///
    /// This is the bulk entry point for per-worker metric shards: hot
    /// threads accumulate into a private delta and pay the hub lock once
    /// per flush instead of once per observation. The delta is drained.
    pub fn absorb(&mut self, delta: &mut MetricsDelta) {
        for (name, pending) in &mut delta.counters {
            if let Some(v) = pending.take() {
                self.add(name, v);
            }
        }
        for (name, pending_ns) in &mut delta.latencies_ns {
            if pending_ns.is_empty() {
                continue;
            }
            let series = self.series_mut(name);
            for ns in pending_ns.drain(..) {
                series.record(SimDuration::from_nanos(ns));
            }
        }
        delta.buffered = 0;
    }
}

/// A thread-private buffer of metric observations awaiting a bulk merge.
///
/// One slot per name: counter bumps sum in place, latency observations
/// queue in recording order, so every series keeps its order across the
/// merge. The slots — names and sample capacity — survive the flush, so a
/// worker in steady state buffers without allocating.
#[derive(Debug, Clone, Default)]
pub struct MetricsDelta {
    /// `None` = not touched since the last flush (a touched counter
    /// reaches the hub even when its sum is zero).
    counters: Vec<(String, Option<u64>)>,
    latencies_ns: Vec<(String, Vec<u64>)>,
    /// Observations buffered since the last flush.
    buffered: usize,
}

impl MetricsDelta {
    /// Creates an empty delta.
    pub fn new() -> Self {
        Self::default()
    }

    /// Buffers `delta` against counter `name`.
    pub fn add(&mut self, name: &str, delta: u64) {
        self.buffered += 1;
        match self.counters.iter_mut().find(|(n, _)| n == name) {
            Some((_, pending)) => *pending = Some(pending.unwrap_or(0) + delta),
            None => self.counters.push((name.to_owned(), Some(delta))),
        }
    }

    /// Buffers one latency observation (nanoseconds) under `name`.
    pub fn record_latency_ns(&mut self, name: &str, ns: u64) {
        self.buffered += 1;
        match self.latencies_ns.iter_mut().find(|(n, _)| n == name) {
            Some((_, pending)) => pending.push(ns),
            None => self.latencies_ns.push((name.to_owned(), vec![ns])),
        }
    }

    /// Number of observations buffered since the last flush.
    pub fn len(&self) -> usize {
        self.buffered
    }

    /// Whether the buffer holds nothing to flush.
    pub fn is_empty(&self) -> bool {
        self.buffered == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn empty_series_summary_is_zero() {
        let s = LatencySeries::new();
        assert!(s.is_empty());
        let sum = s.summary();
        assert_eq!(sum.count, 0);
        assert_eq!(sum.mean_ms, 0.0);
    }

    #[test]
    fn summary_statistics_are_exact() {
        let mut s = LatencySeries::new();
        for v in [5, 1, 3, 2, 4] {
            s.record(ms(v));
        }
        let sum = s.summary();
        assert_eq!(sum.count, 5);
        assert_eq!(sum.mean_ms, 3.0);
        assert_eq!(sum.min_ms, 1.0);
        assert_eq!(sum.max_ms, 5.0);
        assert_eq!(sum.p50_ms, 3.0);
    }

    #[test]
    fn percentiles_pick_upper_tail() {
        let mut s = LatencySeries::new();
        for v in 1..=100 {
            s.record(ms(v));
        }
        let sum = s.summary();
        assert!(sum.p95_ms >= 94.0);
        assert!(sum.p99_ms >= 98.0);
        assert_eq!(sum.max_ms, 100.0);
    }

    #[test]
    fn counters_accumulate() {
        let mut m = Metrics::new();
        m.incr("sent");
        m.add("sent", 4);
        assert_eq!(m.counter("sent"), 5);
        assert_eq!(m.counter("missing"), 0);
    }

    #[test]
    fn hub_routes_series_by_name() {
        let mut m = Metrics::new();
        m.record_latency("train", ms(10));
        m.record_latency("train", ms(30));
        m.record_latency("predict", ms(5));
        assert_eq!(m.latency_summary("train").mean_ms, 20.0);
        assert_eq!(m.latency_summary("predict").count, 1);
        assert_eq!(m.latency_summary("absent").count, 0);
        assert_eq!(m.latencies().count(), 2);
        assert_eq!(m.counters().count(), 0);
    }

    #[test]
    fn absorb_merges_and_drains_a_delta() {
        let mut m = Metrics::new();
        m.add("sent", 2);
        m.record_latency("lat", ms(10));

        let mut d = MetricsDelta::new();
        d.add("sent", 3);
        d.add("sent", 1);
        d.add("other", 7);
        d.record_latency_ns("lat", 20_000_000);
        d.record_latency_ns("lat", 30_000_000);
        assert_eq!(d.len(), 5);

        m.absorb(&mut d);
        assert!(d.is_empty());
        assert_eq!(m.counter("sent"), 6);
        assert_eq!(m.counter("other"), 7);
        let sum = m.latency_summary("lat");
        assert_eq!(sum.count, 3);
        assert_eq!(sum.mean_ms, 20.0);
        // Recording order is preserved across the merge boundary.
        assert_eq!(m.latency("lat").unwrap().samples_ms(), &[10.0, 20.0, 30.0]);
    }

    #[test]
    fn a_flushed_delta_merges_only_what_was_touched_since() {
        let mut m = Metrics::new();
        let mut d = MetricsDelta::new();
        d.add("a", 1);
        d.add("zero", 0);
        d.record_latency_ns("lat", 1_000_000);
        m.absorb(&mut d);
        // A touched counter reaches the hub even at zero.
        assert_eq!(m.counters().count(), 2);

        // Second round on the kept slots: only "a" moves.
        d.add("a", 2);
        assert_eq!(d.len(), 1);
        m.absorb(&mut d);
        assert_eq!(m.counter("a"), 3);
        assert_eq!(m.latency_summary("lat").count, 1);
        // Absorbing an idle delta changes nothing.
        m.absorb(&mut d);
        assert_eq!(m.counter("a"), 3);
        assert_eq!(m.counters().count(), 2);
    }

    #[test]
    fn iteration_order_is_deterministic() {
        let mut m = Metrics::new();
        m.record_latency("b", ms(1));
        m.record_latency("a", ms(1));
        let names: Vec<&str> = m.latencies().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a", "b"]);
    }
}
