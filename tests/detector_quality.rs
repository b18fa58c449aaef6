//! Integration: detector quality against injected ground truth.
//!
//! The virtual device layer labels every sample it perturbs; feeding the
//! labelled stream through the ML substrate's detectors yields honest
//! precision/recall — the property the elderly-monitoring scenario
//! depends on.

use ifot::ml::anomaly::{ContaminationGuard, MahalanobisDetector, RunningZScore};
use ifot::ml::eval::BinaryConfusion;
use ifot::ml::feature::Datum;
use ifot::sensors::device::VirtualSensor;
use ifot::sensors::inject::{AnomalyInjector, FaultKind, FaultWindow};
use ifot::sensors::sample::SensorKind;

/// Streams `seconds` of a faulted temperature sensor through a detector
/// closure; returns the confusion against ground truth.
fn evaluate(
    seconds: u64,
    rate_hz: u64,
    mut score_and_observe: impl FnMut(&Datum) -> f64,
    threshold: f64,
) -> BinaryConfusion {
    let sensor = VirtualSensor::preset(SensorKind::Temperature, 1, 99);
    let mut injector = AnomalyInjector::new(sensor);
    // Three spike episodes across the run.
    for k in 0..3u64 {
        let start = (10 + k * 15) * 1_000_000_000;
        injector.schedule(FaultWindow {
            from_ns: start,
            until_ns: start + 2_000_000_000,
            kind: FaultKind::Spike { magnitude: 25.0 },
        });
    }
    let period_ns = 1_000_000_000 / rate_hz;
    let mut confusion = BinaryConfusion::new();
    let warmup = 20;
    for i in 0..(seconds * rate_hz) {
        let labelled = injector.read(i * period_ns);
        let mut datum = Datum::new();
        for (j, v) in labelled.sample.values.iter().enumerate() {
            datum.set(format!("ch{j}"), *v as f64);
        }
        let score = score_and_observe(&datum);
        if i >= warmup {
            confusion.record(labelled.anomalous, score > threshold);
        }
    }
    confusion
}

#[test]
fn zscore_detects_spike_episodes() {
    // Contamination guard, as in the middleware's Anomaly operator:
    // flagged samples are withheld, up to the guard's release.
    let mut d = RunningZScore::new(4.0);
    let mut guard = ContaminationGuard::default();
    let confusion = evaluate(
        60,
        10,
        |datum| {
            let v: f64 = datum.iter().map(|(_, x)| x).sum();
            let s = d.score(v);
            if guard.absorbs(s > 4.0) {
                d.observe(v);
            }
            s
        },
        4.0,
    );
    assert!(
        confusion.recall() > 0.5,
        "z-score missed the spikes: {confusion}"
    );
    assert!(
        confusion.precision() > 0.5,
        "z-score too noisy: {confusion}"
    );
}

#[test]
fn mahalanobis_detects_spike_episodes() {
    let mut d = MahalanobisDetector::new();
    let mut guard = ContaminationGuard::default();
    let confusion = evaluate(
        60,
        10,
        |datum| {
            let v = datum.to_vector(1 << 16);
            let s = d.score(&v);
            if guard.absorbs(s > 6.0) {
                d.observe(&v);
            }
            s
        },
        6.0,
    );
    assert!(
        confusion.recall() > 0.5,
        "mahalanobis missed the spikes: {confusion}"
    );
    assert!(
        confusion.precision() > 0.5,
        "mahalanobis too noisy: {confusion}"
    );
}

#[test]
fn clean_stream_produces_almost_no_false_alarms() {
    // No fault windows at all: the detector must stay quiet.
    let sensor = VirtualSensor::preset(SensorKind::Temperature, 2, 7);
    let mut injector = AnomalyInjector::new(sensor);
    let mut d = RunningZScore::new(4.0);
    let mut false_alarms = 0;
    let n = 600;
    for i in 0..n {
        let labelled = injector.read(i * 100_000_000);
        assert!(!labelled.anomalous);
        let v = labelled.sample.values[0] as f64;
        let s = d.score(v);
        d.observe(v);
        if i > 20 && s > 4.0 {
            false_alarms += 1;
        }
    }
    assert!(
        false_alarms <= n / 100,
        "too many false alarms on a clean stream: {false_alarms}"
    );
}
