//! Experiment orchestration: the paper's evaluation procedure.
//!
//! "Throughout the experiment, we measured the processing time in the
//! data distribution and analysis by the IFoT middleware. Then, we
//! confirmed the trend in the processing delay (From the Sensing to
//! Training, Sensing to Predicting) by changing generation rate of the
//! sensor data (5, 10, 20, 40, and 80 Hz)."

use ifot_netsim::metrics::LatencySummary;
use ifot_netsim::time::SimDuration;

use crate::testbed::{paper_testbed, TestbedConfig};

/// The sampling rates of Tables II and III.
pub const PAPER_RATES_HZ: [f64; 5] = [5.0, 10.0, 20.0, 40.0, 80.0];

/// How long each rate is simulated. The paper does not state its run
/// length; ~5 s of overload growth matches the reported averages at 40
/// and 80 Hz (see DESIGN.md).
pub const RUN_DURATION: SimDuration = SimDuration::from_secs(5);

/// Result of one rate point.
#[derive(Debug, Clone)]
pub struct RatePoint {
    /// Sampling rate in Hz.
    pub rate_hz: f64,
    /// Tuples measured.
    pub count: usize,
    /// Average delay in milliseconds.
    pub avg_ms: f64,
    /// Maximum delay in milliseconds.
    pub max_ms: f64,
    /// Median delay in milliseconds.
    pub p50_ms: f64,
    /// 95th percentile delay in milliseconds.
    pub p95_ms: f64,
}

impl RatePoint {
    fn from_summary(rate_hz: f64, s: &LatencySummary) -> Self {
        RatePoint {
            rate_hz,
            count: s.count,
            avg_ms: s.mean_ms,
            max_ms: s.max_ms,
            p50_ms: s.p50_ms,
            p95_ms: s.p95_ms,
        }
    }
}

/// Result of a full rate sweep: one series per measured process.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// Sensing → Training delays (Table II).
    pub training: Vec<RatePoint>,
    /// Sensing → Predicting delays (Table III).
    pub predicting: Vec<RatePoint>,
}

/// Runs one rate point on the paper testbed and returns
/// `(training, predicting)` summaries.
pub fn run_rate(config: &TestbedConfig, duration: SimDuration) -> (LatencySummary, LatencySummary) {
    let mut sim = paper_testbed(config);
    sim.run_for(duration);
    (
        sim.metrics().latency_summary("sensing_to_training"),
        sim.metrics().latency_summary("sensing_to_predicting"),
    )
}

/// Runs the paper's rate sweep (Tables II and III).
pub fn run_paper_sweep(seed: u64) -> SweepResult {
    run_sweep(&PAPER_RATES_HZ, seed, TestbedConfig::paper)
}

/// Runs a sweep over arbitrary rates with a custom testbed builder.
pub fn run_sweep(
    rates: &[f64],
    seed: u64,
    mut make_config: impl FnMut(f64) -> TestbedConfig,
) -> SweepResult {
    let mut training = Vec::with_capacity(rates.len());
    let mut predicting = Vec::with_capacity(rates.len());
    for &rate in rates {
        let config = make_config(rate).with_seed(seed ^ (rate as u64));
        let (t, p) = run_rate(&config, RUN_DURATION);
        training.push(RatePoint::from_summary(rate, &t));
        predicting.push(RatePoint::from_summary(rate, &p));
    }
    SweepResult {
        training,
        predicting,
    }
}

/// The paper's reported numbers, for side-by-side comparison in reports
/// (EXPERIMENTS.md). `(rate, avg, max)` in Hz / ms / ms.
pub mod paper_reported {
    /// Table II — sensing → training.
    pub const TABLE2_TRAINING: [(f64, f64, f64); 5] = [
        (5.0, 58.969, 357.619),
        (10.0, 60.904, 360.761),
        (20.0, 232.944, 419.513),
        (40.0, 1123.317, 1482.500),
        (80.0, 1636.907, 1913.752),
    ];

    /// Table III — sensing → predicting.
    pub const TABLE3_PREDICTING: [(f64, f64, f64); 5] = [
        (5.0, 58.969, 346.142),
        (10.0, 59.020, 334.501),
        (20.0, 74.747, 373.992),
        (40.0, 744.535, 819.748),
        (80.0, 1144.580, 1249.122),
    ];
}

/// Checks the *shape* criteria of the reproduction (who wins, where the
/// knee falls) — used by tests and the bench harness.
///
/// Returns a list of violated criteria (empty = shape reproduced).
pub fn check_shape(result: &SweepResult) -> Vec<String> {
    let mut violations = Vec::new();
    let t = &result.training;
    let p = &result.predicting;
    if t.len() != 5 || p.len() != 5 {
        violations.push("expected the five paper rates".to_owned());
        return violations;
    }
    // 1. Low rates are real-time (tens of ms).
    for point in &t[..2] {
        if point.avg_ms > 150.0 {
            violations.push(format!(
                "training at {} Hz should be real-time, got {:.1} ms",
                point.rate_hz, point.avg_ms
            ));
        }
    }
    // 2. Knee: 40 Hz training delay is several times the 20 Hz delay and
    //    exceeds real-time bounds.
    if t[3].avg_ms < 2.0 * t[2].avg_ms || t[3].avg_ms < 500.0 {
        violations.push(format!(
            "training knee missing: 20 Hz {:.1} ms vs 40 Hz {:.1} ms",
            t[2].avg_ms, t[3].avg_ms
        ));
    }
    // 3. Saturation: 80 Hz training delay beyond one second and beyond
    //    the 40 Hz delay.
    if t[4].avg_ms < 1_000.0 || t[4].avg_ms <= t[3].avg_ms {
        violations.push(format!(
            "training saturation missing: 40 Hz {:.1} ms vs 80 Hz {:.1} ms",
            t[3].avg_ms, t[4].avg_ms
        ));
    }
    // 4. Predicting is cheaper than training under overload.
    for (tp, pp) in t.iter().zip(p.iter()).skip(2) {
        if pp.avg_ms > tp.avg_ms {
            violations.push(format!(
                "predicting ({:.1} ms) slower than training ({:.1} ms) at {} Hz",
                pp.avg_ms, tp.avg_ms, tp.rate_hz
            ));
        }
    }
    // 5. Predicting also saturates by 80 Hz (paper: 1.14 s).
    if p[4].avg_ms < 500.0 {
        violations.push(format!(
            "predicting at 80 Hz should saturate, got {:.1} ms",
            p[4].avg_ms
        ));
    }
    // 6. Maxima dominate averages (heavy tail).
    for point in t.iter().chain(p.iter()) {
        if point.max_ms < point.avg_ms {
            violations.push(format!(
                "max below average at {} Hz: {:.1} < {:.1}",
                point.rate_hz, point.max_ms, point.avg_ms
            ));
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rate_point_runs() {
        let (t, p) = run_rate(&TestbedConfig::paper(5.0), SimDuration::from_secs(3));
        assert!(t.count > 5);
        assert!(p.count > 5);
    }

    #[test]
    fn check_shape_accepts_paper_numbers() {
        // Feed the paper's own numbers through the checker: they must
        // pass, proving the criteria encode the paper's shape.
        let mk = |rows: &[(f64, f64, f64)]| -> Vec<RatePoint> {
            rows.iter()
                .map(|(r, avg, max)| RatePoint {
                    rate_hz: *r,
                    count: 100,
                    avg_ms: *avg,
                    max_ms: *max,
                    p50_ms: *avg,
                    p95_ms: *max,
                })
                .collect()
        };
        let result = SweepResult {
            training: mk(&paper_reported::TABLE2_TRAINING),
            predicting: mk(&paper_reported::TABLE3_PREDICTING),
        };
        assert_eq!(check_shape(&result), Vec::<String>::new());
    }

    #[test]
    fn check_shape_rejects_flat_results() {
        let flat: Vec<RatePoint> = PAPER_RATES_HZ
            .iter()
            .map(|&r| RatePoint {
                rate_hz: r,
                count: 100,
                avg_ms: 50.0,
                max_ms: 80.0,
                p50_ms: 50.0,
                p95_ms: 70.0,
            })
            .collect();
        let result = SweepResult {
            training: flat.clone(),
            predicting: flat,
        };
        assert!(!check_shape(&result).is_empty());
    }
}
