//! Virtual time: the paper's seven-node testbed on `ifot-netsim`
//! (Tables II/III). The figures are declared costs on a simulated clock,
//! not code speed: they move only when a change alters batching or
//! placement behaviour, and repeat exactly.

use ifot_netsim::metrics::LatencySummary;
use ifot_netsim::time::SimDuration;

use crate::catalog::VT_RATES_HZ;
use crate::sut::{self, REALTIME_BOUND_MS};

/// Virtual seconds simulated per rate.
const VIRTUAL_SECONDS: u64 = 30;

/// `(training, predicting)` delay summaries at one sampling rate.
fn run_rate(rate_hz: u32, seed: u64) -> (LatencySummary, LatencySummary) {
    let mut sim = sut::paper_testbed(f64::from(rate_hz), seed ^ u64::from(rate_hz));
    sim.run_for(SimDuration::from_secs(VIRTUAL_SECONDS));
    (
        sim.metrics().latency_summary("sensing_to_training"),
        sim.metrics().latency_summary("sensing_to_predicting"),
    )
}

const TRAIN_NAMES: [&str; 5] = [
    "vt.train_avg_ms.r5",
    "vt.train_avg_ms.r10",
    "vt.train_avg_ms.r20",
    "vt.train_avg_ms.r40",
    "vt.train_avg_ms.r80",
];
const PREDICT_NAMES: [&str; 5] = [
    "vt.predict_avg_ms.r5",
    "vt.predict_avg_ms.r10",
    "vt.predict_avg_ms.r20",
    "vt.predict_avg_ms.r40",
    "vt.predict_avg_ms.r80",
];

/// The `vt.*` metrics (Tables II/III on virtual time).
pub fn layers(seed: u64) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    let mut realtime_max_rate = 0.0;
    println!();
    println!("virtual time (ifot-netsim, declared costs; real-time bound {REALTIME_BOUND_MS} ms):");
    for (i, rate) in VT_RATES_HZ.into_iter().enumerate() {
        let (train, predict) = run_rate(rate, seed);
        println!(
            "  {rate:>3} Hz  train avg {:>9.3} max {:>9.3} ms   predict avg {:>9.3} max {:>9.3} ms",
            train.mean_ms, train.max_ms, predict.mean_ms, predict.max_ms
        );
        out.push((TRAIN_NAMES[i], train.mean_ms));
        out.push((PREDICT_NAMES[i], predict.mean_ms));
        if predict.count > 0 && predict.max_ms < REALTIME_BOUND_MS {
            realtime_max_rate = f64::from(rate);
        }
        if rate == 80 {
            out.push(("vt.predict_max_ms.r80", predict.max_ms));
        }
    }
    out.push(("vt.realtime_max_rate_hz", realtime_max_rate));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_time_repeats_exactly() {
        let a = run_rate(20, 2016);
        let b = run_rate(20, 2016);
        assert_eq!(a, b);
        assert!(a.1.count > 0, "the testbed predicts at 20 Hz");
    }
}
