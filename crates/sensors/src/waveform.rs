//! Signal generators for virtual sensors.
//!
//! Each generator is a deterministic function of the query time plus its
//! own seeded RNG, so a virtual testbed replays identically for a given
//! seed regardless of the sampling schedule that drives it.

use ifot_netsim::rng::SimRng;

/// A time-parameterized scalar signal.
///
/// Implementations must be deterministic given their construction
/// parameters (including seed) and the sequence of query times.
pub trait Signal: Send {
    /// The signal value at `t_ns` nanoseconds.
    fn value_at(&mut self, t_ns: u64) -> f64;
}

impl std::fmt::Debug for dyn Signal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Signal")
    }
}

/// A constant level.
#[derive(Debug, Clone, Copy)]
pub struct Constant(pub f64);

impl Signal for Constant {
    fn value_at(&mut self, _t_ns: u64) -> f64 {
        self.0
    }
}

/// A sine wave: `offset + amplitude * sin(2π f t + phase)`.
#[derive(Debug, Clone, Copy)]
pub struct Sine {
    /// Cycles per second.
    pub frequency_hz: f64,
    /// Peak deviation from the offset.
    pub amplitude: f64,
    /// Vertical offset.
    pub offset: f64,
    /// Phase in radians.
    pub phase: f64,
}

impl Sine {
    /// A unit sine at the given frequency.
    pub fn new(frequency_hz: f64) -> Self {
        Sine {
            frequency_hz,
            amplitude: 1.0,
            offset: 0.0,
            phase: 0.0,
        }
    }
}

impl Signal for Sine {
    fn value_at(&mut self, t_ns: u64) -> f64 {
        let t = t_ns as f64 / 1.0e9;
        self.offset
            + self.amplitude * (core::f64::consts::TAU * self.frequency_hz * t + self.phase).sin()
    }
}

/// Zero-mean Gaussian noise with the given standard deviation.
#[derive(Debug)]
pub struct GaussianNoise {
    std_dev: f64,
    rng: SimRng,
}

impl GaussianNoise {
    /// Creates a noise source.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev` is negative or not finite.
    pub fn new(std_dev: f64, seed: u64) -> Self {
        assert!(
            std_dev.is_finite() && std_dev >= 0.0,
            "std_dev must be non-negative"
        );
        GaussianNoise {
            std_dev,
            rng: SimRng::seed_from(seed),
        }
    }
}

impl Signal for GaussianNoise {
    fn value_at(&mut self, _t_ns: u64) -> f64 {
        // Box–Muller, inline rather than `SimRng::standard_normal`: the
        // deviation scales the radius before the cosine factor, and the
        // recorded waveforms depend on that rounding order.
        let u1 = (1.0 - self.rng.uniform()).max(f64::MIN_POSITIVE);
        let u2 = self.rng.uniform();
        self.std_dev * (-2.0 * u1.ln()).sqrt() * (core::f64::consts::TAU * u2).cos()
    }
}

/// A bounded random walk: each query steps by a uniform increment and is
/// clamped to `[min, max]`.
#[derive(Debug)]
pub struct RandomWalk {
    value: f64,
    step: f64,
    min: f64,
    max: f64,
    rng: SimRng,
}

impl RandomWalk {
    /// Creates a walk starting at `start`, stepping at most `step` per
    /// query, clamped to `[min, max]`.
    ///
    /// # Panics
    ///
    /// Panics if `min > max` or `step` is negative.
    pub fn new(start: f64, step: f64, min: f64, max: f64, seed: u64) -> Self {
        assert!(min <= max, "min must not exceed max");
        assert!(step >= 0.0, "step must be non-negative");
        RandomWalk {
            value: start.clamp(min, max),
            step,
            min,
            max,
            rng: SimRng::seed_from(seed),
        }
    }
}

impl Signal for RandomWalk {
    fn value_at(&mut self, _t_ns: u64) -> f64 {
        let delta = (self.rng.uniform() * 2.0 - 1.0) * self.step;
        self.value = (self.value + delta).clamp(self.min, self.max);
        self.value
    }
}

/// A square occupancy-style pulse train: `high` for `duty` of each period,
/// `low` otherwise.
#[derive(Debug, Clone, Copy)]
pub struct Pulse {
    /// Period in nanoseconds.
    pub period_ns: u64,
    /// Fraction of the period spent high (0..=1).
    pub duty: f64,
    /// Low level.
    pub low: f64,
    /// High level.
    pub high: f64,
}

impl Signal for Pulse {
    fn value_at(&mut self, t_ns: u64) -> f64 {
        if self.period_ns == 0 {
            return self.low;
        }
        let phase = (t_ns % self.period_ns) as f64 / self.period_ns as f64;
        if phase < self.duty {
            self.high
        } else {
            self.low
        }
    }
}

/// Replays a recorded trace: sample-and-hold over a fixed-period series,
/// looping at the end.
///
/// This is the substitution point for real recorded sensor data: load a
/// measurement series into `samples` and the virtual sensor replays it on
/// the exact code path a live device would use.
#[derive(Debug, Clone)]
pub struct TraceReplay {
    samples: Vec<f64>,
    period_ns: u64,
}

impl TraceReplay {
    /// Creates a replay of `samples` spaced `period_ns` apart.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or `period_ns == 0`.
    pub fn new(samples: Vec<f64>, period_ns: u64) -> Self {
        assert!(!samples.is_empty(), "a trace needs at least one sample");
        assert!(period_ns > 0, "trace period must be positive");
        TraceReplay { samples, period_ns }
    }

    /// Number of samples in one loop of the trace.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the trace is empty (never true — construction forbids it).
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }
}

impl Signal for TraceReplay {
    fn value_at(&mut self, t_ns: u64) -> f64 {
        let idx = (t_ns / self.period_ns) as usize % self.samples.len();
        self.samples[idx]
    }
}

/// Sum of component signals — e.g. sine + noise.
pub struct Composite {
    parts: Vec<Box<dyn Signal>>,
}

impl Composite {
    /// Creates a sum of the given parts.
    pub fn new(parts: Vec<Box<dyn Signal>>) -> Self {
        Composite { parts }
    }
}

impl std::fmt::Debug for Composite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Composite")
            .field("parts", &self.parts.len())
            .finish()
    }
}

impl Signal for Composite {
    fn value_at(&mut self, t_ns: u64) -> f64 {
        self.parts.iter_mut().map(|p| p.value_at(t_ns)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_is_constant() {
        let mut c = Constant(4.2);
        assert_eq!(c.value_at(0), 4.2);
        assert_eq!(c.value_at(1_000_000_000), 4.2);
    }

    #[test]
    fn sine_hits_known_points() {
        let mut s = Sine::new(1.0); // 1 Hz
        assert!(s.value_at(0).abs() < 1e-9);
        assert!((s.value_at(250_000_000) - 1.0).abs() < 1e-9); // quarter period
        assert!(s.value_at(500_000_000).abs() < 1e-9);
        let mut offset = Sine {
            offset: 10.0,
            amplitude: 2.0,
            ..Sine::new(1.0)
        };
        assert!((offset.value_at(250_000_000) - 12.0).abs() < 1e-9);
    }

    #[test]
    fn gaussian_noise_is_seeded_and_zero_mean() {
        let mut a = GaussianNoise::new(1.0, 7);
        let mut b = GaussianNoise::new(1.0, 7);
        let xs: Vec<f64> = (0..5000).map(|_| a.value_at(0)).collect();
        let ys: Vec<f64> = (0..5000).map(|_| b.value_at(0)).collect();
        assert_eq!(xs, ys, "same seed must replay");
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn random_walk_stays_in_bounds() {
        let mut w = RandomWalk::new(0.0, 0.5, -1.0, 1.0, 3);
        for _ in 0..10_000 {
            let v = w.value_at(0);
            assert!((-1.0..=1.0).contains(&v), "escaped bounds: {v}");
        }
    }

    #[test]
    fn random_walk_moves() {
        let mut w = RandomWalk::new(0.0, 0.5, -100.0, 100.0, 3);
        let first = w.value_at(0);
        let distinct = (0..100).map(|_| w.value_at(0)).any(|v| v != first);
        assert!(distinct);
    }

    #[test]
    fn pulse_respects_duty_cycle() {
        let mut p = Pulse {
            period_ns: 1_000,
            duty: 0.25,
            low: 0.0,
            high: 1.0,
        };
        assert_eq!(p.value_at(0), 1.0);
        assert_eq!(p.value_at(200), 1.0);
        assert_eq!(p.value_at(300), 0.0);
        assert_eq!(p.value_at(999), 0.0);
        assert_eq!(p.value_at(1_000), 1.0); // wraps
    }

    #[test]
    fn composite_sums_parts() {
        let mut c = Composite::new(vec![
            Box::new(Constant(1.0)),
            Box::new(Constant(2.0)),
            Box::new(Sine::new(1.0)),
        ]);
        assert!((c.value_at(0) - 3.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "min must not exceed max")]
    fn walk_rejects_inverted_bounds() {
        let _ = RandomWalk::new(0.0, 0.1, 1.0, -1.0, 1);
    }

    #[test]
    fn trace_replay_holds_and_loops() {
        let mut t = TraceReplay::new(vec![1.0, 2.0, 3.0], 100);
        assert_eq!(t.value_at(0), 1.0);
        assert_eq!(t.value_at(99), 1.0); // sample-and-hold
        assert_eq!(t.value_at(100), 2.0);
        assert_eq!(t.value_at(250), 3.0);
        assert_eq!(t.value_at(300), 1.0); // loops
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn empty_trace_rejected() {
        let _ = TraceReplay::new(vec![], 100);
    }
}
