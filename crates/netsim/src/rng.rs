//! Deterministic random number generation for the simulator.
//!
//! All stochastic behaviour in the simulation (jitter, loss, sensor noise
//! used by actors) is drawn from a single [`SimRng`] owned by the world, so
//! a fixed seed plus a deterministic event order yields a bit-identical run.

use crate::time::SimDuration;

/// Deterministic simulator RNG with the distributions the network and CPU
/// models need (uniform, exponential, normal, Pareto).
///
/// The generator is SplitMix64 seeded with the seed itself; every pinned
/// digest, Tables II/III figure and benchmark checksum was recorded on
/// this exact arithmetic, so changing it re-pins all of them.
///
/// ```
/// use ifot_netsim::rng::SimRng;
///
/// let mut a = SimRng::seed_from(42);
/// let mut b = SimRng::seed_from(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    state: u64,
}

impl SimRng {
    /// Creates an RNG from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        SimRng { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform float in `[0, 1)`: the top 53 bits of one draw.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform float in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is not finite.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(
            lo.is_finite() && hi.is_finite() && lo <= hi,
            "invalid range [{lo}, {hi})"
        );
        if lo == hi {
            return lo;
        }
        lo + self.uniform() * (hi - lo)
    }

    /// Integer in `[0, n)`: one draw reduced modulo `n`. Returns 0
    /// without drawing when `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next_u64() % n
        }
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.uniform() < p
        }
    }

    /// Exponential variate with the given mean.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is negative or not finite.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(
            mean.is_finite() && mean >= 0.0,
            "mean must be non-negative, got {mean}"
        );
        if mean == 0.0 {
            return 0.0;
        }
        // Inverse CDF; `1 - u` avoids ln(0).
        let u = 1.0 - self.uniform();
        -mean * u.ln()
    }

    /// Standard normal variate (Box–Muller).
    pub fn standard_normal(&mut self) -> f64 {
        let u1 = (1.0 - self.uniform()).max(f64::MIN_POSITIVE);
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (core::f64::consts::TAU * u2).cos()
    }

    /// Normal variate with the given mean and standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev` is negative or either argument is not finite.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        assert!(
            mean.is_finite() && std_dev.is_finite() && std_dev >= 0.0,
            "invalid normal parameters mean={mean} std_dev={std_dev}"
        );
        mean + std_dev * self.standard_normal()
    }

    /// Pareto variate with scale `x_min` and shape `alpha` — the heavy-tail
    /// model used for Wi-Fi contention spikes.
    ///
    /// # Panics
    ///
    /// Panics if `x_min <= 0` or `alpha <= 0`.
    pub fn pareto(&mut self, x_min: f64, alpha: f64) -> f64 {
        assert!(
            x_min > 0.0 && alpha > 0.0,
            "invalid pareto parameters x_min={x_min} alpha={alpha}"
        );
        let u = 1.0 - self.uniform();
        x_min / u.powf(1.0 / alpha)
    }

    /// Exponential virtual-time duration with the given mean.
    pub fn exp_duration(&mut self, mean: SimDuration) -> SimDuration {
        SimDuration::from_nanos(self.exponential(mean.as_nanos() as f64).round() as u64)
    }

    /// Forks an independent deterministic stream, e.g. one per sensor, so
    /// actor-local noise does not perturb network-level draws.
    pub fn fork(&mut self) -> SimRng {
        SimRng::seed_from(self.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    /// The stream every pinned digest and benchmark checksum was recorded
    /// on (values taken at the commit before the generator moved in-tree).
    #[test]
    fn stream_is_pinned() {
        let pinned: [(u64, [u64; 4], u64, u64); 3] = [
            (
                0,
                [
                    0xe220_a839_7b1d_cdaf,
                    0x6e78_9e6a_a1b9_65f4,
                    0x06c4_5d18_8009_454f,
                    0xf88b_b8a8_724c_81ec,
                ],
                0x3fbb_3989_6a51_a870,
                0,
            ),
            (
                1,
                [
                    0x910a_2dec_8902_5cc1,
                    0xbeeb_8da1_658e_ec67,
                    0xf893_a2ee_fb32_555e,
                    0x71c1_8690_ee42_c90b,
                ],
                0x3fdc_6ed5_3634_406c,
                8,
            ),
            (
                0x1F07,
                [
                    0x4c1e_7f81_9c90_a436,
                    0x9026_e155_1b79_ffde,
                    0x49ba_164b_fe23_20c8,
                    0xdae3_c260_593d_e862,
                ],
                0x3fa2_1ba6_f4ab_18c0,
                5,
            ),
        ];
        for (seed, raw, uniform_bits, below_10) in pinned {
            let mut rng = SimRng::seed_from(seed);
            assert_eq!([(); 4].map(|()| rng.next_u64()), raw, "seed {seed:#x}");
            assert_eq!(rng.uniform().to_bits(), uniform_bits, "seed {seed:#x}");
            assert_eq!(rng.below(10), below_10, "seed {seed:#x}");
        }
    }

    #[test]
    fn different_seed_different_stream() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 16);
    }

    #[test]
    fn uniform_stays_in_unit_interval() {
        let mut rng = SimRng::seed_from(3);
        for _ in 0..1000 {
            let x = rng.uniform();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut rng = SimRng::seed_from(4);
        let n = 20_000;
        let mean = 5.0;
        let sum: f64 = (0..n).map(|_| rng.exponential(mean)).sum();
        let observed = sum / n as f64;
        assert!((observed - mean).abs() < 0.2, "observed mean {observed}");
    }

    #[test]
    fn normal_moments_are_close() {
        let mut rng = SimRng::seed_from(5);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.normal(10.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn pareto_respects_scale() {
        let mut rng = SimRng::seed_from(6);
        for _ in 0..1000 {
            assert!(rng.pareto(2.0, 1.5) >= 2.0);
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed_from(8);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }

    #[test]
    fn below_zero_is_zero() {
        let mut rng = SimRng::seed_from(9);
        assert_eq!(rng.below(0), 0);
        for _ in 0..100 {
            assert!(rng.below(10) < 10);
        }
    }

    #[test]
    fn forked_streams_are_independent_but_deterministic() {
        let mut a = SimRng::seed_from(11);
        let mut b = SimRng::seed_from(11);
        let mut fa = a.fork();
        let mut fb = b.fork();
        assert_eq!(fa.next_u64(), fb.next_u64());
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn exp_duration_zero_mean_is_zero() {
        let mut rng = SimRng::seed_from(12);
        assert_eq!(rng.exp_duration(SimDuration::ZERO), SimDuration::ZERO);
    }
}
