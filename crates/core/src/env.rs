//! The runtime environment abstraction.
//!
//! The middleware node is written against [`NodeEnv`] so the same logic
//! runs on the deterministic network simulator (experiments, tests) and on
//! real threads (the examples). The environment supplies time, transport,
//! timers, CPU accounting and metrics.

use bytes::Bytes;

use ifot_netsim::rng::SimRng;

/// Services a runtime provides to a [`crate::node::MiddlewareNode`].
pub trait NodeEnv {
    /// Current time in nanoseconds. On the simulator this is virtual
    /// time; on threads it is monotone wall time.
    fn now_ns(&self) -> u64;

    /// Sends `payload` to the node named `dst` on `port`. The payload is
    /// reference-counted: runtimes hand the same buffer to their
    /// transport without copying.
    fn send(&mut self, dst: &str, port: u16, payload: Bytes);

    /// Arms a timer that fires `delay_ns` after the current handler
    /// completes, delivering `tag` back to the node.
    fn set_timer_after_ns(&mut self, delay_ns: u64, tag: u64);

    /// Arms a timer at an absolute instant (clamped to not fire in the
    /// past). Used by sampling loops to avoid drift.
    fn set_timer_at_ns(&mut self, at_ns: u64, tag: u64);

    /// Declares that the current handler performs `ms` milliseconds of
    /// reference-machine CPU work.
    fn consume_ref_ms(&mut self, ms: f64);

    /// Records `completion - since_ns` into the latency series `name`.
    fn record_latency_since_ns(&mut self, name: &str, since_ns: u64);

    /// Increments a counter metric.
    fn incr(&mut self, counter: &str);

    /// Adds to a counter metric.
    fn add(&mut self, counter: &str, delta: u64);

    /// A deterministic random value (used for stochastic service times).
    fn rand_u64(&mut self) -> u64;

    /// Whether [`NodeEnv::trace_event`] records anything — callers guard
    /// event formatting behind this so the default path pays nothing.
    fn trace_enabled(&self) -> bool {
        false
    }

    /// Appends a structured record (e.g. stage enqueue/dequeue) to the
    /// runtime's execution trace. A no-op unless the runtime opted in
    /// (the simulator's stage-trace mode; [`MockEnv`] always records).
    fn trace_event(&mut self, _kind: &str) {}
}

/// Helpers layered on [`NodeEnv`].
pub trait NodeEnvExt: NodeEnv {
    /// Uniform float in `[0, 1)` from [`NodeEnv::rand_u64`].
    fn rand_unit(&mut self) -> f64 {
        (self.rand_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponential variate with the given mean (milliseconds).
    fn rand_exp_ms(&mut self, mean_ms: f64) -> f64 {
        if mean_ms <= 0.0 {
            return 0.0;
        }
        let u = 1.0 - self.rand_unit();
        -mean_ms * u.ln()
    }

    /// Bernoulli trial.
    fn rand_chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.rand_unit() < p
        }
    }
}

impl<T: NodeEnv + ?Sized> NodeEnvExt for T {}

/// A recording environment for unit tests: collects effects, advances a
/// manual clock, uses a deterministic RNG.
#[derive(Debug, Default)]
pub struct MockEnv {
    /// Manually advanced clock.
    pub now_ns: u64,
    /// Sent packets `(dst, port, payload)`.
    pub sent: Vec<(String, u16, Bytes)>,
    /// Armed relative timers `(delay_ns, tag)`.
    pub timers_rel: Vec<(u64, u64)>,
    /// Armed absolute timers `(at_ns, tag)`.
    pub timers_abs: Vec<(u64, u64)>,
    /// Accumulated CPU milliseconds.
    pub cpu_ms: f64,
    /// Latency recordings `(name, since_ns)`.
    pub latencies: Vec<(String, u64)>,
    /// Counters.
    pub counters: std::collections::BTreeMap<String, u64>,
    /// Trace records (stage enqueue/dequeue events).
    pub traces: Vec<String>,
    rng: SimRng,
}

impl MockEnv {
    /// Creates a mock at time zero.
    pub fn new() -> Self {
        MockEnv {
            rng: SimRng::seed_from(0x9E37_79B9_7F4A_7C15),
            ..Default::default()
        }
    }

    /// Packets sent to `dst` on `port`.
    pub fn sent_to(&self, dst: &str, port: u16) -> Vec<&[u8]> {
        self.sent
            .iter()
            .filter(|(d, p, _)| d == dst && *p == port)
            .map(|(_, _, b)| &b[..])
            .collect()
    }

    /// Clears recorded effects (keeps clock and RNG).
    pub fn clear(&mut self) {
        self.sent.clear();
        self.timers_rel.clear();
        self.timers_abs.clear();
        self.latencies.clear();
        self.traces.clear();
        self.cpu_ms = 0.0;
    }

    /// Counter value (zero when untouched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

impl NodeEnv for MockEnv {
    fn now_ns(&self) -> u64 {
        self.now_ns
    }

    fn send(&mut self, dst: &str, port: u16, payload: Bytes) {
        self.sent.push((dst.to_owned(), port, payload));
    }

    fn set_timer_after_ns(&mut self, delay_ns: u64, tag: u64) {
        self.timers_rel.push((delay_ns, tag));
    }

    fn set_timer_at_ns(&mut self, at_ns: u64, tag: u64) {
        self.timers_abs.push((at_ns, tag));
    }

    fn consume_ref_ms(&mut self, ms: f64) {
        self.cpu_ms += ms;
    }

    fn record_latency_since_ns(&mut self, name: &str, since_ns: u64) {
        self.latencies.push((name.to_owned(), since_ns));
    }

    fn incr(&mut self, counter: &str) {
        *self.counters.entry(counter.to_owned()).or_insert(0) += 1;
    }

    fn add(&mut self, counter: &str, delta: u64) {
        *self.counters.entry(counter.to_owned()).or_insert(0) += delta;
    }

    fn rand_u64(&mut self) -> u64 {
        self.rng.next_u64()
    }

    fn trace_enabled(&self) -> bool {
        true
    }

    fn trace_event(&mut self, kind: &str) {
        self.traces.push(kind.to_owned());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mock_records_effects() {
        let mut env = MockEnv::new();
        env.send("peer", 1883, vec![1, 2].into());
        env.set_timer_after_ns(10, 7);
        env.set_timer_at_ns(99, 8);
        env.consume_ref_ms(1.5);
        env.record_latency_since_ns("lat", 5);
        env.incr("c");
        env.add("c", 2);
        assert_eq!(env.sent_to("peer", 1883).len(), 1);
        assert_eq!(env.timers_rel, vec![(10, 7)]);
        assert_eq!(env.timers_abs, vec![(99, 8)]);
        assert_eq!(env.cpu_ms, 1.5);
        assert_eq!(env.counter("c"), 3);
        env.clear();
        assert!(env.sent.is_empty());
        assert_eq!(env.counter("c"), 3, "counters survive clear");
    }

    #[test]
    fn rand_helpers_are_bounded() {
        let mut env = MockEnv::new();
        for _ in 0..1000 {
            let u = env.rand_unit();
            assert!((0.0..1.0).contains(&u));
            assert!(env.rand_exp_ms(5.0) >= 0.0);
        }
        assert!(!env.rand_chance(0.0));
        assert!(env.rand_chance(1.0));
        assert_eq!(env.rand_exp_ms(0.0), 0.0);
    }

    #[test]
    fn exp_mean_is_roughly_right() {
        let mut env = MockEnv::new();
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| env.rand_exp_ms(10.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 10.0).abs() < 0.5, "mean {mean}");
    }
}
