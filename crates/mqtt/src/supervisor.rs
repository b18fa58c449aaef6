//! Connection supervision for the sans-I/O [`crate::client::Client`]:
//! keep-alive dead-peer detection and automatic reconnect with
//! exponential backoff.
//!
//! The MQTT keep-alive mechanism is asymmetric: the *broker* expires a
//! client that stays silent for 1.5× the negotiated keep-alive, but the
//! protocol gives the client no equivalent rule — a client only learns
//! that its peer died when the transport tells it, and a datagram or
//! simulated transport never does. [`ReconnectSupervisor`] closes that
//! gap on the client side:
//!
//! * **Dead-peer detection** — the owner reports every inbound packet
//!   via [`ReconnectSupervisor::on_inbound`]; if a connected session
//!   receives nothing for 1.5 × the keep-alive interval, the grace the
//!   broker gives its clients (the client pings an idle link, so a live
//!   broker always produces traffic), the supervisor declares the
//!   transport lost.
//! * **CONNACK timeout** — a CONNECT that stays unanswered past
//!   [`ReconnectConfig::connect_timeout_ns`] is abandoned the same way
//!   (covers a broker that crashes mid-handshake).
//! * **Reconnect backoff** — after each failure the next CONNECT is
//!   scheduled at `base × 2^attempt` (capped) plus a jitter drawn from a
//!   caller-supplied random source, so a fleet of clients does not
//!   thunder back in lock-step. The caller passes its deterministic RNG
//!   (the simulator's seeded stream in virtual-time runs), which keeps
//!   reconnect schedules bit-reproducible.
//!
//! Like the client itself the supervisor is sans-I/O: it owns no clock
//! and no socket. The owner calls [`ReconnectSupervisor::poll`]
//! periodically and executes the returned [`SupervisorAction`].

use crate::broker::KEEP_ALIVE_FACTOR;
use crate::client::ClientState;

/// Tuning knobs of the reconnect supervisor.
#[derive(Debug, Clone, PartialEq)]
pub struct ReconnectConfig {
    /// Abandon a CONNECT whose CONNACK has not arrived after this many
    /// nanoseconds.
    pub connect_timeout_ns: u64,
    /// First reconnect delay in nanoseconds; doubles on every
    /// consecutive failure.
    pub backoff_base_ns: u64,
    /// Upper bound on the (pre-jitter) reconnect delay in nanoseconds.
    pub backoff_max_ns: u64,
    /// Additive jitter as a fraction of the delay: the actual wait is
    /// `delay + uniform(0, jitter_frac × delay)`.
    pub jitter_frac: f64,
}

impl Default for ReconnectConfig {
    fn default() -> Self {
        ReconnectConfig {
            connect_timeout_ns: 1_000_000_000,
            backoff_base_ns: 250_000_000,
            backoff_max_ns: 8_000_000_000,
            jitter_frac: 0.25,
        }
    }
}

/// What the owner of the session must do right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use]
pub enum SupervisorAction {
    /// Nothing to do.
    None,
    /// The peer is gone (dead-peer or CONNACK timeout): call
    /// [`crate::client::Client::transport_lost`] and treat the session
    /// as offline. A reconnect has already been scheduled.
    TransportLost,
    /// The backoff delay elapsed: issue a CONNECT (and report it via
    /// [`ReconnectSupervisor::on_connect_sent`]).
    Connect,
}

/// Counters describing the supervisor's activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SupervisorStats {
    /// Transport-lost declarations of either kind.
    pub transport_lost: u64,
    /// Dead-peer detections (silence beyond the keep-alive grace).
    pub dead_peer_detections: u64,
    /// CONNECTs abandoned because no CONNACK arrived in time.
    pub connect_timeouts: u64,
    /// CONNECTs issued after the first one (reconnect attempts).
    pub reconnects: u64,
}

/// Keep-alive dead-peer detector plus reconnect-backoff scheduler. See
/// the [module docs](self).
#[derive(Debug)]
pub struct ReconnectSupervisor {
    config: ReconnectConfig,
    keep_alive_ns: u64,
    last_inbound_ns: u64,
    connect_sent_ns: Option<u64>,
    next_attempt_ns: Option<u64>,
    attempt: u32,
    connects_sent: u64,
    stats: SupervisorStats,
}

impl ReconnectSupervisor {
    /// Creates a supervisor for a session with the given keep-alive.
    pub fn new(config: ReconnectConfig, keep_alive_secs: u16) -> Self {
        ReconnectSupervisor {
            config,
            keep_alive_ns: keep_alive_secs as u64 * 1_000_000_000,
            last_inbound_ns: 0,
            connect_sent_ns: None,
            next_attempt_ns: None,
            attempt: 0,
            connects_sent: 0,
            stats: SupervisorStats::default(),
        }
    }

    /// Activity counters.
    pub fn stats(&self) -> SupervisorStats {
        self.stats
    }

    /// Consecutive failures since the last successful CONNACK.
    pub fn attempt(&self) -> u32 {
        self.attempt
    }

    /// When the next CONNECT is due, if one is scheduled.
    pub fn next_attempt_ns(&self) -> Option<u64> {
        self.next_attempt_ns
    }

    /// Nanoseconds of inbound silence after which a connected peer is
    /// declared dead (0 disables detection, like a zero keep-alive).
    pub fn grace_ns(&self) -> u64 {
        (self.keep_alive_ns as f64 * KEEP_ALIVE_FACTOR) as u64
    }

    /// Records inbound traffic from the broker (any packet counts —
    /// PINGRESP, acks, deliveries).
    pub fn on_inbound(&mut self, now_ns: u64) {
        self.last_inbound_ns = self.last_inbound_ns.max(now_ns);
    }

    /// Records that a CONNECT was put on the wire.
    pub fn on_connect_sent(&mut self, now_ns: u64) {
        self.connect_sent_ns = Some(now_ns);
        self.next_attempt_ns = None;
        self.connects_sent += 1;
        if self.connects_sent > 1 {
            self.stats.reconnects += 1;
        }
    }

    /// Records a successful CONNACK: the backoff resets and dead-peer
    /// detection restarts from `now_ns`.
    pub fn on_connected(&mut self, now_ns: u64) {
        self.attempt = 0;
        self.connect_sent_ns = None;
        self.next_attempt_ns = None;
        self.last_inbound_ns = self.last_inbound_ns.max(now_ns);
    }

    /// Drives detection and reconnect scheduling; call periodically.
    ///
    /// `rand` supplies the backoff jitter and is only invoked when a new
    /// attempt is scheduled, so a deterministic caller consumes its RNG
    /// stream reproducibly.
    pub fn poll(
        &mut self,
        state: ClientState,
        now_ns: u64,
        rand: &mut dyn FnMut() -> u64,
    ) -> SupervisorAction {
        match state {
            ClientState::Connected => {
                self.connect_sent_ns = None;
                let grace = self.grace_ns();
                if grace > 0 && now_ns.saturating_sub(self.last_inbound_ns) >= grace {
                    self.stats.dead_peer_detections += 1;
                    self.stats.transport_lost += 1;
                    self.schedule_retry(now_ns, rand);
                    return SupervisorAction::TransportLost;
                }
                SupervisorAction::None
            }
            ClientState::Connecting => {
                let sent = *self.connect_sent_ns.get_or_insert(now_ns);
                if now_ns.saturating_sub(sent) >= self.config.connect_timeout_ns {
                    self.stats.connect_timeouts += 1;
                    self.stats.transport_lost += 1;
                    self.connect_sent_ns = None;
                    self.schedule_retry(now_ns, rand);
                    return SupervisorAction::TransportLost;
                }
                SupervisorAction::None
            }
            ClientState::Disconnected => {
                match self.next_attempt_ns {
                    Some(at) if now_ns >= at => SupervisorAction::Connect,
                    Some(_) => SupervisorAction::None,
                    None => {
                        // Externally observed loss (refused CONNACK, a
                        // transport_lost by the owner): back off too.
                        self.schedule_retry(now_ns, rand);
                        SupervisorAction::None
                    }
                }
            }
        }
    }

    fn schedule_retry(&mut self, now_ns: u64, rand: &mut dyn FnMut() -> u64) {
        let shift = self.attempt.min(32);
        let delay = self
            .config
            .backoff_base_ns
            .saturating_mul(1u64 << shift)
            .min(self.config.backoff_max_ns);
        let jitter_span = (delay as f64 * self.config.jitter_frac) as u64;
        let jitter = if jitter_span > 0 {
            rand() % jitter_span
        } else {
            0
        };
        self.next_attempt_ns = Some(now_ns + delay + jitter);
        self.attempt = self.attempt.saturating_add(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEC: u64 = 1_000_000_000;

    fn sup(keep_alive_secs: u16) -> ReconnectSupervisor {
        ReconnectSupervisor::new(ReconnectConfig::default(), keep_alive_secs)
    }

    /// A SplitMix64 stream as the deterministic jitter source.
    fn rng(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed;
        move || {
            state = state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        }
    }

    #[test]
    fn dead_broker_is_detected_within_grace() {
        let mut s = sup(10);
        let mut r = rng(1);
        s.on_connected(0);
        // Just under 1.5× keep-alive: still considered alive.
        assert_eq!(
            s.poll(ClientState::Connected, 15 * SEC - 1, &mut r),
            SupervisorAction::None
        );
        // At the grace boundary: dead.
        assert_eq!(
            s.poll(ClientState::Connected, 15 * SEC, &mut r),
            SupervisorAction::TransportLost
        );
        assert_eq!(s.stats().dead_peer_detections, 1);
        assert!(s.next_attempt_ns().is_some(), "a retry must be scheduled");
    }

    #[test]
    fn live_broker_with_jittered_latency_is_never_declared_dead() {
        let mut s = sup(2);
        let mut r = rng(2);
        s.on_connected(0);
        // Ping responses arrive late and irregularly, but always inside
        // the 3 s grace window (keep-alive 2 s × 1.5).
        let mut now = 0;
        for latency_ms in [300u64, 700, 150, 900, 450, 820, 60, 990] {
            now += 2 * SEC + latency_ms * 1_000_000;
            assert_eq!(
                s.poll(ClientState::Connected, now - 1, &mut r),
                SupervisorAction::None,
                "falsely declared dead at {now}"
            );
            s.on_inbound(now);
        }
        assert_eq!(s.stats().dead_peer_detections, 0);
        assert_eq!(s.stats().transport_lost, 0);
    }

    #[test]
    fn zero_keep_alive_disables_dead_peer_detection() {
        let mut s = sup(0);
        let mut r = rng(3);
        s.on_connected(0);
        assert_eq!(
            s.poll(ClientState::Connected, 3600 * SEC, &mut r),
            SupervisorAction::None
        );
    }

    #[test]
    fn connack_timeout_abandons_the_attempt() {
        let mut s = sup(10);
        let mut r = rng(4);
        s.on_connect_sent(0);
        assert_eq!(
            s.poll(ClientState::Connecting, SEC - 1, &mut r),
            SupervisorAction::None
        );
        assert_eq!(
            s.poll(ClientState::Connecting, SEC, &mut r),
            SupervisorAction::TransportLost
        );
        assert_eq!(s.stats().connect_timeouts, 1);
    }

    #[test]
    fn backoff_doubles_up_to_the_cap_and_jitter_is_bounded() {
        let cfg = ReconnectConfig::default();
        let mut s = ReconnectSupervisor::new(cfg.clone(), 10);
        let mut r = rng(5);
        let mut now = 0u64;
        let mut prev_delay = 0u64;
        for failure in 0..8 {
            s.on_connect_sent(now);
            now += cfg.connect_timeout_ns;
            assert_eq!(
                s.poll(ClientState::Connecting, now, &mut r),
                SupervisorAction::TransportLost
            );
            let at = s.next_attempt_ns().expect("scheduled");
            let delay = at - now;
            let nominal = (cfg.backoff_base_ns << failure).min(cfg.backoff_max_ns);
            assert!(
                delay >= nominal && delay as f64 <= nominal as f64 * (1.0 + cfg.jitter_frac),
                "failure {failure}: delay {delay} outside [{nominal}, +{}%]",
                cfg.jitter_frac * 100.0
            );
            if nominal < cfg.backoff_max_ns {
                assert!(delay > prev_delay, "backoff must grow before the cap");
            }
            prev_delay = delay;
            // Not due yet, then due.
            assert_eq!(
                s.poll(ClientState::Disconnected, at - 1, &mut r),
                SupervisorAction::None
            );
            assert_eq!(
                s.poll(ClientState::Disconnected, at, &mut r),
                SupervisorAction::Connect
            );
            now = at;
        }
    }

    #[test]
    fn identical_rng_streams_give_identical_schedules() {
        let schedule = |seed: u64| -> Vec<u64> {
            let mut s = sup(10);
            let mut r = rng(seed);
            let mut now = 0;
            let mut out = Vec::new();
            for _ in 0..6 {
                s.on_connect_sent(now);
                now += 2 * SEC;
                let _ = s.poll(ClientState::Connecting, now, &mut r);
                let at = s.next_attempt_ns().expect("scheduled");
                out.push(at);
                now = at;
            }
            out
        };
        assert_eq!(schedule(42), schedule(42));
        assert_ne!(
            schedule(42),
            schedule(43),
            "jitter must depend on the stream"
        );
    }

    #[test]
    fn success_resets_the_backoff() {
        let mut s = sup(10);
        let mut r = rng(6);
        for _ in 0..4 {
            s.on_connect_sent(0);
            let _ = s.poll(ClientState::Connecting, 2 * SEC, &mut r);
        }
        assert!(s.attempt() >= 4);
        s.on_connect_sent(3 * SEC);
        s.on_connected(3 * SEC);
        assert_eq!(s.attempt(), 0);
        assert_eq!(s.next_attempt_ns(), None);
        // The next failure starts from the base delay again.
        let _ = s.poll(ClientState::Connected, 20 * SEC, &mut r);
        let at = s.next_attempt_ns().expect("scheduled");
        let delay = at - 20 * SEC;
        assert!(delay < 2 * ReconnectConfig::default().backoff_base_ns);
    }

    #[test]
    fn unscheduled_disconnect_backs_off_before_reconnecting() {
        // A refused CONNACK moves the client to Disconnected without the
        // supervisor having declared anything: the first poll schedules,
        // later polls fire the CONNECT.
        let mut s = sup(10);
        let mut r = rng(7);
        assert_eq!(
            s.poll(ClientState::Disconnected, 0, &mut r),
            SupervisorAction::None
        );
        let at = s.next_attempt_ns().expect("scheduled");
        assert_eq!(
            s.poll(ClientState::Disconnected, at, &mut r),
            SupervisorAction::Connect
        );
    }

    #[test]
    fn reconnect_counter_skips_the_first_connect() {
        let mut s = sup(10);
        s.on_connect_sent(0);
        assert_eq!(s.stats().reconnects, 0);
        s.on_connect_sent(SEC);
        s.on_connect_sent(2 * SEC);
        assert_eq!(s.stats().reconnects, 2);
    }
}
