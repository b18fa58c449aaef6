//! # Event-driven timer wheel
//!
//! The original TCP front-end woke every 100 ms to call
//! [`Broker::poll`](crate::broker::Broker::poll) whether or not any
//! timer could possibly fire — an idle broker still burned a wakeup ten
//! times a second, and a retransmission could sit up to 100 ms past its
//! deadline. [`TimerWheel`] inverts that: the service thread parks until
//! *exactly* the earliest deadline reported by
//! [`Broker::next_deadline_ns`](crate::broker::Broker::next_deadline_ns)
//! (or forever while idle), and producers that create an **earlier**
//! deadline — e.g. a reader thread that just accepted a QoS 1 publish —
//! wake it precisely once.
//!
//! The wheel itself owns no clock and no parking primitive: it is the
//! shared arithmetic between one sleeping consumer and many producers
//! (a compare-and-swap-min over the parked deadline plus wakeup
//! accounting), so the same state machine drives a condvar, a channel
//! `recv_timeout`, or a virtual-time unit test unchanged. That is what
//! makes "an idle broker makes zero timer wakeups between deadlines"
//! testable deterministically.
//!
//! Protocol:
//!
//! 1. the owner computes its broker's next deadline and calls
//!    [`TimerWheel::arm`], sleeping for the returned duration (`None` =
//!    sleep until signalled);
//! 2. producers call [`TimerWheel::note_deadline`] after feeding the
//!    broker; a `true` return means the owner is parked past the new
//!    deadline and must be signalled through the transport's wake
//!    channel;
//! 3. on any wakeup the owner calls [`TimerWheel::on_wake`] and
//!    re-enters step 1.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Sentinel for "no deadline": the owner sleeps until signalled.
pub(crate) const NO_DEADLINE: u64 = u64::MAX;

/// Why [`TimerWheel::on_wake`] believes the owner woke.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wake {
    /// The armed deadline was reached: time to poll the broker.
    Deadline,
    /// Woken before the armed deadline (new work or an earlier deadline
    /// arrived); the owner should re-compute and re-arm.
    Early,
}

/// Shared timer state between one parked service thread and its
/// producers. See the [module docs](self) for the protocol.
#[derive(Debug, Default)]
pub struct TimerWheel {
    /// Deadline the owner is currently parked until (`NO_DEADLINE` when
    /// idle or awake).
    parked_ns: AtomicU64,
    /// Total wakeups the owner went through.
    wakeups: AtomicU64,
    /// Wakeups that fired at an armed deadline.
    deadline_wakeups: AtomicU64,
}

impl TimerWheel {
    /// Creates an idle wheel.
    pub fn new() -> Self {
        TimerWheel {
            parked_ns: AtomicU64::new(NO_DEADLINE),
            wakeups: AtomicU64::new(0),
            deadline_wakeups: AtomicU64::new(0),
        }
    }

    /// The owner is about to wait until `deadline` (`None` = no timer
    /// work pending, sleep until signalled). Returns how long to sleep
    /// from `now_ns`: `None` means indefinitely, `Some(ZERO)` means the
    /// deadline already passed — poll immediately without sleeping.
    pub fn arm(&self, now_ns: u64, deadline: Option<u64>) -> Option<Duration> {
        let deadline = deadline.unwrap_or(NO_DEADLINE);
        self.parked_ns.store(deadline, Ordering::Release);
        if deadline == NO_DEADLINE {
            None
        } else {
            Some(Duration::from_nanos(deadline.saturating_sub(now_ns)))
        }
    }

    /// A producer created timer state due at `deadline_ns`. Folds it
    /// into the parked deadline (compare-and-swap min) and returns
    /// `true` iff the owner is parked *past* it and must be signalled.
    /// Producers whose deadline is not earlier than the parked one
    /// return `false` — the owner will wake in time anyway — which is
    /// what keeps steady-state traffic from generating any timer
    /// signalling at all.
    pub fn note_deadline(&self, deadline_ns: u64) -> bool {
        let mut current = self.parked_ns.load(Ordering::Acquire);
        while deadline_ns < current {
            match self.parked_ns.compare_exchange_weak(
                current,
                deadline_ns,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return true,
                Err(seen) => current = seen,
            }
        }
        false
    }

    /// The owner woke at `now_ns`. Classifies the wakeup against the
    /// armed deadline, records it, and disarms.
    pub fn on_wake(&self, now_ns: u64) -> Wake {
        let armed = self.parked_ns.swap(NO_DEADLINE, Ordering::AcqRel);
        self.wakeups.fetch_add(1, Ordering::Relaxed);
        if armed != NO_DEADLINE && now_ns >= armed {
            self.deadline_wakeups.fetch_add(1, Ordering::Relaxed);
            Wake::Deadline
        } else {
            Wake::Early
        }
    }

    /// Total wakeups observed.
    pub fn wakeups(&self) -> u64 {
        self.wakeups.load(Ordering::Relaxed)
    }

    /// Wakeups that coincided with an armed deadline.
    pub fn deadline_wakeups(&self) -> u64 {
        self.deadline_wakeups.load(Ordering::Relaxed)
    }

    /// Wakeups that happened before the armed deadline (signals).
    pub fn early_wakeups(&self) -> u64 {
        self.wakeups() - self.deadline_wakeups()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_wheel_sleeps_indefinitely_with_zero_wakeups() {
        let w = TimerWheel::new();
        // No deadline ⇒ no sleep bound ⇒ the owner parks forever. The
        // old transport would have woken (and polled) 10×/second here.
        assert_eq!(w.arm(0, None), None);
        assert_eq!(w.wakeups(), 0);
    }

    #[test]
    fn armed_wheel_sleeps_exactly_to_the_deadline() {
        let w = TimerWheel::new();
        let deadline = 7_300_000_000; // 7.3 s out
                                      // One sleep spanning the whole gap: zero wakeups strictly
                                      // between now and the deadline, one wakeup at it.
        assert_eq!(
            w.arm(300_000_000, Some(deadline)),
            Some(Duration::from_secs(7))
        );
        assert_eq!(w.wakeups(), 0, "nothing fires before the deadline");
        assert_eq!(w.on_wake(deadline), Wake::Deadline);
        assert_eq!(w.wakeups(), 1);
        assert_eq!(w.deadline_wakeups(), 1);
        assert_eq!(w.early_wakeups(), 0);
    }

    #[test]
    fn past_deadline_polls_immediately() {
        let w = TimerWheel::new();
        assert_eq!(w.arm(500, Some(400)), Some(Duration::ZERO));
        assert_eq!(w.on_wake(500), Wake::Deadline);
    }

    #[test]
    fn earlier_deadline_signals_the_parked_owner_once() {
        let w = TimerWheel::new();
        w.arm(0, Some(10_000_000_000));
        // A producer created earlier timer state: signal needed.
        assert!(w.note_deadline(2_000_000_000));
        // Later (or equal) deadlines ride on the already-armed wakeup.
        assert!(!w.note_deadline(5_000_000_000));
        assert!(!w.note_deadline(2_000_000_000));
        // The owner wakes early, re-computes, re-arms on the new value.
        assert_eq!(w.on_wake(1_000), Wake::Early);
        assert_eq!(w.early_wakeups(), 1);
        assert_eq!(
            w.arm(1_000, Some(2_000_000_000)),
            Some(Duration::from_nanos(1_999_999_000))
        );
        assert_eq!(w.on_wake(2_000_000_000), Wake::Deadline);
        // Exactly two wakeups total for the whole episode — the old
        // poll loop would have made a hundred in those 10 seconds.
        assert_eq!(w.wakeups(), 2);
    }

    #[test]
    fn later_deadline_never_wakes_the_owner() {
        let w = TimerWheel::new();
        w.arm(0, Some(1_000_000_000));
        assert!(!w.note_deadline(5_000_000_000));
        assert_eq!(w.early_wakeups(), 0);
    }

    #[test]
    fn unarmed_wheel_accepts_deadlines() {
        let w = TimerWheel::new();
        // Owner not parked (or parked without a deadline): the producer
        // must signal so the owner can arm a real timeout.
        assert!(w.note_deadline(42));
        assert_eq!(w.on_wake(0), Wake::Early);
    }

    #[test]
    fn concurrent_producers_keep_the_minimum() {
        use std::sync::Arc;
        let w = Arc::new(TimerWheel::new());
        w.arm(0, Some(NO_DEADLINE - 1));
        let handles: Vec<_> = (1..=8u64)
            .map(|i| {
                let w = Arc::clone(&w);
                std::thread::spawn(move || {
                    for d in (i * 100..i * 100 + 50).rev() {
                        w.note_deadline(d);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("producer thread");
        }
        // The global minimum of every noted deadline survives the races.
        assert_eq!(w.parked_ns.load(Ordering::Acquire), 100);
    }
}
