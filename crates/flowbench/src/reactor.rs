//! The load generator's readiness loop: `epoll(7)` for the sockets and a
//! `timerfd` for the schedule, bound directly from the C library so that
//! the generator shares no code with the program under test (a change to
//! `ifot_mqtt::poll` must not make the generator faster or slower). A
//! timerfd rather than the `epoll_wait` time-out because the latter
//! counts in milliseconds and a 2 kHz open loop needs 500 µs.

use std::fs::File;
use std::io::Read;
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::os::raw::{c_int, c_long};
use std::time::Duration;

#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

#[repr(C)]
struct Itimerspec {
    it_interval: Timespec,
    it_value: Timespec,
}

const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_MOD: c_int = 3;
const EPOLL_CLOEXEC: c_int = 0o2000000;
const CLOCK_MONOTONIC: c_int = 1;
const TFD_NONBLOCK: c_int = 0o4000;
const TFD_CLOEXEC: c_int = 0o2000000;

extern "C" {
    // `std` links the platform C library, so these resolve without a
    // crate dependency.
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn timerfd_create(clockid: c_int, flags: c_int) -> c_int;
    fn timerfd_settime(
        fd: c_int,
        flags: c_int,
        new_value: *const Itimerspec,
        old_value: *mut Itimerspec,
    ) -> c_int;
}

/// Token of the timer; sockets use their connection index.
const TIMER_TOKEN: u64 = u64::MAX;

pub struct Reactor {
    epoll: OwnedFd,
    timer: File,
    /// The absolute wake time (caller's clock, ns) the timer is armed for.
    armed_for: Option<u64>,
}

fn check(rc: c_int, what: &str) -> c_int {
    assert!(
        rc >= 0,
        "{what} failed: {}",
        std::io::Error::last_os_error()
    );
    rc
}

impl Reactor {
    pub fn new() -> Reactor {
        // SAFETY: both calls take plain flags and return a new descriptor
        // (or -1), which `from_raw_fd` then owns exclusively.
        let (epoll, timer) = unsafe {
            let epfd = check(epoll_create1(EPOLL_CLOEXEC), "epoll_create1");
            let tfd = check(
                timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC),
                "timerfd_create",
            );
            (OwnedFd::from_raw_fd(epfd), File::from_raw_fd(tfd))
        };
        let reactor = Reactor {
            epoll,
            timer,
            armed_for: None,
        };
        reactor.ctl(
            EPOLL_CTL_ADD,
            reactor.timer.as_raw_fd(),
            EPOLLIN,
            TIMER_TOKEN,
        );
        reactor
    }

    fn ctl(&self, op: c_int, fd: RawFd, events: u32, token: u64) {
        let mut event = EpollEvent {
            events,
            data: token,
        };
        // SAFETY: `event` is a live `epoll_event` for the duration of the
        // call; the kernel copies it.
        check(
            unsafe { epoll_ctl(self.epoll.as_raw_fd(), op, fd, &mut event) },
            "epoll_ctl",
        );
    }

    /// Watches `fd` for input (level-triggered) under `token`.
    pub fn add(&self, fd: RawFd, token: u64) {
        self.ctl(EPOLL_CTL_ADD, fd, EPOLLIN, token);
    }

    /// Also reports `fd` when it becomes writable, or stops doing so.
    pub fn want_writable(&self, fd: RawFd, token: u64, on: bool) {
        let events = if on { EPOLLIN | EPOLLOUT } else { EPOLLIN };
        self.ctl(EPOLL_CTL_MOD, fd, events, token);
    }

    /// Parks until a socket is ready (readable, writable where asked for,
    /// or failed: the owner finds out which from its own read and write)
    /// or the caller's clock reaches `wake_ns`; `now_ns` is the same clock
    /// now. `ready` receives the tokens. The timer is re-armed
    /// only when the wake time changed, so a busy socket costs one
    /// system call per wake-up, not two.
    pub fn wait(&mut self, ready: &mut Vec<u64>, now_ns: u64, wake_ns: u64) {
        ready.clear();
        if self.armed_for != Some(wake_ns) {
            let after = Duration::from_nanos(wake_ns.saturating_sub(now_ns).max(1));
            let spec = Itimerspec {
                it_interval: Timespec {
                    tv_sec: 0,
                    tv_nsec: 0,
                },
                it_value: Timespec {
                    tv_sec: after.as_secs() as c_long,
                    tv_nsec: after.subsec_nanos() as c_long,
                },
            };
            // SAFETY: `spec` outlives the call and the old value is not
            // requested (null).
            check(
                unsafe { timerfd_settime(self.timer.as_raw_fd(), 0, &spec, std::ptr::null_mut()) },
                "timerfd_settime",
            );
            self.armed_for = Some(wake_ns);
        }
        let mut events = [EpollEvent { events: 0, data: 0 }; 64];
        // SAFETY: `events` is a live out-array of the stated length.
        let n = unsafe {
            epoll_wait(
                self.epoll.as_raw_fd(),
                events.as_mut_ptr(),
                events.len() as c_int,
                -1,
            )
        };
        if n < 0 {
            let err = std::io::Error::last_os_error();
            assert!(
                err.kind() == std::io::ErrorKind::Interrupted,
                "epoll_wait failed: {err}"
            );
            return;
        }
        for event in &events[..n as usize] {
            // Copy out of the (possibly packed) record before use.
            let token = event.data;
            if token == TIMER_TOKEN {
                // Expiry count; the value itself is of no interest.
                let _ = (&self.timer).read(&mut [0u8; 8]);
                self.armed_for = None;
                continue;
            }
            ready.push(token);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::unix::net::UnixStream;
    use std::time::Instant;

    #[test]
    fn timer_wakes_within_a_millisecond_and_sockets_wake_at_once() {
        let (mut a, b) = UnixStream::pair().expect("socket pair");
        let mut reactor = Reactor::new();
        reactor.add(b.as_raw_fd(), 7);
        let mut ready = Vec::new();

        // Nothing readable: the 300 µs timer ends the wait.
        let start = Instant::now();
        reactor.wait(&mut ready, 0, 300_000);
        let waited = start.elapsed();
        assert!(ready.is_empty());
        assert!(
            waited >= Duration::from_micros(300),
            "woke early: {waited:?}"
        );
        assert!(waited < Duration::from_millis(50), "woke late: {waited:?}");

        // A readable socket ends the wait long before a far-off timer.
        a.write_all(b"x").expect("write");
        let start = Instant::now();
        reactor.wait(&mut ready, 0, 5_000_000_000);
        assert!(start.elapsed() < Duration::from_secs(1));
        assert_eq!(ready, [7]);
    }
}
