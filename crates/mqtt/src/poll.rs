//! # Thin readiness poller — epoll on Linux, `poll(2)` elsewhere
//!
//! The C10K front-end rewrite (`net.rs`) replaced one OS thread per
//! connection with one event loop per routing shard; this module is the
//! loop's only OS-facing dependency. It is deliberately minimal — four
//! operations (`register`, `reregister`, `deregister`, `wait`) plus a
//! cross-thread [`Waker`] — so the transport code reads like the sans-I/O
//! state machines it drives and the platform surface stays auditable.
//!
//! No external crate is used: the symbols (`epoll_create1`, `epoll_ctl`,
//! `epoll_wait`, `poll`, `getrlimit`, `close`) come straight from the
//! platform C library that `std` already links.
//!
//! ## Backends
//!
//! * **Linux**: `epoll`, the readiness API every production MQTT broker
//!   sits on. Level-triggered by default; [`Poller::register`] takes an
//!   `edge` flag that arms `EPOLLET` for callers that drain to
//!   `WouldBlock` on every event (see `BrokerConfig::edge_triggered`).
//! * **Other Unix**: a portable `poll(2)` fallback that rebuilds the
//!   `pollfd` array from a registration map on every wait. O(n) per call
//!   — fine for tests and small deployments, not for C10K — and always
//!   level-triggered (the `edge` flag is ignored).
//!
//! ## Wake protocol
//!
//! [`Waker`] is a self-pipe (a `UnixStream` pair, both ends
//! nonblocking). [`Waker::wake`] writes one byte; the read end is
//! registered in the poller under [`WAKE_TOKEN`], so a parked
//! [`Poller::wait`] returns immediately. Bytes accumulate until the loop
//! calls [`Poller::drain_waker`], which means a wake can never be lost:
//! a producer that signals between the loop's last drain and its next
//! `wait` leaves the pipe readable and the `wait` returns at once. A
//! full pipe is equivalent to a pending wake, so `wake` ignores
//! `WouldBlock`.

use std::io;
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::Duration;

/// Token reserved for the poller's own wake pipe; never returned for a
/// registered connection (the slab's generation arithmetic cannot
/// produce it).
pub const WAKE_TOKEN: u64 = u64::MAX;

/// Readiness interest for one registered descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Notify when the descriptor becomes readable (or hung up).
    pub readable: bool,
    /// Notify when the descriptor becomes writable.
    pub writable: bool,
}

impl Interest {
    /// Read-readiness only — the steady state of a drained connection.
    pub const READABLE: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Read and write readiness — armed only while a partial write left
    /// outbound bytes stranded (re-arming `EPOLLOUT` permanently would
    /// busy-wake on every always-writable socket).
    pub const READ_WRITE: Interest = Interest {
        readable: true,
        writable: true,
    };
}

/// One readiness event. Error/hang-up conditions are folded into both
/// directions so the owner discovers the failure from the `read`/`write`
/// call itself (single error path, no separate teardown branch).
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token supplied at registration ([`WAKE_TOKEN`] for the wake
    /// pipe).
    pub token: u64,
    /// Readable, peer-closed, or errored.
    pub readable: bool,
    /// Writable or errored.
    pub writable: bool,
}

/// Cross-thread wake handle for a [`Poller`] (clone freely; all clones
/// share one pipe).
#[derive(Debug, Clone)]
pub struct Waker {
    tx: Arc<UnixStream>,
}

impl Waker {
    /// Makes the owning poller's `wait` return promptly. Cheap,
    /// non-blocking, and idempotent between drains: coalescing producers
    /// cost one byte in a pipe, not one syscall per frame.
    pub fn wake(&self) {
        use std::io::Write;
        // WouldBlock = pipe already full of wakes = owner will wake.
        let _ = (&*self.tx).write(&[1u8]);
    }
}

/// Raw C-library bindings shared by both backends. `std` links the
/// platform libc, so plain `extern "C"` declarations resolve without any
/// crate dependency.
mod sys {
    use std::os::raw::c_int;
    #[cfg(all(unix, not(target_os = "linux")))]
    use std::os::raw::c_ulong;

    #[cfg(target_os = "linux")]
    pub const EPOLLIN: u32 = 0x001;
    #[cfg(target_os = "linux")]
    pub const EPOLLOUT: u32 = 0x004;
    #[cfg(target_os = "linux")]
    pub const EPOLLERR: u32 = 0x008;
    #[cfg(target_os = "linux")]
    pub const EPOLLHUP: u32 = 0x010;
    #[cfg(target_os = "linux")]
    pub const EPOLLRDHUP: u32 = 0x2000;
    #[cfg(target_os = "linux")]
    pub const EPOLLET: u32 = 1 << 31;

    #[cfg(target_os = "linux")]
    pub const EPOLL_CTL_ADD: c_int = 1;
    #[cfg(target_os = "linux")]
    pub const EPOLL_CTL_DEL: c_int = 2;
    #[cfg(target_os = "linux")]
    pub const EPOLL_CTL_MOD: c_int = 3;
    #[cfg(target_os = "linux")]
    pub const EPOLL_CLOEXEC: c_int = 0x80000;

    #[cfg(all(unix, not(target_os = "linux")))]
    pub const POLLIN: i16 = 0x001;
    #[cfg(all(unix, not(target_os = "linux")))]
    pub const POLLOUT: i16 = 0x004;
    #[cfg(all(unix, not(target_os = "linux")))]
    pub const POLLERR: i16 = 0x008;
    #[cfg(all(unix, not(target_os = "linux")))]
    pub const POLLHUP: i16 = 0x010;

    pub const RLIMIT_NOFILE: c_int = 7;

    /// `struct epoll_event`. Packed on x86-64 (the kernel ABI there),
    /// naturally aligned everywhere else — the same layout dance libc
    /// performs.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    /// `struct pollfd` for the portable fallback.
    #[cfg(all(unix, not(target_os = "linux")))]
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: i16,
        pub revents: i16,
    }

    /// `struct rlimit` (both fields are `rlim_t`, a 64-bit unsigned on
    /// every modern Unix).
    #[repr(C)]
    pub struct RLimit {
        pub cur: u64,
        pub max: u64,
    }

    extern "C" {
        #[cfg(target_os = "linux")]
        pub fn epoll_create1(flags: c_int) -> c_int;
        #[cfg(target_os = "linux")]
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        #[cfg(target_os = "linux")]
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        #[cfg(all(unix, not(target_os = "linux")))]
        pub fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
        #[cfg(target_os = "linux")]
        pub fn close(fd: c_int) -> c_int;
        pub fn getrlimit(resource: c_int, rlim: *mut RLimit) -> c_int;
    }
}

/// The process's soft open-file limit (`RLIMIT_NOFILE`), used by the
/// C10K tests and bench to size connection counts to the host instead of
/// dying on `EMFILE`.
pub fn nofile_limit() -> Option<u64> {
    let mut lim = sys::RLimit { cur: 0, max: 0 };
    // SAFETY: getrlimit writes the out-param on success and touches
    // nothing else.
    let rc = unsafe { sys::getrlimit(sys::RLIMIT_NOFILE, &mut lim) };
    if rc == 0 {
        Some(lim.cur)
    } else {
        None
    }
}

fn duration_to_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        None => -1,
        Some(d) => {
            if d.is_zero() {
                0
            } else {
                // Ceil to a whole millisecond so a sub-millisecond
                // residue cannot busy-spin the loop at timeout 0.
                let ms = d.as_millis().saturating_add(1);
                i32::try_from(ms).unwrap_or(i32::MAX)
            }
        }
    }
}

// ---------------------------------------------------------------------
// Linux backend: epoll
// ---------------------------------------------------------------------

#[cfg(target_os = "linux")]
mod backend {
    use super::*;

    /// The epoll-backed readiness poller (see the [module docs](super)).
    #[derive(Debug)]
    pub struct Poller {
        epfd: RawFd,
        wake_rx: UnixStream,
        waker: Waker,
    }

    impl Poller {
        /// A fresh epoll instance with its wake pipe already registered
        /// under [`WAKE_TOKEN`].
        ///
        /// # Errors
        ///
        /// Propagates `epoll_create1`/socketpair failures.
        pub fn new() -> io::Result<Poller> {
            // SAFETY: epoll_create1 allocates a new descriptor.
            let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            let (wake_rx, wake_tx) = match UnixStream::pair() {
                Ok(pair) => pair,
                Err(e) => {
                    // SAFETY: epfd came from epoll_create1 above.
                    unsafe { sys::close(epfd) };
                    return Err(e);
                }
            };
            wake_rx.set_nonblocking(true)?;
            wake_tx.set_nonblocking(true)?;
            let poller = Poller {
                epfd,
                wake_rx,
                waker: Waker {
                    tx: Arc::new(wake_tx),
                },
            };
            // The wake pipe is level-triggered regardless of the
            // connection trigger mode: an undrained wake must keep the
            // loop hot.
            poller.ctl(
                sys::EPOLL_CTL_ADD,
                poller.wake_rx.as_raw_fd(),
                sys::EPOLLIN,
                WAKE_TOKEN,
            )?;
            Ok(poller)
        }

        fn ctl(&self, op: i32, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
            let mut ev = sys::EpollEvent {
                events,
                data: token,
            };
            // SAFETY: epfd and fd are live descriptors; ev outlives the
            // call.
            let rc = unsafe { sys::epoll_ctl(self.epfd, op, fd, &mut ev) };
            if rc < 0 {
                Err(io::Error::last_os_error())
            } else {
                Ok(())
            }
        }

        fn event_bits(interest: Interest, edge: bool) -> u32 {
            let mut bits = sys::EPOLLRDHUP;
            if interest.readable {
                bits |= sys::EPOLLIN;
            }
            if interest.writable {
                bits |= sys::EPOLLOUT;
            }
            if edge {
                bits |= sys::EPOLLET;
            }
            bits
        }

        /// Starts watching `fd` under `token`; `edge` arms `EPOLLET`.
        ///
        /// # Errors
        ///
        /// Propagates `epoll_ctl` failures (e.g. an fd watched twice).
        pub fn register(
            &self,
            fd: RawFd,
            token: u64,
            interest: Interest,
            edge: bool,
        ) -> io::Result<()> {
            self.ctl(
                sys::EPOLL_CTL_ADD,
                fd,
                Self::event_bits(interest, edge),
                token,
            )
        }

        /// Replaces the interest set of an already-watched `fd`.
        ///
        /// # Errors
        ///
        /// Propagates `epoll_ctl` failures (e.g. an fd never registered).
        pub fn reregister(
            &self,
            fd: RawFd,
            token: u64,
            interest: Interest,
            edge: bool,
        ) -> io::Result<()> {
            self.ctl(
                sys::EPOLL_CTL_MOD,
                fd,
                Self::event_bits(interest, edge),
                token,
            )
        }

        /// Stops watching `fd`. Call before closing the descriptor.
        ///
        /// # Errors
        ///
        /// Propagates `epoll_ctl` failures.
        pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
            self.ctl(sys::EPOLL_CTL_DEL, fd, 0, 0)
        }

        /// Parks until readiness, a wake, or `timeout` (`None` = forever)
        /// and fills `events` with what fired (cleared first; empty on
        /// timeout).
        ///
        /// # Errors
        ///
        /// Propagates `epoll_wait` failures other than `EINTR` (which
        /// retries).
        pub fn wait(&self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
            events.clear();
            let mut buf = [sys::EpollEvent { events: 0, data: 0 }; 256];
            let n = loop {
                // SAFETY: buf is a live out-array of the stated length.
                let rc = unsafe {
                    sys::epoll_wait(
                        self.epfd,
                        buf.as_mut_ptr(),
                        buf.len() as i32,
                        duration_to_ms(timeout),
                    )
                };
                if rc >= 0 {
                    break rc as usize;
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
                // EINTR: retry with the original timeout (a slightly
                // stretched sleep is fine — deadlines re-check on wake).
            };
            for raw in &buf[..n] {
                let bits = raw.events;
                let fail = bits & (sys::EPOLLERR | sys::EPOLLHUP) != 0;
                events.push(Event {
                    token: raw.data,
                    readable: fail || bits & (sys::EPOLLIN | sys::EPOLLRDHUP) != 0,
                    writable: fail || bits & sys::EPOLLOUT != 0,
                });
            }
            Ok(())
        }

        /// A cross-thread wake handle for this poller.
        pub fn waker(&self) -> Waker {
            self.waker.clone()
        }

        /// Consumes pending wake bytes so the next `wait` can park. Call
        /// once per [`WAKE_TOKEN`] event.
        pub fn drain_waker(&self) {
            use std::io::Read;
            let mut buf = [0u8; 64];
            while matches!((&self.wake_rx).read(&mut buf), Ok(n) if n > 0) {}
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            // SAFETY: epfd is owned by this poller and closed once.
            unsafe { sys::close(self.epfd) };
        }
    }

    // The epoll fd and pipe ends move with the owning event-loop thread.
    unsafe impl Send for Poller {}
}

// ---------------------------------------------------------------------
// Portable Unix backend: poll(2)
// ---------------------------------------------------------------------

#[cfg(all(unix, not(target_os = "linux")))]
mod backend {
    use super::*;
    use std::collections::HashMap;
    use std::sync::{Mutex, PoisonError};

    /// The portable `poll(2)`-backed poller (see the [module
    /// docs](super)).
    #[derive(Debug)]
    pub struct Poller {
        registry: Mutex<HashMap<RawFd, (u64, Interest)>>,
        wake_rx: UnixStream,
        waker: Waker,
    }

    impl Poller {
        /// A fresh poller with its wake pipe set up.
        ///
        /// # Errors
        ///
        /// Propagates socketpair failures.
        pub fn new() -> io::Result<Poller> {
            let (wake_rx, wake_tx) = UnixStream::pair()?;
            wake_rx.set_nonblocking(true)?;
            wake_tx.set_nonblocking(true)?;
            Ok(Poller {
                registry: Mutex::new(HashMap::new()),
                wake_rx,
                waker: Waker {
                    tx: Arc::new(wake_tx),
                },
            })
        }

        /// `edge` is accepted for signature parity and ignored: `poll(2)`
        /// is inherently level-triggered.
        pub fn register(
            &self,
            fd: RawFd,
            token: u64,
            interest: Interest,
            _edge: bool,
        ) -> io::Result<()> {
            self.registry
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .insert(fd, (token, interest));
            Ok(())
        }

        /// Replaces the interest set of a watched `fd`.
        ///
        /// # Errors
        ///
        /// Infallible here; `io::Result` for parity with epoll.
        pub fn reregister(
            &self,
            fd: RawFd,
            token: u64,
            interest: Interest,
            _edge: bool,
        ) -> io::Result<()> {
            self.registry
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .insert(fd, (token, interest));
            Ok(())
        }

        /// Stops watching `fd`.
        ///
        /// # Errors
        ///
        /// Infallible here; `io::Result` for parity with epoll.
        pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
            self.registry
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .remove(&fd);
            Ok(())
        }

        /// Parks until readiness, a wake, or `timeout` and fills
        /// `events`.
        ///
        /// # Errors
        ///
        /// Propagates `poll(2)` failures other than `EINTR`.
        pub fn wait(&self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
            events.clear();
            let mut fds: Vec<sys::PollFd> = Vec::new();
            let mut tokens: Vec<u64> = Vec::new();
            fds.push(sys::PollFd {
                fd: self.wake_rx.as_raw_fd(),
                events: sys::POLLIN,
                revents: 0,
            });
            tokens.push(WAKE_TOKEN);
            for (&fd, &(token, interest)) in self
                .registry
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .iter()
            {
                let mut bits = 0i16;
                if interest.readable {
                    bits |= sys::POLLIN;
                }
                if interest.writable {
                    bits |= sys::POLLOUT;
                }
                fds.push(sys::PollFd {
                    fd,
                    events: bits,
                    revents: 0,
                });
                tokens.push(token);
            }
            let n = loop {
                // SAFETY: fds is a live array of the stated length.
                let rc = unsafe {
                    sys::poll(
                        fds.as_mut_ptr(),
                        fds.len() as std::os::raw::c_ulong,
                        duration_to_ms(timeout),
                    )
                };
                if rc >= 0 {
                    break rc;
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            };
            if n == 0 {
                return Ok(());
            }
            for (pfd, &token) in fds.iter().zip(&tokens) {
                let bits = pfd.revents;
                if bits == 0 {
                    continue;
                }
                let fail = bits & (sys::POLLERR | sys::POLLHUP) != 0;
                events.push(Event {
                    token,
                    readable: fail || bits & sys::POLLIN != 0,
                    writable: fail || bits & sys::POLLOUT != 0,
                });
            }
            Ok(())
        }

        /// A cross-thread wake handle for this poller.
        pub fn waker(&self) -> Waker {
            self.waker.clone()
        }

        /// Consumes pending wake bytes so the next `wait` can park.
        pub fn drain_waker(&self) {
            use std::io::Read;
            let mut buf = [0u8; 64];
            while matches!((&self.wake_rx).read(&mut buf), Ok(n) if n > 0) {}
        }
    }
}

#[cfg(not(unix))]
compile_error!("ifot-mqtt's readiness poller requires a Unix platform (epoll or poll(2))");

pub use backend::Poller;

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::time::Instant;

    #[test]
    fn timeout_elapses_with_no_events() {
        let poller = Poller::new().expect("poller");
        let mut events = Vec::new();
        let start = Instant::now();
        poller
            .wait(&mut events, Some(Duration::from_millis(30)))
            .expect("wait");
        assert!(events.is_empty());
        assert!(start.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn waker_interrupts_an_indefinite_wait() {
        let poller = Poller::new().expect("poller");
        let waker = poller.waker();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            waker.wake();
        });
        let mut events = Vec::new();
        poller.wait(&mut events, None).expect("wait");
        assert!(events.iter().any(|e| e.token == WAKE_TOKEN && e.readable));
        poller.drain_waker();
        handle.join().expect("waker thread");
        // Drained: the next wait times out instead of spinning on the
        // stale wake byte.
        poller
            .wait(&mut events, Some(Duration::from_millis(5)))
            .expect("wait");
        assert!(!events.iter().any(|e| e.token == WAKE_TOKEN));
    }

    #[test]
    fn wake_before_wait_is_not_lost() {
        let poller = Poller::new().expect("poller");
        poller.waker().wake();
        let mut events = Vec::new();
        poller.wait(&mut events, None).expect("wait");
        assert!(events.iter().any(|e| e.token == WAKE_TOKEN));
    }

    #[test]
    fn readable_socket_reports_its_token() {
        let (mut a, b) = UnixStream::pair().expect("pair");
        b.set_nonblocking(true).expect("nonblocking");
        let poller = Poller::new().expect("poller");
        poller
            .register(b.as_raw_fd(), 7, Interest::READABLE, false)
            .expect("register");
        a.write_all(b"x").expect("write");
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .expect("wait");
        assert!(events.iter().any(|e| e.token == 7 && e.readable));
        // Writable interest is not armed: no writable-only storm.
        assert!(!events.iter().any(|e| e.token == 7 && !e.readable));
        poller.deregister(b.as_raw_fd()).expect("deregister");
        poller
            .wait(&mut events, Some(Duration::from_millis(5)))
            .expect("wait");
        assert!(events.is_empty(), "deregistered fd still reported");
    }

    #[test]
    fn writable_interest_fires_for_an_unfilled_socket() {
        let (a, _b) = UnixStream::pair().expect("pair");
        a.set_nonblocking(true).expect("nonblocking");
        let poller = Poller::new().expect("poller");
        poller
            .register(a.as_raw_fd(), 9, Interest::READ_WRITE, false)
            .expect("register");
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .expect("wait");
        assert!(events.iter().any(|e| e.token == 9 && e.writable));
    }

    #[test]
    fn nofile_limit_is_reported() {
        let lim = nofile_limit().expect("getrlimit");
        assert!(lim >= 64, "implausible fd limit {lim}");
    }
}
