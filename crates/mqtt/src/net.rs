//! Nonblocking TCP transport: the sharded broker over real sockets with
//! one readiness-driven event loop per shard (std only, no async
//! runtime).
//!
//! This is the deployment face of the substrate: [`TcpBroker`] serves
//! MQTT on a socket address exactly like Mosquitto would, and
//! [`TcpClient`] is a small blocking client. Internally both reuse the
//! identical sans-I/O state machines the simulator exercises — the
//! transport only moves bytes and timestamps.
//!
//! ## Threading model — C10K and beyond
//!
//! One blocking **accept** thread and `config.shards` **event-loop**
//! threads; the thread count is fixed no matter how many connections are
//! live (the previous front-end spent one reader thread per connection,
//! capping sessions at thread-pool scale). The acceptor distributes
//! sockets round-robin across the loops; each loop owns its connections
//! end-to-end — a nonblocking slab of sockets (generational tokens, see
//! [`Slab`]) driven by a readiness [`Poller`] (epoll on Linux):
//!
//! * **reads**: a readable socket is read straight into its
//!   connection's [`StreamDecoder`] buffer; decoded packets go through
//!   [`ShardedBroker::handle_packet_into`], into an output the loop
//!   keeps.
//! * **writes**: resulting frames land on per-connection outbound
//!   queues; the owning loop drains dirty queues with `write_vectored`
//!   batches of up to [`BrokerConfig::write_batch`] frames, their
//!   `IoSlice`s built in a stack array. A partial write arms
//!   write-readiness (`EPOLLOUT`) and the drain resumes when the socket
//!   unjams; a consumer that stays jammed past
//!   [`BrokerConfig::write_timeout_ns`] is evicted without the loop ever
//!   blocking on it. **No TCP write happens under a broker lock.**
//! * **wakes**: a producer on another thread that queues frames for an
//!   idle connection marks it dirty **once** (an `in_dirty` flag
//!   deduplicates concurrent producers) and signals the owning loop
//!   through its [`Waker`] self-pipe.
//! * **timers**: each loop arms its poll timeout with a lower bound on
//!   its shard's earliest deadline (`LoopHandle::broker_deadline`), which
//!   producers lower when they create timer state and the loop rescans
//!   only after a deadline wake-up — not on every turn. An idle broker
//!   parks every loop indefinitely and makes **zero** timer wakeups
//!   (asserted in tests).
//!
//! ## What a turn allocates
//!
//! Only what outlives it: the topic and payload of a PUBLISH it routes,
//! and the frames it queues. The readiness list, the decoded packets, the
//! dirty list, the write snapshot and the broker's output are scratch the
//! event loop owns and reuses; the broker writes its WAL records from
//! borrowed fields into a batch buffer that is framed in place. The gate
//! is `tests/net_alloc_budget.rs`.
//!
//! Cross-shard publishes travel between loops over bounded channels
//! carrying the shared-payload [`Publish`] (the payload `Bytes` is
//! reference-counted, not copied); a full target channel falls back to
//! applying the forward inline, so loops never block on each other and
//! cannot deadlock.
//!
//! Connection admission is bounded by [`BrokerConfig::max_connections`]
//! (a storm degrades into counted refusals at the listener instead of
//! fd exhaustion inside the loops), and accept-time `EMFILE`/`ENFILE`
//! backs off instead of killing the listener (see
//! [`classify_accept_error`]).

use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, IoSlice, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::time::{Duration, Instant};

use bytes::Bytes;

use crate::broker::{Action, BrokerConfig};
use crate::client::{Client, ClientConfig, ClientEvent};
use crate::codec::{encode, StreamDecoder};
use crate::packet::{Packet, Publish, QoS};
use crate::poll::{Event, Interest, Poller, Waker, WAKE_TOKEN};
use crate::shard::{ShardOutput, ShardedBroker};
use crate::slab::Slab;
use crate::topic::{TopicFilter, TopicName};
use crate::wheel::{TimerWheel, Wake, NO_DEADLINE};

/// Capacity of each loop's inbound channel (cross-shard forwards and
/// freshly accepted sockets). Loops never block on a full channel — a
/// full forward target gets the publish applied inline — and the
/// acceptor may briefly block, which is exactly accept backpressure.
const LOOP_CHANNEL_CAP: usize = 1024;

/// How long a client may sit on an accepted socket without completing
/// CONNECT before the owning loop drops it.
const PRE_CONNECT_TIMEOUT_NS: u64 = 10_000_000_000;

/// Bound on consecutive `read` calls per readable event in
/// level-triggered mode (fairness: one firehose connection cannot
/// monopolize its loop; the remaining bytes re-trigger immediately).
/// Edge-triggered mode must drain to `WouldBlock` and ignores this.
const LEVEL_READS_PER_EVENT: usize = 8;

/// Frames one `write_vectored` call carries at most: the size of the
/// stack array its `IoSlice`s are built in.
const MAX_WRITE_SLICES: usize = 64;

fn now_ns(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

fn min_deadline(a: Option<u64>, b: Option<u64>) -> Option<u64> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, None) => x,
        (None, y) => y,
    }
}

/// Work delivered to an event loop from the acceptor or other loops.
enum LoopMsg {
    /// A publish routed on another shard that matches subscribers here.
    Forward(Publish),
    /// A freshly accepted socket this loop now owns.
    Accept(TcpStream, usize),
}

/// What the accept loop should do about an `accept(2)` error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AcceptDisposition {
    /// Transient fd exhaustion (`EMFILE`/`ENFILE`): sleep briefly and
    /// retry — connections already established keep being serviced.
    Backoff,
    /// A per-connection handshake failure: skip it and accept the next.
    Retry,
    /// The listener itself is broken: stop accepting.
    Stop,
}

/// Classifies an `accept(2)` error (extracted for unit testing: the
/// EMFILE path is otherwise only reachable by exhausting the process fd
/// table).
fn classify_accept_error(e: &std::io::Error) -> AcceptDisposition {
    const EMFILE: i32 = 24; // process fd limit
    const ENFILE: i32 = 23; // system fd limit
    if matches!(e.raw_os_error(), Some(EMFILE) | Some(ENFILE)) {
        return AcceptDisposition::Backoff;
    }
    match e.kind() {
        ErrorKind::ConnectionAborted | ErrorKind::Interrupted => AcceptDisposition::Retry,
        _ => AcceptDisposition::Stop,
    }
}

/// Cross-thread face of one connection: the outbound queue any thread
/// may append to, and the flags coordinating the dirty-list wake
/// protocol. The socket itself lives loop-locally in the owner's slab —
/// only the owning loop ever touches it.
struct ConnShared {
    /// Owning event loop, fixed at accept (round-robin).
    owner: usize,
    /// Pending outbound frames.
    queue: Mutex<VecDeque<Bytes>>,
    /// Whether the connection is already on its owner's dirty list.
    /// Producers that find it set skip the push *and* the wake, so a
    /// connection enqueued N times between flushes is visited once per
    /// flush instead of N times.
    in_dirty: AtomicBool,
    /// Close after the queue drains (broker issued `Action::Close`).
    closing: AtomicBool,
}

impl ConnShared {
    fn new(owner: usize) -> ConnShared {
        ConnShared {
            owner,
            queue: Mutex::new(VecDeque::new()),
            in_dirty: AtomicBool::new(false),
            closing: AtomicBool::new(false),
        }
    }
}

/// Per-loop handles visible to every thread.
struct LoopHandle {
    tx: SyncSender<LoopMsg>,
    waker: Waker,
    /// Connections with queued frames, drained each loop iteration.
    dirty: Mutex<Vec<usize>>,
    wheel: TimerWheel,
    /// A lower bound on the earliest deadline of this shard's broker
    /// (keep-alive expiry, retransmission; [`NO_DEADLINE`] if it has
    /// none): what the loop arms its wait with instead of taking the
    /// shard lock and walking every connection and in-flight message on
    /// every turn. Activity only moves broker deadlines *later*, and
    /// waking early is harmless (the loop polls, finds nothing due and
    /// rescans), so the bound stays valid as long as it never sits above
    /// the true deadline. The invariant that keeps it there:
    ///
    /// > every site that can create an *earlier* deadline on shard `s` —
    /// > a session coming online (its keep-alive starts, and the in-flight
    /// > messages a resumed session kept are timed again), a QoS > 0
    /// > delivery or PUBREL entering the in-flight window — calls
    /// > [`Shared::note_deadline`]`(s, …)` after the broker call that
    /// > created it, from whichever loop it runs on.
    ///
    /// A delivery notes `now + retransmit_timeout`. An accepted CONNECT
    /// notes `now`: what a resumed session holds may be due already (a
    /// recovered one's is, its send times are reset), so the shard's loop
    /// polls at once and rescans. `note_deadline` lowers the bound
    /// (`fetch_min`); only loop `s` raises it, in
    /// [`EventLoop::rescan_broker_deadline`], after a deadline wake-up.
    broker_deadline: AtomicU64,
    /// Shard scans [`EventLoop::rescan_broker_deadline`] made.
    #[cfg(test)]
    deadline_scans: AtomicU64,
}

struct Shared {
    broker: ShardedBroker<usize>,
    loops: Vec<LoopHandle>,
    conns: RwLock<HashMap<usize, Arc<ConnShared>>>,
    epoch: Instant,
    shutdown: AtomicBool,
    next_conn: AtomicUsize,
    refused: AtomicU64,
}

/// The loop-thread half of [`Shared::new`]'s output.
struct LoopParts {
    poller: Poller,
    rx: Receiver<LoopMsg>,
}

impl Shared {
    fn new(config: BrokerConfig) -> std::io::Result<(Arc<Shared>, Vec<LoopParts>)> {
        let n_loops = config.shards.max(1);
        let mut loops = Vec::with_capacity(n_loops);
        let mut parts = Vec::with_capacity(n_loops);
        for _ in 0..n_loops {
            let (tx, rx) = sync_channel(LOOP_CHANNEL_CAP);
            let poller = Poller::new()?;
            loops.push(LoopHandle {
                tx,
                waker: poller.waker(),
                dirty: Mutex::new(Vec::new()),
                wheel: TimerWheel::new(),
                broker_deadline: AtomicU64::new(NO_DEADLINE),
                #[cfg(test)]
                deadline_scans: AtomicU64::new(0),
            });
            parts.push(LoopParts { poller, rx });
        }
        let shared = Arc::new(Shared {
            broker: ShardedBroker::new(config),
            loops,
            conns: RwLock::new(HashMap::new()),
            epoch: Instant::now(),
            shutdown: AtomicBool::new(false),
            next_conn: AtomicUsize::new(1),
            refused: AtomicU64::new(0),
        });
        Ok((shared, parts))
    }

    fn now(&self) -> u64 {
        now_ns(self.epoch)
    }

    /// Marks `conn` dirty on its owner's list exactly once per flush
    /// cycle and wakes the owner unless the caller *is* the owner (the
    /// owning loop always flushes its dirty list before parking, so a
    /// self-wake would only cost a spurious poll return).
    fn mark_dirty(&self, conn: usize, state: &ConnShared, from_loop: Option<usize>) {
        if !state.in_dirty.swap(true, Ordering::AcqRel) {
            self.loops[state.owner]
                .dirty
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(conn);
            if from_loop != Some(state.owner) {
                self.loops[state.owner].waker.wake();
            }
        }
    }

    /// Queues a frame for `conn` and nudges the owning loop if the
    /// connection was idle. Never blocks.
    fn enqueue(&self, conn: usize, frame: Bytes, from_loop: Option<usize>) {
        let Some(state) = self
            .conns
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&conn)
            .cloned()
        else {
            return;
        };
        state
            .queue
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push_back(frame);
        self.mark_dirty(conn, &state, from_loop);
    }

    /// Marks `conn` for close-after-flush and nudges its owning loop.
    fn close_conn(&self, conn: usize, from_loop: Option<usize>) {
        let Some(state) = self
            .conns
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&conn)
            .cloned()
        else {
            return;
        };
        state.closing.store(true, Ordering::Release);
        self.mark_dirty(conn, &state, from_loop);
    }

    /// Performs and drains the `actions` shard `shard`'s broker just
    /// produced at `now`: frames are queued for the loops owning their
    /// connections, and a delivery that started a retransmission timer is
    /// noted on the shard's deadline.
    fn apply_actions(
        &self,
        actions: &mut Vec<Action<usize>>,
        shard: usize,
        now: u64,
        from_loop: usize,
    ) {
        let mut starts_retransmit_timer = false;
        for action in actions.drain(..) {
            match action {
                Action::Send { conn, packet } => {
                    starts_retransmit_timer |= match &packet {
                        Packet::Publish(p) => p.qos != QoS::AtMostOnce,
                        Packet::Pubrel(_) => true,
                        _ => false,
                    };
                    self.enqueue(conn, encode(&packet), Some(from_loop));
                }
                Action::SendFrame { conn, frame } => self.enqueue(conn, frame, Some(from_loop)),
                Action::Close { conn } => self.close_conn(conn, Some(from_loop)),
            }
        }
        if starts_retransmit_timer {
            let due = now + self.broker.config().retransmit_timeout_ns;
            self.note_deadline(shard, due, from_loop);
        }
    }

    /// Applies and drains the output of one operation on shard `shard` at
    /// `now`. Frames are queued for the owning loops; cross-shard forwards
    /// go over the target loop's channel with a waker nudge. Forwards must
    /// never block (two loops forwarding into each other's full channels
    /// would deadlock) — a full (or own-loop) target gets the forward
    /// applied inline.
    fn dispatch(&self, out: &mut ShardOutput<usize>, shard: usize, now: u64, from_loop: usize) {
        let ShardOutput { actions, forwards } = out;
        self.apply_actions(actions, shard, now, from_loop);
        for (target, publish) in forwards.drain(..) {
            let inline = if target == from_loop {
                Some(publish)
            } else {
                match self.loops[target].tx.try_send(LoopMsg::Forward(publish)) {
                    Ok(()) => {
                        self.loops[target].waker.wake();
                        None
                    }
                    Err(TrySendError::Full(LoopMsg::Forward(publish))) => Some(publish),
                    Err(_) => None,
                }
            };
            if let Some(publish) = inline {
                // `actions` was drained above: it carries the forward's.
                self.broker
                    .apply_forward_into(target, publish, now, actions);
                self.apply_actions(actions, target, now, from_loop);
            }
        }
    }

    /// Shard `shard`'s broker now has something due at `deadline_ns` that
    /// it may not have had before: lowers the shard's deadline bound and,
    /// called from another loop, wakes the shard's loop iff it is parked
    /// past it. (The shard's own loop reads the bound before it arms.)
    fn note_deadline(&self, shard: usize, deadline_ns: u64, from_loop: usize) {
        let handle = &self.loops[shard];
        handle
            .broker_deadline
            .fetch_min(deadline_ns, Ordering::SeqCst);
        if from_loop != shard && handle.wheel.note_deadline(deadline_ns) {
            handle.waker.wake();
        }
    }
}

/// A broker served over TCP by a fixed pool of per-shard event loops.
///
/// ```no_run
/// use ifot_mqtt::net::TcpBroker;
///
/// let broker = TcpBroker::bind("127.0.0.1:1883")?;
/// println!("serving MQTT on {}", broker.local_addr());
/// # Ok::<(), std::io::Error>(())
/// ```
pub struct TcpBroker {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    accept_handle: Option<std::thread::JoinHandle<()>>,
    loop_handles: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for TcpBroker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpBroker")
            .field("local_addr", &self.local_addr)
            .field("shards", &self.shared.loops.len())
            .finish_non_exhaustive()
    }
}

impl TcpBroker {
    /// Binds and starts serving with the default broker configuration.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from binding.
    pub fn bind(addr: impl ToSocketAddrs) -> std::io::Result<TcpBroker> {
        TcpBroker::bind_with(addr, BrokerConfig::default())
    }

    /// Binds and starts serving with an explicit configuration
    /// (`config.shards` event loops, `config.write_batch` frames per
    /// vectored write, `config.max_connections` admission bound,
    /// `config.edge_triggered` poller mode, `config.tcp_nodelay` on
    /// accepted sockets).
    ///
    /// # Errors
    ///
    /// Propagates socket errors from binding or poller setup.
    pub fn bind_with(addr: impl ToSocketAddrs, config: BrokerConfig) -> std::io::Result<TcpBroker> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let (shared, parts) = Shared::new(config)?;

        let mut loop_handles = Vec::with_capacity(parts.len());
        for (idx, part) in parts.into_iter().enumerate() {
            let shard_shared = Arc::clone(&shared);
            loop_handles.push(
                std::thread::Builder::new()
                    .name(format!("mqtt-loop-{idx}"))
                    .spawn(move || EventLoop::new(idx, shard_shared, part).run())
                    .expect("spawning an event-loop thread succeeds"),
            );
        }

        let accept_shared = Arc::clone(&shared);
        let accept_handle = std::thread::Builder::new()
            .name("mqtt-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))
            .expect("spawning the accept thread succeeds");

        Ok(TcpBroker {
            shared,
            local_addr,
            accept_handle: Some(accept_handle),
            loop_handles,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A snapshot of the aggregated broker statistics.
    pub fn stats(&self) -> crate::broker::BrokerStats {
        self.shared.broker.stats()
    }

    /// Aggregated write-ahead-log counters across shards, if the broker
    /// was configured with [`crate::broker::BrokerConfig::durability`].
    pub fn wal_stats(&self) -> Option<crate::wal::WalStats> {
        self.shared.broker.wal_stats()
    }

    /// Total loop wakeups across shard event loops (diagnostics: an idle
    /// broker's count stays frozen).
    pub fn timer_wakeups(&self) -> u64 {
        self.shared.loops.iter().map(|s| s.wheel.wakeups()).sum()
    }

    /// Connections dropped at the listener because
    /// [`BrokerConfig::max_connections`] was reached.
    pub fn refused_connections(&self) -> u64 {
        self.shared.refused.load(Ordering::Relaxed)
    }

    /// Broker-owned threads: `shards` event loops plus the acceptor.
    /// Constant for the broker's lifetime regardless of connection count
    /// — the property the C10K tests assert.
    pub fn service_threads(&self) -> usize {
        self.loop_handles.len() + 1
    }

    /// Stops serving and joins the background threads.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        // Unblock the accept thread: it is parked in a blocking
        // `accept`, so poke it with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        // Wake every loop; each observes the flag, tears its
        // connections down and exits.
        for handle in &self.shared.loops {
            handle.waker.wake();
        }
        for h in self.loop_handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for TcpBroker {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Counts live threads whose name starts with `mqtt-` (the broker's
/// acceptor and event loops), via `/proc`. Returns `None` off Linux.
/// Used by the C10K tests and bench to assert the thread count stays
/// `shards + 1` no matter how many connections are open.
pub fn mqtt_thread_count() -> Option<usize> {
    #[cfg(target_os = "linux")]
    {
        let mut n = 0;
        for entry in std::fs::read_dir("/proc/self/task").ok()? {
            let Ok(entry) = entry else { continue };
            if let Ok(name) = std::fs::read_to_string(entry.path().join("comm")) {
                if name.trim_start().starts_with("mqtt-") {
                    n += 1;
                }
            }
        }
        Some(n)
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// Blocking accept loop. Enforces the `max_connections` admission bound,
/// backs off briefly on fd exhaustion, skips aborted handshakes, and
/// stops when the listener dies (see [`classify_accept_error`]).
fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let max_connections = shared.broker.config().max_connections;
    let mut next_loop = 0usize;
    while !shared.shutdown.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, peer)) => {
                if shared.shutdown.load(Ordering::Relaxed) {
                    return;
                }
                if max_connections > 0
                    && shared
                        .conns
                        .read()
                        .unwrap_or_else(PoisonError::into_inner)
                        .len()
                        >= max_connections
                {
                    shared.refused.fetch_add(1, Ordering::Relaxed);
                    drop(stream);
                    continue;
                }
                if let Err(e) = register_conn(stream, &shared, &mut next_loop) {
                    eprintln!("mqtt-accept: dropping connection from {peer}: {e}");
                }
            }
            Err(e) => match classify_accept_error(&e) {
                AcceptDisposition::Backoff => {
                    eprintln!("mqtt-accept: out of file descriptors ({e}), backing off");
                    std::thread::sleep(Duration::from_millis(50));
                }
                AcceptDisposition::Retry => continue,
                AcceptDisposition::Stop => {
                    if !shared.shutdown.load(Ordering::Relaxed) {
                        eprintln!("mqtt-accept: listener failed ({e}), stopping");
                    }
                    return;
                }
            },
        }
    }
}

/// Sets socket options, registers the connection's cross-thread state
/// and hands the socket to its round-robin owner loop. No thread is
/// spawned — this is the whole point of the front-end.
fn register_conn(
    stream: TcpStream,
    shared: &Arc<Shared>,
    next_loop: &mut usize,
) -> std::io::Result<()> {
    let config = shared.broker.config();
    stream.set_nodelay(config.tcp_nodelay)?;
    stream.set_nonblocking(true)?;
    let conn = shared.next_conn.fetch_add(1, Ordering::Relaxed);
    let owner = *next_loop % shared.loops.len();
    *next_loop = next_loop.wrapping_add(1);
    shared
        .conns
        .write()
        .unwrap_or_else(PoisonError::into_inner)
        .insert(conn, Arc::new(ConnShared::new(owner)));
    shared.broker.connection_opened(conn, shared.now());
    // Blocking send: a loop that cannot keep up with the accept rate
    // backpressures the acceptor, which is the correct place to slow a
    // connection storm down.
    if shared.loops[owner]
        .tx
        .send(LoopMsg::Accept(stream, conn))
        .is_err()
    {
        shared
            .conns
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&conn);
        return Err(std::io::Error::new(
            ErrorKind::NotConnected,
            "owner loop is gone",
        ));
    }
    shared.loops[owner].waker.wake();
    Ok(())
}

/// Why a connection's outbound flush stopped.
enum FlushOutcome {
    /// Queue fully drained.
    Drained,
    /// Socket jammed mid-queue (`WouldBlock`): write-readiness armed.
    Blocked,
    /// Socket failed.
    Dead,
    /// Stale token — connection already gone.
    Gone,
}

/// Loop-local state of one owned connection. The socket has exactly one
/// owner thread, so reads, writes and decoder state need no locks.
struct Conn {
    id: usize,
    stream: TcpStream,
    shared_state: Arc<ConnShared>,
    decoder: StreamDecoder,
    /// Currently armed poller interest.
    interest: Interest,
    /// Bytes of the queue-front frame already written (partial-write
    /// resume point).
    partial: usize,
    /// Routing shard, known once CONNECT is accepted.
    routed: Option<usize>,
}

/// One shard's event loop: owns a poller, a slab of connections, and the
/// shard's timer deadline. See the [module docs](self).
struct EventLoop {
    idx: usize,
    shared: Arc<Shared>,
    poller: Poller,
    rx: Receiver<LoopMsg>,
    conns: Slab<Conn>,
    /// Conn id → slab token (dirty-list lookups).
    tokens: HashMap<usize, u64>,
    /// Pre-CONNECT grace deadlines by token.
    pre_connect: HashMap<u64, u64>,
    /// Slow-consumer eviction deadlines by token (set while a partial
    /// write has the socket jammed).
    write_blocked: HashMap<u64, u64>,
    edge: bool,
    /// Frames per vectored write: [`BrokerConfig::write_batch`], served
    /// in several writes where it exceeds [`MAX_WRITE_SLICES`].
    write_batch: usize,
    write_timeout_ns: u64,
    // Scratch that lives as long as the loop and is empty between uses: a
    // turn allocates only what outlives it (the frames it queues, the
    // topic and payload of a PUBLISH it routes).
    /// Readiness events of the current turn.
    events: Vec<Event>,
    /// Packets decoded off one readable socket.
    packets: Vec<Packet>,
    /// The dirty list being flushed, swapped with the shared one.
    dirty: Vec<usize>,
    /// Handles to the frames of the vectored write in progress.
    batch: Vec<Bytes>,
    /// Output of the broker operation in progress.
    out: ShardOutput<usize>,
}

impl EventLoop {
    fn new(idx: usize, shared: Arc<Shared>, parts: LoopParts) -> EventLoop {
        let config = shared.broker.config();
        let edge = config.edge_triggered;
        let write_batch = config.write_batch.clamp(1, MAX_WRITE_SLICES);
        let write_timeout_ns = config.write_timeout_ns.max(1);
        EventLoop {
            idx,
            shared,
            poller: parts.poller,
            rx: parts.rx,
            conns: Slab::new(),
            tokens: HashMap::new(),
            pre_connect: HashMap::new(),
            write_blocked: HashMap::new(),
            edge,
            write_batch,
            write_timeout_ns,
            events: Vec::with_capacity(256),
            packets: Vec::new(),
            dirty: Vec::new(),
            batch: Vec::with_capacity(write_batch),
            out: ShardOutput::default(),
        }
    }

    fn run(mut self) {
        self.rescan_broker_deadline();
        loop {
            if self.shared.shutdown.load(Ordering::Relaxed) {
                self.teardown_all();
                return;
            }
            self.drain_channel();
            self.flush_dirty();

            let now = self.shared.now();
            let handle = &self.shared.loops[self.idx];
            let broker_deadline = match handle.broker_deadline.load(Ordering::SeqCst) {
                NO_DEADLINE => None,
                due => Some(due),
            };
            let deadline = min_deadline(broker_deadline, self.earliest_aux_deadline());
            let timeout = handle.wheel.arm(now, deadline);
            // Producers that queued work after `flush_dirty` above have
            // already written a wake byte (cross-loop marks always
            // wake), so this wait cannot oversleep new work.
            if let Err(e) = self.poller.wait(&mut self.events, timeout) {
                eprintln!("mqtt-loop-{}: poller failed ({e}), stopping", self.idx);
                self.teardown_all();
                return;
            }
            let woke = self.shared.loops[self.idx].wheel.on_wake(self.shared.now());
            if woke == Wake::Deadline {
                let now = self.shared.now();
                self.shared
                    .broker
                    .poll_shard_into(self.idx, now, &mut self.out);
                self.shared.dispatch(&mut self.out, self.idx, now, self.idx);
                self.expire_aux_deadlines(now);
                self.rescan_broker_deadline();
            }
            // `Event` is `Copy`: the list is read in place and keeps its
            // room for the next wait.
            for i in 0..self.events.len() {
                let ev = self.events[i];
                self.handle_event(ev);
            }
        }
    }

    /// Replaces the shard's deadline bound with its exact value: the one
    /// place that takes the shard lock and walks its connections and
    /// in-flight messages for a deadline. Runs on this loop only.
    fn rescan_broker_deadline(&self) {
        let handle = &self.shared.loops[self.idx];
        #[cfg(test)]
        handle.deadline_scans.fetch_add(1, Ordering::Relaxed);
        // Open the bound first: a deadline noted from here on stays in,
        // one noted before came from a broker call that finished before
        // the scan below takes the shard lock, and is in its result.
        handle.broker_deadline.store(NO_DEADLINE, Ordering::SeqCst);
        if let Some(due) = self.shared.broker.next_deadline_ns(self.idx) {
            handle.broker_deadline.fetch_min(due, Ordering::SeqCst);
        }
    }

    // ----- inbound channel ------------------------------------------------

    fn drain_channel(&mut self) {
        while let Ok(msg) = self.rx.try_recv() {
            match msg {
                LoopMsg::Accept(stream, id) => self.adopt(stream, id),
                LoopMsg::Forward(publish) => {
                    let now = self.shared.now();
                    let actions = &mut self.out.actions;
                    self.shared
                        .broker
                        .apply_forward_into(self.idx, publish, now, actions);
                    self.shared.apply_actions(actions, self.idx, now, self.idx);
                }
            }
        }
    }

    /// Takes ownership of a freshly accepted socket: slab slot, poller
    /// registration, pre-CONNECT grace deadline.
    fn adopt(&mut self, stream: TcpStream, id: usize) {
        let Some(state) = self
            .shared
            .conns
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&id)
            .cloned()
        else {
            return; // raced a shutdown sweep
        };
        debug_assert_eq!(state.owner, self.idx, "socket delivered to a foreign loop");
        let now = self.shared.now();
        let fd = stream.as_raw_fd();
        let token = self.conns.insert(Conn {
            id,
            stream,
            shared_state: state,
            decoder: StreamDecoder::new(),
            interest: Interest::READABLE,
            partial: 0,
            routed: None,
        });
        if self
            .poller
            .register(fd, token, Interest::READABLE, self.edge)
            .is_err()
        {
            self.teardown(token, true);
            return;
        }
        self.tokens.insert(id, token);
        self.pre_connect.insert(token, now + PRE_CONNECT_TIMEOUT_NS);
    }

    // ----- dirty-list writes ----------------------------------------------

    /// Flushes every dirty connection's queue. Only this loop touches
    /// its conns' sockets, so each socket has exactly one writer and the
    /// frames of a queue never interleave. Loops until the dirty list
    /// stays empty (a flush can enqueue follow-up frames via broker
    /// actions).
    fn flush_dirty(&mut self) {
        loop {
            // Swapped, not taken: both lists keep their room.
            std::mem::swap(
                &mut self.dirty,
                &mut *self.shared.loops[self.idx]
                    .dirty
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner),
            );
            if self.dirty.is_empty() {
                return;
            }
            for i in 0..self.dirty.len() {
                let Some(&token) = self.tokens.get(&self.dirty[i]) else {
                    continue; // already torn down
                };
                if let Some(conn) = self.conns.get(token) {
                    // Clear-before-drain: a producer appending after
                    // this point re-marks the connection dirty, so
                    // nothing is lost.
                    conn.shared_state.in_dirty.store(false, Ordering::Release);
                }
                self.flush_conn(token);
            }
            self.dirty.clear();
        }
    }

    /// Drains one connection's outbound queue in `write_batch`-sized
    /// vectored writes, resuming across partial frames, then applies the
    /// outcome (interest re-arm, slow-consumer clock, close-after-flush,
    /// teardown). Returns whether the connection is still alive.
    fn flush_conn(&mut self, token: u64) -> bool {
        let outcome = self.write_queue(token);
        match outcome {
            FlushOutcome::Gone => false,
            FlushOutcome::Dead => {
                self.teardown(token, true);
                false
            }
            FlushOutcome::Drained => {
                let Some(conn) = self.conns.get_mut(token) else {
                    return false;
                };
                if conn.shared_state.closing.load(Ordering::Acquire) {
                    self.teardown(token, true);
                    return false;
                }
                if conn.interest.writable {
                    conn.interest = Interest::READABLE;
                    let fd = conn.stream.as_raw_fd();
                    let _ = self
                        .poller
                        .reregister(fd, token, Interest::READABLE, self.edge);
                }
                self.write_blocked.remove(&token);
                true
            }
            FlushOutcome::Blocked => {
                let now = self.shared.now();
                let timeout = self.write_timeout_ns;
                let Some(conn) = self.conns.get_mut(token) else {
                    return false;
                };
                if !conn.interest.writable {
                    conn.interest = Interest::READ_WRITE;
                    let fd = conn.stream.as_raw_fd();
                    let _ = self
                        .poller
                        .reregister(fd, token, Interest::READ_WRITE, self.edge);
                }
                // First blockage starts the slow-consumer clock; any
                // write progress resets it (see `write_queue`).
                self.write_blocked.entry(token).or_insert(now + timeout);
                true
            }
        }
    }

    /// The socket-write half of [`flush_conn`]: drains until empty,
    /// jammed, or dead. The queue is snapshotted per batch under its
    /// lock (cloning `Bytes` handles, not payloads, into the loop's
    /// `batch` list) and popped only after the bytes are written, so
    /// producers can append concurrently without coordination.
    fn write_queue(&mut self, token: u64) -> FlushOutcome {
        loop {
            let Some(conn) = self.conns.get_mut(token) else {
                return FlushOutcome::Gone;
            };
            self.batch.clear();
            self.batch.extend(
                conn.shared_state
                    .queue
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .iter()
                    .take(self.write_batch)
                    .cloned(),
            );
            if self.batch.is_empty() {
                return FlushOutcome::Drained;
            }
            let mut slices = [IoSlice::new(&[]); MAX_WRITE_SLICES];
            for (slice, frame) in slices.iter_mut().zip(&self.batch) {
                *slice = IoSlice::new(frame);
            }
            slices[0] = IoSlice::new(&self.batch[0][conn.partial..]);
            // The socket write happens here — far away from any broker
            // lock, and never blocking (the socket is nonblocking).
            let written = (&conn.stream).write_vectored(&slices[..self.batch.len()]);
            // The queue keeps the frames; the snapshot must not.
            self.batch.clear();
            match written {
                Ok(0) => return FlushOutcome::Dead,
                Ok(mut written) => {
                    let mut queue = conn
                        .shared_state
                        .queue
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner);
                    while written > 0 {
                        let front = queue.front().expect("queue front backed the batch");
                        let remaining = front.len() - conn.partial;
                        if written >= remaining {
                            queue.pop_front();
                            conn.partial = 0;
                            written -= remaining;
                        } else {
                            conn.partial += written;
                            written = 0;
                        }
                    }
                    drop(queue);
                    // Progress resets the slow-consumer clock.
                    self.write_blocked.remove(&token);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return FlushOutcome::Blocked,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return FlushOutcome::Dead,
            }
        }
    }

    // ----- readiness events -----------------------------------------------

    fn handle_event(&mut self, ev: Event) {
        if ev.token == WAKE_TOKEN {
            self.poller.drain_waker();
            return;
        }
        if ev.readable && !self.on_readable(ev.token) {
            return; // torn down
        }
        if ev.writable {
            self.write_blocked.remove(&ev.token);
            self.flush_conn(ev.token);
        }
    }

    /// Reads available bytes, decodes and dispatches packets. Returns
    /// whether the connection is still alive.
    fn on_readable(&mut self, token: u64) -> bool {
        let edge = self.edge;
        let mut failed = false;
        let mut eof = false;
        let id = {
            let Some(conn) = self.conns.get_mut(token) else {
                return false; // stale event for a recycled slot
            };
            let mut reads = 0usize;
            'reading: loop {
                reads += 1;
                // Straight into the decoder's buffer: no copy in between.
                match conn.decoder.read_from(&mut conn.stream) {
                    Ok((0, _)) => {
                        eof = true;
                        break 'reading;
                    }
                    Ok((_, filled)) => {
                        loop {
                            match conn.decoder.next_packet() {
                                Ok(Some(packet)) => self.packets.push(packet),
                                Ok(None) => break,
                                Err(_) => {
                                    failed = true;
                                    break 'reading;
                                }
                            }
                        }
                        // A read that was offered more than it took
                        // emptied the socket. Otherwise level mode
                        // re-notifies for leftover bytes, so fairness
                        // wins; edge mode must drain fully.
                        if !edge && (!filled || reads >= LEVEL_READS_PER_EVENT) {
                            break 'reading;
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break 'reading,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        failed = true;
                        break 'reading;
                    }
                }
            }
            conn.id
        };

        for packet in self.packets.drain(..) {
            let now = self.shared.now();
            // All a deadline needs of the packet, read before it moves.
            let is_connect = matches!(packet, Packet::Connect(_));
            self.shared
                .broker
                .handle_packet_into(&id, packet, now, &mut self.out);
            let routed = self.conns.get(token).and_then(|c| c.routed);
            let routed = match routed {
                Some(s) => Some(s),
                None => {
                    // CONNECT may just have been accepted: learn the
                    // routing shard and retire the pre-CONNECT deadline.
                    let assigned = self.shared.broker.shard_of_conn(&id);
                    if let Some(s) = assigned {
                        if let Some(conn) = self.conns.get_mut(token) {
                            conn.routed = Some(s);
                        }
                        self.pre_connect.remove(&token);
                    }
                    assigned
                }
            };
            if let (Some(shard), true) = (routed, is_connect) {
                // A session came online: its keep-alive starts, and if it
                // was resumed, the in-flight messages it kept count again
                // from when they were sent — possibly due already. The
                // shard's loop polls at once and rescans for the exact
                // value.
                self.shared.note_deadline(shard, now, self.idx);
            }
            // Unrouted: refused before CONNECT, nothing but a close.
            let shard = routed.unwrap_or(self.idx);
            self.shared.dispatch(&mut self.out, shard, now, self.idx);
        }

        if failed || eof {
            self.teardown(token, true);
            return false;
        }
        true
    }

    // ----- deadlines ------------------------------------------------------

    /// Earliest loop-local socket deadline (pre-CONNECT grace,
    /// slow-consumer eviction), folded into the shard's poll timeout so
    /// these policies need no extra timer machinery.
    fn earliest_aux_deadline(&self) -> Option<u64> {
        min_deadline(
            self.pre_connect.values().min().copied(),
            self.write_blocked.values().min().copied(),
        )
    }

    fn expire_aux_deadlines(&mut self, now: u64) {
        let expired: Vec<u64> = self
            .pre_connect
            .iter()
            .filter(|&(_, &deadline)| deadline <= now)
            .map(|(&token, _)| token)
            .collect();
        for token in expired {
            // No CONNECT within the grace period.
            self.teardown(token, true);
        }
        let expired: Vec<u64> = self
            .write_blocked
            .iter()
            .filter(|&(_, &deadline)| deadline <= now)
            .map(|(&token, _)| token)
            .collect();
        for token in expired {
            // Slow consumer: jammed past write_timeout_ns.
            self.teardown(token, true);
        }
    }

    // ----- teardown -------------------------------------------------------

    /// Removes a connection from the loop, the poller and the global
    /// registry; `lost` additionally performs the broker-side session
    /// teardown (a no-op for sessions the broker already closed).
    fn teardown(&mut self, token: u64, lost: bool) {
        let Some(conn) = self.conns.remove(token) else {
            return;
        };
        self.tokens.remove(&conn.id);
        self.pre_connect.remove(&token);
        self.write_blocked.remove(&token);
        let _ = self.poller.deregister(conn.stream.as_raw_fd());
        self.shared
            .conns
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&conn.id);
        if lost {
            let now = self.shared.now();
            // A will is routed on the shard the session lived on.
            let shard = conn.routed.unwrap_or(self.idx);
            self.shared
                .broker
                .connection_lost_into(&conn.id, now, &mut self.out);
            self.shared.dispatch(&mut self.out, shard, now, self.idx);
        }
        // conn.stream drops here, closing the socket.
    }

    fn teardown_all(&mut self) {
        for token in self.conns.tokens() {
            self.teardown(token, false);
        }
    }
}

/// A small blocking MQTT client over TCP.
///
/// Drives the sans-I/O [`Client`] session: connects synchronously, then
/// exposes publish/subscribe plus a polling receive. A background call to
/// [`TcpClient::drive`] (or any receive) pumps retransmissions.
pub struct TcpClient {
    stream: TcpStream,
    session: Client,
    decoder: StreamDecoder,
    epoch: Instant,
    inbox: Vec<Publish>,
}

impl std::fmt::Debug for TcpClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpClient")
            .field("id", &self.session.id())
            .finish_non_exhaustive()
    }
}

impl TcpClient {
    /// Connects to a broker and completes the MQTT session handshake.
    ///
    /// # Errors
    ///
    /// Returns an `io::Error` for socket failures, a refused session, or
    /// a handshake timeout (2 s).
    pub fn connect(addr: impl ToSocketAddrs, client_id: &str) -> std::io::Result<TcpClient> {
        TcpClient::connect_with(addr, client_id, ClientConfig::default())
    }

    /// Connects with an explicit session configuration (retransmission
    /// timeout, clean-session flag, keep-alive).
    ///
    /// # Errors
    ///
    /// Returns an `io::Error` for socket failures, a refused session, or
    /// a handshake timeout (2 s).
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        client_id: &str,
        config: ClientConfig,
    ) -> std::io::Result<TcpClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_millis(50)))?;
        stream.set_nodelay(true)?;
        let mut this = TcpClient {
            stream,
            session: Client::new(client_id, config),
            decoder: StreamDecoder::new(),
            epoch: Instant::now(),
            inbox: Vec::new(),
        };
        let connect = this
            .session
            .connect()
            .expect("fresh session can always connect");
        this.stream.write_all(&encode(&connect))?;
        let deadline = Instant::now() + Duration::from_secs(2);
        while this.session.state() != crate::client::ClientState::Connected {
            if Instant::now() > deadline {
                return Err(std::io::Error::new(
                    ErrorKind::TimedOut,
                    "mqtt session handshake timed out",
                ));
            }
            this.drive()?;
        }
        Ok(this)
    }

    fn now(&self) -> u64 {
        now_ns(self.epoch)
    }

    /// QoS 1 publications awaiting PUBACK.
    pub fn inflight(&self) -> usize {
        self.session.inflight_count()
    }

    /// QoS 2 publications awaiting handshake completion.
    pub fn inflight2(&self) -> usize {
        self.session.inflight2_count()
    }

    /// Pumps the socket once: reads available bytes, handles packets,
    /// sends acknowledgements and retransmissions.
    ///
    /// # Errors
    ///
    /// Propagates socket errors and protocol violations.
    pub fn drive(&mut self) -> std::io::Result<()> {
        match self.decoder.read_from(&mut self.stream) {
            Ok((0, _)) => {
                return Err(std::io::Error::new(
                    ErrorKind::ConnectionReset,
                    "broker closed the connection",
                ))
            }
            Ok(_) => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
            Err(e) => return Err(e),
        }
        loop {
            match self.decoder.next_packet() {
                Ok(Some(packet)) => {
                    let now = self.now();
                    let (events, out) = self
                        .session
                        .handle_packet(packet, now)
                        .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e.to_string()))?;
                    for event in events {
                        if let ClientEvent::Message(p) = event {
                            self.inbox.push(p);
                        }
                    }
                    for p in out {
                        self.stream.write_all(&encode(&p))?;
                    }
                }
                Ok(None) => break,
                Err(e) => return Err(std::io::Error::new(ErrorKind::InvalidData, e.to_string())),
            }
        }
        let now = self.now();
        for p in self.session.poll(now) {
            self.stream.write_all(&encode(&p))?;
        }
        Ok(())
    }

    /// Publishes a message.
    ///
    /// # Errors
    ///
    /// Propagates socket errors; `InvalidInput` for session misuse.
    pub fn publish(
        &mut self,
        topic: &str,
        payload: impl Into<bytes::Bytes>,
        qos: QoS,
        retain: bool,
    ) -> std::io::Result<()> {
        let topic = TopicName::new(topic)
            .map_err(|e| std::io::Error::new(ErrorKind::InvalidInput, e.to_string()))?;
        let now = self.now();
        let frame = self
            .session
            .publish_frame(&topic, &payload.into(), qos, retain, now)
            .map_err(|e| std::io::Error::new(ErrorKind::InvalidInput, e.to_string()))?;
        self.stream.write_all(&frame)
    }

    /// Subscribes to a filter and waits for the SUBACK (2 s timeout).
    ///
    /// # Errors
    ///
    /// Propagates socket errors; `InvalidInput` for a bad filter;
    /// `TimedOut` when no SUBACK arrives.
    pub fn subscribe(&mut self, filter: &str, qos: QoS) -> std::io::Result<()> {
        let filter = TopicFilter::new(filter)
            .map_err(|e| std::io::Error::new(ErrorKind::InvalidInput, e.to_string()))?;
        let now = self.now();
        let packet = self
            .session
            .subscribe(vec![(filter.clone(), qos)], now)
            .map_err(|e| std::io::Error::new(ErrorKind::InvalidInput, e.to_string()))?;
        self.stream.write_all(&encode(&packet))?;
        let deadline = Instant::now() + Duration::from_secs(2);
        while !self.session.subscriptions().contains(&filter) {
            if Instant::now() > deadline {
                return Err(std::io::Error::new(ErrorKind::TimedOut, "no suback"));
            }
            self.drive()?;
        }
        Ok(())
    }

    /// Receives the next message, waiting up to `timeout`.
    ///
    /// # Errors
    ///
    /// Propagates socket errors (timeouts return `Ok(None)`).
    pub fn recv(&mut self, timeout: Duration) -> std::io::Result<Option<Publish>> {
        let deadline = Instant::now() + timeout;
        loop {
            if !self.inbox.is_empty() {
                return Ok(Some(self.inbox.remove(0)));
            }
            if Instant::now() > deadline {
                return Ok(None);
            }
            self.drive()?;
        }
    }

    /// Sends DISCONNECT and closes the socket.
    pub fn disconnect(mut self) {
        let packet = self.session.disconnect();
        let _ = self.stream.write_all(&encode(&packet));
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }
}

#[cfg(test)]
mod tests {
    use std::io::Read;

    use super::*;

    #[test]
    fn tcp_round_trip_qos0_and_retained() {
        let broker = TcpBroker::bind("127.0.0.1:0").expect("bind");
        let addr = broker.local_addr();

        let mut publisher = TcpClient::connect(addr, "pub").expect("connect");
        publisher
            .publish("conf/x", b"retained-v1".to_vec(), QoS::AtMostOnce, true)
            .expect("publish retained");

        let mut subscriber = TcpClient::connect(addr, "sub").expect("connect");
        subscriber
            .subscribe("conf/#", QoS::AtMostOnce)
            .expect("subscribe");
        // Retained message arrives on subscribe. If the SUBSCRIBE won the
        // race against the cross-shard retained replication, the first
        // copy arrives as a live forward (retain clear) — but that same
        // forward stored the retained slot before routing, so one
        // re-subscribe then observes it with the retain flag set.
        let mut retained = subscriber
            .recv(Duration::from_secs(2))
            .expect("recv ok")
            .expect("retained message");
        if !retained.retain {
            subscriber
                .subscribe("conf/#", QoS::AtMostOnce)
                .expect("re-subscribe");
            retained = subscriber
                .recv(Duration::from_secs(2))
                .expect("recv ok")
                .expect("retained copy");
        }
        assert_eq!(retained.payload.as_ref(), b"retained-v1");
        assert!(retained.retain);

        // Live publish flows through.
        publisher
            .publish("conf/y", b"live".to_vec(), QoS::AtMostOnce, false)
            .expect("publish");
        let live = subscriber
            .recv(Duration::from_secs(2))
            .expect("recv ok")
            .expect("live message");
        assert_eq!(live.payload.as_ref(), b"live");
        assert_eq!(broker.stats().clients_connected, 2);

        publisher.disconnect();
        subscriber.disconnect();
        broker.shutdown();
    }

    #[test]
    fn tcp_qos2_exactly_once() {
        let broker = TcpBroker::bind("127.0.0.1:0").expect("bind");
        let addr = broker.local_addr();
        let mut subscriber = TcpClient::connect(addr, "sub2").expect("connect");
        subscriber
            .subscribe("q2/#", QoS::ExactlyOnce)
            .expect("subscribe");
        let mut publisher = TcpClient::connect(addr, "pub2").expect("connect");
        for i in 0..5u8 {
            publisher
                .publish("q2/t", vec![i], QoS::ExactlyOnce, false)
                .expect("publish");
        }
        let mut got = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        while got.len() < 5 && Instant::now() < deadline {
            publisher.drive().expect("pump publisher");
            if let Some(p) = subscriber.recv(Duration::from_millis(100)).expect("recv") {
                got.push(p.payload[0]);
            }
        }
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
        publisher.disconnect();
        subscriber.disconnect();
        broker.shutdown();
    }

    #[test]
    fn tcp_single_shard_still_serves() {
        let broker = TcpBroker::bind_with(
            "127.0.0.1:0",
            BrokerConfig {
                shards: 1,
                write_batch: 1,
                ..BrokerConfig::default()
            },
        )
        .expect("bind");
        let addr = broker.local_addr();
        let mut subscriber = TcpClient::connect(addr, "s1").expect("connect");
        subscriber
            .subscribe("t/#", QoS::AtMostOnce)
            .expect("subscribe");
        let mut publisher = TcpClient::connect(addr, "p1").expect("connect");
        publisher
            .publish("t/x", b"one-shard".to_vec(), QoS::AtMostOnce, false)
            .expect("publish");
        let got = subscriber
            .recv(Duration::from_secs(2))
            .expect("recv")
            .expect("message");
        assert_eq!(got.payload.as_ref(), b"one-shard");
        publisher.disconnect();
        subscriber.disconnect();
        broker.shutdown();
    }

    #[test]
    fn tcp_edge_triggered_round_trip() {
        let broker = TcpBroker::bind_with(
            "127.0.0.1:0",
            BrokerConfig {
                shards: 2,
                edge_triggered: true,
                ..BrokerConfig::default()
            },
        )
        .expect("bind");
        let addr = broker.local_addr();
        let mut subscriber = TcpClient::connect(addr, "et-sub").expect("connect");
        subscriber
            .subscribe("et/#", QoS::AtLeastOnce)
            .expect("subscribe");
        let mut publisher = TcpClient::connect(addr, "et-pub").expect("connect");
        for i in 0..10u8 {
            publisher
                .publish("et/t", vec![i], QoS::AtLeastOnce, false)
                .expect("publish");
        }
        let mut got = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        while got.len() < 10 && Instant::now() < deadline {
            publisher.drive().expect("drive");
            if let Some(p) = subscriber.recv(Duration::from_millis(50)).expect("recv") {
                got.push(p.payload[0]);
            }
        }
        got.sort_unstable();
        assert_eq!(got, (0..10).collect::<Vec<u8>>());
        publisher.disconnect();
        subscriber.disconnect();
        broker.shutdown();
    }

    #[test]
    fn tcp_idle_broker_makes_no_timer_wakeups() {
        let broker = TcpBroker::bind("127.0.0.1:0").expect("bind");
        // No connections, no deadlines: every loop parks indefinitely.
        std::thread::sleep(Duration::from_millis(300));
        assert_eq!(
            broker.timer_wakeups(),
            0,
            "the old transport would have woken ~3 times per shard here"
        );
        broker.shutdown();
    }

    /// First id `{prefix}{n}` whose session lives on shard `target` of 4.
    fn id_on_shard(prefix: &str, target: usize) -> String {
        (0..)
            .map(|n| format!("{prefix}{n}"))
            .find(|id| crate::shard::shard_of(id, 4) == target)
            .expect("some id lands on every shard")
    }

    /// A client that is only a socket: it acknowledges nothing on its own.
    fn raw_connect(addr: SocketAddr, id: &str, keep_alive_secs: u16) -> TcpStream {
        let mut connect = crate::packet::Connect::new(id);
        connect.keep_alive_secs = keep_alive_secs;
        raw_connect_with(addr, connect)
    }

    fn raw_connect_with(addr: SocketAddr, connect: crate::packet::Connect) -> TcpStream {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("read timeout");
        let session_present = u8::from(!connect.clean_session);
        stream
            .write_all(&encode(&Packet::Connect(connect)))
            .expect("send CONNECT");
        let mut connack = [0u8; 4];
        stream.read_exact(&mut connack).expect("CONNACK");
        assert_eq!([connack[0], connack[1], connack[3]], [0x20, 0x02, 0x00]);
        assert!(connack[2] <= session_present);
        stream
    }

    /// The next packet off a raw client's socket.
    fn raw_recv(stream: &mut TcpStream, decoder: &mut StreamDecoder) -> Packet {
        loop {
            if let Some(packet) = decoder.next_packet().expect("broker frames decode") {
                return packet;
            }
            assert_ne!(decoder.read_from(stream).expect("read").0, 0, "closed");
        }
    }

    #[test]
    fn deadline_is_rescanned_per_deadline_wake_not_per_turn() {
        let broker = TcpBroker::bind("127.0.0.1:0").expect("bind");
        let addr = broker.local_addr();
        let mut subscriber = TcpClient::connect(addr, "scan-sub").expect("connect");
        subscriber
            .subscribe("scan/#", QoS::AtLeastOnce)
            .expect("subscribe");
        let mut publisher = TcpClient::connect(addr, "scan-pub").expect("connect");
        let mut got = 0;
        for i in 0..1_000u32 {
            publisher
                .publish("scan/t", i.to_be_bytes().to_vec(), QoS::AtLeastOnce, false)
                .expect("publish");
            publisher.drive().expect("drive");
            while subscriber
                .recv(Duration::from_millis(0))
                .expect("recv")
                .is_some()
            {
                got += 1;
            }
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while got < 1_000 && Instant::now() < deadline {
            if subscriber
                .recv(Duration::from_millis(50))
                .expect("recv")
                .is_some()
            {
                got += 1;
            }
        }
        assert_eq!(got, 1_000);
        let turns = broker.timer_wakeups();
        assert!(turns >= 1_000, "a turn per packet or so: {turns}");
        let mut scans = 0;
        for handle in &broker.shared.loops {
            let of_loop = handle.deadline_scans.load(Ordering::Relaxed);
            // One when the loop starts, one after each deadline wake-up —
            // of which a retransmission timer causes one per timeout.
            assert!(
                of_loop <= 1 + handle.wheel.deadline_wakeups(),
                "{of_loop} scans over {} deadline wake-ups",
                handle.wheel.deadline_wakeups()
            );
            scans += of_loop;
        }
        assert!(scans * 50 < turns, "{scans} scans over {turns} turns");
        publisher.disconnect();
        subscriber.disconnect();
        broker.shutdown();
    }

    /// The timer of an unacknowledged delivery fires on the shard the
    /// session lives on, whichever loop's turn put it in flight: another
    /// shard's forward, or a packet read by the loop of another shard.
    #[test]
    fn unacked_qos1_delivery_is_retransmitted_on_time() {
        const TIMEOUT: Duration = Duration::from_millis(300);
        let broker = TcpBroker::bind_with(
            "127.0.0.1:0",
            BrokerConfig {
                shards: 4,
                retransmit_timeout_ns: TIMEOUT.as_nanos() as u64,
                ..BrokerConfig::default()
            },
        )
        .expect("bind");
        let addr = broker.local_addr();
        // Accepted first: its socket is loop 0's, its session shard 2's.
        let mut subscriber = raw_connect(addr, &id_on_shard("rt-sub-", 2), 0);
        let mut decoder = StreamDecoder::new();
        let subscribe = Packet::Subscribe(crate::packet::Subscribe {
            packet_id: 1,
            filters: vec![crate::packet::SubscribeFilter {
                filter: TopicFilter::new("rt/#").expect("valid filter"),
                qos: QoS::AtLeastOnce,
            }],
        });
        subscriber
            .write_all(&encode(&subscribe))
            .expect("send SUBSCRIBE");
        assert!(matches!(
            raw_recv(&mut subscriber, &mut decoder),
            Packet::Suback(_)
        ));
        let mut publisher = TcpClient::connect(addr, &id_on_shard("rt-pub-", 0)).expect("connect");

        let expect_retransmission =
            |subscriber: &mut TcpStream, decoder: &mut StreamDecoder, sent: Instant, what: &str| {
                let Packet::Publish(first) = raw_recv(subscriber, decoder) else {
                    panic!("{what}: expected the delivery");
                };
                assert!(!first.dup);
                // Never acknowledged: the broker must send it again.
                let Packet::Publish(again) = raw_recv(subscriber, decoder) else {
                    panic!("{what}: expected the retransmission");
                };
                let waited = sent.elapsed();
                assert!(again.dup, "{what}");
                assert_eq!(again.packet_id, first.packet_id, "{what}");
                assert!(waited >= TIMEOUT, "{what}: early, after {waited:?}");
                assert!(
                    waited < TIMEOUT + Duration::from_millis(250),
                    "{what}: late, after {waited:?}"
                );
                // Settle it, so the next case starts from an empty window.
                let id = again.packet_id.expect("a QoS 1 delivery");
                subscriber
                    .write_all(&encode(&Packet::Puback(id)))
                    .expect("send PUBACK");
            };

        // Routed on shard 0, forwarded to shard 2 over its loop's channel.
        let sent = Instant::now();
        publisher
            .publish("rt/forwarded", b"x".to_vec(), QoS::AtLeastOnce, false)
            .expect("publish");
        expect_retransmission(&mut subscriber, &mut decoder, sent, "forwarded");

        // Published by the subscriber itself: loop 0 reads the packet and
        // puts the delivery in flight on shard 2, whose loop is parked.
        std::thread::sleep(Duration::from_millis(50));
        let own = Publish::qos1(TopicName::new("rt/own").expect("valid"), b"y".to_vec(), 77);
        let sent = Instant::now();
        subscriber
            .write_all(&encode(&Packet::Publish(own)))
            .expect("send PUBLISH");
        assert_eq!(raw_recv(&mut subscriber, &mut decoder), Packet::Puback(77));
        expect_retransmission(
            &mut subscriber,
            &mut decoder,
            sent,
            "read by another shard's loop",
        );

        assert!(broker.stats().retransmissions >= 2);
        publisher.disconnect();
        broker.shutdown();
    }

    /// What a persistent session holds unacknowledged is timed again when
    /// it comes back online — on whichever loop its new socket landed, and
    /// with no keep-alive and no other traffic to wake the shard's loop.
    #[test]
    fn a_resumed_session_is_retransmitted_to_on_time() {
        const TIMEOUT: Duration = Duration::from_millis(300);
        const SLACK: Duration = Duration::from_millis(250);
        let broker = TcpBroker::bind_with(
            "127.0.0.1:0",
            BrokerConfig {
                shards: 4,
                retransmit_timeout_ns: TIMEOUT.as_nanos() as u64,
                ..BrokerConfig::default()
            },
        )
        .expect("bind");
        let addr = broker.local_addr();
        // The session lives on shard 2; sockets go to loops 0, 1, 2, 3 in
        // the order they are accepted.
        let id = id_on_shard("back-", 2);
        let connect = || {
            let mut connect = crate::packet::Connect::new(id.as_str());
            connect.clean_session = false;
            connect.keep_alive_secs = 0;
            raw_connect_with(addr, connect)
        };
        let mut subscriber = connect(); // loop 0
        let mut decoder = StreamDecoder::new();
        let subscribe = Packet::Subscribe(crate::packet::Subscribe {
            packet_id: 1,
            filters: vec![crate::packet::SubscribeFilter {
                filter: TopicFilter::new("back/#").expect("valid filter"),
                qos: QoS::AtLeastOnce,
            }],
        });
        subscriber
            .write_all(&encode(&subscribe))
            .expect("send SUBSCRIBE");
        assert!(matches!(
            raw_recv(&mut subscriber, &mut decoder),
            Packet::Suback(_)
        ));
        let mut publisher = TcpClient::connect(addr, "back-pub").expect("connect"); // loop 1

        let deliver_unacked = |publisher: &mut TcpClient, subscriber: &mut TcpStream| {
            let sent = Instant::now();
            publisher
                .publish("back/t", b"x".to_vec(), QoS::AtLeastOnce, false)
                .expect("publish");
            let Packet::Publish(first) = raw_recv(subscriber, &mut StreamDecoder::new()) else {
                panic!("expected the delivery");
            };
            assert!(!first.dup);
            (sent, first.packet_id.expect("a QoS 1 delivery"))
        };

        // Back after the timeout ran out, on the session's own loop (2):
        // due at once.
        let (_, pid) = deliver_unacked(&mut publisher, &mut subscriber);
        drop(subscriber);
        std::thread::sleep(TIMEOUT + Duration::from_millis(100));
        let back = Instant::now();
        let mut subscriber = connect();
        let mut decoder = StreamDecoder::new();
        let Packet::Publish(again) = raw_recv(&mut subscriber, &mut decoder) else {
            panic!("expected the retransmission");
        };
        assert!(again.dup);
        assert_eq!(again.packet_id, Some(pid));
        assert!(back.elapsed() < SLACK, "late: {:?}", back.elapsed());
        subscriber
            .write_all(&encode(&Packet::Puback(pid)))
            .expect("send PUBACK");

        // Back before it ran out, on another shard's loop (3): due when it
        // does, counted from when the delivery was sent.
        let (sent, pid) = deliver_unacked(&mut publisher, &mut subscriber);
        drop(subscriber);
        let mut subscriber = connect();
        let mut decoder = StreamDecoder::new();
        let Packet::Publish(again) = raw_recv(&mut subscriber, &mut decoder) else {
            panic!("expected the retransmission");
        };
        let waited = sent.elapsed();
        assert!(again.dup);
        assert_eq!(again.packet_id, Some(pid));
        assert!(waited >= TIMEOUT, "early, after {waited:?}");
        assert!(waited < TIMEOUT + SLACK, "late, after {waited:?}");

        assert!(broker.stats().retransmissions >= 2);
        publisher.disconnect();
        broker.shutdown();
    }

    #[test]
    fn silent_client_is_dropped_at_its_keep_alive_grace() {
        let broker = TcpBroker::bind("127.0.0.1:0").expect("bind");
        let connected = Instant::now();
        // Keep-alive 1 s at the default factor 1.5: due at 1.5 s.
        let mut silent = raw_connect(broker.local_addr(), &id_on_shard("quiet-", 3), 1);
        let mut byte = [0u8; 1];
        let closed = silent.read(&mut byte);
        let waited = connected.elapsed();
        assert!(matches!(closed, Ok(0)), "expected a close, got {closed:?}");
        assert!(waited >= Duration::from_millis(1_500), "early: {waited:?}");
        assert!(waited < Duration::from_millis(2_200), "late: {waited:?}");
        assert_eq!(broker.stats().clients_connected, 0);
        broker.shutdown();
    }

    #[test]
    fn tcp_cross_shard_fanout_reaches_all_subscribers() {
        let broker = TcpBroker::bind_with(
            "127.0.0.1:0",
            BrokerConfig {
                shards: 4,
                ..BrokerConfig::default()
            },
        )
        .expect("bind");
        let addr = broker.local_addr();
        // Enough subscribers that every shard almost surely owns one.
        let mut subs: Vec<TcpClient> = (0..12)
            .map(|i| {
                let mut c = TcpClient::connect(addr, &format!("fan-sub-{i}")).expect("connect");
                c.subscribe("fan/#", QoS::AtMostOnce).expect("subscribe");
                c
            })
            .collect();
        let mut publisher = TcpClient::connect(addr, "fan-pub").expect("connect");
        publisher
            .publish("fan/x", b"blast".to_vec(), QoS::AtMostOnce, false)
            .expect("publish");
        for (i, sub) in subs.iter_mut().enumerate() {
            let got = sub
                .recv(Duration::from_secs(2))
                .expect("recv")
                .unwrap_or_else(|| panic!("subscriber {i} missed the fan-out"));
            assert_eq!(got.payload.as_ref(), b"blast");
        }
        publisher.disconnect();
        for sub in subs {
            sub.disconnect();
        }
        broker.shutdown();
    }

    #[test]
    fn accept_errors_classify_correctly() {
        let emfile = std::io::Error::from_raw_os_error(24);
        let enfile = std::io::Error::from_raw_os_error(23);
        assert_eq!(classify_accept_error(&emfile), AcceptDisposition::Backoff);
        assert_eq!(classify_accept_error(&enfile), AcceptDisposition::Backoff);
        let aborted = std::io::Error::new(ErrorKind::ConnectionAborted, "aborted");
        let interrupted = std::io::Error::new(ErrorKind::Interrupted, "eintr");
        assert_eq!(classify_accept_error(&aborted), AcceptDisposition::Retry);
        assert_eq!(
            classify_accept_error(&interrupted),
            AcceptDisposition::Retry
        );
        let fatal = std::io::Error::new(ErrorKind::InvalidInput, "bad listener");
        assert_eq!(classify_accept_error(&fatal), AcceptDisposition::Stop);
    }

    #[test]
    fn dirty_marking_is_deduplicated_per_flush_cycle() {
        let (shared, _parts) = Shared::new(BrokerConfig {
            shards: 2,
            ..BrokerConfig::default()
        })
        .expect("shared");
        let state = Arc::new(ConnShared::new(0));
        shared
            .conns
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(7, Arc::clone(&state));

        // Many enqueues between flushes → one dirty entry.
        for _ in 0..5 {
            shared.enqueue(7, Bytes::from_static(b"frame"), None);
        }
        assert_eq!(
            shared.loops[0]
                .dirty
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .len(),
            1
        );
        assert_eq!(
            state
                .queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .len(),
            5
        );

        // A close on an already-dirty connection adds no second entry.
        shared.close_conn(7, None);
        assert_eq!(
            shared.loops[0]
                .dirty
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .len(),
            1
        );
        assert!(state.closing.load(Ordering::Acquire));

        // After the owner clears the flag (flush protocol), the next
        // producer re-marks exactly once.
        shared.loops[0]
            .dirty
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
        state.in_dirty.store(false, Ordering::Release);
        shared.enqueue(7, Bytes::from_static(b"a"), None);
        shared.enqueue(7, Bytes::from_static(b"b"), None);
        assert_eq!(
            shared.loops[0]
                .dirty
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .len(),
            1
        );
    }

    #[test]
    fn max_connections_refuses_the_overflow() {
        let broker = TcpBroker::bind_with(
            "127.0.0.1:0",
            BrokerConfig {
                shards: 1,
                max_connections: 2,
                ..BrokerConfig::default()
            },
        )
        .expect("bind");
        let addr = broker.local_addr();
        let a = TcpClient::connect(addr, "adm-a").expect("first admitted");
        let b = TcpClient::connect(addr, "adm-b").expect("second admitted");
        // The third is dropped at the listener: the handshake cannot
        // complete.
        let refused = TcpClient::connect(addr, "adm-c");
        assert!(refused.is_err(), "third connection should be refused");
        assert!(broker.refused_connections() >= 1);
        a.disconnect();
        b.disconnect();
        broker.shutdown();
    }

    /// A subscriber that stops reading gets evicted at `write_timeout_ns`
    /// while the shard loop keeps serving everyone else — the loop never
    /// blocks on the jammed socket.
    #[test]
    fn slow_consumer_is_evicted_without_stalling_the_loop() {
        let broker = TcpBroker::bind_with(
            "127.0.0.1:0",
            BrokerConfig {
                shards: 1,
                write_timeout_ns: 300_000_000, // 300 ms
                ..BrokerConfig::default()
            },
        )
        .expect("bind");
        let addr = broker.local_addr();

        let mut slow = TcpClient::connect(addr, "slow-sub").expect("connect slow");
        slow.subscribe("flood/#", QoS::AtMostOnce).expect("sub");
        let mut healthy = TcpClient::connect(addr, "healthy-sub").expect("connect healthy");
        healthy.subscribe("flood/#", QoS::AtMostOnce).expect("sub");
        let mut publisher = TcpClient::connect(addr, "flood-pub").expect("connect pub");
        assert_eq!(broker.stats().clients_connected, 3);

        // `slow` now stops reading entirely. Flood until its kernel
        // buffers jam; drain `healthy` along the way so it stays fast.
        let payload = vec![0u8; 16 * 1024];
        for _ in 0..40 {
            for _ in 0..16 {
                publisher
                    .publish("flood/x", payload.clone(), QoS::AtMostOnce, false)
                    .expect("publish");
            }
            while healthy
                .recv(Duration::from_millis(1))
                .expect("healthy recv")
                .is_some()
            {}
            if broker.stats().clients_connected < 3 {
                break;
            }
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while broker.stats().clients_connected == 3 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(
            broker.stats().clients_connected,
            2,
            "slow consumer was never evicted"
        );

        // The loop is alive and routing: a fresh publish reaches the
        // healthy subscriber promptly.
        while healthy
            .recv(Duration::from_millis(1))
            .expect("healthy drain")
            .is_some()
        {}
        publisher
            .publish("flood/done", b"marker".to_vec(), QoS::AtMostOnce, false)
            .expect("publish marker");
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut saw_marker = false;
        while Instant::now() < deadline && !saw_marker {
            if let Some(p) = healthy.recv(Duration::from_millis(100)).expect("recv") {
                saw_marker = p.payload.as_ref() == b"marker";
            }
        }
        assert!(saw_marker, "loop stalled after the eviction");
        publisher.disconnect();
        healthy.disconnect();
        broker.shutdown();
    }
}
