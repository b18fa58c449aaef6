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
//! capping sessions at thread-pool scale). Loop *s* owns shard *s*
//! outright (opened by [`TcpBroker::bind_with`], moved into the loop's
//! thread) and the socket of every session the shard holds — a
//! nonblocking slab of sockets (generational tokens, see [`Slab`]) driven
//! by a readiness [`Poller`] (epoll on Linux). Every broker call for
//! shard *s*, and every frame, dirty mark and deadline it produces, is
//! made and consumed on loop *s*'s thread, in plain fields. Loops share
//! only the subscription index ([`crate::shard`]), their inboxes and the
//! figures they publish:
//!
//! * **hand-over**: the acceptor deals fresh sockets out round-robin and
//!   makes no broker call. A connection decodes one packet before its
//!   CONNECT is handled: anything else closes it. A CONNECT whose client
//!   id hashes to another shard ([`shard_of`]) makes the loop deregister
//!   the socket and post it to that shard's loop, with its decoder, which
//!   holds whatever the client sent behind the CONNECT. The new owner
//!   opens the connection with the CONNECT and then handles every packet
//!   already buffered, without waiting for readiness.
//! * **reads**: a readable socket is read straight into its
//!   connection's [`StreamDecoder`] buffer; decoded packets go to the
//!   loop's shard, into an output the loop keeps.
//! * **writes**: resulting frames land on the connection's own queue of
//!   [`OutFrame`]s, which marks the connection dirty once per flush.
//!   Before it parks, the loop drains dirty queues with `write_vectored`
//!   batches of up to 32 frames, their `IoSlice`s (three for a QoS 1/2
//!   delivery: its publish's shared head, its packet id, the shared
//!   payload) built in a stack array straight from the queue. A partial
//!   write arms write-readiness (`EPOLLOUT`) and the drain resumes when
//!   the socket unjams; a consumer that stays jammed past
//!   [`BrokerConfig::write_timeout_ns`] is evicted without the loop ever
//!   blocking on it. **No lock is held across a TCP write.**
//! * **figures**: a loop publishes its shard's counters before it writes
//!   or closes a socket and before it parks, so a client that has seen a
//!   frame or a close reads [`TcpBroker::stats`] that count it.
//! * **wakes**: the one thing a thread hands a loop is a message in the
//!   loop's inbox — an accepted socket, a handed-over one, or a publish
//!   routed on another shard that matches subscribers here (its payload
//!   `Bytes` is shared, not copied). The inbox is an unbounded `Vec` the
//!   loop swaps out once a turn, so forwards are applied in the order
//!   they were routed however many are pending, and no loop ever blocks
//!   on another. A poster signals the loop's [`Waker`] self-pipe only
//!   when it finds the inbox empty: a non-empty inbox has a wake pending.
//! * **timers**: each loop arms its poll timeout with a lower bound on
//!   its shard's earliest deadline. The loop lowers the bound itself
//!   whenever one of its broker calls can have created an earlier
//!   deadline — a QoS > 0 delivery or PUBREL entering the in-flight
//!   window, a session coming online — and replaces it with the exact
//!   value only after a deadline wake-up, not on every turn. An idle
//!   broker parks every loop indefinitely and makes **zero** wakeups
//!   (asserted in tests).
//!
//! ## What a turn allocates
//!
//! Only what outlives it: the topic of a PUBLISH it routes and the frame
//! it kept, and the frames it queues — of which a QoS 1/2 publish's
//! deliveries are views of that frame and the acknowledgements are held
//! inline. The readiness list, the decoded packets, the inbox and dirty
//! lists and the broker's output are scratch the event loop owns and
//! reuses; the broker writes its WAL records from borrowed fields into a
//! batch buffer that is framed in place. A hand-over boxes its socket and
//! decoder once per connection. The gate is `tests/net_alloc_budget.rs`.
//!
//! Connection admission is bounded by [`BrokerConfig::max_connections`]
//! (a storm degrades into counted refusals at the listener instead of
//! fd exhaustion inside the loops), and accept-time `EMFILE`/`ENFILE`
//! backs off instead of killing the listener (see
//! [`classify_accept_error`]).

use std::collections::{HashMap, VecDeque};
use std::io::{self, ErrorKind, IoSlice, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::broker::{Action, BrokerConfig, BrokerStats};
use crate::client::{Client, ClientConfig, ClientEvent};
use crate::codec::{OutFrame, StreamDecoder};
use crate::packet::{Connect, Packet, Publish, QoS};
use crate::poll::{Event, Interest, Poller, Waker, WAKE_TOKEN};
use crate::shard::{self, shard_of, Shard, ShardOutput};
use crate::slab::Slab;
use crate::topic::{TopicFilter, TopicName};
use crate::wal::WalStats;

/// How long a client may sit on an accepted socket without completing
/// CONNECT before the owning loop drops it.
const PRE_CONNECT_TIMEOUT_NS: u64 = 10_000_000_000;

/// Bound on consecutive `read` calls per readable event (fairness: one
/// firehose connection cannot monopolize its loop; the poller is
/// level-triggered, so the remaining bytes re-trigger immediately).
const READS_PER_EVENT: usize = 8;

/// Frames one `write_vectored` call carries at most. A frame is up to
/// three `IoSlice`s ([`OutFrame::parts`]), built in a stack array with room
/// for this many frames.
const MAX_WRITE_FRAMES: usize = 64;

/// Frames an event loop hands one `write_vectored` call: a fan-out's
/// deliveries go out in one syscall per this many, not one per frame.
const WRITE_BATCH: usize = 32;

const _: () = assert!(WRITE_BATCH <= MAX_WRITE_FRAMES);

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

/// Work posted to an event loop by the acceptor or another loop.
enum LoopMsg {
    /// A publish routed on another shard that matches subscribers here.
    Forward(Publish),
    /// A freshly accepted socket, not yet CONNECTed.
    Accept(TcpStream),
    /// A socket whose CONNECT names a session of this loop's shard.
    HandOver(Box<HandOver>),
}

const _: () = assert!(std::mem::size_of::<LoopMsg>() == std::mem::size_of::<Publish>());

/// A connection on its way to the loop of its session's shard, as the
/// loop that read its CONNECT left it. Boxed in [`LoopMsg`], so that a
/// forward's inbox slot stays the size of a [`Publish`].
struct HandOver {
    stream: TcpStream,
    /// Holds whatever the client sent behind its CONNECT.
    decoder: StreamDecoder,
    connect: Connect,
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

/// What other threads may touch of one event loop: its inbox, its waker
/// and the figures it publishes. The wake-up counter is the loop's own,
/// read for diagnostics.
struct LoopHandle {
    /// Messages posted since the loop last swapped the inbox out.
    inbox: Mutex<Vec<LoopMsg>>,
    waker: Waker,
    /// The loop's shard's counters as of [`EventLoop::publish`].
    published: Mutex<(BrokerStats, Option<WalStats>)>,
    /// Times the loop returned from its wait.
    wakeups: AtomicU64,
    /// Wake-ups at an armed deadline.
    #[cfg(test)]
    deadline_wakeups: AtomicU64,
    /// Shard scans [`EventLoop::rescan_broker_deadline`] made.
    #[cfg(test)]
    deadline_scans: AtomicU64,
    /// Connections the loop holds.
    #[cfg(test)]
    connections: AtomicUsize,
}

impl LoopHandle {
    /// Appends `msg` to the inbox and wakes the loop if the inbox was
    /// empty. A non-empty inbox has a wake pending: its first poster sent
    /// one, and the loop drains its waker only before it swaps the inbox
    /// out, never after.
    fn post(&self, msg: LoopMsg) {
        let mut inbox = lock(&self.inbox);
        inbox.push(msg);
        let first = inbox.len() == 1;
        drop(inbox);
        if first {
            self.waker.wake();
        }
    }
}

/// Locks `m`, taking over the data of a holder that panicked: every
/// update made under these locks (a push, a swap, a copy) leaves the
/// data valid.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

struct Shared {
    loops: Vec<LoopHandle>,
    epoch: Instant,
    shutdown: AtomicBool,
    /// Connections accepted and not yet torn down, the figure
    /// [`BrokerConfig::max_connections`] bounds.
    live: AtomicUsize,
    refused: AtomicU64,
    max_connections: usize,
    write_timeout_ns: u64,
    retransmit_timeout_ns: u64,
}

impl Shared {
    /// Opens and recovers the shards on the calling thread. Returns the
    /// shared state and, for each shard, the loop that owns it, not yet
    /// running.
    fn new(config: BrokerConfig) -> io::Result<(Arc<Shared>, Vec<EventLoop>)> {
        let (shards, _) = shard::open(&config)?;
        let pollers: Vec<Poller> = shards
            .iter()
            .map(|_| Poller::new())
            .collect::<Result<_, _>>()?;
        let loops = shards
            .iter()
            .zip(&pollers)
            .map(|(shard, poller)| LoopHandle {
                inbox: Mutex::new(Vec::new()),
                waker: poller.waker(),
                published: Mutex::new((shard.stats(), shard.wal_stats())),
                wakeups: AtomicU64::new(0),
                #[cfg(test)]
                deadline_wakeups: AtomicU64::new(0),
                #[cfg(test)]
                deadline_scans: AtomicU64::new(0),
                #[cfg(test)]
                connections: AtomicUsize::new(0),
            });
        let shared = Arc::new(Shared {
            loops: loops.collect(),
            epoch: Instant::now(),
            shutdown: AtomicBool::new(false),
            live: AtomicUsize::new(0),
            refused: AtomicU64::new(0),
            max_connections: config.max_connections,
            write_timeout_ns: config.write_timeout_ns.max(1),
            retransmit_timeout_ns: config.retransmit_timeout_ns,
        });
        let event_loops = pollers
            .into_iter()
            .zip(shards)
            .enumerate()
            .map(|(idx, (poller, shard))| EventLoop::new(idx, Arc::clone(&shared), poller, shard))
            .collect();
        Ok((shared, event_loops))
    }

    fn now(&self) -> u64 {
        now_ns(self.epoch)
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
    /// (`config.shards` event loops, `config.max_connections` admission
    /// bound). Accepted sockets are set `TCP_NODELAY`.
    ///
    /// # Errors
    ///
    /// Propagates errors from binding, poller setup and opening or
    /// replaying the [`BrokerConfig::durability`] directory.
    pub fn bind_with(addr: impl ToSocketAddrs, config: BrokerConfig) -> std::io::Result<TcpBroker> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let (shared, loops) = Shared::new(config)?;

        let loop_handles = loops
            .into_iter()
            .map(|lp| {
                std::thread::Builder::new()
                    .name(format!("mqtt-loop-{}", lp.idx))
                    .spawn(move || lp.run())
                    .expect("spawning an event-loop thread succeeds")
            })
            .collect();

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

    /// The aggregated broker statistics, as the loops last published them:
    /// they count every frame and close a client has seen.
    pub fn stats(&self) -> BrokerStats {
        shard::total_stats(self.shared.loops.iter().map(|l| lock(&l.published).0))
    }

    /// Aggregated write-ahead-log counters across shards, if the broker
    /// was configured with [`BrokerConfig::durability`], published as
    /// [`stats`](Self::stats) are.
    pub fn wal_stats(&self) -> Option<WalStats> {
        shard::total_wal_stats(self.shared.loops.iter().map(|l| lock(&l.published).1))
    }

    /// Total loop wakeups across shard event loops (diagnostics: an idle
    /// broker's count stays frozen).
    pub fn timer_wakeups(&self) -> u64 {
        self.shared
            .loops
            .iter()
            .map(|l| l.wakeups.load(Ordering::Relaxed))
            .sum()
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
    let max_connections = shared.max_connections;
    let mut next_loop = 0usize;
    while !shared.shutdown.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, peer)) => {
                if shared.shutdown.load(Ordering::Relaxed) {
                    return;
                }
                if max_connections > 0 && shared.live.load(Ordering::Relaxed) >= max_connections {
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

/// Sets socket options, counts the connection and posts the socket to
/// its round-robin loop, which keeps it until its CONNECT names a
/// shard. No thread is spawned — this is the whole point of the
/// front-end.
fn register_conn(
    stream: TcpStream,
    shared: &Arc<Shared>,
    next_loop: &mut usize,
) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_nonblocking(true)?;
    let owner = *next_loop % shared.loops.len();
    *next_loop = next_loop.wrapping_add(1);
    shared.live.fetch_add(1, Ordering::Relaxed);
    shared.loops[owner].post(LoopMsg::Accept(stream));
    Ok(())
}

/// One vectored write of the front of `queue` to `out`: up to `max`
/// frames, the first resumed `partial` bytes in. Every frame written whole
/// is popped and `partial` moves through the one written in part. Returns
/// what `write_vectored` did, or `Ok(None)` for an empty queue.
fn write_front(
    out: &mut impl Write,
    queue: &mut VecDeque<OutFrame>,
    partial: &mut usize,
    max: usize,
) -> io::Result<Option<usize>> {
    if queue.is_empty() {
        return Ok(None);
    }
    let mut slices = [IoSlice::new(&[]); 3 * MAX_WRITE_FRAMES];
    let mut used = 0;
    // Only the front frame has bytes already out.
    let mut skip = *partial;
    for part in queue.iter().take(max).flat_map(OutFrame::parts) {
        let cut = skip.min(part.len());
        skip -= cut;
        if cut < part.len() {
            slices[used] = IoSlice::new(&part[cut..]);
            used += 1;
        }
    }
    let written = out.write_vectored(&slices[..used])?;
    let mut left = written;
    while left > 0 {
        let front = queue.front().expect("queue front backed the write");
        let remaining = front.len() - *partial;
        if left >= remaining {
            queue.pop_front();
            *partial = 0;
            left -= remaining;
        } else {
            *partial += left;
            left = 0;
        }
    }
    Ok(Some(written))
}

/// Why a connection's outbound flush stopped.
enum FlushOutcome {
    /// Queue fully drained.
    Drained,
    /// Socket jammed mid-queue (`WouldBlock`): write-readiness armed.
    Blocked,
    /// Socket failed, or the token is stale: the connection is gone.
    Dead,
}

/// One connection, owned by one loop: the socket, its decoder and its
/// outbound queue need no locks.
struct Conn {
    stream: TcpStream,
    decoder: StreamDecoder,
    /// Currently armed poller interest.
    interest: Interest,
    /// Frames to send, in order.
    queue: VecDeque<OutFrame>,
    /// Bytes of the queue-front frame already written (partial-write
    /// resume point).
    partial: usize,
    /// On the loop's dirty list.
    dirty: bool,
    /// Close once the queue drains (the broker issued `Action::Close`).
    closing: bool,
}

/// One shard's event loop: owns the shard, a poller, a slab of
/// connections, and the shard's timer deadline. See the
/// [module docs](self).
struct EventLoop {
    idx: usize,
    shared: Arc<Shared>,
    /// Keys each connection by its slab token in `conns`: the shard
    /// holds only this loop's connections, and generations keep a stale
    /// token from naming a new one.
    shard: Shard<u64>,
    /// A broker call ran since the loop last published its figures.
    unpublished: bool,
    poller: Poller,
    conns: Slab<Conn>,
    /// Pre-CONNECT grace deadlines by token.
    pre_connect: HashMap<u64, u64>,
    /// Slow-consumer eviction deadlines by token (set while a partial
    /// write has the socket jammed).
    write_blocked: HashMap<u64, u64>,
    /// A lower bound on the earliest deadline of this shard's broker
    /// (keep-alive expiry, retransmission; `None` if it has none): what
    /// the loop arms its wait with instead of walking every connection
    /// and in-flight message on every turn. Activity only moves broker
    /// deadlines *later*, and waking early is harmless (the loop polls,
    /// finds nothing due and rescans), so the bound stays valid as long as
    /// it never sits above the true deadline. The loop lowers it after
    /// every call to its shard that can create an earlier deadline: a
    /// QoS > 0 delivery or PUBREL entering the in-flight window (to
    /// `now + retransmit_timeout`, in [`apply_actions`](Self::apply_actions))
    /// and a handled CONNECT (to `now`: what a resumed session holds may
    /// be due already — a recovered one's is, its send times are reset).
    /// [`rescan_broker_deadline`](Self::rescan_broker_deadline) replaces
    /// it with the exact value after a deadline wake-up.
    broker_deadline: Option<u64>,
    // Scratch that lives as long as the loop and is empty between uses: a
    // turn allocates only what outlives it (the frames it queues, the
    // topic and payload of a PUBLISH it routes).
    /// Readiness events of the current turn.
    events: Vec<Event>,
    /// Packets decoded off one readable socket.
    packets: Vec<Packet>,
    /// The inbox being drained, swapped with the posted one.
    inbox: Vec<LoopMsg>,
    /// Tokens of connections with frames queued or a close pending.
    dirty: Vec<u64>,
    /// The dirty list being flushed, swapped with `dirty`.
    flushing: Vec<u64>,
    /// Output of the broker operation in progress.
    out: ShardOutput<u64>,
}

impl EventLoop {
    fn new(idx: usize, shared: Arc<Shared>, poller: Poller, shard: Shard<u64>) -> EventLoop {
        EventLoop {
            idx,
            shared,
            shard,
            unpublished: false,
            poller,
            conns: Slab::new(),
            pre_connect: HashMap::new(),
            write_blocked: HashMap::new(),
            broker_deadline: None,
            events: Vec::with_capacity(256),
            packets: Vec::new(),
            inbox: Vec::new(),
            dirty: Vec::new(),
            flushing: Vec::new(),
            out: ShardOutput::default(),
        }
    }

    fn handle(&self) -> &LoopHandle {
        &self.shared.loops[self.idx]
    }

    fn run(mut self) {
        self.rescan_broker_deadline();
        loop {
            if self.shared.shutdown.load(Ordering::Relaxed) {
                self.teardown_all();
                return;
            }
            self.drain_inbox();
            self.flush_dirty();
            self.publish();

            let deadline = min_deadline(self.broker_deadline, self.earliest_aux_deadline());
            let now = self.shared.now();
            let timeout = deadline.map(|due| Duration::from_nanos(due.saturating_sub(now)));
            // Everything this loop queued is flushed, and a message
            // posted since the inbox was swapped out left a wake byte,
            // so this wait cannot oversleep new work.
            if let Err(e) = self.poller.wait(&mut self.events, timeout) {
                eprintln!("mqtt-loop-{}: poller failed ({e}), stopping", self.idx);
                self.teardown_all();
                return;
            }
            self.handle().wakeups.fetch_add(1, Ordering::Relaxed);
            let now = self.shared.now();
            if deadline.is_some_and(|due| now >= due) {
                #[cfg(test)]
                self.handle()
                    .deadline_wakeups
                    .fetch_add(1, Ordering::Relaxed);
                self.shard.poll(now, &mut self.out);
                self.dispatch(now);
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
    /// place that walks the shard's connections and in-flight messages
    /// for a deadline.
    fn rescan_broker_deadline(&mut self) {
        #[cfg(test)]
        self.handle().deadline_scans.fetch_add(1, Ordering::Relaxed);
        self.broker_deadline = self.shard.next_deadline_ns();
    }

    /// The shard may have something due at `due` that it did not have
    /// before.
    fn lower_deadline(&mut self, due: u64) {
        self.broker_deadline = min_deadline(self.broker_deadline, Some(due));
    }

    /// Copies the shard's counters into the handle, for
    /// [`TcpBroker::stats`], if a broker call ran since the last time (see
    /// the [module docs](self) for when). Allocates nothing.
    fn publish(&mut self) {
        if std::mem::take(&mut self.unpublished) {
            let figures = (self.shard.stats(), self.shard.wal_stats());
            *lock(&self.handle().published) = figures;
        }
    }

    // ----- broker output --------------------------------------------------

    /// Applies `self.out`, what a call on this loop's shard just produced
    /// at `now`: its actions on this loop's connections, its forwards
    /// into the inboxes of the shards they target.
    fn dispatch(&mut self, now: u64) {
        self.apply_actions(now);
        for (target, publish) in self.out.forwards.drain(..) {
            debug_assert_ne!(target, self.idx, "a shard forwards only to others");
            self.shared.loops[target].post(LoopMsg::Forward(publish));
        }
    }

    /// Queues the frames and closes of `self.out.actions` on their
    /// connections, marking each dirty once, and lowers the deadline
    /// bound if a delivery started a retransmission timer. Follows every
    /// broker call, so it also marks the loop's figures unpublished.
    fn apply_actions(&mut self, now: u64) {
        self.unpublished = true;
        let mut starts_retransmit_timer = false;
        for action in self.out.actions.drain(..) {
            let (token, frame) = match action {
                Action::Send { conn, packet } => {
                    starts_retransmit_timer |= match &packet {
                        Packet::Publish(p) => p.qos != QoS::AtMostOnce,
                        Packet::Pubrel(_) => true,
                        _ => false,
                    };
                    (conn, Some(OutFrame::from(packet)))
                }
                Action::SendFrame { conn, frame } => (conn, Some(OutFrame::Whole(frame))),
                Action::Close { conn } => (conn, None),
            };
            let Some(c) = self.conns.get_mut(token) else {
                continue; // already torn down
            };
            match frame {
                Some(frame) => c.queue.push_back(frame),
                None => c.closing = true,
            }
            if !c.dirty {
                c.dirty = true;
                self.dirty.push(token);
            }
        }
        if starts_retransmit_timer {
            self.lower_deadline(now + self.shared.retransmit_timeout_ns);
        }
    }

    // ----- inbox ----------------------------------------------------------

    fn drain_inbox(&mut self) {
        // Swapped, not taken: both lists keep their room.
        let mut inbox = std::mem::take(&mut self.inbox);
        std::mem::swap(&mut inbox, &mut *lock(&self.handle().inbox));
        for msg in inbox.drain(..) {
            match msg {
                LoopMsg::Forward(publish) => {
                    let now = self.shared.now();
                    self.shard
                        .apply_forward(publish, now, &mut self.out.actions);
                    self.apply_actions(now);
                }
                LoopMsg::Accept(stream) => {
                    if let Some(token) = self.register(stream, StreamDecoder::new()) {
                        let due = self.shared.now() + PRE_CONNECT_TIMEOUT_NS;
                        self.pre_connect.insert(token, due);
                    }
                }
                LoopMsg::HandOver(hand_over) => {
                    let HandOver {
                        stream,
                        decoder,
                        connect,
                    } = *hand_over;
                    if let Some(token) = self.register(stream, decoder) {
                        self.on_connect(token, connect);
                    }
                }
            }
        }
        self.inbox = inbox;
    }

    /// Gives a socket a slab slot and a poller registration; `None` if
    /// the poller refused it (the connection is then torn down).
    fn register(&mut self, stream: TcpStream, decoder: StreamDecoder) -> Option<u64> {
        let fd = stream.as_raw_fd();
        let token = self.conns.insert(Conn {
            stream,
            decoder,
            interest: Interest::READABLE,
            queue: VecDeque::new(),
            partial: 0,
            dirty: false,
            closing: false,
        });
        #[cfg(test)]
        self.handle().connections.fetch_add(1, Ordering::Relaxed);
        if self.poller.register(fd, token, Interest::READABLE).is_err() {
            self.teardown(token, true);
            return None;
        }
        Some(token)
    }

    // ----- dirty-list writes ----------------------------------------------

    /// Flushes every dirty connection's queue. Only this loop touches
    /// its conns' sockets, so each socket has exactly one writer and the
    /// frames of a queue never interleave. Loops until the dirty list
    /// stays empty (a flush can enqueue follow-up frames via broker
    /// actions).
    fn flush_dirty(&mut self) {
        while !self.dirty.is_empty() {
            // Swapped, not taken: both lists keep their room.
            std::mem::swap(&mut self.dirty, &mut self.flushing);
            for i in 0..self.flushing.len() {
                let token = self.flushing[i];
                let Some(conn) = self.conns.get_mut(token) else {
                    continue; // already torn down
                };
                conn.dirty = false;
                self.flush_conn(token);
            }
            self.flushing.clear();
        }
    }

    /// Drains one connection's outbound queue in [`WRITE_BATCH`]-sized
    /// vectored writes, resuming across partial frames, then applies the
    /// outcome (interest re-arm, slow-consumer clock, close-after-flush,
    /// teardown).
    fn flush_conn(&mut self, token: u64) {
        self.publish();
        match self.write_queue(token) {
            FlushOutcome::Dead => self.teardown(token, true),
            FlushOutcome::Drained => {
                let Some(conn) = self.conns.get_mut(token) else {
                    return;
                };
                if conn.closing {
                    return self.teardown(token, true);
                }
                if conn.interest.writable {
                    conn.interest = Interest::READABLE;
                    let fd = conn.stream.as_raw_fd();
                    let _ = self.poller.reregister(fd, token, Interest::READABLE);
                }
                self.write_blocked.remove(&token);
            }
            FlushOutcome::Blocked => {
                let due = self.shared.now() + self.shared.write_timeout_ns;
                let Some(conn) = self.conns.get_mut(token) else {
                    return;
                };
                if !conn.interest.writable {
                    conn.interest = Interest::READ_WRITE;
                    let fd = conn.stream.as_raw_fd();
                    let _ = self.poller.reregister(fd, token, Interest::READ_WRITE);
                }
                // First blockage starts the slow-consumer clock; any
                // write progress resets it (see `write_queue`).
                self.write_blocked.entry(token).or_insert(due);
            }
        }
    }

    /// The socket-write half of [`flush_conn`]: drains until empty,
    /// jammed, or dead (or gone: an already torn-down connection).
    fn write_queue(&mut self, token: u64) -> FlushOutcome {
        loop {
            let Some(conn) = self.conns.get_mut(token) else {
                return FlushOutcome::Dead;
            };
            // The socket write happens here — under no lock, and never
            // blocking (the socket is nonblocking).
            let written = write_front(
                &mut &conn.stream,
                &mut conn.queue,
                &mut conn.partial,
                WRITE_BATCH,
            );
            match written {
                Ok(None) => return FlushOutcome::Drained,
                Ok(Some(0)) => return FlushOutcome::Dead,
                Ok(Some(_)) => {
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
            return; // torn down or handed over
        }
        if ev.writable {
            self.write_blocked.remove(&ev.token);
            self.flush_conn(ev.token);
        }
    }

    /// Reads available bytes, decodes and dispatches packets. Returns
    /// whether the connection is still on this loop.
    fn on_readable(&mut self, token: u64) -> bool {
        // Until its CONNECT is handled, a connection decodes one packet:
        // that CONNECT may move it to another loop, with what follows.
        let first = self.pre_connect.contains_key(&token);
        let mut failed = false;
        let mut eof = false;
        {
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
                            if first && !self.packets.is_empty() {
                                break 'reading;
                            }
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
                        // emptied the socket. Otherwise the poller
                        // re-notifies for leftover bytes, so fairness
                        // wins.
                        if !filled || reads >= READS_PER_EVENT {
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
        }

        if first {
            if let Some(packet) = self.packets.pop() {
                self.on_first_packet(token, packet);
            }
        } else {
            self.handle_packets(token);
        }
        if failed || eof {
            self.teardown(token, true);
            return false;
        }
        self.conns.get(token).is_some()
    }

    /// Hands the decoded packets of connection `token` to the broker.
    fn handle_packets(&mut self, token: u64) {
        let mut packets = std::mem::take(&mut self.packets);
        for packet in packets.drain(..) {
            self.handle_packet(token, packet);
        }
        self.packets = packets;
    }

    fn handle_packet(&mut self, token: u64, packet: Packet) {
        let now = self.shared.now();
        self.shard.packet(&token, packet, now, &mut self.out);
        self.dispatch(now);
    }

    /// A connection's first packet. A CONNECT of a session on another
    /// shard moves the connection to that shard's loop; one of this
    /// shard's is handled here. Anything else closes the connection
    /// (MQTT 3.1.1 §3.1), which no shard has heard of.
    fn on_first_packet(&mut self, token: u64, packet: Packet) {
        self.pre_connect.remove(&token);
        let Packet::Connect(connect) = packet else {
            return self.teardown(token, false);
        };
        let shard = shard_of(&connect.client_id, self.shared.loops.len());
        if shard == self.idx {
            return self.on_connect(token, connect);
        }
        let Some(conn) = self.remove(token) else {
            return;
        };
        self.shared.loops[shard].post(LoopMsg::HandOver(Box::new(HandOver {
            stream: conn.stream,
            decoder: conn.decoder,
            connect,
        })));
    }

    /// Opens the connection on this loop's shard with its CONNECT, then
    /// handles the packets its client sent behind it that the decoder
    /// already holds: the socket may have nothing left to signal
    /// readiness with.
    fn on_connect(&mut self, token: u64, connect: Connect) {
        // A session comes online: its keep-alive starts, and if it is
        // resumed, the in-flight messages it kept count again from when
        // they were sent — possibly due already. Poll at once and rescan.
        let now = self.shared.now();
        self.lower_deadline(now);
        self.shard.connect(&token, connect, now, &mut self.out);
        self.dispatch(now);

        let Some(conn) = self.conns.get_mut(token) else {
            return;
        };
        let failed = loop {
            match conn.decoder.next_packet() {
                Ok(Some(packet)) => self.packets.push(packet),
                Ok(None) => break false,
                Err(_) => break true,
            }
        };
        self.handle_packets(token);
        if failed {
            self.teardown(token, true);
        }
    }

    // ----- deadlines ------------------------------------------------------

    /// Earliest loop-local socket deadline (pre-CONNECT grace,
    /// slow-consumer eviction), folded into the shard's poll timeout so
    /// these policies need no extra timer machinery.
    fn earliest_aux_deadline(&self) -> Option<u64> {
        let all = self.pre_connect.values().chain(self.write_blocked.values());
        all.min().copied()
    }

    /// Drops each connection that sent no CONNECT within the grace
    /// period, or stayed jammed past `write_timeout_ns`.
    fn expire_aux_deadlines(&mut self, now: u64) {
        let expired: Vec<u64> = self
            .pre_connect
            .iter()
            .chain(&self.write_blocked)
            .filter(|&(_, &deadline)| deadline <= now)
            .map(|(&token, _)| token)
            .collect();
        for token in expired {
            self.teardown(token, true);
        }
    }

    // ----- teardown -------------------------------------------------------

    /// Takes a connection off this loop: its slab slot, its deadlines and
    /// its poller registration.
    fn remove(&mut self, token: u64) -> Option<Conn> {
        let conn = self.conns.remove(token)?;
        self.pre_connect.remove(&token);
        self.write_blocked.remove(&token);
        let _ = self.poller.deregister(conn.stream.as_raw_fd());
        #[cfg(test)]
        self.handle().connections.fetch_sub(1, Ordering::Relaxed);
        Some(conn)
    }

    /// Removes a connection from the loop and the admission count; `lost`
    /// additionally performs the broker-side session teardown (a no-op
    /// for sessions the broker already closed, or never opened).
    fn teardown(&mut self, token: u64, lost: bool) {
        let Some(_conn) = self.remove(token) else {
            return;
        };
        self.shared.live.fetch_sub(1, Ordering::Relaxed);
        if lost {
            let now = self.shared.now();
            // A will is routed on the shard the session lived on: this one.
            self.shard.lost(&token, now, &mut self.out);
            self.dispatch(now);
        }
        self.publish();
        // The connection's stream drops here, closing the socket.
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
        this.send(connect)?;
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

    /// Writes `packet` as the broker's transport queues it
    /// ([`OutFrame::from`]): an acknowledgement, a ping or DISCONNECT from
    /// the bytes held inline, anything else encoded.
    fn send(&mut self, packet: Packet) -> std::io::Result<()> {
        for part in OutFrame::from(packet).parts() {
            self.stream.write_all(part)?;
        }
        Ok(())
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
                        self.send(p)?;
                    }
                }
                Ok(None) => break,
                Err(e) => return Err(std::io::Error::new(ErrorKind::InvalidData, e.to_string())),
            }
        }
        let now = self.now();
        for p in self.session.poll(now) {
            self.send(p)?;
        }
        Ok(())
    }

    /// Publishes a message: its payload is written straight into the
    /// frame (see [`Client::publish_frame`]).
    ///
    /// # Errors
    ///
    /// Propagates socket errors; `InvalidInput` for session misuse.
    pub fn publish(
        &mut self,
        topic: &str,
        payload: &[u8],
        qos: QoS,
        retain: bool,
    ) -> std::io::Result<()> {
        let topic = TopicName::new(topic)
            .map_err(|e| std::io::Error::new(ErrorKind::InvalidInput, e.to_string()))?;
        let now = self.now();
        let frame = self
            .session
            .publish_frame(&topic, payload, qos, retain, now)
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
        self.send(packet)?;
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
        let _ = self.send(packet);
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }
}

#[cfg(test)]
mod tests {
    use std::io::Read;

    use bytes::Bytes;

    use super::*;
    use crate::codec::encode;

    #[test]
    fn tcp_round_trip_qos0_and_retained() {
        let broker = TcpBroker::bind("127.0.0.1:0").expect("bind");
        let addr = broker.local_addr();

        let mut publisher = TcpClient::connect(addr, "pub").expect("connect");
        publisher
            .publish("conf/x", b"retained-v1", QoS::AtMostOnce, true)
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
            .publish("conf/y", b"live", QoS::AtMostOnce, false)
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
                .publish("q2/t", &[i], QoS::ExactlyOnce, false)
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
            .publish("t/x", b"one-shard", QoS::AtMostOnce, false)
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

    /// First id `{prefix}{n}` whose session lives on shard `target` of
    /// `shards`.
    fn id_on_shard(prefix: &str, target: usize, shards: usize) -> String {
        (0..)
            .map(|n| format!("{prefix}{n}"))
            .find(|id| crate::shard::shard_of(id, shards) == target)
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

    fn subscribe_packet(filter: &str, qos: QoS) -> Packet {
        Packet::Subscribe(crate::packet::Subscribe {
            packet_id: 1,
            filters: vec![crate::packet::SubscribeFilter {
                filter: TopicFilter::new(filter).expect("valid filter"),
                qos,
            }],
        })
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
                .publish("scan/t", &i.to_be_bytes(), QoS::AtLeastOnce, false)
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
            let deadline_wakeups = handle.deadline_wakeups.load(Ordering::Relaxed);
            // One when the loop starts, one after each deadline wake-up —
            // of which a retransmission timer causes one per timeout.
            assert!(
                of_loop <= 1 + deadline_wakeups,
                "{of_loop} scans over {deadline_wakeups} deadline wake-ups"
            );
            scans += of_loop;
        }
        assert!(scans * 50 < turns, "{scans} scans over {turns} turns");
        publisher.disconnect();
        subscriber.disconnect();
        broker.shutdown();
    }

    /// The timer of an unacknowledged delivery fires on time, whichever
    /// way it was put in flight: by another shard's forward, applied from
    /// the inbox of the loop the session lives on, or by a packet that
    /// loop read itself.
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
        // Accepted first, by loop 0, which hands it to loop 2 at CONNECT.
        let mut subscriber = raw_connect(addr, &id_on_shard("rt-sub-", 2, 4), 0);
        let mut decoder = StreamDecoder::new();
        subscriber
            .write_all(&encode(&subscribe_packet("rt/#", QoS::AtLeastOnce)))
            .expect("send SUBSCRIBE");
        assert!(matches!(
            raw_recv(&mut subscriber, &mut decoder),
            Packet::Suback(_)
        ));
        let mut publisher =
            TcpClient::connect(addr, &id_on_shard("rt-pub-", 0, 4)).expect("connect");

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

        // Routed on shard 0, forwarded to shard 2 through its loop's inbox.
        let sent = Instant::now();
        publisher
            .publish("rt/forwarded", b"x", QoS::AtLeastOnce, false)
            .expect("publish");
        expect_retransmission(&mut subscriber, &mut decoder, sent, "forwarded");

        // Published by the subscriber itself: loop 2 reads the packet and
        // puts the delivery in flight on its own shard.
        std::thread::sleep(Duration::from_millis(50));
        let own = Publish::qos1(TopicName::new("rt/own").expect("valid"), b"y".to_vec(), 77);
        let sent = Instant::now();
        subscriber
            .write_all(&encode(&Packet::Publish(own)))
            .expect("send PUBLISH");
        assert_eq!(raw_recv(&mut subscriber, &mut decoder), Packet::Puback(77));
        expect_retransmission(&mut subscriber, &mut decoder, sent, "read by its own loop");

        assert!(broker.stats().retransmissions >= 2);
        publisher.disconnect();
        broker.shutdown();
    }

    /// What a persistent session holds unacknowledged is timed again when
    /// it comes back online — whichever loop accepted its new socket, and
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
        // The session lives on shard 2. Sockets are accepted by loops 0, 1,
        // 2, 3 in turn; each of this session's ends up on loop 2.
        let id = id_on_shard("back-", 2, 4);
        let connect = || {
            let mut connect = crate::packet::Connect::new(id.as_str());
            connect.clean_session = false;
            connect.keep_alive_secs = 0;
            raw_connect_with(addr, connect)
        };
        let mut subscriber = connect(); // accepted by loop 0
        let mut decoder = StreamDecoder::new();
        subscriber
            .write_all(&encode(&subscribe_packet("back/#", QoS::AtLeastOnce)))
            .expect("send SUBSCRIBE");
        assert!(matches!(
            raw_recv(&mut subscriber, &mut decoder),
            Packet::Suback(_)
        ));
        let mut publisher = TcpClient::connect(addr, "back-pub").expect("connect"); // by loop 1

        let deliver_unacked = |publisher: &mut TcpClient, subscriber: &mut TcpStream| {
            let sent = Instant::now();
            publisher
                .publish("back/t", b"x", QoS::AtLeastOnce, false)
                .expect("publish");
            let Packet::Publish(first) = raw_recv(subscriber, &mut StreamDecoder::new()) else {
                panic!("expected the delivery");
            };
            assert!(!first.dup);
            (sent, first.packet_id.expect("a QoS 1 delivery"))
        };

        // Back after the timeout ran out, accepted by the session's own
        // loop (2): due at once.
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

        // Back before it ran out, accepted by loop 3 and handed to loop 2:
        // due when it does, counted from when the delivery was sent.
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

    impl TcpBroker {
        /// How many connections each loop holds.
        fn connections_per_loop(&self) -> Vec<usize> {
            let loops = &self.shared.loops;
            loops
                .iter()
                .map(|l| l.connections.load(Ordering::Relaxed))
                .collect()
        }
    }

    /// A socket whose CONNECT names a session of another shard moves to
    /// that shard's loop, and what the client wrote behind the CONNECT in
    /// the same write is served there, in order.
    #[test]
    fn a_connect_moves_its_socket_to_the_loop_of_its_shard() {
        let broker = TcpBroker::bind_with(
            "127.0.0.1:0",
            BrokerConfig {
                shards: 4,
                ..BrokerConfig::default()
            },
        )
        .expect("bind");
        // Accepted first, by loop 0; its session lives on shard 2.
        let mut stream = TcpStream::connect(broker.local_addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("read timeout");
        let connect = crate::packet::Connect::new(id_on_shard("moved-", 2, 4));
        let own = Publish::qos1(TopicName::new("moved/t").expect("valid"), b"z".to_vec(), 5);
        let burst: Vec<u8> = [
            Packet::Connect(connect),
            subscribe_packet("moved/#", QoS::AtLeastOnce),
            Packet::Publish(own),
        ]
        .iter()
        .flat_map(|p| encode(p).to_vec())
        .collect();
        stream.write_all(&burst).expect("one write");

        let mut decoder = StreamDecoder::new();
        let mut next = || raw_recv(&mut stream, &mut decoder);
        assert!(matches!(next(), Packet::Connack(_)));
        assert!(matches!(next(), Packet::Suback(_)));
        assert_eq!(next(), Packet::Puback(5));
        let Packet::Publish(delivery) = next() else {
            panic!("expected the delivery");
        };
        assert_eq!(delivery.payload.as_ref(), b"z");
        assert_eq!(broker.connections_per_loop(), [0, 0, 1, 0]);
        broker.shutdown();
    }

    #[test]
    fn silent_client_is_dropped_at_its_keep_alive_grace() {
        let broker = TcpBroker::bind("127.0.0.1:0").expect("bind");
        let connected = Instant::now();
        // Keep-alive 1 s at the default factor 1.5: due at 1.5 s.
        let mut silent = raw_connect(broker.local_addr(), &id_on_shard("quiet-", 3, 4), 1);
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
            .publish("fan/x", b"blast", QoS::AtMostOnce, false)
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

    /// The event loops of a two-shard broker whose threads never run: a
    /// test makes their turns by hand.
    fn two_loops() -> (Arc<Shared>, Vec<EventLoop>) {
        Shared::new(BrokerConfig {
            shards: 2,
            ..BrokerConfig::default()
        })
        .expect("shared")
    }

    /// The two ends of a loopback connection: the broker's, the client's.
    fn socket_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        (server, client)
    }

    #[test]
    fn dirty_marking_is_deduplicated_per_flush_cycle() {
        let (_shared, mut loops) = two_loops();
        let lp = &mut loops[0];
        let (server, _client) = socket_pair();
        let token = lp
            .register(server, StreamDecoder::new())
            .expect("registered");
        let send = |lp: &mut EventLoop, n: usize| {
            for _ in 0..n {
                lp.out.actions.push(Action::SendFrame {
                    conn: token,
                    frame: Bytes::from_static(b"frame"),
                });
            }
            lp.apply_actions(0);
        };

        // Many frames between flushes → one dirty entry.
        send(lp, 5);
        assert_eq!(lp.dirty, [token]);
        assert_eq!(lp.conns.get(token).expect("live").queue.len(), 5);

        // The flush clears the mark; the next frames re-mark exactly once.
        lp.flush_dirty();
        assert!(lp.dirty.is_empty());
        assert!(lp.conns.get(token).expect("live").queue.is_empty());
        send(lp, 2);
        assert_eq!(lp.dirty, [token]);

        // A close on a dirty connection adds no second entry.
        lp.out.actions.push(Action::Close { conn: token });
        lp.apply_actions(0);
        assert_eq!(lp.dirty, [token]);
        assert!(lp.conns.get(token).expect("live").closing);
    }

    /// The number a delivery queued by [`order_publish`] carries.
    fn order_of(frame: &OutFrame) -> u32 {
        let bytes = frame.parts().concat();
        let Some((Packet::Publish(p), _)) = crate::codec::decode(&bytes).expect("a frame") else {
            panic!("a whole PUBLISH");
        };
        u32::from_be_bytes(p.payload[..4].try_into().expect("4 bytes"))
    }

    fn order_publish(i: u32) -> Packet {
        let topic = TopicName::new("order/t").expect("valid topic");
        Packet::Publish(Publish::qos0(topic, i.to_be_bytes().to_vec()))
    }

    /// Per-topic FIFO across shards: a subscriber on shard 1, whose loop
    /// is not running, and 1 100 QoS 0 publishes routed on shard 0. Once
    /// loop 1 drains its inbox, the subscriber's queue must hold them in
    /// the order they were routed.
    #[test]
    fn forwards_to_a_loop_keep_their_order_however_many_are_pending() {
        let (shared, mut loops) = two_loops();
        // The subscriber is handed to loop 1 with its SUBSCRIBE buffered
        // behind its CONNECT.
        let (server, _client) = socket_pair();
        let mut decoder = StreamDecoder::new();
        decoder.feed(&encode(&subscribe_packet("order/#", QoS::AtMostOnce))[..]);
        shared.loops[1].post(LoopMsg::HandOver(Box::new(HandOver {
            stream: server,
            decoder,
            connect: Connect::new(id_on_shard("order-sub-", 1, 2)),
        })));
        loops[1].drain_inbox();
        // The publisher, a session of shard 0 whose socket nothing reads.
        let (server, _publisher) = socket_pair();
        let publisher = loops[0]
            .register(server, StreamDecoder::new())
            .expect("registered");
        loops[0].on_connect(publisher, Connect::new(id_on_shard("order-pub-", 0, 2)));

        for i in 0..1_100 {
            loops[0].handle_packet(publisher, order_publish(i));
        }
        // Loop 1 catches up.
        loops[1].drain_inbox();

        let [token] = loops[1].conns.tokens()[..] else {
            panic!("one connection on loop 1");
        };
        let queue = &loops[1].conns.get(token).expect("on loop 1").queue;
        // Its CONNACK and SUBACK, then the deliveries.
        let got: Vec<u32> = queue.iter().skip(2).map(order_of).collect();
        assert_eq!(got.len(), 1_100);
        assert!(
            got.iter().zip(0..).all(|(&g, i)| g == i),
            "out of order: the queue starts {:?}",
            &got[..4]
        );
    }

    /// A socket that takes at most `cap` bytes per write, across slices.
    struct Capped {
        cap: usize,
        taken: Vec<u8>,
    }

    impl Write for Capped {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            let before = self.taken.len();
            for buf in bufs {
                let room = self.cap - (self.taken.len() - before);
                self.taken.extend_from_slice(&buf[..buf.len().min(room)]);
            }
            Ok(self.taken.len() - before)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Partial writes stop anywhere in a split delivery — inside its head,
    /// between the two bytes of its packet id, inside its payload — and
    /// the next write resumes there: the bytes are those `encode` makes.
    #[test]
    fn a_split_delivery_resumes_at_every_byte() {
        let delivery = |pid: u16| {
            let name = TopicName::new("s/t").expect("valid topic");
            let mut p = Publish::qos1(name, vec![pid as u8; 5], pid);
            crate::codec::carry_delivery(&mut p);
            Packet::Publish(p)
        };
        let packets = [delivery(0x0102), Packet::Puback(9), delivery(0x0304)];
        let frames: Vec<OutFrame> = packets.iter().cloned().map(OutFrame::from).collect();
        let OutFrame::Split { head, .. } = &frames[0] else {
            panic!("a first transmission is split");
        };
        assert_eq!(head.len(), 7, "first byte, length, topic");
        let expected: Vec<u8> = packets.iter().flat_map(|p| encode(p).to_vec()).collect();
        for (cap, max) in [(1, 64), (2, 1), (5, 2), (64, 64)] {
            let mut queue: VecDeque<OutFrame> = frames.iter().cloned().collect();
            let (mut socket, mut partial) = (Capped { cap, taken: vec![] }, 0);
            let mut resumed_at = Vec::new();
            while let Some(n) =
                write_front(&mut socket, &mut queue, &mut partial, max).expect("write")
            {
                assert!(n > 0 && n <= cap, "cap {cap}: wrote {n}");
                resumed_at.push(partial);
            }
            assert_eq!(socket.taken, expected, "cap {cap}, {max} frames a write");
            assert!(queue.is_empty() && partial == 0);
            if cap == 1 {
                // Every offset of every frame was a resume point.
                let every: Vec<usize> = frames
                    .iter()
                    .flat_map(|f| (1..f.len()).chain([0]))
                    .collect();
                assert_eq!(resumed_at, every);
            }
        }
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

    /// A durability directory that cannot be created is an error of
    /// `bind_with`, not a panic.
    #[test]
    fn an_unopenable_durability_dir_is_an_error() {
        let file = std::env::temp_dir().join(format!("ifot-net-not-a-dir-{}", std::process::id()));
        std::fs::write(&file, b"a regular file").expect("write the file");
        let config = BrokerConfig::default().with_durability(file.join("wal"));
        let bound = TcpBroker::bind_with("127.0.0.1:0", config);
        let _ = std::fs::remove_file(&file);
        let err = bound.expect_err("a directory under a regular file cannot be opened");
        assert!(err.to_string().contains("ifot-net-not-a-dir-"), "{err}");
    }

    /// A loop publishes its figures before it writes a frame: the client
    /// that has read its CONNACK is counted, with no waiting.
    #[test]
    fn stats_count_a_client_as_soon_as_it_sees_its_connack() {
        let broker = TcpBroker::bind_with(
            "127.0.0.1:0",
            BrokerConfig {
                shards: 4,
                ..BrokerConfig::default()
            },
        )
        .expect("bind");
        let clients: Vec<TcpClient> = (1..=64)
            .map(|n| {
                let client =
                    TcpClient::connect(broker.local_addr(), &format!("seen-{n}")).expect("connect");
                assert_eq!(broker.stats().clients_connected, n);
                client
            })
            .collect();
        for client in clients {
            client.disconnect();
        }
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
                    .publish("flood/x", &payload, QoS::AtMostOnce, false)
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
            .publish("flood/done", b"marker", QoS::AtMostOnce, false)
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
