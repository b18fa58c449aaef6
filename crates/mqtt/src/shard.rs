//! # Sharded routing — a multi-core front for the sans-I/O [`Broker`]
//!
//! The paper's Broker class is the choke point of the whole pipeline
//! (the Table II knee is queueing behind the heavy processing modules),
//! and a single `Mutex<Broker>` serialises every connection through one
//! lock. [`ShardedBroker`] partitions sessions across N independent
//! shards — each shard owns its own [`Broker`] instance — so publishes
//! arriving on different connections route concurrently with no global
//! lock on the hot path.
//!
//! ## Partitioning
//!
//! A session lives on the shard selected by an FNV-1a hash of its MQTT
//! client id ([`shard_of`]). Hashing the *client id* (not the socket)
//! means session takeover, persistent-session resumption and QoS 1/2
//! in-flight state all stay within one shard — the per-shard [`Broker`]
//! keeps the exact semantics of the single-broker build.
//!
//! ## Cross-shard coherence
//!
//! Each shard holds a *replica* subscription tree describing every
//! subscription on every shard, keyed `(shard, client_id)`. Shards keep
//! the replica coherent through a global mutation log with an epoch
//! counter: tree mutations reported by a shard's broker (via
//! [`BrokerEvent`] capture) are appended to the log, and every shard
//! catches up from its last-applied epoch before it computes cross-shard
//! routing. The log is compacted into a master-tree snapshot once it
//! grows past a threshold; a shard that fell behind the snapshot clones
//! the master instead of replaying entries.
//!
//! The resulting invariant (DESIGN.md §7): **a subscribe acknowledged on
//! any shard is visible to every subsequent publish on all shards** —
//! the SUBACK is only returned after the log append (epoch bump)
//! completes, and a publish always catches its shard up to the current
//! epoch before computing forwards.
//!
//! On the steady-state publish path the log mutex is never touched: a
//! lock-free epoch check ([`AtomicU64`]) confirms the replica is current.
//!
//! ## Cross-shard fan-out
//!
//! A publish routed on its origin shard may match subscribers on other
//! shards. The origin computes the distinct set of remote shards from
//! its replica and reports them as [`ShardOutput::forwards`]; the
//! embedding applies each forward with [`ShardedBroker::apply_forward`]
//! (inline in single-threaded runtimes via
//! [`resolve`](ShardedBroker::resolve); over bounded channels between
//! shard service threads in the TCP front-end). Forward application
//! never generates further forwards, so a forwarded publish cannot loop.
//! Retained publishes are forwarded to *all* shards so every shard's
//! retained store replicates and a later subscriber on any shard sees
//! them.
//!
//! ```
//! use ifot_mqtt::broker::{Action, BrokerConfig};
//! use ifot_mqtt::packet::{Connect, Packet, Publish, QoS, Subscribe, SubscribeFilter};
//! use ifot_mqtt::shard::{shard_of, ShardedBroker};
//! use ifot_mqtt::topic::{TopicFilter, TopicName};
//!
//! let broker: ShardedBroker<u32> = ShardedBroker::new(BrokerConfig {
//!     shards: 2,
//!     ..BrokerConfig::default()
//! });
//! // Pick ids that land on different shards.
//! let sub_id = (0..).map(|i| format!("s{i}")).find(|s| shard_of(s, 2) == 0).unwrap();
//! let pub_id = (0..).map(|i| format!("p{i}")).find(|s| shard_of(s, 2) == 1).unwrap();
//!
//! broker.connection_opened(1, 0);
//! broker.handle_packet(&1, Packet::Connect(Connect::new(sub_id)), 0);
//! broker.handle_packet(&1, Packet::Subscribe(Subscribe {
//!     packet_id: 1,
//!     filters: vec![SubscribeFilter { filter: TopicFilter::new("s/#")?, qos: QoS::AtMostOnce }],
//! }), 0);
//!
//! broker.connection_opened(2, 0);
//! broker.handle_packet(&2, Packet::Connect(Connect::new(pub_id)), 0);
//! let out = broker.handle_packet(&2, Packet::Publish(
//!     Publish::qos0(TopicName::new("s/a")?, b"hi".to_vec())), 1);
//! // The publish crossed shards: the origin reported a forward …
//! assert_eq!(out.forwards.len(), 1);
//! // … and resolving it delivers on the subscriber's shard.
//! let actions = broker.resolve(out, 1);
//! assert!(matches!(actions[0], Action::SendFrame { conn: 1, .. }));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::collections::BTreeMap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};

use crate::broker::{Action, Broker, BrokerConfig, BrokerEvent, BrokerStats};
use crate::packet::{Packet, Publish, QoS};
use crate::topic::{fnv1a, TopicFilter};
use crate::tree::SubscriptionTree;
use crate::wal::{FileBackend, RecoveryReport, Wal, WalBackend, WalConfig, WalStats};

/// Mutation-log entries accumulated before compaction folds them into
/// the master snapshot. Past this, a lagging shard clones the master
/// instead of replaying (bounded memory either way).
const LOG_COMPACT_CAP: usize = 256;

/// Replica trees key subscriptions by owning shard *and* client id so a
/// client's subscriptions can be dropped without scanning. The id is the
/// string the owning broker shares, so a match clones no text.
type ReplicaKey = (usize, Arc<str>);

/// FNV-1a hash of a client id mapped onto `shards` buckets. Stable
/// across processes so a reconnecting client always lands on the shard
/// holding its persistent session.
pub fn shard_of(client_id: &str, shards: usize) -> usize {
    (fnv1a(client_id.as_bytes()) % shards.max(1) as u64) as usize
}

/// One replicated subscription-tree mutation.
#[derive(Debug, Clone)]
enum LogEntry {
    Subscribe {
        shard: usize,
        client: Arc<str>,
        filter: TopicFilter,
        qos: QoS,
    },
    Unsubscribe {
        shard: usize,
        client: Arc<str>,
        filter: TopicFilter,
    },
    RemoveClient {
        shard: usize,
        client: Arc<str>,
    },
}

fn apply_entry(tree: &mut SubscriptionTree<ReplicaKey>, entry: &LogEntry) {
    match entry {
        LogEntry::Subscribe {
            shard,
            client,
            filter,
            qos,
        } => {
            tree.subscribe((*shard, client.clone()), filter, *qos);
        }
        LogEntry::Unsubscribe {
            shard,
            client,
            filter,
        } => {
            tree.unsubscribe(&(*shard, client.clone()), filter);
        }
        LogEntry::RemoveClient { shard, client } => {
            tree.remove_key(&(*shard, client.clone()));
        }
    }
}

/// The global mutation log: a master tree at epoch `base + entries.len()`
/// plus the tail of entries since the last compaction.
struct LogInner {
    master: SubscriptionTree<ReplicaKey>,
    entries: Vec<LogEntry>,
    /// Epoch of the master snapshot (== epoch of `entries[0]`).
    base: u64,
}

struct SubLog {
    inner: Mutex<LogInner>,
    /// Mirror of `base + entries.len()`, readable without the mutex so
    /// the publish hot path can confirm "replica already current" with a
    /// single atomic load.
    epoch: AtomicU64,
}

/// Per-shard state: the shard's own broker plus its replica of the
/// global subscription tree and the log epoch that replica reflects.
struct ShardInner<C> {
    broker: Broker<C>,
    replica: SubscriptionTree<ReplicaKey>,
    applied: u64,
    /// The events of the operation in progress; empty between operations
    /// (kept for its capacity).
    events: Vec<BrokerEvent>,
}

/// What one sharded-broker operation produced: transport actions for
/// this shard's connections, plus publishes that must be applied to
/// other shards.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardOutput<C> {
    /// Actions to apply to this shard's transport connections.
    pub actions: Vec<Action<C>>,
    /// `(target shard, publish)` pairs to hand to
    /// [`ShardedBroker::apply_forward`]. Applying a forward never
    /// produces further forwards.
    pub forwards: Vec<(usize, Publish)>,
}

impl<C> Default for ShardOutput<C> {
    fn default() -> Self {
        ShardOutput {
            actions: Vec::new(),
            forwards: Vec::new(),
        }
    }
}

/// A multi-core routing layer partitioning MQTT sessions across
/// independent [`Broker`] shards. See the [module docs](self) for the
/// architecture; all methods take `&self` (internal locking) so one
/// instance can be shared across reader/service threads.
pub struct ShardedBroker<C> {
    config: BrokerConfig,
    shards: Vec<Mutex<ShardInner<C>>>,
    log: SubLog,
    /// Connection → owning shard, fixed at CONNECT time.
    registry: RwLock<BTreeMap<C, usize>>,
    /// Connections opened but not yet CONNECTed (shard unknown).
    pending: Mutex<BTreeMap<C, u64>>,
    /// Per-shard recovery reports when the broker was opened durably
    /// (empty otherwise).
    recovery: Vec<RecoveryReport>,
}

impl<C: Ord + Clone> ShardInner<C> {
    /// Drops whatever the broker captured during the last call.
    fn discard_events(&mut self) {
        self.broker.drain_events_into(&mut self.events);
        self.events.clear();
    }
}

impl<C: Ord + Clone> ShardedBroker<C> {
    /// Creates a sharded broker with `config.shards` shards (clamped to
    /// at least 1); every shard's inner broker shares the same config.
    ///
    /// When [`BrokerConfig::durability`] is set this opens per-shard WAL
    /// files (`shard-<i>.wal` / `shard-<i>.snap`) under the directory and
    /// replays them, so restarts resume with persistent sessions,
    /// subscriptions, retained messages and QoS 1/2 in-flight state
    /// intact. Panics if the durability directory cannot be opened or
    /// replayed (a broker silently running without its configured
    /// durability would be worse); use [`ShardedBroker::open_durable`]
    /// for a fallible, backend-injected variant.
    pub fn new(config: BrokerConfig) -> Self {
        if let Some(dir) = config.durability.clone() {
            let n = config.shards.max(1);
            let backends = (0..n)
                .map(|i| {
                    FileBackend::open(&dir, &format!("shard-{i}"))
                        .map(|b| Box::new(b) as Box<dyn WalBackend>)
                })
                .collect::<io::Result<Vec<_>>>()
                .unwrap_or_else(|e| panic!("open broker durability dir {dir:?}: {e}"));
            return Self::open_durable(config, backends)
                .unwrap_or_else(|e| panic!("recover broker durability dir {dir:?}: {e}"));
        }
        Self::build(config, None)
    }

    /// Opens a durable sharded broker over explicit per-shard backends
    /// (`backends.len()` must equal the shard count). Each shard recovers
    /// its own log; the replicated subscription master is rebuilt from
    /// the union of the recovered sessions so cross-shard routing sees
    /// restored subscriptions immediately. Inspect what each shard
    /// replayed via [`ShardedBroker::recovery_reports`].
    pub fn open_durable(
        config: BrokerConfig,
        backends: Vec<Box<dyn WalBackend>>,
    ) -> io::Result<Self> {
        let n = config.shards.max(1);
        assert_eq!(backends.len(), n, "one WAL backend per shard");
        let wal_config = WalConfig {
            snapshot_every: config.wal_snapshot_every,
            fsync: config.wal_fsync,
        };
        let mut pairs = Vec::with_capacity(n);
        for backend in backends {
            pairs.push(Wal::open(backend, wal_config)?);
        }
        Ok(Self::build(config, Some(pairs)))
    }

    fn build(config: BrokerConfig, recovered: Option<Vec<(Wal, RecoveryReport)>>) -> Self {
        let n = config.shards.max(1);
        // A lone shard has no replica to keep coherent and nowhere to
        // forward to: its broker captures no events at all.
        let capture = n > 1;
        let mut master = SubscriptionTree::new();
        let mut recovery = Vec::new();
        let shards: Vec<Mutex<ShardInner<C>>> = match recovered {
            None => (0..n)
                .map(|_| {
                    let mut broker = Broker::with_config(config.clone());
                    broker.set_event_capture(capture);
                    Mutex::new(ShardInner {
                        broker,
                        replica: SubscriptionTree::new(),
                        applied: 0,
                        events: Vec::new(),
                    })
                })
                .collect(),
            Some(pairs) => {
                // First pass: rebuild the replicated subscription master
                // from every shard's recovered sessions, so each shard's
                // replica starts complete (epoch 0, nothing to catch up).
                for (idx, (_, report)) in pairs.iter().enumerate() {
                    for (client, session) in &report.state.sessions {
                        let client: Arc<str> = Arc::from(client.as_str());
                        for (filter, qos) in &session.subscriptions {
                            let Ok(filter) = TopicFilter::new(filter.clone()) else {
                                continue;
                            };
                            master.subscribe((idx, Arc::clone(&client)), &filter, *qos);
                        }
                    }
                }
                pairs
                    .into_iter()
                    .map(|(wal, report)| {
                        let mut broker = Broker::with_config(config.clone());
                        broker.set_event_capture(capture);
                        broker.restore(&report.state);
                        broker.attach_wal(wal);
                        recovery.push(report);
                        Mutex::new(ShardInner {
                            broker,
                            replica: master.clone(),
                            applied: 0,
                            events: Vec::new(),
                        })
                    })
                    .collect()
            }
        };
        ShardedBroker {
            config,
            shards,
            log: SubLog {
                inner: Mutex::new(LogInner {
                    master,
                    entries: Vec::new(),
                    base: 0,
                }),
                epoch: AtomicU64::new(0),
            },
            registry: RwLock::new(BTreeMap::new()),
            pending: Mutex::new(BTreeMap::new()),
            recovery,
        }
    }

    /// Per-shard recovery reports from a durable open (empty when the
    /// broker started without durability).
    pub fn recovery_reports(&self) -> &[RecoveryReport] {
        &self.recovery
    }

    /// Aggregated WAL counters across shards, if durability is attached.
    pub fn wal_stats(&self) -> Option<WalStats> {
        let mut total: Option<WalStats> = None;
        for shard in &self.shards {
            if let Some(s) = shard
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .broker
                .wal_stats()
            {
                let t = total.get_or_insert_with(WalStats::default);
                t.records_appended += s.records_appended;
                t.batches_committed += s.batches_committed;
                t.bytes_appended += s.bytes_appended;
                t.append_errors += s.append_errors;
                t.sync_errors += s.sync_errors;
                t.snapshots_installed += s.snapshots_installed;
                t.snapshot_errors += s.snapshot_errors;
            }
        }
        total
    }

    /// The configuration all shards run with.
    pub fn config(&self) -> &BrokerConfig {
        &self.config
    }

    /// Number of routing shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard owning `conn`, if the connection has completed CONNECT.
    pub fn shard_of_conn(&self, conn: &C) -> Option<usize> {
        self.registry
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(conn)
            .copied()
    }

    /// Registers a fresh transport connection. The owning shard is
    /// unknown until the CONNECT arrives, so the connection parks in a
    /// pending set.
    ///
    /// Reusing a live connection key (embeddings that identify peers by
    /// stable names, like the simulator, do this on reconnect) resets
    /// the transport record on the owning shard in place — mirroring
    /// [`Broker::connection_opened`]'s overwrite semantics — so the
    /// following CONNECT is a normal session (re)establishment rather
    /// than a protocol violation. The connection stays on its shard;
    /// such embeddings use the client id as the connection key, so the
    /// re-CONNECT re-selects the same shard anyway.
    pub fn connection_opened(&self, conn: C, now_ns: u64) {
        if let Some(idx) = self.shard_of_conn(&conn) {
            self.shards[idx]
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .broker
                .connection_opened(conn, now_ns);
            return;
        }
        self.pending
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(conn, now_ns);
    }

    // The per-packet entry points have two forms, as on [`Broker`]: the
    // `_into` form appends to an output the caller owns and reuses (what
    // the TCP event loops call), the by-value form lends it a fresh one.

    /// Handles one inbound packet. The first packet on a connection must
    /// be CONNECT (it selects the shard); anything else closes the
    /// connection, as the MQTT spec requires.
    pub fn handle_packet(&self, conn: &C, packet: Packet, now_ns: u64) -> ShardOutput<C> {
        let mut out = ShardOutput::default();
        self.handle_packet_into(conn, packet, now_ns, &mut out);
        out
    }

    /// [`handle_packet`](Self::handle_packet), appending to `out`.
    pub fn handle_packet_into(
        &self,
        conn: &C,
        packet: Packet,
        now_ns: u64,
        out: &mut ShardOutput<C>,
    ) {
        if let Some(idx) = self.shard_of_conn(conn) {
            return self.run_on_shard(idx, out, |b, actions| {
                b.handle_packet_into(conn, packet, now_ns, actions);
            });
        }
        self.pending
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(conn);
        let Packet::Connect(c) = packet else {
            out.actions.push(Action::Close { conn: conn.clone() });
            return;
        };
        let idx = shard_of(&c.client_id, self.shards.len());
        self.registry
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(conn.clone(), idx);
        self.run_on_shard(idx, out, |b, actions| {
            b.connection_opened(conn.clone(), now_ns);
            b.handle_packet_into(conn, Packet::Connect(c), now_ns, actions);
        });
    }

    /// Transport-level connection loss (no DISCONNECT seen): the owning
    /// shard publishes the will and keeps persistent session state.
    pub fn connection_lost(&self, conn: &C, now_ns: u64) -> ShardOutput<C> {
        let mut out = ShardOutput::default();
        self.connection_lost_into(conn, now_ns, &mut out);
        out
    }

    /// [`connection_lost`](Self::connection_lost), appending to `out`.
    pub fn connection_lost_into(&self, conn: &C, now_ns: u64, out: &mut ShardOutput<C>) {
        self.pending
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(conn);
        let idx = self
            .registry
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(conn);
        if let Some(idx) = idx {
            self.run_on_shard(idx, out, |b, actions| {
                b.connection_lost_into(conn, now_ns, actions);
            });
        }
    }

    /// Runs one shard's timer work (keep-alive expiry, retransmissions).
    pub fn poll_shard(&self, shard: usize, now_ns: u64) -> ShardOutput<C> {
        let mut out = ShardOutput::default();
        self.poll_shard_into(shard, now_ns, &mut out);
        out
    }

    /// [`poll_shard`](Self::poll_shard), appending to `out`.
    pub fn poll_shard_into(&self, shard: usize, now_ns: u64, out: &mut ShardOutput<C>) {
        self.run_on_shard(shard, out, |b, actions| b.poll_into(now_ns, actions));
    }

    /// Runs timer work on every shard (single-threaded embeddings).
    pub fn poll(&self, now_ns: u64) -> ShardOutput<C> {
        let mut out = ShardOutput::default();
        for shard in 0..self.shards.len() {
            self.poll_shard_into(shard, now_ns, &mut out);
        }
        out
    }

    /// The earliest instant at which [`ShardedBroker::poll_shard`] has
    /// work for `shard`, if any. Shard service threads park on exactly
    /// this deadline instead of sleep-polling.
    pub fn next_deadline_ns(&self, shard: usize) -> Option<u64> {
        self.shards[shard]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .broker
            .next_deadline_ns()
    }

    /// The earliest deadline across all shards.
    pub fn next_deadline_any_ns(&self) -> Option<u64> {
        (0..self.shards.len())
            .filter_map(|s| self.next_deadline_ns(s))
            .min()
    }

    /// Applies a cross-shard forward on its target shard, returning the
    /// delivery actions for that shard's connections. Never produces
    /// further forwards (loop freedom by construction).
    pub fn apply_forward(&self, shard: usize, publish: Publish, now_ns: u64) -> Vec<Action<C>> {
        let mut actions = Vec::new();
        self.apply_forward_into(shard, publish, now_ns, &mut actions);
        actions
    }

    /// [`apply_forward`](Self::apply_forward), appending to `actions`.
    pub fn apply_forward_into(
        &self,
        shard: usize,
        publish: Publish,
        now_ns: u64,
        actions: &mut Vec<Action<C>>,
    ) {
        let mut inner = self.shards[shard]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        inner.broker.publish_internal_into(publish, now_ns, actions);
        // The only events a publish application can raise are Routed
        // echoes of this same publish; dropping them is what prevents
        // forward loops.
        inner.discard_events();
    }

    /// Applies `out.forwards` inline and returns every action. The
    /// convenience path for single-threaded embeddings (the simulator
    /// and the in-process runtimes); the TCP front-end ships forwards
    /// over channels between shard threads instead.
    pub fn resolve(&self, mut out: ShardOutput<C>, now_ns: u64) -> Vec<Action<C>> {
        self.resolve_into(&mut out, now_ns);
        out.actions
    }

    /// [`resolve`](Self::resolve) in place: drains `out.forwards`, their
    /// actions following the ones already in `out.actions`.
    pub fn resolve_into(&self, out: &mut ShardOutput<C>, now_ns: u64) {
        for (shard, publish) in out.forwards.drain(..) {
            self.apply_forward_into(shard, publish, now_ns, &mut out.actions);
        }
    }

    /// Publishes a broker-originated message (e.g. `$SYS` status) on
    /// every shard: each shard routes to its local subscribers and
    /// stores retained state, so the result matches a single broker.
    pub fn publish_internal(&self, publish: Publish, now_ns: u64) -> Vec<Action<C>> {
        let mut actions = Vec::new();
        for shard in &self.shards {
            let mut inner = shard.lock().unwrap_or_else(PoisonError::into_inner);
            inner
                .broker
                .publish_internal_into(publish.clone(), now_ns, &mut actions);
            inner.discard_events();
        }
        actions
    }

    /// Aggregated statistics across shards. Counters sum; the retained
    /// count is the maximum over shards because the retained store is
    /// replicated, not partitioned.
    pub fn stats(&self) -> BrokerStats {
        let mut total = BrokerStats::default();
        for shard in &self.shards {
            let s = shard
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .broker
                .stats();
            total.messages_in += s.messages_in;
            total.messages_out += s.messages_out;
            total.messages_dropped += s.messages_dropped;
            total.clients_connected += s.clients_connected;
            total.retransmissions += s.retransmissions;
            total.retained_count = total.retained_count.max(s.retained_count);
        }
        total
    }

    /// `$SYS` status publications describing the aggregated load, in the
    /// same shape as [`Broker::sys_stats_packets`].
    pub fn sys_stats_packets(&self) -> Vec<Publish> {
        Broker::<C>::sys_packets_for(self.stats())
    }

    /// Locks shard `idx`, runs `f` on its broker and `out.actions`, then
    /// drains the captured events: tree mutations are appended to the
    /// global log (keeping this shard's replica and the master coherent)
    /// and routed publishes are matched against the replica to compute
    /// cross-shard forwards onto `out.forwards`. With a single shard there
    /// is nothing to drain.
    fn run_on_shard(
        &self,
        idx: usize,
        out: &mut ShardOutput<C>,
        f: impl FnOnce(&mut Broker<C>, &mut Vec<Action<C>>),
    ) {
        let mut shard = self.shards[idx]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        f(&mut shard.broker, &mut out.actions);
        if self.shards.len() == 1 {
            return;
        }
        let mut events = std::mem::take(&mut shard.events);
        shard.broker.drain_events_into(&mut events);
        self.sync_and_forward(idx, &mut shard, &mut events, &mut out.forwards);
        shard.events = events;
    }

    /// The coherence step. Fast path: no mutations in this batch and the
    /// replica is already at the current epoch (one atomic load) — the
    /// log mutex is never taken. Slow path: catch the replica up from
    /// the log (or the master snapshot if compaction passed us by),
    /// append this batch's mutations, and bump the epoch *before* the
    /// enclosing call returns its actions — that ordering is what makes
    /// an acknowledged subscribe visible to every subsequent publish.
    fn sync_and_forward(
        &self,
        idx: usize,
        shard: &mut ShardInner<C>,
        events: &mut Vec<BrokerEvent>,
        forwards: &mut Vec<(usize, Publish)>,
    ) {
        let has_mutations = events.iter().any(|e| !matches!(e, BrokerEvent::Routed(_)));
        if !has_mutations {
            if shard.applied != self.log.epoch.load(Ordering::Acquire) {
                self.catch_up(shard);
            }
            for event in events.drain(..) {
                if let BrokerEvent::Routed(p) = event {
                    self.collect_forwards(idx, &shard.replica, p, forwards);
                }
            }
            return;
        }

        let mut log = self
            .log
            .inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        // Catch up first so appends land on a current replica.
        if shard.applied < log.base {
            shard.replica = log.master.clone();
        } else {
            for entry in &log.entries[(shard.applied - log.base) as usize..] {
                apply_entry(&mut shard.replica, entry);
            }
        }
        shard.applied = log.base + log.entries.len() as u64;
        // Process the batch in order: a will routed before a session was
        // cleared must see the pre-clear replica, and vice versa.
        for event in events.drain(..) {
            let entry = match event {
                BrokerEvent::Routed(p) => {
                    self.collect_forwards(idx, &shard.replica, p, forwards);
                    continue;
                }
                BrokerEvent::Subscribed {
                    client,
                    filter,
                    qos,
                } => LogEntry::Subscribe {
                    shard: idx,
                    client,
                    filter,
                    qos,
                },
                BrokerEvent::Unsubscribed { client, filter } => LogEntry::Unsubscribe {
                    shard: idx,
                    client,
                    filter,
                },
                BrokerEvent::SessionCleared { client } => {
                    LogEntry::RemoveClient { shard: idx, client }
                }
            };
            apply_entry(&mut shard.replica, &entry);
            apply_entry(&mut log.master, &entry);
            log.entries.push(entry);
            shard.applied += 1;
        }
        if log.entries.len() > LOG_COMPACT_CAP {
            log.base += log.entries.len() as u64;
            log.entries.clear();
        }
        self.log
            .epoch
            .store(log.base + log.entries.len() as u64, Ordering::Release);
    }

    /// Brings a shard's replica up to the current log epoch without
    /// appending anything.
    fn catch_up(&self, shard: &mut ShardInner<C>) {
        let log = self
            .log
            .inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if shard.applied < log.base {
            shard.replica = log.master.clone();
        } else {
            for entry in &log.entries[(shard.applied - log.base) as usize..] {
                apply_entry(&mut shard.replica, entry);
            }
        }
        shard.applied = log.base + log.entries.len() as u64;
    }

    /// Computes the remote shards a routed publish must reach. Retained
    /// publishes go to every other shard (the retained store is
    /// replicated); others go only to shards with a matching subscriber.
    fn collect_forwards(
        &self,
        origin: usize,
        replica: &SubscriptionTree<ReplicaKey>,
        publish: Publish,
        out: &mut Vec<(usize, Publish)>,
    ) {
        let n = self.shards.len();
        let mut fwd = publish;
        fwd.dup = false;
        fwd.packet_id = None;
        if fwd.retain {
            for shard in (0..n).filter(|&s| s != origin) {
                out.push((shard, fwd.clone()));
            }
            return;
        }
        // Matches come sorted by (shard, client), so taking each shard at
        // its first match yields the targets in shard order.
        let first = out.len();
        for sub in replica.matches_shared(&fwd.topic).iter() {
            let shard = sub.key.0;
            if shard != origin && !out[first..].iter().any(|(s, _)| *s == shard) {
                out.push((shard, fwd.clone()));
            }
        }
    }
}

impl<C: Ord + Clone> std::fmt::Debug for ShardedBroker<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedBroker")
            .field("shards", &self.shards.len())
            .field("epoch", &self.log.epoch.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Connect, LastWill, Subscribe, SubscribeFilter, Unsubscribe};
    use crate::topic::TopicName;

    fn topic(s: &str) -> TopicName {
        TopicName::new(s).expect("valid topic")
    }

    fn filter(s: &str) -> TopicFilter {
        TopicFilter::new(s).expect("valid filter")
    }

    /// First id of the form `{prefix}{i}` that hashes onto `target`.
    fn id_on_shard(prefix: &str, target: usize, shards: usize) -> String {
        (0..1000)
            .map(|i| format!("{prefix}{i}"))
            .find(|id| shard_of(id, shards) == target)
            .expect("some id lands on every shard")
    }

    fn two_shard() -> (ShardedBroker<u32>, String, String) {
        let sb = ShardedBroker::new(BrokerConfig {
            shards: 2,
            ..BrokerConfig::default()
        });
        let sub_id = id_on_shard("sub", 0, 2);
        let pub_id = id_on_shard("pub", 1, 2);
        (sb, sub_id, pub_id)
    }

    fn connect(sb: &ShardedBroker<u32>, conn: u32, id: &str) {
        sb.connection_opened(conn, 0);
        let out = sb.handle_packet(&conn, Packet::Connect(Connect::new(id)), 0);
        assert!(
            out.actions.iter().any(|a| matches!(
                a,
                Action::Send {
                    packet: Packet::Connack(_),
                    ..
                }
            )),
            "connect must be acknowledged: {:?}",
            out.actions
        );
    }

    fn subscribe(sb: &ShardedBroker<u32>, conn: u32, f: &str, qos: QoS) {
        let out = sb.handle_packet(
            &conn,
            Packet::Subscribe(Subscribe {
                packet_id: 7,
                filters: vec![SubscribeFilter {
                    filter: filter(f),
                    qos,
                }],
            }),
            0,
        );
        assert!(out.actions.iter().any(|a| matches!(
            a,
            Action::Send {
                packet: Packet::Suback(_),
                ..
            }
        )),);
    }

    fn sends_to(actions: &[Action<u32>], conn: u32) -> Vec<Packet> {
        actions
            .iter()
            .filter_map(|a| match a {
                Action::Send { conn: c, packet } if *c == conn => Some(packet.clone()),
                Action::SendFrame { conn: c, frame } if *c == conn => {
                    let (p, used) = crate::codec::decode(frame)
                        .expect("valid")
                        .expect("complete");
                    assert_eq!(used, frame.len());
                    Some(p)
                }
                _ => None,
            })
            .collect()
    }

    #[test]
    fn reused_connection_key_reconnects_instead_of_violating() {
        // Embeddings with stable peer names (the simulator) reuse the
        // same connection key across transport sessions: a reconnect is
        // connection_opened + CONNECT again, not a fresh key. The
        // second CONNECT must be a session (re)establishment, never a
        // "second CONNECT on a live connection" protocol close.
        let (sb, sub_id, pub_id) = two_shard();
        connect(&sb, 1, &sub_id);
        subscribe(&sb, 1, "s/#", QoS::AtMostOnce);
        connect(&sb, 2, &pub_id);

        // Transport drop + reconnect on the same key (same client id).
        connect(&sb, 1, &sub_id);
        subscribe(&sb, 1, "s/#", QoS::AtMostOnce);
        assert_eq!(sb.shard_of_conn(&1), Some(0), "stays on its home shard");

        // Cross-shard delivery still reaches the re-established session.
        let out = sb.handle_packet(
            &2,
            Packet::Publish(Publish::qos0(topic("s/a"), b"x".to_vec())),
            1,
        );
        let actions = sb.resolve(out, 1);
        assert_eq!(
            sends_to(&actions, 1).len(),
            1,
            "delivered once: {actions:?}"
        );
    }

    #[test]
    fn shard_hash_is_stable_and_in_range() {
        for shards in 1..8 {
            for i in 0..100 {
                let id = format!("client-{i}");
                let s = shard_of(&id, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(&id, shards), "deterministic");
            }
        }
        // Single shard degenerates to the classic broker.
        assert_eq!(shard_of("anything", 1), 0);
    }

    #[test]
    fn cross_shard_qos0_publish_is_forwarded_and_delivered() {
        let (sb, sub_id, pub_id) = two_shard();
        connect(&sb, 1, &sub_id);
        subscribe(&sb, 1, "s/#", QoS::AtMostOnce);
        connect(&sb, 2, &pub_id);
        assert_eq!(sb.shard_of_conn(&1), Some(0));
        assert_eq!(sb.shard_of_conn(&2), Some(1));

        let out = sb.handle_packet(
            &2,
            Packet::Publish(Publish::qos0(topic("s/a"), b"x".to_vec())),
            1,
        );
        // No subscriber on the publisher's shard: delivery happens
        // entirely through the forward.
        assert_eq!(out.forwards.len(), 1);
        assert_eq!(out.forwards[0].0, 0);
        let actions = sb.resolve(out, 1);
        let got = sends_to(&actions, 1);
        assert!(
            got.iter()
                .any(|p| matches!(p, Packet::Publish(p) if p.payload.as_ref() == b"x")),
            "forwarded publish must reach the remote subscriber: {got:?}"
        );
    }

    #[test]
    fn same_shard_publish_produces_no_forwards() {
        let shards = 2;
        let sb: ShardedBroker<u32> = ShardedBroker::new(BrokerConfig {
            shards,
            ..BrokerConfig::default()
        });
        let a = id_on_shard("a", 0, shards);
        let b = id_on_shard("b", 0, shards);
        connect(&sb, 1, &a);
        subscribe(&sb, 1, "s/#", QoS::AtMostOnce);
        connect(&sb, 2, &b);
        let out = sb.handle_packet(
            &2,
            Packet::Publish(Publish::qos0(topic("s/a"), b"x".to_vec())),
            1,
        );
        assert!(out.forwards.is_empty(), "local fan-out needs no forwards");
        assert!(!sends_to(&out.actions, 1).is_empty());
    }

    /// One shard is the classic broker: deliveries and retained state
    /// work as ever, and no event is captured for a log nobody reads.
    #[test]
    fn single_shard_routes_without_capturing_events() {
        let sb: ShardedBroker<u32> = ShardedBroker::new(BrokerConfig {
            shards: 1,
            ..BrokerConfig::default()
        });
        connect(&sb, 1, "sub");
        subscribe(&sb, 1, "s/#", QoS::AtMostOnce);
        connect(&sb, 2, "pub");
        let mut retained = Publish::qos0(topic("s/a"), b"x".to_vec());
        retained.retain = true;
        let out = sb.handle_packet(&2, Packet::Publish(retained), 1);
        assert!(out.forwards.is_empty());
        assert_eq!(sends_to(&out.actions, 1).len(), 1);
        assert!(sb.shards[0]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .broker
            .take_events()
            .is_empty());
        assert_eq!(sb.log.epoch.load(Ordering::Relaxed), 0);
        // A later subscriber still gets the retained message.
        connect(&sb, 3, "late");
        let out = sb.handle_packet(
            &3,
            Packet::Subscribe(Subscribe {
                packet_id: 9,
                filters: vec![SubscribeFilter {
                    filter: filter("s/#"),
                    qos: QoS::AtMostOnce,
                }],
            }),
            2,
        );
        assert!(sends_to(&out.actions, 3)
            .iter()
            .any(|p| matches!(p, Packet::Publish(p) if p.retain)));
    }

    #[test]
    fn publish_with_no_remote_match_is_not_forwarded() {
        let (sb, sub_id, pub_id) = two_shard();
        connect(&sb, 1, &sub_id);
        subscribe(&sb, 1, "other/#", QoS::AtMostOnce);
        connect(&sb, 2, &pub_id);
        let out = sb.handle_packet(
            &2,
            Packet::Publish(Publish::qos0(topic("s/a"), b"x".to_vec())),
            1,
        );
        assert!(out.forwards.is_empty());
    }

    #[test]
    fn retained_publish_replicates_to_every_shard() {
        let (sb, sub_id, pub_id) = two_shard();
        connect(&sb, 2, &pub_id);
        let mut p = Publish::qos0(topic("s/state"), b"42".to_vec());
        p.retain = true;
        let out = sb.handle_packet(&2, Packet::Publish(p), 1);
        // Retained ⇒ forwarded to all other shards even with no match.
        assert_eq!(out.forwards.len(), 1);
        let _ = sb.resolve(out, 1);

        // A later subscriber on the *other* shard sees the retained copy.
        connect(&sb, 1, &sub_id);
        let out = sb.handle_packet(
            &1,
            Packet::Subscribe(Subscribe {
                packet_id: 9,
                filters: vec![SubscribeFilter {
                    filter: filter("s/#"),
                    qos: QoS::AtMostOnce,
                }],
            }),
            2,
        );
        let got = sends_to(&out.actions, 1);
        assert!(
            got.iter().any(|p| matches!(
                p,
                Packet::Publish(p) if p.payload.as_ref() == b"42" && p.retain
            )),
            "replicated retained message must be delivered on subscribe: {got:?}"
        );
        assert_eq!(sb.stats().retained_count, 1, "replicated, not summed");
    }

    #[test]
    fn cross_shard_qos1_delivery_retransmits_on_target_shard() {
        let (sb, sub_id, pub_id) = two_shard();
        connect(&sb, 1, &sub_id);
        subscribe(&sb, 1, "s/a", QoS::AtLeastOnce);
        connect(&sb, 2, &pub_id);

        let out = sb.handle_packet(
            &2,
            Packet::Publish(Publish::qos1(topic("s/a"), b"m".to_vec(), 1)),
            0,
        );
        // Publisher handshake completes on the origin shard.
        assert!(sends_to(&out.actions, 2)
            .iter()
            .any(|p| matches!(p, Packet::Puback(1))),);
        let actions = sb.resolve(out, 0);
        let delivered: Vec<_> = sends_to(&actions, 1);
        let Some(Packet::Publish(first)) =
            delivered.iter().find(|p| matches!(p, Packet::Publish(_)))
        else {
            panic!("QoS1 forward must deliver: {delivered:?}");
        };
        let pid = first.packet_id.expect("qos1 delivery has pid");

        // Unacked ⇒ the *subscriber's* shard owns the retransmit timer.
        let timeout = BrokerConfig::default().retransmit_timeout_ns;
        assert_eq!(sb.next_deadline_ns(0), Some(timeout));
        let out = sb.poll_shard(0, timeout);
        assert!(
            sends_to(&out.actions, 1)
                .iter()
                .any(|p| matches!(p, Packet::Publish(p) if p.dup)),
            "retransmission fires on the target shard"
        );
        assert!(out.forwards.is_empty(), "retransmits never re-forward");

        // Acking on the subscriber's shard clears the deadline.
        let out = sb.handle_packet(&1, Packet::Puback(pid), timeout + 1);
        assert!(out.actions.is_empty() && out.forwards.is_empty());
    }

    #[test]
    fn will_publication_crosses_shards() {
        let (sb, sub_id, pub_id) = two_shard();
        connect(&sb, 1, &sub_id);
        subscribe(&sb, 1, "dead/#", QoS::AtMostOnce);

        sb.connection_opened(2, 0);
        let mut c = Connect::new(pub_id);
        c.will = Some(LastWill {
            topic: topic("dead/pub"),
            payload: b"gone".to_vec().into(),
            qos: QoS::AtMostOnce,
            retain: false,
        });
        sb.handle_packet(&2, Packet::Connect(c), 0);

        let out = sb.connection_lost(&2, 1);
        assert_eq!(out.forwards.len(), 1, "will must cross shards");
        let actions = sb.resolve(out, 1);
        assert!(sends_to(&actions, 1)
            .iter()
            .any(|p| matches!(p, Packet::Publish(p) if p.payload.as_ref() == b"gone")),);
    }

    #[test]
    fn first_packet_must_be_connect() {
        let sb: ShardedBroker<u32> = ShardedBroker::new(BrokerConfig::default());
        sb.connection_opened(9, 0);
        let out = sb.handle_packet(&9, Packet::Pingreq, 0);
        assert_eq!(out.actions, vec![Action::Close { conn: 9 }]);
        assert_eq!(sb.shard_of_conn(&9), None);
    }

    #[test]
    fn session_takeover_stays_on_one_shard() {
        let sb: ShardedBroker<u32> = ShardedBroker::new(BrokerConfig {
            shards: 4,
            ..BrokerConfig::default()
        });
        connect(&sb, 1, "dev");
        let home = sb.shard_of_conn(&1).expect("registered");
        sb.connection_opened(2, 1);
        let out = sb.handle_packet(&2, Packet::Connect(Connect::new("dev")), 1);
        assert!(
            out.actions
                .iter()
                .any(|a| matches!(a, Action::Close { conn: 1 })),
            "takeover closes the old connection"
        );
        assert_eq!(sb.shard_of_conn(&2), Some(home), "same id, same shard");
        // Stale transport close for the taken-over conn is a no-op.
        let out = sb.connection_lost(&1, 2);
        assert!(out.actions.is_empty() && out.forwards.is_empty());
        assert_eq!(sb.stats().clients_connected, 1);
    }

    #[test]
    fn unsubscribe_stops_cross_shard_forwarding() {
        let (sb, sub_id, pub_id) = two_shard();
        connect(&sb, 1, &sub_id);
        subscribe(&sb, 1, "s/#", QoS::AtMostOnce);
        connect(&sb, 2, &pub_id);

        let publish = |sb: &ShardedBroker<u32>, t: u64| {
            sb.handle_packet(
                &2,
                Packet::Publish(Publish::qos0(topic("s/a"), b"x".to_vec())),
                t,
            )
        };
        assert_eq!(publish(&sb, 1).forwards.len(), 1);

        sb.handle_packet(
            &1,
            Packet::Unsubscribe(Unsubscribe {
                packet_id: 3,
                filters: vec![filter("s/#")],
            }),
            2,
        );
        assert!(
            publish(&sb, 3).forwards.is_empty(),
            "the unsubscribe must reach the publisher's replica"
        );
    }

    #[test]
    fn lagging_shard_catches_up_across_log_compaction() {
        let (sb, sub_id, pub_id) = two_shard();
        connect(&sb, 1, &sub_id);
        connect(&sb, 2, &pub_id);
        // Churn far past the compaction cap, all on shard 0 — shard 1's
        // replica epoch falls behind the compacted base.
        for i in 0..(2 * LOG_COMPACT_CAP as u16) {
            sb.handle_packet(
                &1,
                Packet::Subscribe(Subscribe {
                    packet_id: i + 1,
                    filters: vec![SubscribeFilter {
                        filter: filter("churn/x"),
                        qos: QoS::AtMostOnce,
                    }],
                }),
                0,
            );
            sb.handle_packet(
                &1,
                Packet::Unsubscribe(Unsubscribe {
                    packet_id: i + 1,
                    filters: vec![filter("churn/x")],
                }),
                0,
            );
        }
        subscribe(&sb, 1, "s/#", QoS::AtMostOnce);
        // Shard 1 must recover via the master snapshot and still see the
        // live subscription (and not the churned-away one).
        let out = sb.handle_packet(
            &2,
            Packet::Publish(Publish::qos0(topic("s/a"), b"x".to_vec())),
            1,
        );
        assert_eq!(out.forwards.len(), 1);
        let out = sb.handle_packet(
            &2,
            Packet::Publish(Publish::qos0(topic("churn/x"), b"y".to_vec())),
            2,
        );
        assert!(out.forwards.is_empty());
    }

    #[test]
    fn stats_aggregate_across_shards() {
        let (sb, sub_id, pub_id) = two_shard();
        connect(&sb, 1, &sub_id);
        subscribe(&sb, 1, "s/#", QoS::AtMostOnce);
        connect(&sb, 2, &pub_id);
        let out = sb.handle_packet(
            &2,
            Packet::Publish(Publish::qos0(topic("s/a"), b"x".to_vec())),
            1,
        );
        let _ = sb.resolve(out, 1);
        let stats = sb.stats();
        assert_eq!(stats.clients_connected, 2);
        assert_eq!(stats.messages_in, 1, "counted only at the origin shard");
        assert_eq!(stats.messages_out, 1, "delivered exactly once");
        assert!(!sb.sys_stats_packets().is_empty());
    }

    #[test]
    fn subscribers_on_both_shards_each_get_one_copy() {
        let shards = 2;
        let sb: ShardedBroker<u32> = ShardedBroker::new(BrokerConfig {
            shards,
            ..BrokerConfig::default()
        });
        let local = id_on_shard("l", 1, shards);
        let remote = id_on_shard("r", 0, shards);
        let publisher = id_on_shard("p", 1, shards);
        connect(&sb, 1, &local);
        subscribe(&sb, 1, "s/#", QoS::AtMostOnce);
        connect(&sb, 2, &remote);
        subscribe(&sb, 2, "s/#", QoS::AtMostOnce);
        connect(&sb, 3, &publisher);
        let out = sb.handle_packet(
            &3,
            Packet::Publish(Publish::qos0(topic("s/a"), b"x".to_vec())),
            1,
        );
        let actions = sb.resolve(out, 1);
        assert_eq!(sends_to(&actions, 1).len(), 1);
        assert_eq!(sends_to(&actions, 2).len(), 1);
        assert_eq!(sb.stats().messages_out, 2);
    }
}
