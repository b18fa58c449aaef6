//! The MQTT broker — the IFoT *Broker class* substrate (Mosquitto
//! substitute).
//!
//! The broker is **sans-I/O**: it owns no sockets and no clock. A transport
//! (the netsim actor in the experiments, a thread loop in the real-time
//! runtime) feeds it decoded packets together with the current time in
//! nanoseconds, and executes the [`Action`]s it returns. This keeps the
//! protocol logic identical across the simulated and real deployments and
//! makes every path unit-testable.
//!
//! Supported semantics: clean and persistent sessions, QoS 0/1/2 routing
//! (including the full exactly-once PUBREC/PUBREL/PUBCOMP handshake on
//! both the inbound and outbound legs) with per-client in-flight tracking
//! and retransmission, retained messages, last-will publication on
//! ungraceful disconnect, keep-alive expiry, and offline queueing for
//! persistent sessions.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

use bytes::Bytes;

use crate::codec;
use crate::packet::{
    Connack, Connect, ConnectReturnCode, LastWill, Packet, PacketId, Publish, QoS, Suback,
    SubackCode, Subscribe, Unsubscribe,
};
use crate::shard::{Index, IndexKey};
use crate::topic::{TopicFilter, TopicName};
use crate::tree::Subscription;
use crate::wal::{
    self, DurablePublish, DurableState, MessageRef, RecoveryReport, Wal, WalBackend, WalConfig,
    WalRecord, WalStage, WalStats,
};

/// How many keep-alive periods a silent peer is given before it is
/// declared gone: MQTT 3.1.1 §3.1.2.10's one and a half. The broker
/// applies it to its clients, the client's supervisor to its broker.
pub(crate) const KEEP_ALIVE_FACTOR: f64 = 1.5;

/// Broker tuning knobs.
///
/// The first three fields configure the sans-I/O protocol state machine
/// itself; `shards` and `durability` are read by the sharded routing
/// layer ([`crate::shard::ShardedBroker`]), and the remaining fields by
/// it or the TCP front-end ([`crate::net::TcpBroker`]). Keeping them on
/// one struct means a deployment tunes the broker in one place.
#[derive(Debug, Clone, PartialEq)]
pub struct BrokerConfig {
    /// Resend an unacked QoS 1 publish after this many nanoseconds.
    pub retransmit_timeout_ns: u64,
    /// Maximum QoS 1 publishes in flight per client before queueing.
    pub max_inflight: usize,
    /// Maximum messages queued for an offline persistent session.
    pub max_offline_queue: usize,
    /// Number of routing shards a [`crate::shard::ShardedBroker`] (and so
    /// the TCP front-end) partitions sessions across (hash of client id).
    /// `1` reproduces the classic single-broker behaviour. The sans-I/O
    /// [`Broker`], a node's embedded broker, ignores this field.
    pub shards: usize,
    /// TCP write timeout in nanoseconds before a connection is declared a
    /// slow consumer and closed (protects a shard's writer loop from one
    /// stalled subscriber).
    pub write_timeout_ns: u64,
    /// Maximum concurrent TCP connections the front-end accepts; further
    /// connects are dropped at the listener (counted, never serviced) so
    /// a connection storm degrades into refusals instead of `EMFILE`
    /// inside the event loops. `0` means unlimited.
    pub max_connections: usize,
    /// Directory for write-ahead durability. When set, a
    /// [`crate::shard::ShardedBroker`] (and through it the TCP front-end)
    /// opens per-shard WAL + snapshot files under it and replays them on
    /// startup, so persistent sessions, subscriptions, retained messages
    /// and QoS 1/2 in-flight state survive restarts. The sans-I/O
    /// [`Broker`] ignores this field (like `shards`); attach a backend
    /// explicitly with [`Broker::open_durable`].
    pub durability: Option<PathBuf>,
    /// Install a durability snapshot (and truncate the log) after this
    /// many WAL records. `0` disables automatic snapshots. Ignored unless
    /// a WAL is attached.
    pub wal_snapshot_every: u64,
    /// fsync the WAL after every committed batch. Off by default (the OS
    /// page cache survives process crashes); turn it on when acknowledged
    /// broker state must also survive power loss, at a throughput cost.
    /// Ignored unless a WAL is attached.
    pub wal_fsync: bool,
}

impl BrokerConfig {
    /// Enables write-ahead durability rooted at `dir` (see
    /// [`BrokerConfig::durability`]).
    pub fn with_durability(mut self, dir: impl Into<PathBuf>) -> Self {
        self.durability = Some(dir.into());
        self
    }

    /// Sets per-batch WAL fsync (see [`BrokerConfig::wal_fsync`]).
    pub fn with_wal_fsync(mut self, fsync: bool) -> Self {
        self.wal_fsync = fsync;
        self
    }
}

impl Default for BrokerConfig {
    fn default() -> Self {
        BrokerConfig {
            retransmit_timeout_ns: 2_000_000_000,
            max_inflight: 32,
            max_offline_queue: 1_000,
            shards: 4,
            write_timeout_ns: 2_000_000_000,
            max_connections: 0,
            durability: None,
            wal_snapshot_every: 4096,
            wal_fsync: false,
        }
    }
}

/// An instruction from the broker to its transport.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action<C> {
    /// Encode and send `packet` to connection `conn`.
    Send {
        /// Target connection.
        conn: C,
        /// Packet to send.
        packet: Packet,
    },
    /// Send pre-encoded wire bytes to connection `conn`.
    ///
    /// Emitted on the QoS 0 fan-out path: the broker encodes the outgoing
    /// publish once per topic and shares the same reference-counted frame
    /// across every matching subscriber, so a transport writes the bytes
    /// as-is instead of re-encoding per connection.
    SendFrame {
        /// Target connection.
        conn: C,
        /// Complete wire frame, ready to write.
        frame: Bytes,
    },
    /// Close the connection (protocol error, keep-alive expiry, takeover).
    Close {
        /// Connection to close.
        conn: C,
    },
}

/// Broker-side stage of an outbound acknowledged delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(clippy::enum_variant_names)] // the MQTT packet names share the prefix
enum OutStage {
    /// QoS 1: awaiting PUBACK.
    AwaitPuback,
    /// QoS 2: awaiting PUBREC.
    AwaitPubrec,
    /// QoS 2: PUBREL sent, awaiting PUBCOMP.
    AwaitPubcomp,
}

#[derive(Debug)]
struct InflightMessage {
    publish: Publish,
    sent_at_ns: u64,
    stage: OutStage,
}

/// Per-client-id session state (survives reconnects when persistent).
#[derive(Debug, Default)]
struct Session {
    subscriptions: Vec<(TopicFilter, QoS)>,
    persistent: bool,
    next_pid: u16,
    inflight: BTreeMap<PacketId, InflightMessage>,
    /// Messages waiting because the client is offline (persistent
    /// sessions) or the in-flight window is full.
    queue: std::collections::VecDeque<Publish>,
    /// Packet ids of inbound QoS 2 publishes whose PUBREL is pending —
    /// duplicates of these must not be routed again (exactly once).
    incoming_qos2: std::collections::BTreeSet<PacketId>,
    dropped: u64,
}

impl Session {
    fn alloc_pid(&mut self) -> PacketId {
        // Packet ids are nonzero; wrap at u16::MAX.
        loop {
            self.next_pid = self.next_pid.wrapping_add(1);
            if self.next_pid != 0 && !self.inflight.contains_key(&self.next_pid) {
                return self.next_pid;
            }
        }
    }
}

#[derive(Debug)]
struct Connection<C> {
    conn: C,
    /// Shared, so looking up "whose connection is this" per packet bumps
    /// a reference count instead of copying the id.
    client_id: Option<Arc<str>>,
    keep_alive_ns: u64,
    last_activity_ns: u64,
    will: Option<LastWill>,
}

/// Statistics exposed by the broker (also published under `$SYS/…` when
/// [`Broker::sys_stats_packets`] is called).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BrokerStats {
    /// PUBLISH packets received from clients.
    pub messages_in: u64,
    /// PUBLISH packets sent to clients.
    pub messages_out: u64,
    /// Messages dropped (offline queue overflow).
    pub messages_dropped: u64,
    /// Currently connected clients.
    pub clients_connected: usize,
    /// Retained messages stored.
    pub retained_count: usize,
    /// QoS 1 retransmissions performed.
    pub retransmissions: u64,
}

/// The broker state machine. `C` identifies a transport connection
/// (e.g. a simulated node id, a socket handle, a thread channel index).
///
/// Subscriptions are stored in a subscription index keyed `(shard, client
/// id)` ([`crate::shard`]): a standalone broker owns a one-shard index,
/// and each shard of a set routes through the index the set shares.
///
/// ```
/// use ifot_mqtt::broker::{Action, Broker};
/// use ifot_mqtt::packet::{Connect, Packet, Publish, QoS, Subscribe, SubscribeFilter};
/// use ifot_mqtt::topic::{TopicFilter, TopicName};
///
/// let mut broker: Broker<u32> = Broker::new();
/// broker.connection_opened(1, 0);
/// let acks = broker.handle_packet(&1, Packet::Connect(Connect::new("sub")), 0);
/// assert_eq!(acks.len(), 1); // CONNACK
///
/// broker.connection_opened(2, 0);
/// broker.handle_packet(&2, Packet::Connect(Connect::new("pub")), 0);
///
/// broker.handle_packet(&1, Packet::Subscribe(Subscribe {
///     packet_id: 1,
///     filters: vec![SubscribeFilter { filter: TopicFilter::new("s/#")?, qos: QoS::AtMostOnce }],
/// }), 1);
///
/// let out = broker.handle_packet(&2, Packet::Publish(
///     Publish::qos0(TopicName::new("s/a")?, b"hi".to_vec())), 2);
/// // QoS 0 fan-out ships one shared, pre-encoded frame per subscriber.
/// let Action::SendFrame { conn: 1, frame } = &out[0] else { panic!("expected frame") };
/// let (packet, _) = ifot_mqtt::codec::decode(frame)?.expect("complete packet");
/// assert!(matches!(packet, Packet::Publish(p) if p.payload.as_ref() == b"hi"));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Broker<C> {
    config: BrokerConfig,
    connections: BTreeMap<C, Connection<C>>,
    /// client id -> live connection. A client id is one shared string
    /// from CONNECT on: the connection, these maps and every subscription
    /// in the index hold the same allocation.
    online: BTreeMap<Arc<str>, C>,
    sessions: BTreeMap<Arc<str>, Session>,
    /// The subscription store, read and written under `shard`: the index
    /// every shard of a set shares, or a one-shard index of its own.
    index: Arc<Index>,
    shard: usize,
    /// The index entries a route matched; empty between routes (kept for
    /// its capacity).
    matched: Vec<Subscription<IndexKey>>,
    /// `(target shard, publish)` for each publish routed here that other
    /// shards' subscribers must see; the shard layer takes them after
    /// every call. Always empty on a one-shard index.
    pub(crate) forwards: Vec<(usize, Publish)>,
    retained: BTreeMap<String, Publish>,
    stats: BrokerStats,
    /// Write-ahead log for durable state, if attached. Every mutation of
    /// persistent-session or retained state buffers a record; each
    /// top-level entry point commits the buffer as one atomic batch
    /// *before* returning its actions (see [`crate::wal`]).
    wal: Option<Wal>,
}

/// Buffer the one durable record `put` writes, if a WAL is attached.
/// Records are written from borrowed fields (the `wal::put_*` writers);
/// [`WalRecord`] is the form they are read back in.
///
/// A free function over the `wal` field (rather than a `&mut self` method)
/// so record sites that already hold a mutable borrow of another broker
/// field — almost all of them borrow a session — can still log.
fn wal_note(wal: &mut Option<Wal>, put: impl FnOnce(&mut Vec<u8>)) {
    if let Some(w) = wal.as_mut() {
        w.record_with(put);
    }
}

/// `p` as the record writers take a message.
fn message_of(p: &Publish) -> MessageRef<'_> {
    MessageRef {
        topic: p.topic.as_str(),
        qos: p.qos,
        retain: p.retain,
        payload: &p.payload,
    }
}

/// What the deliveries of `publish` at `qos` share (see [`Broker::route`]):
/// made for the first of one route call — and kept on the publish when
/// `qos` is its own — and cloned for the rest.
fn shared_delivery(made: &mut [Option<Bytes>; 3], publish: &mut Publish, qos: QoS) -> Bytes {
    made[qos as usize]
        .get_or_insert_with(|| {
            if qos == publish.qos {
                codec::carry_delivery(publish).clone()
            } else {
                codec::delivery_bytes(publish, qos)
            }
        })
        .clone()
}

/// The topics of [`Broker::sys_stats_packets`], in its order.
fn sys_topics() -> &'static [TopicName; 5] {
    static TOPICS: OnceLock<[TopicName; 5]> = OnceLock::new();
    TOPICS.get_or_init(|| {
        [
            "$SYS/broker/clients/connected",
            "$SYS/broker/messages/received",
            "$SYS/broker/messages/sent",
            "$SYS/broker/messages/dropped",
            "$SYS/broker/retained/count",
        ]
        .map(|name| TopicName::new(name).expect("static $SYS topics are valid"))
    })
}

fn durable_of(p: &Publish) -> DurablePublish {
    DurablePublish {
        topic: p.topic.as_str().to_owned(),
        qos: p.qos,
        retain: p.retain,
        payload: p.payload.clone(),
    }
}

fn publish_of(m: &DurablePublish, packet_id: Option<PacketId>) -> Option<Publish> {
    let topic = TopicName::new(&m.topic).ok()?;
    Some(Publish {
        qos: m.qos,
        retain: m.retain,
        packet_id,
        ..Publish::qos0(topic, m.payload.clone())
    })
}

fn stage_to_wal(stage: OutStage) -> WalStage {
    match stage {
        OutStage::AwaitPuback => WalStage::AwaitPuback,
        OutStage::AwaitPubrec => WalStage::AwaitPubrec,
        OutStage::AwaitPubcomp => WalStage::AwaitPubcomp,
    }
}

fn stage_from_wal(stage: WalStage) -> OutStage {
    match stage {
        WalStage::AwaitPuback => OutStage::AwaitPuback,
        WalStage::AwaitPubrec => OutStage::AwaitPubrec,
        WalStage::AwaitPubcomp => OutStage::AwaitPubcomp,
    }
}

impl<C: Ord + Clone> Default for Broker<C> {
    fn default() -> Self {
        Broker::with_config(BrokerConfig::default())
    }
}

impl<C: Ord + Clone> Broker<C> {
    /// Creates a broker with default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a broker with explicit configuration.
    pub fn with_config(config: BrokerConfig) -> Self {
        Self::on_shard(config, Index::new(1), 0)
    }

    /// Creates the broker of shard `shard` of the set that shares `index`.
    pub(crate) fn on_shard(config: BrokerConfig, index: Arc<Index>, shard: usize) -> Self {
        Broker {
            config,
            connections: BTreeMap::new(),
            online: BTreeMap::new(),
            sessions: BTreeMap::new(),
            index,
            shard,
            matched: Vec::new(),
            forwards: Vec::new(),
            retained: BTreeMap::new(),
            stats: BrokerStats::default(),
            wal: None,
        }
    }

    /// Opens a broker with write-ahead durability over `backend`: recovers
    /// whatever durable state the backend holds, rebuilds sessions /
    /// subscriptions / retained messages / QoS 1/2 in-flight windows from
    /// it, and attaches the log for further writes. Restored in-flight
    /// entries are marked due for immediate retransmission (dup set) as
    /// soon as their client reconnects.
    pub fn open_durable(
        config: BrokerConfig,
        backend: Box<dyn WalBackend>,
    ) -> io::Result<(Self, RecoveryReport)> {
        let wal_config = WalConfig {
            snapshot_every: config.wal_snapshot_every,
            fsync: config.wal_fsync,
        };
        let (wal, report) = Wal::open(backend, wal_config)?;
        let mut broker = Broker::with_config(config);
        broker.restore(&report.state);
        broker.wal = Some(wal);
        Ok((broker, report))
    }

    /// Attaches an already-positioned WAL writer. Prefer
    /// [`Broker::open_durable`]; this exists for embedders (the sharded
    /// layer) that recover and restore themselves.
    pub fn attach_wal(&mut self, wal: Wal) {
        self.wal = Some(wal);
    }

    /// WAL activity counters, if durability is attached.
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.wal.as_ref().map(Wal::stats)
    }

    /// Rebuilds broker state from recovered durable state. Intended to run
    /// on a fresh broker before any traffic; restored sessions are
    /// persistent by definition (transient state is never logged).
    pub fn restore(&mut self, state: &DurableState) {
        for (client, ds) in &state.sessions {
            let client: Arc<str> = Arc::from(client.as_str());
            let mut session = Session {
                persistent: true,
                next_pid: ds.next_pid,
                ..Session::default()
            };
            for (filter, qos) in &ds.subscriptions {
                let Ok(filter) = TopicFilter::new(filter.clone()) else {
                    continue;
                };
                self.index
                    .write()
                    .subscribe((self.shard, Arc::clone(&client)), &filter, *qos);
                session.subscriptions.retain(|(sf, _)| sf != &filter);
                session.subscriptions.push((filter, *qos));
            }
            for (pid, (message, stage)) in &ds.inflight {
                let Some(publish) = publish_of(message, Some(*pid)) else {
                    continue;
                };
                session.inflight.insert(
                    *pid,
                    InflightMessage {
                        publish,
                        // Zero send time: the first poll() after the client
                        // reconnects retransmits immediately with dup set.
                        sent_at_ns: 0,
                        stage: stage_from_wal(*stage),
                    },
                );
            }
            for message in &ds.queue {
                if let Some(publish) = publish_of(message, None) {
                    session.queue.push_back(publish);
                }
            }
            session.incoming_qos2 = ds.incoming_qos2.iter().copied().collect();
            self.sessions.insert(client, session);
        }
        for (topic, message) in &state.retained {
            if let Some(mut publish) = publish_of(message, None) {
                publish.retain = true;
                self.retained.insert(topic.clone(), publish);
            }
        }
    }

    /// Serialises the broker's durable state (persistent sessions and
    /// retained messages) as snapshot records: applying them to an empty
    /// [`DurableState`] reproduces exactly what [`Broker::restore`] needs.
    pub fn durable_records(&self) -> Vec<WalRecord> {
        let mut out = Vec::new();
        for (client, session) in &self.sessions {
            if !session.persistent {
                continue;
            }
            out.push(WalRecord::SessionStarted {
                client: client.to_string(),
                next_pid: session.next_pid,
            });
            for (filter, qos) in &session.subscriptions {
                out.push(WalRecord::Subscribed {
                    client: client.to_string(),
                    filter: filter.as_str().to_owned(),
                    qos: *qos,
                });
            }
            for pid in &session.incoming_qos2 {
                out.push(WalRecord::InQos2Insert {
                    client: client.to_string(),
                    pid: *pid,
                });
            }
            for (pid, inflight) in &session.inflight {
                out.push(WalRecord::InflightInsert {
                    client: client.to_string(),
                    pid: *pid,
                    stage: stage_to_wal(inflight.stage),
                    message: durable_of(&inflight.publish),
                });
            }
            for publish in &session.queue {
                out.push(WalRecord::Queued {
                    client: client.to_string(),
                    message: durable_of(publish),
                });
            }
        }
        for publish in self.retained.values() {
            out.push(WalRecord::RetainSet {
                message: durable_of(publish),
            });
        }
        out
    }

    /// Commits the records buffered during the current entry point as one
    /// atomic batch, then installs a snapshot if one is due. Called at the
    /// end of every top-level entry point, before actions are returned —
    /// the write happens *ahead* of the transport seeing the effects.
    fn wal_barrier(&mut self) {
        let due = match self.wal.as_mut() {
            Some(wal) => {
                wal.commit();
                wal.snapshot_due()
            }
            None => return,
        };
        if due {
            let records = self.durable_records();
            if let Some(wal) = self.wal.as_mut() {
                wal.install_snapshot(&records);
            }
        }
    }

    /// Current statistics snapshot.
    pub fn stats(&self) -> BrokerStats {
        let mut s = self.stats;
        s.clients_connected = self.online.len();
        s.retained_count = self.retained.len();
        s
    }

    /// Registers a fresh transport connection (pre-CONNECT).
    pub fn connection_opened(&mut self, conn: C, now_ns: u64) {
        self.connections.insert(
            conn.clone(),
            Connection {
                conn,
                client_id: None,
                keep_alive_ns: 0,
                last_activity_ns: now_ns,
                will: None,
            },
        );
    }

    // Every entry point below has two forms. The `_into` form appends its
    // actions to a list the caller owns (and reuses from call to call); the
    // by-value form is a wrapper that lends it a fresh one. Both commit the
    // WAL batch before they return.

    /// Handles a transport-level connection loss (no DISCONNECT seen):
    /// publishes the will, keeps persistent session state.
    pub fn connection_lost(&mut self, conn: &C, now_ns: u64) -> Vec<Action<C>> {
        let mut actions = Vec::new();
        self.connection_lost_into(conn, now_ns, &mut actions);
        actions
    }

    /// [`connection_lost`](Self::connection_lost), appending to `actions`.
    pub fn connection_lost_into(&mut self, conn: &C, now_ns: u64, actions: &mut Vec<Action<C>>) {
        self.teardown(conn, now_ns, true, actions);
        self.wal_barrier();
    }

    /// Feeds one decoded packet from `conn`; returns the actions to apply.
    pub fn handle_packet(&mut self, conn: &C, packet: Packet, now_ns: u64) -> Vec<Action<C>> {
        let mut actions = Vec::new();
        self.handle_packet_into(conn, packet, now_ns, &mut actions);
        actions
    }

    /// [`handle_packet`](Self::handle_packet), appending to `actions`.
    pub fn handle_packet_into(
        &mut self,
        conn: &C,
        packet: Packet,
        now_ns: u64,
        actions: &mut Vec<Action<C>>,
    ) {
        self.handle_packet_inner(conn, packet, now_ns, actions);
        self.wal_barrier();
    }

    fn handle_packet_inner(
        &mut self,
        conn: &C,
        packet: Packet,
        now_ns: u64,
        actions: &mut Vec<Action<C>>,
    ) {
        let Some(c) = self.connections.get_mut(conn) else {
            return;
        };
        c.last_activity_ns = now_ns;
        // MQTT 3.1.1 §3.1: a connection's first packet must be CONNECT.
        if c.client_id.is_none() && !matches!(packet, Packet::Connect(_)) {
            return self.protocol_error(conn, now_ns, actions);
        }
        match packet {
            Packet::Connect(c) => self.on_connect(conn, c, now_ns, actions),
            Packet::Publish(p) => self.on_publish(conn, p, now_ns, actions),
            Packet::Puback(pid) | Packet::Pubcomp(pid) => {
                self.on_delivery_complete(conn, pid, now_ns, actions);
            }
            Packet::Pubrec(pid) => self.on_pubrec(conn, pid, now_ns, actions),
            Packet::Pubrel(pid) => self.on_pubrel(conn, pid, actions),
            Packet::Subscribe(s) => self.on_subscribe(conn, s, now_ns, actions),
            Packet::Unsubscribe(u) => self.on_unsubscribe(conn, u, actions),
            Packet::Pingreq => actions.push(Action::Send {
                conn: conn.clone(),
                packet: Packet::Pingresp,
            }),
            Packet::Disconnect => {
                // Graceful: the will is discarded per spec.
                if let Some(c) = self.connections.get_mut(conn) {
                    c.will = None;
                }
                self.teardown(conn, now_ns, false, actions);
            }
            // Server-bound only; receiving broker-bound packets is a
            // protocol violation.
            Packet::Connack(_) | Packet::Suback(_) | Packet::Unsuback(_) | Packet::Pingresp => {
                self.protocol_error(conn, now_ns, actions);
            }
        }
    }

    /// Periodic maintenance: QoS 1 retransmission and keep-alive expiry.
    /// Call at least every few hundred milliseconds of transport time.
    pub fn poll(&mut self, now_ns: u64) -> Vec<Action<C>> {
        let mut actions = Vec::new();
        self.poll_into(now_ns, &mut actions);
        actions
    }

    /// [`poll`](Self::poll), appending to `actions`.
    pub fn poll_into(&mut self, now_ns: u64, actions: &mut Vec<Action<C>>) {
        // Keep-alive expiry (will is published — ungraceful).
        let expired: Vec<C> = self
            .connections
            .values()
            .filter(|c| {
                c.keep_alive_ns > 0
                    && now_ns.saturating_sub(c.last_activity_ns)
                        > (c.keep_alive_ns as f64 * KEEP_ALIVE_FACTOR) as u64
            })
            .map(|c| c.conn.clone())
            .collect();
        for conn in expired {
            self.teardown(&conn, now_ns, true, actions);
            actions.push(Action::Close { conn });
        }

        // Retransmissions for connected clients. `online` and `sessions`
        // are disjoint fields, so iterate by reference — no map clone.
        let timeout = self.config.retransmit_timeout_ns;
        for (client_id, conn) in self.online.iter() {
            let Some(session) = self.sessions.get_mut(client_id) else {
                continue;
            };
            for (pid, inflight) in session.inflight.iter_mut() {
                if now_ns.saturating_sub(inflight.sent_at_ns) >= timeout {
                    inflight.sent_at_ns = now_ns;
                    self.stats.retransmissions += 1;
                    let packet = match inflight.stage {
                        OutStage::AwaitPuback | OutStage::AwaitPubrec => {
                            let mut publish = inflight.publish.clone();
                            publish.dup = true;
                            publish.packet_id = Some(*pid);
                            self.stats.messages_out += 1;
                            Packet::Publish(publish)
                        }
                        OutStage::AwaitPubcomp => Packet::Pubrel(*pid),
                    };
                    actions.push(Action::Send {
                        conn: conn.clone(),
                        packet,
                    });
                }
            }
        }
        self.wal_barrier();
    }

    /// The earliest instant at which [`Broker::poll`] has work, if any.
    pub fn next_deadline_ns(&self) -> Option<u64> {
        let mut deadline: Option<u64> = None;
        let mut consider = |t: u64| {
            deadline = Some(match deadline {
                Some(d) if d <= t => d,
                _ => t,
            });
        };
        for c in self.connections.values() {
            if c.keep_alive_ns > 0 {
                consider(c.last_activity_ns + (c.keep_alive_ns as f64 * KEEP_ALIVE_FACTOR) as u64);
            }
        }
        for (client_id, _) in self.online.iter() {
            if let Some(s) = self.sessions.get(client_id) {
                for inflight in s.inflight.values() {
                    consider(inflight.sent_at_ns + self.config.retransmit_timeout_ns);
                }
            }
        }
        deadline
    }

    /// Publishes a message originating from the broker itself (e.g. the
    /// `$SYS` status topics), honouring retention and routing to matching
    /// subscribers exactly like an external publish.
    pub fn publish_internal(&mut self, publish: Publish, now_ns: u64) -> Vec<Action<C>> {
        let mut actions = Vec::new();
        self.publish_internal_into(publish, now_ns, &mut actions);
        actions
    }

    /// [`publish_internal`](Self::publish_internal), appending to
    /// `actions`.
    pub fn publish_internal_into(
        &mut self,
        publish: Publish,
        now_ns: u64,
        actions: &mut Vec<Action<C>>,
    ) {
        self.route(publish, now_ns, true, actions);
        self.wal_barrier();
    }

    /// Applies a publish another shard routed and forwarded here: stores
    /// it if retained and delivers it to this shard's subscribers only.
    /// Never forwards it again, so a forward cannot loop.
    pub(crate) fn apply_forward_into(
        &mut self,
        publish: Publish,
        now_ns: u64,
        actions: &mut Vec<Action<C>>,
    ) {
        self.route(publish, now_ns, false, actions);
        self.wal_barrier();
    }

    /// Stores (or clears, for empty payloads) the retained message for a
    /// topic, logging the mutation.
    fn store_retained(&mut self, publish: &Publish) {
        if publish.payload.is_empty() {
            if self.retained.remove(publish.topic.as_str()).is_some() {
                wal_note(&mut self.wal, |out| {
                    wal::put_retain_cleared(out, publish.topic.as_str());
                });
            }
        } else {
            let mut stored = publish.clone();
            stored.dup = false;
            stored.packet_id = None;
            // Delivered with retain set, never as the plain delivery.
            stored.delivery = None;
            wal_note(&mut self.wal, |out| {
                wal::put_retain_set(out, message_of(&stored));
            });
            self.retained
                .insert(publish.topic.as_str().to_owned(), stored);
        }
    }

    /// Builds `$SYS` status publications describing the broker load; the
    /// transport may feed them back through a loopback publish.
    pub fn sys_stats_packets(&self) -> Vec<Publish> {
        let mut out = Vec::new();
        self.sys_stats_packets_into(&mut out);
        out
    }

    /// [`sys_stats_packets`](Self::sys_stats_packets), appending to `out`:
    /// the topics are built once per process, and the five values are
    /// written as decimal text into one buffer the five payloads are views
    /// of, so a list with room costs that buffer only.
    pub fn sys_stats_packets_into(&self, out: &mut Vec<Publish>) {
        let stats = self.stats();
        let values = [
            stats.clients_connected as u64,
            stats.messages_in,
            stats.messages_out,
            stats.messages_dropped,
            stats.retained_count as u64,
        ];
        // A `u64` has at most 20 decimal digits.
        let mut text = [0u8; 5 * 20];
        let mut ends = [0; 5];
        let mut len = 0;
        for (end, value) in ends.iter_mut().zip(values) {
            let mut room = &mut text[len..];
            let before = room.len();
            write!(room, "{value}").expect("20 bytes hold a u64");
            len += before - room.len();
            *end = len;
        }
        let text = Bytes::copy_from_slice(&text[..len]);
        let mut start = 0;
        for (topic, end) in sys_topics().iter().zip(ends) {
            out.push(Publish::qos0(topic.clone(), text.slice(start..end)));
            start = end;
        }
    }

    fn protocol_error(&mut self, conn: &C, now_ns: u64, actions: &mut Vec<Action<C>>) {
        self.teardown(conn, now_ns, true, actions);
        actions.push(Action::Close { conn: conn.clone() });
    }

    fn on_connect(&mut self, conn: &C, c: Connect, now_ns: u64, actions: &mut Vec<Action<C>>) {
        if c.client_id.is_empty() && !c.clean_session {
            actions.push(Action::Send {
                conn: conn.clone(),
                packet: Packet::Connack(Connack {
                    session_present: false,
                    code: ConnectReturnCode::IdentifierRejected,
                }),
            });
            actions.push(Action::Close { conn: conn.clone() });
            return;
        }
        let client_id: Arc<str> = if c.client_id.is_empty() {
            // Auto-assign an id derived from the session count.
            format!("auto-{}", self.sessions.len()).into()
        } else {
            c.client_id.into()
        };

        // Session takeover: disconnect an existing connection of this id.
        if let Some(old_conn) = self.online.get(&*client_id).cloned() {
            if &old_conn != conn {
                self.teardown(&old_conn, now_ns, true, actions);
                actions.push(Action::Close { conn: old_conn });
            }
        }

        let session_present = if c.clean_session {
            if let Some(old) = self.clear_session(&client_id) {
                if old.persistent {
                    wal_note(&mut self.wal, |out| {
                        wal::put_session_cleared(out, &client_id);
                    });
                }
            }
            false
        } else {
            self.sessions.contains_key(&*client_id)
        };

        let session = self.sessions.entry(Arc::clone(&client_id)).or_default();
        session.persistent = !c.clean_session;
        if session.persistent {
            let next_pid = session.next_pid;
            wal_note(&mut self.wal, |out| {
                wal::put_session_started(out, &client_id, next_pid);
            });
        }

        if let Some(connection) = self.connections.get_mut(conn) {
            connection.client_id = Some(Arc::clone(&client_id));
            connection.keep_alive_ns = c.keep_alive_secs as u64 * 1_000_000_000;
            connection.last_activity_ns = now_ns;
            connection.will = c.will;
        }
        self.online.insert(Arc::clone(&client_id), conn.clone());

        actions.push(Action::Send {
            conn: conn.clone(),
            packet: Packet::Connack(Connack {
                session_present,
                code: ConnectReturnCode::Accepted,
            }),
        });

        // Flush messages queued while the persistent session was offline.
        self.flush_queue(&client_id, now_ns, actions);
    }

    fn client_of(&self, conn: &C) -> Option<Arc<str>> {
        self.connections.get(conn).and_then(|c| c.client_id.clone())
    }

    fn on_publish(
        &mut self,
        conn: &C,
        publish: Publish,
        now_ns: u64,
        actions: &mut Vec<Action<C>>,
    ) {
        let Some(client) = self.client_of(conn) else {
            return self.protocol_error(conn, now_ns, actions);
        };
        self.stats.messages_in += 1;

        match publish.qos {
            QoS::AtMostOnce => {}
            // QoS 1 from the publisher's perspective is complete once
            // the broker owns the message.
            QoS::AtLeastOnce => {
                actions.push(Action::Send {
                    conn: conn.clone(),
                    packet: Packet::Puback(publish.packet_id.expect("qos1 has pid")),
                });
            }
            QoS::ExactlyOnce => {
                let pid = publish.packet_id.expect("qos2 has pid");
                actions.push(Action::Send {
                    conn: conn.clone(),
                    packet: Packet::Pubrec(pid),
                });
                // Exactly once: duplicates of a pid whose PUBREL has not
                // arrived yet must not be routed again.
                let session = self.sessions.entry(Arc::clone(&client)).or_default();
                if !session.incoming_qos2.insert(pid) {
                    return;
                }
                if session.persistent {
                    wal_note(&mut self.wal, |out| {
                        wal::put_inqos2_insert(out, &client, pid);
                    });
                }
            }
        }

        self.route(publish, now_ns, true, actions);
    }

    /// Routes a publish: stores it first if it is retained (an empty
    /// retained payload clears the slot), then delivers it to every
    /// subscriber of this shard that the index matches and, when
    /// `forward` is set, queues it for every other shard that must see it
    /// ([`forward`](Self::forward)). The index is locked for the walk
    /// alone, once per route.
    ///
    /// Deliveries at one QoS differ at most in their packet id, so what
    /// they share is made once (see [`Publish`]) and carried by each:
    ///
    /// * a QoS 0 delivery is a whole frame, shared via
    ///   [`Action::SendFrame`] — the frame the publish arrived in when it
    ///   kept it (a QoS 0 publish then crosses the broker in the buffer it
    ///   came in, on every shard it is forwarded to), else one encoded here;
    /// * a QoS 1/2 delivery is an [`Action::Send`] of a publish whose
    ///   packet id [`deliver`](Self::deliver) assigns and which carries the
    ///   head of its frame, made here for the first such delivery; a
    ///   transport writes head, packet id and payload as they are
    ///   ([`codec::OutFrame`]).
    ///
    /// The bytes at the publish's own QoS stay on it, so the routed publish
    /// (and every cross-shard forward of it) takes them along; a delivery
    /// downgraded to a lower QoS is made per call.
    fn route(
        &mut self,
        mut publish: Publish,
        now_ns: u64,
        forward: bool,
        actions: &mut Vec<Action<C>>,
    ) {
        if publish.retain {
            self.store_retained(&publish);
        }
        let mut subs = std::mem::take(&mut self.matched);
        self.index.read().matches_into(&publish.topic, &mut subs);
        let shard = self.shard;
        let mut made: [Option<Bytes>; 3] = Default::default();
        for sub in subs.iter().filter(|sub| sub.key.0 == shard) {
            let client = &*sub.key.1;
            let effective_qos = publish.qos.min(sub.qos);
            if effective_qos == QoS::AtMostOnce {
                let Some(conn) = self.online.get(client) else {
                    continue; // QoS 0 is never queued for offline sessions.
                };
                if !self.sessions.contains_key(client) {
                    continue;
                }
                let frame = shared_delivery(&mut made, &mut publish, effective_qos);
                self.stats.messages_out += 1;
                actions.push(Action::SendFrame {
                    conn: conn.clone(),
                    frame,
                });
            } else {
                let head = shared_delivery(&mut made, &mut publish, effective_qos);
                let out = Publish {
                    dup: false,
                    qos: effective_qos,
                    retain: false,
                    topic: publish.topic.clone(),
                    packet_id: None,
                    payload: publish.payload.clone(),
                    delivery: Some(head),
                };
                self.deliver(client, out, now_ns, actions);
            }
        }
        if forward {
            self.forward(publish, &subs);
        }
        subs.clear();
        self.matched = subs;
    }

    /// Queues `publish` for each other shard that `matched` lists a
    /// subscriber on — or, if it is retained, for every other shard, since
    /// each shard keeps its own retained store — in shard order.
    ///
    /// A publish with a remote delivery at its own QoS leaves carrying
    /// the bytes such deliveries share (see [`Publish`]): made here if the
    /// local deliveries did not make them, so every target shares one set.
    fn forward(&mut self, mut publish: Publish, matched: &[Subscription<IndexKey>]) {
        let origin = self.shard;
        publish.dup = false;
        publish.packet_id = None;
        if matched
            .iter()
            .any(|sub| sub.key.0 != origin && sub.qos >= publish.qos)
        {
            codec::carry_delivery(&mut publish);
        }
        for shard in (0..self.index.shards()).filter(|&s| s != origin) {
            if publish.retain || matched.iter().any(|sub| sub.key.0 == shard) {
                self.forwards.push((shard, publish.clone()));
            }
        }
    }

    /// Delivers one message to one client, queueing when offline or when
    /// the in-flight window is full.
    fn deliver(
        &mut self,
        client_id: &str,
        mut publish: Publish,
        now_ns: u64,
        actions: &mut Vec<Action<C>>,
    ) {
        let conn = self.online.get(client_id).cloned();
        let Some(session) = self.sessions.get_mut(client_id) else {
            return;
        };
        match conn {
            Some(conn) => {
                if publish.qos != QoS::AtMostOnce {
                    if session.inflight.len() >= self.config.max_inflight {
                        if session.queue.len() >= self.config.max_offline_queue {
                            session.dropped += 1;
                            self.stats.messages_dropped += 1;
                            return;
                        }
                        if session.persistent {
                            wal_note(&mut self.wal, |out| {
                                wal::put_queued(out, client_id, message_of(&publish));
                            });
                        }
                        session.queue.push_back(publish);
                        return;
                    }
                    let pid = session.alloc_pid();
                    publish.packet_id = Some(pid);
                    let stage = if publish.qos == QoS::ExactlyOnce {
                        OutStage::AwaitPubrec
                    } else {
                        OutStage::AwaitPuback
                    };
                    if session.persistent {
                        wal_note(&mut self.wal, |out| {
                            wal::put_inflight_insert(
                                out,
                                client_id,
                                pid,
                                stage_to_wal(stage),
                                message_of(&publish),
                            );
                        });
                    }
                    session.inflight.insert(
                        pid,
                        InflightMessage {
                            publish: publish.clone(),
                            sent_at_ns: now_ns,
                            stage,
                        },
                    );
                }
                self.stats.messages_out += 1;
                actions.push(Action::Send {
                    conn,
                    packet: Packet::Publish(publish),
                });
            }
            None => {
                if session.persistent && publish.qos != QoS::AtMostOnce {
                    if session.queue.len() >= self.config.max_offline_queue {
                        session.dropped += 1;
                        self.stats.messages_dropped += 1;
                    } else {
                        wal_note(&mut self.wal, |out| {
                            wal::put_queued(out, client_id, message_of(&publish));
                        });
                        session.queue.push_back(publish);
                    }
                }
            }
        }
    }

    fn flush_queue(&mut self, client_id: &str, now_ns: u64, actions: &mut Vec<Action<C>>) {
        while let Some(session) = self.sessions.get_mut(client_id) {
            if session.inflight.len() >= self.config.max_inflight {
                break;
            }
            let Some(next) = session.queue.pop_front() else {
                break;
            };
            if session.persistent {
                wal_note(&mut self.wal, |out| wal::put_queue_popped(out, client_id));
            }
            self.deliver(client_id, next, now_ns, actions);
        }
    }

    /// The subscriber completed an outbound delivery (PUBACK, or PUBCOMP
    /// for QoS 2): the window slot is free, so queued messages move out.
    fn on_delivery_complete(
        &mut self,
        conn: &C,
        pid: PacketId,
        now_ns: u64,
        actions: &mut Vec<Action<C>>,
    ) {
        let Some(client_id) = self.client_of(conn) else {
            return;
        };
        if let Some(session) = self.sessions.get_mut(&*client_id) {
            if session.inflight.remove(&pid).is_some() && session.persistent {
                wal_note(&mut self.wal, |out| {
                    wal::put_inflight_remove(out, &client_id, pid);
                });
            }
        }
        self.flush_queue(&client_id, now_ns, actions);
    }

    /// Subscriber acknowledged a QoS 2 delivery: release it with PUBREL.
    fn on_pubrec(&mut self, conn: &C, pid: PacketId, now_ns: u64, actions: &mut Vec<Action<C>>) {
        let Some(client_id) = self.client_of(conn) else {
            return;
        };
        if let Some(session) = self.sessions.get_mut(&*client_id) {
            let persistent = session.persistent;
            if let Some(inflight) = session.inflight.get_mut(&pid) {
                inflight.stage = OutStage::AwaitPubcomp;
                inflight.sent_at_ns = now_ns;
                if persistent {
                    wal_note(&mut self.wal, |out| {
                        wal::put_inflight_stage(out, &client_id, pid, WalStage::AwaitPubcomp);
                    });
                }
                actions.push(Action::Send {
                    conn: conn.clone(),
                    packet: Packet::Pubrel(pid),
                });
            }
        }
    }

    /// Publisher released an inbound QoS 2 message: close the window.
    fn on_pubrel(&mut self, conn: &C, pid: PacketId, actions: &mut Vec<Action<C>>) {
        if let Some(client_id) = self.client_of(conn) {
            if let Some(session) = self.sessions.get_mut(&*client_id) {
                if session.incoming_qos2.remove(&pid) && session.persistent {
                    wal_note(&mut self.wal, |out| {
                        wal::put_inqos2_remove(out, &client_id, pid);
                    });
                }
            }
        }
        actions.push(Action::Send {
            conn: conn.clone(),
            packet: Packet::Pubcomp(pid),
        });
    }

    fn on_subscribe(
        &mut self,
        conn: &C,
        sub: Subscribe,
        now_ns: u64,
        actions: &mut Vec<Action<C>>,
    ) {
        let Some(client_id) = self.client_of(conn) else {
            return self.protocol_error(conn, now_ns, actions);
        };
        let mut codes = Vec::with_capacity(sub.filters.len());
        let mut retained_out: Vec<Publish> = Vec::new();
        for f in &sub.filters {
            let granted = f.qos;
            // In the index before the SUBACK is queued: a publish on any
            // shard after it is acknowledged reaches it.
            self.index
                .write()
                .subscribe((self.shard, Arc::clone(&client_id)), &f.filter, granted);
            let session = self.sessions.entry(Arc::clone(&client_id)).or_default();
            session.subscriptions.retain(|(sf, _)| sf != &f.filter);
            session.subscriptions.push((f.filter.clone(), granted));
            if session.persistent {
                wal_note(&mut self.wal, |out| {
                    wal::put_subscribed(out, &client_id, f.filter.as_str(), granted);
                });
            }
            codes.push(SubackCode::Granted(granted));

            for (topic, retained) in &self.retained {
                let name = TopicName::new(topic).expect("retained topics are valid");
                if f.filter.matches(&name) {
                    let mut out = retained.clone();
                    out.retain = true;
                    out.qos = retained.qos.min(granted);
                    retained_out.push(out);
                }
            }
        }
        actions.push(Action::Send {
            conn: conn.clone(),
            packet: Packet::Suback(Suback {
                packet_id: sub.packet_id,
                codes,
            }),
        });
        for out in retained_out {
            self.deliver(&client_id, out, now_ns, actions);
        }
    }

    fn on_unsubscribe(&mut self, conn: &C, unsub: Unsubscribe, actions: &mut Vec<Action<C>>) {
        let Some(client_id) = self.client_of(conn) else {
            return;
        };
        for f in &unsub.filters {
            self.index
                .write()
                .unsubscribe(&(self.shard, Arc::clone(&client_id)), f);
            if let Some(session) = self.sessions.get_mut(&*client_id) {
                session.subscriptions.retain(|(sf, _)| sf != f);
                if session.persistent {
                    wal_note(&mut self.wal, |out| {
                        wal::put_unsubscribed(out, &client_id, f.as_str());
                    });
                }
            }
        }
        actions.push(Action::Send {
            conn: conn.clone(),
            packet: Packet::Unsuback(unsub.packet_id),
        });
    }

    /// Drops the session of `client_id` and takes its subscriptions out of
    /// the index, filter by filter: the session lists every one it holds.
    fn clear_session(&mut self, client_id: &Arc<str>) -> Option<Session> {
        let session = self.sessions.remove(client_id)?;
        if !session.subscriptions.is_empty() {
            let key = (self.shard, Arc::clone(client_id));
            let mut index = self.index.write();
            for (filter, _) in &session.subscriptions {
                index.unsubscribe(&key, filter);
            }
        }
        Some(session)
    }

    /// Removes the connection; `publish_will` selects ungraceful semantics.
    fn teardown(
        &mut self,
        conn: &C,
        now_ns: u64,
        publish_will: bool,
        actions: &mut Vec<Action<C>>,
    ) {
        let Some(connection) = self.connections.remove(conn) else {
            return;
        };
        if let Some(client_id) = connection.client_id {
            if self.online.get(&*client_id) == Some(conn) {
                self.online.remove(&*client_id);
            }
            let persistent = self
                .sessions
                .get(&*client_id)
                .map(|s| s.persistent)
                .unwrap_or(false);
            if !persistent {
                // Transient sessions were never logged, so there is no
                // durable record to clear here.
                self.clear_session(&client_id);
            }
            if publish_will {
                if let Some(will) = connection.will {
                    let publish = Publish {
                        qos: will.qos,
                        retain: will.retain,
                        ..Publish::qos0(will.topic, will.payload)
                    };
                    self.route(publish, now_ns, true, actions);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::SubscribeFilter;

    fn topic(s: &str) -> TopicName {
        TopicName::new(s).expect("valid topic")
    }

    fn filter(s: &str) -> TopicFilter {
        TopicFilter::new(s).expect("valid filter")
    }

    /// The hot paths log a message borrowed from the `Publish` they hold;
    /// snapshots and replay log the owned `DurablePublish`. One encoding.
    #[test]
    fn a_borrowed_message_logs_the_bytes_of_its_owned_form() {
        let mut retained = Publish::qos0(topic("sensor/温/1"), Vec::new());
        retained.retain = true;
        let mut large = Publish::qos1(topic("t"), vec![0xA5; 64 * 1024], 9);
        large.qos = QoS::ExactlyOnce;
        for p in [
            retained,
            Publish::qos1(topic("a/b"), b"xyz".to_vec(), 7),
            large,
        ] {
            let mut borrowed = Vec::new();
            wal::put_retain_set(&mut borrowed, message_of(&p));
            wal::put_queued(&mut borrowed, "sub-ç", message_of(&p));
            wal::put_inflight_insert(
                &mut borrowed,
                "",
                65_535,
                WalStage::AwaitPubrec,
                message_of(&p),
            );
            let mut owned = Vec::new();
            for rec in [
                WalRecord::RetainSet {
                    message: durable_of(&p),
                },
                WalRecord::Queued {
                    client: "sub-ç".into(),
                    message: durable_of(&p),
                },
                WalRecord::InflightInsert {
                    client: String::new(),
                    pid: 65_535,
                    stage: WalStage::AwaitPubrec,
                    message: durable_of(&p),
                },
            ] {
                wal::encode_record(&mut owned, &rec);
            }
            assert!(borrowed == owned, "{:?}", p.topic);
        }
    }

    impl<C: Ord + Clone> Broker<C> {
        /// The `(client, filter)` pairs this broker's sessions hold.
        pub(crate) fn session_subscriptions(&self) -> usize {
            self.sessions.values().map(|s| s.subscriptions.len()).sum()
        }

        /// Entries in the index this broker routes through, every
        /// shard's.
        pub(crate) fn index_len(&self) -> usize {
            self.index.read().len()
        }
    }

    fn connect(broker: &mut Broker<u32>, conn: u32, id: &str) {
        broker.connection_opened(conn, 0);
        let out = broker.handle_packet(&conn, Packet::Connect(Connect::new(id)), 0);
        assert!(matches!(
            out[0],
            Action::Send {
                packet: Packet::Connack(Connack {
                    code: ConnectReturnCode::Accepted,
                    ..
                }),
                ..
            }
        ));
    }

    fn subscribe(broker: &mut Broker<u32>, conn: u32, f: &str, qos: QoS) {
        let out = broker.handle_packet(
            &conn,
            Packet::Subscribe(Subscribe {
                packet_id: 1,
                filters: vec![SubscribeFilter {
                    filter: filter(f),
                    qos,
                }],
            }),
            0,
        );
        assert!(matches!(
            out[0],
            Action::Send {
                packet: Packet::Suback(_),
                ..
            }
        ));
    }

    /// Packets sent to `conn`, decoding pre-encoded fan-out frames so
    /// tests assert on packet semantics regardless of the action kind.
    fn sends_to(actions: &[Action<u32>], conn: u32) -> Vec<Packet> {
        actions
            .iter()
            .filter_map(|a| match a {
                Action::Send { conn: c, packet } if *c == conn => Some(packet.clone()),
                Action::SendFrame { conn: c, frame } if *c == conn => {
                    let (packet, used) = crate::codec::decode(frame)
                        .expect("frame decodes")
                        .expect("frame is complete");
                    assert_eq!(used, frame.len(), "frame holds exactly one packet");
                    Some(packet)
                }
                _ => None,
            })
            .collect()
    }

    #[test]
    fn qos0_publish_reaches_subscriber() {
        let mut b: Broker<u32> = Broker::new();
        connect(&mut b, 1, "sub");
        connect(&mut b, 2, "pub");
        subscribe(&mut b, 1, "s/#", QoS::AtMostOnce);
        let out = b.handle_packet(
            &2,
            Packet::Publish(Publish::qos0(topic("s/a"), b"x".to_vec())),
            1,
        );
        let to_sub = sends_to(&out, 1);
        assert_eq!(to_sub.len(), 1);
        match &to_sub[0] {
            Packet::Publish(p) => {
                assert_eq!(p.payload.as_ref(), b"x");
                assert_eq!(p.qos, QoS::AtMostOnce);
            }
            other => panic!("expected publish, got {other:?}"),
        }
    }

    #[test]
    fn qos0_fanout_shares_one_encoded_frame() {
        let mut b: Broker<u32> = Broker::new();
        connect(&mut b, 9, "pub");
        for i in 1..=3u32 {
            connect(&mut b, i, &format!("sub{i}"));
            subscribe(&mut b, i, "s/#", QoS::AtMostOnce);
        }
        let out = b.handle_packet(
            &9,
            Packet::Publish(Publish::qos0(topic("s/a"), b"x".to_vec())),
            1,
        );
        let frames: Vec<&Bytes> = out
            .iter()
            .filter_map(|a| match a {
                Action::SendFrame { frame, .. } => Some(frame),
                _ => None,
            })
            .collect();
        assert_eq!(frames.len(), 3);
        // One encode for the whole fan-out: every frame is a refcounted
        // view of the same allocation, not an equal copy.
        assert!(frames.iter().all(|f| f.as_ptr() == frames[0].as_ptr()));
    }

    /// The queued form of every publish delivery in `actions`, with the
    /// bytes `encode` makes of it.
    fn queued_deliveries(actions: &[Action<u32>]) -> Vec<(codec::OutFrame, Bytes)> {
        actions
            .iter()
            .filter_map(|a| match a {
                Action::Send {
                    packet: packet @ Packet::Publish(_),
                    ..
                } => Some((codec::OutFrame::from(packet.clone()), codec::encode(packet))),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn acknowledged_deliveries_share_one_head_per_qos() {
        let mut b: Broker<u32> = Broker::new();
        connect(&mut b, 9, "pub");
        // Two at QoS 1, two at QoS 2: a QoS 2 publish reaches them at both.
        for (i, qos) in [QoS::AtLeastOnce, QoS::ExactlyOnce]
            .repeat(2)
            .into_iter()
            .enumerate()
        {
            let conn = i as u32 + 1;
            connect(&mut b, conn, &format!("sub{conn}"));
            subscribe(&mut b, conn, "s/#", qos);
        }
        let mut publish = Publish::qos1(topic("s/a"), vec![7; 40], 5);
        publish.qos = QoS::ExactlyOnce;
        let out = b.handle_packet(&9, Packet::Publish(publish), 1);
        let queued = queued_deliveries(&out);
        assert_eq!(queued.len(), 4);
        let mut heads: Vec<*const u8> = Vec::new();
        for (frame, encoded) in &queued {
            let codec::OutFrame::Split { head, .. } = frame else {
                panic!("a first transmission is split: {frame:?}");
            };
            assert_eq!(
                frame.parts().concat(),
                encoded.to_vec(),
                "the encoded bytes"
            );
            if !heads.contains(&head.as_ptr()) {
                heads.push(head.as_ptr());
            }
        }
        assert_eq!(heads.len(), 2, "one head per granted QoS");

        // Unacknowledged, each is sent again with dup set: encoded whole.
        let timeout = BrokerConfig::default().retransmit_timeout_ns;
        let again = b.poll(1 + timeout);
        let queued = queued_deliveries(&again);
        assert_eq!(queued.len(), 4);
        for (frame, encoded) in &queued {
            assert!(matches!(frame, codec::OutFrame::Whole(f) if f == encoded));
            assert_eq!(encoded[0] & 0b1000, 0b1000, "dup");
        }
    }

    #[test]
    fn qos1_publish_is_acked_and_tracked() {
        let mut b: Broker<u32> = Broker::new();
        connect(&mut b, 1, "sub");
        connect(&mut b, 2, "pub");
        subscribe(&mut b, 1, "s/a", QoS::AtLeastOnce);
        let out = b.handle_packet(
            &2,
            Packet::Publish(Publish::qos1(topic("s/a"), b"x".to_vec(), 9)),
            1,
        );
        // Publisher gets PUBACK(9).
        assert!(sends_to(&out, 2)
            .iter()
            .any(|p| matches!(p, Packet::Puback(9))));
        // Subscriber gets a QoS1 publish with a broker-assigned pid.
        let pid = match &sends_to(&out, 1)[0] {
            Packet::Publish(p) => {
                assert_eq!(p.qos, QoS::AtLeastOnce);
                p.packet_id.expect("broker assigns pid")
            }
            other => panic!("expected publish, got {other:?}"),
        };
        // Unacked: retransmitted after timeout with dup set.
        let re = b.poll(3_000_000_000);
        let re_pub = sends_to(&re, 1);
        assert_eq!(re_pub.len(), 1);
        assert!(matches!(&re_pub[0], Packet::Publish(p) if p.dup && p.packet_id == Some(pid)));
        // Acked: no more retransmissions.
        b.handle_packet(&1, Packet::Puback(pid), 4_000_000_000);
        assert!(b.poll(10_000_000_000).is_empty());
    }

    #[test]
    fn subscriber_qos_caps_effective_qos() {
        let mut b: Broker<u32> = Broker::new();
        connect(&mut b, 1, "sub");
        connect(&mut b, 2, "pub");
        subscribe(&mut b, 1, "s/a", QoS::AtMostOnce);
        let out = b.handle_packet(
            &2,
            Packet::Publish(Publish::qos1(topic("s/a"), b"x".to_vec(), 3)),
            1,
        );
        match &sends_to(&out, 1)[0] {
            Packet::Publish(p) => assert_eq!(p.qos, QoS::AtMostOnce),
            other => panic!("expected publish, got {other:?}"),
        }
    }

    #[test]
    fn retained_message_delivered_on_subscribe() {
        let mut b: Broker<u32> = Broker::new();
        connect(&mut b, 2, "pub");
        let mut p = Publish::qos0(topic("conf/x"), b"v1".to_vec());
        p.retain = true;
        b.handle_packet(&2, Packet::Publish(p), 0);

        connect(&mut b, 1, "late-sub");
        let out = b.handle_packet(
            &1,
            Packet::Subscribe(Subscribe {
                packet_id: 1,
                filters: vec![SubscribeFilter {
                    filter: filter("conf/#"),
                    qos: QoS::AtMostOnce,
                }],
            }),
            1,
        );
        let pubs: Vec<_> = sends_to(&out, 1)
            .into_iter()
            .filter(|p| matches!(p, Packet::Publish(_)))
            .collect();
        assert_eq!(pubs.len(), 1);
        assert!(matches!(&pubs[0], Packet::Publish(p) if p.retain && p.payload.as_ref() == b"v1"));
    }

    #[test]
    fn empty_retained_payload_clears_slot() {
        let mut b: Broker<u32> = Broker::new();
        connect(&mut b, 2, "pub");
        let mut p = Publish::qos0(topic("conf/x"), b"v1".to_vec());
        p.retain = true;
        b.handle_packet(&2, Packet::Publish(p), 0);
        let mut clear = Publish::qos0(topic("conf/x"), Bytes::new());
        clear.retain = true;
        b.handle_packet(&2, Packet::Publish(clear), 1);
        assert_eq!(b.stats().retained_count, 0);
    }

    #[test]
    fn will_published_on_ungraceful_close_only() {
        let mut b: Broker<u32> = Broker::new();
        connect(&mut b, 1, "watcher");
        subscribe(&mut b, 1, "status/#", QoS::AtMostOnce);

        // Client with a will, lost ungracefully.
        b.connection_opened(2, 0);
        let mut c = Connect::new("dev");
        c.will = Some(LastWill {
            topic: topic("status/dev"),
            payload: Bytes::from_static(b"offline"),
            qos: QoS::AtMostOnce,
            retain: false,
        });
        b.handle_packet(&2, Packet::Connect(c.clone()), 0);
        let out = b.connection_lost(&2, 1);
        assert!(sends_to(&out, 1)
            .iter()
            .any(|p| matches!(p, Packet::Publish(p) if p.payload.as_ref() == b"offline")));

        // Same client, graceful DISCONNECT: no will.
        b.connection_opened(3, 2);
        b.handle_packet(&3, Packet::Connect(c), 2);
        let out = b.handle_packet(&3, Packet::Disconnect, 3);
        assert!(sends_to(&out, 1).is_empty());
    }

    #[test]
    fn keep_alive_expiry_closes_connection() {
        let mut b: Broker<u32> = Broker::new();
        b.connection_opened(1, 0);
        let mut c = Connect::new("dev");
        c.keep_alive_secs = 1;
        b.handle_packet(&1, Packet::Connect(c), 0);
        // Within 1.5x keep-alive: nothing.
        assert!(b.poll(1_400_000_000).is_empty());
        // Beyond: closed.
        let out = b.poll(1_600_000_000);
        assert!(out.iter().any(|a| matches!(a, Action::Close { conn: 1 })));
        assert_eq!(b.stats().clients_connected, 0);
    }

    #[test]
    fn pingreq_refreshes_keep_alive() {
        let mut b: Broker<u32> = Broker::new();
        b.connection_opened(1, 0);
        let mut c = Connect::new("dev");
        c.keep_alive_secs = 1;
        b.handle_packet(&1, Packet::Connect(c), 0);
        let out = b.handle_packet(&1, Packet::Pingreq, 1_200_000_000);
        assert!(matches!(
            out[0],
            Action::Send {
                packet: Packet::Pingresp,
                ..
            }
        ));
        // Activity refreshed: still alive at 2.0 s.
        assert!(b.poll(2_000_000_000).is_empty());
    }

    #[test]
    fn persistent_session_queues_while_offline() {
        let mut b: Broker<u32> = Broker::new();
        // Durable subscriber.
        b.connection_opened(1, 0);
        let mut c = Connect::new("durable");
        c.clean_session = false;
        b.handle_packet(&1, Packet::Connect(c.clone()), 0);
        subscribe(&mut b, 1, "s/a", QoS::AtLeastOnce);
        b.handle_packet(&1, Packet::Disconnect, 1);

        // Publisher sends while the subscriber is away.
        connect(&mut b, 2, "pub");
        let out = b.handle_packet(
            &2,
            Packet::Publish(Publish::qos1(topic("s/a"), b"missed".to_vec(), 5)),
            2,
        );
        assert!(sends_to(&out, 1).is_empty());

        // Subscriber returns with clean_session=false: message flushed.
        b.connection_opened(3, 3);
        let out = b.handle_packet(&3, Packet::Connect(c), 3);
        assert!(matches!(
            out[0],
            Action::Send {
                packet: Packet::Connack(Connack {
                    session_present: true,
                    ..
                }),
                ..
            }
        ));
        assert!(sends_to(&out, 3)
            .iter()
            .any(|p| matches!(p, Packet::Publish(p) if p.payload.as_ref() == b"missed")));
    }

    #[test]
    fn clean_session_discards_state() {
        let mut b: Broker<u32> = Broker::new();
        let mut c = Connect::new("cs");
        c.clean_session = false;
        b.connection_opened(1, 0);
        b.handle_packet(&1, Packet::Connect(c), 0);
        subscribe(&mut b, 1, "s/a", QoS::AtLeastOnce);
        b.handle_packet(&1, Packet::Disconnect, 1);

        // Reconnect with clean_session=true: subscription gone.
        b.connection_opened(2, 2);
        let out = b.handle_packet(&2, Packet::Connect(Connect::new("cs")), 2);
        assert!(matches!(
            out[0],
            Action::Send {
                packet: Packet::Connack(Connack {
                    session_present: false,
                    ..
                }),
                ..
            }
        ));
        connect(&mut b, 3, "pub");
        let out = b.handle_packet(
            &3,
            Packet::Publish(Publish::qos0(topic("s/a"), b"x".to_vec())),
            3,
        );
        assert!(sends_to(&out, 2).is_empty());
    }

    #[test]
    fn session_takeover_closes_old_connection() {
        let mut b: Broker<u32> = Broker::new();
        connect(&mut b, 1, "dup");
        b.connection_opened(2, 1);
        let out = b.handle_packet(&2, Packet::Connect(Connect::new("dup")), 1);
        assert!(out.iter().any(|a| matches!(a, Action::Close { conn: 1 })));
        assert_eq!(b.stats().clients_connected, 1);
    }

    #[test]
    fn any_first_packet_but_connect_is_a_protocol_error() {
        for first in [
            Packet::Publish(Publish::qos0(topic("a"), Bytes::new())),
            Packet::Pingreq,
            Packet::Puback(1),
        ] {
            let mut b: Broker<u32> = Broker::new();
            b.connection_opened(1, 0);
            let out = b.handle_packet(&1, first, 0);
            assert_eq!(out, vec![Action::Close { conn: 1 }]);
        }
    }

    #[test]
    fn unsubscribe_stops_delivery() {
        let mut b: Broker<u32> = Broker::new();
        connect(&mut b, 1, "sub");
        connect(&mut b, 2, "pub");
        subscribe(&mut b, 1, "s/a", QoS::AtMostOnce);
        let out = b.handle_packet(
            &1,
            Packet::Unsubscribe(Unsubscribe {
                packet_id: 2,
                filters: vec![filter("s/a")],
            }),
            1,
        );
        assert!(matches!(
            out[0],
            Action::Send {
                packet: Packet::Unsuback(2),
                ..
            }
        ));
        let out = b.handle_packet(
            &2,
            Packet::Publish(Publish::qos0(topic("s/a"), b"x".to_vec())),
            2,
        );
        assert!(sends_to(&out, 1).is_empty());
    }

    #[test]
    fn inflight_window_limits_and_flushes() {
        let mut b: Broker<u32> = Broker::with_config(BrokerConfig {
            max_inflight: 2,
            ..BrokerConfig::default()
        });
        connect(&mut b, 1, "sub");
        connect(&mut b, 2, "pub");
        subscribe(&mut b, 1, "s/a", QoS::AtLeastOnce);
        let mut pids = Vec::new();
        for i in 0..4u16 {
            let out = b.handle_packet(
                &2,
                Packet::Publish(Publish::qos1(topic("s/a"), vec![i as u8], i + 1)),
                0,
            );
            for p in sends_to(&out, 1) {
                if let Packet::Publish(p) = p {
                    pids.push(p.packet_id.expect("pid"));
                }
            }
        }
        // Only two in flight.
        assert_eq!(pids.len(), 2);
        // Acking one releases one queued message.
        let out = b.handle_packet(&1, Packet::Puback(pids[0]), 1);
        assert_eq!(sends_to(&out, 1).len(), 1);
    }

    #[test]
    fn offline_queue_overflow_drops() {
        let mut b: Broker<u32> = Broker::with_config(BrokerConfig {
            max_offline_queue: 2,
            ..BrokerConfig::default()
        });
        b.connection_opened(1, 0);
        let mut c = Connect::new("durable");
        c.clean_session = false;
        b.handle_packet(&1, Packet::Connect(c), 0);
        subscribe(&mut b, 1, "s/a", QoS::AtLeastOnce);
        b.handle_packet(&1, Packet::Disconnect, 1);

        connect(&mut b, 2, "pub");
        for i in 0..5u16 {
            b.handle_packet(
                &2,
                Packet::Publish(Publish::qos1(topic("s/a"), vec![i as u8], i + 1)),
                2,
            );
        }
        assert_eq!(b.stats().messages_dropped, 3);
    }

    #[test]
    fn sys_stats_reflect_traffic() {
        let mut b: Broker<u32> = Broker::new();
        connect(&mut b, 1, "sub");
        connect(&mut b, 2, "pub");
        subscribe(&mut b, 1, "s/#", QoS::AtMostOnce);
        for _ in 0..3 {
            b.handle_packet(
                &2,
                Packet::Publish(Publish::qos0(topic("s/a"), b"x".to_vec())),
                0,
            );
        }
        let stats = b.stats();
        assert_eq!(stats.messages_in, 3);
        assert_eq!(stats.messages_out, 3);
        assert_eq!(stats.clients_connected, 2);
        let sys = b.sys_stats_packets();
        assert!(sys
            .iter()
            .any(|p| p.topic.as_str() == "$SYS/broker/messages/received"
                && p.payload.as_ref() == b"3"));
    }

    #[test]
    fn qos2_inbound_is_exactly_once() {
        let mut b: Broker<u32> = Broker::new();
        connect(&mut b, 1, "sub");
        connect(&mut b, 2, "pub");
        subscribe(&mut b, 1, "s/a", QoS::AtMostOnce);
        let mut p = Publish::qos1(topic("s/a"), b"x".to_vec(), 9);
        p.qos = QoS::ExactlyOnce;
        // First PUBLISH: PUBREC to the publisher, message routed once.
        let out = b.handle_packet(&2, Packet::Publish(p.clone()), 0);
        assert!(sends_to(&out, 2).contains(&Packet::Pubrec(9)));
        assert_eq!(sends_to(&out, 1).len(), 1);
        // Duplicate before PUBREL: PUBREC again, NOT routed again.
        let mut dup = p.clone();
        dup.dup = true;
        let out = b.handle_packet(&2, Packet::Publish(dup), 1);
        assert!(sends_to(&out, 2).contains(&Packet::Pubrec(9)));
        assert!(sends_to(&out, 1).is_empty(), "duplicate must not be routed");
        // PUBREL closes the window with PUBCOMP.
        let out = b.handle_packet(&2, Packet::Pubrel(9), 2);
        assert!(sends_to(&out, 2).contains(&Packet::Pubcomp(9)));
        // A fresh publish with the same pid is a new message.
        let out = b.handle_packet(&2, Packet::Publish(p), 3);
        assert_eq!(sends_to(&out, 1).len(), 1);
    }

    #[test]
    fn qos2_outbound_walks_the_handshake() {
        let mut b: Broker<u32> = Broker::new();
        connect(&mut b, 1, "sub");
        connect(&mut b, 2, "pub");
        subscribe(&mut b, 1, "s/a", QoS::ExactlyOnce);
        let mut p = Publish::qos1(topic("s/a"), b"x".to_vec(), 5);
        p.qos = QoS::ExactlyOnce;
        let out = b.handle_packet(&2, Packet::Publish(p), 0);
        let pid = match &sends_to(&out, 1)[0] {
            Packet::Publish(p) => {
                assert_eq!(p.qos, QoS::ExactlyOnce);
                p.packet_id.expect("pid")
            }
            other => panic!("expected publish, got {other:?}"),
        };
        // Unanswered: the PUBLISH is retransmitted (dup).
        let re = b.poll(3_000_000_000);
        assert!(sends_to(&re, 1)
            .iter()
            .any(|pk| matches!(pk, Packet::Publish(p) if p.dup)));
        // PUBREC -> broker sends PUBREL; a stalled PUBCOMP retransmits
        // the PUBREL, not the PUBLISH.
        let out = b.handle_packet(&1, Packet::Pubrec(pid), 4_000_000_000);
        assert!(sends_to(&out, 1).contains(&Packet::Pubrel(pid)));
        let re = b.poll(7_000_000_000);
        assert!(sends_to(&re, 1).contains(&Packet::Pubrel(pid)));
        assert!(!sends_to(&re, 1)
            .iter()
            .any(|pk| matches!(pk, Packet::Publish(_))));
        // PUBCOMP finishes the flow: nothing left to retransmit.
        b.handle_packet(&1, Packet::Pubcomp(pid), 8_000_000_000);
        assert!(b.poll(20_000_000_000).is_empty());
    }

    #[test]
    fn internal_publish_routes_and_retains() {
        let mut b: Broker<u32> = Broker::new();
        connect(&mut b, 1, "watcher");
        subscribe(&mut b, 1, "$SYS/#", QoS::AtMostOnce);
        let mut p = Publish::qos0(topic("$SYS/broker/uptime"), b"1".to_vec());
        p.retain = true;
        let out = b.publish_internal(p, 0);
        assert!(sends_to(&out, 1)
            .iter()
            .any(|p| matches!(p, Packet::Publish(p) if p.payload.as_ref() == b"1")));
        assert_eq!(b.stats().retained_count, 1);
        // Leading-$ topics stay invisible to plain wildcard subscribers.
        connect(&mut b, 2, "plain");
        subscribe(&mut b, 2, "#", QoS::AtMostOnce);
        let out = b.publish_internal(Publish::qos0(topic("$SYS/broker/uptime"), b"2".to_vec()), 1);
        assert!(sends_to(&out, 2).is_empty());
    }

    #[test]
    fn sys_packets_describe_every_counter() {
        let b: Broker<u32> = Broker::new();
        let sys = b.sys_stats_packets();
        assert!(sys.len() >= 5);
        assert!(sys
            .iter()
            .all(|p| p.topic.as_str().starts_with("$SYS/broker/")));
    }

    #[test]
    fn next_deadline_tracks_keepalive_and_inflight() {
        let mut b: Broker<u32> = Broker::new();
        assert_eq!(b.next_deadline_ns(), None);
        b.connection_opened(1, 0);
        let mut c = Connect::new("dev");
        c.keep_alive_secs = 2;
        b.handle_packet(&1, Packet::Connect(c), 0);
        assert_eq!(b.next_deadline_ns(), Some(3_000_000_000));
    }

    #[test]
    fn next_deadline_none_while_sessions_idle() {
        // Connected clients without keep-alive and without in-flight
        // deliveries give the poll loop nothing to do — ever. The old
        // transport still woke every 100 ms; `next_deadline_ns` lets it
        // sleep indefinitely.
        let mut b: Broker<u32> = Broker::new();
        for (conn, id) in [(1, "sub"), (2, "pub")] {
            b.connection_opened(conn, 0);
            let mut c = Connect::new(id);
            c.keep_alive_secs = 0;
            b.handle_packet(&conn, Packet::Connect(c), 0);
        }
        subscribe(&mut b, 1, "s/#", QoS::AtMostOnce);
        b.handle_packet(
            &2,
            Packet::Publish(Publish::qos0(topic("s/a"), b"x".to_vec())),
            5,
        );
        assert_eq!(b.next_deadline_ns(), None);
        assert!(b.poll(u64::MAX / 2).is_empty());
    }

    #[test]
    fn next_deadline_matches_earliest_retransmit() {
        let mut b: Broker<u32> = Broker::new();
        connect(&mut b, 1, "sub");
        connect(&mut b, 2, "pub");
        subscribe(&mut b, 1, "s/a", QoS::AtLeastOnce);
        // Two QoS 1 deliveries sent at t=1 and t=500.
        b.handle_packet(
            &2,
            Packet::Publish(Publish::qos1(topic("s/a"), b"a".to_vec(), 1)),
            1,
        );
        b.handle_packet(
            &2,
            Packet::Publish(Publish::qos1(topic("s/a"), b"b".to_vec(), 2)),
            500,
        );
        let timeout = BrokerConfig::default().retransmit_timeout_ns;
        let deadline = b.next_deadline_ns().expect("inflight implies deadline");
        assert_eq!(deadline, 1 + timeout, "earliest unacked send wins");
        // Exactly what the old poll loop would have done: nothing fires
        // strictly before the deadline, the retransmit fires at it.
        assert!(b.poll(deadline - 1).is_empty());
        let fired = b.poll(deadline);
        assert!(
            sends_to(&fired, 1)
                .iter()
                .any(|p| matches!(p, Packet::Publish(p) if p.dup)),
            "deadline must coincide with the first retransmission"
        );
    }

    #[test]
    fn next_deadline_is_min_of_keepalive_and_retransmit() {
        let mut b: Broker<u32> = Broker::new();
        // Subscriber with a short keep-alive.
        b.connection_opened(1, 0);
        let mut c = Connect::new("sub");
        c.keep_alive_secs = 1; // expiry at 1.5 s
        b.handle_packet(&1, Packet::Connect(c), 0);
        subscribe(&mut b, 1, "s/a", QoS::AtLeastOnce);
        connect(&mut b, 2, "pub");
        b.handle_packet(
            &2,
            Packet::Publish(Publish::qos1(topic("s/a"), b"x".to_vec(), 1)),
            0,
        );
        // Keep-alive expiry (1.5e9) beats the retransmit (2e9).
        assert_eq!(b.next_deadline_ns(), Some(1_500_000_000));
        assert!(b.poll(1_499_999_999).is_empty());
        let fired = b.poll(1_500_000_001);
        assert!(fired.iter().any(|a| matches!(a, Action::Close { conn: 1 })));
    }

    /// A standalone broker's index holds each subscription once, as its
    /// session does, through resubscribe, unsubscribe and session
    /// teardown, and it never forwards.
    #[test]
    fn a_standalone_broker_holds_each_subscription_once() {
        let mut b: Broker<u32> = Broker::new();
        connect(&mut b, 1, "sub");
        connect(&mut b, 2, "pub");
        let held = |b: &Broker<u32>| {
            assert_eq!(b.index_len(), b.session_subscriptions());
            b.index_len()
        };
        subscribe(&mut b, 1, "s/#", QoS::AtMostOnce);
        subscribe(&mut b, 1, "s/+", QoS::AtMostOnce);
        subscribe(&mut b, 1, "s/#", QoS::AtLeastOnce);
        assert_eq!(held(&b), 2);
        let out = b.handle_packet(
            &2,
            Packet::Publish(Publish::qos0(topic("s/a"), b"x".to_vec())),
            1,
        );
        assert_eq!(sends_to(&out, 1).len(), 1);
        b.handle_packet(
            &1,
            Packet::Unsubscribe(Unsubscribe {
                packet_id: 7,
                filters: vec![filter("s/#")],
            }),
            2,
        );
        assert_eq!(held(&b), 1);
        // A clean session's teardown takes the rest out.
        b.handle_packet(&1, Packet::Disconnect, 3);
        assert_eq!(held(&b), 0);
        assert!(b.forwards.is_empty());
    }
}
