//! # Sharded routing — a multi-core front for the sans-I/O [`Broker`]
//!
//! The paper's Broker class is the choke point of the whole pipeline
//! (the Table II knee is queueing behind the heavy processing modules),
//! and a single `Mutex<Broker>` serialises every connection through one
//! lock. Sharding partitions sessions across N shards, each with its own
//! [`Broker`], so publishes arriving on different connections route
//! concurrently with no global lock on the hot path.
//!
//! A shard is a crate-private `Shard`: one broker, called through
//! `&mut self` by the one thread that owns it. Its runtime owner is the
//! TCP front-end ([`crate::net::TcpBroker`]), whose event loop *s* owns
//! shard *s* outright. [`ShardedBroker`] is the same shard set driven
//! from one thread, behind one lock: the face the tests and benchmark
//! replays use. A middleware node's embedded broker runs on the node's
//! one thread, where shards could never run in parallel, so it embeds a
//! plain [`Broker`] instead.
//!
//! ## Partitioning
//!
//! A session lives on the shard selected by an FNV-1a hash of its MQTT
//! client id ([`shard_of`]). Hashing the *client id* (not the socket)
//! means session takeover, persistent-session resumption and QoS 1/2
//! in-flight state all stay within one shard — the per-shard [`Broker`]
//! keeps the exact semantics of the single-broker build. A connection
//! comes to a shard with its CONNECT, which names the session.
//!
//! ## The shared subscription index
//!
//! The shards share one subscription index holding every subscription on
//! every shard, keyed `(shard, client_id)`, behind one `RwLock`: the only
//! lock the shards share, and the only place a subscription is stored. A
//! shard's broker writes its own entries straight into it where it
//! subscribes, unsubscribes, clears a session or restores one, and
//! routes every publish by one walk of it under the read lock. The lock
//! is held for the walk or the change alone, never while a broker
//! delivers or writes its WAL. A standalone [`Broker`] owns a one-shard
//! index of its own, so there is one store and one code path.
//!
//! The resulting invariant (DESIGN.md §7): **a subscribe acknowledged on
//! any shard is visible to every subsequent publish on all shards** —
//! the broker writes the index before it queues the SUBACK, and a
//! publish reads the index as it is when it routes.
//!
//! ## Cross-shard fan-out
//!
//! A publish routed on its origin shard may match subscribers on other
//! shards. The origin's walk lists them all, sorted by shard: it
//! delivers its own entries and reports each other shard with one as a
//! [`ShardOutput::forwards`] entry. Each forward is applied on its target
//! shard (by that shard's own event loop in the TCP front-end, in the
//! order they were routed; inline, via
//! [`resolve`](ShardedBroker::resolve), for a caller on one thread),
//! which walks the index again keeping only its own entries: a publish
//! reaching k other shards costs 1 + k walks. Forward application never
//! generates further forwards, so a forwarded publish cannot loop.
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
//! broker.handle_packet(&1, Packet::Connect(Connect::new(sub_id)), 0);
//! broker.handle_packet(&1, Packet::Subscribe(Subscribe {
//!     packet_id: 1,
//!     filters: vec![SubscribeFilter { filter: TopicFilter::new("s/#")?, qos: QoS::AtMostOnce }],
//! }), 0);
//!
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
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::broker::{Action, Broker, BrokerConfig, BrokerStats};
use crate::packet::{Connect, Packet, Publish};
use crate::topic::fnv1a;
use crate::tree::SubscriptionTree;
use crate::wal::{FileBackend, RecoveryReport, Wal, WalBackend, WalConfig, WalStats};

/// The index keys subscriptions by owning shard *and* client id, so a
/// match lists its shards in order. The id is the string the owning
/// broker shares, so a match clones no text.
pub(crate) type IndexKey = (usize, Arc<str>);

/// Every subscription on every shard that shares it, keyed
/// `(shard, client id)`: the one subscription store, and the one lock the
/// shards share. See the [module docs](self).
#[derive(Debug)]
pub(crate) struct Index {
    shards: usize,
    tree: RwLock<SubscriptionTree<IndexKey>>,
}

impl Index {
    /// An empty index for `shards` shards.
    pub(crate) fn new(shards: usize) -> Arc<Index> {
        Arc::new(Index {
            shards,
            tree: RwLock::new(SubscriptionTree::new()),
        })
    }

    /// How many shards share the index.
    pub(crate) fn shards(&self) -> usize {
        self.shards
    }

    /// The tree, to walk. A holder that panicked left it whole: each
    /// change made under the lock is one tree call.
    pub(crate) fn read(&self) -> RwLockReadGuard<'_, SubscriptionTree<IndexKey>> {
        self.tree.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// The tree, to change.
    pub(crate) fn write(&self) -> RwLockWriteGuard<'_, SubscriptionTree<IndexKey>> {
        self.tree.write().unwrap_or_else(PoisonError::into_inner)
    }
}

/// FNV-1a hash of a client id mapped onto `shards` buckets. Stable
/// across processes so a reconnecting client always lands on the shard
/// holding its persistent session.
pub fn shard_of(client_id: &str, shards: usize) -> usize {
    (fnv1a(client_id.as_bytes()) % shards.max(1) as u64) as usize
}

/// What one shard operation produced: transport actions for this
/// shard's connections, plus publishes that must be applied to other
/// shards.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardOutput<C> {
    /// Actions to apply to this shard's transport connections.
    pub actions: Vec<Action<C>>,
    /// `(target shard, publish)` pairs to apply on their targets
    /// ([`ShardedBroker::resolve`] applies them inline). Applying a
    /// forward never produces further forwards.
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

/// One shard: its broker, which routes through the index the set shares.
/// Whoever owns it calls it through `&mut self`.
pub(crate) struct Shard<C> {
    broker: Broker<C>,
}

/// A shard set as opened: the shards and, for a durable open, what each
/// shard recovered (empty otherwise).
pub(crate) type Opened<C> = (Vec<Shard<C>>, Vec<RecoveryReport>);

/// Opens `config.shards` shards (at least 1), every shard's broker with
/// the same config, over one index.
///
/// When [`BrokerConfig::durability`] is set this opens per-shard WAL
/// files (`shard-<i>.wal` / `shard-<i>.snap`) under the directory and
/// replays them, so restarts resume with persistent sessions,
/// subscriptions, retained messages and QoS 1/2 in-flight state intact.
pub(crate) fn open<C: Ord + Clone>(config: &BrokerConfig) -> io::Result<Opened<C>> {
    let Some(dir) = &config.durability else {
        return Ok(build(config, Vec::new()));
    };
    (0..config.shards.max(1))
        .map(|i| {
            FileBackend::open(dir, &format!("shard-{i}"))
                .map(|b| Box::new(b) as Box<dyn WalBackend>)
        })
        .collect::<io::Result<Vec<_>>>()
        .and_then(|backends| recover(config, backends))
        .map_err(|e| io::Error::new(e.kind(), format!("broker durability dir {dir:?}: {e}")))
}

/// Opens a durable shard set over explicit per-shard backends
/// (`backends.len()` must equal the shard count). Each shard recovers
/// its own log and restores it into the index, so cross-shard routing
/// sees restored subscriptions immediately.
pub(crate) fn recover<C: Ord + Clone>(
    config: &BrokerConfig,
    backends: Vec<Box<dyn WalBackend>>,
) -> io::Result<Opened<C>> {
    assert_eq!(
        backends.len(),
        config.shards.max(1),
        "one WAL backend per shard"
    );
    let wal_config = WalConfig {
        snapshot_every: config.wal_snapshot_every,
        fsync: config.wal_fsync,
    };
    let recovered = backends
        .into_iter()
        .map(|backend| Wal::open(backend, wal_config))
        .collect::<io::Result<Vec<_>>>()?;
    Ok(build(config, recovered))
}

fn build<C: Ord + Clone>(
    config: &BrokerConfig,
    recovered: Vec<(Wal, RecoveryReport)>,
) -> Opened<C> {
    let n = config.shards.max(1);
    let index = Index::new(n);
    let mut shards: Vec<Shard<C>> = (0..n)
        .map(|idx| Shard {
            broker: Broker::on_shard(config.clone(), Arc::clone(&index), idx),
        })
        .collect();
    let mut reports = Vec::new();
    for (shard, (wal, report)) in shards.iter_mut().zip(recovered) {
        shard.broker.restore(&report.state);
        shard.broker.attach_wal(wal);
        reports.push(report);
    }
    (shards, reports)
}

impl<C: Ord + Clone> Shard<C> {
    /// Opens `conn` on this shard and handles its CONNECT: the one way a
    /// connection comes to a shard.
    pub(crate) fn connect(
        &mut self,
        conn: &C,
        connect: Connect,
        now_ns: u64,
        out: &mut ShardOutput<C>,
    ) {
        self.broker.connection_opened(conn.clone(), now_ns);
        self.packet(conn, Packet::Connect(connect), now_ns, out);
    }

    /// Handles one inbound packet of a connection this shard holds.
    pub(crate) fn packet(
        &mut self,
        conn: &C,
        packet: Packet,
        now_ns: u64,
        out: &mut ShardOutput<C>,
    ) {
        self.broker
            .handle_packet_into(conn, packet, now_ns, &mut out.actions);
        out.forwards.append(&mut self.broker.forwards);
    }

    /// Transport-level connection loss (no DISCONNECT seen): publishes
    /// the will and keeps persistent session state. A no-op for a
    /// connection the shard does not hold.
    pub(crate) fn lost(&mut self, conn: &C, now_ns: u64, out: &mut ShardOutput<C>) {
        self.broker
            .connection_lost_into(conn, now_ns, &mut out.actions);
        out.forwards.append(&mut self.broker.forwards);
    }

    /// Runs the shard's timer work (keep-alive expiry, retransmissions).
    pub(crate) fn poll(&mut self, now_ns: u64, out: &mut ShardOutput<C>) {
        self.broker.poll_into(now_ns, &mut out.actions);
        out.forwards.append(&mut self.broker.forwards);
    }

    /// Applies a publish another shard forwarded here, appending the
    /// deliveries to this shard's connections to `actions`. Never
    /// produces further forwards (loop freedom by construction).
    pub(crate) fn apply_forward(
        &mut self,
        publish: Publish,
        now_ns: u64,
        actions: &mut Vec<Action<C>>,
    ) {
        self.broker.apply_forward_into(publish, now_ns, actions);
    }

    /// The earliest instant at which [`poll`](Self::poll) has work, if
    /// any.
    pub(crate) fn next_deadline_ns(&self) -> Option<u64> {
        self.broker.next_deadline_ns()
    }

    pub(crate) fn stats(&self) -> BrokerStats {
        self.broker.stats()
    }

    pub(crate) fn wal_stats(&self) -> Option<WalStats> {
        self.broker.wal_stats()
    }
}

/// Sums per-shard figures. Counters add; the retained count is the
/// maximum over shards because the retained store is replicated, not
/// partitioned.
pub(crate) fn total_stats(shards: impl IntoIterator<Item = BrokerStats>) -> BrokerStats {
    shards
        .into_iter()
        .fold(BrokerStats::default(), |t, s| BrokerStats {
            messages_in: t.messages_in + s.messages_in,
            messages_out: t.messages_out + s.messages_out,
            messages_dropped: t.messages_dropped + s.messages_dropped,
            clients_connected: t.clients_connected + s.clients_connected,
            retained_count: t.retained_count.max(s.retained_count),
            retransmissions: t.retransmissions + s.retransmissions,
        })
}

/// Sums per-shard WAL counters; `None` if no shard has a WAL.
pub(crate) fn total_wal_stats(
    shards: impl IntoIterator<Item = Option<WalStats>>,
) -> Option<WalStats> {
    shards.into_iter().flatten().reduce(|t, s| WalStats {
        records_appended: t.records_appended + s.records_appended,
        batches_committed: t.batches_committed + s.batches_committed,
        bytes_appended: t.bytes_appended + s.bytes_appended,
        append_errors: t.append_errors + s.append_errors,
        sync_errors: t.sync_errors + s.sync_errors,
        snapshots_installed: t.snapshots_installed + s.snapshots_installed,
        snapshot_errors: t.snapshot_errors + s.snapshot_errors,
    })
}

/// The shard set driven from one thread: every shard and which shard each connection's CONNECT chose, behind one lock. See the
/// [module docs](self); all methods take `&self`.
pub struct ShardedBroker<C> {
    inner: Mutex<Inner<C>>,
    /// Per-shard recovery reports when the broker was opened durably
    /// (empty otherwise).
    recovery: Vec<RecoveryReport>,
}

struct Inner<C> {
    shards: Vec<Shard<C>>,
    /// Connection → owning shard, fixed at CONNECT time.
    registry: BTreeMap<C, usize>,
}

impl<C: Ord + Clone> ShardedBroker<C> {
    /// Creates a sharded broker with `config.shards` shards (clamped to
    /// at least 1); every shard's inner broker shares the same config.
    ///
    /// When [`BrokerConfig::durability`] is set this opens per-shard WAL
    /// files (`shard-<i>.wal` / `shard-<i>.snap`) under the directory and
    /// replays them. Panics if the durability directory cannot be opened
    /// or replayed (a broker silently running without its configured
    /// durability would be worse); use [`ShardedBroker::open_durable`]
    /// for a fallible, backend-injected variant.
    pub fn new(config: BrokerConfig) -> Self {
        Self::from_opened(open(&config).unwrap_or_else(|e| panic!("{e}")))
    }

    /// Opens a durable sharded broker over explicit per-shard backends
    /// (`backends.len()` must equal the shard count). Each shard recovers
    /// its own log and restores it into the shared subscription index, so
    /// cross-shard routing sees restored subscriptions immediately. Inspect what each shard
    /// replayed via [`ShardedBroker::recovery_reports`].
    pub fn open_durable(
        config: BrokerConfig,
        backends: Vec<Box<dyn WalBackend>>,
    ) -> io::Result<Self> {
        recover(&config, backends).map(Self::from_opened)
    }

    fn from_opened((shards, recovery): Opened<C>) -> Self {
        ShardedBroker {
            inner: Mutex::new(Inner {
                shards,
                registry: BTreeMap::new(),
            }),
            recovery,
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner<C>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Per-shard recovery reports from a durable open (empty when the
    /// broker started without durability).
    pub fn recovery_reports(&self) -> &[RecoveryReport] {
        &self.recovery
    }

    /// Aggregated WAL counters across shards, if durability is attached.
    pub fn wal_stats(&self) -> Option<WalStats> {
        total_wal_stats(self.lock().shards.iter().map(Shard::wal_stats))
    }

    /// Records nothing: a connection is opened on its shard by its
    /// CONNECT, the first packet [`handle_packet`](Self::handle_packet)
    /// sees for it. Kept for callers that report every transport event,
    /// such as flowbench's replay.
    pub fn connection_opened(&self, _conn: C, _now_ns: u64) {}

    // The per-packet entry points have two forms, as on [`Broker`]: the
    // `_into` form appends to an output the caller owns and reuses, the
    // by-value form lends it a fresh one.

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
        let inner = &mut *self.lock();
        if let Some(&idx) = inner.registry.get(conn) {
            return inner.shards[idx].packet(conn, packet, now_ns, out);
        }
        let Packet::Connect(connect) = packet else {
            out.actions.push(Action::Close { conn: conn.clone() });
            return;
        };
        let idx = shard_of(&connect.client_id, inner.shards.len());
        inner.registry.insert(conn.clone(), idx);
        inner.shards[idx].connect(conn, connect, now_ns, out);
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
        let inner = &mut *self.lock();
        if let Some(idx) = inner.registry.remove(conn) {
            inner.shards[idx].lost(conn, now_ns, out);
        }
    }

    /// Applies `out.forwards` inline and returns every action: the
    /// convenience path for a caller on one thread (tests, benchmark
    /// replays). The TCP front-end posts forwards to the inboxes of the
    /// target shards' loops instead.
    pub fn resolve(&self, mut out: ShardOutput<C>, now_ns: u64) -> Vec<Action<C>> {
        self.resolve_into(&mut out, now_ns);
        out.actions
    }

    /// [`resolve`](Self::resolve) in place: drains `out.forwards`, their
    /// actions following the ones already in `out.actions`.
    pub fn resolve_into(&self, out: &mut ShardOutput<C>, now_ns: u64) {
        let inner = &mut *self.lock();
        for (shard, publish) in out.forwards.drain(..) {
            inner.shards[shard].apply_forward(publish, now_ns, &mut out.actions);
        }
    }

    /// Aggregated statistics across shards. Counters sum; the retained
    /// count is the maximum over shards because the retained store is
    /// replicated, not partitioned.
    pub fn stats(&self) -> BrokerStats {
        total_stats(self.lock().shards.iter().map(Shard::stats))
    }
}

impl<C: Ord + Clone> std::fmt::Debug for ShardedBroker<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedBroker")
            .field("shards", &self.lock().shards.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Connect, LastWill, QoS, Subscribe, SubscribeFilter, Unsubscribe};
    use crate::topic::{TopicFilter, TopicName};
    use crate::wal::{MemBackend, WalRecord};

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

    /// The shard `conn`'s CONNECT chose, if it has been handled.
    fn shard_of_conn(sb: &ShardedBroker<u32>, conn: u32) -> Option<usize> {
        sb.lock().registry.get(&conn).copied()
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
        assert_eq!(shard_of_conn(&sb, 1), Some(0));
        assert_eq!(shard_of_conn(&sb, 2), Some(1));

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
    /// work as ever, nothing is forwarded, and the index holds each
    /// subscription once.
    #[test]
    fn single_shard_routes_without_forwarding() {
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
        assert_eq!(sb.lock().shards[0].broker.index_len(), 1);
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

    /// Two shards driven as their owners drive them: each call on the
    /// shard that holds the connection, the forward applied on its target.
    #[test]
    fn cross_shard_qos1_delivery_retransmits_on_target_shard() {
        let config = BrokerConfig {
            shards: 2,
            ..BrokerConfig::default()
        };
        let (mut shards, _) = open::<u32>(&config).expect("no durability to open");
        let mut out = ShardOutput::default();
        let sub = Connect::new(id_on_shard("sub", 0, 2));
        shards[0].connect(&1, sub, 0, &mut out);
        let subscribe = Packet::Subscribe(Subscribe {
            packet_id: 7,
            filters: vec![SubscribeFilter {
                filter: filter("s/a"),
                qos: QoS::AtLeastOnce,
            }],
        });
        shards[0].packet(&1, subscribe, 0, &mut out);
        let publisher = Connect::new(id_on_shard("pub", 1, 2));
        shards[1].connect(&2, publisher, 0, &mut out);
        out.actions.clear();

        let publish = Publish::qos1(topic("s/a"), b"m".to_vec(), 1);
        shards[1].packet(&2, Packet::Publish(publish), 0, &mut out);
        // Publisher handshake completes on the origin shard.
        assert!(sends_to(&out.actions, 2)
            .iter()
            .any(|p| matches!(p, Packet::Puback(1))),);
        let (target, forward) = out.forwards.pop().expect("one forward");
        assert_eq!(target, 0);
        assert!(out.forwards.is_empty());
        let mut actions = Vec::new();
        shards[0].apply_forward(forward, 0, &mut actions);
        let delivered: Vec<_> = sends_to(&actions, 1);
        let Some(Packet::Publish(first)) =
            delivered.iter().find(|p| matches!(p, Packet::Publish(_)))
        else {
            panic!("QoS1 forward must deliver: {delivered:?}");
        };
        let pid = first.packet_id.expect("qos1 delivery has pid");

        // Unacked ⇒ the *subscriber's* shard owns the retransmit timer.
        let timeout = config.retransmit_timeout_ns;
        assert_eq!(shards[0].next_deadline_ns(), Some(timeout));
        let mut out = ShardOutput::default();
        shards[0].poll(timeout, &mut out);
        assert!(
            sends_to(&out.actions, 1)
                .iter()
                .any(|p| matches!(p, Packet::Publish(p) if p.dup)),
            "retransmission fires on the target shard"
        );
        assert!(out.forwards.is_empty(), "retransmits never re-forward");

        // Acking on the subscriber's shard clears the retransmit timer:
        // the keep-alive is what is left.
        let mut out = ShardOutput::default();
        shards[0].packet(&1, Packet::Puback(pid), timeout + 1, &mut out);
        assert!(out.actions.is_empty() && out.forwards.is_empty());
        assert_eq!(
            shards[0].next_deadline_ns(),
            Some(timeout + 1 + 90_000_000_000)
        );
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

    /// A will published by keep-alive expiry, in a shard's timer work,
    /// crosses shards like one published by a lost connection.
    #[test]
    fn a_will_from_keep_alive_expiry_is_forwarded() {
        let config = BrokerConfig {
            shards: 2,
            ..BrokerConfig::default()
        };
        let (mut shards, _) = open::<u32>(&config).expect("no durability to open");
        let mut out = ShardOutput::default();
        shards[0].connect(&1, Connect::new(id_on_shard("sub", 0, 2)), 0, &mut out);
        let subscribe = Packet::Subscribe(Subscribe {
            packet_id: 7,
            filters: vec![SubscribeFilter {
                filter: filter("dead/#"),
                qos: QoS::AtMostOnce,
            }],
        });
        shards[0].packet(&1, subscribe, 0, &mut out);
        let mut c = Connect::new(id_on_shard("pub", 1, 2));
        c.keep_alive_secs = 1;
        c.will = Some(LastWill {
            topic: topic("dead/pub"),
            payload: b"gone".to_vec().into(),
            qos: QoS::AtMostOnce,
            retain: false,
        });
        shards[1].connect(&2, c, 0, &mut out);
        assert!(out.forwards.is_empty());

        let mut out = ShardOutput::default();
        shards[1].poll(2_000_000_000, &mut out);
        assert!(out.actions.contains(&Action::Close { conn: 2 }));
        let (target, will) = out.forwards.pop().expect("the will is forwarded");
        assert_eq!(target, 0);
        let mut actions = Vec::new();
        shards[0].apply_forward(will, 2_000_000_000, &mut actions);
        assert!(sends_to(&actions, 1)
            .iter()
            .any(|p| matches!(p, Packet::Publish(p) if p.payload.as_ref() == b"gone")));
    }

    #[test]
    fn first_packet_must_be_connect() {
        let sb: ShardedBroker<u32> = ShardedBroker::new(BrokerConfig::default());
        sb.connection_opened(9, 0);
        let out = sb.handle_packet(&9, Packet::Pingreq, 0);
        assert_eq!(out.actions, vec![Action::Close { conn: 9 }]);
        assert_eq!(shard_of_conn(&sb, 9), None);
    }

    #[test]
    fn session_takeover_stays_on_one_shard() {
        let sb: ShardedBroker<u32> = ShardedBroker::new(BrokerConfig {
            shards: 4,
            ..BrokerConfig::default()
        });
        connect(&sb, 1, "dev");
        let home = shard_of_conn(&sb, 1).expect("registered");
        sb.connection_opened(2, 1);
        let out = sb.handle_packet(&2, Packet::Connect(Connect::new("dev")), 1);
        assert!(
            out.actions
                .iter()
                .any(|a| matches!(a, Action::Close { conn: 1 })),
            "takeover closes the old connection"
        );
        assert_eq!(shard_of_conn(&sb, 2), Some(home), "same id, same shard");
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
            "the unsubscribe must reach the index the publisher's shard reads"
        );
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

    /// The subscriptions a shard set holds, checked to be held once: the
    /// index's entries equal the `(client, filter)` pairs of the shards'
    /// sessions.
    fn held_once(sb: &ShardedBroker<u32>) -> usize {
        let inner = sb.lock();
        let held = inner
            .shards
            .iter()
            .map(|s| s.broker.session_subscriptions())
            .sum();
        assert_eq!(inner.shards[0].broker.index_len(), held);
        held
    }

    /// xorshift64*: a draw below `n` from `state`.
    fn draw(state: &mut u64, n: u64) -> u64 {
        *state ^= *state >> 12;
        *state ^= *state << 25;
        *state ^= *state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D) % n
    }

    /// Seeded scripts of clean and persistent connects, takeovers,
    /// subscribes and unsubscribes over `+`/`#` filters, clean
    /// disconnects and lost connections, at 1/2/4/8 shards over
    /// `MemBackend`s. After every step each subscription is held once, in
    /// the index; every acknowledged subscribe is delivered a publish from
    /// every shard in the very next call; and the shard set recovered from
    /// the same backends holds what its sessions hold, once.
    #[test]
    fn the_index_holds_each_subscription_once_across_recovery() {
        const CLIENTS: usize = 6;
        const FILTERS: [&str; 6] = ["#", "a/#", "a/+", "+/b", "a/b", "+/+/c"];
        let mut recovered = 0;
        for shards in [1, 2, 4, 8] {
            for seed in 0..16u64 {
                let backends: Vec<MemBackend> = (0..shards).map(|_| MemBackend::new()).collect();
                let open = || {
                    let config = BrokerConfig {
                        shards,
                        ..BrokerConfig::default()
                    };
                    let backends = backends.iter().map(|b| Box::new(b.clone()) as _).collect();
                    ShardedBroker::<u32>::open_durable(config, backends).expect("opens")
                };
                let sb = open();
                let publishers: Vec<u32> = (0..shards)
                    .map(|s| {
                        let conn = 1_000 + s as u32;
                        connect(&sb, conn, &id_on_shard("p", s, shards));
                        conn
                    })
                    .collect();
                let mut rng = (seed + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let mut conn_of = [None; CLIENTS];
                let mut next_conn = 1;
                for t in 0..200 {
                    let client = draw(&mut rng, CLIENTS as u64) as usize;
                    let roll = draw(&mut rng, 10);
                    match (conn_of[client], roll) {
                        // A connect, a takeover when the client is online.
                        (None, _) | (Some(_), 0) => {
                            let mut c = Connect::new(format!("c{client}"));
                            c.clean_session = draw(&mut rng, 3) == 0;
                            let out = sb.handle_packet(&next_conn, Packet::Connect(c), t);
                            sb.resolve(out, t);
                            conn_of[client] = Some(next_conn);
                            next_conn += 1;
                        }
                        (Some(conn), 1..=4) => {
                            let f = FILTERS[draw(&mut rng, 6) as usize];
                            let qos =
                                [QoS::AtMostOnce, QoS::AtLeastOnce][draw(&mut rng, 2) as usize];
                            subscribe(&sb, conn, f, qos);
                            let name = topic(&f.replace(['+', '#'], "x"));
                            for publisher in &publishers {
                                let publish = Publish::qos0(name.clone(), b"m".to_vec());
                                let out = sb.handle_packet(publisher, Packet::Publish(publish), t);
                                let actions = sb.resolve(out, t);
                                assert!(
                                    actions.iter().any(|a| matches!(
                                        a,
                                        Action::SendFrame { conn: c, .. } if *c == conn
                                    )),
                                    "{shards} shards, seed {seed}: a publish on the shard \
                                     of {publisher} missed the subscribe to {f}"
                                );
                            }
                        }
                        (Some(conn), 5..=6) => {
                            let f = FILTERS[draw(&mut rng, 6) as usize];
                            let unsubscribe = Unsubscribe {
                                packet_id: 3,
                                filters: vec![filter(f)],
                            };
                            sb.handle_packet(&conn, Packet::Unsubscribe(unsubscribe), t);
                        }
                        (Some(conn), 7..=8) => {
                            sb.resolve(sb.connection_lost(&conn, t), t);
                            conn_of[client] = None;
                        }
                        (Some(conn), _) => {
                            sb.resolve(sb.handle_packet(&conn, Packet::Disconnect, t), t);
                            conn_of[client] = None;
                        }
                    }
                    held_once(&sb);
                }
                // A crash loses every connection: what stays is the
                // persistent sessions, which recovery must restore.
                for conn in conn_of.iter().flatten().chain(&publishers) {
                    sb.resolve(sb.connection_lost(conn, 500), 500);
                }
                let persistent = held_once(&sb);
                drop(sb);
                assert_eq!(
                    held_once(&open()),
                    persistent,
                    "{shards} shards, seed {seed}"
                );
                recovered += persistent;
            }
        }
        assert!(recovered > 0, "no script left a persistent subscription");
    }

    /// ROADMAP item 10's leftover: a durable shard set over
    /// `FileBackend`s whose `shard-0.wal` holds one good batch and then a
    /// batch whose length varint claims 2^64 − 1 opens, reports the torn
    /// tail, restores the good batch's subscription into the index once
    /// and delivers to it.
    #[test]
    fn a_log_tail_claiming_2_64_bytes_opens_and_keeps_the_good_batch() {
        let dir = std::env::temp_dir().join(format!("ifot-shard-overflow-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let sub_id = id_on_shard("sub", 0, 2);
        let backend = FileBackend::open(&dir, "shard-0").expect("opens");
        let mut wal = Wal::new(Box::new(backend), WalConfig::default());
        wal.record(&WalRecord::SessionStarted {
            client: sub_id.clone(),
            next_pid: 0,
        });
        wal.record(&WalRecord::Subscribed {
            client: sub_id.clone(),
            filter: "s/#".into(),
            qos: QoS::AtMostOnce,
        });
        wal.commit();
        drop(wal);
        let mut log = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join("shard-0.wal"))
            .expect("the log exists");
        std::io::Write::write_all(
            &mut log,
            &[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01],
        )
        .expect("appends");
        drop(log);

        let config = BrokerConfig {
            shards: 2,
            ..BrokerConfig::default()
        };
        let sb: ShardedBroker<u32> = ShardedBroker::new(config.with_durability(&dir));
        let report = &sb.recovery_reports()[0];
        assert!(report.log_truncated);
        assert_eq!(report.log_batches, 1);
        assert_eq!(held_once(&sb), 1);

        let mut resume = Connect::new(sub_id);
        resume.clean_session = false;
        let out = sb.handle_packet(&1, Packet::Connect(resume), 0);
        assert!(out.actions.iter().any(|a| matches!(
            a,
            Action::Send {
                packet: Packet::Connack(c),
                ..
            } if c.session_present
        )));
        connect(&sb, 2, &id_on_shard("pub", 1, 2));
        let publish = Publish::qos0(topic("s/a"), b"x".to_vec());
        let out = sb.handle_packet(&2, Packet::Publish(publish), 1);
        assert_eq!(sends_to(&sb.resolve(out, 1), 1).len(), 1);
        assert_eq!(held_once(&sb), 1);
        drop(sb);
        std::fs::remove_dir_all(&dir).expect("removes its directory");
    }
}
