//! # Sharded routing — a multi-core front for the sans-I/O [`Broker`]
//!
//! The paper's Broker class is the choke point of the whole pipeline
//! (the Table II knee is queueing behind the heavy processing modules),
//! and a single `Mutex<Broker>` serialises every connection through one
//! lock. Sharding partitions sessions across N shards, each with its own
//! [`Broker`], so publishes arriving on different connections route
//! concurrently with no global lock on the hot path.
//!
//! A shard is a crate-private `Shard`: one broker plus the lists one
//! operation fills, called through `&mut self` by the one thread that
//! owns it. Its runtime owner is the TCP front-end
//! ([`crate::net::TcpBroker`]), whose event loop *s* owns shard *s*
//! outright. [`ShardedBroker`] is the same shard set driven from one
//! thread, behind one lock: the face the tests and benchmark replays use.
//! A middleware node's embedded broker runs on the node's one thread,
//! where shards could never run in parallel, so it embeds a plain
//! [`Broker`] instead.
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
//! Besides each shard's own tree, the shards share one read-mostly
//! subscription index describing every subscription on every shard,
//! keyed `(shard, client_id)`, behind one `RwLock`: the only lock the
//! shards share. A shard's broker reports the tree mutations it applied
//! as [`BrokerEvent`]s; before the operation that caused them returns,
//! the shard applies them to the index in order, under the write lock. A
//! routed publish is matched against the index under the read lock to
//! find the other shards it must reach.
//!
//! The resulting invariant (DESIGN.md §7): **a subscribe acknowledged on
//! any shard is visible to every subsequent publish on all shards** —
//! the SUBACK is only returned after the index holds the subscription,
//! and a publish reads the index as it is when it routes.
//!
//! Every subscription is held twice: in its shard's tree, which delivers,
//! and in the index, which forwards. An operation that captured no event
//! (an acknowledgement, a ping) does not touch the index lock at all.
//!
//! ## Cross-shard fan-out
//!
//! A publish routed on its origin shard may match subscribers on other
//! shards. The origin computes the distinct set of remote shards from
//! the index and reports them as [`ShardOutput::forwards`]; each is
//! applied on its target shard (by that shard's own event loop in the
//! TCP front-end, in the order they were routed; inline, via
//! [`resolve`](ShardedBroker::resolve), for a caller on one thread).
//! Forward application never generates further forwards, so a forwarded
//! publish cannot loop. Retained publishes are forwarded to *all* shards
//! so every shard's retained store replicates and a later subscriber on
//! any shard sees them.
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
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};

use crate::broker::{Action, Broker, BrokerConfig, BrokerEvent, BrokerStats};
use crate::codec;
use crate::packet::{Connect, Packet, Publish};
use crate::topic::{fnv1a, TopicFilter};
use crate::tree::{Subscription, SubscriptionTree};
use crate::wal::{FileBackend, RecoveryReport, Wal, WalBackend, WalConfig, WalStats};

/// The index keys subscriptions by owning shard *and* client id so a
/// client's subscriptions can be dropped without scanning, and so a
/// match lists its shards in order. The id is the string the owning
/// broker shares, so a match clones no text.
type IndexKey = (usize, Arc<str>);

/// Every subscription on every shard, keyed `(shard, client id)`: the one
/// lock the shards share. See the [module docs](self).
pub(crate) type Index = RwLock<SubscriptionTree<IndexKey>>;

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

/// One shard: its own broker and the lists one operation fills, each
/// empty between operations (kept for its capacity). Whoever owns it
/// calls it through `&mut self`; a call that can change or read the
/// index takes the index too.
pub(crate) struct Shard<C> {
    idx: usize,
    /// How many shards share the index.
    n: usize,
    broker: Broker<C>,
    events: Vec<BrokerEvent>,
    /// The index entries a routed publish matched.
    matched: Vec<Subscription<IndexKey>>,
}

/// A shard set as opened: the shards, their index and, for a durable
/// open, what each shard recovered (empty otherwise).
pub(crate) type Opened<C> = (Vec<Shard<C>>, Index, Vec<RecoveryReport>);

/// Opens `config.shards` shards (at least 1), every shard's broker with
/// the same config, and the index over them.
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
/// its own log; the index is rebuilt from the union of the recovered
/// sessions so cross-shard routing sees restored subscriptions
/// immediately.
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
    let mut shards: Vec<Shard<C>> = (0..n)
        .map(|idx| {
            let mut broker = Broker::with_config(config.clone());
            // A lone shard has no index to keep and nowhere to forward
            // to: its broker captures no events at all.
            broker.set_event_capture(n > 1);
            Shard {
                idx,
                n,
                broker,
                events: Vec::new(),
                matched: Vec::new(),
            }
        })
        .collect();
    let mut index = SubscriptionTree::new();
    let mut reports = Vec::new();
    for (shard, (wal, report)) in shards.iter_mut().zip(recovered) {
        for (client, session) in &report.state.sessions {
            let client: Arc<str> = Arc::from(client.as_str());
            for (filter, qos) in &session.subscriptions {
                let Ok(filter) = TopicFilter::new(filter.clone()) else {
                    continue;
                };
                index.subscribe((shard.idx, Arc::clone(&client)), &filter, *qos);
            }
        }
        shard.broker.restore(&report.state);
        shard.broker.attach_wal(wal);
        reports.push(report);
    }
    (shards, RwLock::new(index), reports)
}

impl<C: Ord + Clone> Shard<C> {
    /// Opens `conn` on this shard and handles its CONNECT: the one way a
    /// connection comes to a shard.
    pub(crate) fn connect(
        &mut self,
        index: &Index,
        conn: &C,
        connect: Connect,
        now_ns: u64,
        out: &mut ShardOutput<C>,
    ) {
        self.broker.connection_opened(conn.clone(), now_ns);
        self.packet(index, conn, Packet::Connect(connect), now_ns, out);
    }

    /// Handles one inbound packet of a connection this shard holds.
    pub(crate) fn packet(
        &mut self,
        index: &Index,
        conn: &C,
        packet: Packet,
        now_ns: u64,
        out: &mut ShardOutput<C>,
    ) {
        self.broker
            .handle_packet_into(conn, packet, now_ns, &mut out.actions);
        self.sync(index, &mut out.forwards);
    }

    /// Transport-level connection loss (no DISCONNECT seen): publishes
    /// the will and keeps persistent session state. A no-op for a
    /// connection the shard does not hold.
    pub(crate) fn lost(&mut self, index: &Index, conn: &C, now_ns: u64, out: &mut ShardOutput<C>) {
        self.broker
            .connection_lost_into(conn, now_ns, &mut out.actions);
        self.sync(index, &mut out.forwards);
    }

    /// Runs the shard's timer work (keep-alive expiry, retransmissions).
    pub(crate) fn poll(&mut self, index: &Index, now_ns: u64, out: &mut ShardOutput<C>) {
        self.broker.poll_into(now_ns, &mut out.actions);
        self.sync(index, &mut out.forwards);
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
        self.broker.publish_internal_into(publish, now_ns, actions);
        // The only events a publish application can raise are Routed
        // echoes of this same publish; dropping them is what prevents
        // forward loops.
        self.broker.drain_events_into(&mut self.events);
        self.events.clear();
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

    /// Applies the events the broker captured during the call that just
    /// ran, in order: tree mutations go into the index under its write
    /// lock, and routed publishes are matched against it to compute
    /// cross-shard forwards onto `forwards`. All of it happens before the
    /// call returns its actions — that is what makes an acknowledged
    /// subscribe visible to every subsequent publish. A call that
    /// captured nothing takes no lock.
    fn sync(&mut self, index: &Index, forwards: &mut Vec<(usize, Publish)>) {
        let Shard {
            idx,
            n,
            broker,
            events,
            matched,
        } = self;
        broker.drain_events_into(events);
        if events.is_empty() {
            return;
        }
        if events.iter().all(|e| matches!(e, BrokerEvent::Routed(_))) {
            let index = index.read().unwrap_or_else(PoisonError::into_inner);
            for event in events.drain(..) {
                if let BrokerEvent::Routed(p) = event {
                    collect_forwards(*idx, *n, &index, p, matched, forwards);
                }
            }
            return;
        }
        let mut index = index.write().unwrap_or_else(PoisonError::into_inner);
        // In order: a will routed before a session was cleared must see
        // the subscriptions the clear removes, and one routed after must
        // not.
        for event in events.drain(..) {
            match event {
                BrokerEvent::Routed(p) => {
                    collect_forwards(*idx, *n, &index, p, matched, forwards);
                }
                BrokerEvent::Subscribed {
                    client,
                    filter,
                    qos,
                } => {
                    index.subscribe((*idx, client), &filter, qos);
                }
                BrokerEvent::Unsubscribed { client, filter } => {
                    index.unsubscribe(&(*idx, client), &filter);
                }
                BrokerEvent::SessionCleared { client } => {
                    index.remove_key(&(*idx, client));
                }
            }
        }
    }
}

/// Computes the shards other than `origin` (of `n`) a routed publish
/// must reach, matching it into `matched`. Retained publishes go to
/// every other shard (the retained store is replicated); others go only
/// to shards with a matching subscriber.
///
/// A publish with a remote delivery at its own QoS leaves carrying the
/// bytes such deliveries share (see [`Publish`]): made here if the
/// origin's route had no local one to make them for, so every target
/// shares the one set.
fn collect_forwards(
    origin: usize,
    n: usize,
    index: &SubscriptionTree<IndexKey>,
    publish: Publish,
    matched: &mut Vec<Subscription<IndexKey>>,
    out: &mut Vec<(usize, Publish)>,
) {
    let mut fwd = publish;
    fwd.dup = false;
    fwd.packet_id = None;
    index.matches_into(&fwd.topic, matched);
    if matched
        .iter()
        .any(|sub| sub.key.0 != origin && sub.qos >= fwd.qos)
    {
        codec::carry_delivery(&mut fwd);
    }
    if fwd.retain {
        for shard in (0..n).filter(|&s| s != origin) {
            out.push((shard, fwd.clone()));
        }
    } else {
        // Matches come sorted by (shard, client), so taking each shard
        // at its first match yields the targets in shard order.
        let first = out.len();
        for sub in matched.iter() {
            let shard = sub.key.0;
            if shard != origin && !out[first..].iter().any(|(s, _)| *s == shard) {
                out.push((shard, fwd.clone()));
            }
        }
    }
    matched.clear();
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

/// The shard set driven from one thread: every shard, the index and
/// which shard each connection's CONNECT chose, behind one lock. See the
/// [module docs](self); all methods take `&self`.
pub struct ShardedBroker<C> {
    inner: Mutex<Inner<C>>,
    /// Per-shard recovery reports when the broker was opened durably
    /// (empty otherwise).
    recovery: Vec<RecoveryReport>,
}

struct Inner<C> {
    shards: Vec<Shard<C>>,
    index: Index,
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
    /// its own log; the shared subscription index is rebuilt from the
    /// union of the recovered sessions so cross-shard routing sees
    /// restored subscriptions immediately. Inspect what each shard
    /// replayed via [`ShardedBroker::recovery_reports`].
    pub fn open_durable(
        config: BrokerConfig,
        backends: Vec<Box<dyn WalBackend>>,
    ) -> io::Result<Self> {
        recover(&config, backends).map(Self::from_opened)
    }

    fn from_opened((shards, index, recovery): Opened<C>) -> Self {
        ShardedBroker {
            inner: Mutex::new(Inner {
                shards,
                index,
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
            return inner.shards[idx].packet(&inner.index, conn, packet, now_ns, out);
        }
        let Packet::Connect(connect) = packet else {
            out.actions.push(Action::Close { conn: conn.clone() });
            return;
        };
        let idx = shard_of(&connect.client_id, inner.shards.len());
        inner.registry.insert(conn.clone(), idx);
        inner.shards[idx].connect(&inner.index, conn, connect, now_ns, out);
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
            inner.shards[idx].lost(&inner.index, conn, now_ns, out);
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
    /// work as ever, and no event is captured for an index nobody reads.
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
        let mut inner = sb.lock();
        assert!(inner.shards[0].broker.take_events().is_empty());
        assert!(inner
            .index
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .is_empty());
        drop(inner);
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
        let (mut shards, index, _) = open::<u32>(&config).expect("no durability to open");
        let mut out = ShardOutput::default();
        let sub = Connect::new(id_on_shard("sub", 0, 2));
        shards[0].connect(&index, &1, sub, 0, &mut out);
        let subscribe = Packet::Subscribe(Subscribe {
            packet_id: 7,
            filters: vec![SubscribeFilter {
                filter: filter("s/a"),
                qos: QoS::AtLeastOnce,
            }],
        });
        shards[0].packet(&index, &1, subscribe, 0, &mut out);
        let publisher = Connect::new(id_on_shard("pub", 1, 2));
        shards[1].connect(&index, &2, publisher, 0, &mut out);
        out.actions.clear();

        let publish = Publish::qos1(topic("s/a"), b"m".to_vec(), 1);
        shards[1].packet(&index, &2, Packet::Publish(publish), 0, &mut out);
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
        shards[0].poll(&index, timeout, &mut out);
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
        shards[0].packet(&index, &1, Packet::Puback(pid), timeout + 1, &mut out);
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
}
