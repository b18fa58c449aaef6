//! Crash-recovery suite: the broker's WAL-backed durable state must
//! survive process death. Every cell kills a live broker (dropping the
//! value and every packet in flight), rebuilds it from the shared
//! [`MemBackend`] via `open_durable`, and proves the delivery guarantees
//! still hold end-to-end:
//!
//! * QoS 2 — **exactly once** across any number of kill/restart cycles,
//!   including crashes parked at every individual stage of the handshake
//!   and crashes landing inside snapshot installation.
//! * QoS 1 — **zero loss** (duplicates allowed, as the contract says).
//! * Retained messages, subscriptions and offline queues — present after
//!   restart, for both `Broker` and `ShardedBroker`.
//! * Torn or bit-flipped log tails — recovery never panics and always
//!   lands on a clean batch-prefix state.
//!
//! The chaotic cells run through `tests/common/mod.rs`'s
//! `run_with_broker_crashes` (the same supervisor-driven triangle as the
//! reconnect chaos suite); the deterministic cells drive the sans-I/O
//! state machines by hand so a crash can be planted between any two
//! packets.

mod common;

use std::collections::VecDeque;

use common::{run_with_broker_crashes, seq_payload, SeqLedger};

use ifot::mqtt::broker::{Action, Broker, BrokerConfig};
use ifot::mqtt::client::{Client, ClientConfig, ClientEvent};
use ifot::mqtt::packet::{Connect, Packet, Publish, QoS, Subscribe, SubscribeFilter};
use ifot::mqtt::shard::{shard_of, ShardedBroker};
use ifot::mqtt::topic::{TopicFilter, TopicName};
use ifot::mqtt::wal::{self, DurableState, MemBackend, SnapshotCrash, WalBackend};

const PUB: u8 = 1;
const SUB: u8 = 2;

fn topic(s: &str) -> TopicName {
    TopicName::new(s).expect("valid topic")
}

fn filter(s: &str) -> TopicFilter {
    TopicFilter::new(s).expect("valid filter")
}

fn sends(actions: Vec<Action<u8>>) -> Vec<(u8, Packet)> {
    actions
        .into_iter()
        .filter_map(|a| match a {
            Action::Send { conn, packet } => Some((conn, packet)),
            _ => None,
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Chaotic kill/restart cells (supervisor-driven harness)
// ---------------------------------------------------------------------------

#[test]
fn qos2_exactly_once_across_broker_crashes() {
    let run = run_with_broker_crashes(
        QoS::ExactlyOnce,
        30,
        0,
        &[5_000, 20_000, 40_000],
        0xC0FF_EE00,
        0, // no automatic snapshots: pure log replay
    );
    assert!(run.settled, "run never drained: {run:?}");
    assert_eq!(run.crashes, 3);
    run.ledger.assert_exactly_once(1, 30);
    assert!(
        run.session_resumes >= 2,
        "restarted brokers must resume the persistent sessions: {run:?}"
    );
    // Every post-crash recovery rebuilt both sessions from the log.
    for report in &run.reports[1..] {
        assert!(report.state.sessions.contains_key("pub"), "{report:?}");
        assert!(report.state.sessions.contains_key("sub"), "{report:?}");
        assert!(!report.log_truncated, "clean shutdownless log: {report:?}");
    }
}

#[test]
fn qos2_exactly_once_across_crashes_with_loss() {
    let run = run_with_broker_crashes(QoS::ExactlyOnce, 20, 10, &[8_000, 30_000], 0xDEAD_BEEF, 0);
    assert!(run.settled, "run never drained: {run:?}");
    run.ledger.assert_exactly_once(1, 20);
}

#[test]
fn qos1_zero_loss_across_broker_crashes() {
    let run = run_with_broker_crashes(
        QoS::AtLeastOnce,
        30,
        5,
        &[6_000, 18_000, 35_000],
        0x1234_5678,
        0,
    );
    assert!(run.settled, "run never drained: {run:?}");
    run.ledger.assert_at_least_once(1, 30);
}

#[test]
fn qos2_exactly_once_with_snapshots_mid_traffic() {
    // Aggressive snapshot cadence: snapshot + truncate cycles interleave
    // with the crashes, so recoveries mix snapshot restore and tail
    // replay.
    let run = run_with_broker_crashes(
        QoS::ExactlyOnce,
        30,
        5,
        &[7_000, 22_000, 41_000],
        0xAB5E_1234,
        8,
    );
    assert!(run.settled, "run never drained: {run:?}");
    run.ledger.assert_exactly_once(1, 30);
    assert!(
        run.reports[1..].iter().any(|r| r.snapshot_records > 0),
        "at least one recovery should have started from a snapshot: {:?}",
        run.reports
    );
}

#[test]
fn qos2_exactly_once_across_many_back_to_back_crashes() {
    let crashes: Vec<u64> = (1..=6).map(|i| i * 5_000).collect();
    let run = run_with_broker_crashes(QoS::ExactlyOnce, 25, 0, &crashes, 0x0BAD_F00D, 16);
    assert!(run.settled, "run never drained: {run:?}");
    assert_eq!(run.crashes, 6);
    run.ledger.assert_exactly_once(1, 25);
}

// ---------------------------------------------------------------------------
// Deterministic crash-at-every-stage cell (hand-driven state machines)
// ---------------------------------------------------------------------------

/// A publisher → broker → subscriber triangle with a lossless,
/// hand-pumped wire, where the broker can be killed between any two
/// packets and rebuilt from its WAL.
struct Cell {
    backend: MemBackend,
    broker: Broker<u8>,
    publisher: Client,
    subscriber: Client,
    to_broker: VecDeque<(u8, Packet)>,
    now: u64,
    ledger: SeqLedger,
}

impl Cell {
    fn new(qos: QoS) -> Self {
        let cfg = || ClientConfig {
            retransmit_timeout_ns: 50,
            clean_session: false,
            ..ClientConfig::default()
        };
        let backend = MemBackend::new();
        let (broker, _) = Broker::<u8>::open_durable(
            BrokerConfig {
                retransmit_timeout_ns: 50,
                ..Default::default()
            },
            Box::new(backend.clone()),
        )
        .expect("open empty backend");
        let mut cell = Cell {
            backend,
            broker,
            publisher: Client::new("pub", cfg()),
            subscriber: Client::new("sub", cfg()),
            to_broker: VecDeque::new(),
            now: 0,
            ledger: SeqLedger::new(),
        };
        cell.reconnect_clients();
        cell.pump_all();
        let subscribe = cell
            .subscriber
            .subscribe(vec![(filter("t/#"), qos)], cell.now)
            .expect("subscribe");
        cell.to_broker.push_back((SUB, subscribe));
        cell.pump_all();
        cell
    }

    /// (Re)connects both clients through fresh transports; session
    /// replays land on the wire for the next pump.
    fn reconnect_clients(&mut self) {
        for (conn, client) in [(PUB, &mut self.publisher), (SUB, &mut self.subscriber)] {
            self.broker.connection_opened(conn, self.now);
            let connect = client.connect().expect("connect while disconnected");
            self.to_broker.push_back((conn, connect));
        }
    }

    /// Kills the broker (every queued packet dies with it), recovers a
    /// fresh one from the WAL, and reconnects both clients.
    fn crash(&mut self) {
        let (fresh, _report) = Broker::<u8>::open_durable(
            BrokerConfig {
                retransmit_timeout_ns: 50,
                ..Default::default()
            },
            Box::new(self.backend.clone()),
        )
        .expect("recover after crash");
        self.broker = fresh;
        self.to_broker.clear();
        self.publisher.transport_lost();
        self.subscriber.transport_lost();
        self.reconnect_clients();
    }

    /// Feeds one packet to the broker and routes everything it says back
    /// into the clients (whose responses queue up for the next call).
    /// Returns false when the wire is empty.
    fn pump_one(&mut self) -> bool {
        let Some((conn, packet)) = self.to_broker.pop_front() else {
            return false;
        };
        for (conn, packet) in sends(self.broker.handle_packet(&conn, packet, self.now)) {
            self.deliver(conn, packet);
        }
        true
    }

    fn deliver(&mut self, conn: u8, packet: Packet) {
        let client = if conn == PUB {
            &mut self.publisher
        } else {
            &mut self.subscriber
        };
        let Ok((events, out)) = client.handle_packet(packet, self.now) else {
            return;
        };
        for event in events {
            if let ClientEvent::Message(p) = event {
                self.ledger.record_payload(p.payload.as_ref());
            }
        }
        for packet in out {
            self.to_broker.push_back((conn, packet));
        }
    }

    fn pump_all(&mut self) {
        while self.pump_one() {}
    }

    /// Runs the wire plus retransmission timers until everything drains.
    fn drain(&mut self) {
        for _ in 0..200 {
            self.pump_all();
            self.now += 60;
            for (conn, client) in [(PUB, &mut self.publisher), (SUB, &mut self.subscriber)] {
                for packet in client.poll(self.now) {
                    self.to_broker.push_back((conn, packet));
                }
            }
            for (conn, packet) in sends(self.broker.poll(self.now)) {
                self.deliver(conn, packet);
            }
            if self.to_broker.is_empty()
                && self.publisher.inflight_count() == 0
                && self.publisher.inflight2_count() == 0
            {
                return;
            }
        }
        panic!("cell never drained");
    }
}

#[test]
fn qos2_single_message_survives_a_crash_at_every_stage() {
    // One QoS 2 publish takes a handful of broker inputs (PUBLISH,
    // PUBREL, the subscriber leg's PUBREC and PUBCOMP, interleaved with
    // reconnect traffic). Plant exactly one crash after the broker has
    // consumed n packets, for every n — the message must arrive exactly
    // once regardless of which stage the crash interrupts.
    for crash_after in 0..=6usize {
        let mut cell = Cell::new(QoS::ExactlyOnce);
        let publish = cell
            .publisher
            .publish(
                topic("t/x"),
                seq_payload(0, 0).to_vec(),
                QoS::ExactlyOnce,
                false,
                cell.now,
            )
            .expect("publish");
        cell.to_broker.push_back((PUB, publish));

        let mut processed = 0usize;
        let mut crashed = false;
        loop {
            if !crashed && processed >= crash_after {
                cell.crash();
                crashed = true;
            }
            if cell.pump_one() {
                processed += 1;
            } else if crashed {
                break;
            } else {
                // The handshake finished in fewer inputs than
                // `crash_after`: crash the idle broker instead.
                cell.crash();
                crashed = true;
            }
        }
        cell.drain();
        assert_eq!(
            cell.ledger.total(),
            1,
            "crash after {crash_after} inputs: duplicates or loss"
        );
        cell.ledger.assert_exactly_once(1, 1);
    }
}

#[test]
fn qos1_single_message_survives_a_crash_at_every_stage() {
    for crash_after in 0..=4usize {
        let mut cell = Cell::new(QoS::AtLeastOnce);
        let publish = cell
            .publisher
            .publish(
                topic("t/x"),
                seq_payload(0, 0).to_vec(),
                QoS::AtLeastOnce,
                false,
                cell.now,
            )
            .expect("publish");
        cell.to_broker.push_back((PUB, publish));

        let mut processed = 0usize;
        let mut crashed = false;
        loop {
            if !crashed && processed >= crash_after {
                cell.crash();
                crashed = true;
            }
            if cell.pump_one() {
                processed += 1;
            } else if crashed {
                break;
            } else {
                cell.crash();
                crashed = true;
            }
        }
        cell.drain();
        cell.ledger.assert_at_least_once(1, 1);
    }
}

// ---------------------------------------------------------------------------
// Retained-message durability (plain and sharded)
// ---------------------------------------------------------------------------

#[test]
fn retained_messages_survive_restart_plain_broker() {
    let backend = MemBackend::new();
    let (mut broker, _) =
        Broker::<u8>::open_durable(BrokerConfig::default(), Box::new(backend.clone()))
            .expect("open");

    let retained = |t: &str, payload: &[u8]| {
        let mut p = Publish::qos0(topic(t), payload.to_vec());
        p.retain = true;
        p
    };
    broker.publish_internal(retained("conf/a", b"alpha"), 0);
    broker.publish_internal(retained("conf/b", b"beta"), 0);
    // Set then clear: the clear must also be durable.
    broker.publish_internal(retained("conf/c", b"gone"), 0);
    broker.publish_internal(retained("conf/c", b""), 0);

    drop(broker);
    let (mut broker, report) =
        Broker::<u8>::open_durable(BrokerConfig::default(), Box::new(backend.clone()))
            .expect("recover");
    assert_eq!(report.state.retained.len(), 2, "{report:?}");

    broker.connection_opened(SUB, 1);
    let mut got = sends(broker.handle_packet(&SUB, Packet::Connect(Connect::new("s")), 1));
    got.extend(sends(broker.handle_packet(
        &SUB,
        Packet::Subscribe(Subscribe {
            packet_id: 1,
            filters: vec![SubscribeFilter {
                filter: filter("conf/#"),
                qos: QoS::AtMostOnce,
            }],
        }),
        1,
    )));
    let mut payloads: Vec<(String, Vec<u8>)> = got
        .into_iter()
        .filter_map(|(_, p)| match p {
            Packet::Publish(p) => {
                assert!(p.retain, "replayed retained must carry the retain flag");
                Some((p.topic.as_str().to_owned(), p.payload.to_vec()))
            }
            _ => None,
        })
        .collect();
    payloads.sort();
    assert_eq!(
        payloads,
        vec![
            ("conf/a".to_owned(), b"alpha".to_vec()),
            ("conf/b".to_owned(), b"beta".to_vec()),
        ]
    );
}

/// First id of the form `{prefix}{i}` that hashes onto `target`.
fn id_on_shard(prefix: &str, target: usize, shards: usize) -> String {
    (0..1000)
        .map(|i| format!("{prefix}{i}"))
        .find(|id| shard_of(id, shards) == target)
        .expect("some id lands on every shard")
}

fn open_sharded(backends: &[MemBackend]) -> ShardedBroker<u8> {
    let config = BrokerConfig {
        shards: backends.len(),
        ..BrokerConfig::default()
    };
    let boxed: Vec<Box<dyn WalBackend>> = backends
        .iter()
        .map(|b| Box::new(b.clone()) as Box<dyn WalBackend>)
        .collect();
    ShardedBroker::open_durable(config, boxed).expect("sharded open")
}

#[test]
fn retained_messages_survive_restart_sharded() {
    let backends = vec![MemBackend::new(), MemBackend::new()];
    let sb = open_sharded(&backends);
    let pub_id = id_on_shard("pub", 1, 2);

    sb.connection_opened(PUB, 0);
    sb.resolve(
        sb.handle_packet(&PUB, Packet::Connect(Connect::new(&pub_id)), 0),
        0,
    );
    let mut p = Publish::qos0(topic("conf/site"), b"v1".to_vec());
    p.retain = true;
    sb.resolve(sb.handle_packet(&PUB, Packet::Publish(p), 0), 0);

    drop(sb);
    let sb = open_sharded(&backends);
    // A fresh subscriber whose home is shard 0 — the publisher lived on
    // shard 1, so this proves retained state is durable on every shard
    // it was replicated to.
    let sub_id = id_on_shard("sub", 0, 2);
    sb.connection_opened(SUB, 1);
    sb.resolve(
        sb.handle_packet(&SUB, Packet::Connect(Connect::new(&sub_id)), 1),
        1,
    );
    let out = sb.handle_packet(
        &SUB,
        Packet::Subscribe(Subscribe {
            packet_id: 1,
            filters: vec![SubscribeFilter {
                filter: filter("conf/#"),
                qos: QoS::AtMostOnce,
            }],
        }),
        1,
    );
    let got: Vec<Publish> = sb
        .resolve(out, 1)
        .into_iter()
        .filter_map(|a| match a {
            Action::Send {
                conn: SUB,
                packet: Packet::Publish(p),
            } => Some(p),
            _ => None,
        })
        .collect();
    assert_eq!(got.len(), 1, "retained replay after restart: {got:?}");
    assert!(got[0].retain);
    assert_eq!(got[0].payload.as_ref(), b"v1");
}

#[test]
fn sharded_cross_shard_subscription_survives_restart() {
    let backends = vec![MemBackend::new(), MemBackend::new()];
    let sb = open_sharded(&backends);
    let sub_id = id_on_shard("sub", 0, 2);
    let pub_id = id_on_shard("pub", 1, 2);

    // Persistent subscriber on shard 0.
    sb.connection_opened(SUB, 0);
    let mut c = Connect::new(&sub_id);
    c.clean_session = false;
    sb.resolve(sb.handle_packet(&SUB, Packet::Connect(c.clone()), 0), 0);
    sb.resolve(
        sb.handle_packet(
            &SUB,
            Packet::Subscribe(Subscribe {
                packet_id: 1,
                filters: vec![SubscribeFilter {
                    filter: filter("s/#"),
                    qos: QoS::AtMostOnce,
                }],
            }),
            0,
        ),
        0,
    );

    drop(sb);
    let sb = open_sharded(&backends);
    assert!(
        sb.recovery_reports()[0]
            .state
            .sessions
            .contains_key(&sub_id),
        "shard 0 must have recovered the subscriber session"
    );

    // The subscriber comes back; a publisher on the *other* shard must
    // reach it purely through the rebuilt master subscription tree.
    sb.connection_opened(SUB, 1);
    sb.resolve(sb.handle_packet(&SUB, Packet::Connect(c), 1), 1);
    sb.connection_opened(PUB, 1);
    sb.resolve(
        sb.handle_packet(&PUB, Packet::Connect(Connect::new(&pub_id)), 1),
        1,
    );
    let out = sb.handle_packet(
        &PUB,
        Packet::Publish(Publish::qos0(topic("s/a"), b"x".to_vec())),
        2,
    );
    assert_eq!(out.forwards.len(), 1, "must forward to shard 0: {out:?}");
    // QoS 0 deliveries come back pre-encoded (SendFrame).
    let delivered = sb
        .resolve(out, 2)
        .into_iter()
        .filter(|a| {
            matches!(
                a,
                Action::Send { conn: SUB, .. } | Action::SendFrame { conn: SUB, .. }
            )
        })
        .count();
    assert_eq!(delivered, 1, "restored cross-shard subscription delivers");
}

// ---------------------------------------------------------------------------
// Offline queue + snapshot crash windows
// ---------------------------------------------------------------------------

/// Builds a broker with a persistent, *offline* QoS 1 subscriber and six
/// queued messages, exercising the requested snapshot-crash mode while
/// the queue builds up; then kills the broker and returns the backend.
fn queued_backend(mode: Option<SnapshotCrash>, snapshot_every: u64) -> MemBackend {
    let backend = MemBackend::new();
    let (mut broker, _) = Broker::<u8>::open_durable(
        BrokerConfig {
            wal_snapshot_every: snapshot_every,
            ..BrokerConfig::default()
        },
        Box::new(backend.clone()),
    )
    .expect("open");

    broker.connection_opened(SUB, 0);
    let mut c = Connect::new("s");
    c.clean_session = false;
    broker.handle_packet(&SUB, Packet::Connect(c), 0);
    broker.handle_packet(
        &SUB,
        Packet::Subscribe(Subscribe {
            packet_id: 1,
            filters: vec![SubscribeFilter {
                filter: filter("q/#"),
                qos: QoS::AtLeastOnce,
            }],
        }),
        0,
    );
    broker.connection_lost(&SUB, 1);

    if let Some(mode) = mode {
        backend.crash_next_snapshot(mode);
    }
    for i in 0..6u32 {
        let publish = Publish::qos1(topic("q/m"), seq_payload(0, i).to_vec(), 1);
        broker.publish_internal(publish, 2 + u64::from(i));
    }
    drop(broker);
    backend
}

/// Recovers from `backend`, reconnects the subscriber, and returns the
/// receipt ledger after draining the replayed queue.
fn drain_queue(backend: &MemBackend) -> SeqLedger {
    let (mut broker, _) =
        Broker::<u8>::open_durable(BrokerConfig::default(), Box::new(backend.clone()))
            .expect("recover");
    let mut ledger = SeqLedger::new();
    broker.connection_opened(SUB, 100);
    let mut c = Connect::new("s");
    c.clean_session = false;
    let mut wire: VecDeque<Packet> = sends(broker.handle_packet(&SUB, Packet::Connect(c), 100))
        .into_iter()
        .map(|(_, p)| p)
        .collect();
    for round in 0..50u64 {
        let now = 101 + round;
        while let Some(packet) = wire.pop_front() {
            if let Packet::Publish(p) = &packet {
                ledger.record_payload(p.payload.as_ref());
                let pid = p.packet_id.expect("qos1 has a pid");
                wire.extend(
                    sends(broker.handle_packet(&SUB, Packet::Puback(pid), now))
                        .into_iter()
                        .map(|(_, p)| p),
                );
            }
        }
        wire.extend(sends(broker.poll(now)).into_iter().map(|(_, p)| p));
        if wire.is_empty() && round > 2 {
            break;
        }
    }
    ledger
}

#[test]
fn queued_messages_survive_restart() {
    let backend = queued_backend(None, 0);
    let ledger = drain_queue(&backend);
    ledger.assert_exactly_once(1, 6);
}

#[test]
fn crash_before_snapshot_install_replays_from_log() {
    let backend = queued_backend(Some(SnapshotCrash::BeforeInstall), 4);
    let ledger = drain_queue(&backend);
    ledger.assert_exactly_once(1, 6);
}

#[test]
fn crash_between_install_and_truncate_does_not_double_deliver() {
    // The snapshot landed but the log it covers was never truncated —
    // replaying both must not double-apply the queued messages. Six
    // messages in, exactly six out.
    let backend = queued_backend(Some(SnapshotCrash::BetweenInstallAndTruncate), 4);
    let ledger = drain_queue(&backend);
    ledger.assert_exactly_once(1, 6);
}

#[test]
fn torn_snapshot_falls_back_to_log_replay() {
    let backend = queued_backend(Some(SnapshotCrash::TornWrite(10)), 4);
    let ledger = drain_queue(&backend);
    ledger.assert_exactly_once(1, 6);
}

/// Restart work is bounded by the snapshot cadence, not by the length of
/// the history: with snapshots on, recovery applies the live state plus
/// the records logged since the last snapshot — and rebuilds the same
/// state as replaying every record ever written.
#[test]
fn replay_applies_only_the_records_after_the_last_snapshot() {
    const PUBLISHES: u32 = 400;
    const TOPICS: u32 = 8;
    const SNAPSHOT_EVERY: u64 = 64;
    let history = |snapshot_every: u64| {
        let backend = MemBackend::new();
        let (mut broker, _) = Broker::<u8>::open_durable(
            BrokerConfig {
                wal_snapshot_every: snapshot_every,
                ..BrokerConfig::default()
            },
            Box::new(backend.clone()),
        )
        .expect("open");
        for i in 0..PUBLISHES {
            let mut p = Publish::qos0(
                topic(&format!("conf/{}", i % TOPICS)),
                seq_payload(0, i).to_vec(),
            );
            p.retain = true;
            broker.publish_internal(p, u64::from(i));
        }
        drop(broker);
        wal::recover(&mut backend.clone()).expect("recover")
    };
    let full = history(0);
    assert_eq!(full.snapshot_records, 0);
    assert_eq!(full.log_records, u64::from(PUBLISHES));
    let bounded = history(SNAPSHOT_EVERY);
    assert_eq!(bounded.state, full.state);
    assert_eq!(bounded.snapshot_records, u64::from(TOPICS));
    assert!(
        bounded.log_records < SNAPSHOT_EVERY,
        "replayed {} log records past a snapshot taken every {SNAPSHOT_EVERY}",
        bounded.log_records
    );
}

// ---------------------------------------------------------------------------
// Torn and corrupt log tails
// ---------------------------------------------------------------------------

/// A backend with a realistic multi-batch log (sessions, subscriptions,
/// retained messages, queued publishes) and no snapshot.
fn busy_backend() -> MemBackend {
    let backend = queued_backend(None, 0);
    let (mut broker, _) =
        Broker::<u8>::open_durable(BrokerConfig::default(), Box::new(backend.clone()))
            .expect("reopen");
    let mut p = Publish::qos0(topic("conf/x"), b"retained".to_vec());
    p.retain = true;
    broker.publish_internal(p, 50);
    backend
}

/// Folds the parsed batches of `log` into the state after each complete
/// batch: `states[k]` is the state once batches `0..k` applied.
fn prefix_states(log: &[u8]) -> Vec<DurableState> {
    let (batches, torn, _clean) = wal::parse_stream(log);
    assert!(!torn, "the full log must be clean");
    let mut states = vec![DurableState::default()];
    let mut acc = DurableState::default();
    for (_, records) in &batches {
        for rec in records {
            acc.apply(rec);
        }
        states.push(acc.clone());
    }
    states
}

#[test]
fn truncated_tail_recovers_a_clean_prefix_at_every_offset() {
    let full = busy_backend();
    let log = full.raw_log();
    let states = prefix_states(&log);
    let mut last_idx = 0usize;
    for cut in 0..=log.len() {
        let mut backend = MemBackend::new();
        backend.set_raw_log(log[..cut].to_vec());
        let report = wal::recover(&mut backend).expect("in-memory recovery cannot io-fail");
        let idx = states
            .iter()
            .position(|s| *s == report.state)
            .unwrap_or_else(|| panic!("cut at {cut}: not a batch-prefix state: {report:?}"));
        assert!(idx >= last_idx, "prefix states must be monotone in cut");
        last_idx = idx;
        if !report.log_truncated {
            // A clean parse means the cut landed exactly on a batch
            // boundary: the recovered state is the full state of the
            // bytes kept, not a truncation of them.
            assert_eq!(idx as u64, report.log_batches);
        }
    }
    assert_eq!(last_idx, states.len() - 1, "full log yields full state");
}

#[test]
fn bit_flipped_tail_recovers_a_clean_prefix_at_every_byte() {
    let full = busy_backend();
    let log = full.raw_log();
    let states = prefix_states(&log);
    for i in 0..log.len() {
        for bit in [0x01u8, 0x80u8] {
            let mut corrupt = log.clone();
            corrupt[i] ^= bit;
            let mut backend = MemBackend::new();
            backend.set_raw_log(corrupt);
            let report = wal::recover(&mut backend).expect("in-memory recovery cannot io-fail");
            assert!(
                states.contains(&report.state),
                "flip at byte {i} bit {bit:#x}: recovered state is not a \
                 clean batch prefix: {report:?}"
            );
        }
    }
}

#[test]
fn torn_append_forces_resync_snapshot() {
    // The classic torn write: an append only partially reaches the disk
    // and the backend reports the error. The broker's in-memory state
    // already holds the mutation, so the WAL must resync log and state
    // with a forced snapshot *in the same barrier* — otherwise the
    // acknowledged publish would silently diverge from the log.
    let backend = queued_backend(None, 0);
    let before = wal::recover(&mut backend.clone()).expect("recover").state;
    let whole = backend.log_len();
    backend.tear_log_at(whole + 3); // 3 bytes of the next batch land
    let (mut broker, _) =
        Broker::<u8>::open_durable(BrokerConfig::default(), Box::new(backend.clone()))
            .expect("reopen");
    let mut p = Publish::qos0(topic("conf/torn"), b"kept".to_vec());
    p.retain = true;
    broker.publish_internal(p, 60);
    let stats = broker.wal_stats().expect("durable broker has stats");
    assert_eq!(stats.append_errors, 1, "the torn append must be counted");
    assert!(
        stats.snapshots_installed >= 1,
        "a lost batch must force a resync snapshot in the same barrier: {stats:?}"
    );
    drop(broker);
    backend.clear_tear();

    let report = wal::recover(&mut backend.clone()).expect("recover");
    assert!(
        !report.log_truncated,
        "the resync snapshot replaced the torn log: {report:?}"
    );
    assert!(
        report.state.retained.contains_key("conf/torn"),
        "the acknowledged publish must survive via the resync snapshot"
    );
    assert_eq!(
        report.state.sessions["s"].queue.len(),
        before.sessions["s"].queue.len(),
        "pre-tear state must be carried over intact"
    );
    // And the queue still drains exactly once after the crash.
    drain_queue(&backend).assert_exactly_once(1, 6);
}

#[test]
fn double_crash_with_torn_tail_loses_no_post_restart_writes() {
    // The high-severity double-crash case: a crash leaves a torn tail on
    // the log; the restarted broker must physically repair it at open,
    // or everything it commits afterwards sits behind the corrupt bytes
    // and the *second* crash silently loses it.
    let backend = queued_backend(None, 0);
    let mut raw = backend.raw_log();
    raw.extend_from_slice(&[0x7f, 0x00, 0x01, 0x02, 0x03]); // torn final batch
    backend.set_raw_log(raw);

    let (mut broker, report) =
        Broker::<u8>::open_durable(BrokerConfig::default(), Box::new(backend.clone()))
            .expect("reopen over torn tail");
    assert!(report.log_truncated, "the torn tail must be detected");
    assert_eq!(
        backend.log_len(),
        report.clean_log_bytes,
        "open must physically truncate the torn tail"
    );
    let mut p = Publish::qos0(topic("conf/second"), b"survives".to_vec());
    p.retain = true;
    broker.publish_internal(p, 60);
    drop(broker); // second crash

    let report = wal::recover(&mut backend.clone()).expect("recover");
    assert!(
        !report.log_truncated,
        "the repaired log must replay cleanly: {report:?}"
    );
    assert!(
        report.state.retained.contains_key("conf/second"),
        "writes committed after the first restart must survive the second crash"
    );
    assert_eq!(report.state.sessions["s"].queue.len(), 6);
    drain_queue(&backend).assert_exactly_once(1, 6);
}

#[test]
fn recovered_broker_reports_wal_stats() {
    let backend = queued_backend(None, 0);
    let (mut broker, _) =
        Broker::<u8>::open_durable(BrokerConfig::default(), Box::new(backend.clone()))
            .expect("recover");
    let mut p = Publish::qos0(topic("conf/y"), b"z".to_vec());
    p.retain = true;
    broker.publish_internal(p, 70);
    let stats = broker.wal_stats().expect("durable broker has stats");
    assert!(stats.records_appended > 0);
    assert!(stats.batches_committed > 0);
    assert_eq!(stats.append_errors, 0);
}
