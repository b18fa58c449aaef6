//! Shared harness for the suites in `tests/`. [`check`] is the property
//! runner every seeded test uses, and the MQTT packet generator and the
//! reference encoder beside it live at the end of this file. The rest is
//! a sans-I/O publisher → broker → subscriber triangle with persistent
//! sessions, driven under arbitrary packet loss *and* arbitrary
//! forced-disconnect schedules, with reconnection handled by the real
//! [`ReconnectSupervisor`] — the same component the middleware node runs.
//! `tests/exactly_once.rs` drives it with concrete regression schedules
//! and `tests/proptests.rs` with generated ones. Smaller helpers other
//! suites share live here too, among them [`model_distance`] for the MIX
//! suites.
#![allow(dead_code)]

pub mod check;
pub mod oracle;
pub mod pair;

use std::collections::{BTreeMap, VecDeque};

use ifot::ml::feature::SparseWeights;
use ifot::ml::mix::ModelDiff;
use ifot::mqtt::broker::{Action, Broker, BrokerConfig};
use ifot::mqtt::client::{Client, ClientConfig, ClientEvent, ClientState};
use ifot::mqtt::packet::{
    Connack, Connect, ConnectReturnCode, LastWill, Packet, Publish, QoS, Suback, SubackCode,
    Subscribe, SubscribeFilter, Unsubscribe,
};
use ifot::mqtt::supervisor::{ReconnectConfig, ReconnectSupervisor, SupervisorAction};
use ifot::mqtt::topic::{TopicFilter, TopicName};
use ifot::mqtt::wal::{MemBackend, RecoveryReport};
use ifot::netsim::rng::SimRng;

use check::Gen;

pub const PUB: u8 = 1;
pub const SUB: u8 = 2;

/// Deterministic loss decision (LCG), ~`loss_pct`% drops.
pub struct Loss {
    state: u64,
    loss_pct: u64,
}

impl Loss {
    pub fn new(state: u64, loss_pct: u64) -> Self {
        Loss { state, loss_pct }
    }

    pub fn drop(&mut self) -> bool {
        self.state = self
            .state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.state >> 33) % 100 < self.loss_pct
    }
}

/// Lower-case hex of `bytes`, for golden-frame constants.
pub fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// `frame` with a LEB128 length of 2^64 − 1 (`FF×9 01`) spliced in at
/// `at`: wherever a length is read there, it claims more bytes than any
/// frame holds.
pub fn overflowing_length_at(frame: &[u8], at: usize) -> Vec<u8> {
    let mut out = frame[..at].to_vec();
    out.extend_from_slice(&[0xFF; 9]);
    out.push(0x01);
    out.extend_from_slice(&frame[at..]);
    out
}

/// What a chaotic run produced at the subscriber.
#[derive(Debug)]
pub struct ReconnectRun {
    /// payload → delivery count.
    pub delivered: BTreeMap<Vec<u8>, u32>,
    /// Session resumes observed (CONNACK with `session_present`).
    pub session_resumes: u64,
    /// Whether the run drained completely (all retransmission windows
    /// closed and both sides reconnected).
    pub settled: bool,
}

/// Publishes `count` messages at `qos` through a transport with
/// `loss_pct`% loss while `schedule` forcibly kills connections:
/// each entry `(time_ns, is_publisher)` tears down that side's
/// transport at the given virtual time (broker *and* client side, like
/// a TCP reset). Both sessions are persistent (`clean_session = false`)
/// and come back solely through the [`ReconnectSupervisor`], so QoS 1/2
/// in-flight state must survive arbitrary loss + reconnect schedules.
pub fn run_with_reconnects(
    qos: QoS,
    count: u32,
    loss_pct: u64,
    schedule: &[(u64, bool)],
    seed: u64,
) -> ReconnectRun {
    let cfg = || ClientConfig {
        retransmit_timeout_ns: 50,
        clean_session: false,
        ..ClientConfig::default()
    };
    // Timeouts in the same tiny virtual-nanosecond units as the tick.
    let sup = || {
        ReconnectSupervisor::new(
            ReconnectConfig {
                connect_timeout_ns: 200,
                backoff_base_ns: 100,
                backoff_max_ns: 1_000,
                jitter_frac: 0.25,
            },
            0, // keep-alive disabled: the schedule forces the failures
        )
    };
    let mut publisher = Client::new("pub", cfg());
    let mut subscriber = Client::new("sub", cfg());
    let mut pub_sup = sup();
    let mut sub_sup = sup();
    let mut broker: Broker<u8> = Broker::with_config(BrokerConfig {
        retransmit_timeout_ns: 50,
        ..Default::default()
    });
    let mut loss = Loss::new(seed | 1, loss_pct);
    let mut jitter = SimRng::seed_from(seed ^ 0xD1B5_4A32_D192_ED03);
    let mut delivered: BTreeMap<Vec<u8>, u32> = BTreeMap::new();
    let mut session_resumes = 0u64;

    let mut schedule: Vec<(u64, bool)> = schedule.to_vec();
    schedule.sort_unstable();
    let mut next_disruption = 0usize;

    let mut to_broker: Vec<(u8, Packet)> = Vec::new();
    let mut to_client: Vec<(u8, Packet)> = Vec::new();

    // Session setup on a lossless prefix at t=0: both CONNECTs and the
    // subscription land. Everything after is fair game (the persistent
    // sessions keep the subscription across every reconnect).
    broker.connection_opened(PUB, 0);
    broker.connection_opened(SUB, 0);
    for (conn, client, sup) in [
        (PUB, &mut publisher, &mut pub_sup),
        (SUB, &mut subscriber, &mut sub_sup),
    ] {
        let connect = client.connect().expect("first connect");
        sup.on_connect_sent(0);
        for action in broker.handle_packet(&conn, connect, 0) {
            if let Action::Send { packet, .. } = action {
                let (_, out) = client.handle_packet(packet, 0).expect("connack");
                assert!(out.is_empty(), "fresh session has nothing to replay");
            }
        }
        sup.on_connected(0);
    }
    let subscribe = subscriber
        .subscribe(vec![(TopicFilter::new("t/#").expect("valid"), qos)], 0)
        .expect("subscribe");
    for action in broker.handle_packet(&SUB, subscribe, 0) {
        if let Action::Send { packet, .. } = action {
            let _ = subscriber.handle_packet(packet, 0).expect("suback");
        }
    }

    // One new message enters the pipeline every 50 ticks; messages that
    // cannot be published while disconnected wait here (the harness
    // mirror of the node's offline queue).
    let mut pending: VecDeque<u32> = VecDeque::new();
    let mut next_pub: u32 = 0;
    let mut settled = false;

    let mut now = 0u64;
    for _ in 0..60_000 {
        now += 10;

        // Forced disconnects due at this tick.
        while next_disruption < schedule.len() && schedule[next_disruption].0 <= now {
            let (_, is_publisher) = schedule[next_disruption];
            next_disruption += 1;
            let (conn, client) = if is_publisher {
                (PUB, &mut publisher)
            } else {
                (SUB, &mut subscriber)
            };
            if client.state() != ClientState::Disconnected {
                client.transport_lost();
            }
            for action in broker.connection_lost(&conn, now) {
                if let Action::Send { conn, packet } = action {
                    if !loss.drop() {
                        to_client.push((conn, packet));
                    }
                }
            }
        }

        // Reconnect supervision for both sides.
        for (conn, client, sup) in [
            (PUB, &mut publisher, &mut pub_sup),
            (SUB, &mut subscriber, &mut sub_sup),
        ] {
            let action = sup.poll(client.state(), now, &mut || jitter.next_u64());
            match action {
                SupervisorAction::TransportLost => client.transport_lost(),
                SupervisorAction::Connect => {
                    broker.connection_opened(conn, now);
                    let packet = client.connect().expect("connect while disconnected");
                    sup.on_connect_sent(now);
                    if !loss.drop() {
                        to_broker.push((conn, packet));
                    }
                }
                SupervisorAction::None => {}
            }
        }

        // Offered load, buffered while the publisher is offline.
        if next_pub < count && now >= u64::from(next_pub) * 50 {
            pending.push_back(next_pub);
            next_pub += 1;
        }
        while publisher.state() == ClientState::Connected {
            let Some(i) = pending.pop_front() else { break };
            let packet = publisher
                .publish(
                    TopicName::new("t/x").expect("valid"),
                    i.to_be_bytes().to_vec(),
                    qos,
                    false,
                    now,
                )
                .expect("connected publish");
            if !loss.drop() {
                to_broker.push((PUB, packet));
            }
        }

        // Broker ingress.
        for (conn, packet) in std::mem::take(&mut to_broker) {
            for action in broker.handle_packet(&conn, packet, now) {
                if let Action::Send { conn, packet } = action {
                    if !loss.drop() {
                        to_client.push((conn, packet));
                    }
                }
            }
        }
        // Client ingress.
        for (conn, packet) in std::mem::take(&mut to_client) {
            let (client, sup) = if conn == PUB {
                (&mut publisher, &mut pub_sup)
            } else {
                (&mut subscriber, &mut sub_sup)
            };
            sup.on_inbound(now);
            let Ok((events, out)) = client.handle_packet(packet, now) else {
                continue;
            };
            for event in events {
                match event {
                    ClientEvent::Message(p) => {
                        *delivered.entry(p.payload.to_vec()).or_insert(0) += 1;
                    }
                    ClientEvent::Connected { session_present } => {
                        sup.on_connected(now);
                        if session_present {
                            session_resumes += 1;
                        }
                    }
                    _ => {}
                }
            }
            for packet in out {
                if !loss.drop() {
                    to_broker.push((conn, packet));
                }
            }
        }
        // Retransmissions.
        for (conn, client) in [(PUB, &mut publisher), (SUB, &mut subscriber)] {
            for packet in client.poll(now) {
                if !loss.drop() {
                    to_broker.push((conn, packet));
                }
            }
        }
        for action in broker.poll(now) {
            if let Action::Send { conn, packet } = action {
                if !loss.drop() {
                    to_client.push((conn, packet));
                }
            }
        }

        if next_disruption == schedule.len()
            && next_pub == count
            && pending.is_empty()
            && to_broker.is_empty()
            && to_client.is_empty()
            && publisher.state() == ClientState::Connected
            && subscriber.state() == ClientState::Connected
            && publisher.inflight_count() == 0
            && publisher.inflight2_count() == 0
            && delivered.len() == count as usize
        {
            settled = true;
            break;
        }
    }

    ReconnectRun {
        delivered,
        session_resumes,
        settled,
    }
}

/// Asserts the QoS-level delivery guarantee plus payload preservation
/// for a finished run.
pub fn assert_guarantee(run: &ReconnectRun, qos: QoS, count: u32) {
    assert!(run.settled, "run never drained: {run:?}");
    assert_eq!(
        run.delivered.len(),
        count as usize,
        "every message must arrive: {run:?}"
    );
    // Payload preservation: the delivered set is exactly the sent set.
    for i in 0..count {
        assert!(
            run.delivered.contains_key(i.to_be_bytes().as_slice()),
            "payload of message {i} was lost or corrupted"
        );
    }
    match qos {
        QoS::AtLeastOnce => assert!(
            run.delivered.values().all(|&n| n >= 1),
            "at-least-once violated: {run:?}"
        ),
        QoS::ExactlyOnce => assert!(
            run.delivered.values().all(|&n| n == 1),
            "exactly-once violated: {run:?}"
        ),
        QoS::AtMostOnce => unreachable!("QoS 0 has no delivery guarantee to assert"),
    }
}

/// What a broker-crash run produced.
#[derive(Debug)]
pub struct CrashRun {
    /// Receipt ledger at the subscriber (publisher id 0).
    pub ledger: SeqLedger,
    /// Session resumes observed (CONNACK with `session_present`).
    pub session_resumes: u64,
    /// Whether the run drained completely.
    pub settled: bool,
    /// Broker crashes executed.
    pub crashes: usize,
    /// Recovery report of every durable open: index 0 is the initial
    /// (empty) open, one more per crash/restart cycle.
    pub reports: Vec<RecoveryReport>,
}

/// Like [`run_with_reconnects`], but the *broker process* dies: at each
/// entry of `crash_times` the broker value is dropped on the floor —
/// along with every packet in flight on the wire — and a fresh broker is
/// recovered from the write-ahead log (shared [`MemBackend`]) as if the
/// process had been killed and restarted. Both clients keep their own
/// session state (their device didn't crash) and reconnect through the
/// real [`ReconnectSupervisor`]. Messages are published at `qos` with
/// [`seq_payload`]`(0, i)` payloads and receipts land in a [`SeqLedger`],
/// so callers can assert zero loss / zero duplication across restarts.
///
/// `snapshot_every` sets [`BrokerConfig::wal_snapshot_every`], letting
/// cells force frequent snapshot + truncate cycles mid-traffic.
pub fn run_with_broker_crashes(
    qos: QoS,
    count: u32,
    loss_pct: u64,
    crash_times: &[u64],
    seed: u64,
    snapshot_every: u64,
) -> CrashRun {
    let cfg = || ClientConfig {
        retransmit_timeout_ns: 50,
        clean_session: false,
        ..ClientConfig::default()
    };
    let sup = || {
        ReconnectSupervisor::new(
            ReconnectConfig {
                connect_timeout_ns: 200,
                backoff_base_ns: 100,
                backoff_max_ns: 1_000,
                jitter_frac: 0.25,
            },
            0,
        )
    };
    let broker_cfg = || BrokerConfig {
        retransmit_timeout_ns: 50,
        wal_snapshot_every: snapshot_every,
        ..Default::default()
    };
    let backend = MemBackend::new();
    let mut reports = Vec::new();
    let (mut broker, report) = Broker::<u8>::open_durable(broker_cfg(), Box::new(backend.clone()))
        .expect("initial durable open");
    reports.push(report);

    let mut publisher = Client::new("pub", cfg());
    let mut subscriber = Client::new("sub", cfg());
    let mut pub_sup = sup();
    let mut sub_sup = sup();
    let mut loss = Loss::new(seed | 1, loss_pct);
    let mut jitter = SimRng::seed_from(seed ^ 0xD1B5_4A32_D192_ED03);
    let mut ledger = SeqLedger::new();
    let mut session_resumes = 0u64;

    let mut crash_times: Vec<u64> = crash_times.to_vec();
    crash_times.sort_unstable();
    let mut next_crash = 0usize;
    let mut crashes = 0usize;

    let mut to_broker: Vec<(u8, Packet)> = Vec::new();
    let mut to_client: Vec<(u8, Packet)> = Vec::new();

    // Lossless session setup at t=0, as in `run_with_reconnects`.
    broker.connection_opened(PUB, 0);
    broker.connection_opened(SUB, 0);
    for (conn, client, sup) in [
        (PUB, &mut publisher, &mut pub_sup),
        (SUB, &mut subscriber, &mut sub_sup),
    ] {
        let connect = client.connect().expect("first connect");
        sup.on_connect_sent(0);
        for action in broker.handle_packet(&conn, connect, 0) {
            if let Action::Send { packet, .. } = action {
                let (_, out) = client.handle_packet(packet, 0).expect("connack");
                assert!(out.is_empty(), "fresh session has nothing to replay");
            }
        }
        sup.on_connected(0);
    }
    let subscribe = subscriber
        .subscribe(vec![(TopicFilter::new("t/#").expect("valid"), qos)], 0)
        .expect("subscribe");
    for action in broker.handle_packet(&SUB, subscribe, 0) {
        if let Action::Send { packet, .. } = action {
            let _ = subscriber.handle_packet(packet, 0).expect("suback");
        }
    }

    let mut pending: VecDeque<u32> = VecDeque::new();
    let mut next_pub: u32 = 0;
    let mut settled = false;

    let mut now = 0u64;
    for _ in 0..60_000 {
        now += 10;

        // Broker crashes due at this tick: the broker value and every
        // packet on the wire vanish; the replacement is rebuilt purely
        // from the WAL. Both clients see a transport reset.
        while next_crash < crash_times.len() && crash_times[next_crash] <= now {
            next_crash += 1;
            crashes += 1;
            drop(broker);
            to_broker.clear();
            to_client.clear();
            let (fresh, report) =
                Broker::<u8>::open_durable(broker_cfg(), Box::new(backend.clone()))
                    .expect("recover after crash");
            broker = fresh;
            reports.push(report);
            for client in [&mut publisher, &mut subscriber] {
                if client.state() != ClientState::Disconnected {
                    client.transport_lost();
                }
            }
        }

        // Reconnect supervision for both sides.
        for (conn, client, sup) in [
            (PUB, &mut publisher, &mut pub_sup),
            (SUB, &mut subscriber, &mut sub_sup),
        ] {
            let action = sup.poll(client.state(), now, &mut || jitter.next_u64());
            match action {
                SupervisorAction::TransportLost => client.transport_lost(),
                SupervisorAction::Connect => {
                    broker.connection_opened(conn, now);
                    let packet = client.connect().expect("connect while disconnected");
                    sup.on_connect_sent(now);
                    if !loss.drop() {
                        to_broker.push((conn, packet));
                    }
                }
                SupervisorAction::None => {}
            }
        }

        // Offered load, buffered while the publisher is offline.
        if next_pub < count && now >= u64::from(next_pub) * 50 {
            pending.push_back(next_pub);
            next_pub += 1;
        }
        while publisher.state() == ClientState::Connected {
            let Some(i) = pending.pop_front() else { break };
            let packet = publisher
                .publish(
                    TopicName::new("t/x").expect("valid"),
                    seq_payload(0, i).to_vec(),
                    qos,
                    false,
                    now,
                )
                .expect("connected publish");
            if !loss.drop() {
                to_broker.push((PUB, packet));
            }
        }

        // Broker ingress.
        for (conn, packet) in std::mem::take(&mut to_broker) {
            for action in broker.handle_packet(&conn, packet, now) {
                if let Action::Send { conn, packet } = action {
                    if !loss.drop() {
                        to_client.push((conn, packet));
                    }
                }
            }
        }
        // Client ingress.
        for (conn, packet) in std::mem::take(&mut to_client) {
            let (client, sup) = if conn == PUB {
                (&mut publisher, &mut pub_sup)
            } else {
                (&mut subscriber, &mut sub_sup)
            };
            sup.on_inbound(now);
            let Ok((events, out)) = client.handle_packet(packet, now) else {
                continue;
            };
            for event in events {
                match event {
                    ClientEvent::Message(p) => {
                        ledger.record_payload(p.payload.as_ref());
                    }
                    ClientEvent::Connected { session_present } => {
                        sup.on_connected(now);
                        if session_present {
                            session_resumes += 1;
                        }
                    }
                    _ => {}
                }
            }
            for packet in out {
                if !loss.drop() {
                    to_broker.push((conn, packet));
                }
            }
        }
        // Retransmissions.
        for (conn, client) in [(PUB, &mut publisher), (SUB, &mut subscriber)] {
            for packet in client.poll(now) {
                if !loss.drop() {
                    to_broker.push((conn, packet));
                }
            }
        }
        for action in broker.poll(now) {
            if let Action::Send { conn, packet } = action {
                if !loss.drop() {
                    to_client.push((conn, packet));
                }
            }
        }

        if next_crash == crash_times.len()
            && next_pub == count
            && pending.is_empty()
            && to_broker.is_empty()
            && to_client.is_empty()
            && publisher.state() == ClientState::Connected
            && subscriber.state() == ClientState::Connected
            && publisher.inflight_count() == 0
            && publisher.inflight2_count() == 0
            && ledger.distinct() == count as usize
        {
            settled = true;
            break;
        }
    }

    CrashRun {
        ledger,
        session_resumes,
        settled,
        crashes,
        reports,
    }
}

/// Encodes a `(publisher, seq)` pair as the 8-byte big-endian payload
/// the sequence-ledger stress tests publish.
pub fn seq_payload(publisher: u32, seq: u32) -> [u8; 8] {
    let mut out = [0u8; 8];
    out[..4].copy_from_slice(&publisher.to_be_bytes());
    out[4..].copy_from_slice(&seq.to_be_bytes());
    out
}

/// Receipt ledger for multi-publisher stress runs: every delivery is
/// recorded as a `(publisher, seq)` pair, and the final assertion proves
/// the per-publisher sequence spaces were delivered with **zero loss and
/// zero duplication** — the strongest statement a concurrent QoS 1 run
/// can make when no retransmission was provoked.
#[derive(Debug, Default)]
pub struct SeqLedger {
    counts: BTreeMap<(u32, u32), u32>,
    total: u64,
    malformed: u64,
}

impl SeqLedger {
    pub fn new() -> Self {
        SeqLedger::default()
    }

    /// Records one received copy of `(publisher, seq)`.
    pub fn record(&mut self, publisher: u32, seq: u32) {
        *self.counts.entry((publisher, seq)).or_insert(0) += 1;
        self.total += 1;
    }

    /// Records a receipt from its [`seq_payload`] wire form.
    pub fn record_payload(&mut self, payload: &[u8]) {
        if payload.len() != 8 {
            self.malformed += 1;
            self.total += 1;
            return;
        }
        let publisher = u32::from_be_bytes(payload[..4].try_into().expect("4 bytes"));
        let seq = u32::from_be_bytes(payload[4..].try_into().expect("4 bytes"));
        self.record(publisher, seq);
    }

    /// Total receipts recorded (duplicates included).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of distinct `(publisher, seq)` pairs received so far.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Asserts the full cross product `publishers × per_publisher` was
    /// received at least once each (duplicates tolerated — the QoS 1
    /// contract), with nothing malformed and nothing outside the space.
    pub fn assert_at_least_once(&self, publishers: u32, per_publisher: u32) {
        assert_eq!(self.malformed, 0, "malformed payloads received");
        let mut lost = Vec::new();
        for p in 0..publishers {
            for s in 0..per_publisher {
                if !self.counts.contains_key(&(p, s)) {
                    lost.push((p, s));
                }
            }
        }
        assert!(lost.is_empty(), "lost messages: {lost:?}");
        let strays: Vec<_> = self
            .counts
            .keys()
            .filter(|(p, s)| *p >= publishers || *s >= per_publisher)
            .collect();
        assert!(strays.is_empty(), "receipts outside the space: {strays:?}");
    }

    /// Asserts the full cross product `publishers × per_publisher` was
    /// received exactly once each, with nothing extra and nothing
    /// malformed.
    pub fn assert_exactly_once(&self, publishers: u32, per_publisher: u32) {
        assert_eq!(self.malformed, 0, "malformed payloads received");
        let mut lost = Vec::new();
        for p in 0..publishers {
            for s in 0..per_publisher {
                match self.counts.get(&(p, s)) {
                    None => lost.push((p, s)),
                    Some(1) => {}
                    Some(n) => panic!("message ({p}, {s}) delivered {n} times"),
                }
            }
        }
        assert!(lost.is_empty(), "lost messages: {lost:?}");
        assert_eq!(
            self.total,
            u64::from(publishers) * u64::from(per_publisher),
            "receipts outside the expected sequence space: {:?}",
            self.counts
                .keys()
                .filter(|(p, s)| *p >= publishers || *s >= per_publisher)
                .collect::<Vec<_>>()
        );
    }
}

// ---------------------------------------------------------------------
// MQTT packets: a generator and the reference encoder
// ---------------------------------------------------------------------

/// The characters of a generated topic level: ASCII and four outside it,
/// two, three and four UTF-8 bytes long.
const LEVEL: &str = "abcdefghijklmnopqrstuvwxyz0123456789_éÿ温🌡";

/// One to six characters of [`LEVEL`].
fn topic_level(g: &mut Gen) -> String {
    g.string(LEVEL, 1, 7)
}

/// One to four levels.
pub fn topic_name(g: &mut Gen) -> String {
    g.vec(1, 5, topic_level).join("/")
}

/// One to four levels, one in five of them `+`, then `/#` one time in four.
pub fn topic_filter(g: &mut Gen) -> String {
    let levels = g.vec(1, 5, |g| {
        if g.below(5) == 0 {
            "+".to_owned()
        } else {
            topic_level(g)
        }
    });
    let base = levels.join("/");
    if g.below(4) == 0 {
        format!("{base}/#")
    } else {
        base
    }
}

pub fn qos(g: &mut Gen) -> QoS {
    g.pick(&[QoS::AtMostOnce, QoS::AtLeastOnce, QoS::ExactlyOnce])
}

fn packet_id(g: &mut Gen) -> u16 {
    1 + g.below(u64::from(u16::MAX)) as u16
}

/// Random bytes whose frame needs a one-, two- (either side of 128) or
/// three-byte remaining length.
fn payload(g: &mut Gen) -> Vec<u8> {
    let at_least = g.pick(&[0, 120, 16_380]);
    g.bytes(at_least, at_least + 100)
}

/// A publish at any QoS, with the dup flag only where it is legal.
fn publish(g: &mut Gen) -> Publish {
    let topic = TopicName::new(topic_name(g)).expect("generated topics are valid");
    let mut p = Publish::qos0(topic, payload(g));
    p.qos = qos(g);
    if p.qos != QoS::AtMostOnce {
        p.packet_id = Some(packet_id(g));
        p.dup = g.chance(0.5);
    }
    p.retain = g.chance(0.5);
    p
}

/// A CONNECT with a will, a user name and a password each present or not.
fn connect(g: &mut Gen) -> Connect {
    let mut c = Connect::new(g.string("abcdefghijklmnopqrstuvwxyz0123456789-", 0, 13));
    c.clean_session = g.chance(0.5);
    c.keep_alive_secs = g.next_u64() as u16;
    c.will = g.chance(0.5).then(|| LastWill {
        topic: TopicName::new(topic_name(g)).expect("generated topics are valid"),
        payload: g.bytes(0, 32).into(),
        qos: qos(g),
        retain: g.chance(0.5),
    });
    c.username = g.chance(0.5).then(|| topic_level(g));
    c.password = g.chance(0.5).then(|| g.bytes(0, 16).into());
    c
}

/// Any of the fourteen packet kinds, each as likely: every CONNACK and
/// SUBACK code, one to three filters a (UN)SUBSCRIBE.
pub fn packet(g: &mut Gen) -> Packet {
    match g.below(14) {
        0 => Packet::Connect(connect(g)),
        1 => Packet::Connack(Connack {
            session_present: g.chance(0.5),
            code: ConnectReturnCode::from_byte(g.below(6) as u8).expect("codes 0 to 5 exist"),
        }),
        2 => Packet::Publish(publish(g)),
        3 => Packet::Puback(packet_id(g)),
        4 => Packet::Pubrec(packet_id(g)),
        5 => Packet::Pubrel(packet_id(g)),
        6 => Packet::Pubcomp(packet_id(g)),
        7 => Packet::Subscribe(Subscribe {
            packet_id: packet_id(g),
            filters: g.vec(1, 4, |g| SubscribeFilter {
                filter: TopicFilter::new(topic_filter(g)).expect("generated filters are valid"),
                qos: qos(g),
            }),
        }),
        8 => Packet::Suback(Suback {
            packet_id: packet_id(g),
            codes: g.vec(1, 4, |g| {
                SubackCode::from_byte(g.pick(&[0, 1, 2, 0x80])).expect("the four codes exist")
            }),
        }),
        9 => Packet::Unsubscribe(Unsubscribe {
            packet_id: packet_id(g),
            filters: g.vec(1, 4, |g| {
                TopicFilter::new(topic_filter(g)).expect("generated filters are valid")
            }),
        }),
        10 => Packet::Unsuback(packet_id(g)),
        11 => Packet::Pingreq,
        12 => Packet::Pingresp,
        _ => Packet::Disconnect,
    }
}

/// The two-buffer encoder `codec::encode` replaced (body grown field by
/// field, then copied behind its header), kept as the reference the
/// single-write encoder must match byte for byte.
pub fn reference_encode(packet: &Packet) -> Vec<u8> {
    fn put_u16(out: &mut Vec<u8>, v: u16) {
        out.extend_from_slice(&v.to_be_bytes());
    }
    fn put_field(out: &mut Vec<u8>, b: &[u8]) {
        put_u16(out, b.len() as u16);
        out.extend_from_slice(b);
    }
    let mut body = Vec::new();
    let flags = match packet {
        Packet::Connect(c) => {
            put_field(&mut body, b"MQTT");
            body.push(4);
            let mut flags = 0u8;
            if c.clean_session {
                flags |= 0b0000_0010;
            }
            if let Some(w) = &c.will {
                flags |= 0b0000_0100 | (w.qos.bits() << 3);
                if w.retain {
                    flags |= 0b0010_0000;
                }
            }
            if c.password.is_some() {
                flags |= 0b0100_0000;
            }
            if c.username.is_some() {
                flags |= 0b1000_0000;
            }
            body.push(flags);
            put_u16(&mut body, c.keep_alive_secs);
            put_field(&mut body, c.client_id.as_bytes());
            if let Some(w) = &c.will {
                put_field(&mut body, w.topic.as_str().as_bytes());
                put_field(&mut body, &w.payload);
            }
            if let Some(u) = &c.username {
                put_field(&mut body, u.as_bytes());
            }
            if let Some(p) = &c.password {
                put_field(&mut body, p);
            }
            0
        }
        Packet::Connack(c) => {
            body.push(u8::from(c.session_present));
            body.push(c.code.to_byte());
            0
        }
        Packet::Publish(p) => {
            put_field(&mut body, p.topic.as_str().as_bytes());
            if p.qos != QoS::AtMostOnce {
                put_u16(
                    &mut body,
                    p.packet_id.expect("qos>0 publish carries a packet id"),
                );
            }
            body.extend_from_slice(&p.payload);
            (u8::from(p.dup) << 3) | (p.qos.bits() << 1) | u8::from(p.retain)
        }
        Packet::Puback(pid)
        | Packet::Pubrec(pid)
        | Packet::Pubcomp(pid)
        | Packet::Unsuback(pid) => {
            put_u16(&mut body, *pid);
            0
        }
        Packet::Pubrel(pid) => {
            put_u16(&mut body, *pid);
            0b0010
        }
        Packet::Subscribe(s) => {
            put_u16(&mut body, s.packet_id);
            for f in &s.filters {
                put_field(&mut body, f.filter.as_str().as_bytes());
                body.push(f.qos.bits());
            }
            0b0010
        }
        Packet::Suback(s) => {
            put_u16(&mut body, s.packet_id);
            body.extend(s.codes.iter().map(|c| c.to_byte()));
            0
        }
        Packet::Unsubscribe(u) => {
            put_u16(&mut body, u.packet_id);
            for f in &u.filters {
                put_field(&mut body, f.as_str().as_bytes());
            }
            0b0010
        }
        Packet::Pingreq | Packet::Pingresp | Packet::Disconnect => 0,
    };
    let mut out = vec![(packet.packet_type() << 4) | flags];
    let mut len = body.len();
    loop {
        let mut byte = (len % 128) as u8;
        len /= 128;
        if len > 0 {
            byte |= 0x80;
        }
        out.push(byte);
        if len == 0 {
            break;
        }
    }
    out.extend_from_slice(&body);
    out
}

/// Squared L2 distance between two model snapshots (union of labels and
/// feature indices; absent entries read as zero).
pub fn model_distance(a: &ModelDiff, b: &ModelDiff) -> f64 {
    let mut labels: Vec<&str> = a.labels().chain(b.labels()).collect();
    labels.sort_unstable();
    labels.dedup();
    let empty = SparseWeights::new();
    let mut sum = 0.0;
    for label in labels {
        let wa = a.label(label).unwrap_or(&empty);
        let wb = b.label(label).unwrap_or(&empty);
        let mut idx: Vec<u32> = wa
            .iter()
            .map(|(i, _)| i)
            .chain(wb.iter().map(|(i, _)| i))
            .collect();
        idx.sort_unstable();
        idx.dedup();
        for i in idx {
            let d = wa.get(i) - wb.get(i);
            sum += d * d;
        }
    }
    sum
}
