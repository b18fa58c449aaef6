//! The bytes did not move: MQTT frames and write-ahead-log bytes against
//! goldens recorded at the commit before the broker's per-packet path
//! stopped allocating its scratch (PR 20), and the stream decoder against
//! itself under every chunking, and the frames a broker forwards — kept
//! as they arrived or encoded — against frames assembled by hand.
//! Seed-driven sweeps, so they run on the offline build too; a failure
//! prints its seed. (What needs crate
//! internals sits beside them: the per-kind record writers against
//! `encode_record` in `wal.rs` and `broker.rs`, the decoder's buffer
//! bounds in `codec.rs`.)

use bytes::Bytes;
use ifot::mqtt::broker::{Action, Broker, BrokerConfig};
use ifot::mqtt::codec::{encode, encode_qos0_delivery, StreamDecoder};
use ifot::mqtt::packet::{
    Connack, Connect, ConnectReturnCode, LastWill, Packet, Publish, QoS, Suback, SubackCode,
    Subscribe, SubscribeFilter, Unsubscribe,
};
use ifot::mqtt::shard::{shard_of, ShardedBroker};
use ifot::mqtt::topic::{TopicFilter, TopicName};
use ifot::mqtt::wal::MemBackend;
use ifot::netsim::rng::SimRng;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn topic(s: &str) -> TopicName {
    TopicName::new(s).expect("valid topic")
}

// ---------------------------------------------------------------------------
// (a) WAL: a golden log
// ---------------------------------------------------------------------------

/// Answers every delivery in `actions` the way a well-behaved subscriber
/// does, feeding the acknowledgements (and what they provoke) back in.
fn acknowledge(broker: &mut Broker<u32>, actions: Vec<Action<u32>>, now: u64) {
    let mut pending = actions;
    while !pending.is_empty() {
        let mut next = Vec::new();
        for action in pending {
            let Action::Send { conn, packet } = action else {
                continue;
            };
            let reply = match packet {
                Packet::Publish(p) if p.qos == QoS::AtLeastOnce => {
                    Packet::Puback(p.packet_id.expect("qos 1 carries an id"))
                }
                Packet::Publish(p) if p.qos == QoS::ExactlyOnce => {
                    Packet::Pubrec(p.packet_id.expect("qos 2 carries an id"))
                }
                Packet::Pubrel(id) => Packet::Pubcomp(id),
                _ => continue,
            };
            next.extend(broker.handle_packet(&conn, reply, now));
        }
        pending = next;
    }
}

fn connect(
    broker: &mut Broker<u32>,
    conn: u32,
    id: &str,
    clean: bool,
    now: u64,
) -> Vec<Action<u32>> {
    broker.connection_opened(conn, now);
    let mut c = Connect::new(id);
    c.clean_session = clean;
    broker.handle_packet(&conn, Packet::Connect(c), now)
}

fn scripted_durable_session() -> Vec<u8> {
    let backend = MemBackend::new();
    let config = BrokerConfig {
        wal_snapshot_every: 0,
        max_inflight: 2,
        ..BrokerConfig::default()
    };
    let (mut broker, _) =
        Broker::open_durable(config, Box::new(backend.clone())).expect("fresh backend opens");
    // Four persistent subscribers (two at QoS 1, two at QoS 2) and a
    // persistent publisher.
    let subs = [
        ("sub-a", QoS::AtLeastOnce),
        ("sub-b", QoS::AtLeastOnce),
        ("sub-ç", QoS::ExactlyOnce),
        ("sub-d", QoS::ExactlyOnce),
    ];
    for (i, (id, qos)) in subs.iter().enumerate() {
        let conn = i as u32 + 1;
        connect(&mut broker, conn, id, false, 1);
        broker.handle_packet(
            &conn,
            Packet::Subscribe(Subscribe {
                packet_id: 1,
                filters: vec![SubscribeFilter {
                    filter: TopicFilter::new("t/#").expect("valid filter"),
                    qos: *qos,
                }],
            }),
            2,
        );
    }
    connect(&mut broker, 9, "pub", false, 3);

    // QoS 1 and QoS 2 publishes at fan-out 4, fully acknowledged.
    let out = broker.handle_packet(
        &9,
        Packet::Publish(Publish::qos1(topic("t/x"), b"one".to_vec(), 10)),
        4,
    );
    acknowledge(&mut broker, out, 5);
    let mut two = Publish::qos1(topic("t/ÿ/z"), vec![0xAB; 40], 11);
    two.qos = QoS::ExactlyOnce;
    let out = broker.handle_packet(&9, Packet::Publish(two), 6);
    acknowledge(&mut broker, out, 7);
    let out = broker.handle_packet(&9, Packet::Pubrel(11), 8);
    acknowledge(&mut broker, out, 8);

    // A retained message set, then cleared.
    let mut kept = Publish::qos1(topic("t/kept"), b"keep".to_vec(), 12);
    kept.retain = true;
    let out = broker.handle_packet(&9, Packet::Publish(kept), 9);
    acknowledge(&mut broker, out, 9);
    let mut cleared = Publish::qos0(topic("t/kept"), Bytes::new());
    cleared.retain = true;
    let out = broker.handle_packet(&9, Packet::Publish(cleared), 10);
    acknowledge(&mut broker, out, 10);

    // sub-a drops off; three publishes queue for it (and overflow the
    // in-flight window of the others until they acknowledge).
    let out = broker.connection_lost(&1, 11);
    acknowledge(&mut broker, out, 11);
    let mut held = Vec::new();
    for (i, pid) in (20u16..23).enumerate() {
        held.extend(broker.handle_packet(
            &9,
            Packet::Publish(Publish::qos1(topic("t/q"), vec![i as u8; 3], pid)),
            12 + i as u64,
        ));
    }
    acknowledge(&mut broker, held, 16);
    // It comes back: the queue flushes into its in-flight window.
    let out = connect(&mut broker, 1, "sub-a", false, 17);
    acknowledge(&mut broker, out, 18);

    // Unsubscribe, a clean-session takeover, and a timer pass.
    let out = broker.handle_packet(
        &2,
        Packet::Unsubscribe(Unsubscribe {
            packet_id: 2,
            filters: vec![TopicFilter::new("t/#").expect("valid filter")],
        }),
        19,
    );
    acknowledge(&mut broker, out, 19);
    let out = connect(&mut broker, 12, "sub-b", true, 20);
    acknowledge(&mut broker, out, 20);
    let out = broker.poll(21);
    acknowledge(&mut broker, out, 21);
    backend.raw_log()
}

/// The log of [`scripted_durable_session`], as the commit before PR 20
/// wrote it (every record kind but the snapshot header, 46 batches).
const GOLDEN_LOG: &[&str] = &[
    "0b8699752301010102057375622d61000f4fc2852101020104057375622d6103742f23010b781aad0c01030102057375",
    "622d62000f57fbd35f01040104057375622d6203742f23010c406b16d301050102067375622dc3a70010767a438c0106",
    "0104067375622dc3a703742f23020b841d1c5301070102057375622d64000fddd8763a01080104057375622d6403742f",
    "230209abc8ec2c01090102037075620050c5a9aef5010a040a057375622d61010003742f780100036f6e650a05737562",
    "2d62010003742f780100036f6e650a057375622d64010003742f780100036f6e650a067375622dc3a7010003742f7801",
    "00036f6e650beb2bda56010b010c057375622d61010b51632b9f010c010c057375622d62010be9afb326010d010c0573",
    "75622d64010c0007f24f010e010c067375622dc3a701f601fb9b79ee010f050d037075620b0a057375622d6102000674",
    "2fc3bf2f7a010028abababababababababababababababababababababababababababababababababababababababab",
    "0a057375622d62020006742fc3bf2f7a010028ababababababababababababababababababababababababababababab",
    "ababababababababababab0a057375622d64020106742fc3bf2f7a020028abababababababababababababababababab",
    "abababababababababababababababababababababab0a067375622dc3a7020106742fc3bf2f7a020028abababababab",
    "abababababababababababababababababababababababababababababababababab0b4e009d100110010c057375622d",
    "61020bb33872d40111010c057375622d62020cd569be970112010b057375622d6402020d0ed805670113010b06737562",
    "2dc3a702020b715401640114010c057375622d64020c35152c5b0115010c067375622dc3a70209dff267690116010e03",
    "7075620b6fd7c7013f0117050606742f6b6570740101046b6565700a057375622d61030006742f6b6570740100046b65",
    "65700a057375622d62030006742f6b6570740100046b6565700a057375622d64030006742f6b6570740100046b656570",
    "0a067375622dc3a7030006742f6b6570740100046b6565700b2c704d740118010c057375622d61030bd148a2b0011901",
    "0c057375622d62030b5454cf0d011a010c057375622d64030ca50e5d7e011b010c067375622dc3a7030b3265bbe0011c",
    "010706742f6b6570744e852a4ef2011d0408057375622d6103742f710100030000000a057375622d62040003742f7101",
    "00030000000a057375622d64040003742f710100030000000a067375622dc3a7040003742f710100030000004e9f5128",
    "8f011e0408057375622d6103742f710100030101010a057375622d62050003742f710100030101010a057375622d6405",
    "0003742f710100030101010a067375622dc3a7050003742f710100030101014812b7dcda011f0408057375622d610374",
    "2f7101000302020208057375622d6203742f7101000302020208057375622d6403742f7101000302020208067375622d",
    "c3a703742f710100030202022537a144020120030c057375622d620409057375622d620a057375622d62060003742f71",
    "01000302020225e4394eb60121030c057375622d640409057375622d640a057375622d64060003742f71010003020202",
    "28dd6c07260122030c067375622dc3a70409067375622dc3a70a067375622dc3a7060003742f710100030202020b15ff",
    "10260123010c057375622d62050bea4396920124010c057375622d64050c8acb22ed0125010c067375622dc3a7050beb",
    "6530590126010c057375622d62060b53a9a8e00127010c057375622d64060c37d7bfbf0128010c067375622dc3a7063f",
    "4669d05d01290502057375622d610309057375622d610a057375622d61040003742f7101000300000009057375622d61",
    "0a057375622d61050003742f71010003010101255199c993012a030c057375622d610409057375622d610a057375622d",
    "61060003742f710100030202020b22ecea1e012b010c057375622d61050be1a63f65012c010c057375622d61060ec3b1",
    "7c2c012d0105057375622d6203742f230aad5ea2c1012e0103057375622d62",
];

#[test]
fn a_scripted_durable_session_logs_the_same_bytes() {
    let log = scripted_durable_session();
    let golden = GOLDEN_LOG.concat();
    assert_eq!(log.len() * 2, golden.len(), "log length");
    assert!(hex(&log) == golden, "log bytes moved:\n{}", hex(&log));
}

// ---------------------------------------------------------------------------
// (b) MQTT frames
// ---------------------------------------------------------------------------

#[test]
fn mqtt_frames_equal_their_goldens() {
    assert_eq!(hex(&encode(&Packet::Puback(0x1234))), "40021234");
    let q0 = Publish::qos0(topic("sensor/1/sound"), vec![1, 2, 3]);
    assert_eq!(
        hex(&encode(&Packet::Publish(q0))),
        "3013000e73656e736f722f312f736f756e64010203"
    );
    let mut q1 = Publish::qos1(topic("sensor/1/sound"), vec![4, 5, 6, 7], 0x0102);
    q1.retain = true;
    assert_eq!(
        hex(&encode(&Packet::Publish(q1.clone()))),
        "3316000e73656e736f722f312f736f756e64010204050607"
    );
    // A two-byte remaining length: 200 bytes of payload.
    let mut q2 = q1;
    q2.qos = QoS::ExactlyOnce;
    q2.dup = true;
    q2.retain = false;
    q2.payload = vec![9u8; 200].into();
    let nines = "09".repeat(200);
    assert_eq!(
        hex(&encode(&Packet::Publish(q2.clone()))),
        format!("3cda01000e73656e736f722f312f736f756e640102{nines}")
    );
    assert_eq!(
        hex(&encode_qos0_delivery(&q2)),
        format!("30d801000e73656e736f722f312f736f756e64{nines}")
    );
}

// ---------------------------------------------------------------------------
// (c) the stream decoder under every chunking
// ---------------------------------------------------------------------------

/// A string of `len` characters, one in four of them outside ASCII.
fn text(rng: &mut SimRng, len: usize) -> String {
    (0..len)
        .map(|_| match rng.below(4) {
            0 => ['é', 'ÿ', '温', '🌡'][rng.below(4) as usize],
            _ => (b'a' + rng.below(26) as u8) as char,
        })
        .collect()
}

fn generated_packet(rng: &mut SimRng) -> Packet {
    let name = |rng: &mut SimRng| {
        let n = 1 + rng.below(12) as usize;
        format!("s/{}", text(rng, n))
    };
    let pid = |rng: &mut SimRng| 1 + rng.below(u64::from(u16::MAX)) as u16;
    match rng.below(12) {
        0 => {
            let mut c = Connect::new(name(rng));
            c.keep_alive_secs = rng.next_u64() as u16;
            c.clean_session = rng.chance(0.5);
            if rng.chance(0.5) {
                c.will = Some(LastWill {
                    topic: topic(&name(rng)),
                    payload: vec![7; rng.below(20) as usize].into(),
                    qos: QoS::AtLeastOnce,
                    retain: rng.chance(0.5),
                });
                c.username = Some(name(rng));
                c.password = Some(vec![1; rng.below(9) as usize].into());
            }
            Packet::Connect(c)
        }
        1 => Packet::Connack(Connack {
            session_present: rng.chance(0.5),
            code: ConnectReturnCode::Accepted,
        }),
        // Payloads from empty to past the two-byte remaining length.
        2..=4 => {
            let len = [0usize, 5, 130, 20_000][rng.below(4) as usize];
            let payload = vec![rng.next_u64() as u8; len];
            let mut p = Publish::qos0(topic(&name(rng)), payload);
            if rng.chance(0.6) {
                p.qos = [QoS::AtLeastOnce, QoS::ExactlyOnce][rng.below(2) as usize];
                p.packet_id = Some(pid(rng));
                p.dup = rng.chance(0.3);
            }
            p.retain = rng.chance(0.3);
            Packet::Publish(p)
        }
        5 => Packet::Puback(pid(rng)),
        6 => Packet::Pubrec(pid(rng)),
        7 => Packet::Pubrel(pid(rng)),
        8 => Packet::Pubcomp(pid(rng)),
        9 => Packet::Subscribe(Subscribe {
            packet_id: pid(rng),
            filters: vec![SubscribeFilter {
                filter: TopicFilter::new(format!("{}/#", name(rng))).expect("valid filter"),
                qos: QoS::AtLeastOnce,
            }],
        }),
        10 => match rng.below(3) {
            0 => Packet::Suback(Suback {
                packet_id: pid(rng),
                codes: vec![SubackCode::Granted(QoS::AtLeastOnce), SubackCode::Failure],
            }),
            1 => Packet::Unsubscribe(Unsubscribe {
                packet_id: pid(rng),
                filters: vec![TopicFilter::new(name(rng)).expect("valid filter")],
            }),
            _ => Packet::Unsuback(pid(rng)),
        },
        _ => [Packet::Pingreq, Packet::Pingresp, Packet::Disconnect][rng.below(3) as usize].clone(),
    }
}

/// Everything `wire` decodes to when fed in chunks whose lengths `next_len`
/// chooses.
fn decoded_in_chunks(wire: &[u8], mut next_len: impl FnMut() -> usize) -> Vec<Packet> {
    let mut dec = StreamDecoder::new();
    let mut got = Vec::new();
    let mut pos = 0;
    while pos < wire.len() {
        let end = (pos + next_len().max(1)).min(wire.len());
        dec.feed(&wire[pos..end]);
        pos = end;
        while let Some(p) = dec.next_packet().expect("a valid stream") {
            got.push(p);
        }
    }
    assert_eq!(dec.buffered(), 0, "whole frames leave nothing behind");
    got
}

#[test]
fn a_stream_decodes_the_same_under_every_chunking() {
    let mut rng = SimRng::seed_from(0x5EED);
    let packets: Vec<Packet> = (0..200).map(|_| generated_packet(&mut rng)).collect();
    let mut wire = Vec::new();
    for p in &packets {
        wire.extend_from_slice(&encode(p));
    }
    assert_eq!(
        decoded_in_chunks(&wire, || usize::MAX),
        packets,
        "one chunk"
    );
    // One byte at a time cuts every header, every remaining-length varint
    // and every field.
    assert_eq!(decoded_in_chunks(&wire, || 1), packets, "1-byte chunks");
    for seed in 0..1_000 {
        let mut rng = SimRng::seed_from(seed);
        // Mostly short chunks (cuts inside headers and varints), some long
        // enough to carry several frames.
        let scale = [3u64, 9, 64, 5_000][rng.below(4) as usize];
        let got = decoded_in_chunks(&wire, || 1 + rng.below(scale) as usize);
        assert!(got == packets, "chunking seed {seed} (scale {scale})");
    }
}

#[test]
fn a_corrupt_frame_is_an_error_and_never_a_panic() {
    let mut rng = SimRng::seed_from(7);
    let frames: Vec<Bytes> = (0..64)
        .map(|_| encode(&generated_packet(&mut rng)))
        .collect();
    let mut errors = 0;
    for seed in 0..2_000 {
        let mut rng = SimRng::seed_from(seed);
        let mut wire = Vec::new();
        for _ in 0..3 {
            wire.extend_from_slice(&frames[rng.below(frames.len() as u64) as usize]);
        }
        // Flip a few bytes, or cut the stream short.
        for _ in 0..1 + rng.below(3) {
            let at = rng.below(wire.len() as u64) as usize;
            wire[at] ^= 1 << rng.below(8);
        }
        wire.truncate(1 + rng.below(wire.len() as u64) as usize);
        let mut dec = StreamDecoder::new();
        let chunk = 1 + rng.below(40) as usize;
        'stream: for piece in wire.chunks(chunk) {
            dec.feed(piece);
            loop {
                match dec.next_packet() {
                    Ok(Some(_)) => {}
                    Ok(None) => break,
                    Err(_) => {
                        errors += 1;
                        break 'stream;
                    }
                }
            }
        }
    }
    assert!(
        errors > 200,
        "the sweep must reach the error paths: {errors}"
    );
    // The decoder's canonical rejections still are what they were.
    let mut dec = StreamDecoder::new();
    dec.feed(&[0xC0u8, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F][..]);
    assert!(dec.next_packet().is_err(), "overlong remaining length");
    let mut dec = StreamDecoder::new();
    dec.feed(&[0x41u8, 0x02, 0x00, 0x01][..]);
    assert!(dec.next_packet().is_err(), "PUBACK with flags");
}

// ---------------------------------------------------------------------------
// (d) the forwarded frame is the encoded frame
// ---------------------------------------------------------------------------

/// The remaining-length varint of `len`: minimal, or padded with one
/// redundant continuation byte (which the decoder accepts).
fn remaining_length(mut len: usize, padded: bool) -> Vec<u8> {
    let mut out = Vec::new();
    while len >= 128 {
        out.push((len % 128) as u8 | 0x80);
        len /= 128;
    }
    out.push(len as u8);
    if padded {
        *out.last_mut().expect("one byte at least") |= 0x80;
        out.push(0);
    }
    out
}

/// A PUBLISH frame assembled by hand: the reference every frame in the
/// sweep is held against.
fn publish_frame(
    first: u8,
    topic: &str,
    pid: Option<u16>,
    payload: &[u8],
    padded: bool,
) -> Vec<u8> {
    let mut body = (topic.len() as u16).to_be_bytes().to_vec();
    body.extend_from_slice(topic.as_bytes());
    if let Some(pid) = pid {
        body.extend_from_slice(&pid.to_be_bytes());
    }
    body.extend_from_slice(payload);
    let mut frame = vec![first];
    frame.extend(remaining_length(body.len(), padded));
    frame.extend(body);
    frame
}

/// A `Broker` or a `ShardedBroker` behind one face: a packet in, every
/// action it causes out (cross-shard forwards applied).
enum Fleet {
    One(Broker<u32>),
    Sharded(ShardedBroker<u32>),
}

impl Fleet {
    fn with_shards(shards: Option<usize>) -> Fleet {
        match shards {
            None => Fleet::One(Broker::new()),
            Some(shards) => Fleet::Sharded(ShardedBroker::new(BrokerConfig {
                shards,
                ..BrokerConfig::default()
            })),
        }
    }

    fn opened(&mut self, conn: u32) {
        match self {
            Fleet::One(b) => b.connection_opened(conn, 0),
            Fleet::Sharded(b) => b.connection_opened(conn, 0),
        }
    }

    fn handle(&mut self, conn: u32, packet: Packet) -> Vec<Action<u32>> {
        match self {
            Fleet::One(b) => b.handle_packet(&conn, packet, 0),
            Fleet::Sharded(b) => b.resolve(b.handle_packet(&conn, packet, 0), 0),
        }
    }
}

const PUBLISHER: u32 = 1_000;

/// A fleet with a QoS 0 and a QoS 1 subscriber of `s/#` on every shard and
/// the publisher on shard 0. Returns it with its subscriber count per QoS.
fn subscribed_fleet(shards: Option<usize>) -> (Fleet, usize) {
    let mut fleet = Fleet::with_shards(shards);
    let n = shards.unwrap_or(1);
    let id_on = |prefix: &str, shard: usize| {
        (0..)
            .map(|i| format!("{prefix}{i}"))
            .find(|id| shard_of(id, n) == shard)
            .expect("some id lands on every shard")
    };
    for shard in 0..n {
        for (qos, prefix) in [(QoS::AtMostOnce, "q0-"), (QoS::AtLeastOnce, "q1-")] {
            let conn = 2 * shard as u32 + qos.bits() as u32;
            fleet.opened(conn);
            fleet.handle(conn, Packet::Connect(Connect::new(id_on(prefix, shard))));
            let subscribe = Subscribe {
                packet_id: 1,
                filters: vec![SubscribeFilter {
                    filter: TopicFilter::new("s/#").expect("valid filter"),
                    qos,
                }],
            };
            fleet.handle(conn, Packet::Subscribe(subscribe));
        }
    }
    fleet.opened(PUBLISHER);
    fleet.handle(PUBLISHER, Packet::Connect(Connect::new(id_on("pub-", 0))));
    (fleet, n)
}

/// Whether `frame` and `view` are one buffer: `view` is the tail of it.
fn tail_of(frame: &Bytes, view: &Bytes) -> bool {
    let end = frame.as_ptr() as usize + frame.len();
    view.as_ptr() as usize + view.len() == end && view.len() <= frame.len()
}

#[test]
fn a_forwarded_frame_is_the_encoded_frame() {
    let mut fleets: Vec<(Fleet, usize)> = [None, Some(1), Some(2), Some(4)]
        .into_iter()
        .map(subscribed_fleet)
        .collect();
    let (mut kept_seen, mut encoded_seen) = (0, 0);
    for seed in 0..1_000 {
        let mut rng = SimRng::seed_from(seed);
        let letters = 1 + rng.below(12) as usize;
        let name = format!("s/{}", text(&mut rng, letters));
        let payload = vec![seed as u8; [0usize, 32, 130, 64 * 1024][rng.below(4) as usize]];
        let qos = rng.below(3) as u8;
        let pid = (qos > 0).then(|| 1 + rng.below(u64::from(u16::MAX)) as u16);
        let dup = qos > 0 && rng.chance(0.3);
        let retain = rng.chance(0.3);
        let padded = rng.chance(0.3);
        let first = 0x30 | u8::from(dup) << 3 | qos << 1 | u8::from(retain);
        let inbound: Bytes = publish_frame(first, &name, pid, &payload, padded).into();
        // The frame is its own QoS 0 delivery under exactly this condition.
        let is_delivery = first == 0x30 && !padded;
        let delivery = publish_frame(0x30, &name, None, &payload, false);
        assert_eq!(is_delivery, inbound == delivery, "seed {seed}");

        // Whole, and cut in two somewhere — inside the varint included.
        let cut = 1 + rng.below(inbound.len() as u64 - 1) as usize;
        let cut = if rng.chance(0.3) { 2 } else { cut };
        for whole in [true, false] {
            let mut decoder = StreamDecoder::new();
            if whole {
                decoder.feed(&inbound);
            } else {
                decoder.feed(&inbound[..cut]);
                assert_eq!(decoder.next_packet(), Ok(None), "seed {seed}");
                decoder.feed(&inbound[cut..]);
            }
            let Ok(Some(Packet::Publish(publish))) = decoder.next_packet() else {
                panic!("seed {seed}: the frame holds a publish");
            };
            assert_eq!(publish.topic.as_str(), name, "seed {seed}");
            assert_eq!(publish.payload, payload, "seed {seed}");
            assert_eq!(
                (
                    publish.qos.bits(),
                    publish.packet_id,
                    publish.dup,
                    publish.retain
                ),
                (qos, pid, dup, retain),
                "seed {seed}"
            );
            assert_eq!(encode_qos0_delivery(&publish), delivery, "seed {seed}");

            for (fleet, shards) in &mut fleets {
                let at = format!("seed {seed}, {shards} shard(s), whole {whole}");
                let actions = fleet.handle(PUBLISHER, Packet::Publish(publish.clone()));
                let mut frames: Vec<&Bytes> = Vec::new();
                let mut sends = 0;
                for action in &actions {
                    match action {
                        Action::SendFrame { frame, .. } => {
                            assert!(**frame == delivery, "{at}: a QoS 0 delivery");
                            frames.push(frame);
                        }
                        Action::Send {
                            conn: PUBLISHER,
                            packet,
                        } => {
                            let ack = [0x30 + (qos << 4), 2]; // PUBACK, PUBREC
                            let pid = pid.expect("only QoS 1/2 is acknowledged");
                            let expected = [&ack[..], &pid.to_be_bytes()].concat();
                            assert_eq!(encode(packet), expected, "{at}: the acknowledgement");
                        }
                        Action::Send { packet, .. } => {
                            let Packet::Publish(p) = packet else {
                                panic!("{at}: {packet:?} to a subscriber");
                            };
                            let expected = publish_frame(0x32, &name, p.packet_id, &payload, false);
                            assert!(encode(packet) == expected, "{at}: a QoS 1 delivery");
                            sends += 1;
                        }
                        Action::Close { conn } => panic!("{at}: closed {conn}"),
                    }
                }
                // QoS 0 subscribers always get the frame; QoS 1 subscribers
                // get it when the publish came at QoS 0.
                let (q0, q1) = if qos == 0 {
                    (2 * *shards, 0)
                } else {
                    (*shards, *shards)
                };
                assert_eq!((frames.len(), sends), (q0, q1), "{at}");

                // Kept exactly when the inbound frame already was the
                // delivery: then every subscriber on every shard is sent
                // the buffer the decoder made (or was handed).
                let one_buffer = frames.iter().all(|f| f.as_ptr() == frames[0].as_ptr());
                if is_delivery {
                    kept_seen += 1;
                    assert!(one_buffer, "{at}: one buffer for all shards");
                    assert_eq!(whole, frames[0].as_ptr() == inbound.as_ptr(), "{at}");
                } else {
                    encoded_seen += 1;
                    assert!(*shards > 1 || one_buffer, "{at}: one encode per shard");
                }
                // (An empty view need not point into its buffer.)
                if !payload.is_empty() {
                    let kept = tail_of(frames[0], &publish.payload);
                    assert_eq!(kept, is_delivery, "{at}: the payload views a kept frame");
                }

                // Complete every flow, so windows and id sets stay open.
                for action in actions {
                    if let Action::Send {
                        conn,
                        packet: Packet::Publish(p),
                    } = action
                    {
                        let ack = Packet::Puback(p.packet_id.expect("a QoS 1 delivery"));
                        fleet.handle(conn, ack);
                    }
                }
                if qos == 2 {
                    fleet.handle(PUBLISHER, Packet::Pubrel(pid.expect("QoS 2")));
                }
            }
        }
    }
    assert!(
        kept_seen > 1_000 && encoded_seen > 1_000,
        "{kept_seen} / {encoded_seen}"
    );
}
