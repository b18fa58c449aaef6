//! The bytes did not move: MQTT frames and write-ahead-log bytes against
//! goldens recorded at the commit before the broker's per-packet path
//! stopped allocating its scratch (PR 20), and the stream decoder against
//! itself under every chunking. Seed-driven sweeps, so they run on the
//! offline build too; a failure prints its seed. (What needs crate
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
