//! Deterministic smoke tests of the zero-copy data path: concrete-value
//! counterparts of the property tests in `proptests.rs`, runnable without
//! a property-testing harness. They pin the externally observable
//! semantics the `Bytes` refactor must preserve — wire compatibility,
//! retained-message behaviour, and QoS 1/2 redelivery.

mod common;

use bytes::Bytes;

use ifot::mqtt::broker::{Action, Broker};
use ifot::mqtt::codec::{decode, encode, encoded_len, StreamDecoder};
use ifot::mqtt::packet::{
    Connack, Connect, ConnectReturnCode, LastWill, Packet, Publish, QoS, Suback, SubackCode,
    Subscribe, SubscribeFilter, Unsubscribe,
};
use ifot::mqtt::topic::{TopicFilter, TopicName};

fn topic(name: &str) -> TopicName {
    TopicName::new(name).expect("valid topic")
}

fn subscribe_packet(filter: &str, qos: QoS) -> Packet {
    Packet::Subscribe(Subscribe {
        packet_id: 1,
        filters: vec![SubscribeFilter {
            filter: TopicFilter::new(filter).expect("valid filter"),
            qos,
        }],
    })
}

/// Decodes every delivery (plain packet or pre-encoded frame) to `conn`.
fn deliveries_to(actions: &[Action<u8>], conn: u8) -> Vec<Publish> {
    let mut out = Vec::new();
    for action in actions {
        match action {
            Action::Send {
                conn: c,
                packet: Packet::Publish(p),
            } if *c == conn => out.push(p.clone()),
            Action::SendFrame { conn: c, frame } if *c == conn => {
                let (packet, used) = decode(frame).expect("frames decode").expect("complete");
                assert_eq!(used, frame.len(), "frame holds exactly one packet");
                if let Packet::Publish(p) = packet {
                    out.push(p);
                }
            }
            _ => {}
        }
    }
    out
}

#[test]
fn bytes_and_vec_payloads_encode_identically() {
    let payload = vec![7u8, 0, 255, 42];
    let from_vec = Publish::qos0(topic("a/b"), payload.clone());
    let from_bytes = Publish::qos0(topic("a/b"), Bytes::from(payload));
    assert_eq!(
        encode(&Packet::Publish(from_vec)),
        encode(&Packet::Publish(from_bytes))
    );
}

/// One packet of every type, with every optional field exercised.
fn every_packet_type() -> Vec<Packet> {
    let filter = |f: &str| TopicFilter::new(f).expect("valid filter");
    let mut full_connect = Connect::new("node-b");
    full_connect.clean_session = false;
    full_connect.keep_alive_secs = 0;
    full_connect.username = Some("user".into());
    full_connect.password = Some(vec![1, 2, 3].into());
    full_connect.will = Some(LastWill {
        topic: topic("status/node-b"),
        payload: Bytes::from_static(b"offline"),
        qos: QoS::AtLeastOnce,
        retain: true,
    });
    let mut dup = Publish::qos1(topic("x/z"), vec![2u8; 300], 9);
    dup.dup = true;
    dup.retain = true;
    let mut qos2 = Publish::qos1(topic("x/q"), Bytes::new(), 10);
    qos2.qos = QoS::ExactlyOnce;
    vec![
        Packet::Connect(Connect::new("c")),
        Packet::Connect(full_connect),
        Packet::Connack(Connack {
            session_present: true,
            code: ConnectReturnCode::NotAuthorized,
        }),
        Packet::Publish(Publish::qos0(topic("x/y"), vec![1u8; 40])),
        Packet::Publish(Publish::qos0(topic("big"), vec![7u8; 20_000])),
        Packet::Publish(dup),
        Packet::Publish(qos2),
        Packet::Puback(1),
        Packet::Pubrec(2),
        Packet::Pubrel(3),
        Packet::Pubcomp(u16::MAX),
        Packet::Subscribe(Subscribe {
            packet_id: 5,
            filters: vec![
                SubscribeFilter {
                    filter: filter("sensor/#"),
                    qos: QoS::AtLeastOnce,
                },
                SubscribeFilter {
                    filter: filter("+/status"),
                    qos: QoS::AtMostOnce,
                },
            ],
        }),
        Packet::Suback(Suback {
            packet_id: 5,
            codes: vec![SubackCode::Granted(QoS::ExactlyOnce), SubackCode::Failure],
        }),
        Packet::Unsubscribe(Unsubscribe {
            packet_id: 6,
            filters: vec![filter("sensor/#"), filter("a/+/b")],
        }),
        Packet::Unsuback(7),
        Packet::Pingreq,
        Packet::Pingresp,
        Packet::Disconnect,
    ]
}

#[test]
fn encode_is_byte_identical_to_the_reference_encoder() {
    for packet in every_packet_type() {
        let bytes = encode(&packet);
        assert_eq!(
            &bytes[..],
            &common::reference_encode(&packet)[..],
            "{packet:?}"
        );
        assert_eq!(encoded_len(&packet), bytes.len(), "{packet:?}");
    }
}

#[test]
fn stream_decoder_is_chunking_invariant() {
    let packets = every_packet_type();
    let mut wire = Vec::new();
    for p in &packets {
        wire.extend_from_slice(&encode(p));
    }
    let wire = Bytes::from(wire);
    // Fed as slices (always the stream path) and as shared chunks (the
    // in-place path whenever a chunk happens to be exactly one frame).
    for shared in [false, true] {
        for chunk in [1usize, 2, 3, 4, 5, 6, 7, 64, 1000, wire.len()] {
            let mut dec = StreamDecoder::new();
            let mut got = Vec::new();
            let mut pos = 0;
            while pos < wire.len() {
                let end = (pos + chunk).min(wire.len());
                if shared {
                    dec.feed(&wire.slice(pos..end));
                } else {
                    dec.feed(&wire[pos..end]);
                }
                pos = end;
                while let Some(p) = dec.next_packet().expect("valid stream") {
                    got.push(p);
                }
            }
            assert_eq!(got, packets, "chunk size {chunk}, shared {shared}");
        }
    }
    // One frame per chunk — what a message transport delivers — decodes
    // in place to the same packets.
    let mut dec = StreamDecoder::new();
    for p in &packets {
        dec.feed(&encode(p));
        assert_eq!(dec.next_packet().expect("valid frame").as_ref(), Some(p));
        assert_eq!(dec.buffered(), 0);
    }
}

/// A sample's 32-byte image is what it always was.
#[test]
fn sample_wire_shape_is_unchanged() {
    use ifot::sensors::sample::{Sample, SensorKind};
    let sample = Sample::new(SensorKind::Accelerometer, 3, 9, 555, &[1.0, 2.5, -3.0]);
    let mut image = [0u8; 32];
    image[..8].copy_from_slice(&[b'I', b'F', 1, 0, 0, 3, 3, 0]);
    image[8..16].copy_from_slice(&555u64.to_be_bytes());
    image[16..20].copy_from_slice(&9u32.to_be_bytes());
    image[20..24].copy_from_slice(&1.0f32.to_be_bytes());
    image[24..28].copy_from_slice(&2.5f32.to_be_bytes());
    image[28..32].copy_from_slice(&(-3.0f32).to_be_bytes());
    assert_eq!(sample.encode(), image);
    assert_eq!(&sample.encode_bytes()[..], &image[..]);
    assert_eq!(Sample::decode(&image), Ok(sample));
}

#[test]
fn retained_messages_keep_last_writer_per_topic() {
    let mut broker: Broker<u8> = Broker::new();
    broker.connection_opened(0, 0);
    broker.handle_packet(&0, Packet::Connect(Connect::new("pub")), 0);
    let retained = |t: &str, body: &[u8]| {
        let mut p = Publish::qos0(topic(t), body.to_vec());
        p.retain = true;
        Packet::Publish(p)
    };
    broker.handle_packet(&0, retained("r/a", b"first"), 0);
    broker.handle_packet(&0, retained("r/a", b"second"), 0);
    broker.handle_packet(&0, retained("r/b", b"kept"), 0);
    broker.handle_packet(&0, retained("r/c", b"cleared"), 0);
    broker.handle_packet(&0, retained("r/c", b""), 0);

    broker.connection_opened(1, 0);
    broker.handle_packet(&1, Packet::Connect(Connect::new("sub")), 0);
    let actions = broker.handle_packet(&1, subscribe_packet("r/#", QoS::AtMostOnce), 0);
    let mut got: Vec<(String, Vec<u8>)> = deliveries_to(&actions, 1)
        .into_iter()
        .inspect(|p| assert!(p.retain, "retained delivery keeps the retain flag"))
        .map(|p| (p.topic.as_str().to_owned(), p.payload.to_vec()))
        .collect();
    got.sort();
    assert_eq!(
        got,
        vec![
            ("r/a".to_owned(), b"second".to_vec()),
            ("r/b".to_owned(), b"kept".to_vec()),
        ]
    );
}

#[test]
fn qos1_redelivery_preserves_payload_and_pid() {
    let mut broker: Broker<u8> = Broker::new();
    broker.connection_opened(1, 0);
    broker.handle_packet(&1, Packet::Connect(Connect::new("sub")), 0);
    broker.handle_packet(&1, subscribe_packet("t", QoS::AtLeastOnce), 0);
    broker.connection_opened(0, 0);
    broker.handle_packet(&0, Packet::Connect(Connect::new("pub")), 0);

    let actions = broker.handle_packet(
        &0,
        Packet::Publish(Publish::qos1(topic("t"), b"body".as_slice().to_vec(), 7)),
        0,
    );
    let first = deliveries_to(&actions, 1);
    assert_eq!(first.len(), 1);
    assert!(!first[0].dup);
    assert_eq!(first[0].qos, QoS::AtLeastOnce);
    assert_eq!(first[0].payload.as_ref(), b"body");
    let pid = first[0].packet_id.expect("qos 1 carries a packet id");

    // No PUBACK: redelivered after the retransmit timeout, dup set.
    let redelivered = deliveries_to(&broker.poll(3_000_000_000), 1);
    assert_eq!(redelivered.len(), 1);
    assert!(redelivered[0].dup);
    assert_eq!(redelivered[0].packet_id, Some(pid));
    assert_eq!(redelivered[0].payload.as_ref(), b"body");
}

#[test]
fn qos2_release_preserves_payload() {
    let mut broker: Broker<u8> = Broker::new();
    broker.connection_opened(1, 0);
    broker.handle_packet(&1, Packet::Connect(Connect::new("sub")), 0);
    broker.handle_packet(&1, subscribe_packet("t", QoS::ExactlyOnce), 0);
    broker.connection_opened(0, 0);
    broker.handle_packet(&0, Packet::Connect(Connect::new("pub")), 0);

    let mut publish = Publish::qos1(topic("t"), Bytes::from_static(b"exactly"), 7);
    publish.qos = QoS::ExactlyOnce;
    let first = deliveries_to(
        &broker.handle_packet(&0, Packet::Publish(publish.clone()), 0),
        1,
    );
    assert_eq!(first.len(), 1, "first PUBLISH routes once");
    assert_eq!(first[0].qos, QoS::ExactlyOnce);
    assert_eq!(first[0].payload.as_ref(), b"exactly");
    // A duplicate before PUBREL is deduplicated, not routed again.
    let mut dup = publish;
    dup.dup = true;
    let repeat = broker.handle_packet(&0, Packet::Publish(dup), 0);
    assert!(
        deliveries_to(&repeat, 1).is_empty(),
        "duplicate not re-routed"
    );
    let done = broker.handle_packet(&0, Packet::Pubrel(7), 0);
    assert!(deliveries_to(&done, 1).is_empty());
    assert!(
        done.iter().any(|a| matches!(
            a,
            Action::Send {
                conn: 0,
                packet: Packet::Pubcomp(7)
            }
        )),
        "PUBREL answered with PUBCOMP"
    );
}

#[test]
fn qos0_fanout_frames_share_one_buffer() {
    let mut broker: Broker<u8> = Broker::new();
    broker.connection_opened(0, 0);
    broker.handle_packet(&0, Packet::Connect(Connect::new("pub")), 0);
    for i in 1..=3u8 {
        broker.connection_opened(i, 0);
        broker.handle_packet(&i, Packet::Connect(Connect::new(format!("sub{i}"))), 0);
        broker.handle_packet(&i, subscribe_packet("sensor/#", QoS::AtMostOnce), 0);
    }
    let actions = broker.handle_packet(
        &0,
        Packet::Publish(Publish::qos0(topic("sensor/1"), vec![9u8; 32])),
        0,
    );
    let frames: Vec<&Bytes> = actions
        .iter()
        .filter_map(|a| match a {
            Action::SendFrame { frame, .. } => Some(frame),
            _ => None,
        })
        .collect();
    assert_eq!(frames.len(), 3, "one pre-encoded frame per subscriber");
    assert!(
        frames.iter().all(|f| f.as_ptr() == frames[0].as_ptr()),
        "fan-out must share a single encoded buffer"
    );
}
