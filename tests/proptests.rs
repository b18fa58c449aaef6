//! Property-based tests over the substrates' core invariants
//! (DESIGN.md §7), on the in-repo runner `tests/common/check.rs`: case
//! `i` of every property draws from `SimRng::seed_from(i)`, and a failure
//! names the property, the case seed and the smallest size that still
//! fails. The runner's own tests come first.

mod common;

use std::panic::{catch_unwind, AssertUnwindSafe};

use common::check::{check, Gen, CASES};
use common::{overflowing_length_at, topic_filter, topic_name};

use ifot::mqtt::codec::{decode, encode, encoded_len};
use ifot::mqtt::packet::{Connect, Packet, Publish, QoS, Subscribe, SubscribeFilter};
use ifot::mqtt::topic::{TopicFilter, TopicName};
use ifot::mqtt::tree::SubscriptionTree;
use ifot::netsim::rng::SimRng;

// ---------------------------------------------------------------------
// The runner
// ---------------------------------------------------------------------

/// The message `check` panicked with, running a property that fails
/// whenever a drawn length reaches 1 000, and the lengths it drew.
fn a_false_property() -> (String, Vec<usize>) {
    let mut drawn = Vec::new();
    let failure = catch_unwind(AssertUnwindSafe(|| {
        check("under_a_thousand", CASES, |g| {
            let n = g.len(0, 1 << 20);
            drawn.push(n);
            assert!(n < 1_000, "drew {n}");
        })
    }))
    .expect_err("the property is false");
    let message = failure
        .downcast_ref::<String>()
        .expect("a formatted message")
        .clone();
    (message, drawn)
}

#[test]
fn a_false_property_names_itself_its_case_seed_and_its_shrunk_size() {
    let (message, _) = a_false_property();
    // Case 0 draws 904 623 at full size, and 904 623 >> 9 = 1 766 is the
    // last halving that still reaches 1 000.
    assert_eq!(SimRng::seed_from(0).below(1 << 20), 904_623);
    assert_eq!(
        message,
        "property `under_a_thousand` failed at case seed 0, smallest failing size 1/512: drew 1766"
    );
}

#[test]
fn shrinking_halves_the_size_until_the_property_passes() {
    let (_, drawn) = a_false_property();
    let want: Vec<usize> = (0..=10).map(|k| 904_623 >> k).collect();
    assert_eq!(drawn, want, "the full-size draw, then each halving of it");
    assert!(drawn[9] >= 1_000 && drawn[10] < 1_000);
}

#[test]
fn a_full_size_gen_draws_what_sim_rng_draws() {
    for seed in 0..CASES {
        let (mut g, mut rng) = (Gen::new(seed), SimRng::seed_from(seed));
        assert_eq!(g.seed(), seed);
        assert_eq!(g.len(3, 40), 3 + rng.below(37) as usize);
        assert_eq!(g.pick(&[5, 6, 7]), [5, 6, 7][rng.below(3) as usize]);
        let n = 2 + rng.below(7) as usize;
        let bytes: Vec<u8> = (0..n).map(|_| rng.next_u64() as u8).collect();
        assert_eq!(g.bytes(2, 9), bytes);
        let n = rng.below(5) as usize;
        let text: String = (0..n)
            .map(|_| ['a', 'é', '温'][rng.below(3) as usize])
            .collect();
        assert_eq!(g.string("aé温", 0, 5), text);
        let n = 1 + rng.below(3) as usize;
        let values: Vec<u64> = (0..n).map(|_| rng.below(10)).collect();
        assert_eq!(g.vec(1, 4, |g| g.below(10)), values);
        assert_eq!(g.next_u64(), rng.next_u64(), "the streams stay in step");
    }
}

// ---------------------------------------------------------------------
// MQTT codec
// ---------------------------------------------------------------------

/// decode(encode(p)) == p for every representable packet, and the
/// single-write encoder produces the frame the two-buffer one did, sized
/// exactly beforehand.
#[test]
fn codec_round_trips() {
    check("codec_round_trips", CASES, |g| {
        let packet = common::packet(g);
        let bytes = encode(&packet);
        assert_eq!(&bytes[..], &common::reference_encode(&packet)[..]);
        assert_eq!(encoded_len(&packet), bytes.len());
        let (decoded, used) = decode(&bytes)
            .expect("own encoding decodes")
            .expect("own encoding is complete");
        assert_eq!(used, bytes.len());
        assert_eq!(decoded, packet);
    });
}

/// Every strict prefix of a valid packet is "incomplete", never an error
/// and never a bogus success.
#[test]
fn codec_prefixes_are_incomplete() {
    check("codec_prefixes_are_incomplete", CASES, |g| {
        let bytes = encode(&common::packet(g));
        let cut = g.len(0, bytes.len());
        assert_eq!(
            decode(&bytes[..cut]).expect("prefixes are not errors"),
            None
        );
    });
}

/// Arbitrary bytes never panic the decoder, nor does a valid frame with an
/// overflowing length spliced in at any offset (a u16 string length or the
/// remaining length past the frame).
#[test]
fn codec_never_panics() {
    check("codec_never_panics", CASES, |g| {
        let _ = decode(&g.bytes(0, 256));
        let frame = encode(&common::packet(g));
        for at in 0..=frame.len() {
            let _ = decode(&overflowing_length_at(&frame, at));
        }
    });
}

/// The buffering stream decoder yields the same packet sequence no matter
/// how the wire bytes are chunked (the zero-copy BytesMut path agrees with
/// whole-buffer decoding).
#[test]
fn stream_decoder_chunking_invariance() {
    use ifot::mqtt::codec::StreamDecoder;
    check("stream_decoder_chunking_invariance", CASES, |g| {
        let packets = g.vec(1, 6, common::packet);
        let cuts = g.vec(0, 8, |g| g.len(1, 16));
        let mut wire = Vec::new();
        for p in &packets {
            wire.extend_from_slice(&encode(p));
        }
        let wire = bytes::Bytes::from(wire);
        // Fed as slices (always the stream path) and as shared chunks (the
        // in-place path whenever a chunk is exactly one frame).
        for shared in [false, true] {
            let mut dec = StreamDecoder::new();
            let mut got = Vec::new();
            let mut pos = 0;
            let mut i = 0;
            while pos < wire.len() {
                let step = if cuts.is_empty() {
                    wire.len()
                } else {
                    cuts[i % cuts.len()]
                };
                let end = (pos + step).min(wire.len());
                if shared {
                    dec.feed(&wire.slice(pos..end));
                } else {
                    dec.feed(&wire[pos..end]);
                }
                pos = end;
                i += 1;
                while let Some(p) = dec.next_packet().expect("valid stream") {
                    got.push(p);
                }
            }
            assert_eq!(&got, &packets);
        }
        // One frame per chunk — what a message transport delivers — decodes
        // in place to the same packets.
        let mut dec = StreamDecoder::new();
        for p in &packets {
            dec.feed(&encode(p));
            assert_eq!(dec.next_packet().expect("valid frame"), Some(p.clone()));
            assert_eq!(dec.buffered(), 0);
        }
    });
}

/// What a transport queues for a packet — as generated, decoded off a
/// stream, or decoded from its shared frame and so carrying the views it
/// kept — is, slice by slice, the frame `encode` writes; the fixed-size
/// packets, and only they, are queued inline.
#[test]
fn a_queued_frame_is_the_encoded_frame() {
    use ifot::mqtt::codec::{OutFrame, StreamDecoder};
    check("a_queued_frame_is_the_encoded_frame", CASES, |g| {
        let packet = common::packet(g);
        let frame = encode(&packet);
        let fixed = matches!(
            packet,
            Packet::Connack(_)
                | Packet::Puback(_)
                | Packet::Pubrec(_)
                | Packet::Pubrel(_)
                | Packet::Pubcomp(_)
                | Packet::Unsuback(_)
                | Packet::Pingreq
                | Packet::Pingresp
                | Packet::Disconnect
        );
        let mut dec = StreamDecoder::new();
        dec.feed(&frame[..]);
        let off_stream = dec.next_packet().expect("valid").expect("complete");
        dec.feed(&frame);
        let whole = dec.next_packet().expect("valid").expect("complete");
        for p in [packet, off_stream, whole] {
            let kind = p.kind_name();
            let queued = OutFrame::from(p);
            let mut wire = Vec::new();
            for part in queued.parts() {
                wire.extend_from_slice(part);
            }
            assert_eq!(wire, frame.to_vec(), "{kind}");
            assert_eq!(matches!(queued, OutFrame::Inline { .. }), fixed, "{kind}");
        }
    });
}

/// A payload built from a `Vec<u8>` and one built from a shared `Bytes` of
/// the same content produce byte-identical encodings.
#[test]
fn bytes_and_vec_payloads_encode_identically() {
    check("bytes_and_vec_payloads_encode_identically", CASES, |g| {
        let topic = TopicName::new(topic_name(g)).expect("valid");
        let payload = g.bytes(0, 64);
        let from_vec = Publish::qos0(topic.clone(), payload.clone());
        let from_bytes = Publish::qos0(topic, bytes::Bytes::from(payload));
        assert_eq!(
            encode(&Packet::Publish(from_vec)),
            encode(&Packet::Publish(from_bytes))
        );
    });
}

/// A publishing client writes each frame into one of the frames it sent
/// before once no one holds it any more. Over random publish, hold, view,
/// drop and acknowledge sequences — topics and payloads of random sizes,
/// some past what the client keeps, at QoS 0 and 1 — every frame and
/// payload view still held stays byte-equal to a fresh `encode_publish`
/// of what it was built for.
#[test]
fn a_frame_someone_holds_is_never_overwritten() {
    use bytes::Bytes;
    use ifot::mqtt::client::{Client, ClientConfig};
    use ifot::mqtt::codec::encode_publish;
    use ifot::mqtt::packet::{Connack, ConnectReturnCode};

    check("a_frame_someone_holds_is_never_overwritten", CASES, |g| {
        let mut client = Client::new("pub", ClientConfig::default());
        client.connect().expect("first connect");
        let connack = Packet::Connack(Connack {
            session_present: false,
            code: ConnectReturnCode::Accepted,
        });
        client.handle_packet(connack, 0).expect("accepted");
        // What is held, and the bytes it must still be.
        let mut held: Vec<(Bytes, Vec<u8>)> = Vec::new();
        let mut unacked = Vec::new();
        for step in 0..g.len(1, 64) {
            match g.below(4) {
                0 | 1 => {
                    let topic = TopicName::new(topic_name(g)).expect("valid");
                    let len = g.pick(&[0, 1, 8, 32, 33, 72, 300, 5_000]);
                    let payload = g.bytes(len, len + 1);
                    let qos = g.pick(&[QoS::AtMostOnce, QoS::AtLeastOnce]);
                    let retain = g.chance(0.2);
                    let frame = client
                        .publish_frame(&topic, &payload, qos, retain, step as u64)
                        .expect("connected");
                    let Ok(Some((Packet::Publish(sent), _))) = decode(&frame) else {
                        panic!("step {step}: not a publish: {frame:?}");
                    };
                    unacked.extend(sent.packet_id);
                    let want = encode_publish(&topic, &payload, qos, retain, sent.packet_id);
                    assert_eq!(frame, want, "step {step}: as written");
                    match g.below(3) {
                        0 => held.push((frame, want.to_vec())),
                        1 => {
                            let at = frame.len() - payload.len();
                            held.push((frame.slice(at..), payload));
                        }
                        _ => {}
                    }
                }
                2 if !held.is_empty() => {
                    let i = g.below(held.len() as u64) as usize;
                    held.swap_remove(i);
                }
                _ if !unacked.is_empty() => {
                    let i = g.below(unacked.len() as u64) as usize;
                    let pid = unacked.swap_remove(i);
                    client
                        .handle_packet(Packet::Puback(pid), step as u64)
                        .expect("acknowledged");
                }
                _ => {}
            }
            for (j, (bytes, want)) in held.iter().enumerate() {
                assert_eq!(&bytes[..], &want[..], "step {step}: held frame {j}");
            }
        }
    });
}

/// A publisher whose reader stalls holding its frames, and then lets them
/// go in the order they were sent, allocates no frame after the first
/// stall. Over random hold depths up to what `FRAME_KEEP_BYTES` keeps —
/// frames of random topics and lengths, held whole or as payload views —
/// every frame of a second stall of the same shape is written into the
/// buffer of the first stall's frame at its place, and holds what it was
/// built for.
#[test]
fn a_stall_within_the_byte_bound_allocates_no_frame_the_second_time() {
    use bytes::Bytes;
    use ifot::mqtt::client::{Client, ClientConfig, FRAME_KEEP_BYTES};
    use ifot::mqtt::codec::encode_publish;
    use ifot::mqtt::packet::{Connack, ConnectReturnCode};

    check(
        "a_stall_within_the_byte_bound_allocates_no_frame_the_second_time",
        CASES,
        |g| {
            let mut client = Client::new("pub", ClientConfig::default());
            client.connect().expect("first connect");
            let connack = Packet::Connack(Connack {
                session_present: false,
                code: ConnectReturnCode::Accepted,
            });
            client.handle_packet(connack, 0).expect("accepted");
            // What each publish of a stall sends, and whether its reader
            // holds a view of the payload rather than the frame. A frame
            // is charged its length and 128 B, more than its `Arc`'s
            // counts, their padding and two queue slots cost.
            let depth = g.len(1, 1_000);
            let mut shape = Vec::new();
            let mut charged = 0;
            while shape.len() < depth {
                let topic = TopicName::new(topic_name(g)).expect("valid");
                let len = g.pick(&[0, 8, 32, 48, 300]);
                let payload = g.bytes(len, len + 1);
                let want = encode_publish(&topic, &payload, QoS::AtMostOnce, false, None);
                charged += want.len() + 128;
                if charged > FRAME_KEEP_BYTES {
                    break;
                }
                shape.push((topic, payload, want, g.chance(0.5)));
            }
            let mut stall = |now: u64| -> Vec<*const u8> {
                let mut buffers = Vec::new();
                let held: Vec<Bytes> = shape
                    .iter()
                    .map(|(topic, payload, _, view)| {
                        let frame = client
                            .publish_frame(topic, payload, QoS::AtMostOnce, false, now)
                            .expect("connected");
                        buffers.push(frame.as_ptr());
                        match view {
                            true => frame.slice(frame.len() - payload.len()..),
                            false => frame,
                        }
                    })
                    .collect();
                for (j, (held, (_, payload, want, view))) in held.iter().zip(&shape).enumerate() {
                    let want: &[u8] = if *view { payload } else { want };
                    assert_eq!(&held[..], want, "stall at {now}: held frame {j}");
                }
                // `held` is dropped front first: the reader catches up.
                buffers
            };
            let first = stall(1);
            let second = stall(2);
            assert_eq!(first, second, "{} frames held", shape.len());
        },
    );
}

// ---------------------------------------------------------------------
// Broker semantics preserved by the zero-copy fan-out
// ---------------------------------------------------------------------

/// Decodes every delivery (plain or pre-encoded frame) sent to `conn`.
fn deliveries_to(actions: &[ifot::mqtt::broker::Action<u8>], conn: u8) -> Vec<Packet> {
    use ifot::mqtt::broker::Action;
    let mut out = Vec::new();
    for a in actions {
        match a {
            Action::Send { conn: c, packet } if *c == conn => out.push(packet.clone()),
            Action::SendFrame { conn: c, frame } if *c == conn => {
                let (p, used) = decode(frame).expect("frames decode").expect("complete");
                assert_eq!(used, frame.len(), "frame holds exactly one packet");
                out.push(p);
            }
            _ => {}
        }
    }
    out
}

/// The publishes among `conn`'s deliveries.
fn publishes_to(actions: &[ifot::mqtt::broker::Action<u8>], conn: u8) -> Vec<Publish> {
    deliveries_to(actions, conn)
        .into_iter()
        .filter_map(|p| match p {
            Packet::Publish(p) => Some(p),
            _ => None,
        })
        .collect()
}

/// Retained messages: a late subscriber on `#` sees exactly the last
/// non-empty retained payload per topic (empty payloads clear).
#[test]
fn retained_last_writer_wins() {
    use ifot::mqtt::broker::Broker;
    use std::collections::BTreeMap;
    check("retained_last_writer_wins", CASES, |g| {
        let topics = ["r/a", "r/b", "r/c/d", "r/c/e"];
        let ops = g.vec(1, 16, |g| (g.pick(&topics), g.bytes(0, 8)));
        let mut broker: Broker<u8> = Broker::new();
        broker.connection_opened(0, 0);
        broker.handle_packet(&0, Packet::Connect(Connect::new("pub")), 0);
        let mut expected: BTreeMap<String, Vec<u8>> = BTreeMap::new();
        for (topic, payload) in ops {
            if payload.is_empty() {
                expected.remove(topic);
            } else {
                expected.insert(topic.to_owned(), payload.clone());
            }
            let mut publish = Publish::qos0(TopicName::new(topic).expect("valid"), payload);
            publish.retain = true;
            broker.handle_packet(&0, Packet::Publish(publish), 0);
        }
        broker.connection_opened(1, 0);
        broker.handle_packet(&1, Packet::Connect(Connect::new("sub")), 0);
        let actions = broker.handle_packet(
            &1,
            Packet::Subscribe(Subscribe {
                packet_id: 1,
                filters: vec![SubscribeFilter {
                    filter: TopicFilter::new("#").expect("valid"),
                    qos: QoS::AtMostOnce,
                }],
            }),
            0,
        );
        let mut got: BTreeMap<String, Vec<u8>> = BTreeMap::new();
        for p in publishes_to(&actions, 1) {
            assert!(p.retain, "retained delivery keeps the retain flag");
            got.insert(p.topic.as_str().to_owned(), p.payload.to_vec());
        }
        assert_eq!(got, expected);
    });
}

/// QoS 1/2 delivery and timeout redelivery carry the original payload
/// unchanged (per-subscriber headers over the shared body); a QoS 2
/// repeat is not routed again, and its PUBREL is answered with PUBCOMP.
#[test]
fn qos12_redelivery_preserves_payload() {
    use ifot::mqtt::broker::{Action, Broker};
    check("qos12_redelivery_preserves_payload", CASES, |g| {
        let payload = g.bytes(0, 64);
        let exactly_once = g.chance(0.5);
        let qos = if exactly_once {
            QoS::ExactlyOnce
        } else {
            QoS::AtLeastOnce
        };
        let mut broker: Broker<u8> = Broker::new();
        broker.connection_opened(1, 0);
        broker.handle_packet(&1, Packet::Connect(Connect::new("sub")), 0);
        broker.handle_packet(
            &1,
            Packet::Subscribe(Subscribe {
                packet_id: 1,
                filters: vec![SubscribeFilter {
                    filter: TopicFilter::new("t").expect("valid"),
                    qos,
                }],
            }),
            0,
        );
        broker.connection_opened(0, 0);
        broker.handle_packet(&0, Packet::Connect(Connect::new("pub")), 0);
        let mut publish = Publish::qos1(TopicName::new("t").expect("valid"), payload.clone(), 7);
        publish.qos = qos;
        // The broker routes on first receipt for both QoS levels (QoS 2
        // deduplicates repeats of the pid until PUBREL closes the window).
        let actions = broker.handle_packet(&0, Packet::Publish(publish.clone()), 0);
        if exactly_once {
            let mut dup = publish;
            dup.dup = true;
            let repeat = broker.handle_packet(&0, Packet::Publish(dup), 0);
            assert!(
                publishes_to(&repeat, 1).is_empty(),
                "duplicate QoS 2 publish must not be re-routed"
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
        let first = publishes_to(&actions, 1);
        assert_eq!(first.len(), 1);
        assert!(!first[0].dup);
        assert_eq!(first[0].qos, qos);
        assert_eq!(first[0].payload.as_ref(), &payload[..]);
        let pid = first[0].packet_id.expect("qos > 0 carries a packet id");

        // No ack from the subscriber: the broker redelivers after its
        // retransmit timeout with the dup flag and the same payload.
        let redelivered = publishes_to(&broker.poll(3_000_000_000), 1);
        assert_eq!(redelivered.len(), 1);
        assert!(redelivered[0].dup);
        assert_eq!(redelivered[0].packet_id, Some(pid));
        assert_eq!(redelivered[0].payload.as_ref(), &payload[..]);
    });
}

// ---------------------------------------------------------------------
// Topic matching: trie vs reference matcher
// ---------------------------------------------------------------------

/// The obvious reference implementation of MQTT filter matching.
fn reference_matches(filter: &str, topic: &str) -> bool {
    if topic.starts_with('$') && (filter.starts_with('+') || filter.starts_with('#')) {
        return false;
    }
    let f: Vec<&str> = filter.split('/').collect();
    let t: Vec<&str> = topic.split('/').collect();
    let mut i = 0;
    loop {
        match (f.get(i), t.get(i)) {
            (Some(&"#"), _) => return true,
            (Some(&"+"), Some(_)) => i += 1,
            (Some(a), Some(b)) if a == b => i += 1,
            (None, None) => return true,
            _ => return false,
        }
    }
}

/// `TopicFilter::matches` agrees with the reference matcher.
#[test]
fn filter_matching_agrees_with_reference() {
    check("filter_matching_agrees_with_reference", CASES, |g| {
        let (filter, topic) = (topic_filter(g), topic_name(g));
        let f = TopicFilter::new(filter.clone()).expect("generated filters are valid");
        let t = TopicName::new(topic.clone()).expect("generated topics are valid");
        assert_eq!(f.matches(&t), reference_matches(&filter, &topic));
    });
}

/// The subscription trie returns exactly the keys whose filters match (per
/// the reference matcher), deduplicated.
#[test]
fn tree_matches_equal_linear_scan() {
    check("tree_matches_equal_linear_scan", CASES, |g| {
        let filters = g.vec(1, 12, topic_filter);
        let topic = topic_name(g);
        let mut tree: SubscriptionTree<usize> = SubscriptionTree::new();
        for (i, f) in filters.iter().enumerate() {
            tree.subscribe(
                i,
                &TopicFilter::new(f.clone()).expect("valid"),
                QoS::AtMostOnce,
            );
        }
        let expected: Vec<usize> = filters
            .iter()
            .enumerate()
            .filter(|(_, f)| reference_matches(f, &topic))
            .map(|(i, _)| i)
            .collect();
        let got: Vec<usize> = tree
            .matches(&TopicName::new(topic).expect("valid"))
            .into_iter()
            .map(|s| s.key)
            .collect();
        assert_eq!(got, expected);
    });
}

/// Unsubscribing everything empties the trie.
#[test]
fn tree_unsubscribe_is_complete() {
    check("tree_unsubscribe_is_complete", CASES, |g| {
        let parsed = g.vec(1, 12, |g| TopicFilter::new(topic_filter(g)).expect("valid"));
        let mut tree: SubscriptionTree<usize> = SubscriptionTree::new();
        for (i, f) in parsed.iter().enumerate() {
            tree.subscribe(i, f, QoS::AtMostOnce);
        }
        for (i, f) in parsed.iter().enumerate() {
            assert!(tree.unsubscribe(&i, f));
        }
        assert!(tree.is_empty());
    });
}

// ---------------------------------------------------------------------
// ML invariants
// ---------------------------------------------------------------------

/// Running stats match a batch recomputation on arbitrary data.
#[test]
fn running_stats_match_batch() {
    check("running_stats_match_batch", CASES, |g| {
        let values = g.vec(1, 200, |g| g.uniform_range(-1e6, 1e6));
        let mut s = ifot::ml::stat::RunningStats::new();
        for &v in &values {
            s.push(v);
        }
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
        assert!((s.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
        assert!((s.variance() - var).abs() < 1e-3 * (1.0 + var));
    });
}

/// Merging partitioned stats equals the whole.
#[test]
fn stats_merge_is_associative() {
    use ifot::ml::stat::RunningStats;
    check("stats_merge_is_associative", CASES, |g| {
        let left = g.vec(0, 50, |g| g.uniform_range(-1e3, 1e3));
        let right = g.vec(0, 50, |g| g.uniform_range(-1e3, 1e3));
        let (mut whole, mut a, mut b) = (
            RunningStats::new(),
            RunningStats::new(),
            RunningStats::new(),
        );
        for v in left.iter().chain(right.iter()) {
            whole.push(*v);
        }
        for v in &left {
            a.push(*v);
        }
        for v in &right {
            b.push(*v);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9 + 1e-9 * whole.mean().abs());
        assert!((a.variance() - whole.variance()).abs() < 1e-6 * (1.0 + whole.variance()));
    });
}

/// The PA update never breaks on arbitrary sparse inputs and keeps scores
/// finite.
#[test]
fn pa_scores_stay_finite() {
    use ifot::ml::classifier::OnlineClassifier;
    use ifot::ml::feature::FeatureVector;
    check("pa_scores_stay_finite", CASES, |g| {
        let examples = g.vec(1, 60, |g| {
            let pairs = g.vec(1, 6, |g| {
                (g.below(64) as u32, g.uniform_range(-100.0, 100.0))
            });
            (FeatureVector::from_pairs(pairs), g.pick(&["p", "n"]))
        });
        let mut m = ifot::ml::classifier::PassiveAggressive::default();
        for (x, label) in &examples {
            m.train(x, label);
        }
        for score in m.scores(&examples[0].0) {
            assert!(score.score.is_finite());
        }
    });
}

// ---------------------------------------------------------------------
// Recipe invariants
// ---------------------------------------------------------------------

/// A random DAG: a task count and forward edges, deduplicated.
fn dag(g: &mut Gen) -> (usize, Vec<(usize, usize)>) {
    let n = g.len(2, 10);
    let mut edges: Vec<(usize, usize)> = g
        .vec(0, n * 2, |g| {
            (g.below(n as u64 - 1), 1 + g.below(n as u64 - 1))
        })
        .into_iter()
        .map(|(a, b)| (a as usize, b as usize))
        .filter(|(a, b)| a < b) // forward edges only: acyclic
        .collect();
    edges.sort_unstable();
    edges.dedup();
    (n, edges)
}

/// The split plan is a partition respecting every edge, for random DAGs.
#[test]
fn split_respects_random_dags() {
    use ifot::recipe::model::{Recipe, Task, TaskKind};
    check("split_respects_random_dags", CASES, |g| {
        let (n, edges) = dag(g);
        let mut builder = Recipe::builder("prop");
        for i in 0..n {
            builder = builder.task(Task::new(format!("t{i}"), TaskKind::Window { size_ms: 1 }));
        }
        for (a, b) in &edges {
            builder = builder.edge(format!("t{a}"), format!("t{b}"));
        }
        let recipe = builder.build().expect("forward edges cannot cycle");
        let plan = ifot::recipe::split::split(&recipe);
        assert_eq!(plan.task_count(), n);
        for (a, b) in &edges {
            let sa = plan.stage_of(&format!("t{a}")).expect("placed");
            let sb = plan.stage_of(&format!("t{b}")).expect("placed");
            assert!(sa < sb, "edge t{a} -> t{b} not forward in stages");
        }
    });
}

/// Every assignment strategy places every task on a capable module.
#[test]
fn assignment_respects_capabilities() {
    use ifot::recipe::assign::{
        AssignmentStrategy, CapabilityAware, LoadAware, ModuleInfo, RoundRobin,
    };
    use ifot::recipe::model::{Recipe, Task, TaskKind};
    check("assignment_respects_capabilities", CASES, |g| {
        let (n, edges) = dag(g);
        let strategy: &dyn AssignmentStrategy = match g.below(3) {
            0 => &RoundRobin,
            1 => &CapabilityAware,
            _ => &LoadAware,
        };
        let mut builder = Recipe::builder("prop");
        for i in 0..n {
            // Alternate sensing and compute tasks.
            let kind = if i % 3 == 0 {
                TaskKind::Sense {
                    sensor: "sound".into(),
                    rate_hz: 1.0,
                }
            } else {
                TaskKind::Window { size_ms: 1 }
            };
            builder = builder.task(Task::new(format!("t{i}"), kind));
        }
        for (a, b) in &edges {
            builder = builder.edge(format!("t{a}"), format!("t{b}"));
        }
        let recipe = builder.build().expect("valid");
        let modules = vec![
            ModuleInfo::new("sensing", 1.0).with_capability("sensor:sound"),
            ModuleInfo::new("compute", 2.0),
        ];
        let assignment = strategy.assign(&recipe, &modules).expect("assignable");
        assert_eq!(assignment.len(), n);
        for task in recipe.tasks() {
            let module = assignment.module_of(&task.id).expect("placed");
            if task.kind.required_capability().is_some() {
                assert_eq!(module, "sensing");
            }
        }
    });
}

// ---------------------------------------------------------------------
// Recipe DSL: render ∘ parse = identity
// ---------------------------------------------------------------------

const LOWER: &str = "abcdefghijklmnopqrstuvwxyz";

fn task_kind(g: &mut Gen) -> ifot::recipe::model::TaskKind {
    use ifot::recipe::model::{TaskKind, CLASSIFIERS, DETECTORS};
    let name = |g: &mut Gen| g.string(LOWER, 1, 9);
    // Model names are validated: only the known ones make a recipe.
    match g.below(9) {
        0 => TaskKind::Sense {
            sensor: name(g),
            rate_hz: g.uniform_range(1.0, 100.0).round(),
        },
        1 => TaskKind::Window {
            size_ms: 1 + g.below(9_999),
        },
        2 => TaskKind::Train {
            algorithm: g.pick(CLASSIFIERS).to_owned(),
        },
        3 => TaskKind::Predict {
            algorithm: g.pick(CLASSIFIERS).to_owned(),
        },
        4 => TaskKind::DetectAnomaly {
            detector: g.pick(DETECTORS).to_owned(),
            threshold: (g.uniform_range(-10.0, 10.0) * 4.0).round() / 4.0,
        },
        5 => TaskKind::Estimate { model: name(g) },
        6 => TaskKind::Policy {
            key: name(g),
            emit: name(g),
            off_below: g.uniform_range(0.0, 50.0).round(),
            on_above: g.uniform_range(50.0, 100.0).round(),
        },
        7 => TaskKind::Actuate { actuator: name(g) },
        _ => TaskKind::Custom { operator: name(g) },
    }
}

/// Rendering a random valid recipe to DSL and parsing it back yields the
/// identical recipe.
#[test]
fn dsl_render_parse_round_trips() {
    use ifot::recipe::model::{Recipe, Task};
    check("dsl_render_parse_round_trips", CASES, |g| {
        let kinds = g.vec(1, 8, task_kind);
        let n = kinds.len() as u64;
        let mut edges = g.vec(0, 10, |g| (g.below(7) % n, (1 + g.below(7)) % n));
        edges.retain(|(a, b)| a < b);
        edges.sort_unstable();
        edges.dedup();
        let mut builder = Recipe::builder("prop_recipe");
        for (i, kind) in kinds.into_iter().enumerate() {
            builder = builder.task(Task::new(format!("t{i}"), kind));
        }
        for (a, b) in edges {
            builder = builder.edge(format!("t{a}"), format!("t{b}"));
        }
        let recipe = builder.build().expect("forward edges cannot cycle");
        let rendered = ifot::recipe::dsl::render(&recipe);
        let parsed = ifot::recipe::dsl::parse(&rendered).expect("rendered recipes parse");
        assert_eq!(parsed, recipe);
    });
}

// ---------------------------------------------------------------------
// Flow-plane and model-plane wire formats
// ---------------------------------------------------------------------

const ID: &str = "abcdefghijklmnopqrstuvwxyz0123456789-";

fn flow_message(g: &mut Gen) -> ifot::core::flow::FlowMessage {
    let producer = g.string(ID, 1, 13);
    let (origin_ts_ns, seq) = (g.next_u64(), g.next_u64());
    let mut datum = ifot::ml::feature::Datum::new();
    for _ in 0..g.len(0, 6) {
        let key = g.string("abcdefghijklmnopqrstuvwxyz_", 1, 11);
        datum.set(key, g.uniform_range(-1e9, 1e9));
    }
    ifot::core::flow::FlowMessage {
        producer: producer.into(),
        origin_ts_ns,
        seq,
        datum,
        label: g.chance(0.5).then(|| g.string(LOWER, 1, 9)),
        score: g.chance(0.5).then(|| g.uniform_range(-1e6, 1e6)),
    }
}

/// Model snapshots produced the way real nodes produce them: by training
/// a linear classifier on arbitrary examples and exporting.
fn model_diff(g: &mut Gen) -> ifot::ml::mix::ModelDiff {
    use ifot::ml::classifier::OnlineClassifier;
    use ifot::ml::mix::LinearModel;
    let mut m = ifot::ml::classifier::PassiveAggressive::default();
    for _ in 0..g.len(0, 12) {
        let pairs = g.vec(1, 4, |g| (g.below(64) as u32, g.uniform_range(-10.0, 10.0)));
        let x = ifot::ml::feature::FeatureVector::from_pairs(pairs);
        m.train(&x, g.pick(&["a", "b", "c"]));
    }
    m.export_diff()
}

/// Flow messages survive the message frame for arbitrary data, labels and
/// scores; truncations of a valid frame and payloads that are not frames
/// are rejected as errors — never a panic, never a bogus success.
#[test]
fn flow_message_rejects_corrupt_payloads() {
    use ifot::core::flow::{FlowItem, FlowMessage};
    check("flow_message_rejects_corrupt_payloads", CASES, |g| {
        let msg = flow_message(g);
        let bytes = msg.encode();
        assert_eq!(&bytes, &ifot::core::wire::encode_message_binary(&msg));
        assert_eq!(
            &FlowMessage::decode(&bytes).expect("own encoding decodes"),
            &msg
        );
        assert_eq!(
            ifot::core::wire::decode_items("flow/x", &bytes).expect("decodes"),
            vec![FlowItem::from_message("flow/x", msg)]
        );
        let cut = g.len(1, bytes.len());
        assert!(FlowMessage::decode(&bytes[..cut]).is_err());
        assert!(FlowMessage::decode(b"{}").is_err());
        let _ = FlowMessage::decode(&g.bytes(0, 64)); // must not panic
    });
}

/// Coalesced batches round-trip through the binary frame with item order
/// preserved, and the peek helpers report the batch header without a full
/// decode.
#[test]
fn flow_batch_binary_round_trips() {
    use ifot::core::flow::{FlowBatch, FlowItem};
    use ifot::core::wire::{
        decode_batch_binary, decode_items, encode_batch_binary, peek_first_origin, peek_item_count,
    };
    check("flow_batch_binary_round_trips", CASES, |g| {
        let msgs = g.vec(1, 10, flow_message);
        let batch = FlowBatch {
            items: msgs.clone(),
        };
        let bytes = encode_batch_binary(&batch);
        assert_eq!(
            decode_batch_binary(&bytes).expect("own encoding decodes"),
            batch
        );
        assert_eq!(peek_item_count(&bytes), Some(msgs.len()));
        assert_eq!(peek_first_origin(&bytes), Some(msgs[0].origin_ts_ns));
        let items: Vec<FlowItem> = msgs
            .into_iter()
            .map(|m| FlowItem::from_message("flow/x", m))
            .collect();
        assert_eq!(decode_items("flow/x", &bytes).expect("decodes"), items);
    });
}

/// Truncations and corruptions of a valid binary frame are rejected as
/// errors — never a panic, never a bogus success.
#[test]
fn binary_frames_reject_corrupt_payloads() {
    use ifot::core::flow::FlowBatch;
    use ifot::core::wire::{
        decode_batch_binary, decode_items, encode_batch_binary, peek_first_origin, peek_item_count,
        FRAME_MAGIC,
    };
    check("binary_frames_reject_corrupt_payloads", CASES, |g| {
        let batch = FlowBatch {
            items: g.vec(1, 6, flow_message),
        };
        let bytes = encode_batch_binary(&batch);
        // Every strict prefix fails (the length-prefixed reader runs dry or
        // the trailing-bytes check fires).
        let cut = g.len(0, bytes.len());
        assert!(decode_batch_binary(&bytes[..cut]).is_err());
        // A version/kind corruption right after the magic byte fails.
        let mut bad = bytes.clone();
        bad[1 + g.below(2) as usize] ^= 0xFF;
        assert!(decode_batch_binary(&bad).is_err());
        // Arbitrary junk behind the magic byte must error, not panic.
        let mut framed = vec![FRAME_MAGIC];
        framed.extend_from_slice(&g.bytes(0, 64));
        assert!(decode_items("flow/x", &framed).is_err() || framed == bytes);
        // An overflowing length spliced in at any offset: the decoders and
        // the peeks return, whatever they return.
        for at in 0..bytes.len() {
            let spliced = overflowing_length_at(&bytes, at);
            let _ = decode_batch_binary(&spliced);
            let _ = decode_items("flow/x", &spliced);
            let _ = (peek_first_origin(&spliced), peek_item_count(&spliced));
        }
    });
}

/// MIX envelopes round-trip with real exported model snapshots in both
/// protocol roles, and corrupt MIX payloads are rejected, not panicked on:
/// a malformed model-plane message must never take down a coordinator.
#[test]
fn mix_envelope_rejects_corrupt_payloads() {
    use ifot::core::operators::MixEnvelope;
    check("mix_envelope_rejects_corrupt_payloads", CASES, |g| {
        let envelope = MixEnvelope {
            role: g.pick(&["avg", "offer"]).into(),
            task: g.string(ID, 1, 13),
            diff: model_diff(g),
        };
        let bytes = envelope.encode();
        assert_eq!(
            &MixEnvelope::decode(&bytes).expect("own encoding decodes"),
            &envelope
        );
        let cut = g.len(1, bytes.len());
        assert!(MixEnvelope::decode(&bytes[..cut]).is_err());
        assert!(MixEnvelope::decode(b"oops").is_err());
        let _ = MixEnvelope::decode(&g.bytes(0, 64)); // must not panic
        for at in 0..bytes.len() {
            let _ = MixEnvelope::decode(&overflowing_length_at(&bytes, at));
        }
    });
}

// ---------------------------------------------------------------------
// Simulator: event ordering and determinism under random workloads
// ---------------------------------------------------------------------

/// For random emitter topologies, the simulator processes events in
/// non-decreasing time order and identical seeds replay identically.
#[test]
fn simulator_ordering_and_determinism() {
    use ifot::netsim::actor::{Actor, Context, Packet};
    use ifot::netsim::cpu::CpuProfile;
    use ifot::netsim::sim::Simulation;
    use ifot::netsim::time::{SimDuration, SimTime};

    struct Emitter {
        interval_ms: u64,
        peer: String,
    }
    impl Actor for Emitter {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.set_timer_after(SimDuration::from_millis(self.interval_ms), 0);
        }
        fn on_timer(&mut self, ctx: &mut Context<'_>, _tag: u64) {
            if let Some(peer) = ctx.lookup(&self.peer) {
                ctx.send(peer, 1, vec![0u8; 16]);
            }
            ctx.set_timer_after(SimDuration::from_millis(self.interval_ms), 0);
        }
    }
    struct Sink;
    impl Actor for Sink {
        fn on_packet(&mut self, ctx: &mut Context<'_>, _p: Packet) {
            ctx.metrics().incr("got");
        }
    }

    let build = |seed: u64, intervals: &[u64]| {
        let mut sim = Simulation::new(seed);
        sim.enable_trace();
        sim.add_node("sink", CpuProfile::RASPBERRY_PI_2, Box::new(Sink));
        for (i, &interval_ms) in intervals.iter().enumerate() {
            sim.add_node(
                &format!("e{i}"),
                CpuProfile::RASPBERRY_PI_2,
                Box::new(Emitter {
                    interval_ms,
                    peer: "sink".into(),
                }),
            );
        }
        sim.run_for(SimDuration::from_millis(500));
        (sim.metrics().counter("got"), sim.take_trace())
    };

    check("simulator_ordering_and_determinism", 16, |g| {
        let seed = g.below(1_000);
        let intervals = g.vec(1, 5, |g| 1 + g.below(39));
        let (got_a, trace_a) = build(seed, &intervals);
        // Ordering: processing times never go backwards.
        let mut last = SimTime::ZERO;
        for entry in trace_a.entries() {
            assert!(entry.time >= last, "time went backwards");
            last = entry.time;
        }
        assert!(got_a > 0);
        // Determinism: same seed, same trace.
        let (got_b, trace_b) = build(seed, &intervals);
        assert_eq!(got_a, got_b);
        assert_eq!(trace_a.digest(), trace_b.digest());
    });
}

// ---------------------------------------------------------------------
// Sensor sample codec
// ---------------------------------------------------------------------

/// The 32-byte sample image round-trips for arbitrary field values.
#[test]
fn sample_wire_round_trips() {
    use ifot::sensors::sample::{Sample, SensorKind};
    check("sample_wire_round_trips", CASES, |g| {
        let kind = SensorKind::from_byte(g.below(7) as u8).expect("generated kinds are valid");
        let (device, seq, ts) = (g.next_u64() as u16, g.next_u64() as u32, g.next_u64());
        let values = g.vec(1, 4, |g| g.uniform_range(-1e30, 1e30) as f32);
        let sample = Sample::new(kind, device, seq, ts, &values);
        let decoded = Sample::decode(&sample.encode()).expect("round trip");
        assert_eq!(decoded, sample);
    });
}

// ---------------------------------------------------------------------
// Delivery guarantees under arbitrary loss + reconnect schedules
// ---------------------------------------------------------------------

/// The same 30 publishes, sent through up to 25 % loss while up to four
/// forced disconnects of either side strike anywhere in the first 20 000
/// ticks.
fn run_under_chaos(g: &mut Gen, qos: QoS) -> common::ReconnectRun {
    let loss_pct = g.below(26);
    let schedule = g.vec(0, 5, |g| (100 + g.below(19_900), g.chance(0.5)));
    let run = common::run_with_reconnects(qos, 30, loss_pct, &schedule, g.next_u64());
    assert!(run.settled, "run never drained: {run:?}");
    assert_eq!(run.delivered.len(), 30);
    run
}

/// QoS 1 stays at-least-once — with every payload preserved — no matter
/// where loss strikes or when either side's transport is forcibly torn
/// down and resumed via the reconnect supervisor.
#[test]
fn qos1_at_least_once_under_arbitrary_loss_and_reconnects() {
    check(
        "qos1_at_least_once_under_arbitrary_loss_and_reconnects",
        24,
        |g| {
            let run = run_under_chaos(g, QoS::AtLeastOnce);
            for i in 0u32..30 {
                let n = run.delivered.get(i.to_be_bytes().as_slice());
                assert!(
                    n.is_some_and(|&n| n >= 1),
                    "message {i} violated at-least-once: {run:?}"
                );
            }
        },
    );
}

/// QoS 2 stays exactly-once across the same schedules: session resume may
/// replay PUBLISH/PUBREL, but never into a duplicate delivery.
#[test]
fn qos2_exactly_once_under_arbitrary_loss_and_reconnects() {
    check(
        "qos2_exactly_once_under_arbitrary_loss_and_reconnects",
        24,
        |g| {
            let run = run_under_chaos(g, QoS::ExactlyOnce);
            for i in 0u32..30 {
                let n = run.delivered.get(i.to_be_bytes().as_slice());
                assert!(n == Some(&1), "message {i} violated exactly-once: {run:?}");
            }
        },
    );
}

// ---------------------------------------------------------------------
// Write-ahead log: framing, replay equivalence, corrupt-tail recovery
// ---------------------------------------------------------------------

fn client_id(g: &mut Gen) -> String {
    g.string(ID, 1, 9)
}

fn wal_stage(g: &mut Gen) -> ifot::mqtt::wal::WalStage {
    use ifot::mqtt::wal::WalStage;
    g.pick(&[
        WalStage::AwaitPuback,
        WalStage::AwaitPubrec,
        WalStage::AwaitPubcomp,
    ])
}

fn durable_publish(g: &mut Gen) -> ifot::mqtt::wal::DurablePublish {
    ifot::mqtt::wal::DurablePublish {
        topic: topic_name(g),
        qos: common::qos(g),
        retain: g.chance(0.5),
        payload: g.bytes(0, 32).into(),
    }
}

/// Any of the fourteen record kinds, each as likely.
fn wal_record(g: &mut Gen) -> ifot::mqtt::wal::WalRecord {
    use ifot::mqtt::wal::WalRecord;
    let pid = |g: &mut Gen| g.next_u64() as u16;
    match g.below(14) {
        0 => WalRecord::SnapshotHeader {
            last_lsn: g.next_u64(),
        },
        1 => WalRecord::SessionStarted {
            client: client_id(g),
            next_pid: pid(g),
        },
        2 => WalRecord::SessionCleared {
            client: client_id(g),
        },
        3 => WalRecord::Subscribed {
            client: client_id(g),
            filter: topic_filter(g),
            qos: common::qos(g),
        },
        4 => WalRecord::Unsubscribed {
            client: client_id(g),
            filter: topic_filter(g),
        },
        5 => WalRecord::RetainSet {
            message: durable_publish(g),
        },
        6 => WalRecord::RetainCleared {
            topic: topic_name(g),
        },
        7 => WalRecord::Queued {
            client: client_id(g),
            message: durable_publish(g),
        },
        8 => WalRecord::QueuePopped {
            client: client_id(g),
        },
        9 => WalRecord::InflightInsert {
            client: client_id(g),
            pid: pid(g),
            stage: wal_stage(g),
            message: durable_publish(g),
        },
        10 => WalRecord::InflightStage {
            client: client_id(g),
            pid: pid(g),
            stage: wal_stage(g),
        },
        11 => WalRecord::InflightRemove {
            client: client_id(g),
            pid: pid(g),
        },
        12 => WalRecord::InQos2Insert {
            client: client_id(g),
            pid: pid(g),
        },
        _ => WalRecord::InQos2Remove {
            client: client_id(g),
            pid: pid(g),
        },
    }
}

/// The raw log `batches` leave on a fresh backend.
fn raw_log(batches: &[Vec<ifot::mqtt::wal::WalRecord>]) -> Vec<u8> {
    use ifot::mqtt::wal::{MemBackend, Wal, WalConfig};
    let backend = MemBackend::new();
    let mut wal = Wal::new(
        Box::new(backend.clone()),
        WalConfig {
            snapshot_every: 0,
            ..WalConfig::default()
        },
    );
    for batch in batches {
        for rec in batch {
            wal.record(rec);
        }
        wal.commit();
    }
    backend.raw_log()
}

/// The raw log `batches` leave on a fresh backend, cut somewhere and with
/// up to three bits flipped.
fn corrupted_log(g: &mut Gen, batches: &[Vec<ifot::mqtt::wal::WalRecord>]) -> Vec<u8> {
    let mut log = raw_log(batches);
    log.truncate(g.len(0, log.len() + 1));
    for _ in 0..g.len(0, 4) {
        if !log.is_empty() {
            let i = g.below(log.len() as u64) as usize;
            log[i] ^= 1 << g.below(8);
        }
    }
    log
}

/// decode_record(encode_record(r)) == r for every record kind, with every
/// byte consumed.
#[test]
fn wal_record_round_trips() {
    use ifot::mqtt::wal::{decode_record, encode_record};
    check("wal_record_round_trips", CASES, |g| {
        let rec = wal_record(g);
        let mut buf = Vec::new();
        encode_record(&mut buf, &rec);
        let mut pos = 0;
        let decoded = decode_record(&buf, &mut pos).expect("own encoding decodes");
        assert_eq!(pos, buf.len(), "every byte consumed");
        assert_eq!(decoded, rec);
    });
}

/// Committing arbitrary record batches through a `Wal` — with snapshot +
/// truncate cycles interleaved at an arbitrary cadence — and recovering
/// from the backend yields exactly the state of applying the records
/// directly, in order.
#[test]
fn wal_snapshot_and_tail_replay_equals_direct_apply() {
    use ifot::mqtt::wal::{self, DurableState, MemBackend, Wal, WalConfig};
    check(
        "wal_snapshot_and_tail_replay_equals_direct_apply",
        CASES,
        |g| {
            let batches = g.vec(1, 12, |g| g.vec(0, 6, wal_record));
            let snapshot_every = if g.chance(0.5) { 0 } else { 1 + g.below(15) };
            let backend = MemBackend::new();
            let mut wal = Wal::new(
                Box::new(backend.clone()),
                WalConfig {
                    snapshot_every,
                    ..WalConfig::default()
                },
            );
            let mut mirror = DurableState::default();
            for batch in &batches {
                for rec in batch {
                    wal.record(rec);
                    mirror.apply(rec);
                }
                wal.commit();
                if wal.snapshot_due() {
                    wal.install_snapshot(&mirror.to_records());
                }
            }
            let report = wal::recover(&mut backend.clone()).expect("in-memory recover");
            assert!(!report.log_truncated);
            assert!(!report.snapshot_corrupt);
            assert_eq!(report.state, mirror);
            // The recovered LSN positions a resumed writer above everything on
            // the backend.
            assert!(report.last_lsn < wal.next_lsn() || report.last_lsn == 0);
        },
    );
}

/// Recovery from an arbitrarily truncated and bit-flipped log never panics
/// and always lands on a clean batch-prefix state.
#[test]
fn wal_corrupt_tails_recover_a_clean_prefix() {
    use ifot::mqtt::wal::{self, DurableState, MemBackend};
    check("wal_corrupt_tails_recover_a_clean_prefix", CASES, |g| {
        let batches = g.vec(1, 8, |g| g.vec(1, 5, wal_record));
        let mut states = vec![DurableState::default()];
        let mut acc = DurableState::default();
        for batch in &batches {
            for rec in batch {
                acc.apply(rec);
            }
            states.push(acc.clone());
        }
        let corrupted = MemBackend::new();
        corrupted.set_raw_log(corrupted_log(g, &batches));
        let report = wal::recover(&mut corrupted.clone()).expect("in-memory recover");
        assert!(
            states.contains(&report.state),
            "recovered state is not a clean batch prefix: {report:?}"
        );
    });
}

/// Opening a writer over an arbitrarily corrupted log *physically repairs*
/// the backend: batches committed after the reopen survive a second crash
/// (replay equals recovered-prefix state + new records, with no residual
/// corruption) — the double-crash guarantee.
#[test]
fn wal_open_repairs_arbitrary_corruption() {
    use ifot::mqtt::wal::{self, MemBackend, Wal, WalConfig};
    check("wal_open_repairs_arbitrary_corruption", CASES, |g| {
        let batches = g.vec(1, 8, |g| g.vec(1, 5, wal_record));
        let corrupted = MemBackend::new();
        corrupted.set_raw_log(corrupted_log(g, &batches));
        let marker = wal_record(g);

        let (mut wal, report) =
            Wal::open(Box::new(corrupted.clone()), WalConfig::default()).expect("in-memory open");
        wal.record(&marker);
        wal.commit();
        drop(wal); // second crash

        let again = wal::recover(&mut corrupted.clone()).expect("in-memory recover");
        assert!(
            !again.log_truncated,
            "repair must leave a clean log: {again:?}"
        );
        assert!(!again.snapshot_corrupt);
        let mut expect = report.state.clone();
        expect.apply(&marker);
        assert_eq!(
            again.state, expect,
            "post-repair commits must survive the second crash"
        );
    });
}

/// `DurableState::to_records` is a faithful dump: applying it to an empty
/// state reproduces the state it was taken from.
#[test]
fn wal_to_records_is_fixpoint() {
    use ifot::mqtt::wal::DurableState;
    check("wal_to_records_is_fixpoint", CASES, |g| {
        let mut state = DurableState::default();
        for rec in g.vec(0, 40, wal_record) {
            state.apply(&rec);
        }
        let mut rebuilt = DurableState::default();
        for rec in state.to_records() {
            rebuilt.apply(&rec);
        }
        assert_eq!(rebuilt, state);
    });
}

/// `parse_stream` never panics on arbitrary bytes, nor on an intact log
/// with an overflowing length spliced in at any offset, and whatever it
/// accepts replays without error.
#[test]
fn wal_parse_stream_never_panics() {
    use ifot::mqtt::wal::{self, MemBackend};
    check("wal_parse_stream_never_panics", CASES, |g| {
        let bytes = g.bytes(0, 512);
        let _ = wal::parse_stream(&bytes);
        let backend = MemBackend::new();
        backend.set_raw_log(bytes);
        let _ = wal::recover(&mut backend.clone()).expect("in-memory recover");
        let log = raw_log(&[g.vec(1, 4, wal_record)]);
        for at in 0..=log.len() {
            let _ = wal::parse_stream(&overflowing_length_at(&log, at));
        }
    });
}

// ---------------------------------------------------------------------
// Delivery guarantees across broker kill/restart cycles (WAL recovery)
// ---------------------------------------------------------------------

/// The same 20 publishes through up to 15 % loss while the broker dies up
/// to three times in the first 40 000 ticks, snapshotting at an arbitrary
/// cadence or never.
fn run_across_crashes(g: &mut Gen, qos: QoS) -> common::CrashRun {
    let loss_pct = g.below(16);
    let crash_times = g.vec(0, 4, |g| 1_000 + g.below(39_000));
    let seed = g.next_u64();
    let snapshot_every = if g.chance(0.5) { 0 } else { 4 + g.below(60) };
    let run =
        common::run_with_broker_crashes(qos, 20, loss_pct, &crash_times, seed, snapshot_every);
    assert!(run.settled, "run never drained: {run:?}");
    run
}

/// QoS 2 stays exactly-once when the *broker* dies at arbitrary times
/// (state rebuilt from the WAL), under arbitrary loss, with snapshots at an
/// arbitrary cadence.
#[test]
fn qos2_exactly_once_across_broker_crashes_prop() {
    check("qos2_exactly_once_across_broker_crashes_prop", 16, |g| {
        run_across_crashes(g, QoS::ExactlyOnce)
            .ledger
            .assert_exactly_once(1, 20);
    });
}

/// QoS 1 never loses a message across the same crash schedules.
#[test]
fn qos1_zero_loss_across_broker_crashes_prop() {
    check("qos1_zero_loss_across_broker_crashes_prop", 16, |g| {
        run_across_crashes(g, QoS::AtLeastOnce)
            .ledger
            .assert_at_least_once(1, 20);
    });
}

// ---------------------------------------------------------------------
// Reconnect supervisor invariants
// ---------------------------------------------------------------------

/// A connected peer whose inbound gaps all stay below the grace period is
/// never declared dead, regardless of how the gaps jitter.
#[test]
fn live_peer_with_bounded_gaps_is_never_declared_dead() {
    use ifot::mqtt::client::ClientState;
    use ifot::mqtt::supervisor::{ReconnectConfig, ReconnectSupervisor, SupervisorAction};
    check(
        "live_peer_with_bounded_gaps_is_never_declared_dead",
        CASES,
        |g| {
            let gaps = g.vec(1, 50, |g| g.below(1_499_999_999));
            let mut sup = ReconnectSupervisor::new(ReconnectConfig::default(), 1);
            let mut jitter = SimRng::seed_from(1);
            sup.on_connect_sent(0);
            sup.on_connected(0);
            let mut now = 0u64;
            for gap in gaps {
                now += gap;
                let action = sup.poll(ClientState::Connected, now, &mut || jitter.next_u64());
                assert_eq!(
                    action,
                    SupervisorAction::None,
                    "falsely declared dead after a {gap}ns gap"
                );
                sup.on_inbound(now);
            }
            assert_eq!(sup.stats().transport_lost, 0);
        },
    );
}

/// Consecutive failed attempts are scheduled with exponentially growing,
/// capped, jitter-bounded delays, and the whole schedule is a pure
/// function of the RNG stream.
#[test]
fn backoff_schedule_is_bounded_and_deterministic() {
    use ifot::mqtt::client::ClientState;
    use ifot::mqtt::supervisor::{ReconnectConfig, ReconnectSupervisor, SupervisorAction};
    let config = ReconnectConfig::default();
    let run = |seed: u64, failures: usize| -> Vec<u64> {
        let mut jitter = SimRng::seed_from(seed);
        let mut draw = || jitter.next_u64();
        let mut sup = ReconnectSupervisor::new(config.clone(), 0);
        let mut now = 1u64;
        let mut delays = Vec::new();
        for _ in 0..failures {
            // Nothing scheduled yet: this poll books the retry.
            let action = sup.poll(ClientState::Disconnected, now, &mut draw);
            assert_eq!(action, SupervisorAction::None);
            let at = sup.next_attempt_ns().expect("retry booked");
            delays.push(at - now);
            // The attempt fires, the CONNECT goes out and times out.
            now = at;
            let action = sup.poll(ClientState::Disconnected, now, &mut draw);
            assert_eq!(action, SupervisorAction::Connect);
            sup.on_connect_sent(now);
            now += config.connect_timeout_ns;
            let action = sup.poll(ClientState::Connecting, now, &mut draw);
            assert_eq!(action, SupervisorAction::TransportLost);
        }
        delays
    };
    check(
        "backoff_schedule_is_bounded_and_deterministic",
        CASES,
        |g| {
            let (seed, failures) = (g.next_u64(), g.len(1, 16));
            let delays = run(seed, failures);
            for (k, &delay) in delays.iter().enumerate() {
                let pre_jitter = (config.backoff_base_ns << k.min(32)).min(config.backoff_max_ns);
                let ceiling = pre_jitter + (pre_jitter as f64 * config.jitter_frac) as u64;
                assert!(
                    delay >= pre_jitter,
                    "attempt {k} fired before its backoff: {delay} < {pre_jitter}"
                );
                assert!(
                    delay <= ceiling,
                    "attempt {k} exceeded jitter ceiling: {delay} > {ceiling}"
                );
            }
            // Same RNG stream, same schedule — the determinism rule.
            assert_eq!(delays, run(seed, failures));
        },
    );
}

// ---------------------------------------------------------------------
// Shard routing (DESIGN.md §5)
// ---------------------------------------------------------------------

/// The fan-out invariant: over the plan `shards` (one route per entry,
/// `None` = unsharded) the intra-node router hands every route exactly the
/// items it claims, in group order, as one work item — `Item` for one, a
/// batch for more — and hands nothing to a route that claims none.
fn check_fan_out(shards: &[Option<(u64, u64)>], items: Vec<ifot::core::flow::FlowItem>) {
    use ifot::core::executor::router::{claimants, materialize, RoutePlan, StageRoute};
    use ifot::core::executor::{SpareLists, WorkItem};
    use ifot::core::flow::FlowItem;
    use ifot::core::wire::DecodedItems;

    let plan = RoutePlan {
        stages: shards
            .iter()
            .enumerate()
            .map(|(stage, &shard)| StageRoute { stage, shard })
            .collect(),
    };
    let expected: Vec<(usize, Vec<FlowItem>)> = plan
        .stages
        .iter()
        .map(|route| {
            let mine = items.iter().filter(|item| match route.shard {
                Some((modulus, index)) => item.seq % modulus == index,
                None => true,
            });
            (route.stage, mine.cloned().collect::<Vec<_>>())
        })
        .filter(|(_, mine)| !mine.is_empty())
        .collect();

    let run = |routes: &[StageRoute], group: DecodedItems| {
        let mut out: Vec<(usize, Vec<FlowItem>)> = Vec::new();
        materialize(routes, group, &mut SpareLists::default(), |route, work| {
            let got = match work {
                WorkItem::Item(item) => vec![item],
                WorkItem::Batch(items) => {
                    assert!(items.len() > 1, "a one-item delivery must be an Item");
                    items
                }
                WorkItem::SharedBatch(items) => {
                    assert!(items.len() > 1, "a one-item delivery must be an Item");
                    items.to_vec()
                }
                other => panic!("the router only builds flow work, got {other:?}"),
            };
            out.push((route.stage, got));
        });
        out
    };
    let claimed = claimants(&plan, items.iter().map(|item| item.seq));
    assert_eq!(
        claimed.iter().map(|r| r.stage).collect::<Vec<_>>(),
        expected.iter().map(|(stage, _)| *stage).collect::<Vec<_>>(),
        "the plan must name exactly the routes that receive something"
    );
    assert_eq!(run(&claimed, DecodedItems::Many(items.clone())), expected);
    // Materializing over the whole plan skips the routes that claim
    // nothing instead of handing them an empty batch.
    assert_eq!(
        run(&plan.stages, DecodedItems::Many(items.clone())),
        expected
    );
    if let [item] = &items[..] {
        assert_eq!(run(&claimed, DecodedItems::One(item.clone())), expected);
    }
}

fn seq_items(seqs: impl IntoIterator<Item = u64>) -> Vec<ifot::core::flow::FlowItem> {
    seqs.into_iter()
        .map(|seq| ifot::core::flow::FlowItem {
            topic: "flow/x".into(),
            origin_ts_ns: seq,
            seq,
            datum: ifot::ml::feature::Datum::new().with("x", seq as f64),
            label: None,
            score: None,
        })
        .collect()
}

/// Deterministic corner plans: complementary shards, mixed moduli with a
/// duplicate claimant, unsharded fan-out beside shards, a lone item, an
/// empty group, an empty plan.
#[test]
fn fan_out_smoke() {
    let quarters: Vec<_> = (0..4).map(|i| Some((4, i))).collect();
    check_fan_out(&quarters, seq_items(0..37));
    check_fan_out(
        &[Some((2, 0)), Some((3, 1)), Some((2, 0)), Some((2, 1))],
        seq_items(0..20),
    );
    check_fan_out(&[None, Some((2, 0)), None, Some((2, 1))], seq_items(5..14));
    check_fan_out(&[None, None], seq_items([7, 7, 9]));
    check_fan_out(&[None, Some((2, 0)), Some((2, 1)), None], seq_items([4]));
    check_fan_out(&[Some((3, 2))], seq_items([0, 1, 3]));
    check_fan_out(&quarters, Vec::new());
    check_fan_out(&[], seq_items(0..3));
}

/// The intra-node fan-out is an exact cover over arbitrary plans: mixed
/// moduli, duplicate shard claimants, unsharded consumers.
#[test]
fn fan_out_is_an_exact_cover_in_order() {
    check("fan_out_is_an_exact_cover_in_order", CASES, |g| {
        let items = g.vec(0, 64, |g| {
            ifot::core::flow::FlowItem::from_message("flow/x", flow_message(g))
        });
        let shards = g.vec(0, 8, |g| {
            g.chance(0.5).then(|| {
                let modulus = 1 + g.below(4);
                (modulus, g.below(modulus))
            })
        });
        check_fan_out(&shards, items);
    });
}

// ---------------------------------------------------------------------
// Direct stage-to-stage handoff (DESIGN.md §5)
// ---------------------------------------------------------------------

/// The handoff invariant: `workers` owned workers (1 to 3) running turns
/// over the flow tree `parents` in an order drawn from `schedule`, all on
/// this thread (`parents[i]` feeds stage `i + 1`; stage 0 is the root
/// fed from outside; stages with no children publish their output, the
/// rest are local-only links), deliver every one of `count` injected
/// items to every leaf exactly once, in injection order, and every
/// intra-node hop is a direct handoff (nothing runs out of credit).
fn check_flow_tree_handoff(parents: &[usize], count: u64, workers: usize, schedule: u64) {
    use ifot::core::config::{ExecutorConfig, OperatorKind, OperatorSpec};
    use ifot::core::env::MockEnv;
    use ifot::core::executor::{ExecutorGraph, WorkItem};
    use ifot::core::flow::FlowItem;
    use ifot::core::operators::OpOutput;
    use ifot::ml::feature::Datum;

    let n = parents.len() + 1;
    let mut children = vec![0usize; n];
    for &p in parents {
        children[p] += 1;
    }
    let specs: Vec<OperatorSpec> = (0..n)
        .map(|i| {
            let input = if i == 0 {
                "flow/in".to_string()
            } else {
                format!("flow/t{}", parents[i - 1])
            };
            let spec = OperatorSpec::through(
                format!("s{i}"),
                OperatorKind::Custom {
                    operator: "probe".into(),
                },
                vec![input],
                format!("flow/t{i}"),
            );
            if children[i] > 0 {
                spec.local_only()
            } else {
                spec
            }
        })
        .collect();
    let config = ExecutorConfig {
        workers,
        mailbox_capacity: 4096,
        ..ExecutorConfig::default()
    };
    let graph = ExecutorGraph::compile(specs, &config);
    let mut dealt = graph.deal(workers);
    let mut env = MockEnv::new();
    let mut order = SimRng::seed_from(schedule);

    // Egress into per-leaf logs. Nothing can run out of credit (capacity
    // 4096 > count), so nothing falls back.
    let mut egress: Vec<Vec<u64>> = vec![Vec::new(); n];
    let mut deliver = |stage: usize, outputs: Vec<OpOutput>| {
        for output in outputs {
            match output {
                OpOutput::Emit(m) => {
                    assert_eq!(
                        children[stage], 0,
                        "only leaves may reach deliver, stage {stage} leaked"
                    );
                    egress[stage].push(m.origin_ts_ns);
                }
                other => panic!("pass-through emitted {other:?}"),
            }
        }
    };
    // Injections and turns interleave in the drawn order; once every item
    // is in, whole rounds of turns run until one finds nothing to do.
    let mut next = 0u64;
    while next < count {
        if order.chance(0.5) {
            let item = FlowItem {
                topic: "flow/in".into(),
                origin_ts_ns: next,
                seq: next,
                datum: Datum::new().with("x", next as f64),
                label: None,
                score: None,
            };
            graph.enqueue(0, WorkItem::Item(item), 0);
            next += 1;
        } else {
            let w = order.below(workers as u64) as usize;
            dealt[w].turn(&mut env, &mut deliver);
        }
    }
    loop {
        let mut worked = false;
        for _ in 0..workers {
            let w = order.below(workers as u64) as usize;
            worked |= dealt[w].turn(&mut env, &mut deliver);
        }
        for worker in &mut dealt {
            worked |= worker.turn(&mut env, &mut deliver);
        }
        if !worked {
            break;
        }
    }
    graph.reclaim(dealt);

    // Exact conservation + per-topic FIFO at every leaf.
    let expected: Vec<u64> = (0..count).collect();
    for i in 0..n {
        if children[i] == 0 {
            assert_eq!(
                egress[i], expected,
                "leaf {i} must see the stream exactly once, in order"
            );
        } else {
            assert!(egress[i].is_empty());
        }
    }
    // Every intra-node hop was a direct handoff: stage i hands each of the
    // `count` items to each of its children.
    for (i, fanout) in children.iter().enumerate().take(n) {
        let stats = graph.stats(i);
        assert_eq!(stats.handoff_direct, count * *fanout as u64);
        assert_eq!(stats.handoff_fallback, 0);
    }
}

/// Deterministic corner topologies: a deep chain, a wide star, and a mixed
/// tree, on one, two and three workers.
#[test]
fn direct_handoff_tree_smoke() {
    for workers in 1..=3 {
        check_flow_tree_handoff(&[0], 1, workers, 1); // two-stage chain, one item
        check_flow_tree_handoff(&[0, 1, 2, 3], 40, workers, 2); // five-stage chain
        check_flow_tree_handoff(&[0, 0, 0, 0], 40, workers, 3); // star fan-out
        check_flow_tree_handoff(&[0, 0, 1, 2, 2], 40, workers, 4); // mixed tree
    }
}

/// Direct handoff over an arbitrary flow tree, on 1 to 3 owned workers
/// whose turns run in a drawn order, conserves the stream exactly and
/// preserves per-topic FIFO.
#[test]
fn direct_handoff_conserves_and_orders_any_flow_tree() {
    check(
        "direct_handoff_conserves_and_orders_any_flow_tree",
        CASES,
        |g| {
            // A parent among stages 0..=i for each stage i + 1.
            let extra = g.len(1, 6);
            let parents: Vec<usize> = (0..extra).map(|i| g.below(i as u64 + 1) as usize).collect();
            let count = g.len(1, 48) as u64;
            let workers = g.pick(&[1, 2, 3]);
            check_flow_tree_handoff(&parents, count, workers, g.next_u64());
        },
    );
}
