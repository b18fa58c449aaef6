//! Property-based tests over the substrates' core invariants
//! (DESIGN.md §7).

mod common;

use proptest::prelude::*;

use ifot::mqtt::codec::{decode, encode, encoded_len};
use ifot::mqtt::packet::{
    Connack, Connect, ConnectReturnCode, LastWill, Packet, Publish, QoS, Suback, SubackCode,
    Subscribe, SubscribeFilter, Unsubscribe,
};
use ifot::mqtt::topic::{TopicFilter, TopicName};
use ifot::mqtt::tree::SubscriptionTree;

// ---------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------

fn topic_level() -> impl Strategy<Value = String> {
    prop::string::string_regex("[a-z0-9_]{1,6}").expect("valid regex")
}

fn topic_name_str() -> impl Strategy<Value = String> {
    prop::collection::vec(topic_level(), 1..5).prop_map(|levels| levels.join("/"))
}

fn topic_filter_str() -> impl Strategy<Value = String> {
    prop::collection::vec(
        prop_oneof![
            4 => topic_level(),
            1 => Just("+".to_owned()),
        ],
        1..5,
    )
    .prop_map(|levels| levels.join("/"))
    .prop_flat_map(|base| {
        prop_oneof![
            3 => Just(base.clone()),
            1 => Just(format!("{base}/#")),
        ]
    })
}

fn qos() -> impl Strategy<Value = QoS> {
    prop_oneof![
        Just(QoS::AtMostOnce),
        Just(QoS::AtLeastOnce),
        Just(QoS::ExactlyOnce),
    ]
}

fn arb_publish() -> impl Strategy<Value = Publish> {
    (
        topic_name_str(),
        qos(),
        any::<bool>(),
        any::<bool>(),
        prop::collection::vec(any::<u8>(), 0..128),
        1u16..=u16::MAX,
    )
        .prop_map(|(topic, qos, dup, retain, payload, pid)| {
            let topic = TopicName::new(topic).expect("generated topics are valid");
            let mut p = Publish::qos0(topic, payload);
            p.dup = dup && qos != QoS::AtMostOnce;
            p.qos = qos;
            p.retain = retain;
            p.packet_id = (qos != QoS::AtMostOnce).then_some(pid);
            p
        })
}

fn arb_connect() -> impl Strategy<Value = Connect> {
    (
        prop::string::string_regex("[a-z0-9-]{0,12}").expect("valid regex"),
        any::<bool>(),
        any::<u16>(),
        prop::option::of((
            topic_name_str(),
            prop::collection::vec(any::<u8>(), 0..32),
            qos(),
            any::<bool>(),
        )),
        prop::option::of(prop::string::string_regex("[a-z]{1,8}").expect("valid regex")),
        prop::option::of(prop::collection::vec(any::<u8>(), 0..16)),
    )
        .prop_map(
            |(client_id, clean_session, keep_alive_secs, will, username, password)| Connect {
                client_id,
                clean_session,
                keep_alive_secs,
                will: will.map(|(topic, payload, qos, retain)| LastWill {
                    topic: TopicName::new(topic).expect("generated topics are valid"),
                    payload: payload.into(),
                    qos,
                    retain,
                }),
                username,
                password: password.map(Into::into),
            },
        )
}

fn arb_packet() -> impl Strategy<Value = Packet> {
    prop_oneof![
        arb_connect().prop_map(Packet::Connect),
        (any::<bool>(), 0u8..=5).prop_map(|(sp, code)| Packet::Connack(Connack {
            session_present: sp,
            code: ConnectReturnCode::from_byte(code).expect("generated codes are valid"),
        })),
        arb_publish().prop_map(Packet::Publish),
        (1u16..=u16::MAX).prop_map(Packet::Puback),
        (1u16..=u16::MAX).prop_map(Packet::Pubrec),
        (1u16..=u16::MAX).prop_map(Packet::Pubrel),
        (1u16..=u16::MAX).prop_map(Packet::Pubcomp),
        (
            1u16..=u16::MAX,
            prop::collection::vec((topic_filter_str(), qos()), 1..4)
        )
            .prop_map(|(pid, filters)| Packet::Subscribe(Subscribe {
                packet_id: pid,
                filters: filters
                    .into_iter()
                    .map(|(f, q)| SubscribeFilter {
                        filter: TopicFilter::new(f).expect("generated filters are valid"),
                        qos: q,
                    })
                    .collect(),
            })),
        (
            1u16..=u16::MAX,
            prop::collection::vec(prop_oneof![0u8..=2, Just(0x80u8)], 1..4)
        )
            .prop_map(|(pid, codes)| Packet::Suback(Suback {
                packet_id: pid,
                codes: codes
                    .into_iter()
                    .map(|c| SubackCode::from_byte(c).expect("generated codes are valid"))
                    .collect(),
            })),
        (
            1u16..=u16::MAX,
            prop::collection::vec(topic_filter_str(), 1..4)
        )
            .prop_map(|(pid, filters)| Packet::Unsubscribe(Unsubscribe {
                packet_id: pid,
                filters: filters
                    .into_iter()
                    .map(|f| TopicFilter::new(f).expect("generated filters are valid"))
                    .collect(),
            })),
        (1u16..=u16::MAX).prop_map(Packet::Unsuback),
        Just(Packet::Pingreq),
        Just(Packet::Pingresp),
        Just(Packet::Disconnect),
    ]
}

// ---------------------------------------------------------------------
// MQTT codec
// ---------------------------------------------------------------------

proptest! {
    /// decode(encode(p)) == p for every representable packet, and the
    /// single-write encoder produces the frame the two-buffer one did,
    /// sized exactly beforehand.
    #[test]
    fn codec_round_trips(packet in arb_packet()) {
        let bytes = encode(&packet);
        prop_assert_eq!(&bytes[..], &common::reference_encode(&packet)[..]);
        prop_assert_eq!(encoded_len(&packet), bytes.len());
        let (decoded, used) = decode(&bytes)
            .expect("own encoding decodes")
            .expect("own encoding is complete");
        prop_assert_eq!(used, bytes.len());
        prop_assert_eq!(decoded, packet);
    }

    /// Every strict prefix of a valid packet is "incomplete", never an
    /// error and never a bogus success.
    #[test]
    fn codec_prefixes_are_incomplete(packet in arb_packet(), cut_ratio in 0.0f64..1.0) {
        let bytes = encode(&packet);
        let cut = ((bytes.len() as f64) * cut_ratio) as usize;
        if cut < bytes.len() {
            prop_assert_eq!(decode(&bytes[..cut]).expect("prefixes are not errors"), None);
        }
    }

    /// Arbitrary bytes never panic the decoder.
    #[test]
    fn codec_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode(&bytes);
    }

    /// The buffering stream decoder yields the same packet sequence no
    /// matter how the wire bytes are chunked (the zero-copy BytesMut path
    /// agrees with whole-buffer decoding).
    #[test]
    fn stream_decoder_chunking_invariance(
        packets in prop::collection::vec(arb_packet(), 1..6),
        cuts in prop::collection::vec(1usize..16, 0..8),
    ) {
        use ifot::mqtt::codec::StreamDecoder;
        let mut wire = Vec::new();
        for p in &packets {
            wire.extend_from_slice(&encode(p));
        }
        let wire = bytes::Bytes::from(wire);
        // Fed as slices (always the stream path) and as shared chunks
        // (the in-place path whenever a chunk is exactly one frame).
        for shared in [false, true] {
            let mut dec = StreamDecoder::new();
            let mut got = Vec::new();
            let mut pos = 0;
            let mut i = 0;
            while pos < wire.len() {
                let step = if cuts.is_empty() { wire.len() } else { cuts[i % cuts.len()] };
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
            prop_assert_eq!(&got, &packets);
        }
        // One frame per chunk — what a message transport delivers —
        // decodes in place to the same packets.
        let mut dec = StreamDecoder::new();
        for p in &packets {
            dec.feed(&encode(p));
            prop_assert_eq!(dec.next_packet().expect("valid frame"), Some(p.clone()));
            prop_assert_eq!(dec.buffered(), 0);
        }
    }

    /// A payload built from a `Vec<u8>` and one built from a shared
    /// `Bytes` of the same content produce byte-identical encodings.
    #[test]
    fn bytes_and_vec_payloads_encode_identically(
        topic in topic_name_str(),
        payload in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let from_vec = Publish::qos0(
            TopicName::new(topic.clone()).expect("valid"),
            payload.clone(),
        );
        let from_bytes = Publish::qos0(
            TopicName::new(topic).expect("valid"),
            bytes::Bytes::from(payload),
        );
        prop_assert_eq!(
            encode(&Packet::Publish(from_vec)),
            encode(&Packet::Publish(from_bytes))
        );
    }
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

proptest! {
    /// Retained messages: a late subscriber on `#` sees exactly the last
    /// non-empty retained payload per topic (empty payloads clear).
    #[test]
    fn retained_last_writer_wins(
        ops in prop::collection::vec((0usize..4, prop::collection::vec(any::<u8>(), 0..8)), 1..16),
    ) {
        use ifot::mqtt::broker::Broker;
        use std::collections::BTreeMap;

        let topics = ["r/a", "r/b", "r/c/d", "r/c/e"];
        let mut broker: Broker<u8> = Broker::new();
        broker.connection_opened(0, 0);
        broker.handle_packet(&0, Packet::Connect(Connect::new("pub")), 0);
        let mut expected: BTreeMap<&str, Vec<u8>> = BTreeMap::new();
        for (idx, payload) in &ops {
            let topic = topics[*idx];
            if payload.is_empty() {
                expected.remove(topic);
            } else {
                expected.insert(topic, payload.clone());
            }
            let mut publish = Publish::qos0(
                TopicName::new(topic).expect("valid"),
                payload.clone(),
            );
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
        for p in deliveries_to(&actions, 1) {
            if let Packet::Publish(p) = p {
                prop_assert!(p.retain, "retained delivery keeps the retain flag");
                got.insert(p.topic.as_str().to_owned(), p.payload.to_vec());
            }
        }
        let expected: BTreeMap<String, Vec<u8>> = expected
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect();
        prop_assert_eq!(got, expected);
    }

    /// QoS 1/2 delivery and timeout redelivery carry the original payload
    /// unchanged (per-subscriber headers over the shared body).
    #[test]
    fn qos12_redelivery_preserves_payload(
        payload in prop::collection::vec(any::<u8>(), 0..64),
        exactly_once in any::<bool>(),
    ) {
        use ifot::mqtt::broker::Broker;

        let qos = if exactly_once { QoS::ExactlyOnce } else { QoS::AtLeastOnce };
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
            prop_assert!(
                deliveries_to(&repeat, 1)
                    .iter()
                    .all(|p| !matches!(p, Packet::Publish(_))),
                "duplicate QoS 2 publish must not be re-routed"
            );
        }
        let first: Vec<_> = deliveries_to(&actions, 1)
            .into_iter()
            .filter_map(|p| match p {
                Packet::Publish(p) => Some(p),
                _ => None,
            })
            .collect();
        prop_assert_eq!(first.len(), 1);
        prop_assert!(!first[0].dup);
        prop_assert_eq!(first[0].qos, qos);
        prop_assert_eq!(first[0].payload.as_ref(), &payload[..]);
        let pid = first[0].packet_id.expect("qos > 0 carries a packet id");

        // No ack from the subscriber: the broker redelivers after its
        // retransmit timeout with the dup flag and the same payload.
        let redelivered: Vec<_> = deliveries_to(&broker.poll(3_000_000_000), 1)
            .into_iter()
            .filter_map(|p| match p {
                Packet::Publish(p) => Some(p),
                _ => None,
            })
            .collect();
        prop_assert_eq!(redelivered.len(), 1);
        prop_assert!(redelivered[0].dup);
        prop_assert_eq!(redelivered[0].packet_id, Some(pid));
        prop_assert_eq!(redelivered[0].payload.as_ref(), &payload[..]);
    }
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

proptest! {
    /// `TopicFilter::matches` agrees with the reference matcher.
    #[test]
    fn filter_matching_agrees_with_reference(
        filter in topic_filter_str(),
        topic in topic_name_str(),
    ) {
        let f = TopicFilter::new(filter.clone()).expect("generated filters are valid");
        let t = TopicName::new(topic.clone()).expect("generated topics are valid");
        prop_assert_eq!(f.matches(&t), reference_matches(&filter, &topic));
    }

    /// The subscription trie returns exactly the keys whose filters match
    /// (per the reference matcher), deduplicated.
    #[test]
    fn tree_matches_equal_linear_scan(
        filters in prop::collection::vec(topic_filter_str(), 1..12),
        topic in topic_name_str(),
    ) {
        let mut tree: SubscriptionTree<usize> = SubscriptionTree::new();
        for (i, f) in filters.iter().enumerate() {
            tree.subscribe(i, &TopicFilter::new(f.clone()).expect("valid"), QoS::AtMostOnce);
        }
        let mut expected: Vec<usize> = filters
            .iter()
            .enumerate()
            .filter(|(_, f)| reference_matches(f, &topic))
            .map(|(i, _)| i)
            .collect();
        expected.sort_unstable();
        expected.dedup();
        let got: Vec<usize> = tree
            .matches(&TopicName::new(topic.clone()).expect("valid"))
            .into_iter()
            .map(|s| s.key)
            .collect();
        prop_assert_eq!(got, expected);
    }

    /// Unsubscribing everything empties the trie.
    #[test]
    fn tree_unsubscribe_is_complete(
        filters in prop::collection::vec(topic_filter_str(), 1..12),
    ) {
        let mut tree: SubscriptionTree<usize> = SubscriptionTree::new();
        let parsed: Vec<TopicFilter> = filters
            .iter()
            .map(|f| TopicFilter::new(f.clone()).expect("valid"))
            .collect();
        for (i, f) in parsed.iter().enumerate() {
            tree.subscribe(i, f, QoS::AtMostOnce);
        }
        for (i, f) in parsed.iter().enumerate() {
            prop_assert!(tree.unsubscribe(&i, f));
        }
        prop_assert!(tree.is_empty());
    }
}

// ---------------------------------------------------------------------
// ML invariants
// ---------------------------------------------------------------------

proptest! {
    /// Running stats match a batch recomputation on arbitrary data.
    #[test]
    fn running_stats_match_batch(values in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let mut s = ifot::ml::stat::RunningStats::new();
        for &v in &values {
            s.push(v);
        }
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
        prop_assert!((s.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
        prop_assert!((s.variance() - var).abs() < 1e-3 * (1.0 + var));
    }

    /// Merging partitioned stats equals the whole.
    #[test]
    fn stats_merge_is_associative(
        left in prop::collection::vec(-1e3f64..1e3, 0..50),
        right in prop::collection::vec(-1e3f64..1e3, 0..50),
    ) {
        let mut whole = ifot::ml::stat::RunningStats::new();
        for v in left.iter().chain(right.iter()) {
            whole.push(*v);
        }
        let mut a = ifot::ml::stat::RunningStats::new();
        let mut b = ifot::ml::stat::RunningStats::new();
        for v in &left {
            a.push(*v);
        }
        for v in &right {
            b.push(*v);
        }
        a.merge(&b);
        prop_assert_eq!(a.count(), whole.count());
        prop_assert!((a.mean() - whole.mean()).abs() < 1e-9 + 1e-9 * whole.mean().abs());
        prop_assert!((a.variance() - whole.variance()).abs() < 1e-6 * (1.0 + whole.variance()));
    }

    /// The PA update never breaks on arbitrary sparse inputs and keeps
    /// scores finite; and for every learner, at every state the training
    /// run passes through, `classify` is the head of `scores` (the
    /// seeded sweep in `tests/flow_values.rs`, on generated inputs).
    #[test]
    fn pa_scores_stay_finite(
        examples in prop::collection::vec(
            (prop::collection::vec((0u32..64, -100.0f64..100.0), 1..6), any::<bool>()),
            1..60,
        )
    ) {
        use ifot::ml::classifier::{Arow, OnlineClassifier, Perceptron};
        let mut m = ifot::ml::classifier::PassiveAggressive::default();
        let (mut perceptron, mut arow) = (Perceptron::new(), Arow::default());
        for (pairs, positive) in &examples {
            let x = ifot::ml::feature::FeatureVector::from_pairs(pairs.clone());
            let label = if *positive { "p" } else { "n" };
            m.train(&x, label);
            perceptron.train(&x, label);
            arow.train(&x, label);
            let head = |scores: Vec<ifot::ml::classifier::LabelScore>| {
                scores.into_iter().next().map(|s| s.label)
            };
            prop_assert_eq!(m.classify(&x), head(m.scores(&x)));
            prop_assert_eq!(perceptron.classify(&x), head(perceptron.scores(&x)));
            prop_assert_eq!(arow.classify(&x), head(arow.scores(&x)));
        }
        let (pairs, _) = &examples[0];
        let x = ifot::ml::feature::FeatureVector::from_pairs(pairs.clone());
        for score in m.scores(&x) {
            prop_assert!(score.score.is_finite());
        }
    }
}

// ---------------------------------------------------------------------
// Recipe invariants
// ---------------------------------------------------------------------

/// Generates a random DAG as (task count, forward edges).
fn arb_dag() -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
    (2usize..10).prop_flat_map(|n| {
        let edges = prop::collection::vec((0..n - 1, 1..n), 0..n * 2).prop_map(move |raw| {
            raw.into_iter()
                .filter(|(a, b)| a < b) // forward edges only: acyclic
                .collect::<Vec<_>>()
        });
        (Just(n), edges)
    })
}

proptest! {
    /// The split plan is a partition respecting every edge, for random
    /// DAGs.
    #[test]
    fn split_respects_random_dags((n, edges) in arb_dag()) {
        use ifot::recipe::model::{Recipe, Task, TaskKind};
        let mut builder = Recipe::builder("prop");
        for i in 0..n {
            builder = builder.task(Task::new(format!("t{i}"), TaskKind::Window { size_ms: 1 }));
        }
        let mut dedup = edges.clone();
        dedup.sort_unstable();
        dedup.dedup();
        for (a, b) in &dedup {
            builder = builder.edge(format!("t{a}"), format!("t{b}"));
        }
        let recipe = builder.build().expect("forward edges cannot cycle");
        let plan = ifot::recipe::split::split(&recipe);
        prop_assert_eq!(plan.task_count(), n);
        for (a, b) in &dedup {
            let sa = plan.stage_of(&format!("t{a}")).expect("placed");
            let sb = plan.stage_of(&format!("t{b}")).expect("placed");
            prop_assert!(sa < sb, "edge t{} -> t{} not forward in stages", a, b);
        }
    }

    /// Every assignment strategy places every task on a capable module.
    #[test]
    fn assignment_respects_capabilities((n, edges) in arb_dag(), strategy_pick in 0usize..3) {
        use ifot::recipe::assign::{
            AssignmentStrategy, CapabilityAware, LoadAware, ModuleInfo, RoundRobin,
        };
        use ifot::recipe::model::{Recipe, Task, TaskKind};
        let mut builder = Recipe::builder("prop");
        for i in 0..n {
            // Alternate sensing and compute tasks.
            let kind = if i % 3 == 0 {
                TaskKind::Sense { sensor: "sound".into(), rate_hz: 1.0 }
            } else {
                TaskKind::Window { size_ms: 1 }
            };
            builder = builder.task(Task::new(format!("t{i}"), kind));
        }
        let mut dedup = edges.clone();
        dedup.sort_unstable();
        dedup.dedup();
        for (a, b) in &dedup {
            builder = builder.edge(format!("t{a}"), format!("t{b}"));
        }
        let recipe = builder.build().expect("valid");
        let modules = vec![
            ModuleInfo::new("sensing", 1.0).with_capability("sensor:sound"),
            ModuleInfo::new("compute", 2.0),
        ];
        let strategy: &dyn AssignmentStrategy = match strategy_pick {
            0 => &RoundRobin,
            1 => &CapabilityAware,
            _ => &LoadAware,
        };
        let assignment = strategy.assign(&recipe, &modules).expect("assignable");
        prop_assert_eq!(assignment.len(), n);
        for task in recipe.tasks() {
            let module = assignment.module_of(&task.id).expect("placed");
            if task.kind.required_capability().is_some() {
                prop_assert_eq!(module, "sensing");
            }
        }
    }
}

// ---------------------------------------------------------------------
// Recipe DSL: render ∘ parse = identity
// ---------------------------------------------------------------------

fn arb_task_kind() -> impl Strategy<Value = ifot::recipe::model::TaskKind> {
    use ifot::recipe::model::TaskKind;
    let name = || prop::string::string_regex("[a-z]{1,8}").expect("valid regex");
    prop_oneof![
        (name(), 1.0f64..100.0).prop_map(|(sensor, rate_hz)| TaskKind::Sense {
            sensor: "sound".into(),
            rate_hz: rate_hz.round(),
        }
        .pick_sensor(sensor)),
        (1u64..10_000).prop_map(|size_ms| TaskKind::Window { size_ms }),
        name().prop_map(|algorithm| TaskKind::Train { algorithm }),
        name().prop_map(|algorithm| TaskKind::Predict { algorithm }),
        (name(), -10.0f64..10.0).prop_map(|(detector, threshold)| TaskKind::DetectAnomaly {
            detector,
            threshold: (threshold * 4.0).round() / 4.0,
        }),
        name().prop_map(|model| TaskKind::Estimate { model }),
        (name(), name(), 0.0f64..50.0, 50.0f64..100.0).prop_map(|(key, emit, off, on)| {
            TaskKind::Policy {
                key,
                on_above: on.round(),
                off_below: off.round(),
                emit,
            }
        }),
        name().prop_map(|actuator| TaskKind::Actuate { actuator }),
        name().prop_map(|operator| TaskKind::Custom { operator }),
    ]
}

/// Helper so the Sense arm above can use a generated sensor name.
trait PickSensor {
    fn pick_sensor(self, sensor: String) -> Self;
}
impl PickSensor for ifot::recipe::model::TaskKind {
    fn pick_sensor(mut self, new: String) -> Self {
        if let ifot::recipe::model::TaskKind::Sense { sensor, .. } = &mut self {
            *sensor = new;
        }
        self
    }
}

proptest! {
    /// Rendering a random valid recipe to DSL and parsing it back yields
    /// the identical recipe.
    #[test]
    fn dsl_render_parse_round_trips(
        kinds in prop::collection::vec(arb_task_kind(), 1..8),
        edge_picks in prop::collection::vec((0usize..7, 1usize..8), 0..10),
    ) {
        use ifot::recipe::model::{Recipe, Task};
        let n = kinds.len();
        let mut builder = Recipe::builder("prop_recipe");
        for (i, kind) in kinds.into_iter().enumerate() {
            builder = builder.task(Task::new(format!("t{i}"), kind));
        }
        let mut edges: Vec<(usize, usize)> = edge_picks
            .into_iter()
            .map(|(a, b)| (a % n, b % n))
            .filter(|(a, b)| a < b)
            .collect();
        edges.sort_unstable();
        edges.dedup();
        for (a, b) in edges {
            builder = builder.edge(format!("t{a}"), format!("t{b}"));
        }
        let recipe = builder.build().expect("forward edges cannot cycle");
        let rendered = ifot::recipe::dsl::render(&recipe);
        let parsed = ifot::recipe::dsl::parse(&rendered)
            .expect("rendered recipes parse");
        prop_assert_eq!(parsed, recipe);
    }
}

// ---------------------------------------------------------------------
// Flow-plane and model-plane wire formats
// ---------------------------------------------------------------------

fn arb_datum() -> impl Strategy<Value = ifot::ml::feature::Datum> {
    prop::collection::vec(
        (
            prop::string::string_regex("[a-z_]{1,10}").expect("valid regex"),
            -1e9f64..1e9,
        ),
        0..6,
    )
    .prop_map(|pairs| {
        let mut datum = ifot::ml::feature::Datum::new();
        for (k, v) in pairs {
            datum.set(k, v);
        }
        datum
    })
}

fn arb_flow_message() -> impl Strategy<Value = ifot::core::flow::FlowMessage> {
    (
        prop::string::string_regex("[a-z0-9-]{1,12}").expect("valid regex"),
        any::<u64>(),
        any::<u64>(),
        arb_datum(),
        prop::option::of(prop::string::string_regex("[a-z]{1,8}").expect("valid regex")),
        prop::option::of(-1e6f64..1e6),
    )
        .prop_map(|(producer, origin_ts_ns, seq, datum, label, score)| {
            ifot::core::flow::FlowMessage {
                producer: producer.into(),
                origin_ts_ns,
                seq,
                datum,
                label,
                score,
            }
        })
}

/// Arbitrary model snapshots, produced the way real nodes produce them:
/// by training a linear classifier on arbitrary examples and exporting.
fn arb_model_diff() -> impl Strategy<Value = ifot::ml::mix::ModelDiff> {
    prop::collection::vec(
        (
            prop::collection::vec((0u32..64, -10.0f64..10.0), 1..4),
            0usize..3,
        ),
        0..12,
    )
    .prop_map(|examples| {
        use ifot::ml::classifier::OnlineClassifier;
        use ifot::ml::mix::LinearModel;
        let mut m = ifot::ml::classifier::PassiveAggressive::default();
        let labels = ["a", "b", "c"];
        for (pairs, pick) in examples {
            let x = ifot::ml::feature::FeatureVector::from_pairs(pairs);
            m.train(&x, labels[pick]);
        }
        m.export_diff()
    })
}

proptest! {
    /// Flow messages survive the message frame for arbitrary data,
    /// labels and scores; truncations of a valid frame and payloads that
    /// are not frames are rejected as errors — never a panic, never a
    /// bogus success.
    #[test]
    fn flow_message_rejects_corrupt_payloads(
        msg in arb_flow_message(),
        cut_pick in any::<usize>(),
        junk in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        use ifot::core::flow::FlowMessage;
        let bytes = msg.encode();
        prop_assert_eq!(&bytes, &ifot::core::wire::encode_message_binary(&msg));
        prop_assert_eq!(&FlowMessage::decode(&bytes).expect("own encoding decodes"), &msg);
        prop_assert_eq!(
            ifot::core::wire::decode_items("flow/x", &bytes).expect("decodes"),
            vec![ifot::core::flow::FlowItem::from_message("flow/x", msg)]
        );
        let cut = 1 + cut_pick % (bytes.len() - 1);
        prop_assert!(FlowMessage::decode(&bytes[..cut]).is_err());
        prop_assert!(FlowMessage::decode(b"{}").is_err());
        let _ = FlowMessage::decode(&junk); // must not panic
    }

    /// Coalesced batches round-trip through the binary frame with item
    /// order preserved, and the peek helpers report the batch header
    /// without a full decode. The messages' features, written into one
    /// datum in order (the first message's once more at the end, so keys
    /// are overwritten), read and hash exactly as the string-keyed map
    /// oracle's — `tests/flow_values.rs`' sweep, on generated inputs.
    #[test]
    fn flow_batch_binary_round_trips(
        msgs in prop::collection::vec(arb_flow_message(), 1..10),
    ) {
        use ifot::core::flow::{FlowBatch, FlowItem};
        use ifot::core::wire::{decode_batch_binary, decode_items, encode_batch_binary, peek_first_origin, peek_item_count};
        let batch = FlowBatch { items: msgs.clone() };
        let bytes = encode_batch_binary(&batch);
        prop_assert_eq!(decode_batch_binary(&bytes).expect("own encoding decodes"), batch);
        let items: Vec<FlowItem> = msgs
            .iter()
            .map(|m| FlowItem::from_message("flow/x", m.clone()))
            .collect();
        prop_assert_eq!(decode_items("flow/x", &bytes).expect("decodes"), items);
        prop_assert_eq!(peek_item_count(&bytes), Some(msgs.len()));
        prop_assert_eq!(peek_first_origin(&bytes), Some(msgs[0].origin_ts_ns));

        let mut datum = ifot::ml::feature::Datum::new();
        let mut oracle = common::oracle::MapDatum::default();
        for msg in msgs.iter().chain(msgs.first()) {
            for (k, v) in msg.datum.iter() {
                datum.set(k.to_owned(), v);
                oracle.set(k, v);
            }
        }
        let bits = |v: f64| v.to_bits();
        prop_assert_eq!(datum.len(), oracle.len());
        prop_assert_eq!(
            datum.iter().map(|(k, v)| (k, bits(v))).collect::<Vec<_>>(),
            oracle.iter().map(|(k, v)| (k, bits(v))).collect::<Vec<_>>()
        );
        for dimensions in [1, 2, 7, 1 << 18] {
            prop_assert_eq!(
                datum.to_vector(dimensions).iter().map(|(i, v)| (i, bits(v))).collect::<Vec<_>>(),
                oracle.to_vector(dimensions).into_iter().map(|(i, v)| (i, bits(v))).collect::<Vec<_>>()
            );
        }
    }

    /// Truncations and corruptions of a valid binary frame are rejected
    /// as errors — never a panic, never a bogus success.
    #[test]
    fn binary_frames_reject_corrupt_payloads(
        msgs in prop::collection::vec(arb_flow_message(), 1..6),
        cut_pick in any::<usize>(),
        flip_pick in any::<usize>(),
        junk in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        use ifot::core::flow::FlowBatch;
        use ifot::core::wire::{decode_batch_binary, decode_items, encode_batch_binary, FRAME_MAGIC};
        let batch = FlowBatch { items: msgs };
        let bytes = encode_batch_binary(&batch);
        // Every strict prefix fails (the length-prefixed reader runs dry
        // or the trailing-bytes check fires).
        let cut = cut_pick % bytes.len();
        prop_assert!(decode_batch_binary(&bytes[..cut]).is_err());
        // A version/kind corruption right after the magic byte fails.
        let mut bad = bytes.clone();
        bad[1 + flip_pick % 2] ^= 0xFF;
        prop_assert!(decode_batch_binary(&bad).is_err());
        // Arbitrary junk behind the magic byte must error, not panic.
        let mut framed = vec![FRAME_MAGIC];
        framed.extend_from_slice(&junk);
        prop_assert!(decode_items("flow/x", &framed).is_err() || framed == bytes);
    }

    /// MIX envelopes round-trip with real exported model snapshots in
    /// both protocol roles, and corrupt MIX payloads are rejected, not
    /// panicked on: a malformed model-plane message must never take down
    /// a coordinator.
    #[test]
    fn mix_envelope_rejects_corrupt_payloads(
        is_avg in any::<bool>(),
        task in prop::string::string_regex("[a-z0-9-]{1,12}").expect("valid regex"),
        diff in arb_model_diff(),
        cut_pick in any::<usize>(),
        junk in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        use ifot::core::operators::MixEnvelope;
        let envelope = MixEnvelope {
            role: if is_avg { "avg" } else { "offer" }.into(),
            task,
            diff,
        };
        let bytes = envelope.encode();
        prop_assert_eq!(&MixEnvelope::decode(&bytes).expect("own encoding decodes"), &envelope);
        let cut = 1 + cut_pick % (bytes.len() - 1);
        prop_assert!(MixEnvelope::decode(&bytes[..cut]).is_err());
        prop_assert!(MixEnvelope::decode(b"oops").is_err());
        let _ = MixEnvelope::decode(&junk); // must not panic
    }
}

// ---------------------------------------------------------------------
// Simulator: event ordering and determinism under random workloads
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    /// For random emitter topologies, the simulator processes events in
    /// non-decreasing time order and identical seeds replay identically.
    #[test]
    fn simulator_ordering_and_determinism(
        seed in 0u64..1_000,
        intervals in prop::collection::vec(1u64..40, 1..5),
    ) {
        use ifot::netsim::actor::{Actor, Context, Packet};
        use ifot::netsim::cpu::CpuProfile;
        use ifot::netsim::sim::Simulation;
        use ifot::netsim::time::SimDuration;

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

        let (got_a, trace_a) = build(seed, &intervals);
        // Ordering: processing times never go backwards.
        let mut last = ifot::netsim::time::SimTime::ZERO;
        for entry in trace_a.entries() {
            prop_assert!(entry.time >= last, "time went backwards");
            last = entry.time;
        }
        prop_assert!(got_a > 0);
        // Determinism: same seed, same trace.
        let (got_b, trace_b) = build(seed, &intervals);
        prop_assert_eq!(got_a, got_b);
        prop_assert_eq!(trace_a.digest(), trace_b.digest());
    }
}

// ---------------------------------------------------------------------
// Sensor sample codec
// ---------------------------------------------------------------------

proptest! {
    /// The 32-byte sample image round-trips for arbitrary field values.
    #[test]
    fn sample_wire_round_trips(
        kind_byte in 0u8..7,
        device in any::<u16>(),
        seq in any::<u32>(),
        ts in any::<u64>(),
        values in prop::collection::vec(-1e30f32..1e30, 1..4),
    ) {
        use ifot::sensors::sample::{Sample, SensorKind};
        let kind = SensorKind::from_byte(kind_byte).expect("generated kinds are valid");
        let sample = Sample::new(kind, device, seq, ts, &values);
        let decoded = Sample::decode(&sample.encode()).expect("round trip");
        prop_assert_eq!(decoded, sample);
    }
}

// ---------------------------------------------------------------------
// Delivery guarantees under arbitrary loss + reconnect schedules
// ---------------------------------------------------------------------

fn arb_disruption_schedule() -> impl Strategy<Value = Vec<(u64, bool)>> {
    prop::collection::vec((100u64..20_000, any::<bool>()), 0..5)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    /// QoS 1 stays at-least-once — with every payload preserved — no
    /// matter where loss strikes or when either side's transport is
    /// forcibly torn down and resumed via the reconnect supervisor.
    #[test]
    fn qos1_at_least_once_under_arbitrary_loss_and_reconnects(
        loss_pct in 0u64..=25,
        schedule in arb_disruption_schedule(),
        seed in any::<u64>(),
    ) {
        let run = common::run_with_reconnects(
            QoS::AtLeastOnce, 30, loss_pct, &schedule, seed);
        prop_assert!(run.settled, "run never drained: {run:?}");
        prop_assert_eq!(run.delivered.len(), 30);
        for i in 0u32..30 {
            let n = run.delivered.get(i.to_be_bytes().as_slice());
            prop_assert!(n.is_some_and(|&n| n >= 1),
                "message {} violated at-least-once: {:?}", i, run);
        }
    }

    /// QoS 2 stays exactly-once across the same schedules: session
    /// resume may replay PUBLISH/PUBREL, but never into a duplicate
    /// delivery.
    #[test]
    fn qos2_exactly_once_under_arbitrary_loss_and_reconnects(
        loss_pct in 0u64..=25,
        schedule in arb_disruption_schedule(),
        seed in any::<u64>(),
    ) {
        let run = common::run_with_reconnects(
            QoS::ExactlyOnce, 30, loss_pct, &schedule, seed);
        prop_assert!(run.settled, "run never drained: {run:?}");
        prop_assert_eq!(run.delivered.len(), 30);
        for i in 0u32..30 {
            let n = run.delivered.get(i.to_be_bytes().as_slice());
            prop_assert!(n == Some(&1),
                "message {} violated exactly-once: {:?}", i, run);
        }
    }
}

// ---------------------------------------------------------------------
// Write-ahead log: framing, replay equivalence, corrupt-tail recovery
// ---------------------------------------------------------------------

fn arb_client_id() -> impl Strategy<Value = String> {
    prop::string::string_regex("[a-z0-9-]{1,8}").expect("valid regex")
}

fn arb_wal_stage() -> impl Strategy<Value = ifot::mqtt::wal::WalStage> {
    use ifot::mqtt::wal::WalStage;
    prop_oneof![
        Just(WalStage::AwaitPuback),
        Just(WalStage::AwaitPubrec),
        Just(WalStage::AwaitPubcomp),
    ]
}

fn arb_durable_publish() -> impl Strategy<Value = ifot::mqtt::wal::DurablePublish> {
    (
        topic_name_str(),
        qos(),
        any::<bool>(),
        prop::collection::vec(any::<u8>(), 0..32),
    )
        .prop_map(
            |(topic, qos, retain, payload)| ifot::mqtt::wal::DurablePublish {
                topic,
                qos,
                retain,
                payload: payload.into(),
            },
        )
}

fn arb_wal_record() -> impl Strategy<Value = ifot::mqtt::wal::WalRecord> {
    use ifot::mqtt::wal::WalRecord;
    prop_oneof![
        any::<u64>().prop_map(|last_lsn| WalRecord::SnapshotHeader { last_lsn }),
        (arb_client_id(), any::<u16>())
            .prop_map(|(client, next_pid)| WalRecord::SessionStarted { client, next_pid }),
        arb_client_id().prop_map(|client| WalRecord::SessionCleared { client }),
        (arb_client_id(), topic_filter_str(), qos()).prop_map(|(client, filter, qos)| {
            WalRecord::Subscribed {
                client,
                filter,
                qos,
            }
        }),
        (arb_client_id(), topic_filter_str())
            .prop_map(|(client, filter)| WalRecord::Unsubscribed { client, filter }),
        arb_durable_publish().prop_map(|message| WalRecord::RetainSet { message }),
        topic_name_str().prop_map(|topic| WalRecord::RetainCleared { topic }),
        (arb_client_id(), arb_durable_publish())
            .prop_map(|(client, message)| WalRecord::Queued { client, message }),
        arb_client_id().prop_map(|client| WalRecord::QueuePopped { client }),
        (
            arb_client_id(),
            any::<u16>(),
            arb_wal_stage(),
            arb_durable_publish()
        )
            .prop_map(|(client, pid, stage, message)| WalRecord::InflightInsert {
                client,
                pid,
                stage,
                message
            }),
        (arb_client_id(), any::<u16>(), arb_wal_stage())
            .prop_map(|(client, pid, stage)| { WalRecord::InflightStage { client, pid, stage } }),
        (arb_client_id(), any::<u16>())
            .prop_map(|(client, pid)| WalRecord::InflightRemove { client, pid }),
        (arb_client_id(), any::<u16>())
            .prop_map(|(client, pid)| WalRecord::InQos2Insert { client, pid }),
        (arb_client_id(), any::<u16>())
            .prop_map(|(client, pid)| WalRecord::InQos2Remove { client, pid }),
    ]
}

proptest! {
    /// decode_record(encode_record(r)) == r for every record kind, with
    /// every byte consumed.
    #[test]
    fn wal_record_round_trips(rec in arb_wal_record()) {
        use ifot::mqtt::wal::{decode_record, encode_record};
        let mut buf = Vec::new();
        encode_record(&mut buf, &rec);
        let mut pos = 0;
        let decoded = decode_record(&buf, &mut pos).expect("own encoding decodes");
        prop_assert_eq!(pos, buf.len(), "every byte consumed");
        prop_assert_eq!(decoded, rec);
    }

    /// Committing arbitrary record batches through a [`Wal`] — with
    /// snapshot + truncate cycles interleaved at an arbitrary cadence —
    /// and recovering from the backend yields exactly the state of
    /// applying the records directly, in order.
    #[test]
    fn wal_snapshot_and_tail_replay_equals_direct_apply(
        batches in prop::collection::vec(
            prop::collection::vec(arb_wal_record(), 0..6), 1..12),
        snapshot_every in prop_oneof![Just(0u64), 1u64..16],
    ) {
        use ifot::mqtt::wal::{self, DurableState, MemBackend, Wal, WalConfig};
        let backend = MemBackend::new();
        let mut wal = Wal::new(
            Box::new(backend.clone()),
            WalConfig { snapshot_every, ..WalConfig::default() },
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
        prop_assert!(!report.log_truncated);
        prop_assert!(!report.snapshot_corrupt);
        prop_assert_eq!(report.state, mirror);
        // The recovered LSN positions a resumed writer above everything
        // on the backend.
        prop_assert!(report.last_lsn < wal.next_lsn() || report.last_lsn == 0);
    }

    /// Recovery from an arbitrarily truncated and bit-flipped log never
    /// panics and always lands on a clean batch-prefix state.
    #[test]
    fn wal_corrupt_tails_recover_a_clean_prefix(
        batches in prop::collection::vec(
            prop::collection::vec(arb_wal_record(), 1..5), 1..8),
        cut_pick in any::<usize>(),
        flips in prop::collection::vec((any::<usize>(), 0u8..8), 0..4),
    ) {
        use ifot::mqtt::wal::{self, DurableState, MemBackend, Wal, WalConfig};
        let backend = MemBackend::new();
        let mut wal = Wal::new(
            Box::new(backend.clone()),
            WalConfig { snapshot_every: 0, ..WalConfig::default() },
        );
        let mut states = vec![DurableState::default()];
        let mut acc = DurableState::default();
        for batch in &batches {
            for rec in batch {
                wal.record(rec);
                acc.apply(rec);
            }
            wal.commit();
            states.push(acc.clone());
        }
        let mut log = backend.raw_log();
        log.truncate(cut_pick % (log.len() + 1));
        for (at, bit) in &flips {
            if !log.is_empty() {
                let i = at % log.len();
                log[i] ^= 1 << bit;
            }
        }
        let corrupted = MemBackend::new();
        corrupted.set_raw_log(log);
        let report = wal::recover(&mut corrupted.clone()).expect("in-memory recover");
        prop_assert!(
            states.contains(&report.state),
            "recovered state is not a clean batch prefix: {:?}", report
        );
    }

    /// Opening a writer over an arbitrarily corrupted log *physically
    /// repairs* the backend: batches committed after the reopen survive a
    /// second crash (replay equals recovered-prefix state + new records,
    /// with no residual corruption) — the double-crash guarantee.
    #[test]
    fn wal_open_repairs_arbitrary_corruption(
        batches in prop::collection::vec(
            prop::collection::vec(arb_wal_record(), 1..5), 1..8),
        cut_pick in any::<usize>(),
        flips in prop::collection::vec((any::<usize>(), 0u8..8), 0..4),
        marker in arb_wal_record(),
    ) {
        use ifot::mqtt::wal::{self, MemBackend, Wal, WalConfig};
        let backend = MemBackend::new();
        let mut wal = Wal::new(
            Box::new(backend.clone()),
            WalConfig { snapshot_every: 0, ..WalConfig::default() },
        );
        for batch in &batches {
            for rec in batch {
                wal.record(rec);
            }
            wal.commit();
        }
        let mut log = backend.raw_log();
        log.truncate(cut_pick % (log.len() + 1));
        for (at, bit) in &flips {
            if !log.is_empty() {
                let i = at % log.len();
                log[i] ^= 1 << bit;
            }
        }
        let corrupted = MemBackend::new();
        corrupted.set_raw_log(log);

        let (mut wal, report) =
            Wal::open(Box::new(corrupted.clone()), WalConfig::default())
                .expect("in-memory open");
        wal.record(&marker);
        wal.commit();
        drop(wal); // second crash

        let again = wal::recover(&mut corrupted.clone()).expect("in-memory recover");
        prop_assert!(!again.log_truncated, "repair must leave a clean log: {:?}", again);
        prop_assert!(!again.snapshot_corrupt);
        let mut expect = report.state.clone();
        expect.apply(&marker);
        prop_assert_eq!(
            again.state, expect,
            "post-repair commits must survive the second crash"
        );
    }

    /// `DurableState::to_records` is a faithful dump: applying it to an
    /// empty state reproduces the state it was taken from.
    #[test]
    fn wal_to_records_is_fixpoint(
        records in prop::collection::vec(arb_wal_record(), 0..40),
    ) {
        use ifot::mqtt::wal::DurableState;
        let mut state = DurableState::default();
        for rec in &records {
            state.apply(rec);
        }
        let mut rebuilt = DurableState::default();
        for rec in state.to_records() {
            rebuilt.apply(&rec);
        }
        prop_assert_eq!(rebuilt, state);
    }

    /// `parse_stream` never panics on arbitrary bytes, and whatever it
    /// accepts replays without error.
    #[test]
    fn wal_parse_stream_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        use ifot::mqtt::wal::{self, MemBackend};
        let _ = wal::parse_stream(&bytes);
        let backend = MemBackend::new();
        backend.set_raw_log(bytes);
        let _ = wal::recover(&mut backend.clone()).expect("in-memory recover");
    }
}

// ---------------------------------------------------------------------
// Delivery guarantees across broker kill/restart cycles (WAL recovery)
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    /// QoS 2 stays exactly-once when the *broker* dies at arbitrary
    /// times (state rebuilt from the WAL), under arbitrary loss, with
    /// snapshots at an arbitrary cadence.
    #[test]
    fn qos2_exactly_once_across_broker_crashes_prop(
        loss_pct in 0u64..=15,
        crash_times in prop::collection::vec(1_000u64..40_000, 0..4),
        seed in any::<u64>(),
        snapshot_every in prop_oneof![Just(0u64), 4u64..64],
    ) {
        let run = common::run_with_broker_crashes(
            QoS::ExactlyOnce, 20, loss_pct, &crash_times, seed, snapshot_every);
        prop_assert!(run.settled, "run never drained: {run:?}");
        run.ledger.assert_exactly_once(1, 20);
    }

    /// QoS 1 never loses a message across the same crash schedules.
    #[test]
    fn qos1_zero_loss_across_broker_crashes_prop(
        loss_pct in 0u64..=15,
        crash_times in prop::collection::vec(1_000u64..40_000, 0..4),
        seed in any::<u64>(),
        snapshot_every in prop_oneof![Just(0u64), 4u64..64],
    ) {
        let run = common::run_with_broker_crashes(
            QoS::AtLeastOnce, 20, loss_pct, &crash_times, seed, snapshot_every);
        prop_assert!(run.settled, "run never drained: {run:?}");
        run.ledger.assert_at_least_once(1, 20);
    }
}

// ---------------------------------------------------------------------
// Reconnect supervisor invariants
// ---------------------------------------------------------------------

proptest! {
    /// A connected peer whose inbound gaps all stay below the grace
    /// period is never declared dead, regardless of how the gaps
    /// jitter.
    #[test]
    fn live_peer_with_bounded_gaps_is_never_declared_dead(
        gaps in prop::collection::vec(0u64..1_499_999_999, 1..50),
    ) {
        use ifot::mqtt::client::ClientState;
        use ifot::mqtt::supervisor::{
            ReconnectConfig, ReconnectSupervisor, SupervisorAction,
        };
        let mut sup = ReconnectSupervisor::new(ReconnectConfig::default(), 1);
        let mut rng = 1u64;
        sup.on_connect_sent(0);
        sup.on_connected(0);
        let mut now = 0u64;
        for gap in gaps {
            now += gap;
            let action =
                sup.poll(ClientState::Connected, now, &mut || common::splitmix(&mut rng));
            prop_assert_eq!(action, SupervisorAction::None,
                "falsely declared dead after a {}ns gap", gap);
            sup.on_inbound(now);
        }
        prop_assert_eq!(sup.stats().transport_lost, 0);
    }

    /// Consecutive failed attempts are scheduled with exponentially
    /// growing, capped, jitter-bounded delays, and the whole schedule
    /// is a pure function of the RNG stream.
    #[test]
    fn backoff_schedule_is_bounded_and_deterministic(
        seed in any::<u64>(),
        failures in 1u32..16,
    ) {
        use ifot::mqtt::client::ClientState;
        use ifot::mqtt::supervisor::{
            ReconnectConfig, ReconnectSupervisor, SupervisorAction,
        };
        let config = ReconnectConfig::default();
        let run = |mut rng: u64| -> Vec<u64> {
            let mut sup = ReconnectSupervisor::new(config.clone(), 0);
            let mut now = 1u64;
            let mut delays = Vec::new();
            for _ in 0..failures {
                // Nothing scheduled yet: this poll books the retry.
                let action = sup.poll(ClientState::Disconnected, now, &mut || {
                    common::splitmix(&mut rng)
                });
                assert_eq!(action, SupervisorAction::None);
                let at = sup.next_attempt_ns().expect("retry booked");
                delays.push(at - now);
                // The attempt fires, the CONNECT goes out and times out.
                now = at;
                let action = sup.poll(ClientState::Disconnected, now, &mut || {
                    common::splitmix(&mut rng)
                });
                assert_eq!(action, SupervisorAction::Connect);
                sup.on_connect_sent(now);
                now += config.connect_timeout_ns;
                let action = sup.poll(ClientState::Connecting, now, &mut || {
                    common::splitmix(&mut rng)
                });
                assert_eq!(action, SupervisorAction::TransportLost);
            }
            delays
        };
        let delays = run(seed);
        for (k, &delay) in delays.iter().enumerate() {
            let pre_jitter = (config.backoff_base_ns << k.min(32)).min(config.backoff_max_ns);
            let ceiling = pre_jitter + (pre_jitter as f64 * config.jitter_frac) as u64;
            prop_assert!(delay >= pre_jitter,
                "attempt {} fired before its backoff: {} < {}", k, delay, pre_jitter);
            prop_assert!(delay <= ceiling,
                "attempt {} exceeded jitter ceiling: {} > {}", k, delay, ceiling);
        }
        // Same RNG stream, same schedule — the determinism rule.
        prop_assert_eq!(delays, run(seed));
    }
}

// ---------------------------------------------------------------------
// Shard routing (DESIGN.md §5)
// ---------------------------------------------------------------------

/// The fan-out invariant checked by [`fan_out_is_an_exact_cover_in_order`]:
/// over the plan `shards` (one route per entry, `None` = unsharded) the
/// intra-node router hands every route exactly the items it claims, in
/// group order, as one work item — `Item` for one, a batch for more —
/// and hands nothing to a route that claims none. Plain asserts so the
/// deterministic smoke test below exercises the same body.
fn check_fan_out(shards: &[Option<(u64, u64)>], items: Vec<ifot::core::flow::FlowItem>) {
    use ifot::core::executor::router::{claimants, materialize, RoutePlan, StageRoute};
    use ifot::core::executor::WorkItem;
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
        materialize(routes, group, |route, work| {
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
/// empty group. The proptest below explores the space at random.
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
    // A fixed pseudo-random sweep (the offline proptest stand-in cannot
    // generate values).
    let mut rng = 0x1F07u64;
    for _ in 0..500 {
        let shards: Vec<Option<(u64, u64)>> = (0..common::splitmix(&mut rng) % 7)
            .map(|_| {
                let modulus = common::splitmix(&mut rng) % 5;
                (modulus > 0).then(|| (modulus, common::splitmix(&mut rng) % modulus))
            })
            .collect();
        let len = common::splitmix(&mut rng) % 20;
        let seqs: Vec<u64> = (0..len).map(|_| common::splitmix(&mut rng) % 64).collect();
        check_fan_out(&shards, seq_items(seqs));
    }
}

proptest! {
    /// The intra-node fan-out is an exact cover over arbitrary plans:
    /// mixed moduli, duplicate shard claimants, unsharded consumers.
    #[test]
    fn fan_out_is_an_exact_cover_in_order(
        msgs in prop::collection::vec(arb_flow_message(), 0..64),
        raw_shards in prop::collection::vec(prop::option::of((1u64..5, any::<u64>())), 0..8),
    ) {
        let shards: Vec<Option<(u64, u64)>> = raw_shards
            .into_iter()
            .map(|shard| shard.map(|(modulus, raw)| (modulus, raw % modulus)))
            .collect();
        let items = msgs
            .into_iter()
            .map(|m| ifot::core::flow::FlowItem::from_message("flow/x", m))
            .collect();
        check_fan_out(&shards, items);
    }
}

// ---------------------------------------------------------------------
// Direct stage-to-stage handoff (DESIGN.md §5)
// ---------------------------------------------------------------------

/// A random intra-node flow tree: `parents[i]` is the stage feeding
/// stage `i + 1` (stage 0 is the root fed from outside). Stages with no
/// children publish their output; the rest are local-only links.
fn arb_flow_tree() -> impl Strategy<Value = Vec<usize>> {
    (1usize..6).prop_flat_map(|extra| {
        prop::collection::vec(0usize..usize::MAX, extra).prop_map(|raw| {
            raw.into_iter()
                .enumerate()
                .map(|(i, r)| r % (i + 1)) // parent among stages 0..=i
                .collect()
        })
    })
}

/// The handoff invariant checked by [`direct_handoff_conserves_and_orders_any_flow_tree`]:
/// a single virtual worker stepping the pooled cells over the flow tree
/// `parents` delivers every one of `count` injected items to every leaf
/// exactly once, in injection order, and every intra-node hop is a
/// direct handoff (nothing saturates, nothing churns). Plain asserts so
/// the deterministic smoke test below exercises the same body.
fn check_flow_tree_handoff(parents: &[usize], count: u64) {
    use ifot::core::config::{ExecutorConfig, OperatorKind, OperatorSpec};
    use ifot::core::env::MockEnv;
    use ifot::core::executor::handoff::PlanCache;
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
        workers: 1,
        mailbox_capacity: 4096,
        ..ExecutorConfig::default()
    };
    let graph = ExecutorGraph::compile(specs, &config);
    let cells = graph.cells();
    let handoff = graph.direct_handoff();
    let mut cache = PlanCache::new();
    let mut env = MockEnv::new();

    // Single virtual worker: inject one item per round, then step every
    // stage once, routing egress into per-leaf logs. Nothing can
    // saturate (capacity 4096 > count), so no fallbacks.
    let mut egress: Vec<Vec<u64>> = vec![Vec::new(); n];
    let mut next = 0u64;
    loop {
        let mut progress = false;
        if next < count {
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
            progress = true;
        }
        for (i, cell) in cells.iter().enumerate() {
            let Some(outcome) = cell.step_pooled_handoff(&mut env, i, &handoff, &mut cache) else {
                continue;
            };
            progress = true;
            assert_eq!(outcome.fallback, 0, "stage {i} fell back");
            for output in outcome.leftover {
                match output {
                    OpOutput::Emit(m) => {
                        assert_eq!(
                            children[i], 0,
                            "only leaves may reach deliver, stage {i} leaked"
                        );
                        egress[i].push(m.origin_ts_ns);
                    }
                    other => panic!("pass-through emitted {other:?}"),
                }
            }
        }
        if !progress {
            break;
        }
    }

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
    // Every intra-node hop was a direct handoff: stage i hands each of
    // the `count` items to each of its children.
    for (i, fanout) in children.iter().enumerate().take(n) {
        let stats = graph.stats(i);
        assert_eq!(stats.handoff_direct, count * *fanout as u64);
        assert_eq!(stats.handoff_fallback, 0);
    }
}

/// Deterministic corner topologies: a deep chain, a wide star, and a
/// mixed tree. The proptest below explores the space at random.
#[test]
fn direct_handoff_tree_smoke() {
    check_flow_tree_handoff(&[0], 1); // two-stage chain, one item
    check_flow_tree_handoff(&[0, 1, 2, 3], 40); // five-stage chain
    check_flow_tree_handoff(&[0, 0, 0, 0], 40); // star fan-out
    check_flow_tree_handoff(&[0, 0, 1, 2, 2], 40); // mixed tree
}

proptest! {
    /// Direct handoff over an arbitrary flow tree conserves the stream
    /// exactly and preserves per-topic FIFO.
    #[test]
    fn direct_handoff_conserves_and_orders_any_flow_tree(
        parents in arb_flow_tree(),
        count in 1u64..48,
    ) {
        check_flow_tree_handoff(&parents, count);
    }
}
