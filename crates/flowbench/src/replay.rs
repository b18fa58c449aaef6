//! Replay: inputs the stepper captured, or generated for the `_tcp`
//! workloads, fed straight to one layer's public function in batches. The
//! figure is the median over the batches, in nanoseconds per operation.
//! With nothing contending, a faster layer saves at most this share of
//! `path.service_us_per_item`.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use bytes::Bytes;
use ifot_core::env::NodeEnv;
use ifot_core::executor::ExecutorGraph;
use ifot_core::flow::{FlowBatch, FlowItem, FlowMessage};
use ifot_core::wire;
use ifot_ml::feature::{Datum, DEFAULT_DIMENSIONS};
use ifot_ml::runtime::AnyClassifier;
use ifot_mqtt::broker::{Action, Broker, BrokerConfig};
use ifot_mqtt::codec::{encode, StreamDecoder};
use ifot_mqtt::packet::{Connect, Packet, Publish, QoS, Subscribe, SubscribeFilter};
use ifot_mqtt::shard::ShardedBroker;
use ifot_mqtt::topic::{TopicFilter, TopicName};
use ifot_mqtt::tree::SubscriptionTree;
use ifot_mqtt::wal::{
    DurablePublish, FileBackend, MemBackend, Wal, WalBackend, WalConfig, WalRecord, WalStage,
};
use ifot_sensors::device::VirtualSensor;
use ifot_sensors::sample::Sample;

use crate::loadgen::{build_payload, PayloadInfo, Rng, Shape};
use crate::stats;
use crate::stepper::{terminal_tuples, Captured};
use crate::sut::{self, RtNodes};

/// Batches per figure (the median is reported) and operations per batch.
const BATCHES: usize = 7;
const OPS: usize = 4_000;

/// Nanoseconds one call of `op` takes, for each of [`BATCHES`] batches of
/// `ops` calls. `op` gets the running call index.
fn batches_ns_per_op(ops: usize, mut op: impl FnMut(usize)) -> Vec<f64> {
    let mut per_batch = Vec::with_capacity(BATCHES);
    let mut i = 0;
    for _ in 0..BATCHES {
        let start = Instant::now();
        for _ in 0..ops {
            op(i);
            i += 1;
        }
        per_batch.push(start.elapsed().as_nanos() as f64 / ops as f64);
    }
    per_batch
}

/// The median batch of [`batches_ns_per_op`].
fn ns_per_op(ops: usize, op: impl FnMut(usize)) -> f64 {
    stats::median(&batches_ns_per_op(ops, op))
}

/// An environment that swallows every effect: replayed executor calls
/// need one, and its cost must not show in the layer's figure.
struct NullEnv;

impl NodeEnv for NullEnv {
    fn now_ns(&self) -> u64 {
        0
    }
    fn send(&mut self, _dst: &str, _port: u16, _payload: Bytes) {}
    fn set_timer_after_ns(&mut self, _delay_ns: u64, _tag: u64) {}
    fn set_timer_at_ns(&mut self, _at_ns: u64, _tag: u64) {}
    fn consume_ref_ms(&mut self, _ms: f64) {}
    fn record_latency_since_ns(&mut self, _name: &str, _since_ns: u64) {}
    fn incr(&mut self, _counter: &str) {}
    fn add(&mut self, _counter: &str, _delta: u64) {}
    fn rand_u64(&mut self) -> u64 {
        0
    }
}

/// `mqtt.codec.*` on the given PUBLISH frames.
fn codec_layers(frames: &[Bytes]) -> Vec<(&'static str, f64)> {
    let packets: Vec<Packet> = frames
        .iter()
        .filter_map(|f| ifot_mqtt::codec::decode(f).ok().flatten())
        .map(|(packet, _)| packet)
        .collect();
    if packets.is_empty() {
        return Vec::new();
    }
    let encode_ns = ns_per_op(OPS, |i| {
        black_box(encode(black_box(&packets[i % packets.len()])));
    });
    let mut decoder = StreamDecoder::new();
    let decode_ns = ns_per_op(OPS, |i| {
        decoder.feed(black_box(&frames[i % frames.len()]));
        black_box(decoder.next_packet().expect("captured frames decode"));
    });
    vec![
        ("mqtt.codec.encode_publish_ns", encode_ns),
        ("mqtt.codec.decode_publish_ns", decode_ns),
    ]
}

/// Replay figures of an `_rt` workload, on what the stepper captured.
pub fn rt_layers(workload: &str, nodes: &RtNodes, captured: &Captured) -> Vec<(&'static str, f64)> {
    let mut out = codec_layers(&captured.frames);

    // The flow items the hub decoded, in arrival order.
    let items: Vec<FlowItem> = captured
        .publishes
        .iter()
        .filter_map(|(topic, payload)| wire::decode_items(topic, payload).ok())
        .flatten()
        .collect();
    let tuples: Vec<Datum> = terminal_tuples(workload, captured);
    if items.is_empty() || tuples.is_empty() {
        return out;
    }

    // sensors: read and encode with the first configured sensor.
    let spec = &nodes.edge.sensors[0];
    let period_ns = (1.0e9 / spec.rate_hz) as u64;
    let mut sensor = VirtualSensor::preset(spec.kind, spec.device_id, spec.seed);
    out.push((
        "sensors.read_ns",
        ns_per_op(OPS, |i| {
            black_box(sensor.read(i as u64 * period_ns));
        }),
    ));
    let samples: Vec<Sample> = (0..256)
        .map(|i| sensor.read(i as u64 * period_ns))
        .collect();
    out.push((
        "sensors.sample_encode_ns",
        ns_per_op(OPS, |i| {
            black_box(samples[i % samples.len()].encode_bytes());
        }),
    ));

    // core.wire: per-item and 32-item batch codec on the captured items.
    let messages: Vec<FlowMessage> = items
        .iter()
        .take(4096)
        .map(|item| item.clone().into_message(sut::EDGE))
        .collect();
    let topic = items[0].topic.clone();
    out.push((
        "core.wire.encode_item_ns",
        ns_per_op(OPS, |i| {
            black_box(wire::encode_message_binary(black_box(
                &messages[i % messages.len()],
            )));
        }),
    ));
    let frames: Vec<Vec<u8>> = messages.iter().map(wire::encode_message_binary).collect();
    out.push((
        "core.wire.decode_item_ns",
        ns_per_op(OPS, |i| {
            black_box(
                wire::decode_items_lean(&topic, black_box(&frames[i % frames.len()]))
                    .expect("own frames decode"),
            );
        }),
    ));
    let batch_len = sut::CHAIN_BATCH_MAX;
    let batches: Vec<FlowBatch> = messages
        .chunks_exact(batch_len)
        .map(|chunk| FlowBatch {
            items: chunk.to_vec(),
        })
        .collect();
    if !batches.is_empty() {
        let per_item = batch_len as f64;
        out.push((
            "core.wire.encode_batch_ns_per_item",
            ns_per_op(OPS / batch_len, |i| {
                black_box(wire::encode_batch_binary(black_box(
                    &batches[i % batches.len()],
                )));
            }) / per_item,
        ));
        let batch_frames: Vec<Vec<u8>> = batches.iter().map(wire::encode_batch_binary).collect();
        out.push((
            "core.wire.decode_batch_ns_per_item",
            ns_per_op(OPS / batch_len, |i| {
                black_box(
                    wire::decode_items_lean(
                        &topic,
                        black_box(&batch_frames[i % batch_frames.len()]),
                    )
                    .expect("own frames decode"),
                );
            }) / per_item,
        ));
    }

    // ml: feature hashing plus the model call, on the terminal tuples.
    let label = |i: usize| if i.is_multiple_of(2) { "low" } else { "high" };
    let mut model = AnyClassifier::by_name("pa");
    out.push((
        "ml.train_ns",
        ns_per_op(OPS, |i| {
            let x = tuples[i % tuples.len()].to_vector(DEFAULT_DIMENSIONS);
            model.train(&x, label(i));
        }),
    ));
    out.push((
        "ml.classify_ns",
        ns_per_op(OPS, |i| {
            let x = tuples[i % tuples.len()].to_vector(DEFAULT_DIMENSIONS);
            black_box(model.classify(&x));
        }),
    ));
    out.push((
        "ml.classify_batch_ns_per_item",
        ns_per_op(OPS / batch_len, |i| {
            let xs: Vec<_> = (0..batch_len)
                .map(|k| tuples[(i * batch_len + k) % tuples.len()].to_vector(DEFAULT_DIMENSIONS))
                .collect();
            black_box(model.classify_batch(&xs));
        }) / batch_len as f64,
    ));

    // core.executor: a compiled copy of the hub's specs; stage 0 is the
    // stage the sensor topics feed on both workloads.
    let graph = ExecutorGraph::compile(nodes.hub.operators.clone(), &nodes.hub.executor);
    let topics: Vec<&str> = items.iter().take(64).map(|i| i.topic.as_str()).collect();
    out.push((
        "core.executor.route_ns",
        ns_per_op(OPS, |i| {
            black_box(graph.route(black_box(topics[i % topics.len()])));
        }),
    ));
    let mut env = NullEnv;
    out.push((
        "core.executor.offer_item_ns",
        ns_per_op(OPS, |i| {
            black_box(graph.offer_item(&mut env, 0, items[i % items.len()].clone()));
        }),
    ));
    out.push((
        "core.executor.offer_batch_ns_per_item",
        ns_per_op(OPS / batch_len, |i| {
            let batch: Vec<FlowItem> = (0..batch_len)
                .map(|k| items[(i * batch_len + k) % items.len()].clone())
                .collect();
            black_box(graph.offer_batch(&mut env, 0, batch));
        }) / batch_len as f64,
    ));
    out
}

/// The publishes a `_tcp` workload's generator would send, built here
/// from the same seed and shape.
fn generated_publishes(shape: &Shape, seed: u64, topics: usize, count: usize) -> Vec<Publish> {
    let mut rng = Rng::new(seed);
    let order = rng.permutation(topics);
    (0..count)
        .map(|k| {
            let t = order[k % topics];
            let info = PayloadInfo {
                publisher: (t % shape.publishers) as u16,
                topic: t as u32,
                topic_seq: (k / topics) as u32,
                due_ns: k as u64,
            };
            let payload = build_payload(info, k as u32, rng.next());
            let topic = TopicName::new(Shape::topic(t)).expect("generated topics are valid");
            if shape.qos1 {
                Publish::qos1(topic, payload.to_vec(), (k % 60_000) as u16 + 1)
            } else {
                Publish::qos0(topic, payload.to_vec())
            }
        })
        .collect()
}

fn qos_of(shape: &Shape) -> QoS {
    if shape.qos1 {
        QoS::AtLeastOnce
    } else {
        QoS::AtMostOnce
    }
}

fn subscribe_packet(shape: &Shape, sub: usize) -> Packet {
    Packet::Subscribe(Subscribe {
        packet_id: 1,
        filters: vec![SubscribeFilter {
            filter: TopicFilter::new(shape.filter(sub)).expect("workload filters are valid"),
            qos: qos_of(shape),
        }],
    })
}

/// Connection id of the publisher in the sans-I/O replays.
const PUBLISHER_CONN: u32 = 10_000;

/// PUBACKs the subscribers owe for the QoS 1 deliveries in `actions`.
fn owed_acks(actions: &[Action<u32>]) -> Vec<(u32, u16)> {
    actions
        .iter()
        .filter_map(|a| match a {
            Action::Send {
                conn,
                packet: Packet::Publish(p),
            } => p.packet_id.map(|id| (*conn, id)),
            _ => None,
        })
        .collect()
}

/// `Broker::handle_packet` with the workload's subscriptions, per delivery.
fn broker_ns_per_delivery(shape: &Shape, publishes: &[Publish]) -> f64 {
    let mut broker: Broker<u32> = Broker::new();
    let open = |broker: &mut Broker<u32>, conn: u32, id: String| {
        broker.connection_opened(conn, 0);
        broker.handle_packet(&conn, Packet::Connect(Connect::new(id)), 0);
    };
    for sub in 0..shape.subscribers() {
        open(&mut broker, sub as u32, format!("replay-sub-{sub}"));
        broker.handle_packet(&(sub as u32), subscribe_packet(shape, sub), 0);
    }
    open(&mut broker, PUBLISHER_CONN, "replay-pub".to_owned());
    let ops = publishes.len() / BATCHES;
    ns_per_op(ops, |i| {
        let publish = publishes[i % publishes.len()].clone();
        let actions = broker.handle_packet(&PUBLISHER_CONN, Packet::Publish(publish), i as u64);
        for (conn, id) in owed_acks(&actions) {
            black_box(broker.handle_packet(&conn, Packet::Puback(id), i as u64));
        }
        black_box(actions);
    }) / shape.fanout() as f64
}

/// `handle_packet` + `resolve` on a sharded broker: what one packet makes
/// the broker want sent, cross-shard forwards applied.
fn shard_step(
    broker: &ShardedBroker<u32>,
    conn: u32,
    packet: Packet,
    now: u64,
) -> Vec<Action<u32>> {
    let out = broker.handle_packet(&conn, packet, now);
    broker.resolve(out, now)
}

/// A sharded broker with the workload's subscribers subscribed and one
/// publisher connected; `persistent` gives the subscribers persistent
/// sessions, as the durable workload's have.
fn sharded_with_sessions(
    shape: &Shape,
    config: BrokerConfig,
    persistent: bool,
) -> ShardedBroker<u32> {
    let broker: ShardedBroker<u32> = ShardedBroker::new(config);
    let connect = |conn: u32, id: String, clean_session: bool| {
        broker.connection_opened(conn, 0);
        let mut c = Connect::new(id);
        c.clean_session = clean_session;
        c.keep_alive_secs = 0;
        shard_step(&broker, conn, Packet::Connect(c), 0);
    };
    for sub in 0..shape.subscribers() {
        connect(sub as u32, format!("replay-sub-{sub}"), !persistent);
        shard_step(&broker, sub as u32, subscribe_packet(shape, sub), 0);
    }
    connect(PUBLISHER_CONN, "replay-pub".to_owned(), true);
    broker
}

/// `ShardedBroker::handle_packet` + `resolve` (default shard count).
fn shard_ns_per_delivery(shape: &Shape, publishes: &[Publish]) -> f64 {
    let broker = sharded_with_sessions(shape, BrokerConfig::default(), false);
    let ops = publishes.len() / BATCHES;
    ns_per_op(ops, |i| {
        let publish = publishes[i % publishes.len()].clone();
        let actions = shard_step(&broker, PUBLISHER_CONN, Packet::Publish(publish), i as u64);
        for (conn, id) in owed_acks(&actions) {
            black_box(shard_step(&broker, conn, Packet::Puback(id), i as u64));
        }
        black_box(actions);
    }) / shape.fanout() as f64
}

/// `service_us_per_item` of a `_tcp` workload: the broker's whole path of
/// one delivery without its sockets and threads, on one thread. Each
/// generated frame goes through `StreamDecoder`, `ShardedBroker::
/// {handle_packet, resolve}` with the workload's sessions and
/// subscriptions (persistent sessions and a file-backed WAL on the durable
/// workload), and every packet the broker wants sent is encoded; QoS 1
/// deliveries are acknowledged through the same path. The fastest batch
/// is reported: interference from the host only ever adds time.
pub fn tcp_service_us_per_item(workload: &str, seed: u64, scratch: &Path) -> f64 {
    let shape = Shape::of(workload).expect("a _tcp workload");
    let dir = scratch.join(format!("{workload}.service-wal"));
    let _ = std::fs::remove_dir_all(&dir);
    let mut config = BrokerConfig::default();
    if shape.qos1 {
        config = config.with_durability(&dir);
    }
    let broker = sharded_with_sessions(&shape, config, shape.qos1);

    let ops = OPS / 2;
    let frames: Vec<Bytes> = generated_publishes(&shape, seed, shape.topics, ops * BATCHES)
        .into_iter()
        .map(|p| encode(&Packet::Publish(p)))
        .collect();
    let mut inbound = StreamDecoder::new();
    let mut acks = StreamDecoder::new();
    let per_publish = batches_ns_per_op(ops, |i| {
        inbound.feed(&frames[i]);
        let packet = inbound
            .next_packet()
            .expect("generated frames decode")
            .expect("one frame, one packet");
        let now = i as u64 * 1_000_000;
        let actions = shard_step(&broker, PUBLISHER_CONN, packet, now);
        for action in actions {
            match action {
                Action::Send { conn, packet } => {
                    let owed = match &packet {
                        Packet::Publish(p) => p.packet_id,
                        _ => None,
                    };
                    black_box(encode(&packet));
                    if let Some(id) = owed {
                        // The subscriber's PUBACK, as bytes off its socket.
                        acks.feed(&encode(&Packet::Puback(id)));
                        let ack = acks
                            .next_packet()
                            .expect("a PUBACK decodes")
                            .expect("one frame, one packet");
                        black_box(shard_step(&broker, conn, ack, now));
                    }
                }
                other => {
                    black_box(other);
                }
            }
        }
    });
    drop(broker);
    let _ = std::fs::remove_dir_all(&dir);
    let fastest = per_publish.into_iter().fold(f64::INFINITY, f64::min);
    fastest / 1e3 / shape.fanout() as f64
}

/// `matches_shared` over `topics` topics against the workload's filters.
fn tree_match_ns(shape: &Shape, topics: usize) -> f64 {
    let mut tree: SubscriptionTree<u32> = SubscriptionTree::new();
    for sub in 0..shape.subscribers() {
        let filter = TopicFilter::new(shape.filter(sub)).expect("workload filters are valid");
        tree.subscribe(sub as u32, &filter, qos_of(shape));
    }
    let names: Vec<TopicName> = (0..topics)
        .map(|t| TopicName::new(Shape::topic(t)).expect("generated topics are valid"))
        .collect();
    // One pass first: a working set that fits the match cache then hits.
    for name in &names {
        black_box(tree.matches_shared(name));
    }
    ns_per_op(OPS, |i| {
        black_box(tree.matches_shared(black_box(&names[i % names.len()])));
    })
}

/// `Wal::record` + `commit` of one in-flight insert, per call.
fn wal_record_commit_ns(backend: Box<dyn WalBackend>) -> f64 {
    // Snapshots off: the figure is the append path alone.
    let mut wal = Wal::new(
        backend,
        WalConfig {
            snapshot_every: 0,
            fsync: false,
        },
    );
    let record = WalRecord::InflightInsert {
        client: "replay-sub-0".into(),
        pid: 1,
        stage: WalStage::AwaitPuback,
        message: DurablePublish {
            topic: Shape::topic(0),
            qos: QoS::AtLeastOnce,
            retain: false,
            payload: Bytes::from(vec![0u8; crate::loadgen::PAYLOAD_LEN]),
        },
    };
    ns_per_op(OPS, |_| {
        wal.record(black_box(&record));
        wal.commit();
    })
}

/// Replay figures of a `_tcp` workload.
pub fn tcp_layers(workload: &str, seed: u64, scratch: &Path) -> Vec<(&'static str, f64)> {
    let shape = Shape::of(workload).expect("a _tcp workload");
    let publishes = generated_publishes(&shape, seed, shape.topics, OPS * BATCHES);
    let frames: Vec<Bytes> = publishes
        .iter()
        .take(4096)
        .map(|p| encode(&Packet::Publish(p.clone())))
        .collect();
    let mut out = codec_layers(&frames);
    // 96 topics fit the match cache (1024 entries); 4096 do not.
    out.push(("mqtt.tree.match_hit_ns", tree_match_ns(&shape, 96)));
    out.push(("mqtt.tree.match_miss_ns", tree_match_ns(&shape, 4096)));
    out.push((
        if shape.qos1 {
            "mqtt.broker.publish_qos1_ns_per_delivery"
        } else {
            "mqtt.broker.publish_qos0_ns_per_delivery"
        },
        broker_ns_per_delivery(&shape, &publishes),
    ));
    out.push((
        "mqtt.shard.publish_ns_per_delivery",
        shard_ns_per_delivery(&shape, &publishes),
    ));
    if shape.qos1 {
        out.push((
            "mqtt.wal.record_commit_mem_ns",
            wal_record_commit_ns(Box::new(MemBackend::new())),
        ));
        let dir = scratch.join(format!("{workload}.replay-wal"));
        let _ = std::fs::remove_dir_all(&dir);
        let backend =
            FileBackend::open(&dir, "replay").expect("WAL file inside the build directory");
        out.push((
            "mqtt.wal.record_commit_file_ns",
            wal_record_commit_ns(Box::new(backend)),
        ));
        let _ = std::fs::remove_dir_all(&dir);
        // Recovery of what the measured run left behind.
        let left_behind = scratch.join(format!("{workload}.wal"));
        let start = Instant::now();
        let reopened: ShardedBroker<u32> =
            ShardedBroker::new(BrokerConfig::default().with_durability(&left_behind));
        out.push(("mqtt.wal.replay_ms", start.elapsed().as_secs_f64() * 1e3));
        drop(reopened);
    }
    out
}
