//! Allocation budget of one sample's journey, as a gate.
//!
//! An edge node (three sensors) and a hub node (embedded broker, Join →
//! Train + Predict: the Fig. 9 recipe `flowbench`'s `paper_flow_rt` runs)
//! are stepped on one thread in virtual time through an environment that
//! allocates nothing itself, under a counting allocator. Every call into a
//! node is charged to its leg, so a regression names where it happened.
//!
//! The budgets are set against the `.offline-stubs` build — the one
//! `flowbench` is judged on — where a `Bytes` costs two allocations (its
//! `Vec` and the `Arc<[u8]>` it is copied into); the crates.io `bytes`
//! needs one, so the budgets hold on both. The broker's unit budgets are
//! exact on either build: they count a fresh `Bytes` as whatever
//! [`bytes_cost`] measures it to be. Run it as CI does:
//!
//! ```text
//! cargo test --release --test alloc_budget
//! scripts/offline_check.sh test --release --test alloc_budget
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use bytes::Bytes;

use ifot::core::config::{NodeConfig, OperatorKind, OperatorSpec, SensorSpec};
use ifot::core::env::NodeEnv;
use ifot::core::flow::{FlowBatch, FlowItem, Name};
use ifot::core::node::{MiddlewareNode, MQTT_BROKER_PORT};
use ifot::core::operators::NodeEvent;
use ifot::core::wire::{decode_items_on, encode_batch_binary, WireFormat};
use ifot::ml::feature::{Datum, DEFAULT_DIMENSIONS};
use ifot::ml::runtime::AnyClassifier;
use ifot::mqtt::broker::{Action, BrokerConfig};
use ifot::mqtt::client::{Client, ClientConfig, ClientEvent};
use ifot::mqtt::codec::{encode, StreamDecoder};
use ifot::mqtt::packet::{
    Connack, Connect, ConnectReturnCode, Packet, Publish, QoS, Subscribe, SubscribeFilter,
};
use ifot::mqtt::shard::{shard_of, ShardOutput, ShardedBroker};
use ifot::mqtt::topic::{TopicFilter, TopicName};
use ifot::mqtt::wal::{MemBackend, Wal, WalBackend, WalConfig, WalRecord};
use ifot::netsim::metrics::{Metrics, MetricsDelta};
use ifot::netsim::time::SimDuration;
use ifot::sensors::sample::{Sample, SensorKind};

thread_local! {
    /// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`) made by the
    /// current thread: tests run on threads of their own, so neither the
    /// harness nor a neighbouring test leaks into a count.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count_one() {
    // `try_with`: a thread that is tearing its locals down still allocates.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a thread-local
// statistic and publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's layout is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's layout is passed through as received.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` came from `System` with `layout`; `new_size` is
        // the caller's, passed through as received.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Allocation calls `f` makes on this thread.
fn allocs_in<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = allocs();
    let out = f();
    (allocs() - before, out)
}

const EDGE: usize = 0;
const HUB: usize = 1;
const NAMES: [&str; 2] = ["edge", "hub"];
const SENSORS: u64 = 3;
const SENSOR_HZ: f64 = 1_000.0;

/// What both nodes share: pending timers and packets. Both queues are
/// reserved up front, so stepping allocates only inside the nodes.
struct World {
    timers: BinaryHeap<Reverse<(u64, u64, usize, u64)>>,
    packets: VecDeque<(usize, usize, u16, Bytes)>,
    order: u64,
    rng: u64,
}

struct StepEnv<'a> {
    node: usize,
    now_ns: u64,
    world: &'a mut World,
}

impl NodeEnv for StepEnv<'_> {
    fn now_ns(&self) -> u64 {
        self.now_ns
    }

    fn send(&mut self, dst: &str, port: u16, payload: Bytes) {
        let dst = NAMES
            .iter()
            .position(|n| *n == dst)
            .expect("a node of the pair");
        self.world
            .packets
            .push_back((self.node, dst, port, payload));
    }

    fn set_timer_after_ns(&mut self, delay_ns: u64, tag: u64) {
        self.set_timer_at_ns(self.now_ns + delay_ns, tag);
    }

    fn set_timer_at_ns(&mut self, at_ns: u64, tag: u64) {
        self.world.order += 1;
        self.world.timers.push(Reverse((
            at_ns.max(self.now_ns),
            self.world.order,
            self.node,
            tag,
        )));
    }

    fn consume_ref_ms(&mut self, _ms: f64) {}

    fn record_latency_since_ns(&mut self, _name: &str, _since_ns: u64) {}

    fn incr(&mut self, _counter: &str) {}

    fn add(&mut self, _counter: &str, _delta: u64) {}

    fn rand_u64(&mut self) -> u64 {
        self.world.rng = self.world.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.world.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

fn node_pair() -> [MiddlewareNode; 2] {
    let base = |name: &str| {
        NodeConfig::new(name)
            .with_broker_node(NAMES[HUB])
            .with_wire_format(WireFormat::Binary)
    };
    let mut edge = base(NAMES[EDGE]);
    for (i, kind) in [
        SensorKind::Temperature,
        SensorKind::Sound,
        SensorKind::Illuminance,
    ]
    .into_iter()
    .enumerate()
    {
        edge = edge.with_sensor(SensorSpec::new(kind, i as u16 + 1, SENSOR_HZ, i as u64 + 1));
    }
    let joined = "flow/paper/join";
    let hub = base(NAMES[HUB])
        .with_broker()
        .with_operator(
            OperatorSpec::through(
                "join",
                OperatorKind::Join {
                    expected_sources: SENSORS as usize,
                },
                vec!["sensor/#".into()],
                joined,
            )
            .local_only(),
        )
        .with_operator(OperatorSpec::sink(
            "train",
            OperatorKind::Train {
                algorithm: "pa".into(),
                mix_interval_ms: 0,
            },
            vec![joined.into()],
        ))
        .with_operator(OperatorSpec::sink(
            "predict",
            OperatorKind::Predict {
                algorithm: "pa".into(),
            },
            vec![joined.into()],
        ));
    [MiddlewareNode::new(edge), MiddlewareNode::new(hub)]
}

/// Allocation calls per leg of the journey, over the measured window.
#[derive(Debug, Default)]
struct Legs {
    /// `edge.on_timer`: sense → inject → encode → client publish → send.
    sense_publish: u64,
    /// `hub.on_packet` on the broker port: decode → route → fan-out frame.
    broker_route: u64,
    /// `hub.on_packet` on the client port: decode → dispatch → Join →
    /// Train + Predict (the flow layer's share is in here).
    ingest_exec: u64,
    /// Everything else (polls, the edge's client ingress).
    other: u64,
    samples: u64,
    predictions: u64,
}

fn predictions(hub: &MiddlewareNode) -> u64 {
    hub.events()
        .iter()
        .filter(|e| matches!(e, NodeEvent::Prediction { .. }))
        .count() as u64
}

fn published(edge: &MiddlewareNode) -> u64 {
    edge.sensor_published().iter().map(|(_, n)| n).sum()
}

/// Steps the pair through `warmup_ns` and then `measure_ns` of virtual
/// time; timers fire in order, packets arrive at once.
fn step(warmup_ns: u64, measure_ns: u64) -> Legs {
    let mut world = World {
        timers: BinaryHeap::with_capacity(256),
        packets: VecDeque::with_capacity(256),
        order: 0,
        rng: 7,
    };
    let mut node = node_pair();
    for (index, n) in node.iter_mut().enumerate() {
        n.on_start(&mut StepEnv {
            node: index,
            now_ns: 0,
            world: &mut world,
        });
    }
    let mut legs = Legs::default();
    let mut baseline: Option<(u64, u64)> = None;
    let mut now_ns = 0u64;
    loop {
        let packet = world.packets.pop_front();
        let timer = match packet {
            Some(_) => None,
            None => world.timers.pop(),
        };
        if let Some(Reverse((at, ..))) = timer {
            now_ns = now_ns.max(at);
            if now_ns > warmup_ns + measure_ns {
                break;
            }
        }
        if baseline.is_none() && now_ns >= warmup_ns {
            baseline = Some((published(&node[EDGE]), predictions(&node[HUB])));
        }
        let (index, leg): (usize, fn(&mut Legs) -> &mut u64) = match (&packet, &timer) {
            (Some((_, HUB, MQTT_BROKER_PORT, _)), _) => (HUB, |l| &mut l.broker_route),
            (Some((_, HUB, ..)), _) => (HUB, |l| &mut l.ingest_exec),
            (Some((_, dst, ..)), _) => (*dst, |l| &mut l.other),
            (None, Some(Reverse((_, _, EDGE, _)))) => (EDGE, |l| &mut l.sense_publish),
            (None, Some(Reverse((_, _, index, _)))) => (*index, |l| &mut l.other),
            (None, None) => break,
        };
        let mut env = StepEnv {
            node: index,
            now_ns,
            world: &mut world,
        };
        let (spent, ()) = allocs_in(|| match (packet, timer) {
            (Some((src, _, port, payload)), _) => {
                node[index].on_packet(&mut env, NAMES[src], port, &payload);
            }
            (None, Some(Reverse((_, _, _, tag)))) => node[index].on_timer(&mut env, tag),
            (None, None) => unreachable!("handled above"),
        });
        if baseline.is_some() {
            *leg(&mut legs) += spent;
        }
    }
    let (published0, predicted0) = baseline.expect("the run outlasts its warm-up");
    legs.samples = published(&node[EDGE]) - published0;
    legs.predictions = predictions(&node[HUB]) - predicted0;
    legs
}

/// Committed budgets, in allocation calls per sample (three samples make
/// one prediction), as measured on the `.offline-stubs` build. The first
/// leg measures 2.00 — the one PUBLISH frame the sample's image is written
/// into, a `Bytes` — and gets a tenth of room. The broker leg measures
/// 0.00: the name is one the stream repeats and the frame that arrived is
/// the frame that is forwarded. The last leg measures 1.33 — four per
/// prediction: the join's and the predictor's output lists and two hashed
/// vectors; the three frames' names, their payloads (views of the frames)
/// and the client's event list cost nothing — and gets half an allocation
/// per prediction of room.
const SENSE_PUBLISH_BUDGET: f64 = 2.2;
const BROKER_ROUTE_BUDGET: f64 = 0.1;
const INGEST_EXEC_BUDGET: f64 = 1.5;

#[test]
fn one_samples_journey_stays_within_its_allocation_budget() {
    let legs = step(200_000_000, 1_000_000_000);
    assert!(legs.samples >= 2_900, "the pair must be running: {legs:?}");
    assert_eq!(
        legs.predictions * SENSORS,
        legs.samples,
        "every sample reaches a prediction: {legs:?}"
    );
    let per_sample = |calls: u64| calls as f64 / legs.samples as f64;
    println!(
        "allocations per sample: sense+publish {:.2}, broker route {:.2}, ingest+exec {:.2}, other {:.3}",
        per_sample(legs.sense_publish),
        per_sample(legs.broker_route),
        per_sample(legs.ingest_exec),
        per_sample(legs.other),
    );
    assert!(
        per_sample(legs.sense_publish) <= SENSE_PUBLISH_BUDGET,
        "sense → encode → publish → send: {legs:?}"
    );
    assert!(
        per_sample(legs.broker_route) <= BROKER_ROUTE_BUDGET,
        "broker decode → route → fan-out: {legs:?}"
    );
    assert!(
        per_sample(legs.ingest_exec) <= INGEST_EXEC_BUDGET,
        "client decode → dispatch → join/train/predict: {legs:?}"
    );
    // Polls and acknowledgements are per second, not per sample.
    assert!(per_sample(legs.other) < 0.1, "{legs:?}");
}

#[test]
fn metrics_allocate_only_when_a_name_is_first_seen() {
    let mut hub = Metrics::new();
    // 1 000 recordings leave the series' buffer with room for the next
    // few (it doubles), so none of them grows it.
    for _ in 0..1_000 {
        hub.add("published", 1);
        hub.record_latency("sensing_to_broker", SimDuration::from_nanos(5));
    }
    let (spent, ()) = allocs_in(|| {
        for _ in 0..10 {
            hub.add("published", 1);
            hub.incr("published");
            hub.record_latency("sensing_to_broker", SimDuration::from_nanos(5));
        }
    });
    assert_eq!(spent, 0, "existing keys are looked up by &str");
    assert_eq!(hub.counter("published"), 1_020);

    // A worker's delta keeps its names and buffers across flushes (three
    // rounds of 8 leave the hub's series at 24 of 32 slots).
    let mut delta = MetricsDelta::new();
    for _ in 0..3 {
        for _ in 0..8 {
            delta.add("predicted", 1);
            delta.record_latency_ns("sensing_to_predicting", 7);
        }
        hub.absorb(&mut delta);
    }
    let (spent, ()) = allocs_in(|| {
        for _ in 0..8 {
            delta.add("predicted", 1);
            delta.record_latency_ns("sensing_to_predicting", 7);
        }
        hub.absorb(&mut delta);
    });
    assert_eq!(spent, 0, "a flushed delta is reused as it is");
    assert_eq!(hub.counter("predicted"), 32);
}

#[test]
fn cloning_a_publish_shares_topic_and_payload() {
    let publish = Publish::qos0(
        TopicName::new("sensor/1/sound").expect("valid topic"),
        vec![0u8; 32],
    );
    let (spent, copy) = allocs_in(|| publish.clone());
    assert_eq!(spent, 0);
    assert_eq!(copy, publish);
}

#[test]
fn a_flow_item_costs_the_heap_nothing_until_it_is_hashed() {
    let topic = Name::from("sensor/1/accel");
    let sample = Sample::new(SensorKind::Accelerometer, 1, 9, 555, &[0.1, 0.2, 9.8]);
    let (spent, item) = allocs_in(|| FlowItem::from_sample(topic.clone(), &sample));
    assert_eq!(spent, 0, "static keys, inline datum, shared topic");
    assert_eq!(item.datum.len(), 3);
    let (spent, copy) = allocs_in(|| item.clone());
    assert_eq!(spent, 0, "cloning a three-key item bumps reference counts");
    assert_eq!(copy, item);
    let (spent, x) = allocs_in(|| item.datum.to_vector(DEFAULT_DIMENSIONS));
    assert_eq!(spent, 1, "the vector's one buffer");
    assert_eq!(x.nnz(), 3);
}

#[test]
fn a_model_call_allocates_only_the_label_it_returns() {
    let hot = Datum::new().with("t", 30.0).to_vector(DEFAULT_DIMENSIONS);
    let cold = Datum::new().with("t", -5.0).to_vector(DEFAULT_DIMENSIONS);
    for algorithm in ["perceptron", "pa", "arow"] {
        let mut model = AnyClassifier::by_name(algorithm);
        for _ in 0..50 {
            model.train(&hot, "hot");
            model.train(&cold, "cold");
        }
        let (spent, ()) = allocs_in(|| {
            for _ in 0..10 {
                model.train(&hot, "hot");
                model.train(&cold, "cold");
            }
        });
        assert_eq!(spent, 0, "{algorithm}: both labels and their weights exist");
        let (spent, label) = allocs_in(|| model.classify(&hot));
        assert_eq!(spent, 1, "{algorithm}: the winning label, copied once");
        assert_eq!(label.as_deref(), Some("hot"));
    }
}

#[test]
fn a_batch_frame_decodes_into_items_that_share_its_dictionary() {
    let topic = Name::from("sensor/2/sound");
    let items = (0..32u32)
        .map(|i| {
            let sample = Sample::new(SensorKind::Sound, 2, i, u64::from(i) * 1_000, &[40.0]);
            FlowItem::from_sample(topic.clone(), &sample).into_message("edge")
        })
        .collect();
    let frame = encode_batch_binary(&FlowBatch { items });
    let (spent, decoded) = allocs_in(|| decode_items_on(&topic, &frame).expect("own frame"));
    assert_eq!(decoded.len(), 32);
    // The item list, the dictionary and its one key.
    assert_eq!(spent, 2 + 1, "nothing is allocated per item");
}

/// What one fresh `Bytes` costs on the `bytes` this build links: 1 on
/// crates.io, 2 on the offline stand-in.
fn bytes_cost() -> u64 {
    let (spent, _) = allocs_in(|| Bytes::copy_from_slice(&[1, 2, 3]));
    assert!((1..=2).contains(&spent), "a Bytes costs {spent}");
    spent
}

fn topic(s: &str) -> TopicName {
    TopicName::new(s).expect("valid topic")
}

#[test]
fn decoding_off_a_stream_allocates_only_what_the_packet_keeps() {
    let cost = bytes_cost();
    let puback = encode(&Packet::Puback(7));
    let name = topic("sensor/1/sound");
    let qos0 = encode(&Packet::Publish(Publish::qos0(name.clone(), vec![9u8; 32])));
    let qos1 = encode(&Packet::Publish(Publish::qos1(name, vec![9u8; 32], 7)));
    let other = encode(&Packet::Publish(Publish::qos0(
        topic("sensor/2/sound"),
        vec![9u8; 32],
    )));
    let mut decoder = StreamDecoder::new();
    // The first bytes (the longest frame) give the stream buffer its room,
    // the first publish makes the stream's name table.
    decoder.feed(&qos1[..]);
    decoder.next_packet().expect("valid").expect("complete");

    let mut pop = |feed: &dyn Fn(&mut StreamDecoder)| {
        let (spent, packet) = allocs_in(|| {
            feed(&mut decoder);
            decoder.next_packet()
        });
        (spent, packet.expect("valid").expect("complete"))
    };
    let (spent, packet) = pop(&|d| d.feed(&puback[..]));
    assert_eq!(packet, Packet::Puback(7));
    assert_eq!(spent, 0, "a fixed-size packet is read where it lies");

    // A QoS 0 PUBLISH off the stream: one buffer, the frame it keeps (the
    // payload is a view of it) — and the name, the first time only.
    let (spent, _) = pop(&|d| d.feed(&other[..]));
    assert_eq!(spent, 1 + cost, "a new name, and the frame");
    for frame in [&other, &qos0] {
        let (spent, packet) = pop(&|d| d.feed(&frame[..]));
        assert!(matches!(packet, Packet::Publish(_)));
        assert_eq!(spent, cost, "the frame; the stream knows the name");
    }
    // QoS 1 keeps no frame: its payload is the one copy, as it was.
    let (spent, _) = pop(&|d| d.feed(&qos1[..]));
    assert_eq!(spent, cost, "the payload");

    // A whole shared frame with a repeated name: views of what arrived.
    for frame in [&qos0, &qos1] {
        let (spent, packet) = pop(&|d| d.feed(frame));
        assert!(matches!(packet, Packet::Publish(_)));
        assert_eq!(spent, 0);
    }
}

/// A client session whose CONNECT was accepted, with the event and packet
/// lists that CONNACK went through.
fn connected_client(id: &str) -> (Client, Vec<ClientEvent>, Vec<Packet>) {
    let connack = Packet::Connack(Connack {
        session_present: false,
        code: ConnectReturnCode::Accepted,
    });
    let mut client = Client::new(id, ClientConfig::default());
    client.connect().expect("first connect");
    let (mut events, mut out) = (Vec::new(), Vec::new());
    client
        .handle_packet_into(connack, 0, &mut events, &mut out)
        .expect("accepted");
    (client, events, out)
}

#[test]
fn a_client_publish_from_borrowed_bytes_allocates_its_frame_only() {
    let (mut client, ..) = connected_client("edge");
    let name = topic("sensor/1/sound");
    let image = Sample::new(SensorKind::Sound, 1, 9, 555, &[40.0]).encode();
    let cost = bytes_cost();

    let (spent, frame) =
        allocs_in(|| client.publish_frame(&name, &image, QoS::AtMostOnce, false, 1));
    assert_eq!(spent, cost, "QoS 0: the frame");
    assert!(frame.expect("connected").ends_with(&image));

    // One publish stays unacknowledged, so the in-flight map keeps its node.
    client
        .publish_frame(&name, &image, QoS::AtLeastOnce, false, 2)
        .expect("connected");
    let (spent, frame) =
        allocs_in(|| client.publish_frame(&name, &image, QoS::AtLeastOnce, false, 3));
    assert_eq!(
        spent, cost,
        "QoS 1: the tracked copy is a view of the frame"
    );
    assert!(frame.expect("connected").ends_with(&image));
    assert_eq!(client.inflight_count(), 2);
}

#[test]
fn an_inbound_qos0_publish_costs_the_client_nothing() {
    let (mut client, mut events, mut out) = connected_client("hub");
    let message = Packet::Publish(Publish::qos0(topic("sensor/1/sound"), vec![9u8; 32]));
    // The CONNACK's event gave the list its room.
    events.clear();
    let (spent, result) =
        allocs_in(|| client.handle_packet_into(message, 1, &mut events, &mut out));
    result.expect("handled");
    assert_eq!(spent, 0);
    assert!(matches!(events[..], [ClientEvent::Message(_)]));
    assert!(out.is_empty());
}

#[test]
fn encoding_a_packet_allocates_its_frame_and_nothing_else() {
    let mut connect = Connect::new("edge");
    connect.username = Some("user".into());
    let packets = [
        Packet::Connect(connect),
        Packet::Publish(Publish::qos0(topic("sensor/1/sound"), vec![1u8; 32])),
        Packet::Publish(Publish::qos1(topic("sensor/1/sound"), vec![1u8; 300], 9)),
        Packet::Puback(9),
        Packet::Subscribe(Subscribe {
            packet_id: 1,
            filters: vec![SubscribeFilter {
                filter: TopicFilter::new("sensor/#").expect("valid filter"),
                qos: QoS::AtLeastOnce,
            }],
        }),
        Packet::Pingreq,
    ];
    let cost = bytes_cost();
    for packet in &packets {
        let (spent, frame) = allocs_in(|| encode(packet));
        assert_eq!(spent, cost, "{}", packet.kind_name());
        assert!(!frame.is_empty());
    }
}

/// A memory backend with room for `bytes` of log, so that a growing
/// backend is not charged to the writer under test.
fn presized_backend(bytes: usize) -> MemBackend {
    let backend = MemBackend::new();
    let mut handle = backend.clone();
    handle.append(&vec![0u8; bytes]).expect("memory backend");
    handle.truncate_log(0).expect("memory backend");
    backend
}

#[test]
fn committing_a_wal_batch_allocates_nothing() {
    let backend = presized_backend(4096);
    let mut wal = Wal::new(Box::new(backend.clone()), WalConfig::default());
    let record = WalRecord::InflightRemove {
        client: "sub-1".into(),
        pid: 7,
    };
    wal.record(&record);
    wal.commit();
    let (spent, ()) = allocs_in(|| {
        for _ in 0..10 {
            wal.record(&record);
            wal.record(&record);
            wal.commit();
        }
    });
    assert_eq!(spent, 0, "framed in the buffer the records were written to");
    assert_eq!(wal.stats().batches_committed, 11);
    assert!(backend.log_len() > 0);
}

/// A client id of the form `{prefix}{n}` that hashes onto shard `target`.
fn id_on_shard(prefix: &str, target: usize, shards: usize) -> String {
    (0..)
        .map(|n| format!("{prefix}{n}"))
        .find(|id| shard_of(id, shards) == target)
        .expect("some id lands on every shard")
}

#[test]
fn a_durable_qos1_publish_allocates_nothing_inside_the_sharded_broker() {
    const SHARDS: usize = 4;
    let backends: Vec<MemBackend> = (0..SHARDS).map(|_| presized_backend(1 << 20)).collect();
    let config = BrokerConfig {
        shards: SHARDS,
        wal_snapshot_every: 0,
        ..BrokerConfig::default()
    };
    let broker: ShardedBroker<u32> = ShardedBroker::open_durable(
        config,
        backends
            .iter()
            .map(|b| Box::new(b.clone()) as Box<dyn WalBackend>)
            .collect(),
    )
    .expect("fresh backends open");

    // One persistent QoS 1 subscriber on every shard, the publisher on
    // shard 0: three of the four deliveries cross shards.
    let persistent = |id: String| {
        let mut c = Connect::new(id);
        c.clean_session = false;
        Packet::Connect(c)
    };
    for shard in 0..SHARDS {
        let conn = shard as u32 + 1;
        broker.connection_opened(conn, 0);
        let id = id_on_shard("sub-", shard, SHARDS);
        broker.resolve(broker.handle_packet(&conn, persistent(id), 0), 0);
        let subscribe = Packet::Subscribe(Subscribe {
            packet_id: 1,
            filters: vec![SubscribeFilter {
                filter: TopicFilter::new("sensor/#").expect("valid filter"),
                qos: QoS::AtLeastOnce,
            }],
        });
        broker.resolve(broker.handle_packet(&conn, subscribe, 0), 0);
    }
    const PUBLISHER: u32 = 9;
    broker.connection_opened(PUBLISHER, 0);
    let id = id_on_shard("pub-", 0, SHARDS);
    broker.resolve(broker.handle_packet(&PUBLISHER, persistent(id), 0), 0);

    let publishes: Vec<Packet> = (0..8u16)
        .map(|t| {
            let name = topic(&format!("sensor/{t}/sound"));
            Packet::Publish(Publish::qos1(name, vec![t as u8; 32], 100 + t))
        })
        .collect();
    let mut out = ShardOutput::default();
    let mut acks = ShardOutput::default();
    let mut deliveries = 0u64;
    let mut publish_once = |packet: &Packet, now: u64| {
        broker.handle_packet_into(&PUBLISHER, packet.clone(), now, &mut out);
        broker.resolve_into(&mut out, now);
        for action in out.actions.drain(..) {
            if let Action::Send {
                conn,
                packet: Packet::Publish(p),
            } = action
            {
                deliveries += 1;
                let ack = Packet::Puback(p.packet_id.expect("a QoS 1 delivery"));
                broker.handle_packet_into(&conn, ack, now, &mut acks);
                acks.actions.clear();
            }
        }
    };
    // Warm-up: match caches, in-flight windows, event and record buffers.
    for (i, packet) in publishes.iter().cycle().take(64).enumerate() {
        publish_once(packet, i as u64);
    }
    const MEASURED: u64 = 256;
    let (spent, ()) = allocs_in(|| {
        for (i, packet) in publishes.iter().cycle().take(MEASURED as usize).enumerate() {
            publish_once(packet, 1_000 + i as u64);
        }
    });
    assert_eq!(deliveries, (64 + MEASURED) * SHARDS as u64, "fan-out 4");
    // Nothing: the topic and payload came with the packet, the frames are
    // the transport's, and every record is written from borrowed fields.
    assert_eq!(
        spent, 0,
        "over {MEASURED} publishes, acknowledgements included"
    );
    let stats = broker.wal_stats().expect("durable");
    assert_eq!(stats.append_errors, 0);
    assert!(stats.records_appended >= (64 + MEASURED) * 2 * SHARDS as u64);
}
