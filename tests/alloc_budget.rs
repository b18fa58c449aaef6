//! Allocation budget of one sample's journey, as a gate.
//!
//! An edge node (three sensors) and a hub node (embedded broker, Join →
//! Train + Predict: the Fig. 9 recipe `flowbench`'s `paper_flow_rt` runs)
//! are stepped on one thread in virtual time through an environment that
//! allocates nothing itself (`tests/common/pair.rs`), under a counting
//! allocator. Every call into a node is charged to its leg, so a
//! regression names where it happened. The `chain_batched_rt` pair (a
//! batching edge, a hub with three custom stages and four sharded predict
//! replicas, run inline) is gated the same way, per prediction.
//!
//! There is one build: the buffer is the workspace's own `bytes`
//! (`crates/bytes`), where a fresh `Bytes` is one allocation, so every
//! budget here is an exact count, and the per-leg ones are what was
//! measured plus a tenth. Run it as CI does:
//!
//! ```text
//! cargo test --release --test alloc_budget
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use bytes::{BufMut, Bytes, BytesMut};

use ifot::core::config::{ExecutorConfig, NodeConfig, OperatorKind, OperatorSpec, ShedPolicy};
use ifot::core::env::NodeEnv;
use ifot::core::executor::ops::build_operator;
use ifot::core::executor::pool::Worker;
use ifot::core::executor::{ExecutorGraph, WorkItem};
use ifot::core::flow::{FlowBatch, FlowItem, Name};
use ifot::core::node::{MiddlewareNode, MQTT_BROKER_PORT};
use ifot::core::operators::{NodeEvent, OpOutput};
use ifot::core::wire::{decode_items_on, encode_batch_binary, DecodedItems, FrameDecoder};
use ifot::ml::feature::{Datum, DEFAULT_DIMENSIONS};
use ifot::ml::runtime::AnyClassifier;
use ifot::mqtt::broker::{Action, Broker, BrokerConfig};
use ifot::mqtt::client::{Client, ClientConfig, ClientEvent};
use ifot::mqtt::codec::{encode, OutFrame, StreamDecoder};
use ifot::mqtt::packet::{
    Connack, Connect, ConnectReturnCode, LastWill, Packet, Publish, QoS, Suback, SubackCode,
    Subscribe, SubscribeFilter, Unsubscribe,
};
use ifot::mqtt::shard::{shard_of, ShardOutput, ShardedBroker};
use ifot::mqtt::topic::{TopicFilter, TopicName};
use ifot::mqtt::tree::SubscriptionTree;
use ifot::mqtt::wal::{MemBackend, Wal, WalBackend, WalConfig, WalRecord};
use ifot::netsim::metrics::{Metrics, MetricsDelta};
use ifot::netsim::time::SimDuration;
use ifot::sensors::sample::{Sample, SensorKind};

mod common;

use common::pair::{
    chain_batched_pair, fig9_pair, Event, Pair, CHAIN_BATCH, CHAIN_SENSORS, EDGE, FIG9_SENSORS, HUB,
};

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

const SENSOR_HZ: f64 = 1_000.0;

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
    assert_eq!(hub.events_evicted(), 0, "every prediction is still logged");
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
fn step(configs: [NodeConfig; 2], warmup_ns: u64, measure_ns: u64) -> Legs {
    let mut pair = Pair::start(configs);
    let mut legs = Legs::default();
    let mut baseline: Option<(u64, u64)> = None;
    while let Some(event) = pair.next_event() {
        if pair.now_ns() > warmup_ns + measure_ns {
            break;
        }
        if baseline.is_none() && pair.now_ns() >= warmup_ns {
            baseline = Some((published(&pair.nodes[EDGE]), predictions(&pair.nodes[HUB])));
        }
        let leg: fn(&mut Legs) -> &mut u64 = match &event {
            Event::Packet {
                dst: HUB,
                port: MQTT_BROKER_PORT,
                ..
            } => |l| &mut l.broker_route,
            Event::Packet { dst: HUB, .. } => |l| &mut l.ingest_exec,
            Event::Timer { node: EDGE, .. } => |l| &mut l.sense_publish,
            Event::Packet { .. } | Event::Timer { .. } => |l| &mut l.other,
        };
        let (spent, ()) = allocs_in(|| pair.deliver(event));
        if baseline.is_some() {
            *leg(&mut legs) += spent;
        }
    }
    let (published0, predicted0) = baseline.expect("the run outlasts its warm-up");
    legs.samples = published(&pair.nodes[EDGE]) - published0;
    legs.predictions = predictions(&pair.nodes[HUB]) - predicted0;
    legs
}

/// Committed budgets, in allocation calls per sample (three samples make
/// one prediction). The first leg measures 0.0000 — no call in 3 000
/// samples: the PUBLISH frame the sample's image is written into is one
/// the edge's client sent before and every reader has let go of — and
/// gets a hundredth of a call of room (a new frame per sample reads
/// 1.00). The broker leg measures
/// 0.00: the name is one the stream repeats and the frame that arrived is
/// the frame that is forwarded. The last leg measures 0.00 (three calls
/// over 3 000 samples: the event ring doubling toward its cap): the join and
/// the predictor append to the node's one output list, train and predict
/// hash into vectors they keep, the join's emission reaches them without
/// a list of its own, and the three frames' names, their payloads (views
/// of the frames), the client's event list and the unlabelled prediction
/// cost nothing. It gets the broker leg's room.
const SENSE_PUBLISH_BUDGET: f64 = 0.01;
const BROKER_ROUTE_BUDGET: f64 = 0.1;
const INGEST_EXEC_BUDGET: f64 = 0.1;

#[test]
fn one_samples_journey_stays_within_its_allocation_budget() {
    let legs = step(fig9_pair(SENSOR_HZ), 200_000_000, 1_000_000_000);
    assert!(legs.samples >= 2_900, "the pair must be running: {legs:?}");
    assert_eq!(
        legs.predictions * FIG9_SENSORS,
        legs.samples,
        "every sample reaches a prediction: {legs:?}"
    );
    let per_sample = |calls: u64| calls as f64 / legs.samples as f64;
    println!(
        "allocations per sample: sense+publish {:.4} ({} calls), broker route {:.2}, ingest+exec {:.2}, other {:.3}",
        per_sample(legs.sense_publish),
        legs.sense_publish,
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

/// Committed budget of the `chain_batched_rt` hub run inline, in
/// allocation calls per prediction over both of its legs: measured
/// 0.00008 (2 calls over 24 000 predictions, the event ring doubling
/// toward its cap), plus room for ten calls. The node's frame decoder
/// keeps the last frame's key dictionary, and a frame naming the same
/// key reuses it (0.067 while each frame's dictionary and key were new,
/// two calls a frame). Its item list is one the node thread kept, and it
/// travels whole through the three custom stages; the shard split takes
/// its four sub-lists from the same spare lists, and each replica labels
/// into a list it keeps (0.533 while every hop built a list and dropped
/// the one it consumed).
const CHAIN_HUB_BUDGET: f64 = 0.0005;

#[test]
fn the_chain_hub_stays_within_its_allocation_budget() {
    let legs = step(chain_batched_pair(), 200_000_000, 500_000_000);
    assert!(
        legs.predictions >= 20_000,
        "the pair must be running: {legs:?}"
    );
    // Only the batches still filling at either cut (one per sensor at
    // most) separate what was published from what was predicted.
    assert!(
        legs.predictions.abs_diff(legs.samples) <= CHAIN_SENSORS * CHAIN_BATCH,
        "every sample reaches one replica: {legs:?}"
    );
    let per_prediction = |calls: u64| calls as f64 / legs.predictions as f64;
    println!(
        "chain hub allocations per prediction: broker route {:.4}, ingest+exec {:.4} ({} calls over {} predictions)",
        per_prediction(legs.broker_route),
        per_prediction(legs.ingest_exec),
        legs.broker_route + legs.ingest_exec,
        legs.predictions,
    );
    assert!(
        per_prediction(legs.broker_route + legs.ingest_exec) <= CHAIN_HUB_BUDGET,
        "broker route + decode → dispatch → three custom stages → four replicas: {legs:?}"
    );
}

/// Committed budget of the `chain_batched_rt` edge's sense + publish leg,
/// in allocation calls per sample: measured 0 (no call over 24 000
/// samples), plus room for two calls. A flushed batch (30 samples on
/// average: the linger flushes some batches early) is written into a
/// PUBLISH frame the client sent before and no one holds any more, which
/// grows, at least doubling, where the batch is bigger than any it held
/// before the window. Each topic keeps its list and its validated name,
/// and the frame encoder its buffer and key dictionary. A new frame per
/// batch reads 0.033; a ring of 32 kept frames written over only where
/// they had room read 0.00025.
const CHAIN_EDGE_BUDGET: f64 = 0.0001;

#[test]
fn the_chain_edge_writes_its_batch_frames_over_kept_ones() {
    let legs = step(chain_batched_pair(), 200_000_000, 500_000_000);
    assert!(legs.samples >= 20_000, "the pair must be running: {legs:?}");
    let per_sample = legs.sense_publish as f64 / legs.samples as f64;
    println!(
        "chain edge allocations per sample: sense+publish {per_sample:.5} ({} calls over {} samples)",
        legs.sense_publish, legs.samples
    );
    assert!(
        per_sample <= CHAIN_EDGE_BUDGET,
        "sense → batch → encode → publish → send: {legs:?}"
    );
}

/// One frame through the `chain_batched_rt` hub's dealt stages, with this
/// thread playing the node thread's part: decode it into a list the graph
/// gives, post it to the ingest stage, turn the workers until both are
/// idle, perform what they deliver (count the predictions) and give each
/// delivered list back. Returns the predictions made.
fn frame_through_the_pool(
    graph: &ExecutorGraph,
    workers: &mut [Worker],
    decoder: &mut FrameDecoder,
    topic: &Name,
    frame: &[u8],
) -> u64 {
    let Ok(DecodedItems::Many(items)) = decoder.decode_into(topic, frame, || graph.take_list())
    else {
        panic!("a batch frame decodes into a list");
    };
    graph.enqueue(0, WorkItem::Batch(items), 0);
    let mut predicted = 0;
    let mut deliver = |_: usize, outputs: Vec<OpOutput>| {
        predicted += outputs
            .iter()
            .filter(|o| matches!(o, OpOutput::Event(NodeEvent::Prediction { .. })))
            .count() as u64;
        graph.give_back(outputs);
    };
    loop {
        let mut worked = false;
        for worker in workers.iter_mut() {
            worked |= worker.turn(&mut QuietEnv, &mut deliver);
        }
        if !worked {
            return predicted;
        }
    }
}

/// Committed budget of the `chain_batched_rt` hub's stages dealt to two
/// workers (its pooled hop), driven on one thread, in allocation calls
/// per prediction: measured 0 (no call over 8 192 predictions), plus room
/// for four calls. The frame decoder keeps its dictionary, as inline
/// (0.0625 while a frame cost its dictionary and key). The workers hand
/// the batch's list from stage to stage and split it into sub-lists taken
/// from their spare lists; the worker that ends up short takes lists from
/// the pool's return stack, which the one with a surplus and the node
/// thread's decodes keep balanced, and the output lists a worker delivers
/// come back through the other return stack. With return stacks that
/// keep nothing it reads 0.281: seven more calls a frame (the node
/// thread's decoded list, the four replicas' output lists, and the list
/// one worker runs short of, made small for a shard and grown for a
/// batch).
const POOLED_HOP_BUDGET: f64 = 0.0005;

#[test]
fn the_pooled_chain_hop_stays_within_its_allocation_budget() {
    let [_, hub] = chain_batched_pair();
    let config = ExecutorConfig {
        workers: 2,
        mailbox_capacity: 1024,
        shed_policy: ShedPolicy::ShedOldest,
    };
    let graph = ExecutorGraph::compile(hub.operators, &config);
    let mut workers = graph.deal(2);
    let frames: Vec<(Name, Vec<u8>)> = (1..=CHAIN_SENSORS)
        .map(|device| {
            let topic = Name::from(format!("sensor/{device}/sound").as_str());
            let items = (0..CHAIN_BATCH)
                .map(|i| {
                    let sample =
                        Sample::new(SensorKind::Sound, device as u16, i as u32, i, &[40.0]);
                    FlowItem::from_sample(topic.clone(), &sample).into_message("edge")
                })
                .collect();
            (topic, encode_batch_binary(&FlowBatch { items }))
        })
        .collect();
    let mut decoder = FrameDecoder::default();
    let mut run = |rounds: usize| {
        let mut predicted = 0;
        for (topic, frame) in frames.iter().cycle().take(rounds * frames.len()) {
            predicted += frame_through_the_pool(&graph, &mut workers, &mut decoder, topic, frame);
        }
        predicted
    };
    run(8);
    let (spent, predicted) = allocs_in(|| run(32));
    assert_eq!(
        predicted,
        32 * CHAIN_SENSORS * CHAIN_BATCH,
        "every sample reaches one replica"
    );
    let per_prediction = spent as f64 / predicted as f64;
    println!("pooled chain hop allocations per prediction: {per_prediction:.4} ({spent} calls over {predicted} predictions)");
    assert!(
        per_prediction <= POOLED_HOP_BUDGET,
        "decode → ingest → refine1 → refine2 → four replicas on two workers: {spent} calls"
    );
    graph.reclaim(workers);
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
    let (spent, mut x) = allocs_in(|| item.datum.to_vector(DEFAULT_DIMENSIONS));
    assert_eq!(spent, 1, "the vector's one buffer");
    assert_eq!(x.nnz(), 3);
    let other = Datum::new().with("sound_db", 40.0);
    let (spent, ()) = allocs_in(|| other.to_vector_into(DEFAULT_DIMENSIONS, &mut x));
    assert_eq!(spent, 0, "hashed into the buffer the vector has");
    assert_eq!(x, other.to_vector(DEFAULT_DIMENSIONS));
}

/// An environment that allocates nothing: what an operator call costs
/// is the operator's.
struct QuietEnv;

impl NodeEnv for QuietEnv {
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
        4
    }
}

#[test]
fn a_custom_batch_into_a_presized_list_allocates_nothing() {
    let mut op = build_operator(OperatorSpec::through(
        "refine",
        OperatorKind::Custom {
            operator: "refine".into(),
        },
        vec!["flow/chain/0".into()],
        "flow/chain/1",
    ));
    let topic = Name::from("flow/chain/0");
    let mut batch: Vec<FlowItem> = (0..32u32)
        .map(|i| {
            let sample = Sample::new(SensorKind::Sound, 2, i, u64::from(i), &[40.0]);
            FlowItem::from_sample(topic.clone(), &sample)
        })
        .collect();
    let mut out = Vec::with_capacity(batch.len());
    let (spent, ()) = allocs_in(|| op.on_batch(&mut QuietEnv, &mut batch, &mut out));
    assert_eq!(spent, 0, "32 emissions into a list with room for them");
    assert_eq!(out.len(), 32);
    assert!(batch.is_empty(), "the list is drained, not dropped");
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
    // A decoder that keeps the dictionary, into a list with room: the
    // second frame naming the same key costs nothing.
    let mut decoder = FrameDecoder::default();
    let mut decode = |mut list: Vec<FlowItem>| {
        list.clear();
        let decoded = decoder.decode_into(&topic, &frame, || list);
        decoded.expect("own frame").into_vec()
    };
    let first = decode(decoded.into_vec());
    let (spent, second) = allocs_in(|| decode(first));
    assert_eq!((spent, second.len()), (0, 32));
}

#[test]
fn a_buffer_is_one_allocation_and_its_views_are_none() {
    let (spent, mut b) = allocs_in(|| Bytes::copy_from_slice(&[7u8; 64]));
    assert_eq!(spent, 1, "the Arc<[u8]> the bytes are copied into");
    let (spent, _) = allocs_in(|| Bytes::copy_from_slice(&[]));
    assert_eq!(spent, 0, "an empty buffer is the shared empty slice");
    let (spent, ()) = allocs_in(|| {
        let copy = b.clone();
        let middle = copy.slice(8..56);
        let mut tail = b.split_off(32);
        let head = b.split_to(16);
        let rest = tail.split_to(4);
        assert_eq!(head.len() + b.len() + rest.len() + tail.len(), copy.len());
        assert_eq!(middle.len(), 48);
    });
    assert_eq!(spent, 0, "clone, slice, split_to and split_off share it");
    // A frame written into a buffer of its size is frozen where it lies.
    let (spent, frame) = allocs_in(|| {
        let mut m = BytesMut::with_capacity(5);
        m.put_u8(0x30);
        m.put_u16(2);
        m.put_slice(b"ab");
        m.freeze()
    });
    assert_eq!(spent, 1, "with_capacity; put and freeze write in place");
    assert_eq!(frame, b"\x30\x00\x02ab"[..]);
    // Its last holder turns it back into a writer over the same buffer,
    // and a frame that fits is written over it in place.
    let (spent, frame) = allocs_in(|| {
        let mut m = frame.try_into_mut().expect("the last holder");
        m.clear();
        m.resize(4, 0);
        m[0] = 0xC0;
        m.freeze()
    });
    assert_eq!(spent, 0, "try_into_mut and a resize within the capacity");
    assert_eq!(frame, b"\xC0\x00\x00\x00"[..]);
}

fn topic(s: &str) -> TopicName {
    TopicName::new(s).expect("valid topic")
}

/// A trie lookup into a list the caller keeps allocates nothing once the
/// list has room: not over 4 096 distinct topics (`fanout_qos0_tcp`'s
/// working set; a memoised lookup cost two allocations per topic it had
/// not seen), and not at a 1 000-subscriber fan-out, whose dedup sort
/// runs in place.
#[test]
fn a_trie_lookup_into_a_kept_list_allocates_nothing() {
    let filter = |f: &str| TopicFilter::new(f).expect("valid filter");
    let names: Vec<TopicName> = (0..4_096)
        .map(|t| topic(&format!("sensor/{t}/sound")))
        .collect();

    // The shared index of a 4-shard broker with fan-out 16.
    let mut index: SubscriptionTree<(usize, Arc<str>)> = SubscriptionTree::new();
    for i in 0..16 {
        let key = (i % 4, Arc::from(format!("sub-{i}")));
        index.subscribe(key, &filter("sensor/#"), QoS::AtMostOnce);
    }
    let mut kept = Vec::new();
    index.matches_into(&names[0], &mut kept);
    let (spent, ()) = allocs_in(|| {
        for name in &names {
            index.matches_into(name, &mut kept);
            assert_eq!(kept.len(), 16);
        }
    });
    assert_eq!(spent, 0, "4 096 distinct topics");

    // A broker's own tree, 1 000 subscribers each matching twice: 2 000
    // raw matches sorted and deduplicated to 1 000 at the higher QoS.
    let mut tree: SubscriptionTree<Arc<str>> = SubscriptionTree::new();
    for i in 0..1_000 {
        let key: Arc<str> = Arc::from(format!("sub-{i}"));
        tree.subscribe(Arc::clone(&key), &filter("sensor/#"), QoS::AtMostOnce);
        tree.subscribe(key, &filter("sensor/+/sound"), QoS::AtLeastOnce);
    }
    let mut kept = Vec::new();
    tree.matches_into(&names[0], &mut kept);
    let (spent, ()) = allocs_in(|| {
        for name in &names[..64] {
            tree.matches_into(name, &mut kept);
            assert_eq!(kept.len(), 1_000);
        }
    });
    assert_eq!(spent, 0, "a 1 000-subscriber fan-out");
    assert!(kept.iter().all(|s| s.qos == QoS::AtLeastOnce));
    assert!(kept.windows(2).all(|w| w[0].key < w[1].key), "in key order");
}

#[test]
fn decoding_off_a_stream_allocates_only_what_the_packet_keeps() {
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
    assert_eq!(spent, 2, "a new name, and the frame");
    for frame in [&other, &qos0] {
        let (spent, packet) = pop(&|d| d.feed(&frame[..]));
        assert!(matches!(packet, Packet::Publish(_)));
        assert_eq!(spent, 1, "the frame; the stream knows the name");
    }
    // So does QoS 1, its deliveries' head a view of it beside the payload.
    let (spent, _) = pop(&|d| d.feed(&qos1[..]));
    assert_eq!(spent, 1, "the frame");

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

    let (spent, frame) =
        allocs_in(|| client.publish_frame(&name, &image, QoS::AtMostOnce, false, 1));
    assert_eq!(spent, 1, "QoS 0: the frame");
    assert!(frame.expect("connected").ends_with(&image));

    // That frame let go of, the next is written over it; while a clone of
    // it is held, the one after is a buffer of its own.
    let (spent, frame) =
        allocs_in(|| client.publish_frame(&name, &image, QoS::AtMostOnce, false, 2));
    assert_eq!(spent, 0, "QoS 0: the client's last frame, written over");
    let held = frame.expect("connected").clone();
    let (spent, frame) =
        allocs_in(|| client.publish_frame(&name, &image, QoS::AtMostOnce, false, 3));
    assert_eq!(spent, 1, "QoS 0: the last frame is held");
    assert!(frame.expect("connected").ends_with(&image) && held.ends_with(&image));
    drop(held);

    // One publish stays unacknowledged, so the in-flight map keeps its
    // node. A QoS 1 frame is two bytes longer than the QoS 0 ones kept.
    client
        .publish_frame(&name, &image, QoS::AtLeastOnce, false, 4)
        .expect("connected");
    let (spent, frame) =
        allocs_in(|| client.publish_frame(&name, &image, QoS::AtLeastOnce, false, 5));
    assert_eq!(spent, 1, "QoS 1: the tracked copy is a view of the frame");
    assert!(frame.expect("connected").ends_with(&image));
    assert_eq!(client.inflight_count(), 2);
}

/// Frames a reader holds at once when it stalls, and the length of a Fig.
/// 9 sample's PUBLISH frame.
const STALL_DEPTH: u64 = 300;
const FIG9_FRAME_LEN: usize = 72;

/// A reader that stalls holding 300 Fig. 9 frames, then catches up and
/// lets them go in the order they were sent, makes the client allocate
/// them once: the next 300 held frames are written over the first 300,
/// so a second stall costs nothing. A client that kept a ring of its last
/// 32 frames made 268 new ones on the second stall.
#[test]
fn a_stalled_reader_costs_new_frames_only_the_first_time() {
    let (mut client, ..) = connected_client("edge");
    let name = topic("sensor/1/temperature");
    let payload = [5u8; FIG9_FRAME_LEN - 24];
    let mut held = Vec::with_capacity(STALL_DEPTH as usize);
    let mut stall = |round: u64| {
        allocs_in(|| {
            for i in 0..STALL_DEPTH {
                let now = round * STALL_DEPTH + i;
                let frame = client
                    .publish_frame(&name, &payload, QoS::AtMostOnce, false, now)
                    .expect("connected");
                held.push(frame);
            }
            assert!(held.iter().all(|f| f.len() == FIG9_FRAME_LEN));
            // Let go of oldest first.
            held.clear();
        })
        .0
    };
    let first = stall(0);
    let second = stall(1);
    let third = stall(2);
    println!(
        "a stall of {STALL_DEPTH} frames: {first} allocations the first time, {second} the second, {third} the third"
    );
    assert!(
        first >= STALL_DEPTH,
        "every frame of the first stall is new: {first}"
    );
    assert_eq!(
        (second, third),
        (0, 0),
        "the first stall's frames are written over"
    );
}

/// Allocation calls one `$SYS` tick of a broker without `$SYS`
/// subscribers may make: its five status publications built into a list
/// the caller keeps, and routed. The topics are built once and the list
/// keeps its room, so a tick is the one buffer the five payloads are views
/// of; 26 while each tick formatted its topics and copied its values.
const SYS_TICK_BUDGET: u64 = 2;

#[test]
fn a_sys_tick_allocates_its_payload_buffer_only() {
    let mut broker: Broker<u32> = Broker::new();
    let mut publishes = Vec::new();
    let mut actions = Vec::new();
    let mut tick = |broker: &mut Broker<u32>, now_ns: u64| {
        broker.sys_stats_packets_into(&mut publishes);
        assert_eq!(publishes.len(), 5);
        for publish in publishes.drain(..) {
            broker.publish_internal_into(publish, now_ns, &mut actions);
        }
        actions.clear();
    };
    tick(&mut broker, 0);
    let (spent, ()) = allocs_in(|| tick(&mut broker, 1));
    println!("one $SYS tick: {spent} allocations");
    assert!(
        spent <= SYS_TICK_BUDGET,
        "{spent} calls, budget {SYS_TICK_BUDGET}"
    );
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
    connect.will = Some(LastWill {
        topic: topic("status/edge"),
        payload: Bytes::copy_from_slice(b"offline"),
        qos: QoS::AtLeastOnce,
        retain: true,
    });
    let mut qos2 = Publish::qos1(topic("sensor/1/sound"), vec![1u8; 20_000], 9);
    qos2.qos = QoS::ExactlyOnce;
    qos2.dup = true;
    let filter = TopicFilter::new("sensor/#").expect("valid filter");
    let packets = [
        Packet::Connect(connect),
        Packet::Connack(Connack {
            session_present: true,
            code: ConnectReturnCode::Accepted,
        }),
        Packet::Publish(Publish::qos0(topic("sensor/1/sound"), vec![1u8; 32])),
        Packet::Publish(Publish::qos1(topic("sensor/1/sound"), vec![1u8; 300], 9)),
        Packet::Publish(qos2),
        Packet::Puback(9),
        Packet::Pubrec(9),
        Packet::Pubrel(9),
        Packet::Pubcomp(9),
        Packet::Subscribe(Subscribe {
            packet_id: 1,
            filters: vec![SubscribeFilter {
                filter: filter.clone(),
                qos: QoS::AtLeastOnce,
            }],
        }),
        Packet::Suback(Suback {
            packet_id: 1,
            codes: vec![SubackCode::Granted(QoS::AtLeastOnce), SubackCode::Failure],
        }),
        Packet::Unsubscribe(Unsubscribe {
            packet_id: 2,
            filters: vec![filter],
        }),
        Packet::Unsuback(2),
        Packet::Pingreq,
        Packet::Pingresp,
        Packet::Disconnect,
    ];
    for packet in &packets {
        let (spent, frame) = allocs_in(|| encode(packet));
        assert_eq!(spent, 1, "{}", packet.kind_name());
        assert!(!frame.is_empty());
    }
}

#[test]
fn queueing_a_fixed_size_packet_allocates_nothing() {
    let connack = Packet::Connack(Connack {
        session_present: true,
        code: ConnectReturnCode::Accepted,
    });
    for packet in [
        connack,
        Packet::Puback(9),
        Packet::Pubrec(9),
        Packet::Pubrel(9),
        Packet::Pubcomp(9),
        Packet::Unsuback(2),
        Packet::Pingreq,
        Packet::Pingresp,
        Packet::Disconnect,
    ] {
        let kind = packet.kind_name();
        let (spent, frame) = allocs_in(|| OutFrame::from(packet));
        assert_eq!(spent, 0, "{kind}");
        assert!(matches!(frame, OutFrame::Inline { .. }), "{kind}");
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
fn a_durable_qos1_publish_off_its_shared_frame_queues_four_deliveries_for_nothing() {
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

    // Each publish as a transport hands it over: decoded from the shared
    // frame it arrived in, which it keeps.
    let mut decoder = StreamDecoder::new();
    let publishes: Vec<Packet> = (0..8u16)
        .map(|t| {
            let name = topic(&format!("sensor/{t}/sound"));
            let publish = Publish::qos1(name, vec![t as u8; 32], 100 + t);
            decoder.feed(&encode(&Packet::Publish(publish)));
            decoder.next_packet().expect("valid").expect("complete")
        })
        .collect();
    let mut out = ShardOutput::default();
    let mut acks = ShardOutput::default();
    // What a transport queues, as `TcpBroker`'s event loops do.
    let mut queued: Vec<OutFrame> = Vec::with_capacity(2 * SHARDS);
    let mut deliveries = 0u64;
    let mut publish_once = |packet: &Packet, now: u64| {
        broker.handle_packet_into(&PUBLISHER, packet.clone(), now, &mut out);
        broker.resolve_into(&mut out, now);
        for action in out.actions.drain(..) {
            let Action::Send { conn, packet } = action else {
                panic!("only packets are sent here");
            };
            if let Packet::Publish(p) = &packet {
                deliveries += 1;
                let ack = Packet::Puback(p.packet_id.expect("a QoS 1 delivery"));
                broker.handle_packet_into(&conn, ack, now, &mut acks);
                acks.actions.clear();
            }
            queued.push(OutFrame::from(packet));
        }
        let split = queued
            .iter()
            .filter(|f| matches!(f, OutFrame::Split { .. }))
            .count();
        let inline = queued
            .iter()
            .filter(|f| matches!(f, OutFrame::Inline { .. }))
            .count();
        assert_eq!(
            (split, inline),
            (SHARDS, 1),
            "every delivery split, the PUBACK inline"
        );
        queued.clear();
    };
    // Warm-up: match lists, in-flight windows, event and record buffers.
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
    // Nothing: the head the four deliveries share is a view of the frame
    // the publish kept, the publisher's PUBACK is held inline, the topic
    // and payload came with the packet, and every record is written from
    // borrowed fields. (Two a publish while the origin shard made the head
    // and the PUBACK was a buffer of its own.)
    assert_eq!(
        spent, 0,
        "over {MEASURED} publishes, acknowledgements included"
    );
    let stats = broker.wal_stats().expect("durable");
    assert_eq!(stats.append_errors, 0);
    assert!(stats.records_appended >= (64 + MEASURED) * 2 * SHARDS as u64);
}
