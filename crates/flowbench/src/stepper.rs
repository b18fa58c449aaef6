//! The stepper: the benchmark's own `NodeEnv`, driving the same two
//! `MiddlewareNode`s single-threaded through `on_start`, `on_timer` and
//! `on_packet`, and recording one span around each call. Spans are
//! recorded here, in the benchmark's files, around the calls into the
//! program; spans inside the program are a later change.
//!
//! Time is virtual (timers fire in order, packets arrive at once), so the
//! run is deterministic; each call's *duration* is wall clock. With
//! nothing contending, the three span sums are the single-thread critical
//! path of one item.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use bytes::Bytes;
use ifot_core::env::NodeEnv;
use ifot_core::node::{MiddlewareNode, MQTT_BROKER_PORT};
use ifot_core::operators::NodeEvent;
use ifot_ml::feature::DEFAULT_DIMENSIONS;
use ifot_ml::runtime::AnyClassifier;
use ifot_mqtt::codec::StreamDecoder;
use ifot_mqtt::packet::Packet;

use crate::sut::{self, RtNodes};

/// Virtual time stepped before anything counts, and while it counts: for
/// the traced run, and for each repetition of the service-time figure.
const TRACE_SPAN: (u64, u64) = (200_000_000, 1_000_000_000);
const SERVICE_SPAN: (u64, u64) = (50_000_000, 200_000_000);
/// Repetitions of the service-time figure; the fastest is reported.
const SERVICE_REPEATS: usize = 7;

const EDGE: usize = 0;
const HUB: usize = 1;

/// One call into a node.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Index of the span whose handler sent the packet that caused this
    /// call (`None` for timers).
    cause: Option<u32>,
    /// The sensor tick (count of `edge.on_timer` sensor spans) that
    /// started this chain of calls.
    trace: u64,
}

struct PendingPacket {
    src: usize,
    dst: usize,
    port: u16,
    payload: Bytes,
    cause: Option<u32>,
    trace: u64,
}

/// What both nodes share: the event queues and the counters.
#[derive(Default)]
struct World {
    timers: BinaryHeap<Reverse<(u64, u64, usize, u64)>>,
    packets: VecDeque<PendingPacket>,
    order: u64,
    counters: HashMap<String, u64>,
    rng: u64,
    /// Every frame the edge sent to the hub's broker, in order (kept only
    /// by a recording run).
    capture: bool,
    edge_frames: Vec<Bytes>,
}

struct StepEnv<'a> {
    node: usize,
    now_ns: u64,
    world: &'a mut World,
    span: Option<u32>,
    trace: u64,
}

impl NodeEnv for StepEnv<'_> {
    fn now_ns(&self) -> u64 {
        self.now_ns
    }

    fn send(&mut self, dst: &str, port: u16, payload: Bytes) {
        let dst = if dst == sut::EDGE { EDGE } else { HUB };
        if self.world.capture && self.node == EDGE && port == MQTT_BROKER_PORT {
            self.world.edge_frames.push(payload.clone());
        }
        self.world.packets.push_back(PendingPacket {
            src: self.node,
            dst,
            port,
            payload,
            cause: self.span,
            trace: self.trace,
        });
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

    // Cost emulation off: declared work is not slept out.
    fn consume_ref_ms(&mut self, _ms: f64) {}

    fn record_latency_since_ns(&mut self, name: &str, _since_ns: u64) {
        self.add(name, 1);
    }

    fn incr(&mut self, counter: &str) {
        self.add(counter, 1);
    }

    fn add(&mut self, counter: &str, delta: u64) {
        match self.world.counters.get_mut(counter) {
            Some(v) => *v += delta,
            None => {
                self.world.counters.insert(counter.to_owned(), delta);
            }
        }
    }

    fn rand_u64(&mut self) -> u64 {
        // SplitMix64, as the thread runtime's environment.
        self.world.rng = self.world.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.world.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// What one stepped run measured.
struct Stepped {
    spans: Vec<Span>,
    /// Wall seconds the measured part took.
    wall_s: f64,
    /// Span-duration sums (ns) after the warm-up, by span name.
    sums: HashMap<&'static str, u64>,
    items: u64,
    hub: MiddlewareNode,
    edge_frames: Vec<Bytes>,
}

fn step(nodes: &RtNodes, (warmup_ns, measure_ns): (u64, u64), record: bool) -> Stepped {
    let mut world = World {
        capture: record,
        ..World::default()
    };
    let mut node = [
        MiddlewareNode::new(nodes.edge.clone()),
        MiddlewareNode::new(nodes.hub.clone()),
    ];
    let mut spans: Vec<Span> = Vec::with_capacity(if record { 1 << 19 } else { 0 });
    let mut sums: HashMap<&'static str, u64> = HashMap::new();
    let mut ticks = 0u64;
    // Items completed and the wall clock when the warm-up ended.
    let mut measured_from: Option<(u64, Instant)> = None;
    let epoch = Instant::now();
    let mut now_ns = 0u64;

    for (index, n) in node.iter_mut().enumerate() {
        let mut env = StepEnv {
            node: index,
            now_ns,
            world: &mut world,
            span: None,
            trace: 0,
        };
        n.on_start(&mut env);
    }

    loop {
        // Packets arrive at once, in send order; timers in time order.
        let (index, name, cause, trace, call): (usize, &'static str, Option<u32>, u64, Call) =
            if let Some(p) = world.packets.pop_front() {
                let name = match (p.dst, p.port) {
                    (HUB, MQTT_BROKER_PORT) => "hub.broker_ingress",
                    (HUB, _) => "hub.client_ingress",
                    _ => "edge.client_ingress",
                };
                (p.dst, name, p.cause, p.trace, Call::Packet(p))
            } else if let Some(Reverse((at, _, index, tag))) = world.timers.pop() {
                now_ns = now_ns.max(at);
                if now_ns > warmup_ns + measure_ns {
                    break;
                }
                // Whether an edge timer is a sensor tick shows only after
                // the call (`samples_taken` moves); until then it carries
                // the next tick's trace id.
                let (name, trace) = if index == EDGE {
                    ("edge.on_timer", ticks + 1)
                } else {
                    ("hub.poll", ticks)
                };
                (index, name, None, trace, Call::Timer(tag))
            } else {
                break;
            };
        if measured_from.is_none() && now_ns >= warmup_ns {
            let items = world.counters.get("predicted").copied().unwrap_or(0);
            measured_from = Some((items, Instant::now()));
        }

        let span_index = record.then_some(spans.len() as u32);
        let mut env = StepEnv {
            node: index,
            now_ns,
            world: &mut world,
            span: span_index,
            trace,
        };
        let sampled = |w: &World| w.counters.get("samples_taken").copied().unwrap_or(0);
        let sampled_before = sampled(env.world);
        let start = record.then(Instant::now);
        match call {
            Call::Timer(tag) => node[index].on_timer(&mut env, tag),
            Call::Packet(p) => {
                let src = if p.src == EDGE { sut::EDGE } else { sut::HUB };
                node[index].on_packet(&mut env, src, p.port, &p.payload);
            }
        }
        let end = record.then(Instant::now);
        let name = match name {
            "edge.on_timer" if sampled(&world) > sampled_before => {
                ticks += 1;
                name
            }
            "edge.on_timer" => "edge.poll",
            other => other,
        };
        if let (Some(start), Some(end)) = (start, end) {
            let span = Span {
                name,
                start_ns: (start - epoch).as_nanos() as u64,
                end_ns: (end - epoch).as_nanos() as u64,
                cause,
                trace,
            };
            if measured_from.is_some() {
                *sums.entry(name).or_insert(0) += span.end_ns - span.start_ns;
            }
            spans.push(span);
        }
    }

    let predicted = world.counters.get("predicted").copied().unwrap_or(0);
    let (items_before, since) = measured_from.unwrap_or((predicted, Instant::now()));
    let [_, hub] = node;
    Stepped {
        spans,
        wall_s: since.elapsed().as_secs_f64(),
        sums,
        items: predicted - items_before,
        hub,
        edge_frames: world.edge_frames,
    }
}

enum Call {
    Timer(u64),
    Packet(PendingPacket),
}

/// `service_us_per_item` of an `_rt` workload: wall time per item of
/// stepping both nodes on one thread with nothing else running (no span
/// recording). The fastest of several short repetitions: interference
/// from the host only ever adds time.
pub fn service_us_per_item(nodes: &RtNodes) -> f64 {
    (0..SERVICE_REPEATS)
        .map(|_| {
            let rep = step(nodes, SERVICE_SPAN, false);
            rep.wall_s * 1e6 / rep.items.max(1) as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Inputs the stepper captured, for the replay micro-measurements.
pub struct Captured {
    /// `(topic, payload)` of every PUBLISH the edge sent, in order.
    pub publishes: Vec<(String, Bytes)>,
    /// The same publishes as the MQTT frames that carried them.
    pub frames: Vec<Bytes>,
}

/// What the traced run adds to an `_rt` workload.
pub struct Trace {
    pub failures: Vec<String>,
    pub layers: Vec<(&'static str, f64)>,
    pub captured: Captured,
}

/// Steps the workload twice (spans off, spans on), checks the node's
/// predictions against a reference classifier and writes the span file.
pub fn run(workload: &str, nodes: &RtNodes, scratch: &Path) -> Trace {
    let plain = step(nodes, TRACE_SPAN, false);
    let traced = step(nodes, TRACE_SPAN, true);

    let items = traced.items.max(1) as f64;
    let us_per_item = |name: &str| traced.sums.get(name).copied().unwrap_or(0) as f64 / 1e3 / items;
    let sense = us_per_item("edge.on_timer");
    let route = us_per_item("hub.broker_ingress");
    let exec = us_per_item("hub.client_ingress");

    let mut failures = Vec::new();
    let captured = capture(&traced.edge_frames, &mut failures);
    check_predictions(workload, &traced.hub, &captured, &mut failures);

    let path = scratch.join(format!("{workload}.spans.jsonl"));
    if let Err(e) = write_spans(&path, &traced.spans) {
        failures.push(format!("cannot write {}: {e}", path.display()));
    }

    Trace {
        failures,
        layers: vec![
            ("core.node.sense_publish_us", sense),
            ("mqtt.broker.embedded_route_us", route),
            ("core.node.ingest_exec_us", exec),
            ("path.service_us_per_item", sense + route + exec),
            (
                "trace.overhead_pct",
                (traced.wall_s - plain.wall_s) / plain.wall_s * 100.0,
            ),
            ("trace.spans_recorded", traced.spans.len() as f64),
        ],
        captured,
    }
}

/// Decodes the edge's frames back into `(topic, payload)` publishes.
fn capture(frames: &[Bytes], failures: &mut Vec<String>) -> Captured {
    let mut decoder = StreamDecoder::new();
    let mut publishes = Vec::new();
    let mut kept = Vec::new();
    for frame in frames {
        decoder.feed(frame);
        loop {
            match decoder.next_packet() {
                Ok(Some(Packet::Publish(p))) => {
                    publishes.push((p.topic.as_str().to_owned(), p.payload));
                    kept.push(frame.clone());
                }
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(e) => {
                    failures.push(format!("stepper: edge sent an undecodable frame: {e}"));
                    break;
                }
            }
        }
    }
    Captured {
        publishes,
        frames: kept,
    }
}

/// The tuples the terminal stage saw, rebuilt from the captured
/// publishes: joined by sequence number on `paper_flow_rt` (the node's
/// `Join` merges one item per source), one per sample on
/// `chain_batched_rt` (the `Custom` stages pass items through in order).
pub fn terminal_tuples(workload: &str, captured: &Captured) -> Vec<ifot_ml::feature::Datum> {
    let mut tuples = Vec::new();
    let mut pending: HashMap<u64, Vec<ifot_core::flow::FlowItem>> = HashMap::new();
    for (topic, payload) in &captured.publishes {
        let Ok(items) = ifot_core::wire::decode_items(topic, payload) else {
            continue;
        };
        for item in items {
            if workload != "paper_flow_rt" {
                tuples.push(item.datum);
                continue;
            }
            let seq = item.seq;
            let parts = pending.entry(seq).or_default();
            parts.push(item);
            if parts.len() == sut::PAPER_SENSORS {
                let mut parts = pending.remove(&seq).expect("just filled");
                parts.sort_by(|a, b| a.topic.cmp(&b.topic));
                let mut datum = ifot_ml::feature::Datum::new();
                for part in &parts {
                    for (k, v) in part.datum.iter() {
                        datum.set(k.to_owned(), v);
                    }
                }
                tuples.push(datum);
            }
        }
    }
    tuples
}

/// The node's predictions must equal those of a reference classifier fed
/// the same tuples in the same order.
fn check_predictions(
    workload: &str,
    hub: &MiddlewareNode,
    captured: &Captured,
    failures: &mut Vec<String>,
) {
    let reference = AnyClassifier::by_name("pa");
    let expected: Vec<Option<String>> = terminal_tuples(workload, captured)
        .iter()
        .map(|datum| reference.classify(&datum.to_vector(DEFAULT_DIMENSIONS)))
        .collect();
    let got: Vec<&Option<String>> = hub
        .events()
        .iter()
        .filter_map(|e| match e {
            NodeEvent::Prediction { label, .. } => Some(label),
            _ => None,
        })
        .collect();
    // The last tuples may still sit in a publish-side batch when the
    // stepper stops; everything predicted must match the reference.
    if got.is_empty() || got.len() > expected.len() {
        failures.push(format!(
            "stepper: {} predictions for {} captured tuples",
            got.len(),
            expected.len()
        ));
        return;
    }
    if let Some(at) = got.iter().zip(&expected).position(|(g, e)| *g != e) {
        failures.push(format!(
            "stepper: prediction {at} is {:?}, reference says {:?}",
            got[at], expected[at]
        ));
    }
}

fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (index, s) in spans.iter().enumerate() {
        let cause = s.cause.map_or("null".to_owned(), |c| c.to_string());
        writeln!(
            out,
            "{{\"span\": {index}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"cause\": {cause}, \"trace\": {}}}",
            s.name, s.start_ns, s.end_ns, s.trace
        )?;
    }
    out.flush()
}
