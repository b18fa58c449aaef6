//! Real-time thread runtime: runs middleware nodes on OS threads with
//! `std::sync::mpsc` channels as the transport.
//!
//! This is the deployment runtime used by the runnable examples: every
//! node is one thread, packets travel through unbounded channels, timers
//! come from a per-node heap driven by `recv_timeout`. The node logic is
//! byte-for-byte the same as on the simulator; only the [`NodeEnv`]
//! implementation differs. Optionally, a CPU speed factor turns declared
//! work into real `thread::sleep`s to emulate constrained devices.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use bytes::Bytes;

use ifot_netsim::metrics::Metrics;
use ifot_netsim::time::SimDuration;

use crate::config::NodeConfig;
use crate::env::NodeEnv;
use crate::executor::pool::{WorkerPool, WorkerRuntime};
use crate::node::MiddlewareNode;
use crate::operators::OpOutput;

enum ThreadMsg {
    Packet {
        // Shared: every packet a node sends names it by bumping a count.
        src: Arc<str>,
        port: u16,
        // Reference-counted: a broker fan-out to N local subscribers
        // sends the same buffer N times without copying it.
        payload: Bytes,
    },
    /// Outputs of one executor stage that its worker thread did not hand
    /// to the next stage itself (egress, fallbacks); routed and published
    /// by the node thread.
    StageOutputs {
        op_index: usize,
        outputs: Vec<OpOutput>,
    },
    Stop,
}

/// A cluster of middleware nodes to run on threads.
#[derive(Default)]
pub struct ClusterBuilder {
    nodes: Vec<(NodeConfig, Option<f64>)>,
}

impl std::fmt::Debug for ClusterBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterBuilder")
            .field("nodes", &self.nodes.len())
            .finish()
    }
}

impl ClusterBuilder {
    /// Creates an empty cluster.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node running at full host speed.
    pub fn node(mut self, config: NodeConfig) -> Self {
        self.nodes.push((config, None));
        self
    }

    /// Adds a node whose declared CPU work is slept out at the given
    /// speed factor (1.0 = Raspberry Pi 2 pace), emulating a constrained
    /// device in real time.
    pub fn node_with_speed(mut self, config: NodeConfig, speed: f64) -> Self {
        self.nodes.push((config, Some(speed)));
        self
    }

    /// Starts every node thread.
    ///
    /// # Panics
    ///
    /// Panics if two nodes share a name.
    pub fn start(self) -> RunningCluster {
        let stop_plan = stop_plan(&self.nodes);
        let mut senders: HashMap<String, Sender<ThreadMsg>> = HashMap::new();
        let mut receivers: Vec<(NodeConfig, Option<f64>, Receiver<ThreadMsg>)> = Vec::new();
        for (config, speed) in self.nodes {
            let (tx, rx) = channel();
            assert!(
                senders.insert(config.name.clone(), tx).is_none(),
                "duplicate node name {:?}",
                config.name
            );
            receivers.push((config, speed, rx));
        }
        let senders = Arc::new(senders);
        let metrics = Arc::new(Mutex::new(Metrics::new()));
        let epoch = Instant::now();

        let handles = receivers
            .into_iter()
            .map(|(config, speed, rx)| {
                let senders = Arc::clone(&senders);
                let metrics = Arc::clone(&metrics);
                let name = config.name.clone();
                let handle = std::thread::Builder::new()
                    .name(format!("ifot-{name}"))
                    .spawn(move || run_node(config, speed, rx, senders, metrics, epoch))
                    .expect("spawning a node thread succeeds");
                (name, handle)
            })
            .collect();

        RunningCluster {
            senders,
            handles,
            metrics,
            epoch,
            stop_plan,
        }
    }
}

/// Computes the shutdown order that loses no in-flight flow: publishers
/// first (topologically, so upstream stages drain into downstream ones),
/// then broker nodes (their FIFO inbox forwards everything already
/// published), then pure sinks (their inbox holds every forward by the
/// time Stop is enqueued behind it).
fn stop_plan(nodes: &[(NodeConfig, Option<f64>)]) -> Vec<String> {
    use ifot_mqtt::topic::{TopicFilter, TopicName};
    struct Info {
        name: String,
        outputs: Vec<String>,
        inputs: Vec<String>,
        broker: bool,
    }
    let infos: Vec<Info> = nodes
        .iter()
        .map(|(c, _)| {
            let mut outputs: Vec<String> = c.sensors.iter().map(|s| s.topic.clone()).collect();
            for op in &c.operators {
                if let (Some(out), true) = (&op.output, op.publish_output) {
                    outputs.push(out.clone());
                }
            }
            Info {
                name: c.name.clone(),
                outputs,
                inputs: c.subscription_filters(),
                broker: c.run_broker,
            }
        })
        .collect();
    let feeds = |a: &Info, b: &Info| -> bool {
        a.outputs.iter().any(|topic| {
            TopicName::new(topic)
                .map(|t| {
                    b.inputs.iter().any(|f| {
                        TopicFilter::new(f.clone())
                            .map(|f| f.matches(&t))
                            .unwrap_or(false)
                    })
                })
                .unwrap_or(false)
        })
    };
    // Phase 1: non-broker publishers, Kahn's algorithm over the
    // output-to-subscription edges; registration order breaks ties and
    // closes MIX-style cycles.
    let publishers: Vec<usize> = infos
        .iter()
        .enumerate()
        .filter(|(_, i)| !i.broker && !i.outputs.is_empty())
        .map(|(k, _)| k)
        .collect();
    let m = publishers.len();
    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); m];
    let mut indeg = vec![0usize; m];
    for (ai, &a) in publishers.iter().enumerate() {
        for (bi, &b) in publishers.iter().enumerate() {
            if ai != bi && feeds(&infos[a], &infos[b]) {
                edges[ai].push(bi);
                indeg[bi] += 1;
            }
        }
    }
    let mut order: Vec<usize> = Vec::with_capacity(infos.len());
    let mut ready: VecDeque<usize> = (0..m).filter(|&i| indeg[i] == 0).collect();
    let mut done = vec![false; m];
    while let Some(i) = ready.pop_front() {
        if done[i] {
            continue;
        }
        done[i] = true;
        order.push(publishers[i]);
        for &j in &edges[i] {
            indeg[j] = indeg[j].saturating_sub(1);
            if indeg[j] == 0 && !done[j] {
                ready.push_back(j);
            }
        }
    }
    for i in 0..m {
        if !done[i] {
            order.push(publishers[i]);
        }
    }
    // Phase 2: broker nodes. Phase 3: pure sinks.
    for (k, info) in infos.iter().enumerate() {
        if info.broker {
            order.push(k);
        }
    }
    for (k, info) in infos.iter().enumerate() {
        if !info.broker && info.outputs.is_empty() {
            order.push(k);
        }
    }
    order.into_iter().map(|k| infos[k].name.clone()).collect()
}

/// Handle to a running cluster.
pub struct RunningCluster {
    senders: Arc<HashMap<String, Sender<ThreadMsg>>>,
    handles: Vec<(String, std::thread::JoinHandle<MiddlewareNode>)>,
    metrics: Arc<Mutex<Metrics>>,
    epoch: Instant,
    stop_plan: Vec<String>,
}

impl std::fmt::Debug for RunningCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunningCluster")
            .field("nodes", &self.handles.len())
            .finish()
    }
}

impl RunningCluster {
    /// Nanoseconds since the cluster started.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A snapshot of the shared metrics hub.
    pub fn metrics_snapshot(&self) -> Metrics {
        self.metrics
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Injects a packet into a node from outside the cluster.
    pub fn inject(&self, dst: &str, src: &str, port: u16, payload: impl Into<Bytes>) -> bool {
        match self.senders.get(dst) {
            Some(tx) => tx
                .send(ThreadMsg::Packet {
                    src: Arc::from(src),
                    port,
                    payload: payload.into(),
                })
                .is_ok(),
            None => false,
        }
    }

    /// Runs the cluster for `duration` of wall time, then stops it.
    pub fn run_for(self, duration: Duration) -> ClusterReport {
        std::thread::sleep(duration);
        self.stop()
    }

    /// Stops every node and collects the final state.
    ///
    /// Nodes stop in dependency order (publishers, then brokers, then
    /// sinks), each joined before the next Stop is sent: the FIFO
    /// channels then guarantee every packet enqueued upstream is
    /// processed downstream before its Stop, so the final in-flight
    /// samples are counted instead of dropped.
    pub fn stop(self) -> ClusterReport {
        let registration: Vec<String> = self.handles.iter().map(|(n, _)| n.clone()).collect();
        let mut handles: HashMap<String, std::thread::JoinHandle<MiddlewareNode>> =
            self.handles.into_iter().collect();
        let mut stopped: HashMap<String, MiddlewareNode> = HashMap::new();
        let plan: Vec<String> = if self.stop_plan.len() == registration.len() {
            self.stop_plan.clone()
        } else {
            registration.clone()
        };
        for name in plan.iter().chain(registration.iter()) {
            let Some(handle) = handles.remove(name) else {
                continue;
            };
            if let Some(tx) = self.senders.get(name) {
                let _ = tx.send(ThreadMsg::Stop);
            }
            match handle.join() {
                Ok(node) => {
                    stopped.insert(name.clone(), node);
                }
                Err(_) => eprintln!("node thread {name} panicked"),
            }
        }
        let nodes = registration
            .iter()
            .filter_map(|name| stopped.remove(name))
            .collect();
        let metrics = self
            .metrics
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        ClusterReport { metrics, nodes }
    }
}

/// Final state of a stopped cluster.
#[derive(Debug)]
pub struct ClusterReport {
    /// The shared metrics hub contents.
    pub metrics: Metrics,
    /// The middleware nodes in registration order.
    pub nodes: Vec<MiddlewareNode>,
}

impl ClusterReport {
    /// The node with the given name.
    pub fn node(&self, name: &str) -> Option<&MiddlewareNode> {
        self.nodes.iter().find(|n| n.name() == name)
    }
}

struct ThreadEnv<'a> {
    now_ns: u64,
    name: &'a Arc<str>,
    senders: &'a HashMap<String, Sender<ThreadMsg>>,
    metrics: &'a Mutex<Metrics>,
    timers: &'a mut BinaryHeap<Reverse<(u64, u64)>>,
    speed: Option<f64>,
    rng_state: u64,
}

impl NodeEnv for ThreadEnv<'_> {
    fn now_ns(&self) -> u64 {
        self.now_ns
    }

    fn send(&mut self, dst: &str, port: u16, payload: Bytes) {
        match self.senders.get(dst) {
            Some(tx) => {
                let _ = tx.send(ThreadMsg::Packet {
                    src: Arc::clone(self.name),
                    port,
                    payload,
                });
            }
            None => self.incr("send_unknown_node"),
        }
    }

    fn set_timer_after_ns(&mut self, delay_ns: u64, tag: u64) {
        self.timers.push(Reverse((self.now_ns + delay_ns, tag)));
    }

    fn set_timer_at_ns(&mut self, at_ns: u64, tag: u64) {
        self.timers.push(Reverse((at_ns.max(self.now_ns), tag)));
    }

    fn consume_ref_ms(&mut self, ms: f64) {
        if let Some(speed) = self.speed {
            let real_ms = ms / speed.max(1e-9);
            std::thread::sleep(Duration::from_secs_f64(real_ms / 1_000.0));
        }
    }

    fn record_latency_since_ns(&mut self, name: &str, since_ns: u64) {
        let d = self.now_ns.saturating_sub(since_ns);
        self.metrics
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .record_latency(name, SimDuration::from_nanos(d));
    }

    fn incr(&mut self, counter: &str) {
        self.metrics
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .incr(counter);
    }

    fn add(&mut self, counter: &str, delta: u64) {
        self.metrics
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .add(counter, delta);
    }

    fn rand_u64(&mut self) -> u64 {
        // SplitMix64 seeded from the node name at construction.
        self.rng_state = self.rng_state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.rng_state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }
}

fn run_node(
    config: NodeConfig,
    speed: Option<f64>,
    rx: Receiver<ThreadMsg>,
    senders: Arc<HashMap<String, Sender<ThreadMsg>>>,
    metrics: Arc<Mutex<Metrics>>,
    epoch: Instant,
) -> MiddlewareNode {
    let name: Arc<str> = Arc::from(config.name.as_str());
    let seed = name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x1000_0000_01b3)
    });
    let mut node = MiddlewareNode::new(config);
    let mut timers: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
    let mut rng_state = seed;

    // Pooled executor mode: workers drain the stage mailboxes and route
    // the intra-node hops while this thread keeps routing the rest;
    // what they cannot deliver themselves comes back through our own
    // channel as `StageOutputs`.
    let workers = node.config().executor.workers;
    let mut pool = if workers > 0 && !node.executor_cells().is_empty() {
        node.engage_pool();
        let own_tx = senders
            .get(&*name)
            .cloned()
            .expect("own sender is registered");
        let deliver = Arc::new(move |op_index: usize, outputs: Vec<OpOutput>| {
            let _ = own_tx.send(ThreadMsg::StageOutputs { op_index, outputs });
        });
        Some(WorkerPool::spawn(
            &name,
            workers,
            node.executor_cells(),
            deliver,
            node.worker_handoff(),
            WorkerRuntime {
                epoch,
                metrics: Arc::clone(&metrics),
                speed,
                seed,
            },
        ))
    } else {
        None
    };

    macro_rules! env {
        () => {{
            ThreadEnv {
                now_ns: epoch.elapsed().as_nanos() as u64,
                name: &name,
                senders: &senders,
                metrics: &metrics,
                timers: &mut timers,
                speed,
                rng_state,
            }
        }};
    }
    // Handles one inbox message (`Stop` is the loop's business). Routing
    // may have enqueued new stage work, and the pool only runs when told.
    macro_rules! handle {
        ($msg:expr) => {{
            let mut env = env!();
            match $msg {
                ThreadMsg::Packet { src, port, payload } => {
                    node.on_packet(&mut env, &src, port, &payload)
                }
                ThreadMsg::StageOutputs { op_index, outputs } => {
                    node.handle_outputs(&mut env, op_index, outputs)
                }
                ThreadMsg::Stop => {}
            }
            rng_state = env.rng_state;
            if let Some(pool) = pool.as_ref() {
                pool.notify_work();
            }
        }};
    }

    let mut env0 = env!();
    node.on_start(&mut env0);
    rng_state = env0.rng_state;

    loop {
        let now = epoch.elapsed().as_nanos() as u64;
        // Fire due timers.
        while let Some(Reverse((at, _))) = timers.peek().copied() {
            if at > now {
                break;
            }
            let Reverse((_, tag)) = timers.pop().expect("peeked");
            let mut env = env!();
            node.on_timer(&mut env, tag);
            rng_state = env.rng_state;
            if let Some(pool) = pool.as_ref() {
                pool.notify_work();
            }
        }
        // Wait for the next message or timer deadline.
        let timeout = match timers.peek() {
            Some(Reverse((at, _))) => {
                let now = epoch.elapsed().as_nanos() as u64;
                Duration::from_nanos(at.saturating_sub(now))
            }
            None => Duration::from_millis(50),
        };
        match rx.recv_timeout(timeout) {
            Ok(ThreadMsg::Stop) | Err(RecvTimeoutError::Disconnected) => break,
            Ok(msg) => handle!(msg),
            Err(RecvTimeoutError::Timeout) => {}
        }
    }

    // Shutdown drain, to a fixpoint. The phased stop joined every
    // upstream producer before sending our Stop, so what is still in the
    // inbox is this node's own traffic: a colocated broker's forwards to
    // the node's own client — and the client's publishes to that broker
    // — land *behind* the Stop. Handling one can enqueue the next, as
    // can every flush below, so repeat until nothing moves.
    let cells = pool.as_ref().map(|_| node.executor_cells());
    for _pass in 0..10_000 {
        let mut progressed = false;
        while let Ok(msg) = rx.try_recv() {
            progressed = true;
            handle!(msg);
        }
        let mut env = env!();
        // Deliver coalesced stage ingress first (it can emit new
        // publishes), then the lingering publish micro-batches, so
        // coalesced tail samples reach the broker (it stops after us in
        // the phased shutdown).
        progressed |= node.has_stage_backlog();
        node.flush_stage_coalescers(&mut env);
        node.flush_pending_batches(&mut env);
        rng_state = env.rng_state;
        if progressed {
            continue;
        }
        // The inbox is quiet: stop the workers (once) and run what they
        // left queued — backlogged mailbox items, bounded by the
        // per-stage mailboxes — inline on this thread. Without this the
        // final in-flight samples of a run disappear from the books.
        if let Some(pool) = pool.take() {
            pool.stop();
            node.disengage_pool();
        }
        for (index, cell) in cells.iter().flatten().enumerate() {
            let mut env = env!();
            let stepped = cell.step_pooled(&mut env);
            rng_state = env.rng_state;
            if let Some(outputs) = stepped {
                progressed = true;
                let mut env = env!();
                node.handle_outputs(&mut env, index, outputs);
                rng_state = env.rng_state;
            }
        }
        if !progressed {
            // The flushes above may have published to our own broker.
            match rx.try_recv() {
                Ok(msg) => handle!(msg),
                Err(_) => break,
            }
        }
    }
    node
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{OperatorKind, OperatorSpec, SensorSpec};
    use ifot_sensors::sample::SensorKind;

    /// Full middleware pipeline on real threads: sensor -> broker ->
    /// anomaly scorer.
    #[test]
    fn thread_cluster_end_to_end() {
        let cluster = ClusterBuilder::new()
            .node(NodeConfig::new("broker").with_broker())
            .node(
                NodeConfig::new("sensor-node")
                    .with_broker_node("broker")
                    .with_sensor(SensorSpec::new(SensorKind::Temperature, 1, 50.0, 7)),
            )
            .node(
                NodeConfig::new("analysis")
                    .with_broker_node("broker")
                    .with_operator(OperatorSpec::sink(
                        "score",
                        OperatorKind::Anomaly {
                            detector: "zscore".into(),
                            threshold: 3.0,
                        },
                        vec!["sensor/#".into()],
                    )),
            )
            .start();
        let report = cluster.run_for(Duration::from_millis(900));
        assert!(report.metrics.counter("published") > 5);
        assert!(report.metrics.counter("anomaly_scored") > 5);
        let analysis = report.node("analysis").expect("analysis node present");
        assert!(analysis.is_connected());
        let lat = report.metrics.latency_summary("sensing_to_anomaly");
        assert!(lat.count > 0);
        assert!(
            lat.mean_ms < 200.0,
            "thread pipeline too slow: {}",
            lat.mean_ms
        );
    }

    /// The embedded broker's sharded routing layer serves a real
    /// multi-node cluster: several publisher nodes (whose client-id
    /// hashes spread across shards) must reach a subscriber on a
    /// different shard, proving cross-shard forwards flow through the
    /// thread runtime.
    #[test]
    fn thread_cluster_routes_across_broker_shards() {
        let mut builder = ClusterBuilder::new()
            .node(
                NodeConfig::new("broker")
                    .with_broker()
                    .with_broker_shards(4),
            )
            .node(
                NodeConfig::new("analysis")
                    .with_broker_node("broker")
                    .with_operator(OperatorSpec::sink(
                        "score",
                        OperatorKind::Anomaly {
                            detector: "zscore".into(),
                            threshold: 3.0,
                        },
                        vec!["sensor/#".into()],
                    )),
            );
        // Four sensor nodes: with FNV shard assignment over four shards
        // at least two land on a shard other than the analysis node's.
        for i in 0..4u16 {
            builder = builder.node(
                NodeConfig::new(format!("sensor-{i}"))
                    .with_broker_node("broker")
                    .with_sensor(SensorSpec::new(SensorKind::Temperature, i, 50.0, 7)),
            );
        }
        let cluster = builder.start();
        let report = cluster.run_for(Duration::from_millis(900));
        assert!(report.metrics.counter("published") > 5);
        assert!(
            report.metrics.counter("anomaly_scored") > 5,
            "cross-shard routed samples must reach the analysis operator"
        );
        let broker = report.node("broker").expect("broker node present");
        let described = broker.describe_classes().join("\n");
        assert!(
            described.contains("shards=4"),
            "monitor line must surface the shard count: {described}"
        );
        assert_eq!(
            broker.broker_stats().expect("stats").clients_connected,
            5,
            "analysis + four sensor nodes stay connected"
        );
    }

    /// A node that runs the broker *and* consumes from it forwards to its
    /// own client through its own inbox, so at shutdown those forwards
    /// sit behind the Stop message. None may be lost: every sample the
    /// edge published is trained on.
    #[test]
    fn colocated_hub_drains_its_own_tail_on_stop() {
        let mut edge = NodeConfig::new("edge")
            .with_broker_node("hub")
            // A sample taken before the session is up is dropped, not
            // delivered uncounted later.
            .with_offline_queue(0);
        for d in 0..3u16 {
            edge = edge.with_sensor(SensorSpec::new(SensorKind::Sound, d + 1, 50.0, 3));
        }
        let hub = NodeConfig::new("hub")
            .with_broker()
            .with_broker_node("hub")
            .with_operator(OperatorSpec::sink(
                "train",
                OperatorKind::Train {
                    algorithm: "pa".into(),
                    mix_interval_ms: 0,
                },
                vec!["sensor/#".into()],
            ));
        // The hub runs slowed — ~11 ms a train call against ~7 ms between
        // arrivals — so a backlog is certain to sit in its inbox when the
        // edge has stopped and the hub's own Stop is sent.
        let cluster = ClusterBuilder::new()
            .node_with_speed(hub, 4.0)
            .node(edge)
            .start();
        let report = cluster.run_for(Duration::from_millis(400));
        let published = report.metrics.counter("flow_items_published");
        assert!(published > 20, "the edge must have published: {published}");
        assert_eq!(report.metrics.counter("trained"), published);
    }

    /// An operator that panics on one item takes its worker thread down
    /// with the stage lock held. Locks do not stay poisoned here: the
    /// surviving worker keeps stepping both stages, nothing else is lost,
    /// and `stop` joins the node and returns it.
    #[test]
    fn panicking_pooled_operator_wedges_nothing() {
        let sink = |operator: &str| {
            OperatorSpec::sink(
                operator,
                OperatorKind::Custom {
                    operator: operator.into(),
                },
                vec!["sensor/#".into()],
            )
        };
        let edge = NodeConfig::new("edge")
            .with_broker_node("hub")
            .with_offline_queue(0)
            .with_sensor(SensorSpec::new(SensorKind::Sound, 1, 100.0, 3));
        let hub = NodeConfig::new("hub")
            .with_broker()
            .with_broker_node("hub")
            .with_workers(2)
            .with_operator(sink("faulty"))
            .with_operator(sink("healthy"));
        let cluster = ClusterBuilder::new().node(hub).node(edge).start();
        let report = cluster.run_for(Duration::from_millis(400));
        let published = report.metrics.counter("flow_items_published");
        assert!(published > 10, "the edge must have published: {published}");
        assert_eq!(report.nodes.len(), 2, "the hub's thread must survive");
        // Both stages took every item, the faulty one's third included
        // (that call is the one that panicked).
        let stats = report.nodes[0].stage_stats();
        assert_eq!(stats[0].processed, published, "faulty stage kept going");
        assert_eq!(stats[1].processed, published, "healthy stage drained");
    }

    #[test]
    fn inject_reaches_a_node() {
        let cluster = ClusterBuilder::new()
            .node(NodeConfig::new("broker").with_broker())
            .start();
        assert!(cluster.inject(
            "broker",
            "outsider",
            crate::node::MQTT_BROKER_PORT,
            ifot_mqtt::codec::encode(&ifot_mqtt::packet::Packet::Connect(
                ifot_mqtt::packet::Connect::new("outsider")
            )),
        ));
        assert!(!cluster.inject("ghost", "x", 1, Bytes::new()));
        let report = cluster.run_for(Duration::from_millis(200));
        let stats = report
            .node("broker")
            .expect("broker")
            .broker_stats()
            .expect("stats");
        assert_eq!(stats.clients_connected, 1);
    }

    /// A sensor node whose broker never answers buffers samples in the
    /// offline queue instead of dropping them (thread runtime wiring of
    /// the resilience layer).
    #[test]
    fn offline_samples_are_buffered_not_dropped() {
        let cluster = ClusterBuilder::new()
            .node(
                NodeConfig::new("lone-sensor")
                    .with_broker_node("void")
                    .with_sensor(SensorSpec::new(SensorKind::Temperature, 1, 50.0, 7))
                    .with_offline_queue(8),
            )
            .start();
        let report = cluster.run_for(Duration::from_millis(500));
        assert_eq!(report.metrics.counter("published"), 0);
        assert_eq!(report.metrics.counter("samples_dropped_unconnected"), 0);
        assert!(report.metrics.counter("offline_buffered") > 0);
        let node = report.node("lone-sensor").expect("node present");
        let r = node.resilience();
        assert!(r.offline_buffered > 0, "no samples buffered: {r:?}");
        assert_eq!(r.offline_queued, 8, "queue should sit at its bound");
        assert!(r.offline_dropped > 0, "oldest-drop policy never engaged");
        assert_eq!(r.offline_flushed, 0);
    }

    #[test]
    fn simulated_speed_slows_processing() {
        // With speed emulation the declared train cost (~40 ms) is slept
        // out, so a 300 ms run trains only a handful of times.
        let cluster = ClusterBuilder::new()
            .node(NodeConfig::new("broker").with_broker())
            .node(
                NodeConfig::new("s")
                    .with_broker_node("broker")
                    .with_sensor(SensorSpec::new(SensorKind::Sound, 1, 100.0, 3)),
            )
            .node_with_speed(
                NodeConfig::new("t")
                    .with_broker_node("broker")
                    .with_operator(OperatorSpec::sink(
                        "train",
                        OperatorKind::Train {
                            algorithm: "pa".into(),
                            mix_interval_ms: 0,
                        },
                        vec!["sensor/#".into()],
                    )),
                1.0,
            )
            .start();
        let report = cluster.run_for(Duration::from_millis(700));
        let trained = report.metrics.counter("trained");
        assert!(trained > 0, "nothing trained");
        // 100 Hz offered, ~40 ms slept per train call: the trainer falls
        // behind and the backlog shows up as sensing-to-training latency.
        let lat = report.metrics.latency_summary("sensing_to_training");
        assert!(
            lat.mean_ms > 100.0,
            "speed emulation had no effect: mean latency {} ms",
            lat.mean_ms
        );
        assert!(lat.max_ms > lat.mean_ms);
    }
}
