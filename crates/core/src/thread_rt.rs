//! Real-time thread runtime: runs middleware nodes on OS threads, each
//! owning an inbox of the kind the pool's stage workers own.
//!
//! This is the deployment runtime used by the runnable examples: a node
//! thread swaps its whole inbox out once per wait and handles it in post
//! order; its timers come from a per-node heap whose next deadline bounds
//! the wait, and with none armed it parks until a post. The node logic is
//! byte-for-byte the same as on the simulator; only the [`NodeEnv`]
//! implementation differs. Optionally, a CPU speed factor turns declared
//! work into real `thread::sleep`s to emulate constrained devices.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bytes::Bytes;

use ifot_netsim::metrics::Metrics;
use ifot_netsim::rng::SimRng;
use ifot_netsim::time::SimDuration;

use crate::config::NodeConfig;
use crate::env::NodeEnv;
use crate::executor::pool::{lock, Inbox, Wait, WorkerPool, WorkerRuntime};
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

/// Every node's inbox, by node name.
type Inboxes = HashMap<String, Arc<Inbox<ThreadMsg>>>;

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
        let mut inboxes = Inboxes::new();
        for (config, _) in &self.nodes {
            let fresh = inboxes.insert(config.name.clone(), Arc::new(Inbox::new()));
            assert!(fresh.is_none(), "duplicate node name {:?}", config.name);
        }
        let inboxes = Arc::new(inboxes);
        let metrics = Arc::new(Mutex::new(Metrics::new()));
        let epoch = Instant::now();

        let handles = self
            .nodes
            .into_iter()
            .map(|(config, speed)| {
                let inboxes = Arc::clone(&inboxes);
                let metrics = Arc::clone(&metrics);
                let name = config.name.clone();
                let handle = std::thread::Builder::new()
                    .name(format!("ifot-{name}"))
                    .spawn(move || run_node(config, speed, &inboxes, metrics, epoch))
                    .expect("spawning a node thread succeeds");
                (name, handle)
            })
            .collect();

        RunningCluster {
            inboxes,
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
    let feeds = |a: &Info, b: &Info| {
        let mut topics = a.outputs.iter().filter_map(|t| TopicName::new(t).ok());
        topics.any(|t| {
            let mut filters = b.inputs.iter().map(|f| TopicFilter::new(f.clone()));
            filters.any(|f| f.is_ok_and(|f| f.matches(&t)))
        })
    };
    // Phase 1: non-broker publishers, Kahn's algorithm over the
    // output-to-subscription edges; registration order breaks ties and
    // closes MIX-style cycles (what a cycle holds back keeps its indegree).
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
    while let Some(i) = ready.pop_front() {
        order.push(publishers[i]);
        for &j in &edges[i] {
            indeg[j] -= 1;
            if indeg[j] == 0 {
                ready.push_back(j);
            }
        }
    }
    order.extend((0..m).filter(|&i| indeg[i] > 0).map(|i| publishers[i]));
    // Phase 2: broker nodes. Phase 3: pure sinks.
    let all = 0..infos.len();
    order.extend(all.clone().filter(|&k| infos[k].broker));
    order.extend(all.filter(|&k| !infos[k].broker && infos[k].outputs.is_empty()));
    order.into_iter().map(|k| infos[k].name.clone()).collect()
}

/// Handle to a running cluster.
pub struct RunningCluster {
    inboxes: Arc<Inboxes>,
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
        lock(&self.metrics).clone()
    }

    /// Injects a packet into a node from outside the cluster.
    pub fn inject(&self, dst: &str, src: &str, port: u16, payload: impl Into<Bytes>) -> bool {
        let running = self
            .handles
            .iter()
            .any(|(n, h)| n == dst && !h.is_finished());
        if running {
            let (src, payload) = (Arc::from(src), payload.into());
            self.inboxes[dst].post(ThreadMsg::Packet { src, port, payload });
        }
        running
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
    /// inboxes then guarantee every packet posted upstream is
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
            if let Some(inbox) = self.inboxes.get(name) {
                inbox.post(ThreadMsg::Stop);
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
        // Every thread that wrote to the hub has been joined: the report
        // takes its contents rather than a copy of every latency series.
        let metrics = std::mem::take(&mut *lock(&self.metrics));
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
    inboxes: &'a Inboxes,
    metrics: &'a Mutex<Metrics>,
    timers: &'a mut BinaryHeap<Reverse<(u64, u64)>>,
    speed: Option<f64>,
    rng: &'a mut SimRng,
}

impl NodeEnv for ThreadEnv<'_> {
    fn now_ns(&self) -> u64 {
        self.now_ns
    }

    fn send(&mut self, dst: &str, port: u16, payload: Bytes) {
        let src = Arc::clone(self.name);
        match self.inboxes.get(dst) {
            Some(inbox) => inbox.post(ThreadMsg::Packet { src, port, payload }),
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
        lock(self.metrics).record_latency(name, SimDuration::from_nanos(d));
    }

    fn incr(&mut self, counter: &str) {
        self.add(counter, 1);
    }

    fn add(&mut self, counter: &str, delta: u64) {
        lock(self.metrics).add(counter, delta);
    }

    fn rand_u64(&mut self) -> u64 {
        self.rng.next_u64()
    }
}

fn run_node(
    config: NodeConfig,
    speed: Option<f64>,
    inboxes: &Inboxes,
    metrics: Arc<Mutex<Metrics>>,
    epoch: Instant,
) -> MiddlewareNode {
    let name: Arc<str> = Arc::from(config.name.as_str());
    let own = &inboxes[&*name];
    let seed = name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x1000_0000_01b3)
    });
    let mut node = MiddlewareNode::new(config);
    let mut timers: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
    // Seeded from the node name.
    let mut rng = SimRng::seed_from(seed);

    // Pooled executor mode: the pool's workers own the stages and route
    // the intra-node hops while this thread keeps routing the rest;
    // what they cannot deliver themselves comes back through our own
    // inbox as `StageOutputs`.
    let workers = node.config().executor.workers;
    let mut pool = (workers > 0 && !node.executor().is_empty()).then(|| {
        let own = Arc::clone(own);
        let deliver = Arc::new(move |op_index: usize, outputs: Vec<OpOutput>| {
            own.post(ThreadMsg::StageOutputs { op_index, outputs });
        });
        WorkerPool::spawn(
            &name,
            workers,
            node.executor(),
            deliver,
            WorkerRuntime {
                epoch,
                metrics: Arc::clone(&metrics),
                speed,
                seed,
            },
        )
    });

    macro_rules! env {
        () => {{
            ThreadEnv {
                now_ns: epoch.elapsed().as_nanos() as u64,
                name: &name,
                inboxes,
                metrics: &metrics,
                timers: &mut timers,
                speed,
                rng: &mut rng,
            }
        }};
    }
    // Handles one inbox message (`Stop` is the loop's business).
    macro_rules! handle {
        ($msg:expr) => {{
            let mut env = env!();
            match $msg {
                ThreadMsg::Packet { src, port, payload } => {
                    node.on_packet(&mut env, &src, port, &payload)
                }
                ThreadMsg::StageOutputs {
                    op_index,
                    mut outputs,
                } => {
                    node.handle_outputs(&mut env, op_index, &mut outputs);
                    node.executor().give_back(outputs);
                }
                ThreadMsg::Stop => {}
            }
        }};
    }

    node.on_start(&mut env!());

    // The inbox as last swapped out; handled, it keeps its room.
    let mut batch: Vec<ThreadMsg> = Vec::new();
    let mut wakeups = 0u64;
    loop {
        let now = epoch.elapsed().as_nanos() as u64;
        // Fire due timers.
        while let Some(Reverse((at, _))) = timers.peek().copied() {
            if at > now {
                break;
            }
            let Reverse((_, tag)) = timers.pop().expect("peeked");
            node.on_timer(&mut env!(), tag);
        }
        // Wait for posts or the next timer deadline; with no timer armed,
        // park until a post.
        let wait = match timers.peek() {
            Some(Reverse((at, _))) => Wait::Until(epoch + Duration::from_nanos(*at)),
            None => Wait::Park,
        };
        own.take(&mut batch, wait);
        wakeups += 1;
        // A `Stop` and what is behind it stay in `batch`, for the drain.
        let stop = batch.iter().position(|msg| matches!(msg, ThreadMsg::Stop));
        for msg in batch.drain(..stop.unwrap_or(batch.len())) {
            handle!(msg);
        }
        if stop.is_some() {
            break;
        }
    }

    // Shutdown drain, to a fixpoint. The phased stop joined every
    // upstream producer before sending our Stop, so what is still in the
    // inbox is this node's own traffic: a colocated broker's forwards to
    // the node's own client — and the client's publishes to that broker
    // — land *behind* the Stop. Handling one can post the next, as can
    // every flush below, so repeat until nothing moves.
    for _pass in 0..10_000 {
        if batch.is_empty() {
            own.take(&mut batch, Wait::No);
        }
        let progressed = !batch.is_empty();
        for msg in batch.drain(..) {
            handle!(msg);
        }
        // Publish the lingering micro-batches, so coalesced tail samples
        // reach the broker (it stops after us in the phased shutdown).
        node.flush_pending_batches(&mut env!());
        if progressed {
            continue;
        }
        // The inbox is quiet: stop the workers (once), which hands their
        // stages back, and run what they left queued — backlogged mailbox
        // items, bounded by the per-stage mailboxes — inline on this
        // thread. Without this the final in-flight samples of a run
        // disappear from the books.
        if let Some(pool) = pool.take() {
            pool.stop(node.executor());
        }
        if !node.run_backlog(&mut env!()) {
            // The flushes above may have published to our own broker.
            own.take(&mut batch, Wait::No);
            if batch.is_empty() {
                break;
            }
        }
    }
    env!().add("node_thread_wakeups", wakeups);
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

    /// The embedded broker serves a real multi-node cluster: four
    /// publisher nodes reach one subscriber through it, and its monitor
    /// line counts all five clients.
    #[test]
    fn thread_cluster_routes_four_publishers_through_the_embedded_broker() {
        let mut builder = ClusterBuilder::new()
            .node(NodeConfig::new("broker").with_broker())
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
            "routed samples must reach the analysis operator"
        );
        let broker = report.node("broker").expect("broker node present");
        let stats = broker.broker_stats().expect("stats");
        let line = format!(
            "broker clients=5 in={} out={}",
            stats.messages_in, stats.messages_out
        );
        // The analysis node and the four sensor nodes stay connected.
        assert_eq!(broker.describe_classes()[0], line);
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

    /// An operator that panics on one item loses that item, not its
    /// stage: the stage's owner catches the panic and keeps stepping its
    /// stages, nothing else is lost, and `stop` joins the node and
    /// returns it.
    #[test]
    fn panicking_pooled_operator_wedges_nothing() {
        panicking_operator_wedges_nothing_on(2);
    }

    /// The same with one worker, which owns the panicking stage and its
    /// healthy neighbour: nobody else could step either.
    #[test]
    fn panicking_pooled_operator_wedges_nothing_on_one_worker() {
        panicking_operator_wedges_nothing_on(1);
    }

    fn panicking_operator_wedges_nothing_on(workers: usize) {
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
            .with_workers(workers)
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

    /// A node thread waits for a post or its next timer, however long it
    /// stays idle. A broker-only node, whose first timer (the broker poll)
    /// is 500 ms out, and a bare node, which arms none and parks with no
    /// timeout, left idle for 300 ms add no wake-up: each counts one, its
    /// Stop's. The 50 ms poll a node with no timer used to wait with woke
    /// the bare node six times in that span.
    #[test]
    fn idle_node_thread_makes_zero_periodic_wakeups() {
        let cluster = ClusterBuilder::new()
            .node(NodeConfig::new("broker").with_broker())
            .node(NodeConfig::new("bare"))
            .start();
        let report = cluster.run_for(Duration::from_millis(300));
        assert_eq!(report.metrics.counter("node_thread_wakeups"), 2);
    }

    /// Packets, a `Stop`, then more packets, all in one swap: the loop
    /// handles the packets before the `Stop` and exits, and the drain
    /// handles the ones behind it, in post order — every publish reaches
    /// the subscriber in the order it was posted.
    #[test]
    fn packets_behind_stop_in_one_swap_are_drained_in_post_order() {
        use crate::node::MQTT_BROKER_PORT;
        use ifot_mqtt::codec::{decode, encode};
        use ifot_mqtt::packet::{Connect, Packet, Publish, QoS, Subscribe, SubscribeFilter};
        use ifot_mqtt::topic::{TopicFilter, TopicName};

        let inboxes: Inboxes = ["broker", "sub", "pub"]
            .into_iter()
            .map(|name| (name.to_string(), Arc::new(Inbox::new())))
            .collect();
        let post = |src: &str, packet: Packet| {
            inboxes["broker"].post(ThreadMsg::Packet {
                src: Arc::from(src),
                port: MQTT_BROKER_PORT,
                payload: encode(&packet),
            });
        };
        post("sub", Packet::Connect(Connect::new("sub")));
        post(
            "sub",
            Packet::Subscribe(Subscribe {
                packet_id: 1,
                filters: vec![SubscribeFilter {
                    filter: TopicFilter::new("t").expect("valid filter"),
                    qos: QoS::AtMostOnce,
                }],
            }),
        );
        post("pub", Packet::Connect(Connect::new("pub")));
        let topic = TopicName::new("t").expect("valid topic");
        for seq in 0..8u8 {
            if seq == 5 {
                inboxes["broker"].post(ThreadMsg::Stop);
            }
            post(
                "pub",
                Packet::Publish(Publish::qos0(topic.clone(), vec![seq])),
            );
        }

        // On this thread, so every post above lands in the first swap.
        let metrics = Arc::new(Mutex::new(Metrics::new()));
        let config = NodeConfig::new("broker").with_broker();
        run_node(config, None, &inboxes, Arc::clone(&metrics), Instant::now());
        assert_eq!(lock(&metrics).counter("node_thread_wakeups"), 1);

        let mut sent = Vec::new();
        inboxes["sub"].take(&mut sent, Wait::No);
        let payloads: Vec<Vec<u8>> = sent
            .iter()
            .filter_map(|msg| match msg {
                ThreadMsg::Packet { payload, .. } => match decode(payload) {
                    Ok(Some((Packet::Publish(p), _))) => Some(p.payload.to_vec()),
                    _ => None,
                },
                _ => None,
            })
            .collect();
        let posted: Vec<Vec<u8>> = (0..8u8).map(|seq| vec![seq]).collect();
        assert_eq!(payloads, posted);
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
