//! The IFoT middleware node — the software running on every neuron
//! module.
//!
//! One [`MiddlewareNode`] hosts the classes of the paper's architecture
//! (Fig. 4) according to its [`NodeConfig`]:
//!
//! * **Sensor + Publish classes** — sample virtual devices on absolute
//!   timers and publish 32-byte samples over MQTT.
//! * **Broker class** — an embedded MQTT broker (when configured).
//! * **Subscribe class** — an MQTT client subscribing to the union of the
//!   operators' input filters and dispatching received flows.
//! * **Learning / Judging / Managing classes** — the analysis operators
//!   ([`crate::operators`]), including MIX model synchronization.
//! * **Actuator class** — locally hosted virtual actuators driven by
//!   `Actuate` operators.
//!
//! What a node hosts is decided by its config and fixed when it is
//! built: the operators compile into the executor graph once, in
//! [`MiddlewareNode::new`], and the subscription set follows from them.
//!
//! The node is runtime-agnostic: all side effects go through
//! [`crate::env::NodeEnv`], so the identical logic runs on the
//! deterministic simulator and on real threads.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use bytes::Bytes;

use ifot_mqtt::broker::{Action, Broker, BrokerStats};
use ifot_mqtt::client::{Client, ClientConfig, ClientEvent, ClientState};
use ifot_mqtt::codec::{encode, StreamDecoder};
use ifot_mqtt::packet::{Packet, Publish, QoS};
use ifot_mqtt::supervisor::{ReconnectConfig, ReconnectSupervisor, SupervisorAction};
use ifot_mqtt::topic::{TopicFilter, TopicName};
use ifot_sensors::actuator::{Actuator, AirConditioner, AlertSink, CeilingLight, Command};
use ifot_sensors::device::VirtualSensor;
use ifot_sensors::inject::AnomalyInjector;
use ifot_sensors::sample::{Sample, SAMPLE_WIRE_SIZE};

use crate::config::{ActuatorKindSpec, NodeConfig, ShedPolicy};
use crate::costs;
use crate::env::NodeEnv;
use crate::executor::handoff::plain_flow_topic;
use crate::executor::router;
use crate::executor::{ControlMsg, ExecutorGraph, OpTimer, StageStats, WorkItem};
use crate::flow::{topics, FlowItem, FlowMessage, Name};
use crate::operators::{ClassifierModel, MixEnvelope, NodeEvent, OpOutput};
use crate::wire::{
    encode_message_binary, encode_mix_binary, DecodedItems, FrameDecoder, FrameEncoder,
};

/// Port MQTT clients send to (broker ingress).
pub const MQTT_BROKER_PORT: u16 = 1883;
/// Port the broker sends to (client ingress).
pub const MQTT_CLIENT_PORT: u16 = 1884;

const TAG_KIND_SHIFT: u64 = 32;
const TAG_SENSOR: u64 = 1;
const TAG_CLIENT_POLL: u64 = 2;
const TAG_BROKER_POLL: u64 = 3;
const TAG_FLUSH: u64 = 4;
const TAG_MIX: u64 = 5;
const TAG_BATCH: u64 = 6;

const CLIENT_POLL_NS: u64 = 200_000_000;
const BROKER_POLL_NS: u64 = 500_000_000;

/// Largest seq gap tracked individually; wider gaps are counted in bulk.
/// Also the most missing seqs one stream's ledger holds at a time.
const SEQ_GAP_TRACK_MAX: u64 = 1024;

/// Events a node keeps: the newest `EVENT_LOG_CAP`, the oldest dropped
/// first (and counted, [`MiddlewareNode::events_evicted`]). flowbench's
/// traced stepper reads every prediction of its 1.2 s virtual run from
/// [`MiddlewareNode::events`] — at most 57 600 on `chain_batched_rt`'s
/// 48 kHz — and 2^16 is the smallest power of two above that. The log
/// then holds at most 2^16 × `size_of::<NodeEvent>()` ≈ 3 MiB plus label
/// strings, whatever the run length.
pub const EVENT_LOG_CAP: usize = 1 << 16;

/// Local hops one dispatch may follow before it is cut off as a loop (a
/// stage that, directly or through others, consumes its own output).
const LOCAL_HOP_LIMIT: usize = 64;

/// One pending local delivery. Plain flow emissions travel between
/// co-located stages as items; the special planes (and everything that
/// arrived from the broker) go through the codec.
#[derive(Debug)]
enum Hop {
    /// The topic is shared with the publish it arrived in.
    Wire(Name, Bytes),
    Items(DecodedItems),
}

fn tag(kind: u64, index: usize) -> u64 {
    (kind << TAG_KIND_SHIFT) | index as u64
}

/// Publish-side frame accounting: frames, coalesced items and wire
/// bytes, so benches can compare bytes-per-sample across codecs.
fn note_flow_frame(env: &mut dyn NodeEnv, items: u64, bytes: usize) {
    env.incr("flow_frames_published");
    env.add("flow_items_published", items);
    env.add("flow_bytes_published", bytes as u64);
}

/// The sensing timestamp a flow payload carries up front — a raw sample's
/// at its fixed offset, a binary frame's in its header — for the Fig. 9
/// stage probes, which sit on the per-sample path and decode nothing.
fn peek_origin_ns(payload: &[u8]) -> Option<u64> {
    if payload.len() == SAMPLE_WIRE_SIZE {
        Sample::peek_timestamp_ns(payload)
    } else {
        crate::wire::peek_first_origin(payload)
    }
}

/// The node's subscription filters, parsed once.
fn parse_filters(config: &NodeConfig) -> Vec<TopicFilter> {
    config
        .subscription_filters()
        .into_iter()
        .filter_map(|f| TopicFilter::new(f).ok())
        .collect()
}

#[derive(Debug)]
struct SensorRuntime {
    injector: AnomalyInjector,
    /// Validated once; every publish shares it.
    topic: TopicName,
    period_ns: u64,
    next_sample_ns: u64,
    published: u64,
    buffered: u64,
    dropped_unconnected: u64,
}

/// Per-topic ledger of sensor sequence numbers, distinguishing permanent
/// gaps (lost samples) from duplicates (redelivered samples). Used to
/// prove end-to-end loss/duplication properties under fault injection.
///
/// `missing` holds at most [`SEQ_GAP_TRACK_MAX`] seqs: past that, the
/// smallest are retired into `missing_overflow`, so steady loss on a
/// QoS 0 link costs no memory and [`SeqTracker::gaps`] is unchanged. A
/// late redelivery of a retired seq counts as a duplicate, as one inside
/// an overflowed gap always has.
#[derive(Debug, Default)]
struct SeqTracker {
    started: bool,
    highest: u64,
    missing: BTreeSet<u64>,
    missing_overflow: u64,
    duplicates: u64,
}

impl SeqTracker {
    /// Observes every item of a decoded frame (one ledger resolution
    /// per frame; the per-item work is just the sequence arithmetic).
    fn observe_batch<'a>(&mut self, items: impl IntoIterator<Item = &'a FlowItem>) {
        for item in items {
            self.observe(item.seq);
        }
    }

    fn observe(&mut self, seq: u64) {
        if !self.started {
            self.started = true;
            self.highest = seq;
            return;
        }
        if seq > self.highest {
            let gap = seq - self.highest - 1;
            if gap <= SEQ_GAP_TRACK_MAX {
                self.missing.extend(self.highest + 1..seq);
                while self.missing.len() as u64 > SEQ_GAP_TRACK_MAX {
                    self.missing.pop_first();
                    self.missing_overflow += 1;
                }
            } else {
                self.missing_overflow += gap;
            }
            self.highest = seq;
        } else if !self.missing.remove(&seq) {
            self.duplicates += 1;
        }
    }

    fn gaps(&self) -> u64 {
        self.missing.len() as u64 + self.missing_overflow
    }
}

/// Connection-resilience counters for one node, aggregated from the
/// reconnect supervisor, the client session, the offline publish queue
/// and the received-flow sequence ledger. Surfaced on the monitoring
/// screen by `ifot-mgmt`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResilienceStats {
    /// CONNECT attempts after the first (automatic reconnects).
    pub reconnects: u64,
    /// Times the transport was declared lost (all causes).
    pub transport_lost: u64,
    /// Transport losses declared by keep-alive dead-peer detection.
    pub dead_peer_detections: u64,
    /// Transport losses declared by CONNACK timeout.
    pub connect_timeouts: u64,
    /// Session resumes (CONNACK with `session_present`).
    pub session_resumes: u64,
    /// Payloads buffered while disconnected.
    pub offline_buffered: u64,
    /// Oldest payloads dropped because the offline queue was full.
    pub offline_dropped: u64,
    /// Buffered payloads re-published after reconnecting.
    pub offline_flushed: u64,
    /// Payloads currently waiting in the offline queue.
    pub offline_queued: usize,
    /// QoS 1/2 packets replayed from the session on resume.
    pub replayed_packets: u64,
    /// Received sensor samples that were redeliveries.
    pub seq_duplicates: u64,
    /// Sensor sequence numbers never received (permanent gaps).
    pub seq_gaps: u64,
}

#[derive(Debug)]
enum ActuatorDevice {
    Ac(AirConditioner),
    Light(CeilingLight),
    Alert(AlertSink),
}

impl ActuatorDevice {
    fn as_actuator_mut(&mut self) -> &mut dyn Actuator {
        match self {
            ActuatorDevice::Ac(a) => a,
            ActuatorDevice::Light(a) => a,
            ActuatorDevice::Alert(a) => a,
        }
    }

    fn describe(&self) -> String {
        match self {
            ActuatorDevice::Ac(a) => a.describe(),
            ActuatorDevice::Light(a) => a.describe(),
            ActuatorDevice::Alert(a) => a.describe(),
        }
    }
}

/// One topic's micro-batch.
#[derive(Debug)]
struct PendingBatch {
    /// The topic as the emitter names it.
    topic: String,
    /// The topic validated once, when the batch first opened; `None` for
    /// a name MQTT refuses, whose frames are counted as
    /// `publish_bad_topic`.
    name: Option<TopicName>,
    /// The messages waiting; emptied by a flush, which keeps its room.
    messages: Vec<FlowMessage>,
}

/// The middleware runtime of one neuron module. See the module docs.
#[derive(Debug)]
pub struct MiddlewareNode {
    config: NodeConfig,
    /// The node's name as the producer of the flow messages its sensors
    /// feed the micro-batcher.
    producer: Name,
    /// Embedded Broker class: one sans-I/O [`Broker`] with the default
    /// config, driven from this node's thread like module D's single
    /// Mosquitto (transports identify peer connections by node name).
    broker: Option<Broker<Arc<str>>>,
    /// Stream state of the embedded broker's peers. The key, a peer's
    /// node name in shared form, is also its connection key.
    broker_peers: BTreeMap<Arc<str>, StreamDecoder>,
    /// Ingress scratch, kept for its capacity: the packets of one
    /// transport chunk, what the client session makes of one of them
    /// (events for this node, packets for the wire), the actions they
    /// cause at the broker, the local hop queue, the outputs of the
    /// stages this thread runs.
    ingress_packets: Vec<Packet>,
    client_events: Vec<ClientEvent>,
    client_out: Vec<Packet>,
    /// Actions of the embedded broker, kept for its room between packets.
    broker_actions: Vec<Action<Arc<str>>>,
    hop_queue: VecDeque<Hop>,
    stage_out: Vec<OpOutput>,
    /// One routed group's work items, in route order.
    routed: Vec<(usize, WorkItem)>,
    client: Option<Client>,
    client_decoder: StreamDecoder,
    connected: bool,
    supervisor: ReconnectSupervisor,
    offline_queue: VecDeque<(TopicName, Bytes, bool)>,
    offline_buffered: u64,
    offline_dropped: u64,
    offline_flushed: u64,
    session_resumes: u64,
    seq_ledger: BTreeMap<String, SeqTracker>,
    sensors: Vec<SensorRuntime>,
    executor: ExecutorGraph,
    /// The node's parsed subscription filters (fixed with the config).
    subscribed: Vec<TopicFilter>,
    actuators: BTreeMap<u16, ActuatorDevice>,
    /// The newest [`EVENT_LOG_CAP`] events ([`Self::log_event`]).
    events: VecDeque<NodeEvent>,
    /// Events dropped from the front of the full ring.
    events_evicted: u64,
    directory: crate::discovery::FlowDirectory,
    broker_polls: u64,
    /// The `$SYS` publications of one broker poll, kept for their room.
    sys_publishes: Vec<Publish>,
    sys_view: BTreeMap<String, String>,
    /// Per-topic micro-batch accumulators, sorted by topic (publish
    /// coalescing; only populated when `batch_linger_ms > 0`). A topic's
    /// list is kept across flushes.
    pending_batches: Vec<PendingBatch>,
    /// Writes the micro-batches' frames, into a buffer it keeps.
    encoder: FrameEncoder,
    /// Reads the flow frames that arrive, keeping the last batch frame's
    /// key dictionary.
    decoder: FrameDecoder,
    batch_timer_armed: bool,
    /// Last published shed policy per stage, for `$SYS` transition
    /// notifications when adaptive escalation flips a stage.
    shed_policy_seen: Vec<ShedPolicy>,
    /// Monotone announcement revision: bumped every [`Self::announce`]
    /// so directories can reject stale retained announcements.
    announce_revision: u64,
}

impl MiddlewareNode {
    /// Instantiates the classes described by `config`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`NodeConfig::validate`].
    pub fn new(config: NodeConfig) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid node config for {:?}: {e}", config.name));
        let sensors = config
            .sensors
            .iter()
            .map(|spec| {
                let mut injector = AnomalyInjector::new(VirtualSensor::preset(
                    spec.kind,
                    spec.device_id,
                    spec.seed,
                ));
                for w in &spec.faults {
                    injector.schedule(*w);
                }
                let period_ns = ifot_recipe::model::sample_period_ns(spec.rate_hz)
                    .expect("validated with the config");
                SensorRuntime {
                    injector,
                    topic: TopicName::new(&spec.topic).expect("validated with the config"),
                    period_ns,
                    next_sample_ns: period_ns,
                    published: 0,
                    buffered: 0,
                    dropped_unconnected: 0,
                }
            })
            .collect();
        let executor = ExecutorGraph::compile(config.operators.clone(), &config.executor);
        let actuators = config
            .actuators
            .iter()
            .map(|spec| {
                let dev = match spec.kind {
                    ActuatorKindSpec::AirConditioner => {
                        ActuatorDevice::Ac(AirConditioner::new(spec.device_id))
                    }
                    ActuatorKindSpec::CeilingLight => {
                        ActuatorDevice::Light(CeilingLight::new(spec.device_id))
                    }
                    ActuatorKindSpec::AlertSink => {
                        ActuatorDevice::Alert(AlertSink::new(spec.device_id))
                    }
                };
                (spec.device_id, dev)
            })
            .collect();
        let client = config.broker_node.as_ref().map(|_| {
            // Discovery: an ungraceful death publishes a retained offline
            // tombstone so directories notice the leave.
            let will = config.announce.then(|| ifot_mqtt::packet::LastWill {
                topic: TopicName::new(crate::discovery::announce_topic(&config.name))
                    .expect("announce topics are valid"),
                payload: crate::discovery::NodeAnnouncement::offline(&config.name)
                    .encode()
                    .into(),
                qos: QoS::AtMostOnce,
                retain: true,
            });
            Client::new(
                config.name.clone(),
                ClientConfig {
                    keep_alive_secs: config.keep_alive_secs,
                    clean_session: !config.persistent_session,
                    retransmit_timeout_ns: 1_500_000_000,
                    will,
                },
            )
        });
        let supervisor =
            ReconnectSupervisor::new(ReconnectConfig::default(), config.keep_alive_secs);
        let shed_policy_seen = (0..executor.len()).map(|i| executor.policy(i)).collect();
        MiddlewareNode {
            subscribed: parse_filters(&config),
            broker: config.run_broker.then(Broker::new),
            broker_peers: BTreeMap::new(),
            ingress_packets: Vec::new(),
            client_events: Vec::new(),
            client_out: Vec::new(),
            broker_actions: Vec::new(),
            hop_queue: VecDeque::new(),
            stage_out: Vec::new(),
            routed: Vec::new(),
            client,
            client_decoder: StreamDecoder::new(),
            connected: false,
            supervisor,
            offline_queue: VecDeque::new(),
            offline_buffered: 0,
            offline_dropped: 0,
            offline_flushed: 0,
            session_resumes: 0,
            seq_ledger: BTreeMap::new(),
            sensors,
            executor,
            actuators,
            events: VecDeque::new(),
            events_evicted: 0,
            directory: crate::discovery::FlowDirectory::new(),
            broker_polls: 0,
            sys_publishes: Vec::new(),
            sys_view: BTreeMap::new(),
            pending_batches: Vec::new(),
            encoder: FrameEncoder::default(),
            decoder: FrameDecoder::default(),
            batch_timer_armed: false,
            shed_policy_seen,
            announce_revision: 0,
            producer: config.name.as_str().into(),
            config,
        }
    }

    /// Whether publish-side micro-batching is active (a linger window is
    /// configured and the node has a client to publish through).
    fn batching_enabled(&self) -> bool {
        self.config.batch_linger_ms > 0 && self.client.is_some()
    }

    /// The last-seen `$SYS/...` broker status values (populated when an
    /// operator subscription covers the `$SYS` plane).
    pub fn sys_view(&self) -> &BTreeMap<String, String> {
        &self.sys_view
    }

    /// The locally tracked stream directory (populated when the node is
    /// configured with [`NodeConfig::with_directory`]).
    pub fn directory(&self) -> &crate::discovery::FlowDirectory {
        &self.directory
    }

    /// The node's name.
    pub fn name(&self) -> &str {
        &self.config.name
    }

    /// The node's configuration.
    pub fn config(&self) -> &NodeConfig {
        &self.config
    }

    /// The newest application events, oldest first: at most
    /// [`EVENT_LOG_CAP`] of them.
    pub fn events(&self) -> &VecDeque<NodeEvent> {
        &self.events
    }

    /// Events the log dropped, oldest first, to stay within
    /// [`EVENT_LOG_CAP`].
    pub fn events_evicted(&self) -> u64 {
        self.events_evicted
    }

    /// Whether the MQTT client session is established.
    pub fn is_connected(&self) -> bool {
        self.connected
    }

    /// Broker statistics, when this node runs the Broker class.
    pub fn broker_stats(&self) -> Option<BrokerStats> {
        self.broker.as_ref().map(Broker::stats)
    }

    /// Connection-resilience counters (reconnects, offline buffering,
    /// replay, and the received-flow sequence ledger).
    pub fn resilience(&self) -> ResilienceStats {
        let sup = self.supervisor.stats();
        ResilienceStats {
            reconnects: sup.reconnects,
            transport_lost: sup.transport_lost,
            dead_peer_detections: sup.dead_peer_detections,
            connect_timeouts: sup.connect_timeouts,
            session_resumes: self.session_resumes,
            offline_buffered: self.offline_buffered,
            offline_dropped: self.offline_dropped,
            offline_flushed: self.offline_flushed,
            offline_queued: self.offline_queue.len(),
            replayed_packets: self
                .client
                .as_ref()
                .map(|c| c.replayed_packets())
                .unwrap_or(0),
            seq_duplicates: self.seq_ledger.values().map(|t| t.duplicates).sum(),
            seq_gaps: self.seq_ledger.values().map(SeqTracker::gaps).sum(),
        }
    }

    /// The classifier served by the operator with the given id, cloned
    /// out of its executor stage (train/predict stages only).
    pub fn classifier(&self, id: &str) -> Option<ClassifierModel> {
        self.executor.classifier(id)
    }

    /// Per-stage mailbox counters, indexed like
    /// [`NodeConfig::operators`].
    pub fn stage_stats(&self) -> Vec<StageStats> {
        (0..self.executor.len())
            .map(|i| self.executor.stats(i))
            .collect()
    }

    /// The executor graph, for the thread runtime's worker pool: while
    /// the pool holds its stages, dispatch posts to their owners.
    pub(crate) fn executor(&self) -> &ExecutorGraph {
        &self.executor
    }

    /// Runs inline what a stopped worker pool left queued, feeding the
    /// outputs on like any inline step; whether anything ran.
    pub(crate) fn run_backlog(&mut self, env: &mut dyn NodeEnv) -> bool {
        let mut ran = false;
        let mut outputs = Vec::new();
        for stage in 0..self.executor.len() {
            while self.executor.step(env, stage, &mut outputs) {
                ran = true;
                self.handle_outputs(env, stage, &mut outputs);
            }
        }
        ran
    }

    /// The node's placement: one entry per operator spec with its
    /// sequence-shard filter, as deploy assigned them.
    pub fn placement(&self) -> Vec<String> {
        self.config
            .operators
            .iter()
            .map(|o| match o.shard {
                Some((modulus, index)) => format!("{} shard {index}/{modulus}", o.id),
                None => o.id.clone(),
            })
            .collect()
    }

    /// One-line descriptions of every hosted class (monitoring screen).
    pub fn describe_classes(&self) -> Vec<String> {
        let mut out = Vec::new();
        if let Some(stats) = self.broker_stats() {
            out.push(format!(
                "broker clients={} in={} out={}",
                stats.clients_connected, stats.messages_in, stats.messages_out
            ));
        }
        for s in &self.sensors {
            out.push(format!(
                "sensor[{}] published={} buffered={} dropped={}",
                s.topic, s.published, s.buffered, s.dropped_unconnected
            ));
        }
        if self.client.is_some() {
            let r = self.resilience();
            out.push(format!(
                "resilience reconnects={} lost={} buffered={} flushed={} replayed={}",
                r.reconnects,
                r.transport_lost,
                r.offline_buffered,
                r.offline_flushed,
                r.replayed_packets
            ));
        }
        out.extend(self.executor.describe());
        for a in self.actuators.values() {
            out.push(a.describe());
        }
        out
    }

    /// Samples published per sensor topic.
    pub fn sensor_published(&self) -> Vec<(String, u64)> {
        self.sensors
            .iter()
            .map(|s| (s.topic.as_str().to_owned(), s.published))
            .collect()
    }

    /// The alert sink hosted under `device_id`, if any — lets harnesses
    /// inspect received alerts.
    pub fn alert_sink(&self, device_id: u16) -> Option<&AlertSink> {
        match self.actuators.get(&device_id) {
            Some(ActuatorDevice::Alert(a)) => Some(a),
            _ => None,
        }
    }

    /// The air conditioner hosted under `device_id`, if any.
    pub fn air_conditioner(&self, device_id: u16) -> Option<&AirConditioner> {
        match self.actuators.get(&device_id) {
            Some(ActuatorDevice::Ac(a)) => Some(a),
            _ => None,
        }
    }

    /// The ceiling light hosted under `device_id`, if any.
    pub fn ceiling_light(&self, device_id: u16) -> Option<&CeilingLight> {
        match self.actuators.get(&device_id) {
            Some(ActuatorDevice::Light(a)) => Some(a),
            _ => None,
        }
    }

    // ------------------------------------------------------------------
    // Lifecycle entry points (called by the runtime adapter)
    // ------------------------------------------------------------------

    /// Starts (or warm-restarts) the node: connects the client, arms
    /// sampling/poll timers. Safe to call again after a crash-stop: the
    /// session is re-established and stale sampling schedules are
    /// fast-forwarded to the current grid point instead of bursting.
    pub fn on_start(&mut self, env: &mut dyn NodeEnv) {
        if self.broker.is_some() {
            env.set_timer_after_ns(BROKER_POLL_NS, tag(TAG_BROKER_POLL, 0));
        }
        if self.client.is_some() {
            // After a warm restart the session object may still think it
            // is connected; reset it so CONNECT is valid.
            self.connected = false;
            if let Some(client) = self.client.as_mut() {
                if client.state() != ClientState::Disconnected {
                    client.transport_lost();
                }
            }
            self.send_connect(env);
            env.set_timer_after_ns(CLIENT_POLL_NS, tag(TAG_CLIENT_POLL, 0));
        }
        let now = env.now_ns();
        for (i, s) in self.sensors.iter_mut().enumerate() {
            if s.next_sample_ns <= now {
                // Fast-forward a stale schedule to the next grid point.
                let periods = (now - s.next_sample_ns) / s.period_ns + 1;
                s.next_sample_ns += periods * s.period_ns;
            }
            env.set_timer_at_ns(s.next_sample_ns, tag(TAG_SENSOR, i));
        }
        for (i, spec) in self.executor.specs().iter().enumerate() {
            if let Some(ms) = spec.flush_period_ms() {
                env.set_timer_after_ns(ms * 1_000_000, tag(TAG_FLUSH, i));
            }
            if let Some(ms) = spec.mix_period_ms() {
                env.set_timer_after_ns(ms * 1_000_000, tag(TAG_MIX, i));
            }
        }
    }

    /// Handles a timer previously armed by this node.
    pub fn on_timer(&mut self, env: &mut dyn NodeEnv, t: u64) {
        let kind = t >> TAG_KIND_SHIFT;
        let index = (t & 0xFFFF_FFFF) as usize;
        match kind {
            TAG_SENSOR => self.on_sensor_timer(env, index),
            TAG_CLIENT_POLL => self.on_client_poll(env),
            TAG_BROKER_POLL => self.on_broker_poll(env),
            TAG_FLUSH => self.on_stage_timer(env, index, OpTimer::Flush),
            TAG_MIX => self.on_stage_timer(env, index, OpTimer::Mix),
            TAG_BATCH => self.flush_pending_batches(env),
            _ => env.incr("unknown_timer"),
        }
    }

    /// Delivers a periodic tick to a stage and re-arms its timer.
    fn on_stage_timer(&mut self, env: &mut dyn NodeEnv, index: usize, timer: OpTimer) {
        let Some(spec) = self.executor.specs().get(index) else {
            return;
        };
        let period_ms = match timer {
            OpTimer::Flush => spec.flush_period_ms(),
            OpTimer::Mix => spec.mix_period_ms(),
        };
        let period = period_ms.unwrap_or(0) * 1_000_000;
        // Inline, the tick's outputs may feed local chains.
        let mut queue = std::mem::take(&mut self.hop_queue);
        self.deliver_work(env, index, WorkItem::Timer(timer), &mut queue);
        self.run_hops(env, &mut queue);
        self.hop_queue = queue;
        if period > 0 {
            let kind = match timer {
                OpTimer::Flush => TAG_FLUSH,
                OpTimer::Mix => TAG_MIX,
            };
            env.set_timer_after_ns(period, tag(kind, index));
        }
    }

    /// Handles a transport packet addressed to this node. The payload is
    /// the shared buffer the runtime delivered: a chunk that is one whole
    /// MQTT frame is decoded in place, never copied.
    pub fn on_packet(&mut self, env: &mut dyn NodeEnv, src: &str, port: u16, payload: &Bytes) {
        match port {
            MQTT_BROKER_PORT => self.on_broker_ingress(env, src, payload),
            MQTT_CLIENT_PORT => self.on_client_ingress(env, payload),
            _ => env.incr("unknown_port"),
        }
    }

    // ------------------------------------------------------------------
    // Sensor + Publish classes
    // ------------------------------------------------------------------

    fn on_sensor_timer(&mut self, env: &mut dyn NodeEnv, index: usize) {
        let now = env.now_ns();
        let Some(s) = self.sensors.get_mut(index) else {
            return;
        };
        env.consume_ref_ms(costs::SENSOR_READ_MS);
        // The sample is a plain value. Its image is written into the
        // PUBLISH frame below, which broker fan-out and dispatch then
        // share: a frame the client sent before and every reader has let
        // go of, so a steady sensor costs the heap nothing (see the
        // allocation table in DESIGN.md §5).
        let labelled = s.injector.read(now);
        let topic = s.topic.clone();
        // Schedule the next sample on the nominal grid (no drift).
        s.next_sample_ns += s.period_ns;
        let next = s.next_sample_ns;
        env.set_timer_at_ns(next, tag(TAG_SENSOR, index));
        env.incr("samples_taken");
        if labelled.anomalous {
            env.incr("samples_anomalous");
        }

        if self.connected {
            self.sensors[index].published += 1;
            if self.batching_enabled() {
                // Coalesced flow path: the sample becomes a flow message
                // directly and the micro-batcher amortizes the publish.
                let message = FlowItem::from_sample(topic.clone().into_shared(), &labelled.sample)
                    .into_message(self.producer.clone());
                self.enqueue_batch(env, topic.as_str(), message);
            } else {
                let image = labelled.sample.encode();
                note_flow_frame(env, 1, image.len());
                self.publish_named(env, &topic, &image, false);
            }
        } else if self.config.offline_queue_capacity > 0 {
            // Publish class offline buffering: hold samples through the
            // outage, flushed in order on reconnect.
            self.sensors[index].buffered += 1;
            self.buffer_offline(env, topic, labelled.sample.encode_bytes(), false);
        } else {
            self.sensors[index].dropped_unconnected += 1;
            env.incr("samples_dropped_unconnected");
        }
    }

    /// Queues a payload produced while disconnected, dropping the oldest
    /// entry when the configured bound is reached.
    fn buffer_offline(
        &mut self,
        env: &mut dyn NodeEnv,
        topic: TopicName,
        payload: Bytes,
        retain: bool,
    ) {
        let capacity = self.config.offline_queue_capacity;
        if capacity == 0 {
            env.incr("offline_disabled_drop");
            return;
        }
        if self.offline_queue.len() >= capacity {
            self.offline_queue.pop_front();
            self.offline_dropped += 1;
            env.incr("offline_dropped_oldest");
        }
        self.offline_queue.push_back((topic, payload, retain));
        self.offline_buffered += 1;
        env.incr("offline_buffered");
    }

    /// Re-publishes everything buffered during the outage (in order).
    fn flush_offline(&mut self, env: &mut dyn NodeEnv) {
        if self.offline_queue.is_empty() {
            return;
        }
        let drained: Vec<(TopicName, Bytes, bool)> = self.offline_queue.drain(..).collect();
        let n = drained.len() as u64;
        self.offline_flushed += n;
        env.add("offline_flushed", n);
        for (topic, payload, retain) in drained {
            self.publish_named(env, &topic, &payload, retain);
        }
    }

    /// Publishes a payload through the client (consuming publish CPU).
    fn publish(&mut self, env: &mut dyn NodeEnv, topic: &str, payload: &[u8]) {
        self.publish_opts(env, topic, payload, false);
    }

    /// Publishes with an explicit retain flag on a topic given as text,
    /// validating it first.
    fn publish_opts(&mut self, env: &mut dyn NodeEnv, topic: &str, payload: &[u8], retain: bool) {
        if self.client.is_none() {
            env.incr("publish_without_client");
            return;
        }
        let Ok(topic) = TopicName::new(topic) else {
            env.incr("publish_bad_topic");
            return;
        };
        self.publish_named(env, &topic, payload, retain);
    }

    /// Publishes on an already validated topic: the payload is written
    /// once, into the frame that goes to the broker. While disconnected it
    /// goes to the offline queue instead of being lost.
    fn publish_named(
        &mut self,
        env: &mut dyn NodeEnv,
        topic: &TopicName,
        payload: &[u8],
        retain: bool,
    ) {
        let Some(client) = self.client.as_mut() else {
            env.incr("publish_without_client");
            return;
        };
        if client.state() != ClientState::Connected {
            env.incr("publish_not_connected");
            let payload = Bytes::copy_from_slice(payload);
            self.buffer_offline(env, topic.clone(), payload, retain);
            return;
        }
        env.consume_ref_ms(costs::PUBLISH_MS);
        match client.publish_frame(
            topic,
            payload,
            self.config.publish_qos,
            retain,
            env.now_ns(),
        ) {
            Ok(frame) => {
                self.send_to_broker(env, frame);
                env.incr("published");
            }
            Err(_) => env.incr("publish_not_connected"),
        }
    }

    /// Sends a client frame to the node's broker.
    fn send_to_broker(&self, env: &mut dyn NodeEnv, frame: Bytes) {
        let broker = self
            .config
            .broker_node
            .as_deref()
            .expect("client implies broker_node");
        env.send(broker, MQTT_BROKER_PORT, frame);
    }

    // ------------------------------------------------------------------
    // Publish coalescing (micro-batched flow path)
    // ------------------------------------------------------------------

    /// Adds a flow message to its topic's pending micro-batch, flushing
    /// when `batch_max` is reached and otherwise arming one shared
    /// linger timer (`batch_linger_ms`) for the first message of a
    /// batching window.
    fn enqueue_batch(&mut self, env: &mut dyn NodeEnv, topic: &str, message: FlowMessage) {
        let batch_max = self.config.batch_max.max(1);
        // A topic's entry is made (its key copied, its name validated)
        // the first time it batches, not per message or per batch.
        let at = match self
            .pending_batches
            .binary_search_by(|batch| batch.topic.as_str().cmp(topic))
        {
            Ok(at) => at,
            Err(at) => {
                let batch = PendingBatch {
                    topic: topic.to_owned(),
                    name: TopicName::new(topic).ok(),
                    messages: Vec::new(),
                };
                self.pending_batches.insert(at, batch);
                at
            }
        };
        let pending = &mut self.pending_batches[at].messages;
        pending.push(message);
        if pending.len() >= batch_max {
            self.flush_batch_at(env, at);
            return;
        }
        if !self.batch_timer_armed {
            self.batch_timer_armed = true;
            env.incr("batch_linger_windows");
            let linger_ns = self.config.batch_linger_ms.saturating_mul(1_000_000);
            env.set_timer_after_ns(linger_ns, tag(TAG_BATCH, 0));
        }
    }

    /// Publishes the pending batch at `at` as a single wire frame — a
    /// message frame for one message, a batch frame (one shared header,
    /// delta-encoded timestamps) for more — and empties it.
    fn flush_batch_at(&mut self, env: &mut dyn NodeEnv, at: usize) {
        let batch = &mut self.pending_batches[at];
        if batch.messages.is_empty() {
            return;
        }
        let n = batch.messages.len() as u64;
        let mut encoder = std::mem::take(&mut self.encoder);
        let frame = encoder.encode(&batch.messages);
        batch.messages.clear();
        note_flow_frame(env, n, frame.len());
        // What `publish_opts` would count, without validating the name
        // again.
        match batch.name.clone() {
            Some(name) => self.publish_named(env, &name, frame, false),
            None if self.client.is_none() => env.incr("publish_without_client"),
            None => env.incr("publish_bad_topic"),
        }
        self.encoder = encoder;
    }

    /// Flushes every pending micro-batch, in topic order (linger timer
    /// expiry, and the runtime's shutdown drain so trailing samples are
    /// not lost).
    pub(crate) fn flush_pending_batches(&mut self, env: &mut dyn NodeEnv) {
        self.batch_timer_armed = false;
        for at in 0..self.pending_batches.len() {
            self.flush_batch_at(env, at);
        }
    }

    // ------------------------------------------------------------------
    // Broker class
    // ------------------------------------------------------------------

    fn on_broker_ingress(&mut self, env: &mut dyn NodeEnv, src: &str, payload: &Bytes) {
        let Some(broker) = self.broker.as_mut() else {
            env.incr("broker_ingress_without_broker");
            return;
        };
        let now = env.now_ns();
        let conn = match self.broker_peers.get_key_value(src) {
            Some((conn, _)) => Arc::clone(conn),
            None => {
                // A new stream is a new transport connection (TCP accept):
                // the broker closes it unless its first packet is CONNECT.
                let conn: Arc<str> = Arc::from(src);
                broker.connection_opened(Arc::clone(&conn), now);
                self.broker_peers
                    .insert(Arc::clone(&conn), StreamDecoder::new());
                conn
            }
        };
        let decoder = self.broker_peers.get_mut(src).expect("just ensured");
        decoder.feed(payload);
        let mut packets = std::mem::take(&mut self.ingress_packets);
        let corrupt = loop {
            match decoder.next_packet() {
                Ok(Some(p)) => packets.push(p),
                Ok(None) => break false,
                Err(_) => break true,
            }
        };
        let mut actions = std::mem::take(&mut self.broker_actions);
        for packet in packets.drain(..) {
            env.consume_ref_ms(costs::BROKER_IN_MS);
            if matches!(packet, Packet::Connect(_)) {
                broker.connection_opened(Arc::clone(&conn), now);
            }
            // Stage probe (Fig. 9 breakdown): the sensing→broker leg, read
            // off the payload's header without decoding it.
            if let Packet::Publish(p) = &packet {
                if let Some(origin) = peek_origin_ns(&p.payload) {
                    env.record_latency_since_ns("sensing_to_broker", origin);
                }
            }
            broker.handle_packet_into(&conn, packet, now, &mut actions);
        }
        if corrupt {
            // MQTT has no resynchronization: what decoded ahead of the
            // garbage was handled above; the connection is now gone, for
            // the broker (will, session) as for the stream state.
            env.incr("broker_decode_errors");
            self.broker_peers.remove(src);
            broker.connection_lost_into(&conn, now, &mut actions);
        }
        self.ingress_packets = packets;
        self.apply_broker_actions(env, &mut actions);
        self.broker_actions = actions;
    }

    fn on_broker_poll(&mut self, env: &mut dyn NodeEnv) {
        let now = env.now_ns();
        let Some(broker) = self.broker.as_mut() else {
            return;
        };
        let mut actions = std::mem::take(&mut self.broker_actions);
        broker.poll_into(now, &mut actions);
        // $SYS status publications (Mosquitto-style), every 4th poll
        // (~2 s): subscribers of `$SYS/#` observe the broker load.
        self.broker_polls += 1;
        if self.broker_polls.is_multiple_of(4) {
            broker.sys_stats_packets_into(&mut self.sys_publishes);
            for publish in self.sys_publishes.drain(..) {
                broker.publish_internal_into(publish, now, &mut actions);
            }
        }
        self.apply_broker_actions(env, &mut actions);
        self.broker_actions = actions;
        env.set_timer_after_ns(BROKER_POLL_NS, tag(TAG_BROKER_POLL, 0));
    }

    /// Performs and drains `actions`.
    fn apply_broker_actions(&mut self, env: &mut dyn NodeEnv, actions: &mut Vec<Action<Arc<str>>>) {
        for action in actions.drain(..) {
            match action {
                Action::Send { conn, packet } => {
                    if matches!(packet, Packet::Publish(_)) {
                        env.consume_ref_ms(costs::BROKER_OUT_MS);
                    }
                    env.send(&conn, MQTT_CLIENT_PORT, encode(&packet));
                }
                Action::SendFrame { conn, frame } => {
                    // Pre-encoded QoS 0 fan-out: the broker encoded the
                    // PUBLISH once; every subscriber gets the same buffer.
                    env.consume_ref_ms(costs::BROKER_OUT_MS);
                    env.send(&conn, MQTT_CLIENT_PORT, frame);
                }
                Action::Close { conn } => {
                    self.broker_peers.remove(&conn);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Subscribe class (client) and flow dispatch
    // ------------------------------------------------------------------

    fn send_connect(&mut self, env: &mut dyn NodeEnv) {
        let Some(client) = self.client.as_mut() else {
            return;
        };
        if let Ok(packet) = client.connect() {
            self.send_to_broker(env, encode(&packet));
            let before = self.supervisor.stats().reconnects;
            self.supervisor.on_connect_sent(env.now_ns());
            if self.supervisor.stats().reconnects > before {
                env.incr("reconnects");
            }
            env.incr("connects_sent");
        }
    }

    fn on_client_poll(&mut self, env: &mut dyn NodeEnv) {
        let now = env.now_ns();
        let mut to_send = Vec::new();
        let mut state = None;
        if let Some(client) = self.client.as_mut() {
            to_send.extend(client.poll(now));
            state = Some(client.state());
        }
        for packet in to_send {
            self.send_to_broker(env, encode(&packet));
        }
        if let Some(state) = state {
            // Reconnect supervision: dead-peer detection, CONNACK
            // timeout and backoff-scheduled reconnects. Jitter is drawn
            // from the runtime's deterministic RNG.
            let action = self.supervisor.poll(state, now, &mut || env.rand_u64());
            match action {
                SupervisorAction::TransportLost => self.on_transport_lost(env),
                SupervisorAction::Connect => self.send_connect(env),
                SupervisorAction::None => {}
            }
        }
        self.publish_shed_policy_transitions(env);
        if self.client.is_some() {
            env.set_timer_after_ns(CLIENT_POLL_NS, tag(TAG_CLIENT_POLL, 0));
        }
    }

    /// Publishes a retained `$SYS` notification when adaptive escalation
    /// has flipped a stage's shed policy since the last poll, so
    /// monitoring subscribers observe the transition.
    fn publish_shed_policy_transitions(&mut self, env: &mut dyn NodeEnv) {
        if !self.connected {
            return;
        }
        for i in 0..self.executor.len() {
            let current = self.executor.policy(i);
            if self.shed_policy_seen.get(i).copied() == Some(current) {
                continue;
            }
            if let Some(slot) = self.shed_policy_seen.get_mut(i) {
                *slot = current;
            }
            let id = self.executor.specs()[i].id.clone();
            let topic = format!("$SYS/ifot/{}/stage/{}/shed_policy", self.config.name, id);
            let name = match current {
                ShedPolicy::Block => "block",
                ShedPolicy::ShedOldest => "shed_oldest",
                ShedPolicy::ShedNewest => "shed_newest",
            };
            env.incr("shed_policy_transitions");
            self.publish_opts(env, &topic, name.as_bytes(), true);
        }
    }

    fn on_client_ingress(&mut self, env: &mut dyn NodeEnv, payload: &Bytes) {
        let now = env.now_ns();
        self.client_decoder.feed(payload);
        let mut packets = std::mem::take(&mut self.ingress_packets);
        let corrupt = loop {
            match self.client_decoder.next_packet() {
                Ok(Some(p)) => packets.push(p),
                Ok(None) => break false,
                Err(_) => break true,
            }
        };
        if !packets.is_empty() {
            // Any inbound broker traffic proves the peer is alive.
            self.supervisor.on_inbound(now);
        }
        let mut events = std::mem::take(&mut self.client_events);
        let mut out = std::mem::take(&mut self.client_out);
        for packet in packets.drain(..) {
            let Some(client) = self.client.as_mut() else {
                break;
            };
            if client
                .handle_packet_into(packet, now, &mut events, &mut out)
                .is_err()
            {
                env.incr("client_protocol_errors");
                continue;
            }
            for p in out.drain(..) {
                self.send_to_broker(env, encode(&p));
            }
            for event in events.drain(..) {
                match event {
                    ClientEvent::Connected { session_present } => {
                        self.connected = true;
                        self.supervisor.on_connected(now);
                        env.incr("client_connected");
                        if session_present {
                            self.session_resumes += 1;
                            env.incr("session_resumed");
                        }
                        self.subscribe_all(env);
                        if self.config.announce {
                            self.announce(env);
                        }
                        self.flush_offline(env);
                    }
                    ClientEvent::Message(publish) => {
                        env.consume_ref_ms(costs::DISPATCH_MS);
                        env.incr("messages_received");
                        // Stage probe (Fig. 9 breakdown): the
                        // sensing→subscribe leg.
                        if let Some(origin) = peek_origin_ns(&publish.payload) {
                            env.record_latency_since_ns("sensing_to_subscribe", origin);
                        }
                        let topic = publish.topic.into_shared().into();
                        self.dispatch_flow(env, topic, publish.payload);
                    }
                    ClientEvent::Refused(_) => {
                        env.incr("client_refused");
                        self.connected = false;
                    }
                    ClientEvent::Published(_)
                    | ClientEvent::Subscribed(_)
                    | ClientEvent::Unsubscribed(_)
                    | ClientEvent::Pong => {}
                }
            }
        }
        self.ingress_packets = packets;
        self.client_events = events;
        self.client_out = out;
        if corrupt {
            // MQTT has no resynchronization: what decoded ahead of the
            // garbage was handled above; the transport is now lost, and the
            // supervisor reconnects on its backoff schedule (a persistent
            // session resumes there).
            env.incr("client_decode_errors");
            self.client_decoder = StreamDecoder::new();
            self.on_transport_lost(env);
        }
    }

    /// The link to the broker is gone: the session keeps its unfinished
    /// flows for the next CONNACK, the node buffers or drops until then.
    fn on_transport_lost(&mut self, env: &mut dyn NodeEnv) {
        if let Some(client) = self.client.as_mut() {
            client.transport_lost();
        }
        self.connected = false;
        env.incr("transport_lost");
    }

    /// Publishes the retained self-description on the discovery plane.
    fn announce(&mut self, env: &mut dyn NodeEnv) {
        use crate::discovery::{announce_topic, NodeAnnouncement, StreamInfo};
        let mut streams: Vec<StreamInfo> = self
            .config
            .sensors
            .iter()
            .map(|s| StreamInfo {
                topic: s.topic.clone(),
                kind: Some(ifot_sensors::sample::kind_slug(s.kind).to_owned()),
                rate_hz: Some(s.rate_hz),
            })
            .collect();
        for op in &self.config.operators {
            if let (Some(output), true) = (&op.output, op.publish_output) {
                streams.push(StreamInfo {
                    topic: output.clone(),
                    kind: None,
                    rate_hz: None,
                });
            }
        }
        let mut capabilities: Vec<String> = self
            .config
            .sensors
            .iter()
            .map(|s| format!("sensor:{}", ifot_sensors::sample::kind_slug(s.kind)))
            .collect();
        for a in &self.config.actuators {
            let slug = match a.kind {
                ActuatorKindSpec::AirConditioner => "ac",
                ActuatorKindSpec::CeilingLight => "light",
                ActuatorKindSpec::AlertSink => "alert",
            };
            capabilities.push(format!("actuator:{slug}"));
        }
        capabilities.sort();
        capabilities.dedup();
        // Revisions are monotone per node lifetime, so a directory can
        // reject a stale retained announcement.
        self.announce_revision += 1;
        let announcement = NodeAnnouncement {
            node: self.config.name.clone(),
            online: true,
            streams,
            capabilities,
            at_ns: env.now_ns(),
            revision: self.announce_revision,
        };
        let topic = announce_topic(&self.config.name);
        self.publish_opts(env, &topic, &announcement.encode(), true);
        env.incr("announcements");
    }

    fn subscribe_all(&mut self, env: &mut dyn NodeEnv) {
        if self.subscribed.is_empty() {
            return;
        }
        let filters = self
            .subscribed
            .iter()
            .map(|f| (f.clone(), self.config.publish_qos))
            .collect();
        let Some(client) = self.client.as_mut() else {
            return;
        };
        if let Ok(packet) = client.subscribe(filters, env.now_ns()) {
            self.send_to_broker(env, encode(&packet));
        }
    }

    /// Routes a payload on `topic` to every matching local operator,
    /// iteratively following local operator chains.
    fn dispatch_flow(&mut self, env: &mut dyn NodeEnv, topic: Name, payload: Bytes) {
        let mut queue = std::mem::take(&mut self.hop_queue);
        queue.push_back(Hop::Wire(topic, payload));
        self.run_hops(env, &mut queue);
        self.hop_queue = queue;
    }

    /// Works a queue of local deliveries to completion, breadth-first:
    /// stages run inline append the hops their emissions cause. The
    /// queue is left empty.
    fn run_hops(&mut self, env: &mut dyn NodeEnv, queue: &mut VecDeque<Hop>) {
        let mut hops = 0;
        while let Some(hop) = queue.pop_front() {
            hops += 1;
            if hops > LOCAL_HOP_LIMIT {
                env.incr("local_dispatch_overflow");
                queue.clear();
                break;
            }
            match hop {
                Hop::Wire(topic, payload) => self.on_wire_hop(env, &topic, payload, queue),
                Hop::Items(group) => self.route_items(env, group, queue),
            }
        }
    }

    /// Handles one encoded payload: the special planes, or flow data to
    /// decode and route.
    fn on_wire_hop(
        &mut self,
        env: &mut dyn NodeEnv,
        topic: &Name,
        payload: Bytes,
        queue: &mut VecDeque<Hop>,
    ) {
        if topic.starts_with(crate::discovery::ANNOUNCE_PREFIX) {
            self.directory.apply(topic, &payload);
            env.incr("directory_updates");
            return;
        }
        if topic.starts_with("$SYS/") {
            self.sys_view.insert(
                topic.as_str().to_owned(),
                String::from_utf8_lossy(&payload).into_owned(),
            );
            env.incr("sys_updates");
            return;
        }
        if topic.starts_with("mix/") {
            let Ok(envelope) = MixEnvelope::decode(&payload) else {
                env.incr("mix_decode_errors");
                return;
            };
            let plan = self.executor.route(topic);
            let count = plan.stages.len();
            let mut envelope = Some(envelope);
            for (k, route) in plan.stages.iter().enumerate() {
                // The last accepting stage takes the envelope by
                // move; earlier fan-out consumers clone.
                let msg = if k + 1 == count {
                    ControlMsg::Mix(envelope.take().expect("taken only here"))
                } else {
                    ControlMsg::Mix(envelope.as_ref().expect("taken only by last").clone())
                };
                self.deliver_work(env, route.stage, WorkItem::Control(msg), queue);
            }
            return;
        }
        // Normalized decode: raw sample, message frame, or a
        // coalesced batch frame — one to N items per payload. The
        // lean form keeps the dominant single-sample path free of a
        // one-element `Vec` allocation.
        let decoded = match self
            .decoder
            .decode_into(topic, &payload, || self.executor.take_list())
        {
            Ok(decoded) => decoded,
            Err(_) => {
                env.incr("flow_decode_errors");
                return;
            }
        };
        // Sequence ledger: sensor streams carry a per-device monotone
        // seq, so received flows can be audited for permanent gaps
        // (loss) and duplicates after faults and session resumes.
        // One ledger resolution per frame, and the topic key is only
        // cloned when a stream is first seen.
        if topic.starts_with("sensor/") {
            match self.seq_ledger.get_mut(topic.as_str()) {
                Some(ledger) => ledger.observe_batch(decoded.iter()),
                None => {
                    let mut ledger = SeqTracker::default();
                    ledger.observe_batch(decoded.iter());
                    self.seq_ledger.insert(topic.as_str().to_owned(), ledger);
                }
            }
        }
        self.route_items(env, decoded, queue);
    }

    /// Fans a group of flow items (one topic) out to the stages that
    /// accept it, through the intra-node router; this thread's admission
    /// is [`Self::deliver_work`].
    fn route_items(
        &mut self,
        env: &mut dyn NodeEnv,
        group: DecodedItems,
        queue: &mut VecDeque<Hop>,
    ) {
        let Some(first) = group.iter().next() else {
            return;
        };
        let plan = self.executor.route(&first.topic);
        if plan.is_empty() {
            return;
        }
        let claimed = router::claimants(&plan, group.iter().map(|item| item.seq));
        // Split first, then deliver: an inline stage gives its list back
        // to the lists the split takes from.
        let mut routed = std::mem::take(&mut self.routed);
        router::materialize(
            &claimed,
            group,
            &mut self.executor.lists(),
            |route, work| routed.push((route.stage, work)),
        );
        for (stage, work) in routed.drain(..) {
            self.deliver_work(env, stage, work, queue);
        }
        self.routed = routed;
    }

    /// Hands one work item to a stage: a pooled stage's owner gets it
    /// posted (waiting while a `Block` stage has no credit), an inline
    /// stage runs to completion and feeds any emitted output back into
    /// the local dispatch chain.
    fn deliver_work(
        &mut self,
        env: &mut dyn NodeEnv,
        stage: usize,
        work: WorkItem,
        queue: &mut VecDeque<Hop>,
    ) {
        let mut outputs = std::mem::take(&mut self.stage_out);
        self.executor.offer(env, stage, work, &mut outputs);
        if !outputs.is_empty() {
            self.process_outputs(env, stage, &mut outputs, queue);
        }
        self.stage_out = outputs;
    }

    /// Performs the outputs a worker could not deliver itself, leaving
    /// `outputs` empty.
    pub(crate) fn handle_outputs(
        &mut self,
        env: &mut dyn NodeEnv,
        op_index: usize,
        outputs: &mut Vec<OpOutput>,
    ) {
        let mut queue = std::mem::take(&mut self.hop_queue);
        self.process_outputs(env, op_index, outputs, &mut queue);
        // Worker-delivered outputs may feed local chains too.
        self.run_hops(env, &mut queue);
        self.hop_queue = queue;
    }

    /// Whether this node's own broker subscription covers `topic` — in
    /// that case a published message loops back through the broker and
    /// must not also be dispatched locally (it would arrive twice).
    fn subscription_covers(&self, topic: &str) -> bool {
        let Ok(name) = TopicName::new(topic) else {
            return false;
        };
        self.subscribed.iter().any(|f| f.matches(&name))
    }

    /// Whether a stage other than `emitter` accepts `topic`.
    fn has_local_consumer(&self, topic: &str, emitter: Option<usize>) -> bool {
        let plan = self.executor.route(topic);
        plan.stages.iter().any(|r| Some(r.stage) != emitter)
    }

    /// Publishes a MIX envelope, and hands it to co-located consumers
    /// unless the broker echo already covers them.
    fn route_mix(
        &mut self,
        env: &mut dyn NodeEnv,
        topic: &str,
        envelope: &MixEnvelope,
        queue: &mut VecDeque<Hop>,
    ) {
        let payload: Bytes = encode_mix_binary(envelope).into();
        let echoed_back = self.connected && self.subscription_covers(topic);
        if self.has_local_consumer(topic, None) && !echoed_back {
            queue.push_back(Hop::Wire(topic.into(), payload.clone()));
        }
        self.publish(env, topic, &payload);
    }

    /// Publishes one emission of a `publish_output` stage: through the
    /// micro-batcher when it is on, as its own frame otherwise.
    fn publish_emission(&mut self, env: &mut dyn NodeEnv, topic: &str, message: FlowMessage) {
        if self.batching_enabled() && self.connected {
            self.enqueue_batch(env, topic, message);
        } else {
            self.publish(env, topic, &encode_message_binary(&message));
        }
    }

    /// Performs one step's outputs, draining `outputs`. The step's
    /// emissions all carry the stage's one output topic: co-located
    /// consumers get them as one group (unless the broker echo of a
    /// published output already reaches them), queued behind the hops
    /// already pending.
    fn process_outputs(
        &mut self,
        env: &mut dyn NodeEnv,
        op_index: usize,
        outputs: &mut Vec<OpOutput>,
        queue: &mut VecDeque<Hop>,
    ) {
        /// Queues the emissions gathered so far (keeps the queue in
        /// output order when a MIX output sits between emissions).
        fn flush_group(group: &mut Option<DecodedItems>, queue: &mut VecDeque<Hop>) {
            if let Some(group) = group.take() {
                queue.push_back(Hop::Items(group));
            }
        }
        let stage_output = self.executor.output(op_index);
        // Decided at the step's first emission.
        let mut local: Option<bool> = None;
        // A lone emission — the usual step — travels without a `Vec`;
        // more get one, sized for every output of the step.
        let mut group: Option<DecodedItems> = None;
        let room = outputs.len();
        for output in outputs.drain(..) {
            match output {
                OpOutput::Emit(message) => {
                    let Some((topic, publish)) = stage_output.as_ref() else {
                        continue;
                    };
                    let publish = *publish;
                    let local = *local.get_or_insert_with(|| {
                        let echoed_back =
                            publish && self.connected && self.subscription_covers(topic);
                        self.has_local_consumer(topic, Some(op_index)) && !echoed_back
                    });
                    let mut hand_over = |message: FlowMessage| {
                        if plain_flow_topic(topic) {
                            let item = FlowItem::from_message(topic.clone(), message);
                            group = Some(match group.take() {
                                None => DecodedItems::One(item),
                                Some(DecodedItems::One(first)) => {
                                    let mut items = self.executor.take_list();
                                    items.reserve(room);
                                    items.extend([first, item]);
                                    DecodedItems::Many(items)
                                }
                                Some(DecodedItems::Many(mut items)) => {
                                    items.push(item);
                                    DecodedItems::Many(items)
                                }
                            });
                        } else {
                            let payload = encode_message_binary(&message).into();
                            queue.push_back(Hop::Wire(topic.clone(), payload));
                        }
                    };
                    match (local, publish) {
                        (true, false) => hand_over(message),
                        (true, true) => {
                            hand_over(message.clone());
                            self.publish_emission(env, topic, message);
                        }
                        (false, true) => self.publish_emission(env, topic, message),
                        (false, false) => {}
                    }
                }
                OpOutput::MixOffer(diff) => {
                    let task = self.executor.specs()[op_index].id.clone();
                    let topic = topics::mix_offer(&self.config.app, &task);
                    let envelope = MixEnvelope {
                        role: "offer".into(),
                        task,
                        diff,
                    };
                    flush_group(&mut group, queue);
                    self.route_mix(env, &topic, &envelope, queue);
                }
                OpOutput::MixAverage { task, diff } => {
                    let topic = topics::mix_average(&self.config.app, &task);
                    let envelope = MixEnvelope {
                        role: "avg".into(),
                        task,
                        diff,
                    };
                    flush_group(&mut group, queue);
                    self.route_mix(env, &topic, &envelope, queue);
                }
                OpOutput::Command { device_id, command } => {
                    self.apply_command(env, device_id, &command);
                }
                OpOutput::Event(event) => self.log_event(event),
            }
        }
        flush_group(&mut group, queue);
    }

    fn apply_command(&mut self, env: &mut dyn NodeEnv, device_id: u16, command: &Command) {
        match self.actuators.get_mut(&device_id) {
            Some(device) => {
                let applied = device.as_actuator_mut().apply(command);
                if applied {
                    env.incr("commands_applied");
                    let description = device.describe();
                    self.log_event(NodeEvent::ActuatorApplied {
                        device_id,
                        description,
                        at_ns: env.now_ns(),
                    });
                } else {
                    env.incr("commands_rejected");
                }
            }
            None => env.incr("commands_unroutable"),
        }
    }

    /// Appends to the event ring; a full ring drops its oldest event
    /// first, as the offline queue does. Counted here, not through the
    /// env: that would take the cluster's metrics lock once per item.
    fn log_event(&mut self, event: NodeEvent) {
        if self.events.len() == EVENT_LOG_CAP {
            self.events.pop_front();
            self.events_evicted += 1;
        }
        self.events.push_back(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NodeConfig;
    use crate::env::MockEnv;
    use crate::flow::FlowBatch;
    use crate::wire::encode_batch_binary;
    use ifot_ml::feature::Datum;

    fn flow_message(seq: u64) -> FlowMessage {
        FlowMessage {
            producer: "test".into(),
            origin_ts_ns: 0,
            seq,
            datum: Datum::new().with("x", 1.0),
            label: None,
            score: None,
        }
    }

    #[test]
    fn fixed_linger_arms_the_configured_window() {
        let mut node = MiddlewareNode::new(NodeConfig::new("n").with_batching(4, 50));
        let mut env = MockEnv::default();
        env.now_ns = 1_000_000;
        node.enqueue_batch(&mut env, "t", flow_message(0));
        assert_eq!(
            env.timers_rel,
            vec![(50_000_000, tag(TAG_BATCH, 0))],
            "the window is exactly batch_linger_ms"
        );
        assert_eq!(node.pending_batches.len(), 1);
        assert_eq!(node.pending_batches[0].topic, "t");
        assert_eq!(node.pending_batches[0].messages.len(), 1);
    }

    #[test]
    fn batches_fill_per_topic_and_flush_at_batch_max_or_the_linger() {
        let mut node = MiddlewareNode::new(NodeConfig::new("n").with_batching(4, 50));
        let mut env = MockEnv::default();
        for seq in 0..5 {
            node.enqueue_batch(&mut env, "a", flow_message(seq));
        }
        node.enqueue_batch(&mut env, "b", flow_message(0));
        assert_eq!(
            env.counter("flow_frames_published"),
            1,
            "a full batch goes at once"
        );
        assert_eq!(env.counter("flow_items_published"), 4);
        assert_eq!(env.timers_rel.len(), 1, "one window covers every topic");
        node.on_timer(&mut env, tag(TAG_BATCH, 0));
        assert_eq!(
            env.counter("flow_frames_published"),
            3,
            "the linger publishes each topic's partial batch as its own frame"
        );
        assert_eq!(env.counter("flow_items_published"), 6);
        let topics: Vec<&str> = node
            .pending_batches
            .iter()
            .map(|b| b.topic.as_str())
            .collect();
        assert_eq!(topics, ["a", "b"], "each topic keeps its entry, in order");
        assert!(
            node.pending_batches
                .iter()
                .all(|b| b.messages.is_empty() && b.messages.capacity() > 0),
            "a flush empties the list and keeps its room"
        );
        node.enqueue_batch(&mut env, "a", flow_message(5));
        assert_eq!(
            env.timers_rel.len(),
            2,
            "the next message opens a new window"
        );
    }

    // ------------------------------------------------------------------
    // What a node holds: the event ring and the sequence ledger
    // ------------------------------------------------------------------

    fn prediction(at_ns: u64) -> NodeEvent {
        NodeEvent::Prediction {
            task: "p".into(),
            label: None,
            at_ns,
        }
    }

    #[test]
    fn the_event_log_keeps_the_newest_events_in_order() {
        let mut node = MiddlewareNode::new(NodeConfig::new("n"));
        for at in 0..EVENT_LOG_CAP as u64 + 10 {
            node.log_event(prediction(at));
        }
        assert_eq!(node.events().len(), EVENT_LOG_CAP);
        assert_eq!(node.events_evicted(), 10);
        assert!(
            node.events()
                .iter()
                .zip(10..)
                .all(|(event, at)| *event == prediction(at)),
            "the oldest go first and the rest keep their order"
        );
    }

    #[test]
    fn an_applied_command_is_logged_through_the_ring() {
        use crate::config::ActuatorSpec;
        let config = NodeConfig::new("n").with_actuator(ActuatorSpec {
            device_id: 7,
            kind: ActuatorKindSpec::AlertSink,
        });
        let mut node = MiddlewareNode::new(config);
        let mut env = MockEnv::new();
        for at in 0..EVENT_LOG_CAP as u64 {
            node.log_event(prediction(at));
        }
        assert_eq!(node.events_evicted(), 0, "full, nothing dropped yet");
        env.now_ns = 5;
        let alert = Command::Alert {
            severity: 2,
            message: "fall".into(),
        };
        node.apply_command(&mut env, 7, &alert);
        assert_eq!(env.counter("commands_applied"), 1);
        assert_eq!(node.events_evicted(), 1);
        assert_eq!(node.events().front(), Some(&prediction(1)));
        assert!(matches!(
            node.events().back(),
            Some(NodeEvent::ActuatorApplied {
                device_id: 7,
                at_ns: 5,
                ..
            })
        ));
    }

    #[test]
    fn steady_loss_keeps_the_sequence_ledger_bounded() {
        let mut ledger = SeqTracker::default();
        // Every other seq is lost: 10 000 gaps of one.
        for seq in (0..=20_000).step_by(2) {
            ledger.observe(seq);
        }
        assert!(ledger.missing.len() as u64 <= SEQ_GAP_TRACK_MAX);
        assert_eq!(ledger.gaps(), 10_000);
        // The newest gaps are still tracked: a late seq closes its gap...
        ledger.observe(19_999);
        assert_eq!((ledger.gaps(), ledger.duplicates), (9_999, 0));
        // ...while a retired one counts as a duplicate.
        ledger.observe(1);
        assert_eq!((ledger.gaps(), ledger.duplicates), (9_999, 1));
    }

    // ------------------------------------------------------------------
    // Shard routing
    // ------------------------------------------------------------------

    use crate::config::{OperatorKind, OperatorSpec};

    fn probe_sink(id: impl Into<String>) -> OperatorSpec {
        OperatorSpec::sink(
            id,
            OperatorKind::Custom {
                operator: "probe".into(),
            },
            vec!["sensor/#".into()],
        )
    }

    fn sharded_node(shards: u64) -> MiddlewareNode {
        let mut config = NodeConfig::new("n").with_broker();
        for i in 0..shards {
            config = config.with_operator(probe_sink(format!("p{i}")).sharded(shards, i));
        }
        MiddlewareNode::new(config)
    }

    /// One encoded batch frame covering the given sequence range.
    fn batch_frame(seqs: std::ops::Range<u64>) -> Bytes {
        let items: Vec<FlowMessage> = seqs.map(flow_message).collect();
        encode_batch_binary(&FlowBatch { items }).into()
    }

    #[test]
    fn unsharded_fanout_and_shard_cover_conserve_items() {
        // Two unsharded consumers share the frame through one `Arc` and
        // the shard replicas partition it exactly once.
        let mut config = NodeConfig::new("n").with_broker();
        config = config.with_operator(probe_sink("a"));
        config = config.with_operator(probe_sink("b"));
        for i in 0..4u64 {
            config = config.with_operator(probe_sink(format!("p{i}")).sharded(4, i));
        }
        let mut node = MiddlewareNode::new(config);
        let mut env = MockEnv::new();
        let payload = batch_frame(0..8);
        node.dispatch_flow(&mut env, "sensor/a".into(), payload);
        // Unsharded stages both see the whole frame...
        assert_eq!(node.executor.stats(0).batched_items, 8);
        assert_eq!(node.executor.stats(1).batched_items, 8);
        // ...and the shard replicas see an exact cover of it.
        for i in 2..6 {
            assert_eq!(node.executor.stats(i).batched_items, 2);
        }
    }

    #[test]
    fn route_cache_shares_resolution_across_dispatches() {
        let node = sharded_node(2);
        let first = node.executor.route("sensor/a");
        let second = node.executor.route("sensor/a");
        assert!(
            Arc::ptr_eq(&first, &second),
            "repeat dispatch must hit the memoized plan"
        );
        assert_eq!(first.stages.len(), 2);
        assert!(first.stages.iter().all(|r| r.shard.is_some()));
    }

    fn custom(id: &str, input: &str) -> OperatorSpec {
        OperatorSpec::sink(
            id,
            OperatorKind::Custom {
                operator: id.into(),
            },
            vec![input.into()],
        )
    }

    fn custom_through(id: &str, input: &str, output: &str) -> OperatorSpec {
        OperatorSpec {
            output: Some(output.into()),
            ..custom(id, input)
        }
    }

    #[test]
    fn self_consuming_stage_hits_the_hop_limit_and_returns() {
        // `echo` accepts its own output; `tap` keeps that output routable
        // (an output nobody but its emitter consumes is dropped).
        let config = NodeConfig::new("n")
            .with_broker()
            .with_operator(custom_through("echo", "loop/#", "loop/x"))
            .with_operator(custom("tap", "loop/x"));
        let mut node = MiddlewareNode::new(config);
        let mut env = MockEnv::new();
        let payload = encode_message_binary(&flow_message(1));
        node.dispatch_flow(&mut env, "loop/in".into(), payload.into());
        assert_eq!(env.counter("local_dispatch_overflow"), 1);
        assert_eq!(env.counter("custom_echo"), LOCAL_HOP_LIMIT as u64);
        assert_eq!(env.counter("custom_tap"), LOCAL_HOP_LIMIT as u64 - 1);
    }

    /// What one run of the equivalence topology looked like from outside.
    #[derive(Debug, PartialEq)]
    struct Observed {
        /// Per stage: work items executed, of which batches, items in them.
        grouping: Vec<(u64, u64, u64)>,
        /// Per leaf: origin timestamps in the order they reached egress.
        egress: Vec<Vec<u64>>,
        /// `(encode_message, decode_items_lean)` calls on the node thread.
        codec_calls: (u64, u64),
    }

    /// Drives a chain (`ingest` → `refine`) into a sharded tree (an
    /// unsharded `tap` plus four sharded, publishing leaves) with the
    /// given worker count; the test thread plays the node thread.
    fn run_chain_and_tree(workers: usize) -> Observed {
        use crate::executor::pool::{WorkerPool, WorkerRuntime};
        use crate::wire::CODEC_CALLS;

        const FRAMES: u64 = 24;
        const FRAME_ITEMS: u64 = 8;
        const SINGLES: u64 = 5;
        const ITEMS: u64 = FRAMES * FRAME_ITEMS + SINGLES;
        let mut config = NodeConfig::new("n")
            .with_broker_node("elsewhere")
            .with_offline_queue(ITEMS as usize)
            .with_workers(workers)
            .with_operator(custom_through("ingest", "sensor/#", "flow/e/0"))
            .with_operator(custom_through("refine", "flow/e/0", "flow/e/1"))
            .with_operator(custom("tap", "flow/e/1"));
        for k in 0..4u64 {
            let mut leaf =
                custom_through(&format!("leaf{k}"), "flow/e/1", &format!("out/{k}")).sharded(4, k);
            leaf.publish_output = true;
            config = config.with_operator(leaf);
        }
        let mut node = MiddlewareNode::new(config);
        let mut env = MockEnv::new();
        // Origin timestamps carry the publish order through the re-stamping
        // stages.
        let message = |seq: u64| FlowMessage {
            origin_ts_ns: seq + 1,
            ..flow_message(seq)
        };
        let mut payloads: Vec<Bytes> = (0..FRAMES)
            .map(|f| {
                let items = (f * FRAME_ITEMS..(f + 1) * FRAME_ITEMS)
                    .map(message)
                    .collect();
                encode_batch_binary(&FlowBatch { items }).into()
            })
            .collect();
        for i in 0..SINGLES {
            let single = message(FRAMES * FRAME_ITEMS + i);
            payloads.push(encode_message_binary(&single).into());
        }
        let (tx, rx) = std::sync::mpsc::channel::<(usize, Vec<OpOutput>)>();
        let pool = (workers > 0).then(|| {
            WorkerPool::spawn(
                "equivalence",
                workers,
                &node.executor,
                Arc::new(move |index, outputs| {
                    let _ = tx.send((index, outputs));
                }),
                WorkerRuntime {
                    epoch: std::time::Instant::now(),
                    metrics: Arc::new(std::sync::Mutex::new(Default::default())),
                    speed: None,
                    seed: 7,
                },
            )
        });

        let before = CODEC_CALLS.with(|c| c.get());
        for payload in payloads {
            node.dispatch_flow(&mut env, "sensor/a".into(), payload);
        }
        // Pooled: play the node thread until every item reached egress
        // (the leaves publish into the offline queue: nobody is connected).
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while node.offline_queue.len() < ITEMS as usize && pool.is_some() {
            assert!(std::time::Instant::now() < deadline, "pooled run stalled");
            while let Ok((index, mut outputs)) = rx.try_recv() {
                node.handle_outputs(&mut env, index, &mut outputs);
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        if let Some(pool) = pool {
            pool.stop(&node.executor);
        }
        let after = CODEC_CALLS.with(|c| c.get());

        assert_eq!(
            node.offline_queue.len(),
            ITEMS as usize,
            "exact conservation"
        );
        let mut egress: Vec<Vec<u64>> = vec![Vec::new(); 4];
        for (topic, payload, _) in &node.offline_queue {
            let leaf: usize = topic
                .as_str()
                .strip_prefix("out/")
                .unwrap()
                .parse()
                .unwrap();
            let msg = FlowMessage::decode(payload).expect("egress frames decode");
            egress[leaf].push(msg.origin_ts_ns);
        }
        Observed {
            grouping: node
                .stage_stats()
                .iter()
                .map(|s| (s.processed, s.batch_entries, s.batched_items))
                .collect(),
            egress,
            codec_calls: (after.0 - before.0, after.1 - before.1),
        }
    }

    #[test]
    fn inline_and_pooled_executors_route_identically() {
        let inline = run_chain_and_tree(0);
        let pooled = run_chain_and_tree(2);
        assert_eq!(inline, pooled);
        // A leaf has one owner, so its outputs reach the node thread in
        // the order it ran them: egress arrives in publish order.
        for leaf in &pooled.egress {
            assert!(
                leaf.windows(2).all(|w| w[0] < w[1]),
                "pooled per-topic FIFO: {leaf:?}"
            );
        }

        // The topology did what it says: every stage of the chain and the
        // tap saw all 197 items, the leaves an exact cover of them...
        let items = |stage: usize| {
            let (processed, batches, batched) = inline.grouping[stage];
            processed - batches + batched
        };
        assert_eq!([items(0), items(1), items(2)], [197, 197, 197]);
        assert_eq!((3..7).map(items).sum::<u64>(), 197);
        // ...a frame stays one work item per destination hop over hop...
        assert_eq!(inline.grouping[1], (29, 24, 192));
        // ...and every leaf saw its share in publish order.
        for leaf in &inline.egress {
            assert!(
                leaf.windows(2).all(|w| w[0] < w[1]),
                "per-topic FIFO: {leaf:?}"
            );
        }
        // Only broker traffic touches the codec: one decode per ingress
        // frame, one encode per published emission — none for the four
        // local hops each item takes.
        assert_eq!(inline.codec_calls, (197, 29));
    }

    /// A SUBSCRIBE to every topic (`#`) at QoS 0.
    fn subscribe_everything() -> Packet {
        use ifot_mqtt::packet::{Subscribe, SubscribeFilter};
        let filter = TopicFilter::new("#").expect("valid filter");
        let qos = QoS::AtMostOnce;
        let filters = vec![SubscribeFilter { filter, qos }];
        Packet::Subscribe(Subscribe {
            packet_id: 1,
            filters,
        })
    }

    /// A chunk that turns into garbage mid-way: the packets ahead of the
    /// garbage are handled, then the connection is lost for the broker
    /// too (will published, session offline), and the peer's next
    /// CONNECT finds no stale stream state.
    #[test]
    fn corrupt_broker_frame_keeps_what_decoded_and_drops_the_connection() {
        use ifot_mqtt::packet::{Connect, LastWill, Publish};
        let topic = |t: &str| TopicName::new(t).expect("valid topic");
        let mut node = MiddlewareNode::new(NodeConfig::new("hub").with_broker());
        let mut env = MockEnv::new();
        fn feed(node: &mut MiddlewareNode, env: &mut MockEnv, src: &str, chunk: Bytes) {
            node.on_packet(env, src, MQTT_BROKER_PORT, &chunk);
        }
        /// PUBLISH packets the broker sent to `dst`, as `(topic, payload)`.
        fn publishes_to(env: &MockEnv, dst: &str) -> Vec<(String, Vec<u8>)> {
            env.sent_to(dst, MQTT_CLIENT_PORT)
                .into_iter()
                .filter_map(|frame| match ifot_mqtt::codec::decode(frame) {
                    Ok(Some((Packet::Publish(p), _))) => {
                        Some((p.topic.as_str().to_owned(), p.payload.to_vec()))
                    }
                    _ => None,
                })
                .collect()
        }

        feed(
            &mut node,
            &mut env,
            "sub",
            encode(&Packet::Connect(Connect::new("sub"))),
        );
        feed(&mut node, &mut env, "sub", encode(&subscribe_everything()));
        let mut connect = Connect::new("pub");
        connect.will = Some(LastWill {
            topic: topic("will/pub"),
            payload: Bytes::from_static(b"gone"),
            qos: QoS::AtMostOnce,
            retain: false,
        });
        feed(
            &mut node,
            &mut env,
            "pub",
            encode(&Packet::Connect(connect)),
        );
        assert_eq!(node.broker_stats().expect("broker").clients_connected, 2);

        // One read: a valid PUBLISH, then a packet type that does not exist.
        let mut chunk = encode(&Packet::Publish(Publish::qos0(topic("t/a"), vec![7]))).to_vec();
        chunk.extend_from_slice(&[0xF0, 0x00]);
        feed(&mut node, &mut env, "pub", chunk.into());
        assert_eq!(env.counter("broker_decode_errors"), 1);
        assert_eq!(
            publishes_to(&env, "sub"),
            vec![
                ("t/a".to_owned(), vec![7]),
                ("will/pub".to_owned(), b"gone".to_vec())
            ],
            "the PUBLISH ahead of the garbage is routed, then the will fires"
        );
        assert_eq!(node.broker_stats().expect("broker").clients_connected, 1);
        assert!(!node.broker_peers.contains_key("pub"));

        // The next CONNECT starts clean: accepted, and the session works.
        env.clear();
        feed(
            &mut node,
            &mut env,
            "pub",
            encode(&Packet::Connect(Connect::new("pub"))),
        );
        assert!(matches!(
            ifot_mqtt::codec::decode(env.sent_to("pub", MQTT_CLIENT_PORT)[0]),
            Ok(Some((Packet::Connack(ack), _))) if !ack.session_present
        ));
        assert_eq!(node.broker_stats().expect("broker").clients_connected, 2);
        let publish = Packet::Publish(Publish::qos0(topic("t/b"), vec![8]));
        feed(&mut node, &mut env, "pub", encode(&publish));
        assert_eq!(publishes_to(&env, "sub"), vec![("t/b".to_owned(), vec![8])]);
        assert_eq!(env.counter("broker_decode_errors"), 1);
    }

    /// A peer whose first packet is not CONNECT is closed: its PUBLISH is
    /// not routed and its stream state is dropped; a CONNECT afterwards
    /// opens a normal session.
    #[test]
    fn hub_closes_a_peer_whose_first_packet_is_not_connect() {
        use ifot_mqtt::packet::{Connect, Publish};
        let mut node = MiddlewareNode::new(NodeConfig::new("hub").with_broker());
        let mut env = MockEnv::new();
        let mut feed = |node: &mut MiddlewareNode, src: &str, packet: Packet| {
            node.on_packet(&mut env, src, MQTT_BROKER_PORT, &encode(&packet));
        };
        let publish = Publish::qos0(TopicName::new("t/a").expect("valid topic"), vec![7]);
        feed(&mut node, "sub", Packet::Connect(Connect::new("sub")));
        feed(&mut node, "sub", subscribe_everything());
        feed(&mut node, "stray", Packet::Publish(publish.clone()));
        let stats = node.broker_stats().expect("broker");
        assert_eq!((stats.messages_in, stats.messages_out), (0, 0));
        assert!(!node.broker_peers.contains_key("stray"));

        feed(&mut node, "stray", Packet::Connect(Connect::new("stray")));
        feed(&mut node, "stray", Packet::Publish(publish));
        let stats = node.broker_stats().expect("broker");
        assert_eq!((stats.clients_connected, stats.messages_out), (2, 1));
        let sent = |dst| env.sent_to(dst, MQTT_CLIENT_PORT).len();
        assert_eq!((sent("stray"), sent("sub")), (1, 3));
    }

    /// A message frame whose producer claims 2^64 − 1 bytes and has eight
    /// behind it: the hub's stage probe reads it on any topic, the broker
    /// routes it, and the subscriber counts a decode error.
    #[test]
    fn a_hub_routes_a_publish_whose_payload_lies_about_its_lengths() {
        use ifot_mqtt::packet::{Connack, Connect, ConnectReturnCode, Publish};
        let payload = crate::wire::overflowing_frame(crate::wire::KIND_MESSAGE);

        let mut hub = MiddlewareNode::new(NodeConfig::new("hub").with_broker());
        let mut hub_env = MockEnv::new();
        let mut feed = |src: &str, packet: Packet| {
            hub.on_packet(&mut hub_env, src, MQTT_BROKER_PORT, &encode(&packet));
        };
        feed("sub", Packet::Connect(Connect::new("sub")));
        feed("sub", subscribe_everything());
        feed("peer", Packet::Connect(Connect::new("peer")));
        let topic = TopicName::new("any/topic").expect("valid topic");
        feed("peer", Packet::Publish(Publish::qos0(topic, payload)));
        assert_eq!(hub.broker_stats().expect("broker").messages_out, 1);
        assert_eq!(hub_env.counter("broker_decode_errors"), 0);

        let mut sub = MiddlewareNode::new(NodeConfig::new("sub").with_broker_node("hub"));
        let mut sub_env = MockEnv::new();
        sub.on_start(&mut sub_env);
        let connack = encode(&Packet::Connack(Connack {
            session_present: false,
            code: ConnectReturnCode::Accepted,
        }));
        sub.on_packet(&mut sub_env, "hub", MQTT_CLIENT_PORT, &connack);
        let delivery = *hub_env
            .sent_to("sub", MQTT_CLIENT_PORT)
            .last()
            .expect("a delivery");
        let delivery = Bytes::copy_from_slice(delivery);
        sub.on_packet(&mut sub_env, "hub", MQTT_CLIENT_PORT, &delivery);
        assert_eq!(sub_env.counter("messages_received"), 1);
        assert_eq!(sub_env.counter("flow_decode_errors"), 1);
    }

    #[test]
    fn corrupt_client_stream_keeps_what_decoded_and_reconnects() {
        use ifot_mqtt::packet::{Connack, ConnectReturnCode, Publish};
        let config = NodeConfig::new("n")
            .with_broker_node("hub")
            .with_persistent_session()
            .with_operator(probe_sink("p"));
        let mut node = MiddlewareNode::new(config);
        let mut env = MockEnv::new();
        fn feed(node: &mut MiddlewareNode, env: &mut MockEnv, chunk: Bytes) {
            node.on_packet(env, "hub", MQTT_CLIENT_PORT, &chunk);
        }
        /// Kinds of the packets the node sent to its broker.
        fn sent_kinds(env: &MockEnv) -> Vec<&'static str> {
            env.sent_to("hub", MQTT_BROKER_PORT)
                .into_iter()
                .map(|frame| match ifot_mqtt::codec::decode(frame) {
                    Ok(Some((packet, _))) => packet.kind_name(),
                    other => panic!("the node sent {other:?}"),
                })
                .collect()
        }
        let connack = |session_present| {
            encode(&Packet::Connack(Connack {
                session_present,
                code: ConnectReturnCode::Accepted,
            }))
        };
        let sample = |seq: u64| {
            let payload = encode_message_binary(&flow_message(seq));
            encode(&Packet::Publish(Publish::qos0(
                TopicName::new("sensor/a").expect("valid topic"),
                payload,
            )))
        };

        node.on_start(&mut env);
        feed(&mut node, &mut env, connack(false));
        assert!(node.is_connected());
        assert_eq!(sent_kinds(&env), ["CONNECT", "SUBSCRIBE"]);

        // One read: a valid PUBLISH, then a packet type that does not exist.
        let mut chunk = sample(1).to_vec();
        chunk.extend_from_slice(&[0xF0, 0x00]);
        feed(&mut node, &mut env, chunk.into());
        assert_eq!(
            node.executor.stats(0).processed,
            1,
            "the PUBLISH ahead of the garbage reaches the operator"
        );
        assert_eq!(env.counter("client_decode_errors"), 1);
        assert_eq!(env.counter("transport_lost"), 1);
        assert!(!node.is_connected());
        // What the dead connection still delivers is not read.
        feed(&mut node, &mut env, sample(2));
        assert_eq!(node.executor.stats(0).processed, 1);

        // The supervisor reconnects on its backoff schedule, and the
        // persistent session resumes on a clean stream.
        env.clear();
        for _ in 0..40 {
            env.now_ns += CLIENT_POLL_NS;
            node.on_timer(&mut env, tag(TAG_CLIENT_POLL, 0));
            if !env.sent.is_empty() {
                break;
            }
        }
        assert_eq!(sent_kinds(&env), ["CONNECT"]);
        assert_eq!(env.counter("reconnects"), 1);
        feed(&mut node, &mut env, connack(true));
        assert!(node.is_connected());
        assert_eq!(node.resilience().session_resumes, 1);
        feed(&mut node, &mut env, sample(3));
        assert_eq!(node.executor.stats(0).processed, 2);
        assert_eq!(env.counter("client_decode_errors"), 1);
    }

    #[test]
    fn sharded_ingress_is_delivered_per_frame() {
        let mut node = sharded_node(4);
        let mut env = MockEnv::new();
        for frame in 0..4u64 {
            env.now_ns = (frame + 1) * 12_500_000;
            let payload = batch_frame(frame * 8..frame * 8 + 8);
            node.dispatch_flow(&mut env, "sensor/a".into(), payload);
        }
        for i in 0..4 {
            let stats = node.executor.stats(i);
            assert_eq!(stats.batch_entries, 4, "one delivery per frame");
            assert_eq!(stats.batched_items, 8, "two items per frame per shard");
        }
    }

    #[test]
    fn retired_frame_kinds_count_a_decode_error_and_the_node_goes_on() {
        let all = OperatorSpec::sink(
            "all",
            OperatorKind::Custom {
                operator: "probe".into(),
            },
            vec!["#".into()],
        );
        let mut node = MiddlewareNode::new(NodeConfig::new("n").with_broker().with_operator(all));
        let mut env = MockEnv::new();
        for frame in crate::wire::retired_frames() {
            node.dispatch_flow(&mut env, "legacy/plane".into(), frame.into());
        }
        assert_eq!(env.counter("flow_decode_errors"), 2);
        assert_eq!(node.executor.stats(0).processed, 0);
        node.dispatch_flow(&mut env, "sensor/a".into(), batch_frame(0..4));
        assert_eq!(node.executor.stats(0).batched_items, 4);
    }
}
