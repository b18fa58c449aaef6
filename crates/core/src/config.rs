//! Node configuration: which classes a neuron module instantiates.
//!
//! A [`NodeConfig`] is the per-module outcome of the application build
//! process (paper Fig. 6): after the recipe is split and assigned, each
//! module receives the sensor, analysis and actuator classes it must run.

use ifot_mqtt::packet::QoS;
use ifot_sensors::inject::FaultWindow;
use ifot_sensors::sample::SensorKind;

/// Sensor + Publish class instance: sample a device at a fixed rate and
/// publish the 32-byte samples.
#[derive(Debug, Clone, PartialEq)]
pub struct SensorSpec {
    /// What to sense.
    pub kind: SensorKind,
    /// Device identifier (also part of the topic).
    pub device_id: u16,
    /// Sampling rate in Hz.
    pub rate_hz: f64,
    /// Topic to publish on (defaults to `sensor/<device>/<kind>`).
    pub topic: String,
    /// Waveform seed.
    pub seed: u64,
    /// Scheduled fault windows (anomaly injection).
    pub faults: Vec<FaultWindow>,
}

impl SensorSpec {
    /// Creates a spec with the conventional topic.
    pub fn new(kind: SensorKind, device_id: u16, rate_hz: f64, seed: u64) -> Self {
        SensorSpec {
            kind,
            device_id,
            rate_hz,
            topic: crate::flow::topics::sensor(device_id, ifot_sensors::sample::kind_slug(kind)),
            seed,
            faults: Vec::new(),
        }
    }
}

/// Which analysis operation an operator instance performs.
#[derive(Debug, Clone, PartialEq)]
pub enum OperatorKind {
    /// Join one item per source (by sequence number) into a merged datum
    /// — the `[data]` aggregation of Fig. 9.
    Join {
        /// Number of distinct source topics a tuple needs.
        expected_sources: usize,
    },
    /// Time-window aggregation (mean per datum key).
    Window {
        /// Window length in milliseconds.
        size_ms: u64,
    },
    /// Online training (Learning class).
    Train {
        /// Algorithm: `perceptron`, `pa`, `arow`.
        algorithm: String,
        /// Publish a MIX snapshot every this many milliseconds (0 = off).
        mix_interval_ms: u64,
    },
    /// Online prediction (Judging class).
    Predict {
        /// Algorithm: `perceptron`, `pa`, `arow`.
        algorithm: String,
    },
    /// Streaming anomaly scoring (Judging class).
    Anomaly {
        /// Detector: `zscore`, `mahalanobis`, `lof`.
        detector: String,
        /// Flag threshold.
        threshold: f64,
    },
    /// State estimation by exponential fusion of inputs.
    Estimate {
        /// Estimator name (reported in output messages).
        model: String,
    },
    /// Hysteresis policy: maps an upstream value into on/off decisions
    /// suitable for an `Actuate` operator downstream.
    Policy {
        /// Datum key observed (`score` reads the message score field).
        key: String,
        /// Decision switches on when the value rises above this.
        on_above: f64,
        /// Decision switches off when the value falls below this.
        off_below: f64,
        /// Datum key of emitted decisions (`power`, `level`, …).
        emit: String,
    },
    /// Drive an actuator from upstream decisions.
    Actuate {
        /// Target actuator device id (must be hosted on this node).
        device_id: u16,
    },
    /// Named pass-through operator.
    Custom {
        /// Operator name.
        operator: String,
    },
    /// MIX coordinator (Managing class): average offered snapshots.
    MixCoordinator {
        /// Snapshots per round.
        expected: usize,
    },
}

/// A configured operator instance on a node.
#[derive(Debug, Clone, PartialEq)]
pub struct OperatorSpec {
    /// Instance id (unique on the node; usually the recipe task id).
    pub id: String,
    /// The operation.
    pub kind: OperatorKind,
    /// Input topic filters (MQTT wildcards allowed).
    pub inputs: Vec<String>,
    /// Output topic, if the operator emits.
    pub output: Option<String>,
    /// Whether emitted items are also published to the broker (they are
    /// always offered to co-located operators).
    pub publish_output: bool,
    /// Optional `(modulus, index)` sequence shard: the operator only
    /// consumes items whose `seq % modulus == index`. Replicating one
    /// task across modules with complementary shards parallelizes it —
    /// the "further parallelization / decentralization of processing
    /// tasks" the paper's conclusion calls for.
    pub shard: Option<(u64, u64)>,
}

impl OperatorSpec {
    /// Creates an operator with no output.
    pub fn sink(id: impl Into<String>, kind: OperatorKind, inputs: Vec<String>) -> Self {
        OperatorSpec {
            id: id.into(),
            kind,
            inputs,
            output: None,
            publish_output: false,
            shard: None,
        }
    }

    /// Creates an operator publishing to `output`.
    pub fn through(
        id: impl Into<String>,
        kind: OperatorKind,
        inputs: Vec<String>,
        output: impl Into<String>,
    ) -> Self {
        OperatorSpec {
            id: id.into(),
            kind,
            inputs,
            output: Some(output.into()),
            publish_output: true,
            shard: None,
        }
    }

    /// Turns off broker publication (co-located consumers only).
    pub fn local_only(mut self) -> Self {
        self.publish_output = false;
        self
    }

    /// Restricts the operator to the sequence shard `index` of `modulus`
    /// (see [`OperatorSpec::shard`]).
    ///
    /// # Panics
    ///
    /// Panics if `modulus == 0` or `index >= modulus`.
    pub fn sharded(mut self, modulus: u64, index: u64) -> Self {
        assert!(modulus > 0, "shard modulus must be positive");
        assert!(index < modulus, "shard index must be below the modulus");
        self.shard = Some((modulus, index));
        self
    }

    /// Whether this operator consumes messages arriving on `topic`.
    pub fn accepts(&self, topic: &str) -> bool {
        let Ok(name) = ifot_mqtt::topic::TopicName::new(topic) else {
            return false;
        };
        self.inputs.iter().any(|f| {
            ifot_mqtt::topic::TopicFilter::new(f.clone())
                .map(|f| f.matches(&name))
                .unwrap_or(false)
        })
    }

    /// The flush period for window operators, if any.
    pub fn flush_period_ms(&self) -> Option<u64> {
        match &self.kind {
            OperatorKind::Window { size_ms } => Some(*size_ms),
            _ => None,
        }
    }

    /// The MIX offer period for training operators, if enabled.
    pub fn mix_period_ms(&self) -> Option<u64> {
        match &self.kind {
            OperatorKind::Train {
                mix_interval_ms, ..
            } if *mix_interval_ms > 0 => Some(*mix_interval_ms),
            _ => None,
        }
    }
}

/// What a bounded stage mailbox does when it is full and another work
/// item arrives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedPolicy {
    /// The producer waits for space (lossless backpressure; on the
    /// deterministic runtime the mailbox grows instead — virtual time
    /// already models the queueing delay).
    Block,
    /// Drop the oldest queued item to admit the new one (bounded
    /// staleness: fresh data wins).
    ShedOldest,
    /// Drop the incoming item (bounded loss: in-flight data wins).
    ShedNewest,
}

/// Tuning of the staged dataflow executor that runs a node's operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutorConfig {
    /// Worker threads executing stages (`0` = inline: operators run on
    /// the node's own event loop, the only mode on the deterministic
    /// runtime).
    pub workers: usize,
    /// Bounded mailbox depth per stage.
    pub mailbox_capacity: usize,
    /// Overflow behaviour of a full mailbox.
    pub shed_policy: ShedPolicy,
    /// Adaptive shed escalation: once a `Block` stage observes a
    /// queue-wait above this many milliseconds it flips itself to
    /// `ShedOldest` — blocking has already broken the real-time bound,
    /// so bounded staleness beats unbounded delay. `0` disables. The
    /// default is the paper's 1.6 s real-time bound
    /// ([`crate::costs::REALTIME_BOUND_MS`]).
    pub escalate_wait_ms: u64,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig {
            workers: 0,
            mailbox_capacity: 256,
            shed_policy: ShedPolicy::Block,
            escalate_wait_ms: crate::costs::REALTIME_BOUND_MS,
        }
    }
}

/// Actuator class instance hosted on a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActuatorKindSpec {
    /// An air conditioner.
    AirConditioner,
    /// A dimmable light.
    CeilingLight,
    /// An alert sink.
    AlertSink,
}

/// A configured actuator device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActuatorSpec {
    /// Device identifier.
    pub device_id: u16,
    /// Device type.
    pub kind: ActuatorKindSpec,
}

/// Full configuration of one neuron module.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeConfig {
    /// Node name (must match the transport registration).
    pub name: String,
    /// Application (recipe) name; namespaces the `mix/...` model-plane
    /// topics shared by distributed trainers.
    pub app: String,
    /// Run a Broker class on this node.
    pub run_broker: bool,
    /// Routing shards for the embedded broker (hash of client id).
    /// `1` reproduces single-broker behaviour; the default follows
    /// [`ifot_mqtt::BrokerConfig`].
    pub broker_shards: usize,
    /// Write-ahead durability directory for the embedded broker. When
    /// set, the broker journals persistent sessions, subscriptions,
    /// retained messages and QoS 1/2 in-flight state to per-shard WAL +
    /// snapshot files under this directory and replays them on startup.
    /// `None` (the default) keeps the seed's in-memory behaviour.
    pub broker_durability: Option<std::path::PathBuf>,
    /// Node name of the broker to connect the client to (`None` for a
    /// broker-only or isolated node).
    pub broker_node: Option<String>,
    /// Sensor + Publish class instances.
    pub sensors: Vec<SensorSpec>,
    /// Analysis operator instances.
    pub operators: Vec<OperatorSpec>,
    /// Actuator class instances.
    pub actuators: Vec<ActuatorSpec>,
    /// QoS used for sample/flow publication.
    pub publish_qos: QoS,
    /// MQTT keep-alive in seconds.
    pub keep_alive_secs: u16,
    /// Request a persistent broker session (`clean_session = false`):
    /// the broker queues QoS 1/2 deliveries across disconnects and
    /// resumes subscriptions on reconnect.
    pub persistent_session: bool,
    /// Capacity of the offline publish queue: payloads produced while
    /// the client is disconnected are buffered (oldest dropped beyond
    /// this bound) and flushed on reconnect. 0 disables buffering.
    pub offline_queue_capacity: usize,
    /// Participate in the discovery plane: publish a retained
    /// announcement on connect and an offline last will (see
    /// [`crate::discovery`]).
    pub announce: bool,
    /// Maintain a local [`crate::discovery::FlowDirectory`] by
    /// subscribing to the announcement plane.
    pub track_directory: bool,
    /// Staged-executor tuning (worker pool, mailbox bounds, shedding).
    pub executor: ExecutorConfig,
    /// Micro-batching: maximum items coalesced into one
    /// [`crate::flow::FlowBatch`] publish per topic.
    pub batch_max: usize,
    /// Micro-batching: maximum milliseconds an item waits for batch
    /// companions before the pending batch is flushed. `0` disables
    /// batching entirely (the seed behaviour: one publish per item).
    pub batch_linger_ms: u64,
    /// Micro-batching: derive the effective linger from the observed
    /// publish rate instead of always waiting `batch_linger_ms`. Low-rate
    /// flows (inter-arrival at or above the linger window) flush
    /// immediately and keep per-sample latency; bursts shrink the window
    /// to roughly the time a full batch takes to accumulate. The
    /// configured `batch_linger_ms` stays the upper bound.
    pub adaptive_linger: bool,
    /// Ingress re-coalescing for sequence-sharded stages: a sharded
    /// replica receives `1/modulus` of every frame, so batch
    /// amortization collapses exactly where replication should buy
    /// throughput. When enabled, dispatch accumulates each sharded
    /// stage's sub-batches across consecutive frames up to `batch_max`
    /// items, bounded by a linger derived from the observed frame
    /// inter-arrival EWMA (same constants as the adaptive publish
    /// linger, capped well inside the 1.6 s real-time bound), and
    /// flushes on the size trigger, the linger timer, any control
    /// message or stage timer for that stage, and shutdown. Off by
    /// default: per-frame dispatch order — and therefore seeded netsim
    /// trace digests — is unchanged at defaults.
    pub stage_coalesce: bool,
}

impl NodeConfig {
    /// Creates an empty node with the given name (no classes).
    pub fn new(name: impl Into<String>) -> Self {
        NodeConfig {
            name: name.into(),
            app: "app".to_owned(),
            run_broker: false,
            broker_shards: ifot_mqtt::BrokerConfig::default().shards,
            broker_durability: None,
            broker_node: None,
            sensors: Vec::new(),
            operators: Vec::new(),
            actuators: Vec::new(),
            publish_qos: QoS::AtMostOnce,
            keep_alive_secs: 30,
            persistent_session: false,
            offline_queue_capacity: 64,
            announce: false,
            track_directory: false,
            executor: ExecutorConfig::default(),
            batch_max: 32,
            batch_linger_ms: 0,
            adaptive_linger: false,
            stage_coalesce: false,
        }
    }

    /// Does nothing: the flow plane has one encoding. Kept because the
    /// benchmark's `sut.rs` calls it; it goes when that call does.
    pub fn with_wire_format(self, _format: crate::wire::WireFormat) -> Self {
        self
    }

    /// Enables micro-batching (builder style): coalesce up to
    /// `batch_max` items or `linger_ms` milliseconds per topic into one
    /// batch publish. `linger_ms = 0` turns batching off.
    pub fn with_batching(mut self, batch_max: usize, linger_ms: u64) -> Self {
        self.batch_max = batch_max.max(1);
        self.batch_linger_ms = linger_ms;
        self
    }

    /// Makes the micro-batch linger adapt to the observed publish rate
    /// (builder style; see [`NodeConfig::adaptive_linger`]). Only
    /// meaningful together with [`NodeConfig::with_batching`].
    pub fn with_adaptive_linger(mut self) -> Self {
        self.adaptive_linger = true;
        self
    }

    /// Re-coalesces sequence-shard sub-batches at dispatch so sharded
    /// replicas see full batches again (builder style; see
    /// [`NodeConfig::stage_coalesce`]). `batch_max` bounds the merged
    /// batch size.
    pub fn with_stage_coalescing(mut self) -> Self {
        self.stage_coalesce = true;
        self
    }

    /// Sets the executor worker-pool size (builder style; `0` = inline).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.executor.workers = workers;
        self
    }

    /// Sets the per-stage mailbox capacity and shed policy (builder
    /// style).
    pub fn with_mailbox(mut self, capacity: usize, policy: ShedPolicy) -> Self {
        self.executor.mailbox_capacity = capacity.max(1);
        self.executor.shed_policy = policy;
        self
    }

    /// Enables discovery-plane announcements (builder style).
    pub fn with_announce(mut self) -> Self {
        self.announce = true;
        self
    }

    /// Maintains a local directory of announced nodes/streams (builder
    /// style).
    pub fn with_directory(mut self) -> Self {
        self.track_directory = true;
        self
    }

    /// Sets the application (recipe) name.
    pub fn with_app(mut self, app: impl Into<String>) -> Self {
        self.app = app.into();
        self
    }

    /// Enables the Broker class (builder style).
    pub fn with_broker(mut self) -> Self {
        self.run_broker = true;
        self
    }

    /// Sets the embedded broker's routing shard count (builder style).
    pub fn with_broker_shards(mut self, shards: usize) -> Self {
        self.broker_shards = shards.max(1);
        self
    }

    /// Enables write-ahead durability for the embedded broker, rooted at
    /// `dir` (builder style). See [`NodeConfig::broker_durability`].
    pub fn with_durability(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.broker_durability = Some(dir.into());
        self
    }

    /// Connects the node's client to the named broker node.
    pub fn with_broker_node(mut self, broker: impl Into<String>) -> Self {
        self.broker_node = Some(broker.into());
        self
    }

    /// Adds a sensor class.
    pub fn with_sensor(mut self, spec: SensorSpec) -> Self {
        self.sensors.push(spec);
        self
    }

    /// Adds an operator.
    pub fn with_operator(mut self, spec: OperatorSpec) -> Self {
        self.operators.push(spec);
        self
    }

    /// Adds an actuator.
    pub fn with_actuator(mut self, spec: ActuatorSpec) -> Self {
        self.actuators.push(spec);
        self
    }

    /// Sets the publication QoS.
    pub fn with_qos(mut self, qos: QoS) -> Self {
        self.publish_qos = qos;
        self
    }

    /// Sets the MQTT keep-alive interval (also the base of dead-peer
    /// detection: a peer silent for 1.5× this is declared lost).
    pub fn with_keep_alive(mut self, secs: u16) -> Self {
        self.keep_alive_secs = secs;
        self
    }

    /// Requests a persistent broker session (builder style).
    pub fn with_persistent_session(mut self) -> Self {
        self.persistent_session = true;
        self
    }

    /// Sets the offline publish-queue capacity (builder style).
    pub fn with_offline_queue(mut self, capacity: usize) -> Self {
        self.offline_queue_capacity = capacity;
        self
    }

    /// Every topic filter this node's operators subscribe to
    /// (deduplicated, order-preserving).
    pub fn subscription_filters(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for op in &self.operators {
            for input in &op.inputs {
                if !out.contains(input) {
                    out.push(input.clone());
                }
            }
        }
        if self.track_directory {
            let announce = crate::discovery::announce_filter();
            if !out.contains(&announce) {
                out.push(announce);
            }
        }
        out
    }

    /// Basic sanity validation of the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem: duplicate operator
    /// ids, an `Actuate` operator without its actuator device, a client
    /// configured without any class needing it.
    pub fn validate(&self) -> Result<(), String> {
        let mut ids = std::collections::BTreeSet::new();
        for op in &self.operators {
            if !ids.insert(op.id.as_str()) {
                return Err(format!("duplicate operator id {:?}", op.id));
            }
            if let OperatorKind::Actuate { device_id } = op.kind {
                if !self.actuators.iter().any(|a| a.device_id == device_id) {
                    return Err(format!(
                        "operator {:?} actuates device {} which is not hosted here",
                        op.id, device_id
                    ));
                }
            }
            if let OperatorKind::Join { expected_sources } = op.kind {
                if expected_sources == 0 {
                    return Err(format!("operator {:?} joins zero sources", op.id));
                }
            }
        }
        for sensor in &self.sensors {
            if let Err(e) = ifot_mqtt::topic::TopicName::new(&sensor.topic) {
                return Err(format!(
                    "sensor {} publishes on {:?}, not a topic name: {e}",
                    sensor.device_id, sensor.topic
                ));
            }
        }
        let needs_client = !self.sensors.is_empty() || !self.operators.is_empty();
        if needs_client && self.broker_node.is_none() && !self.run_broker {
            return Err(format!(
                "node {:?} runs classes but has no broker to talk to",
                self.name
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let cfg = NodeConfig::new("e")
            .with_broker_node("d")
            .with_sensor(SensorSpec::new(SensorKind::Sound, 1, 5.0, 9))
            .with_operator(OperatorSpec::sink(
                "train",
                OperatorKind::Train {
                    algorithm: "pa".into(),
                    mix_interval_ms: 0,
                },
                vec!["sensor/#".into()],
            ))
            .with_qos(QoS::AtLeastOnce);
        assert_eq!(cfg.name, "e");
        assert_eq!(cfg.publish_qos, QoS::AtLeastOnce);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn sensor_topic_must_be_a_topic_name() {
        let mut sensor = SensorSpec::new(SensorKind::Sound, 1, 5.0, 9);
        sensor.topic = "sensor/+/sound".into();
        let cfg = NodeConfig::new("e")
            .with_broker_node("d")
            .with_sensor(sensor);
        let refused = cfg.validate().expect_err("a wildcard is no topic name");
        assert!(refused.contains("not a topic name"), "{refused}");
    }

    #[test]
    fn default_sensor_topic_is_conventional() {
        let s = SensorSpec::new(SensorKind::Accelerometer, 4, 20.0, 1);
        assert_eq!(s.topic, "sensor/4/accel");
    }

    #[test]
    fn subscription_filters_deduplicate() {
        let cfg = NodeConfig::new("n")
            .with_broker_node("d")
            .with_operator(OperatorSpec::sink(
                "a",
                OperatorKind::Custom {
                    operator: "x".into(),
                },
                vec!["s/#".into(), "t/1".into()],
            ))
            .with_operator(OperatorSpec::sink(
                "b",
                OperatorKind::Custom {
                    operator: "y".into(),
                },
                vec!["s/#".into()],
            ));
        assert_eq!(cfg.subscription_filters(), vec!["s/#", "t/1"]);
    }

    #[test]
    fn validation_catches_duplicate_ids() {
        let cfg = NodeConfig::new("n")
            .with_broker_node("d")
            .with_operator(OperatorSpec::sink(
                "same",
                OperatorKind::Custom {
                    operator: "x".into(),
                },
                vec![],
            ))
            .with_operator(OperatorSpec::sink(
                "same",
                OperatorKind::Custom {
                    operator: "y".into(),
                },
                vec![],
            ));
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validation_catches_unhosted_actuator() {
        let cfg = NodeConfig::new("n")
            .with_broker_node("d")
            .with_operator(OperatorSpec::sink(
                "act",
                OperatorKind::Actuate { device_id: 7 },
                vec!["flow/#".into()],
            ));
        assert!(cfg.validate().is_err());
        let ok = cfg.with_actuator(ActuatorSpec {
            device_id: 7,
            kind: ActuatorKindSpec::AlertSink,
        });
        assert!(ok.validate().is_ok());
    }

    #[test]
    fn validation_requires_a_broker_for_active_nodes() {
        let cfg = NodeConfig::new("n").with_sensor(SensorSpec::new(SensorKind::Sound, 1, 1.0, 1));
        assert!(cfg.validate().is_err());
        assert!(cfg.clone().with_broker_node("d").validate().is_ok());
        assert!(cfg.with_broker().validate().is_ok());
    }

    #[test]
    fn executor_config_builders() {
        let cfg = NodeConfig::new("n")
            .with_workers(4)
            .with_mailbox(0, ShedPolicy::ShedOldest);
        assert_eq!(cfg.executor.workers, 4);
        assert_eq!(cfg.executor.mailbox_capacity, 1, "capacity clamps to 1");
        assert_eq!(cfg.executor.shed_policy, ShedPolicy::ShedOldest);
        assert_eq!(NodeConfig::new("m").executor, ExecutorConfig::default());
    }

    #[test]
    fn batching_builders() {
        let cfg = NodeConfig::new("n");
        assert_eq!(cfg.batch_linger_ms, 0, "batching defaults off");
        assert!(!cfg.adaptive_linger, "adaptive linger defaults off");
        assert_eq!(
            cfg.executor.escalate_wait_ms,
            crate::costs::REALTIME_BOUND_MS
        );
        let cfg = cfg.with_batching(0, 50).with_adaptive_linger();
        assert_eq!(cfg.batch_max, 1, "batch_max clamps to 1");
        assert_eq!(cfg.batch_linger_ms, 50);
        assert!(cfg.adaptive_linger);
    }

    #[test]
    fn operator_spec_constructors() {
        let t = OperatorSpec::through(
            "w",
            OperatorKind::Window { size_ms: 100 },
            vec!["in".into()],
            "out",
        );
        assert!(t.publish_output);
        assert_eq!(t.output.as_deref(), Some("out"));
        let l = t.local_only();
        assert!(!l.publish_output);
        let s = OperatorSpec::sink(
            "s",
            OperatorKind::Join {
                expected_sources: 3,
            },
            vec![],
        );
        assert!(s.output.is_none());
    }
}
