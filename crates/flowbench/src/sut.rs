//! Every `NodeConfig` builder and runtime entry point the benchmark depends
//! on, in one file: a simplification PR that renames or removes one of
//! these calls re-points it here (through a benchmark issue) and nowhere
//! else. The list is repeated in the README.
//!
//! Builders used: `NodeConfig::{new, with_app, with_broker,
//! with_broker_node, with_wire_format, with_sensor, with_operator,
//! with_batching, with_workers, with_mailbox}`, `SensorSpec::new`,
//! `OperatorSpec::{through, sink, local_only, sharded}`.
//! Entry points used: `ClusterBuilder::{new, node, start}`,
//! `RunningCluster::{metrics_snapshot, stop}`, `MiddlewareNode::{new,
//! on_start, on_timer, on_packet, stage_stats, broker_stats, events}`,
//! `add_middleware_node`, `Simulation::{with_wlan, set_backlog_limit,
//! run_for, metrics}`, `TcpBroker::{bind_with, local_addr, stats,
//! wal_stats, timer_wakeups, refused_connections, service_threads,
//! shutdown}`, `BrokerConfig::{default, with_durability}`.

use std::path::Path;

use ifot_core::config::{NodeConfig, OperatorKind, OperatorSpec, SensorSpec, ShedPolicy};
use ifot_core::sim_adapter::add_middleware_node;
use ifot_core::thread_rt::{ClusterBuilder, RunningCluster};
use ifot_core::wire::WireFormat;
use ifot_mqtt::broker::BrokerConfig;
use ifot_mqtt::net::TcpBroker;
use ifot_netsim::cpu::CpuProfile;
use ifot_netsim::sim::Simulation;
use ifot_netsim::time::SimDuration;
use ifot_netsim::wlan::WlanConfig;
use ifot_sensors::sample::SensorKind;

/// Name of the sensing node of the `_rt` workloads.
pub const EDGE: &str = "edge";
/// Name of the broker + analysis node of the `_rt` workloads.
pub const HUB: &str = "hub";

/// Committed open-loop rates. Never tuned per run; the README records the
/// calibration (offered rate against the observed knee).
pub const PAPER_SENSOR_HZ: f64 = 5_000.0;
/// Sensors joined into one tuple on `paper_flow_rt`.
pub const PAPER_SENSORS: usize = 3;
/// Per-device rate of `chain_batched_rt`.
pub const CHAIN_DEVICE_HZ: f64 = 6_000.0;
/// Devices on the edge node of `chain_batched_rt`.
pub const CHAIN_DEVICES: u16 = 8;
/// Publish-side batch size of `chain_batched_rt`.
pub const CHAIN_BATCH_MAX: usize = 32;
/// Publish-side linger of `chain_batched_rt` (a 32-sample batch fills in
/// 5.3 ms at 6 kHz, so the size trigger fires first).
pub const CHAIN_LINGER_MS: u64 = 10;
/// Predict replicas (sequence shards) of `chain_batched_rt`.
pub const CHAIN_SHARDS: u64 = 4;

/// The two node configurations of an `_rt` workload, edge first.
pub struct RtNodes {
    pub edge: NodeConfig,
    pub hub: NodeConfig,
    /// Samples that make one item at the terminal stage.
    pub samples_per_item: u64,
    /// Items offered per second.
    pub offered_items_per_s: f64,
}

fn base(name: &str) -> NodeConfig {
    // Binary wire everywhere: the JSON default cannot encode under the
    // offline `serde_json` stub, and it is not the path being measured.
    NodeConfig::new(name)
        .with_broker_node(HUB)
        .with_wire_format(WireFormat::Binary)
}

/// `paper_flow_rt`: the paper's Fig. 9 pipeline on two node threads.
pub fn paper_flow_nodes(seed: u64) -> RtNodes {
    let kinds = [
        SensorKind::Temperature,
        SensorKind::Sound,
        SensorKind::Illuminance,
    ];
    let mut edge = base(EDGE);
    for (i, kind) in kinds.into_iter().enumerate() {
        edge = edge.with_sensor(SensorSpec::new(
            kind,
            i as u16 + 1,
            PAPER_SENSOR_HZ,
            seed ^ (i as u64 + 1),
        ));
    }
    let joined = "flow/paper/join";
    let hub = base(HUB)
        .with_broker()
        .with_operator(
            OperatorSpec::through(
                "join",
                OperatorKind::Join {
                    expected_sources: PAPER_SENSORS,
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
    RtNodes {
        edge,
        hub,
        samples_per_item: PAPER_SENSORS as u64,
        offered_items_per_s: PAPER_SENSOR_HZ,
    }
}

/// `chain_batched_rt`: batched publishes into a pooled three-stage chain
/// ending on four sequence-sharded predict replicas.
pub fn chain_batched_nodes(seed: u64) -> RtNodes {
    let mut edge = base(EDGE).with_batching(CHAIN_BATCH_MAX, CHAIN_LINGER_MS);
    for d in 0..CHAIN_DEVICES {
        edge = edge.with_sensor(SensorSpec::new(
            SensorKind::Sound,
            d + 1,
            CHAIN_DEVICE_HZ,
            seed ^ (u64::from(d) + 1),
        ));
    }
    let custom = |id: &str, input: &str, output: &str| {
        OperatorSpec::through(
            id,
            OperatorKind::Custom {
                operator: id.into(),
            },
            vec![input.into()],
            output,
        )
        .local_only()
    };
    let mut hub = base(HUB)
        .with_broker()
        .with_workers(2)
        .with_mailbox(1024, ShedPolicy::ShedOldest)
        .with_operator(custom("ingest", "sensor/#", "flow/chain/0"))
        .with_operator(custom("refine1", "flow/chain/0", "flow/chain/1"))
        .with_operator(custom("refine2", "flow/chain/1", "flow/chain/2"));
    for k in 0..CHAIN_SHARDS {
        hub = hub.with_operator(
            OperatorSpec::sink(
                format!("predict-{k}"),
                OperatorKind::Predict {
                    algorithm: "pa".into(),
                },
                vec!["flow/chain/2".into()],
            )
            .sharded(CHAIN_SHARDS, k),
        );
    }
    RtNodes {
        edge,
        hub,
        samples_per_item: 1,
        offered_items_per_s: CHAIN_DEVICE_HZ * f64::from(CHAIN_DEVICES),
    }
}

/// Starts the two nodes on the thread runtime with cost emulation off
/// (`node`, never `node_with_speed`).
pub fn start_cluster(nodes: &RtNodes) -> RunningCluster {
    ClusterBuilder::new()
        .node(nodes.hub.clone())
        .node(nodes.edge.clone())
        .start()
}

/// Binds the TCP broker of a `_tcp` workload on an ephemeral loopback
/// port; `durable_dir` attaches per-shard write-ahead logs (`wal_fsync`
/// stays off: disk latency is not measurable in the sandbox).
pub fn bind_broker(durable_dir: Option<&Path>) -> std::io::Result<TcpBroker> {
    let mut config = BrokerConfig::default();
    if let Some(dir) = durable_dir {
        config = config.with_durability(dir);
    }
    TcpBroker::bind_with("127.0.0.1:0", config)
}

/// The paper's real-time bound on the sensing→predicting delay.
pub const REALTIME_BOUND_MS: f64 = 1600.0;

const TESTBED_BROKER: &str = "module-d";

/// The paper's seven-node testbed (Fig. 7, class placement of Fig. 9)
/// rebuilt on `ifot-netsim` with the binary wire format:
/// `ifot_mgmt::testbed::paper_testbed` itself is JSON-only and so cannot
/// run against the offline `serde_json` stub.
pub fn paper_testbed(rate_hz: f64, seed: u64) -> Simulation {
    let mut sim = Simulation::with_wlan(WlanConfig::paper_testbed(), seed);
    let node = |name: &str| {
        NodeConfig::new(name)
            .with_app("experiment")
            .with_wire_format(WireFormat::Binary)
    };
    let kinds = [
        SensorKind::Temperature,
        SensorKind::Sound,
        SensorKind::Illuminance,
    ];
    // Modules A..C: Sensor + Publish classes.
    for (i, (name, kind)) in ["module-a", "module-b", "module-c"]
        .into_iter()
        .zip(kinds)
        .enumerate()
    {
        let cfg = node(name)
            .with_broker_node(TESTBED_BROKER)
            .with_sensor(SensorSpec::new(
                kind,
                i as u16 + 1,
                rate_hz,
                seed ^ (i as u64 + 1),
            ));
        add_middleware_node(&mut sim, CpuProfile::RASPBERRY_PI_2, cfg);
    }
    // Module D: Broker class.
    add_middleware_node(
        &mut sim,
        CpuProfile::RASPBERRY_PI_2,
        node(TESTBED_BROKER).with_broker(),
    );
    // Modules E and F: Subscribe -> Join -> Train / Predict, with the
    // bounded ingress backlog of the prototype's buffers.
    for (name, id, terminal) in [
        (
            "module-e",
            "train",
            OperatorKind::Train {
                algorithm: "pa".into(),
                mix_interval_ms: 0,
            },
        ),
        (
            "module-f",
            "predict",
            OperatorKind::Predict {
                algorithm: "pa".into(),
            },
        ),
    ] {
        let joined = format!("flow/experiment/agg-{id}");
        let cfg = node(name)
            .with_broker_node(TESTBED_BROKER)
            .with_operator(
                OperatorSpec::through(
                    format!("agg-{id}"),
                    OperatorKind::Join {
                        expected_sources: kinds.len(),
                    },
                    vec!["sensor/#".into()],
                    joined.clone(),
                )
                .local_only(),
            )
            .with_operator(OperatorSpec::sink(id, terminal, vec![joined]));
        let module = add_middleware_node(&mut sim, CpuProfile::RASPBERRY_PI_2, cfg);
        sim.set_backlog_limit(
            module,
            Some(SimDuration::from_millis(REALTIME_BOUND_MS as u64)),
        );
    }
    // The management laptop loads the channel with its keep-alive.
    add_middleware_node(
        &mut sim,
        CpuProfile::THINKPAD_X250,
        node("management").with_broker_node(TESTBED_BROKER),
    );
    sim
}
