//! Ablation and supplementary studies (DESIGN.md §5), the paper's Tables
//! II and III, and the two supplementary paper figures (the Fig. 9 stage
//! breakdown, Fig. 1 quantified), pinned.
//!
//! Each test runs one study on the simulator at fixed seeds and compares
//! its table with the one pinned below: counts exactly, virtual-time
//! milliseconds to 0.001, utilizations and model distances to 0.0001.
//! The simulator is deterministic, so a changed row means the code on the
//! virtual-time path changed what it computes; re-pin only together with
//! the EXPERIMENTS.md table that quotes it. `--nocapture` prints the
//! tables.
//!
//!   cargo test --test ablations -- --nocapture

mod common;

use common::model_distance;
use ifot::core::config::{NodeConfig, OperatorKind, OperatorSpec, SensorSpec};
use ifot::core::deploy::deploy;
use ifot::core::sim_adapter::{add_middleware_node, SimNode};
use ifot::mgmt::experiment::{check_shape, run_paper_sweep, run_rate};
use ifot::mgmt::testbed::{paper_testbed, TestbedConfig};
use ifot::mqtt::packet::QoS;
use ifot::netsim::cpu::CpuProfile;
use ifot::netsim::sim::Simulation;
use ifot::netsim::time::{SimDuration, SimTime};
use ifot::netsim::wlan::WlanConfig;
use ifot::recipe::assign::{
    AssignmentStrategy, CapabilityAware, LoadAware, ModuleInfo, RoundRobin,
};
use ifot::recipe::model::fig5_elderly_monitoring;
use ifot::sensors::sample::SensorKind;

/// Prints `rows` under `title` and fails if they differ from `pinned`.
fn check(title: &str, rows: &[String], pinned: &[&str]) {
    println!("{title}");
    for row in rows {
        println!("  {row}");
    }
    assert_eq!(rows, pinned, "{title}: the table drifted from its pin");
}

/// The Fig. 9 sensors: temperature, sound and illuminance at `rate_hz`,
/// each publishing through `broker`.
fn fig9_sensors(sim: &mut Simulation, broker: &str, rate_hz: f64) {
    for (i, kind) in [
        SensorKind::Temperature,
        SensorKind::Sound,
        SensorKind::Illuminance,
    ]
    .into_iter()
    .enumerate()
    {
        add_middleware_node(
            sim,
            CpuProfile::RASPBERRY_PI_2,
            NodeConfig::new(format!("sensor-{i}"))
                .with_broker_node(broker)
                .with_sensor(SensorSpec::new(kind, (i + 1) as u16, rate_hz, 7 + i as u64)),
        );
    }
}

fn train_pa() -> OperatorKind {
    OperatorKind::Train {
        algorithm: "pa".into(),
        mix_interval_ms: 0,
    }
}

/// Aggregation strategy: the Fig. 9 sequence join against time windows of
/// growing size, three sensors at 10 Hz for 5 s, seed 77. Bigger windows
/// mean fewer train calls and a longer batching wait.
#[test]
fn batch() {
    let run = |aggregator: OperatorKind, label: &str| {
        let mut sim = Simulation::new(77);
        add_middleware_node(
            &mut sim,
            CpuProfile::RASPBERRY_PI_2,
            NodeConfig::new("broker").with_broker(),
        );
        fig9_sensors(&mut sim, "broker", 10.0);
        add_middleware_node(
            &mut sim,
            CpuProfile::RASPBERRY_PI_2,
            NodeConfig::new("analysis")
                .with_broker_node("broker")
                .with_operator(
                    OperatorSpec::through(
                        format!("agg-{label}"),
                        aggregator,
                        vec!["sensor/#".into()],
                        "flow/ablation/agg",
                    )
                    .local_only(),
                )
                .with_operator(OperatorSpec::sink(
                    "train",
                    train_pa(),
                    vec!["flow/ablation/agg".into()],
                )),
        );
        sim.run_for(SimDuration::from_secs(5));
        let s = sim.metrics().latency_summary("sensing_to_training");
        format!(
            "{label}: calls={} avg_ms={:.3} max_ms={:.3}",
            s.count, s.mean_ms, s.max_ms
        )
    };
    let mut rows = vec![run(
        OperatorKind::Join {
            expected_sources: 3,
        },
        "join",
    )];
    for size_ms in [25u64, 50, 100, 200, 400] {
        rows.push(run(
            OperatorKind::Window { size_ms },
            &format!("w{size_ms}"),
        ));
    }
    check(
        "aggregation: join vs time windows",
        &rows,
        &[
            "join: calls=49 avg_ms=68.833 max_ms=375.296",
            "w25: calls=56 avg_ms=83.850 max_ms=325.009",
            "w50: calls=50 avg_ms=108.159 max_ms=378.784",
            "w100: calls=33 avg_ms=162.839 max_ms=276.948",
            "w200: calls=20 avg_ms=265.633 max_ms=538.934",
            "w400: calls=11 avg_ms=457.960 max_ms=527.393",
        ],
    );
}

/// QoS 0 vs 1 vs 2 on the paper testbed with 5 % WLAN loss, 10 Hz, 5 s,
/// summed over seeds 1–6 (counts are per-seed means, rounded down).
#[test]
fn qos() {
    const SEEDS: [u64; 6] = [1, 2, 3, 4, 5, 6];
    let mut rows = Vec::new();
    let mut received = Vec::new();
    let mut frames = Vec::new();
    for (label, qos) in [
        ("qos0", QoS::AtMostOnce),
        ("qos1", QoS::AtLeastOnce),
        ("qos2", QoS::ExactlyOnce),
    ] {
        let (mut rx, mut tuples, mut avg_ms, mut max_ms, mut wlan) = (0, 0, 0.0, 0.0f64, 0);
        for seed in SEEDS {
            let mut config = TestbedConfig::paper(10.0).with_qos(qos).with_seed(seed);
            config.wlan.loss_prob = 0.05;
            let mut sim = paper_testbed(&config);
            sim.run_for(SimDuration::from_secs(5));
            let m = sim.metrics();
            rx += m.counter("messages_received");
            tuples += m.counter("join_emitted");
            let s = m.latency_summary("sensing_to_training");
            avg_ms += s.mean_ms;
            max_ms = max_ms.max(s.max_ms);
            wlan += sim.wlan().stats().frames;
        }
        let n = SEEDS.len() as u64;
        rows.push(format!(
            "{label}: received={} tuples={} avg_ms={:.3} max_ms={:.3} wlan_frames={}",
            rx / n,
            tuples / n,
            avg_ms / n as f64,
            max_ms,
            wlan / n
        ));
        received.push(rx);
        frames.push(wlan);
    }
    check(
        "qos on a 5% lossy WLAN",
        &rows,
        &[
            "qos0: received=260 tuples=71 avg_ms=98.759 max_ms=1382.204 wlan_frames=442",
            "qos1: received=293 tuples=82 avg_ms=624.146 max_ms=4502.366 wlan_frames=935",
            "qos2: received=274 tuples=84 avg_ms=555.014 max_ms=4469.414 wlan_frames=1733",
        ],
    );
    assert!(
        received[1] > received[0],
        "qos1 must deliver more messages under loss"
    );
    assert!(frames[1] > frames[0], "qos1 must cost more channel frames");
}

/// Task assignment: the Fig. 5 recipe deployed by each strategy onto five
/// modules (module-d twice as fast), 5 s, seed 31.
#[test]
fn assign() {
    let pool = vec![
        ModuleInfo::new("module-a", 1.0).with_capability("sensor:accel"),
        ModuleInfo::new("module-b", 1.0)
            .with_capability("sensor:sound")
            .with_capability("sensor:motion"),
        ModuleInfo::new("module-c", 1.0).with_capability("sensor:illuminance"),
        ModuleInfo::new("module-d", 2.0),
        ModuleInfo::new("module-e", 1.0).with_capability("actuator:alert"),
    ];
    let mut rows = Vec::new();
    for strategy in [
        &RoundRobin as &dyn AssignmentStrategy,
        &CapabilityAware,
        &LoadAware,
    ] {
        let plan = deploy(&fig5_elderly_monitoring(), &pool, strategy, "module-d")
            .expect("deployment succeeds");
        let mut sim = Simulation::new(31);
        let mut ids = Vec::new();
        for cfg in plan.configs {
            let fast = pool.iter().any(|m| m.name == cfg.name && m.speed == 2.0);
            let profile = if fast {
                CpuProfile::new("fast-module", 2.0, 1)
            } else {
                CpuProfile::RASPBERRY_PI_2
            };
            ids.push(add_middleware_node(&mut sim, profile, cfg));
        }
        sim.run_for(SimDuration::from_secs(5));
        let s = sim.metrics().latency_summary("sensing_to_anomaly");
        let peak = ids
            .iter()
            .map(|&id| sim.cpu(id).utilization(sim.now()))
            .fold(0.0f64, f64::max);
        rows.push(format!(
            "{}: avg_ms={:.3} max_ms={:.3} peak_util={:.4}",
            strategy.name(),
            s.mean_ms,
            s.max_ms,
            peak
        ));
    }
    check(
        "assignment strategy on the Fig. 5 recipe",
        &rows,
        &[
            "round-robin: avg_ms=18.821 max_ms=207.118 peak_util=0.2162",
            "capability-aware: avg_ms=17.037 max_ms=204.918 peak_util=0.1989",
            "load-aware: avg_ms=17.305 max_ms=112.316 peak_util=0.1995",
        ],
    );
}

/// MIX interval: two areas train on disjoint streams (person flow, sound;
/// 10 Hz, 10 s, seed 55) and a gateway mixes them every interval (0 = no
/// MIX). Reports model-plane offers and imports, WLAN bytes, and the
/// squared distance between the two areas' models at the end.
#[test]
fn mix() {
    let run = |mix_interval_ms: u64| {
        let mut sim = Simulation::new(55);
        let mut gateway = NodeConfig::new("gateway")
            .with_app("mob")
            .with_broker()
            .with_broker_node("gateway");
        if mix_interval_ms > 0 {
            gateway = gateway.with_operator(OperatorSpec::sink(
                "coordinator",
                OperatorKind::MixCoordinator { expected: 2 },
                vec!["mix/mob/area-a/offer".into(), "mix/mob/area-b/offer".into()],
            ));
        }
        add_middleware_node(&mut sim, CpuProfile::THINKPAD_X250, gateway);
        let area = |name: &str, task: &str, kind: SensorKind, slug: &str, device: u16, seed| {
            let mut inputs = vec![format!("sensor/{device}/{slug}")];
            if mix_interval_ms > 0 {
                inputs.push(format!("mix/mob/{task}/avg"));
            }
            NodeConfig::new(name)
                .with_app("mob")
                .with_broker_node("gateway")
                .with_sensor(SensorSpec::new(kind, device, 10.0, seed))
                .with_operator(OperatorSpec::sink(
                    task,
                    OperatorKind::Train {
                        algorithm: "pa".into(),
                        mix_interval_ms,
                    },
                    inputs,
                ))
        };
        let a = add_middleware_node(
            &mut sim,
            CpuProfile::RASPBERRY_PI_2,
            area(
                "area-a-node",
                "area-a",
                SensorKind::PersonFlow,
                "personflow",
                1,
                1,
            ),
        );
        let b = add_middleware_node(
            &mut sim,
            CpuProfile::RASPBERRY_PI_2,
            area("area-b-node", "area-b", SensorKind::Sound, "sound", 2, 2),
        );
        sim.run_for(SimDuration::from_secs(10));
        let export = |id, task: &str| {
            let node: &SimNode = sim.actor_as(id).expect("node present");
            node.middleware()
                .classifier(task)
                .map(|m| m.export_diff())
                .expect("trainer has a model")
        };
        let distance = model_distance(&export(a, "area-a"), &export(b, "area-b"));
        (
            sim.metrics().counter("mix_offered"),
            sim.metrics().counter("mix_imports"),
            sim.wlan().stats().bytes,
            distance,
        )
    };
    let mut rows = Vec::new();
    let mut distances = Vec::new();
    for interval in [0u64, 2_000, 1_000, 500] {
        let (offers, imports, bytes, distance) = run(interval);
        rows.push(format!(
            "{interval} ms: offers={offers} imports={imports} wlan_bytes={bytes} dist2={distance:.4}"
        ));
        distances.push(distance);
    }
    check(
        "MIX interval (0 ms = off)",
        &rows,
        &[
            "0 ms: offers=0 imports=0 wlan_bytes=21035 dist2=0.0184",
            "2000 ms: offers=8 imports=8 wlan_bytes=24000 dist2=0.0241",
            "1000 ms: offers=18 imports=18 wlan_bytes=27760 dist2=0.0064",
            "500 ms: offers=38 imports=36 wlan_bytes=34771 dist2=0.0127",
        ],
    );
    assert!(
        distances[3] < distances[0],
        "frequent mixing must reduce model distance ({} vs {})",
        distances[3],
        distances[0]
    );
}

/// Scaling: the Fig. 9 training pipeline sharded by tuple sequence across
/// K trainer replicas (1600 ms backlog bound each), 40 and 80 Hz, 5 s,
/// seed 2016 — the "further parallelization" the paper names.
#[test]
fn scaling() {
    let run = |rate_hz: f64, replicas: u64| {
        let mut sim = Simulation::new(2016);
        add_middleware_node(
            &mut sim,
            CpuProfile::RASPBERRY_PI_2,
            NodeConfig::new("broker").with_broker(),
        );
        fig9_sensors(&mut sim, "broker", rate_hz);
        let mut trainers = Vec::new();
        for k in 0..replicas {
            let id = add_middleware_node(
                &mut sim,
                CpuProfile::RASPBERRY_PI_2,
                NodeConfig::new(format!("trainer-{k}"))
                    .with_broker_node("broker")
                    .with_operator(
                        OperatorSpec::through(
                            "agg",
                            OperatorKind::Join {
                                expected_sources: 3,
                            },
                            vec!["sensor/#".into()],
                            "flow/scale/agg",
                        )
                        .local_only()
                        .sharded(replicas, k),
                    )
                    .with_operator(OperatorSpec::sink(
                        "train",
                        train_pa(),
                        vec!["flow/scale/agg".into()],
                    )),
            );
            sim.set_backlog_limit(id, Some(SimDuration::from_millis(1600)));
            trainers.push(id);
        }
        sim.run_for(SimDuration::from_secs(5));
        let s = sim.metrics().latency_summary("sensing_to_training");
        let peak = trainers
            .iter()
            .map(|&id| sim.cpu(id).utilization(SimTime::from_secs(5)))
            .fold(0.0f64, f64::max);
        (s.count, s.mean_ms, s.max_ms, peak)
    };
    let mut rows = Vec::new();
    let mut at_40 = Vec::new();
    for rate in [40.0f64, 80.0] {
        for k in [1u64, 2, 4] {
            let (n, avg, max, peak) = run(rate, k);
            rows.push(format!(
                "{rate} Hz x{k}: tuples={n} avg_ms={avg:.3} max_ms={max:.3} peak_util={peak:.4}"
            ));
            if rate == 40.0 {
                at_40.push(avg);
            }
        }
    }
    check(
        "training replicas vs delay",
        &rows,
        &[
            "40 Hz x1: tuples=123 avg_ms=1250.179 max_ms=1761.559 peak_util=1.0000",
            "40 Hz x2: tuples=189 avg_ms=279.535 max_ms=563.199 peak_util=1.0000",
            "40 Hz x4: tuples=194 avg_ms=71.368 max_ms=280.428 peak_util=0.5381",
            "80 Hz x1: tuples=115 avg_ms=1408.947 max_ms=1769.414 peak_util=1.0000",
            "80 Hz x2: tuples=247 avg_ms=1292.208 max_ms=1869.889 peak_util=1.0000",
            "80 Hz x4: tuples=313 avg_ms=607.884 max_ms=1072.741 peak_util=0.9388",
        ],
    );
    assert!(
        at_40[2] < at_40[0] / 4.0,
        "4 replicas must beat 1 by >4x at 40 Hz: {at_40:?}"
    );
}

/// Everything of Fig. 9 (three sensors, broker, join, train and predict)
/// on one module against the paper's six-module placement, 5 s, seed
/// 2016, at 5, 10 and 20 Hz.
#[test]
fn centralized() {
    let monolith = |rate_hz: f64| {
        let mut sim = Simulation::new(2016);
        let mut cfg = NodeConfig::new("monolith")
            .with_broker()
            .with_broker_node("monolith");
        for (i, kind) in [
            SensorKind::Temperature,
            SensorKind::Sound,
            SensorKind::Illuminance,
        ]
        .into_iter()
        .enumerate()
        {
            cfg = cfg.with_sensor(SensorSpec::new(kind, (i + 1) as u16, rate_hz, 7 + i as u64));
        }
        for (id, terminal) in [
            ("train", train_pa()),
            (
                "predict",
                OperatorKind::Predict {
                    algorithm: "pa".into(),
                },
            ),
        ] {
            cfg = cfg
                .with_operator(
                    OperatorSpec::through(
                        format!("agg-{id}"),
                        OperatorKind::Join {
                            expected_sources: 3,
                        },
                        vec!["sensor/#".into()],
                        format!("flow/mono/agg-{id}"),
                    )
                    .local_only(),
                )
                .with_operator(OperatorSpec::sink(
                    id,
                    terminal,
                    vec![format!("flow/mono/agg-{id}")],
                ));
        }
        let id = add_middleware_node(&mut sim, CpuProfile::RASPBERRY_PI_2, cfg);
        sim.set_backlog_limit(id, Some(SimDuration::from_millis(1600)));
        sim.run_for(SimDuration::from_secs(5));
        let m = sim.metrics();
        (
            m.latency_summary("sensing_to_training").mean_ms,
            m.latency_summary("sensing_to_predicting").mean_ms,
        )
    };
    let mut rows = Vec::new();
    let mut at_10 = (0.0, 0.0);
    for rate in [5.0f64, 10.0, 20.0] {
        let (mono_train, mono_predict) = monolith(rate);
        let (train, predict) = run_rate(&TestbedConfig::paper(rate), SimDuration::from_secs(5));
        rows.push(format!(
            "{rate} Hz: mono_train_ms={mono_train:.3} train_ms={:.3} \
             mono_predict_ms={mono_predict:.3} predict_ms={:.3}",
            train.mean_ms, predict.mean_ms
        ));
        if rate == 10.0 {
            at_10 = (mono_train, train.mean_ms);
        }
    }
    check(
        "one module vs the Fig. 7 placement",
        &rows,
        &[
            "5 Hz: mono_train_ms=106.426 train_ms=60.182 mono_predict_ms=106.426 predict_ms=52.232",
            "10 Hz: mono_train_ms=221.129 train_ms=65.100 mono_predict_ms=221.129 predict_ms=52.900",
            "20 Hz: mono_train_ms=408.521 train_ms=211.001 mono_predict_ms=408.521 predict_ms=59.307",
        ],
    );
    assert!(
        at_10.0 > at_10.1,
        "monolith ({:.1} ms) should lag the distributed placement ({:.1} ms) at 10 Hz",
        at_10.0,
        at_10.1
    );
}

/// Tables II and III as `tables` prints them: the paper sweep
/// (`run_paper_sweep`, seed 2016), one row per rate and process.
#[test]
fn tables_ii_iii() {
    let sweep = run_paper_sweep(2016);
    let mut rows = Vec::new();
    for (table, points) in [("II", &sweep.training), ("III", &sweep.predicting)] {
        for p in points {
            rows.push(format!(
                "{table} {} Hz: n={} avg_ms={:.3} max_ms={:.3} p50_ms={:.3} p95_ms={:.3}",
                p.rate_hz, p.count, p.avg_ms, p.max_ms, p.p50_ms, p.p95_ms
            ));
        }
    }
    check(
        "Tables II (sensing → training) and III (sensing → predicting)",
        &rows,
        &[
            "II 5 Hz: n=23 avg_ms=77.654 max_ms=372.891 p50_ms=57.408 p95_ms=176.855",
            "II 10 Hz: n=47 avg_ms=71.680 max_ms=180.939 p50_ms=59.038 p95_ms=155.871",
            "II 20 Hz: n=99 avg_ms=249.025 max_ms=509.482 p50_ms=275.298 p95_ms=475.922",
            "II 40 Hz: n=135 avg_ms=1209.693 max_ms=1754.372 p50_ms=1502.485 p95_ms=1651.278",
            "II 80 Hz: n=129 avg_ms=1387.657 max_ms=1764.172 p50_ms=1644.181 p95_ms=1661.232",
            "III 5 Hz: n=24 avg_ms=67.375 max_ms=362.467 p50_ms=47.578 p95_ms=157.018",
            "III 10 Hz: n=49 avg_ms=61.366 max_ms=342.685 p50_ms=48.162 p95_ms=115.641",
            "III 20 Hz: n=98 avg_ms=85.318 max_ms=378.286 p50_ms=56.428 p95_ms=174.050",
            "III 40 Hz: n=170 avg_ms=1076.240 max_ms=1721.802 p50_ms=1166.829 p95_ms=1642.973",
            "III 80 Hz: n=175 avg_ms=1337.773 max_ms=1782.212 p50_ms=1632.937 p95_ms=1647.564",
        ],
    );
    assert_eq!(check_shape(&sweep), Vec::<String>::new(), "shape check");
}

/// The Fig. 9 stage breakdown (`fig9_breakdown`): the paper testbed,
/// through its hub's embedded broker, 5 s per rate, seed 2016;
/// mean ms from sensing to each stage of the class chain. The broker leg
/// stays flat while the analysis legs climb.
#[test]
fn fig9_breakdown() {
    let mut rows = Vec::new();
    let mut broker_legs = Vec::new();
    for rate in [5.0f64, 10.0, 20.0, 40.0, 80.0] {
        let mut sim = paper_testbed(&TestbedConfig::paper(rate).with_seed(2016));
        sim.run_for(SimDuration::from_secs(5));
        let m = sim.metrics();
        let avg = |name: &str| m.latency_summary(name).mean_ms;
        rows.push(format!(
            "{rate} Hz: broker_ms={:.3} subscribe_ms={:.3} train_ms={:.3} predict_ms={:.3}",
            avg("sensing_to_broker"),
            avg("sensing_to_subscribe"),
            avg("sensing_to_training"),
            avg("sensing_to_predicting"),
        ));
        broker_legs.push(avg("sensing_to_broker"));
    }
    check(
        "Fig. 9 stage breakdown",
        &rows,
        &[
            "5 Hz: broker_ms=6.751 subscribe_ms=25.487 train_ms=60.182 predict_ms=52.232",
            "10 Hz: broker_ms=7.040 subscribe_ms=27.100 train_ms=65.100 predict_ms=52.900",
            "20 Hz: broker_ms=7.299 subscribe_ms=100.434 train_ms=211.001 predict_ms=59.307",
            "40 Hz: broker_ms=8.179 subscribe_ms=1184.707 train_ms=1282.493 predict_ms=1129.413",
            "80 Hz: broker_ms=8.632 subscribe_ms=1389.294 train_ms=1431.301 predict_ms=1365.499",
        ],
    );
    assert!(
        broker_legs.iter().all(|&ms| ms < 10.0),
        "the broker leg stays in the milliseconds: {broker_legs:?}"
    );
}

/// Fig. 1 made quantitative (`fig1_cloud_vs_local`): the paper testbed at
/// 10 Hz for 5 s, seed 2016, over its WLAN and over a WAN uplink; mean and
/// max ms from sensing to training and to predicting.
#[test]
fn fig1_cloud_vs_local() {
    let local = TestbedConfig::paper(10.0).with_seed(2016);
    let mut cloud = local.clone();
    cloud.wlan = WlanConfig::wan_uplink();
    let mut rows = Vec::new();
    let mut means = Vec::new();
    for (path, config) in [("local", &local), ("cloud", &cloud)] {
        let (train, predict) = run_rate(config, SimDuration::from_secs(5));
        rows.push(format!(
            "{path}: train avg {:.3} max {:.3}, predict avg {:.3} max {:.3}",
            train.mean_ms, train.max_ms, predict.mean_ms, predict.max_ms
        ));
        means.push(train.mean_ms);
    }
    check(
        "Fig. 1: sensing-to-analysis delay at 10 Hz",
        &rows,
        &[
            "local: train avg 65.100 max 181.033, predict avg 52.900 max 134.645",
            "cloud: train avg 151.545 max 917.839, predict avg 131.643 max 893.675",
        ],
    );
    assert!(
        means[1] > means[0],
        "the cloud path must show the larger delay (the Fig. 1 premise): {means:?}"
    );
}
