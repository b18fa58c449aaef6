//! Integration: staged-executor semantics on the deterministic runtime.
//!
//! Pinned here:
//!
//! * **Backpressure semantics** — bounded stage mailboxes shed exactly
//!   the configured victims (oldest/newest *items*, never timers) and
//!   count every drop in the per-stage stats.
//! * **Bit-identical traces** — a seeded chaos run on the netsim
//!   runtime produces the same trace digest as the pre-executor
//!   monolithic dispatch: the inline execution path walks the same
//!   operator graph with the same env-call order.
//! * **Sharded placement** — a sharded stage's digest repeats under its
//!   seed, four replicas fed by a batching publisher each get their
//!   shard of every frame as one batch, and a `replicas = 2` recipe
//!   deployed onto threads covers the stream exactly once.

use ifot::core::config::{
    ExecutorConfig, NodeConfig, OperatorKind, OperatorSpec, SensorSpec, ShedPolicy,
};
use ifot::core::deploy::deploy;
use ifot::core::env::MockEnv;
use ifot::core::executor::ops::build_operator;
use ifot::core::executor::{
    ControlMsg, ExecutorGraph, ExecutorStage, OpTimer, SpareLists, WorkItem,
};
use ifot::core::flow::FlowItem;
use ifot::core::operators::{MixEnvelope, NodeEvent, OpOutput};
use ifot::core::sim_adapter::{add_middleware_node, SimNode};
use ifot::core::thread_rt::ClusterBuilder;
use ifot::ml::feature::Datum;
use ifot::ml::mix::ModelDiff;
use ifot::mqtt::packet::QoS;
use ifot::netsim::cpu::CpuProfile;
use ifot::netsim::sim::Simulation;
use ifot::netsim::time::{SimDuration, SimTime};
use ifot::netsim::wlan::WlanConfig;
use ifot::recipe::assign::{LoadAware, ModuleInfo};
use ifot::recipe::dsl;
use ifot::sensors::sample::SensorKind;

/// A two-stage analysis pipeline (train + anomaly, both fed from the
/// sensor stream) behind a resilient transport, the same shape the
/// chaos corpus uses.
fn staged_pipeline(seed: u64) -> Simulation {
    let mut sim = Simulation::with_wlan(WlanConfig::ideal(), seed);
    add_middleware_node(
        &mut sim,
        CpuProfile::RASPBERRY_PI_2,
        NodeConfig::new("broker").with_broker(),
    );
    add_middleware_node(
        &mut sim,
        CpuProfile::RASPBERRY_PI_2,
        NodeConfig::new("sensor-node")
            .with_broker_node("broker")
            .with_sensor(SensorSpec::new(SensorKind::Sound, 1, 20.0, seed))
            .with_qos(QoS::AtLeastOnce)
            .with_keep_alive(1)
            .with_persistent_session()
            .with_offline_queue(4096),
    );
    add_middleware_node(
        &mut sim,
        CpuProfile::RASPBERRY_PI_2,
        NodeConfig::new("analysis")
            .with_broker_node("broker")
            .with_operator(OperatorSpec::sink(
                "learn",
                OperatorKind::Train {
                    algorithm: "pa".into(),
                    mix_interval_ms: 0,
                },
                vec!["sensor/#".into()],
            ))
            .with_operator(OperatorSpec::sink(
                "score",
                OperatorKind::Anomaly {
                    detector: "zscore".into(),
                    threshold: 4.0,
                },
                vec!["sensor/#".into()],
            ))
            .with_qos(QoS::AtLeastOnce)
            .with_keep_alive(1)
            .with_persistent_session()
            .with_offline_queue(4096),
    );
    sim
}

/// Seeded chaos schedule: steady flow, broker crash at t=2 s, restart
/// at t=3.5 s, recovery until t=8 s. Returns the full-run trace digest
/// plus the end-to-end counters the digest must agree with.
fn digest_schedule(seed: u64) -> (u64, u64, u64) {
    let mut sim = staged_pipeline(seed);
    sim.enable_trace();
    let broker = sim.node_id("broker").expect("registered");
    sim.run_until(SimTime::from_secs(2));
    sim.set_node_up(broker, false);
    sim.run_until(SimTime::from_millis(3_500));
    sim.restart_node(broker);
    sim.run_until(SimTime::from_secs(8));
    let trained = sim.metrics().counter("trained");
    let scored = sim.metrics().counter("anomaly_scored");
    (sim.take_trace().digest(), trained, scored)
}

/// Digest of the seed-0x1F07 chaos run, captured on the pre-executor
/// monolithic dispatch. The staged executor must reproduce it exactly:
/// any reordering of RNG draws, CPU charges, or sends shows up here.
const PINNED_DIGEST_SEED_0X1F07: u64 = 0x160f_b6d7_9ec5_5a7f;

#[test]
fn netsim_trace_digest_unchanged_by_executor_refactor() {
    let (digest, trained, scored) = digest_schedule(0x1F07);
    assert!(trained > 50, "training must make progress: {trained}");
    assert!(scored > 50, "scoring must make progress: {scored}");
    println!("digest_schedule(0x1F07) = {digest:#018x} trained={trained} scored={scored}");
    assert_eq!(
        digest, PINNED_DIGEST_SEED_0X1F07,
        "netsim run is no longer bit-identical to the pre-refactor trace"
    );
}

#[test]
fn netsim_trace_digest_reproduces_across_runs() {
    let first = digest_schedule(7);
    let second = digest_schedule(7);
    assert_eq!(first, second, "same seed must reproduce the same run");
}

/// A lone sequence-sharded predict stage — half the stream claimed,
/// half dropped at the router — replays bit-identically under the same
/// seed.
#[test]
fn same_seed_digests_identical_for_a_sharded_stage() {
    let run = |seed: u64| -> (u64, u64) {
        let mut sim = Simulation::with_wlan(WlanConfig::ideal(), seed);
        sim.enable_trace();
        add_middleware_node(
            &mut sim,
            CpuProfile::RASPBERRY_PI_2,
            NodeConfig::new("broker").with_broker(),
        );
        add_middleware_node(
            &mut sim,
            CpuProfile::RASPBERRY_PI_2,
            NodeConfig::new("sensor-node")
                .with_broker_node("broker")
                .with_sensor(SensorSpec::new(SensorKind::Sound, 1, 40.0, 3)),
        );
        add_middleware_node(
            &mut sim,
            CpuProfile::RASPBERRY_PI_2,
            NodeConfig::new("edge")
                .with_broker_node("broker")
                .with_operator(
                    OperatorSpec::sink(
                        "predict",
                        OperatorKind::Predict {
                            algorithm: "pa".into(),
                        },
                        vec!["sensor/#".into()],
                    )
                    .sharded(2, 0),
                ),
        );
        sim.run_for(SimDuration::from_secs(4));
        (
            sim.metrics().counter("predicted"),
            sim.take_trace().digest(),
        )
    };
    let (predicted_a, digest_a) = run(7);
    let (predicted_b, digest_b) = run(7);
    assert!(predicted_a > 0, "defaults-off pipeline made progress");
    assert_eq!(predicted_a, predicted_b);
    assert_eq!(digest_a, digest_b, "defaults-off digests diverged");
}

/// A `replicas = 2` predict task compiled through `deploy` must land
/// its shards on two distinct modules via the assignment strategy, and
/// the thread runtime must process every sensed item exactly once
/// (complementary shard cover + phased-shutdown drain), with a clean
/// sequence ledger on every node.
#[test]
fn replicated_recipe_deploys_and_conserves_on_threads() {
    let recipe = dsl::parse(
        r#"
        recipe elastic {
            task mic:     sense(sensor = "sound", rate_hz = 25);
            task predict: predict(algorithm = "pa", replicas = 2);
            mic -> predict;
        }
    "#,
    )
    .expect("recipe parses");
    let modules = vec![
        ModuleInfo::new("m-sound", 1.0).with_capability("sensor:sound"),
        ModuleInfo::new("m-hub", 2.0),
        ModuleInfo::new("m-edge", 1.0),
    ];
    let plan = deploy(&recipe, &modules, &LoadAware, "m-hub").expect("deploys");

    // The strategy spread the two shards over two distinct modules,
    // with complementary sequence filters.
    let hosts: Vec<(&str, (u64, u64))> = plan
        .configs
        .iter()
        .flat_map(|c| c.operators.iter().map(move |o| (c, o)))
        .filter(|(_, o)| o.id == "predict")
        .map(|(c, o)| (c.name.as_str(), o.shard.expect("replicas are sharded")))
        .collect();
    assert_eq!(hosts.len(), 2, "two replicas placed: {hosts:?}");
    assert_ne!(hosts[0].0, hosts[1].0, "replicas on distinct modules");
    let mut shards: Vec<u64> = hosts.iter().map(|(_, (_, k))| *k).collect();
    shards.sort_unstable();
    assert_eq!(shards, vec![0, 1]);
    assert!(hosts.iter().all(|(_, (m, _))| *m == 2));

    let mut builder = ClusterBuilder::new();
    for cfg in plan.configs.clone() {
        builder = builder.node(cfg);
    }
    let report = builder
        .start()
        .run_for(std::time::Duration::from_millis(1500));

    let sensed = report.metrics.counter("flow_items_published");
    let predicted = report.metrics.counter("predicted");
    assert!(predicted > 10, "pipeline made progress: {predicted}");
    // Exactly-once across the shard cover: each sensed item predicted
    // by exactly one replica, none lost and none duplicated.
    assert_eq!(
        sensed, predicted,
        "shard cover lost or duplicated items: sensed={sensed} predicted={predicted}"
    );
    for node in &report.nodes {
        let r = node.resilience();
        assert_eq!(r.seq_gaps, 0, "{}: gaps {r:?}", node.name());
        assert_eq!(r.seq_duplicates, 0, "{}: dups {r:?}", node.name());
    }
    // The monitor's placement view shows the shard assignment.
    let placements: Vec<String> = report.nodes.iter().flat_map(|n| n.placement()).collect();
    assert!(
        placements.iter().any(|p| p.contains("predict shard 0/2")),
        "placement view missing shard 0: {placements:?}"
    );
    assert!(
        placements.iter().any(|p| p.contains("predict shard 1/2")),
        "placement view missing shard 1: {placements:?}"
    );
}

/// Like [`digest_schedule`] but with stage tracing on: the trace now
/// interleaves `stage:`-prefixed operator enqueue/dequeue records with
/// the dispatch entries.
fn stage_trace_schedule(seed: u64) -> (u64, Vec<String>) {
    let mut sim = staged_pipeline(seed);
    sim.enable_stage_trace();
    sim.run_until(SimTime::from_secs(4));
    let trace = sim.take_trace();
    let stage_kinds = trace
        .entries()
        .iter()
        .filter(|e| e.kind.starts_with("stage:"))
        .map(|e| e.kind.clone())
        .collect();
    (trace.digest(), stage_kinds)
}

#[test]
fn stage_trace_records_operator_events_deterministically() {
    let (digest, stage_kinds) = stage_trace_schedule(0x1F07);
    assert!(
        !stage_kinds.is_empty(),
        "stage tracing must record operator events"
    );
    // Both pipeline stages appear, with their id, depth and batch size.
    for op in ["learn", "score"] {
        assert!(
            stage_kinds
                .iter()
                .any(|k| k.starts_with(&format!("stage:stage_enq({op}, depth="))),
            "missing enqueue records for {op}: {:?}",
            &stage_kinds[..stage_kinds.len().min(4)]
        );
        assert!(
            stage_kinds
                .iter()
                .any(|k| k.contains(&format!("stage_deq({op}, depth=")) && k.contains("batch=")),
            "missing dequeue records for {op}"
        );
    }
    // Stage tracing is itself deterministic...
    let (again, _) = stage_trace_schedule(0x1F07);
    assert_eq!(digest, again, "stage trace must reproduce across runs");
    // ...and purely additive: turning it off restores the pinned digest
    // (checked by `netsim_trace_digest_unchanged_by_executor_refactor`).
}

/// One probe item, identified by its origin timestamp.
fn probe_item(i: u64) -> FlowItem {
    FlowItem {
        topic: "flow/probe/in".into(),
        origin_ts_ns: i,
        seq: i,
        datum: Datum::new().with("v", i as f64),
        label: None,
        score: None,
    }
}

/// A pass-through stage with the given mailbox bound and policy.
fn probe_stage(capacity: usize, policy: ShedPolicy) -> ExecutorStage {
    ExecutorStage::new(
        build_operator(OperatorSpec::through(
            "pass",
            OperatorKind::Custom {
                operator: "probe".into(),
            },
            vec!["flow/probe/in".into()],
            "flow/probe/out",
        )),
        capacity,
        policy,
    )
}

/// Drains the stage and returns the origin timestamps of every emitted
/// message — i.e. which probe items survived the mailbox.
fn drain_origins(stage: &mut ExecutorStage, env: &mut MockEnv) -> Vec<u64> {
    let mut outputs = Vec::new();
    while stage.step(env, &mut outputs, &mut SpareLists::default()) {}
    outputs
        .into_iter()
        .map(|output| match output {
            OpOutput::Emit(m) => m.origin_ts_ns,
            other => panic!("pass-through emitted {other:?}"),
        })
        .collect()
}

#[test]
fn shed_oldest_drops_exactly_the_oldest_items_and_counts_them() {
    let mut env = MockEnv::new();
    let mut stage = probe_stage(4, ShedPolicy::ShedOldest);
    // Fill the mailbox, wedge a timer in the middle, then overflow.
    for i in 0..4 {
        stage.enqueue(WorkItem::Item(probe_item(i)), 0);
    }
    stage.enqueue(WorkItem::Timer(OpTimer::Flush), 0);
    for i in 4..10 {
        stage.enqueue(WorkItem::Item(probe_item(i)), 0);
    }
    // Items 0..=5 were evicted in age order; the timer was never a
    // candidate even though it was older than every survivor.
    assert_eq!(drain_origins(&mut stage, &mut env), vec![6, 7, 8, 9]);
    assert_eq!(stage.stats.shed_oldest, 6);
    assert_eq!(stage.stats.shed_newest, 0);
    assert_eq!(stage.stats.enqueued, 11, "timer + 10 offered items");
    assert_eq!(stage.stats.processed, 5, "timer + 4 surviving items");
    assert_eq!(stage.stats.max_depth, 5);
    assert_eq!(stage.depth(), 0);
    let line = stage.describe_stats();
    assert!(
        line.contains("shed=6"),
        "monitor line must count drops: {line}"
    );
}

/// Batched dispatch must be invisible to operator semantics: for every
/// operator kind, delivering N items as one [`StreamOperator::on_batch`]
/// call yields exactly the outputs of N [`StreamOperator::on_item`]
/// calls in order. Only CPU accounting may differ (ML kinds charge their
/// per-call model cost once per batch).
///
/// Both runs write into a list that already holds entries, then take
/// the same ticks and MIX messages: every entry point only appends, so
/// the earlier entries survive untouched and in order.
#[test]
fn batch_dispatch_equals_per_item_loop_for_every_operator_kind() {
    let kinds: Vec<(&str, OperatorKind)> = vec![
        (
            "join",
            OperatorKind::Join {
                expected_sources: 2,
            },
        ),
        ("window", OperatorKind::Window { size_ms: 50 }),
        (
            "train",
            OperatorKind::Train {
                algorithm: "pa".into(),
                mix_interval_ms: 0,
            },
        ),
        (
            "predict",
            OperatorKind::Predict {
                algorithm: "pa".into(),
            },
        ),
        (
            "anomaly",
            OperatorKind::Anomaly {
                detector: "zscore".into(),
                threshold: 3.0,
            },
        ),
        (
            "estimate",
            OperatorKind::Estimate {
                model: "ewma".into(),
            },
        ),
        (
            "policy",
            OperatorKind::Policy {
                key: "v".into(),
                on_above: 4.0,
                off_below: 2.0,
                emit: "power".into(),
            },
        ),
        ("actuate", OperatorKind::Actuate { device_id: 1 }),
        (
            "custom",
            OperatorKind::Custom {
                operator: "probe".into(),
            },
        ),
        ("mix", OperatorKind::MixCoordinator { expected: 2 }),
    ];
    // What the caller's list held before the operator ran.
    let earlier = vec![
        OpOutput::Event(NodeEvent::MixRound {
            task: "earlier".into(),
            round: 7,
            at_ns: 1,
        }),
        OpOutput::MixOffer(ModelDiff::new()),
    ];
    // Two offers complete a coordinator round; an average is imported by
    // the learners.
    let envelope = |role: &str| {
        ControlMsg::Mix(MixEnvelope {
            role: role.into(),
            task: "probe".into(),
            diff: ModelDiff::new(),
        })
    };
    let control = [envelope("offer"), envelope("offer"), envelope("avg")];
    for (name, kind) in kinds {
        let spec = OperatorSpec::through(name, kind, vec!["flow/probe/#".into()], "flow/probe/out");
        // Two alternating source topics with paired sequence numbers so
        // the join kind completes tuples; labels so training is driven.
        let items: Vec<FlowItem> = (0..6)
            .map(|i| FlowItem {
                topic: if i % 2 == 0 {
                    "flow/probe/a".into()
                } else {
                    "flow/probe/b".into()
                },
                origin_ts_ns: i,
                seq: i / 2,
                datum: Datum::new().with("v", i as f64),
                label: Some(if i % 2 == 0 { "hot" } else { "cold" }.into()),
                score: None,
            })
            .collect();

        let mut loop_env = MockEnv::new();
        let mut loop_op = build_operator(spec.clone());
        let mut loop_out = earlier.clone();
        for item in items.clone() {
            loop_op.on_item(&mut loop_env, item, &mut loop_out);
        }

        let mut batch_env = MockEnv::new();
        let mut batch_op = build_operator(spec);
        let mut batch_out = earlier.clone();
        let mut batch = items;
        batch_op.on_batch(&mut batch_env, &mut batch, &mut batch_out);
        assert!(
            batch.is_empty(),
            "operator kind {name} left items in the list it was handed"
        );

        assert_eq!(
            loop_out, batch_out,
            "operator kind {name} diverged under batching"
        );
        for (op, env, out) in [
            (&mut loop_op, &mut loop_env, &mut loop_out),
            (&mut batch_op, &mut batch_env, &mut batch_out),
        ] {
            for timer in [OpTimer::Flush, OpTimer::Mix] {
                op.on_timer(env, timer, out);
            }
            for msg in &control {
                op.on_control(env, msg, out);
            }
            assert_eq!(
                out[..earlier.len()],
                earlier[..],
                "operator kind {name} touched the entries before its own"
            );
        }
        assert_eq!(
            loop_out, batch_out,
            "operator kind {name} diverged after ticks and MIX messages"
        );
        // Counters agree too, modulo the batch-call bookkeeping the
        // batched path adds for itself.
        let mut batch_counters = batch_env.counters.clone();
        batch_counters.retain(|k, _| !k.ends_with("_batch_calls"));
        assert_eq!(
            loop_env.counters, batch_counters,
            "operator kind {name} counted differently under batching"
        );
    }
}

/// A shared (zero-clone fan-out) batch must be indistinguishable from
/// an owned batch at the operator boundary — whether the stage ends up
/// unwrapping the sole reference or cloning behind an outstanding one.
#[test]
fn shared_batch_delivery_is_identical_to_owned_batch() {
    use std::sync::Arc;
    let items: Vec<FlowItem> = (0..6).map(probe_item).collect();

    let mut owned_env = MockEnv::new();
    let mut owned_stage = probe_stage(16, ShedPolicy::Block);
    owned_stage.enqueue(WorkItem::Batch(items.clone()), 0);
    let owned = drain_origins(&mut owned_stage, &mut owned_env);
    assert_eq!(owned.len(), 6);

    // Sole reference: execution unwraps the allocation for free.
    let mut sole_env = MockEnv::new();
    let mut sole_stage = probe_stage(16, ShedPolicy::Block);
    sole_stage.enqueue(WorkItem::SharedBatch(Arc::new(items.clone())), 0);
    let sole = drain_origins(&mut sole_stage, &mut sole_env);

    // Outstanding fan-out reference: execution clones lazily and drops
    // its handle, leaving the other consumer's reference untouched.
    let keep = Arc::new(items);
    let mut fan_env = MockEnv::new();
    let mut fan_stage = probe_stage(16, ShedPolicy::Block);
    fan_stage.enqueue(WorkItem::SharedBatch(Arc::clone(&keep)), 0);
    let fanned = drain_origins(&mut fan_stage, &mut fan_env);
    assert_eq!(Arc::strong_count(&keep), 1, "execution drops its handle");

    assert_eq!(owned, sole, "sole-reference delivery diverged");
    assert_eq!(owned, fanned, "cloning delivery diverged");
    assert_eq!(owned_env.counters, sole_env.counters);
    assert_eq!(owned_env.counters, fan_env.counters);
    assert_eq!(owned_stage.stats, sole_stage.stats);
    assert_eq!(owned_stage.stats, fan_stage.stats);
}

/// The edge batches (32 items or 200 ms) into four sequence-sharded
/// predict replicas, the shape that replaced stage re-coalescing in
/// PR 25: each replica receives its quarter of every frame as one batch,
/// with the publish linger as the only timer, replayed exactly per seed.
#[test]
fn batched_sharded_run_is_deterministic_and_amortizes() {
    let run = |seed: u64| {
        let mut sim = Simulation::with_wlan(WlanConfig::ideal(), seed);
        sim.enable_trace();
        add_middleware_node(
            &mut sim,
            CpuProfile::RASPBERRY_PI_2,
            NodeConfig::new("broker").with_broker(),
        );
        add_middleware_node(
            &mut sim,
            CpuProfile::RASPBERRY_PI_2,
            NodeConfig::new("sensor-node")
                .with_broker_node("broker")
                .with_sensor(SensorSpec::new(SensorKind::Sound, 1, 40.0, seed))
                .with_batching(32, 200)
                .with_qos(QoS::AtLeastOnce),
        );
        let mut analysis = NodeConfig::new("analysis")
            .with_broker_node("broker")
            .with_qos(QoS::AtLeastOnce);
        for i in 0..4 {
            analysis = analysis.with_operator(
                OperatorSpec::sink(
                    format!("predict{i}"),
                    OperatorKind::Predict {
                        algorithm: "pa".into(),
                    },
                    vec!["sensor/#".into()],
                )
                .sharded(4, i),
            );
        }
        add_middleware_node(&mut sim, CpuProfile::RASPBERRY_PI_2, analysis);
        sim.run_until(SimTime::from_secs(6));
        let analysis = sim.node_id("analysis").expect("registered");
        let stats = sim
            .actor_as::<SimNode>(analysis)
            .expect("a middleware node")
            .middleware()
            .stage_stats();
        let calls: u64 = stats.iter().map(|s| s.processed).sum();
        let batches: u64 = stats.iter().map(|s| s.batch_entries).sum();
        let published = sim.metrics().counter("flow_items_published");
        let predicted = sim.metrics().counter("predicted");
        (
            sim.take_trace().digest(),
            [published, predicted, calls, batches],
        )
    };
    let first = run(11);
    assert_eq!(first, run(11), "batched mode must stay deterministic");
    let [published, predicted, calls, batches] = first.1;
    assert!(predicted > 200, "prediction must keep up: {first:?}");
    assert!(predicted <= published, "no item is predicted twice");
    assert_eq!(batches, calls, "every replica call is a batch");
    assert!(
        predicted >= 2 * calls,
        "a call carries ≥ 2 items: {first:?}"
    );
}

/// A pooled `Block` stage bounds batches as it bounds items. Its credit
/// is a capacity of 2: two batches are admitted, and the producer of a
/// third waits until the stage's owner pops one. Ticks are admitted over
/// the bound all the same.
#[test]
fn a_full_block_stage_holds_a_batch_back_until_a_pop() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    let config = ExecutorConfig {
        workers: 1,
        mailbox_capacity: 2,
        shed_policy: ShedPolicy::Block,
    };
    let spec = OperatorSpec::sink(
        "pass",
        OperatorKind::Custom {
            operator: "probe".into(),
        },
        vec!["flow/probe/in".into()],
    );
    let graph = ExecutorGraph::compile(vec![spec], &config);
    let mut worker = graph.deal(1).pop().expect("one worker");
    let batch = || WorkItem::Batch((0..4).map(probe_item).collect());
    graph.enqueue(0, batch(), 0);
    graph.enqueue(0, batch(), 0);

    // The owner pops once, on a thread of its own, while the producer of
    // the third batch (this thread) waits for credit.
    let popping = Arc::new(AtomicBool::new(false));
    let owner = {
        let popping = Arc::clone(&popping);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(100));
            popping.store(true, Ordering::SeqCst);
            assert!(worker.turn(&mut MockEnv::new(), &mut |_, _| {}));
            worker
        })
    };
    graph.enqueue(0, batch(), 0);
    assert!(
        popping.load(Ordering::SeqCst),
        "a third batch went into a full Block mailbox"
    );
    let mut worker = owner.join().expect("the owner's turn ran");
    // That turn folded the two batches and ran one; the third was posted
    // after it had swapped the inbox out.
    let stats = graph.stats(0);
    assert_eq!((stats.enqueued, stats.processed), (2, 1));

    graph.enqueue(0, WorkItem::Timer(OpTimer::Flush), 0);
    let mut env = MockEnv::new();
    while worker.turn(&mut env, &mut |_, _| {}) {}
    graph.reclaim(vec![worker]);
    let stats = graph.stats(0);
    assert_eq!((stats.processed, stats.batched_items), (4, 12));
    assert_eq!(stats.max_depth, 3, "two batches and the tick");
}

#[test]
fn shed_newest_rejects_at_the_door_and_counts_them() {
    let mut env = MockEnv::new();
    let mut stage = probe_stage(2, ShedPolicy::ShedNewest);
    for i in 0..5 {
        stage.enqueue(WorkItem::Item(probe_item(i)), 0);
    }
    assert_eq!(drain_origins(&mut stage, &mut env), vec![0, 1]);
    assert_eq!(stage.stats.shed_newest, 3);
    assert_eq!(stage.stats.shed_oldest, 0);
    assert_eq!(stage.stats.enqueued, 2, "rejected items are not admitted");
}

/// One part of a join: `pairs` sensed at `origin` on `topic`.
fn join_part(topic: &str, seq: u64, origin: u64, pairs: &[(&'static str, f64)]) -> FlowItem {
    FlowItem {
        topic: topic.into(),
        origin_ts_ns: origin,
        seq,
        datum: pairs.iter().copied().collect(),
        label: None,
        score: None,
    }
}

/// The tuple `flowbench`'s stepper rebuilds for a sequence number: its
/// parts sorted by topic, then every feature set in that order.
fn reference_tuple(mut parts: Vec<FlowItem>) -> Datum {
    parts.sort_by(|a, b| a.topic.cmp(&b.topic));
    let mut datum = Datum::new();
    for part in &parts {
        for (k, v) in part.datum.iter() {
            datum.set(k.to_owned(), v);
        }
    }
    datum
}

#[test]
fn join_merges_parts_in_topic_order_and_the_later_topic_wins() {
    let mut env = MockEnv::new();
    let mut join = build_operator(OperatorSpec::through(
        "join",
        OperatorKind::Join {
            expected_sources: 3,
        },
        vec!["sensor/#".into()],
        "flow/r/join",
    ));
    // Two sequences interleaved, parts arriving against topic order, every
    // part carrying `shared`, one part repeated before its tuple fills;
    // the second tuple has nine distinct keys (past the inline three) and
    // reuses the first one's part list.
    let arrivals = [
        join_part("sensor/3/c", 7, 130, &[("c", 3.0), ("shared", 30.0)]),
        join_part(
            "sensor/1/a",
            8,
            210,
            &[("ax", 1.0), ("ay", 2.0), ("az", 3.0)],
        ),
        join_part("sensor/1/a", 7, 110, &[("a", 1.0), ("shared", 10.0)]),
        join_part("sensor/3/c", 7, 131, &[("c", 33.0), ("shared", 31.0)]),
        join_part("sensor/2/b", 7, 120, &[("b", 2.0), ("shared", 20.0)]),
        join_part(
            "sensor/3/c",
            8,
            230,
            &[("cx", 7.0), ("cy", 8.0), ("cz", 9.0)],
        ),
        join_part(
            "sensor/2/b",
            8,
            220,
            &[("bx", 4.0), ("by", 5.0), ("bz", 6.0)],
        ),
    ];
    let mut outputs = Vec::new();
    for item in arrivals.iter().cloned() {
        join.on_item(&mut env, item, &mut outputs);
    }
    let emitted: Vec<_> = outputs
        .into_iter()
        .map(|output| match output {
            OpOutput::Emit(message) => message,
            other => panic!("a join only emits, got {other:?}"),
        })
        .collect();
    assert_eq!(emitted.len(), 2);
    // The repeat replaced its predecessor; `shared` is the last topic's.
    let first = reference_tuple(vec![
        arrivals[2].clone(),
        arrivals[3].clone(),
        arrivals[4].clone(),
    ]);
    assert_eq!(first.get("shared"), Some(31.0));
    assert_eq!(first.get("c"), Some(33.0));
    assert_eq!(emitted[0].datum, first);
    assert_eq!((emitted[0].origin_ts_ns, emitted[0].seq), (110, 7));
    let second = reference_tuple(vec![
        arrivals[1].clone(),
        arrivals[5].clone(),
        arrivals[6].clone(),
    ]);
    assert_eq!(second.len(), 9);
    assert_eq!(emitted[1].datum, second);
    assert_eq!((emitted[1].origin_ts_ns, emitted[1].seq), (210, 8));
    assert_eq!(emitted[0].producer, "join");
    assert_eq!(env.counter("join_emitted"), 2);
}
