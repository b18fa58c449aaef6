//! Staged-executor scaling measurement (no criterion), used to record
//! `BENCH_pipeline.json`: a real thread cluster (sensor -> embedded
//! broker -> analysis node) where the analysis node runs a multi-stage
//! recipe — an ingest accounting stage alongside four sequence-sharded
//! replicas of a `Predict` task — under speed emulation, so every item
//! carries its reference CPU cost (~30 ms per prediction) as wall time.
//!
//! Swept knobs are exactly the executor's tuning surface (DESIGN.md §5):
//! worker threads (`ExecutorConfig::workers` ∈ {1, 2, 4}), and the
//! bounded-mailbox shed policy (`Block` / `ShedOldest` / `ShedNewest`)
//! at sensing rates from a comfortable 5 Hz to an overloading 80 Hz.
//! With one worker the four predict shards serialize (~28 items/s of
//! capacity); with four workers they run concurrently, so the 80 Hz
//! sweep shows the ≥2× throughput step the staged executor exists for,
//! while the policy column shows what happens to the excess: `Block`
//! backpressures the node loop, the shed policies bound the mailbox and
//! count their drops.
//!
//! A third column re-coalesces at the analysis node's stage ingress
//! (`NodeConfig::with_stage_coalescing`): sharding splits each arriving
//! frame four ways, so without re-coalescing a sharded predict replica
//! sees ~1-item sub-batches and pays the full per-call model cost per
//! item. The coalesced cells accumulate sub-batches back up to the
//! node's `batch_max` before delivery, amortizing the call — the
//! `mean_sub_batch` field reports the mean batch size the predict
//! stages actually executed.
//!
//! Reported per cell: sensed publishes, ingested items, predictions,
//! predictions/s, mailbox drops, the sensing-to-predicting delay
//! (mean/max ms), and the mean executed sub-batch size on the predict
//! stages. Summaries: `speedup_w4_over_w1` compares the highest-rate
//! shed-oldest cells; `speedup_coalesce_w1` compares the 80 Hz
//! single-worker coalesced cell against the per-item sharded baseline.
//!
//! A final `hotspot` section exercises the elastic placement runtime:
//! a 2-shard predict pipeline with shard 0 pinned on a 4×-slowed
//! module (speed 0.25, ~120 ms per prediction against a 25 ms
//! inter-arrival), measured with and without a rebalancing controller
//! (`NodeConfig::with_rebalancer`). With the controller, load
//! heartbeats flag the hot shard and a live migration moves it to the
//! full-speed module mid-run; `recovery` reports the drain-inclusive
//! predictions/s ratio over the no-rebalance baseline, with exact
//! sensed == ingested == predicted conservation across the handover.
//!
//! Run with `cargo run --release -p ifot-bench --bin pipeline_scaling`
//! (add `--quick` for a CI smoke run with two cells).

use std::time::{Duration, Instant};

use ifot_core::config::{NodeConfig, OperatorKind, OperatorSpec, SensorSpec, ShedPolicy};
use ifot_core::rebalance::RebalanceConfig;
use ifot_core::thread_rt::ClusterBuilder;
use ifot_core::wire::WireFormat;
use ifot_sensors::sample::SensorKind;

/// Replicas of the predict task (complementary sequence shards).
const SHARDS: u64 = 4;
/// Per-stage mailbox bound: small enough that an 80 Hz overload engages
/// the shed policy within a cell's runtime.
const MAILBOX: usize = 32;
/// Stage-ingress re-coalescing target on the analysis node: sub-batches
/// accumulate per sharded stage up to this size before delivery.
const COALESCE_BATCH_MAX: usize = 8;

struct CellSpec {
    rate_hz: f64,
    workers: usize,
    policy: ShedPolicy,
    batch: Option<(usize, u64)>,
    /// Re-coalesce sharded sub-batches at the analysis stage ingress.
    coalesce: bool,
}

struct CellResult {
    rate_hz: f64,
    workers: usize,
    policy: ShedPolicy,
    batch: Option<(usize, u64)>,
    coalesce: bool,
    sensed: u64,
    ingested: u64,
    predicted: u64,
    frames: u64,
    seconds: f64,
    items_per_sec: f64,
    shed: u64,
    delay_mean_ms: f64,
    delay_max_ms: f64,
    /// Mean executed batch size across the sharded predict stages
    /// (`Σ batched_items / Σ batch_entries` over their `StageStats`).
    mean_sub_batch: f64,
}

fn policy_name(policy: ShedPolicy) -> &'static str {
    match policy {
        ShedPolicy::Block => "block",
        ShedPolicy::ShedOldest => "shed_oldest",
        ShedPolicy::ShedNewest => "shed_newest",
    }
}

/// Runs one cell: `seconds` of wall time at `rate_hz` sensing with the
/// analysis node's executor configured to `workers`/`policy`. With
/// `batch = Some((max, linger_ms))` the sensor node coalesces samples
/// into compact binary `FlowBatch` frames instead of the seed's
/// one-frame-per-sample publishes. With `coalesce` the analysis node
/// re-coalesces per-shard sub-batches up to [`COALESCE_BATCH_MAX`] at
/// stage ingress before delivering to the predict replicas.
fn run_cell(spec: &CellSpec, seconds: f64) -> CellResult {
    let &CellSpec {
        rate_hz,
        workers,
        policy,
        batch,
        coalesce,
    } = spec;
    // Multi-stage recipe: an ingest accounting stage plus `SHARDS`
    // replicas of the predict task with complementary sequence shards,
    // all fed from the raw sensor stream (binary sample payloads; the
    // per-device monotone seq splits the flow round-robin).
    let mut analysis = NodeConfig::new("analysis")
        .with_broker_node("broker")
        .with_operator(OperatorSpec::sink(
            "ingest",
            OperatorKind::Custom {
                operator: "ingest".into(),
            },
            vec!["sensor/#".into()],
        ))
        .with_workers(workers)
        .with_mailbox(MAILBOX, policy);
    if coalesce {
        analysis = analysis
            .with_batching(COALESCE_BATCH_MAX, 50)
            .with_stage_coalescing();
    }
    for k in 0..SHARDS {
        analysis = analysis.with_operator(
            OperatorSpec::sink(
                format!("predict-{k}"),
                OperatorKind::Predict {
                    algorithm: "pa".into(),
                },
                vec!["sensor/#".into()],
            )
            .sharded(SHARDS, k),
        );
    }
    let mut sensor = NodeConfig::new("sensor-node")
        .with_broker_node("broker")
        .with_sensor(SensorSpec::new(SensorKind::Sound, 1, rate_hz, 7));
    if let Some((batch_max, linger_ms)) = batch {
        sensor = sensor
            .with_wire_format(WireFormat::Binary)
            .with_batching(batch_max, linger_ms);
    }
    let cluster = ClusterBuilder::new()
        .node(NodeConfig::new("broker").with_broker())
        .node(sensor)
        // Speed 1.0: the analysis node sleeps out each operator's
        // reference CPU cost, so stage parallelism is measurable.
        .node_with_speed(analysis, 1.0)
        .start();
    // Time the full cell including shutdown: under overload the node
    // drains its backlog (still sleeping out costs) after the nominal
    // window, and that drain time is part of the honest throughput.
    let start = Instant::now();
    let report = cluster.run_for(Duration::from_secs_f64(seconds));
    let elapsed = start.elapsed().as_secs_f64();

    let predicted = report.metrics.counter("predicted");
    let delay = report.metrics.latency_summary("sensing_to_predicting");
    let stats = report
        .node("analysis")
        .expect("analysis node present")
        .stage_stats();
    let shed: u64 = stats.iter().map(|s| s.shed_oldest + s.shed_newest).sum();
    // Stage 0 is the unsharded ingest stage; 1..=SHARDS are the predict
    // replicas whose executed batch sizes the coalescer is meant to lift.
    let predict_stats = &stats[1..=SHARDS as usize];
    let batched_items: u64 = predict_stats.iter().map(|s| s.batched_items).sum();
    let batch_entries: u64 = predict_stats.iter().map(|s| s.batch_entries).sum();
    let mean_sub_batch = if batch_entries > 0 {
        batched_items as f64 / batch_entries as f64
    } else {
        0.0
    };
    CellResult {
        rate_hz,
        workers,
        policy,
        batch,
        coalesce,
        // Per-item accounting: `published` counts MQTT frames (1 per
        // batch), `flow_items_published` counts the samples inside.
        sensed: report.metrics.counter("flow_items_published"),
        ingested: report.metrics.counter("custom_ingest"),
        predicted,
        frames: report.metrics.counter("flow_frames_published"),
        seconds: elapsed,
        items_per_sec: predicted as f64 / elapsed,
        shed,
        delay_mean_ms: delay.mean_ms,
        delay_max_ms: delay.max_ms,
        mean_sub_batch,
    }
}

/// One direct-handoff chain cell (DESIGN.md §5, direct handoff): the
/// sensor stream is refined through a three-stage intra-node chain of
/// `local_only` Custom operators and lands on four sequence-sharded
/// predict replicas — three intra-node flow hops per item, none of them
/// egress. The executing worker routes every hop itself and preserves
/// the batch structure across the chain, so each predict replica keeps
/// amortizing its per-call model cost over the frame's sub-batch.
struct ChainResult {
    devices: u16,
    rate_hz: f64,
    policy: ShedPolicy,
    sensed: u64,
    ingested: u64,
    predicted: u64,
    shed: u64,
    seconds: f64,
    items_per_sec: f64,
    handoff_direct: u64,
    handoff_fallback: u64,
    handoff_stale: u64,
    /// `handoff_direct / (handoff_direct + fallback + stale)` — the
    /// fraction of intra-node flow hops the workers routed themselves.
    handoff_direct_ratio: f64,
    mean_sub_batch: f64,
    delay_mean_ms: f64,
    delay_max_ms: f64,
}

fn run_chain_cell(
    devices: u16,
    rate_hz: f64,
    policy: ShedPolicy,
    mailbox: usize,
    seconds: f64,
) -> ChainResult {
    // Binary wire on the analysis node too: its chain emissions re-enter
    // the node codec on the fallback/node-thread path.
    let mut analysis = NodeConfig::new("analysis")
        .with_broker_node("broker")
        .with_wire_format(WireFormat::Binary)
        .with_workers(4)
        .with_mailbox(mailbox, policy)
        .with_operator(
            OperatorSpec::through(
                "refine-0",
                OperatorKind::Custom {
                    operator: "ingest".into(),
                },
                vec!["sensor/#".into()],
                "flow/chain0",
            )
            .local_only(),
        )
        .with_operator(
            OperatorSpec::through(
                "refine-1",
                OperatorKind::Custom {
                    operator: "refine1".into(),
                },
                vec!["flow/chain0".into()],
                "flow/chain1",
            )
            .local_only(),
        )
        .with_operator(
            OperatorSpec::through(
                "refine-2",
                OperatorKind::Custom {
                    operator: "refine2".into(),
                },
                vec!["flow/chain1".into()],
                "flow/chain2",
            )
            .local_only(),
        );
    for k in 0..SHARDS {
        analysis = analysis.with_operator(
            OperatorSpec::sink(
                format!("predict-{k}"),
                OperatorKind::Predict {
                    algorithm: "pa".into(),
                },
                vec!["flow/chain2".into()],
            )
            .sharded(SHARDS, k),
        );
    }
    // Linger above the 32-sample fill time (400 ms at 80 Hz), so frames
    // actually reach `batch_max` — the batch structure whose survival
    // across the chain is exactly what this cell measures: a full frame
    // shard-splits into 8-item sub-batches, amortizing the predict
    // call 8× when the hops preserve it.
    let mut sensor = NodeConfig::new("sensor-node")
        .with_broker_node("broker")
        .with_wire_format(WireFormat::Binary)
        .with_batching(32, 450);
    for d in 0..devices {
        sensor = sensor.with_sensor(SensorSpec::new(
            SensorKind::Sound,
            d + 1,
            rate_hz,
            7 + d as u64,
        ));
    }
    let cluster = ClusterBuilder::new()
        .node(NodeConfig::new("broker").with_broker())
        .node(sensor)
        .node_with_speed(analysis, 1.0)
        .start();
    let start = Instant::now();
    let report = cluster.run_for(Duration::from_secs_f64(seconds));
    let elapsed = start.elapsed().as_secs_f64();
    let predicted = report.metrics.counter("predicted");
    let delay = report.metrics.latency_summary("sensing_to_predicting");
    let handoff_direct = report.metrics.counter("handoff_direct");
    let handoff_fallback = report.metrics.counter("handoff_fallback");
    let handoff_stale = report.metrics.counter("handoff_stale_route");
    let hops = handoff_direct + handoff_fallback + handoff_stale;
    let stats = report
        .node("analysis")
        .expect("analysis node present")
        .stage_stats();
    let shed: u64 = stats.iter().map(|s| s.shed_oldest + s.shed_newest).sum();
    // Stages 0..3 are the refine chain; 3..3+SHARDS the predict shards.
    let predict_stats = &stats[3..3 + SHARDS as usize];
    let batched_items: u64 = predict_stats.iter().map(|s| s.batched_items).sum();
    let batch_entries: u64 = predict_stats.iter().map(|s| s.batch_entries).sum();
    ChainResult {
        devices,
        rate_hz,
        policy,
        sensed: report.metrics.counter("flow_items_published"),
        ingested: report.metrics.counter("custom_ingest"),
        predicted,
        shed,
        seconds: elapsed,
        items_per_sec: predicted as f64 / elapsed,
        handoff_direct,
        handoff_fallback,
        handoff_stale,
        handoff_direct_ratio: if hops > 0 {
            handoff_direct as f64 / hops as f64
        } else {
            0.0
        },
        mean_sub_batch: if batch_entries > 0 {
            batched_items as f64 / batch_entries as f64
        } else {
            0.0
        },
        delay_mean_ms: delay.mean_ms,
        delay_max_ms: delay.max_ms,
    }
}

fn chain_json(r: &ChainResult) -> String {
    format!(
        "{{ \"devices\": {}, \"rate_hz\": {}, \"workers\": 4, \"policy\": \"{}\", \"sensed\": {}, \"ingested\": {}, \"predicted\": {}, \"shed\": {}, \"seconds\": {:.2}, \"items_per_sec\": {:.1}, \"handoff_direct\": {}, \"handoff_fallback\": {}, \"handoff_stale_route\": {}, \"handoff_direct_ratio\": {:.3}, \"mean_sub_batch\": {:.2}, \"delay_mean_ms\": {:.2}, \"delay_max_ms\": {:.2} }}",
        r.devices,
        r.rate_hz,
        policy_name(r.policy),
        r.sensed,
        r.ingested,
        r.predicted,
        r.shed,
        r.seconds,
        r.items_per_sec,
        r.handoff_direct,
        r.handoff_fallback,
        r.handoff_stale,
        r.handoff_direct_ratio,
        r.mean_sub_batch,
        r.delay_mean_ms,
        r.delay_max_ms,
    )
}

/// One hotspot-recovery cell (DESIGN.md §5, elastic placement): the
/// sensor stream splits over two complementary predict shards, but
/// shard 0's host runs 4×-slowed (speed 0.25 → ~120 ms per prediction
/// against a 50 ms inter-arrival), so it falls behind without bound.
/// With `rebalance` a controller node watches the load heartbeats and
/// migrates the hot shard to the full-speed module; without it the
/// backlog must be slept out at the 4×-slowed pace during the drain,
/// and the honest (drain-inclusive) predictions/s collapses.
struct HotspotResult {
    rebalance: bool,
    sensed: u64,
    ingested: u64,
    predicted: u64,
    migrations_in: u64,
    migrations_out: u64,
    decisions: u64,
    seconds: f64,
    items_per_sec: f64,
}

fn run_hotspot_cell(rebalance: bool, seconds: f64) -> HotspotResult {
    const RATE_HZ: f64 = 40.0;
    let predict = |k: u64| {
        OperatorSpec::sink(
            format!("predict-{k}"),
            OperatorKind::Predict {
                algorithm: "pa".into(),
            },
            vec!["sensor/#".into()],
        )
        .sharded(2, k)
    };
    // The hotspot: one predict shard alone on the slowed module. Block
    // policy with a deep mailbox so nothing is shed — conservation must
    // hold in both cells, with and without the migration.
    let slow = NodeConfig::new("analysis-slow")
        .with_broker_node("broker")
        .with_operator(predict(0))
        .with_workers(1)
        .with_mailbox(512, ShedPolicy::Block)
        .with_load_reports(100)
        .with_migrations();
    let fast = NodeConfig::new("analysis-fast")
        .with_broker_node("broker")
        .with_operator(OperatorSpec::sink(
            "ingest",
            OperatorKind::Custom {
                operator: "ingest".into(),
            },
            vec!["sensor/#".into()],
        ))
        .with_operator(predict(1))
        .with_workers(2)
        .with_mailbox(512, ShedPolicy::Block)
        .with_load_reports(100)
        .with_migrations();
    // Same topology either way; only the controller's rebalancer knob
    // differs, so the cells are comparable.
    let mut controller = NodeConfig::new("controller").with_broker_node("broker");
    if rebalance {
        // Aggressive detection: the earlier the hot shard is flagged,
        // the smaller the backlog the source must drain (at its slowed
        // pace) before the handover — which is exactly when migrating
        // is cheap. One hysteresis tick is enough here because the 4×
        // imbalance is unambiguous within a single load window.
        controller = controller.with_rebalancer(RebalanceConfig {
            interval_ms: 150,
            hot_wait_ms: 30.0,
            ratio: 2.0,
            hysteresis_ticks: 1,
            // Longer than any cell: at most one migration, and the hot
            // shard never flaps back to the drained slow module.
            cooldown_ms: 60_000,
        });
    }
    let cluster = ClusterBuilder::new()
        .node(NodeConfig::new("broker").with_broker())
        .node(
            NodeConfig::new("sensor-node")
                .with_broker_node("broker")
                .with_sensor(SensorSpec::new(SensorKind::Sound, 1, RATE_HZ, 7)),
        )
        // The 4×-slowed module: reference CPU cost slept out at 0.25.
        .node_with_speed(slow, 0.25)
        .node_with_speed(fast, 1.0)
        .node(controller)
        .start();
    let start = Instant::now();
    let report = cluster.run_for(Duration::from_secs_f64(seconds));
    let elapsed = start.elapsed().as_secs_f64();
    let predicted = report.metrics.counter("predicted");
    HotspotResult {
        rebalance,
        sensed: report.metrics.counter("flow_items_published"),
        ingested: report.metrics.counter("custom_ingest"),
        predicted,
        migrations_in: report.metrics.counter("migrations_in"),
        migrations_out: report.metrics.counter("migrations_out"),
        decisions: report.metrics.counter("rebalance_decisions"),
        seconds: elapsed,
        items_per_sec: predicted as f64 / elapsed,
    }
}

fn hotspot_json(r: &HotspotResult) -> String {
    format!(
        "{{ \"rebalance\": {}, \"sensed\": {}, \"ingested\": {}, \"predicted\": {}, \"migrations_out\": {}, \"migrations_in\": {}, \"decisions\": {}, \"seconds\": {:.2}, \"items_per_sec\": {:.1} }}",
        r.rebalance,
        r.sensed,
        r.ingested,
        r.predicted,
        r.migrations_out,
        r.migrations_in,
        r.decisions,
        r.seconds,
        r.items_per_sec,
    )
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let seconds = if quick { 1.5 } else { 3.0 };
    let cell = |rate_hz: f64, workers: usize, policy: ShedPolicy, batch, coalesce| CellSpec {
        rate_hz,
        workers,
        policy,
        batch,
        coalesce,
    };
    let cells: Vec<CellSpec> = if quick {
        vec![
            // Sub-saturation accounting check: every sensed sample must
            // be ingested and predicted (the phased shutdown drains
            // in-flight items instead of dropping the tail).
            cell(5.0, 1, ShedPolicy::Block, None, false),
            cell(80.0, 1, ShedPolicy::ShedOldest, None, false),
            cell(80.0, 4, ShedPolicy::ShedOldest, None, false),
            // Codec x batch smoke: the binary micro-batched flow path
            // through the same sharded recipe.
            cell(80.0, 4, ShedPolicy::ShedOldest, Some((16, 50)), false),
            // Sharded x coalesced smoke: re-coalescing at stage ingress
            // must conserve the flow and rebuild near-batch_max batches
            // on the predict shards.
            cell(80.0, 1, ShedPolicy::ShedOldest, Some((16, 50)), true),
            cell(80.0, 4, ShedPolicy::ShedOldest, Some((16, 50)), true),
        ]
    } else {
        let mut cells: Vec<CellSpec> = Vec::new();
        for &rate in &[5.0, 20.0, 80.0] {
            for &workers in &[1usize, 2, 4] {
                for &policy in &[
                    ShedPolicy::Block,
                    ShedPolicy::ShedOldest,
                    ShedPolicy::ShedNewest,
                ] {
                    cells.push(cell(rate, workers, policy, None, false));
                }
            }
        }
        // Binary micro-batched variants of the shed-oldest column, with
        // and without stage-ingress re-coalescing.
        for &rate in &[5.0, 20.0, 80.0] {
            for &workers in &[1usize, 4] {
                cells.push(cell(
                    rate,
                    workers,
                    ShedPolicy::ShedOldest,
                    Some((16, 50)),
                    false,
                ));
                cells.push(cell(
                    rate,
                    workers,
                    ShedPolicy::ShedOldest,
                    Some((16, 50)),
                    true,
                ));
            }
        }
        cells
    };
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);

    println!("{{");
    println!("  \"bench\": \"pipeline_scaling_thread_rt_sharded_predict\",");
    println!("  \"unit\": \"predictions per second through a 1-ingest + {SHARDS}-shard predict recipe under reference CPU cost emulation\",");
    println!("  \"mode\": \"{}\",", if quick { "quick" } else { "full" });
    println!("  \"host_cores\": {cores},");
    println!("  \"seconds_per_cell\": {seconds},");
    println!("  \"mailbox_capacity\": {MAILBOX},");
    println!("  \"results\": [");
    let mut w1_peak: Option<f64> = None;
    let mut w4_peak: Option<f64> = None;
    let mut coalesce_w1: Option<f64> = None;
    let mut subsat: Option<(u64, u64, u64)> = None;
    let mut coalesced_conservation: Vec<(u64, u64, u64)> = Vec::new();
    let mut coalesced_mean_sub_batch: Option<f64> = None;
    let mut batched_predictions: u64 = 0;
    let max_rate = cells.iter().map(|c| c.rate_hz).fold(0.0f64, f64::max);
    for (i, spec) in cells.iter().enumerate() {
        let r = run_cell(spec, seconds);
        if spec.rate_hz == max_rate && spec.policy == ShedPolicy::ShedOldest {
            if spec.batch.is_none() && !spec.coalesce {
                if spec.workers == 1 {
                    w1_peak = Some(r.items_per_sec);
                }
                if spec.workers == 4 {
                    w4_peak = Some(r.items_per_sec);
                }
            }
            if spec.coalesce {
                if spec.workers == 1 {
                    coalesce_w1 = Some(r.items_per_sec);
                }
                if spec.workers == 4 {
                    coalesced_mean_sub_batch = Some(r.mean_sub_batch);
                }
            }
        }
        if spec.rate_hz == 5.0
            && spec.policy == ShedPolicy::Block
            && spec.batch.is_none()
            && subsat.is_none()
        {
            subsat = Some((r.sensed, r.ingested, r.predicted));
        }
        if spec.coalesce {
            coalesced_conservation.push((r.sensed, r.ingested, r.predicted));
        }
        if spec.batch.is_some() {
            batched_predictions += r.predicted;
        }
        let (batch_max, linger_ms) = r.batch.unwrap_or((1, 0));
        let comma = if i + 1 == cells.len() { "" } else { "," };
        println!(
            "    {{ \"rate_hz\": {}, \"workers\": {}, \"policy\": \"{}\", \"wire\": \"{}\", \"batch_max\": {}, \"linger_ms\": {}, \"coalesce\": {}, \"sensed\": {}, \"ingested\": {}, \"predicted\": {}, \"frames\": {}, \"seconds\": {:.2}, \"items_per_sec\": {:.1}, \"shed\": {}, \"delay_mean_ms\": {:.2}, \"delay_max_ms\": {:.2}, \"mean_sub_batch\": {:.2} }}{comma}",
            r.rate_hz,
            r.workers,
            policy_name(r.policy),
            if r.batch.is_some() { "binary" } else { "raw" },
            batch_max,
            linger_ms,
            r.coalesce,
            r.sensed,
            r.ingested,
            r.predicted,
            r.frames,
            r.seconds,
            r.items_per_sec,
            r.shed,
            r.delay_mean_ms,
            r.delay_max_ms,
            r.mean_sub_batch,
        );
    }
    println!("  ],");
    let speedup = match (w1_peak, w4_peak) {
        (Some(one), Some(four)) if one > 0.0 => four / one,
        _ => 0.0,
    };
    println!("  \"speedup_w4_over_w1\": {speedup:.2},");
    // Re-coalescing vs the per-item sharded baseline on one worker: the
    // CPU-bound configuration where amortizing the per-call model cost
    // shows up directly as throughput.
    let speedup_coalesce = match (w1_peak, coalesce_w1) {
        (Some(base), Some(co)) if base > 0.0 => co / base,
        _ => 0.0,
    };
    println!("  \"speedup_coalesce_w1\": {speedup_coalesce:.2},");
    // Direct stage-to-stage handoff (DESIGN.md §5): the ≥3-stage
    // intra-node chain with workers routing their own hops. The
    // sub-saturation Block cell pins exact conservation through the
    // chain; the 80 Hz × 4-device cell is the loaded case.
    // Longer windows than the sweep cells: the chain cells are measured
    // drain-inclusive, and the fixed shutdown tail must not drown the
    // steady state.
    let chain_seconds = if quick { 4.0 } else { 6.0 };
    let chain_conserve = run_chain_cell(1, 20.0, ShedPolicy::Block, 512, chain_seconds);
    let chain_on = run_chain_cell(4, 80.0, ShedPolicy::ShedOldest, MAILBOX, chain_seconds);
    println!("  \"handoff_chain\": {{");
    println!("    \"stages\": \"sensor/# -> refine-0 -> refine-1 -> refine-2 -> predict x{SHARDS} (3 intra-node hops)\",");
    println!("    \"cells\": [");
    println!("      {},", chain_json(&chain_conserve));
    println!("      {}", chain_json(&chain_on));
    println!("    ]");
    println!("  }},");
    // Hotspot recovery (elastic placement, DESIGN.md §5): the same
    // 2-shard predict pipeline with shard 0 pinned on a 4×-slowed
    // module, measured with and without the rebalancing controller.
    // The honest drain-inclusive predictions/s is what recovers.
    let hotspot_seconds = if quick { 4.0 } else { 8.0 };
    let baseline = run_hotspot_cell(false, hotspot_seconds);
    let rebalanced = run_hotspot_cell(true, hotspot_seconds);
    let recovery = if baseline.items_per_sec > 0.0 {
        rebalanced.items_per_sec / baseline.items_per_sec
    } else {
        0.0
    };
    println!("  \"hotspot\": {{");
    println!("    \"baseline\": {},", hotspot_json(&baseline));
    println!("    \"rebalanced\": {},", hotspot_json(&rebalanced));
    println!("    \"recovery\": {recovery:.2}");
    println!("  }}");
    println!("}}");
    if quick {
        // CI smoke: the pooled path must make progress on both cells.
        assert!(
            w1_peak.unwrap_or(0.0) > 0.0 && w4_peak.unwrap_or(0.0) > 0.0,
            "pooled executor produced no predictions"
        );
        // Accounting: below saturation nothing may be lost — including
        // the final in-flight samples at shutdown.
        let (sensed, ingested, predicted) = subsat.expect("sub-saturation cell present");
        assert!(
            sensed == ingested && sensed == predicted,
            "sub-saturation cell lost items: sensed={sensed} ingested={ingested} predicted={predicted}"
        );
        // The binary micro-batched path must flow end to end.
        assert!(
            batched_predictions > 0,
            "codec x batch cell produced no predictions"
        );
        // Sharded x coalesced accounting: stage-ingress re-coalescing
        // buffers sub-batches, so the drain must hand every buffered
        // item to its shard — nothing lost across the shard cover.
        for (sensed, ingested, predicted) in &coalesced_conservation {
            assert!(
                sensed == ingested && sensed == predicted,
                "coalesced cell lost items: sensed={sensed} ingested={ingested} predicted={predicted}"
            );
        }
        // Re-coalescing must rebuild near-batch_max batches on the
        // 4-way sharded predict stages (>= 0.75 x batch_max), not
        // deliver the ~1-item splinters sharding produces.
        let mean = coalesced_mean_sub_batch.expect("coalesced cell present");
        assert!(
            mean >= 0.75 * COALESCE_BATCH_MAX as f64,
            "coalesced predict stages saw mean sub-batch {mean:.2} < 0.75 x {COALESCE_BATCH_MAX}"
        );
        // The point of re-coalescing: a single worker amortizes the
        // per-call model cost and must clearly beat the per-item
        // sharded baseline at the same rate.
        assert!(
            speedup_coalesce >= 1.5,
            "coalesced w1 cell did not reach 1.5x the per-item sharded baseline: {speedup_coalesce:.2}"
        );
        // Direct-handoff chain: below saturation the three-hop chain
        // must conserve the flow exactly — every sensed sample is
        // refined three times and predicted by exactly one shard.
        assert!(
            chain_conserve.sensed == chain_conserve.ingested
                && chain_conserve.sensed == chain_conserve.predicted,
            "chain cell lost items: sensed={} ingested={} predicted={}",
            chain_conserve.sensed,
            chain_conserve.ingested,
            chain_conserve.predicted
        );
        // The workers must route the intra-node hot path themselves:
        // >= 90% of flow hops handed off directly, not via the node
        // thread.
        assert!(
            chain_on.handoff_direct_ratio >= 0.9,
            "direct handoff covered only {:.3} of intra-node hops ({} direct, {} fallback, {} stale)",
            chain_on.handoff_direct_ratio,
            chain_on.handoff_direct,
            chain_on.handoff_fallback,
            chain_on.handoff_stale
        );
        // Hotspot recovery: the migration must actually happen, must
        // lose nothing across the handover (Block mailboxes + the
        // fence protocol: sensed == ingested == predicted in BOTH
        // cells), and must buy back >= 1.5x throughput.
        for r in [&baseline, &rebalanced] {
            assert!(
                r.sensed == r.ingested && r.sensed == r.predicted,
                "hotspot cell (rebalance={}) lost items: sensed={} ingested={} predicted={}",
                r.rebalance,
                r.sensed,
                r.ingested,
                r.predicted
            );
        }
        assert!(
            rebalanced.migrations_in >= 1 && rebalanced.migrations_out >= 1,
            "rebalancer never migrated the hot shard (decisions={})",
            rebalanced.decisions
        );
        assert!(
            recovery >= 1.5,
            "hotspot recovery {recovery:.2} < 1.5x the no-rebalance baseline"
        );
    }
}
