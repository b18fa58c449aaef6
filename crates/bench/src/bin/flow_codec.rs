//! Binary flow codec + micro-batch measurement (no criterion), used to
//! record `BENCH_flow_codec.json`: a real thread cluster (sensor ->
//! embedded broker -> analysis node) where the analysis node runs one
//! `Predict` task on a single worker under speed emulation, so every
//! prediction carries its reference model cost (~30 ms per call) as
//! wall time.
//!
//! The swept knob is the flow path itself (DESIGN.md §5): the seed
//! behaviour publishes one frame per sample and pays the predict-call
//! cost per item, while the batched cells coalesce samples into compact
//! binary [`FlowBatch`] frames (`NodeConfig::with_batching`) and let
//! `PredictOp::on_batch` charge the per-call cost once per batch. At
//! 80 Hz x 1 worker the per-sample path saturates near 1/PREDICT_MS
//! items/s; the batched path amortizes the call and follows the arrival
//! rate — the >=2x step this codec exists for.
//!
//! The full sweep adds shard x batch cells: splitting the predict task
//! into four sequence-sharded replicas splinters each arriving batch
//! into ~quarter-size sub-batches, collapsing the amortization the
//! batched column just bought. The `sharded4_coalesce` cell turns on
//! stage-ingress re-coalescing (`NodeConfig::with_stage_coalescing`),
//! which rebuilds full batches per shard before delivery and restores
//! the batched rate (the `mean_sub_batch` column shows the executed
//! batch size either way).
//!
//! A static `frame_bytes` section compares wire images for one
//! representative sensor-derived message: the 32-byte raw sample, the
//! JSON [`FlowMessage`] image, the binary frame, and the per-item cost
//! inside a 16-item binary batch (shared header + key dictionary +
//! delta-encoded timestamps).
//!
//! Run with `cargo run --release -p ifot-bench --bin flow_codec`
//! (add `--quick` for a CI smoke run with two cells).

use std::time::{Duration, Instant};

use ifot_core::config::{NodeConfig, OperatorKind, OperatorSpec, SensorSpec, ShedPolicy};
use ifot_core::flow::{FlowBatch, FlowItem, FlowMessage};
use ifot_core::thread_rt::ClusterBuilder;
use ifot_core::wire::{encode_batch_binary, encode_message_binary, WireFormat};
use ifot_sensors::sample::{Sample, SensorKind};

/// Sensing rate: far above the ~29 items/s a single worker sustains on
/// the per-sample path, so batching headroom is visible.
const RATE_HZ: f64 = 80.0;
/// Mailbox bound on the predict stage (shed-oldest keeps the overloaded
/// per-sample cell's backlog — and its shutdown drain — bounded).
const MAILBOX: usize = 32;

/// Stage-ingress re-coalescing target when a cell enables it.
const COALESCE_BATCH_MAX: usize = 8;

struct Cell {
    label: &'static str,
    batch: Option<(usize, u64)>,
    /// Sequence-sharded predict replicas (0 = one unsharded task).
    shards: u64,
    /// Re-coalesce sharded sub-batches at the analysis stage ingress.
    coalesce: bool,
}

struct CellResult {
    sensed: u64,
    predicted: u64,
    batch_calls: u64,
    frames: u64,
    frame_items: u64,
    frame_bytes: u64,
    seconds: f64,
    items_per_sec: f64,
    delay_mean_ms: f64,
    /// Mean executed batch size across the predict stages.
    mean_sub_batch: f64,
}

/// Runs one cell: `seconds` of wall time at [`RATE_HZ`] sensing, with
/// the sensor node publishing per-sample (seed behaviour) or coalescing
/// into binary batches of up to `batch_max` items / `linger_ms` ms.
/// With `shards > 0` the predict task splits into that many
/// complementary sequence shards; `coalesce` re-coalesces the resulting
/// sub-batches at stage ingress before delivery.
fn run_cell(cell: &Cell, seconds: f64) -> CellResult {
    let mut sensor = NodeConfig::new("sensor-node")
        .with_broker_node("broker")
        .with_sensor(SensorSpec::new(SensorKind::Sound, 1, RATE_HZ, 7));
    if let Some((batch_max, linger_ms)) = cell.batch {
        sensor = sensor
            .with_wire_format(WireFormat::Binary)
            .with_batching(batch_max, linger_ms);
    }
    let predict = |id: String| {
        OperatorSpec::sink(
            id,
            OperatorKind::Predict {
                algorithm: "pa".into(),
            },
            vec!["sensor/#".into()],
        )
    };
    let mut analysis = NodeConfig::new("analysis").with_broker_node("broker");
    if cell.shards == 0 {
        analysis = analysis.with_operator(predict("predict".into()));
    } else {
        for k in 0..cell.shards {
            analysis =
                analysis.with_operator(predict(format!("predict-{k}")).sharded(cell.shards, k));
        }
    }
    analysis = analysis
        .with_workers(1)
        .with_mailbox(MAILBOX, ShedPolicy::ShedOldest);
    if cell.coalesce {
        analysis = analysis
            .with_batching(COALESCE_BATCH_MAX, 50)
            .with_stage_coalescing();
    }
    let cluster = ClusterBuilder::new()
        .node(NodeConfig::new("broker").with_broker())
        .node(sensor)
        // Speed 1.0: the analysis node sleeps out each predict call's
        // reference CPU cost, so batch amortization is measurable.
        .node_with_speed(analysis, 1.0)
        .start();
    // Time the full cell including shutdown: the overloaded per-sample
    // cell drains its bounded backlog (still sleeping out costs) after
    // the nominal window, and that drain is part of honest throughput.
    let start = Instant::now();
    let report = cluster.run_for(Duration::from_secs_f64(seconds));
    let elapsed = start.elapsed().as_secs_f64();

    let predicted = report.metrics.counter("predicted");
    let delay = report.metrics.latency_summary("sensing_to_predicting");
    // Every analysis stage here is a predict replica.
    let stats = report
        .node("analysis")
        .expect("analysis node present")
        .stage_stats();
    let batched_items: u64 = stats.iter().map(|s| s.batched_items).sum();
    let batch_entries: u64 = stats.iter().map(|s| s.batch_entries).sum();
    let mean_sub_batch = if batch_entries > 0 {
        batched_items as f64 / batch_entries as f64
    } else {
        0.0
    };
    CellResult {
        // Per-item accounting: `published` counts MQTT frames (1 per
        // batch), `flow_items_published` counts the samples inside.
        sensed: report.metrics.counter("flow_items_published"),
        predicted,
        batch_calls: report.metrics.counter("predict_batch_calls"),
        frames: report.metrics.counter("flow_frames_published"),
        frame_items: report.metrics.counter("flow_items_published"),
        frame_bytes: report.metrics.counter("flow_bytes_published"),
        seconds: elapsed,
        items_per_sec: predicted as f64 / elapsed,
        delay_mean_ms: delay.mean_ms,
        mean_sub_batch,
    }
}

/// The JSON wire image of a flow message, rendered by hand with the
/// exact field layout `FlowMessage::encode` produces (measured here so
/// the size comparison does not depend on a JSON encoder at runtime).
fn json_image(m: &FlowMessage) -> String {
    let mut datum = String::new();
    for (i, (k, v)) in m.datum.iter().enumerate() {
        if i > 0 {
            datum.push(',');
        }
        datum.push_str(&format!("\"{k}\":{v:?}"));
    }
    format!(
        "{{\"producer\":\"{}\",\"origin_ts_ns\":{},\"seq\":{},\"datum\":{{\"values\":{{{}}}}},\"label\":null,\"score\":null}}",
        m.producer.as_str(), m.origin_ts_ns, m.seq, datum
    )
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let seconds = if quick { 1.5 } else { 3.0 };
    let cell = |label: &'static str, batch, shards, coalesce| Cell {
        label,
        batch,
        shards,
        coalesce,
    };
    let cells: Vec<Cell> = if quick {
        vec![
            cell("per_sample", None, 0, false),
            cell("binary_batch16_linger50", Some((16, 50)), 0, false),
        ]
    } else {
        vec![
            cell("per_sample", None, 0, false),
            cell("binary_batch8_linger25", Some((8, 25)), 0, false),
            cell("binary_batch16_linger50", Some((16, 50)), 0, false),
            cell("binary_batch32_linger100", Some((32, 100)), 0, false),
            // Shard x batch: splitting the predict task four ways
            // splinters each frame into ~4-item sub-batches (the
            // amortization collapse), and stage-ingress re-coalescing
            // rebuilds full batches per shard (the recovery).
            cell("sharded4_batch16", Some((16, 50)), 4, false),
            cell("sharded4_batch16_coalesce", Some((16, 50)), 4, true),
        ]
    };

    // Static wire-image comparison for one representative message.
    let sample = Sample::new(SensorKind::Sound, 1, 42, 1_234_567_890, &[12.5]);
    let item = FlowItem::from_payload("sensor/sound/1", &sample.encode())
        .expect("32-byte samples normalize");
    let msg = item.into_message("sensor-node".to_owned());
    let json_bytes = json_image(&msg).len();
    let binary_bytes = encode_message_binary(&msg).len();
    let batch16 = FlowBatch {
        items: (0..16)
            .map(|i| {
                let mut m = msg.clone();
                m.seq += i;
                m.origin_ts_ns += i * 12_500_000; // 80 Hz spacing
                m
            })
            .collect(),
    };
    let batch16_per_item = encode_batch_binary(&batch16).len() as f64 / 16.0;

    println!("{{");
    println!("  \"bench\": \"flow_codec_micro_batch\",");
    println!("  \"unit\": \"predictions per second through a 1-worker predict stage at {RATE_HZ} Hz under reference CPU cost emulation\",");
    println!("  \"mode\": \"{}\",", if quick { "quick" } else { "full" });
    println!("  \"seconds_per_cell\": {seconds},");
    println!("  \"mailbox_capacity\": {MAILBOX},");
    println!("  \"frame_bytes\": {{ \"raw_sample\": 32, \"json_message\": {json_bytes}, \"binary_message\": {binary_bytes}, \"binary_batch16_per_item\": {batch16_per_item:.1} }},");
    println!("  \"results\": [");
    let mut per_sample_rate: Option<f64> = None;
    let mut best_batch_rate: f64 = 0.0;
    for (i, cell) in cells.iter().enumerate() {
        let r = run_cell(cell, seconds);
        match cell.batch {
            None => per_sample_rate = Some(r.items_per_sec),
            // The unsharded batched column drives the quick-mode
            // speedup gate; sharded cells are reported, not gated.
            Some(_) if cell.shards == 0 => best_batch_rate = best_batch_rate.max(r.items_per_sec),
            Some(_) => {}
        }
        let (batch_max, linger_ms) = cell.batch.unwrap_or((1, 0));
        let bytes_per_item = if r.frame_items > 0 {
            r.frame_bytes as f64 / r.frame_items as f64
        } else {
            0.0
        };
        let comma = if i + 1 == cells.len() { "" } else { "," };
        println!(
            "    {{ \"cell\": \"{}\", \"wire\": \"{}\", \"batch_max\": {}, \"linger_ms\": {}, \"shards\": {}, \"coalesce\": {}, \"sensed\": {}, \"predicted\": {}, \"predict_batch_calls\": {}, \"frames\": {}, \"frame_items\": {}, \"frame_bytes\": {}, \"bytes_per_item\": {:.1}, \"seconds\": {:.2}, \"items_per_sec\": {:.1}, \"delay_mean_ms\": {:.2}, \"mean_sub_batch\": {:.2} }}{comma}",
            cell.label,
            if cell.batch.is_some() { "binary" } else { "raw" },
            batch_max,
            linger_ms,
            cell.shards,
            cell.coalesce,
            r.sensed,
            r.predicted,
            r.batch_calls,
            r.frames,
            r.frame_items,
            r.frame_bytes,
            bytes_per_item,
            r.seconds,
            r.items_per_sec,
            r.delay_mean_ms,
            r.mean_sub_batch,
        );
    }
    println!("  ],");
    let speedup = match per_sample_rate {
        Some(base) if base > 0.0 => best_batch_rate / base,
        _ => 0.0,
    };
    println!("  \"speedup_batch_over_per_sample\": {speedup:.2}");
    println!("}}");

    // Codec invariant: the batched binary frame spends fewer bytes per
    // item than the JSON message image it replaces.
    assert!(
        batch16_per_item < json_bytes as f64,
        "binary batch per-item size {batch16_per_item:.1} not below JSON message size {json_bytes}"
    );
    if quick {
        // CI smoke: batching must amortize the per-call model cost into
        // a clear throughput step over the per-sample path.
        assert!(
            speedup >= 2.0,
            "binary+batch path did not reach 2x the per-sample path: {speedup:.2}"
        );
    }
}
