//! Microbenchmarks of the binary flow codec: message and batch frame
//! round trips, the ingress peek helpers, and the payload sniffing in
//! `decode_items` (DESIGN.md §5).
//!
//! The JSON side of the codec is deliberately absent here: its cost is
//! dominated by the generic serde encoder and the size comparison is
//! reported by the `flow_codec` bin instead.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ifot_core::flow::{FlowBatch, FlowMessage};
use ifot_core::wire::{
    decode_batch, decode_items, decode_message, encode_batch_binary, encode_message_binary,
    peek_first_origin, peek_item_count,
};
use ifot_ml::feature::Datum;
use ifot_sensors::sample::{Sample, SensorKind};

/// A representative sensor-derived flow message (one datum key, no
/// label/score — what the sensing plane coalesces).
fn sensor_message(i: u64) -> FlowMessage {
    FlowMessage {
        producer: "sensor-node".into(),
        origin_ts_ns: 1_234_567_890 + i * 12_500_000,
        seq: 42 + i,
        datum: Datum::new().with("sound_0", 12.5 + i as f64),
        label: None,
        score: None,
    }
}

fn bench_message(c: &mut Criterion) {
    let mut group = c.benchmark_group("flow_codec_message");
    let msg = sensor_message(0);
    let frame = encode_message_binary(&msg);
    group.bench_function("encode_binary", |b| {
        b.iter(|| encode_message_binary(black_box(&msg)))
    });
    group.bench_function("decode_binary", |b| {
        b.iter(|| decode_message(black_box(&frame)).expect("decodes"))
    });
    group.finish();
}

fn bench_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("flow_codec_batch");
    for &n in &[4usize, 16, 64] {
        let batch = FlowBatch {
            items: (0..n as u64).map(sensor_message).collect(),
        };
        let frame = encode_batch_binary(&batch);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("encode_binary", n), &batch, |b, batch| {
            b.iter(|| encode_batch_binary(black_box(batch)))
        });
        group.bench_with_input(BenchmarkId::new("decode_binary", n), &frame, |b, frame| {
            b.iter(|| decode_batch(black_box(frame)).expect("decodes"))
        });
        group.bench_with_input(BenchmarkId::new("decode_items", n), &frame, |b, frame| {
            b.iter(|| decode_items("sensor/sound/1", black_box(frame)).expect("decodes"))
        });
    }
    group.finish();
}

fn bench_ingress(c: &mut Criterion) {
    let mut group = c.benchmark_group("flow_codec_ingress");
    let batch_frame = encode_batch_binary(&FlowBatch {
        items: (0..16).map(sensor_message).collect(),
    });
    let raw_sample = Sample::new(SensorKind::Sound, 1, 42, 1_234_567_890, &[12.5]).encode();
    group.bench_function("peek_first_origin_batch16", |b| {
        b.iter(|| peek_first_origin(black_box(&batch_frame)))
    });
    group.bench_function("peek_item_count_batch16", |b| {
        b.iter(|| peek_item_count(black_box(&batch_frame)))
    });
    group.bench_function("decode_items_raw_sample", |b| {
        b.iter(|| decode_items("sensor/sound/1", black_box(&raw_sample)).expect("decodes"))
    });
    group.finish();
}

criterion_group!(benches, bench_message, bench_batch, bench_ingress);
criterion_main!(benches);
