//! Microbenchmarks of the intra-node router (DESIGN.md §5): the fan-out
//! of a decoded frame over a plan — per-shard sub-batches, moved or
//! cloned — and the memoized topic→stage resolution behind it.
//!
//! The fan-out pair shows the move path (sharded consumers only: each
//! item moves into its shard) against the clone path (an unsharded
//! consumer keeps the frame whole, so the shards get copies). The route
//! pair shows the hit path (one hash lookup) against the cold resolve it
//! memoizes (filter parse per spec per topic).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ifot_core::config::{ExecutorConfig, OperatorKind, OperatorSpec};
use ifot_core::executor::router::{claimants, materialize, RoutePlan};
use ifot_core::executor::ExecutorGraph;
use ifot_core::flow::FlowItem;
use ifot_core::wire::DecodedItems;
use ifot_ml::feature::Datum;

/// A representative sensor-derived flow item with a monotone sequence.
fn item(seq: u64) -> FlowItem {
    FlowItem {
        topic: "sensor/sound/1".into(),
        origin_ts_ns: 1_234_567_890 + seq * 12_500_000,
        seq,
        datum: Datum::new().with("sound_0", 12.5 + seq as f64),
        label: None,
        score: None,
    }
}

fn frame(n: usize) -> Vec<FlowItem> {
    (0..n as u64).map(item).collect()
}

/// The pipeline-scaling recipe's spec list: one unsharded ingest stage
/// plus four complementary shards of a predict task.
fn sharded_specs() -> Vec<OperatorSpec> {
    let mut specs = vec![OperatorSpec::sink(
        "ingest",
        OperatorKind::Custom {
            operator: "ingest".into(),
        },
        vec!["sensor/#".into()],
    )];
    for k in 0..4 {
        specs.push(
            OperatorSpec::sink(
                format!("predict-{k}"),
                OperatorKind::Predict {
                    algorithm: "pa".into(),
                },
                vec!["sensor/#".into()],
            )
            .sharded(4, k),
        );
    }
    specs
}

fn bench_fan_out(c: &mut Criterion) {
    let mut group = c.benchmark_group("shard_router_fan_out");
    let with_ingest = RoutePlan::resolve(&sharded_specs(), "sensor/sound/1");
    let shards_only = RoutePlan {
        stages: with_ingest.stages[1..].to_vec(),
    };
    for &n in &[4usize, 16, 64] {
        let items = frame(n);
        group.throughput(Throughput::Elements(n as u64));
        for (name, plan) in [("mod4_moved", &shards_only), ("mod4_cloned", &with_ingest)] {
            group.bench_with_input(BenchmarkId::new(name, n), &items, |b, items| {
                b.iter(|| {
                    let claimed = claimants(plan, items.iter().map(|i| i.seq));
                    let group = DecodedItems::Many(black_box(items.clone()));
                    materialize(&claimed, group, |route, work| {
                        black_box((route.stage, work));
                    })
                })
            });
        }
    }
    group.finish();
}

fn bench_route(c: &mut Criterion) {
    let mut group = c.benchmark_group("shard_router_route");
    let specs = sharded_specs();
    group.bench_function("resolve_cold", |b| {
        b.iter(|| RoutePlan::resolve(black_box(&specs), black_box("sensor/sound/1")))
    });
    let graph = ExecutorGraph::compile(specs, &ExecutorConfig::default());
    graph.route("sensor/sound/1");
    group.bench_function("cache_hit", |b| {
        b.iter(|| graph.route(black_box("sensor/sound/1")))
    });
    group.finish();
}

criterion_group!(benches, bench_fan_out, bench_route);
criterion_main!(benches);
