//! Microbenchmark of one intra-node flow hop (DESIGN.md §5): exactly
//! what a pooled worker executes per step with eligible emissions — a
//! pinned-version plan lookup, the router's fan-out, and a try-enqueue
//! into the destination ingress queue.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use ifot_core::config::{ExecutorConfig, OperatorKind, OperatorSpec, ShedPolicy};
use ifot_core::env::MockEnv;
use ifot_core::executor::handoff::PlanCache;
use ifot_core::executor::ExecutorGraph;
use ifot_core::flow::FlowMessage;
use ifot_core::operators::OpOutput;
use ifot_ml::feature::Datum;

/// A representative refined flow message, as a chain stage emits it.
fn message(seq: u64) -> FlowMessage {
    FlowMessage {
        producer: "a".into(),
        origin_ts_ns: 1_234_567_890 + seq * 12_500_000,
        seq,
        datum: Datum::new().with("sound_0", 12.5 + seq as f64),
        label: None,
        score: None,
    }
}

/// A two-stage intra-node chain; `ShedOldest` with a small bound keeps
/// the destination ingress finite while the bench pushes forever (shed
/// pops are the same `VecDeque` operation the real drain performs).
fn chain_graph() -> ExecutorGraph {
    let specs = vec![
        OperatorSpec::through(
            "a",
            OperatorKind::Custom {
                operator: "probe".into(),
            },
            vec!["flow/in".into()],
            "flow/ab",
        )
        .local_only(),
        OperatorSpec::sink(
            "b",
            OperatorKind::Custom {
                operator: "probe".into(),
            },
            vec!["flow/ab".into()],
        ),
    ];
    let config = ExecutorConfig {
        workers: 1,
        mailbox_capacity: 64,
        shed_policy: ShedPolicy::ShedOldest,
        ..ExecutorConfig::default()
    };
    ExecutorGraph::compile(specs, &config)
}

/// One emission per step, and an eight-emission burst (one stage step's
/// typical output under batched ingress).
fn bench_hop(c: &mut Criterion) {
    for burst in [1u64, 8] {
        let mut group = c.benchmark_group(format!("stage_handoff_burst{burst}"));
        group.throughput(Throughput::Elements(burst));
        let graph = chain_graph();
        let handoff = graph.direct_handoff();
        let mut cache = PlanCache::new();
        let mut env = MockEnv::new();
        let outputs: Vec<OpOutput> = (0..burst).map(|i| OpOutput::Emit(message(7 + i))).collect();
        group.bench_function("direct", |b| {
            b.iter(|| {
                let outcome = handoff.apply(&mut env, 0, black_box(outputs.clone()), &mut cache);
                black_box(outcome.direct)
            })
        });
        group.finish();
    }
}

criterion_group!(benches, bench_hop);
criterion_main!(benches);
