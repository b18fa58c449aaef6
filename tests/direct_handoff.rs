//! Integration: direct stage-to-stage handoff through the public
//! worker-pool API.
//!
//! The unit tests in `executor::handoff` pin the routing decisions; this
//! suite drives real worker threads end-to-end and pins the properties
//! the node runtime depends on:
//!
//! * **Per-topic FIFO** — a single-worker chain delivers every item to
//!   egress in injection order: direct handoff must not reorder a
//!   stage's mailbox.
//! * **Exact conservation** — a multi-worker fan-out delivers every
//!   emission to every consumer exactly once, all of it counted as
//!   direct handoff when nothing saturates.
//!
//! The test thread plays the node: the pool's `deliver` callback only
//! pushes into a shared inbox (never blocks, mirroring the real
//! node-thread channel) and the main thread drains it, routing any
//! fallback leftovers like the node's `handle_outputs` would.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ifot::core::config::{ExecutorConfig, OperatorKind, OperatorSpec};
use ifot::core::executor::pool::{WorkerPool, WorkerRuntime};
use ifot::core::executor::{ExecutorGraph, WorkItem};
use ifot::core::flow::{FlowItem, FlowMessage};
use ifot::core::operators::OpOutput;
use ifot::ml::feature::Datum;
use ifot::netsim::metrics::Metrics;

/// Pass-through stage feeding other local stages (handoff-eligible).
fn link(id: &str, input: &str, output: &str) -> OperatorSpec {
    OperatorSpec::through(
        id,
        OperatorKind::Custom {
            operator: "probe".into(),
        },
        vec![input.into()],
        output,
    )
    .local_only()
}

/// Pass-through stage whose output is published (egress: never handed
/// off, always routed through `deliver`).
fn egress(id: &str, input: &str, output: &str) -> OperatorSpec {
    OperatorSpec::through(
        id,
        OperatorKind::Custom {
            operator: "probe".into(),
        },
        vec![input.into()],
        output,
    )
}

fn probe_item(topic: &str, i: u64) -> FlowItem {
    FlowItem {
        topic: topic.into(),
        origin_ts_ns: i,
        seq: i,
        datum: Datum::new().with("x", i as f64),
        label: None,
        score: None,
    }
}

/// Outputs captured off worker threads, tagged with the emitting stage.
type Inbox = Arc<Mutex<Vec<(usize, OpOutput)>>>;

fn spawn_pool(graph: &ExecutorGraph, workers: usize, inbox: &Inbox) -> WorkerPool {
    let sink = Arc::clone(inbox);
    WorkerPool::spawn(
        "handoff-test",
        workers,
        graph.cells(),
        Arc::new(move |src, outputs| {
            let mut inbox = sink.lock().expect("no inbox holder panicked");
            inbox.extend(outputs.into_iter().map(|o| (src, o)));
        }),
        graph.direct_handoff(),
        WorkerRuntime {
            epoch: Instant::now(),
            metrics: Arc::new(Mutex::new(Metrics::new())),
            speed: None,
            seed: 0x1F07,
        },
    )
}

/// Drains the inbox until `expected` egress emissions arrived (or a
/// deadline passes), playing the node thread for fallback leftovers:
/// emissions on a non-egress stage's output topic are re-routed to their
/// consumers via the graph's route plan, like the node's `handle_outputs`.
fn collect_egress(
    graph: &ExecutorGraph,
    pool: &WorkerPool,
    inbox: &Inbox,
    expected: usize,
) -> Vec<(usize, FlowMessage)> {
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut out: Vec<(usize, FlowMessage)> = Vec::new();
    while out.len() < expected && Instant::now() < deadline {
        let drained: Vec<(usize, OpOutput)> = {
            let mut inbox = inbox.lock().expect("no inbox holder panicked");
            inbox.drain(..).collect()
        };
        let mut routed = false;
        for (src, output) in drained {
            let msg = match output {
                OpOutput::Emit(m) => m,
                other => panic!("pass-through stages only emit, got {other:?}"),
            };
            let spec = &graph.specs()[src];
            if spec.publish_output {
                out.push((src, msg));
                continue;
            }
            // Fallback leftover: route it like the node thread.
            let topic = spec.output.clone().expect("emitting stage has an output");
            let plan = graph.route(&topic);
            for route in &plan.stages {
                if route.stage == src {
                    continue;
                }
                graph.enqueue(
                    route.stage,
                    WorkItem::Item(FlowItem::from_message(topic.as_str(), msg.clone())),
                    0,
                );
                routed = true;
            }
        }
        if routed {
            pool.notify_work();
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    out
}

/// A single worker draining a three-stage chain must deliver every item
/// to egress in injection order — direct handoff preserves per-topic
/// FIFO — and every intra-node hop must be a direct handoff.
#[test]
fn single_worker_chain_is_fifo_and_fully_direct() {
    const N: u64 = 400;
    let specs = vec![
        link("a", "flow/in", "flow/ab"),
        link("b", "flow/ab", "flow/bc"),
        egress("c", "flow/bc", "flow/out"),
    ];
    let config = ExecutorConfig {
        workers: 1,
        mailbox_capacity: 1024,
        ..ExecutorConfig::default()
    };
    let graph = ExecutorGraph::compile(specs, &config);
    let inbox: Inbox = Arc::new(Mutex::new(Vec::new()));
    let pool = spawn_pool(&graph, 1, &inbox);

    for i in 0..N {
        graph.enqueue(0, WorkItem::Item(probe_item("flow/in", i)), 0);
    }
    pool.notify_work();
    let out = collect_egress(&graph, &pool, &inbox, N as usize);
    pool.stop();

    assert_eq!(out.len(), N as usize, "every item must reach egress");
    let origins: Vec<u64> = out.iter().map(|(_, m)| m.origin_ts_ns).collect();
    assert_eq!(
        origins,
        (0..N).collect::<Vec<_>>(),
        "direct handoff must preserve per-topic FIFO"
    );
    assert!(out.iter().all(|(src, _)| *src == 2), "egress comes from c");

    // Both intra-node hops (a→b, b→c) were direct; nothing saturated
    // (capacity 1024 > N) and nothing churned the routes.
    for stage in [0, 1] {
        let stats = graph.stats(stage);
        assert_eq!(stats.handoff_direct, N, "stage {stage} hops are direct");
        assert_eq!(stats.handoff_fallback, 0);
        assert_eq!(stats.handoff_stale_route, 0);
    }
    // Egress is never handed off.
    assert_eq!(graph.stats(2).handoff_direct, 0);

    let direct: u64 = (0..2).map(|s| graph.stats(s).handoff_direct).sum();
    let total: u64 = (0..2)
        .map(|s| {
            let st = graph.stats(s);
            st.handoff_direct + st.handoff_fallback + st.handoff_stale_route
        })
        .sum();
    assert!(
        direct as f64 >= 0.9 * total as f64,
        "direct handoff must cover >=90% of intra-node hops: {direct}/{total}"
    );
}

/// Four workers draining a fan-out (one producer, two egress consumers)
/// must conserve the flow exactly: each of the `N` emissions reaches
/// both consumers exactly once, all by direct handoff. (Inbox *arrival*
/// order is not asserted here — `deliver` runs after the stage lock is
/// released, so two workers stepping the same consumer back-to-back may
/// invert it, exactly as on the pre-handoff pooled path. Mailbox FIFO
/// itself is pinned by the single-worker test above.)
#[test]
fn multi_worker_fanout_conserves_every_item() {
    const N: u64 = 500;
    let specs = vec![
        link("a", "flow/in", "flow/ab"),
        egress("b", "flow/ab", "flow/out/b"),
        egress("c", "flow/ab", "flow/out/c"),
    ];
    let config = ExecutorConfig {
        workers: 4,
        mailbox_capacity: 4096,
        ..ExecutorConfig::default()
    };
    let graph = ExecutorGraph::compile(specs, &config);
    let inbox: Inbox = Arc::new(Mutex::new(Vec::new()));
    let pool = spawn_pool(&graph, 4, &inbox);

    for i in 0..N {
        graph.enqueue(0, WorkItem::Item(probe_item("flow/in", i)), 0);
    }
    pool.notify_work();
    let out = collect_egress(&graph, &pool, &inbox, 2 * N as usize);
    pool.stop();

    assert_eq!(
        out.len(),
        2 * N as usize,
        "exact conservation: N per consumer"
    );
    for stage in [1usize, 2] {
        let mut origins: Vec<u64> = out
            .iter()
            .filter(|(src, _)| *src == stage)
            .map(|(_, m)| m.origin_ts_ns)
            .collect();
        origins.sort_unstable();
        assert_eq!(
            origins,
            (0..N).collect::<Vec<_>>(),
            "consumer stage {stage} must see every item exactly once"
        );
    }
    // Nothing saturates (capacity 4096 > N): the producer's 2N hops are
    // all direct, which also satisfies the >=90% intra-node bound.
    let stats = graph.stats(0);
    assert_eq!(stats.handoff_direct, 2 * N);
    assert_eq!(stats.handoff_fallback, 0);
    assert_eq!(stats.handoff_stale_route, 0);
}
