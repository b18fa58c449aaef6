//! Direct stage-to-stage handoff: the worker-side admission mode of the
//! intra-node router.
//!
//! When a stage's flow emissions are consumed only by other stages on
//! the same node, the worker that ran the step routes them itself —
//! through the same [`router`] function pair the node thread uses — and
//! posts them straight to the destination stages' owners: no channel
//! send to the node thread, no node-thread wakeup, no re-enqueue. The
//! node thread stops being the serialization point that caps worker
//! scaling.
//!
//! The hop preserves **batch structure**: a step's emissions all carry
//! the stage's single output topic, so each destination receives them
//! as one work item ([`crate::executor::WorkItem::Batch`] for more than
//! one). Downstream ML stages charge their model cost per *call*, so a
//! refined sensor frame that stays a batch across the chain keeps
//! amortizing that cost.
//!
//! ## Routing ownership rules
//!
//! Which stages exist and what they accept is fixed when the graph is
//! compiled, so each stage's output topic resolves to one plan, once,
//! at [`crate::executor::ExecutorGraph::compile`]. What is left to
//! decide per step is about the data: the step's emissions are handed
//! off directly iff both conditions hold, otherwise they go to the
//! `deliver` callback and the node thread routes them:
//!
//! * they are on an *eligible* output topic — the emitting spec
//!   declares one with `publish_output` off (egress — MQTT publishes, MIX
//!   envelopes, commands, events — always goes through the node thread)
//!   and it carries plain flow data: the discovery (`ifot/announce`),
//!   broker sys (`$SYS/`), model (`mix/`) and sensor (`sensor/`, which
//!   feeds the node's sequence ledger) planes are node-thread business;
//! * every blocking destination has credit (see below).
//!
//! ## Why credit keeps `Block` deadlock-free
//!
//! Every stage has one owner, a pool worker ([`super::pool`]); only the
//! owner runs the stage, and nothing reaches it but a post to the
//! owner's inbox. A `Block` stage bounds the entries queued for it — in
//! its owner's inbox and in its mailbox — by a credit: its capacity
//! minus that count. A poster takes one entry of credit before it posts
//! a flow entry, and the owner gives it back for every entry it pops or
//! sheds. Two kinds of thread post, and only one of them ever waits:
//!
//! * the node thread posts wire ingress, timers, control messages and
//!   fallbacks. Out of credit for a `Block` stage, it waits until the
//!   stage's owner gives some back.
//! * a worker posts its stages' emissions here, and never waits: if a
//!   blocking destination is out of credit it gives back what it took
//!   at the others and hands the whole group to `deliver`, counted as
//!   `handoff_fallback`; the node thread posts it, waiting if it must.
//!
//! So no worker waits on anything but its own inbox, and it parks there
//! only while none of its stages has queued work. The credit the node
//! thread waits for is held by entries in the owner's inbox or in the
//! stage's mailbox. The post that found that inbox empty woke the
//! owner, and the owner does not park while either holds work, so it
//! pops one of them and gives the credit back. The only edges of the
//! wait-for graph run from the node thread to a worker; a cycle needs an
//! edge out of a worker, and there is none. No lock is held while an
//! operator runs, while a thread waits for credit, or while it posts:
//! the inbox, credit-wait, published-figure and return-stack locks are
//! leaves.

use std::borrow::Cow;

use crate::config::OperatorSpec;
use crate::env::NodeEnv;
use crate::flow::{FlowItem, Name};
use crate::operators::OpOutput;
use crate::wire::DecodedItems;

use super::pool::Shared;
use super::router::{self, RoutePlan};
use super::{SpareLists, StageStats};

/// The worker-side router: each stage's handoff-eligible output topic
/// and the plan it resolves to, fixed when the graph is compiled.
/// Shared (via `Arc`) by every worker of a pool.
#[derive(Debug)]
pub struct Handoff {
    /// Per stage, `None` when every output of the stage goes through the
    /// node thread.
    hops: Vec<Option<(Name, RoutePlan)>>,
}

impl Handoff {
    /// Resolves each stage's eligible output topic against `specs`.
    pub(crate) fn new(specs: &[OperatorSpec]) -> Self {
        let hops = specs
            .iter()
            .map(|spec| {
                let topic = spec.output.as_deref()?;
                (!spec.publish_output && plain_flow_topic(topic))
                    .then(|| (topic.into(), RoutePlan::resolve(specs, topic)))
            })
            .collect();
        Handoff { hops }
    }

    /// Routes one step's outputs from stage `src`: eligible flow
    /// emissions are posted to their destination stages' owners and leave
    /// `outputs`; everything else (and every fallback) stays there for
    /// node-thread delivery, in emission order. The hops are counted in
    /// `stats`, the emitting stage's.
    ///
    /// The step's emissions all carry the source stage's one output
    /// topic, so they are routed **as a group** through the intra-node
    /// router ([`router::claimants`], then [`router::materialize`]):
    /// each destination receives a single work item, built in a list
    /// taken from the worker's `lists`. Between the two halves the worker
    /// takes credit at every destination. The group is all-or-nothing —
    /// one blocking destination out of credit leaves `outputs` untouched
    /// for the node thread, so every consumer still sees every emission
    /// exactly once.
    pub(crate) fn apply(
        &self,
        shared: &Shared,
        env: &mut dyn NodeEnv,
        src: usize,
        stats: &mut StageStats,
        outputs: &mut Vec<OpOutput>,
        lists: &mut SpareLists,
    ) {
        let Some(Some((topic, plan))) = self.hops.get(src) else {
            return;
        };
        let seqs = outputs.iter().filter_map(|output| match output {
            OpOutput::Emit(msg) => Some(msg.seq),
            _ => None,
        });
        let group = seqs.clone().count() as u64;
        if group == 0 {
            return;
        }
        // The destinations (the emitter included, if it accepts its own
        // output — exactly what the node thread would deliver). An
        // unpublished output with no consumer besides its emitter is
        // dropped, and so is a group no shard claims.
        let claimed = if plan.stages.iter().any(|r| r.stage != src) {
            router::claimants(plan, seqs)
        } else {
            Cow::default()
        };
        if claimed.is_empty() {
            outputs.retain(|output| !matches!(output, OpOutput::Emit(_)));
            return;
        }
        // A batched group takes one entry of credit per destination, like
        // any node-dispatched frame.
        if !shared.reserve_all(&claimed) {
            stats.handoff_fallback += group;
            env.add("handoff_fallback", group);
            return;
        }
        // Committed: the emissions leave `outputs` as one group, and the
        // rest stays where it was.
        let mut items = lists.take();
        items.reserve(group as usize);
        let emissions = outputs.extract_if(.., |output| matches!(output, OpOutput::Emit(_)));
        items.extend(emissions.map(|output| match output {
            OpOutput::Emit(msg) => FlowItem::from_message(topic.clone(), msg),
            _ => unreachable!("only emissions are extracted"),
        }));
        let now_ns = env.now_ns();
        let mut direct = 0;
        router::materialize(&claimed, DecodedItems::Many(items), lists, |route, work| {
            direct += work.item_count() as u64;
            shared.post(route.stage, work, now_ns);
        });
        stats.handoff_direct += direct;
        env.add("handoff_direct", direct);
    }
}

/// Whether `topic` carries plain flow data, i.e. a local emission on it
/// may travel between co-located stages as [`FlowItem`]s. The discovery
/// (`ifot/announce`), broker sys (`$SYS/`), model (`mix/`) and sensor
/// (`sensor/`, which feeds the node's sequence ledger) planes are
/// node-thread business and go through the codec.
pub(crate) fn plain_flow_topic(topic: &str) -> bool {
    !(topic.starts_with(crate::discovery::ANNOUNCE_PREFIX)
        || topic.starts_with("$SYS/")
        || topic.starts_with("mix/")
        || topic.starts_with("sensor/"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ExecutorConfig, OperatorKind, ShedPolicy};
    use crate::env::MockEnv;
    use crate::executor::pool::Worker;
    use crate::executor::{ExecutorGraph, Stages, WorkItem};
    use ifot_ml::feature::Datum;

    fn kind(op: &str) -> OperatorKind {
        OperatorKind::Custom {
            operator: op.into(),
        }
    }

    fn chain(id: &str, input: &str, output: &str) -> OperatorSpec {
        OperatorSpec::through(id, kind(id), vec![input.into()], output).local_only()
    }

    fn sink(id: &str, input: &str) -> OperatorSpec {
        OperatorSpec::sink(id, kind(id), vec![input.into()])
    }

    fn item(topic: &str, seq: u64) -> FlowItem {
        FlowItem {
            topic: topic.into(),
            origin_ts_ns: seq,
            seq,
            datum: Datum::new().with("x", seq as f64),
            label: None,
            score: None,
        }
    }

    fn config() -> ExecutorConfig {
        ExecutorConfig {
            workers: 1,
            ..ExecutorConfig::default()
        }
    }

    /// One turn of `worker`, returning what it handed to `deliver`.
    fn turn(worker: &mut Worker, env: &mut MockEnv) -> Vec<OpOutput> {
        let mut delivered = Vec::new();
        worker.turn(env, &mut |_, outputs| delivered.extend(outputs));
        delivered
    }

    #[test]
    fn eligible_emit_lands_in_the_owners_inbox() {
        let graph = ExecutorGraph::compile(
            vec![chain("a", "in/#", "flow/a"), sink("b", "flow/a")],
            &config(),
        );
        let mut workers = graph.deal(2);
        let mut env = MockEnv::new();

        graph.enqueue(0, WorkItem::Item(item("in/x", 1)), 0);
        assert!(turn(&mut workers[0], &mut env).is_empty(), "no deliver");
        assert_eq!(env.counter("handoff_direct"), 1);
        assert_eq!(graph.stats(0).handoff_direct, 1);

        // b's owner runs the handed-off item without any node thread
        // involvement.
        assert!(
            turn(&mut workers[1], &mut env).is_empty(),
            "sink emits nothing"
        );
        assert_eq!(env.counter("custom_b"), 1);
        assert_eq!(graph.stats(1).processed, 1);
    }

    #[test]
    fn egress_emissions_pass_through_to_the_deliver_path() {
        // `publish_output` stays on: the node thread must publish, so the
        // worker hands the whole output batch back even though a local
        // consumer exists.
        let specs = vec![
            OperatorSpec::through("a", kind("a"), vec!["in/#".into()], "flow/a"),
            sink("b", "flow/a"),
        ];
        let graph = ExecutorGraph::compile(specs, &config());
        let mut workers = graph.deal(1);
        let mut env = MockEnv::new();

        graph.enqueue(0, WorkItem::Item(item("in/x", 1)), 0);
        let out = turn(&mut workers[0], &mut env);
        assert_eq!(graph.stats(0).handoff_direct, 0);
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0], OpOutput::Emit(_)));
        // Nothing was posted to b.
        assert!(!workers[0].turn(&mut env, &mut |_, _| {}));
    }

    #[test]
    fn unconsumed_local_emission_is_dropped_like_the_node_path() {
        let graph = ExecutorGraph::compile(vec![chain("a", "in/#", "flow/nobody")], &config());
        let mut workers = graph.deal(1);
        let mut env = MockEnv::new();

        graph.enqueue(0, WorkItem::Item(item("in/x", 1)), 0);
        assert!(
            turn(&mut workers[0], &mut env).is_empty(),
            "dropped, exactly as on the node thread"
        );
        let stats = graph.stats(0);
        assert_eq!((stats.handoff_direct, stats.handoff_fallback), (0, 0));
    }

    #[test]
    fn emitter_accepting_its_own_output_is_a_destination_too() {
        // `a` consumes `flow/#`, which covers its own output; `b` makes
        // that output routable. Both get the emission, like on the node
        // thread.
        let graph = ExecutorGraph::compile(
            vec![chain("a", "flow/#", "flow/a"), sink("b", "flow/a")],
            &config(),
        );
        let mut workers = graph.deal(1);
        let mut env = MockEnv::new();

        graph.enqueue(0, WorkItem::Item(item("flow/in", 1)), 0);
        assert!(turn(&mut workers[0], &mut env).is_empty());
        assert_eq!(graph.stats(0).handoff_direct, 2, "one hop to a, one to b");
        // a's inbox share holds the echo: its next step hands off again.
        assert!(turn(&mut workers[0], &mut env).is_empty());
        assert_eq!(graph.stats(0).handoff_direct, 4);
        assert_eq!(graph.stats(1).processed, 1, "b got it");
    }

    #[test]
    fn non_flow_outputs_stay_behind_in_order() {
        use crate::operators::NodeEvent;
        let config = ExecutorConfig {
            workers: 1,
            mailbox_capacity: 1,
            shed_policy: ShedPolicy::Block,
        };
        let graph = ExecutorGraph::compile(
            vec![chain("a", "in/#", "flow/a"), sink("b", "flow/a")],
            &config,
        );
        let _workers = graph.deal(1);
        let Stages::Pooled(shared) = &*graph.stages.borrow() else {
            unreachable!("dealt above")
        };
        let mut env = MockEnv::new();
        let mut stats = StageStats::default();
        let mut lists = SpareLists::default();
        let event = |round| {
            OpOutput::Event(NodeEvent::MixRound {
                task: "t".into(),
                round,
                at_ns: 0,
            })
        };
        let emit = |seq| OpOutput::Emit(item("flow/a", seq).into_message("a"));
        let outputs = vec![event(1), emit(1), event(2), emit(2), event(3)];

        // Delivered: the emissions leave as one batch, the rest stays.
        let mut out = outputs.clone();
        graph
            .handoff
            .apply(shared, &mut env, 0, &mut stats, &mut out, &mut lists);
        assert_eq!(stats.handoff_direct, 2);
        assert_eq!(out, vec![event(1), event(2), event(3)]);

        // That batch took b's only credit (capacity 1): the next group
        // falls back and the outputs stay untouched, emissions in place.
        let mut out = outputs.clone();
        graph
            .handoff
            .apply(shared, &mut env, 0, &mut stats, &mut out, &mut lists);
        assert_eq!((stats.handoff_direct, stats.handoff_fallback), (2, 2));
        assert_eq!(out, outputs);
    }

    #[test]
    fn block_destination_out_of_credit_falls_back_whole() {
        let config = ExecutorConfig {
            workers: 1,
            mailbox_capacity: 1,
            shed_policy: ShedPolicy::Block,
        };
        let graph = ExecutorGraph::compile(
            vec![chain("a", "in/#", "flow/a"), sink("b", "flow/a")],
            &config,
        );
        let mut workers = graph.deal(1);
        let mut env = MockEnv::new();

        // Use up b's credit: capacity 1, one queued item. a steps first.
        graph.enqueue(1, WorkItem::Item(item("flow/a", 9)), 0);
        graph.enqueue(0, WorkItem::Item(item("in/x", 1)), 0);
        let out = turn(&mut workers[0], &mut env);
        assert_eq!(out.len(), 1, "the emission goes via the node thread");
        let stats = graph.stats(0);
        assert_eq!((stats.handoff_direct, stats.handoff_fallback), (0, 1));
        assert_eq!(env.counter("handoff_fallback"), 1);

        // A shedding destination never refuses the handoff: it sheds at
        // the mailbox fold instead.
        let shed_config = ExecutorConfig {
            shed_policy: ShedPolicy::ShedOldest,
            ..config
        };
        let graph = ExecutorGraph::compile(
            vec![chain("a", "in/#", "flow/a"), sink("b", "flow/a")],
            &shed_config,
        );
        let mut workers = graph.deal(1);
        graph.enqueue(1, WorkItem::Item(item("flow/a", 9)), 0);
        graph.enqueue(0, WorkItem::Item(item("in/x", 1)), 0);
        assert!(turn(&mut workers[0], &mut env).is_empty());
        let stats = graph.stats(0);
        assert_eq!((stats.handoff_direct, stats.handoff_fallback), (1, 0));
    }

    #[test]
    fn sharded_fanout_delivers_to_matching_shards_only() {
        let graph = ExecutorGraph::compile(
            vec![
                chain("a", "in/#", "flow/a"),
                sink("b0", "flow/a").sharded(2, 0),
                sink("b1", "flow/a").sharded(2, 1),
                sink("c", "flow/a"),
            ],
            &config(),
        );
        let mut workers = graph.deal(1);
        let mut env = MockEnv::new();

        // CustomOp re-stamps its emission with its own monotone counter:
        // the first emit carries seq 1, which shard (2, 1) claims.
        graph.enqueue(0, WorkItem::Item(item("in/x", 42)), 0);
        turn(&mut workers[0], &mut env);
        assert_eq!(
            graph.stats(0).handoff_direct,
            2,
            "shard b1 plus unsharded c"
        );
        turn(&mut workers[0], &mut env);
        let processed: Vec<u64> = (1..4).map(|i| graph.stats(i).processed).collect();
        assert_eq!(processed, vec![0, 1, 1], "b0: wrong shard; b1 and c run");
    }

    #[test]
    fn burst_lands_as_one_batch_per_destination() {
        // A step that emits a burst (a batched frame refined by a chain
        // stage) hands the whole burst off as ONE WorkItem::Batch per
        // destination: the batch structure — and with it the per-call ML
        // cost amortization — survives the hop.
        let graph = ExecutorGraph::compile(
            vec![chain("a", "in/#", "flow/a"), sink("b", "flow/a")],
            &config(),
        );
        let mut workers = graph.deal(1);
        let mut env = MockEnv::new();

        const BURST: u64 = 8;
        let frame: Vec<FlowItem> = (0..BURST).map(|i| item("in/x", i)).collect();
        graph.enqueue(0, WorkItem::Batch(frame), 0);
        assert!(turn(&mut workers[0], &mut env).is_empty());
        assert_eq!(
            graph.stats(0).handoff_direct,
            BURST,
            "every item is a direct hop"
        );
        assert_eq!(graph.stats(0).handoff_fallback, 0);

        // b received exactly one mailbox entry carrying all eight items,
        // in emission order.
        turn(&mut workers[0], &mut env);
        let stats = graph.stats(1);
        assert_eq!(stats.enqueued, 1, "one batched entry, not eight items");
        assert_eq!((stats.processed, stats.batch_entries), (1, 1));
        assert_eq!(stats.batched_items, BURST);
        // CustomOp touched the items in batch order.
        assert_eq!(env.counter("custom_b"), BURST);
    }

    #[test]
    fn burst_partitions_across_shards_and_fans_out_whole() {
        // A burst splits per shard by sequence, while an unsharded
        // consumer sees the whole burst as one batch.
        let graph = ExecutorGraph::compile(
            vec![
                chain("a", "in/#", "flow/a"),
                sink("b0", "flow/a").sharded(2, 0),
                sink("b1", "flow/a").sharded(2, 1),
                sink("c", "flow/a"),
            ],
            &config(),
        );
        let mut workers = graph.deal(2);
        let mut env = MockEnv::new();

        // CustomOp re-stamps its emissions 1..=4.
        let frame: Vec<FlowItem> = (0..4).map(|i| item("in/x", i)).collect();
        graph.enqueue(0, WorkItem::Batch(frame), 0);
        turn(&mut workers[0], &mut env);
        // b0 takes seqs {2, 4}, b1 takes {1, 3}, c takes all four.
        assert_eq!(graph.stats(0).handoff_direct, 2 + 2 + 4);
        turn(&mut workers[0], &mut env);
        turn(&mut workers[1], &mut env);
        for (dest, want) in [(1usize, 2u64), (2, 2), (3, 4)] {
            let stats = graph.stats(dest);
            assert_eq!(stats.enqueued, 1, "stage {dest}: one batched entry");
            assert_eq!(stats.batched_items, want, "stage {dest} item share");
        }
    }
}
