//! Direct stage-to-stage handoff: the worker-side admission mode of the
//! intra-node router.
//!
//! When a stage's flow emissions are consumed only by other stages on
//! the same node, the executing worker routes them itself — through the
//! same [`router`] function pair the node thread uses, against the
//! graph's [`SharedRouteView`] — and pushes them straight into the
//! destination stages' ingress queues: no channel send to the node
//! thread, no node-thread wakeup, no re-enqueue. The node thread stops
//! being the serialization point that caps worker scaling.
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
//! compiled, so a worker and the node thread resolve a topic to the same
//! plan and a pool sees every stage. What is left to decide per output
//! is about the data: it is handed off directly iff both conditions
//! hold, otherwise it goes to the `deliver` callback and the node thread
//! routes it (blocking enqueue):
//!
//! * it is an emission on an *eligible* output topic — the emitting spec
//!   declares one with `publish_output` off (egress — MQTT publishes, MIX
//!   envelopes, commands, events — always goes through the node thread)
//!   and it carries plain flow data: the discovery (`ifot/announce`),
//!   broker sys (`$SYS/`), model (`mix/`) and sensor (`sensor/`, which
//!   feeds the node's sequence ledger) planes are node-thread business;
//! * no blocking destination is saturated (see below).
//!
//! ## Why try-enqueue keeps `Block` deadlock-free
//!
//! The blocking variant of mailbox backpressure parks the *node thread*
//! in `enqueue_pooled` until a worker pops. That is safe precisely
//! because workers never wait on mailbox space: if a worker could block
//! on a full downstream stage while holding its upstream stage lock,
//! a full cycle of stages (or just one self-loop) would park every
//! worker and nobody would ever pop. Direct handoff therefore only
//! *tries*: the capacity check happens under the destination's ingress
//! lock, and a saturated destination turns the whole emission into a
//! fallback delivered by the node thread — which is allowed to block and
//! is guaranteed to make progress because workers keep draining. Lock
//! order is just as static: a worker holds one *stage* lock (its own)
//! and then destination *ingress* locks in ascending stage order;
//! ingress locks are leaves (nothing is acquired under them), so no
//! cycle exists.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, PoisonError};

use crate::env::NodeEnv;
use crate::flow::{FlowItem, Name};
use crate::operators::OpOutput;
use crate::wire::DecodedItems;

use super::router::{self, RoutePlan, SharedRouteView};
use super::StageCell;

/// What [`DirectHandoff::apply`] did with one step's outputs.
#[derive(Debug, Default)]
pub struct HandoffOutcome {
    /// Outputs the worker could not (or must not) deliver itself, in
    /// emission order — the caller ships them to the node thread.
    pub leftover: Vec<OpOutput>,
    /// Destination hops delivered directly.
    pub direct: u64,
    /// Eligible emissions that fell back because a destination mailbox
    /// was saturated.
    pub fallback: u64,
}

/// A private route-plan memo — one per worker, one for the node thread.
/// A hit takes no lock and allocates nothing; the shared view's mutex is
/// touched only on a topic this thread has not routed before.
#[derive(Debug, Default)]
pub struct PlanCache {
    plans: HashMap<String, Arc<RoutePlan>>,
}

impl PlanCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The plan for `topic`.
    pub(crate) fn plan(&mut self, view: &SharedRouteView, topic: &str) -> Arc<RoutePlan> {
        router::memoized(&mut self.plans, topic, || view.resolve(topic))
    }
}

/// The worker-side router: the graph's stage cells and route view.
/// Shared (via `Arc`) by every worker of a pool.
#[derive(Debug)]
pub struct DirectHandoff {
    view: Arc<SharedRouteView>,
    cells: Vec<Arc<StageCell>>,
    /// Per-source handoff-eligible output topic (`None` = every output
    /// of that stage goes through the node thread).
    eligible: Vec<Option<Name>>,
}

impl DirectHandoff {
    /// Builds the handoff router over the graph's cells and its
    /// per-stage `(output topic, publish flag)` table; stages the table
    /// does not cover hand every output back.
    pub fn new(
        view: Arc<SharedRouteView>,
        cells: Vec<Arc<StageCell>>,
        outputs: Vec<Option<(Name, bool)>>,
    ) -> Self {
        let eligible = outputs
            .into_iter()
            .map(|output| {
                let (topic, publish) = output?;
                (!publish && plain_flow_topic(&topic)).then_some(topic)
            })
            .collect();
        DirectHandoff {
            view,
            cells,
            eligible,
        }
    }

    /// Routes one step's outputs from stage `src`: eligible flow
    /// emissions are pushed straight into their destination stages'
    /// ingress queues; everything else (and every fallback) is returned
    /// in `leftover` for node-thread delivery, in emission order.
    ///
    /// The step's emissions all carry the source stage's one output
    /// topic, so they are routed **as a group** through the intra-node
    /// router ([`router::claimants`], then [`router::materialize`]):
    /// each destination receives a single work item. Between the two
    /// halves sits the step that makes this safe on a worker: lock the
    /// destination ingress queues in ascending stage order and try the
    /// capacity under those locks. The group is all-or-nothing — one
    /// saturated blocking destination leaves `outputs` untouched for the
    /// node thread, so every consumer still sees every emission exactly
    /// once.
    pub fn apply(
        &self,
        env: &mut dyn NodeEnv,
        src: usize,
        mut outputs: Vec<OpOutput>,
        cache: &mut PlanCache,
    ) -> HandoffOutcome {
        let mut outcome = HandoffOutcome::default();
        let seqs = outputs.iter().filter_map(|output| match output {
            OpOutput::Emit(msg) => Some(msg.seq),
            _ => None,
        });
        let group = seqs.clone().count() as u64;
        'route: {
            let Some(Some(topic)) = self.eligible.get(src) else {
                break 'route;
            };
            if group == 0 {
                break 'route;
            }
            let plan = cache.plan(&self.view, topic);
            // The destinations (the emitter included, if it accepts its
            // own output — exactly what the node thread would deliver).
            // An unpublished output with no consumer besides its emitter
            // is dropped, and so is a group no shard claims.
            let claimed = if plan.stages.iter().any(|r| r.stage != src) {
                router::claimants(&plan, seqs)
            } else {
                Cow::default()
            };
            if claimed.is_empty() {
                outputs.retain(|output| !matches!(output, OpOutput::Emit(_)));
                break 'route;
            }
            // Lock every destination ingress in ascending stage order —
            // the plan's order, the static order that keeps
            // multi-destination handoffs cycle-free.
            let mut guards: Vec<_> = claimed
                .iter()
                .map(|r| {
                    self.cells[r.stage]
                        .ingress
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                })
                .collect();
            // Non-blocking capacity check (a batched group occupies one
            // mailbox entry, like any node-dispatched frame): a saturated
            // `Block` destination turns the whole group into a
            // node-thread fallback — workers never wait on mailbox space
            // (see module docs).
            for (route, guard) in claimed.iter().zip(&guards) {
                let cell = &self.cells[route.stage];
                if cell.blocking.load(Ordering::Acquire)
                    && guard.len() + cell.depth.load(Ordering::Acquire) >= cell.capacity
                {
                    outcome.fallback = group;
                    break 'route;
                }
            }
            // Committed: the emissions leave `outputs` as one group.
            let mut items = Vec::with_capacity(group as usize);
            let mut rest = Vec::new();
            for output in outputs {
                match output {
                    OpOutput::Emit(msg) => items.push(FlowItem::from_message(topic.clone(), msg)),
                    other => rest.push(other),
                }
            }
            outputs = rest;
            let now_ns = env.now_ns();
            router::materialize(&claimed, DecodedItems::Many(items), |route, work| {
                let k = claimed
                    .iter()
                    .position(|r| r.stage == route.stage)
                    .expect("materialize admits only to the routes it was given");
                outcome.direct += work.item_count() as u64;
                guards[k].push_back((work, now_ns));
            });
        }
        outcome.leftover = outputs;
        if outcome.direct > 0 {
            env.add("handoff_direct", outcome.direct);
        }
        if outcome.fallback > 0 {
            env.add("handoff_fallback", outcome.fallback);
        }
        outcome
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
    use crate::config::{ExecutorConfig, OperatorKind, OperatorSpec, ShedPolicy};
    use crate::env::MockEnv;
    use crate::executor::{ExecutorGraph, WorkItem};
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

    #[test]
    fn eligible_emit_lands_in_destination_ingress() {
        let graph = ExecutorGraph::compile(
            vec![chain("a", "in/#", "flow/a"), sink("b", "flow/a")],
            &config(),
        );
        let handoff = graph.direct_handoff();
        let cells = graph.cells();
        let mut env = MockEnv::new();
        let mut cache = PlanCache::new();

        cells[0].enqueue_pooled(WorkItem::Item(item("in/x", 1)), 0);
        let outcome = cells[0]
            .step_pooled_handoff(&mut env, 0, &handoff, &mut cache)
            .expect("stage a has work");
        assert_eq!(outcome.direct, 1);
        assert_eq!(outcome.fallback, 0);
        assert!(
            outcome.leftover.is_empty(),
            "intra-node hop needs no deliver"
        );
        assert_eq!(env.counter("handoff_direct"), 1);
        assert_eq!(graph.stats(0).handoff_direct, 1);

        // The destination drains the handed-off item without any node
        // thread involvement.
        let outputs = cells[1]
            .step_pooled(&mut env)
            .expect("stage b received the item");
        assert!(outputs.is_empty(), "sink emits nothing");
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
        let handoff = graph.direct_handoff();
        let cells = graph.cells();
        let mut env = MockEnv::new();
        let mut cache = PlanCache::new();

        cells[0].enqueue_pooled(WorkItem::Item(item("in/x", 1)), 0);
        let outcome = cells[0]
            .step_pooled_handoff(&mut env, 0, &handoff, &mut cache)
            .expect("stage a has work");
        assert_eq!(outcome.direct, 0);
        assert_eq!(outcome.leftover.len(), 1);
        assert!(matches!(outcome.leftover[0], OpOutput::Emit(_)));
        // Nothing landed in b's ingress.
        assert!(cells[1].step_pooled(&mut env).is_none());
    }

    #[test]
    fn unconsumed_local_emission_is_dropped_like_the_node_path() {
        let graph = ExecutorGraph::compile(vec![chain("a", "in/#", "flow/nobody")], &config());
        let handoff = graph.direct_handoff();
        let cells = graph.cells();
        let mut env = MockEnv::new();
        let mut cache = PlanCache::new();

        cells[0].enqueue_pooled(WorkItem::Item(item("in/x", 1)), 0);
        let outcome = cells[0]
            .step_pooled_handoff(&mut env, 0, &handoff, &mut cache)
            .expect("stage a has work");
        assert_eq!(outcome.direct, 0);
        assert_eq!(outcome.fallback, 0);
        assert!(
            outcome.leftover.is_empty(),
            "dropped, exactly as on the node thread"
        );
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
        let handoff = graph.direct_handoff();
        let cells = graph.cells();
        let mut env = MockEnv::new();
        let mut cache = PlanCache::new();

        cells[0].enqueue_pooled(WorkItem::Item(item("flow/in", 1)), 0);
        let outcome = cells[0]
            .step_pooled_handoff(&mut env, 0, &handoff, &mut cache)
            .expect("stage a has work");
        assert_eq!(outcome.direct, 2, "one hop to a itself, one to b");
        assert!(outcome.leftover.is_empty());
        assert!(cells[1].step_pooled(&mut env).is_some(), "b got it");
        // a's own ingress holds the echo: stepping a again hands off again.
        let again = cells[0]
            .step_pooled_handoff(&mut env, 0, &handoff, &mut cache)
            .expect("a received its own emission");
        assert_eq!(again.direct, 2);
    }

    #[test]
    fn non_flow_outputs_stay_behind_in_order() {
        use crate::operators::NodeEvent;
        let config = ExecutorConfig {
            workers: 1,
            mailbox_capacity: 1,
            shed_policy: ShedPolicy::Block,
            ..ExecutorConfig::default()
        };
        let graph = ExecutorGraph::compile(
            vec![chain("a", "in/#", "flow/a"), sink("b", "flow/a")],
            &config,
        );
        let handoff = graph.direct_handoff();
        let mut env = MockEnv::new();
        let mut cache = PlanCache::new();
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
        let outcome = handoff.apply(&mut env, 0, outputs.clone(), &mut cache);
        assert_eq!(outcome.direct, 2);
        assert_eq!(outcome.leftover, vec![event(1), event(2), event(3)]);
        graph.cells()[1].with_stage(|stage| assert_eq!(stage.depth(), 1));

        // That batch saturates b (capacity 1): the next group falls back
        // and the outputs come back untouched, emissions in place.
        let outcome = handoff.apply(&mut env, 0, outputs.clone(), &mut cache);
        assert_eq!((outcome.direct, outcome.fallback), (0, 2));
        assert_eq!(outcome.leftover, outputs);
    }

    #[test]
    fn saturated_block_destination_falls_back_whole() {
        let config = ExecutorConfig {
            workers: 1,
            mailbox_capacity: 1,
            shed_policy: ShedPolicy::Block,
            ..ExecutorConfig::default()
        };
        let graph = ExecutorGraph::compile(
            vec![chain("a", "in/#", "flow/a"), sink("b", "flow/a")],
            &config,
        );
        let handoff = graph.direct_handoff();
        let cells = graph.cells();
        let mut env = MockEnv::new();
        let mut cache = PlanCache::new();

        // Saturate b: capacity 1, one queued item.
        cells[1].enqueue_pooled(WorkItem::Item(item("flow/a", 9)), 0);
        cells[0].enqueue_pooled(WorkItem::Item(item("in/x", 1)), 0);
        let outcome = cells[0]
            .step_pooled_handoff(&mut env, 0, &handoff, &mut cache)
            .expect("stage a has work");
        assert_eq!(outcome.direct, 0);
        assert_eq!(outcome.fallback, 1);
        assert_eq!(
            outcome.leftover.len(),
            1,
            "the emission goes via the node thread"
        );
        assert_eq!(graph.stats(0).handoff_fallback, 1);
        assert_eq!(env.counter("handoff_fallback"), 1);

        // A shedding destination never blocks the handoff: drain b, flip
        // nothing — ShedOldest admission happens at the mailbox fold.
        let shed_config = ExecutorConfig {
            shed_policy: ShedPolicy::ShedOldest,
            ..config
        };
        let graph = ExecutorGraph::compile(
            vec![chain("a", "in/#", "flow/a"), sink("b", "flow/a")],
            &shed_config,
        );
        let handoff = graph.direct_handoff();
        let cells = graph.cells();
        let mut cache = PlanCache::new();
        cells[1].enqueue_pooled(WorkItem::Item(item("flow/a", 9)), 0);
        cells[0].enqueue_pooled(WorkItem::Item(item("in/x", 1)), 0);
        let outcome = cells[0]
            .step_pooled_handoff(&mut env, 0, &handoff, &mut cache)
            .expect("stage a has work");
        assert_eq!(outcome.direct, 1, "shed policies accept the push");
        assert_eq!(outcome.fallback, 0);
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
        let handoff = graph.direct_handoff();
        let cells = graph.cells();
        let mut env = MockEnv::new();
        let mut cache = PlanCache::new();

        // CustomOp re-stamps its emission with its own monotone counter:
        // the first emit carries seq 1, which shard (2, 1) claims.
        cells[0].enqueue_pooled(WorkItem::Item(item("in/x", 42)), 0);
        let outcome = cells[0]
            .step_pooled_handoff(&mut env, 0, &handoff, &mut cache)
            .expect("stage a has work");
        assert_eq!(outcome.direct, 2, "shard b1 plus unsharded c");
        assert!(cells[1].step_pooled(&mut env).is_none(), "b0: wrong shard");
        assert!(cells[2].step_pooled(&mut env).is_some(), "b1 claims seq 1");
        assert!(cells[3].step_pooled(&mut env).is_some(), "c sees the frame");
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
        let handoff = graph.direct_handoff();
        let cells = graph.cells();
        let mut env = MockEnv::new();
        let mut cache = PlanCache::new();

        const BURST: u64 = 8;
        let frame: Vec<FlowItem> = (0..BURST).map(|i| item("in/x", i)).collect();
        cells[0].enqueue_pooled(WorkItem::Batch(frame), 0);
        let outcome = cells[0]
            .step_pooled_handoff(&mut env, 0, &handoff, &mut cache)
            .expect("stage a has work");
        assert_eq!(outcome.direct, BURST, "every item counts as a direct hop");
        assert_eq!(outcome.fallback, 0);
        assert!(outcome.leftover.is_empty());

        // b received exactly one mailbox entry carrying all eight items,
        // in emission order.
        cells[1].with_stage(|stage| {
            assert_eq!(stage.depth(), 1, "one batched entry, not eight items");
        });
        assert!(cells[1].step_pooled(&mut env).is_some());
        let stats = graph.stats(1);
        assert_eq!(stats.batch_entries, 1);
        assert_eq!(stats.batched_items, BURST);
        assert_eq!(stats.processed, 1);
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
        let handoff = graph.direct_handoff();
        let cells = graph.cells();
        let mut env = MockEnv::new();
        let mut cache = PlanCache::new();

        // CustomOp re-stamps its emissions 1..=4.
        let frame: Vec<FlowItem> = (0..4).map(|i| item("in/x", i)).collect();
        cells[0].enqueue_pooled(WorkItem::Batch(frame), 0);
        let outcome = cells[0]
            .step_pooled_handoff(&mut env, 0, &handoff, &mut cache)
            .expect("stage a has work");
        // b0 takes seqs {2, 4}, b1 takes {1, 3}, c takes all four.
        assert_eq!(outcome.direct, 2 + 2 + 4);
        for (dest, want) in [(1usize, 2u64), (2, 2), (3, 4)] {
            cells[dest].with_stage(|stage| {
                assert_eq!(stage.depth(), 1, "stage {dest}: one batched entry");
            });
            assert!(cells[dest].step_pooled(&mut env).is_some());
            let stats = graph.stats(dest);
            assert_eq!(stats.batched_items, want, "stage {dest} item share");
        }
    }
}
