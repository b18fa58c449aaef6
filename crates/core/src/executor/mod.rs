//! Staged dataflow executor — the node-side compute path.
//!
//! Every analysis operator of a node becomes one **stage**: a
//! [`StreamOperator`] state machine behind a bounded mailbox. The node
//! runtime feeds stages through [`ExecutorGraph`] and routes the typed
//! [`OpOutput`]s they append to its list; how the stages are *driven*
//! depends on the runtime:
//!
//! * **Inline** (`workers = 0`, the only mode on the deterministic
//!   simulator): [`ExecutorGraph::offer`] enqueues and immediately
//!   drains the stage on the caller's thread, so the sequence of
//!   environment calls (CPU charges, RNG draws, metric updates) is a
//!   pure function of the input and seeded trace digests stay
//!   bit-identical.
//! * **Pooled** (`workers > 0` on the thread runtime): the stages are
//!   dealt to a worker pool ([`pool::WorkerPool`]), stage *i* to worker
//!   *i* mod `workers`, and each worker owns its stages outright. The
//!   node thread only posts to the owners' inboxes; the workers execute
//!   their stages, hand intra-node flow hops to the next stage's owner
//!   themselves ([`handoff`]) and ship everything else back to the node
//!   thread, which remains the sole publisher.
//!
//! Either way the fan-out of a group of items over the accepting stages
//! is decided in one place, [`router`], against a set of stages that is
//! fixed once the graph is compiled: placement is static, as in the
//! paper, and nothing installs or retires a stage under a running node.
//!
//! Mailboxes are bounded with an explicit overflow policy
//! ([`ShedPolicy`]): block the producer, shed the oldest queued item, or
//! shed the newcomer — each counted in per-stage [`StageStats`] that the
//! management monitor surfaces.

pub mod handoff;
pub mod ops;
pub mod pool;
pub mod router;

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use crate::config::{ExecutorConfig, OperatorSpec, ShedPolicy};
use crate::env::NodeEnv;
use crate::flow::{FlowItem, Name};
use crate::operators::{MixEnvelope, OpOutput};
use ifot_ml::runtime::AnyClassifier;

/// Queue wait past which a [`ShedPolicy::Block`] stage escalates to
/// shed-oldest: the paper's 1.6 s real-time bound.
const ESCALATE_AFTER_NS: u64 = crate::costs::REALTIME_BOUND_MS * 1_000_000;

/// Route plans the node thread memoizes, cleared when full.
const ROUTE_CACHE_CAP: usize = 1024;

/// Emptied lists a runner keeps at most.
pub(crate) const SPARE_LISTS: usize = 8;

/// Room, in entries, past which an emptied list is dropped instead of
/// kept: two of the default `batch_max` batches.
pub(crate) const SPARE_ROOM: usize = 64;

/// Whether an emptied list is worth keeping for a later batch: it has
/// room, and no more than [`SPARE_ROOM`] entries' worth.
pub(crate) fn worth_keeping<T>(list: &Vec<T>) -> bool {
    (1..=SPARE_ROOM).contains(&list.capacity())
}

/// A periodic tick delivered to a stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpTimer {
    /// Window flush tick.
    Flush,
    /// Periodic MIX snapshot offer tick.
    Mix,
}

/// A control-plane message delivered to a stage.
#[derive(Debug, Clone, PartialEq)]
pub enum ControlMsg {
    /// A model-plane envelope from the `mix/...` topics.
    Mix(MixEnvelope),
}

/// A sans-I/O stream operator: consumes items, timers and control
/// messages, appends typed outputs, performs no I/O of its own. All
/// side effects (CPU cost, RNG, metrics) go through the [`NodeEnv`].
///
/// Every entry point is handed the caller's output list `out` and may
/// only **append** to it: an operator never clears, reorders or reads
/// what the list already holds. The caller keeps one list for all its
/// steps, so a step allocates only what it emits.
pub trait StreamOperator: std::fmt::Debug + Send {
    /// The operator's configuration.
    fn spec(&self) -> &OperatorSpec;

    /// Consumes one flow item.
    fn on_item(&mut self, env: &mut dyn NodeEnv, item: FlowItem, out: &mut Vec<OpOutput>);

    /// Consumes a coalesced batch of flow items (one mailbox slot, one
    /// dispatch). The default is the per-item loop — semantically the
    /// batch path is *always* equivalent to N separate deliveries. ML
    /// operators override this to pay their per-call model cost once
    /// per batch instead of once per item, matching the
    /// [`crate::costs`] batch cost model.
    ///
    /// The operator **drains** `items` and leaves the list empty: its
    /// buffer stays with the caller, which hands it to the next batch.
    fn on_batch(
        &mut self,
        env: &mut dyn NodeEnv,
        items: &mut Vec<FlowItem>,
        out: &mut Vec<OpOutput>,
    ) {
        for item in items.drain(..) {
            self.on_item(env, item, out);
        }
    }

    /// Handles a periodic tick (window flush, MIX offer).
    fn on_timer(&mut self, _env: &mut dyn NodeEnv, _timer: OpTimer, _out: &mut Vec<OpOutput>) {}

    /// Handles a control-plane message.
    fn on_control(&mut self, _env: &mut dyn NodeEnv, _msg: &ControlMsg, _out: &mut Vec<OpOutput>) {}

    /// A one-line statistics summary for monitoring screens.
    fn describe(&self) -> String;

    /// The trained/serving classifier, for harness inspection.
    fn model(&self) -> Option<&AnyClassifier> {
        None
    }
}

/// One unit of work queued into a stage mailbox.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkItem {
    /// A flow item to process.
    Item(FlowItem),
    /// A coalesced batch of flow items: occupies one mailbox slot and
    /// is dispatched as one [`StreamOperator::on_batch`] call.
    Batch(Vec<FlowItem>),
    /// A batch fanned out to several stages without copying: every
    /// consumer holds one reference; at execution the last holder
    /// unwraps the allocation for free and earlier holders clone
    /// lazily. Semantically identical to [`WorkItem::Batch`].
    SharedBatch(Arc<Vec<FlowItem>>),
    /// A control-plane message.
    Control(ControlMsg),
    /// A periodic tick.
    Timer(OpTimer),
}

impl WorkItem {
    /// Number of flow items this work entry carries (0 for timers and
    /// control messages).
    pub fn item_count(&self) -> usize {
        match self {
            WorkItem::Item(_) => 1,
            WorkItem::Batch(items) => items.len(),
            WorkItem::SharedBatch(items) => items.len(),
            WorkItem::Control(_) | WorkItem::Timer(_) => 0,
        }
    }

    pub(crate) fn sheddable(&self) -> bool {
        matches!(
            self,
            WorkItem::Item(_) | WorkItem::Batch(_) | WorkItem::SharedBatch(_)
        )
    }
}

/// The emptied flow-item lists one runner keeps for its next batches: a
/// pool worker, or the node thread for what it decodes and runs inline.
///
/// A batch is built into one list where it enters the node (the frame it
/// was decoded from) and that list travels with it: a stage drains it
/// ([`StreamOperator::on_batch`]), the stage's runner keeps it here, and
/// the runner's next decode, hand-off or shard split takes it back. At
/// most [`SPARE_LISTS`] lists are kept, none with room for more than
/// [`SPARE_ROOM`] items (a larger one is dropped). While the graph is
/// dealt, a runner passes a list it has no place for to the pool's
/// return stack and takes from there when it has none left.
#[derive(Debug, Default)]
pub struct SpareLists {
    spare: Vec<Vec<FlowItem>>,
    /// The router's table of sub-batches, one slot per route of a split;
    /// empty between splits, and kept for its room.
    pub(crate) subs: Vec<Vec<FlowItem>>,
    /// The pool's return stack, while the stages are dealt.
    back: Option<Arc<pool::ReturnStack<FlowItem>>>,
}

impl SpareLists {
    /// An empty list: a kept one if there is one, else a new one.
    pub fn take(&mut self) -> Vec<FlowItem> {
        self.spare
            .pop()
            .or_else(|| self.back.as_ref()?.pop())
            .unwrap_or_default()
    }

    /// Empties `list` and keeps it for a later [`Self::take`], if it is
    /// worth keeping and there is a place for it.
    pub fn give(&mut self, mut list: Vec<FlowItem>) {
        if !worth_keeping(&list) {
            return;
        }
        if self.spare.len() < SPARE_LISTS {
            list.clear();
            self.spare.push(list);
        } else if let Some(back) = &self.back {
            back.push(list);
        }
    }
}

/// Per-stage mailbox and throughput counters, surfaced by the monitor.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct StageStats {
    /// Work items admitted into the mailbox.
    pub enqueued: u64,
    /// Work items executed.
    pub processed: u64,
    /// Queued items dropped to admit newer ones (shed-oldest).
    pub shed_oldest: u64,
    /// Incoming items dropped at a full mailbox (shed-newest).
    pub shed_newest: u64,
    /// Current mailbox depth.
    pub depth: usize,
    /// High-water mailbox depth.
    pub max_depth: usize,
    /// Total nanoseconds items spent queued before execution.
    pub wait_ns_total: u64,
    /// Flow items delivered inside [`WorkItem::Batch`] /
    /// [`WorkItem::SharedBatch`] entries.
    pub batched_items: u64,
    /// Batch entries executed (the divisor of the mean batch size —
    /// single-item and control/timer deliveries are not counted).
    pub batch_entries: u64,
    /// High-water queue wait (nanoseconds) of any executed entry.
    pub max_wait_ns: u64,
    /// Shed-policy escalations (`Block` → `ShedOldest`) this stage
    /// performed after its queue wait crossed the real-time bound.
    pub escalations: u64,
    /// Outputs of this stage posted straight to another stage's owner by
    /// the worker that ran it (per destination hop), bypassing the
    /// node-thread router.
    pub handoff_direct: u64,
    /// Handoff-eligible outputs routed through the node thread anyway
    /// because a blocking destination was out of credit (workers never
    /// wait).
    pub handoff_fallback: u64,
    /// Always 0; kept for the judge — ROADMAP 2(a).
    pub handoff_stale_route: u64,
}

impl StageStats {
    /// Total items dropped by either shedding policy.
    pub fn shed(&self) -> u64 {
        self.shed_oldest + self.shed_newest
    }

    /// Mean queue wait in milliseconds over processed items.
    pub fn mean_wait_ms(&self) -> f64 {
        if self.processed == 0 {
            0.0
        } else {
            self.wait_ns_total as f64 / self.processed as f64 / 1e6
        }
    }

    /// Mean items per executed batch entry — the sub-batch size a stage
    /// actually sees, which shard routing would otherwise collapse.
    pub fn mean_batch_items(&self) -> f64 {
        if self.batch_entries == 0 {
            0.0
        } else {
            self.batched_items as f64 / self.batch_entries as f64
        }
    }
}

/// One executor stage: an operator behind its bounded mailbox.
///
/// The mailbox policy only governs flow entries (items and batches) — timers
/// and control messages are always admitted (shedding a MIX round or a
/// flush tick would silently wedge the protocol, and both are rare and
/// cheap relative to the data plane).
#[derive(Debug)]
pub struct ExecutorStage {
    op: Box<dyn StreamOperator>,
    mailbox: VecDeque<(WorkItem, u64)>,
    capacity: usize,
    policy: ShedPolicy,
    /// Mailbox and throughput counters.
    pub stats: StageStats,
}

impl ExecutorStage {
    /// Wraps an operator with a bounded mailbox. A `Block` stage
    /// escalates to shed-oldest once a queue wait crosses the paper's
    /// real-time bound ([`crate::costs::REALTIME_BOUND_MS`]).
    pub fn new(op: Box<dyn StreamOperator>, capacity: usize, policy: ShedPolicy) -> Self {
        ExecutorStage {
            op,
            mailbox: VecDeque::new(),
            capacity: capacity.max(1),
            policy,
            stats: StageStats::default(),
        }
    }

    /// The stage's current overflow policy (it may differ from the
    /// configured one after an escalation).
    pub fn policy(&self) -> ShedPolicy {
        self.policy
    }

    /// The wrapped operator's monitor line.
    pub fn describe(&self) -> String {
        self.op.describe()
    }

    /// The wrapped operator's classifier, if it serves one.
    pub fn model(&self) -> Option<&AnyClassifier> {
        self.op.model()
    }

    /// Admits one work item, applying the shed policy to a full mailbox.
    ///
    /// Under [`ShedPolicy::Block`] the item is admitted even when full —
    /// blocking producers are expected to wait for the stage's credit
    /// *before* posting (inline execution drains immediately, so its
    /// mailbox never fills).
    pub fn enqueue(&mut self, work: WorkItem, now_ns: u64) {
        if work.sheddable() && self.mailbox.len() >= self.capacity {
            match self.policy {
                ShedPolicy::Block => {}
                ShedPolicy::ShedOldest => {
                    // Evict the oldest queued *item or batch*; timers and
                    // control messages are never shed. A batch counts as
                    // one shed entry (stats track entries, not items).
                    if let Some(pos) = self.mailbox.iter().position(|(w, _)| w.sheddable()) {
                        self.mailbox.remove(pos);
                        self.stats.shed_oldest += 1;
                    }
                }
                ShedPolicy::ShedNewest => {
                    self.stats.shed_newest += 1;
                    return;
                }
            }
        }
        self.stats.enqueued += 1;
        self.mailbox.push_back((work, now_ns));
        self.stats.depth = self.mailbox.len();
        self.stats.max_depth = self.stats.max_depth.max(self.mailbox.len());
    }

    /// Pops and executes one queued work item, appending its outputs to
    /// `out` and handing the list a batch came in to `lists`; `false`
    /// when the mailbox was empty.
    pub fn step(
        &mut self,
        env: &mut dyn NodeEnv,
        out: &mut Vec<OpOutput>,
        lists: &mut SpareLists,
    ) -> bool {
        let Some((work, enqueued_ns)) = self.mailbox.pop_front() else {
            return false;
        };
        self.stats.depth = self.mailbox.len();
        self.stats.processed += 1;
        let wait_ns = env.now_ns().saturating_sub(enqueued_ns);
        self.stats.wait_ns_total += wait_ns;
        self.stats.max_wait_ns = self.stats.max_wait_ns.max(wait_ns);
        // Adaptive shed escalation: a Block stage whose queue wait has
        // crossed the real-time bound is already failing its deadline —
        // flip to bounded staleness so it can catch up.
        if self.policy == ShedPolicy::Block && wait_ns > ESCALATE_AFTER_NS {
            self.policy = ShedPolicy::ShedOldest;
            self.stats.escalations += 1;
        }
        if env.trace_enabled() {
            env.trace_event(&format!(
                "stage_deq({}, depth={}, batch={})",
                self.op.spec().id,
                self.stats.depth,
                work.item_count(),
            ));
        }
        match work {
            WorkItem::Item(item) => self.op.on_item(env, item, out),
            WorkItem::Batch(mut items) => {
                self.stats.batched_items += items.len() as u64;
                self.stats.batch_entries += 1;
                self.op.on_batch(env, &mut items, out);
                lists.give(items);
            }
            WorkItem::SharedBatch(shared) => {
                self.stats.batched_items += shared.len() as u64;
                self.stats.batch_entries += 1;
                // Last holder takes the allocation, earlier fan-out
                // consumers copy into a spare list (lazily, at execution
                // time).
                let mut items = Arc::try_unwrap(shared).unwrap_or_else(|arc| {
                    let mut items = lists.take();
                    items.extend_from_slice(&arc);
                    items
                });
                self.op.on_batch(env, &mut items, out);
                lists.give(items);
            }
            WorkItem::Control(msg) => self.op.on_control(env, &msg, out),
            WorkItem::Timer(timer) => self.op.on_timer(env, timer, out),
        }
        true
    }

    /// Queued work items.
    pub fn depth(&self) -> usize {
        self.mailbox.len()
    }

    /// The monitor line for this stage's mailbox.
    pub fn describe_stats(&self) -> String {
        stats_line(&self.op.spec().id, &self.stats)
    }
}

fn stats_line(id: &str, stats: &StageStats) -> String {
    format!(
        "stage[{id}] depth={} max={} in={} out={} shed={} wait_ms={:.2}",
        stats.depth,
        stats.max_depth,
        stats.enqueued,
        stats.processed,
        stats.shed(),
        stats.mean_wait_ms(),
    )
}

/// Where a graph's stages are: on the caller's thread, or dealt to a
/// pool's workers.
#[derive(Debug)]
enum Stages {
    Inline(Vec<ExecutorStage>),
    /// Reached through the owners' inboxes and published figures.
    Pooled(Arc<pool::Shared>),
}

/// The compiled executor graph of a node: one stage per configured
/// operator, fixed for the node's lifetime — which stages a node runs is
/// decided once, in [`ExecutorGraph::compile`], as the paper's task
/// assignment decides it at deploy time. The specs sit beside the
/// stages, so admission checks (topic filters, shards) never wait behind
/// an executing operator.
#[derive(Debug)]
pub struct ExecutorGraph {
    specs: Vec<OperatorSpec>,
    /// Per-stage `(output topic, publish flag)`, so routing a step's
    /// emissions never clones a spec.
    outputs: Vec<Option<(Name, bool)>>,
    /// Each stage's handoff plan, for the workers.
    handoff: Arc<handoff::Handoff>,
    /// The node thread's topic→plan memo.
    routes: RefCell<HashMap<String, Arc<router::RoutePlan>>>,
    stages: RefCell<Stages>,
    /// The node thread's spare lists: the runner of the inline stages,
    /// and the decoder of every frame.
    lists: RefCell<SpareLists>,
}

fn stage_output(spec: &OperatorSpec) -> Option<(Name, bool)> {
    let topic = spec.output.as_deref()?;
    Some((topic.into(), spec.publish_output))
}

impl ExecutorGraph {
    /// Compiles the node's assigned operator specs into stages.
    pub fn compile(specs: Vec<OperatorSpec>, config: &ExecutorConfig) -> Self {
        let stages = specs
            .iter()
            .map(|spec| {
                ExecutorStage::new(
                    ops::build_operator(spec.clone()),
                    config.mailbox_capacity,
                    config.shed_policy,
                )
            })
            .collect();
        ExecutorGraph {
            outputs: specs.iter().map(stage_output).collect(),
            handoff: Arc::new(handoff::Handoff::new(&specs)),
            specs,
            routes: RefCell::default(),
            stages: RefCell::new(Stages::Inline(stages)),
            lists: RefCell::default(),
        }
    }

    /// The memoized route plan for `topic` (resolved on first use; hits
    /// are allocation-free and never re-parse a topic filter).
    pub fn route(&self, topic: &str) -> Arc<router::RoutePlan> {
        let mut routes = self.routes.borrow_mut();
        if let Some(plan) = routes.get(topic) {
            return Arc::clone(plan);
        }
        let plan = Arc::new(router::RoutePlan::resolve(&self.specs, topic));
        if routes.len() >= ROUTE_CACHE_CAP {
            routes.clear();
        }
        routes.insert(topic.to_owned(), Arc::clone(&plan));
        plan
    }

    /// The node thread's spare lists, for the frames it decodes and the
    /// groups it routes.
    pub(crate) fn lists(&self) -> std::cell::RefMut<'_, SpareLists> {
        self.lists.borrow_mut()
    }

    /// An empty list for a batch the node thread builds (a frame it
    /// decodes, a group it routes): one of its spare lists, while the
    /// stages are dealt one a worker returned, else a new one.
    pub fn take_list(&self) -> Vec<FlowItem> {
        self.lists.borrow_mut().take()
    }

    /// Takes back an output list a worker delivered, once the node thread
    /// has performed it, for a worker's next delivery (inline, it is
    /// dropped).
    pub fn give_back(&self, outputs: Vec<OpOutput>) {
        if let Stages::Pooled(shared) = &*self.stages.borrow() {
            shared.outputs_back.push(outputs);
        }
    }

    /// Stage `index`'s output topic and whether its emissions are also
    /// published to the broker (`None` for a stage that emits nothing).
    pub fn output(&self, index: usize) -> Option<(Name, bool)> {
        self.outputs.get(index)?.clone()
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Whether the graph has no stages.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// The operator specs, indexed like the stages.
    pub fn specs(&self) -> &[OperatorSpec] {
        &self.specs
    }

    /// Runs any work item through stage `index`, appending its outputs to
    /// `out`: inline, to completion; dealt, posted to the stage's owner,
    /// waiting for credit if the stage blocks and has none.
    pub fn offer(
        &self,
        env: &mut dyn NodeEnv,
        index: usize,
        work: WorkItem,
        out: &mut Vec<OpOutput>,
    ) {
        match &mut *self.stages.borrow_mut() {
            Stages::Inline(stages) => {
                let stage = &mut stages[index];
                if env.trace_enabled() {
                    env.trace_event(&format!(
                        "stage_enq({}, depth={}, batch={})",
                        stage.op.spec().id,
                        stage.depth() + 1,
                        work.item_count(),
                    ));
                }
                stage.enqueue(work, env.now_ns());
                let lists = &mut *self.lists.borrow_mut();
                while stage.step(env, out, lists) {}
            }
            Stages::Pooled(shared) => shared.admit(index, work, env.now_ns()),
        }
    }

    /// Inline: runs one item through stage `index` to completion, into a
    /// list of its own ([`ExecutorGraph::offer`] appends to the caller's).
    pub fn offer_item(&self, env: &mut dyn NodeEnv, index: usize, item: FlowItem) -> Vec<OpOutput> {
        let mut out = Vec::new();
        self.offer(env, index, WorkItem::Item(item), &mut out);
        out
    }

    /// Inline: runs a coalesced batch through stage `index` (one
    /// dispatch, one batched model call for ML stages), into a list of
    /// its own.
    pub fn offer_batch(
        &self,
        env: &mut dyn NodeEnv,
        index: usize,
        items: Vec<FlowItem>,
    ) -> Vec<OpOutput> {
        let mut out = Vec::new();
        self.offer(env, index, WorkItem::Batch(items), &mut out);
        out
    }

    /// Admits work into stage `index` without running it: inline, into
    /// its mailbox; dealt, as [`Self::offer`] does.
    pub fn enqueue(&self, index: usize, work: WorkItem, now_ns: u64) {
        match &mut *self.stages.borrow_mut() {
            Stages::Inline(stages) => stages[index].enqueue(work, now_ns),
            Stages::Pooled(shared) => shared.admit(index, work, now_ns),
        }
    }

    /// Inline: runs one queued work item of stage `index`, appending its
    /// outputs to `out`; `false` when there was none (or the stages are
    /// dealt).
    pub fn step(&self, env: &mut dyn NodeEnv, index: usize, out: &mut Vec<OpOutput>) -> bool {
        match &mut *self.stages.borrow_mut() {
            Stages::Inline(stages) => stages[index].step(env, out, &mut self.lists.borrow_mut()),
            Stages::Pooled(_) => false,
        }
    }

    /// A stage's current shed policy (post-escalation).
    pub fn policy(&self, index: usize) -> ShedPolicy {
        match &*self.stages.borrow() {
            Stages::Inline(stages) => stages[index].policy(),
            Stages::Pooled(shared) => shared.published(index).1,
        }
    }

    /// The classifier served by the operator with the given id, cloned
    /// out of its stage (train/predict operators only; `None` while the
    /// stages are dealt).
    pub fn classifier(&self, id: &str) -> Option<AnyClassifier> {
        let index = self.specs.iter().position(|spec| spec.id == id)?;
        match &*self.stages.borrow() {
            Stages::Inline(stages) => stages[index].model().cloned(),
            Stages::Pooled(_) => None,
        }
    }

    /// A stage's mailbox counters (dealt: as its owner last published
    /// them, at the end of a turn).
    pub fn stats(&self, index: usize) -> StageStats {
        match &*self.stages.borrow() {
            Stages::Inline(stages) => stages[index].stats.clone(),
            Stages::Pooled(shared) => shared.published(index).0,
        }
    }

    /// Monitor lines: each operator's summary followed by its stage
    /// mailbox counters (the latter only once traffic has flowed, to
    /// keep idle screens compact). While the stages are dealt, only the
    /// counters.
    pub fn describe(&self) -> Vec<String> {
        let mut out = Vec::new();
        match &*self.stages.borrow() {
            Stages::Inline(stages) => {
                for stage in stages {
                    out.push(stage.describe());
                    if stage.stats.enqueued > 0 {
                        out.push(stage.describe_stats());
                    }
                }
            }
            Stages::Pooled(shared) => {
                for (index, spec) in self.specs.iter().enumerate() {
                    let (stats, _) = shared.published(index);
                    if stats.enqueued > 0 {
                        out.push(stats_line(&spec.id, &stats));
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OperatorKind;

    #[test]
    fn spare_lists_keep_a_bounded_number_of_bounded_lists() {
        let mut lists = SpareLists::default();
        for _ in 0..SPARE_LISTS + 2 {
            lists.give(Vec::with_capacity(32));
        }
        lists.give(Vec::with_capacity(SPARE_ROOM + 1));
        lists.give(Vec::new());
        let kept: Vec<usize> = (0..SPARE_LISTS + 1)
            .map(|_| lists.take().capacity())
            .collect();
        assert_eq!(kept[..SPARE_LISTS], [32; SPARE_LISTS], "the room is kept");
        assert_eq!(kept[SPARE_LISTS], 0, "the rest was dropped: a new list");
    }

    #[test]
    fn route_memo_shares_a_plan_and_the_cap_clears_instead_of_growing() {
        let spec = OperatorSpec::sink(
            "a",
            OperatorKind::Custom {
                operator: "a".into(),
            },
            vec!["s/#".into()],
        );
        let graph = ExecutorGraph::compile(vec![spec], &ExecutorConfig::default());
        let plan = graph.route("s/1");
        assert_eq!(plan.stages.len(), 1);
        assert!(
            Arc::ptr_eq(&plan, &graph.route("s/1")),
            "a hit shares the plan"
        );
        assert!(graph.route("t/1").is_empty());
        for i in 0..(ROUTE_CACHE_CAP + 8) {
            graph.route(&format!("s/{i}"));
        }
        assert!(graph.routes.borrow().len() <= ROUTE_CACHE_CAP);
    }
}
