//! Worker pool: runs a node's executor stages on OS threads (the thread
//! runtime's pooled mode), each stage on the one worker that owns it.
//!
//! ## Ownership
//!
//! [`ExecutorGraph::deal`] gives stage *i* to worker *i* mod `workers`,
//! a constant rule: sharded replicas declared one after another land on
//! alternate workers. A [`Worker`] owns its stages' [`ExecutorStage`]s
//! outright, so no lock is held while an operator runs, and a stage's
//! outputs reach the node thread in the order it ran them, whatever the
//! worker count. Parallel speed-up comes from running *different*
//! stages at once, e.g. a sequence-sharded operator's replicas.
//!
//! ## Inbox and wake
//!
//! Nothing reaches a stage but a post to its owner's inbox: the stage,
//! the work item and its arrival time. The owner swaps the inbox out
//! once a turn into a buffer it keeps, so posts are folded into the
//! mailboxes in the order they were made. A poster wakes the owner only
//! when it finds the inbox empty: a non-empty inbox has a wake pending,
//! because the owner swaps it out only under the same lock it parks on.
//! A worker parks, with no timeout, only when its inbox is empty and none
//! of its stages has queued work, so an idle pool makes zero periodic
//! wakeups (asserted the same way as the broker's idle event loops). The
//! thread runtime's node threads own the same `Inbox` type and park on
//! it until a post or their next timer's deadline.
//!
//! ## A turn
//!
//! [`Worker::turn`] folds the inbox into the owned mailboxes, then steps
//! each owned stage once, so a deep mailbox cannot starve its
//! neighbours. A step's eligible flow emissions are posted to their
//! destinations' owners ([`Handoff`]); egress and fallbacks go to the
//! `deliver` callback, wired back to the node thread, which stays the
//! sole publisher. At the end of a turn the owner copies each of its
//! stages' [`StageStats`] and [`ShedPolicy`] into the stage's published
//! slot, which [`ExecutorGraph::stats`] and
//! [`ExecutorGraph::policy`] read. A pool thread runs turns in a loop; a
//! test may run them itself, in any order, on one thread.
//!
//! `Block` backpressure is a per-stage credit the poster takes. Only the
//! node thread ever waits for it, and workers never wait on each other:
//! the argument is in [`crate::executor::handoff`].
//!
//! An operator that panics loses the work item it was running, not its
//! stage: the owner catches the panic and keeps serving its stages.
//! [`WorkerPool::stop`] joins the workers and hands their stages back to
//! the graph, each with what was posted for it and not yet folded queued
//! in order; the node then runs that backlog inline.
//!
//! Zero-clone fan-out crosses workers: one `WorkItem::SharedBatch`
//! posted to several stages may be popped on different workers, and the
//! last handle alive unwraps the batch in place while earlier ones
//! copy it, so in pooled mode the copy count depends on drain order.
//! Each worker buffers its metric updates in a private [`MetricsDelta`]
//! shard, paying the shared-hub lock once per flush.
//!
//! ## Lists
//!
//! A batch keeps one list from the frame it was decoded from to the last
//! stage that consumes it: a worker keeps the lists its stages drained
//! ([`SpareLists`]) and builds its hand-offs and shard splits in them.
//! The flow through a pool is lopsided — the node thread decodes every
//! frame into a list and gets none back, a worker whose stages end a
//! chain gets back more than it hands on — so the pool has two bounded
//! return stacks, each behind a leaf lock taken once per list that
//! crosses: emptied item lists a runner has no place for, which the
//! node thread and a worker that runs short take, and the output lists
//! the workers deliver, which the node thread gives back once it has
//! performed them ([`ExecutorGraph::give_back`]).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use bytes::Bytes;

use ifot_netsim::metrics::{Metrics, MetricsDelta};
use ifot_netsim::rng::SimRng;

use crate::config::ShedPolicy;
use crate::env::NodeEnv;
use crate::executor::handoff::Handoff;
use crate::executor::router::StageRoute;
use crate::executor::{
    worth_keeping, ExecutorGraph, ExecutorStage, SpareLists, StageStats, Stages, WorkItem,
    SPARE_LISTS,
};
use crate::flow::FlowItem;
use crate::operators::OpOutput;

/// Receives `(stage_index, outputs)` batches from worker threads.
pub type DeliverFn = Arc<dyn Fn(usize, Vec<OpOutput>) + Send + Sync>;

/// Buffered metric entries that trigger a shard flush mid-stream (going
/// idle and worker exit always flush regardless).
const METRIC_SHARD_FLUSH: usize = 256;

/// Work posted for a stage: `(stage, work item, arrival time)`.
type Post = (usize, WorkItem, u64);

/// Locks `m`, taking over the data of a holder that panicked: every
/// update made under these locks (a push, a swap, a copy) leaves the
/// data valid.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Lists a pool's return stack holds at most. More than a runner keeps
/// ([`SPARE_LISTS`]): the stack absorbs what piles up while one thread is
/// descheduled and the others go on — at `chain_batched_rt`'s 1 500
/// frames a second, a 5 ms gap is 8 frames and 32 output lists.
const RETURN_LISTS: usize = 4 * SPARE_LISTS;

/// A bounded stack of emptied lists that a pool's threads hand each
/// other: its lock is a leaf, held for one push or pop.
#[derive(Debug)]
pub(crate) struct ReturnStack<T>(Mutex<Vec<Vec<T>>>);

impl<T> ReturnStack<T> {
    fn new() -> Self {
        ReturnStack(Mutex::new(Vec::new()))
    }

    /// A returned list, if there is one.
    pub(crate) fn pop(&self) -> Option<Vec<T>> {
        lock(&self.0).pop()
    }

    /// Empties `list` and keeps it, if it is worth keeping and the stack
    /// holds fewer than [`RETURN_LISTS`].
    pub(crate) fn push(&self, mut list: Vec<T>) {
        if !worth_keeping(&list) {
            return;
        }
        list.clear();
        let mut lists = lock(&self.0);
        if lists.len() < RETURN_LISTS {
            lists.push(list);
        }
    }
}

/// The [`NodeEnv`] worker threads execute operators against: live
/// monotone time, a per-worker metric shard flushed in bulk to the
/// cluster's shared hub, optional CPU speed emulation, and a per-worker
/// deterministic RNG. Operators never send packets or arm timers
/// themselves (the node routes their outputs), so those environment
/// calls only count a diagnostic metric.
struct WorkerEnv {
    epoch: Instant,
    metrics: Arc<Mutex<Metrics>>,
    shard: MetricsDelta,
    speed: Option<f64>,
    rng: SimRng,
}

impl WorkerEnv {
    /// Merges the private shard into the shared hub (one lock per
    /// flush). Called before parking, at worker exit, and when the shard
    /// outgrows [`METRIC_SHARD_FLUSH`].
    fn flush_metrics(&mut self) {
        if !self.shard.is_empty() {
            lock(&self.metrics).absorb(&mut self.shard);
        }
    }

    fn maybe_flush(&mut self) {
        if self.shard.len() >= METRIC_SHARD_FLUSH {
            self.flush_metrics();
        }
    }
}

impl NodeEnv for WorkerEnv {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn send(&mut self, _dst: &str, _port: u16, _payload: Bytes) {
        self.incr("worker_env_send_ignored");
    }

    fn set_timer_after_ns(&mut self, _delay_ns: u64, _tag: u64) {
        self.incr("worker_env_timer_ignored");
    }

    fn set_timer_at_ns(&mut self, _at_ns: u64, _tag: u64) {
        self.incr("worker_env_timer_ignored");
    }

    fn consume_ref_ms(&mut self, ms: f64) {
        if let Some(speed) = self.speed {
            let real_ms = ms / speed.max(1e-9);
            std::thread::sleep(Duration::from_secs_f64(real_ms / 1_000.0));
        }
    }

    fn record_latency_since_ns(&mut self, name: &str, since_ns: u64) {
        let d = self.now_ns().saturating_sub(since_ns);
        self.shard.record_latency_ns(name, d);
        self.maybe_flush();
    }

    fn incr(&mut self, counter: &str) {
        self.add(counter, 1);
    }

    fn add(&mut self, counter: &str, delta: u64) {
        self.shard.add(counter, delta);
        self.maybe_flush();
    }

    fn rand_u64(&mut self) -> u64 {
        self.rng.next_u64()
    }
}

/// Environment the pool's workers execute operators in: the cluster's
/// monotone epoch and metrics hub, optional CPU speed emulation, and the
/// seed the per-worker RNGs derive from.
pub struct WorkerRuntime {
    /// Cluster epoch; worker `now_ns` is elapsed time since it.
    pub epoch: Instant,
    /// Shared metrics hub (counters and latency summaries).
    pub metrics: Arc<Mutex<Metrics>>,
    /// `Some(speed)` sleeps out `ref_ms / speed` per operator charge.
    pub speed: Option<f64>,
    /// Base seed; each worker derives its own RNG stream from it.
    pub seed: u64,
}

impl std::fmt::Debug for WorkerRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerRuntime")
            .field("speed", &self.speed)
            .field("seed", &self.seed)
            .finish()
    }
}

/// An inbox one thread owns and any thread posts to, swapped out whole
/// ("Inbox and wake"). Each pool worker and each node thread owns one.
#[derive(Debug)]
pub(crate) struct Inbox<T> {
    /// What was posted since the owner last swapped the list out, and
    /// whether the owner is stopped.
    state: Mutex<(Vec<T>, bool)>,
    /// Signalled by the poster that finds the inbox empty, and at stop.
    wake: Condvar,
}

/// How long [`Inbox::take`] waits while nothing is posted.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Wait {
    No,
    Park,
    Until(Instant),
}

impl<T> Inbox<T> {
    pub(crate) fn new() -> Self {
        Inbox {
            state: Mutex::new((Vec::new(), false)),
            wake: Condvar::new(),
        }
    }

    /// Appends `post`, waking the owner if the inbox was empty. A post
    /// after [`Self::stop`] is kept for whoever takes the inbox last.
    pub(crate) fn post(&self, post: T) {
        let mut state = lock(&self.state);
        state.0.push(post);
        let first = state.0.len() == 1;
        drop(state);
        if first {
            self.wake.notify_one();
        }
    }

    /// Swaps what was posted into `posts` (which must be empty), waiting
    /// for a post first as `wait` says, or until stopped; `false` once
    /// stopped.
    pub(crate) fn take(&self, posts: &mut Vec<T>, wait: Wait) -> bool {
        debug_assert!(posts.is_empty(), "the taken list is handled first");
        let mut state = lock(&self.state);
        while state.0.is_empty() && !state.1 {
            state = match wait {
                Wait::No => break,
                Wait::Park => self
                    .wake
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner),
                Wait::Until(at) => {
                    let left = at.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        break;
                    }
                    let waited = self.wake.wait_timeout(state, left);
                    waited.unwrap_or_else(PoisonError::into_inner).0
                }
            };
        }
        std::mem::swap(&mut state.0, posts);
        !state.1
    }

    /// Marks the owner stopped and wakes it.
    pub(crate) fn stop(&self) {
        lock(&self.state).1 = true;
        self.wake.notify_one();
    }
}

/// What a stage's `Block` credit is counted from.
#[derive(Debug)]
struct Credit {
    /// Entries posted for the stage and not yet popped or shed: its
    /// owner's inbox share plus its mailbox.
    queued: AtomicUsize,
    /// Whether a flow post must take credit: the stage's policy is still
    /// `Block` (cleared by its owner when it escalates).
    blocking: AtomicBool,
    capacity: usize,
}

/// What the pool's threads share: the inboxes, each stage's credit and
/// published figures, and the node thread's credit wait.
#[derive(Debug)]
pub(crate) struct Shared {
    inboxes: Vec<Inbox<Post>>,
    credit: Vec<Credit>,
    /// Per stage, its owner's copy of `(stats, policy)` as of the end of
    /// the owner's last turn.
    published: Vec<Mutex<(StageStats, ShedPolicy)>>,
    /// Set while the node thread waits for credit.
    waiting: AtomicBool,
    space: Mutex<()>,
    space_freed: Condvar,
    turns: AtomicU64,
    /// Item lists a thread had no place for, for a thread that has none
    /// left: the node thread decodes frames into them, the workers drain
    /// them.
    lists_back: Arc<ReturnStack<FlowItem>>,
    /// Output lists the node thread has performed, for the workers' next
    /// deliveries.
    pub(crate) outputs_back: ReturnStack<OpOutput>,
}

impl Shared {
    /// Takes one entry of `stage`'s credit. A flow entry (`sheddable`)
    /// for a blocking stage needs one to be left; anything else is
    /// counted and always admitted.
    fn reserve(&self, stage: usize, sheddable: bool) -> bool {
        let credit = &self.credit[stage];
        if sheddable && credit.blocking.load(Ordering::SeqCst) {
            credit
                .queued
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |q| {
                    (q < credit.capacity).then_some(q + 1)
                })
                .is_ok()
        } else {
            credit.queued.fetch_add(1, Ordering::SeqCst);
            true
        }
    }

    /// Gives `n` entries of credit back to `stage` and wakes the node
    /// thread if it waits for some. The node thread sets `waiting` before
    /// it checks the credit, and both sides use `SeqCst`: either its check
    /// sees this release, or this load sees `waiting` and the wake-up
    /// lands after it waits (it holds `space` from the check to the wait).
    fn release(&self, stage: usize, n: usize) {
        self.credit[stage].queued.fetch_sub(n, Ordering::SeqCst);
        if self.waiting.load(Ordering::SeqCst) {
            drop(lock(&self.space));
            self.space_freed.notify_one();
        }
    }

    /// Takes a flow entry of credit at every route, or at none.
    pub(crate) fn reserve_all(&self, routes: &[StageRoute]) -> bool {
        for (k, route) in routes.iter().enumerate() {
            if !self.reserve(route.stage, true) {
                for taken in &routes[..k] {
                    self.release(taken.stage, 1);
                }
                return false;
            }
        }
        true
    }

    /// Appends work whose credit is taken to its owner's inbox, waking the
    /// owner if the inbox was empty.
    pub(crate) fn post(&self, stage: usize, work: WorkItem, at_ns: u64) {
        self.inboxes[stage % self.inboxes.len()].post((stage, work, at_ns));
    }

    /// The node thread's post: out of credit for a blocking stage, it
    /// waits until the stage's owner gives some back. Only one thread may
    /// call this at a time.
    pub(crate) fn admit(&self, stage: usize, work: WorkItem, at_ns: u64) {
        let sheddable = work.sheddable();
        if !self.reserve(stage, sheddable) {
            let mut space = lock(&self.space);
            self.waiting.store(true, Ordering::SeqCst);
            while !self.reserve(stage, sheddable) {
                space = self
                    .space_freed
                    .wait(space)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            self.waiting.store(false, Ordering::SeqCst);
        }
        self.post(stage, work, at_ns);
    }

    /// Stage `stage`'s figures as its owner last published them.
    pub(crate) fn published(&self, stage: usize) -> (StageStats, ShedPolicy) {
        lock(&self.published[stage]).clone()
    }
}

/// One worker's share of a graph: the stages it owns outright and what
/// it keeps from turn to turn. Made by [`ExecutorGraph::deal`] and handed
/// back with [`ExecutorGraph::reclaim`]; a [`WorkerPool`] thread runs
/// its turns, or a test does.
#[derive(Debug)]
pub struct Worker {
    index: usize,
    shared: Arc<Shared>,
    handoff: Arc<Handoff>,
    /// The owned stages with their graph indices, ascending.
    stages: Vec<(usize, ExecutorStage)>,
    /// The inbox as last swapped out; folded, it keeps its room.
    posts: Vec<Post>,
    /// One step's outputs, kept across steps.
    out: Vec<OpOutput>,
    /// The lists its stages' batches came in, for its hand-offs.
    lists: SpareLists,
}

impl Worker {
    /// One turn: folds what was posted into the owned mailboxes, then
    /// steps each owned stage that has work once, handing its eligible
    /// emissions off and everything else to `deliver`. Returns whether
    /// anything was folded or run.
    pub fn turn(
        &mut self,
        env: &mut dyn NodeEnv,
        deliver: &mut dyn FnMut(usize, Vec<OpOutput>),
    ) -> bool {
        self.shared.inboxes[self.index].take(&mut self.posts, Wait::No);
        self.work(env, deliver)
    }

    fn work(
        &mut self,
        env: &mut dyn NodeEnv,
        deliver: &mut dyn FnMut(usize, Vec<OpOutput>),
    ) -> bool {
        self.shared.turns.fetch_add(1, Ordering::Relaxed);
        let mut worked = !self.posts.is_empty();
        for (stage, work, at_ns) in self.posts.drain(..) {
            // Dealt round-robin: stage i is this worker's (i / workers)-th.
            let owned = &mut self.stages[stage / self.shared.inboxes.len()].1;
            let before = owned.depth();
            owned.enqueue(work, at_ns);
            // A shed entry, the newcomer or the oldest, leaves the books.
            let shed = before + 1 - owned.depth();
            if shed > 0 {
                self.shared.release(stage, shed);
            }
        }
        for (stage, owned) in &mut self.stages {
            let stage = *stage;
            if owned.depth() > 0 {
                worked = true;
                let (out, lists) = (&mut self.out, &mut self.lists);
                let policy = owned.policy();
                if catch_unwind(AssertUnwindSafe(|| owned.step(env, out, lists))).is_err() {
                    // What the panicking call appended is not a result.
                    out.clear();
                }
                if owned.policy() != policy {
                    self.shared.credit[stage]
                        .blocking
                        .store(false, Ordering::SeqCst);
                }
                self.shared.release(stage, 1);
                self.handoff
                    .apply(&self.shared, env, stage, &mut owned.stats, out, lists);
                if !out.is_empty() {
                    // A list for the node thread, one it gave back if it
                    // can: `out` keeps its buffer.
                    let mut leftover = self.shared.outputs_back.pop().unwrap_or_default();
                    leftover.append(out);
                    deliver(stage, leftover);
                }
            }
            *lock(&self.shared.published[stage]) = (owned.stats.clone(), owned.policy());
        }
        worked
    }

    /// A pool thread's loop: turns until the pool stops, parking whenever
    /// there is nothing to do.
    fn run(mut self, env: &mut WorkerEnv, deliver: &DeliverFn) -> Worker {
        let deliver = &mut |stage, outputs| deliver(stage, outputs);
        loop {
            let mut running = self.shared.inboxes[self.index].take(&mut self.posts, Wait::No);
            if running && self.posts.is_empty() && self.stages.iter().all(|(_, s)| s.depth() == 0) {
                // Going idle: surface buffered metrics, then park with no
                // timeout.
                env.flush_metrics();
                running = self.shared.inboxes[self.index].take(&mut self.posts, Wait::Park);
            }
            if !running {
                break;
            }
            self.work(env, deliver);
        }
        env.flush_metrics();
        self
    }
}

impl ExecutorGraph {
    /// Deals the stages out to `workers` owners, stage *i* to worker *i*
    /// mod `workers`. From now on [`Self::offer`] and [`Self::enqueue`]
    /// post to the owner's inbox, and [`Self::stats`] and
    /// [`Self::policy`] read what the owners publish, until
    /// [`Self::reclaim`].
    ///
    /// # Panics
    ///
    /// Panics if `workers` is 0 or the stages are dealt already.
    pub fn deal(&self, workers: usize) -> Vec<Worker> {
        assert!(workers > 0, "a pool has at least one worker");
        let mut slot = self.stages.borrow_mut();
        let Stages::Inline(stages) = &mut *slot else {
            panic!("the stages are dealt already");
        };
        let stages = std::mem::take(stages);
        let shared = Arc::new(Shared {
            inboxes: (0..workers).map(|_| Inbox::new()).collect(),
            credit: stages
                .iter()
                .map(|stage| Credit {
                    queued: AtomicUsize::new(stage.depth()),
                    blocking: AtomicBool::new(stage.policy() == ShedPolicy::Block),
                    capacity: stage.capacity,
                })
                .collect(),
            published: stages
                .iter()
                .map(|stage| Mutex::new((stage.stats.clone(), stage.policy())))
                .collect(),
            waiting: AtomicBool::new(false),
            space: Mutex::new(()),
            space_freed: Condvar::new(),
            turns: AtomicU64::new(0),
            lists_back: Arc::new(ReturnStack::new()),
            outputs_back: ReturnStack::new(),
        });
        *slot = Stages::Pooled(Arc::clone(&shared));
        self.lists.borrow_mut().back = Some(Arc::clone(&shared.lists_back));
        let mut dealt: Vec<Worker> = (0..workers)
            .map(|index| Worker {
                index,
                shared: Arc::clone(&shared),
                handoff: Arc::clone(&self.handoff),
                stages: Vec::new(),
                posts: Vec::new(),
                out: Vec::new(),
                lists: SpareLists {
                    back: Some(Arc::clone(&shared.lists_back)),
                    ..SpareLists::default()
                },
            })
            .collect();
        for (i, stage) in stages.into_iter().enumerate() {
            dealt[i % workers].stages.push((i, stage));
        }
        dealt
    }

    /// Takes the stages back from every worker [`Self::deal`] made, each
    /// with what was posted for it and not yet run queued in its mailbox,
    /// in order ([`Self::step`] runs it).
    ///
    /// # Panics
    ///
    /// Panics if the stages are not dealt, or a worker is missing.
    pub fn reclaim(&self, workers: Vec<Worker>) {
        let mut slot = self.stages.borrow_mut();
        let Stages::Pooled(shared) = &*slot else {
            panic!("the stages are not dealt");
        };
        assert_eq!(workers.len(), shared.inboxes.len(), "a worker is missing");
        let mut owned = Vec::new();
        let mut posts = Vec::new();
        for mut worker in workers {
            posts.append(&mut worker.posts);
            shared.inboxes[worker.index].take(&mut worker.posts, Wait::No);
            posts.append(&mut worker.posts);
            owned.append(&mut worker.stages);
        }
        owned.sort_by_key(|(index, _)| *index);
        let mut stages: Vec<ExecutorStage> = owned.into_iter().map(|(_, stage)| stage).collect();
        for (stage, work, at_ns) in posts {
            stages[stage].enqueue(work, at_ns);
        }
        *slot = Stages::Inline(stages);
        self.lists.borrow_mut().back = None;
    }
}

/// A running pool of stage workers for one node.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<Worker>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.handles.len())
            .finish()
    }
}

impl WorkerPool {
    /// Deals `graph`'s stages to `workers` threads (no more than there
    /// are stages) and starts them; outputs go to `deliver`, except the
    /// intra-node flow hops the workers post to each other.
    pub fn spawn(
        name: &str,
        workers: usize,
        graph: &ExecutorGraph,
        deliver: DeliverFn,
        runtime: WorkerRuntime,
    ) -> Self {
        let dealt = graph.deal(workers.min(graph.len()).max(1));
        let shared = Arc::clone(&dealt[0].shared);
        let handles = dealt
            .into_iter()
            .map(|worker| {
                let w = worker.index;
                let deliver = Arc::clone(&deliver);
                let mut env = WorkerEnv {
                    epoch: runtime.epoch,
                    metrics: Arc::clone(&runtime.metrics),
                    shard: MetricsDelta::new(),
                    speed: runtime.speed,
                    rng: SimRng::seed_from(
                        runtime.seed ^ (0xA076_1D64_78BD_642F_u64.wrapping_mul(w as u64 + 1)),
                    ),
                };
                std::thread::Builder::new()
                    .name(format!("ifot-{name}-w{w}"))
                    .spawn(move || worker.run(&mut env, &deliver))
                    .expect("spawning a stage worker succeeds")
            })
            .collect();
        WorkerPool { shared, handles }
    }

    /// Turns run by all workers. Strictly monotone while any worker has
    /// work; *constant* while the pool is idle — the zero-periodic-wakeup
    /// assertion reads it twice.
    pub fn turn_count(&self) -> u64 {
        self.shared.turns.load(Ordering::Relaxed)
    }

    /// Stops and joins every worker, flushing their metric shards, and
    /// hands their stages back to `graph` with the work posted for them
    /// and not yet run queued in order (the caller runs or discards it).
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panicked outside an operator.
    pub fn stop(self, graph: &ExecutorGraph) {
        for inbox in &self.shared.inboxes {
            inbox.stop();
        }
        let workers = self
            .handles
            .into_iter()
            .map(|handle| {
                handle
                    .join()
                    .expect("a worker catches its operators' panics")
            })
            .collect();
        graph.reclaim(workers);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ExecutorConfig, OperatorKind, OperatorSpec};
    use crate::env::MockEnv;
    use crate::flow::FlowItem;
    use ifot_ml::feature::Datum;

    fn graph() -> ExecutorGraph {
        let specs = vec![OperatorSpec::sink(
            "ingest",
            OperatorKind::Custom {
                operator: "ingest".into(),
            },
            vec!["sensor/#".into()],
        )];
        let config = ExecutorConfig {
            workers: 2,
            ..ExecutorConfig::default()
        };
        ExecutorGraph::compile(specs, &config)
    }

    fn item(seq: u64) -> WorkItem {
        WorkItem::Item(FlowItem {
            topic: "sensor/a".into(),
            origin_ts_ns: seq,
            seq,
            datum: Datum::new().with("x", seq as f64),
            label: None,
            score: None,
        })
    }

    fn spawn(graph: &ExecutorGraph) -> (WorkerPool, Arc<Mutex<Metrics>>) {
        let metrics = Arc::new(Mutex::new(Metrics::new()));
        let pool = WorkerPool::spawn(
            "idle-test",
            2,
            graph,
            Arc::new(|_, _| {}),
            WorkerRuntime {
                epoch: Instant::now(),
                metrics: Arc::clone(&metrics),
                speed: None,
                seed: 7,
            },
        );
        (pool, metrics)
    }

    /// The idle-broker assertion, ported to the pool: once every
    /// worker has parked, the turn counter must not move — an idle pool
    /// makes zero periodic wakeups (the old 5 ms poll made ~200/s per
    /// worker).
    #[test]
    fn idle_pool_makes_zero_periodic_wakeups() {
        let graph = graph();
        let (pool, _metrics) = spawn(&graph);
        // Let the first turns settle: wait until the counter is stable
        // across a full settle window.
        let mut last = pool.turn_count();
        for _ in 0..200 {
            std::thread::sleep(Duration::from_millis(5));
            let now = pool.turn_count();
            if now == last {
                break;
            }
            last = now;
        }
        let settled = pool.turn_count();
        // A quarter second is 50 poll periods of the old 5 ms timeout:
        // any surviving periodic wakeup would move the counter.
        std::thread::sleep(Duration::from_millis(250));
        assert_eq!(
            pool.turn_count(),
            settled,
            "idle workers must not wake periodically"
        );
        // A post wakes its owner.
        graph.enqueue(0, item(1), 0);
        let deadline = Instant::now() + Duration::from_secs(10);
        while pool.turn_count() == settled {
            assert!(Instant::now() < deadline, "a post must wake its owner");
            std::thread::sleep(Duration::from_millis(1));
        }
        pool.stop(&graph);
    }

    /// Worker metric shards flush at exit: counters buffered privately
    /// must land in the shared hub after `stop()`.
    #[test]
    fn worker_metric_shards_flush_on_stop() {
        let graph = graph();
        let (pool, metrics) = spawn(&graph);
        graph.enqueue(0, item(1), 0);
        while graph.stats(0).processed == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        pool.stop(&graph);
        assert_eq!(lock(&metrics).counter("custom_ingest"), 1);
    }

    /// What was posted and never folded comes back with its stage, in
    /// order, and runs inline.
    #[test]
    fn reclaim_queues_unfolded_posts_in_order() {
        let graph = graph();
        let workers = graph.deal(2);
        for seq in 0..3 {
            graph.enqueue(0, item(seq), seq);
        }
        graph.reclaim(workers);
        assert_eq!(graph.stats(0).depth, 3);
        let mut env = MockEnv::new();
        env.now_ns = 10;
        let mut out = Vec::new();
        let mut waits = Vec::new();
        while graph.step(&mut env, 0, &mut out) {
            waits.push(graph.stats(0).wait_ns_total);
        }
        // Waits of 10, 9 and 8 ns: the posts of times 0, 1, 2, in order.
        assert_eq!(waits, vec![10, 19, 27]);
    }
}
