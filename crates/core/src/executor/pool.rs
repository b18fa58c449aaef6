//! Worker pool: drives executor stages on OS threads (the thread
//! runtime's pooled mode).
//!
//! Workers scan the node's stages round-robin, popping one work item per
//! stage per pass so a deep mailbox cannot starve its neighbours. A
//! stage executes under its own lock — one stage is always serialized
//! (operators are stateful) — so parallel speedup comes from *multiple*
//! stages, e.g. a sequence-sharded operator replicated across stages.
//!
//! Zero-clone fan-out crosses this boundary: when the router enqueues
//! one `WorkItem::SharedBatch` to several stages, those stages may pop
//! their `Arc` handles on different workers concurrently. `step_pooled`
//! resolves ownership per handle at execution time — the last handle
//! alive unwraps the batch in place, earlier ones clone — so in pooled
//! mode the clone count depends on drain order (between zero and
//! `consumers - 1` copies) while inline mode, which executes stages in
//! order, always gets the free unwrap on the final consumer.
//!
//! Workers route the intra-node hot path themselves through the pool's
//! [`DirectHandoff`]: a stage's eligible flow emissions go straight into
//! the destination stages' ingress queues, and only egress outputs and
//! fallbacks are handed to the `deliver` callback (wired back to the
//! node thread, which stays the sole publisher). A pool sees every stage
//! of its node: the graph is fixed once compiled. Blocking backpressure
//! stays deadlock-free because the handoff only *try*-enqueues — workers
//! never wait on mailbox space; see [`crate::executor::handoff`] for the
//! full argument.
//!
//! The idle path is event-driven: a worker that finds no runnable stage
//! parks on the pool condvar with **no timeout** and is woken by
//! `notify_work` (node-thread enqueues), by peers that handed work off
//! directly, or by stop. An idle pool makes zero periodic wakeups —
//! asserted the same way as the broker's idle event loops — and each worker
//! buffers its metric updates in a private [`MetricsDelta`] shard,
//! paying the shared-hub lock once per flush instead of once per
//! counter bump in hot operator code.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use bytes::Bytes;

use ifot_netsim::metrics::{Metrics, MetricsDelta};

use crate::env::NodeEnv;
use crate::executor::handoff::{DirectHandoff, PlanCache};
use crate::executor::StageCell;
use crate::operators::OpOutput;

/// Receives `(stage_index, outputs)` batches from worker threads.
pub type DeliverFn = Arc<dyn Fn(usize, Vec<OpOutput>) + Send + Sync>;

/// Buffered metric entries that trigger a shard flush mid-stream (idle
/// transitions and worker exit always flush regardless).
const METRIC_SHARD_FLUSH: usize = 256;

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
    rng_state: u64,
}

impl WorkerEnv {
    /// Merges the private shard into the shared hub (one lock per
    /// flush). Called on idle transitions, at worker exit, and when the
    /// shard outgrows [`METRIC_SHARD_FLUSH`].
    fn flush_metrics(&mut self) {
        if !self.shard.is_empty() {
            self.metrics
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .absorb(&mut self.shard);
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
        // SplitMix64 seeded per worker at spawn.
        self.rng_state = self.rng_state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.rng_state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
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

/// A running pool of stage workers for one node.
pub struct WorkerPool {
    stop: Arc<AtomicBool>,
    signal: Arc<(Mutex<u64>, Condvar)>,
    scans: Arc<AtomicU64>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.handles.len())
            .finish()
    }
}

impl WorkerPool {
    /// Spawns `workers` threads draining `cells`; outputs go to
    /// `deliver`, except the intra-node flow hops `handoff` delivers
    /// worker-to-stage directly.
    pub fn spawn(
        name: &str,
        workers: usize,
        cells: Vec<Arc<StageCell>>,
        deliver: DeliverFn,
        handoff: Arc<DirectHandoff>,
        runtime: WorkerRuntime,
    ) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let signal = Arc::new((Mutex::new(0u64), Condvar::new()));
        let scans = Arc::new(AtomicU64::new(0));
        let handles = (0..workers)
            .map(|w| {
                let cells = cells.clone();
                let deliver = Arc::clone(&deliver);
                let handoff = Arc::clone(&handoff);
                let stop = Arc::clone(&stop);
                let signal = Arc::clone(&signal);
                let scans = Arc::clone(&scans);
                let mut env = WorkerEnv {
                    epoch: runtime.epoch,
                    metrics: Arc::clone(&runtime.metrics),
                    shard: MetricsDelta::new(),
                    speed: runtime.speed,
                    rng_state: runtime.seed
                        ^ (0xA076_1D64_78BD_642F_u64.wrapping_mul(w as u64 + 1)),
                };
                std::thread::Builder::new()
                    .name(format!("ifot-{name}-w{w}"))
                    .spawn(move || {
                        let mut plans = PlanCache::new();
                        // Every step's outputs, kept across steps: only
                        // what goes to the node thread is allocated.
                        let mut out = Vec::new();
                        let mut woke_from_wait = false;
                        while !stop.load(Ordering::Acquire) {
                            let observed = *signal.0.lock().unwrap_or_else(PoisonError::into_inner);
                            scans.fetch_add(1, Ordering::Relaxed);
                            let mut did_work = false;
                            let mut handed_off = false;
                            // One item per stage per pass: fairness over
                            // throughput so no stage starves. Each worker
                            // starts its scan at a different stage so the
                            // pool spreads across stages instead of
                            // convoying on the first busy one.
                            for i in 0..cells.len() {
                                let index = (w + i) % cells.len();
                                if let Some(outcome) = cells[index].step_pooled_handoff(
                                    &mut env, index, &handoff, &mut plans, &mut out,
                                ) {
                                    did_work = true;
                                    handed_off |= outcome.direct > 0;
                                    if !out.is_empty() {
                                        // A list of its own for the node
                                        // thread: `out` keeps its buffer,
                                        // which `mem::take` would hand over.
                                        #[allow(clippy::drain_collect)]
                                        let leftover = out.drain(..).collect();
                                        deliver(index, leftover);
                                    }
                                }
                            }
                            // A wakeup that found nothing runnable was
                            // spurious (e.g. a peer raced us to the work).
                            if woke_from_wait && !did_work {
                                env.add("worker_spurious_wakeups", 1);
                            }
                            woke_from_wait = false;
                            if handed_off {
                                // Direct deliveries bypass the node
                                // thread's notify: wake idle peers so the
                                // destination stage is drained promptly.
                                let (lock, cvar) = &*signal;
                                *lock.lock().unwrap_or_else(PoisonError::into_inner) += 1;
                                cvar.notify_all();
                            }
                            if !did_work {
                                // Going idle: surface buffered metrics
                                // before parking, then wait with no
                                // timeout — an idle pool makes zero
                                // periodic wakeups.
                                env.flush_metrics();
                                let (lock, cvar) = &*signal;
                                let version = lock.lock().unwrap_or_else(PoisonError::into_inner);
                                if *version == observed && !stop.load(Ordering::Acquire) {
                                    drop(
                                        cvar.wait(version).unwrap_or_else(PoisonError::into_inner),
                                    );
                                    woke_from_wait = true;
                                }
                            }
                        }
                        env.flush_metrics();
                    })
                    .expect("spawning a stage worker succeeds")
            })
            .collect();
        WorkerPool {
            stop,
            signal,
            scans,
            handles,
        }
    }

    /// Wakes idle workers after new work was enqueued.
    pub fn notify_work(&self) {
        let (lock, cvar) = &*self.signal;
        *lock.lock().unwrap_or_else(PoisonError::into_inner) += 1;
        cvar.notify_all();
    }

    /// Total scan passes performed by all workers. Strictly monotone
    /// while any worker is runnable; *constant* while the pool is idle —
    /// the zero-periodic-wakeup assertion reads it twice.
    pub fn scan_count(&self) -> u64 {
        self.scans.load(Ordering::Relaxed)
    }

    /// Stops and joins every worker (queued work may remain unprocessed;
    /// the caller drains or discards it). Worker metric shards are
    /// flushed on the way out.
    pub fn stop(self) {
        self.stop.store(true, Ordering::Release);
        self.notify_work();
        for handle in self.handles {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ExecutorConfig, OperatorKind, OperatorSpec};
    use crate::executor::ExecutorGraph;

    fn idle_pool() -> (WorkerPool, Arc<Mutex<Metrics>>) {
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
        let graph = ExecutorGraph::compile(specs, &config);
        let metrics = Arc::new(Mutex::new(Metrics::new()));
        let pool = WorkerPool::spawn(
            "idle-test",
            2,
            graph.cells(),
            Arc::new(|_, _| {}),
            graph.direct_handoff(),
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
    /// worker has parked, the scan counter must not move — an idle pool
    /// makes zero periodic wakeups (the old 5 ms poll made ~200/s per
    /// worker).
    #[test]
    fn idle_pool_makes_zero_periodic_wakeups() {
        let (pool, _metrics) = idle_pool();
        // Let the initial scans settle: wait until the counter is stable
        // across a full settle window.
        let mut last = pool.scan_count();
        for _ in 0..200 {
            std::thread::sleep(Duration::from_millis(5));
            let now = pool.scan_count();
            if now == last {
                break;
            }
            last = now;
        }
        let settled = pool.scan_count();
        // A quarter second is 50 poll periods of the old 5 ms timeout:
        // any surviving periodic wakeup would move the counter.
        std::thread::sleep(Duration::from_millis(250));
        assert_eq!(
            pool.scan_count(),
            settled,
            "idle workers must not wake periodically"
        );
        // notify_work still wakes them (one scan pass per worker, then
        // they park again).
        pool.notify_work();
        std::thread::sleep(Duration::from_millis(100));
        assert!(
            pool.scan_count() > settled,
            "notify_work must wake the pool"
        );
        pool.stop();
    }

    /// Worker metric shards flush at exit: counters buffered privately
    /// must land in the shared hub after `stop()`.
    #[test]
    fn worker_metric_shards_flush_on_stop() {
        let (pool, metrics) = idle_pool();
        std::thread::sleep(Duration::from_millis(20));
        pool.notify_work();
        std::thread::sleep(Duration::from_millis(20));
        pool.stop();
        // Waking an idle pool with no work produces spurious wakeups,
        // which reach the hub through the shard path.
        let hub = metrics.lock().unwrap_or_else(PoisonError::into_inner);
        assert!(hub.counter("worker_spurious_wakeups") >= 1);
    }
}
