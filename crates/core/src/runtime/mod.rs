//! The task pool under overlapped training (DESIGN.md §13).
//!
//! The paper's §5 pipeline overlaps CPU sampling for *future* batches with
//! the GPU stages of the current one. This module is the execution
//! substrate, sized to that job: a [`Pool`] of worker threads runs a fixed,
//! index-addressed task vector, handing indexes out in ascending order from
//! one atomic cursor — the order the in-order consumer wants them in, so
//! there is nothing to balance. A worker whose claim passes the end exits,
//! and when the last one has, the bounded result channel
//! (`std::sync::mpsc::sync_channel`, the paper's GPU-memory guard)
//! disconnects: a drained pool ends its stream by itself.
//!
//! Fault model: a panicking task is retried up to `max_retries` times on a
//! rebuilt worker state, then reported as [`TaskError::Panicked`] *for its
//! index*; dropping the pool stops claims and retry loops promptly.
//!
//! **Determinism contract.** The pool never decides *what* a task computes,
//! only *where and when*: every task carries the RNG it samples with, drawn
//! before the pool started and copied afresh for each attempt, and
//! [`InOrder`] releases results strictly by index.
//! Hence the committed stream, all `Exact` metrics and span trees are
//! byte-identical at any worker count and under any completion order —
//! including the seeded adversarial ones [`ChaosPolicy`] injects. Per-worker
//! task counts, latency and queue depth are real and exported, but only
//! ever as `Measured`.
//!
//! No registry dependencies: everything is `std::sync`, per the offline
//! tier-1 gate.

pub mod chaos;
pub mod ordered;

pub use chaos::ChaosPolicy;
pub use ordered::InOrder;

use crate::obs::{Histogram, LATENCY_BUCKETS};
use chaos::ChaosRng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvError, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Pool construction parameters.
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// Worker threads (min 1).
    pub workers: usize,
    /// Bound on finished-but-unconsumed results (the paper's GPU-memory
    /// guard; maps to the result channel capacity).
    pub queue_capacity: usize,
    /// Extra attempts after a task panics before reporting
    /// [`TaskError::Panicked`].
    pub max_retries: u32,
    /// Seeded adversarial scheduling, for the fuzzing suite. `None` in
    /// production.
    pub chaos: Option<ChaosPolicy>,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            workers: 1,
            queue_capacity: 4,
            max_retries: 2,
            chaos: None,
        }
    }
}

/// Why a task produced no result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TaskError {
    /// Task `index` panicked on every one of `attempts` attempts.
    Panicked {
        /// Index of the failing task.
        index: usize,
        /// Total attempts made (1 + retries).
        attempts: u32,
    },
    /// The pool's workers died before producing every result (synthesized
    /// by [`InOrder`] on channel disconnect, never sent by a worker).
    Lost {
        /// Results committed before the loss was detected.
        produced: usize,
        /// Results that were expected.
        total: usize,
    },
}

impl std::fmt::Display for TaskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TaskError::Panicked { index, attempts } => {
                write!(f, "task {index} panicked on all {attempts} attempts")
            }
            TaskError::Lost { produced, total } => {
                write!(f, "workers lost after {produced}/{total} results")
            }
        }
    }
}

/// Execution counters for one pool run. The per-worker and latency fields
/// are wall-clock or schedule artifacts (`Measured`); `retries` is a
/// property of the tasks, not the schedule (`Exact`).
#[derive(Clone, Debug)]
pub struct RuntimeObsReport {
    /// Successful task executions per worker.
    pub worker_tasks: Vec<u64>,
    /// Wall-clock nanoseconds spent inside task attempts, per worker.
    pub worker_task_nanos: Vec<u64>,
    /// Per-attempt task latency in seconds.
    pub task_seconds: Histogram,
    /// Extra attempts spent recovering from task panics.
    pub retries: u64,
}

/// State shared by the workers and the handle. Task payloads stay out of
/// here (they live in an `Arc<Vec<T>>` inside the worker closures).
struct Shared {
    /// Next unclaimed task index. `Relaxed` everywhere: the cursor hands
    /// out indexes into a vector that was complete before any worker
    /// started, so a claim publishes no other data.
    cursor: AtomicUsize,
    shutdown: AtomicBool,
    obs: PoolObs,
}

struct PoolObs {
    tasks: Vec<AtomicU64>,
    task_nanos: Vec<AtomicU64>,
    latency_counts: Vec<AtomicU64>,
    retries: AtomicU64,
}

impl PoolObs {
    fn new(workers: usize) -> Self {
        PoolObs {
            tasks: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            task_nanos: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            latency_counts: (0..=LATENCY_BUCKETS.len())
                .map(|_| AtomicU64::new(0))
                .collect(),
            retries: AtomicU64::new(0),
        }
    }

    fn record_attempt(&self, worker: usize, nanos: u64) {
        self.task_nanos[worker].fetch_add(nanos, Ordering::Relaxed);
        let secs = nanos as f64 * 1e-9;
        let b = LATENCY_BUCKETS
            .iter()
            .position(|&edge| secs <= edge)
            .unwrap_or(LATENCY_BUCKETS.len());
        self.latency_counts[b].fetch_add(1, Ordering::Relaxed);
    }
}

/// Handle to a running pool. Results arrive over a bounded channel as
/// `(index, Result)` in completion order; [`InOrder`] turns that into the
/// index-ordered stream. Once every task has reported, the workers exit and
/// [`Pool::recv`] errs. Dropping the pool shuts it down promptly: workers
/// stop claiming tasks, abandon retry loops, and are joined.
pub struct Pool<R> {
    /// `Some` while running; taken in `Drop` so blocked producers see a
    /// disconnected channel and exit instead of deadlocking the join.
    rx: Option<Receiver<(usize, Result<R, TaskError>)>>,
    handles: Vec<JoinHandle<()>>,
    shared: Arc<Shared>,
    total: usize,
}

impl<R: Send + 'static> Pool<R> {
    /// Spawn `cfg.workers` threads executing `exec` over every task in
    /// `tasks` exactly once (bar panic retries), claimed in ascending
    /// index order. `init` builds one worker-local scratch state per
    /// worker, rebuilt after a panic (the panic may have poisoned it).
    /// `exec` receives `(state, index, &task, attempt)` and must derive any
    /// randomness from the task alone, the same on every attempt, for the
    /// determinism contract to hold.
    pub fn spawn<T, S, I, E>(cfg: &RuntimeConfig, tasks: Vec<T>, init: I, exec: E) -> Pool<R>
    where
        T: Send + Sync + 'static,
        I: Fn() -> S + Send + Sync + 'static,
        E: Fn(&mut S, usize, &T, u32) -> R + Send + Sync + 'static,
    {
        let workers = cfg.workers.max(1);
        let total = tasks.len();
        let shared = Arc::new(Shared {
            cursor: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            obs: PoolObs::new(workers),
        });
        let (tx, rx) = sync_channel(cfg.queue_capacity.max(1));
        let tasks = Arc::new(tasks);
        let init = Arc::new(init);
        let exec = Arc::new(exec);
        let handles = (0..workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                let tasks = Arc::clone(&tasks);
                let init = Arc::clone(&init);
                let exec = Arc::clone(&exec);
                let tx = tx.clone();
                let chaos = cfg.chaos.map(|p| ChaosRng::new(p, w as u64));
                let max_retries = cfg.max_retries;
                std::thread::spawn(move || {
                    worker_loop(w, &shared, &tasks, &*init, &*exec, &tx, chaos, max_retries)
                })
            })
            .collect();
        drop(tx);
        Pool {
            rx: Some(rx),
            handles,
            shared,
            total,
        }
    }
}

impl<R> Pool<R> {
    /// Number of tasks this pool will produce results for.
    pub(crate) fn total(&self) -> usize {
        self.total
    }

    /// Block for the next completed result. Errs once every worker has
    /// exited — all tasks reported, or the workers died — and the buffer
    /// is drained.
    pub fn recv(&self) -> Result<(usize, Result<R, TaskError>), RecvError> {
        self.rx.as_ref().expect("pool running").recv()
    }

    /// Snapshot the execution counters (callable mid-run; individually
    /// consistent, momentarily stale).
    pub fn obs_report(&self) -> RuntimeObsReport {
        let o = &self.shared.obs;
        let load = |v: &Vec<AtomicU64>| -> Vec<u64> {
            v.iter().map(|a| a.load(Ordering::Relaxed)).collect()
        };
        let worker_task_nanos = load(&o.task_nanos);
        let latency_counts = load(&o.latency_counts);
        let total_secs = worker_task_nanos.iter().sum::<u64>() as f64 * 1e-9;
        RuntimeObsReport {
            worker_tasks: load(&o.tasks),
            worker_task_nanos,
            task_seconds: Histogram::from_parts(&LATENCY_BUCKETS, &latency_counts, total_secs),
            retries: o.retries.load(Ordering::Relaxed),
        }
    }
}

impl<R> Drop for Pool<R> {
    fn drop(&mut self) {
        // Raise the flag (workers stop claiming and bail out of retry
        // loops), disconnect the channel so producers blocked in `send`
        // error out, then join. In that order: joining first would wait on
        // a producer blocked on a full queue nobody drains.
        self.shared.shutdown.store(true, Ordering::Relaxed);
        drop(self.rx.take());
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn worker_loop<T, S, R>(
    w: usize,
    shared: &Shared,
    tasks: &[T],
    init: &(impl Fn() -> S + Sync),
    exec: &(impl Fn(&mut S, usize, &T, u32) -> R + Sync),
    tx: &SyncSender<(usize, Result<R, TaskError>)>,
    mut chaos: Option<ChaosRng>,
    max_retries: u32,
) {
    let stopping = || shared.shutdown.load(Ordering::Relaxed);
    let mut state = init();
    while !stopping() {
        if let Some(c) = chaos.as_mut() {
            std::thread::sleep(c.pause());
        }
        let i = shared.cursor.fetch_add(1, Ordering::Relaxed);
        if i >= tasks.len() {
            return;
        }
        let mut produced = None;
        let mut attempts = 0;
        while attempts <= max_retries {
            if stopping() {
                return; // consumer gone mid-retry-loop
            }
            attempts += 1;
            let t0 = std::time::Instant::now();
            let out = catch_unwind(AssertUnwindSafe(|| {
                exec(&mut state, i, &tasks[i], attempts - 1)
            }));
            shared.obs.record_attempt(w, t0.elapsed().as_nanos() as u64);
            match out {
                Ok(r) => {
                    shared.obs.tasks[w].fetch_add(1, Ordering::Relaxed);
                    produced = Some(r);
                    break;
                }
                Err(_) => {
                    shared.obs.retries.fetch_add(1, Ordering::Relaxed);
                    // The panic may have left the scratch state
                    // inconsistent; rebuild it.
                    state = init();
                }
            }
        }
        let msg = produced.ok_or(TaskError::Panicked { index: i, attempts });
        if tx.send((i, msg)).is_err() {
            return; // consumer dropped
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;
    use std::time::Duration;

    /// The pool's results in index order, and what its flush reports:
    /// panic retries, timed attempts and queue-depth observations.
    fn drain<R: Send + 'static>(pool: Pool<R>) -> (Vec<Result<R, TaskError>>, [u64; 3]) {
        let mut stream: InOrder<R> = InOrder::new(pool);
        let out = stream.by_ref().collect();
        let mut m = crate::obs::Metrics::new();
        stream.flush_obs(&mut m);
        let count = |name: &str| m.histogram(name).unwrap().count();
        let retries = m.counter("sampler.resample_retries").unwrap();
        (
            out,
            [
                retries,
                count("sampler.task_seconds"),
                count("sampler.queue_depth"),
            ],
        )
    }

    /// A drained pool ends its stream: every index arrives exactly once,
    /// then the workers are gone and `recv` errs instead of blocking —
    /// also when workers outnumber tasks (the surplus exit untouched) and
    /// when there are no tasks at all.
    #[test]
    fn every_index_arrives_exactly_once_and_then_the_channel_disconnects() {
        for workers in [1, 2, 8] {
            for total in [0usize, 1, 37] {
                let cfg = RuntimeConfig {
                    workers,
                    queue_capacity: 4,
                    ..RuntimeConfig::default()
                };
                let tasks: Vec<u64> = (0..total as u64).collect();
                let pool = Pool::spawn(&cfg, tasks, || (), |_, i, t, _| t + i as u64);
                assert_eq!(pool.total(), total);
                let mut seen = vec![0u32; total];
                while let Ok((i, r)) = pool.recv() {
                    assert_eq!(r.unwrap(), 2 * i as u64);
                    seen[i] += 1;
                }
                assert!(seen.iter().all(|&n| n == 1), "{workers}w {total}t");
                assert!(pool.recv().is_err(), "the stream stays ended");
                let obs = pool.obs_report();
                assert_eq!(obs.worker_tasks.len(), workers);
                assert_eq!(obs.worker_tasks.iter().sum::<u64>(), total as u64);
                assert_eq!(obs.task_seconds.count(), total as u64);
            }
        }
    }

    #[test]
    fn transient_panic_is_retried_on_rebuilt_state() {
        let hits = Arc::new(AtomicU32::new(0));
        let h2 = Arc::clone(&hits);
        let inits = Arc::new(AtomicU32::new(0));
        let i2 = Arc::clone(&inits);
        let cfg = RuntimeConfig {
            workers: 2,
            max_retries: 2,
            ..RuntimeConfig::default()
        };
        let pool = Pool::spawn(
            &cfg,
            vec![(); 6],
            move || i2.fetch_add(1, Ordering::Relaxed),
            move |_, i, _, attempt| {
                if i == 3 && attempt == 0 {
                    h2.fetch_add(1, Ordering::Relaxed);
                    panic!("transient");
                }
                i
            },
        );
        let (got, obs) = drain(pool);
        assert_eq!(got.len(), 6);
        assert!(got.iter().enumerate().all(|(i, r)| *r == Ok(i)));
        assert_eq!(hits.load(Ordering::Relaxed), 1);
        // One retry; the panicked attempt is timed too; one depth
        // observation per release.
        assert_eq!(obs, [1, 7, 6]);
        assert!(
            inits.load(Ordering::Relaxed) >= 3,
            "panic rebuilds the worker state beyond the 2 spawn-time inits"
        );
    }

    #[test]
    fn persistent_panic_reports_the_failing_index() {
        let cfg = RuntimeConfig {
            workers: 2,
            max_retries: 1,
            ..RuntimeConfig::default()
        };
        let pool = Pool::spawn(
            &cfg,
            vec![(); 5],
            || (),
            |_, i, _, _| {
                if i == 3 {
                    panic!("persistent");
                }
                i
            },
        );
        let (got, _) = drain(pool);
        assert_eq!(
            got[3],
            Err(TaskError::Panicked {
                index: 3,
                attempts: 2
            })
        );
        assert_eq!(got.iter().filter(|r| r.is_ok()).count(), 4);
    }

    #[test]
    fn drop_mid_run_joins_promptly_and_leaks_no_tasks() {
        let executed = Arc::new(AtomicUsize::new(0));
        let e2 = Arc::clone(&executed);
        let cfg = RuntimeConfig {
            workers: 2,
            queue_capacity: 1,
            ..RuntimeConfig::default()
        };
        let pool = Pool::spawn(
            &cfg,
            vec![(); 100],
            || (),
            move |_, i, _, _| {
                e2.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(2));
                i
            },
        );
        let _ = pool.recv().unwrap();
        let t0 = std::time::Instant::now();
        drop(pool); // workers blocked in send/sleep must exit promptly
        assert!(t0.elapsed() < Duration::from_secs(2));
        let after = executed.load(Ordering::Relaxed);
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(
            executed.load(Ordering::Relaxed),
            after,
            "no worker survived the drop"
        );
        assert!(after < 100, "drop preempted the run");
    }

    /// The shutdown flag is checked between attempts: a drop never waits
    /// out a retry budget.
    #[test]
    fn drop_cuts_retry_loops_short() {
        let cfg = RuntimeConfig {
            workers: 2,
            queue_capacity: 2,
            max_retries: 1000, // ~5 s per task if the loop ran to the end
            ..RuntimeConfig::default()
        };
        let pool = Pool::spawn(
            &cfg,
            vec![(); 20],
            || (),
            |_, i, _, _| {
                if i >= 2 {
                    std::thread::sleep(Duration::from_millis(5));
                    panic!("persistent fault with a slow attempt");
                }
                i
            },
        );
        let _ = pool.recv().unwrap();
        let t0 = std::time::Instant::now();
        drop(pool);
        assert!(t0.elapsed() < Duration::from_secs(2), "{:?}", t0.elapsed());
    }

    #[test]
    fn chaos_scrambles_the_schedule_but_not_the_results() {
        let cfg = RuntimeConfig {
            workers: 4,
            queue_capacity: 4,
            chaos: Some(ChaosPolicy::aggressive(7)),
            ..RuntimeConfig::default()
        };
        let pool = Pool::spawn(&cfg, (0..25u64).collect(), || (), |_, _, t, _| t * 3);
        let (got, _) = drain(pool);
        assert_eq!(got.len(), 25);
        for (i, r) in got.into_iter().enumerate() {
            assert_eq!(r.unwrap(), 3 * i as u64);
        }
    }
}
