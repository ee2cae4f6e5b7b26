//! Asynchronous CPU graph sampling (§5) with worker fault recovery.
//!
//! The paper decouples *sampling* (cache-independent, runs ahead on CPU
//! threads) from *pruning* (cache-dependent, on GPU). This module is the
//! sampling half on a homogeneous graph: worker threads of a
//! [`crate::runtime::Pool`] produce un-pruned mini-batches into a **bounded
//! task queue** ("to control the production of subgraphs and avoid
//! overflowing the limited GPU memory"), using multithreading rather than
//! DGL/PyG-style multiprocessing, and [`AsyncSampler`] hands them to the
//! consumer in batch order.
//!
//! Determinism: each mini-batch is sampled with an RNG seeded by
//! `(seed, batch_index)` ([`task_rng`]), and the consumer reorders
//! completions by batch index, so the produced stream is identical
//! regardless of thread count or scheduling — and regardless of how many
//! times a batch had to be re-sampled after a panic, since every attempt
//! recreates the same RNG.
//!
//! Fault model: a panic inside a worker is caught with `catch_unwind`; the
//! batch is re-sampled up to `max_retries` additional times on a fresh
//! sampler (panic may have poisoned its scratch state). If every attempt
//! panics, an explicit [`SampleError::BatchPanicked`] is delivered *for
//! that batch index* instead of silently truncating the epoch. If workers
//! die without reporting, the consumer yields [`SampleError::WorkersLost`]
//! rather than ending the iterator early, so a shortfall is always an
//! error, never a quietly short epoch.

use crate::runtime::{task_rng, InOrder, Pool, RuntimeConfig, TaskError};
use fgnn_graph::block::MiniBatch;
use fgnn_graph::sample::NeighborSampler;
use fgnn_graph::{Csr, NodeId};
use std::sync::Arc;

/// Default number of *re*-sample attempts after a worker panic.
pub const DEFAULT_SAMPLER_RETRIES: u32 = 2;

/// Why an epoch's batch stream could not be fully produced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SampleError {
    /// Sampling batch `batch_index` panicked on every one of `attempts`
    /// attempts.
    BatchPanicked {
        /// Index of the failing batch in the epoch schedule.
        batch_index: usize,
        /// Total attempts made (1 + retries).
        attempts: u32,
    },
    /// All workers disappeared after producing only `produced` of `total`
    /// batches.
    WorkersLost {
        /// Batches delivered in order before the loss.
        produced: usize,
        /// Batches the epoch schedule demanded.
        total: usize,
    },
}

impl std::fmt::Display for SampleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SampleError::BatchPanicked {
                batch_index,
                attempts,
            } => write!(
                f,
                "sampling batch {batch_index} panicked on all {attempts} attempts"
            ),
            SampleError::WorkersLost { produced, total } => {
                write!(f, "sampler workers died after {produced}/{total} batches")
            }
        }
    }
}

impl std::error::Error for SampleError {}

impl From<TaskError> for SampleError {
    fn from(e: TaskError) -> Self {
        match e {
            TaskError::Panicked { index, attempts } => SampleError::BatchPanicked {
                batch_index: index,
                attempts,
            },
            TaskError::Lost { produced, total } => SampleError::WorkersLost { produced, total },
        }
    }
}

/// Test/fault-injection hook: called as `(batch_index, attempt)` before
/// each sampling attempt, *inside* the panic guard — a panicking hook
/// exercises the recovery path deterministically.
pub type FaultHook = Arc<dyn Fn(usize, u32) + Send + Sync>;

/// Handle to a running asynchronous sampling job: the in-order stream over
/// a pool whose task `i` samples batch `i`. Iterate to drain the
/// mini-batches in order; each item is a `Result` so batch-level failures
/// surface instead of shortening the epoch. Dropping the handle shuts the
/// pool down promptly (workers stop claiming batches and bail out of retry
/// loops).
pub type AsyncSampler = InOrder<MiniBatch, SampleError>;

impl AsyncSampler {
    /// Spawn `num_threads` workers sampling `batches` over `graph`, with
    /// the default panic-retry budget and no fault hook.
    ///
    /// `queue_capacity` bounds the number of finished mini-batches waiting
    /// to be consumed (the paper's GPU-memory guard).
    pub fn spawn(
        graph: Arc<Csr>,
        batches: Vec<Vec<NodeId>>,
        fanouts: Vec<usize>,
        num_threads: usize,
        queue_capacity: usize,
        seed: u64,
    ) -> AsyncSampler {
        Self::spawn_with_recovery(
            graph,
            batches,
            fanouts,
            num_threads,
            queue_capacity,
            seed,
            DEFAULT_SAMPLER_RETRIES,
            None,
        )
    }

    /// [`AsyncSampler::spawn`] with an explicit panic-retry budget and an
    /// optional fault-injection hook (see [`FaultHook`]).
    #[allow(clippy::too_many_arguments)]
    pub fn spawn_with_recovery(
        graph: Arc<Csr>,
        batches: Vec<Vec<NodeId>>,
        fanouts: Vec<usize>,
        num_threads: usize,
        queue_capacity: usize,
        seed: u64,
        max_retries: u32,
        hook: Option<FaultHook>,
    ) -> AsyncSampler {
        let cfg = RuntimeConfig {
            workers: num_threads,
            queue_capacity,
            max_retries,
            ..RuntimeConfig::default()
        };
        Self::spawn_with_config(graph, batches, fanouts, &cfg, seed, hook)
    }

    /// [`AsyncSampler::spawn_with_recovery`] with a full
    /// [`RuntimeConfig`], including the seeded adversarial-scheduling
    /// knob ([`crate::runtime::ChaosPolicy`]) the fuzzing suite drives.
    /// Chaos perturbs *which worker samples which batch when*; the
    /// committed stream is invariant to it.
    pub fn spawn_with_config(
        graph: Arc<Csr>,
        batches: Vec<Vec<NodeId>>,
        fanouts: Vec<usize>,
        cfg: &RuntimeConfig,
        seed: u64,
        hook: Option<FaultHook>,
    ) -> AsyncSampler {
        let num_nodes = graph.num_nodes();
        InOrder::new(Pool::spawn(
            cfg,
            batches,
            move || NeighborSampler::new(num_nodes),
            move |sampler: &mut NeighborSampler, i, seeds: &Vec<NodeId>, attempt| {
                if let Some(h) = &hook {
                    h(i, attempt);
                }
                sampler.sample(&graph, seeds, &fanouts, &mut task_rng(seed, i))
            },
        ))
    }
}

/// Synchronous epoch sampling (single thread) — the DGL-style baseline for
/// Fig 14(a), and the reference stream [`AsyncSampler`] must reproduce.
pub fn sample_epoch_sync(
    graph: &Csr,
    batches: &[Vec<NodeId>],
    fanouts: &[usize],
    seed: u64,
) -> Vec<MiniBatch> {
    let mut sampler = NeighborSampler::new(graph.num_nodes());
    batches
        .iter()
        .enumerate()
        .map(|(i, b)| sampler.sample(graph, b, fanouts, &mut task_rng(seed, i)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgnn_graph::generate::{generate, GraphConfig};
    use fgnn_graph::sample::split_batches;
    use fgnn_tensor::Rng;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::time::Duration;

    fn test_graph() -> Arc<Csr> {
        let cfg = GraphConfig {
            num_nodes: 500,
            avg_degree: 8.0,
            ..Default::default()
        };
        Arc::new(generate(&cfg, &mut Rng::new(1)).graph)
    }

    fn batches(n: usize, size: usize) -> Vec<Vec<NodeId>> {
        let nodes: Vec<NodeId> = (0..n as NodeId).collect();
        split_batches(&nodes, size, None)
    }

    fn collect_ok(s: AsyncSampler) -> Vec<MiniBatch> {
        s.map(|r| r.expect("no sampling faults expected")).collect()
    }

    #[test]
    fn async_sampler_yields_all_batches_in_order() {
        let g = test_graph();
        let bs = batches(100, 10);
        let sampler = AsyncSampler::spawn(Arc::clone(&g), bs.clone(), vec![4, 4], 4, 4, 7);
        let out = collect_ok(sampler);
        assert_eq!(out.len(), 10);
        for (mb, b) in out.iter().zip(&bs) {
            assert_eq!(&mb.seeds, b);
            mb.validate().unwrap();
        }
    }

    #[test]
    fn async_output_matches_sync_regardless_of_threads() {
        let g = test_graph();
        let bs = batches(60, 7);
        let sync = sample_epoch_sync(&g, &bs, &[3, 3], 42);
        for threads in [1, 2, 8] {
            let a = AsyncSampler::spawn(Arc::clone(&g), bs.clone(), vec![3, 3], threads, 2, 42);
            let out = collect_ok(a);
            assert_eq!(out.len(), sync.len());
            for (x, y) in out.iter().zip(&sync) {
                assert_eq!(x.seeds, y.seeds, "threads={threads}");
                assert_eq!(
                    x.blocks[0].src_global, y.blocks[0].src_global,
                    "threads={threads}"
                );
            }
        }
    }

    #[test]
    fn bounded_queue_applies_backpressure_without_deadlock() {
        let g = test_graph();
        let bs = batches(200, 5); // 40 batches
        let sampler = AsyncSampler::spawn(g, bs, vec![4], 8, 1, 3);
        assert_eq!(sampler.total(), 40);
        // Slow consumer: still drains everything.
        let mut n = 0;
        for mb in sampler {
            n += 1;
            assert!(!mb.unwrap().seeds.is_empty());
        }
        assert_eq!(n, 40);
    }

    #[test]
    fn dropping_sampler_early_does_not_hang() {
        let g = test_graph();
        let bs = batches(500, 2); // many batches
        let mut sampler = AsyncSampler::spawn(g, bs, vec![4, 4], 4, 2, 5);
        let _first = sampler.next();
        drop(sampler); // must join cleanly
    }

    /// Regression: a mid-epoch drop must join *promptly* even when a
    /// worker sits in a long retry loop — the shutdown flag is checked
    /// between attempts, so the drop never waits out a retry budget.
    #[test]
    fn drop_mid_epoch_cuts_retry_loops_short() {
        let g = test_graph();
        let bs = batches(40, 2); // 20 batches
        let hook: FaultHook = Arc::new(|batch, _attempt| {
            if batch >= 2 {
                std::thread::sleep(Duration::from_millis(5));
                panic!("persistent fault with a slow attempt");
            }
        });
        let mut sampler = AsyncSampler::spawn_with_recovery(
            Arc::clone(&g),
            bs,
            vec![4],
            2,
            2,
            17,
            1000, // a retry budget that would take ~5 s to burn per batch
            Some(hook),
        );
        assert!(sampler.next().unwrap().is_ok());
        let t0 = std::time::Instant::now();
        drop(sampler);
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "drop took {:?} — workers kept retrying after shutdown",
            t0.elapsed()
        );
    }

    /// A transiently-panicking batch is retried and the epoch completes
    /// with every batch present, identical to the fault-free stream.
    #[test]
    fn transient_panic_is_retried_and_stream_is_unchanged() {
        let g = test_graph();
        let bs = batches(60, 6);
        let clean = sample_epoch_sync(&g, &bs, &[3, 3], 9);
        let hook: FaultHook = Arc::new(|batch, attempt| {
            if batch == 4 && attempt == 0 {
                panic!("injected transient sampler fault");
            }
        });
        let sampler = AsyncSampler::spawn_with_recovery(
            Arc::clone(&g),
            bs,
            vec![3, 3],
            4,
            4,
            9,
            2,
            Some(hook),
        );
        let out: Vec<_> = sampler.collect();
        assert_eq!(out.len(), 10);
        for (r, y) in out.iter().zip(&clean) {
            let mb = r.as_ref().expect("retry must recover the batch");
            assert_eq!(mb.seeds, y.seeds);
            assert_eq!(mb.blocks[0].src_global, y.blocks[0].src_global);
        }
    }

    /// Regression for the silent-truncation bug: a batch that panics on
    /// every attempt must surface an error at its position — the epoch
    /// must NOT look like a clean short epoch.
    #[test]
    fn persistent_panic_surfaces_an_error_not_a_short_epoch() {
        let g = test_graph();
        let bs = batches(50, 5); // 10 batches
        let hook: FaultHook = Arc::new(|batch, _attempt| {
            if batch == 3 {
                panic!("injected persistent sampler fault");
            }
        });
        let sampler =
            AsyncSampler::spawn_with_recovery(Arc::clone(&g), bs, vec![4], 2, 2, 11, 1, Some(hook));
        let out: Vec<_> = sampler.collect();
        assert_eq!(out.len(), 10, "every batch index must be accounted for");
        for (i, r) in out.iter().enumerate() {
            if i == 3 {
                assert_eq!(
                    r.as_ref().unwrap_err(),
                    &SampleError::BatchPanicked {
                        batch_index: 3,
                        attempts: 2
                    }
                );
            } else {
                assert!(r.is_ok(), "batch {i} should succeed");
            }
        }
    }

    /// Retry attempts recreate the same `(seed, batch_index)` RNG, so a
    /// recovered batch is bitwise-identical to a never-failed one.
    #[test]
    fn retried_batch_is_deterministic() {
        let g = test_graph();
        let bs = batches(30, 6);
        let tries = Arc::new(AtomicU32::new(0));
        let t2 = Arc::clone(&tries);
        let hook: FaultHook = Arc::new(move |batch, attempt| {
            if batch == 2 && attempt < 2 {
                t2.fetch_add(1, Ordering::Relaxed);
                panic!("fail twice, then succeed");
            }
        });
        let sampler = AsyncSampler::spawn_with_recovery(
            Arc::clone(&g),
            bs.clone(),
            vec![3],
            1,
            2,
            13,
            3,
            Some(hook),
        );
        let out = collect_ok(sampler);
        assert_eq!(tries.load(Ordering::Relaxed), 2, "hook panicked twice");
        let clean = sample_epoch_sync(&g, &bs, &[3], 13);
        assert_eq!(out[2].seeds, clean[2].seeds);
        assert_eq!(out[2].blocks[0].src_global, clean[2].blocks[0].src_global);
    }

    /// The obs report reconciles: every batch is sampled by exactly one
    /// worker, injected panics show up as retries and extra timed
    /// attempts, and queue depth is observed once per delivery.
    #[test]
    fn obs_report_reconciles_tasks_retries_and_deliveries() {
        let g = test_graph();
        let bs = batches(60, 6); // 10 batches
        let hook: FaultHook = Arc::new(|batch, attempt| {
            if batch == 4 && attempt == 0 {
                panic!("injected transient sampler fault");
            }
        });
        let mut sampler = AsyncSampler::spawn_with_recovery(
            Arc::clone(&g),
            bs,
            vec![3, 3],
            3,
            4,
            9,
            2,
            Some(hook),
        );
        let mut delivered = 0u64;
        for r in sampler.by_ref() {
            r.expect("transient fault must be recovered");
            delivered += 1;
        }
        let mut m = crate::obs::Metrics::new();
        sampler.flush_obs(&mut m);
        assert_eq!(m.counter("sampler.batches"), Some(delivered));
        assert_eq!(m.counter("sampler.resample_retries"), Some(1));
        let per_worker = |what: &str| -> u64 {
            (0..3)
                .map(|w| m.counter(&format!("sampler.worker.{w}.{what}")).unwrap())
                .sum()
        };
        assert_eq!(per_worker("tasks"), 10);
        assert!(per_worker("task_ns") > 0);
        assert_eq!(
            m.histogram("sampler.task_seconds").unwrap().count(),
            11,
            "10 successes + 1 panicked attempt, all timed"
        );
        assert_eq!(m.histogram("sampler.queue_depth").unwrap().count(), 10);
    }
}
