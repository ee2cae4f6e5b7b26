//! Schedule-fuzzing determinism suite for the task pool under overlapped
//! training (DESIGN.md §13), plus its shutdown/drain lock-down.
//!
//! The runtime's contract is *schedule independence*: every task carries
//! its own pre-drawn RNG and results are consumed in index order, so the
//! committed stream, every `Exact`-class metric and
//! the span tree are byte-identical at any worker count and under any
//! completion order — including the seeded adversarial ones
//! [`ChaosPolicy`] injects (delayed claims, worker stalls). The suite
//! drives exactly that matrix:
//!
//! * fuzzed pool sampling versus a single-thread sampling loop;
//! * fuzzed trainer epochs: Exact metric streams and Chrome span trees
//!   across worker counts {0, 1, 2, 4, 8};
//! * [`InOrder`] releases `0..n` under random completion permutations;
//! * prompt mid-epoch `Drop`: workers join, no task left running;
//! * drain: a pool whose workers outnumber its tasks (down to zero tasks)
//!   ends its result stream by itself instead of leaving the consumer
//!   blocked.

mod common;

use freshgnn_repro::core::obs::export::{chrome_trace, metrics_jsonl};
use freshgnn_repro::core::runtime::{ChaosPolicy, InOrder, Pool, RuntimeConfig, TaskError};
use freshgnn_repro::core::{FreshGnnConfig, Trainer};
use freshgnn_repro::graph::block::MiniBatch;
use freshgnn_repro::graph::datasets::arxiv_spec;
use freshgnn_repro::graph::sample::NeighborSampler;
use freshgnn_repro::graph::{Dataset, NodeId};
use freshgnn_repro::memsim::presets::Machine;
use freshgnn_repro::nn::model::Arch;
use freshgnn_repro::nn::Adam;
use freshgnn_repro::tensor::Rng;
use std::sync::atomic::{AtomicI64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn tiny() -> Dataset {
    Dataset::materialize(arxiv_spec(0.0).with_dim(16), 42) // 256 nodes
}

/// FNV-1a over every structural field of a mini-batch: block adjacency,
/// global ID maps and seed nodes. Bitwise stream equality without
/// requiring `PartialEq` on the graph types.
fn fingerprint(mb: &MiniBatch) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u64| {
        h = (h ^ v).wrapping_mul(0x0000_0100_0000_01b3);
    };
    for b in &mb.blocks {
        eat(0xB10C);
        for &n in &b.dst_global {
            eat(n as u64);
        }
        eat(0x5EC);
        for &n in &b.src_global {
            eat(n as u64);
        }
        for row in 0..b.num_dst() {
            eat(0xAD1 ^ row as u64);
            for &n in b.adj.neighbors(row) {
                eat(n as u64);
            }
        }
    }
    eat(0x5EED5);
    for &n in &mb.seeds {
        eat(n as u64);
    }
    h
}

/// A randomized adversarial schedule: every probability knob drawn per
/// case, sleeps kept short so 256-case CI runs stay fast.
fn random_chaos(rng: &mut Rng) -> ChaosPolicy {
    ChaosPolicy {
        seed: rng.next_u64(),
        delay_prob: [0.0, 0.3, 0.8][rng.below(3)],
        stall_prob: [0.0, 0.1][rng.below(2)],
        max_delay_micros: 1 + rng.below(50) as u64,
    }
}

/// Fuzzed schedules against the sync reference: for a matrix of seeded
/// chaos policies × worker counts × queue capacities, a pool sampling
/// batches whose tasks carry pre-drawn RNGs (as the driver's do) commits a
/// stream byte-identical to sampling them one after another on one thread
/// — same order, same contents, down to the fingerprint of every
/// adjacency row.
#[test]
fn fuzzed_schedules_commit_the_sync_batch_stream_byte_identically() {
    let ds = tiny();
    let fanouts = vec![4usize, 4];
    common::for_cases(
        "fuzzed_schedules_commit_the_sync_batch_stream_byte_identically",
        |rng| {
            let mut stream = Rng::new(rng.next_u64());
            let batch_size = [16usize, 32, 48][rng.below(3)];
            let tasks: Vec<(Vec<NodeId>, Rng)> = ds
                .train_nodes
                .chunks(batch_size)
                .map(|c| (c.to_vec(), stream.fork()))
                .collect();
            // The synchronous reference: one sampler, the batches in order.
            let mut sampler = NeighborSampler::new(ds.num_nodes());
            let reference: Vec<u64> = tasks
                .iter()
                .map(|(seeds, r)| {
                    fingerprint(&sampler.sample(&ds.graph, seeds, &fanouts, &mut r.clone()))
                })
                .collect();

            let cfg = RuntimeConfig {
                workers: [2usize, 4, 8][rng.below(3)],
                queue_capacity: 1 + rng.below(4),
                chaos: Some(random_chaos(rng)),
                ..RuntimeConfig::default()
            };
            let (graph, fanouts, n) = (Arc::clone(&ds.graph), fanouts.clone(), ds.num_nodes());
            let pool: Pool<MiniBatch> = Pool::spawn(
                &cfg,
                tasks,
                move || NeighborSampler::new(n),
                move |s: &mut NeighborSampler, _, (seeds, r): &(Vec<NodeId>, Rng), _| {
                    s.sample(&graph, seeds, &fanouts, &mut r.clone())
                },
            );
            let got: Vec<u64> = InOrder::<MiniBatch>::new(pool)
                .map(|r| fingerprint(&r.expect("fault-free sampling")))
                .collect();
            assert_eq!(got, reference, "committed stream diverged from sync");
        },
    );
}

/// Fuzzed trainer epochs: a single-worker chaos-free run is the
/// reference; a multi-worker run under an aggressive random schedule
/// must reproduce its loss bits, traffic ledger, the full Exact-class
/// metric stream and the Chrome span tree byte for byte, and so must the
/// zero-worker (in-line) epoch.
#[test]
fn fuzzed_trainer_epochs_have_identical_exact_streams_and_span_trees() {
    let ds = tiny();
    common::for_cases(
        "fuzzed_trainer_epochs_have_identical_exact_streams_and_span_trees",
        |rng| {
            let seed = rng.next_u64();
            let workers = [2usize, 4, 8][rng.below(3)];
            let chaos = random_chaos(rng);
            let queue = 1 + rng.below(4);

            let run = |workers: usize, chaos: Option<ChaosPolicy>| {
                let cfg = FreshGnnConfig {
                    p_grad: 0.9,
                    t_stale: 50,
                    fanouts: vec![4, 4],
                    batch_size: 32,
                    ..Default::default()
                };
                let mut t = Trainer::new(&ds, Arch::Sage, 16, Machine::single_a100(), cfg, seed);
                t.set_sampler_chaos(chaos);
                let mut opt = Adam::new(0.01);
                let stats = t
                    .train_epoch_async(&ds, &mut opt, workers, queue)
                    .expect("fault-free epoch");
                (
                    stats.mean_loss.to_bits(),
                    t.counters.host_to_gpu_bytes,
                    metrics_jsonl("rt", &t.obs.metrics, false), // Exact only
                    chrome_trace(&[("rt", &t.obs.tracer)]),
                )
            };
            let reference = run(1, None);
            let chaotic = run(workers, Some(chaos));
            assert_eq!(chaotic.0, reference.0, "loss bits diverged");
            assert_eq!(chaotic.1, reference.1, "H2D traffic diverged");
            assert_eq!(chaotic.2, reference.2, "Exact metric stream diverged");
            assert_eq!(chaotic.3, reference.3, "span tree diverged");
            let sync = run(0, None);
            assert_eq!(
                (sync.0, sync.1),
                (reference.0, reference.1),
                "sync diverged"
            );
            assert_eq!(sync.2, reference.2, "sync Exact metric stream diverged");
            assert_eq!(sync.3, reference.3, "sync span tree diverged");
        },
    );
}

/// In-order release under random completion permutations: tasks are made
/// to finish in a seeded random order (each spins until a shared turn
/// counter reaches its rank; one worker per task, so none waits for a
/// thread), and the stream still yields exactly `0..total`, each index
/// with its own payload.
#[test]
fn in_order_stream_commits_0_to_n_under_any_completion_order() {
    common::for_cases(
        "in_order_stream_commits_0_to_n_under_any_completion_order",
        |rng| {
            let total = 1 + rng.below(24);
            // rank[i] = position of task i in the completion order, a
            // random permutation via seeded Fisher-Yates.
            let mut rank: Vec<usize> = (0..total).collect();
            for i in (1..total).rev() {
                rank.swap(i, rng.below(i + 1));
            }
            let cfg = RuntimeConfig {
                workers: total,
                queue_capacity: 1 + rng.below(total),
                ..RuntimeConfig::default()
            };
            let turn = Arc::new(AtomicUsize::new(0));
            let pool: Pool<u64> = Pool::spawn(
                &cfg,
                rank,
                || (),
                move |_, i, &rank, _| {
                    while turn.load(Ordering::SeqCst) != rank {
                        std::thread::yield_now();
                    }
                    turn.fetch_add(1, Ordering::SeqCst);
                    (i as u64) << 8
                },
            );
            let committed: Vec<u64> = InOrder::<u64>::new(pool)
                .map(|r| r.expect("no panics"))
                .collect();
            let expect: Vec<u64> = (0..total as u64).map(|i| i << 8).collect();
            assert_eq!(committed, expect, "released out of order or lost an index");
        },
    );
}

/// Mid-epoch `Drop` is prompt and leak-free: with slow tasks still in
/// flight and most results unconsumed, dropping the pool joins every
/// worker within the timeout and leaves zero tasks running (live
/// execution counter back to zero — a leaked worker would still hold
/// `in_flight > 0` or bump `started` after the drop).
#[test]
fn mid_epoch_drop_joins_all_workers_without_leaking_tasks() {
    let in_flight = Arc::new(AtomicI64::new(0));
    let started = Arc::new(AtomicI64::new(0));
    let cfg = RuntimeConfig {
        workers: 4,
        queue_capacity: 2,
        ..RuntimeConfig::default()
    };
    let pool: Pool<u64> = Pool::spawn(&cfg, (0..64u64).collect(), || (), {
        let in_flight = Arc::clone(&in_flight);
        let started = Arc::clone(&started);
        move |_, i, t, _| {
            started.fetch_add(1, Ordering::SeqCst);
            in_flight.fetch_add(1, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(1));
            in_flight.fetch_sub(1, Ordering::SeqCst);
            t * 2 + i as u64
        }
    });
    // Consume a few results, then abandon the epoch mid-flight.
    for _ in 0..3 {
        pool.recv().expect("pool alive").1.expect("no panics");
    }
    let t0 = Instant::now();
    drop(pool);
    let join_time = t0.elapsed();
    assert!(
        join_time < Duration::from_secs(5),
        "drop took {join_time:?}: workers did not shut down promptly"
    );
    assert_eq!(
        in_flight.load(Ordering::SeqCst),
        0,
        "a task attempt outlived the pool"
    );
    let after = started.load(Ordering::SeqCst);
    std::thread::sleep(Duration::from_millis(10));
    assert_eq!(
        started.load(Ordering::SeqCst),
        after,
        "a worker kept claiming tasks after the drop"
    );
    assert!(after < 64, "shutdown should beat 64 slow tasks");
}

/// Drain lock-down: repeatedly run pools where workers far outnumber
/// tasks, including the zero-task edge. Every worker whose claim passes the
/// end exits, so the result stream ends by itself: draining until `recv`
/// errs terminates and sees each task exactly once. A worker that lingered
/// would hang the drain — the suite finishing is the assertion.
#[test]
fn idle_workers_never_deadlock_when_the_injector_drains() {
    for round in 0..64u64 {
        let cfg = RuntimeConfig {
            workers: 8,
            queue_capacity: 4,
            ..RuntimeConfig::default()
        };
        let tasks = (round % 3) as usize; // 0, 1, 2 tasks for 8 workers
        let pool: Pool<u64> =
            Pool::spawn(&cfg, vec![7u64; tasks], || (), |_, i, t, _| t + i as u64);
        let mut got = 0;
        while let Ok((_, r)) = pool.recv() {
            r.expect("no panics");
            got += 1;
        }
        assert_eq!(got, tasks);
    }
}

/// The surviving-panic path interacts correctly with shutdown: a pool
/// whose every attempt panics reports `Panicked` per task (after the
/// retry budget) rather than hanging, and the error carries the exact
/// attempt count.
#[test]
fn exhausted_retry_budgets_surface_per_task_instead_of_hanging() {
    let cfg = RuntimeConfig {
        workers: 2,
        queue_capacity: 2,
        max_retries: 1,
        ..RuntimeConfig::default()
    };
    let pool: Pool<u64> = Pool::spawn(
        &cfg,
        vec![(); 6],
        || (),
        |_, i, _, _| panic!("injected failure in task {i}"),
    );
    let mut failures = Vec::new();
    for _ in 0..6 {
        let (i, r) = pool.recv().expect("errors still flow");
        match r {
            Err(TaskError::Panicked { index, attempts }) => {
                assert_eq!(index, i);
                assert_eq!(attempts, 2, "1 + max_retries attempts");
                failures.push(index);
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
    }
    failures.sort_unstable();
    assert_eq!(failures, vec![0, 1, 2, 3, 4, 5]);
    assert!(pool.recv().is_err(), "all results delivered");
    assert!(
        pool.obs_report().retries >= 6,
        "every task burned its retry"
    );
}
