//! Fault-injection integration tests: training under interconnect faults
//! and sampler-worker crashes completes, accounts the lost time, and
//! learns exactly what a fault-free run learns (faults cost time, never
//! correctness).

use freshgnn_repro::core::hetero_trainer::HeteroTrainer;
use freshgnn_repro::core::multi_gpu::{profile_system, profile_system_faulted, SystemKind};
use freshgnn_repro::core::runtime::{InOrder, Pool, RuntimeConfig};
use freshgnn_repro::core::sampler::{FaultHook, SampleError, DEFAULT_SAMPLER_RETRIES};
use freshgnn_repro::core::{FreshGnnConfig, Trainer};
use freshgnn_repro::graph::block::MiniBatch;
use freshgnn_repro::graph::datasets::arxiv_spec;
use freshgnn_repro::graph::hetero::mag_hetero;
use freshgnn_repro::graph::sample::{split_batches, NeighborSampler};
use freshgnn_repro::graph::{Dataset, NodeId};
use freshgnn_repro::memsim::fault::{BreakerPolicy, FaultPlan, RetryPolicy};
use freshgnn_repro::memsim::presets::Machine;
use freshgnn_repro::nn::model::Arch;
use freshgnn_repro::nn::Adam;
use freshgnn_repro::tensor::Rng;
use std::sync::Arc;

fn tiny() -> Dataset {
    Dataset::materialize(arxiv_spec(0.0).with_dim(16), 42) // 256 nodes
}

fn cfg() -> FreshGnnConfig {
    FreshGnnConfig {
        p_grad: 0.9,
        t_stale: 50,
        fanouts: vec![4, 4],
        batch_size: 32,
        ..Default::default()
    }
}

fn new_trainer(ds: &Dataset, seed: u64) -> Trainer {
    Trainer::new(ds, Arch::Sage, 16, Machine::single_a100(), cfg(), seed)
}

/// 10% of transfer attempts fail: training completes every epoch, retries
/// and lost time are accounted, the run is slower in simulated time, and
/// the learning trajectory is *identical* to fault-free (the fault model
/// only touches the clock, never the data).
#[test]
fn training_survives_ten_percent_transfer_failures() {
    let ds = tiny();

    let mut clean = new_trainer(&ds, 13);
    let mut opt_clean = Adam::new(0.01);
    let mut clean_losses = Vec::new();
    for _ in 0..3 {
        clean_losses.push(clean.train_epoch(&ds, &mut opt_clean).mean_loss);
    }

    let mut faulty = new_trainer(&ds, 13);
    faulty.inject_faults(
        FaultPlan::new(99).with_fail_prob(0.10),
        RetryPolicy::default(),
    );
    let mut opt_faulty = Adam::new(0.01);
    let mut faulty_losses = Vec::new();
    for _ in 0..3 {
        faulty_losses.push(faulty.train_epoch(&ds, &mut opt_faulty).mean_loss);
    }

    // Completed, with faults visibly accounted.
    assert!(faulty.counters.retries > 0, "no retries recorded");
    assert!(faulty.counters.retry_seconds > 0.0, "no lost time recorded");
    // Compare the deterministic simulated GPU stream, not sim_seconds():
    // the latter takes a max with *measured* sampling wall time, which can
    // mask the (tiny-dataset) retry cost and jitters run to run.
    let clean_gpu = clean.counters.transfer_seconds + clean.counters.retry_seconds;
    let faulty_gpu = faulty.counters.transfer_seconds + faulty.counters.retry_seconds;
    assert!(
        faulty_gpu > clean_gpu,
        "faults must cost simulated time: {faulty_gpu} vs {clean_gpu}"
    );
    // Useful work unchanged: same bytes moved, same transfers issued.
    assert_eq!(
        faulty.counters.host_to_gpu_bytes,
        clean.counters.host_to_gpu_bytes
    );
    assert_eq!(faulty.counters.num_transfers, clean.counters.num_transfers);
    // Loss trajectory within tolerance — in fact exactly equal, since the
    // fault model is time-only.
    for (c, f) in clean_losses.iter().zip(&faulty_losses) {
        assert!((c - f).abs() < 1e-9, "loss diverged: {c} vs {f}");
    }
    assert_eq!(clean_losses, faulty_losses);
}

/// The same fault seed produces the same fault accounting — robustness
/// experiments are reproducible.
#[test]
fn fault_injection_is_deterministic() {
    let ds = tiny();
    let run = || {
        let mut t = new_trainer(&ds, 29);
        t.inject_faults(
            FaultPlan::new(5).with_fail_prob(0.2).with_stalls(0.1, 1e-4),
            RetryPolicy::default(),
        );
        let mut opt = Adam::new(0.01);
        for _ in 0..2 {
            t.train_epoch(&ds, &mut opt);
        }
        (
            t.counters.retries,
            t.counters.failed_transfers,
            t.counters.retry_seconds,
        )
    };
    assert_eq!(run(), run());
}

/// A worker panic on one batch's first attempt: the async epoch still
/// completes with ALL batches, and the parameter stream is identical to an
/// undisturbed run (recovery re-samples with the same per-batch RNG).
#[test]
fn worker_panic_recovers_and_completes_the_epoch() {
    let ds = tiny();
    let expected_batches = ds.train_nodes.len().div_ceil(cfg().batch_size);

    let mut undisturbed = new_trainer(&ds, 17);
    let mut opt_a = Adam::new(0.01);
    let stats_a = undisturbed
        .train_epoch_async(&ds, &mut opt_a, 3, 4)
        .expect("no faults");

    let mut disturbed = new_trainer(&ds, 17);
    // Panic the first attempt of batches 1 and 3; retries succeed.
    let hook: FaultHook = Arc::new(|batch, attempt| {
        if (batch == 1 || batch == 3) && attempt == 0 {
            panic!("injected sampler fault at batch {batch}");
        }
    });
    disturbed.set_sampler_fault_hook(Some(hook));
    let mut opt_b = Adam::new(0.01);
    let stats_b = disturbed
        .train_epoch_async(&ds, &mut opt_b, 3, 4)
        .expect("recovery must absorb transient panics");

    assert_eq!(stats_b.batches, expected_batches, "all batches trained");
    assert_eq!(stats_a.batches, stats_b.batches);
    assert!((stats_a.mean_loss - stats_b.mean_loss).abs() < 1e-12);
    assert_eq!(
        undisturbed.model.export_parameters(),
        disturbed.model.export_parameters(),
        "recovered stream must be bitwise identical"
    );
}

/// A batch that panics on every attempt: the epoch errors out with the
/// failing batch index — never a silent short epoch — and the trainer
/// stays usable for the next (clean) epoch.
#[test]
fn persistent_panic_is_an_error_not_a_short_epoch() {
    let ds = tiny();
    let mut t = new_trainer(&ds, 23);
    let hook: FaultHook = Arc::new(|batch, _attempt| {
        if batch == 2 {
            panic!("injected persistent fault");
        }
    });
    t.set_sampler_fault_hook(Some(hook));
    let mut opt = Adam::new(0.01);
    let err = t
        .train_epoch_async(&ds, &mut opt, 2, 4)
        .expect_err("persistent fault must surface");
    match err {
        SampleError::BatchPanicked {
            batch_index,
            attempts,
        } => {
            assert_eq!(batch_index, 2);
            assert_eq!(attempts, DEFAULT_SAMPLER_RETRIES + 1);
        }
        other => panic!("unexpected error {other:?}"),
    }
    assert_eq!(
        t.iterations(),
        2,
        "batches before the failure trained; none after"
    );
    let epochs_before = t.epochs();

    // Trainer is still usable once the fault clears.
    t.set_sampler_fault_hook(None);
    let stats = t
        .train_epoch_async(&ds, &mut opt, 2, 4)
        .expect("clean epoch after fault");
    assert_eq!(t.epochs(), epochs_before + 1);
    assert!(stats.batches > 0);
}

/// Direct check on a sampling pool of the old silent-truncation bug: when
/// all workers die, the stream must end with WorkersLost, not a quiet
/// `None`.
#[test]
fn dead_workers_surface_as_an_error() {
    let ds = tiny();
    let batches = split_batches(&ds.train_nodes, 16, None);
    let total = batches.len();
    assert!(total > 2);
    // Zero retries + a task that always panics from batch 1 on: every
    // worker eventually dies on an unrecoverable batch.
    let cfg = RuntimeConfig {
        workers: 2,
        queue_capacity: 4,
        max_retries: 0,
        ..RuntimeConfig::default()
    };
    let (graph, n) = (Arc::clone(&ds.graph), ds.num_nodes());
    let pool = Pool::spawn(
        &cfg,
        batches,
        move || NeighborSampler::new(n),
        move |sampler: &mut NeighborSampler, i, seeds: &Vec<NodeId>, _| {
            if i >= 1 {
                panic!("unrecoverable");
            }
            sampler.sample(&graph, seeds, &[4, 4], &mut Rng::new(7))
        },
    );
    let results: Vec<Result<MiniBatch, SampleError>> = InOrder::new(pool).collect();
    assert!(results.len() <= total, "never more items than batches");
    let errors = results.iter().filter(|r| r.is_err()).count();
    assert!(errors > 0, "worker death must produce an error item");
    // Every error is descriptive: either the panicked batch or WorkersLost.
    for r in results.iter().filter(|r| r.is_err()) {
        match r.as_ref().unwrap_err() {
            SampleError::BatchPanicked { attempts, .. } => assert_eq!(*attempts, 1),
            SampleError::WorkersLost { produced, total: t } => {
                assert!(*produced < *t, "WorkersLost implies a shortfall")
            }
        }
    }
}

/// The fault model holds for the hetero trainer too: a lossy fabric costs
/// retries and simulated time but the learning trajectory is identical —
/// faults touch the clock, never the data.
#[test]
fn hetero_training_survives_transfer_failures() {
    let ds = mag_hetero(400, 4, 8, 3);
    let hcfg = FreshGnnConfig {
        p_grad: 0.9,
        t_stale: 50,
        fanouts: vec![3, 3],
        batch_size: 8,
        ..Default::default()
    };

    let mut clean = HeteroTrainer::new(&ds, 16, Machine::single_a100(), hcfg.clone(), 19);
    let mut opt_clean = Adam::new(0.01);
    let mut clean_losses = Vec::new();
    for _ in 0..3 {
        clean_losses.push(clean.train_epoch(&ds, &mut opt_clean).mean_loss);
    }

    // The hetero epoch issues one transfer per batch (15 across the run),
    // so a 10% rate could legitimately draw zero failures; 30% cannot in
    // practice, and the plan RNG makes the draw deterministic anyway.
    let mut faulty = HeteroTrainer::new(&ds, 16, Machine::single_a100(), hcfg, 19);
    faulty.inject_faults(
        FaultPlan::new(77).with_fail_prob(0.30),
        RetryPolicy::default(),
    );
    let mut opt_faulty = Adam::new(0.01);
    let mut faulty_losses = Vec::new();
    for _ in 0..3 {
        faulty_losses.push(faulty.train_epoch(&ds, &mut opt_faulty).mean_loss);
    }

    assert!(faulty.counters.retries > 0, "no retries recorded");
    assert!(faulty.counters.retry_seconds > 0.0, "no lost time recorded");
    assert_eq!(
        faulty.counters.host_to_gpu_bytes, clean.counters.host_to_gpu_bytes,
        "useful work must be unchanged"
    );
    assert_eq!(clean_losses, faulty_losses, "loss trajectory diverged");
}

/// Multi-GPU profiling on a lossy fabric: without a breaker the profile is
/// time-only faulted — retries are accounted and every byte/FLOP figure is
/// exactly the fault-free profile; with the breaker armed under a fault
/// storm, degraded iterations are reported.
#[test]
fn multi_gpu_profile_under_faults_accounts_retries_and_degraded_iters() {
    let ds = tiny();
    let base = cfg();

    let clean = profile_system(&ds, Arch::Sage, 16, &base, SystemKind::FreshGnn, 2, 31);
    assert_eq!(clean.retries, 0);
    assert_eq!(clean.degraded_iters, 0);

    // Lossy fabric, no breaker: time-only — the projection inputs match
    // fault-free bit for bit.
    let faulted = profile_system_faulted(
        &ds,
        Arch::Sage,
        16,
        &base,
        SystemKind::FreshGnn,
        2,
        31,
        Some((
            FaultPlan::new(7).with_fail_prob(0.15),
            RetryPolicy::default(),
        )),
        None,
    );
    assert!(faulted.retries > 0, "retries must be surfaced");
    assert_eq!(faulted.degraded_iters, 0, "no breaker, no degraded mode");
    assert_eq!(
        faulted.bytes_per_iter.to_bits(),
        clean.bytes_per_iter.to_bits()
    );
    assert_eq!(faulted.compute_s.to_bits(), clean.compute_s.to_bits());
    assert_eq!(faulted.param_bytes.to_bits(), clean.param_bytes.to_bits());

    // Fault storm with the breaker armed: the profile reports how many
    // iterations ran degraded (ring cache bypassed).
    let stormy = profile_system_faulted(
        &ds,
        Arch::Sage,
        16,
        &base,
        SystemKind::FreshGnn,
        2,
        31,
        Some((
            FaultPlan::new(7).with_fail_prob(1.0),
            RetryPolicy {
                max_retries: 1,
                ..Default::default()
            },
        )),
        Some(BreakerPolicy {
            failure_threshold: 2,
            cooldown: 10_000,
        }),
    );
    assert!(stormy.degraded_iters > 0, "breaker never opened");
    assert!(stormy.retries > 0);
}
