//! Chaos suite for the self-healing runtime: interconnect fault storms
//! trip the circuit breaker and the epoch completes in degraded mode;
//! injected numeric divergence triggers rollback-to-baseline and the
//! recovered run matches fault-free training bit for bit; and the whole
//! reaction — supervisor transition log, JSONL export, Exact metric
//! stream — is byte-identical across same-seed reruns.

mod common;

use freshgnn_repro::core::hetero_trainer::HeteroTrainer;
use freshgnn_repro::core::obs::export::metrics_jsonl;
use freshgnn_repro::core::resilience::{HealthState, Supervisor, SupervisorConfig};
use freshgnn_repro::core::runtime::ChaosPolicy;
use freshgnn_repro::core::sampler::FaultHook;
use freshgnn_repro::core::{FreshGnnConfig, Trainer};
use freshgnn_repro::graph::datasets::arxiv_spec;
use freshgnn_repro::graph::hetero::mag_hetero;
use freshgnn_repro::graph::Dataset;
use freshgnn_repro::memsim::fault::{BreakerPolicy, BreakerState, FaultPlan, RetryPolicy};
use freshgnn_repro::memsim::presets::Machine;
use freshgnn_repro::nn::model::Arch;
use freshgnn_repro::nn::Adam;

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

/// A fault storm (every transfer attempt fails) trips the breaker open
/// within the configured threshold; the epoch still completes — every
/// batch runs, in degraded mode past the trip point — and the supervisor
/// parks in `Degraded` instead of advancing the baseline.
#[test]
fn breaker_trips_and_the_epoch_completes_degraded() {
    let ds = tiny();
    let expected_batches = ds.train_nodes.len().div_ceil(cfg().batch_size);

    // Fault-free loss for the tolerance check.
    let mut clean = new_trainer(&ds, 77);
    let mut opt_clean = Adam::new(0.01);
    let clean_loss = clean.train_epoch(&ds, &mut opt_clean).mean_loss;

    let mut t = new_trainer(&ds, 77);
    t.inject_faults(
        FaultPlan::new(3).with_fail_prob(1.0),
        RetryPolicy {
            max_retries: 1,
            ..Default::default()
        },
    );
    t.enable_breaker(BreakerPolicy {
        failure_threshold: 2,
        cooldown: 10_000, // stays open for the whole tiny epoch
    });
    let mut opt = Adam::new(0.01);
    let mut sup = Supervisor::default();
    let stats = t
        .train_epoch_resilient(&ds, &mut opt, &mut sup)
        .expect("degraded mode must complete the epoch");

    assert_eq!(stats.batches, expected_batches, "no batch lost to faults");
    assert!(stats.degraded_batches > 0, "breaker never opened");
    assert_eq!(t.breaker_state(), Some(BreakerState::Open));
    let (trips, fast_fails) = t.breaker_stats().expect("breaker armed");
    assert!(trips >= 1, "no trip recorded");
    assert!(fast_fails > 0, "open breaker must fast-fail transfers");
    assert_eq!(sup.state(), HealthState::Degraded);
    assert_eq!(sup.transitions().len(), 1);
    assert_eq!(sup.transitions()[0].cause, "breaker-open");
    // Degraded mode bypasses the ring cache (raw-feature loads), so the
    // loss may differ from the cached run — but only within the staleness
    // approximation, never wildly.
    assert!(stats.mean_loss.is_finite());
    assert!(
        (stats.mean_loss - clean_loss).abs() < 0.5 * clean_loss.max(1.0),
        "degraded loss {} too far from fault-free {}",
        stats.mean_loss,
        clean_loss
    );
}

/// An injected NaN mid-epoch-2 rolls back to the end-of-epoch-1 baseline
/// and replays; because the divergence is transient, the recovered model
/// is **bitwise identical** to an undisturbed run — the strongest form of
/// the "loss within tolerance of fault-free" acceptance bound.
#[test]
fn nan_rollback_recovers_bitwise_identical_parameters() {
    let ds = tiny();

    let mut clean = new_trainer(&ds, 41);
    let mut opt_clean = Adam::new(0.01);
    clean.train_epoch(&ds, &mut opt_clean);
    let clean_stats = clean.train_epoch(&ds, &mut opt_clean);

    let mut t = new_trainer(&ds, 41);
    let mut opt = Adam::new(0.01);
    let mut sup = Supervisor::default();
    t.train_epoch_resilient(&ds, &mut opt, &mut sup)
        .expect("clean epoch");
    assert_eq!(sup.state(), HealthState::Healthy);

    t.inject_nan_at([t.iterations() + 2]);
    let recovered = t
        .train_epoch_resilient(&ds, &mut opt, &mut sup)
        .expect("rollback must absorb a transient NaN");

    assert_eq!(sup.rollbacks(), 1);
    let arcs: Vec<(HealthState, HealthState)> = sup
        .transitions()
        .iter()
        .map(|tr| (tr.from, tr.to))
        .collect();
    assert_eq!(
        arcs,
        vec![
            (HealthState::Healthy, HealthState::Degraded),
            (HealthState::Degraded, HealthState::Recovering),
            (HealthState::Recovering, HealthState::Healthy),
        ]
    );
    assert!(sup.transitions()[0].cause.starts_with("non-finite-loss@"));
    assert_eq!(recovered.batches, clean_stats.batches);
    assert_eq!(
        recovered.mean_loss, clean_stats.mean_loss,
        "replayed epoch must match fault-free exactly"
    );
    assert_eq!(
        t.model.export_parameters(),
        clean.model.export_parameters(),
        "recovered parameters must be bitwise identical to fault-free"
    );
    assert_eq!(t.epochs(), 2, "rollback must not inflate the epoch count");
}

/// Hetero trainer under combined chaos — a lossy fabric with the breaker
/// armed AND an injected NaN — completes via rollback, and because the
/// breaker is still open after the replay the supervisor lands in
/// `Degraded`, not `Healthy`.
#[test]
fn hetero_combined_chaos_rolls_back_then_stays_degraded() {
    let ds = mag_hetero(400, 4, 8, 3);
    let cfg = FreshGnnConfig {
        p_grad: 0.9,
        t_stale: 50,
        fanouts: vec![3, 3],
        // 40 hetero train nodes / 8 = 5 batches: the breaker (threshold 2)
        // trips inside the epoch and later batches observe it open.
        batch_size: 8,
        ..Default::default()
    };
    let mut t = HeteroTrainer::new(&ds, 16, Machine::single_a100(), cfg, 11);
    t.inject_faults(
        FaultPlan::new(5).with_fail_prob(1.0),
        RetryPolicy {
            max_retries: 1,
            ..Default::default()
        },
    );
    t.enable_breaker(BreakerPolicy {
        failure_threshold: 2,
        cooldown: 10_000,
    });
    let mut opt = Adam::new(0.01);
    let mut sup = Supervisor::default();
    let first = t
        .train_epoch_resilient(&ds, &mut opt, &mut sup)
        .expect("degraded hetero epoch completes");
    assert!(first.degraded_batches > 0);
    assert_eq!(sup.state(), HealthState::Degraded);

    t.inject_nan_at([t.iterations() + 1]);
    let second = t
        .train_epoch_resilient(&ds, &mut opt, &mut sup)
        .expect("rollback under an open breaker");
    assert_eq!(sup.rollbacks(), 1);
    assert_eq!(sup.state(), HealthState::Degraded, "breaker still open");
    assert_eq!(second.batches, first.batches);
    assert!(second.mean_loss.is_finite());
    // Degraded epochs never advance the baseline, so the rollback rewound
    // across epoch 1 too: the replay lands back on epoch 1, not 2. Lost
    // progress is the documented price of a divergence while degraded.
    assert_eq!(t.epochs(), 1);
    assert!(sup.has_baseline());
}

/// The full chaos reaction is deterministic: for a matrix of seeded
/// scenarios (fault probability × breaker × NaN injection), two reruns
/// with the same derived seed produce byte-identical supervisor
/// transition logs, JSONL transition exports, and Exact-class metric
/// streams.
#[test]
fn chaos_reaction_is_byte_identical_across_reruns() {
    let ds = tiny();
    common::for_cases("chaos_reaction_is_byte_identical_across_reruns", |rng| {
        let seed = rng.next_u64();
        let fail_prob = [0.0, 0.05, 0.3][rng.below(3)];
        let with_breaker = rng.bernoulli(0.5);
        let with_nan = rng.bernoulli(0.5);

        let run = || {
            let mut t = new_trainer(&ds, seed);
            if fail_prob > 0.0 {
                t.inject_faults(
                    FaultPlan::new(seed ^ 0xFA_17).with_fail_prob(fail_prob),
                    RetryPolicy {
                        max_retries: 2,
                        ..Default::default()
                    },
                );
            }
            if with_breaker {
                t.enable_breaker(BreakerPolicy::default());
            }
            let mut opt = Adam::new(0.01);
            let mut sup = Supervisor::new(SupervisorConfig { max_rollbacks: 8 });
            let mut outcome = String::new();
            for epoch in 0..2 {
                if epoch == 1 && with_nan {
                    t.inject_nan_at([t.iterations() + 1]);
                }
                match t.train_epoch_resilient(&ds, &mut opt, &mut sup) {
                    Ok(s) => {
                        outcome.push_str(&format!("ok:{}:{:x};", s.batches, s.mean_loss.to_bits()))
                    }
                    Err(e) => outcome.push_str(&format!("err:{e};")),
                }
            }
            (
                outcome,
                sup.transition_log(),
                sup.transitions_jsonl("chaos"),
                metrics_jsonl("chaos", &t.obs.metrics, false), // Exact only
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a.0, b.0, "training outcome diverged across reruns");
        assert_eq!(a.1, b.1, "transition log diverged across reruns");
        assert_eq!(a.2, b.2, "transition JSONL diverged across reruns");
        assert_eq!(a.3, b.3, "Exact metric stream diverged across reruns");
        if with_nan {
            assert!(
                a.1.contains("non-finite-loss@"),
                "NaN scenario must show in the transition log:\n{}",
                a.1
            );
            assert!(a.2.contains("fgnn-obs-v1"), "export must be schema-tagged");
        }
    });
}

/// Every recovery mechanism at once, on the overlapped epoch: a panicking
/// sampler fault hook (worker recovery), an interconnect fault storm with
/// the circuit breaker armed (degraded mode), and seeded adversarial
/// scheduling — at workers {2, 4, 8}. The committed-stream quantities
/// (loss bits, H2D traffic, cache stats, degraded-batch count, breaker
/// trips) and the sampler's own `Exact` counters (`sampler.batches`,
/// `sampler.resample_retries`) must match a 1-worker, chaos-free reference
/// exactly: every batch index is claimed once and retried on the worker
/// that claimed it, so nothing here — neither in-order release nor t_stale
/// admission nor the retry count — is allowed to depend on the schedule.
#[test]
fn combined_chaos_and_breaker_match_the_single_worker_reference() {
    let ds = tiny();
    common::for_cases(
        "combined_chaos_and_breaker_match_the_single_worker_reference",
        |rng| {
            let seed = rng.next_u64();
            let fail_prob = [0.05, 0.3, 1.0][rng.below(3)];
            let workers = [2, 4, 8][rng.below(3)];
            let chaos = ChaosPolicy::aggressive(rng.next_u64());
            // Panics on the first attempt of every third batch: recovery
            // is exercised on a fixed, schedule-independent set of tasks.
            let hook: FaultHook = std::sync::Arc::new(|i: usize, attempt: u32| {
                if attempt == 0 && i.is_multiple_of(3) {
                    panic!("injected worker fault on batch {i}");
                }
            });

            let run = |workers: usize, chaos: Option<ChaosPolicy>| {
                let mut t = new_trainer(&ds, seed);
                t.set_sampler_fault_hook(Some(hook.clone()));
                t.set_sampler_chaos(chaos);
                t.inject_faults(
                    FaultPlan::new(seed ^ 0xC4A5).with_fail_prob(fail_prob),
                    RetryPolicy {
                        max_retries: 1,
                        ..Default::default()
                    },
                );
                t.enable_breaker(BreakerPolicy {
                    failure_threshold: 2,
                    cooldown: 10_000,
                });
                let mut opt = Adam::new(0.01);
                let stats = t
                    .train_epoch_async(&ds, &mut opt, workers, 4)
                    .expect("retries must absorb the injected panics");
                (
                    stats.mean_loss.to_bits(),
                    stats.batches,
                    stats.degraded_batches,
                    stats.counters.host_to_gpu_bytes,
                    t.cache.stats(),
                    t.breaker_stats(),
                    t.breaker_state(),
                    t.obs.metrics.counter("sampler.batches"),
                    t.obs.metrics.counter("sampler.resample_retries"),
                )
            };

            let reference = run(1, None);
            assert_eq!(reference.7, Some(reference.1 as u64));
            let subject = run(workers, Some(chaos));
            assert_eq!(
                subject, reference,
                "committed-stream outcome diverged from the 1-worker \
                 reference (workers {workers}, fail_prob {fail_prob})"
            );
        },
    );
}
