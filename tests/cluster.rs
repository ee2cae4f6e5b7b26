//! Chaos suite for multi-host partitioned training (DESIGN.md §14).
//!
//! The contract under test: committed training quantities — per-epoch
//! losses, final model/optimizer/cache state, H2D feature bytes — are a
//! pure function of the seed, bit-identical across reruns under *any*
//! crash/restart schedule and equal to the fault-free run; degraded
//! reads never exceed the `t_stale` staleness budget; and a crash-free
//! 1-host cluster reproduces the existing single-host trainer bit for
//! bit.

mod common;

use freshgnn_repro::core::cluster::{ClusterConfig, ClusterTrainer, HostStatus};
use freshgnn_repro::core::resilience::{Supervisor, SupervisorConfig};
use freshgnn_repro::core::{FgnnError, FreshGnnConfig, Trainer};
use freshgnn_repro::graph::datasets::arxiv_spec;
use freshgnn_repro::graph::Dataset;
use freshgnn_repro::memsim::fault::{BreakerPolicy, FaultPlan, RetryPolicy};
use freshgnn_repro::memsim::ClusterFaultPlan;
use freshgnn_repro::nn::Adam;

fn tiny() -> Dataset {
    Dataset::materialize(arxiv_spec(0.0).with_dim(16), 42) // 256 nodes
}

fn train_cfg() -> FreshGnnConfig {
    FreshGnnConfig {
        p_grad: 0.9,
        t_stale: 50,
        fanouts: vec![4, 4],
        batch_size: 32,
        ..Default::default()
    }
}

fn cluster_cfg(hosts: usize) -> ClusterConfig {
    ClusterConfig {
        num_hosts: hosts,
        train: train_cfg(),
        ..Default::default()
    }
}

/// Committed quantities of one finished cluster run, bit-comparable.
#[derive(Debug, PartialEq)]
struct Committed {
    loss_bits: Vec<Vec<u64>>,
    h2d_bytes: u64,
    checkpoints: Vec<Vec<u8>>,
}

/// Strip the *measured* (wall-clock) fields a checkpoint carries —
/// sample/prune seconds vary run to run by design; everything else in
/// the ledger is Exact and must reproduce bitwise.
fn normalize(ckpt: &mut freshgnn_repro::core::Checkpoint) {
    ckpt.epoch = 0;
    ckpt.counters.sample_seconds = 0.0;
    ckpt.counters.prune_seconds = 0.0;
    // Injected interconnect stalls/retries are charged into the trainer's
    // Exact time ledger on purpose — they are a *cost*, not a committed
    // training quantity. H2D bytes are compared separately.
    ckpt.counters.transfer_seconds = 0.0;
    ckpt.counters.retry_seconds = 0.0;
    ckpt.counters.retries = 0;
    ckpt.counters.failed_transfers = 0;
    ckpt.counters.num_transfers = 0;
}

fn committed(ct: &mut ClusterTrainer, hosts: usize) -> Committed {
    let report = ct.report();
    Committed {
        loss_bits: report
            .per_host_losses
            .iter()
            .map(|l| l.iter().map(|x| x.to_bits()).collect())
            .collect(),
        h2d_bytes: report.h2d_bytes,
        checkpoints: (0..hosts)
            .map(|h| {
                // The epoch counter ticks once per engine invocation —
                // once per *round* here — so it is bookkeeping, not a
                // committed quantity. Everything else must match.
                let mut ckpt = ct.checkpoint_host(h);
                normalize(&mut ckpt);
                ckpt.to_bytes()
            })
            .collect(),
    }
}

/// A crash-free 1-host cluster is the single-host trainer, bit for bit:
/// same per-epoch losses, same traffic ledger, same final checkpoint.
#[test]
fn one_host_cluster_matches_single_host_trainer_bit_for_bit() {
    let ds = tiny();
    let seed = 7;
    let epochs = 2;

    let mut ct = ClusterTrainer::new(&ds, cluster_cfg(1), seed).unwrap();
    let report = ct.train(epochs).unwrap();

    // Reference: a plain Trainer on the identical host machine + seed.
    let machine = ct.trainer(0).machine.clone();
    let cfg = cluster_cfg(1);
    let mut single = Trainer::new(&ds, cfg.arch, cfg.hidden, machine, cfg.train.clone(), seed);
    let mut opt = Adam::new(cfg.lr);
    let mut single_losses = Vec::new();
    for _ in 0..epochs {
        single_losses.push(single.train_epoch(&ds, &mut opt).mean_loss);
    }

    assert_eq!(report.per_host_losses.len(), 1);
    for (e, (&c, &s)) in report.per_host_losses[0]
        .iter()
        .zip(&single_losses)
        .enumerate()
    {
        assert_eq!(c.to_bits(), s.to_bits(), "epoch {e} loss diverged");
    }
    let tc = &ct.trainer(0).counters;
    assert_eq!(tc.host_to_gpu_bytes, single.counters.host_to_gpu_bytes);
    assert_eq!(tc.cache_hit_bytes, single.counters.cache_hit_bytes);
    assert_eq!(report.h2d_bytes, single.counters.host_to_gpu_bytes);
    // One shard: no remote halo, no NIC traffic at all.
    assert_eq!(report.comms.nic_bytes, 0);
    assert_eq!(report.ledger.remote_reads, 0);

    // Model, optimizer, RNG stream, iteration cursor, traffic ledger and
    // cache contents all match; only the per-engine-invocation epoch
    // counter is bookkeeping (one tick per round vs. one per epoch).
    let mut cluster_ckpt = ct.checkpoint_host(0);
    let mut single_ckpt = single.checkpoint(&opt);
    assert!(cluster_ckpt.epoch >= single_ckpt.epoch);
    assert_eq!(cluster_ckpt.iter, single_ckpt.iter, "iter diverged");
    assert_eq!(
        cluster_ckpt.rng_state, single_ckpt.rng_state,
        "rng diverged"
    );
    assert_eq!(cluster_ckpt.params, single_ckpt.params, "params diverged");
    normalize(&mut cluster_ckpt);
    normalize(&mut single_ckpt);
    assert_eq!(
        cluster_ckpt.to_bytes(),
        single_ckpt.to_bytes(),
        "final states diverged"
    );
}

/// A crash + restart schedule recovers to the exact fault-free state:
/// the committed quantities match the no-fault cluster run bit for bit,
/// while the comms ledger shows what the recovery cost.
#[test]
fn crash_restart_recovers_to_the_fault_free_state() {
    let ds = tiny();
    let hosts = 2;
    let seed = 11;

    let mut clean = ClusterTrainer::new(&ds, cluster_cfg(hosts), seed).unwrap();
    let clean_report = clean.train(2).unwrap();
    let clean_committed = committed(&mut clean, hosts);

    let mut faulty = ClusterTrainer::new(&ds, cluster_cfg(hosts), seed).unwrap();
    faulty
        .inject_cluster_faults(ClusterFaultPlan::none().with_crash(2, 1).with_restart(5, 1))
        .unwrap();
    let report = faulty.train(2).unwrap();
    let faulty_committed = committed(&mut faulty, hosts);

    assert_eq!(report.crashes, 1);
    assert_eq!(report.restarts, 1);
    assert_eq!(clean_committed, faulty_committed);
    // The detector saw the outage and the survivors served for the dead
    // shard (or burned retries in the undetected window).
    assert!(report.membership_version > 0, "no membership transitions");
    assert!(
        report.ledger.degraded_reads + report.ledger.fallback_reads + report.ledger.retries > 0,
        "the outage left no trace in the read ledger"
    );
    // Recovery re-executes rounds, so the faulty run's comms cost at
    // least the fault-free run's.
    assert!(
        report.comms.nic_seconds + report.comms.retry_seconds >= clean_report.comms.nic_seconds
    );
    assert!(report.rounds >= clean_report.rounds);
}

/// Property: under *any* random crash/restart/NIC schedule, committed
/// metrics are byte-identical across same-seed reruns, equal to the
/// fault-free run, and the comms ledger itself reproduces exactly.
#[test]
fn committed_metrics_are_byte_identical_under_random_schedules() {
    let ds = tiny();
    let hosts = 2;
    common::for_cases("cluster_random_schedules", |rng| {
        let seed = rng.next_u64();
        let plan = ClusterFaultPlan::random(seed, hosts, 10);

        let run = |inject: bool| {
            let mut ct = ClusterTrainer::new(&ds, cluster_cfg(hosts), seed).unwrap();
            if inject {
                ct.inject_cluster_faults(plan.clone()).unwrap();
            }
            let report = ct.train(1).unwrap();
            (committed(&mut ct, hosts), report)
        };

        let (clean, _) = run(false);
        let (a, ra) = run(true);
        let (b, rb) = run(true);
        assert_eq!(a, clean, "faults leaked into committed quantities");
        assert_eq!(a, b, "rerun diverged");
        // The fault ledger differs from fault-free but must itself be
        // deterministic: byte-identical across the two injected reruns.
        assert_eq!(ra.comms.nic_bytes, rb.comms.nic_bytes);
        assert_eq!(
            ra.comms.nic_seconds.to_bits(),
            rb.comms.nic_seconds.to_bits()
        );
        assert_eq!(
            ra.comms.retry_seconds.to_bits(),
            rb.comms.retry_seconds.to_bits()
        );
        assert_eq!(ra.ledger, rb.ledger);
        assert_eq!(ra.rounds, rb.rounds);
        assert_eq!(ra.membership_version, rb.membership_version);
        assert_eq!(ra.sim_seconds.to_bits(), rb.sim_seconds.to_bits());
        assert!(
            ra.ledger.max_staleness <= ra.ledger.budget,
            "degraded read served past the t_stale budget: {:?}",
            ra.ledger
        );
    });
}

/// Degraded serving honors the `t_stale` budget: a short outage is
/// served stale within budget; once the outage outlives the budget the
/// reads fall back to raw features (staleness zero) instead.
#[test]
fn degraded_reads_never_exceed_the_staleness_budget() {
    let ds = tiny();
    let mut cfg = cluster_cfg(2);
    cfg.train.t_stale = 3; // tight budget so a long outage overruns it
    cfg.dead_after = 1; // declare Dead fast so reads go degraded, not retry

    let mut ct = ClusterTrainer::new(&ds, cfg, 13).unwrap();
    ct.inject_cluster_faults(ClusterFaultPlan::none().with_crash(2, 1).with_restart(9, 1))
        .unwrap();
    let report = ct.train(2).unwrap();

    let ledger = report.ledger;
    assert_eq!(ledger.budget, 3);
    assert!(ledger.degraded_reads > 0, "no degraded reads: {ledger:?}");
    assert!(
        ledger.fallback_reads > 0,
        "outage outlived the budget yet nothing fell back: {ledger:?}"
    );
    assert!(
        ledger.max_staleness <= ledger.budget,
        "served staleness {} exceeds budget {}",
        ledger.max_staleness,
        ledger.budget
    );
}

/// The failure detector walks Alive → Suspect → Dead on the schedule's
/// silence and back to Alive on restart, purely from the fault plan.
#[test]
fn membership_view_tracks_the_fault_schedule() {
    let ds = tiny();
    let mut cfg = cluster_cfg(2);
    cfg.suspect_after = 1;
    cfg.dead_after = 2;
    let mut ct = ClusterTrainer::new(&ds, cfg, 17).unwrap();
    ct.inject_cluster_faults(ClusterFaultPlan::none().with_crash(2, 0).with_restart(6, 0))
        .unwrap();
    ct.train(2).unwrap();

    let log = ct.membership_log();
    let statuses: Vec<(u64, HostStatus)> = log.iter().map(|t| (t.round, t.to)).collect();
    // Crash fires at round 2 before the tick: one missed beat → Suspect
    // the same round, two missed beats → Dead the round after.
    assert!(
        statuses.contains(&(2, HostStatus::Suspect)),
        "no Suspect at round 2: {statuses:?}"
    );
    assert!(
        statuses.contains(&(3, HostStatus::Dead)),
        "no Dead at round 3: {statuses:?}"
    );
    assert!(
        statuses.contains(&(6, HostStatus::Alive)),
        "no rejoin at round 6: {statuses:?}"
    );
    assert_eq!(ct.membership().alive_count(), 2);
}

/// Full chaos matrix: host crash × armed breaker under a stall storm ×
/// NaN-guard trip. Every cell's committed quantities must equal the
/// no-fault reference.
#[test]
fn chaos_matrix_pins_committed_quantities_to_the_reference() {
    let ds = tiny();
    let hosts = 2;
    let seed = 23;

    let build = || ClusterTrainer::new(&ds, cluster_cfg(hosts), seed).unwrap();

    // Reference: no faults of any kind.
    let mut reference = build();
    reference.train(1).unwrap();
    let expect = committed(&mut reference, hosts);

    for mask in 0u32..8 {
        let (crash, breaker, nan) = (mask & 1 != 0, mask & 2 != 0, mask & 4 != 0);
        let mut ct = build();
        if crash {
            ct.inject_cluster_faults(ClusterFaultPlan::none().with_crash(2, 1).with_restart(4, 1))
                .unwrap();
        }
        if breaker {
            // Stall storm + armed breaker: transfers are slowed, never
            // failed, so the breaker stays closed and bytes are exact.
            for h in 0..hosts {
                ct.trainer_mut(h).inject_faults(
                    FaultPlan::new(5).with_stalls(0.5, 1e-3),
                    RetryPolicy::default(),
                );
                ct.trainer_mut(h).enable_breaker(BreakerPolicy {
                    failure_threshold: 1_000_000,
                    cooldown: 10,
                });
            }
        }
        if nan {
            ct.trainer_mut(0).inject_nan_at([1]);
        }
        let report = ct
            .train(1)
            .unwrap_or_else(|e| panic!("cell {mask:03b} failed: {e:?}"));
        let got = committed(&mut ct, hosts);
        assert_eq!(
            got, expect,
            "cell crash={crash} breaker={breaker} nan={nan} diverged"
        );
        if crash {
            assert_eq!(report.crashes, 1, "cell {mask:03b} lost its crash");
        }
        assert!(
            report.ledger.max_staleness <= report.ledger.budget,
            "cell {mask:03b} broke the staleness budget"
        );
    }
}

/// A NaN on a 1-host cluster takes the driver's rollback arm: the cluster
/// commits exactly what `train_epoch_resilient` commits for the same NaN,
/// and each side rolls back once.
#[test]
fn one_host_cluster_with_a_nan_matches_the_resilient_single_host_run() {
    let ds = tiny();
    let (seed, epochs, nan_iter) = (7, 2, 5);
    let cfg = cluster_cfg(1);

    let mut ct = ClusterTrainer::new(&ds, cfg.clone(), seed).unwrap();
    ct.trainer_mut(0).inject_nan_at([nan_iter]);
    let report = ct.train(epochs).unwrap();

    let machine = ct.trainer(0).machine.clone();
    let mut single = Trainer::new(&ds, cfg.arch, cfg.hidden, machine, cfg.train.clone(), seed);
    single.inject_nan_at([nan_iter]);
    let mut opt = Adam::new(cfg.lr);
    let mut sup = Supervisor::new(SupervisorConfig {
        max_rollbacks: cfg.max_rollbacks,
    });
    let single_losses: Vec<u64> = (0..epochs)
        .map(|_| {
            let stats = single.train_epoch_resilient(&ds, &mut opt, &mut sup);
            stats.unwrap().mean_loss.to_bits()
        })
        .collect();

    let rollbacks = |t: &Trainer| t.obs.metrics.counter("resilience.rollbacks");
    assert_eq!(sup.rollbacks(), 1);
    assert_eq!(rollbacks(&single), Some(1));
    assert_eq!(rollbacks(ct.trainer(0)), Some(1));
    let cluster_losses: Vec<u64> = report.per_host_losses[0]
        .iter()
        .map(|l| l.to_bits())
        .collect();
    assert_eq!(cluster_losses, single_losses);
    let mut cluster_ckpt = ct.checkpoint_host(0);
    let mut single_ckpt = single.checkpoint(&opt);
    normalize(&mut cluster_ckpt);
    normalize(&mut single_ckpt);
    assert_eq!(cluster_ckpt.to_bytes(), single_ckpt.to_bytes());
}

/// The NaN hook of a host's trainer fires inside the cluster's rounds and
/// rolls back that host only.
#[test]
fn a_nan_armed_on_a_host_trainer_fires() {
    let ds = tiny();
    let mut ct = ClusterTrainer::new(&ds, cluster_cfg(2), 37).unwrap();
    ct.trainer_mut(0).inject_nan_at([1]);
    ct.train(1).unwrap();
    let rollbacks = |h: usize| ct.trainer(h).obs.metrics.counter("resilience.rollbacks");
    assert_eq!(rollbacks(0), Some(1));
    assert_eq!(rollbacks(1), None);
}

/// A host that keeps tripping its guard past the rollback budget stops the
/// cluster with a numeric error naming the host and the round.
#[test]
fn exhausting_a_host_rollback_budget_names_the_host_and_round() {
    let ds = tiny();
    let mut cfg = cluster_cfg(2);
    cfg.max_rollbacks = 1;
    let mut ct = ClusterTrainer::new(&ds, cfg, 41).unwrap();
    // Iteration 1 (round 2) rolls back; iteration 2 (round 3) has no
    // budget left.
    ct.trainer_mut(1).inject_nan_at([1, 2]);
    let err = ct.train(1).unwrap_err();
    let FgnnError::Numeric(why) = &err else {
        panic!("expected a numeric error, got {err:?}");
    };
    assert!(why.starts_with("host 1 at round 3: "), "{why}");
    assert!(why.contains("rollback budget exhausted"), "{why}");
    assert_eq!(err.to_string().matches("numeric-health error").count(), 1);
}

/// NIC degradation slows comms without touching committed quantities.
#[test]
fn nic_degradation_costs_time_not_correctness() {
    let ds = tiny();
    let hosts = 2;
    let seed = 29;

    let mut clean = ClusterTrainer::new(&ds, cluster_cfg(hosts), seed).unwrap();
    clean.train(1).unwrap();
    let expect = committed(&mut clean, hosts);
    let clean_nic = clean.comms().nic_seconds;

    let mut slow = ClusterTrainer::new(&ds, cluster_cfg(hosts), seed).unwrap();
    slow.inject_cluster_faults(
        ClusterFaultPlan::none()
            .with_nic_degradation(1, 1, 8.0)
            .with_nic_restore(6, 1),
    )
    .unwrap();
    let report = slow.train(1).unwrap();

    assert_eq!(committed(&mut slow, hosts), expect);
    assert_eq!(report.comms.nic_bytes, clean.comms().nic_bytes);
    assert!(
        report.comms.nic_seconds > clean_nic,
        "8x NIC degradation did not slow comms ({} vs {clean_nic})",
        report.comms.nic_seconds
    );
}

/// Invalid fault plans are rejected up front with a clear error.
#[test]
fn invalid_cluster_fault_plans_are_rejected() {
    let ds = tiny();
    let mut ct = ClusterTrainer::new(&ds, cluster_cfg(2), 31).unwrap();

    // Host out of range.
    let err = ct
        .inject_cluster_faults(ClusterFaultPlan::none().with_crash(2, 9).with_restart(3, 9))
        .unwrap_err();
    assert!(matches!(err, FgnnError::Config(_)), "{err:?}");

    // Crash with no matching restart would wedge the BSP loop.
    let err = ct
        .inject_cluster_faults(ClusterFaultPlan::none().with_crash(2, 1))
        .unwrap_err();
    let msg = format!("{err:?}");
    assert!(msg.contains("restart"), "unhelpful error: {msg}");
}

/// A plan may schedule its events as late as `u64::MAX`: a crash at
/// `u64::MAX - 1` with its restart at `u64::MAX` passes `validate`, and the
/// round cap saturates instead of overflowing. The events never fire.
#[test]
fn fault_events_at_the_last_rounds_do_not_overflow_the_round_cap() {
    let ds = tiny();
    let hosts = 2;
    let seed = 47;
    let mut clean = ClusterTrainer::new(&ds, cluster_cfg(hosts), seed).unwrap();
    clean.train(1).unwrap();

    let mut late = ClusterTrainer::new(&ds, cluster_cfg(hosts), seed).unwrap();
    late.inject_cluster_faults(
        ClusterFaultPlan::none()
            .with_crash(u64::MAX - 1, 0)
            .with_restart(u64::MAX, 0),
    )
    .unwrap();
    let report = late.train(1).unwrap();
    assert_eq!(report.crashes, 0);
    assert_eq!(report.rounds, clean.report().rounds);
    assert_eq!(committed(&mut late, hosts), committed(&mut clean, hosts));
}

/// While every live host is done and a crashed one waits for a far-off
/// restart, the loop jumps to it instead of spinning through each round;
/// a restart so late that the host's epoch cannot end by round
/// `u64::MAX` is a wedge error, not an overflow.
#[test]
fn a_far_restart_is_reached_without_spinning() {
    let ds = tiny();
    let hosts = 2;
    let seed = 53;
    let mut clean = ClusterTrainer::new(&ds, cluster_cfg(hosts), seed).unwrap();
    clean.train(1).unwrap();
    let batches = clean.report().rounds;
    assert!(batches >= 2, "every host needs two rounds or more");

    let restart = u64::MAX - batches;
    let mut far = ClusterTrainer::new(&ds, cluster_cfg(hosts), seed).unwrap();
    far.inject_cluster_faults(
        ClusterFaultPlan::none()
            .with_crash(1, 0)
            .with_restart(restart, 0),
    )
    .unwrap();
    let report = far.train(1).unwrap();
    assert_eq!(report.restarts, 1);
    assert!(report.rounds > restart, "{}", report.rounds);
    assert_eq!(committed(&mut far, hosts), committed(&mut clean, hosts));
    let log = far.membership_log();
    assert_eq!(
        log.last().map(|t| (t.round, t.to)),
        Some((restart, HostStatus::Alive))
    );

    let mut too_far = ClusterTrainer::new(&ds, cluster_cfg(hosts), seed).unwrap();
    too_far
        .inject_cluster_faults(
            ClusterFaultPlan::none()
                .with_crash(1, 0)
                .with_restart(u64::MAX, 0),
        )
        .unwrap();
    let err = too_far.train(1).unwrap_err();
    assert!(
        matches!(&err, FgnnError::Config(why) if why.contains("wedged")),
        "{err:?}"
    );
}

/// Property: hostile fault plans — hosts past the cluster, events at
/// rounds 0, 1, `u64::MAX - 1` and `u64::MAX`, a crash and a restart in
/// the same round, NaN, infinite and sub-1 NIC factors — never panic
/// `validate`, and every plan it accepts trains a 3-host cluster to the
/// fault-free committed quantities. One batch per host epoch, so a host
/// restarted at round `u64::MAX` still finishes.
#[test]
fn hostile_fault_plans_never_panic_and_train_when_accepted() {
    const ROUNDS: [u64; 4] = [0, 1, u64::MAX - 1, u64::MAX];
    const FACTORS: [f64; 5] = [f64::NAN, f64::INFINITY, 0.5, 1.0, 4.0];
    let ds = tiny();
    let hosts = 3;
    let seed = 59;
    let cfg = || {
        let mut cfg = cluster_cfg(hosts);
        cfg.train.batch_size = 128;
        cfg
    };
    let mut clean = ClusterTrainer::new(&ds, cfg(), seed).unwrap();
    clean.train(1).unwrap();
    assert_eq!(clean.report().rounds, 1, "a host epoch is one batch");
    let expect = committed(&mut clean, hosts);

    common::for_cases("cluster_hostile_plans", |rng| {
        let mut plan = ClusterFaultPlan::none();
        let mut pick = |n: u64| rng.next_u64() % n;
        for _ in 0..1 + pick(3) {
            let round = ROUNDS[pick(4) as usize];
            // Now and then one of the two hosts past the cluster.
            let past = 2 * u64::from(pick(4) == 0);
            let host = pick(hosts as u64 + past) as usize;
            plan = match pick(8) {
                0 => plan.with_crash(round, host),
                1 => plan.with_restart(round, host),
                // A crash and a restart in the same round.
                2 => plan.with_crash(round, host).with_restart(round, host),
                3 => plan.with_nic_restore(round, host),
                4 => {
                    let factor = FACTORS[pick(5) as usize];
                    match plan.clone().try_with_nic_degradation(round, host, factor) {
                        Ok(plan) => plan,
                        Err(_) => {
                            assert!(!(factor >= 1.0 && factor.is_finite()), "{factor}");
                            plan
                        }
                    }
                }
                _ => {
                    let restart = ROUNDS[pick(4) as usize];
                    plan.with_crash(round, host).with_restart(restart, host)
                }
            };
        }
        if plan.validate(hosts).is_err() {
            return;
        }
        let mut ct = ClusterTrainer::new(&ds, cfg(), seed).unwrap();
        ct.inject_cluster_faults(plan.clone()).unwrap();
        let report = ct
            .train(1)
            .unwrap_or_else(|e| panic!("{plan:?} failed: {e}"));
        assert_eq!(committed(&mut ct, hosts), expect, "{plan:?}");
        assert!(report.ledger.max_staleness <= report.ledger.budget);
    });
}
