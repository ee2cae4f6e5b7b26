//! Policy-family equivalence suite (DESIGN.md §11).
//!
//! The policy family must be behavior-preserving under the baseline: an
//! explicit `PolicyKind::Gradient` config must reproduce the default
//! config bit for bit (the default itself is pinned against goldens in
//! `tests/pipeline_equivalence.rs`). On top of that, every policy must be
//! deterministic — same seed, same bits — and the non-baseline policies
//! must actually exercise their hooks (counters move), so the frontier
//! bench measures real mechanisms rather than silently degenerating to the
//! baseline.

use freshgnn_repro::core::cache::{CacheStats, PolicyKind};
use freshgnn_repro::core::hetero_trainer::HeteroTrainer;
use freshgnn_repro::core::{FreshGnnConfig, Trainer};
use freshgnn_repro::graph::datasets::arxiv_spec;
use freshgnn_repro::graph::hetero::mag_hetero;
use freshgnn_repro::graph::Dataset;
use freshgnn_repro::memsim::presets::Machine;
use freshgnn_repro::nn::model::Arch;
use freshgnn_repro::nn::Adam;

fn arxiv16() -> Dataset {
    Dataset::materialize(arxiv_spec(0.0).with_dim(16), 42)
}

fn cfg(kind: PolicyKind, t_stale: u32) -> FreshGnnConfig {
    FreshGnnConfig {
        p_grad: 0.9,
        t_stale,
        fanouts: vec![4, 4],
        batch_size: 32,
        policy: kind,
        ..Default::default()
    }
}

/// Run `epochs` sync epochs and return (losses, h2d bytes, cache stats).
fn run(kind: PolicyKind, t_stale: u32, epochs: usize) -> (Vec<u64>, u64, CacheStats) {
    let ds = arxiv16();
    let mut t = Trainer::new(
        &ds,
        Arch::Sage,
        32,
        Machine::single_a100(),
        cfg(kind, t_stale),
        1,
    );
    let mut opt = Adam::new(0.01);
    let losses = (0..epochs)
        .map(|_| t.train_epoch(&ds, &mut opt).mean_loss.to_bits())
        .collect();
    (losses, t.counters.host_to_gpu_bytes, t.cache.stats())
}

#[test]
fn explicit_gradient_policy_matches_the_default_config() {
    // `policy: Gradient` is the default; making it explicit must change
    // nothing. Together with `tests/pipeline_equivalence.rs` (which pins
    // the default against pre-refactor goldens) this pins the whole policy
    // wiring as a no-op under the baseline.
    let ds = arxiv16();
    let mut dflt = FreshGnnConfig {
        p_grad: 0.9,
        t_stale: 50,
        fanouts: vec![4, 4],
        batch_size: 32,
        ..Default::default()
    };
    assert_eq!(dflt.policy, PolicyKind::Gradient);
    dflt.policy = PolicyKind::Gradient;
    let mut t = Trainer::new(&ds, Arch::Sage, 32, Machine::single_a100(), dflt, 1);
    let mut opt = Adam::new(0.01);
    let losses: Vec<u64> = (0..2)
        .map(|_| t.train_epoch(&ds, &mut opt).mean_loss.to_bits())
        .collect();
    let (ref_losses, ref_h2d, ref_stats) = run(PolicyKind::Gradient, 50, 2);
    assert_eq!(losses, ref_losses);
    assert_eq!(t.counters.host_to_gpu_bytes, ref_h2d);
    assert_eq!(t.cache.stats(), ref_stats);
}

#[test]
fn every_policy_is_bit_deterministic_across_reruns() {
    for kind in PolicyKind::ALL {
        let a = run(kind, 20, 2);
        let b = run(kind, 20, 2);
        assert_eq!(a.0, b.0, "{kind}: losses must be bit-identical");
        assert_eq!(a.1, b.1, "{kind}: traffic must be identical");
        assert_eq!(a.2, b.2, "{kind}: cache stats must be identical");
    }
}

#[test]
fn baseline_policy_counters_stay_zero() {
    let (_, _, stats) = run(PolicyKind::Gradient, 20, 3);
    assert_eq!(stats.scheduled_refreshes, 0);
    assert_eq!(stats.weighted_reads, 0);
    assert_eq!(stats.predicted_reads, 0);
}

#[test]
fn staleness_weighted_policy_weights_aged_reads() {
    let (_, _, stats) = run(PolicyKind::StalenessWeighted, 20, 3);
    assert!(stats.weighted_reads > 0, "aged reads must be down-weighted");
    assert_eq!(stats.scheduled_refreshes, 0, "no refresh schedule");
}

#[test]
fn coarse_refresh_policy_schedules_refreshes() {
    // t_stale 8 → period 2: live entries are recomputed every 2
    // iterations, so the schedule must fire and cost extra traffic.
    let sched = run(PolicyKind::CoarseRefresh, 8, 3);
    let base = run(PolicyKind::Gradient, 8, 3);
    assert!(sched.2.scheduled_refreshes > 0, "schedule must fire");
    assert!(
        sched.1 >= base.1,
        "forced recomputes cannot reduce feature traffic"
    );
}

#[test]
fn predictive_policy_refreshes_and_extrapolates() {
    // t_stale 8 → refresh age 4: entries refresh mid-window (recording
    // update deltas) and reads past age 0 extrapolate along them.
    let (_, _, stats) = run(PolicyKind::Predictive, 8, 4);
    assert!(stats.scheduled_refreshes > 0, "mid-window refreshes occur");
    assert!(stats.predicted_reads > 0, "aged reads extrapolate");
}

#[test]
fn hetero_trainer_runs_the_policy_family_deterministically() {
    let run_het = |kind: PolicyKind| {
        let ds = mag_hetero(400, 4, 8, 3);
        let hcfg = FreshGnnConfig {
            p_grad: 0.9,
            t_stale: 8,
            fanouts: vec![3, 3],
            batch_size: 32,
            policy: kind,
            ..Default::default()
        };
        let mut t = HeteroTrainer::new(&ds, 16, Machine::single_a100(), hcfg, 1);
        let mut opt = Adam::new(0.01);
        let losses: Vec<u64> = (0..2)
            .map(|_| t.train_epoch(&ds, &mut opt).mean_loss.to_bits())
            .collect();
        (losses, t.counters.host_to_gpu_bytes, t.cache.stats())
    };
    for kind in [
        PolicyKind::Gradient,
        PolicyKind::StalenessWeighted,
        PolicyKind::CoarseRefresh,
    ] {
        let a = run_het(kind);
        let b = run_het(kind);
        assert_eq!(a, b, "{kind}: hetero run must be bit-deterministic");
    }
    assert!(
        run_het(PolicyKind::CoarseRefresh).2.scheduled_refreshes > 0,
        "the schedule reaches the hetero prune path"
    );
    assert_eq!(run_het(PolicyKind::Gradient).2.scheduled_refreshes, 0);
}
