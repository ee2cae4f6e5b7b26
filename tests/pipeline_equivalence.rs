//! Pipeline-refactor equivalence suite.
//!
//! Every training loop now runs through `freshgnn::pipeline::Engine`. The
//! refactor is required to be *behavior-preserving*: for fixed seeds, the
//! ported loops must reproduce the pre-refactor trainers bit for bit —
//! losses, accuracies, and every deterministic `TrafficCounters` field
//! (bytes, transfer counts, simulated seconds, retries). The constants
//! below were captured by running the pre-pipeline trainers on these exact
//! setups; any drift in them is a behavior change, not a tolerance issue.
//!
//! Measured wall-clock fields (`sample_seconds`, `prune_seconds`, the
//! engine's per-stage `measured_seconds`) are nondeterministic by nature
//! and are deliberately excluded from all assertions here.

use freshgnn_repro::core::baselines::{
    ClusterGcnTrainer, GasConfig, GasTrainer, SamplingBaselineTrainer, SamplingKind,
};
use freshgnn_repro::core::hetero_trainer::HeteroTrainer;
use freshgnn_repro::core::{EpochStats, FreshGnnConfig, Trainer};
use freshgnn_repro::graph::datasets::arxiv_spec;
use freshgnn_repro::graph::hetero::mag_hetero;
use freshgnn_repro::graph::Dataset;
use freshgnn_repro::memsim::fault::{FaultPlan, RetryPolicy};
use freshgnn_repro::memsim::presets::Machine;
use freshgnn_repro::memsim::stage::{StageKind, StageTimings};
use freshgnn_repro::memsim::TrafficCounters;
use freshgnn_repro::nn::model::Arch;
use freshgnn_repro::nn::Adam;

// --- pre-refactor golden values (f64::to_bits) ---

const FRESH_LOSSES: [u64; 3] = [0x4011d278e0000000, 0x400c7ac7f3333333, 0x4008986da0000000];
const FRESH_H2D: u64 = 67008;
const FRESH_CACHE_HIT: u64 = 104768;
const FRESH_IDX: u64 = 0;
const FRESH_NTR: u64 = 15;
const FRESH_TRANSFER_S: u64 = 0x3ed190d4ac9db5e8;
const FRESH_COMPUTE_S: u64 = 0x3ed71ba54ad87c67;
const FRESH_ACC: u64 = 0x3fbf1a515885fb37;

const NS2S_LOSSES: [u64; 2] = [0x4010bf3dc6666666, 0x40102902accccccd];
const NS2S_H2D: u64 = 114752;
const NS2S_IDX: u64 = 7172;

const FAULT_LOSSES: [u64; 2] = [0x4011ddb35999999a, 0x400fb4592ccccccd];
const FAULT_RETRIES: u64 = 1;
const FAULT_FAILED: u64 = 0;
const FAULT_RETRY_S: u64 = 0x3f53d03f3dbd9672;

// Re-baselined when GAS stopped dropping labels (it looked them up by
// binary search in the shuffled `train_nodes`); loads and pushes do not
// depend on labels, so H2D and the transfer count kept their values.
const GAS_LOSSES: [u64; 2] = [0x4010d556cc000000, 0x401046f0ba000000];
const GAS_H2D: u64 = 360896;
const GAS_NTR: u64 = 64;
const GAS_ACC: u64 = 0x3fa323e34a2b10bf;
const GFM_LOSS: u64 = 0x4010ceca78000000;

const CG_LOSSES: [u64; 2] = [0x4010ef45c0000000, 0x40107df838000000];
const CG_H2D: u64 = 24576;
const CG_ACC: u64 = 0x3fb323e34a2b10bf;

const LW_LOSSES: [u64; 2] = [0x40109bbc40000000, 0x401047d855555555];
const LW_H2D: u64 = 49728;
const GW_LOSSES: [u64; 2] = [0x4011490e95555555, 0x401099dad5555555];
const GW_H2D: u64 = 18240;

const HET_LOSSES: [u64; 2] = [0x3ffa643a90000000, 0x3ff7ea7e30000000];
const HET_H2D: u64 = 24832;
const HET_CACHE_HIT: u64 = 6464;
const HET_ACC: u64 = 0x3fe38e38e38e38e4;

/// Worker counts the overlapped epoch is held to the synchronous one at.
const WORKERS: [usize; 4] = [1, 2, 4, 8];

fn cfg(p_grad: f32, t_stale: u32) -> FreshGnnConfig {
    FreshGnnConfig {
        p_grad,
        t_stale,
        fanouts: vec![4, 4],
        batch_size: 32,
        ..Default::default()
    }
}

fn arxiv16() -> Dataset {
    Dataset::materialize(arxiv_spec(0.0).with_dim(16), 42)
}

/// Each epoch's per-stage ledger must merge back to exactly the epoch's
/// counter delta — attribution is complete, nothing is double-charged.
///
/// Integer fields must agree exactly. The simulated-seconds comparison
/// allows 2 ULP: the engine extends a ledger *span* (epoch-start and
/// latest-stage snapshots of the cumulative counters) on every record, so
/// `sim_seconds_total()` is derived by the same single subtraction that
/// produces the epoch's counter delta — bit-identical in practice; the
/// 2-ULP allowance covers span-less (hand-recorded/merged) ledgers that
/// fall back to the chronological replica. PR 8's async pipeline had
/// widened this band to 64 because `total()` re-summed per-stage
/// subtotals in *stage* order; the span mechanism closed that back down
/// (regression tests: `attribution_band_is_tight_on_the_async_pipeline`
/// here, `spanned_total_reproduces_the_ledger_delta_exactly` in memsim).
fn assert_attribution_complete(stats: &EpochStats) {
    let ulp_gap = stats
        .timings
        .sim_seconds_total()
        .to_bits()
        .abs_diff(stats.counters.sim_seconds().to_bits());
    assert!(
        ulp_gap <= 2,
        "per-stage deltas must sum to the epoch ledger (within 2 ULP), gap = {ulp_gap}"
    );
    let total = stats.timings.total();
    assert_eq!(total.wire_bytes(), stats.counters.wire_bytes());
    assert_eq!(total.cache_hit_bytes, stats.counters.cache_hit_bytes);
    assert_eq!(total.num_transfers, stats.counters.num_transfers);
    assert_eq!(total.retries, stats.counters.retries);
}

#[test]
fn fresh_gnn_sync_matches_pre_refactor_goldens() {
    let ds = arxiv16();
    let mut t = Trainer::new(&ds, Arch::Sage, 32, Machine::single_a100(), cfg(0.9, 50), 1);
    let mut opt = Adam::new(0.01);
    for &expect in &FRESH_LOSSES {
        let stats = t.train_epoch(&ds, &mut opt);
        assert_eq!(stats.mean_loss.to_bits(), expect, "loss drifted");
        assert_attribution_complete(&stats);
    }
    assert_eq!(t.counters.host_to_gpu_bytes, FRESH_H2D);
    assert_eq!(t.counters.cache_hit_bytes, FRESH_CACHE_HIT);
    assert_eq!(t.counters.index_bytes, FRESH_IDX);
    assert_eq!(t.counters.num_transfers, FRESH_NTR);
    assert_eq!(t.counters.transfer_seconds.to_bits(), FRESH_TRANSFER_S);
    assert_eq!(t.counters.compute_seconds.to_bits(), FRESH_COMPUTE_S);
    // EvalHarness must reproduce the old in-trainer evaluate loop exactly.
    assert_eq!(t.evaluate(&ds, &ds.test_nodes, 64).to_bits(), FRESH_ACC);
}

#[test]
fn two_sided_ns_baseline_matches_goldens() {
    let ds = arxiv16();
    let mut c = FreshGnnConfig::neighbor_sampling(vec![4, 4], 32);
    c.load_mode = freshgnn_repro::core::config::LoadMode::TwoSided;
    let mut t = Trainer::new(&ds, Arch::Gcn, 16, Machine::single_a100(), c, 5);
    let mut opt = Adam::new(0.01);
    for &expect in &NS2S_LOSSES {
        let stats = t.train_epoch(&ds, &mut opt);
        assert_eq!(stats.mean_loss.to_bits(), expect);
        assert_attribution_complete(&stats);
    }
    assert_eq!(t.counters.host_to_gpu_bytes, NS2S_H2D);
    assert_eq!(t.counters.index_bytes, NS2S_IDX);
}

/// Three epochs of SAGE-16 under `(p_grad, t_stale) = (0.9, 30)`, seed
/// 21, through `train_epoch_async` at `workers` (`0` is `train_epoch`):
/// the loss bits and the simulated part of the traffic ledger, with every
/// epoch's attribution checked on the way.
fn sage16_run(ds: &Dataset, workers: usize) -> (Vec<u64>, String) {
    let mut t = Trainer::new(ds, Arch::Sage, 16, Machine::single_a100(), cfg(0.9, 30), 21);
    let mut opt = Adam::new(0.01);
    let losses = (0..3)
        .map(|_| {
            let stats = t.train_epoch_async(ds, &mut opt, workers, 4).unwrap();
            assert_attribution_complete(&stats);
            stats.mean_loss.to_bits()
        })
        .collect();
    (losses, format!("{:?}", sim_only(&t.counters)))
}

/// The overlapped epoch trains the synchronous stream: at every worker
/// count its losses and traffic ledger are `train_epoch`'s, bit for bit.
#[test]
fn async_pipeline_matches_goldens() {
    let ds = arxiv16();
    let mut t = Trainer::new(
        &ds,
        Arch::Sage,
        16,
        Machine::single_a100(),
        cfg(0.9, 30),
        21,
    );
    let mut opt = Adam::new(0.01);
    let losses: Vec<u64> = (0..3)
        .map(|_| t.train_epoch(&ds, &mut opt).mean_loss.to_bits())
        .collect();
    let reference = (losses, format!("{:?}", sim_only(&t.counters)));
    for workers in WORKERS {
        assert_eq!(sage16_run(&ds, workers), reference, "workers={workers}");
    }
}

/// Regression pin for the PR 8 ULP-band blowout: on the multi-worker
/// async pipeline the attribution gap stays within the 2-ULP
/// delta-subtraction residual at every worker count, and the stream is
/// the zero-worker (synchronous) one — the scheduler moves work between
/// threads, never into the numbers.
#[test]
fn attribution_band_is_tight_on_the_async_pipeline() {
    let ds = arxiv16();
    let reference = sage16_run(&ds, 0);
    for workers in WORKERS {
        assert_eq!(sage16_run(&ds, workers), reference, "workers={workers}");
    }
}

#[test]
fn fault_injection_matches_goldens() {
    let ds = arxiv16();
    let mut t = Trainer::new(
        &ds,
        Arch::Sage,
        16,
        Machine::single_a100(),
        cfg(0.9, 50),
        13,
    );
    t.inject_faults(
        FaultPlan::new(99).with_fail_prob(0.10),
        RetryPolicy::default(),
    );
    let mut opt = Adam::new(0.01);
    for &expect in &FAULT_LOSSES {
        let stats = t.train_epoch(&ds, &mut opt);
        assert_eq!(stats.mean_loss.to_bits(), expect);
        assert_attribution_complete(&stats);
    }
    assert_eq!(t.counters.retries, FAULT_RETRIES);
    assert_eq!(t.counters.failed_transfers, FAULT_FAILED);
    assert_eq!(t.counters.retry_seconds.to_bits(), FAULT_RETRY_S);
}

#[test]
fn gas_and_graphfm_match_goldens() {
    let ds = Dataset::materialize(arxiv_spec(0.0).with_dim(12), 7);
    let gas_cfg = |momentum| GasConfig {
        num_parts: 8,
        max_neighbors: 32,
        momentum,
    };
    let mut g = GasTrainer::new(
        &ds,
        Arch::Gcn,
        16,
        vec![4, 4],
        Machine::single_a100(),
        gas_cfg(None),
        1,
    );
    let mut opt = Adam::new(0.01);
    for &expect in &GAS_LOSSES {
        let stats = g.train_epoch(&ds, &mut opt);
        assert_eq!(stats.mean_loss.to_bits(), expect);
        assert_attribution_complete(&stats);
        // GAS has no sampling or cache-update stage; its history pushes
        // and boundary pulls must be attributed to Load/Forward.
        assert_eq!(stats.timings.wire_bytes(StageKind::Sample), 0);
        assert_eq!(stats.timings.wire_bytes(StageKind::CacheUpdate), 0);
        assert!(stats.timings.wire_bytes(StageKind::Forward) > 0);
    }
    assert_eq!(g.counters.host_to_gpu_bytes, GAS_H2D);
    assert_eq!(g.counters.num_transfers, GAS_NTR);
    assert_eq!(g.evaluate(&ds, &ds.test_nodes, 256).to_bits(), GAS_ACC);

    let mut gf = GasTrainer::new(
        &ds,
        Arch::Gcn,
        16,
        vec![4, 4],
        Machine::single_a100(),
        gas_cfg(Some(0.5)),
        1,
    );
    let mut optf = Adam::new(0.01);
    assert_eq!(gf.train_epoch(&ds, &mut optf).mean_loss.to_bits(), GFM_LOSS);
}

#[test]
fn cluster_gcn_matches_goldens() {
    let ds = Dataset::materialize(arxiv_spec(0.0).with_dim(12), 9);
    let mut t = ClusterGcnTrainer::new(
        &ds,
        Arch::Gcn,
        16,
        vec![4, 4],
        8,
        2,
        Machine::single_a100(),
        1,
    );
    let mut opt = Adam::new(0.01);
    for &expect in &CG_LOSSES {
        let stats = t.train_epoch(&ds, &mut opt);
        assert_eq!(stats.mean_loss.to_bits(), expect);
        assert_attribution_complete(&stats);
        // All of ClusterGCN's traffic is raw feature loads.
        assert_eq!(
            stats.timings.wire_bytes(StageKind::Load),
            stats.counters.wire_bytes()
        );
    }
    assert_eq!(t.counters.host_to_gpu_bytes, CG_H2D);
    assert_eq!(t.evaluate(&ds, &ds.test_nodes, 256).to_bits(), CG_ACC);
}

#[test]
fn sampling_families_match_goldens() {
    let ds = Dataset::materialize(arxiv_spec(0.0).with_dim(12), 13);
    let mut lw = SamplingBaselineTrainer::new(
        &ds,
        Arch::Gcn,
        16,
        vec![4, 4],
        64,
        SamplingKind::LayerWise {
            layer_sizes: vec![64, 64],
        },
        Machine::single_a100(),
        1,
    );
    let mut opt = Adam::new(0.01);
    for &expect in &LW_LOSSES {
        let stats = lw.train_epoch(&ds, &mut opt);
        assert_eq!(stats.mean_loss.to_bits(), expect);
        assert_attribution_complete(&stats);
    }
    assert_eq!(lw.counters.host_to_gpu_bytes, LW_H2D);

    let mut gw = SamplingBaselineTrainer::new(
        &ds,
        Arch::Sage,
        16,
        vec![4, 4],
        64,
        SamplingKind::GraphWise {
            roots: 16,
            walk_length: 4,
        },
        Machine::single_a100(),
        2,
    );
    let mut optw = Adam::new(0.01);
    for &expect in &GW_LOSSES {
        let stats = gw.train_epoch(&ds, &mut optw);
        assert_eq!(stats.mean_loss.to_bits(), expect);
        assert_attribution_complete(&stats);
    }
    assert_eq!(gw.counters.host_to_gpu_bytes, GW_H2D);
}

#[test]
fn hetero_trainer_matches_goldens() {
    let ds = mag_hetero(400, 4, 8, 3);
    let hcfg = FreshGnnConfig {
        p_grad: 0.9,
        t_stale: 50,
        fanouts: vec![3, 3],
        batch_size: 32,
        ..Default::default()
    };
    let mut t = HeteroTrainer::new(&ds, 16, Machine::single_a100(), hcfg, 1);
    let mut opt = Adam::new(0.01);
    for &expect in &HET_LOSSES {
        let stats = t.train_epoch(&ds, &mut opt);
        assert_eq!(stats.mean_loss.to_bits(), expect);
        assert_attribution_complete(&stats);
    }
    assert_eq!(t.counters.host_to_gpu_bytes, HET_H2D);
    assert_eq!(t.counters.cache_hit_bytes, HET_CACHE_HIT);
    assert_eq!(t.evaluate(&ds, &ds.test_nodes, 128).to_bits(), HET_ACC);
}

/// The heterogeneous overlapped epoch trains the synchronous stream too:
/// three epochs at every worker count reproduce `train_epoch`'s losses,
/// H2D and cache-hit bytes.
#[test]
fn hetero_async_pipeline_matches_goldens() {
    let ds = mag_hetero(400, 4, 8, 3);
    let hcfg = FreshGnnConfig {
        p_grad: 0.9,
        t_stale: 50,
        fanouts: vec![3, 3],
        batch_size: 32,
        ..Default::default()
    };
    let run = |workers: usize| {
        let mut t = HeteroTrainer::new(&ds, 16, Machine::single_a100(), hcfg.clone(), 1);
        let mut opt = Adam::new(0.01);
        let losses: Vec<u64> = (0..3)
            .map(|_| {
                let stats = t.train_epoch_async(&ds, &mut opt, workers, 4).unwrap();
                assert_attribution_complete(&stats);
                stats.mean_loss.to_bits()
            })
            .collect();
        (losses, format!("{:?}", sim_only(&t.counters)))
    };
    let reference = run(0);
    assert_eq!(reference.0[..2], HET_LOSSES, "the synchronous goldens");
    for workers in WORKERS {
        assert_eq!(run(workers), reference, "workers={workers}");
    }
}

// --- StageTimings determinism ---

/// A stage ledger with the measured wall-clock fields zeroed, leaving only
/// the simulated/deterministic portion.
fn sim_only(c: &TrafficCounters) -> TrafficCounters {
    let mut c = c.clone();
    c.sample_seconds = 0.0;
    c.prune_seconds = 0.0;
    c
}

fn run_fresh_epochs(epochs: usize) -> StageTimings {
    let ds = arxiv16();
    let mut t = Trainer::new(&ds, Arch::Sage, 32, Machine::single_a100(), cfg(0.9, 50), 1);
    let mut opt = Adam::new(0.01);
    for _ in 0..epochs {
        t.train_epoch(&ds, &mut opt);
    }
    t.timings.clone()
}

#[test]
fn stage_simulated_seconds_are_deterministic_across_runs() {
    let a = run_fresh_epochs(2);
    let b = run_fresh_epochs(2);
    for kind in StageKind::ALL {
        let (ca, cb) = (sim_only(a.stage(kind)), sim_only(b.stage(kind)));
        assert_eq!(
            ca.sim_seconds().to_bits(),
            cb.sim_seconds().to_bits(),
            "stage {kind}: simulated seconds must be bit-identical across runs"
        );
        assert_eq!(ca.wire_bytes(), cb.wire_bytes(), "stage {kind}");
        assert_eq!(
            ca.compute_seconds.to_bits(),
            cb.compute_seconds.to_bits(),
            "stage {kind}"
        );
        // Measured wall-clock time is intentionally NOT compared: the
        // `measured_seconds` array and the sample/prune ledger fields vary
        // run to run.
    }
}

#[test]
fn stage_ledger_attributes_fresh_gnn_traffic_where_expected() {
    let timings = run_fresh_epochs(2);
    // Feature traffic moves in Load; compute is charged to Backward; the
    // policy stages move no bytes.
    assert!(timings.wire_bytes(StageKind::Load) > 0);
    assert!(timings.stage(StageKind::Backward).compute_seconds > 0.0);
    assert_eq!(timings.wire_bytes(StageKind::Forward), 0);
    assert_eq!(timings.wire_bytes(StageKind::CacheUpdate), 0);
    assert_eq!(timings.wire_bytes(StageKind::OptimStep), 0);
    // Cache savings are accounted in Load (hit bytes skip the wire).
    assert!(timings.stage(StageKind::Load).cache_hit_bytes > 0);
}
