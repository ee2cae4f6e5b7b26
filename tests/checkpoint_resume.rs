//! Kill-and-resume integration tests: a training run interrupted by a
//! checkpoint and resumed in a *fresh process-worth of state* (new trainer,
//! different construction seed, checkpoint round-tripped through disk)
//! must produce bitwise-identical final parameters to the uninterrupted
//! run — plus the corrupt-snapshot error paths and graceful cache
//! degradation. The between-epochs, cache-eviction and shape-mismatch
//! cases run over both FreshGNN workloads of the epoch driver, and the
//! between-epochs case over the checkpointable baselines too.

use freshgnn_repro::core::baselines::{ClusterGcnTrainer, SamplingBaselineTrainer, SamplingKind};
use freshgnn_repro::core::cache::PolicyKind;
use freshgnn_repro::core::checkpoint::{Checkpoint, CheckpointError, MAGIC, VERSION};
use freshgnn_repro::core::driver::{Driver, Workload};
use freshgnn_repro::core::hetero_trainer::HeteroTrainer;
use freshgnn_repro::core::obs::export::metrics_jsonl;
use freshgnn_repro::core::{FreshGnnConfig, Trainer};
use freshgnn_repro::graph::datasets::arxiv_spec;
use freshgnn_repro::graph::hetero::{mag_hetero, HeteroDataset};
use freshgnn_repro::graph::sample::split_batches;
use freshgnn_repro::graph::Dataset;
use freshgnn_repro::memsim::presets::Machine;
use freshgnn_repro::nn::model::Arch;
use freshgnn_repro::nn::{Adam, Parameters};
use freshgnn_repro::tensor::Rng;

fn tiny() -> Dataset {
    Dataset::materialize(arxiv_spec(0.0).with_dim(16), 42) // 256 nodes
}

fn cfg() -> FreshGnnConfig {
    FreshGnnConfig {
        p_grad: 0.9,
        t_stale: 50,
        fanouts: vec![4, 4],
        batch_size: 32,
        feature_cache_rows: 16,
        ..Default::default()
    }
}

fn new_trainer(ds: &Dataset, seed: u64) -> Trainer {
    Trainer::new(ds, Arch::Sage, 16, Machine::single_a100(), cfg(), seed)
}

fn tiny_hetero() -> HeteroDataset {
    mag_hetero(400, 4, 8, 3)
}

fn new_hetero(ds: &HeteroDataset, policy: PolicyKind, seed: u64) -> HeteroTrainer {
    let cfg = FreshGnnConfig { policy, ..cfg() };
    HeteroTrainer::new(ds, 16, Machine::single_a100(), cfg, seed)
}

fn ckpt_dir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("fgnn_ckpt_integration");
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The headline guarantee: kill after epoch 2 of 4, resume into a trainer
/// built with `resume_seed`, and the final parameters match the
/// uninterrupted run bit for bit.
fn assert_kill_between_epochs_resumes_bitwise<W: Workload>(
    ds: &W::Dataset,
    new_trainer: impl Fn(u64) -> Driver<W>,
    resume_seed: u64,
    file: &str,
) {
    // Uninterrupted reference: 4 epochs.
    let mut reference = new_trainer(7);
    let mut opt_ref = Adam::new(0.01);
    for _ in 0..4 {
        reference.train_epoch(ds, &mut opt_ref);
    }
    let want = reference.model.export_parameters();

    // Interrupted run: 2 epochs, checkpoint through disk, "kill".
    let path = ckpt_dir().join(file);
    {
        let mut first = new_trainer(7);
        let mut opt = Adam::new(0.01);
        first.train_epoch(ds, &mut opt);
        first.train_epoch(ds, &mut opt);
        first.checkpoint(&opt).save(&path).expect("save");
        // `first` dropped here — nothing survives but the file.
    }

    // Resume: fresh trainer, fresh optimizer.
    let ckpt = Checkpoint::load(&path).expect("load");
    let mut resumed = new_trainer(resume_seed);
    let mut opt = Adam::new(0.01);
    let degraded = resumed.restore(&ckpt, &mut opt).expect("restore");
    assert!(!degraded, "intact checkpoint must not degrade");
    assert_eq!(resumed.epochs(), 2);
    for _ in 0..2 {
        resumed.train_epoch(ds, &mut opt);
    }

    let got = resumed.model.export_parameters();
    assert_eq!(want.len(), got.len());
    let diffs = want
        .iter()
        .zip(&got)
        .filter(|(a, b)| a.to_bits() != b.to_bits())
        .count();
    assert_eq!(diffs, 0, "{file}: {diffs} parameters differ after resume");
    std::fs::remove_file(&path).ok();
}

/// Both workloads, resumed into a *differently*-seeded trainer: the
/// checkpoint alone carries the run.
#[test]
fn kill_between_epochs_and_resume_is_bitwise_identical() {
    let ds = tiny();
    assert_kill_between_epochs_resumes_bitwise(
        &ds,
        |seed| new_trainer(&ds, seed),
        999,
        "between_epochs.ckpt",
    );
    let hds = tiny_hetero();
    assert_kill_between_epochs_resumes_bitwise(
        &hds,
        |seed| new_hetero(&hds, PolicyKind::Gradient, seed),
        999,
        "between_epochs_hetero.ckpt",
    );
}

/// The cache-less baselines resume through the same driver. ClusterGCN's
/// partition is construction state, so it resumes into a trainer of the
/// same seed; the sampling families carry everything in the checkpoint.
/// (GAS is left out: its `O(Lnd)` histories are not checkpointed.)
#[test]
fn baselines_kill_between_epochs_and_resume_bitwise() {
    let ds = tiny();
    let machine = Machine::single_a100;
    assert_kill_between_epochs_resumes_bitwise(
        &ds,
        |seed| ClusterGcnTrainer::new(&ds, Arch::Gcn, 16, vec![4, 4], 8, 2, machine(), seed),
        7,
        "between_epochs_cluster_gcn.ckpt",
    );
    for (kind, file) in [
        (
            SamplingKind::LayerWise {
                layer_sizes: vec![32, 32],
            },
            "between_epochs_layer_wise.ckpt",
        ),
        (
            SamplingKind::GraphWise {
                roots: 8,
                walk_length: 3,
            },
            "between_epochs_graph_wise.ckpt",
        ),
    ] {
        assert_kill_between_epochs_resumes_bitwise(
            &ds,
            |seed| {
                let kind = kind.clone();
                SamplingBaselineTrainer::new(
                    &ds,
                    Arch::Sage,
                    16,
                    vec![4, 4],
                    32,
                    kind,
                    machine(),
                    seed,
                )
            },
            999,
            file,
        );
    }
}

/// A randomized policy on the heterogeneous workload replays exactly too:
/// its verdict stream is a function of `(seed, iteration)`, so the resumed
/// trainer (same seed) draws what the uninterrupted run drew.
#[test]
fn hetero_random_policy_resume_is_bitwise_identical() {
    let hds = tiny_hetero();
    assert_kill_between_epochs_resumes_bitwise(
        &hds,
        |seed| new_hetero(&hds, PolicyKind::Random, seed),
        7,
        "between_epochs_hetero_random.ckpt",
    );
}

/// Same guarantee mid-epoch: checkpoint after batch 4 of 8 (the caller
/// owns the schedule via `train_on_batches`), resume, finish the
/// remaining batches, and continue a full extra epoch.
#[test]
fn kill_mid_epoch_and_resume_is_bitwise_identical() {
    let ds = tiny();
    let mut schedule_rng = Rng::new(123);
    let batches = split_batches(&ds.train_nodes, 24, Some(&mut schedule_rng));
    assert!(batches.len() >= 6, "need a non-trivial schedule");
    let split = batches.len() / 2;

    // Reference: the whole schedule in one call, then one normal epoch.
    let mut reference = new_trainer(&ds, 11);
    let mut opt_ref = Adam::new(0.01);
    reference.train_on_batches(&ds, &batches, &mut opt_ref);
    reference.train_epoch(&ds, &mut opt_ref);
    let want = reference.model.export_parameters();

    // Interrupted: first half, checkpoint, kill, restore, second half.
    let path = ckpt_dir().join("mid_epoch.ckpt");
    {
        let mut first = new_trainer(&ds, 11);
        let mut opt = Adam::new(0.01);
        first.train_on_batches(&ds, &batches[..split], &mut opt);
        first.checkpoint(&opt).save(&path).expect("save");
    }
    let ckpt = Checkpoint::load(&path).expect("load");
    let mut resumed = new_trainer(&ds, 31337);
    let mut opt = Adam::new(0.01);
    resumed.restore(&ckpt, &mut opt).expect("restore");
    assert_eq!(resumed.iterations() as usize, split, "iteration cursor");
    resumed.train_on_batches(&ds, &batches[split..], &mut opt);
    resumed.train_epoch(&ds, &mut opt);

    let got = resumed.model.export_parameters();
    assert_eq!(want, got, "mid-epoch resume diverged");
    std::fs::remove_file(&path).ok();
}

/// The traffic ledger and cache statistics survive the round trip too —
/// experiment reports from a resumed run match the uninterrupted run.
#[test]
fn counters_and_cache_stats_survive_resume() {
    let ds = tiny();
    let mut reference = new_trainer(&ds, 5);
    let mut opt_ref = Adam::new(0.01);
    for _ in 0..3 {
        reference.train_epoch(&ds, &mut opt_ref);
    }

    let mut first = new_trainer(&ds, 5);
    let mut opt = Adam::new(0.01);
    first.train_epoch(&ds, &mut opt);
    first.train_epoch(&ds, &mut opt);
    let ckpt = Checkpoint::from_bytes(&first.checkpoint(&opt).to_bytes()).unwrap();
    let mut resumed = new_trainer(&ds, 6);
    let mut opt2 = Adam::new(0.01);
    resumed.restore(&ckpt, &mut opt2).unwrap();
    resumed.train_epoch(&ds, &mut opt2);

    assert_eq!(
        reference.counters.host_to_gpu_bytes,
        resumed.counters.host_to_gpu_bytes
    );
    assert_eq!(
        reference.counters.num_transfers,
        resumed.counters.num_transfers
    );
    assert_eq!(reference.cache.stats(), resumed.cache.stats());
    assert_eq!(reference.iterations(), resumed.iterations());
}

/// Corrupting the core segment is a hard checksum error; corrupting the
/// cache segment degrades: the load succeeds, the trainer resumes with an
/// empty cache, and the degradation is recorded in the next EpochStats.
#[test]
fn corrupt_snapshots_follow_the_fault_model() {
    let ds = tiny();
    let mut t = new_trainer(&ds, 9);
    let mut opt = Adam::new(0.01);
    t.train_epoch(&ds, &mut opt);
    assert!(!t.cache.is_empty(), "warm cache before checkpoint");
    let bytes = t.checkpoint(&opt).to_bytes();

    // Core corruption (byte right after magic+version+len) → hard error.
    let mut bad_core = bytes.clone();
    bad_core[21] ^= 0xFF;
    assert!(matches!(
        Checkpoint::from_bytes(&bad_core),
        Err(CheckpointError::ChecksumMismatch { segment: "core" })
    ));

    // Wrong version → descriptive rejection.
    let mut bad_version = bytes.clone();
    bad_version[8..12].copy_from_slice(&(VERSION + 1).to_le_bytes());
    let err = Checkpoint::from_bytes(&bad_version).unwrap_err();
    assert!(err.to_string().contains("version"), "{err}");

    // Not a checkpoint at all.
    let mut bad_magic = bytes.clone();
    bad_magic[..8].copy_from_slice(b"GARBAGE!");
    assert!(!MAGIC.starts_with(b"GARBAGE"));
    assert!(matches!(
        Checkpoint::from_bytes(&bad_magic),
        Err(CheckpointError::BadMagic)
    ));

    // Cache corruption (last payload byte before the final checksum) →
    // graceful degradation.
    let mut bad_cache = bytes.clone();
    let n = bad_cache.len();
    bad_cache[n - 9] ^= 0xFF;
    let ckpt = Checkpoint::from_bytes(&bad_cache).expect("core intact");
    assert!(ckpt.cache_degraded);

    let mut resumed = new_trainer(&ds, 10);
    let mut opt2 = Adam::new(0.01);
    let degraded = resumed.restore(&ckpt, &mut opt2).expect("degraded restore");
    assert!(degraded);
    assert!(resumed.cache.is_empty(), "resume starts cold");
    let stats = resumed.train_epoch(&ds, &mut opt2);
    assert!(stats.cache_degraded, "degradation recorded in EpochStats");
    let stats2 = resumed.train_epoch(&ds, &mut opt2);
    assert!(!stats2.cache_degraded, "flag consumed after one epoch");
}

/// Differential telemetry: replay one epoch twice — straight through vs.
/// killed mid-epoch and restored from a checkpoint — and the two runs'
/// *per-segment deterministic metric streams* must be identical. Restoring
/// re-baselines the registry (`Trainer::restore` republishes the restored
/// cache counters), so second-half deltas line up even though the ring's
/// lookup telemetry itself is not checkpointed.
#[test]
fn metric_stream_after_resume_matches_uninterrupted_run() {
    let ds = tiny();
    let mut schedule_rng = Rng::new(123);
    let batches = split_batches(&ds.train_nodes, 24, Some(&mut schedule_rng));
    let split = batches.len() / 2;

    // Uninterrupted run: first half, metric snapshot, second half.
    let mut reference = new_trainer(&ds, 11);
    let mut opt_ref = Adam::new(0.01);
    reference.train_on_batches(&ds, &batches[..split], &mut opt_ref);
    let mid = reference.obs.metrics.snapshot();
    reference.train_on_batches(&ds, &batches[split..], &mut opt_ref);
    let want = metrics_jsonl(
        "second-half",
        &reference.obs.metrics.delta_since(&mid),
        false, // Exact class only: the deterministic stream
    );

    // Killed run: first half, checkpoint, restore elsewhere, second half.
    let ckpt = {
        let mut first = new_trainer(&ds, 11);
        let mut opt = Adam::new(0.01);
        first.train_on_batches(&ds, &batches[..split], &mut opt);
        Checkpoint::from_bytes(&first.checkpoint(&opt).to_bytes()).unwrap()
    };
    let mut resumed = new_trainer(&ds, 31337);
    let mut opt = Adam::new(0.01);
    resumed.restore(&ckpt, &mut opt).expect("restore");
    let base = resumed.obs.metrics.snapshot();
    resumed.train_on_batches(&ds, &batches[split..], &mut opt);
    let got = metrics_jsonl(
        "second-half",
        &resumed.obs.metrics.delta_since(&base),
        false,
    );

    assert!(!want.is_empty() && want.contains("cache.hist.lookups"));
    assert_eq!(want, got, "resumed metric stream diverged");
}

/// Degraded resume telemetry: with the historical cache disabled by
/// config, dropping the checkpoint's cache segment changes nothing about
/// training — so the degraded run's deterministic metric stream must be
/// identical to the intact run's *except* for the documented
/// `pipeline.cache_degraded_epochs` counter.
#[test]
fn degraded_resume_stream_differs_only_in_degraded_counter() {
    let ds = tiny();
    let no_cache = FreshGnnConfig {
        p_grad: 0.0,
        t_stale: 0,
        fanouts: vec![4, 4],
        batch_size: 32,
        feature_cache_rows: 16,
        ..Default::default()
    };
    let mk = |seed| {
        Trainer::new(
            &ds,
            Arch::Sage,
            16,
            Machine::single_a100(),
            no_cache.clone(),
            seed,
        )
    };

    let mut first = mk(21);
    let mut opt = Adam::new(0.01);
    first.train_epoch(&ds, &mut opt);
    let intact_ckpt = first.checkpoint(&opt);
    let mut dropped_ckpt = intact_ckpt.clone();
    dropped_ckpt.cache = None; // simulate a lost/corrupt cache segment

    let run_second = |ckpt: &Checkpoint, expect_degraded: bool| -> String {
        let mut t = mk(99);
        let mut opt = Adam::new(0.01);
        let degraded = t.restore(ckpt, &mut opt).expect("restore");
        assert_eq!(degraded, expect_degraded);
        let base = t.obs.metrics.snapshot();
        let stats = t.train_epoch(&ds, &mut opt);
        assert_eq!(stats.cache_degraded, expect_degraded);
        metrics_jsonl("resume", &t.obs.metrics.delta_since(&base), false)
    };
    let intact = run_second(&intact_ckpt, false);
    let degraded = run_second(&dropped_ckpt, true);

    let intact_lines: Vec<&str> = intact.lines().collect();
    let degraded_lines: Vec<&str> = degraded.lines().collect();
    let extra: Vec<&&str> = degraded_lines
        .iter()
        .filter(|l| !intact_lines.contains(l))
        .collect();
    assert_eq!(
        extra.len(),
        1,
        "exactly one metric line may differ, got {extra:?}"
    );
    assert!(
        extra[0].contains("pipeline.cache_degraded_epochs"),
        "the only difference must be the documented degraded counter: {}",
        extra[0]
    );
    for l in &intact_lines {
        assert!(
            degraded_lines.contains(l),
            "intact metric line missing from degraded stream: {l}"
        );
    }
}

/// Rollback invariant: restoring a checkpoint whose cache snapshot holds
/// entries stamped *after* the checkpoint's iteration cursor evicts them.
/// A future-stamped entry would report `age = now - stamp = 0` forever and
/// silently violate the `t_stale` bound — exactly the state a
/// rollback-to-baseline would otherwise leave behind in a warm cache.
fn assert_restore_evicts_future_stamped_entries<W: Workload>(
    ds: &W::Dataset,
    new_trainer: impl Fn(u64) -> Driver<W>,
) {
    let mut t = new_trainer(15);
    let mut opt = Adam::new(0.01);
    t.train_epoch(ds, &mut opt);
    let mut early = t.checkpoint(&opt); // iteration cursor at 1 epoch
    t.train_epoch(ds, &mut opt);
    let late = t.checkpoint(&opt); // cache stamped through epoch 2

    // Graft the ran-ahead cache onto the older checkpoint — the shape a
    // rollback restores: core state from the baseline, cache from a run
    // that continued past it.
    early.cache = late.cache.clone();
    let mut grafted = new_trainer(99);
    let mut o1 = Adam::new(0.01);
    grafted.restore(&early, &mut o1).expect("grafted restore");

    // Restore already purged everything stamped past the cursor…
    assert_eq!(
        grafted.cache.evict_newer_than(early.iter),
        0,
        "future-stamped entries survived restore"
    );
    // …and the purge was real: a plain restore of the late checkpoint
    // holds strictly more live entries.
    let mut full = new_trainer(98);
    let mut o2 = Adam::new(0.01);
    full.restore(&late, &mut o2).expect("late restore");
    assert!(
        grafted.cache.len() < full.cache.len(),
        "eviction dropped nothing: grafted {} vs late {}",
        grafted.cache.len(),
        full.cache.len()
    );
}

#[test]
fn restore_evicts_cache_entries_stamped_after_the_checkpoint() {
    let ds = tiny();
    assert_restore_evicts_future_stamped_entries(&ds, |seed| new_trainer(&ds, seed));
    let hds = tiny_hetero();
    assert_restore_evicts_future_stamped_entries(&hds, |seed| {
        new_hetero(&hds, PolicyKind::Gradient, seed)
    });
}

/// A cache snapshot taken under another `t_stale` is incompatible: the
/// resume is cold and degraded, and the cache goes on enforcing the
/// configured bound rather than the checkpoint's.
#[test]
fn restore_rejects_a_cache_snapshot_from_another_t_stale() {
    let ds = tiny();
    let trainer = |t_stale, seed| {
        let cfg = FreshGnnConfig { t_stale, ..cfg() };
        Trainer::new(&ds, Arch::Sage, 16, Machine::single_a100(), cfg, seed)
    };
    let mut donor = trainer(50, 1);
    let mut opt = Adam::new(0.01);
    donor.train_epoch(&ds, &mut opt);
    donor.train_epoch(&ds, &mut opt);
    let ckpt = donor.checkpoint(&opt);

    let mut resumed = trainer(2, 2);
    let mut opt2 = Adam::new(0.01);
    let degraded = resumed.restore(&ckpt, &mut opt2).expect("shapes agree");
    resumed.train_epoch(&ds, &mut opt2);
    let ages = resumed.cache.hit_age_histogram();
    assert_eq!(ages.bounds()[1], 2.0);
    assert!(ages.count() > 0, "the resumed cache serves hits");
    assert_eq!(
        ages.counts()[2..].iter().sum::<u64>(),
        0,
        "hits older than the configured t_stale 2: {:?}",
        ages.counts()
    );
    assert!(degraded, "a t_stale mismatch resumes cold");
}

fn assert_rejects<W: Workload>(mut wrong: Driver<W>, ckpt: &Checkpoint) {
    let mut opt = Adam::new(0.01);
    assert!(matches!(
        wrong.restore(ckpt, &mut opt),
        Err(CheckpointError::ShapeMismatch(_))
    ));
}

/// A checkpoint from a differently-shaped trainer is rejected with
/// ShapeMismatch, not silently imported.
#[test]
fn shape_mismatch_is_rejected() {
    let ds = tiny();
    let mut t = new_trainer(&ds, 1);
    let mut opt = Adam::new(0.01);
    t.train_epoch(&ds, &mut opt);
    let ckpt = t.checkpoint(&opt);
    let machine = Machine::single_a100;

    // Different hidden width.
    assert_rejects(
        Trainer::new(&ds, Arch::Sage, 32, machine(), cfg(), 1),
        &ckpt,
    );
    // Different architecture.
    assert_rejects(Trainer::new(&ds, Arch::Gcn, 16, machine(), cfg(), 1), &ckpt);

    let hds = tiny_hetero();
    let mut h = new_hetero(&hds, PolicyKind::Gradient, 1);
    let mut hopt = Adam::new(0.01);
    h.train_epoch(&hds, &mut hopt);
    let hckpt = h.checkpoint(&hopt);

    // Different hidden width.
    assert_rejects(HeteroTrainer::new(&hds, 32, machine(), cfg(), 1), &hckpt);
    // A homogeneous checkpoint (same arch tag, other dims) into the
    // relational model, and a GCN-tagged one.
    assert_rejects(new_hetero(&hds, PolicyKind::Gradient, 1), &ckpt);
    let mut gcn = Trainer::new(&ds, Arch::Gcn, 16, machine(), cfg(), 1);
    assert_rejects(
        new_hetero(&hds, PolicyKind::Gradient, 1),
        &gcn.checkpoint(&opt),
    );
}
