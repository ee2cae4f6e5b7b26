//! The performance-trajectory sweeps behind the committed `BENCH_*.json`
//! baselines, and the [`Suite`] table of each.
//!
//! `exp_serve`, `exp_ext_policy_frontier`, `exp_train_scaling` and
//! `exp_cluster` print their tables from these loops and `exp_report`
//! re-runs *exactly* the same loops — same seeds, same cell order, same
//! floating-point accumulation — so a clean tree reproduces the committed
//! files byte for byte and any drift is a real behavior change, not harness
//! skew. Each sweep's row type carries a column table ([`crate::table`])
//! from which the file's writer, reader, drift comparison and structural
//! gate derive: worker-count invariance for the train sweep (the overlapped
//! epoch's determinism contract), fault-schedule invariance for the cluster
//! sweep (deterministic shard recovery). Wall-clock is `perf/`'s to measure.

use crate::table::Role::{Context, HigherIsBetter, Key, LowerIsBetter};
use crate::table::{Cell, Column, Invariance, Suite};
use fgnn_graph::datasets::{
    arxiv_spec, friendster_spec, mag240m_spec, papers100m_spec, twitter_spec, DatasetSpec,
};
use fgnn_graph::{Dataset, NodeId};
use fgnn_memsim::fault::{FaultPlan, RetryPolicy};
use fgnn_memsim::presets::Machine;
use fgnn_memsim::ClusterFaultPlan;
use fgnn_nn::model::Arch;
use fgnn_nn::Adam;
use freshgnn::cache::PolicyKind;
use freshgnn::obs::schema;
use freshgnn::serve::{generate_trace, ServeConfig, ServeEngine, ServeReport};
use freshgnn::{ClusterConfig, ClusterTrainer, FreshGnnConfig, Trainer};

/// Knobs of the serving sweep (`exp_serve` defaults).
#[derive(Clone, Debug)]
pub struct ServeSweepConfig {
    /// Master seed (trace, model init, fault plans).
    pub seed: u64,
    /// Dataset scale factor for the arxiv spec.
    pub scale: f64,
    /// Requests per sweep cell.
    pub requests: usize,
    /// Contracted admission rate (requests per simulated second); offered
    /// load is swept at 1× and 2× this rate.
    pub base_rate: f64,
    /// Per-transfer failure probability of the lossy fault plan.
    pub fail: f64,
    /// Exemplar-trace sampling period (`0` disables request tracing,
    /// `1` traces everything); the default matches
    /// [`TelemetryConfig`](freshgnn::serve::TelemetryConfig).
    pub exemplar_every: u64,
}

impl Default for ServeSweepConfig {
    fn default() -> Self {
        ServeSweepConfig {
            seed: 42,
            scale: 0.002,
            requests: 2000,
            base_rate: 4000.0,
            fail: 0.3,
            exemplar_every: freshgnn::serve::TelemetryConfig::default().exemplar_every,
        }
    }
}

/// One served sweep cell.
pub struct ServeCell {
    /// Cell label (`load=1x cap=16 none` style).
    pub label: String,
    /// The engine's run report.
    pub report: ServeReport,
}

/// `BENCH_serve.json`: exact latency percentiles, throughput and shedding
/// per load × cache × fault cell.
pub struct ServeSuite;

impl Suite for ServeSuite {
    type Row = ServeCell;
    const NAME: &'static str = "serve";
    const SCHEMA: &'static str = schema::SERVE_V1;
    const COLUMNS: &'static [Column<ServeCell>] = &[
        Column::new("label", Key(0, ""), |c| Cell::Str(c.label.clone())),
        Column::new("p50Ms", LowerIsBetter, |c| Cell::Float(c.report.p50_ms)),
        Column::new("p95Ms", LowerIsBetter, |c| Cell::Float(c.report.p95_ms)),
        Column::new("p99Ms", LowerIsBetter, |c| Cell::Float(c.report.p99_ms)),
        Column::new("throughputRps", HigherIsBetter, |c| {
            Cell::Float(c.report.throughput_rps)
        }),
        Column::new("shedFraction", LowerIsBetter, |c| {
            Cell::Float(c.report.shed_fraction)
        }),
        Column::new("served", HigherIsBetter, |c| Cell::Int(c.report.served)),
        Column::new("slaViolations", LowerIsBetter, |c| {
            Cell::Int(c.report.sla_violations)
        }),
    ];
    const INJECT: &'static str = "p99Ms";
    const HEADLINE: &'static [&'static str] = &["p99Ms", "throughputRps"];

    fn sweep(seed: u64) -> Vec<ServeCell> {
        let sw = ServeSweepConfig {
            seed,
            ..ServeSweepConfig::default()
        };
        serve_sweep(&serve_dataset(&sw), &sw, |_, _| {})
    }
}

/// The dataset the serving sweep runs over (factored out so the gate
/// materializes the identical graph).
pub fn serve_dataset(cfg: &ServeSweepConfig) -> Dataset {
    Dataset::materialize(arxiv_spec(cfg.scale).with_dim(32), cfg.seed)
}

/// Run the full load × cache × fault serving sweep. `on_cell` fires after
/// each cell with the engine that served it (`exp_serve` prints its table
/// row, and renders the cell's exports when a flag asked for them).
pub fn serve_sweep(
    ds: &Dataset,
    sw: &ServeSweepConfig,
    mut on_cell: impl FnMut(&ServeCell, &ServeEngine),
) -> Vec<ServeCell> {
    let mut cells = Vec::new();
    for &load in &[1.0f64, 2.0] {
        for &cache in &[16usize, 256] {
            for fault in ["none", "lossy", "breaker"] {
                let mut cfg = ServeConfig {
                    seed: sw.seed,
                    ..ServeConfig::default()
                };
                cfg.trace.num_requests = sw.requests;
                cfg.trace.num_nodes = cfg.trace.num_nodes.min(ds.num_nodes());
                cfg.trace.rate_rps = sw.base_rate * load;
                cfg.admission.rate_rps = sw.base_rate;
                cfg.freshness.cache_capacity = cache;
                cfg.telemetry.exemplar_every = sw.exemplar_every;
                let trace = generate_trace(&cfg.trace, sw.seed);
                let num_trace_nodes = cfg.trace.num_nodes;

                let mut eng = ServeEngine::new(ds, 32, Machine::single_a100(), cfg)
                    .expect("valid sweep config");
                match fault {
                    "lossy" => eng.inject_faults(
                        FaultPlan::new(sw.seed ^ 0x5E17).with_fail_prob(sw.fail),
                        RetryPolicy {
                            max_retries: 2,
                            ..Default::default()
                        },
                    ),
                    "breaker" => {
                        // Degraded drill: warm every servable node, then
                        // force the breaker open so reads must come from
                        // cache under each request's own staleness budget.
                        let nodes: Vec<NodeId> = (0..num_trace_nodes as NodeId).collect();
                        eng.warm(&nodes);
                        eng.inject_faults(
                            FaultPlan::new(sw.seed ^ 0x5E17).with_fail_prob(sw.fail),
                            RetryPolicy::default(),
                        );
                        eng.trip_breaker();
                    }
                    _ => {}
                }

                let report = eng.run(&trace).expect("sweep run serves something");
                let label = format!("load={load}x cap={cache} {fault}");
                let cell = ServeCell { label, report };
                on_cell(&cell, &eng);
                cells.push(cell);
            }
        }
    }
    cells
}

/// One point on the accuracy-vs-cache-traffic frontier: a (policy,
/// dataset) cell of the sweep.
#[derive(Clone, Debug, PartialEq)]
pub struct PolicyFrontierRow {
    /// Policy name (the `PolicyKind` display form, e.g. `"gradient"`).
    pub policy: String,
    /// Dataset label (e.g. `"papers100m"`).
    pub dataset: String,
    /// Final test accuracy on the fixed config.
    pub accuracy: f64,
    /// Total host-to-device feature bytes moved over the run.
    pub h2d_bytes: u64,
    /// Fraction of feature I/O avoided versus the cache-off baseline.
    pub io_saving: f64,
    /// Historical-cache hit rate over the run.
    pub hit_rate: f64,
    /// Hits declined by the policy's refresh schedule (forced recomputes).
    pub scheduled_refreshes: u64,
    /// Reads extrapolated along update history.
    pub predicted_reads: u64,
    /// Reads scaled by a staleness weight.
    pub weighted_reads: u64,
}

/// `BENCH_policy.json`: the staleness-policy frontier (exact counters and
/// deterministic floats only); the row label is `dataset/policy`.
pub struct PolicySuite;

impl Suite for PolicySuite {
    type Row = PolicyFrontierRow;
    const NAME: &'static str = "policy";
    const SCHEMA: &'static str = schema::POLICY_V1;
    const COLUMNS: &'static [Column<PolicyFrontierRow>] = &[
        Column::new("policy", Key(1, ""), |r| Cell::Str(r.policy.clone())),
        Column::new("dataset", Key(0, ""), |r| Cell::Str(r.dataset.clone())),
        Column::new("accuracy", HigherIsBetter, |r| Cell::Float(r.accuracy)),
        Column::new("h2dBytes", LowerIsBetter, |r| Cell::Int(r.h2d_bytes)),
        Column::new("ioSaving", HigherIsBetter, |r| Cell::Float(r.io_saving)),
        Column::new("hitRate", HigherIsBetter, |r| Cell::Float(r.hit_rate)),
        Column::new("scheduledRefreshes", Context, |r| {
            Cell::Int(r.scheduled_refreshes)
        }),
        Column::new("predictedReads", Context, |r| Cell::Int(r.predicted_reads)),
        Column::new("weightedReads", Context, |r| Cell::Int(r.weighted_reads)),
    ];
    const INJECT: &'static str = "h2dBytes";
    const HEADLINE: &'static [&'static str] = &["h2dBytes", "ioSaving"];

    fn sweep(seed: u64) -> Vec<PolicyFrontierRow> {
        let sw = PolicySweepConfig {
            seed,
            ..PolicySweepConfig::default()
        };
        policy_sweep(&sw, |_| {})
    }
}

/// Knobs of the policy-frontier sweep (`exp_ext_policy_frontier` defaults).
#[derive(Clone, Debug)]
pub struct PolicySweepConfig {
    /// Master seed.
    pub seed: u64,
    /// Dataset scale factor over the per-dataset base scales.
    pub scale: f64,
    /// Training epochs per cell.
    pub epochs: usize,
    /// Staleness bound (iterations).
    pub t_stale: u32,
    /// Gradient-norm admission percentile.
    pub p: f32,
    /// Restrict the sweep to one policy (`--policy`).
    pub only: Option<PolicyKind>,
}

impl Default for PolicySweepConfig {
    fn default() -> Self {
        PolicySweepConfig {
            seed: 42,
            scale: 1.0,
            epochs: 10,
            t_stale: 30,
            p: 0.9,
            only: None,
        }
    }
}

/// The frontier sweep: baseline plus the three literature policies.
pub const POLICIES: [PolicyKind; 4] = [
    PolicyKind::Gradient,
    PolicyKind::StalenessWeighted,
    PolicyKind::Predictive,
    PolicyKind::CoarseRefresh,
];

/// Fig 10 datasets at frontier scale: `(label, spec)` with per-dataset
/// base scales chosen so each graph lands near ~5k nodes at `--scale 1`,
/// and feature dims capped so the sweep stays minutes-fast.
pub fn policy_datasets(scale: f64) -> Vec<(&'static str, DatasetSpec)> {
    vec![
        ("papers100m", papers100m_spec(5.0e-5 * scale).with_dim(32)),
        ("mag240m", mag240m_spec(2.0e-5 * scale).with_dim(32)),
        ("twitter", twitter_spec(1.2e-4 * scale).with_dim(32)),
        ("friendster", friendster_spec(8.0e-5 * scale).with_dim(32)),
    ]
}

/// Run the dataset × policy frontier sweep. `on_row` fires after each
/// cell (the binary prints its table incrementally from it).
pub fn policy_sweep(
    sw: &PolicySweepConfig,
    mut on_row: impl FnMut(&PolicyFrontierRow),
) -> Vec<PolicyFrontierRow> {
    let sweep: Vec<PolicyKind> = match sw.only {
        Some(kind) => vec![kind],
        None => POLICIES.to_vec(),
    };
    let mut rows = Vec::new();
    for (label, spec) in policy_datasets(sw.scale) {
        let ds = Dataset::materialize(spec, sw.seed);
        for &kind in &sweep {
            let cfg = FreshGnnConfig {
                p_grad: sw.p,
                t_stale: sw.t_stale,
                fanouts: vec![4, 4],
                batch_size: 32,
                policy: kind,
                ..Default::default()
            };
            let mut t = Trainer::new(&ds, Arch::Sage, 32, Machine::single_a100(), cfg, sw.seed);
            let mut opt = Adam::new(0.003);
            for _ in 0..sw.epochs {
                t.train_epoch(&ds, &mut opt);
            }
            let eval = &ds.test_nodes[..ds.test_nodes.len().min(500)];
            let acc = t.evaluate(&ds, eval, 256);
            let stats = t.cache.stats();
            let r = PolicyFrontierRow {
                policy: kind.name().to_string(),
                dataset: label.to_string(),
                accuracy: acc,
                h2d_bytes: t.counters.host_to_gpu_bytes,
                io_saving: t.counters.io_saving(),
                hit_rate: stats.hit_rate(),
                scheduled_refreshes: stats.scheduled_refreshes,
                predicted_reads: stats.predicted_reads,
                weighted_reads: stats.weighted_reads,
            };
            on_row(&r);
            rows.push(r);
        }
    }
    rows
}

/// One cell of the training worker-scaling sweep: a (dataset, worker
/// count) point of the fig 10 epoch-time experiment (`0` workers: the
/// synchronous epoch).
#[derive(Clone, Debug, PartialEq)]
pub struct TrainScalingRow {
    /// Dataset label (e.g. `"papers100m"`).
    pub dataset: String,
    /// Runtime worker threads the epochs ran with (`0`: none).
    pub workers: usize,
    /// Final-epoch mean mini-batch loss.
    pub mean_loss: f64,
    /// Total host-to-device feature bytes.
    pub h2d_bytes: u64,
    /// Simulated GPU-stream seconds: transfer + retry + compute, without
    /// the *measured* sample/prune wall components of the full ledger.
    pub sim_seconds: f64,
}

/// `BENCH_train.json`: every column is exact and must not depend on the
/// worker count, zero included (batches commit in index order, on the
/// synchronous stream).
pub struct TrainSuite;

impl Suite for TrainSuite {
    type Row = TrainScalingRow;
    const NAME: &'static str = "train";
    const SCHEMA: &'static str = schema::TRAIN_V1;
    const COLUMNS: &'static [Column<TrainScalingRow>] = &[
        Column::new("dataset", Key(0, ""), |r| Cell::Str(r.dataset.clone())),
        Column::new("workers", Key(1, "w"), |r| Cell::Int(r.workers as u64)),
        Column::new("meanLoss", LowerIsBetter, |r| Cell::Float(r.mean_loss)),
        Column::new("h2dBytes", LowerIsBetter, |r| Cell::Int(r.h2d_bytes)),
        Column::new("simSeconds", LowerIsBetter, |r| Cell::Float(r.sim_seconds)),
    ];
    const INJECT: &'static str = "simSeconds";
    const HEADLINE: &'static [&'static str] = &["simSeconds"];
    const INVARIANCE: Option<Invariance> = Some(Invariance {
        same: &["dataset"],
        columns: &["meanLoss", "h2dBytes", "simSeconds"],
    });

    fn sweep(seed: u64) -> Vec<TrainScalingRow> {
        let sw = TrainSweepConfig {
            seed,
            ..TrainSweepConfig::default()
        };
        train_sweep(&sw, |_| {})
    }
}

/// Knobs of the training worker-scaling sweep (`exp_train_scaling`
/// defaults). The sweep runs [`Trainer::train_epoch_async`] over the fig 10
/// datasets at each worker count — `0` samples on the training thread, the
/// rest overlap sampling with training — proving the
/// gated metrics are worker-count invariant.
#[derive(Clone, Debug)]
pub struct TrainSweepConfig {
    /// Master seed (dataset materialization, model init, batch shuffles).
    pub seed: u64,
    /// Dataset scale factor over the per-dataset base scales.
    pub scale: f64,
    /// Training epochs per cell.
    pub epochs: usize,
    /// Runtime worker counts to sweep.
    pub workers: Vec<usize>,
    /// Sampler prefetch queue capacity.
    pub queue_capacity: usize,
}

impl Default for TrainSweepConfig {
    fn default() -> Self {
        TrainSweepConfig {
            seed: 42,
            scale: 1.0,
            epochs: 2,
            workers: vec![0, 1, 2, 4, 8],
            queue_capacity: 8,
        }
    }
}

/// Run the dataset × worker-count training sweep. `on_row` fires after
/// each cell (the binary prints its table incrementally from it).
pub fn train_sweep(
    sw: &TrainSweepConfig,
    mut on_row: impl FnMut(&TrainScalingRow),
) -> Vec<TrainScalingRow> {
    let mut rows = Vec::new();
    for (label, spec) in policy_datasets(sw.scale) {
        let ds = Dataset::materialize(spec, sw.seed);
        for &workers in &sw.workers {
            let cfg = FreshGnnConfig {
                fanouts: vec![4, 4],
                batch_size: 32,
                ..Default::default()
            };
            let mut t = Trainer::new(&ds, Arch::Sage, 32, Machine::single_a100(), cfg, sw.seed);
            let mut opt = Adam::new(0.003);
            let mut mean_loss = 0.0;
            for _ in 0..sw.epochs {
                let stats = t
                    .train_epoch_async(&ds, &mut opt, workers, sw.queue_capacity)
                    .expect("fault-free sweep epoch");
                mean_loss = stats.mean_loss;
            }
            let c = &t.counters;
            let r = TrainScalingRow {
                dataset: label.to_string(),
                workers,
                mean_loss,
                h2d_bytes: c.host_to_gpu_bytes,
                // Exact GPU-stream time only: the measured sample/prune
                // wall components would vary with the schedule.
                sim_seconds: c.transfer_seconds + c.retry_seconds + c.compute_seconds,
            };
            on_row(&r);
            rows.push(r);
        }
    }
    rows
}

/// One cell of the cluster sweep: a (dataset, host count, fault schedule)
/// point. Every column is exact.
#[derive(Clone, Debug, PartialEq)]
pub struct ClusterBenchRow {
    /// Dataset label (e.g. `"papers100m"`).
    pub dataset: String,
    /// Hosts (= shards = failure domains) in the cluster.
    pub hosts: usize,
    /// Fault-schedule label (`"none"`, `"crash"`, …).
    pub schedule: String,
    /// Final-epoch cluster mean loss.
    pub mean_loss: f64,
    /// Total host-to-GPU feature bytes across hosts.
    pub h2d_bytes: u64,
    /// Inter-host NIC bytes moved, including recovery re-fetches.
    pub nic_bytes: u64,
    /// Simulated seconds: slowest host's pipeline stream + NIC + retry time.
    pub sim_seconds: f64,
    /// Halo entries served stale by a peer for a dead owner.
    pub degraded_reads: u64,
    /// Worst staleness (rounds) any degraded read was served at (bounded by
    /// `t_stale`).
    pub max_staleness: u64,
}

/// `BENCH_cluster.json`: every column regresses upward — higher loss, more
/// traffic, more simulated time, more degraded reads or worse staleness all
/// mean a less efficient or less healthy cluster under the same schedule.
/// Recovery replays a crashed host onto the fault-free trajectory, so loss
/// and H2D bytes must not depend on the schedule; NIC traffic and staleness
/// are what the faults cost.
pub struct ClusterSuite;

impl Suite for ClusterSuite {
    type Row = ClusterBenchRow;
    const NAME: &'static str = "cluster";
    const SCHEMA: &'static str = schema::CLUSTER_V1;
    const COLUMNS: &'static [Column<ClusterBenchRow>] = &[
        Column::new("dataset", Key(0, ""), |r| Cell::Str(r.dataset.clone())),
        Column::new("hosts", Key(1, "h"), |r| Cell::Int(r.hosts as u64)),
        Column::new("schedule", Key(2, ""), |r| Cell::Str(r.schedule.clone())),
        Column::new("meanLoss", LowerIsBetter, |r| Cell::Float(r.mean_loss)),
        Column::new("h2dBytes", LowerIsBetter, |r| Cell::Int(r.h2d_bytes)),
        Column::new("nicBytes", LowerIsBetter, |r| Cell::Int(r.nic_bytes)),
        Column::new("simSeconds", LowerIsBetter, |r| Cell::Float(r.sim_seconds)),
        Column::new("degradedReads", LowerIsBetter, |r| {
            Cell::Int(r.degraded_reads)
        }),
        Column::new("maxStaleness", LowerIsBetter, |r| {
            Cell::Int(r.max_staleness)
        }),
    ];
    const INJECT: &'static str = "nicBytes";
    const HEADLINE: &'static [&'static str] = &["nicBytes", "maxStaleness"];
    const INVARIANCE: Option<Invariance> = Some(Invariance {
        same: &["dataset", "hosts"],
        columns: &["meanLoss", "h2dBytes"],
    });

    fn sweep(seed: u64) -> Vec<ClusterBenchRow> {
        let sw = ClusterSweepConfig {
            seed,
            ..ClusterSweepConfig::default()
        };
        cluster_sweep(&sw, |_| {})
    }
}

/// Knobs of the multi-host cluster sweep (`exp_cluster` defaults). Each
/// cell partitions a fig 10 dataset across `hosts` failure domains and
/// trains it through [`ClusterTrainer`] under one of the named fault
/// `schedules`; the gated columns are exact simulated quantities, and the
/// crash schedule must reproduce the fault-free committed metrics bit for
/// bit (the shard-recovery contract).
#[derive(Clone, Debug)]
pub struct ClusterSweepConfig {
    /// Master seed (dataset materialization, per-host trainer seeds).
    pub seed: u64,
    /// Dataset scale factor over the per-dataset base scales.
    pub scale: f64,
    /// Training epochs per cell.
    pub epochs: u32,
    /// Host counts (= shards = failure domains) to sweep.
    pub hosts: Vec<usize>,
    /// Fault-schedule labels to sweep (see [`cluster_fault_plan`]).
    pub schedules: Vec<String>,
}

impl Default for ClusterSweepConfig {
    fn default() -> Self {
        ClusterSweepConfig {
            seed: 42,
            scale: 1.0,
            epochs: 2,
            hosts: vec![1, 2, 4],
            schedules: vec!["none".to_string(), "crash".to_string()],
        }
    }
}

/// The named fault schedules of the cluster sweep. `"none"` is fault-free;
/// `"crash"` kills the last host at round 2 and restarts it at round 6 —
/// early enough that every epoch of the sweep exercises detection,
/// degraded peer serving and checkpoint recovery.
pub fn cluster_fault_plan(schedule: &str, hosts: usize) -> ClusterFaultPlan {
    match schedule {
        "none" => ClusterFaultPlan::none(),
        "crash" => {
            let victim = hosts - 1;
            ClusterFaultPlan::none()
                .with_crash(2, victim)
                .with_restart(6, victim)
        }
        other => panic!("unknown cluster fault schedule '{other}' (expected none|crash)"),
    }
}

/// Run the dataset × host-count × fault-schedule cluster sweep. `on_row`
/// fires after each cell (the binary prints its table incrementally from
/// it).
pub fn cluster_sweep(
    sw: &ClusterSweepConfig,
    mut on_row: impl FnMut(&ClusterBenchRow),
) -> Vec<ClusterBenchRow> {
    let mut rows = Vec::new();
    for (label, spec) in policy_datasets(sw.scale) {
        let ds = Dataset::materialize(spec, sw.seed);
        for &hosts in &sw.hosts {
            for schedule in &sw.schedules {
                let cfg = ClusterConfig {
                    num_hosts: hosts,
                    train: FreshGnnConfig {
                        fanouts: vec![4, 4],
                        batch_size: 32,
                        ..Default::default()
                    },
                    ..Default::default()
                };
                let mut ct = ClusterTrainer::new(&ds, cfg, sw.seed).expect("valid sweep cluster");
                ct.inject_cluster_faults(cluster_fault_plan(schedule, hosts))
                    .expect("valid sweep fault schedule");
                let report = ct.train(sw.epochs).expect("fault schedules recover");
                let r = ClusterBenchRow {
                    dataset: label.to_string(),
                    hosts,
                    schedule: schedule.clone(),
                    mean_loss: *report
                        .epoch_losses
                        .last()
                        .expect("sweep trains at least one epoch"),
                    h2d_bytes: report.h2d_bytes,
                    nic_bytes: report.comms.nic_bytes,
                    sim_seconds: report.sim_seconds,
                    degraded_reads: report.ledger.degraded_reads,
                    max_staleness: report.ledger.max_staleness,
                };
                on_row(&r);
                rows.push(r);
            }
        }
    }
    rows
}
