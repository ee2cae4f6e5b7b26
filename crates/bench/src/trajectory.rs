//! The performance-trajectory sweeps and the regression gate behind them.
//!
//! `exp_serve` and `exp_ext_policy_frontier` used to own their sweep loops
//! inline; `exp_report` needs to re-run *exactly* those loops to compare a
//! fresh machine against the committed `BENCH_serve.json` /
//! `BENCH_policy.json` baselines. This module is the single source of
//! truth: the binaries call [`serve_sweep`] / [`policy_sweep`] for their
//! tables, and the gate calls the same functions — same seeds, same cell
//! order, same floating-point accumulation — so a clean tree reproduces
//! the committed baselines bit for bit and any drift is a real behavior
//! change, not harness skew.
//!
//! The comparison itself ([`compare_serve`], [`compare_policy`],
//! [`compare_train`]) applies per-metric tolerances: exact simulated
//! quantities get a tight relative band (they should be *equal*; the band
//! exists so a deliberate regression of ≥10% always trips while FP-noise
//! never does).
//!
//! [`train_sweep`] covers the third baseline, `BENCH_train.json`: the
//! fig 10 datasets trained through the overlapped epoch at 1/2/4/8
//! workers. Its gate is stricter — [`worker_invariance_checks`] demands
//! the exact metrics reproduce the single-worker row *bit for bit* at
//! every worker count. (Wall-clock against worker count is `perf/`'s to
//! measure, not this sweep's.)

use fgnn_graph::datasets::{
    arxiv_spec, friendster_spec, mag240m_spec, papers100m_spec, twitter_spec, DatasetSpec,
};
use fgnn_graph::{Dataset, NodeId};
use fgnn_memsim::fault::{FaultPlan, RetryPolicy};
use fgnn_memsim::presets::Machine;
use fgnn_memsim::ClusterFaultPlan;
use fgnn_nn::model::Arch;
use fgnn_nn::Adam;
use freshgnn::cache::{PolicyFrontierRow, PolicyKind};
use freshgnn::cluster::ClusterBenchRow;
use freshgnn::runtime::TrainScalingRow;
use freshgnn::serve::{
    generate_trace, serve_jsonl, serve_trace_jsonl, ServeConfig, ServeEngine, ServeReport,
};
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
    /// Render the per-cell JSONL exports into [`ServeCell`]. Off by
    /// default: the regression gate compares reports only, and the
    /// binaries enable it exactly when an `--*-out` flag asks for the
    /// bytes — so export rendering never taxes runs that discard it.
    pub render_exports: bool,
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
            render_exports: false,
        }
    }
}

/// One served sweep cell: the run report plus its rendered exports.
pub struct ServeCell {
    /// Cell label (`load=1x cap=16 none` style).
    pub label: String,
    /// The engine's run report.
    pub report: ServeReport,
    /// Rendered `fgnn-serve-v1` JSONL for this cell (empty unless
    /// [`ServeSweepConfig::render_exports`] is set).
    pub serve_jsonl: String,
    /// Rendered `fgnn-serve-trace-v1` JSONL (request spans + alerts;
    /// empty unless [`ServeSweepConfig::render_exports`] is set).
    pub trace_jsonl: String,
}

/// The dataset the serving sweep runs over (factored out so the gate
/// materializes the identical graph).
pub fn serve_dataset(cfg: &ServeSweepConfig) -> Dataset {
    Dataset::materialize(arxiv_spec(cfg.scale).with_dim(32), cfg.seed)
}

/// Run the full load × cache × fault serving sweep. `on_cell` fires after
/// each cell (the binaries print their table rows incrementally from it).
pub fn serve_sweep(
    ds: &Dataset,
    sw: &ServeSweepConfig,
    mut on_cell: impl FnMut(&ServeCell),
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
                let (serve_doc, trace_doc) = if sw.render_exports {
                    (
                        serve_jsonl(&label, &report, &eng.obs),
                        serve_trace_jsonl(&label, eng.request_tracer(), eng.alerts()),
                    )
                } else {
                    (String::new(), String::new())
                };
                let cell = ServeCell {
                    serve_jsonl: serve_doc,
                    trace_jsonl: trace_doc,
                    label,
                    report,
                };
                on_cell(&cell);
                cells.push(cell);
            }
        }
    }
    cells
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

/// Knobs of the training worker-scaling sweep (`exp_train_scaling`
/// defaults). The sweep runs [`Trainer::train_epoch_async`] — the
/// overlapped epoch — over the fig 10 datasets at each worker count,
/// proving the gated metrics are worker-count invariant.
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
            workers: vec![1, 2, 4, 8],
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

/// One metric comparison inside the regression gate.
#[derive(Clone, Debug)]
pub struct MetricCheck {
    /// Which sweep row (serve-cell label or `dataset/policy`).
    pub label: String,
    /// Metric name as it appears in the baseline document.
    pub metric: &'static str,
    /// Committed baseline value.
    pub baseline: f64,
    /// Freshly measured value.
    pub fresh: f64,
    /// Allowed relative drift before the gate trips.
    pub tolerance: f64,
    /// Whether a *higher* fresh value is the regression direction
    /// (latency, traffic) — improvements never trip the gate.
    pub higher_is_worse: bool,
}

impl MetricCheck {
    /// Signed relative drift of fresh vs baseline (0 when both are 0).
    pub fn drift(&self) -> f64 {
        if self.baseline == 0.0 {
            if self.fresh == 0.0 {
                0.0
            } else {
                f64::INFINITY * self.fresh.signum()
            }
        } else {
            (self.fresh - self.baseline) / self.baseline.abs()
        }
    }

    /// Whether this metric regressed past its tolerance.
    pub fn regressed(&self) -> bool {
        let d = self.drift();
        let bad = if self.higher_is_worse { d } else { -d };
        bad > self.tolerance
    }

    /// Whether fresh reproduces the baseline bit for bit.
    pub fn bit_identical(&self) -> bool {
        self.fresh.to_bits() == self.baseline.to_bits()
    }
}

/// Default relative tolerance: exact quantities should match to the bit,
/// but the band must sit clearly under the 10% injected-regression floor
/// the CI gate proves against.
pub const DEFAULT_TOLERANCE: f64 = 0.05;

/// Compare a fresh serving sweep against baseline `(label, metric → value)`
/// rows parsed from `BENCH_serve.json`. Produces one [`MetricCheck`] per
/// gated metric per matched label; labels present in only one side are
/// reported as a check against NaN (always a regression).
pub fn compare_serve(
    baseline: &[(String, Vec<(&'static str, f64)>)],
    fresh: &[ServeCell],
    tolerance: f64,
) -> Vec<MetricCheck> {
    let mut checks = Vec::new();
    for (label, base_metrics) in baseline {
        let Some(cell) = fresh.iter().find(|c| &c.label == label) else {
            checks.push(MetricCheck {
                label: label.clone(),
                metric: "present",
                baseline: 1.0,
                fresh: 0.0,
                tolerance,
                higher_is_worse: false,
            });
            continue;
        };
        let r = &cell.report;
        for &(metric, base) in base_metrics {
            let (fresh_v, higher_is_worse) = match metric {
                "p50Ms" => (r.p50_ms, true),
                "p95Ms" => (r.p95_ms, true),
                "p99Ms" => (r.p99_ms, true),
                "throughputRps" => (r.throughput_rps, false),
                "shedFraction" => (r.shed_fraction, true),
                "served" => (r.served as f64, false),
                "slaViolations" => (r.sla_violations as f64, true),
                _ => continue,
            };
            checks.push(MetricCheck {
                label: label.clone(),
                metric,
                baseline: base,
                fresh: fresh_v,
                tolerance,
                higher_is_worse,
            });
        }
    }
    checks
}

/// Compare a fresh policy-frontier sweep against baseline rows parsed
/// from `BENCH_policy.json`, keyed by `dataset/policy`.
pub fn compare_policy(
    baseline: &[(String, Vec<(&'static str, f64)>)],
    fresh: &[PolicyFrontierRow],
    tolerance: f64,
) -> Vec<MetricCheck> {
    let mut checks = Vec::new();
    for (key, base_metrics) in baseline {
        let found = fresh
            .iter()
            .find(|r| format!("{}/{}", r.dataset, r.policy) == *key);
        let Some(r) = found else {
            checks.push(MetricCheck {
                label: key.clone(),
                metric: "present",
                baseline: 1.0,
                fresh: 0.0,
                tolerance,
                higher_is_worse: false,
            });
            continue;
        };
        for &(metric, base) in base_metrics {
            let (fresh_v, higher_is_worse) = match metric {
                "accuracy" => (r.accuracy, false),
                "h2dBytes" => (r.h2d_bytes as f64, true),
                "ioSaving" => (r.io_saving, false),
                "hitRate" => (r.hit_rate, false),
                _ => continue,
            };
            checks.push(MetricCheck {
                label: key.clone(),
                metric,
                baseline: base,
                fresh: fresh_v,
                tolerance,
                higher_is_worse,
            });
        }
    }
    checks
}

/// Compare a fresh training worker-scaling sweep against baseline rows
/// parsed from `BENCH_train.json`, keyed by `dataset/w{N}`: `meanLoss`,
/// `h2dBytes` and `simSeconds`, all exact.
pub fn compare_train(
    baseline: &[(String, Vec<(&'static str, f64)>)],
    fresh: &[TrainScalingRow],
    tolerance: f64,
) -> Vec<MetricCheck> {
    let mut checks = Vec::new();
    for (key, base_metrics) in baseline {
        let found = fresh
            .iter()
            .find(|r| format!("{}/w{}", r.dataset, r.workers) == *key);
        let Some(r) = found else {
            checks.push(MetricCheck {
                label: key.clone(),
                metric: "present",
                baseline: 1.0,
                fresh: 0.0,
                tolerance,
                higher_is_worse: false,
            });
            continue;
        };
        for &(metric, base) in base_metrics {
            let (fresh_v, higher_is_worse) = match metric {
                "meanLoss" => (r.mean_loss, true),
                "h2dBytes" => (r.h2d_bytes as f64, true),
                "simSeconds" => (r.sim_seconds, true),
                _ => continue,
            };
            checks.push(MetricCheck {
                label: key.clone(),
                metric,
                baseline: base,
                fresh: fresh_v,
                tolerance,
                higher_is_worse,
            });
        }
    }
    checks
}

/// Compare a fresh cluster sweep against baseline rows parsed from
/// `BENCH_cluster.json`, keyed by `dataset/h{N}/{schedule}`. Every gated
/// metric is an exact simulated quantity and every one regresses upward:
/// higher loss, more traffic, more simulated time, more degraded reads or
/// worse staleness all mean the cluster got less efficient or less
/// healthy under the same schedule.
pub fn compare_cluster(
    baseline: &[(String, Vec<(&'static str, f64)>)],
    fresh: &[ClusterBenchRow],
    tolerance: f64,
) -> Vec<MetricCheck> {
    let mut checks = Vec::new();
    for (key, base_metrics) in baseline {
        let found = fresh
            .iter()
            .find(|r| format!("{}/h{}/{}", r.dataset, r.hosts, r.schedule) == *key);
        let Some(r) = found else {
            checks.push(MetricCheck {
                label: key.clone(),
                metric: "present",
                baseline: 1.0,
                fresh: 0.0,
                tolerance,
                higher_is_worse: false,
            });
            continue;
        };
        for &(metric, base) in base_metrics {
            let fresh_v = match metric {
                "meanLoss" => r.mean_loss,
                "h2dBytes" => r.h2d_bytes as f64,
                "nicBytes" => r.nic_bytes as f64,
                "simSeconds" => r.sim_seconds,
                "degradedReads" => r.degraded_reads as f64,
                "maxStaleness" => r.max_staleness as f64,
                _ => continue,
            };
            checks.push(MetricCheck {
                label: key.clone(),
                metric,
                baseline: base,
                fresh: fresh_v,
                tolerance,
                higher_is_worse: true,
            });
        }
    }
    checks
}

/// Fault-invariance checks over a fresh cluster sweep: for each (dataset,
/// host count), the committed training quantities of every fault schedule
/// must reproduce the `"none"` schedule bit for bit — deterministic shard
/// recovery replays crashed hosts back onto the fault-free trajectory.
/// Zero tolerance: one ULP of loss or one byte of H2D drift trips the
/// gate. NIC traffic and staleness legitimately differ (that is what the
/// faults cost), so only loss and H2D bytes are pinned.
pub fn fault_invariance_checks(fresh: &[ClusterBenchRow]) -> Vec<MetricCheck> {
    let mut checks = Vec::new();
    for reference in fresh.iter().filter(|r| r.schedule == "none") {
        for r in fresh.iter().filter(|r| {
            r.dataset == reference.dataset && r.hosts == reference.hosts && r.schedule != "none"
        }) {
            for (metric, base, fresh_v) in [
                ("meanLoss", reference.mean_loss, r.mean_loss),
                ("h2dBytes", reference.h2d_bytes as f64, r.h2d_bytes as f64),
            ] {
                checks.push(MetricCheck {
                    label: format!("{}/h{}/none={}", r.dataset, r.hosts, r.schedule),
                    metric,
                    baseline: base.min(fresh_v),
                    fresh: base.max(fresh_v),
                    tolerance: 0.0,
                    higher_is_worse: true,
                });
            }
        }
    }
    checks
}

/// Cross-worker invariance checks over a fresh training sweep: for each
/// dataset, every gated metric at every worker count must reproduce the
/// lowest-worker-count row bit for bit (the runtime's determinism
/// contract). Each check stores the two values min/max-ordered with a
/// zero tolerance, so *any* difference — either direction, even one ULP —
/// trips [`MetricCheck::regressed`], and equality shows as `bit=`.
pub fn worker_invariance_checks(fresh: &[TrainScalingRow]) -> Vec<MetricCheck> {
    let mut checks = Vec::new();
    let mut datasets: Vec<&str> = fresh.iter().map(|r| r.dataset.as_str()).collect();
    datasets.dedup();
    for dataset in datasets {
        let mut of_ds: Vec<&TrainScalingRow> =
            fresh.iter().filter(|r| r.dataset == dataset).collect();
        of_ds.sort_by_key(|r| r.workers);
        let Some((reference, rest)) = of_ds.split_first() else {
            continue;
        };
        for r in rest {
            for (metric, base, fresh_v) in [
                ("meanLoss", reference.mean_loss, r.mean_loss),
                ("h2dBytes", reference.h2d_bytes as f64, r.h2d_bytes as f64),
                ("simSeconds", reference.sim_seconds, r.sim_seconds),
            ] {
                checks.push(MetricCheck {
                    label: format!("{}/w{}=w{}", dataset, reference.workers, r.workers),
                    metric,
                    baseline: base.min(fresh_v),
                    fresh: base.max(fresh_v),
                    tolerance: 0.0,
                    higher_is_worse: true,
                });
            }
        }
    }
    checks
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(baseline: f64, fresh: f64, higher_is_worse: bool) -> MetricCheck {
        MetricCheck {
            label: "cell".into(),
            metric: "p99Ms",
            baseline,
            fresh,
            tolerance: DEFAULT_TOLERANCE,
            higher_is_worse,
        }
    }

    #[test]
    fn regression_direction_respects_metric_polarity() {
        // +10% latency: regression. −10% latency: improvement.
        assert!(check(2.0, 2.2, true).regressed());
        assert!(!check(2.0, 1.8, true).regressed());
        // +10% throughput: improvement. −10% throughput: regression.
        assert!(!check(4000.0, 4400.0, false).regressed());
        assert!(check(4000.0, 3600.0, false).regressed());
        // Inside the band: no trip either way.
        assert!(!check(2.0, 2.04, true).regressed());
        assert!(!check(2.0, 1.96, true).regressed());
    }

    #[test]
    fn zero_baselines_trip_only_on_nonzero_fresh_regressions() {
        assert!(!check(0.0, 0.0, true).regressed());
        assert!(check(0.0, 1.0, true).regressed(), "0 → 1 violations trips");
        assert!(!check(0.0, 1.0, false).regressed(), "improvement direction");
    }

    #[test]
    fn bit_identity_is_exact() {
        assert!(check(2.0816, 2.0816, true).bit_identical());
        assert!(!check(2.0816, 2.0816 + f64::EPSILON * 4.0, true).bit_identical());
    }

    #[test]
    fn compare_serve_flags_missing_labels() {
        let baseline = vec![("load=9x cap=1 none".to_string(), vec![("p99Ms", 2.0)])];
        let checks = compare_serve(&baseline, &[], DEFAULT_TOLERANCE);
        assert_eq!(checks.len(), 1);
        assert_eq!(checks[0].metric, "present");
        assert!(checks[0].regressed());
    }

    fn train_row(dataset: &str, workers: usize) -> TrainScalingRow {
        TrainScalingRow {
            dataset: dataset.into(),
            workers,
            mean_loss: 1.5,
            h2d_bytes: 4096,
            sim_seconds: 0.25,
        }
    }

    #[test]
    fn compare_train_keys_rows_by_dataset_and_workers() {
        let baseline = vec![
            (
                "papers100m/w2".to_string(),
                vec![
                    ("meanLoss", 1.5),
                    ("h2dBytes", 4096.0),
                    ("simSeconds", 0.25),
                ],
            ),
            ("papers100m/w16".to_string(), vec![("meanLoss", 1.5)]),
        ];
        let fresh = [train_row("papers100m", 1), train_row("papers100m", 2)];
        let checks = compare_train(&baseline, &fresh, DEFAULT_TOLERANCE);
        assert_eq!(checks.len(), 4);
        assert!(checks[..3].iter().all(|c| c.bit_identical()));
        assert_eq!(checks[3].metric, "present");
        assert!(checks[3].regressed(), "missing worker count trips the gate");
    }

    #[test]
    fn worker_invariance_trips_on_one_ulp_either_direction() {
        let mut up = [train_row("twitter", 1), train_row("twitter", 4)];
        assert!(worker_invariance_checks(&up)
            .iter()
            .all(|c| c.bit_identical() && !c.regressed()));
        up[1].mean_loss = f64::from_bits(up[1].mean_loss.to_bits() + 1);
        assert!(worker_invariance_checks(&up).iter().any(|c| c.regressed()));
        let mut down = [train_row("twitter", 1), train_row("twitter", 4)];
        down[1].sim_seconds = f64::from_bits(down[1].sim_seconds.to_bits() - 1);
        assert!(
            worker_invariance_checks(&down)
                .iter()
                .any(|c| c.regressed()),
            "a *smaller* value is still an invariance break"
        );
    }

    fn cluster_row(dataset: &str, hosts: usize, schedule: &str) -> ClusterBenchRow {
        ClusterBenchRow {
            dataset: dataset.into(),
            hosts,
            schedule: schedule.into(),
            mean_loss: 1.25,
            h2d_bytes: 8192,
            nic_bytes: if schedule == "none" { 512 } else { 1024 },
            sim_seconds: 0.5,
            degraded_reads: if schedule == "none" { 0 } else { 7 },
            max_staleness: if schedule == "none" { 0 } else { 3 },
        }
    }

    #[test]
    fn compare_cluster_keys_rows_by_dataset_hosts_and_schedule() {
        let baseline = vec![
            (
                "papers100m/h2/crash".to_string(),
                vec![
                    ("meanLoss", 1.25),
                    ("nicBytes", 1024.0),
                    ("degradedReads", 7.0),
                    ("maxStaleness", 3.0),
                ],
            ),
            ("papers100m/h8/none".to_string(), vec![("meanLoss", 1.25)]),
        ];
        let fresh = [
            cluster_row("papers100m", 2, "none"),
            cluster_row("papers100m", 2, "crash"),
        ];
        let checks = compare_cluster(&baseline, &fresh, DEFAULT_TOLERANCE);
        assert_eq!(checks.len(), 5);
        assert!(checks[..4].iter().all(|c| c.bit_identical()));
        assert_eq!(checks[4].metric, "present");
        assert!(checks[4].regressed(), "missing host count trips the gate");
    }

    #[test]
    fn compare_cluster_trips_on_staleness_growth_only_upward() {
        let baseline = vec![(
            "twitter/h4/crash".to_string(),
            vec![("maxStaleness", 3.0), ("nicBytes", 1024.0)],
        )];
        let mut fresh = [cluster_row("twitter", 4, "crash")];
        fresh[0].max_staleness = 4; // +33%: budget erosion, must trip
        fresh[0].nic_bytes = 512; // −50%: improvement, must not trip
        let checks = compare_cluster(&baseline, &fresh, DEFAULT_TOLERANCE);
        assert!(checks
            .iter()
            .any(|c| c.metric == "maxStaleness" && c.regressed()));
        assert!(checks
            .iter()
            .all(|c| c.metric != "nicBytes" || !c.regressed()));
    }

    #[test]
    fn fault_invariance_pins_crash_to_the_fault_free_row() {
        let mut rows = [
            cluster_row("mag240m", 2, "none"),
            cluster_row("mag240m", 2, "crash"),
            cluster_row("mag240m", 4, "none"),
        ];
        let checks = fault_invariance_checks(&rows);
        assert_eq!(checks.len(), 2, "only the matching (dataset, hosts) pair");
        assert!(checks.iter().all(|c| c.bit_identical() && !c.regressed()));
        rows[1].mean_loss = f64::from_bits(rows[1].mean_loss.to_bits() - 1);
        assert!(
            fault_invariance_checks(&rows).iter().any(|c| c.regressed()),
            "one ULP of loss drift in either direction breaks recovery invariance"
        );
    }
}
