//! The performance-trajectory regression gate.
//!
//! Parses the committed `BENCH_serve.json` / `BENCH_policy.json` /
//! `BENCH_train.json` / `BENCH_cluster.json` baselines (hand-rolled
//! parser — zero registry dependencies), re-runs the *same* sweeps through
//! [`fgnn_bench::trajectory`] at the baseline seed, and compares per
//! metric with tolerances: latency percentiles, throughput, shed
//! fraction, H2D traffic, I/O saving, loss and simulated GPU-stream
//! seconds. Because every gated quantity is an exact simulated value, a
//! clean tree reproduces the baselines bit for bit; the tolerance band
//! (default ±5%) exists so a deliberate ≥10% regression always trips
//! while genuine FP noise — there should be none — never does.
//!
//! The training baseline adds one structural gate on top of the drift
//! comparison: every (dataset, worker-count) cell must reproduce the
//! single-worker exact metrics *bit for bit* (the runtime's determinism
//! contract, zero tolerance).
//!
//! The cluster baseline adds its own structural gate: for every
//! (dataset, host-count) pair, the committed training quantities of the
//! `crash` schedule must reproduce the `none` schedule *bit for bit* —
//! the deterministic-shard-recovery contract (zero tolerance).
//!
//! Flags:
//! * `--serve-baseline <path>` / `--policy-baseline <path>` /
//!   `--train-baseline <path>` / `--cluster-baseline <path>` — baseline
//!   documents (defaults: repo-root `BENCH_serve.json`,
//!   `BENCH_policy.json`, `BENCH_train.json`, `BENCH_cluster.json`);
//! * `--tolerance <frac>` — relative drift band (default 0.05);
//! * `--check` — exit 2 when any metric regressed (the CI gate);
//! * `--inject-regression <frac>` — scale fresh p99 latency, H2D
//!   traffic, train sim-seconds and cluster NIC traffic up by `frac`
//!   before comparing: proves the gate trips (`scripts/ci.sh` runs it at
//!   0.10 and requires a nonzero exit).

use fgnn_bench::trajectory::{
    cluster_sweep, compare_cluster, compare_policy, compare_serve, compare_train,
    fault_invariance_checks, policy_sweep, serve_dataset, serve_sweep, train_sweep,
    worker_invariance_checks, ClusterSweepConfig, MetricCheck, PolicySweepConfig, ServeSweepConfig,
    TrainSweepConfig, DEFAULT_TOLERANCE,
};
use fgnn_bench::{banner, row, Args};
use freshgnn::obs::{parse_json, JsonValue};

/// Metrics gated per serving cell, in table order.
const SERVE_METRICS: [&str; 7] = [
    "p50Ms",
    "p95Ms",
    "p99Ms",
    "throughputRps",
    "shedFraction",
    "served",
    "slaViolations",
];

/// Metrics gated per policy-frontier row, in table order.
const POLICY_METRICS: [&str; 4] = ["accuracy", "h2dBytes", "ioSaving", "hitRate"];

/// Metrics gated per train-scaling row, in table order.
const TRAIN_METRICS: [&str; 3] = ["meanLoss", "h2dBytes", "simSeconds"];

/// Metrics gated per cluster-sweep row, in table order.
const CLUSTER_METRICS: [&str; 6] = [
    "meanLoss",
    "h2dBytes",
    "nicBytes",
    "simSeconds",
    "degradedReads",
    "maxStaleness",
];

fn load(path: &str) -> JsonValue {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("read baseline {path}: {e} (run scripts/bench_trajectory.sh)"));
    parse_json(&text).unwrap_or_else(|e| panic!("parse baseline {path}: {e}"))
}

fn metric_f64(obj: &JsonValue, key: &str, ctx: &str) -> f64 {
    obj.get(key)
        .and_then(|v| v.as_f64())
        .unwrap_or_else(|| panic!("baseline {ctx} lacks numeric '{key}'"))
}

/// Baseline rows: `(label, [(metric, value)])` per gated sweep row.
type BaselineRows = Vec<(String, Vec<(&'static str, f64)>)>;

/// Extract `(label, metric → value)` rows from the serve baseline wrapper.
fn serve_baseline_rows(doc: &JsonValue) -> (u64, BaselineRows) {
    let seed = doc
        .get("seed")
        .and_then(|v| v.as_u64())
        .expect("serve baseline carries a seed");
    let serve = doc.get("serve").expect("serve baseline carries 'serve'");
    let schema = serve.get("schemaVersion").and_then(|v| v.as_str());
    assert_eq!(
        schema,
        Some(freshgnn::obs::schema::SERVE_V1),
        "serve baseline schema mismatch"
    );
    let runs = serve
        .get("runs")
        .and_then(|v| v.as_array())
        .expect("serve baseline carries runs[]");
    let rows = runs
        .iter()
        .map(|run| {
            let label = run
                .get("label")
                .and_then(|v| v.as_str())
                .expect("run label")
                .to_string();
            let metrics = SERVE_METRICS
                .iter()
                .map(|&m| (m, metric_f64(run, m, &label)))
                .collect();
            (label, metrics)
        })
        .collect();
    (seed, rows)
}

/// Extract `(dataset/policy, metric → value)` rows from the policy
/// baseline document.
fn policy_baseline_rows(doc: &JsonValue) -> (u64, BaselineRows) {
    let schema = doc.get("schemaVersion").and_then(|v| v.as_str());
    assert_eq!(
        schema,
        Some(freshgnn::obs::schema::POLICY_V1),
        "policy baseline schema mismatch"
    );
    let seed = doc
        .get("seed")
        .and_then(|v| v.as_u64())
        .expect("policy baseline carries a seed");
    let rows = doc
        .get("rows")
        .and_then(|v| v.as_array())
        .expect("policy baseline carries rows[]");
    let out = rows
        .iter()
        .map(|r| {
            let key = format!(
                "{}/{}",
                r.get("dataset").and_then(|v| v.as_str()).expect("dataset"),
                r.get("policy").and_then(|v| v.as_str()).expect("policy"),
            );
            let metrics = POLICY_METRICS
                .iter()
                .map(|&m| (m, metric_f64(r, m, &key)))
                .collect();
            (key, metrics)
        })
        .collect();
    (seed, out)
}

/// Extract `(dataset/w{N}, metric → value)` rows from the train baseline
/// document.
fn train_baseline_rows(doc: &JsonValue) -> (u64, BaselineRows) {
    let schema = doc.get("schemaVersion").and_then(|v| v.as_str());
    assert_eq!(
        schema,
        Some(freshgnn::obs::schema::TRAIN_V1),
        "train baseline schema mismatch"
    );
    let seed = doc
        .get("seed")
        .and_then(|v| v.as_u64())
        .expect("train baseline carries a seed");
    let rows = doc
        .get("rows")
        .and_then(|v| v.as_array())
        .expect("train baseline carries rows[]");
    let out = rows
        .iter()
        .map(|r| {
            let key = format!(
                "{}/w{}",
                r.get("dataset").and_then(|v| v.as_str()).expect("dataset"),
                r.get("workers").and_then(|v| v.as_u64()).expect("workers"),
            );
            let metrics = TRAIN_METRICS
                .iter()
                .map(|&m| (m, metric_f64(r, m, &key)))
                .collect();
            (key, metrics)
        })
        .collect();
    (seed, out)
}

/// Extract `(dataset/h{N}/{schedule}, metric → value)` rows from the
/// cluster baseline document.
fn cluster_baseline_rows(doc: &JsonValue) -> (u64, BaselineRows) {
    let schema = doc.get("schemaVersion").and_then(|v| v.as_str());
    assert_eq!(
        schema,
        Some(freshgnn::obs::schema::CLUSTER_V1),
        "cluster baseline schema mismatch"
    );
    let seed = doc
        .get("seed")
        .and_then(|v| v.as_u64())
        .expect("cluster baseline carries a seed");
    let rows = doc
        .get("rows")
        .and_then(|v| v.as_array())
        .expect("cluster baseline carries rows[]");
    let out = rows
        .iter()
        .map(|r| {
            let key = format!(
                "{}/h{}/{}",
                r.get("dataset").and_then(|v| v.as_str()).expect("dataset"),
                r.get("hosts").and_then(|v| v.as_u64()).expect("hosts"),
                r.get("schedule")
                    .and_then(|v| v.as_str())
                    .expect("schedule"),
            );
            let metrics = CLUSTER_METRICS
                .iter()
                .map(|&m| (m, metric_f64(r, m, &key)))
                .collect();
            (key, metrics)
        })
        .collect();
    (seed, out)
}

fn status(checks: &[&MetricCheck]) -> String {
    if checks.iter().any(|c| c.regressed()) {
        "REGRESSED".to_string()
    } else if checks.iter().all(|c| c.bit_identical()) {
        "bit=".to_string()
    } else {
        "ok".to_string()
    }
}

fn print_trajectory(title: &str, checks: &[MetricCheck], shown: &[&str]) {
    println!("\n{title}");
    let widths = [26usize, 14, 14, 14, 10];
    row(
        &[&"row", &"metric", &"baseline", &"fresh", &"status"],
        &widths,
    );
    let mut labels: Vec<&String> = checks.iter().map(|c| &c.label).collect();
    labels.dedup();
    for label in labels {
        let of_label: Vec<&MetricCheck> = checks.iter().filter(|c| &c.label == label).collect();
        let overall = status(&of_label);
        let mut first = true;
        for c in &of_label {
            // Compact table: per row show the gated metrics that drifted
            // (plus the headline ones), so a clean run stays readable.
            let headline = shown.contains(&c.metric);
            if !headline && c.bit_identical() {
                continue;
            }
            row(
                &[
                    &if first { label.as_str() } else { "" },
                    &c.metric,
                    &format!("{:.6}", c.baseline),
                    &format!("{:.6}", c.fresh),
                    &if c.regressed() {
                        format!("REGR {:+.1}%", c.drift() * 100.0)
                    } else if c.bit_identical() {
                        "bit=".to_string()
                    } else {
                        format!("{:+.2}%", c.drift() * 100.0)
                    },
                ],
                &widths,
            );
            first = false;
        }
        if first {
            // Every metric was bit-identical and non-headline: one line.
            row(&[&label.as_str(), &"(all)", &"", &"", &overall], &widths);
        }
    }
}

fn main() {
    let args = Args::parse();
    let serve_path: String = args.get("serve-baseline", "BENCH_serve.json".to_string());
    let policy_path: String = args.get("policy-baseline", "BENCH_policy.json".to_string());
    let train_path: String = args.get("train-baseline", "BENCH_train.json".to_string());
    let cluster_path: String = args.get("cluster-baseline", "BENCH_cluster.json".to_string());
    let tolerance: f64 = args.get("tolerance", DEFAULT_TOLERANCE);
    let check = args.flag("check");
    let inject: f64 = args.get("inject-regression", 0.0);

    banner(
        "Report",
        "Performance-trajectory regression gate over committed baselines",
    );

    let (serve_seed, serve_base) = serve_baseline_rows(&load(&serve_path));
    let (policy_seed, policy_base) = policy_baseline_rows(&load(&policy_path));
    let (train_seed, train_base) = train_baseline_rows(&load(&train_path));
    let (cluster_seed, cluster_base) = cluster_baseline_rows(&load(&cluster_path));
    println!(
        "baselines: {serve_path} (seed {serve_seed}, {} cells), {policy_path} (seed {policy_seed}, {} rows), {train_path} (seed {train_seed}, {} cells), {cluster_path} (seed {cluster_seed}, {} cells)",
        serve_base.len(),
        policy_base.len(),
        train_base.len(),
        cluster_base.len()
    );
    println!("tolerance ±{:.0}%; re-running sweeps...", tolerance * 100.0);

    let sw = ServeSweepConfig {
        seed: serve_seed,
        ..ServeSweepConfig::default()
    };
    let ds = serve_dataset(&sw);
    let mut cells = serve_sweep(&ds, &sw, |_| {});
    let mut rows = policy_sweep(
        &PolicySweepConfig {
            seed: policy_seed,
            ..PolicySweepConfig::default()
        },
        |_| {},
    );
    let mut train_rows = train_sweep(
        &TrainSweepConfig {
            seed: train_seed,
            ..TrainSweepConfig::default()
        },
        |_| {},
    );
    let mut cluster_rows = cluster_sweep(
        &ClusterSweepConfig {
            seed: cluster_seed,
            ..ClusterSweepConfig::default()
        },
        |_| {},
    );

    if inject > 0.0 {
        println!(
            "injecting a synthetic {:.0}% regression into fresh p99 latency, H2D traffic, train sim-seconds and cluster NIC traffic",
            inject * 100.0
        );
        for c in &mut cells {
            c.report.p99_ms *= 1.0 + inject;
        }
        for r in &mut rows {
            r.h2d_bytes = ((r.h2d_bytes as f64) * (1.0 + inject)) as u64;
        }
        for r in &mut train_rows {
            r.sim_seconds *= 1.0 + inject;
        }
        for r in &mut cluster_rows {
            r.nic_bytes = ((r.nic_bytes as f64) * (1.0 + inject)) as u64;
        }
    }

    let serve_checks = compare_serve(&serve_base, &cells, tolerance);
    let policy_checks = compare_policy(&policy_base, &rows, tolerance);
    let mut train_checks = compare_train(&train_base, &train_rows, tolerance);
    train_checks.extend(worker_invariance_checks(&train_rows));
    let mut cluster_checks = compare_cluster(&cluster_base, &cluster_rows, tolerance);
    cluster_checks.extend(fault_invariance_checks(&cluster_rows));

    print_trajectory(
        "serving trajectory (BENCH_serve.json)",
        &serve_checks,
        &["p99Ms", "throughputRps"],
    );
    print_trajectory(
        "policy frontier trajectory (BENCH_policy.json)",
        &policy_checks,
        &["h2dBytes", "ioSaving"],
    );
    print_trajectory(
        "train scaling trajectory (BENCH_train.json)",
        &train_checks,
        &["simSeconds"],
    );
    print_trajectory(
        "cluster trajectory (BENCH_cluster.json)",
        &cluster_checks,
        &["nicBytes", "maxStaleness"],
    );

    let all: Vec<&MetricCheck> = serve_checks
        .iter()
        .chain(policy_checks.iter())
        .chain(train_checks.iter())
        .chain(cluster_checks.iter())
        .collect();
    let bit = all.iter().filter(|c| c.bit_identical()).count();
    let regressed: Vec<&&MetricCheck> = all.iter().filter(|c| c.regressed()).collect();
    println!(
        "\n{} checks: {} bit-identical, {} within tolerance, {} regressed",
        all.len(),
        bit,
        all.len() - bit - regressed.len(),
        regressed.len()
    );
    for c in &regressed {
        println!(
            "  REGRESSION {} {}: baseline {:.6} -> fresh {:.6} ({:+.1}%)",
            c.label,
            c.metric,
            c.baseline,
            c.fresh,
            c.drift() * 100.0
        );
    }
    if !regressed.is_empty() {
        if check {
            std::process::exit(2);
        }
        println!("(--check not set: reporting only)");
    } else if bit == all.len() {
        println!("trajectory reproduced bit-for-bit");
    }
}
