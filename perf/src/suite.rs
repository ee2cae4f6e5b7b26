//! The whole benchmark: every workload twice, each run in its own process,
//! then the checks that need two runs or two workloads, then `report.json`.

use crate::metrics::WORKLOADS;
use crate::report::{Check, RunRecord, SuiteReport};
use crate::{out_dir, record_path};
use std::collections::BTreeMap;
use std::process::Command;

/// Tracing may slow a pass by this share before the suite remarks on it.
const TRACE_OVERHEAD_LIMIT: f64 = 0.05;

/// What `run.sh` passes when no single run is asked for.
#[derive(Clone, Debug)]
pub struct SuiteArgs {
    /// Seed of every workload.
    pub seed: u64,
    /// `--seconds` of every run.
    pub seconds: u32,
    /// 1/10-size inputs.
    pub smoke: bool,
    /// Only this workload.
    pub only: Option<String>,
    /// Where the report goes (default `<out dir>/report.json`).
    pub out: Option<String>,
}

fn child(workload: &str, traced: bool, args: &SuiteArgs) -> Result<RunRecord, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    // The child inherits stdout, so its metric lines are the suite's output.
    let status = cmd.status().map_err(|e| format!("spawn {workload}: {e}"))?;
    if !status.success() {
        return Err(format!(
            "{workload} (trace {}) exited with {status}",
            traced as u8
        ));
    }
    let path = record_path(workload, traced);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    RunRecord::from_json(&text).map_err(|e| format!("{path}: {e}"))
}

/// The checks over pairs of runs.
pub fn cross_checks(workloads: &BTreeMap<String, (RunRecord, RunRecord)>) -> Vec<Check> {
    let mut checks = Vec::new();
    for (name, (untraced, traced)) in workloads {
        // Tracing must not perturb the program: same losses, same bytes.
        checks.push(Check::new(
            &format!("traced-equals-untraced.{name}"),
            !untraced.exact.is_empty() && untraced.exact == traced.exact,
            format!("{} exact quantities", untraced.exact.len()),
        ));
    }
    if let (Some(fresh), Some(ns)) = (workloads.get("train_fresh"), workloads.get("train_ns")) {
        let (a, b) = (
            fresh.0.metrics.value("wire_mb"),
            ns.0.metrics.value("wire_mb"),
        );
        checks.push(Check::new(
            "wire-fresh-below-ns",
            a < b,
            format!("train_fresh {a} MB < train_ns {b} MB"),
        ));
    }
    checks
}

/// What the runs say about how the workloads separate the layers, and about
/// the cost of tracing. Remarks, not checks: they depend on the machine.
fn remarks(workloads: &BTreeMap<String, (RunRecord, RunRecord)>) -> String {
    let mut out = String::new();
    for (name, (untraced, traced)) in workloads {
        let pass = untraced.metrics.value("pass_s");
        let t = &traced.metrics;
        let overhead = t.value("perf.trace_overhead_frac");
        out.push_str(&format!(
            "remark {name}: tracing {:+.1}% of pass_s{}",
            100.0 * overhead,
            if overhead > TRACE_OVERHEAD_LIMIT {
                " (above 5%)"
            } else {
                ""
            },
        ));
        let compute = t.value("pipeline.forward_s") + t.value("pipeline.backward_s");
        if compute > 0.0 {
            // Seeds a second times seconds a seed: the share of a pass that
            // sampling its batches takes, overlapped or not.
            let sampling =
                t.value("graph.sample_us_per_seed") * 1e-6 * untraced.metrics.value("items_per_s");
            out.push_str(&format!(
                ", forward+backward {:.0}%, sampling work {:.0}%",
                100.0 * compute / pass,
                100.0 * sampling
            ));
        }
        out.push('\n');
    }
    if let (Some(fresh), Some(ns)) = (workloads.get("train_fresh"), workloads.get("train_ns")) {
        let (a, b) = (
            fresh.0.metrics.value("pass_s"),
            ns.0.metrics.value("pass_s"),
        );
        out.push_str(&format!(
            "remark pass_s: train_fresh {a:.3} s {} train_ns {b:.3} s\n",
            if a < b {
                "<"
            } else {
                ">= (the paper's claim does not show)"
            },
        ));
    }
    out
}

/// Run the suite; `Ok(true)` when every check held.
pub fn run(args: &SuiteArgs) -> Result<bool, String> {
    std::fs::create_dir_all(out_dir()).map_err(|e| format!("{}: {e}", out_dir()))?;
    let names: Vec<&str> = match &args.only {
        Some(w) if WORKLOADS.contains(&w.as_str()) => vec![w.as_str()],
        Some(w) => return Err(format!("unknown workload {w}")),
        None => WORKLOADS.to_vec(),
    };
    let mut workloads = BTreeMap::new();
    for name in names {
        // Untraced first: the traced run reads its `pass_s` for the overhead.
        let untraced = child(name, false, args)?;
        let traced = child(name, true, args)?;
        workloads.insert(name.to_string(), (untraced, traced));
    }
    let report = SuiteReport {
        checks: cross_checks(&workloads),
        workloads,
    };
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| format!("{}/report.json", out_dir()));
    std::fs::write(&path, report.to_json()).map_err(|e| format!("{path}: {e}"))?;

    print!("{}", remarks(&report.workloads));
    let all = report
        .workloads
        .iter()
        .flat_map(|(w, (u, t))| {
            u.checks
                .iter()
                .chain(&t.checks)
                .map(move |c| (w.as_str(), c))
        })
        .chain(report.checks.iter().map(|c| ("suite", c)));
    let mut failed = 0;
    for (scope, c) in all {
        if !c.ok {
            failed += 1;
            println!("FAILED {scope}: {} ({})", c.name, c.detail);
        }
    }
    println!(
        "report {path}: {}",
        if failed == 0 {
            "all checks hold"
        } else {
            "CHECKS FAILED"
        }
    );
    Ok(report.correct())
}
