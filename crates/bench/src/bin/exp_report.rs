//! The performance-trajectory regression gate.
//!
//! For each committed baseline — `BENCH_serve.json`, `BENCH_policy.json`,
//! `BENCH_train.json`, `BENCH_cluster.json`, one [`Suite`] each — reads the
//! file back (hand-rolled parser, zero registry dependencies), re-runs the
//! *same* sweep at the file's seed and compares every gated column. Every
//! gated quantity is an exact simulated value, so a clean tree reproduces
//! the baselines bit for bit; the tolerance band (default ±5%) exists so a
//! deliberate ≥10% regression always trips while genuine FP noise — there
//! should be none — never does. A suite's invariance rule adds a
//! zero-tolerance structural gate: the train sweep's columns must not depend
//! on the worker count, the cluster sweep's loss and H2D bytes not on the
//! fault schedule.
//!
//! Flags:
//! * `--serve-baseline <path>` / `--policy-baseline <path>` /
//!   `--train-baseline <path>` / `--cluster-baseline <path>` — baseline
//!   documents (defaults: the repo-root `BENCH_*.json`);
//! * `--tolerance <frac>` — relative drift band (default 0.05);
//! * `--check` — exit 2 when any metric regressed (the CI gate);
//! * `--inject-regression <frac>` — scale each suite's [`Suite::INJECT`]
//!   column (fresh p99 latency, H2D traffic, train sim-seconds, cluster NIC
//!   traffic) up by `frac` before comparing: proves the gate trips
//!   (`scripts/ci.sh` runs it at 0.10 and requires a nonzero exit).

use fgnn_bench::table::{self, MetricCheck, Suite, DEFAULT_TOLERANCE};
use fgnn_bench::trajectory::{ClusterSuite, PolicySuite, ServeSuite, TrainSuite};
use fgnn_bench::{banner, row, Args};
use freshgnn::obs::parse_json;

/// Per row, the headline columns and whatever moved; a row whose every
/// column reproduced is one `(all) bit=` line, so a clean run stays readable.
fn print_trajectory(checks: &[MetricCheck], headline: &[&str]) {
    let widths = [26usize, 14, 14, 14, 10];
    row(
        &[&"row", &"metric", &"baseline", &"fresh", &"status"],
        &widths,
    );
    let mut labels: Vec<&String> = checks.iter().map(|c| &c.label).collect();
    labels.dedup();
    for label in labels {
        let mut first = true;
        for c in checks.iter().filter(|c| &c.label == label) {
            let reproduced = c.bit_identical() && !c.regressed();
            if reproduced && !headline.contains(&c.metric) {
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
                    } else if reproduced {
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
            row(&[&label.as_str(), &"(all)", &"", &"", &"bit="], &widths);
        }
    }
}

/// Gate one suite: read its baseline, re-run its sweep at the baseline's
/// seed, compare, print.
fn gate<S: Suite>(args: &Args, tolerance: f64, inject: f64) -> Vec<MetricCheck> {
    let path: String = args.get(&format!("{}-baseline", S::NAME), S::file());
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("read baseline {path}: {e} (run scripts/bench_trajectory.sh --bless)")
    });
    let doc = parse_json(&text).unwrap_or_else(|e| panic!("parse baseline {path}: {e}"));
    let (seed, baseline) =
        table::read::<S>(&doc).unwrap_or_else(|e| panic!("baseline {path}: {e}"));
    println!(
        "\n{} trajectory ({path}, seed {seed}, {} rows): re-running the sweep...",
        S::NAME,
        baseline.len()
    );
    if inject > 0.0 {
        let percent = inject * 100.0;
        println!(
            "injecting a synthetic {percent:.0}% regression into fresh {}",
            S::INJECT
        );
    }
    let rows = S::sweep(seed);
    let mut checks = table::compare::<S>(&baseline, &rows, tolerance, inject);
    checks.extend(table::invariance_checks::<S>(&rows));
    print_trajectory(&checks, S::HEADLINE);
    checks
}

fn main() {
    let args = Args::parse();
    let tolerance: f64 = args.get("tolerance", DEFAULT_TOLERANCE);
    let check = args.flag("check");
    let inject: f64 = args.get("inject-regression", 0.0);

    banner(
        "Report",
        "Performance-trajectory regression gate over committed baselines",
    );
    println!("tolerance ±{:.0}%", tolerance * 100.0);

    let mut all = gate::<ServeSuite>(&args, tolerance, inject);
    all.extend(gate::<PolicySuite>(&args, tolerance, inject));
    all.extend(gate::<TrainSuite>(&args, tolerance, inject));
    all.extend(gate::<ClusterSuite>(&args, tolerance, inject));

    let regressed: Vec<&MetricCheck> = all.iter().filter(|c| c.regressed()).collect();
    // Disjoint from `regressed`: two NaNs are bit-identical and a regression.
    let bit = (all.iter().filter(|c| c.bit_identical() && !c.regressed())).count();
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
