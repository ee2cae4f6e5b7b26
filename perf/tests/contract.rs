//! `BENCHMARK.json` and the harness must say the same thing, and a smoke run
//! of the whole suite must report exactly the metrics `BENCHMARK.json` names.

use fgnn_perf::metrics::{valid_name, MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use fgnn_perf::report::SuiteReport;
use fgnn_perf::spec::{BenchmarkSpec, SpecMetric};
use fgnn_perf::DEFAULT_SECONDS;
use std::collections::BTreeSet;
use std::process::Command;

const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/..");

fn spec() -> BenchmarkSpec {
    BenchmarkSpec::load(&format!("{ROOT}/BENCHMARK.json")).expect("BENCHMARK.json parses")
}

fn same_rows(file: &[SpecMetric], table: &[MetricDef]) {
    let file: Vec<_> = file
        .iter()
        .map(|m| (m.name.as_str(), m.unit.as_str(), m.better))
        .collect();
    let table: Vec<_> = table.iter().map(|d| (d.name, d.unit, d.better)).collect();
    assert_eq!(file, table);
}

#[test]
fn benchmark_json_matches_the_harness_tables() {
    let spec = spec();
    assert_eq!(spec.run_seconds, DEFAULT_SECONDS);
    assert_eq!(spec.workloads, WORKLOADS);
    same_rows(&spec.end_to_end, &END_TO_END);
    same_rows(&spec.per_layer, &PER_LAYER);
    for name in spec.workloads.iter().chain(
        spec.end_to_end
            .iter()
            .chain(&spec.per_layer)
            .map(|m| &m.name),
    ) {
        assert!(valid_name(name), "{name}");
    }
    // Bounds are shares of at most a quarter; set-up time has the largest.
    let bound = |m: &SpecMetric| m.bound.expect("end-to-end metrics carry a bound");
    let setup = spec
        .end_to_end
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is an end-to-end metric");
    for m in &spec.end_to_end {
        assert!(bound(m) > 0.0 && bound(m) <= 0.25, "{}", m.name);
        assert!(bound(m) <= bound(setup), "{}", m.name);
    }
}

#[test]
fn smoke_suite_reports_exactly_the_named_metrics() {
    let out = format!("{}/smoke-out", env!("CARGO_TARGET_TMPDIR"));
    let run = Command::new(env!("CARGO_BIN_EXE_fgnn-perf"))
        .args(["--smoke", "--seed", "3"])
        .current_dir(ROOT)
        .env("FGNN_PERF_OUT", &out)
        .output()
        .expect("the harness binary starts");
    assert!(
        run.status.success(),
        "smoke suite failed: {}\n{}",
        run.status,
        String::from_utf8_lossy(&run.stdout)
    );

    let text = std::fs::read_to_string(format!("{out}/report.json")).expect("report written");
    let report = SuiteReport::from_json(&text).expect("report parses");
    assert!(report.correct());
    let spec = spec();
    let names =
        |rows: &[SpecMetric]| -> BTreeSet<String> { rows.iter().map(|m| m.name.clone()).collect() };
    assert_eq!(
        report.workloads.keys().cloned().collect::<BTreeSet<_>>(),
        spec.workloads.iter().cloned().collect()
    );
    for (workload, (untraced, traced)) in &report.workloads {
        let got = |r: &fgnn_perf::report::RunRecord| -> BTreeSet<String> {
            r.metrics.iter().map(|(n, _)| n.to_string()).collect()
        };
        assert_eq!(got(untraced), names(&spec.end_to_end), "{workload}");
        assert_eq!(got(traced), names(&spec.per_layer), "{workload}");
        assert!(!untraced.traced && traced.traced && untraced.smoke);
        assert_eq!(untraced.fingerprint.seed, 3);
        // End-to-end metrics are never 0: a bound is a share of them.
        for (name, s) in untraced.metrics.iter() {
            assert!(s.median > 0.0, "{workload}: {name} is {}", s.median);
        }
        assert!(std::path::Path::new(&format!("{out}/{workload}.trace.json")).exists());
    }
}
