//! `fgnn-perf`: see `perf/README.md`. `run.sh` builds and calls this.
//!
//! * `fgnn-perf --workload W --seed N --seconds S --trace 0|1 [--smoke]` —
//!   one run of one workload; the last line of output is the result object
//!   the benchmark contract asks for.
//! * `fgnn-perf [--seed N] [--seconds S] [--workload W] [--smoke] [--out P]` —
//!   the suite: every workload untraced then traced, `report.json`, non-zero
//!   exit if a check fails.
//! * `fgnn-perf compare A.json B.json [--benchmark BENCHMARK.json]`.

use fgnn_perf::compare::{compare, render, Verdict};
use fgnn_perf::report::SuiteReport;
use fgnn_perf::spec::BenchmarkSpec;
use fgnn_perf::suite::{self, SuiteArgs};
use fgnn_perf::workloads::RunArgs;
use fgnn_perf::{out_dir, record_path, render_metrics, run_workload, DEFAULT_SECONDS};
use std::process::ExitCode;

/// `--key value` options and bare flags of the command line.
struct Args(Vec<String>);

impl Args {
    fn value(&self, key: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == key)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.value(key) {
            Some(v) => v.parse().map_err(|_| format!("{key}: cannot read {v:?}")),
            None if self.flag(key) => Err(format!("{key} needs a value")),
            None => Ok(default),
        }
    }

    fn flag(&self, key: &str) -> bool {
        self.0.iter().any(|a| a == key)
    }
}

fn single_run(args: &Args) -> Result<ExitCode, String> {
    let workload = args.value("--workload").ok_or("--trace needs --workload")?;
    let run = RunArgs {
        seed: args.parsed("--seed", 42)?,
        seconds: args.parsed("--seconds", DEFAULT_SECONDS)?,
        traced: match args.value("--trace") {
            Some("0") => false,
            Some("1") => true,
            other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
        },
        smoke: args.flag("--smoke"),
        rustc: std::env::var("FGNN_PERF_RUSTC").unwrap_or_else(|_| "unknown".into()),
        commit: std::env::var("FGNN_PERF_COMMIT").unwrap_or_else(|_| "unknown".into()),
    };
    if !(1..=60).contains(&run.seconds) {
        return Err(format!("--seconds {} is outside 1..=60", run.seconds));
    }
    std::fs::create_dir_all(out_dir()).map_err(|e| format!("{}: {e}", out_dir()))?;
    let record =
        run_workload(workload, &run).ok_or_else(|| format!("unknown workload {workload}"))?;
    let path = record_path(workload, run.traced);
    std::fs::write(&path, record.to_json()).map_err(|e| format!("{path}: {e}"))?;

    println!(
        "# {workload} seed {} trace {} passes {} workers {} nproc {}",
        run.seed,
        run.traced as u8,
        record.passes,
        record.fingerprint.workers,
        record.fingerprint.nproc
    );
    print!("{}", render_metrics(&record));
    for c in record.checks.iter().filter(|c| !c.ok) {
        println!("FAILED {workload}: {} ({})", c.name, c.detail);
    }
    println!("{}", record.result_line());
    Ok(ExitCode::SUCCESS)
}

fn compare_reports(args: &Args) -> Result<ExitCode, String> {
    let (a, b) = match &args.0[..] {
        [_, a, b, ..] => (a, b),
        _ => return Err("usage: compare A.json B.json [--benchmark BENCHMARK.json]".into()),
    };
    let spec = BenchmarkSpec::load(args.value("--benchmark").unwrap_or("BENCHMARK.json"))?;
    let load = |path: &String| -> Result<SuiteReport, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        SuiteReport::from_json(&text).map_err(|e| format!("{path}: {e}"))
    };
    let rows = compare(&spec, &load(a)?, &load(b)?)?;
    print!("{}", render(&rows));
    let worse = rows.iter().filter(|r| r.verdict == Verdict::Worse).count();
    let unresolved = rows
        .iter()
        .filter(|r| r.verdict == Verdict::Unresolved)
        .count();
    println!(
        "{worse} worse than the bound, {unresolved} unresolved, of {}",
        rows.len()
    );
    Ok(if worse == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args = Args(std::env::args().skip(1).collect());
    let outcome = if args.0.first().is_some_and(|a| a == "compare") {
        compare_reports(&args)
    } else if args.flag("--trace") {
        single_run(&args)
    } else {
        (|| {
            let suite = SuiteArgs {
                seed: args.parsed("--seed", 42)?,
                seconds: args.parsed("--seconds", DEFAULT_SECONDS)?,
                smoke: args.flag("--smoke"),
                only: args.value("--workload").map(str::to_string),
                out: args.value("--out").map(str::to_string),
            };
            let ok = suite::run(&suite)?;
            Ok(if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        })()
    };
    outcome.unwrap_or_else(|e: String| {
        eprintln!("fgnn-perf: {e}");
        ExitCode::from(2)
    })
}
