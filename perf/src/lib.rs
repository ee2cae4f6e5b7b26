#![warn(missing_docs)]
//! # fgnn-perf
//!
//! The wall-clock benchmark of the FreshGNN reproduction. Five workloads,
//! each run in its own process: an *untraced* run gives the end-to-end
//! metrics, a *traced* run of the same passes — span recorder and counting
//! allocator on — gives the per-layer metrics. `perf/README.md` has the
//! tables; `BENCHMARK.json` at the repository root has the bounds.

pub mod alloc;
pub mod compare;
pub mod metrics;
pub mod probes;
pub mod report;
pub mod span;
pub mod spec;
pub mod stats;
pub mod suite;
pub mod workloads;

use report::RunRecord;
use workloads::{cluster, serve, train, RunArgs};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// `run_seconds` of `BENCHMARK.json`, the default of `--seconds`.
pub const DEFAULT_SECONDS: u32 = 10;

/// Directory the records, traces and `report.json` go to, relative to the
/// repository root `run.sh` changes into (`FGNN_PERF_OUT` overrides it).
pub fn out_dir() -> String {
    std::env::var("FGNN_PERF_OUT").unwrap_or_else(|_| "perf/out".to_string())
}

/// Where the record of one run of `workload` is kept.
pub fn record_path(workload: &str, traced: bool) -> String {
    let kind = if traced { "traced" } else { "untraced" };
    format!("{}/{workload}.{kind}.json", out_dir())
}

/// `std::thread::available_parallelism`, 1 if unknown.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Worker threads of anything that spawns a pool: one core stays with the
/// driver thread, and two workers are enough to show stealing.
pub fn pool_workers() -> usize {
    nproc().saturating_sub(1).clamp(1, 2)
}

/// Run the workload called `name` once. `None` for an unknown name.
pub fn run_workload(name: &str, args: &RunArgs) -> Option<RunRecord> {
    let smoke = args.smoke;
    Some(match name {
        "train_fresh" => {
            workloads::run::<train::TrainWl>("train_fresh", &train::fresh(smoke), args)
        }
        "train_ns" => workloads::run::<train::TrainWl>("train_ns", &train::ns(smoke), args),
        "train_sampling" => {
            workloads::run::<train::TrainWl>("train_sampling", &train::sampling(smoke), args)
        }
        "serve" => workloads::run::<serve::ServeWl>("serve", &serve::cfg(smoke), args),
        "cluster" => workloads::run::<cluster::ClusterWl>("cluster", &cluster::cfg(smoke), args),
        _ => return None,
    })
}

/// Every metric of `record` as `name unit value`, with the sample count and
/// extremes where there is more than one sample.
pub fn render_metrics(record: &RunRecord) -> String {
    let mut out = String::new();
    for (name, s) in record.metrics.iter() {
        let unit = metrics::def(name).map_or("", |d| d.unit);
        out.push_str(&format!("{name} {unit} {}", s.median));
        if s.n > 1 {
            out.push_str(&format!(
                " (median of {}, min {} max {})",
                s.n, s.min, s.max
            ));
        }
        out.push('\n');
    }
    out
}
