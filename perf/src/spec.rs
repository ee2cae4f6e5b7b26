//! Reader of `BENCHMARK.json`, the one place the bounds live.

use crate::metrics::Better;
use crate::report::{arr_of, f64_of, str_of, u64_of};
use freshgnn::obs::{parse_json, JsonValue};

/// One metric row of `BENCHMARK.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct SpecMetric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the reference median by which the metric may worsen
    /// (`None` for per-layer metrics, which carry no bound).
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the harness reads.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchmarkSpec {
    /// `run_seconds`.
    pub run_seconds: u32,
    /// Workload names, in file order.
    pub workloads: Vec<String>,
    /// End-to-end metrics with their bounds.
    pub end_to_end: Vec<SpecMetric>,
    /// Per-layer metrics.
    pub per_layer: Vec<SpecMetric>,
}

impl BenchmarkSpec {
    /// Parse the text of a `BENCHMARK.json`.
    pub fn parse(text: &str) -> Result<BenchmarkSpec, String> {
        let v = parse_json(text).map_err(|e| e.to_string())?;
        let metrics = |key: &str, bounded: bool| -> Result<Vec<SpecMetric>, String> {
            arr_of(&v, key)?
                .iter()
                .map(|m| metric(m, bounded))
                .collect()
        };
        Ok(BenchmarkSpec {
            run_seconds: u64_of(&v, "run_seconds")? as u32,
            workloads: arr_of(&v, "workloads")?
                .iter()
                .map(|w| str_of(w, "name").map(str::to_string))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end", true)?,
            per_layer: metrics("per_layer", false)?,
        })
    }

    /// Read and parse the file at `path`.
    pub fn load(path: &str) -> Result<BenchmarkSpec, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        BenchmarkSpec::parse(&text).map_err(|e| format!("{path}: {e}"))
    }
}

fn metric(m: &JsonValue, bounded: bool) -> Result<SpecMetric, String> {
    let better = str_of(m, "better")?;
    Ok(SpecMetric {
        name: str_of(m, "name")?.to_string(),
        unit: str_of(m, "unit")?.to_string(),
        better: Better::parse(better).ok_or_else(|| format!("better: {better}"))?,
        bound: if bounded {
            Some(f64_of(m, "bound")?)
        } else {
            None
        },
    })
}
