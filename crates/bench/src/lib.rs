#![warn(missing_docs)]
//! # fgnn-bench
//!
//! Experiment harness for the FreshGNN reproduction: one binary per table
//! or figure of the paper (see DESIGN.md §4 for the index). Wall-clock
//! microbenchmarks live in the standalone `perf/` package (`./perf/run.sh`).
//!
//! Every binary accepts:
//! * `--seed <u64>` (default 42) — master RNG seed;
//! * `--scale <f64>` (default per-experiment) — dataset scale factor
//!   relative to the paper's node counts;
//! * `--epochs <usize>` where applicable.
//!
//! Output is plain aligned text: the same rows/series the paper's figure
//! or table reports, so EXPERIMENTS.md can quote them directly.

use std::fmt::Display;

/// Minimal command-line option parser (`--key value` pairs).
pub struct Args {
    raw: Vec<String>,
}

impl Args {
    /// Parse the process arguments.
    pub fn parse() -> Self {
        Args {
            raw: std::env::args().skip(1).collect(),
        }
    }

    /// Fetch `--name v` as `T`, or `default`.
    pub fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        let key = format!("--{name}");
        self.raw
            .iter()
            .position(|a| a == &key)
            .and_then(|i| self.raw.get(i + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// Fetch `--name v` as `T`, or `None` when the flag is absent or
    /// unparsable.
    pub fn get_opt<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        let key = format!("--{name}");
        self.raw
            .iter()
            .position(|a| a == &key)
            .and_then(|i| self.raw.get(i + 1))
            .and_then(|v| v.parse().ok())
    }

    /// Whether a bare flag `--name` is present.
    pub fn flag(&self, name: &str) -> bool {
        let key = format!("--{name}");
        self.raw.iter().any(|a| a == &key)
    }
}

/// Collects labelled per-run observability state and writes the files an
/// experiment was asked for: `--trace-out <path>` (Chrome-trace JSON, one
/// thread lane per section) and `--metrics-out <path>` (JSONL, schema in
/// DESIGN.md §8). A no-op when neither flag is present.
pub struct ObsExport {
    trace_out: Option<String>,
    metrics_out: Option<String>,
    sections: Vec<(String, freshgnn::Obs)>,
}

impl ObsExport {
    /// Read `--trace-out` / `--metrics-out` from the arguments.
    pub fn from_args(args: &Args) -> Self {
        ObsExport {
            trace_out: args.get_opt("trace-out"),
            metrics_out: args.get_opt("metrics-out"),
            sections: Vec::new(),
        }
    }

    /// Whether any output file was requested (callers may skip collecting
    /// when not).
    pub fn active(&self) -> bool {
        self.trace_out.is_some() || self.metrics_out.is_some()
    }

    /// Record one labelled section (e.g. `"arxiv/FreshGNN"`).
    pub fn add(&mut self, label: impl Into<String>, obs: freshgnn::Obs) {
        self.sections.push((label.into(), obs));
    }

    /// Write the requested files (Measured-class metrics included — the
    /// CLI stream is for humans; tests use the deterministic subset).
    pub fn write(&self) -> std::io::Result<()> {
        use freshgnn::obs::export;
        if let Some(path) = &self.trace_out {
            let lanes: Vec<(&str, &freshgnn::obs::Tracer)> = self
                .sections
                .iter()
                .map(|(label, obs)| (label.as_str(), &obs.tracer))
                .collect();
            std::fs::write(path, export::chrome_trace(&lanes))?;
            eprintln!("wrote Chrome trace to {path}");
        }
        if let Some(path) = &self.metrics_out {
            let mut doc = export::metrics_jsonl_header();
            for (label, obs) in &self.sections {
                doc.push_str(&export::metrics_jsonl(label, &obs.metrics, true));
            }
            std::fs::write(path, doc)?;
            eprintln!("wrote metrics JSONL to {path}");
        }
        Ok(())
    }
}

/// Print a header banner for an experiment.
pub fn banner(id: &str, title: &str) {
    println!("==================================================================");
    println!("{id}: {title}");
    println!("==================================================================");
}

/// Print one aligned table row.
pub fn row(cells: &[&dyn Display], widths: &[usize]) {
    let mut line = String::new();
    for (c, w) in cells.iter().zip(widths) {
        line.push_str(&format!("{:<width$}", c.to_string(), width = w));
    }
    println!("{}", line.trim_end());
}

/// Format seconds compactly.
pub fn fmt_secs(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0}s")
    } else if s >= 1.0 {
        format!("{s:.2}s")
    } else if s >= 1e-3 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{:.2}us", s * 1e6)
    }
}

/// Format bytes compactly.
pub fn fmt_bytes(b: u64) -> String {
    let bf = b as f64;
    if bf >= 1e9 {
        format!("{:.2}GB", bf / 1e9)
    } else if bf >= 1e6 {
        format!("{:.1}MB", bf / 1e6)
    } else if bf >= 1e3 {
        format!("{:.1}KB", bf / 1e3)
    } else {
        format!("{b}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_helpers() {
        assert_eq!(fmt_secs(120.0), "120s");
        assert_eq!(fmt_secs(1.5), "1.50s");
        assert_eq!(fmt_secs(0.0025), "2.50ms");
        assert_eq!(fmt_secs(3e-6), "3.00us");
        assert_eq!(fmt_bytes(500), "500B");
        assert_eq!(fmt_bytes(2_500_000), "2.5MB");
        assert_eq!(fmt_bytes(3_000_000_000), "3.00GB");
    }
}

pub mod runners;
pub mod table;
pub mod trajectory;
