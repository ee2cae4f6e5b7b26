//! The single home of every `fgnn-*-v1` schema-version tag.
//!
//! Exporters stamp these tags into their first line and `scripts/ci.sh`
//! greps them back out of live runs; the committed `BENCH_*.json` baselines
//! carry theirs through `fgnn_bench::table`. The per-module consts
//! (`obs::export::SCHEMA_VERSION`, `serve::export::SERVE_SCHEMA_VERSION`,
//! …) re-export from here.

/// Training/observability stream: metrics JSONL, Chrome traces and the
/// resilience transition log (DESIGN.md §8).
pub const OBS_V1: &str = "fgnn-obs-v1";

/// Serving run stream: summary + shed ledger + Exact metrics
/// (DESIGN.md §10), and the `BENCH_serve.json` document (DESIGN.md §4.1).
pub const SERVE_V1: &str = "fgnn-serve-v1";

/// Per-request serving trace stream: exemplar span trees and SLO alert
/// events (DESIGN.md §12).
pub const SERVE_TRACE_V1: &str = "fgnn-serve-trace-v1";

/// Policy-frontier benchmark document (`BENCH_policy.json`,
/// DESIGN.md §4.1).
pub const POLICY_V1: &str = "fgnn-policy-v1";

/// Training worker-scaling benchmark document (`BENCH_train.json`,
/// DESIGN.md §4.1).
pub const TRAIN_V1: &str = "fgnn-train-v1";

/// Multi-host cluster benchmark document (`BENCH_cluster.json`,
/// DESIGN.md §4.1).
pub const CLUSTER_V1: &str = "fgnn-cluster-v1";

/// Every known schema tag, for exhaustiveness checks.
pub const ALL: [&str; 6] = [
    OBS_V1,
    SERVE_V1,
    SERVE_TRACE_V1,
    POLICY_V1,
    TRAIN_V1,
    CLUSTER_V1,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_are_unique_and_versioned() {
        for (i, a) in ALL.iter().enumerate() {
            assert!(a.starts_with("fgnn-") && a.ends_with("-v1"), "{a}");
            for b in &ALL[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn legacy_consts_alias_this_module() {
        assert_eq!(crate::obs::export::SCHEMA_VERSION, OBS_V1);
        assert_eq!(crate::serve::export::SERVE_SCHEMA_VERSION, SERVE_V1);
    }
}
