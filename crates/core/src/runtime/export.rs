//! Worker-scaling export: the compact `fgnn-train-v1` JSON that
//! `exp_train_scaling --bench-json` writes and
//! `scripts/bench_trajectory.sh` commits as `BENCH_train.json`.
//!
//! Hand-rolled like the other exporters (zero registry dependencies).
//! Every field is an exact simulated quantity: the overlapped epoch commits
//! batches in index order, so the rows reproduce bit for bit from the same
//! seed at *any* worker count. Wall-clock is `perf/`'s job.

use crate::obs::export::{json_escape, json_f64};

/// Schema tag stamped into the export (and grepped by `scripts/ci.sh`
/// against the committed `BENCH_train.json`). Alias of
/// [`crate::obs::schema::TRAIN_V1`].
pub const TRAIN_SCHEMA_VERSION: &str = crate::obs::schema::TRAIN_V1;

/// One cell of the training worker-scaling sweep: a (dataset, worker
/// count) point of the fig 10 epoch-time experiment on the async runtime.
#[derive(Clone, Debug, PartialEq)]
pub struct TrainScalingRow {
    /// Dataset label (e.g. `"papers100m"`).
    pub dataset: String,
    /// Runtime worker threads the epochs ran with.
    pub workers: usize,
    /// Final-epoch mean mini-batch loss (exact; worker-count invariant).
    pub mean_loss: f64,
    /// Total host-to-device feature bytes (exact; worker-count invariant).
    pub h2d_bytes: u64,
    /// Simulated GPU-stream seconds: transfer + retry + compute. Exact and
    /// worker-count invariant — deliberately excludes the *measured*
    /// sample/prune wall components of the full ledger.
    pub sim_seconds: f64,
}

/// Serialize the sweep as one deterministic JSON document. Row order is
/// preserved (callers sweep datasets and worker counts in a fixed order),
/// so the gated fields reproduce byte-identically from the same seed.
pub fn train_bench_json(seed: u64, rows: &[TrainScalingRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"schemaVersion\":\"{TRAIN_SCHEMA_VERSION}\",\"seed\":{seed},\"rows\":["
    ));
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"dataset\":\"{}\",\"workers\":{},\"meanLoss\":{},\"h2dBytes\":{},\
             \"simSeconds\":{}}}",
            json_escape(&r.dataset),
            r.workers,
            json_f64(r.mean_loss),
            r.h2d_bytes,
            json_f64(r.sim_seconds),
        ));
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row() -> TrainScalingRow {
        TrainScalingRow {
            dataset: "papers100m".into(),
            workers: 4,
            mean_loss: 1.25,
            h2d_bytes: 4096,
            sim_seconds: 0.5,
        }
    }

    #[test]
    fn export_carries_schema_tag_and_seed() {
        let doc = train_bench_json(42, &[row()]);
        assert!(doc.contains("\"schemaVersion\":\"fgnn-train-v1\""));
        assert!(doc.contains("\"seed\":42"));
        assert!(doc.contains("\"dataset\":\"papers100m\""));
        assert!(doc.contains("\"workers\":4"));
        assert!(doc.contains("\"h2dBytes\":4096"));
        assert!(doc.ends_with("]}\n"));
    }

    #[test]
    fn export_is_deterministic_and_order_preserving() {
        let mut second = row();
        second.workers = 8;
        let rows = [row(), second];
        let a = train_bench_json(7, &rows);
        let b = train_bench_json(7, &rows);
        assert_eq!(a, b);
        let w4 = a.find("\"workers\":4").unwrap();
        let w8 = a.find("\"workers\":8").unwrap();
        assert!(w4 < w8, "row order preserved");
    }

    #[test]
    fn empty_sweep_is_valid_json_shell() {
        let doc = train_bench_json(1, &[]);
        assert_eq!(
            doc,
            "{\"schemaVersion\":\"fgnn-train-v1\",\"seed\":1,\"rows\":[]}\n"
        );
    }

    #[test]
    fn gated_floats_round_trip_through_the_json_parser() {
        let mut r = row();
        r.mean_loss = 1.0 / 3.0;
        r.sim_seconds = 2.0816e-3_f64;
        let doc = train_bench_json(9, &[r.clone()]);
        let parsed = crate::obs::parse_json(&doc).expect("valid JSON");
        let rows = parsed.get("rows").and_then(|v| v.as_array()).unwrap();
        let loss = rows[0].get("meanLoss").and_then(|v| v.as_f64()).unwrap();
        let sim = rows[0].get("simSeconds").and_then(|v| v.as_f64()).unwrap();
        assert_eq!(loss.to_bits(), r.mean_loss.to_bits());
        assert_eq!(sim.to_bits(), r.sim_seconds.to_bits());
    }
}
