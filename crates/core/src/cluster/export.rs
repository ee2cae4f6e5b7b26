//! Cluster-sweep export: the compact `fgnn-cluster-v1` JSON that
//! `exp_cluster --bench-json` writes and `scripts/bench_trajectory.sh`
//! commits as `BENCH_cluster.json`.
//!
//! Hand-rolled like the other exporters (zero registry dependencies).
//! Every field is an exact simulated quantity — BSP rounds make each one a
//! deterministic function of the seed and the fault schedule, so
//! `exp_report compare_cluster` can hold them to tight tolerances.

use crate::obs::export::{json_escape, json_f64};

/// Schema tag stamped into the export (and grepped by `scripts/ci.sh`
/// against the committed `BENCH_cluster.json`). Alias of
/// [`crate::obs::schema::CLUSTER_V1`].
pub const CLUSTER_SCHEMA_VERSION: &str = crate::obs::schema::CLUSTER_V1;

/// One cell of the cluster sweep: a (dataset, host count, fault
/// schedule) point.
#[derive(Clone, Debug, PartialEq)]
pub struct ClusterBenchRow {
    /// Dataset label (e.g. `"papers100m"`).
    pub dataset: String,
    /// Hosts (= shards = failure domains) in the cluster.
    pub hosts: usize,
    /// Fault-schedule label (`"none"`, `"crash"`, …).
    pub schedule: String,
    /// Final-epoch cluster mean loss (exact; fault-schedule invariant —
    /// recovery replays to the fault-free trajectory).
    pub mean_loss: f64,
    /// Total host-to-GPU feature bytes across hosts (exact).
    pub h2d_bytes: u64,
    /// Inter-host NIC bytes moved, including recovery re-fetches (exact).
    pub nic_bytes: u64,
    /// Exact simulated seconds: slowest host's pipeline stream + NIC +
    /// retry time.
    pub sim_seconds: f64,
    /// Halo entries served stale by a peer for a dead owner (exact).
    pub degraded_reads: u64,
    /// Worst staleness (rounds) any degraded read was served at (exact;
    /// bounded by `t_stale`).
    pub max_staleness: u64,
}

/// Serialize the sweep as one deterministic JSON document. Row order is
/// preserved (callers sweep datasets × hosts × schedules in a fixed
/// order), so the gated fields reproduce byte-identically from the same
/// seed.
pub fn cluster_bench_json(seed: u64, rows: &[ClusterBenchRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"schemaVersion\":\"{CLUSTER_SCHEMA_VERSION}\",\"seed\":{seed},\"rows\":["
    ));
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"dataset\":\"{}\",\"hosts\":{},\"schedule\":\"{}\",\"meanLoss\":{},\
             \"h2dBytes\":{},\"nicBytes\":{},\"simSeconds\":{},\"degradedReads\":{},\
             \"maxStaleness\":{}}}",
            json_escape(&r.dataset),
            r.hosts,
            json_escape(&r.schedule),
            json_f64(r.mean_loss),
            r.h2d_bytes,
            r.nic_bytes,
            json_f64(r.sim_seconds),
            r.degraded_reads,
            r.max_staleness,
        ));
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row() -> ClusterBenchRow {
        ClusterBenchRow {
            dataset: "papers100m".into(),
            hosts: 4,
            schedule: "crash".into(),
            mean_loss: 1.25,
            h2d_bytes: 4096,
            nic_bytes: 1024,
            sim_seconds: 0.5,
            degraded_reads: 17,
            max_staleness: 3,
        }
    }

    #[test]
    fn export_carries_schema_tag_and_fields() {
        let doc = cluster_bench_json(42, &[row()]);
        assert!(doc.contains("\"schemaVersion\":\"fgnn-cluster-v1\""));
        assert!(doc.contains("\"seed\":42"));
        assert!(doc.contains("\"hosts\":4"));
        assert!(doc.contains("\"schedule\":\"crash\""));
        assert!(doc.contains("\"nicBytes\":1024"));
        assert!(doc.contains("\"degradedReads\":17"));
        assert!(doc.contains("\"maxStaleness\":3"));
        assert!(doc.ends_with("]}\n"));
    }

    #[test]
    fn export_is_deterministic_and_order_preserving() {
        let mut second = row();
        second.hosts = 8;
        let rows = [row(), second];
        let a = cluster_bench_json(7, &rows);
        let b = cluster_bench_json(7, &rows);
        assert_eq!(a, b);
        let h4 = a.find("\"hosts\":4").unwrap();
        let h8 = a.find("\"hosts\":8").unwrap();
        assert!(h4 < h8, "row order preserved");
    }

    #[test]
    fn empty_sweep_is_valid_json_shell() {
        let doc = cluster_bench_json(1, &[]);
        assert_eq!(
            doc,
            "{\"schemaVersion\":\"fgnn-cluster-v1\",\"seed\":1,\"rows\":[]}\n"
        );
    }

    #[test]
    fn gated_floats_round_trip_through_the_json_parser() {
        let mut r = row();
        r.mean_loss = 1.0 / 3.0;
        r.sim_seconds = 2.0816e-3_f64;
        let doc = cluster_bench_json(9, &[r.clone()]);
        let parsed = crate::obs::parse_json(&doc).expect("valid JSON");
        let rows = parsed.get("rows").and_then(|v| v.as_array()).unwrap();
        let loss = rows[0].get("meanLoss").and_then(|v| v.as_f64()).unwrap();
        let sim = rows[0].get("simSeconds").and_then(|v| v.as_f64()).unwrap();
        assert_eq!(loss.to_bits(), r.mean_loss.to_bits());
        assert_eq!(sim.to_bits(), r.sim_seconds.to_bits());
    }
}
