//! Extension: multi-host partitioned training with failure domains
//! (DESIGN.md §14) — the fig 10 datasets sharded across 1/2/4 hosts and
//! trained through [`ClusterTrainer`] under named fault schedules.
//!
//! Each cell partitions the graph with the LDG partitioner, runs BSP
//! lock-step rounds with batched active-message halo reads, and reports
//! exact quantities: final-epoch cluster mean loss, H2D feature bytes,
//! inter-host NIC bytes, simulated seconds (slowest host's stream plus NIC
//! and retry time), degraded reads, and the worst staleness any degraded
//! read was served at. BSP rounds make every one a deterministic function
//! of the seed and the fault schedule; the `crash` schedule's loss and H2D
//! columns must match the `none` schedule bit for bit (deterministic shard
//! recovery). Wall-clock is `perf/`'s `cluster` workload.
//!
//! `--bench-json <path>` writes the `fgnn-cluster-v1` document
//! `scripts/bench_trajectory.sh` commits as `BENCH_cluster.json`. The
//! sweep loop lives in [`fgnn_bench::trajectory`], shared with the
//! `exp_report` gate (which additionally enforces the fault-invariance
//! claim).
//!
//! [`ClusterTrainer`]: freshgnn::ClusterTrainer

use fgnn_bench::trajectory::{cluster_sweep, ClusterSuite, ClusterSweepConfig};
use fgnn_bench::{banner, fmt_bytes, row, table, Args};

fn main() {
    let args = Args::parse();
    let mut sw = ClusterSweepConfig {
        seed: args.get("seed", 42),
        scale: args.get("scale", 1.0),
        epochs: args.get("epochs", 2),
        ..ClusterSweepConfig::default()
    };
    if let Some(list) = args.get_opt::<String>("hosts") {
        sw.hosts = list
            .split(',')
            .map(|h| h.trim().parse().unwrap_or_else(|e| panic!("--hosts: {e}")))
            .collect();
        assert!(!sw.hosts.is_empty(), "--hosts needs at least one count");
    }
    if let Some(list) = args.get_opt::<String>("schedules") {
        sw.schedules = list.split(',').map(|s| s.trim().to_string()).collect();
        assert!(!sw.schedules.is_empty(), "--schedules needs at least one");
    }
    let bench_out: Option<String> = args.get_opt("bench-json");

    banner(
        "Cluster",
        "Multi-host partitioned training under fault schedules",
    );
    println!(
        "{} epochs per cell, hosts {:?}, schedules {:?}, seed {}\n",
        sw.epochs, sw.hosts, sw.schedules, sw.seed,
    );

    let w = [12usize, 6, 9, 12, 10, 10, 12, 9, 9];
    row(
        &[
            &"dataset",
            &"hosts",
            &"schedule",
            &"meanLoss",
            &"h2d",
            &"nic",
            &"simSeconds",
            &"degraded",
            &"maxStale",
        ],
        &w,
    );

    let rows = cluster_sweep(&sw, |r| {
        row(
            &[
                &r.dataset,
                &r.hosts,
                &r.schedule,
                &format!("{:.6}", r.mean_loss),
                &fmt_bytes(r.h2d_bytes),
                &fmt_bytes(r.nic_bytes),
                &format!("{:.6}", r.sim_seconds),
                &r.degraded_reads,
                &r.max_staleness,
            ],
            &w,
        );
    });

    println!("\ncluster reading: meanLoss/h2d must be identical between the none");
    println!("and crash schedules of each (dataset, hosts) pair — checkpoint");
    println!("recovery replays the crashed shard back onto the fault-free");
    println!("trajectory. nic/degraded/maxStale record what the faults cost.");
    if let Some(path) = bench_out {
        std::fs::write(&path, table::write::<ClusterSuite>(sw.seed, &rows))
            .expect("write --bench-json");
        eprintln!("wrote cluster bench JSON to {path}");
    }
}
