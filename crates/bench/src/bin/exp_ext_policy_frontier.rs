//! Extension: the accuracy-vs-cache-traffic frontier of the staleness
//! policy family (DESIGN.md §11) on the four Fig 10 datasets.
//!
//! Sweeps the four staleness-control policies at the same `p` / `t_stale`:
//!
//! * **gradient** — the paper's baseline (hard `t_stale` bound, plain
//!   reads);
//! * **staleness-weighted** — VISAGNN-style: reads are down-weighted
//!   linearly in age instead of trusted verbatim;
//! * **predictive** — dynamic-embedding prediction (arXiv:2308.13466):
//!   aged reads are extrapolated along each entry's update-delta history
//!   (recorded by mid-window in-place refreshes);
//! * **coarse-refresh** — a periodic refresh schedule: live entries are
//!   recomputed and rewritten in place once per `t_stale/4` iterations
//!   instead of only at expiry (coarser than streaming updates, finer
//!   than expiry-only).
//!
//! Per (dataset, policy) cell the run reports final accuracy, total H2D
//! feature traffic, the Fig 13 I/O-saving ratio, hit rate and the
//! policy-specific counters, so the frontier "how much accuracy does each
//! staleness treatment buy per byte moved" can be read straight off the
//! table. `--policy <name>` restricts the sweep; `--bench-json <path>`
//! writes the `fgnn-policy-v1` document `scripts/bench_trajectory.sh`
//! commits as `BENCH_policy.json` (exact counters only — bit-for-bit
//! reproducible from the same `--seed`). The sweep loop itself lives in
//! [`fgnn_bench::trajectory`], shared with the `exp_report` gate.

use fgnn_bench::trajectory::{policy_sweep, PolicySuite, PolicySweepConfig};
use fgnn_bench::{banner, fmt_bytes, row, table, Args};
use freshgnn::cache::PolicyKind;

fn main() {
    let args = Args::parse();
    let sw = PolicySweepConfig {
        seed: args.get("seed", 42),
        scale: args.get("scale", 1.0),
        epochs: args.get("epochs", 10),
        t_stale: args.get("t-stale", 30),
        p: args.get("p", 0.9),
        only: args.get_opt::<String>("policy").map(|s| {
            s.parse::<PolicyKind>()
                .unwrap_or_else(|e: String| panic!("--policy: {e}"))
        }),
    };
    let bench_out: Option<String> = args.get_opt("bench-json");

    banner(
        "PolicyFrontier",
        "Accuracy vs cache traffic across the staleness policy family",
    );
    println!(
        "p = {}, t_stale = {}, {} epochs, seed {}\n",
        sw.p, sw.t_stale, sw.epochs, sw.seed
    );

    let w = [12usize, 19, 10, 10, 9, 9, 8, 8, 8];
    row(
        &[
            &"dataset", &"policy", &"acc", &"h2d", &"ioSave%", &"hit%", &"sched", &"pred",
            &"weight",
        ],
        &w,
    );

    let rows = policy_sweep(&sw, |r| {
        row(
            &[
                &r.dataset,
                &r.policy,
                &format!("{:.4}", r.accuracy),
                &fmt_bytes(r.h2d_bytes),
                &format!("{:.1}", r.io_saving * 100.0),
                &format!("{:.1}", r.hit_rate * 100.0),
                &r.scheduled_refreshes,
                &r.predicted_reads,
                &r.weighted_reads,
            ],
            &w,
        );
    });

    println!("\nfrontier reading: at equal traffic the staleness treatments should");
    println!("hold (or improve) accuracy; the refresh schedules trade extra");
    println!("recompute/admit traffic for a lower worst-case served age.");
    if let Some(path) = bench_out {
        std::fs::write(&path, table::write::<PolicySuite>(sw.seed, &rows))
            .expect("write --bench-json");
        eprintln!("wrote policy bench JSON to {path}");
    }
}
