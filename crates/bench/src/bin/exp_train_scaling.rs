//! Extension: worker-count invariance of the training epoch (DESIGN.md
//! §13) at 0/1/2/4/8 sampler workers on the four Fig 10 datasets.
//!
//! Each cell trains the FreshGNN configuration through
//! [`Trainer::train_epoch_async`] — sampling on the runtime pool, overlapped
//! under training, or at 0 workers on the training thread (the synchronous
//! epoch) — and reports exact quantities only: final-epoch mean loss, total
//! H2D feature bytes, and the simulated GPU-stream seconds (transfer +
//! retry + compute). Batches are committed in index order, each sampled
//! with the RNG the trainer drew for it before the epoch, so these
//! reproduce *bit for bit* at any worker count. What overlap and a second
//! worker buy in wall-clock is measured by `perf/`
//! (`sampler.overlapped_pass_s`), not here.
//!
//! `--bench-json <path>` writes the `fgnn-train-v1` document
//! `scripts/bench_trajectory.sh` commits as `BENCH_train.json`. The sweep
//! loop itself lives in [`fgnn_bench::trajectory`], shared with the
//! `exp_report` gate (which additionally enforces the cross-worker
//! bit-identity).
//!
//! [`Trainer::train_epoch_async`]: freshgnn::Trainer::train_epoch_async

use fgnn_bench::trajectory::{train_sweep, TrainSuite, TrainSweepConfig};
use fgnn_bench::{banner, fmt_bytes, row, table, Args};

fn main() {
    let args = Args::parse();
    let mut sw = TrainSweepConfig {
        seed: args.get("seed", 42),
        scale: args.get("scale", 1.0),
        epochs: args.get("epochs", 2),
        ..TrainSweepConfig::default()
    };
    if let Some(list) = args.get_opt::<String>("workers") {
        sw.workers = list
            .split(',')
            .map(|w| {
                w.trim()
                    .parse()
                    .unwrap_or_else(|e| panic!("--workers: {e}"))
            })
            .collect();
        assert!(!sw.workers.is_empty(), "--workers needs at least one count");
    }
    let bench_out: Option<String> = args.get_opt("bench-json");

    banner(
        "TrainScaling",
        "Training epochs vs sampler workers (exact metrics invariant)",
    );
    println!(
        "{} epochs per cell, workers {:?}, seed {} ({} cores available)\n",
        sw.epochs,
        sw.workers,
        sw.seed,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );

    let w = [12usize, 8, 12, 10, 13];
    row(
        &[&"dataset", &"workers", &"meanLoss", &"h2d", &"simSeconds"],
        &w,
    );

    let rows = train_sweep(&sw, |r| {
        row(
            &[
                &r.dataset,
                &r.workers,
                &format!("{:.6}", r.mean_loss),
                &fmt_bytes(r.h2d_bytes),
                &format!("{:.6}", r.sim_seconds),
            ],
            &w,
        );
    });

    println!("\nscaling reading: meanLoss/h2d/simSeconds must be identical down");
    println!("each dataset's column (the runtime's determinism contract).");
    if let Some(path) = bench_out {
        std::fs::write(&path, table::write::<TrainSuite>(sw.seed, &rows))
            .expect("write --bench-json");
        eprintln!("wrote train bench JSON to {path}");
    }
}
