//! Fig 10: single-GPU epoch time, GraphSAGE, four large datasets.
//!
//! Systems are traffic/execution configurations of the same trainer
//! (DESIGN.md §2):
//!
//! * **PyG** — two-sided loads + single-threaded, per-batch-overhead
//!   sampler (Python dataloader);
//! * **DGL** — two-sided loads + parallel C++ sampler;
//! * **PyTorch-Direct** — one-sided UVA loads, no cache;
//! * **GAS / ClusterGCN** — the algorithmic baselines (their own traffic);
//! * **FreshGNN** — one-sided + historical embedding cache.
//!
//! OOM entries follow the paper's accounting (GAS history at paper scale;
//! every system except DGL/FreshGNN on MAG240M, per §7.2).

use fgnn_bench::{banner, fmt_bytes, fmt_secs, row, Args, ObsExport};
use fgnn_graph::datasets::{friendster_spec, mag240m_spec, papers100m_spec, twitter_spec};
use fgnn_graph::Dataset;
use fgnn_memsim::presets::Machine;
use fgnn_memsim::stage::{StageKind, StageTimings};
use fgnn_nn::model::Arch;
use fgnn_nn::Adam;
use freshgnn::baselines::{ClusterGcnTrainer, GasConfig, GasTrainer};
use freshgnn::config::LoadMode;
use freshgnn::{FreshGnnConfig, Obs, Trainer};

/// PyG's Python-side per-batch sampling overhead relative to the native
/// parallel sampler (paper Fig 10 shows PyG ≈4–5x slower than DGL).
const PYG_SAMPLER_FACTOR: f64 = 8.0;
/// DGL/FreshGNN samplers run on many CPU threads; sampling overlaps
/// training (counters take the max). Threads assumed available:
const SAMPLER_THREADS: f64 = 32.0;

struct SystemRow {
    name: &'static str,
    epoch_s: Option<f64>, // None = OOM
    h2d: u64,
    /// Per-stage attribution of the measured epoch. `sample_scale` rescales
    /// the sample stage the same way the headline time does (PyG overhead /
    /// sampler threads).
    timings: Option<StageTimings>,
    sample_scale: f64,
    /// Observability state of the measured run (spans + metrics), taken
    /// from the trainer for `--trace-out`/`--metrics-out`.
    obs: Option<Obs>,
}

/// Simulated seconds attributed to `kind`, with the sampler rescaling.
fn stage_secs(r: &SystemRow, kind: StageKind) -> f64 {
    let t = r
        .timings
        .as_ref()
        .expect("stage table only for non-OOM rows");
    let s = t.sim_seconds(kind);
    if kind == StageKind::Sample {
        s * r.sample_scale
    } else {
        s
    }
}

fn run_ns_system(
    ds: &Dataset,
    name: &'static str,
    mode: LoadMode,
    cache: bool,
    sampler_factor: f64,
    sampler_threads: f64,
    seed: u64,
) -> SystemRow {
    let cfg = FreshGnnConfig {
        p_grad: if cache { 0.9 } else { 0.0 },
        t_stale: if cache { 100 } else { 0 },
        fanouts: vec![6, 6, 6],
        batch_size: 256,
        load_mode: mode,
        ..Default::default()
    };
    let mut t = Trainer::new(ds, Arch::Sage, 64, Machine::single_a100(), cfg, seed);
    let mut opt = Adam::new(0.003);
    // Warm the cache one epoch, then measure the second epoch.
    t.train_epoch(ds, &mut opt);
    let s = t.train_epoch(ds, &mut opt);
    let mut c = s.counters;
    c.sample_seconds = c.sample_seconds * sampler_factor / sampler_threads;
    SystemRow {
        name,
        epoch_s: Some(c.sim_seconds()),
        h2d: c.host_to_gpu_bytes,
        timings: Some(s.timings),
        sample_scale: sampler_factor / sampler_threads,
        obs: Some(std::mem::take(&mut t.obs)),
    }
}

fn main() {
    let args = Args::parse();
    let seed: u64 = args.get("seed", 42);
    let scale: f64 = args.get("scale", 0.0002);
    let mut export = ObsExport::from_args(&args);

    banner(
        "Fig 10",
        "Single-GPU epoch time, GraphSAGE (simulated A100 + PCIe3)",
    );
    let specs = vec![
        papers100m_spec(scale).with_dim(128),
        mag240m_spec(scale).with_dim(256),
        twitter_spec(scale).with_dim(128),
        friendster_spec(scale).with_dim(128),
    ];

    for spec in specs {
        let is_mag = spec.name == "mag240M-s";
        let ds = Dataset::materialize(spec, seed);
        println!(
            "\n--- {} ({} nodes, {} edges, {}B/row) ---",
            ds.spec.name,
            ds.num_nodes(),
            ds.graph.num_edges(),
            ds.spec.feature_row_bytes()
        );

        let mut rows: Vec<SystemRow> = Vec::new();
        rows.push(run_ns_system(
            &ds,
            "PyG",
            LoadMode::TwoSided,
            false,
            PYG_SAMPLER_FACTOR,
            1.0,
            seed,
        ));
        rows.push(run_ns_system(
            &ds,
            "DGL",
            LoadMode::TwoSided,
            false,
            1.0,
            SAMPLER_THREADS,
            seed,
        ));
        rows.push(run_ns_system(
            &ds,
            "PyTorch-Direct",
            LoadMode::OneSided,
            false,
            1.0,
            SAMPLER_THREADS,
            seed,
        ));

        // GAS: OOM everywhere at paper scale here (papers100M history
        // ~`O(Lnd)`; Twitter/Friendster/MAG are bigger still): paper shows
        // GAS only on papers100M (orders of magnitude slower) and OOM
        // beyond. Run it on papers-s; account OOM on the rest.
        if ds.spec.name == "papers100M-s" {
            let mut gas = GasTrainer::new(
                &ds,
                Arch::Sage,
                64,
                vec![6, 6, 6],
                Machine::single_a100(),
                GasConfig {
                    num_parts: (ds.num_nodes() / 128).clamp(2, 64),
                    max_neighbors: 64,
                    momentum: None,
                },
                seed,
            );
            let mut opt = Adam::new(0.003);
            let gs = gas.train_epoch(&ds, &mut opt);
            let c = gas.counters.clone();
            rows.push(SystemRow {
                name: "GAS",
                epoch_s: Some(c.sim_seconds()),
                h2d: c.host_to_gpu_bytes,
                timings: Some(gs.timings),
                sample_scale: 1.0,
                obs: Some(std::mem::take(&mut gas.obs)),
            });
            let mut cg = ClusterGcnTrainer::new(
                &ds,
                Arch::Sage,
                64,
                vec![6, 6, 6],
                (ds.num_nodes() / 128).clamp(2, 64),
                2,
                Machine::single_a100(),
                seed,
            );
            let cs = cg.train_epoch(&ds, &mut opt);
            rows.push(SystemRow {
                name: "ClusterGCN",
                epoch_s: Some(cg.counters.sim_seconds()),
                h2d: cg.counters.host_to_gpu_bytes,
                timings: Some(cs.timings),
                sample_scale: 1.0,
                obs: Some(std::mem::take(&mut cg.obs)),
            });
        } else {
            rows.push(SystemRow {
                name: "GAS",
                epoch_s: None,
                h2d: 0,
                timings: None,
                sample_scale: 1.0,
                obs: None,
            });
            rows.push(SystemRow {
                name: "ClusterGCN",
                epoch_s: None,
                h2d: 0,
                timings: None,
                sample_scale: 1.0,
                obs: None,
            });
        }
        // Paper: on MAG240M only DGL and FreshGNN avoid OOM.
        if is_mag {
            for r in rows.iter_mut() {
                if r.name == "PyG" || r.name == "PyTorch-Direct" {
                    r.epoch_s = None;
                }
            }
        }
        rows.push(run_ns_system(
            &ds,
            "FreshGNN",
            LoadMode::OneSided,
            true,
            1.0,
            SAMPLER_THREADS,
            seed,
        ));

        let fresh_time = rows.last().and_then(|r| r.epoch_s).unwrap_or(1.0);
        let w = [17, 14, 13, 12];
        row(
            &[&"system", &"epoch time", &"h2d bytes", &"vs FreshGNN"],
            &w,
        );
        for r in &rows {
            match r.epoch_s {
                Some(t) => row(
                    &[
                        &r.name,
                        &fmt_secs(t),
                        &fmt_bytes(r.h2d),
                        &format!("{:.1}x", t / fresh_time),
                    ],
                    &w,
                ),
                None => row(&[&r.name, &"OOM", &"-", &"-"], &w),
            }
        }

        // Per-stage breakdown (the stacked bars of Fig 10): simulated
        // seconds attributed to each pipeline stage of the measured epoch.
        println!("\nper-stage sim seconds:");
        let sw = [17, 9, 9, 9, 9, 9, 13, 11];
        let mut header: Vec<&dyn std::fmt::Display> = vec![&"system"];
        let names: Vec<String> = StageKind::ALL
            .iter()
            .map(|k| k.name().to_string())
            .collect();
        for n in &names {
            header.push(n);
        }
        row(&header, &sw);
        for r in rows.iter().filter(|r| r.timings.is_some()) {
            let cells: Vec<String> = StageKind::ALL
                .iter()
                .map(|&k| fmt_secs(stage_secs(r, k)))
                .collect();
            let mut line: Vec<&dyn std::fmt::Display> = vec![&r.name];
            for c in &cells {
                line.push(c);
            }
            row(&line, &sw);
        }

        if export.active() {
            for r in &mut rows {
                if let Some(obs) = r.obs.take() {
                    export.add(format!("{}/{}", ds.spec.name, r.name), obs);
                }
            }
        }
    }
    export
        .write()
        .expect("writing --trace-out/--metrics-out files");
    println!("\npaper (Fig 10): FreshGNN 5.3x faster than DGL and 23.6x than PyG on");
    println!("papers100M; 4.6x vs PyTorch-Direct; GAS/ClusterGCN orders slower.");
}
