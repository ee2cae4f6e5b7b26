//! Extension experiment: the §2.3 design space in one table.
//!
//! The paper's taxonomy of scalable mini-batch training: neighbor
//! sampling (exponential footprint, exact target), layer-wise sampling
//! (bounded footprint, biased aggregation), graph-wise sampling (bounded
//! footprint, dropped edges), historical embeddings without control (the
//! GAS corner), and FreshGNN (bounded error via the selective cache).
//! One row per family: accuracy vs wire traffic.

use fgnn_bench::{banner, fmt_bytes, row, Args};
use fgnn_graph::datasets::papers100m_spec;
use fgnn_graph::Dataset;
use fgnn_memsim::presets::Machine;
use fgnn_nn::model::Arch;
use fgnn_nn::Adam;
use freshgnn::baselines::{SamplingBaselineTrainer, SamplingKind};
use freshgnn::{FreshGnnConfig, Trainer};

fn main() {
    let args = Args::parse();
    let seed: u64 = args.get("seed", 42);
    let scale: f64 = args.get("scale", 0.0004);
    let epochs: usize = args.get("epochs", 60);

    banner(
        "Extension",
        "The §2.3 design space: accuracy vs traffic per sampling family",
    );
    let ds = Dataset::materialize(papers100m_spec(scale).with_dim(48), seed);
    println!(
        "papers100M-s: {} nodes, {} train; GraphSAGE where applicable\n",
        ds.num_nodes(),
        ds.train_nodes.len()
    );
    let eval_nodes = &ds.test_nodes[..ds.test_nodes.len().min(1500)];
    let w = [26, 12, 14];
    row(&[&"family", &"test acc", &"wire bytes"], &w);

    // Neighbor sampling (the target) and FreshGNN share the Trainer.
    for (name, p_grad, t_stale) in [("neighbor sampling", 0.0f32, 0u32), ("FreshGNN", 0.9, 6)] {
        let cfg = FreshGnnConfig {
            p_grad,
            t_stale,
            fanouts: vec![6, 6],
            batch_size: 128,
            ..Default::default()
        };
        let mut t = Trainer::new(&ds, Arch::Sage, 64, Machine::single_a100(), cfg, seed);
        let mut opt = Adam::new(0.003);
        let mut best = 0.0f64;
        for e in 0..epochs {
            t.train_epoch(&ds, &mut opt);
            if e % 10 == 9 {
                best = best.max(t.evaluate(&ds, eval_nodes, 512));
            }
        }
        best = best.max(t.evaluate(&ds, eval_nodes, 512));
        row(
            &[
                &name,
                &format!("{best:.4}"),
                &fmt_bytes(t.counters.wire_bytes()),
            ],
            &w,
        );
    }

    // Layer-wise and graph-wise families.
    for (name, kind) in [
        (
            "layer-wise (FastGCN)",
            SamplingKind::LayerWise {
                layer_sizes: vec![512, 512],
            },
        ),
        (
            "graph-wise (GraphSAINT)",
            SamplingKind::GraphWise {
                roots: 64,
                walk_length: 4,
            },
        ),
    ] {
        let mut t = SamplingBaselineTrainer::new(
            &ds,
            Arch::Sage,
            64,
            vec![6, 6],
            128,
            kind,
            Machine::single_a100(),
            seed,
        );
        let mut opt = Adam::new(0.003);
        let mut best = 0.0f64;
        for e in 0..epochs {
            t.train_epoch(&ds, &mut opt);
            if e % 10 == 9 {
                best = best.max(t.evaluate(&ds, eval_nodes, 256));
            }
        }
        best = best.max(t.evaluate(&ds, eval_nodes, 256));
        row(
            &[
                &name,
                &format!("{best:.4}"),
                &fmt_bytes(t.counters.wire_bytes()),
            ],
            &w,
        );
    }
    println!("\nexpected (§2.3): bounded-footprint samplers trade accuracy for");
    println!("traffic; FreshGNN keeps the NS accuracy at a fraction of its bytes.");
}
