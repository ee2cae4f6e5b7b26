//! Extension experiment: test §4.1's core hypothesis directly.
//!
//! The paper argues "consistently small gradient magnitudes are likely to
//! correlate on average with smaller estimation errors ‖h̄ − h‖". We can
//! measure that correlation exactly (the paper cannot at its scale):
//!
//! 1. fix a probe mini-batch; at iteration `t` record every level-1
//!    node's embedding **and** its loss-gradient norm;
//! 2. train `s` more iterations;
//! 3. recompute the same embeddings under the new weights; the drift
//!    `‖h_{t+s} − h_t‖` is exactly the estimation error a cache admission
//!    at `t` would have incurred at `t+s`;
//! 4. report the Pearson and Spearman correlation between gradient norm
//!    at `t` and subsequent drift.
//!
//! Positive correlation = the gradient criterion selects the right nodes.

use fgnn_bench::{banner, row, Args};
use fgnn_graph::datasets::products_spec;
use fgnn_graph::sample::{split_batches, NeighborSampler};
use fgnn_graph::Dataset;
use fgnn_memsim::presets::Machine;
use fgnn_nn::loss::softmax_cross_entropy;
use fgnn_nn::model::Arch;
use fgnn_nn::Adam;
use fgnn_tensor::{stats, Matrix, Rng};
use freshgnn::{FreshGnnConfig, Trainer};

fn main() {
    let args = Args::parse();
    let seed: u64 = args.get("seed", 42);
    let scale: f64 = args.get("scale", 0.002);
    let warmup: usize = args.get("warmup", 40);
    let lag: usize = args.get("lag", 20);

    banner(
        "Extension",
        "§4.1 hypothesis: do small gradient norms predict small drift?",
    );
    let ds = Dataset::materialize(products_spec(scale).with_dim(32), seed);
    println!(
        "products-s: {} nodes; warmup {warmup} iters, drift lag {lag} iters\n",
        ds.num_nodes()
    );

    let cfg = FreshGnnConfig::neighbor_sampling(vec![6, 6], 128);
    let mut trainer = Trainer::new(&ds, Arch::Sage, 64, Machine::single_a100(), cfg, seed);
    let mut opt = Adam::new(0.003);

    // Fixed probe batch.
    let mut probe_rng = Rng::new(seed ^ 0x51AB);
    let probe_seeds: Vec<u32> = ds.train_nodes[..128.min(ds.train_nodes.len())].to_vec();
    let mut sampler = NeighborSampler::new(ds.num_nodes());
    let probe_mb = sampler.sample(&ds.graph, &probe_seeds, &[6, 6], &mut probe_rng);
    let ids: Vec<usize> = probe_mb.input_nodes().iter().map(|&g| g as usize).collect();
    let probe_h0 = ds.features.gather_rows(&ids);
    let probe_labels: Vec<u16> = probe_seeds.iter().map(|&s| ds.labels[s as usize]).collect();

    // Warm up so embeddings are past the chaotic first iterations.
    let mut rng = Rng::new(seed ^ 0x51);
    let mut done = 0usize;
    let mut train_some = |trainer: &mut Trainer, n: usize, rng: &mut Rng, done: &mut usize| {
        while *done < n {
            let batches = split_batches(&ds.train_nodes, 128, Some(rng));
            for b in &batches {
                trainer.train_on_batches(&ds, std::slice::from_ref(b), &mut opt);
                *done += 1;
                if *done >= n {
                    break;
                }
            }
        }
    };
    train_some(&mut trainer, warmup, &mut rng, &mut done);

    // Snapshot: level-1 embeddings + per-node gradient norms at t.
    let trace = trainer.model.forward(&probe_mb, probe_h0.clone());
    let h1_before: Matrix = trace.h[1].clone();
    let logits = trace.h.last().unwrap();
    let (_, d_top) = softmax_cross_entropy(logits, &probe_labels);
    let mut grad_norms = vec![0.0f32; probe_mb.blocks[0].num_dst()];
    trainer.model.zero_grad();
    {
        let norms = &mut grad_norms;
        trainer
            .model
            .backward_with(&probe_mb, &trace, d_top, None, |level, d| {
                if level == 1 {
                    for (v, n) in norms.iter_mut().enumerate() {
                        *n = d.row(v).iter().map(|&x| x * x).sum::<f32>().sqrt();
                    }
                }
            });
    }
    trainer.model.zero_grad();

    // Train `lag` more iterations, then measure drift.
    train_some(&mut trainer, warmup + lag, &mut rng, &mut done);
    let trace_after = trainer.model.forward(&probe_mb, probe_h0);
    let h1_after = &trace_after.h[1];
    let drift: Vec<f32> = (0..h1_before.rows())
        .map(|v| {
            h1_before
                .row(v)
                .iter()
                .zip(h1_after.row(v))
                .map(|(&a, &b)| (a - b) * (a - b))
                .sum::<f32>()
                .sqrt()
        })
        .collect();

    let pearson = stats::pearson(&grad_norms, &drift);
    let spearman = stats::spearman(&grad_norms, &drift);
    let w = [26, 12];
    row(&[&"metric", &"value"], &w);
    row(&[&"nodes probed", &grad_norms.len()], &w);
    row(&[&"Pearson(grad, drift)", &format!("{pearson:.3}")], &w);
    row(&[&"Spearman(grad, drift)", &format!("{spearman:.3}")], &w);
    // Contrast the policy's actual selection: mean drift of the bottom-90%
    // vs the top-10% gradient-norm nodes.
    let mut order: Vec<usize> = (0..grad_norms.len()).collect();
    order.sort_by(|&a, &b| grad_norms[a].partial_cmp(&grad_norms[b]).unwrap());
    let cut = (order.len() as f64 * 0.9) as usize;
    let mean_low: f32 = order[..cut].iter().map(|&i| drift[i]).sum::<f32>() / cut.max(1) as f32;
    let mean_high: f32 =
        order[cut..].iter().map(|&i| drift[i]).sum::<f32>() / (order.len() - cut).max(1) as f32;
    row(
        &[&"mean drift, admitted 90%", &format!("{mean_low:.4}")],
        &w,
    );
    row(
        &[&"mean drift, evicted 10%", &format!("{mean_high:.4}")],
        &w,
    );
    println!("\n§4.1 predicts positive correlation and higher drift among the");
    println!("evicted (large-gradient) fraction.");
}
