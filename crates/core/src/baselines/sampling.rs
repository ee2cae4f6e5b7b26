//! The "broader sampling methods" of §2.3: layer-wise (FastGCN-family)
//! and graph-wise (GraphSAINT-family) training — the [`Sampling`]
//! workload of the shared [`Driver`] — and the subgraph step they share
//! with ClusterGCN.
//!
//! Both bound the per-batch footprint without a cache, at the cost of
//! biased/sparser aggregations — the accuracy-vs-footprint tradeoff the
//! paper contrasts FreshGNN against (see `exp_ext_sampling_families`).

use crate::config::FreshGnnConfig;
use crate::driver::{Driver, Stages, Workload};
use crate::pipeline::{BatchOutput, EvalHarness, PipelineCtx};
use fgnn_graph::block::{Block, MiniBatch};
use fgnn_graph::partition::induced_subgraph;
use fgnn_graph::sample::{layer_wise_sample, random_walk_nodes};
use fgnn_graph::{Csr, Csr2, Dataset, NodeId};
use fgnn_memsim::presets::{aggregation_flops, dense_flops, Machine};
use fgnn_memsim::stage::StageKind;
use fgnn_memsim::topology::Node;
use fgnn_memsim::TrafficCounters;
use fgnn_nn::loss::softmax_cross_entropy;
use fgnn_nn::model::{Arch, Model};
use fgnn_nn::Optimizer;
use fgnn_tensor::{Matrix, Rng};
use std::sync::Arc;

/// Which sampling family to train with.
#[derive(Clone, Debug)]
pub enum SamplingKind {
    /// Layer-wise: a fixed node budget per layer (FastGCN-style).
    LayerWise {
        /// Sampled sources per layer (input→output order).
        layer_sizes: Vec<usize>,
    },
    /// Graph-wise: random-walk subgraphs trained full-graph style
    /// (GraphSAINT-style).
    GraphWise {
        /// Walk roots per batch.
        roots: usize,
        /// Steps per walk.
        walk_length: usize,
    },
}

/// Trainer for the §2.3 sampling families: the epoch [`Driver`] over the
/// [`Sampling`] workload.
pub type SamplingBaselineTrainer = Driver<Sampling>;

/// Workload state of the sampling families: an epoch splits the training
/// nodes into batches, and one fork of the trainer stream per batch
/// samples it. The state is also its own sampling handle: every field is
/// shared by refcount with an overlapped epoch's workers.
#[derive(Clone)]
pub struct Sampling {
    graph: Arc<Csr>,
    kind: SamplingKind,
    /// What walk roots are drawn from (graph-wise).
    train_nodes: Arc<[NodeId]>,
    is_train: Arc<[bool]>,
    num_layers: usize,
}

impl Driver<Sampling> {
    /// Build a `kind` trainer for `ds`: an `arch` model with `hidden` units
    /// per hidden layer and one layer per entry of `fanouts` (also the
    /// evaluation fanouts), batches of `batch_size` training nodes.
    // Mirrors the baseline's natural knobs; a builder would add noise for
    // a handful of call sites.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        ds: &Dataset,
        arch: Arch,
        hidden: usize,
        fanouts: Vec<usize>,
        batch_size: usize,
        kind: SamplingKind,
        machine: Machine,
        seed: u64,
    ) -> Self {
        let num_layers = fanouts.len();
        if let SamplingKind::LayerWise { layer_sizes } = &kind {
            assert_eq!(layer_sizes.len(), num_layers, "one budget per layer");
        }
        let cfg = FreshGnnConfig::neighbor_sampling(fanouts, batch_size);
        Driver::with_model(ds, arch, hidden, machine, cfg, seed, |_, _, _| Sampling {
            graph: Arc::clone(&ds.graph),
            kind,
            train_nodes: ds.train_nodes.clone().into(),
            is_train: super::train_mask(ds).into(),
            num_layers,
        })
    }
}

impl Workload for Sampling {
    type Dataset = Dataset;
    type Model = Model;
    /// `None` when a graph-wise walk found no labeled node.
    type Batch = Option<SubgraphBatch>;
    type Graph = Sampling;
    type Sampler = ();
    type Trace = ();
    type Grads = ();

    fn units<'a>(&'a self, ds: &'a Dataset) -> &'a [NodeId] {
        &ds.train_nodes
    }

    /// One fork of the trainer stream samples the batch; there is no cache
    /// policy to feed.
    fn batch_rngs(&self, main: &mut Rng, _iter: u32) -> (Rng, Rng) {
        (main.fork(), Rng::new(0))
    }

    fn step(
        st: &mut Stages<'_, Self>,
        ds: &Dataset,
        ctx: &mut PipelineCtx<'_>,
        counters: &mut TrafficCounters,
        batch: Option<SubgraphBatch>,
        _policy_rng: &mut Rng,
        opt: &mut dyn Optimizer,
    ) -> Option<BatchOutput> {
        let batch = batch?;
        let (dims, blocks) = (st.dims, &batch.mb.blocks);
        let flops = 3.0
            * (0..dims.len() - 1)
                .map(|l| {
                    dense_flops(blocks[l].num_dst(), dims[l], dims[l + 1])
                        + aggregation_flops(blocks[l].num_edges(), dims[l])
                })
                .sum::<f64>();
        Some(train_subgraph(st, ds, ctx, counters, batch, flops, opt))
    }

    fn graph(&self, _: &Dataset) -> Sampling {
        self.clone()
    }

    fn sampler(_: &Sampling) {}

    fn sample(
        _: &mut (),
        s: &Sampling,
        seeds: &[NodeId],
        _: &[usize],
        rng: &mut Rng,
    ) -> Option<SubgraphBatch> {
        match &s.kind {
            SamplingKind::LayerWise { layer_sizes } => Some(SubgraphBatch {
                mb: layer_wise_sample(&s.graph, seeds, layer_sizes, rng),
                loss_rows: None,
            }),
            SamplingKind::GraphWise { roots, walk_length } => {
                let roots: Vec<NodeId> = (0..*roots)
                    .map(|_| s.train_nodes[rng.below(s.train_nodes.len())])
                    .collect();
                let nodes = random_walk_nodes(&s.graph, &roots, *walk_length, rng);
                subgraph_batch(&s.graph, &nodes, &s.is_train, s.num_layers)
            }
        }
    }

    fn accuracy(
        model: &Model,
        ds: &Dataset,
        nodes: &[NodeId],
        fanouts: &[usize],
        batch_size: usize,
        rng: &mut Rng,
    ) -> f64 {
        EvalHarness::accuracy(model, ds, nodes, fanouts, batch_size, rng)
    }
}

/// A sampled batch of a cache-less baseline: its blocks, and the output
/// rows its loss reads (`None`: every output row is a labeled seed).
pub struct SubgraphBatch {
    pub(crate) mb: MiniBatch,
    loss_rows: Option<Vec<usize>>,
}

/// The full-graph-style batch over the subgraph `nodes` induce (ClusterGCN,
/// graph-wise sampling), its loss over the labeled rows; `None` when none
/// is labeled.
pub(crate) fn subgraph_batch(
    graph: &Csr,
    nodes: &[NodeId],
    is_train: &[bool],
    num_layers: usize,
) -> Option<SubgraphBatch> {
    let loss_rows: Vec<usize> = nodes
        .iter()
        .enumerate()
        .filter(|&(_, &g)| is_train[g as usize])
        .map(|(i, _)| i)
        .collect();
    if loss_rows.is_empty() {
        return None;
    }
    let (sub, map) = induced_subgraph(graph, nodes);
    Some(SubgraphBatch {
        mb: full_subgraph_minibatch(&sub, &map, num_layers),
        loss_rows: Some(loss_rows),
    })
}

/// Load → forward → backward → optimizer step of a cache-less baseline on
/// `batch`, then `flops` of simulated compute, charged in a second
/// `Backward` scope after the optimizer step (the span and ledger order the
/// baseline goldens were recorded with).
pub(crate) fn train_subgraph<W: Workload<Dataset = Dataset, Model = Model>>(
    st: &mut Stages<'_, W>,
    ds: &Dataset,
    ctx: &mut PipelineCtx<'_>,
    counters: &mut TrafficCounters,
    batch: SubgraphBatch,
    flops: f64,
    opt: &mut dyn Optimizer,
) -> BatchOutput {
    let SubgraphBatch { mb, loss_rows } = batch;
    // Every input row loads raw, every batch: the baselines' traffic
    // profile.
    let h0 = ctx.stage(StageKind::Load, counters, |engine, c| {
        let ids: Vec<usize> = mb.input_nodes().iter().map(|&g| g as usize).collect();
        let h0 = ds.features.gather_rows(&ids);
        let bytes = (ids.len() * ds.spec.feature_row_bytes()) as u64;
        engine.one_sided_read(Node::Host, Node::Gpu(0), bytes, c);
        h0
    });
    let model = &mut *st.model;
    let trace = ctx.stage(StageKind::Forward, counters, |_, _| model.forward(&mb, h0));
    let loss = ctx.stage(StageKind::Backward, counters, |_, _| {
        let logits = trace.h.last().unwrap();
        let label = |v: NodeId| ds.labels[v as usize];
        let (loss, d_top) = match &loss_rows {
            None => {
                let labels: Vec<u16> = mb.seeds.iter().map(|&s| label(s)).collect();
                softmax_cross_entropy(logits, &labels)
            }
            Some(rows) => {
                let sel = logits.gather_rows(rows);
                let labels: Vec<u16> = rows.iter().map(|&i| label(mb.seeds[i])).collect();
                let (loss, d_sel) = softmax_cross_entropy(&sel, &labels);
                let mut d = Matrix::zeros(logits.rows(), logits.cols());
                d.scatter_add_rows(rows, &d_sel);
                (loss, d)
            }
        };
        model.zero_grad();
        model.backward(&mb, &trace, d_top);
        loss
    });
    ctx.stage(StageKind::OptimStep, counters, |_, _| {
        opt.step(&mut model.params_mut());
    });
    ctx.stage(StageKind::Backward, counters, |_, c| {
        c.compute_seconds += st.machine.gpu.compute_seconds(flops);
    });
    BatchOutput::loss_only(loss)
}

/// An L-layer mini-batch covering the whole subgraph at every layer
/// (shared by ClusterGCN and GraphSAINT-style training).
pub(crate) fn full_subgraph_minibatch(sub: &Csr, map: &[NodeId], num_layers: usize) -> MiniBatch {
    let n = sub.num_nodes();
    let lists: Vec<Vec<NodeId>> = (0..n as NodeId)
        .map(|v| sub.neighbors(v).to_vec())
        .collect();
    let block = Block {
        dst_global: map.to_vec(),
        src_global: map.to_vec(),
        adj: Csr2::from_neighbor_lists(&lists),
    };
    MiniBatch {
        blocks: vec![block; num_layers],
        seeds: map.to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgnn_graph::datasets::arxiv_spec;
    use fgnn_nn::Adam;

    fn tiny() -> Dataset {
        Dataset::materialize(arxiv_spec(0.0).with_dim(12), 13)
    }

    #[test]
    fn layer_wise_trains_and_bounds_traffic() {
        let ds = tiny();
        let mut t = SamplingBaselineTrainer::new(
            &ds,
            Arch::Gcn,
            16,
            vec![4, 4],
            64,
            SamplingKind::LayerWise {
                layer_sizes: vec![64, 64],
            },
            Machine::single_a100(),
            1,
        );
        let mut opt = Adam::new(0.01);
        let first = t.train_epoch(&ds, &mut opt).mean_loss;
        let mut last = first;
        for _ in 0..8 {
            last = t.train_epoch(&ds, &mut opt).mean_loss;
        }
        assert!(last < first, "loss {first} -> {last}");
        // Footprint bound: per batch at most seeds + Σ layer budgets rows.
        let batches = ds.train_nodes.len().div_ceil(64);
        let max_rows = (64 + 64 + 64) * batches * 9;
        assert!(
            t.counters.host_to_gpu_bytes <= (max_rows * ds.spec.feature_row_bytes()) as u64,
            "traffic {} exceeds layer-wise bound",
            t.counters.host_to_gpu_bytes
        );
    }

    #[test]
    fn graph_wise_trains() {
        let ds = tiny();
        let mut t = SamplingBaselineTrainer::new(
            &ds,
            Arch::Sage,
            16,
            vec![4, 4],
            64,
            SamplingKind::GraphWise {
                roots: 16,
                walk_length: 4,
            },
            Machine::single_a100(),
            2,
        );
        let mut opt = Adam::new(0.01);
        let first = t.train_epoch(&ds, &mut opt).mean_loss;
        let mut last = first;
        for _ in 0..8 {
            last = t.train_epoch(&ds, &mut opt).mean_loss;
        }
        assert!(last < first, "loss {first} -> {last}");
        assert!(t.counters.host_to_gpu_bytes > 0);
    }

    #[test]
    fn both_families_reach_above_random_accuracy() {
        let ds = tiny();
        for kind in [
            SamplingKind::LayerWise {
                layer_sizes: vec![96, 96],
            },
            SamplingKind::GraphWise {
                roots: 24,
                walk_length: 4,
            },
        ] {
            // Fresh optimizer per family (Adam state is per-model).
            let mut opt = Adam::new(0.01);
            let mut t = SamplingBaselineTrainer::new(
                &ds,
                Arch::Gcn,
                16,
                vec![4, 4],
                64,
                kind.clone(),
                Machine::single_a100(),
                3,
            );
            for _ in 0..20 {
                t.train_epoch(&ds, &mut opt);
            }
            // Layer-wise aggregation is genuinely weak (the paper's point);
            // require clearly-above-random (1/64 ≈ 1.6%), not parity.
            let acc = t.evaluate(&ds, &ds.test_nodes, 256);
            assert!(acc > 0.04, "{kind:?}: accuracy {acc}");
        }
    }
}
