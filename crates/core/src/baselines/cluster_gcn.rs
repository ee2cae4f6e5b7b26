//! ClusterGCN (Chiang et al., KDD'19) — the [`ClusterGcn`] workload of the
//! shared [`Driver`].
//!
//! The graph is partitioned once; each training step merges `q` random
//! partitions, takes the *induced* subgraph (cross-partition edges are
//! dropped — the approximation responsible for its accuracy loss on large
//! sparse-label graphs, Table 3) and runs full-graph-style training on it:
//! every node of the subgraph is present at every layer.

use crate::baselines::sampling::{subgraph_batch, train_subgraph, SubgraphBatch};
use crate::config::FreshGnnConfig;
use crate::driver::{Driver, Stages, Workload};
use crate::pipeline::{BatchOutput, EvalHarness, PipelineCtx};
use fgnn_graph::{Csr, Dataset, NodeId};
use fgnn_memsim::presets::{aggregation_flops, dense_flops, Machine};
use fgnn_memsim::TrafficCounters;
use fgnn_nn::model::{Arch, Model};
use fgnn_nn::Optimizer;
use fgnn_tensor::Rng;
use std::sync::Arc;

/// ClusterGCN trainer: the epoch [`Driver`] over the [`ClusterGcn`]
/// workload.
pub type ClusterGcnTrainer = Driver<ClusterGcn>;

/// Workload state of ClusterGCN: an epoch shuffles the cluster ids and
/// merges `q` per batch, drawing nothing else from the trainer stream. The
/// partition is construction state, so resuming a checkpoint needs the
/// seed that drew it. The state is also its own sampling handle: every
/// field is shared by refcount with an overlapped epoch's workers.
#[derive(Clone)]
pub struct ClusterGcn {
    graph: Arc<Csr>,
    /// The partition's non-empty clusters.
    clusters: Arc<[Vec<NodeId>]>,
    /// `0..clusters.len()`, the units an epoch is split over.
    cluster_ids: Arc<[NodeId]>,
    is_train: Arc<[bool]>,
    num_layers: usize,
}

impl Driver<ClusterGcn> {
    /// Partition `ds` into `num_parts` and build the trainer: an `arch`
    /// model with `hidden` units per hidden layer and one layer per entry
    /// of `fanouts` (also the evaluation fanouts), `clusters_per_batch`
    /// (the paper's `q`) clusters merged per batch.
    // The parameter list mirrors the baseline's natural knobs; a builder
    // would add noise for a handful of call sites.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        ds: &Dataset,
        arch: Arch,
        hidden: usize,
        fanouts: Vec<usize>,
        num_parts: usize,
        clusters_per_batch: usize,
        machine: Machine,
        seed: u64,
    ) -> Self {
        let num_layers = fanouts.len();
        let cfg = FreshGnnConfig::neighbor_sampling(fanouts, clusters_per_batch.max(1));
        Driver::with_model(ds, arch, hidden, machine, cfg, seed, |_, _, rng| {
            let clusters = super::clusters(ds, num_parts, rng);
            ClusterGcn {
                graph: Arc::clone(&ds.graph),
                cluster_ids: (0..clusters.len() as NodeId).collect(),
                clusters: clusters.into(),
                is_train: super::train_mask(ds).into(),
                num_layers,
            }
        })
    }
}

impl Workload for ClusterGcn {
    type Dataset = Dataset;
    type Model = Model;
    /// `None` when the merged clusters hold no labeled node.
    type Batch = Option<SubgraphBatch>;
    type Graph = ClusterGcn;
    type Sampler = ();
    type Trace = ();
    type Grads = ();

    fn units<'a>(&'a self, _: &'a Dataset) -> &'a [NodeId] {
        &self.cluster_ids
    }

    /// Sampling a batch only merges clusters, and there is no cache policy
    /// to feed: nothing is drawn.
    fn batch_rngs(&self, _main: &mut Rng, _iter: u32) -> (Rng, Rng) {
        (Rng::new(0), Rng::new(0))
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
        let (dims, mb) = (st.dims, &batch.mb);
        let widen = if st.model.arch == Arch::Sage { 2 } else { 1 };
        let flops = 3.0
            * (aggregation_flops(mb.total_edges(), dims[0])
                + (0..dims.len() - 1)
                    .map(|l| dense_flops(mb.seeds.len(), widen * dims[l], dims[l + 1]))
                    .sum::<f64>());
        Some(train_subgraph(st, ds, ctx, counters, batch, flops, opt))
    }

    fn graph(&self, _: &Dataset) -> ClusterGcn {
        self.clone()
    }

    fn sampler(_: &ClusterGcn) {}

    /// The subgraph induced by the merged clusters `seeds`.
    fn sample(
        _: &mut (),
        g: &ClusterGcn,
        seeds: &[NodeId],
        _: &[usize],
        _: &mut Rng,
    ) -> Option<SubgraphBatch> {
        let mut nodes: Vec<NodeId> = seeds
            .iter()
            .flat_map(|&ci| g.clusters[ci as usize].iter().copied())
            .collect();
        nodes.sort_unstable();
        subgraph_batch(&g.graph, &nodes, &g.is_train, g.num_layers)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::sampling::full_subgraph_minibatch;
    use fgnn_graph::datasets::arxiv_spec;
    use fgnn_graph::partition::induced_subgraph;
    use fgnn_nn::Adam;

    fn tiny() -> Dataset {
        Dataset::materialize(arxiv_spec(0.0).with_dim(12), 9)
    }

    fn cluster_gcn(ds: &Dataset, num_parts: usize, seed: u64) -> ClusterGcnTrainer {
        let machine = Machine::single_a100();
        ClusterGcnTrainer::new(ds, Arch::Gcn, 16, vec![4, 4], num_parts, 2, machine, seed)
    }

    #[test]
    fn cluster_gcn_trains() {
        let ds = tiny();
        let mut t = cluster_gcn(&ds, 8, 1);
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
    fn subgraph_minibatch_is_valid_and_square() {
        let ds = tiny();
        let nodes: Vec<NodeId> = (0..20).collect();
        let (sub, map) = induced_subgraph(&ds.graph, &nodes);
        let mb = full_subgraph_minibatch(&sub, &map, 3);
        mb.validate().unwrap();
        assert_eq!(mb.blocks.len(), 3);
        assert_eq!(mb.blocks[0].num_dst(), mb.blocks[0].num_src());
    }

    #[test]
    fn accuracy_above_random_after_training() {
        let ds = tiny();
        let mut t = cluster_gcn(&ds, 6, 2);
        let mut opt = Adam::new(0.01);
        for _ in 0..15 {
            t.train_epoch(&ds, &mut opt);
        }
        let acc = t.evaluate(&ds, &ds.test_nodes, 256);
        assert!(acc > 0.08, "accuracy {acc}");
    }
}
