//! GNNAutoScale (GAS) and the GraphFM feature-momentum variant.
//!
//! GAS trains on graph-partition batches. For a cluster `C`, every layer
//! aggregates over the *full* in-edges of `C`; representations of
//! out-of-cluster (boundary) neighbors come from a **full-size history**
//! `h̄^{(l)} ∈ R^{n×d}` per layer — `O(Lnd)` storage, the limitation
//! FreshGNN's bounded cache removes. After computing layer `l` for the
//! cluster, the fresh rows are *pushed* into the history; boundary rows
//! are *pulled* from it (both transfers are charged to the interconnect,
//! since the paper keeps histories off-GPU for large graphs).
//!
//! There is no admission control and no staleness bound: this is exactly
//! the `p_grad = 1, t_stale = ∞` corner of FreshGNN's design space
//! (§4.1), and its estimation error grows unchecked (Fig 1).
//!
//! With `momentum = Some(β)` the history update becomes
//! `h̄ ← (1−β)·h̄ + β·h_fresh` — the feature-momentum idea of **GraphFM**.
//! (GraphFM-OB also corrects boundary estimates in-batch; we reproduce the
//! momentum mechanism, which drives its accuracy behaviour at scale.)

use crate::config::FreshGnnConfig;
use crate::driver::{Driver, Stages, Workload};
use crate::pipeline::{BatchOutput, EvalHarness, PipelineCtx};
use fgnn_graph::{Block, Csr2, Dataset, NodeId};
use fgnn_memsim::presets::{aggregation_flops, dense_flops, Machine};
use fgnn_memsim::stage::StageKind;
use fgnn_memsim::topology::Node;
use fgnn_memsim::TrafficCounters;
use fgnn_nn::layer::Scratch;
use fgnn_nn::loss::softmax_cross_entropy;
use fgnn_nn::model::{Arch, Model};
use fgnn_nn::Optimizer;
use fgnn_tensor::{Matrix, Rng};

/// GAS / GraphFM configuration.
#[derive(Clone, Debug)]
pub struct GasConfig {
    /// Number of graph partitions (METIS in the paper; LDG here).
    pub num_parts: usize,
    /// Cap on in-neighbors per node (memory guard; GAS uses full
    /// neighborhoods — the default `usize::MAX` keeps that).
    pub max_neighbors: usize,
    /// `Some(β)` switches to GraphFM-style momentum history updates.
    pub momentum: Option<f32>,
}

impl Default for GasConfig {
    fn default() -> Self {
        GasConfig {
            num_parts: 16,
            max_neighbors: usize::MAX,
            momentum: None,
        }
    }
}

/// GAS / GraphFM trainer: the epoch [`Driver`] over the [`Gas`] workload.
pub type GasTrainer = Driver<Gas>;

/// Workload state of GAS: the partition with its precomputed cluster
/// blocks, and the histories. An epoch shuffles the cluster ids and trains
/// one cluster per batch, drawing nothing else from the trainer stream;
/// sampling only names the cluster. GAS skips the `Prune`/`CacheUpdate`
/// stages: its "cache" (the history) is written inside `Forward`, which is
/// exactly the design difference the per-stage ledger makes visible.
///
/// A checkpoint does not capture the `O(Lnd)` histories, so a resumed GAS
/// run restarts them at zero and does not replay the uninterrupted one.
pub struct Gas {
    /// Full-size per-level histories (`levels 1..L`), the `O(Lnd)` store.
    history: Vec<Matrix>,
    /// `0..clusters.len()`, the units an epoch is split over.
    cluster_ids: Vec<NodeId>,
    clusters: Vec<Vec<NodeId>>,
    /// Per cluster: the local rows of its training nodes, the rows the loss
    /// reads.
    labeled: Vec<Vec<usize>>,
    /// Per-cluster precomputed blocks (dst = cluster, src = cluster ∪
    /// boundary, full in-edges).
    blocks: Vec<Block>,
    momentum: Option<f32>,
}

impl Driver<Gas> {
    /// Build GAS over `ds`: an `arch` model with `hidden` units per hidden
    /// layer and one layer per entry of `fanouts` (also the evaluation
    /// fanouts), over `cfg.num_parts` LDG clusters.
    pub fn new(
        ds: &Dataset,
        arch: Arch,
        hidden: usize,
        fanouts: Vec<usize>,
        machine: Machine,
        cfg: GasConfig,
        seed: u64,
    ) -> Self {
        let ns = FreshGnnConfig::neighbor_sampling(fanouts, 1);
        Driver::with_model(ds, arch, hidden, machine, ns, seed, |_, dims, rng| {
            let clusters = super::clusters(ds, cfg.num_parts, rng);
            let blocks = clusters
                .iter()
                .map(|c| build_cluster_block(ds, c, cfg.max_neighbors))
                .collect();
            let is_train = super::train_mask(ds);
            let labeled = clusters
                .iter()
                .map(|c| (0..c.len()).filter(|&i| is_train[c[i] as usize]).collect())
                .collect();
            // Full-size history per level 1..L (the top level history is
            // kept too, as GAS does, though only interior levels are read).
            let history = dims[1..]
                .iter()
                .map(|&d| Matrix::zeros(ds.num_nodes(), d))
                .collect();
            Gas {
                history,
                cluster_ids: (0..clusters.len() as NodeId).collect(),
                clusters,
                labeled,
                blocks,
                momentum: cfg.momentum,
            }
        })
    }
}

impl Workload for Gas {
    type Dataset = Dataset;
    type Model = Model;
    /// The cluster index.
    type Batch = usize;
    type Graph = ();
    type Sampler = ();
    type Trace = ();
    type Grads = ();

    fn units<'a>(&'a self, _: &'a Dataset) -> &'a [NodeId] {
        &self.cluster_ids
    }

    /// A batch is a precomputed cluster, and there is no cache policy to
    /// feed: nothing is drawn.
    fn batch_rngs(&self, _main: &mut Rng, _iter: u32) -> (Rng, Rng) {
        (Rng::new(0), Rng::new(0))
    }

    fn step(
        st: &mut Stages<'_, Self>,
        ds: &Dataset,
        ctx: &mut PipelineCtx<'_>,
        counters: &mut TrafficCounters,
        ci: usize,
        _policy_rng: &mut Rng,
        opt: &mut dyn Optimizer,
    ) -> Option<BatchOutput> {
        let Gas {
            history,
            clusters,
            labeled,
            blocks,
            momentum,
            ..
        } = &mut *st.workload;
        let (model, dims) = (&mut *st.model, st.dims);
        let cluster = &clusters[ci];
        let block = &blocks[ci];
        let n_cluster = cluster.len();
        let n_src = block.num_src();
        let row_bytes = ds.spec.feature_row_bytes() as u64;

        // Labels exist for train nodes inside the cluster.
        let train_local = &labeled[ci];
        if train_local.is_empty() {
            return None;
        }

        // Level-0 inputs: raw features of cluster + boundary (charged).
        let mut h_src = ctx.stage(StageKind::Load, counters, |engine, c| {
            let ids: Vec<usize> = block.src_global.iter().map(|&g| g as usize).collect();
            let h = ds.features.gather_rows(&ids);
            engine.one_sided_read(Node::Host, Node::Gpu(0), n_src as u64 * row_bytes, c);
            h
        });

        // Forward through all layers on the same block. History pushes and
        // boundary pulls are charged here: in GAS they are inseparable from
        // the forward pass.
        let num_layers = model.layers.len();
        let mut traces = Vec::with_capacity(num_layers);
        let mut h_srcs = Vec::with_capacity(num_layers);
        ctx.stage(StageKind::Forward, counters, |engine, c| {
            for l in 0..num_layers {
                let mut h_dst = Matrix::default();
                let mut layer_ctx = model.layers[l].new_ctx();
                model.layers[l].forward(block, &h_src, None, &mut h_dst, &mut layer_ctx);
                // Push fresh cluster rows into history[l] (charged).
                push_rows(&mut history[l], cluster, &h_dst, *momentum);
                let level_bytes = (n_cluster * dims[l + 1] * 4) as u64;
                engine.one_sided_read(Node::Gpu(0), Node::Host, level_bytes, c);

                h_srcs.push(h_src.clone());
                traces.push(layer_ctx);

                if l + 1 < num_layers {
                    // Next layer's src: fresh cluster rows + history boundary.
                    let boundary = &block.src_global[n_cluster..];
                    let mut next = Matrix::zeros(n_src, dims[l + 1]);
                    next.as_mut_slice()[..n_cluster * dims[l + 1]]
                        .copy_from_slice(h_dst.as_slice());
                    for (o, &g) in boundary.iter().enumerate() {
                        next.row_mut(n_cluster + o)
                            .copy_from_slice(history[l].row(g as usize));
                    }
                    // Pull boundary history (charged).
                    let pull = (boundary.len() * dims[l + 1] * 4) as u64;
                    engine.one_sided_read(Node::Host, Node::Gpu(0), pull, c);
                    h_src = next;
                } else {
                    h_src = h_dst;
                }
            }
        });
        let logits = &h_src; // output of the last layer (cluster rows)

        // Loss over train nodes in the cluster, then backward with boundary
        // rows detached (they are history constants).
        let loss = ctx.stage(StageKind::Backward, counters, |_engine, _c| {
            let sel_logits = logits.gather_rows(train_local);
            let labels: Vec<u16> = train_local
                .iter()
                .map(|&i| ds.labels[cluster[i] as usize])
                .collect();
            let (loss, d_sel) = softmax_cross_entropy(&sel_logits, &labels);

            // Scatter loss gradient back to cluster rows.
            let mut d = Matrix::zeros(n_cluster, dims[num_layers]);
            d.scatter_add_rows(train_local, &d_sel);

            model.zero_grad();
            let mut scratch = Scratch::default();
            for l in (1..num_layers).rev() {
                let mut d_src = Matrix::default();
                model.layers[l].backward(
                    block,
                    &traces[l],
                    &h_srcs[l],
                    &mut d,
                    None,
                    &mut scratch,
                    &mut d_src,
                );
                // Boundary rows are history constants: truncate to cluster rows.
                d = Matrix::from_vec(
                    n_cluster,
                    dims[l],
                    d_src.as_slice()[..n_cluster * dims[l]].to_vec(),
                );
            }
            // The input layer only owes its parameter gradients.
            model.layers[0].backward_params(&traces[0], &h_srcs[0], &mut d, None, &mut scratch);
            loss
        });

        ctx.stage(StageKind::OptimStep, counters, |_engine, _c| {
            opt.step(&mut model.params_mut());
        });

        // Simulated compute, attributed to the backward/forward pass.
        let widen = if model.arch == Arch::Sage { 2 } else { 1 };
        let flops = 3.0
            * (0..num_layers)
                .map(|l| {
                    aggregation_flops(block.num_edges(), dims[l])
                        + dense_flops(n_cluster, widen * dims[l], dims[l + 1])
                })
                .sum::<f64>();
        ctx.stage(StageKind::Backward, counters, |_engine, c| {
            c.compute_seconds += st.machine.gpu.compute_seconds(flops);
        });

        Some(BatchOutput::loss_only(loss))
    }

    fn graph(&self, _: &Dataset) {}

    fn sampler(_: &()) {}

    fn sample(_: &mut (), _: &(), seeds: &[NodeId], _: &[usize], _: &mut Rng) -> usize {
        seeds[0] as usize
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

/// Build a GAS cluster block: dst = cluster, src = cluster ∪ boundary,
/// adjacency = (capped) full in-edges of the cluster.
fn build_cluster_block(ds: &Dataset, cluster: &[NodeId], max_neighbors: usize) -> Block {
    let mut local_of = std::collections::HashMap::with_capacity(cluster.len() * 2);
    for (i, &g) in cluster.iter().enumerate() {
        local_of.insert(g, i as NodeId);
    }
    let mut src_global = cluster.to_vec();
    let mut lists = Vec::with_capacity(cluster.len());
    for &v in cluster {
        let nbrs = ds.graph.neighbors(v);
        let take = nbrs.len().min(max_neighbors);
        let mut local = Vec::with_capacity(take);
        for &u in &nbrs[..take] {
            let lu = *local_of.entry(u).or_insert_with(|| {
                src_global.push(u);
                (src_global.len() - 1) as NodeId
            });
            local.push(lu);
        }
        lists.push(local);
    }
    Block {
        dst_global: cluster.to_vec(),
        src_global,
        adj: Csr2::from_neighbor_lists(&lists),
    }
}

/// History push: overwrite (GAS) or momentum-blend (GraphFM).
fn push_rows(history: &mut Matrix, nodes: &[NodeId], fresh: &Matrix, momentum: Option<f32>) {
    match momentum {
        None => {
            for (i, &g) in nodes.iter().enumerate() {
                history.set_row(g as usize, fresh.row(i));
            }
        }
        Some(beta) => {
            for (i, &g) in nodes.iter().enumerate() {
                let dst = history.row_mut(g as usize);
                for (h, &f) in dst.iter_mut().zip(fresh.row(i)) {
                    *h = (1.0 - beta) * *h + beta * f;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgnn_graph::datasets::arxiv_spec;
    use fgnn_nn::Adam;

    fn tiny() -> Dataset {
        Dataset::materialize(arxiv_spec(0.0).with_dim(12), 7)
    }

    fn gas(ds: &Dataset, momentum: Option<f32>) -> GasTrainer {
        GasTrainer::new(
            ds,
            Arch::Gcn,
            16,
            vec![4, 4],
            Machine::single_a100(),
            GasConfig {
                num_parts: 8,
                max_neighbors: 32,
                momentum,
            },
            1,
        )
    }

    #[test]
    fn gas_trains_and_reduces_loss() {
        let ds = tiny();
        let mut t = gas(&ds, None);
        let mut opt = Adam::new(0.01);
        let first = t.train_epoch(&ds, &mut opt).mean_loss;
        let mut last = first;
        for _ in 0..8 {
            last = t.train_epoch(&ds, &mut opt).mean_loss;
        }
        assert!(last < first, "loss {first} -> {last}");
    }

    /// Every training label reaches the loss exactly once: the clusters
    /// partition the nodes, so their labeled rows add up to the train set
    /// (`train_nodes` is shuffled, so no search over it may stand in for
    /// membership).
    #[test]
    fn every_training_label_reaches_the_loss() {
        for ds in [
            tiny(),
            Dataset::materialize(arxiv_spec(0.0005).with_dim(4), 3),
        ] {
            let t = gas(&ds, None);
            let gas = &t.workload;
            let rows: usize = gas.labeled.iter().map(Vec::len).sum();
            assert_eq!(rows, ds.train_nodes.len());
            for (cluster, rows) in gas.clusters.iter().zip(&gas.labeled) {
                for &i in rows {
                    assert!(ds.train_nodes.contains(&cluster[i]));
                }
            }
        }
    }

    #[test]
    fn gas_history_is_o_lnd() {
        let ds = tiny();
        let t = gas(&ds, None);
        // 2 layers: history levels of dims 16 and 64 (classes).
        let shapes: Vec<_> = t
            .workload
            .history
            .iter()
            .map(|m| (m.rows(), m.cols()))
            .collect();
        assert_eq!(shapes, [(ds.num_nodes(), 16), (ds.num_nodes(), 64)]);
    }

    #[test]
    fn gas_moves_history_traffic() {
        let ds = tiny();
        let mut t = gas(&ds, None);
        let mut opt = Adam::new(0.01);
        t.train_epoch(&ds, &mut opt);
        assert!(t.counters.host_to_gpu_bytes > 0);
        assert!(t.counters.gpu_to_gpu_bytes == 0);
    }

    #[test]
    fn graphfm_momentum_blends_history() {
        let ds = tiny();
        let mut t = gas(&ds, Some(0.5));
        let mut opt = Adam::new(0.01);
        t.train_epoch(&ds, &mut opt);
        // History must be nonzero after one epoch.
        assert!(t.workload.history[0].frobenius_norm() > 0.0);
    }

    #[test]
    fn gas_accuracy_beats_random_on_tiny_task() {
        let ds = tiny();
        let mut t = gas(&ds, None);
        let mut opt = Adam::new(0.01);
        for _ in 0..15 {
            t.train_epoch(&ds, &mut opt);
        }
        let acc = t.evaluate(&ds, &ds.test_nodes, 256);
        assert!(acc > 0.08, "accuracy {acc}");
    }
}
