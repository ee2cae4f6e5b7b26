//! The paper's baseline training algorithms (§7.2–7.3, Table 3), each a
//! cache-less [`crate::driver::Workload`] of the one epoch driver: built
//! with [`crate::FreshGnnConfig::neighbor_sampling`] (whose fanouts set
//! the model depth and the evaluation protocol), they get its
//! checkpoint, breaker, resilient and overlapped epochs for free.
//!
//! * **Neighbor sampling** (DGL/PyG/PyTorch-Direct): the target baseline.
//!   Not a separate type — construct [`crate::Trainer`] with
//!   [`crate::FreshGnnConfig::neighbor_sampling`]; the paper notes that
//!   `p_grad = 0` or `t_stale = 0` degenerates FreshGNN to exactly this.
//!   The DGL/PyG/PT-Direct *system* differences (two-sided vs one-sided
//!   loading, sampler speed) are `LoadMode` plus bench-side constants.
//! * [`gas`] — GNNAutoScale: cluster batches with **full-graph history**
//!   for out-of-cluster neighbors (`O(Lnd)` storage), i.e. the
//!   `p_grad = 1, t_stale = ∞` corner of the FreshGNN design space.
//!   With `momentum`, the same machinery gives the **GraphFM**-style
//!   feature-momentum variant.
//! * [`cluster_gcn`] — ClusterGCN: trains on merged partition-induced
//!   subgraphs, dropping all cross-partition edges.
//! * [`sampling`] — the §2.3 "broader sampling methods": layer-wise
//!   (FastGCN-family) and graph-wise (GraphSAINT-family) training.
//!
//! GAS and ClusterGCN split an epoch over cluster ids rather than training
//! nodes and draw nothing from the trainer stream per batch.

pub mod cluster_gcn;
pub mod gas;
pub mod sampling;

pub use cluster_gcn::ClusterGcnTrainer;
pub use gas::{GasConfig, GasTrainer};
pub use sampling::{SamplingBaselineTrainer, SamplingKind};

use fgnn_graph::partition::partition_ldg;
use fgnn_graph::{Dataset, NodeId};
use fgnn_tensor::Rng;

/// The non-empty clusters of an LDG partition of `ds` into `num_parts`.
fn clusters(ds: &Dataset, num_parts: usize, rng: &mut Rng) -> Vec<Vec<NodeId>> {
    let parts = partition_ldg(&ds.graph, num_parts, rng);
    parts
        .clusters()
        .into_iter()
        .filter(|c| !c.is_empty())
        .collect()
}

/// Which nodes of `ds` carry a training label.
fn train_mask(ds: &Dataset) -> Vec<bool> {
    let mut is_train = vec![false; ds.num_nodes()];
    for &v in &ds.train_nodes {
        is_train[v as usize] = true;
    }
    is_train
}
