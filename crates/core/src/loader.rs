//! Feature data loading (§6) with exact traffic accounting.
//!
//! Given the pruner's `needed_input` mask, the loader gathers raw feature
//! rows into the input matrix, serving what it can from the static
//! high-degree feature cache (resident on the compute device, free) and
//! charging the remainder to the simulated interconnect as one batched
//! one-sided (UVA) or two-sided read.
//!
//! For multi-GPU feature-partitioned setups the loader also derives the
//! per-GPU demand matrix consumed by `fgnn_memsim::alltoall`.

use crate::cache::StaticFeatureCache;
use crate::config::LoadMode;
use fgnn_graph::NodeId;
use fgnn_memsim::topology::Node;
use fgnn_memsim::{TrafficCounters, TransferEngine};
use fgnn_tensor::Matrix;

/// Loads node features with traffic accounting.
pub struct FeatureLoader<'a> {
    features: &'a Matrix,
    /// Wire bytes per feature row (honors f16 datasets).
    row_bytes: usize,
    static_cache: StaticFeatureCache,
    mode: LoadMode,
}

impl<'a> FeatureLoader<'a> {
    /// Build a loader over the dataset's feature matrix.
    pub fn new(
        features: &'a Matrix,
        row_bytes: usize,
        static_cache: StaticFeatureCache,
        mode: LoadMode,
    ) -> Self {
        FeatureLoader {
            features,
            row_bytes,
            static_cache,
            mode,
        }
    }

    /// Recover the static cache (the trainer lends it per epoch).
    pub(crate) fn into_static_cache(self) -> StaticFeatureCache {
        self.static_cache
    }

    /// Gather features for `nodes` into a fresh matrix. Rows where
    /// `needed` is false are left zero and move no bytes. Traffic is
    /// charged on `engine` from `storage` into `compute`.
    ///
    /// Panics on an out-of-range node or a mask-length mismatch — the
    /// sampler only ever hands the loader in-range nodes, so either is a
    /// logic bug. Use [`FeatureLoader::try_load`] for the checked form.
    pub fn load(
        &self,
        nodes: &[NodeId],
        needed: Option<&[bool]>,
        engine: &mut TransferEngine,
        storage: Node,
        compute: Node,
        counters: &mut TrafficCounters,
    ) -> Matrix {
        self.try_load(nodes, needed, engine, storage, compute, counters)
            .expect("feature load")
    }

    /// Checked [`FeatureLoader::load`]: returns
    /// [`FgnnError::Load`](crate::error::FgnnError::Load) instead of
    /// panicking when a node index falls outside the feature matrix or the
    /// `needed` mask disagrees with `nodes` in length.
    pub fn try_load(
        &self,
        nodes: &[NodeId],
        needed: Option<&[bool]>,
        engine: &mut TransferEngine,
        storage: Node,
        compute: Node,
        counters: &mut TrafficCounters,
    ) -> Result<Matrix, crate::error::FgnnError> {
        let mut out = Matrix::zeros(nodes.len(), self.features.cols());
        self.try_load_into(nodes, needed, engine, storage, compute, counters, &mut out)?;
        Ok(out)
    }

    /// [`FeatureLoader::try_load`] into a reused buffer: `out` is reshaped to
    /// one row per node and the needed rows overwritten. A row where
    /// `needed` is false keeps whatever `out` held — the step reads no such
    /// row — and moves no bytes.
    #[allow(clippy::too_many_arguments)]
    pub fn try_load_into(
        &self,
        nodes: &[NodeId],
        needed: Option<&[bool]>,
        engine: &mut TransferEngine,
        storage: Node,
        compute: Node,
        counters: &mut TrafficCounters,
        out: &mut Matrix,
    ) -> Result<(), crate::error::FgnnError> {
        if let Some(mask) = needed {
            if mask.len() != nodes.len() {
                return Err(crate::error::FgnnError::Load(format!(
                    "needed mask covers {} nodes, batch has {}",
                    mask.len(),
                    nodes.len()
                )));
            }
        }
        let num_rows = self.features.rows();
        if let Some(&bad) = nodes.iter().find(|&&n| n as usize >= num_rows) {
            return Err(crate::error::FgnnError::Load(format!(
                "node {bad} outside feature matrix with {num_rows} rows"
            )));
        }
        out.resize(nodes.len(), self.features.cols());
        let mut wire_rows: u64 = 0;
        let mut cached_rows: u64 = 0;
        for (i, &n) in nodes.iter().enumerate() {
            if let Some(mask) = needed {
                if !mask[i] {
                    continue;
                }
            }
            out.row_mut(i)
                .copy_from_slice(self.features.row(n as usize));
            if self.static_cache.contains(n) {
                cached_rows += 1;
            } else {
                wire_rows += 1;
            }
        }
        counters.cache_hit_bytes += cached_rows * self.row_bytes as u64;
        let bytes = wire_rows * self.row_bytes as u64;
        if bytes > 0 {
            match self.mode {
                LoadMode::OneSided => {
                    engine.one_sided_read(storage, compute, bytes, counters);
                }
                LoadMode::TwoSided => {
                    engine.two_sided_read(storage, compute, bytes, wire_rows, counters);
                }
            }
        }
        Ok(())
    }

    /// For feature-partitioned multi-GPU training: bytes GPU `g` must pull
    /// from each peer, given `owner(node) = node % num_gpus` round-robin
    /// placement. Returns one demand row per peer GPU (self-column zero)
    /// plus the rows served locally.
    pub fn partition_demand(
        &self,
        gpu: usize,
        num_gpus: usize,
        nodes: &[NodeId],
        needed: Option<&[bool]>,
    ) -> (Vec<u64>, u64) {
        let mut demand = vec![0u64; num_gpus];
        let mut local = 0u64;
        for (i, &n) in nodes.iter().enumerate() {
            if let Some(mask) = needed {
                if !mask[i] {
                    continue;
                }
            }
            let owner = n as usize % num_gpus;
            if owner == gpu {
                local += self.row_bytes as u64;
            } else {
                demand[owner] += self.row_bytes as u64;
            }
        }
        (demand, local)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgnn_graph::Csr;
    use fgnn_memsim::Topology;

    fn setup() -> (Matrix, Csr) {
        let features = Matrix::from_fn(6, 2, |r, c| (r * 10 + c) as f32);
        let graph = Csr::from_undirected_edges(6, &[(0, 1), (0, 2), (0, 3)]);
        (features, graph)
    }

    #[test]
    fn loads_only_needed_rows_and_counts_bytes() {
        let (features, graph) = setup();
        let loader = FeatureLoader::new(
            &features,
            8,
            StaticFeatureCache::disabled(graph.num_nodes()),
            LoadMode::OneSided,
        );
        let topo = Topology::pcie_tree(1, 1, 1e9);
        let mut eng = TransferEngine::new(&topo);
        let mut c = TrafficCounters::new();
        let nodes = vec![1u32, 4, 5];
        let needed = vec![true, false, true];
        let out = loader.load(
            &nodes,
            Some(&needed),
            &mut eng,
            Node::Host,
            Node::Gpu(0),
            &mut c,
        );
        assert_eq!(out.row(0), &[10.0, 11.0]);
        assert_eq!(out.row(1), &[0.0, 0.0], "unneeded row untouched");
        assert_eq!(out.row(2), &[50.0, 51.0]);
        assert_eq!(c.host_to_gpu_bytes, 16, "two rows x 8 bytes");
        assert_eq!(c.cache_hit_bytes, 0);
    }

    #[test]
    fn static_cache_hits_move_no_bytes() {
        let (features, graph) = setup();
        // Hub node 0 has the highest degree — cache 1 row.
        let loader = FeatureLoader::new(
            &features,
            8,
            StaticFeatureCache::by_degree(&graph, 1),
            LoadMode::OneSided,
        );
        let topo = Topology::pcie_tree(1, 1, 1e9);
        let mut eng = TransferEngine::new(&topo);
        let mut c = TrafficCounters::new();
        let out = loader.load(&[0, 1], None, &mut eng, Node::Host, Node::Gpu(0), &mut c);
        assert_eq!(out.row(0), &[0.0, 1.0], "cached row still materialized");
        assert_eq!(c.cache_hit_bytes, 8);
        assert_eq!(c.host_to_gpu_bytes, 8);
        assert!((c.io_saving() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn try_load_rejects_out_of_range_nodes_and_bad_masks() {
        use crate::error::FgnnError;
        let (features, graph) = setup();
        let loader = FeatureLoader::new(
            &features,
            8,
            StaticFeatureCache::disabled(graph.num_nodes()),
            LoadMode::OneSided,
        );
        let topo = Topology::pcie_tree(1, 1, 1e9);
        let mut eng = TransferEngine::new(&topo);
        let mut c = TrafficCounters::new();
        let err = loader
            .try_load(&[99], None, &mut eng, Node::Host, Node::Gpu(0), &mut c)
            .unwrap_err();
        assert!(matches!(err, FgnnError::Load(_)), "{err}");
        assert!(err.to_string().contains("99"), "{err}");
        let err = loader
            .try_load(
                &[0, 1],
                Some(&[true]),
                &mut eng,
                Node::Host,
                Node::Gpu(0),
                &mut c,
            )
            .unwrap_err();
        assert!(matches!(err, FgnnError::Load(_)), "{err}");
        assert_eq!(c.num_transfers, 0, "failed loads move no bytes");
    }

    #[test]
    fn two_sided_ships_indices() {
        let (features, graph) = setup();
        let loader = FeatureLoader::new(
            &features,
            8,
            StaticFeatureCache::disabled(graph.num_nodes()),
            LoadMode::TwoSided,
        );
        let topo = Topology::pcie_tree(1, 1, 1e9);
        let mut eng = TransferEngine::new(&topo);
        let mut c = TrafficCounters::new();
        loader.load(&[1, 2, 3], None, &mut eng, Node::Host, Node::Gpu(0), &mut c);
        assert_eq!(c.index_bytes, 12, "3 indices x 4 bytes");
    }

    #[test]
    fn empty_load_issues_no_transfer() {
        let (features, graph) = setup();
        let loader = FeatureLoader::new(
            &features,
            8,
            StaticFeatureCache::disabled(graph.num_nodes()),
            LoadMode::OneSided,
        );
        let topo = Topology::pcie_tree(1, 1, 1e9);
        let mut eng = TransferEngine::new(&topo);
        let mut c = TrafficCounters::new();
        loader.load(
            &[1, 2],
            Some(&[false, false]),
            &mut eng,
            Node::Host,
            Node::Gpu(0),
            &mut c,
        );
        assert_eq!(c.num_transfers, 0);
        assert_eq!(c.wire_bytes(), 0);
    }

    #[test]
    fn partition_demand_round_robin() {
        let (features, graph) = setup();
        let loader = FeatureLoader::new(
            &features,
            10,
            StaticFeatureCache::disabled(graph.num_nodes()),
            LoadMode::OneSided,
        );
        // GPU 0 of 2 needs nodes 0..6: owners alternate 0,1,0,1,0,1.
        let nodes: Vec<u32> = (0..6).collect();
        let (demand, local) = loader.partition_demand(0, 2, &nodes, None);
        assert_eq!(local, 30, "nodes 0,2,4 are local");
        assert_eq!(demand, vec![0, 30], "nodes 1,3,5 from GPU 1");
    }
}
