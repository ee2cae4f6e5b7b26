//! Scaled synthetic stand-ins for the paper's datasets (Table 2).
//!
//! | Paper dataset    | |V|    | |E|   | Dim | #Class | dtype |
//! |------------------|--------|-------|-----|--------|-------|
//! | ogbn-arxiv       | 2.9M*  | 30.4M | 128 | 64*    | f32   |
//! | ogbn-products    | 2.4M   | 123M  | 100 | 47     | f32   |
//! | ogbn-papers100M  | 111M   | 1.6B  | 128 | 172    | f32   |
//! | MAG240M          | 244.2M | 1.7B  | 768 | 153    | f16   |
//! | Twitter          | 41.7M  | 1.5B  | 768 | 64     | f16   |
//! | Friendster       | 65.6M  | 1.8B  | 768 | 64     | f16   |
//!
//! (*as printed in the paper's Table 2.) We reproduce the *shape* of each
//! dataset — degree density, feature dimension, class count, feature dtype
//! width (for traffic accounting), train-set fraction — at a configurable
//! `scale` of the node count, defaulting to `1/1000` of the original for
//! the large graphs. DESIGN.md §2 documents why this preserves the paper's
//! conclusions.

use crate::generate::{generate, planted_features, GraphConfig};
use crate::{Csr, NodeId};
use fgnn_tensor::{Matrix, Rng};
use std::sync::Arc;

/// Static description of a dataset before materialization.
#[derive(Clone, Debug)]
pub struct DatasetSpec {
    /// Short name, e.g. `"papers100M-s"`.
    pub name: &'static str,
    /// Node count after scaling.
    pub num_nodes: usize,
    /// Target average degree (paper's 2|E|/|V| for undirected storage).
    pub avg_degree: f64,
    /// Feature dimension.
    pub feature_dim: usize,
    /// Number of label classes.
    pub num_classes: usize,
    /// Bytes per feature scalar (4 = f32, 2 = f16). Features are held as
    /// f32 in memory; this field drives *traffic accounting* so MAG240M's
    /// f16 features move half the bytes, as in the paper.
    pub feature_scalar_bytes: usize,
    /// Fraction of nodes in the training split.
    pub train_frac: f64,
    /// Edge homophily of the generator (labels ↔ structure coupling).
    pub homophily: f64,
    /// Whether labels are meaningful (Twitter/Friendster use artificial
    /// features and are only used for speed runs).
    pub labeled: bool,
}

impl DatasetSpec {
    /// Override the feature dimension (for quick experiments).
    pub fn with_dim(mut self, dim: usize) -> Self {
        self.feature_dim = dim;
        self
    }

    /// Bytes needed to move one node's features over an interconnect.
    pub fn feature_row_bytes(&self) -> usize {
        self.feature_dim * self.feature_scalar_bytes
    }
}

/// `ogbn-arxiv` stand-in. Paper: 2.9M nodes (Table 2), 128-dim, 64 classes.
pub fn arxiv_spec(scale: f64) -> DatasetSpec {
    DatasetSpec {
        name: "arxiv-s",
        num_nodes: scaled(2_900_000, scale),
        avg_degree: 21.0,
        feature_dim: 128,
        num_classes: 64,
        feature_scalar_bytes: 4,
        train_frac: 0.54, // ogbn-arxiv trains on ~54% of papers
        homophily: 0.75,
        labeled: true,
    }
}

/// `ogbn-products` stand-in: 2.4M nodes, avg degree ~100, 100-dim, 47
/// classes, ~8% train split.
pub fn products_spec(scale: f64) -> DatasetSpec {
    DatasetSpec {
        name: "products-s",
        num_nodes: scaled(2_400_000, scale),
        avg_degree: 51.0,
        feature_dim: 100,
        num_classes: 47,
        feature_scalar_bytes: 4,
        train_frac: 0.08,
        homophily: 0.85,
        labeled: true,
    }
}

/// `ogbn-papers100M` stand-in: 111M nodes, 1.6B edges, 128-dim, 172
/// classes, ~1.1% train split.
pub fn papers100m_spec(scale: f64) -> DatasetSpec {
    DatasetSpec {
        name: "papers100M-s",
        num_nodes: scaled(111_000_000, scale),
        avg_degree: 29.0,
        feature_dim: 128,
        num_classes: 172,
        feature_scalar_bytes: 4,
        train_frac: 0.011,
        homophily: 0.8,
        labeled: true,
    }
}

/// `MAG240M` stand-in: 244.2M nodes, 768-dim **f16** features, 153 classes,
/// ~0.5% train split (1.4M labeled papers).
pub fn mag240m_spec(scale: f64) -> DatasetSpec {
    DatasetSpec {
        name: "mag240M-s",
        num_nodes: scaled(244_200_000, scale),
        avg_degree: 14.0,
        feature_dim: 768,
        num_classes: 153,
        feature_scalar_bytes: 2,
        train_frac: 0.006,
        homophily: 0.8,
        labeled: true,
    }
}

/// Twitter stand-in (structure + artificial features, speed tests only).
pub fn twitter_spec(scale: f64) -> DatasetSpec {
    DatasetSpec {
        name: "twitter-s",
        num_nodes: scaled(41_700_000, scale),
        avg_degree: 72.0,
        feature_dim: 768,
        num_classes: 64,
        feature_scalar_bytes: 2,
        train_frac: 0.01,
        homophily: 0.5,
        labeled: false,
    }
}

/// Friendster stand-in (structure + artificial features, speed tests only).
pub fn friendster_spec(scale: f64) -> DatasetSpec {
    DatasetSpec {
        name: "friendster-s",
        num_nodes: scaled(65_600_000, scale),
        avg_degree: 55.0,
        feature_dim: 768,
        num_classes: 64,
        feature_scalar_bytes: 2,
        train_frac: 0.01,
        homophily: 0.5,
        labeled: false,
    }
}

fn scaled(original: usize, scale: f64) -> usize {
    ((original as f64 * scale) as usize).max(256)
}

/// A fully materialized dataset.
///
/// `Clone` is cheap enough at benchmark scales and lets the cluster
/// sharder hand each host an owned copy (H=1 keeps the full dataset); the
/// graph is shared, not copied.
#[derive(Clone)]
pub struct Dataset {
    /// The spec this dataset was built from.
    pub spec: DatasetSpec,
    /// Symmetric adjacency, shared: sampler workers of an overlapped epoch
    /// hold it by refcount.
    pub graph: Arc<Csr>,
    /// `|V| x dim` node features (held as f32; traffic uses
    /// [`DatasetSpec::feature_scalar_bytes`]).
    pub features: Matrix,
    /// Per-node labels in `0..num_classes`.
    pub labels: Vec<u16>,
    /// Training node IDs.
    pub train_nodes: Vec<NodeId>,
    /// Validation node IDs.
    pub val_nodes: Vec<NodeId>,
    /// Test node IDs.
    pub test_nodes: Vec<NodeId>,
}

impl Dataset {
    /// Materialize a spec: generate the graph, planted features/labels, and
    /// train/val/test splits. Deterministic in `seed`.
    pub fn materialize(spec: DatasetSpec, seed: u64) -> Dataset {
        let mut rng = Rng::new(seed);
        let cfg = GraphConfig {
            num_nodes: spec.num_nodes,
            avg_degree: spec.avg_degree,
            num_communities: spec.num_classes,
            homophily: spec.homophily,
            power_law_exponent: 2.3,
        };
        let gen = generate(&cfg, &mut rng);
        let signal = planted_features(
            &gen.communities,
            spec.num_classes,
            spec.feature_dim,
            if spec.labeled { 1.0 } else { 0.0 },
            0.05,
            &mut rng,
        );

        // Split: shuffle node IDs, take train_frac for train, then 10%/rest
        // of the remainder for val/test (capped so tiny datasets still have
        // all three splits).
        let mut ids: Vec<NodeId> = (0..spec.num_nodes as NodeId).collect();
        rng.shuffle(&mut ids);
        let n_train =
            ((spec.num_nodes as f64 * spec.train_frac) as usize).clamp(1, spec.num_nodes - 2);
        let remaining = spec.num_nodes - n_train;
        let n_val = (remaining / 10).max(1);
        let train_nodes = ids[..n_train].to_vec();
        let val_nodes = ids[n_train..n_train + n_val].to_vec();
        let test_nodes = ids[n_train + n_val..].to_vec();

        Dataset {
            spec,
            graph: Arc::new(gen.graph),
            features: signal.features,
            labels: signal.labels,
            train_nodes,
            val_nodes,
            test_nodes,
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    /// Total feature bytes as the paper would account them (honoring f16).
    pub fn feature_bytes(&self) -> usize {
        self.num_nodes() * self.spec.feature_row_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_scale_node_counts() {
        let s = papers100m_spec(0.001);
        assert_eq!(s.num_nodes, 111_000);
        let tiny = arxiv_spec(0.0);
        assert_eq!(tiny.num_nodes, 256); // floor kicks in
    }

    #[test]
    fn materialize_produces_consistent_shapes() {
        let ds = Dataset::materialize(arxiv_spec(0.001).with_dim(16), 1);
        assert_eq!(ds.features.shape(), (ds.num_nodes(), 16));
        assert_eq!(ds.labels.len(), ds.num_nodes());
        let total = ds.train_nodes.len() + ds.val_nodes.len() + ds.test_nodes.len();
        assert_eq!(total, ds.num_nodes());
        assert!(ds
            .labels
            .iter()
            .all(|&l| (l as usize) < ds.spec.num_classes));
    }

    #[test]
    fn splits_are_disjoint() {
        let ds = Dataset::materialize(products_spec(0.0005).with_dim(8), 2);
        let mut seen = std::collections::HashSet::new();
        for id in ds
            .train_nodes
            .iter()
            .chain(&ds.val_nodes)
            .chain(&ds.test_nodes)
        {
            assert!(seen.insert(*id), "node {id} in two splits");
        }
    }

    #[test]
    fn mag_accounts_f16_traffic() {
        let s = mag240m_spec(0.0001);
        assert_eq!(s.feature_row_bytes(), 768 * 2);
        let p = papers100m_spec(0.0001);
        assert_eq!(p.feature_row_bytes(), 128 * 4);
    }

    #[test]
    fn materialization_is_deterministic() {
        let a = Dataset::materialize(arxiv_spec(0.0005).with_dim(8), 9);
        let b = Dataset::materialize(arxiv_spec(0.0005).with_dim(8), 9);
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.train_nodes, b.train_nodes);
        assert_eq!(a.features.as_slice(), b.features.as_slice());
    }

    #[test]
    fn train_fraction_respected() {
        let ds = Dataset::materialize(papers100m_spec(0.0005).with_dim(8), 3);
        let frac = ds.train_nodes.len() as f64 / ds.num_nodes() as f64;
        assert!((frac - 0.011).abs() < 0.002, "train fraction {frac}");
    }
}
