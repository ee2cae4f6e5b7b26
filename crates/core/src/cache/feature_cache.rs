//! Static raw-feature cache of high-degree nodes (§4.2).
//!
//! FreshGNN fills the empty entries of the embedding table with the raw
//! features of the highest-degree nodes so that layer-0 loads of hot nodes
//! never touch the wire — the same idea GNNLab/GNNTier build their whole
//! systems around, here used as backfill. We model it as a dedicated table
//! sharing the cache budget (the paper physically co-locates them in one
//! allocation; the traffic accounting is identical).

use fgnn_graph::{degree, Csr, NodeId};
use std::cell::Cell;

/// Membership-only static cache: the trainer needs to know *whether* a
/// node's features are resident (traffic accounting); the feature values
/// themselves stay in the dataset matrix either way.
pub struct StaticFeatureCache {
    resident: Vec<bool>,
    len: usize,
    /// Membership-test hits (observability only; `Cell` because
    /// [`StaticFeatureCache::contains`] is a `&self` query).
    hits: Cell<u64>,
    /// Membership-test misses (observability only).
    misses: Cell<u64>,
}

impl StaticFeatureCache {
    /// Cache the features of the `rows` highest-degree nodes of `graph`.
    pub(crate) fn by_degree(graph: &Csr, rows: usize) -> Self {
        let mut resident = vec![false; graph.num_nodes()];
        let order = degree::nodes_by_degree(graph);
        let len = rows.min(order.len());
        for &v in order.iter().take(len) {
            resident[v as usize] = true;
        }
        StaticFeatureCache {
            resident,
            len,
            hits: Cell::new(0),
            misses: Cell::new(0),
        }
    }

    /// An empty (disabled) cache for `num_nodes` nodes.
    pub fn disabled(num_nodes: usize) -> Self {
        StaticFeatureCache {
            resident: vec![false; num_nodes],
            len: 0,
            hits: Cell::new(0),
            misses: Cell::new(0),
        }
    }

    /// Whether `node`'s features are resident on the compute device.
    #[inline]
    pub(crate) fn contains(&self, node: NodeId) -> bool {
        let hit = self.resident[node as usize];
        if hit {
            self.hits.set(self.hits.get() + 1);
        } else {
            self.misses.set(self.misses.get() + 1);
        }
        hit
    }

    /// Membership-test hits recorded so far (observability only; resets on
    /// checkpoint restore).
    pub(crate) fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Membership-test misses recorded so far (observability only; resets
    /// on checkpoint restore).
    pub(crate) fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Number of cached rows.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Size of the node ID space this cache covers.
    pub(crate) fn num_nodes(&self) -> usize {
        self.resident.len()
    }

    /// Serializable residency bitmap (for checkpointing — the selection is
    /// deterministic given the graph, but saving it avoids recomputing the
    /// degree order on resume and keeps the restore self-contained).
    pub(crate) fn export(&self) -> Vec<bool> {
        self.resident.clone()
    }

    /// Rebuild from [`StaticFeatureCache::export`]. Telemetry counters
    /// restart at zero (they are not part of the checkpoint format).
    pub(crate) fn import(resident: Vec<bool>) -> Self {
        let len = resident.iter().filter(|&&r| r).count();
        StaticFeatureCache {
            resident,
            len,
            hits: Cell::new(0),
            misses: Cell::new(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn star() -> Csr {
        Csr::from_undirected_edges(6, &[(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)])
    }

    #[test]
    fn caches_highest_degree_nodes_first() {
        let g = star();
        let c = StaticFeatureCache::by_degree(&g, 2);
        assert!(c.contains(0), "hub must be cached");
        assert!(c.contains(1), "next-highest degree");
        assert!(!c.contains(5), "isolated node not cached");
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn capacity_larger_than_graph_caches_everything() {
        let g = star();
        let c = StaticFeatureCache::by_degree(&g, 100);
        assert_eq!(c.len(), 6);
        assert!((0..6).all(|v| c.contains(v)));
    }

    #[test]
    fn disabled_cache_contains_nothing() {
        let c = StaticFeatureCache::disabled(4);
        assert_eq!(c.len(), 0);
        assert!(!(0..4).any(|v| c.contains(v)));
    }
}
