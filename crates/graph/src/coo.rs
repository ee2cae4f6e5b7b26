//! Coordinate-format adjacency (edge list), plus the reference COO pruner
//! for the Table 1 / Fig 14(b) comparison.

use crate::{Csr, NodeId};

/// Sentinel marking a tombstoned (pruned) edge.
pub const TOMBSTONE: NodeId = NodeId::MAX;

/// COO adjacency: parallel `src`/`dst` arrays, kept sorted by `dst` so a
/// node's incoming edges can be located by binary search (the O(log |E|)
/// term in Table 1).
#[derive(Clone, Debug)]
pub struct Coo {
    src: Vec<NodeId>,
    dst: Vec<NodeId>,
}

impl Coo {
    /// Convert from CSR (preserves the by-destination grouping).
    pub fn from_csr(csr: &Csr) -> Self {
        let mut src = Vec::with_capacity(csr.num_edges());
        let mut dst = Vec::with_capacity(csr.num_edges());
        for v in 0..csr.num_nodes() as NodeId {
            for &u in csr.neighbors(v) {
                src.push(u);
                dst.push(v);
            }
        }
        Coo { src, dst }
    }

    /// Binary-search the contiguous edge range of destination `v`:
    /// the `O(log |E|)` locate step of Table 1.
    fn edge_range(&self, v: NodeId) -> (usize, usize) {
        let lo = self.dst.partition_point(|&d| d < v);
        let hi = self.dst.partition_point(|&d| d <= v);
        (lo, hi)
    }

    /// Prune all incoming edges of `v`: binary search to locate the range
    /// (O(log |E|)), then tombstone each edge (O(N_neighbors)).
    ///
    /// Faithful to the paper's complexity claim for COO; compare
    /// [`crate::Csr2::prune`] which is O(1).
    pub fn prune_neighbors(&mut self, v: NodeId) -> usize {
        let (lo, hi) = self.edge_range(v);
        let mut removed = 0;
        for s in self.src[lo..hi].iter_mut() {
            if *s != TOMBSTONE {
                *s = TOMBSTONE;
                removed += 1;
            }
        }
        removed
    }

    /// Approximate resident size in bytes (Table 1: `O(2|E|)`).
    pub fn bytes(&self) -> usize {
        (self.src.len() + self.dst.len()) * std::mem::size_of::<NodeId>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Coo {
        Coo::from_csr(&Csr::from_directed_edges(
            4,
            &[(1, 3), (0, 1), (2, 3), (0, 2), (3, 0)],
        ))
    }

    #[test]
    fn sorted_by_destination() {
        let c = sample();
        assert!(c.dst.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(c.bytes(), 2 * 5 * std::mem::size_of::<NodeId>());
    }

    #[test]
    fn prune_tombstones_only_target() {
        let mut c = sample();
        let removed = c.prune_neighbors(3);
        assert_eq!(removed, 2);
        assert_eq!(c.src.iter().filter(|&&s| s != TOMBSTONE).count(), 3);
        // Double prune is a no-op, and the other ranges are intact.
        assert_eq!(c.prune_neighbors(3), 0);
        assert_eq!(c.prune_neighbors(0), 1);
    }

    #[test]
    fn from_csr_round_trips_neighbor_sets() {
        let csr = Csr::from_directed_edges(4, &[(1, 3), (0, 1), (2, 3), (0, 2)]);
        let mut coo = Coo::from_csr(&csr);
        for v in 0..4 {
            let (lo, hi) = coo.edge_range(v);
            let mut a = coo.src[lo..hi].to_vec();
            a.sort_unstable();
            let mut b = csr.neighbors(v).to_vec();
            b.sort_unstable();
            assert_eq!(a, b, "node {v}");
            assert_eq!(coo.prune_neighbors(v), csr.degree(v), "node {v}");
        }
    }

    #[test]
    fn prune_node_with_no_edges() {
        let mut c = sample();
        assert_eq!(c.prune_neighbors(2), 1); // node 2 has in-edge from 0
        let mut c2 = Coo::from_csr(&Csr::from_directed_edges(3, &[(0, 1)]));
        assert_eq!(c2.prune_neighbors(2), 0);
    }
}
