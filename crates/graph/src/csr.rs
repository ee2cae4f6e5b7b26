//! Compressed Sparse Row adjacency.
//!
//! The canonical at-rest format for the full graph: `indptr[v]..indptr[v+1]`
//! delimits node `v`'s neighbor list in `indices`. Message passing treats the
//! stored lists as *in*-neighbors (the nodes a destination aggregates from);
//! undirected constructors insert both directions.

use crate::NodeId;

/// CSR adjacency over `n` nodes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Csr {
    indptr: Vec<usize>,
    indices: Vec<NodeId>,
}

impl Csr {
    /// Build from directed edges `(src, dst)`, storing for each `dst` its
    /// in-neighbor list (sorted by construction via counting sort).
    pub fn from_directed_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Self {
        let mut counts = vec![0usize; n + 1];
        for &(_, d) in edges {
            counts[d as usize + 1] += 1;
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let indptr = counts.clone();
        let mut cursor = counts;
        let mut indices = vec![0 as NodeId; edges.len()];
        for &(s, d) in edges {
            indices[cursor[d as usize]] = s;
            cursor[d as usize] += 1;
        }
        Csr { indptr, indices }
    }

    /// Build from undirected edges: every `(u, v)` contributes both `u -> v`
    /// and `v -> u`. Self-loops contribute a single entry.
    pub fn from_undirected_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Self {
        let mut directed = Vec::with_capacity(edges.len() * 2);
        for &(u, v) in edges {
            directed.push((u, v));
            if u != v {
                directed.push((v, u));
            }
        }
        Csr::from_directed_edges(n, &directed)
    }

    /// Build directly from raw CSR arrays. Panics on malformed input.
    pub fn from_parts(indptr: Vec<usize>, indices: Vec<NodeId>) -> Self {
        assert!(!indptr.is_empty(), "indptr must have n+1 entries");
        assert_eq!(
            *indptr.last().unwrap(),
            indices.len(),
            "indptr/indices mismatch"
        );
        assert!(
            indptr.windows(2).all(|w| w[0] <= w[1]),
            "indptr must be non-decreasing"
        );
        Csr { indptr, indices }
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.indptr.len() - 1
    }

    /// Number of stored (directed) edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.indices.len()
    }

    /// In-neighbors of `v`.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.indices[self.indptr[v as usize]..self.indptr[v as usize + 1]]
    }

    /// In-degree of `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.indptr[v as usize + 1] - self.indptr[v as usize]
    }

    /// Raw offset array (n+1 entries).
    #[inline]
    pub(crate) fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// Raw neighbor array.
    #[inline]
    pub(crate) fn indices(&self) -> &[NodeId] {
        &self.indices
    }

    /// Approximate resident size in bytes (for the GAS OOM accounting).
    pub fn bytes(&self) -> usize {
        self.indptr.len() * std::mem::size_of::<usize>()
            + self.indices.len() * std::mem::size_of::<NodeId>()
    }

    /// Reference "prune all neighbors of `v`" for the Table 1 comparison:
    /// CSR must rewrite the offset array (O(|V|)) after deleting the
    /// neighbor segment (O(N_neighbors) via copy-down).
    ///
    /// Returns the number of removed edges. This exists to measure the cost
    /// the paper's CSR2 avoids; the hot path uses [`crate::Csr2::prune`].
    pub fn prune_neighbors(&mut self, v: NodeId) -> usize {
        let lo = self.indptr[v as usize];
        let hi = self.indptr[v as usize + 1];
        let removed = hi - lo;
        if removed == 0 {
            return 0;
        }
        // O(E) compaction of the neighbor array...
        self.indices.drain(lo..hi);
        // ...and O(V) rewrite of every subsequent offset.
        for p in self.indptr[v as usize + 1..].iter_mut() {
            *p -= removed;
        }
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Csr {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3 (directed), stored by dst.
        Csr::from_directed_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn directed_edges_grouped_by_destination() {
        let g = diamond();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.neighbors(0), &[] as &[NodeId]);
        assert_eq!(g.neighbors(1), &[0]);
        assert_eq!(g.neighbors(2), &[0]);
        assert_eq!(g.neighbors(3), &[1, 2]);
    }

    #[test]
    fn undirected_doubles_edges() {
        let g = Csr::from_undirected_edges(3, &[(0, 1), (1, 2)]);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.degree(0), 1);
    }

    #[test]
    fn self_loop_stored_once_in_undirected() {
        let g = Csr::from_undirected_edges(2, &[(0, 0), (0, 1)]);
        assert_eq!(g.neighbors(0), &[0, 1]);
        assert_eq!(g.neighbors(1), &[0]);
    }

    #[test]
    fn from_parts_validates() {
        let g = Csr::from_parts(vec![0, 1, 2], vec![1, 0]);
        assert_eq!(g.num_nodes(), 2);
    }

    #[test]
    #[should_panic(expected = "indptr/indices mismatch")]
    fn from_parts_rejects_bad_lengths() {
        let _ = Csr::from_parts(vec![0, 1], vec![]);
    }

    #[test]
    fn prune_neighbors_removes_segment_and_fixes_offsets() {
        let mut g = diamond();
        let removed = g.prune_neighbors(3);
        assert_eq!(removed, 2);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(3), &[] as &[NodeId]);
        assert_eq!(g.neighbors(1), &[0]);
        assert_eq!(g.neighbors(2), &[0]);
    }

    #[test]
    fn prune_middle_node_keeps_later_lists_intact() {
        let mut g = Csr::from_directed_edges(4, &[(3, 1), (2, 1), (0, 2), (1, 3), (0, 3)]);
        g.prune_neighbors(1);
        assert_eq!(g.neighbors(2), &[0]);
        assert_eq!(g.neighbors(3), &[1, 0]);
    }
}
