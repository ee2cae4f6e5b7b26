//! CSR2 — the paper's sparse format for O(1) neighbor pruning (§5, Fig 8,
//! Table 1).
//!
//! CSR2 stores *two* offset arrays: `start[i]` and `end[i]` delimit node
//! `i`'s neighbor segment in the shared column-index array. Removing all of
//! a node's neighbors is then the single write `end[i] = start[i]` — no
//! column-array edits, no offset rebuild, and (on the paper's GPU) no data
//! races between threads pruning different nodes. The redundancy costs one
//! extra offset array: storage `O(2|V| + |E|)` vs CSR's `O(|V| + |E|)`.

use crate::{Csr, NodeId};

/// Dual-offset sparse adjacency with O(1) per-node pruning.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Csr2 {
    start: Vec<usize>,
    end: Vec<usize>,
    indices: Vec<NodeId>,
}

impl Csr2 {
    /// Build from a CSR graph.
    pub fn from_csr(csr: &Csr) -> Self {
        let n = csr.num_nodes();
        let indptr = csr.indptr();
        Csr2 {
            start: indptr[..n].to_vec(),
            end: indptr[1..].to_vec(),
            indices: csr.indices().to_vec(),
        }
    }

    /// Build from raw parts. Panics on malformed input.
    pub fn from_parts(start: Vec<usize>, end: Vec<usize>, indices: Vec<NodeId>) -> Self {
        assert_eq!(start.len(), end.len(), "start/end length mismatch");
        for i in 0..start.len() {
            assert!(start[i] <= end[i], "segment {i} inverted");
            assert!(end[i] <= indices.len(), "segment {i} beyond indices");
        }
        Csr2 {
            start,
            end,
            indices,
        }
    }

    /// Build from per-node neighbor lists (used by the block sampler).
    pub fn from_neighbor_lists(lists: &[Vec<NodeId>]) -> Self {
        let total: usize = lists.iter().map(Vec::len).sum();
        let mut start = Vec::with_capacity(lists.len());
        let mut end = Vec::with_capacity(lists.len());
        let mut indices = Vec::with_capacity(total);
        for list in lists {
            start.push(indices.len());
            indices.extend_from_slice(list);
            end.push(indices.len());
        }
        Csr2 {
            start,
            end,
            indices,
        }
    }

    /// Number of nodes (rows).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.start.len()
    }

    /// Number of *live* edges (pruned segments excluded).
    pub fn num_live_edges(&self) -> usize {
        self.start.iter().zip(&self.end).map(|(&s, &e)| e - s).sum()
    }

    /// Live neighbors of node `i`.
    #[inline]
    pub fn neighbors(&self, i: usize) -> &[NodeId] {
        &self.indices[self.start[i]..self.end[i]]
    }

    /// Live degree of node `i`.
    #[inline]
    pub fn degree(&self, i: usize) -> usize {
        self.end[i] - self.start[i]
    }

    /// Prune all neighbors of node `i` — the O(1) operation this format
    /// exists for (`end[i] = start[i]`, Fig 8). Returns the number of edges
    /// removed.
    #[inline]
    pub fn prune(&mut self, i: usize) -> usize {
        let removed = self.end[i] - self.start[i];
        self.end[i] = self.start[i];
        removed
    }

    /// Whether node `i` currently has zero live neighbors.
    #[inline]
    pub fn is_pruned(&self, i: usize) -> bool {
        self.start[i] == self.end[i]
    }

    /// Undo a prune by restoring `end[i]` from `original`. Used by tests and
    /// by benchmarks that re-run pruning over the same block.
    pub fn restore_from(&mut self, original: &Csr2) {
        debug_assert_eq!(self.start, original.start);
        self.end.copy_from_slice(&original.end);
    }

    /// Approximate resident size in bytes (Table 1: `O(2|V| + |E|)`).
    pub fn bytes(&self) -> usize {
        (self.start.len() + self.end.len()) * std::mem::size_of::<usize>()
            + self.indices.len() * std::mem::size_of::<NodeId>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr2 {
        Csr2::from_neighbor_lists(&[vec![1, 2], vec![0], vec![], vec![0, 1, 2]])
    }

    #[test]
    fn from_csr_preserves_neighbors() {
        let csr = Csr::from_directed_edges(4, &[(1, 0), (2, 0), (0, 3), (1, 3)]);
        let c2 = Csr2::from_csr(&csr);
        assert_eq!(c2.neighbors(0), csr.neighbors(0));
        assert_eq!(c2.neighbors(3), csr.neighbors(3));
        assert_eq!(c2.num_live_edges(), csr.num_edges());
    }

    #[test]
    fn prune_is_o1_and_only_touches_target() {
        let mut g = sample();
        assert_eq!(g.num_live_edges(), 6);
        let removed = g.prune(3);
        assert_eq!(removed, 3);
        assert!(g.is_pruned(3));
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.num_live_edges(), 3);
        // The column array is untouched — only offsets changed.
        assert_eq!(g.indices.len(), 6);
    }

    #[test]
    fn prune_empty_node_is_noop() {
        let mut g = sample();
        assert_eq!(g.prune(2), 0);
        assert!(g.is_pruned(2));
    }

    #[test]
    fn double_prune_removes_nothing_more() {
        let mut g = sample();
        g.prune(0);
        assert_eq!(g.prune(0), 0);
    }

    #[test]
    fn restore_returns_to_original() {
        let original = sample();
        let mut g = original.clone();
        g.prune(0);
        g.prune(3);
        g.restore_from(&original);
        assert_eq!(g, original);
    }

    #[test]
    #[should_panic(expected = "segment 1 inverted")]
    fn from_parts_rejects_inverted_segments() {
        let _ = Csr2::from_parts(vec![0, 3], vec![2, 2], vec![0, 1, 2]);
    }

    #[test]
    fn storage_accounting_matches_table1_shape() {
        let g = sample();
        let v = g.num_nodes();
        let e = g.indices.len();
        assert_eq!(
            g.bytes(),
            2 * v * std::mem::size_of::<usize>() + e * std::mem::size_of::<NodeId>()
        );
    }
}
