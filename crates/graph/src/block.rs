//! Per-layer bipartite message-flow graphs ("blocks", DGL's MFGs).
//!
//! A sampled mini-batch for an L-layer GNN is L blocks. Block `l` (0-based,
//! input→output order) maps layer-`l` representations of its *src* nodes to
//! layer-`l+1` representations of its *dst* nodes. The adjacency is stored
//! in [`Csr2`] so the cache-aware pruner (freshgnn `prune` module) can drop
//! a cached destination's aggregation in O(1).

use crate::{Csr2, NodeId};

/// One bipartite layer of a sampled mini-batch.
///
/// Invariants (checked by `Block::validate`):
/// * `src_global[i] == dst_global[i]` for `i < dst_global.len()` — every
///   destination is also a source so its own previous-layer representation
///   is available (self term of GCN/SAGE updates);
/// * adjacency rows are indexed by *local* dst ID, entries are *local* src
///   IDs, and self-edges are not stored (layers add the self term
///   explicitly).
#[derive(Clone, Debug)]
pub struct Block {
    /// Destination (output) nodes, global IDs, local ID = position.
    pub dst_global: Vec<NodeId>,
    /// Source (input) nodes, global IDs; prefix equals `dst_global`.
    pub src_global: Vec<NodeId>,
    /// Sampled adjacency: row = local dst, entries = local src.
    pub adj: Csr2,
}

impl Block {
    /// Number of destination nodes.
    #[inline]
    pub fn num_dst(&self) -> usize {
        self.dst_global.len()
    }

    /// Number of source nodes.
    #[inline]
    pub fn num_src(&self) -> usize {
        self.src_global.len()
    }

    /// Number of live (unpruned) edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.adj.num_live_edges()
    }

    /// Check the structural invariants; used by tests and debug assertions.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.adj.num_nodes() != self.num_dst() {
            return Err(format!(
                "adjacency has {} rows but block has {} dst nodes",
                self.adj.num_nodes(),
                self.num_dst()
            ));
        }
        if self.src_global.len() < self.dst_global.len() {
            return Err("src set smaller than dst set".into());
        }
        for (i, (&d, &s)) in self.dst_global.iter().zip(&self.src_global).enumerate() {
            if d != s {
                return Err(format!("src prefix mismatch at {i}: dst {d} vs src {s}"));
            }
        }
        let n_src = self.num_src() as NodeId;
        for i in 0..self.num_dst() {
            for (k, &u) in self.adj.neighbors(i).iter().enumerate() {
                if u >= n_src {
                    return Err(format!(
                        "dst {i} neighbor #{k} = {u} out of src range {n_src}"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// A full sampled mini-batch: `blocks[0]` consumes raw input features,
/// `blocks[L-1]` produces outputs for the seed nodes.
#[derive(Clone, Debug)]
pub struct MiniBatch {
    /// Per-layer blocks in input→output order.
    pub blocks: Vec<Block>,
    /// Seed (training) nodes — always equal to the last block's dst set.
    pub seeds: Vec<NodeId>,
}

impl MiniBatch {
    /// Number of GNN layers this batch feeds.
    #[inline]
    pub fn num_layers(&self) -> usize {
        self.blocks.len()
    }

    /// The nodes whose *raw features* must be loaded (before any cache
    /// pruning): the src set of the input block.
    #[inline]
    pub fn input_nodes(&self) -> &[NodeId] {
        &self.blocks[0].src_global
    }

    /// Total live edges across all blocks (compute-cost proxy).
    pub fn total_edges(&self) -> usize {
        self.blocks.iter().map(Block::num_edges).sum()
    }

    /// Validate all blocks plus the seed/top-block correspondence.
    pub fn validate(&self) -> Result<(), String> {
        if self.blocks.is_empty() {
            return Err("mini-batch with zero blocks".into());
        }
        for (l, b) in self.blocks.iter().enumerate() {
            b.validate().map_err(|e| format!("block {l}: {e}"))?;
        }
        let top = &self.blocks[self.blocks.len() - 1];
        if top.dst_global != self.seeds {
            return Err("top block dst != seeds".into());
        }
        // Layer chaining: block l's src set must equal block l-1's dst set.
        for l in 1..self.blocks.len() {
            if self.blocks[l].src_global != self.blocks[l - 1].dst_global {
                return Err(format!("block {l} src != block {} dst", l - 1));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_block() -> Block {
        // dst = [10, 11]; src = [10, 11, 20, 21]; 10 <- {20, 21}, 11 <- {20}.
        Block {
            dst_global: vec![10, 11],
            src_global: vec![10, 11, 20, 21],
            adj: Csr2::from_neighbor_lists(&[vec![2, 3], vec![2]]),
        }
    }

    #[test]
    fn block_counts() {
        let b = tiny_block();
        assert_eq!(b.num_dst(), 2);
        assert_eq!(b.num_src(), 4);
        assert_eq!(b.num_edges(), 3);
        b.validate().unwrap();
    }

    #[test]
    fn validate_catches_prefix_violation() {
        let mut b = tiny_block();
        b.src_global[0] = 99;
        assert!(b.validate().unwrap_err().contains("prefix"));
    }

    #[test]
    fn validate_catches_out_of_range_neighbor() {
        let mut b = tiny_block();
        b.adj = Csr2::from_neighbor_lists(&[vec![9], vec![]]);
        assert!(b.validate().unwrap_err().contains("out of src range"));
    }

    #[test]
    fn minibatch_validation_checks_chaining() {
        let b0 = Block {
            dst_global: vec![10, 11, 20, 21],
            src_global: vec![10, 11, 20, 21, 30],
            adj: Csr2::from_neighbor_lists(&[vec![4], vec![], vec![], vec![]]),
        };
        let b1 = tiny_block();
        let mb = MiniBatch {
            blocks: vec![b0.clone(), b1.clone()],
            seeds: vec![10, 11],
        };
        mb.validate().unwrap();
        assert_eq!(mb.input_nodes(), &[10, 11, 20, 21, 30]);
        assert_eq!(mb.total_edges(), 4);

        let broken = MiniBatch {
            blocks: vec![b1.clone(), b1],
            seeds: vec![10, 11],
        };
        assert!(broken.validate().is_err());
    }
}
