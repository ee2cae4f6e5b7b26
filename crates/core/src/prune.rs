//! Cache-aware subgraph pruning (§5, Algorithm 1 lines 6–9).
//!
//! The pruner scans a sampled mini-batch from the seed layer down. A
//! destination whose embedding is cached has its aggregation removed in
//! O(1) (CSR2 `end[i] = start[i]`), and — because nothing below it is
//! referenced anymore — its entire multi-hop subtree is dead: lower-level
//! nodes reachable only through cached (or otherwise dead) destinations
//! are pruned too and their raw features are never loaded. This subtree
//! effect is why the paper's I/O saving exceeds the raw cache hit rate
//! (§7.4).

use crate::cache::{CachePolicy, HistoricalCache};
use fgnn_graph::block::MiniBatch;

/// What the pruner decided for one mini-batch.
pub struct PruneOutcome {
    /// Per block `b`: `(local dst index, cache slot)` pairs read from
    /// cache level `b+1`. The top block's list is always empty (seeds are
    /// never cache-read).
    pub cached: Vec<Vec<(u32, u32)>>,
    /// Per block `b`: whether each dst node must be computed. Dead or
    /// cached nodes are `false`.
    pub computed: Vec<Vec<bool>>,
    /// Which input-block src nodes need their raw features loaded.
    pub needed_input: Vec<bool>,
    /// Total dst nodes pruned (cached + dead).
    pub pruned_nodes: usize,
    /// Total edges removed from the mini-batch.
    pub pruned_edges: usize,
}

impl PruneOutcome {
    /// Number of input features that still must be loaded.
    pub fn num_inputs_needed(&self) -> usize {
        self.needed_input.iter().filter(|&&b| b).count()
    }
}

/// Prune `mb` in place against `cache` at iteration `now`, routing every
/// cache probe through `policy` ([`HistoricalCache::lookup_with`]): a live
/// entry the policy's refresh schedule flags is declined — the node is
/// recomputed this iteration so its re-admission refreshes the entry in
/// place.
///
/// With a disabled cache this degenerates gracefully: everything is
/// computed, nothing is pruned — plain neighbor sampling.
pub fn prune_with_cache_policy(
    mb: &mut MiniBatch,
    cache: &mut HistoricalCache,
    now: u32,
    policy: &dyn CachePolicy,
) -> PruneOutcome {
    let num_blocks = mb.blocks.len();
    let mut cached: Vec<Vec<(u32, u32)>> = vec![Vec::new(); num_blocks];
    let mut computed: Vec<Vec<bool>> = Vec::with_capacity(num_blocks);
    for b in &mb.blocks {
        computed.push(vec![false; b.num_dst()]);
    }
    let mut pruned_nodes = 0usize;
    let mut pruned_edges = 0usize;

    // Seeds (top block dst) are always needed.
    let mut needed: Vec<bool> = vec![true; mb.blocks[num_blocks - 1].num_dst()];

    for b in (0..num_blocks).rev() {
        let level = b + 1; // dst of block b holds h^{(level)}
        let is_top = b + 1 == num_blocks;
        let n_src = mb.blocks[b].num_src();
        let mut needed_below = vec![false; n_src];

        for v in 0..mb.blocks[b].num_dst() {
            if !needed[v] {
                // Dead subtree: drop the aggregation, don't expand.
                pruned_edges += mb.blocks[b].adj.prune(v);
                pruned_nodes += 1;
                continue;
            }
            let node = mb.blocks[b].dst_global[v];
            if !is_top {
                if let Some(slot) = cache.lookup_with(level, node, now, policy) {
                    pruned_edges += mb.blocks[b].adj.prune(v);
                    pruned_nodes += 1;
                    cached[b].push((v as u32, slot));
                    continue;
                }
            }
            // Fresh compute: needs its own lower representation plus its
            // sampled neighbors'.
            computed[b][v] = true;
            needed_below[v] = true;
            for &u in mb.blocks[b].adj.neighbors(v) {
                needed_below[u as usize] = true;
            }
        }

        if b == 0 {
            return PruneOutcome {
                cached,
                computed,
                needed_input: needed_below,
                pruned_nodes,
                pruned_edges,
            };
        }
        // Chain invariant: block b's src set == block b-1's dst set.
        debug_assert_eq!(n_src, mb.blocks[b - 1].num_dst());
        needed = needed_below;
    }
    unreachable!("loop returns at b == 0");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{GradientPolicy, PolicyInput, Verdict};
    use fgnn_graph::sample::NeighborSampler;
    use fgnn_graph::Csr;
    use fgnn_tensor::{Matrix, Rng};

    /// A 2-layer chain: 0 - 1 - 2 - 3 - 4 (path), seed {2}.
    fn sample_path() -> MiniBatch {
        let edges: Vec<(u32, u32)> = (0..4).map(|i| (i, i + 1)).collect();
        let g = Csr::from_undirected_edges(5, &edges);
        let mut s = NeighborSampler::new(5);
        s.sample(&g, &[2], &[10, 10], &mut Rng::new(1))
    }

    fn empty_cache(dims: &[usize]) -> HistoricalCache {
        HistoricalCache::new(16, dims, 100, 8, true)
    }

    #[test]
    fn no_cache_entries_means_everything_computed() {
        let mut mb = sample_path();
        let edges_before = mb.total_edges();
        let mut cache = empty_cache(&[4, 4]);
        let out = prune_with_cache_policy(&mut mb, &mut cache, 0, &GradientPolicy);
        assert_eq!(out.pruned_nodes, 0);
        assert_eq!(out.pruned_edges, 0);
        assert_eq!(mb.total_edges(), edges_before);
        assert!(out.computed.iter().flatten().all(|&c| c));
        assert!(out.needed_input.iter().all(|&n| n));
    }

    #[test]
    fn cached_interior_node_prunes_its_subtree() {
        let mut mb = sample_path();
        let mut cache = empty_cache(&[4, 4]);
        // Seed 2's level-1 neighbors are nodes 1 and 3 (dst of block 0).
        // Cache node 1 at level 1.
        let h = Matrix::zeros(1, 4);
        cache.apply_verdicts(
            1,
            &[(
                PolicyInput {
                    node: 1,
                    local: 0,
                    grad_norm: 0.0,
                    was_cached: false,
                },
                Verdict::Admit,
            )],
            &h,
            0,
        );
        let out = prune_with_cache_policy(&mut mb, &mut cache, 1, &GradientPolicy);
        // Node 1 at block 0 must be cache-read, not computed.
        let b0 = &mb.blocks[0];
        let local_1 = b0.dst_global.iter().position(|&g| g == 1).unwrap();
        assert!(out.cached[0].iter().any(|&(v, _)| v as usize == local_1));
        assert!(!out.computed[0][local_1]);
        assert!(b0.adj.is_pruned(local_1));
        // Node 1's own raw features are no longer needed unless another
        // computed dst references them. Node 0 is reachable only through
        // node 1 → its features must be dead.
        let local_0 = b0
            .src_global
            .iter()
            .position(|&g| g == 0)
            .expect("node 0 sampled");
        assert!(!out.needed_input[local_0], "subtree feature load pruned");
        assert!(out.pruned_nodes >= 1);
        assert!(out.pruned_edges >= 1);
    }

    #[test]
    fn seeds_are_never_cache_read() {
        let mut mb = sample_path();
        let mut cache = empty_cache(&[4, 4]);
        // Put the seed itself in the TOP level cache (level 2) — must be
        // ignored because the top block never reads the cache.
        let h = Matrix::zeros(1, 4);
        cache.apply_verdicts(
            2,
            &[(
                PolicyInput {
                    node: 2,
                    local: 0,
                    grad_norm: 0.0,
                    was_cached: false,
                },
                Verdict::Admit,
            )],
            &h,
            0,
        );
        let out = prune_with_cache_policy(&mut mb, &mut cache, 1, &GradientPolicy);
        let top = out.computed.last().unwrap();
        assert!(top.iter().all(|&c| c), "all seeds computed");
        assert!(out.cached.last().unwrap().is_empty());
    }

    #[test]
    fn io_saving_exceeds_hit_count_through_subtrees() {
        // Star: hub 0 connected to 1..=8; seed {1} with 2 layers. Caching
        // hub 0 at level 1 kills the whole second hop (nodes 2..=8).
        let edges: Vec<(u32, u32)> = (1..=8).map(|l| (0, l)).collect();
        let g = Csr::from_undirected_edges(9, &edges);
        let mut s = NeighborSampler::new(9);
        let mut mb = s.sample(&g, &[1], &[10, 10], &mut Rng::new(3));
        let inputs_before = mb.input_nodes().len();

        let mut cache = empty_cache(&[4, 4]);
        let h = Matrix::zeros(1, 4);
        cache.apply_verdicts(
            1,
            &[(
                PolicyInput {
                    node: 0,
                    local: 0,
                    grad_norm: 0.0,
                    was_cached: false,
                },
                Verdict::Admit,
            )],
            &h,
            0,
        );
        let out = prune_with_cache_policy(&mut mb, &mut cache, 1, &GradientPolicy);
        // One cache hit, but many input loads avoided.
        assert_eq!(out.cached[0].len(), 1);
        let needed = out.num_inputs_needed();
        assert!(
            needed + 5 <= inputs_before,
            "needed {needed} of {inputs_before}"
        );
    }

    #[test]
    fn disabled_cache_prunes_nothing() {
        let mut mb = sample_path();
        let mut cache = HistoricalCache::new(16, &[4, 4], 0, 8, false);
        let out = prune_with_cache_policy(&mut mb, &mut cache, 0, &GradientPolicy);
        assert_eq!(out.pruned_nodes, 0);
        assert!(out.cached.iter().all(Vec::is_empty));
    }
}
