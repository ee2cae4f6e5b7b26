//! Fan-out neighbor sampling (GraphSAGE-style), producing per-layer
//! [`Block`]s.
//!
//! Sampling proceeds top-down: the seed nodes are the destination set of the
//! last block; each layer samples up to `fanout` in-neighbors per
//! destination; the union of destinations and sampled sources becomes the
//! next (lower) layer's destination set. Passing [`FULL_NEIGHBORS`] as a
//! fanout takes every neighbor (used to compute *authentic* embeddings for
//! the Fig 1 estimation-error probe).

use crate::block::MiniBatch;
use crate::mapper::NodeMapper;
use crate::{Block, Csr, Csr2, NodeId};
use fgnn_tensor::Rng;

/// Fanout value meaning "take all neighbors".
pub const FULL_NEIGHBORS: usize = usize::MAX;

/// Reusable sampler scratch state (mapper + buffers), sized to the graph.
///
/// Keeping this out of the per-batch path avoids reallocating the O(|V|)
/// mapping array for every mini-batch — the same reason the paper keeps a
/// persistent node-ID mapping array on GPU.
pub struct NeighborSampler {
    mapper: NodeMapper,
    /// Scratch for one destination's sampled neighbor positions.
    picks: Vec<usize>,
}

impl NeighborSampler {
    /// Create a sampler for graphs with up to `num_nodes` nodes.
    pub fn new(num_nodes: usize) -> Self {
        NeighborSampler {
            mapper: NodeMapper::new(num_nodes),
            picks: Vec::new(),
        }
    }

    /// Sample an L-layer mini-batch.
    ///
    /// `fanouts` is in input→output order (`fanouts[0]` applies to the block
    /// that consumes raw features), matching DGL's convention and the
    /// paper's "20, 15, 10" notation.
    pub fn sample(
        &mut self,
        graph: &Csr,
        seeds: &[NodeId],
        fanouts: &[usize],
        rng: &mut Rng,
    ) -> MiniBatch {
        assert!(!fanouts.is_empty(), "at least one layer required");
        let mut blocks_rev: Vec<Block> = Vec::with_capacity(fanouts.len());
        for &fanout in fanouts.iter().rev() {
            let dst = blocks_rev.last().map_or(seeds, |b| &b.src_global[..]);
            let block = self.sample_one_layer(graph, dst, fanout, rng);
            blocks_rev.push(block);
        }
        blocks_rev.reverse();
        MiniBatch {
            blocks: blocks_rev,
            seeds: seeds.to_vec(),
        }
    }

    /// Sample a single bipartite block for destination set `dst`.
    fn sample_one_layer(
        &mut self,
        graph: &Csr,
        dst: &[NodeId],
        fanout: usize,
        rng: &mut Rng,
    ) -> Block {
        self.mapper.reset();
        // Destinations take the first local IDs so the src prefix invariant
        // holds.
        for &d in dst {
            self.mapper.get_or_insert(d);
        }
        debug_assert_eq!(self.mapper.len(), dst.len(), "duplicate seeds in dst");
        let adj = sample_adjacency(graph, dst, fanout, &mut self.mapper, &mut self.picks, rng);
        Block {
            dst_global: dst.to_vec(),
            src_global: self.mapper.globals().to_vec(),
            adj,
        }
    }
}

/// How far ahead phase 1 of [`sample_adjacency`] prefetches a destination's
/// `indptr` entry, and (nearer, since it reads that entry) its neighbour
/// list: up to `NEIGHBOR_LINES` cache lines from the head, which holds every
/// pick of all but the highest-degree nodes.
const INDPTR_AHEAD: usize = 8;
const NEIGHBORS_AHEAD: usize = 4;
const NEIGHBOR_LINES: usize = 16;
/// Node IDs in a 64-byte cache line.
const IDS_PER_LINE: usize = 64 / std::mem::size_of::<NodeId>();
/// How far ahead phase 2 prefetches a picked node's mapper slot.
const MAPPER_AHEAD: usize = 16;

/// Sample up to `fanout` in-neighbors of every node of `dst` in `graph`,
/// writing their local IDs (assigned by `mapper`, which already holds the
/// destinations) straight into the adjacency's flat index array: the block is
/// built in place, three allocations whatever the node count. `picks` is
/// scratch.
///
/// Two phases, so that each sampled edge waits on memory once: phase 1
/// draws the picks and writes their *global* IDs into the index array,
/// prefetching upcoming destinations' offsets and neighbour lists; phase 2
/// rewrites every entry in place to its local ID, prefetching the mapper
/// slot a few entries ahead. The RNG draws and the `get_or_insert` calls
/// are those of one interleaved pass, in the same order, so the local IDs
/// are too.
pub(crate) fn sample_adjacency(
    graph: &Csr,
    dst: &[NodeId],
    fanout: usize,
    mapper: &mut NodeMapper,
    picks: &mut Vec<usize>,
    rng: &mut Rng,
) -> Csr2 {
    let edges = dst.iter().map(|&d| graph.degree(d).min(fanout)).sum();
    let mut start = Vec::with_capacity(dst.len());
    let mut end = Vec::with_capacity(dst.len());
    let mut indices = Vec::with_capacity(edges);
    let (indptr, all_nbrs) = (graph.indptr(), graph.indices());
    for (i, &d) in dst.iter().enumerate() {
        if let Some(&ahead) = dst.get(i + INDPTR_AHEAD) {
            fgnn_tensor::prefetch(indptr, ahead as usize);
        }
        if let Some(&ahead) = dst.get(i + NEIGHBORS_AHEAD) {
            let lo = indptr[ahead as usize];
            let hi = indptr[ahead as usize + 1].min(lo + NEIGHBOR_LINES * IDS_PER_LINE);
            for p in (lo..hi).step_by(IDS_PER_LINE) {
                fgnn_tensor::prefetch(all_nbrs, p);
            }
            // An unaligned list's tail can sit one line past the last step.
            if hi > lo {
                fgnn_tensor::prefetch(all_nbrs, hi - 1);
            }
        }
        let nbrs = graph.neighbors(d);
        start.push(indices.len());
        if nbrs.len() <= fanout {
            indices.extend_from_slice(nbrs);
        } else {
            rng.sample_without_replacement_into(nbrs.len(), fanout, picks);
            indices.extend(picks.iter().map(|&k| nbrs[k]));
        }
        end.push(indices.len());
    }
    for i in 0..indices.len() {
        if let Some(&ahead) = indices.get(i + MAPPER_AHEAD) {
            mapper.prefetch(ahead);
        }
        indices[i] = mapper.get_or_insert(indices[i]);
    }
    Csr2::from_parts(start, end, indices)
}

/// Split `train_nodes` into mini-batches of `batch_size` after an optional
/// shuffle — Algorithm 1's `Split(G, B)`.
pub fn split_batches(
    train_nodes: &[NodeId],
    batch_size: usize,
    shuffle: Option<&mut Rng>,
) -> Vec<Vec<NodeId>> {
    assert!(batch_size > 0, "batch_size must be positive");
    let mut nodes = train_nodes.to_vec();
    if let Some(rng) = shuffle {
        rng.shuffle(&mut nodes);
    }
    nodes.chunks(batch_size).map(|c| c.to_vec()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: usize) -> Csr {
        let edges: Vec<(NodeId, NodeId)> = (0..n as NodeId - 1).map(|i| (i, i + 1)).collect();
        Csr::from_undirected_edges(n, &edges)
    }

    fn star_graph(leaves: usize) -> Csr {
        // Node 0 is the hub.
        let edges: Vec<(NodeId, NodeId)> = (1..=leaves as NodeId).map(|l| (0, l)).collect();
        Csr::from_undirected_edges(leaves + 1, &edges)
    }

    #[test]
    fn full_fanout_takes_every_neighbor() {
        let g = star_graph(5);
        let mut s = NeighborSampler::new(g.num_nodes());
        let mut rng = Rng::new(1);
        let mb = s.sample(&g, &[0], &[FULL_NEIGHBORS], &mut rng);
        mb.validate().unwrap();
        assert_eq!(mb.blocks[0].num_dst(), 1);
        assert_eq!(mb.blocks[0].num_src(), 6); // hub + 5 leaves
        assert_eq!(mb.blocks[0].num_edges(), 5);
    }

    #[test]
    fn fanout_caps_sampled_neighbors() {
        let g = star_graph(50);
        let mut s = NeighborSampler::new(g.num_nodes());
        let mut rng = Rng::new(2);
        let mb = s.sample(&g, &[0], &[8], &mut rng);
        mb.validate().unwrap();
        assert_eq!(mb.blocks[0].adj.degree(0), 8);
        // Sampled neighbors are distinct leaves.
        let nbrs = mb.blocks[0].adj.neighbors(0);
        let set: std::collections::HashSet<_> = nbrs.iter().collect();
        assert_eq!(set.len(), 8);
    }

    #[test]
    fn multilayer_blocks_chain_correctly() {
        let g = path_graph(32);
        let mut s = NeighborSampler::new(g.num_nodes());
        let mut rng = Rng::new(3);
        let mb = s.sample(&g, &[16, 17], &[2, 2, 2], &mut rng);
        mb.validate().unwrap();
        assert_eq!(mb.num_layers(), 3);
        // Deeper blocks have at least as many dst nodes as the one above.
        assert!(mb.blocks[0].num_dst() >= mb.blocks[1].num_dst());
        assert!(mb.blocks[1].num_dst() >= mb.blocks[2].num_dst());
        assert_eq!(mb.blocks[2].dst_global, vec![16, 17]);
    }

    #[test]
    fn sampling_is_deterministic_given_seed() {
        let g = star_graph(50);
        let mut s1 = NeighborSampler::new(g.num_nodes());
        let mut s2 = NeighborSampler::new(g.num_nodes());
        let mb1 = s1.sample(&g, &[0], &[8, 8], &mut Rng::new(42));
        let mb2 = s2.sample(&g, &[0], &[8, 8], &mut Rng::new(42));
        for (a, b) in mb1.blocks.iter().zip(&mb2.blocks) {
            assert_eq!(a.src_global, b.src_global);
            assert_eq!(a.adj, b.adj);
        }
    }

    #[test]
    fn isolated_seed_yields_empty_adjacency() {
        let g = Csr::from_undirected_edges(3, &[(0, 1)]);
        let mut s = NeighborSampler::new(3);
        let mb = s.sample(&g, &[2], &[4], &mut Rng::new(0));
        mb.validate().unwrap();
        assert_eq!(mb.blocks[0].num_edges(), 0);
        assert_eq!(mb.blocks[0].num_src(), 1);
    }

    #[test]
    fn split_batches_partitions_all_nodes() {
        let nodes: Vec<NodeId> = (0..10).collect();
        let batches = split_batches(&nodes, 4, None);
        assert_eq!(batches.len(), 3);
        assert_eq!(batches[2].len(), 2);
        let flat: Vec<NodeId> = batches.concat();
        assert_eq!(flat, nodes);
    }

    #[test]
    fn split_batches_shuffled_is_permutation() {
        let nodes: Vec<NodeId> = (0..100).collect();
        let mut rng = Rng::new(5);
        let batches = split_batches(&nodes, 7, Some(&mut rng));
        let mut flat: Vec<NodeId> = batches.concat();
        flat.sort_unstable();
        assert_eq!(flat, nodes);
    }
}

/// Layer-wise (FastGCN-style) sampling: instead of expanding every
/// destination's neighborhood, each layer draws one *shared* sample of
/// nodes — importance-weighted by degree — and keeps the bipartite edges
/// into the layer above. Breaks the exponential fan-out at the cost of
/// sparser, biased aggregations (§2.3's "layer-wise sampling" family).
///
/// `layer_sizes` is input→output aligned with model layers: layer `l`'s
/// *source* pool gets `layer_sizes[l]` sampled nodes in addition to the
/// destinations themselves (which stay for the self term).
pub fn layer_wise_sample(
    graph: &Csr,
    seeds: &[NodeId],
    layer_sizes: &[usize],
    rng: &mut Rng,
) -> MiniBatch {
    assert!(!layer_sizes.is_empty());
    let mut blocks_rev: Vec<Block> = Vec::with_capacity(layer_sizes.len());
    let mut dst: Vec<NodeId> = seeds.to_vec();

    for &n_sample in layer_sizes.iter().rev() {
        // Candidate pool: union of dst neighborhoods, deduplicated.
        let mut candidates: Vec<NodeId> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for &d in &dst {
            seen.insert(d); // dst occupy the src prefix already
        }
        for &d in &dst {
            for &u in graph.neighbors(d) {
                if seen.insert(u) {
                    candidates.push(u);
                }
            }
        }
        // Degree-proportional importance sampling without replacement
        // (FastGCN uses squared-norm importance; degree is the standard
        // structural surrogate).
        let sampled: Vec<NodeId> = if candidates.len() <= n_sample {
            candidates
        } else {
            let weights: Vec<f64> = candidates
                .iter()
                .map(|&u| (graph.degree(u) + 1) as f64)
                .collect();
            let mut picked = Vec::with_capacity(n_sample);
            let mut taken = vec![false; candidates.len()];
            let mut total: f64 = weights.iter().sum();
            for _ in 0..n_sample {
                let mut x = rng.uniform() as f64 * total;
                let mut chosen = usize::MAX;
                for (i, &w) in weights.iter().enumerate() {
                    if taken[i] {
                        continue;
                    }
                    x -= w;
                    if x <= 0.0 {
                        chosen = i;
                        break;
                    }
                }
                if chosen == usize::MAX {
                    chosen = match taken.iter().position(|&t| !t) {
                        Some(i) => i,
                        None => break,
                    };
                }
                taken[chosen] = true;
                total -= weights[chosen];
                picked.push(candidates[chosen]);
            }
            picked
        };

        // src = dst ++ sampled; adjacency = graph edges dst <- src-set.
        let mut local_of = std::collections::HashMap::with_capacity(dst.len() + sampled.len());
        let mut src_global = dst.clone();
        for (i, &d) in dst.iter().enumerate() {
            local_of.insert(d, i as NodeId);
        }
        for &u in &sampled {
            local_of.entry(u).or_insert_with(|| {
                src_global.push(u);
                (src_global.len() - 1) as NodeId
            });
        }
        let lists: Vec<Vec<NodeId>> = dst
            .iter()
            .map(|&d| {
                graph
                    .neighbors(d)
                    .iter()
                    .filter_map(|u| local_of.get(u).copied())
                    // Layers add the self term explicitly; drop self loops.
                    .filter(|&lu| src_global[lu as usize] != d)
                    .collect()
            })
            .collect();
        let block = Block {
            dst_global: dst.clone(),
            src_global: src_global.clone(),
            adj: Csr2::from_neighbor_lists(&lists),
        };
        dst = src_global;
        blocks_rev.push(block);
    }
    blocks_rev.reverse();
    MiniBatch {
        blocks: blocks_rev,
        seeds: seeds.to_vec(),
    }
}

/// Random-walk node sampling (GraphSAINT-style): walk `walk_length` steps
/// from each root and return the deduplicated, sorted visited set — the
/// subgraph a graph-wise sampling iteration trains on (§2.3's "graph-wise
/// sampling" family).
pub fn random_walk_nodes(
    graph: &Csr,
    roots: &[NodeId],
    walk_length: usize,
    rng: &mut Rng,
) -> Vec<NodeId> {
    let mut visited: Vec<NodeId> = Vec::with_capacity(roots.len() * (walk_length + 1));
    for &r in roots {
        let mut cur = r;
        visited.push(cur);
        for _ in 0..walk_length {
            let nbrs = graph.neighbors(cur);
            if nbrs.is_empty() {
                break;
            }
            cur = nbrs[rng.below(nbrs.len())];
            visited.push(cur);
        }
    }
    visited.sort_unstable();
    visited.dedup();
    visited
}

#[cfg(test)]
mod alt_sampler_tests {
    use super::*;

    fn path_graph(n: usize) -> Csr {
        let edges: Vec<(NodeId, NodeId)> = (0..n as NodeId - 1).map(|i| (i, i + 1)).collect();
        Csr::from_undirected_edges(n, &edges)
    }

    fn star_graph(leaves: usize) -> Csr {
        let edges: Vec<(NodeId, NodeId)> = (1..=leaves as NodeId).map(|l| (0, l)).collect();
        Csr::from_undirected_edges(leaves + 1, &edges)
    }

    #[test]
    fn layer_wise_sample_bounds_pool_sizes() {
        let mut rng = Rng::new(7);
        let g = crate::generate::generate(
            &crate::generate::GraphConfig {
                num_nodes: 500,
                avg_degree: 12.0,
                ..Default::default()
            },
            &mut rng,
        )
        .graph;
        let seeds: Vec<NodeId> = (0..20).collect();
        let mb = layer_wise_sample(&g, &seeds, &[30, 30], &mut rng);
        mb.validate().unwrap();
        // Each layer adds at most `layer_size` sampled sources on top of
        // its destinations.
        for (b, block) in mb.blocks.iter().enumerate() {
            assert!(
                block.num_src() <= block.num_dst() + 30,
                "block {b}: {} src vs {} dst",
                block.num_src(),
                block.num_dst()
            );
        }
        // Unlike fan-out sampling, the pool does NOT grow exponentially.
        assert!(mb.input_nodes().len() <= 20 + 30 + 30);
    }

    #[test]
    fn layer_wise_sample_edges_are_real() {
        let mut rng = Rng::new(8);
        let g = star_graph(40);
        let mb = layer_wise_sample(&g, &[0], &[10], &mut rng);
        mb.validate().unwrap();
        let b = &mb.blocks[0];
        for &u in b.adj.neighbors(0) {
            let gu = b.src_global[u as usize];
            assert!(g.neighbors(0).contains(&gu));
        }
        assert!(b.adj.degree(0) <= 10 + 1);
    }

    #[test]
    fn random_walk_nodes_visits_connected_region() {
        let mut rng = Rng::new(9);
        let g = path_graph(50);
        let nodes = random_walk_nodes(&g, &[25], 10, &mut rng);
        assert!(nodes.contains(&25));
        assert!(nodes.len() > 1, "walk must move");
        // A 10-step walk from 25 stays within distance 10.
        assert!(nodes.iter().all(|&v| (v as i64 - 25).abs() <= 10));
        // Sorted and deduplicated.
        assert!(nodes.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn random_walk_from_isolated_node_stops() {
        let g = Csr::from_undirected_edges(3, &[(0, 1)]);
        let mut rng = Rng::new(10);
        let nodes = random_walk_nodes(&g, &[2], 5, &mut rng);
        assert_eq!(nodes, vec![2]);
    }
}
