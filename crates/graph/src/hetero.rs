//! Heterogeneous graphs for the §7.6 extension (R-GraphSAGE on MAG240M).
//!
//! A [`HeteroGraph`] has typed nodes (paper/author/institution for the
//! MAG-like generator) and typed relations, each stored as its own CSR
//! keyed by destination. Mini-batches are sampled per relation into
//! [`HeteroBlock`]s — the typed analogue of [`crate::Block`] — which the
//! R-SAGE trainer in `freshgnn` consumes. The historical embedding cache
//! applies unchanged: it caches the *target type*'s per-layer embeddings.

use crate::mapper::NodeMapper;
use crate::sample::sample_adjacency;
use crate::{Csr, Csr2, NodeId};
use fgnn_tensor::{Matrix, Rng};
use std::sync::Arc;

/// A typed relation: edges from `src_type` nodes to `dst_type` nodes.
#[derive(Clone, Debug)]
pub struct Relation {
    /// Human-readable name (e.g. `"cites"`).
    pub name: &'static str,
    /// Index into the node-type table for sources.
    pub src_type: usize,
    /// Index into the node-type table for destinations.
    pub dst_type: usize,
    /// Adjacency keyed by destination node (of `dst_type`), neighbor IDs in
    /// the `src_type` ID space.
    pub graph: Csr,
}

/// A heterogeneous graph.
#[derive(Clone, Debug)]
pub struct HeteroGraph {
    /// Node-type names.
    pub type_names: Vec<&'static str>,
    /// Node count per type.
    pub node_counts: Vec<usize>,
    /// Typed relations.
    pub relations: Vec<Relation>,
}

/// One typed bipartite layer of a sampled heterogeneous mini-batch.
#[derive(Clone, Debug)]
pub struct HeteroBlock {
    /// Destination node IDs per node type (local ID = position).
    pub dst: Vec<Vec<NodeId>>,
    /// Source node IDs per node type; per-type prefix equals `dst`.
    pub src: Vec<Vec<NodeId>>,
    /// Per-relation adjacency: rows = local dst index within
    /// `dst[rel.dst_type]`, entries = local src index within
    /// `src[rel.src_type]`.
    pub rel_adj: Vec<Csr2>,
}

impl HeteroBlock {
    /// Total live edges across relations.
    pub fn num_edges(&self) -> usize {
        self.rel_adj.iter().map(Csr2::num_live_edges).sum()
    }
}

/// A sampled heterogeneous mini-batch (input→output block order).
#[derive(Clone, Debug)]
pub struct HeteroMiniBatch {
    /// Per-layer typed blocks.
    pub blocks: Vec<HeteroBlock>,
    /// Seed nodes (of `target_type`).
    pub seeds: Vec<NodeId>,
    /// The node type being classified.
    pub target_type: usize,
}

/// Fan-out sampler over typed relations.
pub struct HeteroSampler {
    mappers: Vec<NodeMapper>,
    /// Scratch for one destination's sampled neighbor positions.
    picks: Vec<usize>,
}

impl HeteroSampler {
    /// Build a sampler sized to `graph`.
    pub fn new(graph: &HeteroGraph) -> Self {
        HeteroSampler {
            mappers: graph
                .node_counts
                .iter()
                .map(|&n| NodeMapper::new(n))
                .collect(),
            picks: Vec::new(),
        }
    }

    /// Sample `fanouts.len()` typed layers rooted at `seeds` of
    /// `target_type`. `fanouts` is input→output like the homogeneous
    /// sampler and applies per relation.
    pub fn sample(
        &mut self,
        graph: &HeteroGraph,
        target_type: usize,
        seeds: &[NodeId],
        fanouts: &[usize],
        rng: &mut Rng,
    ) -> HeteroMiniBatch {
        let n_types = graph.node_counts.len();
        let mut blocks_rev = Vec::with_capacity(fanouts.len());
        let mut dst: Vec<Vec<NodeId>> = vec![Vec::new(); n_types];
        dst[target_type] = seeds.to_vec();

        for &fanout in fanouts.iter().rev() {
            // Register destinations first so the per-type src prefix holds.
            for (t, mapper) in self.mappers.iter_mut().enumerate() {
                mapper.reset();
                for &d in &dst[t] {
                    mapper.get_or_insert(d);
                }
            }

            let rel_adj = graph
                .relations
                .iter()
                .map(|rel| {
                    sample_adjacency(
                        &rel.graph,
                        &dst[rel.dst_type],
                        fanout,
                        &mut self.mappers[rel.src_type],
                        &mut self.picks,
                        rng,
                    )
                })
                .collect();

            let src: Vec<Vec<NodeId>> = self.mappers.iter().map(|m| m.globals().to_vec()).collect();
            blocks_rev.push(HeteroBlock {
                dst,
                src: src.clone(),
                rel_adj,
            });
            dst = src;
        }
        blocks_rev.reverse();
        HeteroMiniBatch {
            blocks: blocks_rev,
            seeds: seeds.to_vec(),
            target_type,
        }
    }
}

/// A materialized heterogeneous dataset (MAG-like).
pub struct HeteroDataset {
    /// The typed graph, shared: sampler workers of an overlapped epoch hold
    /// it by refcount.
    pub graph: Arc<HeteroGraph>,
    /// Features per node type.
    pub features: Vec<Matrix>,
    /// Labels for the target type (papers).
    pub labels: Vec<u16>,
    /// Target node type index.
    pub target_type: usize,
    /// Number of classes.
    pub num_classes: usize,
    /// Training node IDs (target type).
    pub train_nodes: Vec<NodeId>,
    /// Test node IDs (target type).
    pub test_nodes: Vec<NodeId>,
}

/// Generate a MAG240M-like heterogeneous dataset:
/// paper—cites→paper, author—writes→paper (and reverse), author—affiliated→institution.
///
/// Papers carry community-correlated features and labels; authors inherit
/// the community of their papers; institutions aggregate authors.
pub fn mag_hetero(num_papers: usize, num_classes: usize, dim: usize, seed: u64) -> HeteroDataset {
    mag_hetero_with(
        num_papers,
        num_classes,
        dim,
        seed,
        crate::generate::default_helpers(),
    )
}

/// [`mag_hetero`] with set-up shared with `helpers` helper threads; the
/// dataset is the same at any count.
pub(crate) fn mag_hetero_with(
    num_papers: usize,
    num_classes: usize,
    dim: usize,
    seed: u64,
    helpers: usize,
) -> HeteroDataset {
    use crate::generate::{generate_with, planted_features, GraphConfig};
    let mut rng = Rng::new(seed);

    // Paper citation graph with planted communities.
    let cfg = GraphConfig {
        num_nodes: num_papers,
        avg_degree: 12.0,
        num_communities: num_classes,
        homophily: 0.8,
        power_law_exponent: 2.3,
    };
    let gen = generate_with(&cfg, &mut rng, helpers);
    let signal = planted_features(
        &gen.communities,
        num_classes,
        dim,
        1.0,
        0.05,
        &mut rng,
        helpers,
    );

    // Authors: ~half as many as papers; each author writes 1–5 papers,
    // biased toward one community.
    let num_authors = (num_papers / 2).max(8);
    let num_insts = (num_authors / 20).max(4);
    let mut writes: Vec<(NodeId, NodeId)> = Vec::new(); // author -> paper
    let mut author_comm = vec![0u16; num_authors];
    // Papers grouped by community for biased selection.
    let mut papers_by_comm: Vec<Vec<NodeId>> = vec![Vec::new(); num_classes];
    for (p, &c) in gen.communities.iter().enumerate() {
        papers_by_comm[c as usize].push(p as NodeId);
    }
    for a in 0..num_authors as NodeId {
        let home = rng.below(num_classes);
        author_comm[a as usize] = home as u16;
        let k = 1 + rng.below(5);
        for _ in 0..k {
            let paper = if rng.bernoulli(0.8) && !papers_by_comm[home].is_empty() {
                papers_by_comm[home][rng.below(papers_by_comm[home].len())]
            } else {
                rng.below(num_papers) as NodeId
            };
            writes.push((a, paper));
        }
    }
    // Institutions: each author affiliated with one.
    let affiliated: Vec<(NodeId, NodeId)> = (0..num_authors as NodeId)
        .map(|a| (a, rng.below(num_insts) as NodeId))
        .collect();

    let writes_rev: Vec<(NodeId, NodeId)> = writes.iter().map(|&(a, p)| (p, a)).collect();
    let affil_rev: Vec<(NodeId, NodeId)> = affiliated.iter().map(|&(a, i)| (i, a)).collect();

    let relations = vec![
        Relation {
            name: "cites",
            src_type: 0,
            dst_type: 0,
            graph: gen.graph,
        },
        Relation {
            name: "written-by", // paper <- author
            src_type: 1,
            dst_type: 0,
            graph: Csr::from_directed_edges(num_papers, &writes),
        },
        Relation {
            name: "writes", // author <- paper
            src_type: 0,
            dst_type: 1,
            graph: Csr::from_directed_edges(num_authors, &writes_rev),
        },
        Relation {
            name: "affiliated-with", // institution <- author... stored at author dst
            src_type: 2,
            dst_type: 1,
            graph: Csr::from_directed_edges(num_authors, &affil_rev),
        },
        Relation {
            name: "employs", // institution <- author
            src_type: 1,
            dst_type: 2,
            graph: Csr::from_directed_edges(num_insts, &affiliated),
        },
    ];

    // Author/institution features: weak community signal + noise.
    let author_sig = planted_features(&author_comm, num_classes, dim, 0.5, 0.0, &mut rng, helpers);
    let inst_feats = rng.normal_matrix(num_insts, dim, 1.0);

    // Train/test split over papers.
    let mut ids: Vec<NodeId> = (0..num_papers as NodeId).collect();
    rng.shuffle(&mut ids);
    let n_train = (num_papers / 10).max(1);
    let train_nodes = ids[..n_train].to_vec();
    let test_nodes = ids[n_train..].to_vec();

    HeteroDataset {
        graph: Arc::new(HeteroGraph {
            type_names: vec!["paper", "author", "institution"],
            node_counts: vec![num_papers, num_authors, num_insts],
            relations,
        }),
        features: vec![signal.features, author_sig.features, inst_feats],
        labels: signal.labels,
        target_type: 0,
        num_classes,
        train_nodes,
        test_nodes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> HeteroDataset {
        mag_hetero(300, 4, 8, 1)
    }

    #[test]
    fn mag_hetero_shapes_consistent() {
        let ds = tiny();
        assert_eq!(ds.graph.node_counts.len(), 3);
        assert_eq!(ds.features[0].rows(), 300);
        assert_eq!(ds.features[1].rows(), ds.graph.node_counts[1]);
        assert_eq!(ds.labels.len(), 300);
        assert_eq!(ds.graph.type_names[1], "author");
    }

    #[test]
    fn relations_have_valid_endpoints() {
        let ds = tiny();
        for rel in &ds.graph.relations {
            assert_eq!(rel.graph.num_nodes(), ds.graph.node_counts[rel.dst_type]);
            let max_src = ds.graph.node_counts[rel.src_type] as NodeId;
            for v in 0..rel.graph.num_nodes() as NodeId {
                for &u in rel.graph.neighbors(v) {
                    assert!(u < max_src, "{}: src {u} out of range", rel.name);
                }
            }
        }
    }

    #[test]
    fn hetero_sampling_produces_chained_typed_blocks() {
        let ds = tiny();
        let mut sampler = HeteroSampler::new(&ds.graph);
        let mut rng = Rng::new(2);
        let seeds: Vec<NodeId> = ds.train_nodes[..8].to_vec();
        let mb = sampler.sample(&ds.graph, 0, &seeds, &[4, 4], &mut rng);
        assert_eq!(mb.blocks.len(), 2);
        let top = &mb.blocks[1];
        assert_eq!(top.dst[0], seeds);
        // Per-type src prefix invariant.
        for b in &mb.blocks {
            for t in 0..3 {
                assert!(b.src[t].len() >= b.dst[t].len());
                assert_eq!(&b.src[t][..b.dst[t].len()], &b.dst[t][..]);
            }
            // Chaining is validated below.
        }
        // Block 1's src per type equals block 0's dst per type.
        for t in 0..3 {
            assert_eq!(mb.blocks[1].src[t], mb.blocks[0].dst[t]);
        }
        // Adjacency entries stay within the typed src ranges.
        for b in &mb.blocks {
            for (r, rel) in ds.graph.relations.iter().enumerate() {
                let n_src = b.src[rel.src_type].len() as NodeId;
                for row in 0..b.rel_adj[r].num_nodes() {
                    for &u in b.rel_adj[r].neighbors(row) {
                        assert!(u < n_src);
                    }
                }
            }
        }
    }

    #[test]
    fn hetero_sampling_deterministic() {
        let ds = tiny();
        let seeds: Vec<NodeId> = ds.train_nodes[..4].to_vec();
        let mut s1 = HeteroSampler::new(&ds.graph);
        let mut s2 = HeteroSampler::new(&ds.graph);
        let a = s1.sample(&ds.graph, 0, &seeds, &[3, 3], &mut Rng::new(5));
        let b = s2.sample(&ds.graph, 0, &seeds, &[3, 3], &mut Rng::new(5));
        for (x, y) in a.blocks.iter().zip(&b.blocks) {
            assert_eq!(x.src, y.src);
            assert_eq!(x.num_edges(), y.num_edges());
        }
    }

    #[test]
    fn author_paper_edges_are_homophilous() {
        let ds = tiny();
        // "written-by": paper <- author. An author's papers should mostly
        // share a community (0.8 bias in the generator). We can't see
        // author communities directly, so check the proxy: two papers by
        // the same author share a label far above the 1/4 base rate.
        let rel = &ds.graph.relations[2]; // "writes": author <- paper
        let mut same = 0usize;
        let mut total = 0usize;
        for a in 0..rel.graph.num_nodes() as NodeId {
            let papers = rel.graph.neighbors(a);
            for i in 0..papers.len() {
                for j in i + 1..papers.len() {
                    total += 1;
                    if ds.labels[papers[i] as usize] == ds.labels[papers[j] as usize] {
                        same += 1;
                    }
                }
            }
        }
        assert!(total > 20, "not enough co-authored pairs ({total})");
        let frac = same as f64 / total as f64;
        assert!(
            frac > 0.4,
            "same-label co-paper fraction {frac} (base 0.25)"
        );
    }
}
