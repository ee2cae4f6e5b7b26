//! Streaming graph partitioning for the ClusterGCN baseline.
//!
//! ClusterGCN (Chiang et al., KDD'19) partitions the graph with METIS and
//! trains on (merged) partition-induced subgraphs. We implement **Linear
//! Deterministic Greedy (LDG)** streaming partitioning — each node goes to
//! the partition holding most of its neighbors, damped by a capacity
//! penalty. LDG produces edge-locality comparable to what ClusterGCN needs
//! while staying dependency-free; the baseline's accuracy behaviour (losing
//! cross-cluster edges hurts on large sparse-label graphs, Table 3) is
//! preserved.

use crate::{Csr, NodeId};
use fgnn_tensor::Rng;

/// A partitioning of the node set into `k` parts.
#[derive(Clone, Debug)]
pub struct Partitioning {
    /// Partition ID per node.
    pub assignment: Vec<u32>,
    /// Number of partitions.
    pub num_parts: usize,
}

impl Partitioning {
    /// Node lists per partition.
    pub fn clusters(&self) -> Vec<Vec<NodeId>> {
        let mut out = vec![Vec::new(); self.num_parts];
        for (v, &p) in self.assignment.iter().enumerate() {
            out[p as usize].push(v as NodeId);
        }
        out
    }
}

/// LDG streaming partitioning into `k` balanced parts.
///
/// Nodes are streamed in a random order; each is placed in
/// `argmax_p |N(v) ∩ p| * (1 - |p| / capacity)`.
///
/// Edge-case guarantees (the cluster sharder depends on them):
/// * `k` may exceed the node count — surplus partitions come back empty;
/// * empty graphs (`n == 0`), edgeless graphs and singleton clusters
///   (`k == n`) never panic;
/// * **every node is assigned exactly once** — total capacity
///   `k * (ceil(n/k) + 1) > n` means the argmax always has an open
///   partition to pick, which the post-loop assertion re-checks.
pub fn partition_ldg(graph: &Csr, k: usize, rng: &mut Rng) -> Partitioning {
    assert!(k >= 1, "need at least one partition");
    let n = graph.num_nodes();
    let capacity = n.div_ceil(k) + 1;
    let mut assignment = vec![u32::MAX; n];
    let mut sizes = vec![0usize; k];

    let mut order: Vec<NodeId> = (0..n as NodeId).collect();
    rng.shuffle(&mut order);

    let mut neighbor_count = vec![0usize; k];
    for &v in &order {
        neighbor_count.iter_mut().for_each(|c| *c = 0);
        for &u in graph.neighbors(v) {
            let p = assignment[u as usize];
            if p != u32::MAX {
                neighbor_count[p as usize] += 1;
            }
        }
        let mut best = None;
        let mut best_score = f64::NEG_INFINITY;
        for p in 0..k {
            if sizes[p] >= capacity {
                continue;
            }
            let balance = 1.0 - sizes[p] as f64 / capacity as f64;
            // +balance epsilon-term breaks ties toward emptier partitions.
            let score = neighbor_count[p] as f64 * balance + 1e-3 * balance;
            if best.is_none() || score > best_score {
                best_score = score;
                best = Some(p);
            }
        }
        // Unreachable by the capacity argument above; a hard error beats
        // silently overfilling partition 0 if the invariant ever breaks.
        let best = best.expect("LDG invariant broken: every partition at capacity");
        assignment[v as usize] = best as u32;
        sizes[best] += 1;
    }

    debug_assert!(
        assignment.iter().all(|&p| (p as usize) < k),
        "LDG left a node unassigned"
    );
    Partitioning {
        assignment,
        num_parts: k,
    }
}

/// Extract the subgraph induced by `nodes` with locally relabeled IDs.
///
/// Returns the relabeled CSR plus the local→global map (`nodes` itself,
/// copied). Edges to nodes outside the set are dropped — exactly
/// ClusterGCN's approximation.
pub fn induced_subgraph(graph: &Csr, nodes: &[NodeId]) -> (Csr, Vec<NodeId>) {
    let mut local_of = std::collections::HashMap::with_capacity(nodes.len() * 2);
    for (l, &g) in nodes.iter().enumerate() {
        local_of.insert(g, l as NodeId);
    }
    let mut edges = Vec::new();
    for (l, &g) in nodes.iter().enumerate() {
        for &u in graph.neighbors(g) {
            if let Some(&lu) = local_of.get(&u) {
                edges.push((lu, l as NodeId));
            }
        }
    }
    (
        Csr::from_directed_edges(nodes.len(), &edges),
        nodes.to_vec(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{generate, GraphConfig};

    /// Fraction of (directed) edges whose endpoints share a partition.
    fn edge_locality(p: &Partitioning, graph: &Csr) -> f64 {
        let mut within = 0usize;
        let mut total = 0usize;
        for v in 0..graph.num_nodes() as NodeId {
            for &u in graph.neighbors(v) {
                total += 1;
                if p.assignment[u as usize] == p.assignment[v as usize] {
                    within += 1;
                }
            }
        }
        if total == 0 {
            1.0
        } else {
            within as f64 / total as f64
        }
    }

    fn two_cliques() -> Csr {
        // Nodes 0-3 form a clique, 4-7 form a clique, one bridge edge.
        let mut edges = Vec::new();
        for block in [0u32, 4] {
            for i in 0..4 {
                for j in i + 1..4 {
                    edges.push((block + i, block + j));
                }
            }
        }
        edges.push((3, 4));
        Csr::from_undirected_edges(8, &edges)
    }

    #[test]
    fn ldg_separates_cliques() {
        let g = two_cliques();
        let mut rng = Rng::new(1);
        let p = partition_ldg(&g, 2, &mut rng);
        assert!(
            edge_locality(&p, &g) > 0.9,
            "locality {}",
            edge_locality(&p, &g)
        );
        // Balanced: 4 + 4.
        let sizes: Vec<usize> = p.clusters().iter().map(Vec::len).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 8);
        assert!(sizes.iter().all(|&s| s == 4), "sizes {sizes:?}");
    }

    #[test]
    fn ldg_respects_capacity() {
        let mut rng = Rng::new(2);
        let cfg = GraphConfig {
            num_nodes: 500,
            avg_degree: 8.0,
            num_communities: 4,
            homophily: 0.9,
            ..Default::default()
        };
        let g = generate(&cfg, &mut rng).graph;
        let p = partition_ldg(&g, 7, &mut rng);
        let cap = 500 / 7 + 2;
        for c in p.clusters() {
            assert!(c.len() <= cap, "cluster size {} over capacity", c.len());
        }
    }

    #[test]
    fn ldg_beats_random_locality_on_community_graph() {
        let mut rng = Rng::new(3);
        let cfg = GraphConfig {
            num_nodes: 1000,
            avg_degree: 10.0,
            num_communities: 8,
            homophily: 0.9,
            ..Default::default()
        };
        let g = generate(&cfg, &mut rng).graph;
        let p = partition_ldg(&g, 8, &mut rng);
        // Random assignment into 8 parts has locality ~1/8.
        assert!(
            edge_locality(&p, &g) > 0.3,
            "locality {}",
            edge_locality(&p, &g)
        );
    }

    /// Every node assigned to exactly one in-range partition, and cluster
    /// sizes sum back to `n`.
    fn assert_total_assignment(p: &Partitioning, n: usize, k: usize) {
        assert_eq!(p.assignment.len(), n);
        assert!(p.assignment.iter().all(|&q| (q as usize) < k));
        let total: usize = p.clusters().iter().map(Vec::len).sum();
        assert_eq!(total, n, "nodes lost or duplicated across clusters");
    }

    #[test]
    fn ldg_k_larger_than_node_count() {
        let g = two_cliques(); // 8 nodes
        let mut rng = Rng::new(11);
        let p = partition_ldg(&g, 20, &mut rng);
        assert_total_assignment(&p, 8, 20);
        // Surplus partitions are empty, none over capacity (ceil(8/20)+1 = 2).
        assert!(p.clusters().iter().all(|c| c.len() <= 2));
    }

    #[test]
    fn ldg_singleton_clusters() {
        let g = two_cliques();
        let mut rng = Rng::new(12);
        let p = partition_ldg(&g, 8, &mut rng);
        assert_total_assignment(&p, 8, 8);
    }

    #[test]
    fn ldg_empty_graph() {
        let g = Csr::from_directed_edges(0, &[]);
        let mut rng = Rng::new(13);
        let p = partition_ldg(&g, 4, &mut rng);
        assert_total_assignment(&p, 0, 4);
        assert!(p.clusters().iter().all(Vec::is_empty));
        assert_eq!(edge_locality(&p, &g), 1.0);
    }

    #[test]
    fn ldg_edgeless_graph_stays_balanced() {
        // Empty-frontier stream: no neighbor signal, only the balance term.
        let g = Csr::from_directed_edges(12, &[]);
        let mut rng = Rng::new(14);
        let p = partition_ldg(&g, 3, &mut rng);
        assert_total_assignment(&p, 12, 3);
        let sizes: Vec<usize> = p.clusters().iter().map(Vec::len).collect();
        assert!(sizes.iter().all(|&s| s == 4), "sizes {sizes:?}");
    }

    #[test]
    fn ldg_single_node_single_partition() {
        let g = Csr::from_directed_edges(1, &[]);
        let mut rng = Rng::new(15);
        let p = partition_ldg(&g, 1, &mut rng);
        assert_total_assignment(&p, 1, 1);
        let p = partition_ldg(&g, 5, &mut rng);
        assert_total_assignment(&p, 1, 5);
    }

    #[test]
    fn induced_subgraph_empty_node_set() {
        let g = two_cliques();
        let (sub, map) = induced_subgraph(&g, &[]);
        assert_eq!(sub.num_nodes(), 0);
        assert!(map.is_empty());
    }

    #[test]
    fn induced_subgraph_drops_external_edges() {
        let g = two_cliques();
        let (sub, map) = induced_subgraph(&g, &[0, 1, 2, 3]);
        assert_eq!(sub.num_nodes(), 4);
        // Full clique: each node has 3 in-neighbors; bridge edge dropped.
        for v in 0..4u32 {
            assert_eq!(sub.degree(v), 3);
        }
        assert_eq!(map, vec![0, 1, 2, 3]);
    }

    #[test]
    fn induced_subgraph_relabeling_preserves_adjacency() {
        let g = two_cliques();
        let (sub, map) = induced_subgraph(&g, &[4, 5, 6, 7]);
        for v in 0..4u32 {
            for &u in sub.neighbors(v) {
                // Every relabeled edge corresponds to a global edge.
                let gu = map[u as usize];
                let gv = map[v as usize];
                assert!(g.neighbors(gv).contains(&gu));
            }
        }
    }
}
