//! Synthetic graph generation.
//!
//! The paper evaluates on power-law web-scale graphs (§2.3 cites the
//! power-law structure explicitly; the feature-cache argument depends on
//! it). We generate graphs from a **community-structured Chung–Lu model**:
//!
//! * per-node weights drawn from a Pareto distribution give a power-law
//!   degree distribution with a heavy tail of hubs;
//! * nodes belong to one of `num_communities` blocks; an edge endpoint is
//!   redrawn *within the source's community* with probability `homophily`,
//!   otherwise drawn globally — giving the label-correlated structure GNN
//!   accuracy experiments need (labels = communities, see
//!   `planted_features`).
//!
//! Node weights are shuffled relative to communities so hubs appear in every
//! community, as in real citation/social graphs.

use crate::{Csr, NodeId};
use fgnn_tensor::{Matrix, Rng};

/// Parameters of the synthetic generator.
#[derive(Clone, Debug)]
pub struct GraphConfig {
    /// Number of nodes.
    pub num_nodes: usize,
    /// Target average (undirected) degree.
    pub avg_degree: f64,
    /// Number of planted communities (= label classes).
    pub num_communities: usize,
    /// Probability an edge stays within the source community.
    pub homophily: f64,
    /// Pareto shape for the weight distribution; smaller = heavier tail.
    /// Real-world graphs sit around 2.0–3.0.
    pub power_law_exponent: f64,
}

impl Default for GraphConfig {
    fn default() -> Self {
        GraphConfig {
            num_nodes: 1000,
            avg_degree: 10.0,
            num_communities: 8,
            homophily: 0.8,
            power_law_exponent: 2.5,
        }
    }
}

/// A generated graph plus its planted community assignment.
pub struct GeneratedGraph {
    /// Symmetric adjacency.
    pub graph: Csr,
    /// Planted community of every node (also the classification label
    /// before label noise).
    pub communities: Vec<u16>,
}

/// Cumulative-weight sampler over a set of members.
struct WeightedPicker {
    members: Vec<NodeId>,
    cumulative: Vec<f64>,
}

impl WeightedPicker {
    fn new(members: Vec<NodeId>, weights: &[f64]) -> Self {
        let mut cumulative = Vec::with_capacity(members.len());
        let mut acc = 0.0;
        for &m in &members {
            acc += weights[m as usize];
            cumulative.push(acc);
        }
        WeightedPicker {
            members,
            cumulative,
        }
    }

    fn total(&self) -> f64 {
        *self.cumulative.last().unwrap_or(&0.0)
    }

    fn pick(&self, rng: &mut Rng) -> NodeId {
        let x = rng.uniform() as f64 * self.total();
        let idx = self.cumulative.partition_point(|&c| c < x);
        self.members[idx.min(self.members.len() - 1)]
    }
}

/// Generate a community-structured power-law graph.
pub fn generate(config: &GraphConfig, rng: &mut Rng) -> GeneratedGraph {
    let n = config.num_nodes;
    assert!(n >= 2, "need at least two nodes");
    assert!(config.num_communities >= 1);

    // Pareto weights, truncated so no node exceeds ~sqrt(n*avg_deg) expected
    // degree (standard Chung–Lu feasibility trick).
    let shape = config.power_law_exponent - 1.0;
    let cap = ((n as f64) * config.avg_degree).sqrt().max(2.0);
    let weights: Vec<f64> = (0..n)
        .map(|_| {
            let u = (1.0 - rng.uniform() as f64).max(1e-12);
            u.powf(-1.0 / shape).min(cap)
        })
        .collect();

    // Communities round-robin (balanced) then shuffled.
    let mut communities: Vec<u16> = (0..n)
        .map(|i| (i % config.num_communities) as u16)
        .collect();
    rng.shuffle(&mut communities);

    // Pickers: one global, one per community.
    let global = WeightedPicker::new((0..n as NodeId).collect(), &weights);
    let mut members: Vec<Vec<NodeId>> = vec![Vec::new(); config.num_communities];
    for (i, &c) in communities.iter().enumerate() {
        members[c as usize].push(i as NodeId);
    }
    let per_community: Vec<WeightedPicker> = members
        .into_iter()
        .map(|m| WeightedPicker::new(m, &weights))
        .collect();

    let target_edges = ((n as f64) * config.avg_degree / 2.0) as usize;
    let mut edges: Vec<(NodeId, NodeId)> = Vec::with_capacity(target_edges);
    let mut attempts = 0usize;
    let max_attempts = target_edges * 4 + 64;
    while edges.len() < target_edges && attempts < max_attempts {
        attempts += 1;
        let u = global.pick(rng);
        let v = if (rng.uniform() as f64) < config.homophily {
            per_community[communities[u as usize] as usize].pick(rng)
        } else {
            global.pick(rng)
        };
        if u != v {
            edges.push((u.min(v), u.max(v)));
        }
    }
    // Deduplicate parallel edges.
    edges.sort_unstable();
    edges.dedup();

    GeneratedGraph {
        graph: Csr::from_undirected_edges(n, &edges),
        communities,
    }
}

/// Planted node features and labels for a generated graph.
pub struct PlantedSignal {
    /// `n x dim` feature matrix: community centroid + isotropic noise.
    pub features: Matrix,
    /// Labels: the community, with `label_noise` fraction flipped uniformly.
    pub labels: Vec<u16>,
}

/// Build features/labels correlated with the planted communities.
///
/// `signal_to_noise` controls task difficulty: features are
/// `centroid[community] * s + N(0,1)` where `s = signal_to_noise`. With
/// moderate `s` the raw features are weakly informative and message passing
/// over homophilous edges genuinely helps — the regime where
/// historical-embedding error shows up as accuracy loss (Fig 2 / Table 3).
pub(crate) fn planted_features(
    communities: &[u16],
    num_communities: usize,
    dim: usize,
    signal_to_noise: f32,
    label_noise: f32,
    rng: &mut Rng,
) -> PlantedSignal {
    let centroids = rng.normal_matrix(num_communities, dim, 1.0);
    let n = communities.len();
    let mut features = Matrix::zeros(n, dim);
    for (i, &c) in communities.iter().enumerate() {
        let row = features.row_mut(i);
        let centroid = centroids.row(c as usize);
        for (x, &m) in row.iter_mut().zip(centroid) {
            *x = m * signal_to_noise + rng.normal();
        }
    }
    let labels = communities
        .iter()
        .map(|&c| {
            if rng.bernoulli(label_noise) {
                rng.below(num_communities) as u16
            } else {
                c
            }
        })
        .collect();
    PlantedSignal { features, labels }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::degree::{average_degree, nodes_by_degree};

    fn small_config() -> GraphConfig {
        GraphConfig {
            num_nodes: 2000,
            avg_degree: 12.0,
            num_communities: 4,
            homophily: 0.9,
            ..Default::default()
        }
    }

    #[test]
    fn generated_graph_hits_target_density_approximately() {
        let mut rng = Rng::new(7);
        let g = generate(&small_config(), &mut rng);
        let avg = average_degree(&g.graph);
        assert!(avg > 6.0 && avg < 14.0, "average degree {avg}");
    }

    #[test]
    fn degree_distribution_has_heavy_tail() {
        let mut rng = Rng::new(8);
        let g = generate(&small_config(), &mut rng);
        let max = g.graph.degree(nodes_by_degree(&g.graph)[0]);
        // Power law: some nodes land several log2 buckets above the mean.
        assert!(max >= 16, "max degree {max}");
    }

    #[test]
    fn homophily_concentrates_edges_within_communities() {
        let mut rng = Rng::new(9);
        let g = generate(&small_config(), &mut rng);
        let mut within = 0usize;
        let mut total = 0usize;
        for v in 0..g.graph.num_nodes() as NodeId {
            for &u in g.graph.neighbors(v) {
                total += 1;
                if g.communities[u as usize] == g.communities[v as usize] {
                    within += 1;
                }
            }
        }
        let frac = within as f64 / total as f64;
        // homophily 0.9 over 4 communities: well above the 0.25 base rate.
        assert!(frac > 0.6, "within-community fraction {frac}");
    }

    #[test]
    fn communities_are_balanced() {
        let mut rng = Rng::new(10);
        let g = generate(&small_config(), &mut rng);
        let mut counts = vec![0usize; 4];
        for &c in &g.communities {
            counts[c as usize] += 1;
        }
        for &c in &counts {
            assert!((c as isize - 500).unsigned_abs() < 50, "counts {counts:?}");
        }
    }

    #[test]
    fn planted_features_separate_communities() {
        let mut rng = Rng::new(11);
        let g = generate(&small_config(), &mut rng);
        let sig = planted_features(&g.communities, 4, 16, 2.0, 0.0, &mut rng);
        assert_eq!(sig.features.shape(), (2000, 16));
        assert_eq!(sig.labels, g.communities);
        // Same-community features are closer than cross-community on average.
        let d = |a: usize, b: usize| -> f32 {
            sig.features
                .row(a)
                .iter()
                .zip(sig.features.row(b))
                .map(|(&x, &y)| (x - y) * (x - y))
                .sum()
        };
        let mut same = 0.0;
        let mut diff = 0.0;
        let mut ns = 0;
        let mut nd = 0;
        for i in 0..200 {
            for j in i + 1..200 {
                if g.communities[i] == g.communities[j] {
                    same += d(i, j);
                    ns += 1;
                } else {
                    diff += d(i, j);
                    nd += 1;
                }
            }
        }
        assert!(same / (ns as f32) < diff / (nd as f32));
    }

    #[test]
    fn label_noise_flips_some_labels() {
        let mut rng = Rng::new(12);
        let g = generate(&small_config(), &mut rng);
        let sig = planted_features(&g.communities, 4, 4, 1.0, 0.3, &mut rng);
        let flipped = sig
            .labels
            .iter()
            .zip(&g.communities)
            .filter(|(a, b)| a != b)
            .count();
        let frac = flipped as f64 / 2000.0;
        // 30% noise, but 1/4 of flips land on the original label.
        assert!(frac > 0.15 && frac < 0.30, "flip fraction {frac}");
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = small_config();
        let a = generate(&cfg, &mut Rng::new(42));
        let b = generate(&cfg, &mut Rng::new(42));
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.communities, b.communities);
    }
}
