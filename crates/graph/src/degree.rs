//! Degree utilities: the average degree and the degree-ordered node ranking used
//! by the raw-feature cache (GNNLab-style and FreshGNN's empty-slot
//! backfill, §4.2).

use crate::{Csr, NodeId};

/// Node IDs sorted by descending degree (ties broken by ID for
/// determinism). `nodes_by_degree(g)[0]` is the hottest node.
pub fn nodes_by_degree(graph: &Csr) -> Vec<NodeId> {
    let mut order: Vec<NodeId> = (0..graph.num_nodes() as NodeId).collect();
    order.sort_unstable_by_key(|&v| (std::cmp::Reverse(graph.degree(v)), v));
    order
}

/// Average degree.
pub fn average_degree(graph: &Csr) -> f64 {
    if graph.num_nodes() == 0 {
        0.0
    } else {
        graph.num_edges() as f64 / graph.num_nodes() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn star() -> Csr {
        Csr::from_undirected_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)])
    }

    #[test]
    fn hub_ranks_first() {
        let order = nodes_by_degree(&star());
        assert_eq!(order[0], 0);
        // Ties broken by node ID.
        assert_eq!(&order[1..], &[1, 2, 3, 4]);
    }

    #[test]
    fn average_degree_of_star() {
        assert!((average_degree(&star()) - 8.0 / 5.0).abs() < 1e-9);
    }
}
