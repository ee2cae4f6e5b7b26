//! Measurement probes behind the paper's analysis figures.
//!
//! * `estimation_error` — Fig 1: mean L2 distance between embeddings
//!   computed *with* historical overrides and the authentic embeddings of
//!   the same mini-batch computed exactly;
//! * [`EmbeddingStabilityProbe`] — Fig 3: distribution of cosine
//!   similarity between a probe set's embeddings at iteration `t` and
//!   `t − s`.

use crate::cache::HistoricalCache;
use fgnn_graph::block::MiniBatch;
use fgnn_graph::NodeId;
use fgnn_nn::model::Model;
use fgnn_tensor::{stats, Matrix};
use std::collections::VecDeque;

/// Fig 1 probe: run the same (un-pruned) mini-batch twice — once
/// overriding every cache-resident destination with its cached embedding,
/// once exactly — and return the mean L2 row distance of the outputs.
///
/// `levels_cached` receives, per level `l` (1-based), the local dst rows
/// that the cache would serve (as produced by the pruner on a *clone* of
/// the batch; the batch passed here must be un-pruned so the exact pass
/// sees full aggregation).
pub(crate) fn estimation_error(
    model: &Model,
    mb: &MiniBatch,
    h0: &Matrix,
    cache: &HistoricalCache,
    levels_cached: &[Vec<(u32, u32)>],
) -> f32 {
    let exact = model.forward(mb, h0.clone());
    let approx = model.forward_with(mb, h0.clone(), None, |level, h| {
        let b = level - 1;
        if b < levels_cached.len() {
            for &(local, slot) in &levels_cached[b] {
                cache.fetch_into(level, slot, h.row_mut(local as usize));
            }
        }
    });
    stats::mean_row_l2_distance(approx.h.last().unwrap(), exact.h.last().unwrap())
}

/// Fig 3 probe: tracks embeddings of a fixed probe node set over
/// iterations and reports cosine similarity at lag `s`.
pub struct EmbeddingStabilityProbe {
    /// The probed nodes (global IDs).
    pub nodes: Vec<NodeId>,
    lag: usize,
    history: VecDeque<Matrix>,
}

impl EmbeddingStabilityProbe {
    /// Probe `nodes` with lag `s` (the paper uses `s = 20`).
    pub fn new(nodes: Vec<NodeId>, lag: usize) -> Self {
        assert!(lag >= 1);
        EmbeddingStabilityProbe {
            nodes,
            lag,
            history: VecDeque::new(),
        }
    }

    /// Record this iteration's embeddings of the probe nodes (one row per
    /// probe node). Returns the per-node cosine similarities against the
    /// snapshot `lag` iterations ago once enough history exists.
    pub fn record(&mut self, snapshot: Matrix) -> Option<Vec<f32>> {
        assert_eq!(snapshot.rows(), self.nodes.len());
        self.history.push_back(snapshot);
        if self.history.len() > self.lag {
            let old = self.history.pop_front().unwrap();
            let new = self.history.back().unwrap();
            Some(stats::row_cosine_similarities(new, &old))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{GradientPolicy, PolicyInput, Verdict};
    use fgnn_graph::sample::NeighborSampler;
    use fgnn_graph::Csr;
    use fgnn_nn::model::Arch;
    use fgnn_tensor::Rng;

    #[test]
    fn estimation_error_zero_without_overrides() {
        let mut rng = Rng::new(1);
        let g = Csr::from_undirected_edges(8, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let mut s = NeighborSampler::new(8);
        let mb = s.sample(&g, &[2], &[4, 4], &mut rng);
        let model = Model::new(Arch::Gcn, &[4, 4, 3], &mut rng);
        let h0 = rng.normal_matrix(mb.input_nodes().len(), 4, 1.0);
        let cache = HistoricalCache::new(8, &[4, 3], 100, 8, true);
        let err = estimation_error(&model, &mb, &h0, &cache, &[vec![], vec![]]);
        assert_eq!(err, 0.0);
    }

    #[test]
    fn estimation_error_positive_with_wrong_cached_value() {
        let mut rng = Rng::new(2);
        let g = Csr::from_undirected_edges(8, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let mut s = NeighborSampler::new(8);
        let mb = s.sample(&g, &[2], &[4, 4], &mut rng);
        let model = Model::new(Arch::Gcn, &[4, 4, 3], &mut rng);
        let h0 = rng.normal_matrix(mb.input_nodes().len(), 4, 1.0);
        let mut cache = HistoricalCache::new(8, &[4, 3], 100, 8, true);
        // Admit a deliberately wrong embedding for the first level-1 dst.
        let node = mb.blocks[0].dst_global[0];
        let bogus = Matrix::full(1, 4, 7.0);
        cache.apply_verdicts(
            1,
            &[(
                PolicyInput {
                    node,
                    local: 0,
                    grad_norm: 0.0,
                    was_cached: false,
                },
                Verdict::Admit,
            )],
            &bogus,
            0,
        );
        let slot = cache.lookup_with(1, node, 0, &GradientPolicy).unwrap();
        let err = estimation_error(&model, &mb, &h0, &cache, &[vec![(0, slot)], vec![]]);
        assert!(err > 0.0, "override must perturb the output");
    }

    #[test]
    fn stability_probe_emits_after_lag() {
        let mut p = EmbeddingStabilityProbe::new(vec![1, 2], 3);
        for i in 0..3 {
            assert!(p.record(Matrix::full(2, 4, i as f32 + 1.0)).is_none());
        }
        let sims = p.record(Matrix::full(2, 4, 4.0)).expect("lag reached");
        // Constant-positive rows are perfectly aligned.
        assert!(sims.iter().all(|&s| (s - 1.0).abs() < 1e-6));
        assert_eq!(p.history.len(), 3);
    }

    #[test]
    fn stability_probe_detects_direction_change() {
        let mut p = EmbeddingStabilityProbe::new(vec![0], 1);
        p.record(Matrix::from_vec(1, 2, vec![1.0, 0.0]));
        let sims = p.record(Matrix::from_vec(1, 2, vec![0.0, 1.0])).unwrap();
        assert!(sims[0].abs() < 1e-6, "orthogonal embeddings");
    }
}
