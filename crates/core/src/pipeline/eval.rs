//! The shared evaluation harness.
//!
//! Table 3 reports every method's accuracy under the *same* protocol: a
//! plain neighbor-sampling inference pass with no cache reads. Each
//! trainer used to carry its own copy of that loop; this is the single
//! implementation they all delegate to. The sampler is constructed fresh
//! per call — `NeighborSampler`'s generation-based node mapper makes its
//! output independent of prior use, so a fresh sampler produces the same
//! batches a trainer's long-lived one would.

use fgnn_graph::hetero::{HeteroDataset, HeteroSampler};
use fgnn_graph::sample::NeighborSampler;
use fgnn_graph::{Dataset, NodeId};
use fgnn_nn::metrics::accuracy;
use fgnn_nn::model::Model;
use fgnn_nn::rsage::RSageModel;
use fgnn_tensor::{Matrix, Rng};

/// Shared accuracy protocol for every trainer (Table 3, §7.6).
pub struct EvalHarness;

impl EvalHarness {
    /// Accuracy of `model` on `nodes`: plain neighbor sampling with
    /// `fanouts`, exact (uncached) feature loads, batches of `batch_size`.
    pub fn accuracy(
        model: &Model,
        ds: &Dataset,
        nodes: &[NodeId],
        fanouts: &[usize],
        batch_size: usize,
        rng: &mut Rng,
    ) -> f64 {
        let mut sampler = NeighborSampler::new(ds.num_nodes());
        let mut correct_weighted = 0.0f64;
        let mut total = 0usize;
        for chunk in nodes.chunks(batch_size.max(1)) {
            let mb = sampler.sample(&ds.graph, chunk, fanouts, rng);
            let ids: Vec<usize> = mb.input_nodes().iter().map(|&g| g as usize).collect();
            let h0 = ds.features.gather_rows(&ids);
            let trace = model.forward(&mb, h0);
            let labels: Vec<u16> = chunk.iter().map(|&s| ds.labels[s as usize]).collect();
            correct_weighted += accuracy(trace.h.last().unwrap(), &labels) * chunk.len() as f64;
            total += chunk.len();
        }
        if total == 0 {
            0.0
        } else {
            correct_weighted / total as f64
        }
    }

    /// Heterogeneous analogue: accuracy of an R-GraphSAGE model on
    /// target-type `nodes` with plain typed sampling.
    pub(crate) fn accuracy_hetero(
        model: &RSageModel,
        ds: &HeteroDataset,
        nodes: &[NodeId],
        fanouts: &[usize],
        batch_size: usize,
        rng: &mut Rng,
    ) -> f64 {
        let mut sampler = HeteroSampler::new(&ds.graph);
        let mut weighted = 0.0f64;
        let mut total = 0usize;
        for chunk in nodes.chunks(batch_size.max(1)) {
            let mb = sampler.sample(&ds.graph, ds.target_type, chunk, fanouts, rng);
            let h0: Vec<Matrix> = (0..ds.graph.node_counts.len())
                .map(|t| {
                    let ids: Vec<usize> = mb.blocks[0].src[t].iter().map(|&g| g as usize).collect();
                    ds.features[t].gather_rows(&ids)
                })
                .collect();
            let trace = model.forward(&mb, h0);
            let labels: Vec<u16> = chunk.iter().map(|&s| ds.labels[s as usize]).collect();
            weighted += accuracy(model.logits(&trace), &labels) * chunk.len() as f64;
            total += chunk.len();
        }
        if total == 0 {
            0.0
        } else {
            weighted / total as f64
        }
    }
}
