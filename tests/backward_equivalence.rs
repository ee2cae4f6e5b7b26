//! The training path does less work than the textbook backward pass — no
//! gradient w.r.t. the input features, dense transforms over computed rows
//! only — and must not change a bit of anything a step consumes.
//!
//! For every architecture (GCN, GraphSAGE, GAT, R-SAGE):
//!
//! * the parameter gradients of the training-path backward equal, `to_bits`
//!   for `to_bits`, those of the full backward that goes on to `h[0]`;
//! * with the mask a real pruner call produces on a warmed cache, the forward
//!   outputs on computed rows, the per-level gradients the detach hook sees
//!   on in-batch rows, and every parameter gradient equal the unmasked run's.

mod common;

use common::for_cases;
use freshgnn_repro::core::cache::{GradientPolicy, HistoricalCache, PolicyInput, Verdict};
use freshgnn_repro::core::hetero_trainer::prune_hetero_with;
use freshgnn_repro::core::prune::prune_with_cache_policy;
use freshgnn_repro::graph::block::MiniBatch;
use freshgnn_repro::graph::generate::{generate, GraphConfig};
use freshgnn_repro::graph::hetero::{mag_hetero, HeteroMiniBatch, HeteroSampler};
use freshgnn_repro::graph::sample::NeighborSampler;
use freshgnn_repro::nn::loss::softmax_cross_entropy;
use freshgnn_repro::nn::model::{Arch, Model};
use freshgnn_repro::nn::rsage::RSageModel;
use freshgnn_repro::nn::Param;
use freshgnn_repro::tensor::{Matrix, Rng};

const DIMS: [usize; 4] = [8, 12, 10, 5];
const NUM_NODES: usize = 300;

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn grad_bits(params: Vec<&mut Param>) -> Vec<Vec<u32>> {
    params.iter().map(|p| bits(p.grad.as_slice())).collect()
}

/// Warm `cache` the way training does: admit an embedding for a random 40 %
/// of the interior destinations (`dst_of(level)`) at every cached level.
fn warm_cache<'a>(cache: &mut HistoricalCache, dst_of: impl Fn(usize) -> &'a [u32], rng: &mut Rng) {
    // Levels 1..L-1: the top level (seeds) is never cache-read.
    for (below_top, &dim) in DIMS[1..DIMS.len() - 1].iter().enumerate() {
        let level = below_top + 1;
        for &node in dst_of(level) {
            if rng.bernoulli(0.4) {
                let input = PolicyInput {
                    node,
                    local: 0,
                    grad_norm: 0.0,
                    was_cached: false,
                };
                let row = rng.normal_matrix(1, dim, 1.0);
                cache.apply_verdicts(level, &[(input, Verdict::Admit)], &row, 0);
            }
        }
    }
}

fn new_cache(num_nodes: usize) -> HistoricalCache {
    HistoricalCache::new(num_nodes, &DIMS[1..], 100, 32, false, true)
}

fn homo_batch(rng: &mut Rng) -> (MiniBatch, Matrix, Vec<u16>) {
    let g = generate(
        &GraphConfig {
            num_nodes: NUM_NODES,
            avg_degree: 8.0,
            num_communities: 4,
            homophily: 0.8,
            ..Default::default()
        },
        rng,
    )
    .graph;
    let mut seeds: Vec<u32> = (0..16).map(|_| rng.below(NUM_NODES) as u32).collect();
    seeds.sort_unstable();
    seeds.dedup();
    let mb = NeighborSampler::new(NUM_NODES).sample(&g, &seeds, &[4, 4, 4], rng);
    let ids: Vec<usize> = mb.input_nodes().iter().map(|&g| g as usize).collect();
    let h0 = rng.normal_matrix(NUM_NODES, DIMS[0], 1.0).gather_rows(&ids);
    let labels = seeds.iter().map(|&s| (s % 5) as u16).collect();
    (mb, h0, labels)
}

#[test]
fn training_backward_matches_full_backward_on_parameters() {
    for_cases("training_backward_matches_full_backward", |rng| {
        let (mb, h0, labels) = homo_batch(rng);
        for arch in [Arch::Gcn, Arch::Sage, Arch::Gat] {
            let mut model = Model::new(arch, &DIMS, rng);
            let trace = model.forward(&mb, h0.clone());
            let (_, d_top) = softmax_cross_entropy(trace.h.last().unwrap(), &labels);

            model.zero_grad();
            model.backward(&mb, &trace, d_top.clone());
            let training = grad_bits(model.params_mut());

            model.zero_grad();
            let d_input = model.backward_input_grad(&mb, &trace, d_top);
            assert_eq!(d_input.shape(), h0.shape(), "{arch}");
            assert_eq!(training, grad_bits(model.params_mut()), "{arch}");
        }
    });
}

/// What one masked-or-not training step exposes to its consumers.
#[derive(PartialEq, Debug)]
struct StepBits {
    /// `(level, node type, row, bits)` of `h[level]` on computed rows (type 0
    /// on a homogeneous graph).
    forward: Vec<(usize, usize, usize, Vec<u32>)>,
    /// `(level, row, bits)` of the gradient the hook sees on in-batch rows.
    hook_grads: Vec<(usize, usize, Vec<u32>)>,
    params: Vec<Vec<u32>>,
}

#[test]
fn computed_row_mask_changes_nothing_a_step_consumes() {
    for_cases("computed_row_mask_changes_nothing", |rng| {
        let (mut mb, h0, labels) = homo_batch(rng);
        let mut cache = new_cache(NUM_NODES);
        warm_cache(&mut cache, |level| &mb.blocks[level - 1].dst_global, rng);
        let outcome = prune_with_cache_policy(&mut mb, &mut cache, 1, &GradientPolicy);
        assert!(
            outcome.computed.iter().flatten().any(|&c| !c),
            "nothing pruned"
        );
        let in_batch = |b: usize, v: usize| {
            outcome.computed[b][v] || outcome.cached[b].iter().any(|&(l, _)| l as usize == v)
        };

        for arch in [Arch::Gcn, Arch::Sage, Arch::Gat] {
            let mut model = Model::new(arch, &DIMS, rng);
            let mut step = |computed: Option<&[Vec<bool>]>| {
                let trace = model.forward_with(&mb, h0.clone(), computed, |level, h| {
                    for &(local, slot) in &outcome.cached[level - 1] {
                        cache.fetch_into(level, slot, h.row_mut(local as usize));
                    }
                });
                let mut forward = Vec::new();
                for (b, live) in outcome.computed.iter().enumerate() {
                    for v in (0..live.len()).filter(|&v| live[v]) {
                        forward.push((b + 1, 0, v, bits(trace.h[b + 1].row(v))));
                    }
                }
                let (_, d_top) = softmax_cross_entropy(trace.h.last().unwrap(), &labels);
                model.zero_grad();
                let mut hook_grads = Vec::new();
                model.backward_with(&mb, &trace, d_top, computed, |level, d| {
                    let b = level - 1;
                    for v in (0..mb.blocks[b].num_dst()).filter(|&v| in_batch(b, v)) {
                        hook_grads.push((level, v, bits(d.row(v))));
                    }
                    // Detach, as the trainer does.
                    for &(local, _) in &outcome.cached[b] {
                        d.row_mut(local as usize).fill(0.0);
                    }
                });
                StepBits {
                    forward,
                    hook_grads,
                    params: grad_bits(model.params_mut()),
                }
            };
            let unmasked = step(None);
            let masked = step(Some(&outcome.computed));
            assert!(!unmasked.hook_grads.is_empty());
            assert_eq!(masked, unmasked, "{arch}");
        }
    });
}

struct HeteroCase {
    model: RSageModel,
    mb: HeteroMiniBatch,
    h0: Vec<Matrix>,
    labels: Vec<u16>,
    /// `(src_type, dst_type)` per relation.
    rel_types: Vec<(usize, usize)>,
    num_target_nodes: usize,
}

fn hetero_case(rng: &mut Rng) -> HeteroCase {
    let ds = mag_hetero(NUM_NODES, DIMS[3], DIMS[0], rng.next_u64());
    let mut seeds = ds.train_nodes.clone();
    rng.shuffle(&mut seeds);
    seeds.truncate(12);
    let target = ds.target_type;
    let mb = HeteroSampler::new(&ds.graph).sample(&ds.graph, target, &seeds, &[3, 3, 3], rng);
    let h0 = (0..ds.features.len())
        .map(|t| {
            let ids: Vec<usize> = mb.blocks[0].src[t].iter().map(|&g| g as usize).collect();
            ds.features[t].gather_rows(&ids)
        })
        .collect();
    let labels = seeds.iter().map(|&s| ds.labels[s as usize]).collect();
    HeteroCase {
        model: RSageModel::new(&ds.graph, target, &DIMS, rng),
        mb,
        h0,
        labels,
        rel_types: ds
            .graph
            .relations
            .iter()
            .map(|r| (r.src_type, r.dst_type))
            .collect(),
        num_target_nodes: ds.graph.node_counts[target],
    }
}

#[test]
fn rsage_training_backward_matches_full_backward_on_parameters() {
    for_cases("rsage_training_backward_matches_full", |rng| {
        let HeteroCase {
            mut model,
            mb,
            h0,
            labels,
            ..
        } = hetero_case(rng);
        let trace = model.forward(&mb, h0.clone());
        let (_, d_logits) = softmax_cross_entropy(model.logits(&trace), &labels);

        model.zero_grad();
        model.backward(&mb, &trace, d_logits.clone());
        let training = grad_bits(model.params_mut());

        model.zero_grad();
        let d_input = model.backward_input_grad(&mb, &trace, d_logits);
        for (d, h) in d_input.iter().zip(&h0) {
            assert_eq!(d.shape(), h.shape());
        }
        assert_eq!(training, grad_bits(model.params_mut()));
    });
}

#[test]
fn rsage_computed_row_mask_changes_nothing_a_step_consumes() {
    for_cases("rsage_computed_row_mask_changes_nothing", |rng| {
        let HeteroCase {
            mut model,
            mut mb,
            h0,
            labels,
            rel_types,
            num_target_nodes,
        } = hetero_case(rng);
        let target = model.target_type;
        let mut cache = new_cache(num_target_nodes);
        warm_cache(&mut cache, |level| &mb.blocks[level - 1].dst[target], rng);
        let outcome =
            prune_hetero_with(&mut mb, &rel_types, &mut cache, target, 1, &GradientPolicy);
        assert!(
            outcome.computed.iter().flatten().flatten().any(|&c| !c),
            "nothing pruned"
        );
        let in_batch = |b: usize, v: usize| {
            outcome.computed[b][target][v]
                || outcome.cached[b].iter().any(|&(l, _)| l as usize == v)
        };

        let mut step = |computed: Option<&[Vec<Vec<bool>>]>| {
            let trace = model.forward_with(&mb, h0.clone(), computed, |level, h| {
                for &(local, slot) in &outcome.cached[level - 1] {
                    cache.fetch_into(level, slot, h[target].row_mut(local as usize));
                }
            });
            let mut forward = Vec::new();
            for (b, per_type) in outcome.computed.iter().enumerate() {
                for (t, live) in per_type.iter().enumerate() {
                    for v in (0..live.len()).filter(|&v| live[v]) {
                        forward.push((b + 1, t, v, bits(trace.h[b + 1][t].row(v))));
                    }
                }
            }
            let (_, d_logits) = softmax_cross_entropy(model.logits(&trace), &labels);
            model.zero_grad();
            let mut hook_grads = Vec::new();
            model.backward_with(&mb, &trace, d_logits, computed, |level, d| {
                let b = level - 1;
                for v in (0..mb.blocks[b].dst[target].len()).filter(|&v| in_batch(b, v)) {
                    hook_grads.push((level, v, bits(d[target].row(v))));
                }
                for &(local, _) in &outcome.cached[b] {
                    d[target].row_mut(local as usize).fill(0.0);
                }
            });
            StepBits {
                forward,
                hook_grads,
                params: grad_bits(model.params_mut()),
            }
        };
        let unmasked = step(None);
        let masked = step(Some(&outcome.computed));
        assert_eq!(masked, unmasked);
    });
}
