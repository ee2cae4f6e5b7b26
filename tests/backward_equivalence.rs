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
//!   on in-batch rows, and every parameter gradient equal the unmasked run's
//!   — at the narrow test widths and through a full kernel strip (hidden 128);
//! * a step on a workspace an earlier, larger batch with another mask has
//!   used equals the same step on a fresh one: buffers that are reshaped
//!   rather than reallocated leak nothing from one step into the next.

mod common;

use common::for_cases;
use freshgnn_repro::core::cache::{HistoricalCache, PolicyInput, PolicyKind, Verdict};
use freshgnn_repro::core::hetero_trainer::{prune_hetero_with, HeteroPruneOutcome};
use freshgnn_repro::core::prune::prune_with_cache_policy;
use freshgnn_repro::core::prune::PruneOutcome;
use freshgnn_repro::graph::block::MiniBatch;
use freshgnn_repro::graph::generate::{generate, GraphConfig};
use freshgnn_repro::graph::hetero::{mag_hetero, HeteroDataset, HeteroMiniBatch, HeteroSampler};
use freshgnn_repro::graph::sample::NeighborSampler;
use freshgnn_repro::nn::loss::{softmax_cross_entropy, softmax_cross_entropy_into};
use freshgnn_repro::nn::model::{Arch, Grads, Model, Trace};
use freshgnn_repro::nn::rsage::{RSageGrads, RSageModel, RSageTrace};
use freshgnn_repro::nn::Param;
use freshgnn_repro::tensor::{Matrix, Rng};

const DIMS: [usize; 4] = [8, 12, 10, 5];
/// Hidden width 128: the dense transforms run through whole 32-column strips
/// of the matmul tile, not only its narrow-strip and tail paths.
const WIDE_DIMS: [usize; 4] = [8, 128, 128, 5];
const NUM_NODES: usize = 300;

/// One case in eight at the wide dimensions (they cost a hundred times the
/// narrow ones in a debug build).
fn case_dims(rng: &mut Rng) -> &'static [usize; 4] {
    if rng.bernoulli(0.125) {
        &WIDE_DIMS
    } else {
        &DIMS
    }
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn grad_bits(params: Vec<&mut Param>) -> Vec<Vec<u32>> {
    params.iter().map(|p| bits(p.grad.as_slice())).collect()
}

/// Warm `cache` the way training does: admit an embedding for a random 40 %
/// of the interior destinations (`dst_of(level)`) at every cached level.
fn warm_cache<'a>(
    cache: &mut HistoricalCache,
    dims: &[usize],
    dst_of: impl Fn(usize) -> &'a [u32],
    rng: &mut Rng,
) {
    // Levels 1..L-1: the top level (seeds) is never cache-read.
    for (below_top, &dim) in dims[1..dims.len() - 1].iter().enumerate() {
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

fn new_cache(num_nodes: usize, dims: &[usize]) -> HistoricalCache {
    HistoricalCache::new(num_nodes, &dims[1..], 100, 32, true)
}

fn homo_batch(rng: &mut Rng) -> (MiniBatch, Matrix, Vec<u16>) {
    homo_batch_of(rng, 16)
}

fn homo_batch_of(rng: &mut Rng, num_seeds: usize) -> (MiniBatch, Matrix, Vec<u16>) {
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
    let mut seeds: Vec<u32> = (0..num_seeds)
        .map(|_| rng.below(NUM_NODES) as u32)
        .collect();
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
    loss: u32,
    /// `(level, row, was cached, gradient-norm bits, bits)` of the gradient
    /// the hook sees on in-batch rows: what the trainer's `PolicyInput`s are
    /// made of.
    hook_grads: Vec<(usize, usize, bool, u32, Vec<u32>)>,
    params: Vec<Vec<u32>>,
}

/// The hook of a cached level, as the trainer's: record every in-batch row
/// of `d`, then detach the cache-read ones.
fn harvest(
    out: &mut Vec<(usize, usize, bool, u32, Vec<u32>)>,
    level: usize,
    d: &mut Matrix,
    computed: &[bool],
    cached: &[(u32, u32)],
) {
    for (v, &computed_v) in computed.iter().enumerate() {
        let was_cached = cached.iter().any(|&(l, _)| l as usize == v);
        if computed_v || was_cached {
            let norm = d.row(v).iter().map(|&x| x * x).sum::<f32>().sqrt();
            out.push((level, v, was_cached, norm.to_bits(), bits(d.row(v))));
        }
    }
    for &(local, _) in cached {
        d.row_mut(local as usize).fill(0.0);
    }
}

/// One pruned homogeneous batch and everything a step on it reads.
struct HomoCase {
    mb: MiniBatch,
    h0: Matrix,
    labels: Vec<u16>,
    outcome: PruneOutcome,
}

fn homo_case(
    rng: &mut Rng,
    cache: &mut HistoricalCache,
    dims: &[usize],
    num_seeds: usize,
) -> HomoCase {
    let (mut mb, h0, labels) = homo_batch_of(rng, num_seeds);
    warm_cache(cache, dims, |level| &mb.blocks[level - 1].dst_global, rng);
    let outcome = prune_with_cache_policy(&mut mb, cache, 1, &PolicyKind::Gradient);
    HomoCase {
        mb,
        h0,
        labels,
        outcome,
    }
}

/// One training step the way the trainer runs it — input rows loaded in
/// place (needed rows only when masked), `forward_into`, loss,
/// `backward_into` with harvest-and-detach — on the given workspace.
fn homo_step(
    model: &mut Model,
    case: &HomoCase,
    cache: &HistoricalCache,
    masked: bool,
    trace: &mut Trace,
    grads: &mut Grads,
) -> StepBits {
    let HomoCase {
        mb,
        h0,
        labels,
        outcome,
    } = case;
    let computed = masked.then_some(&outcome.computed[..]);
    let input = trace.input_mut();
    input.resize(h0.rows(), h0.cols());
    for r in (0..h0.rows()).filter(|&r| !masked || outcome.needed_input[r]) {
        input.row_mut(r).copy_from_slice(h0.row(r));
    }
    model.forward_into(mb, trace, computed, |level, h| {
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
    let loss = softmax_cross_entropy_into(trace.h.last().unwrap(), labels, &mut grads.d_top);
    model.zero_grad();
    let mut hook_grads = Vec::new();
    model.backward_into(mb, trace, grads, computed, |level, d| {
        let b = level - 1;
        harvest(
            &mut hook_grads,
            level,
            d,
            &outcome.computed[b],
            &outcome.cached[b],
        );
    });
    StepBits {
        forward,
        loss: loss.to_bits(),
        hook_grads,
        params: grad_bits(model.params_mut()),
    }
}

#[test]
fn computed_row_mask_changes_nothing_a_step_consumes() {
    for_cases("computed_row_mask_changes_nothing", |rng| {
        let dims = case_dims(rng);
        let mut cache = new_cache(NUM_NODES, dims);
        let case = homo_case(rng, &mut cache, dims, 16);
        assert!(
            case.outcome.computed.iter().flatten().any(|&c| !c),
            "nothing pruned"
        );
        for arch in [Arch::Gcn, Arch::Sage, Arch::Gat] {
            let mut model = Model::new(arch, dims, rng);
            let mut step = |masked: bool| {
                let (mut trace, mut grads) = Default::default();
                homo_step(&mut model, &case, &cache, masked, &mut trace, &mut grads)
            };
            let unmasked = step(false);
            let masked = step(true);
            assert!(!unmasked.hook_grads.is_empty());
            assert_eq!(masked, unmasked, "{arch} {dims:?}");
        }
    });
}

/// Batch A, then a smaller batch B with another mask, then A again, all on
/// one workspace: each equals the same step on a fresh workspace, so nothing
/// a step reads is left over from the step before.
#[test]
fn a_reused_workspace_gives_the_bits_of_a_fresh_one() {
    for_cases("a_reused_workspace_gives_the_bits_of_a_fresh_one", |rng| {
        let dims = case_dims(rng);
        let mut cache = new_cache(NUM_NODES, dims);
        let a = homo_case(rng, &mut cache, dims, 16);
        let b = homo_case(rng, &mut cache, dims, 5);
        assert!(b.mb.input_nodes().len() < a.mb.input_nodes().len());
        for arch in [Arch::Gcn, Arch::Sage, Arch::Gat] {
            let mut model = Model::new(arch, dims, rng);
            let (mut trace, mut grads) = Default::default();
            for case in [&a, &b, &a] {
                let reused = homo_step(&mut model, case, &cache, true, &mut trace, &mut grads);
                let (mut t, mut g) = Default::default();
                let fresh = homo_step(&mut model, case, &cache, true, &mut t, &mut g);
                assert_eq!(reused, fresh, "{arch} {dims:?}");
            }
        }
    });
}

/// A heterogeneous dataset with a model on it.
struct HeteroSetup {
    ds: HeteroDataset,
    model: RSageModel,
    /// `(src_type, dst_type)` per relation.
    rel_types: Vec<(usize, usize)>,
}

/// One sampled (and, with an outcome, pruned) typed batch.
struct HeteroCase {
    mb: HeteroMiniBatch,
    h0: Vec<Matrix>,
    labels: Vec<u16>,
}

fn hetero_setup(rng: &mut Rng, dims: &[usize]) -> HeteroSetup {
    let ds = mag_hetero(NUM_NODES, dims[3], dims[0], rng.next_u64());
    HeteroSetup {
        model: RSageModel::new(&ds.graph, ds.target_type, dims, rng),
        rel_types: ds
            .graph
            .relations
            .iter()
            .map(|r| (r.src_type, r.dst_type))
            .collect(),
        ds,
    }
}

fn hetero_case(rng: &mut Rng, ds: &HeteroDataset, num_seeds: usize) -> HeteroCase {
    let mut seeds = ds.train_nodes.clone();
    rng.shuffle(&mut seeds);
    seeds.truncate(num_seeds);
    let target = ds.target_type;
    let mb = HeteroSampler::new(&ds.graph).sample(&ds.graph, target, &seeds, &[3, 3, 3], rng);
    let h0 = (0..ds.features.len())
        .map(|t| {
            let ids: Vec<usize> = mb.blocks[0].src[t].iter().map(|&g| g as usize).collect();
            ds.features[t].gather_rows(&ids)
        })
        .collect();
    let labels = seeds.iter().map(|&s| ds.labels[s as usize]).collect();
    HeteroCase { mb, h0, labels }
}

#[test]
fn rsage_training_backward_matches_full_backward_on_parameters() {
    for_cases("rsage_training_backward_matches_full", |rng| {
        let HeteroSetup { ds, mut model, .. } = hetero_setup(rng, &DIMS);
        let HeteroCase { mb, h0, labels } = hetero_case(rng, &ds, 12);
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

/// A typed batch pruned against a cache warmed on its own destinations.
fn pruned_hetero_case(
    rng: &mut Rng,
    setup: &HeteroSetup,
    cache: &mut HistoricalCache,
    dims: &[usize],
    num_seeds: usize,
) -> (HeteroCase, HeteroPruneOutcome) {
    let mut case = hetero_case(rng, &setup.ds, num_seeds);
    let target = setup.ds.target_type;
    let mb = &mut case.mb;
    warm_cache(cache, dims, |level| &mb.blocks[level - 1].dst[target], rng);
    let outcome = prune_hetero_with(mb, &setup.rel_types, cache, target, 1, PolicyKind::Gradient);
    (case, outcome)
}

/// The heterogeneous counterpart of [`homo_step`].
fn hetero_step(
    model: &mut RSageModel,
    (case, outcome): &(HeteroCase, HeteroPruneOutcome),
    cache: &HistoricalCache,
    masked: bool,
    trace: &mut RSageTrace,
    grads: &mut RSageGrads,
) -> StepBits {
    let HeteroCase { mb, h0, labels } = case;
    let target = model.target_type;
    let computed = masked.then_some(&outcome.computed[..]);
    let input = trace.input_mut();
    input.resize_with(h0.len(), Matrix::default);
    for (t, (m, h)) in input.iter_mut().zip(h0).enumerate() {
        m.resize(h.rows(), h.cols());
        for r in (0..h.rows()).filter(|&r| !masked || outcome.needed_input[t][r]) {
            m.row_mut(r).copy_from_slice(h.row(r));
        }
    }
    model.forward_into(mb, trace, computed, |level, h| {
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
    let loss = softmax_cross_entropy_into(model.logits(trace), labels, &mut grads.d_logits);
    model.zero_grad();
    let mut hook_grads = Vec::new();
    model.backward_into(mb, trace, grads, computed, |level, d| {
        let b = level - 1;
        harvest(
            &mut hook_grads,
            level,
            &mut d[target],
            &outcome.computed[b][target],
            &outcome.cached[b],
        );
    });
    StepBits {
        forward,
        loss: loss.to_bits(),
        hook_grads,
        params: grad_bits(model.params_mut()),
    }
}

#[test]
fn rsage_computed_row_mask_changes_nothing_a_step_consumes() {
    for_cases("rsage_computed_row_mask_changes_nothing", |rng| {
        let dims = case_dims(rng);
        let mut setup = hetero_setup(rng, dims);
        let target = setup.ds.target_type;
        let mut cache = new_cache(setup.ds.graph.node_counts[target], dims);
        let case = pruned_hetero_case(rng, &setup, &mut cache, dims, 12);
        assert!(
            case.1.computed.iter().flatten().flatten().any(|&c| !c),
            "nothing pruned"
        );
        let mut step = |masked: bool| {
            let (mut trace, mut grads) = Default::default();
            hetero_step(
                &mut setup.model,
                &case,
                &cache,
                masked,
                &mut trace,
                &mut grads,
            )
        };
        let unmasked = step(false);
        let masked = step(true);
        assert_eq!(masked, unmasked, "{dims:?}");
    });
}

/// [`a_reused_workspace_gives_the_bits_of_a_fresh_one`] on typed batches.
#[test]
fn rsage_reused_workspace_gives_the_bits_of_a_fresh_one() {
    for_cases("rsage_reused_workspace_gives_the_bits_of_a_fresh", |rng| {
        let dims = case_dims(rng);
        let mut setup = hetero_setup(rng, dims);
        let target = setup.ds.target_type;
        let mut cache = new_cache(setup.ds.graph.node_counts[target], dims);
        let a = pruned_hetero_case(rng, &setup, &mut cache, dims, 12);
        let b = pruned_hetero_case(rng, &setup, &mut cache, dims, 4);
        let (mut trace, mut grads) = Default::default();
        for case in [&a, &b, &a] {
            let model = &mut setup.model;
            let reused = hetero_step(model, case, &cache, true, &mut trace, &mut grads);
            let (mut t, mut g) = Default::default();
            let fresh = hetero_step(model, case, &cache, true, &mut t, &mut g);
            assert_eq!(reused, fresh, "{dims:?}");
        }
    });
}
