// Index-based loops below intentionally walk several parallel arrays in
// lockstep; iterator zips would obscure the math. Clippy disagrees.
#![allow(clippy::needless_range_loop)]

//! Heterogeneous-graph extension (§7.6): R-GraphSAGE with the historical
//! embedding cache on the target node type — the [`Heterogeneous`]
//! workload of the shared [`Driver`].
//!
//! The cache machinery carries over unchanged: the labeled (paper) type's
//! per-level embeddings are cached under the same `p_grad`/`t_stale`
//! policy; a cached paper destination has every incoming relation pruned
//! and its typed subtree dies, skipping the corresponding author/
//! institution expansions and feature loads. (Caching the unlabeled types
//! too would be a straightforward extension; the paper's experiment only
//! needs the target type, where gradient feedback exists every iteration.)

use crate::cache::{HistoricalCache, PolicyKind};
use crate::config::FreshGnnConfig;
use crate::driver::{harvest_and_detach, reset_policy_inputs, Driver, Stages, Workload, Workspace};
use crate::pipeline::{BatchOutput, EvalHarness, PipelineCtx};
use fgnn_graph::hetero::{HeteroDataset, HeteroGraph, HeteroMiniBatch, HeteroSampler};
use fgnn_graph::NodeId;
use fgnn_memsim::presets::{aggregation_flops, dense_flops, Machine};
use fgnn_memsim::stage::StageKind;
use fgnn_memsim::topology::Node;
use fgnn_memsim::TrafficCounters;
use fgnn_nn::loss::softmax_cross_entropy_into;
use fgnn_nn::rsage::{RSageGrads, RSageModel, RSageTrace};
use fgnn_nn::Optimizer;
use fgnn_tensor::{Matrix, Rng};
use std::sync::Arc;

/// R-GraphSAGE trainer over a [`HeteroDataset`]: the epoch [`Driver`]
/// over the [`Heterogeneous`] workload.
pub type HeteroTrainer = Driver<Heterogeneous>;

/// Workload state of the heterogeneous trainer: an [`RSageModel`] over
/// typed relations.
pub struct Heterogeneous {
    /// `(src_type, dst_type)` per relation, in the graph's relation order.
    rel_types: Vec<(usize, usize)>,
    /// Seed of the randomized-policy side stream (see
    /// [`Heterogeneous::batch_rngs`]).
    policy_seed: u64,
}

impl Driver<Heterogeneous> {
    /// Build a trainer for `ds` with `hidden` units per hidden layer.
    pub fn new(
        ds: &HeteroDataset,
        hidden: usize,
        machine: Machine,
        cfg: FreshGnnConfig,
        seed: u64,
    ) -> Self {
        let target = ds.target_type;
        Driver::assemble(
            ds,
            cfg,
            machine,
            seed,
            ds.graph.node_counts[target],
            (ds.features[target].cols(), hidden, ds.num_classes),
            |_, dims, rng| {
                let workload = Heterogeneous {
                    rel_types: ds
                        .graph
                        .relations
                        .iter()
                        .map(|r| (r.src_type, r.dst_type))
                        .collect(),
                    policy_seed: seed ^ 0x0000_504F_4C49_4359, // "POLICY"
                };
                (RSageModel::new(&ds.graph, target, dims, rng), workload)
            },
        )
    }
}

impl Workload for Heterogeneous {
    type Dataset = HeteroDataset;
    type Model = RSageModel;
    type Batch = HeteroMiniBatch;
    /// The typed graph and the target (labeled) node type.
    type Graph = (Arc<HeteroGraph>, usize);
    type Sampler = HeteroSampler;
    type Trace = RSageTrace;
    type Grads = RSageGrads;

    fn units<'a>(&'a self, ds: &'a HeteroDataset) -> &'a [NodeId] {
        &ds.train_nodes
    }

    fn graph(&self, ds: &HeteroDataset) -> (Arc<HeteroGraph>, usize) {
        (Arc::clone(&ds.graph), ds.target_type)
    }

    fn sampler((graph, _): &(Arc<HeteroGraph>, usize)) -> HeteroSampler {
        HeteroSampler::new(graph)
    }

    fn sample(
        sampler: &mut HeteroSampler,
        (graph, target): &(Arc<HeteroGraph>, usize),
        seeds: &[NodeId],
        fanouts: &[usize],
        rng: &mut Rng,
    ) -> HeteroMiniBatch {
        sampler.sample(graph, *target, seeds, fanouts, rng)
    }

    /// One fork of the trainer stream for sampling. The policy's is a side
    /// stream that is a pure function of `(seed, iter)`: nothing to
    /// checkpoint or rewind, so a rollback or resume replays a randomized
    /// policy's verdicts exactly. Deliberately *not* forked from the main
    /// RNG: the historical hetero trainer never consumed randomness in its
    /// cache update, and forking per batch would shift the batch schedule
    /// pinned by the equivalence goldens.
    fn batch_rngs(&self, main: &mut Rng, iter: u32) -> (Rng, Rng) {
        (main.fork(), Rng::new(self.policy_seed ^ u64::from(iter)))
    }

    fn step(
        st: &mut Stages<'_, Self>,
        ds: &HeteroDataset,
        ctx: &mut PipelineCtx<'_>,
        counters: &mut TrafficCounters,
        mut mb: HeteroMiniBatch,
        policy_rng: &mut Rng,
        opt: &mut dyn Optimizer,
    ) -> Option<BatchOutput> {
        let target = ds.target_type;
        let now = *st.iter;

        // Cache-aware typed pruning (top-down reachability).
        let outcome = ctx.stage(StageKind::Prune, counters, |_engine, _c| {
            prune_hetero_with(
                &mut mb,
                &st.workload.rel_types,
                st.cache,
                target,
                now,
                st.cfg.policy,
            )
        });

        // Load per-type input features for surviving src nodes into the
        // workspace's input matrices; a row that is not needed keeps whatever
        // it held (the step reads no such row).
        let n_types = ds.graph.node_counts.len();
        ctx.stage(StageKind::Load, counters, |engine, c| {
            let h0 = st.ws.trace.input_mut();
            h0.resize_with(n_types, Matrix::default);
            let mut wire_bytes = 0u64;
            let mut saved_bytes = 0u64;
            for (t, m) in h0.iter_mut().enumerate() {
                let row_bytes = (ds.features[t].cols() * 4) as u64;
                let srcs = &mb.blocks[0].src[t];
                m.resize(srcs.len(), ds.features[t].cols());
                for (i, &g) in srcs.iter().enumerate() {
                    if outcome.needed_input[t][i] {
                        m.row_mut(i).copy_from_slice(ds.features[t].row(g as usize));
                        wire_bytes += row_bytes;
                    } else {
                        saved_bytes += row_bytes;
                    }
                }
            }
            if wire_bytes > 0 {
                engine.one_sided_read(Node::Host, Node::Gpu(0), wire_bytes, c);
            }
            c.cache_hit_bytes += saved_bytes;
        });

        // Forward with cache overrides on the target type (the policy
        // post-processes each read; plain copy under the baseline). The
        // model skips the rows the pruner did not mark computed, forward and
        // backward.
        let computed = Some(&outcome.computed[..]);
        ctx.stage(StageKind::Forward, counters, |_engine, _c| {
            let cache = &*st.cache;
            let policy = st.cfg.policy;
            let cached = &outcome.cached;
            st.model
                .forward_into(&mb, &mut st.ws.trace, computed, |level, h| {
                    let b = level - 1;
                    if b < cached.len() {
                        for &(local, slot) in &cached[b] {
                            cache.read_into(
                                level,
                                slot,
                                now,
                                policy,
                                h[target].row_mut(local as usize),
                            );
                        }
                    }
                })
        });

        let num_levels = st.dims.len() - 1;
        let loss = ctx.stage(StageKind::Backward, counters, |_engine, _c| {
            let Workspace {
                trace,
                grads,
                labels,
                policy_inputs,
                is_cached,
            } = &mut *st.ws;
            let logits = st.model.logits(trace);
            labels.clear();
            labels.extend(mb.seeds.iter().map(|&s| ds.labels[s as usize]));
            let loss = softmax_cross_entropy_into(logits, labels, &mut grads.d_logits);

            st.model.zero_grad();
            reset_policy_inputs(policy_inputs, num_levels);
            let cache_enabled = st.cfg.cache_enabled();
            let hook = |level: usize, d: &mut Vec<Matrix>| {
                if !cache_enabled || level == num_levels {
                    return; // top level = seeds, never cached
                }
                let b = level - 1;
                harvest_and_detach(
                    &mut d[target],
                    &mb.blocks[b].dst[target],
                    &outcome.computed[b][target],
                    &outcome.cached[b],
                    is_cached,
                    &mut policy_inputs[level],
                );
            };
            st.model.backward_into(&mb, trace, grads, computed, hook);
            loss
        });

        ctx.stage(StageKind::CacheUpdate, counters, |_engine, _c| {
            st.update_cache(policy_rng, |trace, level| &trace.h[level][target]);
        });

        ctx.stage(StageKind::OptimStep, counters, |_engine, _c| {
            let mut params = st.model.params_mut();
            opt.step(&mut params);
        });

        // Simulated compute from live relation edges, attributed to the
        // forward/backward pass (charged after opt.step exactly as the
        // pre-pipeline loop did, to keep f64 accumulation order).
        let mut flops = 0.0;
        for (b, block) in mb.blocks.iter().enumerate() {
            let edges: usize = block.num_edges();
            flops += aggregation_flops(edges, st.dims[b]);
            let n_dst: usize = block.dst.iter().map(Vec::len).sum();
            flops += dense_flops(n_dst, st.dims[b], st.dims[b + 1]);
        }
        ctx.stage(StageKind::Backward, counters, |_engine, c| {
            c.compute_seconds += st.machine.gpu.compute_seconds(3.0 * flops);
        });

        Some(BatchOutput::loss_only(loss))
    }

    fn accuracy(
        model: &RSageModel,
        ds: &HeteroDataset,
        nodes: &[NodeId],
        fanouts: &[usize],
        batch_size: usize,
        rng: &mut Rng,
    ) -> f64 {
        EvalHarness::accuracy_hetero(model, ds, nodes, fanouts, batch_size, rng)
    }
}

/// Typed pruning outcome.
pub struct HeteroPruneOutcome {
    /// Per block: `(local target-type dst index, slot)` cache reads.
    pub cached: Vec<Vec<(u32, u32)>>,
    /// Per block, per node type: whether each dst is computed (reachable
    /// from a seed and not cache-read). Dead or cached nodes are `false`.
    pub computed: Vec<Vec<Vec<bool>>>,
    /// Per type: which input src nodes need feature loads.
    pub needed_input: Vec<Vec<bool>>,
}

/// Top-down typed reachability pruning — the heterogeneous analogue of
/// [`crate::prune::prune_with_cache_policy`]. `rel_types[r]` gives
/// relation `r`'s `(src_type, dst_type)`. Cache probes route through
/// `policy` ([`HistoricalCache::lookup_with`]), so a refresh schedule can
/// decline live hits and force in-place refreshes.
pub fn prune_hetero_with(
    mb: &mut HeteroMiniBatch,
    rel_types: &[(usize, usize)],
    cache: &mut HistoricalCache,
    target: usize,
    now: u32,
    policy: PolicyKind,
) -> HeteroPruneOutcome {
    let num_blocks = mb.blocks.len();
    let n_types = mb.blocks[0].dst.len();
    let mut cached: Vec<Vec<(u32, u32)>> = vec![Vec::new(); num_blocks];
    let mut computed: Vec<Vec<Vec<bool>>> = mb
        .blocks
        .iter()
        .map(|b| b.dst.iter().map(|d| vec![false; d.len()]).collect())
        .collect();

    // Top block: only target-type seeds are needed.
    let mut needed: Vec<Vec<bool>> = (0..n_types)
        .map(|t| vec![t == target; mb.blocks[num_blocks - 1].dst[t].len()])
        .collect();

    for b in (0..num_blocks).rev() {
        let level = b + 1;
        let is_top = b + 1 == num_blocks;
        let mut needed_below: Vec<Vec<bool>> = (0..n_types)
            .map(|t| vec![false; mb.blocks[b].src[t].len()])
            .collect();

        // Target-type cache check.
        let n_target_dst = mb.blocks[b].dst[target].len();
        let mut is_cached = vec![false; n_target_dst];
        for v in 0..n_target_dst {
            if !needed[target][v] {
                continue;
            }
            let node = mb.blocks[b].dst[target][v];
            if !is_top {
                if let Some(slot) = cache.lookup_with(level, node, now, policy) {
                    cached[b].push((v as u32, slot));
                    is_cached[v] = true;
                }
            }
        }

        // Per relation: prune dead/cached rows, expand live ones.
        for (r, &(src_t, dst_t)) in rel_types.iter().enumerate() {
            for v in 0..mb.blocks[b].rel_adj[r].num_nodes() {
                let live = needed[dst_t].get(v).copied().unwrap_or(false)
                    && !(dst_t == target && is_cached[v]);
                if !live {
                    mb.blocks[b].rel_adj[r].prune(v);
                    continue;
                }
                for &u in mb.blocks[b].rel_adj[r].neighbors(v) {
                    needed_below[src_t][u as usize] = true;
                }
            }
        }

        // Self terms: every live destination needs its own lower row.
        for t in 0..n_types {
            for v in 0..mb.blocks[b].dst[t].len() {
                let live = needed[t][v] && !(t == target && is_cached[v]);
                if live {
                    computed[b][t][v] = true;
                    needed_below[t][v] = true;
                }
            }
        }

        if b == 0 {
            return HeteroPruneOutcome {
                cached,
                computed,
                needed_input: needed_below,
            };
        }
        needed = needed_below;
    }
    unreachable!("loop returns at b == 0")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::PolicyInput;
    use fgnn_graph::hetero::mag_hetero;
    use fgnn_nn::Adam;

    fn tiny() -> HeteroDataset {
        mag_hetero(400, 4, 8, 3)
    }

    fn config(p_grad: f32, t_stale: u32) -> FreshGnnConfig {
        FreshGnnConfig {
            p_grad,
            t_stale,
            fanouts: vec![3, 3],
            batch_size: 32,
            ..Default::default()
        }
    }

    #[test]
    fn hetero_training_reduces_loss() {
        let ds = tiny();
        let mut t = HeteroTrainer::new(&ds, 16, Machine::single_a100(), config(0.9, 50), 1);
        let mut opt = Adam::new(0.01);
        let first = t.train_epoch(&ds, &mut opt).mean_loss;
        let mut last = first;
        for _ in 0..6 {
            last = t.train_epoch(&ds, &mut opt).mean_loss;
        }
        assert!(last < first, "loss {first} -> {last}");
    }

    #[test]
    fn hetero_cache_serves_hits_and_saves_traffic() {
        let ds = tiny();
        let machine = Machine::single_a100();
        let mut cached = HeteroTrainer::new(&ds, 16, machine.clone(), config(0.95, 100), 2);
        let mut plain = HeteroTrainer::new(&ds, 16, machine, config(0.0, 0), 2);
        let mut o1 = Adam::new(0.01);
        let mut o2 = Adam::new(0.01);
        for _ in 0..4 {
            cached.train_epoch(&ds, &mut o1);
            plain.train_epoch(&ds, &mut o2);
        }
        assert!(cached.cache.stats().hits > 0);
        assert!(
            cached.counters.host_to_gpu_bytes < plain.counters.host_to_gpu_bytes,
            "cached {} vs plain {}",
            cached.counters.host_to_gpu_bytes,
            plain.counters.host_to_gpu_bytes
        );
    }

    #[test]
    fn hetero_async_epochs_are_worker_count_invariant() {
        let ds = tiny();
        let run = |workers: usize, chaos: Option<crate::runtime::ChaosPolicy>| {
            let mut t = HeteroTrainer::new(&ds, 16, Machine::single_a100(), config(0.9, 50), 3);
            t.set_sampler_chaos(chaos);
            let mut opt = Adam::new(0.01);
            let mut losses = Vec::new();
            for _ in 0..3 {
                let stats = t.train_epoch_async(&ds, &mut opt, workers, 4).unwrap();
                losses.push(stats.mean_loss.to_bits());
            }
            (losses, t.counters.host_to_gpu_bytes, t.cache.stats().hits)
        };
        let reference = run(1, None);
        for workers in [2, 4, 8] {
            assert_eq!(run(workers, None), reference, "workers={workers}");
        }
        // Adversarial schedules scramble who samples what when — never
        // the committed stream.
        let chaos = crate::runtime::ChaosPolicy::aggressive(11);
        assert_eq!(run(4, Some(chaos)), reference, "chaos");
    }

    #[test]
    fn hetero_async_training_reduces_loss() {
        let ds = tiny();
        let mut t = HeteroTrainer::new(&ds, 16, Machine::single_a100(), config(0.9, 50), 1);
        let mut opt = Adam::new(0.01);
        let first = t.train_epoch_async(&ds, &mut opt, 2, 4).unwrap().mean_loss;
        let mut last = first;
        for _ in 0..6 {
            last = t.train_epoch_async(&ds, &mut opt, 2, 4).unwrap().mean_loss;
        }
        assert!(last < first, "loss {first} -> {last}");
        assert_eq!(t.epochs(), 7);
    }

    #[test]
    fn hetero_accuracy_above_random() {
        let ds = tiny();
        let mut t = HeteroTrainer::new(&ds, 16, Machine::single_a100(), config(0.9, 50), 4);
        let mut opt = Adam::new(0.01);
        for _ in 0..10 {
            t.train_epoch(&ds, &mut opt);
        }
        let acc = t.evaluate(&ds, &ds.test_nodes, 128);
        assert!(acc > 0.3, "4-class accuracy {acc}");
    }

    #[test]
    fn hetero_resilient_epoch_rolls_back_on_injected_nan() {
        use crate::resilience::Supervisor;
        let ds = tiny();
        let mut t = HeteroTrainer::new(&ds, 16, Machine::single_a100(), config(0.9, 50), 9);
        let mut opt = Adam::new(0.01);
        let mut sup = Supervisor::default();
        let clean = t.train_epoch_resilient(&ds, &mut opt, &mut sup).unwrap();
        assert!(sup.transitions().is_empty());
        t.inject_nan_at([t.iter + 1]);
        let recovered = t.train_epoch_resilient(&ds, &mut opt, &mut sup).unwrap();
        assert_eq!(sup.rollbacks(), 1);
        assert_eq!(sup.state(), crate::resilience::HealthState::Healthy);
        assert_eq!(recovered.batches, clean.batches);
        assert!(recovered.mean_loss.is_finite());
        assert_eq!(t.epochs(), 2);
    }

    #[test]
    fn prune_hetero_with_empty_cache_keeps_everything_reachable() {
        let ds = tiny();
        let mut sampler = HeteroSampler::new(&ds.graph);
        let mut rng = Rng::new(5);
        let seeds: Vec<NodeId> = ds.train_nodes[..8].to_vec();
        let mut mb = sampler.sample(&ds.graph, 0, &seeds, &[3, 3], &mut rng);
        let edges_before = mb.blocks.iter().map(|b| b.num_edges()).sum::<usize>();
        let rel_types: Vec<(usize, usize)> = ds
            .graph
            .relations
            .iter()
            .map(|r| (r.src_type, r.dst_type))
            .collect();
        let mut cache = HistoricalCache::new(400, &[16, 4], 50, 8, true);
        let out = prune_hetero_with(&mut mb, &rel_types, &mut cache, 0, 0, PolicyKind::Gradient);
        assert!(out.cached.iter().all(Vec::is_empty));
        // All target dst computed.
        assert!(out.computed.last().unwrap()[0].iter().all(|&c| c));
        let edges_after = mb.blocks.iter().map(|b| b.num_edges()).sum::<usize>();
        assert_eq!(edges_before, edges_after, "nothing pruned without hits");
        // All target inputs needed.
        assert!(out.needed_input[0].iter().all(|&n| n));
    }

    #[test]
    fn hetero_prune_with_hit_saves_typed_inputs() {
        use crate::cache::Verdict;
        let ds = tiny();
        let mut sampler = HeteroSampler::new(&ds.graph);
        let mut rng = Rng::new(7);
        let seeds: Vec<NodeId> = ds.train_nodes[..8].to_vec();
        let rel_types: Vec<(usize, usize)> = ds
            .graph
            .relations
            .iter()
            .map(|r| (r.src_type, r.dst_type))
            .collect();

        // Baseline pruning with an empty cache.
        let mut mb_plain = sampler.sample(&ds.graph, 0, &seeds, &[3, 3], &mut rng);
        let mut empty =
            HistoricalCache::new(ds.graph.node_counts[0], &[16, ds.num_classes], 50, 8, true);
        let base = prune_hetero_with(
            &mut mb_plain,
            &rel_types,
            &mut empty,
            0,
            0,
            PolicyKind::Gradient,
        );
        let base_needed: usize = base
            .needed_input
            .iter()
            .map(|t| t.iter().filter(|&&b| b).count())
            .sum();

        // Cache every level-1 paper destination, same batch stream.
        let mut sampler2 = HeteroSampler::new(&ds.graph);
        let mut rng2 = Rng::new(7);
        let mut mb = sampler2.sample(&ds.graph, 0, &seeds, &[3, 3], &mut rng2);
        let mut cache =
            HistoricalCache::new(ds.graph.node_counts[0], &[16, ds.num_classes], 50, 64, true);
        let h = Matrix::zeros(1, 16);
        for &node in &mb.blocks[0].dst[0] {
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
                &h,
                0,
            );
        }
        let out = prune_hetero_with(&mut mb, &rel_types, &mut cache, 0, 1, PolicyKind::Gradient);
        assert!(!out.cached[0].is_empty(), "level-1 hits expected");
        let needed: usize = out
            .needed_input
            .iter()
            .map(|t| t.iter().filter(|&&b| b).count())
            .sum();
        assert!(
            needed < base_needed,
            "typed subtree pruning must cut inputs: {needed} vs {base_needed}"
        );
    }
}
