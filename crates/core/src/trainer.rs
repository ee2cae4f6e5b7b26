// Index-based loops below intentionally walk several parallel arrays in
// lockstep; iterator zips would obscure the math. Clippy disagrees.
#![allow(clippy::needless_range_loop)]

//! Algorithm 1: mini-batch training with the historical embedding cache,
//! on a homogeneous graph — the [`Homogeneous`] workload of the shared
//! [`Driver`].
//!
//! Per iteration:
//! 1. **sample** a mini-batch (CPU);
//! 2. **prune** it against the cache (CSR2, O(1) per cached node) —
//!    cached destinations lose their aggregation and their subtrees die;
//! 3. **load** raw features for the surviving input nodes (one-sided UVA
//!    read charged to the interconnect model);
//! 4. **forward**, overriding cached destinations' rows with their cached
//!    embeddings between layers;
//! 5. **backward**, harvesting per-node embedding-gradient norms at every
//!    level and detaching (zeroing) cache-read rows so no gradient leaks
//!    into pruned subtrees;
//! 6. **update the cache**: bottom-`p_grad` gradient norms are admitted /
//!    kept, the rest skipped / evicted; stale entries age out via the ring.

use crate::cache::StaticFeatureCache;
use crate::checkpoint::CheckpointError;
use crate::config::FreshGnnConfig;
use crate::driver::{harvest_and_detach, reset_policy_inputs, Driver, Stages, Workload, Workspace};
use crate::loader::FeatureLoader;
use crate::obs::{MetricClass, Metrics};
use crate::pipeline::{BatchOutput, EvalHarness, PipelineCtx};
use crate::prune::{prune_with_cache_policy, PruneOutcome};
use fgnn_graph::block::MiniBatch;
use fgnn_graph::sample::NeighborSampler;
use fgnn_graph::{Csr, Dataset, NodeId};
use fgnn_memsim::presets::{aggregation_flops, dense_flops, Machine};
use fgnn_memsim::stage::StageKind;
use fgnn_memsim::topology::Node;
use fgnn_memsim::TrafficCounters;
use fgnn_nn::loss::softmax_cross_entropy_into;
use fgnn_nn::model::{Arch, Grads, Model, Trace};
use fgnn_nn::Optimizer;
use fgnn_tensor::{Matrix, Rng};
use std::sync::Arc;

/// The FreshGNN trainer: the epoch [`Driver`] over the [`Homogeneous`]
/// workload.
pub type Trainer = Driver<Homogeneous>;

/// Workload state of the homogeneous trainer: a [`Model`] over one node
/// type, neighbor sampling, and a static raw-feature cache in front of the
/// loader.
pub struct Homogeneous {
    static_cache: StaticFeatureCache,
}

impl<W: Workload<Dataset = Dataset, Model = Model>> Driver<W> {
    /// [`Driver::assemble`] over a homogeneous [`Dataset`]: an `arch` model
    /// with `hidden` units per hidden layer (depth = `cfg.fanouts.len()`),
    /// then the workload state `build` makes from the config, the layer
    /// dimensions and the seeded RNG.
    pub(crate) fn with_model(
        ds: &Dataset,
        arch: Arch,
        hidden: usize,
        machine: Machine,
        cfg: FreshGnnConfig,
        seed: u64,
        build: impl FnOnce(&FreshGnnConfig, &[usize], &mut Rng) -> W,
    ) -> Self {
        Driver::assemble(
            ds,
            cfg,
            machine,
            seed,
            ds.num_nodes(),
            (ds.spec.feature_dim, hidden, ds.spec.num_classes),
            |cfg, dims, rng| {
                let model = Model::new(arch, dims, rng);
                (model, build(cfg, dims, rng))
            },
        )
    }
}

impl Driver<Homogeneous> {
    /// Build a trainer for `ds`: an `arch` model with `hidden` units per
    /// hidden layer (depth = `cfg.fanouts.len()`), on `machine`.
    pub fn new(
        ds: &Dataset,
        arch: Arch,
        hidden: usize,
        machine: Machine,
        cfg: FreshGnnConfig,
        seed: u64,
    ) -> Self {
        Driver::with_model(ds, arch, hidden, machine, cfg, seed, |cfg, _, _| {
            let static_cache = if cfg.feature_cache_rows > 0 {
                StaticFeatureCache::by_degree(&ds.graph, cfg.feature_cache_rows)
            } else {
                StaticFeatureCache::disabled(ds.num_nodes())
            };
            Homogeneous { static_cache }
        })
    }

    /// Fig 1 probe: sample a fresh mini-batch for `seeds`, determine which
    /// destinations the cache would serve, and return the mean L2 distance
    /// between the top-layer output computed *with* those historical
    /// overrides and the authentic output computed exactly (same batch,
    /// full aggregation).
    pub fn probe_estimation_error(&mut self, ds: &Dataset, seeds: &[NodeId]) -> f32 {
        let mut rng = self.rng.fork();
        let mb = self
            .sampler
            .sample(&ds.graph, seeds, &self.cfg.fanouts, &mut rng);
        // Prune a clone to learn the cache-served set; keep `mb` un-pruned
        // so the exact pass aggregates fully.
        let mut pruned = mb.clone();
        let outcome =
            prune_with_cache_policy(&mut pruned, &mut self.cache, self.iter, &self.cfg.policy);
        let ids: Vec<usize> = mb.input_nodes().iter().map(|&g| g as usize).collect();
        let h0 = ds.features.gather_rows(&ids);
        crate::probes::estimation_error(&self.model, &mb, &h0, &self.cache, &outcome.cached)
    }
}

impl Workload for Homogeneous {
    type Dataset = Dataset;
    type Model = Model;
    type Batch = MiniBatch;
    type Graph = Arc<Csr>;
    type Sampler = NeighborSampler;
    type Trace = Trace;
    type Grads = Grads;

    fn units<'a>(&'a self, ds: &'a Dataset) -> &'a [NodeId] {
        &ds.train_nodes
    }

    fn graph(&self, ds: &Dataset) -> Arc<Csr> {
        Arc::clone(&ds.graph)
    }

    fn sampler(graph: &Arc<Csr>) -> NeighborSampler {
        NeighborSampler::new(graph.num_nodes())
    }

    fn sample(
        sampler: &mut NeighborSampler,
        graph: &Arc<Csr>,
        seeds: &[NodeId],
        fanouts: &[usize],
        rng: &mut Rng,
    ) -> MiniBatch {
        sampler.sample(graph, seeds, fanouts, rng)
    }

    /// Two forks of the trainer stream per batch, which the checkpoint
    /// captures.
    fn batch_rngs(&self, main: &mut Rng, _iter: u32) -> (Rng, Rng) {
        (main.fork(), main.fork())
    }

    fn step(
        st: &mut Stages<'_, Self>,
        ds: &Dataset,
        ctx: &mut PipelineCtx<'_>,
        counters: &mut TrafficCounters,
        mut mb: MiniBatch,
        policy_rng: &mut Rng,
        opt: &mut dyn Optimizer,
    ) -> Option<BatchOutput> {
        let now = *st.iter;

        // 2. Prune against the cache (measured). The policy's refresh
        // schedule acts here: a live entry it flags is declined so the
        // node recomputes and refreshes the entry in place.
        let outcome = ctx.stage(StageKind::Prune, counters, |_, _| {
            prune_with_cache_policy(&mut mb, st.cache, now, &st.cfg.policy)
        });

        // 3. Load surviving raw features (simulated transfer) into the
        // workspace's input matrix. The loader owns the static cache it
        // consults, so lend it for the call.
        ctx.stage(StageKind::Load, counters, |engine, c| {
            let static_cache = &mut st.workload.static_cache;
            let loader = FeatureLoader::new(
                &ds.features,
                ds.spec.feature_row_bytes(),
                std::mem::replace(static_cache, StaticFeatureCache::disabled(0)),
                st.cfg.load_mode,
            );
            loader
                .try_load_into(
                    mb.input_nodes(),
                    Some(&outcome.needed_input),
                    engine,
                    Node::Host,
                    Node::Gpu(0),
                    c,
                    st.ws.trace.input_mut(),
                )
                .expect("feature load");
            *static_cache = loader.into_static_cache();
            // Cache-read embeddings and pruned subtrees save these bytes
            // (for the Fig 13 I/O-saving metric the baseline is "load
            // everything").
            let skipped = (mb.input_nodes().len() - outcome.num_inputs_needed()) as u64;
            c.cache_hit_bytes += skipped * ds.spec.feature_row_bytes() as u64;
        });

        // 4. Forward, overriding cached rows between layers. The policy
        // post-processes each read (staleness weighting / history
        // extrapolation); under the baseline it is a plain copy. The model
        // skips the rows the pruner did not mark computed, here and in 5.
        let computed = Some(&outcome.computed[..]);
        ctx.stage(StageKind::Forward, counters, |_, _| {
            let cache = &*st.cache;
            let policy = st.cfg.policy;
            let cached = &outcome.cached;
            st.model
                .forward_into(&mb, &mut st.ws.trace, computed, |level, h| {
                    let b = level - 1;
                    if b < cached.len() {
                        for &(local, slot) in &cached[b] {
                            cache.read_into(level, slot, now, policy, h.row_mut(local as usize));
                        }
                    }
                })
        });

        // 5. Loss + backward with gradient harvesting and detach.
        let num_levels = st.dims.len() - 1;
        let loss = ctx.stage(StageKind::Backward, counters, |_, _| {
            let Workspace {
                trace,
                grads,
                labels,
                policy_inputs,
                is_cached,
            } = &mut *st.ws;
            let logits = trace.h.last().expect("at least one layer");
            labels.clear();
            labels.extend(mb.seeds.iter().map(|&s| ds.labels[s as usize]));
            let loss = softmax_cross_entropy_into(logits, labels, &mut grads.d_top);

            st.model.zero_grad();
            reset_policy_inputs(policy_inputs, num_levels);
            let cache_enabled = st.cfg.cache_enabled();
            let hook = |level: usize, d: &mut Matrix| {
                // The top level (the logits) is never cached.
                if !cache_enabled || level == num_levels {
                    return;
                }
                let b = level - 1;
                harvest_and_detach(
                    d,
                    &mb.blocks[b].dst_global,
                    &outcome.computed[b],
                    &outcome.cached[b],
                    is_cached,
                    &mut policy_inputs[level],
                );
            };
            st.model.backward_into(&mb, trace, grads, computed, hook);
            loss
        });

        // 6. Cache update (Algorithm 1 line 20).
        ctx.stage(StageKind::CacheUpdate, counters, |_, _| {
            st.update_cache(policy_rng, |trace, level| &trace.h[level]);
        });

        // 7. Optimizer step.
        ctx.stage(StageKind::OptimStep, counters, |_, _| {
            let mut params = st.model.params_mut();
            opt.step(&mut params);
        });

        // Simulated GPU compute time: one charge per batch (forward +
        // backward FLOPs), attributed to the Backward stage. Charged after
        // the optimizer step to keep the seed trainers' f64 accumulation
        // order, which the bit-for-bit equivalence guarantee depends on.
        let flops = batch_flops(&mb, &outcome, st.dims, st.model.arch);
        ctx.stage(StageKind::Backward, counters, |_, c| {
            c.compute_seconds += st.machine.gpu.compute_seconds(flops);
        });

        Some(BatchOutput {
            loss,
            cache_reads: outcome.cached.iter().map(Vec::len).sum::<usize>() as u64,
            computed_nodes: outcome.computed.iter().flatten().filter(|&&c| c).count() as u64,
            degraded: false,
        })
    }

    fn accuracy(
        model: &Model,
        ds: &Dataset,
        nodes: &[NodeId],
        fanouts: &[usize],
        batch_size: usize,
        rng: &mut Rng,
    ) -> f64 {
        EvalHarness::accuracy(model, ds, nodes, fanouts, batch_size, rng)
    }

    fn static_resident(&self) -> Vec<bool> {
        self.static_cache.export()
    }

    fn restore_static(&mut self, resident: &[bool]) -> Result<(), CheckpointError> {
        if resident.len() != self.static_cache.num_nodes() {
            return Err(CheckpointError::ShapeMismatch(format!(
                "checkpoint static cache covers {} nodes, dataset has {}",
                resident.len(),
                self.static_cache.num_nodes()
            )));
        }
        self.static_cache = StaticFeatureCache::import(resident.to_vec());
        Ok(())
    }

    fn publish_metrics(&self, m: &mut Metrics) {
        let e = MetricClass::Exact;
        m.counter_set("cache.static.hits", e, self.static_cache.hits());
        m.counter_set("cache.static.misses", e, self.static_cache.misses());
        m.gauge_set(
            "cache.static.resident_rows",
            e,
            self.static_cache.len() as f64,
        );
    }
}

/// FLOPs of one mini-batch forward+backward (≈3× forward, the usual
/// estimate): aggregation over live edges plus dense transforms for
/// computed destinations.
pub(crate) fn batch_flops(
    mb: &MiniBatch,
    outcome: &PruneOutcome,
    dims: &[usize],
    arch: Arch,
) -> f64 {
    let mut fwd = 0.0;
    for (b, block) in mb.blocks.iter().enumerate() {
        let in_dim = dims[b];
        let out_dim = dims[b + 1];
        let edges = block.num_edges();
        let n_comp = outcome.computed[b].iter().filter(|&&c| c).count();
        fwd += aggregation_flops(edges, in_dim);
        let dense_in = match arch {
            Arch::Sage => 2 * in_dim,
            _ => in_dim,
        };
        fwd += dense_flops(n_comp, dense_in, out_dim);
        if arch == Arch::Gat {
            // Attention scores + weighted sum, ~4 flops per edge per dim.
            fwd += 4.0 * edges as f64 * out_dim as f64;
        }
    }
    3.0 * fwd
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgnn_graph::datasets::arxiv_spec;
    use fgnn_nn::Adam;

    fn tiny_dataset() -> Dataset {
        Dataset::materialize(arxiv_spec(0.0).with_dim(16), 42) // 256 nodes
    }

    fn config(p_grad: f32, t_stale: u32) -> FreshGnnConfig {
        FreshGnnConfig {
            p_grad,
            t_stale,
            fanouts: vec![4, 4],
            batch_size: 32,
            ..Default::default()
        }
    }

    #[test]
    fn training_reduces_loss() {
        let ds = tiny_dataset();
        let mut t = Trainer::new(
            &ds,
            Arch::Sage,
            32,
            Machine::single_a100(),
            config(0.9, 50),
            1,
        );
        let mut opt = Adam::new(0.01);
        let first = t.train_epoch(&ds, &mut opt);
        let mut last = first.clone();
        for _ in 0..8 {
            last = t.train_epoch(&ds, &mut opt);
        }
        assert!(
            last.mean_loss < first.mean_loss * 0.8,
            "loss {} -> {}",
            first.mean_loss,
            last.mean_loss
        );
    }

    #[test]
    fn cache_gets_used_after_warmup() {
        let ds = tiny_dataset();
        let mut t = Trainer::new(
            &ds,
            Arch::Gcn,
            16,
            Machine::single_a100(),
            config(0.9, 100),
            2,
        );
        let mut opt = Adam::new(0.01);
        t.train_epoch(&ds, &mut opt);
        let second = t.train_epoch(&ds, &mut opt);
        assert!(
            second.cache_reads > 0,
            "cache must serve hits on the second epoch"
        );
        let stats = t.cache.stats();
        assert!(stats.admits > 0);
        assert!(stats.hit_rate() > 0.0);
    }

    #[test]
    fn p_grad_zero_never_touches_cache() {
        let ds = tiny_dataset();
        let mut t = Trainer::new(
            &ds,
            Arch::Sage,
            16,
            Machine::single_a100(),
            config(0.0, 0),
            3,
        );
        let mut opt = Adam::new(0.01);
        for _ in 0..3 {
            let s = t.train_epoch(&ds, &mut opt);
            assert_eq!(s.cache_reads, 0);
        }
        assert_eq!(t.cache.stats().admits, 0);
        assert!(t.cache.is_empty());
    }

    #[test]
    fn cache_reduces_wire_traffic() {
        let ds = tiny_dataset();
        let mut opt1 = Adam::new(0.01);
        let mut opt2 = Adam::new(0.01);
        let mut plain = Trainer::new(
            &ds,
            Arch::Sage,
            16,
            Machine::single_a100(),
            config(0.0, 0),
            4,
        );
        let mut cached = Trainer::new(
            &ds,
            Arch::Sage,
            16,
            Machine::single_a100(),
            config(0.95, 100),
            4,
        );
        let mut plain_bytes = 0;
        let mut cached_bytes = 0;
        for _ in 0..5 {
            plain_bytes += plain.train_epoch(&ds, &mut opt1).counters.host_to_gpu_bytes;
            cached_bytes += cached
                .train_epoch(&ds, &mut opt2)
                .counters
                .host_to_gpu_bytes;
        }
        assert!(
            cached_bytes < plain_bytes,
            "cached {cached_bytes} vs plain {plain_bytes}"
        );
    }

    #[test]
    fn evaluate_returns_sane_accuracy() {
        let ds = tiny_dataset();
        let mut t = Trainer::new(
            &ds,
            Arch::Sage,
            32,
            Machine::single_a100(),
            config(0.9, 50),
            5,
        );
        let mut opt = Adam::new(0.01);
        for _ in 0..12 {
            t.train_epoch(&ds, &mut opt);
        }
        let acc = t.evaluate(&ds, &ds.test_nodes, 64);
        // 64-class tiny task trained briefly: must beat random (1/64) by a
        // wide margin.
        assert!(acc > 0.10, "accuracy {acc}");
    }

    #[test]
    fn accuracy_with_cache_close_to_plain() {
        let ds = tiny_dataset();
        let mut opt1 = Adam::new(0.01);
        let mut opt2 = Adam::new(0.01);
        let machine = Machine::single_a100();
        let mut plain = Trainer::new(&ds, Arch::Gcn, 16, machine.clone(), config(0.0, 0), 6);
        let mut cached = Trainer::new(&ds, Arch::Gcn, 16, machine, config(0.9, 50), 6);
        for _ in 0..10 {
            plain.train_epoch(&ds, &mut opt1);
            cached.train_epoch(&ds, &mut opt2);
        }
        let a_plain = plain.evaluate(&ds, &ds.test_nodes, 64);
        let a_cached = cached.evaluate(&ds, &ds.test_nodes, 64);
        assert!(
            (a_plain - a_cached).abs() < 0.10,
            "plain {a_plain} vs cached {a_cached}"
        );
    }

    #[test]
    fn async_epoch_trains_and_is_thread_count_invariant() {
        let ds = tiny_dataset();
        let machine = Machine::single_a100();
        let run = |threads: usize| {
            let mut t = Trainer::new(&ds, Arch::Sage, 16, machine.clone(), config(0.9, 30), 21);
            let mut opt = Adam::new(0.01);
            let mut losses = Vec::new();
            for _ in 0..3 {
                losses.push(
                    t.train_epoch_async(&ds, &mut opt, threads, 4)
                        .expect("no faults injected")
                        .mean_loss,
                );
            }
            (losses, t.counters.host_to_gpu_bytes)
        };
        let (l1, b1) = run(1);
        let (l4, b4) = run(4);
        assert_eq!(l1, l4, "async stream must be thread-count invariant");
        assert_eq!(b1, b4);
        assert!(l1[2] < l1[0], "loss must decrease: {l1:?}");
    }

    #[test]
    fn resilient_epoch_rolls_back_on_injected_nan() {
        use crate::resilience::Supervisor;
        let ds = tiny_dataset();
        let mut t = Trainer::new(
            &ds,
            Arch::Sage,
            16,
            Machine::single_a100(),
            config(0.9, 50),
            7,
        );
        let mut opt = Adam::new(0.01);
        let mut sup = Supervisor::default();
        let clean = t.train_epoch_resilient(&ds, &mut opt, &mut sup).unwrap();
        assert!(sup.transitions().is_empty(), "clean epoch stays healthy");
        assert_eq!(sup.rollbacks(), 0);

        t.inject_nan_at([t.iterations() + 3]);
        let recovered = t.train_epoch_resilient(&ds, &mut opt, &mut sup).unwrap();
        assert_eq!(sup.rollbacks(), 1);
        let arcs: Vec<_> = sup
            .transitions()
            .iter()
            .map(|tr| (tr.from.name(), tr.to.name()))
            .collect();
        assert_eq!(
            arcs,
            vec![
                ("healthy", "degraded"),
                ("degraded", "recovering"),
                ("recovering", "healthy"),
            ]
        );
        // The rollback restored the RNG, so the replay walks the full
        // batch schedule; the injection was consumed, so it runs clean.
        assert_eq!(recovered.batches, clean.batches);
        assert!(recovered.mean_loss.is_finite());
        assert_eq!(t.epochs(), 2, "replay must not inflate the epoch count");
    }

    #[test]
    fn resilient_epoch_errors_when_rollback_budget_exhausted() {
        use crate::error::FgnnError;
        use crate::resilience::{Supervisor, SupervisorConfig};
        let ds = tiny_dataset();
        let mut t = Trainer::new(
            &ds,
            Arch::Sage,
            16,
            Machine::single_a100(),
            config(0.9, 50),
            8,
        );
        let mut opt = Adam::new(0.01);
        let mut sup = Supervisor::new(SupervisorConfig { max_rollbacks: 2 });
        // Injections at the same post-rollback iteration re-fire on every
        // replay: a persistent divergence.
        t.inject_nan_at([0, 1, 2, 3]);
        let err = t
            .train_epoch_resilient(&ds, &mut opt, &mut sup)
            .unwrap_err();
        assert!(matches!(err, FgnnError::Numeric(_)), "{err}");
        assert_eq!(sup.rollbacks(), 2);
    }

    #[test]
    fn async_epoch_uses_cache_like_sync() {
        let ds = tiny_dataset();
        let mut t = Trainer::new(
            &ds,
            Arch::Gcn,
            16,
            Machine::single_a100(),
            config(0.9, 50),
            22,
        );
        let mut opt = Adam::new(0.01);
        t.train_epoch_async(&ds, &mut opt, 2, 4).unwrap();
        let s = t.train_epoch_async(&ds, &mut opt, 2, 4).unwrap();
        assert!(s.cache_reads > 0, "cache must serve hits on epoch 2");
        assert_eq!(t.epochs(), 2);
    }
}
