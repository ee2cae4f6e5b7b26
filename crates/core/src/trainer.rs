// Index-based loops below intentionally walk several parallel arrays in
// lockstep; iterator zips would obscure the math. Clippy disagrees.
#![allow(clippy::needless_range_loop)]

//! Algorithm 1: mini-batch training with the historical embedding cache.
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

use crate::cache::{CachePolicy, HistoricalCache, PolicyInput, StaticFeatureCache};
use crate::checkpoint::{Checkpoint, CheckpointError};
use crate::config::FreshGnnConfig;
use crate::loader::FeatureLoader;
use crate::obs::{MetricClass, Obs};
use crate::pipeline::{BatchOutput, Engine, EvalHarness, PipelineCtx, StallPolicy};
use crate::prune::{prune_with_cache_policy, PruneOutcome};
use crate::resilience::{HealthState, NumericFault, NumericGuard, Supervisor};
use crate::sampler::{FaultHook, HedgePolicy, SampleError, SamplerObsReport};
use fgnn_graph::block::MiniBatch;
use fgnn_graph::sample::{split_batches, NeighborSampler};
use fgnn_graph::{Dataset, NodeId};
use fgnn_memsim::fault::{BreakerPolicy, BreakerState, FaultPlan, FaultState, RetryPolicy};
use fgnn_memsim::presets::{aggregation_flops, dense_flops, Machine};
use fgnn_memsim::stage::{StageKind, StageTimings};
use fgnn_memsim::topology::Node;
use fgnn_memsim::TrafficCounters;
use fgnn_nn::loss::softmax_cross_entropy;
use fgnn_nn::model::{Arch, Model};
use fgnn_nn::Optimizer;
use fgnn_tensor::{Matrix, Rng};
use std::collections::BTreeSet;

pub use crate::pipeline::EpochStats;

/// The FreshGNN trainer (plus, with `p_grad = 0`, the vanilla
/// neighbor-sampling baseline and, via `LoadMode`, the DGL/PyG/
/// PyTorch-Direct traffic configurations).
pub struct Trainer {
    /// The GNN under training.
    pub model: Model,
    /// Hyper-parameters.
    pub cfg: FreshGnnConfig,
    /// The historical embedding cache.
    pub cache: HistoricalCache,
    /// The admission/read/refresh policy governing the cache, built from
    /// `cfg.policy` at construction (DESIGN.md §11).
    policy: Box<dyn CachePolicy>,
    /// Cumulative traffic/time ledger.
    pub counters: TrafficCounters,
    /// Simulated machine.
    pub machine: Machine,
    /// Cumulative per-stage attribution of `counters` (not checkpointed:
    /// a resumed run restarts attribution while the ledger stays exact).
    pub timings: StageTimings,
    /// Observability state: sim-clock spans plus the metrics registry,
    /// fed by the pipeline engine, the caches and the async sampler. Not
    /// checkpointed — telemetry restarts on resume.
    pub obs: Obs,
    static_cache: StaticFeatureCache,
    sampler: NeighborSampler,
    dims: Vec<usize>,
    iter: u32,
    epoch: u32,
    rng: Rng,
    /// Interconnect fault schedule; threaded through the per-epoch engine
    /// so the fault RNG stream continues across epochs.
    faults: FaultState,
    /// Test hook forwarded to async sampler workers (fault injection).
    sampler_fault_hook: Option<FaultHook>,
    /// Iterations whose reported loss is forced to NaN (chaos-test hook
    /// for the numeric-health guard). Entries are consumed when they fire.
    nan_iters: BTreeSet<u32>,
    /// Straggler-hedging policy for the async sampler (off by default).
    hedge: Option<HedgePolicy>,
    /// Seeded adversarial scheduling on the async sampler's runtime
    /// (`None` in production; the schedule-fuzzing suite turns it on).
    sampler_chaos: Option<crate::runtime::ChaosPolicy>,
    /// Set by a degraded restore; consumed into the next epoch's stats.
    degraded_resume: bool,
}

impl Trainer {
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
        cfg.validate().expect("invalid config");
        let mut rng = Rng::new(seed);
        let num_layers = cfg.num_layers();
        let mut dims = Vec::with_capacity(num_layers + 1);
        dims.push(ds.spec.feature_dim);
        for _ in 1..num_layers {
            dims.push(hidden);
        }
        dims.push(ds.spec.num_classes);
        let model = Model::new(arch, &dims, &mut rng);

        let policy = cfg.build_policy();
        let mut cache = HistoricalCache::new(
            ds.num_nodes(),
            &dims[1..],
            cfg.t_stale,
            cfg.cache_capacity,
            cfg.cache_top_layer,
            cfg.cache_enabled(),
        );
        if policy.wants_history() {
            cache.enable_history();
        }
        let static_cache = if cfg.feature_cache_rows > 0 {
            StaticFeatureCache::by_degree(&ds.graph, cfg.feature_cache_rows)
        } else {
            StaticFeatureCache::disabled(ds.num_nodes())
        };
        Trainer {
            model,
            cache,
            policy,
            counters: TrafficCounters::new(),
            machine,
            timings: StageTimings::new(),
            obs: Obs::new(),
            static_cache,
            sampler: NeighborSampler::new(ds.num_nodes()),
            dims,
            cfg,
            iter: 0,
            epoch: 0,
            rng,
            faults: FaultState::none(),
            sampler_fault_hook: None,
            nan_iters: BTreeSet::new(),
            hedge: None,
            sampler_chaos: None,
            degraded_resume: false,
        }
    }

    /// Inject interconnect faults: every subsequent epoch's transfers are
    /// subjected to `plan` under `policy`. The plan's RNG stream persists
    /// across epochs, so a full run is one deterministic fault schedule.
    pub fn inject_faults(&mut self, plan: FaultPlan, policy: RetryPolicy) {
        self.faults.inject(plan, policy);
    }

    /// Install a hook invoked inside async sampler workers before each
    /// batch attempt (`(batch_index, attempt)`) — panics it raises exercise
    /// the worker-recovery path. Test-only in spirit, but harmless live.
    pub fn set_sampler_fault_hook(&mut self, hook: Option<FaultHook>) {
        self.sampler_fault_hook = hook;
    }

    /// Arm the interconnect circuit breaker under `policy`: repeated
    /// budget-exhausted transfers trip it open, and while it is open the
    /// pipeline runs batches in **degraded mode** (ring cache bypassed,
    /// every needed row fetched raw) instead of burning retry time.
    pub fn enable_breaker(&mut self, policy: BreakerPolicy) {
        self.faults.arm_breaker(policy);
    }

    /// Force the loss reported at the given iterations to NaN (chaos-test
    /// hook exercising the numeric-health guard and rollback path inside
    /// [`Trainer::train_epoch_resilient`]). Each entry fires once.
    pub fn inject_nan_at(&mut self, iters: impl IntoIterator<Item = u32>) {
        self.nan_iters.extend(iters);
    }

    /// Enable (or disable with `None`) straggler hedging on
    /// [`Trainer::train_epoch_async`]'s sampler: overdue batches are
    /// re-dispatched inline with identical RNG, so hedging never changes
    /// the delivered stream — only its latency.
    pub fn set_hedge(&mut self, policy: Option<HedgePolicy>) {
        self.hedge = policy;
    }

    /// Enable (or disable with `None`) seeded adversarial scheduling on
    /// the async sampler's work-stealing runtime: forced steals, delayed
    /// pops and worker stalls, all drawn from the policy's seed. Chaos
    /// perturbs only *where and when* batches are sampled — the committed
    /// stream, losses and every `Exact` metric are invariant to it (the
    /// schedule-fuzzing suite pins this).
    pub fn set_sampler_chaos(&mut self, chaos: Option<crate::runtime::ChaosPolicy>) {
        self.sampler_chaos = chaos;
    }

    /// State of the interconnect circuit breaker, if one is armed.
    pub fn breaker_state(&self) -> Option<BreakerState> {
        self.faults.breaker_state()
    }

    /// Breaker lifetime statistics `(trips, fast_fails)`, if one is armed.
    pub fn breaker_stats(&self) -> Option<(u64, u64)> {
        self.faults
            .breaker
            .as_ref()
            .map(|b| (b.trips, b.fast_fails))
    }

    /// Layer dimensions `[in, hidden.., out]`.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Iterations executed so far.
    pub fn iterations(&self) -> u32 {
        self.iter
    }

    /// Completed epochs so far.
    pub fn epochs(&self) -> u32 {
        self.epoch
    }

    /// Capture the full training state — model parameters, optimizer
    /// moments, RNG, `(epoch, iteration)` cursor, traffic ledger and both
    /// caches — as a [`Checkpoint`]. Restoring it (into this or a freshly
    /// constructed identically-configured trainer) replays the exact
    /// remaining batch stream.
    pub fn checkpoint(&mut self, opt: &dyn Optimizer) -> Checkpoint {
        Checkpoint {
            arch: self.model.arch,
            dims: self.dims.clone(),
            params: self.model.export_parameters(),
            optimizer: opt.export_state(),
            rng_state: self.rng.state(),
            epoch: self.epoch,
            iter: self.iter,
            counters: self.counters.clone(),
            static_resident: self.static_cache.export(),
            cache: Some(self.cache.snapshot()),
            cache_degraded: false,
        }
    }

    /// Restore state from a checkpoint taken by an identically-configured
    /// trainer (same dataset, arch, dims, config, optimizer type).
    ///
    /// Returns `Ok(degraded)`: `degraded = true` means the checkpoint's
    /// historical-cache segment was missing, corrupt, or incompatible, and
    /// training resumed with an empty (cold) cache — correct, just slower
    /// to re-warm. The degradation is also recorded in the next epoch's
    /// [`EpochStats::cache_degraded`]. Core-state mismatches are hard
    /// [`CheckpointError::ShapeMismatch`] errors.
    pub fn restore(
        &mut self,
        ckpt: &Checkpoint,
        opt: &mut dyn Optimizer,
    ) -> Result<bool, CheckpointError> {
        if ckpt.arch != self.model.arch {
            return Err(CheckpointError::ShapeMismatch(format!(
                "checkpoint arch {} vs trainer {}",
                ckpt.arch, self.model.arch
            )));
        }
        if ckpt.dims != self.dims {
            return Err(CheckpointError::ShapeMismatch(format!(
                "checkpoint dims {:?} vs trainer {:?}",
                ckpt.dims, self.dims
            )));
        }
        if ckpt.params.len() != self.model.num_parameters() {
            return Err(CheckpointError::ShapeMismatch(format!(
                "checkpoint has {} parameters, model has {}",
                ckpt.params.len(),
                self.model.num_parameters()
            )));
        }
        if ckpt.static_resident.len() != self.static_cache.num_nodes() {
            return Err(CheckpointError::ShapeMismatch(format!(
                "checkpoint static cache covers {} nodes, dataset has {}",
                ckpt.static_resident.len(),
                self.static_cache.num_nodes()
            )));
        }
        self.model.import_parameters(&ckpt.params);
        opt.import_state(ckpt.optimizer.clone());
        self.rng = Rng::from_state(ckpt.rng_state);
        self.epoch = ckpt.epoch;
        self.iter = ckpt.iter;
        self.counters = ckpt.counters.clone();
        self.static_cache = StaticFeatureCache::import(ckpt.static_resident.clone());
        let mut degraded = ckpt.cache_degraded;
        let restored = match &ckpt.cache {
            Some(snapshot) => self.cache.restore(snapshot.clone()).is_ok(),
            None => false,
        };
        if !restored {
            // Graceful degradation: resume correct but cold.
            self.cache.clear();
            degraded = true;
        } else {
            // The snapshot may have been taken from a cache that ran past
            // the checkpoint's iteration cursor (rollback, or a grafted
            // segment). Future-stamped entries would look forever fresh
            // (`age = now - stamp` saturates at 0) and silently violate
            // the t_stale bound — evict them now.
            self.cache.evict_newer_than(ckpt.iter);
        }
        self.degraded_resume = degraded;
        // Align the metric baseline with the restored cache counters, so
        // per-epoch metric deltas after resume match a never-interrupted
        // run (restored absolutes, not stale pre-restore ones).
        self.sync_cache_metrics();
        Ok(degraded)
    }

    /// Plan one epoch's batch schedule: fork the shuffle RNG (advancing
    /// the trainer's RNG stream exactly as [`Trainer::train_epoch`] does)
    /// and split the training nodes into shuffled batches.
    ///
    /// `train_epoch` is exactly `plan_epoch_batches` +
    /// [`Trainer::train_on_batches`] over the result — the cluster
    /// trainer uses the split form to step one batch per BSP round while
    /// staying bit-identical to a whole-epoch call.
    pub fn plan_epoch_batches(&mut self, ds: &Dataset) -> Vec<Vec<NodeId>> {
        let mut shuffle_rng = self.rng.fork();
        split_batches(&ds.train_nodes, self.cfg.batch_size, Some(&mut shuffle_rng))
    }

    /// Train one epoch: shuffle the training nodes, split into batches,
    /// run Algorithm 1 on each.
    pub fn train_epoch(&mut self, ds: &Dataset, opt: &mut dyn Optimizer) -> EpochStats {
        let batches = self.plan_epoch_batches(ds);
        self.train_on_batches(ds, &batches, opt)
    }

    /// Train on an explicit batch schedule (used by the Fig 17 experiment
    /// to feed two trainers identical batches).
    pub fn train_on_batches(
        &mut self,
        ds: &Dataset,
        batches: &[Vec<NodeId>],
        opt: &mut dyn Optimizer,
    ) -> EpochStats {
        let topo = self.machine.topology.clone();
        // Split the trainer into disjoint borrows: the stage set holds the
        // model/cache/RNG side, while the engine drives the fault plan and
        // the traffic ledger.
        let loader = FeatureLoader::new(
            &ds.features,
            ds.spec.feature_row_bytes(),
            std::mem::replace(&mut self.static_cache, StaticFeatureCache::disabled(0)),
            self.cfg.load_mode,
        );
        let mut stages = FreshGnnStages {
            model: &mut self.model,
            cache: &mut self.cache,
            policy: &*self.policy,
            sampler: &mut self.sampler,
            rng: &mut self.rng,
            iter: &mut self.iter,
            cfg: &self.cfg,
            dims: &self.dims,
            machine: &self.machine,
            loader,
            ds,
        };
        let result = Engine::run_epoch(
            &topo,
            &mut self.faults,
            &mut self.counters,
            &mut self.obs,
            StallPolicy::Free,
            batches.iter().map(Ok::<_, std::convert::Infallible>),
            |ctx, counters, seeds| Some(stages.train_batch(ctx, counters, seeds, opt)),
        );
        self.static_cache = stages.loader.into_static_cache();
        let mut stats = result.unwrap();
        self.finish_epoch(&mut stats);
        stats
    }

    /// Train one epoch under the health supervisor: every batch loss is
    /// fed through `sup`'s [`NumericGuard`], and a tripped guard (NaN/Inf
    /// loss, or a loss spike past the z-score threshold) aborts the epoch,
    /// rolls the trainer back to the supervisor's last-known-good baseline
    /// checkpoint and replays it. The rollback restores the RNG, so the
    /// replay walks the exact same batch schedule; restoring also evicts
    /// ring-cache entries stamped after the baseline iteration, keeping
    /// the `t_stale` bound intact across the rewind.
    ///
    /// State machine: a fault moves the supervisor `→ Degraded`, the
    /// rollback `→ Recovering`, and the first clean epoch `→ Healthy`
    /// (which also refreshes the baseline). If the circuit breaker is open
    /// after a clean epoch the supervisor parks in `Degraded` instead and
    /// the baseline is left alone.
    ///
    /// Errors with [`FgnnError::Numeric`] once `sup`'s rollback budget is
    /// exhausted (a deterministic divergence replays identically, so
    /// retrying forever would livelock).
    pub fn train_epoch_resilient(
        &mut self,
        ds: &Dataset,
        opt: &mut dyn Optimizer,
        sup: &mut Supervisor,
    ) -> Result<EpochStats, crate::error::FgnnError> {
        use crate::error::FgnnError;
        if !sup.has_baseline() {
            sup.set_baseline(self.checkpoint(opt));
        }
        loop {
            let mut shuffle_rng = self.rng.fork();
            let batches =
                split_batches(&ds.train_nodes, self.cfg.batch_size, Some(&mut shuffle_rng));
            let mut nan_iters = std::mem::take(&mut self.nan_iters);
            let (stats, fault) =
                self.train_on_batches_guarded(ds, &batches, opt, &mut sup.guard, &mut nan_iters);
            // Unconsumed injections stay armed for later iterations.
            self.nan_iters = nan_iters;
            let Some(fault) = fault else {
                let breaker_open = matches!(self.faults.breaker_state(), Some(BreakerState::Open));
                if breaker_open || stats.degraded_batches > 0 {
                    sup.transition(
                        HealthState::Degraded,
                        self.iter,
                        self.epoch,
                        "breaker-open",
                        &mut self.obs,
                    );
                } else {
                    sup.transition(
                        HealthState::Healthy,
                        self.iter,
                        self.epoch,
                        "epoch-clean",
                        &mut self.obs,
                    );
                    sup.set_baseline(self.checkpoint(opt));
                }
                return Ok(stats);
            };
            sup.transition(
                HealthState::Degraded,
                fault.iter(),
                self.epoch,
                fault.cause(),
                &mut self.obs,
            );
            if !sup.can_roll_back() {
                return Err(FgnnError::Numeric(format!(
                    "rollback budget exhausted after {} rollbacks: {}",
                    sup.rollbacks(),
                    fault.cause()
                )));
            }
            let ckpt = sup.baseline().cloned().ok_or_else(|| {
                FgnnError::Numeric(format!("no baseline to roll back to: {}", fault.cause()))
            })?;
            self.restore(&ckpt, opt)?;
            sup.record_rollback(&mut self.obs);
            sup.transition(
                HealthState::Recovering,
                ckpt.iter,
                self.epoch,
                "rollback",
                &mut self.obs,
            );
        }
    }

    /// [`Trainer::train_on_batches`] with the numeric-health guard in the
    /// loop. Once the guard trips, the remaining batches are skipped (no
    /// further parameter updates on a known-bad trajectory) and the fault
    /// is returned alongside the partial epoch's stats.
    fn train_on_batches_guarded(
        &mut self,
        ds: &Dataset,
        batches: &[Vec<NodeId>],
        opt: &mut dyn Optimizer,
        guard: &mut NumericGuard,
        nan_iters: &mut BTreeSet<u32>,
    ) -> (EpochStats, Option<NumericFault>) {
        let topo = self.machine.topology.clone();
        let loader = FeatureLoader::new(
            &ds.features,
            ds.spec.feature_row_bytes(),
            std::mem::replace(&mut self.static_cache, StaticFeatureCache::disabled(0)),
            self.cfg.load_mode,
        );
        let mut stages = FreshGnnStages {
            model: &mut self.model,
            cache: &mut self.cache,
            policy: &*self.policy,
            sampler: &mut self.sampler,
            rng: &mut self.rng,
            iter: &mut self.iter,
            cfg: &self.cfg,
            dims: &self.dims,
            machine: &self.machine,
            loader,
            ds,
        };
        let mut fault: Option<NumericFault> = None;
        let result = Engine::run_epoch(
            &topo,
            &mut self.faults,
            &mut self.counters,
            &mut self.obs,
            StallPolicy::Free,
            batches.iter().map(Ok::<_, std::convert::Infallible>),
            |ctx, counters, seeds| {
                if fault.is_some() {
                    return None;
                }
                let it = *stages.iter;
                let mut out = stages.train_batch(ctx, counters, seeds, opt);
                if nan_iters.remove(&it) {
                    out.loss = f32::NAN;
                }
                if let Some(f) = guard.observe(it, out.loss) {
                    fault = Some(f);
                    // The faulty loss must not poison the epoch mean.
                    return None;
                }
                Some(out)
            },
        );
        self.static_cache = stages.loader.into_static_cache();
        let mut stats = result.unwrap();
        self.finish_epoch(&mut stats);
        (stats, fault)
    }

    /// Post-epoch bookkeeping shared by the sync and async paths.
    fn finish_epoch(&mut self, stats: &mut EpochStats) {
        self.epoch += 1;
        self.timings.merge(&stats.timings);
        stats.cache_degraded = std::mem::take(&mut self.degraded_resume);
        if stats.cache_degraded {
            self.obs
                .metrics
                .counter_add("pipeline.cache_degraded_epochs", MetricClass::Exact, 1);
        }
        self.sync_cache_metrics();
    }

    /// Publish both caches' internal counters into the metrics registry.
    /// Called after every epoch and after a restore (so that per-epoch
    /// metric *deltas* line up between a fresh run and a resumed one —
    /// the property `tests/checkpoint_resume.rs` pins).
    fn sync_cache_metrics(&mut self) {
        let stats = self.cache.stats();
        let m = &mut self.obs.metrics;
        let e = MetricClass::Exact;
        m.counter_set("cache.hist.hits", e, stats.hits);
        m.counter_set("cache.hist.misses", e, stats.misses);
        m.counter_set("cache.hist.lookups", e, self.cache.lookups());
        m.counter_set("cache.hist.admits", e, stats.admits);
        m.counter_set("cache.hist.keeps", e, stats.keeps);
        m.counter_set("cache.hist.grad_evictions", e, stats.grad_evictions);
        m.counter_set("cache.hist.stale_evictions", e, stats.stale_evictions);
        m.counter_set("cache.hist.overwrites", e, stats.overwrites);
        m.counter_set(
            "cache.policy.scheduled_refreshes",
            e,
            stats.scheduled_refreshes,
        );
        m.counter_set("cache.policy.weighted_reads", e, stats.weighted_reads);
        m.counter_set("cache.policy.predicted_reads", e, stats.predicted_reads);
        m.hist_set(
            "cache.hist.hit_age_iters",
            e,
            self.cache.hit_age_histogram(),
        );
        m.gauge_set("cache.hist.resident_entries", e, self.cache.len() as f64);
        m.gauge_set("cache.hist.bytes", e, self.cache.bytes() as f64);
        m.counter_set("cache.static.hits", e, self.static_cache.hits());
        m.counter_set("cache.static.misses", e, self.static_cache.misses());
        m.gauge_set(
            "cache.static.resident_rows",
            e,
            self.static_cache.len() as f64,
        );
    }

    /// Fold one async-sampling job's report into the metrics registry
    /// (totals accumulate across epochs; per-worker timings are
    /// wall-clock and therefore `Measured`).
    fn record_sampler_obs(&mut self, r: &SamplerObsReport) {
        let m = &mut self.obs.metrics;
        m.counter_add("sampler.batches", MetricClass::Exact, r.batches);
        m.counter_add(
            "sampler.resample_retries",
            MetricClass::Exact,
            r.resample_retries,
        );
        // Hedge counts depend on wall-clock straggler timing: Measured,
        // never part of the Exact rerun-identical stream.
        m.counter_add("sampler.hedges", MetricClass::Measured, r.hedges);
        m.counter_add(
            "sampler.hedge_discards",
            MetricClass::Measured,
            r.hedge_discards,
        );
        // Work-stealing schedule artifacts: real, but never Exact — the
        // same epoch steals differently every run.
        m.counter_add("sampler.steals", MetricClass::Measured, r.steals);
        m.counter_add(
            "sampler.stolen_tasks",
            MetricClass::Measured,
            r.stolen_tasks,
        );
        m.counter_add("sampler.parks", MetricClass::Measured, r.parks);
        for (w, (&t, &n)) in r.worker_tasks.iter().zip(&r.worker_task_nanos).enumerate() {
            m.counter_add(
                &format!("sampler.worker.{w}.tasks"),
                MetricClass::Measured,
                t,
            );
            m.counter_add(
                &format!("sampler.worker.{w}.task_ns"),
                MetricClass::Measured,
                n,
            );
        }
        let mut task_secs = m
            .histogram("sampler.task_seconds")
            .cloned()
            .unwrap_or_default();
        task_secs.merge(&r.task_seconds);
        m.hist_set("sampler.task_seconds", MetricClass::Measured, task_secs);
        let mut depth = m
            .histogram("sampler.queue_depth")
            .cloned()
            .unwrap_or_default();
        depth.merge(&r.queue_depth);
        m.hist_set("sampler.queue_depth", MetricClass::Measured, depth);
    }

    /// Train one epoch with the **asynchronous pipeline** of §5: worker
    /// threads sample un-pruned mini-batches ahead of time into a bounded
    /// queue while this thread prunes/loads/trains. Only the time the
    /// consumer actually *stalls* waiting on the queue is charged as
    /// sampling time — with enough workers sampling fully overlaps
    /// training, which is the paper's design goal.
    ///
    /// Deterministic: the sampled stream is identical for any
    /// `num_threads` (per-batch RNG + in-order delivery) and across worker
    /// panics recovered by re-sampling (`cfg.sampler_retries`).
    ///
    /// Returns an error when a batch could not be produced even after
    /// retries ([`SampleError::BatchPanicked`]) or the workers died
    /// entirely ([`SampleError::WorkersLost`]) — a shortfall is never a
    /// silent short epoch. Progress made before the failure (parameter
    /// updates, cache admissions, counters) is kept; the caller decides
    /// whether to retry the epoch or abort.
    pub fn train_epoch_async(
        &mut self,
        ds: &Dataset,
        opt: &mut dyn Optimizer,
        num_threads: usize,
        queue_capacity: usize,
    ) -> Result<EpochStats, SampleError> {
        let batches = self.plan_epoch_batches(ds);
        self.train_on_batches_async(ds, &batches, opt, num_threads, queue_capacity)
    }

    /// Async-pipeline counterpart of [`Trainer::train_on_batches`]: run
    /// the work-stealing sampler + pipeline over an explicit batch
    /// schedule. `train_epoch_async` is [`Trainer::plan_epoch_batches`] +
    /// this; the cluster trainer calls it one batch per BSP round.
    ///
    /// Each call forks the trainer RNG once for the per-task batch seed,
    /// so the same sequence of calls replays the same sampled stream.
    pub fn train_on_batches_async(
        &mut self,
        ds: &Dataset,
        batches: &[Vec<NodeId>],
        opt: &mut dyn Optimizer,
        num_threads: usize,
        queue_capacity: usize,
    ) -> Result<EpochStats, SampleError> {
        use crate::sampler::AsyncSampler;
        let batch_seed = self.rng.fork().next_u64();

        let graph = std::sync::Arc::new(ds.graph.clone());
        let runtime_cfg = crate::runtime::RuntimeConfig {
            workers: num_threads.max(1),
            queue_capacity: queue_capacity.max(1),
            max_retries: self.cfg.sampler_retries,
            chaos: self.sampler_chaos,
            ..crate::runtime::RuntimeConfig::default()
        };
        let mut stream = AsyncSampler::spawn_with_config(
            graph,
            batches.to_vec(),
            self.cfg.fanouts.clone(),
            &runtime_cfg,
            batch_seed,
            self.sampler_fault_hook.clone(),
        );
        if let Some(policy) = self.hedge {
            stream = stream.with_hedging(policy);
        }

        let topo = self.machine.topology.clone();
        let loader = FeatureLoader::new(
            &ds.features,
            ds.spec.feature_row_bytes(),
            std::mem::replace(&mut self.static_cache, StaticFeatureCache::disabled(0)),
            self.cfg.load_mode,
        );
        let mut stages = FreshGnnStages {
            model: &mut self.model,
            cache: &mut self.cache,
            policy: &*self.policy,
            sampler: &mut self.sampler,
            rng: &mut self.rng,
            iter: &mut self.iter,
            cfg: &self.cfg,
            dims: &self.dims,
            machine: &self.machine,
            loader,
            ds,
        };
        let result = Engine::run_epoch(
            &topo,
            &mut self.faults,
            &mut self.counters,
            &mut self.obs,
            // Only queue stalls count as sampling time (async overlap).
            StallPolicy::ChargeSample,
            std::iter::from_fn(|| stream.next()),
            |ctx, counters, mb| Some(stages.train_sampled(ctx, counters, mb, opt)),
        );
        // Put moved state back before any return — an errored epoch must
        // leave the trainer usable.
        self.static_cache = stages.loader.into_static_cache();
        // Telemetry even for an errored epoch: the report reflects the
        // work the pool actually did before the failure.
        self.record_sampler_obs(&stream.obs_report());
        let mut stats = result?;
        self.finish_epoch(&mut stats);
        Ok(stats)
    }

    /// Evaluate accuracy on `nodes` with plain neighbor sampling (no cache
    /// reads — the paper reports accuracy from an uncached inference pass).
    pub fn evaluate(&mut self, ds: &Dataset, nodes: &[NodeId], batch_size: usize) -> f64 {
        let mut rng = self.rng.fork();
        EvalHarness::accuracy(
            &self.model,
            ds,
            nodes,
            &self.cfg.fanouts,
            batch_size,
            &mut rng,
        )
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
            prune_with_cache_policy(&mut pruned, &mut self.cache, self.iter, &*self.policy);
        let ids: Vec<usize> = mb.input_nodes().iter().map(|&g| g as usize).collect();
        let h0 = ds.features.gather_rows(&ids);
        crate::probes::estimation_error(&self.model, &mb, &h0, &self.cache, &outcome.cached)
    }
}

/// Algorithm 1's stage set over disjoint borrows of the trainer's state,
/// run per batch by [`Engine::run_epoch`]. The loader temporarily owns the
/// trainer's static feature cache for the epoch.
struct FreshGnnStages<'s, 'd> {
    model: &'s mut Model,
    cache: &'s mut HistoricalCache,
    policy: &'s dyn CachePolicy,
    sampler: &'s mut NeighborSampler,
    rng: &'s mut Rng,
    iter: &'s mut u32,
    cfg: &'s FreshGnnConfig,
    dims: &'s [usize],
    machine: &'s Machine,
    loader: FeatureLoader<'d>,
    ds: &'d Dataset,
}

impl<'t> FreshGnnStages<'_, '_> {
    /// One full iteration of Algorithm 1, sampling included (sync path).
    fn train_batch(
        &mut self,
        ctx: &mut PipelineCtx<'t>,
        counters: &mut TrafficCounters,
        seeds: &[NodeId],
        opt: &mut dyn Optimizer,
    ) -> BatchOutput {
        // 1. Sample (measured CPU time).
        let mb = ctx.stage(StageKind::Sample, counters, |_, _| {
            let mut sample_rng = self.rng.fork();
            self.sampler
                .sample(&self.ds.graph, seeds, &self.cfg.fanouts, &mut sample_rng)
        });
        self.train_sampled(ctx, counters, mb, opt)
    }

    /// Steps 2–6 of Algorithm 1 on an already-sampled mini-batch (shared
    /// by the synchronous and asynchronous paths).
    fn train_sampled(
        &mut self,
        ctx: &mut PipelineCtx<'t>,
        counters: &mut TrafficCounters,
        mut mb: MiniBatch,
        opt: &mut dyn Optimizer,
    ) -> BatchOutput {
        let ds = self.ds;
        let seeds: Vec<NodeId> = mb.seeds.clone();
        let seeds = &seeds[..];
        let now = *self.iter;

        // Degraded mode: with the circuit breaker open the interconnect is
        // known bad, so stale cache reads are not worth trusting — bypass
        // the ring cache for this batch (prune finds nothing, every needed
        // row loads raw, no admissions).
        let degraded = ctx.breaker_open();
        self.cache.set_bypass(degraded);

        // 2. Prune against the cache (measured). The policy's refresh
        // schedule acts here: a live entry it flags is declined so the
        // node recomputes and refreshes the entry in place.
        let outcome = ctx.stage(StageKind::Prune, counters, |_, _| {
            prune_with_cache_policy(&mut mb, self.cache, now, self.policy)
        });

        // 3. Load surviving raw features (simulated transfer).
        let h0 = ctx.stage(StageKind::Load, counters, |engine, c| {
            let h0 = self.loader.load(
                mb.input_nodes(),
                Some(&outcome.needed_input),
                engine,
                Node::Host,
                Node::Gpu(0),
                c,
            );
            // Cache-read embeddings and pruned subtrees save these bytes
            // (for the Fig 13 I/O-saving metric the baseline is "load
            // everything").
            let skipped = (mb.input_nodes().len() - outcome.num_inputs_needed()) as u64;
            c.cache_hit_bytes += skipped * ds.spec.feature_row_bytes() as u64;
            h0
        });

        // 4. Forward, overriding cached rows between layers. The policy
        // post-processes each read (staleness weighting / history
        // extrapolation); under the baseline it is a plain copy. The model
        // skips the rows the pruner did not mark computed, here and in 5.
        let computed = Some(&outcome.computed[..]);
        let trace = ctx.stage(StageKind::Forward, counters, |_, _| {
            let cache = &*self.cache;
            let policy = self.policy;
            let cached = &outcome.cached;
            self.model.forward_with(&mb, h0, computed, |level, h| {
                let b = level - 1;
                if b < cached.len() {
                    for &(local, slot) in &cached[b] {
                        cache.read_into(level, slot, now, policy, h.row_mut(local as usize));
                    }
                }
            })
        });

        // 5. Loss + backward with gradient harvesting and detach.
        let num_levels = self.dims.len() - 1;
        let (loss, policy_inputs) = ctx.stage(StageKind::Backward, counters, |_, _| {
            let logits = trace.h.last().expect("at least one layer");
            let labels: Vec<u16> = seeds.iter().map(|&s| ds.labels[s as usize]).collect();
            let (loss, d_top) = softmax_cross_entropy(logits, &labels);

            self.model.zero_grad();
            let mut policy_inputs: Vec<Vec<PolicyInput>> = vec![Vec::new(); num_levels + 1];
            let cache_enabled = self.cfg.cache_enabled();
            let cache_top = self.cfg.cache_top_layer;
            let inputs = &mut policy_inputs;
            let hook = |level: usize, d: &mut Matrix| {
                if !cache_enabled {
                    return;
                }
                if level == num_levels && !cache_top {
                    return;
                }
                let b = level - 1;
                let block = &mb.blocks[b];
                let mut is_cached = vec![false; block.num_dst()];
                for &(local, _) in &outcome.cached[b] {
                    is_cached[local as usize] = true;
                }
                for v in 0..block.num_dst() {
                    let in_batch = outcome.computed[b][v] || is_cached[v];
                    if !in_batch {
                        continue;
                    }
                    let row = d.row(v);
                    let norm = row.iter().map(|&x| x * x).sum::<f32>().sqrt();
                    inputs[level].push(PolicyInput {
                        node: block.dst_global[v],
                        local: v as u32,
                        grad_norm: norm,
                        was_cached: is_cached[v],
                    });
                }
                // Detach: no gradient flows into pruned subtrees.
                for &(local, _) in &outcome.cached[b] {
                    d.row_mut(local as usize).iter_mut().for_each(|x| *x = 0.0);
                }
            };
            self.model.backward_with(&mb, &trace, d_top, computed, hook);
            (loss, policy_inputs)
        });

        // 6. Cache update (Algorithm 1 line 20). The fork happens
        // unconditionally so the main RNG stream is independent of how
        // many levels had inputs (bit-for-bit schedule stability).
        ctx.stage(StageKind::CacheUpdate, counters, |_, _| {
            let mut policy_rng = self.rng.fork();
            for level in 1..=num_levels {
                if policy_inputs[level].is_empty() {
                    continue;
                }
                let verdicts =
                    self.policy
                        .verdicts(&policy_inputs[level], self.cfg.p_grad, &mut policy_rng);
                self.cache
                    .apply_verdicts(level, &verdicts, &trace.h[level], now);
            }
        });

        // 7. Optimizer step.
        ctx.stage(StageKind::OptimStep, counters, |_, _| {
            let mut params = self.model.params_mut();
            opt.step(&mut params);
        });

        // Simulated GPU compute time: one charge per batch (forward +
        // backward FLOPs), attributed to the Backward stage. Charged after
        // the optimizer step to keep the seed trainers' f64 accumulation
        // order, which the bit-for-bit equivalence guarantee depends on.
        let flops = batch_flops(&mb, &outcome, self.dims, self.model.arch);
        ctx.stage(StageKind::Backward, counters, |_, c| {
            c.compute_seconds += self.machine.gpu.compute_seconds(flops);
        });

        self.cache.set_bypass(false);
        *self.iter += 1;
        BatchOutput {
            loss,
            cache_reads: outcome.cached.iter().map(Vec::len).sum::<usize>() as u64,
            computed_nodes: outcome.computed.iter().flatten().filter(|&&c| c).count() as u64,
            degraded,
        }
    }
}

/// FLOPs of one mini-batch forward+backward (≈3× forward, the usual
/// estimate): aggregation over live edges plus dense transforms for
/// computed destinations.
pub fn batch_flops(mb: &MiniBatch, outcome: &PruneOutcome, dims: &[usize], arch: Arch) -> f64 {
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
        use crate::resilience::{GuardConfig, Supervisor, SupervisorConfig};
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
        let mut sup = Supervisor::new(SupervisorConfig {
            max_rollbacks: 2,
            guard: GuardConfig::default(),
        });
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
