//! The FreshGNN epoch driver.
//!
//! Algorithm 1 is one algorithm: the §7.6 heterogeneous extension changes
//! what a mini-batch *is* (typed blocks, a relational model) but not the
//! machinery around the per-batch step. [`Driver`] is that machinery, once:
//! the training state, the fault / breaker / NaN-injection / chaos knobs,
//! `checkpoint` / `restore`, batch planning, the epoch loop (the numeric
//! guard is an `Option`, not a second loop), the rollback state machine of
//! [`Driver::train_epoch_resilient`], post-epoch bookkeeping and
//! cache-metric publication.
//!
//! A [`Workload`] supplies what genuinely differs: construction, what an
//! epoch is split over, each batch's RNGs, sampling, the prune → load →
//! forward → backward → cache-update → optim step and evaluation; the model
//! brings its checkpoint `arch` tag and flat parameters
//! ([`fgnn_nn::Parameters`]). [`crate::Trainer`],
//! [`crate::hetero_trainer::HeteroTrainer`] and the cache-less
//! [`crate::baselines`] (GAS/GraphFM, ClusterGCN, layer- and graph-wise
//! sampling) are its instantiations.

use crate::cache::{HistoricalCache, PolicyInput};
use crate::checkpoint::{Checkpoint, CheckpointError};
use crate::config::FreshGnnConfig;
use crate::error::FgnnError;
use crate::obs::{MetricClass, Metrics, Obs};
use crate::pipeline::{BatchOutput, Engine, EpochStats, PipelineCtx};
use crate::resilience::{HealthState, NumericFault, NumericGuard, Supervisor};
use crate::runtime::{ChaosPolicy, InOrder, Pool, RuntimeConfig};
use crate::sampler::{FaultHook, SampleError};
use fgnn_graph::sample::split_batches;
use fgnn_graph::NodeId;
use fgnn_memsim::fault::{BreakerPolicy, BreakerState, FaultPlan, FaultState, RetryPolicy};
use fgnn_memsim::presets::Machine;
use fgnn_memsim::stage::{StageKind, StageTimings};
use fgnn_memsim::TrafficCounters;
use fgnn_nn::{Optimizer, Parameters};
use fgnn_tensor::{Matrix, Rng};
use std::collections::BTreeSet;

/// How far ahead of the step a default epoch's sampler worker may run: one
/// finished batch in the queue. Deeper queues were no faster and cost more
/// resident memory.
const SAMPLE_AHEAD: usize = 1;

/// Sampler workers of a default epoch over `batches` batches: one, sampling
/// a batch ahead, when the epoch has a batch to sample ahead; otherwise
/// none, and the step samples in line. Not an option, and not the
/// machine's either: where a batch is sampled changes no committed bit,
/// and on one CPU, where the worker only time-shares with the step, the
/// pool measured no slower than in line. Pinned to one core of a 2-core
/// Xeon, 10 alternating `perf` pairs each: `train_sampling` `pass_s`
/// 1.91 s in line, 1.95 s pooled (5 of 10 to the pool, spread 0.35 s);
/// `train_fresh` 0.61 s and 0.55 s (6 of 10).
fn default_workers(batches: usize) -> usize {
    usize::from(batches > 1)
}

/// What differs between the trainers on the driver: the homogeneous and
/// heterogeneous instances of Algorithm 1 and the cache-less baselines. The
/// value itself holds the workload's own state (static feature cache,
/// relation types, a partition, GAS's histories, …); everything shared
/// lives in the [`Driver`].
pub trait Workload: Sized {
    /// The dataset trained on.
    type Dataset;
    /// The model under training.
    type Model: Parameters;
    /// One sampled, not yet pruned mini-batch.
    type Batch: Send + 'static;
    /// What sampling reads: a shared handle, which the sampler workers of
    /// an overlapped epoch hold by refcount.
    type Graph: Clone + Send + Sync + 'static;
    /// A sampler's scratch state.
    type Sampler;
    /// The model's forward state, reused from step to step.
    type Trace: Default;
    /// The model's backward buffers, reused from step to step.
    type Grads: Default;

    /// What an epoch shuffles and splits into batches of `cfg.batch_size`:
    /// the labeled training nodes, or cluster ids for a workload that
    /// batches by graph partition.
    fn units<'a>(&'a self, ds: &'a Self::Dataset) -> &'a [NodeId];

    /// Batch `iter`'s RNGs, drawn from the trainer stream `main` before
    /// the epoch: the one its sampling consumes, then the one its cache
    /// update hands to [`crate::cache::PolicyKind::Random`]. Rollback and
    /// resume replay a batch exactly only if both are functions of
    /// checkpointed state: forks of `main` (checkpointed), or of constants
    /// and `iter`.
    fn batch_rngs(&self, main: &mut Rng, iter: u32) -> (Rng, Rng);

    /// Steps 2–7 of Algorithm 1 on an already-sampled batch: prune, load,
    /// forward, backward, cache update, optimizer step. The driver has
    /// already set the cache's bypass flag for this batch and advances the
    /// iteration cursor afterwards. `None` skips a batch that has nothing
    /// to train on: it contributes neither loss nor count.
    fn step(
        stages: &mut Stages<'_, Self>,
        ds: &Self::Dataset,
        ctx: &mut PipelineCtx<'_>,
        counters: &mut TrafficCounters,
        mb: Self::Batch,
        policy_rng: &mut Rng,
        opt: &mut dyn Optimizer,
    ) -> Option<BatchOutput>;

    /// The handle on what sampling reads of `ds`.
    fn graph(&self, ds: &Self::Dataset) -> Self::Graph;

    /// Build a sampler's state: the driver's own, and each pool worker's
    /// (again after a worker panic).
    fn sampler(graph: &Self::Graph) -> Self::Sampler;

    /// Sample an un-pruned mini-batch for `seeds`.
    fn sample(
        sampler: &mut Self::Sampler,
        graph: &Self::Graph,
        seeds: &[NodeId],
        fanouts: &[usize],
        rng: &mut Rng,
    ) -> Self::Batch;

    /// Accuracy of `model` on `nodes` under the shared evaluation protocol
    /// (plain sampling, no cache reads).
    fn accuracy(
        model: &Self::Model,
        ds: &Self::Dataset,
        nodes: &[NodeId],
        fanouts: &[usize],
        batch_size: usize,
        rng: &mut Rng,
    ) -> f64;

    /// Residency bitmap of the workload's static feature cache, for the
    /// checkpoint (empty when it has none).
    fn static_resident(&self) -> Vec<bool> {
        Vec::new()
    }

    /// Restore what [`Workload::static_resident`] captured.
    fn restore_static(&mut self, _resident: &[bool]) -> Result<(), CheckpointError> {
        Ok(())
    }

    /// Publish workload-owned counters (`cache.static.*`) next to the
    /// driver's `cache.hist.*`.
    fn publish_metrics(&self, _metrics: &mut Metrics) {}
}

/// Every buffer a step fills that is worth keeping for the next one: the
/// model's forward state (input features, per-layer outputs and contexts)
/// and backward buffers, the seed labels, and the cache policy's inputs.
/// The driver owns one for its lifetime; after the first epoch has seen the
/// largest batch a step reshapes these instead of allocating.
///
/// Nothing here is state: every step overwrites what it reads, so a fresh
/// workspace and a used one produce the same bits, and none of it is
/// checkpointed.
pub struct Workspace<W: Workload> {
    pub(crate) trace: W::Trace,
    pub(crate) grads: W::Grads,
    pub(crate) labels: Vec<u16>,
    /// Per level: the policy inputs the backward hook harvested.
    pub(crate) policy_inputs: Vec<Vec<PolicyInput>>,
    /// Scratch of [`harvest_and_detach`].
    pub(crate) is_cached: Vec<bool>,
}

impl<W: Workload> Default for Workspace<W> {
    fn default() -> Self {
        Workspace {
            trace: W::Trace::default(),
            grads: W::Grads::default(),
            labels: Vec::new(),
            policy_inputs: Vec::new(),
            is_cached: Vec::new(),
        }
    }
}

/// The FreshGNN trainer, generic over its [`Workload`] (with `p_grad = 0`
/// also the vanilla neighbor-sampling baseline and, via `LoadMode`, the
/// DGL/PyG/PyTorch-Direct traffic configurations).
pub struct Driver<W: Workload> {
    /// The GNN under training.
    pub model: W::Model,
    /// Hyper-parameters.
    pub cfg: FreshGnnConfig,
    /// The historical embedding cache.
    pub cache: HistoricalCache,
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
    pub(crate) workload: W,
    /// The sampler of in-line epochs, kept across epochs.
    pub(crate) sampler: W::Sampler,
    workspace: Workspace<W>,
    dims: Vec<usize>,
    pub(crate) iter: u32,
    epoch: u32,
    pub(crate) rng: Rng,
    /// Interconnect fault schedule; threaded through the per-epoch engine
    /// so the fault RNG stream continues across epochs.
    faults: FaultState,
    /// Iterations whose reported loss is forced to NaN (chaos-test hook
    /// for the numeric-health guard). Entries are consumed when they fire.
    nan_iters: BTreeSet<u32>,
    /// Seeded adversarial scheduling on an overlapped epoch's pool
    /// (`None` in production; the schedule-fuzzing suite turns it on).
    sampler_chaos: Option<ChaosPolicy>,
    /// Test hook forwarded to an overlapped epoch's sampler workers
    /// (fault injection).
    sampler_fault_hook: Option<FaultHook>,
    /// Set by a degraded restore; consumed into the next epoch's stats.
    degraded_resume: bool,
}

/// The model/cache side of a [`Driver`], borrowed apart from the side the
/// engine drives for the duration of an epoch and handed to
/// [`Workload::step`].
pub struct Stages<'s, W: Workload> {
    pub(crate) model: &'s mut W::Model,
    pub(crate) cache: &'s mut HistoricalCache,
    pub(crate) workload: &'s mut W,
    pub(crate) ws: &'s mut Workspace<W>,
    pub(crate) cfg: &'s FreshGnnConfig,
    pub(crate) dims: &'s [usize],
    pub(crate) machine: &'s Machine,
    pub(crate) iter: &'s mut u32,
}

impl<W: Workload> Stages<'_, W> {
    /// Steps 2–7 of Algorithm 1 on a sampled mini-batch, with the batch's
    /// pre-drawn policy RNG.
    fn train_sampled(
        &mut self,
        ds: &W::Dataset,
        ctx: &mut PipelineCtx<'_>,
        counters: &mut TrafficCounters,
        mb: W::Batch,
        policy_rng: &mut Rng,
        opt: &mut dyn Optimizer,
    ) -> Option<BatchOutput> {
        // Degraded mode: with the circuit breaker open the interconnect is
        // known bad, so stale cache reads are not worth trusting — bypass
        // the ring cache for this batch (prune finds nothing, every needed
        // row loads raw, no admissions).
        let degraded = ctx.breaker_open();
        self.cache.set_bypass(degraded);
        let out = W::step(self, ds, ctx, counters, mb, policy_rng, opt);
        self.cache.set_bypass(false);
        *self.iter += 1;
        out.map(|out| out.with_degraded(degraded))
    }

    /// Step 6, the cache update (Algorithm 1 line 20): each level's harvested
    /// gradient norms (`ws.policy_inputs`) become verdicts, applied against
    /// that level's fresh embeddings `h(trace, level)`. Levels that
    /// harvested nothing (level 0, an uncached top level) are skipped.
    pub(crate) fn update_cache(
        &mut self,
        policy_rng: &mut Rng,
        h: impl Fn(&W::Trace, usize) -> &Matrix,
    ) {
        let now = *self.iter;
        for (level, inputs) in self.ws.policy_inputs.iter().enumerate() {
            if inputs.is_empty() {
                continue;
            }
            let verdicts = self
                .cfg
                .policy
                .verdicts(inputs, self.cfg.p_grad, policy_rng);
            self.cache
                .apply_verdicts(level, &verdicts, h(&self.ws.trace, level), now);
        }
    }
}

/// Empty `policy_inputs` for a step over `num_levels` levels, keeping each
/// level's allocation.
pub(crate) fn reset_policy_inputs(policy_inputs: &mut Vec<Vec<PolicyInput>>, num_levels: usize) {
    policy_inputs.resize_with(num_levels + 1, Vec::new);
    policy_inputs.iter_mut().for_each(Vec::clear);
}

/// The backward hook of one cached level: harvest into `inputs` the
/// embedding-gradient norm of every in-batch destination in `dst` (computed
/// fresh or read from the cache) as the policy's input, then detach — zero
/// the cache-read rows of `d` so no gradient flows into their pruned
/// subtrees. `is_cached` is scratch.
pub(crate) fn harvest_and_detach(
    d: &mut Matrix,
    dst: &[NodeId],
    computed: &[bool],
    cached: &[(u32, u32)],
    is_cached: &mut Vec<bool>,
    inputs: &mut Vec<PolicyInput>,
) {
    is_cached.clear();
    is_cached.resize(dst.len(), false);
    for &(local, _) in cached {
        is_cached[local as usize] = true;
    }
    for (v, &node) in dst.iter().enumerate() {
        if !(computed[v] || is_cached[v]) {
            continue;
        }
        inputs.push(PolicyInput {
            node,
            local: v as u32,
            grad_norm: d.row(v).iter().map(|&x| x * x).sum::<f32>().sqrt(),
            was_cached: is_cached[v],
        });
    }
    for &(local, _) in cached {
        d.row_mut(local as usize).fill(0.0);
    }
}

impl<W: Workload> Driver<W> {
    /// Shared construction: layer dimensions `[in_dim, hidden.., classes]`
    /// (depth = `cfg.fanouts.len()`), the seeded RNG, the model and
    /// workload state `build` makes from them, a sampler over `ds`, and a
    /// cold cache over `cache_nodes` nodes under `cfg`'s policy.
    pub(crate) fn assemble(
        ds: &W::Dataset,
        cfg: FreshGnnConfig,
        machine: Machine,
        seed: u64,
        cache_nodes: usize,
        (in_dim, hidden, classes): (usize, usize, usize),
        build: impl FnOnce(&FreshGnnConfig, &[usize], &mut Rng) -> (W::Model, W),
    ) -> Self {
        cfg.validate().expect("invalid config");
        let mut rng = Rng::new(seed);
        let num_layers = cfg.num_layers();
        let mut dims = Vec::with_capacity(num_layers + 1);
        dims.push(in_dim);
        for _ in 1..num_layers {
            dims.push(hidden);
        }
        dims.push(classes);
        let (model, workload) = build(&cfg, &dims, &mut rng);
        let sampler = W::sampler(&workload.graph(ds));

        let mut cache = HistoricalCache::new(
            cache_nodes,
            &dims[1..],
            cfg.t_stale,
            cfg.cache_capacity,
            cfg.cache_enabled(),
        );
        if cfg.policy.wants_history() {
            cache.enable_history();
        }
        Driver {
            model,
            cache,
            counters: TrafficCounters::new(),
            machine,
            timings: StageTimings::new(),
            obs: Obs::new(),
            workload,
            sampler,
            workspace: Workspace::default(),
            dims,
            cfg,
            iter: 0,
            epoch: 0,
            rng,
            faults: FaultState::none(),
            nan_iters: BTreeSet::new(),
            sampler_chaos: None,
            sampler_fault_hook: None,
            degraded_resume: false,
        }
    }

    /// Inject interconnect faults: every subsequent epoch's transfers are
    /// subjected to `plan` under `policy`. The plan's RNG stream persists
    /// across epochs, so a full run is one deterministic fault schedule.
    pub fn inject_faults(&mut self, plan: FaultPlan, policy: RetryPolicy) {
        self.faults.inject(plan, policy);
    }

    /// Arm the interconnect circuit breaker under `policy`: repeated
    /// budget-exhausted transfers trip it open, and while it is open the
    /// pipeline runs batches in **degraded mode** (ring cache bypassed,
    /// every needed row fetched raw) instead of burning retry time.
    pub fn enable_breaker(&mut self, policy: BreakerPolicy) {
        self.faults.arm_breaker(policy);
    }

    /// Force the loss reported at the given iterations to NaN (chaos-test
    /// hook exercising the numeric-health guard and rollback path of
    /// [`Driver::train_epoch_resilient`] and of a cluster host's rounds).
    /// Each entry fires once, and only in a guarded epoch.
    pub fn inject_nan_at(&mut self, iters: impl IntoIterator<Item = u32>) {
        self.nan_iters.extend(iters);
    }

    /// Enable (or disable with `None`) seeded adversarial scheduling
    /// wherever a pool samples: [`Driver::train_epoch_async`] at a nonzero
    /// worker count, and every multi-batch default epoch
    /// ([`Driver::train_epoch`]): delayed claims and
    /// worker stalls, all drawn from the policy's seed. Chaos perturbs only
    /// *where and when* batches are sampled — the committed stream, losses
    /// and every `Exact` metric are invariant to it (the schedule-fuzzing
    /// suite pins this).
    pub fn set_sampler_chaos(&mut self, chaos: Option<ChaosPolicy>) {
        self.sampler_chaos = chaos;
    }

    /// Install a hook invoked inside the sampler workers of every pool
    /// that samples — [`Driver::train_epoch_async`] at a nonzero worker
    /// count, and every multi-batch default epoch ([`Driver::train_epoch`])
    /// — before each batch attempt (`(batch_index, attempt)`); panics it
    /// raises exercise the worker-recovery path and count as
    /// `sampler.resample_retries`. An in-line epoch (zero workers, or one
    /// batch) never calls it. Test-only in spirit, but harmless live.
    pub fn set_sampler_fault_hook(&mut self, hook: Option<FaultHook>) {
        self.sampler_fault_hook = hook;
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
            arch: self.model.arch(),
            dims: self.dims.clone(),
            params: self.model.export_parameters(),
            optimizer: opt.export_state(),
            rng_state: self.rng.state(),
            epoch: self.epoch,
            iter: self.iter,
            counters: self.counters.clone(),
            static_resident: self.workload.static_resident(),
            cache: Some(self.cache.snapshot()),
            cache_degraded: false,
        }
    }

    /// Restore state from a checkpoint taken by an identically-configured
    /// trainer (same dataset, arch, dims, config, optimizer type). A
    /// workload whose construction draws state from the seed (a partition)
    /// or whose [`Workload::batch_rngs`] derive from it (the heterogeneous
    /// policy stream) also needs the same seed to replay exactly.
    ///
    /// Returns `Ok(degraded)`: `degraded = true` means the checkpoint's
    /// historical-cache segment was missing, corrupt, or incompatible (other
    /// level dims, another `t_stale`), and training resumed with an empty
    /// (cold) cache — correct, just slower to re-warm. The degradation is
    /// also recorded in the next epoch's
    /// [`EpochStats::cache_degraded`]. Core-state mismatches are hard
    /// [`CheckpointError::ShapeMismatch`] errors.
    pub fn restore(
        &mut self,
        ckpt: &Checkpoint,
        opt: &mut dyn Optimizer,
    ) -> Result<bool, CheckpointError> {
        let arch = self.model.arch();
        if ckpt.arch != arch {
            return Err(CheckpointError::ShapeMismatch(format!(
                "checkpoint arch {} vs trainer {arch}",
                ckpt.arch
            )));
        }
        if ckpt.dims != self.dims {
            return Err(CheckpointError::ShapeMismatch(format!(
                "checkpoint dims {:?} vs trainer {:?}",
                ckpt.dims, self.dims
            )));
        }
        let num_parameters = self.model.num_parameters();
        if ckpt.params.len() != num_parameters {
            return Err(CheckpointError::ShapeMismatch(format!(
                "checkpoint has {} parameters, model has {num_parameters}",
                ckpt.params.len()
            )));
        }
        self.workload.restore_static(&ckpt.static_resident)?;
        self.model.import_parameters(&ckpt.params);
        opt.import_state(ckpt.optimizer.clone());
        self.rng = Rng::from_state(ckpt.rng_state);
        self.epoch = ckpt.epoch;
        self.iter = ckpt.iter;
        self.counters = ckpt.counters.clone();
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
    /// the trainer's RNG stream exactly as [`Driver::train_epoch`] does)
    /// and split the workload's [`Workload::units`] into shuffled batches.
    ///
    /// `train_epoch` is exactly `plan_epoch_batches` +
    /// [`Driver::train_on_batches`] over the result — the cluster
    /// trainer uses the split form to step one batch per BSP round while
    /// staying bit-identical to a whole-epoch call.
    pub fn plan_epoch_batches(&mut self, ds: &W::Dataset) -> Vec<Vec<NodeId>> {
        let mut shuffle_rng = self.rng.fork();
        split_batches(
            self.workload.units(ds),
            self.cfg.batch_size,
            Some(&mut shuffle_rng),
        )
    }

    /// Train one epoch: shuffle the training nodes, split into batches,
    /// run Algorithm 1 on each. One pool worker samples a batch ahead
    /// while this thread trains; an epoch of one batch is sampled by this
    /// thread itself. Either way the epoch commits
    /// what [`Driver::train_epoch_async`] commits at any worker count.
    ///
    /// Panics when a batch cannot be sampled: a sampler panic unwinds
    /// through here in line, and comes back from the pool, after its
    /// retries, as the [`SampleError`] this panics with.
    pub fn train_epoch(&mut self, ds: &W::Dataset, opt: &mut dyn Optimizer) -> EpochStats {
        let batches = self.plan_epoch_batches(ds);
        self.run_ahead(ds, batches, opt, None, None).0
    }

    /// Train on an explicit batch schedule (used by the Fig 17 experiment
    /// to feed two trainers identical batches), sampled as
    /// [`Driver::train_epoch`] samples.
    pub fn train_on_batches(
        &mut self,
        ds: &W::Dataset,
        batches: &[Vec<NodeId>],
        opt: &mut dyn Optimizer,
    ) -> EpochStats {
        self.run_ahead(ds, batches.to_vec(), opt, None, None).0
    }

    /// [`Driver::run`] at `workers` sampler workers (`None`: the default
    /// count, [`default_workers`]), a batch ahead: the epoch of
    /// `train_epoch`, `train_on_batches` and the guarded epochs. A batch
    /// the pool could not sample panics with its [`SampleError`], as an
    /// in-line sampler panic would.
    fn run_ahead(
        &mut self,
        ds: &W::Dataset,
        batches: Vec<Vec<NodeId>>,
        opt: &mut dyn Optimizer,
        guard: Option<&mut NumericGuard>,
        workers: Option<usize>,
    ) -> (EpochStats, Option<NumericFault>) {
        let workers = workers.unwrap_or_else(|| default_workers(batches.len()));
        self.run(ds, batches, opt, guard, workers, SAMPLE_AHEAD)
            .unwrap_or_else(|e| panic!("sampling failed: {e}"))
    }

    /// The epoch loop. First every batch's [`Workload::batch_rngs`] are
    /// drawn from the trainer stream, in batch order — the draws an in-line
    /// step would make, so where a batch is sampled changes no bit. With
    /// `workers == 0` the step samples batch `i`
    /// itself on the driver's sampler; otherwise a [`Pool`] samples ahead
    /// into a queue of `queue_capacity` and [`InOrder`] hands the batches
    /// over in index order. Either way the step pulls its batch inside its
    /// `Sample` scope, so waiting on the pool is charged like sampling.
    ///
    /// With a `guard`, every batch loss (after NaN injection) is fed
    /// through it. Once it trips, or a batch cannot be sampled, the
    /// remaining batches are skipped (no further parameter updates on a
    /// known-bad trajectory). A numeric fault is returned beside the
    /// partial epoch's stats; a sampling failure instead of them, once the
    /// telemetry is flushed and without the post-epoch bookkeeping.
    fn run(
        &mut self,
        ds: &W::Dataset,
        batches: Vec<Vec<NodeId>>,
        opt: &mut dyn Optimizer,
        mut guard: Option<&mut NumericGuard>,
        workers: usize,
        queue_capacity: usize,
    ) -> Result<(EpochStats, Option<NumericFault>), SampleError> {
        let iter0 = self.iter;
        let mut tasks = Vec::with_capacity(batches.len());
        let mut policy_rngs = Vec::with_capacity(batches.len());
        for (i, seeds) in batches.into_iter().enumerate() {
            let (sample_rng, policy_rng) =
                self.workload.batch_rngs(&mut self.rng, iter0 + i as u32);
            tasks.push((seeds, sample_rng));
            policy_rngs.push(policy_rng);
        }
        let graph = self.workload.graph(ds);
        let mut pool = (workers > 0).then(|| {
            let runtime = RuntimeConfig {
                workers,
                queue_capacity,
                max_retries: crate::sampler::DEFAULT_SAMPLER_RETRIES,
                chaos: self.sampler_chaos,
            };
            let (graph, init_graph) = (graph.clone(), graph.clone());
            let (fanouts, hook) = (self.cfg.fanouts.clone(), self.sampler_fault_hook.clone());
            InOrder::new(Pool::spawn(
                &runtime,
                std::mem::take(&mut tasks),
                move || W::sampler(&init_graph),
                move |sampler: &mut W::Sampler, i, (seeds, rng): &(Vec<NodeId>, Rng), attempt| {
                    if let Some(hook) = &hook {
                        hook(i, attempt);
                    }
                    // Every attempt starts from the task's RNG: a retry replays.
                    W::sample(sampler, &graph, seeds, &fanouts, &mut rng.clone())
                },
            ))
        });

        // Borrow the driver apart: the step's side, and the engine's.
        let Driver {
            model,
            cfg,
            cache,
            counters,
            machine,
            obs,
            workload,
            sampler,
            workspace,
            dims,
            iter,
            faults,
            nan_iters,
            ..
        } = self;
        let (cfg, machine) = (&*cfg, &*machine);
        let mut stages = Stages {
            model,
            cache,
            workload,
            ws: workspace,
            cfg,
            dims,
            machine,
            iter,
        };
        let mut fault: Option<NumericFault> = None;
        let mut failure: Option<SampleError> = None;
        let mut sampled_in_line = 0u64;
        let mut stats = Engine::run_epoch(
            &machine.topology,
            faults,
            counters,
            obs,
            policy_rngs.into_iter().enumerate(),
            |ctx, counters, (i, mut policy_rng)| {
                if fault.is_some() || failure.is_some() {
                    return None;
                }
                let mb = ctx
                    .stage(StageKind::Sample, counters, |_, _| match pool.as_mut() {
                        Some(stream) => stream.next().expect("one item per batch"),
                        None => {
                            sampled_in_line += 1;
                            let (seeds, rng) = &mut tasks[i];
                            Ok(W::sample(sampler, &graph, seeds, &cfg.fanouts, rng))
                        }
                    })
                    .map_err(|e| failure = Some(e))
                    .ok()?;
                let it = *stages.iter;
                let mut out = stages.train_sampled(ds, ctx, counters, mb, &mut policy_rng, opt)?;
                if let Some(guard) = guard.as_deref_mut() {
                    // Unconsumed injections stay armed for later iterations.
                    if nan_iters.remove(&it) {
                        out.loss = f32::NAN;
                    }
                    if let Some(f) = guard.observe(it, out.loss) {
                        fault = Some(f);
                        // The faulty loss must not poison the epoch mean.
                        return None;
                    }
                }
                Some(out)
            },
        );
        let m = &mut self.obs.metrics;
        match &pool {
            Some(stream) => stream.flush_obs(m),
            // The pool's `Exact` counters, so that the metric stream does
            // not show where the batches were sampled.
            None => {
                m.counter_add("sampler.batches", MetricClass::Exact, sampled_in_line);
                m.counter_add("sampler.resample_retries", MetricClass::Exact, 0);
            }
        }
        if let Some(e) = failure {
            return Err(e);
        }
        self.finish_epoch(&mut stats);
        Ok((stats, fault))
    }

    /// Train one epoch under the health supervisor: every batch loss is
    /// fed through `sup`'s [`NumericGuard`], and a tripped guard (NaN/Inf
    /// loss, or a loss spike past the z-score threshold) aborts the epoch
    /// and `Driver::roll_back`s to the supervisor's last-known-good
    /// baseline, then replays the epoch. The rollback restores the RNG, so
    /// the replay walks the exact same batch schedule.
    ///
    /// State machine: a fault moves the supervisor `→ Degraded`, the
    /// rollback `→ Recovering`, and the first clean epoch `→ Healthy`
    /// (which also refreshes the baseline). If the circuit breaker is open
    /// after a clean epoch the supervisor parks in `Degraded` instead and
    /// the baseline is left alone.
    ///
    /// Errors with [`FgnnError::Numeric`] once `sup`'s rollback budget is
    /// exhausted. The epoch's RNG draws were all made before its first
    /// batch, so that error leaves the trainer stream past the batches the
    /// guard skipped; every rollback restores it.
    pub fn train_epoch_resilient(
        &mut self,
        ds: &W::Dataset,
        opt: &mut dyn Optimizer,
        sup: &mut Supervisor,
    ) -> Result<EpochStats, FgnnError> {
        self.resilient_epoch(ds, opt, sup, None)
    }

    /// [`Driver::train_epoch_resilient`] with its attempts sampled by
    /// `workers` pool threads (`None`: the default count), so that the
    /// worker matrix can hold pooled guarded epochs to in-line ones.
    fn resilient_epoch(
        &mut self,
        ds: &W::Dataset,
        opt: &mut dyn Optimizer,
        sup: &mut Supervisor,
        workers: Option<usize>,
    ) -> Result<EpochStats, FgnnError> {
        if !sup.has_baseline() {
            sup.set_baseline(self.checkpoint(opt));
        }
        loop {
            let batches = self.plan_epoch_batches(ds);
            let guard = Some(&mut sup.guard);
            let (stats, fault) = self.run_ahead(ds, batches, opt, guard, workers);
            let Some(fault) = fault else {
                let breaker_open = matches!(self.faults.breaker_state(), Some(BreakerState::Open));
                let (state, cause) = if breaker_open || stats.degraded_batches > 0 {
                    (HealthState::Degraded, "breaker-open")
                } else {
                    (HealthState::Healthy, "epoch-clean")
                };
                sup.transition(state, self.iter, self.epoch, cause, &mut self.obs);
                if state == HealthState::Healthy {
                    sup.set_baseline(self.checkpoint(opt));
                }
                return Ok(stats);
            };
            self.roll_back(opt, sup, fault)?;
        }
    }

    /// Train `batches` with every batch loss (after NaN injection) fed
    /// through `sup`'s guard, as each attempt of
    /// [`Driver::train_epoch_resilient`] is: a cluster host's round, on a
    /// schedule it plans itself. A tripped guard skips the rest of
    /// `batches` and comes back beside the partial stats.
    pub(crate) fn train_guarded(
        &mut self,
        ds: &W::Dataset,
        batches: Vec<Vec<NodeId>>,
        opt: &mut dyn Optimizer,
        sup: &mut Supervisor,
    ) -> (EpochStats, Option<NumericFault>) {
        self.run_ahead(ds, batches, opt, Some(&mut sup.guard), None)
    }

    /// The answer to a tripped guard: move `sup` to `Degraded`, check its
    /// rollback budget, restore its baseline, count the rollback (which
    /// starts the guard's loss history afresh) and move to `Recovering`.
    /// The caller replays from the baseline.
    ///
    /// Errors with [`FgnnError::Numeric`] once the budget is exhausted: a
    /// deterministic divergence replays identically, so retrying forever
    /// would livelock.
    pub(crate) fn roll_back(
        &mut self,
        opt: &mut dyn Optimizer,
        sup: &mut Supervisor,
        fault: NumericFault,
    ) -> Result<(), FgnnError> {
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
        let iter = self.restore_baseline(opt, sup)?;
        sup.record_rollback(&mut self.obs);
        sup.transition(
            HealthState::Recovering,
            iter,
            self.epoch,
            "rollback",
            &mut self.obs,
        );
        Ok(())
    }

    /// Restore `sup`'s last-known-good baseline and return its iteration:
    /// the restore half of [`Driver::roll_back`], and the restore of a
    /// cluster host's crash-restart. The restore evicts ring-cache entries
    /// stamped after that iteration, so the `t_stale` bound survives the
    /// rewind.
    pub(crate) fn restore_baseline(
        &mut self,
        opt: &mut dyn Optimizer,
        sup: &Supervisor,
    ) -> Result<u32, FgnnError> {
        let ckpt = sup
            .baseline()
            .ok_or_else(|| FgnnError::Numeric("no baseline to restore".into()))?;
        self.restore(ckpt, opt)?;
        Ok(ckpt.iter)
    }

    /// Train one epoch with the **asynchronous pipeline** of §5:
    /// `num_threads` worker threads sample un-pruned mini-batches ahead of
    /// time into a queue of `queue_capacity` while this thread
    /// prunes/loads/trains. Only the time the step actually *waits* on the
    /// next batch is charged as sampling time — with enough workers
    /// sampling fully overlaps training, which is the paper's design goal.
    /// With `num_threads == 0` this thread samples each batch itself, as
    /// [`Driver::train_epoch`] does for an epoch of one batch; over more,
    /// `train_epoch` is `train_epoch_async(ds, opt, 1, 1)`.
    ///
    /// Deterministic: each batch's sampling RNG is drawn from the trainer
    /// stream before the epoch starts and batches are consumed in index
    /// order, so losses, counters and every `Exact` metric are
    /// byte-identical at any `num_threads`, `0` included, and across worker
    /// panics recovered by re-sampling
    /// ([`crate::sampler::DEFAULT_SAMPLER_RETRIES`] times).
    ///
    /// Returns an error when a batch could not be produced even after
    /// retries ([`SampleError::BatchPanicked`]) or the workers died
    /// entirely ([`SampleError::WorkersLost`]) — a shortfall is never a
    /// silent short epoch. Progress made before the failure (parameter
    /// updates, cache admissions, counters) is kept; the caller decides
    /// whether to retry the epoch or abort.
    pub fn train_epoch_async(
        &mut self,
        ds: &W::Dataset,
        opt: &mut dyn Optimizer,
        num_threads: usize,
        queue_capacity: usize,
    ) -> Result<EpochStats, SampleError> {
        let batches = self.plan_epoch_batches(ds);
        Ok(self
            .run(ds, batches, opt, None, num_threads, queue_capacity)?
            .0)
    }

    /// Evaluate accuracy on `nodes` with plain sampling (no cache reads —
    /// the paper reports accuracy from an uncached inference pass).
    pub fn evaluate(&mut self, ds: &W::Dataset, nodes: &[NodeId], batch_size: usize) -> f64 {
        // Evaluation runs on buffers of its own, usually larger than a
        // training step's: give the step's back first so the two do not add
        // up in the heap's high-water mark. The next epoch's first batches
        // re-grow them.
        self.workspace = Workspace::default();
        let mut rng = self.rng.fork();
        W::accuracy(
            &self.model,
            ds,
            nodes,
            &self.cfg.fanouts,
            batch_size,
            &mut rng,
        )
    }

    /// Post-epoch bookkeeping shared by the sync and overlapped paths.
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

    /// Publish the caches' internal counters into the metrics registry.
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
        self.workload.publish_metrics(m);
    }
}

#[cfg(test)]
mod tests {
    use super::{Driver, Workload};
    use crate::baselines::{
        ClusterGcnTrainer, GasConfig, GasTrainer, SamplingBaselineTrainer, SamplingKind,
    };
    use crate::checkpoint::{Checkpoint, CheckpointError};
    use crate::hetero_trainer::HeteroTrainer;
    use crate::obs::export::{chrome_trace, metrics_jsonl};
    use crate::obs::{MetricClass, Metrics};
    use crate::resilience::Supervisor;
    use crate::{FreshGnnConfig, Trainer};
    use fgnn_graph::datasets::arxiv_spec;
    use fgnn_graph::hetero::mag_hetero;
    use fgnn_graph::Dataset;
    use fgnn_memsim::fault::{BreakerPolicy, FaultPlan, RetryPolicy};
    use fgnn_memsim::presets::Machine;
    use fgnn_memsim::TrafficCounters;
    use fgnn_nn::model::Arch;
    use fgnn_nn::Adam;

    /// The knob settings of the worker-count matrix.
    #[derive(Clone, Copy, Debug)]
    enum Knobs {
        /// FreshGNN with its cache on.
        Cache,
        /// `p_grad = 0`: the cache never admits (neighbor sampling).
        NoCache,
        /// 10 % of transfer attempts fail, no retries, and the breaker
        /// trips on the first failure.
        Faults,
        /// An injected NaN that `train_epoch_resilient` rolls back.
        NanRollback,
    }

    const KNOBS: [Knobs; 4] = [
        Knobs::Cache,
        Knobs::NoCache,
        Knobs::Faults,
        Knobs::NanRollback,
    ];

    fn knob_config(knobs: Knobs) -> FreshGnnConfig {
        FreshGnnConfig {
            p_grad: if matches!(knobs, Knobs::NoCache) {
                0.0
            } else {
                0.9
            },
            t_stale: 50,
            fanouts: vec![3, 3],
            batch_size: 16,
            ..Default::default()
        }
    }

    /// Everything a run commits, as comparable values: loss bits per epoch,
    /// the ledger without its measured seconds, the cache statistics, the
    /// `Exact` metric stream and the Chrome trace.
    type Committed = (Vec<u64>, String, String, String, String);

    /// Train `t` under `knobs`: two epochs sampled by `workers` pool
    /// threads (`Some(0)`: in line; `None`: the default, that is
    /// `train_epoch`), after two resilient epochs, sampled by as many,
    /// that roll an injected NaN back when the knobs ask for it.
    fn committed<W: Workload>(
        mut t: Driver<W>,
        ds: &W::Dataset,
        knobs: Knobs,
        workers: Option<usize>,
    ) -> Committed {
        if matches!(knobs, Knobs::Faults) {
            let retry = RetryPolicy {
                max_retries: 0,
                ..RetryPolicy::default()
            };
            t.inject_faults(FaultPlan::new(99).with_fail_prob(0.10), retry);
            t.enable_breaker(BreakerPolicy {
                failure_threshold: 1,
                cooldown: 4,
            });
        }
        let mut opt = Adam::new(0.01);
        let mut losses = Vec::new();
        if matches!(knobs, Knobs::NanRollback) {
            let mut sup = Supervisor::default();
            for _ in 0..2 {
                t.inject_nan_at([t.iterations() + 1]);
                let stats = t.resilient_epoch(ds, &mut opt, &mut sup, workers).unwrap();
                losses.push(stats.mean_loss.to_bits());
            }
            assert_eq!(sup.rollbacks(), 2);
        }
        for _ in 0..2 {
            let stats = match workers {
                Some(w) => t.train_epoch_async(ds, &mut opt, w, 2).unwrap(),
                None => t.train_epoch(ds, &mut opt),
            };
            losses.push(stats.mean_loss.to_bits());
        }
        if matches!(knobs, Knobs::Faults) {
            assert!(t.breaker_stats().unwrap().0 > 0, "the breaker must trip");
        }
        let mut ledger = t.counters.clone();
        (ledger.sample_seconds, ledger.prune_seconds) = (0.0, 0.0);
        (
            losses,
            format!("{ledger:?}"),
            format!("{:?}", t.cache.stats()),
            metrics_jsonl("t", &t.obs.metrics, false),
            chrome_trace(&[("t", &t.obs.tracer)]),
        )
    }

    /// `run` at one and two sampler workers, and at the default count,
    /// commits what it commits at zero.
    fn assert_worker_count_invariant(what: &str, run: impl Fn(Option<usize>) -> Committed) {
        let reference = run(Some(0));
        for workers in [Some(1), Some(2), None] {
            assert_eq!(run(workers), reference, "{what} at {workers:?} workers");
        }
    }

    /// {homogeneous, heterogeneous} × {cache on, `p_grad` 0, faults with
    /// a breaker, NaN rollback}, and the four cache-less baselines under
    /// all but the cache: one and two sampler workers commit exactly what
    /// the synchronous epoch commits.
    #[test]
    fn every_knob_commits_the_same_run_at_zero_one_and_two_workers() {
        let ds = Dataset::materialize(arxiv_spec(0.0).with_dim(8), 5);
        let hds = mag_hetero(400, 4, 8, 3);
        let machine = Machine::single_a100;
        for knobs in KNOBS {
            let cfg = knob_config(knobs);
            assert_worker_count_invariant(&format!("homogeneous {knobs:?}"), |w| {
                let t = Trainer::new(&ds, Arch::Sage, 8, machine(), cfg.clone(), 3);
                committed(t, &ds, knobs, w)
            });
            assert_worker_count_invariant(&format!("heterogeneous {knobs:?}"), |w| {
                let t = HeteroTrainer::new(&hds, 8, machine(), cfg.clone(), 3);
                committed(t, &hds, knobs, w)
            });
        }
        let fanouts = || vec![3, 3];
        for knobs in [Knobs::NoCache, Knobs::Faults, Knobs::NanRollback] {
            assert_worker_count_invariant(&format!("GraphFM {knobs:?}"), |w| {
                let cfg = GasConfig {
                    num_parts: 8,
                    max_neighbors: 8,
                    momentum: Some(0.3),
                };
                let t = GasTrainer::new(&ds, Arch::Sage, 8, fanouts(), machine(), cfg, 3);
                committed(t, &ds, knobs, w)
            });
            assert_worker_count_invariant(&format!("ClusterGCN {knobs:?}"), |w| {
                let t = ClusterGcnTrainer::new(&ds, Arch::Gcn, 8, fanouts(), 16, 2, machine(), 3);
                committed(t, &ds, knobs, w)
            });
            for kind in [
                SamplingKind::LayerWise {
                    layer_sizes: vec![16, 16],
                },
                SamplingKind::GraphWise {
                    roots: 8,
                    walk_length: 3,
                },
            ] {
                assert_worker_count_invariant(&format!("{kind:?} {knobs:?}"), |w| {
                    let t = SamplingBaselineTrainer::new(
                        &ds,
                        Arch::Sage,
                        8,
                        fanouts(),
                        16,
                        kind.clone(),
                        machine(),
                        3,
                    );
                    committed(t, &ds, knobs, w)
                });
            }
        }
    }

    /// A checkpoint whose shape does not fit the trainer is refused before
    /// anything is imported: the trainer then trains on exactly as a twin
    /// that never saw the restore.
    #[test]
    fn restore_refuses_a_mismatched_shape_and_leaves_the_trainer_trainable() {
        let ds = Dataset::materialize(arxiv_spec(0.0).with_dim(8), 6);
        let cfg = knob_config(Knobs::Cache);
        let new = || Trainer::new(&ds, Arch::Sage, 8, Machine::single_a100(), cfg.clone(), 4);
        let (mut t, mut twin) = (new(), new());
        let (mut opt, mut twin_opt) = (Adam::new(0.01), Adam::new(0.01));
        t.train_epoch(&ds, &mut opt);
        twin.train_epoch(&ds, &mut twin_opt);
        let good = t.checkpoint(&opt);
        type Corrupt = fn(&mut Checkpoint);
        let bad: [(&str, Corrupt); 4] = [
            ("arch", |c| c.arch = Arch::Gcn),
            ("dims", |c| c.dims[1] += 1),
            ("parameter count", |c| {
                c.params.pop();
            }),
            ("static cache", |c| c.static_resident.push(false)),
        ];
        for (what, corrupt) in bad {
            let mut ckpt = good.clone();
            corrupt(&mut ckpt);
            let err = t.restore(&ckpt, &mut opt).unwrap_err();
            assert!(
                matches!(err, CheckpointError::ShapeMismatch(_)),
                "{what}: {err}"
            );
        }
        let loss = t.train_epoch(&ds, &mut opt).mean_loss;
        assert_eq!(
            loss.to_bits(),
            twin.train_epoch(&ds, &mut twin_opt).mean_loss.to_bits()
        );
        assert_eq!(t.model.export_parameters(), twin.model.export_parameters());
        let ledger = |c: &TrafficCounters| (c.host_to_gpu_bytes, c.transfer_seconds.to_bits());
        assert_eq!(ledger(&t.counters), ledger(&twin.counters));
    }

    /// The `sampler.*` entries of a registry, as `(name, class)`.
    fn sampler_names(m: &Metrics) -> Vec<(String, MetricClass)> {
        m.iter()
            .filter(|(name, _, _)| name.starts_with("sampler."))
            .map(|(name, class, _)| (name.to_string(), class))
            .collect()
    }

    /// One overlapped epoch reports under one name set whatever the
    /// workload: `sampler.batches` (= batches trained) and
    /// `sampler.resample_retries` are `Exact`, the per-worker, latency and
    /// queue-depth entries `Measured`. An in-line epoch reports the same
    /// `Exact` pair and nothing else.
    #[test]
    fn overlapped_epochs_report_one_name_set_for_both_workloads() {
        let cfg = FreshGnnConfig {
            p_grad: 0.9,
            t_stale: 50,
            fanouts: vec![3, 3],
            batch_size: 32,
            ..Default::default()
        };
        let machine = Machine::single_a100();

        let ds = Dataset::materialize(arxiv_spec(0.0).with_dim(16), 42);
        let mut homo = Trainer::new(&ds, Arch::Sage, 16, machine.clone(), cfg.clone(), 1);
        let homo_stats = homo
            .train_epoch_async(&ds, &mut Adam::new(0.01), 2, 4)
            .unwrap();
        let mut in_line = Trainer::new(&ds, Arch::Sage, 16, machine.clone(), cfg.clone(), 1);
        let in_line_stats = in_line
            .train_epoch_async(&ds, &mut Adam::new(0.01), 0, 0)
            .unwrap();

        let hds = mag_hetero(400, 4, 8, 3);
        let mut hetero = HeteroTrainer::new(&hds, 16, machine, cfg, 1);
        let hetero_stats = hetero
            .train_epoch_async(&hds, &mut Adam::new(0.01), 2, 4)
            .unwrap();

        let names = sampler_names(&homo.obs.metrics);
        assert_eq!(names, sampler_names(&hetero.obs.metrics));
        let exact: Vec<&str> = names
            .iter()
            .filter(|(_, class)| *class == MetricClass::Exact)
            .map(|(name, _)| name.as_str())
            .collect();
        assert_eq!(exact, ["sampler.batches", "sampler.resample_retries"]);
        let in_line_names: Vec<(String, MetricClass)> = exact
            .iter()
            .map(|name| (name.to_string(), MetricClass::Exact))
            .collect();
        assert_eq!(sampler_names(&in_line.obs.metrics), in_line_names);
        for measured in [
            "sampler.queue_depth",
            "sampler.task_seconds",
            "sampler.worker.0.tasks",
            "sampler.worker.0.task_ns",
            "sampler.worker.1.tasks",
            "sampler.worker.1.task_ns",
        ] {
            assert!(
                names.contains(&(measured.to_string(), MetricClass::Measured)),
                "{measured} missing or not Measured: {names:?}"
            );
        }
        for (t, stats) in [
            (&homo.obs, &homo_stats),
            (&hetero.obs, &hetero_stats),
            (&in_line.obs, &in_line_stats),
        ] {
            assert!(stats.batches > 0);
            assert_eq!(
                t.metrics.counter("sampler.batches"),
                Some(stats.batches as u64)
            );
        }
    }
}
