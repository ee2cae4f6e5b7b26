//! The staged training pipeline engine.
//!
//! Algorithm 1 is one iteration shape — **sample → prune → load → forward
//! → backward → cache-update → optimizer-step** — and every training loop
//! in this crate (the FreshGNN [`crate::Trainer`], the hetero trainer, the
//! GAS/ClusterGCN/sampling baselines, and the multi-GPU profiles built on
//! top of them) is an instance of it with some stages specialized or
//! absent: a [`crate::driver::Workload`] of the one epoch driver,
//! [`crate::driver::Driver`], whose epoch loop is this engine's only
//! caller. This module is the single implementation of that shape:
//!
//! * [`Engine::run_epoch`] owns the epoch skeleton: build the
//!   [`TransferEngine`] from the trainer's optional
//!   [`FaultPlan`](fgnn_memsim::fault::FaultPlan)
//!   (threading the plan's RNG stream back out afterwards so a run is one
//!   deterministic fault schedule), drive the unit stream,
//!   accumulate losses in the exact `total += loss as f64` order, and
//!   assemble the [`EpochStats`] — counter delta, per-stage
//!   [`StageTimings`], mean loss.
//! * [`PipelineCtx`] is handed to the per-batch step function; its
//!   [`PipelineCtx::stage`] scopes are how trainers declare *which* stage
//!   the enclosed work belongs to. A scope snapshots the traffic ledger,
//!   runs the stage body (with access to the epoch's transfer engine),
//!   and attributes the ledger delta plus the measured wall time to the
//!   [`StageKind`]. `Sample` and `Prune` scopes additionally charge their
//!   wall time to the ledger's measured `sample_seconds` /
//!   `prune_seconds`, exactly as the hand-rolled `Instant` code did.
//!
//! Because scopes only *observe* the ledger, porting a trainer onto the
//! engine is behavior-preserving by construction: the same operations run
//! in the same order on the same RNG streams, so losses, byte counters and
//! simulated seconds are bit-for-bit identical to the pre-pipeline loops
//! (`tests/pipeline_equivalence.rs` pins this against captured goldens).
//! Stage scopes need not be contiguous: a trainer that charges its
//! simulated compute time after the optimizer step (the seed ordering,
//! which f64 accumulation order makes significant) simply opens a second
//! `Backward` scope there.

pub mod eval;

pub use eval::EvalHarness;

use crate::obs::{MetricClass, Obs};
use fgnn_memsim::fault::FaultState;
use fgnn_memsim::stage::{StageKind, StageTimings, NUM_STAGES};
use fgnn_memsim::topology::Topology;
use fgnn_memsim::{TrafficCounters, TransferEngine};
use std::time::Instant;

/// Statistics of one training epoch, produced by [`Engine::run_epoch`].
#[derive(Clone, Debug)]
pub struct EpochStats {
    /// Mean mini-batch loss.
    pub mean_loss: f64,
    /// Number of mini-batches that contributed a loss.
    pub batches: usize,
    /// Traffic/time ledger accumulated during this epoch.
    pub counters: TrafficCounters,
    /// Per-stage attribution of `counters` plus measured stage wall time.
    pub timings: StageTimings,
    /// Destination nodes served from the cache this epoch.
    pub cache_reads: u64,
    /// Destination nodes computed fresh this epoch.
    pub computed_nodes: u64,
    /// Whether this epoch started from a degraded resume (the checkpoint's
    /// historical-cache segment was missing or corrupt, so the cache began
    /// the epoch cold).
    pub cache_degraded: bool,
    /// Batches that ran in degraded mode (circuit breaker open, ring cache
    /// bypassed, raw features fetched).
    pub degraded_batches: u64,
}

/// What one pipeline iteration produced, reported back to the engine.
#[derive(Clone, Copy, Debug)]
pub struct BatchOutput {
    /// Mini-batch loss.
    pub loss: f32,
    /// Destination nodes served from the cache.
    pub cache_reads: u64,
    /// Destination nodes computed fresh.
    pub computed_nodes: u64,
    /// Whether this batch ran in degraded mode (breaker open, cache
    /// bypassed).
    pub degraded: bool,
}

impl BatchOutput {
    /// A batch that only has a loss to report (cache-less trainers).
    pub fn loss_only(loss: f32) -> Self {
        BatchOutput {
            loss,
            cache_reads: 0,
            computed_nodes: 0,
            degraded: false,
        }
    }

    /// Mark this batch as having run in degraded mode.
    pub(crate) fn with_degraded(mut self, degraded: bool) -> Self {
        self.degraded = degraded;
        self
    }
}

/// Per-epoch pipeline context handed to the step function: the transfer
/// engine (with this epoch's fault plan armed), the per-stage ledger, and
/// the trainer's observability state (taken for the epoch, restored when
/// the epoch ends).
pub struct PipelineCtx<'t> {
    transfer: TransferEngine<'t>,
    timings: StageTimings,
    obs: Obs,
    /// Exact sim-clock nanoseconds advanced inside each stage's scopes —
    /// by construction these sum to the epoch span's duration.
    stage_exact_ns: [u64; NUM_STAGES],
}

impl<'t> PipelineCtx<'t> {
    /// Run one pipeline stage: `body` gets the epoch's transfer engine and
    /// the trainer's traffic ledger; the ledger delta it causes and its
    /// wall time are attributed to `kind`. [`StageKind::Sample`] and
    /// [`StageKind::Prune`] scopes also charge their wall time to the
    /// ledger's measured `sample_seconds` / `prune_seconds` fields.
    ///
    /// Each scope also emits a stage [`crate::obs::Span`]: the sim clock
    /// advances by the scope's *exact* ledger delta (transfer + retry +
    /// compute seconds — never the measured sample/prune wall time), so
    /// span timestamps are bit-reproducible across runs.
    pub fn stage<R>(
        &mut self,
        kind: StageKind,
        counters: &mut TrafficCounters,
        body: impl FnOnce(&mut TransferEngine<'t>, &mut TrafficCounters) -> R,
    ) -> R {
        let before = counters.clone();
        let t0 = Instant::now();
        let out = body(&mut self.transfer, counters);
        let wall = t0.elapsed().as_secs_f64();
        match kind {
            StageKind::Sample => counters.sample_seconds += wall,
            StageKind::Prune => counters.prune_seconds += wall,
            _ => {}
        }
        let mut delta = counters.clone();
        delta.subtract(&before);
        self.timings.record(kind, wall, &delta);
        self.timings.extend_span(&before, counters);
        let exact = delta.transfer_seconds + delta.retry_seconds + delta.compute_seconds;
        self.obs
            .tracer
            .begin(kind.name(), "stage", self.obs.clock.now_ns());
        self.stage_exact_ns[kind.index()] += self.obs.clock.advance_secs(exact);
        self.obs.tracer.end_with(
            self.obs.clock.now_ns(),
            vec![("wire_bytes", delta.wire_bytes())],
        );
        out
    }

    /// Whether the epoch's transfer engine has an open circuit breaker.
    /// Trainers consult this at the top of each batch to decide whether to
    /// run the batch in degraded mode (bypass the ring cache, fetch raw
    /// features).
    pub fn breaker_open(&self) -> bool {
        self.transfer.breaker_open()
    }
}

/// The epoch driver shared by every trainer.
pub struct Engine;

impl Engine {
    /// Run one epoch: run `step` on each of `units` (mini-batch indexes,
    /// cluster indices, …) inside a [`PipelineCtx`].
    ///
    /// * `faults` lends its plan and breaker to the epoch's
    ///   [`TransferEngine`]; both are restored (the plan with its advanced
    ///   RNG stream, the breaker with its trip state) before returning, so
    ///   fault schedules and breaker behavior stay deterministic across
    ///   epochs.
    /// * A `step` returning `None` contributes neither loss nor count
    ///   (e.g. a cluster without training nodes, or a batch after the
    ///   caller decided to abort the epoch).
    ///
    /// The returned [`EpochStats`] carries the epoch's counter delta and
    /// [`StageTimings`]; `cache_degraded` is left `false` for the caller
    /// to fill in.
    ///
    /// `obs` is taken for the duration of the epoch and restored — with
    /// the epoch/batch/stage span tree appended and the per-stage and
    /// per-link metrics flushed — before returning.
    pub fn run_epoch<'t, U>(
        topo: &'t Topology,
        faults: &mut FaultState,
        counters: &mut TrafficCounters,
        obs: &mut Obs,
        units: impl IntoIterator<Item = U>,
        mut step: impl FnMut(&mut PipelineCtx<'t>, &mut TrafficCounters, U) -> Option<BatchOutput>,
    ) -> EpochStats {
        let before = counters.clone();
        let mut transfer = match faults.plan.take() {
            Some(plan) => TransferEngine::with_faults(topo, plan, faults.policy),
            None => TransferEngine::new(topo),
        };
        transfer.set_breaker(faults.breaker.take());
        let mut ctx = PipelineCtx {
            transfer,
            timings: StageTimings::new(),
            obs: std::mem::take(obs),
            stage_exact_ns: [0; NUM_STAGES],
        };
        ctx.obs
            .tracer
            .begin("epoch", "pipeline", ctx.obs.clock.now_ns());

        let mut total_loss = 0.0f64;
        let mut batches = 0usize;
        let mut cache_reads = 0u64;
        let mut computed_nodes = 0u64;
        let mut degraded_batches = 0u64;
        for unit in units {
            ctx.obs
                .tracer
                .begin("batch", "pipeline", ctx.obs.clock.now_ns());
            let out = step(&mut ctx, counters, unit);
            let now = ctx.obs.clock.now_ns();
            match out {
                Some(out) => {
                    ctx.obs.tracer.end_with(
                        now,
                        vec![
                            ("cache_reads", out.cache_reads),
                            ("computed_nodes", out.computed_nodes),
                        ],
                    );
                    total_loss += out.loss as f64;
                    batches += 1;
                    cache_reads += out.cache_reads;
                    computed_nodes += out.computed_nodes;
                    degraded_batches += out.degraded as u64;
                }
                None => ctx.obs.tracer.end(now),
            }
        }
        // Thread the fault plan (and its advanced RNG) and the breaker
        // (and its trip state) back out: the next epoch continues both.
        faults.plan = ctx.transfer.take_fault_plan();
        faults.breaker = ctx.transfer.take_breaker();

        // Close the epoch span and flush epoch-level metrics, also for an
        // epoch the step aborted: the telemetry reflects the work done.
        ctx.obs
            .tracer
            .end_with(ctx.obs.clock.now_ns(), vec![("batches", batches as u64)]);
        let m = &mut ctx.obs.metrics;
        m.counter_add("pipeline.epochs", MetricClass::Exact, 1);
        m.counter_add("pipeline.batches", MetricClass::Exact, batches as u64);
        if degraded_batches > 0 {
            m.counter_add(
                "pipeline.degraded_batches",
                MetricClass::Exact,
                degraded_batches,
            );
        }
        // Breaker telemetry is Exact: trips and fast-fails are a pure
        // function of the fault seed. Flushed only when a breaker is armed
        // so fault-free metric streams are untouched.
        if let Some(b) = &faults.breaker {
            m.counter_set("transfer.breaker.trips", MetricClass::Exact, b.trips);
            m.counter_set(
                "transfer.breaker.fast_fails",
                MetricClass::Exact,
                b.fast_fails,
            );
            m.gauge_set(
                "transfer.breaker.state",
                MetricClass::Exact,
                b.state().code() as f64,
            );
        }
        for kind in StageKind::ALL {
            let name = kind.name();
            let exact_ns = ctx.stage_exact_ns[kind.index()];
            if exact_ns > 0 {
                m.counter_add(
                    &format!("pipeline.stage.{name}.sim_ns"),
                    MetricClass::Exact,
                    exact_ns,
                );
            }
            let wire = ctx.timings.wire_bytes(kind);
            if wire > 0 {
                m.counter_add(
                    &format!("pipeline.stage.{name}.wire_bytes"),
                    MetricClass::Exact,
                    wire,
                );
            }
            let wall = ctx.timings.measured_seconds(kind);
            if wall > 0.0 {
                m.counter_add(
                    &format!("pipeline.stage.{name}.measured_ns"),
                    MetricClass::Measured,
                    (wall * 1e9).round() as u64,
                );
            }
        }
        for (l, &bytes) in ctx.transfer.link_bytes.iter().enumerate() {
            if bytes > 0 {
                m.counter_add(
                    &format!("transfer.link.{l}.bytes"),
                    MetricClass::Exact,
                    bytes,
                );
            }
        }
        for (l, &retries) in ctx.transfer.link_retries.iter().enumerate() {
            if retries > 0 {
                m.counter_add(
                    &format!("transfer.link.{l}.retries"),
                    MetricClass::Exact,
                    retries,
                );
            }
        }
        for (l, &busy) in ctx.transfer.link_busy.iter().enumerate() {
            if busy > 0.0 {
                m.counter_add(
                    &format!("transfer.link.{l}.busy_ns"),
                    MetricClass::Exact,
                    (busy * 1e9).round() as u64,
                );
            }
        }
        *obs = ctx.obs;

        let mut delta = counters.clone();
        delta.subtract(&before);
        EpochStats {
            mean_loss: total_loss / batches.max(1) as f64,
            batches,
            counters: delta,
            timings: ctx.timings,
            cache_reads,
            computed_nodes,
            cache_degraded: false,
            degraded_batches,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgnn_memsim::fault::FaultPlan;
    use fgnn_memsim::topology::Node;

    fn topo() -> Topology {
        Topology::pcie_tree(1, 1, 16e9)
    }

    #[test]
    fn stage_scopes_attribute_ledger_deltas() {
        let topo = topo();
        let mut counters = TrafficCounters::new();
        let mut faults = FaultState::none();
        let stats = Engine::run_epoch(
            &topo,
            &mut faults,
            &mut counters,
            &mut Obs::new(),
            0..3u64,
            |ctx, counters, bytes_k| {
                ctx.stage(StageKind::Load, counters, |eng, c| {
                    eng.one_sided_read(Node::Host, Node::Gpu(0), 1000 * (bytes_k + 1), c);
                });
                ctx.stage(StageKind::Backward, counters, |_, c| {
                    c.compute_seconds += 0.5;
                });
                Some(BatchOutput::loss_only(1.0))
            },
        );
        assert_eq!(stats.batches, 3);
        assert!((stats.mean_loss - 1.0).abs() < 1e-12);
        assert_eq!(stats.timings.wire_bytes(StageKind::Load), 6000);
        assert_eq!(stats.counters.host_to_gpu_bytes, 6000);
        assert_eq!(
            stats.timings.stage(StageKind::Backward).compute_seconds,
            1.5
        );
        // Attribution is complete: per-stage ledgers merge back to the
        // epoch delta exactly.
        assert_eq!(
            stats.timings.sim_seconds_total().to_bits(),
            stats.counters.sim_seconds().to_bits()
        );
    }

    #[test]
    fn none_outputs_are_skipped_in_the_mean() {
        let topo = topo();
        let mut counters = TrafficCounters::new();
        let mut faults = FaultState::none();
        let stats = Engine::run_epoch(
            &topo,
            &mut faults,
            &mut counters,
            &mut Obs::new(),
            0..4usize,
            |_, _, i| (i % 2 == 0).then(|| BatchOutput::loss_only(2.0)),
        );
        assert_eq!(stats.batches, 2);
        assert!((stats.mean_loss - 2.0).abs() < 1e-12);
    }

    #[test]
    fn fault_plan_is_threaded_back_out() {
        let topo = topo();
        let mut counters = TrafficCounters::new();
        let mut faults = FaultState::none();
        faults.inject(
            FaultPlan::new(7).with_fail_prob(0.5),
            fgnn_memsim::RetryPolicy::default(),
        );
        Engine::run_epoch(
            &topo,
            &mut faults,
            &mut counters,
            &mut Obs::new(),
            0..2u64,
            |ctx, counters, _| {
                ctx.stage(StageKind::Load, counters, |eng, c| {
                    eng.one_sided_read(Node::Host, Node::Gpu(0), 4096, c);
                });
                Some(BatchOutput::loss_only(0.0))
            },
        );
        assert!(faults.plan.is_some(), "plan must survive the epoch");
    }
}
