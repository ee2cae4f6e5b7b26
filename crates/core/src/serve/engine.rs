//! The deterministic request/response serving engine.
//!
//! A discrete-event loop over simulated time: open-loop arrivals from the
//! seeded trace generator are offered to the admission controller, the
//! batcher forms batches under its `max_batch`/`max_delay` knobs, and
//! each batch is served against the freshness-SLA embedding store. Cache
//! misses recompute real embeddings through the model and charge feature
//! movement to the `fgnn-memsim` interconnect — including its bounded
//! retry/backoff loop and circuit breaker — so every latency, shed
//! decision and metric is a pure function of the seed and two same-seed
//! runs are byte-identical.
//!
//! **Degraded mode** engages when the transfer breaker is open: the
//! store widens cache hits from the tight operator SLA to each request's
//! own staleness budget, so admitted requests complete from cache instead
//! of queueing behind a broken interconnect. Deadline shedding looks
//! ahead using a running maximum of observed batch service times: work
//! that cannot finish before its deadline is dropped at dispatch, which
//! is what keeps the p99 of *served* requests under the deadline while
//! the queue sheds bounded load instead of collapsing.

use super::admission::AdmissionController;
use super::batcher::Batcher;
use super::freshness::EmbedStore;
use super::trace::Request;
use super::{ServeConfig, SERVE_AGE_BUCKETS_MS, SERVE_LATENCY_BUCKETS_NS, SERVE_QUEUE_BUCKETS};
use crate::cache::policy::Verdict;
use crate::error::FgnnError;
use crate::obs::window::{AlertEvent, SloMonitor};
use crate::obs::{Histogram, MetricClass, Obs, Tracer};
use fgnn_graph::sample::NeighborSampler;
use fgnn_graph::{Dataset, NodeId};
use fgnn_memsim::fault::{BreakerPolicy, BreakerState, FaultPlan, FaultState, RetryPolicy};
use fgnn_memsim::presets::{dense_flops, Machine};
use fgnn_memsim::transfer::SYNC_LATENCY;
use fgnn_memsim::{Node, TrafficCounters, TransferEngine};
use fgnn_nn::model::{Arch, Model, Trace};
use fgnn_tensor::{Matrix, Rng};
use std::collections::VecDeque;

/// Fixed per-request serving overhead (seconds): response framing and
/// cache-row readout, charged even on an all-hit batch.
const PER_REQUEST_OVERHEAD: f64 = 2e-6;

/// Hash constant mixed into the exemplar-sampling stream so it can never
/// collide with the miss-path sampling streams (which key off the batch
/// index, not the request id).
const EXEMPLAR_STREAM: u64 = 0x0E8E_3F4A_52C3_D94B;

/// Cost breakdown of one served batch: the exact simulated seconds of
/// each pipeline stage and the wire bytes it charged — what the request
/// tracer needs to lay span boundaries without touching the service-time
/// accumulation itself. The per-request hit ages stay behind in
/// `ServeEngine::ages`, the miss verdicts in `EmbedStore::last_verdicts`.
struct BatchOutcome {
    /// Total service seconds (the pre-existing accumulation, untouched).
    service_secs: f64,
    /// Served cache hits in the batch.
    hits: u64,
    /// Served cache misses in the batch.
    misses: u64,
    /// Batch-assembly sync cost (`SYNC_LATENCY`).
    assembly_secs: f64,
    /// Per-request readout/framing cost (`len × PER_REQUEST_OVERHEAD`).
    lookup_secs: f64,
    /// Miss-path feature movement: transfer plus retry/backoff seconds.
    fetch_secs: f64,
    /// Miss-path model recompute seconds.
    compute_secs: f64,
    /// Host-to-GPU bytes charged to the ledger by this batch.
    wire_bytes: u64,
}

/// The recompute workspace, built once per engine: the sampler's O(|V|)
/// node mapping and the forward trace, whose matrices stop reallocating
/// once they have seen the largest miss batch.
struct Recompute {
    sampler: NeighborSampler,
    trace: Trace,
}

impl Recompute {
    /// Sample `nodes`' neighborhood, gather its raw features straight into
    /// the trace's input and run `model` over it. Returns the input-row
    /// count; row `i` of [`Recompute::embeddings`] is then `nodes[i]`'s.
    fn run(
        &mut self,
        ds: &Dataset,
        model: &Model,
        fanouts: &[usize],
        nodes: &[NodeId],
        rng: &mut Rng,
    ) -> usize {
        let mb = self.sampler.sample(&ds.graph, nodes, fanouts, rng);
        let inputs = mb.input_nodes();
        let h0 = self.trace.input_mut();
        h0.resize(inputs.len(), ds.features.cols());
        for (row, &g) in inputs.iter().enumerate() {
            h0.set_row(row, ds.features.row(g as usize));
        }
        model.forward_into(&mb, &mut self.trace, None, |_, _| {});
        inputs.len()
    }

    /// The output level of the last [`Recompute::run`].
    fn embeddings(&self) -> &Matrix {
        self.trace.h.last().expect("model has layers")
    }
}

/// Outcome summary of one serving run. All fields are exact (simulated)
/// quantities: equal seeds produce equal reports.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeReport {
    /// Requests in the offered trace.
    pub offered: u64,
    /// Requests admitted past the token bucket and queue bound.
    pub admitted: u64,
    /// Requests served to completion.
    pub served: u64,
    /// Requests shed by the token bucket.
    pub shed_rate_limited: u64,
    /// Requests shed by the bounded queue (including displacements).
    pub shed_queue_full: u64,
    /// Requests shed because their deadline became unreachable.
    pub shed_deadline: u64,
    /// Requests served while the engine was in degraded mode.
    pub degraded_served: u64,
    /// Served cache hits.
    pub cache_hits: u64,
    /// Served cache misses (recomputed through the model).
    pub cache_misses: u64,
    /// Served embeddings older than their request's staleness budget.
    /// The freshness-SLA invariant is that this is zero.
    pub sla_violations: u64,
    /// Served requests that completed after their deadline (the lookahead
    /// shed keeps this near zero; it is reported, not hidden).
    pub deadline_misses: u64,
    /// Exact latency percentiles over served requests (milliseconds).
    pub p50_ms: f64,
    /// 95th-percentile latency (milliseconds).
    pub p95_ms: f64,
    /// 99th-percentile latency (milliseconds).
    pub p99_ms: f64,
    /// Deepest admission queue observed.
    pub max_queue_depth: usize,
    /// Simulated run duration (first arrival to last completion), seconds.
    pub duration_secs: f64,
    /// Served requests per simulated second.
    pub throughput_rps: f64,
    /// Shed fraction of offered load.
    pub shed_fraction: f64,
    /// Append-only `(request id, reason)` shed ledger, in decision order.
    pub shed_log: Vec<(u64, super::admission::ShedReason)>,
}

impl ServeReport {
    /// Total shed requests across all reasons.
    pub fn shed_total(&self) -> u64 {
        self.shed_rate_limited + self.shed_queue_full + self.shed_deadline
    }
}

/// The serving engine: model, embedding store, simulated machine and
/// fault state, plus the observability registry the run writes into.
pub struct ServeEngine<'a> {
    ds: &'a Dataset,
    model: Model,
    machine: Machine,
    cfg: ServeConfig,
    store: EmbedStore,
    faults: FaultState,
    /// Observability state (sim clock, per-batch spans, `Exact` metrics).
    pub obs: Obs,
    /// Exemplar request-span stream (separate from `obs.tracer`, which
    /// carries the complete per-batch spans): each traced request is a
    /// contiguous `admission → queue_wait → batch_assembly →
    /// embed_lookup → recompute → respond` tree under a `request` parent.
    req_tracer: Tracer,
    /// The multi-window SLO burn-rate monitor, fed every completion and
    /// shed decision in sim-time order.
    slo: SloMonitor,
    /// Requests whose span trees were emitted (exemplar count).
    exemplars: u64,
    /// Miss-path workspace, shared by [`ServeEngine::warm`] and every batch.
    recompute: Recompute,
    /// The current batch's distinct miss nodes in first-request order
    /// (at most `max_batch` of them, deduplicated by a scan of the list).
    miss: Vec<NodeId>,
    /// Per request of the current batch: `Some(age_ms)` on a cache hit.
    ages: Vec<Option<u32>>,
}

impl<'a> ServeEngine<'a> {
    /// Build a serving engine over `ds` with a freshly initialized
    /// `hidden`-wide model on `machine`. The model is seeded from
    /// `cfg.seed`; swap in trained weights via [`ServeEngine::model_mut`].
    pub fn new(
        ds: &'a Dataset,
        hidden: usize,
        machine: Machine,
        cfg: ServeConfig,
    ) -> Result<Self, FgnnError> {
        cfg.validate()?;
        if cfg.trace.num_nodes > ds.num_nodes() {
            return Err(FgnnError::Serve(format!(
                "trace universe {} exceeds dataset nodes {}",
                cfg.trace.num_nodes,
                ds.num_nodes()
            )));
        }
        let mut rng = Rng::new(cfg.seed);
        let mut dims = Vec::with_capacity(cfg.fanouts.len() + 1);
        dims.push(ds.spec.feature_dim);
        for _ in 1..cfg.fanouts.len() {
            dims.push(hidden);
        }
        dims.push(ds.spec.num_classes);
        let model = Model::new(Arch::Sage, &dims, &mut rng);
        let store = EmbedStore::new(ds.num_nodes(), ds.spec.num_classes, cfg.freshness.clone());
        let slo = SloMonitor::new(&SERVE_LATENCY_BUCKETS_NS);
        Ok(ServeEngine {
            ds,
            model,
            machine,
            cfg,
            store,
            faults: FaultState::none(),
            obs: Obs::new(),
            req_tracer: Tracer::new(),
            slo,
            exemplars: 0,
            recompute: Recompute {
                sampler: NeighborSampler::new(ds.num_nodes()),
                trace: Trace::default(),
            },
            miss: Vec::new(),
            ages: Vec::new(),
        })
    }

    /// The exemplar request-span stream (`fgnn-serve-trace-v1` payload).
    pub fn request_tracer(&self) -> &Tracer {
        &self.req_tracer
    }

    /// Alert fire/resolve edges emitted so far, in sim-time order.
    pub fn alerts(&self) -> &[AlertEvent] {
        &self.slo.alerts
    }

    /// Whether request `id` is traced as an exemplar: a deterministic
    /// hash of `(seed, id)`, so the sampled set is identical on every
    /// rerun and independent of every other RNG stream in the engine.
    fn is_exemplar(&self, id: u64) -> bool {
        match self.cfg.telemetry.exemplar_every {
            0 => false,
            1 => true,
            n => Rng::new(
                self.cfg
                    .seed
                    .wrapping_add(EXEMPLAR_STREAM)
                    .wrapping_add(id.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            )
            .next_u64()
            .is_multiple_of(n),
        }
    }

    /// The model behind the serving engine (e.g. to import trained
    /// parameters before opening for traffic).
    pub fn model_mut(&mut self) -> &mut Model {
        // The caller may install a model of another shape or architecture;
        // the forward contexts kept for the old one must not outlive it.
        self.recompute.trace = Trace::default();
        &mut self.model
    }

    /// Install a seeded fault plan + retry policy on the miss-fetch path.
    pub fn inject_faults(&mut self, plan: FaultPlan, policy: RetryPolicy) {
        self.faults.inject(plan, policy);
    }

    /// Arm a closed circuit breaker over the miss-fetch path.
    pub fn enable_breaker(&mut self, policy: BreakerPolicy) {
        self.faults.arm_breaker(policy);
    }

    /// Force the breaker open (arming it first if needed): the degraded-
    /// serving drill used by tests and the chaos suite.
    pub fn trip_breaker(&mut self) {
        if self.faults.breaker.is_none() {
            self.faults.arm_breaker(BreakerPolicy::default());
        }
        let b = self.faults.breaker.as_mut().expect("armed above");
        while b.state() != BreakerState::Open {
            b.record_failure();
        }
    }

    /// Current breaker state, if one is armed.
    pub fn breaker_state(&self) -> Option<BreakerState> {
        self.faults.breaker_state()
    }

    /// The embedding store (cache counters, SLA bookkeeping).
    pub fn store(&self) -> &EmbedStore {
        &self.store
    }

    /// Warm the cache with freshly computed embeddings for `nodes` at sim
    /// time zero (no traffic is charged: warm-up is provisioning, not
    /// serving).
    pub fn warm(&mut self, nodes: &[NodeId]) {
        let mut rng = Rng::new(self.cfg.seed ^ 0x5EED_4A3B_1C2D_3E4F);
        for chunk in nodes.chunks(256) {
            self.recompute
                .run(self.ds, &self.model, &self.cfg.fanouts, chunk, &mut rng);
            let out = self.recompute.embeddings();
            self.store.warm(chunk, |i| out.row(i), 0);
        }
    }

    /// Serve `trace` to completion and return the run report. The trace
    /// must be arrival-ordered (as [`super::generate_trace`] produces);
    /// fault state is threaded back out, so trip counts and the plan's
    /// RNG stream persist across runs exactly like training epochs.
    pub fn run(&mut self, trace: &[Request]) -> Result<ServeReport, FgnnError> {
        self.cfg.validate()?;
        if let Some(bad) = trace
            .iter()
            .find(|r| r.node as usize >= self.ds.num_nodes())
        {
            return Err(FgnnError::Serve(format!(
                "request {} targets node {} outside the {}-node dataset",
                bad.id,
                bad.node,
                self.ds.num_nodes()
            )));
        }
        if let Some(w) = trace.windows(2).find(|w| w[0].arrival_ns > w[1].arrival_ns) {
            return Err(FgnnError::Serve(format!(
                "trace is not arrival-ordered at request {}",
                w[1].id
            )));
        }

        let mut adm = AdmissionController::new(self.cfg.admission.clone());
        let batcher = Batcher::new(self.cfg.batcher.clone());
        let topo = self.machine.topology.clone();
        let mut transfer = match self.faults.plan.take() {
            Some(plan) => TransferEngine::with_faults(&topo, plan, self.faults.policy),
            None => TransferEngine::new(&topo),
        };
        transfer.set_breaker(self.faults.breaker.take());
        let mut counters = TrafficCounters::new();

        let mut i = 0usize; // next trace arrival
        let mut cursor_ns = 0u64;
        let mut server_free_ns = 0u64;
        let mut est_service_ns = 0u64;
        let mut end_ns = 0u64;
        let mut batch_idx = 0u64;
        let mut batch: Vec<Request> = Vec::new();
        // At most every offered request is served: sized once, never grown.
        let mut latencies_ns: Vec<u64> = Vec::with_capacity(trace.len());
        // Run-local like the counters below, merged into the registry with
        // them: an observation is a bucket increment, not a name lookup.
        let mut queue_depth = Histogram::new(&SERVE_QUEUE_BUCKETS);
        let mut latency_hist = Histogram::new(&SERVE_LATENCY_BUCKETS_NS);
        let mut served_age = Histogram::new(&SERVE_AGE_BUCKETS_MS);
        let mut served = 0u64;
        let mut degraded_served = 0u64;
        let mut degraded_batches = 0u64;
        let mut cache_hits = 0u64;
        let mut cache_misses = 0u64;
        let mut deadline_misses = 0u64;
        // Completions not yet fed to the SLO monitor: the loop cursor can
        // revisit sim times earlier than the last batch's completion, so
        // completions are buffered and drained in time order (the monitor
        // requires a nondecreasing event stream). Batch completions are
        // themselves monotone (the server is serial), so a deque suffices.
        let mut pending_served: VecDeque<(u64, u64, bool)> = VecDeque::new();
        // Shed-ledger entries already mirrored into telemetry.
        let mut shed_seen = 0usize;

        loop {
            let dispatch = batcher.dispatch_at(&adm.queue, server_free_ns, cursor_ns);
            let next_arrival = trace.get(i).map(|r| r.arrival_ns);
            match (next_arrival, dispatch) {
                // Arrivals are processed first on ties so a full batch
                // still picks up the freshest co-arriving request.
                (Some(a), d) if d.is_none_or(|d| a <= d) => {
                    cursor_ns = a;
                    self.drain_served(&mut pending_served, cursor_ns);
                    adm.offer(trace[i], cursor_ns);
                    self.note_sheds(&adm, &mut shed_seen, cursor_ns);
                    queue_depth.observe(adm.queue.len() as f64);
                    i += 1;
                }
                (_, Some(d)) => {
                    cursor_ns = d;
                    self.drain_served(&mut pending_served, cursor_ns);
                    // Lookahead shed: drop work that cannot finish before
                    // its deadline given the worst batch seen so far.
                    adm.shed_expired(cursor_ns + est_service_ns);
                    self.note_sheds(&adm, &mut shed_seen, cursor_ns);
                    batcher.take(&mut adm.queue, &mut batch);
                    if batch.is_empty() {
                        continue;
                    }
                    let start_ns = cursor_ns;
                    let degraded = transfer.breaker_open();
                    let out = self.serve_batch(
                        &batch,
                        start_ns,
                        degraded,
                        &mut transfer,
                        &mut counters,
                        batch_idx,
                    );
                    let service_ns = (out.service_secs * 1e9).round() as u64;
                    let completion_ns = start_ns + service_ns;
                    est_service_ns = est_service_ns.max(service_ns);
                    server_free_ns = completion_ns;
                    end_ns = end_ns.max(completion_ns);
                    cache_hits += out.hits;
                    cache_misses += out.misses;
                    served += batch.len() as u64;
                    if degraded {
                        degraded_served += batch.len() as u64;
                        degraded_batches += 1;
                    }
                    // Interior span boundaries: monotone cumulative rounds
                    // of the stage costs, clamped into the batch interval,
                    // with the final boundary pinned to `completion_ns` —
                    // so each request's children tile [arrival, completion]
                    // exactly and the `respond` span absorbs rounding slack.
                    let round_ns = |secs: f64| (secs * 1e9).round() as u64;
                    let cum_lookup = out.assembly_secs + out.lookup_secs;
                    let cum_recompute = cum_lookup + out.fetch_secs + out.compute_secs;
                    let b1 = (start_ns + round_ns(out.assembly_secs)).min(completion_ns);
                    let b2 = (start_ns + round_ns(cum_lookup)).clamp(b1, completion_ns);
                    let b3 = (start_ns + round_ns(cum_recompute)).clamp(b2, completion_ns);
                    for (j, r) in batch.iter().enumerate() {
                        let latency = completion_ns - r.arrival_ns;
                        latencies_ns.push(latency);
                        latency_hist.observe(latency as f64);
                        // A recomputed embedding is served at age 0.
                        let age = self.ages[j];
                        served_age.observe(age.unwrap_or(0) as f64);
                        let late = completion_ns > r.deadline_ns;
                        if late {
                            deadline_misses += 1;
                        }
                        pending_served.push_back((completion_ns, latency, late));
                        if self.is_exemplar(r.id) {
                            self.exemplars += 1;
                            // Only a traced miss looks its verdict up, among
                            // the batch's (at most `max_batch`) miss nodes.
                            let verdict = match age {
                                Some(_) => None,
                                None => self
                                    .store
                                    .last_verdicts
                                    .iter()
                                    .find(|&&(node, _)| node == r.node)
                                    .map(|&(_, v)| v),
                            };
                            self.emit_request_spans(
                                r,
                                (start_ns, b1, b2, b3, completion_ns),
                                degraded,
                                age,
                                verdict,
                                &out,
                            );
                        }
                    }
                    self.obs.tracer.begin("batch", "serve", start_ns);
                    self.obs.tracer.end_with(
                        completion_ns,
                        vec![
                            ("size", batch.len() as u64),
                            ("misses", out.misses),
                            ("degraded", degraded as u64),
                            ("wire_bytes", out.wire_bytes),
                        ],
                    );
                    batch_idx += 1;
                }
                (None, None) => break,
                (Some(_), None) => unreachable!("arrivals left but no dispatch candidate"),
            }
        }
        self.drain_served(&mut pending_served, u64::MAX);

        // Thread fault state back out (plan RNG stream + breaker trips
        // persist across runs, as in the training engine).
        self.faults.plan = transfer.take_fault_plan();
        self.faults.breaker = transfer.take_breaker();

        // Before the overload return below: a wholly shed run still offered
        // its requests, and its queue depths are telemetry as they were.
        let m = &mut self.obs.metrics;
        let e = MetricClass::Exact;
        m.hist_merge("serve.queue.depth", e, queue_depth);
        m.hist_merge("serve.latency_ns", e, latency_hist);
        m.hist_merge("serve.served_age_ms", e, served_age);

        let offered = trace.len() as u64;
        if offered > 0 && served == 0 {
            return Err(FgnnError::Overload(format!(
                "all {offered} offered requests were shed (rate {} rps over queue cap {})",
                self.cfg.trace.rate_rps, self.cfg.admission.queue_cap
            )));
        }
        let admitted = served; // the queue fully drains: admitted − deadline-shed = served
        let admitted_total = offered - adm.shed_rate_limited - adm.shed_queue_full;
        debug_assert_eq!(admitted_total, admitted + adm.shed_deadline);

        latencies_ns.sort_unstable();
        let pct = |q: f64| -> f64 {
            if latencies_ns.is_empty() {
                return 0.0;
            }
            let n = latencies_ns.len();
            let idx = (((n as f64) * q).ceil() as usize).clamp(1, n) - 1;
            latencies_ns[idx] as f64 / 1e6
        };
        let duration_secs = end_ns as f64 * 1e-9;
        let report = ServeReport {
            offered,
            admitted: admitted_total,
            served,
            shed_rate_limited: adm.shed_rate_limited,
            shed_queue_full: adm.shed_queue_full,
            shed_deadline: adm.shed_deadline,
            degraded_served,
            cache_hits,
            cache_misses,
            sla_violations: self.store.sla_violations,
            deadline_misses,
            p50_ms: pct(0.50),
            p95_ms: pct(0.95),
            p99_ms: pct(0.99),
            max_queue_depth: adm.max_depth,
            duration_secs,
            throughput_rps: if duration_secs > 0.0 {
                served as f64 / duration_secs
            } else {
                0.0
            },
            shed_fraction: if offered > 0 {
                adm.shed_total() as f64 / offered as f64
            } else {
                0.0
            },
            shed_log: adm.shed_log,
        };

        // Flush the run's Exact metrics into the registry.
        m.counter_set("serve.requests.offered", e, report.offered);
        m.counter_set("serve.requests.admitted", e, report.admitted);
        m.counter_set("serve.requests.served", e, report.served);
        m.counter_set("serve.shed.rate_limited", e, report.shed_rate_limited);
        m.counter_set("serve.shed.queue_full", e, report.shed_queue_full);
        m.counter_set("serve.shed.deadline", e, report.shed_deadline);
        m.counter_set("serve.deadline_misses", e, report.deadline_misses);
        m.counter_set("serve.batches", e, batch_idx);
        m.counter_set("serve.cache.hits", e, report.cache_hits);
        m.counter_set("serve.cache.misses", e, report.cache_misses);
        m.counter_set("serve.degraded.served", e, report.degraded_served);
        m.counter_set("serve.degraded.batches", e, degraded_batches);
        m.counter_set("serve.degraded.hits", e, self.store.degraded_hits);
        m.counter_set("serve.sla.violations", e, report.sla_violations);
        m.counter_set("serve.transfer.failed", e, counters.failed_transfers);
        m.counter_set("serve.transfer.retries", e, counters.retries);
        m.counter_set("serve.transfer.h2d_bytes", e, counters.host_to_gpu_bytes);
        m.gauge_set("serve.transfer.seconds", e, counters.transfer_seconds);
        m.gauge_set("serve.transfer.retry_seconds", e, counters.retry_seconds);
        m.counter_set("serve.slo.alerts", e, self.slo.alerts.len() as u64);
        m.gauge_set("serve.slo.firing", e, self.slo.active_count() as f64);
        m.counter_set("serve.trace.exemplars", e, self.exemplars);
        m.counter_set("serve.trace.spans", e, self.req_tracer.spans().len() as u64);
        if let Some(b) = &self.faults.breaker {
            m.counter_set("serve.breaker.trips", e, b.trips);
            m.counter_set("serve.breaker.fast_fails", e, b.fast_fails);
            m.gauge_set("serve.breaker.state", e, b.state().code() as f64);
        }
        self.obs.clock.advance_secs(duration_secs);
        Ok(report)
    }

    /// Serve one batch at `start_ns`: cache hits read the store, misses
    /// recompute through the model with feature movement charged to the
    /// simulated interconnect. The per-stage seconds in the returned
    /// [`BatchOutcome`] are the *same* terms the service accumulation
    /// adds, bound to temporaries — the floating-point evaluation order
    /// is unchanged, so reports stay byte-identical with tracing on.
    fn serve_batch(
        &mut self,
        batch: &[Request],
        start_ns: u64,
        degraded: bool,
        transfer: &mut TransferEngine<'_>,
        counters: &mut TrafficCounters,
        batch_idx: u64,
    ) -> BatchOutcome {
        let now_ms = (start_ns / 1_000_000) as u32;
        for r in batch {
            self.store.note_request(r.node);
        }
        let mut hits = 0u64;
        self.ages.clear();
        self.miss.clear();
        for r in batch {
            let age = self.store.try_hit(r, now_ms, degraded);
            if age.is_some() {
                hits += 1;
            } else if !self.miss.contains(&r.node) {
                self.miss.push(r.node);
            }
            self.ages.push(age);
        }
        let miss_nodes = &self.miss[..];
        let misses = (batch.len() as u64) - hits;

        let mut service = SYNC_LATENCY + batch.len() as f64 * PER_REQUEST_OVERHEAD;
        let mut fetch_secs = 0.0;
        let mut compute_secs = 0.0;
        let mut wire_bytes = 0u64;
        if !miss_nodes.is_empty() {
            let mut rng = Rng::new(self.cfg.seed ^ batch_idx.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let inputs = self.recompute.run(
                self.ds,
                &self.model,
                &self.cfg.fanouts,
                miss_nodes,
                &mut rng,
            );
            let bytes = (inputs * self.ds.spec.feature_row_bytes()) as u64;
            // The requester blocks through retries and backoff, so fault
            // losses (`retry_seconds`) are service time here, unlike the
            // trainer's separate loss ledger.
            let h2d_before = counters.host_to_gpu_bytes;
            let retry_before = counters.retry_seconds;
            let t_read = transfer.one_sided_read(Node::Host, Node::Gpu(0), bytes, counters);
            service += t_read;
            let t_retry = counters.retry_seconds - retry_before;
            service += t_retry;
            fetch_secs = t_read + t_retry;
            wire_bytes = counters.host_to_gpu_bytes - h2d_before;
            let flops = dense_flops(inputs, self.ds.spec.feature_dim, self.ds.spec.num_classes)
                * self.cfg.fanouts.len() as f64;
            let t_compute = self.machine.gpu.compute_seconds(flops);
            service += t_compute;
            compute_secs = t_compute;
            // The hot fraction of the fresh embeddings is admitted for
            // future hits; the verdicts stay in `store.last_verdicts`.
            let out = self.recompute.embeddings();
            self.store.admit_fresh(miss_nodes, |i| out.row(i), now_ms);
        }
        BatchOutcome {
            service_secs: service,
            hits,
            misses,
            assembly_secs: SYNC_LATENCY,
            lookup_secs: batch.len() as f64 * PER_REQUEST_OVERHEAD,
            fetch_secs,
            compute_secs,
            wire_bytes,
        }
    }

    /// Drain buffered completion events with timestamp `<= upto_ns` into
    /// the SLO monitor, preserving its nondecreasing-time contract.
    fn drain_served(&mut self, pending: &mut VecDeque<(u64, u64, bool)>, upto_ns: u64) {
        while pending.front().is_some_and(|&(t, _, _)| t <= upto_ns) {
            let (t, latency_ns, bad) = pending.pop_front().expect("peeked above");
            self.slo.record_served(t, latency_ns, bad);
        }
    }

    /// Mirror new shed-ledger entries into telemetry: each shed counts
    /// against the SLO error budget, and exemplar-sampled sheds emit a
    /// zero-duration `shed` span carrying the request id and reason.
    fn note_sheds(&mut self, adm: &AdmissionController, shed_seen: &mut usize, cursor_ns: u64) {
        while *shed_seen < adm.shed_log.len() {
            let (id, reason) = adm.shed_log[*shed_seen];
            *shed_seen += 1;
            self.slo.record_shed(cursor_ns);
            if self.is_exemplar(id) {
                self.exemplars += 1;
                self.req_tracer.begin("shed", "serve_req", cursor_ns);
                self.req_tracer
                    .end_with(cursor_ns, vec![("id", id), ("reason", reason.code())]);
            }
        }
    }

    /// Emit one exemplar request's span tree. `bounds` is the monotone
    /// boundary tuple `(start, b1, b2, b3, completion)` laid down by the
    /// run loop; together with the zero-duration `admission` marker and
    /// the `queue_wait` span from `arrival_ns` to `start`, the six
    /// children tile `[arrival_ns, completion]` exactly — their durations
    /// sum to the request's latency in integer nanoseconds.
    fn emit_request_spans(
        &mut self,
        r: &Request,
        bounds: (u64, u64, u64, u64, u64),
        degraded: bool,
        age: Option<u32>,
        verdict: Option<Verdict>,
        out: &BatchOutcome,
    ) {
        let (start_ns, b1, b2, b3, completion_ns) = bounds;
        let t = &mut self.req_tracer;
        t.begin("request", "serve_req", r.arrival_ns);
        t.begin("admission", "serve_req", r.arrival_ns);
        t.end(r.arrival_ns);
        t.begin("queue_wait", "serve_req", r.arrival_ns);
        t.end(start_ns);
        t.begin("batch_assembly", "serve_req", start_ns);
        t.end_with(b1, vec![("size", out.hits + out.misses)]);
        t.begin("embed_lookup", "serve_req", b1);
        let mut lookup_args = vec![("hit", age.is_some() as u64)];
        match (age, verdict) {
            (Some(a), _) => lookup_args.push(("age_ms", a as u64)),
            (None, Some(v)) => lookup_args.push(("verdict", v.code())),
            (None, None) => {}
        }
        t.end_with(b2, lookup_args);
        t.begin("recompute", "serve_req", b2);
        t.end_with(
            b3,
            vec![("wire_bytes", out.wire_bytes), ("batch_misses", out.misses)],
        );
        t.begin("respond", "serve_req", b3);
        t.end(completion_ns);
        t.end_with(
            completion_ns,
            vec![
                ("id", r.id),
                ("node", r.node as u64),
                ("priority", r.priority.code()),
                ("degraded", degraded as u64),
                ("hit", age.is_some() as u64),
                ("latency_ns", completion_ns - r.arrival_ns),
            ],
        );
    }
}
