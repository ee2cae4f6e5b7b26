//! Overload-robust online inference serving (DESIGN.md §10).
//!
//! The training side of this repo proves FreshGNN's bet — stale-but-
//! bounded historical embeddings are good enough — on the gradient path.
//! This module reuses the same bet on the *read* path: a deterministic
//! request/response engine that serves node embeddings out of the
//! [`RingCache`](crate::cache::ring::RingCache), where the training
//! staleness bound `t_stale` is reinterpreted as a per-request **freshness
//! SLA**, and robustness under overload is the organizing principle:
//!
//! * [`trace`] — a seeded power-law request-trace generator: hot-node
//!   (Zipf) popularity, bursty open-loop arrivals, per-request priority,
//!   deadline and staleness budget;
//! * [`admission`] — the admission controller: token-bucket rate
//!   limiting, a bounded queue with priority displacement, and
//!   deadline-aware load shedding (every shed decision is an `Exact`
//!   metric and is logged for byte-identical replay);
//! * [`batcher`] — request batching under `max_batch` / `max_delay`
//!   knobs;
//! * [`freshness`] — the freshness-SLA read path over the ring cache:
//!   admission by request *frequency* (the serving surrogate for the
//!   training gradient-norm criterion), exact served-age accounting, and
//!   the SLA-relaxed degraded mode;
//! * [`engine`] — the discrete-event serving loop on simulated time:
//!   cache misses recompute real embeddings through the model and charge
//!   the `fgnn-memsim` interconnect (bounded retry/backoff, circuit
//!   breaker and all), so same-seed runs are byte-identical;
//! * [`export`] — the schema-tagged `fgnn-serve-v1` JSONL export and the
//!   `fgnn-serve-trace-v1` request trace.
//!
//! Degraded serving is principled, not best-effort: when the transfer
//! [`CircuitBreaker`](fgnn_memsim::CircuitBreaker) is open or the
//! [`Supervisor`](crate::resilience::Supervisor) reports degraded health,
//! the engine widens the cache-hit bound from the tight operator SLA to
//! each request's *own* staleness budget — it never serves an embedding
//! older than what the request contracted for (the serving analogue of
//! the `t_stale` invariant, counted in `serve.sla.violations`, which must
//! stay zero).

pub mod admission;
pub mod batcher;
pub mod engine;
pub mod export;
pub mod freshness;
pub mod trace;

pub use admission::{AdmissionConfig, AdmissionController, ShedReason, TokenBucket};
pub use batcher::{Batcher, BatcherConfig};
pub use engine::{ServeEngine, ServeReport};
pub use export::{
    serve_jsonl, serve_trace_jsonl, SERVE_SCHEMA_VERSION, SERVE_TRACE_SCHEMA_VERSION,
};
pub use freshness::{EmbedStore, FreshnessConfig};
pub use trace::{generate_trace, Priority, Request, TraceConfig};

use crate::error::FgnnError;

/// Bucket edges (nanoseconds) for the serving-latency histogram. Latency
/// observations are integer nanoseconds off the sim clock, so the
/// histogram stays `Exact`-class (integer-valued sums).
pub const SERVE_LATENCY_BUCKETS_NS: [f64; 8] = [1e5, 3e5, 1e6, 3e6, 1e7, 3e7, 1e8, 3e8];

/// Bucket edges (milliseconds) for the served-embedding-age histogram.
pub const SERVE_AGE_BUCKETS_MS: [f64; 9] =
    [1.0, 4.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0];

/// Bucket edges (requests) for the admission-queue depth histogram.
pub const SERVE_QUEUE_BUCKETS: [f64; 7] = [0.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0];

/// Per-request observability knobs (DESIGN.md §12): exemplar-sampled
/// request tracing. It is a pure function of the seed, as is the windowed
/// SLO monitor (fixed burn-rate rules, `obs::window`), so telemetry never
/// perturbs the served numbers.
#[derive(Clone, Debug)]
pub struct TelemetryConfig {
    /// Trace every ~Nth request as a full span-tree exemplar. `0`
    /// disables request tracing, `1` traces every request; for `N > 1`
    /// the choice is a deterministic hash of `(seed, request id)`, so the
    /// same requests are exemplars on every rerun (every request is still
    /// *counted*; only span emission is sampled).
    pub exemplar_every: u64,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig { exemplar_every: 16 }
    }
}

/// Full configuration of one serving run: trace shape, admission knobs,
/// batching knobs, freshness SLA, model fanouts and the run seed.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Request-trace generator settings.
    pub trace: TraceConfig,
    /// Admission-control settings (queue bound + token bucket).
    pub admission: AdmissionConfig,
    /// Batching settings.
    pub batcher: BatcherConfig,
    /// Freshness-SLA read-path settings.
    pub freshness: FreshnessConfig,
    /// Request-tracing and SLO-monitoring settings.
    pub telemetry: TelemetryConfig,
    /// Neighbor-sampling fanouts used when a miss recomputes an embedding
    /// (input→output order, as in training).
    pub fanouts: Vec<usize>,
    /// Seed for model init, miss-path sampling and the trace generator.
    pub seed: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            trace: TraceConfig::default(),
            admission: AdmissionConfig::default(),
            batcher: BatcherConfig::default(),
            freshness: FreshnessConfig::default(),
            telemetry: TelemetryConfig::default(),
            fanouts: vec![5, 5],
            seed: 42,
        }
    }
}

impl ServeConfig {
    /// Validate the configuration, naming the offending knob.
    pub(crate) fn validate(&self) -> Result<(), FgnnError> {
        let bad = |m: String| Err(FgnnError::Serve(m));
        if self.trace.num_requests == 0 {
            return bad("trace.num_requests must be positive".into());
        }
        if self.trace.num_nodes == 0 {
            return bad("trace.num_nodes must be positive".into());
        }
        // `<=` plus an explicit NaN check rejects exactly what `!(x > 0)`
        // would, without the negated-partial-ord footgun.
        if self.trace.rate_rps <= 0.0 || self.trace.rate_rps.is_nan() {
            return bad(format!(
                "trace.rate_rps must be positive, got {}",
                self.trace.rate_rps
            ));
        }
        if self.trace.burst_factor < 1.0 || self.trace.burst_factor.is_nan() {
            return bad(format!(
                "trace.burst_factor must be >= 1, got {}",
                self.trace.burst_factor
            ));
        }
        if self.trace.budget_ms.0 > self.trace.budget_ms.1 {
            return bad(format!(
                "trace.budget_ms range is inverted: {:?}",
                self.trace.budget_ms
            ));
        }
        if self.admission.queue_cap == 0 {
            return bad("admission.queue_cap must be positive".into());
        }
        if self.admission.rate_rps <= 0.0
            || self.admission.rate_rps.is_nan()
            || self.admission.burst < 1.0
            || self.admission.burst.is_nan()
        {
            return bad(format!(
                "admission token bucket needs rate > 0 and burst >= 1, got rate {} burst {}",
                self.admission.rate_rps, self.admission.burst
            ));
        }
        if self.batcher.max_batch == 0 {
            return bad("batcher.max_batch must be positive".into());
        }
        if self.freshness.cache_capacity == 0 {
            return bad("freshness.cache_capacity must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.freshness.admit_top_frac) {
            return bad(format!(
                "freshness.admit_top_frac must be in [0, 1], got {}",
                self.freshness.admit_top_frac
            ));
        }
        if self.fanouts.is_empty() {
            return bad("at least one fanout layer is required".into());
        }
        Ok(())
    }
}
