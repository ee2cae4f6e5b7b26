//! Observability: deterministic tracing + metrics over the pipeline.
//!
//! Zero-dependency, in-tree telemetry with three parts:
//!
//! * [`SimClock`] — a nanosecond clock advanced **only** by exact
//!   simulated time, so every timestamp is bit-reproducible;
//! * [`Tracer`]/[`Span`] — nested epoch → batch → stage intervals emitted
//!   by [`crate::pipeline::Engine`];
//! * [`Metrics`] — a name-ordered registry of counters, gauges and
//!   fixed-bucket histograms, each tagged [`MetricClass::Exact`] or
//!   [`MetricClass::Measured`] (the repo's simulated-vs-wall-clock split).
//!
//! Exports ([`export::metrics_jsonl`], [`export::chrome_trace`]) are
//! hand-rolled JSON; the schema is documented in DESIGN.md §8 and pinned
//! by `tests/obs_invariants.rs` plus a committed golden trace.
//!
//! The serving/trajectory layer (DESIGN.md §12) adds [`schema`] (the one
//! home of every `fgnn-*-v1` tag), [`window`] (sim-time sliding windows,
//! a mergeable latency sketch and the multi-window SLO burn-rate
//! [`SloMonitor`]) and [`json`] (a minimal parser so the trajectory gate
//! can read committed `BENCH_*.json` baselines back).

pub mod clock;
pub mod export;
pub mod json;
pub mod metrics;
pub mod schema;
pub mod span;
pub mod window;

pub use clock::SimClock;
pub use json::{parse as parse_json, JsonError, JsonValue};
pub use metrics::{Histogram, MetricClass, MetricValue, Metrics};
pub use span::{Span, Tracer};
pub use window::{AlertEvent, BurnRule, EventWindow, SloConfig, SloMonitor, WindowedSketch};

/// Bucket edges (iterations) for cache entry-age histograms.
pub const AGE_BUCKETS: [f64; 8] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0];

/// Bucket edges (items) for sampler queue-depth histograms.
pub const QUEUE_DEPTH_BUCKETS: [f64; 6] = [0.0, 1.0, 2.0, 4.0, 8.0, 16.0];

/// Bucket edges (seconds) for sampler per-task latency histograms.
pub const LATENCY_BUCKETS: [f64; 8] = [1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2];

/// Per-trainer observability state: one clock, one span stream, one
/// metrics registry. Threaded explicitly (`&mut Obs`) through the pipeline
/// engine's epoch ([`crate::pipeline::Engine`]) — no globals, no locks.
#[derive(Clone, Debug, Default)]
pub struct Obs {
    /// Deterministic timestamp source for [`Obs::tracer`].
    pub clock: SimClock,
    /// Span stream (epoch / batch / stage intervals).
    pub tracer: Tracer,
    /// Metrics registry.
    pub metrics: Metrics,
}

impl Obs {
    /// New empty observability state.
    pub fn new() -> Self {
        Self::default()
    }
}
