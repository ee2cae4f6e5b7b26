//! Seeded request-trace generation: power-law popularity, bursty
//! open-loop arrivals.
//!
//! Serving workloads are *open-loop*: users do not wait for the previous
//! response before sending the next request, so arrivals keep coming at
//! the offered rate no matter how far behind the server falls — the
//! regime where admission control matters and a closed-loop benchmark
//! would silently self-throttle. Arrivals are a Poisson process (inverse-
//! CDF exponential inter-arrival times) whose rate is multiplied by
//! `burst_factor` inside periodic burst windows; node popularity is
//! Zipf-distributed over a seeded permutation of the node IDs, so the hot
//! set is a stable but non-trivial subset of the graph. Everything is a
//! pure function of the seed.

use fgnn_graph::NodeId;
use fgnn_tensor::Rng;

/// Request priority class; higher priorities displace lower ones when the
/// admission queue is full.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Priority {
    /// Best-effort (analytics backfill, prefetch).
    Low,
    /// Default interactive traffic.
    Normal,
    /// Latency-critical traffic; sheds last.
    High,
}

impl Priority {
    /// Stable numeric code for metric export (`0`/`1`/`2`).
    pub(crate) fn code(self) -> u64 {
        match self {
            Priority::Low => 0,
            Priority::Normal => 1,
            Priority::High => 2,
        }
    }
}

/// One inference request for a node embedding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Request {
    /// Trace-unique request ID (position in the trace).
    pub id: u64,
    /// The node whose embedding is requested.
    pub node: NodeId,
    /// Arrival timestamp (sim nanoseconds).
    pub arrival_ns: u64,
    /// Absolute response deadline (sim nanoseconds); requests that cannot
    /// be served by this point are shed rather than served late.
    pub deadline_ns: u64,
    /// Priority class for queue-full displacement.
    pub priority: Priority,
    /// Per-request staleness budget (milliseconds): the oldest cached
    /// embedding this request is willing to accept. This is the request's
    /// freshness SLA — the serving analogue of the training `t_stale`.
    pub staleness_budget_ms: u32,
}

/// Burst cycle length (seconds): each cycle opens with a burst window.
const BURST_PERIOD_SECS: f64 = 0.2;
/// Burst window length (seconds) at the start of each cycle.
const BURST_SECS: f64 = 0.05;
/// Fraction of requests drawn as [`Priority::High`].
const HIGH_FRAC: f32 = 0.1;
/// Fraction of requests drawn as [`Priority::Low`].
const LOW_FRAC: f32 = 0.2;

/// Trace-generator knobs.
#[derive(Clone, Debug)]
pub struct TraceConfig {
    /// Number of requests to generate.
    pub num_requests: usize,
    /// Node-ID universe (`0..num_nodes`).
    pub num_nodes: usize,
    /// Zipf popularity exponent (`0` = uniform; `~1` = web-like skew).
    pub zipf_exponent: f64,
    /// Base offered load, requests per simulated second.
    pub rate_rps: f64,
    /// Arrival-rate multiplier inside the burst window that opens each
    /// `BURST_PERIOD_SECS` cycle (`>= 1`; `1` disables bursts).
    pub burst_factor: f64,
    /// Response deadline, milliseconds after arrival.
    pub deadline_ms: u32,
    /// Inclusive range of per-request staleness budgets (milliseconds).
    pub budget_ms: (u32, u32),
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            num_requests: 2000,
            num_nodes: 1024,
            zipf_exponent: 0.8,
            rate_rps: 2000.0,
            burst_factor: 2.0,
            deadline_ms: 100,
            budget_ms: (100, 400),
        }
    }
}

/// A uniform `f64` in `[0, 1)` with 53 bits of precision, derived from
/// the shared SplitMix stream so the trace stays a pure seed function.
fn uniform_f64(rng: &mut Rng) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Generate a request trace from `cfg` under `seed`. Deterministic:
/// identical `(cfg, seed)` pairs produce identical traces.
pub fn generate_trace(cfg: &TraceConfig, seed: u64) -> Vec<Request> {
    let mut rng = Rng::new(seed ^ 0x5E1F_7AC3_0DDB_A11D);

    // Zipf CDF over popularity ranks, then a seeded rank → node-ID
    // permutation so the hot set is not just the lowest IDs.
    let mut cdf = Vec::with_capacity(cfg.num_nodes);
    let mut acc = 0.0f64;
    for k in 0..cfg.num_nodes {
        acc += 1.0 / ((k + 1) as f64).powf(cfg.zipf_exponent);
        cdf.push(acc);
    }
    let total = acc;
    let mut rank_to_node: Vec<NodeId> = (0..cfg.num_nodes as NodeId).collect();
    rng.shuffle(&mut rank_to_node);

    let mut out = Vec::with_capacity(cfg.num_requests);
    let mut t_secs = 0.0f64;
    for id in 0..cfg.num_requests as u64 {
        // Open-loop arrival: exponential inter-arrival at the current
        // (possibly bursting) rate.
        let bursting = (t_secs % BURST_PERIOD_SECS) < BURST_SECS;
        let rate = if bursting {
            cfg.rate_rps * cfg.burst_factor
        } else {
            cfg.rate_rps
        };
        let u = uniform_f64(&mut rng);
        t_secs += -(1.0 - u).ln() / rate;
        let arrival_ns = (t_secs * 1e9).round() as u64;

        // Popularity: binary-search the Zipf CDF.
        let target = uniform_f64(&mut rng) * total;
        let rank = cdf.partition_point(|&c| c < target).min(cfg.num_nodes - 1);
        let node = rank_to_node[rank];

        let p = rng.uniform();
        let priority = if p < HIGH_FRAC {
            Priority::High
        } else if p < HIGH_FRAC + LOW_FRAC {
            Priority::Low
        } else {
            Priority::Normal
        };

        let (lo, hi) = cfg.budget_ms;
        let staleness_budget_ms = lo + rng.below((hi - lo + 1) as usize) as u32;

        out.push(Request {
            id,
            node,
            arrival_ns,
            deadline_ns: arrival_ns + cfg.deadline_ms as u64 * 1_000_000,
            priority,
            staleness_budget_ms,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_trace() {
        let cfg = TraceConfig::default();
        assert_eq!(generate_trace(&cfg, 7), generate_trace(&cfg, 7));
        assert_ne!(generate_trace(&cfg, 7), generate_trace(&cfg, 8));
    }

    #[test]
    fn arrivals_are_monotone_and_fields_in_range() {
        let cfg = TraceConfig {
            num_requests: 500,
            num_nodes: 64,
            budget_ms: (50, 60),
            ..Default::default()
        };
        let trace = generate_trace(&cfg, 3);
        assert_eq!(trace.len(), 500);
        for w in trace.windows(2) {
            assert!(w[0].arrival_ns <= w[1].arrival_ns);
        }
        for r in &trace {
            assert!((r.node as usize) < 64);
            assert!(r.deadline_ns == r.arrival_ns + 100_000_000);
            assert!((50..=60).contains(&r.staleness_budget_ms));
        }
    }

    #[test]
    fn zipf_skews_toward_a_hot_set() {
        let cfg = TraceConfig {
            num_requests: 4000,
            num_nodes: 1000,
            zipf_exponent: 1.0,
            ..Default::default()
        };
        let trace = generate_trace(&cfg, 11);
        let mut counts = vec![0u64; 1000];
        for r in &trace {
            counts[r.node as usize] += 1;
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top10: u64 = counts.iter().take(10).sum();
        assert!(
            top10 as f64 > 0.2 * trace.len() as f64,
            "top-10 nodes carry {top10} of {} requests",
            trace.len()
        );
    }

    #[test]
    fn burst_windows_raise_local_arrival_rate() {
        let cfg = TraceConfig {
            num_requests: 6000,
            rate_rps: 1000.0,
            burst_factor: 4.0,
            ..Default::default()
        };
        let trace = generate_trace(&cfg, 5);
        let (mut in_burst, mut outside) = (0u64, 0u64);
        for r in &trace {
            let phase = (r.arrival_ns as f64 * 1e-9) % BURST_PERIOD_SECS;
            if phase < BURST_SECS {
                in_burst += 1;
            } else {
                outside += 1;
            }
        }
        // Arrivals per second of window time, inside and outside bursts.
        let burst_rate = in_burst as f64 / BURST_SECS;
        let steady_rate = outside as f64 / (BURST_PERIOD_SECS - BURST_SECS);
        assert!(
            burst_rate > 2.0 * steady_rate,
            "burst {burst_rate} vs steady {steady_rate} arrivals per window second"
        );
    }
}
