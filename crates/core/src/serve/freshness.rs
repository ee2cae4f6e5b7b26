//! The freshness-SLA read path over the ring cache.
//!
//! Training admits embeddings by gradient norm because stability predicts
//! reuse value; serving has no gradients, so the surrogate is **request
//! frequency** ([`crate::cache::FrequencyPolicy`]): a hot node's
//! embedding amortizes its recompute over many requests. Staleness is
//! measured in sim-clock *milliseconds* rather than training iterations,
//! and the bound is per request: each [`Request`] carries its own budget.
//!
//! Two hit bounds exist:
//!
//! * **normal mode** — `min(t_sla_ms, budget)`: the operator's tight SLA,
//!   further tightened by any stricter request;
//! * **degraded mode** — `budget`: when the transfer breaker is open or
//!   the supervisor reports degraded health, a fetch is the expensive
//!   thing to avoid, so the store relaxes exactly up to what each request
//!   contracted for — and not a millisecond past it. Every served age is
//!   checked against the budget and violations are counted (`Exact`);
//!   the invariant is that the counter stays zero.

use super::trace::Request;
use crate::cache::policy::{CachePolicy, FrequencyPolicy, PolicyInput, Verdict};
use crate::cache::ring::RingCache;
use fgnn_graph::NodeId;
use fgnn_tensor::Rng;

/// Freshness-SLA knobs.
#[derive(Clone, Debug)]
pub struct FreshnessConfig {
    /// Ring-cache capacity in embedding rows.
    pub cache_capacity: usize,
    /// Tight staleness bound (milliseconds) applied in normal mode.
    pub t_sla_ms: u32,
    /// Fraction of each miss batch admitted to the cache, hottest first.
    pub admit_top_frac: f32,
}

impl Default for FreshnessConfig {
    fn default() -> Self {
        FreshnessConfig {
            cache_capacity: 256,
            t_sla_ms: 100,
            admit_top_frac: 0.5,
        }
    }
}

/// The serving-side embedding store: a ring cache plus request-frequency
/// accounting and exact served-age bookkeeping.
pub struct EmbedStore {
    cache: RingCache,
    cfg: FreshnessConfig,
    /// Admission policy. The default ([`FrequencyPolicy`]) scores by
    /// request frequency; any [`CachePolicy`] can be swapped in at
    /// construction via [`EmbedStore::with_policy`].
    policy: Box<dyn CachePolicy>,
    /// Fixed-seed side stream consumed only by randomized policies, so the
    /// default store stays byte-identical to the pre-trait one.
    policy_rng: Rng,
    /// Cumulative request count per node (the admission score).
    freq: Vec<u64>,
    /// Served embeddings older than their request's budget. Must stay 0 —
    /// this is the serving analogue of the training `t_stale` invariant.
    pub sla_violations: u64,
    /// Cache reads served under the relaxed degraded bound.
    pub degraded_hits: u64,
    /// The policy verdicts of the most recent [`EmbedStore::admit_fresh`]
    /// call, in verdict order — surfaced so the request tracer can attach
    /// each miss's admission verdict as a span attribute.
    pub last_verdicts: Vec<(NodeId, Verdict)>,
}

impl EmbedStore {
    /// A store over `num_nodes` nodes with `dim`-wide embeddings, admitting
    /// by request frequency (the serving default).
    pub fn new(num_nodes: usize, dim: usize, cfg: FreshnessConfig) -> Self {
        Self::with_policy(num_nodes, dim, cfg, Box::new(FrequencyPolicy))
    }

    /// A store with an explicit admission [`CachePolicy`] — frequency
    /// admission is just the default instance. The policy scores each miss
    /// batch over `PolicyInput.grad_norm = request frequency`.
    pub fn with_policy(
        num_nodes: usize,
        dim: usize,
        cfg: FreshnessConfig,
        policy: Box<dyn CachePolicy>,
    ) -> Self {
        EmbedStore {
            cache: RingCache::new(num_nodes, cfg.cache_capacity, dim),
            policy,
            policy_rng: Rng::new(0x0053_4552_5645), // "SERVE": fixed side stream
            freq: vec![0; num_nodes],
            cfg,
            sla_violations: 0,
            degraded_hits: 0,
            last_verdicts: Vec::new(),
        }
    }

    /// Display name of the admission policy in effect.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// The underlying ring cache (hit/eviction counters, age histogram).
    pub fn cache(&self) -> &RingCache {
        &self.cache
    }

    /// Record one request against `node`'s frequency score.
    pub fn note_request(&mut self, node: NodeId) {
        self.freq[node as usize] += 1;
    }

    /// Try to serve `req` from cache at sim time `now_ms`. Returns the
    /// exact age (milliseconds) of the served embedding on a hit. In
    /// degraded mode the bound relaxes from `min(t_sla, budget)` to the
    /// request's own `budget` — never beyond it.
    pub fn try_hit(&mut self, req: &Request, now_ms: u32, degraded: bool) -> Option<u32> {
        let bound = if degraded {
            req.staleness_budget_ms
        } else {
            self.cfg.t_sla_ms.min(req.staleness_budget_ms)
        };
        let slot = self.cache.lookup(req.node, now_ms, bound)?;
        let age = self.cache.age_of(slot, now_ms);
        if age > req.staleness_budget_ms {
            self.sla_violations += 1;
        }
        if degraded {
            self.degraded_hits += 1;
        }
        Some(age)
    }

    /// Admit freshly computed miss embeddings by request frequency: the
    /// hottest `admit_top_frac` of the batch goes into the ring, the rest
    /// is served once and dropped. `rows(i)` yields the embedding of
    /// `nodes[i]`.
    pub fn admit_fresh<'r>(
        &mut self,
        nodes: &[NodeId],
        mut rows: impl FnMut(usize) -> &'r [f32],
        now_ms: u32,
    ) -> u64 {
        self.last_verdicts.clear();
        if nodes.is_empty() {
            return 0;
        }
        let inputs: Vec<PolicyInput> = nodes
            .iter()
            .enumerate()
            .map(|(i, &n)| PolicyInput {
                node: n,
                local: i as u32,
                grad_norm: self.freq[n as usize] as f32,
                was_cached: false,
            })
            .collect();
        let mut admitted = 0u64;
        let verdicts = self
            .policy
            .verdicts(&inputs, self.cfg.admit_top_frac, &mut self.policy_rng);
        for (x, verdict) in verdicts {
            self.last_verdicts.push((x.node, verdict));
            if verdict == Verdict::Admit {
                // Fixed-size admission: serving prefers overwriting the
                // oldest slot to growing, so "cache size" stays a real
                // knob in the load sweeps.
                self.cache
                    .admit_fixed(x.node, rows(x.local as usize), now_ms);
                admitted += 1;
            }
        }
        admitted
    }

    /// Preload embeddings unconditionally (cache warm-up before a run).
    pub(crate) fn warm<'r>(
        &mut self,
        nodes: &[NodeId],
        mut rows: impl FnMut(usize) -> &'r [f32],
        now_ms: u32,
    ) {
        for (i, &n) in nodes.iter().enumerate() {
            self.cache.admit_fixed(n, rows(i), now_ms);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::trace::Priority;
    use super::*;

    fn req(node: NodeId, budget_ms: u32) -> Request {
        Request {
            id: 0,
            node,
            arrival_ns: 0,
            deadline_ns: 0,
            priority: Priority::Normal,
            staleness_budget_ms: budget_ms,
        }
    }

    fn store(capacity: usize, t_sla_ms: u32) -> EmbedStore {
        EmbedStore::new(
            16,
            2,
            FreshnessConfig {
                cache_capacity: capacity,
                t_sla_ms,
                admit_top_frac: 0.5,
            },
        )
    }

    #[test]
    fn normal_mode_uses_the_tighter_of_sla_and_budget() {
        let mut s = store(4, 50);
        let rows = [[1.0f32, 2.0], [3.0, 4.0]];
        s.warm(&[1, 2], |i| &rows[i], 0);
        // Age 40 ≤ min(50, 100): hit.
        assert_eq!(s.try_hit(&req(1, 100), 40, false), Some(40));
        // Age 60 > t_sla 50: miss even though the budget would allow it.
        assert_eq!(s.try_hit(&req(2, 100), 60, false), None);
        assert_eq!(s.sla_violations, 0);
    }

    #[test]
    fn degraded_mode_relaxes_to_the_request_budget_only() {
        let mut s = store(4, 50);
        let rows = [[1.0f32, 2.0], [3.0, 4.0]];
        s.warm(&[1, 2], |i| &rows[i], 0);
        // Age 80 > t_sla but ≤ budget 100: degraded hit.
        assert_eq!(s.try_hit(&req(1, 100), 80, true), Some(80));
        assert_eq!(s.degraded_hits, 1);
        // Age 80 > budget 60: still a miss — the budget is a hard wall.
        assert_eq!(s.try_hit(&req(2, 60), 80, true), None);
        assert_eq!(s.sla_violations, 0);
    }

    #[test]
    fn with_policy_swaps_the_admission_criterion() {
        use crate::cache::policy::GradientPolicy;
        // GradientPolicy admits the *bottom* of the score distribution, so
        // over frequency scores it keeps the cold half — the mirror image
        // of the default store's behavior below.
        let mut s = EmbedStore::with_policy(
            16,
            2,
            FreshnessConfig {
                cache_capacity: 8,
                t_sla_ms: 100,
                admit_top_frac: 0.5,
            },
            Box::new(GradientPolicy),
        );
        assert_eq!(s.policy_name(), "gradient");
        for _ in 0..10 {
            s.note_request(3);
        }
        s.note_request(5);
        let rows = [[1.0f32, 1.0], [2.0, 2.0]];
        let admitted = s.admit_fresh(&[3, 5], |i| &rows[i], 0);
        assert_eq!(admitted, 1);
        assert_eq!(s.try_hit(&req(5, 100), 0, false), Some(0), "cold admitted");
        assert_eq!(s.try_hit(&req(3, 100), 0, false), None, "hot dropped");
    }

    #[test]
    fn frequency_admission_keeps_the_hot_half() {
        let mut s = store(8, 100);
        for _ in 0..10 {
            s.note_request(3);
        }
        s.note_request(5);
        let rows = [[1.0f32, 1.0], [2.0, 2.0]];
        let admitted = s.admit_fresh(&[3, 5], |i| &rows[i], 0);
        assert_eq!(admitted, 1);
        assert_eq!(s.try_hit(&req(3, 100), 0, false), Some(0), "hot admitted");
        assert_eq!(s.try_hit(&req(5, 100), 0, false), None, "cold dropped");
    }
}
