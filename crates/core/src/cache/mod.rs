//! The historical embedding cache (§4): per-layer ring buffers plus the
//! pluggable gradient/staleness policy family (DESIGN.md §11).

pub mod feature_cache;
pub mod policy;
pub mod ring;

pub use feature_cache::StaticFeatureCache;
pub use policy::{
    gradient_policy, inverted_gradient_policy, CachePolicy, CoarseRefreshPolicy, FrequencyPolicy,
    GradientPolicy, InverseGradientPolicy, PolicyInput, PolicyKind, PredictivePolicy, RandomPolicy,
    StalenessWeightedPolicy, Verdict,
};
pub use ring::{RingCache, RingSnapshot};

use fgnn_graph::NodeId;
use fgnn_tensor::Matrix;
use std::cell::Cell;

/// Aggregated cache statistics across layers.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CacheStats {
    /// Lookups that returned a usable embedding.
    pub hits: u64,
    /// Lookups that missed (absent, recycled, or stale).
    pub misses: u64,
    /// Fresh embeddings admitted.
    pub admits: u64,
    /// Cached embeddings kept after the gradient test.
    pub keeps: u64,
    /// Evictions by the gradient criterion.
    pub grad_evictions: u64,
    /// Evictions by the staleness criterion.
    pub stale_evictions: u64,
    /// Ring-header overwrites.
    pub overwrites: u64,
    /// Live-entry hits declined by the policy's refresh schedule
    /// ([`CachePolicy::refresh_due`]) so the node recomputes and refreshes
    /// the entry in place. Always 0 under the baseline policy.
    pub scheduled_refreshes: u64,
    /// Cache reads scaled by a staleness weight ≠ 1.0. Always 0 under the
    /// baseline policy.
    pub weighted_reads: u64,
    /// Cache reads extrapolated along the entry's update history. Always 0
    /// under the baseline policy.
    pub predicted_reads: u64,
}

impl CacheStats {
    /// Hit rate over all lookups (0 when none).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Multi-layer historical embedding cache.
///
/// Level `l ∈ 1..=L` refers to the output of GNN layer `l` (`h^{(l)}` in
/// the paper); interior reuse reads levels `1..L`. A disabled cache (the
/// neighbor-sampling degeneration of §4.1) answers every lookup with a
/// miss and ignores admissions.
pub struct HistoricalCache {
    /// `levels[l-1]` caches `h^{(l)}`; `None` = level not cached.
    levels: Vec<Option<RingCache>>,
    t_stale: u32,
    hits: u64,
    misses: u64,
    admits: u64,
    keeps: u64,
    /// Hits declined by the policy's refresh schedule (policy telemetry;
    /// not checkpointed — restarts on resume like the ring telemetry,
    /// and is always 0 under the baseline policy).
    scheduled_refreshes: u64,
    /// Reads scaled by a staleness weight (`Cell`: the read path holds
    /// `&self` inside the forward closure, like the static-cache hit
    /// counters). Not checkpointed; 0 under the baseline policy.
    weighted_reads: Cell<u64>,
    /// Reads extrapolated along update history (`Cell`, as above).
    predicted_reads: Cell<u64>,
    /// Whether update-delta history is enabled on the rings (re-applied
    /// after `restore`, since snapshots never carry history).
    history: bool,
    /// Transient degraded-mode switch (never checkpointed): while set,
    /// every lookup misses silently and admissions are dropped, so the
    /// trainer fetches raw features instead of trusting stale entries.
    bypass: bool,
}

impl HistoricalCache {
    /// Build a cache for an `L`-layer model.
    ///
    /// `dims[l-1]` is the embedding dimension of level `l` (the model's
    /// hidden/output dims). The top level `L` (the logits) is never cached:
    /// interior reuse reads levels `1..L` only. `initial_capacity = 0` auto-sizes: tables start
    /// at 1024 rows and grow on demand (§4.2's "initialize the cache table
    /// with a fixed size and reallocate it on-demand").
    pub fn new(
        num_nodes: usize,
        dims: &[usize],
        t_stale: u32,
        initial_capacity: usize,
        enabled: bool,
    ) -> Self {
        let num_levels = dims.len();
        let cap = if initial_capacity == 0 {
            1024
        } else {
            initial_capacity
        };
        let levels = dims
            .iter()
            .enumerate()
            .map(|(i, &dim)| {
                if enabled && i + 1 < num_levels {
                    Some(RingCache::new(num_nodes, cap, dim))
                } else {
                    None
                }
            })
            .collect();
        HistoricalCache {
            levels,
            t_stale,
            hits: 0,
            misses: 0,
            admits: 0,
            keeps: 0,
            scheduled_refreshes: 0,
            weighted_reads: Cell::new(0),
            predicted_reads: Cell::new(0),
            history: false,
            bypass: false,
        }
    }

    /// Enable per-entry update-delta history on every cached level (needed
    /// by policies whose [`CachePolicy::wants_history`] is true). Idempotent;
    /// re-applied automatically after `HistoricalCache::restore` and
    /// `HistoricalCache::clear`.
    pub fn enable_history(&mut self) {
        self.history = true;
        for c in self.levels.iter_mut().flatten() {
            c.enable_history();
        }
    }

    /// Engage or release degraded-mode bypass: while engaged, lookups miss
    /// silently (no counters move, like a disabled level) and
    /// [`HistoricalCache::apply_verdicts`] is a no-op. The flag is
    /// transient — it is not part of [`CacheSnapshot`] and survives
    /// neither `snapshot`/`restore` nor checkpointing.
    pub(crate) fn set_bypass(&mut self, bypass: bool) {
        self.bypass = bypass;
    }

    /// Look up `node` at `level` for iteration `now`: the entry's slot if
    /// it is live and within `t_stale`. A live, in-bound entry whose age
    /// the policy's [`CachePolicy::refresh_due`] schedule flags is
    /// *declined* — the lookup reports a miss **without
    /// evicting the entry**, so the caller recomputes the node and, if it
    /// is still stable, re-admits it over the live entry: a refresh in
    /// place, which also records the update delta feeding
    /// [`CachePolicy::wants_history`] extrapolation. The baseline
    /// [`GradientPolicy`] has no schedule.
    pub fn lookup_with(
        &mut self,
        level: usize,
        node: NodeId,
        now: u32,
        policy: &dyn CachePolicy,
    ) -> Option<u32> {
        if self.bypass {
            return None;
        }
        let t_stale = self.t_stale;
        let c = self.levels[level - 1].as_mut()?;
        if let Some(stamp) = c.stamp_of(node) {
            let age = now.saturating_sub(stamp);
            if age <= t_stale && policy.refresh_due(age, t_stale) {
                // Declined hit: counts as a ring lookup and a cache miss
                // (the caller will recompute), but the entry stays live so
                // the recompute's admit refreshes it in place.
                c.lookups += 1;
                self.misses += 1;
                self.scheduled_refreshes += 1;
                return None;
            }
        }
        let res = c.lookup(node, now, t_stale);
        if res.is_some() {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        res
    }

    /// Copy a cached embedding into `dst`.
    pub fn fetch_into(&self, level: usize, slot: u32, dst: &mut [f32]) {
        let cache = self.levels[level - 1].as_ref().expect("level not cached");
        dst.copy_from_slice(cache.fetch(slot));
    }

    /// Policy-aware read: copy slot `slot` into `dst`, then let `policy`
    /// post-process the stale entry — extrapolate it along its update
    /// history ([`CachePolicy::wants_history`]) and/or scale it by a
    /// staleness weight ([`CachePolicy::read_weight`]). `now` is the
    /// current iteration; `slot` must come from a successful
    /// [`HistoricalCache::lookup_with`] at the same `now`, so the entry's age
    /// is within `t_stale` by construction. Under the baseline policy this
    /// is byte-identical to [`HistoricalCache::fetch_into`].
    pub fn read_into(
        &self,
        level: usize,
        slot: u32,
        now: u32,
        policy: &dyn CachePolicy,
        dst: &mut [f32],
    ) {
        let cache = self.levels[level - 1].as_ref().expect("level not cached");
        dst.copy_from_slice(cache.fetch(slot));
        let age = cache.age_of(slot, now);
        if age > 0 && policy.wants_history() && cache.extrapolate_into(slot, age, dst) {
            self.predicted_reads.set(self.predicted_reads.get() + 1);
        }
        let w = policy.read_weight(age, self.t_stale);
        if w != 1.0 {
            for x in dst.iter_mut() {
                *x *= w;
            }
            self.weighted_reads.set(self.weighted_reads.get() + 1);
        }
    }

    /// Apply a policy's verdicts for one level: admit fresh rows out of
    /// `h` (the level's representation matrix), evict unstable cached
    /// entries, refresh stamps of kept entries. An admit over a still-live
    /// entry (the [`HistoricalCache::lookup_with`] refresh-schedule path)
    /// refreshes it in place, recording the update delta when history is
    /// enabled.
    pub fn apply_verdicts(
        &mut self,
        level: usize,
        verdicts: &[(PolicyInput, Verdict)],
        h: &Matrix,
        now: u32,
    ) {
        if self.bypass {
            return;
        }
        let t_stale = self.t_stale;
        let Some(cache) = self.levels[level - 1].as_mut() else {
            return;
        };
        for &(input, verdict) in verdicts {
            match verdict {
                Verdict::Admit => {
                    cache.admit(input.node, h.row(input.local as usize), now, t_stale);
                    self.admits += 1;
                }
                Verdict::Keep => {
                    self.keeps += 1;
                }
                Verdict::Evict => cache.evict(input.node),
                Verdict::Skip => {}
            }
        }
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> CacheStats {
        let mut s = CacheStats {
            hits: self.hits,
            misses: self.misses,
            admits: self.admits,
            keeps: self.keeps,
            scheduled_refreshes: self.scheduled_refreshes,
            weighted_reads: self.weighted_reads.get(),
            predicted_reads: self.predicted_reads.get(),
            ..Default::default()
        };
        for c in self.levels.iter().flatten() {
            s.grad_evictions += c.grad_evictions;
            s.stale_evictions += c.stale_evictions;
            s.overwrites += c.overwrites;
        }
        s
    }

    /// Total ring-level lookups across levels (observability only; not
    /// checkpointed). Disabled levels never reach a ring, so this always
    /// equals `stats().hits + stats().misses` on a fresh cache — the
    /// cross-layer invariant `tests/obs_invariants.rs` pins.
    pub fn lookups(&self) -> u64 {
        self.levels.iter().flatten().map(|c| c.lookups).sum()
    }

    /// Merged hit-age histogram across levels (observability only).
    pub fn hit_age_histogram(&self) -> crate::obs::Histogram {
        let mut out = crate::obs::Histogram::new(&crate::obs::AGE_BUCKETS);
        for c in self.levels.iter().flatten() {
            out.merge(c.hit_age_histogram());
        }
        out
    }

    /// Resident bytes across levels (tables + mapping arrays).
    pub fn bytes(&self) -> usize {
        self.levels.iter().flatten().map(RingCache::bytes).sum()
    }

    /// Total live entries across levels (O(capacity); metrics only).
    pub fn len(&self) -> usize {
        self.levels.iter().flatten().map(RingCache::len).sum()
    }

    /// Whether no level holds any entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Full serializable state (for checkpointing).
    pub fn snapshot(&self) -> CacheSnapshot {
        CacheSnapshot {
            levels: self
                .levels
                .iter()
                .map(|l| l.as_ref().map(RingCache::snapshot))
                .collect(),
            t_stale: self.t_stale,
            hits: self.hits,
            misses: self.misses,
            admits: self.admits,
            keeps: self.keeps,
        }
    }

    /// Replace this cache's state with a snapshot taken from an
    /// identically-configured cache. The level layout (which levels are
    /// enabled) must match the current configuration; contents and
    /// counters are restored verbatim.
    pub(crate) fn restore(&mut self, snapshot: CacheSnapshot) -> Result<(), String> {
        if snapshot.levels.len() != self.levels.len() {
            return Err(format!(
                "cache snapshot has {} levels, config expects {}",
                snapshot.levels.len(),
                self.levels.len()
            ));
        }
        let mut levels = Vec::with_capacity(snapshot.levels.len());
        for (i, (snap, cur)) in snapshot.levels.into_iter().zip(&self.levels).enumerate() {
            match (snap, cur) {
                (Some(s), Some(cur)) => {
                    if s.table.cols() != cur.dim() {
                        return Err(format!(
                            "cache snapshot level {} dim {} != configured {}",
                            i + 1,
                            s.table.cols(),
                            cur.dim()
                        ));
                    }
                    levels.push(Some(RingCache::from_snapshot(s)?));
                }
                (None, None) => levels.push(None),
                _ => {
                    return Err(format!(
                        "cache snapshot level {} enabled-ness disagrees with config",
                        i + 1
                    ))
                }
            }
        }
        self.levels = levels;
        self.t_stale = snapshot.t_stale;
        self.hits = snapshot.hits;
        self.misses = snapshot.misses;
        self.admits = snapshot.admits;
        self.keeps = snapshot.keeps;
        // Snapshots never carry history or policy telemetry: restart both
        // (the same restart-on-resume contract as the ring lookup counters).
        self.scheduled_refreshes = 0;
        self.weighted_reads.set(0);
        self.predicted_reads.set(0);
        if self.history {
            for c in self.levels.iter_mut().flatten() {
                c.enable_history();
            }
        }
        Ok(())
    }

    /// Evict, across all levels, every entry stamped after iteration
    /// `iter`; returns the number dropped. Called after restoring a
    /// checkpoint older than the cache contents so the `t_stale` bound
    /// holds over the restored iteration counter (see
    /// `RingCache::evict_newer_than`).
    pub fn evict_newer_than(&mut self, iter: u32) -> u64 {
        self.levels
            .iter_mut()
            .flatten()
            .map(|c| c.evict_newer_than(iter))
            .sum()
    }

    /// Drop all cached entries and counters, keeping the configuration
    /// (used for graceful degradation when a checkpoint's cache segment is
    /// missing or corrupt: training resumes correct but cold).
    pub(crate) fn clear(&mut self) {
        for c in self.levels.iter_mut().flatten() {
            *c = RingCache::new(c.num_nodes(), c.capacity(), c.dim());
            if self.history {
                c.enable_history();
            }
        }
        self.hits = 0;
        self.misses = 0;
        self.admits = 0;
        self.keeps = 0;
        self.scheduled_refreshes = 0;
        self.weighted_reads.set(0);
        self.predicted_reads.set(0);
    }
}

/// Serializable state of a [`HistoricalCache`].
#[derive(Clone, Debug, PartialEq)]
pub struct CacheSnapshot {
    /// Per-level ring snapshots (`None` = level not cached).
    pub levels: Vec<Option<RingSnapshot>>,
    /// Staleness bound at snapshot time.
    pub t_stale: u32,
    /// Lookup-hit counter.
    pub hits: u64,
    /// Lookup-miss counter.
    pub misses: u64,
    /// Admission counter.
    pub admits: u64,
    /// Keep counter.
    pub keeps: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache() -> HistoricalCache {
        HistoricalCache::new(100, &[4, 4, 3], 50, 8, true)
    }

    #[test]
    fn top_level_is_never_cached() {
        let c = cache();
        assert!(c.levels[0].is_some());
        assert!(c.levels[1].is_some());
        assert!(c.levels[2].is_none());
    }

    #[test]
    fn disabled_cache_always_misses_silently() {
        let mut c = HistoricalCache::new(100, &[4, 4], 50, 8, false);
        assert!(c.levels.iter().all(Option::is_none));
        assert!(c.lookup_with(1, 5, 0, &GradientPolicy).is_none());
        // Disabled levels do not count lookups.
        assert_eq!(c.stats().misses, 0);
    }

    #[test]
    fn admit_via_verdicts_then_hit() {
        let mut c = cache();
        let h = Matrix::from_fn(3, 4, |r, _| r as f32);
        let inputs = vec![(
            PolicyInput {
                node: 7,
                local: 2,
                grad_norm: 0.0,
                was_cached: false,
            },
            Verdict::Admit,
        )];
        c.apply_verdicts(1, &inputs, &h, 1);
        let slot = c
            .lookup_with(1, 7, 2, &GradientPolicy)
            .expect("hit after admit");
        let mut row = [0.0f32; 4];
        c.fetch_into(1, slot, &mut row);
        assert_eq!(row, [2.0, 2.0, 2.0, 2.0]);
        let s = c.stats();
        assert_eq!(s.admits, 1);
        assert_eq!(s.hits, 1);
    }

    #[test]
    fn evict_verdict_removes_entry() {
        let mut c = cache();
        let h = Matrix::zeros(1, 4);
        let admit = vec![(
            PolicyInput {
                node: 3,
                local: 0,
                grad_norm: 0.0,
                was_cached: false,
            },
            Verdict::Admit,
        )];
        c.apply_verdicts(2, &admit, &h, 0);
        assert!(c.lookup_with(2, 3, 1, &GradientPolicy).is_some());
        let evict = vec![(
            PolicyInput {
                node: 3,
                local: 0,
                grad_norm: 9.0,
                was_cached: true,
            },
            Verdict::Evict,
        )];
        c.apply_verdicts(2, &evict, &h, 1);
        assert!(c.lookup_with(2, 3, 1, &GradientPolicy).is_none());
        assert_eq!(c.stats().grad_evictions, 1);
    }

    #[test]
    fn levels_are_independent() {
        let mut c = cache();
        let h = Matrix::full(1, 4, 5.0);
        let admit = vec![(
            PolicyInput {
                node: 9,
                local: 0,
                grad_norm: 0.0,
                was_cached: false,
            },
            Verdict::Admit,
        )];
        c.apply_verdicts(1, &admit, &h, 0);
        assert!(c.lookup_with(1, 9, 0, &GradientPolicy).is_some());
        assert!(c.lookup_with(2, 9, 0, &GradientPolicy).is_none());
    }

    #[test]
    fn bypass_misses_silently_and_drops_admissions() {
        let mut c = cache();
        let h = Matrix::full(1, 4, 3.0);
        let admit = vec![(
            PolicyInput {
                node: 5,
                local: 0,
                grad_norm: 0.0,
                was_cached: false,
            },
            Verdict::Admit,
        )];
        c.apply_verdicts(1, &admit, &h, 0);
        assert!(c.lookup_with(1, 5, 1, &GradientPolicy).is_some());
        let stats_before = c.stats();
        c.set_bypass(true);
        assert!(c.bypass);
        assert!(
            c.lookup_with(1, 5, 1, &GradientPolicy).is_none(),
            "bypass misses"
        );
        c.apply_verdicts(1, &admit, &h, 1);
        assert_eq!(c.stats(), stats_before, "no counters move under bypass");
        c.set_bypass(false);
        assert!(
            c.lookup_with(1, 5, 2, &GradientPolicy).is_some(),
            "entry intact after bypass"
        );
    }

    #[test]
    fn evict_newer_than_spans_levels() {
        let mut c = cache();
        let h = Matrix::zeros(1, 4);
        for level in 1..=2usize {
            for (node, now) in [(1u32, 2u32), (2, 8)] {
                let admit = vec![(
                    PolicyInput {
                        node,
                        local: 0,
                        grad_norm: 0.0,
                        was_cached: false,
                    },
                    Verdict::Admit,
                )];
                c.apply_verdicts(level, &admit, &h, now);
            }
        }
        assert_eq!(c.evict_newer_than(4), 2, "one future entry per level");
        for level in 1..=2usize {
            assert!(c.lookup_with(level, 1, 4, &GradientPolicy).is_some());
            assert!(c.lookup_with(level, 2, 4, &GradientPolicy).is_none());
        }
    }

    #[test]
    fn scheduled_refresh_declines_hit_without_evicting() {
        let mut c = cache(); // t_stale 50
        c.enable_history();
        let admit = |val: f32| {
            (
                Matrix::full(1, 4, val),
                vec![(
                    PolicyInput {
                        node: 7,
                        local: 0,
                        grad_norm: 0.0,
                        was_cached: false,
                    },
                    Verdict::Admit,
                )],
            )
        };
        let (h, v) = admit(1.0);
        c.apply_verdicts(1, &v, &h, 0);
        let policy = CoarseRefreshPolicy { period: 10 };
        // Under the period: served normally.
        assert!(c.lookup_with(1, 7, 5, &policy).is_some());
        // At the period: declined, counted as a miss + scheduled refresh,
        // but the entry stays live (the baseline still sees it).
        assert!(c.lookup_with(1, 7, 10, &policy).is_none());
        let s = c.stats();
        assert_eq!(s.scheduled_refreshes, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 1);
        assert_eq!(c.lookups(), s.hits + s.misses, "obs invariant holds");
        assert!(
            c.lookup_with(1, 7, 10, &GradientPolicy).is_some(),
            "entry not evicted"
        );
        // The forced recompute re-admits in place, recording the update
        // delta and restarting the entry's age.
        let (h2, v2) = admit(3.0);
        c.apply_verdicts(1, &v2, &h2, 10);
        let slot = c.lookup_with(1, 7, 12, &policy).expect("refreshed entry");
        let mut row = [0.0f32; 4];
        c.fetch_into(1, slot, &mut row);
        assert_eq!(row, [3.0; 4]);
        // History recorded: a predictive read at age 2 extrapolates along
        // the (3.0 - 1.0)/10 per-iteration delta.
        let mut pred = [0.0f32; 4];
        c.read_into(1, slot, 12, &PredictivePolicy::for_t_stale(50), &mut pred);
        assert!(pred[0] > 3.0, "extrapolated forward, got {}", pred[0]);
        assert_eq!(c.stats().predicted_reads, 1);
    }

    #[test]
    fn baseline_lookup_never_schedules_refreshes() {
        let mut c = cache();
        let h = Matrix::full(1, 4, 1.0);
        let v = vec![(
            PolicyInput {
                node: 3,
                local: 0,
                grad_norm: 0.0,
                was_cached: false,
            },
            Verdict::Admit,
        )];
        c.apply_verdicts(1, &v, &h, 0);
        for now in 1..=50 {
            assert!(
                c.lookup_with(1, 3, now, &GradientPolicy).is_some(),
                "in-bound hit at {now}"
            );
        }
        assert_eq!(c.stats().scheduled_refreshes, 0);
        assert!(
            c.lookup_with(1, 3, 51, &GradientPolicy).is_none(),
            "t_stale bound still evicts"
        );
    }

    #[test]
    fn hit_rate_reflects_lookups() {
        let mut c = cache();
        let h = Matrix::zeros(1, 4);
        let admit = vec![(
            PolicyInput {
                node: 1,
                local: 0,
                grad_norm: 0.0,
                was_cached: false,
            },
            Verdict::Admit,
        )];
        c.apply_verdicts(1, &admit, &h, 0);
        c.lookup_with(1, 1, 1, &GradientPolicy); // hit
        c.lookup_with(1, 2, 1, &GradientPolicy); // miss
        assert!((c.stats().hit_rate() - 0.5).abs() < 1e-9);
    }
}
