//! Ring-buffer embedding table with an O(|V|) node→slot mapping array
//! (§4.2, Fig 7).
//!
//! * **Lookup** is O(1): `slot_of[node]` indexes the table; a hit requires
//!   the reverse map to agree (the slot wasn't overwritten) and the entry
//!   to be within the staleness bound.
//! * **Admission** writes at the ring header and advances it; whatever
//!   occupied that row is implicitly evicted — the paper's "newly added
//!   embeddings overwrite the out-dated ones". (The paper resets the
//!   header every `t_stale` iterations; a modulo ring plus the lookup-time
//!   staleness check is behaviorally identical and simpler to size.)
//! * **Gradient eviction** just invalidates the mapping entry; the slot is
//!   recycled by the ring, "no physical deletion".
//! * If the header would overwrite an entry *younger* than `t_stale` (the
//!   paper's corner case), the table grows — "initialize the cache table
//!   with a fixed size and reallocate on-demand".

use crate::obs::{Histogram, AGE_BUCKETS};
use fgnn_graph::NodeId;
use fgnn_tensor::Matrix;

const INVALID: u32 = u32::MAX;

/// Extrapolation is clamped to this many multiples of the recorded update
/// delta — a short observed gap must not launch a long-stale entry
/// arbitrarily far along its last direction.
const MAX_EXTRAPOLATION: f32 = 4.0;

/// Optional per-slot update history for the predictive policy: the last
/// refresh's embedding delta and the iteration gap it was observed over.
/// Telemetry-like — never part of [`RingSnapshot`] (a resumed run
/// restarts with empty history exactly as the hit counters restart).
struct RingHistory {
    /// `capacity x dim`: row `s` holds `new - old` of slot `s`'s last
    /// in-place refresh.
    delta: Matrix,
    /// Iterations the delta was observed over (0 = no usable history).
    gap: Vec<u32>,
}

/// Per-layer ring-buffer cache of node embeddings.
pub struct RingCache {
    /// Embedding table, `capacity x dim`.
    table: Matrix,
    /// node → slot (INVALID when absent).
    slot_of: Vec<u32>,
    /// slot → node (INVALID when free).
    node_of: Vec<u32>,
    /// slot → iteration of admission.
    stamp: Vec<u32>,
    head: usize,
    dim: usize,
    /// Eviction counters for the experiment reports.
    pub stale_evictions: u64,
    /// Entries explicitly evicted by the gradient criterion.
    pub grad_evictions: u64,
    /// Entries overwritten by the advancing ring header.
    pub overwrites: u64,
    /// Total lookups (observability only; `hits + (lookups - hits)` must
    /// reconcile with the owning [`crate::cache::HistoricalCache`]'s
    /// hit/miss counters — pinned by `tests/obs_invariants.rs`). Not
    /// checkpointed: a resumed run restarts telemetry while the
    /// checkpointed [`crate::cache::CacheStats`] counters stay exact.
    pub lookups: u64,
    /// Lookups that returned a live, fresh entry (observability only; not
    /// checkpointed).
    pub hits: u64,
    /// Age (iterations since admission) of every served hit (observability
    /// only; not checkpointed).
    hit_age: Histogram,
    /// Update-delta history, enabled only by policies that extrapolate
    /// stale reads ([`RingCache::enable_history`]); not checkpointed.
    history: Option<RingHistory>,
}

impl RingCache {
    /// A cache over node IDs `0..num_nodes` with `capacity` rows of
    /// dimension `dim`.
    pub fn new(num_nodes: usize, capacity: usize, dim: usize) -> Self {
        let capacity = capacity.max(1);
        RingCache {
            table: Matrix::zeros(capacity, dim),
            slot_of: vec![INVALID; num_nodes],
            node_of: vec![INVALID; capacity],
            stamp: vec![0; capacity],
            head: 0,
            dim,
            stale_evictions: 0,
            grad_evictions: 0,
            overwrites: 0,
            lookups: 0,
            hits: 0,
            hit_age: Histogram::new(&AGE_BUCKETS),
            history: None,
        }
    }

    /// Start recording per-slot update deltas (idempotent). Enabled by
    /// history-wanting policies ([`crate::cache::policy::CachePolicy::wants_history`]);
    /// costs one extra `capacity x dim` matrix.
    pub(crate) fn enable_history(&mut self) {
        if self.history.is_none() {
            self.history = Some(RingHistory {
                delta: Matrix::zeros(self.capacity(), self.dim),
                gap: vec![0; self.capacity()],
            });
        }
    }

    /// Admission stamp of `node`'s live entry (`None` when absent or
    /// dangling). Lets refresh scheduling ask "how old is the copy I would
    /// overwrite?" without touching the lookup counters.
    pub(crate) fn stamp_of(&self, node: NodeId) -> Option<u32> {
        let slot = self.slot_of[node as usize];
        if slot == INVALID || self.node_of[slot as usize] != node {
            return None;
        }
        Some(self.stamp[slot as usize])
    }

    /// Extrapolate `dst` (a copy of `slot`'s row) forward by `age`
    /// iterations along the slot's recorded update delta:
    /// `dst += delta * min(age / gap, MAX_EXTRAPOLATION)`. Returns whether
    /// any prediction was applied (history disabled or no recorded
    /// refresh ⇒ `false`, `dst` untouched).
    pub(crate) fn extrapolate_into(&self, slot: u32, age: u32, dst: &mut [f32]) -> bool {
        let Some(hist) = &self.history else {
            return false;
        };
        let s = slot as usize;
        let gap = hist.gap[s];
        if gap == 0 || age == 0 {
            return false;
        }
        let k = (age as f32 / gap as f32).min(MAX_EXTRAPOLATION);
        for (x, &d) in dst.iter_mut().zip(hist.delta.row(s)) {
            *x += k * d;
        }
        true
    }

    /// Record the delta of an in-place refresh of `slot` (call *before*
    /// overwriting the row).
    fn record_refresh_history(&mut self, slot: usize, row: &[f32], now: u32) {
        let Some(hist) = self.history.as_mut() else {
            return;
        };
        let gap = now.saturating_sub(self.stamp[slot]);
        if gap == 0 {
            // Same-iteration rewrite carries no velocity signal.
            return;
        }
        let old = self.table.row(slot);
        for (d, (&new, &prev)) in hist.delta.row_mut(slot).iter_mut().zip(row.iter().zip(old)) {
            *d = new - prev;
        }
        hist.gap[slot] = gap;
    }

    /// Clear `slot`'s history (a fresh occupant has no observed delta).
    fn reset_history(&mut self, slot: usize) {
        if let Some(hist) = self.history.as_mut() {
            hist.delta.row_mut(slot).iter_mut().for_each(|x| *x = 0.0);
            hist.gap[slot] = 0;
        }
    }

    /// Age histogram (iterations since admission) of every hit served.
    pub(crate) fn hit_age_histogram(&self) -> &Histogram {
        &self.hit_age
    }

    /// Embedding dimension.
    pub(crate) fn dim(&self) -> usize {
        self.dim
    }

    /// Current table rows.
    pub(crate) fn capacity(&self) -> usize {
        self.node_of.len()
    }

    /// Size of the node ID space this cache maps.
    pub(crate) fn num_nodes(&self) -> usize {
        self.slot_of.len()
    }

    /// Number of live entries (O(capacity); used by tests/metrics only).
    pub(crate) fn len(&self) -> usize {
        self.node_of
            .iter()
            .enumerate()
            .filter(|&(s, &n)| n != INVALID && self.slot_of[n as usize] == s as u32)
            .count()
    }

    /// Look up `node` at iteration `now` under staleness bound `t_stale`.
    /// A stale entry is evicted on the spot and counts as a miss.
    pub fn lookup(&mut self, node: NodeId, now: u32, t_stale: u32) -> Option<u32> {
        self.lookups += 1;
        let slot = self.slot_of[node as usize];
        if slot == INVALID {
            return None;
        }
        let s = slot as usize;
        if self.node_of[s] != node {
            // Slot was recycled for another node; mapping is dangling.
            self.slot_of[node as usize] = INVALID;
            return None;
        }
        let age = now.saturating_sub(self.stamp[s]);
        if age > t_stale {
            self.slot_of[node as usize] = INVALID;
            self.node_of[s] = INVALID;
            self.stale_evictions += 1;
            return None;
        }
        self.hits += 1;
        self.hit_age.observe(age as f64);
        Some(slot)
    }

    /// Read the embedding row of a slot returned by [`RingCache::lookup`].
    pub fn fetch(&self, slot: u32) -> &[f32] {
        self.table.row(slot as usize)
    }

    /// Age at `now` of the entry in `slot` (same clock units as the
    /// `lookup` stamps). The serving read path records the exact age of
    /// every embedding it serves so the per-request staleness budget — the
    /// serving analogue of the training `t_stale` invariant — is provable
    /// rather than assumed.
    pub(crate) fn age_of(&self, slot: u32, now: u32) -> u32 {
        now.saturating_sub(self.stamp[slot as usize])
    }

    /// Admit (or refresh) `node` with `row` at iteration `now`.
    ///
    /// Grows the table when the ring header catches up with entries still
    /// inside the staleness window.
    pub fn admit(&mut self, node: NodeId, row: &[f32], now: u32, t_stale: u32) {
        debug_assert_eq!(row.len(), self.dim);
        // Refresh in place if already cached.
        let existing = self.slot_of[node as usize];
        if existing != INVALID && self.node_of[existing as usize] == node {
            self.record_refresh_history(existing as usize, row, now);
            self.table.set_row(existing as usize, row);
            self.stamp[existing as usize] = now;
            return;
        }

        // Grow if the header points at a still-fresh entry (corner case in
        // §4.2; "reallocate on-demand").
        let occupant = self.node_of[self.head];
        if occupant != INVALID
            && self.slot_of[occupant as usize] == self.head as u32
            && now.saturating_sub(self.stamp[self.head]) <= t_stale
        {
            self.grow();
        }

        let h = self.head;
        let occupant = self.node_of[h];
        if occupant != INVALID {
            if self.slot_of[occupant as usize] == h as u32 {
                self.slot_of[occupant as usize] = INVALID;
            }
            self.overwrites += 1;
        }
        self.reset_history(h);
        self.table.set_row(h, row);
        self.node_of[h] = node;
        self.stamp[h] = now;
        self.slot_of[node as usize] = h as u32;
        self.head = (h + 1) % self.capacity();
    }

    /// Admit (or refresh) `node` with `row` at `now` **without ever
    /// growing**: the header row is overwritten even when its occupant is
    /// still fresh. The serving engine uses this so cache capacity stays a
    /// real experiment knob under any admission burst; training keeps the
    /// §4.2 grow-on-demand semantics of [`RingCache::admit`].
    pub(crate) fn admit_fixed(&mut self, node: NodeId, row: &[f32], now: u32) {
        debug_assert_eq!(row.len(), self.dim);
        let existing = self.slot_of[node as usize];
        if existing != INVALID && self.node_of[existing as usize] == node {
            self.record_refresh_history(existing as usize, row, now);
            self.table.set_row(existing as usize, row);
            self.stamp[existing as usize] = now;
            return;
        }
        let h = self.head;
        let occupant = self.node_of[h];
        if occupant != INVALID {
            if self.slot_of[occupant as usize] == h as u32 {
                self.slot_of[occupant as usize] = INVALID;
            }
            self.overwrites += 1;
        }
        self.reset_history(h);
        self.table.set_row(h, row);
        self.node_of[h] = node;
        self.stamp[h] = now;
        self.slot_of[node as usize] = h as u32;
        self.head = (h + 1) % self.capacity();
    }

    /// Evict `node` by the gradient criterion: invalidate the mapping
    /// entry only (the ring recycles the slot).
    pub fn evict(&mut self, node: NodeId) {
        let slot = self.slot_of[node as usize];
        if slot != INVALID {
            if self.node_of[slot as usize] == node {
                self.node_of[slot as usize] = INVALID;
            }
            self.slot_of[node as usize] = INVALID;
            self.grad_evictions += 1;
        }
    }

    /// Evict every live entry stamped *after* iteration `iter`, returning
    /// how many were dropped (counted as staleness evictions).
    ///
    /// Needed when restoring a checkpoint taken at `iter` into a cache
    /// whose contents ran past it: a future-stamped entry would otherwise
    /// report `age = now.saturating_sub(stamp) = 0` forever and silently
    /// violate the `t_stale` bound after the rollback.
    pub(crate) fn evict_newer_than(&mut self, iter: u32) -> u64 {
        let mut dropped = 0u64;
        for s in 0..self.node_of.len() {
            let node = self.node_of[s];
            if node == INVALID || self.slot_of[node as usize] != s as u32 {
                continue;
            }
            if self.stamp[s] > iter {
                self.slot_of[node as usize] = INVALID;
                self.node_of[s] = INVALID;
                self.stale_evictions += 1;
                dropped += 1;
            }
        }
        dropped
    }

    /// Double the table (preserving slots `0..old_capacity` in place; the
    /// header continues into the fresh region).
    fn grow(&mut self) {
        let old_cap = self.capacity();
        let new_cap = old_cap * 2;
        let mut table = Matrix::zeros(new_cap, self.dim);
        table.as_mut_slice()[..old_cap * self.dim].copy_from_slice(self.table.as_slice());
        self.table = table;
        self.node_of.resize(new_cap, INVALID);
        self.stamp.resize(new_cap, 0);
        if let Some(hist) = &mut self.history {
            let mut delta = Matrix::zeros(new_cap, self.dim);
            delta.as_mut_slice()[..old_cap * self.dim].copy_from_slice(hist.delta.as_slice());
            hist.delta = delta;
            hist.gap.resize(new_cap, 0);
        }
        // Continue writing into the newly added free region.
        self.head = old_cap;
    }

    /// Resident bytes of the table plus the mapping array (and the
    /// update-delta history, when enabled).
    pub fn bytes(&self) -> usize {
        let hist = self
            .history
            .as_ref()
            .map_or(0, |h| h.delta.as_slice().len() * 4 + h.gap.len() * 4);
        self.table.as_slice().len() * 4 + self.slot_of.len() * 4 + self.node_of.len() * 8 + hist
    }

    /// Full serializable state (for checkpointing).
    pub fn snapshot(&self) -> RingSnapshot {
        RingSnapshot {
            table: self.table.clone(),
            slot_of: self.slot_of.clone(),
            node_of: self.node_of.clone(),
            stamp: self.stamp.clone(),
            head: self.head,
            stale_evictions: self.stale_evictions,
            grad_evictions: self.grad_evictions,
            overwrites: self.overwrites,
        }
    }

    /// Rebuild a cache from a [`RingSnapshot`], validating structural
    /// consistency (a corrupt-but-checksum-passing snapshot must not
    /// produce out-of-bounds slots later).
    pub(crate) fn from_snapshot(s: RingSnapshot) -> Result<RingCache, String> {
        let cap = s.table.rows();
        if cap == 0 {
            return Err("ring snapshot with empty table".into());
        }
        if s.node_of.len() != cap || s.stamp.len() != cap {
            return Err(format!(
                "ring snapshot maps disagree with capacity {cap}: node_of {} stamp {}",
                s.node_of.len(),
                s.stamp.len()
            ));
        }
        if s.head >= cap {
            return Err(format!("ring head {} out of range {cap}", s.head));
        }
        if let Some(&bad) = s
            .slot_of
            .iter()
            .find(|&&slot| slot != INVALID && slot as usize >= cap)
        {
            return Err(format!("slot_of entry {bad} out of range {cap}"));
        }
        if let Some(&bad) = s
            .node_of
            .iter()
            .find(|&&node| node != INVALID && node as usize >= s.slot_of.len())
        {
            return Err(format!("node_of entry {bad} out of node range"));
        }
        Ok(RingCache {
            dim: s.table.cols(),
            table: s.table,
            slot_of: s.slot_of,
            node_of: s.node_of,
            stamp: s.stamp,
            head: s.head,
            stale_evictions: s.stale_evictions,
            grad_evictions: s.grad_evictions,
            overwrites: s.overwrites,
            // Telemetry restarts on resume (not part of the snapshot);
            // so does update-delta history (re-enabled by the owner).
            lookups: 0,
            hits: 0,
            hit_age: Histogram::new(&AGE_BUCKETS),
            history: None,
        })
    }
}

/// Serializable state of a [`RingCache`] (see [`RingCache::snapshot`]).
#[derive(Clone, Debug, PartialEq)]
pub struct RingSnapshot {
    /// Embedding table, `capacity x dim`.
    pub table: Matrix,
    /// node → slot map.
    pub slot_of: Vec<u32>,
    /// slot → node map.
    pub node_of: Vec<u32>,
    /// slot → admission iteration.
    pub stamp: Vec<u32>,
    /// Ring header position.
    pub head: usize,
    /// Staleness-eviction counter.
    pub stale_evictions: u64,
    /// Gradient-eviction counter.
    pub grad_evictions: u64,
    /// Ring-overwrite counter.
    pub overwrites: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(v: f32, dim: usize) -> Vec<f32> {
        vec![v; dim]
    }

    #[test]
    fn admit_fixed_overwrites_instead_of_growing() {
        let mut c = RingCache::new(32, 4, 2);
        // Eight same-tick admissions into a 4-slot ring: `admit` would
        // reallocate (every occupant is fresh at `now`); the fixed-size
        // variant wraps and overwrites instead.
        for n in 0..8u32 {
            c.admit_fixed(n, &row(n as f32, 2), 5);
        }
        assert_eq!(c.capacity(), 4, "capacity is pinned");
        assert_eq!(c.overwrites, 4);
        for n in 0..4u32 {
            assert!(c.lookup(n, 5, 0).is_none(), "node {n} was overwritten");
        }
        let slot = c.lookup(6, 5, 0).expect("recent admit survives");
        assert_eq!(c.fetch(slot), &[6.0, 6.0]);
        // Refreshing a live node updates in place, no header advance.
        c.admit_fixed(6, &row(9.0, 2), 6);
        let slot = c.lookup(6, 6, 0).expect("refreshed");
        assert_eq!(c.fetch(slot), &[9.0, 9.0]);
        assert_eq!(c.capacity(), 4);
    }

    #[test]
    fn admit_then_lookup_round_trips() {
        let mut c = RingCache::new(10, 4, 3);
        c.admit(7, &row(1.5, 3), 1, 100);
        let slot = c.lookup(7, 2, 100).expect("hit");
        assert_eq!(c.fetch(slot), &[1.5, 1.5, 1.5]);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn missing_node_is_a_miss() {
        let mut c = RingCache::new(10, 4, 3);
        assert!(c.lookup(3, 0, 100).is_none());
    }

    #[test]
    fn stale_entry_evicted_on_lookup() {
        let mut c = RingCache::new(10, 4, 2);
        c.admit(1, &row(1.0, 2), 0, 5);
        assert!(c.lookup(1, 5, 5).is_some(), "within bound");
        assert!(c.lookup(1, 6, 5).is_none(), "beyond bound");
        assert_eq!(c.stale_evictions, 1);
        assert!(c.lookup(1, 5, 5).is_none(), "gone after eviction");
    }

    #[test]
    fn gradient_eviction_invalidates_mapping_only() {
        let mut c = RingCache::new(10, 4, 2);
        c.admit(1, &row(1.0, 2), 0, 100);
        c.evict(1);
        assert!(c.lookup(1, 0, 100).is_none());
        assert_eq!(c.grad_evictions, 1);
        // Slot is recycled naturally by later admissions.
        for n in 2..6 {
            c.admit(n, &row(n as f32, 2), 1, 100);
        }
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn refresh_updates_in_place_without_consuming_a_slot() {
        let mut c = RingCache::new(10, 2, 2);
        c.admit(1, &row(1.0, 2), 0, 100);
        c.admit(1, &row(9.0, 2), 3, 100);
        let slot = c.lookup(1, 3, 100).unwrap();
        assert_eq!(c.fetch(slot), &[9.0, 9.0]);
        assert_eq!(c.len(), 1);
        assert_eq!(c.capacity(), 2, "no growth for refresh");
    }

    #[test]
    fn ring_overwrites_oldest_when_entries_are_stale() {
        let mut c = RingCache::new(10, 2, 1);
        c.admit(1, &row(1.0, 1), 0, 3);
        c.admit(2, &row(2.0, 1), 0, 3);
        // Entries from iter 0 are beyond staleness at iter 10 → overwrite,
        // no growth.
        c.admit(3, &row(3.0, 1), 10, 3);
        c.admit(4, &row(4.0, 1), 10, 3);
        assert_eq!(c.capacity(), 2);
        assert!(c.lookup(1, 10, 3).is_none());
        assert!(c.lookup(3, 10, 3).is_some());
        assert_eq!(c.overwrites, 2);
    }

    #[test]
    fn grows_rather_than_overwriting_fresh_entries() {
        let mut c = RingCache::new(10, 2, 1);
        c.admit(1, &row(1.0, 1), 0, 100);
        c.admit(2, &row(2.0, 1), 0, 100);
        c.admit(3, &row(3.0, 1), 1, 100); // would overwrite node 1 (fresh)
        assert_eq!(c.capacity(), 4);
        assert!(c.lookup(1, 1, 100).is_some());
        assert!(c.lookup(2, 1, 100).is_some());
        assert!(c.lookup(3, 1, 100).is_some());
    }

    #[test]
    fn dangling_mapping_after_recycle_is_cleaned() {
        let mut c = RingCache::new(10, 2, 1);
        c.admit(1, &row(1.0, 1), 0, 0); // t_stale 0: immediately stale next iter
        c.admit(2, &row(2.0, 1), 1, 0);
        c.admit(3, &row(3.0, 1), 2, 0); // recycles node 1's slot
        assert!(c.lookup(1, 2, 0).is_none());
        assert!(c.lookup(3, 2, 0).is_some());
    }

    #[test]
    fn bytes_accounting_grows_with_capacity() {
        let c = RingCache::new(100, 8, 4);
        let small = c.bytes();
        let c2 = RingCache::new(100, 16, 4);
        assert!(c2.bytes() > small);
    }

    #[test]
    fn t_stale_one_wrap_around_recycles_without_growth() {
        // The tightest live staleness bound: entries survive exactly one
        // iteration. Drive the header around the ring several times and
        // check it recycles slots instead of growing.
        let mut c = RingCache::new(20, 4, 1);
        for now in 0..16u32 {
            // At iteration `now`, entries stamped `now - 1` are still
            // fresh; entries stamped `now - 2` are overwritable.
            c.admit(now, &row(now as f32, 1), now, 1);
            assert!(c.lookup(now, now, 1).is_some(), "fresh at admit time");
            if now >= 1 {
                assert!(
                    c.lookup(now - 1, now, 1).is_some(),
                    "iter {now}: age-1 entry still within t_stale = 1"
                );
            }
            if now >= 2 {
                assert!(
                    c.lookup(now - 2, now, 1).is_none(),
                    "iter {now}: age-2 entry must be stale"
                );
            }
        }
        // One wrap with everything stale: capacity 4 admits 16 entries by
        // recycling. (Growth can legally trigger once while the ring warms
        // up, but it must not compound every wrap.)
        assert!(c.capacity() <= 8, "capacity {}", c.capacity());
        assert!(c.overwrites + c.stale_evictions > 8);
    }

    #[test]
    fn admission_racing_eviction_on_same_slot() {
        // Gradient-evict a node, then admit a different node into the very
        // slot the ring recycles. The old node's mapping must not resurrect
        // or alias the new occupant.
        let mut c = RingCache::new(10, 2, 1);
        c.admit(1, &row(1.0, 1), 0, 100);
        let slot1 = c.lookup(1, 0, 100).unwrap();
        c.evict(1);
        // Head is at slot 1; fill it, then the next admit recycles slot 0
        // (node 1's old slot) because its occupant mapping was invalidated.
        c.admit(2, &row(2.0, 1), 1, 100);
        c.admit(3, &row(3.0, 1), 1, 100);
        let slot3 = c.lookup(3, 1, 100).unwrap();
        assert_eq!(slot3, slot1, "ring reuses the evicted slot, no growth");
        assert_eq!(c.capacity(), 2);
        assert!(c.lookup(1, 1, 100).is_none(), "evicted node stays evicted");
        assert_eq!(c.fetch(slot3), &[3.0]);
        // And re-admitting the evicted node works like any fresh admission.
        c.admit(1, &row(9.0, 1), 2, 100);
        let s = c.lookup(1, 2, 100).unwrap();
        assert_eq!(c.fetch(s), &[9.0]);
    }

    #[test]
    fn lookup_exactly_at_staleness_boundary_is_a_hit() {
        // age == t_stale is fresh; age == t_stale + 1 is stale — the
        // boundary itself must hit (the paper reuses embeddings *up to*
        // t_stale iterations old).
        for t_stale in [0u32, 1, 7] {
            let mut c = RingCache::new(4, 4, 1);
            c.admit(0, &row(1.0, 1), 10, t_stale);
            assert!(
                c.lookup(0, 10 + t_stale, t_stale).is_some(),
                "t_stale {t_stale}: boundary age is a hit"
            );
            assert!(
                c.lookup(0, 10 + t_stale + 1, t_stale).is_none(),
                "t_stale {t_stale}: boundary + 1 is stale"
            );
        }
    }

    #[test]
    fn snapshot_round_trip_preserves_behavior() {
        let mut c = RingCache::new(30, 4, 2);
        for n in 0..10u32 {
            c.admit(n, &row(n as f32, 2), n, 3);
        }
        c.evict(4);
        let restored = RingCache::from_snapshot(c.snapshot()).expect("valid snapshot");
        // Same live set, same counters, and identical future behavior.
        assert_eq!(restored.len(), c.len());
        assert_eq!(restored.grad_evictions, c.grad_evictions);
        assert_eq!(restored.overwrites, c.overwrites);
        let (mut a, mut b) = (c, restored);
        for n in 10..20u32 {
            a.admit(n, &row(n as f32, 2), n, 3);
            b.admit(n, &row(n as f32, 2), n, 3);
            assert_eq!(a.lookup(n - 1, n, 3), b.lookup(n - 1, n, 3));
        }
        assert_eq!(a.snapshot(), b.snapshot());
    }

    #[test]
    fn snapshot_validation_rejects_corrupt_maps() {
        let c = RingCache::new(10, 4, 2);
        let mut s = c.snapshot();
        s.head = 99;
        assert!(RingCache::from_snapshot(s).is_err());
        let mut s = RingCache::new(10, 4, 2).snapshot();
        s.slot_of[3] = 77; // points past capacity
        assert!(RingCache::from_snapshot(s).is_err());
        let mut s = RingCache::new(10, 4, 2).snapshot();
        s.node_of.truncate(2);
        assert!(RingCache::from_snapshot(s).is_err());
    }

    #[test]
    fn snapshot_validation_rejects_capacity_mismatch() {
        // A stamp array shorter than the table's row count.
        let mut s = RingCache::new(10, 4, 2).snapshot();
        s.stamp.truncate(3);
        let err = RingCache::from_snapshot(s)
            .err()
            .expect("snapshot must be rejected");
        assert!(err.contains("capacity"), "{err}");
        // node_of longer than the table's row count.
        let mut s = RingCache::new(10, 4, 2).snapshot();
        s.node_of.push(INVALID);
        let err = RingCache::from_snapshot(s)
            .err()
            .expect("snapshot must be rejected");
        assert!(err.contains("capacity"), "{err}");
        // A table with no rows at all (e.g. a zeroed length field).
        let mut s = RingCache::new(10, 4, 2).snapshot();
        s.table = Matrix::zeros(0, 2);
        s.node_of.clear();
        s.stamp.clear();
        s.head = 0;
        let err = RingCache::from_snapshot(s)
            .err()
            .expect("snapshot must be rejected");
        assert!(err.contains("empty"), "{err}");
    }

    #[test]
    fn snapshot_validation_rejects_slot_map_entries_out_of_node_range() {
        // node_of must only name nodes inside the cache's ID space —
        // a corrupted entry would index out of bounds on later evictions.
        let mut s = RingCache::new(10, 4, 2).snapshot();
        s.node_of[0] = 10; // valid nodes are 0..10
        let err = RingCache::from_snapshot(s)
            .err()
            .expect("snapshot must be rejected");
        assert!(err.contains("node range"), "{err}");
    }

    #[test]
    fn restore_rejects_dim_mismatch_against_config() {
        // Dim validation lives in HistoricalCache::restore (the ring takes
        // its dim from the snapshot's table): a snapshot whose embedding
        // width disagrees with the configured cache must be rejected.
        let donor = crate::cache::HistoricalCache::new(10, &[3, 3], 5, 4, true);
        let snapshot = donor.snapshot();
        let mut wrong_dim = crate::cache::HistoricalCache::new(10, &[4, 4], 5, 4, true);
        let err = wrong_dim.restore(snapshot).unwrap_err();
        assert!(err.contains("dim"), "{err}");
    }

    #[test]
    fn evict_newer_than_drops_only_future_stamps() {
        let mut c = RingCache::new(20, 8, 1);
        for n in 0..6u32 {
            c.admit(n, &row(n as f32, 1), n, 100);
        }
        // Roll back to iteration 3: entries stamped 4 and 5 must go.
        let dropped = c.evict_newer_than(3);
        assert_eq!(dropped, 2);
        for n in 0..4u32 {
            assert!(c.lookup(n, 3, 100).is_some(), "node {n} kept");
        }
        for n in 4..6u32 {
            assert!(c.lookup(n, 3, 100).is_none(), "node {n} evicted");
        }
        // Idempotent once the future entries are gone.
        assert_eq!(c.evict_newer_than(3), 0);
    }

    #[test]
    fn history_records_refresh_delta_and_extrapolates() {
        let mut c = RingCache::new(10, 4, 2);
        c.enable_history();
        c.admit(1, &[1.0, 2.0], 0, 100);
        // A fresh admit has no delta: extrapolation is a no-op.
        let slot = c.lookup(1, 2, 100).unwrap();
        let mut row = [0.0f32; 2];
        row.copy_from_slice(c.fetch(slot));
        assert!(!c.extrapolate_into(slot, 2, &mut row));
        assert_eq!(row, [1.0, 2.0]);
        // Refresh after 2 iterations: delta (+0.4, -0.2) over gap 2.
        c.admit(1, &[1.4, 1.8], 2, 100);
        let slot = c.lookup(1, 6, 100).unwrap();
        row.copy_from_slice(c.fetch(slot));
        // age 4 = 2x the observed gap: extrapolate two deltas forward.
        assert!(c.extrapolate_into(slot, 4, &mut row));
        assert!((row[0] - 2.2).abs() < 1e-6, "{row:?}");
        assert!((row[1] - 1.4).abs() < 1e-6, "{row:?}");
    }

    #[test]
    fn history_extrapolation_is_clamped() {
        let mut c = RingCache::new(10, 4, 1);
        c.enable_history();
        c.admit(3, &[0.0], 0, 1000);
        c.admit(3, &[1.0], 1, 1000); // delta +1 over gap 1
        let slot = c.lookup(3, 100, 1000).unwrap();
        let mut row = [0.0f32];
        row.copy_from_slice(c.fetch(slot));
        c.extrapolate_into(slot, 99, &mut row);
        // min(99/1, 4) = 4 deltas, not 99.
        assert!((row[0] - 5.0).abs() < 1e-6, "{row:?}");
    }

    #[test]
    fn history_resets_when_slot_is_recycled() {
        let mut c = RingCache::new(10, 2, 1);
        c.enable_history();
        c.admit(1, &[1.0], 0, 1);
        c.admit(1, &[3.0], 1, 1); // delta +2 over gap 1
                                  // Ring the slot away to a new node (old entries stale at now=10).
        c.admit(2, &[7.0], 10, 1);
        c.admit(3, &[8.0], 10, 1);
        let slot = c.lookup(2, 10, 1).or_else(|| c.lookup(3, 10, 1)).unwrap();
        let mut row = [0.0f32];
        row.copy_from_slice(c.fetch(slot));
        assert!(
            !c.extrapolate_into(slot, 1, &mut row),
            "fresh occupant must not inherit the old delta"
        );
    }

    #[test]
    fn stamp_of_reports_live_entries_only() {
        let mut c = RingCache::new(10, 4, 1);
        assert_eq!(c.stamp_of(1), None);
        c.admit(1, &[1.0], 7, 100);
        assert_eq!(c.stamp_of(1), Some(7));
        c.evict(1);
        assert_eq!(c.stamp_of(1), None, "evicted entry has no stamp");
        // stamp_of never moves the lookup telemetry.
        assert_eq!(c.lookups, 0);
    }

    #[test]
    fn history_survives_growth() {
        let mut c = RingCache::new(10, 2, 1);
        c.enable_history();
        c.admit(1, &[0.0], 0, 100);
        c.admit(1, &[2.0], 2, 100); // delta +2 over gap 2
        c.admit(2, &[5.0], 2, 100);
        c.admit(3, &[6.0], 2, 100); // forces growth (occupants fresh)
        assert!(c.capacity() > 2);
        let slot = c.lookup(1, 4, 100).unwrap();
        let mut row = [0.0f32];
        row.copy_from_slice(c.fetch(slot));
        assert!(c.extrapolate_into(slot, 2, &mut row));
        assert!((row[0] - 4.0).abs() < 1e-6, "{row:?}");
    }

    #[test]
    fn lookup_telemetry_reconciles_hits_and_misses() {
        let mut c = RingCache::new(10, 4, 2);
        c.admit(1, &row(1.0, 2), 0, 5);
        assert!(c.lookup(1, 3, 5).is_some()); // hit at age 3
        assert!(c.lookup(2, 3, 5).is_none()); // absent
        assert!(c.lookup(1, 9, 5).is_none()); // stale
        assert_eq!(c.lookups, 3);
        assert_eq!(c.hits, 1);
        let h = c.hit_age_histogram();
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), 3.0);
        // Telemetry restarts across snapshot/restore.
        let restored = RingCache::from_snapshot(c.snapshot()).unwrap();
        assert_eq!(restored.lookups, 0);
        assert_eq!(restored.hit_age_histogram().count(), 0);
    }
}
