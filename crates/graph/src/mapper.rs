//! Generation-stamped global→local node ID mapping.
//!
//! Mirrors the paper's `O(|V|)` node-ID mapping array (§4.2): a flat array
//! indexed by global node ID with O(1) insert/lookup and O(1) *bulk reset*
//! (bump the generation counter instead of clearing). The sampler uses one
//! per mini-batch layer; the historical cache uses the same structure to map
//! node IDs to ring-buffer slots.

use crate::NodeId;

/// O(1) global→local mapper with generation-based reset.
#[derive(Clone, Debug)]
pub struct NodeMapper {
    /// `(stamp, local)` per global ID, side by side so a lookup touches one
    /// cache line. `local` is meaningful only while `stamp == generation`,
    /// so a zero-initialised table (stamp 0, never a live generation) needs
    /// no sentinel written.
    slots: Vec<(u32, u32)>,
    generation: u32,
    /// Global IDs in insertion (= local) order for the current generation.
    order: Vec<NodeId>,
}

impl NodeMapper {
    /// A mapper covering global IDs `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        NodeMapper {
            slots: vec![(0, 0); capacity],
            generation: 1,
            order: Vec::new(),
        }
    }

    /// Forget all mappings in O(1).
    pub fn reset(&mut self) {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Extremely rare wrap: do the full clear so no stamp written
            // before it can alias a generation after it.
            self.slots.fill((0, 0));
            self.generation = 1;
        }
        self.order.clear();
    }

    /// Map `global`, assigning the next local ID if unseen. Returns the
    /// local ID.
    #[inline]
    pub fn get_or_insert(&mut self, global: NodeId) -> u32 {
        let slot = &mut self.slots[global as usize];
        if slot.0 == self.generation {
            slot.1
        } else {
            let l = self.order.len() as u32;
            *slot = (self.generation, l);
            self.order.push(global);
            l
        }
    }

    /// Start loading `global`'s slot into cache ahead of a lookup (a hint:
    /// no mapping changes).
    #[inline]
    pub(crate) fn prefetch(&self, global: NodeId) {
        fgnn_tensor::prefetch(&self.slots, global as usize);
    }

    /// Number of mapped nodes this generation.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.order.len()
    }

    /// Global IDs in local-ID order.
    #[inline]
    pub fn globals(&self) -> &[NodeId] {
        &self.order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `global`'s local ID if it is mapped this generation.
    fn get(m: &NodeMapper, global: NodeId) -> Option<u32> {
        let (stamp, local) = m.slots[global as usize];
        (stamp == m.generation).then_some(local)
    }

    #[test]
    fn assigns_sequential_locals() {
        let mut m = NodeMapper::new(10);
        assert_eq!(m.get_or_insert(7), 0);
        assert_eq!(m.get_or_insert(3), 1);
        assert_eq!(m.get_or_insert(7), 0);
        assert_eq!(m.len(), 2);
        assert_eq!(m.globals(), &[7, 3]);
    }

    #[test]
    fn reset_is_logical_clear() {
        let mut m = NodeMapper::new(4);
        m.get_or_insert(1);
        m.get_or_insert(2);
        m.reset();
        assert!(m.globals().is_empty());
        assert_eq!(get(&m, 1), None);
        assert_eq!(m.get_or_insert(2), 0);
    }

    #[test]
    fn many_resets_stay_consistent() {
        let mut m = NodeMapper::new(3);
        for round in 0..1000u32 {
            m.reset();
            let g = (round % 3) as NodeId;
            assert_eq!(m.get_or_insert(g), 0);
            assert_eq!(m.len(), 1);
        }
    }

    #[test]
    fn generation_wrap_clears_every_stamp() {
        let mut m = NodeMapper::new(6);
        // Stamped at generation 1, then untouched through 2^32 − 3 resets:
        // without the full clear it would alias generation 1 after the wrap.
        m.get_or_insert(5);
        m.generation = u32::MAX - 1;
        m.order.clear();
        assert_eq!(get(&m, 5), None);
        assert_eq!(m.get_or_insert(1), 0);
        assert_eq!(get(&m, 1), Some(0));
        m.reset(); // u32::MAX
        assert_eq!(get(&m, 1), None);
        assert_eq!(m.get_or_insert(2), 0);
        assert_eq!(m.get_or_insert(4), 1);
        m.reset(); // wraps: full clear, generation 1
        assert_eq!(m.generation, 1);
        assert!(m.slots.iter().all(|&slot| slot == (0, 0)), "{:?}", m.slots);
        assert!(m.globals().is_empty());
        for g in 0..6 {
            assert_eq!(
                get(&m, g),
                None,
                "stale stamp on {g} aliases the new generation"
            );
        }
        assert_eq!(m.get_or_insert(4), 0);
        assert_eq!(m.get_or_insert(5), 1);
        assert_eq!(m.get_or_insert(4), 0);
        assert_eq!(
            (get(&m, 4), get(&m, 5), get(&m, 1)),
            (Some(0), Some(1), None)
        );
        assert_eq!(m.globals(), &[4, 5]);
    }
}
