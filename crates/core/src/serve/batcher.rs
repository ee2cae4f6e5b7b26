//! Request batching under `max_batch` / `max_delay` knobs.
//!
//! GNN inference amortizes sampling and feature movement across a batch
//! exactly as training does, but a serving batcher cannot wait forever:
//! a batch dispatches as soon as it is full, or once its *oldest* member
//! has waited `max_delay` — the classic throughput/latency dial. The
//! batcher only computes dispatch times; the engine's event loop decides
//! when to act on them, so the policy stays a pure function.

use super::trace::Request;
use std::collections::VecDeque;

/// Batching knobs.
#[derive(Clone, Debug)]
pub struct BatcherConfig {
    /// Maximum requests per dispatched batch.
    pub max_batch: usize,
    /// Longest a queued request may wait for co-batching (nanoseconds).
    pub max_delay_ns: u64,
}

impl Default for BatcherConfig {
    fn default() -> Self {
        BatcherConfig {
            max_batch: 32,
            max_delay_ns: 2_000_000, // 2 ms
        }
    }
}

/// The batching policy.
#[derive(Clone, Debug)]
pub struct Batcher {
    cfg: BatcherConfig,
}

impl Batcher {
    /// A batcher under `cfg`.
    pub fn new(cfg: BatcherConfig) -> Self {
        Batcher { cfg }
    }

    /// Earliest sim time the head batch should dispatch, or `None` for an
    /// empty queue: immediately once full (`server_free_ns` gating), else
    /// when the oldest member's delay budget runs out. Never earlier than
    /// `cursor_ns`, the event loop's current position.
    pub fn dispatch_at(
        &self,
        queue: &VecDeque<Request>,
        server_free_ns: u64,
        cursor_ns: u64,
    ) -> Option<u64> {
        let oldest = queue.front()?;
        let t = if queue.len() >= self.cfg.max_batch {
            server_free_ns
        } else {
            server_free_ns.max(oldest.arrival_ns + self.cfg.max_delay_ns)
        };
        Some(t.max(cursor_ns))
    }

    /// Pop the head batch (up to `max_batch` requests, arrival order) into
    /// `batch`, replacing what it held: the caller's one buffer serves
    /// every batch of a run.
    pub fn take(&self, queue: &mut VecDeque<Request>, batch: &mut Vec<Request>) {
        let n = queue.len().min(self.cfg.max_batch);
        batch.clear();
        batch.extend(queue.drain(..n));
    }
}

#[cfg(test)]
mod tests {
    use super::super::trace::Priority;
    use super::*;

    fn req(id: u64, arrival_ns: u64) -> Request {
        Request {
            id,
            node: 0,
            arrival_ns,
            deadline_ns: arrival_ns + 100_000_000,
            priority: Priority::Normal,
            staleness_budget_ms: 100,
        }
    }

    #[test]
    fn full_batch_dispatches_when_server_free() {
        let b = Batcher::new(BatcherConfig {
            max_batch: 2,
            max_delay_ns: 1_000_000,
        });
        let mut q: VecDeque<Request> = [req(0, 10), req(1, 20)].into_iter().collect();
        assert_eq!(b.dispatch_at(&q, 500, 20), Some(500));
        let mut batch = vec![req(9, 0)];
        b.take(&mut q, &mut batch);
        assert_eq!(batch, [req(0, 10), req(1, 20)]);
        assert!(q.is_empty());
    }

    #[test]
    fn partial_batch_waits_out_the_delay_budget() {
        let b = Batcher::new(BatcherConfig {
            max_batch: 8,
            max_delay_ns: 1_000_000,
        });
        let q: VecDeque<Request> = [req(0, 100)].into_iter().collect();
        assert_eq!(b.dispatch_at(&q, 0, 100), Some(1_000_100));
        assert_eq!(b.dispatch_at(&VecDeque::new(), 0, 0), None);
    }

    #[test]
    fn dispatch_never_precedes_the_cursor() {
        let b = Batcher::new(BatcherConfig {
            max_batch: 8,
            max_delay_ns: 10,
        });
        let q: VecDeque<Request> = [req(0, 0)].into_iter().collect();
        assert_eq!(b.dispatch_at(&q, 0, 5_000), Some(5_000));
    }
}
