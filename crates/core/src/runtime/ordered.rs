//! In-order consumption of a pool: the determinism half of the runtime.
//!
//! Workers complete tasks in whatever order chaos and the OS produce.
//! [`InOrder`] is the consumer loop that turns that back into the canonical
//! stream: results are buffered by task index and released strictly in
//! index order, so what the consumer sees is identical at any worker count.
//! Every index is claimed exactly once, so there is nothing to arbitrate —
//! only to reorder.
//!
//! The reorder-buffer depth is folded into a queue-depth histogram at every
//! release, giving `obs` the backpressure signal the paper's bounded task
//! queue is about.

use super::{Pool, TaskError};
use crate::obs::{Histogram, MetricClass, Metrics, QUEUE_DEPTH_BUCKETS};
use std::collections::BTreeMap;
use std::marker::PhantomData;

/// Iterator over a [`Pool`]'s results in ascending task-index order. A task
/// that panicked on every attempt is an `Err` item *at its index* and the
/// stream continues; workers that die with results outstanding end it with
/// one [`TaskError::Lost`] — a shortfall is always an error, never a
/// quietly short stream. `E` is the caller's error type.
pub struct InOrder<R, E = TaskError> {
    pool: Pool<R>,
    /// Results that arrived ahead of their turn.
    pending: BTreeMap<usize, Result<R, TaskError>>,
    /// Items released so far — also the next index to release.
    next: usize,
    /// Reorder-buffer depth observed at each release.
    queue_depth: Histogram,
    error: PhantomData<fn() -> E>,
}

impl<R, E: From<TaskError>> InOrder<R, E> {
    /// Consume `pool` in index order.
    pub fn new(pool: Pool<R>) -> Self {
        InOrder {
            pool,
            pending: BTreeMap::new(),
            next: 0,
            queue_depth: Histogram::new(&QUEUE_DEPTH_BUCKETS),
            error: PhantomData,
        }
    }

    /// Fold this run into the metrics registry under `sampler.*` (schema in
    /// DESIGN.md §8); totals accumulate across epochs. Items released and
    /// panic retries are properties of the tasks and `Exact`; per-worker
    /// counts, latency and queue depth vary run to run and are `Measured`.
    /// An in-line epoch publishes the two `Exact` counters itself.
    pub(crate) fn flush_obs(&self, m: &mut Metrics) {
        let r = self.pool.obs_report();
        m.counter_add("sampler.batches", MetricClass::Exact, self.next as u64);
        m.counter_add("sampler.resample_retries", MetricClass::Exact, r.retries);
        for (w, (&t, &n)) in r.worker_tasks.iter().zip(&r.worker_task_nanos).enumerate() {
            m.counter_add(
                &format!("sampler.worker.{w}.tasks"),
                MetricClass::Measured,
                t,
            );
            m.counter_add(
                &format!("sampler.worker.{w}.task_ns"),
                MetricClass::Measured,
                n,
            );
        }
        for (name, run) in [
            ("sampler.task_seconds", &r.task_seconds),
            ("sampler.queue_depth", &self.queue_depth),
        ] {
            let mut total = m.histogram(name).cloned().unwrap_or_default();
            total.merge(run);
            m.hist_set(name, MetricClass::Measured, total);
        }
    }
}

impl<R, E: From<TaskError>> Iterator for InOrder<R, E> {
    type Item = Result<R, E>;

    fn next(&mut self) -> Option<Self::Item> {
        let total = self.pool.total();
        if self.next >= total {
            return None;
        }
        loop {
            if let Some(item) = self.pending.remove(&self.next) {
                self.next += 1;
                self.queue_depth.observe(self.pending.len() as f64);
                return Some(item.map_err(E::from));
            }
            match self.pool.recv() {
                Ok((i, item)) => {
                    self.pending.insert(i, item);
                }
                Err(_) => {
                    // Every worker is gone with results outstanding: report
                    // the shortfall once, then end.
                    let lost = TaskError::Lost {
                        produced: self.next,
                        total,
                    };
                    self.next = total;
                    self.pending.clear();
                    return Some(Err(E::from(lost)));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::RuntimeConfig;

    #[test]
    fn dead_workers_end_the_stream_with_one_lost_error() {
        let cfg = RuntimeConfig {
            workers: 2,
            ..RuntimeConfig::default()
        };
        // A panicking `init` is outside the per-task panic guard: both
        // workers die before claiming anything.
        fn no_state() {
            panic!("worker state cannot be built")
        }
        let pool: Pool<usize> = Pool::spawn(&cfg, vec![(); 4], no_state, |_, i, _, _| i);
        let got: Vec<_> = InOrder::<usize>::new(pool).collect();
        assert_eq!(
            got,
            vec![Err(TaskError::Lost {
                produced: 0,
                total: 4
            })]
        );
    }
}
