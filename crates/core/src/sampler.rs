//! Asynchronous CPU graph sampling (§5): its failure surface.
//!
//! The paper decouples *sampling* (cache-independent, runs ahead on CPU
//! threads) from *pruning* (cache-dependent, on GPU). An overlapped epoch
//! ([`crate::driver::Driver::train_epoch_async`]) runs the sampling half on
//! the worker threads of a [`crate::runtime::Pool`], which fill a **bounded
//! task queue** ("to control the production of subgraphs and avoid
//! overflowing the limited GPU memory") using multithreading rather than
//! DGL/PyG-style multiprocessing; [`crate::runtime::InOrder`] hands the
//! batches to the training thread in batch order.
//!
//! Determinism: each batch's task carries the RNG the driver drew for it
//! from the trainer stream before the epoch, and every attempt starts from
//! a copy of it, so the produced stream is identical regardless of thread
//! count or scheduling — and regardless of how many times a batch had to be
//! re-sampled after a panic.
//!
//! Fault model: a panic inside a worker is caught with `catch_unwind`; the
//! batch is re-sampled up to `max_retries` additional times on a fresh
//! sampler (panic may have poisoned its scratch state). If every attempt
//! panics, an explicit [`SampleError::BatchPanicked`] is delivered *for
//! that batch index* instead of silently truncating the epoch. If workers
//! die without reporting, the consumer yields [`SampleError::WorkersLost`]
//! rather than ending the iterator early, so a shortfall is always an
//! error, never a quietly short epoch.

use crate::runtime::TaskError;
use std::sync::Arc;

/// Default number of *re*-sample attempts after a worker panic.
pub const DEFAULT_SAMPLER_RETRIES: u32 = 2;

/// Why an epoch's batch stream could not be fully produced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SampleError {
    /// Sampling batch `batch_index` panicked on every one of `attempts`
    /// attempts.
    BatchPanicked {
        /// Index of the failing batch in the epoch schedule.
        batch_index: usize,
        /// Total attempts made (1 + retries).
        attempts: u32,
    },
    /// All workers disappeared after producing only `produced` of `total`
    /// batches.
    WorkersLost {
        /// Batches delivered in order before the loss.
        produced: usize,
        /// Batches the epoch schedule demanded.
        total: usize,
    },
}

impl std::fmt::Display for SampleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SampleError::BatchPanicked {
                batch_index,
                attempts,
            } => write!(
                f,
                "sampling batch {batch_index} panicked on all {attempts} attempts"
            ),
            SampleError::WorkersLost { produced, total } => {
                write!(f, "sampler workers died after {produced}/{total} batches")
            }
        }
    }
}

impl std::error::Error for SampleError {}

impl From<TaskError> for SampleError {
    fn from(e: TaskError) -> Self {
        match e {
            TaskError::Panicked { index, attempts } => SampleError::BatchPanicked {
                batch_index: index,
                attempts,
            },
            TaskError::Lost { produced, total } => SampleError::WorkersLost { produced, total },
        }
    }
}

/// Test/fault-injection hook: called as `(batch_index, attempt)` before
/// each sampling attempt, *inside* the panic guard — a panicking hook
/// exercises the recovery path deterministically.
pub type FaultHook = Arc<dyn Fn(usize, u32) + Send + Sync>;
