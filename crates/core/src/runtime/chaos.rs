//! Seeded schedule perturbation for the task pool.
//!
//! The determinism claim of the runtime is *schedule independence*: the
//! committed batch stream, Exact metrics and span trees are byte-identical
//! no matter which worker runs which task and in which order the results
//! come back. A claim like that is only worth anything if tests can drive
//! the pool through genuinely adversarial schedules, so [`ChaosPolicy`]
//! injects two kinds of seeded misbehaviour *before a worker's claim only*:
//!
//! * **delays** — a worker sleeps briefly before claiming its next task,
//!   perturbing which worker gets which index;
//! * **stalls** — a worker sleeps the full bound, simulating an OS-level
//!   preemption or a straggling core, so later indexes overtake it.
//!
//! Task *results* are never touched: chaos changes who computes a batch
//! and when, never what the batch contains. Each worker decides from its
//! own `Rng::new(seed ^ worker)` stream, so a chaos schedule is itself
//! reproducible for debugging, while still differing across workers.

use fgnn_tensor::Rng;
use std::time::Duration;

/// Tunable probabilities for adversarial scheduling, each evaluated once
/// per claim.
#[derive(Clone, Copy, Debug)]
pub struct ChaosPolicy {
    /// Seed for the per-worker decision streams (worker `w` draws from
    /// `Rng::new(seed ^ w)`).
    pub seed: u64,
    /// Probability that a claim is preceded by a short random sleep.
    pub delay_prob: f32,
    /// Probability that a worker stalls (sleeps `max_delay_micros`)
    /// before its next claim.
    pub stall_prob: f32,
    /// Upper bound on injected sleeps, in microseconds.
    pub max_delay_micros: u64,
}

impl ChaosPolicy {
    /// An aggressive preset for the schedule-fuzzing suite: frequent
    /// delays, occasional full stalls, sleeps short enough to keep
    /// 256-case property runs fast.
    pub fn aggressive(seed: u64) -> Self {
        ChaosPolicy {
            seed,
            delay_prob: 0.3,
            stall_prob: 0.1,
            max_delay_micros: 200,
        }
    }
}

/// Per-worker chaos decision stream. Lives on the worker thread.
#[derive(Debug)]
pub(crate) struct ChaosRng {
    rng: Rng,
    policy: ChaosPolicy,
}

impl ChaosRng {
    pub(crate) fn new(policy: ChaosPolicy, worker: u64) -> Self {
        ChaosRng {
            rng: Rng::new(policy.seed ^ worker),
            policy,
        }
    }

    /// How long to sleep before the next claim: a stall, a delay, both or
    /// (zero) neither.
    pub(crate) fn pause(&mut self) -> Duration {
        let bound = self.policy.max_delay_micros.max(1);
        let mut micros = 0;
        if self.policy.stall_prob > 0.0 && self.rng.bernoulli(self.policy.stall_prob) {
            micros += bound;
        }
        if self.policy.delay_prob > 0.0 && self.rng.bernoulli(self.policy.delay_prob) {
            micros += self.rng.below(bound as usize) as u64;
        }
        Duration::from_micros(micros)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_streams_are_reproducible_per_worker() {
        let policy = ChaosPolicy::aggressive(99);
        let decisions = |worker: u64| {
            let mut c = ChaosRng::new(policy, worker);
            (0..64).map(|_| c.pause()).collect::<Vec<_>>()
        };
        assert_eq!(decisions(0), decisions(0), "same worker → same stream");
        assert_ne!(decisions(0), decisions(1), "workers draw distinct streams");
    }

    #[test]
    fn zero_probabilities_are_silent() {
        let policy = ChaosPolicy {
            seed: 1,
            delay_prob: 0.0,
            stall_prob: 0.0,
            max_delay_micros: 100,
        };
        let mut c = ChaosRng::new(policy, 0);
        for _ in 0..32 {
            assert_eq!(c.pause(), Duration::ZERO);
        }
    }

    #[test]
    fn pauses_respect_the_bound() {
        let mut c = ChaosRng::new(ChaosPolicy::aggressive(7), 3);
        let mut paused = 0;
        for _ in 0..256 {
            let d = c.pause();
            // At most one stall (200 µs) plus one delay (< 200 µs).
            assert!(d < Duration::from_micros(400));
            paused += (d > Duration::ZERO) as u32;
        }
        assert!(paused > 0, "an aggressive policy must pause sometimes");
    }
}
