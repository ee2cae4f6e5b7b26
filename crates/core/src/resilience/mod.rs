//! The deterministic self-healing layer: numeric-health guarding, the
//! supervisor state machine, and rollback bookkeeping.
//!
//! The runtime already *tolerates* faults (bounded transfer retries,
//! sampler worker recovery, checkpoint/resume); this module makes it
//! *react*:
//!
//! * [`NumericGuard`] watches the per-batch loss stream for NaN/Inf and
//!   for loss spikes (windowed z-score) — both pure functions of the loss
//!   values, so detection is deterministic;
//! * [`Supervisor`] runs the `Healthy → Degraded → Recovering → Healthy`
//!   state machine, holds the last-known-good [`Checkpoint`] baseline,
//!   budgets rollbacks, and records every transition (as a
//!   [`Transition`], an obs span under the `resilience` category, and
//!   Exact metrics), so two same-seed runs produce byte-identical
//!   transition logs;
//! * the trainers' `train_epoch_resilient` methods (see
//!   [`crate::Trainer::train_epoch_resilient`]) drive it: a tripped guard
//!   aborts the epoch, rolls back to the baseline — evicting ring-cache
//!   entries stamped after the restored iteration so the `t_stale` bound
//!   holds — and replays; an open circuit breaker runs batches in
//!   degraded mode (cache bypassed, raw features fetched).
//!
//! Everything here is deterministic by construction: no wall clock, no
//! OS randomness — state changes are driven by the (seeded) fault plan,
//! the (seeded) training trajectory, and the breaker's transfer-count
//! cooldown.

use crate::checkpoint::Checkpoint;
use crate::obs::{MetricClass, Obs};
use std::collections::VecDeque;
use std::fmt;

/// Where the supervisor currently stands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HealthState {
    /// Normal operation.
    Healthy,
    /// A fault was detected (numeric fault, or the circuit breaker is
    /// open): the runtime is degrading service to keep making progress.
    Degraded,
    /// A rollback was issued; the epoch is replaying from the baseline.
    Recovering,
}

impl HealthState {
    /// Stable numeric code for metric export (`0`/`1`/`2`).
    pub fn code(self) -> u64 {
        match self {
            HealthState::Healthy => 0,
            HealthState::Degraded => 1,
            HealthState::Recovering => 2,
        }
    }

    /// Stable lowercase name for logs and exports.
    pub fn name(self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Degraded => "degraded",
            HealthState::Recovering => "recovering",
        }
    }
}

impl fmt::Display for HealthState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Tunables for the [`NumericGuard`].
#[derive(Clone, Copy, Debug)]
pub struct GuardConfig {
    /// Trailing losses kept for the z-score window.
    pub window: usize,
    /// A loss more than this many window standard deviations above the
    /// window mean counts as a spike.
    pub z_threshold: f64,
    /// Minimum window occupancy before spike detection engages (NaN/Inf
    /// detection is always on).
    pub min_samples: usize,
}

impl Default for GuardConfig {
    fn default() -> Self {
        GuardConfig {
            window: 16,
            z_threshold: 6.0,
            min_samples: 8,
        }
    }
}

/// What the [`NumericGuard`] detected.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum NumericFault {
    /// The loss came back NaN or infinite.
    NonFinite {
        /// Iteration whose loss tripped the guard.
        iter: u32,
    },
    /// The loss spiked past the z-score threshold.
    LossSpike {
        /// Iteration whose loss tripped the guard.
        iter: u32,
        /// The offending z-score.
        z: f64,
    },
}

impl NumericFault {
    /// Iteration at which the fault fired.
    pub fn iter(&self) -> u32 {
        match *self {
            NumericFault::NonFinite { iter } | NumericFault::LossSpike { iter, .. } => iter,
        }
    }

    /// Short stable cause string for the transition log.
    pub fn cause(&self) -> String {
        match *self {
            NumericFault::NonFinite { iter } => format!("non-finite-loss@{iter}"),
            NumericFault::LossSpike { iter, .. } => format!("loss-spike@{iter}"),
        }
    }
}

/// Windowed numeric-health detector over the per-batch loss stream.
///
/// Deterministic: state is only the trailing loss window, and both
/// detections are pure functions of it.
#[derive(Clone, Debug)]
pub struct NumericGuard {
    cfg: GuardConfig,
    window: VecDeque<f64>,
}

impl NumericGuard {
    /// An empty guard under `cfg`.
    pub fn new(cfg: GuardConfig) -> Self {
        NumericGuard {
            cfg,
            window: VecDeque::with_capacity(cfg.window.max(1)),
        }
    }

    /// Feed one batch loss; returns the fault it trips, if any. A faulty
    /// loss is *not* admitted into the window (the window only ever holds
    /// healthy history).
    pub fn observe(&mut self, iter: u32, loss: f32) -> Option<NumericFault> {
        if !loss.is_finite() {
            return Some(NumericFault::NonFinite { iter });
        }
        let loss = loss as f64;
        if self.window.len() >= self.cfg.min_samples.max(2) {
            let n = self.window.len() as f64;
            let mean = self.window.iter().sum::<f64>() / n;
            let var = self
                .window
                .iter()
                .map(|&x| (x - mean) * (x - mean))
                .sum::<f64>()
                / n;
            let std = var.sqrt();
            if std > 0.0 {
                let z = (loss - mean) / std;
                if z > self.cfg.z_threshold {
                    return Some(NumericFault::LossSpike { iter, z });
                }
            }
        }
        if self.window.len() == self.cfg.window.max(1) {
            self.window.pop_front();
        }
        self.window.push_back(loss);
        None
    }

    /// Clear the window (issued after a rollback: the replayed epoch's
    /// losses start a fresh history).
    pub fn reset(&mut self) {
        self.window.clear();
    }

    /// Current window occupancy (tests/metrics).
    pub fn samples(&self) -> usize {
        self.window.len()
    }
}

/// One recorded supervisor state change.
#[derive(Clone, Debug, PartialEq)]
pub struct Transition {
    /// Trainer iteration at the transition.
    pub iter: u32,
    /// Trainer epoch at the transition.
    pub epoch: u32,
    /// State left.
    pub from: HealthState,
    /// State entered.
    pub to: HealthState,
    /// Short cause tag (`non-finite-loss@12`, `breaker-open`,
    /// `rollback`, `epoch-clean`, …).
    pub cause: String,
}

/// Tunables for the [`Supervisor`].
#[derive(Clone, Copy, Debug)]
pub struct SupervisorConfig {
    /// Rollbacks allowed before a numeric fault becomes a hard error.
    pub max_rollbacks: u32,
    /// Numeric-guard tunables.
    pub guard: GuardConfig,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            max_rollbacks: 3,
            guard: GuardConfig::default(),
        }
    }
}

/// The health supervisor: state machine, rollback budget, baseline
/// checkpoint, and the transition log.
#[derive(Clone, Debug)]
pub struct Supervisor {
    cfg: SupervisorConfig,
    state: HealthState,
    /// The numeric-health detector fed by the guarded training loop.
    pub guard: NumericGuard,
    transitions: Vec<Transition>,
    rollbacks: u32,
    baseline: Option<Checkpoint>,
}

impl Supervisor {
    /// A healthy supervisor under `cfg` with no baseline yet.
    pub fn new(cfg: SupervisorConfig) -> Self {
        Supervisor {
            state: HealthState::Healthy,
            guard: NumericGuard::new(cfg.guard),
            transitions: Vec::new(),
            rollbacks: 0,
            baseline: None,
            cfg,
        }
    }

    /// Current health state.
    pub fn state(&self) -> HealthState {
        self.state
    }

    /// Every state change recorded so far, in order.
    pub fn transitions(&self) -> &[Transition] {
        &self.transitions
    }

    /// Rollbacks issued so far.
    pub fn rollbacks(&self) -> u32 {
        self.rollbacks
    }

    /// Whether the rollback budget still has room.
    pub fn can_roll_back(&self) -> bool {
        self.rollbacks < self.cfg.max_rollbacks
    }

    /// Whether a last-known-good baseline is held.
    pub fn has_baseline(&self) -> bool {
        self.baseline.is_some()
    }

    /// Install (or refresh) the last-known-good baseline.
    pub fn set_baseline(&mut self, ckpt: Checkpoint) {
        self.baseline = Some(ckpt);
    }

    /// Borrow the baseline for a restore.
    pub fn baseline(&self) -> Option<&Checkpoint> {
        self.baseline.as_ref()
    }

    /// Count a rollback against the budget and reset the numeric guard
    /// (the replayed epoch starts a fresh loss history). Also emits the
    /// `resilience.rollbacks` Exact counter.
    pub fn record_rollback(&mut self, obs: &mut Obs) {
        self.rollbacks += 1;
        self.guard.reset();
        obs.metrics
            .counter_add("resilience.rollbacks", MetricClass::Exact, 1);
    }

    /// Move to `to` (no-op if already there), recording the transition in
    /// the log, as a zero-duration span under the `resilience` category,
    /// and in the Exact `resilience.state` / `resilience.transitions`
    /// metrics. Zero-duration spans never advance the sim clock, so
    /// arming the supervisor cannot perturb span timestamps.
    pub fn transition(
        &mut self,
        to: HealthState,
        iter: u32,
        epoch: u32,
        cause: impl Into<String>,
        obs: &mut Obs,
    ) {
        if self.state == to {
            return;
        }
        let from = self.state;
        let cause = cause.into();
        let now = obs.clock.now_ns();
        obs.tracer.begin(
            format!("health:{}->{}", from.name(), to.name()),
            "resilience",
            now,
        );
        obs.tracer.end_with(
            now,
            vec![
                ("from", from.code()),
                ("to", to.code()),
                ("iter", iter as u64),
            ],
        );
        obs.metrics
            .counter_add("resilience.transitions", MetricClass::Exact, 1);
        obs.metrics
            .gauge_set("resilience.state", MetricClass::Exact, to.code() as f64);
        self.transitions.push(Transition {
            iter,
            epoch,
            from,
            to,
            cause,
        });
        self.state = to;
    }

    /// Render the transition log as a fixed-width text table (the bench
    /// runners print this under `--resilience`).
    pub fn transition_log(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:>6} {:>6} {:>11} {:>11}  {}\n",
            "epoch", "iter", "from", "to", "cause"
        ));
        for t in &self.transitions {
            out.push_str(&format!(
                "{:>6} {:>6} {:>11} {:>11}  {}\n",
                t.epoch,
                t.iter,
                t.from.name(),
                t.to.name(),
                t.cause
            ));
        }
        out
    }

    /// Export the transition log as JSONL stamped with the
    /// `fgnn-obs-v1` schema tag (one header line, then one line per
    /// transition) — byte-identical across same-seed reruns.
    pub fn transitions_jsonl(&self, section: &str) -> String {
        let mut out = format!(
            "{{\"schemaVersion\":\"{}\",\"kind\":\"resilience\",\"section\":\"{}\"}}\n",
            crate::obs::schema::OBS_V1,
            section
        );
        for t in &self.transitions {
            out.push_str(&format!(
                "{{\"epoch\":{},\"iter\":{},\"from\":\"{}\",\"to\":\"{}\",\"cause\":\"{}\"}}\n",
                t.epoch,
                t.iter,
                t.from.name(),
                t.to.name(),
                t.cause
            ));
        }
        out
    }
}

impl Default for Supervisor {
    fn default() -> Self {
        Supervisor::new(SupervisorConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_flags_non_finite_immediately() {
        let mut g = NumericGuard::new(GuardConfig::default());
        assert_eq!(
            g.observe(3, f32::NAN),
            Some(NumericFault::NonFinite { iter: 3 })
        );
        assert_eq!(
            g.observe(4, f32::INFINITY),
            Some(NumericFault::NonFinite { iter: 4 })
        );
        assert_eq!(g.samples(), 0, "faulty losses never enter the window");
    }

    #[test]
    fn guard_flags_spikes_only_after_warmup() {
        let cfg = GuardConfig {
            window: 8,
            z_threshold: 4.0,
            min_samples: 4,
        };
        let mut g = NumericGuard::new(cfg);
        // A wild value during warmup is tolerated (no established stats).
        assert_eq!(g.observe(0, 100.0), None);
        g.reset();
        for i in 0..6u32 {
            assert_eq!(g.observe(i, 1.0 + 0.01 * i as f32), None);
        }
        let fault = g.observe(6, 50.0).expect("spike detected");
        assert!(matches!(fault, NumericFault::LossSpike { iter: 6, .. }));
        assert!(fault.cause().starts_with("loss-spike@6"));
        // The spike is not admitted: the very next sane loss is clean.
        assert_eq!(g.observe(7, 1.05), None);
    }

    #[test]
    fn guard_tolerates_gradual_drift() {
        let mut g = NumericGuard::new(GuardConfig::default());
        // A steadily decreasing loss (normal training) never trips.
        for i in 0..100u32 {
            let loss = 2.0 * (-0.01 * i as f32).exp();
            assert_eq!(g.observe(i, loss), None, "iter {i}");
        }
    }

    #[test]
    fn supervisor_records_transitions_and_is_idempotent() {
        let mut sup = Supervisor::default();
        let mut obs = Obs::new();
        assert_eq!(sup.state(), HealthState::Healthy);
        sup.transition(HealthState::Degraded, 10, 1, "breaker-open", &mut obs);
        sup.transition(HealthState::Degraded, 11, 1, "breaker-open", &mut obs);
        sup.transition(HealthState::Recovering, 12, 1, "rollback", &mut obs);
        sup.transition(HealthState::Healthy, 20, 2, "epoch-clean", &mut obs);
        let ts = sup.transitions();
        assert_eq!(ts.len(), 3, "same-state transition is a no-op");
        assert_eq!(ts[0].from, HealthState::Healthy);
        assert_eq!(ts[0].to, HealthState::Degraded);
        assert_eq!(ts[2].to, HealthState::Healthy);
        let log = sup.transition_log();
        assert!(log.contains("breaker-open"), "{log}");
        assert!(log.contains("recovering"), "{log}");
    }

    #[test]
    fn jsonl_export_is_schema_tagged() {
        let mut sup = Supervisor::default();
        let mut obs = Obs::new();
        sup.transition(HealthState::Degraded, 5, 0, "non-finite-loss@5", &mut obs);
        let doc = sup.transitions_jsonl("chaos");
        assert!(
            doc.starts_with("{\"schemaVersion\":\"fgnn-obs-v1\""),
            "{doc}"
        );
        assert!(doc.contains("\"kind\":\"resilience\""));
        assert!(doc.contains("\"cause\":\"non-finite-loss@5\""));
        assert_eq!(doc.lines().count(), 2);
    }

    #[test]
    fn rollback_budget_is_enforced() {
        let mut sup = Supervisor::new(SupervisorConfig {
            max_rollbacks: 2,
            guard: GuardConfig::default(),
        });
        let mut obs = Obs::new();
        assert!(sup.can_roll_back());
        sup.record_rollback(&mut obs);
        sup.record_rollback(&mut obs);
        assert!(!sup.can_roll_back());
        assert_eq!(sup.rollbacks(), 2);
    }
}
