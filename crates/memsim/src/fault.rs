//! Deterministic fault injection for the interconnect simulator.
//!
//! Multi-hour training runs on hundreds of millions of nodes see link
//! flaps, transient transfer failures, and congestion stalls. This module
//! models those as a seed-driven [`FaultPlan`] consulted by
//! [`crate::TransferEngine`] on every transfer attempt, plus a
//! [`RetryPolicy`] (bounded retries, exponential backoff with jitter,
//! per-attempt timeout). Everything is driven by one small PRNG owned by
//! the plan, so a given `(seed, transfer sequence)` always produces the
//! same faults, the same retry counts and the same simulated times —
//! fault-injected runs stay exactly reproducible.
//!
//! Semantics (see DESIGN.md "Fault model & recovery"):
//!
//! * a **failed** attempt wastes its nominal wire time (charged to the
//!   ledger's `retry_seconds`, not `transfer_seconds`) and is retried
//!   after a backoff;
//! * a **stalled** attempt still delivers, but the stall is capped by the
//!   policy timeout — a stall past the timeout counts as a failure;
//! * when the retry budget is exhausted the engine falls back to a final
//!   reliable (re-routed/two-sided) transfer that always completes, and
//!   records the event in `failed_transfers` — training never wedges on a
//!   lost transfer, it just pays for it.

/// Health of a host's NIC link in the cluster simulator
/// ([`crate::cluster`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LinkHealth {
    /// Fully operational.
    Up,
    /// Operational at `1/factor` of nominal speed (`factor >= 1.0`).
    Degraded(f64),
    /// Hard down: every attempt routed over it fails.
    Down,
}

/// Outcome of one transfer attempt, drawn from the plan.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AttemptOutcome {
    /// Attempt delivers at nominal (possibly degraded) speed.
    Deliver,
    /// Attempt delivers after an extra stall of the given seconds.
    Stall(f64),
    /// Attempt fails outright; the initiator must retry.
    Fail,
}

/// A rejected [`FaultPlan`] builder input. Every variant carries the
/// offending value so callers can print a precise diagnostic instead of
/// silently training against a nonsense fault schedule.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultPlanError {
    /// A probability was outside `[0, 1]` (or NaN).
    BadProbability {
        /// Which probability knob was rejected (`"fail"` / `"stall"`).
        knob: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// A stall duration was negative (or NaN).
    NegativeStall(f64),
}

impl std::fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultPlanError::BadProbability { knob, value } => {
                write!(f, "{knob} probability {value} outside [0, 1]")
            }
            FaultPlanError::NegativeStall(s) => {
                write!(
                    f,
                    "negative stall of {s} seconds (stalls add time, they cannot remove it)"
                )
            }
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// SplitMix64 — tiny deterministic PRNG. `fgnn-memsim` is dependency-free
/// (it cannot use `fgnn_tensor::Rng`), and fault draws need nothing
/// fancier. Crate-visible so the cluster fault scheduler
/// ([`crate::cluster`]) can draw from the same generator family.
#[derive(Clone, Debug)]
pub(crate) struct SplitMix64 {
    x: u64,
}

impl SplitMix64 {
    pub(crate) fn new(seed: u64) -> Self {
        SplitMix64 { x: seed }
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        self.x = self.x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub(crate) fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A deterministic, seed-driven schedule of interconnect faults.
///
/// Built with the builder methods; consulted by the transfer engine once
/// per attempt. With all probabilities zero (see [`FaultPlan::new`]) the
/// plan never fires and adds no overhead worth measuring.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    rng: SplitMix64,
    /// Probability an attempt fails outright.
    fail_prob: f64,
    /// Probability an attempt stalls (drawn after the failure draw).
    stall_prob: f64,
    /// Stall duration in seconds when a stall fires.
    stall_seconds: f64,
}

impl FaultPlan {
    /// A fault-free plan seeded for later builder calls.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            rng: SplitMix64::new(seed),
            fail_prob: 0.0,
            stall_prob: 0.0,
            stall_seconds: 0.0,
        }
    }

    /// Fail each transfer attempt independently with probability `p`.
    ///
    /// Panics on invalid input; use [`FaultPlan::try_with_fail_prob`] to
    /// handle the error instead.
    pub fn with_fail_prob(self, p: f64) -> Self {
        self.try_with_fail_prob(p).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`FaultPlan::with_fail_prob`]: rejects `p`
    /// outside `[0, 1]` (NaN included) with a [`FaultPlanError`].
    pub fn try_with_fail_prob(mut self, p: f64) -> Result<Self, FaultPlanError> {
        if !(0.0..=1.0).contains(&p) {
            return Err(FaultPlanError::BadProbability {
                knob: "fail",
                value: p,
            });
        }
        self.fail_prob = p;
        Ok(self)
    }

    /// Stall each (non-failed) attempt with probability `p` for `seconds`.
    ///
    /// Panics on invalid input; use [`FaultPlan::try_with_stalls`] to
    /// handle the error instead.
    pub fn with_stalls(self, p: f64, seconds: f64) -> Self {
        self.try_with_stalls(p, seconds)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`FaultPlan::with_stalls`]: rejects a probability
    /// outside `[0, 1]` or a negative/NaN stall duration with a
    /// [`FaultPlanError`] instead of silently scheduling nonsense.
    pub fn try_with_stalls(mut self, p: f64, seconds: f64) -> Result<Self, FaultPlanError> {
        if !(0.0..=1.0).contains(&p) {
            return Err(FaultPlanError::BadProbability {
                knob: "stall",
                value: p,
            });
        }
        if seconds.is_nan() || seconds < 0.0 {
            return Err(FaultPlanError::NegativeStall(seconds));
        }
        self.stall_prob = p;
        self.stall_seconds = seconds;
        Ok(self)
    }

    /// Whether this plan can ever produce a fault (used by the engine to
    /// skip the draw entirely on the fault-free fast path).
    pub(crate) fn is_active(&self) -> bool {
        self.fail_prob > 0.0 || self.stall_prob > 0.0
    }

    /// Draw the outcome of one attempt. Consumes plan RNG state, so the
    /// sequence of outcomes is a pure function of `(seed, call index)`.
    pub(crate) fn draw_outcome(&mut self) -> AttemptOutcome {
        if self.fail_prob > 0.0 && self.rng.uniform() < self.fail_prob {
            return AttemptOutcome::Fail;
        }
        if self.stall_prob > 0.0 && self.rng.uniform() < self.stall_prob {
            return AttemptOutcome::Stall(self.stall_seconds);
        }
        AttemptOutcome::Deliver
    }
}

/// Tunables for the per-engine [`CircuitBreaker`].
#[derive(Clone, Copy, Debug)]
pub struct BreakerPolicy {
    /// Consecutive budget-exhausted transfers that trip the breaker open.
    pub failure_threshold: u32,
    /// Fast-failed transfers absorbed while open before the breaker moves
    /// to half-open and lets one probe transfer through the normal
    /// attempt loop (clamped to at least 1).
    pub cooldown: u32,
}

impl Default for BreakerPolicy {
    fn default() -> Self {
        BreakerPolicy {
            failure_threshold: 3,
            cooldown: 8,
        }
    }
}

/// Where a [`CircuitBreaker`] currently stands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Transfers run the normal attempt/retry loop.
    Closed,
    /// Transfers fail fast onto the fallback path without burning retries.
    Open,
    /// Cooldown elapsed: the next transfer is a full probe attempt.
    HalfOpen,
}

impl BreakerState {
    /// Stable numeric code for metric export (`0` closed, `1` open,
    /// `2` half-open).
    pub fn code(self) -> u64 {
        match self {
            BreakerState::Closed => 0,
            BreakerState::Open => 1,
            BreakerState::HalfOpen => 2,
        }
    }
}

/// Deterministic circuit breaker over the transfer fallback path.
///
/// Driven entirely by the (plan-RNG-determined) outcomes of faulted
/// transfers, so its transition sequence is a pure function of the fault
/// seed: `failure_threshold` *consecutive* transfers that exhaust their
/// retry budget trip it open; while open every transfer short-circuits to
/// the reliable fallback path (no retries, no backoff — the retry budget
/// is not burned on a link already known bad); after `cooldown`
/// fast-failed transfers it goes half-open and lets one probe run the
/// full attempt loop — a delivered probe closes it, a failed probe
/// re-opens it. The engine only consults the breaker while a fault plan
/// is active, so fault-free runs never observe it.
#[derive(Clone, Debug)]
pub struct CircuitBreaker {
    policy: BreakerPolicy,
    state: BreakerState,
    consecutive_failures: u32,
    cooldown_left: u32,
    /// Times the breaker tripped open.
    pub trips: u64,
    /// Transfers short-circuited straight to the fallback path while open.
    pub fast_fails: u64,
}

impl CircuitBreaker {
    /// A closed breaker under `policy`.
    pub(crate) fn new(policy: BreakerPolicy) -> Self {
        CircuitBreaker {
            policy,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            cooldown_left: 0,
            trips: 0,
            fast_fails: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Whether the breaker is open (transfers fail fast; the pipeline's
    /// degraded mode keys off this).
    pub(crate) fn is_open(&self) -> bool {
        self.state == BreakerState::Open
    }

    /// Called by the engine before a transfer's attempt loop. Returns
    /// `true` when the transfer must fail fast (breaker open), counting
    /// the fast-fail and ticking the cooldown toward half-open.
    pub(crate) fn fail_fast(&mut self) -> bool {
        if self.state != BreakerState::Open {
            return false;
        }
        self.fast_fails += 1;
        self.cooldown_left = self.cooldown_left.saturating_sub(1);
        if self.cooldown_left == 0 {
            self.state = BreakerState::HalfOpen;
        }
        true
    }

    /// A transfer delivered within its retry budget.
    pub(crate) fn record_success(&mut self) {
        self.consecutive_failures = 0;
        if self.state == BreakerState::HalfOpen {
            self.state = BreakerState::Closed;
        }
    }

    /// A transfer exhausted its retry budget (took the fallback path).
    pub fn record_failure(&mut self) {
        self.consecutive_failures += 1;
        if self.state == BreakerState::HalfOpen
            || self.consecutive_failures >= self.policy.failure_threshold
        {
            self.state = BreakerState::Open;
            self.trips += 1;
            self.cooldown_left = self.policy.cooldown.max(1);
            self.consecutive_failures = 0;
        }
    }
}

/// The fault-injection state a trainer threads through the pipeline
/// engine each epoch: the seeded plan (whose RNG stream advances across
/// epochs), the retry policy, and the optional circuit breaker (whose
/// trip state likewise persists across epochs).
#[derive(Clone, Debug, Default)]
pub struct FaultState {
    /// Seed-driven fault schedule; `None` disables injection entirely.
    pub plan: Option<FaultPlan>,
    /// Retry budget applied while the plan is active.
    pub policy: RetryPolicy,
    /// Optional circuit breaker over the fallback path.
    pub breaker: Option<CircuitBreaker>,
}

impl FaultState {
    /// No fault injection at all.
    pub fn none() -> Self {
        Self::default()
    }

    /// Install `plan` under `policy`, keeping any existing breaker.
    pub fn inject(&mut self, plan: FaultPlan, policy: RetryPolicy) {
        self.plan = Some(plan);
        self.policy = policy;
    }

    /// Install a closed circuit breaker under `policy`.
    pub fn arm_breaker(&mut self, policy: BreakerPolicy) {
        self.breaker = Some(CircuitBreaker::new(policy));
    }

    /// State of the breaker, if one is armed.
    pub fn breaker_state(&self) -> Option<BreakerState> {
        self.breaker.as_ref().map(|b| b.state())
    }
}

/// Backoff before the first retry, in simulated seconds.
pub const BASE_BACKOFF: f64 = 1e-3;
/// Exponential backoff growth per retry.
pub const BACKOFF_MULTIPLIER: f64 = 2.0;
/// Jitter fraction: a backoff is scaled by `[1, 1 + BACKOFF_JITTER_FRAC)`
/// drawn from the fault plan's RNG (deterministic).
const BACKOFF_JITTER_FRAC: f64 = 0.25;

/// Bounded-retry policy for faulted transfers. The backoff before retry
/// `k` (0-based) is `BASE_BACKOFF * BACKOFF_MULTIPLIER^k * jitter`.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Retries after the first attempt (total attempts = `1 + max_retries`).
    pub max_retries: u32,
    /// Per-attempt wall-time budget in simulated seconds; an attempt whose
    /// time (including stall) exceeds this counts as failed and charges
    /// exactly the timeout.
    pub timeout: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            timeout: 1.0,
        }
    }
}

impl RetryPolicy {
    /// Backoff (seconds) before 0-based retry `k`, jittered via `plan`.
    pub(crate) fn backoff(&self, k: u32, plan: &mut FaultPlan) -> f64 {
        let jitter = 1.0 + BACKOFF_JITTER_FRAC * plan.rng.uniform();
        BASE_BACKOFF * BACKOFF_MULTIPLIER.powi(k as i32) * jitter
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_plan_always_delivers() {
        let mut p = FaultPlan::new(0);
        assert!(!p.is_active());
        for _ in 0..100 {
            assert_eq!(p.draw_outcome(), AttemptOutcome::Deliver);
        }
    }

    #[test]
    fn same_seed_same_fault_sequence() {
        let mk = || FaultPlan::new(7).with_fail_prob(0.3).with_stalls(0.2, 0.5);
        let mut a = mk();
        let mut b = mk();
        for _ in 0..200 {
            assert_eq!(a.draw_outcome(), b.draw_outcome());
        }
    }

    #[test]
    fn fail_rate_close_to_requested() {
        let mut p = FaultPlan::new(3).with_fail_prob(0.1);
        let n = 20_000;
        let fails = (0..n)
            .filter(|_| p.draw_outcome() == AttemptOutcome::Fail)
            .count();
        let rate = fails as f64 / n as f64;
        assert!((rate - 0.1).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn backoff_grows_exponentially_with_bounded_jitter() {
        let mut plan = FaultPlan::new(9);
        let pol = RetryPolicy::default();
        for k in 0..5u32 {
            let b = pol.backoff(k, &mut plan);
            let nominal = 1e-3 * 2f64.powi(k as i32);
            assert!(b >= nominal && b < nominal * 1.25, "k={k} b={b}");
        }
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn rejects_bad_probability() {
        let _ = FaultPlan::new(0).with_fail_prob(1.5);
    }

    #[test]
    fn breaker_trips_after_threshold_consecutive_failures() {
        let mut b = CircuitBreaker::new(BreakerPolicy {
            failure_threshold: 3,
            cooldown: 2,
        });
        b.record_failure();
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Closed);
        // A success in between resets the streak.
        b.record_success();
        b.record_failure();
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Closed);
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips, 1);
    }

    #[test]
    fn breaker_cooldown_leads_to_half_open_probe() {
        let mut b = CircuitBreaker::new(BreakerPolicy {
            failure_threshold: 1,
            cooldown: 2,
        });
        b.record_failure();
        assert!(b.is_open());
        assert!(b.fail_fast());
        assert_eq!(b.state(), BreakerState::Open);
        assert!(b.fail_fast(), "last cooldown tick still fails fast");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(!b.fail_fast(), "half-open lets the probe through");
        assert_eq!(b.fast_fails, 2);
        // Successful probe closes; failed probe would re-open.
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn breaker_failed_probe_reopens_immediately() {
        let mut b = CircuitBreaker::new(BreakerPolicy {
            failure_threshold: 5,
            cooldown: 1,
        });
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Closed, "below threshold");
        // Force open via threshold.
        for _ in 0..5 {
            b.record_failure();
        }
        assert!(b.is_open());
        assert!(b.fail_fast());
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // One failed probe re-opens without needing the full streak.
        b.record_failure();
        assert!(b.is_open());
        assert_eq!(b.trips, 2);
    }

    #[test]
    fn try_builders_reject_invalid_inputs_with_clear_errors() {
        let err = FaultPlan::new(1).try_with_fail_prob(1.5).unwrap_err();
        assert_eq!(
            err,
            FaultPlanError::BadProbability {
                knob: "fail",
                value: 1.5
            }
        );
        assert!(err.to_string().contains("outside [0, 1]"), "{err}");

        let err = FaultPlan::new(1).try_with_stalls(-0.1, 1.0).unwrap_err();
        assert!(err.to_string().contains("stall probability"), "{err}");
        let err = FaultPlan::new(1).try_with_stalls(0.5, -1.0).unwrap_err();
        assert_eq!(err, FaultPlanError::NegativeStall(-1.0));

        // NaN probabilities are rejected, never silently accepted.
        assert!(FaultPlan::new(1).try_with_fail_prob(f64::NAN).is_err());
        assert!(FaultPlan::new(1).try_with_stalls(f64::NAN, 0.0).is_err());
        assert!(FaultPlan::new(1).try_with_stalls(0.1, f64::NAN).is_err());
    }

    #[test]
    fn try_builders_accept_valid_inputs() {
        let plan = FaultPlan::new(7)
            .try_with_fail_prob(0.25)
            .unwrap()
            .try_with_stalls(0.1, 2.0)
            .unwrap();
        assert!(plan.is_active());
    }

    #[test]
    fn fault_state_defaults_are_inert() {
        let s = FaultState::none();
        assert!(s.plan.is_none());
        assert!(s.breaker.is_none());
        assert!(s.breaker_state().is_none());
        let mut armed = FaultState::none();
        armed.arm_breaker(BreakerPolicy::default());
        assert_eq!(armed.breaker_state(), Some(BreakerState::Closed));
    }
}
