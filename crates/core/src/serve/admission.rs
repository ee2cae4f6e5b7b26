//! Admission control: token-bucket rate limiting, a bounded queue with
//! priority displacement, and deadline-aware load shedding.
//!
//! The controller's job is to keep the serving engine in its stable
//! operating region under *any* offered load: excess work is refused at
//! the door (rate limit), displaced by more important work (queue-full
//! priority shedding) or dropped once it can no longer meet its deadline
//! (expiry shedding) — never silently queued into collapse. Every shed
//! decision is recorded in an append-only log and counted in `Exact`
//! metrics, so two same-seed runs shed byte-identically.

use super::trace::Request;
use std::collections::VecDeque;

/// Why a request was shed instead of served.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShedReason {
    /// The token bucket was empty: offered rate exceeds the contract.
    RateLimited,
    /// The bounded queue was full and nothing cheaper could be displaced.
    QueueFull,
    /// The request could no longer complete before its deadline.
    DeadlineExpired,
}

impl ShedReason {
    /// Stable lowercase name for logs and exports.
    pub fn name(self) -> &'static str {
        match self {
            ShedReason::RateLimited => "rate_limited",
            ShedReason::QueueFull => "queue_full",
            ShedReason::DeadlineExpired => "deadline_expired",
        }
    }

    /// Stable numeric code for span attributes (`0`/`1`/`2`).
    pub(crate) fn code(self) -> u64 {
        match self {
            ShedReason::RateLimited => 0,
            ShedReason::QueueFull => 1,
            ShedReason::DeadlineExpired => 2,
        }
    }
}

/// Admission-control knobs.
#[derive(Clone, Debug)]
pub struct AdmissionConfig {
    /// Maximum queued (admitted but unserved) requests.
    pub queue_cap: usize,
    /// Token-bucket refill rate (requests per simulated second).
    pub rate_rps: f64,
    /// Token-bucket capacity (burst allowance, in requests).
    pub burst: f64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            queue_cap: 64,
            rate_rps: 4000.0,
            burst: 64.0,
        }
    }
}

/// Deterministic token bucket on the sim clock.
#[derive(Clone, Debug)]
pub struct TokenBucket {
    rate: f64,
    cap: f64,
    tokens: f64,
    last_ns: u64,
}

impl TokenBucket {
    /// A full bucket refilling at `rate` tokens/second up to `cap`.
    pub(crate) fn new(rate: f64, cap: f64) -> Self {
        TokenBucket {
            rate,
            cap,
            tokens: cap,
            last_ns: 0,
        }
    }

    /// Take one token at sim time `now_ns`; `false` means rate-limited.
    /// Refill is computed from exact nanosecond deltas, so the accept/
    /// reject sequence is a pure function of the arrival times.
    pub(crate) fn try_take(&mut self, now_ns: u64) -> bool {
        let dt = now_ns.saturating_sub(self.last_ns) as f64 * 1e-9;
        self.last_ns = now_ns;
        self.tokens = (self.tokens + dt * self.rate).min(self.cap);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// The admission controller: owns the bounded queue and the shed ledger.
#[derive(Clone, Debug)]
pub struct AdmissionController {
    cfg: AdmissionConfig,
    bucket: TokenBucket,
    /// Admitted requests awaiting service, in arrival order.
    pub queue: VecDeque<Request>,
    /// Append-only `(request id, reason)` shed ledger, in decision order.
    pub shed_log: Vec<(u64, ShedReason)>,
    /// Requests refused by the token bucket.
    pub shed_rate_limited: u64,
    /// Requests shed because the queue was full (either the arrival or a
    /// displaced lower-priority victim).
    pub shed_queue_full: u64,
    /// Requests shed because their deadline became unreachable.
    pub shed_deadline: u64,
    /// Deepest queue observed (after each admission).
    pub max_depth: usize,
}

impl AdmissionController {
    /// A fresh controller under `cfg`.
    pub(crate) fn new(cfg: AdmissionConfig) -> Self {
        let bucket = TokenBucket::new(cfg.rate_rps, cfg.burst);
        AdmissionController {
            cfg,
            bucket,
            queue: VecDeque::new(),
            shed_log: Vec::new(),
            shed_rate_limited: 0,
            shed_queue_full: 0,
            shed_deadline: 0,
            max_depth: 0,
        }
    }

    fn shed(&mut self, id: u64, reason: ShedReason) {
        match reason {
            ShedReason::RateLimited => self.shed_rate_limited += 1,
            ShedReason::QueueFull => self.shed_queue_full += 1,
            ShedReason::DeadlineExpired => self.shed_deadline += 1,
        }
        self.shed_log.push((id, reason));
    }

    /// Offer an arriving request at sim time `now_ns`. Returns `true` when
    /// it was admitted to the queue; a `false` return has already been
    /// recorded in the shed ledger. A full queue sheds the *oldest
    /// lowest-priority* entry when the arrival outranks it — latency-
    /// critical traffic displaces best-effort traffic, never vice versa.
    pub(crate) fn offer(&mut self, req: Request, now_ns: u64) -> bool {
        if !self.bucket.try_take(now_ns) {
            self.shed(req.id, ShedReason::RateLimited);
            return false;
        }
        if self.queue.len() >= self.cfg.queue_cap {
            // Oldest entry of the minimum priority class is the victim
            // candidate (deterministic: scan order is queue order).
            let victim = self
                .queue
                .iter()
                .enumerate()
                .min_by_key(|(i, r)| (r.priority, *i))
                .map(|(i, r)| (i, r.priority));
            match victim {
                Some((i, p)) if p < req.priority => {
                    let shed = self.queue.remove(i).expect("victim index valid");
                    self.shed(shed.id, ShedReason::QueueFull);
                }
                _ => {
                    self.shed(req.id, ShedReason::QueueFull);
                    return false;
                }
            }
        }
        self.queue.push_back(req);
        self.max_depth = self.max_depth.max(self.queue.len());
        true
    }

    /// Shed every queued request whose deadline precedes `horizon_ns`
    /// (dispatch time plus the engine's running service estimate): work
    /// that cannot finish in time is dropped *before* burning service
    /// capacity on it.
    pub(crate) fn shed_expired(&mut self, horizon_ns: u64) {
        let mut kept = VecDeque::with_capacity(self.queue.len());
        while let Some(r) = self.queue.pop_front() {
            if r.deadline_ns < horizon_ns {
                self.shed(r.id, ShedReason::DeadlineExpired);
            } else {
                kept.push_back(r);
            }
        }
        self.queue = kept;
    }

    /// Total shed requests across all reasons.
    pub(crate) fn shed_total(&self) -> u64 {
        self.shed_rate_limited + self.shed_queue_full + self.shed_deadline
    }
}

#[cfg(test)]
mod tests {
    use super::super::trace::Priority;
    use super::*;

    fn req(id: u64, arrival_ns: u64, priority: Priority) -> Request {
        Request {
            id,
            node: 0,
            arrival_ns,
            deadline_ns: arrival_ns + 100_000_000,
            priority,
            staleness_budget_ms: 100,
        }
    }

    #[test]
    fn token_bucket_limits_and_refills() {
        let mut b = TokenBucket::new(10.0, 2.0);
        assert!(b.try_take(0));
        assert!(b.try_take(0));
        assert!(!b.try_take(0), "burst of 2 exhausted");
        // 100 ms at 10 rps refills exactly one token.
        assert!(b.try_take(100_000_000));
        assert!(!b.try_take(100_000_000));
    }

    #[test]
    fn queue_full_sheds_lowest_priority_victim() {
        let mut a = AdmissionController::new(AdmissionConfig {
            queue_cap: 2,
            rate_rps: 1e9,
            burst: 1e9,
        });
        assert!(a.offer(req(0, 0, Priority::Low), 0));
        assert!(a.offer(req(1, 0, Priority::Normal), 0));
        // High displaces the oldest Low.
        assert!(a.offer(req(2, 0, Priority::High), 0));
        assert_eq!(a.shed_log, vec![(0, ShedReason::QueueFull)]);
        // Low cannot displace Normal/High: the arrival itself sheds.
        assert!(!a.offer(req(3, 0, Priority::Low), 0));
        assert_eq!(a.shed_queue_full, 2);
        assert_eq!(a.queue.iter().map(|r| r.id).collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn expiry_shedding_drops_unreachable_deadlines_only() {
        let mut a = AdmissionController::new(AdmissionConfig::default());
        assert!(a.offer(req(0, 0, Priority::Normal), 0));
        assert!(a.offer(req(1, 50_000_000, Priority::Normal), 50_000_000));
        a.shed_expired(120_000_000);
        assert_eq!(a.queue.len(), 1, "only the expired request is shed");
        assert_eq!(a.shed_log, vec![(0, ShedReason::DeadlineExpired)]);
        assert_eq!(a.shed_total(), 1);
    }

    #[test]
    fn rate_limit_sheds_are_logged() {
        let mut a = AdmissionController::new(AdmissionConfig {
            queue_cap: 10,
            rate_rps: 1.0,
            burst: 1.0,
        });
        assert!(a.offer(req(0, 0, Priority::Normal), 0));
        assert!(!a.offer(req(1, 0, Priority::High), 0));
        assert_eq!(a.shed_log, vec![(1, ShedReason::RateLimited)]);
    }
}
