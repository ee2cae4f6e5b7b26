//! One-sided vs two-sided transfer models (§6, Fig 9), with optional
//! deterministic fault injection.
//!
//! **Two-sided** (classic `gather`-on-host): the computation device ships
//! node indices to the storage device, the storage device compacts the rows
//! and sends them back. Costs: index payload on the wire, two
//! synchronization latencies, and a pipeline-efficiency penalty (the
//! compaction cannot overlap the payload transfer).
//!
//! **One-sided** (UVA): the computation device reads rows directly from
//! mapped memory at full link bandwidth; no index shipping, no sync.
//! The paper measures one-sided ≈23% faster on PCIe — our default
//! `TWO_SIDED_EFFICIENCY = 0.78` encodes exactly that observation.
//!
//! **Faults**: an engine built with [`TransferEngine::with_faults`]
//! consults a [`FaultPlan`] once per transfer attempt and retries under a
//! [`RetryPolicy`]. Failed attempts and backoff are charged to the
//! ledger's `retries`/`retry_seconds`; a transfer that exhausts its budget
//! completes on a reliable fallback path at [`FALLBACK_PENALTY`]× nominal
//! cost and increments `failed_transfers`. Transfers therefore always
//! complete — faults cost time, never data.

use crate::counters::TrafficCounters;
use crate::fault::{AttemptOutcome, CircuitBreaker, FaultPlan, RetryPolicy};
use crate::topology::{Node, Topology};

/// Synchronization latency per two-sided rendezvous (seconds). Two are paid
/// per transfer (request + completion). ~50µs matches a CUDA stream sync +
/// host wakeup on the paper's servers.
pub const SYNC_LATENCY: f64 = 50e-6;

/// Payload-bandwidth efficiency of two-sided transfers relative to
/// one-sided (compaction and send cannot fully overlap).
pub const TWO_SIDED_EFFICIENCY: f64 = 0.78;

/// Bytes per shipped node index.
pub const INDEX_BYTES: u64 = 4;

/// Cost multiplier of the reliable fallback path taken when the retry
/// budget is exhausted (models re-routing through the host / a pinned
/// staging buffer: slower, but always lands).
pub const FALLBACK_PENALTY: f64 = 2.0;

/// Executes transfers against a topology, charging a [`TrafficCounters`].
pub struct TransferEngine<'a> {
    topo: &'a Topology,
    /// Per-link accumulated busy seconds (per direction folded together;
    /// directions are symmetric in our workloads).
    pub link_busy: Vec<f64>,
    /// Per-link payload bytes carried (index bytes included; every link on
    /// a route carries the full payload).
    pub link_bytes: Vec<u64>,
    /// Per-link failed/timed-out attempts (each retry charges every link
    /// of the affected route once).
    pub link_retries: Vec<u64>,
    faults: Option<(FaultPlan, RetryPolicy)>,
    breaker: Option<CircuitBreaker>,
}

impl<'a> TransferEngine<'a> {
    /// New fault-free engine over `topo`.
    pub fn new(topo: &'a Topology) -> Self {
        TransferEngine {
            link_busy: vec![0.0; topo.links().len()],
            link_bytes: vec![0; topo.links().len()],
            link_retries: vec![0; topo.links().len()],
            topo,
            faults: None,
            breaker: None,
        }
    }

    /// Engine that injects faults from `plan`, retrying under `policy`.
    pub fn with_faults(topo: &'a Topology, plan: FaultPlan, policy: RetryPolicy) -> Self {
        TransferEngine {
            link_busy: vec![0.0; topo.links().len()],
            link_bytes: vec![0; topo.links().len()],
            link_retries: vec![0; topo.links().len()],
            topo,
            faults: Some((plan, policy)),
            breaker: None,
        }
    }

    /// Take the fault plan back out (the trainer re-threads it across
    /// epochs so the fault RNG stream continues instead of restarting).
    pub fn take_fault_plan(&mut self) -> Option<FaultPlan> {
        self.faults.take().map(|(plan, _)| plan)
    }

    /// Install a circuit breaker over the fallback path. The breaker is
    /// only consulted while an active fault plan is installed; fault-free
    /// engines never touch it.
    pub fn set_breaker(&mut self, breaker: Option<CircuitBreaker>) {
        self.breaker = breaker;
    }

    /// Take the breaker back out (re-threaded across epochs like the fault
    /// plan, so trip state and counters persist).
    pub fn take_breaker(&mut self) -> Option<CircuitBreaker> {
        self.breaker.take()
    }

    /// Whether an installed breaker is currently open (the pipeline keys
    /// its cache-bypassing degraded mode off this).
    pub fn breaker_open(&self) -> bool {
        self.breaker.as_ref().is_some_and(|b| b.is_open())
    }

    /// Route and nominal (fault-free) seconds for `bytes` from `src` to
    /// `dst`, without committing link busy time.
    fn plan_route(&self, src: Node, dst: Node, bytes: u64) -> (Vec<usize>, f64) {
        let route = self.topo.route(src, dst);
        if route.is_empty() {
            return (route, 0.0);
        }
        let bw = self.topo.bottleneck(&route);
        let t = bytes as f64 / bw;
        (route, t)
    }

    fn commit(&mut self, route: &[usize], t: f64) {
        for &l in route {
            self.link_busy[l] += t;
        }
    }

    /// Run the attempt/retry state machine for one logical transfer whose
    /// fault-free cost is `nominal` seconds, committing each `(route, t)`
    /// pair of busy time (scaled by the fallback penalty if the transfer
    /// fell back) once it lands. Returns the delivered-transfer seconds to
    /// charge to `transfer_seconds`; fault losses go straight into
    /// `counters`.
    fn deliver(
        &mut self,
        commits: &[(Vec<usize>, f64)],
        nominal: f64,
        counters: &mut TrafficCounters,
    ) -> f64 {
        // Fast path: no fault machinery configured, or an inert plan.
        let active = matches!(&self.faults, Some((plan, _)) if plan.is_active());
        if !active {
            for (route, t) in commits {
                self.commit(route, *t);
            }
            return nominal;
        }
        let (mut plan, policy) = self.faults.take().expect("checked active above");

        // Open breaker: skip the attempt loop entirely and take the
        // reliable fallback path — no retries or backoff are charged for a
        // link already known bad.
        let fast_fail = self.breaker.as_mut().is_some_and(|b| b.fail_fast());
        if fast_fail {
            counters.failed_transfers += 1;
            for (route, base) in commits {
                self.commit(route, base * FALLBACK_PENALTY);
            }
            self.faults = Some((plan, policy));
            return nominal * FALLBACK_PENALTY;
        }
        let mut delivered = false;
        for attempt in 0..=policy.max_retries {
            match plan.draw_outcome() {
                AttemptOutcome::Deliver if nominal <= policy.timeout => {
                    delivered = true;
                    break;
                }
                AttemptOutcome::Stall(s) if nominal + s <= policy.timeout => {
                    // Stall is fault-induced delay on a successful attempt.
                    counters.retry_seconds += s;
                    delivered = true;
                    break;
                }
                // Outright failure, or a stall/transfer that blew the
                // per-attempt timeout: the initiator waited `min(cost,
                // timeout)` for nothing.
                _ => {
                    counters.retries += 1;
                    for (route, _) in commits {
                        for &l in route {
                            self.link_retries[l] += 1;
                        }
                    }
                    counters.retry_seconds += nominal.min(policy.timeout);
                    if attempt < policy.max_retries {
                        counters.retry_seconds += policy.backoff(attempt, &mut plan);
                    }
                }
            }
        }
        if let Some(b) = self.breaker.as_mut() {
            if delivered {
                b.record_success();
            } else {
                b.record_failure();
            }
        }
        let factor = if delivered {
            1.0
        } else {
            // Budget exhausted: reliable fallback always lands.
            counters.failed_transfers += 1;
            FALLBACK_PENALTY
        };
        for (route, base) in commits {
            self.commit(route, base * factor);
        }
        self.faults = Some((plan, policy));
        nominal * factor
    }

    /// One-sided read of `bytes` from `storage` into `compute`.
    /// Returns simulated seconds and updates `counters`.
    pub fn one_sided_read(
        &mut self,
        storage: Node,
        compute: Node,
        bytes: u64,
        counters: &mut TrafficCounters,
    ) -> f64 {
        let (route, nominal) = self.plan_route(storage, compute, bytes);
        let t = if route.is_empty() {
            0.0
        } else {
            for &l in &route {
                self.link_bytes[l] += bytes;
            }
            self.deliver(&[(route, nominal)], nominal, counters)
        };
        if storage == Node::Host || compute == Node::Host {
            counters.host_to_gpu_bytes += bytes;
        } else {
            counters.gpu_to_gpu_bytes += bytes;
        }
        counters.num_transfers += 1;
        counters.transfer_seconds += t;
        t
    }

    /// Two-sided read: ship `num_indices` indices to `storage`, sync, then
    /// receive the compacted payload at reduced efficiency.
    pub fn two_sided_read(
        &mut self,
        storage: Node,
        compute: Node,
        bytes: u64,
        num_indices: u64,
        counters: &mut TrafficCounters,
    ) -> f64 {
        let idx_bytes = num_indices * INDEX_BYTES;
        let (route_idx, t_idx) = self.plan_route(compute, storage, idx_bytes);
        let (route_payload, t_payload) = self.plan_route(storage, compute, bytes);
        let nominal = t_idx + t_payload / TWO_SIDED_EFFICIENCY + 2.0 * SYNC_LATENCY;
        let t = if route_payload.is_empty() {
            2.0 * SYNC_LATENCY
        } else {
            for &l in &route_idx {
                self.link_bytes[l] += idx_bytes;
            }
            for &l in &route_payload {
                self.link_bytes[l] += bytes;
            }
            self.deliver(
                &[
                    (route_idx, t_idx),
                    (route_payload, t_payload / TWO_SIDED_EFFICIENCY),
                ],
                nominal,
                counters,
            )
        };
        if storage == Node::Host || compute == Node::Host {
            counters.host_to_gpu_bytes += bytes;
        } else {
            counters.gpu_to_gpu_bytes += bytes;
        }
        counters.index_bytes += idx_bytes;
        counters.num_transfers += 1;
        counters.transfer_seconds += t;
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GB: f64 = 1e9;

    #[test]
    fn one_sided_time_is_bytes_over_bottleneck() {
        let topo = Topology::pcie_tree(1, 1, 16.0 * GB);
        let mut eng = TransferEngine::new(&topo);
        let mut c = TrafficCounters::new();
        let t = eng.one_sided_read(Node::Host, Node::Gpu(0), 16_000_000, &mut c);
        assert!((t - 1e-3).abs() < 1e-9, "t = {t}");
        assert_eq!(c.host_to_gpu_bytes, 16_000_000);
        assert_eq!(c.index_bytes, 0);
    }

    #[test]
    fn two_sided_is_slower_than_one_sided() {
        let topo = Topology::pcie_tree(1, 1, 16.0 * GB);
        let mut eng = TransferEngine::new(&topo);
        let mut c = TrafficCounters::new();
        let bytes = 64_000_000;
        let t1 = eng.one_sided_read(Node::Host, Node::Gpu(0), bytes, &mut c);
        let t2 = eng.two_sided_read(Node::Host, Node::Gpu(0), bytes, 125_000, &mut c);
        assert!(t2 > t1 * 1.15, "two-sided {t2} vs one-sided {t1}");
        assert!(c.index_bytes > 0);
    }

    #[test]
    fn gpu_to_gpu_counts_as_p2p() {
        let topo = Topology::nvlink_clique(2, 50.0 * GB, 16.0 * GB);
        let mut eng = TransferEngine::new(&topo);
        let mut c = TrafficCounters::new();
        eng.one_sided_read(Node::Gpu(1), Node::Gpu(0), 1000, &mut c);
        assert_eq!(c.gpu_to_gpu_bytes, 1000);
        assert_eq!(c.host_to_gpu_bytes, 0);
    }

    #[test]
    fn link_busy_accumulates_along_route() {
        let topo = Topology::pcie_tree(4, 2, GB);
        let mut eng = TransferEngine::new(&topo);
        let mut c = TrafficCounters::new();
        eng.one_sided_read(Node::Gpu(2), Node::Gpu(0), 1_000_000, &mut c);
        let busy: Vec<f64> = eng.link_busy.iter().copied().filter(|&t| t > 0.0).collect();
        assert_eq!(busy.len(), 4, "cross-switch route touches 4 links");
        // Every busy link also carried the payload bytes, and vice versa.
        for (l, &t) in eng.link_busy.iter().enumerate() {
            assert_eq!(t > 0.0, eng.link_bytes[l] == 1_000_000);
        }
    }

    #[test]
    fn retries_are_charged_per_link() {
        let topo = Topology::pcie_tree(1, 1, 16.0 * GB);
        let plan = FaultPlan::new(5).with_fail_prob(1.0);
        let policy = RetryPolicy {
            max_retries: 2,
            ..Default::default()
        };
        let mut eng = TransferEngine::with_faults(&topo, plan, policy);
        let mut c = TrafficCounters::new();
        eng.one_sided_read(Node::Host, Node::Gpu(0), 16_000_000, &mut c);
        // Three wasted attempts, each charging every link on the route once.
        let per_link: Vec<u64> = eng
            .link_retries
            .iter()
            .copied()
            .filter(|&r| r > 0)
            .collect();
        assert!(!per_link.is_empty());
        assert!(per_link.iter().all(|&r| r == 3), "{per_link:?}");
    }

    #[test]
    fn inert_fault_plan_matches_fault_free_engine_exactly() {
        let topo = Topology::pcie_tree(1, 1, 16.0 * GB);
        let mut plain = TransferEngine::new(&topo);
        let mut faulty =
            TransferEngine::with_faults(&topo, FaultPlan::new(0), RetryPolicy::default());
        let mut c1 = TrafficCounters::new();
        let mut c2 = TrafficCounters::new();
        let t1 = plain.one_sided_read(Node::Host, Node::Gpu(0), 5_000_000, &mut c1);
        let t2 = faulty.one_sided_read(Node::Host, Node::Gpu(0), 5_000_000, &mut c2);
        assert_eq!(t1, t2);
        assert_eq!(c2.retries, 0);
        assert_eq!(c2.retry_seconds, 0.0);
        assert_eq!(plain.link_busy, faulty.link_busy);
    }

    #[test]
    fn failures_charge_retries_and_backoff() {
        let topo = Topology::pcie_tree(1, 1, 16.0 * GB);
        // Fail every attempt: all transfers exhaust the budget and fall back.
        let plan = FaultPlan::new(5).with_fail_prob(1.0);
        let policy = RetryPolicy {
            max_retries: 2,
            ..Default::default()
        };
        let mut eng = TransferEngine::with_faults(&topo, plan, policy);
        let mut c = TrafficCounters::new();
        let t = eng.one_sided_read(Node::Host, Node::Gpu(0), 16_000_000, &mut c);
        assert!(
            (t - FALLBACK_PENALTY * 1e-3).abs() < 1e-9,
            "fallback cost, t={t}"
        );
        assert_eq!(c.retries, 3, "three wasted attempts");
        assert_eq!(c.failed_transfers, 1);
        assert_eq!(c.host_to_gpu_bytes, 16_000_000, "bytes still delivered");
        assert!(c.retry_seconds > 0.0);
        // Wasted attempts: 3 x 1ms plus two backoffs of >= 1ms and >= 2ms.
        assert!(
            c.retry_seconds >= 3e-3 + 3e-3,
            "retry_seconds {}",
            c.retry_seconds
        );
    }

    #[test]
    fn partial_failures_eventually_deliver_without_fallback() {
        let topo = Topology::pcie_tree(1, 1, 16.0 * GB);
        let plan = FaultPlan::new(11).with_fail_prob(0.5);
        let mut eng = TransferEngine::with_faults(&topo, plan, RetryPolicy::default());
        let mut c = TrafficCounters::new();
        for _ in 0..200 {
            eng.one_sided_read(Node::Host, Node::Gpu(0), 1_000_000, &mut c);
        }
        assert!(c.retries > 50, "should see many retries: {}", c.retries);
        assert!(
            c.failed_transfers < 20,
            "most transfers land within 4 attempts: {}",
            c.failed_transfers
        );
        assert_eq!(c.num_transfers, 200);
    }

    #[test]
    fn stalls_charge_retry_seconds_but_deliver() {
        let topo = Topology::pcie_tree(1, 1, 16.0 * GB);
        let plan = FaultPlan::new(0).with_stalls(1.0, 0.01);
        let mut eng = TransferEngine::with_faults(&topo, plan, RetryPolicy::default());
        let mut c = TrafficCounters::new();
        let t = eng.one_sided_read(Node::Host, Node::Gpu(0), 16_000_000, &mut c);
        assert!((t - 1e-3).abs() < 1e-9, "delivered at nominal speed");
        assert!((c.retry_seconds - 0.01).abs() < 1e-12, "stall accounted");
        assert_eq!(c.retries, 0);
    }

    #[test]
    fn stall_past_timeout_counts_as_failed_attempt() {
        let topo = Topology::pcie_tree(1, 1, 16.0 * GB);
        let plan = FaultPlan::new(0).with_stalls(1.0, 10.0);
        let policy = RetryPolicy {
            max_retries: 1,
            timeout: 0.5,
        };
        let mut eng = TransferEngine::with_faults(&topo, plan, policy);
        let mut c = TrafficCounters::new();
        eng.one_sided_read(Node::Host, Node::Gpu(0), 16_000_000, &mut c);
        assert_eq!(c.retries, 2, "both stalled attempts timed out");
        assert_eq!(c.failed_transfers, 1);
    }

    #[test]
    fn breaker_opens_after_consecutive_fallbacks_and_fast_fails() {
        use crate::fault::{BreakerPolicy, BreakerState};
        let topo = Topology::pcie_tree(1, 1, 16.0 * GB);
        // Every attempt fails: each transfer exhausts its budget.
        let plan = FaultPlan::new(5).with_fail_prob(1.0);
        let policy = RetryPolicy {
            max_retries: 1,
            ..Default::default()
        };
        let mut eng = TransferEngine::with_faults(&topo, plan, policy);
        eng.set_breaker(Some(CircuitBreaker::new(BreakerPolicy {
            failure_threshold: 3,
            cooldown: 4,
        })));
        let mut c = TrafficCounters::new();
        for _ in 0..3 {
            eng.one_sided_read(Node::Host, Node::Gpu(0), 16_000_000, &mut c);
        }
        assert!(eng.breaker_open(), "three fallbacks trip the breaker");
        let retries_before = c.retries;
        let retry_secs_before = c.retry_seconds;
        let t = eng.one_sided_read(Node::Host, Node::Gpu(0), 16_000_000, &mut c);
        // Fast fail: fallback cost, but no retries or backoff burned.
        assert!((t - FALLBACK_PENALTY * 1e-3).abs() < 1e-9, "t={t}");
        assert_eq!(c.retries, retries_before);
        assert_eq!(c.retry_seconds, retry_secs_before);
        assert_eq!(c.failed_transfers, 4);
        let b = eng.take_breaker().unwrap();
        assert_eq!(b.trips, 1);
        assert_eq!(b.fast_fails, 1);
        assert_eq!(b.state(), BreakerState::Open);
    }

    #[test]
    fn breaker_half_open_probe_closes_on_recovery() {
        use crate::fault::{BreakerPolicy, BreakerState};
        let topo = Topology::pcie_tree(1, 1, 16.0 * GB);
        // Deterministic alternation by swapping plans: the first fails
        // everything, the second is clean.
        let plan = FaultPlan::new(5).with_fail_prob(1.0);
        let policy = RetryPolicy {
            max_retries: 0,
            ..Default::default()
        };
        let mut eng = TransferEngine::with_faults(&topo, plan, policy);
        eng.set_breaker(Some(CircuitBreaker::new(BreakerPolicy {
            failure_threshold: 1,
            cooldown: 1,
        })));
        let mut c = TrafficCounters::new();
        eng.one_sided_read(Node::Host, Node::Gpu(0), 16_000_000, &mut c);
        assert!(eng.breaker_open());
        // One fast-fail exhausts the cooldown -> half-open.
        eng.one_sided_read(Node::Host, Node::Gpu(0), 16_000_000, &mut c);
        assert!(!eng.breaker_open());
        // Link recovers: swap in a stall-free plan that still counts as
        // active so the breaker stays engaged.
        let _ = eng.take_fault_plan();
        let recovered = FaultPlan::new(6).with_stalls(1.0, 0.0);
        let mut eng2 = TransferEngine::with_faults(&topo, recovered, policy);
        eng2.set_breaker(eng.take_breaker());
        let t = eng2.one_sided_read(Node::Host, Node::Gpu(0), 16_000_000, &mut c);
        assert!((t - 1e-3).abs() < 1e-9, "probe delivered at nominal, t={t}");
        let b = eng2.take_breaker().unwrap();
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn breaker_half_open_probe_failure_re_trips() {
        use crate::fault::{BreakerPolicy, BreakerState};
        let topo = Topology::pcie_tree(1, 1, 16.0 * GB);
        let plan = FaultPlan::new(5).with_fail_prob(1.0);
        let policy = RetryPolicy {
            max_retries: 0,
            ..Default::default()
        };
        let mut eng = TransferEngine::with_faults(&topo, plan, policy);
        eng.set_breaker(Some(CircuitBreaker::new(BreakerPolicy {
            failure_threshold: 1,
            cooldown: 1,
        })));
        let mut c = TrafficCounters::new();
        eng.one_sided_read(Node::Host, Node::Gpu(0), 16_000_000, &mut c);
        assert!(eng.breaker_open(), "first failure trips the breaker");
        // One fast-fail exhausts the cooldown -> half-open.
        eng.one_sided_read(Node::Host, Node::Gpu(0), 16_000_000, &mut c);
        assert!(!eng.breaker_open(), "cooldown elapsed: probing");
        // The link is still down: the half-open probe fails and the
        // breaker re-trips immediately — no second grace period.
        eng.one_sided_read(Node::Host, Node::Gpu(0), 16_000_000, &mut c);
        assert!(eng.breaker_open(), "failed probe re-opens the breaker");
        let b = eng.take_breaker().unwrap();
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips, 2, "initial trip plus the probe-failure re-trip");
    }

    #[test]
    fn engine_without_breaker_is_unchanged_by_breaker_api() {
        let topo = Topology::pcie_tree(1, 1, 16.0 * GB);
        let mut eng = TransferEngine::new(&topo);
        assert!(!eng.breaker_open());
        assert!(eng.take_breaker().is_none());
        let mut c = TrafficCounters::new();
        let t = eng.one_sided_read(Node::Host, Node::Gpu(0), 16_000_000, &mut c);
        assert!((t - 1e-3).abs() < 1e-9);
    }

    #[test]
    fn fault_sequence_is_deterministic_across_engines() {
        let topo = Topology::pcie_tree(2, 2, 16.0 * GB);
        let run = || {
            let plan = FaultPlan::new(42)
                .with_fail_prob(0.3)
                .with_stalls(0.1, 0.002);
            let mut eng = TransferEngine::with_faults(&topo, plan, RetryPolicy::default());
            let mut c = TrafficCounters::new();
            for i in 0..100u64 {
                eng.one_sided_read(Node::Host, Node::Gpu((i % 2) as usize), 1_000_000, &mut c);
                eng.two_sided_read(Node::Host, Node::Gpu(0), 500_000, 100, &mut c);
            }
            (
                c.retries,
                c.failed_transfers,
                c.retry_seconds,
                c.transfer_seconds,
            )
        };
        assert_eq!(run(), run());
    }
}
