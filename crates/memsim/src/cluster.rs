//! Multi-host cluster model: NIC links, failure domains, fault schedules
//! and active-message batching.
//!
//! ROADMAP item 3 extends the single-host simulator to N hosts × M GPUs.
//! Three ideas live here:
//!
//! * [`ClusterTopology`] — hosts are **failure domains**: each owns one
//!   NIC, one intra-host GPU [`Topology`] and one shard of the graph +
//!   historical cache. A host crash takes all of them down together.
//!   Cross-host embedding fetches are RDMA-style **one-sided reads**: a
//!   fixed per-message latency plus wire time at the min of NIC and
//!   switch bandwidth ([`ClusterTopology::one_sided_read_seconds`]).
//! * [`ClusterFaultPlan`] — a validated, seed-driven schedule of host
//!   crashes / restarts and NIC degradations at simulated round numbers,
//!   the cluster-scale analogue of [`crate::FaultPlan`]. Schedules are
//!   sorted and checked (hosts in range, every crash paired with a later
//!   restart) so a typo cannot silently wedge a run.
//! * [`AmBatcher`] — active-message aggregation in the style of
//!   lamellar's `team_am_batcher`: small per-node fetches destined for
//!   the same host are coalesced so one flush pays **one** NIC latency
//!   per destination instead of one per node. The batcher tracks both
//!   the batched cost and what the naive per-message scheme would have
//!   paid, so experiments can report the amortization win.
//!
//! Everything is deterministic: the only randomness is the SplitMix64
//! stream inside [`ClusterFaultPlan::random`], seeded by the caller.

use crate::fault::{LinkHealth, SplitMix64};
use crate::presets::GB;
use crate::topology::Topology;

/// One host NIC: bandwidth in bytes/second plus a fixed per-message
/// latency charged once per one-sided read (or per batched flush).
#[derive(Clone, Copy, Debug)]
pub struct NicSpec {
    /// Wire bandwidth, bytes/second.
    pub bandwidth: f64,
    /// Per-message latency, seconds (RDMA read issue + completion).
    pub latency: f64,
}

impl NicSpec {
    /// 200 Gb/s ConnectX-6-class RDMA NIC, ~2 µs one-sided read latency.
    pub(crate) fn connectx6() -> Self {
        NicSpec {
            bandwidth: 25.0 * GB,
            latency: 2e-6,
        }
    }
}

/// N hosts × M GPUs. All hosts share one NIC spec and one intra-host GPU
/// topology shape; the inter-host switch has its own bandwidth cap.
#[derive(Clone, Debug)]
pub struct ClusterTopology {
    /// Number of hosts (failure domains).
    pub num_hosts: usize,
    /// GPUs per host.
    pub gpus_per_host: usize,
    /// Host NIC model.
    pub nic: NicSpec,
    /// Inter-host switch bandwidth, bytes/second (caps NIC throughput).
    pub switch_bandwidth: f64,
    /// Intra-host GPU interconnect (identical shape on every host).
    pub host: Topology,
}

impl ClusterTopology {
    /// Build a cluster of `num_hosts` failure domains with `gpus_per_host`
    /// GPUs each behind PCIe, linked by `nic` through a switch.
    pub(crate) fn new(
        num_hosts: usize,
        gpus_per_host: usize,
        nic: NicSpec,
        switch_bandwidth: f64,
    ) -> Self {
        assert!(num_hosts >= 1, "need at least one host");
        assert!(gpus_per_host >= 1, "need at least one GPU per host");
        ClusterTopology {
            num_hosts,
            gpus_per_host,
            nic,
            switch_bandwidth,
            host: Topology::pcie_tree(gpus_per_host, gpus_per_host.min(2), 16.0 * GB),
        }
    }

    /// Preset: A100-class hosts on ConnectX-6 NICs behind a 2× switch.
    pub fn a100_cluster(num_hosts: usize, gpus_per_host: usize) -> Self {
        let nic = NicSpec::connectx6();
        Self::new(num_hosts, gpus_per_host, nic, 2.0 * nic.bandwidth)
    }

    /// Effective cross-host bandwidth: the NIC capped by the switch.
    pub(crate) fn effective_bandwidth(&self) -> f64 {
        self.nic.bandwidth.min(self.switch_bandwidth)
    }

    /// Simulated seconds for one one-sided read of `bytes` over a NIC in
    /// the given health state: one message latency plus wire time, scaled
    /// by the degradation factor. `None` when the NIC is down (the read
    /// fails and the initiator must retry or fall back).
    pub fn one_sided_read_seconds(&self, bytes: u64, health: LinkHealth) -> Option<f64> {
        let nominal = self.nic.latency + bytes as f64 / self.effective_bandwidth();
        match health {
            LinkHealth::Up => Some(nominal),
            LinkHealth::Degraded(f) => Some(nominal * f),
            LinkHealth::Down => None,
        }
    }

    /// Simulated seconds for `messages` *unbatched* one-sided reads
    /// totalling `bytes`: every message pays the NIC latency. This is the
    /// cost [`AmBatcher`] exists to avoid; experiments report the delta.
    pub fn naive_read_seconds(&self, bytes: u64, messages: u64, health: LinkHealth) -> Option<f64> {
        let nominal =
            messages as f64 * self.nic.latency + bytes as f64 / self.effective_bandwidth();
        match health {
            LinkHealth::Up => Some(nominal),
            LinkHealth::Degraded(f) => Some(nominal * f),
            LinkHealth::Down => None,
        }
    }
}

/// What happens to a host at a scheduled round.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ClusterEventKind {
    /// The host crashes: NIC, GPUs and cache shard all go down together,
    /// and progress since its last checkpoint is lost.
    HostCrash,
    /// The host restarts, rebuilds its shard from checkpoint and rejoins.
    HostRestart,
    /// The host's NIC degrades to `1/factor` of nominal speed.
    NicDegrade(f64),
    /// The host's NIC returns to nominal speed.
    NicRestore,
}

impl ClusterEventKind {
    /// Stable ordering rank so same-round events apply deterministically
    /// (restores before degradations before restarts before crashes would
    /// be ambiguous — we fix: restart < restore < degrade < crash).
    fn rank(self) -> u8 {
        match self {
            ClusterEventKind::HostRestart => 0,
            ClusterEventKind::NicRestore => 1,
            ClusterEventKind::NicDegrade(_) => 2,
            ClusterEventKind::HostCrash => 3,
        }
    }
}

/// One scheduled fault event.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ClusterEvent {
    /// Global training round (BSP step) at which the event fires, before
    /// the round's work.
    pub round: u64,
    /// Target host.
    pub host: usize,
    /// What happens.
    pub kind: ClusterEventKind,
}

/// A rejected [`ClusterFaultPlan`] — bad input or an inconsistent
/// schedule.
#[derive(Clone, Debug, PartialEq)]
pub enum ClusterFaultError {
    /// Event targets a host outside `0..num_hosts`.
    BadHost {
        /// The rejected host index.
        host: usize,
        /// Cluster size the plan was validated against.
        num_hosts: usize,
    },
    /// NIC degradation factor is not a finite slowdown `>= 1`.
    BadFactor(f64),
    /// A crash with no later restart: the run could never complete.
    UnmatchedCrash {
        /// The crashed host.
        host: usize,
        /// The round it crashed at.
        round: u64,
    },
    /// A crash (or restart) while the host is already down (or up).
    InconsistentState {
        /// The offending host.
        host: usize,
        /// The round of the offending event.
        round: u64,
        /// Human-readable description of the inconsistency.
        what: &'static str,
    },
}

impl std::fmt::Display for ClusterFaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterFaultError::BadHost { host, num_hosts } => {
                write!(f, "event targets host {host}, cluster has {num_hosts}")
            }
            ClusterFaultError::BadFactor(x) => write!(
                f,
                "NIC degradation factor {x} must be a finite slowdown >= 1"
            ),
            ClusterFaultError::UnmatchedCrash { host, round } => write!(
                f,
                "host {host} crashes at round {round} with no later restart — \
                 the epoch could never complete"
            ),
            ClusterFaultError::InconsistentState { host, round, what } => {
                write!(f, "host {host} at round {round}: {what}")
            }
        }
    }
}

impl std::error::Error for ClusterFaultError {}

/// A deterministic schedule of cluster-scale faults. Build with the
/// `with_*` methods or [`ClusterFaultPlan::random`], then validate
/// against the cluster size before running.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ClusterFaultPlan {
    events: Vec<ClusterEvent>,
}

impl ClusterFaultPlan {
    /// A plan with no faults.
    pub fn none() -> Self {
        ClusterFaultPlan { events: Vec::new() }
    }

    /// Crash `host` at `round` (its restart must be scheduled too).
    pub fn with_crash(mut self, round: u64, host: usize) -> Self {
        self.push(ClusterEvent {
            round,
            host,
            kind: ClusterEventKind::HostCrash,
        });
        self
    }

    /// Restart `host` at `round`: rebuild from checkpoint and rejoin.
    pub fn with_restart(mut self, round: u64, host: usize) -> Self {
        self.push(ClusterEvent {
            round,
            host,
            kind: ClusterEventKind::HostRestart,
        });
        self
    }

    /// Degrade `host`'s NIC to `1/factor` speed starting at `round`.
    ///
    /// Panics on a non-finite or `< 1` factor; use
    /// [`ClusterFaultPlan::try_with_nic_degradation`] to handle the error.
    pub fn with_nic_degradation(self, round: u64, host: usize, factor: f64) -> Self {
        self.try_with_nic_degradation(round, host, factor)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`ClusterFaultPlan::with_nic_degradation`].
    pub fn try_with_nic_degradation(
        mut self,
        round: u64,
        host: usize,
        factor: f64,
    ) -> Result<Self, ClusterFaultError> {
        if !factor.is_finite() || factor < 1.0 {
            return Err(ClusterFaultError::BadFactor(factor));
        }
        self.push(ClusterEvent {
            round,
            host,
            kind: ClusterEventKind::NicDegrade(factor),
        });
        Ok(self)
    }

    /// Restore `host`'s NIC to nominal speed at `round`.
    pub fn with_nic_restore(mut self, round: u64, host: usize) -> Self {
        self.push(ClusterEvent {
            round,
            host,
            kind: ClusterEventKind::NicRestore,
        });
        self
    }

    fn push(&mut self, ev: ClusterEvent) {
        self.events.push(ev);
        self.events
            .sort_by_key(|e| (e.round, e.host, e.kind.rank()));
    }

    /// The schedule, sorted by `(round, host, kind)`.
    pub fn events(&self) -> &[ClusterEvent] {
        &self.events
    }

    /// Check the schedule against a cluster of `num_hosts`: hosts in
    /// range, no crash of an already-down host (or restart of an up one),
    /// and **every crash paired with a later restart** — an unmatched
    /// crash would leave a shard incomplete forever.
    pub fn validate(&self, num_hosts: usize) -> Result<(), ClusterFaultError> {
        let mut down = vec![false; num_hosts];
        let mut last_crash: Vec<Option<u64>> = vec![None; num_hosts];
        for ev in &self.events {
            if ev.host >= num_hosts {
                return Err(ClusterFaultError::BadHost {
                    host: ev.host,
                    num_hosts,
                });
            }
            match ev.kind {
                ClusterEventKind::HostCrash => {
                    if down[ev.host] {
                        return Err(ClusterFaultError::InconsistentState {
                            host: ev.host,
                            round: ev.round,
                            what: "crash while already down",
                        });
                    }
                    down[ev.host] = true;
                    last_crash[ev.host] = Some(ev.round);
                }
                ClusterEventKind::HostRestart => {
                    if !down[ev.host] {
                        return Err(ClusterFaultError::InconsistentState {
                            host: ev.host,
                            round: ev.round,
                            what: "restart while already up",
                        });
                    }
                    down[ev.host] = false;
                    last_crash[ev.host] = None;
                }
                ClusterEventKind::NicDegrade(f) => {
                    if !f.is_finite() || f < 1.0 {
                        return Err(ClusterFaultError::BadFactor(f));
                    }
                }
                ClusterEventKind::NicRestore => {}
            }
        }
        for (host, crash) in last_crash.into_iter().enumerate() {
            if let Some(round) = crash {
                return Err(ClusterFaultError::UnmatchedCrash { host, round });
            }
        }
        Ok(())
    }

    /// Generate a seeded random (but always valid) schedule over
    /// `horizon` rounds: with probability ~1/2 per host a crash/restart
    /// window, with probability ~1/3 a NIC degradation window. Same
    /// `(seed, num_hosts, horizon)` → byte-identical plan.
    pub fn random(seed: u64, num_hosts: usize, horizon: u64) -> Self {
        assert!(horizon >= 4, "horizon too short for a crash+restart pair");
        let mut rng = SplitMix64::new(seed ^ 0xC1A5_7E12);
        let mut plan = ClusterFaultPlan::none();
        for host in 0..num_hosts {
            if rng.uniform() < 0.5 {
                let crash = 1 + rng.next_u64() % (horizon / 2);
                let outage = 1 + rng.next_u64() % (horizon / 4).max(1);
                let restart = (crash + outage).min(horizon - 1).max(crash + 1);
                plan = plan.with_crash(crash, host).with_restart(restart, host);
            }
            if rng.uniform() < 0.34 {
                let start = rng.next_u64() % horizon;
                let factor = 1.5 + 6.5 * rng.uniform();
                plan = plan.with_nic_degradation(start, host, factor);
                let end = start + 1 + rng.next_u64() % 4;
                if end < horizon {
                    plan = plan.with_nic_restore(end, host);
                }
            }
        }
        debug_assert!(plan.validate(num_hosts).is_ok());
        plan
    }
}

/// One aggregated active-message transfer produced by a flush.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AmTransfer {
    /// Destination host.
    pub dst: usize,
    /// Total payload bytes aggregated for this destination.
    pub bytes: u64,
    /// Individual fetch messages coalesced into the transfer.
    pub messages: u64,
}

/// Per-destination active-message aggregation (`team_am_batcher` idiom):
/// enqueue many small fetches, then flush once per destination, paying a
/// single NIC latency per destination instead of one per fetch.
#[derive(Clone, Debug)]
pub struct AmBatcher {
    pending: Vec<(u64, u64)>, // (bytes, messages) per destination host
    /// Total individual messages enqueued over the batcher's lifetime.
    pub total_messages: u64,
    /// Total aggregated transfers emitted by flushes.
    pub total_flushes: u64,
}

impl AmBatcher {
    /// A batcher for a cluster of `num_hosts`.
    pub fn new(num_hosts: usize) -> Self {
        AmBatcher {
            pending: vec![(0, 0); num_hosts],
            total_messages: 0,
            total_flushes: 0,
        }
    }

    /// Queue one fetch of `bytes` for `dst`.
    pub fn enqueue(&mut self, dst: usize, bytes: u64) {
        let slot = &mut self.pending[dst];
        slot.0 += bytes;
        slot.1 += 1;
        self.total_messages += 1;
    }

    /// Drain the queue: one [`AmTransfer`] per destination with pending
    /// traffic, in ascending destination order (deterministic).
    pub fn flush(&mut self) -> Vec<AmTransfer> {
        let mut out = Vec::new();
        for (dst, slot) in self.pending.iter_mut().enumerate() {
            if slot.1 > 0 {
                out.push(AmTransfer {
                    dst,
                    bytes: slot.0,
                    messages: slot.1,
                });
                self.total_flushes += 1;
                *slot = (0, 0);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_sided_read_costs_latency_plus_wire_time() {
        let topo = ClusterTopology::a100_cluster(2, 2);
        let bw = topo.effective_bandwidth();
        let t = topo
            .one_sided_read_seconds(1_000_000, LinkHealth::Up)
            .unwrap();
        assert!((t - (topo.nic.latency + 1e6 / bw)).abs() < 1e-12);
        let d = topo
            .one_sided_read_seconds(1_000_000, LinkHealth::Degraded(3.0))
            .unwrap();
        assert!((d - 3.0 * t).abs() < 1e-12);
        assert!(topo.one_sided_read_seconds(1, LinkHealth::Down).is_none());
    }

    #[test]
    fn batching_beats_naive_per_message_latency() {
        let topo = ClusterTopology::a100_cluster(2, 2);
        let mut b = AmBatcher::new(2);
        for _ in 0..1000 {
            b.enqueue(1, 128);
        }
        let flushed = b.flush();
        assert_eq!(flushed.len(), 1);
        let agg = flushed[0];
        assert_eq!((agg.dst, agg.bytes, agg.messages), (1, 128_000, 1000));
        let batched = topo
            .one_sided_read_seconds(agg.bytes, LinkHealth::Up)
            .unwrap();
        let naive = topo
            .naive_read_seconds(agg.bytes, agg.messages, LinkHealth::Up)
            .unwrap();
        assert!(
            naive > batched + 999.0 * topo.nic.latency - 1e-12,
            "naive {naive} vs batched {batched}"
        );
        // Flush drained everything.
        assert!(b.flush().is_empty());
        assert_eq!(b.total_messages, 1000);
        assert_eq!(b.total_flushes, 1);
    }

    #[test]
    fn fault_plan_validation_catches_schedule_bugs() {
        // Crash with no restart.
        let plan = ClusterFaultPlan::none().with_crash(2, 1);
        assert_eq!(
            plan.validate(2),
            Err(ClusterFaultError::UnmatchedCrash { host: 1, round: 2 })
        );
        // Host out of range.
        let plan = ClusterFaultPlan::none().with_crash(2, 5).with_restart(3, 5);
        assert!(matches!(
            plan.validate(2),
            Err(ClusterFaultError::BadHost { host: 5, .. })
        ));
        // Restart of a host that never crashed.
        let plan = ClusterFaultPlan::none().with_restart(3, 0);
        assert!(matches!(
            plan.validate(2),
            Err(ClusterFaultError::InconsistentState { .. })
        ));
        // Double crash while down.
        let plan = ClusterFaultPlan::none()
            .with_crash(1, 0)
            .with_crash(2, 0)
            .with_restart(3, 0);
        assert!(matches!(
            plan.validate(1),
            Err(ClusterFaultError::InconsistentState { .. })
        ));
        // Bad degradation factor via the fallible builder.
        assert_eq!(
            ClusterFaultPlan::none()
                .try_with_nic_degradation(0, 0, 0.5)
                .unwrap_err(),
            ClusterFaultError::BadFactor(0.5)
        );
        // A well-formed plan passes.
        let plan = ClusterFaultPlan::none()
            .with_crash(2, 1)
            .with_restart(5, 1)
            .with_nic_degradation(1, 0, 4.0)
            .with_nic_restore(3, 0);
        assert!(plan.validate(2).is_ok());
    }

    #[test]
    fn events_sorted_and_same_round_order_is_deterministic() {
        let plan = ClusterFaultPlan::none()
            .with_crash(4, 0)
            .with_nic_restore(4, 0)
            .with_nic_restore(2, 0)
            .with_crash(1, 1);
        let rounds: Vec<u64> = plan.events().iter().map(|e| e.round).collect();
        assert_eq!(rounds, vec![1, 2, 4, 4]);
        // Same round, same host: NIC restore (rank 1) before crash (rank 3).
        assert_eq!(plan.events()[2].kind, ClusterEventKind::NicRestore);
        assert_eq!(plan.events()[3].kind, ClusterEventKind::HostCrash);
    }

    #[test]
    fn random_plans_are_seed_deterministic_and_valid() {
        for seed in 0..32u64 {
            let a = ClusterFaultPlan::random(seed, 4, 16);
            let b = ClusterFaultPlan::random(seed, 4, 16);
            assert_eq!(a, b, "seed {seed} not reproducible");
            a.validate(4).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
        // Different seeds eventually differ.
        assert!((0..32u64)
            .any(|s| ClusterFaultPlan::random(s, 4, 16) != ClusterFaultPlan::random(s + 1, 4, 16)));
    }
}
