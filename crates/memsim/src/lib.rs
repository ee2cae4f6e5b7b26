#![warn(missing_docs)]
//! # fgnn-memsim
//!
//! Device and interconnect simulator for the FreshGNN reproduction.
//!
//! The paper's headline numbers (Figs 10, 11, 15) are about **memory
//! traffic**: how many feature bytes cross PCIe/NVLink per epoch, and how
//! well all-to-all exchanges use asymmetric interconnects. This crate
//! models exactly that, deterministically:
//!
//! * [`topology`] — devices and links: GPUs under PCIe switches bridged by
//!   a host (Fig 9c), or NVLink all-to-all; each link has a bandwidth and
//!   the simulator tracks per-link byte counts;
//! * [`transfer`] — one-sided (UVA-style) vs two-sided reads, the latter
//!   paying index-shipping plus synchronization overheads (§6);
//! * [`alltoall`] — naive concurrent all-to-all vs the paper's multi-round
//!   schedule that serializes cross-switch pairs to avoid congestion;
//! * [`cluster`] — multi-host scale-out: NIC links with RDMA-style
//!   one-sided read costs, per-host failure domains with a validated
//!   seeded crash/restart schedule ([`ClusterFaultPlan`]), and
//!   active-message batching ([`AmBatcher`]) that amortizes per-transfer
//!   latency over many small embedding fetches;
//! * [`fault`] — deterministic seed-driven fault injection (transient
//!   failures, stalls) with a bounded
//!   retry/backoff/timeout policy, so robustness experiments reproduce
//!   exactly (see DESIGN.md "Fault model & recovery");
//! * [`counters`] — the byte/time ledger every experiment reads;
//! * [`stage`] — per-pipeline-stage attribution of that ledger
//!   ([`StageTimings`]), feeding Fig 10-style epoch-time breakdowns;
//! * [`presets`] — parameter sets matching the paper's hardware (A100 +
//!   PCIe 3.0 x16 single-GPU server; p3.16xlarge-style 8-GPU box).
//!
//! Simulated time is a *model* (bytes / bandwidth + documented overheads);
//! byte counts are *exact* (the same tensors the trainer actually moves).
//! EXPERIMENTS.md reports both.

pub mod alltoall;
pub mod cluster;
pub mod counters;
pub mod fault;
pub mod presets;
pub mod stage;
pub mod topology;
pub mod transfer;

pub use cluster::{
    AmBatcher, AmTransfer, ClusterEvent, ClusterEventKind, ClusterFaultError, ClusterFaultPlan,
    ClusterTopology, NicSpec,
};
pub use counters::TrafficCounters;
pub use fault::{
    AttemptOutcome, BreakerPolicy, BreakerState, CircuitBreaker, FaultPlan, FaultPlanError,
    FaultState, LinkHealth, RetryPolicy,
};
pub use stage::{StageKind, StageTimings};
pub use topology::{Node, Topology};
pub use transfer::TransferEngine;
