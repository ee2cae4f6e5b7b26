//! Multi-host partitioned training with failure domains (DESIGN.md §14).
//!
//! A cluster is `num_hosts` hosts × `gpus_per_host` GPUs joined by
//! RDMA-style NICs ([`fgnn_memsim::cluster::ClusterTopology`]). Each host
//! owns one LDG graph shard ([`fgnn_graph::partition::partition_ldg`] +
//! [`fgnn_graph::partition::induced_subgraph`]) and runs its own [`crate::Trainer`]
//! — model replica, optimizer, historical-embedding cache shard — over
//! that shard. Hosts advance in deterministic lock-step *rounds* (one
//! mini-batch per round); remote halo reads are batched into one active
//! message per destination per round, the `team_am_batcher` idiom.
//!
//! The host is the **failure domain**: a crash takes down its NIC, its
//! GPUs and its cache shard together. A seeded
//! [`fgnn_memsim::ClusterFaultPlan`] schedules crashes, restarts and NIC
//! degradations at absolute rounds; a deterministic heartbeat
//! [`FailureDetector`] turns ground truth into the membership *view* that
//! routing actually uses, so both the crashed-but-undetected window
//! (bounded retries, then fallback) and the declared-dead window
//! (degraded peer serving under the `t_stale` budget) are modelled.
//! Each host trains its round's batch through its trainer's guarded epoch
//! loop, so a NaN armed with [`crate::Trainer::inject_nan_at`] or a loss
//! spike takes the driver's one rollback arm. Recovery — from a crash or a
//! guard trip — restores the host's epoch-start baseline through the
//! driver, evicting cache entries newer than the recovery point, and
//! replays, so the committed training quantities of any crash/restart
//! schedule match the fault-free run bit for bit while the
//! NIC/retry/recovery ledger records what the faults cost.

mod membership;
mod trainer;

pub use membership::{FailureDetector, HostStatus, MembershipTransition, MembershipView};
pub use trainer::{ClusterReport, ClusterTrainer, StalenessLedger};

use crate::config::FreshGnnConfig;
use fgnn_nn::model::Arch;

/// Configuration for a partitioned multi-host training run.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of hosts (= graph shards = failure domains).
    pub num_hosts: usize,
    /// GPUs per host (shapes the intra-host PCIe topology).
    pub gpus_per_host: usize,
    /// Heartbeat cadence in rounds.
    pub heartbeat_every: u64,
    /// Missed beats before a silent host turns Suspect in the view.
    pub suspect_after: u64,
    /// Missed beats before a silent host is declared Dead.
    pub dead_after: u64,
    /// Seed for the LDG partitioner (independent of the training seed so
    /// the sharding is stable across trainer-seed sweeps).
    pub partition_seed: u64,
    /// Model architecture for every host's replica.
    pub arch: Arch,
    /// Hidden width for every host's replica.
    pub hidden: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Numeric-rollback budget per host (see `SupervisorConfig`).
    pub max_rollbacks: u32,
    /// Per-host FreshGNN training hyper-parameters.
    pub train: FreshGnnConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            num_hosts: 2,
            gpus_per_host: 1,
            heartbeat_every: 1,
            suspect_after: 1,
            dead_after: 2,
            partition_seed: 0xC0FFEE,
            arch: Arch::Sage,
            hidden: 16,
            lr: 0.003,
            max_rollbacks: 3,
            train: FreshGnnConfig::default(),
        }
    }
}

impl ClusterConfig {
    /// Check the knobs for internal consistency.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.num_hosts == 0 {
            return Err("num_hosts must be >= 1".into());
        }
        if self.gpus_per_host == 0 {
            return Err("gpus_per_host must be >= 1".into());
        }
        if self.heartbeat_every == 0 {
            return Err("heartbeat_every must be >= 1 round".into());
        }
        if self.suspect_after == 0 || self.dead_after < self.suspect_after {
            return Err(format!(
                "need 1 <= suspect_after <= dead_after, got suspect_after={} dead_after={}",
                self.suspect_after, self.dead_after
            ));
        }
        if self.hidden == 0 {
            return Err("hidden width must be >= 1".into());
        }
        if !self.lr.is_finite() || self.lr <= 0.0 {
            return Err(format!("learning rate {} must be finite and > 0", self.lr));
        }
        self.train.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_validates() {
        ClusterConfig::default().validate().unwrap();
    }

    #[test]
    fn bad_knobs_are_rejected() {
        for (cfg, needle) in [
            (
                ClusterConfig {
                    num_hosts: 0,
                    ..Default::default()
                },
                "num_hosts",
            ),
            (
                ClusterConfig {
                    gpus_per_host: 0,
                    ..Default::default()
                },
                "gpus_per_host",
            ),
            (
                ClusterConfig {
                    heartbeat_every: 0,
                    ..Default::default()
                },
                "heartbeat_every",
            ),
            (
                ClusterConfig {
                    suspect_after: 3,
                    dead_after: 2,
                    ..Default::default()
                },
                "suspect_after",
            ),
            (
                ClusterConfig {
                    lr: f32::NAN,
                    ..Default::default()
                },
                "learning rate",
            ),
        ] {
            let err = cfg.validate().unwrap_err();
            assert!(err.contains(needle), "{err:?} should mention {needle}");
        }
    }
}
