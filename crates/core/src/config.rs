//! Configuration of the FreshGNN trainer.

/// How the loader moves feature bytes (§6).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoadMode {
    /// One-sided UVA reads from mapped storage memory (FreshGNN,
    /// PyTorch-Direct).
    OneSided,
    /// Classic two-sided index-ship + gather (DGL, PyG).
    TwoSided,
}

/// FreshGNN hyper-parameters (paper defaults from §7.1).
#[derive(Clone, Debug)]
pub struct FreshGnnConfig {
    /// Fraction of mini-batch nodes (smallest gradient norms first)
    /// admitted to / kept in the cache each iteration. `0.0` disables the
    /// historical cache entirely (plain neighbor sampling). Paper default
    /// 0.9.
    pub p_grad: f32,
    /// Maximum staleness in iterations before a cached embedding is
    /// evicted. `0` disables the cache. Paper default 200.
    pub t_stale: u32,
    /// Neighbor-sampling fanouts in input→output order (paper: 20, 15, 10).
    pub fanouts: Vec<usize>,
    /// Seed nodes per mini-batch (paper: 1000).
    pub batch_size: usize,
    /// Ring-buffer rows per cached layer. `0` = auto-size from the first
    /// mini-batch (`admitted-per-iter × t_stale`, the paper's
    /// "initialize fixed and reallocate on demand").
    pub cache_capacity: usize,
    /// Rows of the static raw-feature cache (highest-degree nodes) used to
    /// backfill the embedding table (§4.2). `0` disables.
    pub feature_cache_rows: usize,
    /// Transfer mode for feature loading.
    pub load_mode: LoadMode,
    /// Cache policy — [`crate::cache::PolicyKind::Gradient`] is the
    /// paper's admission criterion; the others cover the ablation study
    /// (`exp_ablation_policy`) and the staleness-control literature swept
    /// by `exp_ext_policy_frontier` (DESIGN.md §11). Each step reads it
    /// here; only its history switch is fixed at construction.
    pub policy: crate::cache::PolicyKind,
}

impl Default for FreshGnnConfig {
    fn default() -> Self {
        FreshGnnConfig {
            p_grad: 0.9,
            t_stale: 200,
            fanouts: vec![20, 15, 10],
            batch_size: 1000,
            cache_capacity: 0,
            feature_cache_rows: 0,
            load_mode: LoadMode::OneSided,
            policy: crate::cache::PolicyKind::Gradient,
        }
    }
}

impl FreshGnnConfig {
    /// Whether the historical cache is active (`p_grad > 0 && t_stale > 0`
    /// — either at zero degenerates to plain neighbor sampling, §4.1).
    pub fn cache_enabled(&self) -> bool {
        self.p_grad > 0.0 && self.t_stale > 0
    }

    /// Number of GNN layers implied by the fanouts.
    pub(crate) fn num_layers(&self) -> usize {
        self.fanouts.len()
    }

    /// The configured policy, borrowed: the `perf/` prune probe passes it
    /// on to [`crate::prune::prune_with_cache_policy`] as `&*policy`.
    pub fn build_policy(&self) -> &crate::cache::PolicyKind {
        &self.policy
    }

    /// A configuration equivalent to vanilla neighbor sampling (the
    /// paper's target baseline).
    pub fn neighbor_sampling(fanouts: Vec<usize>, batch_size: usize) -> Self {
        FreshGnnConfig {
            p_grad: 0.0,
            t_stale: 0,
            fanouts,
            batch_size,
            ..Default::default()
        }
    }

    /// Validate invariants; called by the trainer.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.p_grad) {
            return Err(format!("p_grad {} outside [0, 1]", self.p_grad));
        }
        if self.fanouts.is_empty() {
            return Err("fanouts must be non-empty".into());
        }
        if self.batch_size == 0 {
            return Err("batch_size must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = FreshGnnConfig::default();
        assert_eq!(c.p_grad, 0.9);
        assert_eq!(c.t_stale, 200);
        assert_eq!(c.fanouts, vec![20, 15, 10]);
        assert_eq!(c.batch_size, 1000);
        assert!(c.cache_enabled());
        assert_eq!(c.num_layers(), 3);
    }

    #[test]
    fn zero_thresholds_disable_cache() {
        let c = FreshGnnConfig {
            p_grad: 0.0,
            ..Default::default()
        };
        assert!(!c.cache_enabled());
        let c = FreshGnnConfig {
            t_stale: 0,
            ..Default::default()
        };
        assert!(!c.cache_enabled());
    }

    #[test]
    fn neighbor_sampling_config_is_cache_free() {
        let c = FreshGnnConfig::neighbor_sampling(vec![5, 5], 32);
        assert!(!c.cache_enabled());
        assert_eq!(c.num_layers(), 2);
        c.validate().unwrap();
    }

    #[test]
    fn validation_catches_bad_values() {
        let c = FreshGnnConfig {
            p_grad: 1.5,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = FreshGnnConfig {
            fanouts: vec![],
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = FreshGnnConfig {
            batch_size: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
    }
}
