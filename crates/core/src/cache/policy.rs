//! The cache-policy family (§4.1, Fig 6, plus the staleness-control
//! successors from PAPERS.md), one [`PolicyKind`] value each.
//!
//! FreshGNN's own criterion: after backward propagation, every node
//! present at layer `l` of the mini-batch has an embedding-gradient norm
//! `‖∇_{h_v^{(l)}} L‖`. The bottom `p_grad` fraction (smallest norms —
//! most stable) are *admitted* (computed nodes) or *kept* (cache-read
//! nodes); the top `1 − p_grad` fraction are *not admitted* / *evicted*.
//!
//! Every kind is that rule over its own score plus three read-side hooks:
//!
//! * [`PolicyKind::verdicts`] — who enters/leaves the cache: one rank over
//!   the gradient norm, its negation, or a uniform draw;
//! * [`PolicyKind::read_weight`] / [`PolicyKind::wants_history`] — what
//!   a stale read-back is worth: VISAGNN-style staleness weighting scales
//!   the embedding down with age instead of trusting it outright, and the
//!   online dynamic-embedding *prediction* approach (arXiv:2308.13466)
//!   extrapolates the entry from its recorded update delta;
//! * [`PolicyKind::refresh_due`] — when a *live* cached entry should be
//!   refreshed ahead of expiry: the lookup declines the hit (without
//!   evicting) so the node is recomputed and re-admitted in place. The
//!   baseline never schedules one (entries refresh only at the `t_stale`
//!   expiry); a periodic schedule is coarser than per-iteration streaming
//!   updates ("Haste Makes Waste") but finer than expiry-only, trading
//!   admit traffic for freshness.
//!
//! Every policy is deterministic given its RNG: the only randomness is
//! the explicit `rng` argument, drawn from only by [`PolicyKind::Random`].

use fgnn_graph::NodeId;
use fgnn_tensor::Rng;

/// Weight of a read-back at the staleness bound under
/// [`PolicyKind::StalenessWeighted`]; fresher reads interpolate linearly
/// toward 1.0.
const STALENESS_FLOOR: f32 = 0.5;

/// Which admission/read/refresh policy drives the cache. The gradient
/// criterion is FreshGNN's; the rest are the ablation criteria plus the
/// staleness-control successors (see module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PolicyKind {
    /// The paper's criterion: smallest gradient norms are stable.
    Gradient,
    /// Ablation: admit a uniformly random `p` fraction.
    Random,
    /// Adversarial ablation: admit the *largest* gradient norms (the
    /// least stable embeddings) — isolates how much the criterion's
    /// direction matters.
    InverseGradient,
    /// Serving-time criterion: the score is a request count and the
    /// *hottest* fraction is admitted (stability surrogate at inference
    /// time, where no gradients exist: a hot node's embedding amortizes
    /// its recompute over many requests as a stable node's does over many
    /// iterations).
    Frequency,
    /// VISAGNN-style: gradient admission, but a read-back embedding is
    /// scaled by a weight that decays linearly from 1.0 at age 0 to 0.5
    /// at age `t_stale`, instead of being trusted outright.
    StalenessWeighted,
    /// Dynamic-embedding prediction: gradient admission, but a stale read
    /// is extrapolated from the entry's recorded update delta. A live
    /// entry refreshes in place at half the staleness bound, which
    /// records the delta and leaves the second half to extrapolate.
    Predictive,
    /// Coarse refresh schedule: gradient admission, but a live entry is
    /// recomputed and rewritten in place at a quarter of the staleness
    /// bound instead of only at `t_stale` expiry, buying freshness with
    /// extra recompute/admit traffic.
    CoarseRefresh,
}

impl PolicyKind {
    /// Every variant, in declaration order — the single source of truth
    /// for CLI sweeps and the parse/display round-trip test.
    pub const ALL: [PolicyKind; 7] = [
        PolicyKind::Gradient,
        PolicyKind::Random,
        PolicyKind::InverseGradient,
        PolicyKind::Frequency,
        PolicyKind::StalenessWeighted,
        PolicyKind::Predictive,
        PolicyKind::CoarseRefresh,
    ];

    /// Stable CLI/export name (round-trips through [`std::str::FromStr`]).
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Gradient => "gradient",
            PolicyKind::Random => "random",
            PolicyKind::InverseGradient => "inverse-gradient",
            PolicyKind::Frequency => "frequency",
            PolicyKind::StalenessWeighted => "staleness-weighted",
            PolicyKind::Predictive => "predictive",
            PolicyKind::CoarseRefresh => "coarse-refresh",
        }
    }

    /// Admission/keep verdicts for one layer's nodes, in rank order: the
    /// bottom `p` fraction of the ranked scores is stable. The score is the
    /// gradient norm, its negation for the kinds that keep the *largest*
    /// scores, or, for [`PolicyKind::Random`], one `rng.uniform()` per
    /// input in input order; no other kind draws from `rng`. Each verdict
    /// carries the caller's own input.
    ///
    /// Deterministic: ties on the score are broken by node ID. Panics on a
    /// NaN score. Each node appears at most once (training levels are a
    /// block's distinct destinations, serving a de-duplicated miss list),
    /// so no two inputs share a rank key and the unstable sort has a
    /// single answer.
    pub fn verdicts(
        self,
        inputs: &[PolicyInput],
        p: f32,
        rng: &mut Rng,
    ) -> Vec<(PolicyInput, Verdict)> {
        let mut order: Vec<(u64, u32)> = inputs
            .iter()
            .enumerate()
            .map(|(i, x)| {
                let score = match self {
                    PolicyKind::Random => rng.uniform(),
                    PolicyKind::InverseGradient | PolicyKind::Frequency => -x.grad_norm,
                    PolicyKind::Gradient
                    | PolicyKind::StalenessWeighted
                    | PolicyKind::Predictive
                    | PolicyKind::CoarseRefresh => x.grad_norm,
                };
                (rank_key(score, x.node), i as u32)
            })
            .collect();
        order.sort_unstable_by_key(|&(key, _)| key);
        debug_assert!(
            order.windows(2).all(|w| w[0].0 < w[1].0),
            "a node ranked twice with one score"
        );
        let n_stable = ((inputs.len() as f64) * p as f64).round() as usize;
        order
            .iter()
            .enumerate()
            .map(|(rank, &(_, i))| {
                let x = inputs[i as usize];
                let verdict = match (rank < n_stable, x.was_cached) {
                    (true, false) => Verdict::Admit,
                    (true, true) => Verdict::Keep,
                    (false, true) => Verdict::Evict,
                    (false, false) => Verdict::Skip,
                };
                (x, verdict)
            })
            .collect()
    }

    /// Multiplicative weight applied to a read-back embedding of the
    /// given `age` (iterations since admission) under staleness bound
    /// `t_stale`: 1.0 (trusted fully) except under
    /// [`PolicyKind::StalenessWeighted`], whose weight clamps at its floor
    /// past the bound and never divides by a zero `t_stale`.
    pub fn read_weight(self, age: u32, t_stale: u32) -> f32 {
        if self != PolicyKind::StalenessWeighted || age == 0 {
            return 1.0;
        }
        let frac = age as f32 / t_stale.max(1) as f32;
        (1.0 - (1.0 - STALENESS_FLOOR) * frac).clamp(STALENESS_FLOOR, 1.0)
    }

    /// Whether the ring should record per-entry update deltas so stale
    /// reads can be extrapolated ([`crate::cache::RingCache`] history).
    pub fn wants_history(self) -> bool {
        self == PolicyKind::Predictive
    }

    /// Whether a *live* cached entry of the given `age` (< the `t_stale`
    /// bound) is due for a scheduled refresh: from half the bound under
    /// [`PolicyKind::Predictive`], a quarter under
    /// [`PolicyKind::CoarseRefresh`] (each at least 1, so a same-iteration
    /// re-read is served), never otherwise. When due, the lookup declines
    /// the hit **without evicting**: the node is recomputed this
    /// iteration and, if still stable, re-admitted over the live entry —
    /// a refresh-in-place that also records the update delta feeding
    /// [`PolicyKind::wants_history`] extrapolation.
    pub fn refresh_due(self, age: u32, t_stale: u32) -> bool {
        match self {
            PolicyKind::Predictive => age >= (t_stale / 2).max(1),
            PolicyKind::CoarseRefresh => age >= (t_stale / 4).max(1),
            _ => false,
        }
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for PolicyKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        PolicyKind::ALL
            .iter()
            .copied()
            .find(|k| k.name() == s)
            .ok_or_else(|| {
                let names: Vec<&str> = PolicyKind::ALL.iter().map(|k| k.name()).collect();
                format!(
                    "unknown policy '{s}' (expected one of: {})",
                    names.join(", ")
                )
            })
    }
}

/// One node's policy input for a layer.
#[derive(Clone, Copy, Debug)]
pub struct PolicyInput {
    /// Global node ID.
    pub node: NodeId,
    /// Row index of this node in the layer's representation matrix.
    pub local: u32,
    /// The stability score: `‖∇_{h_v} L‖` harvested from backward in
    /// training, the observed request count in serving.
    pub grad_norm: f32,
    /// Whether this iteration *read* the node from the cache (true) or
    /// computed it fresh (false).
    pub was_cached: bool,
}

/// The policy's verdict for one node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Fresh embedding, stable: check in.
    Admit,
    /// Cached embedding, still stable: leave it cached.
    Keep,
    /// Cached embedding, now unstable: check out.
    Evict,
    /// Fresh embedding, unstable: do not admit.
    Skip,
}

impl Verdict {
    /// Stable numeric code for span attributes and metric export.
    pub(crate) fn code(self) -> u64 {
        match self {
            Verdict::Admit => 0,
            Verdict::Keep => 1,
            Verdict::Evict => 2,
            Verdict::Skip => 3,
        }
    }
}

/// `(score, node)` packed so that integer order is `partial_cmp` on the
/// score, then node ID: the score's bits made order-preserving (negatives
/// flipped, positives offset past them) in the high word, the node in the
/// low one. `-0.0` becomes `+0.0` first, because `partial_cmp` calls the
/// two equal and leaves the node to decide. Panics on NaN, which has no
/// place in the order.
fn rank_key(score: f32, node: NodeId) -> u64 {
    assert!(!score.is_nan(), "NaN gradient norm");
    let bits = if score == 0.0 { 0 } else { score.to_bits() };
    let ordered = if bits >> 31 == 1 {
        !bits
    } else {
        bits | 1 << 31
    };
    u64::from(ordered) << 32 | u64::from(node)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn input(node: NodeId, norm: f32, cached: bool) -> PolicyInput {
        PolicyInput {
            node,
            local: node,
            grad_norm: norm,
            was_cached: cached,
        }
    }

    fn ranked(kind: PolicyKind, inputs: &[PolicyInput], p: f32) -> Vec<(PolicyInput, Verdict)> {
        kind.verdicts(inputs, p, &mut Rng::new(5))
    }

    fn verdict_of(out: &[(PolicyInput, Verdict)], node: NodeId) -> Verdict {
        out.iter().find(|(x, _)| x.node == node).unwrap().1
    }

    #[test]
    fn small_gradients_admitted_large_skipped() {
        let inputs = vec![
            input(0, 0.1, false),
            input(1, 0.2, false),
            input(2, 5.0, false),
            input(3, 9.0, false),
        ];
        let out = ranked(PolicyKind::Gradient, &inputs, 0.5);
        assert_eq!(verdict_of(&out, 0), Verdict::Admit);
        assert_eq!(verdict_of(&out, 1), Verdict::Admit);
        assert_eq!(verdict_of(&out, 2), Verdict::Skip);
        assert_eq!(verdict_of(&out, 3), Verdict::Skip);
    }

    #[test]
    fn cached_nodes_kept_or_evicted() {
        // Mirrors Fig 6: cached node 3 has the larger gradient and is
        // evicted while computed node 2 is admitted.
        let inputs = vec![input(2, 0.1, false), input(3, 4.0, true)];
        let out = ranked(PolicyKind::Gradient, &inputs, 0.5);
        assert_eq!(verdict_of(&out, 2), Verdict::Admit);
        assert_eq!(verdict_of(&out, 3), Verdict::Evict);
    }

    #[test]
    fn cached_node_with_small_gradient_is_kept() {
        let inputs = vec![input(0, 0.1, true), input(1, 5.0, false)];
        let out = ranked(PolicyKind::Gradient, &inputs, 0.5);
        assert_eq!(verdict_of(&out, 0), Verdict::Keep);
        assert_eq!(verdict_of(&out, 1), Verdict::Skip);
    }

    #[test]
    fn p_grad_one_admits_everything() {
        let inputs = vec![input(0, 0.1, false), input(1, 99.0, true)];
        let out = ranked(PolicyKind::Gradient, &inputs, 1.0);
        assert_eq!(verdict_of(&out, 0), Verdict::Admit);
        assert_eq!(verdict_of(&out, 1), Verdict::Keep);
    }

    #[test]
    fn p_grad_zero_admits_nothing() {
        let inputs = vec![input(0, 0.1, false), input(1, 0.2, true)];
        let out = ranked(PolicyKind::Gradient, &inputs, 0.0);
        assert_eq!(verdict_of(&out, 0), Verdict::Skip);
        assert_eq!(verdict_of(&out, 1), Verdict::Evict);
    }

    #[test]
    fn empty_input_is_fine() {
        for kind in PolicyKind::ALL {
            assert!(ranked(kind, &[], 0.9).is_empty(), "{kind}");
        }
    }

    #[test]
    fn deterministic_tie_break_by_node_id() {
        let inputs = vec![input(5, 1.0, false), input(2, 1.0, false)];
        let out = ranked(PolicyKind::Gradient, &inputs, 0.5);
        // Exactly one admitted; the smaller node ID wins the tie.
        assert_eq!(verdict_of(&out, 2), Verdict::Admit);
        assert_eq!(verdict_of(&out, 5), Verdict::Skip);
    }

    #[test]
    fn random_policy_admits_requested_fraction() {
        let inputs: Vec<PolicyInput> = (0..100).map(|i| input(i, i as f32, false)).collect();
        let out = ranked(PolicyKind::Random, &inputs, 0.7);
        let admitted = out.iter().filter(|(_, v)| *v == Verdict::Admit).count();
        assert_eq!(admitted, 70);
    }

    #[test]
    fn only_a_ranked_nan_panics() {
        // Random ranks its own draws, so the caller's NaN never reaches a
        // rank key; a negated NaN norm is still NaN and refused.
        let inputs = vec![input(0, f32::NAN, false), input(1, 1.0, true)];
        assert_eq!(ranked(PolicyKind::Random, &inputs, 0.5).len(), 2);
        let err = std::panic::catch_unwind(|| ranked(PolicyKind::Frequency, &inputs, 0.5));
        assert_eq!(
            err.unwrap_err().downcast_ref::<&str>(),
            Some(&"NaN gradient norm")
        );
    }

    #[test]
    fn inverse_policy_admits_largest_norms() {
        let inputs = vec![input(0, 0.1, false), input(1, 9.0, false)];
        let out = ranked(PolicyKind::InverseGradient, &inputs, 0.5);
        assert_eq!(verdict_of(&out, 1), Verdict::Admit);
        assert_eq!(verdict_of(&out, 0), Verdict::Skip);
        // The reported score is the caller's, not the negated rank score.
        assert!(out.iter().all(|(x, _)| x.grad_norm >= 0.0));
    }

    #[test]
    fn frequency_policy_admits_hottest_nodes() {
        // grad_norm carries request counts: 3 hot nodes, 3 cold.
        let inputs = vec![
            input(0, 40.0, false),
            input(1, 2.0, false),
            input(2, 31.0, true),
            input(3, 1.0, true),
            input(4, 25.0, false),
            input(5, 3.0, false),
        ];
        let out = ranked(PolicyKind::Frequency, &inputs, 0.5);
        assert_eq!(verdict_of(&out, 0), Verdict::Admit);
        assert_eq!(verdict_of(&out, 2), Verdict::Keep);
        assert_eq!(verdict_of(&out, 4), Verdict::Admit);
        assert_eq!(verdict_of(&out, 1), Verdict::Skip);
        assert_eq!(verdict_of(&out, 3), Verdict::Evict);
        assert_eq!(verdict_of(&out, 5), Verdict::Skip);
        assert!(out.iter().all(|(x, _)| x.grad_norm >= 0.0));
    }

    #[test]
    fn frequency_ties_break_by_node_id() {
        let inputs = vec![input(9, 5.0, false), input(4, 5.0, false)];
        let out = ranked(PolicyKind::Frequency, &inputs, 0.5);
        assert_eq!(verdict_of(&out, 4), Verdict::Admit);
        assert_eq!(verdict_of(&out, 9), Verdict::Skip);
    }

    #[test]
    fn kind_name_round_trips_exhaustively() {
        for kind in PolicyKind::ALL {
            let parsed: PolicyKind = kind.name().parse().expect("name parses back");
            assert_eq!(parsed, kind);
            assert_eq!(format!("{kind}"), kind.name());
            // Exhaustive match: adding a PolicyKind variant without a name
            // and an ALL entry fails to compile here.
            match kind {
                PolicyKind::Gradient
                | PolicyKind::Random
                | PolicyKind::InverseGradient
                | PolicyKind::Frequency
                | PolicyKind::StalenessWeighted
                | PolicyKind::Predictive
                | PolicyKind::CoarseRefresh => {}
            }
        }
        assert!("no-such-policy".parse::<PolicyKind>().is_err());
    }

    /// The read-side hooks of every kind over `t_stale` ∈ {0, 1, 2, 8, 20,
    /// 30} × ages {0, t/4, t/2 − 1, t/2, t, 2t} (repeats dropped): the
    /// staleness weight, and the predictive and coarse-refresh schedules;
    /// every other kind reads 1.0 and never schedules, and only the
    /// predictive kind keeps history.
    #[test]
    fn read_side_hooks_match_the_table_for_every_kind() {
        // (t_stale, age, staleness weight, predictive due, coarse due)
        const TABLE: [(u32, u32, f32, bool, bool); 30] = [
            (0, 0, 1.0, false, false),
            (1, 0, 1.0, false, false),
            (1, 1, 0.5, true, true),
            (1, 2, 0.5, true, true),
            (2, 0, 1.0, false, false),
            (2, 1, 0.75, true, true),
            (2, 2, 0.5, true, true),
            (2, 4, 0.5, true, true),
            (8, 0, 1.0, false, false),
            (8, 2, 0.875, false, true),
            (8, 3, 0.8125, false, true),
            (8, 4, 0.75, true, true),
            (8, 8, 0.5, true, true),
            (8, 16, 0.5, true, true),
            (20, 0, 1.0, false, false),
            (20, 5, 0.875, false, true),
            (20, 9, 0.775, false, true),
            (20, 10, 0.75, true, true),
            (20, 20, 0.5, true, true),
            (20, 40, 0.5, true, true),
            (30, 0, 1.0, false, false),
            (30, 7, 0.8833333, false, true),
            (30, 14, 0.76666665, false, true),
            (30, 15, 0.75, true, true),
            (30, 30, 0.5, true, true),
            (30, 60, 0.5, true, true),
            // Past the staleness bound only a caller bypassing lookup's
            // eviction reaches; the weight stays at the floor.
            (20, 400, 0.5, true, true),
            (0, 1, 0.5, true, true),
            (0, 7, 0.5, true, true),
            (1, 9, 0.5, true, true),
        ];
        for (t_stale, age, weight, predictive, coarse) in TABLE {
            for kind in PolicyKind::ALL {
                let (want_weight, want_due) = match kind {
                    PolicyKind::StalenessWeighted => (weight, false),
                    PolicyKind::Predictive => (1.0, predictive),
                    PolicyKind::CoarseRefresh => (1.0, coarse),
                    _ => (1.0, false),
                };
                let at = format!("{kind} at t_stale {t_stale}, age {age}");
                assert_eq!(
                    kind.read_weight(age, t_stale).to_bits(),
                    want_weight.to_bits(),
                    "{at}"
                );
                assert_eq!(kind.refresh_due(age, t_stale), want_due, "{at}");
                assert_eq!(kind.wants_history(), kind == PolicyKind::Predictive);
            }
        }
    }
}
