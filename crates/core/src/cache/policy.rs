//! The pluggable cache-policy family (§4.1, Fig 6, plus the
//! staleness-control successors from PAPERS.md).
//!
//! FreshGNN's own criterion: after backward propagation, every node
//! present at layer `l` of the mini-batch has an embedding-gradient norm
//! `‖∇_{h_v^{(l)}} L‖`. The bottom `p_grad` fraction (smallest norms —
//! most stable) are *admitted* (computed nodes) or *kept* (cache-read
//! nodes); the top `1 − p_grad` fraction are *not admitted* / *evicted*.
//!
//! The [`CachePolicy`] trait generalizes that rule into a single
//! admission/keep/read decision surface with three hooks:
//!
//! * [`CachePolicy::verdicts`] — who enters/leaves the cache (the
//!   quantile machinery above, on a policy-chosen stability score);
//! * [`CachePolicy::read_weight`] / [`CachePolicy::wants_history`] — what
//!   a stale read-back is worth: VISAGNN-style staleness weighting scales
//!   the embedding down with age instead of trusting it outright, and the
//!   online dynamic-embedding *prediction* approach (arXiv:2308.13466)
//!   extrapolates the entry from its recorded update delta;
//! * [`CachePolicy::refresh_due`] — when a *live* cached entry should be
//!   refreshed ahead of expiry: the lookup declines the hit (without
//!   evicting) so the node is recomputed and re-admitted in place. The
//!   baseline never schedules one (entries refresh only at the `t_stale`
//!   expiry); a periodic schedule is coarser than per-iteration streaming
//!   updates ("Haste Makes Waste") but finer than expiry-only, trading
//!   admit traffic for freshness.
//!
//! Every policy is deterministic given its RNG: the only randomness is
//! the explicit `rng` argument, consumed solely by [`RandomPolicy`].

use fgnn_graph::NodeId;
use fgnn_tensor::Rng;

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
    /// time, where no gradients exist).
    Frequency,
    /// VISAGNN-style: gradient admission, but read-back embeddings are
    /// down-weighted linearly with their age instead of trusted outright.
    StalenessWeighted,
    /// Dynamic-embedding prediction: gradient admission, but a stale read
    /// is extrapolated from the entry's recorded update delta (entries
    /// refresh in place mid-window so the delta history exists).
    Predictive,
    /// Coarse refresh schedule: gradient admission, but a live entry is
    /// recomputed and rewritten in place once per refresh period instead
    /// of only at `t_stale` expiry.
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

    /// Instantiate the policy behind this kind. `t_stale` parameterizes
    /// the staleness-dependent policies (weighting decay, refresh period);
    /// the admission-only kinds ignore it.
    pub fn build(self, t_stale: u32) -> Box<dyn CachePolicy> {
        match self {
            PolicyKind::Gradient => Box::new(GradientPolicy),
            PolicyKind::Random => Box::new(RandomPolicy),
            PolicyKind::InverseGradient => Box::new(InverseGradientPolicy),
            PolicyKind::Frequency => Box::new(FrequencyPolicy),
            PolicyKind::StalenessWeighted => Box::new(StalenessWeightedPolicy::default()),
            PolicyKind::Predictive => Box::new(PredictivePolicy::for_t_stale(t_stale)),
            PolicyKind::CoarseRefresh => Box::new(CoarseRefreshPolicy::for_t_stale(t_stale)),
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

/// A cache policy: the single admission/keep/read/refresh decision
/// surface shared by both trainer families, the serving embedding store
/// and the benches. Implementations are stateless (all hooks take
/// `&self`); any randomness flows through the explicit `rng`.
pub trait CachePolicy: Send + Sync {
    /// Which [`PolicyKind`] this policy implements.
    fn kind(&self) -> PolicyKind;

    /// Stable display/export name.
    fn name(&self) -> &'static str {
        self.kind().name()
    }

    /// Admission/keep verdicts for one layer's nodes. `p` is the stable
    /// fraction; `rng` is consumed only by randomized policies, so
    /// deterministic policies leave the caller's stream untouched.
    fn verdicts(
        &self,
        inputs: &[PolicyInput],
        p: f32,
        rng: &mut Rng,
    ) -> Vec<(PolicyInput, Verdict)> {
        let _ = rng;
        gradient_policy(inputs, p)
    }

    /// Multiplicative weight applied to a read-back embedding of the
    /// given `age` (iterations since admission) under staleness bound
    /// `t_stale`. The baseline trusts every in-bound entry fully (1.0).
    fn read_weight(&self, age: u32, t_stale: u32) -> f32 {
        let _ = (age, t_stale);
        1.0
    }

    /// Whether the ring should record per-entry update deltas so stale
    /// reads can be extrapolated ([`crate::cache::RingCache`] history).
    fn wants_history(&self) -> bool {
        false
    }

    /// Whether a *live* cached entry of the given `age` (< the `t_stale`
    /// bound) is due for a scheduled refresh. When true, the lookup
    /// declines the hit **without evicting**: the node is recomputed this
    /// iteration and, if still stable, re-admitted over the live entry —
    /// a refresh-in-place that also records the update delta feeding
    /// [`CachePolicy::wants_history`] extrapolation. The baseline never
    /// schedules one: entries refresh only at expiry.
    fn refresh_due(&self, age: u32, t_stale: u32) -> bool {
        let _ = (age, t_stale);
        false
    }
}

/// The paper baseline: bottom-`p_grad` gradient norms are stable, every
/// in-bound read is trusted fully, every admit rewrites.
pub struct GradientPolicy;

impl CachePolicy for GradientPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::Gradient
    }
}

/// Ablation: a uniformly random `p` fraction is stable.
pub struct RandomPolicy;

impl CachePolicy for RandomPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::Random
    }

    fn verdicts(
        &self,
        inputs: &[PolicyInput],
        p: f32,
        rng: &mut Rng,
    ) -> Vec<(PolicyInput, Verdict)> {
        randomized_policy(inputs, p, rng)
    }
}

/// Adversarial ablation: the *largest* scores are stable.
pub struct InverseGradientPolicy;

impl CachePolicy for InverseGradientPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::InverseGradient
    }

    fn verdicts(
        &self,
        inputs: &[PolicyInput],
        p: f32,
        rng: &mut Rng,
    ) -> Vec<(PolicyInput, Verdict)> {
        let _ = rng;
        inverted_gradient_policy(inputs, p)
    }
}

/// Serving-time admission: keep the most *requested* embeddings instead
/// of the most *stable* ones.
///
/// Training admits by gradient norm because stability predicts reuse
/// value; at inference time there are no gradients, so request frequency
/// is the surrogate stability score — a hot node's embedding amortizes
/// its recompute over many requests exactly as a stable node's amortizes
/// over many iterations. `grad_norm` carries the observed request count
/// and the *top* `p_hot` fraction is admitted/kept.
pub struct FrequencyPolicy;

impl CachePolicy for FrequencyPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::Frequency
    }

    fn verdicts(
        &self,
        inputs: &[PolicyInput],
        p: f32,
        rng: &mut Rng,
    ) -> Vec<(PolicyInput, Verdict)> {
        let _ = rng;
        inverted_gradient_policy(inputs, p)
    }
}

/// VISAGNN-style staleness-aware weighting: gradient admission, but a
/// read-back embedding is scaled by a weight that decays linearly from
/// 1.0 at age 0 to `floor` at age `t_stale`, so older history counts for
/// less instead of being trusted outright until the hard bound evicts it.
pub struct StalenessWeightedPolicy {
    /// Weight at the staleness bound (age = `t_stale`); fresher entries
    /// interpolate linearly toward 1.0.
    pub floor: f32,
}

impl Default for StalenessWeightedPolicy {
    fn default() -> Self {
        StalenessWeightedPolicy { floor: 0.5 }
    }
}

impl CachePolicy for StalenessWeightedPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::StalenessWeighted
    }

    fn read_weight(&self, age: u32, t_stale: u32) -> f32 {
        if age == 0 {
            return 1.0;
        }
        let frac = age as f32 / t_stale.max(1) as f32;
        (1.0 - (1.0 - self.floor) * frac).clamp(self.floor.min(1.0), 1.0)
    }
}

/// Online dynamic-embedding prediction (arXiv:2308.13466): gradient
/// admission, but the ring records each entry's update deltas and an aged
/// read is extrapolated forward along the last one instead of served
/// as-is. A mid-window refresh schedule (`refresh_age`, half the
/// staleness bound) forces the in-place rewrites that *produce* those
/// deltas — without it the baseline only ever writes an entry once per
/// staleness window and there is no trajectory to extrapolate.
pub struct PredictivePolicy {
    /// Age at which a live entry is refreshed in place to record a delta.
    pub refresh_age: u32,
}

impl PredictivePolicy {
    /// Refresh at half the staleness bound (at least 1): one delta
    /// observation per window, leaving the second half to extrapolate.
    pub(crate) fn for_t_stale(t_stale: u32) -> Self {
        PredictivePolicy {
            refresh_age: (t_stale / 2).max(1),
        }
    }
}

impl CachePolicy for PredictivePolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::Predictive
    }

    fn wants_history(&self) -> bool {
        true
    }

    fn refresh_due(&self, age: u32, _t_stale: u32) -> bool {
        age >= self.refresh_age
    }
}

/// Coarse refresh schedule: gradient admission, but a live entry is
/// recomputed and rewritten in place once its age reaches `period` —
/// coarser than per-iteration streaming updates ("Haste Makes Waste"),
/// finer than the baseline's expiry-only refresh. Caps the worst-case
/// served age at `period` instead of `t_stale`, buying freshness with
/// extra recompute/admit traffic.
pub struct CoarseRefreshPolicy {
    /// Age at which a live entry's hit is declined so it refreshes.
    pub period: u32,
}

impl CoarseRefreshPolicy {
    /// A quarter of the staleness bound (at least 1): entries refresh a
    /// few times per staleness window instead of once at expiry.
    pub(crate) fn for_t_stale(t_stale: u32) -> Self {
        CoarseRefreshPolicy {
            period: (t_stale / 4).max(1),
        }
    }
}

impl CachePolicy for CoarseRefreshPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::CoarseRefresh
    }

    fn refresh_due(&self, age: u32, _t_stale: u32) -> bool {
        age >= self.period
    }
}

/// Apply the `p_grad` criterion to one layer's nodes.
///
/// Returns `(node, local, verdict)` triples in rank order. Deterministic:
/// ties on the norm are broken by node ID. Panics on a NaN norm. Each node
/// appears at most once (training levels are a block's distinct
/// destinations, serving a de-duplicated miss list), so no two inputs
/// share a rank key and the unstable sort has a single answer.
pub fn gradient_policy(inputs: &[PolicyInput], p_grad: f32) -> Vec<(PolicyInput, Verdict)> {
    if inputs.is_empty() {
        return Vec::new();
    }
    assert!(
        !inputs.iter().any(|x| x.grad_norm.is_nan()),
        "NaN gradient norm"
    );
    let mut order: Vec<(u64, u32)> = inputs
        .iter()
        .enumerate()
        .map(|(i, x)| (rank_key(x.grad_norm, x.node), i as u32))
        .collect();
    order.sort_unstable_by_key(|&(key, _)| key);
    debug_assert!(
        order.windows(2).all(|w| w[0].0 < w[1].0),
        "a node ranked twice with one norm"
    );
    // Bottom p_grad fraction is stable.
    let n_stable = ((inputs.len() as f64) * p_grad as f64).round() as usize;
    let mut out = Vec::with_capacity(inputs.len());
    for (rank, &(_, i)) in order.iter().enumerate() {
        let x = inputs[i as usize];
        let stable = rank < n_stable;
        let verdict = match (stable, x.was_cached) {
            (true, false) => Verdict::Admit,
            (true, true) => Verdict::Keep,
            (false, true) => Verdict::Evict,
            (false, false) => Verdict::Skip,
        };
        out.push((x, verdict));
    }
    out
}

/// `(norm, node)` packed so that integer order is `partial_cmp` on the
/// norm, then node ID: the norm's bits made order-preserving (negatives
/// flipped, positives offset past them) in the high word, the node in the
/// low one. `-0.0` becomes `+0.0` first, because `partial_cmp` calls the
/// two equal and leaves the node to decide. Panics on NaN, which has no
/// place in the order.
fn rank_key(norm: f32, node: NodeId) -> u64 {
    assert!(!norm.is_nan(), "NaN gradient norm");
    let bits = if norm == 0.0 { 0 } else { norm.to_bits() };
    let ordered = if bits >> 31 == 1 {
        !bits
    } else {
        bits | 1 << 31
    };
    u64::from(ordered) << 32 | u64::from(node)
}

/// The shared inverted-score combinator: run [`gradient_policy`] with the
/// score negated — "smallest norm is most stable" becomes "largest score
/// is most stable" — and un-negate the reported score on the way out, so
/// callers see their own values. Ties break by node ID either way.
///
/// This is the one place the negate-then-rank trick lives;
/// [`InverseGradientPolicy`] and [`FrequencyPolicy`] (where `grad_norm`
/// carries the observed request count and the *top* fraction is
/// admitted/kept) are both this combinator.
pub fn inverted_gradient_policy(inputs: &[PolicyInput], p: f32) -> Vec<(PolicyInput, Verdict)> {
    let flipped: Vec<PolicyInput> = inputs
        .iter()
        .map(|x| PolicyInput {
            grad_norm: -x.grad_norm,
            ..*x
        })
        .collect();
    gradient_policy(&flipped, p)
        .into_iter()
        .map(|(x, v)| {
            (
                PolicyInput {
                    grad_norm: -x.grad_norm,
                    ..x
                },
                v,
            )
        })
        .collect()
}

/// The random criterion: replace every score with a uniform draw, then
/// rank. The returned `grad_norm` is the surrogate score (verdict
/// application only consumes `node`/`local`/`was_cached`).
fn randomized_policy(inputs: &[PolicyInput], p: f32, rng: &mut Rng) -> Vec<(PolicyInput, Verdict)> {
    let randomized: Vec<PolicyInput> = inputs
        .iter()
        .map(|x| PolicyInput {
            grad_norm: rng.uniform(),
            ..*x
        })
        .collect();
    gradient_policy(&randomized, p)
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

    fn verdict_of(out: &[(PolicyInput, Verdict)], node: NodeId) -> Verdict {
        out.iter().find(|(x, _)| x.node == node).unwrap().1
    }

    /// The reference table of each kind's *admission* rule: the
    /// [`CachePolicy`] trait adds the read/refresh hooks on top of exactly
    /// these verdicts. `rng` is only consumed by [`PolicyKind::Random`].
    fn apply_policy(
        kind: PolicyKind,
        inputs: &[PolicyInput],
        p: f32,
        rng: &mut Rng,
    ) -> Vec<(PolicyInput, Verdict)> {
        match kind {
            PolicyKind::Gradient
            | PolicyKind::StalenessWeighted
            | PolicyKind::Predictive
            | PolicyKind::CoarseRefresh => gradient_policy(inputs, p),
            PolicyKind::InverseGradient | PolicyKind::Frequency => {
                inverted_gradient_policy(inputs, p)
            }
            PolicyKind::Random => randomized_policy(inputs, p, rng),
        }
    }

    #[test]
    fn small_gradients_admitted_large_skipped() {
        let inputs = vec![
            input(0, 0.1, false),
            input(1, 0.2, false),
            input(2, 5.0, false),
            input(3, 9.0, false),
        ];
        let out = gradient_policy(&inputs, 0.5);
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
        let out = gradient_policy(&inputs, 0.5);
        assert_eq!(verdict_of(&out, 2), Verdict::Admit);
        assert_eq!(verdict_of(&out, 3), Verdict::Evict);
    }

    #[test]
    fn cached_node_with_small_gradient_is_kept() {
        let inputs = vec![input(0, 0.1, true), input(1, 5.0, false)];
        let out = gradient_policy(&inputs, 0.5);
        assert_eq!(verdict_of(&out, 0), Verdict::Keep);
        assert_eq!(verdict_of(&out, 1), Verdict::Skip);
    }

    #[test]
    fn p_grad_one_admits_everything() {
        let inputs = vec![input(0, 0.1, false), input(1, 99.0, true)];
        let out = gradient_policy(&inputs, 1.0);
        assert_eq!(verdict_of(&out, 0), Verdict::Admit);
        assert_eq!(verdict_of(&out, 1), Verdict::Keep);
    }

    #[test]
    fn p_grad_zero_admits_nothing() {
        let inputs = vec![input(0, 0.1, false), input(1, 0.2, true)];
        let out = gradient_policy(&inputs, 0.0);
        assert_eq!(verdict_of(&out, 0), Verdict::Skip);
        assert_eq!(verdict_of(&out, 1), Verdict::Evict);
    }

    #[test]
    fn empty_input_is_fine() {
        assert!(gradient_policy(&[], 0.9).is_empty());
    }

    #[test]
    fn deterministic_tie_break_by_node_id() {
        let inputs = vec![input(5, 1.0, false), input(2, 1.0, false)];
        let out = gradient_policy(&inputs, 0.5);
        // Exactly one admitted; the smaller node ID wins the tie.
        assert_eq!(verdict_of(&out, 2), Verdict::Admit);
        assert_eq!(verdict_of(&out, 5), Verdict::Skip);
    }

    #[test]
    fn random_policy_admits_requested_fraction() {
        let inputs: Vec<PolicyInput> = (0..100).map(|i| input(i, i as f32, false)).collect();
        let mut rng = fgnn_tensor::Rng::new(5);
        let out = PolicyKind::Random
            .build(20)
            .verdicts(&inputs, 0.7, &mut rng);
        let admitted = out.iter().filter(|(_, v)| *v == Verdict::Admit).count();
        assert_eq!(admitted, 70);
    }

    #[test]
    fn inverse_policy_admits_largest_norms() {
        let inputs = vec![input(0, 0.1, false), input(1, 9.0, false)];
        let mut rng = fgnn_tensor::Rng::new(5);
        let out = PolicyKind::InverseGradient
            .build(20)
            .verdicts(&inputs, 0.5, &mut rng);
        assert_eq!(verdict_of(&out, 1), Verdict::Admit);
        assert_eq!(verdict_of(&out, 0), Verdict::Skip);
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
        let out = FrequencyPolicy.verdicts(&inputs, 0.5, &mut Rng::new(0));
        assert_eq!(verdict_of(&out, 0), Verdict::Admit);
        assert_eq!(verdict_of(&out, 2), Verdict::Keep);
        assert_eq!(verdict_of(&out, 4), Verdict::Admit);
        assert_eq!(verdict_of(&out, 1), Verdict::Skip);
        assert_eq!(verdict_of(&out, 3), Verdict::Evict);
        assert_eq!(verdict_of(&out, 5), Verdict::Skip);
        // The reported score is the caller's frequency, not the negated
        // internal surrogate.
        assert!(out.iter().all(|(x, _)| x.grad_norm >= 0.0));
    }

    #[test]
    fn frequency_ties_break_by_node_id() {
        let inputs = vec![input(9, 5.0, false), input(4, 5.0, false)];
        let out = FrequencyPolicy.verdicts(&inputs, 0.5, &mut Rng::new(0));
        assert_eq!(verdict_of(&out, 4), Verdict::Admit);
        assert_eq!(verdict_of(&out, 9), Verdict::Skip);
    }

    #[test]
    fn gradient_kind_matches_direct_call() {
        let inputs = vec![input(0, 0.1, true), input(1, 5.0, false)];
        let mut rng = fgnn_tensor::Rng::new(5);
        let via_kind = PolicyKind::Gradient
            .build(20)
            .verdicts(&inputs, 0.5, &mut rng);
        let direct = gradient_policy(&inputs, 0.5);
        for ((a, va), (b, vb)) in via_kind.iter().zip(&direct) {
            assert_eq!(a.node, b.node);
            assert_eq!(va, vb);
        }
    }

    #[test]
    fn inverse_policy_reports_unflipped_scores() {
        // The shared combinator un-negates on the way out for every user.
        let inputs = vec![input(0, 0.1, false), input(1, 9.0, false)];
        let out = inverted_gradient_policy(&inputs, 0.5);
        assert!(out.iter().all(|(x, _)| x.grad_norm >= 0.0));
    }

    #[test]
    fn kind_name_round_trips_exhaustively() {
        for kind in PolicyKind::ALL {
            let parsed: PolicyKind = kind.name().parse().expect("name parses back");
            assert_eq!(parsed, kind);
            assert_eq!(format!("{kind}"), kind.name());
            // Exhaustive match: adding a PolicyKind variant without a name,
            // a builder and an ALL entry fails to compile here.
            match kind {
                PolicyKind::Gradient
                | PolicyKind::Random
                | PolicyKind::InverseGradient
                | PolicyKind::Frequency
                | PolicyKind::StalenessWeighted
                | PolicyKind::Predictive
                | PolicyKind::CoarseRefresh => {}
            }
            assert_eq!(kind.build(20).kind(), kind, "builder returns its kind");
        }
        assert!("no-such-policy".parse::<PolicyKind>().is_err());
    }

    #[test]
    fn trait_verdicts_match_apply_policy_for_every_kind() {
        let inputs: Vec<PolicyInput> = (0..40)
            .map(|i| input(i, (i * 7 % 13) as f32, i % 3 == 0))
            .collect();
        for kind in PolicyKind::ALL {
            let policy = kind.build(20);
            let mut rng_a = Rng::new(11);
            let mut rng_b = Rng::new(11);
            let via_trait = policy.verdicts(&inputs, 0.6, &mut rng_a);
            let via_shim = apply_policy(kind, &inputs, 0.6, &mut rng_b);
            assert_eq!(via_trait.len(), via_shim.len());
            for ((a, va), (b, vb)) in via_trait.iter().zip(&via_shim) {
                assert_eq!(a.node, b.node, "{kind}");
                assert_eq!(va, vb, "{kind}");
            }
            assert_eq!(
                rng_a.state(),
                rng_b.state(),
                "{kind}: trait and shim must consume the rng identically"
            );
        }
    }

    #[test]
    fn staleness_weight_decays_linearly_to_floor() {
        let p = StalenessWeightedPolicy { floor: 0.5 };
        assert_eq!(p.read_weight(0, 20), 1.0);
        assert!((p.read_weight(10, 20) - 0.75).abs() < 1e-6);
        assert!((p.read_weight(20, 20) - 0.5).abs() < 1e-6);
        // Past the bound (only reachable if a caller bypasses lookup's
        // eviction) the weight clamps at the floor.
        assert_eq!(p.read_weight(40, 20), 0.5);
        // t_stale = 0 must not divide by zero.
        assert!(p.read_weight(1, 0) >= 0.5);
    }

    #[test]
    fn coarse_refresh_fires_at_period() {
        let p = CoarseRefreshPolicy::for_t_stale(20); // period 5
        assert_eq!(p.period, 5);
        assert!(!p.refresh_due(0, 20), "fresh entry not due");
        assert!(!p.refresh_due(4, 20), "under the period");
        assert!(p.refresh_due(5, 20), "boundary is due");
        assert!(p.refresh_due(19, 20));
        // Degenerate t_stale: period clamps to 1, so any aged entry is due
        // but a same-iteration re-read is not.
        let p = CoarseRefreshPolicy::for_t_stale(0);
        assert_eq!(p.period, 1);
        assert!(p.refresh_due(1, 0));
        assert!(!p.refresh_due(0, 0), "same-iteration hit served");
    }

    #[test]
    fn predictive_refreshes_mid_window_and_wants_history() {
        let p = PredictivePolicy::for_t_stale(30); // refresh_age 15
        assert_eq!(p.refresh_age, 15);
        assert!(p.wants_history());
        assert!(!p.refresh_due(14, 30));
        assert!(p.refresh_due(15, 30), "mid-window refresh is due");
        // Degenerate t_stale still clamps to 1.
        assert_eq!(PredictivePolicy::for_t_stale(1).refresh_age, 1);
    }

    #[test]
    fn baseline_hooks_are_identity() {
        let p = GradientPolicy;
        assert_eq!(p.read_weight(19, 20), 1.0);
        assert!(!p.wants_history());
        assert!(!p.refresh_due(19, 20), "baseline never schedules");
        assert_eq!(p.name(), "gradient");
    }
}
