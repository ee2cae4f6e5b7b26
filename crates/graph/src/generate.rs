//! Synthetic graph generation.
//!
//! The paper evaluates on power-law web-scale graphs (§2.3 cites the
//! power-law structure explicitly; the feature-cache argument depends on
//! it). We generate graphs from a **community-structured Chung–Lu model**:
//!
//! * per-node weights drawn from a Pareto distribution give a power-law
//!   degree distribution with a heavy tail of hubs;
//! * nodes belong to one of `num_communities` blocks; an edge endpoint is
//!   redrawn *within the source's community* with probability `homophily`,
//!   otherwise drawn globally — giving the label-correlated structure GNN
//!   accuracy experiments need (labels = communities, see
//!   `planted_features`).
//!
//! Node weights are shuffled relative to communities so hubs appear in every
//! community, as in real citation/social graphs.

use crate::{Csr, NodeId};
use fgnn_tensor::{Matrix, Rng};
use std::panic::resume_unwind;
use std::sync::{Mutex, PoisonError};

/// Parameters of the synthetic generator.
#[derive(Clone, Debug)]
pub struct GraphConfig {
    /// Number of nodes.
    pub num_nodes: usize,
    /// Target average (undirected) degree.
    pub avg_degree: f64,
    /// Number of planted communities (= label classes).
    pub num_communities: usize,
    /// Probability an edge stays within the source community.
    pub homophily: f64,
    /// Pareto shape for the weight distribution; smaller = heavier tail.
    /// Real-world graphs sit around 2.0–3.0.
    pub power_law_exponent: f64,
}

impl Default for GraphConfig {
    fn default() -> Self {
        GraphConfig {
            num_nodes: 1000,
            avg_degree: 10.0,
            num_communities: 8,
            homophily: 0.8,
            power_law_exponent: 2.5,
        }
    }
}

/// A generated graph plus its planted community assignment.
pub struct GeneratedGraph {
    /// Symmetric adjacency.
    pub graph: Csr,
    /// Planted community of every node (also the classification label
    /// before label noise).
    pub communities: Vec<u16>,
}

/// Cumulative-weight sampler over a set of members.
///
/// A pick draws one 24-bit uniform `u` and returns the first member whose
/// cumulative weight reaches `u · total` (a `partition_point`). The search
/// runs only over `cumulative[guide[b]..guide[b + 1]]`, where `b` is the
/// top `⌈log2 m⌉` bits of `u` (capped at 24): `guide[b]` is the answer for
/// the smallest uniform in bucket `b`, and the answer is monotone in `u`,
/// so every uniform in the bucket lands in that range. Same index as the
/// search over all of `cumulative`, in O(1) expected probes.
struct WeightedPicker {
    members: Vec<NodeId>,
    cumulative: Vec<f64>,
    total: f64,
    guide: Vec<u32>,
    /// `24 − bits`: a uniform's 24-bit numerator shifted right by this is
    /// its bucket.
    shift: u32,
}

/// Bits in a uniform's numerator ([`Rng::uniform`] is `k / 2^24`).
const UNIFORM_BITS: u32 = 24;

impl WeightedPicker {
    fn new(members: Vec<NodeId>, weights: &[f64]) -> Self {
        let mut cumulative = Vec::with_capacity(members.len());
        let mut acc = 0.0;
        for &m in &members {
            acc += weights[m as usize];
            cumulative.push(acc);
        }
        let total = acc;
        let bits = ceil_log2(members.len()).min(UNIFORM_BITS);
        let buckets = 1usize << bits;
        // One sweep: each bucket's lowest uniform, computed exactly as
        // `index` computes it, advances a shared cursor.
        let mut guide = Vec::with_capacity(buckets + 1);
        let mut idx = 0;
        for b in 0..buckets {
            let x = (b as f32 * (1.0 / buckets as f32)) as f64 * total;
            while idx < cumulative.len() && cumulative[idx] < x {
                idx += 1;
            }
            guide.push(idx as u32);
        }
        guide.push(cumulative.len() as u32);
        WeightedPicker {
            members,
            cumulative,
            total,
            guide,
            shift: UNIFORM_BITS - bits,
        }
    }

    /// Bucket of uniform `u`: the top `bits` bits of its numerator.
    #[inline]
    fn bucket(&self, u: f32) -> usize {
        ((u * (1u32 << UNIFORM_BITS) as f32) as u32 >> self.shift) as usize
    }

    /// Position in `members` that uniform `u` picks.
    #[inline]
    fn index(&self, u: f32) -> usize {
        let x = u as f64 * self.total;
        let b = self.bucket(u);
        let (lo, hi) = (self.guide[b] as usize, self.guide[b + 1] as usize);
        let idx = lo + self.cumulative[lo..hi].partition_point(|&c| c < x);
        idx.min(self.members.len() - 1)
    }

    #[inline]
    fn pick(&self, u: f32) -> NodeId {
        self.members[self.index(u)]
    }

    /// Start loading the guide slot `u` reads first.
    #[inline]
    fn prefetch_guide(&self, u: f32) {
        fgnn_tensor::prefetch(&self.guide, self.bucket(u));
    }

    /// Start loading the cumulative and member slots `u`'s search begins
    /// at (its guide slot should already be cached).
    #[inline]
    fn prefetch_search(&self, u: f32) {
        let lo = self.guide[self.bucket(u)] as usize;
        fgnn_tensor::prefetch(&self.cumulative, lo);
        fgnn_tensor::prefetch(&self.members, lo);
    }
}

/// `⌈log2 m⌉` (0 for `m ≤ 1`).
fn ceil_log2(m: usize) -> u32 {
    usize::BITS - m.saturating_sub(1).leading_zeros()
}

/// Sort `keys` ascending by an LSD radix sort over their low `bits` bits;
/// every higher bit must be zero. Each pass sorts one digit of at most 11
/// bits, so its counts (16 KiB) stay in L1; `scratch`, of the same length,
/// alternates with `keys` as the pass's destination. `counts` must be
/// [`radix_counts`] long and zero. The sorted keys end in `scratch` when
/// [`radix_passes`] is odd, else in `keys`.
fn radix_sort(keys: &mut [u64], scratch: &mut [u64], counts: &mut [usize], bits: u32) {
    let passes = radix_passes(bits);
    if passes == 0 {
        return;
    }
    let digit_bits = bits.div_ceil(passes);
    let radix = 1usize << digit_bits;
    let mask = radix as u64 - 1;
    // Every pass's histogram in one read of the input.
    for &k in keys.iter() {
        for (p, c) in counts.chunks_exact_mut(radix).enumerate() {
            c[((k >> (p as u32 * digit_bits)) & mask) as usize] += 1;
        }
    }
    let (mut src, mut dst) = (keys, scratch);
    for (p, c) in counts.chunks_exact_mut(radix).enumerate() {
        let shift = p as u32 * digit_bits;
        let mut next = 0;
        for slot in c.iter_mut() {
            let n = *slot;
            *slot = next;
            next += n;
        }
        for &k in src.iter() {
            let d = ((k >> shift) & mask) as usize;
            dst[c[d]] = k;
            c[d] += 1;
        }
        std::mem::swap(&mut src, &mut dst);
    }
}

/// Digit passes [`radix_sort`] makes over `bits`-bit keys.
fn radix_passes(bits: u32) -> u32 {
    const MAX_DIGIT_BITS: u32 = 11;
    bits.div_ceil(MAX_DIGIT_BITS)
}

/// Length of [`radix_sort`]'s `counts` for `bits`-bit keys.
fn radix_counts(bits: u32) -> usize {
    let passes = radix_passes(bits);
    if passes == 0 {
        return 0;
    }
    passes as usize * (1 << bits.div_ceil(passes))
}

/// Sort `keys` ascending and drop repeats; every bit above the low `bits`
/// must be zero. The two halves are radix-sorted at once, on the calling
/// thread and (with a helper) one helper, each in its own half of one
/// scratch buffer; then one merge pass joins them and drops the repeats.
/// Keys are plain `u64`s, so their sorted order is unique: the result is
/// what one sort and a `dedup` give, whoever sorted which half.
fn sort_dedup(keys: &mut Vec<u64>, bits: u32, helpers: usize) {
    let mid = keys.len() / 2;
    let mut scratch = vec![0u64; keys.len()];
    let mut counts = vec![0usize; 2 * radix_counts(bits)];
    {
        let (key_halves, scratch_halves) = (keys.split_at_mut(mid), scratch.split_at_mut(mid));
        let count_halves = counts.split_at_mut(radix_counts(bits));
        let halves = [
            (key_halves.0, scratch_halves.0, count_halves.0),
            (key_halves.1, scratch_halves.1, count_halves.1),
        ];
        share(halves, helpers, |(k, s, c)| radix_sort(k, s, c, bits));
    }
    let len = if radix_passes(bits) % 2 == 1 {
        merge_dedup(&scratch[..mid], &scratch[mid..], keys)
    } else {
        let len = merge_dedup(&keys[..mid], &keys[mid..], &mut scratch);
        std::mem::swap(keys, &mut scratch);
        len
    };
    keys.truncate(len);
}

/// Merge ascending `a` and `b` into the front of `out` (at least as long as
/// both together), writing each distinct key once; returns how many.
fn merge_dedup(a: &[u64], b: &[u64], out: &mut [u64]) -> usize {
    let (mut i, mut j, mut len) = (0, 0, 0);
    while i < a.len() || j < b.len() {
        let key = if j == b.len() || (i < a.len() && a[i] <= b[j]) {
            i += 1;
            a[i - 1]
        } else {
            j += 1;
            b[j - 1]
        };
        if len == 0 || out[len - 1] != key {
            out[len] = key;
            len += 1;
        }
    }
    len
}

/// Helper threads set-up runs beside the calling thread: one where the
/// machine has a second core, else none.
pub(crate) fn default_helpers() -> usize {
    std::thread::available_parallelism().map_or(0, |p| usize::from(p.get() >= 2))
}

/// Run `work` on every unit, on the calling thread and up to `helpers`
/// scoped helpers. Each thread starts at its own share of the units, then
/// takes any still untaken (the slot-per-unit idiom of the cluster
/// trainer's `train_hosts`), so a thread the machine stalls does fewer
/// units instead of holding up the rest. Units share no mutable state, so
/// no bit depends on which thread did which. A helper allocates nothing
/// here, and `work` must not either: under a pinned malloc policy a
/// helper's first allocation would open a second heap arena that is never
/// returned. A helper's panic reaches the caller.
fn share<T: Send>(units: impl IntoIterator<Item = T>, helpers: usize, work: impl Fn(T) + Sync) {
    let slots: Vec<Mutex<Option<T>>> = units.into_iter().map(|u| Mutex::new(Some(u))).collect();
    let n = slots.len();
    let threads = (helpers + 1).min(n.max(1));
    let take = |i: usize| {
        slots[i]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
    };
    let run = |t: usize| {
        (0..n)
            .map(|i| (t * n / threads + i) % n)
            .filter_map(take)
            .for_each(&work)
    };
    std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..threads).map(|t| scope.spawn(move || run(t))).collect();
        run(0);
        for t in spawned {
            t.join().unwrap_or_else(|p| resume_unwind(p));
        }
    });
}

/// Attempts resolved together (see [`Attempts::make`]).
const RESOLVE_AHEAD: usize = 64;

/// One edge attempt in flight: its three uniforms, then what they resolve to.
#[derive(Clone, Copy, Default)]
struct Attempt {
    source_u: f32,
    coin: f32,
    target_u: f32,
    source: NodeId,
    /// Community whose picker draws the target, or `usize::MAX` for the
    /// global one.
    picker: usize,
}

/// Generate a community-structured power-law graph.
pub fn generate(config: &GraphConfig, rng: &mut Rng) -> GeneratedGraph {
    generate_with(config, rng, default_helpers())
}

/// [`generate`] with the edge attempts and the edge sort shared with
/// `helpers` helper threads; the graph is the same at any count.
pub(crate) fn generate_with(config: &GraphConfig, rng: &mut Rng, helpers: usize) -> GeneratedGraph {
    let n = config.num_nodes;
    assert!(n >= 2, "need at least two nodes");
    assert!(config.num_communities >= 1);

    // Pareto weights, truncated so no node exceeds ~sqrt(n*avg_deg) expected
    // degree (standard Chung–Lu feasibility trick).
    let shape = config.power_law_exponent - 1.0;
    let cap = ((n as f64) * config.avg_degree).sqrt().max(2.0);
    let weights: Vec<f64> = (0..n)
        .map(|_| {
            let u = (1.0 - rng.uniform() as f64).max(1e-12);
            u.powf(-1.0 / shape).min(cap)
        })
        .collect();

    // Communities round-robin (balanced) then shuffled.
    let mut communities: Vec<u16> = (0..n)
        .map(|i| (i % config.num_communities) as u16)
        .collect();
    rng.shuffle(&mut communities);

    // Each accepted pair as one key, `min` above `max`: ascending keys are
    // ascending `(min, max)` pairs.
    let id_bits = ceil_log2(n);
    let mut keys = edge_keys(config, weights, &communities, id_bits, rng, helpers);
    // Deduplicate parallel edges.
    sort_dedup(&mut keys, 2 * id_bits, helpers);
    let mask = (1u64 << id_bits) - 1;
    let pairs = keys
        .iter()
        .map(|&k| ((k >> id_bits) as NodeId, (k & mask) as NodeId));

    GeneratedGraph {
        graph: Csr::from_undirected_pairs(n, pairs),
        communities,
    }
}

/// The edge loop of [`generate`]: `n · avg_degree / 2` accepted pairs (or
/// as many as four times that many attempts give), each packed as
/// `min << id_bits | max`. Takes `weights` by value so that they and the
/// pickers built from them are freed before the sort and the CSR build
/// allocate, and cannot add to set-up's memory peak.
///
/// Every attempt takes three draws, and the first `target_edges` attempts
/// are certain to be made (each accepts at most one pair). So those are
/// split into chunks of [`EDGE_CHUNK`] attempts, shared with `helpers`
/// helper threads: chunk `c` starts at the stream advanced by three draws
/// per attempt before it, and writes its accepted keys to the front of its
/// own window of the key buffer. One pass then closes the gaps between the
/// windows, and the serial loop makes whatever attempts remain (those that
/// replace self-loops), from the stream advanced past all of them.
fn edge_keys(
    config: &GraphConfig,
    weights: Vec<f64>,
    communities: &[u16],
    id_bits: u32,
    rng: &mut Rng,
    helpers: usize,
) -> Vec<u64> {
    let n = config.num_nodes;
    // Pickers: one global, one per community.
    let global = WeightedPicker::new((0..n as NodeId).collect(), &weights);
    let mut members: Vec<Vec<NodeId>> = vec![Vec::new(); config.num_communities];
    for (i, &c) in communities.iter().enumerate() {
        members[c as usize].push(i as NodeId);
    }
    let per_community: Vec<WeightedPicker> = members
        .into_iter()
        .map(|m| WeightedPicker::new(m, &weights))
        .collect();
    let attempts = Attempts {
        global: &global,
        per_community: &per_community,
        communities,
        homophily: config.homophily,
        id_bits,
    };

    let target_edges = ((n as f64) * config.avg_degree / 2.0) as usize;
    let max_attempts = target_edges * 4 + 64;
    let mut keys = vec![0u64; target_edges];
    let mut accepted = vec![0usize; target_edges.div_ceil(EDGE_CHUNK)];
    let start = rng.clone();
    let chunks = keys.chunks_mut(EDGE_CHUNK).zip(accepted.iter_mut());
    share(chunks.enumerate(), helpers, |(c, (window, accepted))| {
        let mut rng = start.clone();
        rng.advance(3 * (c * EDGE_CHUNK) as u64);
        *accepted = attempts.make(&mut rng, window);
    });
    rng.advance(3 * target_edges as u64);
    let mut len = 0;
    for (c, &a) in accepted.iter().enumerate() {
        keys.copy_within(c * EDGE_CHUNK..c * EDGE_CHUNK + a, len);
        len += a;
    }
    keys.truncate(len);

    let mut made = target_edges;
    let mut block = [0u64; RESOLVE_AHEAD];
    while keys.len() < target_edges && made < max_attempts {
        let len = RESOLVE_AHEAD
            .min(target_edges - keys.len())
            .min(max_attempts - made);
        made += len;
        let a = attempts.make(rng, &mut block[..len]);
        keys.extend_from_slice(&block[..a]);
    }
    keys
}

/// Edge attempts [`edge_keys`] gives one thread at a time.
const EDGE_CHUNK: usize = 1 << 16;

/// What an edge attempt reads: the pickers and the homophily coin's odds.
struct Attempts<'a> {
    global: &'a WeightedPicker,
    per_community: &'a [WeightedPicker],
    communities: &'a [u16],
    homophily: f64,
    id_bits: u32,
}

impl Attempts<'_> {
    /// The picker an attempt's target comes from.
    #[inline]
    fn picker(&self, p: usize) -> &WeightedPicker {
        if p == GLOBAL {
            self.global
        } else {
            &self.per_community[p]
        }
    }

    /// Make `out.len()` attempts from `rng`, writing the accepted keys to
    /// the front of `out`, in order; returns how many.
    ///
    /// An attempt draws three uniforms — its source's pick, the homophily
    /// coin, its target's pick — and costs a chain of dependent cache
    /// misses (guide, cumulative, member, community, then the same in the
    /// target's picker). Attempts are resolved a block at a time, one link
    /// of the chain per sweep over the block, each sweep prefetching what
    /// the next reads, so the misses of a block overlap. All of a block's
    /// draws come first, in attempt order: the same draws, the same edges
    /// as one attempt at a time.
    fn make(&self, rng: &mut Rng, out: &mut [u64]) -> usize {
        let mut accepted = 0;
        let mut block = [Attempt::default(); RESOLVE_AHEAD];
        for first in (0..out.len()).step_by(RESOLVE_AHEAD) {
            let block = &mut block[..RESOLVE_AHEAD.min(out.len() - first)];
            for a in block.iter_mut() {
                a.source_u = rng.uniform();
                a.coin = rng.uniform();
                a.target_u = rng.uniform();
                self.global.prefetch_guide(a.source_u);
            }
            for a in block.iter() {
                self.global.prefetch_search(a.source_u);
            }
            for a in block.iter_mut() {
                a.source = self.global.pick(a.source_u);
                fgnn_tensor::prefetch(self.communities, a.source as usize);
            }
            for a in block.iter_mut() {
                a.picker = if (a.coin as f64) < self.homophily {
                    self.communities[a.source as usize] as usize
                } else {
                    GLOBAL
                };
                self.picker(a.picker).prefetch_guide(a.target_u);
            }
            for a in block.iter() {
                self.picker(a.picker).prefetch_search(a.target_u);
            }
            for a in block.iter() {
                let (u, v) = (a.source, self.picker(a.picker).pick(a.target_u));
                if u != v {
                    out[accepted] = ((u.min(v) as u64) << self.id_bits) | u.max(v) as u64;
                    accepted += 1;
                }
            }
        }
        accepted
    }
}

/// [`Attempt::picker`] of an attempt whose target the global picker draws.
const GLOBAL: usize = usize::MAX;

/// Planted node features and labels for a generated graph.
pub struct PlantedSignal {
    /// `n x dim` feature matrix: community centroid + isotropic noise.
    pub features: Matrix,
    /// Labels: the community, with `label_noise` fraction flipped uniformly.
    pub labels: Vec<u16>,
}

/// Build features/labels correlated with the planted communities.
///
/// `signal_to_noise` controls task difficulty: features are
/// `centroid[community] * s + N(0,1)` where `s = signal_to_noise`. With
/// moderate `s` the raw features are weakly informative and message passing
/// over homophilous edges genuinely helps — the regime where
/// historical-embedding error shows up as accuracy loss (Fig 2 / Table 3).
/// The noise is drawn on the calling thread and up to `helpers` helpers;
/// the values are the same at any count.
pub(crate) fn planted_features(
    communities: &[u16],
    num_communities: usize,
    dim: usize,
    signal_to_noise: f32,
    label_noise: f32,
    rng: &mut Rng,
    helpers: usize,
) -> PlantedSignal {
    let centroids = rng.normal_matrix(num_communities, dim, 1.0);
    let n = communities.len();
    let mut features = Matrix::zeros(n, dim);
    // A normal takes two draws, so the rows starting at `r` start `2·dim·r`
    // draws into the stream: chunks of rows fill at once, on the caller and
    // the helpers, each from its own point of the stream.
    let rows = FEATURE_CHUNK.div_ceil(dim.max(1));
    let start = rng.clone();
    let chunks = features.as_mut_slice().chunks_mut((rows * dim).max(1));
    share(chunks.enumerate(), helpers, |(c, chunk)| {
        let mut rng = start.clone();
        rng.advance((2 * c * rows * dim) as u64);
        for (row, &comm) in chunk.chunks_exact_mut(dim).zip(&communities[c * rows..]) {
            for (x, &m) in row.iter_mut().zip(centroids.row(comm as usize)) {
                *x = m * signal_to_noise + rng.normal();
            }
        }
    });
    rng.advance((2 * n * dim) as u64);
    let labels = communities
        .iter()
        .map(|&c| {
            if rng.bernoulli(label_noise) {
                rng.below(num_communities) as u16
            } else {
                c
            }
        })
        .collect();
    PlantedSignal { features, labels }
}

/// Feature scalars (rounded up to whole rows) [`planted_features`] gives
/// one thread at a time.
const FEATURE_CHUNK: usize = 1 << 18;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::degree::{average_degree, nodes_by_degree};

    fn small_config() -> GraphConfig {
        GraphConfig {
            num_nodes: 2000,
            avg_degree: 12.0,
            num_communities: 4,
            homophily: 0.9,
            ..Default::default()
        }
    }

    #[test]
    fn generated_graph_hits_target_density_approximately() {
        let mut rng = Rng::new(7);
        let g = generate(&small_config(), &mut rng);
        let avg = average_degree(&g.graph);
        assert!(avg > 6.0 && avg < 14.0, "average degree {avg}");
    }

    #[test]
    fn degree_distribution_has_heavy_tail() {
        let mut rng = Rng::new(8);
        let g = generate(&small_config(), &mut rng);
        let max = g.graph.degree(nodes_by_degree(&g.graph)[0]);
        // Power law: some nodes land several log2 buckets above the mean.
        assert!(max >= 16, "max degree {max}");
    }

    #[test]
    fn homophily_concentrates_edges_within_communities() {
        let mut rng = Rng::new(9);
        let g = generate(&small_config(), &mut rng);
        let mut within = 0usize;
        let mut total = 0usize;
        for v in 0..g.graph.num_nodes() as NodeId {
            for &u in g.graph.neighbors(v) {
                total += 1;
                if g.communities[u as usize] == g.communities[v as usize] {
                    within += 1;
                }
            }
        }
        let frac = within as f64 / total as f64;
        // homophily 0.9 over 4 communities: well above the 0.25 base rate.
        assert!(frac > 0.6, "within-community fraction {frac}");
    }

    #[test]
    fn communities_are_balanced() {
        let mut rng = Rng::new(10);
        let g = generate(&small_config(), &mut rng);
        let mut counts = vec![0usize; 4];
        for &c in &g.communities {
            counts[c as usize] += 1;
        }
        for &c in &counts {
            assert!((c as isize - 500).unsigned_abs() < 50, "counts {counts:?}");
        }
    }

    #[test]
    fn planted_features_separate_communities() {
        let mut rng = Rng::new(11);
        let g = generate(&small_config(), &mut rng);
        let sig = planted_features(&g.communities, 4, 16, 2.0, 0.0, &mut rng, 1);
        assert_eq!(sig.features.shape(), (2000, 16));
        assert_eq!(sig.labels, g.communities);
        // Same-community features are closer than cross-community on average.
        let d = |a: usize, b: usize| -> f32 {
            sig.features
                .row(a)
                .iter()
                .zip(sig.features.row(b))
                .map(|(&x, &y)| (x - y) * (x - y))
                .sum()
        };
        let mut same = 0.0;
        let mut diff = 0.0;
        let mut ns = 0;
        let mut nd = 0;
        for i in 0..200 {
            for j in i + 1..200 {
                if g.communities[i] == g.communities[j] {
                    same += d(i, j);
                    ns += 1;
                } else {
                    diff += d(i, j);
                    nd += 1;
                }
            }
        }
        assert!(same / (ns as f32) < diff / (nd as f32));
    }

    #[test]
    fn label_noise_flips_some_labels() {
        let mut rng = Rng::new(12);
        let g = generate(&small_config(), &mut rng);
        let sig = planted_features(&g.communities, 4, 4, 1.0, 0.3, &mut rng, 1);
        let flipped = sig
            .labels
            .iter()
            .zip(&g.communities)
            .filter(|(a, b)| a != b)
            .count();
        let frac = flipped as f64 / 2000.0;
        // 30% noise, but 1/4 of flips land on the original label.
        assert!(frac > 0.15 && frac < 0.30, "flip fraction {frac}");
    }

    /// The binary search over all of `cumulative` the guide table narrows.
    fn reference_index(p: &WeightedPicker, u: f32) -> usize {
        let x = u as f64 * p.total;
        p.cumulative
            .partition_point(|&c| c < x)
            .min(p.members.len() - 1)
    }

    fn picker(weights: &[f64]) -> WeightedPicker {
        WeightedPicker::new((0..weights.len() as NodeId).collect(), weights)
    }

    fn pareto_weights(m: usize, rng: &mut Rng) -> Vec<f64> {
        (0..m)
            .map(|_| (1.0 - rng.uniform() as f64).max(1e-12).powf(-1.0 / 1.3))
            .collect()
    }

    #[test]
    fn guide_pick_equals_the_full_search_for_every_uniform() {
        let mut rng = Rng::new(3);
        let mut hub = vec![1.0; 40];
        hub[17] = 50.0;
        let pickers: Vec<WeightedPicker> = [
            vec![2.5],
            vec![0.0, 0.0, 1.0, 0.0, 2.0, 0.0],
            pareto_weights(15, &mut rng),
            pareto_weights(16, &mut rng),
            pareto_weights(17, &mut rng),
            hub,
        ]
        .iter()
        .map(|w| picker(w))
        .collect();
        for k in 0..1u32 << UNIFORM_BITS {
            let u = k as f32 * (1.0 / (1u32 << UNIFORM_BITS) as f32);
            for (i, p) in pickers.iter().enumerate() {
                let (got, want) = (p.index(u), reference_index(p, u));
                if got != want {
                    panic!("picker {i}, uniform {k}/2^24: guide {got}, search {want}");
                }
            }
        }
    }

    #[test]
    fn guide_pick_equals_the_full_search_on_large_pickers() {
        for seed in 0..8 {
            let mut rng = Rng::new(seed);
            let m = 1 + rng.below(300_000);
            let mut weights = pareto_weights(m, &mut rng);
            // Zero-weight runs make equal cumulative values.
            for _ in 0..m / 10 {
                weights[rng.below(m)] = 0.0;
            }
            let p = picker(&weights);
            for _ in 0..20_000 {
                let u = rng.uniform();
                assert_eq!(p.index(u), reference_index(&p, u), "seed {seed}, m {m}");
            }
            for u in [0.0, 1.0 - 1.0 / (1u32 << UNIFORM_BITS) as f32] {
                assert_eq!(p.index(u), reference_index(&p, u), "seed {seed}, m {m}");
            }
        }
    }

    /// Edge keys of `len` random pairs of `id_bits`-bit ids; narrow ranges
    /// make duplicates, and one draw in eight takes the largest id.
    fn random_keys(len: usize, id_bits: u32, rng: &mut Rng) -> Vec<u64> {
        let max = u32::MAX >> (32 - id_bits);
        (0..len)
            .map(|_| {
                let mut id = || match rng.below(8) {
                    0 => max,
                    _ => (rng.next_u64() as u32) & max,
                };
                let (u, v) = (id(), id());
                ((u.min(v) as u64) << id_bits) | u.max(v) as u64
            })
            .collect()
    }

    #[test]
    fn radix_sort_equals_a_comparison_sort() {
        let mut rng = Rng::new(5);
        for case in 0..24 {
            let len = rng.below(5_000);
            // The widest ids reach u32::MAX.
            let id_bits = 1 + rng.below(32) as u32;
            let mut keys = random_keys(len, id_bits, &mut rng);
            let mut want = keys.clone();
            want.sort_unstable();
            let mut scratch = vec![0; len];
            let mut counts = vec![0; radix_counts(2 * id_bits)];
            radix_sort(&mut keys, &mut scratch, &mut counts, 2 * id_bits);
            let got = if radix_passes(2 * id_bits) % 2 == 1 {
                scratch
            } else {
                keys
            };
            assert_eq!(got, want, "case {case}: {len} keys of {id_bits}-bit ids");
        }
    }

    #[test]
    fn sort_dedup_equals_a_comparison_sort_and_dedup() {
        let mut rng = Rng::new(6);
        let mut inputs: Vec<(Vec<u64>, u32)> = vec![
            (vec![], 8),
            (vec![5], 8),
            (vec![9; 7], 8),
            (vec![6, 6], 4),
            (vec![4, 1, 4, 9, 1, 2, 4], 4),
            (vec![3, 1, 2], 2),
            (vec![7, 7, 1, 7, 7], 4),
            (vec![0, 0, 0, 1], 1),
        ];
        for _ in 0..24 {
            let len = rng.below(5_000) | 1;
            let id_bits = 1 + rng.below(32) as u32;
            inputs.push((random_keys(len, id_bits, &mut rng), 2 * id_bits));
            inputs.push((random_keys(len + 1, id_bits, &mut rng), 2 * id_bits));
        }
        for (case, (keys, bits)) in inputs.into_iter().enumerate() {
            let mut want = keys.clone();
            want.sort_unstable();
            want.dedup();
            for helpers in 0..=2 {
                let mut got = keys.clone();
                sort_dedup(&mut got, bits, helpers);
                assert_eq!(
                    got,
                    want,
                    "case {case}, {} keys, {helpers} helpers",
                    keys.len()
                );
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = small_config();
        let a = generate(&cfg, &mut Rng::new(42));
        let b = generate(&cfg, &mut Rng::new(42));
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.communities, b.communities);
    }
}
