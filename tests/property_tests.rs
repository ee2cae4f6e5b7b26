//! Randomized property tests on the core data structures and invariants:
//! the ring cache, the gradient policy, CSR2 pruning, the samplers and the
//! interconnect model.
//!
//! These used to run under `proptest`; they are now driven by the
//! workspace's own deterministic [`Rng`] so the tier-1 suite builds with
//! zero external dependencies (see DESIGN.md). Each property runs
//! `common::cases()` seeded cases (`FGNN_PROP_CASES` overrides); failures
//! print the case seed, which fully reproduces the input.

mod common;

use common::for_cases;
use freshgnn_repro::core::cache::{PolicyInput, PolicyKind, RingCache, Verdict};
use freshgnn_repro::core::HistoricalCache;
use freshgnn_repro::graph::hetero::{HeteroGraph, HeteroSampler, Relation};
use freshgnn_repro::graph::mapper::NodeMapper;
use freshgnn_repro::graph::sample::{split_batches, NeighborSampler, FULL_NEIGHBORS};
use freshgnn_repro::graph::{Csr, Csr2, NodeId};
use freshgnn_repro::memsim::alltoall::{multi_round_alltoall, naive_alltoall, one_sided_alltoall};
use freshgnn_repro::memsim::{Node, Topology};
use freshgnn_repro::tensor::Matrix;
use freshgnn_repro::tensor::{stats, Rng};
use std::cell::Cell;

fn random_edges(rng: &mut Rng, num_nodes: u32, max_edges: usize) -> Vec<(u32, u32)> {
    let n = rng.below(max_edges.max(1)) + 1;
    (0..n)
        .map(|_| {
            (
                rng.below(num_nodes as usize) as u32,
                rng.below(num_nodes as usize) as u32,
            )
        })
        .collect()
}

/// The ring cache never serves another node's embedding and never serves
/// an entry older than `t_stale`, under arbitrary interleaved
/// admit/evict/lookup sequences.
#[test]
fn ring_cache_is_always_correct() {
    for_cases("ring_cache_is_always_correct", |rng| {
        let capacity = rng.below(15) + 1;
        let t_stale = rng.below(20) as u32;
        let n_ops = rng.below(299) + 1;
        let dim = 4;
        let mut cache = RingCache::new(40, capacity, dim);
        // Ground truth: what we last admitted for each node, and when.
        let mut truth: std::collections::HashMap<u32, (f32, u32)> = Default::default();
        for _ in 0..n_ops {
            let op = rng.below(3);
            let node = rng.below(40) as u32;
            let now = rng.below(64) as u32;
            match op {
                0 => {
                    let val = (node * 1000 + now) as f32;
                    cache.admit(node, &[val; 4], now, t_stale);
                    truth.insert(node, (val, now));
                }
                1 => {
                    cache.evict(node);
                    truth.remove(&node);
                }
                _ => {
                    if let Some(slot) = cache.lookup(node, now, t_stale) {
                        let row = cache.fetch(slot);
                        // Whatever we get MUST be the node's own last
                        // admission and within the staleness bound.
                        let (val, stamp) = truth.get(&node).expect("hit for a node never admitted");
                        assert_eq!(row[0], *val, "wrong embedding served");
                        assert!(
                            now.saturating_sub(*stamp) <= t_stale,
                            "stale embedding served: {} vs bound {}",
                            now.saturating_sub(*stamp),
                            t_stale
                        );
                    }
                }
            }
        }
    });
}

/// The gradient policy admits/keeps exactly the bottom p_grad fraction and
/// produces one verdict per input.
#[test]
fn gradient_policy_partitions_by_quantile() {
    for_cases("gradient_policy_partitions_by_quantile", |rng| {
        let n = rng.below(99) + 1;
        let p_grad = rng.uniform();
        let inputs: Vec<PolicyInput> = (0..n)
            .map(|i| PolicyInput {
                node: i as u32,
                local: i as u32,
                grad_norm: rng.uniform_range(0.0, 100.0),
                was_cached: i % 3 == 0,
            })
            .collect();
        let out = PolicyKind::Gradient.verdicts(&inputs, p_grad, &mut Rng::new(0));
        assert_eq!(out.len(), inputs.len());
        let n_stable = out
            .iter()
            .filter(|(_, v)| matches!(v, Verdict::Admit | Verdict::Keep))
            .count();
        let expected = ((inputs.len() as f64) * p_grad as f64).round() as usize;
        assert_eq!(n_stable, expected);
        // Every stable norm <= every unstable norm.
        let max_stable = out
            .iter()
            .filter(|(_, v)| matches!(v, Verdict::Admit | Verdict::Keep))
            .map(|(x, _)| x.grad_norm)
            .fold(f32::NEG_INFINITY, f32::max);
        let min_unstable = out
            .iter()
            .filter(|(_, v)| matches!(v, Verdict::Skip | Verdict::Evict))
            .map(|(x, _)| x.grad_norm)
            .fold(f32::INFINITY, f32::min);
        assert!(max_stable <= min_unstable);
        // Cached-ness maps Admit<->Skip vs Keep<->Evict correctly.
        for (x, v) in &out {
            match v {
                Verdict::Admit | Verdict::Skip => assert!(!x.was_cached),
                Verdict::Keep | Verdict::Evict => assert!(x.was_cached),
            }
        }
    });
}

/// Every policy in the family is deterministic (same seed, same verdicts),
/// partitions exactly the requested quantile — including the `p = 0` and
/// `p = 1` edges — and maps cached-ness onto the right verdict pair.
#[test]
fn policy_family_is_deterministic_and_quantile_exact() {
    for_cases("policy_family_is_deterministic_and_quantile_exact", |rng| {
        let n = rng.below(64); // 0 included: empty input must be fine
        let inputs: Vec<PolicyInput> = (0..n)
            .map(|i| PolicyInput {
                node: i as u32,
                local: i as u32,
                grad_norm: rng.uniform_range(0.0, 100.0),
                was_cached: rng.below(2) == 1,
            })
            .collect();
        let p = rng.uniform();
        let seed = rng.below(1 << 30) as u64;
        for kind in PolicyKind::ALL {
            let a = kind.verdicts(&inputs, p, &mut Rng::new(seed));
            let b = kind.verdicts(&inputs, p, &mut Rng::new(seed));
            assert_eq!(a.len(), inputs.len(), "{kind}: total function");
            for ((xa, va), (xb, vb)) in a.iter().zip(&b) {
                assert_eq!(xa.node, xb.node, "{kind}: same-seed determinism");
                assert_eq!(va, vb, "{kind}: same-seed determinism");
            }
            for (p_edge, want_stable) in [(0.0f32, 0), (1.0, n)] {
                let out = kind.verdicts(&inputs, p_edge, &mut Rng::new(seed));
                let stable = out
                    .iter()
                    .filter(|(_, v)| matches!(v, Verdict::Admit | Verdict::Keep))
                    .count();
                assert_eq!(stable, want_stable, "{kind}: p = {p_edge} edge");
            }
            let stable = a
                .iter()
                .filter(|(_, v)| matches!(v, Verdict::Admit | Verdict::Keep))
                .count();
            assert_eq!(
                stable,
                ((n as f64) * p as f64).round() as usize,
                "{kind}: quantile exact at p = {p}"
            );
            for (x, v) in &a {
                match v {
                    Verdict::Admit | Verdict::Skip => assert!(!x.was_cached, "{kind}"),
                    Verdict::Keep | Verdict::Evict => assert!(x.was_cached, "{kind}"),
                }
            }
        }
    });
}

/// Read weights are the identity at age zero and stay in (0, 1] at any
/// age, for every policy — down-weighting may shrink an embedding but
/// never flips its sign or zeroes it out.
#[test]
fn read_weights_are_bounded() {
    for_cases("read_weights_are_bounded", |rng| {
        let t_stale = rng.below(64) as u32;
        let age = rng.below(128) as u32;
        for kind in PolicyKind::ALL {
            assert_eq!(
                kind.read_weight(0, t_stale),
                1.0,
                "{kind}: fresh reads untouched"
            );
            let w = kind.read_weight(age, t_stale);
            assert!(w > 0.0 && w <= 1.0, "{kind}: weight {w} outside (0, 1]");
        }
    });
}

/// Under arbitrary admit/lookup interleavings with any policy in the
/// family, the cache never serves an entry older than `t_stale` (the
/// refresh schedule only tightens the served age, never loosens it),
/// served rows stay finite under weighting/extrapolation, and the
/// observability invariant `lookups == hits + misses` holds.
#[test]
fn policy_cache_respects_staleness_bound() {
    for_cases("policy_cache_respects_staleness_bound", |rng| {
        let t_stale = rng.below(16) as u32 + 1;
        let kind = PolicyKind::ALL[rng.below(PolicyKind::ALL.len())];
        let mut cache = HistoricalCache::new(40, &[4, 4], t_stale, 8, true);
        if kind.wants_history() {
            cache.enable_history();
        }
        // Ground truth: last admission stamp per (level-1) node.
        let mut truth: std::collections::HashMap<u32, u32> = Default::default();
        let mut now = 0u32;
        for _ in 0..rng.below(199) + 1 {
            now += rng.below(3) as u32;
            let node = rng.below(40) as u32;
            if rng.below(2) == 0 {
                let h = Matrix::full(1, 4, (node + now) as f32);
                let v = [(
                    PolicyInput {
                        node,
                        local: 0,
                        grad_norm: 0.0,
                        was_cached: false,
                    },
                    Verdict::Admit,
                )];
                cache.apply_verdicts(1, &v, &h, now);
                truth.insert(node, now);
            } else if let Some(slot) = cache.lookup_with(1, node, now, kind) {
                let stamp = truth.get(&node).expect("hit for a node never admitted");
                assert!(
                    now - stamp <= t_stale,
                    "{kind}: served age {} beyond bound {t_stale}",
                    now - stamp
                );
                assert!(
                    !kind.refresh_due(now - stamp, t_stale),
                    "{kind}: served an entry due for refresh at age {}",
                    now - stamp
                );
                let mut dst = [0.0f32; 4];
                cache.read_into(1, slot, now, kind, &mut dst);
                assert!(
                    dst.iter().all(|x| x.is_finite()),
                    "{kind}: non-finite served row"
                );
            }
        }
        let s = cache.stats();
        assert_eq!(cache.lookups(), s.hits + s.misses, "{kind}: obs invariant");
    });
}

/// CSR2 pruning removes exactly the pruned node's edges and nothing else,
/// in any order.
#[test]
fn csr2_pruning_is_exact() {
    for_cases("csr2_pruning_is_exact", |rng| {
        let edges = random_edges(rng, 30, 200);
        let n_victims = rng.below(30);
        let csr = Csr::from_directed_edges(30, &edges);
        let mut c2 = Csr2::from_csr(&csr);
        let mut pruned = std::collections::HashSet::new();
        for _ in 0..n_victims {
            let v = rng.below(30) as u32;
            c2.prune(v as usize);
            pruned.insert(v);
        }
        for v in 0..30u32 {
            if pruned.contains(&v) {
                assert_eq!(c2.degree(v as usize), 0);
            } else {
                assert_eq!(c2.neighbors(v as usize), csr.neighbors(v));
            }
        }
        let expect: usize = (0..30u32)
            .filter(|v| !pruned.contains(v))
            .map(|v| csr.degree(v))
            .sum();
        assert_eq!(c2.num_live_edges(), expect);
    });
}

/// Sampled mini-batches always satisfy the structural invariants, for
/// arbitrary graphs, seeds and fanouts.
#[test]
fn sampled_minibatches_are_valid() {
    for_cases("sampled_minibatches_are_valid", |rng| {
        let edges = random_edges(rng, 50, 300);
        let fanout = rng.below(5) + 1;
        let layers = rng.below(3) + 1;
        let g = Csr::from_undirected_edges(50, &edges);
        let mut seeds: Vec<u32> = (0..rng.below(9) + 1)
            .map(|_| rng.below(50) as u32)
            .collect();
        seeds.sort_unstable();
        seeds.dedup();
        let mut sampler = NeighborSampler::new(50);
        let mut sample_rng = rng.fork();
        let mb = sampler.sample(&g, &seeds, &vec![fanout; layers], &mut sample_rng);
        assert!(mb.validate().is_ok(), "{:?}", mb.validate());
        assert_eq!(mb.num_layers(), layers);
        // Every sampled neighbor is a true graph neighbor.
        for block in &mb.blocks {
            for v in 0..block.num_dst() {
                let dst_g = block.dst_global[v];
                for &u in block.adj.neighbors(v) {
                    let src_g = block.src_global[u as usize];
                    assert!(g.neighbors(dst_g).contains(&src_g));
                }
                assert!(block.adj.degree(v) <= fanout.max(g.degree(dst_g)));
            }
        }
    });
}

/// Batch splitting is a partition of the input for any batch size.
#[test]
fn split_batches_is_partition() {
    for_cases("split_batches_is_partition", |rng| {
        let n = rng.below(199) + 1;
        let batch = rng.below(49) + 1;
        let nodes: Vec<u32> = (0..n as u32).collect();
        let mut shuffle_rng = rng.fork();
        let batches = split_batches(&nodes, batch, Some(&mut shuffle_rng));
        let mut flat: Vec<u32> = batches.concat();
        flat.sort_unstable();
        assert_eq!(flat, nodes);
        for b in &batches[..batches.len() - 1] {
            assert_eq!(b.len(), batch);
        }
    });
}

/// Quantiles are monotone in q and bounded by the extremes.
#[test]
fn quantiles_are_monotone() {
    for_cases("quantiles_are_monotone", |rng| {
        let n = rng.below(199) + 1;
        let values: Vec<f32> = (0..n).map(|_| rng.uniform_range(-1e3, 1e3)).collect();
        let q1 = rng.uniform();
        let q2 = rng.uniform();
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let a = stats::quantile(&values, lo);
        let b = stats::quantile(&values, hi);
        assert!(a <= b + 1e-3);
        let min = values.iter().cloned().fold(f32::INFINITY, f32::min);
        let max = values.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        assert!(a >= min - 1e-3 && b <= max + 1e-3);
    });
}

/// Interconnect routes are well-formed for every GPU pair on every
/// topology shape: consecutive links share an endpoint, and the route
/// starts/ends at the right nodes.
#[test]
fn routes_are_well_formed() {
    for_cases("routes_are_well_formed", |rng| {
        let num_gpus = rng.below(11) + 1;
        let per_switch = rng.below(4) + 1;
        let a = rng.below(num_gpus);
        let b = rng.below(num_gpus);
        let topo = Topology::pcie_tree(num_gpus, per_switch, 1e9);
        let route = topo.route(Node::Gpu(a), Node::Gpu(b));
        if a == b {
            assert!(route.is_empty());
        } else {
            assert!(!route.is_empty());
            // Consecutive links must chain (share an endpoint).
            for w in route.windows(2) {
                let l1 = &topo.links()[w[0]];
                let l2 = &topo.links()[w[1]];
                let shares = l1.a == l2.a || l1.a == l2.b || l1.b == l2.a || l1.b == l2.b;
                assert!(shares, "links {:?} and {:?} do not chain", w[0], w[1]);
            }
            // Endpoints appear in the first/last links.
            let first = &topo.links()[route[0]];
            assert!(first.a == Node::Gpu(a) || first.b == Node::Gpu(a));
            let last = &topo.links()[*route.last().unwrap()];
            assert!(last.a == Node::Gpu(b) || last.b == Node::Gpu(b));
        }
    });
}

/// All-to-all schedules: multi-round never loses to the naive two-sided
/// schedule, and every schedule's time grows monotonically with demand.
#[test]
fn alltoall_schedules_are_sane() {
    for_cases("alltoall_schedules_are_sane", |rng| {
        let base = (rng.next_u64() % (1 << 24)).max(1);
        let extra = rng.next_u64() % (1 << 24);
        let topo = Topology::pcie_tree(4, 2, 16e9);
        let mk = |bytes: u64| -> Vec<Vec<u64>> {
            (0..4)
                .map(|i| (0..4).map(|j| if i == j { 0 } else { bytes }).collect())
                .collect()
        };
        let d1 = mk(base);
        let d2 = mk(base + extra);
        let (m1, _) = multi_round_alltoall(&topo, &d1);
        let (m2, _) = multi_round_alltoall(&topo, &d2);
        assert!(m2 >= m1, "multi-round not monotone: {m1} vs {m2}");
        let n1 = naive_alltoall(&topo, &d1);
        assert!(m1 <= n1, "multi-round {m1} worse than naive {n1}");
        let o1 = one_sided_alltoall(&topo, &d1);
        assert!(o1 <= n1, "one-sided {o1} worse than two-sided naive {n1}");
    });
}

/// Today's one-pass `sample_adjacency` from before the two-phase
/// prefetching rewrite, verbatim: the reference the samplers must equal.
fn one_pass_adjacency(
    graph: &Csr,
    dst: &[NodeId],
    fanout: usize,
    mapper: &mut NodeMapper,
    picks: &mut Vec<usize>,
    rng: &mut Rng,
) -> Csr2 {
    let edges = dst.iter().map(|&d| graph.degree(d).min(fanout)).sum();
    let mut start = Vec::with_capacity(dst.len());
    let mut end = Vec::with_capacity(dst.len());
    let mut indices = Vec::with_capacity(edges);
    for &d in dst {
        let nbrs = graph.neighbors(d);
        start.push(indices.len());
        if nbrs.len() <= fanout {
            indices.extend(nbrs.iter().map(|&u| mapper.get_or_insert(u) as NodeId));
        } else {
            rng.sample_without_replacement_into(nbrs.len(), fanout, picks);
            indices.extend(
                picks
                    .iter()
                    .map(|&k| mapper.get_or_insert(nbrs[k]) as NodeId),
            );
        }
        end.push(indices.len());
    }
    Csr2::from_parts(start, end, indices)
}

/// In-neighbour lists for `n_dst` destinations drawn from `0..n_src` with
/// repeats (multi-edges, self-loops), each degree picked against `fanout`
/// so that every sampler path occurs: isolated, under, equal to and over
/// the fanout in both `sample_without_replacement_into` branches (shuffle
/// up to `3 · fanout`, Floyd beyond).
fn fanout_graph(rng: &mut Rng, n_dst: usize, n_src: usize, fanout: usize) -> Csr {
    let mut indptr = vec![0];
    let mut indices = Vec::new();
    for _ in 0..n_dst {
        let degree = match rng.below(5) {
            0 => 0,
            1 => rng.below(fanout),
            2 => fanout,
            3 => fanout + 1 + rng.below(2 * fanout),
            _ => 3 * fanout + 1 + rng.below(20),
        };
        indices.extend((0..degree).map(|_| rng.below(n_src) as NodeId));
        indptr.push(indices.len());
    }
    Csr::from_parts(indptr, indices)
}

/// Per layer, the base fanout or (one time in four) `FULL_NEIGHBORS`.
fn layer_fanouts(rng: &mut Rng, fanout: usize) -> Vec<usize> {
    (0..rng.below(3) + 1)
        .map(|_| {
            if rng.below(4) == 0 {
                FULL_NEIGHBORS
            } else {
                fanout
            }
        })
        .collect()
}

/// Record which sampler paths `fanout` takes over `dst`: an isolated node,
/// degree == fanout, the shuffle branch, Floyd's branch, `FULL_NEIGHBORS`
/// on a node with neighbours.
fn note_paths(seen: &Cell<[bool; 5]>, g: &Csr, dst: &[NodeId], fanout: usize) {
    let mut s = seen.get();
    for &d in dst {
        let deg = g.degree(d);
        s[0] |= deg == 0;
        s[1] |= deg == fanout;
        s[2] |= deg > fanout && deg <= fanout.saturating_mul(3);
        s[3] |= deg > fanout.saturating_mul(3);
        s[4] |= fanout == FULL_NEIGHBORS && deg > 0;
    }
    seen.set(s);
}

/// The two-phase prefetching sampler builds exactly the one-pass
/// reference's blocks — `dst_global`, `src_global`, adjacency — from the
/// same RNG draws, on every path (see [`fanout_graph`]) and for
/// destination lists shorter than each prefetch distance. One sampler
/// serves two batches, so the second runs over the first's mapper stamps.
#[test]
fn two_phase_sampler_equals_the_one_pass_reference() {
    let seen = Cell::new([false; 5]);
    for_cases("two_phase_sampler_equals_the_one_pass_reference", |rng| {
        let n = rng.below(60) + 2;
        let f = rng.below(6) + 1;
        let g = fanout_graph(rng, n, n, f);
        let mut sampler = NeighborSampler::new(n);
        let mut mapper = NodeMapper::new(n);
        let mut picks = Vec::new();
        for _ in 0..2 {
            let mut seeds: Vec<NodeId> = (0..n as NodeId).collect();
            rng.shuffle(&mut seeds);
            seeds.truncate(rng.below(n.min(24)) + 1);
            let fanouts = layer_fanouts(rng, f);
            let seed = rng.next_u64();
            let (mut a, mut b) = (Rng::new(seed), Rng::new(seed));
            let mb = sampler.sample(&g, &seeds, &fanouts, &mut a);
            // `NeighborSampler::sample` around the reference.
            let mut want: Vec<(Vec<NodeId>, Vec<NodeId>, Csr2)> = Vec::new();
            for &fanout in fanouts.iter().rev() {
                let dst = want.last().map_or(seeds.clone(), |blk| blk.1.clone());
                mapper.reset();
                for &d in &dst {
                    mapper.get_or_insert(d);
                }
                let adj = one_pass_adjacency(&g, &dst, fanout, &mut mapper, &mut picks, &mut b);
                note_paths(&seen, &g, &dst, fanout);
                want.push((dst, mapper.globals().to_vec(), adj));
            }
            want.reverse();
            assert_eq!(a.state(), b.state(), "the same draws");
            assert_eq!(mb.blocks.len(), want.len());
            for (block, (dst, src, adj)) in mb.blocks.iter().zip(&want) {
                assert_eq!(&block.dst_global, dst);
                assert_eq!(&block.src_global, src);
                assert_eq!(&block.adj, adj);
            }
        }
    });
    assert_eq!(seen.get(), [true; 5], "every sampler path was taken");
}

/// The heterogeneous sampler shares the two-phase construction and equals
/// the one-pass reference over random typed graphs (relations between any
/// two types, a type with itself included).
#[test]
fn two_phase_hetero_sampler_equals_the_one_pass_reference() {
    for_cases(
        "two_phase_hetero_sampler_equals_the_one_pass_reference",
        |rng| {
            let n_types = rng.below(3) + 1;
            let node_counts: Vec<usize> = (0..n_types).map(|_| rng.below(40) + 1).collect();
            let f = rng.below(5) + 1;
            let relations: Vec<Relation> = (0..rng.below(4) + 1)
                .map(|_| {
                    let (src_type, dst_type) = (rng.below(n_types), rng.below(n_types));
                    let n_dst = node_counts[dst_type];
                    Relation {
                        name: "rel",
                        src_type,
                        dst_type,
                        graph: fanout_graph(rng, n_dst, node_counts[src_type], f),
                    }
                })
                .collect();
            let graph = HeteroGraph {
                type_names: vec!["type"; n_types],
                node_counts,
                relations,
            };
            let target = rng.below(n_types);
            let mut seeds: Vec<NodeId> = (0..graph.node_counts[target] as NodeId).collect();
            rng.shuffle(&mut seeds);
            seeds.truncate(rng.below(seeds.len().min(12)) + 1);
            let fanouts = layer_fanouts(rng, f);
            let seed = rng.next_u64();
            let (mut a, mut b) = (Rng::new(seed), Rng::new(seed));
            let mb = HeteroSampler::new(&graph).sample(&graph, target, &seeds, &fanouts, &mut a);
            // `HeteroSampler::sample` around the reference.
            let mut mappers: Vec<NodeMapper> = graph
                .node_counts
                .iter()
                .map(|&n| NodeMapper::new(n))
                .collect();
            let mut picks = Vec::new();
            let mut dst: Vec<Vec<NodeId>> = vec![Vec::new(); n_types];
            dst[target] = seeds.clone();
            let mut want = Vec::new();
            for &fanout in fanouts.iter().rev() {
                for (t, mapper) in mappers.iter_mut().enumerate() {
                    mapper.reset();
                    for &d in &dst[t] {
                        mapper.get_or_insert(d);
                    }
                }
                let rel_adj: Vec<Csr2> = graph
                    .relations
                    .iter()
                    .map(|rel| {
                        one_pass_adjacency(
                            &rel.graph,
                            &dst[rel.dst_type],
                            fanout,
                            &mut mappers[rel.src_type],
                            &mut picks,
                            &mut b,
                        )
                    })
                    .collect();
                let src: Vec<Vec<NodeId>> = mappers.iter().map(|m| m.globals().to_vec()).collect();
                want.push((dst, src.clone(), rel_adj));
                dst = src;
            }
            want.reverse();
            assert_eq!(a.state(), b.state(), "the same draws");
            assert_eq!(mb.blocks.len(), want.len());
            for (block, (dst, src, rel_adj)) in mb.blocks.iter().zip(&want) {
                assert_eq!(&block.dst, dst);
                assert_eq!(&block.src, src);
                assert_eq!(&block.rel_adj, rel_adj);
            }
        },
    );
}

/// The comparator ranking from before the packed-key sort, verbatim:
/// `PolicyKind::verdicts` must equal it position by position.
fn comparator_gradient_policy(inputs: &[PolicyInput], p_grad: f32) -> Vec<(PolicyInput, Verdict)> {
    if inputs.is_empty() {
        return Vec::new();
    }
    let mut order: Vec<usize> = (0..inputs.len()).collect();
    order.sort_unstable_by(|&a, &b| {
        inputs[a]
            .grad_norm
            .partial_cmp(&inputs[b].grad_norm)
            .expect("NaN gradient norm")
            .then(inputs[a].node.cmp(&inputs[b].node))
    });
    // Bottom p_grad fraction is stable.
    let n_stable = ((inputs.len() as f64) * p_grad as f64).round() as usize;
    let mut out = Vec::with_capacity(inputs.len());
    for (rank, &i) in order.iter().enumerate() {
        let x = inputs[i];
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

/// The inverted combinator (negate, rank, un-negate), over the comparator
/// reference.
fn comparator_inverted_policy(inputs: &[PolicyInput], p: f32) -> Vec<(PolicyInput, Verdict)> {
    let flipped: Vec<PolicyInput> = inputs
        .iter()
        .map(|x| PolicyInput {
            grad_norm: -x.grad_norm,
            ..*x
        })
        .collect();
    comparator_gradient_policy(&flipped, p)
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

/// A norm that is often hard to rank: signed zeros, subnormals, infinities,
/// the extremes, or one of two values shared by many nodes.
fn awkward_norm(rng: &mut Rng) -> f32 {
    const AWKWARD: [f32; 10] = [
        0.0,
        -0.0,
        f32::from_bits(1),
        f32::from_bits(0x007F_FFFF),
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::MAX,
        f32::MIN_POSITIVE,
        1.0,
        2.5,
    ];
    match rng.below(3) {
        0 => rng.uniform_range(-10.0, 10.0),
        1 => AWKWARD[rng.below(AWKWARD.len())],
        _ => -AWKWARD[rng.below(AWKWARD.len())],
    }
}

/// The random criterion: one uniform draw per input, in input order, ranked
/// by the comparator reference; each verdict carries the caller's input.
fn comparator_random_policy(
    inputs: &[PolicyInput],
    p: f32,
    rng: &mut Rng,
) -> Vec<(PolicyInput, Verdict)> {
    let drawn: Vec<PolicyInput> = inputs
        .iter()
        .enumerate()
        .map(|(i, x)| PolicyInput {
            grad_norm: rng.uniform(),
            local: i as u32,
            ..*x
        })
        .collect();
    comparator_gradient_policy(&drawn, p)
        .into_iter()
        .map(|(x, v)| (inputs[x.local as usize], v))
        .collect()
}

/// The packed-key rank of every `PolicyKind` equals its comparator
/// reference at every position — node, local, norm bits, verdict — and
/// leaves the RNG where the reference does: for both directions, on tied
/// norms, signed zeros (a `+0.0` norm is `-0.0` when negated), subnormals
/// and infinities, with node IDs spread over all of `u32`.
#[test]
fn packed_key_rank_equals_the_comparator_sort() {
    for_cases("packed_key_rank_equals_the_comparator_sort", |rng| {
        let n = rng.below(48);
        // An odd stride is a bijection mod 2^32: distinct nodes.
        let stride = rng.next_u64() as u32 | 1;
        let offset = rng.next_u64() as u32;
        let inputs: Vec<PolicyInput> = (0..n as u32)
            .map(|i| PolicyInput {
                node: i.wrapping_mul(stride).wrapping_add(offset),
                local: rng.below(1000) as u32,
                grad_norm: awkward_norm(rng),
                was_cached: rng.below(2) == 1,
            })
            .collect();
        let p = [0.0, 1.0, rng.uniform()][rng.below(3)];
        let seed = rng.next_u64();
        for kind in PolicyKind::ALL {
            let (mut got_rng, mut want_rng) = (Rng::new(seed), Rng::new(seed));
            let got = kind.verdicts(&inputs, p, &mut got_rng);
            let want = match kind {
                PolicyKind::Gradient
                | PolicyKind::StalenessWeighted
                | PolicyKind::Predictive
                | PolicyKind::CoarseRefresh => comparator_gradient_policy(&inputs, p),
                PolicyKind::InverseGradient | PolicyKind::Frequency => {
                    comparator_inverted_policy(&inputs, p)
                }
                PolicyKind::Random => comparator_random_policy(&inputs, p, &mut want_rng),
            };
            assert_eq!(got.len(), want.len(), "{kind}");
            for (rank, ((x, v), (y, w))) in got.iter().zip(&want).enumerate() {
                assert_eq!(
                    (x.node, x.local, x.grad_norm.to_bits(), x.was_cached, v),
                    (y.node, y.local, y.grad_norm.to_bits(), y.was_cached, w),
                    "{kind}: rank {rank}"
                );
            }
            assert_eq!(got_rng.state(), want_rng.state(), "{kind}: RNG end state");
        }
    });
}

#[test]
#[should_panic(expected = "NaN gradient norm")]
fn a_nan_norm_still_panics() {
    let input = |node, grad_norm| PolicyInput {
        node,
        local: node,
        grad_norm,
        was_cached: false,
    };
    PolicyKind::Gradient.verdicts(&[input(0, 1.0), input(1, f32::NAN)], 0.5, &mut Rng::new(0));
}
