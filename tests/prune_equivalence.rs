// Index loops walk parallel arrays in lockstep; zips would obscure them.
#![allow(clippy::needless_range_loop)]

//! The pruner's correctness contract: pruning must never change the
//! model's output on the seed nodes.
//!
//! For any cache state, forwarding the *pruned* mini-batch with cache
//! overrides must produce exactly the same seed logits as forwarding the
//! *un-pruned* mini-batch with the same overrides: dead subtrees feed only
//! overridden (cache-read) destinations, so removing them is lossless.

use freshgnn_repro::core::cache::{GradientPolicy, HistoricalCache, PolicyInput, Verdict};
use freshgnn_repro::core::prune::prune_with_cache_policy;
use freshgnn_repro::graph::generate::{generate, GraphConfig};
use freshgnn_repro::graph::sample::NeighborSampler;
use freshgnn_repro::nn::model::{Arch, Model};
use freshgnn_repro::tensor::{Matrix, Rng};

fn admit(cache: &mut HistoricalCache, level: usize, node: u32, row: &Matrix, now: u32) {
    cache.apply_verdicts(
        level,
        &[(
            PolicyInput {
                node,
                local: 0,
                grad_norm: 0.0,
                was_cached: false,
            },
            Verdict::Admit,
        )],
        row,
        now,
    );
}

#[test]
fn pruned_forward_matches_unpruned_forward_with_overrides() {
    for seed in 0..8u64 {
        let mut rng = Rng::new(seed);
        let g = generate(
            &GraphConfig {
                num_nodes: 300,
                avg_degree: 8.0,
                num_communities: 4,
                homophily: 0.8,
                ..Default::default()
            },
            &mut rng,
        )
        .graph;
        let mut sampler = NeighborSampler::new(g.num_nodes());
        let seeds: Vec<u32> = (0..16).map(|_| rng.below(g.num_nodes()) as u32).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        let mb = sampler.sample(&g, &unique, &[4, 4, 4], &mut rng);

        let dims = [8usize, 12, 10, 5];
        let model = Model::new(Arch::Sage, &dims, &mut rng);

        // Populate the cache with random embeddings for a random subset of
        // interior nodes at levels 1 and 2.
        let mut cache = HistoricalCache::new(300, &dims[1..], 100, 32, true);
        for level in 1..=2usize {
            let dst = &mb.blocks[level - 1].dst_global;
            for &node in dst.iter() {
                if rng.bernoulli(0.4) {
                    let row = rng.normal_matrix(1, dims[level], 1.0);
                    admit(&mut cache, level, node, &row, 0);
                }
            }
        }

        // Prune a clone; keep the original for the reference pass.
        let mut pruned = mb.clone();
        let outcome = prune_with_cache_policy(&mut pruned, &mut cache, 1, &GradientPolicy);
        let total_cached: usize = outcome.cached.iter().map(Vec::len).sum();
        assert!(total_cached > 0, "seed {seed}: cache produced no hits");
        assert!(outcome.pruned_edges > 0);

        let ids: Vec<usize> = mb.input_nodes().iter().map(|&g| g as usize).collect();
        let feats = rng.normal_matrix(300, dims[0], 1.0);
        let h0 = feats.gather_rows(&ids);

        fn override_hook<'a>(
            cached: &'a [Vec<(u32, u32)>],
            cache: &'a HistoricalCache,
        ) -> impl FnMut(usize, &mut Matrix) + 'a {
            move |level: usize, h: &mut Matrix| {
                let b = level - 1;
                if b < cached.len() {
                    for &(local, slot) in &cached[b] {
                        cache.fetch_into(level, slot, h.row_mut(local as usize));
                    }
                }
            }
        }

        // The pruned pass also skips the rows the pruner did not mark
        // computed, as the trainer does; the reference computes every row.
        let t_pruned = model.forward_with(
            &pruned,
            h0.clone(),
            Some(&outcome.computed),
            override_hook(&outcome.cached, &cache),
        );
        let t_ref = model.forward_with(&mb, h0, None, override_hook(&outcome.cached, &cache));

        let out_p = t_pruned.h.last().unwrap();
        let out_r = t_ref.h.last().unwrap();
        assert_eq!(out_p.shape(), out_r.shape());
        for (a, b) in out_p.as_slice().iter().zip(out_r.as_slice()) {
            assert!(
                (a - b).abs() < 1e-5,
                "seed {seed}: pruned {a} vs reference {b}"
            );
        }
    }
}

#[test]
fn prune_partitions_destinations() {
    // Every needed destination is either computed or cached, never both;
    // dead destinations are neither.
    let mut rng = Rng::new(99);
    let g = generate(
        &GraphConfig {
            num_nodes: 200,
            avg_degree: 6.0,
            ..Default::default()
        },
        &mut rng,
    )
    .graph;
    let mut sampler = NeighborSampler::new(200);
    let mb = sampler.sample(&g, &[0, 5, 9], &[3, 3], &mut rng);
    let dims = [4usize, 6, 3];
    let mut cache = HistoricalCache::new(200, &dims[1..], 100, 16, true);
    for &node in mb.blocks[0].dst_global.iter().take(10) {
        let row = rng.normal_matrix(1, dims[1], 1.0);
        admit(&mut cache, 1, node, &row, 0);
    }
    let mut pruned = mb.clone();
    let outcome = prune_with_cache_policy(&mut pruned, &mut cache, 1, &GradientPolicy);
    for (b, block) in pruned.blocks.iter().enumerate() {
        let mut cached_set = vec![false; block.num_dst()];
        for &(l, _) in &outcome.cached[b] {
            cached_set[l as usize] = true;
        }
        for v in 0..block.num_dst() {
            assert!(
                !(cached_set[v] && outcome.computed[b][v]),
                "block {b} dst {v} both cached and computed"
            );
            if cached_set[v] {
                assert!(block.adj.is_pruned(v), "cached dst must be pruned");
            }
        }
    }
    // Top block: every seed computed.
    assert!(outcome.computed.last().unwrap().iter().all(|&c| c));
}
