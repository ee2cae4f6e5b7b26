// Index-based loops below intentionally walk several parallel arrays in
// lockstep; iterator zips would obscure the math. Clippy disagrees.
#![allow(clippy::needless_range_loop)]

//! All-to-all exchange scheduling (§6, Fig 9c / Fig 15).
//!
//! Given a demand matrix `demand[i][j]` = bytes GPU `i` must fetch from GPU
//! `j`, three schedules are modeled:
//!
//! * **naive / NCCL-style** — all pairs transfer concurrently; flows
//!   sharing a link split its bandwidth, and above two concurrent flows a
//!   congestion penalty applies (PCIe arbitration and head-of-line
//!   blocking — the effect the paper's multi-round schedule avoids);
//! * **one-sided concurrent** — same concurrency but without the two-sided
//!   index/sync overheads (the paper's "+23%" step in Fig 15);
//! * **multi-round** — the paper's schedule: one round of same-switch
//!   bidirectional exchanges, then one round per cross-switch pair so the
//!   host bridge carries exactly one bidirectional flow at a time.

use crate::topology::{Node, Topology};

/// Aggregate-bandwidth derating when `flows` concurrent flows share one
/// link direction. 1–2 flows: full bandwidth (full duplex). More: PCIe
/// arbitration loses ~35% aggregate throughput — the congestion the paper
/// observed with NCCL all-to-all.
pub(crate) fn congestion_factor(flows: usize) -> f64 {
    if flows <= 2 {
        1.0
    } else {
        0.65
    }
}

/// Per-flow overhead of a two-sided exchange (sync + index shipping),
/// folded into the naive schedule. Matches `transfer::SYNC_LATENCY` twice.
const TWO_SIDED_FLOW_OVERHEAD: f64 = 100e-6;

fn schedule_concurrent(topo: &Topology, demand: &[Vec<u64>], two_sided: bool) -> f64 {
    let n = topo.num_gpus;
    // Per-link load and flow count for this concurrent phase.
    let mut load = vec![0.0f64; topo.links().len()];
    let mut flows = vec![0usize; topo.links().len()];
    let mut any = false;
    for i in 0..n {
        for j in 0..n {
            if i == j || demand[i][j] == 0 {
                continue;
            }
            any = true;
            let route = topo.route(Node::Gpu(j), Node::Gpu(i));
            for l in route {
                load[l] += demand[i][j] as f64;
                flows[l] += 1;
            }
        }
    }
    if !any {
        return 0.0;
    }
    let mut t: f64 = 0.0;
    for (li, link) in topo.links().iter().enumerate() {
        if load[li] == 0.0 {
            continue;
        }
        let eff_bw = link.bandwidth * congestion_factor(flows[li]);
        t = t.max(load[li] / eff_bw);
    }
    if two_sided {
        // Payload efficiency + per-flow rendezvous overheads.
        t = t / crate::transfer::TWO_SIDED_EFFICIENCY + TWO_SIDED_FLOW_OVERHEAD;
    }
    t
}

/// Naive two-sided concurrent all-to-all (NCCL-style baseline in Fig 15).
pub fn naive_alltoall(topo: &Topology, demand: &[Vec<u64>]) -> f64 {
    schedule_concurrent(topo, demand, true)
}

/// One-sided concurrent all-to-all (UVA reads, no scheduling).
pub fn one_sided_alltoall(topo: &Topology, demand: &[Vec<u64>]) -> f64 {
    schedule_concurrent(topo, demand, false)
}

/// The paper's multi-round one-sided schedule. Returns `(seconds, rounds)`.
///
/// Round 1: all same-switch pairs exchange bidirectionally (disjoint
/// links). Then each cross-switch unordered pair gets its own round; both
/// directions of the pair run together, using each link direction once —
/// no congestion anywhere. For the paper's 4-GPU topology (2 switches × 2
/// GPUs) this yields 1 + 4 = 5 rounds, exactly Fig 9c.
pub fn multi_round_alltoall(topo: &Topology, demand: &[Vec<u64>]) -> (f64, usize) {
    let n = topo.num_gpus;
    let mut total = 0.0;
    let mut rounds = 0;

    // Round of same-switch bidirectional exchanges (all concurrently; the
    // routes are disjoint across switches, and within a switch each
    // direction of each GPU link carries one flow).
    let mut t_local: f64 = 0.0;
    let mut local_any = false;
    for i in 0..n {
        for j in i + 1..n {
            if !topo.same_switch(i, j) {
                continue;
            }
            let fwd = demand[i][j];
            let rev = demand[j][i];
            if fwd == 0 && rev == 0 {
                continue;
            }
            local_any = true;
            let route = topo.route(Node::Gpu(j), Node::Gpu(i));
            let bw = topo.bottleneck(&route);
            // Full duplex: both directions proceed in parallel.
            t_local = t_local.max(fwd.max(rev) as f64 / bw);
        }
    }
    if local_any {
        total += t_local;
        rounds += 1;
    }

    // One round per cross-switch pair, bidirectional.
    for i in 0..n {
        for j in i + 1..n {
            if topo.same_switch(i, j) {
                continue;
            }
            let fwd = demand[i][j];
            let rev = demand[j][i];
            if fwd == 0 && rev == 0 {
                continue;
            }
            let route = topo.route(Node::Gpu(j), Node::Gpu(i));
            let bw = topo.bottleneck(&route);
            total += fwd.max(rev) as f64 / bw;
            rounds += 1;
        }
    }
    (total, rounds)
}

/// Effective aggregate bandwidth (bytes/s) achieved by a schedule over a
/// demand matrix — the y-axis of Fig 15.
pub fn effective_bandwidth(demand: &[Vec<u64>], seconds: f64) -> f64 {
    let total: u64 = demand.iter().flatten().sum();
    if seconds == 0.0 {
        0.0
    } else {
        total as f64 / seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GB: f64 = 1e9;

    fn uniform_demand(n: usize, bytes: u64) -> Vec<Vec<u64>> {
        (0..n)
            .map(|i| (0..n).map(|j| if i == j { 0 } else { bytes }).collect())
            .collect()
    }

    #[test]
    fn multi_round_has_expected_round_count_for_fig9c() {
        let topo = Topology::pcie_tree(4, 2, 16.0 * GB);
        let demand = uniform_demand(4, 64 << 20);
        let (_, rounds) = multi_round_alltoall(&topo, &demand);
        assert_eq!(rounds, 5, "1 same-switch + 4 cross-switch rounds");
    }

    #[test]
    fn ordering_matches_fig15_on_pcie() {
        // two-sided naive < one-sided < multi-round (in bandwidth).
        let topo = Topology::pcie_tree(4, 2, 16.0 * GB);
        let demand = uniform_demand(4, 64 << 20);
        let t_naive = naive_alltoall(&topo, &demand);
        let t_one = one_sided_alltoall(&topo, &demand);
        let (t_multi, _) = multi_round_alltoall(&topo, &demand);
        assert!(t_one < t_naive, "one-sided {t_one} vs naive {t_naive}");
        assert!(
            t_multi < t_one,
            "multi-round {t_multi} vs one-sided {t_one}"
        );
        let bw_naive = effective_bandwidth(&demand, t_naive);
        let bw_multi = effective_bandwidth(&demand, t_multi);
        // Paper: one-sided +23%, multi-round +145% over naive on PCIe.
        let gain = bw_multi / bw_naive;
        assert!(gain > 1.5 && gain < 4.0, "multi-round gain {gain}");
    }

    #[test]
    fn nvlink_multi_round_still_helps_but_less() {
        let nv = Topology::nvlink_clique(4, 50.0 * GB, 16.0 * GB);
        let demand = uniform_demand(4, 64 << 20);
        let t_naive = naive_alltoall(&nv, &demand);
        let (t_multi, _) = multi_round_alltoall(&nv, &demand);
        let pcie = Topology::pcie_tree(4, 2, 16.0 * GB);
        let t_naive_p = naive_alltoall(&pcie, &demand);
        let (t_multi_p, _) = multi_round_alltoall(&pcie, &demand);
        let gain_nv = t_naive / t_multi;
        let gain_pcie = t_naive_p / t_multi_p;
        assert!(
            gain_nv < gain_pcie,
            "NVLink gain {gain_nv} should be below PCIe gain {gain_pcie}"
        );
    }

    #[test]
    fn empty_demand_is_free() {
        let topo = Topology::pcie_tree(4, 2, GB);
        let demand = uniform_demand(4, 0);
        assert_eq!(naive_alltoall(&topo, &demand), 0.0);
        let (t, rounds) = multi_round_alltoall(&topo, &demand);
        assert_eq!(t, 0.0);
        assert_eq!(rounds, 0);
    }

    #[test]
    fn asymmetric_demand_rounds_skip_empty_pairs() {
        let topo = Topology::pcie_tree(4, 2, GB);
        let mut demand = uniform_demand(4, 0);
        demand[0][2] = 1 << 20; // only one cross pair
        let (t, rounds) = multi_round_alltoall(&topo, &demand);
        assert_eq!(rounds, 1);
        assert!(t > 0.0);
    }
}
