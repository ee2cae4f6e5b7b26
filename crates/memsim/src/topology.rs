//! Interconnect topologies: devices, links, and static routes.
//!
//! Two shapes cover the paper's hardware:
//!
//! * **PCIe tree** (Fig 9c): GPUs sit under PCIe switches; switches hang
//!   off the host (root complex), which also fronts CPU memory. Cross-
//!   switch GPU↔GPU traffic and all GPU↔CPU traffic crosses the host.
//! * **NVLink clique**: every GPU pair has a direct link (p3.16xlarge's
//!   hybrid-cube-mesh approximated as all-to-all); CPU traffic still rides
//!   PCIe through the host.
//!
//! Links are full-duplex: each direction has the stated bandwidth, and the
//! simulator accounts directions independently.

/// A vertex of the interconnect graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Node {
    /// GPU `i`.
    Gpu(usize),
    /// PCIe switch `i`.
    Switch(usize),
    /// Host root complex / CPU memory.
    Host,
}

/// A full-duplex link between two nodes.
#[derive(Clone, Debug)]
pub struct Link {
    /// One endpoint.
    pub a: Node,
    /// The other endpoint.
    pub b: Node,
    /// Per-direction bandwidth in bytes/second.
    pub bandwidth: f64,
}

/// An interconnect topology with precomputed shortest routes.
#[derive(Clone, Debug)]
pub struct Topology {
    /// Number of GPUs.
    pub num_gpus: usize,
    /// GPUs per PCIe switch (0 for NVLink cliques).
    pub gpus_per_switch: usize,
    links: Vec<Link>,
    /// Direct GPU↔GPU links indexed by (min, max) — NVLink cliques.
    direct: bool,
}

impl Topology {
    /// A PCIe tree: `num_gpus` GPUs in groups of `gpus_per_switch` under
    /// switches, all switches on the host. `pcie_bw` is the GPU↔switch and
    /// switch↔host bandwidth (bytes/s per direction).
    pub fn pcie_tree(num_gpus: usize, gpus_per_switch: usize, pcie_bw: f64) -> Self {
        assert!(num_gpus >= 1 && gpus_per_switch >= 1);
        let num_switches = num_gpus.div_ceil(gpus_per_switch);
        let mut links = Vec::new();
        for g in 0..num_gpus {
            links.push(Link {
                a: Node::Gpu(g),
                b: Node::Switch(g / gpus_per_switch),
                bandwidth: pcie_bw,
            });
        }
        for s in 0..num_switches {
            links.push(Link {
                a: Node::Switch(s),
                b: Node::Host,
                bandwidth: pcie_bw,
            });
        }
        Topology {
            num_gpus,
            gpus_per_switch,
            links,
            direct: false,
        }
    }

    /// An NVLink clique: a direct `nvlink_bw` link between every GPU pair,
    /// plus a PCIe path (`pcie_bw`) from each GPU to the host for CPU
    /// memory traffic.
    pub fn nvlink_clique(num_gpus: usize, nvlink_bw: f64, pcie_bw: f64) -> Self {
        assert!(num_gpus >= 1);
        let mut links = Vec::new();
        for i in 0..num_gpus {
            for j in i + 1..num_gpus {
                links.push(Link {
                    a: Node::Gpu(i),
                    b: Node::Gpu(j),
                    bandwidth: nvlink_bw,
                });
            }
        }
        for g in 0..num_gpus {
            links.push(Link {
                a: Node::Gpu(g),
                b: Node::Host,
                bandwidth: pcie_bw,
            });
        }
        Topology {
            num_gpus,
            gpus_per_switch: 1,
            links,
            direct: true,
        }
    }

    /// All links.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// The switch a GPU hangs off (PCIe trees).
    pub(crate) fn switch_of(&self, gpu: usize) -> usize {
        gpu / self.gpus_per_switch
    }

    /// Whether two GPUs share a PCIe switch (always true for cliques —
    /// every pair is "local" over its direct link).
    pub(crate) fn same_switch(&self, a: usize, b: usize) -> bool {
        self.direct || self.switch_of(a) == self.switch_of(b)
    }

    /// Link IDs along the route from `src` to `dst`.
    ///
    /// Panics on unknown endpoints. Directionality is handled by the
    /// transfer engine; this returns the undirected link sequence.
    pub fn route(&self, src: Node, dst: Node) -> Vec<usize> {
        if src == dst {
            return Vec::new();
        }
        if self.direct {
            // Clique: direct GPU-GPU if both GPUs; otherwise via host link.
            if let (Node::Gpu(_), Node::Gpu(_)) = (src, dst) {
                return vec![self.find_link(src, dst)];
            }
            return vec![self.find_link(src, dst)];
        }
        // PCIe tree.
        let hops = |n: Node| -> Vec<Node> {
            match n {
                Node::Gpu(g) => vec![Node::Gpu(g), Node::Switch(self.switch_of(g)), Node::Host],
                Node::Switch(s) => vec![Node::Switch(s), Node::Host],
                Node::Host => vec![Node::Host],
            }
        };
        let up = hops(src);
        let down = hops(dst);
        // Find the meeting point (lowest common ancestor on the tree path).
        let meet = up
            .iter()
            .find(|n| down.contains(n))
            .copied()
            .expect("tree paths meet at host");
        let mut path: Vec<Node> = up.iter().take_while(|&&n| n != meet).copied().collect();
        path.push(meet);
        let mut tail: Vec<Node> = down.iter().take_while(|&&n| n != meet).copied().collect();
        tail.reverse();
        path.extend(tail);
        path.windows(2)
            .map(|w| self.find_link(w[0], w[1]))
            .collect()
    }

    fn find_link(&self, a: Node, b: Node) -> usize {
        self.links
            .iter()
            .position(|l| (l.a == a && l.b == b) || (l.a == b && l.b == a))
            .unwrap_or_else(|| panic!("no link between {a:?} and {b:?}"))
    }

    /// The narrowest bandwidth along a route (bytes/s).
    pub(crate) fn bottleneck(&self, route: &[usize]) -> f64 {
        route
            .iter()
            .map(|&l| self.links[l].bandwidth)
            .fold(f64::INFINITY, f64::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GB: f64 = 1e9;

    #[test]
    fn pcie_tree_routes_same_switch_via_switch_only() {
        let t = Topology::pcie_tree(4, 2, 16.0 * GB);
        let r = t.route(Node::Gpu(0), Node::Gpu(1));
        assert_eq!(r.len(), 2); // gpu0-sw0, sw0-gpu1
        assert!(t.same_switch(0, 1));
        assert!(!t.same_switch(0, 2));
    }

    #[test]
    fn pcie_tree_cross_switch_goes_through_host() {
        let t = Topology::pcie_tree(4, 2, 16.0 * GB);
        let r = t.route(Node::Gpu(0), Node::Gpu(3));
        assert_eq!(r.len(), 4); // gpu0-sw0, sw0-host, host-sw1, sw1-gpu3
    }

    #[test]
    fn pcie_tree_gpu_to_host() {
        let t = Topology::pcie_tree(4, 2, 16.0 * GB);
        let r = t.route(Node::Gpu(2), Node::Host);
        assert_eq!(r.len(), 2);
        assert_eq!(t.bottleneck(&r), 16.0 * GB);
    }

    #[test]
    fn route_to_self_is_empty() {
        let t = Topology::pcie_tree(2, 2, GB);
        assert!(t.route(Node::Gpu(1), Node::Gpu(1)).is_empty());
    }

    #[test]
    fn nvlink_clique_has_direct_links() {
        let t = Topology::nvlink_clique(4, 50.0 * GB, 16.0 * GB);
        let r = t.route(Node::Gpu(0), Node::Gpu(3));
        assert_eq!(r.len(), 1);
        assert_eq!(t.bottleneck(&r), 50.0 * GB);
        assert!(t.same_switch(0, 3));
        // CPU traffic takes the PCIe link.
        let rc = t.route(Node::Gpu(2), Node::Host);
        assert_eq!(rc.len(), 1);
        assert_eq!(t.bottleneck(&rc), 16.0 * GB);
    }

    #[test]
    fn link_count_matches_shape() {
        let t = Topology::pcie_tree(8, 2, GB);
        // 8 gpu-switch + 4 switch-host.
        assert_eq!(t.links().len(), 12);
        let c = Topology::nvlink_clique(4, GB, GB);
        // 6 direct + 4 host.
        assert_eq!(c.links().len(), 10);
    }
}
