//! Hardware presets matching the paper's evaluation machines (§7.1) and a
//! GPU compute-time model.
//!
//! Constants are published vendor specs; the utilization factor is the one
//! free parameter and is documented where it is set.

use crate::topology::Topology;

/// One gigabyte per second.
pub const GB: f64 = 1e9;

/// GPU characteristics used by the compute-time model.
#[derive(Clone, Copy, Debug)]
pub struct GpuSpec {
    /// Peak fp32 throughput (FLOP/s).
    pub peak_flops: f64,
    /// Achievable fraction of peak on sparse-aggregation GNN kernels.
    /// GNN mini-batch kernels are memory-bound; 0.12 reproduces the
    /// compute/transfer balance the paper reports (>85% of time in data
    /// loading for DGL on papers100M).
    pub utilization: f64,
    /// HBM capacity in bytes (for OOM accounting, Table 3 / Fig 10).
    pub memory_bytes: u64,
}

impl GpuSpec {
    /// NVIDIA A100-40GB (single-GPU experiments).
    pub fn a100_40gb() -> Self {
        GpuSpec {
            peak_flops: 19.5e12,
            utilization: 0.12,
            memory_bytes: 40 << 30,
        }
    }

    /// NVIDIA V100-16GB (multi-GPU p3.16xlarge experiments).
    pub(crate) fn v100_16gb() -> Self {
        GpuSpec {
            peak_flops: 15.7e12,
            utilization: 0.12,
            memory_bytes: 16 << 30,
        }
    }

    /// Simulated seconds to execute `flops` floating-point operations.
    pub fn compute_seconds(&self, flops: f64) -> f64 {
        flops / (self.peak_flops * self.utilization)
    }
}

/// A full machine preset: GPUs plus interconnect.
#[derive(Clone, Debug)]
pub struct Machine {
    /// Human-readable name.
    pub name: &'static str,
    /// The GPU model.
    pub gpu: GpuSpec,
    /// The interconnect.
    pub topology: Topology,
}

impl Machine {
    /// The paper's single-GPU server: one A100 behind PCIe 3.0 ×16
    /// (~16 GB/s per direction to host memory).
    pub fn single_a100() -> Self {
        Machine {
            name: "1xA100 / PCIe3 x16",
            gpu: GpuSpec::a100_40gb(),
            topology: Topology::pcie_tree(1, 1, 16.0 * GB),
        }
    }

    /// PCIe-only multi-GPU box (Fig 9c shape): `num_gpus` V100s, two per
    /// switch, switches bridged by the host.
    pub fn pcie_v100(num_gpus: usize) -> Self {
        Machine {
            name: "V100s / PCIe tree",
            gpu: GpuSpec::v100_16gb(),
            topology: Topology::pcie_tree(num_gpus, 2, 16.0 * GB),
        }
    }
}

/// FLOPs of one dense layer application: `2 * rows * in_dim * out_dim`
/// (multiply-add).
pub fn dense_flops(rows: usize, in_dim: usize, out_dim: usize) -> f64 {
    2.0 * rows as f64 * in_dim as f64 * out_dim as f64
}

/// FLOPs of mean aggregation over `edges` edges of dimension `dim`.
pub fn aggregation_flops(edges: usize, dim: usize) -> f64 {
    2.0 * edges as f64 * dim as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_time_scales_linearly() {
        let gpu = GpuSpec::a100_40gb();
        let t1 = gpu.compute_seconds(1e12);
        let t2 = gpu.compute_seconds(2e12);
        assert!((t2 / t1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn presets_have_expected_shapes() {
        let m = Machine::single_a100();
        assert_eq!(m.topology.num_gpus, 1);
        let p = Machine::pcie_v100(8);
        assert_eq!(p.topology.num_gpus, 8);
        assert!(p.gpu.memory_bytes < m.gpu.memory_bytes);
    }

    #[test]
    fn flop_helpers() {
        assert_eq!(dense_flops(10, 4, 8), 640.0);
        assert_eq!(aggregation_flops(100, 16), 3200.0);
    }
}
