//! Shared training-method runners for the accuracy experiments
//! (Fig 2, Fig 12, Table 3): train a method for N epochs, recording test
//! accuracy after each epoch.

use fgnn_graph::Dataset;
use fgnn_memsim::presets::Machine;
use fgnn_memsim::stage::StageTimings;
use fgnn_nn::model::Arch;
use fgnn_nn::Adam;
use freshgnn::baselines::{ClusterGcnTrainer, GasConfig, GasTrainer};
use freshgnn::driver::{Driver, Workload};
use freshgnn::{FreshGnnConfig, Obs, Trainer};

/// A training method under comparison.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    /// Vanilla neighbor sampling — the accuracy target.
    NeighborSampling,
    /// GNNAutoScale.
    Gas,
    /// ClusterGCN.
    ClusterGcn,
    /// GraphFM (feature-momentum history).
    GraphFm,
    /// FreshGNN with the paper's default policy.
    FreshGnn,
}

impl std::fmt::Display for Method {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Method::NeighborSampling => write!(f, "NS-target"),
            Method::Gas => write!(f, "GAS"),
            Method::ClusterGcn => write!(f, "ClusterGCN"),
            Method::GraphFm => write!(f, "GraphFM"),
            Method::FreshGnn => write!(f, "FreshGNN"),
        }
    }
}

/// All comparison methods in Table 3 order.
pub const TABLE3_METHODS: [Method; 5] = [
    Method::NeighborSampling,
    Method::Gas,
    Method::ClusterGcn,
    Method::GraphFm,
    Method::FreshGnn,
];

/// Hyper-parameters shared across methods for a fair comparison.
///
/// Fairness note: the methods have wildly different steps-per-epoch (NS
/// takes `|train|/batch` steps; GAS/ClusterGCN take one step per cluster
/// group, often 50–100× more on sparse-label graphs). The paper compares
/// *converged* accuracy, so we give every method the same **optimizer-step
/// budget** and report its best test accuracy along the way.
#[derive(Clone, Debug)]
pub struct RunSpec {
    /// GNN architecture.
    pub arch: Arch,
    /// Hidden width.
    pub hidden: usize,
    /// Sampling fanouts (NS/FreshGNN) — also sets model depth for all.
    pub fanouts: Vec<usize>,
    /// Mini-batch size (NS/FreshGNN).
    pub batch_size: usize,
    /// Learning rate.
    pub lr: f32,
    /// Optimizer steps to spend per method.
    pub target_steps: usize,
    /// FreshGNN cache thresholds.
    pub p_grad: f32,
    /// FreshGNN staleness bound.
    pub t_stale: u32,
}

impl RunSpec {
    /// Reasonable defaults for the scaled datasets.
    pub fn new(arch: Arch, target_steps: usize) -> Self {
        RunSpec {
            arch,
            hidden: 64,
            fanouts: vec![5, 5],
            batch_size: 128,
            lr: 0.003,
            target_steps,
            p_grad: 0.9,
            t_stale: 100,
        }
    }
}

/// Train `method` on `ds` for ~`target_steps` optimizer steps (whole
/// epochs; the last may overshoot) and return test accuracy after each
/// epoch.
pub fn run_method(ds: &Dataset, method: Method, spec: &RunSpec, seed: u64) -> Vec<f64> {
    run_method_timed(ds, method, spec, seed).0
}

/// Like [`run_method`], additionally returning the run's cumulative
/// per-stage time/traffic attribution and its observability state (spans
/// plus metrics — every method trains through `freshgnn::Driver`, so
/// both are populated uniformly; see `--trace-out` / `--metrics-out`).
pub fn run_method_timed(
    ds: &Dataset,
    method: Method,
    spec: &RunSpec,
    seed: u64,
) -> (Vec<f64>, StageTimings, Obs) {
    let machine = Machine::single_a100();
    let (arch, hidden, fanouts) = (spec.arch, spec.hidden, spec.fanouts.clone());
    // GAS and ClusterGCN take one step per cluster (group).
    let num_parts = (ds.num_nodes() / spec.batch_size.max(1)).clamp(2, 64);
    match method {
        Method::NeighborSampling | Method::FreshGnn => {
            let cfg = if method == Method::FreshGnn {
                FreshGnnConfig {
                    p_grad: spec.p_grad,
                    t_stale: spec.t_stale,
                    fanouts,
                    batch_size: spec.batch_size,
                    ..Default::default()
                }
            } else {
                FreshGnnConfig::neighbor_sampling(fanouts, spec.batch_size)
            };
            let steps_per_epoch = ds.train_nodes.len().div_ceil(spec.batch_size);
            let t = Trainer::new(ds, arch, hidden, machine, cfg, seed);
            train_curve(ds, t, steps_per_epoch, spec)
        }
        Method::Gas | Method::GraphFm => {
            let cfg = GasConfig {
                num_parts,
                max_neighbors: 64,
                momentum: (method == Method::GraphFm).then_some(0.3),
            };
            let t = GasTrainer::new(ds, arch, hidden, fanouts, machine, cfg, seed);
            train_curve(ds, t, num_parts, spec)
        }
        Method::ClusterGcn => {
            let q = 2;
            let t = ClusterGcnTrainer::new(ds, arch, hidden, fanouts, num_parts, q, machine, seed);
            train_curve(ds, t, num_parts.div_ceil(q), spec)
        }
    }
}

/// Train `t` for the whole epochs of `steps_per_epoch` that reach
/// `spec.target_steps`, evaluating about 24 times along the way and after
/// the last epoch.
fn train_curve<W: Workload<Dataset = Dataset>>(
    ds: &Dataset,
    mut t: Driver<W>,
    steps_per_epoch: usize,
    spec: &RunSpec,
) -> (Vec<f64>, StageTimings, Obs) {
    let mut opt = Adam::new(spec.lr);
    let eval_nodes = &ds.test_nodes[..ds.test_nodes.len().min(2000)];
    let epochs = spec.target_steps.div_ceil(steps_per_epoch.max(1)).max(1);
    let eval_every = (epochs / 24).max(1);
    let mut curve = Vec::new();
    let mut timings = StageTimings::new();
    for e in 0..epochs {
        let stats = t.train_epoch(ds, &mut opt);
        timings.merge(&stats.timings);
        if e % eval_every == 0 || e + 1 == epochs {
            curve.push(t.evaluate(ds, eval_nodes, 256));
        }
    }
    (curve, timings, std::mem::take(&mut t.obs))
}

/// Best (max) accuracy of a curve — the paper reports converged accuracy.
pub fn best(curve: &[f64]) -> f64 {
    curve.iter().copied().fold(0.0, f64::max)
}
