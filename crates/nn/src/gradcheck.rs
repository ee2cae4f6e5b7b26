//! Finite-difference gradient checking.
//!
//! Every layer's hand-written backward pass is validated against a central
//! finite difference of the full model loss. This is the safety net that
//! lets the rest of the reproduction trust the per-node embedding gradients
//! the cache policy consumes.
//!
//! Methodology: with f32 forward passes, per-entry finite differences carry
//! ~1e-4 absolute noise (loss ulp / eps) and ReLU kinks add sparse ~1e-3
//! noise, so per-entry *relative* comparisons produce false alarms on small
//! gradient entries. Instead we compare whole gradient tensors by **cosine
//! similarity** plus a max-absolute-error bound — a systematic backward bug
//! (wrong scaling, missing term, transposed matmul) destroys the cosine,
//! while unbiased noise does not.

use crate::loss::softmax_cross_entropy;
use crate::model::Model;
use fgnn_graph::block::MiniBatch;
use fgnn_tensor::{stats, Matrix};

/// Result of a gradient check.
#[derive(Debug)]
pub struct GradCheckReport {
    /// Minimum cosine similarity between analytic and numeric gradients,
    /// over the checked tensors (1.0 = perfect agreement).
    pub min_cosine: f32,
    /// Largest absolute difference across all checked entries.
    pub max_abs_err: f32,
    /// Number of scalar entries compared.
    pub checked: usize,
}

impl GradCheckReport {
    /// Conventional pass criterion used by the test-suite.
    pub fn passes(&self) -> bool {
        self.min_cosine > 0.99 && self.max_abs_err < 0.05
    }
}

const EPS: f32 = 1e-3;

/// Compare the model's analytic parameter gradients against central finite
/// differences of the cross-entropy loss.
///
/// Checks every `stride`-th scalar of every parameter tensor; cosine is
/// computed per tensor over the checked entries.
pub fn check_parameter_gradients(
    model: &mut Model,
    mb: &MiniBatch,
    h0: &Matrix,
    labels: &[u16],
    stride: usize,
) -> GradCheckReport {
    let stride = stride.max(1);
    model.zero_grad();
    let trace = model.forward(mb, h0.clone());
    let (_, d_top) = softmax_cross_entropy(trace.h.last().unwrap(), labels);
    model.backward(mb, &trace, d_top);
    let analytic: Vec<Matrix> = model.params_mut().iter().map(|p| p.grad.clone()).collect();

    let mut min_cos: f32 = 1.0;
    let mut max_abs: f32 = 0.0;
    let mut checked = 0usize;

    for pi in 0..analytic.len() {
        let n_entries = analytic[pi].rows() * analytic[pi].cols();
        let mut a_vec = Vec::new();
        let mut n_vec = Vec::new();
        for k in (0..n_entries).step_by(stride) {
            let mut loss_at = |delta: f32| -> f32 {
                {
                    let mut params = model.params_mut();
                    params[pi].value.as_mut_slice()[k] += delta;
                }
                let trace = model.forward(mb, h0.clone());
                let (loss, _) = softmax_cross_entropy(trace.h.last().unwrap(), labels);
                {
                    let mut params = model.params_mut();
                    params[pi].value.as_mut_slice()[k] -= delta;
                }
                loss
            };
            let numeric = (loss_at(EPS) - loss_at(-EPS)) / (2.0 * EPS);
            let a = analytic[pi].as_slice()[k];
            max_abs = max_abs.max((a - numeric).abs());
            a_vec.push(a);
            n_vec.push(numeric);
            checked += 1;
        }
        // Skip cosine for (near-)zero tensors — direction is undefined.
        let scale = a_vec.iter().map(|x| x * x).sum::<f32>().sqrt();
        if scale > 1e-3 {
            min_cos = min_cos.min(stats::cosine_similarity(&a_vec, &n_vec));
        }
    }
    GradCheckReport {
        min_cosine: min_cos,
        max_abs_err: max_abs,
        checked,
    }
}

/// Check the gradient w.r.t. the *input features* — the same machinery that
/// produces the per-node embedding gradients the cache policy uses.
pub fn check_input_gradients(
    model: &mut Model,
    mb: &MiniBatch,
    h0: &Matrix,
    labels: &[u16],
    stride: usize,
) -> GradCheckReport {
    let stride = stride.max(1);
    model.zero_grad();
    let trace = model.forward(mb, h0.clone());
    let (_, d_top) = softmax_cross_entropy(trace.h.last().unwrap(), labels);
    let analytic = model.backward_input_grad(mb, &trace, d_top);

    let mut a_vec = Vec::new();
    let mut n_vec = Vec::new();
    let mut max_abs: f32 = 0.0;
    let n = h0.rows() * h0.cols();
    for k in (0..n).step_by(stride) {
        let mut hp = h0.clone();
        hp.as_mut_slice()[k] += EPS;
        let tp = model.forward(mb, hp);
        let (fp, _) = softmax_cross_entropy(tp.h.last().unwrap(), labels);

        let mut hm = h0.clone();
        hm.as_mut_slice()[k] -= EPS;
        let tm = model.forward(mb, hm);
        let (fm, _) = softmax_cross_entropy(tm.h.last().unwrap(), labels);

        let numeric = (fp - fm) / (2.0 * EPS);
        let a = analytic.as_slice()[k];
        max_abs = max_abs.max((a - numeric).abs());
        a_vec.push(a);
        n_vec.push(numeric);
    }
    GradCheckReport {
        min_cosine: stats::cosine_similarity(&a_vec, &n_vec),
        max_abs_err: max_abs,
        checked: a_vec.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Arch;
    use fgnn_graph::sample::NeighborSampler;
    use fgnn_graph::Csr;
    use fgnn_tensor::Rng;

    fn setup(arch: Arch, seed: u64) -> (MiniBatch, Matrix, Model, Vec<u16>) {
        let mut rng = Rng::new(seed);
        let mut edges = Vec::new();
        for _ in 0..40 {
            let u = rng.below(12) as u32;
            let v = rng.below(12) as u32;
            if u != v {
                edges.push((u, v));
            }
        }
        let g = Csr::from_undirected_edges(12, &edges);
        let mut sampler = NeighborSampler::new(12);
        let mb = sampler.sample(&g, &[0, 3, 7], &[4, 4], &mut rng);
        let h0 = rng.normal_matrix(mb.input_nodes().len(), 3, 1.0);
        let model = Model::new(arch, &[3, 5, 4], &mut rng);
        let labels = vec![1u16, 0u16, 3u16];
        (mb, h0, model, labels)
    }

    #[test]
    fn gcn_parameter_gradients_check_out() {
        let (mb, h0, mut model, labels) = setup(Arch::Gcn, 11);
        let r = check_parameter_gradients(&mut model, &mb, &h0, &labels, 2);
        assert!(r.checked > 20);
        assert!(r.passes(), "{r:?}");
    }

    #[test]
    fn sage_parameter_gradients_check_out() {
        let (mb, h0, mut model, labels) = setup(Arch::Sage, 12);
        let r = check_parameter_gradients(&mut model, &mb, &h0, &labels, 2);
        assert!(r.passes(), "{r:?}");
    }

    #[test]
    fn gat_parameter_gradients_check_out() {
        let (mb, h0, mut model, labels) = setup(Arch::Gat, 13);
        let r = check_parameter_gradients(&mut model, &mb, &h0, &labels, 2);
        assert!(r.passes(), "{r:?}");
    }

    #[test]
    fn input_gradients_check_out_for_all_archs() {
        for (arch, seed) in [(Arch::Gcn, 21), (Arch::Sage, 22), (Arch::Gat, 23)] {
            let (mb, h0, mut model, labels) = setup(arch, seed);
            let r = check_input_gradients(&mut model, &mb, &h0, &labels, 1);
            assert!(r.passes(), "{arch:?}: {r:?}");
        }
    }

    #[test]
    fn gradcheck_detects_a_planted_bug() {
        // Sanity check of the checker itself: corrupt the analytic gradient
        // path by scaling a weight after the forward trace is recorded —
        // the cosine must drop.
        let (mb, h0, mut model, labels) = setup(Arch::Gcn, 31);
        model.zero_grad();
        let trace = model.forward(&mb, h0.clone());
        let (_, d_top) = softmax_cross_entropy(trace.h.last().unwrap(), &labels);
        model.backward(&mb, &trace, d_top);
        // Corrupt: negate the recorded gradient of the first parameter.
        {
            let mut ps = model.params_mut();
            let g = ps[0].grad.clone();
            ps[0].grad = g.map(|x| -x);
        }
        let corrupted: Vec<Matrix> = model.params_mut().iter().map(|p| p.grad.clone()).collect();
        // Numeric gradient of that parameter still points the right way, so
        // cosine against the corrupted analytic gradient must be ~-1.
        let mut loss_at = |pi: usize, k: usize, delta: f32| -> f32 {
            {
                let mut params = model.params_mut();
                params[pi].value.as_mut_slice()[k] += delta;
            }
            let trace = model.forward(&mb, h0.clone());
            let (loss, _) = softmax_cross_entropy(trace.h.last().unwrap(), &labels);
            {
                let mut params = model.params_mut();
                params[pi].value.as_mut_slice()[k] -= delta;
            }
            loss
        };
        let mut a = Vec::new();
        let mut n = Vec::new();
        for k in 0..corrupted[0].rows() * corrupted[0].cols() {
            a.push(corrupted[0].as_slice()[k]);
            n.push((loss_at(0, k, EPS) - loss_at(0, k, -EPS)) / (2.0 * EPS));
        }
        let cos = fgnn_tensor::stats::cosine_similarity(&a, &n);
        assert!(cos < -0.9, "corrupted cosine {cos}");
    }
}
