//! Softmax cross-entropy loss for node classification.

use fgnn_tensor::{softmax, Matrix};

/// Mean softmax cross-entropy over a batch.
///
/// Returns `(loss, d_logits)` where `d_logits = (softmax(z) - onehot) / n`
/// — the fused gradient, numerically stable via log-softmax.
pub fn softmax_cross_entropy(logits: &Matrix, labels: &[u16]) -> (f32, Matrix) {
    let mut grad = Matrix::default();
    let loss = softmax_cross_entropy_into(logits, labels, &mut grad);
    (loss, grad)
}

/// [`softmax_cross_entropy`] with `d_logits` written into a reused buffer
/// (reshaped to fit, every entry overwritten); returns the loss.
pub fn softmax_cross_entropy_into(logits: &Matrix, labels: &[u16], grad: &mut Matrix) -> f32 {
    assert_eq!(logits.rows(), labels.len(), "batch/label size mismatch");
    assert!(!labels.is_empty(), "empty batch");
    let n = logits.rows();
    let inv_n = 1.0 / n as f32;

    // `grad` holds the log-probabilities until the loss has read them.
    grad.resize(n, logits.cols());
    grad.as_mut_slice().copy_from_slice(logits.as_slice());
    softmax::log_softmax_rows_inplace(grad);

    let mut loss = 0.0;
    for (r, &y) in labels.iter().enumerate() {
        let y = y as usize;
        debug_assert!(y < logits.cols(), "label {y} out of range");
        let g = grad.row_mut(r);
        loss -= g[y];
        for x in g.iter_mut() {
            *x = x.exp(); // softmax probabilities
        }
        g[y] -= 1.0;
        for x in g.iter_mut() {
            *x *= inv_n;
        }
    }
    loss * inv_n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_logits_give_log_c_loss() {
        let logits = Matrix::zeros(4, 5);
        let labels = vec![0, 1, 2, 3];
        let (loss, _) = softmax_cross_entropy(&logits, &labels);
        assert!((loss - (5.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn confident_correct_prediction_has_low_loss() {
        let mut logits = Matrix::zeros(1, 3);
        logits.set(0, 2, 10.0);
        let (loss, _) = softmax_cross_entropy(&logits, &[2]);
        assert!(loss < 1e-3, "loss {loss}");
    }

    #[test]
    fn gradient_rows_sum_to_zero() {
        let logits = Matrix::from_vec(2, 3, vec![1.0, -2.0, 0.5, 3.0, 0.0, -1.0]);
        let (_, grad) = softmax_cross_entropy(&logits, &[0, 2]);
        for r in 0..2 {
            let s: f32 = grad.row(r).iter().sum();
            assert!(s.abs() < 1e-6, "row {r} sums to {s}");
        }
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let logits = Matrix::from_vec(2, 3, vec![0.4, -0.3, 0.9, -1.2, 0.1, 0.8]);
        let labels = vec![2u16, 0u16];
        let (_, grad) = softmax_cross_entropy(&logits, &labels);
        let eps = 1e-3;
        for r in 0..2 {
            for c in 0..3 {
                let mut lp = logits.clone();
                lp.set(r, c, lp.get(r, c) + eps);
                let mut lm = logits.clone();
                lm.set(r, c, lm.get(r, c) - eps);
                let (fp, _) = softmax_cross_entropy(&lp, &labels);
                let (fm, _) = softmax_cross_entropy(&lm, &labels);
                let numeric = (fp - fm) / (2.0 * eps);
                assert!(
                    (grad.get(r, c) - numeric).abs() < 1e-3,
                    "({r},{c}): analytic {} numeric {}",
                    grad.get(r, c),
                    numeric
                );
            }
        }
    }

    #[test]
    fn stable_for_extreme_logits() {
        let logits = Matrix::from_vec(1, 2, vec![1000.0, -1000.0]);
        let (loss, grad) = softmax_cross_entropy(&logits, &[0]);
        assert!(loss.is_finite());
        assert!(grad.as_slice().iter().all(|x| x.is_finite()));
    }
}
