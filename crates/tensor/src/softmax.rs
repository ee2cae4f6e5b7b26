//! Row-wise softmax / log-softmax and the fused softmax-cross-entropy
//! gradient used by the classification losses in `fgnn-nn`.

use crate::Matrix;

/// Row-wise log-softmax, in place.
pub fn log_softmax_rows_inplace(m: &mut Matrix) {
    for r in 0..m.rows() {
        let row = m.row_mut(r);
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let log_sum = row.iter().map(|&x| (x - max).exp()).sum::<f32>().ln() + max;
        for x in row.iter_mut() {
            *x -= log_sum;
        }
    }
}

/// Softmax over a ragged segment of edge scores (per-destination-node
/// attention normalization for GAT).
///
/// `scores` is indexed by edge; `segments[i]..segments[i+1]` delimits the
/// edges of destination node `i` (CSR-style offsets). Normalizes in place.
pub fn segment_softmax_inplace(scores: &mut [f32], segments: &[usize]) {
    for w in segments.windows(2) {
        let (lo, hi) = (w[0], w[1]);
        if lo == hi {
            continue;
        }
        let seg = &mut scores[lo..hi];
        let max = seg.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for x in seg.iter_mut() {
            *x = (*x - max).exp();
            sum += *x;
        }
        let inv = 1.0 / sum;
        for x in seg.iter_mut() {
            *x *= inv;
        }
    }
}

/// Backward of [`segment_softmax_inplace`]: given softmax outputs `y` and
/// upstream gradient `dy` per edge, writes `dx` in place of `dy`.
///
/// For each segment: `dx_j = y_j * (dy_j - sum_k y_k dy_k)`.
pub fn segment_softmax_backward_inplace(y: &[f32], dy: &mut [f32], segments: &[usize]) {
    debug_assert_eq!(y.len(), dy.len());
    for w in segments.windows(2) {
        let (lo, hi) = (w[0], w[1]);
        if lo == hi {
            continue;
        }
        let dot: f32 = y[lo..hi]
            .iter()
            .zip(&dy[lo..hi])
            .map(|(&a, &b)| a * b)
            .sum();
        for j in lo..hi {
            dy[j] = y[j] * (dy[j] - dot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_softmax_rows_exponentiate_to_one() {
        let mut m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]);
        log_softmax_rows_inplace(&mut m);
        for r in 0..2 {
            let s: f32 = m.row(r).iter().map(|x| x.exp()).sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
        // Larger logits get larger probabilities.
        assert!(m.get(0, 2) > m.get(0, 1));
    }

    #[test]
    fn log_softmax_stable_for_large_logits() {
        let mut m = Matrix::from_vec(1, 2, vec![1000.0, 1001.0]);
        log_softmax_rows_inplace(&mut m);
        assert!(m.as_slice().iter().all(|x| x.is_finite()));
        // Exact up to the rounding of `log_sum` ≈ 1001 (ulp ≈ 6e-5).
        assert!((m.row(0).iter().map(|x| x.exp()).sum::<f32>() - 1.0).abs() < 1e-3);
    }

    #[test]
    fn log_softmax_matches_log_of_softmax() {
        let logits = [0.5_f32, -1.5, 2.0, 0.0];
        let mut b = Matrix::from_vec(1, 4, logits.to_vec());
        log_softmax_rows_inplace(&mut b);
        let sum: f64 = logits.iter().map(|&x| (x as f64).exp()).sum();
        for (&x, &y) in logits.iter().zip(b.as_slice()) {
            let softmax = (x as f64).exp() / sum;
            assert!((softmax.ln() as f32 - y).abs() < 1e-5);
        }
    }

    #[test]
    fn segment_softmax_normalizes_each_segment() {
        let mut s = vec![1.0, 2.0, 3.0, 0.0, 0.0];
        let segs = vec![0, 3, 3, 5];
        segment_softmax_inplace(&mut s, &segs);
        assert!((s[0] + s[1] + s[2] - 1.0).abs() < 1e-5);
        assert!((s[3] + s[4] - 1.0).abs() < 1e-5);
        assert!((s[3] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn segment_softmax_backward_matches_finite_difference() {
        let x = vec![0.3_f32, -0.7, 1.1, 0.2, -0.4];
        let segs = vec![0usize, 3, 5];
        let upstream = vec![0.9_f32, -0.3, 0.5, 1.0, -1.0];
        // Analytic.
        let mut y = x.clone();
        segment_softmax_inplace(&mut y, &segs);
        let mut dx = upstream.clone();
        segment_softmax_backward_inplace(&y, &mut dx, &segs);
        // Numeric: d/dx_i sum_j upstream_j * softmax(x)_j.
        let f = |x: &[f32]| -> f32 {
            let mut y = x.to_vec();
            segment_softmax_inplace(&mut y, &segs);
            y.iter().zip(&upstream).map(|(&a, &b)| a * b).sum()
        };
        for i in 0..x.len() {
            let eps = 1e-3;
            let mut xp = x.clone();
            xp[i] += eps;
            let mut xm = x.clone();
            xm[i] -= eps;
            let numeric = (f(&xp) - f(&xm)) / (2.0 * eps);
            assert!(
                (dx[i] - numeric).abs() < 1e-2,
                "i={i}: analytic {} vs numeric {}",
                dx[i],
                numeric
            );
        }
    }
}
