//! Numeric probes used by the paper's analysis figures: cosine similarity
//! between embedding snapshots (Fig 3), estimation error between approximate
//! and authentic embeddings (Fig 1), and quantile summaries.

use crate::Matrix;

/// Cosine similarity between two vectors. Returns 1.0 when both are zero
/// (identical), 0.0 when exactly one is zero.
pub fn cosine_similarity(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut dot = 0.0;
    let mut na = 0.0;
    let mut nb = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        dot += x * y;
        na += x * x;
        nb += y * y;
    }
    if na == 0.0 && nb == 0.0 {
        1.0
    } else if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na.sqrt() * nb.sqrt())
    }
}

/// Per-row cosine similarity between two equal-shaped matrices.
///
/// This is the Fig 3 probe: rows are node embeddings at iterations `t` and
/// `t - s`.
pub fn row_cosine_similarities(a: &Matrix, b: &Matrix) -> Vec<f32> {
    assert_eq!(a.shape(), b.shape(), "row_cosine_similarities shape");
    (0..a.rows())
        .map(|r| cosine_similarity(a.row(r), b.row(r)))
        .collect()
}

/// Mean L2 distance between corresponding rows: the paper's estimation error
/// `mean_v ||h~_v - h_v||` (Fig 1).
pub fn mean_row_l2_distance(approx: &Matrix, exact: &Matrix) -> f32 {
    assert_eq!(approx.shape(), exact.shape(), "mean_row_l2_distance shape");
    if approx.rows() == 0 {
        return 0.0;
    }
    let mut total = 0.0;
    for r in 0..approx.rows() {
        let d: f32 = approx
            .row(r)
            .iter()
            .zip(exact.row(r))
            .map(|(&x, &y)| (x - y) * (x - y))
            .sum();
        total += d.sqrt();
    }
    total / approx.rows() as f32
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation.
/// Returns `NaN` for empty input.
pub fn quantile(values: &[f32], q: f32) -> f32 {
    if values.is_empty() {
        return f32::NAN;
    }
    let mut v = values.to_vec();
    v.sort_unstable_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f32;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        v[lo]
    } else {
        let w = pos - lo as f32;
        v[lo] * (1.0 - w) + v[hi] * w
    }
}

/// Fraction of `values` strictly greater than `threshold`.
pub fn fraction_above(values: &[f32], threshold: f32) -> f32 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().filter(|&&x| x > threshold).count() as f32 / values.len() as f32
}

/// Arithmetic mean; 0 for empty input.
pub(crate) fn mean(values: &[f32]) -> f32 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f32>() / values.len() as f32
    }
}

/// Pearson correlation coefficient between two equal-length samples.
/// Returns 0 for degenerate inputs (length < 2 or zero variance).
pub fn pearson(x: &[f32], y: &[f32]) -> f32 {
    assert_eq!(x.len(), y.len(), "pearson: length mismatch");
    let n = x.len();
    if n < 2 {
        return 0.0;
    }
    let mx = mean(x);
    let my = mean(y);
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (&a, &b) in x.iter().zip(y) {
        let dx = a - mx;
        let dy = b - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx == 0.0 || syy == 0.0 {
        0.0
    } else {
        sxy / (sxx.sqrt() * syy.sqrt())
    }
}

/// Spearman rank correlation: Pearson over the rank transforms (average
/// ranks for ties).
pub fn spearman(x: &[f32], y: &[f32]) -> f32 {
    assert_eq!(x.len(), y.len(), "spearman: length mismatch");
    pearson(&ranks(x), &ranks(y))
}

fn ranks(v: &[f32]) -> Vec<f32> {
    let mut order: Vec<usize> = (0..v.len()).collect();
    order.sort_by(|&a, &b| v[a].partial_cmp(&v[b]).expect("NaN in rank input"));
    let mut r = vec![0.0f32; v.len()];
    let mut i = 0;
    while i < order.len() {
        // Group ties and assign the average rank.
        let mut j = i;
        while j + 1 < order.len() && v[order[j + 1]] == v[order[i]] {
            j += 1;
        }
        let avg = (i + j) as f32 / 2.0;
        for &k in &order[i..=j] {
            r[k] = avg;
        }
        i = j + 1;
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cosine_of_identical_is_one() {
        assert!((cosine_similarity(&[1.0, 2.0], &[1.0, 2.0]) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_of_orthogonal_is_zero() {
        assert!(cosine_similarity(&[1.0, 0.0], &[0.0, 1.0]).abs() < 1e-6);
    }

    #[test]
    fn cosine_of_opposite_is_minus_one() {
        assert!((cosine_similarity(&[1.0, 1.0], &[-1.0, -1.0]) + 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_zero_vector_conventions() {
        assert_eq!(cosine_similarity(&[0.0, 0.0], &[0.0, 0.0]), 1.0);
        assert_eq!(cosine_similarity(&[0.0, 0.0], &[1.0, 0.0]), 0.0);
    }

    #[test]
    fn row_cosine_shapes_and_values() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        let b = Matrix::from_vec(2, 2, vec![2.0, 0.0, 1.0, 0.0]);
        let s = row_cosine_similarities(&a, &b);
        assert!((s[0] - 1.0).abs() < 1e-6);
        assert!(s[1].abs() < 1e-6);
    }

    #[test]
    fn estimation_error_zero_for_equal() {
        let a = Matrix::from_fn(3, 4, |r, c| (r + c) as f32);
        assert_eq!(mean_row_l2_distance(&a, &a), 0.0);
    }

    #[test]
    fn estimation_error_known_value() {
        let a = Matrix::zeros(2, 2);
        let b = Matrix::from_vec(2, 2, vec![3.0, 4.0, 0.0, 0.0]);
        // Row distances: 5 and 0, mean 2.5.
        assert!((mean_row_l2_distance(&a, &b) - 2.5).abs() < 1e-6);
    }

    #[test]
    fn quantile_endpoints_and_median() {
        let v = vec![1.0, 3.0, 2.0, 4.0, 5.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn fraction_above_counts_strictly() {
        let v = vec![0.9, 0.95, 0.96, 0.99];
        assert!((fraction_above(&v, 0.95) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn pearson_detects_linear_relation() {
        let x = vec![1.0, 2.0, 3.0, 4.0];
        let y = vec![2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&x, &y) - 1.0).abs() < 1e-6);
        let yn: Vec<f32> = y.iter().map(|&v| -v).collect();
        assert!((pearson(&x, &yn) + 1.0).abs() < 1e-6);
    }

    #[test]
    fn pearson_degenerate_is_zero() {
        assert_eq!(pearson(&[1.0], &[2.0]), 0.0);
        assert_eq!(pearson(&[1.0, 1.0], &[2.0, 3.0]), 0.0);
    }

    #[test]
    fn spearman_captures_monotone_nonlinear() {
        let x = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let y: Vec<f32> = x.iter().map(|&v| v * v * v).collect(); // monotone
        assert!((spearman(&x, &y) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn spearman_handles_ties() {
        let x = vec![1.0, 1.0, 2.0, 3.0];
        let y = vec![5.0, 5.0, 6.0, 7.0];
        let s = spearman(&x, &y);
        assert!(s > 0.95, "tied monotone {s}");
    }
}
