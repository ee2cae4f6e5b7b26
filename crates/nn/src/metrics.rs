//! Evaluation metrics.

use fgnn_tensor::Matrix;

/// Fraction of rows whose argmax equals the label.
pub fn accuracy(logits: &Matrix, labels: &[u16]) -> f64 {
    assert_eq!(logits.rows(), labels.len());
    if labels.is_empty() {
        return 0.0;
    }
    let correct = labels
        .iter()
        .enumerate()
        .filter(|&(r, &y)| argmax(logits.row(r)) == y as usize)
        .count();
    correct as f64 / labels.len() as f64
}

/// Index of the maximum entry (first on ties).
pub(crate) fn argmax(row: &[f32]) -> usize {
    let mut best = 0;
    let mut best_v = f32::NEG_INFINITY;
    for (i, &v) in row.iter().enumerate() {
        if v > best_v {
            best_v = v;
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_counts_argmax_matches() {
        let logits = Matrix::from_vec(3, 2, vec![1.0, 0.0, 0.0, 1.0, 5.0, -1.0]);
        assert!((accuracy(&logits, &[0, 1, 0]) - 1.0).abs() < 1e-9);
        assert!((accuracy(&logits, &[1, 1, 0]) - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn argmax_first_on_ties() {
        assert_eq!(argmax(&[1.0, 1.0, 0.5]), 0);
        assert_eq!(argmax(&[-3.0, -1.0, -2.0]), 1);
    }
}
