//! Matrix arithmetic: matmul (plus the transposed variants backward passes
//! need), elementwise kernels, and row-wise reductions.

use crate::{Matrix, Result};

fn shape_mismatch(a: &Matrix, b: &Matrix, op: &'static str) -> crate::TensorError {
    crate::TensorError::ShapeMismatch {
        lhs: a.shape(),
        rhs: b.shape(),
        op,
    }
}

/// Whether `row` is switched on in a row mask; `None` means every row is.
#[inline]
pub fn is_live(live: Option<&[bool]>, row: usize) -> bool {
    live.is_none_or(|l| l[row])
}

/// `C = A * B` (`m x k` times `k x n`).
///
/// Unblocked i-k-j loop: the inner loop is a contiguous AXPY over a row of
/// `B`, which the compiler auto-vectorizes. This is the single hottest kernel
/// in the workspace (every GNN layer is one or two of these), so it avoids
/// all per-entry bounds checks by iterating slices.
///
/// # Contract (shared by [`matmul_at_b`], [`matmul_a_bt`] and the `_rows` forms)
///
/// Every entry of `C` is bit-identical to the naive triple loop that starts
/// its accumulator at `+0.0` and adds the products in ascending `p`, each
/// product rounded before the add (no FMA, no reassociation, no blocking);
/// the training path's byte-identical goldens rest on this. A term is
/// skipped only where it is `±0.0` for finite operands — an entry of `A`
/// that is zero, or a row the `live` mask switches off — which changes no
/// bit because an accumulator that started at `+0.0` can never hold `-0.0`.
///
/// Non-finite operands: a skipped term contributes nothing, so `0·NaN` and
/// `0·∞` yield no NaN where the zero is an entry of `A` or the row is masked;
/// everywhere else NaN/∞ propagate as IEEE arithmetic has them. No caller
/// relies on either: the NaN-injection hooks (`inject_nan_at`,
/// `tests/chaos.rs`) overwrite a step's reported loss after its kernels have
/// run, so no non-finite operand reaches a kernel on those paths.
pub fn matmul(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    matmul_rows(a, b, None)
}

/// [`matmul`] over the rows of `A` that `live` marks (`None` = all): a row
/// that is not live is left zero in `C`.
pub fn matmul_rows(a: &Matrix, b: &Matrix, live: Option<&[bool]>) -> Result<Matrix> {
    if a.cols() != b.rows() {
        return Err(shape_mismatch(a, b, "matmul"));
    }
    let m = a.rows();
    debug_assert!(live.is_none_or(|l| l.len() == m));
    let mut c = Matrix::zeros(m, b.cols());
    for i in (0..m).filter(|&i| is_live(live, i)) {
        let c_row = c.row_mut(i);
        for (p, &a_ip) in a.row(i).iter().enumerate() {
            if a_ip == 0.0 {
                continue;
            }
            for (c_v, &b_v) in c_row.iter_mut().zip(b.row(p)) {
                *c_v += a_ip * b_v;
            }
        }
    }
    Ok(c)
}

/// `C = A^T * B` (`k x m`^T times `k x n` -> `m x n`).
///
/// Used by weight gradients: `dW = H^T * dOut`. Bit-level contract and
/// non-finite behaviour: see [`matmul`].
pub fn matmul_at_b(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    matmul_at_b_rows(a, b, None)
}

/// [`matmul_at_b`] contracting over the live rows of `A` and `B` only
/// (`None` = all): exact whenever every skipped row of `B` is `±0.0`.
pub fn matmul_at_b_rows(a: &Matrix, b: &Matrix, live: Option<&[bool]>) -> Result<Matrix> {
    if a.rows() != b.rows() {
        return Err(shape_mismatch(a, b, "matmul_at_b"));
    }
    debug_assert!(live.is_none_or(|l| l.len() == a.rows()));
    let mut c = Matrix::zeros(a.cols(), b.cols());
    for p in (0..a.rows()).filter(|&p| is_live(live, p)) {
        let b_row = b.row(p);
        for (i, &a_pi) in a.row(p).iter().enumerate() {
            if a_pi == 0.0 {
                continue;
            }
            for (c_v, &b_v) in c.row_mut(i).iter_mut().zip(b_row) {
                *c_v += a_pi * b_v;
            }
        }
    }
    Ok(c)
}

/// `C = A * B^T` (`m x k` times `n x k`^T -> `m x n`).
///
/// Used by input gradients: `dH = dOut * W^T`. `B` (a weight, small next to
/// `A`) is transposed once so the work is [`matmul`]'s vectorized AXPY loop
/// rather than one scalar dot product per entry. Bit-level contract and
/// non-finite behaviour: see [`matmul`].
pub fn matmul_a_bt(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    matmul_a_bt_rows(a, b, None)
}

/// [`matmul_a_bt`] over the live rows of `A` only (`None` = all): a row that
/// is not live is left zero in `C`.
pub fn matmul_a_bt_rows(a: &Matrix, b: &Matrix, live: Option<&[bool]>) -> Result<Matrix> {
    if a.cols() != b.cols() {
        return Err(shape_mismatch(a, b, "matmul_a_bt"));
    }
    matmul_rows(a, &b.transpose(), live)
}

/// `A += B`.
pub fn add_assign(a: &mut Matrix, b: &Matrix) -> Result<()> {
    a.check_same_shape(b, "add_assign")?;
    for (x, &y) in a.as_mut_slice().iter_mut().zip(b.as_slice()) {
        *x += y;
    }
    Ok(())
}

/// `A += alpha * B` (matrix AXPY).
pub fn axpy(a: &mut Matrix, alpha: f32, b: &Matrix) -> Result<()> {
    a.check_same_shape(b, "axpy")?;
    for (x, &y) in a.as_mut_slice().iter_mut().zip(b.as_slice()) {
        *x += alpha * y;
    }
    Ok(())
}

/// `A -= B`.
pub fn sub_assign(a: &mut Matrix, b: &Matrix) -> Result<()> {
    a.check_same_shape(b, "sub_assign")?;
    for (x, &y) in a.as_mut_slice().iter_mut().zip(b.as_slice()) {
        *x -= y;
    }
    Ok(())
}

/// Elementwise product `A ⊙ B` into a new matrix.
pub fn hadamard(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    a.check_same_shape(b, "hadamard")?;
    let data = a
        .as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(&x, &y)| x * y)
        .collect();
    Ok(Matrix::from_vec(a.rows(), a.cols(), data))
}

/// `A *= alpha`.
pub fn scale(a: &mut Matrix, alpha: f32) {
    a.as_mut_slice().iter_mut().for_each(|x| *x *= alpha);
}

/// Add a row vector `bias` (len = cols) to every row of `a`.
pub fn add_bias(a: &mut Matrix, bias: &[f32]) {
    assert_eq!(a.cols(), bias.len(), "add_bias: dim mismatch");
    for r in 0..a.rows() {
        for (x, &b) in a.row_mut(r).iter_mut().zip(bias) {
            *x += b;
        }
    }
}

/// Column-wise sum of `a` (the bias gradient): returns a vector of len cols.
pub fn column_sums(a: &Matrix) -> Vec<f32> {
    let mut out = vec![0.0; a.cols()];
    for r in 0..a.rows() {
        for (o, &v) in out.iter_mut().zip(a.row(r)) {
            *o += v;
        }
    }
    out
}

/// Per-row L2 norms.
pub fn row_norms(m: &Matrix) -> Vec<f32> {
    (0..m.rows())
        .map(|r| m.row(r).iter().map(|&x| x * x).sum::<f32>().sqrt())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: usize, cols: usize, v: &[f32]) -> Matrix {
        Matrix::from_vec(rows, cols, v.to_vec())
    }

    #[test]
    fn matmul_small_known() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_shape_error() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matmul(&a, &b).is_err());
    }

    #[test]
    fn transposed_variants_agree_with_explicit_transpose() {
        let a = Matrix::from_fn(4, 3, |r, c| (r * 3 + c) as f32 * 0.5 - 2.0);
        let b = Matrix::from_fn(4, 2, |r, c| (r + c) as f32 * 1.5 + 1.0);
        let atb = matmul_at_b(&a, &b).unwrap();
        let expect = matmul(&a.transpose(), &b).unwrap();
        assert_eq!(atb, expect);

        let c = Matrix::from_fn(5, 3, |r, c| (r * 2 + c) as f32 - 3.0);
        let abt = matmul_a_bt(&a, &c).unwrap();
        let expect = matmul(&a, &c.transpose()).unwrap();
        for (x, y) in abt.as_slice().iter().zip(expect.as_slice()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn add_sub_axpy_roundtrip() {
        let mut a = m(1, 3, &[1.0, 2.0, 3.0]);
        let b = m(1, 3, &[10.0, 20.0, 30.0]);
        add_assign(&mut a, &b).unwrap();
        assert_eq!(a.as_slice(), &[11.0, 22.0, 33.0]);
        sub_assign(&mut a, &b).unwrap();
        assert_eq!(a.as_slice(), &[1.0, 2.0, 3.0]);
        axpy(&mut a, 0.5, &b).unwrap();
        assert_eq!(a.as_slice(), &[6.0, 12.0, 18.0]);
    }

    #[test]
    fn hadamard_multiplies_entrywise() {
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let b = m(2, 2, &[5.0, 6.0, 7.0, 8.0]);
        assert_eq!(
            hadamard(&a, &b).unwrap().as_slice(),
            &[5.0, 12.0, 21.0, 32.0]
        );
    }

    #[test]
    fn bias_add_and_column_sums() {
        let mut a = Matrix::zeros(3, 2);
        add_bias(&mut a, &[1.0, -1.0]);
        assert_eq!(a.row(2), &[1.0, -1.0]);
        let sums = column_sums(&a);
        assert_eq!(sums, vec![3.0, -3.0]);
    }

    #[test]
    fn row_norms_match_manual() {
        let a = m(2, 2, &[3.0, 4.0, 0.0, 2.0]);
        let n = row_norms(&a);
        assert!((n[0] - 5.0).abs() < 1e-6);
        assert!((n[1] - 2.0).abs() < 1e-6);
    }
}
