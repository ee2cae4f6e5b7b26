//! Row-major dense `f32` matrix.

use crate::{Result, TensorError};

/// A dense, row-major `f32` matrix.
///
/// One row per node embedding: `Matrix { rows: n_nodes, cols: dim }`. Rows
/// are contiguous so cache fetch/store in `freshgnn` is a single
/// `copy_from_slice`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Matrix {
    data: Vec<f32>,
    rows: usize,
    cols: usize,
}

impl Matrix {
    /// An all-zeros matrix of shape `rows x cols`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            data: vec![0.0; rows * cols],
            rows,
            cols,
        }
    }

    /// A matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Matrix {
            data: vec![value; rows * cols],
            rows,
            cols,
        }
    }

    /// Build from a row-major buffer. Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "from_vec: buffer length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Matrix { data, rows, cols }
    }

    /// Build a `rows x cols` matrix by calling `f(r, c)` for every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { data, rows, cols }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable underlying row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Borrow row `r` as a slice. Panics if out of bounds.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows, "row {} out of bounds ({})", r, self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r`. Panics if out of bounds.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows, "row {} out of bounds ({})", r, self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Checked row access.
    pub fn try_row(&self, r: usize) -> Result<&[f32]> {
        if r < self.rows {
            Ok(self.row(r))
        } else {
            Err(TensorError::IndexOutOfBounds {
                index: r,
                len: self.rows,
            })
        }
    }

    /// Entry `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Set entry `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// Overwrite row `r` from `src`. Panics if `src.len() != cols`.
    #[inline]
    pub fn set_row(&mut self, r: usize, src: &[f32]) {
        self.row_mut(r).copy_from_slice(src);
    }

    /// Reset every entry to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }

    /// Reshape to `rows x cols` for reuse as an output buffer, allocating
    /// only if the buffer has never been this large. Entries are
    /// **unspecified** (whatever an earlier use left behind, or zero): the
    /// caller overwrites every entry it later reads.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.data.resize(rows * cols, 0.0);
        self.rows = rows;
        self.cols = cols;
    }

    /// [`Matrix::resize`] with every entry reset to zero.
    pub fn resize_zeroed(&mut self, rows: usize, cols: usize) {
        self.data.clear();
        self.resize(rows, cols);
    }

    /// Gather `indices` rows into a new matrix (one output row per index).
    ///
    /// This is the "fetch features for these node IDs" primitive: the data
    /// loader and the historical-embedding cache are both row gathers.
    pub fn gather_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (o, &i) in indices.iter().enumerate() {
            out.row_mut(o).copy_from_slice(self.row(i));
        }
        out
    }

    /// Accumulate each row of `src` into row `indices[i]` of `self`
    /// (scatter-add). Panics on shape mismatch.
    pub fn scatter_add_rows(&mut self, indices: &[usize], src: &Matrix) {
        assert_eq!(indices.len(), src.rows(), "scatter_add_rows: index count");
        assert_eq!(self.cols, src.cols(), "scatter_add_rows: column count");
        for (s, &i) in indices.iter().enumerate() {
            let dst = self.row_mut(i);
            for (d, v) in dst.iter_mut().zip(src.row(s)) {
                *d += v;
            }
        }
    }

    /// The transpose as a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::default();
        self.transpose_into(&mut out);
        out
    }

    /// The transpose written into `out`, which is reshaped to fit.
    pub fn transpose_into(&self, out: &mut Matrix) {
        out.resize(self.cols, self.rows);
        for r in 0..self.rows {
            let row = self.row(r);
            for (c, &v) in row.iter().enumerate() {
                out.data[c * self.rows + r] = v;
            }
        }
    }

    /// Apply `f` to every entry in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        self.data.iter_mut().for_each(|x| *x = f(*x));
    }

    /// A new matrix with `f` applied to every entry.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            data: self.data.iter().map(|&x| f(x)).collect(),
            rows: self.rows,
            cols: self.cols,
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum::<f32>().sqrt()
    }

    /// Checked shape-equality helper used by binary ops.
    pub(crate) fn check_same_shape(&self, other: &Matrix, op: &'static str) -> Result<()> {
        if self.shape() != other.shape() {
            Err(TensorError::ShapeMismatch {
                lhs: self.shape(),
                rhs: other.shape(),
                op,
            })
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_requested_shape_and_is_zero() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn from_fn_builds_row_major() {
        let m = Matrix::from_fn(2, 3, |r, c| (r * 10 + c) as f32);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
        assert_eq!(m.get(1, 2), 12.0);
    }

    #[test]
    #[should_panic(expected = "from_vec")]
    fn from_vec_panics_on_bad_len() {
        let _ = Matrix::from_vec(2, 2, vec![1.0; 3]);
    }

    #[test]
    fn row_accessors_round_trip() {
        let mut m = Matrix::zeros(2, 3);
        m.set_row(1, &[7.0, 8.0, 9.0]);
        assert_eq!(m.row(1), &[7.0, 8.0, 9.0]);
        assert_eq!(m.row(0), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn try_row_rejects_out_of_bounds() {
        let m = Matrix::zeros(2, 2);
        assert!(m.try_row(1).is_ok());
        assert_eq!(
            m.try_row(2),
            Err(TensorError::IndexOutOfBounds { index: 2, len: 2 })
        );
    }

    #[test]
    fn gather_rows_picks_rows_in_order() {
        let m = Matrix::from_fn(4, 2, |r, _| r as f32);
        let g = m.gather_rows(&[3, 1, 1]);
        assert_eq!(g.as_slice(), &[3.0, 3.0, 1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn scatter_add_accumulates_duplicates() {
        let mut m = Matrix::zeros(3, 2);
        let src = Matrix::from_vec(2, 2, vec![1.0, 2.0, 10.0, 20.0]);
        m.scatter_add_rows(&[1, 1], &src);
        assert_eq!(m.row(1), &[11.0, 22.0]);
        assert_eq!(m.row(0), &[0.0, 0.0]);
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_fn(3, 5, |r, c| (r * 7 + c * 3) as f32);
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn transpose_swaps_entries() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t.get(2, 0), 3.0);
        assert_eq!(t.get(0, 1), 4.0);
    }

    #[test]
    fn frobenius_norm_matches_manual() {
        let m = Matrix::from_vec(1, 2, vec![3.0, 4.0]);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-6);
    }
}
