//! Bit-level contract of the three `fgnn-tensor` matmuls and their
//! row-masked variants (`ops.rs`): every entry equals, `to_bits` for
//! `to_bits`, the naive triple loop that starts at `+0.0` and adds rounded
//! products in ascending `p`. The training path's byte-identity (goldens,
//! `BENCH_*.json`) rests on this, so the reference loops live here, apart
//! from the kernels they check.
//!
//! Inputs cover what the kernels special-case or could get wrong: empty and
//! 1×1 shapes, widths that are not a multiple of a SIMD lane count, whole
//! zero rows, scattered `+0.0` / `-0.0` entries and denormals.

mod common;

use common::for_cases;
use freshgnn_repro::tensor::{ops, Matrix, Rng};

const DIMS: [usize; 13] = [0, 1, 2, 3, 5, 7, 8, 9, 13, 16, 17, 31, 33];

fn dim(rng: &mut Rng) -> usize {
    DIMS[rng.below(DIMS.len())]
}

/// Finite entries only (the contract's exactness claim is for finite
/// operands): normals, signed zeros, signed denormals, and zero rows.
fn random_matrix(rng: &mut Rng, rows: usize, cols: usize) -> Matrix {
    let mut m = Matrix::zeros(rows, cols);
    for r in 0..rows {
        if rng.bernoulli(0.2) {
            continue; // whole zero row
        }
        for x in m.row_mut(r) {
            *x = match rng.below(10) {
                0 => 0.0,
                1 => -0.0,
                2 => f32::from_bits(1 + rng.below(0x007f_ffff) as u32),
                3 => -f32::from_bits(1 + rng.below(0x007f_ffff) as u32),
                _ => rng.normal(),
            };
        }
    }
    m
}

fn random_mask(rng: &mut Rng, n: usize) -> Vec<bool> {
    let p = rng.uniform();
    (0..n).map(|_| rng.bernoulli(p)).collect()
}

/// `c[i][j] = Σ_p a(i, p) · b(p, j)`, `p` ascending from `+0.0`.
fn naive(
    m: usize,
    k: usize,
    n: usize,
    a: impl Fn(usize, usize) -> f32,
    b: impl Fn(usize, usize) -> f32,
) -> Matrix {
    Matrix::from_fn(m, n, |i, j| {
        let mut acc = 0.0f32;
        for p in 0..k {
            acc += a(i, p) * b(p, j);
        }
        acc
    })
}

fn assert_bits_eq(got: &Matrix, want: &Matrix, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape");
    for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{what}: entry {i} is {g:e}, reference {w:e}"
        );
    }
}

/// `full` on the live rows, `+0.0` elsewhere.
fn keep_live_rows(full: &Matrix, live: &[bool]) -> Matrix {
    Matrix::from_fn(full.rows(), full.cols(), |r, c| {
        if live[r] {
            full.get(r, c)
        } else {
            0.0
        }
    })
}

#[test]
fn matmul_matches_the_naive_loop_bit_for_bit() {
    for_cases("matmul_matches_the_naive_loop_bit_for_bit", |rng| {
        let (m, k, n) = (dim(rng), dim(rng), dim(rng));
        let a = random_matrix(rng, m, k);
        let b = random_matrix(rng, k, n);
        let want = naive(m, k, n, |i, p| a.get(i, p), |p, j| b.get(p, j));
        assert_bits_eq(&ops::matmul(&a, &b).unwrap(), &want, "matmul");

        let live = random_mask(rng, m);
        let masked = ops::matmul_rows(&a, &b, Some(&live)).unwrap();
        assert_bits_eq(&masked, &keep_live_rows(&want, &live), "matmul_rows");
    });
}

#[test]
fn matmul_a_bt_matches_the_naive_loop_bit_for_bit() {
    for_cases("matmul_a_bt_matches_the_naive_loop_bit_for_bit", |rng| {
        let (m, k, n) = (dim(rng), dim(rng), dim(rng));
        let a = random_matrix(rng, m, k);
        let b = random_matrix(rng, n, k);
        let want = naive(m, k, n, |i, p| a.get(i, p), |p, j| b.get(j, p));
        assert_bits_eq(&ops::matmul_a_bt(&a, &b).unwrap(), &want, "matmul_a_bt");

        let live = random_mask(rng, m);
        let masked = ops::matmul_a_bt_rows(&a, &b, Some(&live)).unwrap();
        assert_bits_eq(&masked, &keep_live_rows(&want, &live), "matmul_a_bt_rows");
    });
}

#[test]
fn matmul_at_b_matches_the_naive_loop_bit_for_bit() {
    for_cases("matmul_at_b_matches_the_naive_loop_bit_for_bit", |rng| {
        let (rows, m, n) = (dim(rng), dim(rng), dim(rng));
        let a = random_matrix(rng, rows, m);
        let b = random_matrix(rng, rows, n);
        let want = naive(m, rows, n, |i, p| a.get(p, i), |p, j| b.get(p, j));
        assert_bits_eq(&ops::matmul_at_b(&a, &b).unwrap(), &want, "matmul_at_b");

        // The mask drops rows from the contraction. That is exact when the
        // dropped rows of `B` are ±0.0 (the backward pass's dead rows): the
        // masked product then equals the unmasked one bit for bit.
        let live = random_mask(rng, rows);
        let mut b_dead_zeroed = b.clone();
        for p in (0..rows).filter(|&p| !live[p]) {
            for x in b_dead_zeroed.row_mut(p) {
                *x = if rng.bernoulli(0.5) { 0.0 } else { -0.0 };
            }
        }
        let masked = ops::matmul_at_b_rows(&a, &b_dead_zeroed, Some(&live)).unwrap();
        let unmasked = ops::matmul_at_b(&a, &b_dead_zeroed).unwrap();
        assert_bits_eq(&masked, &unmasked, "matmul_at_b_rows vs unmasked");
        let want = naive(
            m,
            rows,
            n,
            |i, p| a.get(p, i),
            |p, j| b_dead_zeroed.get(p, j),
        );
        assert_bits_eq(&masked, &want, "matmul_at_b_rows");
    });
}

#[test]
fn shape_mismatches_are_errors_not_panics() {
    let a = Matrix::zeros(2, 3);
    assert!(ops::matmul(&a, &a).is_err());
    assert!(ops::matmul_at_b(&a, &Matrix::zeros(3, 3)).is_err());
    assert!(ops::matmul_a_bt(&a, &Matrix::zeros(3, 2)).is_err());
}
