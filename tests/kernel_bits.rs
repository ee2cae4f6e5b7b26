//! Bit-level contract of the three `fgnn-tensor` matmuls and their
//! row-masked variants (`ops.rs`): every entry equals, `to_bits` for
//! `to_bits`, the naive triple loop that starts at `+0.0` and adds rounded
//! products in ascending `p`. The training path's byte-identity (goldens,
//! `BENCH_*.json`) rests on this, so the reference loops live here, apart
//! from the kernels they check.
//!
//! Inputs cover what the kernels special-case or could get wrong: empty and
//! 1×1 shapes, every edge the tiling has — a strip width ±1 (8, 16, 32, 64),
//! every strip width at once plus a tail, live-row counts on each side of a
//! four-row tile, an odd row count, the `Aᵀ·B` contraction block
//! (64) ±1 and twice over — whole zero rows, scattered `+0.0` / `-0.0`
//! entries and denormals; plus the reused-buffer forms on dirty buffers and
//! the one non-finite case the contract names.

mod common;

use common::for_cases;
use freshgnn_repro::tensor::{ops, Matrix, Rng};

const DIMS: [usize; 21] = [
    0, 1, 2, 3, 5, 7, 8, 9, 13, 15, 16, 17, 31, 32, 33, 63, 64, 65, 129, 130, 200,
];

/// Mostly small dimensions (the products are checked against a scalar triple
/// loop in a debug build); the sweep below puts every entry of `DIMS` in
/// every role.
fn dim(rng: &mut Rng) -> usize {
    let n = if rng.bernoulli(0.75) { 12 } else { DIMS.len() };
    DIMS[rng.below(n)]
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

/// All three products at one `(m, k, n)` (for `Aᵀ·B`: `k` rows contracted,
/// `m x n` out), masked forms included, under row masks drawn by `mask`.
fn check_all_products(
    rng: &mut Rng,
    (m, k, n): (usize, usize, usize),
    mask: fn(&mut Rng, usize) -> Vec<bool>,
) {
    let what = format!("{m}x{k}x{n}");
    let a = random_matrix(rng, m, k);
    let b = random_matrix(rng, k, n);
    let live = mask(rng, m);
    let want = naive(m, k, n, |i, p| a.get(i, p), |p, j| b.get(p, j));
    let got = ops::matmul_rows(&a, &b, Some(&live)).unwrap();
    assert_bits_eq(
        &got,
        &keep_live_rows(&want, &live),
        &format!("matmul {what}"),
    );

    let bt = b.transpose();
    let got = ops::matmul_a_bt_rows(&a, &bt, Some(&live)).unwrap();
    assert_bits_eq(&got, &keep_live_rows(&want, &live), &format!("a_bt {what}"));

    let at = random_matrix(rng, k, m);
    let live = mask(rng, k);
    let want = naive(
        m,
        k,
        n,
        |i, p| if live[p] { at.get(p, i) } else { 0.0 },
        |p, j| if live[p] { b.get(p, j) } else { 0.0 },
    );
    let got = ops::matmul_at_b_rows(&at, &b, Some(&live)).unwrap();
    assert_bits_eq(&got, &want, &format!("at_b {what}"));
}

#[test]
fn every_edge_dimension_in_every_role() {
    let mut rng = Rng::new(0x5eed);
    for &d in &DIMS {
        let (s, t) = (dim(&mut rng).min(17), dim(&mut rng).min(17));
        check_all_products(&mut rng, (d, s, t), random_mask);
        check_all_products(&mut rng, (s, d, t), random_mask);
        check_all_products(&mut rng, (s, t, d), random_mask);
    }
    // Every role large at once, off every boundary.
    check_all_products(&mut rng, (67, 131, 75), random_mask);
}

/// How each compiled instance covers `C` (`ops::run`): column strips of 64,
/// 32, 16 and 8, then a tail, each one a tile of four (AVX-512) or two rows
/// at a time. With every row live, `m` = 8..=11 leaves 0, 1, 2 and 3 rows
/// past the last four-row tile (`Aᵀ·B` tiles its `m` output rows the same
/// way), and the widths cross every strip: 125 = 64+32+16+8+5, 189 =
/// 2·64+32+16+8+5, 63 = 32+16+8+7 and 100 = 64+32+4.
#[test]
fn every_strip_width_and_four_row_remainder() {
    let mut rng = Rng::new(0x512);
    for n in [125, 189, 63, 100] {
        for m in 8..12 {
            check_all_products(&mut rng, (m, 23, n), |_, len| vec![true; len]);
            check_all_products(&mut rng, (m + 4, 23, n), random_mask);
        }
    }
}

/// The reused-buffer forms on dirty buffers of another shape: live rows come
/// out as the reference has them, rows that are not live keep what the
/// buffer held, and the accumulating form goes on from the value it finds.
#[test]
fn into_forms_overwrite_live_rows_and_nothing_else() {
    for_cases("into_forms_overwrite_live_rows_and_nothing_else", |rng| {
        let (m, k, n) = (dim(rng), dim(rng), dim(rng));
        let a = random_matrix(rng, m, k);
        let b = random_matrix(rng, k, n);
        let live = random_mask(rng, m);
        let want = naive(m, k, n, |i, p| a.get(i, p), |p, j| b.get(p, j));
        let dirty = |r: usize, c: usize| (r * 31 + c) as f32 + 0.25;
        let expect = Matrix::from_fn(m, n, |r, c| {
            if live[r] {
                want.get(r, c)
            } else {
                dirty(0, r * n + c)
            }
        });

        // One flat dirty buffer, longer than needed, reshaped by the call.
        let mut c = Matrix::from_fn(1, m * n + 5, dirty);
        ops::matmul_rows_into(&a, &b, Some(&live), &mut c).unwrap();
        assert_bits_eq(&c, &expect, "matmul_rows_into");

        let mut c = Matrix::from_fn(1, m * n + 5, dirty);
        let mut bt = Matrix::from_fn(3, 2, dirty);
        ops::matmul_a_bt_rows_into(&a, &b.transpose(), Some(&live), &mut bt, &mut c).unwrap();
        assert_bits_eq(&c, &expect, "matmul_a_bt_rows_into");
        assert_bits_eq(&bt, &b, "the transposed-weight buffer");

        let g = random_matrix(rng, m, n);
        let mut acc = random_matrix(rng, k, n);
        let want = Matrix::from_fn(k, n, |i, j| {
            let mut x = acc.get(i, j);
            for p in (0..m).filter(|&p| live[p]) {
                x += a.get(p, i) * g.get(p, j);
            }
            x
        });
        ops::matmul_at_b_rows_acc(&a, &g, Some(&live), &mut acc).unwrap();
        assert_bits_eq(&acc, &want, "matmul_at_b_rows_acc");
    });
}

/// The contract's non-finite clause: a zero in `A` against a `NaN` or `∞` in
/// `B` is NaN in the output entry it feeds (the kernels multiply every term
/// of a live row), a row that is not live is skipped whatever it holds, and
/// the result is the plain IEEE loop's to the bit.
#[test]
fn non_finite_operands_propagate_as_ieee_has_them() {
    for n in [3, 8, 33, 70] {
        let k = 5;
        let a = Matrix::from_fn(3, k, |r, p| if p == 2 { 0.0 } else { (r + p) as f32 });
        let mut b = Matrix::from_fn(k, n, |p, j| (p * n + j) as f32 * 0.5 - 3.0);
        b.set(2, 1, f32::NAN);
        b.set(2, n - 1, f32::INFINITY);
        let want = naive(3, k, n, |i, p| a.get(i, p), |p, j| b.get(p, j));
        let got = ops::matmul(&a, &b).unwrap();
        for i in 0..3 {
            assert!(
                got.get(i, 1).is_nan() && got.get(i, n - 1).is_nan(),
                "n={n}"
            );
            assert!(got.get(i, 0).is_finite(), "n={n}");
        }
        // NaN payloads aside (x86 and the naive loop agree on those too, but
        // the contract does not promise it), every entry matches.
        for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
            assert!(g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()));
        }
        let masked = ops::matmul_rows(&a, &b, Some(&[true, false, true])).unwrap();
        assert!(masked.row(1).iter().all(|&x| x.to_bits() == 0));

        // Aᵀ·B: the zero column of `A` meets the non-finite row of `B`.
        let at = Matrix::from_fn(k, 3, |p, i| if p == 2 { 0.0 } else { (p + i) as f32 });
        let got = ops::matmul_at_b(&at, &b).unwrap();
        let want = naive(3, k, n, |i, p| at.get(p, i), |p, j| b.get(p, j));
        for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
            assert!(g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()));
        }
        assert!(
            got.get(0, 1).is_nan() && got.get(2, n - 1).is_nan(),
            "n={n}"
        );
        let skipped = ops::matmul_at_b_rows(&at, &b, Some(&[true, true, false, true, true]));
        assert!(skipped.unwrap().as_slice().iter().all(|x| x.is_finite()));
    }
}

#[test]
fn shape_mismatches_are_errors_not_panics() {
    let a = Matrix::zeros(2, 3);
    assert!(ops::matmul(&a, &a).is_err());
    assert!(ops::matmul_at_b(&a, &Matrix::zeros(3, 3)).is_err());
    assert!(ops::matmul_a_bt(&a, &Matrix::zeros(3, 2)).is_err());
    let mut wrong = Matrix::zeros(2, 2);
    assert!(ops::matmul_at_b_rows_acc(&a, &a, None, &mut wrong).is_err());
}
