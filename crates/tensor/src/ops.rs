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
/// The single hottest kernel in the workspace (every GNN layer is one or two
/// of these). All three products run on one register-tiled body, `tile`:
/// a strip of up to `STRIP` columns of two or four output rows is held in
/// vector registers across the whole contraction and stored once; column
/// strips are outermost, so the `k x strip` panel of `B` stays in L1 while
/// the rows of `A` stream past it.
///
/// # Contract (shared by [`matmul_at_b`], [`matmul_a_bt`] and the `_rows` / `_into` forms)
///
/// Every entry of `C` is bit-identical to the naive triple loop that starts
/// its accumulator at `+0.0` and adds the products in ascending `p`, each
/// product rounded before the add (no FMA, no reassociation, no split
/// accumulators); tiling changes which entries are in flight together, never
/// the order of one entry's adds. The training path's byte-identical goldens
/// rest on this. Only rows the `live` mask switches off are skipped.
///
/// Non-finite operands propagate as IEEE arithmetic has them: `0 * NaN` and
/// `0 * inf` in a live row are NaN in the output entry they feed. No caller
/// relies on it: the NaN-injection hooks (`inject_nan_at`, `tests/chaos.rs`)
/// overwrite a step's reported loss after its kernels have run.
pub fn matmul(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    matmul_rows(a, b, None)
}

/// [`matmul`] over the rows of `A` that `live` marks (`None` = all): a row
/// that is not live is left zero in `C`.
pub fn matmul_rows(a: &Matrix, b: &Matrix, live: Option<&[bool]>) -> Result<Matrix> {
    let mut c = Matrix::zeros(a.rows(), b.cols());
    matmul_rows_into(a, b, live, &mut c)?;
    Ok(c)
}

/// [`matmul_rows`] into a reused buffer: `c` is reshaped to `m x n` and its
/// live rows overwritten; a row that is not live keeps whatever `c` held.
pub fn matmul_rows_into(
    a: &Matrix,
    b: &Matrix,
    live: Option<&[bool]>,
    c: &mut Matrix,
) -> Result<()> {
    if a.cols() != b.rows() {
        return Err(shape_mismatch(a, b, "matmul"));
    }
    debug_assert!(live.is_none_or(|l| l.len() == a.rows()));
    c.resize(a.rows(), b.cols());
    dispatch(Ab {
        a: a.as_slice(),
        k: a.cols(),
        b: b.as_slice(),
        n: b.cols(),
        live,
        c: c.as_mut_slice(),
    });
    Ok(())
}

/// `C = A^T * B` (`k x m`^T times `k x n` -> `m x n`).
///
/// Used by weight gradients: `dW = H^T * dOut`. The contraction runs in
/// blocks of `P_BLOCK` rows, so a strip of `C` is loaded and stored once
/// per block rather than once per product. Bit-level contract and non-finite
/// behaviour: see [`matmul`].
pub fn matmul_at_b(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    matmul_at_b_rows(a, b, None)
}

/// [`matmul_at_b`] contracting over the live rows of `A` and `B` only
/// (`None` = all): exact whenever every skipped row of `B` is `±0.0`.
pub fn matmul_at_b_rows(a: &Matrix, b: &Matrix, live: Option<&[bool]>) -> Result<Matrix> {
    let mut c = Matrix::zeros(a.cols(), b.cols());
    matmul_at_b_rows_acc(a, b, live, &mut c)?;
    Ok(c)
}

/// `C += A^T * B` over the live rows: every entry of `c` (`m x n`) goes on
/// from the value it holds, adding its products in ascending `p`. On a `c`
/// of `+0.0` that is [`matmul_at_b_rows`]; a layer hands in its freshly
/// zeroed `Param::grad`.
pub fn matmul_at_b_rows_acc(
    a: &Matrix,
    b: &Matrix,
    live: Option<&[bool]>,
    c: &mut Matrix,
) -> Result<()> {
    if a.rows() != b.rows() {
        return Err(shape_mismatch(a, b, "matmul_at_b"));
    }
    if c.shape() != (a.cols(), b.cols()) {
        return Err(shape_mismatch(a, c, "matmul_at_b accumulator"));
    }
    debug_assert!(live.is_none_or(|l| l.len() == a.rows()));
    dispatch(AtB {
        a: a.as_slice(),
        m: a.cols(),
        b: b.as_slice(),
        n: b.cols(),
        live,
        c: c.as_mut_slice(),
    });
    Ok(())
}

/// `C = A * B^T` (`m x k` times `n x k`^T -> `m x n`).
///
/// Used by input gradients: `dH = dOut * W^T`. `B` (a weight, small next to
/// `A`) is transposed once so the work is [`matmul`]'s tile rather than one
/// scalar dot product per entry. Bit-level contract and non-finite
/// behaviour: see [`matmul`].
pub fn matmul_a_bt(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    matmul_a_bt_rows(a, b, None)
}

/// [`matmul_a_bt`] over the live rows of `A` only (`None` = all): a row that
/// is not live is left zero in `C`.
pub fn matmul_a_bt_rows(a: &Matrix, b: &Matrix, live: Option<&[bool]>) -> Result<Matrix> {
    let mut c = Matrix::zeros(a.rows(), b.rows());
    matmul_a_bt_rows_into(a, b, live, &mut Matrix::default(), &mut c)?;
    Ok(c)
}

/// [`matmul_a_bt_rows`] into reused buffers: `bt` receives `B^T`, `c` is
/// reshaped and its live rows overwritten as in [`matmul_rows_into`].
pub fn matmul_a_bt_rows_into(
    a: &Matrix,
    b: &Matrix,
    live: Option<&[bool]>,
    bt: &mut Matrix,
    c: &mut Matrix,
) -> Result<()> {
    if a.cols() != b.cols() {
        return Err(shape_mismatch(a, b, "matmul_a_bt"));
    }
    b.transpose_into(bt);
    matmul_rows_into(a, bt, live, c)
}

/// Widest column strip a tile carries: with four rows in flight, sixteen
/// AVX-512 vectors of accumulators. The AVX2 instance carries half of it and
/// the baseline a quarter, each with two rows: they have sixteen registers.
const STRIP: usize = 64;

/// Rows of the contraction [`matmul_at_b`] runs between one load and one
/// store of a strip of `C`.
const P_BLOCK: usize = 64;

/// Columns of `A` [`matmul_at_b`] packs at a time (one cache line of them).
const A_GROUP: usize = 16;

/// The one tile body: `acc[r][t] += a[r] * b[t]` for every term, in the
/// order `terms` yields them. `acc` is an `R`-row, `w <= T`-column piece of
/// `C` that the compiler keeps in vector registers when `w` is the constant
/// `T`; a term is the `R` entries of `A` and the strip of one row of `B`
/// that meet at one `p`. Each `acc[r][t]` sees only its own products, each
/// rounded before its add, so the grouping into tiles never shows in a bit.
#[inline(always)]
fn tile<'b, const R: usize, const T: usize>(
    acc: &mut [[f32; T]; R],
    w: usize,
    terms: impl Iterator<Item = ([f32; R], &'b [f32])>,
) {
    let w = w.min(T);
    for (a, b) in terms {
        let b = &b[..w];
        for r in 0..R {
            for t in 0..w {
                acc[r][t] += a[r] * b[t];
            }
        }
    }
}

/// A product laid out as column strips of `C`.
trait Strips {
    /// Columns of `C`.
    fn n(&self) -> usize;
    /// Compute columns `j0..j0 + w` of `C` (`w <= T`) through `T`-wide tiles
    /// of `R` rows (the last few rows in tiles of two and one).
    fn strip<const T: usize, const R: usize>(&mut self, j0: usize, w: usize);
}

/// `C = A * B` on the live rows of `A` (`m x k`, `k x n`).
struct Ab<'a> {
    a: &'a [f32],
    k: usize,
    b: &'a [f32],
    n: usize,
    live: Option<&'a [bool]>,
    c: &'a mut [f32],
}

impl Ab<'_> {
    #[inline(always)]
    fn rows<const R: usize, const T: usize>(&mut self, rows: [usize; R], j0: usize, w: usize) {
        let (k, n) = (self.k, self.n);
        let a_rows = rows.map(|i| &self.a[i * k..][..k]);
        let mut acc = [[0.0f32; T]; R];
        let b_rows = self.b.chunks_exact(n).enumerate();
        tile(
            &mut acc,
            w,
            b_rows.map(|(p, b_row)| (a_rows.map(|a_row| a_row[p]), &b_row[j0..])),
        );
        for (acc_row, i) in acc.iter().zip(rows) {
            self.c[i * n + j0..][..w].copy_from_slice(&acc_row[..w]);
        }
    }
}

impl Strips for Ab<'_> {
    fn n(&self) -> usize {
        self.n
    }

    #[inline(always)]
    fn strip<const T: usize, const R: usize>(&mut self, j0: usize, w: usize) {
        let live = self.live;
        let mut rows = (0..self.c.len() / self.n).filter(|&i| is_live(live, i));
        loop {
            // `zip` asks `group` first, so no live row is drawn and dropped.
            let mut group = [0; R];
            let count = group.iter_mut().zip(&mut rows).map(|(g, i)| *g = i).count();
            if count < R {
                let mut pairs = group[..count].chunks_exact(2);
                for pair in &mut pairs {
                    self.rows::<2, T>([pair[0], pair[1]], j0, w);
                }
                if let &[i] = pairs.remainder() {
                    self.rows::<1, T>([i], j0, w);
                }
                return;
            }
            self.rows::<R, T>(group, j0, w);
        }
    }
}

/// `C += A^T * B` over the live rows of `A` (`rows x m`) and `B` (`rows x n`).
struct AtB<'a> {
    a: &'a [f32],
    m: usize,
    b: &'a [f32],
    n: usize,
    live: Option<&'a [bool]>,
    c: &'a mut [f32],
}

impl AtB<'_> {
    /// `R` rows of `C` from `i0`, whose entries of `A` sit at `r0..r0 + R`
    /// of each packed row of `a_pack`.
    #[inline(always)]
    fn rows<const R: usize, const T: usize>(
        &mut self,
        a_pack: &[[f32; A_GROUP]],
        b_pack: &[[f32; T]],
        r0: usize,
        i0: usize,
        j0: usize,
        w: usize,
    ) {
        let n = self.n;
        let mut acc = [[0.0f32; T]; R];
        for (r, acc_row) in acc.iter_mut().enumerate() {
            acc_row[..w].copy_from_slice(&self.c[(i0 + r) * n + j0..][..w]);
        }
        // `b_pack` is zero beyond `w`, so the tile runs at its full constant
        // width; the columns past `w` are never stored.
        let terms = a_pack.iter().zip(b_pack);
        tile(
            &mut acc,
            T,
            terms.map(|(a_p, b_p)| (std::array::from_fn(|r| a_p[r0 + r]), &b_p[..])),
        );
        for (r, acc_row) in acc.iter().enumerate() {
            self.c[(i0 + r) * n + j0..][..w].copy_from_slice(&acc_row[..w]);
        }
    }
}

impl Strips for AtB<'_> {
    fn n(&self) -> usize {
        self.n
    }

    #[inline(always)]
    fn strip<const T: usize, const R: usize>(&mut self, j0: usize, w: usize) {
        let (m, n, rows) = (self.m, self.n, self.b.len() / self.n);
        // A block's live rows are packed once — the strip of `B` per block,
        // `A_GROUP` columns of `A` at a time — so the tiles below read
        // contiguous memory and run branch-free. (Read in place, a column
        // of `A` is one cache line per row at a power-of-two stride.)
        let mut block = [0usize; P_BLOCK];
        let mut b_pack = [[0.0f32; T]; P_BLOCK];
        let mut a_pack = [[0.0f32; A_GROUP]; P_BLOCK];
        for p0 in (0..rows).step_by(P_BLOCK) {
            let mut count = 0;
            for p in (p0..rows.min(p0 + P_BLOCK)).filter(|&p| is_live(self.live, p)) {
                b_pack[count][..w].copy_from_slice(&self.b[p * n + j0..][..w]);
                block[count] = p;
                count += 1;
            }
            for i0 in (0..m).step_by(A_GROUP) {
                let g = A_GROUP.min(m - i0);
                for (a_p, &p) in a_pack.iter_mut().zip(&block[..count]) {
                    a_p[..g].copy_from_slice(&self.a[p * m + i0..][..g]);
                }
                let (a_pack, b_pack) = (&a_pack[..count], &b_pack[..count]);
                let mut r = 0;
                while r + R <= g {
                    self.rows::<R, T>(a_pack, b_pack, r, i0 + r, j0, w);
                    r += R;
                }
                if R > 2 && r + 2 <= g {
                    self.rows::<2, T>(a_pack, b_pack, r, i0 + r, j0, w);
                    r += 2;
                }
                if r < g {
                    self.rows::<1, T>(a_pack, b_pack, r, i0 + r, j0, w);
                }
            }
        }
    }
}

/// Cover the columns of `C` with strips of `R`-row tiles: full `W`-wide
/// ones, then the same body at 32, 16 and 8 columns, then one runtime-width
/// tail under 8.
#[inline(always)]
fn run<const W: usize, const R: usize>(mut op: impl Strips) {
    let n = op.n();
    let mut j0 = 0;
    while n - j0 >= W {
        op.strip::<W, R>(j0, W);
        j0 += W;
    }
    if W > 32 && n - j0 >= 32 {
        op.strip::<32, R>(j0, 32);
        j0 += 32;
    }
    if W > 16 && n - j0 >= 16 {
        op.strip::<16, R>(j0, 16);
        j0 += 16;
    }
    if n - j0 >= 8 {
        op.strip::<8, R>(j0, 8);
        j0 += 8;
    }
    if n > j0 {
        op.strip::<8, R>(j0, n - j0);
    }
}

/// [`run`] compiled for the crate's baseline target (16 SSE2 registers on
/// x86-64: quarter-width strips of two rows).
fn run_baseline(op: impl Strips) {
    run::<{ STRIP / 4 }, 2>(op)
}

/// [`run`] compiled with AVX2 enabled: the same source, eight-lane vectors,
/// half-width strips of two rows.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn run_avx2(op: impl Strips) {
    run::<{ STRIP / 2 }, 2>(op)
}

/// [`run`] compiled with AVX-512F enabled: sixteen-lane vectors and 32
/// registers, so full strips of four rows — each load of `B` feeds four
/// rows, and each pass over a `k x STRIP` panel of `B` (often more than L1
/// holds) serves four rows of `A`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn run_avx512(op: impl Strips) {
    run::<STRIP, 4>(op)
}

/// Run `op` on the widest instance of the tile body this CPU has. The three
/// instances are one source compiled three times and produce the same bits.
fn dispatch(op: impl Strips) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::is_x86_feature_detected as has;
        let avx512 = has!("avx512f");
        if avx512 || has!("avx2") {
            let instance = if avx512 { run_avx512 } else { run_avx2 };
            // SAFETY: both callees are safe code whose only requirement is
            // that the CPU executes the instructions their `target_feature`
            // enables; `instance` is `run_avx512` only when `has!("avx512f")`
            // held and `run_avx2` only when `has!("avx2")` did.
            return unsafe { instance(op) };
        }
    }
    run_baseline(op)
}

/// `A += B` on the live rows (`None` = all).
pub fn add_assign_rows(a: &mut Matrix, b: &Matrix, live: Option<&[bool]>) -> Result<()> {
    a.check_same_shape(b, "add_assign_rows")?;
    for r in (0..a.rows()).filter(|&r| is_live(live, r)) {
        for (x, &y) in a.row_mut(r).iter_mut().zip(b.row(r)) {
            *x += y;
        }
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

/// `A *= alpha`.
pub fn scale(a: &mut Matrix, alpha: f32) {
    a.as_mut_slice().iter_mut().for_each(|x| *x *= alpha);
}

/// Add a row vector `bias` (len = cols) to every live row of `a` (`None` =
/// all rows).
pub fn add_bias_rows(a: &mut Matrix, bias: &[f32], live: Option<&[bool]>) {
    assert_eq!(a.cols(), bias.len(), "add_bias_rows: dim mismatch");
    for r in (0..a.rows()).filter(|&r| is_live(live, r)) {
        for (x, &b) in a.row_mut(r).iter_mut().zip(bias) {
            *x += b;
        }
    }
}

/// `acc[c] += a[r][c]` for every row in ascending order (the bias gradient,
/// summed straight into its accumulator).
pub fn column_sums_acc(a: &Matrix, acc: &mut [f32]) {
    assert_eq!(a.cols(), acc.len(), "column_sums_acc: dim mismatch");
    for r in 0..a.rows() {
        for (o, &v) in acc.iter_mut().zip(a.row(r)) {
            *o += v;
        }
    }
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

    /// The three compiled instances of the tile body, on the same operands:
    /// the dispatcher only ever runs one of them on a given machine, so this
    /// is where the others are exercised (each wide one where the CPU has
    /// it).
    /// Shapes cross every strip width (64, 32, 16, 8, tail) and a `P_BLOCK`
    /// boundary; with every row live, `m` = 8..=11 gives `A·B` live-row
    /// counts ≡ 0, 1, 2, 3 (mod 4), and `k` does the same for the rows of
    /// `Aᵀ·B` left over by its groups of 16.
    #[test]
    fn all_three_instances_agree_bit_for_bit() {
        let mut rng = crate::Rng::new(7);
        let shapes = [
            (5, 70, 61),
            (3, 9, 32),
            (66, 3, 7),
            (2, 130, 100),
            (8, 13, 125),
            (9, 7, 125),
            (10, 31, 189),
            (11, 64, 64),
        ];
        for ((m, k, n), all_live) in shapes.into_iter().flat_map(|s| [(s, false), (s, true)]) {
            let a = rng.normal_matrix(m, k, 1.0);
            let b = rng.normal_matrix(k, n, 1.0);
            let g = rng.normal_matrix(m, n, 1.0);
            let live: Vec<bool> = (0..m).map(|_| all_live || rng.bernoulli(0.7)).collect();
            let ab = |run: &dyn Fn(Ab)| {
                let mut c = Matrix::zeros(m, n);
                run(Ab {
                    a: a.as_slice(),
                    k,
                    b: b.as_slice(),
                    n,
                    live: Some(&live),
                    c: c.as_mut_slice(),
                });
                c
            };
            let atb = |run: &dyn Fn(AtB)| {
                let mut c = Matrix::full(k, n, 0.5);
                run(AtB {
                    a: a.as_slice(),
                    m: k,
                    b: g.as_slice(),
                    n,
                    live: Some(&live),
                    c: c.as_mut_slice(),
                });
                c
            };
            let bits = |c: &Matrix| c.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let (base_ab, base_atb) = (ab(&|op| run_baseline(op)), atb(&|op| run_baseline(op)));
            assert_eq!(bits(&base_ab), bits(&ab(&|op| dispatch(op))));
            assert_eq!(bits(&base_atb), bits(&atb(&|op| dispatch(op))));
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: AVX2 was detected on the line above.
                assert_eq!(bits(&base_ab), bits(&ab(&|op| unsafe { run_avx2(op) })));
                // SAFETY: as above.
                assert_eq!(bits(&base_atb), bits(&atb(&|op| unsafe { run_avx2(op) })));
            }
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx512f") {
                // SAFETY: AVX-512F was detected on the line above.
                assert_eq!(bits(&base_ab), bits(&ab(&|op| unsafe { run_avx512(op) })));
                // SAFETY: as above.
                assert_eq!(bits(&base_atb), bits(&atb(&|op| unsafe { run_avx512(op) })));
            }
            // And all of them are the plain triple loop.
            for (i, &live_i) in live.iter().enumerate() {
                for j in 0..n {
                    let mut acc = 0.0f32;
                    for p in 0..k {
                        acc += a.get(i, p) * b.get(p, j);
                    }
                    let want = if live_i { acc } else { 0.0 };
                    assert_eq!(base_ab.get(i, j).to_bits(), want.to_bits());
                }
            }
            for i in 0..k {
                for j in 0..n {
                    let mut acc = 0.5f32;
                    for p in (0..m).filter(|&p| live[p]) {
                        acc += a.get(p, i) * g.get(p, j);
                    }
                    assert_eq!(base_atb.get(i, j).to_bits(), acc.to_bits());
                }
            }
        }
    }

    #[test]
    fn add_sub_axpy_roundtrip() {
        let mut a = m(1, 3, &[1.0, 2.0, 3.0]);
        let b = m(1, 3, &[10.0, 20.0, 30.0]);
        add_assign_rows(&mut a, &b, None).unwrap();
        assert_eq!(a.as_slice(), &[11.0, 22.0, 33.0]);
        sub_assign(&mut a, &b).unwrap();
        assert_eq!(a.as_slice(), &[1.0, 2.0, 3.0]);
        axpy(&mut a, 0.5, &b).unwrap();
        assert_eq!(a.as_slice(), &[6.0, 12.0, 18.0]);
    }

    #[test]
    fn bias_add_and_column_sums() {
        let mut a = Matrix::zeros(3, 2);
        add_bias_rows(&mut a, &[1.0, -1.0], None);
        add_bias_rows(&mut a, &[1.0, 1.0], Some(&[false, true, false]));
        assert_eq!(a.row(1), &[2.0, 0.0]);
        assert_eq!(a.row(2), &[1.0, -1.0]);
        let mut sums = [0.5, 0.0];
        column_sums_acc(&a, &mut sums);
        assert_eq!(sums, [4.5, -2.0]);
    }
}
