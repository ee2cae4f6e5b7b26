//! Shared layer machinery: trainable parameters, activations, and the
//! block-aggregation kernels every GNN layer builds on.

use fgnn_graph::Block;
use fgnn_tensor::ops::is_live;
use fgnn_tensor::Matrix;

/// A trainable parameter: value plus accumulated gradient.
#[derive(Clone, Debug)]
pub struct Param {
    /// Current value.
    pub value: Matrix,
    /// Accumulated gradient (same shape as `value`).
    pub grad: Matrix,
}

impl Param {
    /// Wrap an initial value with a zero gradient.
    pub(crate) fn new(value: Matrix) -> Self {
        let grad = Matrix::zeros(value.rows(), value.cols());
        Param { value, grad }
    }

    /// Reset the gradient to zero (keeps the allocation).
    pub(crate) fn zero_grad(&mut self) {
        self.grad.fill_zero();
    }

    /// Number of scalar parameters.
    pub(crate) fn len(&self) -> usize {
        self.value.rows() * self.value.cols()
    }
}

/// Output activation of a layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Activation {
    /// Identity (used for the final layer producing logits).
    None,
    /// Rectified linear unit.
    Relu,
}

/// Which entries of a layer's output its activation let through: one bit
/// per entry, rows padded to whole words. What backward needs of the forward
/// output, at a thirty-second of its size — and, unlike the output itself,
/// untouched by whatever a forward hook later writes over the rows.
#[derive(Clone, Debug, Default)]
pub struct ActMask {
    bits: Vec<u64>,
    words_per_row: usize,
}

impl ActMask {
    fn row(&self, r: usize) -> &[u64] {
        &self.bits[r * self.words_per_row..][..self.words_per_row]
    }
}

/// `x` where `keep` is 1, `+0.0` where it is 0: an AND with all-ones or
/// all-zeros bits, so the loops below have no data-dependent branch.
#[inline(always)]
fn keep_or_zero(x: f32, keep: u32) -> f32 {
    f32::from_bits(x.to_bits() & 0u32.wrapping_sub(keep))
}

impl Activation {
    /// Apply to the live rows of `z` in place (`None` = all), recording in
    /// `mask` what [`Activation::backward_rows`] needs. Rows that are not
    /// live are left alone, in `z` and in `mask`. An entry passes when it is
    /// `> 0.0`; every other one (`-0.0` and NaN included) becomes `+0.0`.
    pub(crate) fn forward_rows(self, z: &mut Matrix, live: Option<&[bool]>, mask: &mut ActMask) {
        if self != Activation::Relu {
            return;
        }
        let words = z.cols().div_ceil(64);
        mask.words_per_row = words;
        mask.bits.resize(z.rows() * words, 0);
        for r in (0..z.rows()).filter(|&r| is_live(live, r)) {
            let row_bits = &mut mask.bits[r * words..][..words];
            for (word, chunk) in row_bits.iter_mut().zip(z.row_mut(r).chunks_mut(64)) {
                let mut bits = 0u64;
                for (bit, x) in chunk.iter_mut().enumerate() {
                    let passed = *x > 0.0;
                    bits |= u64::from(passed) << bit;
                    *x = keep_or_zero(*x, u32::from(passed));
                }
                *word = bits;
            }
        }
    }

    /// Chain rule through the activation on the live rows of `grad`, in
    /// place, given the `mask` the forward pass recorded with the same
    /// `live`: a gradient whose entry did not pass becomes `+0.0`.
    pub(crate) fn backward_rows(self, grad: &mut Matrix, live: Option<&[bool]>, mask: &ActMask) {
        if self != Activation::Relu {
            return;
        }
        for r in (0..grad.rows()).filter(|&r| is_live(live, r)) {
            for (&word, chunk) in mask.row(r).iter().zip(grad.row_mut(r).chunks_mut(64)) {
                for (bit, g) in chunk.iter_mut().enumerate() {
                    *g = keep_or_zero(*g, (word >> bit) as u32 & 1);
                }
            }
        }
    }
}

/// Backward-pass buffers one model's layers share (they run one at a time).
#[derive(Clone, Debug, Default)]
pub struct Scratch {
    /// The gradient at the layer's interior seam: w.r.t. the aggregated
    /// input of SAGE/GCN's dense transform (`d_cat`, `d_agg`), w.r.t. the
    /// transformed rows GAT attends over (`d_Wh`).
    pub(crate) d_mid: Matrix,
    /// The transposed weight `matmul_a_bt` multiplies by.
    pub(crate) weight_t: Matrix,
}

/// A dst row that is not live (`live` = the pruner's `computed` for this
/// block, `None` = all live) is a constant to the layer: forward leaves it
/// for the caller's hook to fill (cache reads) or for nobody (dead subtrees),
/// and backward propagates nothing through it. This is the backward
/// precondition that makes skipping such rows exact: a row that is not live
/// carries no gradient (the trainer's detach hook zeroes cache-read
/// rows; nothing computed references a dead one).
#[inline]
pub(crate) fn debug_assert_dead_rows_zero(d: &Matrix, live: Option<&[bool]>) {
    debug_assert!(
        (0..d.rows()).all(|v| is_live(live, v) || d.row(v).iter().all(|&x| x == 0.0)),
        "gradient on a row that is not computed"
    );
}

/// Mean aggregation including the self node: row `v` of `out` becomes
/// `(h_v + Σ_{u∈N(v)} h_u) / (deg(v)+1)` — the GCN aggregation over a
/// sampled block (self-loop form of `Â`). `out` is reshaped to fit; rows
/// that are not live keep whatever it held.
///
/// Relies on the block invariant that destination `v`'s own previous-layer
/// row is `h_src` row `v`.
pub(crate) fn mean_agg_with_self(
    block: &Block,
    h_src: &Matrix,
    live: Option<&[bool]>,
    out: &mut Matrix,
) {
    out.resize(block.num_dst(), h_src.cols());
    for v in (0..block.num_dst()).filter(|&v| is_live(live, v)) {
        let nbrs = block.adj.neighbors(v);
        let inv = 1.0 / (nbrs.len() + 1) as f32;
        let row = out.row_mut(v);
        row.copy_from_slice(h_src.row(v));
        for &u in nbrs {
            for (x, &s) in row.iter_mut().zip(h_src.row(u as usize)) {
                *x += s;
            }
        }
        for x in row.iter_mut() {
            *x *= inv;
        }
    }
}

/// Backward of [`mean_agg_with_self`]: scatter the live rows of `d_agg`
/// (rows = dst) into `d_h_src` (rows = src), accumulating.
pub(crate) fn mean_agg_with_self_backward(
    block: &Block,
    d_agg: &Matrix,
    d_h_src: &mut Matrix,
    live: Option<&[bool]>,
) {
    for v in (0..block.num_dst()).filter(|&v| is_live(live, v)) {
        let nbrs = block.adj.neighbors(v);
        let inv = 1.0 / (nbrs.len() + 1) as f32;
        let g = d_agg.row(v);
        {
            let dst = d_h_src.row_mut(v);
            for (x, &gv) in dst.iter_mut().zip(g) {
                *x += inv * gv;
            }
        }
        for &u in nbrs {
            let dst = d_h_src.row_mut(u as usize);
            for (x, &gv) in dst.iter_mut().zip(g) {
                *x += inv * gv;
            }
        }
    }
}

/// Neighbor-only mean `mean_{u∈nbrs} h_u` written into `out` — zero when
/// there are no (unpruned) neighbors. The GraphSAGE / R-SAGE aggregator,
/// straight into the caller's row.
pub(crate) fn mean_neighbors_into(out: &mut [f32], nbrs: &[u32], h_src: &Matrix) {
    out.fill(0.0);
    if nbrs.is_empty() {
        return;
    }
    let inv = 1.0 / nbrs.len() as f32;
    for &u in nbrs {
        for (x, &s) in out.iter_mut().zip(h_src.row(u as usize)) {
            *x += s;
        }
    }
    for x in out.iter_mut() {
        *x *= inv;
    }
}

/// Backward of [`mean_neighbors_into`]: spread `g` over the neighbors' rows
/// of `d_h_src`, accumulating.
pub(crate) fn mean_neighbors_backward(g: &[f32], nbrs: &[u32], d_h_src: &mut Matrix) {
    if nbrs.is_empty() {
        return;
    }
    let inv = 1.0 / nbrs.len() as f32;
    for &u in nbrs {
        for (x, &gv) in d_h_src.row_mut(u as usize).iter_mut().zip(g) {
            *x += inv * gv;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgnn_graph::Csr2;

    fn block() -> Block {
        // dst = {0, 1}; src = {0, 1, 2}; 0 <- {2}, 1 <- {} .
        Block {
            dst_global: vec![10, 11],
            src_global: vec![10, 11, 12],
            adj: Csr2::from_neighbor_lists(&[vec![2], vec![]]),
        }
    }

    #[test]
    fn mean_with_self_averages_self_and_neighbors() {
        let b = block();
        let h = Matrix::from_vec(3, 2, vec![2.0, 0.0, 4.0, 4.0, 6.0, 2.0]);
        let mut agg = Matrix::default();
        mean_agg_with_self(&b, &h, None, &mut agg);
        // Node 0: (h0 + h2)/2 = (4, 1). Node 1: h1/1 = (4, 4).
        assert_eq!(agg.row(0), &[4.0, 1.0]);
        assert_eq!(agg.row(1), &[4.0, 4.0]);
    }

    #[test]
    fn mean_with_self_backward_distributes_evenly() {
        let b = block();
        let d_agg = Matrix::from_vec(2, 2, vec![2.0, 2.0, 6.0, 0.0]);
        let mut d_h = Matrix::zeros(3, 2);
        mean_agg_with_self_backward(&b, &d_agg, &mut d_h, None);
        assert_eq!(d_h.row(0), &[1.0, 1.0]); // self share of node 0
        assert_eq!(d_h.row(1), &[6.0, 0.0]); // self share of node 1 (deg 0)
        assert_eq!(d_h.row(2), &[1.0, 1.0]); // neighbor share
    }

    #[test]
    fn with_self_skips_rows_that_are_not_live() {
        let b = block();
        let h = Matrix::from_vec(3, 2, vec![2.0, 0.0, 4.0, 4.0, 6.0, 2.0]);
        let live = [true, false];
        let mut agg = Matrix::full(2, 2, 7.0);
        mean_agg_with_self(&b, &h, Some(&live), &mut agg);
        assert_eq!(agg.row(0), &[4.0, 1.0]);
        assert_eq!(agg.row(1), &[7.0, 7.0], "a dead row is left alone");
        let d_agg = Matrix::from_vec(2, 2, vec![2.0, 2.0, 6.0, 0.0]);
        let mut d_h = Matrix::zeros(3, 2);
        mean_agg_with_self_backward(&b, &d_agg, &mut d_h, Some(&live));
        assert_eq!(d_h.row(1), &[0.0, 0.0], "no gradient through a dead row");
    }

    #[test]
    fn neighbor_mean_zero_for_isolated() {
        let b = block();
        let h = Matrix::from_vec(3, 2, vec![2.0, 0.0, 4.0, 4.0, 6.0, 2.0]);
        let mut agg = Matrix::full(2, 2, 7.0);
        for v in 0..2 {
            mean_neighbors_into(agg.row_mut(v), b.adj.neighbors(v), &h);
        }
        assert_eq!(agg.row(0), &[6.0, 2.0]);
        assert_eq!(agg.row(1), &[0.0, 0.0]);
    }

    #[test]
    fn neighbor_mean_backward_skips_isolated() {
        let b = block();
        let d_agg = Matrix::from_vec(2, 2, vec![3.0, 1.0, 9.0, 9.0]);
        let mut d_h = Matrix::zeros(3, 2);
        for v in 0..2 {
            mean_neighbors_backward(d_agg.row(v), b.adj.neighbors(v), &mut d_h);
        }
        assert_eq!(d_h.row(0), &[0.0, 0.0]);
        assert_eq!(d_h.row(1), &[0.0, 0.0]);
        assert_eq!(d_h.row(2), &[3.0, 1.0]);
    }

    #[test]
    fn param_zero_grad_keeps_value() {
        let mut p = Param::new(Matrix::full(2, 2, 3.0));
        p.grad = Matrix::full(2, 2, 1.0);
        p.zero_grad();
        assert_eq!(p.value, Matrix::full(2, 2, 3.0));
        assert_eq!(p.grad, Matrix::zeros(2, 2));
        assert_eq!(p.len(), 4);
    }

    #[test]
    fn activation_relu_roundtrip() {
        // 70 columns: the mask spans two words a row.
        let mut m = Matrix::from_fn(3, 70, |r, c| if (r + c) % 3 == 0 { -1.0 } else { 2.0 });
        let expect = m.map(|x| x.max(0.0));
        let live = [true, false, true];
        let mut mask = ActMask::default();
        Activation::Relu.forward_rows(&mut m, Some(&live), &mut mask);
        assert_eq!(m.row(0), expect.row(0));
        assert_eq!(m.row(1)[0], 2.0, "a dead row is left alone");
        assert_eq!(m.row(1)[2], -1.0, "a dead row is left alone");
        assert_eq!(m.row(2), expect.row(2));
        // Overwriting the output afterwards does not change the mask.
        m.row_mut(0).fill(9.0);
        let mut g = Matrix::full(3, 70, 5.0);
        Activation::Relu.backward_rows(&mut g, Some(&live), &mask);
        for r in [0, 2] {
            for c in 0..70 {
                let want = if expect.get(r, c) > 0.0 { 5.0 } else { 0.0 };
                assert_eq!(g.get(r, c), want, "({r}, {c})");
            }
        }
        assert!(g.row(1).iter().all(|&x| x == 5.0));

        let mut m2 = Matrix::from_vec(1, 2, vec![-1.0, 2.0]);
        Activation::None.forward_rows(&mut m2, None, &mut mask);
        assert_eq!(m2.as_slice(), &[-1.0, 2.0]);
    }

    /// The per-element, branching ReLU forward that the branch-free loop
    /// replaced, kept as its reference.
    fn relu_forward_reference(z: &mut Matrix, live: Option<&[bool]>, mask: &mut ActMask) {
        let words = z.cols().div_ceil(64);
        mask.words_per_row = words;
        mask.bits.resize(z.rows() * words, 0);
        for r in (0..z.rows()).filter(|&r| is_live(live, r)) {
            let row_bits = &mut mask.bits[r * words..][..words];
            for (word, chunk) in row_bits.iter_mut().zip(z.row_mut(r).chunks_mut(64)) {
                *word = 0;
                for (bit, x) in chunk.iter_mut().enumerate() {
                    let passed = *x > 0.0;
                    *word |= u64::from(passed) << bit;
                    *x = if passed { *x } else { 0.0 };
                }
            }
        }
    }

    /// The branching ReLU backward, kept as the reference for its
    /// branch-free replacement.
    fn relu_backward_reference(grad: &mut Matrix, live: Option<&[bool]>, mask: &ActMask) {
        for r in (0..grad.rows()).filter(|&r| is_live(live, r)) {
            for (&word, chunk) in mask.row(r).iter().zip(grad.row_mut(r).chunks_mut(64)) {
                for (bit, g) in chunk.iter_mut().enumerate() {
                    if word >> bit & 1 == 0 {
                        *g = 0.0;
                    }
                }
            }
        }
    }

    #[test]
    fn branch_free_relu_matches_the_branching_reference_bit_for_bit() {
        let specials = [
            f32::NAN,
            -f32::NAN,
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(1),
            -f32::from_bits(1),
            f32::MIN_POSITIVE / 3.0,
            -f32::MIN_POSITIVE / 3.0,
        ];
        let mut rng = fgnn_tensor::Rng::new(29);
        let entry = |rng: &mut fgnn_tensor::Rng| match rng.below(3) {
            0 => specials[rng.below(specials.len())],
            _ => rng.normal(),
        };
        let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for cols in [1, 63, 64, 65, 70, 172] {
            let rows = 7;
            for all_live in [true, false] {
                let live: Vec<bool> = (0..rows).map(|_| rng.bernoulli(0.6)).collect();
                let live = (!all_live).then_some(&live[..]);
                // Both masks start from an earlier batch's, so rows that are
                // not live must keep its words in each.
                let mut prior = ActMask::default();
                let mut z0 = Matrix::from_fn(rows, cols, |_, _| entry(&mut rng));
                relu_forward_reference(&mut z0, None, &mut prior);
                let (mut got_mask, mut want_mask) = (prior.clone(), prior);

                let z = Matrix::from_fn(rows, cols, |_, _| entry(&mut rng));
                let (mut got, mut want) = (z.clone(), z);
                Activation::Relu.forward_rows(&mut got, live, &mut got_mask);
                relu_forward_reference(&mut want, live, &mut want_mask);
                assert_eq!(bits(&got), bits(&want), "forward, {cols} columns");
                assert_eq!(got_mask.bits, want_mask.bits, "mask, {cols} columns");

                // A hook overwrites output rows before backward runs.
                got.row_mut(0).fill(f32::NAN);
                got.row_mut(rows - 1).fill(-1.0);
                let g = Matrix::from_fn(rows, cols, |_, _| entry(&mut rng));
                let (mut got_g, mut want_g) = (g.clone(), g);
                Activation::Relu.backward_rows(&mut got_g, live, &got_mask);
                relu_backward_reference(&mut want_g, live, &want_mask);
                assert_eq!(bits(&got_g), bits(&want_g), "backward, {cols} columns");
            }
        }
    }
}
