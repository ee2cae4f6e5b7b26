//! Shared layer machinery: trainable parameters, activations, and the
//! block-aggregation kernels every GNN layer builds on.

use fgnn_graph::Block;
use fgnn_tensor::ops::is_live;
use fgnn_tensor::{activation, Matrix};

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
    pub fn new(value: Matrix) -> Self {
        let grad = Matrix::zeros(value.rows(), value.cols());
        Param { value, grad }
    }

    /// Reset the gradient to zero (keeps the allocation).
    pub fn zero_grad(&mut self) {
        self.grad.fill_zero();
    }

    /// Number of scalar parameters.
    pub fn len(&self) -> usize {
        self.value.rows() * self.value.cols()
    }

    /// Whether the parameter is empty (never true in practice).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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

impl Activation {
    /// Apply in place.
    pub fn forward_inplace(self, m: &mut Matrix) {
        if self == Activation::Relu {
            activation::relu_inplace(m);
        }
    }

    /// Chain rule through the activation given the forward *output*;
    /// modifies `grad` in place.
    pub fn backward_inplace(self, grad: &mut Matrix, fwd_out: &Matrix) {
        if self == Activation::Relu {
            activation::relu_backward_inplace(grad, fwd_out);
        }
    }
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

/// Mean aggregation including the self node: row `v` of the result is
/// `(h_v + Σ_{u∈N(v)} h_u) / (deg(v)+1)` — the GCN aggregation over a
/// sampled block (self-loop form of `Â`). Rows that are not live stay zero.
///
/// Relies on the block invariant that destination `v`'s own previous-layer
/// row is `h_src` row `v`.
pub fn mean_agg_with_self(block: &Block, h_src: &Matrix, live: Option<&[bool]>) -> Matrix {
    let dim = h_src.cols();
    let mut out = Matrix::zeros(block.num_dst(), dim);
    for v in (0..block.num_dst()).filter(|&v| is_live(live, v)) {
        let nbrs = block.adj.neighbors(v);
        let inv = 1.0 / (nbrs.len() + 1) as f32;
        let row = out.row_mut(v);
        for (x, &s) in row.iter_mut().zip(h_src.row(v)) {
            *x = s;
        }
        for &u in nbrs {
            for (x, &s) in row.iter_mut().zip(h_src.row(u as usize)) {
                *x += s;
            }
        }
        for x in row.iter_mut() {
            *x *= inv;
        }
    }
    out
}

/// Backward of [`mean_agg_with_self`]: scatter the live rows of `d_agg`
/// (rows = dst) into `d_h_src` (rows = src), accumulating.
pub fn mean_agg_with_self_backward(
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

/// Neighbor-only mean `mean_{u∈nbrs} h_u` accumulated into `out`, which must
/// arrive zeroed and stays zero when there are no (unpruned) neighbors — the
/// GraphSAGE / R-SAGE aggregator, written straight into the caller's row.
pub fn mean_neighbors_into(out: &mut [f32], nbrs: &[u32], h_src: &Matrix) {
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
pub fn mean_neighbors_backward(g: &[f32], nbrs: &[u32], d_h_src: &mut Matrix) {
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
        let agg = mean_agg_with_self(&b, &h, None);
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
        let agg = mean_agg_with_self(&b, &h, Some(&live));
        assert_eq!(agg.row(0), &[4.0, 1.0]);
        assert_eq!(agg.row(1), &[0.0, 0.0]);
        let d_agg = Matrix::from_vec(2, 2, vec![2.0, 2.0, 6.0, 0.0]);
        let mut d_h = Matrix::zeros(3, 2);
        mean_agg_with_self_backward(&b, &d_agg, &mut d_h, Some(&live));
        assert_eq!(d_h.row(1), &[0.0, 0.0], "no gradient through a dead row");
    }

    #[test]
    fn neighbor_mean_zero_for_isolated() {
        let b = block();
        let h = Matrix::from_vec(3, 2, vec![2.0, 0.0, 4.0, 4.0, 6.0, 2.0]);
        let mut agg = Matrix::zeros(2, 2);
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
        let mut m = Matrix::from_vec(1, 2, vec![-1.0, 2.0]);
        Activation::Relu.forward_inplace(&mut m);
        assert_eq!(m.as_slice(), &[0.0, 2.0]);
        let mut g = Matrix::from_vec(1, 2, vec![5.0, 5.0]);
        Activation::Relu.backward_inplace(&mut g, &m);
        assert_eq!(g.as_slice(), &[0.0, 5.0]);

        let mut m2 = Matrix::from_vec(1, 2, vec![-1.0, 2.0]);
        Activation::None.forward_inplace(&mut m2);
        assert_eq!(m2.as_slice(), &[-1.0, 2.0]);
    }
}
