//! GraphSAGE layer (Hamilton et al.) with the mean aggregator:
//! `h_dst = act( concat(h_self, mean_{u∈N(v)} h_u) · W + b )`.

use crate::layer::{
    debug_assert_dead_rows_zero, mean_neighbors_backward, mean_neighbors_into, Activation, Param,
};
use fgnn_graph::Block;
use fgnn_tensor::ops::{self, is_live};
use fgnn_tensor::{Matrix, Rng};

/// GraphSAGE-mean layer.
#[derive(Clone, Debug)]
pub struct SageLayer {
    /// Weight `(2*in_dim) x out_dim` applied to `[h_self | mean_nbrs]`.
    pub weight: Param,
    /// Bias `1 x out_dim`.
    pub bias: Param,
    /// Output activation.
    pub act: Activation,
    in_dim: usize,
}

/// Saved forward intermediates.
pub struct SageCtx {
    cat: Matrix,
    out: Matrix,
}

impl SageLayer {
    /// Glorot-initialized layer.
    pub fn new(in_dim: usize, out_dim: usize, act: Activation, rng: &mut Rng) -> Self {
        SageLayer {
            weight: Param::new(rng.glorot_matrix(2 * in_dim, out_dim)),
            bias: Param::new(Matrix::zeros(1, out_dim)),
            act,
            in_dim,
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.weight.value.cols()
    }

    /// Forward over a block. Returns `(h_dst, ctx)`; only the `live` dst
    /// rows (`None` = all) are aggregated and transformed.
    pub fn forward(
        &self,
        block: &Block,
        h_src: &Matrix,
        live: Option<&[bool]>,
    ) -> (Matrix, SageCtx) {
        debug_assert_eq!(h_src.rows(), block.num_src());
        debug_assert_eq!(h_src.cols(), self.in_dim);
        let n_dst = block.num_dst();
        // `[h_self | mean_nbrs]` written in one pass; self rows are the src
        // prefix (block invariant).
        let mut cat = Matrix::zeros(n_dst, 2 * self.in_dim);
        for v in (0..n_dst).filter(|&v| is_live(live, v)) {
            let (self_half, nbr_half) = cat.row_mut(v).split_at_mut(self.in_dim);
            self_half.copy_from_slice(h_src.row(v));
            mean_neighbors_into(nbr_half, block.adj.neighbors(v), h_src);
        }
        let mut out = ops::matmul_rows(&cat, &self.weight.value, live).expect("sage matmul");
        ops::add_bias(&mut out, self.bias.value.row(0));
        self.act.forward_inplace(&mut out);
        let ctx = SageCtx {
            cat,
            out: out.clone(),
        };
        (out, ctx)
    }

    /// Backward: accumulates parameter gradients, returns `d_h_src`.
    pub fn backward(
        &mut self,
        block: &Block,
        ctx: &SageCtx,
        d_out: &Matrix,
        live: Option<&[bool]>,
    ) -> Matrix {
        let dz = self.backward_params(ctx, d_out, live);
        let d_cat = ops::matmul_a_bt_rows(&dz, &self.weight.value, live).expect("sage d_cat");

        let mut d_h_src = Matrix::zeros(block.num_src(), self.in_dim);
        // Self halves go to the src prefix rows, all of them before any
        // neighbor half lands (the accumulation order is part of the
        // bit-level contract).
        for v in (0..block.num_dst()).filter(|&v| is_live(live, v)) {
            let d_self = &d_cat.row(v)[..self.in_dim];
            for (x, &g) in d_h_src.row_mut(v).iter_mut().zip(d_self) {
                *x += g;
            }
        }
        for v in (0..block.num_dst()).filter(|&v| is_live(live, v)) {
            let d_nbr = &d_cat.row(v)[self.in_dim..];
            mean_neighbors_backward(d_nbr, block.adj.neighbors(v), &mut d_h_src);
        }
        d_h_src
    }

    /// The parameter half of [`SageLayer::backward`]: accumulates `dW`/`db`
    /// and returns the pre-activation gradient `dz`. All the input layer of a
    /// training step needs. Rows of `d_out` that are not live must be zero.
    pub fn backward_params(
        &mut self,
        ctx: &SageCtx,
        d_out: &Matrix,
        live: Option<&[bool]>,
    ) -> Matrix {
        debug_assert_dead_rows_zero(d_out, live);
        let mut dz = d_out.clone();
        self.act.backward_inplace(&mut dz, &ctx.out);

        let dw = ops::matmul_at_b_rows(&ctx.cat, &dz, live).expect("sage dW");
        ops::add_assign(&mut self.weight.grad, &dw).expect("sage dW acc");
        for (g, d) in self
            .bias
            .grad
            .row_mut(0)
            .iter_mut()
            .zip(ops::column_sums(&dz))
        {
            *g += d;
        }
        dz
    }

    /// Mutable parameter references (stable order).
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgnn_graph::Csr2;

    fn block() -> Block {
        Block {
            dst_global: vec![5, 6],
            src_global: vec![5, 6, 7],
            adj: Csr2::from_neighbor_lists(&[vec![1, 2], vec![]]),
        }
    }

    #[test]
    fn forward_shapes_and_isolated_node() {
        let mut rng = Rng::new(1);
        let layer = SageLayer::new(3, 4, Activation::None, &mut rng);
        let h = rng.normal_matrix(3, 3, 1.0);
        let (out, ctx) = layer.forward(&block(), &h, None);
        assert_eq!(out.shape(), (2, 4));
        // Isolated dst node 1: neighbor half of concat is zero.
        assert_eq!(ctx.cat.row(1)[3..], [0.0, 0.0, 0.0]);
    }

    #[test]
    fn backward_shapes_and_nonzero_grads() {
        let mut rng = Rng::new(2);
        let mut layer = SageLayer::new(3, 4, Activation::Relu, &mut rng);
        let h = rng.normal_matrix(3, 3, 1.0);
        let (_, ctx) = layer.forward(&block(), &h, None);
        let d_out = rng.normal_matrix(2, 4, 1.0);
        let d_h = layer.backward(&block(), &ctx, &d_out, None);
        assert_eq!(d_h.shape(), (3, 3));
        assert!(layer.weight.grad.frobenius_norm() > 0.0);
        assert!(layer.bias.grad.frobenius_norm() > 0.0);
    }

    #[test]
    fn self_gradient_flows_even_without_neighbors() {
        let mut rng = Rng::new(3);
        let mut layer = SageLayer::new(2, 2, Activation::None, &mut rng);
        let b = Block {
            dst_global: vec![0],
            src_global: vec![0],
            adj: Csr2::from_neighbor_lists(&[vec![]]),
        };
        let h = Matrix::from_vec(1, 2, vec![1.0, -1.0]);
        let (_, ctx) = layer.forward(&b, &h, None);
        let d_out = Matrix::full(1, 2, 1.0);
        let d_h = layer.backward(&b, &ctx, &d_out, None);
        assert!(d_h.frobenius_norm() > 0.0);
    }
}
