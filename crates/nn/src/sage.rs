//! GraphSAGE layer (Hamilton et al.) with the mean aggregator:
//! `h_dst = act( concat(h_self, mean_{u∈N(v)} h_u) · W + b )`.

use crate::layer::{
    debug_assert_dead_rows_zero, mean_neighbors_backward, mean_neighbors_into, ActMask, Activation,
    Param, Scratch,
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
#[derive(Clone, Debug, Default)]
pub struct SageCtx {
    cat: Matrix,
    mask: ActMask,
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

    /// Forward over a block into `out` (reshaped to `num_dst x out_dim`) and
    /// `ctx`, both reused across calls. Only the `live` dst rows (`None` =
    /// all) are aggregated and transformed; the others keep whatever the
    /// buffers held.
    pub fn forward(
        &self,
        block: &Block,
        h_src: &Matrix,
        live: Option<&[bool]>,
        out: &mut Matrix,
        ctx: &mut SageCtx,
    ) {
        debug_assert_eq!(h_src.rows(), block.num_src());
        debug_assert_eq!(h_src.cols(), self.in_dim);
        let n_dst = block.num_dst();
        // `[h_self | mean_nbrs]` written in one pass; self rows are the src
        // prefix (block invariant).
        ctx.cat.resize(n_dst, 2 * self.in_dim);
        for v in (0..n_dst).filter(|&v| is_live(live, v)) {
            let (self_half, nbr_half) = ctx.cat.row_mut(v).split_at_mut(self.in_dim);
            self_half.copy_from_slice(h_src.row(v));
            mean_neighbors_into(nbr_half, block.adj.neighbors(v), h_src);
        }
        ops::matmul_rows_into(&ctx.cat, &self.weight.value, live, out).expect("sage matmul");
        ops::add_bias_rows(out, self.bias.value.row(0), live);
        self.act.forward_rows(out, live, &mut ctx.mask);
    }

    /// Backward: accumulates parameter gradients and writes `d_h_src`
    /// (reshaped to `num_src x in_dim`). `d_out` is consumed: it leaves as
    /// the pre-activation gradient.
    pub fn backward(
        &mut self,
        block: &Block,
        ctx: &SageCtx,
        d_out: &mut Matrix,
        live: Option<&[bool]>,
        scratch: &mut Scratch,
        d_h_src: &mut Matrix,
    ) {
        self.backward_params(ctx, d_out, live);
        let Scratch {
            d_mid: d_cat,
            weight_t,
        } = scratch;
        ops::matmul_a_bt_rows_into(d_out, &self.weight.value, live, weight_t, d_cat)
            .expect("sage d_cat");

        d_h_src.resize_zeroed(block.num_src(), self.in_dim);
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
            mean_neighbors_backward(d_nbr, block.adj.neighbors(v), d_h_src);
        }
    }

    /// The parameter half of [`SageLayer::backward`]: turns `d_out` into the
    /// pre-activation gradient in place and accumulates `dW`/`db` from it.
    /// All the input layer of a training step needs. Rows of `d_out` that
    /// are not live must be zero.
    pub fn backward_params(&mut self, ctx: &SageCtx, d_out: &mut Matrix, live: Option<&[bool]>) {
        debug_assert_dead_rows_zero(d_out, live);
        self.act.backward_rows(d_out, live, &ctx.mask);
        ops::matmul_at_b_rows_acc(&ctx.cat, d_out, live, &mut self.weight.grad).expect("sage dW");
        ops::column_sums_acc(d_out, self.bias.grad.row_mut(0));
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
        let (mut out, mut ctx) = Default::default();
        layer.forward(&block(), &h, None, &mut out, &mut ctx);
        assert_eq!(out.shape(), (2, 4));
        // Isolated dst node 1: neighbor half of concat is zero.
        assert_eq!(ctx.cat.row(1)[3..], [0.0, 0.0, 0.0]);
    }

    #[test]
    fn backward_shapes_and_nonzero_grads() {
        let mut rng = Rng::new(2);
        let mut layer = SageLayer::new(3, 4, Activation::Relu, &mut rng);
        let h = rng.normal_matrix(3, 3, 1.0);
        let (mut out, mut ctx, mut d_h) = Default::default();
        layer.forward(&block(), &h, None, &mut out, &mut ctx);
        let mut d_out = rng.normal_matrix(2, 4, 1.0);
        layer.backward(
            &block(),
            &ctx,
            &mut d_out,
            None,
            &mut Scratch::default(),
            &mut d_h,
        );
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
        let (mut out, mut ctx, mut d_h) = Default::default();
        layer.forward(&b, &h, None, &mut out, &mut ctx);
        let mut d_out = Matrix::full(1, 2, 1.0);
        layer.backward(
            &b,
            &ctx,
            &mut d_out,
            None,
            &mut Scratch::default(),
            &mut d_h,
        );
        assert!(d_h.frobenius_norm() > 0.0);
    }
}
