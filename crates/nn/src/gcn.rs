//! GCN layer (Kipf & Welling) over sampled blocks.
//!
//! `h_dst = act( mean(h_self ∪ h_neighbors) · W + b )` — the self-loop mean
//! form of `Â H W` restricted to the sampled block (the standard mini-batch
//! adaptation used by DGL's `GraphConv` with `norm="right"` + self loops).

use crate::layer::{
    debug_assert_dead_rows_zero, mean_agg_with_self, mean_agg_with_self_backward, ActMask,
    Activation, Param, Scratch,
};
use fgnn_graph::Block;
use fgnn_tensor::{ops, Matrix, Rng};

/// GCN layer parameters.
#[derive(Clone, Debug)]
pub struct GcnLayer {
    /// Weight `in_dim x out_dim`.
    pub weight: Param,
    /// Bias `1 x out_dim`.
    pub bias: Param,
    /// Output activation.
    pub act: Activation,
}

/// Saved forward intermediates for the backward pass.
#[derive(Clone, Debug, Default)]
pub struct GcnCtx {
    agg: Matrix,
    mask: ActMask,
}

impl GcnLayer {
    /// Glorot-initialized layer.
    pub(crate) fn new(in_dim: usize, out_dim: usize, act: Activation, rng: &mut Rng) -> Self {
        GcnLayer {
            weight: Param::new(rng.glorot_matrix(in_dim, out_dim)),
            bias: Param::new(Matrix::zeros(1, out_dim)),
            act,
        }
    }

    /// Input dimension.
    pub(crate) fn in_dim(&self) -> usize {
        self.weight.value.rows()
    }

    /// Output dimension.
    pub(crate) fn out_dim(&self) -> usize {
        self.weight.value.cols()
    }

    /// Forward over a block (`h_src` has one row per block source node) into
    /// `out` (reshaped to `num_dst x out_dim`) and `ctx`, both reused across
    /// calls. Only the `live` dst rows (`None` = all) are aggregated and
    /// transformed; the others keep whatever the buffers held.
    pub(crate) fn forward(
        &self,
        block: &Block,
        h_src: &Matrix,
        live: Option<&[bool]>,
        out: &mut Matrix,
        ctx: &mut GcnCtx,
    ) {
        debug_assert_eq!(h_src.rows(), block.num_src());
        debug_assert_eq!(h_src.cols(), self.in_dim());
        mean_agg_with_self(block, h_src, live, &mut ctx.agg);
        ops::matmul_rows_into(&ctx.agg, &self.weight.value, live, out).expect("gcn matmul");
        ops::add_bias_rows(out, self.bias.value.row(0), live);
        self.act.forward_rows(out, live, &mut ctx.mask);
    }

    /// Backward: accumulates parameter gradients and writes `d_h_src`
    /// (reshaped to `num_src x in_dim`). `d_out` is consumed: it leaves as
    /// the pre-activation gradient.
    pub(crate) fn backward(
        &mut self,
        block: &Block,
        ctx: &GcnCtx,
        d_out: &mut Matrix,
        live: Option<&[bool]>,
        scratch: &mut Scratch,
        d_h_src: &mut Matrix,
    ) {
        self.backward_params(ctx, d_out, live);
        let Scratch {
            d_mid: d_agg,
            weight_t,
        } = scratch;
        ops::matmul_a_bt_rows_into(d_out, &self.weight.value, live, weight_t, d_agg)
            .expect("gcn d_agg");
        d_h_src.resize_zeroed(block.num_src(), self.in_dim());
        mean_agg_with_self_backward(block, d_agg, d_h_src, live);
    }

    /// The parameter half of [`GcnLayer::backward`]: turns `d_out` into the
    /// pre-activation gradient in place and accumulates `dW`/`db` from it.
    /// All the input layer of a training step needs. Rows of `d_out` that
    /// are not live must be zero.
    pub(crate) fn backward_params(
        &mut self,
        ctx: &GcnCtx,
        d_out: &mut Matrix,
        live: Option<&[bool]>,
    ) {
        debug_assert_dead_rows_zero(d_out, live);
        self.act.backward_rows(d_out, live, &ctx.mask);
        ops::matmul_at_b_rows_acc(&ctx.agg, d_out, live, &mut self.weight.grad).expect("gcn dW");
        ops::column_sums_acc(d_out, self.bias.grad.row_mut(0));
    }

    /// Mutable references to this layer's parameters (stable order).
    pub(crate) fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgnn_graph::Csr2;

    fn block() -> Block {
        Block {
            dst_global: vec![0, 1],
            src_global: vec![0, 1, 2, 3],
            adj: Csr2::from_neighbor_lists(&[vec![2, 3], vec![3]]),
        }
    }

    #[test]
    fn forward_shapes() {
        let mut rng = Rng::new(1);
        let layer = GcnLayer::new(3, 5, Activation::Relu, &mut rng);
        let h = rng.normal_matrix(4, 3, 1.0);
        let (mut out, mut ctx) = Default::default();
        layer.forward(&block(), &h, None, &mut out, &mut ctx);
        assert_eq!(out.shape(), (2, 5));
    }

    #[test]
    fn identity_weight_no_act_reproduces_aggregation() {
        let mut rng = Rng::new(2);
        let mut layer = GcnLayer::new(2, 2, Activation::None, &mut rng);
        layer.weight.value = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        let h = Matrix::from_vec(4, 2, vec![1.0, 1.0, 2.0, 2.0, 4.0, 0.0, 0.0, 4.0]);
        let (mut out, mut ctx) = Default::default();
        layer.forward(&block(), &h, None, &mut out, &mut ctx);
        // Node 0: mean(h0,h2,h3) = (5/3, 5/3); node 1: mean(h1,h3) = (1, 3).
        assert!((out.get(0, 0) - 5.0 / 3.0).abs() < 1e-6);
        assert!((out.get(1, 0) - 1.0).abs() < 1e-6);
        assert!((out.get(1, 1) - 3.0).abs() < 1e-6);
    }

    #[test]
    fn backward_produces_gradients_for_all_sources() {
        let mut rng = Rng::new(3);
        let mut layer = GcnLayer::new(3, 4, Activation::Relu, &mut rng);
        let h = rng.normal_matrix(4, 3, 1.0);
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
        assert_eq!(d_h.shape(), (4, 3));
        assert!(layer.weight.grad.frobenius_norm() > 0.0);
    }
}
