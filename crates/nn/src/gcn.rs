//! GCN layer (Kipf & Welling) over sampled blocks.
//!
//! `h_dst = act( mean(h_self ∪ h_neighbors) · W + b )` — the self-loop mean
//! form of `Â H W` restricted to the sampled block (the standard mini-batch
//! adaptation used by DGL's `GraphConv` with `norm="right"` + self loops).

use crate::layer::{
    debug_assert_dead_rows_zero, mean_agg_with_self, mean_agg_with_self_backward, Activation, Param,
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
pub struct GcnCtx {
    agg: Matrix,
    out: Matrix,
}

impl GcnLayer {
    /// Glorot-initialized layer.
    pub fn new(in_dim: usize, out_dim: usize, act: Activation, rng: &mut Rng) -> Self {
        GcnLayer {
            weight: Param::new(rng.glorot_matrix(in_dim, out_dim)),
            bias: Param::new(Matrix::zeros(1, out_dim)),
            act,
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.weight.value.rows()
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.weight.value.cols()
    }

    /// Forward over a block: `h_src` has one row per block source node.
    /// Returns `(h_dst, ctx)`; only the `live` dst rows (`None` = all) are
    /// aggregated and transformed.
    pub fn forward(
        &self,
        block: &Block,
        h_src: &Matrix,
        live: Option<&[bool]>,
    ) -> (Matrix, GcnCtx) {
        debug_assert_eq!(h_src.rows(), block.num_src());
        debug_assert_eq!(h_src.cols(), self.in_dim());
        let agg = mean_agg_with_self(block, h_src, live);
        let mut out = ops::matmul_rows(&agg, &self.weight.value, live).expect("gcn matmul");
        ops::add_bias(&mut out, self.bias.value.row(0));
        self.act.forward_inplace(&mut out);
        let ctx = GcnCtx {
            agg,
            out: out.clone(),
        };
        (out, ctx)
    }

    /// Backward: accumulates parameter gradients, returns `d_h_src`.
    pub fn backward(
        &mut self,
        block: &Block,
        ctx: &GcnCtx,
        d_out: &Matrix,
        live: Option<&[bool]>,
    ) -> Matrix {
        let dz = self.backward_params(ctx, d_out, live);
        let d_agg = ops::matmul_a_bt_rows(&dz, &self.weight.value, live).expect("gcn d_agg");
        let mut d_h_src = Matrix::zeros(block.num_src(), self.in_dim());
        mean_agg_with_self_backward(block, &d_agg, &mut d_h_src, live);
        d_h_src
    }

    /// The parameter half of [`GcnLayer::backward`]: accumulates `dW`/`db`
    /// and returns the pre-activation gradient `dz`. All the input layer of a
    /// training step needs. Rows of `d_out` that are not live must be zero.
    pub fn backward_params(
        &mut self,
        ctx: &GcnCtx,
        d_out: &Matrix,
        live: Option<&[bool]>,
    ) -> Matrix {
        debug_assert_dead_rows_zero(d_out, live);
        let mut dz = d_out.clone();
        self.act.backward_inplace(&mut dz, &ctx.out);

        let dw = ops::matmul_at_b_rows(&ctx.agg, &dz, live).expect("gcn dW");
        ops::add_assign(&mut self.weight.grad, &dw).expect("gcn dW acc");
        let db = ops::column_sums(&dz);
        for (g, &d) in self.bias.grad.row_mut(0).iter_mut().zip(&db) {
            *g += d;
        }
        dz
    }

    /// Mutable references to this layer's parameters (stable order).
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
        let (out, _) = layer.forward(&block(), &h, None);
        assert_eq!(out.shape(), (2, 5));
    }

    #[test]
    fn identity_weight_no_act_reproduces_aggregation() {
        let mut rng = Rng::new(2);
        let mut layer = GcnLayer::new(2, 2, Activation::None, &mut rng);
        layer.weight.value = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        let h = Matrix::from_vec(4, 2, vec![1.0, 1.0, 2.0, 2.0, 4.0, 0.0, 0.0, 4.0]);
        let (out, _) = layer.forward(&block(), &h, None);
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
        let (_, ctx) = layer.forward(&block(), &h, None);
        let d_out = rng.normal_matrix(2, 4, 1.0);
        let d_h = layer.backward(&block(), &ctx, &d_out, None);
        assert_eq!(d_h.shape(), (4, 3));
        assert!(layer.weight.grad.frobenius_norm() > 0.0);
    }
}
