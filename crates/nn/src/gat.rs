// Index-based loops below intentionally walk several parallel arrays in
// lockstep; iterator zips would obscure the math. Clippy disagrees.
#![allow(clippy::needless_range_loop)]

//! Single-head GAT layer (Veličković et al.) with additive attention.
//!
//! For destination `v` with attention edges `E(v) = {v} ∪ N(v)` (the self
//! edge is always present):
//!
//! ```text
//! e_uv   = LeakyReLU(a_src · (W h_u) + a_dst · (W h_v))
//! α_uv   = softmax_{u ∈ E(v)}(e_uv)
//! h_v'   = act( Σ_u α_uv (W h_u) + b )
//! ```
//!
//! The paper evaluates multi-head GAT; a single head preserves the training
//! dynamics the cache policy interacts with (per-node embedding gradients
//! through attention) at a fraction of the cost. Backward is checked
//! against finite differences in `gradcheck` tests.

use crate::layer::{debug_assert_dead_rows_zero, ActMask, Activation, Param, Scratch};
use fgnn_graph::Block;
use fgnn_tensor::{ops, softmax, Matrix, Rng};

const LEAKY_SLOPE: f32 = 0.2;

/// Single-head GAT layer.
#[derive(Clone, Debug)]
pub struct GatLayer {
    /// Weight `in_dim x out_dim`.
    pub weight: Param,
    /// Source attention vector `1 x out_dim`.
    pub attn_src: Param,
    /// Destination attention vector `1 x out_dim`.
    pub attn_dst: Param,
    /// Bias `1 x out_dim`.
    pub bias: Param,
    /// Output activation.
    pub act: Activation,
}

/// Saved forward intermediates.
#[derive(Clone, Debug, Default)]
pub struct GatCtx {
    wh: Matrix,
    /// Src rows some live dst attends to (`None` = all): the rows of `wh`
    /// that were computed and the only ones that can carry gradient.
    live_src: Option<Vec<bool>>,
    /// Edge segments per dst (CSR offsets into `edge_src`).
    seg: Vec<usize>,
    /// Local src index per attention edge (self edge first in each segment).
    edge_src: Vec<u32>,
    /// Pre-LeakyReLU attention logits per edge.
    raw: Vec<f32>,
    /// Post-softmax attention per edge.
    alpha: Vec<f32>,
    mask: ActMask,
}

impl GatLayer {
    /// Glorot-initialized layer.
    pub fn new(in_dim: usize, out_dim: usize, act: Activation, rng: &mut Rng) -> Self {
        GatLayer {
            weight: Param::new(rng.glorot_matrix(in_dim, out_dim)),
            attn_src: Param::new(rng.normal_matrix(1, out_dim, (1.0 / out_dim as f32).sqrt())),
            attn_dst: Param::new(rng.normal_matrix(1, out_dim, (1.0 / out_dim as f32).sqrt())),
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

    /// Forward over a block into `out` (reshaped to `num_dst x out_dim`,
    /// every row written) and `ctx`; `W h_u` is computed only for the src
    /// rows a `live` dst (`None` = all) attends to.
    pub fn forward(
        &self,
        block: &Block,
        h_src: &Matrix,
        live: Option<&[bool]>,
        out: &mut Matrix,
        ctx: &mut GatCtx,
    ) {
        debug_assert_eq!(h_src.rows(), block.num_src());
        let out_dim = self.out_dim();
        let n_dst = block.num_dst();
        ctx.live_src = live.map(|live| {
            let mut src = vec![false; block.num_src()];
            for v in (0..n_dst).filter(|&v| live[v]) {
                src[v] = true;
                for &u in block.adj.neighbors(v) {
                    src[u as usize] = true;
                }
            }
            src
        });
        // The attention below walks every dst row, so the rows of `wh` that
        // are not computed must read as zero.
        let GatCtx {
            wh,
            live_src,
            seg,
            edge_src,
            raw,
            alpha,
            mask,
        } = ctx;
        wh.resize_zeroed(h_src.rows(), out_dim);
        ops::matmul_rows_into(h_src, &self.weight.value, live_src.as_deref(), wh).expect("gat Wh");

        // Per-node attention halves.
        let a_src = self.attn_src.value.row(0);
        let a_dst = self.attn_dst.value.row(0);
        let s_src: Vec<f32> = (0..wh.rows()).map(|u| dot(wh.row(u), a_src)).collect();

        // Build attention edge lists: self edge + sampled neighbors.
        seg.clear();
        edge_src.clear();
        seg.push(0);
        for v in 0..n_dst {
            edge_src.push(v as u32);
            edge_src.extend_from_slice(block.adj.neighbors(v));
            seg.push(edge_src.len());
        }

        raw.clear();
        for v in 0..n_dst {
            let sv = dot(wh.row(v), a_dst);
            for &u in &edge_src[seg[v]..seg[v + 1]] {
                raw.push(s_src[u as usize] + sv);
            }
        }
        alpha.clear();
        alpha.extend(
            raw.iter()
                .map(|&x| if x > 0.0 { x } else { LEAKY_SLOPE * x }),
        );
        softmax::segment_softmax_inplace(alpha, seg);

        out.resize_zeroed(n_dst, out_dim);
        for v in 0..n_dst {
            let row = out.row_mut(v);
            for e in seg[v]..seg[v + 1] {
                let u = edge_src[e] as usize;
                let a = alpha[e];
                for (x, &w) in row.iter_mut().zip(wh.row(u)) {
                    *x += a * w;
                }
            }
        }
        ops::add_bias_rows(out, self.bias.value.row(0), None);
        self.act.forward_rows(out, None, mask);
    }

    /// Backward: accumulates parameter gradients and writes `d_h_src`
    /// (reshaped to `num_src x in_dim`). `d_out` is consumed: it leaves as
    /// the pre-activation gradient.
    ///
    /// `h_src` and `live` must be what [`GatLayer::forward`] was given
    /// (`h_src` for the weight gradient `dW = h_srcᵀ · d_Wh`).
    pub fn backward(
        &mut self,
        ctx: &GatCtx,
        h_src: &Matrix,
        d_out: &mut Matrix,
        live: Option<&[bool]>,
        scratch: &mut Scratch,
        d_h_src: &mut Matrix,
    ) {
        self.backward_params(ctx, h_src, d_out, live, &mut scratch.d_mid);
        // Rows of `d_h_src` that are not live are zero, as its consumers
        // expect of a gradient.
        d_h_src.resize_zeroed(h_src.rows(), self.in_dim());
        ops::matmul_a_bt_rows_into(
            &scratch.d_mid,
            &self.weight.value,
            ctx.live_src.as_deref(),
            &mut scratch.weight_t,
            d_h_src,
        )
        .expect("gat d_h");
    }

    /// The parameter half of [`GatLayer::backward`]: turns `d_out` into the
    /// pre-activation gradient in place, accumulates every parameter
    /// gradient and writes `d_Wh` into `d_wh`. All the input layer of a
    /// training step needs. Rows of `d_out` that are not live must be zero.
    pub fn backward_params(
        &mut self,
        ctx: &GatCtx,
        h_src: &Matrix,
        d_out: &mut Matrix,
        live: Option<&[bool]>,
        d_wh: &mut Matrix,
    ) {
        debug_assert_dead_rows_zero(d_out, live);
        let n_dst = d_out.rows();
        let out_dim = self.out_dim();
        self.act.backward_rows(d_out, None, &ctx.mask);
        let dz = &*d_out;
        ops::column_sums_acc(dz, self.bias.grad.row_mut(0));

        // out[v] = Σ_e α_e wh[u_e]:
        //   d_alpha[e] = dz[v]·wh[u],  d_wh[u] += α_e dz[v].
        d_wh.resize_zeroed(ctx.wh.rows(), out_dim);
        let mut d_alpha = vec![0.0f32; ctx.edge_src.len()];
        for v in 0..n_dst {
            let gv = dz.row(v);
            for e in ctx.seg[v]..ctx.seg[v + 1] {
                let u = ctx.edge_src[e] as usize;
                d_alpha[e] = dot(gv, ctx.wh.row(u));
                let a = ctx.alpha[e];
                let du = d_wh.row_mut(u);
                for (x, &g) in du.iter_mut().zip(gv) {
                    *x += a * g;
                }
            }
        }

        // Through the per-destination softmax, then LeakyReLU.
        softmax::segment_softmax_backward_inplace(&ctx.alpha, &mut d_alpha, &ctx.seg);
        for (d, &r) in d_alpha.iter_mut().zip(&ctx.raw) {
            *d *= leaky_relu_grad(r, LEAKY_SLOPE);
        }
        let d_raw = d_alpha;

        // raw_e = a_src·wh[u] + a_dst·wh[v]:
        //   d_a_src += d_raw_e wh[u],  d_wh[u] += d_raw_e a_src,
        //   and per dst: d_a_dst += (Σ_e d_raw_e) wh[v],
        //                d_wh[v] += (Σ_e d_raw_e) a_dst.
        let a_src = self.attn_src.value.row(0).to_vec();
        let a_dst = self.attn_dst.value.row(0).to_vec();
        let mut d_a_src = vec![0.0f32; out_dim];
        let mut d_a_dst = vec![0.0f32; out_dim];
        for v in 0..n_dst {
            let mut sum_draw = 0.0;
            for e in ctx.seg[v]..ctx.seg[v + 1] {
                let u = ctx.edge_src[e] as usize;
                let g = d_raw[e];
                sum_draw += g;
                let wh_u = ctx.wh.row(u);
                let du = d_wh.row_mut(u);
                for k in 0..out_dim {
                    du[k] += g * a_src[k];
                    d_a_src[k] += g * wh_u[k];
                }
            }
            let wh_v = ctx.wh.row(v);
            for k in 0..out_dim {
                d_a_dst[k] += sum_draw * wh_v[k];
            }
            let dv = d_wh.row_mut(v);
            for (x, &a) in dv.iter_mut().zip(&a_dst) {
                *x += sum_draw * a;
            }
        }

        for (g, d) in self.attn_src.grad.row_mut(0).iter_mut().zip(&d_a_src) {
            *g += d;
        }
        for (g, d) in self.attn_dst.grad.row_mut(0).iter_mut().zip(&d_a_dst) {
            *g += d;
        }

        ops::matmul_at_b_rows_acc(h_src, d_wh, ctx.live_src.as_deref(), &mut self.weight.grad)
            .expect("gat dW");
    }

    /// Mutable parameter references (stable order).
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![
            &mut self.weight,
            &mut self.attn_src,
            &mut self.attn_dst,
            &mut self.bias,
        ]
    }
}

/// LeakyReLU derivative evaluated at the forward *input*.
fn leaky_relu_grad(x: f32, alpha: f32) -> f32 {
    if x > 0.0 {
        1.0
    } else {
        alpha
    }
}

#[inline]
fn dot(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(&x, &y)| x * y).sum()
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
    fn forward_shapes_and_alpha_normalized() {
        let mut rng = Rng::new(1);
        let layer = GatLayer::new(3, 4, Activation::None, &mut rng);
        let h = rng.normal_matrix(4, 3, 1.0);
        let (mut out, mut ctx) = (Matrix::default(), GatCtx::default());
        layer.forward(&block(), &h, None, &mut out, &mut ctx);
        assert_eq!(out.shape(), (2, 4));
        // Per-destination attention sums to one (3 edges for dst 0, 2 for dst 1).
        let s0: f32 = ctx.alpha[ctx.seg[0]..ctx.seg[1]].iter().sum();
        let s1: f32 = ctx.alpha[ctx.seg[1]..ctx.seg[2]].iter().sum();
        assert!((s0 - 1.0).abs() < 1e-5);
        assert!((s1 - 1.0).abs() < 1e-5);
    }

    #[test]
    fn isolated_node_attends_only_to_itself() {
        let mut rng = Rng::new(2);
        let layer = GatLayer::new(2, 2, Activation::None, &mut rng);
        let b = Block {
            dst_global: vec![7],
            src_global: vec![7],
            adj: Csr2::from_neighbor_lists(&[vec![]]),
        };
        let h = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        let (mut out, mut ctx) = (Matrix::default(), GatCtx::default());
        layer.forward(&b, &h, None, &mut out, &mut ctx);
        assert_eq!(ctx.alpha, vec![1.0]);
        // out = W h + b exactly.
        let expected = ops::matmul(&h, &layer.weight.value).unwrap();
        for (x, y) in out.as_slice().iter().zip(expected.as_slice()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn backward_produces_all_gradients() {
        let mut rng = Rng::new(3);
        let mut layer = GatLayer::new(3, 4, Activation::Relu, &mut rng);
        let h = rng.normal_matrix(4, 3, 1.0);
        let (mut out, mut ctx, mut d_h) = (Matrix::default(), GatCtx::default(), Matrix::default());
        layer.forward(&block(), &h, None, &mut out, &mut ctx);
        let mut d_out = rng.normal_matrix(2, 4, 1.0);
        layer.backward(
            &ctx,
            &h,
            &mut d_out,
            None,
            &mut Scratch::default(),
            &mut d_h,
        );
        assert_eq!(d_h.shape(), (4, 3));
        assert!(layer.weight.grad.frobenius_norm() > 0.0);
        assert!(layer.attn_src.grad.frobenius_norm() > 0.0);
        assert!(layer.attn_dst.grad.frobenius_norm() > 0.0);
    }
}
