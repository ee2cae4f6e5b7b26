//! Relational GraphSAGE (R-SAGE) for heterogeneous graphs (§7.6).
//!
//! Per node type `t` at every layer:
//!
//! ```text
//! h'_t[v] = act( h_t[v] · W_self[t]
//!              + Σ_{rel : dst(rel)=t} mean_{u ∈ N_rel(v)} h_{src(rel)}[u] · W_rel
//!              + b[t] )
//! ```
//!
//! — the R-GNN template of Schlichtkrull et al. with SAGE-style mean
//! aggregation per relation, matching the paper's "R-GraphSAGE".

use crate::layer::{
    debug_assert_dead_rows_zero, mean_neighbors_backward, mean_neighbors_into, ActMask, Activation,
    Param, Scratch,
};
use crate::model::{Arch, Parameters};
use fgnn_graph::hetero::{HeteroBlock, HeteroGraph, HeteroMiniBatch};
use fgnn_tensor::ops::{self, is_live};
use fgnn_tensor::{Matrix, Rng};

/// One R-SAGE layer over all node types and relations.
pub struct RSageLayer {
    /// Self weight per node type (`in_dim x out_dim`).
    pub w_self: Vec<Param>,
    /// Per-relation weight (`in_dim x out_dim`).
    pub w_rel: Vec<Param>,
    /// Bias per node type (`1 x out_dim`).
    pub bias: Vec<Param>,
    /// Relation metadata: `(src_type, dst_type)` per relation.
    rel_types: Vec<(usize, usize)>,
    /// Output activation.
    pub act: Activation,
    in_dim: usize,
}

/// Saved forward state per layer.
#[derive(Clone, Debug, Default)]
pub struct RSageCtx {
    /// Per type: the live self rows (the src prefix), as the self transform
    /// and its weight gradient read them.
    self_rows: Vec<Matrix>,
    /// Per-relation mean aggregation (rows = dst of the relation's dst type).
    rel_agg: Vec<Matrix>,
    /// Per type: which output entries the activation let through.
    mask: Vec<ActMask>,
    /// One relation's transformed aggregation, before it joins the output.
    z_rel: Matrix,
}

impl RSageLayer {
    /// Build a layer matching `graph`'s type/relation structure.
    pub(crate) fn new(
        graph: &HeteroGraph,
        in_dim: usize,
        out_dim: usize,
        act: Activation,
        rng: &mut Rng,
    ) -> Self {
        let n_types = graph.node_counts.len();
        RSageLayer {
            w_self: (0..n_types)
                .map(|_| Param::new(rng.glorot_matrix(in_dim, out_dim)))
                .collect(),
            w_rel: graph
                .relations
                .iter()
                .map(|_| Param::new(rng.glorot_matrix(in_dim, out_dim)))
                .collect(),
            bias: (0..n_types)
                .map(|_| Param::new(Matrix::zeros(1, out_dim)))
                .collect(),
            rel_types: graph
                .relations
                .iter()
                .map(|r| (r.src_type, r.dst_type))
                .collect(),
            act,
            in_dim,
        }
    }

    /// Forward over a typed block into the per-type `out` and `ctx`, both
    /// reused across calls. `h_src[t]` has one row per src node of type `t`.
    /// Only the dst rows `live[t]` marks (`None` = all) are aggregated and
    /// transformed; the others keep whatever the buffers held.
    pub(crate) fn forward(
        &self,
        block: &HeteroBlock,
        h_src: &[Matrix],
        live: Option<&[Vec<bool>]>,
        out: &mut Vec<Matrix>,
        ctx: &mut RSageCtx,
    ) {
        let n_types = block.dst.len();
        let live_of = |t: usize| live.map(|l| &l[t][..]);
        out.resize_with(n_types, Matrix::default);
        ctx.self_rows.resize_with(n_types, Matrix::default);
        ctx.mask.resize_with(n_types, ActMask::default);
        ctx.rel_agg
            .resize_with(self.rel_types.len(), Matrix::default);

        // Self term per type: the first `n_dst` rows of `h` (the src prefix).
        for (t, z) in out.iter_mut().enumerate() {
            let self_rows = &mut ctx.self_rows[t];
            self_rows.resize(block.dst[t].len(), self.in_dim);
            for v in (0..self_rows.rows()).filter(|&v| is_live(live_of(t), v)) {
                self_rows.row_mut(v).copy_from_slice(h_src[t].row(v));
            }
            ops::matmul_rows_into(self_rows, &self.w_self[t].value, live_of(t), z)
                .expect("rsage self");
            ops::add_bias_rows(z, self.bias[t].value.row(0), live_of(t));
        }

        // Relation terms.
        for (r, &(src_t, dst_t)) in self.rel_types.iter().enumerate() {
            let (adj, agg, live) = (&block.rel_adj[r], &mut ctx.rel_agg[r], live_of(dst_t));
            agg.resize(adj.num_nodes(), self.in_dim);
            for v in (0..adj.num_nodes()).filter(|&v| is_live(live, v)) {
                mean_neighbors_into(agg.row_mut(v), adj.neighbors(v), &h_src[src_t]);
            }
            if agg.rows() > 0 {
                ops::matmul_rows_into(agg, &self.w_rel[r].value, live, &mut ctx.z_rel)
                    .expect("rsage rel");
                ops::add_assign_rows(&mut out[dst_t], &ctx.z_rel, live).expect("rsage rel add");
            }
        }

        for (t, o) in out.iter_mut().enumerate() {
            self.act.forward_rows(o, live_of(t), &mut ctx.mask[t]);
        }
    }

    /// Backward; accumulates parameter grads and writes the per-type
    /// `d_h_src`. `live` must be what [`RSageLayer::forward`] was given;
    /// `d_out` is consumed (it leaves as the pre-activation gradients).
    pub(crate) fn backward(
        &mut self,
        block: &HeteroBlock,
        ctx: &RSageCtx,
        d_out: &mut [Matrix],
        live: Option<&[Vec<bool>]>,
        scratch: &mut Scratch,
        d_h_src: &mut Vec<Matrix>,
    ) {
        self.backward_params(ctx, d_out, live);
        let dz = &*d_out;
        let live_of = |t: usize| live.map(|l| &l[t][..]);
        let Scratch { d_mid, weight_t } = scratch;

        d_h_src.resize_with(block.dst.len(), Matrix::default);
        for (t, d_h) in d_h_src.iter_mut().enumerate() {
            d_h.resize_zeroed(block.src[t].len(), self.in_dim);
        }

        // Self path.
        for (t, d_h) in d_h_src.iter_mut().enumerate() {
            let w_self = &self.w_self[t].value;
            ops::matmul_a_bt_rows_into(&dz[t], w_self, live_of(t), weight_t, d_mid)
                .expect("rsage d_self");
            for v in (0..d_mid.rows()).filter(|&v| is_live(live_of(t), v)) {
                for (x, &g) in d_h.row_mut(v).iter_mut().zip(d_mid.row(v)) {
                    *x += g;
                }
            }
        }

        // Relation paths.
        for (r, &(src_t, dst_t)) in self.rel_types.iter().enumerate() {
            if ctx.rel_agg[r].rows() == 0 {
                continue;
            }
            let w_rel = &self.w_rel[r].value;
            ops::matmul_a_bt_rows_into(&dz[dst_t], w_rel, live_of(dst_t), weight_t, d_mid)
                .expect("rsage d_agg");
            let adj = &block.rel_adj[r];
            for v in (0..adj.num_nodes()).filter(|&v| is_live(live_of(dst_t), v)) {
                mean_neighbors_backward(d_mid.row(v), adj.neighbors(v), &mut d_h_src[src_t]);
            }
        }
    }

    /// The parameter half of [`RSageLayer::backward`]: turns every `d_out[t]`
    /// into the pre-activation gradient in place and accumulates every
    /// `dW`/`db` from them. All the input layer of a training step needs.
    /// Rows of `d_out[t]` that are not live must be zero.
    pub(crate) fn backward_params(
        &mut self,
        ctx: &RSageCtx,
        d_out: &mut [Matrix],
        live: Option<&[Vec<bool>]>,
    ) {
        let live_of = |t: usize| live.map(|l| &l[t][..]);

        // Activation backward, then the self path, per type.
        for (t, dz) in d_out.iter_mut().enumerate() {
            debug_assert_dead_rows_zero(dz, live_of(t));
            self.act.backward_rows(dz, live_of(t), &ctx.mask[t]);
            let dw = &mut self.w_self[t].grad;
            ops::matmul_at_b_rows_acc(&ctx.self_rows[t], dz, live_of(t), dw)
                .expect("rsage dW_self");
            ops::column_sums_acc(dz, self.bias[t].grad.row_mut(0));
        }

        // Relation paths.
        for (r, &(_, dst_t)) in self.rel_types.iter().enumerate() {
            let agg = &ctx.rel_agg[r];
            if agg.rows() == 0 {
                continue;
            }
            let dw = &mut self.w_rel[r].grad;
            ops::matmul_at_b_rows_acc(agg, &d_out[dst_t], live_of(dst_t), dw)
                .expect("rsage dW_rel");
        }
    }

    /// Mutable parameter references (stable order).
    pub(crate) fn params_mut(&mut self) -> Vec<&mut Param> {
        self.w_self
            .iter_mut()
            .chain(self.w_rel.iter_mut())
            .chain(self.bias.iter_mut())
            .collect()
    }
}

/// A stacked R-SAGE model.
pub struct RSageModel {
    /// Layers in input→output order.
    pub layers: Vec<RSageLayer>,
    /// Target node type for classification.
    pub target_type: usize,
}

/// Forward state of an R-SAGE pass; like [`crate::model::Trace`], also the
/// forward half of a step's reusable workspace.
#[derive(Default)]
pub struct RSageTrace {
    /// `h[l][t]`: representations of type `t` at level `l` (level 0 = input).
    pub h: Vec<Vec<Matrix>>,
    /// Per-layer contexts.
    pub ctx: Vec<RSageCtx>,
}

impl RSageTrace {
    /// The per-type input features `h[0]`, for the caller to fill before
    /// [`RSageModel::forward_into`].
    pub fn input_mut(&mut self) -> &mut Vec<Matrix> {
        if self.h.is_empty() {
            self.h.push(Vec::new());
        }
        &mut self.h[0]
    }
}

/// The backward half of a step's reusable workspace (see
/// [`crate::model::Grads`]).
#[derive(Default)]
pub struct RSageGrads {
    /// The gradient w.r.t. the target type's logits, for the caller to fill
    /// before [`RSageModel::backward_into`], which consumes it.
    pub d_logits: Matrix,
    /// `d[l][t]` is the gradient w.r.t. `h[l][t]`.
    d: Vec<Vec<Matrix>>,
    scratch: Scratch,
}

impl RSageModel {
    /// Build with `dims = [in, hidden, ..., out]`; the final layer outputs
    /// logits for the target type.
    pub fn new(graph: &HeteroGraph, target_type: usize, dims: &[usize], rng: &mut Rng) -> Self {
        assert!(dims.len() >= 2);
        let n_layers = dims.len() - 1;
        let layers = (0..n_layers)
            .map(|i| {
                let act = if i + 1 == n_layers {
                    Activation::None
                } else {
                    Activation::Relu
                };
                RSageLayer::new(graph, dims[i], dims[i + 1], act, rng)
            })
            .collect();
        RSageModel {
            layers,
            target_type,
        }
    }

    /// Forward over a typed mini-batch; `h0[t]` holds input features for
    /// the input block's src nodes of type `t`.
    pub fn forward(&self, mb: &HeteroMiniBatch, h0: Vec<Matrix>) -> RSageTrace {
        self.forward_with(mb, h0, None, |_, _| {})
    }

    /// [`RSageModel::forward_into`] on a fresh [`RSageTrace`] holding `h0`.
    pub(crate) fn forward_with(
        &self,
        mb: &HeteroMiniBatch,
        h0: Vec<Matrix>,
        computed: Option<&[Vec<Vec<bool>>]>,
        hook: impl FnMut(usize, &mut Vec<Matrix>),
    ) -> RSageTrace {
        let mut trace = RSageTrace::default();
        *trace.input_mut() = h0;
        self.forward_into(mb, &mut trace, computed, hook);
        trace
    }

    /// Forward from `trace.h[0]` (see [`RSageTrace::input_mut`]), refilling
    /// the rest of `trace` in place, with a between-layer hook:
    /// `hook(level, &mut h_level)` runs on each level's per-type
    /// representations before they feed the next layer — the
    /// historical-cache override point, as in the homogeneous
    /// [`crate::model::Model::forward_into`]. `computed[b][t][v]` (`None`
    /// for callers that do not prune) says which dst rows the step consumes;
    /// the others are neither aggregated nor transformed.
    pub fn forward_into(
        &self,
        mb: &HeteroMiniBatch,
        trace: &mut RSageTrace,
        computed: Option<&[Vec<Vec<bool>>]>,
        mut hook: impl FnMut(usize, &mut Vec<Matrix>),
    ) {
        assert_eq!(mb.blocks.len(), self.layers.len());
        assert!(!trace.h.is_empty(), "trace holds no input features");
        trace.h.resize_with(self.layers.len() + 1, Vec::new);
        trace.ctx.resize_with(self.layers.len(), RSageCtx::default);
        for (l, layer) in self.layers.iter().enumerate() {
            let live = computed.map(|c| &c[l][..]);
            let (below, above) = trace.h.split_at_mut(l + 1);
            let out = &mut above[0];
            layer.forward(&mb.blocks[l], &below[l], live, out, &mut trace.ctx[l]);
            hook(l + 1, out);
        }
    }

    /// Logits for the seed nodes.
    pub fn logits<'a>(&self, trace: &'a RSageTrace) -> &'a Matrix {
        &trace.h[self.layers.len()][self.target_type]
    }

    /// Backward from `d_logits` on the target type.
    pub fn backward(&mut self, mb: &HeteroMiniBatch, trace: &RSageTrace, d_logits: Matrix) {
        self.backward_with(mb, trace, d_logits, None, |_, _| {})
    }

    /// [`RSageModel::backward_into`] on fresh [`RSageGrads`] holding
    /// `d_logits`.
    pub(crate) fn backward_with(
        &mut self,
        mb: &HeteroMiniBatch,
        trace: &RSageTrace,
        d_logits: Matrix,
        computed: Option<&[Vec<Vec<bool>>]>,
        hook: impl FnMut(usize, &mut Vec<Matrix>),
    ) {
        let mut grads = RSageGrads {
            d_logits,
            ..RSageGrads::default()
        };
        self.backward_into(mb, trace, &mut grads, computed, hook);
    }

    /// Backward from `grads.d_logits`, reusing `grads`' buffers, with a
    /// per-level gradient hook: `hook(level, &mut d)` fires with the
    /// per-type gradients w.r.t. level `level` before they propagate through
    /// layer `level-1` — where the cache policy harvests gradient norms and
    /// detaches cache-read rows.
    ///
    /// `computed` must be what the forward pass was given. This is the
    /// training path: it stops at the input layer's parameter gradients
    /// ([`RSageModel::backward_input_grad`] goes on to `h[0]`).
    pub fn backward_into(
        &mut self,
        mb: &HeteroMiniBatch,
        trace: &RSageTrace,
        grads: &mut RSageGrads,
        computed: Option<&[Vec<Vec<bool>>]>,
        hook: impl FnMut(usize, &mut Vec<Matrix>),
    ) {
        self.backward_to_level_1(mb, trace, grads, computed, hook);
        let live = computed.map(|c| &c[0][..]);
        self.layers[0].backward_params(&trace.ctx[0], &mut grads.d[1], live);
    }

    /// Plain backward that also returns the per-type gradients w.r.t. the
    /// input features `h[0]` — for gradient checking, not training.
    pub fn backward_input_grad(
        &mut self,
        mb: &HeteroMiniBatch,
        trace: &RSageTrace,
        d_logits: Matrix,
    ) -> Vec<Matrix> {
        let mut grads = RSageGrads {
            d_logits,
            ..RSageGrads::default()
        };
        self.backward_to_level_1(mb, trace, &mut grads, None, |_, _| {});
        let (d_input, d) = grads.d.split_at_mut(1);
        self.layers[0].backward(
            &mb.blocks[0],
            &trace.ctx[0],
            &mut d[0],
            None,
            &mut grads.scratch,
            &mut d_input[0],
        );
        std::mem::take(&mut d_input[0])
    }

    /// Every layer above the input layer, hooks included: leaves in
    /// `grads.d[1]` the per-type gradients w.r.t. `h[1]` as the level-1 hook
    /// left them.
    fn backward_to_level_1(
        &mut self,
        mb: &HeteroMiniBatch,
        trace: &RSageTrace,
        grads: &mut RSageGrads,
        computed: Option<&[Vec<Vec<bool>>]>,
        mut hook: impl FnMut(usize, &mut Vec<Matrix>),
    ) {
        let RSageGrads {
            d_logits,
            d,
            scratch,
        } = grads;
        let top = self.layers.len();
        d.resize_with(top + 1, Vec::new);
        // Only the target type carries loss gradient at the top.
        d[top].resize_with(trace.h[top].len(), Matrix::default);
        for (t, (d_t, h_t)) in d[top].iter_mut().zip(&trace.h[top]).enumerate() {
            if t == self.target_type {
                std::mem::swap(d_logits, d_t);
            } else {
                d_t.resize_zeroed(h_t.rows(), h_t.cols());
            }
        }
        for l in (1..top).rev() {
            let (below, above) = d.split_at_mut(l + 1);
            let d_out = &mut above[0];
            hook(l + 1, d_out);
            let live = computed.map(|c| &c[l][..]);
            self.layers[l].backward(
                &mb.blocks[l],
                &trace.ctx[l],
                d_out,
                live,
                scratch,
                &mut below[l],
            );
        }
        hook(1, &mut d[1]);
    }

    /// Zero all parameter gradients.
    pub fn zero_grad(&mut self) {
        for l in &mut self.layers {
            for p in l.params_mut() {
                p.zero_grad();
            }
        }
    }

    /// All parameters in stable order.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }
}

impl Parameters for RSageModel {
    /// R-GraphSAGE is the relational form of SAGE and has no own `Arch`
    /// variant.
    fn arch(&self) -> Arch {
        Arch::Sage
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        RSageModel::params_mut(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::softmax_cross_entropy;
    use fgnn_graph::hetero::{mag_hetero, HeteroSampler};

    fn setup() -> (
        fgnn_graph::hetero::HeteroDataset,
        HeteroMiniBatch,
        Vec<Matrix>,
    ) {
        let ds = mag_hetero(200, 3, 6, 7);
        let mut sampler = HeteroSampler::new(&ds.graph);
        let mut rng = Rng::new(8);
        let seeds: Vec<u32> = ds.train_nodes[..6].to_vec();
        let mb = sampler.sample(&ds.graph, 0, &seeds, &[3, 3], &mut rng);
        let h0: Vec<Matrix> = (0..3)
            .map(|t| {
                let ids: Vec<usize> = mb.blocks[0].src[t].iter().map(|&g| g as usize).collect();
                ds.features[t].gather_rows(&ids)
            })
            .collect();
        (ds, mb, h0)
    }

    #[test]
    fn forward_produces_target_logits() {
        let (ds, mb, h0) = setup();
        let mut rng = Rng::new(9);
        let model = RSageModel::new(&ds.graph, 0, &[6, 8, 3], &mut rng);
        let trace = model.forward(&mb, h0);
        assert_eq!(model.logits(&trace).shape(), (6, 3));
    }

    #[test]
    fn backward_populates_all_parameter_grads_touched() {
        let (ds, mb, h0) = setup();
        let mut rng = Rng::new(10);
        let mut model = RSageModel::new(&ds.graph, 0, &[6, 8, 3], &mut rng);
        let trace = model.forward(&mb, h0);
        let labels: Vec<u16> = mb.seeds.iter().map(|&s| ds.labels[s as usize]).collect();
        let (loss, d_logits) = softmax_cross_entropy(model.logits(&trace), &labels);
        assert!(loss.is_finite());
        model.backward(&mb, &trace, d_logits);
        // Self weight of the paper type must receive gradient.
        assert!(model.layers[0].w_self[0].grad.frobenius_norm() > 0.0);
        // The cites relation (paper->paper) must receive gradient.
        assert!(model.layers[1].w_rel[0].grad.frobenius_norm() > 0.0);
    }

    #[test]
    fn parameter_gradients_match_finite_difference_sampled() {
        let (ds, mb, h0) = setup();
        let mut rng = Rng::new(11);
        let mut model = RSageModel::new(&ds.graph, 0, &[6, 4, 3], &mut rng);
        let labels: Vec<u16> = mb.seeds.iter().map(|&s| ds.labels[s as usize]).collect();

        model.zero_grad();
        let trace = model.forward(&mb, h0.clone());
        let (_, d_logits) = softmax_cross_entropy(model.logits(&trace), &labels);
        model.backward(&mb, &trace, d_logits);
        let analytic: Vec<Matrix> = model.params_mut().iter().map(|p| p.grad.clone()).collect();

        // Per-tensor cosine comparison (see `gradcheck` module docs for why
        // per-entry relative error is the wrong metric in f32).
        let eps = 1e-3f32;
        let mut min_cos = 1.0f32;
        let mut max_abs = 0.0f32;
        for pi in 0..analytic.len() {
            let n = analytic[pi].rows() * analytic[pi].cols();
            let mut a_vec = Vec::new();
            let mut n_vec = Vec::new();
            for k in (0..n).step_by(5) {
                let mut eval = |delta: f32| {
                    {
                        let mut ps = model.params_mut();
                        ps[pi].value.as_mut_slice()[k] += delta;
                    }
                    let tr = model.forward(&mb, h0.clone());
                    let (l, _) = softmax_cross_entropy(model.logits(&tr), &labels);
                    {
                        let mut ps = model.params_mut();
                        ps[pi].value.as_mut_slice()[k] -= delta;
                    }
                    l
                };
                let numeric = (eval(eps) - eval(-eps)) / (2.0 * eps);
                let a = analytic[pi].as_slice()[k];
                max_abs = max_abs.max((a - numeric).abs());
                a_vec.push(a);
                n_vec.push(numeric);
            }
            let scale = a_vec.iter().map(|x| x * x).sum::<f32>().sqrt();
            if scale > 1e-3 {
                min_cos = min_cos.min(fgnn_tensor::stats::cosine_similarity(&a_vec, &n_vec));
            }
        }
        assert!(
            min_cos > 0.99 && max_abs < 0.05,
            "min cosine {min_cos}, max abs err {max_abs}"
        );
    }
}
