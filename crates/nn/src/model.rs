//! Stacked multi-layer GNN models over sampled mini-batches.
//!
//! [`Model::forward_with`] and [`Model::backward_with`] expose per-level
//! hooks — the integration points the FreshGNN trainer uses to (a) override
//! intermediate embeddings with cached values between layers and (b) harvest
//! per-node embedding gradients for the cache policy and *detach* cached
//! nodes (zero their gradient rows) so no gradient flows into pruned
//! subtrees, exactly like reading a cached tensor without `requires_grad`
//! in the paper's PyTorch implementation.

use crate::gat::{GatCtx, GatLayer};
use crate::gcn::{GcnCtx, GcnLayer};
use crate::layer::{Activation, Param, Scratch};
use crate::sage::{SageCtx, SageLayer};
use fgnn_graph::block::MiniBatch;
use fgnn_graph::Block;
use fgnn_tensor::{Matrix, Rng};

/// GNN architecture selector (the paper's evaluation set).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Arch {
    /// Graph convolutional network.
    Gcn,
    /// GraphSAGE with mean aggregation.
    Sage,
    /// Single-head graph attention network.
    Gat,
}

impl std::fmt::Display for Arch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Arch::Gcn => write!(f, "GCN"),
            Arch::Sage => write!(f, "GraphSAGE"),
            Arch::Gat => write!(f, "GAT"),
        }
    }
}

/// What a training driver and its checkpoints need of a model besides its
/// forward and backward passes: an architecture tag and one flat parameter
/// vector, in [`Parameters::params_mut`] order.
pub trait Parameters {
    /// The `arch` tag a checkpoint of this model carries.
    fn arch(&self) -> Arch;

    /// All parameters in a stable order (for the optimizer).
    fn params_mut(&mut self) -> Vec<&mut Param>;

    /// Total scalar parameter count.
    fn num_parameters(&mut self) -> usize {
        self.params_mut().iter().map(|p| p.len()).sum()
    }

    /// Flatten all parameters into one vector (checkpointing).
    fn export_parameters(&mut self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.num_parameters());
        for p in self.params_mut() {
            out.extend_from_slice(p.value.as_slice());
        }
        out
    }

    /// Restore parameters exported by [`Parameters::export_parameters`]
    /// from a model of the same shape. Panics on length mismatch.
    fn import_parameters(&mut self, flat: &[f32]) {
        let expected = self.num_parameters();
        assert_eq!(flat.len(), expected, "checkpoint has wrong parameter count");
        let mut off = 0;
        for p in self.params_mut() {
            let n = p.len();
            p.value.as_mut_slice().copy_from_slice(&flat[off..off + n]);
            off += n;
        }
    }
}

/// A single layer of any supported architecture.
pub enum Layer {
    /// GCN layer.
    Gcn(GcnLayer),
    /// GraphSAGE layer.
    Sage(SageLayer),
    /// GAT layer.
    Gat(GatLayer),
}

/// Forward context of any layer type.
pub enum Ctx {
    /// GCN context.
    Gcn(GcnCtx),
    /// GraphSAGE context.
    Sage(SageCtx),
    /// GAT context.
    Gat(GatCtx),
}

impl Layer {
    /// An empty forward context of this layer's type, for
    /// [`Layer::forward`] to fill.
    pub fn new_ctx(&self) -> Ctx {
        match self {
            Layer::Gcn(_) => Ctx::Gcn(GcnCtx::default()),
            Layer::Sage(_) => Ctx::Sage(SageCtx::default()),
            Layer::Gat(_) => Ctx::Gat(GatCtx::default()),
        }
    }

    /// Forward over a block into `out` and `ctx`, both reused across calls,
    /// computing only the `live` dst rows (`None` = all); the others are
    /// left for the caller to fill or ignore and hold whatever `out` held.
    pub fn forward(
        &self,
        block: &Block,
        h_src: &Matrix,
        live: Option<&[bool]>,
        out: &mut Matrix,
        ctx: &mut Ctx,
    ) {
        match (self, ctx) {
            (Layer::Gcn(l), Ctx::Gcn(c)) => l.forward(block, h_src, live, out, c),
            (Layer::Sage(l), Ctx::Sage(c)) => l.forward(block, h_src, live, out, c),
            (Layer::Gat(l), Ctx::Gat(c)) => l.forward(block, h_src, live, out, c),
            _ => panic!("layer/ctx architecture mismatch"),
        }
    }

    /// Backward over a block: accumulates parameter grads and writes
    /// `d_h_src`. `live` must be what [`Layer::forward`] was given, and the
    /// rows of `d_out` that are not live must be zero; `d_out` is consumed
    /// (it leaves as the pre-activation gradient).
    #[allow(clippy::too_many_arguments)]
    pub fn backward(
        &mut self,
        block: &Block,
        ctx: &Ctx,
        h_src: &Matrix,
        d_out: &mut Matrix,
        live: Option<&[bool]>,
        scratch: &mut Scratch,
        d_h_src: &mut Matrix,
    ) {
        match (self, ctx) {
            (Layer::Gcn(l), Ctx::Gcn(c)) => l.backward(block, c, d_out, live, scratch, d_h_src),
            (Layer::Sage(l), Ctx::Sage(c)) => l.backward(block, c, d_out, live, scratch, d_h_src),
            (Layer::Gat(l), Ctx::Gat(c)) => l.backward(c, h_src, d_out, live, scratch, d_h_src),
            _ => panic!("layer/ctx architecture mismatch"),
        }
    }

    /// [`Layer::backward`] without the gradient w.r.t. `h_src`: accumulates
    /// parameter grads and stops, which is all a training step needs from its
    /// input layer.
    pub fn backward_params(
        &mut self,
        ctx: &Ctx,
        h_src: &Matrix,
        d_out: &mut Matrix,
        live: Option<&[bool]>,
        scratch: &mut Scratch,
    ) {
        match (self, ctx) {
            (Layer::Gcn(l), Ctx::Gcn(c)) => l.backward_params(c, d_out, live),
            (Layer::Sage(l), Ctx::Sage(c)) => l.backward_params(c, d_out, live),
            (Layer::Gat(l), Ctx::Gat(c)) => {
                l.backward_params(c, h_src, d_out, live, &mut scratch.d_mid)
            }
            _ => panic!("layer/ctx architecture mismatch"),
        }
    }

    /// Mutable parameter references (stable order).
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        match self {
            Layer::Gcn(l) => l.params_mut(),
            Layer::Sage(l) => l.params_mut(),
            Layer::Gat(l) => l.params_mut(),
        }
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        match self {
            Layer::Gcn(l) => l.out_dim(),
            Layer::Sage(l) => l.out_dim(),
            Layer::Gat(l) => l.out_dim(),
        }
    }
}

/// A stacked GNN: `dims.len() - 1` layers, ReLU between layers, identity on
/// the output (logits).
pub struct Model {
    /// Architecture of every layer.
    pub arch: Arch,
    /// Layers in input→output order.
    pub layers: Vec<Layer>,
}

/// Saved forward state: `h[0]` is the input feature matrix (src of block
/// 0); `h[l]` for `l >= 1` is the (possibly cache-overridden) output of
/// layer `l-1`, whose rows index block `l-1`'s dst set.
///
/// A `Trace` is also the forward half of a step's reusable workspace:
/// [`Model::forward_into`] refills one in place, reshaping its matrices
/// without reallocating once they have seen the largest batch. Rows a step
/// does not compute then hold values of earlier steps, not zeros.
#[derive(Default)]
pub struct Trace {
    /// Per-level node representations.
    pub h: Vec<Matrix>,
    /// Per-layer forward contexts.
    pub ctx: Vec<Ctx>,
}

impl Trace {
    /// The input feature matrix `h[0]`, for the caller to fill before
    /// [`Model::forward_into`].
    pub fn input_mut(&mut self) -> &mut Matrix {
        if self.h.is_empty() {
            self.h.push(Matrix::default());
        }
        &mut self.h[0]
    }
}

/// The backward half of a step's reusable workspace: the gradient w.r.t.
/// each level's representations plus the layers' shared scratch.
#[derive(Default)]
pub struct Grads {
    /// The gradient w.r.t. the model output, for the caller to fill before
    /// [`Model::backward_into`], which consumes it (the buffer trades places
    /// with an internal one; its contents afterwards are unspecified).
    pub d_top: Matrix,
    /// `d[l]` is the gradient w.r.t. `h[l]`; `d[0]` is formed only by
    /// [`Model::backward_input_grad`].
    d: Vec<Matrix>,
    scratch: Scratch,
}

impl Model {
    /// Build a model: `dims = [in, hidden, ..., out]` (so the paper's
    /// 3-layer 256-hidden SAGE on papers100M is `[128, 256, 256, 172]`).
    pub fn new(arch: Arch, dims: &[usize], rng: &mut Rng) -> Model {
        assert!(dims.len() >= 2, "need at least one layer");
        let n_layers = dims.len() - 1;
        let layers = (0..n_layers)
            .map(|i| {
                let act = if i + 1 == n_layers {
                    Activation::None
                } else {
                    Activation::Relu
                };
                match arch {
                    Arch::Gcn => Layer::Gcn(GcnLayer::new(dims[i], dims[i + 1], act, rng)),
                    Arch::Sage => Layer::Sage(SageLayer::new(dims[i], dims[i + 1], act, rng)),
                    Arch::Gat => Layer::Gat(GatLayer::new(dims[i], dims[i + 1], act, rng)),
                }
            })
            .collect();
        Model { arch, layers }
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Plain forward (no cache interaction, every row computed).
    pub fn forward(&self, mb: &MiniBatch, h0: Matrix) -> Trace {
        self.forward_with(mb, h0, None, |_, _| {})
    }

    /// [`Model::forward_into`] on a fresh [`Trace`] holding `h0`.
    pub fn forward_with(
        &self,
        mb: &MiniBatch,
        h0: Matrix,
        computed: Option<&[Vec<bool>]>,
        hook: impl FnMut(usize, &mut Matrix),
    ) -> Trace {
        let mut trace = Trace::default();
        *trace.input_mut() = h0;
        self.forward_into(mb, &mut trace, computed, hook);
        trace
    }

    /// Forward from `trace.h[0]` (see [`Trace::input_mut`]), refilling the
    /// rest of `trace` in place, with a between-layer hook: after layer `l-1`
    /// produces `h[l]`, `hook(l, &mut h_l)` runs *before* `h[l]` feeds layer
    /// `l`. The FreshGNN trainer overrides cached nodes' rows here.
    ///
    /// `computed[b][v]` (the pruner's `PruneOutcome::computed`; `None` for
    /// callers that do not prune) says which dst rows of block `b` the step
    /// consumes: the others — cache-read rows the hook fills, and dead
    /// subtrees nothing live references — are neither aggregated nor
    /// transformed, and hold no meaningful value in `h[b+1]`.
    pub fn forward_into(
        &self,
        mb: &MiniBatch,
        trace: &mut Trace,
        computed: Option<&[Vec<bool>]>,
        mut hook: impl FnMut(usize, &mut Matrix),
    ) {
        assert_eq!(
            mb.num_layers(),
            self.num_layers(),
            "mini-batch depth != model depth"
        );
        assert!(!trace.h.is_empty(), "trace holds no input features");
        trace.h.resize_with(self.num_layers() + 1, Matrix::default);
        for layer in &self.layers[trace.ctx.len()..] {
            trace.ctx.push(layer.new_ctx());
        }
        for (l, layer) in self.layers.iter().enumerate() {
            let live = computed.map(|c| &c[l][..]);
            let (below, above) = trace.h.split_at_mut(l + 1);
            let out = &mut above[0];
            layer.forward(&mb.blocks[l], &below[l], live, out, &mut trace.ctx[l]);
            hook(l + 1, out);
        }
    }

    /// Plain backward: accumulates every parameter gradient.
    pub fn backward(&mut self, mb: &MiniBatch, trace: &Trace, d_top: Matrix) {
        self.backward_with(mb, trace, d_top, None, |_, _| {})
    }

    /// [`Model::backward_into`] on fresh [`Grads`] holding `d_top`.
    pub fn backward_with(
        &mut self,
        mb: &MiniBatch,
        trace: &Trace,
        d_top: Matrix,
        computed: Option<&[Vec<bool>]>,
        hook: impl FnMut(usize, &mut Matrix),
    ) {
        let mut grads = Grads {
            d_top,
            ..Grads::default()
        };
        self.backward_into(mb, trace, &mut grads, computed, hook);
    }

    /// Backward from the output gradient `grads.d_top`, reusing `grads`'
    /// buffers, with a per-level gradient hook: `hook(l, &mut d)` fires with
    /// the gradient w.r.t. `h[l]` *before* it propagates through layer `l-1`.
    /// Rows of `d` align with `h[l]`'s rows (block `l-1`'s dst set extended
    /// to block `l`'s src set for `l < L`).
    ///
    /// The FreshGNN cache policy reads per-node gradient norms here and
    /// zeroes the rows of cache-read nodes (detach).
    ///
    /// `computed` must be what the forward pass was given. This is the
    /// training path: it stops at the input layer's parameter gradients
    /// and never forms the gradient w.r.t. `h[0]`, which no optimizer step
    /// consumes ([`Model::backward_input_grad`] does).
    pub fn backward_into(
        &mut self,
        mb: &MiniBatch,
        trace: &Trace,
        grads: &mut Grads,
        computed: Option<&[Vec<bool>]>,
        hook: impl FnMut(usize, &mut Matrix),
    ) {
        self.backward_to_level_1(mb, trace, grads, computed, hook);
        let live = computed.map(|c| &c[0][..]);
        self.layers[0].backward_params(
            &trace.ctx[0],
            &trace.h[0],
            &mut grads.d[1],
            live,
            &mut grads.scratch,
        );
    }

    /// Plain backward that also returns the gradient w.r.t. `h[0]` (the raw
    /// input features) — for gradient checking and probes, not training.
    pub fn backward_input_grad(&mut self, mb: &MiniBatch, trace: &Trace, d_top: Matrix) -> Matrix {
        let mut grads = Grads {
            d_top,
            ..Grads::default()
        };
        self.backward_to_level_1(mb, trace, &mut grads, None, |_, _| {});
        let (d_input, d) = grads.d.split_at_mut(1);
        self.layers[0].backward(
            &mb.blocks[0],
            &trace.ctx[0],
            &trace.h[0],
            &mut d[0],
            None,
            &mut grads.scratch,
            &mut d_input[0],
        );
        std::mem::take(&mut d_input[0])
    }

    /// Every layer above the input layer, hooks included: leaves in
    /// `grads.d[1]` the gradient w.r.t. `h[1]` as the level-1 hook left it.
    fn backward_to_level_1(
        &mut self,
        mb: &MiniBatch,
        trace: &Trace,
        grads: &mut Grads,
        computed: Option<&[Vec<bool>]>,
        mut hook: impl FnMut(usize, &mut Matrix),
    ) {
        let Grads { d_top, d, scratch } = grads;
        let top = self.layers.len();
        d.resize_with(top + 1, Matrix::default);
        std::mem::swap(d_top, &mut d[top]);
        for l in (1..self.layers.len()).rev() {
            let (below, above) = d.split_at_mut(l + 1);
            let d_out = &mut above[0];
            hook(l + 1, d_out);
            let live = computed.map(|c| &c[l][..]);
            self.layers[l].backward(
                &mb.blocks[l],
                &trace.ctx[l],
                &trace.h[l],
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
        for layer in &mut self.layers {
            for p in layer.params_mut() {
                p.zero_grad();
            }
        }
    }

    /// All parameters in a stable order (for the optimizer).
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    /// [`Parameters::export_parameters`], callable without the trait.
    pub fn export_parameters(&mut self) -> Vec<f32> {
        Parameters::export_parameters(self)
    }

    /// [`Parameters::import_parameters`], callable without the trait.
    pub fn import_parameters(&mut self, flat: &[f32]) {
        Parameters::import_parameters(self, flat);
    }
}

impl Parameters for Model {
    fn arch(&self) -> Arch {
        self.arch
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        Model::params_mut(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgnn_graph::sample::NeighborSampler;
    use fgnn_graph::Csr;

    fn toy_setup(arch: Arch) -> (MiniBatch, Matrix, Model) {
        let mut rng = Rng::new(1);
        let edges: Vec<(u32, u32)> = (0..19).map(|i| (i, i + 1)).collect();
        let g = Csr::from_undirected_edges(20, &edges);
        let mut sampler = NeighborSampler::new(20);
        let mb = sampler.sample(&g, &[5, 10], &[3, 3], &mut rng);
        let h0 = rng.normal_matrix(mb.input_nodes().len(), 4, 1.0);
        let model = Model::new(arch, &[4, 6, 3], &mut rng);
        (mb, h0, model)
    }

    #[test]
    fn forward_output_matches_seed_count() {
        for arch in [Arch::Gcn, Arch::Sage, Arch::Gat] {
            let (mb, h0, model) = toy_setup(arch);
            let trace = model.forward(&mb, h0);
            assert_eq!(trace.h.last().unwrap().shape(), (2, 3), "{arch}");
            assert_eq!(trace.h.len(), 3);
        }
    }

    #[test]
    fn backward_hook_sees_every_level_topdown() {
        let (mb, h0, mut model) = toy_setup(Arch::Sage);
        let trace = model.forward(&mb, h0);
        let d_top = Matrix::full(2, 3, 1.0);
        let mut levels = Vec::new();
        model.backward_with(&mb, &trace, d_top, None, |l, _| levels.push(l));
        assert_eq!(levels, vec![2, 1]);
    }

    #[test]
    fn forward_hook_can_override_rows() {
        let (mb, h0, model) = toy_setup(Arch::Gcn);
        let trace = model.forward_with(&mb, h0, None, |l, h| {
            if l == 1 {
                h.row_mut(0).iter_mut().for_each(|x| *x = 9.0);
            }
        });
        assert!(trace.h[1].row(0).iter().all(|&x| x == 9.0));
    }

    #[test]
    fn zero_grad_clears_all_params() {
        let (mb, h0, mut model) = toy_setup(Arch::Gat);
        let trace = model.forward(&mb, h0);
        model.backward(&mb, &trace, Matrix::full(2, 3, 1.0));
        let has_grad = model
            .params_mut()
            .iter()
            .any(|p| p.grad.frobenius_norm() > 0.0);
        assert!(has_grad);
        model.zero_grad();
        assert!(model
            .params_mut()
            .iter()
            .all(|p| p.grad.frobenius_norm() == 0.0));
    }

    #[test]
    fn parameter_counts_differ_by_arch() {
        let (_, _, mut gcn) = toy_setup(Arch::Gcn);
        let (_, _, mut sage) = toy_setup(Arch::Sage);
        // SAGE weights are 2*in x out, so strictly more parameters.
        assert!(sage.num_parameters() > gcn.num_parameters());
    }

    #[test]
    fn export_import_round_trips_parameters() {
        let (mb, h0, mut model) = toy_setup(Arch::Sage);
        let snapshot = model.export_parameters();
        let out_before = model.forward(&mb, h0.clone()).h.last().unwrap().clone();
        // Perturb, then restore.
        for p in model.params_mut() {
            p.value.map_inplace(|x| x + 1.0);
        }
        let out_perturbed = model.forward(&mb, h0.clone()).h.last().unwrap().clone();
        assert_ne!(out_before.as_slice(), out_perturbed.as_slice());
        model.import_parameters(&snapshot);
        let out_after = model.forward(&mb, h0).h.last().unwrap().clone();
        assert_eq!(out_before.as_slice(), out_after.as_slice());
    }

    #[test]
    #[should_panic(expected = "wrong parameter count")]
    fn import_rejects_wrong_length() {
        let (_, _, mut model) = toy_setup(Arch::Gcn);
        model.import_parameters(&[0.0; 3]);
    }
}
