#![warn(missing_docs)]
//! # fgnn-nn
//!
//! GNN layers, losses and optimizers for the FreshGNN reproduction.
//!
//! Layers implement **explicit forward/backward** (no tape autograd): the
//! FreshGNN cache policy consumes the gradient of the loss w.r.t. every
//! node's *intermediate embedding* at every layer (§4.1, Fig 6 — "embedding
//! gradients at any layer are naturally obtained from the backward
//! propagation"). With layer-structured backward these gradients are the
//! `d_h_src` matrices each layer returns, with zero extra bookkeeping.
//!
//! Supported architectures (the paper's evaluation set, §7.1):
//! * [`gcn::GcnLayer`] — Kipf & Welling GCN with mean(self+neighbors)
//!   aggregation over the sampled block;
//! * [`sage::SageLayer`] — GraphSAGE with `W · concat(h_self, mean_nbrs)`;
//! * [`gat::GatLayer`] — single-head GAT with additive attention and
//!   per-destination softmax;
//! * [`rsage::RSageLayer`] — relational GraphSAGE for the §7.6
//!   heterogeneous extension.
//!
//! Every layer is gradient-checked against finite differences in tests
//! (the test-only `gradcheck` module).

pub mod gat;
pub mod gcn;
#[cfg(test)]
mod gradcheck;
pub mod layer;
pub mod loss;
pub mod metrics;
pub mod model;
pub mod optim;
pub mod rsage;
pub mod sage;

pub use layer::{Activation, Param};
pub use model::{Arch, Model, Parameters};
pub use optim::{Adam, Optimizer, OptimizerState};
