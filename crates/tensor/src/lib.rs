#![warn(missing_docs)]
//! # fgnn-tensor
//!
//! Dense `f32` matrix substrate for the FreshGNN reproduction.
//!
//! The FreshGNN paper trains GNNs with PyTorch tensors on GPU. This crate is
//! the stand-in: a small, allocation-conscious, row-major dense matrix type
//! with exactly the operations the GNN layers in `fgnn-nn` need — matmul (and
//! its transposed variants used by backward passes), elementwise kernels,
//! row-wise softmax, row gather/scatter, and deterministic RNG for
//! initialization and synthetic data.
//!
//! Design notes:
//!
//! * Row-major `Vec<f32>` storage; a node's embedding is one contiguous row,
//!   which is the access pattern of every cache/loader operation in
//!   `freshgnn` (fetch row, store row).
//! * All randomness flows through the seedable [`rng::Rng`]
//!   (xoshiro256++), so every experiment in the repo is reproducible from a
//!   `--seed` flag. No global RNG, no `rand` dependency in hot paths.
//! * One `unsafe` block, in `ops::dispatch`: the call into the AVX2-compiled
//!   instance of the matmul tile body, guarded by
//!   `is_x86_feature_detected!("avx2")` on the line before it. The callee is
//!   safe Rust compiled with wider vectors; the only thing the block asserts
//!   is that the CPU has them. Everything else is safe code whose bounds
//!   checks are hoisted by slice-first loops.

pub mod activation;
pub mod matrix;
pub mod ops;
pub mod rng;
pub mod softmax;
pub mod stats;

pub use matrix::Matrix;
pub use rng::Rng;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TensorError>;

/// Errors produced by shape-checked tensor operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// Two operands had incompatible shapes. Holds `(lhs, rhs)` as
    /// `(rows, cols)` pairs.
    ShapeMismatch {
        /// Shape of the left operand.
        lhs: (usize, usize),
        /// Shape of the right operand.
        rhs: (usize, usize),
        /// Which operation detected the mismatch.
        op: &'static str,
    },
    /// A row/column index was out of bounds.
    IndexOutOfBounds {
        /// The offending index.
        index: usize,
        /// The container length it was checked against.
        len: usize,
    },
}

impl std::fmt::Display for TensorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TensorError::ShapeMismatch { lhs, rhs, op } => write!(
                f,
                "shape mismatch in {op}: lhs {}x{} vs rhs {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            TensorError::IndexOutOfBounds { index, len } => {
                write!(f, "index {index} out of bounds (len {len})")
            }
        }
    }
}

impl std::error::Error for TensorError {}
