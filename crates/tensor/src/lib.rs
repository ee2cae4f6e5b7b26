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
//! * Two `unsafe` blocks, the workspace's only ones outside tests
//!   (`scripts/ci.sh` holds the count):
//!   - `ops::dispatch`: the call into the AVX-512F- or AVX2-compiled
//!     instance of the matmul tile body (the first takes four rows a tile,
//!     the second and the baseline two), chosen after
//!     `is_x86_feature_detected!` has checked the feature of each. The
//!     callee is safe Rust compiled with wider vectors; the only thing the
//!     block asserts is that the CPU has them.
//!   - [`prefetch`]: one `_mm_prefetch` of an in-bounds element. A prefetch
//!     is a hint — it cannot fault and changes no value — so the block
//!     asserts nothing a caller could break.
//!
//!   Everything else is safe code whose bounds checks are hoisted by
//!   slice-first loops.

pub mod matrix;
pub mod ops;
pub mod rng;
pub mod softmax;
pub mod stats;

pub use matrix::Matrix;
pub use rng::Rng;

/// Ask the CPU to start pulling `slice[i]`'s cache line into L1 while the
/// caller works on something else — for loops whose next few addresses
/// are known but would otherwise each be a dependent miss. A hint only:
/// nothing happens when `i` is out of range or the target is not x86-64,
/// and no value anywhere changes either way.
#[inline(always)]
pub fn prefetch<T>(slice: &[T], i: usize) {
    #[cfg(target_arch = "x86_64")]
    if let Some(x) = slice.get(i) {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        // SAFETY: `_mm_prefetch` never faults, whatever the address, and
        // writes nothing; the pointer is in bounds besides.
        unsafe { _mm_prefetch::<_MM_HINT_T0>((x as *const T).cast::<i8>()) }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (slice, i);
}

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
}

impl std::fmt::Display for TensorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TensorError::ShapeMismatch { lhs, rhs, op } => write!(
                f,
                "shape mismatch in {op}: lhs {}x{} vs rhs {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
        }
    }
}

impl std::error::Error for TensorError {}
