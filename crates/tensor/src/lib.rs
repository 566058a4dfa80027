//! # enhancenet-tensor
//!
//! Dense, contiguous, row-major `f32` tensor substrate used by every other
//! crate in the EnhanceNet reproduction.
//!
//! The paper's models operate on small-to-medium tensors (entities `N ≤ 207`,
//! hidden sizes `C' ≤ 64`, horizons `H = F = 12`), so this crate favours a
//! simple, predictable representation — a `Vec<f32>` plus a shape — over
//! stride/view machinery. Transposes and slices materialize *except* inside
//! matrix products: the blocked GEMM engine in [`mod@matmul`] reads either
//! operand in transposed order through its `_tn`/`_nt` entry points, packs
//! operand panels into buffers recycled by the thread-local [`scratch`]
//! pool, runs them through the SIMD micro-kernel selected at startup by
//! [`mod@kernel`] (AVX2+FMA, NEON, or the scalar fallback —
//! `ENHANCENET_FORCE_SCALAR=1` pins the latter), and parallelizes with
//! rayon when the arithmetic work is large enough to amortize the fork.
//!
//! ## Quick start
//!
//! ```
//! use enhancenet_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b);
//! assert_eq!(c.data(), a.data());
//! ```
//!
//! ## Conventions
//!
//! * Shapes are `&[usize]`; rank-0 (scalar) tensors have shape `&[]` and one
//!   element.
//! * Binary elementwise operations broadcast with NumPy semantics.
//! * Shape errors panic with a descriptive message; this mirrors the
//!   behaviour of mainstream tensor libraries and keeps hot paths free of
//!   `Result` plumbing. The offending shapes are always included in the
//!   panic message.

mod init;
pub mod kernel;
mod manip;
pub mod matmul;
mod ops;
mod reduce;
pub mod scratch;
mod shape;
pub mod sparse;
mod strided;
mod tensor;

pub use init::TensorRng;
pub use kernel::MicroKernel;
pub use scratch::with_scratch;
pub use shape::{broadcast_shapes, normalize_axis, Shape};
pub use sparse::{CsrMatrix, TopkPattern};
pub use tensor::Tensor;

/// Absolute tolerance used by [`Tensor::allclose`] and the test-suites of the
/// downstream crates.
pub const DEFAULT_ATOL: f32 = 1e-5;
