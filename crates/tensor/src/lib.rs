//! Dense row-major `f32` matrix kernels.
//!
//! This crate is the lowest substrate of the ATNN reproduction: it plays the
//! role TensorFlow's dense kernels play in the paper's implementation.
//! Everything above it (autograd, layers, models) is expressed in terms of
//! the [`Matrix`] type and the handful of cache-friendly kernels here.
//!
//! Design notes (following the Rust Performance Book guidance):
//! - storage is a single contiguous `Vec<f32>`, row-major, so row views are
//!   plain slices;
//! - every dense matmul variant (nn/tn/nt, fused or not) runs one shared
//!   register-tiled, packed, cache-blocked microkernel (see the `gemm`
//!   module) that stays bit-identical to the naive i-k-j reference;
//! - no operation allocates unless it returns a new matrix; in-place
//!   variants (`*_assign`) are provided for the optimizer hot paths, and
//!   gemm pack buffers are thread-local and reused;
//! - which microkernel flavor runs (scalar / AVX2 / fast-math FMA) is
//!   *backend selection* (see the [`backend`] module): a process default
//!   plus scoped per-thread overrides, gated against one cached
//!   capability probe, with the scalar path as the bit-exact oracle.

pub mod backend;
mod cow;
mod error;
mod gemm;
mod matrix;
mod ops;
pub mod pool;
mod quant;
mod rng;
mod serialize;
mod sparse;
mod sync;

pub use backend::{
    backend_from_env, backend_of, cpu_caps, current_backend, current_backend_kind, process_backend,
    set_process_backend, with_backend, with_backend_opt, Avx2Backend, Backend, BackendKind,
    CpuCaps, FastMathBackend, ScalarBackend, UnknownBackend,
};
pub use cow::{CowMatrix, CowQuantMatrix, CowTable, COW_CHUNK_ROWS};
pub use error::TensorError;
pub use gemm::{gemm_dispatch_counts, stable_sigmoid, ActKind};
pub use matrix::Matrix;
pub use ops::{cosine, dot};
pub use quant::{dot_i8, dot_i8_scalar, PreparedQuery, QuantizedMatrix};
pub use rng::{Init, Rng64};
pub use serialize::{decode_matrix, encode_matrix};
pub use sparse::SparseRowGrad;
pub use sync::SwapCell;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TensorError>;
