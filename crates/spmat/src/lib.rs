//! Sparse/dense matrix substrate for distributed GNN training.
//!
//! This crate provides everything the training stack needs from linear
//! algebra and data generation:
//!
//! * [`coo::Coo`] — coordinate-format triplet builder.
//! * [`csr::Csr`] — compressed sparse row matrices with the block-access
//!   operations distributed SpMM needs (row blocks, per-block non-empty
//!   column sets, symmetric permutation).
//! * [`dense::Dense`] — row-major dense matrices (activations, weights)
//!   with GEMM and the element-wise operations GCN training uses.
//! * [`spmm`] — parallel cache-blocked CSR × dense kernels, the local
//!   workhorse of every distributed algorithm variant.
//! * [`kernel`] — runtime-dispatched SIMD backends (AVX2/NEON/scalar)
//!   under the row kernels, every one bit-identical to the scalar oracle.
//! * [`alloc`] — 64-byte-aligned `f64` buffers backing dense storage.
//! * [`pool`] — dependency-free scoped-thread worker pool the kernels
//!   run on (deterministic chunked scheduling, bit-identical to serial).
//! * [`gen`] — synthetic graph generators (R-MAT, planted partition,
//!   Erdős–Rényi, 2-D grid).
//! * [`dataset`] — scaled-down analogues of the paper's four evaluation
//!   datasets (Reddit, Amazon, Protein, Papers).

pub mod alloc;
pub mod coo;
pub mod csr;
pub mod dataset;
pub mod dense;
pub mod gen;
pub mod graph;
pub mod io;
pub mod kernel;
pub mod pool;
pub mod spmm;

pub use coo::Coo;
pub use csr::Csr;
pub use dense::Dense;
