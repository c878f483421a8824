//! `dist-gnn` — facade crate for the sparsity-aware distributed GNN
//! training workspace (reproduction of Mukhodopadhyay et al., ICPP '24).
//!
//! Re-exports the four workspace crates so examples and downstream users
//! need a single dependency:
//!
//! * [`spmat`] — sparse/dense matrices, graph generators, datasets.
//! * [`partition`] — multilevel edgecut and volume-balancing partitioners.
//! * [`comm`] — the simulated distributed runtime and α–β cost model.
//! * [`core`] — GCN training with 1D/1.5D/2D/3D sparsity-aware SpMM.
//!
//! See `examples/quickstart.rs` for a five-minute tour.

#![forbid(unsafe_code)]

pub use gnn_comm as comm;
pub use gnn_core as core;
pub use partition;
pub use spmat;
