//! Synthetic graph generators.
//!
//! The paper evaluates on Reddit, Amazon, Protein and Papers — datasets we
//! cannot ship. These generators produce scaled-down graphs with the same
//! *character*:
//!
//! * [`mod@rmat`] — recursive-matrix graphs with heavy-tailed, irregular degree
//!   distributions (Amazon/Reddit/Papers analogues; hard for partitioners),
//! * [`mod@sbm`] — planted-partition graphs with strong community structure
//!   (Protein analogue; partitioners drive the cut to near zero),
//! * [`erdos`] — Erdős–Rényi baselines with no exploitable structure,
//! * [`grid`] — 2-D torus meshes, the perfectly regular extreme.
//!
//! All generators are deterministic given a seed, return a **symmetric**
//! adjacency pattern with unit weights and no self-loops, and use the
//! crate's [`crate::Coo`] → [`crate::Csr`] pipeline.

pub mod erdos;
pub mod grid;
pub mod hybrid;
pub mod rmat;
pub mod sbm;

pub use erdos::erdos_renyi;
pub use grid::grid2d;
pub use hybrid::{community_rmat, HybridConfig};
pub use rmat::{rmat, RmatConfig};
pub use sbm::{sbm, SbmConfig};
