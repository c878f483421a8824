//! Graph partitioners for distributing GNN training.
//!
//! The paper's §5 argument: a 1D block distribution fixes *where* rows
//! live, and the partitioner decides *which* rows live together. Three
//! regimes are compared:
//!
//! * [`Method::Block`] / [`Method::Random`] — no structure exploitation:
//!   contiguous (or randomly permuted) equal-row blocks. This is what the
//!   plain sparsity-aware algorithm ("SA") runs on.
//! * [`Method::EdgeCut`] — a METIS-like multilevel partitioner (heavy-edge
//!   matching, greedy growing, FM refinement) minimizing **total** edgecut
//!   with a balance constraint ("SA+METIS").
//! * [`Method::VolumeBalanced`] — a Graph-VB-like partitioner that adds
//!   volume-aware refinement minimizing the **maximum send volume**
//!   together with the total volume ("SA+GVB"), because epoch time is set
//!   by the bottleneck process.
//!
//! Entry point: [`partition_graph`]. Metrics used across the paper's
//! tables: [`metrics`].

#![forbid(unsafe_code)]

pub mod bisect;
pub mod coarsen;
pub mod initial;
pub mod matching;
pub mod metrics;
pub mod multilevel;
pub mod refine_edgecut;
pub mod refine_volume;
pub mod types;
pub mod wgraph;

pub use multilevel::{partition_graph, Method, PartitionConfig};
pub use types::Partition;
