//! Full-graph GCN training with sparsity-aware distributed SpMM —
//! the primary contribution of *"Sparsity-Aware Communication for
//! Distributed Graph Neural Network Training"* (ICPP 2024), rebuilt on
//! this workspace's simulated distributed runtime.
//!
//! Layering:
//!
//! * [`model`] — GCN weights, softmax cross-entropy, accuracy.
//! * [`mod@reference`] — sequential full-graph trainer (ground truth).
//! * [`dist`] — the one communication plan (`GridPlan`: 1D, 1.5D, 2D and
//!   3D are its shapes) and the distributed SpMMs that execute it, each
//!   oblivious or sparsity-aware, blocking or pipelined — plus the SPMD
//!   trainer whose one epoch program runs them over
//!   [`gnn_comm::ThreadWorld`] or rank processes.
//! * [`analytic`] — closed-form cost replay for large sweeps; proven
//!   equal to the executor's accounting by integration tests.
//!
//! Quick start: see `examples/quickstart.rs` at the workspace root.

#![forbid(unsafe_code)]

pub mod analytic;
pub mod dist;
pub mod model;
pub mod optim;
pub mod reference;

#[cfg(unix)]
pub use dist::{
    metrics_aggregate_path, metrics_rank_path, run_rank_proc, supervise_proc_training,
    supervise_proc_training_with, trace_rank_path, ProcTrainError,
};
pub use dist::{
    train_distributed, try_train_distributed, try_train_distributed_with_store, Algo,
    CheckpointBackend, DiskCheckpointStore, DistConfig, DistOutcome, LayerOrder, RobustnessConfig,
};
pub use model::{GcnConfig, Weights};
pub use optim::{OptKind, Optimizer};
pub use reference::{EpochRecord, ReferenceTrainer};
