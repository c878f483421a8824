//! Distributed training: the one communication plan ([`grid::GridPlan`],
//! whose shapes are 1D, 1.5D, 2D and 3D), the distributed SpMMs that
//! execute it — staged point-to-point ([`grid`]) or, for 1D, one
//! collective ([`oned`]); each sparsity-oblivious or sparsity-aware, each
//! one blocking schedule — and the SPMD trainer whose one epoch program
//! runs full GCN training over a [`gnn_comm::ThreadWorld`] or rank
//! processes.

pub mod buffers;
pub mod checkpoint;
pub mod grid;
pub mod oned;
#[cfg(unix)]
pub mod proc;
pub mod trainer;

pub use buffers::EpochBuffers;
pub use checkpoint::{
    clear_disk_checkpoints, Checkpoint, CheckpointBackend, CheckpointStore, DiskCheckpointStore,
};
pub use grid::{even_bounds, spmm_grid, spmm_grid_buf, GridPlan};
pub use oned::{spmm_1d, spmm_1d_buf};
#[cfg(unix)]
pub use proc::{
    metrics_aggregate_path, metrics_rank_path, run_rank_proc, supervise_proc_training,
    supervise_proc_training_with, trace_rank_path, ProcTrainError,
};
pub use trainer::{
    train_distributed, try_train_distributed, try_train_distributed_with_store, Algo, DistConfig,
    DistOutcome, LayerOrder, RobustnessConfig,
};
