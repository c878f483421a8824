//! Distributed training: communication plans, the distributed SpMM
//! algorithms — 1D ([`oned`]) and the 1.5D/2D/3D grid template
//! ([`grid`]), each sparsity-oblivious or sparsity-aware, blocking or
//! pipelined ([`overlap`]) — and the SPMD trainer that runs full GCN
//! training over a [`gnn_comm::ThreadWorld`].

pub mod buffers;
pub mod checkpoint;
pub mod failover;
pub mod grid;
pub mod oned;
pub mod overlap;
pub mod plan;
#[cfg(unix)]
pub mod proc;
pub mod trainer;

pub use buffers::EpochBuffers;
pub use checkpoint::{
    clear_disk_checkpoints, Checkpoint, CheckpointBackend, CheckpointStore, DiskCheckpointStore,
};
pub use failover::{failover_allreduce_replicated, spmm_15d_failover_buf, FailoverView};
pub use grid::{spmm_grid, spmm_grid_buf, GridPlan};
pub use overlap::{
    spmm_1d_aware_pipelined_buf, spmm_1d_oblivious_pipelined_buf, spmm_grid_pipelined_buf,
    OverlapPlan1d,
};
pub use plan::{even_bounds, Plan1d};
#[cfg(unix)]
pub use proc::{
    metrics_aggregate_path, metrics_rank_path, run_rank_proc, supervise_proc_training,
    supervise_proc_training_with, trace_rank_path, ProcTrainError,
};
pub use trainer::{
    train_distributed, try_train_distributed, try_train_distributed_with_store, Algo, DistConfig,
    DistOutcome, RobustnessConfig,
};
