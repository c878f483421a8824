//! Simulated distributed runtime for communication-volume research.
//!
//! The paper ran on 256 GPUs with NCCL; this crate provides the
//! drop-in substrate for running the *same algorithms* on one machine:
//!
//! * [`world::ThreadWorld`] — spawns `P` ranks as OS threads connected by
//!   a full mesh of channels; every rank runs the identical SPMD program a
//!   GPU process would run.
//! * [`ctx::RankCtx`] — the per-rank handle: point-to-point sends/recvs
//!   and the collectives the paper's algorithms use (broadcast,
//!   all-to-allv, group all-reduce), each recording exact per-phase
//!   communication volumes.
//! * [`cost::CostModel`] — an α–β(–γ) machine model calibrated to
//!   Perlmutter-class interconnects that converts recorded volumes and
//!   FLOP counts into modeled epoch times. Executions measure *what* is
//!   communicated; the model prices it like the paper's testbed would.
//! * [`stats`] — per-rank, per-phase counters with the aggregation the
//!   figures need (max-over-ranks epoch time, per-phase breakdown,
//!   communication imbalance), plus injected-fault/retry counters.
//! * [`pool`] — the world's [`PayloadPool`]: payload vectors move
//!   between ranks, so their free lists belong to the world that moves
//!   them (one per [`ThreadWorld`] run, one per rank process), reached
//!   through [`RankCtx::take_f64`] / [`RankCtx::recycle`].
//! * [`fault`] — deterministic fault injection: one seeded
//!   [`FaultPlan`] (builders or a `;`-separated spec) whose message
//!   rules — delayed, dropped, or corrupted messages, slowed compute,
//!   rank crashes at a chosen epoch — a [`FaultInjector`] evaluates on
//!   both backends, and whose link rules the process backend's socket
//!   interposer runs; faulty runs replay bit-identically.
//! * [`error`] — structured failure reporting: [`ThreadWorld::try_run`]
//!   returns a [`WorldError`] naming the panicking rank, the injected
//!   crash, or a [`DeadlockReport`] from the built-in watchdog instead
//!   of hanging or aborting opaquely; one classifier turns every rank's
//!   unwind into that error on both backends.
//! * Tracing — [`ThreadWorld::with_tracing`] arms a per-rank
//!   [`gnn_trace::RankTracer`]; every op above then also emits a
//!   structured event on the rank's modeled-time axis, and
//!   [`ThreadWorld::try_run_traced`] returns the collected
//!   [`gnn_trace::WorldTrace`] alongside the stats (re-exported here as
//!   [`trace`]).

pub mod cost;
pub mod ctx;
pub mod error;
pub mod fault;
pub mod msg;
pub mod pool;
pub mod stats;
pub mod world;

pub(crate) mod transport;
pub(crate) mod watchdog;

/// The observability crate, re-exported for downstream convenience.
pub use gnn_trace as trace;

pub use cost::CostModel;
pub use ctx::{OverlapConfig, RankCtx};
pub use error::{BlockedRank, DeadlockReport, WaitKind, WorldError};
pub use fault::{Fault, FaultInjector, FaultPlan, SendFate};
pub use gnn_trace::{SpanKind, WorldTrace};
pub use pool::PayloadPool;
pub use stats::{FaultCounters, Phase, ProcCounters, RankStats, WorldStats};
#[cfg(unix)]
pub use transport::net::{wait_child_exit, HostFile};
#[cfg(unix)]
pub use transport::proc::{write_proc_generation, ProcError, ProcWorld};
pub use world::ThreadWorld;
