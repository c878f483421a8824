//! Observability for the SPMD simulator: structured tracing, a metrics
//! registry, and bottleneck-rank attribution.
//!
//! The paper's central claim is that epoch time is set by the
//! *bottleneck* process — GVB partitioning wins precisely because it
//! minimizes the **maximum send volume** of any rank. This crate turns
//! every simulated run into an explainable timeline that makes the
//! bottleneck visible:
//!
//! * [`phase`] — the [`Phase`] taxonomy of the paper's timing breakdown
//!   (shared with `gnn-comm`'s per-phase statistics, which re-exports it).
//! * [`event`] — the span/event model: every communication op, compute
//!   kernel, and injected retransmission becomes a fixed-size, `Copy`
//!   [`Event`] on a per-rank modeled-time axis; structural [`SpanKind`]
//!   spans (epoch → forward/backward → SpMM) nest via parent links.
//! * [`recorder`] — [`RankTracer`], the lock-free per-rank recorder
//!   (each rank owns one; no cross-thread synchronization on the hot
//!   path), and [`WorldTrace`], the collected run.
//! * [`metrics`] — [`MetricsRegistry`]: counters, gauges, and
//!   fixed-bucket [`Histogram`]s (message sizes, per-epoch send
//!   volumes) with deterministic JSON output.
//! * [`export`] — JSONL event logs (versioned schema
//!   [`SCHEMA_VERSION`]), Chrome `trace_event` JSON loadable in
//!   `chrome://tracing` / Perfetto, and a per-epoch text timeline.
//! * [`report`] — [`BottleneckReport`]: per-epoch ranking of processes
//!   by max send volume and modeled time, naming the critical-path rank
//!   (the paper's Figs. 6–7 analysis as a first-class tool).
//! * [`validate`] — a dependency-free schema validator for emitted
//!   JSONL (used by tests and the CI smoke job).
//! * [`merge`] — cross-process trace stitching: unions per-rank JSONL
//!   files from the process backend and aligns their wall clocks with
//!   the rendezvous-estimated per-rank offsets (`trace-report --merge`).
//! * [`json`] — the minimal JSON parser backing `validate` and the
//!   `trace-report` binary.
//!
//! Tracing is zero-overhead when off: the recorder is an `Option` at the
//! call site, events are `Copy` (no per-event heap traffic), and the
//! event buffer grows amortized like `EpochBuffers` — steady-state
//! epochs with tracing disabled perform no tracing work at all.
//!
//! Determinism: events are stamped with per-rank sequence numbers and
//! modeled-time offsets; a modeled-only recorder ([`RankTracer::new`])
//! never exports a wall field, so two runs of the seeded simulator emit
//! byte-identical JSONL. Dual-clock recorders
//! ([`RankTracer::with_wall_anchor`], used by the process backend)
//! additionally stamp every event with monotonic wall offsets — those
//! traces are deterministic functions of the recorded run (re-exporting
//! or merging the same files is byte-stable), but wall values naturally
//! differ between runs.

#![forbid(unsafe_code)]

pub mod event;
pub mod export;
pub mod json;
pub mod merge;
pub mod metrics;
pub mod phase;
pub mod recorder;
pub mod report;
pub mod validate;

pub use event::{Event, EventKind, SpanKind, NO_PARENT, NO_PEER};
pub use export::{
    chrome_trace_string, chrome_trace_string_wall, jsonl_string, text_timeline, write_to_file,
};
pub use merge::{merge_aligned, merge_world, offsets_json, parse_offsets_json};
pub use metrics::{Histogram, MetricValue, MetricsRegistry};
pub use phase::{Phase, PHASES};
pub use recorder::{PhaseAgg, RankTracer, SpanNode, WorldTrace};
pub use report::{BottleneckReport, EpochAttribution, RankEpoch};
pub use validate::{parse_jsonl, validate_jsonl, TraceSummary, ValidateError};

/// Version tag written into every exported trace header. Bump when the
/// event schema changes shape.
pub const SCHEMA_VERSION: &str = "gnn-trace/1";
