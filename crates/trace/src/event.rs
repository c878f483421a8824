//! The span/event model.
//!
//! An [`Event`] is fixed-size and `Copy`: recording one never touches
//! the heap, which keeps the tracer off the allocator on the steady-
//! state path (the same discipline as `EpochBuffers`). Strings never
//! appear in events — kinds and phases are enums with stable
//! [`EventKind::name`]s that only materialize at export time.
//!
//! Two families share the struct:
//!
//! * **Op events** — one per communication/compute operation, emitted
//!   when the op completes, carrying its phase, peer, byte counts,
//!   flops, and modeled duration.
//! * **Span events** — structural brackets ([`SpanKind`]: epoch →
//!   forward/backward → SpMM) emitted at span *end* with the span's
//!   start time and duration. A span's `seq` is reserved at open time,
//!   so `seq` order is pre-order over the span tree and every event's
//!   `parent` names its innermost enclosing span.

use crate::phase::Phase;

/// `parent` value for top-level events (no enclosing span).
pub const NO_PARENT: u32 = u32::MAX;

/// `peer` value for ops without a single peer (collectives, compute).
pub const NO_PEER: i32 = -1;

/// Structural span labels (trainer and SpMM internals).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// One training epoch.
    Epoch,
    /// Forward pass of one epoch.
    Forward,
    /// Loss + metrics reduction.
    Loss,
    /// Backward pass + optimizer step.
    Backward,
    /// One 1D distributed SpMM call.
    Spmm1d,
    /// One 1.5D distributed SpMM call.
    Spmm15d,
    /// One 2D (SUMMA-style) distributed SpMM call.
    Spmm2d,
    /// One 3D (2.5D-style replicated-grid) distributed SpMM call.
    Spmm3d,
}

impl SpanKind {
    /// Stable machine-readable name (trace schema vocabulary).
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Epoch => "epoch",
            SpanKind::Forward => "forward",
            SpanKind::Loss => "loss",
            SpanKind::Backward => "backward",
            SpanKind::Spmm1d => "spmm_1d",
            SpanKind::Spmm15d => "spmm_15d",
            SpanKind::Spmm2d => "spmm_2d",
            SpanKind::Spmm3d => "spmm_3d",
        }
    }

    /// Inverse of [`SpanKind::name`].
    pub fn from_name(s: &str) -> Option<SpanKind> {
        const ALL: [SpanKind; 8] = [
            SpanKind::Epoch,
            SpanKind::Forward,
            SpanKind::Loss,
            SpanKind::Backward,
            SpanKind::Spmm1d,
            SpanKind::Spmm15d,
            SpanKind::Spmm2d,
            SpanKind::Spmm3d,
        ];
        ALL.iter().copied().find(|k| k.name() == s)
    }
}

/// What an event records.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// Point-to-point send.
    Send,
    /// Point-to-point receive.
    Recv,
    /// Broadcast participation.
    Bcast,
    /// All-to-allv participation.
    AllToAllV,
    /// All-reduce participation.
    AllReduce,
    /// Gather participation.
    Gather,
    /// Barrier.
    Barrier,
    /// Local compute (SpMM/GEMM/pack) op.
    Compute,
    /// Injected-fault overhead on a send: delay and/or retransmission.
    /// `bytes_sent` is the extra *wire* traffic (zero for pure delays);
    /// logical volumes are untouched.
    Retransmit,
    /// Network-chaos interposer severed a live connection (partition
    /// onset). `peer` is the affected link; recorded on the wall axis
    /// at the fault's activation time.
    ChaosSever,
    /// Network-chaos interposer cut a connection at its byte threshold.
    ChaosCut,
    /// Network-chaos interposer refused a dial (connection-refused
    /// window or active partition).
    ChaosRefused,
    /// A completed structural span.
    Span(SpanKind),
}

impl EventKind {
    /// Stable machine-readable name (trace schema vocabulary).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Send => "send",
            EventKind::Recv => "recv",
            EventKind::Bcast => "bcast",
            EventKind::AllToAllV => "alltoallv",
            EventKind::AllReduce => "allreduce",
            EventKind::Gather => "gather",
            EventKind::Barrier => "barrier",
            EventKind::Compute => "compute",
            EventKind::Retransmit => "retransmit",
            EventKind::ChaosSever => "chaos_sever",
            EventKind::ChaosCut => "chaos_cut",
            EventKind::ChaosRefused => "chaos_refused",
            EventKind::Span(k) => k.name(),
        }
    }

    /// Inverse of [`EventKind::name`].
    pub fn from_name(s: &str) -> Option<EventKind> {
        const OPS: [EventKind; 12] = [
            EventKind::Send,
            EventKind::Recv,
            EventKind::Bcast,
            EventKind::AllToAllV,
            EventKind::AllReduce,
            EventKind::Gather,
            EventKind::Barrier,
            EventKind::Compute,
            EventKind::Retransmit,
            EventKind::ChaosSever,
            EventKind::ChaosCut,
            EventKind::ChaosRefused,
        ];
        OPS.iter()
            .copied()
            .find(|k| k.name() == s)
            .or_else(|| SpanKind::from_name(s).map(EventKind::Span))
    }

    /// True for span (structural) events.
    pub fn is_span(self) -> bool {
        matches!(self, EventKind::Span(_))
    }
}

/// One trace record. Fixed-size, `Copy`, heap-free.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// Per-rank emission order. For spans, reserved at open time, so
    /// sorting a rank's events by `seq` yields pre-order span nesting.
    pub seq: u32,
    /// `seq` of the innermost enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// Emitting rank.
    pub rank: u32,
    /// Epoch declared via `set_epoch` (−1 before the first epoch).
    pub epoch: i64,
    /// What happened.
    pub kind: EventKind,
    /// Phase charged.
    pub phase: Phase,
    /// Peer rank for point-to-point ops, else [`NO_PEER`].
    pub peer: i32,
    /// Logical bytes sent by this op on this rank (wire bytes for
    /// [`EventKind::Retransmit`]).
    pub bytes_sent: u64,
    /// Logical bytes received by this op on this rank.
    pub bytes_recv: u64,
    /// Floating-point ops executed (compute events).
    pub flops: u64,
    /// Start offset on this rank's modeled-time axis, seconds.
    pub t_start: f64,
    /// Modeled duration, seconds.
    pub dur: f64,
    /// Start offset on this rank's *wall-clock* axis, seconds since the
    /// rank's monotonic anchor. [`f64::NAN`] when the tracer was
    /// modeled-only (the legacy schema): wall fields never reach the
    /// exporters then, so golden modeled traces stay byte-identical.
    pub t_wall: f64,
    /// Measured wall-clock duration, seconds ([`f64::NAN`] when absent).
    pub wall_dur: f64,
}

impl Event {
    /// End offset on the rank's modeled-time axis.
    pub fn t_end(&self) -> f64 {
        self.t_start + self.dur
    }

    /// True when this event carries the wall-clock axis (dual-clock
    /// schema); both wall fields are present or neither is.
    pub fn has_wall(&self) -> bool {
        self.t_wall.is_finite()
    }

    /// End offset on the rank's wall-clock axis (NaN when absent).
    pub fn wall_end(&self) -> f64 {
        self.t_wall + self.wall_dur
    }
}

// Manual impl: the NaN sentinel in the wall fields must compare equal to
// itself (two modeled-only events with identical payloads are the same
// event), so floats are compared by bit pattern.
impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
            && self.parent == other.parent
            && self.rank == other.rank
            && self.epoch == other.epoch
            && self.kind == other.kind
            && self.phase == other.phase
            && self.peer == other.peer
            && self.bytes_sent == other.bytes_sent
            && self.bytes_recv == other.bytes_recv
            && self.flops == other.flops
            && self.t_start.to_bits() == other.t_start.to_bits()
            && self.dur.to_bits() == other.dur.to_bits()
            && self.t_wall.to_bits() == other.t_wall.to_bits()
            && self.wall_dur.to_bits() == other.wall_dur.to_bits()
    }
}

impl Eq for Event {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_roundtrip() {
        let kinds = [
            EventKind::Send,
            EventKind::Recv,
            EventKind::Bcast,
            EventKind::AllToAllV,
            EventKind::AllReduce,
            EventKind::Gather,
            EventKind::Barrier,
            EventKind::Compute,
            EventKind::Retransmit,
            EventKind::ChaosSever,
            EventKind::ChaosCut,
            EventKind::ChaosRefused,
            EventKind::Span(SpanKind::Epoch),
            EventKind::Span(SpanKind::Spmm1d),
        ];
        for k in kinds {
            assert_eq!(EventKind::from_name(k.name()), Some(k), "{k:?}");
        }
        assert_eq!(EventKind::from_name("bogus"), None);
    }

    #[test]
    fn events_are_copy_and_small() {
        // The recorder depends on events being heap-free; a Vec push of
        // a Copy struct is the whole recording cost.
        fn assert_copy<T: Copy>() {}
        assert_copy::<Event>();
        assert!(std::mem::size_of::<Event>() <= 96, "event grew too fat");
    }
}
