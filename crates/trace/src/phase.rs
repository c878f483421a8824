//! The phases of the paper's timing breakdown.
//!
//! Lived in `gnn-comm`'s stats module originally; moved here so the
//! tracer, the metrics registry, and the per-phase statistics all speak
//! one taxonomy. `gnn_comm::stats` re-exports these types, so existing
//! `gnn_comm::Phase` paths keep working.

/// The phases of the paper's timing breakdown.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Local SpMM/GEMM work, plus gather/pack/allocate time (the paper
    /// folds packing into "local computation").
    LocalCompute,
    /// The sparsity-aware row exchange (1D algorithm).
    AllToAll,
    /// The sparsity-oblivious block-row broadcast.
    Bcast,
    /// Partial-result reduction (1.5D algorithm; weight-gradient reduce).
    AllReduce,
    /// Point-to-point Isend/Recv traffic (1.5D stage loop).
    P2p,
    /// Anything else.
    Other,
    /// Transport-level retry overhead: retransmitted wire bytes, backoff
    /// waits, and discarded corrupt/duplicate frames. Never part of the
    /// logical communication volume.
    Retransmit,
}

/// All phases, in breakdown display order.
pub const PHASES: [Phase; 7] = [
    Phase::LocalCompute,
    Phase::AllToAll,
    Phase::Bcast,
    Phase::AllReduce,
    Phase::P2p,
    Phase::Other,
    Phase::Retransmit,
];

impl Phase {
    /// Dense index into per-phase counter arrays (`0..PHASES.len()`).
    pub fn index(self) -> usize {
        match self {
            Phase::LocalCompute => 0,
            Phase::AllToAll => 1,
            Phase::Bcast => 2,
            Phase::AllReduce => 3,
            Phase::P2p => 4,
            Phase::Other => 5,
            Phase::Retransmit => 6,
        }
    }

    /// Stable machine-readable name (trace schema vocabulary).
    pub fn name(self) -> &'static str {
        match self {
            Phase::LocalCompute => "local_compute",
            Phase::AllToAll => "alltoall",
            Phase::Bcast => "bcast",
            Phase::AllReduce => "allreduce",
            Phase::P2p => "p2p",
            Phase::Other => "other",
            Phase::Retransmit => "retransmit",
        }
    }

    /// Inverse of [`Phase::name`].
    pub fn from_name(s: &str) -> Option<Phase> {
        PHASES.iter().copied().find(|p| p.name() == s)
    }

    /// True for phases whose modeled time is communication (everything
    /// except `LocalCompute`).
    pub fn is_comm(self) -> bool {
        !matches!(self, Phase::LocalCompute)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_distinct() {
        for (i, p) in PHASES.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
    }

    #[test]
    fn names_roundtrip() {
        for p in PHASES {
            assert_eq!(Phase::from_name(p.name()), Some(p));
        }
        assert_eq!(Phase::from_name("nope"), None);
    }

    #[test]
    fn comm_split() {
        assert!(!Phase::LocalCompute.is_comm());
        assert!(Phase::AllToAll.is_comm());
        assert!(Phase::Other.is_comm());
    }
}
