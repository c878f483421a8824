//! Per-rank, per-phase communication/compute accounting.
//!
//! Every [`crate::RankCtx`] operation records what it moved or computed
//! into a [`RankStats`]; after a run, [`WorldStats`] aggregates the ranks
//! into the quantities the paper's tables and figures report: modeled
//! epoch time (max over ranks), per-phase breakdowns (Fig. 4/5), and
//! communication load imbalance (Table 2).

// The phase taxonomy lives in `gnn-trace` (shared between stats and the
// tracer's event schema); re-exported here so existing `gnn_comm::Phase`
// paths keep working.
pub use gnn_trace::{Phase, PHASES};

/// Counters for one phase on one rank.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseCounters {
    /// Number of operations (collective calls, messages, kernel launches).
    pub ops: u64,
    /// Bytes this rank sent in this phase. For `AllReduce` this is the
    /// logical buffer size per call, not wire traffic.
    pub bytes_sent: u64,
    /// Bytes this rank received in this phase (same convention).
    pub bytes_recv: u64,
    /// Floating-point operations executed (compute phases).
    pub flops: u64,
    /// Time priced by the [`crate::CostModel`] at op time.
    pub modeled_seconds: f64,
    /// Wall-clock seconds actually spent (informational; the simulator's
    /// wall time says nothing about a GPU cluster).
    pub wall_seconds: f64,
}

impl PhaseCounters {
    fn merge(&mut self, o: &PhaseCounters) {
        self.ops += o.ops;
        self.bytes_sent += o.bytes_sent;
        self.bytes_recv += o.bytes_recv;
        self.flops += o.flops;
        self.modeled_seconds += o.modeled_seconds;
        self.wall_seconds += o.wall_seconds;
    }
}

/// Injected-fault and recovery accounting for one rank (satellite data
/// for degraded-mode experiments: how much adversity a run absorbed).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FaultCounters {
    /// Sends hit by an injected delay fault.
    pub delays: u64,
    /// Total extra modeled seconds injected by delay faults.
    pub delay_seconds: f64,
    /// First transmissions lost to injected drop faults (each triggered a
    /// modeled retransmission).
    pub drops: u64,
    /// First transmissions corrupted by injected corruption faults.
    pub corruptions: u64,
    /// Corrupt copies this rank detected (checksum failure) and discarded.
    pub corruptions_detected: u64,
    /// Link-layer retransmissions this rank performed (drops + corruptions).
    pub retries: u64,
    /// Extra wire bytes those retransmissions moved. Charged to
    /// [`Phase::Retransmit`] (never to the op's own phase), so logical
    /// communication volumes (the paper's Table 2 quantities) are
    /// unaffected by fault injection.
    pub retransmit_bytes: u64,
    /// Injected duplicate deliveries this rank's sends produced.
    pub duplicates: u64,
    /// Duplicate frames this rank detected (stale sequence number) and
    /// discarded.
    pub duplicates_discarded: u64,
    /// Compute ops priced with an injected straggler slowdown.
    pub slowed_ops: u64,
}

impl FaultCounters {
    fn merge(&mut self, o: &FaultCounters) {
        self.delays += o.delays;
        self.delay_seconds += o.delay_seconds;
        self.drops += o.drops;
        self.corruptions += o.corruptions;
        self.corruptions_detected += o.corruptions_detected;
        self.retries += o.retries;
        self.retransmit_bytes += o.retransmit_bytes;
        self.duplicates += o.duplicates;
        self.duplicates_discarded += o.duplicates_discarded;
        self.slowed_ops += o.slowed_ops;
    }

    /// Total injected fault events charged to this rank's sends/computes.
    pub fn injected_total(&self) -> u64 {
        self.delays + self.drops + self.corruptions + self.duplicates + self.slowed_ops
    }
}

/// Process-backend link-layer counters for one rank: real socket events
/// (reconnects, replay retransmits, heartbeat misses) that have no
/// thread-backend analogue. Always present — and always zero — on
/// thread-backed runs, so both backends emit a comparable metrics
/// schema.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ProcCounters {
    /// Successful dialer-side reconnects after a transient link loss.
    pub reconnects: u64,
    /// Reliable frames retransmitted from the replay queue when a
    /// replacement connection was installed.
    pub replayed_frames: u64,
    /// Liveness-monitor ticks that observed a peer past one heartbeat
    /// period of silence (each tick past the threshold counts once per
    /// silent peer).
    pub heartbeat_misses: u64,
    /// Backoff sleeps across every dial loop (rendezvous, mesh wire-up,
    /// reconnect).
    pub dial_backoffs: u64,
    /// Unclean connection losses while the world was healthy — each one
    /// a suspected partition or peer crash, resolved by reconnect one
    /// way or the other.
    pub partitions_suspected: u64,
    /// Reconnections that replaced a previously established link: a
    /// suspected partition that healed within the liveness budget.
    pub partitions_healed: u64,
    /// Network-chaos interposer activations (delays + severs + refused
    /// dials); zero when no chaos plan was armed.
    pub chaos_injected: u64,
}

impl ProcCounters {
    fn merge(&mut self, o: &ProcCounters) {
        self.reconnects += o.reconnects;
        self.replayed_frames += o.replayed_frames;
        self.heartbeat_misses += o.heartbeat_misses;
        self.dial_backoffs += o.dial_backoffs;
        self.partitions_suspected += o.partitions_suspected;
        self.partitions_healed += o.partitions_healed;
        self.chaos_injected += o.chaos_injected;
    }
}

/// Per-rank accounting across all phases.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RankStats {
    phases: [PhaseCounters; PHASES.len()],
    /// Injected-fault and retry counters.
    pub faults: FaultCounters,
    /// Process-backend link-layer counters (zero on thread runs).
    pub proc: ProcCounters,
}

impl RankStats {
    /// Counters for one phase.
    pub fn phase(&self, p: Phase) -> &PhaseCounters {
        &self.phases[p.index()]
    }

    /// Mutable counters for one phase.
    pub fn phase_mut(&mut self, p: Phase) -> &mut PhaseCounters {
        &mut self.phases[p.index()]
    }

    /// Total modeled seconds across phases — this rank's epoch time.
    pub fn modeled_total(&self) -> f64 {
        self.phases.iter().map(|c| c.modeled_seconds).sum()
    }

    /// Total **logical** bytes sent across communication phases — the
    /// `Retransmit` phase carries only wire overhead and is excluded, so
    /// fault injection never perturbs the paper's volume metrics.
    pub fn bytes_sent_total(&self) -> u64 {
        self.phases
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != Phase::Retransmit.index())
            .map(|(_, c)| c.bytes_sent)
            .sum()
    }

    /// Total **logical** bytes received (same convention as
    /// [`RankStats::bytes_sent_total`]).
    pub fn bytes_recv_total(&self) -> u64 {
        self.phases
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != Phase::Retransmit.index())
            .map(|(_, c)| c.bytes_recv)
            .sum()
    }

    /// Total bytes this rank pushed onto the wire: logical volume plus
    /// every retransmitted frame. Reconciles with the trace validator's
    /// `logical_bytes_sent + retransmit_wire_bytes`.
    pub fn wire_bytes_sent_total(&self) -> u64 {
        self.bytes_sent_total() + self.phases[Phase::Retransmit.index()].bytes_sent
    }

    /// Adds another rank-stats (e.g. accumulating epochs).
    pub fn merge(&mut self, other: &RankStats) {
        for (a, b) in self.phases.iter_mut().zip(&other.phases) {
            a.merge(b);
        }
        self.faults.merge(&other.faults);
        self.proc.merge(&other.proc);
    }
}

/// Aggregated statistics for a whole run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WorldStats {
    /// One entry per rank.
    pub per_rank: Vec<RankStats>,
}

impl WorldStats {
    /// Builds from per-rank stats.
    pub fn new(per_rank: Vec<RankStats>) -> Self {
        Self { per_rank }
    }

    /// Number of ranks.
    pub fn p(&self) -> usize {
        self.per_rank.len()
    }

    /// Modeled epoch time: the slowest rank determines the bulk-
    /// synchronous step, exactly the "bottleneck process" argument of §5.
    pub fn modeled_epoch_time(&self) -> f64 {
        self.per_rank
            .iter()
            .map(RankStats::modeled_total)
            .fold(0.0, f64::max)
    }

    /// Modeled epoch time under **perfect communication/computation
    /// overlap**: per rank, `max(compute, communication)` instead of
    /// their sum. The paper's §1 lists overlap as a benefit of the
    /// sparsity-oblivious approach's regular communication pattern; this
    /// bound is the most charitable possible reading of it.
    pub fn modeled_epoch_time_overlapped(&self) -> f64 {
        self.per_rank
            .iter()
            .map(|r| {
                let compute = r.phase(Phase::LocalCompute).modeled_seconds;
                let comm = r.modeled_total() - compute;
                compute.max(comm)
            })
            .fold(0.0, f64::max)
    }

    /// Max over ranks of one phase's modeled seconds (figure breakdowns).
    pub fn phase_time(&self, p: Phase) -> f64 {
        self.per_rank
            .iter()
            .map(|r| r.phase(p).modeled_seconds)
            .fold(0.0, f64::max)
    }

    /// Sum over ranks of bytes sent in one phase. Note broadcast sends
    /// are counted once at the root (tree model); when comparing a
    /// broadcast-based scheme against a point-to-point scheme, compare
    /// [`WorldStats::phase_recv_bytes_total`] instead.
    pub fn phase_bytes_total(&self, p: Phase) -> u64 {
        self.per_rank.iter().map(|r| r.phase(p).bytes_sent).sum()
    }

    /// Sum over ranks of bytes received in one phase — the volume that
    /// actually crossed each rank's ingress link.
    pub fn phase_recv_bytes_total(&self, p: Phase) -> u64 {
        self.per_rank.iter().map(|r| r.phase(p).bytes_recv).sum()
    }

    /// Mean bytes sent per rank in one phase (Table 2's "average").
    pub fn avg_send_bytes(&self, p: Phase) -> f64 {
        if self.per_rank.is_empty() {
            return 0.0;
        }
        self.phase_bytes_total(p) as f64 / self.per_rank.len() as f64
    }

    /// Max bytes sent by any rank in one phase (Table 2's "max").
    pub fn max_send_bytes(&self, p: Phase) -> u64 {
        self.per_rank
            .iter()
            .map(|r| r.phase(p).bytes_sent)
            .max()
            .unwrap_or(0)
    }

    /// Communication load imbalance `(max/avg − 1)·100%`, the paper's
    /// Table 2 metric.
    pub fn send_imbalance_pct(&self, p: Phase) -> f64 {
        let avg = self.avg_send_bytes(p);
        if avg == 0.0 {
            return 0.0;
        }
        (self.max_send_bytes(p) as f64 / avg - 1.0) * 100.0
    }

    /// Sum over ranks of link-layer retransmissions (injected drops and
    /// corruptions that were recovered in place).
    pub fn total_retries(&self) -> u64 {
        self.per_rank.iter().map(|r| r.faults.retries).sum()
    }

    /// Sum over ranks of injected fault events (delays, drops,
    /// corruptions, slowed compute ops).
    pub fn total_injected_faults(&self) -> u64 {
        self.per_rank
            .iter()
            .map(|r| r.faults.injected_total())
            .sum()
    }

    /// Sum over ranks of extra wire bytes moved by fault-injected
    /// retransmissions (not part of any phase's logical volume).
    pub fn total_retransmit_bytes(&self) -> u64 {
        self.per_rank
            .iter()
            .map(|r| r.faults.retransmit_bytes)
            .sum()
    }

    /// Sum over ranks of wire bytes sent (logical + retransmits).
    pub fn total_wire_bytes_sent(&self) -> u64 {
        self.per_rank
            .iter()
            .map(RankStats::wire_bytes_sent_total)
            .sum()
    }

    /// Sum over ranks of duplicate frames detected and discarded.
    pub fn total_duplicates_discarded(&self) -> u64 {
        self.per_rank
            .iter()
            .map(|r| r.faults.duplicates_discarded)
            .sum()
    }

    /// Sum over ranks of process-backend reconnects (zero on thread runs).
    pub fn total_reconnects(&self) -> u64 {
        self.per_rank.iter().map(|r| r.proc.reconnects).sum()
    }

    /// Sum over ranks of replay-queue frames retransmitted on reconnect.
    pub fn total_replayed_frames(&self) -> u64 {
        self.per_rank.iter().map(|r| r.proc.replayed_frames).sum()
    }

    /// Sum over ranks of heartbeat-miss observations.
    pub fn total_heartbeat_misses(&self) -> u64 {
        self.per_rank.iter().map(|r| r.proc.heartbeat_misses).sum()
    }

    /// Sum over ranks of dial-backoff sleeps (rendezvous + reconnect).
    pub fn total_dial_backoffs(&self) -> u64 {
        self.per_rank.iter().map(|r| r.proc.dial_backoffs).sum()
    }

    /// Sum over ranks of suspected partitions (unclean link losses).
    pub fn total_partitions_suspected(&self) -> u64 {
        self.per_rank
            .iter()
            .map(|r| r.proc.partitions_suspected)
            .sum()
    }

    /// Sum over ranks of partitions that healed within the budget.
    pub fn total_partitions_healed(&self) -> u64 {
        self.per_rank.iter().map(|r| r.proc.partitions_healed).sum()
    }

    /// Sum over ranks of network-chaos fault activations.
    pub fn total_chaos_injected(&self) -> u64 {
        self.per_rank.iter().map(|r| r.proc.chaos_injected).sum()
    }

    /// Flattens the world's accounting into a [`gnn_trace::MetricsRegistry`]
    /// — the unification point between `RankStats` and the trace/metrics
    /// artifacts (`--metrics-out`).
    pub fn to_metrics(&self) -> gnn_trace::MetricsRegistry {
        let mut reg = gnn_trace::MetricsRegistry::new();
        reg.counter("world.ranks", self.p() as u64);
        reg.gauge("world.modeled_epoch_seconds", self.modeled_epoch_time());
        reg.gauge(
            "world.modeled_epoch_seconds_overlapped",
            self.modeled_epoch_time_overlapped(),
        );
        reg.counter("faults.retries", self.total_retries());
        reg.counter("faults.injected", self.total_injected_faults());
        reg.counter("faults.retransmit_bytes", self.total_retransmit_bytes());
        reg.counter(
            "faults.duplicates_discarded",
            self.total_duplicates_discarded(),
        );
        // Proc-only link-layer counters are exported unconditionally
        // (zero for thread runs) so both backends produce the same
        // metrics schema and dashboards can diff them directly.
        reg.counter("proc.reconnects", self.total_reconnects());
        reg.counter("proc.replayed_frames", self.total_replayed_frames());
        reg.counter("proc.heartbeat_misses", self.total_heartbeat_misses());
        reg.counter("proc.dial_backoffs", self.total_dial_backoffs());
        reg.counter(
            "proc.partitions_suspected",
            self.total_partitions_suspected(),
        );
        reg.counter("proc.partitions_healed", self.total_partitions_healed());
        reg.counter("chaos.injected", self.total_chaos_injected());
        for p in PHASES {
            let name = p.name();
            reg.counter(
                format!("phase.bytes_sent{{phase={name}}}"),
                self.phase_bytes_total(p),
            );
            reg.counter(
                format!("phase.bytes_recv{{phase={name}}}"),
                self.phase_recv_bytes_total(p),
            );
            reg.gauge(
                format!("phase.max_seconds{{phase={name}}}"),
                self.phase_time(p),
            );
            reg.gauge(
                format!("phase.send_imbalance_pct{{phase={name}}}"),
                self.send_imbalance_pct(p),
            );
        }
        for (rank, r) in self.per_rank.iter().enumerate() {
            reg.gauge(
                format!("rank.modeled_seconds{{rank={rank}}}"),
                r.modeled_total(),
            );
            reg.counter(
                format!("rank.bytes_sent{{rank={rank}}}"),
                r.bytes_sent_total(),
            );
        }
        reg
    }

    /// Element-wise merge (accumulate multiple epochs/runs).
    pub fn merge(&mut self, other: &WorldStats) {
        assert_eq!(
            self.per_rank.len(),
            other.per_rank.len(),
            "rank count mismatch"
        );
        for (a, b) in self.per_rank.iter_mut().zip(&other.per_rank) {
            a.merge(b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rank_with(phase: Phase, sent: u64, modeled: f64) -> RankStats {
        let mut r = RankStats::default();
        let c = r.phase_mut(phase);
        c.ops = 1;
        c.bytes_sent = sent;
        c.modeled_seconds = modeled;
        r
    }

    #[test]
    fn epoch_time_is_max_over_ranks() {
        let w = WorldStats::new(vec![
            rank_with(Phase::AllToAll, 10, 1.0),
            rank_with(Phase::AllToAll, 20, 3.0),
            rank_with(Phase::AllToAll, 5, 2.0),
        ]);
        assert_eq!(w.modeled_epoch_time(), 3.0);
    }

    #[test]
    fn imbalance_matches_table2_definition() {
        // avg = 20, max = 40 → 100%
        let w = WorldStats::new(vec![
            rank_with(Phase::AllToAll, 40, 0.0),
            rank_with(Phase::AllToAll, 10, 0.0),
            rank_with(Phase::AllToAll, 10, 0.0),
            rank_with(Phase::AllToAll, 20, 0.0),
        ]);
        assert!((w.send_imbalance_pct(Phase::AllToAll) - 100.0).abs() < 1e-12);
    }

    #[test]
    fn balanced_world_has_zero_imbalance() {
        let w = WorldStats::new(vec![
            rank_with(Phase::Bcast, 7, 0.0),
            rank_with(Phase::Bcast, 7, 0.0),
        ]);
        assert_eq!(w.send_imbalance_pct(Phase::Bcast), 0.0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = WorldStats::new(vec![rank_with(Phase::P2p, 5, 1.0)]);
        let b = WorldStats::new(vec![rank_with(Phase::P2p, 7, 2.0)]);
        a.merge(&b);
        assert_eq!(a.per_rank[0].phase(Phase::P2p).bytes_sent, 12);
        assert_eq!(a.per_rank[0].phase(Phase::P2p).modeled_seconds, 3.0);
        assert_eq!(a.per_rank[0].phase(Phase::P2p).ops, 2);
    }

    #[test]
    fn totals_span_phases() {
        let mut r = rank_with(Phase::AllToAll, 5, 1.0);
        r.phase_mut(Phase::Bcast).bytes_sent = 3;
        r.phase_mut(Phase::Bcast).modeled_seconds = 0.5;
        assert_eq!(r.bytes_sent_total(), 8);
        assert!((r.modeled_total() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn overlap_bound_takes_max_of_compute_and_comm() {
        let mut r = RankStats::default();
        r.phase_mut(Phase::LocalCompute).modeled_seconds = 2.0;
        r.phase_mut(Phase::AllToAll).modeled_seconds = 5.0;
        r.phase_mut(Phase::Bcast).modeled_seconds = 1.0;
        let w = WorldStats::new(vec![r]);
        assert_eq!(w.modeled_epoch_time(), 8.0);
        assert_eq!(w.modeled_epoch_time_overlapped(), 6.0);
    }

    #[test]
    fn overlap_equals_plain_when_compute_dominates() {
        let mut r = RankStats::default();
        r.phase_mut(Phase::LocalCompute).modeled_seconds = 9.0;
        let w = WorldStats::new(vec![r]);
        assert_eq!(w.modeled_epoch_time_overlapped(), 9.0);
    }

    #[test]
    fn empty_phase_is_zero() {
        let w = WorldStats::new(vec![RankStats::default()]);
        assert_eq!(w.phase_time(Phase::AllReduce), 0.0);
        assert_eq!(w.send_imbalance_pct(Phase::AllReduce), 0.0);
    }

    #[test]
    fn retransmit_phase_is_wire_not_logical() {
        let mut r = rank_with(Phase::P2p, 100, 1.0);
        r.phase_mut(Phase::Retransmit).bytes_sent = 40;
        assert_eq!(r.bytes_sent_total(), 100, "logical volume unperturbed");
        assert_eq!(r.wire_bytes_sent_total(), 140);
        let w = WorldStats::new(vec![r]);
        assert_eq!(w.total_wire_bytes_sent(), 140);
    }
}
