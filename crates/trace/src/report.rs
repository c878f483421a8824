//! Bottleneck-rank attribution.
//!
//! The paper's epoch-time model is `T_epoch = max_rank(T_rank)`: the
//! slowest process sets the pace, and sparsity-aware communication or
//! GVB partitioning win by shrinking the *maximum* per-rank send
//! volume, not the average. [`BottleneckReport`] makes that argument
//! inspectable for a concrete run: for every epoch it ranks processes
//! by modeled time and send volume, names the critical-path rank, and
//! breaks its time down by phase.

use std::fmt::Write as _;

use crate::phase::{Phase, PHASES};
use crate::recorder::{PhaseAgg, WorldTrace};

/// One rank's aggregate over one epoch.
#[derive(Clone, Debug)]
pub struct RankEpoch {
    /// The rank.
    pub rank: usize,
    /// Per-phase aggregates (indexed by [`Phase::index`]).
    pub phases: [PhaseAgg; PHASES.len()],
    /// Total modeled seconds across phases.
    pub modeled_seconds: f64,
    /// Total measured wall-clock seconds across phases (0.0 for
    /// modeled-only traces).
    pub wall_seconds: f64,
    /// Total logical bytes sent across phases.
    pub bytes_sent: u64,
    /// Total logical bytes received across phases.
    pub bytes_recv: u64,
    /// Extra wire bytes from injected retransmissions.
    pub retransmit_bytes: u64,
}

impl RankEpoch {
    fn from_aggregates(rank: usize, phases: [PhaseAgg; PHASES.len()]) -> Self {
        let modeled_seconds = phases.iter().map(|a| a.seconds).sum();
        let wall_seconds = phases.iter().map(|a| a.wall_seconds).sum();
        let bytes_sent = phases.iter().map(|a| a.bytes_sent).sum();
        let bytes_recv = phases.iter().map(|a| a.bytes_recv).sum();
        let retransmit_bytes = phases.iter().map(|a| a.retransmit_bytes).sum();
        Self {
            rank,
            phases,
            modeled_seconds,
            wall_seconds,
            bytes_sent,
            bytes_recv,
            retransmit_bytes,
        }
    }

    /// Seconds spent outside `LocalCompute` (the communication share).
    pub fn comm_seconds(&self) -> f64 {
        self.modeled_seconds - self.phases[Phase::LocalCompute.index()].seconds
    }

    /// Measured wall seconds spent outside `LocalCompute` — the
    /// comm-exposed share of this rank's wall clock (dual-clock traces
    /// only).
    pub fn wall_comm_seconds(&self) -> f64 {
        self.wall_seconds - self.phases[Phase::LocalCompute.index()].wall_seconds
    }
}

/// Attribution for one epoch: every rank's totals plus the critical
/// ranks.
#[derive(Clone, Debug)]
pub struct EpochAttribution {
    /// The epoch.
    pub epoch: i64,
    /// One entry per rank.
    pub ranks: Vec<RankEpoch>,
    /// Rank with the largest modeled time — the critical-path process
    /// whose clock *is* the epoch time.
    pub bottleneck_rank: usize,
    /// Rank with the largest logical send volume (the quantity GVB
    /// minimizes; usually, but not necessarily, the bottleneck).
    pub max_send_rank: usize,
    /// Per-phase critical rank: for each phase, the rank that spent the
    /// most modeled time in it.
    pub phase_critical_rank: [usize; PHASES.len()],
    /// Modeled epoch time (= the bottleneck rank's modeled seconds).
    pub epoch_seconds: f64,
    /// Rank with the largest measured wall time (dual-clock traces;
    /// equals `bottleneck_rank` when the α–β model predicts well).
    pub wall_bottleneck_rank: usize,
    /// Measured wall epoch time (= the wall-bottleneck rank's wall
    /// seconds; 0.0 for modeled-only traces).
    pub wall_epoch_seconds: f64,
}

impl EpochAttribution {
    fn build(trace: &WorldTrace, epoch: i64) -> Self {
        let ranks: Vec<RankEpoch> = (0..trace.p())
            .map(|r| RankEpoch::from_aggregates(r, trace.phase_aggregates(r, Some(epoch))))
            .collect();
        let bottleneck_rank = argmax_f64(ranks.iter().map(|r| r.modeled_seconds));
        let max_send_rank = argmax_u64(ranks.iter().map(|r| r.bytes_sent));
        let mut phase_critical_rank = [0usize; PHASES.len()];
        for (i, slot) in phase_critical_rank.iter_mut().enumerate() {
            *slot = argmax_f64(ranks.iter().map(|r| r.phases[i].seconds));
        }
        let epoch_seconds = ranks[bottleneck_rank].modeled_seconds;
        let wall_bottleneck_rank = argmax_f64(ranks.iter().map(|r| r.wall_seconds));
        let wall_epoch_seconds = ranks[wall_bottleneck_rank].wall_seconds;
        Self {
            epoch,
            ranks,
            bottleneck_rank,
            max_send_rank,
            phase_critical_rank,
            epoch_seconds,
            wall_bottleneck_rank,
            wall_epoch_seconds,
        }
    }

    /// Send imbalance: max send volume over mean send volume (1.0 is
    /// perfectly balanced; the paper's skew metric).
    pub fn send_imbalance(&self) -> f64 {
        let total: u64 = self.ranks.iter().map(|r| r.bytes_sent).sum();
        if total == 0 {
            return 1.0;
        }
        let mean = total as f64 / self.ranks.len() as f64;
        self.ranks[self.max_send_rank].bytes_sent as f64 / mean
    }
}

/// The full run attribution: one [`EpochAttribution`] per epoch.
#[derive(Clone, Debug)]
pub struct BottleneckReport {
    /// Per-epoch attributions, in epoch order.
    pub epochs: Vec<EpochAttribution>,
    /// World size.
    pub p: usize,
}

impl BottleneckReport {
    /// Builds the report from a collected trace. Events recorded
    /// before the first `set_epoch` (epoch −1) are ignored.
    pub fn from_trace(trace: &WorldTrace) -> Self {
        let max_epoch = trace.max_epoch();
        let epochs = (0..=max_epoch.max(-1))
            .filter(|_| max_epoch >= 0)
            .map(|e| EpochAttribution::build(trace, e))
            .collect();
        Self {
            epochs,
            p: trace.p(),
        }
    }

    /// Modeled end-to-end time: sum over epochs of the bottleneck
    /// rank's time.
    pub fn total_seconds(&self) -> f64 {
        self.epochs.iter().map(|e| e.epoch_seconds).sum()
    }

    /// The rank that is the bottleneck most often (ties → lowest rank).
    pub fn dominant_bottleneck(&self) -> Option<usize> {
        if self.epochs.is_empty() {
            return None;
        }
        let mut counts = vec![0usize; self.p];
        for e in &self.epochs {
            counts[e.bottleneck_rank] += 1;
        }
        Some(argmax_u64(counts.iter().map(|&c| c as u64)))
    }

    /// Renders the human-readable attribution report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "bottleneck attribution: {} rank(s), {} epoch(s), modeled total {:.3} ms",
            self.p,
            self.epochs.len(),
            self.total_seconds() * 1e3
        );
        if let Some(dom) = self.dominant_bottleneck() {
            let n = self
                .epochs
                .iter()
                .filter(|e| e.bottleneck_rank == dom)
                .count();
            let _ = writeln!(
                out,
                "dominant bottleneck: rank {dom} (critical path in {n}/{} epochs)",
                self.epochs.len()
            );
        }
        for e in &self.epochs {
            let b = &e.ranks[e.bottleneck_rank];
            let _ = writeln!(
                out,
                "epoch {}: {:.3} ms, bottleneck rank {} ({:.3} ms compute / {:.3} ms comm), \
                 max send rank {} ({} B, imbalance {:.2}x)",
                e.epoch,
                e.epoch_seconds * 1e3,
                e.bottleneck_rank,
                b.phases[Phase::LocalCompute.index()].seconds * 1e3,
                b.comm_seconds() * 1e3,
                e.max_send_rank,
                e.ranks[e.max_send_rank].bytes_sent,
                e.send_imbalance()
            );
            // Dual-clock traces: the measured critical path, printed
            // right under the α–β prediction it should track.
            if e.wall_epoch_seconds > 0.0 {
                let wb = &e.ranks[e.wall_bottleneck_rank];
                let _ = writeln!(
                    out,
                    "    wall clock: {:.3} ms (rank {} critical: {:.3} ms compute / {:.3} ms \
                     comm-exposed) vs α–β model {:.3} ms",
                    e.wall_epoch_seconds * 1e3,
                    e.wall_bottleneck_rank,
                    wb.phases[Phase::LocalCompute.index()].wall_seconds * 1e3,
                    wb.wall_comm_seconds() * 1e3,
                    e.epoch_seconds * 1e3
                );
            }
            for p in PHASES {
                let r = e.phase_critical_rank[p.index()];
                let agg = &e.ranks[r].phases[p.index()];
                if agg.ops == 0 {
                    continue;
                }
                let _ = writeln!(
                    out,
                    "    {:<14} critical rank {:>3}: {:>10.3} ms  {:>12} B sent  {:>6} ops",
                    p.name(),
                    r,
                    agg.seconds * 1e3,
                    agg.bytes_sent,
                    agg.ops
                );
            }
            let retrans: u64 = e.ranks.iter().map(|r| r.retransmit_bytes).sum();
            if retrans > 0 {
                let _ = writeln!(
                    out,
                    "    retransmit overhead: {retrans} B (wire, not logical)"
                );
            }
        }
        out
    }
}

fn argmax_f64(it: impl Iterator<Item = f64>) -> usize {
    let mut best = (0usize, f64::MIN);
    for (i, v) in it.enumerate() {
        if v > best.1 {
            best = (i, v);
        }
    }
    best.0
}

fn argmax_u64(it: impl Iterator<Item = u64>) -> usize {
    let mut best = (0usize, 0u64);
    let mut first = true;
    for (i, v) in it.enumerate() {
        if first || v > best.1 {
            best = (i, v);
            first = false;
        }
    }
    best.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, SpanKind};
    use crate::recorder::RankTracer;

    /// Three ranks, two epochs; rank 2 is the skewed sender in both.
    fn skewed_trace() -> WorldTrace {
        let mut tracers: Vec<RankTracer> = (0..3).map(RankTracer::new).collect();
        for epoch in 0..2 {
            for (r, t) in tracers.iter_mut().enumerate() {
                t.set_epoch(epoch);
                t.begin_span(SpanKind::Epoch, Phase::Other);
                let bytes = 100 * (r as u64 + 1); // rank 2 sends 3x rank 0
                t.op(
                    EventKind::AllToAllV,
                    Phase::AllToAll,
                    None,
                    bytes,
                    100,
                    0,
                    bytes as f64 * 1e-6,
                );
                t.op(
                    EventKind::Compute,
                    Phase::LocalCompute,
                    None,
                    0,
                    0,
                    50,
                    1e-4,
                );
                t.end_span();
            }
        }
        WorldTrace::collect(tracers)
    }

    #[test]
    fn bottleneck_is_the_skewed_rank() {
        let report = BottleneckReport::from_trace(&skewed_trace());
        assert_eq!(report.epochs.len(), 2);
        for e in &report.epochs {
            assert_eq!(e.bottleneck_rank, 2);
            assert_eq!(e.max_send_rank, 2);
            assert_eq!(e.ranks[2].bytes_sent, 300);
            assert_eq!(e.phase_critical_rank[Phase::AllToAll.index()], 2);
            assert!((e.send_imbalance() - 1.5).abs() < 1e-12);
        }
        assert_eq!(report.dominant_bottleneck(), Some(2));
        // Epoch time equals the bottleneck rank's modeled total.
        let e0 = &report.epochs[0];
        assert!((e0.epoch_seconds - (300e-6 + 1e-4)).abs() < 1e-12);
    }

    #[test]
    fn render_names_the_bottleneck() {
        let s = BottleneckReport::from_trace(&skewed_trace()).render();
        assert!(s.contains("bottleneck rank 2"), "{s}");
        assert!(s.contains("dominant bottleneck: rank 2"), "{s}");
        assert!(s.contains("alltoall"), "{s}");
    }

    #[test]
    fn wall_attribution_rides_next_to_the_model() {
        let mut tracers: Vec<RankTracer> = (0..2)
            .map(|r| RankTracer::with_wall_anchor(r, std::time::Instant::now()))
            .collect();
        for (r, t) in tracers.iter_mut().enumerate() {
            t.set_epoch(0);
            t.begin_span(SpanKind::Epoch, Phase::Other);
            t.op(
                EventKind::AllToAllV,
                Phase::AllToAll,
                None,
                100 * (r as u64 + 1),
                100,
                0,
                1e-4,
            );
            t.op(
                EventKind::Compute,
                Phase::LocalCompute,
                None,
                0,
                0,
                50,
                1e-4,
            );
            t.end_span();
        }
        let report = BottleneckReport::from_trace(&WorldTrace::collect(tracers));
        let e = &report.epochs[0];
        assert!(e.wall_epoch_seconds > 0.0);
        assert!(e.ranks[e.wall_bottleneck_rank].wall_seconds >= e.ranks[0].wall_seconds);
        let s = report.render();
        assert!(s.contains("wall clock:"), "{s}");
        assert!(s.contains("vs α–β model"), "{s}");
        // Modeled-only traces keep the legacy report byte-shape.
        let legacy = BottleneckReport::from_trace(&skewed_trace()).render();
        assert!(!legacy.contains("wall clock:"), "{legacy}");
    }

    #[test]
    fn empty_trace_is_harmless() {
        let report = BottleneckReport::from_trace(&WorldTrace::collect(vec![]));
        assert!(report.epochs.is_empty());
        assert_eq!(report.dominant_bottleneck(), None);
        assert_eq!(report.total_seconds(), 0.0);
        assert!(report.render().contains("0 epoch(s)"));
    }
}
