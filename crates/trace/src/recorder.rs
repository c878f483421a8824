//! The per-rank recorder and the collected world trace.
//!
//! Each SPMD rank owns exactly one [`RankTracer`] — recording is a
//! plain `Vec` push of a `Copy` [`Event`] behind a single branch, with
//! no locks and no cross-thread traffic (the "global sink" is the
//! post-run collection into [`WorldTrace`], where per-rank buffers are
//! merged deterministically). The event buffer and the message-size
//! histogram are preallocated; steady-state recording performs no heap
//! allocation beyond the buffer's amortized doubling.
//!
//! Time is the rank's **modeled clock**: every recorded op advances a
//! per-rank cursor by its modeled duration, so events form a timeline
//! in the same currency the paper's epoch times are quoted in
//! (deterministic, unlike wall time).
//!
//! A tracer built with [`RankTracer::with_wall_anchor`] is *dual-clock*:
//! alongside the modeled cursor it keeps a wall-clock cursor measured
//! against a monotonic [`Instant`] anchor, stamping every event with
//! `t_wall`/`wall_dur` (seconds since the anchor). The modeled axis is
//! untouched — golden modeled-time traces from [`RankTracer::new`]
//! recorders stay byte-identical because absent wall fields (the NaN
//! sentinel) are never exported. Wall durations attribute *elapsed*
//! time: an op's `wall_dur` spans from the previous event's wall end to
//! now, so gaps (blocking waits, scheduling) are charged to the op that
//! ends them and per-rank wall timelines are gap-free and monotonic.

use std::time::Instant;

use crate::event::{Event, EventKind, SpanKind, NO_PARENT, NO_PEER};
use crate::metrics::Histogram;
use crate::phase::{Phase, PHASES};

/// Initial event-buffer capacity: enough for several epochs of a small
/// run without growth; large runs double amortized like any `Vec`.
const INITIAL_EVENTS: usize = 1024;

#[derive(Clone, Copy, Debug)]
struct OpenSpan {
    seq: u32,
    kind: SpanKind,
    phase: Phase,
    start: f64,
    epoch: i64,
    /// Wall-clock cursor at span open (NaN when modeled-only).
    wall_start: f64,
    // Direct-child accumulators (rolled up transitively at tree build).
    bytes_sent: u64,
    bytes_recv: u64,
    flops: u64,
}

/// Per-rank span/event recorder.
#[derive(Clone, Debug)]
pub struct RankTracer {
    rank: u32,
    epoch: i64,
    seq: u32,
    clock: f64,
    /// Monotonic reference for the wall-clock axis; `None` keeps the
    /// tracer modeled-only (the legacy golden-trace schema).
    wall_anchor: Option<Instant>,
    /// Wall end of the last recorded event, seconds since the anchor.
    wall_cursor: f64,
    stack: Vec<OpenSpan>,
    events: Vec<Event>,
    msg_sizes: Histogram,
}

impl RankTracer {
    /// A fresh modeled-only recorder for `rank`.
    pub fn new(rank: usize) -> Self {
        Self {
            rank: rank as u32,
            epoch: -1,
            seq: 0,
            clock: 0.0,
            wall_anchor: None,
            wall_cursor: 0.0,
            stack: Vec::with_capacity(8),
            events: Vec::with_capacity(INITIAL_EVENTS),
            msg_sizes: Histogram::pow2_bytes(),
        }
    }

    /// A dual-clock recorder: every event additionally carries
    /// `t_wall`/`wall_dur` measured against `anchor`. Pass the same
    /// anchor the transport layer timestamps against (e.g. the process
    /// epoch captured at connect time) so trace wall times and
    /// transport clock-offset estimates share one axis.
    pub fn with_wall_anchor(rank: usize, anchor: Instant) -> Self {
        let mut t = Self::new(rank);
        t.wall_cursor = anchor.elapsed().as_secs_f64();
        t.wall_anchor = Some(anchor);
        t
    }

    /// True when this recorder stamps the wall-clock axis.
    pub fn dual_clock(&self) -> bool {
        self.wall_anchor.is_some()
    }

    /// The rank's modeled-time cursor (seconds since rank start).
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// Current wall reading (seconds since the anchor), or NaN when
    /// modeled-only. Monotone non-decreasing across calls.
    fn wall_now(&self) -> f64 {
        match self.wall_anchor {
            Some(anchor) => anchor.elapsed().as_secs_f64().max(self.wall_cursor),
            None => f64::NAN,
        }
    }

    /// Events recorded so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Declares the current epoch (stamped on subsequent events).
    pub fn set_epoch(&mut self, epoch: usize) {
        self.epoch = epoch as i64;
    }

    fn next_seq(&mut self) -> u32 {
        let s = self.seq;
        self.seq += 1;
        s
    }

    fn parent(&self) -> u32 {
        self.stack.last().map_or(NO_PARENT, |s| s.seq)
    }

    /// Records one completed operation and advances the modeled clock
    /// by `dur`.
    #[allow(clippy::too_many_arguments)]
    pub fn op(
        &mut self,
        kind: EventKind,
        phase: Phase,
        peer: Option<usize>,
        bytes_sent: u64,
        bytes_recv: u64,
        flops: u64,
        dur: f64,
    ) {
        debug_assert!(!kind.is_span(), "use begin_span/end_span for spans");
        let seq = self.next_seq();
        // The op ends now; it started when the previous event ended, so
        // blocking gaps are charged to the op that waited through them.
        let (t_wall, wall_dur) = if self.wall_anchor.is_some() {
            let now = self.wall_now();
            let pair = (self.wall_cursor, now - self.wall_cursor);
            self.wall_cursor = now;
            pair
        } else {
            (f64::NAN, f64::NAN)
        };
        let ev = Event {
            seq,
            parent: self.parent(),
            rank: self.rank,
            epoch: self.epoch,
            kind,
            phase,
            peer: peer.map_or(NO_PEER, |p| p as i32),
            bytes_sent,
            bytes_recv,
            flops,
            t_start: self.clock,
            dur,
            t_wall,
            wall_dur,
        };
        self.clock += dur;
        if let Some(top) = self.stack.last_mut() {
            top.bytes_sent += bytes_sent;
            top.bytes_recv += bytes_recv;
            top.flops += flops;
        }
        self.events.push(ev);
    }

    /// Records a network-chaos fault activation (sever / cut / refused
    /// dial) on the wall-clock axis. Chaos faults fire on the
    /// transport's background threads and are exported when the rank
    /// body finishes, so the event is stamped at the fault's **own**
    /// recorded wall offset — which may precede the stamps of events
    /// recorded earlier in `seq` order. Zero-duration on both axes: a
    /// fault activation is a point marker, and the time it cost the run
    /// shows up in the ops that waited through it. No-op on a
    /// modeled-only recorder (chaos has no modeled-axis meaning).
    pub fn chaos_event(&mut self, kind: EventKind, peer: usize, wall_s: f64) {
        debug_assert!(
            matches!(
                kind,
                EventKind::ChaosSever | EventKind::ChaosCut | EventKind::ChaosRefused
            ),
            "chaos_event records chaos kinds only"
        );
        if self.wall_anchor.is_none() {
            return;
        }
        let seq = self.next_seq();
        self.events.push(Event {
            seq,
            parent: NO_PARENT,
            rank: self.rank,
            epoch: self.epoch,
            kind,
            phase: Phase::Retransmit,
            peer: peer as i32,
            bytes_sent: 0,
            bytes_recv: 0,
            flops: 0,
            t_start: self.clock,
            dur: 0.0,
            t_wall: wall_s,
            wall_dur: 0.0,
        });
    }

    /// Records one wire message's size into the message-size histogram
    /// (per transmission, including retransmits — finer grained than op
    /// events, which aggregate e.g. a whole all-to-allv).
    pub fn message(&mut self, bytes: u64) {
        self.msg_sizes.record(bytes);
    }

    /// Opens a structural span. Its `seq` is reserved now, so children
    /// sort after it; the event is emitted by [`RankTracer::end_span`].
    pub fn begin_span(&mut self, kind: SpanKind, phase: Phase) {
        let seq = self.next_seq();
        // A span's wall interval covers its children: it opens where the
        // previous event ended, not at an arbitrary "now".
        let wall_start = if self.wall_anchor.is_some() {
            self.wall_cursor
        } else {
            f64::NAN
        };
        self.stack.push(OpenSpan {
            seq,
            kind,
            phase,
            start: self.clock,
            epoch: self.epoch,
            wall_start,
            bytes_sent: 0,
            bytes_recv: 0,
            flops: 0,
        });
    }

    /// Closes the innermost open span, emitting its event. The span's
    /// byte/flop fields are its *direct children's* sums; use
    /// [`WorldTrace::span_tree`] for transitive rollups.
    ///
    /// # Panics
    /// Panics if no span is open.
    pub fn end_span(&mut self) {
        let span = self.stack.pop().expect("end_span without begin_span");
        let (t_wall, wall_dur) = if self.wall_anchor.is_some() {
            let now = self.wall_now();
            self.wall_cursor = now;
            (span.wall_start, now - span.wall_start)
        } else {
            (f64::NAN, f64::NAN)
        };
        let ev = Event {
            seq: span.seq,
            parent: self.parent(),
            rank: self.rank,
            // A span belongs to the epoch it started in (set_epoch may
            // have advanced inside an outer span).
            epoch: span.epoch,
            kind: EventKind::Span(span.kind),
            phase: span.phase,
            peer: NO_PEER,
            bytes_sent: span.bytes_sent,
            bytes_recv: span.bytes_recv,
            flops: span.flops,
            t_start: span.start,
            dur: self.clock - span.start,
            t_wall,
            wall_dur,
        };
        // Propagate direct sums one level up so every ancestor's direct
        // total eventually includes nested op traffic exactly once.
        if let Some(top) = self.stack.last_mut() {
            top.bytes_sent += span.bytes_sent;
            top.bytes_recv += span.bytes_recv;
            top.flops += span.flops;
        }
        self.events.push(ev);
    }

    /// Open-span depth (0 at top level).
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Consumes the tracer, returning its events (unsorted emission
    /// order; sort by `seq` for pre-order) and message-size histogram.
    ///
    /// # Panics
    /// Panics if spans are still open (unbalanced instrumentation).
    pub fn finish(self) -> (Vec<Event>, Histogram) {
        assert!(
            self.stack.is_empty(),
            "rank {} finished with {} unclosed span(s)",
            self.rank,
            self.stack.len()
        );
        (self.events, self.msg_sizes)
    }
}

/// Per-(rank, epoch, phase) aggregate computed from op events.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseAgg {
    /// Op events aggregated.
    pub ops: u64,
    /// Logical bytes sent (retransmit wire overhead excluded — it goes
    /// to [`PhaseAgg::retransmit_bytes`] so logical volumes stay
    /// comparable with `RankStats`).
    pub bytes_sent: u64,
    /// Logical bytes received.
    pub bytes_recv: u64,
    /// Extra wire bytes from fault-injected retransmissions.
    pub retransmit_bytes: u64,
    /// Flops executed.
    pub flops: u64,
    /// Modeled seconds (retransmission overhead included).
    pub seconds: f64,
    /// Measured wall-clock seconds (dual-clock traces only; stays 0.0
    /// for modeled-only traces).
    pub wall_seconds: f64,
}

impl PhaseAgg {
    fn absorb(&mut self, e: &Event) {
        if e.wall_dur.is_finite() {
            self.wall_seconds += e.wall_dur;
        }
        self.ops += 1;
        if e.kind == EventKind::Retransmit {
            self.retransmit_bytes += e.bytes_sent;
        } else {
            self.bytes_sent += e.bytes_sent;
            self.bytes_recv += e.bytes_recv;
        }
        self.flops += e.flops;
        self.seconds += e.dur;
    }
}

/// One node of a reconstructed span tree.
#[derive(Clone, Debug)]
pub struct SpanNode {
    /// The span's own event.
    pub event: Event,
    /// The span's label.
    pub kind: SpanKind,
    /// Nested spans, in start order.
    pub children: Vec<SpanNode>,
    /// Transitive byte total (own ops + all descendants) sent.
    pub total_bytes_sent: u64,
    /// Transitive byte total received.
    pub total_bytes_recv: u64,
}

/// A complete collected trace: every rank's events plus the merged
/// message-size histogram. This is the "global sink" — built once,
/// after the world joins, from per-rank buffers (deterministic: events
/// are ordered by `(rank, seq)`).
#[derive(Clone, Debug)]
pub struct WorldTrace {
    /// Per-rank events, sorted by `seq` (pre-order over spans).
    pub per_rank: Vec<Vec<Event>>,
    /// Merged message-size distribution (per wire transmission).
    pub msg_sizes: Histogram,
}

impl WorldTrace {
    /// Assembles a world trace from finished per-rank tracers.
    pub fn collect(tracers: Vec<RankTracer>) -> Self {
        let mut per_rank = Vec::with_capacity(tracers.len());
        let mut msg_sizes = Histogram::pow2_bytes();
        for t in tracers {
            let (mut events, hist) = t.finish();
            events.sort_by_key(|e| e.seq);
            msg_sizes.merge(&hist);
            per_rank.push(events);
        }
        Self {
            per_rank,
            msg_sizes,
        }
    }

    /// World size.
    pub fn p(&self) -> usize {
        self.per_rank.len()
    }

    /// Total events across ranks.
    pub fn len(&self) -> usize {
        self.per_rank.iter().map(Vec::len).sum()
    }

    /// True when no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.per_rank.iter().all(Vec::is_empty)
    }

    /// True when any event carries the wall-clock axis (dual-clock
    /// schema). Per-recorder stamping is all-or-nothing, so a mixed
    /// trace only arises from merging dual-clock and legacy files.
    pub fn has_wall(&self) -> bool {
        self.per_rank.iter().flatten().any(Event::has_wall)
    }

    /// Highest epoch stamped on any event (−1 when none declared).
    pub fn max_epoch(&self) -> i64 {
        self.per_rank
            .iter()
            .flatten()
            .map(|e| e.epoch)
            .max()
            .unwrap_or(-1)
    }

    /// Per-phase aggregates of one rank's **op** events (spans excluded
    /// so nothing double-counts), optionally filtered to one epoch.
    pub fn phase_aggregates(&self, rank: usize, epoch: Option<i64>) -> [PhaseAgg; PHASES.len()] {
        let mut out = [PhaseAgg::default(); PHASES.len()];
        for e in &self.per_rank[rank] {
            if e.kind.is_span() {
                continue;
            }
            if let Some(wanted) = epoch {
                if e.epoch != wanted {
                    continue;
                }
            }
            out[e.phase.index()].absorb(e);
        }
        out
    }

    /// Sum of logical bytes sent across all ranks in one phase
    /// (comparable with `WorldStats::phase_bytes_total`). Retransmit
    /// events are excluded: their bytes are wire overhead, not logical
    /// volume.
    pub fn phase_bytes_total(&self, phase: Phase) -> u64 {
        (0..self.p())
            .map(|r| {
                self.per_rank[r]
                    .iter()
                    .filter(|e| {
                        !e.kind.is_span() && e.kind != EventKind::Retransmit && e.phase == phase
                    })
                    .map(|e| e.bytes_sent)
                    .sum::<u64>()
            })
            .sum()
    }

    /// Reconstructs one rank's span tree (roots in start order). Span
    /// events already carry transitive byte/flop rollups (the recorder
    /// propagates a closing span's sums to its parent), so node totals
    /// come straight off the event.
    pub fn span_tree(&self, rank: usize) -> Vec<SpanNode> {
        fn attach(roots: &mut Vec<SpanNode>, path: &mut [SpanNode], mut done: SpanNode) {
            done.children.sort_by(|a, b| {
                a.event
                    .t_start
                    .partial_cmp(&b.event.t_start)
                    .unwrap()
                    .then(a.event.seq.cmp(&b.event.seq))
            });
            match path.last_mut() {
                Some(parent) => parent.children.push(done),
                None => roots.push(done),
            }
        }

        let mut roots = Vec::new();
        let mut path: Vec<SpanNode> = Vec::new();
        // Events are in seq order = pre-order; rebuild the open path by
        // parent pointers, closing entries as we move past them.
        for e in &self.per_rank[rank] {
            if let EventKind::Span(kind) = e.kind {
                while let Some(top) = path.last() {
                    if top.event.seq == e.parent {
                        break;
                    }
                    let done = path.pop().unwrap();
                    attach(&mut roots, &mut path, done);
                }
                path.push(SpanNode {
                    event: *e,
                    kind,
                    children: Vec::new(),
                    total_bytes_sent: e.bytes_sent,
                    total_bytes_recv: e.bytes_recv,
                });
            }
        }
        while let Some(done) = path.pop() {
            attach(&mut roots, &mut path, done);
        }
        roots
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(t: &mut RankTracer, phase: Phase, sent: u64, dur: f64) {
        t.op(EventKind::Send, phase, Some(1), sent, 0, 0, dur);
    }

    #[test]
    fn clock_advances_by_modeled_duration() {
        let mut t = RankTracer::new(0);
        op(&mut t, Phase::P2p, 8, 1.5);
        op(&mut t, Phase::P2p, 8, 0.5);
        assert_eq!(t.clock(), 2.0);
        let (events, _) = t.finish();
        assert_eq!(events[0].t_start, 0.0);
        assert_eq!(events[1].t_start, 1.5);
    }

    #[test]
    fn spans_nest_and_accumulate() {
        let mut t = RankTracer::new(0);
        t.set_epoch(0);
        t.begin_span(SpanKind::Epoch, Phase::Other);
        t.begin_span(SpanKind::Forward, Phase::Other);
        op(&mut t, Phase::AllToAll, 100, 1.0);
        t.end_span();
        t.begin_span(SpanKind::Backward, Phase::Other);
        op(&mut t, Phase::AllReduce, 40, 2.0);
        t.end_span();
        t.end_span();
        let tr = WorldTrace::collect(vec![t]);
        let roots = tr.span_tree(0);
        assert_eq!(roots.len(), 1);
        let epoch = &roots[0];
        assert_eq!(epoch.kind, SpanKind::Epoch);
        assert_eq!(epoch.children.len(), 2);
        assert_eq!(epoch.children[0].kind, SpanKind::Forward);
        assert_eq!(epoch.children[1].kind, SpanKind::Backward);
        // Transitive rollup: epoch carries both children's bytes.
        assert_eq!(epoch.total_bytes_sent, 140);
        assert_eq!(epoch.event.dur, 3.0);
        assert_eq!(epoch.children[1].event.t_start, 1.0);
    }

    #[test]
    fn seq_is_preorder() {
        let mut t = RankTracer::new(0);
        t.begin_span(SpanKind::Epoch, Phase::Other);
        op(&mut t, Phase::P2p, 1, 0.0);
        t.end_span();
        let tr = WorldTrace::collect(vec![t]);
        let evs = &tr.per_rank[0];
        // Span (seq 0) sorts before its child op (seq 1).
        assert!(matches!(evs[0].kind, EventKind::Span(SpanKind::Epoch)));
        assert_eq!(evs[1].kind, EventKind::Send);
        assert_eq!(evs[1].parent, evs[0].seq);
    }

    #[test]
    fn phase_aggregates_exclude_spans_and_filter_epochs() {
        let mut t = RankTracer::new(0);
        t.set_epoch(0);
        t.begin_span(SpanKind::Epoch, Phase::Other);
        op(&mut t, Phase::P2p, 10, 1.0);
        t.end_span();
        t.set_epoch(1);
        t.begin_span(SpanKind::Epoch, Phase::Other);
        op(&mut t, Phase::P2p, 30, 1.0);
        t.end_span();
        let tr = WorldTrace::collect(vec![t]);
        let all = tr.phase_aggregates(0, None);
        assert_eq!(all[Phase::P2p.index()].bytes_sent, 40);
        let e1 = tr.phase_aggregates(0, Some(1));
        assert_eq!(e1[Phase::P2p.index()].bytes_sent, 30);
        assert_eq!(e1[Phase::P2p.index()].ops, 1);
        assert_eq!(tr.phase_bytes_total(Phase::P2p), 40);
        assert_eq!(tr.max_epoch(), 1);
    }

    #[test]
    fn retransmits_not_counted_as_logical_volume() {
        let mut t = RankTracer::new(0);
        t.op(EventKind::Send, Phase::P2p, Some(1), 8, 0, 0, 1.0);
        t.op(EventKind::Retransmit, Phase::P2p, Some(1), 8, 0, 0, 1.0);
        let tr = WorldTrace::collect(vec![t]);
        assert_eq!(tr.phase_bytes_total(Phase::P2p), 8);
        // But the aggregate clock includes the retransmission's time,
        // and the wire overhead is visible in its own field.
        let agg = tr.phase_aggregates(0, None);
        assert_eq!(agg[Phase::P2p.index()].seconds, 2.0);
        assert_eq!(agg[Phase::P2p.index()].bytes_sent, 8);
        assert_eq!(agg[Phase::P2p.index()].retransmit_bytes, 8);
    }

    #[test]
    #[should_panic(expected = "unclosed span")]
    fn unbalanced_spans_are_rejected() {
        let mut t = RankTracer::new(3);
        t.begin_span(SpanKind::Epoch, Phase::Other);
        t.finish();
    }

    #[test]
    fn modeled_only_recorder_carries_no_wall_axis() {
        let mut t = RankTracer::new(0);
        assert!(!t.dual_clock());
        t.begin_span(SpanKind::Epoch, Phase::Other);
        op(&mut t, Phase::P2p, 8, 1.0);
        t.end_span();
        let tr = WorldTrace::collect(vec![t]);
        assert!(!tr.has_wall());
        for e in tr.per_rank[0].iter() {
            assert!(e.t_wall.is_nan() && e.wall_dur.is_nan());
        }
        let agg = tr.phase_aggregates(0, None);
        assert_eq!(agg[Phase::P2p.index()].wall_seconds, 0.0);
    }

    #[test]
    fn dual_clock_walls_are_monotonic_and_span_covers_children() {
        let mut t = RankTracer::with_wall_anchor(0, Instant::now());
        assert!(t.dual_clock());
        t.begin_span(SpanKind::Epoch, Phase::Other);
        op(&mut t, Phase::P2p, 8, 1.0);
        op(&mut t, Phase::P2p, 8, 1.0);
        t.end_span();
        let tr = WorldTrace::collect(vec![t]);
        assert!(tr.has_wall());
        let evs = &tr.per_rank[0];
        let (span, a, b) = (&evs[0], &evs[1], &evs[2]);
        for e in [span, a, b] {
            assert!(e.has_wall());
            assert!(e.wall_dur >= 0.0);
        }
        // Per-rank wall timelines are gap-free: each op starts where
        // the previous ended (up to fp rounding).
        assert!((b.t_wall - a.wall_end()).abs() < 1e-12);
        // The span's interval covers its children.
        assert!(span.t_wall <= a.t_wall);
        assert!(span.wall_end() >= b.wall_end() - 1e-12);
        // And the modeled axis is what it always was.
        assert_eq!(a.t_start, 0.0);
        assert_eq!(b.t_start, 1.0);
        let agg = tr.phase_aggregates(0, None);
        assert!(agg[Phase::P2p.index()].wall_seconds >= 0.0);
    }

    #[test]
    fn message_histogram_merges_across_ranks() {
        let mut a = RankTracer::new(0);
        let mut b = RankTracer::new(1);
        a.message(100);
        b.message(1 << 20);
        let tr = WorldTrace::collect(vec![a, b]);
        assert_eq!(tr.msg_sizes.count(), 2);
        assert_eq!(tr.msg_sizes.max(), 1 << 20);
    }
}
