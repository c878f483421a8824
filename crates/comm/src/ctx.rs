//! The per-rank communication handle.
//!
//! A `RankCtx` is what each SPMD rank closure receives: point-to-point
//! messaging plus the three collectives the paper's algorithms use. Every
//! operation records volumes and cost-model time into the rank's
//! [`RankStats`].
//!
//! ## Pricing conventions
//!
//! * `send`/`recv` (phase `P2p`): each side pays `α + bytes·β` for its own
//!   direction of traffic — a rank's modeled time reflects the bytes
//!   crossing *its* NIC.
//! * `alltoallv` (phase `AllToAll`): priced once per call as
//!   `(P−1)·α + max(sent, received)·β`, matching the paper's §4.1 bound.
//! * `bcast` (phase `Bcast`): priced on every participant as a pipelined
//!   binomial tree.
//! * `allreduce_sum` (phase `AllReduce`): priced on every group member
//!   with the ring-allreduce formula; recorded bytes are the logical
//!   buffer size.
//! * Execution topology (who moves bytes through which channel) is
//!   whatever is simplest — costs always come from the model, so the
//!   simulator's internal shortcuts never leak into results.
//!
//! ## Robustness
//!
//! Blocking receives and barriers are watched: instead of hanging forever
//! on a protocol bug, a rank whose wait exceeds the world timeout panics
//! with a structured [`crate::error::DeadlockReport`] that
//! [`crate::ThreadWorld::try_run`] converts into
//! [`crate::WorldError::Deadlock`].
//!
//! Every frame carries a reliable-transport header: a per-channel
//! sequence number and [`Payload::checksum`] computed at send time —
//! stamped and verified here and nowhere else, on every backend. The receiver verifies the
//! checksum (discarding damaged frames and waiting for the
//! retransmission), discards duplicates by sequence number, and treats
//! an out-of-order future frame as a transport violation. The sender
//! retries failed
//! attempts under capped exponential backoff on the modeled-time axis;
//! all retry overhead — backoff waits, retransmitted wire bytes,
//! receiver time wasted on discarded frames — is charged to
//! [`Phase::Retransmit`], never to the op's own phase, so
//! `bytes_sent`/`bytes_recv` stay the logical communication volumes the
//! paper's tables report. Injected delays are the one exception: a slow
//! link is part of the op's real cost and stays on the op's phase.

use std::sync::Arc;
use std::time::Instant;

use gnn_trace::{EventKind, RankTracer, SpanKind};

use crate::cost::CostModel;
use crate::error::{unwind_with, CrashPanic, DeadlockPanic, PeerHungUp, WaitKind};
use crate::fault::FaultInjector;
use crate::msg::{Msg, Payload};
use crate::pool::PayloadPool;
use crate::stats::{Phase, RankStats};
use crate::transport::{RecvOutcome, Transport};
use crate::watchdog::Watchdog;

/// Message tags, one per operation kind; mismatches indicate an SPMD
/// protocol bug and fail fast.
pub(crate) mod tag {
    pub const P2P: u8 = 1;
    pub const BCAST: u8 = 2;
    pub const ALLTOALLV: u8 = 3;
    pub const REDUCE_UP: u8 = 4;
    pub const REDUCE_DOWN: u8 = 5;
    pub const GATHER: u8 = 6;
}

/// Human-readable tag name for diagnostics.
pub(crate) fn tag_name(t: u8) -> &'static str {
    match t {
        tag::P2P => "P2P",
        tag::BCAST => "BCAST",
        tag::ALLTOALLV => "ALLTOALLV",
        tag::REDUCE_UP => "REDUCE_UP",
        tag::REDUCE_DOWN => "REDUCE_DOWN",
        tag::GATHER => "GATHER",
        _ => "UNKNOWN",
    }
}

/// Inert: names the retired pipelined SpMM schedule, so code that still
/// writes `OverlapConfig::off()` compiles; ROADMAP item 1(b) deletes it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OverlapConfig;

impl OverlapConfig {
    /// The one schedule there is: blocking.
    pub fn off() -> Self {
        Self
    }
}

/// Per-rank handle passed to the SPMD closure by
/// [`crate::world::ThreadWorld::run`].
pub struct RankCtx {
    rank: usize,
    p: usize,
    model: CostModel,
    /// The pluggable link layer (thread channels or real sockets); see
    /// [`crate::transport`].
    transport: Box<dyn Transport>,
    /// The world's deadlock watchdog: timeout plus wait-for registry.
    watchdog: Arc<Watchdog>,
    injector: Option<Arc<FaultInjector>>,
    /// Trainer-reported epoch (fault-plan coordinates + diagnostics).
    epoch: Option<usize>,
    /// Operation counter within the current epoch (fault-plan coordinate).
    op_in_epoch: u64,
    /// Per-destination next sequence number (monotone across the whole
    /// run, never reset — duplicate suppression depends on it).
    next_seq: Vec<u64>,
    /// Per-source next expected sequence number.
    expect_seq: Vec<u64>,
    stats: RankStats,
    /// Structured event recorder; `None` (a single branch per op) when
    /// tracing is off, so the steady-state path stays allocation-free.
    tracer: Option<Box<RankTracer>>,
    /// The world's payload pool (shared with every other rank thread, or
    /// with this rank process's reader threads and replay queue).
    pool: Arc<PayloadPool>,
    /// All-reduce root scratch: the parts received going up, whose
    /// storage carries the sums back down.
    parts: Vec<Vec<f64>>,
}

impl RankCtx {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        rank: usize,
        p: usize,
        model: CostModel,
        transport: Box<dyn Transport>,
        watchdog: Arc<Watchdog>,
        injector: Option<Arc<FaultInjector>>,
        tracer: Option<Box<RankTracer>>,
        pool: Arc<PayloadPool>,
    ) -> Self {
        Self {
            rank,
            p,
            model,
            transport,
            watchdog,
            injector,
            epoch: None,
            op_in_epoch: 0,
            next_seq: vec![0; p],
            expect_seq: vec![0; p],
            stats: RankStats::default(),
            tracer,
            pool,
            parts: Vec::new(),
        }
    }

    /// This rank's id in `0..p`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// World size.
    pub fn p(&self) -> usize {
        self.p
    }

    /// The cost model pricing this run.
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    /// Read access to the accumulated statistics.
    pub fn stats(&self) -> &RankStats {
        &self.stats
    }

    /// The world's payload pool (its counters are what the closed-loop
    /// tests assert on).
    pub fn payload_pool(&self) -> &PayloadPool {
        &self.pool
    }

    /// An empty `Vec<f64>` with room for `cap` elements out of this
    /// rank's lane of the world's pool, to pack an outbound payload into.
    pub fn take_f64(&self, cap: usize) -> Vec<f64> {
        self.pool.take_f64(self.rank, cap)
    }

    /// An empty pooled `Vec<u32>` with room for `cap` elements.
    pub fn take_u32(&self, cap: usize) -> Vec<u32> {
        self.pool.take_u32(self.rank, cap)
    }

    /// Sends the storage of a payload received from rank `from` home: into
    /// `from`'s lane of the world's pool, where its next pack finds it.
    pub fn recycle(&self, from: usize, payload: Payload) {
        self.pool.recycle(from, payload);
    }

    /// `buf` copied into an `F64` payload from this rank's lane.
    pub fn pooled_f64(&self, buf: &[f64]) -> Payload {
        let mut copy = self.take_f64(buf.len());
        copy.extend_from_slice(buf);
        Payload::F64(copy)
    }

    /// A copy of `payload` in storage from this rank's lane.
    fn pooled_copy(&self, payload: &Payload) -> Payload {
        let ids = |idx: &[u32]| {
            let mut copy = self.take_u32(idx.len());
            copy.extend_from_slice(idx);
            copy
        };
        match payload {
            Payload::Empty => Payload::Empty,
            Payload::F64(data) => self.pooled_f64(data),
            Payload::U32(idx) => Payload::U32(ids(idx)),
            Payload::Rows { idx, data } => Payload::Rows {
                idx: ids(idx),
                data: self.pooled_f64(data).into_f64(),
            },
        }
    }

    /// Declares the start of training epoch `e`. Gives crash faults their
    /// `(epoch, op)` coordinate system and tags deadlock reports with the
    /// phase of training they occurred in.
    pub fn set_epoch(&mut self, e: usize) {
        self.epoch = Some(e);
        self.op_in_epoch = 0;
        if let Some(t) = self.tracer.as_deref_mut() {
            t.set_epoch(e);
        }
        self.maybe_crash();
    }

    /// The epoch last declared via [`RankCtx::set_epoch`].
    pub fn epoch(&self) -> Option<usize> {
        self.epoch
    }

    pub(crate) fn into_parts(self) -> (RankStats, Option<Box<RankTracer>>) {
        (self.stats, self.tracer)
    }

    /// True when this rank is recording a structured trace.
    pub fn tracing(&self) -> bool {
        self.tracer.is_some()
    }

    /// Opens a structural trace span (epoch, forward, SpMM, …). A no-op
    /// (one branch) when tracing is off. Every `span_begin` must be
    /// matched by a [`RankCtx::span_end`] on all control-flow paths.
    pub fn span_begin(&mut self, kind: SpanKind, phase: Phase) {
        if let Some(t) = self.tracer.as_deref_mut() {
            t.begin_span(kind, phase);
        }
    }

    /// Closes the innermost open trace span. No-op when tracing is off.
    pub fn span_end(&mut self) {
        if let Some(t) = self.tracer.as_deref_mut() {
            t.end_span();
        }
    }

    /// Records one completed op into the tracer (no-op when off).
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn trace_op(
        &mut self,
        kind: EventKind,
        phase: Phase,
        peer: Option<usize>,
        bytes_sent: u64,
        bytes_recv: u64,
        flops: u64,
        dur: f64,
    ) {
        if let Some(t) = self.tracer.as_deref_mut() {
            t.op(kind, phase, peer, bytes_sent, bytes_recv, flops, dur);
        }
    }

    /// Advances the per-epoch op counter and fires any due crash fault.
    fn op_tick(&mut self) {
        self.op_in_epoch += 1;
        self.maybe_crash();
    }

    fn maybe_crash(&mut self) {
        if let Some(inj) = &self.injector {
            if inj.crash_due(self.rank, self.epoch, self.op_in_epoch) {
                unwind_with(CrashPanic {
                    rank: self.rank,
                    epoch: self.epoch,
                    op: self.op_in_epoch,
                });
            }
        }
    }

    /// Link-layer send: retries under the injector's per-attempt verdicts
    /// (drop/corrupt re-rolled each attempt, capped exponential backoff on
    /// the modeled clock) until a clean frame is queued. All retry
    /// overhead is charged to [`Phase::Retransmit`]; injected link delay
    /// stays on the op's own `phase`.
    fn raw_send(&mut self, dst: usize, tag: u8, payload: Payload, phase: Phase) {
        let seq = self.next_seq[dst];
        self.next_seq[dst] += 1;
        let bytes = payload.bytes();
        let checksum = payload.checksum();
        let mut duplicate = false;
        if let Some(inj) = self.injector.clone() {
            let mut extra = 0.0;
            let mut wire_overhead = 0u64;
            let mut overhead_frames = 0u64;
            let mut attempt: u32 = 0;
            loop {
                let fate = inj.transmit_fate(self.rank, dst, seq, attempt);
                if fate.delay_seconds > 0.0 {
                    // A slow link delays the message once; that is part of
                    // the op's real cost, not retry overhead.
                    let f = &mut self.stats.faults;
                    f.delays += 1;
                    f.delay_seconds += fate.delay_seconds;
                    self.stats.phase_mut(phase).modeled_seconds += fate.delay_seconds;
                    self.trace_op(
                        EventKind::Retransmit,
                        phase,
                        Some(dst),
                        0,
                        0,
                        0,
                        fate.delay_seconds,
                    );
                }
                if fate.dropped || fate.corrupted {
                    {
                        let f = &mut self.stats.faults;
                        if fate.dropped {
                            f.drops += 1;
                        } else {
                            f.corruptions += 1;
                        }
                        f.retries += 1;
                    }
                    if fate.corrupted {
                        // The frame reaches the receiver bit-flipped; the
                        // checksum (computed pre-flight) exposes the
                        // damage end to end. An Empty payload has no bits
                        // to flip, so the header checksum is mangled
                        // instead.
                        let mut damaged = payload.clone();
                        let flipped = damaged.flip_bit(seq ^ ((attempt as u64) << 32));
                        let sum = if flipped { checksum } else { !checksum };
                        self.push(
                            dst,
                            Msg {
                                tag,
                                seq,
                                checksum: sum,
                                payload: damaged,
                            },
                        );
                    }
                    // Timeout + NACK round trip, then the wire time of the
                    // retransmission itself.
                    extra += inj.plan().backoff_seconds(attempt) + self.model.p2p(bytes);
                    wire_overhead += bytes;
                    overhead_frames += 1;
                    attempt += 1;
                    continue;
                }
                duplicate = fate.duplicated;
                if duplicate {
                    // Spurious retransmit: the good frame goes out twice.
                    self.stats.faults.duplicates += 1;
                    extra += self.model.p2p(bytes);
                    wire_overhead += bytes;
                    overhead_frames += 1;
                }
                break;
            }
            if extra > 0.0 || wire_overhead > 0 {
                let c = self.stats.phase_mut(Phase::Retransmit);
                c.ops += overhead_frames;
                c.bytes_sent += wire_overhead;
                c.modeled_seconds += extra;
                self.stats.faults.retransmit_bytes += wire_overhead;
                self.trace_op(
                    EventKind::Retransmit,
                    Phase::Retransmit,
                    Some(dst),
                    wire_overhead,
                    0,
                    0,
                    extra,
                );
                if let Some(t) = self.tracer.as_deref_mut() {
                    // Each overhead frame is one more wire transmission.
                    for _ in 0..overhead_frames {
                        t.message(bytes);
                    }
                }
            }
        }
        if let Some(t) = self.tracer.as_deref_mut() {
            t.message(bytes);
        }
        let msg = Msg {
            tag,
            seq,
            checksum,
            payload,
        };
        let dup = duplicate.then(|| msg.clone());
        self.push(dst, msg);
        if let Some(d) = dup {
            self.push(dst, d);
        }
    }

    fn push(&mut self, dst: usize, msg: Msg) {
        let tag = msg.tag;
        if self.transport.send(dst, msg).is_err() {
            let doing = format!("— cannot deliver a {} message", tag_name(tag));
            self.peer_hung_up(dst, doing);
        }
    }

    /// A peer's channel closed: it is gone, and so is the world.
    fn peer_hung_up(&self, peer: usize, waiting_for: String) -> ! {
        let rank = self.rank;
        unwind_with(PeerHungUp {
            rank,
            peer,
            waiting_for,
        })
    }

    /// One step of the reliable-transport receive state machine: decides
    /// the fate of a frame pulled off `src`'s channel. Returns the frame
    /// when it is the next in-order, checksum-clean delivery; `None` when
    /// it was consumed by the protocol (detected corruption, duplicate).
    fn transport_accept(&mut self, src: usize, frame: Msg) -> Option<Msg> {
        if frame.payload.checksum() != frame.checksum {
            // In-flight corruption caught end to end: pay for the
            // useless transfer, wait for the retransmit.
            self.stats.faults.corruptions_detected += 1;
            let waste = self.model.p2p(frame.payload.bytes());
            let c = self.stats.phase_mut(Phase::Retransmit);
            c.ops += 1;
            c.modeled_seconds += waste;
            self.trace_op(
                EventKind::Retransmit,
                Phase::Retransmit,
                Some(src),
                0,
                0,
                0,
                waste,
            );
            None
        } else if frame.seq < self.expect_seq[src] {
            // Duplicate of a frame already delivered (spurious
            // retransmit): discard by sequence number.
            self.stats.faults.duplicates_discarded += 1;
            let waste = self.model.p2p(frame.payload.bytes());
            let c = self.stats.phase_mut(Phase::Retransmit);
            c.ops += 1;
            c.modeled_seconds += waste;
            self.trace_op(
                EventKind::Retransmit,
                Phase::Retransmit,
                Some(src),
                0,
                0,
                0,
                waste,
            );
            None
        } else if frame.seq > self.expect_seq[src] {
            panic!(
                "rank {}: transport violation — frame {} from rank {src} arrived \
                 before frame {} (reordered delivery)",
                self.rank, frame.seq, self.expect_seq[src]
            );
        } else {
            self.expect_seq[src] += 1;
            Some(frame)
        }
    }

    /// Link-layer receive: watched by the deadlock watchdog. Runs the
    /// reliable-transport state machine — end-to-end checksum
    /// verification, duplicate suppression by sequence number — and
    /// unwinds with [`PeerHungUp`] when the peer's channel closes.
    fn raw_recv(&mut self, src: usize, expect_tag: u8) -> Payload {
        let deadline = Instant::now() + self.watchdog.timeout();
        self.watchdog.begin(
            self.rank,
            WaitKind::Recv,
            Some(src),
            Some(expect_tag),
            self.epoch,
        );
        let msg = loop {
            let now = Instant::now();
            if now >= deadline {
                // Leave our wait registered so the report includes us.
                unwind_with(DeadlockPanic(self.watchdog.report(self.rank)));
            }
            match self.transport.recv_deadline(src, deadline - now) {
                RecvOutcome::Frame(frame) => {
                    if let Some(msg) = self.transport_accept(src, frame) {
                        break msg;
                    }
                }
                RecvOutcome::TimedOut => {}
                RecvOutcome::Disconnected => {
                    self.watchdog.end(self.rank);
                    let doing = format!("while waiting for a {} message", tag_name(expect_tag));
                    self.peer_hung_up(src, doing);
                }
            }
        };
        self.watchdog.end(self.rank);
        assert_eq!(
            msg.tag, expect_tag,
            "rank {}: protocol mismatch receiving from {} (got tag {}, expected {})",
            self.rank, src, msg.tag, expect_tag
        );
        msg.payload
    }

    /// Non-blocking point-to-point send (phase `P2p`). Pays
    /// `α + bytes·β` on this rank.
    pub fn send(&mut self, dst: usize, payload: Payload) {
        assert_ne!(dst, self.rank, "self-sends indicate an algorithm bug");
        self.op_tick();
        let bytes = payload.bytes();
        let dur = self.model.p2p(bytes);
        let c = self.stats.phase_mut(Phase::P2p);
        c.ops += 1;
        c.bytes_sent += bytes;
        c.modeled_seconds += dur;
        self.trace_op(EventKind::Send, Phase::P2p, Some(dst), bytes, 0, 0, dur);
        self.raw_send(dst, tag::P2P, payload, Phase::P2p);
    }

    /// Blocking point-to-point receive (phase `P2p`). Pays
    /// `α + bytes·β` on this rank.
    pub fn recv(&mut self, src: usize) -> Payload {
        self.op_tick();
        let payload = self.raw_recv(src, tag::P2P);
        let bytes = payload.bytes();
        let dur = self.model.p2p(bytes);
        let c = self.stats.phase_mut(Phase::P2p);
        c.ops += 1;
        c.bytes_recv += bytes;
        c.modeled_seconds += dur;
        self.trace_op(EventKind::Recv, Phase::P2p, Some(src), 0, bytes, 0, dur);
        payload
    }

    /// Broadcast from `root` (phase `Bcast`): the root passes its payload,
    /// everyone else passes `None` and receives the root's payload.
    pub fn bcast(&mut self, root: usize, payload: Option<Payload>) -> Payload {
        self.op_tick();
        let out = if self.rank == root {
            let payload = payload.expect("root must supply the broadcast payload");
            for dst in 0..self.p {
                if dst != root {
                    let copy = self.pooled_copy(&payload);
                    self.raw_send(dst, tag::BCAST, copy, Phase::Bcast);
                }
            }
            payload
        } else {
            assert!(
                payload.is_none(),
                "non-root rank supplied a broadcast payload"
            );
            self.raw_recv(root, tag::BCAST)
        };
        let bytes = out.bytes();
        let dur = self.model.bcast(bytes, self.p);
        let is_root = self.rank == root;
        let c = self.stats.phase_mut(Phase::Bcast);
        c.ops += 1;
        if is_root {
            c.bytes_sent += bytes;
        } else {
            c.bytes_recv += bytes;
        }
        c.modeled_seconds += dur;
        let (sent, recv) = if is_root { (bytes, 0) } else { (0, bytes) };
        self.trace_op(
            EventKind::Bcast,
            Phase::Bcast,
            Some(root),
            sent,
            recv,
            0,
            dur,
        );
        out
    }

    /// Variable all-to-all (phase `AllToAll`): `sends[d]` goes to rank
    /// `d`; returns what every rank sent to us (`out[s]` from rank `s`).
    /// The self-slot is moved locally without being priced.
    ///
    /// # Panics
    /// Panics if `sends.len() != p`.
    pub fn alltoallv(&mut self, mut sends: Vec<Payload>) -> Vec<Payload> {
        assert_eq!(sends.len(), self.p, "alltoallv needs one payload per rank");
        self.op_tick();
        let mut sent_bytes = 0u64;
        let me = self.rank;
        // Shifted order avoids all ranks hammering rank 0's queue first.
        for off in 1..self.p {
            let dst = (me + off) % self.p;
            let payload = std::mem::replace(&mut sends[dst], Payload::Empty);
            sent_bytes += payload.bytes();
            self.raw_send(dst, tag::ALLTOALLV, payload, Phase::AllToAll);
        }
        let mut out: Vec<Payload> = (0..self.p).map(|_| Payload::Empty).collect();
        out[me] = std::mem::replace(&mut sends[me], Payload::Empty);
        let mut recv_bytes = 0u64;
        for off in 1..self.p {
            let src = (me + self.p - off) % self.p;
            let payload = self.raw_recv(src, tag::ALLTOALLV);
            recv_bytes += payload.bytes();
            out[src] = payload;
        }
        let dur = self.model.alltoallv(sent_bytes, recv_bytes, self.p);
        let c = self.stats.phase_mut(Phase::AllToAll);
        c.ops += 1;
        c.bytes_sent += sent_bytes;
        c.bytes_recv += recv_bytes;
        c.modeled_seconds += dur;
        self.trace_op(
            EventKind::AllToAllV,
            Phase::AllToAll,
            None,
            sent_bytes,
            recv_bytes,
            0,
            dur,
        );
        out
    }

    /// Sum-all-reduce of `buf` over `group` (phase `AllReduce`). Every
    /// member must call with the same group slice (which must contain this
    /// rank); afterwards all members hold the element-wise sum.
    pub fn allreduce_sum(&mut self, buf: &mut [f64], group: &[usize]) {
        debug_assert!(
            group.contains(&self.rank),
            "rank not in its own allreduce group"
        );
        self.op_tick();
        let g = group.len();
        let bytes = 8 * buf.len() as u64;
        if g > 1 {
            let root = group[0];
            if self.rank == root {
                // Same fold order as ever (group order), so the sums are
                // bitwise what they were; each part's storage then carries
                // the result back down to the member it came from.
                let mut parts = std::mem::take(&mut self.parts);
                for &src in &group[1..] {
                    let part = self.raw_recv(src, tag::REDUCE_UP).into_f64();
                    assert_eq!(part.len(), buf.len(), "allreduce length mismatch");
                    for (a, b) in buf.iter_mut().zip(&part) {
                        *a += b;
                    }
                    parts.push(part);
                }
                for (&dst, mut down) in group[1..].iter().zip(parts.drain(..)) {
                    down.copy_from_slice(buf);
                    self.raw_send(dst, tag::REDUCE_DOWN, Payload::F64(down), Phase::AllReduce);
                }
                self.parts = parts;
            } else {
                let up = self.pooled_f64(buf);
                self.raw_send(root, tag::REDUCE_UP, up, Phase::AllReduce);
                // What comes down is the buffer that went up.
                let summed = self.raw_recv(root, tag::REDUCE_DOWN).into_f64();
                buf.copy_from_slice(&summed);
                self.recycle(self.rank, Payload::F64(summed));
            }
        }
        let dur = self.model.allreduce(bytes, g);
        let c = self.stats.phase_mut(Phase::AllReduce);
        c.ops += 1;
        c.bytes_sent += bytes;
        c.bytes_recv += bytes;
        c.modeled_seconds += dur;
        self.trace_op(
            EventKind::AllReduce,
            Phase::AllReduce,
            None,
            bytes,
            bytes,
            0,
            dur,
        );
    }

    /// Gathers every rank's payload to `root` (phase `Other`; used for
    /// assembling final results, not priced as training communication).
    pub fn gather(&mut self, root: usize, mut payload: Payload) -> Option<Vec<Payload>> {
        self.op_tick();
        // Unpriced and not counted in stats; traced as a zero-cost marker.
        self.trace_op(EventKind::Gather, Phase::Other, Some(root), 0, 0, 0, 0.0);
        if self.rank == root {
            let out: Vec<Payload> = (0..self.p)
                .map(|src| {
                    if src == root {
                        std::mem::replace(&mut payload, Payload::Empty)
                    } else {
                        self.raw_recv(src, tag::GATHER)
                    }
                })
                .collect();
            Some(out)
        } else {
            self.raw_send(root, tag::GATHER, payload, Phase::Other);
            None
        }
    }

    /// Barrier over all ranks (watched: times out into a deadlock report
    /// instead of blocking forever when a rank never arrives).
    pub fn barrier(&mut self) {
        self.op_tick();
        self.trace_op(EventKind::Barrier, Phase::Other, None, 0, 0, 0, 0.0);
        let wd = &self.watchdog;
        wd.begin(self.rank, WaitKind::Barrier, None, None, self.epoch);
        if !self.transport.barrier_wait(wd.timeout()) {
            unwind_with(DeadlockPanic(wd.report(self.rank)));
        }
        wd.end(self.rank);
    }

    /// Runs `work`, recording its wall time and `flops` into
    /// `LocalCompute` with modeled time `flops / flop_rate` (scaled by any
    /// injected straggler factor).
    pub fn compute<R>(&mut self, flops: u64, work: impl FnOnce() -> R) -> R {
        self.op_tick();
        let t0 = Instant::now();
        let out = work();
        let factor = self.slow_factor();
        let dur = self.model.compute(flops) * factor;
        let c = self.stats.phase_mut(Phase::LocalCompute);
        c.ops += 1;
        c.flops += flops;
        c.modeled_seconds += dur;
        c.wall_seconds += t0.elapsed().as_secs_f64();
        self.trace_op(
            EventKind::Compute,
            Phase::LocalCompute,
            None,
            0,
            0,
            flops,
            dur,
        );
        out
    }

    /// Records compute cost without timing a closure (when the caller
    /// already knows the flop count of work done elsewhere).
    pub fn record_compute(&mut self, flops: u64) {
        self.op_tick();
        let factor = self.slow_factor();
        let dur = self.model.compute(flops) * factor;
        let c = self.stats.phase_mut(Phase::LocalCompute);
        c.ops += 1;
        c.flops += flops;
        c.modeled_seconds += dur;
        self.trace_op(
            EventKind::Compute,
            Phase::LocalCompute,
            None,
            0,
            0,
            flops,
            dur,
        );
    }

    fn slow_factor(&mut self) -> f64 {
        match &self.injector {
            Some(inj) => {
                let factor = inj.compute_factor(self.rank);
                if factor != 1.0 {
                    self.stats.faults.slowed_ops += 1;
                }
                factor
            }
            None => 1.0,
        }
    }
}
