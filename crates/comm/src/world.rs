//! The thread-backed SPMD world.
//!
//! `ThreadWorld::run(p, f)` executes the closure `f` once per rank on `p`
//! OS threads connected by a full mesh of unbounded channels, then returns
//! every rank's result together with the aggregated [`WorldStats`].
//!
//! Channels are unbounded so sends never block — the same progress
//! guarantee NCCL's grouped nonblocking `ncclSend`/`ncclRecv` calls give
//! the paper's implementation.
//!
//! [`ThreadWorld::try_run`] is the robust entry point: instead of
//! propagating an opaque panic it returns a structured
//! [`WorldError`] — the panicking rank and its message, the injected
//! crash that fired, or a [`crate::error::DeadlockReport`] when the
//! watchdog converted a hang into a diagnosis. Attach a
//! [`FaultPlan`]/[`FaultInjector`] to rehearse degraded conditions
//! deterministically. A crash ends the run; recovering from it is the
//! caller's checkpoint restart.

use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::Duration;

use gnn_trace::{RankTracer, WorldTrace};

use crate::cost::CostModel;
use crate::ctx::RankCtx;
use crate::error::{Cause, WorldError};
use crate::fault::{FaultInjector, FaultPlan};
use crate::msg::Msg;
use crate::pool::PayloadPool;
use crate::stats::{RankStats, WorldStats};
use crate::transport::thread::ThreadTransport;
use crate::watchdog::{TimeoutBarrier, Watchdog};

/// Factory for SPMD runs.
#[derive(Clone, Debug)]
pub struct ThreadWorld {
    p: usize,
    model: CostModel,
    timeout: Duration,
    injector: Option<Arc<FaultInjector>>,
    tracing: bool,
}

/// What one rank thread hands back on success.
type RankOut<R> = (R, RankStats, Option<Box<RankTracer>>);

/// Every rank's unwind, classified, in rank order.
type Failures = Vec<(Cause, WorldError)>;

impl ThreadWorld {
    /// Default watchdog timeout: generous enough for any legitimate test
    /// workload, finite so a protocol bug can never hang a suite.
    pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(30);

    /// A world of `p` ranks priced by `model`.
    ///
    /// # Panics
    /// Panics if `p == 0`.
    pub fn new(p: usize, model: CostModel) -> Self {
        assert!(p >= 1, "world needs at least one rank");
        Self {
            p,
            model,
            timeout: Self::DEFAULT_TIMEOUT,
            injector: None,
            tracing: false,
        }
    }

    /// World size.
    pub fn p(&self) -> usize {
        self.p
    }

    /// The configured watchdog timeout.
    pub fn timeout(&self) -> Duration {
        self.timeout
    }

    /// The watchdog timeout actually armed for a run: the configured
    /// timeout scaled by the injected straggler budget. A deliberately
    /// slowed rank legitimately takes longer to reach every rendezvous;
    /// without this scaling a heavy `SlowCompute` plan trips the
    /// deadlock watchdog on healthy runs.
    pub fn effective_timeout(&self) -> Duration {
        match &self.injector {
            Some(inj) => self.timeout.mul_f64(inj.straggler_budget()),
            None => self.timeout,
        }
    }

    /// Sets the deadlock-watchdog timeout for blocking operations.
    #[must_use]
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        assert!(
            timeout > Duration::ZERO,
            "watchdog timeout must be positive"
        );
        self.timeout = timeout;
        self
    }

    /// Attaches a fault plan (fresh injector).
    #[must_use]
    pub fn with_faults(self, plan: FaultPlan) -> Self {
        self.with_injector(Arc::new(FaultInjector::new(plan)))
    }

    /// Attaches a (possibly shared) fault injector. Sharing one injector
    /// across restarted worlds keeps one-shot crash faults fired.
    #[must_use]
    pub fn with_injector(mut self, injector: Arc<FaultInjector>) -> Self {
        self.injector = Some(injector);
        self
    }

    /// The attached fault injector, if any.
    pub fn injector(&self) -> Option<&Arc<FaultInjector>> {
        self.injector.as_ref()
    }

    /// Enables structured tracing: each rank records a span/event
    /// timeline into a private [`RankTracer`], collected after the run
    /// into the [`WorldTrace`] returned by
    /// [`ThreadWorld::try_run_traced`]. Off by default (zero overhead).
    #[must_use]
    pub fn with_tracing(mut self, on: bool) -> Self {
        self.tracing = on;
        self
    }

    /// True when tracing is enabled.
    pub fn tracing(&self) -> bool {
        self.tracing
    }

    /// Runs `f` on every rank; returns rank-indexed results and stats.
    ///
    /// `f` must be deterministic per rank and must execute a consistent
    /// SPMD protocol (matching sends/recvs); a protocol mismatch panics
    /// (tag assert) or — when a rank waits for a message that is never
    /// sent — is converted by the watchdog into a deadlock panic within
    /// the configured timeout.
    ///
    /// # Panics
    /// Panics with the [`WorldError`] rendering (rank id + panic message,
    /// injected-crash coordinates, or the deadlock report) when any rank
    /// fails. Use [`ThreadWorld::try_run`] to handle failures
    /// programmatically.
    pub fn run<R, F>(&self, f: F) -> (Vec<R>, WorldStats)
    where
        R: Send,
        F: Fn(&mut RankCtx) -> R + Sync,
    {
        self.try_run(f)
            .unwrap_or_else(|e| panic!("world failed: {e}"))
    }

    /// Runs `f` on every rank, converting any rank failure into a
    /// structured [`WorldError`] instead of a panic.
    pub fn try_run<R, F>(&self, f: F) -> Result<(Vec<R>, WorldStats), WorldError>
    where
        R: Send,
        F: Fn(&mut RankCtx) -> R + Sync,
    {
        self.try_run_traced(f).map(|(outs, stats, _)| (outs, stats))
    }

    /// Like [`ThreadWorld::try_run`], but also returns the collected
    /// [`WorldTrace`] when tracing is enabled (`None` otherwise).
    pub fn try_run_traced<R, F>(
        &self,
        f: F,
    ) -> Result<(Vec<R>, WorldStats, Option<WorldTrace>), WorldError>
    where
        R: Send,
        F: Fn(&mut RankCtx) -> R + Sync,
    {
        let (results, failures) = self.launch(&f);
        if let Some(err) = root_cause(failures) {
            return Err(err);
        }
        let p = self.p;
        let mut outs = Vec::with_capacity(p);
        let mut stats = Vec::with_capacity(p);
        let mut tracers = Vec::with_capacity(p);
        for slot in results {
            let (r, st, tr) = slot.expect("rank produced no result");
            outs.push(r);
            stats.push(st);
            if let Some(t) = tr {
                tracers.push(*t);
            }
        }
        let trace = (self.tracing && tracers.len() == p).then(|| WorldTrace::collect(tracers));
        Ok((outs, WorldStats::new(stats), trace))
    }

    /// Builds the channel mesh and rank contexts, runs `f` on `p` scoped
    /// threads, and joins them.
    fn launch<R, F>(&self, f: &F) -> (Vec<Option<RankOut<R>>>, Failures)
    where
        R: Send,
        F: Fn(&mut RankCtx) -> R + Sync,
    {
        let p = self.p;
        // Mesh of channels: tx[src][dst] feeds rx[dst][src].
        let mut senders: Vec<Vec<Option<std::sync::mpsc::Sender<Msg>>>> =
            (0..p).map(|_| (0..p).map(|_| None).collect()).collect();
        let mut receivers: Vec<Vec<Option<std::sync::mpsc::Receiver<Msg>>>> =
            (0..p).map(|_| (0..p).map(|_| None).collect()).collect();
        for src in 0..p {
            for dst in 0..p {
                let (tx, rx) = channel();
                senders[src][dst] = Some(tx);
                receivers[dst][src] = Some(rx);
            }
        }
        let barrier = Arc::new(TimeoutBarrier::new(p));
        let watchdog = Arc::new(Watchdog::new(p, self.effective_timeout()));
        // One payload pool for the run, shared by its rank threads and
        // dropped with them: payload buffers move between ranks, so only
        // the world that moves them can balance their free list.
        let pool = Arc::new(PayloadPool::new(p));

        // Per-rank contexts, built outside the threads.
        let mut ctxs: Vec<RankCtx> = senders
            .into_iter()
            .zip(receivers)
            .enumerate()
            .map(|(rank, (tx_row, rx_row))| {
                let transport = ThreadTransport::new(
                    tx_row.into_iter().map(Option::unwrap).collect(),
                    rx_row.into_iter().map(Option::unwrap).collect(),
                    barrier.clone(),
                );
                RankCtx::new(
                    rank,
                    p,
                    self.model,
                    Box::new(transport),
                    watchdog.clone(),
                    self.injector.clone(),
                    self.tracing.then(|| Box::new(RankTracer::new(rank))),
                    pool.clone(),
                )
            })
            .collect();

        let mut results: Vec<Option<RankOut<R>>> = (0..p).map(|_| None).collect();
        let mut failures: Failures = Vec::new();

        std::thread::scope(|s| {
            let mut handles = Vec::with_capacity(p);
            for (rank, (ctx, slot)) in ctxs.drain(..).zip(results.iter_mut()).enumerate() {
                let handle = std::thread::Builder::new()
                    .name(format!("rank-{rank}"))
                    .spawn_scoped(s, move || {
                        let mut ctx = ctx;
                        let out = f(&mut ctx);
                        let (stats, tracer) = ctx.into_parts();
                        *slot = Some((out, stats, tracer));
                    })
                    .expect("failed to spawn rank thread");
                handles.push(handle);
            }
            for (rank, h) in handles.into_iter().enumerate() {
                if let Err(payload) = h.join() {
                    failures.push(WorldError::from_unwind(rank, payload.as_ref()));
                }
            }
        });

        (results, failures)
    }
}

/// The root cause among (possibly cascading) rank failures: the
/// lowest-ranked rank's error of the most informative [`Cause`], `None`
/// when no rank failed.
fn root_cause(failures: Failures) -> Option<WorldError> {
    failures
        .into_iter()
        .min_by_key(|(cause, _)| *cause)
        .map(|(_, err)| err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::Payload;
    use crate::stats::Phase;

    fn world(p: usize) -> ThreadWorld {
        ThreadWorld::new(p, CostModel::bandwidth_only())
    }

    /// Short watchdog for tests that deliberately hang.
    fn quick_world(p: usize) -> ThreadWorld {
        world(p).with_timeout(Duration::from_millis(250))
    }

    #[test]
    fn single_rank_runs() {
        let (outs, _) = world(1).run(|ctx| ctx.rank() * 10);
        assert_eq!(outs, vec![0]);
    }

    #[test]
    fn ranks_are_distinct_and_ordered() {
        let (outs, _) = world(8).run(|ctx| ctx.rank());
        assert_eq!(outs, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn p2p_ring_delivers() {
        let p = 5;
        let (outs, stats) = world(p).run(|ctx| {
            let me = ctx.rank();
            let next = (me + 1) % p;
            let prev = (me + p - 1) % p;
            ctx.send(next, Payload::F64(vec![me as f64]));
            ctx.recv(prev).into_f64()[0] as usize
        });
        for (rank, got) in outs.iter().enumerate() {
            assert_eq!(*got, (rank + p - 1) % p);
        }
        // Each rank sent and received one 8-byte message.
        for r in &stats.per_rank {
            assert_eq!(r.phase(Phase::P2p).bytes_sent, 8);
            assert_eq!(r.phase(Phase::P2p).bytes_recv, 8);
            assert_eq!(r.phase(Phase::P2p).ops, 2);
        }
    }

    #[test]
    fn bcast_delivers_to_everyone() {
        let (outs, stats) = world(4).run(|ctx| {
            let payload = if ctx.rank() == 2 {
                Some(Payload::U32(vec![42, 43]))
            } else {
                None
            };
            ctx.bcast(2, payload).into_u32()
        });
        for o in outs {
            assert_eq!(o, vec![42, 43]);
        }
        assert_eq!(stats.per_rank[2].phase(Phase::Bcast).bytes_sent, 8);
        assert_eq!(stats.per_rank[0].phase(Phase::Bcast).bytes_recv, 8);
        // Everyone is charged the same collective completion time.
        let t0 = stats.per_rank[0].phase(Phase::Bcast).modeled_seconds;
        for r in &stats.per_rank {
            assert_eq!(r.phase(Phase::Bcast).modeled_seconds, t0);
        }
    }

    #[test]
    fn alltoallv_routes_by_rank() {
        let p = 4;
        let (outs, _) = world(p).run(|ctx| {
            let me = ctx.rank();
            let sends = (0..p)
                .map(|dst| Payload::F64(vec![(me * 10 + dst) as f64]))
                .collect();
            let recvd = ctx.alltoallv(sends);
            recvd
                .into_iter()
                .map(|pl| pl.into_f64()[0] as usize)
                .collect::<Vec<_>>()
        });
        for (me, got) in outs.iter().enumerate() {
            for (src, &v) in got.iter().enumerate() {
                assert_eq!(v, src * 10 + me, "rank {me} slot {src}");
            }
        }
    }

    #[test]
    fn alltoallv_self_slot_not_priced() {
        let (_, stats) = world(2).run(|ctx| {
            let me = ctx.rank();
            let mut sends: Vec<Payload> = vec![Payload::Empty, Payload::Empty];
            sends[me] = Payload::F64(vec![0.0; 100]); // only to self
            ctx.alltoallv(sends);
        });
        for r in &stats.per_rank {
            assert_eq!(r.phase(Phase::AllToAll).bytes_sent, 0);
            assert_eq!(r.phase(Phase::AllToAll).bytes_recv, 0);
        }
    }

    #[test]
    fn allreduce_sums_over_subgroups() {
        let p = 6;
        // Two groups: ranks {0,1,2} and {3,4,5}.
        let (outs, _) = world(p).run(|ctx| {
            let me = ctx.rank();
            let group: Vec<usize> = if me < 3 { vec![0, 1, 2] } else { vec![3, 4, 5] };
            let mut buf = vec![me as f64, 1.0];
            ctx.allreduce_sum(&mut buf, &group);
            buf
        });
        for out in &outs[..3] {
            assert_eq!(*out, vec![0.0 + 1.0 + 2.0, 3.0]);
        }
        for out in &outs[3..] {
            assert_eq!(*out, vec![3.0 + 4.0 + 5.0, 3.0]);
        }
    }

    #[test]
    fn zero_padded_allreduce_reassembles_every_slab_bit_for_bit() {
        // Each of c replicas fills one slab of rows (uneven, or empty when
        // rows < c), zeroes the rest, and the group sum is the whole
        // matrix: v + 0.0 and 0.0 + v are v for every v but -0.0.
        let cols = 3;
        let value = |r: usize, j: usize| -> f64 {
            match (r * cols + j) % 6 {
                0 => 0.0,
                1 => f64::MIN_POSITIVE / 8.0, // subnormal
                2 => -1.0e300,
                3 => 1.0 / 3.0,
                4 => -(r as f64 + 0.1),
                _ => f64::EPSILON * j as f64,
            }
        };
        for c in 2..=4 {
            for rows in [1, 2, 3, 5, 7, 10] {
                // Two replica groups side by side, as 1.5D runs them.
                let (outs, _) = world(2 * c).run(|ctx| {
                    let me = ctx.rank();
                    let base = me / c * c;
                    let group: Vec<usize> = (base..base + c).collect();
                    let k = me - base;
                    let slab = k * rows / c..(k + 1) * rows / c;
                    let mut buf = vec![0.0; rows * cols];
                    for r in slab {
                        for j in 0..cols {
                            buf[r * cols + j] = value(r, j);
                        }
                    }
                    ctx.allreduce_sum(&mut buf, &group);
                    buf
                });
                for (me, got) in outs.iter().enumerate() {
                    for (at, g) in got.iter().enumerate() {
                        let want = value(at / cols, at % cols);
                        assert_eq!(
                            g.to_bits(),
                            want.to_bits(),
                            "c={c} rows={rows} rank {me} at {at}"
                        );
                    }
                }
            }
        }
        // The precondition is real: a -0.0 slab element comes back +0.0.
        let (outs, _) = world(2).run(|ctx| {
            let mut buf = vec![if ctx.rank() == 1 { -0.0 } else { 0.0 }];
            ctx.allreduce_sum(&mut buf, &[0, 1]);
            buf[0]
        });
        assert!(outs.iter().all(|v| v.to_bits() == 0.0f64.to_bits()));
    }

    #[test]
    fn allreduce_single_member_is_identity() {
        let (outs, stats) = world(2).run(|ctx| {
            let me = ctx.rank();
            let mut buf = vec![me as f64 + 1.0];
            ctx.allreduce_sum(&mut buf, &[me]);
            buf[0]
        });
        assert_eq!(outs, vec![1.0, 2.0]);
        // Group of one: zero modeled time.
        for r in &stats.per_rank {
            assert_eq!(r.phase(Phase::AllReduce).modeled_seconds, 0.0);
        }
    }

    #[test]
    fn gather_collects_at_root() {
        let (outs, _) = world(3).run(|ctx| {
            let me = ctx.rank();
            ctx.gather(0, Payload::U32(vec![me as u32 * 7]))
                .map(|v| v.into_iter().map(|p| p.into_u32()[0]).collect::<Vec<_>>())
        });
        assert_eq!(outs[0], Some(vec![0, 7, 14]));
        assert_eq!(outs[1], None);
        assert_eq!(outs[2], None);
    }

    #[test]
    fn compute_records_flops_and_model_time() {
        let model = CostModel {
            alpha: 0.0,
            beta: 0.0,
            flop_rate: 1000.0,
            threads: 1,
        };
        let (_, stats) = ThreadWorld::new(2, model).run(|ctx| {
            ctx.compute(500, || std::hint::black_box(3 + 4));
        });
        for r in &stats.per_rank {
            let c = r.phase(Phase::LocalCompute);
            assert_eq!(c.flops, 500);
            assert!((c.modeled_seconds - 0.5).abs() < 1e-12);
            assert!(c.wall_seconds >= 0.0);
        }
    }

    #[test]
    fn barrier_is_rendezvous() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counter = AtomicUsize::new(0);
        let (outs, _) = world(4).run(|ctx| {
            counter.fetch_add(1, Ordering::SeqCst);
            ctx.barrier();
            counter.load(Ordering::SeqCst)
        });
        // After the barrier every rank must observe all 4 increments.
        for o in outs {
            assert_eq!(o, 4);
        }
    }

    #[test]
    #[should_panic(expected = "protocol mismatch")]
    fn protocol_mismatch_fails_fast() {
        // Rank 0 sends a point-to-point message; rank 1 expects a
        // broadcast. The tag check must abort the run rather than
        // silently mis-pairing buffers.
        quick_world(2).run(|ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, Payload::F64(vec![1.0]));
            } else {
                ctx.bcast(0, None);
            }
        });
    }

    #[test]
    #[should_panic(expected = "rank 2 panicked: worker blew up")]
    fn rank_panic_propagates_with_rank_and_message() {
        world(3).run(|ctx| {
            if ctx.rank() == 2 {
                panic!("worker blew up");
            }
        });
    }

    #[test]
    fn try_run_returns_ok_results() {
        let out = world(3).try_run(|ctx| ctx.rank() * 2);
        let (outs, stats) = out.expect("clean run");
        assert_eq!(outs, vec![0, 2, 4]);
        assert_eq!(stats.p(), 3);
    }

    #[test]
    fn try_run_captures_panic_rank_and_payload() {
        let err = quick_world(3)
            .try_run(|ctx| {
                if ctx.rank() == 1 {
                    panic!("numerical blowup at layer 7");
                }
                ctx.barrier();
            })
            .unwrap_err();
        match err {
            WorldError::Panicked { rank, message } => {
                assert_eq!(rank, 1);
                assert!(message.contains("numerical blowup at layer 7"), "{message}");
            }
            other => panic!("expected Panicked, got {other}"),
        }
    }

    #[test]
    fn try_run_prefers_root_cause_over_cascade() {
        // Rank 0 panics; rank 1, blocked on a recv from rank 0, dies with
        // a "hung up" cascade. The reported error must be rank 0's.
        let err = quick_world(2)
            .try_run(|ctx| {
                if ctx.rank() == 0 {
                    panic!("root cause");
                }
                ctx.recv(0);
            })
            .unwrap_err();
        match err {
            WorldError::Panicked { rank, message } => {
                assert_eq!(rank, 0);
                assert!(message.contains("root cause"), "{message}");
            }
            other => panic!("expected Panicked, got {other}"),
        }
    }

    #[test]
    fn cyclic_recv_becomes_deadlock_report() {
        // Classic head-to-head deadlock: each rank waits for a message
        // the other will only send after receiving one itself.
        let t0 = std::time::Instant::now();
        let err = quick_world(2)
            .try_run(|ctx| {
                let peer = 1 - ctx.rank();
                ctx.recv(peer); // nobody ever sends
            })
            .unwrap_err();
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "watchdog fired late"
        );
        match err {
            WorldError::Deadlock(report) => {
                assert!(report.names(0), "rank 0 must be in {report}");
                let r0 = report
                    .blocked
                    .iter()
                    .find(|b| b.rank == 0)
                    .expect("rank 0 entry");
                assert_eq!(r0.waiting_on, Some(1));
            }
            other => panic!("expected Deadlock, got {other}"),
        }
    }

    #[test]
    fn peer_exit_without_send_is_reported_promptly() {
        // Rank 1 returns without ever sending; rank 0's recv must not
        // wait out the full watchdog timeout — the closed channel is
        // detected immediately and reported with both rank ids.
        let t0 = std::time::Instant::now();
        let err = world(2) // full 30 s timeout on purpose
            .try_run(|ctx| {
                if ctx.rank() == 0 {
                    ctx.recv(1);
                }
            })
            .unwrap_err();
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "should not wait for watchdog"
        );
        match err {
            WorldError::Panicked { rank, message } => {
                assert_eq!(rank, 0);
                assert!(message.contains("rank 1"), "{message}");
                assert!(message.contains("hung up"), "{message}");
            }
            other => panic!("expected Panicked, got {other}"),
        }
    }

    #[test]
    fn missing_barrier_party_becomes_deadlock_report() {
        let err = quick_world(3)
            .try_run(|ctx| {
                if ctx.rank() != 2 {
                    ctx.barrier();
                }
            })
            .unwrap_err();
        match err {
            WorldError::Deadlock(report) => {
                assert!(report.names(0) && report.names(1), "{report}");
                assert!(!report.names(2), "rank 2 exited cleanly: {report}");
            }
            other => panic!("expected Deadlock, got {other}"),
        }
    }

    #[test]
    #[should_panic(expected = "self-sends")]
    fn self_send_is_rejected() {
        // Assert fires on the calling thread before any message moves.
        let (tx, rx) = channel();
        let transport = ThreadTransport::new(vec![tx], vec![rx], Arc::new(TimeoutBarrier::new(1)));
        let mut ctx = crate::ctx::RankCtx::new(
            0,
            1,
            CostModel::bandwidth_only(),
            Box::new(transport),
            Arc::new(Watchdog::new(1, Duration::from_secs(1))),
            None,
            None,
            Arc::new(PayloadPool::new(1)),
        );
        ctx.send(0, Payload::Empty);
    }

    #[test]
    fn stats_survive_multiple_collectives() {
        let (_, stats) = world(3).run(|ctx| {
            for _ in 0..4 {
                let payload = if ctx.rank() == 0 {
                    Some(Payload::F64(vec![0.0; 10]))
                } else {
                    None
                };
                ctx.bcast(0, payload);
            }
        });
        assert_eq!(stats.per_rank[0].phase(Phase::Bcast).ops, 4);
        assert_eq!(stats.per_rank[0].phase(Phase::Bcast).bytes_sent, 4 * 80);
        assert_eq!(stats.per_rank[1].phase(Phase::Bcast).bytes_recv, 4 * 80);
    }

    // ---- fault injection ----

    #[test]
    fn injected_crash_is_structured() {
        let plan = FaultPlan::new(0).crash_at(1, 0, 1);
        let err = world(2)
            .with_faults(plan)
            .try_run(|ctx| {
                ctx.set_epoch(0);
                let peer = 1 - ctx.rank();
                ctx.send(peer, Payload::Empty);
                ctx.recv(peer);
            })
            .unwrap_err();
        match err {
            WorldError::InjectedCrash { rank, epoch, .. } => {
                assert_eq!(rank, 1);
                assert_eq!(epoch, Some(0));
            }
            other => panic!("expected InjectedCrash, got {other}"),
        }
    }

    #[test]
    fn crash_fires_once_across_reruns_of_a_shared_injector() {
        let injector = Arc::new(FaultInjector::new(FaultPlan::new(0).crash_at(0, 0, 1)));
        let w = world(2).with_injector(injector.clone());
        let body = |ctx: &mut RankCtx| {
            ctx.set_epoch(0);
            let peer = 1 - ctx.rank();
            ctx.send(peer, Payload::F64(vec![1.0]));
            ctx.recv(peer).into_f64()[0]
        };
        assert!(w.try_run(body).is_err(), "first run must crash");
        let (outs, _) = w.try_run(body).expect("second run is clean");
        assert_eq!(outs, vec![1.0, 1.0]);
    }

    #[test]
    fn dropped_messages_are_retransmitted_and_counted() {
        // prob = 1.0: every attempt up to the retry cap is lost; the
        // attempt at `max_retries` is forced clean.
        let plan = FaultPlan::new(3).drop_messages(0, None, 1.0);
        let retries = u64::from(plan.max_retries);
        let (outs, stats) = world(2).with_faults(plan).run(|ctx| {
            let peer = 1 - ctx.rank();
            ctx.send(peer, Payload::F64(vec![ctx.rank() as f64]));
            ctx.recv(peer).into_f64()[0]
        });
        // Payloads still arrive intact.
        assert_eq!(outs, vec![1.0, 0.0]);
        let r0 = &stats.per_rank[0].faults;
        assert_eq!(r0.drops, retries);
        assert_eq!(r0.retries, retries);
        assert_eq!(stats.per_rank[1].faults.drops, 0);
        assert_eq!(stats.total_retries(), retries);
        // Retransmissions cost modeled time and wire bytes, charged to
        // the dedicated phase — never to the op's logical volume.
        assert_eq!(stats.per_rank[0].phase(Phase::P2p).bytes_sent, 8);
        assert_eq!(
            stats.per_rank[0].phase(Phase::Retransmit).bytes_sent,
            retries * 8
        );
        assert_eq!(r0.retransmit_bytes, retries * 8);
        assert_eq!(stats.per_rank[1].faults.retransmit_bytes, 0);
        assert_eq!(stats.total_retransmit_bytes(), retries * 8);
        // Logical totals exclude the wire overhead; the wire view adds it.
        assert_eq!(stats.per_rank[0].bytes_sent_total(), 8);
        assert_eq!(stats.per_rank[0].wire_bytes_sent_total(), 8 + retries * 8);
        assert!(stats.per_rank[0].phase(Phase::Retransmit).modeled_seconds > 0.0);
        assert_eq!(
            stats.per_rank[1].phase(Phase::Retransmit).modeled_seconds,
            0.0
        );
    }

    #[test]
    fn corruption_is_detected_by_the_receiver() {
        // Corrupted frames actually travel: the receiver's checksum
        // rejects each damaged attempt until the forced-clean one lands.
        let plan = FaultPlan::new(5).corrupt_messages(0, Some(1), 1.0);
        let retries = u64::from(plan.max_retries);
        let (outs, stats) = world(2).with_faults(plan).run(|ctx| {
            let peer = 1 - ctx.rank();
            ctx.send(peer, Payload::U32(vec![7]));
            ctx.recv(peer).into_u32()[0]
        });
        assert_eq!(outs, vec![7, 7]);
        assert_eq!(stats.per_rank[0].faults.corruptions, retries);
        assert_eq!(stats.per_rank[1].faults.corruptions_detected, retries);
        assert_eq!(stats.total_injected_faults(), retries);
        // The receiver's wasted transfers land on the retransmit phase.
        assert_eq!(stats.per_rank[1].phase(Phase::Retransmit).ops, retries);
        // Logical volume stays that of one clean 4-byte message.
        assert_eq!(stats.per_rank[1].bytes_recv_total(), 4);
    }

    #[test]
    fn duplicate_delivery_is_discarded_by_sequence_number() {
        // Two messages, every delivery duplicated: the first recv accepts
        // seq 0, the second recv drains the stale copy of seq 0 before
        // accepting seq 1. (The duplicate of the final message is never
        // drained — ending an epoch with junk in flight must be safe.)
        let plan = FaultPlan::new(9).duplicate_messages(0, Some(1), 1.0);
        let (outs, stats) = world(2).with_faults(plan).run(|ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, Payload::F64(vec![1.0]));
                ctx.send(1, Payload::F64(vec![2.0]));
                0.0
            } else {
                ctx.recv(0).into_f64()[0] + ctx.recv(0).into_f64()[0]
            }
        });
        assert_eq!(outs, vec![0.0, 3.0]);
        assert_eq!(stats.per_rank[0].faults.duplicates, 2);
        assert_eq!(stats.per_rank[1].faults.duplicates_discarded, 1);
        // Each duplicate is wire overhead, never logical volume.
        assert_eq!(stats.per_rank[0].phase(Phase::Retransmit).bytes_sent, 16);
        assert_eq!(stats.per_rank[0].bytes_sent_total(), 16);
        assert_eq!(stats.per_rank[1].bytes_recv_total(), 16);
    }

    #[test]
    #[should_panic(expected = "transport violation")]
    fn reordered_future_frame_is_a_transport_violation() {
        // Hand-deliver a frame from the future (seq 3 while seq 0 is
        // expected): the receiver must refuse to skip messages.
        let (tx_self, rx_self) = channel();
        let (tx_peer, rx_peer) = channel();
        let payload = Payload::F64(vec![1.0]);
        tx_peer
            .send(Msg {
                tag: crate::ctx::tag::P2P,
                seq: 3,
                checksum: payload.checksum(),
                payload,
            })
            .unwrap();
        let transport = ThreadTransport::new(
            vec![tx_self, tx_peer],
            vec![rx_self, rx_peer],
            Arc::new(TimeoutBarrier::new(2)),
        );
        let mut ctx = crate::ctx::RankCtx::new(
            0,
            2,
            CostModel::bandwidth_only(),
            Box::new(transport),
            Arc::new(Watchdog::new(2, Duration::from_secs(1))),
            None,
            None,
            Arc::new(PayloadPool::new(2)),
        );
        ctx.recv(1);
    }

    #[test]
    fn corruption_storm_converges_within_the_backoff_cap() {
        // Every transmission in both directions is corrupted until the
        // forced-clean attempt. The run must still converge, and no
        // single backoff wait may exceed the configured cap.
        let plan = FaultPlan::new(17)
            .corrupt_messages(0, None, 1.0)
            .corrupt_messages(1, None, 1.0);
        let cap = plan.retry_backoff_cap_seconds;
        let retries = u64::from(plan.max_retries);
        let bound: f64 = (0..plan.max_retries).map(|a| plan.backoff_seconds(a)).sum();
        let (outs, stats) = world(2).with_faults(plan).run(|ctx| {
            let peer = 1 - ctx.rank();
            ctx.send(peer, Payload::F64(vec![ctx.rank() as f64 + 0.5]));
            ctx.recv(peer).into_f64()[0]
        });
        assert_eq!(outs, vec![1.5, 0.5]);
        for r in &stats.per_rank {
            assert_eq!(r.faults.corruptions, retries);
            assert_eq!(r.faults.corruptions_detected, retries);
            // Sender-side retransmit time = capped backoffs + wire time
            // of the resent frames + receiver-side wasted transfers.
            let rt = r.phase(Phase::Retransmit);
            let wire = retries as f64 * CostModel::bandwidth_only().p2p(8) * 2.0;
            assert!(
                rt.modeled_seconds <= bound + wire + 1e-9,
                "retransmit time {} exceeds backoff budget {}",
                rt.modeled_seconds,
                bound + wire
            );
            assert!(
                bound <= retries as f64 * cap + 1e-12,
                "cap bounds each wait"
            );
        }
    }

    #[test]
    fn straggler_budget_scales_the_watchdog_timeout() {
        // Regression: a heavy straggler used to trip the deadlock
        // watchdog on healthy runs — the fast ranks' barrier wait
        // exceeded the unscaled timeout while the slow rank was still
        // legitimately computing.
        let plan = FaultPlan::new(0).slow_compute(1, 20.0);
        let w = world(2)
            .with_timeout(Duration::from_millis(40))
            .with_faults(plan);
        assert_eq!(w.effective_timeout(), Duration::from_millis(800));
        let (_, stats) = w.run(|ctx| {
            if ctx.rank() == 1 {
                ctx.compute(1000, || std::thread::sleep(Duration::from_millis(200)));
            }
            ctx.barrier();
        });
        assert_eq!(stats.per_rank[1].faults.slowed_ops, 1);
    }

    #[test]
    fn delay_fault_charges_the_cost_model() {
        let plan = FaultPlan::new(0).delay_send(0, Some(1), 2.5);
        let (_, stats) = world(2).with_faults(plan).run(|ctx| {
            let peer = 1 - ctx.rank();
            ctx.send(peer, Payload::F64(vec![0.0; 4]));
            ctx.recv(peer);
        });
        let f = &stats.per_rank[0].faults;
        assert_eq!(f.delays, 1);
        assert_eq!(f.delay_seconds, 2.5);
        // bandwidth_only model: baseline cost is bytes; delay dominates.
        assert!(stats.per_rank[0].phase(Phase::P2p).modeled_seconds >= 2.5);
        assert_eq!(stats.per_rank[1].faults.delays, 0);
    }

    #[test]
    fn slow_compute_scales_modeled_time_only_on_the_straggler() {
        let model = CostModel {
            alpha: 0.0,
            beta: 0.0,
            flop_rate: 1000.0,
            threads: 1,
        };
        let plan = FaultPlan::new(0).slow_compute(1, 4.0);
        let (_, stats) = ThreadWorld::new(2, model).with_faults(plan).run(|ctx| {
            ctx.compute(1000, || std::hint::black_box(0));
        });
        let fast = stats.per_rank[0].phase(Phase::LocalCompute).modeled_seconds;
        let slow = stats.per_rank[1].phase(Phase::LocalCompute).modeled_seconds;
        assert!((fast - 1.0).abs() < 1e-12);
        assert!((slow - 4.0).abs() < 1e-12);
        assert_eq!(stats.per_rank[1].faults.slowed_ops, 1);
        // The straggler sets the modeled epoch time — the paper's
        // bottleneck-process argument, now injectable.
        assert!((stats.modeled_epoch_time() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn faulty_runs_are_deterministic() {
        let run = || {
            let plan = FaultPlan::new(11)
                .drop_messages(0, None, 0.5)
                .corrupt_messages(1, None, 0.5)
                .delay_send(2, None, 0.125);
            world(3).with_faults(plan).run(|ctx| {
                let mut acc = 0.0;
                for round in 0..8 {
                    let sends = (0..3)
                        .map(|d| Payload::F64(vec![(ctx.rank() * 8 + round + d) as f64]))
                        .collect();
                    acc += ctx
                        .alltoallv(sends)
                        .into_iter()
                        .map(|p| p.into_f64()[0])
                        .sum::<f64>();
                }
                acc
            })
        };
        let (a_out, a_stats) = run();
        let (b_out, b_stats) = run();
        assert_eq!(a_out, b_out);
        assert_eq!(a_stats, b_stats);
        assert!(a_stats.total_injected_faults() > 0, "plan injected nothing");
    }
}
