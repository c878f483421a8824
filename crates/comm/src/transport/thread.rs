//! The thread-backed [`Transport`]: a full mesh of unbounded in-process
//! channels plus the shared [`TimeoutBarrier`] and [`Watchdog`]. This is
//! the original simulator link layer, extracted verbatim — it is the
//! bit-exact oracle the process backend is differenced against.

use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::Duration;

use crate::error::{DeadlockReport, WaitKind};
use crate::msg::Msg;
use crate::watchdog::{DeathRecord, TimeoutBarrier, Watchdog};

use super::{PeerGone, RecvOutcome, Transport};

/// Channel-mesh link layer for one rank: `to[dst]` feeds the peer's
/// `from[src]` (unbounded, so sends never block — the MPI eager-protocol
/// analogue).
pub(crate) struct ThreadTransport {
    p: usize,
    to: Vec<Sender<Msg>>,
    from: Vec<Receiver<Msg>>,
    barrier: Arc<TimeoutBarrier>,
    watchdog: Arc<Watchdog>,
}

impl ThreadTransport {
    pub(crate) fn new(
        p: usize,
        to: Vec<Sender<Msg>>,
        from: Vec<Receiver<Msg>>,
        barrier: Arc<TimeoutBarrier>,
        watchdog: Arc<Watchdog>,
    ) -> Self {
        assert_eq!(to.len(), p, "one sender per peer");
        assert_eq!(from.len(), p, "one receiver per peer");
        Self {
            p,
            to,
            from,
            barrier,
            watchdog,
        }
    }
}

impl Transport for ThreadTransport {
    fn send(&mut self, dst: usize, msg: Msg) -> Result<(), PeerGone> {
        self.to[dst].send(msg).map_err(|_| PeerGone)
    }

    fn recv_deadline(&mut self, src: usize, timeout: Duration) -> RecvOutcome {
        match self.from[src].recv_timeout(timeout) {
            Ok(frame) => RecvOutcome::Frame(frame),
            Err(RecvTimeoutError::Timeout) => RecvOutcome::TimedOut,
            Err(RecvTimeoutError::Disconnected) => RecvOutcome::Disconnected,
        }
    }

    fn barrier_wait(&mut self) -> bool {
        self.barrier.wait(self.watchdog.timeout())
    }

    fn barrier_wait_alive(&mut self) -> bool {
        let p = self.p;
        let wd = self.watchdog.clone();
        self.barrier
            .wait_with(self.watchdog.timeout(), move || wd.alive_count(p))
    }

    fn commit_wait(&mut self, gen: u32) -> Option<bool> {
        let p = self.p;
        let wd = self.watchdog.clone();
        let wd_verdict = self.watchdog.clone();
        self.barrier.wait_verdict(
            self.watchdog.timeout(),
            move || wd.alive_count(p),
            // All survivors enter the commit with equal `gen` (they bump
            // in lockstep on every poisoned verdict), so whichever rank
            // evaluates this sees the same generation stamp.
            move || !wd_verdict.deaths().iter().any(|d| d.gen == gen),
        )
    }

    fn mark_dead(&self, rank: usize, gen: u32) {
        self.watchdog.mark_dead(rank, gen);
    }

    fn deaths(&self) -> Vec<DeathRecord> {
        self.watchdog.deaths()
    }

    fn timeout(&self) -> Duration {
        self.watchdog.timeout()
    }

    fn wd_begin(
        &self,
        rank: usize,
        kind: WaitKind,
        peer: Option<usize>,
        tag: Option<u8>,
        epoch: Option<usize>,
    ) {
        self.watchdog.begin(rank, kind, peer, tag, epoch);
    }

    fn wd_end(&self, rank: usize) {
        self.watchdog.end(rank);
    }

    fn wd_report(&self, rank: usize) -> DeadlockReport {
        self.watchdog.report(rank)
    }
}
