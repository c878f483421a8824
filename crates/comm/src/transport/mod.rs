//! Pluggable link layer beneath [`crate::RankCtx`].
//!
//! Everything *above* this trait — sequence numbers, generation stamps,
//! end-to-end checksums, retransmit pricing, collectives, overlap
//! windows, tracing — is backend-independent and lives in
//! [`crate::ctx`]. A [`Transport`] only has to move already-framed
//! [`Msg`]s between ranks, run a rendezvous barrier, track peer
//! liveness, and feed the deadlock watchdog:
//!
//! * [`ThreadTransport`](thread::ThreadTransport) — ranks are OS threads
//!   in one process, connected by a full mesh of unbounded channels. The
//!   bit-exact oracle every other backend is measured against.
//! * [`ProcTransport`](proc::ProcTransport) — ranks are real OS
//!   processes exchanging length-prefixed frames over Unix-domain
//!   sockets, with heartbeats, reconnect, and peer-death detection (see
//!   [`crate::ProcWorld`]).
//!
//! The wire format a third backend must speak is documented in
//! DESIGN.md §8.

use std::time::Duration;

use crate::error::{DeadlockReport, WaitKind};
use crate::msg::Msg;
use crate::watchdog::DeathRecord;

#[cfg(unix)]
pub(crate) mod chaos;
#[cfg(unix)]
pub(crate) mod net;
#[cfg(unix)]
pub(crate) mod proc;
#[cfg(unix)]
pub(crate) mod replay;
pub(crate) mod thread;
#[cfg(unix)]
pub(crate) mod wire;

/// Marker error: the destination rank is known to be gone (crashed,
/// exited, or declared dead by the liveness monitor).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct PeerGone;

/// Outcome of a deadline-bounded blocking receive.
pub(crate) enum RecvOutcome {
    /// The next frame queued from the peer.
    Frame(Msg),
    /// The deadline elapsed without a frame (the caller re-checks its
    /// own watchdog deadline and retries).
    TimedOut,
    /// The peer's channel is gone — it crashed, exited, or was declared
    /// dead.
    Disconnected,
}

/// The link layer beneath a [`crate::RankCtx`]: framed point-to-point
/// delivery, a rendezvous barrier, peer liveness, and the watchdog that
/// converts hangs into structured deadlock reports. One instance per
/// rank; implementations must be [`Send`] (a rank's context moves onto
/// its thread or process).
pub(crate) trait Transport: Send {
    /// Queues `msg` for `dst`. `Err(PeerGone)` means the peer is known
    /// dead — the caller decides whether that is fatal (no failover) or
    /// survivable. Delivery to a live peer must be reliable and FIFO.
    fn send(&mut self, dst: usize, msg: Msg) -> Result<(), PeerGone>;

    /// Blocks up to `timeout` for the next frame from `src`.
    fn recv_deadline(&mut self, src: usize, timeout: Duration) -> RecvOutcome;

    /// Rendezvous of all ranks; `false` when the transport's watchdog
    /// timeout expired first.
    fn barrier_wait(&mut self) -> bool;

    /// Death-aware rendezvous: waits only for ranks still alive.
    fn barrier_wait_alive(&mut self) -> bool;

    /// Failover commit rendezvous: all survivors rendezvous, then one
    /// party evaluates "was generation `gen` poisoned by a death?" and
    /// publishes the verdict to everyone. `Some(true)` = commit,
    /// `Some(false)` = abort and retry, `None` = timed out.
    fn commit_wait(&mut self, gen: u32) -> Option<bool>;

    /// Registers `rank` as dead in generation `gen` (failover mode).
    fn mark_dead(&self, rank: usize, gen: u32);

    /// Every death recorded so far, in detection order.
    fn deaths(&self) -> Vec<DeathRecord>;

    /// The watchdog timeout bounding every blocking wait.
    fn timeout(&self) -> Duration;

    /// Registers what `rank` is about to block on (for deadlock reports).
    fn wd_begin(
        &self,
        rank: usize,
        kind: WaitKind,
        peer: Option<usize>,
        tag: Option<u8>,
        epoch: Option<usize>,
    );

    /// Clears `rank`'s registered wait.
    fn wd_end(&self, rank: usize);

    /// Snapshots every registered wait into a deadlock report.
    fn wd_report(&self, rank: usize) -> DeadlockReport;
}
