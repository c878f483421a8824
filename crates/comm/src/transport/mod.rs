//! Pluggable link layer beneath [`crate::RankCtx`].
//!
//! Everything *above* this trait — sequence numbers, end-to-end
//! checksums, retransmit pricing, collectives, tracing — is
//! backend-independent and lives in [`crate::ctx`], and so does the
//! deadlock watchdog ([`crate::watchdog`]). A
//! [`Transport`] is a link: it moves already-framed [`Msg`]s between
//! ranks, runs a rendezvous barrier, and reports a peer it knows to be
//! gone:
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

use crate::msg::Msg;

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
/// delivery and a rendezvous barrier. One instance per rank;
/// implementations must be [`Send`] (a rank's context moves onto its
/// thread or process).
pub(crate) trait Transport: Send {
    /// Queues `msg` for `dst`. `Err(PeerGone)` means the peer is known
    /// dead, which the caller treats as fatal. Delivery to a live peer
    /// must be reliable and FIFO.
    fn send(&mut self, dst: usize, msg: Msg) -> Result<(), PeerGone>;

    /// Blocks up to `timeout` for the next frame from `src`.
    fn recv_deadline(&mut self, src: usize, timeout: Duration) -> RecvOutcome;

    /// Rendezvous of all ranks; `false` when `timeout` expired first.
    fn barrier_wait(&mut self, timeout: Duration) -> bool;
}
