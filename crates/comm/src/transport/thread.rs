//! The thread-backed [`Transport`]: a full mesh of unbounded in-process
//! channels plus the world's shared [`TimeoutBarrier`]. This is the
//! original simulator link layer — the bit-exact oracle the process
//! backend is differenced against.

use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::Duration;

use crate::msg::Msg;
use crate::watchdog::TimeoutBarrier;

use super::{PeerGone, RecvOutcome, Transport};

/// Channel-mesh link layer for one rank: `to[dst]` feeds the peer's
/// `from[src]` (unbounded, so sends never block — the MPI eager-protocol
/// analogue).
pub(crate) struct ThreadTransport {
    to: Vec<Sender<Msg>>,
    from: Vec<Receiver<Msg>>,
    barrier: Arc<TimeoutBarrier>,
}

impl ThreadTransport {
    pub(crate) fn new(
        to: Vec<Sender<Msg>>,
        from: Vec<Receiver<Msg>>,
        barrier: Arc<TimeoutBarrier>,
    ) -> Self {
        assert_eq!(to.len(), from.len(), "one sender and one receiver per peer");
        Self { to, from, barrier }
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

    fn barrier_wait(&mut self, timeout: Duration) -> bool {
        self.barrier.wait(timeout)
    }
}
