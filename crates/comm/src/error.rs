//! Structured failure reporting for SPMD runs.
//!
//! A [`crate::ThreadWorld::try_run`] either returns every rank's result
//! or a [`WorldError`] describing *why* the world died: which rank
//! panicked (and with what message), which injected fault crashed it, or
//! — for protocol bugs that would previously hang forever — a
//! [`DeadlockReport`] built by the watchdog from the wait-for state of
//! every blocked rank.

use std::any::Any;
use std::fmt;
use std::time::Duration;

use crate::ctx::tag_name;

/// What a blocked rank was waiting on when the watchdog fired.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WaitKind {
    /// Blocked in a point-to-point or collective receive.
    Recv,
    /// Blocked in [`crate::RankCtx::barrier`].
    Barrier,
}

/// One blocked rank in a [`DeadlockReport`].
#[derive(Clone, Debug)]
pub struct BlockedRank {
    /// The blocked rank.
    pub rank: usize,
    /// How it is blocked.
    pub kind: WaitKind,
    /// The peer it waits for (`None` for barriers).
    pub waiting_on: Option<usize>,
    /// The message tag it expects (see [`crate::ctx`] tag constants).
    pub tag: Option<u8>,
    /// The trainer epoch the rank was in, if it reported one.
    pub epoch: Option<usize>,
    /// How long it had been waiting when the report was built.
    pub waited: Duration,
}

impl fmt::Display for BlockedRank {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            WaitKind::Barrier => write!(f, "rank {} blocked in barrier", self.rank)?,
            WaitKind::Recv => {
                write!(f, "rank {} blocked in recv", self.rank)?;
                if let Some(peer) = self.waiting_on {
                    write!(f, " from rank {peer}")?;
                }
                if let Some(tag) = self.tag {
                    write!(f, " (expecting {})", tag_name(tag))?;
                }
            }
        }
        if let Some(e) = self.epoch {
            write!(f, " [epoch {e}]")?;
        }
        write!(f, " for {:.0} ms", self.waited.as_secs_f64() * 1e3)
    }
}

/// The wait-for snapshot the watchdog converts a hang into.
#[derive(Clone, Debug)]
pub struct DeadlockReport {
    /// The rank whose timeout expired first and built the report.
    pub detected_by: usize,
    /// The configured watchdog timeout.
    pub timeout: Duration,
    /// Every rank that was blocked at detection time, in rank order.
    pub blocked: Vec<BlockedRank>,
}

impl DeadlockReport {
    /// Ids of all blocked ranks, in rank order.
    pub fn blocked_ranks(&self) -> Vec<usize> {
        self.blocked.iter().map(|b| b.rank).collect()
    }

    /// Whether `rank` appears in the blocked set.
    pub fn names(&self, rank: usize) -> bool {
        self.blocked.iter().any(|b| b.rank == rank)
    }
}

impl fmt::Display for DeadlockReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "deadlock detected by rank {} after {:.0} ms: ",
            self.detected_by,
            self.timeout.as_secs_f64() * 1e3
        )?;
        if self.blocked.is_empty() {
            return write!(f, "no ranks registered as blocked");
        }
        for (i, b) in self.blocked.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{b}")?;
        }
        Ok(())
    }
}

/// Why a world run failed.
#[derive(Clone, Debug)]
pub enum WorldError {
    /// A rank panicked; `message` is the downcast panic payload.
    Panicked {
        /// The panicking rank.
        rank: usize,
        /// The panic message (or a placeholder for non-string payloads).
        message: String,
    },
    /// A [`crate::fault::Fault::CrashAt`] fault killed a rank.
    InjectedCrash {
        /// The crashed rank.
        rank: usize,
        /// The epoch the rank was in when it crashed, if tracked.
        epoch: Option<usize>,
        /// The per-epoch operation index at which the crash fired.
        op: u64,
    },
    /// The watchdog converted a hang into a structured report.
    Deadlock(DeadlockReport),
}

impl WorldError {
    /// Whether a driver can reasonably retry the run (e.g. restore from a
    /// checkpoint and resume). Injected crashes model transient node
    /// failures and are retryable. Deadlocks and real panics are
    /// deterministic program bugs.
    pub fn is_recoverable(&self) -> bool {
        matches!(self, WorldError::InjectedCrash { .. })
    }
}

impl fmt::Display for WorldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorldError::Panicked { rank, message } => {
                write!(f, "rank {rank} panicked: {message}")
            }
            WorldError::InjectedCrash { rank, epoch, op } => {
                write!(f, "rank {rank} crashed (injected fault)")?;
                if let Some(e) = epoch {
                    write!(f, " at epoch {e}")?;
                }
                write!(f, ", op {op}")
            }
            WorldError::Deadlock(report) => write!(f, "{report}"),
        }
    }
}

impl std::error::Error for WorldError {}

/// Why a rank unwound, in the order a run reports causes: an injected
/// crash (the planned root cause) beats an organic panic, which beats a deadlock report
/// (ranks parked at a barrier while a peer dies time out as a
/// *consequence*, not a cause); a "peer hung up" unwind is the cascade
/// of some other rank's death and is reported only when nothing better
/// is available.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Cause {
    Crash,
    Organic,
    Deadlock,
    Cascade,
}

impl WorldError {
    /// Classifies the unwind payload of `rank` — one of this module's
    /// typed payloads or a genuine panic's message — into the error it
    /// reports and the [`Cause`] that ranks it against other ranks'.
    pub(crate) fn from_unwind(rank: usize, payload: &(dyn Any + Send)) -> (Cause, WorldError) {
        if let Some(c) = payload.downcast_ref::<CrashPanic>() {
            let (rank, epoch, op) = (c.rank, c.epoch, c.op);
            (Cause::Crash, WorldError::InjectedCrash { rank, epoch, op })
        } else if let Some(d) = payload.downcast_ref::<DeadlockPanic>() {
            (Cause::Deadlock, WorldError::Deadlock(d.0.clone()))
        } else if let Some(h) = payload.downcast_ref::<PeerHungUp>() {
            let message = h.to_string();
            (Cause::Cascade, WorldError::Panicked { rank, message })
        } else {
            let message = if let Some(s) = payload.downcast_ref::<&'static str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "<non-string panic payload>".to_string()
            };
            (Cause::Organic, WorldError::Panicked { rank, message })
        }
    }
}

/// Unwinds the calling rank with one of this module's typed payloads.
/// The runtime's own unwinds are control flow that a run entry point
/// catches and classifies into one [`WorldError`], so they go through
/// `resume_unwind`, which — unlike `panic_any` — never invokes the panic
/// hook: a recovered run prints nothing, and a rank's genuine `panic!`
/// still reports through whatever hook the process has.
pub(crate) fn unwind_with(payload: impl std::any::Any + Send) -> ! {
    std::panic::resume_unwind(Box::new(payload))
}

/// Unwind payload carrying a deadlock report out of a rank thread.
pub(crate) struct DeadlockPanic(pub DeadlockReport);

/// Unwind payload of a rank whose peer's channel closed under it: the
/// cascade some other rank's death leaves behind, reported only when no
/// root cause is.
pub(crate) struct PeerHungUp {
    pub rank: usize,
    pub peer: usize,
    /// What the rank was doing, as the sentence's tail.
    pub waiting_for: String,
}

impl fmt::Display for PeerHungUp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (rank, peer, doing) = (self.rank, self.peer, &self.waiting_for);
        write!(
            f,
            "rank {rank}: peer rank {peer} hung up (crashed?) {doing}"
        )
    }
}

/// Panic payload for an injected crash.
pub(crate) struct CrashPanic {
    pub rank: usize,
    pub epoch: Option<usize>,
    pub op: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> DeadlockReport {
        DeadlockReport {
            detected_by: 0,
            timeout: Duration::from_millis(250),
            blocked: vec![
                BlockedRank {
                    rank: 0,
                    kind: WaitKind::Recv,
                    waiting_on: Some(1),
                    tag: Some(crate::ctx::tag::P2P),
                    epoch: Some(3),
                    waited: Duration::from_millis(250),
                },
                BlockedRank {
                    rank: 1,
                    kind: WaitKind::Barrier,
                    waiting_on: None,
                    tag: None,
                    epoch: None,
                    waited: Duration::from_millis(100),
                },
            ],
        }
    }

    #[test]
    fn report_names_blocked_ranks() {
        let r = report();
        assert_eq!(r.blocked_ranks(), vec![0, 1]);
        assert!(r.names(1));
        assert!(!r.names(2));
    }

    #[test]
    fn display_is_informative() {
        let msg = WorldError::Deadlock(report()).to_string();
        assert!(msg.contains("deadlock detected by rank 0"), "{msg}");
        assert!(msg.contains("rank 0 blocked in recv from rank 1"), "{msg}");
        assert!(msg.contains("epoch 3"), "{msg}");
        assert!(msg.contains("rank 1 blocked in barrier"), "{msg}");

        let msg = WorldError::Panicked {
            rank: 2,
            message: "boom".into(),
        }
        .to_string();
        assert!(msg.contains("rank 2 panicked: boom"), "{msg}");

        let msg = WorldError::InjectedCrash {
            rank: 1,
            epoch: Some(4),
            op: 7,
        }
        .to_string();
        assert!(msg.contains("rank 1 crashed"), "{msg}");
        assert!(msg.contains("epoch 4"), "{msg}");
    }

    #[test]
    fn only_injected_crashes_are_recoverable() {
        assert!(WorldError::InjectedCrash {
            rank: 0,
            epoch: None,
            op: 0
        }
        .is_recoverable());
        assert!(!WorldError::Panicked {
            rank: 0,
            message: String::new()
        }
        .is_recoverable());
        assert!(!WorldError::Deadlock(report()).is_recoverable());
    }
}
