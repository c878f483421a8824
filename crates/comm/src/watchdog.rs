//! The deadlock watchdog and the timed barrier.
//!
//! Every blocking operation registers *what it waits for* in the
//! [`Watchdog`] before blocking and deregisters on success. When any
//! rank's wait exceeds the world timeout, it snapshots the registry into
//! a [`DeadlockReport`] — which rank is blocked on which peer, with
//! which tag, in which epoch — and unwinds with it, so
//! [`crate::ThreadWorld::try_run`] can surface a structured
//! [`crate::WorldError::Deadlock`] instead of hanging the process
//! forever. Every [`crate::RankCtx`] holds its world's watchdog, on
//! both backends. [`TimeoutBarrier`] is the thread world's rendezvous.

use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::error::{BlockedRank, DeadlockReport, WaitKind};

/// One rank's registered wait.
#[derive(Clone, Copy, Debug)]
struct WaitState {
    kind: WaitKind,
    peer: Option<usize>,
    tag: Option<u8>,
    epoch: Option<usize>,
    since: Instant,
}

/// Shared wait-for registry for one world run (one per rank process on
/// the process backend).
#[derive(Debug)]
pub(crate) struct Watchdog {
    timeout: Duration,
    waits: Vec<Mutex<Option<WaitState>>>,
}

impl Watchdog {
    pub(crate) fn new(p: usize, timeout: Duration) -> Self {
        Self {
            timeout,
            waits: (0..p).map(|_| Mutex::new(None)).collect(),
        }
    }

    /// The timeout bounding every watched wait.
    pub(crate) fn timeout(&self) -> Duration {
        self.timeout
    }

    /// Registers that `rank` is about to block.
    pub(crate) fn begin(
        &self,
        rank: usize,
        kind: WaitKind,
        peer: Option<usize>,
        tag: Option<u8>,
        epoch: Option<usize>,
    ) {
        *self.waits[rank].lock().unwrap() = Some(WaitState {
            kind,
            peer,
            tag,
            epoch,
            since: Instant::now(),
        });
    }

    /// Deregisters `rank` after its wait completed.
    pub(crate) fn end(&self, rank: usize) {
        *self.waits[rank].lock().unwrap() = None;
    }

    /// Snapshots every currently blocked rank into a report.
    pub(crate) fn report(&self, detected_by: usize) -> DeadlockReport {
        let now = Instant::now();
        let blocked = self
            .waits
            .iter()
            .enumerate()
            .filter_map(|(rank, w)| {
                w.lock().unwrap().map(|s| BlockedRank {
                    rank,
                    kind: s.kind,
                    waiting_on: s.peer,
                    tag: s.tag,
                    epoch: s.epoch,
                    waited: now.saturating_duration_since(s.since),
                })
            })
            .collect();
        DeadlockReport {
            detected_by,
            timeout: self.timeout,
            blocked,
        }
    }
}

/// A reusable rendezvous barrier whose wait can time out (std's
/// [`std::sync::Barrier`] cannot, and an eternal barrier wait is exactly
/// the hang the watchdog exists to kill).
#[derive(Debug)]
pub(crate) struct TimeoutBarrier {
    p: usize,
    state: Mutex<BarrierState>,
    cv: Condvar,
}

#[derive(Debug)]
struct BarrierState {
    count: usize,
    generation: u64,
}

impl TimeoutBarrier {
    pub(crate) fn new(p: usize) -> Self {
        Self {
            p,
            state: Mutex::new(BarrierState {
                count: 0,
                generation: 0,
            }),
            cv: Condvar::new(),
        }
    }

    /// Waits for all `p` ranks; `false` if `timeout` elapsed first.
    pub(crate) fn wait(&self, timeout: Duration) -> bool {
        let mut st = self.state.lock().unwrap();
        let gen = st.generation;
        st.count += 1;
        if st.count == self.p {
            st.count = 0;
            st.generation += 1;
            self.cv.notify_all();
            return true;
        }
        let (st, _) = self
            .cv
            .wait_timeout_while(st, timeout, |st| st.generation == gen)
            .unwrap();
        st.generation != gen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn report_includes_only_blocked_ranks() {
        let wd = Watchdog::new(3, Duration::from_millis(100));
        wd.begin(0, WaitKind::Recv, Some(2), Some(1), Some(4));
        wd.begin(1, WaitKind::Barrier, None, None, None);
        wd.begin(2, WaitKind::Recv, Some(0), Some(1), None);
        wd.end(2);
        let r = wd.report(0);
        assert_eq!(r.blocked_ranks(), vec![0, 1]);
        assert_eq!(r.blocked[0].waiting_on, Some(2));
        assert_eq!(r.blocked[0].epoch, Some(4));
        assert_eq!(r.blocked[1].kind, WaitKind::Barrier);
    }

    #[test]
    fn barrier_releases_all_parties() {
        let b = Arc::new(TimeoutBarrier::new(4));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let b = b.clone();
                std::thread::spawn(move || b.wait(Duration::from_secs(5)))
            })
            .collect();
        for h in handles {
            assert!(h.join().unwrap());
        }
    }

    #[test]
    fn barrier_is_reusable_across_generations() {
        let b = Arc::new(TimeoutBarrier::new(2));
        for _ in 0..3 {
            let b2 = b.clone();
            let h = std::thread::spawn(move || b2.wait(Duration::from_secs(5)));
            assert!(b.wait(Duration::from_secs(5)));
            assert!(h.join().unwrap());
        }
    }

    #[test]
    fn barrier_times_out_when_a_party_is_missing() {
        let b = TimeoutBarrier::new(2);
        let t0 = Instant::now();
        assert!(!b.wait(Duration::from_millis(50)));
        assert!(t0.elapsed() >= Duration::from_millis(50));
        assert!(t0.elapsed() < Duration::from_secs(5), "returned promptly");
    }
}
