//! The deadlock watchdog and degraded-mode failover.
//!
//! Every blocking operation registers *what it waits for* in the
//! [`Watchdog`] before blocking and deregisters on success. When any
//! rank's wait exceeds the world timeout, it snapshots the registry into
//! a [`DeadlockReport`] — which rank is blocked on which peer, with
//! which tag, in which epoch — and unwinds with it, so
//! [`crate::ThreadWorld::try_run`] can surface a structured
//! [`crate::WorldError::Deadlock`] instead of hanging the process
//! forever. Every [`crate::RankCtx`] holds its world's watchdog, on
//! both backends.
//!
//! [`Failover`] is the whole failover protocol's shared state: the
//! death registry plus the death-aware rendezvous over the world's
//! [`TimeoutBarrier`]. Only [`crate::ThreadWorld::try_run_failover`]
//! builds one; the link layer knows nothing of it.

use std::sync::{Arc, Condvar, Mutex, MutexGuard};
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

/// One recorded rank death.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct DeathRecord {
    /// The dead rank.
    pub rank: usize,
    /// The failover generation the rank died in.
    pub gen: u32,
}

/// Degraded-mode failover state of one thread-world run: a crashing
/// rank marks itself dead *before* unwinding, so survivors can consult
/// the registry when a channel disconnects or the commit barrier
/// shrinks; barriers and epoch commits wait only for the living.
#[derive(Debug)]
pub(crate) struct Failover {
    p: usize,
    barrier: Arc<TimeoutBarrier>,
    deaths: Mutex<Vec<DeathRecord>>,
}

impl Failover {
    /// Failover over a world of `p` ranks rendezvousing at `barrier`.
    pub(crate) fn new(p: usize, barrier: Arc<TimeoutBarrier>) -> Self {
        Self {
            p,
            barrier,
            deaths: Mutex::new(Vec::new()),
        }
    }

    fn registry(&self) -> MutexGuard<'_, Vec<DeathRecord>> {
        // Nothing that can panic runs under this lock.
        self.deaths.lock().expect("death registry poisoned")
    }

    /// Records that `rank` died during failover generation `gen`.
    pub(crate) fn mark_dead(&self, rank: usize, gen: u32) {
        let mut deaths = self.registry();
        if !deaths.iter().any(|d| d.rank == rank) {
            deaths.push(DeathRecord { rank, gen });
        }
    }

    /// Snapshot of all recorded deaths, in registration order.
    pub(crate) fn deaths(&self) -> Vec<DeathRecord> {
        self.registry().clone()
    }

    /// Ranks still alive.
    pub(crate) fn alive_count(&self) -> usize {
        self.p - self.registry().len()
    }

    /// Rendezvous of the ranks still alive; `false` on timeout.
    pub(crate) fn barrier_alive(&self, timeout: Duration) -> bool {
        self.barrier.wait_with(timeout, || self.alive_count())
    }

    /// Epoch commit: the survivors rendezvous, then one party rules
    /// "was generation `gen` poisoned by a death?" and every survivor
    /// gets that verdict. `Some(true)` = commit, `Some(false)` = abort
    /// and retry, `None` = timed out. All survivors enter with equal
    /// `gen` (they bump in lockstep on every poisoned verdict), so
    /// whichever rank rules sees the same generation stamp.
    pub(crate) fn commit(&self, gen: u32, timeout: Duration) -> Option<bool> {
        self.barrier.wait_verdict(
            timeout,
            || self.alive_count(),
            || !self.registry().iter().any(|d| d.gen == gen),
        )
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
    /// Verdict published by the releasing party of the most recently
    /// completed generation (see [`TimeoutBarrier::wait_verdict`]).
    verdict: bool,
}

impl TimeoutBarrier {
    pub(crate) fn new(p: usize) -> Self {
        Self {
            p,
            state: Mutex::new(BarrierState {
                count: 0,
                generation: 0,
                verdict: true,
            }),
            cv: Condvar::new(),
        }
    }

    /// Waits for all `p` ranks; `false` if `timeout` elapsed first.
    pub(crate) fn wait(&self, timeout: Duration) -> bool {
        self.wait_with(timeout, || self.p)
    }

    /// Death-aware wait: releases once the arrival count reaches
    /// `required()`, re-evaluated on a short poll slice so a party that
    /// dies *while others already wait* still releases the barrier (the
    /// arrival count never reaches the original `p`, but `required()`
    /// shrinks to match the survivors). Returns `false` on timeout.
    pub(crate) fn wait_with(&self, timeout: Duration, required: impl Fn() -> usize) -> bool {
        self.wait_verdict(timeout, required, || true).is_some()
    }

    /// Death-aware wait that also agrees on a verdict: the party that
    /// trips the release evaluates `verdict()` exactly once, under the
    /// barrier lock, and every waiter of that generation returns the
    /// published value. `None` on timeout.
    ///
    /// This is what makes the failover epoch commit race-free. Each rank
    /// deciding for itself *after* release would race against a peer
    /// that passes the barrier, commits cleanly, and crashes immediately
    /// afterwards: ranks reading the death registry before and after
    /// that crash would reach different verdicts and diverge. Publishing
    /// one verdict at release time removes the window. The single slot
    /// cannot be overwritten before every waiter has read it: the next
    /// generation cannot complete until every alive party arrives again,
    /// which requires having woken from this one first.
    pub(crate) fn wait_verdict(
        &self,
        timeout: Duration,
        required: impl Fn() -> usize,
        verdict: impl Fn() -> bool,
    ) -> Option<bool> {
        let deadline = Instant::now() + timeout;
        let slice = Duration::from_millis(5);
        let mut st = self.state.lock().unwrap();
        let gen = st.generation;
        st.count += 1;
        let release = |st: &mut BarrierState| {
            st.count = 0;
            st.generation += 1;
            st.verdict = verdict();
            self.cv.notify_all();
            st.verdict
        };
        if st.count >= required() {
            return Some(release(&mut st));
        }
        while st.generation == gen {
            if st.count >= required() {
                return Some(release(&mut st));
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _) = self.cv.wait_timeout(st, slice.min(deadline - now)).unwrap();
            st = guard;
        }
        Some(st.verdict)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn death_registry_dedups_and_counts() {
        let fo = Failover::new(4, Arc::new(TimeoutBarrier::new(4)));
        assert_eq!(fo.alive_count(), 4);
        fo.mark_dead(2, 0);
        fo.mark_dead(2, 1); // second report of the same rank is ignored
        fo.mark_dead(3, 1);
        assert_eq!(fo.alive_count(), 2);
        let deaths = fo.deaths();
        assert_eq!(deaths.len(), 2);
        assert_eq!(deaths[0], DeathRecord { rank: 2, gen: 0 });
        assert_eq!(deaths[1], DeathRecord { rank: 3, gen: 1 });
    }

    #[test]
    fn death_aware_wait_releases_when_requirement_shrinks() {
        // 3-party barrier, but one party "dies" shortly after the other
        // two arrive: the requirement drops to 2 and both release.
        let b = Arc::new(TimeoutBarrier::new(3));
        let alive = Arc::new(Mutex::new(3usize));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let b = b.clone();
                let alive = alive.clone();
                std::thread::spawn(move || {
                    b.wait_with(Duration::from_secs(5), || *alive.lock().unwrap())
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(30));
        *alive.lock().unwrap() = 2;
        for h in handles {
            assert!(h.join().unwrap(), "survivors must release");
        }
    }
}
