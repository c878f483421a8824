//! The link-rule runtime of a [`FaultPlan`]: the process backend's
//! deterministic network-chaos interposer.
//!
//! A [`Chaos`] sits between the frame codec and the socket and applies
//! the plan's link rules (`delay`, `bw`, `cut`, `partition`, `refuse`;
//! grammar in [`crate::fault`]) the way real interconnects misbehave:
//! per-link latency with jitter, bandwidth caps, connections that die
//! after N bytes, one-way and symmetric partitions with scheduled heal
//! times, and connection-refused windows during rendezvous. Every
//! perturbation is a pure function of `(seed, link, counter, window
//! clock)`, so the same spec replays the same fault schedule — the
//! chaos soak tests assert the trained weights stay bit-identical to
//! the `ThreadWorld` oracle under every fault class. Windowed rules
//! skip restart generations after the first unless suffixed `/all`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use super::net::{lock_or_recover, splitmix64};
use crate::fault::{FaultPlan, LinkRule};

/// What the interposer decided for one outbound frame.
pub(crate) enum SendVerdict {
    /// Write the frame after holding it for `delay` (latency + token
    /// bucket; zero when no shaping rule matches).
    Deliver { delay: Duration },
    /// Sever the connection instead of writing (partition onset or a
    /// cut threshold crossed); the frame stays queued for replay.
    Sever { why: &'static str },
}

/// One recorded fault activation (exported onto the trace wall axis).
#[derive(Clone, Copy, Debug)]
pub(crate) struct ChaosEvent {
    /// Seconds since transport start.
    pub wall_s: f64,
    /// The peer on the affected link.
    pub peer: usize,
    /// `"sever"`, `"cut"`, or `"refused"`.
    pub what: &'static str,
}

/// Cap on recorded fault activations (severs/refusals fire once per
/// reconnect attempt, so a long partition could otherwise grow this
/// without bound).
const MAX_EVENTS: usize = 512;

/// Per-link interposer state.
struct LinkState {
    /// Bytes sent on this directed link (cut-rule trigger).
    bytes_sent: AtomicU64,
    /// Jitter draw counter (the deterministic "randomness" axis).
    draws: AtomicU64,
    /// The cut rule fired (sever once, not on every later frame).
    cut_fired: AtomicBool,
    /// Token bucket: µs-since-start when the link is next free.
    busy_until_us: Mutex<u64>,
    /// A partition sever already fired for the current window (reset
    /// when the window closes, so a later window severs again).
    partition_severed: AtomicBool,
}

/// The per-process chaos runtime: one per transport, consulted on the
/// frame write path and at dial/accept time. `me` is this rank,
/// `generation` the supervised restart generation (windowed faults
/// default to generation 0 — see the module docs).
pub(crate) struct Chaos {
    rules: Vec<LinkRule>,
    seed: u64,
    me: usize,
    generation: u64,
    links: Vec<LinkState>,
    /// Frames held back by delay/bandwidth shaping.
    pub(crate) delays_injected: AtomicU64,
    /// Connections severed (partition onset + cut thresholds).
    pub(crate) severs_injected: AtomicU64,
    /// Dials refused (partition or refuse windows).
    pub(crate) dials_refused: AtomicU64,
    events: Mutex<Vec<ChaosEvent>>,
}

impl Chaos {
    pub(crate) fn new(plan: &FaultPlan, me: usize, p: usize, generation: u64) -> Self {
        let links = (0..p)
            .map(|_| LinkState {
                bytes_sent: AtomicU64::new(0),
                draws: AtomicU64::new(0),
                cut_fired: AtomicBool::new(false),
                busy_until_us: Mutex::new(0),
                partition_severed: AtomicBool::new(false),
            })
            .collect();
        Chaos {
            rules: plan.links.clone(),
            seed: plan.seed,
            me,
            generation,
            links,
            delays_injected: AtomicU64::new(0),
            severs_injected: AtomicU64::new(0),
            dials_refused: AtomicU64::new(0),
            events: Mutex::new(Vec::new()),
        }
    }

    fn windowed_applies(&self, all_gens: bool) -> bool {
        all_gens || self.generation == 0
    }

    /// Is the directed link `src → dst` inside an active partition?
    pub(crate) fn partitioned(&self, src: usize, dst: usize, now_ms: u64) -> bool {
        self.rules.iter().any(|r| match r {
            LinkRule::Partition {
                link,
                window,
                all_gens,
            } => self.windowed_applies(*all_gens) && link.covers(src, dst) && window.active(now_ms),
            _ => false,
        })
    }

    /// Should a dial from `me` to `dst` be refused right now? A dial
    /// needs both directions of the link (SYN out, accept back), so
    /// either one-way partition blocks it; `refuse` windows model the
    /// listener not being there at all.
    pub(crate) fn dial_refused(&self, dst: usize, now_ms: u64) -> Option<&'static str> {
        let refused = self.rules.iter().any(|r| match r {
            LinkRule::Refuse {
                rank,
                window,
                all_gens,
            } => self.windowed_applies(*all_gens) && *rank == dst && window.active(now_ms),
            _ => false,
        });
        if refused {
            self.note_event(dst, "refused", now_ms);
            self.dials_refused.fetch_add(1, Ordering::Relaxed);
            return Some("chaos: connection-refused window");
        }
        if self.partitioned(self.me, dst, now_ms) || self.partitioned(dst, self.me, now_ms) {
            self.note_event(dst, "refused", now_ms);
            self.dials_refused.fetch_add(1, Ordering::Relaxed);
            return Some("chaos: link partitioned");
        }
        None
    }

    /// Consulted before every outbound frame on the link `me → dst`.
    /// `now_us` is microseconds since transport start.
    pub(crate) fn on_send(&self, dst: usize, nbytes: u64, now_us: u64) -> SendVerdict {
        let now_ms = now_us / 1000;
        let link = &self.links[dst];
        if self.partitioned(self.me, dst, now_ms) {
            // Sever once per window; while severed, writes never reach
            // this point (the stream slot is empty).
            if !link.partition_severed.swap(true, Ordering::SeqCst) {
                self.severs_injected.fetch_add(1, Ordering::Relaxed);
                self.note_event(dst, "sever", now_ms);
            }
            return SendVerdict::Sever {
                why: "chaos: partition onset",
            };
        }
        link.partition_severed.store(false, Ordering::SeqCst);

        let sent = link.bytes_sent.fetch_add(nbytes, Ordering::Relaxed) + nbytes;
        for r in &self.rules {
            if let LinkRule::Cut {
                link: sel,
                after_bytes,
                all_gens,
            } = r
            {
                if self.windowed_applies(*all_gens)
                    && sel.covers(self.me, dst)
                    && sent >= *after_bytes
                    && !link.cut_fired.swap(true, Ordering::SeqCst)
                {
                    self.severs_injected.fetch_add(1, Ordering::Relaxed);
                    self.note_event(dst, "cut", now_ms);
                    return SendVerdict::Sever {
                        why: "chaos: cut threshold crossed",
                    };
                }
            }
        }

        let mut delay_us: u64 = 0;
        for r in &self.rules {
            match r {
                LinkRule::Delay {
                    link: sel,
                    base_ms,
                    jitter_ms,
                } if sel.covers(self.me, dst) => {
                    let mut d = base_ms * 1000;
                    if *jitter_ms > 0 {
                        let n = link.draws.fetch_add(1, Ordering::Relaxed);
                        let key = self
                            .seed
                            .wrapping_add((self.me as u64) << 40)
                            .wrapping_add((dst as u64) << 20)
                            .wrapping_add(n);
                        // Uniform in [-jitter, +jitter] µs, clamped at 0.
                        let span = jitter_ms * 2000 + 1;
                        let off = splitmix64(key) % span;
                        d = (d + off).saturating_sub(jitter_ms * 1000);
                    }
                    delay_us = delay_us.saturating_add(d);
                }
                LinkRule::Bandwidth {
                    link: sel,
                    bytes_per_sec,
                } if sel.covers(self.me, dst) => {
                    // Token bucket on the wall clock: each frame
                    // occupies the link for nbytes/rate seconds; a
                    // frame arriving early waits for the link to free.
                    let occupy_us = nbytes.saturating_mul(1_000_000) / bytes_per_sec;
                    let mut busy = lock_or_recover(&link.busy_until_us);
                    let start = (*busy).max(now_us);
                    *busy = start.saturating_add(occupy_us);
                    delay_us = delay_us.saturating_add(*busy - now_us);
                }
                _ => {}
            }
        }
        if delay_us > 0 {
            self.delays_injected.fetch_add(1, Ordering::Relaxed);
        }
        SendVerdict::Deliver {
            delay: Duration::from_micros(delay_us),
        }
    }

    fn note_event(&self, peer: usize, what: &'static str, now_ms: u64) {
        let mut ev = lock_or_recover(&self.events);
        if ev.len() < MAX_EVENTS {
            ev.push(ChaosEvent {
                wall_s: now_ms as f64 / 1000.0,
                peer,
                what,
            });
        }
    }

    /// Drains the recorded fault activations (trace export at run end).
    pub(crate) fn take_events(&self) -> Vec<ChaosEvent> {
        std::mem::take(&mut *lock_or_recover(&self.events))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitions_cover_directions_and_windows() {
        let plan = FaultPlan::parse("partition=0-1@100..200;partition=2>3@50..").unwrap();
        let c = Chaos::new(&plan, 0, 4, 0);
        assert!(!c.partitioned(0, 1, 99));
        assert!(c.partitioned(0, 1, 100));
        assert!(c.partitioned(1, 0, 150), "symmetric covers both ways");
        assert!(!c.partitioned(0, 1, 200), "heals at window end");
        assert!(c.partitioned(2, 3, 1_000_000), "one-way never heals");
        assert!(!c.partitioned(3, 2, 1_000_000), "reverse direction open");
    }

    #[test]
    fn windowed_faults_skip_later_generations() {
        let plan = FaultPlan::parse("partition=0-1@0..;refuse=0@0..").unwrap();
        let gen0 = Chaos::new(&plan, 1, 2, 0);
        assert!(gen0.partitioned(0, 1, 10));
        assert!(gen0.dial_refused(0, 10).is_some());
        let gen1 = Chaos::new(&plan, 1, 2, 1);
        assert!(!gen1.partitioned(0, 1, 10));
        assert!(gen1.dial_refused(0, 10).is_none());
        let sticky = FaultPlan::parse("partition=0-1@0../all").unwrap();
        assert!(Chaos::new(&sticky, 1, 2, 3).partitioned(0, 1, 10));
    }

    #[test]
    fn delay_jitter_is_deterministic_and_bounded() {
        let plan = FaultPlan::parse("seed=9;delay=0>1:5+-3").unwrap();
        let a = Chaos::new(&plan, 0, 2, 0);
        let b = Chaos::new(&plan, 0, 2, 0);
        for i in 0..64 {
            let (va, vb) = (a.on_send(1, 100, i * 1000), b.on_send(1, 100, i * 1000));
            match (va, vb) {
                (SendVerdict::Deliver { delay: da }, SendVerdict::Deliver { delay: db }) => {
                    assert_eq!(da, db, "draw {i} must replay identically");
                    assert!(da >= Duration::from_millis(2) && da <= Duration::from_millis(8));
                }
                _ => panic!("delay rule must deliver"),
            }
        }
    }

    #[test]
    fn bandwidth_cap_accumulates_backpressure() {
        // 1 MB/s; a 100 kB frame occupies 100 ms of link time.
        let plan = FaultPlan::parse("bw=*>*:1000000").unwrap();
        let c = Chaos::new(&plan, 0, 2, 0);
        let d1 = match c.on_send(1, 100_000, 0) {
            SendVerdict::Deliver { delay } => delay,
            _ => panic!(),
        };
        let d2 = match c.on_send(1, 100_000, 0) {
            SendVerdict::Deliver { delay } => delay,
            _ => panic!(),
        };
        assert_eq!(d1, Duration::from_millis(100));
        assert_eq!(d2, Duration::from_millis(200), "second frame queues behind");
    }

    #[test]
    fn cut_fires_once_at_threshold() {
        let plan = FaultPlan::parse("cut=0>1:1000").unwrap();
        let c = Chaos::new(&plan, 0, 2, 0);
        assert!(matches!(c.on_send(1, 600, 0), SendVerdict::Deliver { .. }));
        assert!(matches!(c.on_send(1, 600, 1000), SendVerdict::Sever { .. }));
        assert!(
            matches!(c.on_send(1, 600, 2000), SendVerdict::Deliver { .. }),
            "cut severs once, then the link behaves"
        );
        assert_eq!(c.severs_injected.load(Ordering::Relaxed), 1);
        assert_eq!(c.take_events().len(), 1);
    }
}
