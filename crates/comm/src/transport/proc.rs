//! The process-backed [`Transport`]: ranks are real OS processes
//! exchanging length-prefixed frames ([`super::wire`]) over Unix-domain
//! sockets — or, with a hostfile ([`crate::HostFile`]), over TCP for
//! multi-node runs.
//!
//! Where [`super::thread::ThreadTransport`] simulates failure with flags
//! and modeled time, this backend faces the real thing:
//!
//! * **Rendezvous** — every rank binds its own mesh listener
//!   (`<dir>/rank<r>.sock`, or a TCP listener on its hostfile port),
//!   non-zero ranks dial rank 0's rendezvous endpoint to REGISTER their
//!   mesh address (retrying with capped exponential backoff + jitter up
//!   to the hard wire-up deadline), and rank 0 replies with the full
//!   ADDRBOOK. Higher ranks then dial lower ranks for a full mesh (one
//!   full-duplex connection per pair). A duplicate REGISTER or a
//!   registrant dying mid-rendezvous fails the world with a structured
//!   error well before the deadline.
//! * **Reliable links** — DATA and barrier frames carry a per-direction
//!   `link_seq` and live in a [`ReplayQueue`] until cumulatively ACKed,
//!   so a reconnect retransmits exactly the unacknowledged suffix and
//!   the receiver's [`DedupWatermark`] filters the duplicates. The
//!   upper layer ([`crate::RankCtx`]) never observes a socket bounce:
//!   its own seq/checksum state machine sees the same frame stream
//!   either way. The link adds no integrity check of its own.
//! * **Lock discipline** — per peer, link bookkeeping ([`Link`]: short
//!   critical sections, never held across a socket call) is split from
//!   the write half (`Peer::writer`: the only lock held across a
//!   blocking write). Reader threads never write and never wait for the write
//!   half; the ACKs they make due are written by the next holder (see
//!   [`Shared::with_writer`]). Rank sockets carry a write timeout equal
//!   to the world timeout, so a write the peer never drains ends as a
//!   link error on the reconnect → replay path, not as a stall.
//! * **Liveness** — a heartbeat thread beacons every peer and marks a
//!   peer dead after a miss threshold; death drops the peer's delivery
//!   channel so blocked receives fail fast with the same "hung up"
//!   semantics the thread backend gets from a dropped channel. The
//!   transport cannot distinguish "peer process died" from "link
//!   partitioned past the deadline" — both exhaust the same budget and
//!   both funnel into the trainer's checkpoint-restart ladder; a
//!   partition that *heals* within the budget is absorbed by
//!   reconnect + replay with bit-identical results.
//! * **Reconnect** — the dialing side (higher rank) redials with capped
//!   exponential backoff + deterministic jitter ([`Backoff`]) on
//!   transient errors; the listening side simply accepts the
//!   replacement connection and replays.
//! * **Shutdown** — a finishing rank sends BYE, drains briefly, then
//!   closes (SIGTERM triggers the same drain then `exit(143)`).
//!   A SIGKILL'd rank never says BYE: peers see an unclean EOF or
//!   missed heartbeats and fail over to the trainer's
//!   checkpoint-restart ladder.
//! * **Waits, not polls** — launch and teardown block on the event
//!   itself: `poll(2)` on the rendezvous and mesh listeners and the held
//!   registrant streams, and one condition variable ([`Shared::notify`])
//!   for a connection installed, a BYE, a death or shutdown. The only
//!   sleeps left are an injected chaos delay, the backoff between
//!   failed dials and the heartbeat thread's tick.
//! * **Network chaos** — the link rules of a [`FaultPlan`] armed with
//!   [`ProcWorld::with_faults`] (its message rules run in
//!   [`crate::RankCtx`], as on the thread backend) drive a
//!   deterministic interposer on the frame write path and the
//!   dial/accept path, injecting seeded per-link latency/jitter,
//!   bandwidth caps, byte-threshold cuts, partitions, and
//!   connection-refused windows — real TCP resets and refused dials,
//!   replayed exactly from the seed. Windowed faults fire only in
//!   supervised restart generation 0 by default (the
//!   `<dir>/generation` file, written by the supervisor via
//!   [`write_proc_generation`], tells children their generation), so a
//!   fault that forces a restart does not re-fire forever.
//!
//! * **Observability** — every link keeps live transport metrics
//!   (frame send latency / receive-gap histograms, retransmit /
//!   reconnect / heartbeat-miss / dial-backoff / partition counters,
//!   wire-vs-logical byte gauges) in [`Shared`]; with
//!   `GNN_PROC_METRICS_MS=<n>` each rank appends a periodic JSONL
//!   snapshot (`metrics-rank<r>.jsonl`) the supervisor can aggregate
//!   while a run is in flight. The rendezvous handshake ends with an
//!   NTP-style clock-offset exchange (CLOCK_PING/PONG request/reply
//!   midpoint) so rank 0 can estimate every peer's monotonic-clock
//!   offset and write `clock-offsets.json` — the sidecar `trace-report
//!   --merge` uses to align per-rank wall-clock traces onto one axis.
//!   Chaos fault activations are exported onto the trace wall axis as
//!   `chaos_*` events at run end.

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufReader, Read, Write};
use std::net::Shutdown;
use std::os::fd::{AsRawFd, RawFd};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError, TryLockError};
use std::time::{Duration, Instant};

use gnn_trace::{EventKind, Histogram, MetricsRegistry, RankTracer};

use crate::cost::CostModel;
use crate::ctx::RankCtx;
use crate::error::WorldError;
use crate::fault::{FaultInjector, FaultPlan};
use crate::msg::Msg;
use crate::pool::PayloadPool;
use crate::stats::RankStats;
use crate::watchdog::Watchdog;

use super::chaos::{Chaos, SendVerdict};
use super::net::{lock_or_recover, poll_readable, splitmix64, Backoff, HostFile, Listener, Stream};
use super::replay::{DedupWatermark, ReplayQueue};
use super::wire::{self, kind, Frame, WireFrame};
use super::{PeerGone, RecvOutcome, Transport};

/// Slice for interruptible blocking waits: how late a receive notices
/// SIGTERM or a dead peer, and the acceptor notices shutdown.
const SLICE: Duration = Duration::from_millis(25);

/// Heartbeat-thread tick: the ACK backstop's period and the resolution
/// of the beacon deadline.
const TICK: Duration = Duration::from_millis(20);

/// Default heartbeat beacon period (override: `GNN_PROC_HEARTBEAT_MS`).
const DEFAULT_HEARTBEAT: Duration = Duration::from_millis(200);

/// Default missed-beacon threshold before a peer is declared dead
/// (override: `GNN_PROC_MISS`).
const DEFAULT_MISS: u32 = 15;

// ---- SIGTERM --------------------------------------------------------------

static TERM_REQUESTED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_sigterm(_sig: i32) {
    TERM_REQUESTED.store(true, Ordering::SeqCst);
}

/// Installs a SIGTERM handler that requests a drain-then-exit. Raw FFI
/// to keep the build dependency-free; `signal` is fine here because the
/// handler only stores to an atomic.
fn install_sigterm_handler() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGTERM: i32 = 15;
    // SAFETY: `signal` only installs the handler. `on_sigterm` has the
    // `extern "C" fn(i32)` signature it calls, and it is
    // async-signal-safe: it does nothing but store to an atomic.
    unsafe {
        signal(SIGTERM, on_sigterm as extern "C" fn(i32) as usize);
    }
}

fn sigterm_requested() -> bool {
    TERM_REQUESTED.load(Ordering::SeqCst)
}

// ---- Errors ---------------------------------------------------------------

/// Failure launching or running one process-backend rank.
#[derive(Debug)]
pub enum ProcError {
    /// Socket or filesystem failure during wire-up or shutdown.
    Io(io::Error),
    /// The rank's body panicked (protocol violation, peer death,
    /// deadlock, injected crash); the message is the decoded payload.
    RankPanicked {
        /// Which rank.
        rank: usize,
        /// Human-readable panic description.
        message: String,
    },
}

impl std::fmt::Display for ProcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProcError::Io(e) => write!(f, "process backend I/O error: {e}"),
            ProcError::RankPanicked { rank, message } => {
                write!(f, "rank {rank} failed: {message}")
            }
        }
    }
}

impl std::error::Error for ProcError {}

impl From<io::Error> for ProcError {
    fn from(e: io::Error) -> Self {
        ProcError::Io(e)
    }
}

// ---- Per-peer connection state -------------------------------------------

/// Link bookkeeping for one peer: sequence assignment, the replay
/// queue, the dedup watermark, and how far our ACKs have got. Every
/// critical section on it is a few loads and stores — it is never held
/// across a socket call.
struct Link {
    /// Sender half of the reliable layer: seq assignment + retained
    /// unACKed frames (see [`super::replay`] for the pinned invariants).
    /// Pruning a frame here is what returns its payload to the pool.
    replay: ReplayQueue<Arc<WireFrame>>,
    /// Receiver half: cumulative delivered watermark for dedup.
    dedup: DedupWatermark,
    /// Highest delivered watermark already written to the peer as an
    /// ACK; an ACK is *due* while `dedup.delivered()` is ahead of it.
    ack_sent: u64,
}

/// Lock discipline (DESIGN.md §8): `writer` may be held while taking
/// `link`, never the other way round; `link` and `sock` take nothing but
/// the payload pool's mutex (an ACK prunes frames under `link`), which is
/// the one true leaf.
struct Peer {
    link: Mutex<Link>,
    /// The write half of the current connection (a `try_clone` of the
    /// reader's stream); `None` while disconnected. The only mutex held
    /// across a blocking socket write. A reader thread of a live
    /// connection never takes it and never writes: its ACKs are written
    /// by whichever other thread holds the write half next (see
    /// [`Shared::with_writer`]).
    writer: Mutex<Option<Stream>>,
    /// A third handle on the current connection, used only to shut it
    /// down: waking a writer blocked on a dead peer must not need the
    /// write half it is holding.
    sock: Mutex<Option<Stream>>,
    /// Bumped (under `writer`) on every (re)connect; readers use it to
    /// tell whether the connection that just died is still the current
    /// one.
    epoch: AtomicU64,
    /// Delivery channel into the owning transport; taking it to `None`
    /// is how death/clean-close turns blocked receives into
    /// `Disconnected` (mirroring a dropped mpsc sender in the thread
    /// backend).
    data_tx: Mutex<Option<Sender<Msg>>>,
    /// Milliseconds since transport start when a frame last arrived.
    last_seen_ms: AtomicU64,
    /// Declared dead by the liveness monitor or reconnect exhaustion.
    dead: AtomicBool,
    /// Peer announced graceful shutdown (BYE).
    bye: AtomicBool,
}

impl Peer {
    fn new() -> Self {
        Peer {
            link: Mutex::new(Link {
                replay: ReplayQueue::new(),
                dedup: DedupWatermark::new(),
                ack_sent: 0,
            }),
            writer: Mutex::new(None),
            sock: Mutex::new(None),
            epoch: AtomicU64::new(0),
            data_tx: Mutex::new(None),
            last_seen_ms: AtomicU64::new(0),
            dead: AtomicBool::new(false),
            bye: AtomicBool::new(false),
        }
    }

    /// Shuts the current connection down without touching the write
    /// half: a writer blocked on it fails at once, the reader sees EOF.
    fn shutdown_sock(&self) {
        if let Some(sock) = lock_or_recover(&self.sock).take() {
            let _ = sock.shutdown(Shutdown::Both);
        }
    }
}

// ---- Transport metrics ----------------------------------------------------

/// Live link-layer metrics for one rank process: lock-free counters on
/// the frame path plus two mutex-guarded latency histograms (socket
/// writes are already serialized per peer, so the lock is uncontended).
/// Snapshot at any time via [`Shared::metrics_registry`].
struct TransportMetrics {
    /// Successful dialer-side reconnects.
    reconnects: AtomicU64,
    /// Reliable frames retransmitted from the replay queue when a
    /// (re)connection was installed.
    replayed_frames: AtomicU64,
    /// Monitor ticks that saw a peer silent past one heartbeat period.
    heartbeat_misses: AtomicU64,
    /// Backoff sleeps across every dial loop (rendezvous, mesh wire-up,
    /// reconnect) — how hard this rank had to fight to get connected.
    dial_backoffs: AtomicU64,
    /// Unclean connection losses while the world was healthy: each one
    /// is a *suspected* partition (indistinguishable from a peer crash
    /// until reconnect either succeeds or exhausts the budget).
    partitions_suspected: AtomicU64,
    /// Reconnections that replaced a previously established link — a
    /// suspected partition that healed within the liveness budget.
    partitions_healed: AtomicU64,
    /// Encoded frame bytes pushed onto sockets (headers included).
    wire_bytes_sent: AtomicU64,
    /// Encoded frame bytes read off sockets (headers included).
    wire_bytes_recv: AtomicU64,
    /// DATA frame body bytes sent (the logical payload volume).
    data_bytes_sent: AtomicU64,
    /// DATA frame body bytes received.
    data_bytes_recv: AtomicU64,
    /// Blocking write+flush latency per reliable frame, microseconds.
    frame_send_us: Mutex<Histogram>,
    /// Gap between consecutive received frames (any peer), microseconds.
    frame_recv_gap_us: Mutex<Histogram>,
    /// Elapsed-µs stamp of the last received frame (`u64::MAX` = none).
    last_recv_us: AtomicU64,
}

impl TransportMetrics {
    /// Power-of-two microsecond buckets from 1 µs to ~1 s.
    fn us_buckets() -> Histogram {
        Histogram::new((0..=20).map(|e| 1u64 << e).collect())
    }

    fn new() -> Self {
        TransportMetrics {
            reconnects: AtomicU64::new(0),
            replayed_frames: AtomicU64::new(0),
            heartbeat_misses: AtomicU64::new(0),
            dial_backoffs: AtomicU64::new(0),
            partitions_suspected: AtomicU64::new(0),
            partitions_healed: AtomicU64::new(0),
            wire_bytes_sent: AtomicU64::new(0),
            wire_bytes_recv: AtomicU64::new(0),
            data_bytes_sent: AtomicU64::new(0),
            data_bytes_recv: AtomicU64::new(0),
            frame_send_us: Mutex::new(Self::us_buckets()),
            frame_recv_gap_us: Mutex::new(Self::us_buckets()),
            last_recv_us: AtomicU64::new(u64::MAX),
        }
    }

    fn record_send(&self, wire_len: u64, dur_us: u64) {
        self.wire_bytes_sent.fetch_add(wire_len, Ordering::Relaxed);
        lock_or_recover(&self.frame_send_us).record(dur_us);
    }

    fn record_recv(&self, wire_len: u64, now_us: u64) {
        self.wire_bytes_recv.fetch_add(wire_len, Ordering::Relaxed);
        let prev = self.last_recv_us.swap(now_us, Ordering::Relaxed);
        if prev != u64::MAX {
            lock_or_recover(&self.frame_recv_gap_us).record(now_us.saturating_sub(prev));
        }
    }
}

// ---- Shared state ---------------------------------------------------------

struct Shared {
    rank: usize,
    p: usize,
    timeout: Duration,
    heartbeat: Duration,
    miss: u32,
    start: Instant,
    addrbook: Vec<String>,
    peers: Vec<Peer>,
    /// Rank 0 only: barrier-entry announcements (src, round).
    entries_tx: Mutex<Option<Sender<(u32, u64)>>>,
    /// Non-zero ranks: barrier releases from rank 0.
    release_tx: Mutex<Option<Sender<u64>>>,
    /// We started shutting down (gracefully or not): background threads
    /// exit and connection teardown stops triggering reconnects.
    shutting_down: AtomicBool,
    /// Notified on every event a launch or teardown wait is waiting for:
    /// a connection installed, a BYE received, a peer declared dead,
    /// shutdown begun (see [`Shared::wait_until`]).
    events: Condvar,
    /// The mutex `events` waits under; it guards nothing itself.
    events_lock: Mutex<()>,
    log: Mutex<File>,
    /// Live link-layer metrics (snapshot via [`Shared::metrics_registry`]).
    metrics: TransportMetrics,
    /// Deterministic network-chaos interposer (None = clean network).
    chaos: Option<Chaos>,
    /// The rank process's payload pool. Lane `rank`: the executors pack
    /// out of it and the replay queues return sent buffers to it on ACK.
    /// Lane `q`: the reader for peer `q` fills its buffers off the socket
    /// and the executors retire them after folding.
    pool: Arc<PayloadPool>,
}

impl Shared {
    fn now_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }

    fn now_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    /// Wakes every [`Shared::wait_until`] after the state change it
    /// announces. Taking `events_lock` first means a waiter between its
    /// check and its wait cannot miss the change.
    fn notify(&self) {
        let _held = lock_or_recover(&self.events_lock);
        self.events.notify_all();
    }

    /// Blocks until `done()` holds or `deadline` passes, re-checking on
    /// every [`Shared::notify`]; returns `done()`. `done` must read only
    /// state whose changes are notified.
    fn wait_until(&self, deadline: Instant, done: impl Fn() -> bool) -> bool {
        let held = lock_or_recover(&self.events_lock);
        let timeout = deadline.saturating_duration_since(Instant::now());
        let _ = self
            .events
            .wait_timeout_while(held, timeout, |_| !done())
            .unwrap_or_else(PoisonError::into_inner);
        done()
    }

    /// Marks the start of shutdown; `false` when it had already begun.
    fn start_shutdown(&self) -> bool {
        let first = !self.shutting_down.swap(true, Ordering::SeqCst);
        self.notify();
        first
    }

    /// Snapshots the live transport metrics into a registry under
    /// `proc.*` keys — the per-rank half of the `--metrics-interval`
    /// stream and the source for [`crate::ProcCounters`] at run end.
    fn metrics_registry(&self) -> MetricsRegistry {
        let m = &self.metrics;
        let mut reg = MetricsRegistry::new();
        reg.counter("proc.reconnects", m.reconnects.load(Ordering::Relaxed));
        reg.counter(
            "proc.replayed_frames",
            m.replayed_frames.load(Ordering::Relaxed),
        );
        reg.counter(
            "proc.heartbeat_misses",
            m.heartbeat_misses.load(Ordering::Relaxed),
        );
        reg.counter(
            "proc.dial_backoffs",
            m.dial_backoffs.load(Ordering::Relaxed),
        );
        reg.counter(
            "proc.partitions_suspected",
            m.partitions_suspected.load(Ordering::Relaxed),
        );
        reg.counter(
            "proc.partitions_healed",
            m.partitions_healed.load(Ordering::Relaxed),
        );
        if let Some(c) = &self.chaos {
            reg.counter(
                "chaos.delays_injected",
                c.delays_injected.load(Ordering::Relaxed),
            );
            reg.counter(
                "chaos.severs_injected",
                c.severs_injected.load(Ordering::Relaxed),
            );
            reg.counter(
                "chaos.dials_refused",
                c.dials_refused.load(Ordering::Relaxed),
            );
        }
        reg.gauge(
            "proc.wire_bytes_sent",
            m.wire_bytes_sent.load(Ordering::Relaxed) as f64,
        );
        reg.gauge(
            "proc.wire_bytes_recv",
            m.wire_bytes_recv.load(Ordering::Relaxed) as f64,
        );
        reg.gauge(
            "proc.data_bytes_sent",
            m.data_bytes_sent.load(Ordering::Relaxed) as f64,
        );
        reg.gauge(
            "proc.data_bytes_recv",
            m.data_bytes_recv.load(Ordering::Relaxed) as f64,
        );
        reg.hist(
            "proc.frame_send_us",
            lock_or_recover(&m.frame_send_us).clone(),
        );
        reg.hist(
            "proc.frame_recv_gap_us",
            lock_or_recover(&m.frame_recv_gap_us).clone(),
        );
        reg
    }

    fn log(&self, msg: &str) {
        let mut f = lock_or_recover(&self.log);
        let _ = writeln!(f, "[{:9.3}s] {}", self.start.elapsed().as_secs_f64(), msg);
    }

    /// Writes one frame — its encoded `head`, then `words` as
    /// little-endian bytes — to `slot`, with the chaos interposer in the
    /// path: an injected latency/bandwidth verdict holds the frame
    /// (sleeping with the write half held — a slow wire serializes the
    /// link exactly like this), a sever verdict tears the connection
    /// down instead of writing (the frame stays queued for replay).
    /// Returns `true` when the bytes actually went out.
    fn gated_write(
        &self,
        dst: usize,
        slot: &mut Option<Stream>,
        head: &[u8],
        words: &[f64],
    ) -> bool {
        if slot.is_none() {
            return false;
        }
        let wire_len = head.len() as u64 + 8 * words.len() as u64;
        if let Some(chaos) = &self.chaos {
            match chaos.on_send(dst, wire_len, self.now_us()) {
                SendVerdict::Deliver { delay } => {
                    if !delay.is_zero() {
                        std::thread::sleep(delay);
                    }
                }
                SendVerdict::Sever { why } => {
                    self.log(&format!("chaos: severing link to rank {dst} ({why})"));
                    if let Some(stream) = slot.take() {
                        let _ = stream.shutdown(Shutdown::Both);
                    }
                    return false;
                }
            }
        }
        let stream = slot.as_mut().expect("stream checked above");
        let t0 = Instant::now();
        let outcome = wire::write_parts(stream, head, words).and_then(|_| stream.flush());
        if let Err(e) = outcome {
            // Includes a write that outlived the socket's write timeout
            // (the world timeout): the link is torn down and the frame
            // waits in the replay queue for the reconnect.
            self.log(&format!("write to rank {dst} failed: {e}"));
            let _ = stream.shutdown(Shutdown::Both);
            *slot = None;
            false
        } else {
            self.metrics
                .record_send(wire_len, t0.elapsed().as_micros() as u64);
            true
        }
    }

    /// Writes the cumulative ACK to `q` if one is due. Caller holds
    /// `q`'s write half.
    fn write_due_ack(&self, q: usize, w: &mut Option<Stream>) {
        let peer = &self.peers[q];
        let due = {
            let link = lock_or_recover(&peer.link);
            let delivered = link.dedup.delivered();
            (delivered > link.ack_sent).then_some(delivered)
        };
        if let Some(delivered) = due {
            let ack = wire::encode_frame(&Frame::with_u64(kind::ACK, self.rank, delivered));
            if self.gated_write(q, w, &ack, &[]) {
                let mut link = lock_or_recover(&peer.link);
                link.ack_sent = link.ack_sent.max(delivered);
            }
        }
    }

    /// Runs `f` holding `q`'s write half, blocking for it, then writes
    /// the ACK the reader left due, if any, before letting go.
    ///
    /// This is the rule that keeps the link live: a reader thread only
    /// records what it delivered ([`Link`]) and goes back to reading —
    /// it never writes, not even a 25-byte ACK, because with both send
    /// buffers full that write waits for the peer's reader, which may be
    /// waiting the same way for ours. Writes (and so waits for a peer
    /// to drain) belong to the rank's main thread, the monitor and the
    /// (re)connect path, none of which a peer needs in order to make
    /// progress.
    fn with_writer<R>(&self, q: usize, f: impl FnOnce(&mut Option<Stream>) -> R) -> R {
        let mut w = lock_or_recover(&self.peers[q].writer);
        let out = f(&mut w);
        self.write_due_ack(q, &mut w);
        out
    }

    /// Like [`Shared::with_writer`] but gives up (`None`) when another
    /// thread holds the write half — for the monitor, which must not
    /// queue behind a frame in flight. Whoever does hold it writes the
    /// due ACK on release.
    fn try_with_writer<R>(&self, q: usize, f: impl FnOnce(&mut Option<Stream>) -> R) -> Option<R> {
        let mut w = match self.peers[q].writer.try_lock() {
            Ok(w) => w,
            Err(TryLockError::Poisoned(p)) => p.into_inner(),
            Err(TryLockError::WouldBlock) => return None,
        };
        let out = f(&mut w);
        self.write_due_ack(q, &mut w);
        Some(out)
    }

    /// Queues a reliable frame for `dst` (replayed across reconnects)
    /// and attempts an immediate write. `frame` arrives with a zero
    /// `link_seq`; the real one is stamped here, in the same short
    /// critical section that retains the frame for replay. A frame for a
    /// peer already gone is dropped, which returns its payload to the
    /// pool.
    fn send_reliable(&self, dst: usize, mut frame: WireFrame) -> Result<(), PeerGone> {
        let peer = &self.peers[dst];
        if peer.dead.load(Ordering::SeqCst) || peer.bye.load(Ordering::SeqCst) {
            return Err(PeerGone);
        }
        let frame = {
            let mut link = lock_or_recover(&peer.link);
            let link_seq = link.replay.assign_seq();
            frame.set_link_seq(link_seq);
            let frame = Arc::new(frame);
            link.replay.push(link_seq, frame.clone());
            frame
        };
        // The due ACK goes first: the peer's reader then returns the
        // payloads it covers to the peer's pool before it delivers this
        // frame, so whoever the frame wakes finds them there.
        self.with_writer(dst, |w| {
            self.write_due_ack(dst, w);
            self.gated_write(dst, w, frame.head(), frame.words())
        });
        Ok(())
    }

    fn mark_peer_dead(&self, q: usize, why: &str) {
        let peer = &self.peers[q];
        if peer.dead.swap(true, Ordering::SeqCst) {
            return;
        }
        self.log(&format!("peer rank {q} declared dead: {why}"));
        // Wake anything blocked on this peer: receives observe
        // `Disconnected` once the sender is gone, the reader wakes on
        // the shutdown.
        *lock_or_recover(&peer.data_tx) = None;
        peer.shutdown_sock();
        self.notify();
    }

    fn any_peer_dead(&self) -> bool {
        (0..self.p).any(|q| q != self.rank && self.peers[q].dead.load(Ordering::SeqCst))
    }

    /// Graceful shutdown: BYE every live peer, wait briefly for theirs,
    /// then tear the mesh down.
    fn begin_shutdown(&self) {
        if !self.start_shutdown() {
            return;
        }
        for q in 0..self.p {
            if q == self.rank || self.peers[q].dead.load(Ordering::SeqCst) {
                continue;
            }
            let bye = wire::encode_frame(&Frame::control(kind::BYE, self.rank));
            self.with_writer(q, |w| self.gated_write(q, w, &bye, &[]));
        }
        // Drain: give peers a moment to BYE back so both sides close at
        // a frame boundary instead of racing EOF against final ACKs. The
        // last BYE (or death) wakes this wait.
        let all_done = || {
            (0..self.p).all(|q| {
                q == self.rank
                    || self.peers[q].dead.load(Ordering::SeqCst)
                    || self.peers[q].bye.load(Ordering::SeqCst)
            })
        };
        self.wait_until(Instant::now() + Duration::from_millis(750), all_done);
        self.teardown();
        self.log("graceful shutdown complete");
    }

    /// Unclean shutdown (rank panicked): no BYE, peers see a raw EOF
    /// and route it into their own failure handling.
    fn abort_shutdown(&self) {
        if !self.start_shutdown() {
            return;
        }
        self.teardown();
        self.log("abortive shutdown (no BYE)");
    }

    fn teardown(&self) {
        for q in 0..self.p {
            if q == self.rank {
                continue;
            }
            // Shut down first so a write in flight fails instead of
            // holding the write half against us.
            self.peers[q].shutdown_sock();
            *lock_or_recover(&self.peers[q].writer) = None;
        }
        *lock_or_recover(&self.entries_tx) = None;
        *lock_or_recover(&self.release_tx) = None;
    }

    /// SIGTERM: drain connections, then exit with the conventional
    /// 128+15 status.
    fn drain_and_exit(&self) -> ! {
        self.log("SIGTERM received: draining connections");
        self.begin_shutdown();
        std::process::exit(143);
    }
}

// ---- Connection wiring ----------------------------------------------------

/// Installs `stream` as the current connection to `q`: starts its
/// reader, syncs the replay queue against the peer's delivered
/// watermark, and retransmits the unacknowledged suffix.
fn install_conn(
    shared: &Arc<Shared>,
    q: usize,
    stream: Stream,
    peer_watermark: u64,
) -> io::Result<()> {
    let writer = stream.try_clone()?;
    let sock = stream.try_clone()?;
    // A write that the peer never drains must end as a link error, not
    // as a stall no watchdog can see.
    writer.set_write_timeout(Some(shared.timeout))?;
    let peer = &shared.peers[q];
    // Retire the old connection before asking for the write half: a
    // writer still blocked on it fails and lets go.
    if let Some(old) = lock_or_recover(&peer.sock).replace(sock) {
        let _ = old.shutdown(Shutdown::Both);
    }
    shared.with_writer(q, |w| {
        if peer.epoch.load(Ordering::SeqCst) > 0 {
            // This link existed before and is coming back: whatever
            // took it down (reset, partition, peer restart of the
            // connection) healed within the liveness budget.
            shared
                .metrics
                .partitions_healed
                .fetch_add(1, Ordering::Relaxed);
        }
        let epoch = peer.epoch.fetch_add(1, Ordering::SeqCst) + 1;
        *w = Some(writer);
        // The reader starts before the replay: when both ends come back
        // with a suffix larger than a socket buffer, each replay drains
        // only because the other end is already reading.
        let reader = shared.clone();
        std::thread::Builder::new()
            .name(format!("proc-read-{q}"))
            .spawn(move || reader_loop(reader, q, stream, epoch))?;
        // The suffix is read only now, with the write half held: a
        // frame queued after this point is written by its own sender,
        // behind us and therefore in order.
        let unacked: Vec<Arc<WireFrame>> = {
            let mut link = lock_or_recover(&peer.link);
            link.replay.ack(peer_watermark);
            link.replay.unacked().cloned().collect()
        };
        // Retransmit through the same gated path as live traffic (chaos
        // shapes replays too). A failed or severed write clears the
        // stream; the remaining suffix stays queued for the next
        // reconnect.
        let mut replayed = 0u64;
        for frame in &unacked {
            if !shared.gated_write(q, w, frame.head(), frame.words()) {
                break;
            }
            replayed += 1;
        }
        shared
            .metrics
            .replayed_frames
            .fetch_add(replayed, Ordering::Relaxed);
        shared.log(&format!(
            "link to rank {q} up (epoch {epoch}, peer watermark {peer_watermark}, replayed {replayed})"
        ));
        Ok::<(), io::Error>(())
    })?;
    peer.last_seen_ms.store(shared.now_ms(), Ordering::SeqCst);
    shared.notify();
    Ok(())
}

/// Reads frames off one connection to peer `q` until it dies, then
/// hands off to reconnect/death handling.
fn reader_loop(shared: Arc<Shared>, q: usize, stream: Stream, epoch: u64) {
    let _ = stream.set_read_timeout(None);
    let mut r = BufReader::new(&stream);
    let reason = loop {
        let header = match wire::read_header(&mut r) {
            Ok(Some(header)) => header,
            Ok(None) => break "EOF".to_string(),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(e) => break format!("read error: {e}"),
        };
        let peer = &shared.peers[q];
        peer.last_seen_ms.store(shared.now_ms(), Ordering::SeqCst);
        shared.metrics.record_recv(
            wire::FRAME_OVERHEAD + header.body_len as u64,
            shared.now_us(),
        );
        // A body that does not parse leaves the stream out of step: the
        // connection ends here and the frame comes back on the replay.
        let routed = if header.kind == kind::DATA {
            shared
                .metrics
                .data_bytes_recv
                .fetch_add(header.body_len as u64, Ordering::Relaxed);
            // The payload's words land in pool buffers straight off the
            // socket; the rank's executor folds them where they are.
            wire::read_data(&mut r, header.body_len, &shared.pool, q).map(|msg| {
                // Watermark-dedup, then deliver. Advancing the watermark
                // is what makes an ACK due; the next holder of the write
                // half writes it (`Shared::with_writer`).
                if !lock_or_recover(&peer.link).dedup.admit(header.link_seq) {
                    return shared.pool.recycle(q, msg.payload); // duplicate from a replay
                }
                let tx = lock_or_recover(&peer.data_tx).clone();
                if let Some(tx) = tx {
                    let _ = tx.send(msg);
                }
            })
        } else {
            wire::read_body(&mut r, header).map(|frame| route_frame(&shared, q, frame))
        };
        if let Err(e) = routed {
            break format!("read error: {e}");
        }
    };
    // This connection is over in both directions; a write still in
    // flight on it must fail now rather than at the write timeout.
    let _ = stream.shutdown(Shutdown::Both);
    on_conn_end(&shared, q, epoch, &reason);
}

/// Routes one received control frame to the right consumer.
fn route_frame(shared: &Arc<Shared>, q: usize, frame: Frame) {
    let peer = &shared.peers[q];
    match frame.kind {
        kind::BARRIER_ENTER | kind::BARRIER_RELEASE => {
            // Reliable like DATA: watermark-dedup, then deliver.
            if !lock_or_recover(&peer.link).dedup.admit(frame.link_seq) {
                return; // duplicate from a replay
            }
            let Ok(round) = frame.body_u64() else {
                return;
            };
            if frame.kind == kind::BARRIER_ENTER {
                let tx = lock_or_recover(&shared.entries_tx).clone();
                if let Some(tx) = tx {
                    let _ = tx.send((frame.src, round));
                }
            } else {
                let tx = lock_or_recover(&shared.release_tx).clone();
                if let Some(tx) = tx {
                    let _ = tx.send(round);
                }
            }
        }
        kind::ACK => {
            if let Ok(watermark) = frame.body_u64() {
                lock_or_recover(&peer.link).replay.ack(watermark);
            }
        }
        kind::HEARTBEAT => {} // last_seen already updated
        kind::BYE => {
            shared.log(&format!("rank {q} said BYE"));
            peer.bye.store(true, Ordering::SeqCst);
            shared.notify();
        }
        other => shared.log(&format!("rank {q}: unexpected frame kind {other}")),
    }
}

/// A connection to `q` ended: clean-close after BYE, ignore if stale or
/// shutting down, reconnect if we are the dialing side, else leave it
/// to the liveness monitor.
fn on_conn_end(shared: &Arc<Shared>, q: usize, epoch: u64, reason: &str) {
    let peer = &shared.peers[q];
    if peer.epoch.load(Ordering::SeqCst) != epoch {
        return; // a newer connection has already replaced this one
    }
    // This reader's connection is over, so it may wait for the write
    // half like anyone else. The epoch is checked again under it: an
    // install that won the race must keep its stream.
    let current = shared.with_writer(q, |w| {
        let current = peer.epoch.load(Ordering::SeqCst) == epoch;
        if current {
            *w = None;
        }
        current
    });
    if !current {
        return;
    }
    if shared.shutting_down.load(Ordering::SeqCst) || peer.dead.load(Ordering::SeqCst) {
        return;
    }
    if peer.bye.load(Ordering::SeqCst) {
        // Graceful close: future receives must see `Disconnected`, the
        // thread-backend analogue of a finished rank dropping its
        // channels. Queued messages already delivered remain readable.
        shared.log(&format!("link to rank {q} closed cleanly"));
        *lock_or_recover(&peer.data_tx) = None;
        return;
    }
    // An unclean loss while healthy: from here it is either a crashed
    // peer or a partitioned link — indistinguishable until reconnect
    // resolves it one way or the other.
    shared
        .metrics
        .partitions_suspected
        .fetch_add(1, Ordering::Relaxed);
    shared.log(&format!("link to rank {q} lost ({reason})"));
    if q < shared.rank {
        reconnect_loop(shared, q);
    }
    // q > rank: the peer dials us; the acceptor installs the
    // replacement and the heartbeat monitor handles true death.
}

/// Runs `attempt` until it succeeds or `deadline` passes, then returns
/// its last outcome. Between failures it backs off exponentially with
/// deterministic jitter from `seed`: the first retry comes after ≈1 ms,
/// doubling to a 500 ms cap, so a peer that binds a moment late costs
/// about that moment. Every backoff counts in `proc.dial_backoffs`.
/// This is the one retry loop of the rendezvous dial, the mesh dial and
/// the dialer-side reconnect.
fn dial_until<T>(
    seed: u64,
    deadline: Instant,
    metrics: &TransportMetrics,
    mut attempt: impl FnMut() -> io::Result<T>,
) -> io::Result<T> {
    let mut backoff = Backoff::new(1, 500, seed);
    loop {
        match attempt() {
            Err(_) if Instant::now() < deadline => {}
            outcome => return outcome,
        }
        metrics.dial_backoffs.fetch_add(1, Ordering::Relaxed);
        std::thread::sleep(backoff.next());
    }
}

/// Dialer-side reconnect with capped exponential backoff + jitter,
/// bounded by the liveness budget (miss threshold × heartbeat period).
fn reconnect_loop(shared: &Arc<Shared>, q: usize) {
    let budget = shared.heartbeat * shared.miss;
    let deadline = Instant::now() + budget.max(Duration::from_secs(1));
    let seed = splitmix64(((shared.rank as u64) << 32) ^ q as u64);
    let addr = shared.addrbook[q].clone();
    // `Ok(false)`: shutdown began or the peer died meanwhile, so the
    // link is no longer this loop's to restore.
    let redialed = dial_until(seed, deadline, &shared.metrics, || {
        if shared.shutting_down.load(Ordering::SeqCst)
            || shared.peers[q].dead.load(Ordering::SeqCst)
        {
            return Ok(false);
        }
        dial_peer(shared, q, &addr)
            .map(|()| true)
            .inspect_err(|e| shared.log(&format!("redial rank {q} failed: {e}")))
    });
    match redialed {
        Ok(true) => {
            shared.metrics.reconnects.fetch_add(1, Ordering::Relaxed);
            shared.log(&format!("reconnected to rank {q}"));
        }
        Ok(false) => {}
        Err(_) => shared.mark_peer_dead(
            q,
            "reconnect budget exhausted (peer process died or partition outlived the deadline)",
        ),
    }
}

/// Dials peer `q` and runs the HELLO exchange (dialer side: HELLO out,
/// HELLO back carrying the peer's delivered watermark).
fn dial_peer(shared: &Arc<Shared>, q: usize, addr: &str) -> io::Result<()> {
    if let Some(chaos) = &shared.chaos {
        if let Some(why) = chaos.dial_refused(q, shared.now_ms()) {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                format!("chaos: {why}"),
            ));
        }
    }
    let mut stream = Stream::connect(addr)?;
    let delivered = lock_or_recover(&shared.peers[q].link).dedup.delivered();
    wire::write_frame(
        &mut stream,
        &Frame::with_u64(kind::HELLO, shared.rank, delivered),
    )?;
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    let hello = wire::read_frame(&mut &stream)?
        .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "EOF before HELLO reply"))?;
    stream.set_read_timeout(None)?;
    if hello.kind != kind::HELLO || hello.src as usize != q {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "bad HELLO reply",
        ));
    }
    install_conn(shared, q, stream, hello.body_u64()?)
}

/// Mesh accept loop: each incoming connection leads with HELLO(src,
/// watermark); we reply with our own watermark and install it.
fn acceptor_loop(shared: Arc<Shared>, listener: Listener) {
    let _ = listener.set_nonblocking(true);
    let fd = listener.as_raw_fd();
    while !shared.shutting_down.load(Ordering::SeqCst) {
        // A dialer wakes this wait at once; `SLICE` only bounds how late
        // the thread notices shutdown.
        let accepted = match poll_readable(&[fd], SLICE) {
            Ok(ready) if ready[0] => listener.accept(),
            Ok(_) => continue,
            Err(e) => Err(e),
        };
        match accepted {
            Ok(stream) => {
                let _ = stream.set_nonblocking(false);
                if let Err(e) = handle_accept(&shared, stream) {
                    shared.log(&format!("accept handshake failed: {e}"));
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
            Err(e) => {
                // A listener that keeps failing (out of descriptors)
                // stays readable; pause instead of spinning on it.
                shared.log(&format!("accept error: {e}"));
                let stopping = || shared.shutting_down.load(Ordering::SeqCst);
                shared.wait_until(Instant::now() + SLICE, stopping);
            }
        }
    }
}

fn handle_accept(shared: &Arc<Shared>, mut stream: Stream) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    let hello = wire::read_frame(&mut &stream)?
        .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "EOF before HELLO"))?;
    stream.set_read_timeout(None)?;
    if hello.kind != kind::HELLO {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "expected HELLO"));
    }
    let q = hello.src as usize;
    if q >= shared.p || q == shared.rank {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "HELLO from invalid rank",
        ));
    }
    if shared.peers[q].dead.load(Ordering::SeqCst) {
        // No resurrection: once declared dead, stay dead (the
        // supervisor restarts the whole generation).
        return Err(io::Error::new(
            io::ErrorKind::ConnectionRefused,
            "peer already declared dead",
        ));
    }
    if let Some(chaos) = &shared.chaos {
        // A partitioned link refuses replacement connections in both
        // directions until the window heals — otherwise the dialer
        // would punch straight through the partition.
        let now = shared.now_ms();
        if chaos.partitioned(q, shared.rank, now) || chaos.partitioned(shared.rank, q, now) {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                "chaos: link partitioned",
            ));
        }
    }
    let delivered = lock_or_recover(&shared.peers[q].link).dedup.delivered();
    wire::write_frame(
        &mut stream,
        &Frame::with_u64(kind::HELLO, shared.rank, delivered),
    )?;
    install_conn(shared, q, stream, hello.body_u64()?)
}

/// Heartbeat thread: beacon every peer each period; declare a peer dead
/// once its silence exceeds the miss threshold.
fn monitor_loop(shared: Arc<Shared>) {
    let period_ms = shared.heartbeat.as_millis().max(1) as u64;
    loop {
        let wake = Instant::now() + shared.heartbeat;
        while Instant::now() < wake {
            if shared.shutting_down.load(Ordering::SeqCst) {
                return;
            }
            std::thread::sleep(TICK.min(shared.heartbeat));
            // ACK backstop: what a reader delivered while the rank's
            // main thread had nothing to send to that peer.
            for q in (0..shared.p).filter(|&q| q != shared.rank) {
                shared.try_with_writer(q, |_| ());
            }
        }
        let now = shared.now_ms();
        for q in 0..shared.p {
            if q == shared.rank {
                continue;
            }
            let peer = &shared.peers[q];
            if peer.dead.load(Ordering::SeqCst) || peer.bye.load(Ordering::SeqCst) {
                continue;
            }
            // Try-lock: a tick must not queue behind a frame in flight
            // (which tells the peer we are alive just as well).
            let beat = wire::encode_frame(&Frame::control(kind::HEARTBEAT, shared.rank));
            shared.try_with_writer(q, |w| shared.gated_write(q, w, &beat, &[]));
            let age = now.saturating_sub(peer.last_seen_ms.load(Ordering::SeqCst));
            if age > period_ms {
                // Each tick past one beacon period of silence is one
                // observed miss; `miss` consecutive observations is
                // death below.
                shared
                    .metrics
                    .heartbeat_misses
                    .fetch_add(1, Ordering::Relaxed);
            }
            if age > u64::from(shared.miss) * period_ms {
                shared.mark_peer_dead(
                    q,
                    &format!("no frames for {age} ms (process died or link partitioned past the deadline)"),
                );
            }
        }
    }
}

// ---- Rendezvous -----------------------------------------------------------

fn rendezvous_path(dir: &Path) -> PathBuf {
    dir.join("rendezvous.sock")
}

fn mesh_path(dir: &Path, rank: usize) -> String {
    dir.join(format!("rank{rank}.sock"))
        .to_string_lossy()
        .into_owned()
}

/// File rank 0 writes its rendezvous-estimated per-rank clock offsets
/// into (consumed by `trace-report --merge` to align wall clocks).
pub(crate) fn clock_offsets_path(dir: &Path) -> PathBuf {
    dir.join("clock-offsets.json")
}

/// Restart-generation file the supervisor writes under the run dir
/// before each spawn round; children read it at connect time so
/// windowed chaos faults can stay generation-0-only.
fn generation_path(dir: &Path) -> PathBuf {
    dir.join("generation")
}

/// Supervisor side: records restart generation `generation` under `dir`
/// before (re)spawning a rank round. Children pick it up in
/// `ProcTransport::connect`; a missing file reads as generation 0.
pub fn write_proc_generation(dir: &Path, generation: u64) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    fs::write(generation_path(dir), format!("{generation}\n"))
}

fn read_proc_generation(dir: &Path) -> u64 {
    fs::read_to_string(generation_path(dir))
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(0)
}

/// Rank 0: runs the NTP-style midpoint exchange against one held
/// rendezvous stream. Three CLOCK_PING/PONG round trips; the minimum-RTT
/// sample wins (least queueing noise). The returned offset is
/// `t1 − (t0 + t2)/2` — what to *subtract* from the peer's wall reading
/// to land it on rank 0's clock axis.
fn estimate_clock_offset(stream: &Stream, src: usize, anchor: &Instant) -> io::Result<f64> {
    let mut best_rtt = f64::INFINITY;
    let mut best_offset = 0.0f64;
    for _ in 0..3 {
        let t0 = anchor.elapsed().as_secs_f64();
        wire::write_frame(&mut &*stream, &Frame::control(kind::CLOCK_PING, 0))?;
        let pong = wire::read_frame(&mut &*stream)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "EOF before CLOCK_PONG"))?;
        let t2 = anchor.elapsed().as_secs_f64();
        if pong.kind != kind::CLOCK_PONG || pong.src as usize != src {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "expected CLOCK_PONG",
            ));
        }
        let t1 = f64::from_bits(pong.body_u64()?);
        if !t1.is_finite() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "non-finite CLOCK_PONG timestamp",
            ));
        }
        let rtt = t2 - t0;
        if rtt < best_rtt {
            best_rtt = rtt;
            best_offset = t1 - 0.5 * (t0 + t2);
        }
    }
    Ok(best_offset)
}

/// Nonblocking probe of a held rendezvous stream that `poll` reported
/// readable. A registrant must be silent between REGISTER and the
/// CLOCK_PING exchange, so readable bytes are a protocol violation and
/// EOF means the rank died mid-rendezvous; both must fail the world now
/// rather than stall every rank until the wire-up deadline.
fn rendezvous_conn_died(stream: &Stream) -> io::Result<bool> {
    stream.set_nonblocking(true)?;
    let mut byte = [0u8; 1];
    let outcome = (&mut &*stream).read(&mut byte);
    stream.set_nonblocking(false)?;
    match outcome {
        Ok(0) => Ok(true),
        Ok(_) => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "unexpected bytes before the clock exchange",
        )),
        Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(false),
        Err(e) => Err(e),
    }
}

/// Rank 0: collect REGISTER(addr) from every other rank on `listener`
/// (Unix or TCP), estimate each registrant's clock offset over the held
/// stream, then reply to each with the full ADDRBOOK. Offsets land in
/// `clock-offsets.json`.
fn rendezvous_serve(
    listener: Listener,
    dir: &Path,
    p: usize,
    my_addr: &str,
    deadline: Instant,
    anchor: &Instant,
) -> io::Result<Vec<String>> {
    listener.set_nonblocking(true)?;
    let mut book: Vec<Option<String>> = vec![None; p];
    book[0] = Some(my_addr.to_string());
    let mut conns: Vec<(usize, Stream)> = Vec::new();
    while conns.len() < p - 1 {
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!(
                    "rendezvous: only {}/{} ranks registered",
                    conns.len(),
                    p - 1
                ),
            ));
        }
        // One wait on every event that moves the rendezvous: a dialer on
        // the listener, or a held registrant's bytes or EOF.
        let fds: Vec<RawFd> = std::iter::once(listener.as_raw_fd())
            .chain(conns.iter().map(|(_, stream)| stream.as_raw_fd()))
            .collect();
        let ready = poll_readable(&fds, remaining)?;
        for ((src, stream), _) in conns.iter().zip(&ready[1..]).filter(|(_, &r)| r) {
            match rendezvous_conn_died(stream) {
                Ok(false) => {}
                Ok(true) => {
                    return Err(io::Error::new(
                        io::ErrorKind::ConnectionAborted,
                        format!("rank {src} died during rendezvous"),
                    ));
                }
                Err(e) => {
                    return Err(io::Error::new(
                        e.kind(),
                        format!("rank {src} rendezvous stream: {e}"),
                    ));
                }
            }
        }
        if !ready[0] {
            continue;
        }
        let stream = match listener.accept() {
            Ok(stream) => stream,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => continue,
            Err(e) => return Err(e),
        };
        stream.set_nonblocking(false)?;
        stream.set_read_timeout(Some(Duration::from_secs(2)))?;
        let frame = wire::read_frame(&mut &stream)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "EOF before REGISTER"))?;
        if frame.kind != kind::REGISTER {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "expected REGISTER",
            ));
        }
        let src = frame.src as usize;
        if src == 0 || src >= p {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "REGISTER from invalid rank",
            ));
        }
        if book[src].is_some() {
            // Two processes claiming one rank is a launcher bug (or a
            // stray straggler from a previous generation); silently
            // keeping the newcomer would wire a mesh to the wrong
            // process.
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("duplicate REGISTER from rank {src}"),
            ));
        }
        book[src] = Some(wire::decode_register(&frame.body)?);
        conns.push((src, stream));
    }
    let paths: Vec<String> = book.into_iter().map(|b| b.unwrap()).collect();
    // Clock-offset estimation rides the held rendezvous streams before
    // the ADDRBOOK release: every peer is parked in `rendezvous_join`
    // answering pings, so the exchange sees rendezvous-quality latency.
    let mut offsets = vec![0.0f64; p];
    for (src, stream) in &conns {
        offsets[*src] = estimate_clock_offset(stream, *src, anchor)?;
    }
    fs::write(
        clock_offsets_path(dir),
        gnn_trace::merge::offsets_json(&offsets),
    )?;
    let body = wire::encode_addrbook(&paths);
    for (_, mut stream) in conns {
        let frame = Frame {
            kind: kind::ADDRBOOK,
            src: 0,
            link_seq: 0,
            body: body.clone(),
        };
        wire::write_frame(&mut stream, &frame)?;
    }
    Ok(paths)
}

/// Non-zero ranks: dial the rendezvous endpoint with capped exponential
/// backoff + jitter (rank 0 may still be booting; chaos may be refusing
/// dials) up to the hard wire-up deadline, REGISTER our mesh address,
/// answer rank 0's clock-offset pings, and wait for the ADDRBOOK.
fn rendezvous_join(
    target: &str,
    rank: usize,
    my_addr: &str,
    deadline: Instant,
    anchor: &Instant,
    chaos: Option<&Chaos>,
    metrics: &TransportMetrics,
) -> io::Result<Vec<String>> {
    let seed = splitmix64(0x52454E44 ^ rank as u64);
    let dial = || match chaos.and_then(|c| c.dial_refused(0, anchor.elapsed().as_millis() as u64)) {
        Some(why) => Err(io::Error::new(
            io::ErrorKind::ConnectionRefused,
            format!("chaos: {why}"),
        )),
        None => Stream::connect(target),
    };
    let mut stream = dial_until(seed, deadline, metrics, dial).map_err(|e| {
        io::Error::new(
            io::ErrorKind::TimedOut,
            format!("rendezvous dial timed out: {e}"),
        )
    })?;
    let frame = Frame {
        kind: kind::REGISTER,
        src: rank as u32,
        link_seq: 0,
        body: wire::encode_path(my_addr),
    };
    wire::write_frame(&mut stream, &frame)?;
    let remaining = deadline.saturating_duration_since(Instant::now());
    stream.set_read_timeout(Some(remaining.max(Duration::from_millis(100))))?;
    let reply = loop {
        let frame = wire::read_frame(&mut &stream)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "EOF before ADDRBOOK"))?;
        match frame.kind {
            kind::CLOCK_PING => {
                // Reply with our monotonic reading immediately — the
                // midpoint estimate's accuracy is bounded by this
                // turnaround.
                let pong = Frame::with_u64(
                    kind::CLOCK_PONG,
                    rank,
                    anchor.elapsed().as_secs_f64().to_bits(),
                );
                wire::write_frame(&mut &stream, &pong)?;
            }
            kind::ADDRBOOK => break frame,
            _ => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "expected CLOCK_PING or ADDRBOOK",
                ));
            }
        }
    };
    wire::decode_addrbook(&reply.body)
}

// ---- The transport --------------------------------------------------------

/// Process-backend link layer for one rank (one per process).
pub(crate) struct ProcTransport {
    shared: Arc<Shared>,
    data_rx: Vec<Option<Receiver<Msg>>>,
    /// Rank 0: barrier entries from every peer (all reader threads feed
    /// one channel; rounds are tallied in `pending_entries`).
    entries_rx: Option<Receiver<(u32, u64)>>,
    /// Non-zero ranks: releases from rank 0.
    release_rx: Option<Receiver<u64>>,
    round: u64,
    pending_entries: HashMap<u64, usize>,
}

impl ProcTransport {
    /// Binds, rendezvouses, and wires the full mesh; returns once every
    /// peer link is established. With a hostfile the mesh runs over TCP
    /// (rank 0's hostfile port is the rendezvous endpoint; mesh
    /// listeners advertise their kernel-assigned or pinned ports via
    /// the ADDRBOOK); otherwise over Unix-domain sockets under the run
    /// dir.
    fn connect(rank: usize, w: &ProcWorld, pool: Arc<PayloadPool>) -> io::Result<Self> {
        let (p, dir, timeout) = (w.p, &w.dir, w.timeout);
        install_sigterm_handler();
        fs::create_dir_all(dir)?;
        let log = OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join(format!("rank{rank}.log")))?;
        // One anchor serves both clocks-of-record: it is `Shared.start`
        // (heartbeat ages, log stamps, chaos windows) *and* the
        // wall-clock zero the tracer and the rendezvous offset
        // estimation share — so the offsets rank 0 writes apply
        // directly to trace timestamps.
        let start = Instant::now();
        let deadline = start + timeout;
        let generation = read_proc_generation(dir);
        let chaos = w
            .injector
            .as_deref()
            .map(FaultInjector::plan)
            .filter(|plan| plan.link_rule_kinds().next().is_some())
            .map(|plan| Chaos::new(plan, rank, p, generation));
        let metrics = TransportMetrics::new();

        let (listener, my_addr) = match &w.hostfile {
            Some(hosts) => {
                // Rank 0's hostfile port belongs to the rendezvous
                // endpoint; its mesh listener takes an ephemeral port
                // (published via the ADDRBOOK like everyone else's).
                let port = if rank == 0 { 0 } else { hosts.port(rank) };
                let l = Listener::bind_tcp(hosts.host(rank), port)?;
                let addr = l.advertised_addr(hosts.host(rank))?;
                (l, addr)
            }
            None => {
                let path = mesh_path(dir, rank);
                (Listener::bind_unix(&path)?, path)
            }
        };

        let addrbook = if p == 1 {
            fs::write(
                clock_offsets_path(dir),
                gnn_trace::merge::offsets_json(&[0.0]),
            )?;
            vec![my_addr.clone()]
        } else if rank == 0 {
            let (rv_listener, rv_cleanup) = match &w.hostfile {
                Some(hosts) => (Listener::bind_tcp(hosts.host(0), hosts.port(0))?, None),
                None => {
                    let path = rendezvous_path(dir);
                    let l = Listener::bind_unix(&path.to_string_lossy())?;
                    (l, Some(path))
                }
            };
            let book = rendezvous_serve(rv_listener, dir, p, &my_addr, deadline, &start)?;
            if let Some(path) = rv_cleanup {
                let _ = fs::remove_file(&path);
            }
            book
        } else {
            let target = match &w.hostfile {
                Some(hosts) => hosts.rendezvous_addr(),
                None => rendezvous_path(dir).to_string_lossy().into_owned(),
            };
            rendezvous_join(
                &target,
                rank,
                &my_addr,
                deadline,
                &start,
                chaos.as_ref(),
                &metrics,
            )?
        };
        if addrbook.len() != p {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "address book arity mismatch",
            ));
        }

        let mut data_rx: Vec<Option<Receiver<Msg>>> = Vec::with_capacity(p);
        let mut peers = Vec::with_capacity(p);
        for q in 0..p {
            let peer = Peer::new();
            if q == rank {
                data_rx.push(None);
            } else {
                let (tx, rx) = mpsc::channel();
                *lock_or_recover(&peer.data_tx) = Some(tx);
                data_rx.push(Some(rx));
            }
            peers.push(peer);
        }
        let (entries_rx, entries_tx) = if rank == 0 && p > 1 {
            let (tx, rx) = mpsc::channel();
            (Some(rx), Some(tx))
        } else {
            (None, None)
        };
        let (release_rx, release_tx) = if rank != 0 {
            let (tx, rx) = mpsc::channel();
            (Some(rx), Some(tx))
        } else {
            (None, None)
        };

        let shared = Arc::new(Shared {
            rank,
            p,
            timeout,
            heartbeat: w.heartbeat,
            miss: w.miss,
            start,
            addrbook,
            peers,
            entries_tx: Mutex::new(entries_tx),
            release_tx: Mutex::new(release_tx),
            shutting_down: AtomicBool::new(false),
            events: Condvar::new(),
            events_lock: Mutex::new(()),
            log: Mutex::new(log),
            metrics,
            chaos,
            pool,
        });
        shared.log(&format!(
            "rank {rank}/{p} rendezvous complete (generation {generation}, mesh {})",
            if w.hostfile.is_some() { "tcp" } else { "unix" }
        ));

        if p > 1 {
            {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("proc-accept-{rank}"))
                    .spawn(move || acceptor_loop(shared, listener))?;
            }
            // Dial every lower rank; higher ranks dial us.
            for q in 0..rank {
                let addr = &shared.addrbook[q];
                let seed = splitmix64((rank as u64) << 16 | q as u64);
                dial_until(seed, deadline, &shared.metrics, || {
                    dial_peer(&shared, q, addr)
                })
                .map_err(|e| {
                    io::Error::new(
                        io::ErrorKind::TimedOut,
                        format!("mesh dial to rank {q} timed out: {e}"),
                    )
                })?;
            }
            // Wait for the full mesh: higher ranks connect through the
            // acceptor, and each install wakes this wait.
            let all_up =
                || (0..p).all(|q| q == rank || shared.peers[q].epoch.load(Ordering::SeqCst) > 0);
            if !shared.wait_until(deadline, all_up) {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "mesh wire-up timed out",
                ));
            }
            {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("proc-beat-{rank}"))
                    .spawn(move || monitor_loop(shared))?;
            }
        }
        shared.log("mesh up");

        Ok(ProcTransport {
            shared,
            data_rx,
            entries_rx,
            release_rx,
            round: 0,
            pending_entries: HashMap::new(),
        })
    }

    fn barrier_rank0(&mut self, round: u64, timeout: Duration) -> bool {
        let p = self.shared.p;
        let deadline = Instant::now() + timeout;
        let mut have = self.pending_entries.remove(&round).unwrap_or(0);
        let rx = self.entries_rx.as_ref().expect("rank 0 entries channel");
        while have < p - 1 {
            if sigterm_requested() {
                self.shared.drain_and_exit();
            }
            if self.shared.any_peer_dead() {
                return false;
            }
            match rx.recv_timeout(SLICE) {
                Ok((_src, r)) if r == round => have += 1,
                Ok((_src, r)) => *self.pending_entries.entry(r).or_insert(0) += 1,
                Err(RecvTimeoutError::Timeout) => {
                    if Instant::now() >= deadline {
                        return false;
                    }
                }
                Err(RecvTimeoutError::Disconnected) => return false,
            }
        }
        for q in 1..p {
            let release = Frame::with_u64(kind::BARRIER_RELEASE, 0, round);
            if self
                .shared
                .send_reliable(q, WireFrame::control(&release))
                .is_err()
            {
                return false;
            }
        }
        true
    }

    fn barrier_member(&mut self, round: u64, timeout: Duration) -> bool {
        let enter = Frame::with_u64(kind::BARRIER_ENTER, self.shared.rank, round);
        if self
            .shared
            .send_reliable(0, WireFrame::control(&enter))
            .is_err()
        {
            return false;
        }
        let deadline = Instant::now() + timeout;
        let rx = self.release_rx.as_ref().expect("member release channel");
        loop {
            if sigterm_requested() {
                self.shared.drain_and_exit();
            }
            if self.shared.peers[0].dead.load(Ordering::SeqCst) {
                return false;
            }
            match rx.recv_timeout(SLICE) {
                Ok(r) if r == round => return true,
                Ok(r) => {
                    // A stale release can only trail a barrier this rank
                    // already abandoned; ignore it.
                    self.shared
                        .log(&format!("ignoring stale barrier release {r} (at {round})"));
                }
                Err(RecvTimeoutError::Timeout) => {
                    if Instant::now() >= deadline {
                        return false;
                    }
                }
                Err(RecvTimeoutError::Disconnected) => return false,
            }
        }
    }
}

impl Transport for ProcTransport {
    fn send(&mut self, dst: usize, msg: Msg) -> Result<(), PeerGone> {
        let frame = WireFrame::data(self.shared.rank, msg, self.shared.pool.clone());
        let body_len = frame.wire_len() - wire::FRAME_OVERHEAD;
        self.shared.send_reliable(dst, frame)?;
        self.shared
            .metrics
            .data_bytes_sent
            .fetch_add(body_len, Ordering::Relaxed);
        Ok(())
    }

    fn recv_deadline(&mut self, src: usize, timeout: Duration) -> RecvOutcome {
        let deadline = Instant::now() + timeout;
        let rx = match self.data_rx[src].as_ref() {
            Some(rx) => rx,
            None => return RecvOutcome::Disconnected, // self-receive
        };
        loop {
            if sigterm_requested() {
                self.shared.drain_and_exit();
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return RecvOutcome::TimedOut;
            }
            match rx.recv_timeout(remaining.min(SLICE)) {
                Ok(msg) => return RecvOutcome::Frame(msg),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return RecvOutcome::Disconnected,
            }
        }
    }

    fn barrier_wait(&mut self, timeout: Duration) -> bool {
        if self.shared.p == 1 {
            return true;
        }
        self.round += 1;
        let round = self.round;
        if self.shared.rank == 0 {
            self.barrier_rank0(round, timeout)
        } else {
            self.barrier_member(round, timeout)
        }
    }
}

// ---- ProcWorld ------------------------------------------------------------

/// Launch configuration for process-backed ranks: the counterpart of
/// [`crate::ThreadWorld`] where each rank is a real OS process. The
/// supervising launcher creates one `ProcWorld` per child process (same
/// `dir`) and calls [`ProcWorld::run_rank`] with that child's rank.
pub struct ProcWorld {
    p: usize,
    model: CostModel,
    timeout: Duration,
    dir: PathBuf,
    heartbeat: Duration,
    miss: u32,
    injector: Option<Arc<FaultInjector>>,
    tracing: bool,
    metrics_interval: Option<Duration>,
    hostfile: Option<HostFile>,
}

impl ProcWorld {
    /// A world of `p` process ranks rendezvousing under `dir` (short
    /// paths only: Unix socket paths are limited to ~100 bytes).
    ///
    /// Heartbeat period and miss threshold honor the
    /// `GNN_PROC_HEARTBEAT_MS` / `GNN_PROC_MISS` environment overrides;
    /// `GNN_PROC_METRICS_MS=<n>` turns on the periodic live-metrics
    /// snapshot stream (`metrics-rank<r>.jsonl` under `dir`). The mesh
    /// and the faults are set by the builders:
    /// [`ProcWorld::with_hostfile`], [`ProcWorld::with_faults`].
    pub fn new(p: usize, model: CostModel, dir: impl Into<PathBuf>) -> Self {
        assert!(p > 0, "need at least one rank");
        let heartbeat = std::env::var("GNN_PROC_HEARTBEAT_MS")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .map(Duration::from_millis)
            .unwrap_or(DEFAULT_HEARTBEAT);
        let miss = std::env::var("GNN_PROC_MISS")
            .ok()
            .and_then(|v| v.parse::<u32>().ok())
            .unwrap_or(DEFAULT_MISS);
        let metrics_interval = std::env::var("GNN_PROC_METRICS_MS")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .filter(|&ms| ms > 0)
            .map(Duration::from_millis);
        ProcWorld {
            p,
            model,
            timeout: crate::world::ThreadWorld::DEFAULT_TIMEOUT,
            dir: dir.into(),
            heartbeat,
            miss: miss.max(1),
            injector: None,
            tracing: false,
            metrics_interval,
            hostfile: None,
        }
    }

    /// Number of ranks.
    pub fn p(&self) -> usize {
        self.p
    }

    /// Watchdog timeout bounding every blocking wait (and the wire-up).
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Arms a fault plan. Its message rules (drop/corrupt/duplicate/
    /// delay/slow) run in the backend-independent retransmit machinery,
    /// whose fates are pure functions of (seed, src, dst, seq, rule), so
    /// thread and process runs under the same plan stay bit-identical.
    /// Its link rules drive this backend's network-chaos interposer;
    /// every rank of one world must receive the identical plan or the
    /// fault schedule loses its meaning.
    pub fn with_faults(self, plan: FaultPlan) -> Self {
        let injector = Arc::new(FaultInjector::new(plan));
        Self {
            injector: Some(injector),
            ..self
        }
    }

    /// Runs the mesh over TCP loopback/multi-node listeners described
    /// by `hosts` (one line per rank; rank 0's port is the rendezvous
    /// endpoint). Every rank of one world must use the same hostfile.
    pub fn with_hostfile(mut self, hosts: HostFile) -> Self {
        assert_eq!(
            hosts.p(),
            self.p,
            "hostfile names {} ranks but the world has {}",
            hosts.p(),
            self.p
        );
        self.hostfile = Some(hosts);
        self
    }

    /// Enables dual-clock structured tracing: the rank body records
    /// every op with both its modeled-time stamp and a monotonic
    /// wall-clock offset anchored at the transport's connect instant —
    /// the same anchor the rendezvous clock-offset exchange measures,
    /// so `trace-report --merge` can align per-rank traces.
    pub fn with_tracing(mut self, tracing: bool) -> Self {
        self.tracing = tracing;
        self
    }

    /// Runs this process's rank body over the socket mesh. Returns the
    /// body's output and the rank's modeled stats, or a structured
    /// error when wire-up fails or the body panics (peer death,
    /// deadlock, protocol violation).
    pub fn run_rank<R>(
        &self,
        rank: usize,
        f: impl FnOnce(&mut RankCtx) -> R,
    ) -> Result<(R, RankStats), ProcError> {
        self.run_rank_traced(rank, f)
            .map(|(out, stats, _tracer)| (out, stats))
    }

    /// Like [`ProcWorld::run_rank`], but also returns the rank's
    /// dual-clock tracer when [`ProcWorld::with_tracing`] enabled it —
    /// the caller writes it out as this process's `trace-rank<r>.jsonl`.
    /// Stats gain the live transport counters (reconnects, replayed
    /// frames, heartbeat misses) observed during the run.
    pub fn run_rank_traced<R>(
        &self,
        rank: usize,
        f: impl FnOnce(&mut RankCtx) -> R,
    ) -> Result<(R, RankStats, Option<Box<RankTracer>>), ProcError> {
        assert!(rank < self.p, "rank {rank} out of range (p={})", self.p);
        // One payload pool for the rank process: its main thread, its
        // reader threads and its replay queues all move the same buffers.
        let pool = Arc::new(PayloadPool::new(self.p));
        let transport = ProcTransport::connect(rank, self, pool.clone())?;
        let shared = transport.shared.clone();
        let tracer = self
            .tracing
            .then(|| Box::new(RankTracer::with_wall_anchor(rank, shared.start)));
        let metrics_thread = self.metrics_interval.and_then(|interval| {
            let shared = shared.clone();
            let path = self.dir.join(format!("metrics-rank{rank}.jsonl"));
            std::thread::Builder::new()
                .name(format!("proc-metrics-{rank}"))
                .spawn(move || metrics_snapshot_loop(shared, path, interval))
                .ok()
        });
        // Joined after shutdown: the snapshotter's last line is written
        // on seeing the shutdown, and a run shorter than one interval
        // has no other line — the process must not exit under it.
        let finish_metrics = || {
            if let Some(handle) = metrics_thread {
                let _ = handle.join();
            }
        };
        let mut ctx = RankCtx::new(
            rank,
            self.p,
            self.model,
            Box::new(transport),
            Arc::new(Watchdog::new(self.p, self.timeout)),
            self.injector.clone(),
            tracer,
            pool,
        );
        let result = catch_unwind(AssertUnwindSafe(|| {
            let out = f(&mut ctx);
            let (stats, tracer) = ctx.into_parts();
            (out, stats, tracer)
        }));
        match result {
            Ok((out, mut stats, mut tracer)) => {
                let m = &shared.metrics;
                stats.proc.reconnects = m.reconnects.load(Ordering::Relaxed);
                stats.proc.replayed_frames = m.replayed_frames.load(Ordering::Relaxed);
                stats.proc.heartbeat_misses = m.heartbeat_misses.load(Ordering::Relaxed);
                stats.proc.dial_backoffs = m.dial_backoffs.load(Ordering::Relaxed);
                stats.proc.partitions_suspected = m.partitions_suspected.load(Ordering::Relaxed);
                stats.proc.partitions_healed = m.partitions_healed.load(Ordering::Relaxed);
                if let Some(chaos) = &shared.chaos {
                    stats.proc.chaos_injected = chaos.delays_injected.load(Ordering::Relaxed)
                        + chaos.severs_injected.load(Ordering::Relaxed)
                        + chaos.dials_refused.load(Ordering::Relaxed);
                    // Fault activations land on the trace wall axis so a
                    // merged trace shows *when* each link was attacked.
                    if let Some(tracer) = tracer.as_mut() {
                        for ev in chaos.take_events() {
                            let kind = match ev.what {
                                "cut" => EventKind::ChaosCut,
                                "refused" => EventKind::ChaosRefused,
                                _ => EventKind::ChaosSever,
                            };
                            tracer.chaos_event(kind, ev.peer, ev.wall_s);
                        }
                    }
                }
                shared.begin_shutdown();
                finish_metrics();
                Ok((out, stats, tracer))
            }
            Err(payload) => {
                let message = match WorldError::from_unwind(rank, payload.as_ref()).1 {
                    WorldError::Panicked { message, .. } => message,
                    err => err.to_string(),
                };
                shared.log(&format!("rank {rank} panicked: {message}"));
                shared.abort_shutdown();
                finish_metrics();
                Err(ProcError::RankPanicked { rank, message })
            }
        }
    }
}

/// Periodic live-metrics snapshotter: appends one self-describing JSONL
/// line per interval to `metrics-rank<r>.jsonl`, plus a final line at
/// shutdown, so long chaos/soak runs are inspectable in flight (the
/// supervisor tails the last line of each rank's stream and aggregates).
fn metrics_snapshot_loop(shared: Arc<Shared>, path: PathBuf, interval: Duration) {
    let mut file = match OpenOptions::new().create(true).append(true).open(&path) {
        Ok(f) => f,
        Err(_) => return,
    };
    loop {
        let stopping = || shared.shutting_down.load(Ordering::SeqCst);
        let done = shared.wait_until(Instant::now() + interval, stopping);
        let line = format!(
            "{{\"schema\":\"{}\",\"type\":\"metrics\",\"rank\":{},\"wall\":{},\"metrics\":{}}}",
            gnn_trace::SCHEMA_VERSION,
            shared.rank,
            gnn_trace::json::fmt_f64(shared.start.elapsed().as_secs_f64()),
            shared.metrics_registry().metrics_json(),
        );
        if writeln!(file, "{line}").is_err() {
            return;
        }
        let _ = file.flush();
        if done {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::Payload;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gnnpu-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn register_frame(src: usize, addr: &str) -> Frame {
        Frame {
            kind: kind::REGISTER,
            src: src as u32,
            link_seq: 0,
            body: wire::encode_path(addr),
        }
    }

    /// Serves a 3-rank rendezvous on a background thread and returns
    /// the dial target plus the join handle for the serve result.
    fn spawn_serve(
        dir: &Path,
        p: usize,
        timeout: Duration,
    ) -> (String, std::thread::JoinHandle<io::Result<Vec<String>>>) {
        let path = rendezvous_path(dir);
        let target = path.to_string_lossy().into_owned();
        let listener = Listener::bind_unix(&target).unwrap();
        let dir = dir.to_path_buf();
        let handle = std::thread::spawn(move || {
            let anchor = Instant::now();
            rendezvous_serve(
                listener,
                &dir,
                p,
                "rank0.sock",
                Instant::now() + timeout,
                &anchor,
            )
        });
        (target, handle)
    }

    #[test]
    fn duplicate_register_is_a_structured_error() {
        let dir = scratch("dup");
        let (target, serve) = spawn_serve(&dir, 3, Duration::from_secs(10));
        let mut first = Stream::connect(&target).unwrap();
        wire::write_frame(&mut first, &register_frame(1, "rank1.sock")).unwrap();
        // A second process claiming rank 1 — a launcher bug or a stray
        // straggler — must fail the rendezvous loudly, not overwrite.
        let mut dup = Stream::connect(&target).unwrap();
        wire::write_frame(&mut dup, &register_frame(1, "impostor.sock")).unwrap();
        let err = serve.join().unwrap().expect_err("duplicate must fail");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains("duplicate REGISTER from rank 1"),
            "unexpected error: {err}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn registrant_death_fails_rendezvous_before_the_deadline() {
        let dir = scratch("rvdeath");
        // Generous deadline: the failure must come from death detection,
        // not the timeout.
        let (target, serve) = spawn_serve(&dir, 3, Duration::from_secs(30));
        let t0 = Instant::now();
        {
            let mut doomed = Stream::connect(&target).unwrap();
            wire::write_frame(&mut doomed, &register_frame(1, "rank1.sock")).unwrap();
            // Dropping the stream here is rank 1 dying mid-rendezvous:
            // REGISTERed but gone before the ADDRBOOK. Rank 2 never
            // shows up, so without death detection rank 0 would park
            // until the 30 s deadline.
        }
        let err = serve.join().unwrap().expect_err("death must fail serve");
        assert_eq!(err.kind(), io::ErrorKind::ConnectionAborted);
        assert!(
            err.to_string().contains("rank 1 died during rendezvous"),
            "unexpected error: {err}"
        );
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "death detection took {:?} — it must beat the deadline",
            t0.elapsed()
        );
        let _ = fs::remove_dir_all(&dir);
    }

    // ---- Socket-level replay harness (Unix + TCP through one path) ----

    /// Proves the reconnect/replay invariants from [`super::super::replay`]
    /// over a real socket pair: frames framed by [`wire`], a connection
    /// cut mid-stream, a second connection replaying the unacknowledged
    /// suffix — the delivered byte sequence must equal the uncut run and
    /// both watermarks must land exactly at the frame count.
    fn socket_replay_roundtrip(mk: impl Fn() -> (Stream, Stream)) {
        let total = 12u64;
        let cut_after = 7usize;
        let acked_before_cut = 5u64;
        let mut sender = ReplayQueue::new();
        let mut receiver = DedupWatermark::new();
        let mut delivered: Vec<Vec<u8>> = Vec::new();

        for i in 0..total {
            let seq = sender.assign_seq();
            let bytes = wire::encode_frame(&Frame {
                kind: kind::DATA,
                src: 0,
                link_seq: seq,
                body: vec![i as u8; 7],
            });
            sender.push(seq, Arc::new(bytes));
        }

        // Connection 1: only a prefix makes it onto the wire before the
        // cut; only a prefix of the ACKs makes it back.
        let (tx, rx) = mk();
        {
            let mut w = &tx;
            for bytes in sender.unacked().take(cut_after) {
                w.write_all(bytes).unwrap();
            }
            w.flush().unwrap();
        }
        drop(tx); // the cut: receiver sees EOF at a frame boundary
        let mut r = BufReader::new(rx);
        while let Some(frame) = wire::read_frame(&mut r).unwrap() {
            if receiver.admit(frame.link_seq) {
                delivered.push(frame.body);
            }
        }
        assert_eq!(delivered.len(), cut_after);
        sender.ack(acked_before_cut);

        // Connection 2: the HELLO watermark sync prunes what the peer
        // already delivered, then the rest replays.
        let (tx2, rx2) = mk();
        sender.ack(receiver.delivered());
        {
            let mut w = &tx2;
            for bytes in sender.unacked() {
                w.write_all(bytes).unwrap();
            }
            w.flush().unwrap();
        }
        drop(tx2);
        let mut r2 = BufReader::new(rx2);
        while let Some(frame) = wire::read_frame(&mut r2).unwrap() {
            if receiver.admit(frame.link_seq) {
                delivered.push(frame.body);
            }
        }
        sender.ack(receiver.delivered());

        let want: Vec<Vec<u8>> = (0..total).map(|i| vec![i as u8; 7]).collect();
        assert_eq!(delivered, want, "replay must reconstruct the exact stream");
        assert_eq!(receiver.delivered(), total);
        assert_eq!(sender.acked(), total);
        assert_eq!(sender.len(), 0, "fully ACKed queue must be empty");
    }

    #[test]
    fn replay_is_byte_identical_over_unix_sockets() {
        socket_replay_roundtrip(|| {
            let (a, b) = std::os::unix::net::UnixStream::pair().unwrap();
            (Stream::Unix(a), Stream::Unix(b))
        });
    }

    #[test]
    fn replay_is_byte_identical_over_tcp_sockets() {
        socket_replay_roundtrip(|| {
            // Connect before accept: the kernel backlog completes the
            // handshake, so one thread suffices.
            let listener = Listener::bind_tcp("127.0.0.1", 0).unwrap();
            let addr = listener.advertised_addr("127.0.0.1").unwrap();
            let tx = Stream::connect(&addr).unwrap();
            let rx = listener.accept().unwrap();
            (tx, rx)
        });
    }

    // ---- DATA frames: (head, payload) parts through queue and socket ----

    /// `n` DATA frames from rank 0 with their payloads packed out of
    /// `pool`, as `ProcTransport::send` queues them: empty, ids only,
    /// and rows of 80, 160 and 240 KB (pooled, several staging chunks)
    /// under a few ids (too small to pool).
    fn pooled_frames(pool: &Arc<PayloadPool>, n: u64) -> Vec<WireFrame> {
        let frame = |seq: u64| {
            let mut idx = pool.take_u32(0, (seq % 3 * 5) as usize);
            idx.extend((0..idx.capacity() as u32).map(|i| i * 7 + seq as u32));
            let mut data = pool.take_f64(0, (seq % 4 * 10_000) as usize);
            data.extend((0..data.capacity()).map(|i| (i as f64 + 0.5) * seq as f64));
            let payload = match seq % 4 {
                0 if idx.is_empty() => Payload::Empty,
                0 => Payload::U32(idx),
                _ => Payload::Rows { idx, data },
            };
            let msg = Msg {
                tag: 3,
                seq,
                checksum: payload.checksum(),
                payload,
            };
            WireFrame::data(0, msg, pool.clone())
        };
        (1..=n).map(frame).collect()
    }

    fn wire_bytes(frame: &WireFrame) -> Vec<u8> {
        let mut bytes = Vec::new();
        wire::write_parts(&mut bytes, frame.head(), frame.words()).unwrap();
        bytes
    }

    /// Queues `frames` as `Shared::send_reliable` does and returns the
    /// handles a writer would hold.
    fn queue_all(
        queue: &mut ReplayQueue<Arc<WireFrame>>,
        frames: Vec<WireFrame>,
    ) -> Vec<Arc<WireFrame>> {
        let queued = |mut frame: WireFrame| {
            let seq = queue.assign_seq();
            frame.set_link_seq(seq);
            let frame = Arc::new(frame);
            queue.push(seq, frame.clone());
            frame
        };
        frames.into_iter().map(queued).collect()
    }

    #[test]
    fn a_payload_returns_to_the_pool_only_after_the_ack_that_covers_it() {
        let pool = Arc::new(PayloadPool::new(1));
        let mut queue = ReplayQueue::new();
        let mut writers = queue_all(&mut queue, pooled_frames(&pool, 3)).into_iter();
        let (one, two, three) = (writers.next(), writers.next(), writers.next());
        // Written or not, the rows stay with the queue: only the spares
        // of their three classes are free.
        let spares = pool.pooled();
        assert_eq!(spares, 3);
        drop(one);
        queue.ack(0);
        assert_eq!(pool.pooled(), spares, "no ACK covers frame 1 yet");
        queue.ack(1);
        assert_eq!(pool.pooled(), spares + 1, "frame 1's rows are back");
        // A writer still borrowing a frame keeps it out past its ACK.
        queue.ack(2);
        assert_eq!(pool.pooled(), spares + 1, "frame 2 is being written");
        drop(two);
        assert_eq!(pool.pooled(), spares + 2);
        // A peer that dies takes its ACKs with it. The pool serves the
        // next pack of frame 3's size regardless, and gets the buffer
        // back when the queue goes.
        drop(three);
        let fresh = pool.fresh_allocs();
        let next = pool.take_f64(0, 30_000);
        assert_eq!((next.capacity(), pool.fresh_allocs()), (30_000, fresh));
        assert_eq!(pool.pooled(), spares + 1);
        drop(queue);
        assert_eq!(pool.pooled(), spares + 2);
    }

    /// The receiving end of one link across connections.
    struct Receiver {
        pool: Arc<PayloadPool>,
        dedup: DedupWatermark,
        /// Every admitted message, re-encoded from the parts the reader
        /// produced.
        delivered: Vec<Vec<u8>>,
    }

    impl Receiver {
        /// Reads DATA frames off `rx` until it ends, as `reader_loop`
        /// does.
        fn read_all(&mut self, rx: Stream) -> io::Result<()> {
            let mut r = BufReader::new(rx);
            while let Some(header) = wire::read_header(&mut r)? {
                assert_eq!(header.kind, kind::DATA);
                let msg = wire::read_data(&mut r, header.body_len, &self.pool, 0)?;
                if self.dedup.admit(header.link_seq) {
                    let mut back = WireFrame::data(0, msg, self.pool.clone());
                    back.set_link_seq(header.link_seq);
                    self.delivered.push(wire_bytes(&back));
                }
            }
            Ok(())
        }

        /// One connection: `write` feeds it and then drops it (the cut),
        /// while the reader drains it on its own thread.
        fn connection(&mut self, write: impl FnOnce(&mut Stream)) -> io::Result<()> {
            let (tx, rx) = std::os::unix::net::UnixStream::pair().unwrap();
            std::thread::scope(|s| {
                let reader = s.spawn(|| self.read_all(Stream::Unix(rx)));
                let mut tx = Stream::Unix(tx);
                write(&mut tx);
                drop(tx);
                reader.join().unwrap()
            })
        }
    }

    #[test]
    fn a_cut_mid_frame_replays_byte_identical_from_head_and_payload_parts() {
        let total = 9;
        let pool = Arc::new(PayloadPool::new(1));
        let mut sender = ReplayQueue::new();
        queue_all(&mut sender, pooled_frames(&pool, total));
        // What an uninterrupted connection carries.
        let stream: Vec<Vec<u8>> = sender.unacked().map(|f| wire_bytes(f)).collect();

        let mut receiver = Receiver {
            pool: Arc::new(PayloadPool::new(1)),
            dedup: DedupWatermark::new(),
            delivered: Vec::new(),
        };
        // Connection 1: five whole frames, then the cut lands inside the
        // sixth — past its head, in the middle of its words. A frame left
        // half written ends the connection and is not delivered.
        let cut = receiver.connection(|tx| {
            for bytes in &stream[..5] {
                tx.write_all(bytes).unwrap();
            }
            tx.write_all(&stream[5][..stream[5].len() / 2]).unwrap();
        });
        assert!(cut.is_err(), "the half frame must be a read error");
        assert_eq!(receiver.dedup.delivered(), 5);

        // Connection 2: the HELLO watermark prunes what arrived, the rest
        // goes out again from the queue's (head, payload) parts.
        sender.ack(receiver.dedup.delivered());
        let resent: Vec<Arc<WireFrame>> = sender.unacked().cloned().collect();
        let replay = receiver.connection(|tx| {
            for frame in &resent {
                wire::write_parts(tx, frame.head(), frame.words()).unwrap();
            }
        });
        replay.expect("clean EOF at a frame boundary");
        sender.ack(receiver.dedup.delivered());

        assert_eq!(
            receiver.delivered, stream,
            "replay must reconstruct the exact stream"
        );
        assert_eq!((receiver.dedup.delivered(), sender.acked()), (total, total));
        assert_eq!(sender.len(), 0, "fully ACKed queue must be empty");
    }

    #[test]
    fn generation_file_roundtrips_and_defaults_to_zero() {
        let dir = scratch("gen");
        assert_eq!(read_proc_generation(&dir), 0, "missing file reads as 0");
        write_proc_generation(&dir, 3).unwrap();
        assert_eq!(read_proc_generation(&dir), 3);
        let _ = fs::remove_dir_all(&dir);
    }
}
