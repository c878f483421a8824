//! Training over the process/socket backend: the per-rank child entry
//! point and the restart supervisor that drives real OS processes.
//!
//! The thread-world supervisor ([`super::trainer::try_train_distributed`])
//! restarts by tearing down threads inside one process; here every rank
//! is a separate process, so the recovery ladder's restart rung becomes:
//! detect a dead/failed rank process, SIGKILL the stragglers of that
//! generation, respawn all `p` ranks, and let them resume from the
//! newest verified snapshot in the shared
//! [`DiskCheckpointStore`].
//! Because epochs are deterministic and checkpoints are
//! checksum-verified, a SIGKILL'd run recovers to bit-identical weights.
//!
//! The supervisor does not know how to start a rank — launchers pass a
//! spawn callback that re-executes the current binary in child mode
//! (see `train --backend proc`). Children report their results through
//! bit-exact outcome files (`outcome-rank<r>.txt`), and the supervisor
//! writes `rank<r>.pid` files so chaos harnesses can SIGKILL / SIGSTOP
//! a live rank mid-epoch.

#![cfg(unix)]

use std::collections::BTreeMap;
use std::fs::{self, OpenOptions};
use std::io::{self, Write};
use std::os::unix::process::ExitStatusExt;
use std::path::{Path, PathBuf};
use std::process::{Child, ExitStatus};
use std::sync::mpsc::{self, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gnn_comm::stats::PHASES;
use gnn_comm::trace::json::{self as trace_json, Json};
use gnn_comm::trace::merge::single_rank_trace;
use gnn_comm::trace::{jsonl_string, SCHEMA_VERSION};
use gnn_comm::{ProcError, ProcWorld, RankStats, WorldStats};
use spmat::dataset::Dataset;
use spmat::Dense;

use crate::model::Weights;
use crate::reference::EpochRecord;

use super::checkpoint::{CheckpointBackend, DiskCheckpointStore};
use super::trainer::{build_plan, run_rank, DistConfig, DistOutcome};

/// Subdirectory of the run dir holding the persistent checkpoint slots.
const CKPT_SUBDIR: &str = "ckpt";

fn outcome_path(dir: &Path, rank: usize) -> PathBuf {
    dir.join(format!("outcome-rank{rank}.txt"))
}

fn pid_path(dir: &Path, rank: usize) -> PathBuf {
    dir.join(format!("rank{rank}.pid"))
}

/// Per-rank dual-clock trace file (written when `cfg.trace` is set;
/// stitch with `trace-report --merge`).
pub fn trace_rank_path(dir: &Path, rank: usize) -> PathBuf {
    dir.join(format!("trace-rank{rank}.jsonl"))
}

/// Per-rank live-metrics snapshot stream (written when the launcher
/// sets `GNN_PROC_METRICS_MS` on the children).
pub fn metrics_rank_path(dir: &Path, rank: usize) -> PathBuf {
    dir.join(format!("metrics-rank{rank}.jsonl"))
}

/// Supervisor-aggregated metrics stream (one line per interval, summed
/// over the ranks' latest snapshots).
pub fn metrics_aggregate_path(dir: &Path) -> PathBuf {
    dir.join("metrics.jsonl")
}

/// Runs one rank of a process-backed training world: the child half of
/// `train --backend proc`. Blocks until the whole world finishes the
/// run (or this rank fails), then publishes this rank's results as a
/// bit-exact outcome file the supervisor collects.
///
/// Checkpoints go to `<dir>/ckpt/`; a respawned generation resumes from
/// the newest verified snapshot automatically.
pub fn run_rank_proc(
    ds: &Dataset,
    bounds: &[usize],
    cfg: &DistConfig,
    dir: &Path,
    rank: usize,
) -> Result<(), ProcError> {
    let plan = build_plan(ds, bounds, cfg);
    let mut world = ProcWorld::new(plan.p(), cfg.model, dir)
        .with_timeout(cfg.robust.timeout)
        .with_tracing(cfg.trace);
    if let Some(faults) = cfg.robust.faults.as_ref().filter(|f| !f.is_empty()) {
        world = world.with_faults(faults.clone());
    }
    if let Some(path) = cfg.hostfile.as_deref() {
        world = world.with_hostfile(gnn_comm::HostFile::load(path)?);
    }
    let store = DiskCheckpointStore::new(dir.join(CKPT_SUBDIR))?;
    let ((records, weights), stats, tracer) =
        world.run_rank_traced(rank, |ctx| run_rank(ctx, ds, cfg, &plan, &store))?;
    if let Some(tracer) = tracer {
        // This process only knows its own timeline; it publishes a
        // single-rank partial trace (world size p, other ranks empty)
        // that `trace-report --merge` unions and clock-aligns using
        // rank 0's rendezvous offset estimates.
        let (mut events, hist) = tracer.finish();
        events.sort_by_key(|e| e.seq);
        let mut trace = single_rank_trace(plan.p(), rank, events);
        trace.msg_sizes.merge(&hist);
        fs::write(trace_rank_path(dir, rank), jsonl_string(&trace))?;
    }
    write_outcome(dir, rank, &records, &weights, &stats)?;
    Ok(())
}

/// A generation of rank processes failed and the restart budget is
/// spent (or spawning itself failed).
#[derive(Debug)]
pub enum ProcTrainError {
    /// Spawning or outcome collection failed.
    Io(io::Error),
    /// Rank processes kept dying past `max_restarts` respawns.
    Exhausted {
        /// Restarts performed before giving up.
        restarts: usize,
        /// Human-readable description of the final generation's
        /// failures (one entry per failed rank).
        failures: Vec<String>,
    },
}

impl std::fmt::Display for ProcTrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProcTrainError::Io(e) => write!(f, "process supervisor I/O error: {e}"),
            ProcTrainError::Exhausted { restarts, failures } => write!(
                f,
                "rank processes failed after {restarts} restart(s): {}",
                failures.join("; ")
            ),
        }
    }
}

impl std::error::Error for ProcTrainError {}

impl From<io::Error> for ProcTrainError {
    fn from(e: io::Error) -> Self {
        ProcTrainError::Io(e)
    }
}

fn describe_status(status: ExitStatus) -> String {
    match (status.code(), status.signal()) {
        (Some(code), _) => format!("exited with code {code}"),
        (None, Some(sig)) => format!("killed by signal {sig}"),
        (None, None) => "terminated with unknown status".to_string(),
    }
}

/// Supervises `p` rank processes to completion: spawns a generation via
/// `spawn(rank)`, wakes on each child's exit, and on any non-zero exit
/// SIGKILLs the survivors and respawns everyone (up to `max_restarts`
/// times) — the process-world analogue of the thread supervisor's
/// restart rung. Ranks resume from the shared disk checkpoint store
/// under `dir`.
///
/// `spawn` must start the given rank as a child process that ends up in
/// [`run_rank_proc`] with the same `dir` and a matching configuration.
pub fn supervise_proc_training(
    p: usize,
    dir: &Path,
    max_restarts: usize,
    spawn: impl FnMut(usize) -> io::Result<Child>,
) -> Result<DistOutcome, ProcTrainError> {
    supervise_proc_training_with(p, dir, max_restarts, None, spawn)
}

/// [`supervise_proc_training`] plus live-metrics aggregation: when
/// `metrics_interval` is set (and the launcher exported
/// `GNN_PROC_METRICS_MS` so children stream `metrics-rank<r>.jsonl`),
/// the supervisor periodically reads each rank's latest snapshot line,
/// sums the numeric fields across ranks, and appends the world-level
/// aggregate to `<dir>/metrics.jsonl` — a live view of a run that may
/// still be hours from its end-of-run `--metrics-out` artifact.
pub fn supervise_proc_training_with(
    p: usize,
    dir: &Path,
    max_restarts: usize,
    metrics_interval: Option<Duration>,
    mut spawn: impl FnMut(usize) -> io::Result<Child>,
) -> Result<DistOutcome, ProcTrainError> {
    assert!(p > 0, "need at least one rank");
    fs::create_dir_all(dir)?;
    let store = DiskCheckpointStore::new(dir.join(CKPT_SUBDIR))?;
    let mut restarts = 0;
    let mut resume_points = Vec::new();
    let mut next_snapshot = metrics_interval.map(|iv| Instant::now() + iv);

    loop {
        // Stale state from a previous generation must not be mistaken
        // for this generation's results (checkpoints stay: they are the
        // resume mechanism).
        for rank in 0..p {
            let _ = fs::remove_file(outcome_path(dir, rank));
            let _ = fs::remove_file(pid_path(dir, rank));
        }
        // Publish the generation before any child wires up: windowed
        // chaos rules default to generation 0, so a restarted world is
        // not re-partitioned into a livelock by the same plan.
        gnn_comm::write_proc_generation(dir, restarts as u64)?;

        let (exited_tx, exited) = mpsc::channel();
        let mut children: Vec<Option<Child>> = Vec::with_capacity(p);
        let mut waiters = Vec::with_capacity(p);
        let mut spawn_err: Option<io::Error> = None;
        for rank in 0..p {
            let watched = spawn(rank).and_then(|child| {
                // Chaos harnesses target ranks through these files.
                let _ = fs::write(pid_path(dir, rank), child.id().to_string());
                let waiter = watch_exit(rank, child.id(), exited_tx.clone());
                children.push(Some(child));
                waiters.push(waiter?);
                Ok(())
            });
            if let Err(e) = watched {
                spawn_err = Some(e);
                break;
            }
        }
        if let Some(e) = spawn_err {
            end_generation(&mut children, waiters);
            return Err(e.into());
        }

        let mut failures: Vec<String> = Vec::new();
        loop {
            let mut running = false;
            for (rank, slot) in children.iter_mut().enumerate() {
                let Some(child) = slot else { continue };
                match child.try_wait() {
                    Ok(Some(status)) => {
                        if !status.success() {
                            failures.push(format!("rank {rank} {}", describe_status(status)));
                        }
                        *slot = None;
                    }
                    Ok(None) => running = true,
                    Err(e) => {
                        failures.push(format!("rank {rank} unwaitable: {e}"));
                        *slot = None;
                    }
                }
            }
            if !failures.is_empty() || !running {
                break;
            }
            // Block until a child exits; with live metrics, at most until
            // the next aggregate snapshot is due.
            match (metrics_interval, next_snapshot) {
                (Some(iv), Some(due)) => {
                    let _ = exited.recv_timeout(due.saturating_duration_since(Instant::now()));
                    if Instant::now() >= due {
                        append_aggregate_snapshot(p, dir);
                        next_snapshot = Some(Instant::now() + iv);
                    }
                }
                _ => {
                    // Cannot disconnect: `exited_tx` lives in this scope.
                    let _ = exited.recv();
                }
            }
        }
        // After a failure, one dead rank dooms the generation: peers will
        // stall on it anyway, so reap them now and restart from the
        // newest checkpoint.
        end_generation(&mut children, waiters);

        if failures.is_empty() {
            if metrics_interval.is_some() {
                // Close the live stream with the ranks' final snapshots.
                append_aggregate_snapshot(p, dir);
            }
            return collect_outcome(p, dir, restarts, resume_points).map_err(Into::into);
        }
        if restarts >= max_restarts {
            return Err(ProcTrainError::Exhausted { restarts, failures });
        }
        restarts += 1;
        resume_points.push(store.resume_epoch().unwrap_or(0));
    }
}

/// Reads the latest snapshot line from each rank's metrics stream, sums
/// every numeric field across ranks (histograms are per-rank shapes and
/// are skipped), and appends one aggregate line to `metrics.jsonl`.
/// Ranks that have not written yet are skipped; the aggregate reports
/// how many contributed. Best-effort by design: a torn or half-written
/// line only delays the aggregate until the next interval.
fn append_aggregate_snapshot(p: usize, dir: &Path) {
    let mut sums: BTreeMap<String, f64> = BTreeMap::new();
    let mut wall: f64 = 0.0;
    let mut ranks_seen = 0usize;
    for rank in 0..p {
        let Ok(text) = fs::read_to_string(metrics_rank_path(dir, rank)) else {
            continue;
        };
        let Some(line) = text.lines().rev().find(|l| !l.trim().is_empty()) else {
            continue;
        };
        let Ok(v) = trace_json::parse(line) else {
            continue;
        };
        if let Some(w) = v.get("wall").and_then(Json::as_f64) {
            wall = wall.max(w);
        }
        let Some(Json::Obj(metrics)) = v.get("metrics") else {
            continue;
        };
        for (k, mv) in metrics {
            if let Json::Num(n) = mv {
                *sums.entry(k.clone()).or_insert(0.0) += n;
            }
        }
        ranks_seen += 1;
    }
    if ranks_seen == 0 {
        return;
    }
    let mut line = format!(
        "{{\"schema\":\"{SCHEMA_VERSION}\",\"type\":\"metrics\",\"ranks\":{ranks_seen},\"wall\":{},\"metrics\":{{",
        trace_json::fmt_f64(wall)
    );
    for (i, (k, v)) in sums.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        line.push_str(&trace_json::quote(k));
        line.push(':');
        line.push_str(&trace_json::fmt_f64(*v));
    }
    line.push_str("}}");
    if let Ok(mut f) = OpenOptions::new()
        .create(true)
        .append(true)
        .open(metrics_aggregate_path(dir))
    {
        let _ = writeln!(f, "{line}");
    }
}

/// Starts the thread that announces `pid`'s exit on `exited`. It blocks
/// in [`gnn_comm::wait_child_exit`], which does not reap, so the
/// supervisor keeps sole ownership of every `Child`: `try_wait` and
/// [`end_generation`] reap as before, and no pid is signalled after its
/// reaping. A waiter whose child was killed and reaped first wakes with
/// an error instead; either way it sends once and ends.
fn watch_exit(rank: usize, pid: u32, exited: Sender<()>) -> io::Result<JoinHandle<()>> {
    std::thread::Builder::new()
        .name(format!("proc-wait-{rank}"))
        .spawn(move || {
            let _ = gnn_comm::wait_child_exit(pid);
            let _ = exited.send(());
        })
}

/// SIGKILLs and reaps every still-tracked child, then joins the exit
/// waiters. With every child reaped and none of the next generation
/// spawned yet, each waiter has returned or returns at once.
fn end_generation(children: &mut [Option<Child>], waiters: Vec<JoinHandle<()>>) {
    for slot in children.iter_mut() {
        if let Some(child) = slot {
            let _ = child.kill(); // SIGKILL; no-op if already dead
            let _ = child.wait();
            *slot = None;
        }
    }
    for waiter in waiters {
        let _ = waiter.join();
    }
}

/// Builds the [`DistOutcome`] from the generation's outcome files:
/// records/weights from rank 0 (replicated, so any rank's copy is the
/// run's result), stats aggregated over every rank.
fn collect_outcome(
    p: usize,
    dir: &Path,
    restarts: usize,
    resume_points: Vec<usize>,
) -> io::Result<DistOutcome> {
    let mut per_rank = Vec::with_capacity(p);
    let mut first: Option<(Vec<EpochRecord>, Weights)> = None;
    for rank in 0..p {
        let text = fs::read_to_string(outcome_path(dir, rank))?;
        let (records, weights, stats) = decode_outcome(&text)?;
        if rank == 0 {
            first = Some((records, weights));
        }
        per_rank.push(stats);
    }
    let (records, weights) = first.expect("p > 0");
    Ok(DistOutcome {
        records,
        weights,
        stats: WorldStats::new(per_rank),
        restarts,
        trace: None,
        resume_points,
    })
}

// ---- Outcome file codec ----------------------------------------------------
//
// A whitespace-separated text format where every f64 travels as its
// `to_bits` integer, so results cross the process boundary bit-exactly
// (the differential oracle against the thread backend depends on this).

fn write_outcome(
    dir: &Path,
    rank: usize,
    records: &[EpochRecord],
    weights: &Weights,
    stats: &RankStats,
) -> io::Result<()> {
    let out = encode_outcome(records, weights, stats);
    // Publish atomically so a half-written file is never collected.
    let tmp = dir.join(format!("outcome-rank{rank}.tmp"));
    let mut f = fs::File::create(&tmp)?;
    f.write_all(out.as_bytes())?;
    f.sync_all()?;
    fs::rename(&tmp, outcome_path(dir, rank))
}

fn encode_outcome(records: &[EpochRecord], weights: &Weights, stats: &RankStats) -> String {
    let mut out = String::new();
    out.push_str(&format!("records {}\n", records.len()));
    for r in records {
        out.push_str(&format!(
            "{} {}\n",
            r.loss.to_bits(),
            r.train_accuracy.to_bits()
        ));
    }
    out.push_str(&format!("weights {}\n", weights.mats.len()));
    for m in &weights.mats {
        out.push_str(&format!("mat {} {}", m.rows(), m.cols()));
        for &x in m.data() {
            out.push_str(&format!(" {}", x.to_bits()));
        }
        out.push('\n');
    }
    out.push_str("stats\n");
    for (i, phase) in PHASES.iter().enumerate() {
        let c = stats.phase(*phase);
        out.push_str(&format!(
            "phase {i} {} {} {} {} {} {}\n",
            c.ops,
            c.bytes_sent,
            c.bytes_recv,
            c.flops,
            c.modeled_seconds.to_bits(),
            c.wall_seconds.to_bits()
        ));
    }
    let fc = &stats.faults;
    out.push_str(&format!(
        "faults {} {} {} {} {} {} {} {} {} {}\n",
        fc.delays,
        fc.delay_seconds.to_bits(),
        fc.drops,
        fc.corruptions,
        fc.corruptions_detected,
        fc.retries,
        fc.retransmit_bytes,
        fc.duplicates,
        fc.duplicates_discarded,
        fc.slowed_ops
    ));
    let pc = &stats.proc;
    out.push_str(&format!(
        "proc {} {} {} {} {} {} {}\n",
        pc.reconnects,
        pc.replayed_frames,
        pc.heartbeat_misses,
        pc.dial_backoffs,
        pc.partitions_suspected,
        pc.partitions_healed,
        pc.chaos_injected
    ));
    out.push_str("end\n");
    out
}

/// Whitespace-separated tokens that know how many more can follow.
struct Tok<'a> {
    rest: &'a str,
}

impl<'a> Tok<'a> {
    fn new(text: &'a str) -> Self {
        Tok { rest: text }
    }

    fn next(&mut self) -> Option<&'a str> {
        let s = self.rest.trim_start();
        let end = s.find(char::is_whitespace).unwrap_or(s.len());
        let (token, rest) = s.split_at(end);
        self.rest = rest;
        (!token.is_empty()).then_some(token)
    }

    fn word(&mut self, expect: &str) -> io::Result<()> {
        match self.next() {
            Some(w) if w == expect => Ok(()),
            other => Err(bad(&format!("expected `{expect}`, got {other:?}"))),
        }
    }

    /// `n` items of `per` tokens each, if that many tokens can still
    /// follow (each is a character plus a separator): a corrupted count
    /// must not size a reservation.
    fn fits(&self, n: usize, per: usize) -> io::Result<usize> {
        let left = self.rest.len().div_ceil(2);
        match n.checked_mul(per) {
            Some(need) if need <= left => Ok(n),
            _ => Err(bad(&format!("count {n} exceeds what the file holds"))),
        }
    }

    /// A count of items `per` tokens long each (see [`Tok::fits`]).
    fn count(&mut self, per: usize) -> io::Result<usize> {
        let n = self.usize()?;
        self.fits(n, per)
    }

    fn u64(&mut self) -> io::Result<u64> {
        self.next()
            .ok_or_else(|| bad("unexpected end of outcome file"))?
            .parse()
            .map_err(|e| bad(&format!("bad integer: {e}")))
    }

    fn usize(&mut self) -> io::Result<usize> {
        Ok(self.u64()? as usize)
    }

    fn f64_bits(&mut self) -> io::Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("outcome file: {msg}"))
}

fn decode_outcome(text: &str) -> io::Result<(Vec<EpochRecord>, Weights, RankStats)> {
    let mut t = Tok::new(text);
    t.word("records")?;
    let nrec = t.count(2)?;
    let mut records = Vec::with_capacity(nrec);
    for _ in 0..nrec {
        records.push(EpochRecord {
            loss: t.f64_bits()?,
            train_accuracy: t.f64_bits()?,
        });
    }
    t.word("weights")?;
    let nmats = t.count(3)?;
    let mut mats = Vec::with_capacity(nmats);
    for _ in 0..nmats {
        t.word("mat")?;
        let rows = t.usize()?;
        let cols = t.usize()?;
        let len = t.fits(rows.saturating_mul(cols), 1)?;
        let mut data = Vec::with_capacity(len);
        for _ in 0..len {
            data.push(t.f64_bits()?);
        }
        mats.push(Dense::from_vec(rows, cols, data));
    }
    t.word("stats")?;
    let mut stats = RankStats::default();
    for (i, phase) in PHASES.iter().enumerate() {
        t.word("phase")?;
        let idx = t.usize()?;
        if idx != i {
            return Err(bad(&format!("phase index {idx}, expected {i}")));
        }
        let c = stats.phase_mut(*phase);
        c.ops = t.u64()?;
        c.bytes_sent = t.u64()?;
        c.bytes_recv = t.u64()?;
        c.flops = t.u64()?;
        c.modeled_seconds = t.f64_bits()?;
        c.wall_seconds = t.f64_bits()?;
    }
    t.word("faults")?;
    stats.faults.delays = t.u64()?;
    stats.faults.delay_seconds = t.f64_bits()?;
    stats.faults.drops = t.u64()?;
    stats.faults.corruptions = t.u64()?;
    stats.faults.corruptions_detected = t.u64()?;
    stats.faults.retries = t.u64()?;
    stats.faults.retransmit_bytes = t.u64()?;
    stats.faults.duplicates = t.u64()?;
    stats.faults.duplicates_discarded = t.u64()?;
    stats.faults.slowed_ops = t.u64()?;
    t.word("proc")?;
    stats.proc.reconnects = t.u64()?;
    stats.proc.replayed_frames = t.u64()?;
    stats.proc.heartbeat_misses = t.u64()?;
    stats.proc.dial_backoffs = t.u64()?;
    stats.proc.partitions_suspected = t.u64()?;
    stats.proc.partitions_healed = t.u64()?;
    stats.proc.chaos_injected = t.u64()?;
    t.word("end")?;
    Ok((records, Weights { mats }, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnn_comm::Phase;

    #[test]
    fn outcome_codec_roundtrips_bit_exactly() {
        let records = vec![
            EpochRecord {
                loss: 1.25e-3,
                train_accuracy: 0.5,
            },
            EpochRecord {
                loss: f64::MIN_POSITIVE, // subnormal-adjacent edge case
                train_accuracy: 1.0 / 3.0,
            },
        ];
        let weights = Weights {
            mats: vec![
                Dense::from_fn(3, 2, |r, c| (r as f64 + 0.1) * (c as f64 - 7.3)),
                Dense::from_fn(2, 4, |r, c| -(r as f64) / (c as f64 + 1.0)),
            ],
        };
        let mut stats = RankStats::default();
        {
            let c = stats.phase_mut(Phase::AllToAll);
            c.ops = 7;
            c.bytes_sent = 123456;
            c.modeled_seconds = 0.1234567890123;
        }
        stats.faults.retries = 3;
        stats.proc.reconnects = 2;
        stats.proc.replayed_frames = 11;
        stats.proc.heartbeat_misses = 5;
        stats.proc.dial_backoffs = 8;
        stats.proc.partitions_suspected = 1;
        stats.proc.partitions_healed = 1;
        stats.proc.chaos_injected = 42;

        let dir = std::env::temp_dir().join(format!("gnn-outc-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        write_outcome(&dir, 0, &records, &weights, &stats).unwrap();
        let text = fs::read_to_string(outcome_path(&dir, 0)).unwrap();
        let (r2, w2, s2) = decode_outcome(&text).unwrap();

        assert_eq!(r2.len(), records.len());
        for (a, b) in r2.iter().zip(&records) {
            assert_eq!(a.loss.to_bits(), b.loss.to_bits());
            assert_eq!(a.train_accuracy.to_bits(), b.train_accuracy.to_bits());
        }
        assert_eq!(w2.max_abs_diff(&weights), 0.0);
        assert_eq!(s2, stats);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Decodes `text`: an error, or an outcome that holds — and has
    /// reserved — no more items than `text` can carry.
    fn decode_hostile(text: &str) {
        let Ok((records, weights, _)) = decode_outcome(text) else {
            return;
        };
        assert!(
            2 * records.capacity() <= text.len(),
            "{} records",
            records.capacity()
        );
        assert!(3 * weights.mats.capacity() <= text.len());
        for m in &weights.mats {
            assert!(m.data().len() <= text.len(), "{}x{}", m.rows(), m.cols());
        }
    }

    #[test]
    fn truncated_outcome_is_an_error() {
        let text = "records 2\n123 456\n";
        assert!(decode_outcome(text).is_err());
        for lie in [
            "records 18446744073709551615\n",
            "records 0\nweights 1\nmat 4294967296 4294967297\n",
            "records 0\nweights 1\nmat 100000 100000\n1 2\n",
        ] {
            assert!(decode_outcome(lie).is_err(), "{lie:?}");
        }

        let mut stats = RankStats::default();
        stats.phase_mut(Phase::AllToAll).bytes_sent = 4096;
        let records = [EpochRecord {
            loss: 0.75,
            train_accuracy: 0.25,
        }];
        let weights = Weights {
            mats: vec![Dense::from_fn(2, 3, |r, c| r as f64 - c as f64 * 0.5)],
        };
        let good = encode_outcome(&records, &weights, &stats);
        assert!(decode_outcome(&good).is_ok());
        // Only the final newline can go.
        for cut in 0..good.len() - 1 {
            assert!(decode_outcome(&good[..cut]).is_err(), "cut at {cut}");
        }
        for at in 0..good.len() {
            for flip in [0x01, 0x80, 0xff] {
                let mut bad = good.clone().into_bytes();
                bad[at] ^= flip;
                if let Ok(bad) = std::str::from_utf8(&bad) {
                    decode_hostile(bad);
                }
            }
        }
        // Every count: the record and matrix counts, each matrix's rows
        // and cols.
        let tokens: Vec<&str> = good.split_whitespace().collect();
        let counts: Vec<usize> = (1..tokens.len())
            .filter(|&i| {
                matches!(tokens[i - 1], "records" | "weights" | "mat")
                    || (i >= 2 && tokens[i - 2] == "mat")
            })
            .collect();
        assert_eq!(counts.len(), 4, "{tokens:?}");
        for at in counts {
            for lie in [u64::MAX, 1 << 63, 1 << 32] {
                let mut bad = tokens.clone();
                let lie = lie.to_string();
                bad[at] = &lie;
                assert!(
                    decode_outcome(&bad.join(" ")).is_err(),
                    "token {at} = {lie}"
                );
            }
        }
    }
}
