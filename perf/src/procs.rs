//! The process backend's harness side: launching rank processes (this
//! binary re-executed in a hidden child mode) and the child modes
//! themselves.
//!
//! Hygiene: every launch gets a fresh directory under `perf/out/run/`,
//! removed afterwards; children run with `GNN_THREADS=1` and no other
//! `GNN_*` variable; a child that outlives its deadline exits with a
//! failure, upon which the supervisor kills its peers, so a hung world
//! never hangs the benchmark; each child leaves its `VmHWM` behind on
//! exit.
//!
//! Hung worlds do happen: the process transport holds a link's mutex
//! while it writes a frame, its reader thread needs the same mutex to
//! acknowledge a frame, so two ranks that write frames larger than the
//! socket buffer to each other at the wrong moment block for good (both
//! main threads in `sendmsg`, both readers on the futex; about one
//! amazon13 launch in sixty on the 2-core host, `train --backend proc`
//! included). Nothing outside `crates/comm` can prevent that, and the
//! transport's own watchdog does not see it (a blocked write is not a
//! watched wait). So a training launch runs under the supervisor's
//! restart rung: the guard above ends the hung generation, the
//! supervisor reruns it (up to [`MAX_RESTARTS`] times), and the call is a
//! slow success with `DistOutcome.restarts > 0` — or a failure if it
//! still breaks the timeout or any check.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

use gnn_comm::ProcWorld;
use gnn_core::{run_rank_proc, supervise_proc_training, DistConfig, DistOutcome};

use crate::e2e::cost_model;
use crate::host::vm_hwm_bytes;
use crate::layers::{comm_body, CommSpec, CommTimes};
use crate::workload::{prepare, Workload};

/// Launch directories live here, relative to the repository root the
/// benchmark runs from. Relative on purpose: Unix socket paths are
/// capped near 100 bytes, and a checkout can sit arbitrarily deep.
const RUN_ROOT: &str = "perf/out/run";

/// Hung generations the supervisor may rerun within one training call.
const MAX_RESTARTS: usize = 3;

/// First argument of the hidden child modes.
pub const CHILD_TRAIN: &str = "rank-train";
pub const CHILD_COMM: &str = "rank-comm";

/// Rank processes are this binary, re-executed.
fn own_exe() -> Result<PathBuf, String> {
    std::env::current_exe().map_err(|e| format!("current_exe: {e}"))
}

fn fresh_dir() -> Result<PathBuf, String> {
    static SEQ: AtomicU32 = AtomicU32::new(0);
    let dir = Path::new(RUN_ROOT).join(format!(
        "{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    // A directory left by a killed earlier run with our pid must go.
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

fn rss_path(dir: &Path, rank: usize) -> PathBuf {
    dir.join(format!("rss-rank{rank}.txt"))
}

fn comm_times_path(dir: &Path) -> PathBuf {
    dir.join("comm-times.txt")
}

/// A rank process: same binary, clean kernel environment.
fn child_command(exe: &Path, mode: &str, dir: &Path, rank: usize, deadline: Duration) -> Command {
    let mut cmd = Command::new(exe);
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("GNN_") {
            cmd.env_remove(key);
        }
    }
    cmd.env("GNN_THREADS", "1")
        .arg(mode)
        .arg(dir)
        .arg(rank.to_string())
        .arg(deadline.as_secs_f64().to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::null());
    cmd
}

/// Sum of the children's recorded `VmHWM`.
fn children_rss(dir: &Path, p: usize) -> u64 {
    (0..p)
        .filter_map(|r| fs::read_to_string(rss_path(dir, r)).ok())
        .filter_map(|s| s.trim().parse::<u64>().ok())
        .sum()
}

/// One training call on the process backend: `p` rank processes under
/// `supervise_proc_training`, each giving up after `hang_guard`.
/// Returns wall seconds (launch to the last outcome collected), the
/// outcome, and the children's summed peak RSS.
pub fn train(
    wl: &Workload,
    seed: u64,
    epochs: usize,
    hang_guard: Duration,
) -> Result<(f64, DistOutcome, u64), String> {
    let p = wl.ranks();
    let exe = own_exe()?;
    let dir = fresh_dir()?;
    let t = Instant::now();
    let out = supervise_proc_training(p, &dir, MAX_RESTARTS, |rank| {
        child_command(&exe, CHILD_TRAIN, &dir, rank, hang_guard)
            .arg(wl.name)
            .arg(seed.to_string())
            .arg(epochs.to_string())
            .spawn()
    });
    let secs = t.elapsed().as_secs_f64();
    let rss = children_rss(&dir, p);
    let _ = fs::remove_dir_all(&dir);
    out.map(|o| (secs, o, rss)).map_err(|e| e.to_string())
}

/// The communication micro-benchmarks inside `ProcWorld::run_rank` in
/// `p` rank processes; rank 0 reports the times. A world that hangs
/// (see the module comment) is measured again, once.
pub fn comm_bench(p: usize, spec: &CommSpec) -> Result<CommTimes, String> {
    comm_bench_once(p, spec).or_else(|why| {
        eprintln!("perf: comm micro-benchmark world failed ({why}); measuring again");
        comm_bench_once(p, spec)
    })
}

fn comm_bench_once(p: usize, spec: &CommSpec) -> Result<CommTimes, String> {
    const DEADLINE: Duration = Duration::from_secs(20);
    let exe = own_exe()?;
    let dir = fresh_dir()?;
    let mut children: Vec<Child> = Vec::new();
    let mut failure = None;
    for rank in 0..p {
        let spawned = child_command(&exe, CHILD_COMM, &dir, rank, DEADLINE)
            .arg(p.to_string())
            .arg(spec.to_arg())
            .spawn();
        match spawned {
            Ok(c) => children.push(c),
            Err(e) => {
                failure = Some(format!("spawn rank {rank}: {e}"));
                break;
            }
        }
    }
    // Children end by themselves (done, failed peer, or deadline), so a
    // plain wait cannot hang; after a spawn failure the started ones are
    // killed first.
    for (rank, child) in children.iter_mut().enumerate() {
        if failure.is_some() {
            let _ = child.kill();
        }
        match child.wait() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                failure.get_or_insert(format!("comm-bench rank {rank}: {status}"));
            }
            Err(e) => {
                failure.get_or_insert(format!("wait rank {rank}: {e}"));
            }
        }
    }
    let times = fs::read_to_string(comm_times_path(&dir))
        .ok()
        .and_then(|s| CommTimes::from_line(&s));
    let _ = fs::remove_dir_all(&dir);
    match failure {
        Some(why) => Err(why),
        None => times.ok_or_else(|| "rank 0 left no comm-bench times".to_string()),
    }
}

/// Entry point of the hidden child modes:
/// `<mode> <dir> <rank> <deadline_s> …`.
pub fn child_main(mode: &str, args: &[String]) -> ExitCode {
    match child(mode, args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(why) => {
            eprintln!("perf {mode}: {why}");
            ExitCode::FAILURE
        }
    }
}

fn child(mode: &str, args: &[String]) -> Result<(), String> {
    fn num<T: std::str::FromStr>(args: &[String], i: usize, what: &str) -> Result<T, String> {
        args.get(i)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad or missing {what}"))
    }
    let dir = PathBuf::from(args.first().ok_or("missing launch directory")?);
    let rank: usize = num(args, 1, "rank")?;
    let deadline: f64 = num(args, 2, "deadline")?;
    // The deadline guard: a detached thread on purpose, it must not keep
    // a finished rank alive and has nothing to hand back.
    std::thread::spawn(move || {
        std::thread::sleep(Duration::from_secs_f64(deadline));
        eprintln!("perf rank {rank}: still running after {deadline:.1} s, giving up");
        std::process::exit(3);
    });
    spmat::pool::set_threads(1);

    match mode {
        CHILD_TRAIN => {
            let name = args.get(3).ok_or("missing workload")?;
            let wl = Workload::find(name).ok_or_else(|| format!("unknown workload {name}"))?;
            let seed: u64 = num(args, 4, "seed")?;
            let epochs: usize = num(args, 5, "epochs")?;
            // Every rank rebuilds the seeded scenario, as
            // `train --backend proc` does: nothing is serialized to it.
            let prep = prepare(wl, &wl.generate(seed), seed);
            let cfg = DistConfig::new(wl.algo, wl.gcn(&prep.ds), epochs, cost_model());
            run_rank_proc(&prep.ds, &prep.bounds, &cfg, &dir, rank).map_err(|e| e.to_string())?;
        }
        CHILD_COMM => {
            let p: usize = num(args, 3, "world size")?;
            let spec = args
                .get(4)
                .and_then(|s| CommSpec::from_arg(s))
                .ok_or("bad or missing comm spec")?;
            let ((times, _), _) = ProcWorld::new(p, cost_model(), &dir)
                .run_rank(rank, |ctx| comm_body(ctx, &spec))
                .map_err(|e| e.to_string())?;
            if rank == 0 {
                fs::write(comm_times_path(&dir), times.to_line()).map_err(|e| e.to_string())?;
            }
        }
        other => return Err(format!("unknown child mode {other}")),
    }
    let hwm = vm_hwm_bytes().ok_or("no VmHWM in /proc/self/status")?;
    fs::write(rss_path(&dir, rank), hwm.to_string()).map_err(|e| e.to_string())
}
