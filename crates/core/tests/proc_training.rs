//! End-to-end training on the process backend: the differential oracle
//! against the thread world, and chaos tests that SIGKILL / SIGSTOP
//! real rank processes mid-epoch.
//!
//! Same launcher pattern as the comm-level tests: the parent re-executes
//! this test binary once per rank (filtered to the same test name); each
//! child detects its role via `GNN_PROC_RANK` and runs
//! [`gnn_core::run_rank_proc`] over real Unix-domain sockets.

#![cfg(unix)]

use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::time::{Duration, Instant};

use gnn_comm::CostModel;
use gnn_core::dist::even_bounds;
use gnn_core::{
    run_rank_proc, supervise_proc_training, train_distributed, Algo, DistConfig, DistOutcome,
    GcnConfig, ProcTrainError,
};
use spmat::dataset::{reddit_scaled, Dataset};

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}
const SIGKILL: i32 = 9;
const SIGSTOP: i32 = 19;

/// The deterministic scenario both the thread oracle and every proc
/// child rebuild from scratch: dataset, block bounds, and trainer
/// config must be bitwise-identical on all sides.
fn scenario(
    algo: Algo,
    epochs: usize,
    checkpoint_every: usize,
) -> (Dataset, Vec<usize>, DistConfig) {
    let ds = reddit_scaled(7, 11); // 128 vertices
    let cfg = GcnConfig::paper_default(ds.f(), ds.num_classes);
    let parts = match algo {
        Algo::OneD { .. } => 4,
        Algo::OneFiveD { c, .. } => 4 / c, // p = parts * c = 4
        Algo::TwoD { pc, .. } => 4 / pc,
        Algo::ThreeD { pc, c, .. } => 4 / (pc * c),
    };
    let bounds = even_bounds(ds.n(), parts);
    let mut dist_cfg = DistConfig::new(algo, cfg, epochs, CostModel::perlmutter_like());
    dist_cfg.robust.checkpoint_every = checkpoint_every;
    dist_cfg.robust.timeout = Duration::from_secs(30);
    (ds, bounds, dist_cfg)
}

fn algo_from_tag(tag: &str) -> Algo {
    match tag {
        "1d" => Algo::OneD { aware: true },
        "15d" => Algo::OneFiveD { aware: true, c: 2 },
        "2d" => Algo::TwoD { aware: true, pc: 2 },
        "3d" => Algo::ThreeD {
            aware: true,
            pc: 1,
            c: 2,
        },
        other => panic!("unknown algo tag {other}"),
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(format!("/tmp/gnntr-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Child-mode entry: rebuild the scenario from env and run this rank.
/// Returns true when this process was a child (the test should return).
fn maybe_run_child(test_name: &str) -> bool {
    if std::env::var("GNN_PROC_TEST").as_deref() != Ok(test_name) {
        return false;
    }
    let rank: usize = std::env::var("GNN_PROC_RANK").unwrap().parse().unwrap();
    let dir = PathBuf::from(std::env::var("GNN_PROC_DIR").unwrap());
    let algo = algo_from_tag(&std::env::var("GNN_TEST_ALGO").unwrap());
    let epochs: usize = std::env::var("GNN_TEST_EPOCHS").unwrap().parse().unwrap();
    let every: usize = std::env::var("GNN_TEST_CKPT_EVERY")
        .unwrap()
        .parse()
        .unwrap();
    let (ds, bounds, cfg) = scenario(algo, epochs, every);
    run_rank_proc(&ds, &bounds, &cfg, &dir, rank).expect("proc rank failed");
    true
}

/// Spawner the supervisor uses: re-exec this test binary as one rank.
fn spawner(
    test_name: &'static str,
    dir: PathBuf,
    algo_tag: &'static str,
    epochs: usize,
    every: usize,
) -> impl FnMut(usize) -> std::io::Result<Child> {
    move |rank| {
        Command::new(std::env::current_exe().expect("current_exe"))
            .arg(test_name)
            .arg("--exact")
            .arg("--nocapture")
            .arg("--test-threads=1")
            .env("GNN_PROC_TEST", test_name)
            .env("GNN_PROC_RANK", rank.to_string())
            .env("GNN_PROC_DIR", &dir)
            .env("GNN_TEST_ALGO", algo_tag)
            .env("GNN_TEST_EPOCHS", epochs.to_string())
            .env("GNN_TEST_CKPT_EVERY", every.to_string())
            // Fast death detection keeps the chaos tests snappy.
            .env("GNN_PROC_HEARTBEAT_MS", "50")
            .env("GNN_PROC_MISS", "4")
            .spawn()
    }
}

/// Asserts the paper-facing results of two runs are interchangeable:
/// bit-identical trajectories/weights and identical logical volumes.
fn assert_equivalent(proc_out: &DistOutcome, thread_out: &DistOutcome, label: &str) {
    assert_eq!(
        proc_out.records.len(),
        thread_out.records.len(),
        "{label}: epoch count"
    );
    for (i, (a, b)) in proc_out.records.iter().zip(&thread_out.records).enumerate() {
        assert_eq!(
            a.loss.to_bits(),
            b.loss.to_bits(),
            "{label}: loss diverges at epoch {i}"
        );
        assert_eq!(
            a.train_accuracy.to_bits(),
            b.train_accuracy.to_bits(),
            "{label}: accuracy diverges at epoch {i}"
        );
    }
    assert_eq!(
        proc_out.weights.max_abs_diff(&thread_out.weights),
        0.0,
        "{label}: final weights must be bit-identical"
    );
    // Logical communication volumes are a measured quantity of the
    // paper — the backend must not change what is counted.
    assert_eq!(
        proc_out.stats.p(),
        thread_out.stats.p(),
        "{label}: world size"
    );
    for (r, (a, b)) in proc_out
        .stats
        .per_rank
        .iter()
        .zip(&thread_out.stats.per_rank)
        .enumerate()
    {
        assert_eq!(
            a.bytes_sent_total(),
            b.bytes_sent_total(),
            "{label}: rank {r} logical send volume"
        );
        assert_eq!(
            a.bytes_recv_total(),
            b.bytes_recv_total(),
            "{label}: rank {r} logical recv volume"
        );
    }
}

fn oracle_case(test_name: &'static str, algo_tag: &'static str, dir_tag: &str) {
    if maybe_run_child(test_name) {
        return;
    }
    const EPOCHS: usize = 4;
    let algo = algo_from_tag(algo_tag);
    let (ds, bounds, cfg) = scenario(algo, EPOCHS, 0);
    let thread_out = train_distributed(&ds, &bounds, &cfg);

    let dir = scratch_dir(dir_tag);
    let proc_out = supervise_proc_training(
        4,
        &dir,
        0,
        spawner(test_name, dir.clone(), algo_tag, EPOCHS, 0),
    )
    .expect("process-backed run");
    assert_eq!(proc_out.restarts, 0, "clean run needs no restart");
    assert_equivalent(&proc_out, &thread_out, algo_tag);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn proc_backend_matches_thread_oracle_1d() {
    oracle_case("proc_backend_matches_thread_oracle_1d", "1d", "oracle1d");
}

#[test]
fn proc_backend_matches_thread_oracle_15d() {
    oracle_case("proc_backend_matches_thread_oracle_15d", "15d", "oracle15d");
}

#[test]
fn proc_backend_matches_thread_oracle_2d() {
    oracle_case("proc_backend_matches_thread_oracle_2d", "2d", "oracle2d");
}

#[test]
fn proc_backend_matches_thread_oracle_3d() {
    oracle_case("proc_backend_matches_thread_oracle_3d", "3d", "oracle3d");
}

/// The supervisor wakes on the first exit rather than on a timer, and
/// still kills a child whose exit waiter is blocked on it: rank 0 fails
/// at once, rank 1 would sleep for 30 s, no restart is allowed.
#[test]
fn supervisor_wakes_on_the_first_exit_and_kills_the_rest() {
    let dir = scratch_dir("firstexit");
    let t0 = Instant::now();
    let err = supervise_proc_training(2, &dir, 0, |rank| {
        let script = if rank == 0 { "exit 3" } else { "exec sleep 30" };
        Command::new("sh").args(["-c", script]).spawn()
    })
    .expect_err("rank 0's failure exhausts a budget of no restarts");
    let elapsed = t0.elapsed();
    match err {
        ProcTrainError::Exhausted { restarts, failures } => {
            assert_eq!(restarts, 0);
            assert_eq!(failures, ["rank 0 exited with code 3"]);
        }
        other => panic!("expected Exhausted, got {other}"),
    }
    assert!(
        elapsed < Duration::from_secs(10),
        "the supervisor took {elapsed:?}: it waited for the sleeping rank"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Waits for evidence that the run is past its first checkpoint, then
/// signals the given rank's process. Returns the pid signaled.
fn signal_rank_when_underway(dir: &Path, rank: usize, sig: i32) -> i32 {
    let ckpt = dir.join("ckpt").join("slot0.ck");
    let pid_file = dir.join(format!("rank{rank}.pid"));
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        assert!(
            Instant::now() < deadline,
            "run never reached its first checkpoint"
        );
        if ckpt.exists() {
            if let Ok(pid) = std::fs::read_to_string(&pid_file) {
                if let Ok(pid) = pid.trim().parse::<i32>() {
                    unsafe { kill(pid, sig) };
                    return pid;
                }
            }
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn chaos_case(test_name: &'static str, dir_tag: &str, sig: i32, victim: usize) {
    if maybe_run_child(test_name) {
        return;
    }
    const EPOCHS: usize = 60; // long enough that the signal lands mid-run
    let (ds, bounds, cfg) = scenario(algo_from_tag("1d"), EPOCHS, 1);
    let thread_out = train_distributed(&ds, &bounds, &cfg);

    let dir = scratch_dir(dir_tag);
    let chaos = {
        let dir = dir.clone();
        std::thread::spawn(move || signal_rank_when_underway(&dir, victim, sig))
    };
    let proc_out =
        supervise_proc_training(4, &dir, 2, spawner(test_name, dir.clone(), "1d", EPOCHS, 1))
            .expect("supervisor must recover the run via checkpoint restart");
    chaos.join().expect("chaos thread");

    assert!(
        proc_out.restarts >= 1,
        "the signal must have forced at least one restart"
    );
    assert!(
        !proc_out.resume_points.is_empty() && proc_out.resume_points.iter().all(|&e| e >= 1),
        "restart must resume from a persisted checkpoint, got {:?}",
        proc_out.resume_points
    );
    // The recovered run is indistinguishable in results (stats cover
    // only the completing generation, so only results are compared).
    assert_eq!(proc_out.records.len(), thread_out.records.len());
    for (a, b) in proc_out.records.iter().zip(&thread_out.records) {
        assert_eq!(a.loss.to_bits(), b.loss.to_bits());
        assert_eq!(a.train_accuracy.to_bits(), b.train_accuracy.to_bits());
    }
    assert_eq!(
        proc_out.weights.max_abs_diff(&thread_out.weights),
        0.0,
        "recovery must reproduce the clean run bit-for-bit"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sigkill_mid_epoch_recovers_bit_identical() {
    chaos_case(
        "sigkill_mid_epoch_recovers_bit_identical",
        "sigkill",
        SIGKILL,
        2,
    );
}

#[test]
fn sigstop_stall_is_detected_and_recovered() {
    chaos_case(
        "sigstop_stall_is_detected_and_recovered",
        "sigstop",
        SIGSTOP,
        1,
    );
}
