//! TCP multi-node soak suite: end-to-end training over the loopback
//! TCP mesh (hostfile mode), with and without the deterministic
//! network-chaos interposer, differentially checked against the thread
//! world — every scenario must end in weights **bit-identical** to the
//! oracle.
//!
//! Fault classes covered (all seeded, all replayable):
//! * clean TCP wire-up (1D and 1.5D) — the transport swap alone must
//!   be invisible;
//! * a link partition that **heals within** the heartbeat deadline —
//!   absorbed in place by reconnect + replay + dedup, no restart;
//! * a one-way partition that **outlives** the deadline — the world
//!   declares the link dead and recovers through the checkpoint
//!   restart ladder (chaos rules default to generation 0, so the
//!   respawned generation runs clean);
//! * a rendezvous connection-refusal window — ridden out by the
//!   capped-backoff dial loop;
//! * bandwidth-capped + jittery links — only wall time changes.
//!
//! Same launcher pattern as `proc_training.rs`: the parent re-executes
//! this test binary once per rank; children rebuild the identical
//! scenario from env and run [`gnn_core::run_rank_proc`].

#![cfg(unix)]

use std::net::TcpListener;
use std::path::PathBuf;
use std::process::{Child, Command};
use std::time::Duration;

use gnn_comm::{CostModel, FaultPlan};
use gnn_core::dist::even_bounds;
use gnn_core::{
    run_rank_proc, supervise_proc_training, train_distributed, Algo, DistConfig, DistOutcome,
    GcnConfig,
};
use spmat::dataset::{reddit_scaled, Dataset};

const P: usize = 4;

/// The deterministic scenario every side rebuilds from scratch.
fn scenario(
    algo: Algo,
    epochs: usize,
    checkpoint_every: usize,
    hostfile: Option<PathBuf>,
    faults: Option<String>,
) -> (Dataset, Vec<usize>, DistConfig) {
    let ds = reddit_scaled(7, 11); // 128 vertices
    let cfg = GcnConfig::paper_default(ds.f(), ds.num_classes);
    let parts = match algo {
        Algo::OneD { .. } => P,
        Algo::OneFiveD { c, .. } => P / c,
        Algo::TwoD { pc, .. } => P / pc,
        Algo::ThreeD { pc, c, .. } => P / (pc * c),
    };
    let bounds = even_bounds(ds.n(), parts);
    let mut dist_cfg = DistConfig::new(algo, cfg, epochs, CostModel::perlmutter_like());
    dist_cfg.robust.checkpoint_every = checkpoint_every;
    dist_cfg.robust.timeout = Duration::from_secs(30);
    dist_cfg.hostfile = hostfile;
    dist_cfg.robust.faults = faults.map(|spec| FaultPlan::parse(&spec).expect("fault spec"));
    (ds, bounds, dist_cfg)
}

fn algo_from_tag(tag: &str) -> Algo {
    match tag {
        "1d" => Algo::OneD { aware: true },
        "15d" => Algo::OneFiveD { aware: true, c: 2 },
        other => panic!("unknown algo tag {other}"),
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(format!("/tmp/gnntcp-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Writes an all-loopback hostfile under `dir`: rank 0 pins a
/// kernel-granted free port (the rendezvous endpoint), the remaining
/// ranks take ephemeral mesh ports published via the ADDRBOOK.
fn write_loopback_hostfile(dir: &std::path::Path) -> PathBuf {
    let port = TcpListener::bind("127.0.0.1:0")
        .expect("probe free port")
        .local_addr()
        .expect("local_addr")
        .port();
    let mut text = format!("127.0.0.1:{port}\n");
    for _ in 1..P {
        text.push_str("127.0.0.1\n");
    }
    let path = dir.join("hosts.txt");
    std::fs::write(&path, text).expect("write hostfile");
    path
}

/// Child-mode entry: rebuild the scenario from env and run this rank
/// over the TCP mesh. Returns true when this process was a child.
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
    let hostfile = PathBuf::from(std::env::var("GNN_TEST_HOSTFILE").unwrap());
    let chaos = std::env::var("GNN_TEST_CHAOS").ok();
    let (ds, bounds, cfg) = scenario(algo, epochs, every, Some(hostfile), chaos);
    run_rank_proc(&ds, &bounds, &cfg, &dir, rank).expect("proc rank failed");
    true
}

/// One TCP soak launch: world geometry, fault plan, and liveness knobs.
struct Launch {
    test_name: &'static str,
    dir: PathBuf,
    hostfile: PathBuf,
    algo_tag: &'static str,
    epochs: usize,
    ckpt_every: usize,
    chaos: Option<&'static str>,
    /// Heartbeat period / miss budget for the children: the product is
    /// the dead-peer deadline a partition must heal within.
    heartbeat_ms: u64,
    miss: u64,
}

impl Launch {
    fn spawner(&self) -> impl FnMut(usize) -> std::io::Result<Child> + '_ {
        move |rank| {
            let mut cmd = Command::new(std::env::current_exe().expect("current_exe"));
            cmd.arg(self.test_name)
                .arg("--exact")
                .arg("--nocapture")
                .arg("--test-threads=1")
                .env("GNN_PROC_TEST", self.test_name)
                .env("GNN_PROC_RANK", rank.to_string())
                .env("GNN_PROC_DIR", &self.dir)
                .env("GNN_TEST_ALGO", self.algo_tag)
                .env("GNN_TEST_EPOCHS", self.epochs.to_string())
                .env("GNN_TEST_CKPT_EVERY", self.ckpt_every.to_string())
                .env("GNN_TEST_HOSTFILE", &self.hostfile)
                .env("GNN_PROC_HEARTBEAT_MS", self.heartbeat_ms.to_string())
                .env("GNN_PROC_MISS", self.miss.to_string());
            if let Some(spec) = self.chaos {
                cmd.env("GNN_TEST_CHAOS", spec);
            }
            cmd.spawn()
        }
    }
}

/// Asserts the paper-facing results of two runs are interchangeable:
/// bit-identical trajectories/weights and identical logical volumes
/// (chaos lives below the logical layer, so it must not change what is
/// counted).
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

/// Clean TCP wire-up: the mesh swap alone must be invisible.
fn tcp_oracle_case(test_name: &'static str, algo_tag: &'static str, dir_tag: &str) {
    if maybe_run_child(test_name) {
        return;
    }
    const EPOCHS: usize = 4;
    let (ds, bounds, cfg) = scenario(algo_from_tag(algo_tag), EPOCHS, 0, None, None);
    let thread_out = train_distributed(&ds, &bounds, &cfg);

    let dir = scratch_dir(dir_tag);
    let launch = Launch {
        test_name,
        dir: dir.clone(),
        hostfile: write_loopback_hostfile(&dir),
        algo_tag,
        epochs: EPOCHS,
        ckpt_every: 0,
        chaos: None,
        heartbeat_ms: 50,
        miss: 15,
    };
    let proc_out = supervise_proc_training(P, &dir, 0, launch.spawner()).expect("TCP run");
    assert_eq!(proc_out.restarts, 0, "clean TCP run needs no restart");
    assert_equivalent(&proc_out, &thread_out, algo_tag);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tcp_mesh_matches_thread_oracle_1d() {
    tcp_oracle_case("tcp_mesh_matches_thread_oracle_1d", "1d", "oracle1d");
}

#[test]
fn tcp_mesh_matches_thread_oracle_15d() {
    tcp_oracle_case("tcp_mesh_matches_thread_oracle_15d", "15d", "oracle15d");
}

#[test]
fn partition_healed_within_deadline_is_bit_identical() {
    const NAME: &str = "partition_healed_within_deadline_is_bit_identical";
    if maybe_run_child(NAME) {
        return;
    }
    // Link 0↔2 goes dark 100..600 ms into each rank's run. The dead-peer
    // deadline is 50 ms × 30 = 1.5 s, so the partition must be absorbed
    // in place: severed connections redial under backoff, the replay
    // queues retransmit the unacked suffix, dedup drops the overlap —
    // and no generation restart happens.
    const CHAOS: &str = "seed=11;partition=0-2@100..600";
    const EPOCHS: usize = 60;
    let (ds, bounds, cfg) = scenario(algo_from_tag("1d"), EPOCHS, 1, None, None);
    let thread_out = train_distributed(&ds, &bounds, &cfg);

    let dir = scratch_dir("heal");
    let launch = Launch {
        test_name: NAME,
        dir: dir.clone(),
        hostfile: write_loopback_hostfile(&dir),
        algo_tag: "1d",
        epochs: EPOCHS,
        ckpt_every: 1,
        chaos: Some(CHAOS),
        heartbeat_ms: 50,
        miss: 30,
    };
    let proc_out = supervise_proc_training(P, &dir, 0, launch.spawner())
        .expect("partition must heal in place");
    assert_eq!(
        proc_out.restarts, 0,
        "a healed partition must not cost a restart"
    );
    assert!(
        proc_out.stats.total_partitions_suspected() >= 1,
        "the partition window never fired — chaos plan inert?"
    );
    assert!(
        proc_out.stats.total_partitions_healed() >= 1,
        "no link reported a heal"
    );
    assert_equivalent(&proc_out, &thread_out, "partition-heal");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn partition_past_deadline_recovers_via_checkpoint_restart() {
    const NAME: &str = "partition_past_deadline_recovers_via_checkpoint_restart";
    if maybe_run_child(NAME) {
        return;
    }
    // A one-way partition of link 0→1 that never heals. With a 50 ms ×
    // 4 = 200 ms deadline the world must declare the link dead, fail
    // the generation, and recover through checkpoint restart — the
    // chaos rule defaults to generation 0, so the respawn runs clean
    // (that gating is exactly what prevents a restart livelock).
    const CHAOS: &str = "seed=5;partition=0>1@100..";
    const EPOCHS: usize = 60;
    let (ds, bounds, cfg) = scenario(algo_from_tag("1d"), EPOCHS, 1, None, None);
    let thread_out = train_distributed(&ds, &bounds, &cfg);

    let dir = scratch_dir("exceed");
    let launch = Launch {
        test_name: NAME,
        dir: dir.clone(),
        hostfile: write_loopback_hostfile(&dir),
        algo_tag: "1d",
        epochs: EPOCHS,
        ckpt_every: 1,
        chaos: Some(CHAOS),
        heartbeat_ms: 50,
        miss: 4,
    };
    let proc_out = supervise_proc_training(P, &dir, 2, launch.spawner())
        .expect("supervisor must recover through the restart ladder");
    assert!(
        proc_out.restarts >= 1,
        "an unhealed partition must force at least one restart"
    );
    // Results, not transport counters, are compared: stats cover only
    // the completing (clean) generation.
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
fn rendezvous_refusal_window_is_ridden_out() {
    const NAME: &str = "rendezvous_refusal_window_is_ridden_out";
    if maybe_run_child(NAME) {
        return;
    }
    // Every dial to rank 0 — rendezvous REGISTER and mesh alike — is
    // refused for the first 400 ms. The capped-backoff dial loops must
    // absorb the window well inside the 30 s rendezvous deadline.
    const CHAOS: &str = "seed=3;refuse=0@0..400";
    const EPOCHS: usize = 4;
    let (ds, bounds, cfg) = scenario(algo_from_tag("1d"), EPOCHS, 0, None, None);
    let thread_out = train_distributed(&ds, &bounds, &cfg);

    let dir = scratch_dir("refused");
    let launch = Launch {
        test_name: NAME,
        dir: dir.clone(),
        hostfile: write_loopback_hostfile(&dir),
        algo_tag: "1d",
        epochs: EPOCHS,
        ckpt_every: 0,
        chaos: Some(CHAOS),
        heartbeat_ms: 50,
        miss: 30,
    };
    let proc_out =
        supervise_proc_training(P, &dir, 0, launch.spawner()).expect("refusal window absorbed");
    assert_eq!(proc_out.restarts, 0, "refusals must be retried, not fatal");
    assert!(
        proc_out.stats.total_chaos_injected() >= 1,
        "the refusal window never fired — chaos plan inert?"
    );
    assert!(
        proc_out.stats.total_dial_backoffs() >= 1,
        "refused dials must have backed off"
    );
    assert_equivalent(&proc_out, &thread_out, "rendezvous-refused");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bandwidth_capped_links_deliver_bit_identical_results() {
    const NAME: &str = "bandwidth_capped_links_deliver_bit_identical_results";
    if maybe_run_child(NAME) {
        return;
    }
    // Token-bucket caps plus jittery per-frame latency on every link:
    // pure slowdown. Logical volumes and results must not move.
    const CHAOS: &str = "seed=9;bw=*-*:2000000;delay=*-*:1+-1";
    const EPOCHS: usize = 3;
    let (ds, bounds, cfg) = scenario(algo_from_tag("1d"), EPOCHS, 0, None, None);
    let thread_out = train_distributed(&ds, &bounds, &cfg);

    let dir = scratch_dir("bwcap");
    let launch = Launch {
        test_name: NAME,
        dir: dir.clone(),
        hostfile: write_loopback_hostfile(&dir),
        algo_tag: "1d",
        epochs: EPOCHS,
        ckpt_every: 0,
        chaos: Some(CHAOS),
        heartbeat_ms: 50,
        miss: 30,
    };
    let proc_out =
        supervise_proc_training(P, &dir, 0, launch.spawner()).expect("capped run completes");
    assert_eq!(proc_out.restarts, 0, "slow links are not failures");
    assert!(
        proc_out.stats.total_chaos_injected() >= 1,
        "no delay was ever injected — chaos plan inert?"
    );
    assert_equivalent(&proc_out, &thread_out, "bandwidth-capped");
    let _ = std::fs::remove_dir_all(&dir);
}
