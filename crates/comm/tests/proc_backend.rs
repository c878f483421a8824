//! Integration tests for the process/socket backend ([`ProcWorld`]).
//!
//! Each test re-executes the test binary once per rank (the launcher
//! pattern `train --backend proc` uses): the parent spawns `p` copies of
//! itself filtered to the same test name, each child detects its role
//! via `GNN_PROC_RANK`, runs the rank body over real Unix-domain
//! sockets (TCP when the parent left a hostfile in the run dir), and
//! exits with a status the parent asserts on.

#![cfg(unix)]

use std::process::Command;
use std::time::Duration;

use gnn_comm::msg::Payload;
use gnn_comm::{CostModel, FaultPlan, HostFile, ProcError, ProcWorld};

/// Short scratch dir for the socket mesh (UDS paths are length-limited).
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::path::PathBuf::from(format!("/tmp/gnnpt-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Returns this process's rank when running as a re-exec'd child of
/// `test_name`, or `None` in the parent.
fn child_rank(test_name: &str) -> Option<usize> {
    if std::env::var("GNN_PROC_TEST").as_deref() == Ok(test_name) {
        Some(
            std::env::var("GNN_PROC_RANK")
                .expect("child is missing GNN_PROC_RANK")
                .parse()
                .expect("GNN_PROC_RANK must be a rank index"),
        )
    } else {
        None
    }
}

/// Re-executes this test binary as rank `rank` of `test_name`, meshed
/// under `dir`. Extra env pairs tune the child's liveness budget.
fn spawn_rank(
    test_name: &str,
    rank: usize,
    dir: &std::path::Path,
    env: &[(&str, &str)],
) -> std::process::Child {
    let exe = std::env::current_exe().expect("current_exe");
    let mut cmd = Command::new(exe);
    cmd.arg(test_name)
        .arg("--exact")
        .arg("--nocapture")
        .arg("--test-threads=1")
        .env("GNN_PROC_TEST", test_name)
        .env("GNN_PROC_RANK", rank.to_string())
        .env("GNN_PROC_DIR", dir)
        // Fast liveness so death-detection tests finish in ~200ms.
        .env("GNN_PROC_HEARTBEAT_MS", "50")
        .env("GNN_PROC_MISS", "4");
    for (k, v) in env {
        cmd.env(k, v);
    }
    cmd.spawn().expect("spawn child rank")
}

/// The world a child rank joins: meshed under `GNN_PROC_DIR`, over TCP
/// when the parent wrote a hostfile there ([`write_loopback_hostfile`]).
fn world(p: usize) -> ProcWorld {
    let dir = std::env::var("GNN_PROC_DIR").expect("child is missing GNN_PROC_DIR");
    let hosts = std::path::Path::new(&dir).join("hosts.txt");
    let world = ProcWorld::new(p, CostModel::default(), &dir).with_timeout(Duration::from_secs(20));
    match hosts.exists() {
        true => world.with_hostfile(HostFile::load(&hosts).expect("load hostfile")),
        false => world,
    }
}

/// Asks the kernel for a currently-free loopback port. The listener is
/// dropped before returning, so there is a small reuse race — fine for
/// tests, where each run allocates fresh.
fn free_loopback_port() -> u16 {
    std::net::TcpListener::bind("127.0.0.1:0")
        .expect("bind ephemeral")
        .local_addr()
        .expect("local_addr")
        .port()
}

/// Writes an all-loopback hostfile for `p` ranks into `dir`, which
/// switches the children meshed there to TCP: rank 0 gets a pinned
/// rendezvous port, the rest take kernel-chosen mesh ports (published
/// through the ADDRBOOK).
fn write_loopback_hostfile(dir: &std::path::Path, p: usize) {
    let mut text = format!("127.0.0.1:{}\n", free_loopback_port());
    for _ in 1..p {
        text.push_str("127.0.0.1\n");
    }
    std::fs::write(dir.join("hosts.txt"), text).expect("write hostfile");
}

/// Every rank passes a growing f64 vector around a ring `rounds` times;
/// after `p` hops each value has collected every rank's contribution,
/// so the final checksum proves FIFO delivery and content integrity
/// across real sockets.
fn ring_body(ctx: &mut gnn_comm::RankCtx, rounds: usize) {
    let p = ctx.p();
    let rank = ctx.rank();
    let next = (rank + 1) % p;
    let prev = (rank + p - 1) % p;
    for round in 0..rounds {
        let mut token = vec![rank as f64, round as f64];
        for _hop in 0..p {
            ctx.send(next, Payload::F64(token.clone()));
            token = match ctx.recv(prev) {
                Payload::F64(v) => v,
                other => panic!("expected F64 token, got {other:?}"),
            };
            let mut pushed = token.clone();
            pushed.push(token[0] + token[1]);
            token = pushed;
        }
        // After p hops the token is back home with p appended sums.
        assert_eq!(token.len(), 2 + p, "round {round}: token length");
        assert_eq!(token[0], rank as f64, "round {round}: token returned home");
    }
    // Collective sanity on the same mesh.
    let mut buf = vec![rank as f64; 4];
    let group: Vec<usize> = (0..p).collect();
    ctx.allreduce_sum(&mut buf, &group);
    let expect = (p * (p - 1) / 2) as f64;
    assert!(buf.iter().all(|&x| x == expect), "allreduce mismatch");
    ctx.barrier();
}

#[test]
fn ring_exchange_over_processes() {
    const NAME: &str = "ring_exchange_over_processes";
    const P: usize = 3;
    if let Some(rank) = child_rank(NAME) {
        let (_out, stats) = world(P)
            .run_rank(rank, |ctx| ring_body(ctx, 3))
            .expect("rank body");
        assert!(stats.bytes_sent_total() > 0, "rank recorded no traffic");
        return;
    }
    let dir = scratch_dir("ring");
    let children: Vec<_> = (0..P).map(|r| spawn_rank(NAME, r, &dir, &[])).collect();
    for (rank, mut child) in children.into_iter().enumerate() {
        let status = child.wait().expect("wait child");
        assert!(status.success(), "rank {rank} exited with {status}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ring_exchange_over_tcp_loopback() {
    const NAME: &str = "ring_exchange_over_tcp_loopback";
    const P: usize = 3;
    if let Some(rank) = child_rank(NAME) {
        let (_out, stats) = world(P)
            .run_rank(rank, |ctx| ring_body(ctx, 3))
            .expect("rank body");
        assert!(stats.bytes_sent_total() > 0, "rank recorded no traffic");
        return;
    }
    let dir = scratch_dir("tcpring");
    write_loopback_hostfile(&dir, P);
    let children: Vec<_> = (0..P).map(|r| spawn_rank(NAME, r, &dir, &[])).collect();
    for (rank, mut child) in children.into_iter().enumerate() {
        let status = child.wait().expect("wait child");
        assert!(status.success(), "rank {rank} exited with {status}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Waits for every child, killing whatever is still running at the
/// deadline. `None` marks a rank that had to be killed — a hang the
/// in-process watchdog cannot see (a rank blocked in a socket write is
/// not in a watched wait).
fn wait_within(
    children: Vec<std::process::Child>,
    limit: Duration,
) -> Vec<Option<std::process::ExitStatus>> {
    let deadline = std::time::Instant::now() + limit;
    children
        .into_iter()
        .map(|mut child| loop {
            if let Some(status) = child.try_wait().expect("poll child") {
                break Some(status);
            }
            if std::time::Instant::now() >= deadline {
                let _ = child.kill();
                let _ = child.wait();
                break None;
            }
            std::thread::sleep(Duration::from_millis(20));
        })
        .collect()
}

/// Regression test for the launch hang PR 11 found (about one
/// `amazon13` launch in 60): both ranks write frames far larger than a
/// socket buffer at each other *before either receives*. Each main
/// thread is then parked in a socket write that completes only if the
/// peer's reader thread keeps draining — so a reader that waits on
/// anything the local writer holds (it used to take the connection
/// mutex to dedup and ACK every frame) closes a four-thread cycle with
/// both mains in `sendmsg` and both readers on the futex. Reader threads
/// are gone since: each main thread now drains the other from inside its
/// own blocked write (DESIGN.md §8). The barrier releases the two floods
/// together; the parent-side deadline is what fails the test, because
/// nothing inside the ranks can notice.
#[test]
fn flooding_both_directions_before_receiving_cannot_wedge_the_link() {
    const NAME: &str = "flooding_both_directions_before_receiving_cannot_wedge_the_link";
    const P: usize = 2;
    const FRAMES: usize = 32;
    const WORDS: usize = 512 * 1024; // 4 MiB of f64 per frame
    const DEADLINE: Duration = Duration::from_secs(30);
    // 50 rounds move 12.8 GB through checksum, codec and socket; an
    // unoptimized build cannot do that inside the deadline, and the old
    // lock discipline wedged in the first round anyway.
    let rounds = if cfg!(debug_assertions) { 2 } else { 50 };
    if let Some(rank) = child_rank(NAME) {
        world(P)
            .run_rank(rank, |ctx| {
                let peer = 1 - ctx.rank();
                let block: Vec<f64> = (0..WORDS).map(|i| (i + ctx.rank()) as f64).collect();
                for round in 0..rounds {
                    ctx.barrier();
                    for frame in 0..FRAMES {
                        let mut v = block.clone();
                        v[0] = (round * FRAMES + frame) as f64;
                        ctx.send(peer, Payload::F64(v));
                    }
                    for frame in 0..FRAMES {
                        match ctx.recv(peer) {
                            Payload::F64(v) => {
                                assert_eq!(v.len(), WORDS);
                                assert_eq!(v[0], (round * FRAMES + frame) as f64, "FIFO order");
                                assert_eq!(v[WORDS - 1], (WORDS - 1 + peer) as f64);
                            }
                            other => panic!("expected F64, got {other:?}"),
                        }
                    }
                }
                ctx.barrier();
            })
            .expect("rank body");
        return;
    }
    for tcp in [false, true] {
        let leg = if tcp { "tcp" } else { "unix" };
        let dir = scratch_dir(if tcp { "tcpflood" } else { "flood" });
        if tcp {
            write_loopback_hostfile(&dir, P);
        }
        // This test is about wedging, not death detection: a 2 s
        // liveness budget (40 × 50 ms) keeps a peer that is slow under
        // parallel tests from being declared dead.
        let env = [("GNN_PROC_MISS", "40")];
        let children: Vec<_> = (0..P).map(|r| spawn_rank(NAME, r, &dir, &env)).collect();
        let t0 = std::time::Instant::now();
        for (rank, status) in wait_within(children, DEADLINE).into_iter().enumerate() {
            let status = status.unwrap_or_else(|| {
                panic!("{leg}: rank {rank} still running after {DEADLINE:?} (link wedged)")
            });
            assert!(status.success(), "{leg}: rank {rank} exited with {status}");
        }
        eprintln!(
            "flood over {leg}: {rounds} rounds x {FRAMES} x 4 MiB each way in {:.1?}",
            t0.elapsed()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The fault both reconnect tests arm on every rank: rank 1 is the
/// dialing side (higher rank dials lower), and cutting its link to rank
/// 0 after a few hundred bytes lands mid-stream, so it exercises redial
/// + replay.
const CUT: &str = "cut=1>0:300";

/// Child side of the reconnect tests: many small round trips across the
/// cut; the reliable layer must replay the unacked suffix and the
/// receiver must dedup, with no effect on contents.
fn reconnect_child(rank: usize) {
    let faults = FaultPlan::parse(CUT).expect("cut spec");
    let (_out, stats) = world(2)
        .with_faults(faults)
        .run_rank(rank, |ctx| {
            let peer = 1 - ctx.rank();
            for i in 0..40u32 {
                ctx.send(peer, Payload::U32(vec![i, ctx.rank() as u32]));
                match ctx.recv(peer) {
                    Payload::U32(v) => assert_eq!(v, vec![i, peer as u32]),
                    other => panic!("expected U32, got {other:?}"),
                }
            }
            ctx.barrier();
        })
        .expect("rank body survives the cut connection");
    let cuts = if rank == 1 { 1 } else { 0 };
    assert_eq!(stats.proc.chaos_injected, cuts, "rank {rank}: cuts");
}

#[test]
fn reconnect_replays_unacked_frames_over_tcp() {
    const NAME: &str = "reconnect_replays_unacked_frames_over_tcp";
    if let Some(rank) = child_rank(NAME) {
        return reconnect_child(rank);
    }
    // Same cut as the UDS variant, but across a real TCP reset: redial
    // + watermark sync + replay must hide it.
    let dir = scratch_dir("tcpreconn");
    write_loopback_hostfile(&dir, 2);
    let children: Vec<_> = (0..2).map(|r| spawn_rank(NAME, r, &dir, &[])).collect();
    for (rank, mut child) in children.into_iter().enumerate() {
        let status = child.wait().expect("wait child");
        assert!(status.success(), "rank {rank} exited with {status}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reconnect_replays_unacked_frames() {
    const NAME: &str = "reconnect_replays_unacked_frames";
    if let Some(rank) = child_rank(NAME) {
        return reconnect_child(rank);
    }
    let dir = scratch_dir("reconn");
    let children: Vec<_> = (0..2).map(|r| spawn_rank(NAME, r, &dir, &[])).collect();
    for (rank, mut child) in children.into_iter().enumerate() {
        let status = child.wait().expect("wait child");
        assert!(status.success(), "rank {rank} exited with {status}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn peer_death_is_detected_and_reported() {
    const NAME: &str = "peer_death_is_detected_and_reported";
    const P: usize = 2;
    const DEAD_RANK_EXIT: i32 = 7;
    if let Some(rank) = child_rank(NAME) {
        if rank == 1 {
            // Die uncleanly after wire-up: no BYE, no teardown — from
            // rank 0's perspective this is indistinguishable from
            // SIGKILL. The first recv proves the mesh was up.
            let result = world(P).run_rank(rank, |ctx| {
                ctx.send(0, Payload::Empty);
                match ctx.recv(0) {
                    Payload::Empty => {}
                    other => panic!("expected Empty, got {other:?}"),
                }
                std::process::exit(DEAD_RANK_EXIT);
            });
            unreachable!("rank 1 must have exited inside the body: {result:?}");
        }
        // Rank 0 blocks on a message the dead peer never sends; the
        // heartbeat monitor must declare the peer dead and surface the
        // same "hung up" panic the thread backend produces.
        let err = world(P)
            .run_rank(rank, |ctx| {
                match ctx.recv(1) {
                    Payload::Empty => {}
                    other => panic!("expected Empty, got {other:?}"),
                }
                ctx.send(1, Payload::Empty);
                let _ = ctx.recv(1); // never arrives
            })
            .expect_err("rank 0 must observe the peer death");
        match err {
            ProcError::RankPanicked { rank: r, message } => {
                assert_eq!(r, 0);
                assert!(
                    message.contains("hung up"),
                    "unexpected failure message: {message}"
                );
            }
            other => panic!("expected RankPanicked, got {other}"),
        }
        return;
    }
    let dir = scratch_dir("death");
    let children = vec![
        spawn_rank(NAME, 0, &dir, &[]),
        spawn_rank(NAME, 1, &dir, &[]),
    ];
    let statuses: Vec<_> = children
        .into_iter()
        .map(|mut c| c.wait().expect("wait child"))
        .collect();
    assert!(
        statuses[0].success(),
        "rank 0 should assert the death and pass, got {}",
        statuses[0]
    );
    assert_eq!(
        statuses[1].code(),
        Some(DEAD_RANK_EXIT),
        "rank 1 should die with its marker exit code"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn graceful_shutdown_leaves_no_sockets_behind() {
    const NAME: &str = "graceful_shutdown_leaves_no_sockets_behind";
    const P: usize = 2;
    if let Some(rank) = child_rank(NAME) {
        world(P)
            .run_rank(rank, |ctx| {
                ctx.send(1 - ctx.rank(), Payload::F64(vec![1.0]));
                let _ = ctx.recv(1 - ctx.rank());
                ctx.barrier();
            })
            .expect("rank body");
        return;
    }
    let dir = scratch_dir("clean");
    let children: Vec<_> = (0..P).map(|r| spawn_rank(NAME, r, &dir, &[])).collect();
    for (rank, mut child) in children.into_iter().enumerate() {
        let status = child.wait().expect("wait child");
        assert!(status.success(), "rank {rank} exited with {status}");
    }
    // The rendezvous socket must be unlinked once wire-up completes.
    assert!(
        !dir.join("rendezvous.sock").exists(),
        "rendezvous socket not cleaned up"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A rank process reads its own sockets: no thread per peer. Each rank
/// reports the `Threads:` line of `/proc/self/status` once its mesh is up
/// and has carried a ring exchange; a world of 2 and a world of 4 must
/// report the same count on every rank.
#[cfg(target_os = "linux")]
#[test]
fn a_rank_process_runs_as_many_threads_at_p4_as_at_p2() {
    const NAME: &str = "a_rank_process_runs_as_many_threads_at_p4_as_at_p2";
    if let Some(rank) = child_rank(NAME) {
        let p: usize = std::env::var("GNN_PROC_TEST_P").unwrap().parse().unwrap();
        let dir = std::env::var("GNN_PROC_DIR").unwrap();
        world(p)
            .run_rank(rank, |ctx| {
                ring_body(ctx, 1);
                let status = std::fs::read_to_string("/proc/self/status").unwrap();
                let threads = status.lines().find_map(|l| l.strip_prefix("Threads:"));
                let path = std::path::Path::new(&dir).join(format!("threads{rank}"));
                std::fs::write(path, threads.expect("a Threads: line").trim()).unwrap();
                ctx.barrier();
            })
            .expect("rank body");
        return;
    }
    let mut counts = Vec::new();
    for p in [2usize, 4] {
        let dir = scratch_dir(&format!("threads{p}"));
        let p_var = p.to_string();
        let env = [("GNN_PROC_TEST_P", p_var.as_str())];
        let children: Vec<_> = (0..p).map(|r| spawn_rank(NAME, r, &dir, &env)).collect();
        for (rank, mut child) in children.into_iter().enumerate() {
            let status = child.wait().expect("wait child");
            assert!(status.success(), "p={p}: rank {rank} exited with {status}");
            let threads = std::fs::read_to_string(dir.join(format!("threads{rank}"))).unwrap();
            counts.push((p, rank, threads.parse::<usize>().expect("a thread count")));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    let first = counts[0].2;
    assert!(
        counts.iter().all(|&(_, _, n)| n == first),
        "threads per rank process (p, rank, threads): {counts:?}"
    );
}
