//! The payload loop through the socket: on the process backend a rank's
//! pool is shared by its executor, its reader threads and its replay
//! queues, and a steady exchange allocates no payload buffer on either
//! side of the link.
//!
//! The two ranks run as threads of this process, each through its own
//! [`ProcWorld::run_rank`] — the transport neither knows nor cares that
//! its peer lives in the same address space. Each test binds its own
//! socket mesh; run this file with `--test-threads=1`, beside
//! `proc_backend`.

#![cfg(unix)]

use std::time::Duration;

use gnn_comm::msg::Payload;
use gnn_comm::{CostModel, FaultPlan, ProcWorld, RankCtx, RankStats};

const ROWS: usize = 700;
const WIDTH: usize = 48; // 268 KB of f64 a message: several staging chunks
const ROUNDS: usize = 10;

/// Short scratch dir for the socket mesh (UDS paths are length-limited).
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::path::PathBuf::from(format!("/tmp/gnnpp-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs `body` on two in-process ranks meshed under a fresh dir, with
/// `faults` armed on both when given.
fn run_pair<R: Send>(
    tag: &str,
    faults: Option<&str>,
    body: impl Fn(&mut RankCtx) -> R + Sync,
) -> Vec<(R, RankStats)> {
    let dir = scratch_dir(tag);
    let outs = std::thread::scope(|s| {
        let rank = |rank| {
            let (dir, body) = (&dir, &body);
            s.spawn(move || {
                let mut world = ProcWorld::new(2, CostModel::default(), dir)
                    .with_timeout(Duration::from_secs(20));
                if let Some(spec) = faults {
                    world = world.with_faults(FaultPlan::parse(spec).expect("fault spec"));
                }
                world.run_rank(rank, body).expect("rank body")
            })
        };
        let handles = [rank(0), rank(1)];
        handles.map(|h| h.join().expect("rank thread")).into()
    });
    let _ = std::fs::remove_dir_all(&dir);
    outs
}

/// Word `i` of the message rank `from` sends in `round`.
fn word(from: usize, round: usize, i: usize) -> f64 {
    (from * 1_000_003 + round * 7919 + i) as f64 * 0.5
}

/// One round of what an epoch does to the link: a rows payload packed
/// out of the pool each way, folded (here: checked) and sent home, then
/// a small all-reduce. Returns a checksum of everything received.
fn exchange(ctx: &mut RankCtx, round: usize) -> f64 {
    let (me, peer) = (ctx.rank(), 1 - ctx.rank());
    let mut idx = ctx.take_u32(ROWS);
    idx.extend((0..ROWS as u32).map(|r| r * 3 + me as u32));
    let mut data = ctx.take_f64(ROWS * WIDTH);
    data.extend((0..ROWS * WIDTH).map(|i| word(me, round, i)));
    ctx.send(peer, Payload::Rows { idx, data });
    let got = ctx.recv(peer);
    let Payload::Rows { idx, data } = &got else {
        panic!("expected Rows, got {got:?}");
    };
    assert_eq!((idx.len(), data.len()), (ROWS, ROWS * WIDTH));
    assert_eq!(idx[ROWS - 1], (ROWS as u32 - 1) * 3 + peer as u32);
    for i in [0, 1, ROWS * WIDTH / 2, ROWS * WIDTH - 1] {
        assert_eq!(data[i], word(peer, round, i), "round {round} word {i}");
    }
    let mut sums = [data.iter().sum::<f64>(), round as f64, 1.0];
    ctx.recycle(peer, got);
    ctx.allreduce_sum(&mut sums, &[0, 1]);
    assert_eq!(sums[1..], [2.0 * round as f64, 2.0]);
    sums[0]
}

#[test]
fn a_steady_proc_exchange_allocates_no_payload_buffer() {
    let per_rank = run_pair("flat", None, |ctx| {
        let after = |round| {
            let sum = exchange(ctx, round);
            // A barrier frame is written behind the ACKs its sender owed,
            // so past the first one every buffer this rank sent is back;
            // the second keeps the peer's next round out of the reading.
            ctx.barrier();
            let pool = ctx.payload_pool();
            let counters = (pool.pooled(), pool.fresh_allocs());
            ctx.barrier();
            (sum, counters)
        };
        (0..ROUNDS).map(after).collect::<Vec<_>>()
    });
    for (rank, (after, _)) in per_rank.iter().enumerate() {
        let counters: Vec<_> = after.iter().map(|(_, c)| *c).collect();
        assert!(
            counters[2..].iter().all(|c| *c == counters[2]),
            "rank {rank}: (pooled, fresh) per round {counters:?}"
        );
        assert!(
            counters[2].0 > 0,
            "rank {rank}: nothing went through the pool"
        );
    }
    // Both ranks saw the same all-reduced sums.
    let sums = |rank: usize| per_rank[rank].0.iter().map(|(s, _)| *s).collect::<Vec<_>>();
    assert_eq!(sums(0), sums(1));
}

#[test]
fn a_dropped_connection_replays_pooled_frames_unnoticed() {
    let clean = run_pair("clean", None, |ctx| {
        (0..ROUNDS).map(|r| exchange(ctx, r)).collect::<Vec<_>>()
    });
    // Each rank cuts its link once it has sent 1 MB, inside its 4th rows
    // frame (272 kB each): the frames in flight come back from the
    // replay queues' (head, payload) parts, and the exchange must not be
    // able to tell.
    let bounced = run_pair("bounce", Some("cut=*>*:1000000"), |ctx| {
        let sums: Vec<f64> = (0..ROUNDS).map(|r| exchange(ctx, r)).collect();
        // Whatever the bounce cost, the pool still serves: a buffer lost
        // with a half-read frame is replaced, never waited for.
        assert!(ctx.take_f64(ROWS * WIDTH).capacity() >= ROWS * WIDTH);
        sums
    });
    for rank in 0..2 {
        assert_eq!(bounced[rank].0, clean[rank].0, "rank {rank}: sums differ");
    }
    let replayed = |(_, stats): &(_, RankStats)| stats.proc.replayed_frames;
    assert!(
        bounced.iter().map(replayed).sum::<u64>() > 0,
        "the cut never fired: nothing was replayed"
    );
}
