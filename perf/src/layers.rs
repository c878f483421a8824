//! The per-layer pass: each crate measured alone, after the end-to-end
//! samples, on the workload's own shapes and through public calls only.

use std::time::Instant;

use gnn_comm::msg::Payload;
use gnn_comm::{Phase, RankCtx, ThreadWorld, WorldStats};
use partition::metrics::{edgecut, volume_metrics};
use partition::wgraph::WGraph;
use partition::Partition;
use spmat::dataset::Dataset;
use spmat::spmm::{spmm_acc, spmm_flops};
use spmat::Dense;

use crate::e2e::cost_model;
use crate::metrics::Report;
use crate::spans::Spans;
use crate::stats::median;
use crate::workload::{Backend, Prepared, Workload};

/// Hidden width of the paper's model: the narrow SpMM/GEMM shape.
const NARROW: usize = 16;

/// Fewest repetitions of a timed kernel.
const MIN_REPS: usize = 10;

/// A timed kernel repeats until it has also run this long in total.
const MIN_TOTAL_S: f64 = 0.05;

/// Iterations of every timed communication operation.
const COMM_ITERS: usize = 50;

/// Median seconds of `f` over at least [`MIN_REPS`] repetitions, one
/// span per repetition.
fn time_reps(
    spans: &mut Spans,
    name: &'static str,
    layer: &'static str,
    mut f: impl FnMut(),
) -> f64 {
    let mut samples = Vec::new();
    let mut total = 0.0;
    while samples.len() < MIN_REPS || total < MIN_TOTAL_S {
        let open = spans.begin(name, layer);
        let t = Instant::now();
        f();
        let s = t.elapsed().as_secs_f64();
        spans.end(open);
        samples.push(s);
        total += s;
    }
    median(&samples)
}

/// Kernels on rank 0's row block of the permuted dataset, one thread.
pub fn spmat_layer(prep: &Prepared, msg_rows: usize, report: &mut Report, spans: &mut Spans) {
    let ds = &prep.ds;
    let (lo, hi) = (prep.bounds[0], prep.bounds[1]);
    let rows = hi - lo;
    let f = ds.f();
    let a = ds.norm_adj.row_block(lo, hi);
    let fill = |r: usize, c: usize| ((r * 31 + c * 17) % 97) as f64 / 97.0 - 0.5;

    for (width, secs_name, rate_name) in [
        (f, "spmat.spmm_wide_s", "spmat.spmm_wide_gflops"),
        (NARROW, "spmat.spmm_narrow_s", "spmat.spmm_narrow_gflops"),
    ] {
        let h = Dense::from_fn(ds.n(), width, fill);
        let mut out = Dense::zeros(rows, width);
        let secs = time_reps(spans, "spmm_acc", "spmat", || {
            spmm_acc(std::hint::black_box(&a), &h, &mut out);
        });
        std::hint::black_box(&out);
        report.set(secs_name, secs);
        report.set(rate_name, spmm_flops(&a, width) as f64 / secs * 1e-9);
    }

    let x = ds.features.row_slice(lo, hi);
    let w = Dense::from_fn(f, NARROW, fill);
    let mut z = Dense::zeros(rows, NARROW);
    let secs = time_reps(spans, "matmul_into", "spmat", || {
        std::hint::black_box(&x).matmul_into(&w, &mut z);
    });
    report.set("spmat.gemm_s", secs);
    report.set(
        "spmat.gemm_gflops",
        2.0 * (rows * f * NARROW) as f64 / secs * 1e-9,
    );

    // Weight-gradient shape: Xᵀ (rows×f) · G (rows×16) → f×16.
    let mut y = Dense::zeros(f, NARROW);
    let secs = time_reps(spans, "transpose_matmul_into", "spmat", || {
        std::hint::black_box(&x).transpose_matmul_into(&z, &mut y);
    });
    std::hint::black_box(&y);
    report.set("spmat.gemm_t_s", secs);

    // As many rows as rank 0's largest message carries, spread evenly
    // over its block (global row ids, as the send-staging kernel takes).
    let packed = msg_rows.clamp(1, rows);
    let idx: Vec<u32> = (0..packed)
        .map(|i| (lo + i * rows / packed) as u32)
        .collect();
    let mut staged = vec![0.0; packed * f];
    let secs = time_reps(spans, "pack_rows_into", "spmat", || {
        std::hint::black_box(&x).pack_rows_into(&idx, lo, &mut staged);
    });
    std::hint::black_box(&staged);
    report.set(
        "spmat.pack_rows_gbps",
        (8 * packed * f) as f64 / secs * 1e-9,
    );
}

/// Exact partition-quality counts of the workload's partition.
pub fn partition_layer(part: &Partition, raw: &Dataset, report: &mut Report) {
    let g = WGraph::from_csr(&raw.adj);
    let vol = volume_metrics(&g, part);
    report.set("partition.edgecut", edgecut(&g, part) as f64);
    report.set("partition.total_volume_rows", vol.total as f64);
    report.set("partition.max_send_volume_rows", vol.max_send as f64);
    let sizes = part.sizes();
    let mean = raw.n() as f64 / sizes.len() as f64;
    let largest = sizes.iter().copied().max().unwrap_or(0) as f64;
    report.set(
        "partition.row_imbalance_pct",
        (largest / mean - 1.0) * 100.0,
    );
}

/// The phase that carries the workload's dominant exchange.
fn dominant_phase(wl: &Workload) -> Phase {
    match wl.algo.replication() {
        1 => Phase::AllToAll,
        _ => Phase::P2p,
    }
}

/// Mean bytes per operation of the dominant phase on the rank that
/// sends most in it: the message size the layer measurements use.
pub fn dominant_message_bytes(wl: &Workload, stats: &WorldStats) -> u64 {
    let phase = dominant_phase(wl);
    stats
        .per_rank
        .iter()
        .map(|r| *r.phase(phase))
        .max_by_key(|c| c.bytes_sent)
        .map_or(0, |c| c.bytes_sent / c.ops.max(1))
}

/// Exact communication counts of one checked training call.
pub fn comm_counts(wl: &Workload, stats: &WorldStats, epochs: usize, report: &mut Report) {
    let e = epochs as f64;
    let sent: u64 = stats.per_rank.iter().map(|r| r.bytes_sent_total()).sum();
    let max_rank = stats.per_rank.iter().map(|r| r.bytes_sent_total()).max();
    let ops: u64 = stats
        .per_rank
        .iter()
        .flat_map(|r| {
            gnn_comm::stats::PHASES
                .iter()
                .map(move |&ph| (ph, r.phase(ph)))
        })
        .filter(|(ph, _)| ph.is_comm())
        .map(|(_, c)| c.ops)
        .sum();
    report.set("comm.bytes_sent_per_epoch", sent as f64 / e);
    report.set(
        "comm.bytes_sent_max_rank_per_epoch",
        max_rank.unwrap_or(0) as f64 / e,
    );
    report.set("comm.ops_per_epoch", ops as f64 / e);
    report.set(
        "comm.send_imbalance_pct",
        stats.send_imbalance_pct(dominant_phase(wl)),
    );
    report.set(
        "comm.wire_over_logical",
        stats.total_wire_bytes_sent() as f64 / sent.max(1) as f64,
    );
    report.set("comm.retries", stats.total_retries() as f64);
    report.set("comm.reconnects", stats.total_reconnects() as f64);
}

/// Shapes of the communication micro-benchmarks, derived from the
/// workload (and passed to rank processes on their command line).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CommSpec {
    /// `true`: all-to-allv among all ranks (1D). `false`: a send/recv
    /// pair with the neighbouring rank (1.5D stage loop).
    pub alltoallv: bool,
    /// Rows and width of the `Payload::Rows` message exchanged.
    pub msg_rows: usize,
    pub f: usize,
    /// Elements of the weight-gradient all-reduce over all ranks.
    pub small_len: usize,
    /// Elements of the replica all-reduce (0: the workload has none).
    pub large_len: usize,
    /// Replication factor: size of a replica group.
    pub c: usize,
}

impl CommSpec {
    pub fn of(wl: &Workload, ds: &Dataset, msg_bytes: u64) -> Self {
        let f = ds.f();
        let c = wl.algo.replication();
        Self {
            alltoallv: c == 1,
            msg_rows: (msg_bytes as usize / (8 * f + 4)).max(1),
            f,
            small_len: f * NARROW,
            large_len: if c > 1 { ds.n() / wl.parts * f } else { 0 },
            c,
        }
    }

    pub fn to_arg(self) -> String {
        format!(
            "{},{},{},{},{},{}",
            self.alltoallv as u8, self.msg_rows, self.f, self.small_len, self.large_len, self.c
        )
    }

    pub fn from_arg(s: &str) -> Option<Self> {
        let v: Vec<usize> = s
            .split(',')
            .map(|x| x.parse().ok())
            .collect::<Option<_>>()?;
        let [a2a, msg_rows, f, small_len, large_len, c] = v[..] else {
            return None;
        };
        Some(Self {
            alltoallv: a2a != 0,
            msg_rows,
            f,
            small_len,
            large_len,
            c,
        })
    }

    pub fn msg_bytes(&self) -> usize {
        self.msg_rows * (8 * self.f + 4)
    }
}

/// Median seconds of each operation, as rank 0 saw them.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CommTimes {
    pub exchange_s: f64,
    pub allreduce_small_s: f64,
    pub allreduce_large_s: f64,
    pub rtt_s: f64,
    pub barrier_s: f64,
}

impl CommTimes {
    pub fn to_line(self) -> String {
        [
            self.exchange_s,
            self.allreduce_small_s,
            self.allreduce_large_s,
            self.rtt_s,
            self.barrier_s,
        ]
        .map(|x| x.to_bits().to_string())
        .join(" ")
    }

    pub fn from_line(s: &str) -> Option<Self> {
        let v: Vec<f64> = s
            .split_whitespace()
            .map(|x| x.parse().ok().map(f64::from_bits))
            .collect::<Option<_>>()?;
        let [exchange_s, allreduce_small_s, allreduce_large_s, rtt_s, barrier_s] = v[..] else {
            return None;
        };
        Some(Self {
            exchange_s,
            allreduce_small_s,
            allreduce_large_s,
            rtt_s,
            barrier_s,
        })
    }
}

/// Median seconds of `op` over [`COMM_ITERS`] iterations on this rank,
/// and when each ran. `stage` builds the operand outside the timed
/// region; every `op` here ends with a receive from the peers, which
/// keeps the ranks in step without a barrier in between.
fn timed<T>(
    ctx: &mut RankCtx,
    mut stage: impl FnMut() -> T,
    mut op: impl FnMut(&mut RankCtx, T),
) -> (f64, Vec<(Instant, Instant)>) {
    let mut when = Vec::with_capacity(COMM_ITERS);
    for _ in 0..COMM_ITERS {
        let operand = stage();
        let start = Instant::now();
        op(ctx, operand);
        when.push((start, Instant::now()));
    }
    let samples: Vec<f64> = when.iter().map(|&(s, e)| (e - s).as_secs_f64()).collect();
    (median(&samples), when)
}

/// The SPMD body of the communication micro-benchmarks: runs on every
/// rank of a `ThreadWorld` or a `ProcWorld`, with no compute between
/// operations. Also returns when each exchange ran, for the span log.
pub fn comm_body(ctx: &mut RankCtx, spec: &CommSpec) -> (CommTimes, Vec<(Instant, Instant)>) {
    let (me, p) = (ctx.rank(), ctx.p());
    let message = || Payload::Rows {
        idx: (0..spec.msg_rows as u32).collect(),
        data: vec![0.25; spec.msg_rows * spec.f],
    };
    let (exchange_s, when) = if spec.alltoallv {
        let stage = || -> Vec<Payload> {
            (0..p)
                .map(|d| if d == me { Payload::Empty } else { message() })
                .collect()
        };
        timed(ctx, stage, |ctx, sends| {
            std::hint::black_box(ctx.alltoallv(sends));
        })
    } else {
        let peer = me ^ 1;
        timed(ctx, message, |ctx, msg| {
            ctx.send(peer, msg);
            std::hint::black_box(ctx.recv(peer));
        })
    };

    let everyone: Vec<usize> = (0..p).collect();
    let mut small = vec![0.5; spec.small_len];
    let (allreduce_small_s, _) = timed(
        ctx,
        || (),
        |ctx, ()| ctx.allreduce_sum(&mut small, &everyone),
    );

    let allreduce_large_s = if spec.large_len > 0 {
        let first = me / spec.c * spec.c;
        let group: Vec<usize> = (first..first + spec.c).collect();
        let mut large = vec![0.5; spec.large_len];
        timed(ctx, || (), |ctx, ()| ctx.allreduce_sum(&mut large, &group)).0
    } else {
        0.0
    };

    // Ranks 0 and 1 bounce an empty message; the others sit it out.
    let (rtt_s, _) = timed(
        ctx,
        || (),
        |ctx, ()| match me {
            0 => {
                ctx.send(1, Payload::Empty);
                ctx.recv(1);
            }
            1 => {
                ctx.recv(0);
                ctx.send(0, Payload::Empty);
            }
            _ => {}
        },
    );

    ctx.barrier();
    let samples: Vec<f64> = (0..COMM_ITERS)
        .map(|_| {
            let t = Instant::now();
            ctx.barrier();
            t.elapsed().as_secs_f64()
        })
        .collect();
    let times = CommTimes {
        exchange_s,
        allreduce_small_s,
        allreduce_large_s,
        rtt_s,
        barrier_s: median(&samples),
    };
    (times, when)
}

/// `Payload::checksum` on a message of the workload's size.
fn checksum_gbps(spec: &CommSpec, spans: &mut Spans) -> f64 {
    let payload = Payload::Rows {
        idx: (0..spec.msg_rows as u32).collect(),
        data: (0..spec.msg_rows * spec.f)
            .map(|i| i as f64 * 0.5)
            .collect(),
    };
    let secs = time_reps(spans, "Payload::checksum", "comm", || {
        std::hint::black_box(std::hint::black_box(&payload).checksum());
    });
    payload.bytes() as f64 / secs * 1e-9
}

/// The transport measured alone, on the workload's backend.
pub fn comm_layer(
    wl: &Workload,
    spec: &CommSpec,
    report: &mut Report,
    spans: &mut Spans,
) -> Result<(), String> {
    report.set("comm.checksum_gbps", checksum_gbps(spec, spans));
    let times = match wl.backend {
        Backend::Thread => {
            let open = spans.begin("ThreadWorld::run", "comm");
            let world = ThreadWorld::new(wl.ranks(), cost_model());
            let (mut per_rank, _) = world
                .try_run(|ctx| comm_body(ctx, spec))
                .map_err(|e| format!("comm micro-benchmark failed: {e}"))?;
            let (times, when) = per_rank.swap_remove(0);
            let name = if spec.alltoallv {
                "alltoallv"
            } else {
                "send_recv"
            };
            for (start, end) in when {
                spans.add_closed(name, "comm", start, end);
            }
            spans.end(open);
            times
        }
        Backend::Proc => {
            let open = spans.begin("ProcWorld::run_rank", "comm");
            let times = crate::procs::comm_bench(wl.ranks(), spec);
            spans.end(open);
            times?
        }
    };
    report.set("comm.exchange_s", times.exchange_s);
    report.set(
        "comm.exchange_gbps",
        spec.msg_bytes() as f64 / times.exchange_s * 1e-9,
    );
    report.set("comm.allreduce_small_s", times.allreduce_small_s);
    report.set("comm.allreduce_large_s", times.allreduce_large_s);
    report.set("comm.rtt_s", times.rtt_s);
    report.set("comm.barrier_s", times.barrier_s);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comm_spec_and_times_survive_the_command_line() {
        let spec = CommSpec {
            alltoallv: false,
            msg_rows: 977,
            f: 300,
            small_len: 4800,
            large_len: 614_400,
            c: 2,
        };
        assert_eq!(CommSpec::from_arg(&spec.to_arg()), Some(spec));
        assert_eq!(CommSpec::from_arg("1,2,3"), None);
        let t = CommTimes {
            exchange_s: 0.003_1,
            allreduce_small_s: 1.5e-5,
            allreduce_large_s: 0.0,
            rtt_s: 2.5e-6,
            barrier_s: 7.0e-7,
        };
        assert_eq!(CommTimes::from_line(&t.to_line()), Some(t));
        assert_eq!(CommTimes::from_line("1 2"), None);
    }

    #[test]
    fn comm_body_runs_both_exchange_kinds() {
        for (alltoallv, p, c, large_len) in [(true, 2, 1, 0), (false, 4, 2, 64)] {
            let spec = CommSpec {
                alltoallv,
                msg_rows: 8,
                f: 4,
                small_len: 16,
                large_len,
                c,
            };
            let world = ThreadWorld::new(p, cost_model());
            let (per_rank, _) = world.run(|ctx| comm_body(ctx, &spec));
            let (t, when) = &per_rank[0];
            assert_eq!(when.len(), COMM_ITERS);
            assert!(t.exchange_s > 0.0 && t.rtt_s > 0.0 && t.barrier_s > 0.0);
            assert_eq!(t.allreduce_large_s > 0.0, large_len > 0);
        }
    }
}
