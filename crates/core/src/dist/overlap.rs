//! Pipelined (comm/compute-overlapped) variants of the distributed
//! SpMMs, built on the nonblocking `isend`/`irecv`/`wait` layer of
//! [`gnn_comm::RankCtx`].
//!
//! Each epoch's remote fetches are split into `chunks` contiguous
//! groups. The pipeline posts every send up front (they are eager, so
//! all outbound traffic is in flight before the first stage), then per
//! chunk: wait for that chunk's rows, cross a stage boundary
//! ([`RankCtx::overlap_stage`]), and fold the received rows into the
//! local accumulation while the next chunk is still in flight. The
//! boundary charges only the *exposed* remainder of the chunk's
//! communication — `max(0, comm − compute since the last boundary)` —
//! so `Phase::Overlap` reports executed (not assumed) overlap.
//!
//! **Bit-exactness.** A chunk is a run of the plan's stages, and the
//! stages partition the block row by source rank keeping each row's
//! entry order. Folding the chunks in ascending order therefore
//! accumulates every output element in *exactly* the order the blocking
//! implementation uses — the pipelined results are bitwise identical,
//! not merely close.

use gnn_comm::msg::Payload;
use gnn_comm::{PendingOp, Phase, RankCtx};
use spmat::Dense;

use super::buffers::EpochBuffers;
use super::grid::{fold_stage, pack_block, GridPlan};
use super::oned::{bcast_stage, fold_run, pack_sends, phase_of};

/// Partitions `items` positions into at most `chunks` contiguous,
/// near-even groups; group `g` covers `[g·items/k, (g+1)·items/k)`.
/// `chunks` is clamped to `[1, items]`, so asking for more chunks than
/// items never produces empty pipeline stages.
pub fn chunk_groups(items: usize, chunks: usize) -> Vec<(usize, usize)> {
    let k = chunks.clamp(1, items.max(1));
    (0..k)
        .map(|g| (g * items / k, (g + 1) * items / k))
        .collect()
}

/// Pipelined counterpart of [`super::oned::spmm_1d_buf`], chunked by
/// source-rank group (`chunk_groups(p, chunks)`): a chunk is the run
/// `stages[glo..ghi]` of the plan.
///
/// Sparsity-aware, the all-to-allv is decomposed into nonblocking
/// per-peer exchanges and each chunk's rows are folded into `Z` while
/// later chunks are in flight. Oblivious, the `p` broadcasts are chunked
/// by root group and each chunk's blocks are multiplied while later
/// broadcasts' cost is still accruing; per-chunk broadcast charges sum to
/// the blocking total exactly, so the overlapped modeled time is never
/// worse than blocking.
///
/// Bitwise identical to the blocking variant; logical send volumes and
/// flop totals are unchanged.
pub fn spmm_1d_pipelined_buf(
    ctx: &mut RankCtx,
    plan: &GridPlan,
    h_local: &Dense,
    chunks: usize,
    bufs: &mut EpochBuffers,
) -> Dense {
    let me = ctx.rank();
    let rp = &plan.ranks[me];
    assert_eq!(h_local.rows(), rp.rows(), "local H block shape mismatch");
    let groups = chunk_groups(plan.p(), chunks);
    ctx.span_begin(plan.span, phase_of(plan));

    // Pack outside the window: it must complete before the sends post,
    // so it cannot hide any chunk's communication. (Oblivious: nothing
    // to pack or post — the broadcasts below carry the blocks.)
    let sends = match plan.aware {
        true => pack_sends(ctx, rp, h_local),
        false => Vec::new(),
    };
    let peers = sends.len();
    ctx.overlap_begin(groups.len());

    // Post every send up front (eager), tagged with the chunk its
    // destination belongs to — the per-stage α·ops + β·bytes duplex
    // charges then sum to the blocking all-to-allv price at chunks = 1.
    // Empty payloads are sent too, mirroring the blocking collective's
    // (p − 1)·α synchronization cost.
    let mut outbound = sends.into_iter().enumerate();
    for (g, &(glo, ghi)) in groups.iter().enumerate() {
        for (j, payload) in outbound.by_ref().take(ghi - glo) {
            if j != me {
                ctx.isend(j, payload, Phase::AllToAll, g);
            }
        }
    }
    let mut recvs: Vec<Option<PendingOp>> = (0..peers)
        .map(|j| (j != me).then(|| ctx.irecv(j, Phase::AllToAll)))
        .collect();

    let mut z = bufs.take_dense(rp.rows(), h_local.cols());
    for &(glo, ghi) in &groups {
        // Wait for this chunk's rows; the boundary then charges the
        // exposed remainder of the chunk's comm.
        let run = &rp.stages[glo..ghi];
        let arrived: Vec<Payload> = if plan.aware {
            let wait = |slot: &mut Option<PendingOp>| match slot.take() {
                Some(op) => ctx.wait(op),
                None => Payload::Empty,
            };
            recvs[glo..ghi].iter_mut().map(wait).collect()
        } else {
            let bcast = |st| bcast_stage(ctx, rp, st, h_local);
            run.iter().map(bcast).collect()
        };
        ctx.overlap_stage();
        fold_run(ctx, rp, run, arrived, h_local, &mut z);
    }
    ctx.overlap_end();
    ctx.span_end();
    z
}

/// Pipelined counterpart of [`super::grid::spmm_grid_buf`]: the stage
/// loop is grouped into `chunks` contiguous pipeline sections. Every
/// outbound block is posted up front (charged to the first boundary),
/// each section waits only for its own inbound stage blocks, and the
/// stage multiplies hide the later sections' transfers. The trailing
/// all-reduce is unchanged (it is a true barrier).
///
/// Folding stages in ascending `k` accumulates every output element in
/// exactly the blocking order, so the result is bitwise identical.
pub fn spmm_grid_pipelined_buf(
    ctx: &mut RankCtx,
    plan: &GridPlan,
    h_local: &Dense,
    chunks: usize,
    bufs: &mut EpochBuffers,
) -> Dense {
    let rp = &plan.ranks[ctx.rank()];
    assert_eq!(h_local.rows(), rp.rows(), "local H block shape mismatch");
    let groups = chunk_groups(rp.stages.len(), chunks);
    ctx.span_begin(plan.span, Phase::P2p);

    // Pack outside the window (it precedes the sends), then post every
    // outbound block as an eager nonblocking send on the first stage.
    let mut pack_elems = 0u64;
    let outbound: Vec<(usize, Payload)> = rp
        .sends
        .iter()
        .map(|(dst, idx)| {
            let payload = pack_block(ctx, plan.aware, h_local, rp.row_lo, idx, &mut pack_elems);
            (*dst, payload)
        })
        .collect();
    if pack_elems > 0 {
        ctx.record_compute(pack_elems);
    }

    ctx.overlap_begin(groups.len());
    for (dst, payload) in outbound {
        ctx.isend(dst, payload, Phase::P2p, 0);
    }
    let mut recvs: Vec<Option<PendingOp>> = rp
        .stages
        .iter()
        .map(|st| {
            (st.src_rank != rp.rank && !st.needed.is_empty())
                .then(|| ctx.irecv(st.src_rank, Phase::P2p))
        })
        .collect();

    let mut z = bufs.take_dense(rp.rows(), h_local.cols());
    for &(slo, shi) in &groups {
        // Wait for this section's inbound blocks, then cross the
        // boundary: earlier sections' multiplies have been hiding them.
        let mut staged: Vec<Option<Payload>> = (slo..shi)
            .map(|si| recvs[si].take().map(|op| ctx.wait(op)))
            .collect();
        ctx.overlap_stage();

        for (st, slot) in rp.stages[slo..shi].iter().zip(&mut staged) {
            fold_stage(ctx, rp, st, h_local, &mut z, st.src_rank, |_, _| {
                slot.take().expect("a remote stage has a staged payload")
            });
        }
    }
    ctx.overlap_end();

    if !rp.reduce_group.is_empty() {
        ctx.allreduce_sum(z.data_mut(), &rp.reduce_group);
    }
    ctx.span_end();
    z
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::even_bounds;
    use crate::dist::grid::spmm_grid_buf;
    use crate::dist::grid::tests::{local_block, Shape};
    use crate::dist::oned::spmm_1d_buf;
    use gnn_comm::{CostModel, ThreadWorld, WorldStats};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use spmat::gen::{rmat, RmatConfig};
    use spmat::graph::gcn_normalize;

    fn setup(scale: u32, seed: u64, f: usize) -> (spmat::Csr, Dense) {
        let adj = gcn_normalize(&rmat(RmatConfig::graph500(scale, 5, seed)));
        let mut rng = StdRng::seed_from_u64(seed ^ 31);
        let h = Dense::glorot(adj.rows(), f, &mut rng);
        (adj, h)
    }

    fn run_1d(
        adj: &spmat::Csr,
        h: &Dense,
        p: usize,
        aware: bool,
        chunks: Option<usize>,
    ) -> (Dense, WorldStats) {
        let bounds = even_bounds(adj.rows(), p);
        let plan = GridPlan::oned(adj, &bounds, aware);
        let world = ThreadWorld::new(p, CostModel::perlmutter_like());
        let (blocks, stats) = world.run(|ctx| {
            let me = ctx.rank();
            let local = h.row_slice(bounds[me], bounds[me + 1]);
            let mut bufs = EpochBuffers::new();
            match chunks {
                None => spmm_1d_buf(ctx, &plan, &local, &mut bufs),
                Some(k) => spmm_1d_pipelined_buf(ctx, &plan, &local, k, &mut bufs),
            }
        });
        let refs: Vec<&Dense> = blocks.iter().collect();
        (Dense::vstack(&refs), stats)
    }

    fn run_grid(
        adj: &spmat::Csr,
        h: &Dense,
        shape: Shape,
        aware: bool,
        chunks: Option<usize>,
    ) -> (Vec<Dense>, WorldStats) {
        let plan = shape.plan(adj, aware);
        let world = ThreadWorld::new(plan.p(), CostModel::perlmutter_like());
        world.run(|ctx| {
            let local = local_block(h, &plan, &plan.ranks[ctx.rank()]);
            let mut bufs = EpochBuffers::new();
            match chunks {
                None => spmm_grid_buf(ctx, &plan, &local, &mut bufs),
                Some(k) => spmm_grid_pipelined_buf(ctx, &plan, &local, k, &mut bufs),
            }
        })
    }

    #[test]
    fn chunk_groups_partition() {
        for items in [1usize, 2, 4, 5, 8] {
            for chunks in [1usize, 2, 3, 7, 100] {
                let g = chunk_groups(items, chunks);
                assert_eq!(g.len(), chunks.clamp(1, items));
                assert_eq!(g[0].0, 0);
                assert_eq!(g.last().unwrap().1, items);
                for w in g.windows(2) {
                    assert_eq!(w[0].1, w[1].0, "groups must be contiguous");
                }
                for &(lo, hi) in &g {
                    assert!(lo < hi, "no empty groups after clamping");
                }
            }
        }
    }

    #[test]
    fn chunk_runs_partition_the_block_row_nnz() {
        let (adj, _) = setup(6, 11, 4);
        let bounds = even_bounds(adj.rows(), 4);
        for aware in [true, false] {
            let plan = GridPlan::oned(&adj, &bounds, aware);
            for (me, rp) in plan.ranks.iter().enumerate() {
                let block_nnz = adj.row_block(rp.row_lo, rp.row_hi).nnz();
                for k in [1, 2, 3, 7] {
                    let runs = chunk_groups(plan.p(), k);
                    let run = |&(glo, ghi): &(usize, usize)| &rp.stages[glo..ghi];
                    let total: usize = runs
                        .iter()
                        .flat_map(run)
                        .map(|st| st.block_compact.nnz())
                        .sum();
                    assert_eq!(total, block_nnz, "rank {me} k={k} aware={aware}");
                }
            }
        }
    }

    #[test]
    fn aware_pipelined_bitwise_matches_blocking() {
        let (adj, h) = setup(6, 12, 5);
        let (base, st_base) = run_1d(&adj, &h, 4, true, None);
        for k in [1, 2, 3, 7] {
            let (got, st) = run_1d(&adj, &h, 4, true, Some(k));
            assert!(got.approx_eq(&base, 0.0), "chunks={k} diverged");
            assert_eq!(
                st.phase_bytes_total(Phase::AllToAll),
                st_base.phase_bytes_total(Phase::AllToAll),
                "logical volume changed at chunks={k}"
            );
        }
    }

    #[test]
    fn oblivious_pipelined_bitwise_matches_blocking() {
        let (adj, h) = setup(6, 13, 5);
        let (base, st_base) = run_1d(&adj, &h, 4, false, None);
        for k in [1, 2, 3, 7] {
            let (got, st) = run_1d(&adj, &h, 4, false, Some(k));
            assert!(got.approx_eq(&base, 0.0), "chunks={k} diverged");
            assert_eq!(
                st.phase_bytes_total(Phase::Bcast),
                st_base.phase_bytes_total(Phase::Bcast),
                "logical volume changed at chunks={k}"
            );
            // Per-chunk broadcasts sum to the blocking total exactly, so
            // overlap can only help the modeled epoch time.
            assert!(
                st.modeled_epoch_time() <= st_base.modeled_epoch_time() + 1e-12,
                "chunks={k}: overlapped slower than blocking"
            );
        }
    }

    #[test]
    fn grid_pipelined_bitwise_matches_blocking() {
        use Shape::*;
        let (adj, h) = setup(6, 14, 5);
        for shape in [
            OneFiveD(4, 1),
            OneFiveD(4, 2),
            OneFiveD(8, 2),
            TwoD(2, 2),
            TwoD(4, 1),
            TwoD(4, 2),
            ThreeD(2, 1, 2),
            ThreeD(2, 2, 2),
            ThreeD(4, 1, 2),
        ] {
            for aware in [true, false] {
                let (base, st_base) = run_grid(&adj, &h, shape, aware, None);
                for k in [1, 2, 7] {
                    let label = format!("{shape:?} aware={aware} chunks={k}");
                    let (got, st) = run_grid(&adj, &h, shape, aware, Some(k));
                    for (b, g) in base.iter().zip(&got) {
                        assert!(g.approx_eq(b, 0.0), "{label} diverged");
                    }
                    for phase in [Phase::P2p, Phase::AllReduce] {
                        assert_eq!(
                            st.phase_bytes_total(phase),
                            st_base.phase_bytes_total(phase),
                            "{label}: logical {phase:?} volume changed"
                        );
                    }
                    // Sends all land on the first boundary; per-chunk
                    // max(send, recv) sums to ≤ blocking's send+recv.
                    assert!(
                        st.modeled_epoch_time() <= st_base.modeled_epoch_time() + 1e-12,
                        "{label}: overlapped slower than blocking"
                    );
                }
            }
        }
    }

    #[test]
    fn overlap_hides_communication_behind_compute() {
        // With several chunks, every chunk after the first has real
        // compute in front of it, so some comm must be hidden.
        let (adj, h) = setup(7, 15, 16);
        let (_, st) = run_1d(&adj, &h, 4, true, Some(4));
        assert!(st.total_overlap_stages() > 0);
        assert!(
            st.total_overlap_hidden_seconds() > 0.0,
            "expected some hidden comm"
        );
        // exposed + hidden must reconcile with the raw comm charged.
        for rs in &st.per_rank {
            let raw = rs.overlap.raw_comm_seconds;
            let split = rs.overlap_exposed_seconds() + rs.overlap_hidden_seconds();
            assert!(
                (raw - split).abs() <= 1e-12 * raw.max(1.0),
                "raw={raw} split={split}"
            );
        }
    }

    #[test]
    fn single_chunk_pipeline_prices_like_blocking_alltoallv() {
        // chunks = 1 degenerates to the blocking schedule: identical
        // total modeled time, with the comm charged to Phase::Overlap
        // (all exposed) instead of Phase::AllToAll.
        let (adj, h) = setup(6, 16, 5);
        let (_, st_base) = run_1d(&adj, &h, 4, true, None);
        let (_, st) = run_1d(&adj, &h, 4, true, Some(1));
        let base_total = st_base.modeled_epoch_time();
        let got_total = st.modeled_epoch_time();
        assert!(
            (base_total - got_total).abs() <= 1e-12 * base_total,
            "blocking {base_total} vs 1-chunk pipeline {got_total}"
        );
        assert_eq!(st.phase_time(Phase::AllToAll), 0.0);
        assert!(st.total_overlap_hidden_seconds() == 0.0);
    }
}
