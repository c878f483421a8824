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
//! **Bit-exactness.** Chunk boundaries follow ownership ranges of the
//! already-sorted plan structures: a sparsity-aware chunk is a run of
//! the plan's per-source segments, an oblivious one a
//! [`spmat::Csr::col_range_block`] of the block row, and both keep the
//! per-row entry order. Folding the chunks in ascending order therefore
//! accumulates every output element in *exactly* the order the blocking
//! implementation uses — the pipelined results are bitwise identical,
//! not merely close.

use gnn_comm::msg::Payload;
use gnn_comm::{PendingOp, Phase, RankCtx, SpanKind};
use spmat::spmm::{spmm_acc, spmm_flops};
use spmat::{Csr, Dense};

use super::buffers::EpochBuffers;
use super::grid::{fold_stage, pack_block, GridPlan};
use super::oned::{fold_segment, pack_sends};
use super::plan::Plan1d;

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

/// Precomputed per-rank chunking of a [`Plan1d`]: which peer ranks each
/// chunk covers, the matching column range, and what becomes multipliable
/// once that chunk has arrived — sparsity-aware, the plan's segments of
/// those ranks; oblivious, a sub-block of the local matrix.
///
/// Like the plan itself this is sparsity-derived and epoch-invariant,
/// so it is built once and reused by every SpMM of every epoch.
#[derive(Clone, Debug)]
pub struct OverlapPlan1d {
    /// Contiguous peer-rank groups: chunk `g` covers ranks
    /// `groups[g].0 .. groups[g].1`.
    pub groups: Vec<(usize, usize)>,
    /// Per-chunk column range. Sparsity-aware: positions in the compact
    /// `cols` space; oblivious: global row-id bounds.
    pub col_bounds: Vec<(usize, usize)>,
    /// Oblivious only: per-chunk sub-block of `block`, columns restricted
    /// to `col_bounds[g]`, full column-space width preserved. Empty when
    /// sparsity-aware — chunk `g` then multiplies the plan's
    /// `segments[groups[g].0..groups[g].1]`.
    pub blocks: Vec<Csr>,
    /// Which 1D variant this plan chunks.
    pub aware: bool,
}

impl OverlapPlan1d {
    /// Builds rank `me`'s chunking for `chunks` pipeline stages.
    pub fn build(plan: &Plan1d, me: usize, chunks: usize, aware: bool) -> OverlapPlan1d {
        let rp = &plan.ranks[me];
        let groups = chunk_groups(plan.p, chunks);
        // Compact-column prefix boundary just before rank j's slice.
        let compact_bound = |j: usize| -> usize {
            if j < plan.p {
                rp.col_ranges[j].0
            } else {
                rp.cols.len()
            }
        };
        let mut col_bounds = Vec::with_capacity(groups.len());
        let mut blocks = Vec::new();
        for &(glo, ghi) in &groups {
            if aware {
                col_bounds.push((compact_bound(glo), compact_bound(ghi)));
            } else {
                let (blo, bhi) = (plan.bounds[glo], plan.bounds[ghi]);
                col_bounds.push((blo, bhi));
                blocks.push(rp.block.col_range_block(blo, bhi));
            }
        }
        OverlapPlan1d {
            groups,
            col_bounds,
            blocks,
            aware,
        }
    }

    /// Number of pipeline stages (after clamping).
    pub fn chunks(&self) -> usize {
        self.groups.len()
    }
}

/// Pipelined counterpart of
/// [`super::oned::spmm_1d_aware_buf`]: the all-to-allv is decomposed
/// into nonblocking per-peer exchanges, chunked by peer group, and each
/// chunk's rows are folded into `Z` while later chunks are in flight.
///
/// Bitwise identical to the blocking variant; logical send volumes and
/// flop totals are unchanged.
pub fn spmm_1d_aware_pipelined_buf(
    ctx: &mut RankCtx,
    plan: &Plan1d,
    h_local: &Dense,
    ov: &OverlapPlan1d,
    bufs: &mut EpochBuffers,
) -> Dense {
    assert!(ov.aware, "aware pipeline needs an aware overlap plan");
    let me = ctx.rank();
    let rp = &plan.ranks[me];
    let f = h_local.cols();
    assert_eq!(
        h_local.rows(),
        rp.row_hi - rp.row_lo,
        "local H block shape mismatch"
    );
    ctx.span_begin(SpanKind::Spmm1d, Phase::AllToAll);

    // Pack outside the window: it must complete before the sends post,
    // so it cannot hide any chunk's communication.
    let mut sends = pack_sends(ctx, rp, h_local, bufs);

    ctx.overlap_begin(ov.chunks());

    // Post every send up front (eager), tagged with the chunk its
    // destination belongs to — the per-stage α·ops + β·bytes duplex
    // charges then sum to the blocking all-to-allv price at chunks = 1.
    // Empty payloads are sent too, mirroring the blocking collective's
    // (p − 1)·α synchronization cost.
    for (g, &(glo, ghi)) in ov.groups.iter().enumerate() {
        for (j, slot) in sends.iter_mut().enumerate().take(ghi).skip(glo) {
            if j == me {
                continue;
            }
            let payload = std::mem::replace(slot, Payload::Empty);
            ctx.isend(j, payload, Phase::AllToAll, g);
        }
    }
    let mut recvs: Vec<Option<PendingOp>> = (0..plan.p)
        .map(|j| (j != me).then(|| ctx.irecv(j, Phase::AllToAll)))
        .collect();

    let mut z = bufs.take_dense(rp.row_hi - rp.row_lo, f);
    for (g, &(glo, ghi)) in ov.groups.iter().enumerate() {
        // Wait for this chunk's rows; the boundary then charges the
        // exposed remainder of the chunk's comm.
        let arrived: Vec<Option<Payload>> = recvs[glo..ghi]
            .iter_mut()
            .map(|slot| slot.take().map(|op| ctx.wait(op)))
            .collect();
        ctx.overlap_stage();

        // Fold: the chunk's share of the layout charge, then its run of
        // segments, each against the rows where they arrived (our own
        // against `h_local`, if our slice falls in this chunk).
        let (clo, chi) = ov.col_bounds[g];
        ctx.record_compute(((chi - clo) * f) as u64);
        let nnz: usize = rp.segments[glo..ghi].iter().map(Csr::nnz).sum();
        ctx.compute(2 * (nnz * f) as u64, || {
            for (j, payload) in (glo..ghi).zip(arrived) {
                fold_segment(rp, j, payload, h_local, &mut z, bufs);
            }
        });
    }
    ctx.overlap_end();
    ctx.span_end();
    z
}

/// Pipelined counterpart of [`super::oned::spmm_1d_oblivious_buf`]: the
/// `p` broadcasts are chunked by root group and each chunk's block of
/// `H` is multiplied while later broadcasts' cost is still accruing.
/// Per-chunk broadcast charges sum to the blocking total exactly, so
/// the overlapped modeled time is never worse than blocking.
pub fn spmm_1d_oblivious_pipelined_buf(
    ctx: &mut RankCtx,
    plan: &Plan1d,
    h_local: &Dense,
    ov: &OverlapPlan1d,
    bufs: &mut EpochBuffers,
) -> Dense {
    assert!(
        !ov.aware,
        "oblivious pipeline needs an oblivious overlap plan"
    );
    let me = ctx.rank();
    let rp = &plan.ranks[me];
    let f = h_local.cols();
    assert_eq!(
        h_local.rows(),
        rp.row_hi - rp.row_lo,
        "local H block shape mismatch"
    );
    ctx.span_begin(SpanKind::Spmm1d, Phase::Bcast);

    let mut h_full = bufs.take_dense(plan.n, f);
    let mut z = bufs.take_dense(rp.row_hi - rp.row_lo, f);
    ctx.overlap_begin(ov.chunks());
    for (g, &(glo, ghi)) in ov.groups.iter().enumerate() {
        for j in glo..ghi {
            let payload = if j == me {
                let mut data = bufs.take_vec(h_local.data().len());
                data.extend_from_slice(h_local.data());
                Some(Payload::F64(data))
            } else {
                None
            };
            let data = ctx.bcast_overlapped(j, payload).into_f64();
            let rows_j = plan.rows_of(j);
            assert_eq!(
                data.len(),
                rows_j * f,
                "broadcast size mismatch from rank {j}"
            );
            h_full.data_mut()[plan.bounds[j] * f..plan.bounds[j + 1] * f].copy_from_slice(&data);
            bufs.put_vec(data);
        }
        ctx.overlap_stage();

        let (blo, bhi) = ov.col_bounds[g];
        ctx.record_compute(((bhi - blo) * f) as u64);
        let blk = &ov.blocks[g];
        ctx.compute(spmm_flops(blk, f), || spmm_acc(blk, &h_full, &mut z));
    }
    ctx.overlap_end();
    bufs.put_dense(h_full);
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
    let rows_i = rp.row_hi - rp.row_lo;
    assert_eq!(h_local.rows(), rows_i, "local H block shape mismatch");
    let groups = chunk_groups(rp.stages.len(), chunks);
    ctx.span_begin(plan.span, Phase::P2p);

    // Pack outside the window (it precedes the sends), then post every
    // outbound block as an eager nonblocking send on the first stage.
    let mut pack_elems = 0u64;
    let outbound: Vec<(usize, Payload)> = rp
        .sends
        .iter()
        .map(|(dst, idx)| {
            let payload = pack_block(plan.aware, h_local, rp.row_lo, idx, &mut pack_elems, bufs);
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

    let mut z = bufs.take_dense(rows_i, h_local.cols());
    for &(slo, shi) in &groups {
        // Wait for this section's inbound blocks, then cross the
        // boundary: earlier sections' multiplies have been hiding them.
        let mut staged: Vec<Option<Payload>> = (slo..shi)
            .map(|si| recvs[si].take().map(|op| ctx.wait(op)))
            .collect();
        ctx.overlap_stage();

        for (st, slot) in rp.stages[slo..shi].iter().zip(&mut staged) {
            fold_stage(ctx, plan.aware, rp, st, h_local, &mut z, bufs, |_, _| {
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
    use crate::dist::grid::spmm_grid_buf;
    use crate::dist::grid::tests::{local_block, Shape};
    use crate::dist::oned::{spmm_1d_aware_buf, spmm_1d_oblivious_buf};
    use crate::dist::plan::even_bounds;
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
        let plan = Plan1d::build(adj, &bounds);
        let world = ThreadWorld::new(p, CostModel::perlmutter_like());
        let (blocks, stats) = world.run(|ctx| {
            let me = ctx.rank();
            let local = h.row_slice(bounds[me], bounds[me + 1]);
            let mut bufs = EpochBuffers::new();
            match chunks {
                None if aware => spmm_1d_aware_buf(ctx, &plan, &local, &mut bufs),
                None => spmm_1d_oblivious_buf(ctx, &plan, &local, &mut bufs),
                Some(k) => {
                    let ov = OverlapPlan1d::build(&plan, me, k, aware);
                    if aware {
                        spmm_1d_aware_pipelined_buf(ctx, &plan, &local, &ov, &mut bufs)
                    } else {
                        spmm_1d_oblivious_pipelined_buf(ctx, &plan, &local, &ov, &mut bufs)
                    }
                }
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
    fn overlap_plan_blocks_partition_nnz() {
        let (adj, _) = setup(6, 11, 4);
        let bounds = even_bounds(adj.rows(), 4);
        let plan = Plan1d::build(&adj, &bounds);
        for me in 0..4 {
            for aware in [true, false] {
                for k in [1, 2, 3, 7] {
                    let ov = OverlapPlan1d::build(&plan, me, k, aware);
                    let rp = &plan.ranks[me];
                    let total: usize = if aware {
                        assert!(ov.blocks.is_empty());
                        let run = |&(glo, ghi): &(usize, usize)| &rp.segments[glo..ghi];
                        ov.groups.iter().flat_map(run).map(Csr::nnz).sum()
                    } else {
                        ov.blocks.iter().map(Csr::nnz).sum()
                    };
                    assert_eq!(total, rp.block.nnz(), "rank {me} k={k}");
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
    fn aware_1d_executors_recycle_every_buffer() {
        // Received payloads become SpMM operands as they are and retire
        // into the receiver's pool; sends are staged out of it. Once the
        // pool has seen every size, no call may allocate.
        let (adj, h) = setup(7, 17, 12);
        let (warm_up, steady) = (6, 6);
        let bounds = even_bounds(adj.rows(), 3);
        let plan = Plan1d::build(&adj, &bounds);
        for chunks in [None, Some(2)] {
            let world = ThreadWorld::new(3, CostModel::perlmutter_like());
            let (fresh, _) = world.run(|ctx| {
                let me = ctx.rank();
                let local = h.row_slice(bounds[me], bounds[me + 1]);
                let ov = chunks.map(|k| OverlapPlan1d::build(&plan, me, k, true));
                let mut bufs = EpochBuffers::new();
                let mut warm = 0;
                for call in 0..warm_up + steady {
                    let z = match &ov {
                        None => spmm_1d_aware_buf(ctx, &plan, &local, &mut bufs),
                        Some(ov) => spmm_1d_aware_pipelined_buf(ctx, &plan, &local, ov, &mut bufs),
                    };
                    bufs.put_dense(z);
                    if call + 1 == warm_up {
                        warm = bufs.fresh_allocs();
                    }
                }
                (warm, bufs.fresh_allocs())
            });
            for (rank, (warm, end)) in fresh.into_iter().enumerate() {
                assert_eq!(warm, end, "chunks={chunks:?}: rank {rank} allocated");
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
