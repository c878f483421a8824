//! 1D distributed SpMM: sparsity-oblivious (CAGNET-style broadcast) and
//! sparsity-aware (Algorithm 1's all-to-allv of needed rows).
//!
//! Both compute `Zᵢ = (Aᵀ H)ᵢ` for the calling rank from its local block
//! row of `H`. They are drop-in alternatives — the trainer picks one per
//! the scheme under evaluation.

use gnn_comm::msg::Payload;
use gnn_comm::{Phase, RankCtx, SpanKind};
use spmat::spmm::{spmm_acc, spmm_flops};
use spmat::Dense;

use super::buffers::EpochBuffers;
use super::grid::pack_block;
use super::plan::{Plan1d, RankPlan1d};

/// Sparsity-oblivious 1D SpMM: every rank broadcasts its whole `Hⱼ`
/// block; each rank assembles the full `H` and multiplies its block row.
///
/// Returns `Zᵢ` (`rows_i × f`).
pub fn spmm_1d_oblivious(ctx: &mut RankCtx, plan: &Plan1d, h_local: &Dense) -> Dense {
    spmm_1d_oblivious_buf(ctx, plan, h_local, &mut EpochBuffers::new())
}

/// [`spmm_1d_oblivious`] with caller-provided scratch: staging and
/// accumulator buffers come from `bufs` and retired buffers (including
/// ones received through the mesh) go back into it, so repeated calls
/// are allocation-free once the pool is warm.
pub fn spmm_1d_oblivious_buf(
    ctx: &mut RankCtx,
    plan: &Plan1d,
    h_local: &Dense,
    bufs: &mut EpochBuffers,
) -> Dense {
    let me = ctx.rank();
    let rp = &plan.ranks[me];
    let f = h_local.cols();
    assert_eq!(
        h_local.rows(),
        rp.row_hi - rp.row_lo,
        "local H block shape mismatch"
    );
    ctx.span_begin(SpanKind::Spmm1d, Phase::Bcast);

    // Assemble the full H via p broadcasts (the paper's CAGNET baseline).
    let mut h_full = bufs.take_dense(plan.n, f);
    for j in 0..plan.p {
        let payload = if j == me {
            let mut data = bufs.take_vec(h_local.data().len());
            data.extend_from_slice(h_local.data());
            Some(Payload::F64(data))
        } else {
            None
        };
        let data = ctx.bcast(j, payload).into_f64();
        let rows_j = plan.rows_of(j);
        assert_eq!(
            data.len(),
            rows_j * f,
            "broadcast size mismatch from rank {j}"
        );
        h_full.data_mut()[plan.bounds[j] * f..plan.bounds[j + 1] * f].copy_from_slice(&data);
        bufs.put_vec(data);
    }
    // Copy/assembly cost: one element move per entry of H.
    ctx.record_compute((plan.n * f) as u64);

    // Local SpMM against the full H.
    let mut z = bufs.take_dense(rp.row_hi - rp.row_lo, f);
    let flops = spmm_flops(&rp.block, f);
    ctx.compute(flops, || spmm_acc(&rp.block, &h_full, &mut z));
    bufs.put_dense(h_full);
    ctx.span_end();
    z
}

/// Sparsity-aware 1D SpMM (Algorithm 1): exchange only the needed rows of
/// `H` with a single all-to-allv, then multiply each source rank's segment
/// of the block row against that rank's rows where they already are — the
/// own segment against `h_local`, a remote one against the received
/// buffer.
///
/// Returns `Zᵢ` (`rows_i × f`).
pub fn spmm_1d_aware(ctx: &mut RankCtx, plan: &Plan1d, h_local: &Dense) -> Dense {
    spmm_1d_aware_buf(ctx, plan, h_local, &mut EpochBuffers::new())
}

/// Packs the rows each peer asked for into pooled `Rows` payloads (one
/// slot per rank, `Empty` for the caller and for peers that need nothing)
/// and charges the gather.
pub(super) fn pack_sends(
    ctx: &mut RankCtx,
    rp: &RankPlan1d,
    h_local: &Dense,
    bufs: &mut EpochBuffers,
) -> Vec<Payload> {
    let mut pack_elems = 0u64;
    let sends = rp
        .send_to
        .iter()
        .map(|idx| match idx.is_empty() {
            true => Payload::Empty,
            false => pack_block(true, h_local, rp.row_lo, idx, &mut pack_elems, bufs),
        })
        .collect();
    ctx.record_compute(pack_elems);
    sends
}

/// Folds source rank `j`'s segment into `z`: `arrived` is what `j` sent
/// (`None` for the caller's own segment, multiplied against `h_local`).
/// The received buffer becomes the operand as it is and retires into
/// `bufs` afterwards.
pub(super) fn fold_segment(
    rp: &RankPlan1d,
    j: usize,
    arrived: Option<Payload>,
    h_local: &Dense,
    z: &mut Dense,
    bufs: &mut EpochBuffers,
) {
    let seg = &rp.segments[j];
    match arrived {
        None => spmm_acc(seg, h_local, z),
        Some(Payload::Empty) => {
            assert_eq!(
                seg.cols(),
                0,
                "peer {j} sent nothing but rows were expected"
            )
        }
        Some(other) => {
            let (idx, data) = other.into_rows();
            assert_eq!(idx.len(), seg.cols(), "row count mismatch from {j}");
            debug_assert_eq!(idx, rp.recv_from(j), "row ids mismatch from {j}");
            let h_j = Dense::from_vec(idx.len(), h_local.cols(), data);
            spmm_acc(seg, &h_j, z);
            bufs.put_dense(h_j);
            bufs.put_u32(idx);
        }
    }
}

/// [`spmm_1d_aware`] with caller-provided scratch (see
/// [`spmm_1d_oblivious_buf`] for the recycling contract).
pub fn spmm_1d_aware_buf(
    ctx: &mut RankCtx,
    plan: &Plan1d,
    h_local: &Dense,
    bufs: &mut EpochBuffers,
) -> Dense {
    let me = ctx.rank();
    let rp = &plan.ranks[me];
    let f = h_local.cols();
    assert_eq!(
        h_local.rows(),
        rp.row_hi - rp.row_lo,
        "local H block shape mismatch"
    );
    ctx.span_begin(SpanKind::Spmm1d, Phase::AllToAll);

    let sends = pack_sends(ctx, rp, h_local, bufs);
    let received = ctx.alltoallv(sends);

    // The model's charge for laying the needed rows out (one element
    // move per entry of the gathered operand); the executor multiplies
    // them where they are instead.
    ctx.record_compute((rp.cols.len() * f) as u64);

    let mut z = bufs.take_dense(rp.row_hi - rp.row_lo, f);
    ctx.compute(spmm_flops(&rp.block, f), || {
        for (j, payload) in received.into_iter().enumerate() {
            let arrived = (j != me).then_some(payload);
            fold_segment(rp, j, arrived, h_local, &mut z, bufs);
        }
    });
    ctx.span_end();
    z
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::plan::even_bounds;
    use gnn_comm::{CostModel, Phase, ThreadWorld};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use spmat::gen::{rmat, RmatConfig};
    use spmat::graph::gcn_normalize;
    use spmat::spmm::spmm;

    fn setup(scale: u32, seed: u64) -> (spmat::Csr, Dense) {
        let adj = gcn_normalize(&rmat(RmatConfig::graph500(scale, 5, seed)));
        let mut rng = StdRng::seed_from_u64(seed ^ 99);
        let h = Dense::glorot(adj.rows(), 7, &mut rng);
        (adj, h)
    }

    fn run_dist(
        adj: &spmat::Csr,
        h: &Dense,
        p: usize,
        aware: bool,
    ) -> (Dense, gnn_comm::WorldStats) {
        let bounds = even_bounds(adj.rows(), p);
        let plan = Plan1d::build(adj, &bounds);
        let world = ThreadWorld::new(p, CostModel::perlmutter_like());
        let (blocks, stats) = world.run(|ctx| {
            let me = ctx.rank();
            let local = h.row_slice(bounds[me], bounds[me + 1]);
            if aware {
                spmm_1d_aware(ctx, &plan, &local)
            } else {
                spmm_1d_oblivious(ctx, &plan, &local)
            }
        });
        let refs: Vec<&Dense> = blocks.iter().collect();
        (Dense::vstack(&refs), stats)
    }

    #[test]
    fn oblivious_matches_sequential() {
        let (adj, h) = setup(6, 1);
        let expected = spmm(&adj, &h);
        for p in [1, 2, 4, 8] {
            let (got, _) = run_dist(&adj, &h, p, false);
            assert!(got.approx_eq(&expected, 1e-12), "p = {p}");
        }
    }

    #[test]
    fn aware_matches_sequential() {
        let (adj, h) = setup(6, 2);
        let expected = spmm(&adj, &h);
        for p in [1, 2, 3, 4, 8] {
            let (got, _) = run_dist(&adj, &h, p, true);
            assert!(got.approx_eq(&expected, 1e-12), "p = {p}");
        }
    }

    #[test]
    fn aware_and_oblivious_agree_exactly() {
        // Same multiplication order per row → bitwise identical results.
        let (adj, h) = setup(6, 3);
        let (a, _) = run_dist(&adj, &h, 4, true);
        let (b, _) = run_dist(&adj, &h, 4, false);
        assert!(a.approx_eq(&b, 1e-13));
    }

    #[test]
    fn aware_communicates_less() {
        let (adj, h) = setup(8, 4);
        let (_, st_aware) = run_dist(&adj, &h, 8, true);
        let (_, st_obliv) = run_dist(&adj, &h, 8, false);
        let aware_bytes = st_aware.phase_recv_bytes_total(Phase::AllToAll);
        let obliv_bytes = st_obliv.phase_recv_bytes_total(Phase::Bcast);
        assert!(aware_bytes > 0);
        assert!(
            aware_bytes < obliv_bytes,
            "aware {aware_bytes} >= oblivious {obliv_bytes}"
        );
    }

    #[test]
    fn phases_are_disjoint() {
        let (adj, h) = setup(6, 5);
        let (_, st_aware) = run_dist(&adj, &h, 4, true);
        assert_eq!(st_aware.phase_bytes_total(Phase::Bcast), 0);
        let (_, st_obliv) = run_dist(&adj, &h, 4, false);
        assert_eq!(st_obliv.phase_bytes_total(Phase::AllToAll), 0);
    }
}
