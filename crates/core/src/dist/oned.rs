//! 1D distributed SpMM (Algorithm 1) over [`GridPlan::oned`]:
//! sparsity-aware (one all-to-allv of the needed rows) or
//! sparsity-oblivious (CAGNET-style: `p` broadcasts of whole blocks), as
//! the plan says.
//!
//! Both compute `Zᵢ = (Aᵀ H)ᵢ` for the calling rank from its local block
//! row of `H`, folding the plan's stages in ascending source rank, each
//! against the rows where they arrived — the own stage against `h_local`,
//! a remote one against the received buffer. What differs from the staged
//! grid executor is the delivery: one collective carries every stage.

use gnn_comm::msg::Payload;
use gnn_comm::{Phase, RankCtx};
use spmat::spmm::spmm_acc;
use spmat::Dense;

use super::buffers::EpochBuffers;
use super::grid::{fold_payload, pack_block, GridPlan, RankPlan, Stage};

/// One 1D SpMM on the calling rank. Returns `Zᵢ` (`rows_i × f`).
pub fn spmm_1d(ctx: &mut RankCtx, plan: &GridPlan, h_local: &Dense) -> Dense {
    spmm_1d_buf(ctx, plan, h_local, &mut EpochBuffers::new())
}

/// Packs the rows each peer asked for into pooled `Rows` payloads (one
/// slot per rank, `Empty` for the caller and for peers that need nothing)
/// and charges the gather.
fn pack_sends(ctx: &mut RankCtx, rp: &RankPlan, h_local: &Dense) -> Vec<Payload> {
    let mut pack_elems = 0u64;
    let mut sends: Vec<Payload> = (0..ctx.p()).map(|_| Payload::Empty).collect();
    for (dst, idx) in &rp.sends {
        sends[*dst] = pack_block(ctx, true, h_local, rp.row_lo, idx, &mut pack_elems);
    }
    ctx.record_compute(pack_elems);
    sends
}

/// Folds the run `stages` into `z` once its payloads (`arrived`, one per
/// stage) are in: the model's charge for laying the needed rows out (one
/// element move per entry of the gathered operand — the executor
/// multiplies them where they are instead), then one multiply charge
/// covering every stage of the run. The spent payloads go back to the
/// world's pool.
fn fold_run(
    ctx: &mut RankCtx,
    rp: &RankPlan,
    stages: &[Stage],
    mut arrived: Vec<Payload>,
    h_local: &Dense,
    z: &mut Dense,
) {
    let f = h_local.cols();
    let rows: usize = stages.iter().map(|st| st.needed.len()).sum();
    let nnz: usize = stages.iter().map(|st| st.block_compact.nnz()).sum();
    ctx.record_compute((rows * f) as u64);
    ctx.compute(2 * (nnz * f) as u64, || {
        for (st, payload) in stages.iter().zip(&mut arrived) {
            fold_segment(st, st.src_rank == rp.rank, payload, h_local, z);
        }
    });
    for (st, payload) in stages.iter().zip(arrived) {
        ctx.recycle(st.src_rank, payload);
    }
}

/// Folds one stage into `z`. The all-to-allv leaves the caller's own slot
/// `Empty`: that stage multiplies against `h_local`. Any other payload is
/// the operand as it is.
fn fold_segment(st: &Stage, own: bool, arrived: &mut Payload, h_local: &Dense, z: &mut Dense) {
    let seg = &st.block_compact;
    match arrived {
        Payload::Empty if own => spmm_acc(seg, h_local, z),
        Payload::Empty => {
            let src = st.src_rank;
            assert_eq!(
                seg.cols(),
                0,
                "peer {src} sent nothing but rows were expected"
            );
        }
        rows => {
            if let Payload::Rows { idx, .. } = &*rows {
                debug_assert_eq!(*idx, st.needed, "row ids mismatch from {}", st.src_rank);
            }
            fold_payload(seg, rows, seg.cols(), h_local.cols(), z);
        }
    }
}

/// [`spmm_1d`] with caller-provided scratch: the accumulator comes from
/// `bufs`; sends are packed into buffers from the world's pool and
/// received payloads recycled into it, so repeated calls are
/// allocation-free once both are warm.
pub fn spmm_1d_buf(
    ctx: &mut RankCtx,
    plan: &GridPlan,
    h_local: &Dense,
    bufs: &mut EpochBuffers,
) -> Dense {
    let rp = &plan.ranks[ctx.rank()];
    assert_eq!(h_local.rows(), rp.rows(), "local H block shape mismatch");
    let arrived = if plan.aware {
        ctx.span_begin(plan.span, Phase::AllToAll);
        let sends = pack_sends(ctx, rp, h_local);
        ctx.alltoallv(sends)
    } else {
        // Each stage's source rank broadcasts a pooled copy of its block.
        ctx.span_begin(plan.span, Phase::Bcast);
        let bcast = |st: &Stage| {
            let own = (st.src_rank == rp.rank)
                .then(|| pack_block(ctx, false, h_local, rp.row_lo, &st.needed, &mut 0));
            ctx.bcast(st.src_rank, own)
        };
        rp.stages.iter().map(bcast).collect()
    };
    let mut z = bufs.take_dense(rp.rows(), h_local.cols());
    fold_run(ctx, rp, &rp.stages, arrived, h_local, &mut z);
    ctx.span_end();
    z
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::even_bounds;
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
        let plan = GridPlan::oned(adj, &bounds, aware);
        let world = ThreadWorld::new(p, CostModel::perlmutter_like());
        let (blocks, stats) = world.run(|ctx| {
            let me = ctx.rank();
            let local = h.row_slice(bounds[me], bounds[me + 1]);
            spmm_1d(ctx, &plan, &local)
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
