//! Closed-form per-rank cost estimation — no threads, no data movement.
//!
//! For large sweeps (Fig. 3/6/7 go to p = 256) spawning hundreds of
//! threads per configuration is wasteful: every quantity the cost model
//! prices is already determined by the communication plan. This module
//! replays the exact op sequence of [`crate::dist::trainer`] against the
//! plan's row lists and charges the same [`CostModel`] formulas, yielding
//! [`WorldStats`] **identical** (bytes, flops, modeled seconds) to what
//! the threaded executor records — an equality asserted by the
//! integration tests (`tests/analytic_matches_executor.rs`).

use gnn_comm::stats::{Phase, RankStats, WorldStats};
use gnn_comm::{CostModel, OverlapConfig};
use spmat::Csr;

use crate::dist::grid::GridPlan;
use crate::dist::overlap::{chunk_groups, OverlapPlan1d};
use crate::dist::plan::Plan1d;
use crate::dist::trainer::{plan_for, PlanKind};
use crate::dist::Algo;
use crate::model::ArchKind;

/// Inputs for an estimate.
#[derive(Clone, Copy, Debug)]
pub struct AnalyticInput<'a> {
    /// Permuted, normalized adjacency.
    pub adj: &'a Csr,
    /// Block-row boundaries (`p + 1` for 1D, `p/c + 1` for 1.5D).
    pub bounds: &'a [usize],
    /// Algorithm variant.
    pub algo: Algo,
    /// Layer widths (`dims[0]` = features, last = classes).
    pub dims: &'a [usize],
    /// Machine model.
    pub model: CostModel,
    /// Number of epochs to charge.
    pub epochs: usize,
    /// Layer architecture (changes local compute and gradient-reduce
    /// sizes; communication plans are identical).
    pub arch: ArchKind,
    /// Comm/compute overlap configuration. When enabled the estimator
    /// replays the *pipelined* op sequence: per-chunk duplex charges
    /// with the exposed remainder on [`Phase::Overlap`], exactly
    /// mirroring the executor's measured overlap window.
    pub overlap: OverlapConfig,
}

fn add_compute(st: &mut RankStats, model: &CostModel, flops: u64) {
    let c = st.phase_mut(Phase::LocalCompute);
    c.ops += 1;
    c.flops += flops;
    c.modeled_seconds += model.compute(flops);
}

fn add_allreduce(st: &mut RankStats, model: &CostModel, bytes: u64, group: usize) {
    let c = st.phase_mut(Phase::AllReduce);
    c.ops += 1;
    c.bytes_sent += bytes;
    c.bytes_recv += bytes;
    c.modeled_seconds += model.allreduce(bytes, group);
}

/// Bytes of a `Rows` payload with `rows` indices and width `f`.
fn rows_payload_bytes(rows: u64, f: u64) -> u64 {
    4 * rows + 8 * rows * f
}

/// One pipeline-stage boundary: mirrors [`RankCtx::overlap_stage`] —
/// the exposed remainder of `comm` (after subtracting the compute that
/// ran since the previous boundary) lands on [`Phase::Overlap`]'s
/// modeled clock, the hidden part only on the overlap counters.
///
/// [`RankCtx::overlap_stage`]: gnn_comm::RankCtx::overlap_stage
fn add_overlap_boundary(st: &mut RankStats, comm: f64, hidden_budget: f64) {
    let exposed = (comm - hidden_budget).max(0.0);
    let c = st.phase_mut(Phase::Overlap);
    c.ops += 1;
    c.modeled_seconds += exposed;
    st.overlap.stages += 1;
    st.overlap.raw_comm_seconds += comm;
    st.overlap.hidden_seconds += comm - exposed;
}

/// One sparsity-aware 1D SpMM's charges on rank `me` at width `f`.
fn spmm_1d_aware_charges(plan: &Plan1d, me: usize, f: u64, model: &CostModel, st: &mut RankStats) {
    let rp = &plan.ranks[me];
    let mut pack_elems = 0u64;
    let mut sent = 0u64;
    let mut recv = 0u64;
    for j in 0..plan.p {
        if j == me {
            continue;
        }
        let s = rp.send_to[j].len() as u64;
        if s > 0 {
            pack_elems += s * f;
            sent += rows_payload_bytes(s, f);
        }
        let r = rp.recv_from(j).len() as u64;
        if r > 0 {
            recv += rows_payload_bytes(r, f);
        }
    }
    add_compute(st, model, pack_elems);
    let c = st.phase_mut(Phase::AllToAll);
    c.ops += 1;
    c.bytes_sent += sent;
    c.bytes_recv += recv;
    c.modeled_seconds += model.alltoallv(sent, recv, plan.p);
    add_compute(st, model, rp.cols.len() as u64 * f);
    add_compute(st, model, 2 * rp.block.nnz() as u64 * f);
}

/// One sparsity-oblivious 1D SpMM's charges.
fn spmm_1d_oblivious_charges(
    plan: &Plan1d,
    me: usize,
    f: u64,
    model: &CostModel,
    st: &mut RankStats,
) {
    for j in 0..plan.p {
        let bytes = 8 * plan.rows_of(j) as u64 * f;
        let c = st.phase_mut(Phase::Bcast);
        c.ops += 1;
        if j == me {
            c.bytes_sent += bytes;
        } else {
            c.bytes_recv += bytes;
        }
        c.modeled_seconds += model.bcast(bytes, plan.p);
    }
    add_compute(st, model, plan.n as u64 * f);
    add_compute(st, model, 2 * plan.ranks[me].block.nnz() as u64 * f);
}

/// One *pipelined* sparsity-aware 1D SpMM's charges: replays
/// [`crate::dist::overlap::spmm_1d_aware_pipelined_buf`] — per-chunk
/// duplex pricing at each stage boundary, with the previous chunk's
/// folding compute available to hide the comm.
fn spmm_1d_aware_pipelined_charges(
    plan: &Plan1d,
    ov: &OverlapPlan1d,
    me: usize,
    f: u64,
    model: &CostModel,
    st: &mut RankStats,
) {
    let rp = &plan.ranks[me];
    let mut pack_elems = 0u64;
    for j in 0..plan.p {
        if j != me && !rp.send_to[j].is_empty() {
            pack_elems += rp.send_to[j].len() as u64 * f;
        }
    }
    add_compute(st, model, pack_elems);

    let mut prev_compute = 0.0f64;
    for (g, &(glo, ghi)) in ov.groups.iter().enumerate() {
        let (mut send_ops, mut send_bytes) = (0u64, 0u64);
        let (mut recv_ops, mut recv_bytes) = (0u64, 0u64);
        for j in glo..ghi {
            if j == me {
                continue;
            }
            send_ops += 1; // empty payloads are sent too (α cost)
            let s = rp.send_to[j].len() as u64;
            if s > 0 {
                send_bytes += rows_payload_bytes(s, f);
            }
            recv_ops += 1;
            let r = rp.recv_from(j).len() as u64;
            if r > 0 {
                recv_bytes += rows_payload_bytes(r, f);
            }
        }
        let c = st.phase_mut(Phase::AllToAll);
        c.ops += send_ops + recv_ops;
        c.bytes_sent += send_bytes;
        c.bytes_recv += recv_bytes;
        let send_cost = send_ops as f64 * model.alpha + send_bytes as f64 * model.beta;
        let recv_cost = recv_ops as f64 * model.alpha + recv_bytes as f64 * model.beta;
        add_overlap_boundary(st, send_cost.max(recv_cost), prev_compute);

        let (clo, chi) = ov.col_bounds[g];
        let assemble = (chi - clo) as u64 * f;
        let nnz: usize = rp.segments[glo..ghi].iter().map(Csr::nnz).sum();
        let spmm = 2 * nnz as u64 * f;
        add_compute(st, model, assemble);
        add_compute(st, model, spmm);
        prev_compute = model.compute(assemble) + model.compute(spmm);
    }
}

/// One *pipelined* sparsity-oblivious 1D SpMM's charges: replays
/// [`crate::dist::overlap::spmm_1d_oblivious_pipelined_buf`] — each
/// chunk's broadcast tree time accrues as collective cost settled at
/// the chunk boundary.
fn spmm_1d_oblivious_pipelined_charges(
    plan: &Plan1d,
    ov: &OverlapPlan1d,
    me: usize,
    f: u64,
    model: &CostModel,
    st: &mut RankStats,
) {
    let mut prev_compute = 0.0f64;
    for (g, &(glo, ghi)) in ov.groups.iter().enumerate() {
        let mut coll = 0.0f64;
        for j in glo..ghi {
            let bytes = 8 * plan.rows_of(j) as u64 * f;
            let c = st.phase_mut(Phase::Bcast);
            c.ops += 1;
            if j == me {
                c.bytes_sent += bytes;
            } else {
                c.bytes_recv += bytes;
            }
            coll += model.bcast(bytes, plan.p);
        }
        add_overlap_boundary(st, coll, prev_compute);

        let (blo, bhi) = ov.col_bounds[g];
        let assemble = (bhi - blo) as u64 * f;
        let spmm = 2 * ov.blocks[g].nnz() as u64 * f;
        add_compute(st, model, assemble);
        add_compute(st, model, spmm);
        prev_compute = model.compute(assemble) + model.compute(spmm);
    }
}

/// Bytes of one exchanged block of `rows` rows at width `f`: an indexed
/// `Rows` payload when sparsity-aware, a plain `F64` block otherwise.
fn block_bytes(aware: bool, rows: u64, f: u64) -> u64 {
    if aware {
        rows_payload_bytes(rows, f)
    } else {
        8 * rows * f
    }
}

/// Wire bytes and packed elements of one shipment to a consumer that
/// needs the rows `idx` of the sender's `rows_i`-row block: an aware
/// sender packs and ships just those rows, an oblivious one ships its
/// whole block unpacked.
fn shipment(plan: &GridPlan, rows_i: u64, idx: &[u32], f: u64) -> (u64, u64) {
    if plan.aware {
        let rows = idx.len() as u64;
        (block_bytes(true, rows, f), rows * f)
    } else {
        (block_bytes(false, rows_i, f), 0)
    }
}

/// Records one point-to-point op of `bytes` on `st`, sent or received;
/// `seconds` is what the op adds to the phase's modeled clock.
fn add_p2p(st: &mut RankStats, sent: bool, bytes: u64, seconds: f64) {
    let c = st.phase_mut(Phase::P2p);
    c.ops += 1;
    if sent {
        c.bytes_sent += bytes;
    } else {
        c.bytes_recv += bytes;
    }
    c.modeled_seconds += seconds;
}

/// One blocking grid SpMM's charges on linear rank `me` at panel width
/// `f`: replays [`crate::dist::grid::spmm_grid_buf`] — the designated
/// sender's shipments, the receive-or-gather/multiply stage loop, and
/// the trailing replica all-reduce (absent for the 2D shape).
fn spmm_grid_charges(plan: &GridPlan, me: usize, f: u64, model: &CostModel, st: &mut RankStats) {
    let rp = &plan.ranks[me];
    let rows_i = (rp.row_hi - rp.row_lo) as u64;
    let mut pack_elems = 0u64;
    for (_, idx) in &rp.sends {
        let (bytes, packed) = shipment(plan, rows_i, idx, f);
        pack_elems += packed;
        add_p2p(st, true, bytes, model.p2p(bytes));
    }
    if pack_elems > 0 {
        add_compute(st, model, pack_elems);
    }
    for stage in &rp.stages {
        let needed = stage.needed.len() as u64;
        if stage.src_rank == me {
            add_compute(st, model, needed * f);
        } else if needed > 0 {
            let bytes = block_bytes(plan.aware, needed, f);
            add_p2p(st, false, bytes, model.p2p(bytes));
        }
        add_compute(st, model, 2 * stage.block_compact.nnz() as u64 * f);
    }
    if !rp.reduce_group.is_empty() {
        add_allreduce(st, model, 8 * rows_i * f, rp.reduce_group.len());
    }
}

/// One *pipelined* grid SpMM's charges: replays
/// [`crate::dist::overlap::spmm_grid_pipelined_buf`] — every outbound
/// block lands on the first stage boundary, each stage section's
/// receives settle against the previous section's multiplies, and the
/// trailing all-reduce stays blocking.
fn spmm_grid_pipelined_charges(
    plan: &GridPlan,
    me: usize,
    f: u64,
    chunks: usize,
    model: &CostModel,
    st: &mut RankStats,
) {
    let rp = &plan.ranks[me];
    let rows_i = (rp.row_hi - rp.row_lo) as u64;

    // Sender side: packed before the window, posted on stage 0.
    let (mut send_ops, mut send_bytes) = (0u64, 0u64);
    let mut pack_elems = 0u64;
    for (_, idx) in &rp.sends {
        let (bytes, packed) = shipment(plan, rows_i, idx, f);
        pack_elems += packed;
        send_ops += 1;
        send_bytes += bytes;
        add_p2p(st, true, bytes, 0.0);
    }
    if pack_elems > 0 {
        add_compute(st, model, pack_elems);
    }

    let mut prev_compute = 0.0f64;
    for (slo, shi) in chunk_groups(rp.stages.len(), chunks) {
        let (mut recv_ops, mut recv_bytes) = (0u64, 0u64);
        for stage in &rp.stages[slo..shi] {
            if stage.src_rank != me && !stage.needed.is_empty() {
                let bytes = block_bytes(plan.aware, stage.needed.len() as u64, f);
                recv_ops += 1;
                recv_bytes += bytes;
                add_p2p(st, false, bytes, 0.0);
            }
        }
        let send_cost = send_ops as f64 * model.alpha + send_bytes as f64 * model.beta;
        let recv_cost = recv_ops as f64 * model.alpha + recv_bytes as f64 * model.beta;
        add_overlap_boundary(st, send_cost.max(recv_cost), prev_compute);
        (send_ops, send_bytes) = (0, 0);

        prev_compute = 0.0;
        for stage in &rp.stages[slo..shi] {
            if stage.src_rank == me {
                let gather = stage.needed.len() as u64 * f;
                add_compute(st, model, gather);
                prev_compute += model.compute(gather);
            }
            let spmm = 2 * stage.block_compact.nnz() as u64 * f;
            add_compute(st, model, spmm);
            prev_compute += model.compute(spmm);
        }
    }
    if !rp.reduce_group.is_empty() {
        add_allreduce(st, model, 8 * rows_i * f, rp.reduce_group.len());
    }
}

/// One grid rank's full training charges: replays
/// [`crate::dist::trainer`]'s paneled (2D/3D) program op-for-op — panel
/// slices, the grid SpMM, the partial `× W` GEMM, the grid-row `Z`/`AᵀG`
/// all-reduces (`pc` ranks), the global loss and weight-gradient
/// all-reduces (`p` ranks), and the full-width local backward steps.
fn grid_rank_charges(
    input: &AnalyticInput<'_>,
    plan: &GridPlan,
    me: usize,
    charge_spmm: impl Fn(&mut RankStats, u64),
) -> RankStats {
    let model = &input.model;
    let dims = input.dims;
    let l_total = dims.len() - 1;
    let mut st = RankStats::default();
    let rp = &plan.ranks[me];
    let (rows, pc, p) = ((rp.row_hi - rp.row_lo) as u64, plan.pc, plan.p());
    let panel_width = |f: usize| -> u64 {
        let b = plan.panel_bounds(f);
        (b[rp.j + 1] - b[rp.j]) as u64
    };

    for _epoch in 0..input.epochs {
        // Forward.
        for l in 0..l_total {
            let d_out = dims[l + 1] as u64;
            let ipw = panel_width(dims[l]);
            add_compute(&mut st, model, rows * ipw); // own input panel
            charge_spmm(&mut st, ipw);
            let gemm = match input.arch {
                ArchKind::Gcn => 2 * rows * ipw * d_out,
                ArchKind::Sage => 4 * rows * ipw * d_out + rows * d_out,
            };
            add_compute(&mut st, model, gemm);
            add_allreduce(&mut st, model, 8 * rows * d_out, pc); // grid-row Z
            if l + 1 < l_total {
                add_compute(&mut st, model, rows * d_out); // relu
            }
        }
        // Loss reduction: [loss_sum, count, correct].
        add_allreduce(&mut st, model, 24, p);
        // Backward.
        for l in (0..l_total).rev() {
            let (d, d_out) = (dims[l] as u64, dims[l + 1] as u64);
            let ipw = panel_width(dims[l]);
            let opw = panel_width(dims[l + 1]);
            add_compute(&mut st, model, rows * opw); // own gradient panel
            charge_spmm(&mut st, opw);
            add_compute(&mut st, model, rows * opw); // reassemble AᵀG panel
            add_allreduce(&mut st, model, 8 * rows * d_out, pc); // grid-row AᵀG
            add_compute(&mut st, model, rows * ipw); // H panel slice
            let (y_flops, w_in) = match input.arch {
                ArchKind::Gcn => (2 * rows * ipw * d_out, d),
                ArchKind::Sage => (4 * rows * ipw * d_out, 2 * d),
            };
            add_compute(&mut st, model, y_flops);
            add_allreduce(&mut st, model, 8 * w_in * d_out, p); // weight grad
            if l > 0 {
                let prop = match input.arch {
                    ArchKind::Gcn => 2 * rows * d_out * d + 2 * rows * d,
                    ArchKind::Sage => 4 * rows * d_out * d + 3 * rows * d,
                };
                add_compute(&mut st, model, prop);
            }
        }
    }
    st
}

/// One rank's full training charges under the row-blocked (1D / 1.5D)
/// program of [`crate::dist::trainer`]: full-width SpMMs and GEMMs on
/// `rows` owned rows, global loss and weight-gradient all-reduces.
fn row_rank_charges(
    input: &AnalyticInput<'_>,
    rows: u64,
    p: usize,
    charge_spmm: impl Fn(&mut RankStats, u64),
) -> RankStats {
    let model = &input.model;
    let dims = input.dims;
    let l_total = dims.len() - 1;
    let mut st = RankStats::default();
    for _epoch in 0..input.epochs {
        // Forward.
        for l in 0..l_total {
            let (d, d_out) = (dims[l] as u64, dims[l + 1] as u64);
            charge_spmm(&mut st, d);
            let gemm = match input.arch {
                ArchKind::Gcn => 2 * rows * d * d_out,
                ArchKind::Sage => 4 * rows * d * d_out + rows * d_out,
            };
            add_compute(&mut st, model, gemm);
            if l + 1 < l_total {
                add_compute(&mut st, model, rows * d_out);
            }
        }
        // Loss reduction: [loss_sum, count, correct].
        add_allreduce(&mut st, model, 24, p);
        // Backward.
        for l in (0..l_total).rev() {
            let (d, d_out) = (dims[l] as u64, dims[l + 1] as u64);
            charge_spmm(&mut st, d_out);
            let (y_flops, w_in) = match input.arch {
                ArchKind::Gcn => (2 * rows * d * d_out, d),
                ArchKind::Sage => (4 * rows * d * d_out, 2 * d),
            };
            add_compute(&mut st, model, y_flops);
            add_allreduce(&mut st, model, 8 * w_in * d_out, p);
            if l > 0 {
                let prop = match input.arch {
                    ArchKind::Gcn => 2 * rows * d_out * d + 2 * rows * d,
                    ArchKind::Sage => 4 * rows * d_out * d + 3 * rows * d,
                };
                add_compute(&mut st, model, prop);
            }
        }
    }
    st
}

/// Estimates the full training stats (all epochs) without executing.
pub fn estimate(input: &AnalyticInput<'_>) -> WorldStats {
    let model = &input.model;
    let overlap = input.overlap;
    let (p, plan) = plan_for(input.adj, input.bounds, input.algo);
    let per_rank = (0..p)
        .map(|me| match &plan {
            PlanKind::OneD(pl) => {
                // Sparsity-derived chunking for the pipelined replay,
                // built once per rank exactly like the executor does.
                let aware = input.algo.aware();
                let ov = overlap
                    .enabled
                    .then(|| OverlapPlan1d::build(pl, me, overlap.chunks, aware));
                let charge = |st: &mut RankStats, f: u64| match (&ov, aware) {
                    (Some(ov), true) => spmm_1d_aware_pipelined_charges(pl, ov, me, f, model, st),
                    (Some(ov), false) => {
                        spmm_1d_oblivious_pipelined_charges(pl, ov, me, f, model, st)
                    }
                    (None, true) => spmm_1d_aware_charges(pl, me, f, model, st),
                    (None, false) => spmm_1d_oblivious_charges(pl, me, f, model, st),
                };
                row_rank_charges(input, pl.rows_of(me) as u64, p, charge)
            }
            PlanKind::Grid(pl) => {
                let charge = |st: &mut RankStats, f: u64| {
                    if overlap.enabled {
                        spmm_grid_pipelined_charges(pl, me, f, overlap.chunks, model, st)
                    } else {
                        spmm_grid_charges(pl, me, f, model, st)
                    }
                };
                if input.algo.paneled() {
                    grid_rank_charges(input, pl, me, charge)
                } else {
                    let rp = &pl.ranks[me];
                    row_rank_charges(input, (rp.row_hi - rp.row_lo) as u64, p, charge)
                }
            }
        })
        .collect();
    WorldStats::new(per_rank)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::plan::even_bounds;
    use gnn_comm::Phase;
    use spmat::gen::{rmat, RmatConfig};
    use spmat::graph::gcn_normalize;

    fn input_for<'a>(
        adj: &'a Csr,
        bounds: &'a [usize],
        algo: Algo,
        dims: &'a [usize],
    ) -> AnalyticInput<'a> {
        AnalyticInput {
            adj,
            bounds,
            algo,
            dims,
            model: CostModel::perlmutter_like(),
            epochs: 1,
            arch: crate::model::ArchKind::Gcn,
            overlap: OverlapConfig::off(),
        }
    }

    #[test]
    fn aware_estimates_less_comm_than_oblivious() {
        let adj = gcn_normalize(&rmat(RmatConfig::graph500(9, 6, 1)));
        let bounds = even_bounds(adj.rows(), 16);
        let dims = [32usize, 16, 8];
        let aware = estimate(&input_for(&adj, &bounds, Algo::OneD { aware: true }, &dims));
        let obliv = estimate(&input_for(
            &adj,
            &bounds,
            Algo::OneD { aware: false },
            &dims,
        ));
        assert!(
            aware.phase_recv_bytes_total(Phase::AllToAll)
                < obliv.phase_recv_bytes_total(Phase::Bcast)
        );
    }

    #[test]
    fn epochs_scale_linearly() {
        let adj = gcn_normalize(&rmat(RmatConfig::graph500(7, 6, 2)));
        let bounds = even_bounds(adj.rows(), 4);
        let dims = [8usize, 16, 4];
        let mut one = input_for(&adj, &bounds, Algo::OneD { aware: true }, &dims);
        let t1 = estimate(&one).modeled_epoch_time();
        one.epochs = 5;
        let t5 = estimate(&one).modeled_epoch_time();
        assert!((t5 - 5.0 * t1).abs() < 1e-12 * t5.max(1.0));
    }

    #[test]
    fn replication_shifts_cost_from_p2p_to_allreduce() {
        let adj = gcn_normalize(&rmat(RmatConfig::graph500(10, 6, 3)));
        let dims = [16usize, 16, 8];
        let b2 = even_bounds(adj.rows(), 16 / 2);
        let b4 = even_bounds(adj.rows(), 16 / 4);
        let c2 = estimate(&input_for(
            &adj,
            &b2,
            Algo::OneFiveD { aware: true, c: 2 },
            &dims,
        ));
        let c4 = estimate(&input_for(
            &adj,
            &b4,
            Algo::OneFiveD { aware: true, c: 4 },
            &dims,
        ));
        assert!(c4.phase_bytes_total(Phase::P2p) < c2.phase_bytes_total(Phase::P2p));
        assert!(c4.phase_time(Phase::AllReduce) > c2.phase_time(Phase::AllReduce));
    }

    #[test]
    fn overlapped_estimate_preserves_volumes_and_moves_time() {
        let adj = gcn_normalize(&rmat(RmatConfig::graph500(8, 6, 5)));
        let bounds = even_bounds(adj.rows(), 8);
        let dims = [16usize, 16, 8];
        for algo in [
            Algo::OneD { aware: true },
            Algo::OneD { aware: false },
            Algo::OneFiveD { aware: true, c: 2 },
        ] {
            let b15 = even_bounds(adj.rows(), 4);
            let b = if matches!(algo, Algo::OneFiveD { .. }) {
                &b15
            } else {
                &bounds
            };
            let base = estimate(&input_for(&adj, b, algo, &dims));
            let mut ov_in = input_for(&adj, b, algo, &dims);
            ov_in.overlap = OverlapConfig::on(3);
            let ov = estimate(&ov_in);
            // Logical volumes are untouched by pipelining.
            for ph in [Phase::AllToAll, Phase::Bcast, Phase::P2p] {
                assert_eq!(
                    ov.phase_bytes_total(ph),
                    base.phase_bytes_total(ph),
                    "{algo:?} {ph:?}"
                );
            }
            // Comm time moved off the natural phases onto Overlap.
            assert!(ov.phase_time(Phase::Overlap) > 0.0, "{algo:?}");
            assert!(
                ov.total_overlap_hidden_seconds() + ov.phase_time(Phase::Overlap) > 0.0,
                "{algo:?}"
            );
            // exposed + hidden reconcile with the raw comm charged.
            for rs in &ov.per_rank {
                let raw = rs.overlap.raw_comm_seconds;
                let split = rs.overlap_exposed_seconds() + rs.overlap_hidden_seconds();
                assert!((raw - split).abs() <= 1e-12 * raw.max(1.0));
            }
        }
    }

    #[test]
    fn overlapped_oblivious_estimate_never_slower() {
        let adj = gcn_normalize(&rmat(RmatConfig::graph500(8, 6, 6)));
        let bounds = even_bounds(adj.rows(), 8);
        let dims = [16usize, 16, 8];
        let base = estimate(&input_for(
            &adj,
            &bounds,
            Algo::OneD { aware: false },
            &dims,
        ));
        for k in [1, 2, 4, 8] {
            let mut ov_in = input_for(&adj, &bounds, Algo::OneD { aware: false }, &dims);
            ov_in.overlap = OverlapConfig::on(k);
            let ov = estimate(&ov_in);
            assert!(
                ov.modeled_epoch_time() <= base.modeled_epoch_time() + 1e-12,
                "chunks={k}"
            );
        }
    }

    #[test]
    fn single_rank_has_no_communication_time() {
        let adj = gcn_normalize(&rmat(RmatConfig::graph500(6, 6, 4)));
        let bounds = even_bounds(adj.rows(), 1);
        let dims = [8usize, 4];
        let st = estimate(&input_for(&adj, &bounds, Algo::OneD { aware: true }, &dims));
        assert_eq!(st.phase_time(Phase::AllToAll), 0.0);
        assert!(st.phase_time(Phase::LocalCompute) > 0.0);
    }
}
