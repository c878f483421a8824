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
use spmat::gen::sbm::block_bounds;
use spmat::Csr;

use crate::dist::grid::{GridPlan, RankPlan, Stage};
use crate::dist::trainer::plan_for;
use crate::dist::{Algo, LayerOrder};
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
    /// Read by nothing: kept, with the fieldless [`OverlapConfig`], so
    /// callers that still name it compile; ROADMAP item 1(b) deletes both.
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

/// Rows laid out and flops multiplied by folding the run `stages` at
/// width `f` (mirrors `fold_run` of [`crate::dist::oned`]).
fn fold_run_charges(stages: &[Stage], f: u64, model: &CostModel, st: &mut RankStats) {
    let rows: u64 = stages.iter().map(|s| s.needed.len() as u64).sum();
    let nnz: u64 = stages.iter().map(|s| s.block_compact.nnz() as u64).sum();
    add_compute(st, model, rows * f);
    add_compute(st, model, 2 * nnz * f);
}

/// Elements the sparsity-aware 1D sender packs, and the gather's charge.
fn pack_sends_charges(rp: &RankPlan, f: u64, model: &CostModel, st: &mut RankStats) {
    let rows: u64 = rp.sends.iter().map(|(_, idx)| idx.len() as u64).sum();
    add_compute(st, model, rows * f);
}

/// One broadcast of `stage`'s whole block as rank `me` counts it.
fn bcast_charges(
    plan: &GridPlan,
    me: usize,
    stage: &Stage,
    f: u64,
    model: &CostModel,
    st: &mut RankStats,
) {
    let bytes = 8 * stage.needed.len() as u64 * f;
    let c = st.phase_mut(Phase::Bcast);
    c.ops += 1;
    if stage.src_rank == me {
        c.bytes_sent += bytes;
    } else {
        c.bytes_recv += bytes;
    }
    c.modeled_seconds += model.bcast(bytes, plan.p());
}

/// One 1D SpMM's charges on rank `me` at width `f`: replays
/// [`crate::dist::oned::spmm_1d_buf`] — one all-to-allv of the needed
/// rows when sparsity-aware, `p` whole-block broadcasts otherwise.
fn spmm_1d_charges(plan: &GridPlan, me: usize, f: u64, model: &CostModel, st: &mut RankStats) {
    let rp = &plan.ranks[me];
    if plan.aware {
        pack_sends_charges(rp, f, model, st);
        let rows_bytes = |rows: usize| rows_payload_bytes(rows as u64, f);
        let sent = rp.sends.iter().map(|(_, idx)| rows_bytes(idx.len())).sum();
        let remote = rp.stages.iter().filter(|s| s.src_rank != me);
        let recv = remote.map(|s| rows_bytes(s.needed.len())).sum();
        let c = st.phase_mut(Phase::AllToAll);
        c.ops += 1;
        c.bytes_sent += sent;
        c.bytes_recv += recv;
        c.modeled_seconds += model.alltoallv(sent, recv, plan.p());
    } else {
        for stage in &rp.stages {
            bcast_charges(plan, me, stage, f, model, st);
        }
    }
    fold_run_charges(&rp.stages, f, model, st);
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

/// One grid SpMM's charges on linear rank `me` at panel width
/// `f`: replays [`crate::dist::grid::spmm_grid_buf`] — the designated
/// sender's shipments, the receive-or-gather/multiply stage loop, and
/// the trailing replica all-reduce (absent for the 2D shape).
fn spmm_grid_charges(plan: &GridPlan, me: usize, f: u64, model: &CostModel, st: &mut RankStats) {
    let rp = &plan.ranks[me];
    let rows_i = rp.rows() as u64;
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

/// One rank's full training charges: replays the epoch program of
/// [`crate::dist::trainer`] op-for-op — per layer the SpMM and the dense
/// step on `rows` owned rows, in the order [`LayerOrder::narrow_first`]
/// gives that layer; the global loss and weight-gradient all-reduces (`p`
/// ranks); the full-width local backward steps — with the same panel
/// hook: under the paneled (2D/3D) program the SpMM and GEMMs run at
/// panel width, an aggregate-first layer slices its own input panel in
/// and all-reduces the partial `Z` over the grid row (`pc` ranks) out,
/// and a narrow-first `Z` and every `AᵀG` are placed panel by panel and
/// summed over the grid row — and with the same replica split: under the
/// narrow order a replica group of `c > 1` charges each rank its slab of
/// layer 0's products against `H⁰` and one `c`-rank all-reduce per
/// product.
fn rank_charges(
    input: &AnalyticInput<'_>,
    order: LayerOrder,
    plan: &GridPlan,
    me: usize,
    charge_spmm: impl Fn(&mut RankStats, u64),
) -> RankStats {
    let model = &input.model;
    let dims = input.dims;
    let l_total = dims.len() - 1;
    let mut st = RankStats::default();
    let rp = &plan.ranks[me];
    let (rows, pc, p) = (rp.rows() as u64, plan.pc, plan.p());
    let paneled = input.algo.paneled();
    let sage = input.arch == ArchKind::Sage;
    let own_width = |f: usize| -> u64 {
        if !paneled {
            return f as u64;
        }
        let b = plan.panel_bounds(f);
        (b[rp.j + 1] - b[rp.j]) as u64
    };
    // Own panel placed at full width, then summed over the grid row.
    let place_out = |st: &mut RankStats, opw: u64, d_out: u64| {
        if paneled {
            add_compute(st, model, rows * opw);
            add_allreduce(st, model, 8 * rows * d_out, pc);
        }
    };
    // Layer 0's products against H⁰ split over the replica group (the
    // trainer's `ReplicaSlab`): this rank's slab of a `len`-row product,
    // or all of it.
    let group = rp.reduce_group.len();
    let split0 = order.narrow_first(dims, 0) && group > 1;
    let part = |l: usize, len: u64| -> u64 {
        if split0 && l == 0 {
            let b = block_bounds(len as usize, group);
            (b[rp.l + 1] - b[rp.l]) as u64
        } else {
            len
        }
    };
    let reassemble = |st: &mut RankStats, l: usize, len: u64, width: u64| {
        if split0 && l == 0 {
            add_allreduce(st, model, 8 * len * width, group);
        }
    };

    for _epoch in 0..input.epochs {
        // Forward.
        for l in 0..l_total {
            let (d, d_out) = (dims[l] as u64, dims[l + 1] as u64);
            if order.narrow_first(dims, l) {
                let opw = own_width(dims[l + 1]);
                let gemm = 2 * part(l, rows) * d * opw;
                add_compute(&mut st, model, gemm); // H·W column panel
                reassemble(&mut st, l, rows, opw);
                charge_spmm(&mut st, opw);
                if sage {
                    // Self term: the product, then the add.
                    if split0 && l == 0 {
                        add_compute(&mut st, model, gemm);
                        reassemble(&mut st, l, rows, opw);
                        add_compute(&mut st, model, rows * opw);
                    } else {
                        add_compute(&mut st, model, gemm + rows * opw);
                    }
                }
                place_out(&mut st, opw, d_out);
            } else {
                let ipw = own_width(dims[l]);
                if paneled {
                    add_compute(&mut st, model, rows * ipw); // own input panel
                }
                charge_spmm(&mut st, ipw);
                let gemm = match input.arch {
                    ArchKind::Gcn => 2 * rows * ipw * d_out,
                    ArchKind::Sage => 4 * rows * ipw * d_out + rows * d_out,
                };
                add_compute(&mut st, model, gemm);
                if paneled {
                    add_allreduce(&mut st, model, 8 * rows * d_out, pc); // grid-row Z
                }
            }
            if l + 1 < l_total {
                add_compute(&mut st, model, rows * d_out); // relu
            }
        }
        // Loss reduction: [loss_sum, count, correct].
        add_allreduce(&mut st, model, 24, p);
        // Backward.
        for l in (0..l_total).rev() {
            let (d, d_out) = (dims[l] as u64, dims[l + 1] as u64);
            let ipw = own_width(dims[l]);
            let opw = own_width(dims[l + 1]);
            // AᵀG is formed where somebody reads it: not at SAGE's layer
            // 0, unless that layer is narrow-first and takes ∂W from it.
            if l > 0 || !sage || order.narrow_first(dims, l) {
                if paneled {
                    add_compute(&mut st, model, rows * opw); // own gradient panel
                }
                charge_spmm(&mut st, opw);
                place_out(&mut st, opw, d_out);
            }
            if paneled {
                add_compute(&mut st, model, rows * ipw); // H panel slice
            }
            let gemm = 2 * rows * part(l, ipw) * d_out;
            let (products, w_in) = match input.arch {
                ArchKind::Gcn => (1, d),
                ArchKind::Sage => (2, 2 * d),
            };
            add_compute(&mut st, model, products * gemm);
            for _ in 0..products {
                reassemble(&mut st, l, ipw, d_out);
            }
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

/// Estimates the full training stats (all epochs) without executing, in
/// the layer order [`DistConfig::new`](crate::DistConfig::new) trains in.
pub fn estimate(input: &AnalyticInput<'_>) -> WorldStats {
    estimate_in_order(input, LayerOrder::default())
}

/// [`estimate`] for a run configured with `order`.
pub fn estimate_in_order(input: &AnalyticInput<'_>, order: LayerOrder) -> WorldStats {
    let model = &input.model;
    let plan = plan_for(input.adj, input.bounds, input.algo);
    let oned = matches!(input.algo, Algo::OneD { .. });
    let per_rank = (0..plan.p())
        .map(|me| {
            let charge = |st: &mut RankStats, f: u64| match oned {
                true => spmm_1d_charges(&plan, me, f, model, st),
                false => spmm_grid_charges(&plan, me, f, model, st),
            };
            rank_charges(input, order, &plan, me, charge)
        })
        .collect();
    WorldStats::new(per_rank)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::even_bounds;
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
    fn single_rank_has_no_communication_time() {
        let adj = gcn_normalize(&rmat(RmatConfig::graph500(6, 6, 4)));
        let bounds = even_bounds(adj.rows(), 1);
        let dims = [8usize, 4];
        let st = estimate(&input_for(&adj, &bounds, Algo::OneD { aware: true }, &dims));
        assert_eq!(st.phase_time(Phase::AllToAll), 0.0);
        assert!(st.phase_time(Phase::LocalCompute) > 0.0);
    }
}
