//! Degraded-mode failover for the 1.5D algorithm: surviving replicas
//! take over a dead rank's communication and compute duties so the epoch
//! completes without a world restart.
//!
//! The 1.5D layout replicates block row `i` of `H` (and `Aᵀ`) on the `c`
//! ranks of grid row `i`. When rank `d = (i, j)` dies, every byte it
//! would have sent and every partial it would have computed can be
//! reproduced bit-for-bit by any survivor in grid row `i` — they hold
//! identical data. [`FailoverView`] assigns each dead rank a *proxy*
//! (the lowest-ranked survivor in its grid row); the proxy then executes
//! the dead rank's *persona* inside [`spmm_15d_failover_buf`]: its
//! designated-sender shipments, its stage partials, and its slot in the
//! process-row all-reduce.
//!
//! Bit-identity with a fault-free run is preserved by folding all
//! reductions in the same slot order the fault-free
//! [`RankCtx::allreduce_sum`] uses (slot 0's value first, then `+=` each
//! later slot in rank order), with a dead slot's value supplied by its
//! proxy. For *row-replicated* quantities (loss sums, weight-gradient
//! partials) the proxy's own buffer already equals the dead rank's
//! bit-for-bit, which is what [`failover_allreduce_replicated`] exploits.
//!
//! Role assignment must be identical on every rank without
//! communication: the view is built from
//! [`RankCtx::sealed_dead_ranks`] — deaths sealed by the previous commit
//! barrier — never from the racy full registry. A death *during* the
//! current epoch attempt is handled by the transport layer's
//! abort/retry protocol instead, and shows up in the sealed set of the
//! next attempt.

use gnn_comm::msg::Payload;
use gnn_comm::{Phase, RankCtx};
use spmat::Dense;

use super::buffers::EpochBuffers;
use super::grid::{fold_stages, ship_blocks, GridPlan};

/// Deterministic role assignment for one epoch attempt: which ranks are
/// dead, and which survivor hosts each dead rank's persona.
#[derive(Clone, Debug)]
pub struct FailoverView {
    /// Sealed dead ranks, ascending.
    dead: Vec<usize>,
    /// `hosts[r]`: the rank that executes `r`'s duties — `r` itself when
    /// alive, its proxy (lowest survivor in `r`'s grid row) when dead.
    hosts: Vec<usize>,
}

impl FailoverView {
    /// Builds the view for the calling rank's current generation.
    ///
    /// Diverts to [`RankCtx::replica_column_lost`] (tearing the world
    /// down for a checkpoint restart) when an entire replica group is
    /// dead — no survivor holds that block row, so in-place recovery is
    /// impossible.
    pub fn compute(ctx: &mut RankCtx, plan: &GridPlan) -> FailoverView {
        match Self::from_dead(ctx.sealed_dead_ranks(), plan) {
            Ok(view) => view,
            Err(block_row) => ctx.replica_column_lost(block_row),
        }
    }

    /// Pure role assignment from an explicit dead set: each dead rank's
    /// proxy is the first survivor of its replica group in `plan`.
    /// `Err(block_row)` means every replica of `block_row` is dead.
    pub fn from_dead(mut dead: Vec<usize>, plan: &GridPlan) -> Result<FailoverView, usize> {
        dead.sort_unstable();
        dead.dedup();
        let mut hosts: Vec<usize> = (0..plan.p()).collect();
        for &d in &dead {
            let rp = &plan.ranks[d];
            match rp.reduce_group.iter().find(|r| !dead.contains(r)) {
                Some(&proxy) => hosts[d] = proxy,
                None => return Err(rp.i),
            }
        }
        Ok(FailoverView { dead, hosts })
    }

    /// Whether any rank is dead (the degraded collectives are needed).
    pub fn is_degraded(&self) -> bool {
        !self.dead.is_empty()
    }

    /// Whether `r` is alive.
    pub fn alive(&self, r: usize) -> bool {
        self.hosts[r] == r
    }

    /// The rank executing `r`'s duties (`r` itself when alive).
    pub fn host_of(&self, r: usize) -> usize {
        self.hosts[r]
    }

    /// Lowest-ranked survivor (root of degraded global collectives).
    pub fn lowest_alive(&self) -> usize {
        (0..self.hosts.len())
            .find(|&r| self.alive(r))
            .expect("a failover view always has at least one survivor")
    }

    /// Logical ranks whose duties `host` executes this attempt, in
    /// ascending rank order: itself plus every dead rank it proxies.
    pub fn personas_of(&self, host: usize) -> Vec<usize> {
        (0..self.hosts.len())
            .filter(|&r| self.hosts[r] == host)
            .collect()
    }

    /// The sealed dead set, ascending.
    pub fn dead(&self) -> &[usize] {
        &self.dead
    }
}

/// Degraded-mode 1.5D SpMM: like [`super::grid::spmm_grid_buf`], but
/// the calling rank executes every persona assigned to it by `view` —
/// shipping dead designated-senders' row data from its own (identical)
/// `H` block, computing their stage partials, and folding their slots
/// into the process-row all-reduce. Produces the same `Zᵢ` bits a
/// fault-free run would.
pub fn spmm_15d_failover_buf(
    ctx: &mut RankCtx,
    plan: &GridPlan,
    view: &FailoverView,
    h_local: &Dense,
    bufs: &mut EpochBuffers,
) -> Dense {
    let me = ctx.rank();
    let rp_me = &plan.ranks[me];
    assert_eq!(
        h_local.rows(),
        rp_me.row_hi - rp_me.row_lo,
        "local H block shape mismatch"
    );
    let personas = view.personas_of(me);
    let route = |r: usize| view.host_of(r);
    ctx.span_begin(plan.span, Phase::P2p);

    // Phase 1: designated-sender shipments, for every persona. All of
    // this host's personas share grid row `i`, so at most one of them is
    // row `i`'s designated sender, and the data it ships is packed from
    // the host's own replicated block. A destination hosted *here* would
    // be a same-grid-row persona, which the plan never ships to.
    for &persona in &personas {
        ship_blocks(ctx, plan, &plan.ranks[persona], h_local, route);
    }

    // Phase 2: each persona's stage loop, producing one partial per
    // persona. Receives are redirected to the effective host of each
    // logical source; per (host, host) channel at most one frame is in
    // flight per SpMM, so ordering is unambiguous.
    let partials: Vec<Dense> = personas
        .iter()
        .map(|&persona| fold_stages(ctx, &plan.ranks[persona], h_local, bufs, route))
        .collect();

    // Phase 3: process-row all-reduce with dead slots folded from their
    // proxies' persona partials, in fault-free slot order.
    let z = failover_row_allreduce(ctx, view, &rp_me.reduce_group, &personas, partials, bufs);
    ctx.span_end();
    z
}

/// Sums per-persona partials across the replica group `row_ranks`,
/// reproducing the fault-free all-reduce fold bit-for-bit: slot 0's value
/// first, then `+=` each later slot in group order. The root is the
/// first survivor in the group — which is exactly the host of every dead
/// persona in it, so it holds the dead slots' partials locally.
fn failover_row_allreduce(
    ctx: &mut RankCtx,
    view: &FailoverView,
    row_ranks: &[usize],
    personas: &[usize],
    partials: Vec<Dense>,
    bufs: &mut EpochBuffers,
) -> Dense {
    let me = ctx.rank();
    let root = *row_ranks
        .iter()
        .find(|&&r| view.alive(r))
        .expect("view guarantees a survivor per replica group");

    if me == root {
        let mut mine = personas.iter().zip(partials);
        let mut acc: Option<Dense> = None;
        for &r in row_ranks {
            if view.host_of(r) == me {
                let (persona, part) = mine.next().expect("persona partial exhausted");
                debug_assert_eq!(*persona, r, "persona order mismatch");
                match acc.as_mut() {
                    None => acc = Some(part),
                    Some(a) => {
                        ctx.compute(part.data().len() as u64, || a.add_assign(&part));
                        bufs.put_dense(part);
                    }
                }
            } else {
                // `r` is alive (its host is not me) and not me. Slot 0
                // is always locally hosted — either rank (row, 0) is
                // alive and *is* the root, or its proxy is — so the
                // accumulator is in place here.
                let data = ctx.recv(r).into_f64();
                let a = acc.as_mut().expect("slot 0 is always locally hosted");
                let part = Dense::from_vec(a.rows(), a.cols(), data);
                ctx.compute(part.data().len() as u64, || a.add_assign(&part));
                ctx.recycle(r, Payload::F64(part.into_vec()));
            }
        }
        let acc = acc.expect("row group is never empty");
        for &r in row_ranks {
            if r != me && view.alive(r) {
                let summed = ctx.pooled_f64(acc.data());
                ctx.send(r, summed);
            }
        }
        acc
    } else {
        // Non-root hosts carry exactly one persona: themselves.
        debug_assert_eq!(personas, [me]);
        let mut it = partials.into_iter();
        let mut part = it.next().expect("own partial");
        debug_assert!(it.next().is_none());
        let up = ctx.pooled_f64(part.data());
        ctx.send(root, up);
        let summed = ctx.recv(root).into_f64();
        assert_eq!(
            summed.len(),
            part.data().len(),
            "row allreduce length mismatch"
        );
        part.data_mut().copy_from_slice(&summed);
        ctx.recycle(root, Payload::F64(summed));
        part
    }
}

/// Degraded-mode replacement for a whole-world
/// `ctx.allreduce_sum(buf, &(0..p))` over **row-replicated** values:
/// every rank in a grid row contributes bit-identical bytes (loss sums
/// and weight-gradient partials are functions of the replicated block
/// row), so a dead slot's contribution is its proxy's own buffer. The
/// fold runs in fault-free slot order (slot 0 first, then `+=` slots
/// `1..p`), making the result bit-identical to a fault-free run.
pub fn failover_allreduce_replicated(ctx: &mut RankCtx, view: &FailoverView, buf: &mut [f64]) {
    let me = ctx.rank();
    let p = ctx.p();
    let root = view.lowest_alive();
    if me == root {
        let mut received: Vec<Option<Vec<f64>>> = vec![None; p];
        for (r, slot) in received.iter_mut().enumerate() {
            if r != me && view.alive(r) {
                let data = ctx.recv(r).into_f64();
                assert_eq!(data.len(), buf.len(), "allreduce length mismatch");
                *slot = Some(data);
            }
        }
        let own: Vec<f64> = buf.to_vec();
        let mut first = true;
        for r in 0..p {
            let host = view.host_of(r);
            let v: &[f64] = if host == me {
                &own
            } else {
                received[host]
                    .as_deref()
                    .expect("alive host sent its buffer")
            };
            if first {
                buf.copy_from_slice(v);
                first = false;
            } else {
                for (a, b) in buf.iter_mut().zip(v) {
                    *a += b;
                }
            }
        }
        ctx.record_compute(((p - 1) * buf.len()) as u64);
        for (r, data) in received.into_iter().enumerate() {
            ctx.recycle(r, data.map_or(Payload::Empty, Payload::F64));
        }
        for r in 0..p {
            if r != me && view.alive(r) {
                let summed = ctx.pooled_f64(buf);
                ctx.send(r, summed);
            }
        }
    } else {
        let up = ctx.pooled_f64(buf);
        ctx.send(root, up);
        let summed = ctx.recv(root).into_f64();
        buf.copy_from_slice(&summed);
        ctx.recycle(root, Payload::F64(summed));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::even_bounds;
    use crate::dist::grid::{spmm_grid, spmm_grid_buf};
    use gnn_comm::{CostModel, EpochAbortPanic, FaultInjector, FaultPlan, ThreadWorld};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use spmat::gen::{rmat, RmatConfig};
    use spmat::graph::gcn_normalize;
    use spmat::spmm::spmm;
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    use std::sync::Arc;
    use std::time::Duration;

    fn setup(scale: u32, seed: u64, f: usize) -> (spmat::Csr, Dense) {
        let adj = gcn_normalize(&rmat(RmatConfig::graph500(scale, 5, seed)));
        let mut rng = StdRng::seed_from_u64(seed ^ 7);
        let h = Dense::glorot(adj.rows(), f, &mut rng);
        (adj, h)
    }

    /// One "epoch" under the failover protocol: run `body` until an
    /// attempt commits (retrying after `EpochAbortPanic`s caused by
    /// mid-attempt deaths).
    fn commit_loop<R>(
        ctx: &mut RankCtx,
        plan: &GridPlan,
        mut body: impl FnMut(&mut RankCtx, &FailoverView) -> R,
    ) -> R {
        loop {
            ctx.set_epoch(0);
            let attempt = catch_unwind(AssertUnwindSafe(|| {
                let view = FailoverView::compute(ctx, plan);
                body(ctx, &view)
            }));
            match attempt {
                Ok(r) => {
                    if ctx.commit_epoch() {
                        return r;
                    }
                }
                Err(e) => {
                    if !e.is::<EpochAbortPanic>() {
                        resume_unwind(e);
                    }
                    assert!(!ctx.commit_epoch(), "aborted attempt must not commit");
                }
            }
        }
    }

    #[test]
    fn view_assigns_lowest_alive_proxy() {
        // p=8, c=2: grid rows {0:[0,1], 1:[2,3], 2:[4,5], 3:[6,7]}.
        let (adj, _) = setup(5, 1, 1);
        let plan = GridPlan::onefived(&adj, 8, 2, &even_bounds(adj.rows(), 4), true);
        let v = FailoverView::from_dead(vec![3], &plan).unwrap();
        assert!(v.is_degraded());
        assert!(v.alive(2) && !v.alive(3));
        assert_eq!(v.host_of(3), 2);
        assert_eq!(v.personas_of(2), vec![2, 3]);
        assert_eq!(v.personas_of(0), vec![0]);
        assert_eq!(v.lowest_alive(), 0);
        assert_eq!(v.dead(), &[3]);

        // Rank 0 dead: the global root shifts to its row-mate.
        let v = FailoverView::from_dead(vec![0], &plan).unwrap();
        assert_eq!(v.host_of(0), 1);
        assert_eq!(v.lowest_alive(), 1);

        // A fault-free view is not degraded.
        assert!(!FailoverView::from_dead(vec![], &plan)
            .unwrap()
            .is_degraded());

        // Whole replica group dead → unrecoverable in place.
        assert_eq!(FailoverView::from_dead(vec![2, 3], &plan).unwrap_err(), 1);
    }

    #[test]
    fn degraded_spmm_matches_fault_free_bits() {
        // p=8, c=2, pr=4, s=2. Rank 2 = (1, 0) is row 1's designated
        // sender — killing it exercises proxy takeover of send duties,
        // stage partials, and the row-allreduce root shift.
        let (adj, h) = setup(6, 11, 4);
        let (p, c, pr) = (8usize, 2usize, 4usize);
        let bounds = even_bounds(adj.rows(), pr);
        for aware in [true, false] {
            let plan = GridPlan::onefived(&adj, p, c, &bounds, aware);
            let expected = spmm(&adj, &h);

            // Fault-free baseline for bit-level comparison.
            let clean_world = ThreadWorld::new(p, CostModel::perlmutter_like());
            let (clean, _) = clean_world.run(|ctx| {
                let rp = &plan.ranks[ctx.rank()];
                let local = h.row_slice(rp.row_lo, rp.row_hi);
                spmm_grid(ctx, &plan, &local)
            });

            let injector = Arc::new(FaultInjector::new(FaultPlan::new(5).crash_at(2, 0, 0)));
            let world = ThreadWorld::new(p, CostModel::perlmutter_like())
                .with_timeout(Duration::from_secs(10))
                .with_injector(injector);
            let (outs, stats, trace) = world
                .try_run_failover(|ctx| {
                    let rp = &plan.ranks[ctx.rank()];
                    let local = h.row_slice(rp.row_lo, rp.row_hi);
                    let mut bufs = EpochBuffers::new();
                    commit_loop(ctx, &plan, |ctx, view| {
                        if view.is_degraded() {
                            spmm_15d_failover_buf(ctx, &plan, view, &local, &mut bufs)
                        } else {
                            spmm_grid_buf(ctx, &plan, &local, &mut bufs)
                        }
                    })
                })
                .unwrap();

            assert_eq!(stats.failovers, 1, "aware={aware}");
            assert!(trace.is_none(), "no whole-world trace after a death");
            assert!(outs[2].is_none(), "dead rank has no result");
            // Every survivor's block matches the fault-free run exactly.
            for (r, out) in outs.iter().enumerate() {
                if let Some(z) = out {
                    assert!(
                        z.approx_eq(&clean[r], 0.0),
                        "rank {r} diverged (aware={aware})"
                    );
                }
            }
            // And stacking one survivor per grid row reproduces Aᵀ·H.
            let col: Vec<&Dense> = (0..pr)
                .map(|i| {
                    (0..c)
                        .find_map(|j| outs[i * c + j].as_ref())
                        .expect("each row has a survivor")
                })
                .collect();
            assert!(Dense::vstack(&col).approx_eq(&expected, 1e-11));
        }
    }

    #[test]
    fn degraded_allreduce_matches_fault_free_fold() {
        // Row-replicated values: each rank contributes a function of its
        // grid row only, like the trainer's loss sums and weight grads.
        let (p, c, pr) = (8usize, 2usize, 4usize);
        let (adj, _) = setup(5, 3, 2);
        let bounds = even_bounds(adj.rows(), pr);
        let plan = GridPlan::onefived(&adj, p, c, &bounds, true);
        let value = |rank: usize| {
            let row = (rank / c) as f64;
            [row * 1.5 + 0.25, -row * 0.125, 3.0]
        };

        let clean_world = ThreadWorld::new(p, CostModel::perlmutter_like());
        let (clean, _) = clean_world.run(|ctx| {
            let mut buf = value(ctx.rank());
            let group: Vec<usize> = (0..p).collect();
            ctx.allreduce_sum(&mut buf, &group);
            buf
        });

        // Kill rank 4 = (2, 0): slot 4 must be folded from rank 5's buf.
        let injector = Arc::new(FaultInjector::new(FaultPlan::new(9).crash_at(4, 0, 0)));
        let world = ThreadWorld::new(p, CostModel::perlmutter_like())
            .with_timeout(Duration::from_secs(10))
            .with_injector(injector);
        let (outs, stats, _) = world
            .try_run_failover(|ctx| {
                commit_loop(ctx, &plan, |ctx, view| {
                    // Each attempt starts from the rank's own fresh
                    // contribution; an aborted attempt discards `b`.
                    let mut b = value(ctx.rank());
                    if view.is_degraded() {
                        failover_allreduce_replicated(ctx, view, &mut b);
                    } else {
                        let group: Vec<usize> = (0..p).collect();
                        ctx.allreduce_sum(&mut b, &group);
                    }
                    b
                })
            })
            .unwrap();

        assert_eq!(stats.failovers, 1);
        for (r, out) in outs.iter().enumerate() {
            if let Some(b) = out {
                for (i, (got, want)) in b.iter().zip(&clean[0]).enumerate() {
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "rank {r} slot {i}: {got} vs {want}"
                    );
                }
            }
        }
    }
}
