//! The payload loop is closed on every plan shape.
//!
//! A payload vector is packed on one rank and folded on another, so it is
//! owned by the world that moves it (`gnn_comm::PayloadPool`), and only
//! activations stay per rank (`EpochBuffers`). Once both have seen every
//! size, an epoch takes exactly what it gives back: read with every rank
//! idle, the world pool's and every rank's `(pooled, fresh_allocs)` repeat
//! from epoch 3 on — on 1D, where sends and receives are symmetric per
//! rank, and on the grid shapes, where only the designated-sender replica
//! ships (per-rank payload pools there read senders `(15,30)…(15,140)`,
//! receivers `(27,18)…(135,20)` over the same ten epochs).

use gnn_comm::CostModel;
use gnn_core::dist::trainer::pool_trajectory;
use gnn_core::dist::{even_bounds, spmm_1d_buf, spmm_grid_buf, EpochBuffers, GridPlan};
use gnn_core::model::ArchKind;
use gnn_core::{Algo, DistConfig, GcnConfig, LayerOrder};
use spmat::dataset::amazon_scaled;
use spmat::Dense;

const EPOCHS: usize = 10;

/// `(label, algorithm, block rows)` of the shapes under test.
fn shapes() -> Vec<(&'static str, Algo, usize)> {
    let aware = true;
    vec![
        ("1D p=2", Algo::OneD { aware }, 2),
        ("1.5D p=4 c=2", Algo::OneFiveD { aware, c: 2 }, 2),
        ("2D 2x2", Algo::TwoD { aware, pc: 2 }, 2),
        ("3D 2x2x2", Algo::ThreeD { aware, pc: 2, c: 2 }, 2),
    ]
}

#[test]
fn trainer_pools_are_flat_in_steady_state_on_every_shape() {
    let ds = amazon_scaled(8, 5);
    let orders = [LayerOrder::AggregateFirst, LayerOrder::NarrowSide];
    for (arch, order) in [ArchKind::Gcn, ArchKind::Sage]
        .into_iter()
        .flat_map(|arch| orders.map(|order| (arch, order)))
    {
        let mut gcn = GcnConfig::paper_default(ds.f(), ds.num_classes);
        gcn.arch = arch;
        for (label, algo, block_rows) in shapes() {
            let bounds = even_bounds(ds.n(), block_rows);
            let mut cfg = DistConfig::new(algo, gcn.clone(), EPOCHS, CostModel::perlmutter_like());
            cfg.order = order;
            let per_rank = pool_trajectory(&ds, &bounds, &cfg);
            for (rank, after) in per_rank.iter().enumerate() {
                assert_eq!(after.len(), EPOCHS);
                assert!(
                    after[2..].iter().all(|counters| *counters == after[2]),
                    "{arch:?} {order:?} {label} rank {rank}: [world, rank] \
                     (pooled, fresh) per epoch {after:?}"
                );
                // Payloads did go through the world's pool: on this
                // graph only a 300-wide exchange is big enough to be
                // pooled, and only the paper's order has one.
                if order == LayerOrder::AggregateFirst {
                    assert!(after[2][0].0 > 0, "{label}: the world pool is empty");
                }
            }
        }
    }
}

#[test]
fn narrow_layers_double_buffer_without_a_late_allocation() {
    // Big enough that the 16- and 24-wide exchanges are pooled too: four
    // of a size an epoch, where a sender can be one exchange ahead of its
    // receiver. The spare a miss provisions must make that invisible.
    let ds = amazon_scaled(11, 5);
    let gcn = GcnConfig::paper_default(ds.f(), ds.num_classes);
    for (label, algo, block_rows) in shapes().into_iter().take(2) {
        let bounds = even_bounds(ds.n(), block_rows);
        let cfg = DistConfig::new(algo, gcn.clone(), 6, CostModel::perlmutter_like());
        for (rank, after) in pool_trajectory(&ds, &bounds, &cfg).iter().enumerate() {
            assert!(
                after[2..].iter().all(|counters| *counters == after[2]),
                "{label} rank {rank}: [world, rank] (pooled, fresh) per epoch {after:?}"
            );
        }
    }
}

#[test]
fn executors_recycle_every_buffer_on_every_shape() {
    // Below the trainer: received payloads become SpMM operands as they
    // are and go back to the world's pool; sends are packed out of it.
    // Once both pools have seen every size, no call may allocate.
    // Wide enough that a block of rows is worth pooling (≥ 64 KiB).
    let ds = amazon_scaled(9, 17);
    let (adj, f) = (&ds.norm_adj, 160);
    let h = Dense::from_fn(adj.rows(), f, |r, c| ((r * 31 + c * 7) % 13) as f64 - 6.0);
    let (warm_up, steady) = (6, 6);
    let plans = [
        GridPlan::oned(adj, &even_bounds(adj.rows(), 3), true),
        GridPlan::onefived(adj, 4, 2, &even_bounds(adj.rows(), 2), true),
        GridPlan::twod(adj, 2, 2, &even_bounds(adj.rows(), 2), true),
        GridPlan::threed(adj, 2, 2, 2, &even_bounds(adj.rows(), 2), true),
    ];
    for plan in &plans {
        let oned = plan.pc * plan.c == 1 && plan.pr == plan.p();
        let world = gnn_comm::ThreadWorld::new(plan.p(), CostModel::perlmutter_like());
        let (fresh, _) = world.run(|ctx| {
            let rp = &plan.ranks[ctx.rank()];
            let pb = plan.panel_bounds(f);
            let (clo, chi) = (pb[rp.j], pb[rp.j + 1]);
            let local = Dense::from_fn(rp.rows(), chi - clo, |r, c| h.get(rp.row_lo + r, clo + c));
            let mut bufs = EpochBuffers::new();
            let mut call = || {
                let z = match oned {
                    true => spmm_1d_buf(ctx, plan, &local, &mut bufs),
                    false => spmm_grid_buf(ctx, plan, &local, &mut bufs),
                };
                bufs.put_dense(z);
                // Read with every rank idle: nothing in flight.
                ctx.barrier();
                let world = ctx.payload_pool();
                assert!(world.pooled() > 0, "payloads bypassed the pool");
                let now = (world.fresh_allocs(), bufs.fresh_allocs());
                ctx.barrier();
                now
            };
            let reads: Vec<_> = (0..warm_up + steady).map(|_| call()).collect();
            (reads[warm_up - 1], reads[warm_up + steady - 1])
        });
        for (rank, (warm, end)) in fresh.into_iter().enumerate() {
            assert_eq!(
                warm, end,
                "{:?}: rank {rank} allocated (world, rank)",
                plan.span
            );
        }
    }
}
