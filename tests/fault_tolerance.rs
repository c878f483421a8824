//! End-to-end robustness: injected faults, deadlock detection, and
//! elastic restart, exercised through the public API exactly the way
//! the `train` binary drives it.
//!
//! The headline scenario is the paper-reproduction guarantee under
//! failure: crash a rank at epoch k, restart from the last checkpoint,
//! and land on the *bit-identical* loss trajectory and final weights of
//! a fault-free run — deterministic replicated state makes recovery
//! exact, not approximate.

use std::sync::Arc;
use std::time::{Duration, Instant};

use gnn_comm::msg::Payload;
use gnn_comm::{CostModel, FaultInjector, FaultPlan, ThreadWorld, WorldError};
use gnn_core::dist::{even_bounds, spmm_1d, spmm_grid, GridPlan};
use gnn_core::model::ArchKind;
use gnn_core::{
    train_distributed, try_train_distributed, Algo, DistConfig, GcnConfig, LayerOrder,
    RobustnessConfig,
};
use spmat::dataset::{amazon_scaled, reddit_scaled};
use spmat::spmm::spmm;
use spmat::Dense;

fn quick_world(p: usize) -> ThreadWorld {
    ThreadWorld::new(p, CostModel::bandwidth_only()).with_timeout(Duration::from_millis(300))
}

/// Runs a deliberately broken protocol and demands a deadlock report
/// within a few multiples of the watchdog timeout.
fn expect_deadlock<F>(p: usize, f: F) -> gnn_comm::DeadlockReport
where
    F: Fn(&mut gnn_comm::RankCtx) + Sync,
{
    let t0 = Instant::now();
    let err = quick_world(p).try_run(|ctx| f(ctx)).unwrap_err();
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "hang was not cut short: took {:?}",
        t0.elapsed()
    );
    match err {
        WorldError::Deadlock(report) => report,
        other => panic!("expected a deadlock report, got: {other}"),
    }
}

// ---- deadlock watchdog: every mismatched protocol terminates ----

#[test]
fn deadlock_mutual_recv_names_both_ranks() {
    let report = expect_deadlock(2, |ctx| {
        let peer = 1 - ctx.rank();
        ctx.recv(peer);
    });
    assert!(report.names(0) && report.names(1), "{report}");
    let r0 = report.blocked.iter().find(|b| b.rank == 0).unwrap();
    assert_eq!(r0.waiting_on, Some(1));
}

#[test]
fn deadlock_recv_from_wrong_peer() {
    // Rank 0 and 1 exchange; rank 2 waits on rank 0, which never sends
    // to it. Ranks 0 and 1 finish their protocol and stay resident past
    // the watchdog (an exiting peer would be flagged as a hang-up
    // instead); only rank 2 must be in the report.
    let report = expect_deadlock(3, |ctx| match ctx.rank() {
        0 => {
            ctx.send(1, Payload::F64(vec![1.0]));
            ctx.recv(1);
            std::thread::sleep(Duration::from_millis(700));
        }
        1 => {
            ctx.send(0, Payload::F64(vec![2.0]));
            ctx.recv(0);
            std::thread::sleep(Duration::from_millis(700));
        }
        _ => {
            ctx.recv(0);
        }
    });
    assert!(report.names(2), "{report}");
    assert!(!report.names(0) && !report.names(1), "{report}");
}

#[test]
fn deadlock_missing_barrier_party() {
    let report = expect_deadlock(4, |ctx| {
        if ctx.rank() != 3 {
            ctx.barrier();
        }
    });
    assert_eq!(report.blocked_ranks(), vec![0, 1, 2], "{report}");
}

#[test]
fn deadlock_absent_bcast_root() {
    // Non-root ranks wait for a broadcast the root never performs; the
    // root stays alive (busy elsewhere) so this is a hang, not a death.
    let report = expect_deadlock(3, |ctx| {
        if ctx.rank() != 0 {
            ctx.bcast(0, None);
        } else {
            std::thread::sleep(Duration::from_millis(700));
        }
    });
    assert!(report.names(1) && report.names(2), "{report}");
    for b in &report.blocked {
        assert_eq!(b.waiting_on, Some(0), "{report}");
    }
}

#[test]
fn deadlock_report_is_displayable_and_bounded() {
    let report = expect_deadlock(2, |ctx| {
        if ctx.rank() == 0 {
            ctx.barrier();
        } else {
            // Keep rank 1 alive past the watchdog so its channels stay
            // open and rank 0 times out inside the barrier.
            std::thread::sleep(Duration::from_millis(700));
        }
    });
    let text = report.to_string();
    assert!(text.contains("rank 0"), "{text}");
    assert!(text.contains("barrier"), "{text}");
    assert!(report.timeout >= Duration::from_millis(300));
}

// ---- elastic restart: the acceptance-criteria demo ----

/// Recovery replays whatever program the clean run ran: both layer
/// orders, both architectures (SAGE's narrow-first backward reads `S`
/// where its aggregate-first one pops a kept `ÂH`).
fn programs() -> impl Iterator<Item = (ArchKind, LayerOrder)> {
    let orders = [LayerOrder::AggregateFirst, LayerOrder::NarrowSide];
    [ArchKind::Gcn, ArchKind::Sage]
        .into_iter()
        .flat_map(move |arch| orders.map(|order| (arch, order)))
}

#[test]
fn crash_at_epoch_k_restores_and_matches_fault_free_bit_for_bit() {
    let ds = reddit_scaled(7, 31);
    let bounds = even_bounds(ds.n(), 4);
    let epochs = 6;

    for (arch, order) in programs() {
        let mut gcn = GcnConfig::paper_default(ds.f(), ds.num_classes);
        gcn.arch = arch;
        let mut clean_cfg = DistConfig::new(
            Algo::OneD { aware: true },
            gcn,
            epochs,
            CostModel::perlmutter_like(),
        );
        clean_cfg.order = order;
        let clean = train_distributed(&ds, &bounds, &clean_cfg);

        // Crash rank 3 at epoch 4; checkpoints every 2 epochs → resume
        // replays epochs 4..6 from the epoch-4 snapshot.
        let mut faulty_cfg = clean_cfg.clone();
        faulty_cfg.robust = RobustnessConfig {
            faults: Some(FaultPlan::new(7).crash_at(3, 4, 0)),
            checkpoint_every: 2,
            max_restarts: 1,
            timeout: Duration::from_secs(15),
        };
        let recovered = try_train_distributed(&ds, &bounds, &faulty_cfg)
            .expect("one restart budget covers one injected crash");

        assert_eq!(recovered.restarts, 1);
        assert_eq!(recovered.records.len(), clean.records.len());
        for (e, (a, b)) in recovered.records.iter().zip(&clean.records).enumerate() {
            assert_eq!(
                a.loss.to_bits(),
                b.loss.to_bits(),
                "{arch:?} {order:?}: epoch {e} loss diverged"
            );
            assert_eq!(
                a.train_accuracy.to_bits(),
                b.train_accuracy.to_bits(),
                "{arch:?} {order:?}: epoch {e} accuracy diverged"
            );
        }
        assert_eq!(recovered.weights.max_abs_diff(&clean.weights), 0.0);
    }
}

#[test]
fn crash_without_checkpoints_still_recovers_from_scratch() {
    // checkpoint_every = 0: the restart restores nothing and replays
    // from epoch 0 — slower, still exact.
    let ds = reddit_scaled(6, 32);
    let gcn = GcnConfig::paper_default(ds.f(), ds.num_classes);
    let bounds = even_bounds(ds.n(), 2);

    let clean_cfg = DistConfig::new(
        Algo::OneD { aware: false },
        gcn,
        3,
        CostModel::perlmutter_like(),
    );
    let clean = train_distributed(&ds, &bounds, &clean_cfg);

    let mut faulty_cfg = clean_cfg.clone();
    faulty_cfg.robust.faults = Some(FaultPlan::new(0).crash_at(1, 1, 0));
    faulty_cfg.robust.max_restarts = 1;
    faulty_cfg.robust.timeout = Duration::from_secs(15);
    let recovered = try_train_distributed(&ds, &bounds, &faulty_cfg).expect("recovers");
    assert_eq!(recovered.restarts, 1);
    assert_eq!(recovered.weights.max_abs_diff(&clean.weights), 0.0);
}

#[test]
fn exhausted_restart_budget_surfaces_the_crash() {
    let ds = reddit_scaled(6, 33);
    let gcn = GcnConfig::paper_default(ds.f(), ds.num_classes);
    let bounds = even_bounds(ds.n(), 2);
    let mut cfg = DistConfig::new(
        Algo::OneD { aware: true },
        gcn,
        4,
        CostModel::perlmutter_like(),
    );
    // Two distinct crash faults but budget for only one restart.
    cfg.robust.faults = Some(FaultPlan::new(0).crash_at(0, 1, 0).crash_at(1, 2, 0));
    cfg.robust.checkpoint_every = 1;
    cfg.robust.max_restarts = 1;
    cfg.robust.timeout = Duration::from_secs(15);
    let err = try_train_distributed(&ds, &bounds, &cfg).unwrap_err();
    match err {
        WorldError::InjectedCrash { rank, epoch, .. } => {
            assert_eq!(rank, 1, "second crash should be the fatal one");
            assert_eq!(epoch, Some(2));
        }
        other => panic!("expected InjectedCrash, got {other}"),
    }
}

#[test]
fn two_crashes_survive_with_two_restarts() {
    let ds = reddit_scaled(6, 34);
    let gcn = GcnConfig::paper_default(ds.f(), ds.num_classes);
    let bounds = even_bounds(ds.n(), 2);
    let clean_cfg = DistConfig::new(
        Algo::OneD { aware: true },
        gcn,
        4,
        CostModel::perlmutter_like(),
    );
    let clean = train_distributed(&ds, &bounds, &clean_cfg);

    let mut cfg = clean_cfg.clone();
    cfg.robust.faults = Some(FaultPlan::new(0).crash_at(0, 1, 0).crash_at(1, 2, 0));
    cfg.robust.checkpoint_every = 1;
    cfg.robust.max_restarts = 2;
    cfg.robust.timeout = Duration::from_secs(15);
    let out = try_train_distributed(&ds, &bounds, &cfg).expect("two restarts suffice");
    assert_eq!(out.restarts, 2);
    assert_eq!(out.weights.max_abs_diff(&clean.weights), 0.0);
}

// ---- link faults: transparent retry, visible accounting ----

#[test]
fn heavy_link_faults_leave_training_results_untouched() {
    let ds = amazon_scaled(7, 35);
    let gcn = GcnConfig::paper_default(ds.f(), ds.num_classes);
    let bounds = even_bounds(ds.n(), 4);
    let clean_cfg = DistConfig::new(
        Algo::OneFiveD { aware: true, c: 2 },
        gcn,
        3,
        CostModel::perlmutter_like(),
    );
    let clean = train_distributed(&ds, &bounds, &clean_cfg);

    let mut plan = FaultPlan::new(17);
    for rank in 0..8 {
        plan = plan
            .drop_messages(rank, None, 0.15)
            .corrupt_messages(rank, None, 0.15);
    }
    let mut faulty_cfg = clean_cfg.clone();
    faulty_cfg.robust.faults = Some(plan);
    faulty_cfg.robust.timeout = Duration::from_secs(15);
    let faulty = train_distributed(&ds, &bounds, &faulty_cfg);

    assert_eq!(faulty.restarts, 0, "link faults never need a restart");
    for (a, b) in faulty.records.iter().zip(&clean.records) {
        assert_eq!(a.loss.to_bits(), b.loss.to_bits());
    }
    assert_eq!(faulty.weights.max_abs_diff(&clean.weights), 0.0);
    // The degradation is visible in the stats, and priced.
    assert!(faulty.stats.total_retries() > 0);
    assert!(faulty.stats.total_injected_faults() > 0);
    assert!(faulty.stats.modeled_epoch_time() > clean.stats.modeled_epoch_time());
    // Logical communication volumes are unchanged by retransmission.
    for (fr, cr) in faulty.stats.per_rank.iter().zip(&clean.stats.per_rank) {
        assert_eq!(fr.bytes_sent_total(), cr.bytes_sent_total());
    }
}

// ---- fault-injection smoke matrix: every algorithm × every fault ----
//
// The injector lives in the transport layer, so every distributed SpMM
// (1D, 1.5D, 2D, 3D) inherits retransmission and crash semantics
// without algorithm-specific code. These smoke tests pin that down per
// algorithm: link faults are absorbed exactly (bit-identical results,
// visible retries) and a crash surfaces as a structured error.

/// Which distributed SpMM a smoke test drives.
#[derive(Clone, Copy)]
enum SmokeAlgo {
    OneD,
    OneFiveD,
    TwoD,
    ThreeD,
}

/// Runs one SpMM of `algo` over a seeded graph under `faults` and
/// returns the assembled result and world stats.
fn smoke_spmm(
    algo: SmokeAlgo,
    faults: Option<FaultPlan>,
) -> Result<(Dense, gnn_comm::WorldStats), WorldError> {
    let ds = reddit_scaled(6, 77);
    let h = &ds.features;
    let f = h.cols();
    let n = ds.n();
    let world_of = |p: usize| {
        let mut w =
            ThreadWorld::new(p, CostModel::perlmutter_like()).with_timeout(Duration::from_secs(10));
        if let Some(plan) = faults.clone() {
            w = w.with_injector(Arc::new(FaultInjector::new(plan)));
        }
        w
    };
    match algo {
        SmokeAlgo::OneD => {
            let bounds = even_bounds(n, 4);
            let plan = GridPlan::oned(&ds.norm_adj, &bounds, true);
            let (blocks, stats) = world_of(4).try_run(|ctx| {
                ctx.set_epoch(0);
                let rp = &plan.ranks[ctx.rank()];
                let local = h.row_slice(rp.row_lo, rp.row_hi);
                spmm_1d(ctx, &plan, &local)
            })?;
            Ok((vstack(&blocks), stats))
        }
        SmokeAlgo::OneFiveD => {
            let bounds = even_bounds(n, 2); // pr = 2, c = 2 → p = 4
            let plan = GridPlan::onefived(&ds.norm_adj, 4, 2, &bounds, true);
            let (blocks, stats) = world_of(4).try_run(|ctx| {
                ctx.set_epoch(0);
                let rp = &plan.ranks[ctx.rank()];
                let local = h.row_slice(rp.row_lo, rp.row_hi);
                spmm_grid(ctx, &plan, &local)
            })?;
            // One replica per block row reassembles the full product.
            Ok((vstack(&[blocks[0].clone(), blocks[2].clone()]), stats))
        }
        SmokeAlgo::TwoD => {
            let bounds = even_bounds(n, 2); // 2 × 2 grid
            let plan = GridPlan::twod(&ds.norm_adj, 2, 2, &bounds, true);
            let pb = plan.panel_bounds(f);
            let (blocks, stats) = world_of(4).try_run(|ctx| {
                ctx.set_epoch(0);
                let rp = &plan.ranks[ctx.rank()];
                let rows = h.row_slice(rp.row_lo, rp.row_hi);
                let local = Dense::from_fn(rows.rows(), pb[rp.j + 1] - pb[rp.j], |r, c| {
                    rows.get(r, pb[rp.j] + c)
                });
                spmm_grid(ctx, &plan, &local)
            })?;
            let mut out = Dense::zeros(n, f);
            for i in 0..plan.pr {
                for j in 0..plan.pc {
                    let b = &blocks[plan.rank_of(i, j, 0)];
                    for r in 0..b.rows() {
                        for c in 0..b.cols() {
                            out.set(plan.bounds[i] + r, pb[j] + c, b.get(r, c));
                        }
                    }
                }
            }
            Ok((out, stats))
        }
        SmokeAlgo::ThreeD => {
            let bounds = even_bounds(n, 2); // pr = 2, pc = 1, c = 2 → p = 4
            let plan = GridPlan::threed(&ds.norm_adj, 2, 1, 2, &bounds, true);
            let (blocks, stats) = world_of(4).try_run(|ctx| {
                ctx.set_epoch(0);
                let rp = &plan.ranks[ctx.rank()];
                let local = h.row_slice(rp.row_lo, rp.row_hi);
                spmm_grid(ctx, &plan, &local)
            })?;
            // pc = 1 → full-width panels; layer 0's fiber-reduced blocks
            // reassemble the whole product.
            Ok((
                vstack(&[
                    blocks[plan.rank_of(0, 0, 0)].clone(),
                    blocks[plan.rank_of(1, 0, 0)].clone(),
                ]),
                stats,
            ))
        }
    }
}

fn vstack(blocks: &[Dense]) -> Dense {
    let cols = blocks[0].cols();
    let rows = blocks.iter().map(Dense::rows).sum();
    let mut out = Dense::zeros(rows, cols);
    let mut r0 = 0;
    for b in blocks {
        for r in 0..b.rows() {
            out.row_mut(r0 + r).copy_from_slice(b.row(r));
        }
        r0 += b.rows();
    }
    out
}

fn link_fault_smoke(algo: SmokeAlgo, plan: FaultPlan) {
    let ds = reddit_scaled(6, 77);
    let expected = spmm(&ds.norm_adj, &ds.features);
    let (clean, _) = smoke_spmm(algo, None).expect("fault-free run");
    assert!(clean.approx_eq(&expected, 1e-11), "clean result wrong");
    let (faulty, stats) = smoke_spmm(algo, Some(plan)).expect("link faults recover in place");
    // Bit-identical to the fault-free execution: retransmission is
    // invisible to the numerics.
    assert_eq!(faulty.data().len(), clean.data().len());
    for (a, b) in faulty.data().iter().zip(clean.data()) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    assert!(stats.total_retries() > 0, "faults must actually fire");
    assert!(stats.total_retransmit_bytes() > 0);
}

fn all_senders_faulty(f: impl Fn(FaultPlan, usize) -> FaultPlan) -> FaultPlan {
    let mut plan = FaultPlan::new(23);
    for rank in 0..4 {
        plan = f(plan, rank);
    }
    plan
}

#[test]
fn smoke_1d_drop() {
    link_fault_smoke(
        SmokeAlgo::OneD,
        all_senders_faulty(|p, r| p.drop_messages(r, None, 0.3)),
    );
}

#[test]
fn smoke_1d_corrupt() {
    link_fault_smoke(
        SmokeAlgo::OneD,
        all_senders_faulty(|p, r| p.corrupt_messages(r, None, 0.3)),
    );
}

#[test]
fn smoke_15d_drop() {
    link_fault_smoke(
        SmokeAlgo::OneFiveD,
        all_senders_faulty(|p, r| p.drop_messages(r, None, 0.3)),
    );
}

#[test]
fn smoke_15d_corrupt() {
    link_fault_smoke(
        SmokeAlgo::OneFiveD,
        all_senders_faulty(|p, r| p.corrupt_messages(r, None, 0.3)),
    );
}

#[test]
fn smoke_2d_drop() {
    link_fault_smoke(
        SmokeAlgo::TwoD,
        all_senders_faulty(|p, r| p.drop_messages(r, None, 0.3)),
    );
}

#[test]
fn smoke_2d_corrupt() {
    link_fault_smoke(
        SmokeAlgo::TwoD,
        all_senders_faulty(|p, r| p.corrupt_messages(r, None, 0.3)),
    );
}

fn crash_smoke(algo: SmokeAlgo) {
    let err = smoke_spmm(algo, Some(FaultPlan::new(0).crash_at(1, 0, 2)))
        .expect_err("a crashed rank must fail the world");
    match err {
        WorldError::InjectedCrash { rank, epoch, .. } => {
            assert_eq!(rank, 1);
            assert_eq!(epoch, Some(0));
        }
        other => panic!("expected InjectedCrash, got {other}"),
    }
}

#[test]
fn smoke_3d_drop() {
    link_fault_smoke(
        SmokeAlgo::ThreeD,
        all_senders_faulty(|p, r| p.drop_messages(r, None, 0.3)),
    );
}

#[test]
fn smoke_3d_corrupt() {
    link_fault_smoke(
        SmokeAlgo::ThreeD,
        all_senders_faulty(|p, r| p.corrupt_messages(r, None, 0.3)),
    );
}

#[test]
fn smoke_1d_crash() {
    crash_smoke(SmokeAlgo::OneD);
}

#[test]
fn smoke_15d_crash() {
    crash_smoke(SmokeAlgo::OneFiveD);
}

#[test]
fn smoke_2d_crash() {
    crash_smoke(SmokeAlgo::TwoD);
}

#[test]
fn smoke_3d_crash() {
    crash_smoke(SmokeAlgo::ThreeD);
}

// ---- grid trainer recovery: 2D-SA and 3D crash → checkpoint restart ----

/// Crash a rank mid-training under each grid algorithm and demand the
/// checkpoint-restart ladder reproduce the fault-free run bit for bit —
/// the same guarantee the 1D/1.5D paths already carry.
fn grid_crash_recovers(algo: Algo, label: &str) {
    let ds = reddit_scaled(7, 38);
    let gcn = GcnConfig::paper_default(ds.f(), ds.num_classes);
    let bounds = even_bounds(ds.n(), 2); // pr = 2 → p = 4 for both grids
    let epochs = 5;
    let clean_cfg = DistConfig::new(algo, gcn, epochs, CostModel::perlmutter_like());
    let clean = train_distributed(&ds, &bounds, &clean_cfg);

    let mut faulty_cfg = clean_cfg.clone();
    faulty_cfg.robust = RobustnessConfig {
        faults: Some(FaultPlan::new(11).crash_at(2, 3, 0)),
        checkpoint_every: 2,
        max_restarts: 1,
        timeout: Duration::from_secs(15),
    };
    let recovered = try_train_distributed(&ds, &bounds, &faulty_cfg)
        .unwrap_or_else(|e| panic!("{label}: restart must recover the run: {e}"));
    assert_eq!(recovered.restarts, 1, "{label}: exactly one restart");
    assert_eq!(recovered.records.len(), clean.records.len());
    for (e, (a, b)) in recovered.records.iter().zip(&clean.records).enumerate() {
        assert_eq!(
            a.loss.to_bits(),
            b.loss.to_bits(),
            "{label}: epoch {e} loss"
        );
        assert_eq!(
            a.train_accuracy.to_bits(),
            b.train_accuracy.to_bits(),
            "{label}: epoch {e} accuracy"
        );
    }
    assert_eq!(
        recovered.weights.max_abs_diff(&clean.weights),
        0.0,
        "{label}: recovery must be bit-identical"
    );
}

#[test]
fn two_d_sa_crash_recovers_bit_identical() {
    grid_crash_recovers(Algo::TwoD { aware: true, pc: 2 }, "2D-SA");
}

#[test]
fn three_d_crash_recovers_bit_identical() {
    grid_crash_recovers(
        Algo::ThreeD {
            aware: true,
            pc: 1,
            c: 2,
        },
        "3D",
    );
}

// ---- 1.5D recovery: the replicated layout restarts like any other ----

#[test]
fn onefived_crash_mid_training_restarts_bit_for_bit() {
    let ds = amazon_scaled(8, 41);
    let gcn = GcnConfig::paper_default(ds.f(), ds.num_classes);
    let bounds = even_bounds(ds.n(), 4); // pr = 4, c = 2 → p = 8
    let epochs = 6;
    for (arch, order) in programs() {
        let mut clean_cfg = DistConfig::new(
            Algo::OneFiveD { aware: true, c: 2 },
            gcn.clone(),
            epochs,
            CostModel::perlmutter_like(),
        );
        clean_cfg.gcn.arch = arch;
        clean_cfg.order = order;
        let clean = train_distributed(&ds, &bounds, &clean_cfg);

        // Rank 5 = grid position (2, 1) dies at op 7 of epoch 3; the
        // world restarts from the epoch-2 checkpoint.
        let mut faulty_cfg = clean_cfg.clone();
        faulty_cfg.robust = RobustnessConfig {
            faults: Some(FaultPlan::new(13).crash_at(5, 3, 7)),
            checkpoint_every: 2,
            max_restarts: 1,
            timeout: Duration::from_secs(15),
        };
        let recovered = try_train_distributed(&ds, &bounds, &faulty_cfg)
            .expect("one restart covers a single rank crash");

        let label = format!("{arch:?} {order:?}");
        assert_eq!(recovered.restarts, 1, "{label}: one world restart");
        assert_eq!(recovered.resume_points, vec![2], "{label}");
        assert_eq!(recovered.records.len(), clean.records.len());
        for (e, (a, b)) in recovered.records.iter().zip(&clean.records).enumerate() {
            assert_eq!(
                a.loss.to_bits(),
                b.loss.to_bits(),
                "{label}: epoch {e} loss"
            );
            assert_eq!(
                a.train_accuracy.to_bits(),
                b.train_accuracy.to_bits(),
                "{label}: epoch {e} accuracy"
            );
        }
        assert_eq!(
            recovered.weights.max_abs_diff(&clean.weights),
            0.0,
            "{label}: final weights must be bit-identical to the fault-free run"
        );
    }
}

// ---- wire-byte reconciliation: stats vs trace validator ----

#[test]
fn wire_bytes_reconcile_between_stats_and_trace_validator() {
    let ds = reddit_scaled(7, 37);
    let gcn = GcnConfig::paper_default(ds.f(), ds.num_classes);
    let bounds = even_bounds(ds.n(), 4);
    let mut plan = FaultPlan::new(29);
    for rank in 0..4 {
        plan = plan
            .drop_messages(rank, None, 0.2)
            .corrupt_messages(rank, None, 0.1);
    }
    let mut cfg = DistConfig::new(
        Algo::OneD { aware: true },
        gcn,
        2,
        CostModel::perlmutter_like(),
    );
    cfg.trace = true;
    cfg.robust.faults = Some(plan);
    cfg.robust.timeout = Duration::from_secs(15);
    let out = train_distributed(&ds, &bounds, &cfg);
    assert!(out.stats.total_retransmit_bytes() > 0, "faults must fire");

    let trace = out.trace.expect("trace was requested");
    let summary =
        gnn_comm::trace::validate_jsonl(&gnn_comm::trace::jsonl_string(&trace)).expect("valid");
    // The validator's independent accounting (logical + retransmit
    // overhead) must agree with the runtime counters to the byte.
    assert_eq!(
        summary.logical_bytes_sent,
        out.stats
            .per_rank
            .iter()
            .map(|r| r.bytes_sent_total())
            .sum::<u64>(),
        "logical volumes disagree"
    );
    assert_eq!(
        summary.logical_bytes_sent + summary.retransmit_wire_bytes,
        out.stats.total_wire_bytes_sent(),
        "wire-byte totals disagree"
    );
}

#[test]
fn slow_rank_shows_up_as_the_bottleneck() {
    let ds = reddit_scaled(6, 36);
    let gcn = GcnConfig::paper_default(ds.f(), ds.num_classes);
    let bounds = even_bounds(ds.n(), 2);
    let mut cfg = DistConfig::new(
        Algo::OneD { aware: true },
        gcn,
        2,
        CostModel::perlmutter_like(),
    );
    cfg.robust.faults = Some(FaultPlan::new(0).slow_compute(1, 8.0));
    cfg.robust.timeout = Duration::from_secs(15);
    let out = train_distributed(&ds, &bounds, &cfg);
    let compute = |r: usize| {
        out.stats.per_rank[r]
            .phase(gnn_comm::Phase::LocalCompute)
            .modeled_seconds
    };
    assert!(
        compute(1) > 4.0 * compute(0),
        "straggler not slowed: {} vs {}",
        compute(1),
        compute(0)
    );
    assert!(out.stats.per_rank[1].faults.slowed_ops > 0);
}
