//! Recovery is quiet and bugs are loud with no panic hook installed by
//! the runtime: its own unwinds (injected crash, peer hang-up cascade)
//! never reach the process's panic hook, a rank's genuine `assert!`
//! failure still does.
//!
//! This file is its own test binary with a single `#[test]`, so the
//! counting hook sees no neighbour's panic.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use gnn_comm::{CostModel, FaultPlan, ThreadWorld, WorldError};
use gnn_core::dist::even_bounds;
use gnn_core::{try_train_distributed, Algo, DistConfig, GcnConfig, RobustnessConfig};
use spmat::dataset::amazon_scaled;

static HOOK_CALLS: AtomicUsize = AtomicUsize::new(0);

#[test]
fn runtime_unwinds_skip_the_panic_hook_and_real_panics_do_not() {
    std::panic::set_hook(Box::new(|_| {
        HOOK_CALLS.fetch_add(1, Ordering::SeqCst);
    }));
    let ds = amazon_scaled(8, 41);
    let gcn = GcnConfig::paper_default(ds.f(), ds.num_classes);

    // The crash tears the world down (seven hang-up cascades behind it)
    // and the run restarts from a checkpoint.
    let bounds = even_bounds(ds.n(), 8);
    let algo = Algo::OneD { aware: true };
    let mut cfg = DistConfig::new(algo, gcn, 6, CostModel::perlmutter_like());
    cfg.robust = RobustnessConfig {
        faults: Some(FaultPlan::new(13).crash_at(5, 3, 7)),
        checkpoint_every: 2,
        max_restarts: 1,
        timeout: Duration::from_secs(15),
    };
    let restart = try_train_distributed(&ds, &bounds, &cfg);
    let calls_restart = HOOK_CALLS.load(Ordering::SeqCst);

    // A bug in a rank closure is reported once, by the hook, and is
    // the classified root cause; the peer it strands is not.
    let bug = ThreadWorld::new(2, CostModel::bandwidth_only()).try_run(|ctx| {
        assert_ne!(ctx.rank(), 1, "deliberate");
        ctx.recv(1);
    });
    let calls_bug = HOOK_CALLS.load(Ordering::SeqCst);

    // Back to the default hook before anything here may fail.
    let _ = std::panic::take_hook();
    let out = restart.expect("one restart covers the crash");
    assert_eq!(out.restarts, 1);
    match bug.unwrap_err() {
        WorldError::Panicked { rank: 1, message } => assert!(message.contains("deliberate")),
        other => panic!("expected rank 1's assert, got {other}"),
    }
    assert_eq!((calls_restart, calls_bug), (0, 1));
}
