//! The SPMD GCN trainer: full forward/backward/SGD training where every
//! SpMM runs through one of the distributed algorithms (1D or a grid
//! shape, sparsity-oblivious or -aware, blocking or pipelined).
//!
//! Every rank holds its block of `H⁰`, labels and mask; weights are
//! replicated (deterministic seeded init) and kept consistent by
//! all-reducing the weight gradients, exactly as the paper's
//! formulation (§4.1 "W is fully-replicated").
//!
//! # Recovery ladder
//!
//! [`try_train_distributed`] wraps the epoch loop in a supervisor with
//! an escalating recovery ladder:
//!
//! 1. **Retransmit** — dropped/corrupted frames are re-sent by the
//!    transport layer in [`gnn_comm`]; invisible here beyond stats.
//! 2. **Replica failover** (1.5D with [`RobustnessConfig::failover`]) —
//!    a rank crash mid-epoch aborts the epoch attempt on every
//!    survivor; the dead rank's duties are reassigned to a same-row
//!    replica and the epoch re-runs *in the same world*, producing
//!    bit-identical results with no restart.
//! 3. **Checkpoint restart** — an unrecoverable-in-place loss (a whole
//!    replica group dead, or any crash without failover) tears the
//!    world down and resumes from the newest verified
//!    [`Checkpoint`] in the [`CheckpointStore`], up to
//!    `max_restarts` times.
//! 4. **Abort** — anything else (or an exhausted restart budget)
//!    surfaces as a structured [`WorldError`].
//!
//! Because weights are replicated and every epoch is deterministic,
//! every rung reproduces the fault-free loss trajectory and final
//! weights bit-for-bit.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use gnn_comm::{
    CostModel, EpochAbortPanic, FaultInjector, FaultPlan, OverlapConfig, Phase, RankCtx, SpanKind,
    ThreadWorld, WorldError, WorldStats, WorldTrace,
};
use spmat::dataset::Dataset;
use spmat::{Csr, Dense};

use crate::model::{softmax_cross_entropy_sums, ArchKind, GcnConfig, Weights};
use crate::optim::Optimizer;
use crate::reference::EpochRecord;

use super::buffers::EpochBuffers;
use super::checkpoint::{Checkpoint, CheckpointBackend, CheckpointStore};
use super::failover::{failover_allreduce_replicated, spmm_15d_failover_buf, FailoverView};
use super::grid::{spmm_grid_buf, GridPlan};
use super::oned::{spmm_1d_aware_buf, spmm_1d_oblivious_buf};
use super::overlap::{
    spmm_1d_aware_pipelined_buf, spmm_1d_oblivious_pipelined_buf, spmm_grid_pipelined_buf,
    OverlapPlan1d,
};
use super::plan::Plan1d;

/// Which distributed SpMM drives training.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algo {
    /// Block-row distribution over all `p` ranks.
    OneD {
        /// Sparsity-aware (all-to-allv of needed rows) vs oblivious
        /// (CAGNET-style broadcasts).
        aware: bool,
    },
    /// `p/c × c` grid with `c`-fold block-row replication.
    OneFiveD {
        /// Sparsity-aware vs oblivious block exchange.
        aware: bool,
        /// Replication factor.
        c: usize,
    },
    /// `pr × pc` SUMMA grid: block rows across grid rows, feature
    /// panels across grid columns.
    TwoD {
        /// Sparsity-aware vs oblivious stage exchange.
        aware: bool,
        /// Grid columns (feature panels); `pr` comes from the bounds.
        pc: usize,
    },
    /// `pr × pc × c` grid (2.5D-style): the 2D grid replicated over `c`
    /// layers, each folding a slice of the SUMMA stages.
    ThreeD {
        /// Sparsity-aware vs oblivious stage exchange.
        aware: bool,
        /// Grid columns (feature panels).
        pc: usize,
        /// Replication layers.
        c: usize,
    },
}

impl Algo {
    /// Replication degree (1 for 1D and 2D).
    pub fn replication(&self) -> usize {
        match *self {
            Algo::OneD { .. } | Algo::TwoD { .. } => 1,
            Algo::OneFiveD { c, .. } | Algo::ThreeD { c, .. } => c,
        }
    }

    /// Whether the trainer splits feature panels across grid columns (the
    /// 2D/3D epoch program) rather than keeping full-width rows.
    pub(crate) fn paneled(&self) -> bool {
        matches!(self, Algo::TwoD { .. } | Algo::ThreeD { .. })
    }

    /// Whether the variant ships only needed rows.
    pub fn aware(&self) -> bool {
        match *self {
            Algo::OneD { aware }
            | Algo::OneFiveD { aware, .. }
            | Algo::TwoD { aware, .. }
            | Algo::ThreeD { aware, .. } => aware,
        }
    }

    /// Figure-legend style label.
    pub fn label(&self) -> String {
        match *self {
            Algo::OneD { aware: false } => "1D oblivious (CAGNET)".into(),
            Algo::OneD { aware: true } => "1D sparsity-aware".into(),
            Algo::OneFiveD { aware: false, c } => format!("1.5D oblivious c={c}"),
            Algo::OneFiveD { aware: true, c } => format!("1.5D sparsity-aware c={c}"),
            Algo::TwoD { aware: false, pc } => format!("2D oblivious pc={pc}"),
            Algo::TwoD { aware: true, pc } => format!("2D sparsity-aware pc={pc}"),
            Algo::ThreeD {
                aware: false,
                pc,
                c,
            } => format!("3D oblivious pc={pc} c={c}"),
            Algo::ThreeD { aware: true, pc, c } => format!("3D sparsity-aware pc={pc} c={c}"),
        }
    }
}

/// Fault-tolerance knobs for a training run. The default is the
/// fault-free fast path: no injection, no checkpoints, no restarts.
#[derive(Clone, Debug)]
pub struct RobustnessConfig {
    /// Faults to inject (None = clean run).
    pub faults: Option<FaultPlan>,
    /// Snapshot training state every this many epochs (0 = never).
    /// A crash restarts from the newest snapshot, or from scratch.
    pub checkpoint_every: usize,
    /// How many recoverable failures to survive before giving up.
    pub max_restarts: usize,
    /// Deadlock-watchdog timeout for blocking communication.
    pub timeout: Duration,
    /// Degraded-mode failover (1.5D only): survive a rank crash
    /// *in place* by reassigning the dead rank's duties to a same-row
    /// replica, falling back to a checkpoint restart only when an
    /// entire replica group is lost. Ignored for algorithms without
    /// replication, which go straight to the restart ladder.
    pub failover: bool,
}

impl Default for RobustnessConfig {
    fn default() -> Self {
        Self {
            faults: None,
            checkpoint_every: 0,
            max_restarts: 0,
            timeout: ThreadWorld::DEFAULT_TIMEOUT,
            failover: false,
        }
    }
}

/// Training-run configuration.
#[derive(Clone, Debug)]
pub struct DistConfig {
    /// SpMM algorithm variant.
    pub algo: Algo,
    /// Model shape / learning rate / init seed.
    pub gcn: GcnConfig,
    /// Number of epochs.
    pub epochs: usize,
    /// Machine model pricing the run.
    pub model: CostModel,
    /// Fault injection / checkpointing / watchdog settings.
    pub robust: RobustnessConfig,
    /// Record a structured span/event trace of the run (epoch →
    /// forward/loss/backward → SpMM, plus every communication op).
    /// Off by default: steady-state epochs then do no tracing work.
    pub trace: bool,
    /// Comm/compute overlap: when enabled, every distributed SpMM runs
    /// its pipelined variant (remote fetches split into
    /// [`OverlapConfig::chunks`] stages, folded into the accumulation
    /// while later chunks are in flight). Results are bit-identical to
    /// the blocking schedule and logical volumes are unchanged; only
    /// the modeled time attribution moves (exposed comm lands in
    /// [`Phase::Overlap`]). Ignored by the degraded-mode failover path,
    /// which always runs its blocking schedule.
    pub overlap: OverlapConfig,
    /// Hostfile for the process backend: switches the rank mesh from
    /// Unix-domain sockets to TCP listeners at the listed `host[:port]`
    /// addresses (one line per rank; rank 0's port doubles as the
    /// rendezvous endpoint). `None` = single-machine UDS mesh. Ignored
    /// by the thread backend.
    pub hostfile: Option<std::path::PathBuf>,
    /// Deterministic network-chaos spec for the process backend (see
    /// `NetChaosPlan`): seeded per-link latency/bandwidth/partition/
    /// refusal rules, replayed bit-identically from the seed. `None` =
    /// no chaos. Ignored by the thread backend.
    pub net_chaos: Option<String>,
}

impl DistConfig {
    /// A fault-free configuration (the common case).
    pub fn new(algo: Algo, gcn: GcnConfig, epochs: usize, model: CostModel) -> Self {
        Self {
            algo,
            gcn,
            epochs,
            model,
            robust: RobustnessConfig::default(),
            trace: false,
            overlap: OverlapConfig::off(),
            hostfile: None,
            net_chaos: None,
        }
    }
}

/// Everything a distributed run produces.
#[derive(Clone, Debug)]
pub struct DistOutcome {
    /// Per-epoch loss/accuracy (identical on all ranks; rank 0's copy).
    pub records: Vec<EpochRecord>,
    /// Final weights (identical on all ranks; rank 0's copy).
    pub weights: Weights,
    /// Accumulated per-rank stats over all epochs (of the attempt that
    /// completed; epochs re-run after a restart are counted afresh).
    pub stats: WorldStats,
    /// How many times the world was torn down and resumed.
    pub restarts: usize,
    /// How many rank deaths were absorbed *in place* by degraded-mode
    /// failover in the attempt that completed (0 without
    /// [`RobustnessConfig::failover`]).
    pub failovers: u64,
    /// Structured trace of the completed attempt (when
    /// [`DistConfig::trace`] was set).
    pub trace: Option<WorldTrace>,
    /// The epoch each restart resumed from (one entry per restart:
    /// the checkpoint's cursor, or 0 for a from-scratch restart).
    pub resume_points: Vec<usize>,
}

pub(crate) enum PlanKind {
    OneD(Plan1d),
    Grid(GridPlan),
}

/// Derives the world size and builds the communication plan of `algo`
/// over `bounds` (shared by the trainers and the analytic replay).
pub(crate) fn plan_for(adj: &Csr, bounds: &[usize], algo: Algo) -> (usize, PlanKind) {
    let pr = bounds.len() - 1;
    let plan = match algo {
        Algo::OneD { .. } => return (pr, PlanKind::OneD(Plan1d::build(adj, bounds))),
        Algo::OneFiveD { aware, c } => GridPlan::onefived(adj, pr * c, c, bounds, aware),
        Algo::TwoD { aware, pc } => GridPlan::twod(adj, pr, pc, bounds, aware),
        Algo::ThreeD { aware, pc, c } => GridPlan::threed(adj, pr, pc, c, bounds, aware),
    };
    (plan.p(), PlanKind::Grid(plan))
}

/// [`plan_for`] `cfg`'s algorithm after checking the model shape against
/// the dataset (shared by the thread supervisor and the process-backend
/// child).
pub(crate) fn build_plan(ds: &Dataset, bounds: &[usize], cfg: &DistConfig) -> (usize, PlanKind) {
    assert_eq!(cfg.gcn.dims[0], ds.f(), "input width mismatch");
    assert_eq!(
        *cfg.gcn.dims.last().unwrap(),
        ds.num_classes,
        "class count mismatch"
    );
    plan_for(&ds.norm_adj, bounds, cfg.algo)
}

/// Trains a GCN on `ds` (already permuted so parts are contiguous).
///
/// `bounds` are the block-row boundaries: `p + 1` entries for 1D, or
/// `p/c + 1` entries for 1.5D (each block row is replicated on `c`
/// ranks). The world size is derived accordingly.
///
/// # Panics
/// Panics on shape mismatches (dims vs dataset), invalid grids, or any
/// unrecovered rank failure — use [`try_train_distributed`] to handle
/// failures as values.
pub fn train_distributed(ds: &Dataset, bounds: &[usize], cfg: &DistConfig) -> DistOutcome {
    try_train_distributed(ds, bounds, cfg)
        .unwrap_or_else(|e| panic!("distributed training failed: {e}"))
}

/// Like [`train_distributed`], but failures come back as structured
/// [`WorldError`]s, and recoverable ones (injected crashes) trigger up
/// to `cfg.robust.max_restarts` checkpoint-resume cycles first.
pub fn try_train_distributed(
    ds: &Dataset,
    bounds: &[usize],
    cfg: &DistConfig,
) -> Result<DistOutcome, WorldError> {
    let store: Mutex<CheckpointStore> = Mutex::new(CheckpointStore::new());
    try_train_distributed_with_store(ds, bounds, cfg, &store)
}

/// Like [`try_train_distributed`], but snapshots go through the given
/// [`CheckpointBackend`] — an in-memory ring for thread worlds, a
/// [`super::checkpoint::DiskCheckpointStore`] when the supervisor must
/// survive the death of whole rank processes, or a test double.
pub fn try_train_distributed_with_store(
    ds: &Dataset,
    bounds: &[usize],
    cfg: &DistConfig,
    store: &dyn CheckpointBackend,
) -> Result<DistOutcome, WorldError> {
    let (p, plan) = build_plan(ds, bounds, cfg);

    // One injector for the whole supervised run: a crash fault that
    // fired in attempt k must not re-fire in attempt k+1.
    let injector = cfg
        .robust
        .faults
        .as_ref()
        .filter(|plan| !plan.is_empty())
        .map(|plan| Arc::new(FaultInjector::new(plan.clone())));
    // Replication is what makes in-place failover possible; without it
    // the flag silently defers to the checkpoint-restart rung.
    let use_failover = cfg.robust.failover && matches!(cfg.algo, Algo::OneFiveD { .. });
    let mut restarts = 0;
    let mut resume_points = Vec::new();

    loop {
        let mut world = ThreadWorld::new(p, cfg.model)
            .with_timeout(cfg.robust.timeout)
            .with_tracing(cfg.trace)
            .with_failover(use_failover);
        if let Some(inj) = &injector {
            world = world.with_injector(inj.clone());
        }
        let run = if let (true, PlanKind::Grid(pl)) = (use_failover, &plan) {
            world
                .try_run_failover(|ctx| run_rank_failover(ctx, ds, cfg, pl, store))
                .map(|(results, stats, trace)| {
                    // Survivors hold identical replicated results; dead
                    // ranks' slots are `None`.
                    let (records, weights) = results
                        .into_iter()
                        .flatten()
                        .next()
                        .expect("a completed failover run has at least one survivor");
                    (records, weights, stats, trace)
                })
        } else {
            world
                .try_run_traced(|ctx| run_rank(ctx, ds, cfg, &plan, store))
                .map(|(mut results, stats, trace)| {
                    let (records, weights) = results.swap_remove(0);
                    (records, weights, stats, trace)
                })
        };
        match run {
            Ok((records, weights, stats, trace)) => {
                return Ok(DistOutcome {
                    records,
                    weights,
                    failovers: stats.failovers,
                    stats,
                    restarts,
                    trace,
                    resume_points,
                });
            }
            Err(e) if e.is_recoverable() && restarts < cfg.robust.max_restarts => {
                restarts += 1;
                resume_points.push(store.resume_epoch().unwrap_or(0));
            }
            Err(e) => return Err(e),
        }
    }
}

/// One rank's whole training program: restore from the shared
/// checkpoint (if any), run the remaining epochs, snapshot periodically.
pub(crate) fn run_rank(
    ctx: &mut RankCtx,
    ds: &Dataset,
    cfg: &DistConfig,
    plan: &PlanKind,
    store: &dyn CheckpointBackend,
) -> (Vec<EpochRecord>, Weights) {
    // The 2D/3D algorithms additionally split feature panels across grid
    // columns, which changes the dense-layer data flow; they get their
    // own epoch loop.
    if let (true, PlanKind::Grid(pl)) = (cfg.algo.paneled(), plan) {
        return run_rank_grid(ctx, ds, cfg, pl, store);
    }
    let aware = cfg.algo.aware();
    let c_rep = cfg.algo.replication() as f64;
    let all_group: Vec<usize> = (0..ctx.p()).collect();

    // Resolve this rank's block row.
    let (lo, hi) = match plan {
        PlanKind::OneD(pl) => (pl.bounds[ctx.rank()], pl.bounds[ctx.rank() + 1]),
        PlanKind::Grid(pl) => {
            let rp = &pl.ranks[ctx.rank()];
            (rp.row_lo, rp.row_hi)
        }
    };
    let rows = hi - lo;
    let labels = &ds.labels[lo..hi];
    let mask = &ds.train_mask[lo..hi];

    // Resume point: the checkpoint holds replicated state, so every
    // rank restores the identical (checksum-verified) snapshot without
    // communicating.
    let (start_epoch, mut weights, mut optimizer, mut records) = match store.restore() {
        Some(ck) => (ck.next_epoch, ck.weights, ck.optimizer, ck.records),
        None => (
            0,
            Weights::init(&cfg.gcn),
            Optimizer::from_config(&cfg.gcn),
            Vec::with_capacity(cfg.epochs),
        ),
    };
    let l_total = cfg.gcn.layers();
    let dims = &cfg.gcn.dims;

    // Per-rank scratch: every O(n·f) temporary of the epoch loop —
    // activations, SpMM accumulators, send/recv staging — cycles through
    // this pool, so steady-state epochs stay off the allocator.
    let mut bufs = EpochBuffers::new();

    // Sparsity-derived chunking for the pipelined 1D variants, built
    // once per rank and reused by every SpMM of every epoch.
    let overlap = cfg.overlap;
    let ov_plan: Option<OverlapPlan1d> = match plan {
        PlanKind::OneD(pl) if overlap.enabled => {
            Some(OverlapPlan1d::build(pl, ctx.rank(), overlap.chunks, aware))
        }
        _ => None,
    };

    let dist_spmm = |ctx: &mut RankCtx, h: &Dense, bufs: &mut EpochBuffers| -> Dense {
        match plan {
            PlanKind::OneD(pl) => match &ov_plan {
                Some(ov) if aware => spmm_1d_aware_pipelined_buf(ctx, pl, h, ov, bufs),
                Some(ov) => spmm_1d_oblivious_pipelined_buf(ctx, pl, h, ov, bufs),
                None if aware => spmm_1d_aware_buf(ctx, pl, h, bufs),
                None => spmm_1d_oblivious_buf(ctx, pl, h, bufs),
            },
            PlanKind::Grid(pl) => grid_spmm(ctx, pl, h, overlap, bufs),
        }
    };

    // Layer stacks, reused across epochs (drained into `bufs` at the end
    // of each epoch, repopulated from it at the start of the next).
    // `hs[0]` is H⁰, this rank's one owned block of input features: it
    // stays in place for the whole run, read-only, neither copied per
    // epoch nor retired to the pool.
    let mut hs: Vec<Dense> = Vec::with_capacity(l_total + 1);
    hs.push(ds.features.row_slice(lo, hi));
    let mut zs: Vec<Dense> = Vec::with_capacity(l_total);
    let mut ahs: Vec<Dense> = Vec::with_capacity(l_total);
    let mut grads: Vec<Dense> = Vec::with_capacity(l_total);

    for epoch in start_epoch..cfg.epochs {
        ctx.set_epoch(epoch);
        ctx.span_begin(SpanKind::Epoch, Phase::Other);
        // ---- forward ----
        ctx.span_begin(SpanKind::Forward, Phase::Other);
        for l in 0..l_total {
            let ah = dist_spmm(ctx, &hs[l], &mut bufs);
            let w = &weights.mats[l];
            let (d, d_out) = (dims[l], dims[l + 1]);
            let mut z = bufs.take_dense(rows, d_out);
            match cfg.gcn.arch {
                ArchKind::Gcn => {
                    ctx.compute((2 * rows * d * d_out) as u64, || ah.matmul_into(w, &mut z))
                }
                ArchKind::Sage => {
                    let h_prev = &hs[l];
                    let mut tmp = bufs.take_dense(rows, d_out);
                    ctx.compute((4 * rows * d * d_out + rows * d_out) as u64, || {
                        h_prev.matmul_into(&w.row_slice(0, d), &mut z);
                        ah.matmul_into(&w.row_slice(d, 2 * d), &mut tmp);
                        z.add_assign(&tmp);
                    });
                    bufs.put_dense(tmp);
                }
            }
            let mut h = bufs.take_dense(rows, d_out);
            if l + 1 == l_total {
                h.data_mut().copy_from_slice(z.data());
            } else {
                ctx.compute((rows * dims[l + 1]) as u64, || z.relu_into(&mut h));
            }
            zs.push(z);
            hs.push(h);
            ahs.push(ah);
        }
        ctx.span_end();

        // ---- loss / metrics ----
        let (record, g_count, grad_sum) =
            loss_and_metrics(ctx, &hs[l_total], labels, mask, |ctx, sums| {
                ctx.allreduce_sum(sums, &all_group)
            });
        records.push(record);

        // ---- backward ----
        ctx.span_begin(SpanKind::Backward, Phase::Other);
        // True (unreplicated) masked count normalizes the gradient.
        let denom = (g_count / c_rep).max(1.0);
        let mut g = grad_sum;
        g.scale(1.0 / denom);

        for l in (0..l_total).rev() {
            let s = dist_spmm(ctx, &g, &mut bufs);
            let h_prev = &hs[l];
            let (d, d_out) = (dims[l], dims[l + 1]);
            let mut y = match cfg.gcn.arch {
                ArchKind::Gcn => {
                    let mut y = bufs.take_dense(d, d_out);
                    ctx.compute((2 * rows * d * d_out) as u64, || {
                        h_prev.transpose_matmul_into(&s, &mut y)
                    });
                    y
                }
                ArchKind::Sage => {
                    let ah = &ahs[l];
                    let g_ref = &g;
                    let mut top = bufs.take_dense(d, d_out);
                    let mut bottom = bufs.take_dense(d, d_out);
                    ctx.compute((4 * rows * d * d_out) as u64, || {
                        h_prev.transpose_matmul_into(g_ref, &mut top);
                        ah.transpose_matmul_into(g_ref, &mut bottom);
                    });
                    let mut y = bufs.take_dense(2 * d, d_out);
                    y.data_mut()[..d * d_out].copy_from_slice(top.data());
                    y.data_mut()[d * d_out..].copy_from_slice(bottom.data());
                    bufs.put_dense(top);
                    bufs.put_dense(bottom);
                    y
                }
            };
            ctx.allreduce_sum(y.data_mut(), &all_group);
            // Replicated rows contributed c times each.
            y.scale(1.0 / c_rep);
            grads.push(y); // reverse layer order; fixed up below
            if l > 0 {
                let (w, prev_z) = (&weights.mats[l], &zs[l - 1]);
                propagate_gradient(ctx, cfg.gcn.arch, w, prev_z, &s, &mut g, &mut bufs);
            }
            bufs.put_dense(s);
        }
        grads.reverse();
        optimizer.step(&mut weights, &grads);
        ctx.span_end();

        // ---- retire epoch temporaries ----
        bufs.put_dense(g);
        for d in hs.drain(1..).chain(zs.drain(..)).chain(ahs.drain(..)) {
            bufs.put_dense(d);
        }
        for d in grads.drain(..) {
            bufs.put_dense(d);
        }

        // ---- checkpoint ----
        // End-of-epoch state is consistent: rank 0 could only get here
        // by completing every collective of this epoch, and the state
        // it snapshots is replicated on all ranks. The store checksums
        // the snapshot and keeps the previous one as a verified
        // fallback.
        let every = cfg.robust.checkpoint_every;
        if ctx.rank() == 0 && every > 0 && (epoch + 1) % every == 0 {
            store.save(Checkpoint {
                next_epoch: epoch + 1,
                weights: weights.clone(),
                optimizer: optimizer.clone(),
                records: records.clone(),
            });
        }
        ctx.span_end(); // epoch
    }
    (records, weights)
}

/// The loss / metrics step of one epoch: local masked cross-entropy
/// sums, the `[loss, count, correct]` reduction over all ranks through
/// `reduce`, and the epoch's record. Returns the record, the global
/// (replication-inflated) masked count, and the local logit gradient sum.
fn loss_and_metrics(
    ctx: &mut RankCtx,
    logits: &Dense,
    labels: &[u32],
    mask: &[bool],
    reduce: impl FnOnce(&mut RankCtx, &mut [f64]),
) -> (EpochRecord, f64, Dense) {
    ctx.span_begin(SpanKind::Loss, Phase::Other);
    let (loss_sum, count, grad_sum) = softmax_cross_entropy_sums(logits, labels, mask);
    let correct = crate::model::accuracy(logits, labels, mask) * count as f64;
    let mut sums = [loss_sum, count as f64, correct];
    reduce(ctx, &mut sums);
    let [g_loss, g_count, g_correct] = sums;
    let record = EpochRecord {
        loss: g_loss / g_count.max(1.0),
        train_accuracy: if g_count > 0.0 {
            g_correct / g_count
        } else {
            0.0
        },
    };
    ctx.span_end();
    (record, g_count, grad_sum)
}

/// Propagates the layer gradient one layer down, in place:
/// `G ← (S·Wᵀ) ⊙ relu'(Z_prev)` for GCN, with the extra self term
/// `G·W_selfᵀ` for SAGE. `s` is `AᵀG`; all operands are full-width.
fn propagate_gradient(
    ctx: &mut RankCtx,
    arch: ArchKind,
    w: &Dense,
    prev_z: &Dense,
    s: &Dense,
    g: &mut Dense,
    bufs: &mut EpochBuffers,
) {
    let (rows, d, d_out) = (prev_z.rows(), prev_z.cols(), s.cols());
    let mut gg = bufs.take_dense(rows, d);
    let mut tmp = bufs.take_dense(rows, d);
    match arch {
        ArchKind::Gcn => ctx.compute((2 * rows * d_out * d + 2 * rows * d) as u64, || {
            s.matmul_transpose_into(w, &mut gg);
            prev_z.relu_prime_into(&mut tmp);
            gg.hadamard_assign(&tmp);
        }),
        ArchKind::Sage => ctx.compute((4 * rows * d_out * d + 3 * rows * d) as u64, || {
            g.matmul_transpose_into(&w.row_slice(0, d), &mut gg);
            s.matmul_transpose_into(&w.row_slice(d, 2 * d), &mut tmp);
            gg.add_assign(&tmp);
            prev_z.relu_prime_into(&mut tmp);
            gg.hadamard_assign(&tmp);
        }),
    }
    bufs.put_dense(tmp);
    bufs.put_dense(std::mem::replace(g, gg));
}

/// One grid SpMM under `overlap`: the pipelined executor when enabled,
/// the blocking one otherwise.
fn grid_spmm(
    ctx: &mut RankCtx,
    plan: &GridPlan,
    h: &Dense,
    overlap: OverlapConfig,
    bufs: &mut EpochBuffers,
) -> Dense {
    if overlap.enabled {
        spmm_grid_pipelined_buf(ctx, plan, h, overlap.chunks, bufs)
    } else {
        spmm_grid_buf(ctx, plan, h, bufs)
    }
}

/// Copies the column panel `[lo, hi)` of `src` into a pooled matrix.
fn slice_panel(src: &Dense, lo: usize, hi: usize, bufs: &mut EpochBuffers) -> Dense {
    let mut out = bufs.take_dense(src.rows(), hi - lo);
    for r in 0..src.rows() {
        out.row_mut(r).copy_from_slice(&src.row(r)[lo..hi]);
    }
    out
}

/// One rank's training program on a 2D or 3D process grid.
///
/// The grid algorithms keep `H`/`Z` **full-width and replicated** across
/// each grid row (and, in 3D, across the `c` layers): the panel-GEMM's
/// grid-row all-reduce already produces the full-width product on every
/// rank, so replication costs no extra communication, and the local
/// backward steps (`relu'`, `·Wᵀ` propagation) stay identical to the 1D
/// data flow. Only the SpMM operands are transient per-call panels.
///
/// Per layer (forward): slice the own feature panel of the full-width
/// `H`, run the 2D/3D SpMM on it, multiply the panel against the
/// matching rows of `W` (a partial product over the full output width),
/// and all-reduce the partials across the grid row — giving the
/// full-width `Z` everywhere. Backward mirrors it: SpMM of the own
/// gradient panel, grid-row all-reduce to reassemble the full-width
/// `AᵀG`, then the weight gradient is built from per-panel blocks
/// (`H_panelᵀ · AᵀG` lands in rows `[panel_lo, panel_hi)` of `Y`) and
/// all-reduced over all `p` ranks.
///
/// Replication bookkeeping: each block row lives on `pc·c` ranks, so
/// the masked-count denominator divides by `pc·c`; the weight-gradient
/// all-reduce sums `pc` *distinct* panel blocks per grid row but `c`
/// *identical* layer copies, so only `c` is divided out of `Y`.
fn run_rank_grid(
    ctx: &mut RankCtx,
    ds: &Dataset,
    cfg: &DistConfig,
    plan: &GridPlan,
    store: &dyn CheckpointBackend,
) -> (Vec<EpochRecord>, Weights) {
    // Geometry: grid coordinates, block row, panel splitter, and the
    // two all-reduce groups (grid row within the layer; all ranks).
    let rp = &plan.ranks[ctx.rank()];
    let (grid_j, lo, hi, cl) = (rp.j, rp.row_lo, rp.row_hi, plan.c);
    let row_group: Vec<usize> = (0..plan.pc)
        .map(|jj| plan.rank_of(rp.i, jj, rp.l))
        .collect();
    let all_group: Vec<usize> = (0..ctx.p()).collect();
    let panel_bounds = |f: usize| plan.panel_bounds(f);
    let rep = (plan.pc * cl) as f64;

    let rows = hi - lo;
    let labels = &ds.labels[lo..hi];
    let mask = &ds.train_mask[lo..hi];

    let (start_epoch, mut weights, mut optimizer, mut records) = match store.restore() {
        Some(ck) => (ck.next_epoch, ck.weights, ck.optimizer, ck.records),
        None => (
            0,
            Weights::init(&cfg.gcn),
            Optimizer::from_config(&cfg.gcn),
            Vec::with_capacity(cfg.epochs),
        ),
    };
    let l_total = cfg.gcn.layers();
    let dims = &cfg.gcn.dims;
    let mut bufs = EpochBuffers::new();
    let overlap = cfg.overlap;

    // `hs[0]` is H⁰ for the whole run, as in `run_rank`.
    let mut hs: Vec<Dense> = Vec::with_capacity(l_total + 1);
    hs.push(ds.features.row_slice(lo, hi));
    let mut zs: Vec<Dense> = Vec::with_capacity(l_total);
    let mut ahs: Vec<Dense> = Vec::with_capacity(l_total);
    let mut grads: Vec<Dense> = Vec::with_capacity(l_total);

    for epoch in start_epoch..cfg.epochs {
        ctx.set_epoch(epoch);
        ctx.span_begin(SpanKind::Epoch, Phase::Other);
        // ---- forward ----
        ctx.span_begin(SpanKind::Forward, Phase::Other);
        for l in 0..l_total {
            let (d, d_out) = (dims[l], dims[l + 1]);
            let ib = panel_bounds(d);
            let (ilo, ihi) = (ib[grid_j], ib[grid_j + 1]);
            let ipw = ihi - ilo;
            // Own input panel of the full-width activation.
            let h_panel = ctx.compute((rows * ipw) as u64, || {
                slice_panel(&hs[l], ilo, ihi, &mut bufs)
            });
            let ah = grid_spmm(ctx, plan, &h_panel, overlap, &mut bufs);
            // Partial product against the panel's rows of W, then
            // grid-row all-reduce: full-width Z on every rank.
            let w = &weights.mats[l];
            let mut z = bufs.take_dense(rows, d_out);
            match cfg.gcn.arch {
                ArchKind::Gcn => ctx.compute((2 * rows * ipw * d_out) as u64, || {
                    ah.matmul_into(&w.row_slice(ilo, ihi), &mut z)
                }),
                ArchKind::Sage => {
                    let mut tmp = bufs.take_dense(rows, d_out);
                    ctx.compute((4 * rows * ipw * d_out + rows * d_out) as u64, || {
                        h_panel.matmul_into(&w.row_slice(ilo, ihi), &mut z);
                        ah.matmul_into(&w.row_slice(d + ilo, d + ihi), &mut tmp);
                        z.add_assign(&tmp);
                    });
                    bufs.put_dense(tmp);
                }
            }
            ctx.allreduce_sum(z.data_mut(), &row_group);
            let mut h = bufs.take_dense(rows, d_out);
            if l + 1 == l_total {
                h.data_mut().copy_from_slice(z.data());
            } else {
                ctx.compute((rows * d_out) as u64, || z.relu_into(&mut h));
            }
            bufs.put_dense(h_panel);
            zs.push(z);
            hs.push(h);
            ahs.push(ah);
        }
        ctx.span_end();

        // ---- loss / metrics ----
        let (record, g_count, grad_sum) =
            loss_and_metrics(ctx, &hs[l_total], labels, mask, |ctx, sums| {
                ctx.allreduce_sum(sums, &all_group)
            });
        records.push(record);

        // ---- backward ----
        ctx.span_begin(SpanKind::Backward, Phase::Other);
        // Every block row is held by pc·c ranks; divide the duplicates
        // out of the masked count.
        let denom = (g_count / rep).max(1.0);
        let mut g = grad_sum;
        g.scale(1.0 / denom);

        for l in (0..l_total).rev() {
            let (d, d_out) = (dims[l], dims[l + 1]);
            let ib = panel_bounds(d);
            let (ilo, ihi) = (ib[grid_j], ib[grid_j + 1]);
            let ipw = ihi - ilo;
            let ob = panel_bounds(d_out);
            let (olo, ohi) = (ob[grid_j], ob[grid_j + 1]);
            let opw = ohi - olo;

            // SpMM of the own gradient panel, then reassemble the
            // full-width AᵀG by summing the disjoint panels across the
            // grid row.
            let g_panel = ctx.compute((rows * opw) as u64, || slice_panel(&g, olo, ohi, &mut bufs));
            let s_panel = grid_spmm(ctx, plan, &g_panel, overlap, &mut bufs);
            bufs.put_dense(g_panel);
            let mut s = bufs.take_dense(rows, d_out);
            ctx.compute((rows * opw) as u64, || {
                for r in 0..rows {
                    s.row_mut(r)[olo..ohi].copy_from_slice(s_panel.row(r));
                }
            });
            ctx.allreduce_sum(s.data_mut(), &row_group);
            bufs.put_dense(s_panel);

            // Weight gradient from per-panel blocks: this rank fills
            // rows [ilo, ihi) of Y; the all-reduce over all p sums the
            // pr distinct grid-row contributions per panel and the c
            // identical layer copies.
            let h_prev = &hs[l];
            let mut y = match cfg.gcn.arch {
                ArchKind::Gcn => {
                    let hp = ctx.compute((rows * ipw) as u64, || {
                        slice_panel(h_prev, ilo, ihi, &mut bufs)
                    });
                    let mut yp = bufs.take_dense(ipw, d_out);
                    ctx.compute((2 * rows * ipw * d_out) as u64, || {
                        hp.transpose_matmul_into(&s, &mut yp)
                    });
                    let mut y = bufs.take_dense(d, d_out);
                    y.data_mut()[ilo * d_out..ihi * d_out].copy_from_slice(yp.data());
                    bufs.put_dense(hp);
                    bufs.put_dense(yp);
                    y
                }
                ArchKind::Sage => {
                    let ah = &ahs[l];
                    let g_ref = &g;
                    let hp = ctx.compute((rows * ipw) as u64, || {
                        slice_panel(h_prev, ilo, ihi, &mut bufs)
                    });
                    let mut top = bufs.take_dense(ipw, d_out);
                    let mut bottom = bufs.take_dense(ipw, d_out);
                    ctx.compute((4 * rows * ipw * d_out) as u64, || {
                        hp.transpose_matmul_into(g_ref, &mut top);
                        ah.transpose_matmul_into(g_ref, &mut bottom);
                    });
                    let mut y = bufs.take_dense(2 * d, d_out);
                    y.data_mut()[ilo * d_out..ihi * d_out].copy_from_slice(top.data());
                    y.data_mut()[(d + ilo) * d_out..(d + ihi) * d_out]
                        .copy_from_slice(bottom.data());
                    bufs.put_dense(hp);
                    bufs.put_dense(top);
                    bufs.put_dense(bottom);
                    y
                }
            };
            ctx.allreduce_sum(y.data_mut(), &all_group);
            // Only the layer replicas are duplicates; the grid-row
            // contributions are distinct panel blocks.
            y.scale(1.0 / cl as f64);
            grads.push(y); // reverse layer order; fixed up below
            if l > 0 {
                // Full-width local propagation, identical to the 1D
                // data flow (s and z_prev are full-width and replicated).
                let (w, prev_z) = (&weights.mats[l], &zs[l - 1]);
                propagate_gradient(ctx, cfg.gcn.arch, w, prev_z, &s, &mut g, &mut bufs);
            }
            bufs.put_dense(s);
        }
        grads.reverse();
        optimizer.step(&mut weights, &grads);
        ctx.span_end();

        // ---- retire epoch temporaries ----
        bufs.put_dense(g);
        for d in hs.drain(1..).chain(zs.drain(..)).chain(ahs.drain(..)) {
            bufs.put_dense(d);
        }
        for d in grads.drain(..) {
            bufs.put_dense(d);
        }

        // ---- checkpoint ----
        let every = cfg.robust.checkpoint_every;
        if ctx.rank() == 0 && every > 0 && (epoch + 1) % every == 0 {
            store.save(Checkpoint {
                next_epoch: epoch + 1,
                weights: weights.clone(),
                optimizer: optimizer.clone(),
                records: records.clone(),
            });
        }
        ctx.span_end(); // epoch
    }
    (records, weights)
}

/// One rank's training program under degraded-mode failover (1.5D
/// only). Epochs run as *attempts*: the full forward/loss/backward is
/// computed through the final gradient all-reduce, then the attempt is
/// committed at a death-aware barrier. Only a committed attempt mutates
/// state (optimizer step, record append, checkpoint), so an attempt
/// aborted by a mid-epoch death — every survivor unwinds with
/// [`EpochAbortPanic`] — is side-effect free and simply re-runs with
/// the dead rank's duties reassigned via [`FailoverView`]. Degraded
/// collectives fold in fault-free slot order from replicated data, so
/// committed epochs are bit-identical to a fault-free run.
fn run_rank_failover(
    ctx: &mut RankCtx,
    ds: &Dataset,
    cfg: &DistConfig,
    plan: &GridPlan,
    store: &dyn CheckpointBackend,
) -> (Vec<EpochRecord>, Weights) {
    let c_rep = cfg.algo.replication() as f64;
    let all_group: Vec<usize> = (0..ctx.p()).collect();
    let rp = &plan.ranks[ctx.rank()];
    let (lo, hi) = (rp.row_lo, rp.row_hi);
    let rows = hi - lo;
    let labels = &ds.labels[lo..hi];
    let mask = &ds.train_mask[lo..hi];

    let (start_epoch, mut weights, mut optimizer, mut records) = match store.restore() {
        Some(ck) => (ck.next_epoch, ck.weights, ck.optimizer, ck.records),
        None => (
            0,
            Weights::init(&cfg.gcn),
            Optimizer::from_config(&cfg.gcn),
            Vec::with_capacity(cfg.epochs),
        ),
    };
    let l_total = cfg.gcn.layers();
    let dims = &cfg.gcn.dims;
    let mut bufs = EpochBuffers::new();
    // `hs[0]` is H⁰ for the whole run, as in `run_rank`. The stack lives
    // outside the attempt so the block survives an attempt that unwinds.
    let mut hs: Vec<Dense> = Vec::with_capacity(l_total + 1);
    hs.push(ds.features.row_slice(lo, hi));

    let mut epoch = start_epoch;
    while epoch < cfg.epochs {
        ctx.set_epoch(epoch);
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            // Role assignment from the *sealed* death set — identical
            // on every rank of this generation without communication.
            let view = FailoverView::compute(ctx, plan);
            let degraded = view.is_degraded();
            let dist_spmm = |ctx: &mut RankCtx, h: &Dense, bufs: &mut EpochBuffers| -> Dense {
                if degraded {
                    spmm_15d_failover_buf(ctx, plan, &view, h, bufs)
                } else {
                    spmm_grid_buf(ctx, plan, h, bufs)
                }
            };
            let global_reduce = |ctx: &mut RankCtx, buf: &mut [f64]| {
                if degraded {
                    failover_allreduce_replicated(ctx, &view, buf);
                } else {
                    ctx.allreduce_sum(buf, &all_group);
                }
            };
            ctx.span_begin(SpanKind::Epoch, Phase::Other);

            // ---- forward ----
            ctx.span_begin(SpanKind::Forward, Phase::Other);
            let mut zs: Vec<Dense> = Vec::with_capacity(l_total);
            let mut ahs: Vec<Dense> = Vec::with_capacity(l_total);
            for l in 0..l_total {
                let ah = dist_spmm(ctx, &hs[l], &mut bufs);
                let w = &weights.mats[l];
                let (d, d_out) = (dims[l], dims[l + 1]);
                let mut z = bufs.take_dense(rows, d_out);
                match cfg.gcn.arch {
                    ArchKind::Gcn => {
                        ctx.compute((2 * rows * d * d_out) as u64, || ah.matmul_into(w, &mut z))
                    }
                    ArchKind::Sage => {
                        let h_prev = &hs[l];
                        let mut tmp = bufs.take_dense(rows, d_out);
                        ctx.compute((4 * rows * d * d_out + rows * d_out) as u64, || {
                            h_prev.matmul_into(&w.row_slice(0, d), &mut z);
                            ah.matmul_into(&w.row_slice(d, 2 * d), &mut tmp);
                            z.add_assign(&tmp);
                        });
                        bufs.put_dense(tmp);
                    }
                }
                let mut h = bufs.take_dense(rows, d_out);
                if l + 1 == l_total {
                    h.data_mut().copy_from_slice(z.data());
                } else {
                    ctx.compute((rows * dims[l + 1]) as u64, || z.relu_into(&mut h));
                }
                zs.push(z);
                hs.push(h);
                ahs.push(ah);
            }
            ctx.span_end();

            // ---- loss / metrics ----
            let (record, g_count, grad_sum) =
                loss_and_metrics(ctx, &hs[l_total], labels, mask, global_reduce);

            // ---- backward ----
            ctx.span_begin(SpanKind::Backward, Phase::Other);
            let denom = (g_count / c_rep).max(1.0);
            let mut g = grad_sum;
            g.scale(1.0 / denom);
            let mut grads: Vec<Dense> = Vec::with_capacity(l_total);

            for l in (0..l_total).rev() {
                let s = dist_spmm(ctx, &g, &mut bufs);
                let h_prev = &hs[l];
                let (d, d_out) = (dims[l], dims[l + 1]);
                let mut y = match cfg.gcn.arch {
                    ArchKind::Gcn => {
                        let mut y = bufs.take_dense(d, d_out);
                        ctx.compute((2 * rows * d * d_out) as u64, || {
                            h_prev.transpose_matmul_into(&s, &mut y)
                        });
                        y
                    }
                    ArchKind::Sage => {
                        let ah = &ahs[l];
                        let g_ref = &g;
                        let mut top = bufs.take_dense(d, d_out);
                        let mut bottom = bufs.take_dense(d, d_out);
                        ctx.compute((4 * rows * d * d_out) as u64, || {
                            h_prev.transpose_matmul_into(g_ref, &mut top);
                            ah.transpose_matmul_into(g_ref, &mut bottom);
                        });
                        let mut y = bufs.take_dense(2 * d, d_out);
                        y.data_mut()[..d * d_out].copy_from_slice(top.data());
                        y.data_mut()[d * d_out..].copy_from_slice(bottom.data());
                        bufs.put_dense(top);
                        bufs.put_dense(bottom);
                        y
                    }
                };
                global_reduce(ctx, y.data_mut());
                // Replicated rows contributed c times each.
                y.scale(1.0 / c_rep);
                grads.push(y); // reverse layer order; fixed up below
                if l > 0 {
                    let (w, prev_z) = (&weights.mats[l], &zs[l - 1]);
                    propagate_gradient(ctx, cfg.gcn.arch, w, prev_z, &s, &mut g, &mut bufs);
                }
                bufs.put_dense(s);
            }
            grads.reverse();
            ctx.span_end();

            // ---- retire attempt temporaries ----
            bufs.put_dense(g);
            for d in hs.drain(1..).chain(zs.drain(..)).chain(ahs.drain(..)) {
                bufs.put_dense(d);
            }
            ctx.span_end(); // epoch
            (grads, record)
        }));

        match attempt {
            Ok((grads, record)) => {
                // Commit gate: true only if nobody died this attempt.
                let committed = ctx.commit_epoch();
                if committed {
                    optimizer.step(&mut weights, &grads);
                    records.push(record);
                }
                for d in grads {
                    bufs.put_dense(d);
                }
                if committed {
                    let every = cfg.robust.checkpoint_every;
                    if every > 0 && (epoch + 1) % every == 0 {
                        // The lowest survivor writes; the sealed view
                        // makes that choice identical on every rank.
                        let dead = ctx.sealed_dead_ranks();
                        let writer = (0..ctx.p())
                            .find(|r| !dead.contains(r))
                            .expect("at least one survivor");
                        if ctx.rank() == writer {
                            store.save(Checkpoint {
                                next_epoch: epoch + 1,
                                weights: weights.clone(),
                                optimizer: optimizer.clone(),
                                records: records.clone(),
                            });
                        }
                    }
                    epoch += 1;
                }
                // Uncommitted: a peer died mid-attempt after our last
                // recv — discard and re-run the same epoch degraded.
            }
            Err(payload) => {
                // Only the failover abort is survivable here; injected
                // crashes, replica-column loss and genuine bugs keep
                // unwinding to the world boundary.
                if !payload.is::<EpochAbortPanic>() {
                    resume_unwind(payload);
                }
                // Drop the aborted attempt's activations; H⁰ stays.
                hs.truncate(1);
                let committed = ctx.commit_epoch();
                debug_assert!(!committed, "an aborted attempt cannot commit");
            }
        }
    }
    (records, weights)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::plan::even_bounds;
    use crate::reference::ReferenceTrainer;
    use spmat::dataset::reddit_scaled;

    fn run(
        algo: Algo,
        bounds_parts: usize,
        epochs: usize,
    ) -> (DistOutcome, Vec<EpochRecord>, Weights) {
        let ds = reddit_scaled(7, 11); // 128 vertices
        let cfg = GcnConfig::paper_default(ds.f(), ds.num_classes);
        let mut reference = ReferenceTrainer::new(&ds, cfg.clone());
        let ref_records = reference.train(epochs);

        let bounds = even_bounds(ds.n(), bounds_parts);
        let dist_cfg = DistConfig::new(algo, cfg, epochs, CostModel::perlmutter_like());
        let out = train_distributed(&ds, &bounds, &dist_cfg);
        (out, ref_records, reference.weights)
    }

    #[test]
    fn oned_aware_matches_reference() {
        let (out, ref_records, ref_weights) = run(Algo::OneD { aware: true }, 4, 4);
        for (a, b) in out.records.iter().zip(&ref_records) {
            assert!(
                (a.loss - b.loss).abs() < 1e-9,
                "loss {} vs {}",
                a.loss,
                b.loss
            );
            assert!((a.train_accuracy - b.train_accuracy).abs() < 1e-9);
        }
        assert!(out.weights.max_abs_diff(&ref_weights) < 1e-9);
        assert_eq!(out.restarts, 0);
    }

    #[test]
    fn oned_oblivious_matches_reference() {
        let (out, ref_records, ref_weights) = run(Algo::OneD { aware: false }, 3, 3);
        for (a, b) in out.records.iter().zip(&ref_records) {
            assert!((a.loss - b.loss).abs() < 1e-9);
        }
        assert!(out.weights.max_abs_diff(&ref_weights) < 1e-9);
    }

    #[test]
    fn onefived_aware_matches_reference() {
        let (out, ref_records, ref_weights) = run(Algo::OneFiveD { aware: true, c: 2 }, 2, 3);
        for (a, b) in out.records.iter().zip(&ref_records) {
            assert!(
                (a.loss - b.loss).abs() < 1e-8,
                "loss {} vs {}",
                a.loss,
                b.loss
            );
        }
        assert!(out.weights.max_abs_diff(&ref_weights) < 1e-8);
    }

    #[test]
    fn onefived_oblivious_matches_reference() {
        let (out, ref_records, ref_weights) = run(Algo::OneFiveD { aware: false, c: 2 }, 2, 3);
        for (a, b) in out.records.iter().zip(&ref_records) {
            assert!((a.loss - b.loss).abs() < 1e-8);
        }
        assert!(out.weights.max_abs_diff(&ref_weights) < 1e-8);
    }

    #[test]
    fn twod_matches_reference() {
        for aware in [true, false] {
            let (out, ref_records, ref_weights) = run(Algo::TwoD { aware, pc: 2 }, 2, 3);
            for (a, b) in out.records.iter().zip(&ref_records) {
                assert!(
                    (a.loss - b.loss).abs() < 1e-8,
                    "aware={aware}: loss {} vs {}",
                    a.loss,
                    b.loss
                );
            }
            assert!(
                out.weights.max_abs_diff(&ref_weights) < 1e-8,
                "aware={aware}"
            );
        }
    }

    #[test]
    fn threed_matches_reference() {
        for aware in [true, false] {
            let (out, ref_records, ref_weights) = run(Algo::ThreeD { aware, pc: 2, c: 2 }, 2, 3);
            for (a, b) in out.records.iter().zip(&ref_records) {
                assert!(
                    (a.loss - b.loss).abs() < 1e-8,
                    "aware={aware}: loss {} vs {}",
                    a.loss,
                    b.loss
                );
            }
            assert!(
                out.weights.max_abs_diff(&ref_weights) < 1e-8,
                "aware={aware}"
            );
        }
    }

    #[test]
    fn grid_sage_matches_reference() {
        let ds = reddit_scaled(7, 11);
        let mut cfg = GcnConfig::paper_default(ds.f(), ds.num_classes);
        cfg.arch = ArchKind::Sage;
        let mut reference = ReferenceTrainer::new(&ds, cfg.clone());
        let ref_records = reference.train(3);
        for algo in [
            Algo::TwoD { aware: true, pc: 2 },
            Algo::ThreeD {
                aware: true,
                pc: 2,
                c: 2,
            },
        ] {
            let bounds = even_bounds(ds.n(), 2);
            let dist_cfg = DistConfig::new(algo, cfg.clone(), 3, CostModel::perlmutter_like());
            let out = train_distributed(&ds, &bounds, &dist_cfg);
            for (a, b) in out.records.iter().zip(&ref_records) {
                assert!(
                    (a.loss - b.loss).abs() < 1e-8,
                    "{}: loss {} vs {}",
                    algo.label(),
                    a.loss,
                    b.loss
                );
            }
            assert!(
                out.weights.max_abs_diff(&reference.weights) < 1e-8,
                "{}",
                algo.label()
            );
        }
    }

    #[test]
    fn algo_labels_and_replication() {
        assert_eq!(Algo::OneD { aware: true }.replication(), 1);
        assert_eq!(Algo::OneFiveD { aware: true, c: 4 }.replication(), 4);
        assert_eq!(Algo::TwoD { aware: true, pc: 2 }.replication(), 1);
        assert_eq!(
            Algo::ThreeD {
                aware: true,
                pc: 2,
                c: 2
            }
            .replication(),
            2
        );
        assert!(Algo::OneD { aware: false }.label().contains("CAGNET"));
        assert!(Algo::OneFiveD { aware: true, c: 2 }.label().contains("c=2"));
        assert!(Algo::TwoD { aware: true, pc: 2 }.label().contains("2D"));
        assert!(Algo::ThreeD {
            aware: false,
            pc: 1,
            c: 2
        }
        .label()
        .contains("3D"));
        assert!(Algo::TwoD { aware: true, pc: 2 }.aware());
        assert!(!Algo::ThreeD {
            aware: false,
            pc: 1,
            c: 2
        }
        .aware());
    }

    #[test]
    fn crash_then_restart_matches_fault_free_run() {
        let ds = reddit_scaled(7, 11);
        let cfg = GcnConfig::paper_default(ds.f(), ds.num_classes);
        let bounds = even_bounds(ds.n(), 4);
        let epochs = 5;

        let clean_cfg = DistConfig::new(
            Algo::OneD { aware: true },
            cfg.clone(),
            epochs,
            CostModel::perlmutter_like(),
        );
        let clean = train_distributed(&ds, &bounds, &clean_cfg);

        let mut faulty_cfg = clean_cfg.clone();
        faulty_cfg.robust = RobustnessConfig {
            faults: Some(FaultPlan::new(1).crash_at(2, 3, 0)),
            checkpoint_every: 2,
            max_restarts: 1,
            timeout: Duration::from_secs(10),
            failover: false,
        };
        let faulty = try_train_distributed(&ds, &bounds, &faulty_cfg)
            .expect("restart should recover the run");

        assert_eq!(faulty.restarts, 1);
        assert_eq!(
            faulty.resume_points,
            vec![2],
            "crash at epoch 3 with checkpoint_every=2 resumes from epoch 2"
        );
        assert_eq!(faulty.records.len(), clean.records.len());
        // Bit-for-bit: resume replays the deterministic epochs exactly.
        for (a, b) in faulty.records.iter().zip(&clean.records) {
            assert_eq!(a.loss.to_bits(), b.loss.to_bits());
            assert_eq!(a.train_accuracy.to_bits(), b.train_accuracy.to_bits());
        }
        assert_eq!(faulty.weights.max_abs_diff(&clean.weights), 0.0);
    }

    /// A backend whose every snapshot is damaged in flight, so *both*
    /// ring slots always fail verification — the double-corruption
    /// worst case of the checkpoint ring.
    struct CorruptingStore(Mutex<CheckpointStore>);

    impl CheckpointBackend for CorruptingStore {
        fn save(&self, ck: Checkpoint) {
            let mut inner = self.0.lock().unwrap();
            inner.save(ck);
            inner.corrupt_newest();
        }

        fn restore(&self) -> Option<Checkpoint> {
            self.0.lock().unwrap().restore()
        }
    }

    #[test]
    fn double_corrupted_checkpoints_force_bit_exact_scratch_restart() {
        let ds = reddit_scaled(7, 11);
        let cfg = GcnConfig::paper_default(ds.f(), ds.num_classes);
        let bounds = even_bounds(ds.n(), 4);
        let epochs = 5;

        let clean_cfg = DistConfig::new(
            Algo::OneD { aware: true },
            cfg,
            epochs,
            CostModel::perlmutter_like(),
        );
        let clean = train_distributed(&ds, &bounds, &clean_cfg);

        let mut faulty_cfg = clean_cfg.clone();
        faulty_cfg.robust = RobustnessConfig {
            faults: Some(FaultPlan::new(1).crash_at(2, 3, 0)),
            checkpoint_every: 2,
            max_restarts: 1,
            timeout: Duration::from_secs(10),
            failover: false,
        };
        let store = CorruptingStore(Mutex::new(CheckpointStore::new()));
        let out = try_train_distributed_with_store(&ds, &bounds, &faulty_cfg, &store)
            .expect("with no verifiable snapshot the ladder must restart from scratch, not abort");

        assert!(
            store.restore().is_none(),
            "every slot must have failed verification"
        );
        assert_eq!(out.restarts, 1);
        assert_eq!(
            out.resume_points,
            vec![0],
            "no slot verifies → scratch restart from epoch 0"
        );
        assert_eq!(out.records.len(), clean.records.len());
        for (a, b) in out.records.iter().zip(&clean.records) {
            assert_eq!(a.loss.to_bits(), b.loss.to_bits());
            assert_eq!(a.train_accuracy.to_bits(), b.train_accuracy.to_bits());
        }
        assert_eq!(out.weights.max_abs_diff(&clean.weights), 0.0);
    }

    #[test]
    fn crash_without_restart_budget_is_an_error() {
        let ds = reddit_scaled(7, 11);
        let cfg = GcnConfig::paper_default(ds.f(), ds.num_classes);
        let bounds = even_bounds(ds.n(), 4);
        let mut dist_cfg = DistConfig::new(
            Algo::OneD { aware: true },
            cfg,
            3,
            CostModel::perlmutter_like(),
        );
        dist_cfg.robust.faults = Some(FaultPlan::new(0).crash_at(1, 1, 0));
        dist_cfg.robust.timeout = Duration::from_secs(10);
        let err = try_train_distributed(&ds, &bounds, &dist_cfg).unwrap_err();
        match err {
            WorldError::InjectedCrash { rank, epoch, .. } => {
                assert_eq!(rank, 1);
                assert_eq!(epoch, Some(1));
            }
            other => panic!("expected InjectedCrash, got {other}"),
        }
    }

    #[test]
    fn failover_absorbs_crash_without_restart_and_matches_bits() {
        let ds = reddit_scaled(7, 11);
        let cfg = GcnConfig::paper_default(ds.f(), ds.num_classes);
        let bounds = even_bounds(ds.n(), 2); // pr = 2, c = 2 → p = 4
        let epochs = 5;

        let clean_cfg = DistConfig::new(
            Algo::OneFiveD { aware: true, c: 2 },
            cfg,
            epochs,
            CostModel::perlmutter_like(),
        );
        let clean = train_distributed(&ds, &bounds, &clean_cfg);

        let mut faulty_cfg = clean_cfg.clone();
        faulty_cfg.robust = RobustnessConfig {
            faults: Some(FaultPlan::new(3).crash_at(1, 2, 3)),
            checkpoint_every: 2,
            max_restarts: 0, // failover must succeed without the restart rung
            timeout: Duration::from_secs(10),
            failover: true,
        };
        let faulty = try_train_distributed(&ds, &bounds, &faulty_cfg)
            .expect("failover should absorb the crash in place");

        assert_eq!(faulty.restarts, 0, "no world restart");
        assert_eq!(faulty.failovers, 1, "exactly one death absorbed");
        assert_eq!(faulty.records.len(), clean.records.len());
        // Bit-for-bit: degraded collectives replay the fault-free fold.
        for (a, b) in faulty.records.iter().zip(&clean.records) {
            assert_eq!(a.loss.to_bits(), b.loss.to_bits());
            assert_eq!(a.train_accuracy.to_bits(), b.train_accuracy.to_bits());
        }
        assert_eq!(faulty.weights.max_abs_diff(&clean.weights), 0.0);
    }

    #[test]
    fn losing_a_whole_replica_group_falls_back_to_checkpoint_restart() {
        let ds = reddit_scaled(7, 11);
        let cfg = GcnConfig::paper_default(ds.f(), ds.num_classes);
        let bounds = even_bounds(ds.n(), 2); // pr = 2, c = 2 → p = 4
        let epochs = 5;

        let clean_cfg = DistConfig::new(
            Algo::OneFiveD { aware: true, c: 2 },
            cfg,
            epochs,
            CostModel::perlmutter_like(),
        );
        let clean = train_distributed(&ds, &bounds, &clean_cfg);

        // Ranks 0 and 1 are the two replicas of block row 0; killing
        // both exhausts the in-place rung and escalates to a restart.
        let mut faulty_cfg = clean_cfg.clone();
        faulty_cfg.robust = RobustnessConfig {
            faults: Some(FaultPlan::new(5).crash_at(0, 2, 0).crash_at(1, 2, 5)),
            checkpoint_every: 1,
            max_restarts: 1,
            timeout: Duration::from_secs(10),
            failover: true,
        };
        let faulty = try_train_distributed(&ds, &bounds, &faulty_cfg)
            .expect("checkpoint restart should recover the run");

        assert_eq!(faulty.restarts, 1, "escalated to the restart rung");
        assert_eq!(faulty.records.len(), clean.records.len());
        for (a, b) in faulty.records.iter().zip(&clean.records) {
            assert_eq!(a.loss.to_bits(), b.loss.to_bits());
        }
        assert_eq!(faulty.weights.max_abs_diff(&clean.weights), 0.0);
    }

    #[test]
    fn failover_flag_on_1d_defers_to_restart_ladder() {
        let ds = reddit_scaled(7, 11);
        let cfg = GcnConfig::paper_default(ds.f(), ds.num_classes);
        let bounds = even_bounds(ds.n(), 4);
        let mut dist_cfg = DistConfig::new(
            Algo::OneD { aware: true },
            cfg,
            4,
            CostModel::perlmutter_like(),
        );
        dist_cfg.robust = RobustnessConfig {
            faults: Some(FaultPlan::new(2).crash_at(2, 1, 0)),
            checkpoint_every: 1,
            max_restarts: 1,
            timeout: Duration::from_secs(10),
            failover: true, // no replication → silently uses restarts
        };
        let out = try_train_distributed(&ds, &bounds, &dist_cfg)
            .expect("restart rung should recover the 1D run");
        assert_eq!(out.restarts, 1);
        assert_eq!(out.failovers, 0);
        assert_eq!(out.records.len(), 4);
    }

    #[test]
    fn overlapped_training_is_bit_identical_to_blocking() {
        let ds = reddit_scaled(7, 11);
        let cfg = GcnConfig::paper_default(ds.f(), ds.num_classes);
        for (algo, parts) in [
            (Algo::OneD { aware: true }, 4),
            (Algo::OneD { aware: false }, 4),
            (Algo::OneFiveD { aware: true, c: 2 }, 2),
            (Algo::TwoD { aware: true, pc: 2 }, 2),
            (
                Algo::ThreeD {
                    aware: true,
                    pc: 1,
                    c: 2,
                },
                2,
            ),
        ] {
            let bounds = even_bounds(ds.n(), parts);
            let base_cfg = DistConfig::new(algo, cfg.clone(), 3, CostModel::perlmutter_like());
            let base = train_distributed(&ds, &bounds, &base_cfg);
            let mut ov_cfg = base_cfg.clone();
            ov_cfg.overlap = OverlapConfig::on(3);
            let ov = train_distributed(&ds, &bounds, &ov_cfg);
            for (a, b) in ov.records.iter().zip(&base.records) {
                assert_eq!(a.loss.to_bits(), b.loss.to_bits(), "{}", algo.label());
            }
            assert_eq!(
                ov.weights.max_abs_diff(&base.weights),
                0.0,
                "{}",
                algo.label()
            );
            assert!(ov.stats.total_overlap_stages() > 0, "{}", algo.label());
        }
    }

    #[test]
    fn link_faults_do_not_change_results() {
        let ds = reddit_scaled(7, 11);
        let cfg = GcnConfig::paper_default(ds.f(), ds.num_classes);
        let bounds = even_bounds(ds.n(), 3);
        let clean_cfg = DistConfig::new(
            Algo::OneD { aware: true },
            cfg,
            3,
            CostModel::perlmutter_like(),
        );
        let clean = train_distributed(&ds, &bounds, &clean_cfg);

        let mut faulty_cfg = clean_cfg.clone();
        faulty_cfg.robust.faults = Some(
            FaultPlan::new(9)
                .drop_messages(0, None, 0.2)
                .corrupt_messages(1, None, 0.2),
        );
        let faulty = train_distributed(&ds, &bounds, &faulty_cfg);

        assert_eq!(faulty.restarts, 0, "link faults recover in place");
        for (a, b) in faulty.records.iter().zip(&clean.records) {
            assert_eq!(a.loss.to_bits(), b.loss.to_bits());
        }
        assert_eq!(faulty.weights.max_abs_diff(&clean.weights), 0.0);
        assert!(
            faulty.stats.total_retries() > 0,
            "plan with p=0.2 on every message should have injected something"
        );
    }
}
