//! The SPMD GCN trainer: full forward/backward/SGD training where every
//! SpMM runs through one of the distributed algorithms (1D or a grid
//! shape, sparsity-oblivious or -aware), each with one blocking schedule.
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
//! 2. **Checkpoint restart** — a rank crash tears the world down and
//!    resumes from the newest verified [`Checkpoint`] in the
//!    [`CheckpointStore`], up to `max_restarts` times.
//! 3. **Abort** — anything else (or an exhausted restart budget)
//!    surfaces as a structured [`WorldError`].
//!
//! Because weights are replicated and every epoch is deterministic,
//! every rung reproduces the fault-free loss trajectory and final
//! weights bit-for-bit.

use std::borrow::Cow;
use std::ops::Range;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use gnn_comm::{
    CostModel, FaultInjector, FaultPlan, Phase, RankCtx, SpanKind, ThreadWorld, WorldError,
    WorldStats, WorldTrace,
};
use spmat::dataset::Dataset;
use spmat::gen::sbm::block_bounds;
use spmat::{Csr, Dense};

use crate::model::{softmax_cross_entropy_sums_into, ArchKind, GcnConfig, Weights};
use crate::optim::Optimizer;
use crate::reference::EpochRecord;

use super::buffers::EpochBuffers;
use super::checkpoint::{Checkpoint, CheckpointBackend, CheckpointStore};
use super::grid::{spmm_grid_buf, GridPlan};
use super::oned::spmm_1d_buf;

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

/// Which side of a layer's `Â·H·W` is exchanged. The product is the same
/// matrix either way; what differs is the width of the distributed SpMM —
/// `d_in` columns packed, shipped and multiplied, or `d_out`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum LayerOrder {
    /// `(ÂH)W` at every layer: what the paper and CAGNET execute, and
    /// therefore what `repro` and the pinned digests select.
    AggregateFirst,
    /// `Â(HW)` where a layer narrows, `(ÂH)W` elsewhere: every layer
    /// exchanges `min(d_in, d_out)` columns. Re-associates one product per
    /// narrowing layer, so results agree with [`Self::AggregateFirst`] to
    /// rounding (≤ 1e-8 of the sequential reference), not to the bit.
    #[default]
    NarrowSide,
}

impl LayerOrder {
    /// Whether layer `l` of a model with widths `dims` multiplies by `W`
    /// before it aggregates. The executor and the analytic replay both
    /// ask here, and nowhere else.
    pub fn narrow_first(self, dims: &[usize], l: usize) -> bool {
        self == LayerOrder::NarrowSide && dims[l + 1] < dims[l]
    }
}

/// Fault-tolerance knobs for a training run. The default is the
/// fault-free fast path: no injection, no checkpoints, no restarts.
#[derive(Clone, Debug)]
pub struct RobustnessConfig {
    /// Faults to inject (None = clean run). Message rules run on both
    /// backends; link rules (see [`FaultPlan::parse`]) act on the
    /// process backend's sockets and are inert on the thread backend.
    pub faults: Option<FaultPlan>,
    /// Snapshot training state every this many epochs (0 = never).
    /// A crash restarts from the newest snapshot, or from scratch.
    pub checkpoint_every: usize,
    /// How many recoverable failures to survive before giving up.
    pub max_restarts: usize,
    /// Deadlock-watchdog timeout for blocking communication.
    pub timeout: Duration,
}

impl Default for RobustnessConfig {
    fn default() -> Self {
        Self {
            faults: None,
            checkpoint_every: 0,
            max_restarts: 0,
            timeout: ThreadWorld::DEFAULT_TIMEOUT,
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
    /// Hostfile for the process backend: switches the rank mesh from
    /// Unix-domain sockets to TCP listeners at the listed `host[:port]`
    /// addresses (one line per rank; rank 0's port doubles as the
    /// rendezvous endpoint). `None` = single-machine UDS mesh. Ignored
    /// by the thread backend.
    pub hostfile: Option<std::path::PathBuf>,
    /// Which side of each layer's `Â·H·W` is exchanged.
    /// [`DistConfig::new`] picks [`LayerOrder::NarrowSide`]; a run that
    /// reproduces the paper's exchange sets [`LayerOrder::AggregateFirst`].
    pub order: LayerOrder,
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
            hostfile: None,
            order: LayerOrder::default(),
        }
    }

    /// This configuration in the paper's `(ÂH)W` order.
    pub fn paper_order(mut self) -> Self {
        self.order = LayerOrder::AggregateFirst;
        self
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
    /// Structured trace of the completed attempt (when
    /// [`DistConfig::trace`] was set).
    pub trace: Option<WorldTrace>,
    /// The epoch each restart resumed from (one entry per restart:
    /// the checkpoint's cursor, or 0 for a from-scratch restart).
    pub resume_points: Vec<usize>,
    /// The fault injector every world of a faulty thread-backend run
    /// shared: which crash rules fired — in any world, not only the one
    /// that completed — and which never did.
    pub faults: Option<Arc<FaultInjector>>,
}

/// Builds the communication plan of `algo` over `bounds` (shared by the
/// trainers and the analytic replay); the world size is the plan's `p()`.
pub(crate) fn plan_for(adj: &Csr, bounds: &[usize], algo: Algo) -> GridPlan {
    let pr = bounds.len() - 1;
    match algo {
        Algo::OneD { aware } => GridPlan::oned(adj, bounds, aware),
        Algo::OneFiveD { aware, c } => GridPlan::onefived(adj, pr * c, c, bounds, aware),
        Algo::TwoD { aware, pc } => GridPlan::twod(adj, pr, pc, bounds, aware),
        Algo::ThreeD { aware, pc, c } => GridPlan::threed(adj, pr, pc, c, bounds, aware),
    }
}

/// [`plan_for`] `cfg`'s algorithm after checking the model shape against
/// the dataset (shared by the thread supervisor and the process-backend
/// child).
pub(crate) fn build_plan(ds: &Dataset, bounds: &[usize], cfg: &DistConfig) -> GridPlan {
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
    let plan = build_plan(ds, bounds, cfg);

    // One injector for the whole supervised run: a crash fault that
    // fired in attempt k must not re-fire in attempt k+1.
    let injector = cfg
        .robust
        .faults
        .as_ref()
        .filter(|plan| !plan.is_empty())
        .map(|plan| Arc::new(FaultInjector::new(plan.clone())));
    let mut restarts = 0;
    let mut resume_points = Vec::new();

    loop {
        let mut world = ThreadWorld::new(plan.p(), cfg.model)
            .with_timeout(cfg.robust.timeout)
            .with_tracing(cfg.trace);
        if let Some(inj) = &injector {
            world = world.with_injector(inj.clone());
        }
        match world.try_run_traced(|ctx| run_rank(ctx, ds, cfg, &plan, store)) {
            Ok((mut results, stats, trace)) => {
                let (records, weights) = results.swap_remove(0);
                return Ok(DistOutcome {
                    records,
                    weights,
                    stats,
                    restarts,
                    trace,
                    resume_points,
                    faults: injector,
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
    plan: &GridPlan,
    store: &dyn CheckpointBackend,
) -> (Vec<EpochRecord>, Weights) {
    let (mut rank, start) = RankTrainer::new(ctx, ds, cfg, plan, store);
    for epoch in start..cfg.epochs {
        rank.epoch(ctx, epoch);
    }
    (rank.records, rank.weights)
}

/// `(pooled, fresh_allocs)` of one buffer pool.
pub type PoolCounters = (usize, u64);

/// Diagnostic behind the closed-loop tests: trains `cfg.epochs` fault-free
/// epochs of `cfg` on a thread world and returns, per rank and per epoch,
/// the counters of the world's payload pool and of the rank's own
/// activation pool, read between two barriers after the epoch finished —
/// every rank idle, every payload back in the pool — so a steady state
/// shows as rows that repeat exactly.
#[doc(hidden)]
pub fn pool_trajectory(
    ds: &Dataset,
    bounds: &[usize],
    cfg: &DistConfig,
) -> Vec<Vec<[PoolCounters; 2]>> {
    let plan = build_plan(ds, bounds, cfg);
    let store = Mutex::new(CheckpointStore::new());
    let world = ThreadWorld::new(plan.p(), cfg.model);
    let (per_rank, _) = world.run(|ctx| {
        let (mut rank, start) = RankTrainer::new(ctx, ds, cfg, &plan, &store);
        let after = |epoch| {
            rank.epoch(ctx, epoch);
            ctx.barrier();
            let pool = ctx.payload_pool();
            let world = (pool.pooled(), pool.fresh_allocs());
            ctx.barrier();
            [world, (rank.bufs.pooled(), rank.bufs.fresh_allocs())]
        };
        (start..cfg.epochs).map(after).collect()
    });
    per_rank
}

/// The paneled (2D/3D) dense step, a per-layer hook of the one epoch
/// program. Those algorithms keep `H`/`Z` **full-width and replicated**
/// across each grid row (and, in 3D, across the `c` layers) and split
/// only the SpMM operands into `pc` feature panels: a layer slices its
/// own panel *in*, and all-reduces over the grid row *out* — the partial
/// `panel × W` products forward, the disjoint `AᵀG` panels backward — so
/// everything between stays identical to the row-blocked data flow. A
/// narrow-first layer ([`LayerOrder::narrow_first`]) needs no slice in:
/// each rank multiplies the full-width `H` it already holds by its own
/// *column* panel of `W`, and `Z` is assembled out of the disjoint
/// `Â(H·W_panel)` the way `AᵀG` is ([`place_out`]). The
/// weight gradient is built from per-panel blocks (`H_panelᵀ · AᵀG` lands
/// in rows `[lo, hi)` of `Y`), which the global all-reduce sums.
struct Panel {
    /// Grid column: which feature panel this rank owns.
    j: usize,
    /// Grid columns.
    pc: usize,
    /// The rank's grid row within its layer.
    row_group: Vec<usize>,
}

impl Panel {
    /// The own panel `[lo, hi)` of a width-`f` matrix.
    fn range(&self, f: usize) -> (usize, usize) {
        let b = block_bounds(f, self.pc);
        (b[self.j], b[self.j + 1])
    }
}

/// The own column range of a width-`f` matrix: its panel, or all of it.
fn own_range(panel: &Option<Panel>, f: usize) -> (usize, usize) {
    panel.as_ref().map_or((0, f), |p| p.range(f))
}

/// Slices the own panel `[lo, hi)` of `src` into a pooled matrix (charged
/// as the copy it is); `None` without a panel, where `src` itself is the
/// operand.
fn slice_in(
    ctx: &mut RankCtx,
    panel: &Option<Panel>,
    src: &Dense,
    (lo, hi): (usize, usize),
    bufs: &mut EpochBuffers,
) -> Option<Dense> {
    panel.as_ref()?;
    Some(ctx.compute((src.rows() * (hi - lo)) as u64, || {
        let mut out = bufs.take_dense(src.rows(), hi - lo);
        for r in 0..src.rows() {
            out.row_mut(r).copy_from_slice(&src.row(r)[lo..hi]);
        }
        out
    }))
}

/// Reassembles a full-width matrix from the grid row's disjoint column
/// panels: places `own` at columns `[lo, hi)` of a `width`-wide pooled
/// matrix (charged as the copy it is) and sums over the grid row. Without
/// a panel `own` already is the whole matrix.
fn place_out(
    ctx: &mut RankCtx,
    panel: &Option<Panel>,
    own: Dense,
    (lo, hi): (usize, usize),
    width: usize,
    bufs: &mut EpochBuffers,
) -> Dense {
    let Some(p) = panel else {
        return own;
    };
    let rows = own.rows();
    let mut full = bufs.take_dense(rows, width);
    ctx.compute((rows * (hi - lo)) as u64, || {
        for r in 0..rows {
            full.row_mut(r)[lo..hi].copy_from_slice(own.row(r));
        }
    });
    ctx.allreduce_sum(full.data_mut(), &p.row_group);
    bufs.put_dense(own);
    full
}

/// Rows `[rlo, rhi)` × columns `[clo, chi)` of `w`: `w` itself when that
/// is all of it, otherwise a pooled copy, which [`put_tile`] retires —
/// the dense steps take tiles of `W` every layer of every epoch (a
/// panel's rows or columns; SAGE's self and neighbour halves) without
/// touching the allocator.
fn w_tile<'w>(
    w: &'w Dense,
    (rlo, rhi): (usize, usize),
    (clo, chi): (usize, usize),
    bufs: &mut EpochBuffers,
) -> Cow<'w, Dense> {
    if (rlo, rhi, clo, chi) == (0, w.rows(), 0, w.cols()) {
        return Cow::Borrowed(w);
    }
    let mut tile = bufs.take_dense(rhi - rlo, chi - clo);
    if (clo, chi) == (0, w.cols()) {
        // Whole rows are one contiguous block.
        tile.data_mut()
            .copy_from_slice(&w.data()[rlo * w.cols()..rhi * w.cols()]);
    } else {
        for r in rlo..rhi {
            tile.row_mut(r - rlo).copy_from_slice(&w.row(r)[clo..chi]);
        }
    }
    Cow::Owned(tile)
}

/// Rows `[lo, hi)` of `w`, transposed into a pooled `w.cols() × (hi − lo)`
/// matrix: the operand that makes `S·Wᵀ` a GEMM, whose output elements
/// add their terms in the order of the dot products it replaces.
fn w_rows_t(w: &Dense, lo: usize, hi: usize, bufs: &mut EpochBuffers) -> Dense {
    let width = hi - lo;
    let mut t = bufs.take_dense(w.cols(), width);
    let out = t.data_mut();
    for (i, r) in (lo..hi).enumerate() {
        for (c, &v) in w.row(r).iter().enumerate() {
            out[c * width + i] = v;
        }
    }
    t
}

/// Rows `[lo, hi)` of `w` at full width.
fn w_rows<'w>(w: &'w Dense, lo: usize, hi: usize, bufs: &mut EpochBuffers) -> Cow<'w, Dense> {
    w_tile(w, (lo, hi), (0, w.cols()), bufs)
}

/// Retires a [`w_tile`].
fn put_tile(tile: Cow<'_, Dense>, bufs: &mut EpochBuffers) {
    if let Cow::Owned(tile) = tile {
        bufs.put_dense(tile);
    }
}

/// One replica's share of layer 0's products against `H⁰`. The `c` ranks
/// of a replica group (the plan's `reduce_group`: 1.5D's process row,
/// 3D's fiber) hold the same `H⁰`, `W` and layer gradients, so instead of
/// each computing the whole of `H⁰·W₀` and `∂W₀`, the replica at position
/// `k` of the group computes output rows `block_bounds(len, c)[k..k+1]`,
/// leaves the other rows zero, and the group's all-reduce sums the slabs
/// back together. That sum is the whole product bit for bit: the GEMM
/// kernels never return `-0.0` (their accumulators start at `+0.0`), so
/// every element is `v + 0.0` or `0.0 + v`, which is `v`.
#[derive(Clone, Copy)]
struct ReplicaSlab<'p> {
    /// Position in the group: the replication layer.
    k: usize,
    group: &'p [usize],
}

impl ReplicaSlab<'_> {
    /// The rows of a `len`-row product this replica computes: its slab,
    /// or all of them without one.
    fn rows(slab: Option<Self>, len: usize) -> Range<usize> {
        match slab {
            Some(s) => {
                let b = block_bounds(len, s.group.len());
                b[s.k]..b[s.k + 1]
            }
            None => 0..len,
        }
    }

    /// Sums the group's slabs of `m` into the whole product.
    fn reassemble(slab: Option<Self>, ctx: &mut RankCtx, m: &mut Dense) {
        if let Some(s) = slab {
            ctx.allreduce_sum(m.data_mut(), s.group);
        }
    }
}

/// One rank's training program and state. Geometry comes from the plan:
/// the owned rows, how many ranks hold each block row (`pc·c`, divided
/// out of the masked count) and how many of those contribute *identical*
/// weight-gradient blocks (`c`, divided out of `Y` — the `pc` panel
/// blocks of a grid row are distinct).
pub(crate) struct RankTrainer<'a> {
    ds: &'a Dataset,
    cfg: &'a DistConfig,
    plan: &'a GridPlan,
    store: &'a dyn CheckpointBackend,
    panel: Option<Panel>,
    all_group: Vec<usize>,
    weights: Weights,
    optimizer: Optimizer,
    records: Vec<EpochRecord>,
    /// Per-rank scratch: every O(n·f) matrix of the epoch loop —
    /// activations, SpMM accumulators, panel and `W` tiles, the loss
    /// gradient — cycles through this pool (payload vectors through the
    /// world's), so steady-state epochs stay off the allocator.
    bufs: EpochBuffers,
    /// Layer stacks, reused across epochs (drained into `bufs` after each
    /// epoch, repopulated from it by the next). `hs[0]` is H⁰,
    /// this rank's one owned block of input features: it stays in place
    /// for the whole run, read-only, neither copied per epoch nor retired
    /// to the pool.
    hs: Vec<Dense>,
    zs: Vec<Dense>,
    /// `ÂH` of SAGE's aggregate-first layers, which its backward pops for
    /// `∂W_neigh`; nobody else reads an aggregate after the layer's GEMM,
    /// so nothing else is kept.
    ahs: Vec<Dense>,
}

impl<'a> RankTrainer<'a> {
    /// The calling rank's program, resumed from the newest verified
    /// checkpoint if there is one, and the epoch to run next. The
    /// checkpoint holds replicated state, so every rank restores the
    /// identical snapshot without communicating.
    pub(crate) fn new(
        ctx: &RankCtx,
        ds: &'a Dataset,
        cfg: &'a DistConfig,
        plan: &'a GridPlan,
        store: &'a dyn CheckpointBackend,
    ) -> (Self, usize) {
        let rp = &plan.ranks[ctx.rank()];
        let panel = cfg.algo.paneled().then(|| Panel {
            j: rp.j,
            pc: plan.pc,
            row_group: (0..plan.pc)
                .map(|jj| plan.rank_of(rp.i, jj, rp.l))
                .collect(),
        });
        let (start_epoch, weights, optimizer, records) = match store.restore() {
            Some(ck) => (ck.next_epoch, ck.weights, ck.optimizer, ck.records),
            None => (
                0,
                Weights::init(&cfg.gcn),
                Optimizer::from_config(&cfg.gcn),
                Vec::with_capacity(cfg.epochs),
            ),
        };
        let l_total = cfg.gcn.layers();
        let mut hs = Vec::with_capacity(l_total + 1);
        hs.push(ds.features.row_slice(rp.row_lo, rp.row_hi));
        let rank = RankTrainer {
            ds,
            cfg,
            plan,
            store,
            panel,
            all_group: (0..ctx.p()).collect(),
            weights,
            optimizer,
            records,
            bufs: EpochBuffers::new(),
            hs,
            zs: Vec::with_capacity(l_total),
            ahs: Vec::with_capacity(l_total),
        };
        (rank, start_epoch)
    }

    /// Runs epoch `epoch`: one [`Self::attempt`], then the optimizer
    /// step, the record and, when one is due, the checkpoint. A crash
    /// anywhere in it unwinds to the world boundary, where the supervisor
    /// restarts from the newest checkpoint.
    pub(crate) fn epoch(&mut self, ctx: &mut RankCtx, epoch: usize) {
        ctx.set_epoch(epoch);
        let (grads, record) = self.attempt(ctx);
        // The epoch's activations go back to the pool; H⁰ stays.
        let Self {
            bufs, hs, zs, ahs, ..
        } = self;
        for d in hs.drain(1..).chain(zs.drain(..)).chain(ahs.drain(..)) {
            bufs.put_dense(d);
        }
        self.optimizer.step(&mut self.weights, &grads);
        self.records.push(record);
        for d in grads {
            self.bufs.put_dense(d);
        }
        // End-of-epoch state is consistent: the writer could only get
        // here by completing every collective of this epoch, and the
        // state it snapshots is replicated on all ranks. The store
        // checksums the snapshot and keeps the previous one as a verified
        // fallback.
        let every = self.cfg.robust.checkpoint_every;
        if every > 0 && (epoch + 1).is_multiple_of(every) && ctx.rank() == 0 {
            self.store.save(Checkpoint {
                next_epoch: epoch + 1,
                weights: self.weights.clone(),
                optimizer: self.optimizer.clone(),
                records: self.records.clone(),
            });
        }
    }

    /// One epoch's work: forward, loss, backward through the final
    /// gradient all-reduce. Returns the weight gradients (layer order)
    /// and the epoch's record, leaves its activations on the layer stacks
    /// for [`Self::epoch`] to retire, and touches no training state. A
    /// layer's forward SpMM runs on `H` or on `H·W`, as
    /// [`LayerOrder::narrow_first`] decides for it; a narrow-first layer
    /// 0 splits its products against `H⁰` across the replica group
    /// ([`ReplicaSlab`]).
    fn attempt(&mut self, ctx: &mut RankCtx) -> (Vec<Dense>, EpochRecord) {
        let (ds, cfg, plan) = (self.ds, self.cfg, self.plan);
        let (panel, all_group, weights) = (&self.panel, &self.all_group, &self.weights);
        let (bufs, hs, zs, ahs) = (&mut self.bufs, &mut self.hs, &mut self.zs, &mut self.ahs);
        let rp = &plan.ranks[ctx.rank()];
        let rows = rp.rows();
        let (arch, dims, l_total) = (cfg.gcn.arch, &cfg.gcn.dims, cfg.gcn.layers());
        let order = cfg.order;

        let oned = matches!(cfg.algo, Algo::OneD { .. });
        let dist_spmm = |ctx: &mut RankCtx, h: &Dense, bufs: &mut EpochBuffers| -> Dense {
            if oned {
                spmm_1d_buf(ctx, plan, h, bufs)
            } else {
                spmm_grid_buf(ctx, plan, h, bufs)
            }
        };
        // Layer 0's products against H⁰ split across the replica group,
        // where there is one: only under the narrow order (the paper's
        // order keeps Algorithm 2's op sequence verbatim).
        let slab0 =
            (order.narrow_first(dims, 0) && rp.reduce_group.len() > 1).then_some(ReplicaSlab {
                k: rp.l,
                group: &rp.reduce_group,
            });
        ctx.span_begin(SpanKind::Epoch, Phase::Other);

        // ---- forward ----
        ctx.span_begin(SpanKind::Forward, Phase::Other);
        for l in 0..l_total {
            let (d, d_out) = (dims[l], dims[l + 1]);
            let w = &weights.mats[l];
            let z = if order.narrow_first(dims, l) {
                // Â(HW): multiply first, exchange `d_out` columns. With a
                // panel, H is full-width on every rank of the grid row, so
                // each takes its own *column* panel of W and the grid row
                // assembles Z from disjoint panels, as backward does AᵀG.
                let (olo, ohi) = own_range(panel, d_out);
                let opw = ohi - olo;
                let neigh = match arch {
                    ArchKind::Gcn => (0, d),
                    ArchKind::Sage => (d, 2 * d),
                };
                let slab = slab0.filter(|_| l == 0);
                let part = ReplicaSlab::rows(slab, rows);
                let gemm = (2 * part.len() * d * opw) as u64;
                let w_neigh = w_tile(w, neigh, (olo, ohi), bufs);
                let mut t = bufs.take_dense(rows, opw);
                ctx.compute(gemm, || {
                    hs[l].matmul_rows_into(&w_neigh, part.clone(), &mut t)
                });
                ReplicaSlab::reassemble(slab, ctx, &mut t);
                put_tile(w_neigh, bufs);
                let mut z_own = dist_spmm(ctx, &t, bufs);
                if arch == ArchKind::Sage {
                    let w_self = w_tile(w, (0, d), (olo, ohi), bufs);
                    let add = (rows * opw) as u64;
                    let h = &hs[l];
                    // A split self term is rebuilt before the add; an
                    // unsplit one keeps product and add one compute op.
                    if slab.is_some() {
                        ctx.compute(gemm, || h.matmul_rows_into(&w_self, part, &mut t));
                        ReplicaSlab::reassemble(slab, ctx, &mut t);
                        ctx.compute(add, || z_own.add_assign(&t));
                    } else {
                        ctx.compute(gemm + add, || {
                            h.matmul_into(&w_self, &mut t);
                            z_own.add_assign(&t);
                        });
                    }
                    put_tile(w_self, bufs);
                }
                bufs.put_dense(t);
                place_out(ctx, panel, z_own, (olo, ohi), d_out, bufs)
            } else {
                let (ilo, ihi) = own_range(panel, d);
                let ipw = ihi - ilo;
                let h_panel = slice_in(ctx, panel, &hs[l], (ilo, ihi), bufs);
                let h_in = h_panel.as_ref().unwrap_or(&hs[l]);
                let ah = dist_spmm(ctx, h_in, bufs);
                // Product against the own rows of W: all of Z without a
                // panel, a partial over the full output width with one.
                let mut z = bufs.take_dense(rows, d_out);
                match arch {
                    ArchKind::Gcn => {
                        let w_own = w_rows(w, ilo, ihi, bufs);
                        ctx.compute((2 * rows * ipw * d_out) as u64, || {
                            ah.matmul_into(&w_own, &mut z)
                        });
                        put_tile(w_own, bufs);
                        // GCN's backward takes ∂W from HᵀS.
                        bufs.put_dense(ah);
                    }
                    ArchKind::Sage => {
                        let mut tmp = bufs.take_dense(rows, d_out);
                        let w_self = w_rows(w, ilo, ihi, bufs);
                        let w_neigh = w_rows(w, d + ilo, d + ihi, bufs);
                        ctx.compute((4 * rows * ipw * d_out + rows * d_out) as u64, || {
                            h_in.matmul_into(&w_self, &mut z);
                            ah.matmul_into(&w_neigh, &mut tmp);
                            z.add_assign(&tmp);
                        });
                        put_tile(w_self, bufs);
                        put_tile(w_neigh, bufs);
                        bufs.put_dense(tmp);
                        // Backward pops it for ∂W_neigh = (ÂH)ᵀG.
                        ahs.push(ah);
                    }
                }
                if let Some(p) = panel {
                    ctx.allreduce_sum(z.data_mut(), &p.row_group);
                }
                if let Some(hp) = h_panel {
                    bufs.put_dense(hp);
                }
                z
            };
            let mut h = bufs.take_dense(rows, d_out);
            if l + 1 == l_total {
                h.data_mut().copy_from_slice(z.data());
            } else {
                ctx.compute((rows * d_out) as u64, || z.relu_into(&mut h));
            }
            zs.push(z);
            hs.push(h);
        }
        ctx.span_end();

        // ---- loss / metrics ----
        let (labels, mask) = (
            &ds.labels[rp.row_lo..rp.row_hi],
            &ds.train_mask[rp.row_lo..rp.row_hi],
        );
        let (record, g_count, mut g) =
            loss_and_metrics(ctx, &hs[l_total], labels, mask, all_group, bufs);

        // ---- backward ----
        ctx.span_begin(SpanKind::Backward, Phase::Other);
        // Every block row is held by pc·c ranks; the true masked count
        // normalizes the gradient.
        let denom = (g_count / (plan.pc * plan.c) as f64).max(1.0);
        g.scale(1.0 / denom);
        let mut grads: Vec<Dense> = Vec::with_capacity(l_total);

        for l in (0..l_total).rev() {
            let (d, d_out) = (dims[l], dims[l + 1]);
            let (ilo, ihi) = own_range(panel, d);
            let ipw = ihi - ilo;

            // S = AᵀG; with a panel, the SpMM of the own gradient panel,
            // reassembled to full width by summing the disjoint panels
            // across the grid row. Formed where somebody reads it: the
            // propagation below layer 0, GCN's ∂W = HᵀS, and SAGE's
            // ∂W_neigh at a layer that never formed ÂH.
            let narrow = order.narrow_first(dims, l);
            let s = (l > 0 || arch == ArchKind::Gcn || narrow).then(|| {
                let (olo, ohi) = own_range(panel, d_out);
                let g_panel = slice_in(ctx, panel, &g, (olo, ohi), bufs);
                let s_own = dist_spmm(ctx, g_panel.as_ref().unwrap_or(&g), bufs);
                if let Some(g_panel) = g_panel {
                    bufs.put_dense(g_panel);
                }
                place_out(ctx, panel, s_own, (olo, ohi), d_out, bufs)
            });

            // Weight gradient: this rank fills the own rows of Y; the
            // all-reduce over all p sums the distinct grid-row (and
            // panel) contributions and the c identical layer copies.
            let h_panel = slice_in(ctx, panel, &hs[l], (ilo, ihi), bufs);
            let h_in = h_panel.as_ref().unwrap_or(&hs[l]);
            let slab = slab0.filter(|_| l == 0);
            let part = ReplicaSlab::rows(slab, ipw);
            let gemm = (2 * rows * part.len() * d_out) as u64;
            let mut y = bufs.take_dense(weights.mats[l].rows(), d_out);
            let mut top = bufs.take_dense(ipw, d_out);
            match arch {
                ArchKind::Gcn => {
                    let s = s.as_ref().expect("GCN forms S at every layer");
                    ctx.compute(gemm, || h_in.transpose_matmul_rows_into(s, part, &mut top));
                    ReplicaSlab::reassemble(slab, ctx, &mut top);
                }
                ArchKind::Sage => {
                    let mut bottom = bufs.take_dense(ipw, d_out);
                    // ∂W_neigh = (ÂH)ᵀG from the layer's kept aggregate,
                    // or the same matrix as HᵀS where it kept none.
                    let ah = (!narrow).then(|| ahs.pop().expect("forward kept this layer's ÂH"));
                    let (lhs, rhs) = match &ah {
                        Some(ah) => (ah, &g),
                        None => (h_in, s.as_ref().expect("a narrow-first layer forms S")),
                    };
                    ctx.compute(2 * gemm, || {
                        h_in.transpose_matmul_rows_into(&g, part.clone(), &mut top);
                        lhs.transpose_matmul_rows_into(rhs, part, &mut bottom);
                    });
                    ReplicaSlab::reassemble(slab, ctx, &mut top);
                    ReplicaSlab::reassemble(slab, ctx, &mut bottom);
                    y.data_mut()[(d + ilo) * d_out..(d + ihi) * d_out]
                        .copy_from_slice(bottom.data());
                    bufs.put_dense(bottom);
                    if let Some(ah) = ah {
                        bufs.put_dense(ah);
                    }
                }
            }
            y.data_mut()[ilo * d_out..ihi * d_out].copy_from_slice(top.data());
            bufs.put_dense(top);
            if let Some(hp) = h_panel {
                bufs.put_dense(hp);
            }
            ctx.allreduce_sum(y.data_mut(), all_group);
            y.scale(1.0 / plan.c as f64);
            grads.push(y); // reverse layer order; fixed up below
            if l > 0 {
                // Full-width local propagation (s and z_prev are
                // full-width and replicated on every shape).
                let (w, prev_z) = (&weights.mats[l], &zs[l - 1]);
                let s = s.as_ref().expect("S is formed above layer 0");
                propagate_gradient(ctx, arch, w, prev_z, s, &mut g, bufs);
            }
            if let Some(s) = s {
                bufs.put_dense(s);
            }
        }
        grads.reverse();
        ctx.span_end();

        bufs.put_dense(g);
        ctx.span_end(); // epoch
        (grads, record)
    }
}

/// The loss / metrics step of one epoch: local masked cross-entropy
/// sums, the `[loss, count, correct]` all-reduce over `all_group`, and
/// the epoch's record. Returns the record, the global
/// (replication-inflated) masked count, and the local logit gradient sum
/// — a pooled matrix, so the step leaves the pool as it found it once the
/// caller retires the gradient. One pass over the masked rows computes
/// the loss, the gradient and the argmax; no other row is read.
fn loss_and_metrics(
    ctx: &mut RankCtx,
    logits: &Dense,
    labels: &[u32],
    mask: &[bool],
    all_group: &[usize],
    bufs: &mut EpochBuffers,
) -> (EpochRecord, f64, Dense) {
    ctx.span_begin(SpanKind::Loss, Phase::Other);
    let mut grad_sum = bufs.take_dense(logits.rows(), logits.cols());
    let (loss_sum, count, correct) =
        softmax_cross_entropy_sums_into(logits, labels, mask, &mut grad_sum);
    // `accuracy · count`, rounded as `accuracy` rounds it: the reduced
    // sums feed records that are pinned to the bit.
    let accuracy = if count == 0 {
        0.0
    } else {
        correct as f64 / count as f64
    };
    let mut sums = [loss_sum, count as f64, accuracy * count as f64];
    ctx.allreduce_sum(&mut sums, all_group);
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
/// Each product is a GEMM against a pooled transposed tile of `W`, the
/// same bits as `matmul_transpose_into`'s dot products (`W` is finite),
/// and the ReLU′ mask is one multiply per element.
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
    match arch {
        ArchKind::Gcn => {
            let w_t = w_rows_t(w, 0, d, bufs);
            ctx.compute((2 * rows * d_out * d + 2 * rows * d) as u64, || {
                s.matmul_into(&w_t, &mut gg);
                gg.mul_relu_prime_assign(prev_z);
            });
            bufs.put_dense(w_t);
        }
        ArchKind::Sage => {
            let w_self_t = w_rows_t(w, 0, d, bufs);
            let w_neigh_t = w_rows_t(w, d, 2 * d, bufs);
            let mut tmp = bufs.take_dense(rows, d);
            ctx.compute((4 * rows * d_out * d + 3 * rows * d) as u64, || {
                g.matmul_into(&w_self_t, &mut gg);
                s.matmul_into(&w_neigh_t, &mut tmp);
                gg.add_assign(&tmp);
                gg.mul_relu_prime_assign(prev_z);
            });
            for m in [w_self_t, w_neigh_t, tmp] {
                bufs.put_dense(m);
            }
        }
    }
    bufs.put_dense(std::mem::replace(g, gg));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::even_bounds;
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
    fn crash_at_the_slab_allreduce_restarts_from_the_checkpoint() {
        use gnn_comm::trace::EventKind;
        let ds = reddit_scaled(7, 11);
        let cfg = GcnConfig::paper_default(ds.f(), ds.num_classes);
        let bounds = even_bounds(ds.n(), 2); // pr = 2, c = 2 → p = 4
        let (epochs, crash_epoch) = (5, 2);
        let mut clean_cfg = DistConfig::new(
            Algo::OneFiveD { aware: true, c: 2 },
            cfg,
            epochs,
            CostModel::perlmutter_like(),
        );
        clean_cfg.trace = true;
        let clean = train_distributed(&ds, &bounds, &clean_cfg);
        // Op 2 of rank 1's epoch (counted as a crash rule counts) is
        // layer 0's slab all-reduce of H⁰·W₀'s 16-wide rows, right after
        // the slab product.
        let rows = (bounds[1] - bounds[0]) as u64;
        let trace = clean.trace.as_ref().expect("traced");
        let mut ops = trace.per_rank[1]
            .iter()
            .filter(|e| e.epoch == crash_epoch as i64 && !e.kind.is_span());
        assert_eq!(ops.next().map(|e| e.kind), Some(EventKind::Compute));
        let op2 = ops.next().expect("a second op");
        assert_eq!(
            (op2.kind, op2.bytes_sent),
            (EventKind::AllReduce, 8 * rows * 16)
        );

        let mut faulty_cfg = clean_cfg.clone();
        faulty_cfg.robust = RobustnessConfig {
            faults: Some(FaultPlan::parse(&format!("crash=1@{crash_epoch}:2")).unwrap()),
            checkpoint_every: 1,
            max_restarts: 1,
            timeout: Duration::from_secs(10),
        };
        let faulty = try_train_distributed(&ds, &bounds, &faulty_cfg)
            .expect("a checkpoint restart should recover a crash at the slab all-reduce");
        assert_eq!(faulty.restarts, 1);
        assert_eq!(faulty.resume_points, vec![crash_epoch]);
        assert_eq!(faulty.records.len(), clean.records.len());
        for (a, b) in faulty.records.iter().zip(&clean.records) {
            assert_eq!(a.loss.to_bits(), b.loss.to_bits());
            assert_eq!(a.train_accuracy.to_bits(), b.train_accuracy.to_bits());
        }
        assert_eq!(faulty.weights.max_abs_diff(&clean.weights), 0.0);
        // The resumed world runs the same split epochs: every rank enters
        // as many all-reduces per epoch as in the fault-free run.
        let all_reduces =
            |out: &DistOutcome, rank: usize| out.stats.per_rank[rank].phase(Phase::AllReduce).ops;
        for rank in 0..4 {
            let per_epoch = all_reduces(&clean, rank) / epochs as u64;
            let resumed = (epochs - crash_epoch) as u64;
            assert_eq!(
                all_reduces(&faulty, rank),
                per_epoch * resumed,
                "rank {rank}"
            );
        }
    }

    #[test]
    fn losing_a_whole_replica_group_restarts_from_the_checkpoint() {
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

        // Ranks 0 and 1 are the two replicas of block row 0; both die as
        // epoch 2 begins, so no rank holds that block row any more.
        let mut faulty_cfg = clean_cfg.clone();
        faulty_cfg.robust = RobustnessConfig {
            faults: Some(FaultPlan::new(5).crash_at(0, 2, 0).crash_at(1, 2, 0)),
            checkpoint_every: 1,
            max_restarts: 1,
            timeout: Duration::from_secs(10),
        };
        let faulty = try_train_distributed(&ds, &bounds, &faulty_cfg)
            .expect("checkpoint restart should recover the run");

        assert_eq!(faulty.restarts, 1, "one restart for both deaths");
        assert_eq!(faulty.resume_points, vec![2]);
        assert_eq!(faulty.records.len(), clean.records.len());
        for (a, b) in faulty.records.iter().zip(&clean.records) {
            assert_eq!(a.loss.to_bits(), b.loss.to_bits());
        }
        assert_eq!(faulty.weights.max_abs_diff(&clean.weights), 0.0);
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
