//! The grid template: 1D, 1.5D, 2D and 3D distributed SpMM as four shapes
//! of one `pr × pc × c` plan.
//!
//! Because the adjacency pattern never changes during training (§1 of the
//! paper), the `NnzCols(i, k)` sets, the per-source tiles of the local
//! block row and the send/receive row lists are computed **once** and
//! reused by every SpMM of every epoch — this is what amortizes the
//! preprocessing.
//!
//! Layout: `Aᵀ` is blocked both ways over `pr` block rows; the dense
//! matrices (`H`, `Z`) are blocked by **rows across grid rows** and
//! **feature panels across the `pc` grid columns**, and every dense block
//! `H[i][j]` is **replicated on `c` layers**. The `pr` SUMMA stages
//!
//! ```text
//! Z[i][j] = Σₖ Aᵀ[i][k] · H[k][j]
//! ```
//!
//! are split across the layers: layer `l` folds only the stage slice
//! `k ∈ [s_l, s_{l+1})` (an even split of `0..pr`), and the `c` partial
//! sums are combined by an all-reduce over the replicas of block
//! `(i, j)`. For stage `k` the *designated sender* is the replica of
//! `H[k][j]` living on the layer that folds `k`, so all point-to-point
//! traffic stays inside one grid column of one layer. The
//! sparsity-oblivious variant ships the whole block; the sparsity-aware
//! variant ships only `NnzCols(i, k)`.
//!
//! | shape | constructor | rank of `(i, j, l)` | trailing reduce |
//! |---|---|---|---|
//! | 1D (Algorithm 1) | [`GridPlan::oned`]: `pr = p`, `pc = 1`, `c = 1` | `i` | none |
//! | 1.5D (Algorithm 2) | [`GridPlan::onefived`]: `pr = p/c`, `pc = 1`, `c² \| p` | `i·c + l` | process row, `c` ranks |
//! | 2D (SUMMA) | [`GridPlan::twod`]: `c = 1` | `i·pc + j` | none |
//! | 3D (2.5D-style) | [`GridPlan::threed`]: `1 ≤ c ≤ pr` | `l·pr·pc + i·pc + j` | fiber, `c` ranks |
//!
//! The 1.5D layout *is* the 3D layout with `pc = 1` up to that rank
//! numbering (same stage slices, same designated senders, same reduce
//! group in the same fold order), and 2D is 3D with `c = 1` minus the
//! one-rank all-reduce; both equivalences are unit-tested below. Every
//! peer in a built plan is a resolved linear rank, so the executors and
//! the analytic replay never ask which shape they serve.
//!
//! The plan is one; *delivery* stays per family. The staged executor of
//! this module moves each stage point to point, which is what Algorithm 2
//! and SUMMA are. Algorithm 1 is a single all-to-allv (oblivious: `p`
//! broadcasts) — a different collective with a different α–β price, op
//! count and [`Phase`] — so the 1D executor in [`super::oned`] keeps its
//! collectives and reads the same `stages`/`sends` the staged executor
//! reads.

use gnn_comm::msg::Payload;
use gnn_comm::{Phase, RankCtx, SpanKind};
use spmat::gen::sbm::block_bounds;
use spmat::spmm::{spmm_acc, spmm_flops};
use spmat::{Csr, Dense};

use super::buffers::EpochBuffers;

/// One stage of the computation on one rank: the column block it
/// multiplies and the `H` rows that block needs.
#[derive(Clone, Debug)]
pub struct Stage {
    /// Block-row index `k` of `H` consumed by this stage.
    pub k: usize,
    /// Linear rank of the designated sender of `H[k][j]`; the rank's own
    /// stage (`k == i`, read from the local block) names the rank itself.
    pub src_rank: usize,
    /// Global rows of `H` block `k` this stage reads (`NnzCols(i, k)`
    /// for the sparsity-aware variant; all of `k`'s range otherwise).
    pub needed: Vec<u32>,
    /// `Aᵀ[i][k]` with columns remapped to where the operand row lives
    /// when the stage multiplies: its position in `needed` (the received
    /// payload) for a remote stage, its local row `g − row_lo` for the
    /// own stage, which multiplies against the local block in place.
    pub block_compact: Csr,
}

/// Per-rank plan: coordinates, owned rows, and resolved peers.
#[derive(Clone, Debug)]
pub struct RankPlan {
    /// This entry's linear rank.
    pub rank: usize,
    /// Grid row (block row owned).
    pub i: usize,
    /// Grid column (feature panel owned).
    pub j: usize,
    /// Replication layer.
    pub l: usize,
    /// First global row of the owned `H`/`Z` block.
    pub row_lo: usize,
    /// One past the last global row of the owned block.
    pub row_hi: usize,
    /// `(dst_rank, rows)`: rows of the owned `H` block to ship, in
    /// ascending grid-row order of the destination. Non-empty only on
    /// the designated-sender replica; self and empty shipments are
    /// already dropped.
    pub sends: Vec<(usize, Vec<u32>)>,
    /// The stages this rank's layer folds, ascending in `k`.
    pub stages: Vec<Stage>,
    /// The `c` replicas of block `(i, j)` in layer order — the trailing
    /// all-reduce group. Empty for the 2D shape, which has no reduce.
    pub reduce_group: Vec<usize>,
}

impl RankPlan {
    /// Rows of the owned `H`/`Z` block.
    pub fn rows(&self) -> usize {
        self.row_hi - self.row_lo
    }
}

/// The distribution plan of one grid shape.
#[derive(Clone, Debug)]
pub struct GridPlan {
    /// Matrix dimension.
    pub n: usize,
    /// Grid rows.
    pub pr: usize,
    /// Grid columns (feature panels).
    pub pc: usize,
    /// Replication layers.
    pub c: usize,
    /// Row-block boundaries (`pr + 1`).
    pub bounds: Vec<usize>,
    /// Whether exchanges are sparsity-aware.
    pub aware: bool,
    /// Span kind the executors open around one SpMM.
    pub span: SpanKind,
    /// Rank-indexed plans.
    pub ranks: Vec<RankPlan>,
    /// Rank-numbering strides of `(i, j, l)`.
    stride: [usize; 3],
}

impl GridPlan {
    /// The 1D plan (Algorithm 1): block row `i` on rank `i`; `bounds` has
    /// `p + 1` entries (from `partition::Partition::block_bounds` or
    /// [`even_bounds`]).
    ///
    /// # Panics
    /// Panics if `bounds` is not a cover of `0..n`.
    pub fn oned(adj: &Csr, bounds: &[usize], aware: bool) -> GridPlan {
        let shape = (bounds.len() - 1, 1, 1);
        Self::build(
            adj,
            shape,
            bounds,
            aware,
            SpanKind::Spmm1d,
            [1, 0, 0],
            false,
        )
    }

    /// The 1.5D plan (Algorithm 2): `p/c` block rows, each replicated on
    /// `c` ranks; `bounds` has `p/c + 1` entries.
    ///
    /// # Panics
    /// Panics unless `c² | p` (the paper's grid requirement) and `bounds`
    /// covers `0..n` with `p/c` parts.
    pub fn onefived(adj: &Csr, p: usize, c: usize, bounds: &[usize], aware: bool) -> GridPlan {
        assert!(
            c >= 1 && p.is_multiple_of(c * c),
            "need c² | p (got p={p}, c={c})"
        );
        let shape = (p / c, 1, c);
        Self::build(
            adj,
            shape,
            bounds,
            aware,
            SpanKind::Spmm15d,
            [c, 0, 1],
            true,
        )
    }

    /// The 2D (SUMMA) plan on a `pr × pc` grid; `bounds` has `pr + 1`
    /// entries.
    ///
    /// # Panics
    /// Panics if `bounds` doesn't cover `0..n` with `pr` parts.
    pub fn twod(adj: &Csr, pr: usize, pc: usize, bounds: &[usize], aware: bool) -> GridPlan {
        let shape = (pr, pc, 1);
        Self::build(
            adj,
            shape,
            bounds,
            aware,
            SpanKind::Spmm2d,
            [pc, 1, 0],
            false,
        )
    }

    /// The 3D (2.5D-style) plan: the `pr × pc` grid replicated over `c`
    /// layers; `bounds` has `pr + 1` entries.
    ///
    /// # Panics
    /// Panics if `bounds` doesn't cover `0..n` with `pr` parts or if `c`
    /// is not in `1..=pr`.
    pub fn threed(
        adj: &Csr,
        pr: usize,
        pc: usize,
        c: usize,
        bounds: &[usize],
        aware: bool,
    ) -> GridPlan {
        assert!(c >= 1 && c <= pr, "need 1 <= c <= pr (got c={c}, pr={pr})");
        let stride = [pc, 1, pr * pc];
        Self::build(
            adj,
            (pr, pc, c),
            bounds,
            aware,
            SpanKind::Spmm3d,
            stride,
            true,
        )
    }

    fn build(
        adj: &Csr,
        (pr, pc, c): (usize, usize, usize),
        bounds: &[usize],
        aware: bool,
        span: SpanKind,
        stride: [usize; 3],
        reduces: bool,
    ) -> GridPlan {
        let n = adj.rows();
        assert_eq!(bounds.len(), pr + 1, "bounds must have pr + 1 entries");
        assert_eq!(bounds[pr], n, "bounds must cover all rows");
        assert!(pc >= 1);
        let rank_of = |i: usize, j: usize, l: usize| i * stride[0] + j * stride[1] + l * stride[2];
        let layer_slices = block_bounds(pr, c);

        // Per (i, k): needed rows + compact block of Aᵀ[i][k], computed
        // once; the pc panel ranks of the one layer that folds stage k
        // share it — clones for the first pc − 1, the original for the
        // last, so a one-panel shape (1D, 1.5D) copies nothing.
        type Tile = (Vec<u32>, Csr);
        let mut blocks: Vec<Vec<Option<Tile>>> = (0..pr)
            .map(|i| {
                let row = adj.row_block(bounds[i], bounds[i + 1]);
                (0..pr)
                    .map(|k| {
                        let (klo, khi) = (bounds[k], bounds[k + 1]);
                        let block = row.col_range_block(klo, khi);
                        let all_rows = || (klo as u32..khi as u32).collect::<Vec<u32>>();
                        let needed = if aware {
                            block.distinct_cols_in_range(klo, khi)
                        } else {
                            all_rows()
                        };
                        let compact = if aware && k == i {
                            block.remap_cols(&all_rows())
                        } else {
                            block.remap_cols(&needed)
                        };
                        Some((needed, compact))
                    })
                    .collect()
            })
            .collect();
        // Block row i's shipments: (destination grid row, its needed rows).
        let shipments: Vec<Vec<(usize, Vec<u32>)>> = (0..pr)
            .map(|i| {
                let needed_by = |t: usize| &blocks[t][i].as_ref().expect("tile not yet moved").0;
                (0..pr)
                    .filter(|&t| t != i && !needed_by(t).is_empty())
                    .map(|t| (t, needed_by(t).clone()))
                    .collect()
            })
            .collect();

        let mut ranks = Vec::with_capacity(pr * pc * c);
        for l in 0..c {
            let slice = layer_slices[l]..layer_slices[l + 1];
            for i in 0..pr {
                for j in 0..pc {
                    let stages = slice
                        .clone()
                        .map(|k| {
                            let tile = &mut blocks[i][k];
                            let tile = if j + 1 == pc {
                                tile.take()
                            } else {
                                tile.clone()
                            };
                            let (needed, block_compact) = tile.expect("one layer folds a tile");
                            Stage {
                                k,
                                src_rank: rank_of(k, j, l),
                                needed,
                                block_compact,
                            }
                        })
                        .collect();
                    // Only the replica on the layer that folds stage
                    // k = i ships block row i, to its own grid column.
                    let sends = if slice.contains(&i) {
                        shipments[i]
                            .iter()
                            .map(|(t, idx)| (rank_of(*t, j, l), idx.clone()))
                            .collect()
                    } else {
                        Vec::new()
                    };
                    let reduce_group = if reduces {
                        (0..c).map(|ll| rank_of(i, j, ll)).collect()
                    } else {
                        Vec::new()
                    };
                    ranks.push(RankPlan {
                        rank: rank_of(i, j, l),
                        i,
                        j,
                        l,
                        row_lo: bounds[i],
                        row_hi: bounds[i + 1],
                        sends,
                        stages,
                        reduce_group,
                    });
                }
            }
        }
        ranks.sort_by_key(|rp| rp.rank);
        GridPlan {
            n,
            pr,
            pc,
            c,
            bounds: bounds.to_vec(),
            aware,
            span,
            ranks,
            stride,
        }
    }

    /// World size `pr · pc · c`.
    pub fn p(&self) -> usize {
        self.ranks.len()
    }

    /// Linear rank of grid position `(i, j, l)`.
    pub fn rank_of(&self, i: usize, j: usize, l: usize) -> usize {
        i * self.stride[0] + j * self.stride[1] + l * self.stride[2]
    }

    /// Splits a feature width into `pc` panel boundaries.
    pub fn panel_bounds(&self, f: usize) -> Vec<usize> {
        block_bounds(f, self.pc)
    }
}

/// Even `p + 1` boundaries over `0..n` (the no-partitioner distribution).
pub fn even_bounds(n: usize, p: usize) -> Vec<usize> {
    block_bounds(n, p)
}

/// Packs one outbound block of `h_local`, into buffers from the world's
/// pool, for a peer that needs the rows `idx`: the indexed rows when
/// sparsity-aware (their element count is added to `pack_elems`), the
/// whole block otherwise.
pub(super) fn pack_block(
    ctx: &RankCtx,
    aware: bool,
    h_local: &Dense,
    row_lo: usize,
    idx: &[u32],
    pack_elems: &mut u64,
) -> Payload {
    if aware {
        let f = h_local.cols();
        let mut data = ctx.take_f64(idx.len() * f);
        h_local.pack_rows_extend(idx, row_lo, &mut data);
        *pack_elems += (idx.len() * f) as u64;
        let mut ids = ctx.take_u32(idx.len());
        ids.extend_from_slice(idx);
        Payload::Rows { idx: ids, data }
    } else {
        let mut data = ctx.take_f64(h_local.data().len());
        data.extend_from_slice(h_local.data());
        Payload::F64(data)
    }
}

/// Multiplies `block` into `acc` against the rows a payload carries,
/// where they arrived: the data vector becomes the `rows × f` operand as
/// it is and goes back into the payload afterwards, for the caller to
/// recycle.
pub(super) fn fold_payload(
    block: &Csr,
    arrived: &mut Payload,
    rows: usize,
    f: usize,
    acc: &mut Dense,
) {
    let (Payload::F64(data) | Payload::Rows { data, .. }) = arrived else {
        panic!("a stage's rows arrive as F64 or Rows");
    };
    let operand = Dense::from_vec(rows, f, std::mem::take(data));
    spmm_acc(block, &operand, acc);
    *data = operand.into_vec();
}

/// Blocking send phase of plan entry `rp`: packs and ships every outbound
/// block, each addressed to `route(dst)`.
pub(super) fn ship_blocks(
    ctx: &mut RankCtx,
    plan: &GridPlan,
    rp: &RankPlan,
    h_local: &Dense,
    route: impl Fn(usize) -> usize,
) {
    let mut pack_elems = 0u64;
    for (dst, idx) in &rp.sends {
        let payload = pack_block(ctx, plan.aware, h_local, rp.row_lo, idx, &mut pack_elems);
        ctx.send(route(*dst), payload);
    }
    if pack_elems > 0 {
        ctx.record_compute(pack_elems);
    }
}

/// Blocking stage loop of plan entry `rp`: folds each stage into the
/// accumulated partial `Z[i][j]`, multiplying the stage's block against
/// its operand where that already is — the local block for the rank's own
/// stage (charged as the gather the model prices), nothing for an empty
/// one, otherwise the block received from `route(src)`, sent home to that
/// rank's lane of the world's pool afterwards.
pub(super) fn fold_stages(
    ctx: &mut RankCtx,
    rp: &RankPlan,
    h_local: &Dense,
    bufs: &mut EpochBuffers,
    route: impl Fn(usize) -> usize,
) -> Dense {
    let f = h_local.cols();
    let mut z = bufs.take_dense(rp.rows(), f);
    for st in &rp.stages {
        let rows = st.needed.len();
        let block = &st.block_compact;
        let flops = spmm_flops(block, f);
        if st.src_rank == rp.rank {
            ctx.record_compute((rows * f) as u64);
            ctx.compute(flops, || spmm_acc(block, h_local, &mut z));
            continue;
        }
        let from = route(st.src_rank);
        let mut arrived = match rows {
            0 => Payload::F64(Vec::new()),
            _ => ctx.recv(from),
        };
        if let Payload::Rows { idx, .. } = &arrived {
            debug_assert_eq!(*idx, st.needed, "row ids mismatch at stage k={}", st.k);
        }
        ctx.compute(flops, || fold_payload(block, &mut arrived, rows, f, &mut z));
        ctx.recycle(from, arrived);
    }
    z
}

/// One grid SpMM on the calling rank: computes `Z[i][j] = (Aᵀ H)[i][j]`
/// from the local block `h_local` (`rows_i × panel_width`, identical on
/// every layer replica), replicated across the reduce group.
pub fn spmm_grid(ctx: &mut RankCtx, plan: &GridPlan, h_local: &Dense) -> Dense {
    spmm_grid_buf(ctx, plan, h_local, &mut EpochBuffers::new())
}

/// [`spmm_grid`] with caller-provided scratch: the accumulator comes from
/// `bufs`; outbound blocks are packed into buffers from the world's pool
/// and received ones recycled into it, so repeated calls are
/// allocation-free on every rank once both are warm.
pub fn spmm_grid_buf(
    ctx: &mut RankCtx,
    plan: &GridPlan,
    h_local: &Dense,
    bufs: &mut EpochBuffers,
) -> Dense {
    let rp = &plan.ranks[ctx.rank()];
    assert_eq!(h_local.rows(), rp.rows(), "local H block shape mismatch");
    ctx.span_begin(plan.span, Phase::P2p);
    ship_blocks(ctx, plan, rp, h_local, |r| r);
    let mut z = fold_stages(ctx, rp, h_local, bufs, |r| r);
    if !rp.reduce_group.is_empty() {
        ctx.allreduce_sum(z.data_mut(), &rp.reduce_group);
    }
    ctx.span_end();
    z
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;
    use gnn_comm::{CostModel, ThreadWorld, WorldStats};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use spmat::gen::{grid2d, rmat, RmatConfig};
    use spmat::graph::gcn_normalize;
    use spmat::spmm::spmm;

    /// A grid shape: which constructor, with which parameters.
    #[derive(Clone, Copy, Debug)]
    pub(crate) enum Shape {
        /// `onefived(p, c)`.
        OneFiveD(usize, usize),
        /// `twod(pr, pc)`.
        TwoD(usize, usize),
        /// `threed(pr, pc, c)`.
        ThreeD(usize, usize, usize),
    }

    impl Shape {
        pub(crate) fn plan(self, adj: &Csr, aware: bool) -> GridPlan {
            let bounds = |pr| even_bounds(adj.rows(), pr);
            match self {
                Shape::OneFiveD(p, c) => GridPlan::onefived(adj, p, c, &bounds(p / c), aware),
                Shape::TwoD(pr, pc) => GridPlan::twod(adj, pr, pc, &bounds(pr), aware),
                Shape::ThreeD(pr, pc, c) => GridPlan::threed(adj, pr, pc, c, &bounds(pr), aware),
            }
        }
    }

    pub(crate) fn setup(scale: u32, seed: u64, f: usize) -> (Csr, Dense) {
        let adj = gcn_normalize(&rmat(RmatConfig::graph500(scale, 5, seed)));
        let mut rng = StdRng::seed_from_u64(seed ^ 31);
        let h = Dense::glorot(adj.rows(), f, &mut rng);
        (adj, h)
    }

    /// Rank `rp`'s block of a full dense matrix: its rows, its panel
    /// (identical for every layer replica).
    pub(crate) fn local_block(h: &Dense, plan: &GridPlan, rp: &RankPlan) -> Dense {
        let rows = h.row_slice(rp.row_lo, rp.row_hi);
        let pb = plan.panel_bounds(h.cols());
        Dense::from_fn(rows.rows(), pb[rp.j + 1] - pb[rp.j], |r, c| {
            rows.get(r, pb[rp.j] + c)
        })
    }

    /// Reassembles the full matrix from layer 0's blocks.
    fn assemble(blocks: &[Dense], plan: &GridPlan, f: usize) -> Dense {
        let pb = plan.panel_bounds(f);
        let mut out = Dense::zeros(plan.n, f);
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
        out
    }

    fn run(adj: &Csr, h: &Dense, shape: Shape, aware: bool) -> (Vec<Dense>, GridPlan, WorldStats) {
        let plan = shape.plan(adj, aware);
        let world = ThreadWorld::new(plan.p(), CostModel::perlmutter_like());
        let (blocks, stats) = world.run(|ctx| {
            let local = local_block(h, &plan, &plan.ranks[ctx.rank()]);
            spmm_grid(ctx, &plan, &local)
        });
        (blocks, plan, stats)
    }

    fn max_p2p_recv(st: &WorldStats) -> u64 {
        let recv = |r: &gnn_comm::RankStats| r.phase(Phase::P2p).bytes_recv;
        st.per_rank.iter().map(recv).max().unwrap()
    }

    #[test]
    fn aware_matches_sequential() {
        use Shape::*;
        let (adj, h) = setup(6, 1, 8);
        let expected = spmm(&adj, &h);
        for shape in [
            OneFiveD(4, 1),
            OneFiveD(4, 2),
            OneFiveD(8, 2),
            OneFiveD(16, 4),
            OneFiveD(9, 3),
            TwoD(2, 2),
            TwoD(4, 2),
            TwoD(2, 4),
            TwoD(4, 1),
            TwoD(1, 4),
            ThreeD(2, 1, 2),
            ThreeD(2, 2, 2),
            ThreeD(4, 1, 2),
            ThreeD(4, 2, 4),
            ThreeD(4, 2, 1),
        ] {
            let (blocks, plan, _) = run(&adj, &h, shape, true);
            let got = assemble(&blocks, &plan, h.cols());
            assert!(got.approx_eq(&expected, 1e-11), "{shape:?}");
        }
    }

    #[test]
    fn oblivious_matches_sequential() {
        use Shape::*;
        let (adj, h) = setup(6, 2, 8);
        let expected = spmm(&adj, &h);
        for shape in [
            OneFiveD(4, 2),
            OneFiveD(8, 2),
            OneFiveD(16, 4),
            TwoD(2, 2),
            ThreeD(2, 2, 2),
        ] {
            let (blocks, plan, _) = run(&adj, &h, shape, false);
            let got = assemble(&blocks, &plan, h.cols());
            assert!(got.approx_eq(&expected, 1e-11), "{shape:?}");
        }
    }

    #[test]
    fn replicas_agree_bitwise() {
        // Every layer holds the same reduced block, bit for bit.
        let (adj, h) = setup(6, 3, 8);
        for shape in [Shape::OneFiveD(8, 2), Shape::ThreeD(2, 2, 2)] {
            let (blocks, plan, _) = run(&adj, &h, shape, true);
            for rp in &plan.ranks {
                let base = &blocks[plan.rank_of(rp.i, rp.j, 0)];
                assert_eq!(
                    base.data(),
                    blocks[rp.rank].data(),
                    "{shape:?}: replica ({}, {}, {}) diverged",
                    rp.i,
                    rp.j,
                    rp.l
                );
            }
        }
    }

    #[test]
    fn aware_communicates_less() {
        let (adj, h) = setup(8, 3, 8);
        for shape in [
            Shape::OneFiveD(8, 2),
            Shape::TwoD(4, 2),
            Shape::ThreeD(4, 1, 2),
        ] {
            let (_, _, st_a) = run(&adj, &h, shape, true);
            let (_, _, st_o) = run(&adj, &h, shape, false);
            let (a, o) = (
                st_a.phase_bytes_total(Phase::P2p),
                st_o.phase_bytes_total(Phase::P2p),
            );
            assert!(a > 0 && a < o, "{shape:?}: sent aware {a} vs oblivious {o}");
            let (a, o) = (
                st_a.phase_recv_bytes_total(Phase::P2p),
                st_o.phase_recv_bytes_total(Phase::P2p),
            );
            assert!(a > 0 && a < o, "{shape:?}: recv aware {a} vs oblivious {o}");
        }
    }

    #[test]
    fn onefived_replication_reduces_p2p_volume() {
        // Same p, larger c → fewer, bigger blocks → less total traffic
        // (each block row is fetched by fewer distinct consumers).
        let (adj, h) = setup(8, 5, 6);
        let (_, _, c2) = run(&adj, &h, Shape::OneFiveD(16, 2), true);
        let (_, _, c4) = run(&adj, &h, Shape::OneFiveD(16, 4), true);
        assert!(
            c4.phase_bytes_total(Phase::P2p) < c2.phase_bytes_total(Phase::P2p),
            "c=4 {} vs c=2 {}",
            c4.phase_bytes_total(Phase::P2p),
            c2.phase_bytes_total(Phase::P2p)
        );
    }

    #[test]
    fn allreduce_volume_grows_with_c() {
        let (adj, h) = setup(7, 6, 6);
        let (_, _, c2) = run(&adj, &h, Shape::OneFiveD(16, 2), true);
        let (_, _, c4) = run(&adj, &h, Shape::OneFiveD(16, 4), true);
        // Larger c → bigger block rows (n/(p/c) rows) and bigger groups.
        assert!(
            c4.phase_time(Phase::AllReduce) > c2.phase_time(Phase::AllReduce),
            "c=4 {} vs c=2 {}",
            c4.phase_time(Phase::AllReduce),
            c2.phase_time(Phase::AllReduce)
        );
    }

    #[test]
    fn c_equals_one_reduces_to_1d_pattern() {
        // With c = 1 the result must still be correct and all traffic is
        // point-to-point.
        let (adj, h) = setup(6, 7, 3);
        let (blocks, plan, stats) = run(&adj, &h, Shape::OneFiveD(4, 1), true);
        assert!(assemble(&blocks, &plan, 3).approx_eq(&spmm(&adj, &h), 1e-11));
        assert_eq!(stats.phase_time(Phase::AllReduce), 0.0);
    }

    #[test]
    fn communication_stays_within_grid_columns() {
        // 2D, pc=2: per-rank p2p traffic must exist and the SpMM itself
        // reduces nothing (the trainer's panel GEMM owns the grid-row
        // all-reduce).
        let (adj, h) = setup(6, 6, 8);
        let (_, plan, st) = run(&adj, &h, Shape::TwoD(2, 2), true);
        assert!(st.phase_recv_bytes_total(Phase::P2p) > 0);
        assert_eq!(st.phase_recv_bytes_total(Phase::AllReduce), 0);
        for rp in &plan.ranks {
            let peers = rp.sends.iter().map(|(dst, _)| *dst);
            for peer in peers.chain(rp.stages.iter().map(|st| st.src_rank)) {
                assert_eq!(plan.ranks[peer].j, rp.j, "rank {} left its column", rp.rank);
            }
        }
    }

    #[test]
    fn panels_shrink_per_rank_traffic() {
        // Widening the grid (more feature panels) divides each rank's
        // exchanged bytes, the 2D scaling promise.
        let (adj, h) = setup(8, 4, 16);
        let (_, _, pc1) = run(&adj, &h, Shape::TwoD(4, 1), true);
        let (_, _, pc4) = run(&adj, &h, Shape::TwoD(4, 4), true);
        assert!(
            max_p2p_recv(&pc4) < max_p2p_recv(&pc1) / 2,
            "pc=4 {} !< pc=1 {} / 2",
            max_p2p_recv(&pc4),
            max_p2p_recv(&pc1)
        );
    }

    #[test]
    fn replication_divides_p2p_volume() {
        // With c layers each rank folds ~pr/c stages, so its p2p bytes
        // shrink accordingly; the fiber allreduce is the price.
        let (adj, h) = setup(8, 4, 16);
        let (_, _, c1) = run(&adj, &h, Shape::ThreeD(4, 1, 1), true);
        let (_, _, c4) = run(&adj, &h, Shape::ThreeD(4, 1, 4), true);
        assert!(
            max_p2p_recv(&c4) < max_p2p_recv(&c1),
            "c=4 {} !< c=1 {}",
            max_p2p_recv(&c4),
            max_p2p_recv(&c1)
        );
        // The fiber allreduce is charged on every member (even the
        // degenerate c=1 singleton, matching the collective's uniform
        // accounting), so replication multiplies the total volume.
        assert!(
            c4.phase_recv_bytes_total(Phase::AllReduce)
                > c1.phase_recv_bytes_total(Phase::AllReduce)
        );
    }

    /// The parts of two rank entries an executor acts on, with `b`'s
    /// ranks translated through `map`.
    fn assert_same_duties(a: &RankPlan, b: &RankPlan, map: impl Fn(usize) -> usize, what: &str) {
        assert_eq!(
            (a.i, a.row_lo, a.row_hi),
            (b.i, b.row_lo, b.row_hi),
            "{what}"
        );
        let b_sends: Vec<(usize, &Vec<u32>)> =
            b.sends.iter().map(|(dst, idx)| (map(*dst), idx)).collect();
        let a_sends: Vec<(usize, &Vec<u32>)> = a.sends.iter().map(|(d, idx)| (*d, idx)).collect();
        assert_eq!(a_sends, b_sends, "{what}: sends");
        assert_eq!(a.stages.len(), b.stages.len(), "{what}: stage count");
        for (sa, sb) in a.stages.iter().zip(&b.stages) {
            assert_eq!((sa.k, sa.src_rank), (sb.k, map(sb.src_rank)), "{what}");
            assert_eq!(sa.needed, sb.needed, "{what}: stage {}", sa.k);
            assert_eq!(sa.block_compact, sb.block_compact, "{what}: stage {}", sa.k);
        }
    }

    #[test]
    fn onefived_is_threed_with_one_panel() {
        // onefived(p, c) ≡ threed(p/c, 1, c) under i·c + l ↔ l·pr + i:
        // same sends, stages and reduce groups after mapping.
        let (adj, _) = setup(6, 8, 1);
        for (p, c) in [(4, 1), (4, 2), (8, 2), (16, 4), (9, 3)] {
            for aware in [true, false] {
                let a = Shape::OneFiveD(p, c).plan(&adj, aware);
                let b = Shape::ThreeD(p / c, 1, c).plan(&adj, aware);
                let to_15d = |r3: usize| {
                    let rp = &b.ranks[r3];
                    a.rank_of(rp.i, 0, rp.l)
                };
                assert_eq!(a.p(), b.p());
                for rb in &b.ranks {
                    let ra = &a.ranks[to_15d(rb.rank)];
                    let what = format!("p={p} c={c} aware={aware} rank {}", ra.rank);
                    assert_eq!((ra.j, ra.l), (0, rb.l), "{what}");
                    assert_same_duties(ra, rb, to_15d, &what);
                    let group: Vec<usize> = rb.reduce_group.iter().map(|&r| to_15d(r)).collect();
                    assert_eq!(ra.reduce_group, group, "{what}: reduce group");
                }
            }
        }
    }

    #[test]
    fn oned_is_the_p_by_1_by_1_grid() {
        // What the 1D executors rely on, against the sets Algorithm 1
        // defines: stage k comes from rank k and needs NnzCols(i, k) (the
        // whole block when oblivious); rank i ships rank t exactly
        // NnzCols(t, i), nothing when that is empty; the own stage is
        // indexed by local row; the stages partition the block row; and
        // nothing is reduced.
        let (adj, _) = setup(6, 10, 1);
        for p in [1usize, 2, 3, 4, 7] {
            let bounds = even_bounds(adj.rows(), p);
            let nnz_cols = |i: usize, k: usize| {
                let block = adj.row_block(bounds[i], bounds[i + 1]);
                block.distinct_cols_in_range(bounds[k], bounds[k + 1])
            };
            for aware in [true, false] {
                let plan = GridPlan::oned(&adj, &bounds, aware);
                assert_eq!((plan.pr, plan.pc, plan.c, plan.p()), (p, 1, 1, p));
                for (i, rp) in plan.ranks.iter().enumerate() {
                    let what = format!("p={p} aware={aware} rank {i}");
                    assert_eq!((rp.rank, rp.i, rp.j, rp.l), (i, i, 0, 0), "{what}");
                    assert_eq!((rp.row_lo, rp.row_hi), (bounds[i], bounds[i + 1]));
                    assert!(rp.reduce_group.is_empty(), "{what}");
                    assert_eq!(rp.stages.len(), p, "{what}");
                    for (k, st) in rp.stages.iter().enumerate() {
                        assert_eq!((st.k, st.src_rank), (k, k), "{what}");
                        let all: Vec<u32> = (bounds[k] as u32..bounds[k + 1] as u32).collect();
                        let needed = if aware { nnz_cols(i, k) } else { all };
                        assert_eq!(st.needed, needed, "{what} stage {k}");
                        let width = if k == i { rp.rows() } else { needed.len() };
                        let tile = &st.block_compact;
                        assert_eq!((tile.rows(), tile.cols()), (rp.rows(), width), "{what}");
                    }
                    let nnz: usize = rp.stages.iter().map(|st| st.block_compact.nnz()).sum();
                    assert_eq!(nnz, adj.row_block(rp.row_lo, rp.row_hi).nnz(), "{what}");
                    let sends: Vec<(usize, Vec<u32>)> = (0..p)
                        .filter(|&t| t != i)
                        .map(|t| (t, plan.ranks[t].stages[i].needed.clone()))
                        .filter(|(_, idx)| !idx.is_empty())
                        .collect();
                    assert_eq!(rp.sends, sends, "{what}: sends");
                }
            }
        }
    }

    #[test]
    fn oned_recv_matches_distinct_cols() {
        let adj = rmat(RmatConfig::graph500(7, 6, 1));
        let bounds = even_bounds(adj.rows(), 4);
        let plan = GridPlan::oned(&adj, &bounds, true);
        for (i, rp) in plan.ranks.iter().enumerate() {
            let block = adj.row_block(rp.row_lo, rp.row_hi);
            for (j, st) in rp.stages.iter().enumerate() {
                let expected = block.distinct_cols_in_range(bounds[j], bounds[j + 1]);
                assert_eq!(st.needed, expected, "rank {i} from {j}");
            }
        }
    }

    #[test]
    fn oned_send_mirrors_recv() {
        let adj = rmat(RmatConfig::graph500(7, 6, 2));
        let bounds = even_bounds(adj.rows(), 4);
        let plan = GridPlan::oned(&adj, &bounds, true);
        for i in 0..4 {
            for j in 0..4 {
                let sent = plan.ranks[j].sends.iter().find(|(dst, _)| *dst == i);
                let sent = sent.map_or(&[][..], |(_, idx)| idx);
                if i == j {
                    assert!(sent.is_empty());
                    continue;
                }
                assert_eq!(sent, plan.ranks[i].stages[j].needed);
            }
        }
    }

    #[test]
    fn oned_send_rows_lie_in_own_range() {
        let adj = rmat(RmatConfig::graph500(7, 6, 3));
        let bounds = even_bounds(adj.rows(), 4);
        let plan = GridPlan::oned(&adj, &bounds, true);
        for j in 0..4 {
            for (_, row_list) in &plan.ranks[j].sends {
                for &r in row_list {
                    assert!((r as usize) >= bounds[j] && (r as usize) < bounds[j + 1]);
                }
            }
        }
    }

    #[test]
    fn twod_is_threed_with_one_layer() {
        // twod(pr, pc) ≡ threed(pr, pc, 1) on sends and stages, rank for
        // rank; only the one-rank trailing all-reduce differs.
        let (adj, _) = setup(6, 9, 1);
        for (pr, pc) in [(2, 2), (4, 2), (2, 4), (4, 1), (1, 4)] {
            for aware in [true, false] {
                let a = Shape::TwoD(pr, pc).plan(&adj, aware);
                let b = Shape::ThreeD(pr, pc, 1).plan(&adj, aware);
                for (ra, rb) in a.ranks.iter().zip(&b.ranks) {
                    let what = format!("{pr}x{pc} aware={aware} rank {}", ra.rank);
                    assert_eq!((ra.rank, ra.j, ra.l), (rb.rank, rb.j, rb.l), "{what}");
                    assert_same_duties(ra, rb, |r| r, &what);
                    assert!(ra.reduce_group.is_empty(), "{what}");
                    assert_eq!(rb.reduce_group, [rb.rank], "{what}");
                }
            }
        }
    }

    #[test]
    fn c_equals_one_matches_2d_traffic() {
        // A single layer degenerates to the 2D algorithm: same stages,
        // same designated senders, same p2p bytes on the wire.
        let (adj, h) = setup(6, 5, 8);
        let (_, _, st2) = run(&adj, &h, Shape::TwoD(2, 2), true);
        let (_, _, st3) = run(&adj, &h, Shape::ThreeD(2, 2, 1), true);
        assert_eq!(
            st2.phase_recv_bytes_total(Phase::P2p),
            st3.phase_recv_bytes_total(Phase::P2p)
        );
    }

    #[test]
    fn onefived_grid_structure() {
        let adj = rmat(RmatConfig::graph500(7, 6, 4));
        let plan = Shape::OneFiveD(8, 2).plan(&adj, true);
        assert_eq!((plan.pr, plan.pc, plan.c, plan.p()), (4, 1, 2, 8));
        for i in 0..4 {
            for l in 0..2 {
                let rp = &plan.ranks[plan.rank_of(i, 0, l)];
                assert_eq!((rp.rank, rp.i, rp.j, rp.l), (i * 2 + l, i, 0, l));
                // Layer l folds stages k = l·s..(l+1)·s with s = pr/c.
                let ks: Vec<usize> = rp.stages.iter().map(|st| st.k).collect();
                assert_eq!(ks, vec![l * 2, l * 2 + 1]);
            }
        }
    }

    #[test]
    fn exactly_one_sender_replica_per_block() {
        let adj = rmat(RmatConfig::graph500(7, 6, 5));
        for shape in [Shape::OneFiveD(8, 2), Shape::ThreeD(4, 2, 2)] {
            let plan = shape.plan(&adj, true);
            let s = plan.pr / plan.c;
            for i in 0..plan.pr {
                for j in 0..plan.pc {
                    let senders: Vec<usize> = (0..plan.c)
                        .filter(|&l| !plan.ranks[plan.rank_of(i, j, l)].sends.is_empty())
                        .collect();
                    // The replica on the layer that folds stage k = i.
                    assert_eq!(senders, [i / s], "{shape:?} block ({i}, {j})");
                }
            }
        }
    }

    #[test]
    fn stage_blocks_partition_the_block_row() {
        // Union of all stages' nnz across the c replicas of a block must
        // equal the block row's nnz.
        let adj = rmat(RmatConfig::graph500(7, 6, 6));
        for shape in [
            Shape::OneFiveD(8, 2),
            Shape::TwoD(4, 2),
            Shape::ThreeD(4, 2, 2),
        ] {
            let plan = shape.plan(&adj, true);
            for i in 0..plan.pr {
                let total: usize = (0..plan.c)
                    .flat_map(|l| &plan.ranks[plan.rank_of(i, 0, l)].stages)
                    .map(|st| st.block_compact.nnz())
                    .sum();
                let block_nnz = adj.row_block(plan.bounds[i], plan.bounds[i + 1]).nnz();
                assert_eq!(total, block_nnz, "{shape:?} block row {i}");
            }
        }
    }

    #[test]
    fn oblivious_plan_needs_full_ranges() {
        let adj = grid2d(8);
        let plan = Shape::OneFiveD(4, 1).plan(&adj, false);
        for st in plan.ranks.iter().flat_map(|rp| &rp.stages) {
            assert_eq!(
                st.needed.len(),
                plan.bounds[st.k + 1] - plan.bounds[st.k],
                "oblivious stage must need the whole block"
            );
        }
    }

    #[test]
    fn aware_needs_subset_of_oblivious() {
        let adj = rmat(RmatConfig::graph500(8, 4, 7));
        let aware = Shape::OneFiveD(8, 2).plan(&adj, true);
        let obliv = Shape::OneFiveD(8, 2).plan(&adj, false);
        let mut strictly_smaller = false;
        for (ra, ro) in aware.ranks.iter().zip(&obliv.ranks) {
            for (sa, so) in ra.stages.iter().zip(&ro.stages) {
                assert!(sa.needed.len() <= so.needed.len());
                strictly_smaller |= sa.needed.len() < so.needed.len();
            }
        }
        assert!(strictly_smaller, "sparsity-awareness saved nothing");
    }

    #[test]
    #[should_panic(expected = "need c² | p")]
    fn invalid_onefived_grid_panics() {
        let adj = grid2d(4);
        GridPlan::onefived(&adj, 6, 2, &even_bounds(16, 3), true);
    }

    #[test]
    #[should_panic(expected = "need 1 <= c <= pr")]
    fn invalid_threed_grid_panics() {
        let adj = grid2d(4);
        GridPlan::threed(&adj, 2, 1, 3, &even_bounds(16, 2), true);
    }
}
