//! One function per paper artifact. Every function returns both a
//! rendered [`Table`] and the structured points behind it, so the
//! harness binary prints/saves and the integration tests assert shapes.
//!
//! Times come from [`gnn_core::analytic`] (proven equal to the threaded
//! executor's accounting by `tests/analytic_matches_executor.rs`),
//! priced by the Perlmutter-like [`CostModel`]. Epoch times are for one
//! epoch of the paper's 3-layer / 16-hidden GCN, in the paper's `(ÂH)W`
//! layer order (`PAPER_ORDER`) — [`layer_order`] is the one artifact
//! that also prices the narrow-side order `train` defaults to.

use std::time::Instant;

use gnn_comm::stats::PHASES;
use gnn_comm::{CostModel, OverlapConfig, Phase, WorldStats};
use gnn_core::analytic::{estimate_in_order, AnalyticInput};
use gnn_core::{try_train_distributed, Algo, DistConfig, GcnConfig, LayerOrder, ReferenceTrainer};
use partition::metrics::volume_metrics;
use partition::wgraph::WGraph;
use partition::{partition_graph, Method, PartitionConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use spmat::dataset::{amazon_scaled, papers_scaled, protein_scaled, reddit_scaled, Dataset};
use spmat::graph::{degree_cv, degree_stats};
use spmat::spmm::spmm;
use spmat::{Csr, Dense};

use crate::schemes::{prepare, prepare_full, Prepared, Scheme};
use crate::table::{fmt_mb, fmt_secs, Table};

/// The four datasets plus the sweep shapes of the paper's figures.
pub struct Suite {
    /// Reddit analogue (small, dense).
    pub reddit: Dataset,
    /// Amazon analogue (sparse, irregular).
    pub amazon: Dataset,
    /// Protein analogue (dense, regular).
    pub protein: Dataset,
    /// Papers analogue (largest).
    pub papers: Dataset,
    /// GPU counts for the Reddit sweep.
    pub ps_reddit: Vec<usize>,
    /// GPU counts for the Amazon/Protein sweeps.
    pub ps_large: Vec<usize>,
    /// GPU counts for Fig. 6.
    pub ps_fig6: Vec<usize>,
    /// Replication factors for Fig. 7.
    pub cs: Vec<usize>,
}

impl Suite {
    /// The full-scale suite (laptop-sized but sweep shapes match the
    /// paper: p up to 256).
    pub fn full(seed: u64) -> Self {
        Self {
            reddit: reddit_scaled(12, seed),
            amazon: amazon_scaled(15, seed),
            protein: protein_scaled(16_384, 256, seed),
            papers: papers_scaled(16, seed),
            ps_reddit: vec![4, 16, 32, 64],
            ps_large: vec![4, 16, 32, 64, 128, 256],
            ps_fig6: vec![4, 16, 32, 64],
            cs: vec![2, 4],
        }
    }

    /// A miniature suite for CI/tests: same shapes, tiny graphs.
    pub fn small(seed: u64) -> Self {
        Self {
            reddit: reddit_scaled(9, seed),
            amazon: amazon_scaled(11, seed),
            protein: protein_scaled(2048, 32, seed),
            papers: papers_scaled(12, seed),
            ps_reddit: vec![4, 8],
            ps_large: vec![4, 8, 16, 32],
            ps_fig6: vec![4, 8, 16],
            cs: vec![2],
        }
    }
}

/// The order every reproduced table, figure and sweep cell runs in: the
/// paper and CAGNET exchange `H` and multiply by `W` afterwards.
const PAPER_ORDER: LayerOrder = LayerOrder::AggregateFirst;

fn gcn_dims(ds: &Dataset) -> Vec<usize> {
    GcnConfig::paper_default(ds.f(), ds.num_classes).dims
}

/// One epoch of the paper's GCN (`dims`) with `algo` on `prep`'s
/// distribution, as the analytic model takes it.
fn one_epoch<'a>(prep: &'a Prepared, dims: &'a [usize], algo: Algo) -> AnalyticInput<'a> {
    AnalyticInput {
        adj: &prep.norm_adj,
        bounds: &prep.bounds,
        algo,
        dims,
        model: CostModel::perlmutter_like(),
        epochs: 1,
        arch: gnn_core::model::ArchKind::Gcn,
        overlap: OverlapConfig::off(),
    }
}

/// Analytic stats for one epoch of a 1D scheme on `p` ranks.
pub fn stats_1d(ds: &Dataset, scheme: Scheme, p: usize, seed: u64) -> WorldStats {
    let prep = prepare(ds, p, scheme, seed);
    let algo = Algo::OneD {
        aware: scheme.aware(),
    };
    estimate_in_order(&one_epoch(&prep, &gcn_dims(ds), algo), PAPER_ORDER)
}

/// Analytic stats for one epoch of a 1.5D scheme on `p` ranks with
/// replication `c` (partitioned into `p/c` block rows).
pub fn stats_15d(ds: &Dataset, scheme: Scheme, p: usize, c: usize, seed: u64) -> WorldStats {
    let prep = prepare(ds, p / c, scheme, seed);
    let algo = Algo::OneFiveD {
        aware: scheme.aware(),
        c,
    };
    estimate_in_order(&one_epoch(&prep, &gcn_dims(ds), algo), PAPER_ORDER)
}

/// One measured point of a sweep.
#[derive(Clone, Debug)]
pub struct Point {
    /// Dataset name.
    pub dataset: String,
    /// Scheme label.
    pub scheme: &'static str,
    /// Total ranks.
    pub p: usize,
    /// Replication factor (1 for 1D).
    pub c: usize,
    /// Modeled epoch time (max over ranks), seconds.
    pub epoch_time: f64,
    /// Phase breakdown (max over ranks), seconds.
    pub local_compute: f64,
    /// All-to-allv time.
    pub alltoall: f64,
    /// Broadcast time.
    pub bcast: f64,
    /// All-reduce time.
    pub allreduce: f64,
    /// Point-to-point time (1.5D stage traffic).
    pub p2p: f64,
}

impl Point {
    fn from_stats(ds: &Dataset, scheme: Scheme, p: usize, c: usize, st: &WorldStats) -> Self {
        Point {
            dataset: ds.name.clone(),
            scheme: scheme.label(),
            p,
            c,
            epoch_time: st.modeled_epoch_time(),
            local_compute: st.phase_time(Phase::LocalCompute),
            alltoall: st.phase_time(Phase::AllToAll),
            bcast: st.phase_time(Phase::Bcast),
            allreduce: st.phase_time(Phase::AllReduce),
            p2p: st.phase_time(Phase::P2p),
        }
    }
}

/// Table 2: average/max data communicated per SpMM and the communication
/// load imbalance under the **edgecut-only** (METIS-like) partitioner,
/// with the volume-balanced partitioner's max/imbalance alongside (the
/// fix §5 proposes).
pub fn table2(ds: &Dataset, ps: &[usize], seed: u64) -> (Table, Vec<(usize, f64, f64, f64)>) {
    let g = WGraph::from_csr(&ds.adj);
    let f = ds.f();
    let mut table = Table::new(&[
        "p",
        "average (MB)",
        "max (MB)",
        "load imbalance %",
        "GVB max (MB)",
        "GVB imbalance %",
    ]);
    let mut rows = Vec::new();
    for &p in ps {
        let part = partition_graph(
            &ds.adj,
            p,
            &PartitionConfig::new(Method::EdgeCut).with_seed(seed),
        );
        let m = volume_metrics(&g, &part);
        let gvb = partition_graph(
            &ds.adj,
            p,
            &PartitionConfig::new(Method::VolumeBalanced).with_seed(seed),
        );
        let mg = volume_metrics(&g, &gvb);
        let avg_bytes = m.avg_send * f as f64 * 8.0;
        let max_bytes = (m.max_send * f as u64 * 8) as f64;
        table.row(vec![
            p.to_string(),
            fmt_mb(avg_bytes as u64),
            fmt_mb(max_bytes as u64),
            format!("{:.1}%", m.imbalance_pct),
            fmt_mb(mg.max_send * f as u64 * 8),
            format!("{:.1}%", mg.imbalance_pct),
        ]);
        rows.push((p, avg_bytes, max_bytes, m.imbalance_pct));
    }
    (table, rows)
}

/// Table 3: dataset properties (our scaled analogues).
pub fn table3(suite: &Suite) -> Table {
    let mut t = Table::new(&[
        "Graph",
        "Vertices",
        "Edges",
        "Features",
        "Labels",
        "avg deg",
        "degree CV",
    ]);
    for ds in [&suite.reddit, &suite.amazon, &suite.protein, &suite.papers] {
        let st = degree_stats(&ds.adj);
        t.row(vec![
            ds.name.clone(),
            ds.n().to_string(),
            ds.edges().to_string(),
            ds.f().to_string(),
            ds.num_classes.to_string(),
            format!("{:.1}", st.avg),
            format!("{:.2}", degree_cv(&ds.adj)),
        ]);
    }
    t
}

/// Fig. 3: 1D epoch time vs GPU count for CAGNET / SA / SA+GVB.
pub fn fig3(suite: &Suite, seed: u64) -> (Table, Vec<Point>) {
    let mut table = Table::new(&["dataset", "p", "CAGNET", "SA", "SA+GVB"]);
    let mut points = Vec::new();
    let sweeps: [(&Dataset, &[usize]); 3] = [
        (&suite.reddit, &suite.ps_reddit),
        (&suite.amazon, &suite.ps_large),
        (&suite.protein, &suite.ps_large),
    ];
    for (ds, ps) in sweeps {
        for &p in ps {
            let mut times = Vec::new();
            for scheme in [Scheme::Cagnet, Scheme::Sa, Scheme::SaGvb] {
                let st = stats_1d(ds, scheme, p, seed);
                let pt = Point::from_stats(ds, scheme, p, 1, &st);
                times.push(pt.epoch_time);
                points.push(pt);
            }
            table.row(vec![
                ds.name.clone(),
                p.to_string(),
                fmt_secs(times[0]),
                fmt_secs(times[1]),
                fmt_secs(times[2]),
            ]);
        }
    }
    (table, points)
}

/// Fig. 4: 1D timing breakdown (local compute / alltoall / bcast) for the
/// same sweep as Fig. 3.
pub fn fig4(suite: &Suite, seed: u64) -> (Table, Vec<Point>) {
    let mut table = Table::new(&[
        "dataset",
        "p",
        "scheme",
        "local compute",
        "alltoall",
        "bcast",
    ]);
    let mut points = Vec::new();
    let sweeps: [(&Dataset, &[usize]); 3] = [
        (&suite.reddit, &suite.ps_reddit),
        (&suite.amazon, &suite.ps_large),
        (&suite.protein, &suite.ps_large),
    ];
    for (ds, ps) in sweeps {
        for &p in ps {
            for scheme in [Scheme::Cagnet, Scheme::Sa, Scheme::SaGvb] {
                let st = stats_1d(ds, scheme, p, seed);
                let pt = Point::from_stats(ds, scheme, p, 1, &st);
                table.row(vec![
                    ds.name.clone(),
                    p.to_string(),
                    scheme.label().to_string(),
                    fmt_secs(pt.local_compute),
                    fmt_secs(pt.alltoall),
                    fmt_secs(pt.bcast),
                ]);
                points.push(pt);
            }
        }
    }
    (table, points)
}

/// Fig. 5: the Papers dataset at p = 16, breakdown per scheme.
pub fn fig5(suite: &Suite, seed: u64) -> (Table, Vec<Point>) {
    let mut table = Table::new(&["scheme", "local compute", "alltoall", "bcast", "total"]);
    let mut points = Vec::new();
    let p = 16;
    for scheme in [Scheme::Cagnet, Scheme::Sa, Scheme::SaGvb] {
        let st = stats_1d(&suite.papers, scheme, p, seed);
        let pt = Point::from_stats(&suite.papers, scheme, p, 1, &st);
        table.row(vec![
            scheme.label().to_string(),
            fmt_secs(pt.local_compute),
            fmt_secs(pt.alltoall),
            fmt_secs(pt.bcast),
            fmt_secs(pt.epoch_time),
        ]);
        points.push(pt);
    }
    (table, points)
}

/// Fig. 6: SA+GVB vs SA+METIS — does optimizing the maximum send volume
/// (not just the total) pay off?
pub fn fig6(suite: &Suite, seed: u64) -> (Table, Vec<Point>) {
    let mut table = Table::new(&["dataset", "p", "SA+METIS", "SA+GVB"]);
    let mut points = Vec::new();
    for ds in [&suite.amazon, &suite.protein] {
        for &p in &suite.ps_fig6 {
            let mut times = Vec::new();
            for scheme in [Scheme::SaMetis, Scheme::SaGvb] {
                let st = stats_1d(ds, scheme, p, seed);
                let pt = Point::from_stats(ds, scheme, p, 1, &st);
                times.push(pt.epoch_time);
                points.push(pt);
            }
            table.row(vec![
                ds.name.clone(),
                p.to_string(),
                fmt_secs(times[0]),
                fmt_secs(times[1]),
            ]);
        }
    }
    (table, points)
}

/// Communication-volume view: the bottleneck rank's received bytes per
/// epoch under each scheme. Modeled *time* at p = 128–256 on the scaled
/// graphs is dominated by the α·(P−1) latency floor (the paper's graphs
/// are ~1000× larger, keeping them volume-bound at every p); this view
/// strips latency and shows the volume ratios the paper's headline
/// numbers (2×, 14×, "almost zero") are made of.
pub fn volumes(suite: &Suite, seed: u64) -> (Table, Vec<(String, usize, &'static str, u64)>) {
    let mut table = Table::new(&[
        "dataset",
        "p",
        "CAGNET (MB)",
        "SA (MB)",
        "SA+GVB (MB)",
        "SA/SA+GVB",
    ]);
    let mut rows = Vec::new();
    let sweeps: [(&Dataset, &[usize]); 3] = [
        (&suite.reddit, &suite.ps_reddit),
        (&suite.amazon, &suite.ps_large),
        (&suite.protein, &suite.ps_large),
    ];
    for (ds, ps) in sweeps {
        for &p in ps {
            let mut per_scheme = Vec::new();
            for scheme in [Scheme::Cagnet, Scheme::Sa, Scheme::SaGvb] {
                let st = stats_1d(ds, scheme, p, seed);
                let phase = if scheme.aware() {
                    Phase::AllToAll
                } else {
                    Phase::Bcast
                };
                let max_recv = st
                    .per_rank
                    .iter()
                    .map(|r| r.phase(phase).bytes_recv)
                    .max()
                    .unwrap_or(0);
                per_scheme.push(max_recv);
                rows.push((ds.name.clone(), p, scheme.label(), max_recv));
            }
            let ratio = if per_scheme[2] > 0 {
                per_scheme[1] as f64 / per_scheme[2] as f64
            } else {
                f64::INFINITY
            };
            table.row(vec![
                ds.name.clone(),
                p.to_string(),
                fmt_mb(per_scheme[0]),
                fmt_mb(per_scheme[1]),
                fmt_mb(per_scheme[2]),
                format!("{ratio:.1}x"),
            ]);
        }
    }
    (table, rows)
}

/// Rows of `H` the bottleneck rank of `plan` fetches from other ranks in
/// one SpMM.
fn max_remote_rows(plan: &gnn_core::dist::GridPlan) -> u64 {
    let per_rank = plan.ranks.iter().map(|rp| {
        let remote = rp.stages.iter().filter(|st| st.k != rp.i);
        remote.map(|st| st.needed.len() as u64).sum::<u64>()
    });
    per_rank.max().unwrap_or(0)
}

/// Cross-algorithm comparison (extension): per-SpMM bottleneck-rank
/// exchange volume for 1D, 1.5D (c = 2) and 2D (pc = 2) sparsity-aware
/// layouts on the same GVB-partitioned graph — the generalization the
/// paper's conclusion sketches.
pub fn algos(suite: &Suite, p: usize, seed: u64) -> (Table, Vec<(String, &'static str, u64)>) {
    use gnn_core::dist::GridPlan;
    let mut table = Table::new(&["dataset", "algorithm", "max-rank exchange (MB)"]);
    let mut rows = Vec::new();
    for ds in [&suite.amazon, &suite.protein] {
        let f = ds.f() as u64;
        // 1D: p parts.
        let prep1 = prepare(ds, p, Scheme::SaGvb, seed);
        let plan1 = GridPlan::oned(&prep1.norm_adj, &prep1.bounds, true);
        let v1 = max_remote_rows(&plan1) * f * 8;
        // 1.5D with c = 2: p/2 block rows.
        let c = 2usize;
        let prep15 = prepare(ds, p / c, Scheme::SaGvb, seed);
        let plan15 = GridPlan::onefived(&prep15.norm_adj, p, c, &prep15.bounds, true);
        let v15 = max_remote_rows(&plan15) * f * 8;
        // 2D with pc = 2: p/2 grid rows, panels of f/2.
        let pc = 2usize;
        let prep2 = prepare(ds, p / pc, Scheme::SaGvb, seed);
        let plan2 = GridPlan::twod(&prep2.norm_adj, p / pc, pc, &prep2.bounds, true);
        let panel = f.div_ceil(pc as u64);
        let v2 = max_remote_rows(&plan2) * panel * 8;
        for (algo, v) in [("1D", v1), ("1.5D c=2", v15), ("2D pc=2", v2)] {
            table.row(vec![ds.name.clone(), algo.to_string(), fmt_mb(v)]);
            rows.push((ds.name.clone(), algo, v));
        }
    }
    (table, rows)
}

/// Median wall seconds of three runs of `f`: reported, never gated.
fn wall_secs<R>(mut f: impl FnMut() -> R) -> f64 {
    let mut secs: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    secs.sort_by(f64::total_cmp);
    secs[1]
}

/// The design ablations (DESIGN §5) on the Amazon analogue: each
/// alternative to a choice the system made is first held to the same
/// answer, then both are timed on this host. `plan`: `NnzCols` from a
/// bitmap over the column range against sort + dedup of the raw
/// indices. `refine`: edgecut refinement alone, plus volume refinement
/// (the GVB delta), and flat FM (coarsening disabled by a target above
/// the graph size). `spmm`: gathered rows assembled into a compact `H̃`
/// against scattered into a full-height `n × f` buffer (Algorithm 1 as
/// written; the 1D executor goes further and assembles nothing).
pub fn ablations(suite: &Suite, seed: u64) -> Table {
    let ds = &suite.amazon;
    let mut table = Table::new(&[
        "ablation",
        "variant",
        "wall",
        "total vol",
        "max send",
        "imbalance %",
    ]);
    let mut row = |ablation: &str, variant: String, secs: f64, quality: [String; 3]| {
        let mut cells = vec![ablation.to_string(), variant, fmt_secs(secs)];
        cells.extend(quality);
        table.row(cells);
    };
    let no_quality = || ["-", "-", "-"].map(String::from);

    let sort_dedup = |block: &Csr| {
        let mut cols = block.indices().to_vec();
        cols.sort_unstable();
        cols.dedup();
        cols
    };
    for p in [8, 64] {
        let block = ds.norm_adj.row_block(0, ds.n() / p);
        assert_eq!(block.distinct_cols(), sort_dedup(&block));
        let bitmap = wall_secs(|| block.distinct_cols());
        row("plan", format!("bitmap p={p}"), bitmap, no_quality());
        let sorted = wall_secs(|| sort_dedup(&block));
        row("plan", format!("sort-dedup p={p}"), sorted, no_quality());
    }

    let k = 16;
    let g = WGraph::from_csr(&ds.adj);
    for (variant, method, coarsen_factor) in [
        ("edgecut-only", Method::EdgeCut, 16),
        ("with-volume-refine", Method::VolumeBalanced, 16),
        ("flat-fm", Method::EdgeCut, usize::MAX / k),
    ] {
        let mut cfg = PartitionConfig::new(method).with_seed(seed);
        cfg.coarsen_factor = coarsen_factor;
        let m = volume_metrics(&g, &partition_graph(&ds.adj, k, &cfg));
        let quality = [
            m.total.to_string(),
            m.max_send.to_string(),
            format!("{:.1}", m.imbalance_pct),
        ];
        let secs = wall_secs(|| partition_graph(&ds.adj, k, &cfg));
        row("refine", variant.to_string(), secs, quality);
    }

    let f = 32;
    let block = ds.norm_adj.row_block(0, ds.n() / 8);
    let cols = block.distinct_cols();
    let compact = block.remap_cols(&cols);
    // The "received" rows, one dense row per needed column.
    let gathered = Dense::glorot(cols.len(), f, &mut StdRng::seed_from_u64(seed));
    let via_compact = || {
        let mut h = Dense::zeros(gathered.rows(), f);
        h.data_mut().copy_from_slice(gathered.data());
        spmm(&compact, &h)
    };
    let via_full_height = || {
        let mut h = Dense::zeros(ds.n(), f);
        h.scatter_rows(&cols, &gathered);
        spmm(&block, &h)
    };
    assert!(via_compact().approx_eq(&via_full_height(), 1e-12));
    let secs = wall_secs(via_compact);
    row("spmm", "compact".to_string(), secs, no_quality());
    let secs = wall_secs(via_full_height);
    row("spmm", "full-height".to_string(), secs, no_quality());
    table
}

/// One row of the layer-order ablation: a 1D scheme at `p` ranks priced
/// in both orders.
#[derive(Clone, Debug)]
pub struct OrderPoint {
    /// Dataset name.
    pub dataset: String,
    /// Scheme label.
    pub scheme: &'static str,
    /// Total ranks.
    pub p: usize,
    /// Modeled epoch seconds, `[paper, narrow]`.
    pub epoch_time: [f64; 2],
    /// Bytes received per epoch over all ranks, `[paper, narrow]` — a
    /// broadcast counts once per receiver, which its sent bytes would not.
    pub bytes_recv: [u64; 2],
}

/// Layer-order ablation (extension): the paper's three 1D schemes on the
/// Amazon and Protein analogues at the sweep's rank counts, each priced
/// as `(ÂH)W` at every layer (what the paper and CAGNET run, and every
/// other artifact here) and with the narrow side of each layer exchanged
/// (what `train` defaults to: layer 0 ships 16 columns, not `f`). With
/// only narrow exchanges left the α term weighs more, which is what the
/// table is for: does SA+GVB still beat SA, and where does CAGNET's
/// broadcast stop losing.
pub fn layer_order(suite: &Suite, seed: u64) -> (Table, Vec<OrderPoint>) {
    let mut table = Table::new(&[
        "dataset",
        "p",
        "scheme",
        "paper epoch",
        "narrow epoch",
        "paper recv MB",
        "narrow recv MB",
        "paper/narrow",
    ]);
    let mut points = Vec::new();
    for ds in [&suite.amazon, &suite.protein] {
        let dims = gcn_dims(ds);
        for &p in &suite.ps_large {
            for scheme in [Scheme::Cagnet, Scheme::Sa, Scheme::SaGvb] {
                let prep = prepare(ds, p, scheme, seed);
                let algo = Algo::OneD {
                    aware: scheme.aware(),
                };
                let input = one_epoch(&prep, &dims, algo);
                let stats = [PAPER_ORDER, LayerOrder::NarrowSide]
                    .map(|order| estimate_in_order(&input, order));
                let pt = OrderPoint {
                    dataset: ds.name.clone(),
                    scheme: scheme.label(),
                    p,
                    epoch_time: stats.each_ref().map(WorldStats::modeled_epoch_time),
                    bytes_recv: stats
                        .each_ref()
                        .map(|st| st.per_rank.iter().map(|r| r.bytes_recv_total()).sum()),
                };
                table.row(vec![
                    pt.dataset.clone(),
                    p.to_string(),
                    pt.scheme.to_string(),
                    fmt_secs(pt.epoch_time[0]),
                    fmt_secs(pt.epoch_time[1]),
                    fmt_mb(pt.bytes_recv[0]),
                    fmt_mb(pt.bytes_recv[1]),
                    format!("{:.2}x", pt.epoch_time[0] / pt.epoch_time[1]),
                ]);
                points.push(pt);
            }
        }
    }
    (table, points)
}

/// Fig. 7: 1.5D epoch times for oblivious / SA / SA+GVB at c ∈ {2, 4}.
pub fn fig7(suite: &Suite, seed: u64) -> (Table, Vec<Point>) {
    let mut table = Table::new(&["dataset", "c", "p", "oblivious", "SA", "SA+GVB"]);
    let mut points = Vec::new();
    for ds in [&suite.amazon, &suite.protein] {
        for &c in &suite.cs {
            for &p in &suite.ps_large {
                if p % (c * c) != 0 || p / c < 2 {
                    continue;
                }
                let mut times = Vec::new();
                for scheme in [Scheme::Cagnet, Scheme::Sa, Scheme::SaGvb] {
                    let st = stats_15d(ds, scheme, p, c, seed);
                    let pt = Point::from_stats(ds, scheme, p, c, &st);
                    times.push(pt.epoch_time);
                    points.push(pt);
                }
                table.row(vec![
                    ds.name.clone(),
                    c.to_string(),
                    p.to_string(),
                    fmt_secs(times[0]),
                    fmt_secs(times[1]),
                    fmt_secs(times[2]),
                ]);
            }
        }
    }
    (table, points)
}

/// One cell of the conformance sweep: a full *executed* training run on
/// the thread backend, compared against the serial reference (weights)
/// and the analytic α–β model (per-rank per-phase communication volume).
#[derive(Clone, Debug)]
pub struct SweepCell {
    /// Algorithm label including its grid shape, e.g. `3D pc=2 c=2`.
    pub algo: String,
    /// Scheme label.
    pub scheme: &'static str,
    /// Total ranks.
    pub p: usize,
    /// `max|w_dist − w_ref|` after training.
    pub weight_drift: f64,
    /// Executed bytes/flops equal the analytic prediction exactly, for
    /// every rank and every phase.
    pub volume_match: bool,
    /// Bottleneck rank's received bytes per epoch (executed).
    pub bottleneck_recv: u64,
    /// Modeled epoch time from the analytic estimate, seconds.
    pub epoch_time: f64,
}

impl SweepCell {
    /// The acceptance bar: reference-level accuracy and an exact volume
    /// model.
    pub fn conforms(&self) -> bool {
        self.weight_drift < 1e-8 && self.volume_match
    }
}

/// Grid shape of one swept algorithm configuration.
#[derive(Clone, Copy, Debug)]
enum GridKind {
    OneD,
    OneFiveD { c: usize },
    TwoD { pc: usize },
    ThreeD { pc: usize, c: usize },
}

impl GridKind {
    fn algo(self, aware: bool) -> Algo {
        match self {
            GridKind::OneD => Algo::OneD { aware },
            GridKind::OneFiveD { c } => Algo::OneFiveD { aware, c },
            GridKind::TwoD { pc } => Algo::TwoD { aware, pc },
            GridKind::ThreeD { pc, c } => Algo::ThreeD { aware, pc, c },
        }
    }

    /// Number of row blocks the dataset is partitioned into.
    fn parts(self, p: usize) -> usize {
        match self {
            GridKind::OneD => p,
            GridKind::OneFiveD { c } => p / c,
            GridKind::TwoD { pc } => p / pc,
            GridKind::ThreeD { pc, c } => p / (pc * c),
        }
    }

    fn label(self) -> String {
        match self {
            GridKind::OneD => "1D".to_string(),
            GridKind::OneFiveD { c } => format!("1.5D c={c}"),
            GridKind::TwoD { pc } => format!("2D pc={pc}"),
            GridKind::ThreeD { pc, c } => format!("3D pc={pc} c={c}"),
        }
    }
}

/// The swept (algorithm, p) grid. `small` keeps p ≤ 4 (the CI budget);
/// the full sweep goes to p = 8. Shapes keep pc ≤ 2 so feature panels
/// stay non-degenerate on the small datasets.
fn sweep_grid(small: bool) -> Vec<(GridKind, usize)> {
    let mut grid = vec![
        (GridKind::OneD, 1),
        (GridKind::OneD, 2),
        (GridKind::OneD, 4),
        (GridKind::OneFiveD { c: 1 }, 1),
        (GridKind::OneFiveD { c: 1 }, 2),
        (GridKind::OneFiveD { c: 2 }, 4),
        (GridKind::TwoD { pc: 1 }, 1),
        (GridKind::TwoD { pc: 1 }, 2),
        (GridKind::TwoD { pc: 2 }, 4),
        (GridKind::ThreeD { pc: 1, c: 1 }, 1),
        (GridKind::ThreeD { pc: 1, c: 1 }, 2),
        (GridKind::ThreeD { pc: 1, c: 2 }, 4),
    ];
    if !small {
        grid.extend([
            (GridKind::OneD, 8),
            (GridKind::OneFiveD { c: 2 }, 8),
            (GridKind::TwoD { pc: 2 }, 8),
            (GridKind::ThreeD { pc: 2, c: 2 }, 8),
        ]);
    }
    grid
}

/// Executed bytes/flops must equal the analytic prediction exactly —
/// same integer, every rank, every phase.
fn volumes_match(executed: &WorldStats, analytic: &WorldStats) -> bool {
    executed.p() == analytic.p()
        && executed
            .per_rank
            .iter()
            .zip(&analytic.per_rank)
            .all(|(e, a)| {
                PHASES.iter().all(|&ph| {
                    let pe = e.phase(ph);
                    let pa = a.phase(ph);
                    pe.bytes_sent == pa.bytes_sent
                        && pe.bytes_recv == pa.bytes_recv
                        && pe.flops == pa.flops
                })
            })
}

/// Epochs each sweep cell trains for (executed + reference).
pub const SWEEP_EPOCHS: usize = 2;

/// Conformance sweep: every algorithm family × scheme × p actually
/// *trains* on the thread backend (reddit analogue), then each cell is
/// checked two ways — final weights against the serial reference
/// (≤ 1e-8) and executed communication volume against the analytic
/// model (exact). The table charts modeled epoch time so the winning
/// layout per p is visible at a glance.
pub fn sweep(suite: &Suite, small: bool, seed: u64) -> (Table, Vec<SweepCell>) {
    let ds = &suite.reddit;
    let mut table = Table::new(&[
        "algorithm",
        "scheme",
        "p",
        "weight drift",
        "volume==model",
        "bottleneck recv (MB)",
        "epoch (modeled)",
    ]);
    let mut cells = Vec::new();
    for (kind, p) in sweep_grid(small) {
        for scheme in [Scheme::Cagnet, Scheme::Sa, Scheme::SaGvb] {
            let algo = kind.algo(scheme.aware());
            let (pds, bounds) = prepare_full(ds, kind.parts(p), scheme, seed);
            let gcn = GcnConfig::paper_default(pds.f(), pds.num_classes);
            let model = CostModel::perlmutter_like();

            let mut reference = ReferenceTrainer::new(&pds, gcn.clone());
            reference.train(SWEEP_EPOCHS);
            let out = try_train_distributed(
                &pds,
                &bounds,
                &DistConfig::new(algo, gcn.clone(), SWEEP_EPOCHS, model).paper_order(),
            )
            .unwrap_or_else(|e| panic!("{} {} p={p}: {e}", kind.label(), scheme.label()));
            let input = AnalyticInput {
                adj: &pds.norm_adj,
                bounds: &bounds,
                algo,
                dims: &gcn.dims,
                model,
                epochs: SWEEP_EPOCHS,
                arch: gnn_core::model::ArchKind::Gcn,
                overlap: OverlapConfig::off(),
            };
            let est = estimate_in_order(&input, PAPER_ORDER);

            let cell = SweepCell {
                algo: kind.label(),
                scheme: scheme.label(),
                p,
                weight_drift: out.weights.max_abs_diff(&reference.weights),
                volume_match: volumes_match(&out.stats, &est),
                bottleneck_recv: out
                    .stats
                    .per_rank
                    .iter()
                    .map(|r| r.bytes_recv_total())
                    .max()
                    .unwrap_or(0)
                    / SWEEP_EPOCHS as u64,
                epoch_time: est.modeled_epoch_time() / SWEEP_EPOCHS as f64,
            };
            table.row(vec![
                cell.algo.clone(),
                cell.scheme.to_string(),
                p.to_string(),
                format!("{:.1e}", cell.weight_drift),
                if cell.volume_match {
                    "exact"
                } else {
                    "MISMATCH"
                }
                .to_string(),
                fmt_mb(cell.bottleneck_recv),
                fmt_secs(cell.epoch_time),
            ]);
            cells.push(cell);
        }
    }
    (table, cells)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_suite() -> Suite {
        Suite::small(5)
    }

    #[test]
    fn table3_lists_all_datasets() {
        let suite = small_suite();
        let t = table3(&suite);
        let s = t.render();
        for name in [
            "reddit-scaled",
            "amazon-scaled",
            "protein-scaled",
            "papers-scaled",
        ] {
            assert!(s.contains(name), "missing {name}");
        }
    }

    #[test]
    fn table2_imbalance_grows_with_p() {
        let suite = small_suite();
        let (_, rows) = table2(&suite.amazon, &[4, 16], 5);
        assert_eq!(rows.len(), 2);
        // More parts → thinner blocks → worse balance (Table 2's trend).
        assert!(
            rows[1].3 > rows[0].3,
            "imbalance {} !> {}",
            rows[1].3,
            rows[0].3
        );
        // Average volume per process decreases with p.
        assert!(rows[1].1 < rows[0].1);
    }

    #[test]
    fn fig5_gvb_beats_cagnet_on_papers() {
        let suite = small_suite();
        let (_, pts) = fig5(&suite, 5);
        let t = |label: &str| pts.iter().find(|p| p.scheme == label).unwrap().epoch_time;
        assert!(
            t("SA+GVB") < t("CAGNET"),
            "SA+GVB {} !< CAGNET {}",
            t("SA+GVB"),
            t("CAGNET")
        );
    }

    #[test]
    fn ablations_hold_their_guards_and_time_every_variant() {
        // 4 plan + 3 refine + 2 spmm rows under the two header lines;
        // an alternative that disagrees with the system's choice panics.
        let rendered = ablations(&small_suite(), 5).render();
        assert_eq!(rendered.lines().count(), 2 + 9, "{rendered}");
    }

    #[test]
    fn narrow_side_never_costs_more_and_keeps_the_scheme_ranking() {
        let suite = small_suite();
        let (_, pts) = layer_order(&suite, 5);
        assert_eq!(pts.len(), 2 * suite.ps_large.len() * 3);
        for pt in &pts {
            let at = format!("{} {} p={}", pt.dataset, pt.scheme, pt.p);
            assert!(pt.bytes_recv[1] < pt.bytes_recv[0], "{at}: {pt:?}");
            assert!(pt.epoch_time[1] < pt.epoch_time[0], "{at}: {pt:?}");
        }
        // CAGNET, SA, SA+GVB per (dataset, p): the paper's ranking of
        // the sparsity-aware schemes over the broadcast survives.
        for cell in pts.chunks(3) {
            assert!(cell[1].epoch_time[1] < cell[0].epoch_time[1], "{cell:?}");
            assert!(cell[2].epoch_time[1] < cell[0].epoch_time[1], "{cell:?}");
        }
    }

    #[test]
    fn fig7_skips_invalid_grids() {
        let suite = small_suite();
        let (_, pts) = fig7(&suite, 5);
        for pt in &pts {
            assert_eq!(pt.p % (pt.c * pt.c), 0);
        }
    }
}
