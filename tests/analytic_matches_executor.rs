//! The analytic cost estimator must reproduce the threaded executor's
//! accounting *exactly* — same bytes, same flops, same modeled seconds,
//! phase by phase, rank by rank. The figure sweeps rely on the analytic
//! path; this test is what makes its numbers trustworthy.
//!
//! Both layer orders are held to it: the named cells below run in the
//! order `DistConfig::new` and `estimate` default to, and
//! `both_orders_match_on_every_family` runs the paper's `(ÂH)W` and the
//! narrow-side order through every family, architecture and awareness,
//! with the order rule itself pinned by a closed form and a
//! property over random layer widths.

use gnn_comm::stats::PHASES;
use gnn_comm::{CostModel, OverlapConfig, Phase, SpanKind};
use gnn_core::analytic::{estimate, estimate_in_order, AnalyticInput};
use gnn_core::dist::{even_bounds, GridPlan};
use gnn_core::model::ArchKind;
use gnn_core::{train_distributed, Algo, DistConfig, DistOutcome, GcnConfig, LayerOrder};
use gnn_trace::jsonl_string;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spmat::dataset::{amazon_scaled, protein_scaled, Dataset};
use spmat::Dense;

fn assert_stats_equal(
    executor: &gnn_comm::WorldStats,
    analytic: &gnn_comm::WorldStats,
    label: &str,
) {
    assert_eq!(executor.p(), analytic.p(), "{label}: rank count");
    for (rank, (e, a)) in executor.per_rank.iter().zip(&analytic.per_rank).enumerate() {
        for phase in PHASES {
            let pe = e.phase(phase);
            let pa = a.phase(phase);
            assert_eq!(
                pe.bytes_sent, pa.bytes_sent,
                "{label}: rank {rank} {phase:?} bytes_sent"
            );
            assert_eq!(
                pe.bytes_recv, pa.bytes_recv,
                "{label}: rank {rank} {phase:?} bytes_recv"
            );
            assert_eq!(pe.flops, pa.flops, "{label}: rank {rank} {phase:?} flops");
            let d = (pe.modeled_seconds - pa.modeled_seconds).abs();
            assert!(
                d <= 1e-9 * pe.modeled_seconds.abs().max(1e-12),
                "{label}: rank {rank} {phase:?} modeled {} vs {}",
                pe.modeled_seconds,
                pa.modeled_seconds
            );
        }
    }
}

fn check(ds: &Dataset, algo: Algo, block_rows: usize, epochs: usize) {
    let bounds = even_bounds(ds.n(), block_rows);
    let gcn = GcnConfig::paper_default(ds.f(), ds.num_classes);
    let model = CostModel::perlmutter_like();
    let out = train_distributed(
        ds,
        &bounds,
        &DistConfig::new(algo, gcn.clone(), epochs, model),
    );
    let est = estimate(&AnalyticInput {
        adj: &ds.norm_adj,
        bounds: &bounds,
        algo,
        dims: &gcn.dims,
        model,
        epochs,
        arch: gnn_core::model::ArchKind::Gcn,
        overlap: OverlapConfig::off(),
    });
    assert_stats_equal(&out.stats, &est, &algo.label());
}

#[test]
fn one_d_aware_matches() {
    let ds = amazon_scaled(8, 42);
    check(&ds, Algo::OneD { aware: true }, 4, 2);
}

#[test]
fn one_d_oblivious_matches() {
    let ds = amazon_scaled(8, 42);
    check(&ds, Algo::OneD { aware: false }, 4, 2);
}

#[test]
fn one_five_d_aware_matches() {
    let ds = amazon_scaled(8, 43);
    // p = 8, c = 2 → 4 block rows.
    check(&ds, Algo::OneFiveD { aware: true, c: 2 }, 4, 2);
}

#[test]
fn one_five_d_oblivious_matches() {
    let ds = amazon_scaled(8, 43);
    check(&ds, Algo::OneFiveD { aware: false, c: 2 }, 4, 2);
}

#[test]
fn one_five_d_c4_matches() {
    let ds = protein_scaled(512, 8, 7);
    // p = 16, c = 4 → 4 block rows, s = 1.
    check(&ds, Algo::OneFiveD { aware: true, c: 4 }, 4, 1);
}

#[test]
fn two_d_matches() {
    let ds = amazon_scaled(8, 48);
    // pr = 4, pc = 2 → p = 8.
    for aware in [true, false] {
        check(&ds, Algo::TwoD { aware, pc: 2 }, 4, 2);
    }
}

#[test]
fn three_d_matches() {
    let ds = amazon_scaled(8, 48);
    // pr = 4, pc = 2, c = 2 → p = 16.
    for aware in [true, false] {
        check(&ds, Algo::ThreeD { aware, pc: 2, c: 2 }, 4, 2);
    }
}

#[test]
fn sage_grid_matches() {
    // The grid trainer's SAGE panels (H·W1 top block, AᵀH·W2 bottom
    // block) have their own charge shapes; mirror those too.
    let ds = amazon_scaled(8, 45);
    let bounds = even_bounds(ds.n(), 4);
    let gcn = GcnConfig::paper_default(ds.f(), ds.num_classes).with_sage();
    let model = CostModel::perlmutter_like();
    for algo in [
        Algo::TwoD { aware: true, pc: 2 },
        Algo::ThreeD {
            aware: true,
            pc: 2,
            c: 2,
        },
    ] {
        let out = train_distributed(&ds, &bounds, &DistConfig::new(algo, gcn.clone(), 2, model));
        let est = estimate(&AnalyticInput {
            adj: &ds.norm_adj,
            bounds: &bounds,
            algo,
            dims: &gcn.dims,
            model,
            epochs: 2,
            arch: gnn_core::model::ArchKind::Sage,
            overlap: OverlapConfig::off(),
        });
        assert_stats_equal(&out.stats, &est, &format!("sage {}", algo.label()));
    }
}

#[test]
fn sage_architecture_matches() {
    // SAGE's different local-compute and gradient-reduce sizes must be
    // mirrored exactly too.
    let ds = amazon_scaled(8, 45);
    let bounds = even_bounds(ds.n(), 4);
    let gcn = GcnConfig::paper_default(ds.f(), ds.num_classes).with_sage();
    let model = CostModel::perlmutter_like();
    let algo = Algo::OneD { aware: true };
    let out = train_distributed(&ds, &bounds, &DistConfig::new(algo, gcn.clone(), 2, model));
    let est = estimate(&AnalyticInput {
        adj: &ds.norm_adj,
        bounds: &bounds,
        algo,
        dims: &gcn.dims,
        model,
        epochs: 2,
        arch: gnn_core::model::ArchKind::Sage,
        overlap: OverlapConfig::off(),
    });
    assert_stats_equal(&out.stats, &est, "sage 1D aware");
}

#[test]
fn uneven_bounds_match() {
    // Partitioner-produced bounds are uneven; accounting must still agree.
    let ds = amazon_scaled(8, 44);
    let n = ds.n();
    let bounds = vec![0, n / 5, n / 2, (n * 4) / 5, n];
    let gcn = GcnConfig::paper_default(ds.f(), ds.num_classes);
    let model = CostModel::perlmutter_like();
    for algo in [Algo::OneD { aware: true }, Algo::OneD { aware: false }] {
        let out = train_distributed(&ds, &bounds, &DistConfig::new(algo, gcn.clone(), 1, model));
        let est = estimate(&AnalyticInput {
            adj: &ds.norm_adj,
            bounds: &bounds,
            algo,
            dims: &gcn.dims,
            model,
            epochs: 1,
            arch: gnn_core::model::ArchKind::Gcn,
            overlap: OverlapConfig::off(),
        });
        assert_stats_equal(&out.stats, &est, &algo.label());
    }
}

const ORDERS: [LayerOrder; 2] = [LayerOrder::AggregateFirst, LayerOrder::NarrowSide];

/// Trains `gcn` in `order` and returns the run next to the estimate of it.
fn run_in_order(
    ds: &Dataset,
    bounds: &[usize],
    algo: Algo,
    gcn: &GcnConfig,
    order: LayerOrder,
) -> (DistOutcome, gnn_comm::WorldStats) {
    let model = CostModel::perlmutter_like();
    let mut cfg = DistConfig::new(algo, gcn.clone(), 2, model);
    cfg.order = order;
    cfg.trace = true;
    let input = AnalyticInput {
        adj: &ds.norm_adj,
        bounds,
        algo,
        dims: &gcn.dims,
        model,
        epochs: 2,
        arch: gcn.arch,
        overlap: OverlapConfig::off(),
    };
    (
        train_distributed(ds, bounds, &cfg),
        estimate_in_order(&input, order),
    )
}

#[test]
fn both_orders_match_on_every_family() {
    let ds = amazon_scaled(8, 50);
    let bounds = even_bounds(ds.n(), 2);
    for aware in [true, false] {
        let families = [
            Algo::OneD { aware },
            Algo::OneFiveD { aware, c: 2 },
            Algo::TwoD { aware, pc: 2 },
            Algo::ThreeD { aware, pc: 2, c: 2 },
        ];
        for algo in families {
            for arch in [ArchKind::Gcn, ArchKind::Sage] {
                let mut gcn = GcnConfig::paper_default(ds.f(), ds.num_classes);
                gcn.arch = arch;
                let mut sent = [0u64; 2];
                for (order, sent) in ORDERS.into_iter().zip(&mut sent) {
                    let (out, est) = run_in_order(&ds, &bounds, algo, &gcn, order);
                    let label = format!("{} {arch:?} {order:?}", algo.label());
                    assert_stats_equal(&out.stats, &est, &label);
                    *sent = out
                        .stats
                        .per_rank
                        .iter()
                        .map(|r| r.bytes_sent_total())
                        .sum();
                }
                // Layer 0 narrows 300 → 16: the narrow side ships less.
                assert!(
                    sent[1] < sent[0],
                    "{} {arch:?}: narrow sent {} vs paper {}",
                    algo.label(),
                    sent[1],
                    sent[0]
                );
            }
        }
    }
}

#[test]
fn narrow_side_forward_alltoallv_bytes_have_a_closed_form() {
    // Every forward exchange of a 1D sparsity-aware epoch is one
    // all-to-allv of `Rows` payloads: a 4-byte index and min(d_l, d_{l+1})
    // doubles per shipped row.
    let ds = amazon_scaled(8, 51);
    let bounds = even_bounds(ds.n(), 3);
    let algo = Algo::OneD { aware: true };
    let gcn = GcnConfig::paper_default(ds.f(), ds.num_classes);
    let plan = GridPlan::oned(&ds.norm_adj, &bounds, true);
    let (out, _) = run_in_order(&ds, &bounds, algo, &gcn, LayerOrder::NarrowSide);
    let trace = out.trace.as_ref().expect("trace requested");
    for (rank, rp) in plan.ranks.iter().enumerate() {
        let shipped: u64 = rp.sends.iter().map(|(_, idx)| idx.len() as u64).sum();
        let want: u64 = gcn
            .dims
            .windows(2)
            .map(|d| (4 + 8 * d[0].min(d[1]) as u64) * shipped)
            .sum();
        for epoch in trace.span_tree(rank) {
            let fwd = &epoch.children[0];
            assert_eq!(fwd.kind, SpanKind::Forward);
            assert_eq!(fwd.total_bytes_sent, want, "rank {rank}");
        }
    }
    assert!(out.stats.phase_bytes_total(Phase::AllToAll) > 0);
}

/// The graph of `amazon_scaled(6, seed)` with `f` seeded features and
/// `classes` labels, so a model of any `dims` fits it.
fn dataset_of_shape(f: usize, classes: usize, seed: u64) -> Dataset {
    let mut ds = amazon_scaled(6, seed);
    let mut rng = StdRng::seed_from_u64(seed);
    ds.features = Dense::from_fn(ds.n(), f, |_, _| rng.gen_range(-1.0..1.0));
    ds.labels = (0..ds.n())
        .map(|_| rng.gen_range(0..classes as u32))
        .collect();
    ds.num_classes = classes;
    ds
}

/// Everything a run is held to elsewhere, bit for bit: counters and
/// modeled seconds, trajectory and weights, the exported trace.
fn digest(out: &DistOutcome) -> (Vec<u64>, Vec<u64>, String) {
    let mut stats = Vec::new();
    for r in &out.stats.per_rank {
        for ph in PHASES {
            let c = r.phase(ph);
            let seconds = c.modeled_seconds.to_bits();
            stats.extend([c.ops, c.bytes_sent, c.bytes_recv, c.flops, seconds]);
        }
    }
    let mut result: Vec<u64> = out.records.iter().map(|r| r.loss.to_bits()).collect();
    for m in &out.weights.mats {
        result.extend(m.data().iter().map(|v| v.to_bits()));
    }
    let trace = jsonl_string(out.trace.as_ref().expect("trace requested"));
    (stats, result, trace)
}

#[test]
fn a_layer_is_narrow_first_iff_it_narrows() {
    let mut rng = StdRng::seed_from_u64(0x0DE5);
    let mut never_narrowing = vec![vec![8, 16, 16, 24]];
    for case in 0..64 {
        let layers = rng.gen_range(2..5);
        let mut dims: Vec<usize> = (0..=layers).map(|_| rng.gen_range(1..41)).collect();
        if case % 8 == 0 {
            dims.sort_unstable();
            never_narrowing.push(dims.clone());
        }
        for l in 0..layers {
            assert_eq!(
                LayerOrder::NarrowSide.narrow_first(&dims, l),
                dims[l + 1] < dims[l],
                "{dims:?} layer {l}"
            );
            assert!(!LayerOrder::AggregateFirst.narrow_first(&dims, l));
        }
        // Whatever the widths, the model replays the order executed.
        if case % 8 == 1 {
            let ds = dataset_of_shape(dims[0], dims[layers], case);
            let mut gcn = GcnConfig::paper_default(ds.f(), ds.num_classes);
            gcn.dims = dims.clone();
            gcn.arch = [ArchKind::Gcn, ArchKind::Sage][case as usize / 8 % 2];
            let algo = Algo::TwoD { aware: true, pc: 2 };
            let bounds = even_bounds(ds.n(), 2);
            for order in ORDERS {
                let (out, est) = run_in_order(&ds, &bounds, algo, &gcn, order);
                assert_stats_equal(&out.stats, &est, &format!("{dims:?} {order:?}"));
            }
        }
    }
    // With no narrowing layer the two orders are one program.
    for (case, dims) in never_narrowing.iter().enumerate() {
        let ds = dataset_of_shape(dims[0], *dims.last().unwrap(), case as u64);
        let mut gcn = GcnConfig::paper_default(ds.f(), ds.num_classes);
        gcn.dims = dims.clone();
        gcn.arch = [ArchKind::Gcn, ArchKind::Sage][case % 2];
        let bounds = even_bounds(ds.n(), 3);
        let run = |order| {
            let algo = Algo::OneD { aware: true };
            digest(&run_in_order(&ds, &bounds, algo, &gcn, order).0)
        };
        assert!(
            run(LayerOrder::AggregateFirst) == run(LayerOrder::NarrowSide),
            "{dims:?}: the orders diverged without a narrowing layer"
        );
    }
}

/// All-reduces charged on `rank` per epoch of a run of `epochs`.
fn allreduce_ops_per_epoch(stats: &gnn_comm::WorldStats, rank: usize, epochs: u64) -> u64 {
    let ops = stats.per_rank[rank].phase(Phase::AllReduce).ops;
    assert_eq!(
        ops % epochs,
        0,
        "rank {rank}: {ops} all-reduces over {epochs} epochs"
    );
    ops / epochs
}

#[test]
fn replica_split_cells_match() {
    // Under the narrow order every replica group (1.5D process row, 3D
    // fiber) splits layer 0's products against H⁰ into slabs and sums
    // them with one all-reduce per product: GCN's H⁰·W₀ and H⁰ᵀS₀, and
    // SAGE's two of each. The model charges the same slabs and sums, on
    // uneven slabs too; the paper's order splits nothing.
    let ds = amazon_scaled(8, 52);
    let n = ds.n();
    let halves = [0, 127, n];
    let quarters = [0, 61, 130, 190, n];
    let threed = Algo::ThreeD {
        aware: true,
        pc: 2,
        c: 2,
    };
    let onefived = |c| Algo::OneFiveD { aware: true, c };
    let cells: [(&[usize], Algo, ArchKind, LayerOrder); 4] = [
        (&halves, threed, ArchKind::Gcn, LayerOrder::NarrowSide),
        (&halves, onefived(2), ArchKind::Sage, LayerOrder::NarrowSide),
        (
            &quarters,
            onefived(4),
            ArchKind::Gcn,
            LayerOrder::NarrowSide,
        ),
        (
            &halves,
            onefived(2),
            ArchKind::Gcn,
            LayerOrder::AggregateFirst,
        ),
    ];
    for (bounds, algo, arch, order) in cells {
        let mut gcn = GcnConfig::paper_default(ds.f(), ds.num_classes);
        gcn.arch = arch;
        let (out, est) = run_in_order(&ds, bounds, algo, &gcn, order);
        let label = format!("{} {arch:?} {order:?}", algo.label());
        assert_stats_equal(&out.stats, &est, &label);
        if matches!(algo, Algo::ThreeD { .. }) {
            continue;
        }
        // 1.5D: one replica all-reduce per SpMM, the loss, one weight
        // gradient per layer, and the slab sums.
        let layers = gcn.layers() as u64;
        let narrow = order == LayerOrder::NarrowSide;
        let sage = arch == ArchKind::Sage;
        // SAGE forms no AᵀG at an aggregate-first layer 0.
        let spmms = 2 * layers - u64::from(sage && !narrow);
        let slabs = match (narrow, sage) {
            (false, _) => 0,
            (true, false) => 2,
            (true, true) => 4,
        };
        for rank in 0..out.stats.p() {
            assert_eq!(
                allreduce_ops_per_epoch(&out.stats, rank, 2),
                spmms + 1 + layers + slabs,
                "{label}: rank {rank}"
            );
        }
    }
}
