//! End-to-end parity: every distributed algorithm variant, on every
//! distribution scheme, must reproduce the sequential reference training
//! to floating-point tolerance — the paper's "no change in accuracy
//! apart from floating-point rounding errors" claim, verified.

use gnn_bench::{prepare_full, Scheme};
use gnn_comm::CostModel;
use gnn_core::model::ArchKind;
use gnn_core::{train_distributed, Algo, DistConfig, GcnConfig, LayerOrder, ReferenceTrainer};
use spmat::dataset::{amazon_scaled, protein_scaled, Dataset};

const EPOCHS: usize = 3;

/// Trains distributed on a scheme-permuted dataset and checks records +
/// final weights against the sequential reference on the same permuted
/// dataset — which forms `(ÂH)W` whatever order the distributed run
/// exchanges in.
fn check_in_order(
    ds: &Dataset,
    scheme: Scheme,
    algo: Algo,
    parts: usize,
    arch: ArchKind,
    order: LayerOrder,
) {
    let (pds, bounds) = prepare_full(ds, parts, scheme, 3);
    let mut gcn = GcnConfig::paper_default(pds.f(), pds.num_classes);
    gcn.arch = arch;

    let mut reference = ReferenceTrainer::new(&pds, gcn.clone());
    let ref_records = reference.train(EPOCHS);

    let mut cfg = DistConfig::new(algo, gcn, EPOCHS, CostModel::perlmutter_like());
    cfg.order = order;
    let out = train_distributed(&pds, &bounds, &cfg);
    let label = format!("{scheme:?}/{algo:?}/{arch:?}/{order:?}");
    for (e, (a, b)) in out.records.iter().zip(&ref_records).enumerate() {
        assert!(
            (a.loss - b.loss).abs() < 1e-8,
            "{label} epoch {e}: loss {} vs {}",
            a.loss,
            b.loss
        );
        assert!(
            (a.train_accuracy - b.train_accuracy).abs() < 1e-8,
            "{label} epoch {e}: accuracy mismatch"
        );
    }
    let drift = out.weights.max_abs_diff(&reference.weights);
    assert!(drift < 1e-8, "{label}: weight drift {drift}");
}

/// [`check_in_order`] for a GCN in the default order.
fn check(ds: &Dataset, scheme: Scheme, algo: Algo, parts: usize) {
    let order = LayerOrder::default();
    check_in_order(ds, scheme, algo, parts, ArchKind::Gcn, order);
}

#[test]
fn every_family_and_architecture_in_both_orders() {
    let ds = amazon_scaled(8, 29);
    let aware = true;
    let families = [
        (Algo::OneD { aware }, 4),
        (Algo::OneFiveD { aware, c: 2 }, 2),
        (Algo::TwoD { aware, pc: 2 }, 2),
        (Algo::ThreeD { aware, pc: 2, c: 2 }, 2),
    ];
    for (algo, parts) in families {
        for arch in [ArchKind::Gcn, ArchKind::Sage] {
            for order in [LayerOrder::AggregateFirst, LayerOrder::NarrowSide] {
                check_in_order(&ds, Scheme::SaGvb, algo, parts, arch, order);
            }
        }
    }
}

#[test]
fn one_d_all_schemes_on_amazon() {
    let ds = amazon_scaled(8, 21);
    for scheme in [Scheme::Cagnet, Scheme::Sa, Scheme::SaMetis, Scheme::SaGvb] {
        check(
            &ds,
            scheme,
            Algo::OneD {
                aware: scheme.aware(),
            },
            4,
        );
    }
}

#[test]
fn one_d_aware_on_protein_partitioned() {
    let ds = protein_scaled(512, 8, 22);
    check(&ds, Scheme::SaGvb, Algo::OneD { aware: true }, 8);
}

#[test]
fn one_five_d_all_variants() {
    let ds = amazon_scaled(8, 23);
    // p = 8, c = 2 → 4 block rows.
    check(&ds, Scheme::SaGvb, Algo::OneFiveD { aware: true, c: 2 }, 4);
    check(&ds, Scheme::Sa, Algo::OneFiveD { aware: false, c: 2 }, 4);
}

#[test]
fn one_five_d_c4_grid() {
    let ds = protein_scaled(512, 8, 24);
    // p = 16, c = 4 → 4 block rows, one stage per rank.
    check(
        &ds,
        Scheme::SaMetis,
        Algo::OneFiveD { aware: true, c: 4 },
        4,
    );
}

#[test]
fn adam_optimizer_parity() {
    // The optimizer state is replicated and deterministic; Adam training
    // must agree between distributed and sequential runs too.
    let ds = amazon_scaled(7, 27);
    let (pds, bounds) = prepare_full(&ds, 4, Scheme::SaGvb, 3);
    let gcn = GcnConfig::paper_default(pds.f(), pds.num_classes).with_adam(0.01);
    let mut reference = ReferenceTrainer::new(&pds, gcn.clone());
    let ref_records = reference.train(EPOCHS);
    let out = train_distributed(
        &pds,
        &bounds,
        &DistConfig::new(
            Algo::OneD { aware: true },
            gcn,
            EPOCHS,
            CostModel::perlmutter_like(),
        ),
    );
    for (a, b) in out.records.iter().zip(&ref_records) {
        assert!((a.loss - b.loss).abs() < 1e-8);
    }
    assert!(out.weights.max_abs_diff(&reference.weights) < 1e-8);
}

#[test]
fn sage_architecture_parity() {
    // GraphSAGE reuses the same communication plans; distributed SAGE
    // training must also match its sequential reference.
    let ds = amazon_scaled(8, 28);
    let (pds, bounds) = prepare_full(&ds, 4, Scheme::SaGvb, 3);
    let gcn = GcnConfig::paper_default(pds.f(), pds.num_classes).with_sage();
    let mut reference = ReferenceTrainer::new(&pds, gcn.clone());
    let ref_records = reference.train(EPOCHS);
    for algo in [
        Algo::OneD { aware: true },
        Algo::OneFiveD { aware: true, c: 2 },
    ] {
        let out = train_distributed(
            &pds,
            &bounds,
            &DistConfig::new(algo, gcn.clone(), EPOCHS, CostModel::perlmutter_like()),
        );
        for (a, b) in out.records.iter().zip(&ref_records) {
            assert!(
                (a.loss - b.loss).abs() < 1e-8,
                "{algo:?}: {} vs {}",
                a.loss,
                b.loss
            );
        }
        assert!(
            out.weights.max_abs_diff(&reference.weights) < 1e-8,
            "{algo:?}"
        );
    }
}

#[test]
fn degenerate_single_rank() {
    let ds = amazon_scaled(7, 25);
    check(&ds, Scheme::Sa, Algo::OneD { aware: true }, 1);
}

#[test]
fn uneven_partition_bounds() {
    // Partitioned schemes produce uneven blocks; make sure a strongly
    // unbalanced hand-made split also trains correctly.
    let ds = amazon_scaled(8, 26);
    let gcn = GcnConfig::paper_default(ds.f(), ds.num_classes);
    let n = ds.n();
    let bounds = vec![0, n / 10, n / 2, n];
    let mut reference = ReferenceTrainer::new(&ds, gcn.clone());
    let ref_records = reference.train(2);
    let out = train_distributed(
        &ds,
        &bounds,
        &DistConfig::new(
            Algo::OneD { aware: true },
            gcn,
            2,
            CostModel::perlmutter_like(),
        ),
    );
    for (a, b) in out.records.iter().zip(&ref_records) {
        assert!((a.loss - b.loss).abs() < 1e-8);
    }
}
