//! End-to-end observability: the structured tracer, exporters, schema
//! validator, and bottleneck-rank attribution exercised through the
//! public training API exactly the way `train --trace` drives it.
//!
//! The invariants under test are the ones the trace is *for*: spans
//! nest the way the trainer is structured (epoch → forward/loss/
//! backward → SpMM), traced volumes reconcile exactly with the
//! simulator's `WorldStats` counters, two seeded runs export
//! byte-identical JSONL, and the attribution report names the rank the
//! raw statistics say is critical.

use gnn_bench::{prepare_full, Scheme};
use gnn_comm::{CostModel, FaultPlan, Phase, SpanKind};
use gnn_core::{
    train_distributed, try_train_distributed, Algo, DistConfig, DistOutcome, GcnConfig,
    RobustnessConfig,
};
use gnn_trace::{jsonl_string, parse_jsonl, validate_jsonl, BottleneckReport, PHASES};
use spmat::dataset::{amazon_scaled, protein_scaled, Dataset};

const EPOCHS: usize = 2;

fn dataset() -> Dataset {
    protein_scaled(192, 8, 7)
}

fn traced_run(ds: &Dataset, bounds: &[usize], faults: Option<FaultPlan>) -> DistOutcome {
    let mut cfg = DistConfig::new(
        Algo::OneD { aware: true },
        GcnConfig::paper_default(ds.f(), ds.num_classes),
        EPOCHS,
        CostModel::perlmutter_like(),
    );
    cfg.trace = true;
    if let Some(plan) = faults {
        cfg.robust = RobustnessConfig {
            faults: Some(plan),
            ..cfg.robust
        };
    }
    try_train_distributed(ds, bounds, &cfg).expect("traced training run")
}

fn even_bounds(n: usize, p: usize) -> Vec<usize> {
    gnn_core::dist::even_bounds(n, p)
}

#[test]
fn epoch_span_tree_nests_like_the_trainer() {
    let ds = dataset();
    let out = traced_run(&ds, &even_bounds(ds.n(), 4), None);
    let trace = out.trace.expect("trace was requested");
    assert_eq!(trace.p(), 4);
    for rank in 0..4 {
        let roots = trace.span_tree(rank);
        // One Epoch root per epoch, in order.
        assert_eq!(roots.len(), EPOCHS, "rank {rank}");
        for (epoch, root) in roots.iter().enumerate() {
            assert_eq!(root.kind, SpanKind::Epoch);
            assert_eq!(root.event.epoch, epoch as i64);
            let kinds: Vec<SpanKind> = root.children.iter().map(|c| c.kind).collect();
            assert_eq!(
                kinds,
                vec![SpanKind::Forward, SpanKind::Loss, SpanKind::Backward],
                "rank {rank} epoch {epoch}"
            );
            // Every forward layer runs one 1D SpMM.
            let fwd = &root.children[0];
            assert!(
                fwd.children.iter().all(|c| c.kind == SpanKind::Spmm1d),
                "rank {rank} epoch {epoch}"
            );
            assert!(!fwd.children.is_empty());
            // The epoch span's transitive rollup covers its children.
            assert!(root.total_bytes_sent >= fwd.total_bytes_sent);
        }
    }
}

#[test]
fn traced_volumes_and_times_match_world_stats() {
    let ds = dataset();
    let out = traced_run(&ds, &even_bounds(ds.n(), 4), None);
    let trace = out.trace.expect("trace was requested");
    for (rank, rs) in out.stats.per_rank.iter().enumerate() {
        let agg = trace.phase_aggregates(rank, None);
        let mut traced_seconds = 0.0;
        for phase in PHASES {
            let a = agg[phase.index()];
            let s = rs.phase(phase);
            assert_eq!(a.bytes_sent, s.bytes_sent, "rank {rank} {phase:?} sent");
            assert_eq!(a.bytes_recv, s.bytes_recv, "rank {rank} {phase:?} recv");
            assert!(
                (a.seconds - s.modeled_seconds).abs() <= 1e-12 * (1.0 + s.modeled_seconds),
                "rank {rank} {phase:?}: traced {} vs stats {}",
                a.seconds,
                s.modeled_seconds
            );
            traced_seconds += a.seconds;
        }
        assert!((traced_seconds - rs.modeled_total()).abs() <= 1e-9);
    }
    for phase in [Phase::AllToAll, Phase::AllReduce] {
        assert_eq!(
            trace.phase_bytes_total(phase),
            out.stats.phase_bytes_total(phase),
            "{phase:?}"
        );
        assert!(trace.phase_bytes_total(phase) > 0, "{phase:?}");
    }
}

#[test]
fn seeded_runs_export_byte_identical_jsonl() {
    let ds = dataset();
    let bounds = even_bounds(ds.n(), 4);
    let a = traced_run(&ds, &bounds, None);
    let b = traced_run(&ds, &bounds, None);
    let ja = jsonl_string(&a.trace.unwrap());
    let jb = jsonl_string(&b.trace.unwrap());
    assert!(!ja.is_empty());
    assert_eq!(ja, jb, "seeded runs must trace identically");
}

#[test]
fn emitted_jsonl_passes_the_validator_and_round_trips() {
    let ds = dataset();
    let out = traced_run(&ds, &even_bounds(ds.n(), 4), None);
    let trace = out.trace.unwrap();
    let jsonl = jsonl_string(&trace);
    let summary = validate_jsonl(&jsonl).expect("emitted trace must validate");
    assert_eq!(summary.p, 4);
    assert_eq!(summary.events as usize, trace.len());
    assert_eq!(summary.max_epoch, (EPOCHS - 1) as i64);
    // Reload → re-export is the identity on the wire format.
    let reloaded = parse_jsonl(&jsonl).expect("parse back");
    assert_eq!(jsonl_string(&reloaded), jsonl);
}

#[test]
fn bottleneck_attribution_agrees_with_raw_stats_on_a_skewed_partition() {
    let ds = dataset();
    let n = ds.n();
    // Rank 0 owns almost the whole graph; ranks 1–3 get one row each.
    // Rank 0 must therefore dominate both send volume and modeled time.
    let bounds = vec![0, n - 3, n - 2, n - 1, n];
    let out = traced_run(&ds, &bounds, None);
    let trace = out.trace.expect("trace was requested");
    let report = BottleneckReport::from_trace(&trace);
    assert_eq!(report.p, 4);
    assert_eq!(report.epochs.len(), EPOCHS);

    // Ground truth from the simulator's own counters.
    let stats_max_send = (0..4)
        .max_by_key(|&r| out.stats.per_rank[r].bytes_sent_total())
        .unwrap();
    let stats_bottleneck = (0..4)
        .max_by(|&a, &b| {
            let ta = out.stats.per_rank[a].modeled_total();
            let tb = out.stats.per_rank[b].modeled_total();
            ta.partial_cmp(&tb).unwrap()
        })
        .unwrap();
    assert_eq!(stats_max_send, 0, "skew must land on rank 0");
    for e in &report.epochs {
        assert_eq!(e.max_send_rank, stats_max_send, "epoch {}", e.epoch);
        assert_eq!(e.bottleneck_rank, stats_bottleneck, "epoch {}", e.epoch);
        assert!(e.send_imbalance() > 1.5, "skew must show as imbalance");
    }
    assert_eq!(report.dominant_bottleneck(), Some(stats_bottleneck));
    let rendered = report.render();
    assert!(rendered.contains(&format!("bottleneck rank {stats_bottleneck}")));
}

#[test]
fn retransmit_overhead_is_separated_from_logical_volume() {
    let ds = dataset();
    let bounds = even_bounds(ds.n(), 4);
    let clean = traced_run(&ds, &bounds, None);
    let mut plan = FaultPlan::new(11);
    for rank in 0..4 {
        plan = plan.drop_messages(rank, None, 0.2);
    }
    let faulty = traced_run(&ds, &bounds, Some(plan));
    assert!(
        faulty.stats.total_retransmit_bytes() > 0,
        "drop plan must force retransmissions"
    );
    let trace = faulty.trace.expect("trace was requested");
    // Logical volumes are unchanged by retries…
    for phase in PHASES {
        assert_eq!(
            trace.phase_bytes_total(phase),
            clean.stats.phase_bytes_total(phase),
            "{phase:?}"
        );
    }
    // …and the wire overhead the trace accounts separately reconciles
    // with the fault counters.
    let traced_retransmit: u64 = (0..4)
        .map(|r| {
            trace
                .phase_aggregates(r, None)
                .iter()
                .map(|a| a.retransmit_bytes)
                .sum::<u64>()
        })
        .sum();
    assert_eq!(traced_retransmit, faulty.stats.total_retransmit_bytes());
}

#[test]
fn tracing_does_not_perturb_results_or_stats() {
    let ds = dataset();
    let bounds = even_bounds(ds.n(), 4);
    let traced = traced_run(&ds, &bounds, None);
    let mut cfg = DistConfig::new(
        Algo::OneD { aware: true },
        GcnConfig::paper_default(ds.f(), ds.num_classes),
        EPOCHS,
        CostModel::perlmutter_like(),
    );
    cfg.trace = false;
    let plain = try_train_distributed(&ds, &bounds, &cfg).expect("untraced run");
    assert!(plain.trace.is_none());
    // wall_seconds is measured wall time and never deterministic;
    // everything modeled/counted must be bit-identical.
    let normalize = |stats: &gnn_comm::WorldStats| {
        let mut s = stats.clone();
        for r in &mut s.per_rank {
            for phase in PHASES {
                r.phase_mut(phase).wall_seconds = 0.0;
            }
        }
        s
    };
    assert_eq!(
        normalize(&traced.stats),
        normalize(&plain.stats),
        "tracing must be observation-only"
    );
    for (a, b) in traced.records.iter().zip(&plain.records) {
        assert_eq!(a.loss.to_bits(), b.loss.to_bits());
    }
}

/// A traced run of `algo` in the paper's `(ÂH)W` order.
fn paper_order_run(ds: &Dataset, bounds: &[usize], algo: Algo) -> DistOutcome {
    let gcn = GcnConfig::paper_default(ds.f(), ds.num_classes);
    let mut cfg = DistConfig::new(algo, gcn, EPOCHS, CostModel::perlmutter_like()).paper_order();
    cfg.trace = true;
    train_distributed(ds, bounds, &cfg)
}

/// Golden-trace regression for the 2D sparsity-aware path: a seeded
/// 2D-SA training run exports byte-identical JSONL across re-runs, the
/// artifact carries `spmm_2d` spans and passes the schema validator,
/// and its independent byte accounting reconciles with `WorldStats`
/// to the byte.
#[test]
fn golden_two_d_sa_trace_is_stable_and_reconciles() {
    let ds = amazon_scaled(8, 35);
    let (pds, bounds) = prepare_full(&ds, 2, Scheme::Sa, 9);
    let algo = Algo::TwoD { aware: true, pc: 2 }; // p = 4
    let once = paper_order_run(&pds, &bounds, algo);
    let again = paper_order_run(&pds, &bounds, algo);
    let jsonl = jsonl_string(once.trace.as_ref().expect("trace requested"));
    let jsonl2 = jsonl_string(again.trace.as_ref().expect("trace requested"));
    assert_eq!(
        jsonl, jsonl2,
        "2D-SA trace is not byte-identical across re-runs"
    );

    assert!(jsonl.contains("spmm_2d"), "no spmm_2d spans in the trace");
    let summary = validate_jsonl(&jsonl).expect("2D-SA trace fails validation");
    assert_eq!(summary.p, 4);

    // The validator's independent accounting must agree with the
    // runtime stats registry exactly — and a clean run retransmits
    // nothing, so logical volume is the whole story.
    assert_eq!(
        summary.logical_bytes_sent,
        once.stats
            .per_rank
            .iter()
            .map(|r| r.bytes_sent_total())
            .sum::<u64>(),
        "traced logical bytes disagree with WorldStats"
    );
    assert_eq!(summary.retransmit_wire_bytes, 0, "clean run retransmitted");
}
