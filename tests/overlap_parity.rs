//! Differential conformance for the comm/compute overlap pipeline.
//!
//! The chunked nonblocking schedule must be a pure *scheduling*
//! transformation: for every algorithm × distribution scheme × chunk
//! count, the overlapped run's loss trajectory and final weights are
//! **bit-identical** to the blocking schedule's, and the logical
//! communication volumes are unchanged — only the modeled clock (how
//! much comm hides behind compute) may differ. The golden-trace test
//! pins the trace artifact itself: a seeded overlapped run exports
//! byte-identical JSONL, carries `Phase::Overlap` events, passes the
//! schema validator, and its exposed-comm time reconciles with the
//! simulator's `WorldStats` counters.

use gnn_bench::{prepare_full, Scheme};
use gnn_comm::{CostModel, OverlapConfig, Phase};
use gnn_core::{train_distributed, Algo, DistConfig, DistOutcome, GcnConfig};
use gnn_trace::{jsonl_string, validate_jsonl};
use spmat::dataset::{amazon_scaled, Dataset};

const EPOCHS: usize = 2;
const CHUNKS: [usize; 3] = [1, 2, 7];

fn run(ds: &Dataset, bounds: &[usize], algo: Algo, ov: OverlapConfig, trace: bool) -> DistOutcome {
    let gcn = GcnConfig::paper_default(ds.f(), ds.num_classes);
    let mut cfg = DistConfig::new(algo, gcn, EPOCHS, CostModel::perlmutter_like()).paper_order();
    cfg.overlap = ov;
    cfg.trace = trace;
    train_distributed(ds, bounds, &cfg)
}

/// Blocking vs overlapped at several chunk counts: bit-identical
/// records and weights, identical logical volumes per phase.
fn check_parity(ds: &Dataset, scheme: Scheme, algo: Algo, parts: usize) {
    let (pds, bounds) = prepare_full(ds, parts, scheme, 9);
    let blocking = run(&pds, &bounds, algo, OverlapConfig::off(), false);
    assert_eq!(blocking.stats.total_overlap_stages(), 0);
    for chunks in CHUNKS {
        let ov = run(&pds, &bounds, algo, OverlapConfig::on(chunks), false);
        let label = format!("{scheme:?}/{algo:?}/chunks={chunks}");
        for (e, (a, b)) in ov.records.iter().zip(&blocking.records).enumerate() {
            assert_eq!(
                a.loss.to_bits(),
                b.loss.to_bits(),
                "{label} epoch {e}: loss {} vs {}",
                a.loss,
                b.loss
            );
            assert_eq!(
                a.train_accuracy.to_bits(),
                b.train_accuracy.to_bits(),
                "{label} epoch {e}: accuracy mismatch"
            );
        }
        assert_eq!(
            ov.weights.max_abs_diff(&blocking.weights),
            0.0,
            "{label}: weights drifted"
        );
        // Logical bytes moved are a property of the plan, not the
        // schedule: identical in every phase, sent and received.
        for phase in [Phase::AllToAll, Phase::Bcast, Phase::P2p, Phase::AllReduce] {
            assert_eq!(
                blocking.stats.phase_bytes_total(phase),
                ov.stats.phase_bytes_total(phase),
                "{label}: {phase:?} sent bytes changed"
            );
            assert_eq!(
                blocking.stats.phase_recv_bytes_total(phase),
                ov.stats.phase_recv_bytes_total(phase),
                "{label}: {phase:?} recv bytes changed"
            );
        }
        // The pipeline really ran: overlap windows were measured, and
        // raw comm = hidden + exposed on every rank.
        assert!(
            ov.stats.total_overlap_stages() > 0,
            "{label}: no overlap stages recorded"
        );
        for (rank, r) in ov.stats.per_rank.iter().enumerate() {
            let o = &r.overlap;
            let d = (o.raw_comm_seconds
                - (o.hidden_seconds + r.phase(Phase::Overlap).modeled_seconds))
                .abs();
            assert!(
                d <= 1e-12 * o.raw_comm_seconds.max(1e-12),
                "{label} rank {rank}: raw {} != hidden {} + exposed {}",
                o.raw_comm_seconds,
                o.hidden_seconds,
                r.phase(Phase::Overlap).modeled_seconds
            );
        }
    }
}

#[test]
fn one_d_parity_across_schemes_and_chunks() {
    let ds = amazon_scaled(8, 31);
    for scheme in [Scheme::Cagnet, Scheme::Sa, Scheme::SaGvb] {
        check_parity(
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
fn one_five_d_parity_across_schemes_and_chunks() {
    let ds = amazon_scaled(8, 32);
    for scheme in [Scheme::Cagnet, Scheme::Sa, Scheme::SaGvb] {
        check_parity(
            &ds,
            scheme,
            Algo::OneFiveD {
                aware: scheme.aware(),
                c: 2,
            },
            4, // p = 8, c = 2 → 4 block rows
        );
    }
}

/// The grid algorithms pipeline too: 2D and 3D chunked schedules must
/// be pure scheduling transformations, exactly like 1D/1.5D — same
/// bits, same logical volumes, measured overlap windows.
#[test]
fn grid_parity_across_schemes_and_chunks() {
    let ds = amazon_scaled(8, 33);
    for scheme in [Scheme::Cagnet, Scheme::Sa, Scheme::SaGvb] {
        // pr = 2 block rows each; p = 4 ranks for both grids.
        check_parity(
            &ds,
            scheme,
            Algo::TwoD {
                aware: scheme.aware(),
                pc: 2,
            },
            2,
        );
        check_parity(
            &ds,
            scheme,
            Algo::ThreeD {
                aware: scheme.aware(),
                pc: 1,
                c: 2,
            },
            2,
        );
    }
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
    let once = run(&pds, &bounds, algo, OverlapConfig::off(), true);
    let again = run(&pds, &bounds, algo, OverlapConfig::off(), true);
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

/// Golden-trace regression: a seeded overlapped 1.5D run exports
/// byte-identical JSONL across repeated runs, the artifact carries
/// `overlap_wait`/`overlap_hidden` events and passes the schema
/// validator, and the traced exposed time reconciles with `WorldStats`.
#[test]
fn golden_overlapped_trace_is_stable_and_valid() {
    let ds = amazon_scaled(8, 34);
    let (pds, bounds) = prepare_full(&ds, 4, Scheme::SaGvb, 9);
    let algo = Algo::OneFiveD { aware: true, c: 2 };
    let once = run(&pds, &bounds, algo, OverlapConfig::on(3), true);
    let again = run(&pds, &bounds, algo, OverlapConfig::on(3), true);
    let jsonl = jsonl_string(once.trace.as_ref().expect("trace requested"));
    let jsonl2 = jsonl_string(again.trace.as_ref().expect("trace requested"));
    assert_eq!(jsonl, jsonl2, "overlapped trace is not deterministic");

    assert!(jsonl.contains("overlap_wait"), "no overlap_wait events");
    assert!(jsonl.contains("overlap_hidden"), "no overlap_hidden events");

    let summary = validate_jsonl(&jsonl).expect("overlapped trace fails validation");
    assert_eq!(summary.p, 8);

    // The trace's exposed-comm accounting must agree with the stats
    // registry: per rank, overlap_wait durations sum to the Overlap
    // phase's modeled seconds, and overlap_hidden durations sum to the
    // hidden counter.
    let trace = once.trace.as_ref().unwrap();
    for (rank, r) in once.stats.per_rank.iter().enumerate() {
        let aggs = trace.phase_aggregates(rank, None);
        let idx = Phase::Overlap.index();
        let exposed = aggs[idx].seconds;
        let hidden: f64 = aggs.iter().map(|a| a.hidden_seconds).sum();
        let want_exposed = r.phase(Phase::Overlap).modeled_seconds;
        assert!(
            (exposed - want_exposed).abs() <= 1e-9 * want_exposed.max(1e-12),
            "rank {rank}: traced exposed {exposed} vs stats {want_exposed}"
        );
        assert!(
            (hidden - r.overlap.hidden_seconds).abs() <= 1e-9 * r.overlap.hidden_seconds.max(1e-12),
            "rank {rank}: traced hidden {hidden} vs stats {}",
            r.overlap.hidden_seconds
        );
    }
}
