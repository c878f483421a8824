//! Pinned digests for the grid SpMM family (1.5D / 2D / 3D).
//!
//! The other suites hold executor == model and weights ≤ 1e-8 of the
//! reference; none holds *today == yesterday*. This one does: for fixed
//! seeded cells it hashes, per run, (a) every rank's per-phase
//! accounting — `ops`, `bytes_sent`, `bytes_recv`, `flops` and the bits
//! of `modeled_seconds` — (b) the loss trajectory and final weight bits,
//! and (c) the exported trace JSONL, and compares them against constants
//! produced by running this same file at the commit *before* the
//! 1.5D/2D/3D executors were merged into one grid executor. Any change
//! to op order, byte accounting, fold order or span emission in that
//! family shows up here as a changed digest. Every stats digest here was
//! regenerated once since, when the pipelined schedule's phase left
//! `PHASES` (one phase fewer hashed per rank, all of its counters zero
//! here); the result and trace digests kept their bits.
//!
//! Every table but the last is the paper's `(ÂH)W` order, selected once in
//! [`config`]; [`EXPECTED_NARROW`] pins the narrow-side order that
//! `DistConfig::new` defaults to, on one cell per family and schedule.
//!
//! Regenerating (only when a behaviour change is intended): run the test;
//! on mismatch it prints the full table of actual digests in source form.

use std::time::Duration;

use gnn_comm::{CostModel, FaultPlan};
use gnn_core::dist::even_bounds;
use gnn_core::{
    train_distributed, try_train_distributed, Algo, DistConfig, DistOutcome, GcnConfig, LayerOrder,
    RobustnessConfig,
};
use gnn_trace::{jsonl_string, PHASES};
use spmat::dataset::{amazon_scaled, Dataset};

const EPOCHS: usize = 2;

/// 64-bit FNV-1a, fed whole words and byte strings.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ u64::from(x)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }
}

/// (a) per rank, per phase: ops, bytes, flops, modeled-seconds bits.
fn stats_digest(out: &DistOutcome) -> u64 {
    let mut h = Fnv::new();
    for r in &out.stats.per_rank {
        for ph in PHASES {
            let c = r.phase(ph);
            for w in [
                c.ops,
                c.bytes_sent,
                c.bytes_recv,
                c.flops,
                c.modeled_seconds.to_bits(),
            ] {
                h.word(w);
            }
        }
    }
    h.0
}

/// (b) loss/accuracy trajectory and final weights, bit for bit.
fn result_digest(out: &DistOutcome) -> u64 {
    let mut h = Fnv::new();
    for r in &out.records {
        h.word(r.loss.to_bits());
        h.word(r.train_accuracy.to_bits());
    }
    for m in &out.weights.mats {
        for &v in m.data() {
            h.word(v.to_bits());
        }
    }
    h.0
}

/// (c) the exported trace artifact, byte for byte.
fn trace_digest(out: &DistOutcome) -> u64 {
    let mut h = Fnv::new();
    h.bytes(jsonl_string(out.trace.as_ref().expect("trace requested")).as_bytes());
    h.0
}

fn dataset() -> Dataset {
    amazon_scaled(8, 41)
}

fn config(ds: &Dataset, algo: Algo) -> DistConfig {
    let gcn = GcnConfig::paper_default(ds.f(), ds.num_classes);
    DistConfig::new(algo, gcn, EPOCHS, CostModel::perlmutter_like()).paper_order()
}

/// The seeded cells: label, grid rows (`bounds.len() - 1`), algorithm.
fn cells(aware: bool) -> [(&'static str, usize, Algo); 6] {
    [
        ("1.5d p=4 c=2", 2, Algo::OneFiveD { aware, c: 2 }),
        ("1.5d p=8 c=2", 4, Algo::OneFiveD { aware, c: 2 }),
        ("2d 2x2", 2, Algo::TwoD { aware, pc: 2 }),
        ("3d 2x2x1", 2, Algo::ThreeD { aware, pc: 2, c: 1 }),
        ("3d 2x1x2", 2, Algo::ThreeD { aware, pc: 1, c: 2 }),
        ("3d 2x2x2", 2, Algo::ThreeD { aware, pc: 2, c: 2 }),
    ]
}

/// `[stats, result, trace]` digests per run, in `cells() × {aware,
/// oblivious}` order.
const EXPECTED: [[u64; 3]; 12] = [
    [0x863ec85b0c582742, 0xd8a61bbc3fb5670d, 0x860524e7a8284a8b], // 1.5d p=4 c=2 aware=true
    [0xb530fcf2624450a5, 0xd8a61bbc3fb5670d, 0x92a1a4e8f06f817c], // 1.5d p=4 c=2 aware=false
    [0xa1ed6a0a21c57817, 0x18c16fd026667f41, 0xef8e986c14f6dfa6], // 1.5d p=8 c=2 aware=true
    [0xae2d2f462f4c6311, 0x18c16fd026667f41, 0x9a210beafaead4e7], // 1.5d p=8 c=2 aware=false
    [0x95536a311792b259, 0x3cac66db50c6898a, 0xb7614a9d4a986ccb], // 2d 2x2 aware=true
    [0x35286b6cd50fb8b9, 0x3cac66db50c6898a, 0x87c1edfdea360c9b], // 2d 2x2 aware=false
    [0xf546c9dd2df1cc99, 0x3cac66db50c6898a, 0x8051bf1f8a761214], // 3d 2x2x1 aware=true
    [0x065afc07b9c4fb61, 0x3cac66db50c6898a, 0x66925c60cd357767], // 3d 2x2x1 aware=false
    [0xd15917616d455f93, 0xca97c82a3e22e6ae, 0x4ba4247d2b95a88d], // 3d 2x1x2 aware=true
    [0x07d8516ae17d4036, 0xca97c82a3e22e6ae, 0xed4ae22e4e29a3d4], // 3d 2x1x2 aware=false
    [0x4dcd2497d709af95, 0x3f2c175f07f35fb3, 0xfcfe76e9c1d21d4b], // 3d 2x2x2 aware=true
    [0x5d3df125bbcbe7a9, 0x3f2c175f07f35fb3, 0x2750329f93cca8aa], // 3d 2x2x2 aware=false
];

/// `[stats, result, trace]` digests of the GraphSAGE runs, in
/// `sage_cells()` order. The result digests were
/// produced by running this file at the commit *before* 1D became a grid
/// shape and the three trainer rank loops became one (7ed9493); the stats
/// and trace digests were regenerated when SAGE stopped forming the
/// layer-0 `AᵀG` that nothing reads (one exchange per epoch fewer).
const EXPECTED_SAGE: [[u64; 3]; 3] = [
    [0x662ece267f26aba7, 0x5ee1e3ce52dd2e72, 0x5128e6d72e3777e8], // sage 1d p=3
    [0x31c1aa5e6c97cd3e, 0x9a38683ada24b7d7, 0xa8d1c4ded1dfcf40], // sage 1.5d p=4 c=2
    [0xc5f9f743f6785049, 0x0176a789e5a570c1, 0x7b886139a1e9b840], // sage 2d 2x2
];

/// `[stats, result, trace]` digests of a 1.5D run (`p = 4`, `c = 2`,
/// five epochs, a checkpoint every two) whose rank 1 crashes at op 3 of
/// epoch 2 and which restarts once from the epoch-2 checkpoint. The
/// stats and trace are the resumed world's (epochs 2..5); the result
/// digest equals the fault-free run's.
const EXPECTED_RESTART: [u64; 3] = [0x7dfe6daa190d4fa0, 0xbfe3fb748acfba5b, 0xad1bf70c1046cd0d];

#[test]
fn grid_family_accounting_results_and_traces_are_pinned() {
    let ds = dataset();
    let mut actual = Vec::new();
    let mut labels = Vec::new();
    for cell in 0..cells(true).len() {
        for aware in [true, false] {
            let (label, pr, algo) = cells(aware)[cell];
            let bounds = even_bounds(ds.n(), pr);
            let mut cfg = config(&ds, algo);
            cfg.trace = true;
            let out = train_distributed(&ds, &bounds, &cfg);
            actual.push([stats_digest(&out), result_digest(&out), trace_digest(&out)]);
            labels.push(format!("{label} aware={aware}"));
        }
    }
    if actual[..] != EXPECTED[..] {
        let mut table = String::from("[\n");
        for (row, label) in actual.iter().zip(&labels) {
            table.push_str(&format!(
                "    [{:#018x}, {:#018x}, {:#018x}], // {label}\n",
                row[0], row[1], row[2]
            ));
        }
        table.push(']');
        let diverged: Vec<&String> = actual
            .iter()
            .zip(&EXPECTED)
            .zip(&labels)
            .filter(|((a, e), _)| a != e)
            .map(|(_, l)| l)
            .collect();
        panic!("digests diverged for {diverged:?}; actual table:\n{table}");
    }
}

/// The GraphSAGE cells: label, grid rows, algorithm.
fn sage_cells() -> [(&'static str, usize, Algo); 3] {
    [
        ("1d p=3", 3, Algo::OneD { aware: true }),
        ("1.5d p=4 c=2", 2, Algo::OneFiveD { aware: true, c: 2 }),
        ("2d 2x2", 2, Algo::TwoD { aware: true, pc: 2 }),
    ]
}

#[test]
fn sage_accounting_results_and_traces_are_pinned() {
    let ds = dataset();
    let mut actual = Vec::new();
    for (label, pr, algo) in sage_cells() {
        let bounds = even_bounds(ds.n(), pr);
        let mut cfg = config(&ds, algo);
        cfg.gcn = cfg.gcn.with_sage();
        cfg.trace = true;
        let out = train_distributed(&ds, &bounds, &cfg);
        let row = [stats_digest(&out), result_digest(&out), trace_digest(&out)];
        println!(
            "    [{:#018x}, {:#018x}, {:#018x}], // sage {label}",
            row[0], row[1], row[2]
        );
        actual.push(row);
    }
    assert_eq!(actual[..], EXPECTED_SAGE[..], "actual rows printed above");
}

#[test]
fn restart_run_results_are_pinned() {
    let ds = dataset();
    let bounds = even_bounds(ds.n(), 2); // pr = 2, c = 2 → p = 4
    let mut cfg = config(&ds, Algo::OneFiveD { aware: true, c: 2 });
    cfg.epochs = 5;
    cfg.trace = true;
    let clean = train_distributed(&ds, &bounds, &cfg);
    cfg.robust = RobustnessConfig {
        faults: Some(FaultPlan::new(3).crash_at(1, 2, 3)),
        checkpoint_every: 2,
        max_restarts: 1,
        timeout: Duration::from_secs(10),
    };
    let out = try_train_distributed(&ds, &bounds, &cfg).expect("one restart recovers the crash");
    assert_eq!((out.restarts, &out.resume_points[..]), (1, &[2][..]));
    assert_eq!(result_digest(&out), result_digest(&clean));
    let actual = [stats_digest(&out), result_digest(&out), trace_digest(&out)];
    assert_eq!(
        actual, EXPECTED_RESTART,
        "actual [{:#018x}, {:#018x}, {:#018x}]",
        actual[0], actual[1], actual[2]
    );
}

/// The narrow-side cells: label, grid rows, algorithm, SAGE?
fn narrow_cells() -> [(&'static str, usize, Algo, bool); 7] {
    let (aware, gcn, sage) = (true, false, true);
    [
        ("1d aware p=2", 2, Algo::OneD { aware }, gcn),
        ("1d aware p=3", 3, Algo::OneD { aware }, gcn),
        ("1d oblivious p=2", 2, Algo::OneD { aware: false }, gcn),
        ("1.5d p=4 c=2", 2, Algo::OneFiveD { aware, c: 2 }, gcn),
        ("2d 2x2", 2, Algo::TwoD { aware, pc: 2 }, gcn),
        ("3d 2x2x2", 2, Algo::ThreeD { aware, pc: 2, c: 2 }, gcn),
        ("sage 1d p=3", 3, Algo::OneD { aware }, sage),
    ]
}

/// `[stats, result, trace]` digests under [`LayerOrder::NarrowSide`], in
/// [`narrow_cells`] order; generated at the commit that introduced the
/// order, identical over repeated runs, at 1 and 4 kernel threads and in
/// debug and release builds. The oblivious row repeats its aware twin's
/// result digest.
const EXPECTED_NARROW: [[u64; 3]; 7] = [
    [0x2210a8986fb1bc62, 0x5b4af35c51934254, 0xfa789b97365485fc], // 1d aware p=2
    [0x1f61636383426ed5, 0xbda5b766b30e7c2e, 0xfcd6d3da995743e0], // 1d aware p=3
    [0x0cb8e08e06457e3e, 0x5b4af35c51934254, 0xbe292365ee758886], // 1d oblivious p=2
    [0xdf4ee1821dc8abdf, 0x53ab20d5a4a74744, 0xc1c9df39101549a0], // 1.5d p=4 c=2
    [0xbffa206685383d39, 0x27ca0b631a54a2b5, 0x20dd18b68513f56d], // 2d 2x2
    [0x66e91b4851ab4561, 0xb3814da4c5f89f54, 0x32e074891fdc73cc], // 3d 2x2x2
    [0x4fc86c426a6a5346, 0x4f747a4d23d84727, 0x6a1a88ade5c0659b], // sage 1d p=3
];

#[test]
fn narrow_side_accounting_results_and_traces_are_pinned() {
    let ds = dataset();
    let mut actual = Vec::new();
    for (label, pr, algo, sage) in narrow_cells() {
        let bounds = even_bounds(ds.n(), pr);
        let mut cfg = config(&ds, algo);
        cfg.order = LayerOrder::NarrowSide;
        if sage {
            cfg.gcn = cfg.gcn.with_sage();
        }
        cfg.trace = true;
        let out = train_distributed(&ds, &bounds, &cfg);
        let row = [stats_digest(&out), result_digest(&out), trace_digest(&out)];
        println!(
            "    [{:#018x}, {:#018x}, {:#018x}], // {label}",
            row[0], row[1], row[2]
        );
        actual.push(row);
    }
    assert_eq!(actual[..], EXPECTED_NARROW[..], "actual rows printed above");
}
