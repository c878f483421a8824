//! Pinned digests for the 1D SpMM family, and the structure of its plan
//! (`GridPlan::oned`).
//!
//! Same idea as `grid_family_digest.rs`, for the row-blocked algorithms:
//! for fixed seeded cells it hashes, per run, (a) every rank's per-phase
//! accounting — `ops`, `bytes_sent`, `bytes_recv`, `flops` and the bits
//! of `modeled_seconds` — (b) the loss trajectory and final weight bits,
//! and (c) the exported trace JSONL, and compares them against constants
//! produced by running this same function at the commit *before* the
//! sparsity-aware executors stopped gathering `H̃` and started multiplying
//! one CSR segment per source rank (731421d). Any change to op order,
//! charge amounts, fold order or span emission in the 1D family shows up
//! here as a changed digest. The stats column was regenerated once since,
//! when the pipelined schedule's phase left `PHASES` (one phase fewer
//! hashed per rank, all of its counters zero here); the result and trace
//! columns kept their bits.
//!
//! Regenerating (only when a behaviour change is intended): run the test;
//! on mismatch it prints the full table of actual digests in source form.

use gnn_comm::CostModel;
use gnn_core::dist::{even_bounds, GridPlan};
use gnn_core::{train_distributed, Algo, DistConfig, DistOutcome, GcnConfig};
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
    amazon_scaled(8, 43)
}

/// `[stats, result, trace]` digests per run, in `{aware, oblivious} ×
/// p ∈ {2, 3, 4}` order.
const EXPECTED: [[u64; 3]; 6] = [
    [0xd54ceb6e890669b7, 0xd11ee3ef73f99b22, 0xc19d829703a4dd42], // 1d aware=true p=2
    [0x568558cd5d852ac8, 0xde147f7ada4c5172, 0xaba451660e409eb0], // 1d aware=true p=3
    [0xbdfe896aad152adf, 0xbc8d5facca6c91d9, 0x08e4034eb6f4c658], // 1d aware=true p=4
    [0x2763011b7d8ace34, 0xd11ee3ef73f99b22, 0x54f8d7fbf125b49f], // 1d aware=false p=2
    [0x0eb03205d2f410df, 0xde147f7ada4c5172, 0xd718221331199c8a], // 1d aware=false p=3
    [0xfd014742624e4045, 0xbc8d5facca6c91d9, 0xa718517b6da978a7], // 1d aware=false p=4
];

#[test]
fn oned_accounting_results_and_traces_are_pinned() {
    let ds = dataset();
    let gcn = GcnConfig::paper_default(ds.f(), ds.num_classes);
    let mut actual = Vec::new();
    let mut labels = Vec::new();
    for aware in [true, false] {
        for p in [2usize, 3, 4] {
            let bounds = even_bounds(ds.n(), p);
            let mut cfg = DistConfig::new(
                Algo::OneD { aware },
                gcn.clone(),
                EPOCHS,
                CostModel::perlmutter_like(),
            )
            .paper_order();
            cfg.trace = true;
            let out = train_distributed(&ds, &bounds, &cfg);
            actual.push([stats_digest(&out), result_digest(&out), trace_digest(&out)]);
            labels.push(format!("1d aware={aware} p={p}"));
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

#[test]
fn plan_segments_partition_the_block_row_in_order() {
    let ds = dataset();
    for p in [1usize, 2, 3, 4, 7] {
        let bounds = even_bounds(ds.n(), p);
        let plan = GridPlan::oned(&ds.norm_adj, &bounds, true);
        for (i, rp) in plan.ranks.iter().enumerate() {
            let rows = rp.row_hi - rp.row_lo;
            let block = ds.norm_adj.row_block(rp.row_lo, rp.row_hi);
            assert_eq!(rp.stages.len(), p);
            for (j, st) in rp.stages.iter().enumerate() {
                let seg = &st.block_compact;
                let width = if j == i { rows } else { st.needed.len() };
                assert_eq!(
                    (seg.rows(), seg.cols()),
                    (rows, width),
                    "p={p} rank {i} segment {j}: shape"
                );
            }
            let nnz: usize = rp.stages.iter().map(|st| st.block_compact.nnz()).sum();
            assert_eq!(nnz, block.nnz(), "p={p} rank {i}: Σ nnz");

            // Mapping every segment entry back to its global column and
            // concatenating the segments row by row, in ascending source
            // rank, must give back the block row entry for entry: the
            // segments partition its nonzeros and keep each row's order.
            let global = |j: usize, c: u32| match j == i {
                true => rp.row_lo + c as usize,
                false => rp.stages[j].needed[c as usize] as usize,
            };
            let mut rebuilt = Vec::with_capacity(nnz);
            for r in 0..rows {
                for (j, st) in rp.stages.iter().enumerate() {
                    let seg = &st.block_compact;
                    for (&c, &v) in seg.row_cols(r).iter().zip(seg.row_vals(r)) {
                        let g = global(j, c);
                        assert!(
                            (bounds[j]..bounds[j + 1]).contains(&g),
                            "p={p} rank {i} segment {j}: column {g} is not rank {j}'s"
                        );
                        rebuilt.push((r, g, v.to_bits()));
                    }
                }
            }
            let block: Vec<_> = block.iter().map(|(r, c, v)| (r, c, v.to_bits())).collect();
            assert_eq!(rebuilt, block, "p={p} rank {i}: entry order");
        }
    }
}
