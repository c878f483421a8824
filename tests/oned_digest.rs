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
//! here as a changed digest.
//!
//! Regenerating (only when a behaviour change is intended): run the test;
//! on mismatch it prints the full table of actual digests in source form.

use gnn_comm::{CostModel, OverlapConfig};
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
/// p ∈ {2, 3, 4} × {blocking, chunks 1, 2, 7}` order.
const EXPECTED: [[u64; 3]; 24] = [
    [0x1538fbd431f47377, 0xd11ee3ef73f99b22, 0xc19d829703a4dd42], // 1d aware=true p=2 blocking
    [0xff2bfe8b85b2fe77, 0xd11ee3ef73f99b22, 0xb506950796c03d71], // 1d aware=true p=2 chunks=1
    [0x0c610a27624f62f5, 0xd11ee3ef73f99b22, 0x36cded25b9d3b902], // 1d aware=true p=2 chunks=2
    [0x0c610a27624f62f5, 0xd11ee3ef73f99b22, 0x36cded25b9d3b902], // 1d aware=true p=2 chunks=7
    [0x6aa84b0f44eb1028, 0xde147f7ada4c5172, 0xaba451660e409eb0], // 1d aware=true p=3 blocking
    [0x45d71de59a9e62ec, 0xde147f7ada4c5172, 0xab5fb7c2018118d3], // 1d aware=true p=3 chunks=1
    [0x3ff069a62b448987, 0xde147f7ada4c5172, 0xa88f8f81853a3292], // 1d aware=true p=3 chunks=2
    [0x60854e12c4e59eb7, 0xde147f7ada4c5172, 0x5dcd015aa5dda751], // 1d aware=true p=3 chunks=7
    [0x34202bd326f4a09f, 0xbc8d5facca6c91d9, 0x08e4034eb6f4c658], // 1d aware=true p=4 blocking
    [0xa06cec0fb1670d67, 0xbc8d5facca6c91d9, 0xfea9b530456192d8], // 1d aware=true p=4 chunks=1
    [0x97f09fc577929a0a, 0xbc8d5facca6c91d9, 0x810c8cf563f37514], // 1d aware=true p=4 chunks=2
    [0x4fd1318ae4402d85, 0xbc8d5facca6c91d9, 0xc9c7ead87cba3162], // 1d aware=true p=4 chunks=7
    [0x04a3c14954c3eff4, 0xd11ee3ef73f99b22, 0x54f8d7fbf125b49f], // 1d aware=false p=2 blocking
    [0xf62b94c1d05a0e1c, 0xd11ee3ef73f99b22, 0x8061c6b31986c90e], // 1d aware=false p=2 chunks=1
    [0x895f47cbbc71bbb7, 0xd11ee3ef73f99b22, 0x59e1cd0e068e5f8f], // 1d aware=false p=2 chunks=2
    [0x895f47cbbc71bbb7, 0xd11ee3ef73f99b22, 0x59e1cd0e068e5f8f], // 1d aware=false p=2 chunks=7
    [0x51393eb93026d65f, 0xde147f7ada4c5172, 0xd718221331199c8a], // 1d aware=false p=3 blocking
    [0xb920559068fd2997, 0xde147f7ada4c5172, 0x2f56d421e7a62d24], // 1d aware=false p=3 chunks=1
    [0x2b84234c90343706, 0xde147f7ada4c5172, 0x970e1d7937fc3a20], // 1d aware=false p=3 chunks=2
    [0xa228497b9d316de5, 0xde147f7ada4c5172, 0x18f7d46808d7e96e], // 1d aware=false p=3 chunks=7
    [0xc2e75c6aeb546f45, 0xbc8d5facca6c91d9, 0xa718517b6da978a7], // 1d aware=false p=4 blocking
    [0x2f0fb0aff92e2eb5, 0xbc8d5facca6c91d9, 0x2df1c05a951feed0], // 1d aware=false p=4 chunks=1
    [0x5f0391b9dd53effa, 0xbc8d5facca6c91d9, 0xd0ea989d905ceda9], // 1d aware=false p=4 chunks=2
    [0x97249f232c1f40c9, 0xbc8d5facca6c91d9, 0x058c9fa51282f7cc], // 1d aware=false p=4 chunks=7
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
            for ov in [
                OverlapConfig::off(),
                OverlapConfig::on(1),
                OverlapConfig::on(2),
                OverlapConfig::on(7),
            ] {
                let mut cfg = DistConfig::new(
                    Algo::OneD { aware },
                    gcn.clone(),
                    EPOCHS,
                    CostModel::perlmutter_like(),
                )
                .paper_order();
                cfg.overlap = ov;
                cfg.trace = true;
                let out = train_distributed(&ds, &bounds, &cfg);
                actual.push([stats_digest(&out), result_digest(&out), trace_digest(&out)]);
                let sched = if ov.enabled {
                    format!("chunks={}", ov.chunks)
                } else {
                    "blocking".to_string()
                };
                labels.push(format!("1d aware={aware} p={p} {sched}"));
            }
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
