//! Ablation: how the sparsity-aware algorithm assembles the gathered
//! rows before the local SpMM.
//!
//! * **compact**: remap the block's columns once at plan time, gather
//!   received rows into a dense `H̃` of exactly the needed height. (The
//!   1D executor goes one step further and assembles nothing: it
//!   multiplies one segment per source rank against the received
//!   buffers in place.)
//! * **full-height scatter** (Algorithm 1 as written): scatter received
//!   rows into an `n × f` buffer and multiply the unremapped block —
//!   simpler, but allocates and touches `O(n·f)` memory per SpMM.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use spmat::dataset::amazon_scaled;
use spmat::spmm::spmm;
use spmat::Dense;

fn bench_assemble(c: &mut Criterion) {
    let ds = amazon_scaled(12, 1);
    let p = 8;
    let rows = ds.n() / p;
    let block = ds.norm_adj.row_block(0, rows);
    let cols = block.distinct_cols();
    let compact = block.remap_cols(&cols);
    let f = 32;
    let mut rng = StdRng::seed_from_u64(2);
    // The "received" rows, one dense row per needed column.
    let gathered = Dense::glorot(cols.len(), f, &mut rng);

    // Correctness guard: both paths multiply to the same block.
    let z_compact = spmm(&compact, &gathered);
    let mut full = Dense::zeros(ds.n(), f);
    full.scatter_rows(&cols, &gathered);
    let z_full = spmm(&block, &full);
    assert!(z_compact.approx_eq(&z_full, 1e-12));

    let mut group = c.benchmark_group("ablation_spmm");
    group.sample_size(10);
    group.bench_with_input(
        BenchmarkId::new("assemble", "compact"),
        &(&compact, &gathered),
        |b, (compact, gathered)| {
            b.iter(|| {
                // Assembly for the compact path is a straight copy.
                let mut h = Dense::zeros(gathered.rows(), f);
                h.data_mut().copy_from_slice(gathered.data());
                spmm(compact, &h)
            });
        },
    );
    group.bench_with_input(
        BenchmarkId::new("assemble", "full-height"),
        &(&block, &gathered, &cols),
        |b, (block, gathered, cols)| {
            b.iter(|| {
                let mut h = Dense::zeros(ds.n(), f);
                h.scatter_rows(cols, gathered);
                spmm(block, &h)
            });
        },
    );
    group.finish();
}

criterion_group!(benches, bench_assemble);
criterion_main!(benches);
