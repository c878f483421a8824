//! Communication-plan construction cost — the `NnzCols` precomputation
//! that happens once before training (§6.2's preprocessing step).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gnn_core::dist::{even_bounds, GridPlan};
use spmat::dataset::amazon_scaled;

fn bench_plan(c: &mut Criterion) {
    let mut group = c.benchmark_group("plan");
    group.sample_size(10);

    let ds = amazon_scaled(12, 1);
    for p in [8usize, 32] {
        let bounds = even_bounds(ds.n(), p);
        group.bench_with_input(BenchmarkId::new("plan1d", p), &bounds, |b, bounds| {
            b.iter(|| GridPlan::oned(&ds.norm_adj, bounds, true));
        });
    }
    for (p, cc) in [(8usize, 2usize), (16, 4)] {
        let bounds = even_bounds(ds.n(), p / cc);
        group.bench_with_input(
            BenchmarkId::new("plan15d", format!("p{p}c{cc}")),
            &bounds,
            |b, bounds| {
                b.iter(|| GridPlan::onefived(&ds.norm_adj, p, cc, bounds, true));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_plan);
criterion_main!(benches);
