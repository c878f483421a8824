//! 2D SUMMA-style SpMM: plan construction and one full layer step, the
//! extension layout beyond the paper's 1D/1.5D evaluation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gnn_comm::{CostModel, ThreadWorld};
use gnn_core::dist::{even_bounds, spmm_grid, GridPlan};
use rand::rngs::StdRng;
use rand::SeedableRng;
use spmat::dataset::amazon_scaled;
use spmat::Dense;

fn bench_twod(c: &mut Criterion) {
    let ds = amazon_scaled(10, 1);
    let mut group = c.benchmark_group("twod");
    group.sample_size(10);

    for (pr, pc) in [(2usize, 2usize), (4, 2)] {
        let bounds = even_bounds(ds.n(), pr);
        group.bench_with_input(
            BenchmarkId::new("plan", format!("{pr}x{pc}")),
            &bounds,
            |b, bounds| {
                b.iter(|| GridPlan::twod(&ds.norm_adj, pr, pc, bounds, true));
            },
        );
        let plan = GridPlan::twod(&ds.norm_adj, pr, pc, &bounds, true);
        let f = 32usize;
        let mut rng = StdRng::seed_from_u64(3);
        let h = Dense::glorot(ds.n(), f, &mut rng);
        group.bench_with_input(
            BenchmarkId::new("spmm", format!("{pr}x{pc}")),
            &plan,
            |b, plan| {
                let world = ThreadWorld::new(pr * pc, CostModel::perlmutter_like());
                let pb = plan.panel_bounds(f);
                b.iter(|| {
                    world.run(|ctx| {
                        let rp = &plan.ranks[ctx.rank()];
                        let rows = h.row_slice(rp.row_lo, rp.row_hi);
                        let local =
                            Dense::from_fn(rows.rows(), pb[rp.j + 1] - pb[rp.j], |r, cc| {
                                rows.get(r, pb[rp.j] + cc)
                            });
                        spmm_grid(ctx, plan, &local)
                    })
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_twod);
criterion_main!(benches);
