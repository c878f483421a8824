//! Randomized property tests on the core data structures and the
//! invariants the distributed algorithms rely on.
//!
//! Hand-rolled generator loops (seeded `StdRng`, 64 cases per property)
//! rather than a property-testing framework: the container builds fully
//! offline, and deterministic seeds make every failure reproducible by
//! construction — rerun the test, get the same cases.

use gnn_core::dist::{even_bounds, GridPlan};
use partition::metrics::volumes;
use partition::types::Partition;
use partition::wgraph::WGraph;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use spmat::spmm::{spmm, spmm_naive};
use spmat::{Coo, Csr, Dense};

const CASES: usize = 64;

/// Random sparse matrix as an entry list (duplicates allowed on purpose).
fn sparse_entries(rows: usize, cols: usize, rng: &mut StdRng) -> Vec<(usize, usize, f64)> {
    let len = rng.gen_range(0..rows * 4);
    (0..len)
        .map(|_| {
            (
                rng.gen_range(0..rows),
                rng.gen_range(0..cols),
                rng.gen_range(-2.0..2.0),
            )
        })
        .collect()
}

fn build_csr(rows: usize, cols: usize, entries: &[(usize, usize, f64)]) -> Csr {
    let mut coo = Coo::new(rows, cols);
    for &(r, c, v) in entries {
        coo.push(r, c, v);
    }
    coo.to_csr()
}

/// Random symmetric unit-weight graph on `n` vertices.
fn sym_graph(n: usize, rng: &mut StdRng) -> Csr {
    let len = rng.gen_range(0..n * 3);
    let mut coo = Coo::new(n, n);
    for _ in 0..len {
        let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if u != v {
            coo.push(u, v, 1.0);
            coo.push(v, u, 1.0);
        }
    }
    // Unit weights regardless of duplicates.
    let m = coo.to_csr();
    Csr::from_raw_parts(
        n,
        n,
        m.indptr().to_vec(),
        m.indices().to_vec(),
        vec![1.0; m.nnz()],
    )
}

#[test]
fn coo_to_csr_preserves_sums() {
    let mut rng = StdRng::seed_from_u64(0xC00);
    for _ in 0..CASES {
        let entries = sparse_entries(12, 9, &mut rng);
        let csr = build_csr(12, 9, &entries);
        // Ground truth by dense accumulation.
        let mut dense = vec![vec![0.0f64; 9]; 12];
        for &(r, c, v) in &entries {
            dense[r][c] += v;
        }
        for (r, row) in dense.iter().enumerate() {
            for (c, want) in row.iter().enumerate() {
                let got = csr.get(r, c).unwrap_or(0.0);
                assert!((got - want).abs() < 1e-12);
            }
        }
    }
}

#[test]
fn transpose_is_involutive() {
    let mut rng = StdRng::seed_from_u64(0x7A2);
    for _ in 0..CASES {
        let m = build_csr(10, 14, &sparse_entries(10, 14, &mut rng));
        assert_eq!(m.transpose().transpose(), m);
    }
}

#[test]
fn spmm_matches_naive() {
    let mut rng = StdRng::seed_from_u64(0x5B1);
    for _ in 0..CASES {
        let a = build_csr(8, 8, &sparse_entries(8, 8, &mut rng));
        let mut hr = StdRng::seed_from_u64(rng.gen_range(0..1000u64));
        let h = Dense::glorot(8, 3, &mut hr);
        assert!(spmm(&a, &h).approx_eq(&spmm_naive(&a, &h), 1e-10));
    }
}

#[test]
fn spmm_is_linear() {
    // A(x + y) == Ax + Ay
    let mut rng = StdRng::seed_from_u64(0x5B2);
    for _ in 0..CASES {
        let a = build_csr(8, 8, &sparse_entries(8, 8, &mut rng));
        let mut hr = StdRng::seed_from_u64(rng.gen_range(0..1000u64));
        let x = Dense::glorot(8, 3, &mut hr);
        let y = Dense::glorot(8, 3, &mut hr);
        let mut xy = x.clone();
        xy.add_assign(&y);
        let mut sum = spmm(&a, &x);
        sum.add_assign(&spmm(&a, &y));
        assert!(spmm(&a, &xy).approx_eq(&sum, 1e-10));
    }
}

#[test]
fn symmetric_permutation_preserves_spectrum_proxies() {
    // nnz, degree multiset and total weight are permutation-invariant.
    let mut rng = StdRng::seed_from_u64(0x9E3);
    for _ in 0..CASES {
        let g = sym_graph(12, &mut rng);
        let mut perm: Vec<u32> = (0..12u32).collect();
        perm.shuffle(&mut rng);
        let pg = g.permute_symmetric(&perm);
        assert_eq!(pg.nnz(), g.nnz());
        let mut d1: Vec<usize> = (0..12).map(|v| g.row_nnz(v)).collect();
        let mut d2: Vec<usize> = (0..12).map(|v| pg.row_nnz(v)).collect();
        d1.sort_unstable();
        d2.sort_unstable();
        assert_eq!(d1, d2);
        assert!(pg.is_symmetric());
    }
}

#[test]
fn plan_volumes_equal_partition_metrics() {
    // Two independent codepaths must agree: the communication plan's
    // per-rank send/recv row counts (built from NnzCols on block
    // rows) and the partition metrics' λ−1 volumes (built from
    // vertex neighborhoods).
    let mut rng = StdRng::seed_from_u64(0xB01);
    for _ in 0..CASES {
        let g = sym_graph(24, &mut rng);
        let k = rng.gen_range(2..6usize);
        let part = Partition::block(24, k);
        let bounds = part.block_bounds();
        let plan = GridPlan::oned(&g, &bounds, true);
        let wg = WGraph::from_csr(&g);
        let (send, recv) = volumes(&wg, &part);
        for (i, rp) in plan.ranks.iter().enumerate() {
            let sent: usize = rp.sends.iter().map(|(_, idx)| idx.len()).sum();
            assert_eq!(sent as u64, send[i], "send volume at rank {i}");
            let remote = rp.stages.iter().filter(|st| st.k != i);
            let received: usize = remote.map(|st| st.needed.len()).sum();
            assert_eq!(received as u64, recv[i], "recv volume at rank {i}");
        }
    }
}

#[test]
fn grid_nnzcols_match_brute_force_tiles() {
    // The 2D plan's sparsity-aware column sets, tile by tile: for every
    // (row-group i, column-group k) the set `NnzCols(i, k)` the plan
    // ships must be *exactly* the columns a brute-force scan finds the
    // tile's SpMM touching — sorted, deduplicated, nothing extra.
    let mut rng = StdRng::seed_from_u64(0x2D6);
    for _ in 0..CASES {
        let n = rng.gen_range(8..40usize);
        let g = sym_graph(n, &mut rng);
        let pr = rng.gen_range(2..5usize).min(n);
        let pc = rng.gen_range(1..4usize);
        let bounds = even_bounds(n, pr);
        let plan = GridPlan::twod(&g, pr, pc, &bounds, true);
        for i in 0..pr {
            let rp = &plan.ranks[plan.rank_of(i, 0, 0)];
            assert_eq!(rp.stages.len(), pr, "2D rank folds every stage");
            for st in &rp.stages {
                let (lo, hi) = (bounds[i], bounds[i + 1]);
                let (klo, khi) = (bounds[st.k], bounds[st.k + 1]);
                let mut brute: Vec<u32> = g
                    .iter()
                    .filter(|&(r, c, _)| (lo..hi).contains(&r) && (klo..khi).contains(&c))
                    .map(|(_, c, _)| c as u32)
                    .collect();
                brute.sort_unstable();
                brute.dedup();
                assert_eq!(
                    st.needed, brute,
                    "tile ({i}, {}) column set diverges from brute force",
                    st.k
                );
            }
        }
    }
}

#[test]
fn grid_nnzcols_union_and_intersection_invariants() {
    // Set algebra over the 2D grid's column sets:
    // - stages live in disjoint column ranges → pairwise intersections
    //   are empty;
    // - their union is exactly the distinct columns of the whole row
    //   block (what the 1D plan would fetch);
    // - every feature panel j of a grid row shares identical column
    //   sets (panels split features, not graph columns);
    // - the aware set is a subset of the oblivious full range.
    let mut rng = StdRng::seed_from_u64(0x2D7);
    for _ in 0..CASES {
        let n = rng.gen_range(8..40usize);
        let g = sym_graph(n, &mut rng);
        let pr = rng.gen_range(2..5usize).min(n);
        let pc = rng.gen_range(1..4usize);
        let bounds = even_bounds(n, pr);
        let plan = GridPlan::twod(&g, pr, pc, &bounds, true);
        let oblivious = GridPlan::twod(&g, pr, pc, &bounds, false);
        for i in 0..pr {
            let rp = &plan.ranks[plan.rank_of(i, 0, 0)];
            // Pairwise disjoint...
            for a in 0..rp.stages.len() {
                for b in (a + 1)..rp.stages.len() {
                    let sb = &rp.stages[b].needed;
                    assert!(
                        rp.stages[a].needed.iter().all(|c| !sb.contains(c)),
                        "stages {a} and {b} of row {i} overlap"
                    );
                }
            }
            // ...whose union is the row block's full distinct-column set.
            let mut union: Vec<u32> = rp
                .stages
                .iter()
                .flat_map(|st| st.needed.iter().copied())
                .collect();
            union.sort_unstable();
            let mut all: Vec<u32> = g
                .iter()
                .filter(|&(r, _, _)| (bounds[i]..bounds[i + 1]).contains(&r))
                .map(|(_, c, _)| c as u32)
                .collect();
            all.sort_unstable();
            all.dedup();
            assert_eq!(union, all, "union over stages != row block columns");
            // Panels agree on column sets.
            for j in 1..pc {
                let other = &plan.ranks[plan.rank_of(i, j, 0)];
                for (a, b) in rp.stages.iter().zip(&other.stages) {
                    assert_eq!(a.needed, b.needed, "panel {j} diverges at row {i}");
                }
            }
            // Aware ⊆ oblivious (the full block range).
            let orp = &oblivious.ranks[oblivious.rank_of(i, 0, 0)];
            for (st, ost) in rp.stages.iter().zip(&orp.stages) {
                assert!(st.needed.len() <= ost.needed.len());
                assert!(st.needed.iter().all(|c| ost.needed.contains(c)));
            }
        }
    }
}

#[test]
fn even_bounds_cover_and_balance() {
    let mut rng = StdRng::seed_from_u64(0xE0B);
    let mut checked = 0;
    while checked < CASES {
        let n = rng.gen_range(1..500usize);
        let p = rng.gen_range(1..32usize);
        if p > n {
            continue;
        }
        checked += 1;
        let b = even_bounds(n, p);
        assert_eq!(b.len(), p + 1);
        assert_eq!(b[0], 0);
        assert_eq!(b[p], n);
        for w in b.windows(2) {
            assert!(w[1] >= w[0]);
            assert!(w[1] - w[0] <= n.div_ceil(p));
        }
    }
}

#[test]
fn multilevel_partitions_are_always_valid() {
    use partition::{partition_graph, Method, PartitionConfig};
    let mut rng = StdRng::seed_from_u64(0x3A7);
    // Fewer cases: each builds a 64-vertex multilevel hierarchy twice.
    for _ in 0..CASES / 4 {
        let g = sym_graph(64, &mut rng);
        let k = rng.gen_range(2..8usize);
        let seed = rng.gen_range(0..100u64);
        for method in [Method::EdgeCut, Method::VolumeBalanced] {
            let p = partition_graph(&g, k, &PartitionConfig::new(method).with_seed(seed));
            assert_eq!(p.k(), k);
            assert_eq!(p.n(), 64);
            assert!(p.parts().iter().all(|&x| (x as usize) < k));
        }
    }
}

#[test]
fn col_range_block_respects_window() {
    let mut rng = StdRng::seed_from_u64(0xC01);
    for _ in 0..CASES {
        let m = build_csr(10, 16, &sparse_entries(10, 16, &mut rng));
        let lo = rng.gen_range(0..16usize);
        let len = rng.gen_range(0..16usize);
        let hi = (lo + len).min(16);
        let b = m.col_range_block(lo, hi);
        for (r, c, v) in b.iter() {
            assert!((lo..hi).contains(&c));
            assert_eq!(m.get(r, c), Some(v));
        }
        // Every original entry inside the window survives.
        let kept = m.iter().filter(|&(_, c, _)| (lo..hi).contains(&c)).count();
        assert_eq!(b.nnz(), kept);
    }
}

#[test]
fn alltoallv_routes_arbitrary_payload_sizes() {
    // 3 ranks, arbitrary per-pair payload sizes; everything must
    // arrive at the right place with the right length.
    use gnn_comm::msg::Payload;
    use gnn_comm::{CostModel, ThreadWorld};
    let mut rng = StdRng::seed_from_u64(0xA2A);
    let p = 3;
    // Fewer cases: each spins up a 3-thread world.
    for _ in 0..CASES / 4 {
        let sizes: Vec<usize> = (0..p * p).map(|_| rng.gen_range(0..20)).collect();
        let world = ThreadWorld::new(p, CostModel::bandwidth_only());
        let sz = sizes.clone();
        let (outs, _) = world.run(|ctx| {
            let me = ctx.rank();
            let sends = (0..p)
                .map(|dst| {
                    let n = sz[me * p + dst];
                    if n == 0 {
                        Payload::Empty
                    } else {
                        Payload::F64(vec![(me * p + dst) as f64; n])
                    }
                })
                .collect();
            ctx.alltoallv(sends)
                .into_iter()
                .map(|pl| match pl {
                    Payload::Empty => Vec::new(),
                    other => other.into_f64(),
                })
                .collect::<Vec<_>>()
        });
        for me in 0..p {
            for src in 0..p {
                let expect = sizes[src * p + me];
                assert_eq!(outs[me][src].len(), expect);
                assert!(outs[me][src].iter().all(|&v| v == (src * p + me) as f64));
            }
        }
    }
}

/// Messages rank `src` sends to `dst`: graph-derived lengths/contents
/// so every (src, dst, i) triple is distinguishable on arrival.
fn graph_messages(g: &Csr, p: usize) -> Vec<Vec<Vec<Vec<f64>>>> {
    let n = g.rows();
    (0..p)
        .map(|src| {
            (0..p)
                .map(|dst| {
                    let count = 1 + (src * 7 + dst * 3) % 3;
                    (0..count)
                        .map(|i| {
                            let row = (src * 5 + dst * 11 + i * 17) % n;
                            let mut v: Vec<f64> = g
                                .iter()
                                .filter(|&(r, _, _)| r == row)
                                .map(|(_, c, _)| c as f64)
                                .collect();
                            // Tag with the triple so any misrouting or
                            // reordering changes the payload.
                            v.push((src * 100 + dst * 10 + i) as f64);
                            v
                        })
                        .collect()
                })
                .collect()
        })
        .collect()
}

#[test]
fn pending_op_retransmit_preserves_order_and_checksums() {
    // Random graphs feed random-length message streams through blocking
    // send/recv over lossy, corrupting links. Sends are eager, so every
    // rank ships its whole outbound stream first, interleaved across
    // destinations, then drains its receives in a seeded, per-rank
    // shuffled interleaving of sources that keeps each source's order.
    // The reliable transport must retransmit until every payload arrives
    // intact, and per-source delivery order must match send order
    // (channels are FIFO).
    use gnn_comm::msg::Payload;
    use gnn_comm::{CostModel, FaultPlan, ThreadWorld};
    use std::time::Duration;
    let mut rng = StdRng::seed_from_u64(0x1F0);
    let p = 3;
    let mut total_retries = 0u64;
    let mut total_injected = 0u64;
    for case in 0..CASES / 4 {
        let g = sym_graph(24, &mut rng);
        let msgs = graph_messages(&g, p);
        let mut plan = FaultPlan::new(0xF00D + case as u64);
        for rank in 0..p {
            plan = plan
                .drop_messages(rank, None, 0.25)
                .corrupt_messages(rank, None, 0.2);
        }
        let world = ThreadWorld::new(p, CostModel::bandwidth_only())
            .with_timeout(Duration::from_secs(20))
            .with_faults(plan);
        let m = &msgs;
        let (outs, stats) = world.run(|ctx| {
            let me = ctx.rank();
            let longest = m[me].iter().map(Vec::len).max().unwrap_or(0);
            for i in 0..longest {
                for (dst, to_dst) in m[me].iter().enumerate() {
                    if dst != me && i < to_dst.len() {
                        ctx.send(dst, Payload::F64(to_dst[i].clone()));
                    }
                }
            }
            // One entry per expected message, shuffled; a source's k-th
            // entry receives that source's k-th message.
            let mut sources: Vec<usize> = (0..p)
                .filter(|&src| src != me)
                .flat_map(|src| std::iter::repeat_n(src, m[src][me].len()))
                .collect();
            sources.shuffle(&mut StdRng::seed_from_u64((case * p + me) as u64));
            let mut next = vec![0; p];
            let mut got = Vec::new();
            for src in sources {
                got.push((src, next[src], ctx.recv(src).into_f64()));
                next[src] += 1;
            }
            got
        });
        for (me, got) in outs.iter().enumerate() {
            for (src, i, data) in got {
                assert_eq!(
                    data, &msgs[*src][me][*i],
                    "case {case}: rank {me} stream from {src} msg {i} corrupted or reordered"
                );
            }
        }
        total_retries += stats.total_retries();
        total_injected += stats.total_injected_faults();
    }
    // The fault plans were not vacuous: faults fired and the transport
    // actually exercised its retransmit path.
    assert!(total_injected > 0, "no faults injected across all cases");
    assert!(total_retries > 0, "no retransmissions across all cases");
}

#[test]
fn partition_permutation_is_bijection() {
    let mut rng = StdRng::seed_from_u64(0xB13);
    for _ in 0..CASES {
        let k = 5;
        let len = rng.gen_range(1..200usize);
        let parts: Vec<u32> = (0..len).map(|_| rng.gen_range(0..k as u32)).collect();
        let part = Partition::new(parts.clone(), k);
        let perm = part.to_permutation();
        let mut seen = vec![false; parts.len()];
        for &x in &perm {
            assert!(!seen[x as usize]);
            seen[x as usize] = true;
        }
        // Parts are contiguous in the new order.
        let bounds = part.block_bounds();
        for (v, &pt) in parts.iter().enumerate() {
            let new = perm[v] as usize;
            assert!(new >= bounds[pt as usize] && new < bounds[pt as usize + 1]);
        }
    }
}
