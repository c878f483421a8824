//! Graph contraction: collapse matched vertex pairs into coarse vertices,
//! summing vertex weights and merging parallel edges by weight.
//!
//! Neighbor lists are merged unsorted with a dense weight accumulator and
//! no branch per edge, then sorted all at once by one
//! O(m) transpose: the coarse graph is symmetric, so row `u` of its
//! transpose, filled in ascending `c`, is exactly `u`'s sorted list with
//! the same weights.

use crate::wgraph::WGraph;

/// A coarsening step: the coarse graph plus the fine→coarse vertex map.
#[derive(Clone, Debug)]
pub struct Coarsening {
    /// The contracted graph.
    pub graph: WGraph,
    /// `coarse_of[v]` — coarse vertex containing fine vertex `v`.
    pub coarse_of: Vec<u32>,
}

/// Contracts `g` along a matching (`mate[v]` = partner or self). Every
/// edge weight must be ≥ 1, as [`WGraph::validate`] checks: the merge
/// reads a zero sum as "not seen yet".
pub fn contract(g: &WGraph, mate: &[u32]) -> Coarsening {
    let n = g.n();
    assert_eq!(mate.len(), n);

    // Assign coarse ids: each pair gets one id, owned by the smaller
    // endpoint `v` (its members are `v` and `mate[v]`); singletons keep
    // their own.
    let mut coarse_of = vec![u32::MAX; n];
    let mut owner: Vec<u32> = Vec::with_capacity(n);
    for v in 0..n {
        let m = mate[v] as usize;
        if m < v {
            continue; // the partner already claimed an id
        }
        coarse_of[v] = owner.len() as u32;
        coarse_of[m] = owner.len() as u32;
        owner.push(v as u32);
    }
    let nc = owner.len();
    let members = |c: usize| {
        let v = owner[c];
        let m = mate[v as usize];
        std::iter::once(v).chain((m != v).then_some(m))
    };
    let vwgt: Vec<u64> = (0..nc)
        .map(|c| members(c).map(|v| g.vwgt[v as usize]).sum())
        .collect();

    // Merge edges in first-seen order into lists sized for the fine
    // graph's `m`, which bounds them. `acc[cu]` sums the weights to `cu`
    // and is 0 exactly while `cu` is unseen (weights are ≥ 1), so each
    // id is written unconditionally and kept only on first sight. The
    // second walk reads the sums, resets `acc`, and drops the self entry
    // that internal edges leave.
    let mut xadj = Vec::with_capacity(nc + 1);
    let mut adjncy = vec![0u32; g.m()];
    let mut adjwgt = vec![0u64; g.m()];
    xadj.push(0usize);
    let mut acc = vec![0u64; nc];
    let mut len = 0;
    for c in 0..nc {
        let start = len;
        for v in members(c) {
            for (u, w) in g.neighbors(v as usize) {
                debug_assert!(w >= 1, "zero edge weight");
                let cu = coarse_of[u as usize] as usize;
                adjncy[len] = cu as u32;
                len += usize::from(acc[cu] == 0);
                acc[cu] += w;
            }
        }
        let seen = std::mem::replace(&mut len, start);
        for e in start..seen {
            let cu = adjncy[e] as usize;
            adjncy[len] = cu as u32;
            adjwgt[len] = std::mem::take(&mut acc[cu]);
            len += usize::from(cu != c);
        }
        xadj.push(len);
    }
    adjncy.truncate(len);
    adjwgt.truncate(len);

    // Sort every list by transposing: symmetry gives the transpose the
    // same row lengths, and rows filled in ascending `c` come out sorted.
    let mut next = xadj[..nc].to_vec();
    let mut sorted = vec![0u32; adjncy.len()];
    let mut sorted_wgt = vec![0u64; adjncy.len()];
    for c in 0..nc {
        for e in xadj[c]..xadj[c + 1] {
            let u = adjncy[e] as usize;
            sorted[next[u]] = c as u32;
            sorted_wgt[next[u]] = adjwgt[e];
            next[u] += 1;
        }
    }

    Coarsening {
        graph: WGraph {
            vwgt,
            xadj,
            adjncy: sorted,
            adjwgt: sorted_wgt,
        },
        coarse_of,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matching::heavy_edge_matching;
    use spmat::gen::{erdos_renyi, grid2d, rmat, sbm, RmatConfig, SbmConfig};

    /// The contraction this module used before the transpose: collect
    /// and sort each coarse vertex's list on its own. Kept as the oracle.
    fn contract_sorting(g: &WGraph, mate: &[u32]) -> Coarsening {
        let n = g.n();
        let mut coarse_of = vec![u32::MAX; n];
        let mut nc = 0u32;
        for v in 0..n {
            let m = mate[v] as usize;
            if m < v {
                continue;
            }
            coarse_of[v] = nc;
            coarse_of[m] = nc;
            nc += 1;
        }
        let nc = nc as usize;
        let mut vwgt = vec![0u64; nc];
        let mut members: Vec<Vec<u32>> = vec![Vec::new(); nc];
        for v in 0..n {
            vwgt[coarse_of[v] as usize] += g.vwgt[v];
            members[coarse_of[v] as usize].push(v as u32);
        }
        let mut xadj = vec![0usize];
        let (mut adjncy, mut adjwgt) = (Vec::new(), Vec::new());
        let mut stamp = vec![u32::MAX; nc];
        let mut slot = vec![0usize; nc];
        for (c, mem) in members.iter().enumerate() {
            let start = adjncy.len();
            for &v in mem {
                for (u, w) in g.neighbors(v as usize) {
                    let cu = coarse_of[u as usize];
                    if cu as usize == c {
                        continue;
                    }
                    if stamp[cu as usize] == c as u32 {
                        adjwgt[slot[cu as usize]] += w;
                    } else {
                        stamp[cu as usize] = c as u32;
                        slot[cu as usize] = adjncy.len();
                        adjncy.push(cu);
                        adjwgt.push(w);
                    }
                }
            }
            let mut pairs: Vec<(u32, u64)> = adjncy[start..]
                .iter()
                .copied()
                .zip(adjwgt[start..].iter().copied())
                .collect();
            pairs.sort_unstable_by_key(|&(u, _)| u);
            for (i, (u, w)) in pairs.into_iter().enumerate() {
                adjncy[start + i] = u;
                adjwgt[start + i] = w;
            }
            xadj.push(adjncy.len());
        }
        Coarsening {
            graph: WGraph {
                vwgt,
                xadj,
                adjncy,
                adjwgt,
            },
            coarse_of,
        }
    }

    #[test]
    fn transpose_sort_matches_per_vertex_sort_at_every_level() {
        let graphs = [
            erdos_renyi(2000, 12_000, 1),
            rmat(RmatConfig::graph500(11, 8, 2)),
            grid2d(40),
            sbm(SbmConfig {
                n: 3000,
                blocks: 12,
                avg_degree_in: 20.0,
                avg_degree_out: 1.5,
                seed: 3,
            })
            .0,
        ];
        for (i, adj) in graphs.iter().enumerate() {
            let mut g = WGraph::from_csr(adj);
            let mut seed = i as u64;
            let mut levels = 0;
            while g.n() > 64 {
                let mate = heavy_edge_matching(&g, seed);
                let c = contract(&g, &mate);
                let oracle = contract_sorting(&g, &mate);
                assert_eq!(c.graph, oracle.graph, "graph {i} level {levels}");
                assert_eq!(c.coarse_of, oracle.coarse_of, "graph {i} level {levels}");
                c.graph.validate();
                if c.graph.n() as f64 > 0.95 * g.n() as f64 {
                    break;
                }
                g = c.graph;
                seed += 1;
                levels += 1;
            }
            assert!(levels >= 3, "graph {i} coarsened only {levels} levels");
        }
    }

    /// The graph with these vertex weights and weighted undirected
    /// edges, lists sorted.
    fn weighted(vwgt: &[u64], edges: &[(u32, u32, u64)]) -> WGraph {
        let mut lists: Vec<Vec<(u32, u64)>> = vec![Vec::new(); vwgt.len()];
        for &(a, b, w) in edges {
            lists[a as usize].push((b, w));
            lists[b as usize].push((a, w));
        }
        let mut g = WGraph {
            vwgt: vwgt.to_vec(),
            xadj: vec![0],
            adjncy: Vec::new(),
            adjwgt: Vec::new(),
        };
        for mut list in lists {
            list.sort_unstable();
            g.adjncy.extend(list.iter().map(|&(u, _)| u));
            g.adjwgt.extend(list.iter().map(|&(_, w)| w));
            g.xadj.push(g.adjncy.len());
        }
        g.validate();
        g
    }

    /// Corners the generated graphs may miss: an isolated vertex (0), a
    /// pair joined only by its own edge, whose coarse row ends up empty
    /// (1–2), and three edges of weights 1, 2 and 3 between two pairs
    /// (3–4, 5–6) that merge into one coarse edge, next to an internal
    /// edge that makes the merge meet its own coarse id.
    #[test]
    fn contract_matches_oracle_on_hand_built_corners() {
        let edges = [
            (1, 2, 3),
            (3, 4, 1),
            (3, 5, 1),
            (4, 5, 2),
            (4, 6, 3),
            (5, 6, 4),
            (6, 7, 5),
        ];
        let g = weighted(&[1, 2, 3, 4, 5, 6, 7, 8], &edges);
        let mate = [0, 2, 1, 4, 3, 6, 5, 7];
        let c = contract(&g, &mate);
        let oracle = contract_sorting(&g, &mate);
        assert_eq!(c.graph, oracle.graph);
        assert_eq!(c.coarse_of, oracle.coarse_of);
        assert_eq!(c.coarse_of, [0, 1, 1, 2, 2, 3, 3, 4]);
        let expected = weighted(&[1, 5, 9, 13, 8], &[(2, 3, 6), (3, 4, 5)]);
        assert_eq!(c.graph, expected);
    }

    /// A zero weight would read as "not seen yet" and list a coarse
    /// neighbor twice; debug builds stop at it.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "zero edge weight")]
    fn contract_rejects_a_zero_edge_weight() {
        let g = WGraph {
            vwgt: vec![1, 1],
            xadj: vec![0, 1, 2],
            adjncy: vec![1, 0],
            adjwgt: vec![0, 0],
        };
        contract(&g, &[0, 1]);
    }

    #[test]
    fn contraction_preserves_total_vertex_weight() {
        let g = WGraph::from_csr(&grid2d(6));
        let mate = heavy_edge_matching(&g, 1);
        let c = contract(&g, &mate);
        c.graph.validate();
        assert_eq!(c.graph.total_vwgt(), g.total_vwgt());
    }

    #[test]
    fn contraction_preserves_cross_pair_edge_weight() {
        // Total edge weight = internal (vanished) + external (kept).
        let g = WGraph::from_csr(&erdos_renyi(300, 1500, 2));
        let mate = heavy_edge_matching(&g, 3);
        let c = contract(&g, &mate);
        c.graph.validate();
        let mut internal = 0u64;
        for (v, &m) in mate.iter().enumerate() {
            for (u, w) in g.neighbors(v) {
                if m == u {
                    internal += w;
                }
            }
        }
        assert_eq!(
            c.graph.total_edge_weight(),
            g.total_edge_weight() - internal / 2
        );
    }

    #[test]
    fn pair_contraction_counts() {
        let g = WGraph::from_csr(&grid2d(4));
        let mate = heavy_edge_matching(&g, 5);
        let c = contract(&g, &mate);
        let pairs = (0..g.n()).filter(|&v| (mate[v] as usize) != v).count() / 2;
        assert_eq!(c.graph.n(), g.n() - pairs);
    }

    #[test]
    fn coarse_map_is_total_and_in_range() {
        let g = WGraph::from_csr(&erdos_renyi(100, 300, 4));
        let mate = heavy_edge_matching(&g, 6);
        let c = contract(&g, &mate);
        for v in 0..g.n() {
            assert!((c.coarse_of[v] as usize) < c.graph.n());
        }
        // Matched pairs share a coarse vertex.
        for (v, &m) in mate.iter().enumerate() {
            assert_eq!(c.coarse_of[v], c.coarse_of[m as usize]);
        }
    }

    #[test]
    fn empty_matching_is_isomorphic_copy() {
        let g = WGraph::from_csr(&grid2d(3));
        let mate: Vec<u32> = (0..g.n() as u32).collect();
        let c = contract(&g, &mate);
        assert_eq!(c.graph.n(), g.n());
        assert_eq!(c.graph.total_edge_weight(), g.total_edge_weight());
    }
}
