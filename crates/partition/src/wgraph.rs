//! Weighted undirected graph — the internal representation the multilevel
//! pipeline works on.
//!
//! Fine graphs come from a [`spmat::Csr`] adjacency pattern; coarse graphs
//! carry accumulated vertex weights (for the balance constraint; the fine
//! vertex weight is `degree + 1`, approximating per-row SpMM work) and
//! accumulated edge weights (for edgecut gains).

use spmat::Csr;

/// Undirected graph with integer vertex and edge weights, CSR-shaped.
///
/// Invariants: symmetric adjacency, no self-loops, no parallel edges
/// (a neighbor appears once per list), `adjncy`/`adjwgt` aligned,
/// weights ≥ 1.
#[derive(Clone, Debug, PartialEq)]
pub struct WGraph {
    /// Vertex weights (length n).
    pub vwgt: Vec<u64>,
    /// Row pointers (length n + 1).
    pub xadj: Vec<usize>,
    /// Neighbor ids.
    pub adjncy: Vec<u32>,
    /// Edge weights, aligned with `adjncy`.
    pub adjwgt: Vec<u64>,
}

impl WGraph {
    /// Builds from a symmetric adjacency pattern. Self-loops are dropped;
    /// vertex weight is `degree + 1` (per-row SpMM work plus the row
    /// itself), edge weights start at 1.
    ///
    /// # Panics
    /// Panics if `adj` is not square.
    pub fn from_csr(adj: &Csr) -> Self {
        assert_eq!(adj.rows(), adj.cols(), "adjacency must be square");
        let n = adj.rows();
        let mut xadj = Vec::with_capacity(n + 1);
        let mut adjncy = Vec::with_capacity(adj.nnz());
        xadj.push(0usize);
        for v in 0..n {
            for &u in adj.row_cols(v) {
                if u as usize != v {
                    adjncy.push(u);
                }
            }
            xadj.push(adjncy.len());
        }
        let vwgt = (0..n).map(|v| (xadj[v + 1] - xadj[v]) as u64 + 1).collect();
        let adjwgt = vec![1u64; adjncy.len()];
        Self {
            vwgt,
            xadj,
            adjncy,
            adjwgt,
        }
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.vwgt.len()
    }

    /// Number of directed adjacency entries (2× undirected edges).
    pub fn m(&self) -> usize {
        self.adjncy.len()
    }

    /// Sum of all vertex weights.
    pub fn total_vwgt(&self) -> u64 {
        self.vwgt.iter().sum()
    }

    /// Neighbors of `v` with edge weights.
    pub fn neighbors(&self, v: usize) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.adjncy[self.xadj[v]..self.xadj[v + 1]]
            .iter()
            .zip(&self.adjwgt[self.xadj[v]..self.xadj[v + 1]])
            .map(|(&u, &w)| (u, w))
    }

    /// Degree (neighbor count) of `v`.
    pub fn degree(&self, v: usize) -> usize {
        self.xadj[v + 1] - self.xadj[v]
    }

    /// Sum of incident edge weights of `v`.
    pub fn degree_w(&self, v: usize) -> u64 {
        self.adjwgt[self.xadj[v]..self.xadj[v + 1]].iter().sum()
    }

    /// Total undirected edge weight (each edge counted once).
    pub fn total_edge_weight(&self) -> u64 {
        self.adjwgt.iter().sum::<u64>() / 2
    }

    /// Debug validation of all structural invariants (symmetry and
    /// parallel edges included); O(m log m), test use only.
    pub fn validate(&self) {
        assert_eq!(self.xadj.len(), self.n() + 1);
        assert_eq!(self.adjncy.len(), self.adjwgt.len());
        assert_eq!(*self.xadj.last().unwrap(), self.adjncy.len());
        let mut pairs: Vec<(u32, u32, u64)> = Vec::with_capacity(self.m());
        for v in 0..self.n() {
            for (u, w) in self.neighbors(v) {
                assert_ne!(u as usize, v, "self loop at {v}");
                assert!(w >= 1, "zero edge weight");
                pairs.push((v as u32, u, w));
            }
        }
        let mut mirror: Vec<(u32, u32, u64)> = pairs.iter().map(|&(a, b, w)| (b, a, w)).collect();
        pairs.sort_unstable();
        mirror.sort_unstable();
        if let Some(w) = pairs
            .windows(2)
            .find(|w| w[0].0 == w[1].0 && w[0].1 == w[1].1)
        {
            panic!("parallel edge {}-{}", w[0].0, w[0].1);
        }
        assert_eq!(pairs, mirror, "graph is not symmetric");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmat::gen::grid2d;
    use spmat::Coo;

    #[test]
    fn from_csr_strips_self_loops() {
        let mut coo = Coo::new(3, 3);
        coo.push(0, 0, 1.0);
        coo.push(0, 1, 1.0);
        coo.push(1, 0, 1.0);
        let g = WGraph::from_csr(&coo.to_csr());
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 1);
        assert_eq!(g.degree(2), 0);
        g.validate();
    }

    #[test]
    fn vertex_weight_is_degree_plus_one() {
        let g = WGraph::from_csr(&grid2d(4));
        for v in 0..g.n() {
            assert_eq!(g.vwgt[v], 5);
        }
        assert_eq!(g.total_vwgt(), 16 * 5);
    }

    #[test]
    fn grid_is_valid_and_regular() {
        let g = WGraph::from_csr(&grid2d(5));
        g.validate();
        assert_eq!(g.m(), 25 * 4);
        assert_eq!(g.total_edge_weight(), 50);
        assert_eq!(g.degree_w(7), 4);
    }

    #[test]
    #[should_panic(expected = "parallel edge 0-1")]
    fn validate_rejects_parallel_edges() {
        WGraph {
            vwgt: vec![1, 1],
            xadj: vec![0, 2, 4],
            adjncy: vec![1, 1, 0, 0],
            adjwgt: vec![1; 4],
        }
        .validate();
    }

    #[test]
    fn neighbors_iterate_with_weights() {
        let g = WGraph::from_csr(&grid2d(3));
        let ns: Vec<(u32, u64)> = g.neighbors(0).collect();
        assert_eq!(ns.len(), 4);
        assert!(ns.iter().all(|&(_, w)| w == 1));
    }
}
