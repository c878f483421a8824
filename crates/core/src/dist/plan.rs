//! Communication plans: everything derivable from the sparsity pattern
//! before training starts.
//!
//! Because the adjacency pattern never changes during training (§1 of the
//! paper), the `NnzCols(i, j)` sets, the per-source segments of the local
//! block, and the send/receive row lists are computed **once** and reused
//! by every SpMM of every epoch — this is what amortizes the preprocessing.
//!
//! * [`Plan1d`] — block-row distribution over `p` ranks (Algorithm 1).
//! * [`super::grid::GridPlan`] — the `pr × pc × c` grid template whose
//!   shapes are 1.5D (Algorithm 2), 2D and 3D.

use spmat::Csr;

/// Per-rank plan for the 1D algorithms.
#[derive(Clone, Debug)]
pub struct RankPlan1d {
    /// First global row owned.
    pub row_lo: usize,
    /// One past the last global row owned.
    pub row_hi: usize,
    /// `Aᵀᵢ`: this rank's block row, columns still global.
    pub block: Csr,
    /// Sorted distinct global columns of `block` — the union of all
    /// `NnzCols(i, ·)`, i.e. exactly the rows of `H` the local SpMM reads.
    pub cols: Vec<u32>,
    /// `col_ranges[j] = (start, len)`: the slice of `cols` lying in rank
    /// `j`'s row range. Because ownership ranges are contiguous in global
    /// id space and `cols` is sorted, each rank's needed rows occupy a
    /// contiguous slice — `cols[start..start+len]` is `NnzCols(i, j)`.
    pub col_ranges: Vec<(usize, usize)>,
    /// `segments[j]`: the entries of `block` whose column rank `j` owns,
    /// re-indexed to where that operand row lives when it is multiplied —
    /// the own segment by local row (`g − row_lo`, `row_hi − row_lo`
    /// columns, multiplied against the local `H` block in place), a remote
    /// segment by position in `j`'s payload (`recv_from(j).len()` columns,
    /// multiplied against the received buffer in place). The segments
    /// partition `block`'s nonzeros and keep each row's entry order, so
    /// folding them in ascending `j` accumulates every output element in
    /// `block`'s own CSR order.
    pub segments: Vec<Csr>,
    /// `send_to[j]`: global row ids (within our range) whose `H` rows rank
    /// `j` needs from us. `send_to[i]` is empty.
    pub send_to: Vec<Vec<u32>>,
}

impl RankPlan1d {
    /// `NnzCols(i, j)`: the global rows of `Hⱼ` this rank must receive.
    pub fn recv_from(&self, j: usize) -> &[u32] {
        let (start, len) = self.col_ranges[j];
        &self.cols[start..start + len]
    }

    /// Rows of `H` received from anyone (excludes locally-owned columns).
    pub fn recv_row_count(&self, own_rank: usize) -> u64 {
        self.col_ranges
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != own_rank)
            .map(|(_, &(_, len))| len as u64)
            .sum()
    }

    /// Rows of `H` sent to anyone.
    pub fn send_row_count(&self) -> u64 {
        self.send_to.iter().map(|v| v.len() as u64).sum()
    }
}

/// The 1D distribution plan for all ranks.
#[derive(Clone, Debug)]
pub struct Plan1d {
    /// Global matrix dimension.
    pub n: usize,
    /// World size.
    pub p: usize,
    /// Row ownership boundaries (`p + 1` entries).
    pub bounds: Vec<usize>,
    /// Per-rank plans.
    pub ranks: Vec<RankPlan1d>,
}

impl Plan1d {
    /// Builds the plan from an already-permuted adjacency matrix and part
    /// boundaries (from [`partition::Partition::block_bounds`] or an even
    /// split).
    ///
    /// # Panics
    /// Panics if `bounds` is not a monotone cover of `0..n`.
    pub fn build(adj: &Csr, bounds: &[usize]) -> Plan1d {
        let n = adj.rows();
        let p = bounds.len() - 1;
        assert_eq!(bounds[0], 0);
        assert_eq!(bounds[p], n, "bounds must cover all rows");

        let mut ranks: Vec<RankPlan1d> = (0..p)
            .map(|i| {
                let (lo, hi) = (bounds[i], bounds[i + 1]);
                let block = adj.row_block(lo, hi);
                let cols = block.distinct_cols();
                // Slice `cols` by ownership ranges.
                let mut col_ranges = Vec::with_capacity(p);
                let mut start = 0usize;
                for j in 0..p {
                    let end = start
                        + cols[start..]
                            .iter()
                            .take_while(|&&c| (c as usize) < bounds[j + 1])
                            .count();
                    col_ranges.push((start, end - start));
                    start = end;
                }
                debug_assert_eq!(start, cols.len());
                let own_rows: Vec<u32> = (lo as u32..hi as u32).collect();
                let segments = (0..p)
                    .map(|j| {
                        let (start, len) = col_ranges[j];
                        let operand_rows = if j == i {
                            &own_rows[..]
                        } else {
                            &cols[start..start + len]
                        };
                        block
                            .col_range_block(bounds[j], bounds[j + 1])
                            .remap_cols(operand_rows)
                    })
                    .collect();
                RankPlan1d {
                    row_lo: lo,
                    row_hi: hi,
                    block,
                    cols,
                    col_ranges,
                    segments,
                    send_to: vec![Vec::new(); p],
                }
            })
            .collect();

        // Mirror receive lists into send lists: what i needs from j is
        // what j sends to i.
        for i in 0..p {
            for j in 0..p {
                if i == j {
                    continue;
                }
                let needed = ranks[i].recv_from(j).to_vec();
                ranks[j].send_to[i] = needed;
            }
        }
        Plan1d {
            n,
            p,
            bounds: bounds.to_vec(),
            ranks,
        }
    }

    /// Rows owned by rank `i`.
    pub fn rows_of(&self, i: usize) -> usize {
        self.bounds[i + 1] - self.bounds[i]
    }
}

/// Even `p + 1` boundaries over `0..n` (the no-partitioner distribution).
pub fn even_bounds(n: usize, p: usize) -> Vec<usize> {
    spmat::gen::sbm::block_bounds(n, p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmat::gen::{rmat, RmatConfig};

    #[test]
    fn plan1d_recv_matches_distinct_cols() {
        let adj = rmat(RmatConfig::graph500(7, 6, 1));
        let bounds = even_bounds(adj.rows(), 4);
        let plan = Plan1d::build(&adj, &bounds);
        for i in 0..4 {
            let rp = &plan.ranks[i];
            for j in 0..4 {
                let expected = rp.block.distinct_cols_in_range(bounds[j], bounds[j + 1]);
                assert_eq!(rp.recv_from(j), &expected[..], "rank {i} from {j}");
            }
        }
    }

    #[test]
    fn plan1d_send_mirrors_recv() {
        let adj = rmat(RmatConfig::graph500(7, 6, 2));
        let bounds = even_bounds(adj.rows(), 4);
        let plan = Plan1d::build(&adj, &bounds);
        for i in 0..4 {
            for j in 0..4 {
                if i == j {
                    assert!(plan.ranks[j].send_to[i].is_empty());
                    continue;
                }
                assert_eq!(plan.ranks[j].send_to[i], plan.ranks[i].recv_from(j));
            }
        }
    }

    #[test]
    fn plan1d_send_rows_lie_in_own_range() {
        let adj = rmat(RmatConfig::graph500(7, 6, 3));
        let bounds = even_bounds(adj.rows(), 4);
        let plan = Plan1d::build(&adj, &bounds);
        for j in 0..4 {
            for row_list in &plan.ranks[j].send_to {
                for &r in row_list {
                    assert!((r as usize) >= bounds[j] && (r as usize) < bounds[j + 1]);
                }
            }
        }
    }
}
