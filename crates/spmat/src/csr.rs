//! Compressed sparse row matrices.
//!
//! `Csr` is the immutable workhorse format. Beyond the standard accessors
//! it provides the block operations the distributed algorithms are built
//! from:
//!
//! * [`Csr::row_block`] — extract a contiguous block of rows (a rank's
//!   local `Aᵀᵢ` in the 1D/1.5D distributions),
//! * [`Csr::distinct_cols_in_range`] — the `NnzCols(i, j)` sets of the
//!   paper: which columns of a block are non-empty within a peer's column
//!   range, i.e. which rows of `H` must be communicated,
//! * [`Csr::remap_cols`] — compact global column ids to positions in a
//!   row list, so a block multiplies straight against the buffer holding
//!   exactly those rows of `H` (a received payload, the local block),
//! * [`Csr::permute_symmetric`] — apply a partitioner's vertex relabeling.

/// An immutable sparse matrix in CSR format.
///
/// Invariants (checked in [`Csr::from_raw_parts`]):
/// * `indptr.len() == rows + 1`, `indptr[0] == 0`, monotone non-decreasing;
/// * `indices`/`values` have length `indptr[rows]`;
/// * within each row, `indices` are strictly increasing and `< cols`.
#[derive(Clone, Debug, PartialEq)]
pub struct Csr {
    rows: usize,
    cols: usize,
    indptr: Vec<u64>,
    indices: Vec<u32>,
    values: Vec<f64>,
}

impl Csr {
    /// Builds a CSR from raw parts, validating all invariants.
    ///
    /// # Panics
    /// Panics if any structural invariant is violated.
    pub fn from_raw_parts(
        rows: usize,
        cols: usize,
        indptr: Vec<u64>,
        indices: Vec<u32>,
        values: Vec<f64>,
    ) -> Self {
        assert_eq!(indptr.len(), rows + 1, "indptr length mismatch");
        assert_eq!(indptr[0], 0, "indptr must start at 0");
        assert_eq!(
            indices.len(),
            values.len(),
            "indices/values length mismatch"
        );
        assert_eq!(
            *indptr.last().unwrap() as usize,
            indices.len(),
            "indptr end mismatch"
        );
        for r in 0..rows {
            assert!(indptr[r] <= indptr[r + 1], "indptr not monotone at row {r}");
            let (lo, hi) = (indptr[r] as usize, indptr[r + 1] as usize);
            for k in lo..hi {
                assert!(
                    (indices[k] as usize) < cols,
                    "column out of bounds in row {r}"
                );
                if k > lo {
                    assert!(
                        indices[k - 1] < indices[k],
                        "columns not strictly increasing in row {r}"
                    );
                }
            }
        }
        Self {
            rows,
            cols,
            indptr,
            indices,
            values,
        }
    }

    /// An empty `rows × cols` matrix.
    pub fn empty(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            indptr: vec![0; rows + 1],
            indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// The `n × n` identity.
    pub fn identity(n: usize) -> Self {
        Self {
            rows: n,
            cols: n,
            indptr: (0..=n as u64).collect(),
            indices: (0..n as u32).collect(),
            values: vec![1.0; n],
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Row pointer array (length `rows + 1`).
    pub fn indptr(&self) -> &[u64] {
        &self.indptr
    }

    /// Column indices, row-major concatenated.
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// Values, aligned with [`Csr::indices`].
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Column indices of row `r`.
    pub fn row_cols(&self, r: usize) -> &[u32] {
        &self.indices[self.indptr[r] as usize..self.indptr[r + 1] as usize]
    }

    /// Values of row `r`.
    pub fn row_vals(&self, r: usize) -> &[f64] {
        &self.values[self.indptr[r] as usize..self.indptr[r + 1] as usize]
    }

    /// Number of entries in row `r` (the vertex degree for adjacency
    /// matrices).
    pub fn row_nnz(&self, r: usize) -> usize {
        (self.indptr[r + 1] - self.indptr[r]) as usize
    }

    /// Value at `(r, c)` if stored.
    pub fn get(&self, r: usize, c: usize) -> Option<f64> {
        let cols = self.row_cols(r);
        cols.binary_search(&(c as u32))
            .ok()
            .map(|k| self.row_vals(r)[k])
    }

    /// Returns true when the sparsity pattern and values are symmetric.
    pub fn is_symmetric(&self) -> bool {
        if self.rows != self.cols {
            return false;
        }
        for r in 0..self.rows {
            for (&c, &v) in self.row_cols(r).iter().zip(self.row_vals(r)) {
                if self.get(c as usize, r) != Some(v) {
                    return false;
                }
            }
        }
        true
    }

    /// Transposes the matrix (O(nnz) counting sort).
    pub fn transpose(&self) -> Csr {
        let mut indptr = vec![0u64; self.cols + 1];
        for &c in &self.indices {
            indptr[c as usize + 1] += 1;
        }
        for i in 0..self.cols {
            indptr[i + 1] += indptr[i];
        }
        let mut cursor = indptr.clone();
        let mut indices = vec![0u32; self.nnz()];
        let mut values = vec![0.0f64; self.nnz()];
        for r in 0..self.rows {
            for (&c, &v) in self.row_cols(r).iter().zip(self.row_vals(r)) {
                let k = cursor[c as usize] as usize;
                indices[k] = r as u32;
                values[k] = v;
                cursor[c as usize] += 1;
            }
        }
        Csr {
            rows: self.cols,
            cols: self.rows,
            indptr,
            indices,
            values,
        }
    }

    /// Applies the symmetric permutation `B[perm[i], perm[j]] = A[i, j]`.
    ///
    /// `perm` maps *old* index → *new* index, as produced by a partitioner
    /// relabeling vertices so each part's vertices are contiguous.
    ///
    /// # Panics
    /// Panics if `perm` is not a permutation of `0..n`.
    pub fn permute_symmetric(&self, perm: &[u32]) -> Csr {
        assert_eq!(
            self.rows, self.cols,
            "symmetric permutation requires square matrix"
        );
        assert_eq!(perm.len(), self.rows);
        let n = self.rows;
        // inverse: new index -> old index
        let mut inv = vec![u32::MAX; n];
        for (old, &new) in perm.iter().enumerate() {
            assert!(
                (new as usize) < n && inv[new as usize] == u32::MAX,
                "perm is not a permutation"
            );
            inv[new as usize] = old as u32;
        }
        let mut indptr = vec![0u64; n + 1];
        for new_r in 0..n {
            indptr[new_r + 1] = indptr[new_r] + self.row_nnz(inv[new_r] as usize) as u64;
        }
        let mut indices = vec![0u32; self.nnz()];
        let mut values = vec![0.0f64; self.nnz()];
        let mut scratch: Vec<(u32, f64)> = Vec::new();
        for new_r in 0..n {
            let old_r = inv[new_r] as usize;
            scratch.clear();
            scratch.extend(
                self.row_cols(old_r)
                    .iter()
                    .zip(self.row_vals(old_r))
                    .map(|(&c, &v)| (perm[c as usize], v)),
            );
            scratch.sort_unstable_by_key(|&(c, _)| c);
            let base = indptr[new_r] as usize;
            for (k, &(c, v)) in scratch.iter().enumerate() {
                indices[base + k] = c;
                values[base + k] = v;
            }
        }
        Csr {
            rows: n,
            cols: n,
            indptr,
            indices,
            values,
        }
    }

    /// Extracts rows `lo..hi` as a new CSR with the *same* column space
    /// (global column ids are preserved). This is a rank's local block row
    /// `Aᵀᵢ` in the 1D distribution.
    pub fn row_block(&self, lo: usize, hi: usize) -> Csr {
        assert!(lo <= hi && hi <= self.rows);
        let base = self.indptr[lo];
        let indptr: Vec<u64> = self.indptr[lo..=hi].iter().map(|&p| p - base).collect();
        let indices = self.indices[self.indptr[lo] as usize..self.indptr[hi] as usize].to_vec();
        let values = self.values[self.indptr[lo] as usize..self.indptr[hi] as usize].to_vec();
        Csr {
            rows: hi - lo,
            cols: self.cols,
            indptr,
            indices,
            values,
        }
    }

    /// Restricts the matrix to columns `[col_lo, col_hi)`, preserving the
    /// row count and the *global* column space (entries outside the range
    /// are dropped; indices are unchanged). Combined with
    /// [`Csr::row_block`] this extracts the 2D sub-blocks `Aᵀᵢⱼ` the
    /// 1.5D/2D algorithms stage over. O(rows·log(nnz/row) + kept).
    pub fn col_range_block(&self, col_lo: usize, col_hi: usize) -> Csr {
        assert!(col_lo <= col_hi && col_hi <= self.cols);
        let mut indptr = Vec::with_capacity(self.rows + 1);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        indptr.push(0u64);
        for r in 0..self.rows {
            let cols = self.row_cols(r);
            let vals = self.row_vals(r);
            // Columns are sorted within a row: binary-search the window.
            let start = cols.partition_point(|&c| (c as usize) < col_lo);
            let end = cols.partition_point(|&c| (c as usize) < col_hi);
            indices.extend_from_slice(&cols[start..end]);
            values.extend_from_slice(&vals[start..end]);
            indptr.push(indices.len() as u64);
        }
        Csr {
            rows: self.rows,
            cols: self.cols,
            indptr,
            indices,
            values,
        }
    }

    /// The sorted set of distinct columns with at least one nonzero in this
    /// matrix whose index lies in `[col_lo, col_hi)`.
    ///
    /// Applied to a block row `Aᵀᵢ` with a peer `j`'s column range, this is
    /// exactly the paper's `NnzCols(i, j)`: the rows of `Hⱼ` that rank `i`
    /// must receive from rank `j`.
    pub fn distinct_cols_in_range(&self, col_lo: usize, col_hi: usize) -> Vec<u32> {
        debug_assert!(col_lo <= col_hi && col_hi <= self.cols);
        let mut seen = vec![false; col_hi - col_lo];
        let mut count = 0usize;
        for &c in &self.indices {
            let c = c as usize;
            if c >= col_lo && c < col_hi && !seen[c - col_lo] {
                seen[c - col_lo] = true;
                count += 1;
            }
        }
        let mut out = Vec::with_capacity(count);
        for (off, &s) in seen.iter().enumerate() {
            if s {
                out.push((col_lo + off) as u32);
            }
        }
        out
    }

    /// The sorted set of all distinct columns that appear in this matrix.
    pub fn distinct_cols(&self) -> Vec<u32> {
        self.distinct_cols_in_range(0, self.cols)
    }

    /// Rewrites column indices through `new_of_old`, a sorted list of the
    /// distinct global columns this matrix touches; column `c` becomes the
    /// position of `c` in `new_of_old`. The result has
    /// `cols == new_of_old.len()` and is the compacted local matrix to
    /// multiply against a buffer holding exactly those rows of `H`.
    ///
    /// # Panics
    /// Panics (debug) if some stored column is missing from `new_of_old`.
    pub fn remap_cols(&self, new_of_old: &[u32]) -> Csr {
        // Dense scatter map: O(cols) memory but O(1) lookups; the matrices
        // we remap are block rows whose column space is the full graph, so
        // this is at most one u32 per vertex.
        let mut map = vec![u32::MAX; self.cols];
        for (new, &old) in new_of_old.iter().enumerate() {
            map[old as usize] = new as u32;
        }
        let indices: Vec<u32> = self
            .indices
            .iter()
            .map(|&c| {
                let m = map[c as usize];
                debug_assert!(m != u32::MAX, "column {c} not present in remap list");
                m
            })
            .collect();
        Csr {
            rows: self.rows,
            cols: new_of_old.len(),
            indptr: self.indptr.clone(),
            indices,
            values: self.values.clone(),
        }
    }

    /// Dense representation, for tests and tiny examples only.
    pub fn to_dense(&self) -> Vec<Vec<f64>> {
        let mut out = vec![vec![0.0; self.cols]; self.rows];
        for (r, row) in out.iter_mut().enumerate() {
            for (&c, &v) in self.row_cols(r).iter().zip(self.row_vals(r)) {
                row[c as usize] = v;
            }
        }
        out
    }

    /// Iterates all `(row, col, value)` entries in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.rows).flat_map(move |r| {
            self.row_cols(r)
                .iter()
                .zip(self.row_vals(r))
                .map(move |(&c, &v)| (r, c as usize, v))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;

    fn sample() -> Csr {
        // 4x4:
        // [ .  1  .  2 ]
        // [ 3  .  .  . ]
        // [ .  .  .  . ]
        // [ 4  .  5  . ]
        let mut c = Coo::new(4, 4);
        c.push(0, 1, 1.0);
        c.push(0, 3, 2.0);
        c.push(1, 0, 3.0);
        c.push(3, 0, 4.0);
        c.push(3, 2, 5.0);
        c.to_csr()
    }

    #[test]
    fn accessors() {
        let m = sample();
        assert_eq!(m.rows(), 4);
        assert_eq!(m.cols(), 4);
        assert_eq!(m.nnz(), 5);
        assert_eq!(m.row_cols(0), &[1, 3]);
        assert_eq!(m.row_vals(3), &[4.0, 5.0]);
        assert_eq!(m.row_nnz(2), 0);
        assert_eq!(m.get(3, 2), Some(5.0));
        assert_eq!(m.get(2, 2), None);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.get(1, 0), Some(1.0));
        assert_eq!(t.get(0, 1), Some(3.0));
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn transpose_rectangular() {
        let mut c = Coo::new(2, 3);
        c.push(0, 2, 7.0);
        c.push(1, 0, 8.0);
        let m = c.to_csr();
        let t = m.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        assert_eq!(t.get(2, 0), Some(7.0));
        assert_eq!(t.get(0, 1), Some(8.0));
    }

    #[test]
    fn identity_is_symmetric() {
        let i = Csr::identity(5);
        assert!(i.is_symmetric());
        assert_eq!(i.nnz(), 5);
        assert_eq!(i.get(3, 3), Some(1.0));
    }

    #[test]
    fn symmetric_permutation_preserves_entries() {
        let m = sample();
        let perm = vec![2u32, 0, 3, 1]; // old -> new
        let p = m.permute_symmetric(&perm);
        for (r, c, v) in m.iter() {
            assert_eq!(p.get(perm[r] as usize, perm[c] as usize), Some(v));
        }
        assert_eq!(p.nnz(), m.nnz());
    }

    #[test]
    fn identity_permutation_is_noop() {
        let m = sample();
        let perm: Vec<u32> = (0..4).collect();
        assert_eq!(m.permute_symmetric(&perm), m);
    }

    #[test]
    fn row_block_preserves_column_space() {
        let m = sample();
        let b = m.row_block(1, 4);
        assert_eq!(b.rows(), 3);
        assert_eq!(b.cols(), 4);
        assert_eq!(b.get(0, 0), Some(3.0)); // old row 1
        assert_eq!(b.get(2, 2), Some(5.0)); // old row 3
    }

    #[test]
    fn distinct_cols_in_range_matches_nnzcols_definition() {
        let m = sample();
        // Columns with nonzeros: 0 (rows 1,3), 1 (row 0), 2 (row 3), 3 (row 0).
        assert_eq!(m.distinct_cols_in_range(0, 4), vec![0, 1, 2, 3]);
        assert_eq!(m.distinct_cols_in_range(0, 2), vec![0, 1]);
        assert_eq!(m.distinct_cols_in_range(2, 4), vec![2, 3]);
        let b = m.row_block(0, 1); // only row 0: cols 1, 3
        assert_eq!(b.distinct_cols_in_range(0, 2), vec![1]);
        assert_eq!(b.distinct_cols_in_range(2, 4), vec![3]);
    }

    #[test]
    fn col_range_block_keeps_window_only() {
        let m = sample();
        let b = m.col_range_block(1, 3); // keep columns 1 and 2
        assert_eq!(b.rows(), 4);
        assert_eq!(b.cols(), 4); // global column space preserved
        assert_eq!(b.get(0, 1), Some(1.0));
        assert_eq!(b.get(3, 2), Some(5.0));
        assert_eq!(b.get(0, 3), None); // outside window dropped
        assert_eq!(b.get(1, 0), None);
        assert_eq!(b.nnz(), 2);
    }

    #[test]
    fn col_range_blocks_partition_nnz() {
        let m = sample();
        let total: usize = [(0, 2), (2, 3), (3, 4)]
            .iter()
            .map(|&(l, h)| m.col_range_block(l, h).nnz())
            .sum();
        assert_eq!(total, m.nnz());
    }

    #[test]
    fn row_then_col_block_commutes() {
        let m = sample();
        let a = m.row_block(0, 2).col_range_block(1, 4);
        let mut direct_entries: Vec<(usize, usize, f64)> = m
            .iter()
            .filter(|&(r, c, _)| r < 2 && (1..4).contains(&c))
            .collect();
        let got: Vec<(usize, usize, f64)> = a.iter().collect();
        direct_entries.sort_by_key(|&(r, c, _)| (r, c));
        assert_eq!(got, direct_entries);
    }

    #[test]
    fn remap_cols_compacts() {
        let m = sample().row_block(0, 1); // cols 1 and 3
        let distinct = m.distinct_cols();
        assert_eq!(distinct, vec![1, 3]);
        let compact = m.remap_cols(&distinct);
        assert_eq!(compact.cols(), 2);
        assert_eq!(compact.get(0, 0), Some(1.0));
        assert_eq!(compact.get(0, 1), Some(2.0));
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn bad_permutation_panics() {
        sample().permute_symmetric(&[0, 0, 1, 2]);
    }

    #[test]
    #[should_panic]
    fn invalid_indptr_panics() {
        Csr::from_raw_parts(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 1.0]);
    }
}
