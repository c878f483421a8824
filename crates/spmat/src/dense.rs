//! Row-major dense matrices.
//!
//! `Dense` stores activations (`H`, tall-skinny `n × f`) and weights
//! (`W`, small `f × f'`). Row-major layout matches the access pattern of
//! both the SpMM kernels (stream rows of `H`) and row gather/scatter for
//! communication.
//!
//! The GEMM, transpose, element-wise and row-packing kernels are
//! parallelized over the [`crate::pool`] worker pool with fixed chunk
//! boundaries and serial-order accumulation per output element, so every
//! result is bit-identical to the serial kernels at any thread count
//! (small problems fall back to the serial path automatically). The
//! GEMM-family inner loops run through the [`crate::kernel`] dispatch
//! layer (register-blocked kernels vectorized for AVX2 or NEON, or the
//! scalar oracle; strict-by-default numerics). The `*_into`
//! variants write into caller-provided buffers so steady-state training
//! epochs can run without heap allocation.
//!
//! Storage is dual-backed ([`DenseStorage`]): matrices this crate
//! allocates itself live in 64-byte-aligned [`AVec`] buffers (SIMD- and
//! cache-line-friendly), while [`Dense::from_vec`] keeps wrapping a plain
//! `Vec<f64>` zero-copy — that path is how received network payloads
//! become matrices without a copy, and how buffer pools recycle
//! allocations across epochs.

use crate::alloc::AVec;
use crate::kernel;
use crate::pool;
use rand::Rng;

/// Output rows per scheduling chunk for the GEMM-family kernels. Fixed so
/// chunk boundaries never depend on the thread count.
const GEMM_CHUNK_ROWS: usize = 16;

/// Elements per scheduling chunk for flat element-wise kernels.
const ELEM_CHUNK: usize = 1 << 15;

/// Packed rows per scheduling chunk for gather/pack kernels.
const PACK_CHUNK_ROWS: usize = 128;

/// Backing buffer of a [`Dense`] matrix: either a plain `Vec<f64>`
/// (adopted zero-copy from network payloads and `Vec`-based pools) or a
/// 64-byte-aligned [`AVec`] (everything this crate allocates itself).
#[derive(Clone, Debug)]
pub enum DenseStorage {
    /// A plain heap buffer with `Vec`'s default (8-byte) alignment.
    Unaligned(Vec<f64>),
    /// A cache-line-aligned buffer.
    Aligned(AVec),
}

impl DenseStorage {
    #[inline]
    fn as_slice(&self) -> &[f64] {
        match self {
            DenseStorage::Unaligned(v) => v,
            DenseStorage::Aligned(a) => a.as_slice(),
        }
    }

    #[inline]
    fn as_mut_slice(&mut self) -> &mut [f64] {
        match self {
            DenseStorage::Unaligned(v) => v,
            DenseStorage::Aligned(a) => a.as_mut_slice(),
        }
    }
}

/// A row-major dense `rows × cols` matrix of `f64`.
#[derive(Clone, Debug)]
pub struct Dense {
    rows: usize,
    cols: usize,
    data: DenseStorage,
}

impl PartialEq for Dense {
    fn eq(&self, other: &Self) -> bool {
        // Equality is over shape and logical contents, not over which
        // backing variant holds them.
        self.rows == other.rows
            && self.cols == other.cols
            && self.data.as_slice() == other.data.as_slice()
    }
}

impl Dense {
    /// An all-zeros matrix (aligned storage).
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: DenseStorage::Aligned(AVec::zeroed(rows * cols)),
        }
    }

    /// Builds from a generator function over `(row, col)`, called in
    /// row-major order.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = AVec::zeroed(rows * cols);
        let s = data.as_mut_slice();
        for r in 0..rows {
            for c in 0..cols {
                s[r * cols + c] = f(r, c);
            }
        }
        Self {
            rows,
            cols,
            data: DenseStorage::Aligned(data),
        }
    }

    /// Wraps an existing row-major buffer **zero-copy** (the buffer keeps
    /// its `Vec` alignment). This is the path network payloads and
    /// `Vec`-based scratch pools take.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length mismatch");
        Self {
            rows,
            cols,
            data: DenseStorage::Unaligned(data),
        }
    }

    /// Wraps an existing aligned buffer zero-copy.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_avec(rows: usize, cols: usize, data: AVec) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length mismatch");
        Self {
            rows,
            cols,
            data: DenseStorage::Aligned(data),
        }
    }

    /// Consumes the matrix and returns its backing buffer as a plain
    /// `Vec<f64>`. Zero-copy for [`Dense::from_vec`]-backed matrices;
    /// aligned-backed matrices are copied out. Pools that want to keep
    /// the alignment should use [`Dense::into_storage`] instead.
    pub fn into_vec(self) -> Vec<f64> {
        match self.data {
            DenseStorage::Unaligned(v) => v,
            DenseStorage::Aligned(a) => a.to_vec(),
        }
    }

    /// Consumes the matrix and returns its backing buffer with the
    /// variant intact, so scratch pools can recycle each kind of
    /// allocation without a copy or an alignment downgrade.
    pub fn into_storage(self) -> DenseStorage {
        self.data
    }

    /// Glorot/Xavier-uniform initialization, the standard GCN weight init.
    pub fn glorot(rows: usize, cols: usize, rng: &mut impl Rng) -> Self {
        let limit = (6.0 / (rows + cols) as f64).sqrt();
        Self::from_fn(rows, cols, |_, _| rng.gen_range(-limit..limit))
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The underlying row-major buffer.
    pub fn data(&self) -> &[f64] {
        self.data.as_slice()
    }

    /// Mutable access to the underlying buffer.
    pub fn data_mut(&mut self) -> &mut [f64] {
        self.data.as_mut_slice()
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data.as_slice()[r * self.cols..(r + 1) * self.cols]
    }

    /// Row `r` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        let cols = self.cols;
        &mut self.data.as_mut_slice()[r * cols..(r + 1) * cols]
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data.as_slice()[r * self.cols + c]
    }

    /// Element setter.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        let cols = self.cols;
        self.data.as_mut_slice()[r * cols + c] = v;
    }

    /// `C = self · other` (standard GEMM, `m×k · k×n`), parallel over
    /// output rows with the process-wide thread count.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Dense) -> Dense {
        self.matmul_with(other, pool::current_threads())
    }

    /// [`Dense::matmul`] with an explicit thread count.
    pub fn matmul_with(&self, other: &Dense, threads: usize) -> Dense {
        let mut out = Dense::zeros(self.rows, other.cols);
        self.matmul_into_with(other, &mut out, threads);
        out
    }

    /// `out = self · other` into a caller-provided buffer (overwritten).
    ///
    /// # Panics
    /// Panics on any dimension mismatch.
    pub fn matmul_into(&self, other: &Dense, out: &mut Dense) {
        self.matmul_into_with(other, out, pool::current_threads());
    }

    /// [`Dense::matmul_into`] with an explicit thread count.
    pub fn matmul_into_with(&self, other: &Dense, out: &mut Dense, threads: usize) {
        assert_eq!(self.cols, other.rows, "gemm inner dimension mismatch");
        assert_eq!(out.rows, self.rows, "gemm output rows mismatch");
        assert_eq!(out.cols, other.cols, "gemm output cols mismatch");
        let (k_dim, n) = (self.cols, other.cols);
        if self.rows == 0 || n == 0 {
            return;
        }
        let t = pool::effective_threads(threads, 2 * self.rows * k_dim * n);
        let ker = kernel::active();
        let b = other.data.as_slice();
        pool::for_each_chunk_mut(
            t,
            out.data.as_mut_slice(),
            GEMM_CHUNK_ROWS * n,
            |ci, out_chunk| {
                let row0 = ci * GEMM_CHUNK_ROWS;
                // ikj order per row (ascending k, exact zeros skipped) — the
                // accumulation order the kernel contract preserves.
                for (i, out_row) in out_chunk.chunks_exact_mut(n).enumerate() {
                    ker.gemm_row(self.row(row0 + i), b, n, out_row);
                }
            },
        );
    }

    /// `C = selfᵀ · other` without materializing the transpose
    /// (`k×m` result from `m×?` inputs). Used for weight gradients
    /// `Y = Hᵀ(AG)`.
    pub fn transpose_matmul(&self, other: &Dense) -> Dense {
        self.transpose_matmul_with(other, pool::current_threads())
    }

    /// [`Dense::transpose_matmul`] with an explicit thread count.
    pub fn transpose_matmul_with(&self, other: &Dense, threads: usize) -> Dense {
        let mut out = Dense::zeros(self.cols, other.cols);
        self.transpose_matmul_into_with(other, &mut out, threads);
        out
    }

    /// `out = selfᵀ · other` into a caller-provided buffer (overwritten).
    pub fn transpose_matmul_into(&self, other: &Dense, out: &mut Dense) {
        self.transpose_matmul_into_with(other, out, pool::current_threads());
    }

    /// [`Dense::transpose_matmul_into`] with an explicit thread count.
    ///
    /// One kernel call per chunk of output rows `k` — every row when one
    /// worker runs, so the input is streamed once; `GEMM_CHUNK_ROWS`
    /// otherwise. Each output element accumulates over `i = 0..rows` in
    /// ascending order whatever the chunking, so every thread count
    /// matches the scalar kernel bit for bit.
    pub fn transpose_matmul_into_with(&self, other: &Dense, out: &mut Dense, threads: usize) {
        assert_eq!(self.rows, other.rows, "transpose_matmul row mismatch");
        assert_eq!(out.rows, self.cols, "transpose_matmul output rows mismatch");
        assert_eq!(
            out.cols, other.cols,
            "transpose_matmul output cols mismatch"
        );
        let (k_dim, n) = (self.cols, other.cols);
        if k_dim == 0 || n == 0 {
            return;
        }
        let t = pool::effective_threads(threads, 2 * self.rows * k_dim * n);
        let chunk_rows = if t <= 1 { k_dim } else { GEMM_CHUNK_ROWS };
        let ker = kernel::active();
        let (a, b) = (self.data.as_slice(), other.data.as_slice());
        pool::for_each_chunk_mut(
            t,
            out.data.as_mut_slice(),
            chunk_rows * n,
            |ci, out_chunk| ker.gemm_t(a, k_dim, ci * chunk_rows, b, n, out_chunk),
        );
    }

    /// `C = self · otherᵀ` without materializing the transpose. Used for
    /// gradient propagation `G W ᵀ`.
    pub fn matmul_transpose(&self, other: &Dense) -> Dense {
        self.matmul_transpose_with(other, pool::current_threads())
    }

    /// [`Dense::matmul_transpose`] with an explicit thread count.
    pub fn matmul_transpose_with(&self, other: &Dense, threads: usize) -> Dense {
        let mut out = Dense::zeros(self.rows, other.rows);
        self.matmul_transpose_into_with(other, &mut out, threads);
        out
    }

    /// `out = self · otherᵀ` into a caller-provided buffer (overwritten).
    pub fn matmul_transpose_into(&self, other: &Dense, out: &mut Dense) {
        self.matmul_transpose_into_with(other, out, pool::current_threads());
    }

    /// [`Dense::matmul_transpose_into`] with an explicit thread count.
    pub fn matmul_transpose_into_with(&self, other: &Dense, out: &mut Dense, threads: usize) {
        assert_eq!(self.cols, other.cols, "matmul_transpose col mismatch");
        assert_eq!(out.rows, self.rows, "matmul_transpose output rows mismatch");
        assert_eq!(
            out.cols, other.rows,
            "matmul_transpose output cols mismatch"
        );
        let n = other.rows;
        if self.rows == 0 || n == 0 {
            return;
        }
        let t = pool::effective_threads(threads, 2 * self.rows * self.cols * n);
        // Dot-product-shaped: a true reduction per output element, so the
        // kernel layer keeps it scalar in strict mode and only fast mode
        // vectorizes it.
        let ker = kernel::active();
        pool::for_each_chunk_mut(
            t,
            out.data.as_mut_slice(),
            GEMM_CHUNK_ROWS * n,
            |ci, out_chunk| {
                let row0 = ci * GEMM_CHUNK_ROWS;
                for (i, out_row) in out_chunk.chunks_exact_mut(n).enumerate() {
                    let a_row = self.row(row0 + i);
                    for (j, o) in out_row.iter_mut().enumerate() {
                        *o = ker.dot(a_row, other.row(j));
                    }
                }
            },
        );
    }

    /// Materialized transpose (parallel over output rows).
    pub fn transpose(&self) -> Dense {
        let mut out = Dense::zeros(self.cols, self.rows);
        if self.rows == 0 || self.cols == 0 {
            return out;
        }
        let t = pool::effective_threads(pool::current_threads(), self.data().len());
        let (rows, cols) = (self.rows, self.cols);
        let src = self.data.as_slice();
        pool::for_each_chunk_mut(
            t,
            out.data.as_mut_slice(),
            GEMM_CHUNK_ROWS * rows,
            |ci, out_chunk| {
                let c0 = ci * GEMM_CHUNK_ROWS;
                for (dc, out_row) in out_chunk.chunks_exact_mut(rows).enumerate() {
                    let c = c0 + dc;
                    for (r, o) in out_row.iter_mut().enumerate() {
                        *o = src[r * cols + c];
                    }
                }
            },
        );
        out
    }

    /// `self += other` (parallel element-wise).
    pub fn add_assign(&mut self, other: &Dense) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        let t = pool::effective_threads(pool::current_threads(), self.data().len());
        let src = other.data.as_slice();
        pool::for_each_chunk_mut(t, self.data.as_mut_slice(), ELEM_CHUNK, |ci, chunk| {
            let (off, len) = (ci * ELEM_CHUNK, chunk.len());
            for (a, &b) in chunk.iter_mut().zip(&src[off..off + len]) {
                *a += b;
            }
        });
    }

    /// `self -= scale * other` (SGD update, parallel element-wise).
    pub fn sub_scaled_assign(&mut self, other: &Dense, scale: f64) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        let t = pool::effective_threads(pool::current_threads(), self.data().len());
        let src = other.data.as_slice();
        pool::for_each_chunk_mut(t, self.data.as_mut_slice(), ELEM_CHUNK, |ci, chunk| {
            let (off, len) = (ci * ELEM_CHUNK, chunk.len());
            for (a, &b) in chunk.iter_mut().zip(&src[off..off + len]) {
                *a -= scale * b;
            }
        });
    }

    /// In-place scaling (parallel element-wise).
    pub fn scale(&mut self, s: f64) {
        let t = pool::effective_threads(pool::current_threads(), self.data().len());
        pool::for_each_chunk_mut(t, self.data.as_mut_slice(), ELEM_CHUNK, |_ci, chunk| {
            for a in chunk.iter_mut() {
                *a *= s;
            }
        });
    }

    /// `self ⊙= other` (in-place Hadamard, parallel element-wise).
    pub fn hadamard_assign(&mut self, other: &Dense) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        let t = pool::effective_threads(pool::current_threads(), self.data().len());
        let src = other.data.as_slice();
        pool::for_each_chunk_mut(t, self.data.as_mut_slice(), ELEM_CHUNK, |ci, chunk| {
            let (off, len) = (ci * ELEM_CHUNK, chunk.len());
            for (a, &b) in chunk.iter_mut().zip(&src[off..off + len]) {
                *a *= b;
            }
        });
    }

    /// Element-wise product `self ⊙ other` (Hadamard).
    pub fn hadamard(&self, other: &Dense) -> Dense {
        let mut out = Dense::zeros(self.rows, self.cols);
        self.hadamard_into(other, &mut out);
        out
    }

    /// `out = self ⊙ other` into a caller-provided buffer.
    pub fn hadamard_into(&self, other: &Dense, out: &mut Dense) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        assert_eq!((self.rows, self.cols), (out.rows, out.cols));
        let t = pool::effective_threads(pool::current_threads(), self.data().len());
        let (lhs, rhs) = (self.data.as_slice(), other.data.as_slice());
        pool::for_each_chunk_mut(t, out.data.as_mut_slice(), ELEM_CHUNK, |ci, chunk| {
            let (off, len) = (ci * ELEM_CHUNK, chunk.len());
            for ((o, &a), &b) in chunk
                .iter_mut()
                .zip(&lhs[off..off + len])
                .zip(&rhs[off..off + len])
            {
                *o = a * b;
            }
        });
    }

    /// Element-wise ReLU.
    pub fn relu(&self) -> Dense {
        let mut out = Dense::zeros(self.rows, self.cols);
        self.relu_into(&mut out);
        out
    }

    /// `out = relu(self)` into a caller-provided buffer.
    pub fn relu_into(&self, out: &mut Dense) {
        assert_eq!((self.rows, self.cols), (out.rows, out.cols));
        let t = pool::effective_threads(pool::current_threads(), self.data().len());
        let src = self.data.as_slice();
        pool::for_each_chunk_mut(t, out.data.as_mut_slice(), ELEM_CHUNK, |ci, chunk| {
            let (off, len) = (ci * ELEM_CHUNK, chunk.len());
            for (o, &v) in chunk.iter_mut().zip(&src[off..off + len]) {
                *o = v.max(0.0);
            }
        });
    }

    /// Element-wise ReLU derivative (1 where the input was positive).
    pub fn relu_prime(&self) -> Dense {
        let mut out = Dense::zeros(self.rows, self.cols);
        self.relu_prime_into(&mut out);
        out
    }

    /// `out = relu'(self)` into a caller-provided buffer.
    pub fn relu_prime_into(&self, out: &mut Dense) {
        assert_eq!((self.rows, self.cols), (out.rows, out.cols));
        let t = pool::effective_threads(pool::current_threads(), self.data().len());
        let src = self.data.as_slice();
        pool::for_each_chunk_mut(t, out.data.as_mut_slice(), ELEM_CHUNK, |ci, chunk| {
            let (off, len) = (ci * ELEM_CHUNK, chunk.len());
            for (o, &v) in chunk.iter_mut().zip(&src[off..off + len]) {
                *o = if v > 0.0 { 1.0 } else { 0.0 };
            }
        });
    }

    /// Gathers the listed rows into a new matrix (communication packing:
    /// the rows of `H` a peer asked for).
    pub fn gather_rows(&self, rows: &[u32]) -> Dense {
        let mut out = Dense::zeros(rows.len(), self.cols);
        self.pack_rows_into(rows, 0, out.data.as_mut_slice());
        out
    }

    /// Packs rows `idx[i] - base` of `self` contiguously into `out`
    /// (`out.len() == idx.len() * cols`), parallel over packed rows. This
    /// is the sparsity-aware `NnzCols` send-staging kernel: `idx` holds
    /// global row ids and `base` the rank's first owned row.
    ///
    /// # Panics
    /// Panics on length mismatch or an id below `base`.
    pub fn pack_rows_into(&self, idx: &[u32], base: usize, out: &mut [f64]) {
        assert_eq!(out.len(), idx.len() * self.cols, "pack buffer mismatch");
        if idx.is_empty() || self.cols == 0 {
            return;
        }
        let cols = self.cols;
        let t = pool::effective_threads(pool::current_threads(), out.len());
        pool::for_each_chunk_mut(t, out, PACK_CHUNK_ROWS * cols, |ci, chunk| {
            let i0 = ci * PACK_CHUNK_ROWS;
            for (di, dst) in chunk.chunks_exact_mut(cols).enumerate() {
                let r = idx[i0 + di] as usize - base;
                dst.copy_from_slice(self.row(r));
            }
        });
    }

    /// Appends rows `idx[i] - base` of `self` to `out`, which so needs no
    /// zero-fill first: the staging path for pooled send buffers, whose
    /// every element the pack overwrites anyway. One worker extends in
    /// place; more than one fill a zeroed tail through
    /// [`Dense::pack_rows_into`].
    ///
    /// # Panics
    /// Panics on an id below `base`.
    pub fn pack_rows_extend(&self, idx: &[u32], base: usize, out: &mut Vec<f64>) {
        let len = idx.len() * self.cols;
        if pool::effective_threads(pool::current_threads(), len) > 1 {
            let at = out.len();
            out.resize(at + len, 0.0);
            self.pack_rows_into(idx, base, &mut out[at..]);
        } else {
            out.reserve(len);
            for &g in idx {
                out.extend_from_slice(self.row(g as usize - base));
            }
        }
    }

    /// Scatters `src`'s rows into this matrix at the listed positions
    /// (communication unpacking). Serial: `rows` may contain duplicates,
    /// which a parallel scatter could not handle deterministically.
    pub fn scatter_rows(&mut self, rows: &[u32], src: &Dense) {
        assert_eq!(rows.len(), src.rows);
        assert_eq!(self.cols, src.cols);
        for (i, &r) in rows.iter().enumerate() {
            self.row_mut(r as usize).copy_from_slice(src.row(i));
        }
    }

    /// Extracts rows `lo..hi`.
    pub fn row_slice(&self, lo: usize, hi: usize) -> Dense {
        assert!(lo <= hi && hi <= self.rows);
        Dense {
            rows: hi - lo,
            cols: self.cols,
            data: DenseStorage::Aligned(AVec::from_slice(
                &self.data.as_slice()[lo * self.cols..hi * self.cols],
            )),
        }
    }

    /// Vertically concatenates blocks with equal column counts.
    pub fn vstack(blocks: &[&Dense]) -> Dense {
        assert!(!blocks.is_empty());
        let cols = blocks[0].cols;
        let rows = blocks.iter().map(|b| b.rows).sum();
        let mut data = AVec::new();
        data.reserve(rows * cols);
        for b in blocks {
            assert_eq!(b.cols, cols, "vstack column mismatch");
            data.extend_from_slice(b.data.as_slice());
        }
        Dense {
            rows,
            cols,
            data: DenseStorage::Aligned(data),
        }
    }

    /// Applies a row permutation: `out[perm[i]] = self[i]` (old → new),
    /// matching [`crate::Csr::permute_symmetric`] so features follow their
    /// relabeled vertices.
    ///
    /// Rows are gathered in destination order into a reserved buffer, so
    /// the output is written once, front to back, with no zero fill.
    ///
    /// # Panics
    /// Panics if `perm` is not a permutation of `0..rows`.
    pub fn permute_rows(&self, perm: &[u32]) -> Dense {
        assert_eq!(perm.len(), self.rows);
        let mut old_of_new = vec![u32::MAX; self.rows];
        for (old, &new) in perm.iter().enumerate() {
            old_of_new[new as usize] = old as u32;
        }
        let mut data = AVec::new();
        data.reserve(self.rows * self.cols);
        for &old in &old_of_new {
            assert_ne!(old, u32::MAX, "perm is not a permutation");
            data.extend_from_slice(self.row(old as usize));
        }
        Dense {
            rows: self.rows,
            cols: self.cols,
            data: DenseStorage::Aligned(data),
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data().iter().map(|&v| v * v).sum::<f64>().sqrt()
    }

    /// Max absolute element-wise difference; `None` on shape mismatch.
    pub fn max_abs_diff(&self, other: &Dense) -> Option<f64> {
        if (self.rows, self.cols) != (other.rows, other.cols) {
            return None;
        }
        Some(
            self.data()
                .iter()
                .zip(other.data())
                .map(|(&a, &b)| (a - b).abs())
                .fold(0.0, f64::max),
        )
    }

    /// True when all elements differ by at most `tol`.
    pub fn approx_eq(&self, other: &Dense, tol: f64) -> bool {
        self.max_abs_diff(other).is_some_and(|d| d <= tol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn m(rows: usize, cols: usize, vals: &[f64]) -> Dense {
        Dense::from_vec(rows, cols, vals.to_vec())
    }

    #[test]
    fn matmul_small() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn gemm_thread_counts_bit_identical() {
        let mut rng = StdRng::seed_from_u64(11);
        let a = Dense::glorot(3 * GEMM_CHUNK_ROWS + 7, 40, &mut rng);
        let b = Dense::glorot(40, 33, &mut rng);
        let serial = a.matmul_with(&b, 1);
        for t in [2, 4, 7] {
            assert_eq!(a.matmul_with(&b, t).data(), serial.data(), "threads={t}");
        }
        let tm1 = a.transpose_matmul_with(&a, 1);
        for t in [2, 4, 7] {
            assert_eq!(
                a.transpose_matmul_with(&a, t).data(),
                tm1.data(),
                "threads={t}"
            );
        }
        let mt1 = a.matmul_transpose_with(&a, 1);
        for t in [2, 4, 7] {
            assert_eq!(
                a.matmul_transpose_with(&a, t).data(),
                mt1.data(),
                "threads={t}"
            );
        }
    }

    #[test]
    fn into_variants_match_owned() {
        let mut rng = StdRng::seed_from_u64(12);
        let a = Dense::glorot(9, 5, &mut rng);
        let b = Dense::glorot(5, 4, &mut rng);
        let mut out = Dense::from_fn(9, 4, |_, _| 42.0); // dirty buffer
        a.matmul_into(&b, &mut out);
        assert_eq!(out.data(), a.matmul(&b).data());

        let c = Dense::glorot(9, 4, &mut rng);
        let mut out2 = Dense::from_fn(5, 4, |_, _| -1.0);
        a.transpose_matmul_into(&c, &mut out2);
        assert_eq!(out2.data(), a.transpose_matmul(&c).data());

        let d = Dense::glorot(7, 5, &mut rng);
        let mut out3 = Dense::from_fn(9, 7, |_, _| 3.0);
        a.matmul_transpose_into(&d, &mut out3);
        assert_eq!(out3.data(), a.matmul_transpose(&d).data());

        let mut out4 = Dense::from_fn(9, 5, |_, _| 9.0);
        a.relu_into(&mut out4);
        assert_eq!(out4.data(), a.relu().data());

        let e = Dense::glorot(9, 5, &mut rng);
        let mut out5 = Dense::zeros(9, 5);
        a.hadamard_into(&e, &mut out5);
        assert_eq!(out5.data(), a.hadamard(&e).data());
    }

    #[test]
    fn transpose_matmul_matches_explicit() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Dense::glorot(5, 3, &mut rng);
        let b = Dense::glorot(5, 4, &mut rng);
        let fast = a.transpose_matmul(&b);
        let explicit = a.transpose().matmul(&b);
        assert!(fast.approx_eq(&explicit, 1e-12));
    }

    #[test]
    fn matmul_transpose_matches_explicit() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = Dense::glorot(4, 3, &mut rng);
        let b = Dense::glorot(5, 3, &mut rng);
        let fast = a.matmul_transpose(&b);
        let explicit = a.matmul(&b.transpose());
        assert!(fast.approx_eq(&explicit, 1e-12));
    }

    #[test]
    fn relu_and_prime() {
        let a = m(1, 4, &[-1.0, 0.0, 2.0, -0.5]);
        assert_eq!(a.relu().data(), &[0.0, 0.0, 2.0, 0.0]);
        assert_eq!(a.relu_prime().data(), &[0.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn gather_scatter_roundtrip() {
        let a = m(4, 2, &[0.0, 1.0, 10.0, 11.0, 20.0, 21.0, 30.0, 31.0]);
        let picked = a.gather_rows(&[3, 1]);
        assert_eq!(picked.row(0), &[30.0, 31.0]);
        assert_eq!(picked.row(1), &[10.0, 11.0]);
        let mut b = Dense::zeros(4, 2);
        b.scatter_rows(&[3, 1], &picked);
        assert_eq!(b.row(3), a.row(3));
        assert_eq!(b.row(1), a.row(1));
        assert_eq!(b.row(0), &[0.0, 0.0]);
    }

    #[test]
    fn pack_rows_into_with_base() {
        let a = m(3, 2, &[0.0, 1.0, 10.0, 11.0, 20.0, 21.0]);
        // Global ids 5..8 map to local rows 0..3 with base 5.
        let mut out = vec![0.0; 4];
        a.pack_rows_into(&[7, 5], 5, &mut out);
        assert_eq!(out, vec![20.0, 21.0, 0.0, 1.0]);
    }

    #[test]
    fn pack_rows_extend_appends_what_pack_rows_into_writes() {
        // Small: extends in place. Large: past the parallel threshold.
        for (rows, cols, picked) in [(3usize, 2usize, 2usize), (700, 40, 600)] {
            let a = Dense::from_fn(rows, cols, |r, c| (r * cols + c) as f64);
            let idx: Vec<u32> = (0..picked).map(|i| (5 + (i * 7) % rows) as u32).collect();
            let mut want = vec![0.0; picked * cols];
            a.pack_rows_into(&idx, 5, &mut want);
            let mut got = vec![-1.0];
            a.pack_rows_extend(&idx, 5, &mut got);
            assert_eq!(got[0], -1.0, "existing contents stay");
            assert_eq!(&got[1..], &want[..]);
        }
    }

    #[test]
    fn into_vec_roundtrip() {
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let v = a.clone().into_vec();
        assert_eq!(Dense::from_vec(2, 2, v), a);
    }

    #[test]
    fn permute_rows_matches_csr_convention() {
        let a = m(3, 1, &[0.0, 1.0, 2.0]);
        let p = a.permute_rows(&[2, 0, 1]);
        assert_eq!(p.data(), &[1.0, 2.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn permute_rows_rejects_a_repeated_target() {
        m(2, 1, &[0.0, 1.0]).permute_rows(&[1, 1]);
    }

    #[test]
    fn vstack_concatenates() {
        let a = m(1, 2, &[1.0, 2.0]);
        let b = m(2, 2, &[3.0, 4.0, 5.0, 6.0]);
        let s = Dense::vstack(&[&a, &b]);
        assert_eq!(s.rows(), 3);
        assert_eq!(s.row(2), &[5.0, 6.0]);
    }

    #[test]
    fn sgd_update() {
        let mut w = m(1, 2, &[1.0, 1.0]);
        let g = m(1, 2, &[0.5, -0.5]);
        w.sub_scaled_assign(&g, 0.1);
        assert!(w.approx_eq(&m(1, 2, &[0.95, 1.05]), 1e-15));
    }

    #[test]
    fn glorot_within_limit() {
        let mut rng = StdRng::seed_from_u64(3);
        let w = Dense::glorot(10, 10, &mut rng);
        let limit = (6.0 / 20.0f64).sqrt();
        assert!(w.data().iter().all(|&v| v.abs() <= limit));
    }

    #[test]
    fn frobenius() {
        let a = m(1, 2, &[3.0, 4.0]);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-15);
    }
}
