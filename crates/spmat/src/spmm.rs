//! Sparse × tall-skinny-dense multiplication kernels.
//!
//! These are the local compute kernels every distributed variant calls
//! after communication has assembled the needed rows of `H`
//! (the role cuSPARSE `csrmm2` plays in the paper's implementation).
//!
//! The kernels are row-parallel over the [`crate::pool`] worker pool and
//! cache-blocked: output rows are processed in fixed chunks of
//! [`SPMM_CHUNK_ROWS`], and each row runs through the
//! [`crate::kernel`] dispatch layer — the register-blocked kernels,
//! vectorized for AVX2 or NEON, when the host supports them, the
//! portable scalar tile loop otherwise.
//! Dispatch is resolved **once per matrix operation**, not per row.
//! Empty sparse rows are skipped before any dense work.
//!
//! **Determinism:** each output row is produced by exactly one worker and
//! accumulates its nonzeros in CSR order, exactly like the serial loop —
//! so results are bit-identical at every thread count (asserted by
//! `tests/parallel_kernels.rs` at 1, 2, 4 and 7 threads). It holds on
//! every backend too; see the [`crate::kernel`] determinism contract.

use crate::csr::Csr;
use crate::dense::Dense;
use crate::kernel::{self, Kernels};
use crate::pool;

/// Rows per scheduling chunk. Fixed (independent of the thread count) so
/// chunk boundaries — and therefore results — never depend on parallelism.
pub const SPMM_CHUNK_ROWS: usize = 64;

/// `C = A · H` for CSR `A` (`m × k`) and dense `H` (`k × f`), using the
/// process-wide thread count ([`pool::current_threads`]).
///
/// # Panics
/// Panics if `A.cols() != H.rows()`.
pub fn spmm(a: &Csr, h: &Dense) -> Dense {
    spmm_with(a, h, pool::current_threads())
}

/// [`spmm`] with an explicit thread count.
pub fn spmm_with(a: &Csr, h: &Dense, threads: usize) -> Dense {
    let mut out = Dense::zeros(a.rows(), h.cols());
    spmm_acc_with(a, h, &mut out, threads);
    out
}

/// `C += A · H`, accumulating into an existing output, using the
/// process-wide thread count. This is the kernel used inside the 1.5D
/// stage loop, where each stage adds one partial product `AᵀᵢₖHₖ`.
///
/// # Panics
/// Panics on any dimension mismatch.
pub fn spmm_acc(a: &Csr, h: &Dense, out: &mut Dense) {
    spmm_acc_with(a, h, out, pool::current_threads());
}

/// [`spmm_acc`] with an explicit thread count.
pub fn spmm_acc_with(a: &Csr, h: &Dense, out: &mut Dense, threads: usize) {
    assert_eq!(a.cols(), h.rows(), "spmm inner dimension mismatch");
    assert_eq!(out.rows(), a.rows(), "spmm output rows mismatch");
    assert_eq!(out.cols(), h.cols(), "spmm output cols mismatch");
    let f = h.cols();
    if a.rows() == 0 || f == 0 {
        return;
    }
    let t = pool::effective_threads(threads, 2 * a.nnz() * f);
    // Resolve (backend, mode) once for the whole operation; the worker
    // closure captures the plain Copy value.
    let ker = kernel::active();
    pool::for_each_chunk_mut(t, out.data_mut(), SPMM_CHUNK_ROWS * f, |ci, out_chunk| {
        spmm_row_chunk(ker, a, h, ci * SPMM_CHUNK_ROWS, out_chunk, f);
    });
}

/// Serial kernel for one chunk of output rows (`out_chunk` holds
/// `row0 .. row0 + out_chunk.len()/f`). Accumulation order per output
/// element is CSR nonzero order — identical to the historical serial loop.
fn spmm_row_chunk(ker: Kernels, a: &Csr, h: &Dense, row0: usize, out_chunk: &mut [f64], f: usize) {
    let h_data = h.data();
    for (i, out_row) in out_chunk.chunks_exact_mut(f).enumerate() {
        let r = row0 + i;
        let cols = a.row_cols(r);
        if cols.is_empty() {
            continue; // skip empty rows before touching any dense data
        }
        let vals = a.row_vals(r);
        ker.spmm_row(cols, vals, h_data, f, out_row);
    }
}

/// Number of floating-point operations one `A · H` performs
/// (`2 · nnz(A) · f`); feeds the compute-time model.
pub fn spmm_flops(a: &Csr, f: usize) -> u64 {
    2 * a.nnz() as u64 * f as u64
}

/// Reference implementation via dense conversion; O(m·k·f), tests only.
pub fn spmm_naive(a: &Csr, h: &Dense) -> Dense {
    let ad = a.to_dense();
    Dense::from_fn(a.rows(), h.cols(), |r, c| {
        (0..a.cols()).map(|k| ad[r][k] * h.get(k, c)).sum()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;
    use crate::kernel::scalar::FTILE;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_csr(rows: usize, cols: usize, density: f64, rng: &mut StdRng) -> Csr {
        let mut coo = Coo::new(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                if rng.gen_bool(density) {
                    coo.push(r, c, rng.gen_range(-1.0..1.0));
                }
            }
        }
        coo.to_csr()
    }

    #[test]
    fn matches_naive_on_random_inputs() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..5 {
            let a = random_csr(13, 9, 0.3, &mut rng);
            let h = Dense::glorot(9, 4, &mut rng);
            let fast = spmm(&a, &h);
            let slow = spmm_naive(&a, &h);
            assert!(fast.approx_eq(&slow, 1e-12));
        }
    }

    #[test]
    fn thread_counts_are_bit_identical() {
        let mut rng = StdRng::seed_from_u64(44);
        // Rows span several chunks so the parallel path really engages.
        let a = random_csr(3 * SPMM_CHUNK_ROWS + 5, 90, 0.2, &mut rng);
        let h = Dense::glorot(90, FTILE + 9, &mut rng);
        let serial = spmm_with(&a, &h, 1);
        for t in [2, 4, 7] {
            let par = spmm_with(&a, &h, t);
            assert_eq!(par.data(), serial.data(), "threads={t}");
        }
    }

    #[test]
    fn wide_f_crosses_tile_boundary() {
        let mut rng = StdRng::seed_from_u64(45);
        let a = random_csr(20, 20, 0.4, &mut rng);
        let h = Dense::glorot(20, 2 * FTILE + 3, &mut rng);
        assert!(spmm(&a, &h).approx_eq(&spmm_naive(&a, &h), 1e-12));
    }

    #[test]
    fn identity_spmm_is_identity() {
        let mut rng = StdRng::seed_from_u64(7);
        let h = Dense::glorot(6, 3, &mut rng);
        let i = Csr::identity(6);
        assert!(spmm(&i, &h).approx_eq(&h, 0.0));
    }

    #[test]
    fn acc_adds_partial_products() {
        let mut rng = StdRng::seed_from_u64(8);
        let a = random_csr(5, 5, 0.5, &mut rng);
        let h = Dense::glorot(5, 2, &mut rng);
        let mut out = spmm(&a, &h);
        spmm_acc(&a, &h, &mut out);
        let mut twice = spmm(&a, &h);
        twice.scale(2.0);
        assert!(out.approx_eq(&twice, 1e-12));
    }

    #[test]
    fn empty_matrix_gives_zeros() {
        let a = Csr::empty(3, 4);
        let h = Dense::zeros(4, 2);
        let out = spmm(&a, &h);
        assert_eq!(out.data(), &[0.0; 6]);
    }

    #[test]
    fn zero_width_operand_is_fine() {
        let a = Csr::identity(4);
        let h = Dense::zeros(4, 0);
        let out = spmm_with(&a, &h, 4);
        assert_eq!(out.rows(), 4);
        assert_eq!(out.cols(), 0);
    }

    #[test]
    fn flops_formula() {
        let a = Csr::identity(10);
        assert_eq!(spmm_flops(&a, 8), 2 * 10 * 8);
    }

    #[test]
    fn block_decomposition_sums_to_whole() {
        // Σⱼ A[:, jblock] · H[jblock] == A · H — the algebraic identity the
        // 1D algorithm relies on.
        let mut rng = StdRng::seed_from_u64(9);
        let a = random_csr(8, 8, 0.4, &mut rng);
        let h = Dense::glorot(8, 3, &mut rng);
        let whole = spmm(&a, &h);

        let mut sum = Dense::zeros(8, 3);
        for (lo, hi) in [(0usize, 3usize), (3, 8)] {
            // Build the column block of `a` restricted to [lo, hi).
            let mut coo = Coo::new(8, 8);
            for (r, c, v) in a.iter() {
                if c >= lo && c < hi {
                    coo.push(r, c, v);
                }
            }
            let block = coo.to_csr();
            spmm_acc(&block, &h, &mut sum);
        }
        assert!(sum.approx_eq(&whole, 1e-12));
    }
}
