//! x86_64 AVX2(+FMA) kernels: 4 × f64 lanes, register-blocked output
//! tiles.
//!
//! Strict mode vectorizes **across output elements only**: a 256-bit
//! accumulator holds 4 independent per-element chains, each updated
//! with a separately rounded multiply then add (`_mm256_mul_pd` +
//! `_mm256_add_pd`) in the same source order as the scalar loop — so
//! every lane is bit-identical to the scalar oracle. Fast mode swaps
//! the pair for `_mm256_fmadd_pd` (single rounding) and is covered by
//! the documented tolerance instead.
//!
//! The SpMM/GEMM row kernels walk the feature dimension in 32-column
//! register blocks (8 accumulators + a broadcast + a load = 10 of the
//! 16 ymm registers): the common widths 32/64/128 decompose into 1/2/4
//! full blocks with no remainder, which is exactly the
//! const-generic-specialized shape ([`super::SPECIALIZED_WIDTHS`]).
//! Both finish a width with a 16-, an 8- and a 4-column block (ladder
//! 32 → 16 → 8 → 4), so the model's 16- and 24-wide layers run 4 and
//! 2 independent accumulator chains in one and two passes over the
//! input row instead of one chain in 4 and 6.
//! [`gemm_t`] (`AᵀB`) holds a 2-row × 16-column tile of the output in
//! registers across a block of input rows. All loads/stores are
//! unaligned-tolerant (`loadu`/`storeu`); alignment of
//! [`crate::alloc::AVec`]-backed matrices just makes them faster.
//!
//! # Safety
//!
//! Every function here is `#[target_feature(enable = "avx2,fma")]` and
//! must only be called after [`Backend::Avx2.supported()`](super::Backend::supported)
//! returned true — the dispatcher guarantees this.

#![allow(unsafe_op_in_unsafe_fn)]

use core::arch::x86_64::*;

/// One SpMM output row: `out_row[0..f] += Σ vals[k] · h[cols[k]·f ..]`.
///
/// # Safety
/// Requires AVX2+FMA; call only after [`super::Backend::Avx2`]'s
/// `supported()` returned true (the dispatcher guarantees this).
#[target_feature(enable = "avx2,fma")]
pub unsafe fn spmm_row(
    cols: &[u32],
    vals: &[f64],
    h: &[f64],
    f: usize,
    out_row: &mut [f64],
    fast: bool,
) {
    debug_assert_eq!(out_row.len(), f);
    let mut j = 0;
    while j + 32 <= f {
        spmm_block::<8>(cols, vals, h, f, out_row, j, fast);
        j += 32;
    }
    if j + 16 <= f {
        spmm_block::<4>(cols, vals, h, f, out_row, j, fast);
        j += 16;
    }
    if j + 8 <= f {
        spmm_block::<2>(cols, vals, h, f, out_row, j, fast);
        j += 8;
    }
    if j + 4 <= f {
        spmm_block::<1>(cols, vals, h, f, out_row, j, fast);
        j += 4;
    }
    if j < f {
        // Scalar tail (< 4 lanes), same per-element chains as the oracle.
        for (&c, &v) in cols.iter().zip(vals) {
            let base = c as usize * f;
            for jj in j..f {
                out_row[jj] += v * h[base + jj];
            }
        }
    }
}

/// A `T`-accumulator (4·T columns) SpMM register block at column
/// offset `j`: load the output tile once, stream every nonzero through
/// it, store once.
#[target_feature(enable = "avx2,fma")]
unsafe fn spmm_block<const T: usize>(
    cols: &[u32],
    vals: &[f64],
    h: &[f64],
    f: usize,
    out_row: &mut [f64],
    j: usize,
    fast: bool,
) {
    debug_assert!(j + 4 * T <= f);
    let op = out_row.as_mut_ptr().add(j);
    let mut acc = [_mm256_setzero_pd(); T];
    for (t, a) in acc.iter_mut().enumerate() {
        *a = _mm256_loadu_pd(op.add(4 * t));
    }
    let hp = h.as_ptr();
    if fast {
        for (&c, &v) in cols.iter().zip(vals) {
            let base = hp.add(c as usize * f + j);
            let vv = _mm256_set1_pd(v);
            for (t, a) in acc.iter_mut().enumerate() {
                *a = _mm256_fmadd_pd(vv, _mm256_loadu_pd(base.add(4 * t)), *a);
            }
        }
    } else {
        for (&c, &v) in cols.iter().zip(vals) {
            let base = hp.add(c as usize * f + j);
            let vv = _mm256_set1_pd(v);
            for (t, a) in acc.iter_mut().enumerate() {
                *a = _mm256_add_pd(*a, _mm256_mul_pd(vv, _mm256_loadu_pd(base.add(4 * t))));
            }
        }
    }
    for (t, a) in acc.iter().enumerate() {
        _mm256_storeu_pd(op.add(4 * t), *a);
    }
}

/// One GEMM output row from zero: `out_row = Σ_k a_row[k] · b_row(k)`,
/// ascending `k`, exact zeros skipped.
///
/// # Safety
/// Requires AVX2+FMA; call only after [`super::Backend::Avx2`]'s
/// `supported()` returned true (the dispatcher guarantees this).
#[target_feature(enable = "avx2,fma")]
pub unsafe fn gemm_row(a_row: &[f64], b: &[f64], n: usize, out_row: &mut [f64], fast: bool) {
    debug_assert_eq!(out_row.len(), n);
    let mut j = 0;
    while j + 32 <= n {
        gemm_block::<8>(a_row, b, n, out_row, j, fast);
        j += 32;
    }
    if j + 16 <= n {
        gemm_block::<4>(a_row, b, n, out_row, j, fast);
        j += 16;
    }
    if j + 8 <= n {
        gemm_block::<2>(a_row, b, n, out_row, j, fast);
        j += 8;
    }
    if j + 4 <= n {
        gemm_block::<1>(a_row, b, n, out_row, j, fast);
        j += 4;
    }
    if j < n {
        for o in &mut out_row[j..] {
            *o = 0.0;
        }
        for (k, &a) in a_row.iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            let base = k * n;
            for jj in j..n {
                out_row[jj] += a * b[base + jj];
            }
        }
    }
}

/// A `T`-accumulator GEMM register block: accumulators start at zero
/// and the output tile is written exactly once.
#[target_feature(enable = "avx2,fma")]
unsafe fn gemm_block<const T: usize>(
    a_row: &[f64],
    b: &[f64],
    n: usize,
    out_row: &mut [f64],
    j: usize,
    fast: bool,
) {
    debug_assert!(j + 4 * T <= n);
    let mut acc = [_mm256_setzero_pd(); T];
    let bp = b.as_ptr();
    if fast {
        for (k, &a) in a_row.iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            let base = bp.add(k * n + j);
            let av = _mm256_set1_pd(a);
            for (t, ac) in acc.iter_mut().enumerate() {
                *ac = _mm256_fmadd_pd(av, _mm256_loadu_pd(base.add(4 * t)), *ac);
            }
        }
    } else {
        for (k, &a) in a_row.iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            let base = bp.add(k * n + j);
            let av = _mm256_set1_pd(a);
            for (t, ac) in acc.iter_mut().enumerate() {
                *ac = _mm256_add_pd(*ac, _mm256_mul_pd(av, _mm256_loadu_pd(base.add(4 * t))));
            }
        }
    }
    let op = out_row.as_mut_ptr().add(j);
    for (t, ac) in acc.iter().enumerate() {
        _mm256_storeu_pd(op.add(4 * t), *ac);
    }
}

/// Input rows per block of [`gemm_t`]: the output tile stays in
/// registers across this many rows, and the rows of `a` and `b` the
/// block reads stay cache-resident across every tile of the block
/// (16 to 64 measure alike at 300 columns; 128 is a third slower).
const GEMM_T_ROWS: usize = 32;

/// `AᵀB` for the output rows `k0 .. k0 + out.len()/n`:
/// `out[k − k0][j] = Σ_i a[i·lda + k] · b[i·n + j]`, overwriting `out`.
/// Every output element accumulates its terms in ascending `i` with
/// exact zeros of `a` skipped — the scalar oracle's order — so strict
/// mode is bitwise equal to it.
///
/// # Safety
/// Requires AVX2+FMA; call only after [`super::Backend::Avx2`]'s
/// `supported()` returned true (the dispatcher guarantees this).
/// The tiles index through raw pointers inside these bounds, which
/// [`super::Kernels::gemm_t`] asserts before dispatching: `a`, `b` and
/// `out` are whole rows of `lda`, `n` and `n` elements, `a` and `b` have
/// equally many rows, and `k0 + out.len()/n <= lda`.
#[target_feature(enable = "avx2,fma")]
pub unsafe fn gemm_t(
    a: &[f64],
    lda: usize,
    k0: usize,
    b: &[f64],
    n: usize,
    out: &mut [f64],
    fast: bool,
) {
    out.fill(0.0);
    let (rows, kn) = (a.len() / lda, out.len() / n);
    debug_assert!(a.len() == rows * lda && b.len() == rows * n && out.len() == kn * n);
    debug_assert!(k0 + kn <= lda);
    let mut i0 = 0;
    while i0 < rows {
        let ib = GEMM_T_ROWS.min(rows - i0);
        let ap = a.as_ptr().add(i0 * lda + k0);
        let bp = b.as_ptr().add(i0 * n);
        let mut k = 0;
        while k + 2 <= kn {
            gemm_t_rows::<2>(ap.add(k), lda, bp, n, ib, out.as_mut_ptr().add(k * n), fast);
            k += 2;
        }
        if k < kn {
            gemm_t_rows::<1>(ap.add(k), lda, bp, n, ib, out.as_mut_ptr().add(k * n), fast);
        }
        i0 += ib;
    }
}

/// `KP` adjacent output rows of [`gemm_t`] over one block of `ib` input
/// rows: walks the width in 16-, 8- and 4-column tiles, then a scalar
/// tail.
///
/// # Safety
/// Requires AVX2+FMA. `ap` must be valid for reads of `KP` elements at
/// each of `ib` strides of `lda`, `bp` for `ib` rows of `n`, and `op`
/// for reads and writes of `KP` rows of `n`.
#[target_feature(enable = "avx2,fma")]
unsafe fn gemm_t_rows<const KP: usize>(
    ap: *const f64,
    lda: usize,
    bp: *const f64,
    n: usize,
    ib: usize,
    op: *mut f64,
    fast: bool,
) {
    let mut j = 0;
    while j + 16 <= n {
        gemm_t_tile::<KP, 4>(ap, lda, bp.add(j), n, ib, op.add(j), fast);
        j += 16;
    }
    if j + 8 <= n {
        gemm_t_tile::<KP, 2>(ap, lda, bp.add(j), n, ib, op.add(j), fast);
        j += 8;
    }
    if j + 4 <= n {
        gemm_t_tile::<KP, 1>(ap, lda, bp.add(j), n, ib, op.add(j), fast);
        j += 4;
    }
    for jj in j..n {
        for kk in 0..KP {
            let o = op.add(kk * n + jj);
            for i in 0..ib {
                let av = *ap.add(i * lda + kk);
                if av != 0.0 {
                    *o += av * *bp.add(i * n + jj);
                }
            }
        }
    }
}

/// A `KP`-row × `4·T`-column tile of [`gemm_t`]'s output: loaded once,
/// updated by each of `ib` input rows in ascending order (a row whose
/// `a` element is exactly zero is skipped), stored once.
///
/// # Safety
/// As [`gemm_t_rows`], with `bp`/`op` already offset to the tile's first
/// column and `4·T` columns in bounds from there.
#[target_feature(enable = "avx2,fma")]
unsafe fn gemm_t_tile<const KP: usize, const T: usize>(
    ap: *const f64,
    lda: usize,
    bp: *const f64,
    n: usize,
    ib: usize,
    op: *mut f64,
    fast: bool,
) {
    let mut acc = [[_mm256_setzero_pd(); T]; KP];
    for (kk, row) in acc.iter_mut().enumerate() {
        for (t, ac) in row.iter_mut().enumerate() {
            *ac = _mm256_loadu_pd(op.add(kk * n + 4 * t));
        }
    }
    for i in 0..ib {
        let b_row = bp.add(i * n);
        for (kk, row) in acc.iter_mut().enumerate() {
            let av = *ap.add(i * lda + kk);
            if av == 0.0 {
                continue;
            }
            let avv = _mm256_set1_pd(av);
            for (t, ac) in row.iter_mut().enumerate() {
                let bv = _mm256_loadu_pd(b_row.add(4 * t));
                *ac = if fast {
                    _mm256_fmadd_pd(avv, bv, *ac)
                } else {
                    _mm256_add_pd(*ac, _mm256_mul_pd(avv, bv))
                };
            }
        }
    }
    for (kk, row) in acc.iter().enumerate() {
        for (t, ac) in row.iter().enumerate() {
            _mm256_storeu_pd(op.add(kk * n + 4 * t), *ac);
        }
    }
}

/// Fast-mode dot product: 4 vector accumulators (16 f64 per step) with
/// FMA, horizontally reduced at the end. Reassociates — never used in
/// strict mode.
///
/// # Safety
/// Requires AVX2+FMA; call only after [`super::Backend::Avx2`]'s
/// `supported()` returned true (the dispatcher guarantees this).
#[target_feature(enable = "avx2,fma")]
pub unsafe fn dot_fast(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len();
    let ap = a.as_ptr();
    let bp = b.as_ptr();
    let mut acc = [_mm256_setzero_pd(); 4];
    let mut i = 0;
    while i + 16 <= n {
        for (t, ac) in acc.iter_mut().enumerate() {
            *ac = _mm256_fmadd_pd(
                _mm256_loadu_pd(ap.add(i + 4 * t)),
                _mm256_loadu_pd(bp.add(i + 4 * t)),
                *ac,
            );
        }
        i += 16;
    }
    while i + 4 <= n {
        acc[0] = _mm256_fmadd_pd(
            _mm256_loadu_pd(ap.add(i)),
            _mm256_loadu_pd(bp.add(i)),
            acc[0],
        );
        i += 4;
    }
    let s = _mm256_add_pd(_mm256_add_pd(acc[0], acc[1]), _mm256_add_pd(acc[2], acc[3]));
    let lo = _mm256_castpd256_pd128(s);
    let hi = _mm256_extractf128_pd(s, 1);
    let pair = _mm_add_pd(lo, hi);
    let mut total = _mm_cvtsd_f64(_mm_add_sd(pair, _mm_unpackhi_pd(pair, pair)));
    while i < n {
        total += a[i] * b[i];
        i += 1;
    }
    total
}
