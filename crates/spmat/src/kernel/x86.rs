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
//! All loads/stores are unaligned-tolerant (`loadu`/`storeu`);
//! alignment of [`crate::alloc::AVec`]-backed matrices just makes them
//! faster.
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
    while j + 4 <= f {
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
    while j + 4 <= n {
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

/// `out += a · x` element-wise (lane-independent ⇒ strict-safe).
///
/// # Safety
/// Requires AVX2+FMA; call only after [`super::Backend::Avx2`]'s
/// `supported()` returned true (the dispatcher guarantees this).
#[target_feature(enable = "avx2,fma")]
pub unsafe fn axpy(out: &mut [f64], a: f64, x: &[f64], fast: bool) {
    debug_assert_eq!(out.len(), x.len());
    let n = out.len();
    let av = _mm256_set1_pd(a);
    let op = out.as_mut_ptr();
    let xp = x.as_ptr();
    let mut i = 0;
    if fast {
        while i + 4 <= n {
            let r = _mm256_fmadd_pd(av, _mm256_loadu_pd(xp.add(i)), _mm256_loadu_pd(op.add(i)));
            _mm256_storeu_pd(op.add(i), r);
            i += 4;
        }
    } else {
        while i + 4 <= n {
            let r = _mm256_add_pd(
                _mm256_loadu_pd(op.add(i)),
                _mm256_mul_pd(av, _mm256_loadu_pd(xp.add(i))),
            );
            _mm256_storeu_pd(op.add(i), r);
            i += 4;
        }
    }
    while i < n {
        out[i] += a * x[i];
        i += 1;
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
