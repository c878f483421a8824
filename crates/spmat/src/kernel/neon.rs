//! aarch64 NEON kernels: 2 × f64 lanes, register-blocked output tiles.
//!
//! Structurally a half-width mirror of [`super::x86`]: strict mode
//! vectorizes only across independent output elements with separately
//! rounded `vmulq_f64` + `vaddq_f64` (bit-identical to the scalar
//! oracle per lane); fast mode uses the fused `vfmaq_f64`. Row kernels
//! walk the feature dimension in 16-column register blocks (8
//! accumulators), so the specialized widths 32/64/128 decompose into
//! 2/4/8 full blocks; both finish a width with an 8-, a 4- and a
//! 2-column block (ladder 16 → 8 → 4 → 2), and [`gemm_t`]
//! (`AᵀB`) holds a 2-row × 16-column output tile in registers across a
//! block of input rows.
//!
//! # Safety
//!
//! Functions are `#[target_feature(enable = "neon")]` and must only be
//! called after [`super::Backend::Neon.supported()`] returned true
//! (NEON is baseline on aarch64, but the dispatcher checks anyway).

#![allow(unsafe_op_in_unsafe_fn)]

use core::arch::aarch64::*;

/// One SpMM output row: `out_row[0..f] += Σ vals[k] · h[cols[k]·f ..]`.
///
/// # Safety
/// Requires NEON; call only after [`super::Backend::Neon`]'s
/// `supported()` returned true (the dispatcher guarantees this).
#[target_feature(enable = "neon")]
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
    while j + 16 <= f {
        spmm_block::<8>(cols, vals, h, f, out_row, j, fast);
        j += 16;
    }
    if j + 8 <= f {
        spmm_block::<4>(cols, vals, h, f, out_row, j, fast);
        j += 8;
    }
    if j + 4 <= f {
        spmm_block::<2>(cols, vals, h, f, out_row, j, fast);
        j += 4;
    }
    if j + 2 <= f {
        spmm_block::<1>(cols, vals, h, f, out_row, j, fast);
        j += 2;
    }
    if j < f {
        for (&c, &v) in cols.iter().zip(vals) {
            out_row[j] += v * h[c as usize * f + j];
        }
    }
}

/// A `T`-accumulator (2·T columns) SpMM register block at offset `j`.
#[target_feature(enable = "neon")]
unsafe fn spmm_block<const T: usize>(
    cols: &[u32],
    vals: &[f64],
    h: &[f64],
    f: usize,
    out_row: &mut [f64],
    j: usize,
    fast: bool,
) {
    debug_assert!(j + 2 * T <= f);
    let op = out_row.as_mut_ptr().add(j);
    let mut acc = [vdupq_n_f64(0.0); T];
    for (t, a) in acc.iter_mut().enumerate() {
        *a = vld1q_f64(op.add(2 * t));
    }
    let hp = h.as_ptr();
    if fast {
        for (&c, &v) in cols.iter().zip(vals) {
            let base = hp.add(c as usize * f + j);
            let vv = vdupq_n_f64(v);
            for (t, a) in acc.iter_mut().enumerate() {
                *a = vfmaq_f64(*a, vv, vld1q_f64(base.add(2 * t)));
            }
        }
    } else {
        for (&c, &v) in cols.iter().zip(vals) {
            let base = hp.add(c as usize * f + j);
            let vv = vdupq_n_f64(v);
            for (t, a) in acc.iter_mut().enumerate() {
                *a = vaddq_f64(*a, vmulq_f64(vv, vld1q_f64(base.add(2 * t))));
            }
        }
    }
    for (t, a) in acc.iter().enumerate() {
        vst1q_f64(op.add(2 * t), *a);
    }
}

/// One GEMM output row from zero, ascending `k`, exact zeros skipped.
///
/// # Safety
/// Requires NEON; call only after [`super::Backend::Neon`]'s
/// `supported()` returned true (the dispatcher guarantees this).
#[target_feature(enable = "neon")]
pub unsafe fn gemm_row(a_row: &[f64], b: &[f64], n: usize, out_row: &mut [f64], fast: bool) {
    debug_assert_eq!(out_row.len(), n);
    let mut j = 0;
    while j + 16 <= n {
        gemm_block::<8>(a_row, b, n, out_row, j, fast);
        j += 16;
    }
    if j + 8 <= n {
        gemm_block::<4>(a_row, b, n, out_row, j, fast);
        j += 8;
    }
    if j + 4 <= n {
        gemm_block::<2>(a_row, b, n, out_row, j, fast);
        j += 4;
    }
    if j + 2 <= n {
        gemm_block::<1>(a_row, b, n, out_row, j, fast);
        j += 2;
    }
    if j < n {
        out_row[j] = 0.0;
        for (k, &a) in a_row.iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            out_row[j] += a * b[k * n + j];
        }
    }
}

/// A `T`-accumulator GEMM register block starting from zero.
#[target_feature(enable = "neon")]
unsafe fn gemm_block<const T: usize>(
    a_row: &[f64],
    b: &[f64],
    n: usize,
    out_row: &mut [f64],
    j: usize,
    fast: bool,
) {
    debug_assert!(j + 2 * T <= n);
    let mut acc = [vdupq_n_f64(0.0); T];
    let bp = b.as_ptr();
    if fast {
        for (k, &a) in a_row.iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            let base = bp.add(k * n + j);
            let av = vdupq_n_f64(a);
            for (t, ac) in acc.iter_mut().enumerate() {
                *ac = vfmaq_f64(*ac, av, vld1q_f64(base.add(2 * t)));
            }
        }
    } else {
        for (k, &a) in a_row.iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            let base = bp.add(k * n + j);
            let av = vdupq_n_f64(a);
            for (t, ac) in acc.iter_mut().enumerate() {
                *ac = vaddq_f64(*ac, vmulq_f64(av, vld1q_f64(base.add(2 * t))));
            }
        }
    }
    let op = out_row.as_mut_ptr().add(j);
    for (t, ac) in acc.iter().enumerate() {
        vst1q_f64(op.add(2 * t), *ac);
    }
}

/// Input rows per block of [`gemm_t`]: the output tile stays in
/// registers across this many rows, and the rows of `a` and `b` the
/// block reads stay cache-resident across every tile of the block
/// (the value measured on AVX2; not tuned on this architecture).
const GEMM_T_ROWS: usize = 32;

/// `AᵀB` for the output rows `k0 .. k0 + out.len()/n`:
/// `out[k − k0][j] = Σ_i a[i·lda + k] · b[i·n + j]`, overwriting `out`.
/// Every output element accumulates its terms in ascending `i` with
/// exact zeros of `a` skipped — the scalar oracle's order — so strict
/// mode is bitwise equal to it.
///
/// # Safety
/// Requires NEON; call only after [`super::Backend::Neon`]'s
/// `supported()` returned true (the dispatcher guarantees this).
/// The tiles index through raw pointers inside these bounds, which
/// [`super::Kernels::gemm_t`] asserts before dispatching: `a`, `b` and
/// `out` are whole rows of `lda`, `n` and `n` elements, `a` and `b` have
/// equally many rows, and `k0 + out.len()/n <= lda`.
#[target_feature(enable = "neon")]
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
/// rows: walks the width in 16-, 8-, 4- and 2-column tiles, then a
/// scalar last column.
///
/// # Safety
/// Requires NEON. `ap` must be valid for reads of `KP` elements at each
/// of `ib` strides of `lda`, `bp` for `ib` rows of `n`, and `op` for
/// reads and writes of `KP` rows of `n`.
#[target_feature(enable = "neon")]
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
        gemm_t_tile::<KP, 8>(ap, lda, bp.add(j), n, ib, op.add(j), fast);
        j += 16;
    }
    if j + 8 <= n {
        gemm_t_tile::<KP, 4>(ap, lda, bp.add(j), n, ib, op.add(j), fast);
        j += 8;
    }
    if j + 4 <= n {
        gemm_t_tile::<KP, 2>(ap, lda, bp.add(j), n, ib, op.add(j), fast);
        j += 4;
    }
    if j + 2 <= n {
        gemm_t_tile::<KP, 1>(ap, lda, bp.add(j), n, ib, op.add(j), fast);
        j += 2;
    }
    if j < n {
        for kk in 0..KP {
            let o = op.add(kk * n + j);
            for i in 0..ib {
                let av = *ap.add(i * lda + kk);
                if av != 0.0 {
                    *o += av * *bp.add(i * n + j);
                }
            }
        }
    }
}

/// A `KP`-row × `2·T`-column tile of [`gemm_t`]'s output: loaded once,
/// updated by each of `ib` input rows in ascending order (a row whose
/// `a` element is exactly zero is skipped), stored once.
///
/// # Safety
/// As [`gemm_t_rows`], with `bp`/`op` already offset to the tile's first
/// column and `2·T` columns in bounds from there.
#[target_feature(enable = "neon")]
unsafe fn gemm_t_tile<const KP: usize, const T: usize>(
    ap: *const f64,
    lda: usize,
    bp: *const f64,
    n: usize,
    ib: usize,
    op: *mut f64,
    fast: bool,
) {
    let mut acc = [[vdupq_n_f64(0.0); T]; KP];
    for (kk, row) in acc.iter_mut().enumerate() {
        for (t, ac) in row.iter_mut().enumerate() {
            *ac = vld1q_f64(op.add(kk * n + 2 * t));
        }
    }
    for i in 0..ib {
        let b_row = bp.add(i * n);
        for (kk, row) in acc.iter_mut().enumerate() {
            let av = *ap.add(i * lda + kk);
            if av == 0.0 {
                continue;
            }
            let avv = vdupq_n_f64(av);
            for (t, ac) in row.iter_mut().enumerate() {
                let bv = vld1q_f64(b_row.add(2 * t));
                *ac = if fast {
                    vfmaq_f64(*ac, avv, bv)
                } else {
                    vaddq_f64(*ac, vmulq_f64(avv, bv))
                };
            }
        }
    }
    for (kk, row) in acc.iter().enumerate() {
        for (t, ac) in row.iter().enumerate() {
            vst1q_f64(op.add(kk * n + 2 * t), *ac);
        }
    }
}

/// Fast-mode dot product: 4 vector accumulators with FMA, horizontally
/// reduced at the end. Reassociates — never used in strict mode.
///
/// # Safety
/// Requires NEON; call only after [`super::Backend::Neon`]'s
/// `supported()` returned true (the dispatcher guarantees this).
#[target_feature(enable = "neon")]
pub unsafe fn dot_fast(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len();
    let ap = a.as_ptr();
    let bp = b.as_ptr();
    let mut acc = [vdupq_n_f64(0.0); 4];
    let mut i = 0;
    while i + 8 <= n {
        for (t, ac) in acc.iter_mut().enumerate() {
            *ac = vfmaq_f64(
                *ac,
                vld1q_f64(ap.add(i + 2 * t)),
                vld1q_f64(bp.add(i + 2 * t)),
            );
        }
        i += 8;
    }
    while i + 2 <= n {
        acc[0] = vfmaq_f64(acc[0], vld1q_f64(ap.add(i)), vld1q_f64(bp.add(i)));
        i += 2;
    }
    let s = vaddq_f64(vaddq_f64(acc[0], acc[1]), vaddq_f64(acc[2], acc[3]));
    let mut total = vaddvq_f64(s);
    while i < n {
        total += a[i] * b[i];
        i += 1;
    }
    total
}
