//! Portable scalar kernels — the always-available fallback and the
//! bit-exactness oracle every SIMD backend is property-tested against.
//!
//! The accumulation order here **is** the determinism contract: each
//! output element sums its terms in ascending source order with
//! separately rounded multiply and add. The generic SpMM path keeps the
//! historical [`FTILE`]-column tiling (tile width never changes the
//! per-element order, only the cache behavior); the common feature
//! widths 32/64/128 go through const-generic specializations whose
//! fixed trip counts let the compiler unroll fully and keep the output
//! tile register-resident.

/// Column-tile width of the generic SpMM path: 64 f64 = one 512-byte
/// output tile, small enough to stay in registers/L1 across the nnz
/// stream. (Historical constant, moved here from `spmm.rs`.)
pub const FTILE: usize = 64;

/// One SpMM output row: `out_row += Σ vals[k] · h[cols[k]·f ..][0..f]`.
#[inline]
pub fn spmm_row(cols: &[u32], vals: &[f64], h: &[f64], f: usize, out_row: &mut [f64]) {
    match f {
        32 => spmm_row_spec::<32>(cols, vals, h, out_row),
        64 => spmm_row_spec::<64>(cols, vals, h, out_row),
        128 => spmm_row_spec::<128>(cols, vals, h, out_row),
        _ => spmm_row_generic(cols, vals, h, f, out_row),
    }
}

/// Generic-width row kernel: the historical FTILE-tiled loop.
fn spmm_row_generic(cols: &[u32], vals: &[f64], h: &[f64], f: usize, out_row: &mut [f64]) {
    // Column tiling: keep one FTILE-wide output window hot while the
    // row's nonzeros stream rows of H through it.
    let mut ft = 0;
    while ft < f {
        let fe = (ft + FTILE).min(f);
        let out_t = &mut out_row[ft..fe];
        for (&c, &v) in cols.iter().zip(vals) {
            let base = c as usize * f;
            let h_t = &h[base + ft..base + fe];
            for (o, &x) in out_t.iter_mut().zip(h_t) {
                *o += v * x;
            }
        }
        ft = fe;
    }
}

/// Specialized row kernel for a compile-time feature width: fixed-size
/// array windows drop every bounds check and let the compiler unroll
/// the whole width. Per-element accumulation order is identical to the
/// generic path (ascending nonzeros, mul then add).
fn spmm_row_spec<const F: usize>(cols: &[u32], vals: &[f64], h: &[f64], out_row: &mut [f64]) {
    let out: &mut [f64; F] = out_row.try_into().expect("specialized width mismatch");
    for (&c, &v) in cols.iter().zip(vals) {
        let base = c as usize * F;
        let h_row: &[f64; F] = h[base..base + F].try_into().expect("h row window");
        for j in 0..F {
            out[j] += v * h_row[j];
        }
    }
}

/// One GEMM output row from zero: `out_row = Σ_k a_row[k] · b_row(k)`,
/// ascending `k`, exact zeros skipped (the historical ikj order).
#[inline]
pub fn gemm_row(a_row: &[f64], b: &[f64], n: usize, out_row: &mut [f64]) {
    match n {
        32 => gemm_row_spec::<32>(a_row, b, out_row),
        64 => gemm_row_spec::<64>(a_row, b, out_row),
        128 => gemm_row_spec::<128>(a_row, b, out_row),
        _ => {
            out_row.fill(0.0);
            for (k, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                axpy(out_row, a, &b[k * n..(k + 1) * n]);
            }
        }
    }
}

/// Width-specialized GEMM row (see [`spmm_row_spec`] for the idea).
fn gemm_row_spec<const N: usize>(a_row: &[f64], b: &[f64], out_row: &mut [f64]) {
    let out: &mut [f64; N] = out_row.try_into().expect("specialized width mismatch");
    *out = [0.0; N];
    for (k, &a) in a_row.iter().enumerate() {
        if a == 0.0 {
            continue;
        }
        let b_row: &[f64; N] = b[k * N..(k + 1) * N].try_into().expect("b row window");
        for j in 0..N {
            out[j] += a * b_row[j];
        }
    }
}

/// `AᵀB` for the output rows `k0 .. k0 + out.len()/n`:
/// `out[k − k0][j] = Σ_i a[i·lda + k] · b[i·n + j]`, overwriting `out`.
/// Streams the rows of `a` and `b` once; every output element
/// accumulates in ascending `i` with exact zeros of `a` skipped (the
/// historical `transpose_matmul` order, and the contract the SIMD
/// kernels are tested against).
pub fn gemm_t(a: &[f64], lda: usize, k0: usize, b: &[f64], n: usize, out: &mut [f64]) {
    out.fill(0.0);
    let kn = out.len() / n;
    for (a_row, b_row) in a.chunks_exact(lda).zip(b.chunks_exact(n)) {
        for (&av, out_row) in a_row[k0..k0 + kn].iter().zip(out.chunks_exact_mut(n)) {
            if av == 0.0 {
                continue;
            }
            axpy(out_row, av, b_row);
        }
    }
}

/// `out += a · x` element-wise.
#[inline]
pub fn axpy(out: &mut [f64], a: f64, x: &[f64]) {
    for (o, &v) in out.iter_mut().zip(x) {
        *o += a * v;
    }
}

/// Sequential dot product — the strict-mode reduction order.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        acc += x * y;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specialized_widths_match_generic_bitwise() {
        // Structure with repeats and zeros; values exercise rounding.
        for f in [32usize, 64, 128] {
            let cols: Vec<u32> = (0..17).map(|k| (k * 5 % 7) as u32).collect();
            let vals: Vec<f64> = (0..17).map(|k| (k as f64 - 8.0) * 0.37).collect();
            let h: Vec<f64> = (0..7 * f).map(|i| (i as f64 * 0.013).sin()).collect();
            let mut spec = vec![0.1; f];
            let mut gen = vec![0.1; f];
            spmm_row(&cols, &vals, &h, f, &mut spec);
            spmm_row_generic(&cols, &vals, &h, f, &mut gen);
            assert_eq!(spec, gen, "f={f}");
        }
    }

    #[test]
    fn gemm_spec_matches_generic_bitwise() {
        for n in [32usize, 64, 128] {
            let k = 9;
            let a: Vec<f64> = (0..k)
                .map(|i| if i == 4 { 0.0 } else { i as f64 * 0.21 })
                .collect();
            let b: Vec<f64> = (0..k * n).map(|i| (i as f64 * 0.007).cos()).collect();
            let mut spec = vec![9.0; n];
            let mut gen = vec![9.0; n];
            gemm_row(&a, &b, n, &mut spec);
            // Generic path, forced: replicate the non-special branch.
            gen.fill(0.0);
            for (kk, &av) in a.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                axpy(&mut gen, av, &b[kk * n..(kk + 1) * n]);
            }
            assert_eq!(spec, gen, "n={n}");
        }
    }

    #[test]
    fn dot_is_sequential_sum() {
        let a = [1.0, 2.0, 3.0];
        let b = [4.0, 5.0, 6.0];
        assert_eq!(dot(&a, &b), ((4.0 + 10.0) + 18.0));
    }
}
