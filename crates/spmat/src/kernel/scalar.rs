//! Portable scalar kernels — the always-available fallback and the
//! bit-exactness oracle the blocked kernels are property-tested against.
//!
//! The accumulation order here **is** the determinism contract: each
//! output element sums its terms in ascending source order with
//! separately rounded multiply and add. SpMM keeps the historical
//! [`FTILE`]-column tiling (tile width never changes the per-element
//! order, only the cache behavior).

/// Column-tile width of the generic SpMM path: 64 f64 = one 512-byte
/// output tile, small enough to stay in registers/L1 across the nnz
/// stream. (Historical constant, moved here from `spmm.rs`.)
pub const FTILE: usize = 64;

/// One SpMM output row: `out_row += Σ vals[k] · h[cols[k]·f ..][0..f]`.
pub fn spmm_row(cols: &[u32], vals: &[f64], h: &[f64], f: usize, out_row: &mut [f64]) {
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

/// One GEMM output row from zero: `out_row = Σ_k a_row[k] · b_row(k)`,
/// ascending `k`, exact zeros skipped (the historical ikj order).
pub fn gemm_row(a_row: &[f64], b: &[f64], n: usize, out_row: &mut [f64]) {
    out_row.fill(0.0);
    for (k, &a) in a_row.iter().enumerate() {
        if a == 0.0 {
            continue;
        }
        axpy(out_row, a, &b[k * n..(k + 1) * n]);
    }
}

/// `AᵀB` for the output rows `k0 .. k0 + out.len()/n`:
/// `out[k − k0][j] = Σ_i a[i·lda + k] · b[i·n + j]`, overwriting `out`.
/// Streams the rows of `a` and `b` once; every output element
/// accumulates in ascending `i` with exact zeros of `a` skipped (the
/// historical `transpose_matmul` order, and the contract the blocked
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
    fn dot_is_sequential_sum() {
        let a = [1.0, 2.0, 3.0];
        let b = [4.0, 5.0, 6.0];
        assert_eq!(dot(&a, &b), ((4.0 + 10.0) + 18.0));
    }
}
