//! Register-blocked SpMM/GEMM kernels in safe Rust: one source that the
//! compiler vectorizes for whatever target features the caller enables.
//!
//! Kernels walk the feature dimension in `[f64; W]` accumulator tiles, a
//! ladder of W = 32 → 16 → 8 → 4 columns and then a scalar tail (300 is
//! 9 · 32 + 8 + 4). A tile is loaded once, updated by every term in source
//! order and stored once, in vector registers (a 32-wide tile is 8 `ymm`).
//!
//! `FAST = false` updates a lane with `acc + a * b`. Rust never contracts
//! that into a fused multiply-add, and the lanes of a tile are
//! independent output elements, so every output element is the scalar
//! oracle's chain bit for bit whatever the vector width. `FAST = true`
//! uses `a.mul_add(b, acc)`, one rounding per term: a `vfmadd` where the
//! target has FMA, a correctly rounded library call where it has not.
//!
//! Every function is `#[inline(always)]`: the dispatcher wraps them in
//! `#[target_feature]` functions, and only inlined code gets their features.

/// One multiply-add in the mode's rounding (see the module docs).
#[inline(always)]
fn madd<const FAST: bool>(acc: f64, a: f64, b: f64) -> f64 {
    if FAST {
        a.mul_add(b, acc)
    } else {
        acc + a * b
    }
}

/// `tile[t] ⊕= a · x[t]` for every lane of a `W`-column tile.
#[inline(always)]
fn madd_tile<const FAST: bool, const W: usize>(tile: &mut [f64; W], a: f64, x: &[f64; W]) {
    for (o, &v) in tile.iter_mut().zip(x) {
        *o = madd::<FAST>(*o, a, v);
    }
}

/// The `W` columns of `row` starting at `j`, as a fixed-size array.
#[inline(always)]
fn window<const W: usize>(row: &[f64], j: usize) -> &[f64; W] {
    row[j..j + W].try_into().expect("slice of W columns")
}

/// Mutable [`window`].
#[inline(always)]
fn window_mut<const W: usize>(row: &mut [f64], j: usize) -> &mut [f64; W] {
    (&mut row[j..j + W]).try_into().expect("slice of W columns")
}

/// One SpMM output row: `out_row[0..f] += Σ vals[k] · h[cols[k]·f ..]`,
/// nonzeros in CSR order per output element.
#[inline(always)]
pub fn spmm_row<const FAST: bool>(
    cols: &[u32],
    vals: &[f64],
    h: &[f64],
    f: usize,
    out_row: &mut [f64],
) {
    // One compare per nonzero: `start <= last` proves the row is in `h`.
    let Some(last) = h.len().checked_sub(f) else {
        assert!(cols.is_empty(), "h is shorter than one row");
        return;
    };
    let terms = cols.iter().zip(vals).map(|(&c, &v)| {
        let start = c as usize * f;
        assert!(start <= last, "column past the last row of h");
        (v, &h[start..start + f])
    });
    combine::<FAST, false>(terms, out_row);
}

/// One GEMM output row from zero:
/// `out_row[0..n] = Σ_k a_row[k] · b[k·n .. k·n+n]`, ascending `k`, exact
/// zeros of `a_row` skipped.
#[inline(always)]
pub fn gemm_row<const FAST: bool>(a_row: &[f64], b: &[f64], n: usize, out_row: &mut [f64]) {
    if n == 0 {
        return; // `chunks_exact` takes no zero width
    }
    let terms = a_row.iter().zip(b.chunks_exact(n));
    combine::<FAST, true>(terms.map(|(&a, b_row)| (a, b_row)), out_row);
}

/// `out_row ⊕= Σ coef · row` over `terms` in order, each column its own
/// chain: the ladder of tiles, then a scalar tail. `GEMM` selects the
/// GEMM row's contract — `out_row` is overwritten, from zero, and a term
/// whose `coef` is exactly zero is skipped — over SpMM's, which adds
/// every term to `out_row`. `terms` is cloned per tile; a clone copies
/// the divisions a fresh `chunks_exact` would redo.
#[inline(always)]
fn combine<'a, const FAST: bool, const GEMM: bool>(
    terms: impl Iterator<Item = (f64, &'a [f64])> + Clone,
    out_row: &mut [f64],
) {
    let width = out_row.len();
    let mut j = 0;
    while j + 32 <= width {
        combine_tile::<FAST, GEMM, 32>(terms.clone(), out_row, j);
        j += 32;
    }
    if j + 16 <= width {
        combine_tile::<FAST, GEMM, 16>(terms.clone(), out_row, j);
        j += 16;
    }
    if j + 8 <= width {
        combine_tile::<FAST, GEMM, 8>(terms.clone(), out_row, j);
        j += 8;
    }
    if j + 4 <= width {
        combine_tile::<FAST, GEMM, 4>(terms.clone(), out_row, j);
        j += 4;
    }
    if j == width {
        return;
    }
    if GEMM {
        out_row[j..].fill(0.0);
    }
    for (coef, row) in terms.filter(|&(coef, _)| !(GEMM && coef == 0.0)) {
        for (o, &x) in out_row[j..].iter_mut().zip(&row[j..]) {
            *o = madd::<FAST>(*o, coef, x);
        }
    }
}

/// Columns `j .. j + W` of [`combine`].
#[inline(always)]
fn combine_tile<'a, const FAST: bool, const GEMM: bool, const W: usize>(
    terms: impl Iterator<Item = (f64, &'a [f64])>,
    out_row: &mut [f64],
    j: usize,
) {
    let out = window_mut::<W>(out_row, j);
    let mut acc = if GEMM { [0.0; W] } else { *out };
    for (coef, row) in terms {
        if !(GEMM && coef == 0.0) {
            madd_tile::<FAST, W>(&mut acc, coef, window::<W>(row, j));
        }
    }
    *out = acc;
}

/// Input rows per block of [`gemm_t`]: the output tile stays in
/// registers across this many rows, and the rows of `a` and `b` the
/// block reads stay cache-resident across every tile of the block
/// (16 to 64 measure alike at 300 columns; 128 is a third slower).
const GEMM_T_ROWS: usize = 32;

/// `AᵀB` for the output rows `k0 .. k0 + out.len()/n` of the product of
/// `a` (`rows × lda`) and `b` (`rows × n`):
/// `out[k − k0][j] = Σ_i a[i·lda + k] · b[i·n + j]`, overwriting `out`.
/// Every output element accumulates in ascending `i` with exact zeros of
/// `a` skipped — the scalar oracle's order. The caller has checked that
/// the operands are whole rows and that `k0 + out.len()/n <= lda`.
#[inline(always)]
pub fn gemm_t<const FAST: bool>(
    a: &[f64],
    lda: usize,
    k0: usize,
    b: &[f64],
    n: usize,
    out: &mut [f64],
) {
    out.fill(0.0);
    let blocks = a.chunks(GEMM_T_ROWS * lda).zip(b.chunks(GEMM_T_ROWS * n));
    for (a_blk, b_blk) in blocks {
        // Cloned per tile, like `combine`'s terms.
        let rows = a_blk.chunks_exact(lda).zip(b_blk.chunks_exact(n));
        // Two output rows share each load of `b`; an odd last row goes alone.
        for (pair, out_rows) in out.chunks_mut(2 * n).enumerate() {
            let k = k0 + 2 * pair;
            if out_rows.len() == 2 * n {
                gemm_t_rows::<FAST, 2>(rows.clone(), k, n, out_rows);
            } else {
                gemm_t_rows::<FAST, 1>(rows.clone(), k, n, out_rows);
            }
        }
    }
}

/// Output rows `k .. k + KP` of [`gemm_t`] over one block of `(a row, b
/// row)` pairs: 16-, 8- and 4-column tiles (a `KP` × 32 tile would not
/// fit the registers), then a scalar tail.
#[inline(always)]
fn gemm_t_rows<'a, const FAST: bool, const KP: usize>(
    rows: impl Iterator<Item = (&'a [f64], &'a [f64])> + Clone,
    k: usize,
    n: usize,
    out: &mut [f64],
) {
    let mut j = 0;
    while j + 16 <= n {
        gemm_t_tile::<FAST, KP, 16>(rows.clone(), k, n, out, j);
        j += 16;
    }
    if j + 8 <= n {
        gemm_t_tile::<FAST, KP, 8>(rows.clone(), k, n, out, j);
        j += 8;
    }
    if j + 4 <= n {
        gemm_t_tile::<FAST, KP, 4>(rows.clone(), k, n, out, j);
        j += 4;
    }
    for kk in 0..KP {
        for jj in j..n {
            let o = &mut out[kk * n + jj];
            for (a_row, b_row) in rows.clone() {
                let av = a_row[k + kk];
                if av != 0.0 {
                    *o = madd::<FAST>(*o, av, b_row[jj]);
                }
            }
        }
    }
}

/// A `KP`-row × `W`-column tile of [`gemm_t`]'s output at column `j`:
/// loaded once, updated by each input row of the block in ascending order
/// (a row whose `a` element is exactly zero is skipped), stored once.
#[inline(always)]
fn gemm_t_tile<'a, const FAST: bool, const KP: usize, const W: usize>(
    rows: impl Iterator<Item = (&'a [f64], &'a [f64])>,
    k: usize,
    n: usize,
    out: &mut [f64],
    j: usize,
) {
    let mut acc = [[0.0; W]; KP];
    for (kk, tile) in acc.iter_mut().enumerate() {
        *tile = *window::<W>(out, kk * n + j);
    }
    for (a_row, b_row) in rows {
        let x = window::<W>(b_row, j);
        for (tile, &av) in acc.iter_mut().zip(window::<KP>(a_row, k)) {
            if av != 0.0 {
                madd_tile::<FAST, W>(tile, av, x);
            }
        }
    }
    for (kk, tile) in acc.iter().enumerate() {
        *window_mut::<W>(out, kk * n + j) = *tile;
    }
}

/// Fast-mode dot product: 16 fused accumulators (4 per 4-lane group),
/// summed pairwise at the end. Reassociates, so strict mode never calls it.
#[inline(always)]
pub fn dot_fast(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = [0.0; 16];
    let (a16, b16) = (a.chunks_exact(16), b.chunks_exact(16));
    let (a_rest, b_rest) = (a16.remainder(), b16.remainder());
    for (x, y) in a16.zip(b16) {
        for ((s, &x), &y) in acc.iter_mut().zip(x).zip(y) {
            *s = x.mul_add(y, *s);
        }
    }
    let (a4, b4) = (a_rest.chunks_exact(4), b_rest.chunks_exact(4));
    let (a_tail, b_tail) = (a4.remainder(), b4.remainder());
    for (x, y) in a4.zip(b4) {
        for ((s, &x), &y) in acc.iter_mut().zip(x).zip(y) {
            *s = x.mul_add(y, *s);
        }
    }
    let lane = |l: usize| (acc[l] + acc[4 + l]) + (acc[8 + l] + acc[12 + l]);
    let mut total = (lane(0) + lane(2)) + (lane(1) + lane(3));
    for (&x, &y) in a_tail.iter().zip(b_tail) {
        total += x * y;
    }
    total
}

#[cfg(test)]
mod tests {
    //! The generic kernels as the `Neon` arm runs them — no target
    //! features enabled — which no x86_64 host reaches through dispatch.

    use super::*;
    use crate::kernel::{scalar, FAST_MODE_RTOL};

    /// `kernel_dispatch.rs`'s widths: every ladder rung alone and stacked,
    /// sub-lane tails, and the datasets' 300.
    const WIDTHS: &[usize] = &[
        1, 3, 4, 7, 8, 12, 16, 24, 31, 32, 33, 40, 48, 63, 64, 65, 96, 127, 128, 129, 160, 300,
    ];

    /// Deterministic values in [-1, 1) with exact zeros and `-0.0` mixed in.
    fn values(len: usize, seed: u64) -> Vec<f64> {
        let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        (0..len)
            .map(|i| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                match i % 11 {
                    0 => 0.0,
                    5 => -0.0,
                    _ => (s >> 11) as f64 / (1u64 << 52) as f64 - 1.0,
                }
            })
            .collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// `max|got − want|` over the larger operand's infinity norm.
    fn rel(got: &[f64], want: &[f64]) -> f64 {
        let scale = got
            .iter()
            .chain(want)
            .fold(1e-300_f64, |m, x| m.max(x.abs()));
        got.iter()
            .zip(want)
            .map(|(g, w)| (g - w).abs() / scale)
            .fold(0.0, f64::max)
    }

    /// Runs `kernel` strict and fast on copies of `init` and checks them
    /// against the oracle's result.
    fn check(what: &str, w: usize, init: &[f64], want: &[f64], kernel: impl Fn(bool, &mut [f64])) {
        let mut strict = init.to_vec();
        kernel(false, &mut strict);
        assert_eq!(bits(&strict), bits(want), "strict {what} w={w}");
        let mut fast = init.to_vec();
        kernel(true, &mut fast);
        assert!(rel(&fast, want) <= FAST_MODE_RTOL, "fast {what} w={w}");
    }

    #[test]
    fn generic_kernels_match_the_oracle_without_target_features() {
        for (s, &w) in WIDTHS.iter().enumerate() {
            let seed = s as u64;
            let (k, rows) = (19, 45);

            let nz_cols: Vec<u32> = (0..k as u32).map(|c| c * 7 % k as u32).collect();
            let vals = values(k, seed);
            let h = values(k * w, seed + 100);
            let init = values(w, seed + 200);
            let mut want = init.clone();
            scalar::spmm_row(&nz_cols, &vals, &h, w, &mut want);
            check("spmm_row", w, &init, &want, |fast, out| {
                if fast {
                    spmm_row::<true>(&nz_cols, &vals, &h, w, out)
                } else {
                    spmm_row::<false>(&nz_cols, &vals, &h, w, out)
                }
            });

            let a_row = values(k, seed + 300);
            let mut want = vec![f64::NAN; w];
            scalar::gemm_row(&a_row, &h, w, &mut want);
            check("gemm_row", w, &[f64::NAN; 300][..w], &want, |fast, out| {
                if fast {
                    gemm_row::<true>(&a_row, &h, w, out)
                } else {
                    gemm_row::<false>(&a_row, &h, w, out)
                }
            });

            // `AᵀB` over several row blocks, output rows 1..k-1 of k (an odd
            // count, so the single-row tile runs too).
            let a = values(rows * k, seed + 400);
            let b = values(rows * w, seed + 500);
            let mut want = vec![f64::NAN; (k - 2) * w];
            scalar::gemm_t(&a, k, 1, &b, w, &mut want);
            let init = vec![f64::NAN; want.len()];
            check("gemm_t", w, &init, &want, |fast, out| {
                if fast {
                    gemm_t::<true>(&a, k, 1, &b, w, out)
                } else {
                    gemm_t::<false>(&a, k, 1, &b, w, out)
                }
            });

            let (x, y) = (values(w, seed + 600), values(w, seed + 700));
            let scale: f64 = x.iter().zip(&y).map(|(p, q)| (p * q).abs()).sum();
            let err = (dot_fast(&x, &y) - scalar::dot(&x, &y)).abs();
            assert!(err <= FAST_MODE_RTOL * scale.max(1e-300), "dot_fast w={w}");
        }
    }
}
