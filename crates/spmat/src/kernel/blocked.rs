//! Register-blocked SpMM/GEMM kernels in safe Rust: one source that the
//! compiler vectorizes for whatever target features the caller enables.
//!
//! Kernels walk the feature dimension in `[f64; W]` accumulator tiles, a
//! ladder of W = 32 → 16 → 8 → 4 columns and then a scalar tail (300 is
//! 9 · 32 + 8 + 4). A tile is loaded once, updated by every term in source
//! order and stored once, in vector registers (a 32-wide tile is 8 `ymm`).
//!
//! A lane is updated with `acc + a * b`. Rust never contracts that into
//! a fused multiply-add, and the lanes of a tile are independent output
//! elements, so every output element is the scalar oracle's chain bit
//! for bit whatever the vector width.
//!
//! The GEMM kernels add every term, exact zeros of `a` included, where
//! the oracle skips them: no compare in the inner loop, so ReLU outputs
//! (zero at random, half the time) cost no mispredicted branch. The two
//! agree bit for bit whenever the other operand is finite. An
//! accumulator starts at `+0.0`, and under round-to-nearest a sum is
//! `-0.0` only when both addends are, so it never becomes `-0.0`; a zero
//! coefficient times a finite value is `±0.0`; and `x + (±0.0) == x` for
//! every `x` that is not `-0.0`. (An infinite or NaN operand would turn
//! the added `0 · x` into NaN; the oracle's skip hides it.)
//!
//! Every function is `#[inline(always)]`: the dispatcher wraps them in
//! `#[target_feature]` functions, and only inlined code gets their features.

/// `tile[t] += a · x[t]` for every lane of a `W`-column tile.
#[inline(always)]
fn madd_tile<const W: usize>(tile: &mut [f64; W], a: f64, x: &[f64; W]) {
    for (o, &v) in tile.iter_mut().zip(x) {
        *o += a * v;
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
pub fn spmm_row(cols: &[u32], vals: &[f64], h: &[f64], f: usize, out_row: &mut [f64]) {
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
    combine::<false>(terms, out_row);
}

/// One GEMM output row from zero:
/// `out_row[0..n] = Σ_k a_row[k] · b[k·n .. k·n+n]`, ascending `k`, every
/// term added (exact zeros of `a_row` too; see the module docs).
#[inline(always)]
pub fn gemm_row(a_row: &[f64], b: &[f64], n: usize, out_row: &mut [f64]) {
    if n == 0 {
        return; // `chunks_exact` takes no zero width
    }
    let terms = a_row.iter().zip(b.chunks_exact(n));
    combine::<true>(terms.map(|(&a, b_row)| (a, b_row)), out_row);
}

/// `out_row ⊕= Σ coef · row` over `terms` in order, each column its own
/// chain: the ladder of tiles, then a scalar tail. `GEMM` selects the
/// GEMM row's contract — `out_row` is overwritten, from zero — over
/// SpMM's, which adds to `out_row`; both add every term. `terms` is
/// cloned per tile; a clone copies the divisions a fresh `chunks_exact`
/// would redo.
#[inline(always)]
fn combine<'a, const GEMM: bool>(
    terms: impl Iterator<Item = (f64, &'a [f64])> + Clone,
    out_row: &mut [f64],
) {
    let width = out_row.len();
    let mut j = 0;
    while j + 32 <= width {
        combine_tile::<GEMM, 32>(terms.clone(), out_row, j);
        j += 32;
    }
    if j + 16 <= width {
        combine_tile::<GEMM, 16>(terms.clone(), out_row, j);
        j += 16;
    }
    if j + 8 <= width {
        combine_tile::<GEMM, 8>(terms.clone(), out_row, j);
        j += 8;
    }
    if j + 4 <= width {
        combine_tile::<GEMM, 4>(terms.clone(), out_row, j);
        j += 4;
    }
    if j == width {
        return;
    }
    if GEMM {
        out_row[j..].fill(0.0);
    }
    for (coef, row) in terms {
        for (o, &x) in out_row[j..].iter_mut().zip(&row[j..]) {
            *o += coef * x;
        }
    }
}

/// Columns `j .. j + W` of [`combine`].
#[inline(always)]
fn combine_tile<'a, const GEMM: bool, const W: usize>(
    terms: impl Iterator<Item = (f64, &'a [f64])>,
    out_row: &mut [f64],
    j: usize,
) {
    let out = window_mut::<W>(out_row, j);
    let mut acc = if GEMM { [0.0; W] } else { *out };
    for (coef, row) in terms {
        madd_tile::<W>(&mut acc, coef, window::<W>(row, j));
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
/// Every output element accumulates in ascending `i`, every term added —
/// the scalar oracle's order, and its bits (module docs). The caller has
/// checked that
/// the operands are whole rows and that `k0 + out.len()/n <= lda`.
#[inline(always)]
pub fn gemm_t(a: &[f64], lda: usize, k0: usize, b: &[f64], n: usize, out: &mut [f64]) {
    out.fill(0.0);
    let blocks = a.chunks(GEMM_T_ROWS * lda).zip(b.chunks(GEMM_T_ROWS * n));
    for (a_blk, b_blk) in blocks {
        // Cloned per tile, like `combine`'s terms.
        let rows = a_blk.chunks_exact(lda).zip(b_blk.chunks_exact(n));
        // Two output rows share each load of `b`; an odd last row goes alone.
        for (pair, out_rows) in out.chunks_mut(2 * n).enumerate() {
            let k = k0 + 2 * pair;
            if out_rows.len() == 2 * n {
                gemm_t_rows::<2>(rows.clone(), k, n, out_rows);
            } else {
                gemm_t_rows::<1>(rows.clone(), k, n, out_rows);
            }
        }
    }
}

/// Output rows `k .. k + KP` of [`gemm_t`] over one block of `(a row, b
/// row)` pairs: 16-, 8- and 4-column tiles (a `KP` × 32 tile would not
/// fit the registers), then a scalar tail.
#[inline(always)]
fn gemm_t_rows<'a, const KP: usize>(
    rows: impl Iterator<Item = (&'a [f64], &'a [f64])> + Clone,
    k: usize,
    n: usize,
    out: &mut [f64],
) {
    let mut j = 0;
    while j + 16 <= n {
        gemm_t_tile::<KP, 16>(rows.clone(), k, n, out, j);
        j += 16;
    }
    if j + 8 <= n {
        gemm_t_tile::<KP, 8>(rows.clone(), k, n, out, j);
        j += 8;
    }
    if j + 4 <= n {
        gemm_t_tile::<KP, 4>(rows.clone(), k, n, out, j);
        j += 4;
    }
    for kk in 0..KP {
        for jj in j..n {
            let o = &mut out[kk * n + jj];
            for (a_row, b_row) in rows.clone() {
                *o += a_row[k + kk] * b_row[jj];
            }
        }
    }
}

/// A `KP`-row × `W`-column tile of [`gemm_t`]'s output at column `j`:
/// loaded once, updated by each input row of the block in ascending order
/// (a zero `a` element too), stored once.
#[inline(always)]
fn gemm_t_tile<'a, const KP: usize, const W: usize>(
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
            madd_tile::<W>(tile, av, x);
        }
    }
    for (kk, tile) in acc.iter().enumerate() {
        *window_mut::<W>(out, kk * n + j) = *tile;
    }
}

#[cfg(test)]
mod tests {
    //! The generic kernels as the `Neon` arm runs them — no target
    //! features enabled — which no x86_64 host reaches through dispatch.

    use super::*;
    use crate::kernel::scalar;

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

    /// ReLU outputs: [`values`] with every negative entry zeroed, as `+0.0`
    /// or `-0.0` — about half the entries, at random positions.
    fn relu_values(len: usize, seed: u64) -> Vec<f64> {
        let signs = values(len, seed + 1);
        values(len, seed)
            .into_iter()
            .zip(signs)
            .map(|(v, s)| if v > 0.0 { v } else { 0.0f64.copysign(s) })
            .collect()
    }

    /// Runs `kernel` on a copy of `init` and checks it against the
    /// oracle's result bit for bit.
    fn check(what: &str, w: usize, init: &[f64], want: &[f64], kernel: impl Fn(&mut [f64])) {
        let mut got = init.to_vec();
        kernel(&mut got);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(want), "{what} w={w}");
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
            check("spmm_row", w, &init, &want, |out| {
                spmm_row(&nz_cols, &vals, &h, w, out)
            });

            // `a` as features and as ReLU outputs: the oracle skips its
            // zeros, the blocked kernels add them.
            for a_values in [values, relu_values] {
                let a_row = a_values(k, seed + 300);
                let mut want = vec![f64::NAN; w];
                scalar::gemm_row(&a_row, &h, w, &mut want);
                check("gemm_row", w, &[f64::NAN; 300][..w], &want, |out| {
                    gemm_row(&a_row, &h, w, out)
                });

                // `AᵀB` over several row blocks, output rows 1..k-1 of k (an
                // odd count, so the single-row tile runs too).
                let a = a_values(rows * k, seed + 400);
                let b = values(rows * w, seed + 500);
                let mut want = vec![f64::NAN; (k - 2) * w];
                scalar::gemm_t(&a, k, 1, &b, w, &mut want);
                let init = vec![f64::NAN; want.len()];
                check("gemm_t", w, &init, &want, |out| {
                    gemm_t(&a, k, 1, &b, w, out)
                });
            }
        }
    }
}
