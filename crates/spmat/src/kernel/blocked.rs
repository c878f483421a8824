//! Register-blocked SpMM/GEMM kernels in safe Rust: one source that the
//! compiler vectorizes for whatever target features the caller enables.
//!
//! Kernels walk the feature dimension in `[f64; W]` accumulator tiles, a
//! ladder of W = 32 → 16 → 8 → 4 columns and then a scalar tail (300
//! is 9 · 32 + 8 + 4). A tile is loaded once, updated by every term in
//! source order and stored once, in vector registers (a 32-wide tile is
//! 8 `ymm`). A tile may span several output rows — `MR` GEMM rows, `KP`
//! `AᵀB` rows — that share each load of the other operand; how many is
//! the dispatcher's choice per backend, by how many tiles its registers
//! hold.
//!
//! A lane is updated with `acc + a * b`. Rust never contracts that into
//! a fused multiply-add, and the lanes and rows of a tile are independent
//! output elements, so every output element is the scalar oracle's chain
//! bit for bit whatever the vector width and the tile's height.
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
//! The GEMM kernels stream their `a` operand (layer 0's 300-wide `H⁰`,
//! megabytes per call) once, so they run as fast as its rows arrive.
//! They take a [`Hint`] from the dispatcher — the SSE prefetch
//! instruction on the AVX-512 tier, [`NoHint`] on the others — and ask for the rows they will read next
//! while they multiply the current ones. A hint reads no value, so it
//! changes no bit.
//!
//! Every function is `#[inline(always)]`: the dispatcher wraps them in
//! `#[target_feature]` functions, and only inlined code gets their features.

/// Doubles per 64-byte cache line: the stride of the hints.
const LINE: usize = 8;

/// A cache hint for rows a kernel will read later: any `Fn(&[f64])`
/// (asked for the line holding the slice's first element), or
/// [`NoHint`].
pub trait Hint: Copy {
    /// False for [`NoHint`]: the kernels then compile without hint code.
    const ON: bool = true;
    /// Asks for the line holding `line[0]`.
    fn line(self, line: &[f64]);
}

impl<F: Fn(&[f64]) + Copy> Hint for F {
    #[inline(always)]
    fn line(self, line: &[f64]) {
        self(line)
    }
}

/// No hints: for targets without a prefetch instruction, and for the
/// AVX2 tier, whose loops stay as they were before hints existed.
#[derive(Clone, Copy, Debug)]
pub struct NoHint;

impl Hint for NoHint {
    const ON: bool = false;
    #[inline(always)]
    fn line(self, _: &[f64]) {}
}

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

/// A kernel whose output columns are independent, computed a tile of
/// columns at a time by [`ladder`].
trait Tiles {
    /// Output columns `j .. j + W`.
    fn tile<const W: usize>(&mut self, j: usize);
    /// Output columns `j ..` to the end, fewer than 4, one lane at a time.
    fn tail(&mut self, j: usize);
}

/// Runs `kernel` over `width` columns: 32-column tiles when `WIDE`, then
/// 16-column tiles, at most one 8- and one 4-column tile, then the tail.
#[inline(always)]
fn ladder<const WIDE: bool>(kernel: &mut impl Tiles, width: usize) {
    let mut j = 0;
    while WIDE && j + 32 <= width {
        kernel.tile::<32>(j);
        j += 32;
    }
    while j + 16 <= width {
        kernel.tile::<16>(j);
        j += 16;
    }
    if j + 8 <= width {
        kernel.tile::<8>(j);
        j += 8;
    }
    if j + 4 <= width {
        kernel.tile::<4>(j);
        j += 4;
    }
    if j < width {
        kernel.tail(j);
    }
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
    ladder::<true>(&mut SpmmRow { terms, out_row }, f);
}

/// [`spmm_row`]'s tiles: `terms` are the `(value, row of h)` pairs,
/// cloned per tile; a clone copies the state a fresh `zip` would rebuild.
struct SpmmRow<'o, T> {
    terms: T,
    out_row: &'o mut [f64],
}

impl<'a, T: Iterator<Item = (f64, &'a [f64])> + Clone> Tiles for SpmmRow<'_, T> {
    #[inline(always)]
    fn tile<const W: usize>(&mut self, j: usize) {
        let out = window_mut::<W>(self.out_row, j);
        let mut acc = *out;
        for (v, row) in self.terms.clone() {
            madd_tile::<W>(&mut acc, v, window::<W>(row, j));
        }
        *out = acc;
    }

    #[inline(always)]
    fn tail(&mut self, j: usize) {
        for (v, row) in self.terms.clone() {
            for (o, &x) in self.out_row[j..].iter_mut().zip(&row[j..]) {
                *o += v * x;
            }
        }
    }
}

/// GEMM rows from zero, `a` holding one row of `k` per row of `out`:
/// `out[i][0..n] = Σ_k a[i][k] · b[k·n .. k·n+n]`, ascending `k` in every
/// row, every term added (exact zeros of `a` too; see the module docs).
/// The rows go `MR` at a time, sharing each load of a row of `b`; the
/// last `rows % MR` go one at a time. While a group multiplies, it
/// hints the rows of the group after next. The caller has checked that
/// `n > 0` and that the operands are whole rows.
#[inline(always)]
pub fn gemm_rows<const MR: usize>(
    a: &[f64],
    k: usize,
    b: &[f64],
    n: usize,
    out: &mut [f64],
    hint: impl Hint,
) {
    if k == 0 {
        out.fill(0.0); // `chunks_exact` takes no zero width
        return;
    }
    let b = &b[..k * n];
    let mut a_groups = a.chunks_exact(MR * k);
    let mut out_groups = out.chunks_exact_mut(MR * n);
    let mut ahead = a.chunks(MR * k).skip(2);
    for (a_group, out) in (&mut a_groups).zip(&mut out_groups) {
        let mut rows = a_group.chunks_exact(k);
        let rows = std::array::from_fn(|_| rows.next().expect("MR rows of a"));
        let next = ahead.next().unwrap_or_default();
        ladder::<true>(
            &mut GemmRows::<MR, _> {
                rows,
                b,
                n,
                out,
                next,
                hint,
            },
            n,
        );
    }
    let tail = a_groups.remainder().chunks_exact(k);
    for (row, out) in tail.zip(out_groups.into_remainder().chunks_exact_mut(n)) {
        let (rows, next) = ([row], &[][..]);
        ladder::<true>(
            &mut GemmRows::<1, _> {
                rows,
                b,
                n,
                out,
                next,
                hint,
            },
            n,
        );
    }
}

/// The tiles of `MR` rows of [`gemm_rows`]. The first tile hints `MR`
/// lines of `next` — a group of `MR` rows like its own — per [`LINE`]
/// terms, so the group asks for all of it.
struct GemmRows<'a, 'o, const MR: usize, H> {
    rows: [&'a [f64]; MR],
    b: &'a [f64],
    n: usize,
    out: &'o mut [f64],
    next: &'a [f64],
    hint: H,
}

impl<const MR: usize, H: Hint> Tiles for GemmRows<'_, '_, MR, H> {
    #[inline(always)]
    fn tile<const W: usize>(&mut self, j: usize) {
        let k = self.rows[0].len();
        let mut hints = self
            .next
            .chunks(LINE)
            .take(if j == 0 { usize::MAX } else { 0 });
        let mut acc = [[0.0; W]; MR];
        for (t, b_row) in (0..k).zip(self.b.chunks_exact(self.n)) {
            if H::ON && t % LINE == 0 {
                for line in hints.by_ref().take(MR) {
                    self.hint.line(line);
                }
            }
            let x = window::<W>(b_row, j);
            for (tile, row) in acc.iter_mut().zip(&self.rows) {
                madd_tile::<W>(tile, row[t], x);
            }
        }
        for (i, tile) in acc.iter().enumerate() {
            *window_mut::<W>(self.out, i * self.n + j) = *tile;
        }
    }

    #[inline(always)]
    fn tail(&mut self, j: usize) {
        for (row, out_row) in self.rows.iter().zip(self.out.chunks_exact_mut(self.n)) {
            let out_row = &mut out_row[j..];
            out_row.fill(0.0);
            for (&coef, b_row) in row.iter().zip(self.b.chunks_exact(self.n)) {
                for (o, &x) in out_row.iter_mut().zip(&b_row[j..]) {
                    *o += coef * x;
                }
            }
        }
    }
}

/// Input rows per block of [`gemm_t`]: the output tile stays in
/// registers across this many rows, and the rows of `a` and `b` the
/// block reads stay cache-resident across every tile of the block
/// (16 to 64 measure alike at 300 columns, for 2- and 4-row tiles alike;
/// 8 and 128 are slower).
const GEMM_T_ROWS: usize = 32;

/// `AᵀB` for the output rows `k0 .. k0 + out.len()/n` of the product of
/// `a` (`rows × lda`) and `b` (`rows × n`):
/// `out[k − k0][j] = Σ_i a[i·lda + k] · b[i·n + j]`, overwriting `out`.
/// Every output element accumulates in ascending `i`, every term added —
/// the scalar oracle's order, and its bits (module docs). A tile of `KP`
/// output rows stays in registers across a block of `GEMM_T_ROWS` input
/// rows, sharing each load of `b`; the last `out rows % KP` go one at a
/// time. Each group of output rows hints its share of the next block of
/// `a`, whose rows the tiles read a few bytes at a time and the
/// hardware alone fetches late. The caller has checked that the operands
/// are whole rows and that `k0 + out.len()/n <= lda`.
#[inline(always)]
pub fn gemm_t<const KP: usize>(
    a: &[f64],
    lda: usize,
    k0: usize,
    b: &[f64],
    n: usize,
    out: &mut [f64],
    hint: impl Hint,
) {
    out.fill(0.0);
    let groups = out.len().div_ceil(KP * n).max(1);
    let blocks = a.chunks(GEMM_T_ROWS * lda).zip(b.chunks(GEMM_T_ROWS * n));
    let mut ahead = a.chunks(GEMM_T_ROWS * lda).skip(1);
    for (a_blk, b_blk) in blocks {
        let next = ahead.next().unwrap_or_default();
        let share = next.len().div_ceil(groups).next_multiple_of(LINE).max(LINE);
        let mut shares = next.chunks(share);
        // Cloned per tile: a clone copies the divisions a fresh
        // `chunks_exact` would redo.
        let rows = a_blk.chunks_exact(lda).zip(b_blk.chunks_exact(n));
        for (group, out) in out.chunks_mut(KP * n).enumerate() {
            for line in shares.next().unwrap_or_default().chunks(LINE) {
                hint.line(line);
            }
            let k = k0 + KP * group;
            if out.len() == KP * n {
                ladder::<false>(
                    &mut GemmTRows::<KP, _> {
                        rows: rows.clone(),
                        k,
                        n,
                        out,
                    },
                    n,
                );
            } else {
                for (kk, out) in out.chunks_exact_mut(n).enumerate() {
                    let (rows, k) = (rows.clone(), k + kk);
                    ladder::<false>(&mut GemmTRows::<1, _> { rows, k, n, out }, n);
                }
            }
        }
    }
}

/// Output rows `k .. k + KP` of [`gemm_t`] over one block of `(a row, b
/// row)` pairs, 16 columns at most per tile (a `KP` × 32 tile would not
/// fit the registers).
struct GemmTRows<'o, const KP: usize, R> {
    rows: R,
    k: usize,
    n: usize,
    out: &'o mut [f64],
}

impl<'a, const KP: usize, R> Tiles for GemmTRows<'_, KP, R>
where
    R: Iterator<Item = (&'a [f64], &'a [f64])> + Clone,
{
    /// A `KP`-row tile: loaded once, updated by each input row of the
    /// block in ascending order (a zero `a` element too), stored once.
    #[inline(always)]
    fn tile<const W: usize>(&mut self, j: usize) {
        let mut acc = [[0.0; W]; KP];
        for (kk, tile) in acc.iter_mut().enumerate() {
            *tile = *window::<W>(self.out, kk * self.n + j);
        }
        for (a_row, b_row) in self.rows.clone() {
            let x = window::<W>(b_row, j);
            for (tile, &av) in acc.iter_mut().zip(window::<KP>(a_row, self.k)) {
                madd_tile::<W>(tile, av, x);
            }
        }
        for (kk, tile) in acc.iter().enumerate() {
            *window_mut::<W>(self.out, kk * self.n + j) = *tile;
        }
    }

    #[inline(always)]
    fn tail(&mut self, j: usize) {
        for (kk, out_row) in self.out.chunks_exact_mut(self.n).enumerate() {
            for (jj, o) in out_row.iter_mut().enumerate().skip(j) {
                for (a_row, b_row) in self.rows.clone() {
                    *o += a_row[self.k + kk] * b_row[jj];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    //! The generic kernels as the `Neon` arm runs them — no target
    //! features enabled — which no x86_64 host reaches through dispatch.

    use std::cell::RefCell;
    use std::collections::BTreeSet;

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
                // 13 rows: three 4-row groups and a tail row at MR = 4.
                let a = a_values(13 * k, seed + 300);
                let mut want = vec![f64::NAN; 13 * w];
                scalar::gemm_rows(&a, k, &h, w, &mut want);
                let init = vec![f64::NAN; want.len()];
                check("gemm_rows::<1>", w, &init, &want, |out| {
                    gemm_rows::<1>(&a, k, &h, w, out, NoHint)
                });
                check("gemm_rows::<4>", w, &init, &want, |out| {
                    gemm_rows::<4>(&a, k, &h, w, out, NoHint)
                });

                // `AᵀB` over several row blocks, output rows 1..k-1 of k
                // (17: a count no tile height divides, so the single-row
                // tile runs too).
                let a = a_values(rows * k, seed + 400);
                let b = values(rows * w, seed + 500);
                let mut want = vec![f64::NAN; (k - 2) * w];
                scalar::gemm_t(&a, k, 1, &b, w, &mut want);
                let init = vec![f64::NAN; want.len()];
                check("gemm_t::<2>", w, &init, &want, |out| {
                    gemm_t::<2>(&a, k, 1, &b, w, out, NoHint)
                });
                check("gemm_t::<4>", w, &init, &want, |out| {
                    gemm_t::<4>(&a, k, 1, &b, w, out, NoHint)
                });
            }
        }
    }

    /// The GEMM kernels hint every line of `a` they will read later — the
    /// groups of rows after the first two, the blocks after the first —
    /// one hint per 8 elements from the start of each.
    #[test]
    fn gemm_kernels_prefetch_all_of_a_ahead() {
        let (k, n, rows) = (19, 16, 150);
        let a = values(rows * k, 1);
        let b = values(rows * n, 2);
        let seen = RefCell::new(BTreeSet::new());
        let hint = |line: &[f64]| {
            let offset = (line.as_ptr() as usize - a.as_ptr() as usize) / 8;
            seen.borrow_mut().insert(offset);
        };
        // Every `LINE`-th element of each `len`-element piece of `a` from
        // piece `first` on.
        let pieces = |len: usize, first: usize| -> BTreeSet<usize> {
            (first * len..a.len())
                .step_by(len)
                .flat_map(|start| (start..(start + len).min(a.len())).step_by(LINE))
                .collect()
        };
        let mut out = vec![0.0; rows * n];
        gemm_rows::<1>(&a, k, &b[..k * n], n, &mut out, hint);
        assert_eq!(seen.take(), pieces(k, 2), "gemm_rows::<1>");
        gemm_rows::<4>(&a, k, &b[..k * n], n, &mut out, hint);
        assert_eq!(seen.take(), pieces(4 * k, 2), "gemm_rows::<4>");
        let mut out = vec![0.0; k * n];
        gemm_t::<2>(&a, k, 0, &b, n, &mut out, hint);
        assert_eq!(seen.take(), pieces(GEMM_T_ROWS * k, 1), "gemm_t::<2>");
        gemm_t::<4>(&a, k, 0, &b, n, &mut out, hint);
        assert_eq!(seen.take(), pieces(GEMM_T_ROWS * k, 1), "gemm_t::<4>");
    }
}
