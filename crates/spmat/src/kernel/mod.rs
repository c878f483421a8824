//! Runtime-dispatched compute kernels.
//!
//! Every local kernel the distributed variants execute — CSR SpMM rows
//! and the GEMM family — funnels through this module. At process start
//! the best available backend is detected **once** ([`Backend::detect`]
//! via `is_x86_feature_detected!` / the aarch64 baseline) and all
//! kernels dispatch to it. The vector backends run the same safe source,
//! the register-blocked kernels of [`blocked`], three tiers of it:
//!
//! | backend | compiled as | lanes | GEMM tile | `AᵀB` tile | hints |
//! |---|---|---|---|---|---|
//! | **`Avx512`** | `#[target_feature(enable = "avx512f,avx2,fma")]`, chosen when the CPU reports all three | 8 | 4 rows × ≤ 32 columns | 4 rows × ≤ 16 columns | GEMM and `AᵀB` |
//! | **`Avx2`** | `#[target_feature(enable = "avx2,fma")]` | 4 | 1 row × ≤ 32 columns | 2 rows × ≤ 16 columns | none |
//! | **`Neon`** | as compiled for aarch64, whose baseline includes NEON | 2 | 1 row × ≤ 32 columns | 2 rows × ≤ 16 columns | none |
//!
//! A taller tile shares each load of the other operand among more output
//! rows, which pays only while the tile fits the registers: 32 `zmm` hold
//! a 4-row tile and its operands, 16 `ymm` do not (on AVX2, 2- and 4-row
//! GEMM tiles measured no faster). The `AᵀB` tiles run over blocks of 32
//! input rows. The hints are cache prefetches for the rows of `a` a
//! kernel reads next (see [`blocked`]); only the AVX-512 tier, whose
//! gains they were measured on, issues them. **`Scalar`** — the
//! portable loops of [`scalar`] that every backend is tested against —
//! is always available.
//!
//! # Determinism contract
//!
//! Every kernel stays **bit-identical to the historical serial scalar
//! loop on every backend and at every thread count**. The blocked
//! kernels vectorize only across *independent output elements* (lanes
//! of the feature dimension, and the rows of a tile), never across a
//! reduction: each output element still accumulates its terms in exactly
//! the serial order with separately rounded multiply and add
//! (`acc + a * b`, which Rust never contracts into an FMA). So a wider
//! vector or a taller tile cannot change a bit: it only decides which
//! independent chains advance side by side. The blocked GEMM kernels add
//! the exact zeros of `a` the oracle skips, which changes no bit while
//! the other operand is finite ([`blocked`]'s module docs). The `A·Bᵀ`
//! dot products are a reduction, so they run [`scalar::dot`] on every
//! backend: any vectorization would reassociate the sum. Training no
//! longer calls them: gradient propagation multiplies by a transposed
//! tile of `W` through the GEMM, whose per-element chains are those dot
//! products' own.
//!
//! # Environment
//!
//! * `GNN_KERNEL_BACKEND=auto|scalar|avx2|avx512|neon` — pins the backend
//!   ([`Backend::from_pin`]); an unsupported or unrecognised pin falls
//!   back to scalar (never to an illegal instruction, never to SIMD the
//!   pin did not name). `scalar` is how CI's portable job forces the
//!   fallback path on SIMD-capable hosts, and `avx2` how it keeps the
//!   AVX2 tier tested on hosts that would auto-detect `avx512`.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

pub mod blocked;
pub mod scalar;

#[cfg(target_arch = "aarch64")]
use blocked::NoHint;

/// Numerical contract of the kernel layer, recorded next to results.
/// There is one: every backend gives the scalar oracle's bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelMode {
    /// Bit-identical to the historical serial scalar loop.
    Strict,
}

impl KernelMode {
    /// The mode's name in logs and bench records.
    pub fn label(self) -> &'static str {
        match self {
            Self::Strict => "strict",
        }
    }
}

/// A compute backend the dispatcher can select.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Portable scalar loops; always available, the bit-exactness oracle.
    Scalar,
    /// x86_64 AVX2 + FMA: the blocked kernels at 4 × f64 lanes.
    Avx2,
    /// x86_64 AVX-512F (with AVX2 + FMA): the blocked kernels at 8 × f64
    /// lanes, with the taller register tiles 32 vector registers hold.
    Avx512,
    /// aarch64 NEON: the blocked kernels at 2 × f64 lanes.
    Neon,
}

impl Backend {
    /// The SIMD backends in auto-detection's order of preference.
    pub const PREFERRED: [Backend; 3] = [Backend::Avx512, Backend::Avx2, Backend::Neon];

    /// True when this process can execute the backend's instructions.
    pub fn supported(self) -> bool {
        match self {
            Backend::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => {
                static AVX2_FMA: OnceLock<bool> = OnceLock::new(); // dispatch re-checks per call
                *AVX2_FMA.get_or_init(|| {
                    std::arch::is_x86_feature_detected!("avx2")
                        && std::arch::is_x86_feature_detected!("fma")
                })
            }
            #[cfg(target_arch = "x86_64")]
            Backend::Avx512 => {
                static AVX512: OnceLock<bool> = OnceLock::new(); // dispatch re-checks per call
                *AVX512.get_or_init(|| {
                    std::arch::is_x86_feature_detected!("avx512f") && Backend::Avx2.supported()
                })
            }
            Backend::Neon => cfg!(target_arch = "aarch64"), // NEON is aarch64 baseline
            #[allow(unreachable_patterns)]
            _ => false,
        }
    }

    /// The backend a `GNN_KERNEL_BACKEND` value selects. Unset or `auto`
    /// is the best supported backend; a supported name is that backend.
    /// Anything else — a name this host cannot run, a misspelling, the
    /// wrong case — is [`Backend::Scalar`]: a bad pin never runs an
    /// illegal instruction, nor SIMD it did not ask for.
    pub fn from_pin(pin: Option<&str>) -> Backend {
        let pick = match pin {
            None | Some("auto") => {
                return Backend::PREFERRED
                    .into_iter()
                    .find(|b| b.supported())
                    .unwrap_or(Backend::Scalar)
            }
            Some("avx512") => Backend::Avx512,
            Some("avx2") => Backend::Avx2,
            Some("neon") => Backend::Neon,
            Some(_) => Backend::Scalar, // `scalar`, and every unrecognised pin
        };
        if pick.supported() {
            pick
        } else {
            Backend::Scalar
        }
    }

    /// [`Backend::from_pin`] of this process's `GNN_KERNEL_BACKEND`.
    /// Detected once per process and cached.
    pub fn detect() -> Backend {
        static DETECTED: OnceLock<Backend> = OnceLock::new();
        *DETECTED
            .get_or_init(|| Backend::from_pin(std::env::var("GNN_KERNEL_BACKEND").ok().as_deref()))
    }

    /// Short name used in logs, bench keys and JSON.
    pub fn label(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
            Backend::Avx512 => "avx512",
            Backend::Neon => "neon",
        }
    }
}

/// Process-wide forced backend (bench/test hook): 0 = auto-detect,
/// 1 = scalar, 2 = avx2, 3 = neon, 4 = avx512.
static FORCED: AtomicU8 = AtomicU8::new(0);

/// Pins dispatch to `backend` for this process (bench/test hook; the
/// CLI path is the `GNN_KERNEL_BACKEND` env var). Fails rather than
/// dispatching instructions the host cannot execute.
pub fn try_force_backend(backend: Backend) -> Result<(), String> {
    if !backend.supported() {
        return Err(format!(
            "backend {} is not supported on this host",
            backend.label()
        ));
    }
    let v = match backend {
        Backend::Scalar => 1,
        Backend::Avx2 => 2,
        Backend::Neon => 3,
        Backend::Avx512 => 4,
    };
    FORCED.store(v, Ordering::Relaxed);
    Ok(())
}

/// Clears a [`try_force_backend`] pin; dispatch returns to auto-detect.
pub fn clear_forced_backend() {
    FORCED.store(0, Ordering::Relaxed);
}

/// The backend kernels dispatch to right now.
pub fn active_backend() -> Backend {
    match FORCED.load(Ordering::Relaxed) {
        1 => Backend::Scalar,
        2 => Backend::Avx2,
        3 => Backend::Neon,
        4 => Backend::Avx512,
        _ => Backend::detect(),
    }
}

/// A resolved (backend, mode) pair. Kernels resolve dispatch **once per
/// matrix operation** (one atomic load), then every row/chunk call is a
/// branch on a plain enum value (plus the x86 backends' cached feature
/// check).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Kernels {
    /// The instruction set the kernels execute on.
    pub backend: Backend,
    /// The numerical contract (always [`KernelMode::Strict`]).
    pub mode: KernelMode,
}

/// The currently active (backend, mode) pair.
pub fn active() -> Kernels {
    Kernels {
        backend: active_backend(),
        mode: KernelMode::Strict,
    }
}

impl Kernels {
    /// A pair that always runs the portable loops (the oracle).
    pub fn scalar_strict() -> Self {
        Kernels {
            backend: Backend::Scalar,
            mode: KernelMode::Strict,
        }
    }

    /// One SpMM output row: `out_row[0..f] += Σ vals[k] · h[cols[k]·f ..]`,
    /// accumulating nonzeros in CSR order per output element.
    #[inline]
    pub fn spmm_row(self, cols: &[u32], vals: &[f64], h: &[f64], f: usize, out_row: &mut [f64]) {
        debug_assert_eq!(cols.len(), vals.len());
        debug_assert_eq!(out_row.len(), f);
        match self.backend {
            // SAFETY: the guard has just confirmed AVX-512F, AVX2 and FMA.
            #[cfg(target_arch = "x86_64")]
            Backend::Avx512 if Backend::Avx512.supported() => unsafe {
                avx512::spmm_row(cols, vals, h, f, out_row)
            },
            // SAFETY: the guard has just confirmed AVX2 and FMA on this CPU.
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 if Backend::Avx2.supported() => unsafe {
                avx2::spmm_row(cols, vals, h, f, out_row)
            },
            #[cfg(target_arch = "aarch64")]
            Backend::Neon => blocked::spmm_row(cols, vals, h, f, out_row),
            _ => scalar::spmm_row(cols, vals, h, f, out_row),
        }
    }

    /// GEMM rows from zero, `a` holding one row of `k` per row of `out`:
    /// `out[i][0..n] = Σ_k a[i][k] · b[k·n .. k·n+n]`, terms in ascending
    /// `k` (the historical kernel's order). The oracle skips exact zeros
    /// of `a` and the blocked kernels add them: the same bits for finite
    /// `b`. Rows are independent, so how many a backend's tile holds
    /// changes no bit.
    ///
    /// # Panics
    /// Panics if `n` is zero, or if `a`, `b` and `out` are not whole rows
    /// of `k`, `n` and `n` elements with as many rows in `a` as in `out`
    /// and `k` rows in `b`.
    #[inline]
    pub fn gemm_rows(self, a: &[f64], k: usize, b: &[f64], n: usize, out: &mut [f64]) {
        assert!(n > 0, "gemm operands must have output columns");
        let rows = out.len() / n;
        assert!(
            out.len() == rows * n && a.len() == rows * k && b.len() == k * n,
            "gemm operands must be whole rows"
        );
        match self.backend {
            // SAFETY: the guard has just confirmed AVX-512F, AVX2 and FMA.
            #[cfg(target_arch = "x86_64")]
            Backend::Avx512 if Backend::Avx512.supported() => unsafe {
                avx512::gemm_rows(a, k, b, n, out)
            },
            // SAFETY: the guard has just confirmed AVX2 and FMA on this CPU.
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 if Backend::Avx2.supported() => unsafe {
                avx2::gemm_rows(a, k, b, n, out)
            },
            #[cfg(target_arch = "aarch64")]
            Backend::Neon => blocked::gemm_rows::<1>(a, k, b, n, out, NoHint),
            _ => scalar::gemm_rows(a, k, b, n, out),
        }
    }

    /// `AᵀB` for the output rows `k0 .. k0 + out.len()/n` of the
    /// product of `a` (`rows × lda`) and `b` (`rows × n`):
    /// `out[k − k0][j] = Σ_i a[i·lda + k] · b[i·n + j]`, overwriting
    /// `out`. Terms accumulate in ascending `i` (exact zeros of `a`
    /// skipped by the oracle, added by the blocked kernels: the same bits
    /// for finite `b`); lanes are independent output elements, so SIMD
    /// stays bit-exact.
    ///
    /// # Panics
    /// Panics if `lda` or `n` is zero, if `a`, `b` and `out` are not
    /// whole rows of `lda`, `n` and `n` elements with equal row counts of
    /// `a` and `b`, or if the output rows reach past column `lda`.
    #[inline]
    pub fn gemm_t(self, a: &[f64], lda: usize, k0: usize, b: &[f64], n: usize, out: &mut [f64]) {
        assert!(lda > 0 && n > 0, "gemm_t operands must have columns");
        let (rows, kn) = (a.len() / lda, out.len() / n);
        assert!(
            a.len() == rows * lda && b.len() == rows * n && out.len() == kn * n,
            "gemm_t operands must be whole rows with equal row counts"
        );
        assert!(k0 + kn <= lda, "gemm_t output rows past the last column");
        match self.backend {
            // SAFETY: the guard has just confirmed AVX-512F, AVX2 and FMA.
            #[cfg(target_arch = "x86_64")]
            Backend::Avx512 if Backend::Avx512.supported() => unsafe {
                avx512::gemm_t(a, lda, k0, b, n, out)
            },
            // SAFETY: the guard has just confirmed AVX2 and FMA on this CPU.
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 if Backend::Avx2.supported() => unsafe {
                avx2::gemm_t(a, lda, k0, b, n, out)
            },
            #[cfg(target_arch = "aarch64")]
            Backend::Neon => blocked::gemm_t::<2>(a, lda, k0, b, n, out, NoHint),
            _ => scalar::gemm_t(a, lda, k0, b, n, out),
        }
    }
}

/// The [`blocked`] kernels compiled with AVX2 and FMA enabled. Each
/// wrapper inlines its generic kernel, so the compiler vectorizes it 4
/// lanes wide. 16 `ymm` registers hold one GEMM row's tile and a 2-row
/// `AᵀB` tile, not taller ones. No cache hints: a per-term hint test
/// slows the 1-row GEMM loop, and the AVX2 `AᵀB` keeps the loop it had
/// before hints existed. Callers must have checked that the CPU has
/// both features ([`Backend::supported`]).
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::blocked::{self, NoHint};

    #[target_feature(enable = "avx2,fma")]
    pub(super) fn spmm_row(cols: &[u32], vals: &[f64], h: &[f64], f: usize, out: &mut [f64]) {
        blocked::spmm_row(cols, vals, h, f, out)
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) fn gemm_rows(a: &[f64], k: usize, b: &[f64], n: usize, out: &mut [f64]) {
        blocked::gemm_rows::<1>(a, k, b, n, out, NoHint)
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) fn gemm_t(a: &[f64], lda: usize, k0: usize, b: &[f64], n: usize, out: &mut [f64]) {
        blocked::gemm_t::<2>(a, lda, k0, b, n, out, NoHint)
    }
}

/// The [`blocked`] kernels compiled with AVX-512F (and AVX2, FMA)
/// enabled: 8 lanes wide, with the taller tiles 32 `zmm` registers hold —
/// four GEMM rows share each load of a row of `b`, and four `AᵀB` output
/// rows each load of `b`. Callers must have checked the features
/// ([`Backend::supported`]).
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{blocked, prefetch};

    #[target_feature(enable = "avx512f,avx2,fma")]
    pub(super) fn spmm_row(cols: &[u32], vals: &[f64], h: &[f64], f: usize, out: &mut [f64]) {
        blocked::spmm_row(cols, vals, h, f, out)
    }

    #[target_feature(enable = "avx512f,avx2,fma")]
    pub(super) fn gemm_rows(a: &[f64], k: usize, b: &[f64], n: usize, out: &mut [f64]) {
        blocked::gemm_rows::<4>(a, k, b, n, out, |line: &[f64]| prefetch(line))
    }

    #[target_feature(enable = "avx512f,avx2,fma")]
    pub(super) fn gemm_t(a: &[f64], lda: usize, k0: usize, b: &[f64], n: usize, out: &mut [f64]) {
        blocked::gemm_t::<4>(a, lda, k0, b, n, out, |line: &[f64]| prefetch(line))
    }
}

/// Asks for the cache line holding `line[0]` (the blocked kernels'
/// `prefetch` hint on x86_64): a hint, which reads no value and cannot
/// fault. SSE is part of the x86_64 baseline, so every caller may run it.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse")]
fn prefetch(line: &[f64]) {
    use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
    _mm_prefetch::<_MM_HINT_T0>(line.as_ptr().cast());
}

/// Measured single-core SpMM throughput of the **active** backend in
/// GFLOP/s, from a one-shot ~milliseconds micro-bench on a synthetic
/// CSR (deterministic structure, f = 64). Cached per process; feeds the
/// α–β–γ cost model's compute term when the CLI asks for a measured
/// `γ` (`train --flop-rate auto`) instead of the paper's A100 constant.
pub fn measured_gflops() -> f64 {
    static MEASURED: OnceLock<f64> = OnceLock::new();
    *MEASURED.get_or_init(|| {
        use crate::coo::Coo;
        use crate::dense::Dense;
        use crate::spmm::{spmm_flops, spmm_with};
        const N: usize = 2048;
        const NNZ_PER_ROW: usize = 16;
        const F: usize = 64;
        // Deterministic pseudo-random structure via an LCG; values and
        // features from a fixed affine pattern. No RNG state involved.
        let mut coo = Coo::new(N, N);
        let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
        for r in 0..N {
            for _ in 0..NNZ_PER_ROW {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let c = (state >> 33) as usize % N;
                coo.push(r, c, 1.0 + (c % 7) as f64 * 0.125);
            }
        }
        let a = coo.to_csr();
        let h = Dense::from_fn(N, F, |r, c| ((r * 31 + c * 7) % 13) as f64 * 0.0625 - 0.375);
        let flops = spmm_flops(&a, F) as f64;
        let mut best = f64::INFINITY;
        for _ in 0..5 {
            let t0 = std::time::Instant::now();
            std::hint::black_box(spmm_with(&a, &h, 1));
            best = best.min(t0.elapsed().as_secs_f64());
        }
        flops / best / 1e9
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detect_returns_supported_backend() {
        assert!(Backend::detect().supported());
    }

    #[test]
    fn scalar_always_supported() {
        assert!(Backend::Scalar.supported());
        assert_eq!(try_force_backend(Backend::Scalar), Ok(()));
        clear_forced_backend();
    }

    #[test]
    fn forcing_unsupported_backend_errors() {
        for be in Backend::PREFERRED {
            if !be.supported() {
                assert!(try_force_backend(be).is_err());
                // The failed pin must not change dispatch.
                assert!(active_backend().supported());
            }
        }
    }

    #[test]
    fn a_pin_is_its_backend_or_scalar_never_auto_detect() {
        let best = [Backend::Avx512, Backend::Avx2, Backend::Neon]
            .into_iter()
            .find(|b| b.supported())
            .unwrap_or(Backend::Scalar);
        assert_eq!(Backend::from_pin(None), best);
        assert_eq!(Backend::from_pin(Some("auto")), best);
        for be in [
            Backend::Scalar,
            Backend::Avx2,
            Backend::Avx512,
            Backend::Neon,
        ] {
            let want = if be.supported() { be } else { Backend::Scalar };
            assert_eq!(Backend::from_pin(Some(be.label())), want, "{be:?}");
        }
        for bad in [
            "AVX512", "avx-512", "avx512f", "sclar", "Scalar", "AVX2", "Auto", "",
        ] {
            assert_eq!(Backend::from_pin(Some(bad)), Backend::Scalar, "{bad:?}");
        }
    }

    #[test]
    fn measured_gflops_is_positive_and_cached() {
        let a = measured_gflops();
        assert!(a.is_finite() && a > 0.0);
        assert_eq!(measured_gflops(), a, "must be cached");
    }
}
