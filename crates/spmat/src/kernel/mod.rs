//! Runtime-dispatched compute kernels.
//!
//! Every local kernel the distributed variants execute — CSR SpMM rows,
//! the GEMM family, dot products — funnels through this module. At
//! process start the best available backend is detected **once**
//! ([`Backend::detect`] via `is_x86_feature_detected!` / the aarch64
//! baseline) and all kernels dispatch to it. Both vector backends run
//! the same safe source, the register-blocked kernels of [`blocked`]:
//!
//! * **`Avx2`** — [`blocked`] compiled under `#[target_feature(enable =
//!   "avx2,fma")]`, 4 × f64 lanes, chosen when the CPU reports both.
//! * **`Neon`** — [`blocked`] as compiled for aarch64, whose baseline
//!   includes NEON (2 × f64 lanes) and FMA.
//! * **`Scalar`** — the portable loops of [`scalar`] that every backend
//!   is tested against; always available.
//!
//! # Determinism contract
//!
//! The default [`KernelMode::Strict`] stays **bit-identical to the
//! historical serial scalar loop on every backend and at every thread
//! count**. The blocked kernels vectorize only across *independent
//! output elements* (lanes of the feature dimension), never across a
//! reduction: each output element still accumulates its terms in exactly
//! the serial order with separately rounded multiply and add (`acc + a *
//! b`, which Rust never contracts into an FMA). Kernels whose inner loop
//! *is* a reduction (the `A·Bᵀ` dot products) stay scalar in strict
//! mode, because any vectorization would reassociate the sum.
//!
//! [`KernelMode::Fast`] (opt-in: `--kernel fast` or `GNN_KERNEL=fast`)
//! unlocks fused multiply-add and multi-accumulator reductions. Results
//! then differ from strict by rounding only: property tests bound the
//! max relative error at [`FAST_MODE_RTOL`].
//!
//! # Environment
//!
//! * `GNN_KERNEL=strict|fast` — default mode (CLI `--kernel` overrides).
//! * `GNN_KERNEL_BACKEND=auto|scalar|avx2|neon` — pins the backend;
//!   an unsupported pin falls back to scalar (never to an illegal
//!   instruction). `scalar` is how CI's portable job forces the
//!   fallback path on SIMD-capable hosts.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

pub mod blocked;
pub mod scalar;

/// Documented bound on `max|fast − strict| / scale` for the Fast-mode
/// kernels (FMA + 4-way reassociated reductions), where `scale` is the
/// magnitude of the computation — the result's infinity norm for matrix
/// ops, `Σ|xᵢ·yᵢ|` for dot products. (Per-element relative error is the
/// wrong contract: cancellation can leave individual outputs near zero.)
/// The real error is a few ULPs; the bound leaves three orders of
/// magnitude of headroom and is asserted by `tests/kernel_dispatch.rs`.
pub const FAST_MODE_RTOL: f64 = 1e-12;

/// Numerical mode of the kernel layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelMode {
    /// Bit-identical to the historical serial scalar loop (default).
    Strict,
    /// FMA + reassociated reductions; bounded by [`FAST_MODE_RTOL`].
    Fast,
}

impl KernelMode {
    /// Parses `strict` / `fast` (the `--kernel` and `GNN_KERNEL` values).
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "strict" => Ok(Self::Strict),
            "fast" => Ok(Self::Fast),
            other => Err(format!("unknown kernel mode {other} (strict|fast)")),
        }
    }

    /// The mode's CLI spelling.
    pub fn label(self) -> &'static str {
        match self {
            Self::Strict => "strict",
            Self::Fast => "fast",
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
    /// aarch64 NEON: the blocked kernels at 2 × f64 lanes.
    Neon,
}

impl Backend {
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
            Backend::Neon => cfg!(target_arch = "aarch64"), // NEON is aarch64 baseline
            #[allow(unreachable_patterns)]
            _ => false,
        }
    }

    /// The best supported backend, honoring `GNN_KERNEL_BACKEND`.
    /// Detected once per process and cached.
    pub fn detect() -> Backend {
        static DETECTED: OnceLock<Backend> = OnceLock::new();
        *DETECTED.get_or_init(|| {
            let pinned = std::env::var("GNN_KERNEL_BACKEND").ok();
            let pick = match pinned.as_deref() {
                Some("scalar") => Some(Backend::Scalar),
                Some("avx2") => Some(Backend::Avx2),
                Some("neon") => Some(Backend::Neon),
                _ => None, // auto (also any unrecognized value)
            };
            match pick {
                Some(b) if b.supported() => b,
                Some(_) => Backend::Scalar, // pinned but unsupported: safe fallback
                None => [Backend::Avx2, Backend::Neon]
                    .into_iter()
                    .find(|b| b.supported())
                    .unwrap_or(Backend::Scalar),
            }
        })
    }

    /// Short name used in logs, bench keys and JSON.
    pub fn label(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
            Backend::Neon => "neon",
        }
    }
}

/// Process-wide mode: 0 = unset (use `GNN_KERNEL` env), 1 = strict,
/// 2 = fast.
static MODE: AtomicU8 = AtomicU8::new(0);

/// Process-wide forced backend (bench/test hook): 0 = auto-detect,
/// 1 = scalar, 2 = avx2, 3 = neon.
static FORCED: AtomicU8 = AtomicU8::new(0);

fn env_mode() -> KernelMode {
    static ENV: OnceLock<KernelMode> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("GNN_KERNEL")
            .ok()
            .and_then(|s| KernelMode::parse(&s).ok())
            .unwrap_or(KernelMode::Strict)
    })
}

/// Sets the process-wide kernel mode (CLI `--kernel`).
pub fn set_mode(mode: KernelMode) {
    let v = match mode {
        KernelMode::Strict => 1,
        KernelMode::Fast => 2,
    };
    MODE.store(v, Ordering::Relaxed);
}

/// The mode kernels run in: [`set_mode`] if called, else `GNN_KERNEL`,
/// else [`KernelMode::Strict`].
pub fn current_mode() -> KernelMode {
    match MODE.load(Ordering::Relaxed) {
        1 => KernelMode::Strict,
        2 => KernelMode::Fast,
        _ => env_mode(),
    }
}

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
        _ => Backend::detect(),
    }
}

/// A resolved (backend, mode) pair. Kernels resolve dispatch **once per
/// matrix operation** (two atomic loads), then every row/chunk call is a
/// branch on plain enum values (plus `Avx2`'s cached feature check).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Kernels {
    /// The instruction set the kernels execute on.
    pub backend: Backend,
    /// Strict (bit-exact) or fast (FMA) numerics.
    pub mode: KernelMode,
}

/// The currently active (backend, mode) pair.
pub fn active() -> Kernels {
    Kernels {
        backend: active_backend(),
        mode: current_mode(),
    }
}

impl Kernels {
    /// A pair that always runs the portable strict loops (the oracle).
    pub fn scalar_strict() -> Self {
        Kernels {
            backend: Backend::Scalar,
            mode: KernelMode::Strict,
        }
    }

    #[inline]
    fn fast(self) -> bool {
        self.mode == KernelMode::Fast
    }

    /// One SpMM output row: `out_row[0..f] += Σ vals[k] · h[cols[k]·f ..]`,
    /// accumulating nonzeros in CSR order per output element.
    #[inline]
    pub fn spmm_row(self, cols: &[u32], vals: &[f64], h: &[f64], f: usize, out_row: &mut [f64]) {
        debug_assert_eq!(cols.len(), vals.len());
        debug_assert_eq!(out_row.len(), f);
        match self.backend {
            // SAFETY: the guard has just confirmed AVX2 and FMA on this CPU.
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 if Backend::Avx2.supported() => unsafe {
                avx2::spmm_row(cols, vals, h, f, out_row, self.fast())
            },
            #[cfg(target_arch = "aarch64")]
            Backend::Neon if self.fast() => blocked::spmm_row::<true>(cols, vals, h, f, out_row),
            #[cfg(target_arch = "aarch64")]
            Backend::Neon => blocked::spmm_row::<false>(cols, vals, h, f, out_row),
            _ => scalar::spmm_row(cols, vals, h, f, out_row),
        }
    }

    /// One GEMM output row from zero:
    /// `out_row[0..n] = Σ_k a_row[k] · b[k·n .. k·n+n]`, terms in
    /// ascending `k` with exact zeros skipped (the historical kernel's
    /// order).
    #[inline]
    pub fn gemm_row(self, a_row: &[f64], b: &[f64], n: usize, out_row: &mut [f64]) {
        debug_assert_eq!(out_row.len(), n);
        debug_assert_eq!(b.len(), a_row.len() * n);
        match self.backend {
            // SAFETY: the guard has just confirmed AVX2 and FMA on this CPU.
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 if Backend::Avx2.supported() => unsafe {
                avx2::gemm_row(a_row, b, n, out_row, self.fast())
            },
            #[cfg(target_arch = "aarch64")]
            Backend::Neon if self.fast() => blocked::gemm_row::<true>(a_row, b, n, out_row),
            #[cfg(target_arch = "aarch64")]
            Backend::Neon => blocked::gemm_row::<false>(a_row, b, n, out_row),
            _ => scalar::gemm_row(a_row, b, n, out_row),
        }
    }

    /// `AᵀB` for the output rows `k0 .. k0 + out.len()/n` of the
    /// product of `a` (`rows × lda`) and `b` (`rows × n`):
    /// `out[k − k0][j] = Σ_i a[i·lda + k] · b[i·n + j]`, overwriting
    /// `out`. Terms accumulate in ascending `i` with exact zeros of `a`
    /// skipped; lanes are independent output elements, so SIMD stays
    /// bit-exact.
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
            // SAFETY: the guard has just confirmed AVX2 and FMA on this CPU.
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 if Backend::Avx2.supported() => unsafe {
                avx2::gemm_t(a, lda, k0, b, n, out, self.fast())
            },
            #[cfg(target_arch = "aarch64")]
            Backend::Neon if self.fast() => blocked::gemm_t::<true>(a, lda, k0, b, n, out),
            #[cfg(target_arch = "aarch64")]
            Backend::Neon => blocked::gemm_t::<false>(a, lda, k0, b, n, out),
            _ => scalar::gemm_t(a, lda, k0, b, n, out),
        }
    }

    /// Dot product `Σ a[i]·b[i]` (the `A·Bᵀ` inner kernel). A true
    /// reduction: strict mode is scalar on every backend (vectorizing
    /// would reassociate); fast mode uses multi-accumulator SIMD.
    #[inline]
    pub fn dot(self, a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        if !self.fast() {
            return scalar::dot(a, b);
        }
        match self.backend {
            // SAFETY: the guard has just confirmed AVX2 and FMA on this CPU.
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 if Backend::Avx2.supported() => unsafe { avx2::dot_fast(a, b) },
            #[cfg(target_arch = "aarch64")]
            Backend::Neon => blocked::dot_fast(a, b),
            _ => scalar::dot(a, b),
        }
    }
}

/// The [`blocked`] kernels compiled with AVX2 and FMA enabled. Each
/// wrapper inlines its generic kernel, so the compiler vectorizes it 4
/// lanes wide and lowers fast mode's `mul_add` to `vfmadd`. Callers must
/// have checked that the CPU has both features ([`Backend::supported`]).
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::blocked;

    #[target_feature(enable = "avx2,fma")]
    pub(super) fn spmm_row(
        cols: &[u32],
        vals: &[f64],
        h: &[f64],
        f: usize,
        out: &mut [f64],
        fast: bool,
    ) {
        if fast {
            blocked::spmm_row::<true>(cols, vals, h, f, out)
        } else {
            blocked::spmm_row::<false>(cols, vals, h, f, out)
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) fn gemm_row(a_row: &[f64], b: &[f64], n: usize, out: &mut [f64], fast: bool) {
        if fast {
            blocked::gemm_row::<true>(a_row, b, n, out)
        } else {
            blocked::gemm_row::<false>(a_row, b, n, out)
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) fn gemm_t(
        a: &[f64],
        lda: usize,
        k0: usize,
        b: &[f64],
        n: usize,
        out: &mut [f64],
        fast: bool,
    ) {
        if fast {
            blocked::gemm_t::<true>(a, lda, k0, b, n, out)
        } else {
            blocked::gemm_t::<false>(a, lda, k0, b, n, out)
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) fn dot_fast(a: &[f64], b: &[f64]) -> f64 {
        blocked::dot_fast(a, b)
    }
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
        for be in [Backend::Avx2, Backend::Neon] {
            if !be.supported() {
                assert!(try_force_backend(be).is_err());
                // The failed pin must not change dispatch.
                assert!(active_backend().supported());
            }
        }
    }

    #[test]
    fn mode_parse_roundtrip() {
        assert_eq!(KernelMode::parse("strict"), Ok(KernelMode::Strict));
        assert_eq!(KernelMode::parse("fast"), Ok(KernelMode::Fast));
        assert!(KernelMode::parse("fused").is_err());
        assert_eq!(KernelMode::Fast.label(), "fast");
    }

    #[test]
    fn measured_gflops_is_positive_and_cached() {
        let a = measured_gflops();
        assert!(a.is_finite() && a > 0.0);
        assert_eq!(measured_gflops(), a, "must be cached");
    }
}
