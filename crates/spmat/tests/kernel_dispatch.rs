//! Property tests for the SIMD kernel dispatch layer.
//!
//! The contract under test (see `spmat::kernel`):
//!
//! 1. **Strict mode is bit-identical to the portable scalar oracle on
//!    every backend**, at every feature width (specialized and generic,
//!    including awkward tails) and every thread count.
//! 2. **Fast mode** (FMA + reassociated reductions) stays within the
//!    documented relative-error bound `FAST_MODE_RTOL` of strict.
//! 3. **Dispatch never selects an unsupported backend**, and pinning an
//!    unsupported one fails instead of executing illegal instructions.
//!
//! Most comparisons drive per-row kernels through explicit
//! [`Kernels`] values (pure, no global state). The thread-count sweep
//! exercises the full public ops (`spmm_with`, `matmul_with`, …) and
//! therefore pins the process-global backend/mode — those sections
//! serialize on a file-local mutex so the file's tests can still run
//! concurrently.

use std::sync::Mutex;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use spmat::kernel::{self, Backend, KernelMode, Kernels, FAST_MODE_RTOL};
use spmat::spmm::spmm_with;
use spmat::{Coo, Csr, Dense};

/// Serializes every test section that mutates the process-global
/// backend/mode pins.
static GLOBAL_DISPATCH: Mutex<()> = Mutex::new(());

/// Feature widths crossing every code path: sub-lane tails, exact lane
/// multiples, every rung of the register-block ladder alone and stacked
/// (12 = 8 + 4, 24 = 16 + 8, 40 = 32 + 8), the specialized widths and
/// their off-by-one neighbors, multi-block generic widths, and the
/// datasets' 300 = 9·32 + 8 + 4.
const WIDTHS: &[usize] = &[
    1, 3, 4, 7, 8, 12, 16, 24, 31, 32, 33, 40, 48, 63, 64, 65, 96, 127, 128, 129, 160, 300,
];

/// Every backend this host can execute (scalar always; SIMD when real).
fn supported_backends() -> Vec<Backend> {
    [Backend::Scalar, Backend::Avx2, Backend::Neon]
        .into_iter()
        .filter(|b| b.supported())
        .collect()
}

fn random_csr(rows: usize, cols: usize, density: f64, rng: &mut StdRng) -> Csr {
    let mut coo = Coo::new(rows, cols);
    for r in 0..rows {
        for c in 0..cols {
            if rng.gen_bool(density) {
                coo.push(r, c, rng.gen_range(-1.0..1.0));
            }
        }
    }
    coo.to_csr()
}

/// Max element-wise difference scaled by the result's infinity norm —
/// `FAST_MODE_RTOL` is documented relative to the computation's scale,
/// not per element (cancellation can leave individual elements near
/// zero with arbitrarily large per-element relative error).
fn max_rel_diff(a: &[f64], b: &[f64]) -> f64 {
    let scale = a.iter().chain(b).fold(1e-300_f64, |m, &x| m.max(x.abs()));
    a.iter()
        .zip(b)
        .map(|(&x, &y)| (x - y).abs() / scale)
        .fold(0.0, f64::max)
}

#[test]
fn detect_only_picks_supported_backends() {
    assert!(Backend::detect().supported());
    assert!(kernel::active().backend.supported());
    for b in [Backend::Avx2, Backend::Neon] {
        if !b.supported() {
            assert!(
                kernel::try_force_backend(b).is_err(),
                "{} must refuse to pin on a host that cannot run it",
                b.label()
            );
        }
    }
}

#[test]
fn strict_spmm_rows_bitwise_equal_scalar_on_all_backends_and_widths() {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    let oracle = Kernels::scalar_strict();
    for &f in WIDTHS {
        let k = 23;
        let a = random_csr(1, k, 0.4, &mut rng);
        let h = Dense::glorot(k, f, &mut rng);
        let cols = a.row_cols(0);
        let vals = a.row_vals(0);
        // Dirty initial accumulator: += semantics must match too.
        let init: Vec<f64> = (0..f).map(|j| (j as f64 - 3.0) * 0.1).collect();
        let mut want = init.clone();
        oracle.spmm_row(cols, vals, h.data(), f, &mut want);
        for backend in supported_backends() {
            let ker = Kernels {
                backend,
                mode: KernelMode::Strict,
            };
            let mut got = init.clone();
            ker.spmm_row(cols, vals, h.data(), f, &mut got);
            assert_eq!(got, want, "backend={} f={f}", backend.label());
        }
    }
}

#[test]
fn strict_gemm_rows_bitwise_equal_scalar_on_all_backends_and_widths() {
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    let oracle = Kernels::scalar_strict();
    for &n in WIDTHS {
        let k = 17;
        // Exact zeros included: the skip branch is part of the contract.
        let a_row: Vec<f64> = (0..k)
            .map(|i| {
                if i % 5 == 0 {
                    0.0
                } else {
                    rng.gen_range(-1.0..1.0)
                }
            })
            .collect();
        let b = Dense::glorot(k, n, &mut rng);
        let mut want = vec![9.0; n]; // overwritten, not accumulated
        oracle.gemm_row(&a_row, b.data(), n, &mut want);
        for backend in supported_backends() {
            let ker = Kernels {
                backend,
                mode: KernelMode::Strict,
            };
            let mut got = vec![-9.0; n];
            ker.gemm_row(&a_row, b.data(), n, &mut got);
            assert_eq!(got, want, "backend={} n={n}", backend.label());
        }
    }
}

#[test]
fn strict_dot_bitwise_equal_scalar_on_all_backends() {
    let mut rng = StdRng::seed_from_u64(0xABCD);
    let oracle = Kernels::scalar_strict();
    for &n in WIDTHS {
        let x: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let y: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let want_dot = oracle.dot(&x, &y);
        for backend in supported_backends() {
            let ker = Kernels {
                backend,
                mode: KernelMode::Strict,
            };
            // Strict dot is a reduction → scalar on every backend.
            assert_eq!(
                ker.dot(&x, &y).to_bits(),
                want_dot.to_bits(),
                "dot backend={} n={n}",
                backend.label()
            );
        }
    }
}

/// `AᵀB` inputs the weight-gradient kernel meets: dense features, exact
/// zeros and `-0.0` scattered through `a` (the skip branch is part of the
/// contract), and ReLU-style columns of `a` that are zero in half their
/// rows.
fn transpose_matmul_operands(rows: usize, k: usize, n: usize, rng: &mut StdRng) -> (Dense, Dense) {
    let a = Dense::from_fn(rows, k, |r, c| {
        let v: f64 = rng.gen_range(-1.0..1.0);
        match (r * 7 + c * 3) % 11 {
            0 => 0.0,
            1 => -0.0,
            _ if c % 2 == 1 => v.max(0.0),
            _ => v,
        }
    });
    let b = Dense::from_fn(rows, n, |_, _| rng.gen_range(-1.0..1.0));
    (a, b)
}

#[test]
fn strict_transpose_matmul_bitwise_equals_scalar() {
    let _guard = GLOBAL_DISPATCH.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = StdRng::seed_from_u64(0x7A7A);
    kernel::set_mode(KernelMode::Strict);
    for rows in [0usize, 1, 127, 128, 129, 1000] {
        for k in [1usize, 2, 3, 16, 300] {
            for n in [1usize, 4, 12, 16, 24, 33] {
                let (a, b) = transpose_matmul_operands(rows, k, n, &mut rng);
                // The oracle: the scalar kernel over all output rows at once.
                let mut want = vec![f64::NAN; k * n];
                Kernels::scalar_strict().gemm_t(a.data(), k, 0, b.data(), n, &mut want);
                for backend in supported_backends() {
                    kernel::try_force_backend(backend).unwrap();
                    for threads in [1usize, 2, 4, 7] {
                        let mut got = Dense::from_fn(k, n, |_, _| f64::NAN); // overwritten
                        a.transpose_matmul_into_with(&b, &mut got, threads);
                        let same = got
                            .data()
                            .iter()
                            .zip(&want)
                            .all(|(g, w)| g.to_bits() == w.to_bits());
                        assert!(
                            same,
                            "backend={} rows={rows} k={k} n={n} threads={threads}",
                            backend.label()
                        );
                    }
                }
            }
        }
    }
    kernel::clear_forced_backend();
}

#[test]
fn strict_full_ops_bitwise_equal_across_backends_and_thread_counts() {
    let _guard = GLOBAL_DISPATCH.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = StdRng::seed_from_u64(0xDEAD);
    // Multiple scheduling chunks in every op; mixed specialized (64) and
    // generic (33) widths.
    for &f in &[33usize, 64] {
        let a = random_csr(200, 90, 0.15, &mut rng);
        let h = Dense::glorot(90, f, &mut rng);
        let w = Dense::glorot(f, 48, &mut rng);
        let mut want: Option<(Dense, Dense, Dense, Dense)> = None;
        for backend in supported_backends() {
            kernel::try_force_backend(backend).unwrap();
            kernel::set_mode(KernelMode::Strict);
            for threads in [1usize, 2, 4, 7] {
                let got = (
                    spmm_with(&a, &h, threads),
                    h.matmul_with(&w, threads),
                    h.transpose_matmul_with(&h, threads),
                    h.matmul_transpose_with(&h, threads),
                );
                match &want {
                    None => want = Some(got),
                    Some(w0) => {
                        assert_eq!(
                            got.0.data(),
                            w0.0.data(),
                            "spmm {backend:?} t={threads} f={f}"
                        );
                        assert_eq!(
                            got.1.data(),
                            w0.1.data(),
                            "gemm {backend:?} t={threads} f={f}"
                        );
                        assert_eq!(
                            got.2.data(),
                            w0.2.data(),
                            "transpose_matmul {backend:?} t={threads} f={f}"
                        );
                        assert_eq!(
                            got.3.data(),
                            w0.3.data(),
                            "matmul_transpose {backend:?} t={threads} f={f}"
                        );
                    }
                }
            }
        }
        kernel::clear_forced_backend();
    }
}

#[test]
fn fast_mode_stays_within_documented_tolerance() {
    let mut rng = StdRng::seed_from_u64(0xFA57);
    let oracle = Kernels::scalar_strict();
    for &f in WIDTHS {
        let k = 64;
        let a = random_csr(1, k, 0.5, &mut rng);
        let h = Dense::glorot(k, f, &mut rng);
        let (cols, vals) = (a.row_cols(0), a.row_vals(0));
        let mut want = vec![0.0; f];
        oracle.spmm_row(cols, vals, h.data(), f, &mut want);
        let x: Vec<f64> = (0..256).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let y: Vec<f64> = (0..256).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let want_dot = oracle.dot(&x, &y);
        for backend in supported_backends() {
            let ker = Kernels {
                backend,
                mode: KernelMode::Fast,
            };
            let mut got = vec![0.0; f];
            ker.spmm_row(cols, vals, h.data(), f, &mut got);
            assert!(
                max_rel_diff(&got, &want) <= FAST_MODE_RTOL,
                "fast spmm beyond rtol: backend={} f={f}",
                backend.label()
            );
            let got_dot = ker.dot(&x, &y);
            // Scale of the reduction, immune to cancellation in the sum.
            let denom = x
                .iter()
                .zip(&y)
                .map(|(a, b)| (a * b).abs())
                .sum::<f64>()
                .max(1e-300);
            assert!(
                (got_dot - want_dot).abs() / denom <= FAST_MODE_RTOL,
                "fast dot beyond rtol: backend={}",
                backend.label()
            );
        }
    }
}

#[test]
fn fast_mode_full_training_ops_close_to_strict() {
    let _guard = GLOBAL_DISPATCH.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let a = random_csr(150, 80, 0.2, &mut rng);
    let h = Dense::glorot(80, 64, &mut rng);
    kernel::clear_forced_backend();
    kernel::set_mode(KernelMode::Strict);
    let strict = spmm_with(&a, &h, 2);
    let strict_mt = h.matmul_transpose_with(&h, 2);
    let strict_tm = h.transpose_matmul_with(&h, 2);
    kernel::set_mode(KernelMode::Fast);
    let fast = spmm_with(&a, &h, 2);
    let fast_mt = h.matmul_transpose_with(&h, 2);
    let fast_tm = h.transpose_matmul_with(&h, 2);
    kernel::set_mode(KernelMode::Strict);
    assert!(max_rel_diff(fast.data(), strict.data()) <= FAST_MODE_RTOL);
    assert!(max_rel_diff(fast_mt.data(), strict_mt.data()) <= FAST_MODE_RTOL);
    assert!(max_rel_diff(fast_tm.data(), strict_tm.data()) <= FAST_MODE_RTOL);
}

#[test]
fn forced_backend_roundtrip_restores_auto_detect() {
    let _guard = GLOBAL_DISPATCH.lock().unwrap_or_else(|e| e.into_inner());
    let auto = Backend::detect();
    kernel::try_force_backend(Backend::Scalar).unwrap();
    assert_eq!(kernel::active().backend, Backend::Scalar);
    kernel::clear_forced_backend();
    assert_eq!(kernel::active().backend, auto);
}
