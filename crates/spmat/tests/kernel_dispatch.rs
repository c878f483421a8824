//! Property tests for the SIMD kernel dispatch layer.
//!
//! The contract under test (see `spmat::kernel`):
//!
//! 1. **Every kernel is bit-identical to the portable scalar oracle on
//!    every backend**, at every feature width (specialized and generic,
//!    including awkward tails) and every thread count.
//! 2. **`GNN_KERNEL_BACKEND` is honoured**: unpinned, dispatch picks the
//!    best supported backend; pinned to a supported name, that backend.
//! 3. **Dispatch never selects an unsupported backend**, and pinning an
//!    unsupported one fails instead of executing illegal instructions.
//!
//! Most comparisons drive per-row kernels through explicit
//! [`Kernels`] values (pure, no global state). The thread-count sweep
//! exercises the full public ops (`spmm_with`, `matmul_with`, …) and
//! therefore pins the process-global backend — those sections
//! serialize on a file-local mutex so the file's tests can still run
//! concurrently.

use std::sync::Mutex;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use spmat::kernel::{self, Backend, KernelMode, Kernels};
use spmat::spmm::spmm_with;
use spmat::{Coo, Csr, Dense};

/// Serializes every test section that mutates the process-global
/// backend pin.
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
    [
        Backend::Scalar,
        Backend::Avx2,
        Backend::Avx512,
        Backend::Neon,
    ]
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

#[test]
fn detect_only_picks_supported_backends() {
    assert!(Backend::detect().supported());
    assert!(kernel::active().backend.supported());
    for b in [Backend::Avx2, Backend::Avx512, Backend::Neon] {
        if !b.supported() {
            assert!(
                kernel::try_force_backend(b).is_err(),
                "{} must refuse to pin on a host that cannot run it",
                b.label()
            );
        }
    }
}

/// The CI leg that sets `GNN_KERNEL_BACKEND=scalar` fails here if the
/// pin is ignored; unpinned, dispatch must not settle for less than the
/// host offers.
#[test]
fn detect_honours_the_env_pin() {
    let best = [Backend::Avx512, Backend::Avx2, Backend::Neon]
        .into_iter()
        .find(|b| b.supported())
        .unwrap_or(Backend::Scalar);
    let pin = std::env::var("GNN_KERNEL_BACKEND").ok();
    let want = match pin.as_deref() {
        None | Some("auto") => best,
        Some(name) => supported_backends()
            .into_iter()
            .find(|b| b.label() == name)
            .unwrap_or(Backend::Scalar),
    };
    assert_eq!(Backend::detect(), want, "GNN_KERNEL_BACKEND={pin:?}");
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
        // 1 to 9 rows: every split into 4-row tiles and single tail rows.
        for rows in 1..=9 {
            // Exact zeros included: the oracle skips them, the blocked
            // kernels add them, and the bits must agree.
            let a: Vec<f64> = (0..rows * k)
                .map(|i| {
                    if i % 5 == 0 {
                        0.0
                    } else {
                        rng.gen_range(-1.0..1.0)
                    }
                })
                .collect();
            let b = Dense::glorot(k, n, &mut rng);
            let mut want = vec![9.0; rows * n]; // overwritten, not accumulated
            oracle.gemm_rows(&a, k, b.data(), n, &mut want);
            for backend in supported_backends() {
                let ker = Kernels {
                    backend,
                    mode: KernelMode::Strict,
                };
                let mut got = vec![-9.0; rows * n];
                ker.gemm_rows(&a, k, b.data(), n, &mut got);
                assert_eq!(got, want, "backend={} rows={rows} n={n}", backend.label());
            }
        }
    }
}

/// `AᵀB` inputs the weight-gradient kernel meets: dense features, exact
/// zeros and `-0.0` scattered through `a` (skipped by the oracle, added
/// by the blocked kernels), and ReLU-style columns of `a` that are zero
/// in half their rows.
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

/// ReLU outputs: about half the entries `+0.0` or `-0.0`, at random
/// positions — the `a` operand of every narrow GEMM training runs.
fn relu_sparse(rows: usize, cols: usize, rng: &mut StdRng) -> Dense {
    Dense::from_fn(rows, cols, |_, _| {
        let v: f64 = rng.gen_range(-1.0..1.0);
        if v > 0.0 {
            v
        } else if rng.gen_bool(0.5) {
            0.0
        } else {
            -0.0
        }
    })
}

fn assert_bits(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}");
    let same = got
        .iter()
        .zip(want)
        .all(|(g, w)| g.to_bits() == w.to_bits());
    assert!(same, "{what}");
}

#[test]
fn strict_gemms_on_relu_sparse_inputs_bitwise_equal_scalar() {
    let _guard = GLOBAL_DISPATCH.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = StdRng::seed_from_u64(0x2E10);
    let oracle = Kernels::scalar_strict();
    // Several GEMM chunks and `gemm_t` row blocks, the last one ragged.
    let rows = 133;
    // Every pairing of the model's widths but 300 × 300, which no layer
    // multiplies.
    for k in [16usize, 24, 300] {
        for n in [16usize, 24, 300].into_iter().filter(|&n| k + n < 600) {
            let a = relu_sparse(rows, k, &mut rng);
            let b = Dense::glorot(k, n, &mut rng);
            let c = Dense::glorot(rows, n, &mut rng);
            let mut want_ab = vec![f64::NAN; rows * n];
            oracle.gemm_rows(a.data(), k, b.data(), n, &mut want_ab);
            let mut want_atc = vec![f64::NAN; k * n];
            oracle.gemm_t(a.data(), k, 0, c.data(), n, &mut want_atc);
            // Gradient propagation `S·Wᵀ`: a GEMM against the transposed
            // tile gives the sequential dot products' bits.
            let w = Dense::glorot(n, k, &mut rng);
            let mut want_swt = Dense::zeros(rows, n);
            a.matmul_transpose_into_with(&w, &mut want_swt, 1);
            let w_t = w.transpose();
            for backend in supported_backends() {
                kernel::try_force_backend(backend).unwrap();
                for threads in [1usize, 2, 4] {
                    let what = format!("backend={} k={k} n={n} t={threads}", backend.label());
                    let mut got = Dense::from_fn(rows, n, |_, _| f64::NAN);
                    a.matmul_into_with(&b, &mut got, threads);
                    assert_bits(got.data(), &want_ab, &format!("A·B {what}"));
                    let mut got = Dense::from_fn(k, n, |_, _| f64::NAN);
                    a.transpose_matmul_into_with(&c, &mut got, threads);
                    assert_bits(got.data(), &want_atc, &format!("AᵀC {what}"));
                    let mut got = Dense::from_fn(rows, n, |_, _| f64::NAN);
                    a.matmul_into_with(&w_t, &mut got, threads);
                    assert_bits(got.data(), want_swt.data(), &format!("A·(Wᵀ) {what}"));
                }
            }
        }
    }
    kernel::clear_forced_backend();
}

fn assert_no_negative_zero(got: &[f64], what: &str) {
    let at = got.iter().position(|v| v.to_bits() == (-0.0f64).to_bits());
    assert_eq!(at, None, "-0.0 in {what}");
}

/// The precondition of splitting a product across replicas and summing
/// the zero-padded slabs: no GEMM returns `-0.0`, on any backend, at
/// any thread count, on any slab of its rows — even from operands full
/// of `±0.0`, ReLU-sparse rows, rows and columns that are all `-0.0`,
/// and an empty inner dimension, where every term is a zero.
#[test]
fn gemms_never_return_negative_zero() {
    let _guard = GLOBAL_DISPATCH.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = StdRng::seed_from_u64(0x0517);
    let signed_zeros = |rows: usize, cols: usize, rng: &mut StdRng| {
        Dense::from_fn(rows, cols, |r, c| match (r + 2 * c) % 4 {
            0 => 0.0,
            1 => -0.0,
            _ => rng.gen_range(-1.0..1.0),
        })
    };
    let rows = 70;
    for (k, n) in [(0usize, 16usize), (16, 16), (300, 16), (16, 300), (24, 33)] {
        let mut a = relu_sparse(rows, k, &mut rng);
        // An all-(-0.0) row and column of `a`: every term of their
        // outputs is a signed zero.
        for c in 0..k {
            a.set(3, c, -0.0);
        }
        for r in 0..rows {
            if k > 0 {
                a.set(r, k / 2, -0.0);
            }
        }
        let b = signed_zeros(k, n, &mut rng);
        let c = signed_zeros(rows, n, &mut rng);
        for backend in supported_backends() {
            kernel::try_force_backend(backend).unwrap();
            let ker = kernel::active();
            for threads in [1usize, 2, 4] {
                let what = format!("{} k={k} n={n} t={threads}", backend.label());
                let mut out = Dense::from_fn(rows, n, |_, _| -0.0);
                a.matmul_into_with(&b, &mut out, threads);
                assert_no_negative_zero(out.data(), &format!("A·B {what}"));
                let mut out = Dense::from_fn(k, n, |_, _| -0.0);
                a.transpose_matmul_into_with(&c, &mut out, threads);
                assert_no_negative_zero(out.data(), &format!("AᵀC {what}"));
            }
            // The kernels themselves, on every slab of a 3-way split.
            for part in 0..3 {
                let what = format!("{} k={k} n={n} slab {part}", backend.label());
                let (lo, hi) = (part * rows / 3, (part + 1) * rows / 3);
                let mut out = vec![-0.0; (hi - lo) * n];
                ker.gemm_rows(&a.data()[lo * k..hi * k], k, b.data(), n, &mut out);
                assert_no_negative_zero(&out, &format!("gemm_rows {what}"));
                let (lo, hi) = (part * k / 3, (part + 1) * k / 3);
                if n > 0 && k > 0 {
                    let mut out = vec![-0.0; (hi - lo) * n];
                    ker.gemm_t(a.data(), k, lo, c.data(), n, &mut out);
                    assert_no_negative_zero(&out, &format!("gemm_t {what}"));
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
fn forced_backend_roundtrip_restores_auto_detect() {
    let _guard = GLOBAL_DISPATCH.lock().unwrap_or_else(|e| e.into_inner());
    let auto = Backend::detect();
    kernel::try_force_backend(Backend::Scalar).unwrap();
    assert_eq!(kernel::active().backend, Backend::Scalar);
    kernel::clear_forced_backend();
    assert_eq!(kernel::active().backend, auto);
}
