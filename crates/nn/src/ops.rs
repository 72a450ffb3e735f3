//! Exact `f32` matrix kernels used by the training path (inference under
//! the approximate datapaths lives in [`crate::eval`]).
//!
//! The kernels run on [`axcore_parallel`]'s persistent worker pool,
//! split over disjoint output rows. Each output element's accumulation
//! order is identical to the serial loops, so results are bit-identical
//! at any thread count.

use axcore::GemmError;
use axcore_parallel::par_chunks_mut;

/// Check one buffer length, reporting mismatches as [`GemmError`].
fn check_len(what: &'static str, got: usize, expected: usize) -> Result<(), GemmError> {
    if got != expected {
        return Err(GemmError::DimMismatch { what, expected, got });
    }
    Ok(())
}

/// Run `f` serially when the kernel's MAC count is too small to amortize
/// thread spawns (results are bit-identical either way — this is purely a
/// scheduling decision).
fn with_pool_if_worthwhile(macs: usize, f: impl FnOnce()) {
    const MIN_PARALLEL_MACS: usize = 32 * 1024;
    if macs < MIN_PARALLEL_MACS {
        axcore_parallel::with_threads(1, f);
    } else {
        f();
    }
}

/// `out = a · b` with `a: m×k`, `b: k×n`, all row-major.
///
/// # Panics
///
/// Panics on shape mismatches (shim over [`try_matmul`]).
pub fn matmul(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    try_matmul(a, m, k, b, n, out).unwrap_or_else(|e| panic!("{e}"))
}

/// `out = a · b`, reporting shape mismatches as a [`GemmError`].
pub fn try_matmul(
    a: &[f32],
    m: usize,
    k: usize,
    b: &[f32],
    n: usize,
    out: &mut [f32],
) -> Result<(), GemmError> {
    check_len("lhs shape mismatch", a.len(), m * k)?;
    check_len("rhs shape mismatch", b.len(), k * n)?;
    check_len("output shape mismatch", out.len(), m * n)?;
    if n == 0 {
        return Ok(());
    }
    with_pool_if_worthwhile(m * k * n, || {
        par_chunks_mut(out, n, |i, orow| {
            orow.fill(0.0);
            for kk in 0..k {
                let av = a[i * k + kk];
                if av == 0.0 {
                    continue;
                }
                let brow = &b[kk * n..kk * n + n];
                for j in 0..n {
                    orow[j] += av * brow[j];
                }
            }
        });
    });
    Ok(())
}

/// `out = a · bᵀ` with `a: m×n`, `b: k×n` (row-major), producing `m×k`.
/// This is the `dX = dY · Wᵀ` shape of a linear layer's backward pass.
///
/// # Panics
///
/// Panics on shape mismatches (shim over [`try_matmul_bt`]).
pub fn matmul_bt(a: &[f32], m: usize, n: usize, b: &[f32], k: usize, out: &mut [f32]) {
    try_matmul_bt(a, m, n, b, k, out).unwrap_or_else(|e| panic!("{e}"))
}

/// `out = a · bᵀ`, reporting shape mismatches as a [`GemmError`].
pub fn try_matmul_bt(
    a: &[f32],
    m: usize,
    n: usize,
    b: &[f32],
    k: usize,
    out: &mut [f32],
) -> Result<(), GemmError> {
    check_len("lhs shape mismatch", a.len(), m * n)?;
    check_len("rhs shape mismatch", b.len(), k * n)?;
    check_len("output shape mismatch", out.len(), m * k)?;
    if k == 0 {
        return Ok(());
    }
    with_pool_if_worthwhile(m * n * k, || {
        par_chunks_mut(out, k, |i, orow| {
            let arow = &a[i * n..i * n + n];
            for (kk, o) in orow.iter_mut().enumerate() {
                let brow = &b[kk * n..kk * n + n];
                let mut acc = 0f32;
                for j in 0..n {
                    acc += arow[j] * brow[j];
                }
                *o = acc;
            }
        });
    });
    Ok(())
}

/// `out += aᵀ · b` with `a: m×k`, `b: m×n`, producing `k×n`.
/// This is the `dW += Xᵀ · dY` shape; note the accumulation.
///
/// Parallelized over output rows (one row per input channel `kk`); for
/// each output element the `i` summation order matches the serial loop.
///
/// # Panics
///
/// Panics on shape mismatches (shim over [`try_matmul_at_acc`]).
pub fn matmul_at_acc(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    try_matmul_at_acc(a, m, k, b, n, out).unwrap_or_else(|e| panic!("{e}"))
}

/// `out += aᵀ · b`, reporting shape mismatches as a [`GemmError`].
pub fn try_matmul_at_acc(
    a: &[f32],
    m: usize,
    k: usize,
    b: &[f32],
    n: usize,
    out: &mut [f32],
) -> Result<(), GemmError> {
    check_len("lhs shape mismatch", a.len(), m * k)?;
    check_len("rhs shape mismatch", b.len(), m * n)?;
    check_len("output shape mismatch", out.len(), k * n)?;
    if n == 0 {
        return Ok(());
    }
    with_pool_if_worthwhile(m * k * n, || {
        par_chunks_mut(out, n, |kk, orow| {
            for i in 0..m {
                let av = a[i * k + kk];
                if av == 0.0 {
                    continue;
                }
                let brow = &b[i * n..i * n + n];
                for j in 0..n {
                    orow[j] += av * brow[j];
                }
            }
        });
    });
    Ok(())
}

/// Numerically-stable softmax over each row of an `m×n` matrix, in place.
pub fn softmax_rows(x: &mut [f32], m: usize, n: usize) {
    assert_eq!(x.len(), m * n);
    if n == 0 {
        return;
    }
    with_pool_if_worthwhile(m * n * 16, || {
        par_chunks_mut(x, n, |_, row| {
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0f32;
            for v in row.iter_mut() {
                *v = (*v - max).exp();
                sum += *v;
            }
            for v in row.iter_mut() {
                *v /= sum;
            }
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_small() {
        let a = [1.0, 2.0, 3.0, 4.0]; // 2×2
        let b = [5.0, 6.0, 7.0, 8.0];
        let mut out = [0f32; 4];
        matmul(&a, 2, 2, &b, 2, &mut out);
        assert_eq!(out, [19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn transposed_variants_agree_with_explicit_transpose() {
        let m = 3;
        let k = 4;
        let n = 5;
        let a: Vec<f32> = (0..m * n).map(|i| i as f32 * 0.3 - 2.0).collect();
        let b: Vec<f32> = (0..k * n).map(|i| (i as f32 * 0.7).sin()).collect();
        // a · bᵀ via matmul_bt vs explicit transpose of b.
        let mut bt = vec![0f32; n * k];
        for r in 0..k {
            for c in 0..n {
                bt[c * k + r] = b[r * n + c];
            }
        }
        let (mut o1, mut o2) = (vec![0f32; m * k], vec![0f32; m * k]);
        matmul_bt(&a, m, n, &b, k, &mut o1);
        matmul(&a, m, n, &bt, k, &mut o2);
        for (x, y) in o1.iter().zip(&o2) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn at_acc_accumulates() {
        let a = [1.0f32, 0.0, 0.0, 1.0]; // 2×2 identity
        let b = [3.0f32, 4.0, 5.0, 6.0];
        let mut out = vec![1f32; 4];
        matmul_at_acc(&a, 2, 2, &b, 2, &mut out);
        assert_eq!(out, vec![4.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    fn try_variants_report_shape_errors() {
        let a = [1.0f32; 4];
        let b = [1.0f32; 4];
        let mut bad = [0f32; 3];
        let e = try_matmul(&a, 2, 2, &b, 2, &mut bad).unwrap_err();
        assert!(e.to_string().contains("output shape mismatch"), "{e}");
        let e = try_matmul_bt(&a, 2, 2, &b, 3, &mut bad).unwrap_err();
        assert!(e.to_string().contains("rhs shape mismatch"), "{e}");
        let e = try_matmul_at_acc(&a[..3], 2, 2, &b, 2, &mut bad).unwrap_err();
        assert!(e.to_string().contains("lhs shape mismatch"), "{e}");
    }

    #[test]
    fn softmax_rows_normalizes() {
        let mut x = vec![1.0f32, 2.0, 3.0, 1000.0, 1000.0, 1000.0];
        softmax_rows(&mut x, 2, 3);
        let s0: f32 = x[..3].iter().sum();
        let s1: f32 = x[3..].iter().sum();
        assert!((s0 - 1.0).abs() < 1e-6 && (s1 - 1.0).abs() < 1e-6);
        assert!(x[2] > x[1] && x[1] > x[0]);
        assert!((x[3] - 1.0 / 3.0).abs() < 1e-6);
    }
}
