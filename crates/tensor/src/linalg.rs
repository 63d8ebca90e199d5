//! The small amount of dense linear algebra needed by the OBS solver.
//!
//! SparseGPT-style compression needs the inverse of a (damped) Hessian
//! `H = X X^T + lambda I`, which is symmetric positive definite. We provide a
//! Cholesky factorization, triangular solves, and a PSD inverse built from
//! them. `f64` accumulation keeps the factorization stable for the modest
//! matrix sizes used here (up to a few thousand).

use crate::matrix::Matrix;

/// Error type for factorizations that can fail on bad input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// The matrix is not (numerically) positive definite.
    NotPositiveDefinite {
        /// Index of the pivot that failed.
        pivot: usize,
    },
    /// The matrix is not square.
    NotSquare,
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::NotPositiveDefinite { pivot } => {
                write!(f, "matrix is not positive definite (pivot {pivot})")
            }
            LinalgError::NotSquare => write!(f, "matrix is not square"),
        }
    }
}

impl std::error::Error for LinalgError {}

/// Computes the lower-triangular Cholesky factor `L` with `A = L L^T`.
///
/// Only the lower triangle of `a` is read. Returns an error if a pivot is
/// non-positive, which for our use means the damping term was too small.
pub fn cholesky(a: &Matrix) -> Result<Matrix, LinalgError> {
    if a.rows() != a.cols() {
        return Err(LinalgError::NotSquare);
    }
    let n = a.rows();
    let mut l = Matrix::zeros(n, n);
    for j in 0..n {
        // Diagonal entry.
        let mut d = a.get(j, j) as f64;
        for k in 0..j {
            let v = l.get(j, k) as f64;
            d -= v * v;
        }
        if d <= 0.0 || !d.is_finite() {
            return Err(LinalgError::NotPositiveDefinite { pivot: j });
        }
        let djj = d.sqrt();
        l.set(j, j, djj as f32);
        // Column below the diagonal.
        for i in (j + 1)..n {
            let mut s = a.get(i, j) as f64;
            for k in 0..j {
                s -= l.get(i, k) as f64 * l.get(j, k) as f64;
            }
            l.set(i, j, (s / djj) as f32);
        }
    }
    Ok(l)
}

/// Solves `L y = b` for lower-triangular `L` (forward substitution).
///
/// # Panics
///
/// Panics if shapes are inconsistent.
pub fn solve_lower(l: &Matrix, b: &[f32]) -> Vec<f32> {
    let n = l.rows();
    assert_eq!(l.cols(), n, "solve_lower needs a square matrix");
    assert_eq!(b.len(), n, "rhs length mismatch");
    let mut y = vec![0.0f32; n];
    for i in 0..n {
        let mut s = b[i] as f64;
        let row = l.row(i);
        for (k, yk) in y.iter().enumerate().take(i) {
            s -= row[k] as f64 * *yk as f64;
        }
        y[i] = (s / l.get(i, i) as f64) as f32;
    }
    y
}

/// Solves `L^T x = y` for lower-triangular `L` (backward substitution).
///
/// # Panics
///
/// Panics if shapes are inconsistent.
pub fn solve_lower_transpose(l: &Matrix, y: &[f32]) -> Vec<f32> {
    let n = l.rows();
    assert_eq!(l.cols(), n, "solve_lower_transpose needs a square matrix");
    assert_eq!(y.len(), n, "rhs length mismatch");
    let mut x = vec![0.0f32; n];
    for i in (0..n).rev() {
        let mut s = y[i] as f64;
        for (k, &xk) in x.iter().enumerate().skip(i + 1) {
            s -= l.get(k, i) as f64 * xk as f64;
        }
        x[i] = (s / l.get(i, i) as f64) as f32;
    }
    x
}

/// Inverse of a symmetric positive definite matrix via Cholesky.
///
/// Solves `A x_i = e_i` column by column; `O(n^3)` like the factorization
/// itself, which is fine at the layer widths used in this reproduction.
pub fn inverse_psd(a: &Matrix) -> Result<Matrix, LinalgError> {
    let l = cholesky(a)?;
    let n = a.rows();
    let mut inv = Matrix::zeros(n, n);
    let mut e = vec![0.0f32; n];
    for i in 0..n {
        e[i] = 1.0;
        let y = solve_lower(&l, &e);
        let x = solve_lower_transpose(&l, &y);
        for (r, v) in x.iter().enumerate() {
            inv.set(r, i, *v);
        }
        e[i] = 0.0;
    }
    Ok(inv)
}

/// Upper-triangular Cholesky of the *inverse*: returns `U` with
/// `A^{-1} = U^T U` computed as the transpose-inverse of `L`.
///
/// SparseGPT works with the upper Cholesky factor of `H^{-1}`; exposing it
/// directly avoids forming the full inverse in the solver's hot loop.
pub fn cholesky_inverse_upper(a: &Matrix) -> Result<Matrix, LinalgError> {
    let inv = inverse_psd(a)?;
    // Cholesky of the inverse, then transpose to get the upper factor.
    let l = cholesky(&inv)?;
    Ok(l.transpose())
}

/// A thin singular value decomposition `A = U diag(S) V^T`.
///
/// For an `(m, n)` input with `k = min(m, n)`: `u` is `(m, k)`, `s` holds
/// `k` non-negative singular values in descending order, and `vt` is
/// `(k, n)`. Columns of `u` belonging to (numerically) zero singular
/// values are zero.
#[derive(Debug, Clone, PartialEq)]
pub struct Svd {
    /// Left singular vectors, `(m, k)`.
    pub u: Matrix,
    /// Singular values, descending.
    pub s: Vec<f32>,
    /// Right singular vectors transposed, `(k, n)`.
    pub vt: Matrix,
}

impl Svd {
    /// Rank of the decomposition (`min(m, n)`).
    pub fn rank(&self) -> usize {
        self.s.len()
    }

    /// Reconstructs the best rank-`r` approximation `U_r diag(S_r) V_r^T`.
    ///
    /// `r` is clamped to the decomposition rank.
    // dz-lint: allow(dead-pub, "reference reconstruction the SVD tests check decompositions against")
    pub fn reconstruct_rank(&self, r: usize) -> Matrix {
        let r = r.min(self.rank());
        let m = self.u.rows();
        let n = self.vt.cols();
        let mut out = Matrix::zeros(m, n);
        for j in 0..r {
            let sj = self.s[j];
            if sj == 0.0 {
                continue;
            }
            for i in 0..m {
                let uij = self.u.get(i, j) * sj;
                if uij == 0.0 {
                    continue;
                }
                let row = out.row_mut(i);
                for (c, v) in row.iter_mut().enumerate() {
                    *v += uij * self.vt.get(j, c);
                }
            }
        }
        out
    }
}

/// Thin SVD of a tall-or-square matrix (`m >= n`) via one-sided Jacobi:
/// column pairs of a working copy are rotated until mutually orthogonal;
/// column norms become the singular values and the accumulated rotations
/// form `V`. Deterministic, `O(n^2 m)` per sweep — ample for the layer
/// widths in this reproduction.
fn svd_tall(a: &Matrix) -> Svd {
    let (m, n) = a.shape();
    debug_assert!(m >= n);
    let mut w = a.clone(); // Columns will be orthogonalized in place.
    let mut v = Matrix::identity(n);
    let eps = 1e-7f64;
    for _sweep in 0..60 {
        let mut off = 0.0f64;
        for p in 0..n {
            for q in (p + 1)..n {
                // Gram entries of columns p and q, in f64 for stability.
                let (mut alpha, mut beta, mut gamma) = (0.0f64, 0.0f64, 0.0f64);
                for i in 0..m {
                    let wp = w.get(i, p) as f64;
                    let wq = w.get(i, q) as f64;
                    alpha += wp * wp;
                    beta += wq * wq;
                    gamma += wp * wq;
                }
                let scale = (alpha * beta).sqrt();
                if scale == 0.0 || gamma.abs() <= eps * scale {
                    continue;
                }
                off = off.max(gamma.abs() / scale);
                // Jacobi rotation zeroing the (p, q) Gram entry.
                let zeta = (beta - alpha) / (2.0 * gamma);
                let t = zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;
                for i in 0..m {
                    let wp = w.get(i, p) as f64;
                    let wq = w.get(i, q) as f64;
                    w.set(i, p, (c * wp - s * wq) as f32);
                    w.set(i, q, (s * wp + c * wq) as f32);
                }
                for i in 0..n {
                    let vp = v.get(i, p) as f64;
                    let vq = v.get(i, q) as f64;
                    v.set(i, p, (c * vp - s * vq) as f32);
                    v.set(i, q, (s * vp + c * vq) as f32);
                }
            }
        }
        if off < eps {
            break;
        }
    }
    // Column norms are the singular values; sort descending.
    let mut order: Vec<usize> = (0..n).collect();
    let norms: Vec<f64> = (0..n)
        .map(|j| {
            (0..m)
                .map(|i| {
                    let x = w.get(i, j) as f64;
                    x * x
                })
                .sum::<f64>()
                .sqrt()
        })
        .collect();
    order.sort_by(|&a, &b| norms[b].partial_cmp(&norms[a]).expect("finite norms"));
    let mut u = Matrix::zeros(m, n);
    let mut s = Vec::with_capacity(n);
    let mut vt = Matrix::zeros(n, n);
    for (out_j, &j) in order.iter().enumerate() {
        let sigma = norms[j];
        s.push(sigma as f32);
        if sigma > 0.0 {
            for i in 0..m {
                u.set(i, out_j, (w.get(i, j) as f64 / sigma) as f32);
            }
        }
        for i in 0..n {
            vt.set(out_j, i, v.get(i, j));
        }
    }
    Svd { u, s, vt }
}

/// Thin SVD of any matrix (see [`Svd`] for shapes).
///
/// Wide inputs are handled by decomposing the transpose and swapping the
/// factors: `A^T = U' S V'^T  =>  A = V' S U'^T`.
pub fn svd_thin(a: &Matrix) -> Svd {
    let (m, n) = a.shape();
    if m >= n {
        svd_tall(a)
    } else {
        let t = svd_tall(&a.transpose());
        Svd {
            u: t.vt.transpose(),
            s: t.s,
            vt: t.u.transpose(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn random_spd(n: usize, seed: u64) -> Matrix {
        let mut rng = Rng::seeded(seed);
        let x = Matrix::randn(n, n + 4, 1.0, &mut rng);
        // X X^T + n*I is comfortably positive definite.
        let mut a = x.matmul_nt(&x);
        for i in 0..n {
            a.set(i, i, a.get(i, i) + n as f32);
        }
        a
    }

    #[test]
    fn cholesky_reconstructs() {
        let a = random_spd(12, 1);
        let l = cholesky(&a).unwrap();
        let rec = l.matmul_nt(&l);
        assert!(a.max_abs_diff(&rec) < 1e-2, "diff {}", a.max_abs_diff(&rec));
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]);
        assert!(matches!(
            cholesky(&a),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn cholesky_rejects_non_square() {
        let a = Matrix::zeros(2, 3);
        assert_eq!(cholesky(&a), Err(LinalgError::NotSquare));
    }

    #[test]
    fn triangular_solves_invert_l() {
        let a = random_spd(8, 2);
        let l = cholesky(&a).unwrap();
        let b: Vec<f32> = (0..8).map(|i| i as f32 - 3.0).collect();
        let y = solve_lower(&l, &b);
        // L y should equal b.
        let ly = l.matvec(&y);
        for (u, v) in ly.iter().zip(b.iter()) {
            assert!((u - v).abs() < 1e-3);
        }
        let x = solve_lower_transpose(&l, &y);
        let ltx = l.transpose().matvec(&x);
        for (u, v) in ltx.iter().zip(y.iter()) {
            assert!((u - v).abs() < 1e-3);
        }
    }

    #[test]
    fn inverse_psd_gives_identity() {
        let a = random_spd(10, 3);
        let inv = inverse_psd(&a).unwrap();
        let id = a.matmul(&inv);
        let eye = Matrix::identity(10);
        assert!(
            id.max_abs_diff(&eye) < 1e-2,
            "diff {}",
            id.max_abs_diff(&eye)
        );
    }

    #[test]
    fn cholesky_inverse_upper_reconstructs_inverse() {
        let a = random_spd(9, 4);
        let u = cholesky_inverse_upper(&a).unwrap();
        let inv = inverse_psd(&a).unwrap();
        let rec = u.matmul_tn(&u);
        assert!(
            rec.max_abs_diff(&inv) < 1e-2,
            "diff {}",
            rec.max_abs_diff(&inv)
        );
    }

    #[test]
    fn identity_inverse_is_identity() {
        let inv = inverse_psd(&Matrix::identity(5)).unwrap();
        assert!(inv.max_abs_diff(&Matrix::identity(5)) < 1e-6);
    }

    #[test]
    fn svd_reconstructs_tall_square_and_wide() {
        for (m, n, seed) in [(12usize, 7usize, 1u64), (9, 9, 2), (6, 14, 3)] {
            let mut rng = Rng::seeded(seed);
            let a = Matrix::randn(m, n, 1.0, &mut rng);
            let svd = svd_thin(&a);
            let k = m.min(n);
            assert_eq!(svd.u.shape(), (m, k));
            assert_eq!(svd.s.len(), k);
            assert_eq!(svd.vt.shape(), (k, n));
            let rec = svd.reconstruct_rank(k);
            assert!(
                a.max_abs_diff(&rec) < 1e-3,
                "{m}x{n}: diff {}",
                a.max_abs_diff(&rec)
            );
        }
    }

    #[test]
    fn singular_values_descend_and_factors_are_orthonormal() {
        let mut rng = Rng::seeded(4);
        let a = Matrix::randn(10, 6, 0.5, &mut rng);
        let svd = svd_thin(&a);
        for w in svd.s.windows(2) {
            assert!(w[0] >= w[1] - 1e-6, "not descending: {:?}", svd.s);
        }
        assert!(svd.s.iter().all(|&v| v >= 0.0));
        // U^T U = I and V V^T (= vt vt^T here) = I.
        let utu = svd.u.matmul_tn(&svd.u);
        assert!(utu.max_abs_diff(&Matrix::identity(6)) < 1e-3);
        let vvt = svd.vt.matmul_nt(&svd.vt);
        assert!(vvt.max_abs_diff(&Matrix::identity(6)) < 1e-3);
    }

    #[test]
    fn truncated_svd_beats_larger_truncation_never() {
        // Frobenius error of the rank-r approximation is non-increasing
        // in r — the spectral foundation of mixed-precision band codecs.
        let mut rng = Rng::seeded(5);
        let a = Matrix::randn(8, 8, 1.0, &mut rng);
        let svd = svd_thin(&a);
        let mut prev = f32::MAX;
        for r in 1..=8 {
            let err = a.sub(&svd.reconstruct_rank(r)).frob_norm();
            assert!(err <= prev + 1e-4, "rank {r}: {err} > {prev}");
            prev = err;
        }
    }

    #[test]
    fn svd_of_low_rank_matrix_finds_the_rank() {
        let mut rng = Rng::seeded(6);
        // Rank-2 outer-product matrix.
        let u = Matrix::randn(9, 2, 1.0, &mut rng);
        let v = Matrix::randn(2, 7, 1.0, &mut rng);
        let a = u.matmul(&v);
        let svd = svd_thin(&a);
        assert!(svd.s[1] > 1e-4);
        assert!(svd.s[2] < 1e-3, "third sv should vanish: {:?}", svd.s);
        let rec = svd.reconstruct_rank(2);
        assert!(a.max_abs_diff(&rec) < 1e-3);
    }

    #[test]
    fn svd_of_zero_matrix_is_all_zero() {
        let a = Matrix::zeros(5, 3);
        let svd = svd_thin(&a);
        assert!(svd.s.iter().all(|&v| v == 0.0));
        assert_eq!(svd.reconstruct_rank(3), a);
    }
}
