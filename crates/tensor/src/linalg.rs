//! The small amount of dense linear algebra needed by the OBS solver.
//!
//! SparseGPT-style compression needs the inverse of a (damped) Hessian
//! `H = X X^T + lambda I`, which is symmetric positive definite. We provide a
//! Cholesky factorization, triangular solves, and a PSD inverse built from
//! them. `f64` accumulation keeps the factorization stable for the modest
//! matrix sizes used here (up to a few thousand).

use crate::matrix::Matrix;
use crate::rng::Rng;

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

/// The `k` leading singular triplets of an `(m, n)` matrix `A`, so that
/// `U diag(S) V^T` is its best rank-`k` approximation ([`svd_leading`]
/// returns `k <= min(m, n)` of them).
///
/// `u` is `(m, k)`, `s` holds `k` non-negative singular values in
/// descending order, and `vt` is `(k, n)`. Columns of `u` belonging to
/// (numerically) zero singular values are zero.
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
    /// Number of triplets held (`k`).
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

/// Thin SVD of a tall-or-square matrix (`m >= n`) via one-sided Jacobi.
///
/// The working copy `W` of `a` and the accumulated rotations `V` are
/// held column-major, as plain slices: column `j` of `W` is
/// `w[j * m..][..m]` and column `j` of `V` is `v[j * n..][..n]`, so each
/// Gram sum and each rotation walks two contiguous columns. Column pairs
/// of `W` are rotated until mutually orthogonal; its column norms become
/// the singular values, its normalized columns `U`, and `V` the right
/// singular vectors. Deterministic, `O(n^2 m)` per sweep — ample for the
/// layer widths in this reproduction.
fn svd_tall(a: &Matrix) -> Svd {
    let (m, n) = a.shape();
    debug_assert!(m >= n);
    let mut w = a.transpose().data().to_vec(); // Columns orthogonalized in place.
    let mut v = Matrix::identity(n).data().to_vec(); // Symmetric: already column-major.
    let eps = 1e-7f64;
    for _sweep in 0..60 {
        let mut off = 0.0f64;
        for p in 0..n {
            for q in (p + 1)..n {
                let (wp, wq) = column_pair(&mut w, m, p, q);
                // Gram entries of columns p and q, in f64 for stability.
                let (mut alpha, mut beta, mut gamma) = (0.0f64, 0.0f64, 0.0f64);
                for (&xp, &xq) in wp.iter().zip(wq.iter()) {
                    let (xp, xq) = (xp as f64, xq as f64);
                    alpha += xp * xp;
                    beta += xq * xq;
                    gamma += xp * xq;
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
                rotate(wp, wq, c, s);
                let (vp, vq) = column_pair(&mut v, n, p, q);
                rotate(vp, vq, c, s);
            }
        }
        if off < eps {
            break;
        }
    }
    // Column norms are the singular values; sort descending. Norms are
    // square roots of non-negative sums, never `-0.0`, so `total_cmp`
    // orders them as the numeric comparison does.
    let norms: Vec<f64> = w
        .chunks_exact(m.max(1))
        .map(|col| col.iter().map(|&x| x as f64 * x as f64).sum::<f64>().sqrt())
        .collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| norms[b].total_cmp(&norms[a]));
    let mut u = Matrix::zeros(m, n);
    let mut s = Vec::with_capacity(n);
    let mut vt = Matrix::zeros(n, n);
    for (out_j, &j) in order.iter().enumerate() {
        let sigma = norms[j];
        s.push(sigma as f32);
        if sigma > 0.0 {
            for (i, &x) in w[j * m..][..m].iter().enumerate() {
                u.set(i, out_j, (x as f64 / sigma) as f32);
            }
        }
        vt.row_mut(out_j).copy_from_slice(&v[j * n..][..n]);
    }
    Svd { u, s, vt }
}

/// Columns `p < q` of a column-major buffer with columns of length `len`.
fn column_pair(buf: &mut [f32], len: usize, p: usize, q: usize) -> (&mut [f32], &mut [f32]) {
    let (head, tail) = buf.split_at_mut(q * len);
    (&mut head[p * len..][..len], &mut tail[..len])
}

/// Applies the rotation `(c, s)` to a column pair in f64:
/// `x_p ← c·x_p − s·x_q`, `x_q ← s·x_p + c·x_q`.
fn rotate(xp: &mut [f32], xq: &mut [f32], c: f64, s: f64) {
    for (a, b) in xp.iter_mut().zip(xq.iter_mut()) {
        let (pa, qb) = (*a as f64, *b as f64);
        *a = (c * pa - s * qb) as f32;
        *b = (s * pa + c * qb) as f32;
    }
}

/// Thin SVD of any matrix (see [`Svd`] for shapes).
///
/// Wide inputs are handled by decomposing the transpose and swapping the
/// factors: `A^T = U' S V'^T  =>  A = V' S U'^T`.
fn svd_thin(a: &Matrix) -> Svd {
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

/// Columns [`svd_leading`] carries beyond the requested rank.
const OVERSAMPLE: usize = 8;
/// Power iterations [`svd_leading`] runs on its subspace.
const POWER_ITERS: usize = 4;
/// Seed of [`svd_leading`]'s Gaussian starting block.
const LEADING_SEED: u64 = 0x5EED_1EAD;

/// The `r` leading singular triplets of `a` (`r` clamped to
/// `min(m, n)`): `u` is `(m, r)`, `s` holds `r` values in descending
/// order, and `vt` is `(r, n)`.
///
/// A seeded block subspace iteration (Halko, Martinsson & Tropp 2011,
/// Algorithm 4.4): a Gaussian block of `l = r + 8` columns is multiplied
/// by `A`, then by `A^T` and `A` again for 4 power iterations, with the
/// block re-orthonormalised in f64 after every multiply. The exact
/// Jacobi SVD of the small projection `Q^T A` (`l × n`) then gives the
/// triplets, its left vectors mapped back through `Q`. The seed is fixed,
/// so equal inputs give equal bits.
///
/// When `2·l > min(m, n)` the block would span much of the matrix, and
/// the exact thin SVD is both cheaper and exact: its first `r` triplets
/// are returned as they are.
pub fn svd_leading(a: &Matrix, r: usize) -> Svd {
    let (m, n) = a.shape();
    let r = r.min(m.min(n));
    let l = r + OVERSAMPLE;
    if 2 * l > m.min(n) {
        return svd_thin(a).truncated(r);
    }
    let mut rng = Rng::seeded(LEADING_SEED);
    let omega: Vec<f64> = (0..n * l).map(|_| f64::from(rng.normal())).collect();
    let mut q = times(a, &omega, l);
    orthonormalize(&mut q, m);
    for _ in 0..POWER_ITERS {
        let mut z = transpose_times(a, &q, l);
        orthonormalize(&mut z, n);
        q = times(a, &z, l);
        orthonormalize(&mut q, m);
    }
    // Column j of A^T Q is row j of the projection B = Q^T A.
    let b = transpose_times(a, &q, l);
    let small = svd_thin(&Matrix::from_vec(
        l,
        n,
        b.iter().map(|&x| x as f32).collect(),
    ));
    // U = Q · Ũ over the kept columns, summed over the block in order.
    let mut u = Matrix::zeros(m, r);
    for (i, row) in u.data_mut().chunks_exact_mut(r.max(1)).enumerate() {
        for (j, out) in row.iter_mut().enumerate() {
            let sum: f64 = (0..l)
                .map(|t| q[t * m + i] * f64::from(small.u.get(t, j)))
                .sum();
            *out = sum as f32;
        }
    }
    Svd {
        u,
        s: small.s[..r].to_vec(),
        vt: small.vt.submatrix(0, 0, r, n),
    }
}

impl Svd {
    /// The first `r` triplets (`r <= rank`).
    fn truncated(self, r: usize) -> Svd {
        Svd {
            u: self.u.submatrix(0, 0, self.u.rows(), r),
            s: self.s[..r].to_vec(),
            vt: self.vt.submatrix(0, 0, r, self.vt.cols()),
        }
    }
}

/// `A · Z` for a column-major `(n, l)` block `z`, as a column-major
/// `(m, l)` block: each entry one dot product over the row, in f64.
fn times(a: &Matrix, z: &[f64], l: usize) -> Vec<f64> {
    let (m, n) = a.shape();
    let mut y = vec![0.0f64; m * l];
    for (i, row) in a.data().chunks_exact(n).enumerate() {
        for (j, zc) in z.chunks_exact(n).enumerate() {
            y[j * m + i] = row.iter().zip(zc).map(|(&x, &w)| f64::from(x) * w).sum();
        }
    }
    y
}

/// `A^T · Q` for a column-major `(m, l)` block `q`, as a column-major
/// `(n, l)` block, accumulated row by row of `A` in f64.
fn transpose_times(a: &Matrix, q: &[f64], l: usize) -> Vec<f64> {
    let (m, n) = a.shape();
    let mut z = vec![0.0f64; n * l];
    for (zc, qc) in z.chunks_exact_mut(n).zip(q.chunks_exact(m)) {
        for (row, &qi) in a.data().chunks_exact(n).zip(qc) {
            for (out, &x) in zc.iter_mut().zip(row) {
                *out += f64::from(x) * qi;
            }
        }
    }
    z
}

/// Orthonormalises the columns (each `len` long) of a column-major block
/// in place by modified Gram–Schmidt, run twice so that orthogonality
/// holds to f64 rounding. A column with nothing left outside the earlier
/// ones (a rank-deficient block) becomes zero.
fn orthonormalize(block: &mut [f64], len: usize) {
    let cols = block.len() / len;
    for j in 0..cols {
        let (done, rest) = block.split_at_mut(j * len);
        let col = &mut rest[..len];
        let before = norm(col);
        for _pass in 0..2 {
            for prev in done.chunks_exact(len) {
                let dot: f64 = prev.iter().zip(col.iter()).map(|(p, c)| p * c).sum();
                for (c, p) in col.iter_mut().zip(prev) {
                    *c -= dot * p;
                }
            }
        }
        let after = norm(col);
        let scale = if after > 1e-10 * before {
            1.0 / after
        } else {
            0.0
        };
        col.iter_mut().for_each(|c| *c *= scale);
    }
}

/// Euclidean norm of a slice, in f64.
fn norm(x: &[f64]) -> f64 {
    x.iter().map(|v| v * v).sum::<f64>().sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// Every f32 of a decomposition, as bits.
    fn svd_bits(svd: &Svd) -> Vec<u32> {
        let all = svd.u.data().iter().chain(&svd.s).chain(svd.vt.data());
        all.map(|x| x.to_bits()).collect()
    }

    /// `max |X X^T - I|` over the rows of `x`.
    fn rows_off_orthonormal(x: &Matrix) -> f32 {
        x.matmul_nt(x).max_abs_diff(&Matrix::identity(x.rows()))
    }

    #[test]
    fn leading_factors_are_orthonormal() {
        for (m, n) in [(64usize, 48usize), (40, 72)] {
            let a = Matrix::randn(m, n, 1.0, &mut Rng::seeded(7));
            let svd = svd_leading(&a, 4);
            assert_eq!(svd.u.shape(), (m, 4));
            assert_eq!(svd.s.len(), 4);
            assert_eq!(svd.vt.shape(), (4, n));
            assert!(
                rows_off_orthonormal(&svd.u.transpose()) < 1e-5,
                "{m}x{n}: U"
            );
            assert!(rows_off_orthonormal(&svd.vt) < 1e-5, "{m}x{n}: V");
        }
    }

    #[test]
    fn leading_values_of_a_planted_spectrum_are_recovered() {
        // A = U0 diag(planted) V0^T: four leading values over a flat
        // tail two orders of magnitude below.
        let (m, n) = (80, 60);
        let u0 = svd_thin(&Matrix::randn(m, n, 1.0, &mut Rng::seeded(8))).u;
        let v0t = svd_thin(&Matrix::randn(n, n, 1.0, &mut Rng::seeded(9))).vt;
        let lead = [10.0f32, 7.0, 5.0, 3.0];
        let mut us = u0.clone();
        for row in 0..m {
            for (j, v) in us.row_mut(row).iter_mut().enumerate() {
                *v *= lead.get(j).copied().unwrap_or(0.03);
            }
        }
        let svd = svd_leading(&us.matmul(&v0t), 4);
        for (got, want) in svd.s.iter().zip(lead) {
            assert!((got - want).abs() <= 1e-4 * want, "{:?}", svd.s);
        }
    }

    #[test]
    fn leading_svd_is_deterministic() {
        let a = Matrix::randn(48, 64, 1.0, &mut Rng::seeded(10));
        assert_eq!(svd_bits(&svd_leading(&a, 8)), svd_bits(&svd_leading(&a, 8)));
    }

    #[test]
    fn leading_svd_below_the_size_rule_is_the_exact_one() {
        // 2 * (2 + 8) > 18: the exact SVD, its first two triplets.
        let a = Matrix::randn(18, 30, 1.0, &mut Rng::seeded(11));
        let exact = svd_thin(&a);
        let want = Svd {
            u: exact.u.submatrix(0, 0, 18, 2),
            s: exact.s[..2].to_vec(),
            vt: exact.vt.submatrix(0, 0, 2, 30),
        };
        assert_eq!(svd_bits(&svd_leading(&a, 2)), svd_bits(&want));
    }

    #[test]
    fn leading_svd_of_zero_matrix_is_all_zero() {
        let a = Matrix::zeros(40, 32);
        let svd = svd_leading(&a, 4);
        assert!(svd.s.iter().all(|&v| v == 0.0));
        assert!(svd.u.data().iter().all(|&v| v == 0.0));
        assert_eq!(svd.reconstruct_rank(4), a);
    }

    #[test]
    fn svd_of_zero_matrix_is_all_zero() {
        let a = Matrix::zeros(5, 3);
        let svd = svd_thin(&a);
        assert!(svd.s.iter().all(|&v| v == 0.0));
        assert_eq!(svd.reconstruct_rank(3), a);
    }
}
