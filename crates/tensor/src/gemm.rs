//! Blocked matrix multiplication.
//!
//! The inner kernel is a cache-blocked `i-k-j` loop over row-major data,
//! which vectorizes well with the default compiler settings. It runs on
//! the calling thread.

use crate::matrix::Matrix;

impl Matrix {
    /// Matrix product `self * other`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows(), other.cols());
        matmul_zeroed(self, other, &mut out);
        out
    }

    /// [`Matrix::matmul`] into `out`, which is reshaped and overwritten;
    /// its allocation is reused. Each output element sums over the shared
    /// dimension in the same order whatever the row count, so a row's
    /// result does not depend on the rows computed beside it.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        out.reset(self.rows(), other.cols());
        matmul_zeroed(self, other, out);
    }

    /// Matrix product with the second operand transposed: `self * other^T`.
    ///
    /// This avoids materializing the transpose; `other` is `(n, k)` where
    /// `self` is `(m, k)` and the result is `(m, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.cols()`.
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols(),
            other.cols(),
            "matmul_nt shape mismatch: {:?} x {:?}^T",
            self.shape(),
            other.shape()
        );
        let (m, _k) = self.shape();
        let n = other.rows();
        let mut out = Matrix::zeros(m, n);
        for i in 0..m {
            let a_row = self.row(i);
            let out_row = out.row_mut(i);
            for (j, o) in out_row.iter_mut().enumerate() {
                let b_row = other.row(j);
                let mut acc = 0.0f32;
                for (a, b) in a_row.iter().zip(b_row.iter()) {
                    acc += a * b;
                }
                *o = acc;
            }
        }
        out
    }

    /// Matrix product with the first operand transposed: `self^T * other`.
    ///
    /// `self` is `(k, m)`, `other` is `(k, n)`, the result is `(m, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != other.rows()`.
    pub fn matmul_tn(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.rows(),
            other.rows(),
            "matmul_tn shape mismatch: {:?}^T x {:?}",
            self.shape(),
            other.shape()
        );
        let (k, m) = self.shape();
        let n = other.cols();
        let mut out = Matrix::zeros(m, n);
        // Accumulate rank-1 updates row by row of the shared k dimension;
        // this keeps both reads sequential.
        for kk in 0..k {
            let a_row = self.row(kk);
            let b_row = other.row(kk);
            for (i, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let out_row = out.row_mut(i);
                for (o, &b) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Matrix-vector product `self * v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    // dz-lint: allow(dead-pub, "reference matrix-vector product the GEMM and triangular-solve tests check against")
    pub fn matvec(&self, v: &[f32]) -> Vec<f32> {
        assert_eq!(v.len(), self.cols(), "matvec length mismatch");
        let mut out = vec![0.0f32; self.rows()];
        for (i, o) in out.iter_mut().enumerate() {
            let row = self.row(i);
            let mut acc = 0.0f32;
            for (a, b) in row.iter().zip(v.iter()) {
                acc += a * b;
            }
            *o = acc;
        }
        out
    }
}

/// `out = a * b` into a zeroed `out` of the product's shape.
fn matmul_zeroed(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul shape mismatch: {:?} x {:?}",
        a.shape(),
        b.shape()
    );
    let (m, k) = a.shape();
    matmul_block(a.data(), b.data(), out.data_mut(), m, k, b.cols());
}

/// Cache-blocked single-threaded GEMM on raw row-major slices.
///
/// Computes `c += a * b` where `a` is `(m, k)`, `b` is `(k, n)` and `c` is
/// `(m, n)`. `c` must be zero-initialized by the caller if a plain product is
/// wanted.
pub fn matmul_block(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    const KB: usize = 64;
    const JB: usize = 256;
    for kb in (0..k).step_by(KB) {
        let k_end = (kb + KB).min(k);
        for jb in (0..n).step_by(JB) {
            let j_end = (jb + JB).min(n);
            for i in 0..m {
                let c_row = &mut c[i * n..(i + 1) * n];
                for kk in kb..k_end {
                    let aik = a[i * k + kk];
                    if aik == 0.0 {
                        continue;
                    }
                    let b_row = &b[kk * n..(kk + 1) * n];
                    for j in jb..j_end {
                        c_row[j] += aik * b_row[j];
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let (m, k) = a.shape();
        let n = b.cols();
        let mut out = Matrix::zeros(m, n);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f64;
                for kk in 0..k {
                    acc += a.get(i, kk) as f64 * b.get(kk, j) as f64;
                }
                out.set(i, j, acc as f32);
            }
        }
        out
    }

    #[test]
    fn small_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = Rng::seeded(1);
        let a = Matrix::randn(9, 9, 1.0, &mut rng);
        assert_eq!(a.matmul(&Matrix::identity(9)), a);
    }

    #[test]
    fn blocked_matches_naive_odd_shapes() {
        let mut rng = Rng::seeded(2);
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 7),
            (17, 31, 13),
            (64, 64, 64),
            (65, 129, 67),
        ] {
            let a = Matrix::randn(m, k, 1.0, &mut rng);
            let b = Matrix::randn(k, n, 1.0, &mut rng);
            let c = a.matmul(&b);
            let r = naive_matmul(&a, &b);
            assert!(c.max_abs_diff(&r) < 1e-3, "mismatch at {m}x{k}x{n}");
        }
    }

    #[test]
    fn parallel_path_matches_naive() {
        let mut rng = Rng::seeded(3);
        // 2^22+ FLOPs: many rows, several k blocks, one full j block.
        let a = Matrix::randn(128, 192, 1.0, &mut rng);
        let b = Matrix::randn(192, 256, 1.0, &mut rng);
        let c = a.matmul(&b);
        let r = naive_matmul(&a, &b);
        assert!(c.max_abs_diff(&r) < 1e-2);
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let mut rng = Rng::seeded(4);
        let a = Matrix::randn(7, 11, 1.0, &mut rng);
        let b = Matrix::randn(5, 11, 1.0, &mut rng);
        let via_nt = a.matmul_nt(&b);
        let via_t = a.matmul(&b.transpose());
        assert!(via_nt.max_abs_diff(&via_t) < 1e-4);
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let mut rng = Rng::seeded(5);
        let a = Matrix::randn(11, 7, 1.0, &mut rng);
        let b = Matrix::randn(11, 5, 1.0, &mut rng);
        let via_tn = a.matmul_tn(&b);
        let via_t = a.transpose().matmul(&b);
        assert!(via_tn.max_abs_diff(&via_t) < 1e-4);
    }

    #[test]
    fn matvec_matches_matmul() {
        let mut rng = Rng::seeded(6);
        let a = Matrix::randn(6, 9, 1.0, &mut rng);
        let v = Matrix::randn(9, 1, 1.0, &mut rng);
        let mv = a.matvec(v.data());
        let mm = a.matmul(&v);
        for (x, y) in mv.iter().zip(mm.data().iter()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}
