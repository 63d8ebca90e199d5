//! The dense row-major [`Matrix`] type and its elementwise operations.

use crate::rng::Rng;

/// A dense, row-major `f32` matrix.
///
/// The element at row `r`, column `c` lives at index `r * cols + c` of the
/// backing vector. All operations panic on shape mismatch: shape errors in
/// this codebase are programming bugs, not recoverable conditions.
#[derive(Clone, PartialEq, Default)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl std::fmt::Debug for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)?;
        if self.rows * self.cols <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

impl Matrix {
    /// Creates a matrix of zeros with the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix filled with a constant value.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} does not match shape {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Reshapes to `rows x cols` and fills with zeros, keeping the
    /// allocation, so a buffer reused across calls allocates only to grow.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths or `rows` is empty.
    // dz-lint: allow(dead-pub, "literal-matrix constructor for the crate docs and the unit tests of five crates")
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "from_rows requires at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            assert_eq!(row.len(), cols, "inconsistent row length");
            data.extend_from_slice(row);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Creates a matrix with entries drawn from `N(0, std^2)`.
    pub fn randn(rows: usize, cols: usize, std: f32, rng: &mut Rng) -> Self {
        let mut m = Self::zeros(rows, cols);
        for v in &mut m.data {
            *v = rng.normal() * std;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as a `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` when the matrix has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable access to the backing row-major data.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the backing row-major data.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element assignment.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a new vector.
    pub fn col(&self, c: usize) -> Vec<f32> {
        (0..self.rows).map(|r| self.get(r, c)).collect()
    }

    /// Returns the transpose as a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        // Blocked transpose for cache friendliness on larger matrices.
        const B: usize = 32;
        for rb in (0..self.rows).step_by(B) {
            for cb in (0..self.cols).step_by(B) {
                for r in rb..(rb + B).min(self.rows) {
                    for c in cb..(cb + B).min(self.cols) {
                        out.data[c * self.rows + r] = self.data[r * self.cols + c];
                    }
                }
            }
        }
        out
    }

    /// Elementwise addition, returning a new matrix.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&self, other: &Matrix) -> Matrix {
        self.zip_with(other, |a, b| a + b)
    }

    /// Elementwise subtraction (`self - other`), returning a new matrix.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        self.zip_with(other, |a, b| a - b)
    }

    /// Adds `other` into `self` in place.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "shape mismatch in add_assign");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// Adds `alpha * other` into `self` in place (axpy).
    pub fn add_scaled(&mut self, other: &Matrix, alpha: f32) {
        assert_eq!(self.shape(), other.shape(), "shape mismatch in add_scaled");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
    }

    /// Multiplies every element by `alpha` in place.
    pub fn scale_assign(&mut self, alpha: f32) {
        for a in &mut self.data {
            *a *= alpha;
        }
    }

    /// Returns `alpha * self` as a new matrix.
    pub fn scale(&self, alpha: f32) -> Matrix {
        self.map(|v| v * alpha)
    }

    /// Applies `f` to every element, returning a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_assign(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    fn zip_with(&self, other: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
        assert_eq!(
            self.shape(),
            other.shape(),
            "shape mismatch: {:?} vs {:?}",
            self.shape(),
            other.shape()
        );
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Frobenius norm.
    pub fn frob_norm(&self) -> f32 {
        self.data
            .iter()
            .map(|v| (*v as f64) * (*v as f64))
            .sum::<f64>()
            .sqrt() as f32
    }

    /// Largest absolute element (0.0 for an empty matrix).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0_f32, |m, v| m.max(v.abs()))
    }

    /// Mean of all elements (0.0 for an empty matrix).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        (self.data.iter().map(|&v| v as f64).sum::<f64>() / self.data.len() as f64) as f32
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().map(|&v| v as f64).sum::<f64>() as f32
    }

    /// Fraction of elements that are exactly zero.
    // dz-lint: allow(dead-pub, "sparsity probe the pruning tests check 2:4 structure with")
    pub fn zero_fraction(&self) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        let zeros = self.data.iter().filter(|v| **v == 0.0).count();
        zeros as f32 / self.data.len() as f32
    }

    /// Extracts a sub-matrix of `h x w` starting at `(r0, c0)`.
    ///
    /// # Panics
    ///
    /// Panics if the region exceeds the matrix bounds.
    pub fn submatrix(&self, r0: usize, c0: usize, h: usize, w: usize) -> Matrix {
        assert!(
            r0 + h <= self.rows && c0 + w <= self.cols,
            "submatrix out of bounds"
        );
        let mut out = Matrix::zeros(h, w);
        for r in 0..h {
            out.row_mut(r).copy_from_slice(
                &self.data[(r0 + r) * self.cols + c0..(r0 + r) * self.cols + c0 + w],
            );
        }
        out
    }

    /// Writes `block` into `self` at offset `(r0, c0)`.
    ///
    /// # Panics
    ///
    /// Panics if the block exceeds the matrix bounds.
    pub fn set_submatrix(&mut self, r0: usize, c0: usize, block: &Matrix) {
        assert!(
            r0 + block.rows <= self.rows && c0 + block.cols <= self.cols,
            "set_submatrix out of bounds"
        );
        for r in 0..block.rows {
            let dst = (r0 + r) * self.cols + c0;
            self.data[dst..dst + block.cols].copy_from_slice(block.row(r));
        }
    }

    /// Stacks matrices vertically (all must share the column count).
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or column counts differ.
    pub fn vstack(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "vstack of nothing");
        let cols = parts[0].cols;
        let rows: usize = parts.iter().map(|p| p.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for p in parts {
            assert_eq!(p.cols, cols, "vstack column mismatch");
            data.extend_from_slice(&p.data);
        }
        Matrix { rows, cols, data }
    }

    /// Maximum absolute difference between two matrices of the same shape.
    pub fn max_abs_diff(&self, other: &Matrix) -> f32 {
        assert_eq!(
            self.shape(),
            other.shape(),
            "shape mismatch in max_abs_diff"
        );
        self.data
            .iter()
            .zip(other.data.iter())
            .fold(0.0_f32, |m, (a, b)| m.max((a - b).abs()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.len(), 12);
        assert!(m.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn identity_diagonal() {
        let m = Matrix::identity(3);
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(m.get(r, c), if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_rows_and_access() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(m.get(1, 2), 6.0);
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(m.col(1), vec![2.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn from_vec_shape_mismatch_panics() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn transpose_round_trip() {
        let mut rng = Rng::seeded(7);
        let m = Matrix::randn(17, 33, 1.0, &mut rng);
        let t = m.transpose();
        assert_eq!(t.shape(), (33, 17));
        assert_eq!(t.transpose(), m);
        assert_eq!(m.get(3, 11), t.get(11, 3));
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[10.0, 20.0], &[30.0, 40.0]]);
        assert_eq!(a.add(&b).data(), &[11.0, 22.0, 33.0, 44.0]);
        assert_eq!(b.sub(&a).data(), &[9.0, 18.0, 27.0, 36.0]);
        let mut c = a.clone();
        c.add_scaled(&b, 0.5);
        assert_eq!(c.data(), &[6.0, 12.0, 18.0, 24.0]);
    }

    #[test]
    fn norms_and_stats() {
        let m = Matrix::from_rows(&[&[3.0, -4.0]]);
        assert!((m.frob_norm() - 5.0).abs() < 1e-6);
        assert_eq!(m.max_abs(), 4.0);
        assert!((m.mean() - (-0.5)).abs() < 1e-6);
        assert_eq!(m.sum(), -1.0);
    }

    #[test]
    fn zero_fraction_counts_exact_zeros() {
        let m = Matrix::from_rows(&[&[0.0, 1.0, 0.0, 2.0]]);
        assert_eq!(m.zero_fraction(), 0.5);
    }

    #[test]
    fn submatrix_and_set_submatrix() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0], &[7.0, 8.0, 9.0]]);
        let s = m.submatrix(1, 1, 2, 2);
        assert_eq!(s.data(), &[5.0, 6.0, 8.0, 9.0]);
        let mut m2 = Matrix::zeros(3, 3);
        m2.set_submatrix(0, 1, &s);
        assert_eq!(m2.get(0, 1), 5.0);
        assert_eq!(m2.get(1, 2), 9.0);
        assert_eq!(m2.get(2, 0), 0.0);
    }

    #[test]
    fn vstack_concatenates_rows() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 4.0], &[5.0, 6.0]]);
        let v = Matrix::vstack(&[&a, &b]);
        assert_eq!(v.shape(), (3, 2));
        assert_eq!(v.row(2), &[5.0, 6.0]);
    }

    #[test]
    fn randn_is_deterministic_per_seed() {
        let mut r1 = Rng::seeded(42);
        let mut r2 = Rng::seeded(42);
        let a = Matrix::randn(4, 4, 1.0, &mut r1);
        let b = Matrix::randn(4, 4, 1.0, &mut r2);
        assert_eq!(a, b);
        let mut r3 = Rng::seeded(43);
        let c = Matrix::randn(4, 4, 1.0, &mut r3);
        assert_ne!(a, c);
    }

    #[test]
    fn max_abs_diff_works() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[1.5, 1.0]]);
        assert_eq!(a.max_abs_diff(&b), 1.0);
    }
}
