//! SBMM — Selective Batched Matrix Multiplication (§5.2 of the paper).
//!
//! A serving batch mixes requests for different deltas: request `i` needs
//! `y_i = x_i * Δ_{idx(i)}`. The naive implementation loops over requests,
//! paying one "kernel launch" (here: one grouped multiply of batch 1) per
//! request plus scattered reads. SBMM instead:
//!
//! 1. reorders requests so rows sharing a delta are contiguous, and
//! 2. performs one multiply per *distinct* delta in the batch.
//!
//! Outputs are written back in the original request order, so both
//! implementations are interchangeable; tests assert bit-equality of the
//! grouped path against the naive one.

use crate::qgemm::quant_gemm;
use dz_compress::pack::CompressedMatrix;
use dz_tensor::Matrix;

/// Computes per-request delta products one request at a time (baseline).
///
/// # Panics
///
/// Panics if `delta_idx` length differs from the batch, an index is out of
/// range, or the deltas disagree on shapes.
pub fn sbmm_naive(x: &Matrix, delta_idx: &[usize], deltas: &[&CompressedMatrix]) -> Matrix {
    assert_eq!(x.rows(), delta_idx.len(), "assignment length mismatch");
    check_shapes(deltas);
    let d_out = deltas.first().map_or(0, |d| d.d_out);
    let mut y = Matrix::zeros(x.rows(), d_out);
    for (i, &di) in delta_idx.iter().enumerate() {
        let xi = x.submatrix(i, 0, 1, x.cols());
        let yi = quant_gemm(&xi, deltas[di]);
        y.set_submatrix(i, 0, &yi);
    }
    y
}

/// Grouped SBMM: one multiply per distinct delta in the batch.
///
/// # Panics
///
/// Same conditions as [`sbmm_naive`].
pub fn sbmm_grouped(x: &Matrix, delta_idx: &[usize], deltas: &[&CompressedMatrix]) -> Matrix {
    assert_eq!(x.rows(), delta_idx.len(), "assignment length mismatch");
    check_shapes(deltas);
    let d_out = deltas.first().map_or(0, |d| d.d_out);
    let mut y = Matrix::zeros(x.rows(), d_out);
    // Bucket request rows per delta (the scheduler's reorder step).
    let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); deltas.len()];
    for (i, &di) in delta_idx.iter().enumerate() {
        assert!(di < deltas.len(), "delta index {di} out of range");
        buckets[di].push(i);
    }
    for (di, rows) in buckets.iter().enumerate() {
        if rows.is_empty() {
            continue;
        }
        // Gather the group's inputs contiguously.
        let mut xg = Matrix::zeros(rows.len(), x.cols());
        for (gr, &i) in rows.iter().enumerate() {
            xg.row_mut(gr).copy_from_slice(x.row(i));
        }
        let yg = quant_gemm(&xg, deltas[di]);
        // Scatter back to original positions.
        for (gr, &i) in rows.iter().enumerate() {
            y.row_mut(i).copy_from_slice(yg.row(gr));
        }
    }
    y
}

fn check_shapes(deltas: &[&CompressedMatrix]) {
    if let Some(first) = deltas.first() {
        for d in deltas {
            assert_eq!(
                (d.d_in, d.d_out),
                (first.d_in, first.d_out),
                "deltas must share shapes"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dz_compress::obs::{compress_matrix, ObsConfig};
    use dz_compress::quant::QuantSpec;
    use dz_tensor::Rng;

    fn make_deltas(n: usize, d_in: usize, d_out: usize, seed: u64) -> Vec<CompressedMatrix> {
        let mut rng = Rng::seeded(seed);
        (0..n)
            .map(|_| {
                let w = Matrix::randn(d_in, d_out, 0.02, &mut rng);
                let cfg = ObsConfig {
                    spec: QuantSpec::new(4, 16),
                    sparse24: true,
                    damp: 0.05,
                };
                compress_matrix(&w, &Matrix::identity(d_in), &cfg).packed
            })
            .collect()
    }

    #[test]
    fn grouped_matches_naive_mixed_batch() {
        let deltas = make_deltas(4, 16, 8, 1);
        let refs: Vec<&CompressedMatrix> = deltas.iter().collect();
        let mut rng = Rng::seeded(2);
        let x = Matrix::randn(10, 16, 1.0, &mut rng);
        let idx = vec![0, 1, 2, 3, 0, 1, 2, 3, 0, 0];
        let a = sbmm_naive(&x, &idx, &refs);
        let b = sbmm_grouped(&x, &idx, &refs);
        assert_eq!(a, b, "grouped and naive must agree exactly");
    }

    #[test]
    fn single_delta_batch() {
        let deltas = make_deltas(1, 16, 8, 3);
        let refs: Vec<&CompressedMatrix> = deltas.iter().collect();
        let mut rng = Rng::seeded(4);
        let x = Matrix::randn(6, 16, 1.0, &mut rng);
        let idx = vec![0; 6];
        assert_eq!(sbmm_naive(&x, &idx, &refs), sbmm_grouped(&x, &idx, &refs));
    }

    #[test]
    fn skewed_assignment_preserves_row_order() {
        let deltas = make_deltas(3, 16, 8, 5);
        let refs: Vec<&CompressedMatrix> = deltas.iter().collect();
        let mut rng = Rng::seeded(6);
        let x = Matrix::randn(7, 16, 1.0, &mut rng);
        let idx = vec![2, 2, 2, 1, 2, 0, 2];
        let y = sbmm_grouped(&x, &idx, &refs);
        // Row 5 must equal delta-0 applied to x row 5 alone.
        let x5 = x.submatrix(5, 0, 1, 16);
        let y5 = quant_gemm(&x5, refs[0]);
        for c in 0..8 {
            assert_eq!(y.get(5, c), y5.get(0, c));
        }
    }

    #[test]
    fn unused_deltas_are_skipped() {
        let deltas = make_deltas(5, 16, 8, 7);
        let refs: Vec<&CompressedMatrix> = deltas.iter().collect();
        let mut rng = Rng::seeded(8);
        let x = Matrix::randn(3, 16, 1.0, &mut rng);
        let idx = vec![4, 4, 4];
        let y = sbmm_grouped(&x, &idx, &refs);
        assert_eq!(y.rows(), 3);
    }

    #[test]
    fn empty_batch_yields_empty_output() {
        let deltas = make_deltas(2, 16, 8, 9);
        let refs: Vec<&CompressedMatrix> = deltas.iter().collect();
        let x = Matrix::zeros(0, 16);
        let y = sbmm_grouped(&x, &[], &refs);
        assert_eq!(y.rows(), 0);
    }

    #[test]
    #[should_panic(expected = "delta index 3 out of range")]
    fn bad_index_panics() {
        let deltas = make_deltas(2, 16, 8, 10);
        let refs: Vec<&CompressedMatrix> = deltas.iter().collect();
        let x = Matrix::zeros(1, 16);
        let _ = sbmm_grouped(&x, &[3], &refs);
    }
}
