//! The SparseGPT-style optimal-brain-surgeon solver.
//!
//! Solves `argmin_W' || W X - W' X ||^2` (Eq. 1 of the paper) subject to the
//! target format: 2:4 structured sparsity and/or a low-bit quantization
//! grid. Columns (input features) are processed in order; the error each
//! column's rounding/pruning introduces is propagated to not-yet-processed
//! columns through the upper Cholesky factor `U` of the inverse Hessian
//! (`H^{-1} = U^T U`), exactly as GPTQ/SparseGPT do.
//!
//! For the 2:4 pattern, at every 4-column boundary each output row selects
//! the 2 columns with the smallest saliency `w^2 / U_cc^2` to prune, the
//! standard SparseGPT criterion.

use crate::pack::CompressedMatrix;
use crate::quant::{group_scale, QuantSpec};
use dz_tensor::linalg;
use dz_tensor::Matrix;

/// Solver configuration.
#[derive(Debug, Clone, Copy)]
pub struct ObsConfig {
    /// Quantization grid.
    pub spec: QuantSpec,
    /// Apply 2:4 structured pruning before quantization.
    pub sparse24: bool,
    /// Hessian damping as a fraction of the mean diagonal.
    pub damp: f32,
}

/// Result of compressing one matrix.
#[derive(Debug, Clone)]
pub struct ObsResult {
    /// The packed representation.
    pub packed: CompressedMatrix,
    /// Dense reconstruction in the model's `(d_in, d_out)` orientation.
    pub reconstructed: Matrix,
}

/// Accumulates the (undamped) Hessian `X^T X` from layer inputs.
///
/// Each `x` is `(tokens, d_in)`; the result is `(d_in, d_in)`.
///
/// # Panics
///
/// Panics if inputs disagree on `d_in` or none are given.
pub fn hessian_from_inputs(inputs: &[&Matrix]) -> Matrix {
    assert!(!inputs.is_empty(), "need at least one calibration input");
    let d = inputs[0].cols();
    let mut h = Matrix::zeros(d, d);
    for x in inputs {
        assert_eq!(x.cols(), d, "calibration width mismatch");
        h.add_assign(&x.matmul_tn(x));
    }
    h
}

/// Compresses `w` (model orientation `(d_in, d_out)`) against Hessian `h`.
///
/// Returns the packed matrix plus its dense reconstruction. With
/// `h = identity` and `sparse24 = false` this reduces exactly to
/// round-to-nearest group quantization (verified in tests).
///
/// # Panics
///
/// Panics if shapes are inconsistent, or `sparse24` is set and
/// `d_in % 4 != 0` or the group size is not a multiple of 4.
pub fn compress_matrix(w: &Matrix, h: &Matrix, cfg: &ObsConfig) -> ObsResult {
    let (d_in, d_out) = w.shape();
    assert_eq!(h.shape(), (d_in, d_in), "hessian shape mismatch");
    if cfg.sparse24 {
        assert_eq!(d_in % 4, 0, "2:4 needs d_in divisible by 4");
        assert_eq!(
            cfg.spec.group_size % 4,
            0,
            "group size must align with 2:4 groups"
        );
    }
    // Damped Hessian; damping keeps the Cholesky well conditioned even when
    // calibration activations are rank deficient.
    let mut hd = h.clone();
    let mean_diag: f32 = (0..d_in).map(|i| hd.get(i, i)).sum::<f32>() / d_in as f32;
    let damp = (cfg.damp * mean_diag).max(1e-6);
    for i in 0..d_in {
        hd.set(i, i, hd.get(i, i) + damp);
    }
    let u = linalg::cholesky_inverse_upper(&hd).expect("damped Hessian must be positive definite");

    // Work in output-major orientation: rows = outputs.
    let mut wt = w.transpose(); // (d_out, d_in)
    let qmax = cfg.spec.qmax();
    let group = cfg.spec.group_size;
    let n_groups = d_in.div_ceil(group);
    let mut levels = vec![0i32; d_out * d_in];
    let mut mask = vec![true; d_out * d_in];
    let mut scales = vec![1.0f32; d_out * n_groups];
    let mut err = vec![0.0f32; d_out];

    for j in 0..d_in {
        // New scale group: compute per-row scales from the current
        // (error-compensated) values.
        if j % group == 0 {
            let end = (j + group).min(d_in);
            for r in 0..d_out {
                scales[r * n_groups + j / group] = group_scale(&wt.row(r)[j..end], qmax);
            }
        }
        // New 2:4 group: decide which two columns each row prunes.
        if cfg.sparse24 && j % 4 == 0 {
            for r in 0..d_out {
                let row = wt.row(r);
                let mut sal: Vec<(f32, usize)> = (0..4)
                    .map(|k| {
                        let c = j + k;
                        let ucc = u.get(c, c);
                        let s = row[c] * row[c] / (ucc * ucc).max(1e-12);
                        (s, c)
                    })
                    .collect();
                sal.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("saliency NaN"));
                // Prune the two lowest-saliency columns.
                mask[r * d_in + sal[0].1] = false;
                mask[r * d_in + sal[1].1] = false;
            }
        }
        let ujj = u.get(j, j);
        for r in 0..d_out {
            let wv = wt.get(r, j);
            let keep = mask[r * d_in + j];
            let scale = scales[r * n_groups + j / group];
            let q = if keep {
                let q = (wv / scale).round() as i32;
                q.clamp(-qmax, qmax)
            } else {
                0
            };
            levels[r * d_in + j] = q;
            let deq = q as f32 * scale;
            err[r] = (wv - deq) / ujj;
            wt.set(r, j, deq);
        }
        // Propagate the error to unprocessed columns.
        for k in (j + 1)..d_in {
            let ujk = u.get(j, k);
            if ujk == 0.0 {
                continue;
            }
            for (r, &e) in err.iter().enumerate() {
                let cur = wt.get(r, k);
                wt.set(r, k, cur - e * ujk);
            }
        }
    }

    let packed = if cfg.sparse24 {
        // Normalize the mask so exactly two survive per group even when a
        // kept value also quantized to zero (format stores positions only).
        CompressedMatrix::from_sparse24(d_out, d_in, &levels, &mask, scales, cfg.spec)
    } else {
        CompressedMatrix::from_dense(d_out, d_in, &levels, scales, cfg.spec)
    };
    let reconstructed = packed.dequantize();
    ObsResult {
        packed,
        reconstructed,
    }
}

/// Mean squared output error `||X W - X W'||^2 / numel` on given inputs.
pub fn output_mse(w: &Matrix, w_rec: &Matrix, inputs: &[&Matrix]) -> f64 {
    let mut total = 0.0f64;
    let mut count = 0usize;
    for x in inputs {
        let y = x.matmul(w);
        let yr = x.matmul(w_rec);
        for (a, b) in y.data().iter().zip(yr.data().iter()) {
            let d = (a - b) as f64;
            total += d * d;
            count += 1;
        }
    }
    total / count.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quant::quantize_slice;
    use dz_tensor::Rng;

    fn random_inputs(n: usize, t: usize, d: usize, seed: u64) -> Vec<Matrix> {
        let mut rng = Rng::seeded(seed);
        (0..n).map(|_| Matrix::randn(t, d, 1.0, &mut rng)).collect()
    }

    /// Correlated inputs make error propagation matter.
    fn correlated_inputs(n: usize, t: usize, d: usize, seed: u64) -> Vec<Matrix> {
        let mut rng = Rng::seeded(seed);
        let mixer = Matrix::randn(d, d, 1.0, &mut rng);
        (0..n)
            .map(|_| {
                // Low-dimensional latent expanded to d dims => correlated cols.
                let z = Matrix::randn(t, d / 2, 1.0, &mut rng);
                let expand = mixer.submatrix(0, 0, d / 2, d);
                let mut x = z.matmul(&expand);
                x.add_assign(&Matrix::randn(t, d, 0.05, &mut rng));
                x
            })
            .collect()
    }

    #[test]
    fn identity_hessian_dense_reduces_to_rtn() {
        let mut rng = Rng::seeded(1);
        let w = Matrix::randn(16, 6, 0.05, &mut rng);
        let h = Matrix::identity(16);
        let cfg = ObsConfig {
            spec: QuantSpec::new(4, 16),
            sparse24: false,
            damp: 1e-6,
        };
        let res = compress_matrix(&w, &h, &cfg);
        // RTN reference, computed row-wise in output-major orientation.
        // With an identity Hessian U is a multiple of I, so no propagation
        // crosses columns and scales match RTN's.
        let wt = w.transpose();
        for r in 0..6 {
            let (levels, scales) = quantize_slice(wt.row(r), cfg.spec);
            for c in 0..16 {
                let expect = levels[c] as f32 * scales[c / 16];
                let got = res.reconstructed.get(c, r);
                assert!(
                    (expect - got).abs() < 1e-5,
                    "r={r} c={c}: rtn {expect} vs obs {got}"
                );
            }
        }
    }

    #[test]
    fn hessian_from_inputs_is_gram_matrix() {
        let xs = random_inputs(3, 8, 5, 2);
        let refs: Vec<&Matrix> = xs.iter().collect();
        let h = hessian_from_inputs(&refs);
        assert_eq!(h.shape(), (5, 5));
        // Symmetric and PSD diagonal.
        for i in 0..5 {
            assert!(h.get(i, i) > 0.0);
            for j in 0..5 {
                assert!((h.get(i, j) - h.get(j, i)).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn obs_beats_rtn_on_correlated_inputs() {
        let mut rng = Rng::seeded(3);
        let (d_in, d_out) = (32, 12);
        let w = Matrix::randn(d_in, d_out, 0.1, &mut rng);
        let xs = correlated_inputs(4, 16, d_in, 4);
        let refs: Vec<&Matrix> = xs.iter().collect();
        let h = hessian_from_inputs(&refs);
        let cfg = ObsConfig {
            spec: QuantSpec::new(2, 16),
            sparse24: false,
            damp: 0.05,
        };
        let obs = compress_matrix(&w, &h, &cfg);
        let rtn = compress_matrix(&w, &Matrix::identity(d_in), &cfg);
        let obs_mse = output_mse(&w, &obs.reconstructed, &refs);
        let rtn_mse = output_mse(&w, &rtn.reconstructed, &refs);
        assert!(obs_mse < rtn_mse, "obs {obs_mse} should beat rtn {rtn_mse}");
    }

    #[test]
    fn sparse24_mask_is_structural() {
        let mut rng = Rng::seeded(5);
        let w = Matrix::randn(16, 8, 0.1, &mut rng);
        let xs = random_inputs(2, 12, 16, 6);
        let refs: Vec<&Matrix> = xs.iter().collect();
        let h = hessian_from_inputs(&refs);
        let cfg = ObsConfig {
            spec: QuantSpec::new(4, 16),
            sparse24: true,
            damp: 0.05,
        };
        let res = compress_matrix(&w, &h, &cfg);
        // Reconstruction must have >= 2 zeros in every 4-input group of
        // every output column.
        let rec = &res.reconstructed; // (d_in, d_out)
        for out in 0..8 {
            for g in 0..16 / 4 {
                let zeros = (0..4).filter(|&k| rec.get(g * 4 + k, out) == 0.0).count();
                assert!(zeros >= 2, "out {out} group {g}: {zeros} zeros");
            }
        }
        assert!(res.packed.zero_level_fraction() >= 0.5);
    }

    #[test]
    fn small_magnitude_delta_compresses_with_low_relative_error() {
        // Delta-like input: tight distribution, no outliers.
        let mut rng = Rng::seeded(7);
        let delta = Matrix::randn(32, 16, 0.01, &mut rng);
        let xs = random_inputs(3, 16, 32, 8);
        let refs: Vec<&Matrix> = xs.iter().collect();
        let h = hessian_from_inputs(&refs);
        let cfg = ObsConfig {
            spec: QuantSpec::new(4, 16),
            sparse24: true,
            damp: 0.05,
        };
        let res = compress_matrix(&delta, &h, &cfg);
        let rel = output_mse(&delta, &res.reconstructed, &refs)
            / output_mse(&delta, &Matrix::zeros(32, 16), &refs);
        assert!(rel < 0.35, "relative output error {rel}");
    }

    #[test]
    fn output_mse_zero_for_identical_weights() {
        let mut rng = Rng::seeded(9);
        let w = Matrix::randn(8, 4, 1.0, &mut rng);
        let xs = random_inputs(2, 8, 8, 10);
        let refs: Vec<&Matrix> = xs.iter().collect();
        assert_eq!(output_mse(&w, &w, &refs), 0.0);
    }

    #[test]
    #[should_panic(expected = "2:4 needs d_in divisible by 4")]
    fn sparse_requires_divisible_width() {
        let w = Matrix::zeros(6, 4);
        let h = Matrix::identity(6);
        let cfg = ObsConfig {
            spec: QuantSpec::new(4, 16),
            sparse24: true,
            damp: 0.05,
        };
        let _ = compress_matrix(&w, &h, &cfg);
    }
}
