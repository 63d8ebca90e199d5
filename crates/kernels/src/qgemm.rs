//! Dense and fused-dequantize GEMM kernels.
//!
//! `quant_gemm` computes `y = x * W` directly from the packed
//! representation — the CPU analog of a fused dequantization GEMM. For the
//! 2:4 sparse format it only touches the kept values, the same
//! work-skipping sparse tensor cores do.
//!
//! # Row decode
//!
//! Each call decodes every output row of `W` exactly once, with
//! [`CompressedMatrix::decode_row`]: the row's packed levels are read
//! sequentially and dequantized through a per-scale-group table of
//! `2^bits` entries, giving `d_in` weights (dense) or `d_in / 2`
//! `(in-group position, weight)` pairs (2:4). The decoded row is then
//! applied to every row of `x`. The activations are first transposed into
//! blocks of `LANES` batch rows, one `[f32; LANES]` per input column, so
//! the inner loop advances `LANES` independent accumulators at once.
//!
//! # Bit-exactness contract
//!
//! The output is bit-identical to the per-element definition
//! (`level_at` × `scale_at` for every stored value). Each `(batch row,
//! output)` accumulator starts at `0.0` and sums in a fixed order over the
//! input dimension:
//!
//! * dense: `Σ_c x[c]·w[c]`, one product at a time in column order;
//! * 2:4: `Σ_groups (x[c0]·v0 + x[c1]·v1)` over the 4-column groups, the
//!   pair summed first, then added to the accumulator.
//!
//! No FMA, no reassociation over the input dimension: the lanes only run
//! different batch rows side by side, so a row's result does not depend on
//! the batch it shares a call with.
//!
//! A zero level enters as `0.0` rather than `0 × scale`. The two differ at
//! most in the sign of a zero product, and that never reaches the output:
//! an accumulator that starts at `+0.0` can never become `-0.0`, so adding
//! `±0.0` leaves it unchanged. Wire decode rejects non-finite scales, the
//! only ones for which `0 × scale` is not zero.
//! `crates/kernels/tests/kernel_pins.rs` pins the output bits and checks
//! them against the per-element definition with signed scales.

use dz_compress::pack::{CompressedMatrix, MatrixFormat, RowScratch};
use dz_tensor::Matrix;

/// Batch rows one pass of the inner loop accumulates side by side.
const LANES: usize = 8;

/// Plain dense GEMM (the base-model path); thin alias over the tensor crate.
pub fn dense_gemm(x: &Matrix, w: &Matrix) -> Matrix {
    x.matmul(w)
}

/// Fused dequantize-GEMM: `y = x * dequant(cm)` without materializing the
/// dense weight matrix.
///
/// `x` is `(batch, d_in)`, the result `(batch, d_out)`.
///
/// # Panics
///
/// Panics if `x.cols() != cm.d_in`.
pub fn quant_gemm(x: &Matrix, cm: &CompressedMatrix) -> Matrix {
    assert_eq!(x.cols(), cm.d_in, "input width mismatch");
    let (b, d_in, d_out) = (x.rows(), cm.d_in, cm.d_out);
    let mut y = Matrix::zeros(b, d_out);
    // x in lane blocks: block k, column c holds batch rows
    // k*LANES.. of column c (zero-padded past the batch).
    let n_blocks = b.div_ceil(LANES);
    let mut xt = vec![[0.0f32; LANES]; n_blocks * d_in];
    for (i, xr) in x.data().chunks_exact(d_in.max(1)).enumerate() {
        let block = &mut xt[(i / LANES) * d_in..][..d_in];
        for (col, &v) in block.iter_mut().zip(xr) {
            col[i % LANES] = v;
        }
    }
    let yd = y.data_mut();
    let mut row = RowScratch::default();
    for r in 0..d_out {
        cm.decode_row(r, &mut row);
        for k in 0..n_blocks {
            let xb = &xt[k * d_in..(k + 1) * d_in];
            let acc = match cm.format {
                MatrixFormat::QuantDense => dot_dense(xb, &row.weights),
                MatrixFormat::QuantSparse24 => dot_sparse24(xb, &row),
            };
            let lanes = (b - k * LANES).min(LANES);
            for (l, &a) in acc[..lanes].iter().enumerate() {
                yd[(k * LANES + l) * d_out + r] = a;
            }
        }
    }
    y
}

/// `Σ_c x[c]·w[c]` per lane, in column order.
fn dot_dense(xb: &[[f32; LANES]], w: &[f32]) -> [f32; LANES] {
    let mut acc = [0.0f32; LANES];
    for (xc, &wv) in xb.iter().zip(w) {
        for (a, &xv) in acc.iter_mut().zip(xc) {
            *a += xv * wv;
        }
    }
    acc
}

/// `Σ_groups (x[c0]·v0 + x[c1]·v1)` per lane, in group order.
fn dot_sparse24(xb: &[[f32; LANES]], row: &RowScratch) -> [f32; LANES] {
    let mut acc = [0.0f32; LANES];
    let pairs = row
        .weights
        .chunks_exact(2)
        .zip(row.positions.chunks_exact(2));
    for (xg, (v, p)) in xb.chunks_exact(4).zip(pairs) {
        let x0 = &xg[usize::from(p[0] & 0b11)];
        let x1 = &xg[usize::from(p[1] & 0b11)];
        for ((a, &x0v), &x1v) in acc.iter_mut().zip(x0).zip(x1) {
            *a += x0v * v[0] + x1v * v[1];
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use dz_compress::obs::{compress_matrix, ObsConfig};
    use dz_compress::quant::QuantSpec;
    use dz_tensor::Rng;

    fn packed_fixture(sparse: bool, bits: u32, seed: u64) -> (Matrix, CompressedMatrix) {
        let mut rng = Rng::seeded(seed);
        let w = Matrix::randn(16, 8, 0.05, &mut rng);
        let cfg = ObsConfig {
            spec: QuantSpec::new(bits, 16),
            sparse24: sparse,
            damp: 0.05,
        };
        let res = compress_matrix(&w, &Matrix::identity(16), &cfg);
        (res.reconstructed, res.packed)
    }

    #[test]
    fn dense_quant_gemm_matches_dequantized_matmul() {
        for bits in [2u32, 4, 8] {
            let (rec, cm) = packed_fixture(false, bits, bits as u64);
            let mut rng = Rng::seeded(99);
            let x = Matrix::randn(5, 16, 1.0, &mut rng);
            let fused = quant_gemm(&x, &cm);
            let reference = x.matmul(&rec);
            assert!(
                fused.max_abs_diff(&reference) < 1e-4,
                "bits={bits} diff {}",
                fused.max_abs_diff(&reference)
            );
        }
    }

    #[test]
    fn sparse_quant_gemm_matches_dequantized_matmul() {
        for bits in [2u32, 4] {
            let (rec, cm) = packed_fixture(true, bits, bits as u64 + 5);
            let mut rng = Rng::seeded(42);
            let x = Matrix::randn(7, 16, 1.0, &mut rng);
            let fused = quant_gemm(&x, &cm);
            let reference = x.matmul(&rec);
            assert!(
                fused.max_abs_diff(&reference) < 1e-4,
                "bits={bits} diff {}",
                fused.max_abs_diff(&reference)
            );
        }
    }

    #[test]
    fn single_row_batch_works() {
        let (rec, cm) = packed_fixture(true, 4, 11);
        let mut rng = Rng::seeded(3);
        let x = Matrix::randn(1, 16, 1.0, &mut rng);
        let fused = quant_gemm(&x, &cm);
        assert_eq!(fused.shape(), (1, 8));
        assert!(fused.max_abs_diff(&x.matmul(&rec)) < 1e-4);
    }

    #[test]
    #[should_panic(expected = "input width mismatch")]
    fn width_mismatch_panics() {
        let (_, cm) = packed_fixture(false, 4, 13);
        let x = Matrix::zeros(2, 12);
        let _ = quant_gemm(&x, &cm);
    }
}
