//! Delta-CoMe's low-rank product, served from its factors.
//!
//! A [`LowRankMatrix`] holds precision bands of group-quantized factors:
//! band `b` maps the input onto `rank_b` singular directions through `P_b`
//! (`d_in × rank_b`) and back onto the outputs through `Q_bᵀ`
//! (`rank_b × d_out`), and the delta is `Σ_b P_b·Q_bᵀ` (Delta-CoMe, arXiv
//! 2406.08903). [`LowRankFactors`] dequantizes every band's factors once,
//! side by side in band order: `p` is `d_in × R` and `qt` is `R × d_out`
//! over the `R` directions of all bands. That is `R·(d_in + d_out)` values,
//! against the `d_in·d_out` of the product, which is never built.
//!
//! The product of a group of rows is two skinny GEMMs, `(x·p)·qt`: each
//! direction's coordinate sums over the inputs in order, then each output
//! sums over the directions in band order, with no FMA. A row's result
//! therefore does not depend on the rows beside it. It agrees with
//! `x · LowRankMatrix::dequantize()` to rounding, not bit for bit: the
//! dequantized matrix sums over the directions first.

use dz_compress::codec::{LowRankBand, LowRankMatrix};
use dz_compress::pack::{BlockScratch, CompressedMatrix, MatrixFormat, BLOCK_ROWS};
use dz_tensor::Matrix;

/// A Delta-CoMe layer's factors, dequantized once for serving.
pub(crate) struct LowRankFactors {
    /// Every band's `P_b`, side by side: `d_in × R`.
    p: Matrix,
    /// Every band's `Q_bᵀ`, stacked: `R × d_out`.
    qt: Matrix,
}

impl LowRankFactors {
    /// Dequantizes the factors of every band of `lr`, decoding through
    /// `blk`.
    pub(crate) fn new(lr: &LowRankMatrix, blk: &mut BlockScratch) -> Self {
        let r = lr.bands.iter().map(LowRankBand::rank).sum();
        let mut p = Matrix::zeros(lr.d_in, r);
        let mut qt = Matrix::zeros(r, lr.d_out);
        let mut dirs = Matrix::zeros(0, 0);
        let mut at = 0;
        for band in &lr.bands {
            // A factor's stored rows are the band's directions.
            stored_rows(&band.p, blk, &mut dirs);
            for (c, pc) in p.data_mut().chunks_exact_mut(r.max(1)).enumerate() {
                for (j, v) in pc[at..at + band.rank()].iter_mut().enumerate() {
                    *v = dirs.get(j, c);
                }
            }
            stored_rows(&band.q, blk, &mut dirs);
            qt.set_submatrix(at, 0, &dirs);
            at += band.rank();
        }
        LowRankFactors { p, qt }
    }

    /// `y = x · Δ` for a group of rows, as `(x·p)·qt`. `y` and `xp` (the
    /// rows' coordinates along the directions) are reshaped and
    /// overwritten; their allocations are reused.
    pub(crate) fn product_into(&self, x: &Matrix, y: &mut Matrix, xp: &mut Matrix) {
        x.matmul_into(&self.p, xp);
        xp.matmul_into(&self.qt, y);
    }
}

/// Decodes the dense factor `cm` into `out` in its stored orientation:
/// `d_out × d_in`, one stored row per matrix row. Factors are never 2:4:
/// the codec writes dense ones and the wire decoder refuses others.
fn stored_rows(cm: &CompressedMatrix, blk: &mut BlockScratch, out: &mut Matrix) {
    debug_assert_eq!(cm.format, MatrixFormat::QuantDense, "2:4 low-rank factor");
    out.reset(cm.d_out, cm.d_in);
    for block in 0..cm.d_out.div_ceil(BLOCK_ROWS) {
        cm.decode_block(block, blk);
        let rows = out.data_mut()[block * BLOCK_ROWS * cm.d_in..].chunks_exact_mut(cm.d_in.max(1));
        for (j, row) in rows.take(BLOCK_ROWS).enumerate() {
            for (v, lanes) in row.iter_mut().zip(&blk.weights) {
                *v = lanes[j];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dz_compress::quant::QuantSpec;
    use dz_tensor::Rng;

    #[test]
    fn product_matches_x_times_the_dequantized_matrix() {
        // The low and high Delta-CoMe budgets, and a shape with a partial
        // row block whose last band is clamped to the spectrum (16 > 12).
        let cases = [
            (96, 96, &[(8, 2), (3, 4), (2, 8)][..]),
            (96, 192, &[(8, 4), (3, 8), (2, 16)]),
            (20, 12, &[(8, 2), (2, 16)]),
        ];
        let mut rng = Rng::seeded(41);
        let (mut y, mut xp) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        for (d_in, d_out, bands) in cases {
            let lr = LowRankMatrix::from_delta(&Matrix::randn(d_in, d_out, 0.02, &mut rng), bands);
            let (dense, factors) = (
                lr.dequantize(),
                LowRankFactors::new(&lr, &mut BlockScratch::default()),
            );
            for b in 1..=9 {
                let x = Matrix::randn(b, d_in, 1.0, &mut rng);
                factors.product_into(&x, &mut y, &mut xp);
                let want = x.matmul(&dense);
                let diff = y.max_abs_diff(&want);
                assert!(
                    diff <= 1e-5 * want.max_abs().max(1.0),
                    "{d_in}x{d_out} batch {b}: diff {diff}"
                );
            }
        }
    }

    #[test]
    fn a_layer_without_directions_adds_nothing() {
        // No bands (a zero delta), and a rank-0 band as a wire record may
        // declare one.
        let spec = QuantSpec::new(4, 8);
        let empty = |cols| CompressedMatrix::from_dense(0, cols, &[], Vec::new(), spec);
        let rank0 = LowRankBand {
            p: empty(6),
            q: empty(5),
        };
        for bands in [Vec::new(), vec![rank0]] {
            let lr = LowRankMatrix {
                d_in: 6,
                d_out: 5,
                bands,
            };
            let factors = LowRankFactors::new(&lr, &mut BlockScratch::default());
            let (mut y, mut xp) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
            factors.product_into(&Matrix::full(2, 6, 1.0), &mut y, &mut xp);
            assert_eq!(y, Matrix::zeros(2, 5));
        }
    }

    #[test]
    fn rows_are_bit_equal_to_one_row_calls() {
        let mut rng = Rng::seeded(43);
        let lr =
            LowRankMatrix::from_delta(&Matrix::randn(36, 20, 0.02, &mut rng), &[(8, 2), (3, 4)]);
        let factors = LowRankFactors::new(&lr, &mut BlockScratch::default());
        let (mut y, mut one, mut xp) = (
            Matrix::zeros(0, 0),
            Matrix::zeros(0, 0),
            Matrix::zeros(0, 0),
        );
        let x = Matrix::randn(9, 36, 1.0, &mut rng);
        factors.product_into(&x, &mut y, &mut xp);
        for r in 0..9 {
            factors.product_into(&x.submatrix(r, 0, 1, 36), &mut one, &mut xp);
            let bits = |m: &[f32]| m.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(y.row(r)), bits(one.row(0)), "row {r}");
        }
    }
}
