//! Dense and fused-dequantize GEMM kernels.
//!
//! `quant_gemm` computes `y = x * W` directly from the packed
//! representation — the CPU analog of a fused dequantization GEMM. For the
//! 2:4 sparse format it only touches the kept values, the same
//! work-skipping sparse tensor cores do.
//!
//! # Block decode
//!
//! Each call decodes every block of [`BLOCK_ROWS`] output rows of `W`
//! exactly once, with [`CompressedMatrix::decode_block`]. The matrix is
//! stored as byte-lane levels (and, for 2:4, in-group position words), the
//! same layout its wire record and `.dza` page hold, so a call only
//! unpacks byte lanes and multiplies each level by its live scale. The decoded block holds
//! `d_in` weights (dense) or `d_in / 2` kept weights plus one position
//! word per 4-column group (2:4) per row, interleaved over the block's
//! rows. It is then applied to every row of `x`, so a batch shares each
//! decoded block.
//!
//! The activations are first transposed into chunks of `L` batch rows,
//! one `[f32; L]` per input column. One pass accumulates a tile of `RT`
//! block rows × `L` batch rows, `RT · L = BLOCK_ROWS`, so every pass
//! advances eight independent accumulators: at batch 1 the eight rows of
//! a block, at batch 8 one row for eight requests. The tile shape follows
//! the batch size; the per-accumulator sums are the same for every shape.
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
//! No FMA, no reassociation over the input dimension: a tile only runs
//! different accumulators side by side, so a row's result depends neither
//! on the batch it shares a call with nor on the tile shape.
//!
//! A zero level enters as `0.0` rather than `0 × scale`. The two differ at
//! most in the sign of a zero product, and that never reaches the output:
//! an accumulator that starts at `+0.0` can never become `-0.0`, so adding
//! `±0.0` leaves it unchanged. Wire decode rejects non-finite scales, the
//! only ones for which `0 × scale` is not zero.
//! `crates/kernels/tests/kernel_pins.rs` pins the output bits and checks
//! them against the per-element definition with signed scales.

use dz_compress::pack::{BlockScratch, CompressedMatrix, MatrixFormat, BLOCK_ROWS};
use dz_tensor::Matrix;

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
    let mut y = Matrix::zeros(0, 0);
    quant_gemm_into(x, cm, &mut y, &mut QuantScratch::default());
    y
}

/// Buffers a [`quant_gemm_into`] call reuses: the lane-chunked
/// activations and the decoded block.
#[derive(Debug, Default)]
pub struct QuantScratch {
    xt: Vec<f32>,
    blk: BlockScratch,
}

/// [`quant_gemm`] into `y`, which is reshaped to `(batch, d_out)` and
/// overwritten; `y` and `scratch` keep their allocations across calls.
///
/// # Panics
///
/// Panics if `x.cols() != cm.d_in`.
pub fn quant_gemm_into(
    x: &Matrix,
    cm: &CompressedMatrix,
    y: &mut Matrix,
    scratch: &mut QuantScratch,
) {
    assert_eq!(x.cols(), cm.d_in, "input width mismatch");
    y.reset(x.rows(), cm.d_out);
    match x.rows() {
        0 => {}
        1 => tiled::<8, 1>(x, cm, y, scratch),
        2 => tiled::<4, 2>(x, cm, y, scratch),
        3 | 4 => tiled::<2, 4>(x, cm, y, scratch),
        _ => tiled::<1, 8>(x, cm, y, scratch),
    }
}

/// `quant_gemm` with tiles of `RT` block rows × `L` batch rows.
fn tiled<const RT: usize, const L: usize>(
    x: &Matrix,
    cm: &CompressedMatrix,
    y: &mut Matrix,
    scratch: &mut QuantScratch,
) {
    debug_assert_eq!(RT * L, BLOCK_ROWS);
    let (b, d_in, d_out) = (x.rows(), cm.d_in, cm.d_out);
    // x in lane chunks: chunk k, column c holds batch rows k*L.. of
    // column c (zero-padded past the batch).
    let n_chunks = b.div_ceil(L);
    scratch.xt.clear();
    scratch.xt.resize(n_chunks * d_in * L, 0.0);
    let xt = scratch.xt.as_chunks_mut::<L>().0;
    for (i, xr) in x.data().chunks_exact(d_in.max(1)).enumerate() {
        let chunk = &mut xt[(i / L) * d_in..][..d_in];
        for (col, &v) in chunk.iter_mut().zip(xr) {
            col[i % L] = v;
        }
    }
    let yd = y.data_mut();
    let blk = &mut scratch.blk;
    for block in 0..d_out.div_ceil(BLOCK_ROWS) {
        cm.decode_block(block, blk);
        let r0 = block * BLOCK_ROWS;
        for t in 0..(d_out - r0).min(BLOCK_ROWS).div_ceil(RT) {
            for (k, xc) in xt.chunks_exact(d_in.max(1)).enumerate() {
                let acc: [[f32; L]; RT] = match cm.format {
                    MatrixFormat::QuantDense => tile_dense(xc, blk, t),
                    MatrixFormat::QuantSparse24 => tile_sparse24(xc, blk, t),
                };
                let lanes = (b - k * L).min(L);
                for (r, a) in (r0 + t * RT..d_out).zip(&acc) {
                    for (l, &v) in a[..lanes].iter().enumerate() {
                        yd[(k * L + l) * d_out + r] = v;
                    }
                }
            }
        }
    }
}

/// `Σ_c x[c]·w[c]` for tile `t` (block rows `t·RT..`) × `L` lanes, in
/// column order.
fn tile_dense<const RT: usize, const L: usize>(
    xc: &[[f32; L]],
    blk: &BlockScratch,
    t: usize,
) -> [[f32; L]; RT] {
    let mut acc = [[0.0f32; L]; RT];
    for (xv, w) in xc.iter().zip(&blk.weights) {
        for (a, &wv) in acc.iter_mut().zip(&w.as_chunks::<RT>().0[t]) {
            for (av, &x) in a.iter_mut().zip(xv) {
                *av += x * wv;
            }
        }
    }
    acc
}

/// `Σ_groups (x[c0]·v0 + x[c1]·v1)` for tile `t` (block rows `t·RT..`) ×
/// `L` lanes, in group order.
fn tile_sparse24<const RT: usize, const L: usize>(
    xc: &[[f32; L]],
    blk: &BlockScratch,
    t: usize,
) -> [[f32; L]; RT] {
    let mut acc = [[0.0f32; L]; RT];
    let groups = xc.as_chunks::<4>().0.iter().zip(&blk.positions);
    for ((xg, &pos), w) in groups.zip(blk.weights.as_chunks::<2>().0) {
        let (v0, v1) = (&w[0].as_chunks::<RT>().0[t], &w[1].as_chunks::<RT>().0[t]);
        let pos = pos >> (4 * RT * t);
        for (jj, a) in acc.iter_mut().enumerate() {
            let p = pos >> (4 * jj);
            let x0 = &xg[(p & 0b11) as usize];
            let x1 = &xg[((p >> 2) & 0b11) as usize];
            for ((av, &x0v), &x1v) in a.iter_mut().zip(x0).zip(x1) {
                *av += x0v * v0[jj] + x1v * v1[jj];
            }
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
    fn rows_are_bit_equal_to_one_row_calls_at_every_batch_size() {
        // Batch sizes 1..=9 cover every tile shape and a partial lane
        // chunk; d_out = 20 leaves a partial row block. The runner relies
        // on this to batch prefill rows with decode rows.
        let bits_of = |row: &[f32]| row.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut rng = Rng::seeded(17);
        let (d_in, d_out) = (32, 20);
        let w = Matrix::randn(d_in, d_out, 0.05, &mut rng);
        for (sparse24, bits) in [(false, 2), (false, 4), (false, 8), (true, 2), (true, 4)] {
            let cfg = ObsConfig {
                spec: QuantSpec::new(bits, 16),
                sparse24,
                damp: 0.05,
            };
            let cm = compress_matrix(&w, &Matrix::identity(d_in), &cfg).packed;
            for b in 1..=9 {
                let mut x = Matrix::randn(b, d_in, 1.0, &mut rng);
                x.set(0, 3, 0.0);
                let (yq, yd) = (quant_gemm(&x, &cm), dense_gemm(&x, &w));
                for r in 0..b {
                    let xr = x.submatrix(r, 0, 1, d_in);
                    let ctx = format!("sparse24={sparse24} bits={bits} batch={b} row={r}");
                    assert_eq!(
                        bits_of(yq.row(r)),
                        bits_of(quant_gemm(&xr, &cm).row(0)),
                        "{ctx}"
                    );
                    assert_eq!(
                        bits_of(yd.row(r)),
                        bits_of(dense_gemm(&xr, &w).row(0)),
                        "{ctx}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "input width mismatch")]
    fn width_mismatch_panics() {
        let (_, cm) = packed_fixture(false, 4, 13);
        let x = Matrix::zeros(2, 12);
        let _ = quant_gemm(&x, &cm);
    }
}
