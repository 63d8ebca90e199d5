//! BitDelta's 1-bit product, served from the packed sign words.
//!
//! A [`SignMatrix`] stores one sign bit per weight, output-major: each
//! output row's `d_in` bits in input order, LSB-first across `u32` words,
//! rows back to back. Its weight at `(row r, input c)` is
//! `scale_of_row(r)` where the bit is set and its negation where it is
//! clear. [`sign_gemm_acc`] adds `x · W` onto `y` straight from those
//! words, the way BitDelta (arXiv 2402.10193) serves its deltas.
//!
//! # Decode in the tile
//!
//! A pass covers `P` outputs × `L` batch rows, `P · L = 32`: 8 × 4 while
//! four or more rows are left, 16 × 2 for two or three, 32 × 1 for the
//! last one. It reads 32 sign bits of each of its outputs at a time, one
//! `u32` per output. For each of those 32 inputs one shift moves every
//! output's bit into the `f32` sign position, and XOR-ing it into the
//! outputs' negated scales gives the input's `P` weights, which the
//! pass's `L` rows then share. Nothing is decoded ahead of the tile and
//! nothing is built per matrix. (Decoding each block once into a buffer
//! shared by every row of a call, as [`crate::qgemm`] does, measured
//! slower at batches 1 and 4: a separate pass stores and reloads every
//! weight, and a tile of eight accumulators waits on its adds.)
//!
//! # Bit-exactness contract
//!
//! A decoded weight has the bits of `scale * 1.0` or `scale * -1.0`, the
//! values [`SignMatrix::dequantize`] stores. Each `(batch row, output)`
//! accumulator starts at its `y` element and adds `x[c]·w[c]` one input
//! at a time in input order, with no FMA and no reassociation; a pass
//! shape only changes which accumulators run side by side. So a row's
//! result does not depend on its batch, and it is bit-identical to
//! accumulating `x[c]·Δ[c][·]` over the dequantized matrix in input order,
//! except where that loop skips `x[c] == 0`: adding `±0.0` changes only an
//! accumulator holding `-0.0`. In the runner every accumulator starts at
//! a base GEMM output, which starts at `+0.0` and never becomes `-0.0`.

use dz_compress::codec::SignMatrix;
use dz_tensor::Matrix;

/// `y += x · W` for the BitDelta matrix `sm`, decoded from its sign words
/// as the module docs give.
///
/// # Panics
///
/// Panics if `x.cols() != sm.d_in` or `y` is not `(x.rows(), sm.d_out)`.
pub(crate) fn sign_gemm_acc(x: &Matrix, sm: &SignMatrix, y: &mut Matrix) {
    assert_eq!(x.cols(), sm.d_in, "input width mismatch");
    assert_eq!(y.shape(), (x.rows(), sm.d_out), "output shape mismatch");
    let mut r = 0;
    while r < x.rows() {
        r += match x.rows() - r {
            1 => pass::<32, 1>(x, r, sm, y),
            2 | 3 => pass::<16, 2>(x, r, sm, y),
            _ => pass::<8, 4>(x, r, sm, y),
        };
    }
}

/// The sign bit of an `f32`.
const SIGN: u32 = 1 << 31;

/// Adds rows `r..r + L` of `x · W` onto `y`, `P` outputs at a time;
/// returns `L`.
fn pass<const P: usize, const L: usize>(
    x: &Matrix,
    r: usize,
    sm: &SignMatrix,
    y: &mut Matrix,
) -> usize {
    let d_in = sm.d_in;
    let xs: [&[f32]; L] = std::array::from_fn(|l| &x.row(r + l)[..d_in]);
    for o0 in (0..sm.d_out).step_by(P) {
        let outs = (sm.d_out - o0).min(P);
        // Each output's weight where its sign bit is clear; a set bit
        // flips it. Padding outputs past `d_out` stay 0.0.
        let mut neg = [0u32; P];
        for (i, n) in neg[..outs].iter_mut().enumerate() {
            *n = (-sm.scale_of_row(o0 + i)).to_bits();
        }
        let mut acc = [[0.0f32; P]; L];
        for (l, a) in acc.iter_mut().enumerate() {
            a[..outs].copy_from_slice(&y.row(r + l)[o0..o0 + outs]);
        }
        for c0 in (0..d_in).step_by(32) {
            // Lane i: output i's signs for inputs c0..c0 + 32, bit k for
            // input c0 + k. Bits read past a row's end are never shifted
            // into place.
            let mut bits = [0u32; P];
            for (i, b) in bits[..outs].iter_mut().enumerate() {
                *b = sign_word(&sm.signs, (o0 + i) * d_in + c0);
            }
            for c in c0..(c0 + 32).min(d_in) {
                let shift = 31 - (c - c0) as u32;
                let w: [f32; P] =
                    std::array::from_fn(|i| f32::from_bits(neg[i] ^ ((bits[i] << shift) & SIGN)));
                for (a, xr) in acc.iter_mut().zip(&xs) {
                    let xv = xr[c];
                    for (av, &wv) in a.iter_mut().zip(&w) {
                        *av += xv * wv;
                    }
                }
            }
        }
        for (l, a) in acc.iter().enumerate() {
            y.row_mut(r + l)[o0..o0 + outs].copy_from_slice(&a[..outs]);
        }
    }
    L
}

/// The 32 sign bits from bit `at` on; bits past the last word read 0.
fn sign_word(signs: &[u32], at: usize) -> u32 {
    let (word, shift) = (at / 32, at % 32);
    let next = signs.get(word + 1).map_or(0, |&w| u64::from(w));
    ((u64::from(signs[word]) | next << 32) >> shift) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use dz_compress::codec::SignScope;
    use dz_tensor::Rng;

    /// The oracle: `y += x·Δ` over the dequantized matrix, one input at a
    /// time in input order, skipping zero inputs, as the runner computed
    /// BitDelta products before the sign GEMM.
    fn fallback(x: &Matrix, sm: &SignMatrix, y: &mut Matrix) {
        let delta = sm.dequantize();
        for r in 0..x.rows() {
            let yr = y.row_mut(r);
            for (k, &xv) in x.row(r).iter().enumerate() {
                if xv == 0.0 {
                    continue;
                }
                for (yv, &dv) in yr.iter_mut().zip(delta.row(k)) {
                    *yv += xv * dv;
                }
            }
        }
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn sign_gemm_is_bit_identical_to_the_dense_fallback() {
        // Rows of 37, 20 and 100 inputs straddle sign words; 13, 9 and 21
        // outputs end on a partial row block; 64 × 16 is aligned.
        let shapes = [(37, 13), (20, 9), (100, 21), (64, 16)];
        let mut rng = Rng::seeded(29);
        for (d_in, d_out) in shapes {
            for scope in [SignScope::PerMatrix, SignScope::PerRow] {
                let sm = SignMatrix::from_delta(&Matrix::randn(d_in, d_out, 0.02, &mut rng), scope);
                for b in 1..=9 {
                    let mut x = Matrix::randn(b, d_in, 1.0, &mut rng);
                    for (i, v) in x.data_mut().iter_mut().enumerate() {
                        match i % 7 {
                            0 => *v = 0.0,
                            3 => *v = -0.0,
                            _ => {}
                        }
                    }
                    let y0 = Matrix::randn(b, d_out, 1.0, &mut rng);
                    let mut want = y0.clone();
                    fallback(&x, &sm, &mut want);
                    let mut got = y0.clone();
                    sign_gemm_acc(&x, &sm, &mut got);
                    assert_eq!(
                        bits(&got),
                        bits(&want),
                        "{d_in}x{d_out} {scope:?} batch {b}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "input width mismatch")]
    fn width_mismatch_panics() {
        let sm = SignMatrix::from_delta(&Matrix::zeros(8, 4), SignScope::PerMatrix);
        sign_gemm_acc(&Matrix::zeros(1, 9), &sm, &mut Matrix::zeros(1, 4));
    }
}
