//! Golden pins over the exact f32 bits the packed kernels produce.
//!
//! Each pin is an FNV-1a checksum over the `to_bits` of every output of
//! `quant_gemm` (or `sbmm_grouped`) on a seeded grid: bits 2..=8, both
//! storage formats, group sizes 4, 8, 12 and 128 (so `d_in` is not always
//! a multiple of the group), the served projection shapes 96×96, 96×192
//! and 192×96 plus a small ragged 36×20, at batch sizes 1, 3 and 8. The
//! pins were taken from the per-element kernel (`level_at` × `scale_at`
//! for every kept value), so any kernel rewrite must reproduce its
//! accumulation order bit for bit.
//!
//! If a change alters kernel numerics *on purpose*, re-pin deliberately:
//! run with
//! `DZ_PRINT_PINS=1 cargo test -p dz-kernels --test kernel_pins -- --nocapture`
//! and paste the printed hashes.

use dz_compress::pack::{CompressedMatrix, MatrixFormat, BLOCK_ROWS};
use dz_compress::quant::QuantSpec;
use dz_compress::wire::{matrix_from_bytes, matrix_to_bytes};
use dz_kernels::{quant_gemm, sbmm_grouped};
use dz_tensor::{Matrix, Rng};

/// `(d_in, d_out)` of every pinned matrix.
const SHAPES: [(usize, usize); 4] = [(96, 96), (96, 192), (192, 96), (36, 20)];
const GROUP_SIZES: [usize; 4] = [4, 8, 12, 128];
const BATCHES: [usize; 3] = [1, 3, 8];
const FORMATS: [MatrixFormat; 2] = [MatrixFormat::QuantDense, MatrixFormat::QuantSparse24];

/// FNV-1a over u32 words.
struct Pin(u64);

impl Pin {
    fn new() -> Self {
        Pin(0xcbf2_9ce4_8422_2325)
    }
    fn word(&mut self, w: u32) {
        for i in 0..4 {
            self.0 ^= u64::from((w >> (i * 8)) & 0xff);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn matrix(&mut self, m: &Matrix) {
        self.word(m.rows() as u32);
        self.word(m.cols() as u32);
        for v in m.data() {
            self.word(v.to_bits());
        }
    }
}

/// A packed matrix with uniformly random levels over the whole grid
/// (zero levels included) and random positive scales.
fn packed(
    format: MatrixFormat,
    bits: u32,
    group_size: usize,
    (d_in, d_out): (usize, usize),
    rng: &mut Rng,
) -> CompressedMatrix {
    let spec = QuantSpec::new(bits, group_size);
    let qmax = spec.qmax();
    let levels: Vec<i32> = (0..d_out * d_in)
        .map(|_| rng.below((2 * qmax + 1) as usize) as i32 - qmax)
        .collect();
    let n_scales = d_out * d_in.div_ceil(group_size);
    let scales: Vec<f32> = (0..n_scales)
        .map(|_| 0.001 + 0.05 * rng.uniform())
        .collect();
    match format {
        MatrixFormat::QuantDense => {
            CompressedMatrix::from_dense(d_out, d_in, &levels, scales, spec)
        }
        MatrixFormat::QuantSparse24 => {
            let mut mask = vec![false; d_out * d_in];
            for g in mask.chunks_mut(4) {
                let first = rng.below(4);
                let second = (first + 1 + rng.below(3)) % 4;
                g[first] = true;
                g[second] = true;
            }
            CompressedMatrix::from_sparse24(d_out, d_in, &levels, &mask, scales, spec)
        }
    }
}

/// Activations with a few exact zeros, as post-GELU rows have.
fn activations(batch: usize, d_in: usize, rng: &mut Rng) -> Matrix {
    let data = (0..batch * d_in)
        .map(|_| {
            if rng.below(16) == 0 {
                0.0
            } else {
                rng.normal()
            }
        })
        .collect();
    Matrix::from_vec(batch, d_in, data)
}

fn format_name(format: MatrixFormat) -> &'static str {
    match format {
        MatrixFormat::QuantDense => "dense",
        MatrixFormat::QuantSparse24 => "sparse24",
    }
}

/// Checks (or, with `DZ_PRINT_PINS` set, prints) one pin per
/// `(format, bits)` cell of the grid.
fn check_pins(label: &str, want: &[[u64; 7]; 2], mut cell: impl FnMut(MatrixFormat, u32) -> u64) {
    let print = std::env::var_os("DZ_PRINT_PINS").is_some();
    let mut failures = Vec::new();
    for (fi, &format) in FORMATS.iter().enumerate() {
        let got: Vec<u64> = (2..=8u32).map(|bits| cell(format, bits)).collect();
        if print {
            let hex: Vec<String> = got.iter().map(|h| format!("0x{h:016x}")).collect();
            println!("{label} {}: [{}]", format_name(format), hex.join(", "));
            continue;
        }
        for (i, (&g, &w)) in got.iter().zip(want[fi].iter()).enumerate() {
            if g != w {
                failures.push(format!(
                    "{} bits={}: got 0x{g:016x}, pinned 0x{w:016x}",
                    format_name(format),
                    i + 2
                ));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{label} pins moved:\n{}",
        failures.join("\n")
    );
}

/// `[dense, sparse24]` × bits 2..=8.
const PIN_QUANT_GEMM: [[u64; 7]; 2] = [
    [
        0x6399cbea1ed87bfd,
        0xf61e5428d2d19943,
        0xc4715d4337d6c4ec,
        0x74f0359ab394d7c1,
        0x8603a8aefc6a9d96,
        0xbe106da1c79652e5,
        0x6df567e74d15de4e,
    ],
    [
        0x2e65eefe104837ff,
        0x30c65e1d77e874c8,
        0xaf8b28f34a21abd8,
        0xcd7ffed2a7019731,
        0x6f8efa06c6fd16e9,
        0xed8141a1e383140d,
        0xbcbf13f2f3701aea,
    ],
];

#[test]
fn quant_gemm_outputs_are_pinned() {
    check_pins("PIN_QUANT_GEMM", &PIN_QUANT_GEMM, |format, bits| {
        let mut rng = Rng::seeded(0x51B3 ^ (u64::from(bits) << 8) ^ format as u64);
        let mut pin = Pin::new();
        for &shape in &SHAPES {
            for &gs in &GROUP_SIZES {
                let cm = packed(format, bits, gs, shape, &mut rng);
                for &batch in &BATCHES {
                    let x = activations(batch, shape.0, &mut rng);
                    pin.matrix(&quant_gemm(&x, &cm));
                }
            }
        }
        pin.0
    });
}

/// `[dense, sparse24]` × bits 2..=8.
const PIN_SBMM_GROUPED: [[u64; 7]; 2] = [
    [
        0x277b1804a3a6186d,
        0x98fe8a5aefc24a96,
        0x45a7a9578176606c,
        0xbb12f79c04c10534,
        0x33ff1ff5ef451a10,
        0xe1f918d247546d5f,
        0x8463e28e4830737e,
    ],
    [
        0xe18b91a130d33a36,
        0x937c3b92a41cbe33,
        0x04c5ee202102e76e,
        0x289df29dc07c8559,
        0x00d8950c1eee3312,
        0x74a78bbed9127ef9,
        0xd902a92fd63fc863,
    ],
];

#[test]
fn sbmm_grouped_outputs_are_pinned() {
    check_pins("PIN_SBMM_GROUPED", &PIN_SBMM_GROUPED, |format, bits| {
        let mut rng = Rng::seeded(0x5B33 ^ (u64::from(bits) << 8) ^ format as u64);
        let mut pin = Pin::new();
        for &shape in &SHAPES {
            // One delta of this shape per group size.
            let deltas: Vec<CompressedMatrix> = GROUP_SIZES
                .iter()
                .map(|&gs| packed(format, bits, gs, shape, &mut rng))
                .collect();
            let refs: Vec<&CompressedMatrix> = deltas.iter().collect();
            for &batch in &BATCHES {
                let x = activations(batch, shape.0, &mut rng);
                let idx: Vec<usize> = (0..batch).map(|_| rng.below(refs.len())).collect();
                pin.matrix(&sbmm_grouped(&x, &idx, &refs));
            }
        }
        pin.0
    });
}

/// The per-element definition `quant_gemm` must match bit for bit:
/// `level_at × scale_at` for every stored value, accumulated in the
/// documented order (the 2:4 pair summed before it joins the
/// accumulator). Zero levels enter the 2:4 sum as `0 × scale`.
fn per_element_reference(x: &Matrix, cm: &CompressedMatrix) -> Matrix {
    let mut y = Matrix::zeros(x.rows(), cm.d_out);
    for bi in 0..x.rows() {
        let xr = x.row(bi);
        for r in 0..cm.d_out {
            let mut acc = 0.0f32;
            match cm.format {
                MatrixFormat::QuantDense => {
                    for (c, &xv) in xr.iter().enumerate() {
                        let w = match cm.level_at(r, c) {
                            0 => 0.0,
                            q => q as f32 * cm.scale_at(r, c),
                        };
                        acc += xv * w;
                    }
                }
                MatrixFormat::QuantSparse24 => {
                    for g4 in 0..cm.d_in / 4 {
                        // Row r's pair sits in nibble r % 8 of its block's
                        // position word for this 4-column group.
                        let word = cm.positions[(r / BLOCK_ROWS) * (cm.d_in / 4) + g4];
                        let slot = |s: usize| {
                            let c =
                                g4 * 4 + ((word >> (4 * (r % BLOCK_ROWS) + 2 * s)) & 0b11) as usize;
                            (c, cm.level_at(r, c) as f32 * cm.scale_at(r, c))
                        };
                        let ((c0, v0), (c1, v1)) = (slot(0), slot(1));
                        acc += xr[c0] * v0 + xr[c1] * v1;
                    }
                }
            }
            y.set(bi, r, acc);
        }
    }
    y
}

fn same_bits(a: &Matrix, b: &Matrix) -> bool {
    a.shape() == b.shape()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Batch sizes of the per-element check: every tile shape `quant_gemm`
/// picks, and batches that span several lane chunks with a ragged last.
const REFERENCE_BATCHES: [usize; 8] = [1, 2, 3, 4, 5, 8, 9, 17];

#[test]
fn quant_gemm_matches_the_per_element_reference_with_signed_scales() {
    let mut rng = Rng::seeded(0xD1FF);
    for &format in &FORMATS {
        for bits in 2..=8u32 {
            // d_out 20 and 13 end on a partial row block; d_in 36 and 44
            // end on a partial scale group at group sizes 8 and 128.
            for &shape in &[(36, 20), (96, 24), (44, 13)] {
                for &gs in &GROUP_SIZES {
                    let mut cm = packed(format, bits, gs, shape, &mut rng);
                    // Served once before its scales change: the kernel
                    // reads them at each call, so nothing served is stale.
                    let ones = Matrix::from_vec(1, shape.0, vec![1.0; shape.0]);
                    quant_gemm(&ones, &cm);
                    for s in cm.scales.iter_mut() {
                        if rng.below(2) == 0 {
                            *s = -*s;
                        }
                    }
                    // A matrix equals its wire round trip and serves the
                    // same bits.
                    let back = matrix_from_bytes(&matrix_to_bytes(&cm)).expect("round trip");
                    assert_eq!(back, cm);
                    assert!(same_bits(
                        &quant_gemm(&ones, &cm),
                        &per_element_reference(&ones, &cm)
                    ));
                    for &batch in &REFERENCE_BATCHES {
                        let x = activations(batch, shape.0, &mut rng);
                        let got = quant_gemm(&x, &cm);
                        let want = per_element_reference(&x, &cm);
                        assert!(
                            same_bits(&got, &want) && same_bits(&quant_gemm(&x, &back), &got),
                            "{format:?} bits={bits} gs={gs} {shape:?} batch={batch}"
                        );
                    }
                }
            }
        }
    }
}
