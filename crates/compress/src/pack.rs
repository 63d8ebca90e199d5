//! Bit-packed storage formats for compressed matrices.
//!
//! The formats mirror what the paper's GPU kernels consume (Figure 5):
//!
//! * **QuantDense** — every level packed at `bits` per value,
//! * **QuantSparse24** — 2:4 structured sparsity: per group of 4 inputs only
//!   the 2 kept levels are stored, plus one 2-bit in-group position index per
//!   kept value (so a group costs `2*bits + 4` bits instead of `4*bits`).
//!
//! Matrices are stored output-major (`d_out` rows of `d_in` inputs), i.e.
//! transposed relative to the model's `(d_in, d_out)` weights, so that 2:4
//! groups are contiguous exactly like the hardware layout. Scales are
//! per-(row, group) and counted as FP16 in all byte accounting.
//!
//! [`CompressedMatrix::level_at`] / [`CompressedMatrix::scale_at`] are the
//! per-element specification. Two decoders yield the same f32 bits:
//!
//! * [`CompressedMatrix::decode_row`] reads one output row's packed words
//!   sequentially. It serves [`CompressedMatrix::dequantize`] (compression,
//!   Delta-CoMe bands and the kernels' dense fallback).
//! * [`CompressedMatrix::decode_block`] serves the fused kernels. It reads
//!   a private *serving layout* that the matrix builds from `qweight` and
//!   `indices` on the first call and keeps for its lifetime. The layout
//!   interleaves blocks of [`BLOCK_ROWS`] output rows: each `u64` word
//!   holds one byte lane per row, with one, two or four levels per lane
//!   (8-, 4- or 2-bit), and 2:4 positions sit in one `u32` per block and
//!   4-column group. A call unpacks a word's byte lanes with one shift
//!   and one mask and multiplies each level by its scale, read live from
//!   `scales`; nothing is bit-unpacked. For 2- and 4-bit levels the
//!   layout is about the size of the packed form. It is a cache: it is not
//!   part of `PartialEq`, the wire format or
//!   [`CompressedMatrix::packed_bytes`], and a clone starts without it.

use crate::quant::{dequantize_value, QuantSpec};
use dz_tensor::Matrix;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::OnceLock;

/// Output rows one serving-layout block interleaves
/// (see [`CompressedMatrix::decode_block`]).
pub const BLOCK_ROWS: usize = 8;

/// Storage layout of a [`CompressedMatrix`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MatrixFormat {
    /// Dense quantized levels.
    QuantDense,
    /// 2:4 structured sparse quantized levels with position indices.
    QuantSparse24,
}

/// A packed, quantized (optionally 2:4-sparse) matrix.
///
/// Change `qweight` or `indices` only before the first
/// [`decode_block`](Self::decode_block): the serving layout it builds is
/// derived from them once. `scales` may change at any time.
#[derive(Debug, Clone, PartialEq)]
pub struct CompressedMatrix {
    /// Input dimension (columns of each stored row).
    pub d_in: usize,
    /// Output dimension (number of stored rows).
    pub d_out: usize,
    /// Quantization grid.
    pub spec: QuantSpec,
    /// Storage layout.
    pub format: MatrixFormat,
    /// Packed biased levels, little-endian within each `u32`.
    pub qweight: Vec<u32>,
    /// 2-bit in-group position indices (4 per byte), sparse format only.
    pub indices: Vec<u8>,
    /// Per-(row, group) scales, row-major `(d_out, n_groups)`.
    pub scales: Vec<f32>,
    /// The serving layout, built by the first `decode_block`.
    pub(crate) serving: Serving,
}

/// Holder of a matrix's serving layout. It compares equal to every other
/// holder and clones empty, so the layout never changes what a matrix
/// equals and a clone (whose fields may then be edited) builds its own.
#[derive(Default)]
pub(crate) struct Serving(OnceLock<ServingLayout>);

impl Clone for Serving {
    fn clone(&self) -> Self {
        Serving::default()
    }
}

impl PartialEq for Serving {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl fmt::Debug for Serving {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Serving")
            .field("built", &self.0.get().is_some())
            .finish()
    }
}

/// The stored levels and 2:4 positions re-laid for serving, interleaved
/// over blocks of [`BLOCK_ROWS`] output rows. Lanes of rows past `d_out`
/// are zero bits.
///
/// Levels sit in `u64` words, one byte lane per block row: byte `j` of a
/// word holds row `j`'s level for `8 / width` consecutive stored values,
/// `width` bits each. A word unpacks to one value per row with one shift
/// and one mask, and 2- and 4-bit levels take about the room of the
/// packed form.
struct ServingLayout {
    /// Bits per level in `levels`: 2, 4 or 8, the least that holds
    /// `spec.bits`.
    width: u32,
    /// `words_per_block` words per block.
    levels: Vec<u64>,
    words_per_block: usize,
    /// 2:4 format only: one word per block and 4-column group; bits
    /// `4j..4j + 4` hold row `j`'s two in-group positions, the first kept
    /// slot in the low two bits.
    positions: Vec<u32>,
}

impl ServingLayout {
    fn build(cm: &CompressedMatrix) -> Self {
        let (per_row, _) = cm.stored_per_row_and_group();
        let width = cm.spec.bits.next_power_of_two();
        let per_word = (8 / width) as usize;
        let words_per_block = per_row.div_ceil(per_word);
        let n_blocks = cm.d_out.div_ceil(BLOCK_ROWS);
        let mut levels = vec![0u64; n_blocks * words_per_block];
        for r in 0..cm.d_out {
            let words = &mut levels[(r / BLOCK_ROWS) * words_per_block..][..words_per_block];
            let lane = 8 * (r % BLOCK_ROWS) as u32;
            let mut rd = LevelReader::new(&cm.qweight, r * per_row, cm.spec.bits);
            for (k0, w) in (0..per_row).step_by(per_word).zip(words) {
                for h in 0..per_word.min(per_row - k0) {
                    *w |= u64::from(rd.read()) << (lane + h as u32 * width);
                }
            }
        }
        let mut positions = Vec::new();
        if cm.format == MatrixFormat::QuantSparse24 {
            let groups = cm.d_in / 4;
            positions = vec![0u32; n_blocks * groups];
            for r in 0..cm.d_out {
                let words = &mut positions[(r / BLOCK_ROWS) * groups..][..groups];
                for (t, w) in words.iter_mut().enumerate() {
                    // A row's kept slots start at an even index, so each
                    // 4-column group's pair fills one nibble of an index
                    // byte.
                    let i = r * per_row + 2 * t;
                    let pair = (cm.indices[i / 4] >> ((i % 4) * 2)) & 0xF;
                    *w |= u32::from(pair) << (4 * (r % BLOCK_ROWS));
                }
            }
        }
        ServingLayout {
            width,
            levels,
            words_per_block,
            positions,
        }
    }
}

/// Packs a sequence of biased levels at `bits` per value into `u32` words.
fn pack_levels(levels: impl Iterator<Item = u32>, bits: u32) -> Vec<u32> {
    let mut out = Vec::new();
    let mut acc = 0u64;
    let mut filled = 0u32;
    for v in levels {
        debug_assert!(v < (1 << bits));
        acc |= (v as u64) << filled;
        filled += bits;
        while filled >= 32 {
            out.push((acc & 0xFFFF_FFFF) as u32);
            acc >>= 32;
            filled -= 32;
        }
    }
    if filled > 0 {
        out.push((acc & 0xFFFF_FFFF) as u32);
    }
    out
}

/// Reads the `i`-th `bits`-wide biased level from packed words.
#[inline]
fn read_level(packed: &[u32], i: usize, bits: u32) -> u32 {
    let bit = i * bits as usize;
    let word = bit / 32;
    let off = (bit % 32) as u32;
    let mask = (1u64 << bits) - 1;
    let lo = (packed[word] as u64) >> off;
    let v = if off + bits > 32 {
        lo | ((packed[word + 1] as u64) << (32 - off))
    } else {
        lo
    };
    (v & mask) as u32
}

/// Sequential reader of `bits`-wide biased levels, starting at level
/// `first`: one shift and mask per level, one word load per 32 bits.
struct LevelReader<'a> {
    words: &'a [u32],
    next: usize,
    acc: u64,
    avail: u32,
    bits: u32,
}

impl<'a> LevelReader<'a> {
    fn new(words: &'a [u32], first: usize, bits: u32) -> Self {
        let bit = first * bits as usize;
        let mut rd = LevelReader {
            words,
            next: bit / 32,
            acc: 0,
            avail: 0,
            bits,
        };
        let off = (bit % 32) as u32;
        if off > 0 {
            rd.refill();
            rd.acc >>= off;
            rd.avail -= off;
        }
        rd
    }

    #[inline]
    fn refill(&mut self) {
        self.acc |= u64::from(self.words[self.next]) << self.avail;
        self.next += 1;
        self.avail += 32;
    }

    /// The next biased level (`bits <= 8`, so it fits a byte).
    #[inline]
    fn read(&mut self) -> u8 {
        if self.avail < self.bits {
            self.refill();
        }
        let v = (self.acc & ((1 << self.bits) - 1)) as u8;
        self.acc >>= self.bits;
        self.avail -= self.bits;
        v
    }
}

/// Caller-owned scratch for [`CompressedMatrix::decode_row`], reused across
/// rows and calls so decoding allocates nothing per row.
#[derive(Debug, Clone, Default)]
pub struct RowScratch {
    /// Dequantized weights of the row. Dense format: `d_in` values in
    /// column order. 2:4 format: one value per kept slot in storage order
    /// (two per 4-column group), `d_in / 2` in all.
    pub weights: Vec<f32>,
    /// 2:4 format only: the in-group position (`0..4`) of each kept slot,
    /// parallel to `weights`. Empty for the dense format.
    pub positions: Vec<u8>,
}

/// Caller-owned scratch for [`CompressedMatrix::decode_block`], reused
/// across blocks and calls so decoding allocates nothing per block.
#[derive(Debug, Clone, Default)]
pub struct BlockScratch {
    /// Dequantized weights of the block, one `[f32; BLOCK_ROWS]` per
    /// stored value, lane `j` for the block's row `j`. Dense format:
    /// `d_in` entries in column order. 2:4 format: one entry per kept
    /// slot in storage order (two per 4-column group), `d_in / 2` in all.
    /// Lanes past `d_out` hold zeros.
    pub weights: Vec<[f32; BLOCK_ROWS]>,
    /// 2:4 format only: one word per 4-column group. Bits `4j..4j + 2`
    /// hold the in-group position (`0..4`) of row `j`'s first kept slot,
    /// bits `4j + 2..4j + 4` that of its second. Empty for the dense format.
    pub positions: Vec<u32>,
    /// The block's levels, one byte lane per row.
    levels: Vec<[u8; BLOCK_ROWS]>,
    /// The block's scales per group, one lane per row.
    group_scales: Vec<[f32; BLOCK_ROWS]>,
    /// Each stored value's scales, one lane per row.
    scales: Vec<[f32; BLOCK_ROWS]>,
}

impl CompressedMatrix {
    /// Builds a dense-quantized matrix from levels in output-major order.
    ///
    /// `levels[r * d_in + c]` is the signed level of input `c` of output row
    /// `r`; `scales[r * n_groups + g]` its group scale.
    ///
    /// # Panics
    ///
    /// Panics on length mismatches.
    pub fn from_dense(
        d_out: usize,
        d_in: usize,
        levels: &[i32],
        scales: Vec<f32>,
        spec: QuantSpec,
    ) -> Self {
        assert_eq!(levels.len(), d_out * d_in, "levels length mismatch");
        let n_groups = d_in.div_ceil(spec.group_size);
        assert_eq!(scales.len(), d_out * n_groups, "scales length mismatch");
        let qmax = spec.qmax();
        let packed = pack_levels(
            levels.iter().map(|&q| {
                debug_assert!(q.abs() <= qmax);
                (q + qmax) as u32
            }),
            spec.bits,
        );
        CompressedMatrix {
            d_in,
            d_out,
            spec,
            format: MatrixFormat::QuantDense,
            qweight: packed,
            indices: Vec::new(),
            scales,
            serving: Serving::default(),
        }
    }

    /// Builds a 2:4-sparse matrix from full levels plus a keep-mask.
    ///
    /// The mask must keep exactly 2 of every 4 consecutive inputs in every
    /// row. Kept levels are stored in order; each gets a 2-bit in-group
    /// position index.
    ///
    /// # Panics
    ///
    /// Panics if `d_in % 4 != 0`, `spec.group_size % 4 != 0` (a scale
    /// group must hold whole 4-column groups) or the mask violates the 2:4
    /// constraint.
    pub fn from_sparse24(
        d_out: usize,
        d_in: usize,
        levels: &[i32],
        mask: &[bool],
        scales: Vec<f32>,
        spec: QuantSpec,
    ) -> Self {
        assert_eq!(d_in % 4, 0, "2:4 needs d_in divisible by 4");
        assert_eq!(
            spec.group_size % 4,
            0,
            "2:4 needs group_size divisible by 4"
        );
        assert_eq!(levels.len(), d_out * d_in);
        assert_eq!(mask.len(), d_out * d_in);
        let n_groups = d_in.div_ceil(spec.group_size);
        assert_eq!(scales.len(), d_out * n_groups, "scales length mismatch");
        let qmax = spec.qmax();
        let mut kept_levels = Vec::with_capacity(d_out * d_in / 2);
        let mut idx_nibbles = Vec::with_capacity(d_out * d_in / 2);
        for r in 0..d_out {
            for g4 in 0..d_in / 4 {
                let base = r * d_in + g4 * 4;
                let kept: Vec<usize> = (0..4).filter(|&k| mask[base + k]).collect();
                assert_eq!(
                    kept.len(),
                    2,
                    "row {r} group {g4}: mask must keep exactly 2 of 4"
                );
                for &k in &kept {
                    kept_levels.push((levels[base + k] + qmax) as u32);
                    idx_nibbles.push(k as u8);
                }
            }
        }
        let qweight = pack_levels(kept_levels.into_iter(), spec.bits);
        // Pack 2-bit indices, 4 per byte.
        let mut indices = vec![0u8; idx_nibbles.len().div_ceil(4)];
        for (i, &p) in idx_nibbles.iter().enumerate() {
            indices[i / 4] |= p << ((i % 4) * 2);
        }
        CompressedMatrix {
            d_in,
            d_out,
            spec,
            format: MatrixFormat::QuantSparse24,
            qweight,
            indices,
            scales,
            serving: Serving::default(),
        }
    }

    /// Number of groups per row.
    pub fn groups_per_row(&self) -> usize {
        self.d_in.div_ceil(self.spec.group_size)
    }

    /// Scale of input column `c` in output row `r`.
    #[inline]
    // dz-lint: allow(dead-pub, "reference scale lookup the row-decode proptests compare against")
    pub fn scale_at(&self, r: usize, c: usize) -> f32 {
        self.scales[r * self.groups_per_row() + c / self.spec.group_size]
    }

    /// The signed level of `(row r, input c)`, resolving sparsity.
    // dz-lint: allow(dead-pub, "reference level lookup the row-decode proptests compare against")
    pub fn level_at(&self, r: usize, c: usize) -> i32 {
        let qmax = self.spec.qmax();
        match self.format {
            MatrixFormat::QuantDense => {
                read_level(&self.qweight, r * self.d_in + c, self.spec.bits) as i32 - qmax
            }
            MatrixFormat::QuantSparse24 => {
                let g4 = c / 4;
                let within = (c % 4) as u8;
                let kept_base = (r * self.d_in) / 2 + g4 * 2;
                for slot in 0..2 {
                    let i = kept_base + slot;
                    let pos = (self.indices[i / 4] >> ((i % 4) * 2)) & 0b11;
                    if pos == within {
                        return read_level(&self.qweight, i, self.spec.bits) as i32 - qmax;
                    }
                }
                0
            }
        }
    }

    /// Number of values stored per row and per scale group.
    fn stored_per_row_and_group(&self) -> (usize, usize) {
        match self.format {
            MatrixFormat::QuantDense => (self.d_in, self.spec.group_size),
            MatrixFormat::QuantSparse24 => (self.d_in / 2, self.spec.group_size / 2),
        }
    }

    /// Decodes output row `r` into `row` (see [`RowScratch`] for the
    /// layout of each format).
    ///
    /// Every weight has exactly the bits of the per-element spec:
    /// `0.0` where [`level_at`](Self::level_at) is zero, otherwise
    /// `dequantize_value(level_at(r, c), scale_at(r, c))`. The row's levels
    /// are read sequentially from `qweight`; the scale advances every
    /// `group_size` stored values (`group_size / 2` kept values for 2:4),
    /// and each scale group dequantizes through a `2^bits`-entry table of
    /// `(l - qmax) as f32 * scale`, the same f32 product.
    ///
    /// # Panics
    ///
    /// Panics if `r >= d_out`, or for the 2:4 format if
    /// `spec.group_size % 4 != 0` (rejected by every constructor and by
    /// wire decode).
    pub fn decode_row(&self, r: usize, row: &mut RowScratch) {
        assert!(r < self.d_out, "row {r} out of range");
        let sparse = self.format == MatrixFormat::QuantSparse24;
        if sparse {
            assert_eq!(
                self.spec.group_size % 4,
                0,
                "2:4 needs group_size divisible by 4"
            );
        }
        let (per_row, per_group) = self.stored_per_row_and_group();
        let qmax = self.spec.qmax();
        let n_levels = 1usize << self.spec.bits;
        let gpr = self.groups_per_row();
        let scales = &self.scales[r * gpr..(r + 1) * gpr];
        let mut levels = LevelReader::new(&self.qweight, r * per_row, self.spec.bits);
        let mut table = [0.0f32; 256];
        row.weights.clear();
        row.weights.resize(per_row, 0.0);
        for (chunk, &scale) in row.weights.chunks_mut(per_group).zip(scales) {
            for (l, t) in table[..n_levels].iter_mut().enumerate() {
                *t = dequantize_value(l as i32 - qmax, scale);
            }
            table[qmax as usize] = 0.0;
            for w in chunk {
                *w = table[usize::from(levels.read())];
            }
        }
        row.positions.clear();
        if sparse {
            // Four 2-bit positions per index byte. A row's first slot is
            // even (two per 4-column group), so it starts at a byte
            // boundary or halfway into a byte.
            let unpack = |b: u8| [b & 0b11, (b >> 2) & 0b11, (b >> 4) & 0b11, b >> 6];
            let first = r * per_row;
            let mut byte = first / 4;
            row.positions.resize(per_row, 0);
            let mut out = &mut row.positions[..];
            if first % 4 == 2 {
                out[..2].copy_from_slice(&unpack(self.indices[byte])[2..]);
                out = &mut out[2..];
                byte += 1;
            }
            let mut quads = out.chunks_exact_mut(4);
            for quad in &mut quads {
                quad.copy_from_slice(&unpack(self.indices[byte]));
                byte += 1;
            }
            if let [p0, p1] = quads.into_remainder() {
                [*p0, *p1] = [self.indices[byte] & 0b11, (self.indices[byte] >> 2) & 0b11];
            }
        }
    }

    /// Decodes output rows `block * BLOCK_ROWS..` (at most
    /// [`BLOCK_ROWS`] of them) into `out`, interleaved as
    /// [`BlockScratch`] describes.
    ///
    /// The first call builds the matrix's serving layout. Every call
    /// unpacks the block's level words into byte lanes, one shift and one
    /// mask per word, so no call reads levels bit by bit. Each weight has
    /// the bits [`decode_row`](Self::decode_row) gives it: `0.0` for a
    /// zero level, otherwise `dequantize_value(level, scale)` with the
    /// scale read from `scales` at this call.
    ///
    /// # Panics
    ///
    /// Panics if `block * BLOCK_ROWS >= d_out`.
    pub fn decode_block(&self, block: usize, out: &mut BlockScratch) {
        let r0 = block * BLOCK_ROWS;
        assert!(r0 < self.d_out, "block {block} out of range");
        let layout = self.serving.0.get_or_init(|| ServingLayout::build(self));
        let (per_row, per_group) = self.stored_per_row_and_group();
        let gpr = self.groups_per_row();
        // Unpack the block's level words into byte lanes.
        let width = layout.width;
        let lane_mask = 0x0101_0101_0101_0101u64 * ((1u64 << width) - 1);
        let words = &layout.levels[block * layout.words_per_block..][..layout.words_per_block];
        out.levels.resize(per_row, [0; BLOCK_ROWS]);
        for (lanes, &w) in out.levels.chunks_mut((8 / width) as usize).zip(words) {
            for (h, l) in lanes.iter_mut().enumerate() {
                *l = ((w >> (h as u32 * width)) & lane_mask).to_le_bytes();
            }
        }
        // Each stored value's scales, one lane per row (0.0 for padding
        // rows): first per group, then repeated over the group's values.
        let rows = (self.d_out - r0).min(BLOCK_ROWS);
        out.group_scales.clear();
        out.group_scales.resize(gpr, [0.0; BLOCK_ROWS]);
        let row_scales = self.scales[r0 * gpr..(r0 + rows) * gpr].chunks_exact(gpr.max(1));
        for (j, row) in row_scales.enumerate() {
            for (s, &v) in out.group_scales.iter_mut().zip(row) {
                s[j] = v;
            }
        }
        out.scales.resize(per_row, [0.0; BLOCK_ROWS]);
        for (run, s) in out.scales.chunks_mut(per_group).zip(&out.group_scales) {
            run.fill(*s);
        }
        // One flat pass: a zero level gives 0.0, branch-free.
        let qmax = self.spec.qmax();
        out.weights.resize(per_row, [0.0; BLOCK_ROWS]);
        let values = out
            .levels
            .as_flattened()
            .iter()
            .zip(out.scales.as_flattened());
        for (w, (&l, &scale)) in out.weights.as_flattened_mut().iter_mut().zip(values) {
            let q = i32::from(l) - qmax;
            let keep = u32::from(q != 0).wrapping_neg();
            *w = f32::from_bits(dequantize_value(q, scale).to_bits() & keep);
        }
        out.positions.clear();
        if self.format == MatrixFormat::QuantSparse24 {
            let per_block = self.d_in / 4;
            out.positions
                .extend_from_slice(&layout.positions[block * per_block..(block + 1) * per_block]);
        }
    }

    /// Address of the serving layout, or `None` before the first
    /// [`decode_block`](Self::decode_block) builds it. It stays the same
    /// for the matrix's lifetime: the layout is built once.
    // dz-lint: allow(dead-pub, "layout identity the build-once test compares across batch runners")
    pub fn serving_layout_addr(&self) -> Option<usize> {
        self.serving.0.get().map(|l| l.levels.as_ptr() as usize)
    }

    /// Dequantizes into the model's `(d_in, d_out)` weight orientation.
    pub fn dequantize(&self) -> Matrix {
        let mut w = Matrix::zeros(self.d_in, self.d_out);
        let d_out = self.d_out;
        let out = w.data_mut();
        let mut row = RowScratch::default();
        for r in 0..d_out {
            self.decode_row(r, &mut row);
            match self.format {
                MatrixFormat::QuantDense => {
                    for (c, &v) in row.weights.iter().enumerate() {
                        out[c * d_out + r] = v;
                    }
                }
                MatrixFormat::QuantSparse24 => {
                    for (k, (&v, &p)) in row.weights.iter().zip(&row.positions).enumerate() {
                        out[((k / 2) * 4 + usize::from(p)) * d_out + r] = v;
                    }
                }
            }
        }
        w
    }

    /// Exact storage footprint in bytes (scales counted as FP16).
    pub fn packed_bytes(&self) -> usize {
        let value_count = match self.format {
            MatrixFormat::QuantDense => self.d_out * self.d_in,
            MatrixFormat::QuantSparse24 => self.d_out * self.d_in / 2,
        };
        let value_bits = value_count * self.spec.bits as usize;
        let index_bits = match self.format {
            MatrixFormat::QuantDense => 0,
            MatrixFormat::QuantSparse24 => value_count * 2,
        };
        let scale_bytes = self.scales.len() * 2;
        value_bits.div_ceil(8) + index_bits.div_ceil(8) + scale_bytes
    }

    /// FP16 bytes of the uncompressed equivalent.
    pub fn fp16_bytes(&self) -> usize {
        self.d_in * self.d_out * 2
    }

    /// Serializes the packed payload (for the lossless stage / disk model).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.packed_bytes() + 16);
        for w in &self.qweight {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out.extend_from_slice(&self.indices);
        for s in &self.scales {
            // Truncate to bf16-style 2-byte form for realistic entropy.
            let bits = s.to_bits();
            out.extend_from_slice(&((bits >> 16) as u16).to_le_bytes());
        }
        out
    }

    /// Fraction of levels over the full `d_out × d_in` grid that are
    /// exactly zero (2:4-pruned positions count as zero).
    pub fn zero_level_fraction(&self) -> f64 {
        let (per_row, _) = self.stored_per_row_and_group();
        let stored = self.d_out * per_row;
        let zero = self.spec.qmax() as u8;
        let mut levels = LevelReader::new(&self.qweight, 0, self.spec.bits);
        let stored_zeros = (0..stored).filter(|_| levels.read() == zero).count();
        let total = self.d_out * self.d_in;
        (stored_zeros + total - stored) as f64 / total.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quant::quantize_slice;
    use dz_tensor::Rng;

    fn dense_fixture(
        d_out: usize,
        d_in: usize,
        bits: u32,
        seed: u64,
    ) -> (Matrix, CompressedMatrix) {
        let mut rng = Rng::seeded(seed);
        let spec = QuantSpec::new(bits, 8);
        let wt = Matrix::randn(d_out, d_in, 0.05, &mut rng); // Output-major.
        let mut levels = Vec::new();
        let mut scales = Vec::new();
        for r in 0..d_out {
            let (l, s) = quantize_slice(wt.row(r), spec);
            levels.extend(l);
            scales.extend(s);
        }
        let cm = CompressedMatrix::from_dense(d_out, d_in, &levels, scales, spec);
        (wt, cm)
    }

    #[test]
    fn dense_pack_unpack_round_trip() {
        for bits in [2u32, 3, 4, 8] {
            let (wt, cm) = dense_fixture(6, 16, bits, bits as u64);
            let deq = cm.dequantize(); // (d_in, d_out)
            assert_eq!(deq.shape(), (16, 6));
            // Per-element error bounded by half a step of that group's scale.
            for r in 0..6 {
                for c in 0..16 {
                    let err = (deq.get(c, r) - wt.get(r, c)).abs();
                    let bound = cm.scale_at(r, c) * 0.5 + 1e-6;
                    assert!(err <= bound, "bits={bits} err {err} bound {bound}");
                }
            }
        }
    }

    #[test]
    fn levels_round_trip_exactly() {
        let (_, cm) = dense_fixture(4, 12, 4, 7);
        // Reading every level back must stay within the grid.
        for r in 0..4 {
            for c in 0..12 {
                let q = cm.level_at(r, c);
                assert!(q.abs() <= cm.spec.qmax());
            }
        }
    }

    fn sparse_fixture(seed: u64, bits: u32) -> (Vec<i32>, Vec<bool>, CompressedMatrix) {
        let mut rng = Rng::seeded(seed);
        let (d_out, d_in) = (5, 16);
        let spec = QuantSpec::new(bits, 8);
        let qmax = spec.qmax();
        let mut levels = vec![0i32; d_out * d_in];
        let mut mask = vec![false; d_out * d_in];
        for r in 0..d_out {
            for g in 0..d_in / 4 {
                // Keep two random distinct positions per group.
                let first = rng.below(4);
                let mut second = rng.below(4);
                while second == first {
                    second = rng.below(4);
                }
                for k in [first, second] {
                    let i = r * d_in + g * 4 + k;
                    mask[i] = true;
                    levels[i] = rng.below((2 * qmax + 1) as usize) as i32 - qmax;
                }
            }
        }
        let scales = vec![0.1f32; d_out * 2];
        let cm = CompressedMatrix::from_sparse24(d_out, d_in, &levels, &mask, scales, spec);
        (levels, mask, cm)
    }

    #[test]
    fn sparse_pack_unpack_round_trip() {
        for bits in [2u32, 4] {
            let (levels, mask, cm) = sparse_fixture(bits as u64 + 10, bits);
            for r in 0..5 {
                for c in 0..16 {
                    let i = r * 16 + c;
                    let expect = if mask[i] { levels[i] } else { 0 };
                    assert_eq!(cm.level_at(r, c), expect, "bits={bits} r={r} c={c}");
                }
            }
        }
    }

    #[test]
    fn sparse_dequantize_zeroes_pruned_positions() {
        let (_, mask, cm) = sparse_fixture(3, 4);
        let deq = cm.dequantize();
        for r in 0..5 {
            for c in 0..16 {
                if !mask[r * 16 + c] {
                    assert_eq!(deq.get(c, r), 0.0);
                }
            }
        }
    }

    #[test]
    fn packed_bytes_match_paper_figure5_arithmetic() {
        // 128 FP16 values = 256 bytes. 2:4 + 4-bit: 64 values * 4 bits = 32
        // bytes + 64 indices * 2 bits = 16 bytes (plus scales).
        let spec = QuantSpec::new(4, 128);
        let levels = vec![1i32; 128];
        let mask: Vec<bool> = (0..128).map(|i| i % 4 < 2).collect();
        let cm = CompressedMatrix::from_sparse24(1, 128, &levels, &mask, vec![0.1], spec);
        // 32 (values) + 16 (indices) + 2 (one fp16 scale) = 50 bytes.
        assert_eq!(cm.packed_bytes(), 32 + 16 + 2);
        assert_eq!(cm.fp16_bytes(), 256);
        let ratio = cm.fp16_bytes() as f64 / cm.packed_bytes() as f64;
        assert!((ratio - 5.12).abs() < 0.01, "ratio {ratio}");

        // 2-bit variant: 16 + 16 + 2 = 34 bytes -> ~7.5x.
        let spec2 = QuantSpec::new(2, 128);
        let cm2 =
            CompressedMatrix::from_sparse24(1, 128, &vec![1i32; 128], &mask, vec![0.1], spec2);
        assert_eq!(cm2.packed_bytes(), 16 + 16 + 2);
    }

    #[test]
    #[should_panic(expected = "mask must keep exactly 2 of 4")]
    fn sparse_rejects_bad_mask() {
        let spec = QuantSpec::new(4, 8);
        let levels = vec![0i32; 8];
        let mask = vec![true; 8]; // Keeps 4 of 4.
        let _ = CompressedMatrix::from_sparse24(1, 8, &levels, &mask, vec![1.0], spec);
    }

    #[test]
    fn to_bytes_length_tracks_packed_bytes() {
        let (_, cm) = dense_fixture(7, 24, 4, 21);
        let bytes = cm.to_bytes();
        // Serialized form uses whole u32 words, so it can exceed the exact
        // bit count, but never by more than 4 bytes per section.
        assert!(bytes.len() >= cm.packed_bytes());
        assert!(bytes.len() <= cm.packed_bytes() + 8);
    }

    #[test]
    fn zero_fraction_reflects_sparsity() {
        let (_, _, cm) = sparse_fixture(9, 4);
        assert!(cm.zero_level_fraction() >= 0.5);
    }
}
