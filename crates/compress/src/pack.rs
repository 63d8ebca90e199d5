//! Packed storage formats for compressed matrices.
//!
//! The formats mirror what the paper's GPU kernels consume (Figure 5):
//!
//! * **QuantDense** — every quantized level is stored,
//! * **QuantSparse24** — 2:4 structured sparsity: per group of 4 inputs only
//!   the 2 kept levels are stored, plus their two 2-bit in-group positions
//!   (so a group costs `2*bits + 4` bits instead of `4*bits`).
//!
//! Matrices are stored output-major (`d_out` rows of `d_in` inputs), i.e.
//! transposed relative to the model's `(d_in, d_out)` weights, so that 2:4
//! groups are contiguous exactly like the hardware layout. Scales are
//! per-(row, group) and counted as FP16 in all byte accounting.
//!
//! # Layout
//!
//! One layout serves memory, the wire record (see [`crate::wire`]), `.dza`
//! and the kernels. It interleaves blocks of [`BLOCK_ROWS`] output rows:
//!
//! * **Levels** sit in `u64` words, one byte lane per block row: byte `j`
//!   of a word holds row `j`'s biased levels (`level + qmax`) for
//!   `8 / width` consecutive stored values, `width` bits each, the first
//!   in the low bits. `width` is `bits.next_power_of_two()`: 2, 4 or 8.
//!   2- and 4-bit levels take the room of bit packing; 3-bit levels take
//!   4-bit lanes and 5- to 7-bit levels 8-bit lanes.
//! * **2:4 positions** sit in one `u32` per block and 4-column group: bits
//!   `4j..4j + 4` hold row `j`'s two in-group positions, the first kept
//!   slot in the low two bits.
//!
//! Lanes of rows past `d_out`, and slots past a row's last stored value,
//! are zero bits. [`CompressedMatrix::decode_block`] unpacks a block's
//! words with one shift and one mask per word and multiplies each level by
//! its scale, read from `scales` at the call; nothing is bit-unpacked and
//! nothing is built on first use. [`CompressedMatrix::level_at`] and
//! [`CompressedMatrix::scale_at`] are the per-element specification.
//! [`CompressedMatrix::packed_bytes`] counts `bits` per level, the
//! paper's accounting, whatever the lane width.

use crate::quant::{dequantize_value, QuantSpec};
use dz_tensor::Matrix;
use serde::{Deserialize, Serialize};

/// Output rows one layout block interleaves (see the module docs).
pub const BLOCK_ROWS: usize = 8;

/// `0x01` in every byte of a level word.
const BYTES: u64 = 0x0101_0101_0101_0101;

/// Storage layout of a [`CompressedMatrix`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MatrixFormat {
    /// Dense quantized levels.
    QuantDense,
    /// 2:4 structured sparse quantized levels with position indices.
    QuantSparse24,
}

/// A packed, quantized (optionally 2:4-sparse) matrix, in the layout the
/// module docs describe.
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
    /// Biased levels in byte lanes, a fixed number of words per block of
    /// [`BLOCK_ROWS`] rows.
    pub levels: Vec<u64>,
    /// 2:4 format only: in-group positions, one word per block and
    /// 4-column group. Empty for the dense format.
    pub positions: Vec<u32>,
    /// Per-(row, group) scales, row-major `(d_out, n_groups)`.
    pub scales: Vec<f32>,
}

/// The layout arithmetic of one matrix shape: the only place that knows
/// how many words a matrix has and how they are stored.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Layout {
    /// Bits per level lane: 2, 4 or 8.
    width: u32,
    /// Values stored per row: `d_in` (dense) or `d_in / 2` (2:4).
    per_row: usize,
    /// Level words per block.
    words_per_block: usize,
    /// Position words per block: `d_in / 4` for 2:4, 0 for dense.
    positions_per_block: usize,
    /// Blocks, the last one possibly partial.
    blocks: usize,
    /// Rows of a partial last block, 0 when every block is full.
    tail_rows: usize,
}

/// One word section of a matrix as stored on the wire: `words` words, of
/// which the first `full_words` (those of full blocks) are stored whole,
/// `word_bytes` bytes each, little-endian. The words of a partial last
/// block keep only their first `tail_bytes` bytes, the real rows' lanes,
/// stored as byte planes: byte 0 of every such word, then byte 1, and so
/// on.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Section {
    /// Words in memory.
    pub(crate) words: usize,
    full_words: usize,
    word_bytes: usize,
    tail_bytes: usize,
}

impl Section {
    /// Bytes the section takes on the wire.
    pub(crate) fn bytes(&self) -> usize {
        self.full_words * self.word_bytes + (self.words - self.full_words) * self.tail_bytes
    }

    /// Appends `words`, of `N = word_bytes` little-endian bytes each, in
    /// stored form.
    pub(crate) fn put<const N: usize, T: Copy>(
        &self,
        words: &[T],
        to_le: impl Fn(T) -> [u8; N],
        out: &mut Vec<u8>,
    ) {
        let (full, tail) = words.split_at(self.full_words);
        for &w in full {
            out.extend_from_slice(&to_le(w));
        }
        for k in 0..self.tail_bytes {
            out.extend(tail.iter().map(|&w| to_le(w)[k]));
        }
    }

    /// The words of a stored section of [`bytes`](Self::bytes) bytes,
    /// zero-filling the lanes a partial last block does not store.
    pub(crate) fn parse<const N: usize, T>(
        self,
        raw: &[u8],
        from_le: impl Fn([u8; N]) -> T,
    ) -> Vec<T> {
        let (full, planes) = raw.split_at(self.full_words * N);
        let mut tail = vec![[0u8; N]; self.words - self.full_words];
        for (k, plane) in planes.chunks_exact(tail.len().max(1)).enumerate() {
            for (w, &b) in tail.iter_mut().zip(plane) {
                w[k] = b;
            }
        }
        full.chunks_exact(N)
            .map(|b| from_le(b.try_into().unwrap_or([0; N])))
            .chain(tail.into_iter().map(&from_le))
            .collect()
    }
}

impl Layout {
    /// The layout of a `d_out × d_in` matrix of `bits`-bit levels. The
    /// caller bounds `d_in · d_out` well below `usize::MAX`.
    pub(crate) fn new(format: MatrixFormat, bits: u32, d_in: usize, d_out: usize) -> Self {
        let width = bits.next_power_of_two();
        let (per_row, positions_per_block) = match format {
            MatrixFormat::QuantDense => (d_in, 0),
            MatrixFormat::QuantSparse24 => (d_in / 2, d_in / 4),
        };
        Layout {
            width,
            per_row,
            words_per_block: per_row.div_ceil((8 / width) as usize),
            positions_per_block,
            blocks: d_out.div_ceil(BLOCK_ROWS),
            tail_rows: d_out % BLOCK_ROWS,
        }
    }

    /// Levels per lane of a word.
    fn per_word(&self) -> usize {
        (8 / self.width) as usize
    }

    /// Rows of block `b`.
    fn rows(&self, b: usize) -> usize {
        if b + 1 == self.blocks && self.tail_rows > 0 {
            self.tail_rows
        } else {
            BLOCK_ROWS
        }
    }

    /// A section of `per_block` words per block with `lane_bits`-bit
    /// lanes, so `lane_bits` bytes per word of a full block.
    fn section(&self, per_block: usize, lane_bits: usize) -> Section {
        let full_blocks = self.blocks - usize::from(self.tail_rows > 0);
        Section {
            words: self.blocks * per_block,
            full_words: full_blocks * per_block,
            word_bytes: lane_bits,
            tail_bytes: (self.tail_rows * lane_bits).div_ceil(8),
        }
    }

    /// The level words' section.
    pub(crate) fn levels(&self) -> Section {
        self.section(self.words_per_block, 8)
    }

    /// The 2:4 position words' section (no words for the dense format).
    pub(crate) fn positions(&self) -> Section {
        self.section(self.positions_per_block, 4)
    }
}

/// Level words of `d_out` rows of `per_row` biased levels each, row `r`'s
/// at `biased[r * per_row..]`.
fn level_words(l: &Layout, d_out: usize, biased: &[u8]) -> Vec<u64> {
    let (wpb, per_word) = (l.words_per_block, l.per_word());
    let mut words = vec![0u64; l.blocks * wpb];
    for r in 0..d_out {
        let block = &mut words[(r / BLOCK_ROWS) * wpb..][..wpb];
        let lane = 8 * (r % BLOCK_ROWS) as u32;
        for (k, &v) in biased[r * l.per_row..][..l.per_row].iter().enumerate() {
            block[k / per_word] |= u64::from(v) << (lane + (k % per_word) as u32 * l.width);
        }
    }
    words
}

/// Unpacks level words holding `N` values per byte lane (`8 / N`-bit
/// lanes) into one byte lane per value: one shift and one mask give a
/// value of all eight rows. `N` is a constant, so each word's values
/// unroll.
fn unpack_lanes<const N: usize>(levels: &mut [[u8; BLOCK_ROWS]], words: &[u64]) {
    let width = (8 / N) as u32;
    let lane_mask = BYTES * ((1u64 << width) - 1);
    let unpack = |lanes: &mut [[u8; BLOCK_ROWS]], w: u64| {
        for (h, l) in lanes.iter_mut().enumerate() {
            *l = ((w >> (h as u32 * width)) & lane_mask).to_le_bytes();
        }
    };
    let (full, rest) = levels.as_chunks_mut::<N>();
    for (lanes, &w) in full.iter_mut().zip(words) {
        unpack(lanes, w);
    }
    if let Some(&w) = words.get(full.len()) {
        unpack(rest, w);
    }
}

/// Whether a `width`-bit field of `words` exceeds `top`. Even and odd
/// fields are taken apart, so each sits in a slot twice its width; adding
/// `2^width - 1 - top` to every slot then carries into bit `width` of just
/// the slots whose field exceeds `top`.
fn any_field_above(words: &[u64], width: u32, top: u64) -> bool {
    let ones = u64::MAX / ((1 << (2 * width)) - 1);
    let field = ones * ((1 << width) - 1);
    let add = ones * ((1 << width) - 1 - top);
    let sums = words.iter().fold(0, |acc, &w| {
        acc | ((w & field) + add) | (((w >> width) & field) + add)
    });
    sums & (ones << width) != 0
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
        let biased: Vec<u8> = levels
            .iter()
            .map(|&q| {
                debug_assert!(q.abs() <= qmax);
                (q + qmax) as u8
            })
            .collect();
        let layout = Layout::new(MatrixFormat::QuantDense, spec.bits, d_in, d_out);
        CompressedMatrix {
            d_in,
            d_out,
            spec,
            format: MatrixFormat::QuantDense,
            levels: level_words(&layout, d_out, &biased),
            positions: Vec::new(),
            scales,
        }
    }

    /// Builds a 2:4-sparse matrix from full levels plus a keep-mask.
    ///
    /// The mask must keep exactly 2 of every 4 consecutive inputs in every
    /// row. Kept levels are stored in order, each pair with its two
    /// in-group positions.
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
        let layout = Layout::new(MatrixFormat::QuantSparse24, spec.bits, d_in, d_out);
        let groups = layout.positions_per_block;
        let mut kept = Vec::with_capacity(d_out * d_in / 2);
        let mut positions = vec![0u32; layout.blocks * groups];
        for r in 0..d_out {
            for g4 in 0..groups {
                let base = r * d_in + g4 * 4;
                let at: Vec<usize> = (0..4).filter(|&k| mask[base + k]).collect();
                assert_eq!(
                    at.len(),
                    2,
                    "row {r} group {g4}: mask must keep exactly 2 of 4"
                );
                kept.extend(at.iter().map(|&k| (levels[base + k] + qmax) as u8));
                let pair = (at[0] | (at[1] << 2)) as u32;
                positions[(r / BLOCK_ROWS) * groups + g4] |= pair << (4 * (r % BLOCK_ROWS));
            }
        }
        CompressedMatrix {
            d_in,
            d_out,
            spec,
            format: MatrixFormat::QuantSparse24,
            levels: level_words(&layout, d_out, &kept),
            positions,
            scales,
        }
    }

    /// The matrix's layout arithmetic.
    pub(crate) fn layout(&self) -> Layout {
        Layout::new(self.format, self.spec.bits, self.d_in, self.d_out)
    }

    /// Number of groups per row.
    pub fn groups_per_row(&self) -> usize {
        self.d_in.div_ceil(self.spec.group_size)
    }

    /// Scale of input column `c` in output row `r`.
    #[inline]
    // dz-lint: allow(dead-pub, "reference scale lookup the block-decode proptests compare against")
    pub fn scale_at(&self, r: usize, c: usize) -> f32 {
        self.scales[r * self.groups_per_row() + c / self.spec.group_size]
    }

    /// The biased level of stored value `k` of row `r`.
    fn stored_level(&self, l: &Layout, r: usize, k: usize) -> i32 {
        let per_word = l.per_word();
        let w = self.levels[(r / BLOCK_ROWS) * l.words_per_block + k / per_word];
        let shift = 8 * (r % BLOCK_ROWS) as u32 + (k % per_word) as u32 * l.width;
        ((w >> shift) & ((1 << l.width) - 1)) as i32
    }

    /// The signed level of `(row r, input c)`, resolving sparsity.
    // dz-lint: allow(dead-pub, "reference level lookup the block-decode proptests compare against")
    pub fn level_at(&self, r: usize, c: usize) -> i32 {
        let l = self.layout();
        let k = match self.format {
            MatrixFormat::QuantDense => c,
            MatrixFormat::QuantSparse24 => {
                let word = self.positions[(r / BLOCK_ROWS) * l.positions_per_block + c / 4];
                let pair = (word >> (4 * (r % BLOCK_ROWS))) as usize;
                match c % 4 {
                    p if p == pair & 0b11 => c / 4 * 2,
                    p if p == (pair >> 2) & 0b11 => c / 4 * 2 + 1,
                    _ => return 0,
                }
            }
        };
        self.stored_level(&l, r, k) - self.spec.qmax()
    }

    /// Checks what the words hold beyond their count: every level on the
    /// grid (`|q| <= qmax`, so a lane wider than `bits` carries no more),
    /// zero bits in the slots past a row's last value and in the position
    /// nibbles of rows past `d_out`, and two distinct positions in every
    /// real row's 2:4 pair. Returns the broken rule.
    pub(crate) fn check_words(&self) -> Result<(), &'static str> {
        let l = self.layout();
        if any_field_above(&self.levels, l.width, 2 * self.spec.qmax() as u64) {
            return Err("level outside the quantization grid");
        }
        // Slots past a row's last value sit in each block's last word.
        let used = (l.per_row % l.per_word()) as u32 * l.width;
        let slots = if used > 0 {
            BYTES * (0xFF & (0xFF << used))
        } else {
            0
        };
        let wpb = l.words_per_block.max(1);
        let mut pad = self
            .levels
            .chunks(wpb)
            .fold(0, |acc, b| acc | (b[wpb - 1] & slots));
        // Bit 4j of `x | x >> 1` is set when row j's two positions differ;
        // the nibbles of rows past `d_out` are padding.
        let mut repeats = 0;
        let groups = l.positions_per_block.max(1);
        for (b, words) in self.positions.chunks(groups).enumerate() {
            let rows = u32::MAX >> (32 - 4 * l.rows(b));
            let real = 0x1111_1111 & rows;
            for &w in words {
                let x = w ^ (w >> 2);
                repeats |= ((x | (x >> 1)) & real) ^ real;
                pad |= u64::from(w & !rows);
            }
        }
        if pad != 0 {
            return Err("nonzero padding bits");
        }
        if repeats != 0 {
            return Err("sparse24 kept pair repeats a position");
        }
        Ok(())
    }

    /// Decodes output rows `block * BLOCK_ROWS..` (at most
    /// [`BLOCK_ROWS`] of them) into `out`, interleaved as
    /// [`BlockScratch`] describes.
    ///
    /// A call unpacks the block's level words into byte lanes, one shift
    /// and one mask per word, so no call reads levels bit by bit. Each
    /// weight has exactly the bits of the per-element spec: `0.0` where
    /// [`level_at`](Self::level_at) is zero, otherwise
    /// `dequantize_value(level_at(r, c), scale_at(r, c))`, with the scale
    /// read from `scales` at this call.
    ///
    /// # Panics
    ///
    /// Panics if `block * BLOCK_ROWS >= d_out`.
    pub fn decode_block(&self, block: usize, out: &mut BlockScratch) {
        let r0 = block * BLOCK_ROWS;
        assert!(r0 < self.d_out, "block {block} out of range");
        let layout = self.layout();
        let per_row = layout.per_row;
        let per_group = match self.format {
            MatrixFormat::QuantDense => self.spec.group_size,
            MatrixFormat::QuantSparse24 => self.spec.group_size / 2,
        };
        let gpr = self.groups_per_row();
        // Unpack the block's level words into byte lanes.
        let words = &self.levels[block * layout.words_per_block..][..layout.words_per_block];
        out.levels.resize(per_row, [0; BLOCK_ROWS]);
        match layout.per_word() {
            1 => unpack_lanes::<1>(&mut out.levels, words),
            2 => unpack_lanes::<2>(&mut out.levels, words),
            _ => unpack_lanes::<4>(&mut out.levels, words),
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
        let groups = layout.positions_per_block;
        out.positions
            .extend_from_slice(&self.positions[block * groups..(block + 1) * groups]);
    }

    /// Dequantizes into the model's `(d_in, d_out)` weight orientation,
    /// one [`decode_block`](Self::decode_block) per row block.
    pub fn dequantize(&self) -> Matrix {
        let mut w = Matrix::zeros(self.d_in, self.d_out);
        let d_out = self.d_out;
        let out = w.data_mut();
        let mut blk = BlockScratch::default();
        for block in 0..d_out.div_ceil(BLOCK_ROWS) {
            self.decode_block(block, &mut blk);
            let r0 = block * BLOCK_ROWS;
            let rows = (d_out - r0).min(BLOCK_ROWS);
            match self.format {
                MatrixFormat::QuantDense => {
                    for (c, lanes) in blk.weights.iter().enumerate() {
                        out[c * d_out + r0..][..rows].copy_from_slice(&lanes[..rows]);
                    }
                }
                MatrixFormat::QuantSparse24 => {
                    for (k, lanes) in blk.weights.iter().enumerate() {
                        let pairs = blk.positions[k / 2] >> (2 * (k % 2));
                        for (j, &v) in lanes[..rows].iter().enumerate() {
                            let c = (k / 2) * 4 + ((pairs >> (4 * j)) & 0b11) as usize;
                            out[c * d_out + r0 + j] = v;
                        }
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

    /// Serializes the packed payload (for the lossless stage / disk model):
    /// the level and position words as the wire stores them, then the
    /// scales.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.packed_bytes() + 16);
        let l = self.layout();
        l.levels().put(&self.levels, u64::to_le_bytes, &mut out);
        l.positions()
            .put(&self.positions, u32::to_le_bytes, &mut out);
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
        let l = self.layout();
        let zero = self.spec.qmax();
        let stored_zeros = (0..self.d_out)
            .map(|r| {
                (0..l.per_row)
                    .filter(|&k| self.stored_level(&l, r, k) == zero)
                    .count()
            })
            .sum::<usize>();
        let total = self.d_out * self.d_in;
        (stored_zeros + total - self.d_out * l.per_row) as f64 / total.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::quantize_rows;
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
        let cm = quantize_rows(&wt, spec);
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
        // 4-bit levels fill their lanes; a row's odd last value leaves
        // half a lane byte, at most one byte per row.
        assert!(bytes.len() >= cm.packed_bytes());
        assert!(bytes.len() <= cm.packed_bytes() + 8);
    }

    #[test]
    fn zero_fraction_reflects_sparsity() {
        let (_, _, cm) = sparse_fixture(9, 4);
        assert!(cm.zero_level_fraction() >= 0.5);
    }
}
