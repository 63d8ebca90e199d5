//! Explicit little-endian wire encoding for compressed artifacts.
//!
//! [`CompressedMatrix`] and the other packed layers were in-memory-only
//! structs; this module gives them a stable byte representation so deltas
//! can be persisted in `.dza` containers (see the `dz-store` crate) and shipped
//! between processes. All integers are little-endian; all decodes are
//! bounds-checked and return typed errors — corrupt input must never panic
//! or silently produce wrong tensors.
//!
//! Layout of one matrix record:
//!
//! ```text
//! format u8 | bits u32 | group_size u64 | d_in u64 | d_out u64
//! n_level_words    u64 | level words
//! n_position_words u64 | position words
//! n_scales         u64 | scales f32 x n_scales
//! ```
//!
//! The words are the matrix's own layout (see [`crate::pack`]), written
//! little-endian: 8 bytes per level word and 4 per 2:4 position word
//! (none for the dense format). A partial last row block of `t < 8` rows
//! keeps only the bytes of its real rows' lanes, `t` per level word and
//! `ceil(t / 2)` per position word, stored as byte planes: byte 0 of each
//! of the block's words, then byte 1, and so on.
//!
//! Decode checks the record in bulk: the counts against the dimensions,
//! every level on the grid, zero padding bits, distinct 2:4 positions in
//! every real row, and finite scales.

use crate::codec::{LowRankBand, LowRankMatrix, PackedLayer, SignMatrix, SignScope, MAX_BANDS};
use crate::pack::{CompressedMatrix, Layout, MatrixFormat, Section};
use crate::pipeline::{DeltaCompressConfig, SizeReport};
use crate::quant::QuantSpec;
use dz_tensor::Matrix;

const FORMAT_DENSE: u8 = 0;
const FORMAT_SPARSE24: u8 = 1;
/// BitDelta-style sign/scale layer record.
const FORMAT_SIGN: u8 = 2;
/// Delta-CoMe-style mixed-precision low-rank layer record.
const FORMAT_LOWRANK: u8 = 3;

/// Errors raised while decoding wire bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Input ended before the record did.
    Truncated,
    /// An enum tag byte had no meaning.
    BadTag(u8),
    /// A declared length is inconsistent with the record's dimensions.
    LengthMismatch(&'static str),
    /// A name was not valid UTF-8.
    BadName,
    /// A numeric field held an invalid value (e.g. bits outside 2..=8).
    BadField(&'static str),
    /// Bytes remained after the record ended.
    TrailingBytes,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "record truncated"),
            WireError::BadTag(t) => write!(f, "invalid tag byte {t}"),
            WireError::LengthMismatch(what) => write!(f, "length mismatch in {what}"),
            WireError::BadName => write!(f, "name is not valid utf-8"),
            WireError::BadField(what) => write!(f, "invalid field value: {what}"),
            WireError::TrailingBytes => write!(f, "trailing bytes after record"),
        }
    }
}

impl std::error::Error for WireError {}

/// Bounds-checked little-endian reader over a byte slice.
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps a slice.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// True when every byte has been consumed.
    pub fn is_done(&self) -> bool {
        self.pos == self.bytes.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.bytes.len() {
            return Err(WireError::Truncated);
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        self.take(N)?.try_into().map_err(|_| WireError::Truncated)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        self.array().map(u16::from_le_bytes)
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        self.array().map(u32::from_le_bytes)
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        self.array().map(u64::from_le_bytes)
    }

    /// Reads a little-endian `u64` that must fit a `usize`.
    pub fn len_u64(&mut self) -> Result<usize, WireError> {
        usize::try_from(self.u64()?).map_err(|_| WireError::BadField("length exceeds usize"))
    }

    /// Reads a little-endian `f32`.
    pub fn f32(&mut self) -> Result<f32, WireError> {
        self.array().map(f32::from_le_bytes)
    }

    /// Reads a length-prefixed (u16) UTF-8 string.
    pub fn name(&mut self) -> Result<String, WireError> {
        let n = self.u16()? as usize;
        let raw = self.take(n)?;
        String::from_utf8(raw.to_vec()).map_err(|_| WireError::BadName)
    }
}

/// Appends a u16-length-prefixed UTF-8 name (the counterpart of
/// [`Reader::name`]).
pub fn put_name(out: &mut Vec<u8>, name: &str) {
    let bytes = name.as_bytes();
    assert!(bytes.len() <= u16::MAX as usize, "name too long for wire");
    out.extend_from_slice(&(bytes.len() as u16).to_le_bytes());
    out.extend_from_slice(bytes);
}

/// Appends the wire form of one packed matrix.
pub fn encode_matrix(cm: &CompressedMatrix, out: &mut Vec<u8>) {
    out.push(match cm.format {
        MatrixFormat::QuantDense => FORMAT_DENSE,
        MatrixFormat::QuantSparse24 => FORMAT_SPARSE24,
    });
    out.extend_from_slice(&cm.spec.bits.to_le_bytes());
    out.extend_from_slice(&(cm.spec.group_size as u64).to_le_bytes());
    out.extend_from_slice(&(cm.d_in as u64).to_le_bytes());
    out.extend_from_slice(&(cm.d_out as u64).to_le_bytes());
    let layout = cm.layout();
    out.extend_from_slice(&(cm.levels.len() as u64).to_le_bytes());
    layout.levels().put(&cm.levels, u64::to_le_bytes, out);
    out.extend_from_slice(&(cm.positions.len() as u64).to_le_bytes());
    layout.positions().put(&cm.positions, u32::to_le_bytes, out);
    out.extend_from_slice(&(cm.scales.len() as u64).to_le_bytes());
    for s in &cm.scales {
        out.extend_from_slice(&s.to_le_bytes());
    }
}

/// Reads one word section: its count, checked against the layout, then
/// its words.
fn words<const N: usize, T>(
    r: &mut Reader<'_>,
    s: Section,
    what: &'static str,
    from_le: impl Fn([u8; N]) -> T,
) -> Result<Vec<T>, WireError> {
    if r.len_u64()? != s.words {
        return Err(WireError::LengthMismatch(what));
    }
    Ok(s.parse(r.take(s.bytes())?, from_le))
}

/// Reads `n` little-endian elements of `N` bytes in one bounds check,
/// made before anything is allocated, so a hostile count fails as
/// `Truncated` instead of driving a huge allocation.
fn elems<const N: usize, T>(
    r: &mut Reader<'_>,
    n: usize,
    from_le: impl Fn([u8; N]) -> T,
) -> Result<Vec<T>, WireError> {
    let bytes = r.take(n.checked_mul(N).ok_or(WireError::Truncated)?)?;
    let (chunks, _) = bytes.as_chunks::<N>();
    Ok(chunks.iter().map(|&b| from_le(b)).collect())
}

/// Reads `n` f32 scales, refusing any that is not finite.
fn finite_scales(r: &mut Reader<'_>, n: usize) -> Result<Vec<f32>, WireError> {
    let scales = elems(r, n, f32::from_le_bytes)?;
    if !scales.iter().all(|s| s.is_finite()) {
        return Err(WireError::BadField("non-finite scale"));
    }
    Ok(scales)
}

/// Decodes one packed matrix, consuming its bytes from the reader.
pub fn decode_matrix(r: &mut Reader<'_>) -> Result<CompressedMatrix, WireError> {
    let format = match r.u8()? {
        FORMAT_DENSE => MatrixFormat::QuantDense,
        FORMAT_SPARSE24 => MatrixFormat::QuantSparse24,
        t => return Err(WireError::BadTag(t)),
    };
    decode_matrix_body(r, format)
}

/// Decodes a packed matrix whose format tag has already been consumed.
fn decode_matrix_body(
    r: &mut Reader<'_>,
    format: MatrixFormat,
) -> Result<CompressedMatrix, WireError> {
    let bits = r.u32()?;
    if !(2..=8).contains(&bits) {
        return Err(WireError::BadField("bits outside 2..=8"));
    }
    let group_size = r.len_u64()?;
    if group_size == 0 {
        return Err(WireError::BadField("zero group size"));
    }
    let d_in = r.len_u64()?;
    let d_out = r.len_u64()?;
    if format == MatrixFormat::QuantSparse24 && d_in % 4 != 0 {
        return Err(WireError::BadField("sparse24 d_in not divisible by 4"));
    }
    // A scale group must hold whole 4-column groups: the block decoder
    // advances the scale every `group_size / 2` kept values.
    if format == MatrixFormat::QuantSparse24 && group_size % 4 != 0 {
        return Err(WireError::BadField(
            "sparse24 group size not divisible by 4",
        ));
    }
    // Bounds every layout count well inside `usize`.
    if d_in.checked_mul(d_out).is_none_or(|n| n > usize::MAX >> 4) {
        return Err(WireError::LengthMismatch("matrix size"));
    }
    let layout = Layout::new(format, bits, d_in, d_out);
    let levels = words(r, layout.levels(), "level words", u64::from_le_bytes)?;
    let positions = words(r, layout.positions(), "position words", u32::from_le_bytes)?;
    let n_scales = r.len_u64()?;
    if n_scales != d_out * d_in.div_ceil(group_size) {
        return Err(WireError::LengthMismatch("scales"));
    }
    let scales = finite_scales(r, n_scales)?;
    let cm = CompressedMatrix {
        d_in,
        d_out,
        spec: QuantSpec::new(bits, group_size),
        format,
        levels,
        positions,
        scales,
    };
    cm.check_words().map_err(WireError::BadField)?;
    Ok(cm)
}

/// Appends the wire form of one sign/scale (BitDelta) matrix.
fn encode_sign(sm: &SignMatrix, out: &mut Vec<u8>) {
    out.push(FORMAT_SIGN);
    out.push(match sm.scope {
        SignScope::PerMatrix => 0,
        SignScope::PerRow => 1,
    });
    out.extend_from_slice(&(sm.d_in as u64).to_le_bytes());
    out.extend_from_slice(&(sm.d_out as u64).to_le_bytes());
    out.extend_from_slice(&(sm.signs.len() as u64).to_le_bytes());
    for w in &sm.signs {
        out.extend_from_slice(&w.to_le_bytes());
    }
    out.extend_from_slice(&(sm.scales.len() as u64).to_le_bytes());
    for s in &sm.scales {
        out.extend_from_slice(&s.to_le_bytes());
    }
}

/// Decodes a sign/scale matrix whose format tag has already been consumed.
fn decode_sign_body(r: &mut Reader<'_>) -> Result<SignMatrix, WireError> {
    let scope = match r.u8()? {
        0 => SignScope::PerMatrix,
        1 => SignScope::PerRow,
        t => return Err(WireError::BadTag(t)),
    };
    let d_in = r.len_u64()?;
    let d_out = r.len_u64()?;
    let n_words = r.len_u64()?;
    let want_words = d_in
        .checked_mul(d_out)
        .map(|n| n.div_ceil(32))
        .ok_or(WireError::LengthMismatch("sign words"))?;
    if n_words != want_words {
        return Err(WireError::LengthMismatch("sign words"));
    }
    let signs = elems(r, n_words, u32::from_le_bytes)?;
    let n_scales = r.len_u64()?;
    let want_scales = match scope {
        SignScope::PerMatrix => 1,
        SignScope::PerRow => d_out,
    };
    if n_scales != want_scales {
        return Err(WireError::LengthMismatch("sign scales"));
    }
    let scales = finite_scales(r, n_scales)?;
    Ok(SignMatrix {
        d_in,
        d_out,
        scope,
        scales,
        signs,
    })
}

/// Appends the wire form of one mixed-precision low-rank matrix.
///
/// The band cap is enforced at construction, so encoding is infallible;
/// the assert keeps a hand-built over-limit value from producing bytes
/// the decoder would refuse.
fn encode_lowrank(lr: &LowRankMatrix, out: &mut Vec<u8>) {
    assert!(
        lr.bands.len() <= MAX_BANDS,
        "at most {MAX_BANDS} low-rank bands per layer"
    );
    out.push(FORMAT_LOWRANK);
    out.extend_from_slice(&(lr.d_in as u64).to_le_bytes());
    out.extend_from_slice(&(lr.d_out as u64).to_le_bytes());
    out.extend_from_slice(&(lr.bands.len() as u16).to_le_bytes());
    for band in &lr.bands {
        encode_matrix(&band.p, out);
        encode_matrix(&band.q, out);
    }
}

/// Decodes a low-rank matrix whose format tag has already been consumed.
fn decode_lowrank_body(r: &mut Reader<'_>) -> Result<LowRankMatrix, WireError> {
    let d_in = r.len_u64()?;
    let d_out = r.len_u64()?;
    let n_bands = r.u16()? as usize;
    if n_bands > MAX_BANDS {
        return Err(WireError::BadField("too many low-rank bands"));
    }
    let mut bands = Vec::with_capacity(n_bands);
    for _ in 0..n_bands {
        let p = decode_factor(r)?;
        let q = decode_factor(r)?;
        // Factor rows are singular directions: p is (rank x d_in), q is
        // (rank x d_out) in stored orientation.
        if p.d_in != d_in || q.d_in != d_out || p.d_out != q.d_out {
            return Err(WireError::LengthMismatch("low-rank band dims"));
        }
        bands.push(LowRankBand { p, q });
    }
    Ok(LowRankMatrix { d_in, d_out, bands })
}

/// Decodes one low-rank factor. Factors are always dense:
/// [`LowRankMatrix::from_delta`] never writes a 2:4 one, so a record that
/// carries one is refused rather than served.
fn decode_factor(r: &mut Reader<'_>) -> Result<CompressedMatrix, WireError> {
    match r.u8()? {
        FORMAT_DENSE => decode_matrix_body(r, MatrixFormat::QuantDense),
        FORMAT_SPARSE24 => Err(WireError::BadField("2:4 low-rank factor")),
        t => Err(WireError::BadTag(t)),
    }
}

/// Appends the wire form of one packed layer (any method-zoo format).
pub fn encode_layer(layer: &PackedLayer, out: &mut Vec<u8>) {
    match layer {
        PackedLayer::Quant(cm) => encode_matrix(cm, out),
        PackedLayer::Sign(sm) => encode_sign(sm, out),
        PackedLayer::LowRank(lr) => encode_lowrank(lr, out),
    }
}

/// Decodes one packed layer, consuming its bytes from the reader. Accepts
/// every format tag.
pub fn decode_layer(r: &mut Reader<'_>) -> Result<PackedLayer, WireError> {
    match r.u8()? {
        FORMAT_DENSE => Ok(PackedLayer::Quant(decode_matrix_body(
            r,
            MatrixFormat::QuantDense,
        )?)),
        FORMAT_SPARSE24 => Ok(PackedLayer::Quant(decode_matrix_body(
            r,
            MatrixFormat::QuantSparse24,
        )?)),
        FORMAT_SIGN => Ok(PackedLayer::Sign(decode_sign_body(r)?)),
        FORMAT_LOWRANK => Ok(PackedLayer::LowRank(decode_lowrank_body(r)?)),
        t => Err(WireError::BadTag(t)),
    }
}

/// Appends the wire form of a dense FP32 matrix.
pub fn encode_dense(m: &Matrix, out: &mut Vec<u8>) {
    out.extend_from_slice(&(m.rows() as u64).to_le_bytes());
    out.extend_from_slice(&(m.cols() as u64).to_le_bytes());
    for &v in m.data() {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Decodes a dense FP32 matrix, consuming its bytes from the reader.
pub fn decode_dense(r: &mut Reader<'_>) -> Result<Matrix, WireError> {
    let rows = r.len_u64()?;
    let cols = r.len_u64()?;
    let n = rows
        .checked_mul(cols)
        .ok_or(WireError::LengthMismatch("dense matrix size"))?;
    let data = elems(r, n, f32::from_le_bytes)?;
    Ok(Matrix::from_vec(rows, cols, data))
}

/// Appends the wire form of a [`DeltaCompressConfig`].
pub fn encode_config(cfg: &DeltaCompressConfig, out: &mut Vec<u8>) {
    out.extend_from_slice(&cfg.bits.to_le_bytes());
    out.extend_from_slice(&(cfg.group_size as u64).to_le_bytes());
    out.push(cfg.sparse24 as u8);
    out.extend_from_slice(&cfg.damp.to_le_bytes());
    out.push(cfg.lossless as u8);
}

fn decode_bool(r: &mut Reader<'_>) -> Result<bool, WireError> {
    match r.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        t => Err(WireError::BadTag(t)),
    }
}

/// Decodes a [`DeltaCompressConfig`], consuming its bytes.
pub fn decode_config(r: &mut Reader<'_>) -> Result<DeltaCompressConfig, WireError> {
    Ok(DeltaCompressConfig {
        bits: r.u32()?,
        group_size: r.len_u64()?,
        sparse24: decode_bool(r)?,
        damp: r.f32()?,
        lossless: decode_bool(r)?,
    })
}

/// Appends the wire form of a [`SizeReport`].
pub fn encode_report(rep: &SizeReport, out: &mut Vec<u8>) {
    out.extend_from_slice(&(rep.compressed_linear_bytes as u64).to_le_bytes());
    out.extend_from_slice(&(rep.uncompressed_rest_bytes as u64).to_le_bytes());
    out.extend_from_slice(&(rep.full_fp16_bytes as u64).to_le_bytes());
    match rep.lossless_linear_bytes {
        Some(b) => {
            out.push(1);
            out.extend_from_slice(&(b as u64).to_le_bytes());
        }
        None => out.push(0),
    }
}

/// Decodes a [`SizeReport`], consuming its bytes.
pub fn decode_report(r: &mut Reader<'_>) -> Result<SizeReport, WireError> {
    let compressed_linear_bytes = r.len_u64()?;
    let uncompressed_rest_bytes = r.len_u64()?;
    let full_fp16_bytes = r.len_u64()?;
    let lossless_linear_bytes = if decode_bool(r)? {
        Some(r.len_u64()?)
    } else {
        None
    };
    Ok(SizeReport {
        compressed_linear_bytes,
        uncompressed_rest_bytes,
        full_fp16_bytes,
        lossless_linear_bytes,
    })
}

/// Convenience: encodes one matrix as a standalone record.
// dz-lint: allow(dead-pub, "standalone matrix record, the entry point the wire-format unit tests drive")
pub fn matrix_to_bytes(cm: &CompressedMatrix) -> Vec<u8> {
    let mut out = Vec::new();
    encode_matrix(cm, &mut out);
    out
}

/// Convenience: decodes one standalone matrix record, requiring it to span
/// the input exactly.
// dz-lint: allow(dead-pub, "standalone matrix record, the entry point the wire-format unit tests drive")
pub fn matrix_from_bytes(bytes: &[u8]) -> Result<CompressedMatrix, WireError> {
    let mut r = Reader::new(bytes);
    let cm = decode_matrix(&mut r)?;
    if !r.is_done() {
        return Err(WireError::TrailingBytes);
    }
    Ok(cm)
}

/// Convenience: encodes one packed layer as a standalone record.
pub fn layer_to_bytes(layer: &PackedLayer) -> Vec<u8> {
    let mut out = Vec::new();
    encode_layer(layer, &mut out);
    out
}

/// Convenience: decodes one standalone packed-layer record, requiring it
/// to span the input exactly.
pub fn layer_from_bytes(bytes: &[u8]) -> Result<PackedLayer, WireError> {
    let mut r = Reader::new(bytes);
    let layer = decode_layer(&mut r)?;
    if !r.is_done() {
        return Err(WireError::TrailingBytes);
    }
    Ok(layer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quant::quantize_slice;
    use dz_tensor::Rng;

    fn dense_fixture(d_out: usize, d_in: usize, bits: u32, seed: u64) -> CompressedMatrix {
        let mut rng = Rng::seeded(seed);
        let spec = QuantSpec::new(bits, 8);
        let wt = Matrix::randn(d_out, d_in, 0.05, &mut rng);
        let mut levels = Vec::new();
        let mut scales = Vec::new();
        for r in 0..d_out {
            let (l, s) = quantize_slice(wt.row(r), spec);
            levels.extend(l);
            scales.extend(s);
        }
        CompressedMatrix::from_dense(d_out, d_in, &levels, scales, spec)
    }

    fn sparse_fixture(d_out: usize, d_in: usize, bits: u32, seed: u64) -> CompressedMatrix {
        let mut rng = Rng::seeded(seed);
        let spec = QuantSpec::new(bits, 8);
        let qmax = spec.qmax();
        let mut levels = vec![0i32; d_out * d_in];
        let mut mask = vec![false; d_out * d_in];
        for r in 0..d_out {
            for g in 0..d_in / 4 {
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
        let scales = vec![0.07f32; d_out * d_in.div_ceil(8)];
        CompressedMatrix::from_sparse24(d_out, d_in, &levels, &mask, scales, spec)
    }

    #[test]
    fn matrix_round_trip_dense_and_sparse() {
        // 6 and 5 rows end on a partial row block.
        for bits in 2u32..=8 {
            let cm = dense_fixture(6, 16, bits, bits as u64);
            let back = matrix_from_bytes(&matrix_to_bytes(&cm)).unwrap();
            assert_eq!(back, cm, "dense bits={bits}");
        }
        for bits in [2u32, 3, 4, 8] {
            let cm = sparse_fixture(5, 16, bits, bits as u64 + 7);
            let back = matrix_from_bytes(&matrix_to_bytes(&cm)).unwrap();
            assert_eq!(back, cm, "sparse bits={bits}");
        }
    }

    #[test]
    fn matrix_decode_rejects_truncation_everywhere() {
        let bytes = matrix_to_bytes(&sparse_fixture(4, 16, 4, 3));
        for cut in 0..bytes.len() {
            assert!(
                matrix_from_bytes(&bytes[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn matrix_decode_rejects_bad_tag_and_lengths() {
        let mut bytes = matrix_to_bytes(&dense_fixture(3, 8, 4, 9));
        bytes[0] = 9; // Unknown format tag.
        assert_eq!(matrix_from_bytes(&bytes), Err(WireError::BadTag(9)));
        let mut bytes = matrix_to_bytes(&dense_fixture(3, 8, 4, 9));
        bytes[1] = 77; // bits = 77.
        assert_eq!(
            matrix_from_bytes(&bytes),
            Err(WireError::BadField("bits outside 2..=8"))
        );
    }

    /// Byte offset of the level words of a matrix record.
    const LEVELS_AT: usize = 1 + 4 + 8 * 3 + 8;

    /// Byte offset of the position words of a matrix record.
    fn positions_at(cm: &CompressedMatrix) -> usize {
        LEVELS_AT + cm.layout().levels().bytes() + 8
    }

    #[test]
    fn sparse_decode_rejects_repeated_positions_in_a_pair() {
        // 3 rows x 12 inputs: one partial block of three 4-column groups,
        // whose position words keep two byte planes (rows 0-1, row 2).
        let cm = sparse_fixture(3, 12, 4, 17);
        for (t, j) in (0..3).flat_map(|t| (0..3).map(move |j| (t, j))) {
            let (byte, shift) = (positions_at(&cm) + 3 * (j / 2) + t, (j % 2) * 4);
            let mut bytes = matrix_to_bytes(&cm);
            // Positions (2, 2).
            bytes[byte] = (bytes[byte] & !(0xF << shift)) | (0b1010 << shift);
            assert_eq!(
                matrix_from_bytes(&bytes),
                Err(WireError::BadField("sparse24 kept pair repeats a position")),
                "group {t} row {j}"
            );
        }
    }

    #[test]
    fn decode_rejects_nonzero_padding() {
        // 3 rows: the position words' second byte plane holds row 2 and a
        // padding nibble for row 3, which must stay zero.
        let cm = sparse_fixture(3, 12, 4, 18);
        let mut bytes = matrix_to_bytes(&cm);
        bytes[positions_at(&cm) + 3] |= 0xA0;
        assert_eq!(
            matrix_from_bytes(&bytes),
            Err(WireError::BadField("nonzero padding bits"))
        );
        // 6 2-bit levels per row fill one word and half the next: the
        // second word's last two slots in row 0's lane (byte plane 0) are
        // padding.
        let cm = dense_fixture(2, 6, 2, 19);
        let mut bytes = matrix_to_bytes(&cm);
        bytes[LEVELS_AT + 1] |= 0b0100_0000;
        assert_eq!(
            matrix_from_bytes(&bytes),
            Err(WireError::BadField("nonzero padding bits"))
        );
    }

    #[test]
    fn decode_rejects_levels_outside_the_grid_at_every_width() {
        for bits in 2u32..=8 {
            let cm = dense_fixture(3, 8, bits, u64::from(bits) + 40);
            let width = bits.next_power_of_two();
            let mask = ((1u32 << width) - 1) as u8;
            // q = qmax + 1, and (for lanes wider than `bits`) the lane's
            // largest value; both sit in row 0's first slot.
            for biased in [(1u32 << bits) - 1, (1 << width) - 1] {
                let mut bytes = matrix_to_bytes(&cm);
                bytes[LEVELS_AT] = (bytes[LEVELS_AT] & !mask) | biased as u8;
                assert_eq!(
                    matrix_from_bytes(&bytes),
                    Err(WireError::BadField("level outside the quantization grid")),
                    "bits={bits} biased={biased}"
                );
            }
            // The grid's top level itself decodes.
            let mut bytes = matrix_to_bytes(&cm);
            bytes[LEVELS_AT] = (bytes[LEVELS_AT] & !mask) | (2 * cm.spec.qmax()) as u8;
            assert_eq!(
                matrix_from_bytes(&bytes).unwrap().level_at(0, 0),
                cm.spec.qmax()
            );
        }
    }

    #[test]
    fn sparse_decode_rejects_group_size_not_divisible_by_4() {
        let mut bytes = matrix_to_bytes(&sparse_fixture(2, 16, 4, 19));
        bytes[5..13].copy_from_slice(&6u64.to_le_bytes());
        assert_eq!(
            matrix_from_bytes(&bytes),
            Err(WireError::BadField(
                "sparse24 group size not divisible by 4"
            ))
        );
    }

    #[test]
    fn decode_rejects_non_finite_scales() {
        // Both records end on their last scale.
        let quant = layer_to_bytes(&PackedLayer::Quant(dense_fixture(2, 8, 4, 20)));
        let sign = layer_to_bytes(&sign_layer(21, SignScope::PerRow));
        for record in [quant, sign] {
            for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                let mut bytes = record.clone();
                let end = bytes.len();
                bytes[end - 4..].copy_from_slice(&bad.to_le_bytes());
                assert_eq!(
                    layer_from_bytes(&bytes),
                    Err(WireError::BadField("non-finite scale"))
                );
            }
        }
    }

    #[test]
    fn hostile_huge_lengths_fail_before_allocating() {
        // A header declaring consistent but astronomical dimensions must
        // be rejected by the remaining-input bound, not by attempting a
        // terabyte allocation.
        let mut bytes = Vec::new();
        bytes.push(0u8); // dense
        bytes.extend_from_slice(&2u32.to_le_bytes()); // bits
        bytes.extend_from_slice(&8u64.to_le_bytes()); // group_size
        let d = 1usize << 20;
        bytes.extend_from_slice(&(d as u64).to_le_bytes()); // d_in
        bytes.extend_from_slice(&(d as u64).to_le_bytes()); // d_out
        let words = Layout::new(MatrixFormat::QuantDense, 2, d, d)
            .levels()
            .words;
        bytes.extend_from_slice(&(words as u64).to_le_bytes());
        assert_eq!(matrix_from_bytes(&bytes), Err(WireError::Truncated));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = matrix_to_bytes(&dense_fixture(3, 8, 4, 11));
        bytes.push(0);
        assert_eq!(matrix_from_bytes(&bytes), Err(WireError::TrailingBytes));
    }

    #[test]
    fn dense_matrix_round_trip() {
        let mut rng = Rng::seeded(5);
        let m = Matrix::randn(7, 9, 1.0, &mut rng);
        let mut out = Vec::new();
        encode_dense(&m, &mut out);
        let mut r = Reader::new(&out);
        let back = decode_dense(&mut r).unwrap();
        assert!(r.is_done());
        assert_eq!(back, m);
    }

    fn sign_layer(seed: u64, scope: SignScope) -> PackedLayer {
        let mut rng = Rng::seeded(seed);
        let delta = Matrix::randn(20, 12, 0.01, &mut rng);
        PackedLayer::Sign(SignMatrix::from_delta(&delta, scope))
    }

    fn lowrank_layer(seed: u64) -> PackedLayer {
        let mut rng = Rng::seeded(seed);
        let delta = Matrix::randn(24, 16, 0.01, &mut rng);
        PackedLayer::LowRank(LowRankMatrix::from_delta(&delta, &[(8, 2), (2, 4)]))
    }

    #[test]
    fn codec_layers_round_trip() {
        for layer in [
            sign_layer(31, SignScope::PerMatrix),
            sign_layer(32, SignScope::PerRow),
            lowrank_layer(33),
            PackedLayer::Quant(dense_fixture(5, 12, 4, 34)),
        ] {
            let back = layer_from_bytes(&layer_to_bytes(&layer)).unwrap();
            assert_eq!(back, layer);
        }
    }

    #[test]
    fn codec_layers_reject_truncation_everywhere() {
        for layer in [sign_layer(41, SignScope::PerRow), lowrank_layer(42)] {
            let bytes = layer_to_bytes(&layer);
            for cut in 0..bytes.len() {
                assert!(
                    layer_from_bytes(&bytes[..cut]).is_err(),
                    "cut at {cut} must fail"
                );
            }
        }
    }

    #[test]
    fn lowrank_rejects_inconsistent_band_dims() {
        let PackedLayer::LowRank(mut lr) = lowrank_layer(43) else {
            unreachable!()
        };
        // Corrupt a band: swap p and q so rows no longer match d_in/d_out.
        let band = &mut lr.bands[0];
        std::mem::swap(&mut band.p, &mut band.q);
        let bytes = layer_to_bytes(&PackedLayer::LowRank(lr));
        assert_eq!(
            layer_from_bytes(&bytes),
            Err(WireError::LengthMismatch("low-rank band dims"))
        );
    }

    #[test]
    fn lowrank_rejects_sparse_factors() {
        // A 2:4 factor in either position of any band is refused.
        for (band, left) in [(0, true), (0, false), (1, true), (1, false)] {
            let PackedLayer::LowRank(mut lr) = lowrank_layer(45) else {
                unreachable!()
            };
            let slot = &mut lr.bands[band];
            let factor = if left { &mut slot.p } else { &mut slot.q };
            *factor = sparse_fixture(factor.d_out, factor.d_in, 4, 46);
            let bytes = layer_to_bytes(&PackedLayer::LowRank(lr));
            assert_eq!(
                layer_from_bytes(&bytes),
                Err(WireError::BadField("2:4 low-rank factor")),
                "band {band}, left factor {left}"
            );
        }
    }

    #[test]
    fn layer_decode_rejects_unknown_tag() {
        let mut bytes = layer_to_bytes(&sign_layer(44, SignScope::PerRow));
        bytes[0] = 99;
        assert_eq!(layer_from_bytes(&bytes), Err(WireError::BadTag(99)));
    }
}
