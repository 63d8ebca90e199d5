//! The paged container tying LZ77 and Huffman together.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic "DZLC" | version u8 | page_size u32 | raw_len u64 | n_pages u32
//! page table: n_pages x { comp_len u32, mode u8 }
//! page payloads, back to back
//! ```
//!
//! Each page compresses `page_size` raw bytes independently (the last page
//! may be shorter). A page is entropy-coded (`mode = 0`) only when that
//! saves at least 1/8 of its raw bytes, the rule ZFS applies to its blocks;
//! otherwise it is stored raw (`mode = 1`), as DEFLATE's stored blocks are.
//! GDeflate decodes pages on the GPU at memory speed, but here Huffman
//! decoding runs on a CPU core at a small fraction of copy speed, so a page
//! that barely shrinks costs far more to read than the bytes it saves.
//! Quantized delta records are mostly literals and land on the stored side.
//! Independent pages are what makes GDeflate GPU-friendly: a decompression
//! engine assigns one page per thread block. Here they bound the memory of
//! the matcher and let each page carry its own Huffman tables.

use crate::bitio::{BitReader, BitWriter};
use crate::huffman::{code_lengths, DecodeError, Decoder, Encoder, LutDecoder, MAX_CODE_LEN};
use crate::lz77::{tokenize, Token, MAX_MATCH, MIN_MATCH};

/// Default page size (64 KiB, as GDeflate uses).
pub const DEFAULT_PAGE_SIZE: usize = 64 * 1024;

const MAGIC: &[u8; 4] = b"DZLC";
const VERSION: u8 = 2;
const MODE_HUFFMAN: u8 = 0;
const MODE_STORED: u8 = 1;
/// A page is entropy-coded only when that saves at least
/// `1 / MIN_SAVING_DIV` of its raw bytes; otherwise it is stored.
const MIN_SAVING_DIV: usize = 8;

/// Number of literal/length symbols (256 literals + EOB + 29 length codes).
const NUM_LITLEN: usize = 286;
/// End-of-block symbol.
const EOB: usize = 256;
/// Number of distance symbols.
const NUM_DIST: usize = 30;

/// `(base_length, extra_bits)` for length codes 257..=285.
const LEN_TABLE: [(u16, u8); 29] = [
    (3, 0),
    (4, 0),
    (5, 0),
    (6, 0),
    (7, 0),
    (8, 0),
    (9, 0),
    (10, 0),
    (11, 1),
    (13, 1),
    (15, 1),
    (17, 1),
    (19, 2),
    (23, 2),
    (27, 2),
    (31, 2),
    (35, 3),
    (43, 3),
    (51, 3),
    (59, 3),
    (67, 4),
    (83, 4),
    (99, 4),
    (115, 4),
    (131, 5),
    (163, 5),
    (195, 5),
    (227, 5),
    (258, 0),
];

/// `(base_distance, extra_bits)` for distance codes 0..=29.
const DIST_TABLE: [(u16, u8); 30] = [
    (1, 0),
    (2, 0),
    (3, 0),
    (4, 0),
    (5, 1),
    (7, 1),
    (9, 2),
    (13, 2),
    (17, 3),
    (25, 3),
    (33, 4),
    (49, 4),
    (65, 5),
    (97, 5),
    (129, 6),
    (193, 6),
    (257, 7),
    (385, 7),
    (513, 8),
    (769, 8),
    (1025, 9),
    (1537, 9),
    (2049, 10),
    (3073, 10),
    (4097, 11),
    (6145, 11),
    (8193, 12),
    (12289, 12),
    (16385, 13),
    (24577, 13),
];

/// Errors surfaced while decoding a compressed stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Stream does not start with the container magic.
    BadMagic,
    /// Unsupported container version.
    BadVersion(u8),
    /// Stream is shorter than its headers claim.
    Truncated,
    /// A page failed to entropy-decode.
    Corrupt(&'static str),
    /// The decoded payload does not match the stored checksum.
    ChecksumMismatch,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::BadMagic => write!(f, "bad magic"),
            CodecError::BadVersion(v) => write!(f, "unsupported version {v}"),
            CodecError::Truncated => write!(f, "truncated stream"),
            CodecError::Corrupt(what) => write!(f, "corrupt stream: {what}"),
            CodecError::ChecksumMismatch => write!(f, "payload checksum mismatch"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<DecodeError> for CodecError {
    fn from(e: DecodeError) -> Self {
        match e {
            DecodeError::OutOfBits => CodecError::Truncated,
            DecodeError::BadCode => CodecError::Corrupt("invalid huffman code"),
        }
    }
}

fn length_to_symbol(len: u16) -> (usize, u16, u8) {
    debug_assert!((MIN_MATCH..=MAX_MATCH).contains(&(len as usize)));
    // Find the last code whose base <= len.
    let mut idx = 0;
    for (i, (base, _)) in LEN_TABLE.iter().enumerate() {
        if *base <= len {
            idx = i;
        } else {
            break;
        }
    }
    let (base, extra) = LEN_TABLE[idx];
    (257 + idx, len - base, extra)
}

fn dist_to_symbol(dist: u16) -> (usize, u16, u8) {
    let mut idx = 0;
    for (i, (base, _)) in DIST_TABLE.iter().enumerate() {
        if *base <= dist {
            idx = i;
        } else {
            break;
        }
    }
    let (base, extra) = DIST_TABLE[idx];
    (idx, dist - base, extra)
}

/// Compresses one page; returns `(mode, payload)`.
fn compress_page(raw: &[u8]) -> (u8, Vec<u8>) {
    let payload = huffman_payload(raw);
    if payload.len() <= raw.len() - raw.len() / MIN_SAVING_DIV {
        (MODE_HUFFMAN, payload)
    } else {
        (MODE_STORED, raw.to_vec())
    }
}

/// Entropy-codes one page: code-length header, then LZ77 tokens.
fn huffman_payload(raw: &[u8]) -> Vec<u8> {
    let tokens = tokenize(raw);
    // Gather symbol frequencies.
    let mut lit_freq = vec![0u64; NUM_LITLEN];
    let mut dist_freq = vec![0u64; NUM_DIST];
    for t in &tokens {
        match *t {
            Token::Literal(b) => lit_freq[b as usize] += 1,
            Token::Match { len, dist } => {
                lit_freq[length_to_symbol(len).0] += 1;
                dist_freq[dist_to_symbol(dist).0] += 1;
            }
        }
    }
    lit_freq[EOB] += 1;
    let lit_lens = code_lengths(&lit_freq, MAX_CODE_LEN);
    let dist_lens = code_lengths(&dist_freq, MAX_CODE_LEN);
    let lit_enc = Encoder::from_lengths(&lit_lens);
    let dist_enc = Encoder::from_lengths(&dist_lens);

    let mut w = BitWriter::new();
    // Header: code lengths, 4 bits each (max length is 15).
    for &l in &lit_lens {
        w.write_bits(l, 4);
    }
    for &l in &dist_lens {
        w.write_bits(l, 4);
    }
    for t in &tokens {
        match *t {
            Token::Literal(b) => lit_enc.encode(&mut w, b as usize),
            Token::Match { len, dist } => {
                let (sym, extra_val, extra_bits) = length_to_symbol(len);
                lit_enc.encode(&mut w, sym);
                if extra_bits > 0 {
                    w.write_bits(extra_val as u32, extra_bits as u32);
                }
                let (dsym, dextra_val, dextra_bits) = dist_to_symbol(dist);
                dist_enc.encode(&mut w, dsym);
                if dextra_bits > 0 {
                    w.write_bits(dextra_val as u32, dextra_bits as u32);
                }
            }
        }
    }
    lit_enc.encode(&mut w, EOB);
    w.finish()
}

/// Reference page decoder: the original bit-at-a-time tree-walk path,
/// retained as the correctness oracle for the LUT fast path.
fn decompress_page_reference(
    payload: &[u8],
    mode: u8,
    raw_len: usize,
) -> Result<Vec<u8>, CodecError> {
    match mode {
        MODE_STORED => {
            if payload.len() != raw_len {
                return Err(CodecError::Corrupt("stored page length mismatch"));
            }
            Ok(payload.to_vec())
        }
        MODE_HUFFMAN => {
            let mut r = BitReader::new(payload);
            let mut lit_lens = vec![0u32; NUM_LITLEN];
            for l in lit_lens.iter_mut() {
                *l = r.read_bits(4).map_err(|_| CodecError::Truncated)?;
            }
            let mut dist_lens = vec![0u32; NUM_DIST];
            for l in dist_lens.iter_mut() {
                *l = r.read_bits(4).map_err(|_| CodecError::Truncated)?;
            }
            let lit_dec = Decoder::from_lengths(&lit_lens);
            let dist_dec = Decoder::from_lengths(&dist_lens);
            let mut out = Vec::with_capacity(raw_len);
            loop {
                let sym = lit_dec.decode(&mut r)? as usize;
                if sym == EOB {
                    break;
                }
                if sym < 256 {
                    out.push(sym as u8);
                } else {
                    let idx = sym - 257;
                    if idx >= LEN_TABLE.len() {
                        return Err(CodecError::Corrupt("bad length symbol"));
                    }
                    let (base, extra) = LEN_TABLE[idx];
                    let len = base as usize
                        + r.read_bits(extra as u32)
                            .map_err(|_| CodecError::Truncated)? as usize;
                    let dsym = dist_dec.decode(&mut r)? as usize;
                    if dsym >= DIST_TABLE.len() {
                        return Err(CodecError::Corrupt("bad distance symbol"));
                    }
                    let (dbase, dextra) = DIST_TABLE[dsym];
                    let dist = dbase as usize
                        + r.read_bits(dextra as u32)
                            .map_err(|_| CodecError::Truncated)? as usize;
                    if dist == 0 || dist > out.len() {
                        return Err(CodecError::Corrupt("distance before start"));
                    }
                    let start = out.len() - dist;
                    for k in 0..len {
                        let b = out[start + k];
                        out.push(b);
                    }
                }
                if out.len() > raw_len {
                    return Err(CodecError::Corrupt("page overflow"));
                }
            }
            if out.len() != raw_len {
                return Err(CodecError::Corrupt("page length mismatch"));
            }
            Ok(out)
        }
        _ => Err(CodecError::Corrupt("unknown page mode")),
    }
}

/// Fast-path page decoder: LUT Huffman decoding straight into the caller's
/// output slice (whose length is the page's expected raw length), with
/// `copy_within` for non-overlapping match copies.
fn decompress_page_into(payload: &[u8], mode: u8, out: &mut [u8]) -> Result<(), CodecError> {
    match mode {
        MODE_STORED => {
            if payload.len() != out.len() {
                return Err(CodecError::Corrupt("stored page length mismatch"));
            }
            out.copy_from_slice(payload);
            Ok(())
        }
        MODE_HUFFMAN => {
            let mut r = BitReader::new(payload);
            let mut lit_lens = vec![0u32; NUM_LITLEN];
            for l in lit_lens.iter_mut() {
                *l = r.read_bits(4).map_err(|_| CodecError::Truncated)?;
            }
            let mut dist_lens = vec![0u32; NUM_DIST];
            for l in dist_lens.iter_mut() {
                *l = r.read_bits(4).map_err(|_| CodecError::Truncated)?;
            }
            let lit_dec = LutDecoder::from_lengths(&lit_lens);
            let dist_dec = LutDecoder::from_lengths(&dist_lens);
            let mut filled = 0usize;
            loop {
                // One 32-bit peek covers the longest code (15 bits) plus its
                // extra bits, so each symbol costs a single probe and a
                // single consume.
                let peek = r.peek_bits(32);
                let (sym, clen) = lit_dec.probe(peek)?;
                let sym = sym as usize;
                if sym == EOB {
                    r.consume(clen).map_err(|_| CodecError::Truncated)?;
                    break;
                }
                if sym < 256 {
                    r.consume(clen).map_err(|_| CodecError::Truncated)?;
                    if filled == out.len() {
                        return Err(CodecError::Corrupt("page overflow"));
                    }
                    out[filled] = sym as u8;
                    filled += 1;
                } else {
                    let idx = sym - 257;
                    if idx >= LEN_TABLE.len() {
                        return Err(CodecError::Corrupt("bad length symbol"));
                    }
                    let (base, extra) = LEN_TABLE[idx];
                    let extra = extra as u32;
                    let len = base as usize + ((peek >> clen) & ((1u32 << extra) - 1)) as usize;
                    r.consume(clen + extra).map_err(|_| CodecError::Truncated)?;
                    let dpeek = r.peek_bits(32);
                    let (dsym, dclen) = dist_dec.probe(dpeek)?;
                    let dsym = dsym as usize;
                    if dsym >= DIST_TABLE.len() {
                        return Err(CodecError::Corrupt("bad distance symbol"));
                    }
                    let (dbase, dextra) = DIST_TABLE[dsym];
                    let dextra = dextra as u32;
                    let dist =
                        dbase as usize + ((dpeek >> dclen) & ((1u32 << dextra) - 1)) as usize;
                    r.consume(dclen + dextra)
                        .map_err(|_| CodecError::Truncated)?;
                    if dist == 0 || dist > filled {
                        return Err(CodecError::Corrupt("distance before start"));
                    }
                    if len > out.len() - filled {
                        return Err(CodecError::Corrupt("page overflow"));
                    }
                    let start = filled - dist;
                    if dist >= len {
                        out.copy_within(start..start + len, filled);
                    } else {
                        // Overlapping run (dist < len): the output repeats a
                        // dist-byte pattern. Replicate it by doubling — each
                        // copy's source ends where the previous one finished,
                        // so every copy_within is non-overlapping and the
                        // whole run costs O(log(len/dist)) memmoves instead
                        // of len byte stores.
                        let mut w = 0usize;
                        while w < len {
                            let chunk = (dist + w).min(len - w);
                            out.copy_within(start..start + chunk, filled + w);
                            w += chunk;
                        }
                    }
                    filled += len;
                }
            }
            if filled != out.len() {
                return Err(CodecError::Corrupt("page length mismatch"));
            }
            Ok(())
        }
        _ => Err(CodecError::Corrupt("unknown page mode")),
    }
}

/// Compresses `data` with the default page size.
pub fn compress(data: &[u8]) -> Vec<u8> {
    compress_with_page_size(data, DEFAULT_PAGE_SIZE)
}

/// Compresses `data` with an explicit page size.
///
/// # Panics
///
/// Panics if `page_size == 0`.
pub fn compress_with_page_size(data: &[u8], page_size: usize) -> Vec<u8> {
    assert!(page_size > 0, "page size must be positive");
    let n_pages = data.len().div_ceil(page_size);
    let mut pages = Vec::with_capacity(n_pages);
    for chunk in data.chunks(page_size) {
        pages.push(compress_page(chunk));
    }
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.push(VERSION);
    out.extend_from_slice(&(page_size as u32).to_le_bytes());
    out.extend_from_slice(&(data.len() as u64).to_le_bytes());
    out.extend_from_slice(&crate::crc::crc32(data).to_le_bytes());
    out.extend_from_slice(&(n_pages as u32).to_le_bytes());
    for (mode, payload) in &pages {
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.push(*mode);
    }
    for (_, payload) in &pages {
        out.extend_from_slice(payload);
    }
    out
}

/// A parsed container: header fields plus per-page payload slices.
struct ParsedStream<'a> {
    page_size: usize,
    raw_len: usize,
    stored_crc: u32,
    /// `(payload, mode)` per page, in order.
    pages: Vec<(&'a [u8], u8)>,
}

fn parse_stream(stream: &[u8]) -> Result<ParsedStream<'_>, CodecError> {
    let mut pos = 0usize;
    let take = |pos: &mut usize, n: usize| -> Result<&[u8], CodecError> {
        if *pos + n > stream.len() {
            return Err(CodecError::Truncated);
        }
        let s = &stream[*pos..*pos + n];
        *pos += n;
        Ok(s)
    };
    if take(&mut pos, 4)? != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let version = take(&mut pos, 1)?[0];
    if version != VERSION {
        return Err(CodecError::BadVersion(version));
    }
    let page_size = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap()) as usize;
    let raw_len = u64::from_le_bytes(take(&mut pos, 8)?.try_into().unwrap()) as usize;
    let stored_crc = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap());
    let n_pages = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap()) as usize;
    if page_size == 0 && raw_len > 0 {
        return Err(CodecError::Corrupt("zero page size"));
    }
    if n_pages != raw_len.div_ceil(page_size.max(1)) {
        return Err(CodecError::Corrupt("page count mismatch"));
    }
    // Each table entry is a u32 length and a mode byte: refuse a count the
    // stream cannot hold before reserving for it.
    if n_pages > (stream.len() - pos) / 5 {
        return Err(CodecError::Truncated);
    }
    let mut table = Vec::with_capacity(n_pages);
    for _ in 0..n_pages {
        let len = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap()) as usize;
        let mode = take(&mut pos, 1)?[0];
        table.push((len, mode));
    }
    // A stored page decodes to exactly its payload; a Huffman page to at
    // most `MAX_MATCH` bytes per payload bit, since every symbol costs at
    // least one bit. The decoders allocate `raw_len` up front, so a larger
    // declared length is refused here.
    let capacity = table
        .iter()
        .map(|&(len, mode)| match mode {
            MODE_STORED => len,
            _ => len.saturating_mul(8 * MAX_MATCH),
        })
        .fold(0usize, usize::saturating_add);
    if raw_len > capacity {
        return Err(CodecError::Corrupt(
            "raw length exceeds what the pages decode to",
        ));
    }
    let mut pages = Vec::with_capacity(n_pages);
    for (len, mode) in table {
        pages.push((take(&mut pos, len)?, mode));
    }
    Ok(ParsedStream {
        page_size,
        raw_len,
        stored_crc,
        pages,
    })
}

/// The raw length and CRC32 that a stream's header declares, read without
/// decoding any page. [`decompress`] checks its output against both, so a
/// caller that keeps its own record of the payload can compare that record
/// here instead of hashing the output a second time.
pub fn declared_len_and_crc(stream: &[u8]) -> Result<(u64, u32), CodecError> {
    parse_stream(stream).map(|p| (p.raw_len as u64, p.stored_crc))
}

/// Decompresses a stream produced by [`compress`].
///
/// This is the fast path: LUT Huffman decoding, one page after another
/// into the output buffer.
pub fn decompress(stream: &[u8]) -> Result<Vec<u8>, CodecError> {
    let parsed = parse_stream(stream)?;
    let mut out = vec![0u8; parsed.raw_len];
    // An empty stream may declare a zero page size; it has no pages.
    let page_size = parsed.page_size.max(1);
    for ((payload, mode), chunk) in parsed.pages.iter().zip(out.chunks_mut(page_size)) {
        decompress_page_into(payload, *mode, chunk)?;
    }
    if crate::crc::crc32(&out) != parsed.stored_crc {
        return Err(CodecError::ChecksumMismatch);
    }
    Ok(out)
}

/// Decompresses through the retained serial reference path (bit-at-a-time
/// tree-walk decoder, pages in order). Kept as the oracle the fast path is
/// property-tested against; byte-identical to [`decompress`] on success and
/// erring on every input the fast path rejects.
pub fn decompress_reference(stream: &[u8]) -> Result<Vec<u8>, CodecError> {
    let parsed = parse_stream(stream)?;
    let n_pages = parsed.pages.len();
    let mut out = Vec::with_capacity(parsed.raw_len);
    for (i, (payload, mode)) in parsed.pages.iter().enumerate() {
        let expected = if i + 1 == n_pages {
            parsed.raw_len - parsed.page_size * (n_pages - 1)
        } else {
            parsed.page_size
        };
        out.extend(decompress_page_reference(payload, *mode, expected)?);
    }
    if crate::crc::crc32_bytewise(&out) != parsed.stored_crc {
        return Err(CodecError::ChecksumMismatch);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(data: &[u8]) {
        let c = compress(data);
        let d = decompress(&c).expect("decompress");
        assert_eq!(d, data);
        // The retained serial reference path must agree byte for byte.
        let r = decompress_reference(&c).expect("reference decompress");
        assert_eq!(r, data);
        // Each page is entropy-coded exactly when that saves 1/8 of it.
        let parsed = parse_stream(&c).expect("parse");
        for (&(payload, mode), raw) in parsed.pages.iter().zip(data.chunks(DEFAULT_PAGE_SIZE)) {
            let coded = saves_an_eighth(raw);
            assert_eq!(mode, if coded { MODE_HUFFMAN } else { MODE_STORED });
            if !coded {
                assert_eq!(payload, raw);
            }
        }
    }

    fn saves_an_eighth(raw: &[u8]) -> bool {
        huffman_payload(raw).len() <= raw.len() - raw.len() / MIN_SAVING_DIV
    }

    /// A header that declares 32 TiB over 8192 empty Huffman pages of
    /// `u32::MAX` bytes each, with a consistent page count.
    fn inflated_header_stream() -> Vec<u8> {
        let page_size = u32::MAX;
        let n_pages = 8192u32;
        let raw_len = u64::from(page_size) * u64::from(n_pages);
        let mut s = MAGIC.to_vec();
        s.push(VERSION);
        s.extend(page_size.to_le_bytes());
        s.extend(raw_len.to_le_bytes());
        s.extend(0u32.to_le_bytes());
        s.extend(n_pages.to_le_bytes());
        for _ in 0..n_pages {
            s.extend(0u32.to_le_bytes());
            s.push(MODE_HUFFMAN);
        }
        s
    }

    #[test]
    fn inflated_raw_length_is_refused_before_allocating() {
        let s = inflated_header_stream();
        assert_eq!(s.len(), 40_985);
        for result in [decompress(&s), decompress_reference(&s)] {
            assert!(matches!(result, Err(CodecError::Corrupt(_))), "{result:?}");
        }
        assert!(declared_len_and_crc(&s).is_err());
    }

    #[test]
    fn stored_pages_bound_the_raw_length_exactly() {
        // One byte past what a stored page holds is refused; the exact
        // length parses.
        let raw: Vec<u8> = (0..100u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
            .collect();
        let c = compress(&raw);
        let parsed = parse_stream(&c).expect("parse");
        assert_eq!(parsed.pages[0].1, MODE_STORED);
        let mut longer = c.clone();
        longer[9..17].copy_from_slice(&101u64.to_le_bytes());
        assert!(matches!(parse_stream(&longer), Err(CodecError::Corrupt(_))));
    }

    #[test]
    fn page_count_past_the_stream_is_refused_before_allocating() {
        // A bare header declaring u32::MAX one-byte pages: reserving the
        // page table for that count alone would need 64 GiB.
        let mut s = MAGIC.to_vec();
        s.push(VERSION);
        s.extend(1u32.to_le_bytes());
        s.extend(u64::from(u32::MAX).to_le_bytes());
        s.extend(0u32.to_le_bytes());
        s.extend(u32::MAX.to_le_bytes());
        assert!(matches!(parse_stream(&s), Err(CodecError::Truncated)));
    }

    #[test]
    fn empty_input() {
        round_trip(b"");
    }

    #[test]
    fn small_text() {
        round_trip(b"hello world, hello world, hello world");
    }

    #[test]
    fn compresses_repetitive_data_well() {
        let data = b"0123456789abcdef".repeat(4096);
        let c = compress(&data);
        assert!(
            (c.len() as f64) < data.len() as f64 * 0.1,
            "only {} -> {}",
            data.len(),
            c.len()
        );
        round_trip(&data);
    }

    #[test]
    fn incompressible_data_stays_near_raw() {
        let mut x = 0x2545F4914F6CDD1Du64;
        let data: Vec<u8> = (0..100_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect();
        let c = compress(&data);
        // Stored-mode fallback bounds expansion to the page table overhead.
        assert!(c.len() < data.len() + 64 + data.len() / DEFAULT_PAGE_SIZE * 8);
        round_trip(&data);

        // A 4 KiB page whose first `low` bytes carry 4 bits of entropy and
        // the rest 8: entropy coding saves more as `low` grows. Bisect for
        // the two neighbouring inputs just outside and just inside the 1/8
        // line; they must take different modes and both decode.
        let page = |low: usize| -> Vec<u8> {
            data[..4096]
                .iter()
                .enumerate()
                .map(|(i, &b)| if i < low { b & 0x0F } else { b })
                .collect()
        };
        let saves = |low: usize| saves_an_eighth(&page(low));
        let (mut lo, mut hi) = (0usize, 4096usize);
        assert!(!saves(lo) && saves(hi));
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if saves(mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        let line = 4096 - 4096 / MIN_SAVING_DIV;
        assert!(huffman_payload(&page(lo)).len() <= line + 8);
        assert!(huffman_payload(&page(hi)).len() + 8 >= line);
        for (low, mode) in [(lo, MODE_STORED), (hi, MODE_HUFFMAN)] {
            let raw = page(low);
            round_trip(&raw);
            let c = compress(&raw);
            assert_eq!(
                parse_stream(&c).expect("parse").pages[0].1,
                mode,
                "low = {low}"
            );
        }
    }

    #[test]
    fn multi_page_boundaries() {
        let data: Vec<u8> = (0..DEFAULT_PAGE_SIZE * 2 + 17)
            .map(|i| (i % 251) as u8)
            .collect();
        round_trip(&data);
        // Tiny pages stress the page table path.
        let c = compress_with_page_size(&data[..1000], 64);
        assert_eq!(decompress(&c).unwrap(), &data[..1000]);
    }

    #[test]
    fn large_mixed_multi_page_stream_matches_reference() {
        // Many pages, Huffman-coded and stored, decoded one after another
        // through the fast path and through the reference.
        let mut data = b"multi page decode ".repeat(60_000);
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        data.extend((0..4 * DEFAULT_PAGE_SIZE + 123).map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 32) as u8
        }));
        let c = compress(&data);
        let modes: Vec<u8> = parse_stream(&c)
            .expect("parse")
            .pages
            .iter()
            .map(|p| p.1)
            .collect();
        assert!(modes.len() > 16, "{} pages", modes.len());
        assert!(modes.contains(&MODE_HUFFMAN) && modes.contains(&MODE_STORED));
        assert_eq!(decompress(&c).unwrap(), data);
        assert_eq!(decompress_reference(&c).unwrap(), data);
    }

    #[test]
    fn fast_decode_rejects_corruption_like_reference() {
        let data = b"corruption must never pass ".repeat(40_000);
        let c = compress(&data);
        for pos in [8, c.len() / 2, c.len() - 3] {
            let mut bad = c.clone();
            bad[pos] ^= 0x40;
            let fast = decompress(&bad);
            let slow = decompress_reference(&bad);
            // Either both recover the exact data (flip in dead padding) or
            // both refuse; never silent corruption, never divergence.
            match (fast, slow) {
                (Ok(f), Ok(s)) => {
                    assert_eq!(f, data);
                    assert_eq!(s, data);
                }
                (Err(_), Err(_)) => {}
                (f, s) => panic!("fast {f:?} vs reference {s:?} at byte {pos}"),
            }
        }
    }

    #[test]
    fn rejects_bad_magic() {
        assert_eq!(decompress(b"NOPE"), Err(CodecError::BadMagic));
        assert_eq!(decompress(b"DZ"), Err(CodecError::Truncated));
        let mut c = compress(b"data data data");
        c[0] = b'X';
        assert_eq!(decompress(&c), Err(CodecError::BadMagic));
    }

    #[test]
    fn rejects_truncation_anywhere() {
        let data = b"the same phrase repeats; the same phrase repeats".repeat(10);
        let c = compress(&data);
        for cut in [5, 12, 20, c.len() - 1] {
            let r = decompress(&c[..cut]);
            assert!(r.is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn rejects_version_bump() {
        let mut c = compress(b"abc");
        c[4] = 9;
        assert_eq!(decompress(&c), Err(CodecError::BadVersion(9)));
    }

    #[test]
    fn length_symbol_tables_cover_all_lengths() {
        for len in MIN_MATCH as u16..=MAX_MATCH as u16 {
            let (sym, extra_val, extra_bits) = length_to_symbol(len);
            assert!((257..286).contains(&sym));
            let (base, eb) = LEN_TABLE[sym - 257];
            assert_eq!(eb, extra_bits);
            assert_eq!(base + extra_val, len);
            assert!(extra_val < (1 << extra_bits) || extra_bits == 0);
        }
    }

    #[test]
    fn distance_symbol_tables_cover_window() {
        for dist in [1u16, 2, 3, 4, 5, 100, 1024, 4096, 16384, 32767] {
            let (sym, extra_val, extra_bits) = dist_to_symbol(dist);
            let (base, eb) = DIST_TABLE[sym];
            assert_eq!(eb, extra_bits);
            assert_eq!(base + extra_val, dist);
        }
    }

    #[test]
    fn float_delta_bytes_compress() {
        // A packed, quantized delta looks like low-entropy integer data; the
        // codec must find structure in repeated scale bytes.
        let mut data = Vec::new();
        for i in 0..20_000u32 {
            data.extend_from_slice(&((i % 7) as u8).to_le_bytes());
            data.push(0);
            data.push(0);
        }
        let c = compress(&data);
        assert!(c.len() * 4 < data.len());
        round_trip(&data);
    }
}
