//! Length-limited canonical Huffman coding.
//!
//! Code lengths are derived with the package-merge algorithm, which produces
//! optimal codes under a maximum-length constraint (15 bits, as in DEFLATE).
//! Codes are canonical: within a length, symbols are assigned consecutive
//! codes in symbol order, so a decoder only needs the length array.
//!
//! Encoded codes are emitted most-significant-bit first into the LSB-first
//! bit stream (i.e. the code bits are reversed before writing), matching the
//! convention DEFLATE uses and making the decoder a simple first-code walk.

use crate::bitio::{BitReader, BitWriter, OutOfBits};

/// Maximum code length in bits.
pub const MAX_CODE_LEN: u32 = 15;

/// Computes optimal length-limited code lengths for the given frequencies.
///
/// Symbols with zero frequency get length 0 (no code). If only one symbol
/// has nonzero frequency it is assigned length 1 so the stream remains
/// decodable. The result always satisfies the Kraft equality when two or
/// more symbols are present.
pub fn code_lengths(freqs: &[u64], max_len: u32) -> Vec<u32> {
    assert!((1..=MAX_CODE_LEN).contains(&max_len));
    let active: Vec<usize> = (0..freqs.len()).filter(|&i| freqs[i] > 0).collect();
    let mut lens = vec![0u32; freqs.len()];
    match active.len() {
        0 => return lens,
        1 => {
            lens[active[0]] = 1;
            return lens;
        }
        _ => {}
    }
    assert!(
        (active.len() as u64) <= (1u64 << max_len),
        "too many symbols for the length limit"
    );

    // Package-merge. Items are (weight, set of symbol indices represented as
    // counts). To avoid set bookkeeping we track, per level, how many times
    // each original symbol is contained in each package.
    #[derive(Clone)]
    struct Pkg {
        weight: u64,
        // Indices into `active` covered by this package (with multiplicity
        // folded into the count of level-crossings, i.e. each containment
        // adds one to the symbol's code length).
        syms: Vec<u32>,
    }

    let mut level: Vec<Pkg> = Vec::new();
    for _ in 0..max_len {
        // Fresh leaves for this level.
        let mut merged: Vec<Pkg> = active
            .iter()
            .enumerate()
            .map(|(ai, &i)| Pkg {
                weight: freqs[i],
                syms: vec![ai as u32],
            })
            .collect();
        // Plus packages carried from the previous level, paired up.
        let mut iter = level.into_iter();
        while let Some(a) = iter.next() {
            let Some(b) = iter.next() else { break };
            let mut syms = a.syms;
            syms.extend_from_slice(&b.syms);
            merged.push(Pkg {
                weight: a.weight + b.weight,
                syms,
            });
        }
        merged.sort_by_key(|p| p.weight);
        level = merged;
    }

    // Take the first 2n-2 packages; each containment of a symbol adds 1 to
    // its code length.
    let n = active.len();
    for pkg in level.iter().take(2 * n - 2) {
        for &ai in &pkg.syms {
            lens[active[ai as usize]] += 1;
        }
    }
    debug_assert!(lens.iter().all(|&l| l <= max_len));
    debug_assert!(kraft_ok(&lens));
    lens
}

fn kraft_ok(lens: &[u32]) -> bool {
    let sum: u64 = lens
        .iter()
        .filter(|&&l| l > 0)
        .map(|&l| 1u64 << (MAX_CODE_LEN - l))
        .sum();
    sum <= 1u64 << MAX_CODE_LEN
}

/// Canonical Huffman encoder table.
#[derive(Debug, Clone)]
pub struct Encoder {
    /// Per-symbol code bits (MSB-first semantics, stored reversed for the
    /// LSB-first writer) and lengths.
    codes: Vec<(u32, u32)>,
}

/// Assigns canonical codes from lengths; returns `(code, len)` per symbol.
fn canonical_codes(lens: &[u32]) -> Vec<(u32, u32)> {
    let max_len = lens.iter().copied().max().unwrap_or(0);
    let mut bl_count = vec![0u32; (max_len + 1) as usize];
    for &l in lens {
        if l > 0 {
            bl_count[l as usize] += 1;
        }
    }
    let mut next_code = vec![0u32; (max_len + 2) as usize];
    let mut code = 0u32;
    for bits in 1..=max_len {
        code = (code + bl_count[(bits - 1) as usize]) << 1;
        next_code[bits as usize] = code;
    }
    lens.iter()
        .map(|&l| {
            if l == 0 {
                (0, 0)
            } else {
                let c = next_code[l as usize];
                next_code[l as usize] += 1;
                (c, l)
            }
        })
        .collect()
}

impl Encoder {
    /// Builds an encoder from code lengths.
    pub fn from_lengths(lens: &[u32]) -> Self {
        let canonical = canonical_codes(lens);
        let codes = canonical
            .into_iter()
            .map(|(code, len)| {
                // Reverse the bits so an LSB-first writer emits MSB-first codes.
                let rev = if len == 0 {
                    0
                } else {
                    code.reverse_bits() >> (32 - len)
                };
                (rev, len)
            })
            .collect();
        Self { codes }
    }

    /// Writes the code for `sym`.
    ///
    /// # Panics
    ///
    /// Panics if the symbol has no code (zero frequency at build time).
    pub fn encode(&self, w: &mut BitWriter, sym: usize) {
        let (code, len) = self.codes[sym];
        assert!(len > 0, "symbol {sym} has no code");
        w.write_bits(code, len);
    }
}

/// Canonical Huffman decoder.
#[derive(Debug, Clone)]
pub struct Decoder {
    /// `first_code[l]`, `first_index[l]` per length, plus symbol order.
    first_code: Vec<u32>,
    first_index: Vec<u32>,
    symbols: Vec<u32>,
    max_len: u32,
}

/// Decode-side error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The bit stream ended mid-code.
    OutOfBits,
    /// No symbol matches the read prefix.
    BadCode,
}

impl From<OutOfBits> for DecodeError {
    fn from(_: OutOfBits) -> Self {
        DecodeError::OutOfBits
    }
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::OutOfBits => write!(f, "bit stream exhausted mid-code"),
            DecodeError::BadCode => write!(f, "invalid Huffman code"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl Decoder {
    /// Builds a decoder from code lengths.
    pub fn from_lengths(lens: &[u32]) -> Self {
        let max_len = lens.iter().copied().max().unwrap_or(0);
        let mut symbols: Vec<u32> = (0..lens.len() as u32)
            .filter(|&s| lens[s as usize] > 0)
            .collect();
        symbols.sort_by_key(|&s| (lens[s as usize], s));
        let mut first_code = vec![0u32; (max_len + 2) as usize];
        let mut first_index = vec![0u32; (max_len + 2) as usize];
        let mut bl_count = vec![0u32; (max_len + 1) as usize];
        for &l in lens {
            if l > 0 {
                bl_count[l as usize] += 1;
            }
        }
        let mut code = 0u32;
        let mut index = 0u32;
        for bits in 1..=max_len {
            code = (code
                + if bits >= 1 {
                    bl_count.get((bits - 1) as usize).copied().unwrap_or(0)
                } else {
                    0
                })
                << 1;
            first_code[bits as usize] = code;
            first_index[bits as usize] = index;
            index += bl_count[bits as usize];
        }
        Self {
            first_code,
            first_index,
            symbols,
            max_len,
        }
    }

    /// Decodes one symbol from the reader.
    pub fn decode(&self, r: &mut BitReader<'_>) -> Result<u32, DecodeError> {
        if self.max_len == 0 {
            return Err(DecodeError::BadCode);
        }
        let mut code = 0u32;
        for len in 1..=self.max_len {
            code = (code << 1) | r.read_bit()?;
            let count = self.count_at(len);
            if count > 0 {
                let first = self.first_code[len as usize];
                if code < first + count {
                    if code < first {
                        return Err(DecodeError::BadCode);
                    }
                    let idx = self.first_index[len as usize] + (code - first);
                    return Ok(self.symbols[idx as usize]);
                }
            }
        }
        Err(DecodeError::BadCode)
    }

    fn count_at(&self, len: u32) -> u32 {
        let start = self.first_index[len as usize];
        let end = if len == self.max_len {
            self.symbols.len() as u32
        } else {
            self.first_index[(len + 1) as usize]
        };
        end - start
    }
}

/// Width of the first-level lookup table, in bits. Codes no longer than
/// this resolve with a single probe; longer codes take one extra probe
/// into a compact per-prefix second-level table.
pub const LUT_BITS: u32 = 10;

/// Entry sentinel for "no code maps here".
const LUT_INVALID: u32 = u32::MAX;
/// Flag bit marking a first-level entry as a second-level pointer.
const LUT_SUB: u32 = 0x8000_0000;

/// Table-driven canonical Huffman decoder.
///
/// Decoding is a peek of up to [`MAX_CODE_LEN`] bits followed by one table
/// probe (two for codes longer than [`LUT_BITS`]) and a single `consume` —
/// no per-bit branching. Built from the same code-length array as
/// [`Decoder`] and bit-exactly equivalent to it on every input; the
/// tree-walk decoder is retained as the reference implementation.
///
/// Layout: `primary` has `2^min(max_len, LUT_BITS)` entries indexed by the
/// next bits of the stream in read order (codes are emitted MSB-first into
/// the LSB-first stream, so stream order *is* code order). A direct entry
/// packs `(len << 16) | sym`; a pointer entry (flag `LUT_SUB`) packs the
/// sub-table width in bits 24..31 and its offset into `secondary` in bits
/// 0..24.
#[derive(Debug, Clone)]
pub struct LutDecoder {
    primary: Vec<u32>,
    secondary: Vec<u32>,
    primary_bits: u32,
    max_len: u32,
}

impl LutDecoder {
    /// Builds the lookup tables from code lengths.
    pub fn from_lengths(lens: &[u32]) -> Self {
        let max_len = lens.iter().copied().max().unwrap_or(0);
        let primary_bits = max_len.min(LUT_BITS);
        let mut primary = vec![LUT_INVALID; 1usize << primary_bits];
        let mut secondary = Vec::new();
        if max_len == 0 {
            return LutDecoder {
                primary,
                secondary,
                primary_bits,
                max_len,
            };
        }
        let codes = canonical_codes(lens);
        // Short codes fill every primary slot sharing their low bits; the
        // stream carries the code bits reversed (MSB-first emission into an
        // LSB-first stream), so the slot index's low `len` bits are the
        // reversed canonical code.
        for (sym, &(code, len)) in codes.iter().enumerate() {
            if len == 0 || len > primary_bits {
                continue;
            }
            let rev = (code.reverse_bits() >> (32 - len)) as usize;
            let entry = (len << 16) | sym as u32;
            let mut hi = 0usize;
            while hi < (1usize << (primary_bits - len)) {
                primary[rev | (hi << len)] = entry;
                hi += 1;
            }
        }
        // Long codes: group by their first `primary_bits` stream bits and
        // build one compact sub-table per group, sized by the group's
        // longest tail.
        if max_len > primary_bits {
            // tail_bits[p] = longest code tail behind primary prefix p.
            let mut tail_bits = vec![0u32; 1usize << primary_bits];
            for &(code, len) in &codes {
                if len <= primary_bits {
                    continue;
                }
                let rev = (code.reverse_bits() >> (32 - len)) as usize;
                let prefix = rev & ((1 << primary_bits) - 1);
                tail_bits[prefix] = tail_bits[prefix].max(len - primary_bits);
            }
            for (prefix, &tb) in tail_bits.iter().enumerate() {
                if tb == 0 {
                    continue;
                }
                let offset = secondary.len() as u32;
                debug_assert!(offset < (1 << 24) && tb < (1 << 7));
                primary[prefix] = LUT_SUB | (tb << 24) | offset;
                secondary.resize(secondary.len() + (1usize << tb), LUT_INVALID);
            }
            for (sym, &(code, len)) in codes.iter().enumerate() {
                if len <= primary_bits {
                    continue;
                }
                let rev = (code.reverse_bits() >> (32 - len)) as usize;
                let prefix = rev & ((1 << primary_bits) - 1);
                let entry = primary[prefix];
                debug_assert!(entry & LUT_SUB != 0);
                let tb = (entry >> 24) & 0x7F;
                let offset = (entry & 0x00FF_FFFF) as usize;
                let tail = rev >> primary_bits;
                let sub_entry = (len << 16) | sym as u32;
                let tail_len = len - primary_bits;
                let mut hi = 0usize;
                while hi < (1usize << (tb - tail_len)) {
                    secondary[offset + (tail | (hi << tail_len))] = sub_entry;
                    hi += 1;
                }
            }
        }
        LutDecoder {
            primary,
            secondary,
            primary_bits,
            max_len,
        }
    }

    /// Resolves a symbol from peeked stream bits **without consuming**.
    ///
    /// `peek` must hold at least [`MAX_CODE_LEN`] valid next bits of the
    /// stream in its low bits (zero-padded near the end of input). Returns
    /// `(symbol, code_len)`; the caller consumes `code_len` bits — possibly
    /// folded with the following extra bits into one `consume`, which is
    /// what the page decoder's hot loop does.
    #[inline]
    pub fn probe(&self, peek: u32) -> Result<(u32, u32), DecodeError> {
        let entry = self.primary[(peek & ((1 << self.primary_bits) - 1)) as usize];
        let hit = if entry == LUT_INVALID {
            return Err(DecodeError::BadCode);
        } else if entry & LUT_SUB != 0 {
            let tb = (entry >> 24) & 0x7F;
            let offset = (entry & 0x00FF_FFFF) as usize;
            let tail = ((peek >> self.primary_bits) & ((1 << tb) - 1)) as usize;
            let sub = self.secondary[offset + tail];
            if sub == LUT_INVALID {
                return Err(DecodeError::BadCode);
            }
            sub
        } else {
            entry
        };
        Ok((hit & 0xFFFF, hit >> 16))
    }

    /// Decodes one symbol from the reader.
    #[inline]
    pub fn decode(&self, r: &mut BitReader<'_>) -> Result<u32, DecodeError> {
        if self.max_len == 0 {
            return Err(DecodeError::BadCode);
        }
        let peek = r.peek_bits(self.max_len);
        let (sym, len) = self.probe(peek)?;
        r.consume(len)?;
        Ok(sym)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(freqs: &[u64], message: &[usize]) {
        let lens = code_lengths(freqs, MAX_CODE_LEN);
        let enc = Encoder::from_lengths(&lens);
        let dec = Decoder::from_lengths(&lens);
        let lut = LutDecoder::from_lengths(&lens);
        let mut w = BitWriter::new();
        for &s in message {
            enc.encode(&mut w, s);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &s in message {
            assert_eq!(dec.decode(&mut r).unwrap(), s as u32);
        }
        // The LUT decoder must agree symbol for symbol.
        let mut r = BitReader::new(&bytes);
        for &s in message {
            assert_eq!(lut.decode(&mut r).unwrap(), s as u32);
        }
    }

    #[test]
    fn two_symbols() {
        round_trip(&[5, 3], &[0, 1, 1, 0, 0, 1]);
    }

    #[test]
    fn single_symbol_gets_one_bit() {
        let lens = code_lengths(&[0, 9, 0], MAX_CODE_LEN);
        assert_eq!(lens, vec![0, 1, 0]);
        round_trip(&[0, 9, 0], &[1, 1, 1]);
    }

    #[test]
    fn skewed_frequencies_give_short_codes_to_common_symbols() {
        let freqs = [1000, 10, 10, 10, 1, 1];
        let lens = code_lengths(&freqs, MAX_CODE_LEN);
        assert!(lens[0] < lens[4], "{lens:?}");
        round_trip(&freqs, &[0, 0, 0, 4, 5, 1, 2, 3, 0]);
    }

    #[test]
    fn kraft_equality_holds() {
        let freqs: Vec<u64> = (1..=64).map(|i| i * i).collect();
        let lens = code_lengths(&freqs, MAX_CODE_LEN);
        let kraft: f64 = lens
            .iter()
            .filter(|&&l| l > 0)
            .map(|&l| 2f64.powi(-(l as i32)))
            .sum();
        assert!((kraft - 1.0).abs() < 1e-9, "kraft {kraft}");
    }

    #[test]
    fn length_limit_respected_on_pathological_input() {
        // Fibonacci-like frequencies force long codes in unlimited Huffman.
        let mut freqs = vec![0u64; 40];
        let (mut a, mut b) = (1u64, 1u64);
        for f in freqs.iter_mut() {
            *f = a;
            let c = a + b;
            a = b;
            b = c;
        }
        let lens = code_lengths(&freqs, 15);
        assert!(lens.iter().all(|&l| l <= 15 && l > 0), "{lens:?}");
        let kraft: f64 = lens.iter().map(|&l| 2f64.powi(-(l as i32))).sum();
        assert!(kraft <= 1.0 + 1e-9);
        round_trip(&freqs, &(0..40).collect::<Vec<_>>());
    }

    #[test]
    fn optimality_matches_entropy_bound() {
        // Average code length must be within 1 bit of the entropy.
        let freqs = [50u64, 25, 12, 13];
        let total: u64 = freqs.iter().sum();
        let lens = code_lengths(&freqs, MAX_CODE_LEN);
        let avg: f64 = freqs
            .iter()
            .zip(lens.iter())
            .map(|(&f, &l)| f as f64 * l as f64)
            .sum::<f64>()
            / total as f64;
        let entropy: f64 = freqs
            .iter()
            .map(|&f| {
                let p = f as f64 / total as f64;
                -p * p.log2()
            })
            .sum();
        assert!(avg >= entropy - 1e-9);
        assert!(avg <= entropy + 1.0);
    }

    #[test]
    fn bad_code_detected() {
        // Build a decoder that only knows symbol lengths {1}, then feed it a
        // stream of the other prefix.
        let lens = vec![1, 1];
        let dec = Decoder::from_lengths(&lens);
        let mut w = BitWriter::new();
        w.write_bits(1, 1);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert!(dec.decode(&mut r).is_ok());
    }

    #[test]
    fn empty_alphabet_yields_no_codes() {
        let lens = code_lengths(&[0, 0, 0], MAX_CODE_LEN);
        assert_eq!(lens, vec![0, 0, 0]);
        let dec = Decoder::from_lengths(&lens);
        let mut r = BitReader::new(&[0xFF]);
        assert_eq!(dec.decode(&mut r), Err(DecodeError::BadCode));
        let lut = LutDecoder::from_lengths(&lens);
        let mut r = BitReader::new(&[0xFF]);
        assert_eq!(lut.decode(&mut r), Err(DecodeError::BadCode));
    }

    #[test]
    fn lut_uses_second_level_for_long_codes() {
        // Fibonacci-like frequencies push codes past LUT_BITS, forcing the
        // two-level path; every symbol must still round-trip.
        let mut freqs = vec![0u64; 40];
        let (mut a, mut b) = (1u64, 1u64);
        for f in freqs.iter_mut() {
            *f = a;
            let c = a + b;
            a = b;
            b = c;
        }
        let lens = code_lengths(&freqs, MAX_CODE_LEN);
        assert!(
            lens.iter().any(|&l| l > LUT_BITS),
            "need codes beyond the first level: {lens:?}"
        );
        round_trip(&freqs, &(0..40).collect::<Vec<_>>());
    }

    #[test]
    fn lut_and_tree_walk_agree_on_garbage_streams() {
        // On arbitrary byte streams both decoders must yield the same
        // symbol sequence up to the first error, and then both must error.
        let freqs: Vec<u64> = (1..=64).map(|i| i * i).collect();
        let lens = code_lengths(&freqs, MAX_CODE_LEN);
        let dec = Decoder::from_lengths(&lens);
        let lut = LutDecoder::from_lengths(&lens);
        let mut x = 0x0123_4567_89AB_CDEFu64;
        for trial in 0..50 {
            let bytes: Vec<u8> = (0..17)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    (x >> 24) as u8
                })
                .collect();
            let mut ra = BitReader::new(&bytes);
            let mut rb = BitReader::new(&bytes);
            loop {
                let a = dec.decode(&mut ra);
                let b = lut.decode(&mut rb);
                match (a, b) {
                    (Ok(sa), Ok(sb)) => assert_eq!(sa, sb, "trial {trial}"),
                    (Err(_), Err(_)) => break,
                    (a, b) => panic!("trial {trial}: tree-walk {a:?} vs lut {b:?}"),
                }
            }
        }
    }

    #[test]
    fn lut_truncation_errors_like_tree_walk_succeeds_or_errs() {
        // A stream cut mid-code must error from both decoders, never panic.
        let freqs = [1000u64, 10, 10, 10, 1, 1];
        let lens = code_lengths(&freqs, MAX_CODE_LEN);
        let enc = Encoder::from_lengths(&lens);
        let lut = LutDecoder::from_lengths(&lens);
        let mut w = BitWriter::new();
        for s in [4usize, 5, 4] {
            enc.encode(&mut w, s);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes[..bytes.len() - 1]);
        let mut decoded = 0;
        while lut.decode(&mut r).is_ok() {
            decoded += 1;
            assert!(decoded <= 3, "decoded past the truncation");
        }
    }
}
