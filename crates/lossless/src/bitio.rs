//! LSB-first bit-level I/O, DEFLATE style.
//!
//! Bits are written into bytes starting at the least significant position;
//! multi-bit values are written least-significant-bit first. This matches
//! RFC 1951 conventions so the Huffman layer can reuse the standard
//! canonical-code bit order (codes are written MSB-first via explicit
//! reversal in the Huffman encoder).

/// Accumulates bits into a byte vector, LSB first.
#[derive(Debug, Default)]
pub struct BitWriter {
    out: Vec<u8>,
    acc: u64,
    nbits: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes the low `n` bits of `value`, LSB first.
    ///
    /// # Panics
    ///
    /// Panics if `n > 32`.
    pub fn write_bits(&mut self, value: u32, n: u32) {
        assert!(n <= 32, "write_bits supports at most 32 bits");
        debug_assert!(
            n == 32 || value < (1u32 << n),
            "value {value} wider than {n} bits"
        );
        self.acc |= (value as u64) << self.nbits;
        self.nbits += n;
        while self.nbits >= 8 {
            self.out.push((self.acc & 0xFF) as u8);
            self.acc >>= 8;
            self.nbits -= 8;
        }
    }

    /// Number of complete bytes plus a partial byte, in bits.
    pub fn bit_len(&self) -> usize {
        self.out.len() * 8 + self.nbits as usize
    }

    /// Flushes any partial byte (zero-padded) and returns the buffer.
    pub fn finish(mut self) -> Vec<u8> {
        if self.nbits > 0 {
            self.out.push((self.acc & 0xFF) as u8);
        }
        self.out
    }
}

/// Reads bits from a byte slice, LSB first.
#[derive(Debug)]
pub struct BitReader<'a> {
    data: &'a [u8],
    pos: usize,
    acc: u64,
    nbits: u32,
}

/// Error returned when a reader runs out of input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfBits;

impl std::fmt::Display for OutOfBits {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bit stream exhausted")
    }
}

impl std::error::Error for OutOfBits {}

impl<'a> BitReader<'a> {
    /// Creates a reader over `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Self {
            data,
            pos: 0,
            acc: 0,
            nbits: 0,
        }
    }

    /// Tops the accumulator up to at least 56 valid bits (or until the
    /// input is exhausted). The hot path loads a whole little-endian `u64`
    /// and advances by however many bytes fit — no per-bit or per-byte
    /// branching; the byte-at-a-time loop only runs within the final seven
    /// bytes of the input.
    #[inline]
    fn refill(&mut self) {
        if self.nbits >= 56 {
            return;
        }
        if self.pos + 8 <= self.data.len() {
            let word = u64::from_le_bytes(self.data[self.pos..self.pos + 8].try_into().unwrap());
            self.acc |= word << self.nbits;
            // Bytes that fit into the free top of the accumulator.
            self.pos += ((63 - self.nbits) >> 3) as usize;
            self.nbits |= 56;
        } else {
            while self.nbits <= 56 && self.pos < self.data.len() {
                self.acc |= (self.data[self.pos] as u64) << self.nbits;
                self.pos += 1;
                self.nbits += 8;
            }
        }
    }

    /// Returns the next `n` bits (`n <= 32`) without consuming them, LSB
    /// first. Near the end of the stream the value is zero-padded; pair
    /// with [`consume`](Self::consume) (which does bounds-check) to detect
    /// truncation.
    #[inline]
    pub fn peek_bits(&mut self, n: u32) -> u32 {
        debug_assert!(n <= 32, "peek_bits supports at most 32 bits");
        if self.nbits < n {
            self.refill();
        }
        let mask = if n >= 32 { u32::MAX } else { (1u32 << n) - 1 };
        (self.acc as u32) & mask
    }

    /// Consumes `n` previously peeked bits.
    ///
    /// Returns [`OutOfBits`] if fewer than `n` bits remain in the stream.
    #[inline]
    pub fn consume(&mut self, n: u32) -> Result<(), OutOfBits> {
        if self.nbits < n {
            self.refill();
            if self.nbits < n {
                return Err(OutOfBits);
            }
        }
        self.acc >>= n;
        self.nbits -= n;
        Ok(())
    }

    /// Reads `n` bits (`n <= 32`), LSB first.
    ///
    /// Returns [`OutOfBits`] if fewer than `n` bits remain.
    #[inline]
    pub fn read_bits(&mut self, n: u32) -> Result<u32, OutOfBits> {
        assert!(n <= 32, "read_bits supports at most 32 bits");
        if n == 0 {
            return Ok(0);
        }
        let v = self.peek_bits(n);
        self.consume(n)?;
        Ok(v)
    }

    /// Reads a single bit.
    pub fn read_bit(&mut self) -> Result<u32, OutOfBits> {
        self.read_bits(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_various_widths() {
        let mut w = BitWriter::new();
        w.write_bits(0b1, 1);
        w.write_bits(0b1010, 4);
        w.write_bits(0xFFFF, 16);
        w.write_bits(0, 3);
        w.write_bits(0x12345678, 32);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(1).unwrap(), 0b1);
        assert_eq!(r.read_bits(4).unwrap(), 0b1010);
        assert_eq!(r.read_bits(16).unwrap(), 0xFFFF);
        assert_eq!(r.read_bits(3).unwrap(), 0);
        assert_eq!(r.read_bits(32).unwrap(), 0x12345678);
    }

    #[test]
    fn lsb_first_layout() {
        let mut w = BitWriter::new();
        // Writing 1,0,1,1 as single bits should give 0b...1101 = 13.
        w.write_bits(1, 1);
        w.write_bits(0, 1);
        w.write_bits(1, 1);
        w.write_bits(1, 1);
        let bytes = w.finish();
        assert_eq!(bytes, vec![0b0000_1101]);
    }

    #[test]
    fn out_of_bits_detected() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3).unwrap(), 0b101);
        // Padding bits of the final byte are readable...
        assert!(r.read_bits(5).is_ok());
        // ...but past the final byte we must fail.
        assert_eq!(r.read_bits(1), Err(OutOfBits));
    }

    #[test]
    fn bit_len_counts_partial_bytes() {
        let mut w = BitWriter::new();
        w.write_bits(0, 9);
        assert_eq!(w.bit_len(), 9);
    }

    #[test]
    fn empty_reader() {
        let mut r = BitReader::new(&[]);
        assert_eq!(r.read_bits(0).unwrap(), 0);
        assert_eq!(r.read_bits(1), Err(OutOfBits));
    }

    #[test]
    fn peek_does_not_consume() {
        let mut w = BitWriter::new();
        w.write_bits(0xABCD, 16);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.peek_bits(8), 0xCD);
        assert_eq!(r.peek_bits(16), 0xABCD);
        r.consume(4).unwrap();
        assert_eq!(r.peek_bits(12), 0xABC);
        r.consume(12).unwrap();
        assert_eq!(r.consume(1), Err(OutOfBits));
    }

    #[test]
    fn peek_past_end_is_zero_padded() {
        let mut r = BitReader::new(&[0xFF]);
        assert_eq!(r.peek_bits(16), 0x00FF);
        assert!(r.consume(8).is_ok());
        assert_eq!(r.consume(1), Err(OutOfBits));
    }

    #[test]
    fn word_refill_matches_byte_refill_on_long_streams() {
        // Drive the reader across many refills with mixed widths; values
        // must reproduce the written sequence exactly.
        let mut w = BitWriter::new();
        let widths = [1u32, 3, 7, 8, 11, 13, 16, 24, 32, 5];
        let mut expect = Vec::new();
        let mut x = 0x9E3779B97F4A7C15u64;
        for round in 0..200 {
            let n = widths[round % widths.len()];
            x ^= x << 7;
            x ^= x >> 9;
            let mask = if n == 32 { u32::MAX } else { (1u32 << n) - 1 };
            let v = (x as u32) & mask;
            w.write_bits(v, n);
            expect.push((v, n));
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for (v, n) in expect {
            assert_eq!(r.read_bits(n).unwrap(), v);
        }
    }
}
