//! A from-scratch lossless codec standing in for nvcomp's GDeflate.
//!
//! DeltaZip's compression pipeline has an optional Step 4: lossless
//! compression of the packed delta so that disk- or NFS-bound deployments
//! trade decompression compute for I/O. The paper uses GDeflate, whose
//! defining property (vs. plain DEFLATE) is that the stream is split into
//! independently decodable pages so a GPU can decompress them in parallel.
//!
//! This crate reproduces that design in safe Rust:
//!
//! * [`lz77`] — greedy hash-chain LZ77 matcher (window 32 KiB, matches
//!   3..=258 bytes, DEFLATE-compatible limits),
//! * [`huffman`] — length-limited canonical Huffman codes built with the
//!   package-merge algorithm,
//! * [`bitio`] — LSB-first bit reader/writer,
//! * [`page`] — the paged container: each page compresses independently and
//!   records its compressed size and carries its own Huffman tables, as
//!   GDeflate's pages do so a GPU can decode them in parallel.
//!
//! The container format is custom (simpler than RFC 1951 — code lengths are
//! stored verbatim rather than RLE-encoded) but the algorithmic content is
//! the same, so compression ratios land in the same regime.
//!
//! Decoding is built for throughput: a word-filling bit reader
//! (`peek`/`consume`, no per-bit branching), a two-level lookup-table
//! Huffman decoder ([`huffman::LutDecoder`]; single probe for codes up to
//! [`huffman::LUT_BITS`] bits), and slicing-by-16 CRC32. [`decompress`]
//! decodes the pages one after another on the calling thread. The original
//! tree-walk path is retained as [`decompress_reference`] and
//! property-tested against the fast path.
//!
//! # Examples
//!
//! ```
//! let data = b"abcabcabcabc-the quick brown fox-abcabcabc".repeat(20);
//! let compressed = dz_lossless::compress(&data);
//! assert!(compressed.len() < data.len());
//! let restored = dz_lossless::decompress(&compressed).unwrap();
//! assert_eq!(restored, data);
//! ```

pub mod bitio;
pub mod crc;
pub mod huffman;
pub mod lz77;
pub mod page;

pub use page::{
    compress, compress_with_page_size, declared_len_and_crc, decompress, decompress_reference,
    CodecError, DEFAULT_PAGE_SIZE,
};
