//! Property-based tests: the codec must be the identity on arbitrary bytes,
//! and the fast decode pipeline (LUT Huffman, word-filling bit reader) must be
//! indistinguishable from the retained serial reference path.

use dz_lossless::bitio::{BitReader, BitWriter};
use dz_lossless::huffman::{code_lengths, Decoder, Encoder, LutDecoder, MAX_CODE_LEN};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn round_trip_arbitrary_bytes(data in proptest::collection::vec(any::<u8>(), 0..20_000)) {
        let c = dz_lossless::compress(&data);
        let d = dz_lossless::decompress(&c).unwrap();
        prop_assert_eq!(d, data);
    }

    #[test]
    fn round_trip_small_pages(data in proptest::collection::vec(any::<u8>(), 0..4_000), page in 1usize..512) {
        let c = dz_lossless::compress_with_page_size(&data, page);
        let d = dz_lossless::decompress(&c).unwrap();
        prop_assert_eq!(d, data);
    }

    #[test]
    fn round_trip_structured_bytes(seed in any::<u64>(), n in 0usize..30_000) {
        // Runs and repeats: the kind of data packed deltas produce.
        let mut x = seed | 1;
        let mut data = Vec::with_capacity(n);
        while data.len() < n {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let b = (x & 0x0F) as u8;
            let run = ((x >> 8) & 0x3F) as usize + 1;
            for _ in 0..run.min(n - data.len()) {
                data.push(b);
            }
        }
        let c = dz_lossless::compress(&data);
        let d = dz_lossless::decompress(&c).unwrap();
        prop_assert_eq!(d, data);
    }

    #[test]
    fn truncation_never_panics(data in proptest::collection::vec(any::<u8>(), 0..2_000), cut in 0usize..2_000) {
        let c = dz_lossless::compress(&data);
        let cut = cut.min(c.len());
        // Must return an error or (for cut == len) the original data; never panic.
        if let Ok(d) = dz_lossless::decompress(&c[..cut]) { prop_assert_eq!(d, data) }
    }

    #[test]
    fn garbage_input_never_panics(data in proptest::collection::vec(any::<u8>(), 0..1_000)) {
        let _ = dz_lossless::decompress(&data);
    }

    #[test]
    fn fast_decode_is_byte_identical_to_reference(
        data in proptest::collection::vec(any::<u8>(), 0..60_000),
        page in 1usize..2_048,
    ) {
        // The fast path (LUT decoder) and the retained tree-walk reference
        // must agree byte for byte.
        let c = dz_lossless::compress_with_page_size(&data, page);
        let fast = dz_lossless::decompress(&c).unwrap();
        let slow = dz_lossless::decompress_reference(&c).unwrap();
        prop_assert_eq!(&fast, &slow);
        prop_assert_eq!(fast, data);
    }

    #[test]
    fn corrupted_streams_never_diverge_between_fast_and_reference(
        data in proptest::collection::vec(any::<u8>(), 1..8_000),
        pos in any::<proptest::sample::Index>(),
        flip in 1u8..=255,
        cut in any::<proptest::sample::Index>(),
    ) {
        // Bit flips and truncation: both paths must accept (returning the
        // exact original) or both must reject — never panic, never differ.
        let c = dz_lossless::compress(&data);
        let mut corrupted = c.clone();
        let i = pos.index(corrupted.len());
        corrupted[i] ^= flip;
        corrupted.truncate(cut.index(corrupted.len() + 1));
        let fast = dz_lossless::decompress(&corrupted);
        let slow = dz_lossless::decompress_reference(&corrupted);
        match (fast, slow) {
            (Ok(f), Ok(s)) => {
                prop_assert_eq!(&f, &data);
                prop_assert_eq!(&s, &data);
            }
            (Err(_), Err(_)) => {}
            (f, s) => prop_assert!(false, "fast {f:?} vs reference {s:?}"),
        }
    }

    #[test]
    fn lut_decoder_agrees_with_tree_walk_on_valid_codes(
        freqs in proptest::collection::vec(0u64..1_000, 2..300),
        message in proptest::collection::vec(any::<proptest::sample::Index>(), 0..400),
    ) {
        // Arbitrary frequency sets induce arbitrary valid length-limited
        // code sets; both decoders must reproduce the encoded stream.
        let lens = code_lengths(&freqs, MAX_CODE_LEN);
        let coded: Vec<usize> = (0..freqs.len()).filter(|&s| lens[s] > 0).collect();
        if coded.is_empty() {
            return Ok(());
        }
        let enc = Encoder::from_lengths(&lens);
        let tree = Decoder::from_lengths(&lens);
        let lut = LutDecoder::from_lengths(&lens);
        let mut w = BitWriter::new();
        let message: Vec<usize> = message.iter().map(|ix| coded[ix.index(coded.len())]).collect();
        for &s in &message {
            enc.encode(&mut w, s);
        }
        let bytes = w.finish();
        let mut ra = BitReader::new(&bytes);
        let mut rb = BitReader::new(&bytes);
        for &s in &message {
            prop_assert_eq!(tree.decode(&mut ra).unwrap(), s as u32);
            prop_assert_eq!(lut.decode(&mut rb).unwrap(), s as u32);
        }
    }

    #[test]
    fn lut_decoder_matches_tree_walk_on_mangled_streams(
        freqs in proptest::collection::vec(0u64..100, 2..80),
        garbage in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        // On arbitrary (possibly truncated mid-code, possibly invalid)
        // streams the decoders must emit the same symbols and then both
        // error; neither may panic.
        let lens = code_lengths(&freqs, MAX_CODE_LEN);
        let tree = Decoder::from_lengths(&lens);
        let lut = LutDecoder::from_lengths(&lens);
        let mut ra = BitReader::new(&garbage);
        let mut rb = BitReader::new(&garbage);
        for _ in 0..(garbage.len() * 8 + 2) {
            match (tree.decode(&mut ra), lut.decode(&mut rb)) {
                (Ok(sa), Ok(sb)) => prop_assert_eq!(sa, sb),
                (Err(_), Err(_)) => break,
                (a, b) => prop_assert!(false, "tree-walk {a:?} vs lut {b:?}"),
            }
        }
    }

    #[test]
    fn single_byte_corruption_is_never_silent(
        data in proptest::collection::vec(any::<u8>(), 1..2_000),
        pos in any::<proptest::sample::Index>(),
        flip in 1u8..=255,
    ) {
        // Failure injection: flip one byte anywhere in the stream. The
        // decoder must either error out or still return the exact original
        // (it must never hand back silently corrupted weights).
        let c = dz_lossless::compress(&data);
        let mut corrupted = c.clone();
        let i = pos.index(corrupted.len());
        corrupted[i] ^= flip;
        if let Ok(d) = dz_lossless::decompress(&corrupted) { prop_assert_eq!(d, data) }
    }
}
