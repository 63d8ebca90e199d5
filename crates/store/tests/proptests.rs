//! Property-based store invariants: `write → read` is the identity for
//! dense and 2:4-sparse payloads, and corrupted or truncated containers
//! produce typed errors — never a panic, never silently wrong data.

use dz_compress::codec::{CodecId, LowRankMatrix, PackedLayer, SignMatrix, SignScope};
use dz_compress::pack::CompressedMatrix;
use dz_compress::pipeline::{CompressedDelta, DeltaCompressConfig, SizeReport};
use dz_compress::quant::{quantize_slice, QuantSpec};
use dz_store::dza::{write_delta, ArtifactReader};
use dz_store::sha256;
use dz_tensor::{Matrix, Rng};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::io::Cursor;

fn dense_matrix(d_out: usize, d_in: usize, bits: u32, seed: u64) -> CompressedMatrix {
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

fn sparse_matrix(d_out: usize, d_in: usize, bits: u32, seed: u64) -> CompressedMatrix {
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
    let scales = vec![0.05f32; d_out * d_in.div_ceil(8)];
    CompressedMatrix::from_sparse24(d_out, d_in, &levels, &mask, scales, spec)
}

fn arb_delta(
    seed: u64,
    blocks: usize,
    d_out: usize,
    bits: u32,
    rest_dim: usize,
) -> CompressedDelta {
    let d_in = blocks * 8;
    let mut layers = BTreeMap::new();
    layers.insert(
        "dense".to_string(),
        PackedLayer::Quant(dense_matrix(d_out, d_in, bits, seed)),
    );
    layers.insert(
        "sparse".to_string(),
        PackedLayer::Quant(sparse_matrix(d_out, d_in, bits, seed ^ 0xABC)),
    );
    // Method-zoo layers ride in the same container: a BitDelta sign/scale
    // layer and a Delta-CoMe mixed-precision low-rank layer.
    let mut rng = Rng::seeded(seed ^ 0xDEF);
    let raw = Matrix::randn(d_in, d_out, 0.01, &mut rng);
    layers.insert(
        "sign".to_string(),
        PackedLayer::Sign(SignMatrix::from_delta(&raw, SignScope::PerRow)),
    );
    layers.insert(
        "lowrank".to_string(),
        PackedLayer::LowRank(LowRankMatrix::from_delta(&raw, &[(8, 1), (2, 2)])),
    );
    let mut rest = BTreeMap::new();
    rest.insert(
        "emb".to_string(),
        Matrix::randn(rest_dim, d_out, 1.0, &mut rng),
    );
    // Quantized records barely shrink and are stored raw; an all-zero
    // matrix keeps an entropy-coded page in every container.
    rest.insert("zeros".to_string(), Matrix::zeros(16, 16));
    let compressed: usize = layers.values().map(|c| c.packed_bytes()).sum();
    // Sweep the manifest codec id too: `.dza` round-trips must preserve it.
    let codec = match seed % 3 {
        0 => CodecId::SparseGptStar,
        1 => CodecId::BitDelta,
        _ => CodecId::DeltaCome,
    };
    CompressedDelta {
        layers,
        rest,
        codec,
        config: DeltaCompressConfig::starred(bits),
        report: SizeReport {
            compressed_linear_bytes: compressed,
            uncompressed_rest_bytes: rest_dim * d_out * 2,
            full_fp16_bytes: 4 * d_in * d_out,
            lossless_linear_bytes: None,
        },
    }
}

fn container(delta: &CompressedDelta) -> Vec<u8> {
    write_delta(Cursor::new(Vec::new()), "prop", sha256(b"base"), delta)
        .expect("write")
        .into_inner()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn write_read_is_identity(
        seed in any::<u64>(),
        blocks in 1usize..5,
        d_out in 1usize..12,
        bits in 2u32..5,
        rest_dim in 1usize..8,
    ) {
        let delta = arb_delta(seed, blocks, d_out, bits, rest_dim);
        let bytes = container(&delta);
        let mut reader = ArtifactReader::open(Cursor::new(&bytes)).expect("open");
        let zeros = reader.manifest().entry("zeros").expect("zeros").clone();
        prop_assert!(zeros.comp_len < zeros.raw_len, "zero page stored");
        let back = reader.read_delta().expect("read");
        prop_assert_eq!(back, delta);
    }

    #[test]
    fn truncation_is_a_typed_error_never_a_panic(
        seed in any::<u64>(),
        cut_frac in 0.0f64..1.0,
    ) {
        let delta = arb_delta(seed, 2, 6, 4, 4);
        let bytes = container(&delta);
        let cut = ((bytes.len() - 1) as f64 * cut_frac) as usize;
        // Either opening fails, or reading any tensor fails; both must be
        // typed errors. A truncated container can never round-trip.
        if let Ok(mut reader) = ArtifactReader::open(Cursor::new(&bytes[..cut])) { prop_assert!(reader.read_delta().is_err()) }
    }

    #[test]
    fn byte_flips_never_yield_silent_corruption(
        seed in any::<u64>(),
        pos in any::<proptest::sample::Index>(),
        flip in 1u8..=255,
    ) {
        let delta = arb_delta(seed, 2, 6, 4, 4);
        let bytes = container(&delta);
        let mut corrupted = bytes.clone();
        let i = pos.index(corrupted.len());
        corrupted[i] ^= flip;
        // The decoder must either reject the container or still produce
        // exactly the original delta (e.g. a flip in dead padding).
        if let Ok(mut reader) = ArtifactReader::open(Cursor::new(&corrupted)) { if let Ok(back) = reader.read_delta() { prop_assert_eq!(back, delta) } }
    }
}
