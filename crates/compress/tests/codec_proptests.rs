//! Property-based invariants of the delta-compression method zoo:
//!
//! * encode → decode is the identity for every packed-layer format, and
//!   decode of the round-tripped layer reconstructs the same tensor,
//! * reconstruction error obeys the codec's analytic bound (BitDelta) and
//!   is monotone non-increasing in the bit budget (Delta-CoMe bands),
//! * truncated, bit-flipped, spliced or length-inflated layer records
//!   return typed errors or a layer of the original shape — never a panic,
//!   never silent corruption of the structure.

use dz_compress::codec::{LowRankMatrix, PackedLayer, SignMatrix, SignScope};
use dz_compress::pack::CompressedMatrix;
use dz_compress::quant::QuantSpec;
use dz_compress::wire::{layer_from_bytes, layer_to_bytes};
use dz_tensor::{Matrix, Rng};
use proptest::prelude::*;

/// A seeded delta in `(d_in, d_out)` weight orientation.
fn delta_matrix(d_in: usize, d_out: usize, seed: u64, scale: f32) -> Matrix {
    let mut rng = Rng::seeded(seed);
    Matrix::randn(d_in, d_out, scale, &mut rng)
}

fn sign_layer(d_in: usize, d_out: usize, seed: u64, per_row: bool) -> SignMatrix {
    let scope = if per_row {
        SignScope::PerRow
    } else {
        SignScope::PerMatrix
    };
    SignMatrix::from_delta(&delta_matrix(d_in, d_out, seed, 0.01), scope)
}

fn lowrank_layer(d_in: usize, d_out: usize, seed: u64) -> LowRankMatrix {
    LowRankMatrix::from_delta(&delta_matrix(d_in, d_out, seed, 0.01), &[(8, 2), (2, 4)])
}

/// A seeded standalone quantized layer, dense or 2:4 (whose `d_in` is
/// rounded up to whole 4-column groups), with `bits` in `2..=8`.
fn quant_layer(d_in: usize, d_out: usize, seed: u64, sparse: bool) -> CompressedMatrix {
    let mut rng = Rng::seeded(seed);
    let spec = QuantSpec::new(2 + (seed % 7) as u32, 4 * (1 + (seed >> 8) as usize % 3));
    let d_in = if sparse { d_in.div_ceil(4) * 4 } else { d_in };
    let qmax = spec.qmax();
    let levels: Vec<i32> = (0..d_out * d_in)
        .map(|_| rng.below((2 * qmax + 1) as usize) as i32 - qmax)
        .collect();
    let scales: Vec<f32> = (0..d_out * d_in.div_ceil(spec.group_size))
        .map(|_| 0.01 + rng.uniform())
        .collect();
    if sparse {
        let mut mask = vec![false; d_out * d_in];
        for g in mask.chunks_mut(4) {
            let first = rng.below(4);
            g[first] = true;
            g[(first + 1 + rng.below(3)) % 4] = true;
        }
        CompressedMatrix::from_sparse24(d_out, d_in, &levels, &mask, scales, spec)
    } else {
        CompressedMatrix::from_dense(d_out, d_in, &levels, scales, spec)
    }
}

/// Layer `kind`: 0 sign, 1 low-rank, 2 dense quantized, 3 2:4 quantized.
fn any_layer(kind: u8, d_in: usize, d_out: usize, seed: u64) -> PackedLayer {
    match kind {
        0 => PackedLayer::Sign(sign_layer(d_in, d_out, seed, seed.is_multiple_of(2))),
        1 => PackedLayer::LowRank(lowrank_layer(d_in, d_out, seed)),
        k => PackedLayer::Quant(quant_layer(d_in, d_out, seed, k == 3)),
    }
}

/// `(offset, width)` of length fields in a layer's record: the first
/// length after the header, and the scale count that opens the last
/// section (low-rank: the band count and its first factor's first length).
fn length_fields(layer: &PackedLayer, len: usize) -> [(usize, usize); 2] {
    match layer {
        PackedLayer::Quant(cm) => [(29, 8), (len - 4 * cm.scales.len() - 8, 8)],
        PackedLayer::Sign(sm) => [(18, 8), (len - 4 * sm.scales.len() - 8, 8)],
        PackedLayer::LowRank(lr) if lr.bands.is_empty() => [(17, 2), (17, 2)],
        PackedLayer::LowRank(_) => [(17, 2), (19 + 29, 8)],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sign_layer_round_trips_and_reconstructs_identically(
        d_in in 1usize..40,
        d_out in 1usize..24,
        seed in any::<u64>(),
        per_row in any::<bool>(),
    ) {
        let sm = sign_layer(d_in, d_out, seed, per_row);
        let layer = PackedLayer::Sign(sm.clone());
        let back = layer_from_bytes(&layer_to_bytes(&layer)).expect("round trip");
        prop_assert_eq!(&back, &layer);
        // Identity at the bytes level implies identity at the tensor
        // level: the decoded layer reconstructs the same matrix.
        prop_assert_eq!(back.dequantize(), sm.dequantize());
    }

    #[test]
    fn sign_dequantize_is_scale_times_sign_bit_for_bit(
        d_in in 1usize..40,
        d_out in 1usize..24,
        seed in any::<u64>(),
        per_row in any::<bool>(),
    ) {
        let sm = sign_layer(d_in, d_out, seed, per_row);
        let rec = sm.dequantize();
        for r in 0..d_out {
            for c in 0..d_in {
                let want = sm.scale_of_row(r) * sm.sign_at(r, c);
                prop_assert_eq!(rec.get(c, r).to_bits(), want.to_bits());
            }
        }
    }

    #[test]
    fn sign_error_is_within_the_analytic_bound(
        d_in in 1usize..40,
        d_out in 1usize..24,
        seed in any::<u64>(),
        per_row in any::<bool>(),
    ) {
        let delta = delta_matrix(d_in, d_out, seed, 0.01);
        let scope = if per_row { SignScope::PerRow } else { SignScope::PerMatrix };
        let sm = SignMatrix::from_delta(&delta, scope);
        let rec = sm.dequantize();
        // Per element: |w - a*sign(w)| = ||w| - a| <= max(|w|, a).
        for r in 0..d_out {
            let a = sm.scale_of_row(r);
            for c in 0..d_in {
                let w = delta.get(c, r);
                let err = (w - rec.get(c, r)).abs();
                prop_assert!(err <= w.abs().max(a) + 1e-6, "err {err} w {w} a {a}");
            }
        }
        // Globally: the scale is the L2 minimizer, and a=0 recovers the
        // raw energy, so reconstruction error never exceeds it.
        let err = delta.sub(&rec).frob_norm();
        prop_assert!(err <= delta.frob_norm() + 1e-5);
    }

    #[test]
    fn lowrank_layer_round_trips_and_reconstructs_identically(
        d_in in 1usize..32,
        d_out in 1usize..20,
        seed in any::<u64>(),
    ) {
        let lr = lowrank_layer(d_in, d_out, seed);
        let layer = PackedLayer::LowRank(lr.clone());
        let back = layer_from_bytes(&layer_to_bytes(&layer)).expect("round trip");
        prop_assert_eq!(&back, &layer);
        prop_assert_eq!(back.dequantize(), lr.dequantize());
    }

    #[test]
    fn lowrank_error_monotone_in_band_budget(
        d_in in 2usize..28,
        d_out in 2usize..20,
        seed in any::<u64>(),
    ) {
        // Nested band budgets: each prefix of the list is a smaller
        // budget; the fitted residual must never grow.
        let delta = delta_matrix(d_in, d_out, seed, 0.01);
        let bands = [(8u32, 1usize), (3, 2), (2, 4), (2, 8)];
        let mut prev = f32::MAX;
        for take in 1..=bands.len() {
            let lr = LowRankMatrix::from_delta(&delta, &bands[..take]);
            let err = delta.sub(&lr.dequantize()).frob_norm();
            prop_assert!(err <= prev + 1e-5, "budget {take}: {err} > {prev}");
            prev = err;
        }
    }

    #[test]
    fn layer_truncation_never_panics_or_corrupts(
        d_in in 1usize..24,
        d_out in 1usize..16,
        seed in any::<u64>(),
        kind in 0u8..4,
        cut_frac in 0.0f64..1.0,
    ) {
        let layer = any_layer(kind, d_in, d_out, seed);
        let bytes = layer_to_bytes(&layer);
        let cut = ((bytes.len() - 1) as f64 * cut_frac) as usize;
        prop_assert!(layer_from_bytes(&bytes[..cut]).is_err());
    }

    #[test]
    fn layer_byte_flips_never_panic_or_silently_corrupt_structure(
        d_in in 1usize..24,
        d_out in 1usize..16,
        seed in any::<u64>(),
        kind in 0u8..4,
        pos in any::<proptest::sample::Index>(),
        flip in 1u8..=255,
    ) {
        let layer = any_layer(kind, d_in, d_out, seed);
        let bytes = layer_to_bytes(&layer);
        let mut corrupted = bytes.clone();
        let i = pos.index(corrupted.len());
        corrupted[i] ^= flip;
        // Structural fields (tags, dims, lengths) must produce typed
        // errors; flips in payload bits may decode to a *different* valid
        // layer of the same shape (the .dza checksums catch those), but
        // never panic.
        if let Ok(back) = layer_from_bytes(&corrupted) {
            prop_assert_eq!(back.d_in(), layer.d_in());
            prop_assert_eq!(back.d_out(), layer.d_out());
        }
    }

    #[test]
    fn spliced_layer_records_never_panic_or_change_shape(
        d_in in 1usize..24,
        d_out in 1usize..16,
        seed in any::<u64>(),
        kinds in (0u8..4, 0u8..4),
        cuts in (any::<proptest::sample::Index>(), any::<proptest::sample::Index>()),
    ) {
        // The head of one record joined to the tail of another, e.g. a
        // page spliced from two artifacts: a typed error, or a layer with
        // the shape of one of the two.
        let a = any_layer(kinds.0, d_in, d_out, seed);
        let b = any_layer(kinds.1, d_out + 1, d_in + 2, seed ^ 0x5EED);
        let (ra, rb) = (layer_to_bytes(&a), layer_to_bytes(&b));
        let mut spliced = ra[..cuts.0.index(ra.len() + 1)].to_vec();
        spliced.extend_from_slice(&rb[cuts.1.index(rb.len() + 1)..]);
        if let Ok(back) = layer_from_bytes(&spliced) {
            let shape = (back.d_in(), back.d_out());
            prop_assert!(
                shape == (a.d_in(), a.d_out()) || shape == (b.d_in(), b.d_out()),
                "spliced record decoded to shape {:?}", shape
            );
        }
    }

    #[test]
    fn inflated_length_fields_are_typed_errors(
        d_in in 1usize..24,
        d_out in 1usize..16,
        seed in any::<u64>(),
        kind in 0u8..4,
        field in 0usize..2,
        by in prop_oneof![Just(1u64), Just(8), Just(0x7FFF), Just((1 << 40) + 3)],
    ) {
        let layer = any_layer(kind, d_in, d_out, seed);
        let mut bytes = layer_to_bytes(&layer);
        let (at, width) = length_fields(&layer, bytes.len())[field];
        let mut word = [0u8; 8];
        word[..width].copy_from_slice(&bytes[at..at + width]);
        let inflated = u64::from_le_bytes(word).wrapping_add(by).to_le_bytes();
        bytes[at..at + width].copy_from_slice(&inflated[..width]);
        prop_assert!(layer_from_bytes(&bytes).is_err());
    }
}
