//! Property-based invariants of the delta-compression method zoo:
//!
//! * encode → decode is the identity for every packed-layer format, and
//!   decode of the round-tripped layer reconstructs the same tensor,
//! * reconstruction error obeys the codec's analytic bound (BitDelta) and
//!   is monotone non-increasing in the bit budget (Delta-CoMe bands),
//! * truncated or bit-flipped layer records return typed errors
//!   or the exact original — never a panic, never silent corruption.

use dz_compress::codec::{LowRankMatrix, PackedLayer, SignMatrix, SignScope};
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
        kind in 0u8..2,
        cut_frac in 0.0f64..1.0,
    ) {
        let layer = match kind {
            0 => PackedLayer::Sign(sign_layer(d_in, d_out, seed, seed.is_multiple_of(2))),
            _ => PackedLayer::LowRank(lowrank_layer(d_in, d_out, seed)),
        };
        let bytes = layer_to_bytes(&layer);
        let cut = ((bytes.len() - 1) as f64 * cut_frac) as usize;
        prop_assert!(layer_from_bytes(&bytes[..cut]).is_err());
    }

    #[test]
    fn layer_byte_flips_never_panic_or_silently_corrupt_structure(
        d_in in 1usize..24,
        d_out in 1usize..16,
        seed in any::<u64>(),
        kind in 0u8..2,
        pos in any::<proptest::sample::Index>(),
        flip in 1u8..=255,
    ) {
        let layer = match kind {
            0 => PackedLayer::Sign(sign_layer(d_in, d_out, seed, seed.is_multiple_of(2))),
            _ => PackedLayer::LowRank(lowrank_layer(d_in, d_out, seed)),
        };
        let bytes = layer_to_bytes(&layer);
        let mut corrupted = bytes.clone();
        let i = pos.index(corrupted.len());
        corrupted[i] ^= flip;
        // Structural fields (tags, dims, lengths) must produce typed
        // errors; flips in payload bits may decode to a *different* valid
        // layer of the same shape (the .dza CRC layer catches those), but
        // never panic.
        if let Ok(back) = layer_from_bytes(&corrupted) {
            prop_assert_eq!(back.d_in(), layer.d_in());
            prop_assert_eq!(back.d_out(), layer.d_out());
        }
    }
}
