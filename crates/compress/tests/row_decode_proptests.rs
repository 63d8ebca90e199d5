//! `CompressedMatrix::decode_block` against the per-element spec.
//!
//! Every decoded weight must carry exactly the bits of `level_at × scale_at`
//! (`0.0` for a zero level), and for the 2:4 format the decoded positions
//! must name the kept columns: distinct within each pair, with every other
//! column reading level zero. Lanes past `d_out` must be zero. Shapes
//! cover bits 2..=8, both formats, group sizes that leave a ragged last
//! group, and `d_out` that ends on a partial row block.

use dz_compress::pack::{BlockScratch, CompressedMatrix, MatrixFormat, BLOCK_ROWS};
use dz_compress::quant::QuantSpec;
use dz_tensor::Rng;
use proptest::prelude::*;

/// Group sizes tried per format; most leave `d_in` ragged. 2:4 scale
/// groups must hold whole 4-column groups.
const DENSE_GROUPS: [usize; 7] = [1, 3, 5, 6, 8, 12, 128];
const SPARSE_GROUPS: [usize; 5] = [4, 8, 12, 20, 128];

fn random_matrix(
    seed: u64,
    bits: u32,
    sparse: bool,
    group_size: usize,
    d_in: usize,
    d_out: usize,
) -> CompressedMatrix {
    let mut rng = Rng::seeded(seed);
    let spec = QuantSpec::new(bits, group_size);
    let qmax = spec.qmax();
    let levels: Vec<i32> = (0..d_out * d_in)
        .map(|_| rng.below((2 * qmax + 1) as usize) as i32 - qmax)
        .collect();
    // Signed scales, so a sign slip in the table would show.
    let scales: Vec<f32> = (0..d_out * d_in.div_ceil(group_size))
        .map(|_| rng.uniform() * 0.2 - 0.1)
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

/// The per-element spec of one weight.
fn spec_weight(cm: &CompressedMatrix, r: usize, c: usize) -> f32 {
    match cm.level_at(r, c) {
        0 => 0.0,
        q => q as f32 * cm.scale_at(r, c),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn decode_block_matches_level_at_times_scale_at(
        seed in any::<u64>(),
        bits in 2u32..9,
        sparse in any::<bool>(),
        group_pick in 0usize..7,
        groups4 in 1usize..14,
        d_out in 1usize..20,
    ) {
        let d_in = groups4 * 4;
        let group_size = if sparse {
            SPARSE_GROUPS[group_pick % SPARSE_GROUPS.len()]
        } else {
            DENSE_GROUPS[group_pick]
        };
        let cm = random_matrix(seed, bits, sparse, group_size, d_in, d_out);
        // One scratch across blocks, as the kernels use it.
        let mut blk = BlockScratch::default();
        for block in 0..d_out.div_ceil(BLOCK_ROWS) {
            cm.decode_block(block, &mut blk);
            for j in 0..BLOCK_ROWS {
                let r = block * BLOCK_ROWS + j;
                if r >= d_out {
                    prop_assert!(blk.weights.iter().all(|w| w[j] == 0.0), "padding lane {}", j);
                    continue;
                }
                match cm.format {
                    MatrixFormat::QuantDense => {
                        prop_assert_eq!(blk.weights.len(), d_in);
                        prop_assert!(blk.positions.is_empty());
                        for (c, w) in blk.weights.iter().enumerate() {
                            prop_assert_eq!(w[j].to_bits(), spec_weight(&cm, r, c).to_bits(),
                                "dense r={} c={}", r, c);
                        }
                    }
                    MatrixFormat::QuantSparse24 => {
                        prop_assert_eq!(blk.weights.len(), d_in / 2);
                        prop_assert_eq!(blk.positions.len(), d_in / 4);
                        let mut kept = vec![false; d_in];
                        for (k, w) in blk.weights.iter().enumerate() {
                            let p = (blk.positions[k / 2] >> (4 * j + 2 * (k % 2))) & 0b11;
                            let c = (k / 2) * 4 + p as usize;
                            prop_assert!(!kept[c], "r={} c={} decoded twice", r, c);
                            kept[c] = true;
                            prop_assert_eq!(w[j].to_bits(), spec_weight(&cm, r, c).to_bits(),
                                "sparse r={} c={}", r, c);
                        }
                        for (c, &k) in kept.iter().enumerate() {
                            if !k {
                                prop_assert_eq!(cm.level_at(r, c), 0, "pruned r={} c={}", r, c);
                            }
                        }
                    }
                }
            }
        }
        // dequantize reads through decode_block, zero_level_fraction
        // through the level words; check them against the spec too.
        let deq = cm.dequantize();
        let mut zeros = 0usize;
        for r in 0..d_out {
            for c in 0..d_in {
                prop_assert_eq!(deq.get(c, r).to_bits(), spec_weight(&cm, r, c).to_bits());
                zeros += usize::from(cm.level_at(r, c) == 0);
            }
        }
        prop_assert_eq!(cm.zero_level_fraction(), zeros as f64 / (d_in * d_out) as f64);
    }
}

#[test]
#[should_panic(expected = "2:4 needs group_size divisible by 4")]
fn sparse24_rejects_group_size_not_divisible_by_4() {
    let _ = random_matrix(1, 4, true, 6, 12, 2);
}
