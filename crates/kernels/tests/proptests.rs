//! Property-based tests: the packed kernels must agree with dense
//! references for arbitrary shapes, formats, and batch assignments.

use dz_compress::obs::{compress_matrix, ObsConfig};
use dz_compress::pack::CompressedMatrix;
use dz_compress::quant::QuantSpec;
use dz_kernels::{quant_gemm, sbmm_grouped, sbmm_naive};
use dz_tensor::{Matrix, Rng};
use proptest::prelude::*;

fn packed(seed: u64, d_in: usize, d_out: usize, bits: u32, sparse: bool) -> CompressedMatrix {
    packed_grouped(seed, d_in, d_out, QuantSpec::new(bits, 8), sparse)
}

fn packed_grouped(
    seed: u64,
    d_in: usize,
    d_out: usize,
    spec: QuantSpec,
    sparse: bool,
) -> CompressedMatrix {
    let mut rng = Rng::seeded(seed);
    let w = Matrix::randn(d_in, d_out, 0.03, &mut rng);
    let cfg = ObsConfig {
        spec,
        sparse24: sparse,
        damp: 0.05,
    };
    compress_matrix(&w, &Matrix::identity(d_in), &cfg).packed
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `d_out` crosses row blocks of 8 with a partial last one, the batch
    /// crosses every tile shape and lane chunks of 8, and `d_in` need not
    /// be a multiple of the scale group.
    #[test]
    fn quant_gemm_matches_dense_reference(
        seed in any::<u64>(),
        quads in 1usize..12,
        d_out in 1usize..28,
        batch in 1usize..20,
        bits in 2u32..=8,
        group in 1usize..5,
        sparse in any::<bool>(),
    ) {
        let d_in = quads * 4;
        let spec = QuantSpec::new(bits, group * 4);
        let cm = packed_grouped(seed, d_in, d_out, spec, sparse);
        let x = Matrix::randn(batch, d_in, 1.0, &mut Rng::seeded(seed ^ 1));
        let fused = quant_gemm(&x, &cm);
        let dense = x.matmul(&cm.dequantize());
        prop_assert!(fused.max_abs_diff(&dense) < 1e-3,
            "diff {}", fused.max_abs_diff(&dense));
    }

    #[test]
    fn sbmm_grouped_equals_naive_for_any_assignment(
        seed in any::<u64>(),
        n_deltas in 1usize..6,
        assignment in proptest::collection::vec(0usize..6, 1..24),
    ) {
        let assignment: Vec<usize> = assignment.into_iter().map(|a| a % n_deltas).collect();
        let deltas: Vec<CompressedMatrix> = (0..n_deltas)
            .map(|i| packed(seed ^ i as u64, 16, 8, 4, true))
            .collect();
        let refs: Vec<&CompressedMatrix> = deltas.iter().collect();
        let x = Matrix::randn(assignment.len(), 16, 1.0, &mut Rng::seeded(seed ^ 99));
        prop_assert_eq!(
            sbmm_naive(&x, &assignment, &refs),
            sbmm_grouped(&x, &assignment, &refs)
        );
    }
}
