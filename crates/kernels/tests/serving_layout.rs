//! Serving a packed matrix through `quant_gemm` never changes what the
//! matrix equals: a served matrix equals an unserved clone and its wire
//! round trip, equal matrices serve equal bits, and scales are read at
//! each call.

use dz_compress::pack::CompressedMatrix;
use dz_compress::quant::QuantSpec;
use dz_compress::wire::{decode_matrix, encode_matrix, Reader};
use dz_kernels::quant_gemm;
use dz_tensor::{Matrix, Rng};

fn wire_round_trip(cm: &CompressedMatrix) -> CompressedMatrix {
    let mut bytes = Vec::new();
    encode_matrix(cm, &mut bytes);
    decode_matrix(&mut Reader::new(&bytes)).expect("round trip decodes")
}

#[test]
fn a_served_matrix_equals_its_wire_round_trip_and_an_unserved_clone() {
    let mut rng = Rng::seeded(0x5E7E);
    let (d_in, d_out) = (24, 13);
    let spec = QuantSpec::new(4, 8);
    let levels: Vec<i32> = (0..d_in * d_out)
        .map(|_| rng.below(15) as i32 - 7)
        .collect();
    let scales: Vec<f32> = (0..d_out * 3).map(|_| 0.01 + rng.uniform()).collect();
    let mask: Vec<bool> = (0..d_in * d_out)
        .map(|i| i % 4 == 1 || i % 4 == 2)
        .collect();
    let matrices = [
        CompressedMatrix::from_dense(d_out, d_in, &levels, scales.clone(), spec),
        CompressedMatrix::from_sparse24(d_out, d_in, &levels, &mask, scales, spec),
    ];
    for served in matrices {
        let unserved = served.clone();
        let x = Matrix::randn(3, d_in, 1.0, &mut rng);
        let y = quant_gemm(&x, &served);
        assert_eq!(served, unserved);
        assert_eq!(served, wire_round_trip(&served));
        // Equal matrices serve equal bits.
        assert_eq!(y, quant_gemm(&x, &wire_round_trip(&served)));
        assert_eq!(y, quant_gemm(&x, &unserved));
        // Scales are read at each call, not frozen by an earlier one.
        let mut served = served;
        for s in served.scales.iter_mut() {
            *s *= -2.0;
        }
        assert_eq!(quant_gemm(&x, &served), quant_gemm(&x, &served.clone()));
        assert_ne!(quant_gemm(&x, &served), y);
    }
}
