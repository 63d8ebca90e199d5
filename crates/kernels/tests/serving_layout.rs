//! The serving layout a packed matrix builds for `quant_gemm` is a cache:
//! it never changes what the matrix equals, and it is built once per
//! matrix however many batch runners serve it.

use dz_compress::calib::calibration_set;
use dz_compress::codec::{DeltaCodec, SparseGptCodec};
use dz_compress::pack::CompressedMatrix;
use dz_compress::pipeline::CompressedDelta;
use dz_compress::quant::QuantSpec;
use dz_compress::wire::{decode_matrix, encode_matrix, Reader};
use dz_kernels::decoupled::DecoupledBatch;
use dz_kernels::quant_gemm;
use dz_model::tasks::Corpus;
use dz_model::transformer::{test_config, Params};
use dz_tensor::{Matrix, Rng};
use std::sync::Arc;

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
        assert!(
            served.serving_layout_addr().is_some(),
            "the call built a layout"
        );
        assert!(unserved.serving_layout_addr().is_none());
        assert!(
            served.clone().serving_layout_addr().is_none(),
            "a clone starts unserved"
        );
        assert_eq!(served, unserved);
        assert_eq!(served, wire_round_trip(&served));
        // Equal matrices serve equal bits.
        assert_eq!(y, quant_gemm(&x, &wire_round_trip(&served)));
        assert_eq!(y, quant_gemm(&x, &unserved));
        // Scales are read at each call, not frozen into the layout.
        let mut served = served;
        for s in served.scales.iter_mut() {
            *s *= -2.0;
        }
        assert_eq!(quant_gemm(&x, &served), quant_gemm(&x, &served.clone()));
        assert_ne!(quant_gemm(&x, &served), y);
    }
}

/// One SparseGPT 4-bit delta of a seeded perturbation of `base`.
fn packed_delta(base: &Params) -> CompressedDelta {
    let mut rng = Rng::seeded(0xB1D);
    let mut tuned = base.clone();
    tuned.for_each_mut(|_, m| {
        for v in m.data_mut() {
            *v += 0.05 * rng.normal();
        }
    });
    let calib = calibration_set(&Corpus::new(base.config.max_seq), 4, 3);
    SparseGptCodec::starred(4).compress(base, &tuned, &calib).0
}

/// The layout address of every quantized layer, in layer order.
fn layout_addrs(delta: &CompressedDelta) -> Vec<Option<usize>> {
    delta
        .layers
        .values()
        .map(|l| l.as_quant().expect("quantized layer").serving_layout_addr())
        .collect()
}

#[test]
fn batch_runners_over_one_delta_share_one_layout() {
    let base = Params::init(test_config(), &mut Rng::seeded(0xba5e));
    let delta = Arc::new(packed_delta(&base));
    let mut runner = DecoupledBatch::new(&base, vec![delta.as_ref()]);
    assert!(
        layout_addrs(&delta).iter().all(Option::is_none),
        "building a runner builds no layout"
    );
    runner.admit(0, &[1, 2, 3]);
    runner.decode_step();
    let built = layout_addrs(&delta);
    assert!(
        built.iter().all(Option::is_some),
        "serving builds every layout"
    );
    let first = runner.generated(0).to_vec();
    drop(runner);

    let again = Arc::clone(&delta);
    let mut runner = DecoupledBatch::new(&base, vec![again.as_ref()]);
    assert_eq!(layout_addrs(&again), built);
    runner.admit(0, &[1, 2, 3]);
    runner.decode_step();
    assert_eq!(
        layout_addrs(&again),
        built,
        "a second runner rebuilt a layout"
    );
    assert_eq!(runner.generated(0), first);
}
