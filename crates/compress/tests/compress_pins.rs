//! Golden pins over what each calibrated compressor produces.
//!
//! Each pin is an FNV-1a checksum at `test_config()` over a seeded base,
//! a seeded perturbation of it and a four-sequence calibration set. It
//! folds, in order: every packed layer's `to_bytes()`, the f32 bits of
//! the returned parameters, and the `SizeReport` fields. The compressors
//! share the layer-by-layer calibration walk and the OBS solver, so a
//! change to either that is not bit-for-bit neutral moves these pins.
//!
//! If a change alters compression numerics *on purpose*, re-pin
//! deliberately from the `got` value the failing assertion prints.

use dz_compress::baselines::{awq_quantize, sparsegpt_direct, CompressedModel};
use dz_compress::calib::calibration_set;
use dz_compress::pipeline::{delta_compress, delta_compress_no_reconstruct};
use dz_compress::{CompressedDelta, DeltaCompressConfig, SizeReport};
use dz_model::tasks::Corpus;
use dz_model::transformer::{test_config, Params};
use dz_tensor::{Matrix, Rng};

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, v: usize) {
        self.bytes(&(v as u64).to_le_bytes());
    }

    fn params(&mut self, p: &Params) {
        for m in p.tensors() {
            for v in m.data() {
                self.bytes(&v.to_bits().to_le_bytes());
            }
        }
    }

    fn report(&mut self, r: &SizeReport) {
        self.word(r.compressed_linear_bytes);
        self.word(r.uncompressed_rest_bytes);
        self.word(r.full_fp16_bytes);
        self.word(r.lossless_linear_bytes.unwrap_or(usize::MAX));
    }
}

/// A seeded base, a seeded perturbation of every tensor, and a calibration
/// set of four sequences.
fn setup() -> (Params, Params, Vec<Vec<usize>>) {
    let cfg = test_config();
    let base = Params::init(cfg, &mut Rng::seeded(21));
    let mut tuned = base.clone();
    let mut rng = Rng::seeded(22);
    for m in tuned.tensors_mut() {
        let noise = Matrix::randn(m.rows(), m.cols(), 0.01, &mut rng);
        m.add_assign(&noise);
    }
    let calib = calibration_set(&Corpus::new(cfg.max_seq), 4, 23);
    (base, tuned, calib)
}

fn delta_pin(cd: &CompressedDelta, params: &Params) -> u64 {
    let mut h = Fnv::new();
    for layer in cd.layers.values() {
        h.bytes(&layer.to_bytes());
    }
    h.params(params);
    h.report(&cd.report);
    h.0
}

fn model_pin(cm: &CompressedModel) -> u64 {
    let mut h = Fnv::new();
    for layer in cm.layers.values() {
        h.bytes(&layer.to_bytes());
    }
    h.params(&cm.params);
    h.report(&cm.report);
    h.0
}

fn check(label: &str, got: u64, want: u64) {
    assert_eq!(got, want, "{label} output changed: got {got:#018x}");
}

#[test]
fn delta_compress_4bit_star_is_pinned() {
    let (base, tuned, calib) = setup();
    let (cd, rec) = delta_compress(&base, &tuned, &calib, DeltaCompressConfig::starred(4));
    check(
        "delta_compress 4*",
        delta_pin(&cd, &rec),
        0x5bfd_1b79_9d1f_28b0,
    );
}

#[test]
fn delta_compress_2bit_star_lossless_is_pinned() {
    let (base, tuned, calib) = setup();
    let config = DeltaCompressConfig {
        lossless: true,
        ..DeltaCompressConfig::starred(2)
    };
    let (cd, rec) = delta_compress(&base, &tuned, &calib, config);
    check(
        "delta_compress 2* lossless",
        delta_pin(&cd, &rec),
        0x4454_fbba_2519_667e,
    );
}

#[test]
fn delta_compress_no_reconstruct_is_pinned() {
    let (base, tuned, calib) = setup();
    let (cd, rec) =
        delta_compress_no_reconstruct(&base, &tuned, &calib, DeltaCompressConfig::starred(4));
    check(
        "delta_compress_no_reconstruct",
        delta_pin(&cd, &rec),
        0x4314_a251_3258_b440,
    );
}

#[test]
fn sparsegpt_direct_is_pinned() {
    let (_, tuned, calib) = setup();
    check(
        "sparsegpt_direct",
        model_pin(&sparsegpt_direct(&tuned, &calib, 4, 16)),
        0x3a13_c922_3399_f15a,
    );
}

#[test]
fn awq_quantize_is_pinned() {
    let (_, tuned, calib) = setup();
    check(
        "awq_quantize",
        model_pin(&awq_quantize(&tuned, &calib, 4, 16)),
        0xc29e_5d9a_0c68_50b6,
    );
}
