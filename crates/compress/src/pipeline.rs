//! ΔCompress — Algorithm 1 of the paper.
//!
//! For each linear layer, in forward order, as the calibration walk
//! ([`crate::calib::calibration_walk`]) hands it out:
//!
//! 1. extract the delta `Δ = w_f - w_b`,
//! 2. compress `Δ` with the OBS solver calibrated on `X_n`, the inputs the
//!    layer sees under the *progressively reconstructed* model,
//! 3. reconstruct `ŵ = QM + w_b` and hand it back to the walk, so `X_{n+1}`
//!    for the next layer reflects compression error incurred so far.
//!
//! Step 3 is the paper's key departure from running SparseGPT on the model:
//! without re-adding the base weights the propagated activations collapse
//! (deltas are tiny) and calibration fails. The ablation test below
//! reproduces that effect.

use crate::calib::{calibration_walk, CalibInput};
use crate::codec::{CodecId, PackedLayer};
use crate::obs::{compress_matrix, ObsConfig};
use crate::quant::QuantSpec;
use dz_model::transformer::Params;
use dz_tensor::Matrix;
use std::collections::BTreeMap;

/// Configuration of the full ΔCompress pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeltaCompressConfig {
    /// Bits per delta weight (2 or 4 in the paper).
    pub bits: u32,
    /// Quantization group size along the input dimension.
    pub group_size: usize,
    /// Apply 2:4 structured sparsity (the paper's ★ configurations).
    pub sparse24: bool,
    /// Hessian damping fraction.
    pub damp: f32,
    /// Run the optional lossless stage and record its effect.
    pub lossless: bool,
}

impl DeltaCompressConfig {
    /// The paper's `Nbit★` configuration (N-bit + 50% structured sparsity).
    pub fn starred(bits: u32) -> Self {
        DeltaCompressConfig {
            bits,
            group_size: 16,
            sparse24: true,
            damp: 0.05,
            lossless: false,
        }
    }

    fn obs(&self) -> ObsConfig {
        ObsConfig {
            spec: QuantSpec::new(self.bits, self.group_size),
            sparse24: self.sparse24,
            damp: self.damp,
        }
    }
}

/// Byte-level accounting of one compressed artifact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SizeReport {
    /// Packed bytes of all compressed linear layers.
    pub compressed_linear_bytes: usize,
    /// FP16 bytes of everything left uncompressed (embeddings, norms, ...).
    pub uncompressed_rest_bytes: usize,
    /// FP16 bytes of the full model.
    pub full_fp16_bytes: usize,
    /// Bytes after the optional lossless stage (packed linears only).
    pub lossless_linear_bytes: Option<usize>,
}

impl SizeReport {
    /// Whole-model compression ratio (the paper's Table 1 metric): full
    /// FP16 size over compressed-linears + uncompressed-rest.
    pub fn model_ratio(&self) -> f64 {
        self.full_fp16_bytes as f64
            / (self.compressed_linear_bytes + self.uncompressed_rest_bytes) as f64
    }

    /// Delta-only compression ratio (what swapping cost scales with).
    pub fn delta_ratio(&self) -> f64 {
        let linear_fp16 = self.full_fp16_bytes - self.uncompressed_rest_bytes;
        linear_fp16 as f64 / self.compressed_linear_bytes.max(1) as f64
    }

    /// Ratio including the lossless stage, if it ran.
    pub fn lossless_delta_ratio(&self) -> Option<f64> {
        self.lossless_linear_bytes.map(|b| {
            let linear_fp16 = self.full_fp16_bytes - self.uncompressed_rest_bytes;
            linear_fp16 as f64 / b.max(1) as f64
        })
    }
}

/// A compressed model delta: packed per-layer matrices plus accounting.
///
/// Besides the packed linear-layer deltas, the artifact carries FP16 copies
/// of every parameter ΔCompress leaves uncompressed (embeddings, biases,
/// norms) — those change during fine-tuning too and must ship with the
/// delta. Their bytes are what `uncompressed_rest_bytes` accounts for.
#[derive(Debug, Clone, PartialEq)]
pub struct CompressedDelta {
    /// Packed delta per linear layer, keyed by stable parameter name.
    /// The layer format varies with the codec (see
    /// [`PackedLayer`]).
    pub layers: BTreeMap<String, PackedLayer>,
    /// FP16 parameters outside the compressed set, keyed by stable name.
    pub rest: BTreeMap<String, dz_tensor::Matrix>,
    /// The method-zoo codec that produced the delta.
    pub codec: CodecId,
    /// The configuration that produced it (only fully meaningful for the
    /// OBS pipeline; other codecs record nominal values).
    pub config: DeltaCompressConfig,
    /// Byte accounting.
    pub report: SizeReport,
}

impl CompressedDelta {
    /// Total packed bytes of the delta (what gets swapped at serving time).
    pub fn packed_bytes(&self) -> usize {
        self.report.compressed_linear_bytes
    }

    /// Serves as the on-disk payload for the lossless stage / disk model.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for cm in self.layers.values() {
            out.extend(cm.to_bytes());
        }
        out
    }

    /// Reconstructs full fine-tuned parameters: `base + dequant(delta)` for
    /// compressed layers, stored FP16 values for everything else.
    pub fn reconstruct(&self, base: &Params) -> Params {
        let mut out = base.clone();
        for (name, value) in &self.rest {
            out.set(name, value.clone());
        }
        for (name, cm) in &self.layers {
            let w = base
                .get(name)
                .expect("layer exists in base")
                .add(&cm.dequantize());
            out.set(name, w);
        }
        out
    }

    /// Assembles an artifact from its packed linear layers: every other
    /// parameter of `finetuned` rides along in FP16, and the report
    /// accounts bytes against `base`. Shared by every method-zoo codec.
    pub(crate) fn new(
        base: &Params,
        finetuned: &Params,
        layers: BTreeMap<String, PackedLayer>,
        codec: CodecId,
        config: DeltaCompressConfig,
    ) -> Self {
        let mut rest = BTreeMap::new();
        finetuned.for_each(|name, m| {
            if !layers.contains_key(name) {
                rest.insert(name.to_string(), m.clone());
            }
        });
        let report = size_report_for(base, &layers, config.lossless);
        CompressedDelta {
            layers,
            rest,
            codec,
            config,
            report,
        }
    }
}

/// Byte accounting for a set of packed layers against a base model;
/// shared by every method-zoo codec and the baselines.
pub(crate) fn size_report_for(
    base: &Params,
    layers: &BTreeMap<String, PackedLayer>,
    lossless: bool,
) -> SizeReport {
    let full = base.fp16_bytes();
    let linear_fp16: usize = layers.values().map(|c| c.fp16_bytes()).sum();
    SizeReport {
        compressed_linear_bytes: layers.values().map(|c| c.packed_bytes()).sum(),
        uncompressed_rest_bytes: full - linear_fp16,
        full_fp16_bytes: full,
        lossless_linear_bytes: lossless.then(|| {
            let lossless_len = |c: &PackedLayer| dz_lossless::compress(&c.to_bytes()).len();
            layers.values().map(lossless_len).sum()
        }),
    }
}

/// Compresses one linear layer's delta with the OBS solver calibrated on
/// `input`; returns the packed delta and the reconstructed weight
/// `w_b + Δ̂`.
fn compress_delta(
    base: &Params,
    finetuned: &Params,
    name: &str,
    input: &CalibInput,
    obs_cfg: &ObsConfig,
) -> (PackedLayer, Matrix) {
    let w_b = base.get(name).expect("linear exists");
    let w_f = finetuned.get(name).expect("linear exists");
    let res = compress_matrix(&w_f.sub(w_b), input.hessian(), obs_cfg);
    (PackedLayer::Quant(res.packed), w_b.add(&res.reconstructed))
}

/// Runs ΔCompress (Algorithm 1) and returns the compressed delta together
/// with the reconstructed (servable) parameters.
///
/// # Panics
///
/// Panics if `base` and `finetuned` have different shapes or `calib` is
/// empty.
pub fn delta_compress(
    base: &Params,
    finetuned: &Params,
    calib: &[Vec<usize>],
    config: DeltaCompressConfig,
) -> (CompressedDelta, Params) {
    assert_eq!(base.config, finetuned.config, "model config mismatch");
    let obs_cfg = config.obs();
    let mut layers = BTreeMap::new();
    // The walk propagates the progressively reconstructed model (Line 6-7
    // of Alg. 1), so each layer calibrates on realistic activations.
    let work = calibration_walk(finetuned.clone(), calib, |name, input| {
        let (packed, w_hat) = compress_delta(base, finetuned, name, input, &obs_cfg);
        layers.insert(name.to_string(), packed);
        Some(w_hat)
    });
    let cd = CompressedDelta::new(base, finetuned, layers, CodecId::SparseGptStar, config);
    (cd, work)
}

/// Ablation: ΔCompress *without* per-layer weight reconstruction — the
/// calibration activations are propagated through the raw deltas instead,
/// which the paper identifies as the failure mode (vanishing activations).
pub fn delta_compress_no_reconstruct(
    base: &Params,
    finetuned: &Params,
    calib: &[Vec<usize>],
    config: DeltaCompressConfig,
) -> (CompressedDelta, Params) {
    assert_eq!(base.config, finetuned.config, "model config mismatch");
    let obs_cfg = config.obs();
    let mut layers = BTreeMap::new();
    let mut reconstructed = base.clone();
    // The walk propagates the fixed delta-only model: activations vanish
    // in deeper layers.
    calibration_walk(finetuned.delta_from(base), calib, |name, input| {
        let (packed, w_hat) = compress_delta(base, finetuned, name, input, &obs_cfg);
        reconstructed.set(name, w_hat);
        layers.insert(name.to_string(), packed);
        None
    });
    let cd = CompressedDelta::new(base, finetuned, layers, CodecId::SparseGptStar, config);
    (cd, reconstructed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calib::calibration_set;
    use dz_model::tasks::{Corpus, SentimentTask};
    use dz_model::train::{finetune_fmt, pretrain, TrainConfig};
    use dz_model::transformer::test_config;
    use dz_tensor::Rng;

    fn trained_pair() -> (Params, Params) {
        let cfg = test_config();
        let mut rng = Rng::seeded(1);
        let mut base = Params::init(cfg, &mut rng);
        let corpus = Corpus::new(cfg.max_seq);
        pretrain(&mut base, &corpus, TrainConfig::pretrain(60));
        let mut tuned = base.clone();
        finetune_fmt(&mut tuned, &SentimentTask, TrainConfig::finetune(60));
        (base, tuned)
    }

    #[test]
    fn delta_compress_produces_all_linear_layers() {
        let (base, tuned) = trained_pair();
        let corpus = Corpus::new(base.config.max_seq);
        let calib = calibration_set(&corpus, 6, 3);
        let (cd, rec) = delta_compress(&base, &tuned, &calib, DeltaCompressConfig::starred(4));
        assert_eq!(cd.layers.len(), base.linear_layer_names().len());
        // Reconstructed parameters only differ from base in linear layers.
        assert_eq!(rec.tok_emb, tuned.tok_emb);
        assert_eq!(rec.layers[0].bq, tuned.layers[0].bq);
        // And the linear layers are near (not equal to) the tuned ones.
        let diff = rec.layers[0].wq.max_abs_diff(&tuned.layers[0].wq);
        assert!(diff > 0.0, "compression should be lossy");
        let drift = rec.layers[0].wq.max_abs_diff(&base.layers[0].wq);
        let delta_mag = tuned.layers[0].wq.max_abs_diff(&base.layers[0].wq);
        assert!(drift <= delta_mag * 1.5 + 1e-4);
    }

    #[test]
    fn reconstruct_matches_returned_params() {
        let (base, tuned) = trained_pair();
        let corpus = Corpus::new(base.config.max_seq);
        let calib = calibration_set(&corpus, 4, 5);
        let (cd, rec) = delta_compress(&base, &tuned, &calib, DeltaCompressConfig::starred(4));
        let rebuilt = cd.reconstruct(&base);
        let rect = rec.tensors();
        for (a, b) in rebuilt.tensors().into_iter().zip(rect) {
            assert!(a.max_abs_diff(b) < 1e-5);
        }
    }

    #[test]
    fn ratio_accounting_is_consistent() {
        let (base, tuned) = trained_pair();
        let corpus = Corpus::new(base.config.max_seq);
        let calib = calibration_set(&corpus, 4, 7);
        for bits in [2u32, 4] {
            let (cd, _) = delta_compress(&base, &tuned, &calib, DeltaCompressConfig::starred(bits));
            let r = cd.report;
            assert!(r.compressed_linear_bytes > 0);
            assert!(
                r.model_ratio() > 1.0,
                "bits={bits} ratio {}",
                r.model_ratio()
            );
            assert!(r.delta_ratio() > r.model_ratio());
            // 2-bit deltas must pack tighter than 4-bit.
            if bits == 2 {
                let (cd4, _) =
                    delta_compress(&base, &tuned, &calib, DeltaCompressConfig::starred(4));
                assert!(cd.packed_bytes() < cd4.packed_bytes());
            }
        }
    }

    #[test]
    fn lossless_stage_runs_and_reports() {
        let (base, tuned) = trained_pair();
        let corpus = Corpus::new(base.config.max_seq);
        let calib = calibration_set(&corpus, 4, 9);
        let mut cfg = DeltaCompressConfig::starred(2);
        cfg.lossless = true;
        let (cd, _) = delta_compress(&base, &tuned, &calib, cfg);
        let lb = cd.report.lossless_linear_bytes.expect("lossless ran");
        assert!(lb > 0);
        assert!(cd.report.lossless_delta_ratio().unwrap() > 0.0);
    }

    #[test]
    fn compressed_model_keeps_task_accuracy() {
        // The headline claim at miniature scale: ΔCompress(4bit*) stays
        // close to the FMT model's accuracy.
        let cfg = test_config();
        let mut rng = Rng::seeded(11);
        let mut base = Params::init(cfg, &mut rng);
        let corpus = Corpus::new(cfg.max_seq);
        pretrain(&mut base, &corpus, TrainConfig::pretrain(80));
        let mut tuned = base.clone();
        finetune_fmt(
            &mut tuned,
            &SentimentTask,
            TrainConfig {
                steps: 150,
                batch: 8,
                lr: 3e-3,
                clip: 1.0,
                seed: 4321,
            },
        );
        let fmt_acc =
            dz_model::eval::task_accuracy(&tuned, &SentimentTask, 200, &mut Rng::seeded(2));
        assert!(fmt_acc > 0.8, "fmt acc {fmt_acc}");
        let calib = calibration_set(&corpus, 8, 13);
        let (_, rec) = delta_compress(&base, &tuned, &calib, DeltaCompressConfig::starred(4));
        let rec_acc = dz_model::eval::task_accuracy(&rec, &SentimentTask, 200, &mut Rng::seeded(2));
        assert!(
            rec_acc > fmt_acc - 0.15,
            "compressed acc {rec_acc} vs fmt {fmt_acc}"
        );
    }
}
