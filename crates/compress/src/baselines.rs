//! Baseline compressors the paper compares against.
//!
//! * **SparseGPT-direct** — the identical OBS solver applied to the
//!   *fine-tuned weights themselves* rather than the delta. The paper's
//!   Table 1 shows this degrades accuracy substantially at the same
//!   sparsity/bit budget; the wider, outlier-laden weight distribution is
//!   simply harder to fit on a coarse grid.
//! * **AWQ** — activation-aware weight quantization: per-input-channel
//!   scales chosen by a small grid search to protect salient channels, then
//!   round-to-nearest 4-bit group quantization. No sparsity, no error
//!   propagation.

use crate::calib::{calibration_walk, channel_mean_abs};
use crate::codec::{quantize_rows, PackedLayer};
use crate::obs::{compress_matrix, output_mse, ObsConfig};
use crate::pack::CompressedMatrix;
use crate::pipeline::{size_report_for, SizeReport};
use crate::quant::QuantSpec;
use dz_model::transformer::Params;
use dz_tensor::Matrix;
use std::collections::BTreeMap;

/// A directly compressed model (weights, not deltas).
#[derive(Debug, Clone)]
pub struct CompressedModel {
    /// Packed linear layers keyed by stable name (all
    /// [`PackedLayer::Quant`]).
    pub layers: BTreeMap<String, PackedLayer>,
    /// Byte accounting (same semantics as the delta report).
    pub report: SizeReport,
    /// The reconstructed, servable parameters.
    pub params: Params,
}

/// SparseGPT applied directly to the fine-tuned model weights.
///
/// Uses the same layer-by-layer propagation as ΔCompress, except the
/// compressed object is `w_f` itself and reconstruction does not re-add a
/// base (there is none).
pub fn sparsegpt_direct(
    finetuned: &Params,
    calib: &[Vec<usize>],
    bits: u32,
    group_size: usize,
) -> CompressedModel {
    let obs_cfg = ObsConfig {
        spec: QuantSpec::new(bits, group_size),
        sparse24: true,
        damp: 0.05,
    };
    let mut layers = BTreeMap::new();
    let params = calibration_walk(finetuned.clone(), calib, |name, input| {
        let w_f = finetuned.get(name).expect("linear exists");
        let res = compress_matrix(w_f, input.hessian(), &obs_cfg);
        layers.insert(name.to_string(), PackedLayer::Quant(res.packed));
        Some(res.reconstructed)
    });
    let report = size_report_for(finetuned, &layers, false);
    CompressedModel {
        layers,
        report,
        params,
    }
}

/// One AWQ-scaled, RTN-quantized linear layer; returns `(packed, rec, s)`.
fn awq_layer(
    w: &Matrix, // (d_in, d_out)
    x: &Matrix, // (tokens, d_in)
    spec: QuantSpec,
) -> (CompressedMatrix, Matrix, Vec<f32>) {
    let act = channel_mean_abs(x);
    let mut best: Option<(f64, CompressedMatrix, Matrix, Vec<f32>)> = None;
    for alpha in [0.0f32, 0.25, 0.5, 0.75, 1.0] {
        // Per-channel scale s_c = act_c^alpha, normalized to unit geomean so
        // the overall weight magnitude stays put.
        let mut s: Vec<f32> = act.iter().map(|a| a.max(1e-5).powf(alpha)).collect();
        let log_mean = s.iter().map(|v| (*v as f64).ln()).sum::<f64>() / s.len() as f64;
        let norm = (log_mean).exp() as f32;
        for v in &mut s {
            *v /= norm;
        }
        // Scale rows of W (input channels), quantize, and fold the inverse
        // scale into the reconstruction.
        let mut ws = w.clone();
        for (c, &sc) in s.iter().enumerate() {
            ws.row_mut(c).iter_mut().for_each(|v| *v *= sc);
        }
        // Quantize output-major.
        let packed = quantize_rows(&ws.transpose(), spec);
        let mut rec = packed.dequantize(); // (d_in, d_out), still scaled.
        for (c, &sc) in s.iter().enumerate() {
            rec.row_mut(c).iter_mut().for_each(|v| *v /= sc);
        }
        let mse = output_mse(w, &rec, &[x]);
        if best.as_ref().is_none_or(|(b, _, _, _)| mse < *b) {
            best = Some((mse, packed, rec, s));
        }
    }
    let (_, packed, rec, s) = best.expect("grid search is non-empty");
    (packed, rec, s)
}

/// AWQ 4-bit quantization of a fine-tuned model (no sparsity). Every
/// layer calibrates on the unquantized model's activations.
pub fn awq_quantize(
    finetuned: &Params,
    calib: &[Vec<usize>],
    bits: u32,
    group_size: usize,
) -> CompressedModel {
    let spec = QuantSpec::new(bits, group_size);
    let mut params = finetuned.clone();
    let mut layers = BTreeMap::new();
    let mut extra_scale_bytes = 0usize;
    calibration_walk(finetuned.clone(), calib, |name, input| {
        let w = finetuned.get(name).expect("linear exists");
        let (packed, rec, s) = awq_layer(w, input.x(), spec);
        extra_scale_bytes += s.len() * 2; // Per-channel scales at FP16.
        params.set(name, rec);
        layers.insert(name.to_string(), PackedLayer::Quant(packed));
        None
    });
    let mut report = size_report_for(finetuned, &layers, false);
    report.compressed_linear_bytes += extra_scale_bytes;
    CompressedModel {
        layers,
        report,
        params,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calib::calibration_set;
    use dz_model::tasks::Corpus;
    use dz_model::train::{pretrain, TrainConfig};
    use dz_model::transformer::test_config;
    use dz_tensor::Rng;

    fn trained_model() -> Params {
        let cfg = test_config();
        let mut rng = Rng::seeded(1);
        let mut p = Params::init(cfg, &mut rng);
        let corpus = Corpus::new(cfg.max_seq);
        pretrain(&mut p, &corpus, TrainConfig::pretrain(60));
        p
    }

    #[test]
    fn sparsegpt_direct_compresses_all_linears() {
        let model = trained_model();
        let corpus = Corpus::new(model.config.max_seq);
        let calib = calibration_set(&corpus, 4, 2);
        let cm = sparsegpt_direct(&model, &calib, 4, 16);
        assert_eq!(cm.layers.len(), model.linear_layer_names().len());
        assert!(cm.report.model_ratio() > 1.0);
        // Weights actually changed (lossy) and are 2:4 sparse.
        let w = &cm.params.layers[0].wq;
        assert!(w.max_abs_diff(&model.layers[0].wq) > 0.0);
        assert!(w.zero_fraction() >= 0.45, "{}", w.zero_fraction());
    }

    #[test]
    fn awq_keeps_outputs_closer_than_plain_rtn() {
        let model = trained_model();
        let corpus = Corpus::new(model.config.max_seq);
        let calib = calibration_set(&corpus, 4, 3);
        let name = "layer0.wq";
        let mut inputs = Vec::new();
        calibration_walk(model.clone(), &calib, |n, input| {
            if n == name {
                inputs.push(input.x().clone());
            }
            None
        });
        let x = inputs.remove(0);
        let w = model.get(name).unwrap();
        let spec = QuantSpec::new(2, 16);
        let (_, rec_awq, _) = awq_layer(w, &x, spec);
        // Plain RTN = alpha 0 path only.
        let rtn = quantize_rows(&w.transpose(), spec).dequantize();
        let refs = [&x];
        let awq_mse = output_mse(w, &rec_awq, &refs);
        let rtn_mse = output_mse(w, &rtn, &refs);
        assert!(
            awq_mse <= rtn_mse * 1.0001,
            "awq {awq_mse} should be <= rtn {rtn_mse}"
        );
    }

    #[test]
    fn awq_ratio_is_lower_than_sparse_configs() {
        // AWQ has no sparsity: its ratio must trail the 2:4 + 4bit config,
        // mirroring Table 1's AWQ column.
        let model = trained_model();
        let corpus = Corpus::new(model.config.max_seq);
        let calib = calibration_set(&corpus, 4, 5);
        let awq = awq_quantize(&model, &calib, 4, 16);
        let sgpt = sparsegpt_direct(&model, &calib, 4, 16);
        assert!(awq.report.model_ratio() < sgpt.report.model_ratio());
        assert!(awq.report.model_ratio() > 1.0);
    }

    #[test]
    fn awq_params_stay_finite() {
        let model = trained_model();
        let corpus = Corpus::new(model.config.max_seq);
        let calib = calibration_set(&corpus, 3, 7);
        let awq = awq_quantize(&model, &calib, 4, 16);
        awq.params.for_each(|name, m| {
            assert!(
                m.data().iter().all(|v| v.is_finite()),
                "{name} has non-finite values"
            );
        });
    }
}
