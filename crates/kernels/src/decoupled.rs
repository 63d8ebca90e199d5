//! Decoupled base + delta execution (Eq. 2 of the paper), runnable on CPU.
//!
//! `y = w_fine-tuned x = (w_base + Δ) x ≈ w_base x  +  Δ x`
//!
//! The base-model product is shared and batched across *all* requests in
//! flight, regardless of which fine-tuned variant they target; the delta
//! product runs through SBMM over the packed low-precision matrices. The
//! decoupling happens at linear-layer granularity: results merge before
//! every non-linearity, exactly as §5.1 prescribes.
//!
//! [`DecoupledBatch`] is a miniature model runner: it decodes a batch of
//! requests for different variants in lock-step, with per-request KV caches
//! and per-variant uncompressed parameters (biases, norms, embeddings) taken
//! from each variant's delta artifact.

use crate::qgemm::dense_gemm;
use crate::runner::{argmax, attention_one, gelu_assign, layer_norm_row, Slot};
use crate::sbmm::sbmm_grouped;
use dz_compress::pack::CompressedMatrix;
use dz_compress::pipeline::CompressedDelta;
use dz_model::transformer::Params;
use dz_tensor::Matrix;

/// One decoupled linear layer: shared dense base GEMM plus SBMM deltas.
///
/// `x` is `(batch, d_in)`; `delta_idx[i]` selects the delta of request `i`.
///
/// # Panics
///
/// Panics on shape mismatches (see [`sbmm_grouped`]).
pub fn decoupled_linear(
    x: &Matrix,
    w_base: &Matrix,
    delta_idx: &[usize],
    deltas: &[&CompressedMatrix],
) -> Matrix {
    let mut y = dense_gemm(x, w_base);
    let yd = sbmm_grouped(x, delta_idx, deltas);
    y.add_assign(&yd);
    y
}

/// A batched, decoupled decoder over one base model and many variants.
pub struct DecoupledBatch<'a> {
    base: &'a Params,
    variants: Vec<&'a CompressedDelta>,
    /// Dense delta copies for the variants (and only the variants) that
    /// use a non-quantized method-zoo codec (BitDelta / Delta-CoMe):
    /// those formats have no SBMM kernel, so their layers are dequantized
    /// once here and applied as dense per-request products. Quantized
    /// variants keep the packed SBMM path, also in mixed batches.
    dense_layers: Vec<Option<std::collections::BTreeMap<String, Matrix>>>,
    slots: Vec<Slot>,
}

impl<'a> DecoupledBatch<'a> {
    /// Creates a runner over `base` and the given variant deltas.
    pub fn new(base: &'a Params, variants: Vec<&'a CompressedDelta>) -> Self {
        let dense_layers = variants
            .iter()
            .map(|v| {
                let all_quant = v.layers.values().all(|l| l.as_quant().is_some());
                (!all_quant).then(|| {
                    v.layers
                        .iter()
                        .map(|(name, l)| (name.clone(), l.dequantize()))
                        .collect()
                })
            })
            .collect();
        DecoupledBatch {
            base,
            variants,
            dense_layers,
            slots: Vec::new(),
        }
    }

    /// Admits a request for `variant`, processing its prompt token by token
    /// (prefill); returns the slot index.
    ///
    /// # Panics
    ///
    /// Panics if the variant index is out of range or the prompt is empty.
    pub fn admit(&mut self, variant: usize, prompt: &[usize]) -> usize {
        assert!(variant < self.variants.len(), "variant out of range");
        assert!(!prompt.is_empty(), "empty prompt");
        let last = *prompt.last().expect("non-empty");
        self.slots
            .push(Slot::new(variant, self.base.config.n_layers, last));
        let idx = self.slots.len() - 1;
        // Prefill: feed all but the last prompt token (its logits appear at
        // the first decode step).
        for &tok in &prompt[..prompt.len() - 1] {
            self.forward_one(idx, tok);
        }
        idx
    }

    /// Per-variant parameter lookup: uncompressed params come from the
    /// variant's `rest`, falling back to base for anything absent.
    fn rest_param(&self, variant: usize, name: &str) -> &Matrix {
        self.variants[variant]
            .rest
            .get(name)
            .unwrap_or_else(|| self.base.get(name).expect("param exists"))
    }

    /// Runs one token through one slot's cache (used for prefill).
    fn forward_one(&mut self, slot: usize, token: usize) {
        let _ = self.step_tokens(&[(slot, token)]);
    }

    /// Decodes one token for every active slot; returns `(slot, next)` pairs
    /// chosen greedily from the batched logits.
    pub fn decode_step(&mut self) -> Vec<(usize, usize)> {
        let work: Vec<(usize, usize)> = self
            .slots
            .iter()
            .enumerate()
            .map(|(i, s)| (i, s.last_token))
            .collect();
        let logits = self.step_tokens(&work);
        let mut out = Vec::with_capacity(work.len());
        for ((slot, _), row) in work.iter().zip(logits.iter()) {
            let next = argmax(row);
            self.slots[*slot].last_token = next;
            self.slots[*slot].generated.push(next);
            out.push((*slot, next));
        }
        out
    }

    /// Tokens generated so far by a slot.
    pub fn generated(&self, slot: usize) -> &[usize] {
        &self.slots[slot].generated
    }

    /// Core batched step: advances each `(slot, token)` by one position.
    ///
    /// All six linear projections run decoupled (shared base GEMM + SBMM);
    /// attention and normalization run per request against its own cache
    /// and variant parameters.
    fn step_tokens(&mut self, work: &[(usize, usize)]) -> Vec<Vec<f32>> {
        let cfg = &self.base.config;
        let d = cfg.d_model;
        let b = work.len();
        let delta_idx: Vec<usize> = work.iter().map(|(s, _)| self.slots[*s].variant).collect();

        // Embedding lookup per request (token + absolute position).
        let mut x = Matrix::zeros(b, d);
        for (bi, &(slot, token)) in work.iter().enumerate() {
            let pos = self.slots[slot].cache.len();
            assert!(pos < cfg.max_seq, "sequence overflow");
            let variant = self.slots[slot].variant;
            let tok_emb = self.rest_param(variant, "tok_emb");
            let pos_emb = self.rest_param(variant, "pos_emb");
            let row = x.row_mut(bi);
            for (c, v) in row.iter_mut().enumerate() {
                *v = tok_emb.get(token, c) + pos_emb.get(pos, c);
            }
        }

        let heads = cfg.n_heads;
        for li in 0..cfg.n_layers {
            let variants = &self.variants;
            let dense_layers = &self.dense_layers;
            // Shared base GEMM + per-variant delta product. Requests for
            // quantized variants share one grouped SBMM call, so each
            // packed delta row is decoded once per call; per-row
            // accumulation does not depend on the batch, so their output
            // is bit-identical whichever variants share it. Non-quant
            // variants use their cached dense copies.
            let linear = move |x: &Matrix, w_base: &Matrix, idx: &[usize], field: &str| {
                let name = format!("layer{li}.{field}");
                let mut y = dense_gemm(x, w_base);
                let mut deltas: Vec<&CompressedMatrix> = Vec::new();
                let mut delta_of = vec![None; variants.len()];
                for (vi, v) in variants.iter().enumerate() {
                    if dense_layers[vi].is_none() {
                        delta_of[vi] = Some(deltas.len());
                        deltas.push(
                            v.layers
                                .get(&name)
                                .and_then(|l| l.as_quant())
                                .expect("quant variant has a packed layer"),
                        );
                    }
                }
                let (rows, qidx): (Vec<usize>, Vec<usize>) = idx
                    .iter()
                    .enumerate()
                    .filter_map(|(bi, &v)| delta_of[v].map(|d| (bi, d)))
                    .unzip();
                if !rows.is_empty() {
                    let mut xq = Matrix::zeros(rows.len(), x.cols());
                    for (qi, &bi) in rows.iter().enumerate() {
                        xq.row_mut(qi).copy_from_slice(x.row(bi));
                    }
                    let yq = sbmm_grouped(&xq, &qidx, &deltas);
                    for (qi, &bi) in rows.iter().enumerate() {
                        for (yv, &d) in y.row_mut(bi).iter_mut().zip(yq.row(qi)) {
                            *yv += d;
                        }
                    }
                }
                for (bi, &v) in idx.iter().enumerate() {
                    // Non-quant variant: dense row product against the copy
                    // dequantized at construction.
                    if let Some(dense) = &dense_layers[v] {
                        let d = dense.get(&name).expect("delta layer exists");
                        let xr = x.row(bi);
                        let yr = y.row_mut(bi);
                        for (k, &xv) in xr.iter().enumerate() {
                            if xv == 0.0 {
                                continue;
                            }
                            for (yv, &dv) in yr.iter_mut().zip(d.row(k)) {
                                *yv += xv * dv;
                            }
                        }
                    }
                }
                y
            };
            // Pre-attention LayerNorm, per request (variant gains/biases).
            let mut h = Matrix::zeros(b, d);
            for (bi, &(slot, _)) in work.iter().enumerate() {
                let variant = self.slots[slot].variant;
                let g = self.rest_param(variant, &format!("layer{li}.ln1_g"));
                let bb = self.rest_param(variant, &format!("layer{li}.ln1_b"));
                layer_norm_row(x.row(bi), g, bb, h.row_mut(bi));
            }
            // Decoupled projections + per-variant biases.
            let base_l = &self.base.layers[li];
            let mut q = linear(&h, &base_l.wq, &delta_idx, "wq");
            let mut k = linear(&h, &base_l.wk, &delta_idx, "wk");
            let mut v = linear(&h, &base_l.wv, &delta_idx, "wv");
            for (bi, &(slot, _)) in work.iter().enumerate() {
                let variant = self.slots[slot].variant;
                for (name, m) in [("bq", &mut q), ("bk", &mut k), ("bv", &mut v)] {
                    let bias = self.rest_param(variant, &format!("layer{li}.{name}"));
                    for (c, val) in m.row_mut(bi).iter_mut().enumerate() {
                        *val += bias.get(0, c);
                    }
                }
            }
            // Attention per request against its own cache.
            let mut attn = Matrix::zeros(b, d);
            for (bi, &(slot, _)) in work.iter().enumerate() {
                let cache = &mut self.slots[slot].cache;
                attention_one(&q, &k, &v, bi, cache, li, heads, &mut attn);
            }
            let mut proj = linear(&attn, &base_l.wo, &delta_idx, "wo");
            for (bi, &(slot, _)) in work.iter().enumerate() {
                let variant = self.slots[slot].variant;
                let bias = self.rest_param(variant, &format!("layer{li}.bo"));
                for (c, val) in proj.row_mut(bi).iter_mut().enumerate() {
                    *val += bias.get(0, c);
                }
            }
            x.add_assign(&proj);
            // MLP block.
            let mut h2 = Matrix::zeros(b, d);
            for (bi, &(slot, _)) in work.iter().enumerate() {
                let variant = self.slots[slot].variant;
                let g = self.rest_param(variant, &format!("layer{li}.ln2_g"));
                let bb = self.rest_param(variant, &format!("layer{li}.ln2_b"));
                layer_norm_row(x.row(bi), g, bb, h2.row_mut(bi));
            }
            let mut up = linear(&h2, &base_l.w1, &delta_idx, "w1");
            for (bi, &(slot, _)) in work.iter().enumerate() {
                let variant = self.slots[slot].variant;
                let bias = self.rest_param(variant, &format!("layer{li}.b1"));
                for (c, val) in up.row_mut(bi).iter_mut().enumerate() {
                    *val += bias.get(0, c);
                }
            }
            gelu_assign(&mut up);
            let mut down = linear(&up, &base_l.w2, &delta_idx, "w2");
            for (bi, &(slot, _)) in work.iter().enumerate() {
                let variant = self.slots[slot].variant;
                let bias = self.rest_param(variant, &format!("layer{li}.b2"));
                for (c, val) in down.row_mut(bi).iter_mut().enumerate() {
                    *val += bias.get(0, c);
                }
            }
            x.add_assign(&down);
        }
        // Final norm + per-variant head.
        let mut out = Vec::with_capacity(b);
        for (bi, &(slot, _)) in work.iter().enumerate() {
            let variant = self.slots[slot].variant;
            let g = self.rest_param(variant, "lnf_g");
            let bb = self.rest_param(variant, "lnf_b");
            let mut xf = vec![0.0f32; d];
            layer_norm_row(x.row(bi), g, bb, &mut xf);
            let head = self.rest_param(variant, "head");
            let mut logits = vec![0.0f32; self.base.config.vocab];
            for (c, l) in logits.iter_mut().enumerate() {
                let mut acc = 0.0f32;
                for (r, xv) in xf.iter().enumerate() {
                    acc += xv * head.get(r, c);
                }
                *l = acc;
            }
            out.push(logits);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dz_compress::calib::calibration_set;
    use dz_compress::pipeline::{delta_compress, DeltaCompressConfig};
    use dz_model::tasks::{Corpus, SentimentTask};
    use dz_model::train::{finetune_fmt, pretrain, TrainConfig};
    use dz_model::transformer::test_config;
    use dz_tensor::Rng;

    fn setup() -> (Params, CompressedDelta, Params) {
        let cfg = test_config();
        let mut rng = Rng::seeded(1);
        let mut base = Params::init(cfg, &mut rng);
        let corpus = Corpus::new(cfg.max_seq);
        pretrain(&mut base, &corpus, TrainConfig::pretrain(50));
        let mut tuned = base.clone();
        finetune_fmt(&mut tuned, &SentimentTask, TrainConfig::finetune(40));
        let calib = calibration_set(&corpus, 4, 3);
        let (cd, rec) = delta_compress(&base, &tuned, &calib, DeltaCompressConfig::starred(4));
        (base, cd, rec)
    }

    #[test]
    fn decoupled_linear_matches_fused_weights() {
        let (base, cd, _) = setup();
        let name = "layer0.wq";
        let w_base = base.get(name).unwrap();
        let delta = cd.layers.get(name).unwrap().as_quant().unwrap();
        let fused = w_base.add(&delta.dequantize());
        let mut rng = Rng::seeded(2);
        let x = Matrix::randn(5, w_base.rows(), 1.0, &mut rng);
        let decoupled = decoupled_linear(&x, w_base, &[0; 5], &[delta]);
        let reference = x.matmul(&fused);
        assert!(
            decoupled.max_abs_diff(&reference) < 1e-3,
            "diff {}",
            decoupled.max_abs_diff(&reference)
        );
    }

    #[test]
    fn batched_decode_matches_reconstructed_model() {
        let (base, cd, rec) = setup();
        let prompt = vec![1usize, 20, 21, 22, 2];
        // Reference: greedy generation on the reconstructed dense model.
        let want = dz_model::eval::greedy_generate(&rec, &prompt, 4);
        // Decoupled path.
        let mut batch = DecoupledBatch::new(&base, vec![&cd]);
        let slot = batch.admit(0, &prompt);
        for _ in 0..4 {
            batch.decode_step();
        }
        assert_eq!(batch.generated(slot), &want[..]);
    }

    #[test]
    fn multi_variant_batch_keeps_requests_separate() {
        let (base, cd, rec) = setup();
        // Second variant: a differently fine-tuned model.
        let cfg = base.config;
        let corpus = Corpus::new(cfg.max_seq);
        let mut tuned2 = base.clone();
        finetune_fmt(
            &mut tuned2,
            &dz_model::tasks::NliTask,
            TrainConfig::finetune(40),
        );
        let calib = calibration_set(&corpus, 4, 9);
        let (cd2, rec2) = delta_compress(&base, &tuned2, &calib, DeltaCompressConfig::starred(4));

        let p1 = vec![1usize, 20, 21, 2];
        let p2 = vec![1usize, 25, 2, 30, 4];
        let w1 = dz_model::eval::greedy_generate(&rec, &p1, 3);
        let w2 = dz_model::eval::greedy_generate(&rec2, &p2, 3);

        let mut batch = DecoupledBatch::new(&base, vec![&cd, &cd2]);
        let s1 = batch.admit(0, &p1);
        let s2 = batch.admit(1, &p2);
        for _ in 0..3 {
            batch.decode_step();
        }
        assert_eq!(batch.generated(s1), &w1[..], "variant 0 output diverged");
        assert_eq!(batch.generated(s2), &w2[..], "variant 1 output diverged");
    }

    #[test]
    fn non_quant_codec_variants_serve_through_dense_fallback() {
        use dz_compress::codec::{BitDeltaCodec, DeltaCodec};

        let (base, cd_quant, _) = setup();
        let cfg = base.config;
        let corpus = Corpus::new(cfg.max_seq);
        let mut tuned2 = base.clone();
        finetune_fmt(
            &mut tuned2,
            &dz_model::tasks::NliTask,
            TrainConfig::finetune(40),
        );
        let calib = calibration_set(&corpus, 4, 9);
        // A BitDelta (sign/scale) variant has no SBMM kernel: the batch
        // must fall back to dense delta products and still match the
        // reconstructed model exactly — even mixed with a quantized one.
        let (cd_sign, rec_sign) = BitDeltaCodec::per_row().compress(&base, &tuned2, &calib);
        let p1 = vec![1usize, 20, 21, 2];
        let p2 = vec![1usize, 25, 2, 30, 4];
        let want_quant = {
            let mut solo = DecoupledBatch::new(&base, vec![&cd_quant]);
            let s = solo.admit(0, &p1);
            for _ in 0..3 {
                solo.decode_step();
            }
            solo.generated(s).to_vec()
        };
        let want_sign = dz_model::eval::greedy_generate(&rec_sign, &p2, 3);

        let mut batch = DecoupledBatch::new(&base, vec![&cd_quant, &cd_sign]);
        let s1 = batch.admit(0, &p1);
        let s2 = batch.admit(1, &p2);
        for _ in 0..3 {
            batch.decode_step();
        }
        assert_eq!(batch.generated(s1), &want_quant[..]);
        assert_eq!(batch.generated(s2), &want_sign[..]);
    }
}
