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
//! [`DecoupledBatch::new`] builds the crate's one batch runner,
//! [`BatchRunner`], over compressed deltas. It decodes a batch of requests
//! for different variants in lock-step, with per-request KV caches and
//! per-variant uncompressed parameters (biases, norms, embeddings) taken
//! from each variant's delta artifact. Every codec's layers stay packed:
//! BitDelta layers go through a sign GEMM over their sign words, and
//! Delta-CoMe layers through `(x·P)·Qᵀ` over their low-rank factors,
//! grouped per delta like SBMM. Norms, attention and GELU are dz-model's
//! inference primitives, shared with the reference forward.

use crate::runner::{BatchRunner, Variant};
use dz_compress::pipeline::CompressedDelta;
use dz_model::transformer::Params;

/// Builds a [`BatchRunner`] over one base model and many delta variants.
pub struct DecoupledBatch;

impl DecoupledBatch {
    /// Creates a runner over `base` and the given variant deltas; variant
    /// `i` of the runner is `variants[i]`.
    #[allow(clippy::new_ret_no_self)] // builds the shared runner type
    pub fn new<'a>(base: &'a Params, variants: Vec<&'a CompressedDelta>) -> BatchRunner<'a> {
        BatchRunner::new(base, variants.into_iter().map(Variant::delta).collect())
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
    use dz_tensor::{Matrix, Rng};

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
    fn non_quant_codec_variants_serve_beside_a_quantized_one() {
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
        // A BitDelta (sign/scale) variant goes through the sign GEMM and
        // must still match the reconstructed model exactly, even mixed
        // with a quantized one.
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

    #[test]
    fn long_prompt_admitted_beside_decoding_rows_matches_its_solo_run() {
        // A 20-token prompt is prefilled inside a step that also decodes
        // an in-flight request; both must get their batch-of-one tokens.
        let (base, cd, _) = setup();
        let vocab = base.config.vocab;
        let long: Vec<usize> = (0..20).map(|i| 1 + (i * 7) % (vocab - 1)).collect();
        let short = vec![1usize, 20, 21, 2];
        let solo = |prompt: &[usize], steps: usize| {
            let mut runner = DecoupledBatch::new(&base, vec![&cd]);
            let s = runner.admit(0, prompt);
            for _ in 0..steps {
                runner.decode_step();
            }
            runner.generated(s).to_vec()
        };
        let mut batch = DecoupledBatch::new(&base, vec![&cd]);
        let s1 = batch.admit(0, &short);
        for _ in 0..2 {
            batch.decode_step();
        }
        let s2 = batch.admit(0, &long);
        for _ in 0..3 {
            batch.decode_step();
        }
        assert_eq!(batch.generated(s1), &solo(&short, 5)[..]);
        assert_eq!(batch.generated(s2), &solo(&long, 3)[..]);
    }

    #[test]
    #[should_panic(expected = "delta layer layer0.w1 does not match its base weight's shape")]
    fn mis_shaped_delta_layer_is_refused_at_construction() {
        use dz_compress::codec::{PackedLayer, SignMatrix, SignScope};

        let (base, mut cd, _) = setup();
        // A sign layer one output short of its base weight.
        let (d_in, d_out) = base.get("layer0.w1").expect("param exists").shape();
        let short = SignMatrix::from_delta(&Matrix::zeros(d_in, d_out - 1), SignScope::PerRow);
        cd.layers
            .insert("layer0.w1".into(), PackedLayer::Sign(short));
        let _ = DecoupledBatch::new(&base, vec![&cd]);
    }

    #[test]
    #[should_panic(expected = "does not fit max_seq")]
    fn admit_refuses_a_prompt_longer_than_max_seq() {
        let (base, cd, _) = setup();
        let mut batch = DecoupledBatch::new(&base, vec![&cd]);
        let _ = batch.admit(0, &vec![1; base.config.max_seq + 1]);
    }
}
