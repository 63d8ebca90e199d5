//! Calibration-set activation capture.
//!
//! ΔCompress calibrates on a small sample of sequences (the paper uses 256
//! prompts from UltraChat). For each linear projection we need the matrix of
//! inputs it sees, both to build the OBS Hessian and to score output error.

use dz_model::tasks::Corpus;
use dz_model::transformer::{forward_infer, KvCache, Params};
use dz_tensor::{Matrix, Rng};

/// Generates a synthetic calibration set of `n` sequences.
pub fn calibration_set(corpus: &Corpus, n: usize, seed: u64) -> Vec<Vec<usize>> {
    let mut rng = Rng::seeded(seed);
    (0..n).map(|_| corpus.sample(&mut rng)).collect()
}

/// Stacks the inputs seen by one linear projection across sequences.
///
/// Returns a `(total_tokens, d_in)` matrix for the projection named
/// `target` under the given parameters.
///
/// # Panics
///
/// Panics if `target` names no linear projection in the model.
pub fn inputs_for(params: &Params, seqs: &[Vec<usize>], target: &str) -> Matrix {
    let mut chunks: Vec<Matrix> = Vec::with_capacity(seqs.len());
    for seq in seqs {
        let mut cache = KvCache::new(params.config.n_layers);
        let mut record = |name: &str, x: &Matrix| {
            if name == target {
                chunks.push(x.clone());
            }
        };
        forward_infer(params, seq, &mut cache, Some(&mut record));
    }
    assert!(
        !chunks.is_empty(),
        "no activations recorded for target {target}"
    );
    let refs: Vec<&Matrix> = chunks.iter().collect();
    Matrix::vstack(&refs)
}

/// Mean absolute activation per input channel (used by the AWQ baseline).
pub fn channel_mean_abs(x: &Matrix) -> Vec<f32> {
    let mut acc = vec![0.0f64; x.cols()];
    for r in 0..x.rows() {
        for (c, v) in x.row(r).iter().enumerate() {
            acc[c] += v.abs() as f64;
        }
    }
    acc.into_iter()
        .map(|v| (v / x.rows().max(1) as f64) as f32)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dz_model::transformer::test_config;

    #[test]
    fn calibration_set_is_deterministic() {
        let corpus = Corpus::new(24);
        let a = calibration_set(&corpus, 8, 42);
        let b = calibration_set(&corpus, 8, 42);
        assert_eq!(a, b);
        let c = calibration_set(&corpus, 8, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn inputs_for_every_linear_have_right_width() {
        let cfg = test_config();
        let mut rng = Rng::seeded(1);
        let params = Params::init(cfg, &mut rng);
        let corpus = Corpus::new(cfg.max_seq);
        let seqs = calibration_set(&corpus, 4, 7);
        let total_tokens: usize = seqs.iter().map(|s| s.len()).sum();
        for name in params.linear_layer_names() {
            let x = inputs_for(&params, &seqs, &name);
            let expected_width = params.get(&name).unwrap().rows();
            assert_eq!(x.cols(), expected_width, "{name}");
            assert_eq!(x.rows(), total_tokens, "{name}");
            assert!(x.data().iter().all(|v| v.is_finite()), "{name}");
        }
    }

    #[test]
    #[should_panic(expected = "no activations recorded")]
    fn unknown_target_panics() {
        let cfg = test_config();
        let mut rng = Rng::seeded(2);
        let params = Params::init(cfg, &mut rng);
        let _ = inputs_for(&params, &[vec![1, 2, 3]], "layer9.nope");
    }

    #[test]
    fn channel_mean_abs_matches_manual() {
        let x = Matrix::from_rows(&[&[1.0, -2.0], &[3.0, 0.0]]);
        let m = channel_mean_abs(&x);
        assert!((m[0] - 2.0).abs() < 1e-6);
        assert!((m[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn recorded_inputs_are_pinned() {
        // FNV-1a over the f32 bits of every projection's stacked inputs:
        // calibration must record the same activations bit for bit.
        let cfg = test_config();
        let params = Params::init(cfg, &mut Rng::seeded(4));
        let seqs = calibration_set(&Corpus::new(cfg.max_seq), 3, 5);
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for name in params.linear_layer_names() {
            for v in inputs_for(&params, &seqs, &name).data() {
                for b in v.to_bits().to_le_bytes() {
                    h ^= u64::from(b);
                    h = h.wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        assert_eq!(
            h, 0x6f92_487d_8738_d784,
            "recorded inputs changed: got {h:#018x}"
        );
    }

    #[test]
    fn probe_logits_match_forward_full() {
        // The probing forward must compute the same function as training.
        let cfg = test_config();
        let mut rng = Rng::seeded(3);
        let params = Params::init(cfg, &mut rng);
        let ids = vec![1usize, 10, 11, 12, 2];
        let mut cache = KvCache::new(cfg.n_layers);
        let via_probe = forward_infer(&params, &ids, &mut cache, Some(&mut |_, _| {}));
        let via_full = dz_model::transformer::forward_full(&params, &ids);
        assert!(
            via_probe.max_abs_diff(&via_full) < 1e-3,
            "probe and training forward disagree: {}",
            via_probe.max_abs_diff(&via_full)
        );
    }
}
