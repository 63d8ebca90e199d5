//! The calibration walk: Algorithm 1's layer-by-layer loop, written once.
//!
//! ΔCompress calibrates on a small sample of sequences (the paper uses 256
//! prompts from UltraChat). Each linear projection is compressed against
//! `X`, the inputs it sees under the model as reconstructed so far, both
//! to build the OBS Hessian and to score output error. [`calibration_walk`]
//! keeps every sequence's hidden state and advances it one block at a
//! time with dz-model's [`layer_infer`] step, so each projection's input
//! is captured once; every calibrated compressor is a closure over it.

use crate::obs::hessian_from_inputs;
use dz_model::tasks::Corpus;
use dz_model::transformer::{embed, layer_infer, KvCache, Params};
use dz_tensor::{Matrix, Rng};
use std::cell::OnceCell;

/// Generates a synthetic calibration set of `n` sequences.
pub fn calibration_set(corpus: &Corpus, n: usize, seed: u64) -> Vec<Vec<usize>> {
    let mut rng = Rng::seeded(seed);
    (0..n).map(|_| corpus.sample(&mut rng)).collect()
}

/// A block's projections grouped by input, in forward order: a stage's
/// input depends only on the weights of the stages before it.
const STAGES: [&[&str]; 4] = [&["wq", "wk", "wv"], &["wo"], &["w1"], &["w2"]];

/// A projection's calibration input, shared by the projections of one
/// stage (`wq`, `wk` and `wv` read the same input).
#[derive(Debug)]
pub struct CalibInput {
    x: Matrix,
    hessian: OnceCell<Matrix>,
}

impl CalibInput {
    /// `X`: the `(total_tokens, d_in)` inputs the projection sees over the
    /// calibration sequences, stacked in sequence order.
    pub fn x(&self) -> &Matrix {
        &self.x
    }

    /// The OBS Hessian `XᵀX` ([`hessian_from_inputs`]), built on first
    /// use and shared by every projection of the stage.
    pub fn hessian(&self) -> &Matrix {
        self.hessian.get_or_init(|| hessian_from_inputs(&[&self.x]))
    }
}

/// Walks `params` block by block and hands every linear projection's
/// calibration input to `compress`, in `linear_layer_names()` order.
///
/// `compress` gets the projection's stable name and its [`CalibInput`],
/// captured under `params` with every earlier replacement applied. It
/// returns the weight to propagate from then on, or `None` to keep the
/// current one. Per block, each stage runs the block's step once per
/// sequence; a last run advances the hidden states through the updated
/// block. Returns `params` with every replacement applied.
///
/// # Panics
///
/// Panics if `seqs` is empty: the OBS Hessian needs at least one input
/// row. Also panics if a sequence is empty or longer than `max_seq`.
pub fn calibration_walk(
    mut params: Params,
    seqs: &[Vec<usize>],
    mut compress: impl FnMut(&str, &CalibInput) -> Option<Matrix>,
) -> Params {
    assert!(!seqs.is_empty(), "calibration needs at least one sequence");
    let n_layers = params.layers.len();
    let mut hidden: Vec<Matrix> = seqs.iter().map(|s| embed(&params, s, 0)).collect();
    for li in 0..n_layers {
        for stage in STAGES {
            let first = format!("layer{li}.{}", stage[0]);
            let mut chunks = Vec::with_capacity(seqs.len());
            for h in &hidden {
                let mut record = |name: &str, x: &Matrix| {
                    if name == first {
                        chunks.push(x.clone());
                    }
                };
                let mut cache = KvCache::new(n_layers);
                layer_infer(&params, li, &mut h.clone(), &mut cache, Some(&mut record));
            }
            let input = CalibInput {
                x: Matrix::vstack(&chunks.iter().collect::<Vec<_>>()),
                hessian: OnceCell::new(),
            };
            for field in stage {
                let name = format!("layer{li}.{field}");
                if let Some(w) = compress(&name, &input) {
                    params.set(&name, w);
                }
            }
        }
        for h in &mut hidden {
            layer_infer(&params, li, h, &mut KvCache::new(n_layers), None);
        }
    }
    params
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
    use dz_model::transformer::{forward_full, layer_norm_row, test_config};

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
    fn walk_hands_out_each_linear_once_in_order() {
        let cfg = test_config();
        let mut rng = Rng::seeded(1);
        let params = Params::init(cfg, &mut rng);
        let corpus = Corpus::new(cfg.max_seq);
        let seqs = calibration_set(&corpus, 4, 7);
        let total_tokens: usize = seqs.iter().map(|s| s.len()).sum();
        let mut seen = Vec::new();
        calibration_walk(params.clone(), &seqs, |name, input| {
            let x = input.x();
            let expected_width = params.get(name).unwrap().rows();
            assert_eq!(x.shape(), (total_tokens, expected_width), "{name}");
            assert!(x.data().iter().all(|v| v.is_finite()), "{name}");
            seen.push(name.to_string());
            None
        });
        assert_eq!(seen, params.linear_layer_names());
    }

    #[test]
    #[should_panic(expected = "calibration needs at least one sequence")]
    fn empty_calibration_set_is_refused() {
        let params = Params::init(test_config(), &mut Rng::seeded(2));
        calibration_walk(params, &[], |_, _| None);
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
        // FNV-1a over the f32 bits of every projection's stacked inputs,
        // as the walk hands them out for an unchanged model: calibration
        // must capture the same activations bit for bit.
        let cfg = test_config();
        let params = Params::init(cfg, &mut Rng::seeded(4));
        let seqs = calibration_set(&Corpus::new(cfg.max_seq), 3, 5);
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        calibration_walk(params, &seqs, |_, input| {
            for v in input.x().data() {
                for b in v.to_bits().to_le_bytes() {
                    h ^= u64::from(b);
                    h = h.wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
            None
        });
        assert_eq!(
            h, 0x6f92_487d_8738_d784,
            "recorded inputs changed: got {h:#018x}"
        );
    }

    #[test]
    fn probe_logits_match_forward_full() {
        // The probing forward must compute the same function as training:
        // embed plus layer_infer with a recorder, then the final LayerNorm
        // and head, as the walk runs it on an empty cache.
        let cfg = test_config();
        let mut rng = Rng::seeded(3);
        let params = Params::init(cfg, &mut rng);
        let ids = vec![1usize, 10, 11, 12, 2];
        let mut cache = KvCache::new(cfg.n_layers);
        let mut x = embed(&params, &ids, 0);
        for li in 0..cfg.n_layers {
            layer_infer(&params, li, &mut x, &mut cache, Some(&mut |_, _| {}));
        }
        let mut normed = Matrix::zeros(x.rows(), x.cols());
        for r in 0..x.rows() {
            layer_norm_row(x.row(r), &params.lnf_g, &params.lnf_b, normed.row_mut(r));
        }
        let via_probe = normed.matmul(&params.head);
        let via_full = forward_full(&params, &ids);
        assert!(
            via_probe.max_abs_diff(&via_full) < 1e-3,
            "probe and training forward disagree: {}",
            via_probe.max_abs_diff(&via_full)
        );
    }
}
