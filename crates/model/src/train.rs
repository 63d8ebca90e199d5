//! Adam optimizer and the pre-training / fine-tuning loops.
//!
//! Pre-training teaches the base model the synthetic language; fine-tuning
//! (full-model, small learning rate, few steps) produces the model variants
//! whose deltas DeltaZip compresses. Keeping the fine-tuning learning rate
//! small is what yields the small-magnitude deltas of Figure 3 — the same
//! dynamic as real LLM fine-tuning.

use crate::autograd::Tape;
use crate::tasks::{Corpus, Task};
use crate::transformer::{forward_graph, ParamNodes, Params};
use dz_tensor::{Matrix, Rng};

/// Adam over a list of tensors, with an optional learning-rate multiplier
/// per tensor (bias-corrected, beta 0.9/0.999).
pub struct Adam {
    lr: f32,
    /// Per-tensor learning-rate multipliers (1.0 = the base rate).
    scales: Vec<f32>,
    m: Vec<Matrix>,
    v: Vec<Matrix>,
    t: u64,
}

impl Adam {
    const BETA1: f32 = 0.9;
    const BETA2: f32 = 0.999;
    const EPS: f32 = 1e-8;

    /// Creates state shaped like `tensors`, every tensor at rate `lr`.
    pub fn new(tensors: &[&Matrix], lr: f32) -> Self {
        Self::with_lr_scales(tensors, lr, vec![1.0; tensors.len()])
    }

    /// Creates state with a per-tensor learning-rate multiplier (RoSA
    /// trains its sparse component at its own rate).
    ///
    /// # Panics
    ///
    /// Panics if `scales` does not match `tensors`.
    pub fn with_lr_scales(tensors: &[&Matrix], lr: f32, scales: Vec<f32>) -> Self {
        assert_eq!(tensors.len(), scales.len(), "one scale per tensor");
        let zeros = zeros_like(tensors);
        Adam {
            lr,
            scales,
            m: zeros.clone(),
            v: zeros,
            t: 0,
        }
    }

    /// Applies one update; `params` and `grads` follow the order the state
    /// was created in.
    ///
    /// # Panics
    ///
    /// Panics if a gradient's shape differs from its parameter's.
    pub fn step<'g>(
        &mut self,
        params: Vec<&mut Matrix>,
        grads: impl IntoIterator<Item = &'g Matrix>,
    ) {
        self.t += 1;
        let (b1, b2, eps) = (Self::BETA1, Self::BETA2, Self::EPS);
        let bc1 = 1.0 - b1.powi(self.t as i32);
        let bc2 = 1.0 - b2.powi(self.t as i32);
        for (((p, g), scale), (m, v)) in params
            .into_iter()
            .zip(grads)
            .zip(&self.scales)
            .zip(self.m.iter_mut().zip(self.v.iter_mut()))
        {
            assert_eq!(p.shape(), g.shape(), "grad shape mismatch");
            let lr = self.lr * scale;
            for ((pw, gw), (mw, vw)) in p
                .data_mut()
                .iter_mut()
                .zip(g.data())
                .zip(m.data_mut().iter_mut().zip(v.data_mut().iter_mut()))
            {
                *mw = b1 * *mw + (1.0 - b1) * gw;
                *vw = b2 * *vw + (1.0 - b2) * gw * gw;
                *pw -= lr * (*mw / bc1) / ((*vw / bc2).sqrt() + eps);
            }
        }
    }
}

/// Zero matrices shaped like `tensors` (gradient and moment buffers).
pub(crate) fn zeros_like(tensors: &[&Matrix]) -> Vec<Matrix> {
    tensors
        .iter()
        .map(|m| Matrix::zeros(m.rows(), m.cols()))
        .collect()
}

/// Clips gradients to a global L2 norm; returns the pre-clip norm.
pub fn clip_global_norm(grads: &mut Params, max_norm: f32) -> f32 {
    let norm = grads.global_norm() as f32;
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        grads.for_each_mut(|_, m| m.scale_assign(scale));
    }
    norm
}

/// Knobs for a training run.
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    /// Optimizer steps.
    pub steps: usize,
    /// Sequences per step (gradient accumulation).
    pub batch: usize,
    /// Learning rate.
    pub lr: f32,
    /// Global-norm clip.
    pub clip: f32,
    /// RNG seed for data sampling.
    pub seed: u64,
}

impl TrainConfig {
    /// Sensible defaults for pre-training at tiny scale.
    pub fn pretrain(steps: usize) -> Self {
        TrainConfig {
            steps,
            batch: 8,
            lr: 3e-3,
            clip: 1.0,
            seed: 1234,
        }
    }

    /// Sensible defaults for fine-tuning (small LR: small deltas).
    pub fn finetune(steps: usize) -> Self {
        TrainConfig {
            steps,
            batch: 8,
            lr: 4e-4,
            clip: 1.0,
            seed: 4321,
        }
    }
}

/// A batch item: a token sequence plus per-target loss weights.
///
/// For a sequence `t_0..t_{n-1}` the model input is `t_0..t_{n-2}` and the
/// targets are `t_1..t_{n-1}`; `weights[i]` scales the loss on target `i`.
#[derive(Debug, Clone)]
pub struct BatchItem {
    /// Full token sequence.
    pub tokens: Vec<usize>,
    /// Per-target weights, length `tokens.len() - 1`.
    pub weights: Vec<f32>,
}

impl BatchItem {
    /// Language-modeling item: every target weighted equally.
    pub fn lm(tokens: Vec<usize>) -> Self {
        let w = vec![1.0; tokens.len().saturating_sub(1)];
        BatchItem { tokens, weights: w }
    }

    /// Task item: only the final `answer_len` targets carry loss.
    pub fn task(tokens: Vec<usize>, answer_len: usize) -> Self {
        let n = tokens.len() - 1;
        let mut weights = vec![0.0; n];
        for w in weights.iter_mut().skip(n - answer_len) {
            *w = 1.0;
        }
        BatchItem { tokens, weights }
    }
}

/// Computes loss and gradient for one item; returns the loss.
fn grad_one(params: &Params, item: &BatchItem, grads: &mut Params) -> f32 {
    let n = item.tokens.len();
    debug_assert!(n >= 2, "need at least two tokens");
    let input = &item.tokens[..n - 1];
    let targets = &item.tokens[1..];
    let mut tape = Tape::new();
    let nodes = ParamNodes::register(&mut tape, params);
    let logits = forward_graph(&mut tape, &nodes, input, |tape, h, w, b, _| {
        tape.linear(h, w, b)
    });
    let loss = tape.cross_entropy(logits, targets, &item.weights);
    let value = tape.value(loss).get(0, 0);
    tape.backward(loss);
    nodes.collect_grads(&tape, grads);
    value
}

/// Generic training loop over a sampler; returns per-step mean losses.
pub fn train(
    params: &mut Params,
    cfg: TrainConfig,
    sampler: impl FnMut(&mut Rng) -> BatchItem,
) -> Vec<f32> {
    let mut opt = Adam::new(&params.tensors(), cfg.lr);
    train_with(params, cfg, sampler, |p, g| {
        opt.step(p.tensors_mut(), g.tensors())
    })
}

/// The full-model training loop over any optimizer: `step` gets the
/// parameters and the batch-mean, norm-clipped gradients.
pub(crate) fn train_with(
    params: &mut Params,
    cfg: TrainConfig,
    mut sampler: impl FnMut(&mut Rng) -> BatchItem,
    mut step: impl FnMut(&mut Params, &Params),
) -> Vec<f32> {
    let mut rng = Rng::seeded(cfg.seed);
    let mut losses = Vec::with_capacity(cfg.steps);
    for _ in 0..cfg.steps {
        let mut grads = params.zeros_like();
        let mut loss_sum = 0.0f32;
        for _ in 0..cfg.batch {
            let item = sampler(&mut rng);
            loss_sum += grad_one(params, &item, &mut grads);
        }
        grads.for_each_mut(|_, m| m.scale_assign(1.0 / cfg.batch as f32));
        clip_global_norm(&mut grads, cfg.clip);
        step(params, &grads);
        losses.push(loss_sum / cfg.batch as f32);
    }
    losses
}

/// Pre-trains on the synthetic corpus.
pub fn pretrain(params: &mut Params, corpus: &Corpus, cfg: TrainConfig) -> Vec<f32> {
    train(params, cfg, |rng| BatchItem::lm(corpus.sample(rng)))
}

/// Full-model fine-tuning on a task (loss only on answer tokens).
pub fn finetune_fmt(params: &mut Params, task: &dyn Task, cfg: TrainConfig) -> Vec<f32> {
    train(params, cfg, |rng| {
        let ex = task.sample(rng);
        BatchItem::task(ex.tokens, ex.answer_len)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tasks::{RecallTask, SentimentTask};
    use crate::transformer::test_config;

    #[test]
    fn adam_reduces_loss_on_fixed_batch() {
        let cfg = test_config();
        let mut rng = Rng::seeded(1);
        let mut params = Params::init(cfg, &mut rng);
        let item = BatchItem::lm(vec![1, 10, 11, 12, 13]);
        let mut opt = Adam::new(&params.tensors(), 1e-2);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..30 {
            let mut grads = params.zeros_like();
            let l = grad_one(&params, &item, &mut grads);
            if first.is_none() {
                first = Some(l);
            }
            last = l;
            opt.step(params.tensors_mut(), grads.tensors());
        }
        assert!(
            last < first.unwrap() * 0.5,
            "loss did not drop: {} -> {last}",
            first.unwrap()
        );
    }

    #[test]
    fn clip_rescales_large_gradients() {
        let cfg = test_config();
        let mut rng = Rng::seeded(2);
        let mut g = Params::init(cfg, &mut rng);
        g.for_each_mut(|_, m| m.map_assign(|_| 10.0));
        let before = clip_global_norm(&mut g, 1.0);
        assert!(before > 1.0);
        assert!((g.global_norm() - 1.0).abs() < 1e-3);
        // Small gradients are untouched.
        let mut g2 = Params::init(cfg, &mut rng).zeros_like();
        g2.tok_emb.set(0, 0, 0.5);
        let n = clip_global_norm(&mut g2, 1.0);
        assert!((n - 0.5).abs() < 1e-6);
        assert_eq!(g2.tok_emb.get(0, 0), 0.5);
    }

    #[test]
    fn batch_item_task_weights_cover_answer_only() {
        let item = BatchItem::task(vec![1, 2, 3, 4, 5], 2);
        assert_eq!(item.weights, vec![0.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn training_learns_an_easy_task() {
        // End-to-end sanity: a tiny model learns sentiment far above chance.
        let cfg = test_config();
        let mut rng = Rng::seeded(3);
        let mut params = Params::init(cfg, &mut rng);
        let losses = finetune_fmt(
            &mut params,
            &SentimentTask,
            TrainConfig {
                steps: 120,
                batch: 8,
                lr: 3e-3,
                clip: 1.0,
                seed: 7,
            },
        );
        let early: f32 = losses[..10].iter().sum::<f32>() / 10.0;
        let late: f32 = losses[losses.len() - 10..].iter().sum::<f32>() / 10.0;
        assert!(late < early * 0.6, "loss {early} -> {late}");
        let acc = crate::eval::task_accuracy(&params, &SentimentTask, 200, &mut Rng::seeded(11));
        assert!(acc > 0.8, "accuracy only {acc}");
    }

    #[test]
    fn recall_task_is_learnable() {
        // The schema-lookup task needs a little width to memorize the
        // 20x20 table; use the learning-sized config.
        let cfg = crate::transformer::ModelConfig {
            d_model: 32,
            n_heads: 4,
            d_ff: 64,
            ..test_config()
        };
        let mut rng = Rng::seeded(4);
        let mut params = Params::init(cfg, &mut rng);
        finetune_fmt(
            &mut params,
            &RecallTask,
            TrainConfig {
                steps: 500,
                batch: 8,
                lr: 3e-3,
                clip: 1.0,
                seed: 8,
            },
        );
        let acc = crate::eval::task_accuracy(&params, &RecallTask, 200, &mut Rng::seeded(12));
        assert!(acc > 0.6, "accuracy only {acc}");
    }

    #[test]
    fn finetuning_from_base_produces_small_deltas() {
        let cfg = test_config();
        let mut rng = Rng::seeded(5);
        let mut base = Params::init(cfg, &mut rng);
        let corpus = Corpus::new(cfg.max_seq);
        pretrain(&mut base, &corpus, TrainConfig::pretrain(40));
        let mut tuned = base.clone();
        finetune_fmt(&mut tuned, &SentimentTask, TrainConfig::finetune(40));
        let delta = tuned.delta_from(&base);
        // The delta must be small relative to the weights themselves.
        let ratio = delta.global_norm() / base.global_norm();
        assert!(ratio < 0.35, "delta/base norm ratio {ratio}");
        // And adding it back must reproduce the tuned model.
        let mut rebuilt = base.clone();
        let dts = delta.tensors();
        for (r, d) in rebuilt.tensors_mut().into_iter().zip(dts) {
            r.add_assign(d);
        }
        let tts = tuned.tensors();
        for (a, b) in rebuilt.tensors().into_iter().zip(tts) {
            assert!(a.max_abs_diff(b) < 1e-6);
        }
    }
}
