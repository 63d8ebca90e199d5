//! Low-rank adaptation (LoRA), the PEFT baseline.
//!
//! Each adapted projection `W (m x n)` gains a pair `A (m x r)`, `B (r x n)`
//! applied as `h W + (alpha / r) (h A) B` with the base frozen. `A` is
//! random-normal, `B` starts at zero so training begins at the base model.
//! Rank caps the expressiveness of the update — which is exactly why LoRA
//! trails full-model tuning on the hard tasks (Figure 2 of the paper).

use crate::autograd::Tape;
use crate::tasks::Task;
use crate::train::{zeros_like, Adam, BatchItem, TrainConfig};
use crate::transformer::{forward_graph, ModelConfig, ParamNodes, Params};
use dz_tensor::{Matrix, Rng};

/// Which projections receive adapters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoraTargets {
    /// Only `wq` and `wv` (the classic recipe).
    AttentionQv,
    /// All six linear projections per layer.
    AllLinear,
}

/// LoRA hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct LoraConfig {
    /// Adapter rank.
    pub rank: usize,
    /// Scaling numerator; the effective scale is `alpha / rank`.
    pub alpha: f32,
    /// Which projections to adapt.
    pub targets: LoraTargets,
}

impl LoraConfig {
    /// The classic `r`-rank attention-only configuration.
    pub fn rank(rank: usize) -> Self {
        LoraConfig {
            rank,
            alpha: 2.0 * rank as f32,
            targets: LoraTargets::AllLinear,
        }
    }
}

/// One adapted projection.
#[derive(Debug, Clone)]
pub struct LoraPair {
    /// Stable parameter name of the adapted base weight (e.g. `layer0.wq`).
    pub name: String,
    /// Down projection `(m, r)`.
    pub a: Matrix,
    /// Up projection `(r, n)`.
    pub b: Matrix,
}

/// A full adapter: one pair per adapted projection.
#[derive(Debug, Clone)]
pub struct LoraAdapter {
    /// Configuration used to build the adapter.
    pub config: LoraConfig,
    /// The adapted pairs in layer order.
    pub pairs: Vec<LoraPair>,
}

fn target_names(model: &ModelConfig, targets: LoraTargets) -> Vec<String> {
    let fields: &[&str] = match targets {
        LoraTargets::AttentionQv => &["wq", "wv"],
        LoraTargets::AllLinear => &["wq", "wk", "wv", "wo", "w1", "w2"],
    };
    let mut out = Vec::new();
    for i in 0..model.n_layers {
        for f in fields {
            out.push(format!("layer{i}.{f}"));
        }
    }
    out
}

impl LoraAdapter {
    /// Initializes adapters for `params` (A random, B zero).
    pub fn init(params: &Params, config: LoraConfig, rng: &mut Rng) -> Self {
        let pairs = target_names(&params.config, config.targets)
            .into_iter()
            .map(|name| {
                let w = params.get(&name).expect("target exists");
                LoraPair {
                    a: Matrix::randn(w.rows(), config.rank, 0.05, rng),
                    b: Matrix::zeros(config.rank, w.cols()),
                    name,
                }
            })
            .collect();
        LoraAdapter { config, pairs }
    }

    /// Effective scale `alpha / rank`.
    pub fn scale(&self) -> f32 {
        self.config.alpha / self.config.rank as f32
    }

    /// Parameter count of the adapter.
    pub fn param_count(&self) -> usize {
        self.pairs.iter().map(|p| p.a.len() + p.b.len()).sum()
    }

    /// Bytes at FP16 (the paper's adapter serving precision).
    pub fn fp16_bytes(&self) -> usize {
        self.param_count() * 2
    }

    /// Merges the adapter into a copy of the base parameters.
    pub fn merge(&self, base: &Params) -> Params {
        let mut out = base.clone();
        let s = self.scale();
        for p in &self.pairs {
            let delta = p.a.matmul(&p.b).scale(s);
            let w = out.get(&p.name).expect("target exists").add(&delta);
            out.set(&p.name, w);
        }
        out
    }
}

/// Runs one task item forward and backward through the frozen base with
/// adapter terms on every adapted projection: `(alpha/r) (h A) B` per
/// LoRA pair, plus RoSA's `h S` when `sparse` (parallel to `pairs`) is
/// non-empty. Hands each adapter tensor's gradient to `grad` with its
/// index in per-pair `[A, B]` (or `[A, B, S]`) order; returns the loss.
pub(crate) fn adapter_backward(
    base: &Params,
    pairs: &[LoraPair],
    sparse: &[&Matrix],
    scale: f32,
    item: &BatchItem,
    mut grad: impl FnMut(usize, &Matrix),
) -> f32 {
    let mut tape = Tape::new();
    let mut leaves = Vec::new();
    for (i, p) in pairs.iter().enumerate() {
        leaves.push(tape.leaf(p.a.clone()));
        leaves.push(tape.leaf(p.b.clone()));
        if let Some(&s) = sparse.get(i) {
            leaves.push(tape.leaf(s.clone()));
        }
    }
    let per_pair = if sparse.is_empty() { 2 } else { 3 };
    // The base is frozen, so backward skips its (dominant) gradient
    // matmuls entirely.
    let nodes = ParamNodes::frozen(&mut tape, base);
    let n = item.tokens.len();
    let logits = forward_graph(
        &mut tape,
        &nodes,
        &item.tokens[..n - 1],
        |tape, h, w, b, name| {
            let y = tape.linear(h, w, b);
            let Some(pi) = pairs.iter().position(|p| p.name == name) else {
                return y;
            };
            let adapter = &leaves[pi * per_pair..(pi + 1) * per_pair];
            let ha = tape.matmul(h, adapter[0]);
            let hab = tape.matmul(ha, adapter[1]);
            let scaled = tape.scale(hab, scale);
            let y = tape.add(y, scaled);
            match adapter.get(2) {
                Some(&s) => {
                    let hs = tape.matmul(h, s);
                    tape.add(y, hs)
                }
                None => y,
            }
        },
    );
    let loss = tape.cross_entropy(logits, &item.tokens[1..], &item.weights);
    let value = tape.value(loss).get(0, 0);
    tape.backward(loss);
    for (i, &leaf) in leaves.iter().enumerate() {
        if let Some(g) = tape.grad(leaf) {
            grad(i, g);
        }
    }
    value
}

/// Trains the adapter on a task with the base frozen; returns step losses.
pub fn finetune_lora(
    base: &Params,
    adapter: &mut LoraAdapter,
    task: &dyn Task,
    cfg: TrainConfig,
) -> Vec<f32> {
    let mut rng = Rng::seeded(cfg.seed);
    let tensors: Vec<&Matrix> = adapter.pairs.iter().flat_map(|p| [&p.a, &p.b]).collect();
    let mut opt = Adam::new(&tensors, cfg.lr);
    let zeros = zeros_like(&tensors);
    let scale = adapter.scale();
    let mut losses = Vec::with_capacity(cfg.steps);
    for _ in 0..cfg.steps {
        let mut grads = zeros.clone();
        let mut loss_sum = 0.0f32;
        for _ in 0..cfg.batch {
            let ex = task.sample(&mut rng);
            let item = BatchItem::task(ex.tokens, ex.answer_len);
            loss_sum += adapter_backward(base, &adapter.pairs, &[], scale, &item, |i, g| {
                grads[i].add_assign(g)
            });
        }
        for g in &mut grads {
            g.scale_assign(1.0 / cfg.batch as f32);
        }
        let params_mut: Vec<&mut Matrix> = adapter
            .pairs
            .iter_mut()
            .flat_map(|p| [&mut p.a, &mut p.b])
            .collect();
        opt.step(params_mut, &grads);
        losses.push(loss_sum / cfg.batch as f32);
    }
    losses
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tasks::RecallTask;
    use crate::transformer::test_config;

    #[test]
    fn fresh_adapter_is_identity() {
        let cfg = test_config();
        let mut rng = Rng::seeded(1);
        let base = Params::init(cfg, &mut rng);
        let adapter = LoraAdapter::init(&base, LoraConfig::rank(4), &mut rng);
        // B = 0 means merge(base) == base.
        let merged = adapter.merge(&base);
        let bts = base.tensors();
        for (a, b) in merged.tensors().into_iter().zip(bts) {
            assert!(a.max_abs_diff(b) < 1e-7);
        }
    }

    #[test]
    fn adapter_is_much_smaller_than_dense_delta() {
        let cfg = test_config();
        let mut rng = Rng::seeded(2);
        let base = Params::init(cfg, &mut rng);
        let adapter = LoraAdapter::init(&base, LoraConfig::rank(2), &mut rng);
        let dense_fp16_bytes: usize = adapter
            .pairs
            .iter()
            .map(|p| base.get(&p.name).expect("target exists").len() * 2)
            .sum();
        assert!(adapter.fp16_bytes() * 2 < dense_fp16_bytes);
    }

    #[test]
    fn lora_learns_easy_task_while_base_is_frozen() {
        // LoRA presumes a pretrained base whose features the low-rank update
        // can recombine; give it a learning-sized one.
        let cfg = crate::transformer::ModelConfig {
            d_model: 32,
            n_heads: 4,
            d_ff: 64,
            ..test_config()
        };
        let mut rng = Rng::seeded(3);
        let mut base = Params::init(cfg, &mut rng);
        let corpus = crate::tasks::Corpus::new(cfg.max_seq);
        crate::train::pretrain(&mut base, &corpus, crate::train::TrainConfig::pretrain(300));
        let base_snapshot = base.clone();
        let mut adapter = LoraAdapter::init(&base, LoraConfig::rank(8), &mut rng);
        let losses = finetune_lora(
            &base,
            &mut adapter,
            &RecallTask,
            TrainConfig {
                steps: 500,
                batch: 8,
                lr: 1e-2,
                clip: 1.0,
                seed: 5,
            },
        );
        let early: f32 = losses[..10].iter().sum::<f32>() / 10.0;
        let late: f32 = losses[losses.len() - 10..].iter().sum::<f32>() / 10.0;
        // The pretrained base already predicts the label format, so the
        // starting loss is low; require improvement, not a fixed ratio.
        assert!(late < early, "lora loss {early} -> {late}");
        // Base untouched.
        let bts = base_snapshot.tensors();
        for (a, b) in base.tensors().into_iter().zip(bts) {
            assert_eq!(a, b);
        }
        // Merged model learns the token association well above chance.
        let merged = adapter.merge(&base);
        let acc = crate::eval::task_accuracy(&merged, &RecallTask, 200, &mut Rng::seeded(6));
        assert!(acc > 0.6, "lora accuracy {acc}");
    }

    #[test]
    fn target_selection_respects_config() {
        let cfg = test_config();
        let mut rng = Rng::seeded(4);
        let base = Params::init(cfg, &mut rng);
        let qv = LoraAdapter::init(
            &base,
            LoraConfig {
                rank: 2,
                alpha: 4.0,
                targets: LoraTargets::AttentionQv,
            },
            &mut rng,
        );
        assert_eq!(qv.pairs.len(), 2 * cfg.n_layers);
        let all = LoraAdapter::init(&base, LoraConfig::rank(2), &mut rng);
        assert_eq!(all.pairs.len(), 6 * cfg.n_layers);
    }
}
