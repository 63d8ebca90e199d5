//! GaLore: full-rank fine-tuning with low-rank gradient projection (§8).
//!
//! GaLore (Zhao et al., 2024) keeps optimizer state in a rank-`r` subspace:
//! each linear projection's gradient `G (m x n)` is projected to
//! `R = Pᵀ G (r x n)`, Adam runs on `R`, and the step `P · Adam(R)` is
//! applied to the *full* weight. Because the projector `P` is refreshed
//! periodically, the accumulated update is **full-rank** even though every
//! individual step is rank-`r` — which is exactly why LoRA-serving systems
//! cannot host GaLore-tuned models (§8) while DeltaZip serves them through
//! the ordinary ΔCompress delta path.
//!
//! Non-matrix parameters (embeddings, norms, biases, head) fall back to
//! plain Adam.

use crate::tasks::Task;
use crate::train::{train_with, BatchItem, TrainConfig};
use crate::transformer::Params;
use dz_tensor::{Matrix, Rng};
use std::collections::HashMap;

/// GaLore hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct GaloreConfig {
    /// Projection rank `r`.
    pub rank: usize,
    /// Optimizer steps between projector refreshes (`T` in the paper).
    pub refresh_every: usize,
}

impl GaloreConfig {
    /// The default recipe: rank `r`, refresh every 20 steps.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is zero.
    pub fn rank(rank: usize) -> Self {
        assert!(rank > 0, "rank must be positive");
        GaloreConfig {
            rank,
            refresh_every: 20,
        }
    }
}

/// Orthonormalizes the columns of `m` in place (modified Gram-Schmidt).
///
/// Columns that become numerically zero (e.g. a vanished gradient) are
/// replaced with unit basis vectors so the projector stays full column
/// rank.
pub fn orthonormalize_columns(m: &mut Matrix) {
    let (rows, cols) = m.shape();
    for c in 0..cols {
        for prev in 0..c {
            let mut dot = 0.0f32;
            for r in 0..rows {
                dot += m.get(r, c) * m.get(r, prev);
            }
            for r in 0..rows {
                let v = m.get(r, c) - dot * m.get(r, prev);
                m.set(r, c, v);
            }
        }
        let mut norm = 0.0f32;
        for r in 0..rows {
            norm += m.get(r, c) * m.get(r, c);
        }
        let norm = norm.sqrt();
        if norm > 1e-8 {
            for r in 0..rows {
                m.set(r, c, m.get(r, c) / norm);
            }
        } else {
            for r in 0..rows {
                m.set(r, c, if r == c % rows { 1.0 } else { 0.0 });
            }
        }
    }
}

/// Top-`r` left-singular-subspace estimate of `g` via two rounds of
/// subspace iteration warm-started from `seed` (or random).
fn refresh_projector(g: &Matrix, rank: usize, seed: Option<Matrix>, rng: &mut Rng) -> Matrix {
    let rows = g.rows();
    let mut p = match seed {
        Some(p) if p.shape() == (rows, rank) => p,
        _ => Matrix::randn(rows, rank, 1.0, rng),
    };
    for _ in 0..2 {
        // y = G (Gᵀ P): (m x n)(n x r) — never forms the m x m Gram matrix.
        let gt_p = g.matmul_tn(&p);
        p = g.matmul(&gt_p);
        orthonormalize_columns(&mut p);
    }
    p
}

struct MomentPair {
    m: Matrix,
    v: Matrix,
}

impl MomentPair {
    fn zeros(rows: usize, cols: usize) -> Self {
        MomentPair {
            m: Matrix::zeros(rows, cols),
            v: Matrix::zeros(rows, cols),
        }
    }

    /// Adam direction for gradient `g` (bias-corrected, beta 0.9/0.999).
    fn direction(&mut self, g: &Matrix, t: u64) -> Matrix {
        let (b1, b2, eps) = (0.9f32, 0.999f32, 1e-8f32);
        let bc1 = 1.0 - b1.powi(t as i32);
        let bc2 = 1.0 - b2.powi(t as i32);
        let mut out = Matrix::zeros(g.rows(), g.cols());
        for (((mw, vw), gw), ow) in self
            .m
            .data_mut()
            .iter_mut()
            .zip(self.v.data_mut().iter_mut())
            .zip(g.data())
            .zip(out.data_mut())
        {
            *mw = b1 * *mw + (1.0 - b1) * gw;
            *vw = b2 * *vw + (1.0 - b2) * gw * gw;
            *ow = (*mw / bc1) / ((*vw / bc2).sqrt() + eps);
        }
        out
    }
}

struct ProjectedState {
    p: Matrix,
    moments: MomentPair,
}

/// The GaLore optimizer over a full parameter set.
pub struct Galore {
    config: GaloreConfig,
    lr: f32,
    linear_names: std::collections::HashSet<String>,
    projected: HashMap<String, ProjectedState>,
    plain: HashMap<String, MomentPair>,
    t: u64,
    rng: Rng,
}

impl Galore {
    /// Creates optimizer state for `params`; every linear projection whose
    /// both dimensions exceed `rank` is trained in the projected subspace.
    pub fn new(params: &Params, config: GaloreConfig, lr: f32) -> Self {
        Galore {
            config,
            lr,
            linear_names: params.linear_layer_names().into_iter().collect(),
            projected: HashMap::new(),
            plain: HashMap::new(),
            t: 0,
            rng: Rng::seeded(0x6a10),
        }
    }

    fn is_projectable(&self, name: &str, shape: (usize, usize)) -> bool {
        shape.0 > self.config.rank && shape.1 > self.config.rank && self.linear_names.contains(name)
    }

    /// Applies one update step.
    pub fn step(&mut self, params: &mut Params, grads: &Params) {
        self.t += 1;
        let t = self.t;
        let refresh = (t - 1).is_multiple_of(self.config.refresh_every as u64);
        let rank = self.config.rank;
        let lr = self.lr;
        let mut names: Vec<(String, (usize, usize))> = Vec::new();
        params.for_each(|name, m| names.push((name.to_string(), m.shape())));
        for (name, shape) in names {
            let g = grads.get(&name).expect("grad layout matches params");
            if self.is_projectable(&name, shape) {
                // Split borrows: the projector table and its RNG are
                // disjoint fields.
                let Galore { projected, rng, .. } = &mut *self;
                let state = projected
                    .entry(name.clone())
                    .or_insert_with(|| ProjectedState {
                        p: Matrix::zeros(0, 0),
                        moments: MomentPair::zeros(rank, shape.1),
                    });
                if refresh || state.p.is_empty() {
                    let seed = (!state.p.is_empty()).then(|| state.p.clone());
                    state.p = refresh_projector(g, rank, seed, rng);
                }
                // R = Pᵀ G (r x n); Adam in the subspace; step P · dir.
                let r = state.p.matmul_tn(g);
                let dir = state.moments.direction(&r, t);
                let full = state.p.matmul(&dir);
                let w = params.get_mut(&name).expect("param exists");
                w.add_scaled(&full, -lr);
            } else {
                let state = self
                    .plain
                    .entry(name.clone())
                    .or_insert_with(|| MomentPair::zeros(shape.0, shape.1));
                let dir = state.direction(g, t);
                let w = params.get_mut(&name).expect("param exists");
                w.add_scaled(&dir, -lr);
            }
        }
    }
}

/// Full-model fine-tuning with the GaLore optimizer; returns step losses.
pub fn finetune_galore(
    params: &mut Params,
    task: &dyn Task,
    cfg: TrainConfig,
    gcfg: GaloreConfig,
) -> Vec<f32> {
    let mut opt = Galore::new(params, gcfg, cfg.lr);
    let sampler = |rng: &mut Rng| {
        let ex = task.sample(rng);
        BatchItem::task(ex.tokens, ex.answer_len)
    };
    train_with(params, cfg, sampler, |p, g| opt.step(p, g))
}

/// Residual fraction of the best rank-`r` approximation of `m`:
/// `||M - P Pᵀ M||_F / ||M||_F` with `P` from subspace iteration.
///
/// A LoRA-style update scores near zero at its own rank; a genuinely
/// full-rank update keeps a substantial residual.
pub fn low_rank_residual(m: &Matrix, rank: usize, rng: &mut Rng) -> f32 {
    let norm = m.frob_norm();
    if norm == 0.0 {
        return 0.0;
    }
    let mut p = refresh_projector(m, rank, None, rng);
    // Extra iterations for a tighter subspace estimate.
    for _ in 0..3 {
        let gt_p = m.matmul_tn(&p);
        p = m.matmul(&gt_p);
        orthonormalize_columns(&mut p);
    }
    let proj = p.matmul(&p.matmul_tn(m));
    m.sub(&proj).frob_norm() / norm
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lora::{finetune_lora, LoraAdapter, LoraConfig};
    use crate::tasks::{Corpus, RecallTask};
    use crate::train::pretrain;
    use crate::transformer::test_config;

    fn learning_config() -> crate::transformer::ModelConfig {
        crate::transformer::ModelConfig {
            d_model: 32,
            n_heads: 4,
            d_ff: 64,
            ..test_config()
        }
    }

    #[test]
    fn orthonormalize_yields_orthonormal_columns() {
        let mut rng = Rng::seeded(1);
        let mut m = Matrix::randn(16, 4, 1.0, &mut rng);
        orthonormalize_columns(&mut m);
        let gram = m.transpose().matmul(&m);
        for r in 0..4 {
            for c in 0..4 {
                let want = if r == c { 1.0 } else { 0.0 };
                assert!(
                    (gram.get(r, c) - want).abs() < 1e-4,
                    "gram[{r},{c}] = {}",
                    gram.get(r, c)
                );
            }
        }
    }

    #[test]
    fn orthonormalize_survives_zero_columns() {
        let mut m = Matrix::zeros(6, 3);
        orthonormalize_columns(&mut m);
        // Columns replaced with unit vectors; norms are 1.
        for c in 0..3 {
            let norm: f32 = (0..6).map(|r| m.get(r, c) * m.get(r, c)).sum();
            assert!((norm - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn low_rank_residual_separates_ranks() {
        let mut rng = Rng::seeded(2);
        // Exact rank-2 matrix: residual at rank 2 must vanish.
        let a = Matrix::randn(24, 2, 1.0, &mut rng);
        let b = Matrix::randn(2, 24, 1.0, &mut rng);
        let low = a.matmul(&b);
        assert!(low_rank_residual(&low, 2, &mut rng) < 1e-3);
        // A random dense matrix keeps substantial residual at rank 2.
        let dense = Matrix::randn(24, 24, 1.0, &mut rng);
        assert!(low_rank_residual(&dense, 2, &mut rng) > 0.3);
    }

    #[test]
    fn galore_learns_the_task() {
        let cfg = learning_config();
        let mut rng = Rng::seeded(3);
        let mut params = Params::init(cfg, &mut rng);
        let corpus = Corpus::new(cfg.max_seq);
        pretrain(&mut params, &corpus, TrainConfig::pretrain(300));
        let losses = finetune_galore(
            &mut params,
            &RecallTask,
            TrainConfig {
                steps: 400,
                batch: 8,
                lr: 3e-3,
                clip: 1.0,
                seed: 4,
            },
            GaloreConfig::rank(4),
        );
        let early: f32 = losses[..10].iter().sum::<f32>() / 10.0;
        let late: f32 = losses[losses.len() - 10..].iter().sum::<f32>() / 10.0;
        assert!(late < early, "galore loss {early} -> {late}");
        let acc = crate::eval::task_accuracy(&params, &RecallTask, 200, &mut Rng::seeded(5));
        assert!(acc > 0.6, "galore accuracy {acc}");
    }

    #[test]
    fn galore_updates_are_full_rank_unlike_lora() {
        // §8's serving argument: GaLore's accumulated delta is full-rank
        // (needs the delta path), LoRA's is exactly rank-r (adapter path).
        let cfg = learning_config();
        let mut rng = Rng::seeded(6);
        let mut base = Params::init(cfg, &mut rng);
        let corpus = Corpus::new(cfg.max_seq);
        pretrain(&mut base, &corpus, TrainConfig::pretrain(120));
        let rank = 2;
        let train_cfg = TrainConfig {
            steps: 120,
            batch: 4,
            lr: 3e-3,
            clip: 1.0,
            seed: 7,
        };

        let mut galore_model = base.clone();
        finetune_galore(&mut galore_model, &RecallTask, train_cfg, {
            GaloreConfig {
                rank,
                refresh_every: 10,
            }
        });
        let mut adapter = LoraAdapter::init(
            &base,
            LoraConfig {
                rank,
                alpha: 2.0 * rank as f32,
                targets: crate::lora::LoraTargets::AllLinear,
            },
            &mut rng,
        );
        finetune_lora(&base, &mut adapter, &RecallTask, train_cfg);
        let lora_model = adapter.merge(&base);

        let name = "layer0.wq";
        let galore_delta = galore_model
            .get(name)
            .expect("projection exists")
            .sub(base.get(name).expect("projection exists"));
        let lora_delta = lora_model
            .get(name)
            .expect("projection exists")
            .sub(base.get(name).expect("projection exists"));
        let galore_res = low_rank_residual(&galore_delta, rank, &mut rng);
        let lora_res = low_rank_residual(&lora_delta, rank, &mut rng);
        assert!(
            lora_res < 1e-3,
            "lora delta must be exactly rank-{rank}: residual {lora_res}"
        );
        assert!(
            galore_res > lora_res * 10.0 && galore_res > 0.05,
            "galore delta should be full-rank: residual {galore_res} vs lora {lora_res}"
        );
    }
}
