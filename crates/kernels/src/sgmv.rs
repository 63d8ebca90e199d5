//! Punica-style SGMV adapter serving, runnable on CPU.
//!
//! Adapter variants (LoRA, and RoSA per §8) are served like deltas —
//! shared base GEMM plus a grouped per-adapter product — but the adapter
//! product is two skinny matmuls `(x A) B` scaled by `alpha/r` (SGMV:
//! segmented gather matrix-vector), plus an optional coordinate-format
//! sparse term for RoSA. An adapter joins the crate's one batch runner,
//! [`crate::BatchRunner`], as [`crate::Variant::adapter`] over an
//! [`AdapterView`]; its non-projection parameters (embeddings, norms,
//! biases, head) come from the shared base. The runner groups a step's
//! rows by adapter and applies [`AdapterWeights::product_into`] to each
//! adapter's gathered rows, mirroring the SBMM reorder (§5.2).

use dz_model::lora::LoraAdapter;
use dz_model::rosa::RosaAdapter;
use dz_tensor::Matrix;
use std::collections::BTreeMap;

/// A sparse matrix in coordinate format (RoSA's sparse component).
#[derive(Debug, Clone)]
pub struct SparseCoo {
    shape: (usize, usize),
    rows: Vec<u32>,
    cols: Vec<u32>,
    vals: Vec<f32>,
}

impl SparseCoo {
    /// Extracts the non-zeros of `values` on the support of `mask`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn from_masked(values: &Matrix, mask: &Matrix) -> Self {
        assert_eq!(values.shape(), mask.shape(), "mask shape mismatch");
        let (r, c) = values.shape();
        let mut out = SparseCoo {
            shape: (r, c),
            rows: Vec::new(),
            cols: Vec::new(),
            vals: Vec::new(),
        };
        for i in 0..r {
            for j in 0..c {
                if mask.get(i, j) != 0.0 {
                    out.rows.push(i as u32);
                    out.cols.push(j as u32);
                    out.vals.push(values.get(i, j));
                }
            }
        }
        out
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Matrix shape `(d_in, d_out)`.
    pub fn shape(&self) -> (usize, usize) {
        self.shape
    }

    /// Accumulates `y += x * S` for one activation row.
    ///
    /// # Panics
    ///
    /// Panics if row lengths do not match the sparse shape.
    pub fn accumulate_row(&self, x: &[f32], y: &mut [f32]) {
        assert_eq!(x.len(), self.shape.0, "input row length mismatch");
        assert_eq!(y.len(), self.shape.1, "output row length mismatch");
        for ((&r, &c), &v) in self.rows.iter().zip(&self.cols).zip(&self.vals) {
            y[c as usize] += x[r as usize] * v;
        }
    }
}

/// One adapted projection: `y += scale * (x A) B (+ x S)`.
pub struct AdapterWeights<'a> {
    /// Down projection `(d_in, r)`.
    pub a: &'a Matrix,
    /// Up projection `(r, d_out)`.
    pub b: &'a Matrix,
    /// Effective scale `alpha / r`.
    pub scale: f32,
    /// RoSA sparse component, if any.
    pub sparse: Option<SparseCoo>,
}

/// A variant's adapter resolved to per-projection weights, keyed by the
/// stable parameter name (`layer{i}.{field}`).
pub struct AdapterView<'a> {
    by_name: BTreeMap<String, AdapterWeights<'a>>,
}

impl<'a> AdapterView<'a> {
    /// View of a plain LoRA adapter.
    pub fn from_lora(adapter: &'a LoraAdapter) -> Self {
        let scale = adapter.scale();
        let by_name = adapter
            .pairs
            .iter()
            .map(|p| {
                (
                    p.name.clone(),
                    AdapterWeights {
                        a: &p.a,
                        b: &p.b,
                        scale,
                        sparse: None,
                    },
                )
            })
            .collect();
        AdapterView { by_name }
    }

    /// View of a RoSA adapter (low-rank pairs plus sparse components).
    pub fn from_rosa(adapter: &'a RosaAdapter) -> Self {
        let scale = adapter.scale();
        let by_name = adapter
            .pairs
            .iter()
            .zip(&adapter.sparse)
            .map(|(p, s)| {
                (
                    p.name.clone(),
                    AdapterWeights {
                        a: &p.a,
                        b: &p.b,
                        scale,
                        sparse: Some(SparseCoo::from_masked(&s.values, &s.mask)),
                    },
                )
            })
            .collect();
        AdapterView { by_name }
    }

    /// Moves out the adapter weights for a projection, if it is adapted.
    pub(crate) fn take(&mut self, name: &str) -> Option<AdapterWeights<'a>> {
        self.by_name.remove(name)
    }
}

impl AdapterWeights<'_> {
    /// The adapter product for a group of rows sharing this adapter:
    /// `y = scale · (x A) B + x S`, two skinny GEMMs `(g, d_in)(d_in, r)`
    /// then `(g, r)(r, d_out)` plus the sparse term. `y` and `xa` (the
    /// down projection) are reshaped and overwritten; their allocations
    /// are reused. Each row's result depends only on that row.
    pub fn product_into(&self, x: &Matrix, y: &mut Matrix, xa: &mut Matrix) {
        x.matmul_into(self.a, xa);
        xa.matmul_into(self.b, y);
        y.scale_assign(self.scale);
        if let Some(sparse) = &self.sparse {
            for r in 0..x.rows() {
                sparse.accumulate_row(x.row(r), y.row_mut(r));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{BatchRunner, Variant};
    use dz_model::lora::{finetune_lora, LoraConfig};
    use dz_model::rosa::{finetune_rosa, RosaConfig};
    use dz_model::tasks::{Corpus, SentimentTask};
    use dz_model::train::{pretrain, TrainConfig};
    use dz_model::transformer::test_config;
    use dz_model::transformer::Params;
    use dz_tensor::Rng;

    fn base() -> Params {
        let cfg = test_config();
        let mut rng = Rng::seeded(1);
        let mut p = Params::init(cfg, &mut rng);
        pretrain(&mut p, &Corpus::new(cfg.max_seq), TrainConfig::pretrain(50));
        p
    }

    fn adapters<'a>(views: impl IntoIterator<Item = AdapterView<'a>>) -> Vec<Variant<'a>> {
        views.into_iter().map(Variant::adapter).collect()
    }

    fn short_train() -> TrainConfig {
        TrainConfig {
            steps: 60,
            batch: 4,
            lr: 1e-2,
            clip: 1.0,
            seed: 2,
        }
    }

    #[test]
    fn sparse_coo_matches_dense_product() {
        let mut rng = Rng::seeded(3);
        let dense = Matrix::randn(6, 5, 1.0, &mut rng);
        let mut mask = Matrix::zeros(6, 5);
        let mut masked = Matrix::zeros(6, 5);
        for i in 0..6 {
            let c = (i * 2) % 5;
            mask.set(i, c, 1.0);
            masked.set(i, c, dense.get(i, c));
        }
        let coo = SparseCoo::from_masked(&masked, &mask);
        assert_eq!(coo.nnz(), 6);
        let x: Vec<f32> = (0..6).map(|i| i as f32 + 0.5).collect();
        let mut y = vec![0.0f32; 5];
        coo.accumulate_row(&x, &mut y);
        let want = Matrix::from_rows(&[&x]).matmul(&masked);
        for (c, &yc) in y.iter().enumerate() {
            assert!((yc - want.get(0, c)).abs() < 1e-5);
        }
    }

    #[test]
    fn sgmv_matches_per_request_dense_math() {
        let p = base();
        let mut rng = Rng::seeded(4);
        let a1 = dz_model::lora::LoraAdapter::init(&p, LoraConfig::rank(2), &mut rng);
        let a2 = dz_model::lora::LoraAdapter::init(&p, LoraConfig::rank(4), &mut rng);
        let mut v1 = AdapterView::from_lora(&a1);
        let mut v2 = AdapterView::from_lora(&a2);
        let name = "layer0.wq";
        let w = p.get(name).unwrap();
        let x = Matrix::randn(5, w.rows(), 1.0, &mut rng);
        let idx = [0usize, 1, 0, 1, 1];
        let weights = [v1.take(name).unwrap(), v2.take(name).unwrap()];
        let (mut y, mut xa) = (Matrix::default(), Matrix::default());
        for (ai, adapter) in [&a1, &a2].into_iter().enumerate() {
            // The adapter's rows, gathered as the runner does.
            let rows: Vec<usize> = (0..idx.len()).filter(|&i| idx[i] == ai).collect();
            let xg = Matrix::from_rows(&rows.iter().map(|&i| x.row(i)).collect::<Vec<_>>());
            weights[ai].product_into(&xg, &mut y, &mut xa);
            let pair = adapter.pairs.iter().find(|pr| pr.name == name).unwrap();
            for (gi, &i) in rows.iter().enumerate() {
                let xi = x.submatrix(i, 0, 1, x.cols());
                let want = xi.matmul(&pair.a).matmul(&pair.b).scale(adapter.scale());
                for c in 0..w.cols() {
                    assert!((y.get(gi, c) - want.get(0, c)).abs() < 1e-4);
                }
            }
        }
    }

    #[test]
    fn lora_batch_matches_merged_model() {
        let p = base();
        let mut rng = Rng::seeded(5);
        let mut adapter = dz_model::lora::LoraAdapter::init(&p, LoraConfig::rank(4), &mut rng);
        finetune_lora(&p, &mut adapter, &SentimentTask, short_train());
        let merged = adapter.merge(&p);
        let prompt = vec![1usize, 20, 21, 2];
        let want = dz_model::eval::greedy_generate(&merged, &prompt, 4);
        let mut batch = BatchRunner::new(&p, adapters([AdapterView::from_lora(&adapter)]));
        let slot = batch.admit(0, &prompt);
        for _ in 0..4 {
            batch.decode_step();
        }
        assert_eq!(batch.generated(slot), &want[..]);
    }

    #[test]
    fn rosa_batch_matches_merged_model() {
        let p = base();
        let mut rng = Rng::seeded(6);
        let mut adapter = RosaAdapter::init(&p, RosaConfig::new(2, 0.05), &mut rng);
        finetune_rosa(&p, &mut adapter, &SentimentTask, short_train());
        assert!(adapter.sparse.iter().any(|s| s.nnz() > 0));
        let merged = adapter.merge(&p);
        let prompt = vec![1usize, 22, 23, 2];
        let want = dz_model::eval::greedy_generate(&merged, &prompt, 4);
        let mut batch = BatchRunner::new(&p, adapters([AdapterView::from_rosa(&adapter)]));
        let slot = batch.admit(0, &prompt);
        for _ in 0..4 {
            batch.decode_step();
        }
        assert_eq!(batch.generated(slot), &want[..]);
    }

    #[test]
    fn mixed_lora_rosa_batch_keeps_requests_separate() {
        let p = base();
        let mut rng = Rng::seeded(7);
        let mut lora = dz_model::lora::LoraAdapter::init(&p, LoraConfig::rank(2), &mut rng);
        finetune_lora(&p, &mut lora, &SentimentTask, short_train());
        let mut rosa = RosaAdapter::init(&p, RosaConfig::new(2, 0.03), &mut rng);
        finetune_rosa(&p, &mut rosa, &dz_model::tasks::NliTask, short_train());
        let m1 = lora.merge(&p);
        let m2 = rosa.merge(&p);
        let p1 = vec![1usize, 20, 21, 2];
        let p2 = vec![1usize, 25, 2, 30, 4];
        let w1 = dz_model::eval::greedy_generate(&m1, &p1, 3);
        let w2 = dz_model::eval::greedy_generate(&m2, &p2, 3);
        let views = [AdapterView::from_lora(&lora), AdapterView::from_rosa(&rosa)];
        let mut batch = BatchRunner::new(&p, adapters(views));
        let s1 = batch.admit(0, &p1);
        let s2 = batch.admit(1, &p2);
        for _ in 0..3 {
            batch.decode_step();
        }
        assert_eq!(batch.generated(s1), &w1[..], "lora request diverged");
        assert_eq!(batch.generated(s2), &w2[..], "rosa request diverged");
    }

    #[test]
    #[should_panic(expected = "adapter out of range")]
    fn out_of_range_adapter_rejected() {
        let p = base();
        let mut batch = BatchRunner::new(&p, adapters([]));
        let _ = batch.admit(0, &[1, 2]);
    }
}
