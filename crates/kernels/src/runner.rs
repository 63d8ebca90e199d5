//! The one batched decode runner for deltas and adapters.
//!
//! [`BatchRunner`] decodes a batch of requests for different variants of
//! one base in lock-step, with a KV cache per request. Every linear layer
//! is decoupled as in Eq. 2 of the paper: one dense GEMM against the shared
//! base weight for the whole batch, plus each request's variant product,
//! merged before the next non-linearity (§5.1). Adapters ride the same
//! path with an SGMV product in place of SBMM (§8).
//!
//! Within a projection the order is fixed, so each output row gets the
//! same bits whichever variants share its batch:
//!
//! 1. the shared base GEMM ([`dense_gemm`]);
//! 2. the rows of packed deltas, through one [`sbmm_grouped`] call;
//! 3. the rows of adapters, through one [`sgmv_grouped`] call;
//! 4. the rows of dense-fallback deltas, accumulating `x·Δ` in place;
//! 5. the variant's bias.
//!
//! Non-projection parameters (embeddings, norms, biases, head) come from a
//! delta's `rest` with base fallback, and from the base for adapters.
//! Everything else in the step is dz-model's inference arithmetic, called
//! per request row: [`layer_norm_row`], [`KvCache::attend`] against the
//! request's own cache, [`gelu`] and the greedy [`argmax`]. So the served
//! step computes the same model as `dz_model::transformer::forward_infer`
//! on the reconstructed weights, up to the linears' rounding.
//! [`crate::decoupled::DecoupledBatch`] builds a runner over deltas alone.

use crate::qgemm::dense_gemm;
use crate::sbmm::sbmm_grouped;
use crate::sgmv::{sgmv_grouped, AdapterView};
use dz_compress::codec::PackedLayer;
use dz_compress::pipeline::CompressedDelta;
use dz_model::transformer::{argmax, gelu, layer_norm_row, KvCache, Params};
use dz_tensor::Matrix;
use std::collections::BTreeMap;

/// One variant a [`BatchRunner`] serves; its constructors pick the kind.
pub struct Variant<'a>(Kind<'a>);

/// The closed set of variant kinds.
enum Kind<'a> {
    /// A delta whose layers are all group-quantized: served through SBMM.
    Packed(&'a CompressedDelta),
    /// A delta in a format with no SBMM kernel (BitDelta, Delta-CoMe),
    /// with its layers dequantized once, keyed by layer name.
    Dense(&'a CompressedDelta, BTreeMap<String, Matrix>),
    /// A LoRA or RoSA adapter: served through SGMV.
    Adapter(AdapterView<'a>),
}

impl<'a> Variant<'a> {
    /// A compressed delta: served through SBMM when every layer is
    /// quantized, else through the dense fallback (dequantizing it here).
    pub fn delta(delta: &'a CompressedDelta) -> Self {
        if delta.layers.values().all(|l| l.as_quant().is_some()) {
            return Variant(Kind::Packed(delta));
        }
        let dense = delta
            .layers
            .iter()
            .map(|(name, l)| (name.clone(), l.dequantize()))
            .collect();
        Variant(Kind::Dense(delta, dense))
    }

    /// A LoRA or RoSA adapter, served through SGMV.
    pub fn adapter(view: AdapterView<'a>) -> Self {
        Variant(Kind::Adapter(view))
    }
}

/// A batched, decoupled decoder over one base model and many variants.
pub struct BatchRunner<'a> {
    base: &'a Params,
    variants: Vec<Variant<'a>>,
    slots: Vec<Slot>,
}

impl<'a> BatchRunner<'a> {
    /// Creates a runner over `base` and the given variants.
    pub fn new(base: &'a Params, variants: Vec<Variant<'a>>) -> Self {
        BatchRunner {
            base,
            variants,
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
        assert!(
            variant < self.variants.len(),
            "variant or adapter out of range"
        );
        assert!(!prompt.is_empty(), "empty prompt");
        let last = prompt.len() - 1;
        self.slots
            .push(Slot::new(variant, self.base.config.n_layers, prompt[last]));
        let idx = self.slots.len() - 1;
        // Prefill: feed all but the last prompt token (its logits appear at
        // the first decode step).
        for &tok in &prompt[..last] {
            let _ = self.step_tokens(&[(idx, tok)]);
        }
        idx
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

    /// A non-projection parameter of `variant`: a delta's `rest` entry,
    /// falling back to the base (adapters always use the base).
    fn param(&self, variant: usize, name: &str) -> &'a Matrix {
        let rest = match &self.variants[variant].0 {
            Kind::Packed(d) | Kind::Dense(d, _) => d.rest.get(name),
            Kind::Adapter(_) => None,
        };
        rest.unwrap_or_else(|| self.base.get(name).expect("param exists"))
    }

    /// Row-wise LayerNorm of `x` with each row's variant gain `{prefix}_g`
    /// and bias `{prefix}_b`.
    fn layer_norm(&self, x: &Matrix, idx: &[usize], prefix: &str) -> Matrix {
        let (g, b) = (format!("{prefix}_g"), format!("{prefix}_b"));
        let mut out = Matrix::zeros(x.rows(), x.cols());
        for (bi, &v) in idx.iter().enumerate() {
            layer_norm_row(
                x.row(bi),
                self.param(v, &g),
                self.param(v, &b),
                out.row_mut(bi),
            );
        }
        out
    }

    /// Decoupled projection `layer{li}.{field}` plus bias `layer{li}.{bias}`
    /// for a batch whose row `i` serves variant `idx[i]`, in the order the
    /// module docs give.
    fn linear(&self, x: &Matrix, idx: &[usize], li: usize, field: &str, bias: &str) -> Matrix {
        let name = format!("layer{li}.{field}");
        let w_base = self.base.get(&name).expect("param exists");
        let mut y = dense_gemm(x, w_base);
        let n = self.variants.len();
        let (mut packed, mut packed_of) = (Vec::new(), vec![None; n]);
        let (mut adapters, mut adapter_of) = (Vec::new(), vec![None; n]);
        for (vi, v) in self.variants.iter().enumerate() {
            match &v.0 {
                Kind::Packed(d) => {
                    packed_of[vi] = Some(packed.len());
                    packed.push(
                        d.layers
                            .get(&name)
                            .and_then(PackedLayer::as_quant)
                            .expect("packed delta has a quantized layer"),
                    );
                }
                Kind::Adapter(view) => {
                    adapter_of[vi] = Some(adapters.len());
                    adapters.push(view.get(&name));
                }
                Kind::Dense(..) => {}
            }
        }
        // One grouped call per kind, so each packed delta row is decoded
        // once per call; per-row accumulation does not depend on the batch.
        add_grouped(&mut y, x, idx, &packed_of, |xg, gi| {
            sbmm_grouped(xg, gi, &packed)
        });
        // Skipped when no adapter adapts this projection: its rows then
        // keep the base output untouched.
        if adapters.iter().any(Option::is_some) {
            add_grouped(&mut y, x, idx, &adapter_of, |xg, gi| {
                sgmv_grouped(xg, gi, &adapters, w_base.cols())
            });
        }
        for (bi, &v) in idx.iter().enumerate() {
            let Kind::Dense(_, layers) = &self.variants[v].0 else {
                continue;
            };
            let d = layers.get(&name).expect("delta layer exists");
            let yr = y.row_mut(bi);
            for (k, &xv) in x.row(bi).iter().enumerate() {
                if xv == 0.0 {
                    continue;
                }
                for (yv, &dv) in yr.iter_mut().zip(d.row(k)) {
                    *yv += xv * dv;
                }
            }
        }
        let bias = format!("layer{li}.{bias}");
        for (bi, &v) in idx.iter().enumerate() {
            let b = self.param(v, &bias);
            for (c, val) in y.row_mut(bi).iter_mut().enumerate() {
                *val += b.get(0, c);
            }
        }
        y
    }

    /// Core batched step: advances each `(slot, token)` by one position and
    /// returns each row's logits.
    fn step_tokens(&mut self, work: &[(usize, usize)]) -> Vec<Vec<f32>> {
        let cfg = self.base.config;
        let b = work.len();
        let idx: Vec<usize> = work.iter().map(|&(s, _)| self.slots[s].variant).collect();

        // Embedding lookup per request (token + absolute position).
        let mut x = Matrix::zeros(b, cfg.d_model);
        for (bi, &(slot, token)) in work.iter().enumerate() {
            let pos = self.slots[slot].cache.len();
            assert!(pos < cfg.max_seq, "sequence overflow");
            let tok_emb = self.param(idx[bi], "tok_emb");
            let pos_emb = self.param(idx[bi], "pos_emb");
            for (c, v) in x.row_mut(bi).iter_mut().enumerate() {
                *v = tok_emb.get(token, c) + pos_emb.get(pos, c);
            }
        }

        for li in 0..cfg.n_layers {
            let h = self.layer_norm(&x, &idx, &format!("layer{li}.ln1"));
            let q = self.linear(&h, &idx, li, "wq", "bq");
            let k = self.linear(&h, &idx, li, "wk", "bk");
            let v = self.linear(&h, &idx, li, "wv", "bv");
            // Attention per request against its own cache.
            let mut attn = Matrix::zeros(b, cfg.d_model);
            for (bi, &(slot, _)) in work.iter().enumerate() {
                let cache = &mut self.slots[slot].cache;
                cache.attend(
                    li,
                    q.row(bi),
                    k.row(bi),
                    v.row(bi),
                    cfg.n_heads,
                    attn.row_mut(bi),
                );
            }
            x.add_assign(&self.linear(&attn, &idx, li, "wo", "bo"));
            let h2 = self.layer_norm(&x, &idx, &format!("layer{li}.ln2"));
            let mut up = self.linear(&h2, &idx, li, "w1", "b1");
            up.map_assign(gelu);
            x.add_assign(&self.linear(&up, &idx, li, "w2", "b2"));
        }
        // Final norm + per-variant head.
        let xf = self.layer_norm(&x, &idx, "lnf");
        idx.iter()
            .enumerate()
            .map(|(bi, &v)| {
                let head = self.param(v, "head");
                (0..cfg.vocab)
                    .map(|c| {
                        let mut acc = 0.0f32;
                        for (r, xv) in xf.row(bi).iter().enumerate() {
                            acc += xv * head.get(r, c);
                        }
                        acc
                    })
                    .collect()
            })
            .collect()
    }
}

/// Adds a grouped kernel's output to the rows of `y` whose variant has a
/// group: `kernel` gets those rows of `x`, in batch order, and each row's
/// group index (`group_of[idx[row]]`).
fn add_grouped(
    y: &mut Matrix,
    x: &Matrix,
    idx: &[usize],
    group_of: &[Option<usize>],
    kernel: impl FnOnce(&Matrix, &[usize]) -> Matrix,
) {
    let (rows, groups): (Vec<usize>, Vec<usize>) = idx
        .iter()
        .enumerate()
        .filter_map(|(bi, &v)| group_of[v].map(|g| (bi, g)))
        .unzip();
    if rows.is_empty() {
        return;
    }
    let mut xg = Matrix::zeros(rows.len(), x.cols());
    for (gi, &bi) in rows.iter().enumerate() {
        xg.row_mut(gi).copy_from_slice(x.row(bi));
    }
    let yg = kernel(&xg, &groups);
    for (gi, &bi) in rows.iter().enumerate() {
        for (yv, &d) in y.row_mut(bi).iter_mut().zip(yg.row(gi)) {
            *yv += d;
        }
    }
}

/// A request being decoded by a batch runner.
#[derive(Debug)]
struct Slot {
    /// Index of the variant the request targets.
    variant: usize,
    /// Per-request KV cache.
    cache: KvCache,
    /// Last token fed (next decode input).
    last_token: usize,
    /// Tokens generated so far.
    generated: Vec<usize>,
}

impl Slot {
    /// Fresh slot for `variant` starting at `last_token`.
    fn new(variant: usize, n_layers: usize, last_token: usize) -> Self {
        Slot {
            variant,
            cache: KvCache::new(n_layers),
            last_token,
            generated: Vec::new(),
        }
    }
}
