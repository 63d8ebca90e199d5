//! The decoder-only transformer: parameters, the training tape builder and
//! KV-cache inference, each written once.
//!
//! Architecture is a standard pre-LN GPT block:
//!
//! ```text
//! x   = tok_emb[ids] + pos_emb[0..T]
//! h   = LN1(x);  attn = MHA(h Wq + bq, h Wk + bk, h Wv + bv);  x += attn Wo + bo
//! h   = LN2(x);  x += GELU(h W1 + b1) W2 + b2
//! out = LNf(x) Whead
//! ```
//!
//! The six projection matrices per layer (`wq wk wv wo w1 w2`) are the
//! "linear layers" that DeltaZip compresses; embeddings, biases and
//! LayerNorm parameters stay in full precision, exactly as the paper leaves
//! embeddings uncompressed.
//!
//! [`forward_graph`] is the only tape builder: full training, LoRA and
//! RoSA differ only in the per-projection hook they pass it.
//! [`forward_infer`] is the only cached inference forward: [`embed`], one
//! [`layer_infer`] step per block, then the head. Calibration runs the
//! same step block by block with a recorder for projection inputs. Its
//! per-row primitives ([`layer_norm_row`], [`KvCache::attend`], [`gelu`],
//! [`argmax`]) are the ones the batched serving runner in `dz-kernels`
//! calls, so the served step and the reference compute the same model.

use crate::autograd::{NodeId, Tape};
use dz_tensor::{Matrix, Rng};

/// Hyper-parameters of a model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelConfig {
    /// Vocabulary size.
    pub vocab: usize,
    /// Residual width.
    pub d_model: usize,
    /// Number of transformer blocks.
    pub n_layers: usize,
    /// Attention heads (must divide `d_model`).
    pub n_heads: usize,
    /// MLP hidden width.
    pub d_ff: usize,
    /// Maximum sequence length (positional table size).
    pub max_seq: usize,
}

impl ModelConfig {
    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if `d_model % n_heads != 0` or any dimension is zero.
    pub fn validate(&self) {
        assert!(self.vocab > 0 && self.d_model > 0 && self.n_layers > 0);
        assert!(self.n_heads > 0 && self.d_ff > 0 && self.max_seq > 0);
        assert_eq!(
            self.d_model % self.n_heads,
            0,
            "d_model {} not divisible by heads {}",
            self.d_model,
            self.n_heads
        );
    }

    /// Total parameter count.
    pub fn param_count(&self) -> usize {
        let per_layer = 4 * self.d_model * self.d_model      // wq wk wv wo
            + 4 * self.d_model                               // bq bk bv bo
            + 2 * self.d_model * self.d_ff                   // w1 w2
            + self.d_ff + self.d_model                       // b1 b2
            + 4 * self.d_model; // ln1/ln2 gain+bias
        self.vocab * self.d_model                            // tok_emb
            + self.max_seq * self.d_model                    // pos_emb
            + self.n_layers * per_layer
            + 2 * self.d_model                               // lnf
            + self.d_model * self.vocab // head
    }
}

/// Parameters of one transformer block.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerParams {
    /// Query projection, `(d, d)`.
    pub wq: Matrix,
    /// Key projection, `(d, d)`.
    pub wk: Matrix,
    /// Value projection, `(d, d)`.
    pub wv: Matrix,
    /// Output projection, `(d, d)`.
    pub wo: Matrix,
    /// Query bias, `(1, d)`.
    pub bq: Matrix,
    /// Key bias, `(1, d)`.
    pub bk: Matrix,
    /// Value bias, `(1, d)`.
    pub bv: Matrix,
    /// Output bias, `(1, d)`.
    pub bo: Matrix,
    /// MLP up projection, `(d, ff)`.
    pub w1: Matrix,
    /// MLP up bias, `(1, ff)`.
    pub b1: Matrix,
    /// MLP down projection, `(ff, d)`.
    pub w2: Matrix,
    /// MLP down bias, `(1, d)`.
    pub b2: Matrix,
    /// Pre-attention LayerNorm gain, `(1, d)`.
    pub ln1_g: Matrix,
    /// Pre-attention LayerNorm bias, `(1, d)`.
    pub ln1_b: Matrix,
    /// Pre-MLP LayerNorm gain, `(1, d)`.
    pub ln2_g: Matrix,
    /// Pre-MLP LayerNorm bias, `(1, d)`.
    pub ln2_b: Matrix,
}

/// Full parameter set of a model.
#[derive(Debug, Clone, PartialEq)]
pub struct Params {
    /// Hyper-parameters this parameter set was built for.
    pub config: ModelConfig,
    /// Token embedding table, `(vocab, d)`.
    pub tok_emb: Matrix,
    /// Positional embedding table, `(max_seq, d)`.
    pub pos_emb: Matrix,
    /// Transformer blocks.
    pub layers: Vec<LayerParams>,
    /// Final LayerNorm gain.
    pub lnf_g: Matrix,
    /// Final LayerNorm bias.
    pub lnf_b: Matrix,
    /// Unembedding/head matrix, `(d, vocab)`.
    pub head: Matrix,
}

impl Params {
    /// Random initialization (scaled-normal weights, unit LayerNorm gains).
    pub fn init(config: ModelConfig, rng: &mut Rng) -> Self {
        config.validate();
        let d = config.d_model;
        let std = 0.08;
        let proj_std = std / (2.0 * config.n_layers as f32).sqrt();
        let layers = (0..config.n_layers)
            .map(|_| LayerParams {
                wq: Matrix::randn(d, d, std, rng),
                wk: Matrix::randn(d, d, std, rng),
                wv: Matrix::randn(d, d, std, rng),
                wo: Matrix::randn(d, d, proj_std, rng),
                bq: Matrix::zeros(1, d),
                bk: Matrix::zeros(1, d),
                bv: Matrix::zeros(1, d),
                bo: Matrix::zeros(1, d),
                w1: Matrix::randn(d, config.d_ff, std, rng),
                b1: Matrix::zeros(1, config.d_ff),
                w2: Matrix::randn(config.d_ff, d, proj_std, rng),
                b2: Matrix::zeros(1, d),
                ln1_g: Matrix::full(1, d, 1.0),
                ln1_b: Matrix::zeros(1, d),
                ln2_g: Matrix::full(1, d, 1.0),
                ln2_b: Matrix::zeros(1, d),
            })
            .collect();
        Params {
            config,
            tok_emb: Matrix::randn(config.vocab, d, std, rng),
            pos_emb: Matrix::randn(config.max_seq, d, std, rng),
            layers,
            lnf_g: Matrix::full(1, d, 1.0),
            lnf_b: Matrix::zeros(1, d),
            head: Matrix::randn(d, config.vocab, std, rng),
        }
    }

    /// Visits every parameter as `(name, matrix)` in a stable order.
    pub fn for_each(&self, mut f: impl FnMut(&str, &Matrix)) {
        f("tok_emb", &self.tok_emb);
        f("pos_emb", &self.pos_emb);
        for (i, l) in self.layers.iter().enumerate() {
            let names: [(&str, &Matrix); 16] = [
                ("wq", &l.wq),
                ("wk", &l.wk),
                ("wv", &l.wv),
                ("wo", &l.wo),
                ("bq", &l.bq),
                ("bk", &l.bk),
                ("bv", &l.bv),
                ("bo", &l.bo),
                ("w1", &l.w1),
                ("b1", &l.b1),
                ("w2", &l.w2),
                ("b2", &l.b2),
                ("ln1_g", &l.ln1_g),
                ("ln1_b", &l.ln1_b),
                ("ln2_g", &l.ln2_g),
                ("ln2_b", &l.ln2_b),
            ];
            for (n, m) in names {
                f(&format!("layer{i}.{n}"), m);
            }
        }
        f("lnf_g", &self.lnf_g);
        f("lnf_b", &self.lnf_b);
        f("head", &self.head);
    }

    /// Mutable visitor in the same stable order as [`Params::for_each`].
    pub fn for_each_mut(&mut self, mut f: impl FnMut(&str, &mut Matrix)) {
        f("tok_emb", &mut self.tok_emb);
        f("pos_emb", &mut self.pos_emb);
        for (i, l) in self.layers.iter_mut().enumerate() {
            let names: [(&str, &mut Matrix); 16] = [
                ("wq", &mut l.wq),
                ("wk", &mut l.wk),
                ("wv", &mut l.wv),
                ("wo", &mut l.wo),
                ("bq", &mut l.bq),
                ("bk", &mut l.bk),
                ("bv", &mut l.bv),
                ("bo", &mut l.bo),
                ("w1", &mut l.w1),
                ("b1", &mut l.b1),
                ("w2", &mut l.w2),
                ("b2", &mut l.b2),
                ("ln1_g", &mut l.ln1_g),
                ("ln1_b", &mut l.ln1_b),
                ("ln2_g", &mut l.ln2_g),
                ("ln2_b", &mut l.ln2_b),
            ];
            for (n, m) in names {
                f(&format!("layer{i}.{n}"), m);
            }
        }
        f("lnf_g", &mut self.lnf_g);
        f("lnf_b", &mut self.lnf_b);
        f("head", &mut self.head);
    }

    /// Names of the per-layer linear projections ΔCompress targets.
    pub fn linear_layer_names(&self) -> Vec<String> {
        let mut out = Vec::new();
        for i in 0..self.layers.len() {
            for n in ["wq", "wk", "wv", "wo", "w1", "w2"] {
                out.push(format!("layer{i}.{n}"));
            }
        }
        out
    }

    /// Looks up a parameter matrix by its stable name.
    pub fn get(&self, name: &str) -> Option<&Matrix> {
        match name {
            "tok_emb" => return Some(&self.tok_emb),
            "pos_emb" => return Some(&self.pos_emb),
            "lnf_g" => return Some(&self.lnf_g),
            "lnf_b" => return Some(&self.lnf_b),
            "head" => return Some(&self.head),
            _ => {}
        }
        let (layer, field) = parse_layer_name(name)?;
        let l = self.layers.get(layer)?;
        Some(match field {
            "wq" => &l.wq,
            "wk" => &l.wk,
            "wv" => &l.wv,
            "wo" => &l.wo,
            "bq" => &l.bq,
            "bk" => &l.bk,
            "bv" => &l.bv,
            "bo" => &l.bo,
            "w1" => &l.w1,
            "b1" => &l.b1,
            "w2" => &l.w2,
            "b2" => &l.b2,
            "ln1_g" => &l.ln1_g,
            "ln1_b" => &l.ln1_b,
            "ln2_g" => &l.ln2_g,
            "ln2_b" => &l.ln2_b,
            _ => return None,
        })
    }

    /// Mutable lookup by stable name.
    pub fn get_mut(&mut self, name: &str) -> Option<&mut Matrix> {
        match name {
            "tok_emb" => return Some(&mut self.tok_emb),
            "pos_emb" => return Some(&mut self.pos_emb),
            "lnf_g" => return Some(&mut self.lnf_g),
            "lnf_b" => return Some(&mut self.lnf_b),
            "head" => return Some(&mut self.head),
            _ => {}
        }
        let (layer, field) = parse_layer_name(name)?;
        let l = self.layers.get_mut(layer)?;
        Some(match field {
            "wq" => &mut l.wq,
            "wk" => &mut l.wk,
            "wv" => &mut l.wv,
            "wo" => &mut l.wo,
            "bq" => &mut l.bq,
            "bk" => &mut l.bk,
            "bv" => &mut l.bv,
            "bo" => &mut l.bo,
            "w1" => &mut l.w1,
            "b1" => &mut l.b1,
            "w2" => &mut l.w2,
            "b2" => &mut l.b2,
            "ln1_g" => &mut l.ln1_g,
            "ln1_b" => &mut l.ln1_b,
            "ln2_g" => &mut l.ln2_g,
            "ln2_b" => &mut l.ln2_b,
            _ => return None,
        })
    }

    /// Replaces a parameter matrix by name; returns `false` if absent.
    ///
    /// # Panics
    ///
    /// Panics if the replacement has a different shape.
    pub fn set(&mut self, name: &str, value: Matrix) -> bool {
        match self.get_mut(name) {
            Some(m) => {
                assert_eq!(m.shape(), value.shape(), "shape mismatch replacing {name}");
                *m = value;
                true
            }
            None => false,
        }
    }

    /// Total bytes at FP16 (2 bytes/param), the paper's serving precision.
    pub fn fp16_bytes(&self) -> usize {
        let mut total = 0usize;
        self.for_each(|_, m| total += m.len() * 2);
        total
    }

    /// All parameter matrices in the stable `for_each` order.
    pub fn tensors(&self) -> Vec<&Matrix> {
        let mut out = vec![&self.tok_emb, &self.pos_emb];
        for l in &self.layers {
            out.extend([
                &l.wq, &l.wk, &l.wv, &l.wo, &l.bq, &l.bk, &l.bv, &l.bo, &l.w1, &l.b1, &l.w2, &l.b2,
                &l.ln1_g, &l.ln1_b, &l.ln2_g, &l.ln2_b,
            ]);
        }
        out.extend([&self.lnf_g, &self.lnf_b, &self.head]);
        out
    }

    /// Mutable variant of [`Params::tensors`], same order.
    pub fn tensors_mut(&mut self) -> Vec<&mut Matrix> {
        let mut out: Vec<&mut Matrix> = vec![&mut self.tok_emb, &mut self.pos_emb];
        for l in &mut self.layers {
            out.extend([
                &mut l.wq,
                &mut l.wk,
                &mut l.wv,
                &mut l.wo,
                &mut l.bq,
                &mut l.bk,
                &mut l.bv,
                &mut l.bo,
                &mut l.w1,
                &mut l.b1,
                &mut l.w2,
                &mut l.b2,
                &mut l.ln1_g,
                &mut l.ln1_b,
                &mut l.ln2_g,
                &mut l.ln2_b,
            ]);
        }
        out.extend([&mut self.lnf_g, &mut self.lnf_b, &mut self.head]);
        out
    }

    /// A zero-filled clone with the same shapes (for gradient buffers).
    pub fn zeros_like(&self) -> Params {
        let mut z = self.clone();
        z.for_each_mut(|_, m| m.scale_assign(0.0));
        z
    }

    /// Frobenius norm over all parameters (for delta-magnitude reporting).
    pub fn global_norm(&self) -> f64 {
        let mut acc = 0.0f64;
        self.for_each(|_, m| {
            let n = m.frob_norm() as f64;
            acc += n * n;
        });
        acc.sqrt()
    }

    /// Elementwise delta `self - base` with the same layout.
    ///
    /// # Panics
    ///
    /// Panics if the two parameter sets have different shapes.
    pub fn delta_from(&self, base: &Params) -> Params {
        let mut d = self.clone();
        let base_t = base.tensors();
        for (dm, bm) in d.tensors_mut().into_iter().zip(base_t) {
            *dm = dm.sub(bm);
        }
        d
    }
}

/// Splits `"layer3.wq"` into `(3, "wq")`.
fn parse_layer_name(name: &str) -> Option<(usize, &str)> {
    let rest = name.strip_prefix("layer")?;
    let dot = rest.find('.')?;
    let idx: usize = rest[..dot].parse().ok()?;
    Some((idx, &rest[dot + 1..]))
}

/// Node handles for every parameter on a tape, in the stable
/// [`Params::tensors`] order.
pub struct ParamNodes {
    config: ModelConfig,
    ids: Vec<NodeId>,
}

/// Tensors per transformer block in [`Params::tensors`] order.
const LAYER_TENSORS: usize = 16;

impl ParamNodes {
    /// Registers every parameter as a trainable leaf on the tape.
    pub fn register(tape: &mut Tape, p: &Params) -> Self {
        Self::leaves(p, |m| tape.leaf(m.clone()))
    }

    /// Registers every parameter as a frozen leaf: backward computes no
    /// gradient for any of them (the base under adapter training).
    pub fn frozen(tape: &mut Tape, p: &Params) -> Self {
        Self::leaves(p, |m| tape.leaf_no_grad(m.clone()))
    }

    fn leaves(p: &Params, leaf: impl FnMut(&Matrix) -> NodeId) -> Self {
        ParamNodes {
            config: p.config,
            ids: p.tensors().into_iter().map(leaf).collect(),
        }
    }

    /// Accumulates gradients from the tape into `grads` (same layout as the
    /// parameters, pre-zeroed or freshly created by the caller); a
    /// parameter the graph never used contributes zero.
    pub fn collect_grads(&self, tape: &Tape, grads: &mut Params) {
        for (&id, dst) in self.ids.iter().zip(grads.tensors_mut()) {
            if let Some(g) = tape.grad(id) {
                dst.add_assign(g);
            }
        }
    }
}

/// Builds the forward graph for one sequence; returns the logits node.
///
/// Every linear projection goes through `linear(tape, h, w, b, name)`,
/// which gets the input activations, the weight and bias nodes and the
/// weight's stable parameter name (e.g. `layer0.wq`). Full training passes
/// [`Tape::linear`]; adapter methods add their terms on top of it.
///
/// # Panics
///
/// Panics if `ids` is empty or longer than `config.max_seq`.
pub fn forward_graph(
    tape: &mut Tape,
    nodes: &ParamNodes,
    ids: &[usize],
    mut linear: impl FnMut(&mut Tape, NodeId, NodeId, NodeId, &str) -> NodeId,
) -> NodeId {
    let config = &nodes.config;
    assert!(!ids.is_empty(), "empty sequence");
    assert!(ids.len() <= config.max_seq, "sequence longer than max_seq");
    let n = nodes.ids.len();
    let (tok_emb, pos_emb) = (nodes.ids[0], nodes.ids[1]);
    let (lnf_g, lnf_b, head) = (nodes.ids[n - 3], nodes.ids[n - 2], nodes.ids[n - 1]);
    let tok = tape.gather(tok_emb, ids);
    let positions: Vec<usize> = (0..ids.len()).collect();
    let pos = tape.gather(pos_emb, &positions);
    let mut x = tape.add(tok, pos);
    for (i, layer) in nodes.ids[2..n - 3].chunks_exact(LAYER_TENSORS).enumerate() {
        let &[wq, wk, wv, wo, bq, bk, bv, bo, w1, b1, w2, b2, ln1_g, ln1_b, ln2_g, ln2_b] = layer
        else {
            unreachable!("chunks_exact yields whole layers")
        };
        let h = tape.layer_norm(x, ln1_g, ln1_b);
        let q = linear(tape, h, wq, bq, &format!("layer{i}.wq"));
        let k = linear(tape, h, wk, bk, &format!("layer{i}.wk"));
        let v = linear(tape, h, wv, bv, &format!("layer{i}.wv"));
        let attn = tape.mha_causal(q, k, v, config.n_heads);
        let proj = linear(tape, attn, wo, bo, &format!("layer{i}.wo"));
        x = tape.add(x, proj);
        let h2 = tape.layer_norm(x, ln2_g, ln2_b);
        let up = linear(tape, h2, w1, b1, &format!("layer{i}.w1"));
        let act = tape.gelu(up);
        let down = linear(tape, act, w2, b2, &format!("layer{i}.w2"));
        x = tape.add(x, down);
    }
    let xf = tape.layer_norm(x, lnf_g, lnf_b);
    tape.matmul(xf, head)
}

/// Per-layer KV cache for incremental decoding.
#[derive(Debug, Clone)]
pub struct KvCache {
    layers: Vec<LayerKv>,
    /// One query row's attention scores, reused from row to row.
    scores: Vec<f32>,
}

/// One layer's cached keys and values, each row-major `(rows, d)`.
#[derive(Debug, Clone, Default)]
struct LayerKv {
    k: Vec<f32>,
    v: Vec<f32>,
    rows: usize,
}

impl KvCache {
    /// An empty cache for `n_layers` layers.
    pub fn new(n_layers: usize) -> Self {
        KvCache {
            layers: vec![LayerKv::default(); n_layers],
            scores: Vec::new(),
        }
    }

    /// Number of cached positions.
    pub fn len(&self) -> usize {
        self.layers.first().map_or(0, |l| l.rows)
    }

    /// Returns `true` if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Causal attention of one query row in layer `li`: appends the
    /// position's key and value rows to that layer's cache, then writes
    /// the attention of `q` over every cached position to `out`.
    ///
    /// `q`, `k`, `v` and `out` are `d` wide with `d % heads == 0`; scores
    /// use the `1/sqrt(d_head)` scaling.
    pub fn attend(
        &mut self,
        li: usize,
        q: &[f32],
        k: &[f32],
        v: &[f32],
        heads: usize,
        out: &mut [f32],
    ) {
        let d = q.len();
        let dh = d / heads;
        let scale = 1.0 / (dh as f32).sqrt();
        let KvCache { layers, scores } = self;
        let layer = &mut layers[li];
        layer.k.extend_from_slice(k);
        layer.v.extend_from_slice(v);
        layer.rows += 1;
        scores.clear();
        scores.resize(layer.rows, 0.0);
        for hi in 0..heads {
            let cols = hi * dh..(hi + 1) * dh;
            let qh = &q[cols.clone()];
            for (s, kr) in scores.iter_mut().zip(layer.k.chunks_exact(d)) {
                let mut acc = 0.0f32;
                for (qv, kv) in qh.iter().zip(&kr[cols.clone()]) {
                    acc += qv * kv;
                }
                *s = acc * scale;
            }
            let max = scores.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0f32;
            for s in scores.iter_mut() {
                *s = (*s - max).exp();
                sum += *s;
            }
            let inv = 1.0 / sum;
            for (c, o) in cols.zip(&mut out[hi * dh..(hi + 1) * dh]) {
                let mut acc = 0.0f32;
                for (s, vr) in scores.iter().zip(layer.v.chunks_exact(d)) {
                    acc += s * inv * vr[c];
                }
                *o = acc;
            }
        }
    }
}

/// Row-wise LayerNorm of `x` with gain `g` and bias `b` (both `(1, n)`),
/// written to `out`.
pub fn layer_norm_row(x: &[f32], g: &Matrix, b: &Matrix, out: &mut [f32]) {
    let (mean, inv_std) = layer_norm_stats(x);
    for (c, (o, &v)) in out.iter_mut().zip(x).enumerate() {
        *o = (v - mean) * inv_std * g.get(0, c) + b.get(0, c);
    }
}

/// A row's LayerNorm statistics: `(mean, 1 / sqrt(var + eps))`.
pub(crate) fn layer_norm_stats(x: &[f32]) -> (f32, f32) {
    const EPS: f32 = 1e-5;
    let n = x.len() as f32;
    let mean = x.iter().sum::<f32>() / n;
    let var = x.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n;
    (mean, 1.0 / (var + EPS).sqrt())
}

/// GELU, tanh approximation (as GPT-style models use).
pub fn gelu(x: f32) -> f32 {
    const C: f32 = 0.797_884_6; // sqrt(2/pi)
    0.5 * x * (1.0 + (C * (x + 0.044_715 * x * x * x)).tanh())
}

/// Greedy pick over a logits row: the index of the largest value, the
/// lowest index among equal maxima.
///
/// # Panics
///
/// Panics if the row is empty or holds a NaN.
pub fn argmax(row: &[f32]) -> usize {
    assert!(
        !row.is_empty() && !row.iter().any(|v| v.is_nan()),
        "argmax needs a non-empty row of numbers"
    );
    let mut best = 0;
    for (i, &v) in row.iter().enumerate() {
        if v > row[best] {
            best = i;
        }
    }
    best
}

/// A callback handed each projection's stable name and input activation.
pub type Recorder<'a> = dyn FnMut(&str, &Matrix) + 'a;

/// Inference forward over `new_ids`, extending `cache`; returns the logits
/// of every new position (`new_ids.len() x vocab`): [`embed`], one
/// [`layer_infer`] per block, then the final LayerNorm and head.
///
/// # Panics
///
/// Panics if `new_ids` is empty or the total sequence would exceed
/// `max_seq`.
pub fn forward_infer(params: &Params, new_ids: &[usize], cache: &mut KvCache) -> Matrix {
    let mut x = embed(params, new_ids, cache.len());
    for li in 0..params.layers.len() {
        layer_infer(params, li, &mut x, cache, None);
    }
    layer_norm(&x, &params.lnf_g, &params.lnf_b).matmul(&params.head)
}

/// The hidden rows of `ids` at positions `t0..`: `tok_emb[id] + pos_emb[t]`.
///
/// # Panics
///
/// Panics if `ids` is empty or `t0 + ids.len()` exceeds `max_seq`.
pub fn embed(params: &Params, ids: &[usize], t0: usize) -> Matrix {
    let config = &params.config;
    assert!(!ids.is_empty(), "no new tokens");
    assert!(
        t0 + ids.len() <= config.max_seq,
        "sequence overflows max_seq"
    );
    let mut x = Matrix::zeros(ids.len(), config.d_model);
    for (r, &id) in ids.iter().enumerate() {
        let dst = x.row_mut(r);
        for (c, v) in dst.iter_mut().enumerate() {
            *v = params.tok_emb.get(id, c) + params.pos_emb.get(t0 + r, c);
        }
    }
    x
}

/// Advances the hidden rows `x` through block `li`, extending that
/// block's slot in `cache`.
///
/// With a `record` callback the step also hands over the input activation
/// of each of the block's linear projections, keyed by its stable
/// parameter name: the matrix for `layerN.wq` is the `(x.rows(), d)` input
/// that gets multiplied by `wq`, exactly the `X` the OBS compression
/// solver needs. Calibration runs it on an empty cache.
pub fn layer_infer(
    params: &Params,
    li: usize,
    x: &mut Matrix,
    cache: &mut KvCache,
    mut record: Option<&mut Recorder>,
) {
    let l = &params.layers[li];
    let mut probe = |field: &str, x: &Matrix| {
        if let Some(f) = record.as_mut() {
            f(&format!("layer{li}.{field}"), x);
        }
    };
    let h = layer_norm(x, &l.ln1_g, &l.ln1_b);
    for field in ["wq", "wk", "wv"] {
        probe(field, &h);
    }
    let q = affine(&h, &l.wq, &l.bq);
    let k = affine(&h, &l.wk, &l.bk);
    let v = affine(&h, &l.wv, &l.bv);
    let mut attn = Matrix::zeros(x.rows(), params.config.d_model);
    for r in 0..x.rows() {
        let heads = params.config.n_heads;
        cache.attend(li, q.row(r), k.row(r), v.row(r), heads, attn.row_mut(r));
    }
    probe("wo", &attn);
    x.add_assign(&affine(&attn, &l.wo, &l.bo));
    let h2 = layer_norm(x, &l.ln2_g, &l.ln2_b);
    probe("w1", &h2);
    let mut up = affine(&h2, &l.w1, &l.b1);
    up.map_assign(gelu);
    probe("w2", &up);
    x.add_assign(&affine(&up, &l.w2, &l.b2));
}

/// Row-wise [`layer_norm_row`] over a matrix.
fn layer_norm(x: &Matrix, g: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(x.rows(), x.cols());
    for r in 0..x.rows() {
        layer_norm_row(x.row(r), g, b, out.row_mut(r));
    }
    out
}

/// `x W + b` with `b` broadcast over rows.
fn affine(x: &Matrix, w: &Matrix, b: &Matrix) -> Matrix {
    let mut y = x.matmul(w);
    for r in 0..y.rows() {
        for (v, bb) in y.row_mut(r).iter_mut().zip(b.row(0)) {
            *v += bb;
        }
    }
    y
}

/// Teacher-forced logits for a whole sequence (`T x vocab`), no cache,
/// built on the autograd tape that training differentiates.
// dz-lint: allow(dead-pub, "tape reference the inference-path and calibration tests compare against")
pub fn forward_full(params: &Params, ids: &[usize]) -> Matrix {
    let mut tape = Tape::new();
    let nodes = ParamNodes::register(&mut tape, params);
    let logits = forward_graph(&mut tape, &nodes, ids, |tape, h, w, b, _| {
        tape.linear(h, w, b)
    });
    tape.value(logits).clone()
}

/// A tiny config for unit tests.
pub fn test_config() -> ModelConfig {
    ModelConfig {
        vocab: crate::vocab::MIN_VOCAB,
        d_model: 16,
        n_layers: 2,
        n_heads: 2,
        d_ff: 32,
        max_seq: 24,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_count_matches_actual_storage() {
        let cfg = test_config();
        let mut rng = Rng::seeded(1);
        let p = Params::init(cfg, &mut rng);
        let mut total = 0usize;
        p.for_each(|_, m| total += m.len());
        assert_eq!(total, cfg.param_count());
    }

    #[test]
    fn for_each_order_is_stable_and_mut_matches() {
        let cfg = test_config();
        let mut rng = Rng::seeded(2);
        let mut p = Params::init(cfg, &mut rng);
        let mut names1 = Vec::new();
        p.for_each(|n, _| names1.push(n.to_string()));
        let mut names2 = Vec::new();
        p.for_each_mut(|n, _| names2.push(n.to_string()));
        assert_eq!(names1, names2);
        assert!(names1.contains(&"layer1.wq".to_string()));
    }

    #[test]
    fn get_set_round_trip() {
        let cfg = test_config();
        let mut rng = Rng::seeded(3);
        let mut p = Params::init(cfg, &mut rng);
        let w = p.get("layer0.wq").unwrap().clone();
        let scaled = w.scale(2.0);
        assert!(p.set("layer0.wq", scaled.clone()));
        assert_eq!(p.get("layer0.wq").unwrap(), &scaled);
        assert!(!p.set("layer9.nope", Matrix::zeros(1, 1)));
        assert!(p.get("bogus").is_none());
    }

    #[test]
    fn forward_full_shapes() {
        let cfg = test_config();
        let mut rng = Rng::seeded(4);
        let p = Params::init(cfg, &mut rng);
        let logits = forward_full(&p, &[1, 2, 3, 4, 5]);
        assert_eq!(logits.shape(), (5, cfg.vocab));
        assert!(logits.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn kv_cache_matches_full_forward() {
        let cfg = test_config();
        let mut rng = Rng::seeded(5);
        let p = Params::init(cfg, &mut rng);
        let ids = [1usize, 10, 11, 2, 20, 21, 3];
        let full = forward_full(&p, &ids);
        // Incremental: feed the prompt, then one token at a time.
        let mut cache = KvCache::new(cfg.n_layers);
        let prompt = forward_infer(&p, &ids[..3], &mut cache);
        let mut diffs = vec![full.submatrix(0, 0, 3, cfg.vocab).max_abs_diff(&prompt)];
        for t in 3..ids.len() {
            let last = forward_infer(&p, &ids[t..t + 1], &mut cache);
            diffs.push(full.submatrix(t, 0, 1, cfg.vocab).max_abs_diff(&last));
        }
        for (i, d) in diffs.iter().enumerate() {
            assert!(*d < 1e-3, "position {i}: diff {d}");
        }
        assert_eq!(cache.len(), ids.len());
    }

    #[test]
    fn whole_sequence_infer_is_bit_equal_to_the_tape_forward() {
        // Evaluation scores logits from `forward_infer` on a fresh cache;
        // they must be the tape's logits bit for bit, not just to rounding.
        for preset in crate::zoo::presets() {
            let cfg = preset.config;
            for seed in 0..4u64 {
                let mut rng = Rng::seeded(100 + seed);
                let p = Params::init(cfg, &mut rng);
                let len = cfg.max_seq - seed as usize * 5;
                let ids: Vec<usize> = (0..len).map(|_| rng.below(cfg.vocab)).collect();
                let full = forward_full(&p, &ids);
                let infer = forward_infer(&p, &ids, &mut KvCache::new(cfg.n_layers));
                assert_eq!(full.shape(), infer.shape());
                let same = full
                    .data()
                    .iter()
                    .zip(infer.data())
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(same, "{} seed {seed}: logits differ", preset.name);
            }
        }
    }

    #[test]
    fn training_grads_flow_to_all_layer_weights() {
        let cfg = test_config();
        let mut rng = Rng::seeded(6);
        let p = Params::init(cfg, &mut rng);
        let mut tape = Tape::new();
        let nodes = ParamNodes::register(&mut tape, &p);
        let ids = [1usize, 10, 11, 12];
        let logits = forward_graph(&mut tape, &nodes, &ids, |tape, h, w, b, _| {
            tape.linear(h, w, b)
        });
        let loss = tape.cross_entropy(logits, &[10, 11, 12, 2], &[1.0; 4]);
        tape.backward(loss);
        let mut grads = Params::init(cfg, &mut rng);
        grads.for_each_mut(|_, m| m.scale_assign(0.0));
        nodes.collect_grads(&tape, &mut grads);
        // Every projection in every layer must receive signal.
        for (i, l) in grads.layers.iter().enumerate() {
            for (n, m) in [("wq", &l.wq), ("wv", &l.wv), ("w1", &l.w1), ("w2", &l.w2)] {
                assert!(m.frob_norm() > 0.0, "layer{i}.{n} got zero grad");
            }
        }
        assert!(grads.tok_emb.frob_norm() > 0.0);
        assert!(grads.head.frob_norm() > 0.0);
    }

    #[test]
    fn plain_linear_matches_reference_forward() {
        // Over frozen leaves, the builder with the plain projection must
        // reproduce the trainable forward exactly.
        let cfg = test_config();
        let mut rng = Rng::seeded(1);
        let base = Params::init(cfg, &mut rng);
        let ids = [1usize, 5, 9, 3];
        let mut tape = Tape::new();
        let nodes = ParamNodes::frozen(&mut tape, &base);
        let logits = forward_graph(&mut tape, &nodes, &ids, |tape, h, w, b, _| {
            tape.linear(h, w, b)
        });
        assert_eq!(tape.value(logits), &forward_full(&base, &ids));
    }

    #[test]
    #[should_panic(expected = "empty sequence")]
    fn empty_input_is_rejected() {
        let cfg = test_config();
        let mut rng = Rng::seeded(2);
        let base = Params::init(cfg, &mut rng);
        let mut tape = Tape::new();
        let nodes = ParamNodes::frozen(&mut tape, &base);
        let _ = forward_graph(&mut tape, &nodes, &[], |_tape, h, _, _, _| h);
    }

    #[test]
    fn recorded_inputs_feed_each_projection() {
        // Recording must not change the hidden rows, and each recorded
        // input must be what its projection multiplies.
        let cfg = test_config();
        let p = Params::init(cfg, &mut Rng::seeded(8));
        let ids = [1usize, 10, 11, 2];
        let mut seen = Vec::new();
        let mut record = |name: &str, x: &Matrix| seen.push((name.to_string(), x.clone()));
        let mut recorded = embed(&p, &ids, 0);
        let mut plain = recorded.clone();
        let mut cache = KvCache::new(cfg.n_layers);
        let mut plain_cache = KvCache::new(cfg.n_layers);
        for li in 0..cfg.n_layers {
            layer_infer(&p, li, &mut recorded, &mut cache, Some(&mut record));
            layer_infer(&p, li, &mut plain, &mut plain_cache, None);
        }
        assert_eq!(recorded, plain);
        let names: Vec<&str> = seen.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, p.linear_layer_names());
        for (name, x) in &seen {
            assert_eq!(
                x.shape(),
                (ids.len(), p.get(name).unwrap().rows()),
                "{name}"
            );
        }
        assert_eq!(seen[0].1, seen[1].1, "wq and wk share their input");
    }

    #[test]
    fn argmax_picks_largest() {
        assert_eq!(argmax(&[0.1, 3.0, -2.0]), 1);
        assert_eq!(argmax(&[5.0]), 0);
        assert_eq!(argmax(&[f32::NEG_INFINITY, f32::NEG_INFINITY]), 0);
    }

    #[test]
    fn argmax_breaks_ties_toward_the_lowest_index() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0]), 1);
    }

    #[test]
    #[should_panic(expected = "non-empty row of numbers")]
    fn argmax_rejects_nan() {
        let _ = argmax(&[1.0, f32::NAN, 0.5]);
    }

    #[test]
    fn layer_norm_row_normalizes() {
        let g = Matrix::full(1, 4, 1.0);
        let b = Matrix::zeros(1, 4);
        let mut out = vec![0.0f32; 4];
        layer_norm_row(&[1.0, 2.0, 3.0, 4.0], &g, &b, &mut out);
        let mean: f32 = out.iter().sum::<f32>() / 4.0;
        let var: f32 = out.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-5);
        assert!((var - 1.0).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn config_validation() {
        ModelConfig {
            vocab: 10,
            d_model: 10,
            n_layers: 1,
            n_heads: 3,
            d_ff: 8,
            max_seq: 8,
        }
        .validate();
    }

    #[test]
    fn fp16_bytes_is_twice_param_count() {
        let cfg = test_config();
        let mut rng = Rng::seeded(7);
        let p = Params::init(cfg, &mut rng);
        assert_eq!(p.fp16_bytes(), 2 * cfg.param_count());
    }
}
