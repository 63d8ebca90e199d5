//! The decoder-only transformer: parameters, training forward, KV-cache
//! inference.
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
    // dz-lint: allow(dead-pub, "delta arithmetic the add-back proptest and fine-tuning test check")
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

/// Node handles for one layer's parameters on a tape.
struct LayerNodes {
    wq: NodeId,
    wk: NodeId,
    wv: NodeId,
    wo: NodeId,
    bq: NodeId,
    bk: NodeId,
    bv: NodeId,
    bo: NodeId,
    w1: NodeId,
    b1: NodeId,
    w2: NodeId,
    b2: NodeId,
    ln1_g: NodeId,
    ln1_b: NodeId,
    ln2_g: NodeId,
    ln2_b: NodeId,
}

/// Node handles for every parameter, in the same layout as [`Params`].
pub struct ParamNodes {
    tok_emb: NodeId,
    pos_emb: NodeId,
    layers: Vec<LayerNodes>,
    lnf_g: NodeId,
    lnf_b: NodeId,
    head: NodeId,
}

impl ParamNodes {
    /// Registers every parameter as a leaf on the tape.
    pub fn register(tape: &mut Tape, p: &Params) -> Self {
        ParamNodes {
            tok_emb: tape.leaf(p.tok_emb.clone()),
            pos_emb: tape.leaf(p.pos_emb.clone()),
            layers: p
                .layers
                .iter()
                .map(|l| LayerNodes {
                    wq: tape.leaf(l.wq.clone()),
                    wk: tape.leaf(l.wk.clone()),
                    wv: tape.leaf(l.wv.clone()),
                    wo: tape.leaf(l.wo.clone()),
                    bq: tape.leaf(l.bq.clone()),
                    bk: tape.leaf(l.bk.clone()),
                    bv: tape.leaf(l.bv.clone()),
                    bo: tape.leaf(l.bo.clone()),
                    w1: tape.leaf(l.w1.clone()),
                    b1: tape.leaf(l.b1.clone()),
                    w2: tape.leaf(l.w2.clone()),
                    b2: tape.leaf(l.b2.clone()),
                    ln1_g: tape.leaf(l.ln1_g.clone()),
                    ln1_b: tape.leaf(l.ln1_b.clone()),
                    ln2_g: tape.leaf(l.ln2_g.clone()),
                    ln2_b: tape.leaf(l.ln2_b.clone()),
                })
                .collect(),
            lnf_g: tape.leaf(p.lnf_g.clone()),
            lnf_b: tape.leaf(p.lnf_b.clone()),
            head: tape.leaf(p.head.clone()),
        }
    }

    /// Accumulates gradients from the tape into `grads` (same layout as the
    /// parameters, pre-zeroed or freshly created by the caller) in the
    /// stable `for_each` order.
    pub fn collect_grads(&self, tape: &Tape, grads: &mut Params) {
        let zero_like = |m: &Matrix| Matrix::zeros(m.rows(), m.cols());
        let pull = |tape: &Tape, id: NodeId, dst: &mut Matrix| {
            match tape.grad(id) {
                Some(g) => dst.add_assign(g),
                None => {
                    // Parameter unused in this graph; contributes zero.
                    let z = zero_like(dst);
                    let _ = z;
                }
            }
        };
        pull(tape, self.tok_emb, &mut grads.tok_emb);
        pull(tape, self.pos_emb, &mut grads.pos_emb);
        for (ln, gl) in self.layers.iter().zip(grads.layers.iter_mut()) {
            pull(tape, ln.wq, &mut gl.wq);
            pull(tape, ln.wk, &mut gl.wk);
            pull(tape, ln.wv, &mut gl.wv);
            pull(tape, ln.wo, &mut gl.wo);
            pull(tape, ln.bq, &mut gl.bq);
            pull(tape, ln.bk, &mut gl.bk);
            pull(tape, ln.bv, &mut gl.bv);
            pull(tape, ln.bo, &mut gl.bo);
            pull(tape, ln.w1, &mut gl.w1);
            pull(tape, ln.b1, &mut gl.b1);
            pull(tape, ln.w2, &mut gl.w2);
            pull(tape, ln.b2, &mut gl.b2);
            pull(tape, ln.ln1_g, &mut gl.ln1_g);
            pull(tape, ln.ln1_b, &mut gl.ln1_b);
            pull(tape, ln.ln2_g, &mut gl.ln2_g);
            pull(tape, ln.ln2_b, &mut gl.ln2_b);
        }
        pull(tape, self.lnf_g, &mut grads.lnf_g);
        pull(tape, self.lnf_b, &mut grads.lnf_b);
        pull(tape, self.head, &mut grads.head);
    }
}

/// Builds the forward graph for one sequence; returns the logits node.
///
/// # Panics
///
/// Panics if `ids` is empty or longer than `config.max_seq`.
pub fn forward_graph(
    tape: &mut Tape,
    nodes: &ParamNodes,
    config: &ModelConfig,
    ids: &[usize],
) -> NodeId {
    assert!(!ids.is_empty(), "empty sequence");
    assert!(ids.len() <= config.max_seq, "sequence longer than max_seq");
    let t = ids.len();
    let tok = tape.gather(nodes.tok_emb, ids);
    let positions: Vec<usize> = (0..t).collect();
    let pos = tape.gather(nodes.pos_emb, &positions);
    let mut x = tape.add(tok, pos);
    for l in &nodes.layers {
        let h = tape.layer_norm(x, l.ln1_g, l.ln1_b);
        let q0 = tape.matmul(h, l.wq);
        let q = tape.add_bias(q0, l.bq);
        let k0 = tape.matmul(h, l.wk);
        let k = tape.add_bias(k0, l.bk);
        let v0 = tape.matmul(h, l.wv);
        let v = tape.add_bias(v0, l.bv);
        let attn = tape.mha_causal(q, k, v, config.n_heads);
        let proj0 = tape.matmul(attn, l.wo);
        let proj = tape.add_bias(proj0, l.bo);
        x = tape.add(x, proj);
        let h2 = tape.layer_norm(x, l.ln2_g, l.ln2_b);
        let up0 = tape.matmul(h2, l.w1);
        let up = tape.add_bias(up0, l.b1);
        let act = tape.gelu(up);
        let down0 = tape.matmul(act, l.w2);
        let down = tape.add_bias(down0, l.b2);
        x = tape.add(x, down);
    }
    let xf = tape.layer_norm(x, nodes.lnf_g, nodes.lnf_b);
    tape.matmul(xf, nodes.head)
}

/// Per-layer KV cache for incremental decoding.
#[derive(Debug, Clone)]
pub struct KvCache {
    /// Cached keys per layer, each `(t_so_far, d)`.
    pub k: Vec<Matrix>,
    /// Cached values per layer, each `(t_so_far, d)`.
    pub v: Vec<Matrix>,
}

impl KvCache {
    /// An empty cache for `n_layers` layers.
    pub fn new(n_layers: usize) -> Self {
        KvCache {
            k: (0..n_layers).map(|_| Matrix::zeros(0, 0)).collect(),
            v: (0..n_layers).map(|_| Matrix::zeros(0, 0)).collect(),
        }
    }

    /// Number of cached positions.
    pub fn len(&self) -> usize {
        if self.k.is_empty() || self.k[0].cols() == 0 {
            0
        } else {
            self.k[0].rows()
        }
    }

    /// Returns `true` if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

fn layer_norm_infer(x: &Matrix, g: &Matrix, b: &Matrix) -> Matrix {
    const EPS: f32 = 1e-5;
    let mut out = Matrix::zeros(x.rows(), x.cols());
    for r in 0..x.rows() {
        let row = x.row(r);
        let mean = row.iter().sum::<f32>() / x.cols() as f32;
        let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / x.cols() as f32;
        let inv = 1.0 / (var + EPS).sqrt();
        for (c, &v) in row.iter().enumerate() {
            out.set(r, c, (v - mean) * inv * g.get(0, c) + b.get(0, c));
        }
    }
    out
}

fn add_bias_infer(x: &mut Matrix, b: &Matrix) {
    for r in 0..x.rows() {
        let row = x.row_mut(r);
        for (v, bb) in row.iter_mut().zip(b.row(0).iter()) {
            *v += bb;
        }
    }
}

fn gelu_infer(x: &mut Matrix) {
    const C: f32 = 0.797_884_6;
    x.map_assign(|v| 0.5 * v * (1.0 + (C * (v + 0.044_715 * v * v * v)).tanh()));
}

/// Inference forward over `new_ids`, extending `cache`; returns logits for
/// the *last* new position (`1 x vocab`).
///
/// # Panics
///
/// Panics if the total sequence would exceed `max_seq`.
pub fn forward_infer(params: &Params, new_ids: &[usize], cache: &mut KvCache) -> Matrix {
    let config = &params.config;
    let t0 = cache.len();
    let tn = new_ids.len();
    assert!(tn > 0, "no new tokens");
    assert!(t0 + tn <= config.max_seq, "sequence overflows max_seq");
    let d = config.d_model;
    let heads = config.n_heads;
    let dh = d / heads;
    let scale = 1.0 / (dh as f32).sqrt();

    // Embeddings.
    let mut x = Matrix::zeros(tn, d);
    for (r, &id) in new_ids.iter().enumerate() {
        let dst = x.row_mut(r);
        for (c, v) in dst.iter_mut().enumerate() {
            *v = params.tok_emb.get(id, c) + params.pos_emb.get(t0 + r, c);
        }
    }

    for (li, l) in params.layers.iter().enumerate() {
        let h = layer_norm_infer(&x, &l.ln1_g, &l.ln1_b);
        let mut q = h.matmul(&l.wq);
        add_bias_infer(&mut q, &l.bq);
        let mut k_new = h.matmul(&l.wk);
        add_bias_infer(&mut k_new, &l.bk);
        let mut v_new = h.matmul(&l.wv);
        add_bias_infer(&mut v_new, &l.bv);
        // Extend cache.
        let (k_all, v_all) = if t0 == 0 {
            (k_new, v_new)
        } else {
            (
                Matrix::vstack(&[&cache.k[li], &k_new]),
                Matrix::vstack(&[&cache.v[li], &v_new]),
            )
        };
        let total = t0 + tn;
        let mut attn_out = Matrix::zeros(tn, d);
        for hi in 0..heads {
            for r in 0..tn {
                let abs_pos = t0 + r;
                // Scores against all cached positions up to abs_pos.
                let mut scores = vec![0.0f32; abs_pos + 1];
                for (j, s) in scores.iter_mut().enumerate() {
                    let mut acc = 0.0f32;
                    for c in 0..dh {
                        acc += q.get(r, hi * dh + c) * k_all.get(j, hi * dh + c);
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
                for c in 0..dh {
                    let mut acc = 0.0f32;
                    for (j, s) in scores.iter().enumerate() {
                        acc += s * inv * v_all.get(j, hi * dh + c);
                    }
                    attn_out.set(r, hi * dh + c, acc);
                }
            }
        }
        let _ = total;
        cache.k[li] = k_all;
        cache.v[li] = v_all;
        let mut proj = attn_out.matmul(&l.wo);
        add_bias_infer(&mut proj, &l.bo);
        x.add_assign(&proj);
        let h2 = layer_norm_infer(&x, &l.ln2_g, &l.ln2_b);
        let mut up = h2.matmul(&l.w1);
        add_bias_infer(&mut up, &l.b1);
        gelu_infer(&mut up);
        let mut down = up.matmul(&l.w2);
        add_bias_infer(&mut down, &l.b2);
        x.add_assign(&down);
    }
    let xf = layer_norm_infer(&x, &params.lnf_g, &params.lnf_b);
    let logits = xf.matmul(&params.head);
    logits.submatrix(tn - 1, 0, 1, params.config.vocab)
}

/// Teacher-forced logits for a whole sequence (`T x vocab`), no cache.
pub fn forward_full(params: &Params, ids: &[usize]) -> Matrix {
    let mut tape = Tape::new();
    let nodes = ParamNodes::register(&mut tape, params);
    let logits = forward_graph(&mut tape, &nodes, &params.config, ids);
    tape.value(logits).clone()
}

/// Inference forward that also records the input activation of every linear
/// projection, keyed by the projection's stable parameter name.
///
/// The recorded matrix for `layerN.wq` is the `(T, d)` input that gets
/// multiplied by `wq` — exactly the `X` the OBS compression solver needs.
/// Returns the final logits alongside the recordings.
pub fn forward_probe(
    params: &Params,
    ids: &[usize],
    record: &mut dyn FnMut(&str, &Matrix),
) -> Matrix {
    let config = &params.config;
    assert!(!ids.is_empty() && ids.len() <= config.max_seq);
    let t = ids.len();
    let d = config.d_model;
    let mut x = Matrix::zeros(t, d);
    for (r, &id) in ids.iter().enumerate() {
        let dst = x.row_mut(r);
        for (c, v) in dst.iter_mut().enumerate() {
            *v = params.tok_emb.get(id, c) + params.pos_emb.get(r, c);
        }
    }
    let heads = config.n_heads;
    let dh = d / heads;
    let scale = 1.0 / (dh as f32).sqrt();
    for (li, l) in params.layers.iter().enumerate() {
        let h = layer_norm_infer(&x, &l.ln1_g, &l.ln1_b);
        record(&format!("layer{li}.wq"), &h);
        record(&format!("layer{li}.wk"), &h);
        record(&format!("layer{li}.wv"), &h);
        let mut q = h.matmul(&l.wq);
        add_bias_infer(&mut q, &l.bq);
        let mut k = h.matmul(&l.wk);
        add_bias_infer(&mut k, &l.bk);
        let mut v = h.matmul(&l.wv);
        add_bias_infer(&mut v, &l.bv);
        // Full causal attention (no cache needed for probing).
        let mut attn_out = Matrix::zeros(t, d);
        for hi in 0..heads {
            for r in 0..t {
                let mut scores = vec![0.0f32; r + 1];
                for (j, s) in scores.iter_mut().enumerate() {
                    let mut acc = 0.0f32;
                    for c in 0..dh {
                        acc += q.get(r, hi * dh + c) * k.get(j, hi * dh + c);
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
                for c in 0..dh {
                    let mut acc = 0.0f32;
                    for (j, s) in scores.iter().enumerate() {
                        acc += s * inv * v.get(j, hi * dh + c);
                    }
                    attn_out.set(r, hi * dh + c, acc);
                }
            }
        }
        record(&format!("layer{li}.wo"), &attn_out);
        let mut proj = attn_out.matmul(&l.wo);
        add_bias_infer(&mut proj, &l.bo);
        x.add_assign(&proj);
        let h2 = layer_norm_infer(&x, &l.ln2_g, &l.ln2_b);
        record(&format!("layer{li}.w1"), &h2);
        let mut up = h2.matmul(&l.w1);
        add_bias_infer(&mut up, &l.b1);
        gelu_infer(&mut up);
        record(&format!("layer{li}.w2"), &up);
        let mut down = up.matmul(&l.w2);
        add_bias_infer(&mut down, &l.b2);
        x.add_assign(&down);
    }
    let xf = layer_norm_infer(&x, &params.lnf_g, &params.lnf_b);
    xf.matmul(&params.head)
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
        let mut last = forward_infer(&p, &ids[..3], &mut cache);
        let mut diffs = vec![full.submatrix(2, 0, 1, cfg.vocab).max_abs_diff(&last)];
        for t in 3..ids.len() {
            last = forward_infer(&p, &ids[t..t + 1], &mut cache);
            diffs.push(full.submatrix(t, 0, 1, cfg.vocab).max_abs_diff(&last));
        }
        for (i, d) in diffs.iter().enumerate() {
            assert!(*d < 1e-3, "position {i}: diff {d}");
        }
        assert_eq!(cache.len(), ids.len());
    }

    #[test]
    fn training_grads_flow_to_all_layer_weights() {
        let cfg = test_config();
        let mut rng = Rng::seeded(6);
        let p = Params::init(cfg, &mut rng);
        let mut tape = Tape::new();
        let nodes = ParamNodes::register(&mut tape, &p);
        let ids = [1usize, 10, 11, 12];
        let logits = forward_graph(&mut tape, &nodes, &cfg, &ids);
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
