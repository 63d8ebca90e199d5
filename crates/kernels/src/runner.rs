//! The one batched decode runner for deltas and adapters.
//!
//! [`BatchRunner`] decodes a batch of requests for different variants of
//! one base in lock-step, with a KV cache per request. Every linear layer
//! is decoupled as in Eq. 2 of the paper: one dense GEMM against the shared
//! base weight for the whole batch, plus each request's variant product,
//! merged before the next non-linearity (§5.1). A delta's product follows
//! each layer's packed format, and nothing is dequantized into a dense
//! `d_in × d_out` matrix:
//!
//! * a group-quantized layer (the starred pipeline, AWQ, SparseGPT) goes
//!   through SBMM, [`quant_gemm_into`] over its packed levels (§5.2);
//! * a BitDelta layer goes through a sign GEMM over its packed sign words
//!   (the crate's `sign` module);
//! * a Delta-CoMe layer goes through its low-rank factors, `(x·P)·Qᵀ`
//!   over every band at once (the crate's `lowrank` module).
//!
//! Adapters ride the same path with an SGMV product in place of SBMM (§8).
//!
//! # Deferred prefill
//!
//! [`BatchRunner::admit`] only records a request's prompt. The next
//! [`BatchRunner::decode_step`] runs one transformer pass whose rows are
//! every slot's pending prompt tokens, slot by slot in position order,
//! followed by one decode row per slot (its last token). A row's position
//! is its slot's cache length plus the row's offset among that slot's
//! rows, and attention runs row by row in that order, so
//! [`KvCache::attend`] appends each position before the rows after it
//! read the cache: causal, as when the tokens are fed one per step. Only
//! the decode rows run the final norm and the head. A prompt thus joins
//! the base GEMM and its variant's product of the next step instead of
//! paying one step per token, the way gpusim prices prefill: one batched
//! pass over the prompt tokens.
//!
//! # Bit identity
//!
//! A row's output never depends on the rows it shares a step with, so
//! deferring prefill, admitting late and batching variants together all
//! give the tokens each request gets alone. Every per-row operation is
//! batch-invariant:
//!
//! * the base GEMM ([`Matrix::matmul_into`]) sums each output element over
//!   the input dimension in one fixed order, whatever the row count;
//! * [`quant_gemm_into`] follows the tile contract of [`crate::qgemm`]:
//!   every tile shape sums each accumulator in the same order;
//! * the sign GEMM adds each output's products in input order, in passes
//!   whose shape changes only which accumulators run side by side;
//! * the low-rank and the adapter products are two [`Matrix::matmul_into`]
//!   GEMMs each, plus a per-row sparse term for RoSA;
//! * embedding, LayerNorm, attention, GELU, the bias and the head are
//!   computed row by row.
//!
//! Within a projection each row gets, in this order:
//!
//! 1. the shared base GEMM;
//! 2. its variant's product, once per distinct variant in the step over
//!    that variant's rows: a quantized layer's [`quant_gemm_into`] (SBMM),
//!    a Delta-CoMe layer's low-rank product or an adapter's
//!    [`AdapterWeights::product_into`] (SGMV), each added onto the base
//!    output, or a BitDelta layer's sign GEMM, which accumulates straight
//!    onto the base output;
//! 3. its variant's bias.
//!
//! The sign GEMM's output has the bits of adding `x[c]·Δ[c][·]` over the
//! dequantized signs onto the base output one input at a time. The
//! low-rank product sums over the bands' directions instead of over a
//! dequantized matrix, so it agrees with `x·Δ` to rounding.
//!
//! # Tables and buffers
//!
//! [`BatchRunner::new`] resolves everything the step reads: per variant
//! its embeddings, norms, biases and head (a delta's `rest` with base
//! fallback, the base for adapters), and per projection the base weight
//! and every variant's product: a packed layer by reference, a Delta-CoMe
//! layer as its factors dequantized once (`R·(d_in + d_out)` values for
//! `R` directions). The step looks nothing up by name. It
//! groups its rows by variant once and keeps its activations, gathers and
//! kernel scratch in buffers reused from step to step, so a step
//! allocates only when a buffer has to grow.
//!
//! Everything else is dz-model's inference arithmetic: [`layer_norm_row`],
//! [`KvCache::attend`] against the request's own cache, [`gelu`] and the
//! greedy [`argmax`]. So the served step computes the same model as
//! `dz_model::transformer::forward_infer` on the reconstructed weights, up
//! to the linears' rounding. [`crate::decoupled::DecoupledBatch`] builds a
//! runner over deltas alone.

use crate::lowrank::LowRankFactors;
use crate::qgemm::{quant_gemm_into, QuantScratch};
use crate::sgmv::{AdapterView, AdapterWeights};
use crate::sign::sign_gemm_acc;
use dz_compress::codec::{PackedLayer, SignMatrix};
use dz_compress::pack::{BlockScratch, CompressedMatrix};
use dz_compress::pipeline::CompressedDelta;
use dz_model::transformer::{argmax, gelu, layer_norm_row, KvCache, ModelConfig, Params};
use dz_tensor::Matrix;
use std::ops::Range;

/// One variant a [`BatchRunner`] serves; its constructors pick the kind.
pub struct Variant<'a>(Kind<'a>);

/// The closed set of variant kinds.
enum Kind<'a> {
    /// A compressed delta, each layer served from its packed format.
    Delta(&'a CompressedDelta),
    /// A LoRA or RoSA adapter: served through SGMV.
    Adapter(AdapterView<'a>),
}

impl<'a> Variant<'a> {
    /// A compressed delta of any codec: each layer's product follows its
    /// [`PackedLayer`] format.
    pub fn delta(delta: &'a CompressedDelta) -> Self {
        Variant(Kind::Delta(delta))
    }

    /// A LoRA or RoSA adapter, served through SGMV.
    pub fn adapter(view: AdapterView<'a>) -> Self {
        Variant(Kind::Adapter(view))
    }
}

/// A variant's product for one projection.
enum Product<'a> {
    /// A group-quantized delta layer, through SBMM.
    Quant(&'a CompressedMatrix),
    /// A BitDelta layer, through the sign GEMM onto the base output.
    Sign(&'a SignMatrix),
    /// A Delta-CoMe layer, through its low-rank factors.
    LowRank(LowRankFactors),
    /// An adapter's weights, through SGMV.
    Adapter(AdapterWeights<'a>),
    /// An adapter that does not adapt this projection.
    None,
}

/// One projection of one block, resolved for every variant.
struct Proj<'a> {
    /// The shared base weight.
    base: &'a Matrix,
    /// Per variant: its product and its bias.
    by_variant: Vec<(Product<'a>, &'a Matrix)>,
}

/// A LayerNorm's gain and bias.
type Norm<'a> = (&'a Matrix, &'a Matrix);

/// One transformer block, resolved for every variant.
struct Block<'a> {
    /// Per variant: the attention and MLP norms.
    ln1: Vec<Norm<'a>>,
    ln2: Vec<Norm<'a>>,
    wq: Proj<'a>,
    wk: Proj<'a>,
    wv: Proj<'a>,
    wo: Proj<'a>,
    w1: Proj<'a>,
    w2: Proj<'a>,
}

/// A variant's parameters outside the blocks.
struct Outer<'a> {
    tok_emb: &'a Matrix,
    pos_emb: &'a Matrix,
    lnf: Norm<'a>,
    head: &'a Matrix,
}

/// A batched, decoupled decoder over one base model and many variants.
pub struct BatchRunner<'a> {
    config: ModelConfig,
    /// Per variant.
    outer: Vec<Outer<'a>>,
    blocks: Vec<Block<'a>>,
    slots: Vec<Slot>,
    buf: Buffers,
}

impl<'a> BatchRunner<'a> {
    /// Creates a runner over `base` and the given variants, resolving
    /// every parameter and product the step reads.
    ///
    /// # Panics
    ///
    /// Panics if a delta lacks a projection layer, or if a layer's
    /// `(d_in, d_out)` differs from its base weight's shape; the message
    /// names the layer.
    pub fn new(base: &'a Params, variants: Vec<Variant<'a>>) -> Self {
        let mut kinds: Vec<Kind<'a>> = variants.into_iter().map(|v| v.0).collect();
        let base_param = |name: &str| base.get(name).expect("param exists");
        // A non-projection parameter: a delta's `rest` entry, falling back
        // to the base (adapters always use the base).
        let param = |kind: &Kind<'a>, name: &str| -> &'a Matrix {
            match kind {
                Kind::Delta(d) => d.rest.get(name),
                Kind::Adapter(_) => None,
            }
            .unwrap_or_else(|| base_param(name))
        };
        let norms = |kinds: &[Kind<'a>], prefix: &str| -> Vec<Norm<'a>> {
            let (g, b) = (format!("{prefix}_g"), format!("{prefix}_b"));
            kinds.iter().map(|k| (param(k, &g), param(k, &b))).collect()
        };
        // Decode scratch for low-rank factors.
        let mut blk = BlockScratch::default();
        let mut proj = |kinds: &mut [Kind<'a>], li: usize, field: &str, bias: &str| -> Proj<'a> {
            let name = format!("layer{li}.{field}");
            let bias = format!("layer{li}.{bias}");
            let base = base_param(&name);
            let by_variant = kinds
                .iter_mut()
                .map(|kind| {
                    let b = param(kind, &bias);
                    let product = match kind {
                        Kind::Delta(d) => {
                            let d: &'a CompressedDelta = d;
                            let layer = d.layers.get(&name).expect("delta has every projection");
                            assert_eq!(
                                (layer.d_in(), layer.d_out()),
                                base.shape(),
                                "delta layer {name} does not match its base weight's shape"
                            );
                            match layer {
                                PackedLayer::Quant(cm) => Product::Quant(cm),
                                PackedLayer::Sign(sm) => Product::Sign(sm),
                                PackedLayer::LowRank(lr) => {
                                    Product::LowRank(LowRankFactors::new(lr, &mut blk))
                                }
                            }
                        }
                        Kind::Adapter(view) => {
                            view.take(&name).map_or(Product::None, Product::Adapter)
                        }
                    };
                    (product, b)
                })
                .collect();
            Proj { base, by_variant }
        };
        let blocks = (0..base.config.n_layers)
            .map(|li| Block {
                ln1: norms(&kinds, &format!("layer{li}.ln1")),
                ln2: norms(&kinds, &format!("layer{li}.ln2")),
                wq: proj(&mut kinds, li, "wq", "bq"),
                wk: proj(&mut kinds, li, "wk", "bk"),
                wv: proj(&mut kinds, li, "wv", "bv"),
                wo: proj(&mut kinds, li, "wo", "bo"),
                w1: proj(&mut kinds, li, "w1", "b1"),
                w2: proj(&mut kinds, li, "w2", "b2"),
            })
            .collect();
        let lnf = norms(&kinds, "lnf");
        let outer = kinds
            .iter()
            .zip(lnf)
            .map(|(k, lnf)| Outer {
                tok_emb: param(k, "tok_emb"),
                pos_emb: param(k, "pos_emb"),
                lnf,
                head: param(k, "head"),
            })
            .collect();
        BatchRunner {
            config: base.config,
            outer,
            blocks,
            slots: Vec::new(),
            buf: Buffers::default(),
        }
    }

    /// Admits a request for `variant` and returns its slot index. No
    /// compute runs here: the prompt is prefilled inside the next
    /// [`BatchRunner::decode_step`], which also emits the first token.
    ///
    /// # Panics
    ///
    /// Panics if the variant index is out of range, the prompt is empty
    /// or it is longer than the model's `max_seq`.
    pub fn admit(&mut self, variant: usize, prompt: &[usize]) -> usize {
        assert!(
            variant < self.outer.len(),
            "variant or adapter out of range"
        );
        assert!(!prompt.is_empty(), "empty prompt");
        assert!(
            prompt.len() <= self.config.max_seq,
            "prompt of {} tokens does not fit max_seq {}",
            prompt.len(),
            self.config.max_seq
        );
        self.slots.push(Slot {
            variant,
            cache: KvCache::new(self.config.n_layers),
            pending: prompt[..prompt.len() - 1].to_vec(),
            last_token: prompt[prompt.len() - 1],
            generated: Vec::new(),
        });
        self.slots.len() - 1
    }

    /// Prefills every pending prompt and decodes one token for every
    /// slot, in one batched pass; returns `(slot, next)` pairs chosen
    /// greedily from the logits.
    pub fn decode_step(&mut self) -> Vec<(usize, usize)> {
        let rows = &mut self.buf.rows;
        rows.clear();
        for (slot, s) in self.slots.iter().enumerate() {
            let pos = s.cache.len();
            rows.extend(s.pending.iter().enumerate().map(|(o, &token)| Row {
                slot,
                variant: s.variant,
                token,
                pos: pos + o,
            }));
        }
        let first_decode = rows.len();
        for (slot, s) in self.slots.iter().enumerate() {
            rows.push(Row {
                slot,
                variant: s.variant,
                token: s.last_token,
                pos: s.cache.len() + s.pending.len(),
            });
        }
        self.forward();

        // Final norm and head, for the decode rows only.
        let b = &mut self.buf;
        let mut out = Vec::with_capacity(self.slots.len());
        for (i, row) in b.rows.iter().enumerate().skip(first_decode) {
            let p = &self.outer[row.variant];
            b.h.reset(1, self.config.d_model);
            layer_norm_row(b.x.row(i), p.lnf.0, p.lnf.1, b.h.row_mut(0));
            // Row-major over the head: each logit still sums `h[r]·w[r]`
            // from 0.0 in `r` order.
            b.logits.clear();
            b.logits.resize(self.config.vocab, 0.0);
            for (r, &hv) in b.h.row(0).iter().enumerate() {
                for (l, &w) in b.logits.iter_mut().zip(p.head.row(r)) {
                    *l += hv * w;
                }
            }
            let next = argmax(&b.logits);
            let s = &mut self.slots[row.slot];
            s.pending.clear();
            s.last_token = next;
            s.generated.push(next);
            out.push((row.slot, next));
        }
        out
    }

    /// Tokens generated so far by a slot.
    pub fn generated(&self, slot: usize) -> &[usize] {
        &self.slots[slot].generated
    }

    /// Runs the blocks over the step's rows, leaving the residual stream
    /// in `buf.x` and each row's key and value in its slot's cache.
    fn forward(&mut self) {
        let BatchRunner {
            config,
            outer,
            blocks,
            slots,
            buf: b,
        } = self;
        let (n, d) = (b.rows.len(), config.d_model);
        b.groups.build(&b.rows);
        b.x.reset(n, d);
        for (i, row) in b.rows.iter().enumerate() {
            assert!(row.pos < config.max_seq, "sequence overflow");
            let p = &outer[row.variant];
            let (tok, pos) = (p.tok_emb.row(row.token), p.pos_emb.row(row.pos));
            for ((v, &t), &q) in b.x.row_mut(i).iter_mut().zip(tok).zip(pos) {
                *v = t + q;
            }
        }
        for (li, blk) in blocks.iter().enumerate() {
            norm(&b.x, &mut b.h, &blk.ln1, &b.rows);
            linear(&blk.wq, &b.h, &mut b.q, &b.groups, &mut b.gather);
            linear(&blk.wk, &b.h, &mut b.k, &b.groups, &mut b.gather);
            linear(&blk.wv, &b.h, &mut b.v, &b.groups, &mut b.gather);
            // Attention per row against its slot's cache, in row order.
            b.attn.reset(n, d);
            for (i, row) in b.rows.iter().enumerate() {
                slots[row.slot].cache.attend(
                    li,
                    b.q.row(i),
                    b.k.row(i),
                    b.v.row(i),
                    config.n_heads,
                    b.attn.row_mut(i),
                );
            }
            linear(&blk.wo, &b.attn, &mut b.y, &b.groups, &mut b.gather);
            b.x.add_assign(&b.y);
            norm(&b.x, &mut b.h, &blk.ln2, &b.rows);
            linear(&blk.w1, &b.h, &mut b.up, &b.groups, &mut b.gather);
            b.up.map_assign(gelu);
            linear(&blk.w2, &b.up, &mut b.y, &b.groups, &mut b.gather);
            b.x.add_assign(&b.y);
        }
    }
}

/// Row-wise LayerNorm of `x` into `out`, each row with its variant's norm.
fn norm(x: &Matrix, out: &mut Matrix, norms: &[Norm<'_>], rows: &[Row]) {
    out.reset(x.rows(), x.cols());
    for (i, row) in rows.iter().enumerate() {
        let (g, b) = norms[row.variant];
        layer_norm_row(x.row(i), g, b, out.row_mut(i));
    }
}

/// Decoupled projection `y = x·W` plus bias, for a step whose rows are
/// grouped by variant, in the order the module docs give.
fn linear(proj: &Proj<'_>, x: &Matrix, y: &mut Matrix, groups: &Groups, g: &mut Gather) {
    x.matmul_into(proj.base, y);
    for (variant, run) in &groups.runs {
        let rows = &groups.order[run.clone()];
        let (product, bias) = &proj.by_variant[*variant];
        match product {
            Product::Quant(cm) => {
                g.gather(x, rows);
                quant_gemm_into(&g.xg, cm, &mut g.yg, &mut g.quant);
                g.scatter_add(y, rows);
            }
            Product::Sign(sm) => {
                // Adds onto the rows' base outputs one input at a time,
                // which its bit contract needs, so no separate sum.
                g.gather(x, rows);
                copy_rows(y, rows, &mut g.yg);
                sign_gemm_acc(&g.xg, sm, &mut g.yg);
                for (gi, &r) in rows.iter().enumerate() {
                    y.row_mut(r).copy_from_slice(g.yg.row(gi));
                }
            }
            Product::LowRank(f) => {
                g.gather(x, rows);
                f.product_into(&g.xg, &mut g.yg, &mut g.xa);
                g.scatter_add(y, rows);
            }
            Product::Adapter(w) => {
                g.gather(x, rows);
                w.product_into(&g.xg, &mut g.yg, &mut g.xa);
                g.scatter_add(y, rows);
            }
            Product::None => {}
        }
        for &r in rows {
            for (v, &bv) in y.row_mut(r).iter_mut().zip(bias.data()) {
                *v += bv;
            }
        }
    }
}

/// One row of a step: a token of `slot` at position `pos`.
#[derive(Debug, Clone, Copy)]
struct Row {
    slot: usize,
    variant: usize,
    token: usize,
    pos: usize,
}

/// A step's rows grouped by variant: `order` holds row indices sorted by
/// variant (ascending row order within one), `runs` each variant's range
/// of `order`.
#[derive(Debug, Default)]
struct Groups {
    order: Vec<usize>,
    runs: Vec<(usize, Range<usize>)>,
}

impl Groups {
    fn build(&mut self, rows: &[Row]) {
        self.order.clear();
        self.order.extend(0..rows.len());
        self.order.sort_unstable_by_key(|&r| (rows[r].variant, r));
        self.runs.clear();
        let mut start = 0;
        for run in self
            .order
            .chunk_by(|&a, &b| rows[a].variant == rows[b].variant)
        {
            self.runs
                .push((rows[run[0]].variant, start..start + run.len()));
            start += run.len();
        }
    }
}

/// One variant's rows gathered for a grouped product, and the product's
/// buffers.
#[derive(Debug, Default)]
struct Gather {
    xg: Matrix,
    yg: Matrix,
    /// An adapter's down projection, or a low-rank delta's coordinates.
    xa: Matrix,
    quant: QuantScratch,
}

impl Gather {
    /// Copies `rows` of `x` into `xg`.
    fn gather(&mut self, x: &Matrix, rows: &[usize]) {
        copy_rows(x, rows, &mut self.xg);
    }

    /// Adds row `i` of `yg` to row `rows[i]` of `y`.
    fn scatter_add(&self, y: &mut Matrix, rows: &[usize]) {
        for (gi, &r) in rows.iter().enumerate() {
            for (v, &p) in y.row_mut(r).iter_mut().zip(self.yg.row(gi)) {
                *v += p;
            }
        }
    }
}

/// Copies `rows` of `src` into `dst`, in order.
fn copy_rows(src: &Matrix, rows: &[usize], dst: &mut Matrix) {
    dst.reset(rows.len(), src.cols());
    for (gi, &r) in rows.iter().enumerate() {
        dst.row_mut(gi).copy_from_slice(src.row(r));
    }
}

/// Buffers a step reuses across calls; each is reshaped per step.
#[derive(Debug, Default)]
struct Buffers {
    rows: Vec<Row>,
    groups: Groups,
    gather: Gather,
    /// Residual stream.
    x: Matrix,
    /// A norm's output (the final norm's, one row at a time).
    h: Matrix,
    q: Matrix,
    k: Matrix,
    v: Matrix,
    attn: Matrix,
    /// The output projection's and the MLP's output.
    y: Matrix,
    /// The MLP's hidden activations.
    up: Matrix,
    logits: Vec<f32>,
}

/// A request being decoded by a batch runner.
#[derive(Debug)]
struct Slot {
    /// Index of the variant the request targets.
    variant: usize,
    /// Per-request KV cache.
    cache: KvCache,
    /// Prompt tokens not fed yet, in position order (all but the last).
    pending: Vec<usize>,
    /// Last token fed or to feed (next decode input).
    last_token: usize,
    /// Tokens generated so far.
    generated: Vec<usize>,
}
