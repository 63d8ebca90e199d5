//! A minimal tape-based reverse-mode autograd engine.
//!
//! The tape records a DAG of matrix-valued nodes. Each operation stores the
//! forward value plus whatever it needs for its backward pass (e.g. softmax
//! attention probabilities). [`Tape::backward`] walks the nodes in reverse
//! creation order, which is a valid topological order because operands must
//! exist before the operations that consume them.
//!
//! The op set is exactly what a pre-LN GPT block needs: matmul, bias add,
//! residual add, GELU, LayerNorm, fused multi-head causal self-attention,
//! embedding gather, scaling, and a fused masked softmax cross-entropy loss.
//! Every backward implementation is validated against central finite
//! differences in this module's tests.

use crate::transformer::{gelu, layer_norm_stats};
use dz_tensor::Matrix;

/// Handle to a node on the tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeId(usize);

enum Op {
    Leaf,
    /// `C = A * B`.
    MatMul(NodeId, NodeId),
    /// `C = A + B` (same shape).
    Add(NodeId, NodeId),
    /// `C = A + bias`, bias is `1 x cols` broadcast over rows.
    AddBias(NodeId, NodeId),
    /// `C = alpha * A`.
    Scale(NodeId, f32),
    /// Elementwise GELU (tanh approximation).
    Gelu(NodeId),
    /// Row-wise LayerNorm with learned gain/bias (`1 x cols` each).
    LayerNorm {
        x: NodeId,
        gain: NodeId,
        bias: NodeId,
        /// Cached `(mean, inv_std)` per row.
        row_stats: Vec<(f32, f32)>,
        /// Cached normalized input (pre gain/bias).
        normed: Matrix,
    },
    /// Fused multi-head causal self-attention over `(T, d)` inputs.
    Mha {
        q: NodeId,
        k: NodeId,
        v: NodeId,
        heads: usize,
        /// Cached per-head attention probabilities, each `(T, T)`.
        probs: Vec<Matrix>,
    },
    /// Row gather from an embedding table.
    Gather {
        table: NodeId,
        ids: Vec<usize>,
    },
    /// Mean masked softmax cross-entropy; output is `1 x 1`.
    CrossEntropy {
        logits: NodeId,
        targets: Vec<usize>,
        weights: Vec<f32>,
        /// Cached row softmax of the logits.
        probs: Matrix,
        /// Cached sum of weights.
        weight_sum: f32,
    },
}

struct Node {
    value: Matrix,
    grad: Option<Matrix>,
    op: Op,
    /// Whether backward should compute/accumulate a gradient here. Ops
    /// inherit `true` if any operand needs one; frozen leaves opt out.
    needs_grad: bool,
}

/// The autograd tape.
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
}

fn gelu_grad_scalar(x: f32) -> f32 {
    const C: f32 = 0.797_884_6;
    let x3 = 0.044_715 * x * x * x;
    let t = (C * (x + x3)).tanh();
    let sech2 = 1.0 - t * t;
    0.5 * (1.0 + t) + 0.5 * x * sech2 * C * (1.0 + 3.0 * 0.044_715 * x * x)
}

/// Row-wise softmax used by the loss (numerically stabilized).
fn softmax_rows(m: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(m.rows(), m.cols());
    for r in 0..m.rows() {
        let row = m.row(r);
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        let out_row = out.row_mut(r);
        for (o, &x) in out_row.iter_mut().zip(row.iter()) {
            let e = (x - max).exp();
            *o = e;
            sum += e;
        }
        let inv = 1.0 / sum;
        for o in out_row.iter_mut() {
            *o *= inv;
        }
    }
    out
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn push(&mut self, value: Matrix, op: Op) -> NodeId {
        let needs_grad = match &op {
            Op::Leaf => true,
            Op::MatMul(a, b) | Op::Add(a, b) | Op::AddBias(a, b) => {
                self.nodes[a.0].needs_grad || self.nodes[b.0].needs_grad
            }
            Op::Scale(a, _) | Op::Gelu(a) => self.nodes[a.0].needs_grad,
            Op::LayerNorm { x, gain, bias, .. } => {
                self.nodes[x.0].needs_grad
                    || self.nodes[gain.0].needs_grad
                    || self.nodes[bias.0].needs_grad
            }
            Op::Mha { q, k, v, .. } => {
                self.nodes[q.0].needs_grad
                    || self.nodes[k.0].needs_grad
                    || self.nodes[v.0].needs_grad
            }
            Op::Gather { table, .. } => self.nodes[table.0].needs_grad,
            Op::CrossEntropy { logits, .. } => self.nodes[logits.0].needs_grad,
        };
        self.nodes.push(Node {
            value,
            grad: None,
            op,
            needs_grad,
        });
        NodeId(self.nodes.len() - 1)
    }

    /// Registers an input (parameter or data) node.
    pub fn leaf(&mut self, value: Matrix) -> NodeId {
        self.push(value, Op::Leaf)
    }

    /// Registers a frozen input: backward skips its gradient entirely.
    ///
    /// Use for pretrained weights during adapter training; the saving is
    /// substantial because weight gradients dominate backward cost.
    pub fn leaf_no_grad(&mut self, value: Matrix) -> NodeId {
        let id = self.push(value, Op::Leaf);
        self.nodes[id.0].needs_grad = false;
        id
    }

    /// Forward value of a node.
    pub fn value(&self, id: NodeId) -> &Matrix {
        &self.nodes[id.0].value
    }

    /// Gradient of the loss with respect to a node, if backward reached it.
    pub fn grad(&self, id: NodeId) -> Option<&Matrix> {
        self.nodes[id.0].grad.as_ref()
    }

    /// Matrix product node.
    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.value(a).matmul(self.value(b));
        self.push(v, Op::MatMul(a, b))
    }

    /// Elementwise addition node.
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.value(a).add(self.value(b));
        self.push(v, Op::Add(a, b))
    }

    /// Broadcast bias addition node (`bias` is `1 x cols`).
    ///
    /// # Panics
    ///
    /// Panics if `bias` is not a single row of matching width.
    pub fn add_bias(&mut self, a: NodeId, bias: NodeId) -> NodeId {
        let (bav, bbv) = (self.value(a), self.value(bias));
        assert_eq!(bbv.rows(), 1, "bias must be a row vector");
        assert_eq!(bbv.cols(), bav.cols(), "bias width mismatch");
        let mut v = bav.clone();
        for r in 0..v.rows() {
            let row = v.row_mut(r);
            for (x, b) in row.iter_mut().zip(bbv.row(0).iter()) {
                *x += b;
            }
        }
        self.push(v, Op::AddBias(a, bias))
    }

    /// Affine projection `x W + b`: a matmul then a broadcast bias add.
    pub fn linear(&mut self, x: NodeId, w: NodeId, b: NodeId) -> NodeId {
        let y = self.matmul(x, w);
        self.add_bias(y, b)
    }

    /// Scalar multiple node.
    pub fn scale(&mut self, a: NodeId, alpha: f32) -> NodeId {
        let v = self.value(a).scale(alpha);
        self.push(v, Op::Scale(a, alpha))
    }

    /// GELU activation node.
    pub fn gelu(&mut self, a: NodeId) -> NodeId {
        let v = self.value(a).map(gelu);
        self.push(v, Op::Gelu(a))
    }

    /// Row-wise LayerNorm node with learned gain and bias.
    pub fn layer_norm(&mut self, x: NodeId, gain: NodeId, bias: NodeId) -> NodeId {
        let xv = self.value(x);
        let g = self.value(gain);
        let b = self.value(bias);
        assert_eq!(g.rows(), 1, "gain must be a row vector");
        assert_eq!(b.rows(), 1, "bias must be a row vector");
        let (rows, cols) = xv.shape();
        let mut normed = Matrix::zeros(rows, cols);
        let mut out = Matrix::zeros(rows, cols);
        let mut row_stats = Vec::with_capacity(rows);
        for r in 0..rows {
            let row = xv.row(r);
            let (mean, inv_std) = layer_norm_stats(row);
            row_stats.push((mean, inv_std));
            for (c, &v) in row.iter().enumerate() {
                let n = (v - mean) * inv_std;
                normed.set(r, c, n);
                out.set(r, c, n * g.get(0, c) + b.get(0, c));
            }
        }
        self.push(
            out,
            Op::LayerNorm {
                x,
                gain,
                bias,
                row_stats,
                normed,
            },
        )
    }

    /// Fused multi-head causal self-attention node.
    ///
    /// `q`, `k`, `v` are `(T, d)` with `d % heads == 0`. Scores use the
    /// `1/sqrt(d_head)` scaling and a strict causal mask.
    pub fn mha_causal(&mut self, q: NodeId, k: NodeId, v: NodeId, heads: usize) -> NodeId {
        let (t, d) = self.value(q).shape();
        assert_eq!(self.value(k).shape(), (t, d), "k shape mismatch");
        assert_eq!(self.value(v).shape(), (t, d), "v shape mismatch");
        assert!(
            heads > 0 && d % heads == 0,
            "d={d} not divisible by heads={heads}"
        );
        let dh = d / heads;
        let scale = 1.0 / (dh as f32).sqrt();
        let mut out = Matrix::zeros(t, d);
        let mut probs = Vec::with_capacity(heads);
        for h in 0..heads {
            let qh = slice_cols(self.value(q), h * dh, dh);
            let kh = slice_cols(self.value(k), h * dh, dh);
            let vh = slice_cols(self.value(v), h * dh, dh);
            // Scores with causal mask, then row softmax.
            let mut scores = qh.matmul_nt(&kh);
            scores.scale_assign(scale);
            for i in 0..t {
                for j in (i + 1)..t {
                    scores.set(i, j, f32::NEG_INFINITY);
                }
            }
            let a = softmax_rows(&scores);
            let oh = a.matmul(&vh);
            write_cols(&mut out, &oh, h * dh);
            probs.push(a);
        }
        self.push(
            out,
            Op::Mha {
                q,
                k,
                v,
                heads,
                probs,
            },
        )
    }

    /// Embedding gather node: row `i` of the output is `table[ids[i]]`.
    ///
    /// # Panics
    ///
    /// Panics if any id is out of range.
    pub fn gather(&mut self, table: NodeId, ids: &[usize]) -> NodeId {
        let tv = self.value(table);
        let mut out = Matrix::zeros(ids.len(), tv.cols());
        for (r, &id) in ids.iter().enumerate() {
            assert!(id < tv.rows(), "gather id {id} out of range");
            out.row_mut(r).copy_from_slice(tv.row(id));
        }
        self.push(
            out,
            Op::Gather {
                table,
                ids: ids.to_vec(),
            },
        )
    }

    /// Fused masked mean cross-entropy loss node (`1 x 1` output).
    ///
    /// `weights[i]` scales position `i`'s contribution; positions with zero
    /// weight are ignored. The loss is `sum_i w_i * nll_i / sum_i w_i`.
    ///
    /// # Panics
    ///
    /// Panics if lengths mismatch or all weights are zero.
    pub fn cross_entropy(&mut self, logits: NodeId, targets: &[usize], weights: &[f32]) -> NodeId {
        let lv = self.value(logits);
        assert_eq!(lv.rows(), targets.len(), "target length mismatch");
        assert_eq!(lv.rows(), weights.len(), "weight length mismatch");
        let probs = softmax_rows(lv);
        let weight_sum: f32 = weights.iter().sum();
        assert!(
            weight_sum > 0.0,
            "cross_entropy needs at least one weighted position"
        );
        let mut loss = 0.0f64;
        for (r, (&t, &w)) in targets.iter().zip(weights.iter()).enumerate() {
            if w == 0.0 {
                continue;
            }
            assert!(t < lv.cols(), "target {t} out of vocab");
            let p = probs.get(r, t).max(1e-12);
            loss -= (w as f64) * (p as f64).ln();
        }
        let v = Matrix::from_vec(1, 1, vec![(loss / weight_sum as f64) as f32]);
        self.push(
            v,
            Op::CrossEntropy {
                logits,
                targets: targets.to_vec(),
                weights: weights.to_vec(),
                probs,
                weight_sum,
            },
        )
    }

    /// Runs the backward pass from `root`, which must be a `1 x 1` node.
    ///
    /// # Panics
    ///
    /// Panics if `root` is not scalar-shaped.
    pub fn backward(&mut self, root: NodeId) {
        assert_eq!(
            self.nodes[root.0].value.shape(),
            (1, 1),
            "backward root must be scalar"
        );
        for n in &mut self.nodes {
            n.grad = None;
        }
        self.nodes[root.0].grad = Some(Matrix::from_vec(1, 1, vec![1.0]));
        for i in (0..=root.0).rev() {
            let Some(grad_out) = self.nodes[i].grad.take() else {
                continue;
            };
            // Take op temporarily to appease the borrow checker, then put it back.
            let op = std::mem::replace(&mut self.nodes[i].op, Op::Leaf);
            self.apply_backward(&op, &grad_out);
            self.nodes[i].op = op;
            self.nodes[i].grad = Some(grad_out);
        }
    }

    fn accumulate(&mut self, id: NodeId, g: Matrix) {
        if !self.nodes[id.0].needs_grad {
            return;
        }
        match &mut self.nodes[id.0].grad {
            Some(existing) => existing.add_assign(&g),
            slot @ None => *slot = Some(g),
        }
    }

    fn wants(&self, id: NodeId) -> bool {
        self.nodes[id.0].needs_grad
    }

    fn apply_backward(&mut self, op: &Op, grad_out: &Matrix) {
        match op {
            Op::Leaf => {}
            Op::MatMul(a, b) => {
                if self.wants(*a) {
                    let ga = grad_out.matmul_nt(self.value(*b));
                    self.accumulate(*a, ga);
                }
                if self.wants(*b) {
                    let gb = self.value(*a).matmul_tn(grad_out);
                    self.accumulate(*b, gb);
                }
            }
            Op::Add(a, b) => {
                self.accumulate(*a, grad_out.clone());
                self.accumulate(*b, grad_out.clone());
            }
            Op::AddBias(a, bias) => {
                self.accumulate(*a, grad_out.clone());
                let mut gb = Matrix::zeros(1, grad_out.cols());
                for r in 0..grad_out.rows() {
                    for (c, g) in grad_out.row(r).iter().enumerate() {
                        gb.set(0, c, gb.get(0, c) + g);
                    }
                }
                self.accumulate(*bias, gb);
            }
            Op::Scale(a, alpha) => {
                self.accumulate(*a, grad_out.scale(*alpha));
            }
            Op::Gelu(a) => {
                let x = self.value(*a);
                let mut g = grad_out.clone();
                for (gi, xi) in g.data_mut().iter_mut().zip(x.data().iter()) {
                    *gi *= gelu_grad_scalar(*xi);
                }
                self.accumulate(*a, g);
            }
            Op::LayerNorm {
                x,
                gain,
                bias,
                row_stats,
                normed,
            } => {
                let g = self.value(*gain).clone();
                let (rows, cols) = normed.shape();
                let mut gx = Matrix::zeros(rows, cols);
                let mut ggain = Matrix::zeros(1, cols);
                let mut gbias = Matrix::zeros(1, cols);
                for (r, &(_, inv_std)) in row_stats.iter().enumerate() {
                    // dnorm = grad_out * gain.
                    let mut dnorm = vec![0.0f32; cols];
                    let go_row = grad_out.row(r);
                    let n_row = normed.row(r);
                    for c in 0..cols {
                        dnorm[c] = go_row[c] * g.get(0, c);
                        ggain.set(0, c, ggain.get(0, c) + go_row[c] * n_row[c]);
                        gbias.set(0, c, gbias.get(0, c) + go_row[c]);
                    }
                    let mean_dnorm: f32 = dnorm.iter().sum::<f32>() / cols as f32;
                    let mean_dnorm_n: f32 = dnorm
                        .iter()
                        .zip(n_row.iter())
                        .map(|(d, n)| d * n)
                        .sum::<f32>()
                        / cols as f32;
                    let gx_row = gx.row_mut(r);
                    for c in 0..cols {
                        gx_row[c] = inv_std * (dnorm[c] - mean_dnorm - n_row[c] * mean_dnorm_n);
                    }
                }
                self.accumulate(*x, gx);
                self.accumulate(*gain, ggain);
                self.accumulate(*bias, gbias);
            }
            Op::Mha {
                q,
                k,
                v,
                heads,
                probs,
            } => {
                let (t, d) = self.value(*q).shape();
                let dh = d / heads;
                let scale = 1.0 / (dh as f32).sqrt();
                let mut gq = Matrix::zeros(t, d);
                let mut gk = Matrix::zeros(t, d);
                let mut gv = Matrix::zeros(t, d);
                for (h, a) in probs.iter().enumerate() {
                    let qh = slice_cols(self.value(*q), h * dh, dh);
                    let kh = slice_cols(self.value(*k), h * dh, dh);
                    let vh = slice_cols(self.value(*v), h * dh, dh);
                    let go_h = slice_cols(grad_out, h * dh, dh);
                    // dV = A^T dO.
                    let gvh = a.matmul_tn(&go_h);
                    // dA = dO V^T.
                    let da = go_h.matmul_nt(&vh);
                    // dS = A .* (dA - rowsum(dA .* A)).
                    let mut ds = Matrix::zeros(t, t);
                    for i in 0..t {
                        let a_row = a.row(i);
                        let da_row = da.row(i);
                        let dot: f32 = a_row.iter().zip(da_row.iter()).map(|(x, y)| x * y).sum();
                        let ds_row = ds.row_mut(i);
                        for j in 0..t {
                            ds_row[j] = a_row[j] * (da_row[j] - dot);
                        }
                    }
                    // dQ = dS K * scale ; dK = dS^T Q * scale.
                    let mut gqh = ds.matmul(&kh);
                    gqh.scale_assign(scale);
                    let mut gkh = ds.matmul_tn(&qh);
                    gkh.scale_assign(scale);
                    write_cols_add(&mut gq, &gqh, h * dh);
                    write_cols_add(&mut gk, &gkh, h * dh);
                    write_cols_add(&mut gv, &gvh, h * dh);
                }
                self.accumulate(*q, gq);
                self.accumulate(*k, gk);
                self.accumulate(*v, gv);
            }
            Op::Gather { table, ids } => {
                if !self.wants(*table) {
                    return;
                }
                let cols = grad_out.cols();
                let mut gt = Matrix::zeros(self.value(*table).rows(), cols);
                for (r, &id) in ids.iter().enumerate() {
                    let src = grad_out.row(r);
                    let dst = gt.row_mut(id);
                    for (d, s) in dst.iter_mut().zip(src.iter()) {
                        *d += s;
                    }
                }
                self.accumulate(*table, gt);
            }
            Op::CrossEntropy {
                logits,
                targets,
                weights,
                probs,
                weight_sum,
            } => {
                let upstream = grad_out.get(0, 0);
                let mut gl = probs.clone();
                for r in 0..gl.rows() {
                    let w = weights[r];
                    if w == 0.0 {
                        for x in gl.row_mut(r) {
                            *x = 0.0;
                        }
                        continue;
                    }
                    let t = targets[r];
                    let coeff = upstream * w / *weight_sum;
                    let row = gl.row_mut(r);
                    row[t] -= 1.0;
                    for x in row.iter_mut() {
                        *x *= coeff;
                    }
                }
                self.accumulate(*logits, gl);
            }
        }
    }
}

/// Copies `width` columns starting at `c0` out of `m`.
fn slice_cols(m: &Matrix, c0: usize, width: usize) -> Matrix {
    m.submatrix(0, c0, m.rows(), width)
}

/// Writes `block` into `m` at column offset `c0` (overwrite).
fn write_cols(m: &mut Matrix, block: &Matrix, c0: usize) {
    m.set_submatrix(0, c0, block);
}

/// Adds `block` into `m` at column offset `c0`.
fn write_cols_add(m: &mut Matrix, block: &Matrix, c0: usize) {
    for r in 0..block.rows() {
        for c in 0..block.cols() {
            let cur = m.get(r, c0 + c);
            m.set(r, c0 + c, cur + block.get(r, c));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dz_tensor::Rng;

    /// Central-difference gradient of `f` at `input`, where `f` evaluates a
    /// fresh graph and returns the scalar loss.
    fn numeric_grad(f: &dyn Fn(&Matrix) -> f32, input: &Matrix, eps: f32) -> Matrix {
        let mut g = Matrix::zeros(input.rows(), input.cols());
        for r in 0..input.rows() {
            for c in 0..input.cols() {
                let mut plus = input.clone();
                plus.set(r, c, plus.get(r, c) + eps);
                let mut minus = input.clone();
                minus.set(r, c, minus.get(r, c) - eps);
                g.set(r, c, (f(&plus) - f(&minus)) / (2.0 * eps));
            }
        }
        g
    }

    fn assert_close(a: &Matrix, b: &Matrix, tol: f32, what: &str) {
        let d = a.max_abs_diff(b);
        assert!(d < tol, "{what}: max diff {d} (tol {tol})");
    }

    #[test]
    fn matmul_backward_matches_fd() {
        let mut rng = Rng::seeded(1);
        let a0 = Matrix::randn(3, 4, 0.5, &mut rng);
        let b0 = Matrix::randn(4, 2, 0.5, &mut rng);
        let t0 = Matrix::randn(3, 2, 0.5, &mut rng);

        let loss_of = |a: &Matrix, b: &Matrix| -> f32 {
            // Scalar loss: CE of (A B) against fixed targets is overkill;
            // use sum of squares via hadamard with itself through CE-free path.
            // Simplest scalar: CE over logits.
            let mut tape = Tape::new();
            let an = tape.leaf(a.clone());
            let bn = tape.leaf(b.clone());
            let c = tape.matmul(an, bn);
            let _ = &t0;
            let l = tape.cross_entropy(c, &[0, 1, 0], &[1.0, 1.0, 1.0]);
            tape.value(l).get(0, 0)
        };

        let mut tape = Tape::new();
        let an = tape.leaf(a0.clone());
        let bn = tape.leaf(b0.clone());
        let c = tape.matmul(an, bn);
        let l = tape.cross_entropy(c, &[0, 1, 0], &[1.0, 1.0, 1.0]);
        tape.backward(l);

        let ga = numeric_grad(&|a| loss_of(a, &b0), &a0, 1e-3);
        let gb = numeric_grad(&|b| loss_of(&a0, b), &b0, 1e-3);
        assert_close(tape.grad(an).unwrap(), &ga, 2e-2, "dA");
        assert_close(tape.grad(bn).unwrap(), &gb, 2e-2, "dB");
    }

    #[test]
    fn gelu_backward_matches_fd() {
        let mut rng = Rng::seeded(2);
        let x0 = Matrix::randn(2, 5, 1.0, &mut rng);
        let loss_of = |x: &Matrix| -> f32 {
            let mut tape = Tape::new();
            let xn = tape.leaf(x.clone());
            let g = tape.gelu(xn);
            let l = tape.cross_entropy(g, &[1, 3], &[1.0, 1.0]);
            tape.value(l).get(0, 0)
        };
        let mut tape = Tape::new();
        let xn = tape.leaf(x0.clone());
        let g = tape.gelu(xn);
        let l = tape.cross_entropy(g, &[1, 3], &[1.0, 1.0]);
        tape.backward(l);
        let gx = numeric_grad(&loss_of, &x0, 1e-3);
        assert_close(tape.grad(xn).unwrap(), &gx, 2e-2, "dX gelu");
    }

    #[test]
    fn layernorm_backward_matches_fd() {
        let mut rng = Rng::seeded(3);
        let x0 = Matrix::randn(3, 6, 1.0, &mut rng);
        let g0 = Matrix::randn(1, 6, 0.3, &mut rng).map(|v| v + 1.0);
        let b0 = Matrix::randn(1, 6, 0.3, &mut rng);
        let loss_of = |x: &Matrix, g: &Matrix, b: &Matrix| -> f32 {
            let mut tape = Tape::new();
            let xn = tape.leaf(x.clone());
            let gn = tape.leaf(g.clone());
            let bn = tape.leaf(b.clone());
            let y = tape.layer_norm(xn, gn, bn);
            let l = tape.cross_entropy(y, &[0, 2, 4], &[1.0, 0.5, 1.0]);
            tape.value(l).get(0, 0)
        };
        let mut tape = Tape::new();
        let xn = tape.leaf(x0.clone());
        let gn = tape.leaf(g0.clone());
        let bn = tape.leaf(b0.clone());
        let y = tape.layer_norm(xn, gn, bn);
        let l = tape.cross_entropy(y, &[0, 2, 4], &[1.0, 0.5, 1.0]);
        tape.backward(l);
        assert_close(
            tape.grad(xn).unwrap(),
            &numeric_grad(&|x| loss_of(x, &g0, &b0), &x0, 1e-3),
            3e-2,
            "dX ln",
        );
        assert_close(
            tape.grad(gn).unwrap(),
            &numeric_grad(&|g| loss_of(&x0, g, &b0), &g0, 1e-3),
            3e-2,
            "dGain ln",
        );
        assert_close(
            tape.grad(bn).unwrap(),
            &numeric_grad(&|b| loss_of(&x0, &g0, b), &b0, 1e-3),
            3e-2,
            "dBias ln",
        );
    }

    #[test]
    fn mha_backward_matches_fd() {
        let mut rng = Rng::seeded(4);
        let t = 4;
        let d = 6;
        let q0 = Matrix::randn(t, d, 0.7, &mut rng);
        let k0 = Matrix::randn(t, d, 0.7, &mut rng);
        let v0 = Matrix::randn(t, d, 0.7, &mut rng);
        let targets = [1, 0, 3, 2];
        let weights = [1.0, 1.0, 1.0, 1.0];
        let loss_of = |q: &Matrix, k: &Matrix, v: &Matrix| -> f32 {
            let mut tape = Tape::new();
            let qn = tape.leaf(q.clone());
            let kn = tape.leaf(k.clone());
            let vn = tape.leaf(v.clone());
            let o = tape.mha_causal(qn, kn, vn, 2);
            let l = tape.cross_entropy(o, &targets, &weights);
            tape.value(l).get(0, 0)
        };
        let mut tape = Tape::new();
        let qn = tape.leaf(q0.clone());
        let kn = tape.leaf(k0.clone());
        let vn = tape.leaf(v0.clone());
        let o = tape.mha_causal(qn, kn, vn, 2);
        let l = tape.cross_entropy(o, &targets, &weights);
        tape.backward(l);
        assert_close(
            tape.grad(qn).unwrap(),
            &numeric_grad(&|q| loss_of(q, &k0, &v0), &q0, 1e-3),
            3e-2,
            "dQ",
        );
        assert_close(
            tape.grad(kn).unwrap(),
            &numeric_grad(&|k| loss_of(&q0, k, &v0), &k0, 1e-3),
            3e-2,
            "dK",
        );
        assert_close(
            tape.grad(vn).unwrap(),
            &numeric_grad(&|v| loss_of(&q0, &k0, v), &v0, 1e-3),
            3e-2,
            "dV",
        );
    }

    #[test]
    fn gather_backward_scatters() {
        let mut rng = Rng::seeded(5);
        let table0 = Matrix::randn(5, 3, 1.0, &mut rng);
        let ids = [1usize, 1, 4];
        let loss_of = |tab: &Matrix| -> f32 {
            let mut tape = Tape::new();
            let tn = tape.leaf(tab.clone());
            let g = tape.gather(tn, &ids);
            let l = tape.cross_entropy(g, &[0, 1, 2], &[1.0, 1.0, 1.0]);
            tape.value(l).get(0, 0)
        };
        let mut tape = Tape::new();
        let tn = tape.leaf(table0.clone());
        let g = tape.gather(tn, &ids);
        let l = tape.cross_entropy(g, &[0, 1, 2], &[1.0, 1.0, 1.0]);
        tape.backward(l);
        assert_close(
            tape.grad(tn).unwrap(),
            &numeric_grad(&loss_of, &table0, 1e-3),
            2e-2,
            "dTable",
        );
        // Rows never gathered must have zero grad.
        let gt = tape.grad(tn).unwrap();
        assert!(gt.row(0).iter().all(|&v| v == 0.0));
        assert!(gt.row(2).iter().all(|&v| v == 0.0));
        assert!(gt.row(3).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn cross_entropy_masked_positions_get_zero_grad() {
        let logits = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[0.5, 0.2, 0.1]]);
        let mut tape = Tape::new();
        let ln = tape.leaf(logits);
        let l = tape.cross_entropy(ln, &[2, 0], &[1.0, 0.0]);
        tape.backward(l);
        let g = tape.grad(ln).unwrap();
        assert!(g.row(1).iter().all(|&v| v == 0.0));
        assert!(g.row(0).iter().any(|&v| v != 0.0));
    }

    #[test]
    fn cross_entropy_value_matches_manual() {
        let logits = Matrix::from_rows(&[&[0.0, 0.0]]);
        let mut tape = Tape::new();
        let ln = tape.leaf(logits);
        let l = tape.cross_entropy(ln, &[0], &[1.0]);
        let expect = (2.0f32).ln();
        assert!((tape.value(l).get(0, 0) - expect).abs() < 1e-6);
    }

    #[test]
    fn residual_and_bias_composition() {
        // A small composed graph exercising Add, AddBias and Scale.
        let mut rng = Rng::seeded(6);
        let x0 = Matrix::randn(2, 3, 1.0, &mut rng);
        let b0 = Matrix::randn(1, 3, 1.0, &mut rng);
        let loss_of = |x: &Matrix, b: &Matrix| -> f32 {
            let mut tape = Tape::new();
            let xn = tape.leaf(x.clone());
            let bn = tape.leaf(b.clone());
            let y = tape.add_bias(xn, bn);
            let y2 = tape.scale(y, 0.5);
            let y3 = tape.add(y2, xn);
            let l = tape.cross_entropy(y3, &[0, 1], &[1.0, 1.0]);
            tape.value(l).get(0, 0)
        };
        let mut tape = Tape::new();
        let xn = tape.leaf(x0.clone());
        let bn = tape.leaf(b0.clone());
        let y = tape.add_bias(xn, bn);
        let y2 = tape.scale(y, 0.5);
        let y3 = tape.add(y2, xn);
        let l = tape.cross_entropy(y3, &[0, 1], &[1.0, 1.0]);
        tape.backward(l);
        assert_close(
            tape.grad(xn).unwrap(),
            &numeric_grad(&|x| loss_of(x, &b0), &x0, 1e-3),
            2e-2,
            "dX composed",
        );
        assert_close(
            tape.grad(bn).unwrap(),
            &numeric_grad(&|b| loss_of(&x0, b), &b0, 1e-3),
            2e-2,
            "dBias composed",
        );
    }

    #[test]
    fn causal_mask_blocks_future_positions() {
        // Changing a future K/V row must not affect earlier outputs.
        let mut rng = Rng::seeded(7);
        let q = Matrix::randn(3, 4, 1.0, &mut rng);
        let k = Matrix::randn(3, 4, 1.0, &mut rng);
        let v = Matrix::randn(3, 4, 1.0, &mut rng);
        let mut tape = Tape::new();
        let (qn, kn, vn) = (
            tape.leaf(q.clone()),
            tape.leaf(k.clone()),
            tape.leaf(v.clone()),
        );
        let o1 = tape.mha_causal(qn, kn, vn, 2);
        let row0_before: Vec<f32> = tape.value(o1).row(0).to_vec();

        let mut k2 = k.clone();
        k2.set(2, 0, 99.0);
        let mut v2 = v.clone();
        v2.set(2, 1, -99.0);
        let mut tape2 = Tape::new();
        let (qn2, kn2, vn2) = (tape2.leaf(q), tape2.leaf(k2), tape2.leaf(v2));
        let o2 = tape2.mha_causal(qn2, kn2, vn2, 2);
        let row0_after: Vec<f32> = tape2.value(o2).row(0).to_vec();
        assert_eq!(row0_before, row0_after);
    }
}
