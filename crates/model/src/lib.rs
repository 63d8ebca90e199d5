//! A tiny, fully trainable GPT-style transformer substrate.
//!
//! The DeltaZip paper compresses deltas of *real* fine-tuned models. We have
//! no GPU or pretrained checkpoints here, so this crate provides the closest
//! faithful substitute: a complete decoder-only transformer implemented from
//! scratch (tape-based reverse-mode autograd, Adam, LayerNorm, multi-head
//! causal attention) that we pre-train on a synthetic corpus and then
//! **actually full-model fine-tune** (or LoRA fine-tune) on synthetic
//! downstream tasks. Fine-tuning a converged model with a small learning
//! rate produces genuinely small-magnitude deltas — the phenomenon Figure 3
//! of the paper illustrates and ΔCompress exploits.
//!
//! Key modules:
//!
//! * [`autograd`] — a minimal tape with exactly the ops a transformer needs,
//!   each with a hand-written backward pass (checked against finite
//!   differences in tests),
//! * [`transformer`] — parameters and the model's only copies of its
//!   arithmetic: one tape builder ([`transformer::forward_graph`], with a
//!   per-projection hook the adapter methods extend), one cached inference
//!   forward ([`transformer::forward_infer`]: embedding, one
//!   [`transformer::layer_infer`] step per block, head; calibration walks
//!   the model with that same step), and the inference primitives the
//!   batched serving runner calls (row LayerNorm,
//!   [`transformer::KvCache::attend`], GELU, argmax),
//! * [`train`] — the one Adam optimizer plus pre-training / FMT loops,
//! * [`lora`], [`rosa`], [`galore`] — the PEFT and low-rank-gradient
//!   fine-tuning methods, all on `train`'s Adam and `transformer`'s tape
//!   builder,
//! * [`eval`] — task accuracy, perplexity, greedy generation,
//! * [`tasks`] / [`vocab`] — synthetic downstream tasks of graded
//!   difficulty standing in for the paper's evaluation suites,
//! * [`zoo`] — named model-family presets mirroring the paper's model list.

pub mod autograd;
pub mod eval;
pub mod galore;
pub mod lora;
pub mod rosa;
pub mod tasks;
pub mod train;
pub mod transformer;
pub mod vocab;
pub mod zoo;

pub use transformer::{ModelConfig, Params};
