//! Transformer shape descriptors for the serving simulations.
//!
//! The serving experiments run at the paper's real model scales (7B/13B/70B
//! parameters); only *shapes* matter to the performance model, no weights
//! are materialized.

use serde::Serialize;

/// Dimensions of a decoder-only transformer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ModelShape {
    /// Human name.
    pub name: &'static str,
    /// Transformer blocks.
    pub n_layers: usize,
    /// Residual width.
    pub d_model: usize,
    /// MLP hidden width.
    pub d_ff: usize,
    /// Vocabulary size.
    pub vocab: usize,
}

impl ModelShape {
    /// Llama-2 7B.
    pub fn llama7b() -> Self {
        ModelShape {
            name: "llama-7b",
            n_layers: 32,
            d_model: 4096,
            d_ff: 11008,
            vocab: 32000,
        }
    }

    /// Llama-2 13B.
    pub fn llama13b() -> Self {
        ModelShape {
            name: "llama-13b",
            n_layers: 40,
            d_model: 5120,
            d_ff: 13824,
            vocab: 32000,
        }
    }

    /// Per-layer linear shapes `(k, n)`: q, k, v, o projections plus the
    /// SwiGLU MLP (gate, up, down).
    pub fn layer_linears(&self) -> Vec<(usize, usize)> {
        vec![
            (self.d_model, self.d_model), // wq
            (self.d_model, self.d_model), // wk
            (self.d_model, self.d_model), // wv
            (self.d_model, self.d_model), // wo
            (self.d_model, self.d_ff),    // gate
            (self.d_model, self.d_ff),    // up
            (self.d_ff, self.d_model),    // down
        ]
    }

    /// Parameter count of all linear layers.
    pub fn linear_params(&self) -> usize {
        let per: usize = self.layer_linears().iter().map(|(k, n)| k * n).sum();
        per * self.n_layers
    }

    /// Total parameter count (linears + embeddings; norms negligible).
    pub fn total_params(&self) -> usize {
        self.linear_params() + 2 * self.vocab * self.d_model
    }

    /// FP16 bytes of the whole model.
    pub fn fp16_bytes(&self) -> f64 {
        self.total_params() as f64 * 2.0
    }

    /// Bytes of a compressed delta for this shape.
    ///
    /// `bits` + 2:4 sparsity on every linear layer, everything else FP16 —
    /// the same accounting `dz-compress` does exactly, applied at scale.
    pub fn delta_bytes(&self, bits: u32, sparse24: bool) -> f64 {
        let fmt = crate::kernel::WeightFormat::Int { bits, sparse24 };
        let per_layer: f64 = self
            .layer_linears()
            .iter()
            .map(|&(k, n)| fmt.weight_bytes(k, n))
            .sum();
        // Embeddings ride along uncompressed.
        per_layer * self.n_layers as f64 + (2 * self.vocab * self.d_model) as f64 * 2.0
    }

    /// Bytes of a LoRA adapter of rank `r` applied to q and v projections.
    pub fn lora_bytes(&self, rank: usize) -> f64 {
        // Two adapted projections per layer, each A (d x r) + B (r x d).
        (self.n_layers * 2 * 2 * self.d_model * rank) as f64 * 2.0
    }

    /// KV-cache bytes per token (FP16 keys + values across layers).
    pub fn kv_bytes_per_token(&self) -> f64 {
        (2 * self.n_layers * self.d_model) as f64 * 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_counts_land_near_nameplate() {
        let b7 = ModelShape::llama7b().total_params() as f64 / 1e9;
        let b13 = ModelShape::llama13b().total_params() as f64 / 1e9;
        assert!((6.0..8.0).contains(&b7), "7b -> {b7}");
        assert!((11.5..14.5).contains(&b13), "13b -> {b13}");
    }

    #[test]
    fn delta_is_much_smaller_than_model() {
        let s = ModelShape::llama13b();
        let full = s.fp16_bytes();
        let d4 = s.delta_bytes(4, true);
        let d2 = s.delta_bytes(2, true);
        assert!(full / d4 > 4.0, "4bit ratio {}", full / d4);
        assert!(full / d2 > 5.5, "2bit ratio {}", full / d2);
        assert!(d2 < d4);
    }

    #[test]
    fn lora_is_smaller_than_delta() {
        let s = ModelShape::llama13b();
        assert!(s.lora_bytes(16) < s.delta_bytes(2, true));
        assert!(s.lora_bytes(16) < s.lora_bytes(64));
    }

    #[test]
    fn kv_bytes_scale_with_depth_and_width() {
        assert!(
            ModelShape::llama13b().kv_bytes_per_token()
                > ModelShape::llama7b().kv_bytes_per_token()
        );
    }
}
