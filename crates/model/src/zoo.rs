//! Named model-family presets mirroring the paper's evaluation models.
//!
//! Each preset is a tiny transformer whose *relative* proportions echo the
//! paper's model list. The Gemma analogs use a 4x larger vocabulary at the
//! same width, reproducing the paper's observation that Gemma-2's
//! embedding-heavy parameter budget caps the achievable whole-model
//! compression ratio (embeddings are not compressed).

use crate::transformer::ModelConfig;
use crate::vocab::MIN_VOCAB;

/// A named preset plus its paper analog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelPreset {
    /// Stable preset name.
    pub name: &'static str,
    /// Which paper model this stands in for.
    pub paper_analog: &'static str,
    /// Model family (presets in one family share a tokenizer/vocab).
    pub family: &'static str,
    /// The hyper-parameters.
    pub config: ModelConfig,
}

/// Standard vocabulary for the Llama/Pythia-analog families.
pub const VOCAB_STD: usize = MIN_VOCAB; // 60
/// Enlarged vocabulary for the Gemma-analog family (embedding heavy).
pub const VOCAB_LARGE: usize = 4 * MIN_VOCAB; // 240

/// All presets in evaluation order (matches Table 1 of the paper).
pub fn presets() -> Vec<ModelPreset> {
    vec![
        ModelPreset {
            name: "pythia-tiny",
            paper_analog: "Pythia-2.8B",
            family: "pythia",
            config: ModelConfig {
                vocab: VOCAB_STD,
                d_model: 32,
                n_layers: 2,
                n_heads: 2,
                d_ff: 64,
                max_seq: 24,
            },
        },
        ModelPreset {
            name: "llama-tiny-s",
            paper_analog: "Llama-2 7B",
            family: "llama",
            config: ModelConfig {
                vocab: VOCAB_STD,
                d_model: 48,
                n_layers: 3,
                n_heads: 4,
                d_ff: 96,
                max_seq: 24,
            },
        },
        ModelPreset {
            name: "llama-tiny-m",
            paper_analog: "Llama-2 13B",
            family: "llama",
            config: ModelConfig {
                vocab: VOCAB_STD,
                d_model: 64,
                n_layers: 4,
                n_heads: 4,
                d_ff: 128,
                max_seq: 24,
            },
        },
        ModelPreset {
            name: "llama-tiny-l",
            paper_analog: "Llama-2 70B",
            family: "llama",
            config: ModelConfig {
                vocab: VOCAB_STD,
                d_model: 96,
                n_layers: 5,
                n_heads: 6,
                d_ff: 192,
                max_seq: 24,
            },
        },
        ModelPreset {
            name: "gemma-tiny-s",
            paper_analog: "Gemma 2 2B",
            family: "gemma",
            config: ModelConfig {
                vocab: VOCAB_LARGE,
                d_model: 32,
                n_layers: 2,
                n_heads: 2,
                d_ff: 64,
                max_seq: 24,
            },
        },
        ModelPreset {
            name: "gemma-tiny-m",
            paper_analog: "Gemma 2 9B",
            family: "gemma",
            config: ModelConfig {
                vocab: VOCAB_LARGE,
                d_model: 48,
                n_layers: 3,
                n_heads: 4,
                d_ff: 96,
                max_seq: 24,
            },
        },
        ModelPreset {
            name: "openllama-tiny",
            paper_analog: "OpenLlama 3B",
            family: "llama",
            config: ModelConfig {
                vocab: VOCAB_STD,
                d_model: 40,
                n_layers: 3,
                n_heads: 4,
                d_ff: 80,
                max_seq: 24,
            },
        },
    ]
}

/// Looks up a preset by name.
pub fn preset(name: &str) -> Option<ModelPreset> {
    presets().into_iter().find(|p| p.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid_and_unique() {
        let ps = presets();
        for p in &ps {
            p.config.validate();
        }
        let mut names: Vec<_> = ps.iter().map(|p| p.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ps.len());
    }

    #[test]
    fn llama_sizes_are_ordered() {
        let s = preset("llama-tiny-s").unwrap().config.param_count();
        let m = preset("llama-tiny-m").unwrap().config.param_count();
        let l = preset("llama-tiny-l").unwrap().config.param_count();
        assert!(s < m && m < l, "{s} {m} {l}");
    }

    #[test]
    fn lookup_by_name() {
        assert!(preset("pythia-tiny").is_some());
        assert!(preset("gpt-5").is_none());
    }
}
