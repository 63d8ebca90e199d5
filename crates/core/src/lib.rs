//! DeltaZip: efficient serving of multiple full-model-tuned LLMs.
//!
//! This crate is the public face of the reproduction. It mirrors the
//! paper's architecture (Figure 4):
//!
//! * the **Delta Compressor** — [`DeltaZip::register_fmt_variant`] extracts
//!   and ΔCompresses the delta of a registered fine-tuned model against its
//!   base (Algorithm 1),
//! * the **Model Manager** — tracks bases, variants, adapters, lineage and
//!   compression metadata ([`manager`]),
//! * the **Serving Engine** — [`DeltaZip::generate_batch`] actually decodes
//!   batched requests for *different* variants through the decoupled
//!   base-plus-SBMM (or SGMV, for adapters) path on CPU, and an
//!   [`EngineBuilder`] engine replays traces on the calibrated GPU
//!   performance model for the paper's end-to-end serving experiments
//!   (a stored artifact's size enters it through
//!   [`CostModel::with_delta_bytes`]).
//!
//! # Examples
//!
//! ```
//! use deltazip::{DeltaZip, DzError};
//! use dz_compress::pipeline::DeltaCompressConfig;
//! use dz_model::tasks::{Corpus, SentimentTask};
//! use dz_model::train::{finetune_fmt, pretrain, TrainConfig};
//! use dz_model::transformer::{test_config, Params};
//! use dz_tensor::Rng;
//!
//! # fn main() -> Result<(), DzError> {
//! // Train a tiny base and one fine-tuned variant.
//! let cfg = test_config();
//! let mut rng = Rng::seeded(1);
//! let mut base = Params::init(cfg, &mut rng);
//! let corpus = Corpus::new(cfg.max_seq);
//! pretrain(&mut base, &corpus, TrainConfig::pretrain(30));
//! let mut tuned = base.clone();
//! finetune_fmt(&mut tuned, &SentimentTask, TrainConfig::finetune(20));
//!
//! // Register with DeltaZip and serve.
//! let mut dz = DeltaZip::new();
//! let base_id = dz.register_base("tiny-base", base)?;
//! let variant = dz.register_fmt_variant(
//!     "tiny-sentiment",
//!     base_id,
//!     &tuned,
//!     DeltaCompressConfig::starred(4),
//! )?;
//! let out = dz.generate(variant, &[1, 20, 21, 2], 4)?;
//! assert_eq!(out.len(), 4);
//! # Ok(())
//! # }
//! ```

pub mod manager;

use dz_compress::calib::calibration_set;
pub use dz_compress::codec::{BitDeltaCodec, CodecId, DeltaCodec, DeltaComeCodec, SparseGptCodec};
use dz_compress::pipeline::{delta_compress, DeltaCompressConfig, SizeReport};
use dz_kernels::{AdapterView, BatchRunner, Variant};
use dz_model::lora::LoraAdapter;
use dz_model::rosa::RosaAdapter;
use dz_model::tasks::Corpus;
use dz_model::transformer::Params;
pub use dz_serve::{
    chrome_trace_json, write_chrome_trace, AttributedRequest, CauseBreakdown, Causes, ToppingKind,
    TraceConfig, TraceEvent, TraceLog, TraceTrack, Tracer, CAUSE_NAMES,
};
pub use dz_serve::{
    ClusterConfig, ClusterReport, ClusterSim, CostModel, DeltaZipConfig, EngineBuilder,
    LeastLoadedRouter, LoadProfile, Metrics, PlacementAwareRouter, PlacementPlan,
    PopularityPrefetch, PrefetchHint, Prefetcher, QueueLookahead, RoundRobinRouter, Router,
    SwapStats, ToppingsStats, TransferTimeline, VariantCatalog, VariantKind, VariantSpec,
};
pub use dz_store::{
    ArtifactId, DecodeStats, DecodeThroughput, DecodedFetch, Registry, TieredDeltaStore,
};
pub use manager::{params_hash, BaseId, ModelManager, VariantArtifact, VariantId, VariantInfo};

/// Errors surfaced by the public API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DzError {
    /// A name was registered twice.
    DuplicateName(String),
    /// The referenced base does not exist.
    UnknownBase,
    /// The referenced variant does not exist.
    UnknownVariant,
    /// A variant's shape does not match its base.
    ShapeMismatch,
    /// The requested operation needs a delta variant, not an adapter.
    NotADelta,
    /// The artifact store failed (I/O, corruption, or lineage mismatch).
    Storage(String),
}

impl std::fmt::Display for DzError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DzError::DuplicateName(n) => write!(f, "name already registered: {n}"),
            DzError::UnknownBase => write!(f, "unknown base model"),
            DzError::UnknownVariant => write!(f, "unknown variant"),
            DzError::ShapeMismatch => write!(f, "variant shape does not match base"),
            DzError::NotADelta => write!(f, "operation requires a compressed-delta variant"),
            DzError::Storage(msg) => write!(f, "artifact store: {msg}"),
        }
    }
}

impl std::error::Error for DzError {}

/// The DeltaZip system facade.
pub struct DeltaZip {
    manager: ModelManager,
    /// Calibration sequences per base (sampled at registration).
    calib_size: usize,
    calib_seed: u64,
}

impl Default for DeltaZip {
    /// The same system as [`DeltaZip::new`], calibration defaults included.
    fn default() -> Self {
        Self::new()
    }
}

impl DeltaZip {
    /// Creates an empty system with the paper's calibration defaults
    /// (a small sample of generic sequences, 256 in the paper; scaled to
    /// the tiny models here).
    pub fn new() -> Self {
        DeltaZip {
            manager: ModelManager::default(),
            calib_size: 16,
            calib_seed: 0xCA11B,
        }
    }

    /// Access to the model manager (lineage, metadata).
    pub fn manager(&self) -> &ModelManager {
        &self.manager
    }

    /// Registers a pre-trained base model.
    pub fn register_base(&mut self, name: &str, params: Params) -> Result<BaseId, DzError> {
        self.manager.add_base(name, params)
    }

    /// Registers a full-model-tuned variant: extracts the delta against the
    /// base, runs ΔCompress with a synthetic calibration set, and stores the
    /// packed artifact in the delta zoo.
    pub fn register_fmt_variant(
        &mut self,
        name: &str,
        base: BaseId,
        finetuned: &Params,
        config: DeltaCompressConfig,
    ) -> Result<VariantId, DzError> {
        let base_params = self.manager.base_params(base).ok_or(DzError::UnknownBase)?;
        if base_params.config != finetuned.config {
            return Err(DzError::ShapeMismatch);
        }
        let corpus = Corpus::new(base_params.config.max_seq);
        let calib = calibration_set(&corpus, self.calib_size, self.calib_seed);
        let (delta, _) = delta_compress(base_params, finetuned, &calib, config);
        self.manager
            .add_variant(name, base, VariantArtifact::Delta(Box::new(delta)))
    }

    /// Registers a full-model-tuned variant compressed with any method-zoo
    /// codec (BitDelta, Delta-CoMe, or the starred pipeline behind the
    /// [`DeltaCodec`] trait). The resulting artifact persists, serves, and
    /// simulates exactly like a [`register_fmt_variant`] delta — only the
    /// packed format (and therefore the swap-in bytes) differs.
    ///
    /// [`register_fmt_variant`]: Self::register_fmt_variant
    // dz-lint: allow(dead-pub, "facade entry for method-zoo codec variants; its unit test registers, serves and persists them")
    pub fn register_fmt_variant_with(
        &mut self,
        name: &str,
        base: BaseId,
        finetuned: &Params,
        codec: &dyn DeltaCodec,
    ) -> Result<VariantId, DzError> {
        let base_params = self.manager.base_params(base).ok_or(DzError::UnknownBase)?;
        if base_params.config != finetuned.config {
            return Err(DzError::ShapeMismatch);
        }
        let corpus = Corpus::new(base_params.config.max_seq);
        let calib = calibration_set(&corpus, self.calib_size, self.calib_seed);
        let (delta, _) = codec.compress(base_params, finetuned, &calib);
        self.manager
            .add_variant(name, base, VariantArtifact::Delta(Box::new(delta)))
    }

    /// Registers a LoRA adapter variant (served via the PEFT path).
    pub fn register_lora(
        &mut self,
        name: &str,
        base: BaseId,
        adapter: LoraAdapter,
    ) -> Result<VariantId, DzError> {
        self.manager
            .add_variant(name, base, VariantArtifact::Lora(Box::new(adapter)))
    }

    /// Registers a RoSA adapter variant (low-rank + sparse, §8). Served via
    /// the PEFT path with its sparse component priced per non-zero.
    pub fn register_rosa(
        &mut self,
        name: &str,
        base: BaseId,
        adapter: RosaAdapter,
    ) -> Result<VariantId, DzError> {
        self.manager
            .add_variant(name, base, VariantArtifact::Rosa(Box::new(adapter)))
    }

    /// Greedy generation for a single variant through the decoupled path.
    pub fn generate(
        &self,
        variant: VariantId,
        prompt: &[usize],
        max_new: usize,
    ) -> Result<Vec<usize>, DzError> {
        let outs = self.generate_batch(&[(variant, prompt.to_vec())], max_new)?;
        Ok(outs.into_iter().next().expect("one request in, one out"))
    }

    /// Batched greedy generation across variants **of the same base**.
    ///
    /// Every request runs through one [`BatchRunner`]: a shared base GEMM
    /// per projection plus each variant's product (Eq. 2). Delta variants
    /// add a product over each packed layer: SBMM for group-quantized
    /// layers, a sign GEMM for BitDelta, the low-rank factors for
    /// Delta-CoMe; LoRA/RoSA variants add SGMV. Deltas and adapters may
    /// share one batch.
    pub fn generate_batch(
        &self,
        requests: &[(VariantId, Vec<usize>)],
        max_new: usize,
    ) -> Result<Vec<Vec<usize>>, DzError> {
        let Some((first, _)) = requests.first() else {
            return Ok(Vec::new());
        };
        let first_info = self
            .manager
            .variant(*first)
            .ok_or(DzError::UnknownVariant)?;
        let mut infos = Vec::with_capacity(requests.len());
        for (vid, _) in requests {
            let info = self.manager.variant(*vid).ok_or(DzError::UnknownVariant)?;
            if info.base != first_info.base {
                return Err(DzError::ShapeMismatch);
            }
            infos.push(info);
        }
        let base = self
            .manager
            .base_params(first_info.base)
            .ok_or(DzError::UnknownBase)?;
        // One runner variant per distinct variant id, in first-use order.
        let mut ids: Vec<VariantId> = Vec::new();
        let mut variants = Vec::new();
        let mut which = Vec::with_capacity(requests.len());
        for ((vid, _), info) in requests.iter().zip(infos) {
            if let Some(vi) = ids.iter().position(|v| v == vid) {
                which.push(vi);
                continue;
            }
            which.push(ids.len());
            ids.push(*vid);
            variants.push(match &info.artifact {
                VariantArtifact::Delta(d) => Variant::delta(d),
                VariantArtifact::Lora(a) => Variant::adapter(AdapterView::from_lora(a)),
                VariantArtifact::Rosa(a) => Variant::adapter(AdapterView::from_rosa(a)),
            });
        }
        let mut batch = BatchRunner::new(base, variants);
        let slots: Vec<usize> = requests
            .iter()
            .zip(which)
            .map(|((_, prompt), vi)| batch.admit(vi, prompt))
            .collect();
        for _ in 0..max_new {
            batch.decode_step();
        }
        Ok(slots
            .into_iter()
            .map(|s| batch.generated(s).to_vec())
            .collect())
    }

    /// Reconstructs the dense fine-tuned parameters of a delta variant
    /// (for accuracy evaluation).
    pub fn reconstruct(&self, variant: VariantId) -> Result<Params, DzError> {
        let info = self
            .manager
            .variant(variant)
            .ok_or(DzError::UnknownVariant)?;
        let base = self
            .manager
            .base_params(info.base)
            .ok_or(DzError::UnknownBase)?;
        match &info.artifact {
            VariantArtifact::Delta(d) => Ok(d.reconstruct(base)),
            VariantArtifact::Lora(a) => Ok(a.merge(base)),
            VariantArtifact::Rosa(a) => Ok(a.merge(base)),
        }
    }

    /// Size accounting of a delta variant.
    pub fn size_report(&self, variant: VariantId) -> Result<SizeReport, DzError> {
        let info = self
            .manager
            .variant(variant)
            .ok_or(DzError::UnknownVariant)?;
        match &info.artifact {
            VariantArtifact::Delta(d) => Ok(d.report),
            VariantArtifact::Lora(_) | VariantArtifact::Rosa(_) => Err(DzError::NotADelta),
        }
    }

    /// Persists a delta variant into the registry as a `.dza` artifact
    /// stamped with its base's lineage hash.
    pub fn persist_variant(
        &self,
        variant: VariantId,
        registry: &Registry,
    ) -> Result<ArtifactId, DzError> {
        self.manager.persist_variant(variant, registry)
    }

    /// Registers a variant decoded from a stored `.dza` artifact after
    /// verifying its lineage against `base`.
    pub fn register_variant_from_artifact(
        &mut self,
        base: BaseId,
        registry: &Registry,
        id: &ArtifactId,
    ) -> Result<VariantId, DzError> {
        self.manager
            .register_variant_from_artifact(base, registry, id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dz_model::lora::LoraConfig;
    use dz_model::tasks::SentimentTask;
    use dz_model::train::{finetune_fmt, pretrain, TrainConfig};
    use dz_model::transformer::test_config;
    use dz_tensor::Rng;

    fn trained() -> (Params, Params) {
        let cfg = test_config();
        let mut rng = Rng::seeded(1);
        let mut base = Params::init(cfg, &mut rng);
        let corpus = Corpus::new(cfg.max_seq);
        pretrain(&mut base, &corpus, TrainConfig::pretrain(40));
        let mut tuned = base.clone();
        finetune_fmt(&mut tuned, &SentimentTask, TrainConfig::finetune(30));
        (base, tuned)
    }

    #[test]
    fn register_and_generate() {
        let (base, tuned) = trained();
        let mut dz = DeltaZip::new();
        let b = dz.register_base("base", base).unwrap();
        let v = dz
            .register_fmt_variant("sent", b, &tuned, DeltaCompressConfig::starred(4))
            .unwrap();
        let out = dz.generate(v, &[1, 20, 21, 2], 3).unwrap();
        assert_eq!(out.len(), 3);
        // Output must match serving the reconstructed dense model.
        let rec = dz.reconstruct(v).unwrap();
        let want = dz_model::eval::greedy_generate(&rec, &[1, 20, 21, 2], 3);
        assert_eq!(out, want);
    }

    #[test]
    fn default_calibrates_like_new() {
        // Default must calibrate like new(): an empty calibration set
        // leaves the OBS solver no Hessian.
        // A plain `fn`, not a closure called twice with a by-value
        // `DeltaZip`: rustc 1.95 miscompiles that shape at opt-level >= 2.
        fn artifact_bytes(mut dz: DeltaZip, base: &Params, tuned: &Params) -> Vec<u8> {
            let b = dz.register_base("base", base.clone()).unwrap();
            let v = dz
                .register_fmt_variant("v", b, tuned, DeltaCompressConfig::starred(4))
                .unwrap();
            match &dz.manager().variant(v).unwrap().artifact {
                VariantArtifact::Delta(d) => d.to_bytes(),
                _ => panic!("an FMT variant is a delta"),
            }
        }
        let (base, tuned) = trained();
        assert_eq!(
            artifact_bytes(DeltaZip::default(), &base, &tuned),
            artifact_bytes(DeltaZip::new(), &base, &tuned)
        );
    }

    #[test]
    fn duplicate_names_rejected() {
        let (base, _) = trained();
        let mut dz = DeltaZip::new();
        dz.register_base("b", base.clone()).unwrap();
        assert_eq!(
            dz.register_base("b", base),
            Err(DzError::DuplicateName("b".into()))
        );
    }

    #[test]
    fn shape_mismatch_rejected() {
        let (base, _) = trained();
        let mut dz = DeltaZip::new();
        let b = dz.register_base("b", base).unwrap();
        let mut other_cfg = test_config();
        other_cfg.d_model = 32;
        other_cfg.n_heads = 4;
        let mut rng = Rng::seeded(9);
        let other = Params::init(other_cfg, &mut rng);
        assert_eq!(
            dz.register_fmt_variant("x", b, &other, DeltaCompressConfig::starred(4)),
            Err(DzError::ShapeMismatch)
        );
    }

    #[test]
    fn lineage_and_reports() {
        let (base, tuned) = trained();
        let mut dz = DeltaZip::new();
        let b = dz.register_base("llama-base", base.clone()).unwrap();
        let v = dz
            .register_fmt_variant("vicuna", b, &tuned, DeltaCompressConfig::starred(2))
            .unwrap();
        let info = dz.manager().variant(v).unwrap();
        assert_eq!(info.base, b);
        let report = dz.size_report(v).unwrap();
        assert!(report.model_ratio() > 1.0);
        // LoRA variants have no delta size report.
        let mut rng = Rng::seeded(3);
        let adapter = LoraAdapter::init(&base, LoraConfig::rank(2), &mut rng);
        let l = dz.register_lora("adapter", b, adapter).unwrap();
        assert_eq!(dz.size_report(l), Err(DzError::NotADelta));
    }

    #[test]
    fn batch_across_variants() {
        let (base, tuned) = trained();
        let mut tuned2 = base.clone();
        finetune_fmt(
            &mut tuned2,
            &dz_model::tasks::NliTask,
            TrainConfig::finetune(30),
        );
        let mut dz = DeltaZip::new();
        let b = dz.register_base("base", base).unwrap();
        let v1 = dz
            .register_fmt_variant("sent", b, &tuned, DeltaCompressConfig::starred(4))
            .unwrap();
        let v2 = dz
            .register_fmt_variant("nli", b, &tuned2, DeltaCompressConfig::starred(4))
            .unwrap();
        let outs = dz
            .generate_batch(
                &[
                    (v1, vec![1, 20, 21, 2]),
                    (v2, vec![1, 25, 2, 30, 4]),
                    (v1, vec![1, 22, 23, 2]),
                ],
                3,
            )
            .unwrap();
        assert_eq!(outs.len(), 3);
        assert!(outs.iter().all(|o| o.len() == 3));
        // Per-variant outputs must match single-variant serving.
        let solo = dz.generate(v2, &[1, 25, 2, 30, 4], 3).unwrap();
        assert_eq!(outs[1], solo);
    }

    #[test]
    fn codec_variants_register_serve_and_persist() {
        let (base, tuned) = trained();
        let mut dz = DeltaZip::new();
        let b = dz.register_base("base", base.clone()).unwrap();
        let v_bit = dz
            .register_fmt_variant_with("bit", b, &tuned, &BitDeltaCodec::per_row())
            .unwrap();
        let v_dc = dz
            .register_fmt_variant_with("dc", b, &tuned, &DeltaComeCodec::low_budget())
            .unwrap();
        // BitDelta packs far tighter than any multi-bit config.
        let bit_report = dz.size_report(v_bit).unwrap();
        assert!(
            bit_report.delta_ratio() >= 8.0,
            "{}",
            bit_report.delta_ratio()
        );
        // Serving a codec variant equals serving its reconstructed model.
        let prompt = [1usize, 20, 21, 2];
        for v in [v_bit, v_dc] {
            let out = dz.generate(v, &prompt, 3).unwrap();
            let rec = dz.reconstruct(v).unwrap();
            assert_eq!(out, dz_model::eval::greedy_generate(&rec, &prompt, 3));
        }
        // The codec id survives the registry round-trip.
        let registry = temp_registry("codec");
        let id = dz.persist_variant(v_bit, &registry).unwrap();
        let mut dz2 = DeltaZip::new();
        let b2 = dz2.register_base("base", base).unwrap();
        let v2 = dz2
            .register_variant_from_artifact(b2, &registry, &id)
            .unwrap();
        let info = dz2.manager().variant(v2).unwrap();
        let VariantArtifact::Delta(d) = &info.artifact else {
            panic!("expected delta artifact");
        };
        assert_eq!(d.codec, CodecId::BitDelta);
        assert_eq!(
            dz2.generate(v2, &prompt, 3).unwrap(),
            dz.generate(v_bit, &prompt, 3).unwrap()
        );
        std::fs::remove_dir_all(registry.root()).ok();
    }

    #[test]
    fn unknown_ids_error() {
        let dz = DeltaZip::new();
        assert_eq!(
            dz.generate(VariantId(99), &[1], 1),
            Err(DzError::UnknownVariant)
        );
    }

    #[test]
    fn rosa_registration_and_reconstruction() {
        let (base, _) = trained();
        let mut dz = DeltaZip::new();
        let b = dz.register_base("base", base.clone()).unwrap();
        let mut rng = Rng::seeded(11);
        let adapter = dz_model::rosa::RosaAdapter::init(
            &base,
            dz_model::rosa::RosaConfig::new(2, 0.01),
            &mut rng,
        );
        let v = dz.register_rosa("rosa-variant", b, adapter).unwrap();
        // Fresh adapter (B = 0, S = 0): reconstruction equals the base.
        let rec = dz.reconstruct(v).unwrap();
        let bts = base.tensors();
        for (a, c) in rec.tensors().into_iter().zip(bts) {
            assert!(a.max_abs_diff(c) < 1e-7);
        }
        // RoSA rides the adapter path: no delta size report, but it IS
        // servable, through SGMV — and matches the merged dense model.
        assert_eq!(dz.size_report(v), Err(DzError::NotADelta));
        let out = dz.generate(v, &[1, 2, 3], 2).unwrap();
        let want = dz_model::eval::greedy_generate(&rec, &[1, 2, 3], 2);
        assert_eq!(out, want);
        let info = dz.manager().variant(v).unwrap();
        assert!(info.artifact.swap_bytes() > 0);
    }

    #[test]
    fn adapter_batch_across_lora_and_rosa() {
        let (base, _) = trained();
        let mut dz = DeltaZip::new();
        let b = dz.register_base("base", base.clone()).unwrap();
        let mut rng = Rng::seeded(12);
        let mut lora = LoraAdapter::init(&base, dz_model::lora::LoraConfig::rank(2), &mut rng);
        dz_model::lora::finetune_lora(
            &base,
            &mut lora,
            &SentimentTask,
            TrainConfig {
                steps: 40,
                batch: 4,
                lr: 1e-2,
                clip: 1.0,
                seed: 13,
            },
        );
        let rosa = dz_model::rosa::RosaAdapter::init(
            &base,
            dz_model::rosa::RosaConfig::new(2, 0.02),
            &mut rng,
        );
        let v_lora = dz.register_lora("lora", b, lora).unwrap();
        let v_rosa = dz.register_rosa("rosa", b, rosa).unwrap();
        let p1 = vec![1usize, 20, 21, 2];
        let p2 = vec![1usize, 25, 2, 30, 4];
        let batch = dz
            .generate_batch(&[(v_lora, p1.clone()), (v_rosa, p2.clone())], 3)
            .unwrap();
        assert_eq!(batch[0], dz.generate(v_lora, &p1, 3).unwrap());
        assert_eq!(batch[1], dz.generate(v_rosa, &p2, 3).unwrap());
        // Adapter outputs equal dense merged-model serving.
        let merged = dz.reconstruct(v_lora).unwrap();
        assert_eq!(batch[0], dz_model::eval::greedy_generate(&merged, &p1, 3));
    }

    fn temp_registry(tag: &str) -> dz_store::Registry {
        let dir =
            std::env::temp_dir().join(format!("deltazip-core-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dz_store::Registry::open(&dir).expect("open registry")
    }

    #[test]
    fn persist_and_reload_variant_through_registry() {
        let (base, tuned) = trained();
        let mut dz = DeltaZip::new();
        let b = dz.register_base("base", base.clone()).unwrap();
        let v = dz
            .register_fmt_variant("sent", b, &tuned, DeltaCompressConfig::starred(4))
            .unwrap();
        let registry = temp_registry("roundtrip");
        let id = dz.persist_variant(v, &registry).unwrap();
        assert!(registry.contains(&id));
        registry.verify(&id).expect("artifact integrity");
        assert_eq!(registry.resolve("sent").unwrap(), id);

        // A fresh system with the same base loads the variant from disk and
        // serves identically.
        let mut dz2 = DeltaZip::new();
        let b2 = dz2.register_base("base", base).unwrap();
        let v2 = dz2
            .register_variant_from_artifact(b2, &registry, &id)
            .unwrap();
        assert_eq!(dz2.manager().variant(v2).unwrap().name, "sent");
        let prompt = [1usize, 20, 21, 2];
        assert_eq!(
            dz2.generate(v2, &prompt, 3).unwrap(),
            dz.generate(v, &prompt, 3).unwrap()
        );
        // Duplicate name on reload is still rejected.
        assert_eq!(
            dz2.register_variant_from_artifact(b2, &registry, &id),
            Err(DzError::DuplicateName("sent".into()))
        );
        std::fs::remove_dir_all(registry.root()).ok();
    }

    #[test]
    fn lineage_mismatch_is_rejected_on_reload() {
        let (base, tuned) = trained();
        let mut dz = DeltaZip::new();
        let b = dz.register_base("base", base).unwrap();
        let v = dz
            .register_fmt_variant("sent", b, &tuned, DeltaCompressConfig::starred(4))
            .unwrap();
        let registry = temp_registry("lineage");
        let id = dz.persist_variant(v, &registry).unwrap();

        // A system whose base has different weights must refuse the delta.
        let mut rng = Rng::seeded(77);
        let other = Params::init(test_config(), &mut rng);
        let mut dz2 = DeltaZip::new();
        let b2 = dz2.register_base("other-base", other).unwrap();
        match dz2.register_variant_from_artifact(b2, &registry, &id) {
            Err(DzError::Storage(msg)) => assert!(msg.contains("lineage"), "{msg}"),
            other => panic!("expected lineage error, got {other:?}"),
        }
        std::fs::remove_dir_all(registry.root()).ok();
    }

    #[test]
    fn misshaped_artifact_under_right_base_hash_is_rejected() {
        let base = Params::init(test_config(), &mut Rng::seeded(1));
        let mut wide_cfg = test_config();
        wide_cfg.d_model = 24;
        let mut rng = Rng::seeded(2);
        let wide = Params::init(wide_cfg, &mut rng);
        let mut wide_tuned = wide.clone();
        wide_tuned.for_each_mut(|_, m| m.map_assign(|v| v + 0.01));
        let calib = calibration_set(&Corpus::new(wide_cfg.max_seq), 4, 3);
        let (wide_delta, _) =
            delta_compress(&wide, &wide_tuned, &calib, DeltaCompressConfig::starred(4));
        // Layers of the right shape, one `rest` tensor of the wrong shape.
        let mut tuned = base.clone();
        tuned.for_each_mut(|_, m| m.map_assign(|v| v + 0.01));
        let (mut bad_rest, _) =
            delta_compress(&base, &tuned, &calib, DeltaCompressConfig::starred(4));
        bad_rest
            .rest
            .insert("lnf_g".into(), dz_tensor::Matrix::zeros(1, 24));

        let registry = temp_registry("misshaped");
        let base_hash = params_hash(&base);
        let mut dz = DeltaZip::new();
        let b = dz.register_base("base", base).unwrap();
        for (name, delta) in [("wide", &wide_delta), ("bad-rest", &bad_rest)] {
            let id = registry.publish_delta(name, base_hash, delta).unwrap();
            assert_eq!(
                dz.register_variant_from_artifact(b, &registry, &id),
                Err(DzError::ShapeMismatch),
                "{name}"
            );
        }
        assert_eq!(dz.manager().n_variants(), 0);
        std::fs::remove_dir_all(registry.root()).ok();
    }

    #[test]
    fn adapters_cannot_be_persisted_as_deltas() {
        let (base, _) = trained();
        let mut dz = DeltaZip::new();
        let b = dz.register_base("base", base.clone()).unwrap();
        let mut rng = Rng::seeded(21);
        let adapter = LoraAdapter::init(&base, LoraConfig::rank(2), &mut rng);
        let l = dz.register_lora("adapter", b, adapter).unwrap();
        let registry = temp_registry("adapter");
        assert_eq!(dz.persist_variant(l, &registry), Err(DzError::NotADelta));
        std::fs::remove_dir_all(registry.root()).ok();
    }

    #[test]
    fn mixed_delta_adapter_batch_matches_each_request_alone() {
        let (base, tuned) = trained();
        let mut dz = DeltaZip::new();
        let b = dz.register_base("base", base.clone()).unwrap();
        let v_delta = dz
            .register_fmt_variant("delta", b, &tuned, DeltaCompressConfig::starred(4))
            .unwrap();
        let mut rng = Rng::seeded(14);
        let mut adapter = LoraAdapter::init(&base, dz_model::lora::LoraConfig::rank(2), &mut rng);
        for p in &mut adapter.pairs {
            p.b = dz_tensor::Matrix::randn(p.b.rows(), p.b.cols(), 0.05, &mut rng);
        }
        let v_lora = dz.register_lora("adapter", b, adapter).unwrap();
        let requests = [
            (v_delta, vec![1, 2]),
            (v_lora, vec![3, 1, 4]),
            (v_delta, vec![5]),
            (v_lora, vec![2, 7]),
        ];
        let mixed = dz.generate_batch(&requests, 6).unwrap();
        for ((vid, prompt), got) in requests.iter().zip(&mixed) {
            assert_eq!(got, &dz.generate(*vid, prompt, 6).unwrap());
        }
    }
}
