//! The Model Manager: bases, variants, adapters, lineage, metadata, and
//! persistence of delta variants through the content-addressed registry.

use crate::DzError;
use dz_compress::pipeline::CompressedDelta;
use dz_model::lora::LoraAdapter;
use dz_model::rosa::RosaAdapter;
use dz_model::transformer::Params;
use dz_store::{ArtifactId, Digest, Registry, Sha256};

/// Handle to a registered base model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BaseId(pub usize);

/// Handle to a registered variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VariantId(pub usize);

/// What a variant physically is in the zoo.
pub enum VariantArtifact {
    /// A ΔCompressed full-model-tuning delta.
    Delta(Box<CompressedDelta>),
    /// A LoRA adapter.
    Lora(Box<LoraAdapter>),
    /// A RoSA adapter (low-rank + sparse, §8's PEFT extension).
    Rosa(Box<RosaAdapter>),
}

impl VariantArtifact {
    /// Bytes the artifact occupies when swapped (packed linears + FP16 rest
    /// for deltas; FP16 pairs for adapters; pairs plus coordinate-format
    /// non-zeros for RoSA).
    pub fn swap_bytes(&self) -> usize {
        match self {
            VariantArtifact::Delta(d) => {
                d.report.compressed_linear_bytes + d.report.uncompressed_rest_bytes
            }
            VariantArtifact::Lora(a) => a.fp16_bytes(),
            VariantArtifact::Rosa(a) => a.serving_bytes(),
        }
    }
}

/// Metadata of one registered variant.
pub struct VariantInfo {
    /// Registered name (unique across the zoo).
    pub name: String,
    /// Lineage: the base the variant derives from.
    pub base: BaseId,
    /// The stored artifact.
    pub artifact: VariantArtifact,
}

/// Content hash of a base model's parameters: every tensor's name, shape,
/// and little-endian FP32 data, in the model's canonical tensor order.
/// This is the lineage stamp recorded in `.dza` manifests.
pub fn params_hash(params: &Params) -> Digest {
    let mut h = Sha256::new();
    params.for_each(|name, m| {
        h.update(&(name.len() as u64).to_le_bytes());
        h.update(name.as_bytes());
        h.update(&(m.rows() as u64).to_le_bytes());
        h.update(&(m.cols() as u64).to_le_bytes());
        for &v in m.data() {
            h.update(&v.to_le_bytes());
        }
    });
    h.finalize()
}

/// Whether `delta` fits `base`: every base linear layer has a delta layer
/// of the same `(d_in, d_out)`, and every `rest` tensor has the shape of the
/// base tensor of the same name.
fn delta_fits(base: &Params, delta: &CompressedDelta) -> bool {
    let layers_fit = base.linear_layer_names().iter().all(|name| {
        delta.layers.get(name).map(|l| (l.d_in(), l.d_out())) == base.get(name).map(|w| w.shape())
    });
    layers_fit
        && delta
            .rest
            .iter()
            .all(|(name, m)| base.get(name).map(|b| b.shape()) == Some(m.shape()))
}

struct BaseEntry {
    name: String,
    params: Params,
    content_hash: Digest,
}

/// Registry of bases and variants.
#[derive(Default)]
pub struct ModelManager {
    bases: Vec<BaseEntry>,
    variants: Vec<VariantInfo>,
}

impl ModelManager {
    /// Registers a base model under a unique name.
    pub fn add_base(&mut self, name: &str, params: Params) -> Result<BaseId, DzError> {
        if self.bases.iter().any(|b| b.name == name) {
            return Err(DzError::DuplicateName(name.to_string()));
        }
        let content_hash = params_hash(&params);
        self.bases.push(BaseEntry {
            name: name.to_string(),
            params,
            content_hash,
        });
        Ok(BaseId(self.bases.len() - 1))
    }

    /// Registers a variant artifact under a unique name.
    pub fn add_variant(
        &mut self,
        name: &str,
        base: BaseId,
        artifact: VariantArtifact,
    ) -> Result<VariantId, DzError> {
        if base.0 >= self.bases.len() {
            return Err(DzError::UnknownBase);
        }
        if self.variants.iter().any(|v| v.name == name) {
            return Err(DzError::DuplicateName(name.to_string()));
        }
        self.variants.push(VariantInfo {
            name: name.to_string(),
            base,
            artifact,
        });
        Ok(VariantId(self.variants.len() - 1))
    }

    /// Base parameters, if the id is valid.
    pub fn base_params(&self, id: BaseId) -> Option<&Params> {
        self.bases.get(id.0).map(|b| &b.params)
    }

    /// Variant info, if valid.
    pub fn variant(&self, id: VariantId) -> Option<&VariantInfo> {
        self.variants.get(id.0)
    }

    /// Content hash of a base's parameters (its lineage identity).
    pub fn base_hash(&self, id: BaseId) -> Option<Digest> {
        self.bases.get(id.0).map(|b| b.content_hash)
    }

    /// Persists a delta variant into the registry as a `.dza` artifact
    /// stamped with its base's content hash; returns the artifact id.
    ///
    /// Adapter variants have no delta artifact and return
    /// [`DzError::NotADelta`].
    pub fn persist_variant(
        &self,
        id: VariantId,
        registry: &Registry,
    ) -> Result<ArtifactId, DzError> {
        let info = self.variant(id).ok_or(DzError::UnknownVariant)?;
        let VariantArtifact::Delta(delta) = &info.artifact else {
            return Err(DzError::NotADelta);
        };
        let base_hash = self.base_hash(info.base).ok_or(DzError::UnknownBase)?;
        registry
            .publish_delta(&info.name, base_hash, delta)
            .map_err(|e| DzError::Storage(e.to_string()))
    }

    /// Registers a variant from a stored `.dza` artifact, decoding the
    /// delta and verifying its recorded lineage against `base`'s content
    /// hash. The variant takes the name recorded in the manifest.
    ///
    /// A delta whose layers or `rest` tensors are shaped for another model
    /// returns [`DzError::ShapeMismatch`], even under the right base hash.
    pub fn register_variant_from_artifact(
        &mut self,
        base: BaseId,
        registry: &Registry,
        id: &ArtifactId,
    ) -> Result<VariantId, DzError> {
        let expected = self.base_hash(base).ok_or(DzError::UnknownBase)?;
        let mut reader = registry
            .open_artifact(id)
            .map_err(|e| DzError::Storage(e.to_string()))?;
        let manifest = reader.manifest();
        manifest
            .verify_base(&expected)
            .map_err(|e| DzError::Storage(e.to_string()))?;
        let name = manifest.name.clone();
        let delta = reader
            .read_delta()
            .map_err(|e| DzError::Storage(e.to_string()))?;
        let params = self.base_params(base).ok_or(DzError::UnknownBase)?;
        if !delta_fits(params, &delta) {
            return Err(DzError::ShapeMismatch);
        }
        self.add_variant(&name, base, VariantArtifact::Delta(Box::new(delta)))
    }

    /// Number of registered variants.
    pub fn n_variants(&self) -> usize {
        self.variants.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dz_model::transformer::test_config;
    use dz_tensor::Rng;

    fn params() -> Params {
        Params::init(test_config(), &mut Rng::seeded(1))
    }

    #[test]
    fn base_registration_and_lookup() {
        let mut m = ModelManager::default();
        let b = m.add_base("llama", params()).unwrap();
        assert!(m.base_params(b).is_some());
        assert!(m.base_params(BaseId(5)).is_none());
    }

    #[test]
    fn variant_lineage() {
        let mut m = ModelManager::default();
        let b1 = m.add_base("llama", params()).unwrap();
        let b2 = m.add_base("gemma", params()).unwrap();
        let mut rng = Rng::seeded(2);
        let adapter = dz_model::lora::LoraAdapter::init(
            m.base_params(b1).unwrap(),
            dz_model::lora::LoraConfig::rank(2),
            &mut rng,
        );
        let v = m
            .add_variant("vicuna-lora", b1, VariantArtifact::Lora(Box::new(adapter)))
            .unwrap();
        assert_eq!(m.variant(v).unwrap().base, b1);
        assert_ne!(m.variant(v).unwrap().base, b2);
    }

    #[test]
    fn unknown_base_rejected() {
        let mut m = ModelManager::default();
        let mut rng = Rng::seeded(3);
        let p = params();
        let adapter =
            dz_model::lora::LoraAdapter::init(&p, dz_model::lora::LoraConfig::rank(2), &mut rng);
        assert_eq!(
            m.add_variant("x", BaseId(0), VariantArtifact::Lora(Box::new(adapter)))
                .err(),
            Some(DzError::UnknownBase)
        );
    }

    #[test]
    fn swap_bytes_reflect_artifact_kind() {
        let p = params();
        let mut rng = Rng::seeded(4);
        let adapter =
            dz_model::lora::LoraAdapter::init(&p, dz_model::lora::LoraConfig::rank(2), &mut rng);
        let lora_bytes = VariantArtifact::Lora(Box::new(adapter)).swap_bytes();
        assert!(lora_bytes > 0);
        assert!(lora_bytes < p.fp16_bytes());
    }
}
