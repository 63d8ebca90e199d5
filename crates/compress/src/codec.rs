//! The delta-compression **method zoo**: a [`DeltaCodec`] trait unifying
//! the SparseGPT-starred ΔCompress pipeline with alternative delta codecs
//! from the literature, all producing the same [`CompressedDelta`] artifact
//! so ratio, quality, and serving cost sweep through one path.
//!
//! Implemented codecs:
//!
//! * [`SparseGptCodec`] — the paper's pipeline (OBS solver, group
//!   quantization, optional 2:4 sparsity) behind the trait,
//! * [`BitDeltaCodec`] — BitDelta-style 1-bit compression: the delta of a
//!   fine-tune survives `sign(Δ)` plus a single L2-optimal scale per
//!   matrix (or per output row), ~16x smaller than FP16 before the
//!   lossless stage,
//! * [`DeltaComeCodec`] — Delta-CoMe-style mixed-precision low-rank
//!   compression: the delta's singular spectrum is split into bands, the
//!   top singular directions quantized at high precision and the tail at
//!   2-3 bits, with error feedback between bands (each band fits the
//!   residual left by the previous ones).
//!
//! Every codec's output rides the existing wire/`.dza` path, so its packed
//! byte size flows into `serve::cost` load charges and the cluster
//! simulator automatically — smaller deltas mean measurably faster
//! swap-ins.

use crate::pack::CompressedMatrix;
use crate::pipeline::{delta_compress, CompressedDelta, DeltaCompressConfig};
use crate::quant::{quantize_slice, QuantSpec};
use dz_model::transformer::Params;
use dz_tensor::linalg::{svd_leading, Svd};
use dz_tensor::Matrix;
use std::collections::BTreeMap;

/// Stable identifier of the codec that produced a delta. The `u8` values
/// are frozen: they appear in wire records and `.dza` tensor headers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CodecId {
    /// SparseGPT-starred ΔCompress (OBS + group quant + optional 2:4).
    SparseGptStar,
    /// BitDelta-style 1-bit sign/scale.
    BitDelta,
    /// Delta-CoMe-style mixed-precision low-rank.
    DeltaCome,
}

impl CodecId {
    /// Frozen wire value.
    pub fn as_u8(self) -> u8 {
        match self {
            CodecId::SparseGptStar => 0,
            CodecId::BitDelta => 1,
            CodecId::DeltaCome => 2,
        }
    }

    /// Parses a wire value.
    pub fn from_u8(v: u8) -> Option<CodecId> {
        match v {
            0 => Some(CodecId::SparseGptStar),
            1 => Some(CodecId::BitDelta),
            2 => Some(CodecId::DeltaCome),
            _ => None,
        }
    }

    /// Human-readable name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            CodecId::SparseGptStar => "sparsegpt-star",
            CodecId::BitDelta => "bitdelta",
            CodecId::DeltaCome => "delta-come",
        }
    }
}

/// Scale granularity of a [`SignMatrix`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SignScope {
    /// One scale for the whole matrix (BitDelta's original form).
    PerMatrix,
    /// One scale per output row (slightly larger, slightly tighter fit).
    PerRow,
}

/// A BitDelta-packed matrix: 1 sign bit per weight plus FP16-counted
/// scales, stored output-major like [`CompressedMatrix`].
///
/// The scale is the L2-optimal coefficient for fixed signs:
/// `argmin_a Σ (w_i - a·sign(w_i))² = mean |w_i|` over its scope.
#[derive(Debug, Clone, PartialEq)]
pub struct SignMatrix {
    /// Input dimension (columns of each stored row).
    pub d_in: usize,
    /// Output dimension (number of stored rows).
    pub d_out: usize,
    /// Scale granularity.
    pub scope: SignScope,
    /// Scales: 1 entry ([`SignScope::PerMatrix`]) or `d_out` entries.
    pub scales: Vec<f32>,
    /// Sign bits (1 = positive), output-major, LSB-first in each word.
    pub signs: Vec<u32>,
}

impl SignMatrix {
    /// Packs a delta given in the model's `(d_in, d_out)` weight
    /// orientation.
    pub fn from_delta(delta: &Matrix, scope: SignScope) -> Self {
        let (d_in, d_out) = delta.shape();
        let total = d_in * d_out;
        let mut signs = vec![0u32; total.div_ceil(32)];
        let mut row_abs_sum = vec![0.0f64; d_out];
        for (r, abs_sum) in row_abs_sum.iter_mut().enumerate() {
            for c in 0..d_in {
                let v = delta.get(c, r);
                *abs_sum += v.abs() as f64;
                if v > 0.0 {
                    let i = r * d_in + c;
                    signs[i / 32] |= 1 << (i % 32);
                }
            }
        }
        let scales = match scope {
            SignScope::PerMatrix => {
                vec![(row_abs_sum.iter().sum::<f64>() / total.max(1) as f64) as f32]
            }
            SignScope::PerRow => row_abs_sum
                .iter()
                .map(|s| (*s / d_in.max(1) as f64) as f32)
                .collect(),
        };
        SignMatrix {
            d_in,
            d_out,
            scope,
            scales,
            signs,
        }
    }

    /// Scale of output row `r`.
    #[inline]
    pub fn scale_of_row(&self, r: usize) -> f32 {
        match self.scope {
            SignScope::PerMatrix => self.scales[0],
            SignScope::PerRow => self.scales[r],
        }
    }

    /// Sign (`±1.0`) of `(row r, input c)`.
    #[inline]
    // dz-lint: allow(dead-pub, "reference sign lookup the dequantize proptest checks bit-for-bit against")
    pub fn sign_at(&self, r: usize, c: usize) -> f32 {
        let i = r * self.d_in + c;
        if (self.signs[i / 32] >> (i % 32)) & 1 == 1 {
            1.0
        } else {
            -1.0
        }
    }

    /// Dequantizes into the model's `(d_in, d_out)` weight orientation:
    /// `scale_of_row(r) * sign_at(r, c)` per element.
    pub fn dequantize(&self) -> Matrix {
        let (d_in, d_out) = (self.d_in, self.d_out);
        let mut w = Matrix::zeros(d_in, d_out);
        // The two products `a * sign_at(r, c)` can take, per stored row.
        let products: Vec<[f32; 2]> = (0..d_out)
            .map(|r| [-1.0f32, 1.0].map(|s| self.scale_of_row(r) * s))
            .collect();
        // Fill the output one contiguous row (input c) at a time; the
        // strided sign-bit reads stay within a small packed array.
        for (c, out) in w.data_mut().chunks_mut(d_out.max(1)).enumerate() {
            for (r, (o, pm)) in out.iter_mut().zip(&products).enumerate() {
                let i = r * d_in + c;
                *o = pm[((self.signs[i / 32] >> (i % 32)) & 1) as usize];
            }
        }
        w
    }

    /// Exact storage footprint in bytes (scales counted as FP16).
    pub fn packed_bytes(&self) -> usize {
        (self.d_in * self.d_out).div_ceil(8) + self.scales.len() * 2
    }

    /// FP16 bytes of the uncompressed equivalent.
    pub fn fp16_bytes(&self) -> usize {
        self.d_in * self.d_out * 2
    }

    /// Serializes the packed payload (for the lossless stage).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.packed_bytes() + 8);
        for w in &self.signs {
            out.extend_from_slice(&w.to_le_bytes());
        }
        for s in &self.scales {
            // bf16-style truncation, matching CompressedMatrix::to_bytes.
            out.extend_from_slice(&((s.to_bits() >> 16) as u16).to_le_bytes());
        }
        out
    }
}

/// One precision band of a [`LowRankMatrix`]: `rank` singular directions
/// of the (residual) delta, both factors group-quantized at `bits`.
///
/// `p` stores `Uᵣ·diag(Sᵣ)` transposed — one stored row per singular
/// direction of length `d_in` — and `q` stores `Vᵣᵀ` the same way with
/// rows of length `d_out`, so every stored row has uniform magnitude (one
/// singular vector scaled by one σ) and group quantization fits it well.
#[derive(Debug, Clone, PartialEq)]
pub struct LowRankBand {
    /// Quantized left factor (stored rows = rank, columns = `d_in`).
    pub p: CompressedMatrix,
    /// Quantized right factor (stored rows = rank, columns = `d_out`).
    pub q: CompressedMatrix,
}

impl LowRankBand {
    /// Bits per value of the band's factors.
    pub fn bits(&self) -> u32 {
        self.p.spec.bits
    }

    /// Number of singular directions the band carries.
    pub fn rank(&self) -> usize {
        self.p.d_out
    }

    /// The band's contribution in `(d_in, d_out)` weight orientation.
    pub fn dequantize(&self) -> Matrix {
        // p.dequantize() -> (d_in, rank) = P; q.dequantize() -> (d_out, rank)
        // = Q; the band is P·Qᵀ, each element summed over the rank in order.
        self.p.dequantize().matmul(&self.q.dequantize().transpose())
    }
}

/// A Delta-CoMe-packed matrix: mixed-precision quantized low-rank bands,
/// fitted with error feedback (band `k+1` approximates the residual left
/// by bands `1..=k`, including their quantization error).
#[derive(Debug, Clone, PartialEq)]
pub struct LowRankMatrix {
    /// Input dimension.
    pub d_in: usize,
    /// Output dimension.
    pub d_out: usize,
    /// Bands in fitting order (highest-precision first by convention).
    pub bands: Vec<LowRankBand>,
}

/// Group size used when quantizing low-rank factors.
const BAND_GROUP: usize = 16;

/// Upper bound on low-rank bands per layer. Enforced symmetrically at
/// construction ([`LowRankMatrix::from_delta`]) and decode, so a value
/// that encodes always decodes.
pub const MAX_BANDS: usize = 64;

impl LowRankMatrix {
    /// Packs a delta given in `(d_in, d_out)` weight orientation.
    ///
    /// `bands` lists `(bits, rank)` pairs, e.g. `[(8, 2), (3, 4), (2, 8)]`.
    /// Each band quantizes the `rank` leading singular directions of the
    /// residual, as [`svd_leading`] finds them (exactly on matrices too
    /// small for its subspace iteration). Ranks are clamped to the
    /// delta's spectrum; a band whose quantized fit would *increase* the
    /// residual Frobenius norm is dropped, which makes reconstruction
    /// error monotone non-increasing in the band budget by construction.
    ///
    /// # Panics
    ///
    /// Panics if any band's bits are outside `2..=8` or more than
    /// [`MAX_BANDS`] bands are requested.
    pub fn from_delta(delta: &Matrix, bands: &[(u32, usize)]) -> Self {
        Self::fit_bands(delta, bands, svd_leading)
    }

    /// The band fit behind [`from_delta`](Self::from_delta), taking each
    /// band's decomposition of the residual from `svd(residual, rank)`.
    fn fit_bands(
        delta: &Matrix,
        bands: &[(u32, usize)],
        svd: impl Fn(&Matrix, usize) -> Svd,
    ) -> Self {
        assert!(
            bands.len() <= MAX_BANDS,
            "at most {MAX_BANDS} low-rank bands per layer"
        );
        let (d_in, d_out) = delta.shape();
        let mut residual = delta.clone();
        let mut fitted = Vec::new();
        for &(bits, rank) in bands {
            let spec = QuantSpec::new(bits, BAND_GROUP);
            let svd = svd(&residual, rank);
            let r = rank.min(svd.rank());
            if r == 0 {
                continue;
            }
            // Pᵀ rows: u_j * σ_j over the input dimension.
            let mut pt = Matrix::zeros(r, d_in);
            for j in 0..r {
                let sj = svd.s[j];
                for i in 0..d_in {
                    pt.set(j, i, svd.u.get(i, j) * sj);
                }
            }
            // Vᵀ rows over the output dimension.
            let mut qt = Matrix::zeros(r, d_out);
            for j in 0..r {
                for i in 0..d_out {
                    qt.set(j, i, svd.vt.get(j, i));
                }
            }
            let band = LowRankBand {
                p: quantize_rows(&pt, spec),
                q: quantize_rows(&qt, spec),
            };
            let next = residual.sub(&band.dequantize());
            // Rate-distortion guard: only spend bytes on bands that
            // strictly reduce the residual (a zero residual stores
            // nothing, and a band that makes things worse is dropped).
            if next.frob_norm() < residual.frob_norm() {
                residual = next;
                fitted.push(band);
            }
        }
        LowRankMatrix {
            d_in,
            d_out,
            bands: fitted,
        }
    }

    /// Dequantizes into the model's `(d_in, d_out)` weight orientation.
    pub fn dequantize(&self) -> Matrix {
        let mut w = Matrix::zeros(self.d_in, self.d_out);
        for band in &self.bands {
            w.add_assign(&band.dequantize());
        }
        w
    }

    /// Exact storage footprint in bytes (factor scales counted as FP16).
    pub fn packed_bytes(&self) -> usize {
        self.bands
            .iter()
            .map(|b| b.p.packed_bytes() + b.q.packed_bytes())
            .sum()
    }

    /// FP16 bytes of the uncompressed equivalent.
    pub fn fp16_bytes(&self) -> usize {
        self.d_in * self.d_out * 2
    }

    /// Serializes the packed payload (for the lossless stage).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for band in &self.bands {
            out.extend(band.p.to_bytes());
            out.extend(band.q.to_bytes());
        }
        out
    }
}

/// Round-to-nearest group quantization of a dense matrix, stored row-major
/// (stored rows = `m.rows()`).
pub(crate) fn quantize_rows(m: &Matrix, spec: QuantSpec) -> CompressedMatrix {
    let mut levels = Vec::with_capacity(m.len());
    let mut scales = Vec::new();
    for r in 0..m.rows() {
        let (l, s) = quantize_slice(m.row(r), spec);
        levels.extend(l);
        scales.extend(s);
    }
    CompressedMatrix::from_dense(m.rows(), m.cols(), &levels, scales, spec)
}

/// One packed linear-layer delta, in whichever format its codec emits.
///
/// This is the layer-level currency of the method zoo: [`CompressedDelta`]
/// maps layer names to `PackedLayer`s, the wire/`.dza` formats tag each
/// record with its variant, and byte accounting (what the serving cost
/// model charges for swap-ins) is uniform across formats.
#[derive(Debug, Clone, PartialEq)]
pub enum PackedLayer {
    /// Group-quantized (optionally 2:4-sparse) levels — the starred
    /// pipeline and the AWQ/SparseGPT baselines.
    Quant(CompressedMatrix),
    /// BitDelta-style 1-bit sign/scale.
    Sign(SignMatrix),
    /// Delta-CoMe-style mixed-precision low-rank bands.
    LowRank(LowRankMatrix),
}

impl PackedLayer {
    /// Input dimension.
    pub fn d_in(&self) -> usize {
        match self {
            PackedLayer::Quant(m) => m.d_in,
            PackedLayer::Sign(m) => m.d_in,
            PackedLayer::LowRank(m) => m.d_in,
        }
    }

    /// Output dimension.
    pub fn d_out(&self) -> usize {
        match self {
            PackedLayer::Quant(m) => m.d_out,
            PackedLayer::Sign(m) => m.d_out,
            PackedLayer::LowRank(m) => m.d_out,
        }
    }

    /// Dequantizes into the model's `(d_in, d_out)` weight orientation.
    pub fn dequantize(&self) -> Matrix {
        match self {
            PackedLayer::Quant(m) => m.dequantize(),
            PackedLayer::Sign(m) => m.dequantize(),
            PackedLayer::LowRank(m) => m.dequantize(),
        }
    }

    /// Exact storage footprint in bytes.
    pub fn packed_bytes(&self) -> usize {
        match self {
            PackedLayer::Quant(m) => m.packed_bytes(),
            PackedLayer::Sign(m) => m.packed_bytes(),
            PackedLayer::LowRank(m) => m.packed_bytes(),
        }
    }

    /// FP16 bytes of the uncompressed equivalent.
    pub fn fp16_bytes(&self) -> usize {
        match self {
            PackedLayer::Quant(m) => m.fp16_bytes(),
            PackedLayer::Sign(m) => m.fp16_bytes(),
            PackedLayer::LowRank(m) => m.fp16_bytes(),
        }
    }

    /// Serializes the packed payload (for the lossless stage).
    pub fn to_bytes(&self) -> Vec<u8> {
        match self {
            PackedLayer::Quant(m) => m.to_bytes(),
            PackedLayer::Sign(m) => m.to_bytes(),
            PackedLayer::LowRank(m) => m.to_bytes(),
        }
    }

    /// The quantized form, if this layer uses it (the SBMM serving
    /// kernels consume this representation directly).
    pub fn as_quant(&self) -> Option<&CompressedMatrix> {
        match self {
            PackedLayer::Quant(m) => Some(m),
            _ => None,
        }
    }

    /// The codec family this layer's format belongs to — what `.dza`
    /// tensor headers record, so a tensor's record format is inspectable
    /// without decoding its page (independently of the artifact-level
    /// codec, which may differ in mixed-format artifacts).
    pub fn codec_id(&self) -> CodecId {
        match self {
            PackedLayer::Quant(_) => CodecId::SparseGptStar,
            PackedLayer::Sign(_) => CodecId::BitDelta,
            PackedLayer::LowRank(_) => CodecId::DeltaCome,
        }
    }
}

/// A delta-compression method: turns a `(base, finetuned)` pair into a
/// [`CompressedDelta`] artifact plus the reconstructed servable
/// parameters.
///
/// Codecs that need no activation calibration ignore `calib`.
pub trait DeltaCodec {
    /// Stable codec identifier (recorded in wire records and `.dza`
    /// tensor headers).
    fn id(&self) -> CodecId;

    /// Configuration-bearing label for reports, e.g. `"bitdelta-1bit/row"`.
    fn label(&self) -> String;

    /// Compresses the delta of `finetuned` against `base`.
    fn compress(
        &self,
        base: &Params,
        finetuned: &Params,
        calib: &[Vec<usize>],
    ) -> (CompressedDelta, Params);
}

/// The paper's SparseGPT-starred ΔCompress pipeline behind the trait.
#[derive(Debug, Clone, Copy)]
pub struct SparseGptCodec {
    /// Full pipeline configuration.
    pub config: DeltaCompressConfig,
}

impl SparseGptCodec {
    /// The `Nbit★` configuration.
    pub fn starred(bits: u32) -> Self {
        SparseGptCodec {
            config: DeltaCompressConfig::starred(bits),
        }
    }
}

impl DeltaCodec for SparseGptCodec {
    fn id(&self) -> CodecId {
        CodecId::SparseGptStar
    }

    fn label(&self) -> String {
        format!(
            "sparsegpt-{}bit{}",
            self.config.bits,
            if self.config.sparse24 { "*" } else { "" }
        )
    }

    fn compress(
        &self,
        base: &Params,
        finetuned: &Params,
        calib: &[Vec<usize>],
    ) -> (CompressedDelta, Params) {
        delta_compress(base, finetuned, calib, self.config)
    }
}

/// Shared driver for calibration-free codecs: packs each linear layer's
/// delta with `pack`, reconstructs `base + dequantize(packed)`, and
/// carries the FP16 rest.
fn compress_direct(
    base: &Params,
    finetuned: &Params,
    codec: CodecId,
    config: DeltaCompressConfig,
    pack: impl Fn(&Matrix) -> PackedLayer,
) -> (CompressedDelta, Params) {
    assert_eq!(base.config, finetuned.config, "model config mismatch");
    let mut layers = BTreeMap::new();
    let mut reconstructed = finetuned.clone();
    for name in base.linear_layer_names() {
        let w_b = base.get(&name).expect("linear exists");
        let w_f = finetuned.get(&name).expect("linear exists");
        let packed = pack(&w_f.sub(w_b));
        reconstructed.set(&name, w_b.add(&packed.dequantize()));
        layers.insert(name, packed);
    }
    let cd = CompressedDelta::new(base, finetuned, layers, codec, config);
    (cd, reconstructed)
}

/// BitDelta-style codec: 1-bit signs plus L2-optimal scales.
#[derive(Debug, Clone, Copy)]
pub struct BitDeltaCodec {
    /// Scale granularity (the codec's only "bit budget" knob).
    pub scope: SignScope,
    /// Run the optional lossless stage when reporting sizes.
    pub lossless: bool,
}

impl BitDeltaCodec {
    /// BitDelta with one scale per matrix (the original formulation).
    pub fn per_matrix() -> Self {
        BitDeltaCodec {
            scope: SignScope::PerMatrix,
            lossless: false,
        }
    }

    /// BitDelta with one scale per output row.
    pub fn per_row() -> Self {
        BitDeltaCodec {
            scope: SignScope::PerRow,
            lossless: false,
        }
    }

    fn placeholder_config(&self) -> DeltaCompressConfig {
        DeltaCompressConfig {
            bits: 1,
            group_size: 1,
            sparse24: false,
            damp: 0.0,
            lossless: self.lossless,
        }
    }
}

impl DeltaCodec for BitDeltaCodec {
    fn id(&self) -> CodecId {
        CodecId::BitDelta
    }

    fn label(&self) -> String {
        match self.scope {
            SignScope::PerMatrix => "bitdelta-1bit/matrix".into(),
            SignScope::PerRow => "bitdelta-1bit/row".into(),
        }
    }

    fn compress(
        &self,
        base: &Params,
        finetuned: &Params,
        _calib: &[Vec<usize>],
    ) -> (CompressedDelta, Params) {
        let scope = self.scope;
        compress_direct(
            base,
            finetuned,
            CodecId::BitDelta,
            self.placeholder_config(),
            |delta| PackedLayer::Sign(SignMatrix::from_delta(delta, scope)),
        )
    }
}

/// Delta-CoMe-style codec: mixed-precision low-rank bands per layer.
#[derive(Debug, Clone)]
pub struct DeltaComeCodec {
    /// `(bits, rank)` per band, highest precision first.
    pub bands: Vec<(u32, usize)>,
    /// Run the optional lossless stage when reporting sizes.
    pub lossless: bool,
}

impl DeltaComeCodec {
    /// A custom band allocation.
    pub fn with_bands(bands: Vec<(u32, usize)>) -> Self {
        DeltaComeCodec {
            bands,
            lossless: false,
        }
    }

    /// The low bit budget: 8/3/2-bit bands over ranks 2/4/8.
    pub fn low_budget() -> Self {
        Self::with_bands(vec![(8, 2), (3, 4), (2, 8)])
    }

    /// The high bit budget: 8/3/2-bit bands over ranks 4/8/16.
    pub fn high_budget() -> Self {
        Self::with_bands(vec![(8, 4), (3, 8), (2, 16)])
    }

    fn placeholder_config(&self) -> DeltaCompressConfig {
        DeltaCompressConfig {
            bits: self.bands.iter().map(|&(b, _)| b).max().unwrap_or(2),
            group_size: BAND_GROUP,
            sparse24: false,
            damp: 0.0,
            lossless: self.lossless,
        }
    }
}

impl DeltaCodec for DeltaComeCodec {
    fn id(&self) -> CodecId {
        CodecId::DeltaCome
    }

    fn label(&self) -> String {
        let bands: Vec<String> = self
            .bands
            .iter()
            .map(|(b, r)| format!("{b}b.r{r}"))
            .collect();
        format!("delta-come-{}", bands.join("+"))
    }

    fn compress(
        &self,
        base: &Params,
        finetuned: &Params,
        _calib: &[Vec<usize>],
    ) -> (CompressedDelta, Params) {
        let bands = self.bands.clone();
        compress_direct(
            base,
            finetuned,
            CodecId::DeltaCome,
            self.placeholder_config(),
            move |delta| PackedLayer::LowRank(LowRankMatrix::from_delta(delta, &bands)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dz_tensor::Rng;

    fn random_delta(d_in: usize, d_out: usize, seed: u64) -> Matrix {
        let mut rng = Rng::seeded(seed);
        Matrix::randn(d_in, d_out, 0.01, &mut rng)
    }

    #[test]
    fn codec_ids_round_trip_and_are_frozen() {
        for id in [
            CodecId::SparseGptStar,
            CodecId::BitDelta,
            CodecId::DeltaCome,
        ] {
            assert_eq!(CodecId::from_u8(id.as_u8()), Some(id));
        }
        assert_eq!(CodecId::SparseGptStar.as_u8(), 0);
        assert_eq!(CodecId::BitDelta.as_u8(), 1);
        assert_eq!(CodecId::DeltaCome.as_u8(), 2);
        assert_eq!(CodecId::from_u8(7), None);
    }

    #[test]
    fn sign_matrix_reconstruction_never_exceeds_delta_energy() {
        // The per-scope scale is the L2 minimizer, and a = 0 recovers the
        // raw delta energy, so the reconstruction error is bounded by it.
        for (scope, seed) in [(SignScope::PerMatrix, 1u64), (SignScope::PerRow, 2)] {
            let delta = random_delta(24, 12, seed);
            let sm = SignMatrix::from_delta(&delta, scope);
            let err = delta.sub(&sm.dequantize()).frob_norm();
            assert!(err <= delta.frob_norm() + 1e-6, "{scope:?}: {err}");
        }
    }

    #[test]
    fn per_row_scales_fit_at_least_as_well_as_per_matrix() {
        let mut rng = Rng::seeded(3);
        // Rows with very different magnitudes: per-row must win.
        let mut delta = Matrix::randn(16, 8, 0.01, &mut rng);
        for c in 0..16 {
            let v = delta.get(c, 0) * 50.0;
            delta.set(c, 0, v);
        }
        let row = SignMatrix::from_delta(&delta, SignScope::PerRow);
        let mat = SignMatrix::from_delta(&delta, SignScope::PerMatrix);
        let err_row = delta.sub(&row.dequantize()).frob_norm();
        let err_mat = delta.sub(&mat.dequantize()).frob_norm();
        assert!(
            err_row <= err_mat + 1e-6,
            "row {err_row} vs matrix {err_mat}"
        );
        assert!(row.packed_bytes() > mat.packed_bytes());
    }

    #[test]
    fn sign_matrix_packs_at_least_8x_for_wide_rows() {
        let delta = random_delta(64, 64, 4);
        let sm = SignMatrix::from_delta(&delta, SignScope::PerRow);
        let ratio = sm.fp16_bytes() as f64 / sm.packed_bytes() as f64;
        assert!(ratio >= 8.0, "ratio {ratio}");
        let pm = SignMatrix::from_delta(&delta, SignScope::PerMatrix);
        assert!(pm.fp16_bytes() as f64 / pm.packed_bytes() as f64 > ratio);
    }

    #[test]
    fn low_rank_error_monotone_in_band_budget() {
        let delta = random_delta(32, 24, 5);
        let budgets: Vec<Vec<(u32, usize)>> = vec![
            vec![(8, 2)],
            vec![(8, 2), (3, 4)],
            vec![(8, 2), (3, 4), (2, 8)],
            vec![(8, 2), (3, 4), (2, 8), (2, 16)],
        ];
        let mut prev = f32::MAX;
        for bands in &budgets {
            let lr = LowRankMatrix::from_delta(&delta, bands);
            let err = delta.sub(&lr.dequantize()).frob_norm();
            assert!(err <= prev + 1e-5, "bands {bands:?}: {err} > {prev}");
            prev = err;
        }
    }

    #[test]
    fn low_rank_captures_a_genuinely_low_rank_delta() {
        let mut rng = Rng::seeded(6);
        let u = Matrix::randn(20, 2, 0.1, &mut rng);
        let v = Matrix::randn(2, 16, 0.1, &mut rng);
        let delta = u.matmul(&v);
        let lr = LowRankMatrix::from_delta(&delta, &[(8, 2)]);
        let rel = delta.sub(&lr.dequantize()).frob_norm() / delta.frob_norm();
        assert!(rel < 0.05, "relative error {rel}");
        assert!(lr.packed_bytes() < delta.len() * 2 / 4);
    }

    #[test]
    fn low_rank_zero_delta_is_free_and_exact() {
        let delta = Matrix::zeros(16, 16);
        let lr = LowRankMatrix::from_delta(&delta, &[(8, 2), (2, 4)]);
        assert_eq!(lr.dequantize(), delta);
        // The guard drops bands that cannot reduce an already-zero
        // residual, so nothing is stored.
        assert!(lr.bands.is_empty());
        assert_eq!(lr.packed_bytes(), 0);
    }

    /// One fit of every layer: the relative Frobenius error of each
    /// layer and of the whole delta, and each layer's band ranks and
    /// packed bytes.
    struct FitReport {
        per_layer: Vec<f64>,
        whole: f64,
        shape: Vec<(Vec<usize>, usize)>,
    }

    fn fit_report(deltas: &[Matrix], fit: impl Fn(&Matrix) -> LowRankMatrix) -> FitReport {
        let (mut err2, mut norm2) = (0.0f64, 0.0f64);
        let mut per_layer = Vec::new();
        let mut shape = Vec::new();
        for delta in deltas {
            let lr = fit(delta);
            let e = delta.sub(&lr.dequantize()).frob_norm() as f64;
            let d = delta.frob_norm() as f64;
            per_layer.push(e / d);
            err2 += e * e;
            norm2 += d * d;
            let ranks = lr.bands.iter().map(LowRankBand::rank).collect();
            shape.push((ranks, lr.packed_bytes()));
        }
        FitReport {
            per_layer,
            whole: (err2 / norm2).sqrt(),
            shape,
        }
    }

    #[test]
    fn fit_is_within_tolerance_of_the_exact_svd_on_llama_tiny_l() {
        // Every linear delta of the llama-tiny-l shape under a seeded
        // N(0, 0.005) bump, as the serving benchmark deploys it.
        let config = dz_model::zoo::preset("llama-tiny-l").unwrap().config;
        let mut rng = Rng::seeded(0xDE17A);
        let base = Params::init(config, &mut rng);
        let deltas: Vec<Matrix> = base
            .linear_layer_names()
            .iter()
            .map(|name| {
                let w = base.get(name).unwrap();
                let tuned = w.add(&Matrix::randn(w.rows(), w.cols(), 0.005, &mut rng));
                tuned.sub(w)
            })
            .collect();
        assert_eq!(deltas.len(), 30);
        // Asking for every direction takes svd_leading's exact rule.
        let exact =
            |residual: &Matrix, _rank| svd_leading(residual, residual.rows().min(residual.cols()));
        for codec in [DeltaComeCodec::low_budget(), DeltaComeCodec::high_budget()] {
            let bands = &codec.bands;
            let want = fit_report(&deltas, |d| LowRankMatrix::fit_bands(d, bands, exact));
            let got = fit_report(&deltas, |d| LowRankMatrix::from_delta(d, bands));
            let (g, w) = (got.whole, want.whole);
            assert!(g <= w * 1.01, "{bands:?}: whole delta {g} vs exact {w}");
            for (i, (g, w)) in got.per_layer.iter().zip(&want.per_layer).enumerate() {
                assert!(*g <= w * 1.03, "{bands:?} layer {i}: {g} vs exact {w}");
            }
            assert_eq!(
                got.shape, want.shape,
                "{bands:?}: band ranks or packed bytes"
            );
        }
    }

    #[test]
    fn packed_layer_accessors_are_consistent() {
        let delta = random_delta(16, 12, 7);
        let layers = [
            PackedLayer::Sign(SignMatrix::from_delta(&delta, SignScope::PerRow)),
            PackedLayer::LowRank(LowRankMatrix::from_delta(&delta, &[(8, 2), (2, 4)])),
        ];
        for layer in &layers {
            assert_eq!(layer.d_in(), 16);
            assert_eq!(layer.d_out(), 12);
            assert_eq!(layer.fp16_bytes(), 16 * 12 * 2);
            assert!(layer.packed_bytes() > 0);
            assert!(layer.packed_bytes() < layer.fp16_bytes());
            assert_eq!(layer.dequantize().shape(), (16, 12));
            assert!(layer.as_quant().is_none());
            assert!(!layer.to_bytes().is_empty());
        }
    }
}
