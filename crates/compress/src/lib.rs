//! ΔCompress and friends: post-training compression of model deltas.
//!
//! This crate implements the paper's compression stack from scratch:
//!
//! * [`quant`] — symmetric group quantization grids (2/3/4/8 bit),
//! * [`obs`] — the SparseGPT-style optimal-brain-surgeon solver: joint
//!   2:4 structured pruning + quantization with inverse-Hessian error
//!   propagation (Eq. 1 of the paper),
//! * [`pack`] — the one stored layout of dense-quantized and 2:4-sparse
//!   matrices (byte-lane levels + in-group positions), read as is by the
//!   wire format and the kernels, with exact byte accounting used for
//!   every compression-ratio figure,
//! * [`calib`] — the calibration set and the one layer-by-layer
//!   calibration walk that captures each projection's input once and
//!   propagates replaced weights; every calibrated compressor is a closure
//!   over it,
//! * [`pipeline`] — ΔCompress itself (Algorithm 1) on that walk: per-layer
//!   delta extraction, compression and weight reconstruction, plus the
//!   artifact's size accounting and the optional lossless stage,
//! * [`baselines`] — SparseGPT-direct and AWQ applied to the fine-tuned
//!   weights, the paper's comparison points,
//! * [`codec`] — the delta-compression **method zoo**: the [`DeltaCodec`]
//!   trait plus BitDelta-style 1-bit sign/scale and Delta-CoMe-style
//!   mixed-precision low-rank codecs alongside the starred pipeline.

pub mod baselines;
pub mod calib;
pub mod codec;
pub mod obs;
pub mod pack;
pub mod pipeline;
pub mod quant;
pub mod wire;

pub use codec::{
    BitDeltaCodec, CodecId, DeltaCodec, DeltaComeCodec, LowRankMatrix, PackedLayer, SignMatrix,
    SignScope, SparseGptCodec,
};
pub use pack::{CompressedMatrix, MatrixFormat};
pub use pipeline::{CompressedDelta, DeltaCompressConfig, SizeReport};
pub use wire::WireError;
