//! CPU reference kernels over DeltaZip's packed delta formats.
//!
//! The paper's serving engine relies on three GPU kernels: a plain FP16
//! GEMM for the shared base model, a fused dequantize-GEMM for dense
//! quantized deltas, and a 2:4-sparse variant of it. On top of those sits
//! SBMM — *Selective Batched Matrix Multiplication* — which groups the
//! requests of a batch by their delta and runs one grouped multiply per
//! delta instead of one kernel launch per request.
//!
//! This crate provides bit-exact CPU implementations of each kernel. They
//! serve two purposes: (1) they make the decoupled serving path *actually
//! executable* (the examples generate text through base + packed delta),
//! and (2) they pin down the numerics that the `dz-gpusim` performance
//! model assigns costs to. Criterion benches over these kernels back the
//! CPU-side sanity check of Figure 6/7 shapes.
//!
//! The fused kernels read a packed matrix in the layout it is stored in,
//! from `.dza` page to memory
//! ([`dz_compress::pack::CompressedMatrix::decode_block`]): byte-lane
//! levels and 2:4 positions interleaved over blocks of eight output rows.
//! A call only scales the levels of each row block and applies the block
//! to every batch row; it never bit-unpacks and builds nothing on first
//! use. See [`qgemm`] for the tiling and the bit-exactness contract.
//!
//! The other codecs are served from their packed form too. BitDelta's
//! sign GEMM decodes 32 sign bits per output at a time inside its tile and
//! keeps the bits of a dense product over the dequantized signs.
//! Delta-CoMe's product is `(x·P)·Qᵀ` over its bands' factors, which are
//! dequantized once per runner, and never builds the `d_in × d_out` delta.
//! Both are crate-private; the runner picks them per layer.
//!
//! The adapter side (Punica-style SGMV, extended with RoSA's sparse
//! component per §8) lives in [`sgmv`].
//!
//! One batched decode runner, [`BatchRunner`], serves every variant kind
//! through the same transformer step: a delta of any codec, each layer
//! through the product its packed format has (SBMM, the sign GEMM or the
//! low-rank product), and LoRA/RoSA adapters through SGMV, each on top of
//! one shared base GEMM per projection. The runner holds only what decoupling changes: the
//! per-variant parameters and these linears. LayerNorm, cached attention,
//! GELU and the greedy argmax are `dz_model::transformer`'s, the same
//! functions its reference `forward_infer` calls.
//! [`decoupled::DecoupledBatch::new`] builds the runner over deltas alone;
//! adapters enter it as [`Variant::adapter`].

pub mod decoupled;
mod lowrank;
pub mod qgemm;
mod runner;
pub mod sbmm;
pub mod sgmv;
mod sign;

pub use qgemm::{dense_gemm, quant_gemm};
pub use runner::{BatchRunner, Variant};
pub use sbmm::{sbmm_grouped, sbmm_naive};
pub use sgmv::AdapterView;
