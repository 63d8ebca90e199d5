//! Delta artifact storage for DeltaZip: the `.dza` container, a
//! content-addressed registry, and a tiered disk→host cache.
//!
//! DeltaZip's economics (§5.4 of the paper) come from compressed deltas
//! living on cheap storage and streaming disk→host→GPU on demand. This
//! crate is that storage layer:
//!
//! * [`dza`] — the versioned little-endian `.dza` container: a manifest
//!   (name, base-model lineage hash, quantization recipe, per-tensor
//!   index) over per-tensor pages compressed with the `dz-lossless` paged
//!   codec and double-checksummed (the page header and the manifest entry
//!   hold one 64-bit checksum of the raw bytes; the manifest has its own).
//!   Written streaming, read with random access per tensor; a whole delta
//!   reads its pages with one read, decodes its tensors in file order and
//!   reports measured throughput ([`DecodeStats`]).
//! * [`registry`] — a content-addressed on-disk zoo: artifacts live under
//!   `<root>/<sha256>.dza`, identical deltas deduplicate, named refs map
//!   variant names to hashes, and any file can be integrity-audited.
//! * [`tiered`] — [`TieredDeltaStore`]: a byte-budget LRU host cache over
//!   the registry with per-artifact load accounting of the real transfer
//!   bytes of host hits vs disk misses, and a decode-free hit once a
//!   delta's decoded copy is cached.
//! * [`hash`] — SHA-256 (from the FIPS 180-4 spec) for content addresses
//!   and base-model lineage.
//!
//! # Example
//!
//! ```no_run
//! use dz_store::{Registry, TieredDeltaStore};
//! # fn demo(delta: &dz_compress::CompressedDelta, base_hash: dz_store::Digest)
//! # -> Result<(), dz_store::StoreError> {
//! let registry = Registry::open("zoo")?;
//! let id = registry.publish_delta("vicuna-7b", base_hash, delta)?;
//! let mut store = TieredDeltaStore::new(registry, 512 << 20);
//! let first = store.fetch(&id)?;   // disk miss
//! let second = store.fetch(&id)?;  // host hit, no disk I/O
//! assert_eq!(first.bytes, second.bytes);
//! # Ok(()) }
//! ```

#![warn(missing_docs)]

pub mod dza;
pub mod error;
pub mod hash;
pub mod registry;
pub mod tiered;

pub use dza::{ArtifactReader, ArtifactWriter, DecodeStats, Manifest, TensorEntry, TensorKind};
pub use error::StoreError;
pub use hash::{sha256, Digest, Sha256};
pub use registry::{ArtifactId, Registry};
pub use tiered::{
    DecodeThroughput, DecodedFetch, FetchOutcome, FetchTier, LoadStats, TieredDeltaStore,
};
