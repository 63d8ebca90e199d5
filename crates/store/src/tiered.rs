//! Tiered delta storage: disk registry under a byte-budget host cache.
//!
//! The paper's hierarchical delta management (§5.4) keeps hot compressed
//! deltas in host DRAM and spills cold ones to disk. [`TieredDeltaStore`]
//! models exactly that: artifact bytes are fetched from the
//! content-addressed [`Registry`] on a miss and cached in memory under a
//! least-recently-used byte budget, with per-artifact load accounting of
//! the real transfer sizes of host hits and disk misses.

use crate::dza::{ArtifactReader, DecodeStats};
use crate::error::StoreError;
use crate::registry::{ArtifactId, Registry};
use dz_compress::pipeline::CompressedDelta;
use std::collections::BTreeMap;
use std::io::Cursor;
use std::sync::Arc;

/// Which tier satisfied a fetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchTier {
    /// Served from the host DRAM cache: only the host→device hop remains.
    HostHit,
    /// Read from disk (and now cached): disk + host→device hops.
    DiskMiss,
}

/// The result of one fetch.
#[derive(Debug, Clone)]
pub struct FetchOutcome {
    /// Which tier served the request.
    pub tier: FetchTier,
    /// Artifact size in bytes (what the interconnect moves).
    pub bytes: u64,
    /// The artifact's raw `.dza` bytes.
    pub data: Arc<Vec<u8>>,
}

/// Per-artifact (and aggregate) load accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadStats {
    /// Fetches served from the host cache.
    pub host_hits: u64,
    /// Fetches that had to read disk.
    pub disk_loads: u64,
    /// Total bytes served from the host cache.
    pub host_bytes: u64,
    /// Total bytes read from disk.
    pub disk_bytes: u64,
}

impl LoadStats {
    fn record(&mut self, tier: FetchTier, bytes: u64) {
        match tier {
            FetchTier::HostHit => {
                self.host_hits += 1;
                self.host_bytes += bytes;
            }
            FetchTier::DiskMiss => {
                self.disk_loads += 1;
                self.disk_bytes += bytes;
            }
        }
    }
}

/// The result of one decoded fetch: tier and bytes as in [`FetchOutcome`],
/// plus the reassembled delta and — when this fetch actually ran the
/// decode pipeline — its measured statistics.
#[derive(Debug, Clone)]
pub struct DecodedFetch {
    /// Which tier served the request.
    pub tier: FetchTier,
    /// Artifact size in bytes (what the interconnect moves).
    pub bytes: u64,
    /// Raw (decompressed) size of the delta in bytes — what a
    /// decode-free swap-in of the cached decoded copy would move.
    pub raw_bytes: u64,
    /// The decoded delta.
    pub delta: Arc<CompressedDelta>,
    /// Measured pipeline statistics; `None` when the decoded delta was
    /// already host-resident and no decode ran.
    pub decode: Option<DecodeStats>,
}

/// Cumulative measured decode throughput across every load that ran the
/// pipeline.
#[derive(Debug, Clone, Copy, Default)]
pub struct DecodeThroughput {
    /// Loads that ran the decode pipeline.
    pub loads: u64,
    /// Cumulative per-load statistics.
    pub stats: DecodeStats,
}

impl DecodeThroughput {
    /// Measured end-to-end compressed GB/s across all loads; `None` until
    /// the first decode has been timed.
    pub fn effective_gbps(&self) -> Option<f64> {
        (self.loads > 0)
            .then_some(())
            .and(self.stats.effective_gbps())
    }
}

struct Resident {
    data: Arc<Vec<u8>>,
    /// Decoded form, populated lazily by [`TieredDeltaStore::fetch_decoded`]
    /// and dropped with the entry on eviction.
    decoded: Option<Arc<CompressedDelta>>,
    /// Raw (decompressed) bytes held by `decoded`, charged against the
    /// host byte budget alongside the compressed bytes.
    decoded_bytes: u64,
    stamp: u64,
}

impl Resident {
    fn footprint(&self) -> u64 {
        self.data.len() as u64 + self.decoded_bytes
    }
}

/// A disk→host tiered store with an LRU host cache bounded in bytes.
///
/// # Examples
///
/// ```no_run
/// use dz_store::{FetchTier, Registry, TieredDeltaStore};
/// # fn demo() -> Result<(), dz_store::StoreError> {
/// let registry = Registry::open("zoo")?;
/// let id = registry.resolve("my-variant")?;
/// let mut store = TieredDeltaStore::new(registry, 512 << 20);
/// assert!(!store.is_resident(&id)); // nothing cached yet
/// let first = store.fetch_decoded(&id)?; // reads disk, decodes, caches both
/// assert_eq!(first.tier, FetchTier::DiskMiss);
/// assert!(first.decode.is_some());
/// let again = store.fetch_decoded(&id)?; // decode-free host hit
/// assert_eq!(again.tier, FetchTier::HostHit);
/// assert!(again.decode.is_none());
/// assert!(store.resident_bytes() > 0);
/// # Ok(()) }
/// ```
pub struct TieredDeltaStore {
    registry: Registry,
    budget_bytes: u64,
    resident: BTreeMap<ArtifactId, Resident>,
    resident_bytes: u64,
    clock: u64,
    per_artifact: BTreeMap<ArtifactId, LoadStats>,
    total: LoadStats,
    decode: DecodeThroughput,
}

impl TieredDeltaStore {
    /// Wraps a registry with a host cache of `budget_bytes`.
    pub fn new(registry: Registry, budget_bytes: u64) -> Self {
        TieredDeltaStore {
            registry,
            budget_bytes,
            resident: BTreeMap::new(),
            resident_bytes: 0,
            clock: 0,
            per_artifact: BTreeMap::new(),
            total: LoadStats::default(),
            decode: DecodeThroughput::default(),
        }
    }

    /// The underlying registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The host cache budget in bytes.
    pub fn budget_bytes(&self) -> u64 {
        self.budget_bytes
    }

    /// Bytes currently resident in the host cache: compressed artifact
    /// bytes plus any decoded copies cached beside them.
    pub fn resident_bytes(&self) -> u64 {
        self.resident_bytes
    }

    /// Whether an artifact is currently host-resident.
    pub fn is_resident(&self, id: &ArtifactId) -> bool {
        self.resident.contains_key(id)
    }

    /// Fetches an artifact's bytes, reading disk only on a host miss.
    pub fn fetch(&mut self, id: &ArtifactId) -> Result<FetchOutcome, StoreError> {
        self.clock += 1;
        if let Some(r) = self.resident.get_mut(id) {
            r.stamp = self.clock;
            let outcome = FetchOutcome {
                tier: FetchTier::HostHit,
                bytes: r.data.len() as u64,
                data: Arc::clone(&r.data),
            };
            self.record(id, FetchTier::HostHit, outcome.bytes);
            return Ok(outcome);
        }
        let data = Arc::new(self.registry.read_bytes(id)?);
        let bytes = data.len() as u64;
        self.admit(*id, Arc::clone(&data));
        self.record(id, FetchTier::DiskMiss, bytes);
        Ok(FetchOutcome {
            tier: FetchTier::DiskMiss,
            bytes,
            data,
        })
    }

    /// Fetches an artifact **decoded**: the compressed bytes move through
    /// the usual tiering (disk on a miss, host cache on a hit), then
    /// [`ArtifactReader::read_delta_with_stats`] reassembles the delta and
    /// the measured throughput is folded into
    /// [`decode_throughput`](Self::decode_throughput).
    /// A host hit whose decoded delta is still resident skips the decode
    /// entirely (`decode: None`). The decoded copy's raw bytes count
    /// against the host byte budget alongside the compressed bytes, with
    /// LRU eviction restoring the bound.
    pub fn fetch_decoded(&mut self, id: &ArtifactId) -> Result<DecodedFetch, StoreError> {
        let outcome = self.fetch(id)?;
        if let Some(resident) = self.resident.get(id) {
            if let Some(delta) = &resident.decoded {
                return Ok(DecodedFetch {
                    tier: outcome.tier,
                    bytes: outcome.bytes,
                    raw_bytes: resident.decoded_bytes,
                    delta: Arc::clone(delta),
                    decode: None,
                });
            }
        }
        let mut reader = ArtifactReader::open(Cursor::new(&outcome.data[..]))?;
        let (delta, stats) = reader.read_delta_with_stats()?;
        let delta = Arc::new(delta);
        if let Some(resident) = self.resident.get_mut(id) {
            resident.decoded = Some(Arc::clone(&delta));
            resident.decoded_bytes = stats.raw_bytes;
            self.resident_bytes += stats.raw_bytes;
            // The decoded copy counts against the host budget too; shed
            // LRU entries (never the one just fetched) until it fits.
            while self.resident_bytes > self.budget_bytes {
                let victim = self
                    .resident
                    .iter()
                    .filter(|(v, _)| *v != id)
                    .min_by_key(|(_, r)| r.stamp)
                    .map(|(&v, _)| v);
                match victim {
                    Some(v) => self.evict(&v),
                    None => break,
                }
            }
            // Compressed + decoded alone overflow the whole cache: serve
            // this load uncached rather than pinning an over-budget entry
            // (mirrors `admit`'s oversized-artifact rule).
            if self.resident_bytes > self.budget_bytes {
                self.evict(id);
            }
        }
        self.decode.loads += 1;
        self.decode.stats.accumulate(&stats);
        Ok(DecodedFetch {
            tier: outcome.tier,
            bytes: outcome.bytes,
            raw_bytes: stats.raw_bytes,
            delta,
            decode: Some(stats),
        })
    }

    /// Cumulative measured decode throughput across decoded loads.
    pub fn decode_throughput(&self) -> DecodeThroughput {
        self.decode
    }

    /// Drops one artifact from the host cache (it stays on disk).
    pub fn evict(&mut self, id: &ArtifactId) {
        if let Some(r) = self.resident.remove(id) {
            self.resident_bytes -= r.footprint();
        }
    }

    /// Load accounting for one artifact.
    pub fn stats(&self, id: &ArtifactId) -> LoadStats {
        self.per_artifact.get(id).copied().unwrap_or_default()
    }

    /// Aggregate load accounting.
    pub fn total_stats(&self) -> LoadStats {
        self.total
    }

    fn record(&mut self, id: &ArtifactId, tier: FetchTier, bytes: u64) {
        self.per_artifact
            .entry(*id)
            .or_default()
            .record(tier, bytes);
        self.total.record(tier, bytes);
    }

    fn admit(&mut self, id: ArtifactId, data: Arc<Vec<u8>>) {
        let len = data.len() as u64;
        if len > self.budget_bytes {
            // Larger than the whole cache: serve it uncached rather than
            // flushing everything for one artifact.
            return;
        }
        while self.resident_bytes + len > self.budget_bytes {
            let victim = self
                .resident
                .iter()
                .min_by_key(|(_, r)| r.stamp)
                .map(|(id, _)| *id);
            match victim {
                Some(v) => self.evict(&v),
                None => break,
            }
        }
        self.resident_bytes += len;
        self.resident.insert(
            id,
            Resident {
                data,
                decoded: None,
                decoded_bytes: 0,
                stamp: self.clock,
            },
        );
    }
}
