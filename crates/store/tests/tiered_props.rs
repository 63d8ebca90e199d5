//! Seeded property test of `TieredDeltaStore`'s byte accounting: random
//! sequences of `fetch`, `fetch_decoded` and `evict` over a handful of
//! artifacts of different sizes (one larger than any budget), under
//! varied host budgets. After every operation the budget holds, the
//! resident set and bytes match a reference LRU of compressed and decoded
//! copies, the load counters are exactly what the fetches reported, a
//! resident artifact is always a host hit, and the oversized artifact is
//! never cached.

use dz_compress::codec::{CodecId, PackedLayer};
use dz_compress::pack::CompressedMatrix;
use dz_compress::pipeline::{CompressedDelta, DeltaCompressConfig, SizeReport};
use dz_compress::quant::{quantize_slice, QuantSpec};
use dz_store::{sha256, ArtifactId, FetchTier, LoadStats, Registry, TieredDeltaStore};
use dz_tensor::{Matrix, Rng};
use std::collections::BTreeMap;

const SEQUENCES: u64 = 256;

/// A delta with one 4-bit layer and a dense `rest_rows x 8` tensor, so the
/// artifact size grows with `rest_rows`.
fn delta(seed: u64, rest_rows: usize) -> CompressedDelta {
    let mut rng = Rng::seeded(seed);
    let spec = QuantSpec::new(4, 8);
    let wt = Matrix::randn(8, 16, 0.05, &mut rng);
    let (mut levels, mut scales) = (Vec::new(), Vec::new());
    for r in 0..8 {
        let (l, s) = quantize_slice(wt.row(r), spec);
        levels.extend(l);
        scales.extend(s);
    }
    let mut layers = BTreeMap::new();
    layers.insert(
        "layers.0.wq".to_string(),
        PackedLayer::Quant(CompressedMatrix::from_dense(8, 16, &levels, scales, spec)),
    );
    let mut rest = BTreeMap::new();
    rest.insert(
        "tok_emb".to_string(),
        Matrix::randn(rest_rows, 8, 1.0, &mut rng),
    );
    CompressedDelta {
        layers,
        rest,
        codec: CodecId::SparseGptStar,
        config: DeltaCompressConfig::starred(4),
        report: SizeReport {
            compressed_linear_bytes: 1,
            uncompressed_rest_bytes: 1,
            full_fp16_bytes: 1,
            lossless_linear_bytes: None,
        },
    }
}

fn add(a: LoadStats, b: LoadStats) -> LoadStats {
    LoadStats {
        host_hits: a.host_hits + b.host_hits,
        disk_loads: a.disk_loads + b.disk_loads,
        host_bytes: a.host_bytes + b.host_bytes,
        disk_bytes: a.disk_bytes + b.disk_bytes,
    }
}

/// A reference host cache: the documented LRU rules, over artifact
/// indices, with the stamp of each resident entry and the raw bytes of
/// its decoded copy (0 while none is cached).
#[derive(Default)]
struct RefLru {
    budget: u64,
    clock: u64,
    used: u64,
    resident: BTreeMap<usize, (u64, u64)>,
}

impl RefLru {
    fn evict(&mut self, i: usize, sizes: &[u64]) {
        if let Some((_, raw)) = self.resident.remove(&i) {
            self.used -= sizes[i] + raw;
        }
    }

    /// The least recently used entry other than `keep`.
    fn victim(&self, keep: Option<usize>) -> Option<usize> {
        self.resident
            .iter()
            .filter(|(&v, _)| Some(v) != keep)
            .min_by_key(|(_, &(stamp, _))| stamp)
            .map(|(&v, _)| v)
    }

    fn fetch(&mut self, i: usize, sizes: &[u64]) {
        self.clock += 1;
        if let Some(entry) = self.resident.get_mut(&i) {
            entry.0 = self.clock;
            return;
        }
        if sizes[i] > self.budget {
            return;
        }
        while self.used + sizes[i] > self.budget {
            let v = self
                .victim(None)
                .expect("over budget with nothing resident");
            self.evict(v, sizes);
        }
        self.used += sizes[i];
        self.resident.insert(i, (self.clock, 0));
    }

    /// A decoded fetch: the byte fetch, then (unless a decoded copy is
    /// already cached) `raw` more bytes, shedding other LRU entries, and
    /// the entry itself if it alone overflows.
    fn fetch_decoded(&mut self, i: usize, raw: u64, sizes: &[u64]) {
        self.fetch(i, sizes);
        match self.resident.get_mut(&i) {
            Some(entry) if entry.1 == 0 => entry.1 = raw,
            _ => return,
        }
        self.used += raw;
        while self.used > self.budget {
            match self.victim(Some(i)) {
                Some(v) => self.evict(v, sizes),
                None => break,
            }
        }
        if self.used > self.budget {
            self.evict(i, sizes);
        }
    }

    fn decoded(&self, i: usize) -> bool {
        self.resident.get(&i).is_some_and(|&(_, raw)| raw > 0)
    }
}

/// What the test has observed so far, and checks the store against.
struct Model {
    ids: Vec<ArtifactId>,
    sizes: Vec<u64>,
    lru: RefLru,
    /// Load counters rebuilt from the tiers the fetches reported.
    stats: BTreeMap<ArtifactId, LoadStats>,
    decodes: u64,
}

impl Model {
    /// Checks the store's host tier before a fetch of `i` and returns
    /// the tier that fetch must report.
    fn expect_tier(&self, store: &TieredDeltaStore, i: usize) -> FetchTier {
        if store.is_resident(&self.ids[i]) {
            FetchTier::HostHit
        } else {
            FetchTier::DiskMiss
        }
    }

    fn record(&mut self, i: usize, tier: FetchTier) {
        let s = self.stats.entry(self.ids[i]).or_default();
        match tier {
            FetchTier::HostHit => {
                s.host_hits += 1;
                s.host_bytes += self.sizes[i];
            }
            FetchTier::DiskMiss => {
                s.disk_loads += 1;
                s.disk_bytes += self.sizes[i];
            }
        }
    }

    fn check(&self, store: &TieredDeltaStore, oversized: &ArtifactId, ctx: &str) {
        assert!(
            store.resident_bytes() <= store.budget_bytes(),
            "{ctx}: {} resident bytes over a {} budget",
            store.resident_bytes(),
            store.budget_bytes()
        );
        assert!(
            !store.is_resident(oversized),
            "{ctx}: oversized artifact cached"
        );
        let mut total = LoadStats::default();
        for (i, id) in self.ids.iter().enumerate() {
            assert_eq!(
                store.is_resident(id),
                self.lru.resident.contains_key(&i),
                "{ctx}: residency of artifact {i}"
            );
            let want = self.stats.get(id).copied().unwrap_or_default();
            assert_eq!(store.stats(id), want, "{ctx}: stats of artifact {i}");
            total = add(total, store.stats(id));
        }
        assert_eq!(
            store.resident_bytes(),
            self.lru.used,
            "{ctx}: resident bytes are not the resident copies"
        );
        assert_eq!(store.total_stats(), total, "{ctx}: total is not the sum");
        assert_eq!(store.decode_throughput().loads, self.decodes, "{ctx}");
    }
}

#[test]
fn tiered_store_conserves_bytes_over_seeded_sequences() {
    let dir = std::env::temp_dir().join(format!("dz-store-tiered-props-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let registry = Registry::open(&dir).expect("open registry");
    let rows = [2usize, 6, 12, 24, 400];
    let deltas: Vec<CompressedDelta> = rows
        .iter()
        .enumerate()
        .map(|(i, &r)| delta(100 + i as u64, r))
        .collect();
    let ids: Vec<ArtifactId> = deltas
        .iter()
        .enumerate()
        .map(|(i, d)| {
            registry
                .publish_delta(&format!("a{i}"), sha256(b"base"), d)
                .expect("publish")
        })
        .collect();
    let sizes: Vec<u64> = ids
        .iter()
        .map(|id| registry.size_of(id).expect("size"))
        .collect();
    let oversized = ids[rows.len() - 1];
    let big = sizes[rows.len() - 1];
    let smalls: u64 = sizes[..rows.len() - 1].iter().sum();
    assert!(
        big > 2 * smalls,
        "the oversized artifact ({big} B) must dwarf the rest ({smalls} B)"
    );

    let (mut hits, mut misses, mut decode_free) = (0u64, 0u64, 0u64);
    for seed in 0..SEQUENCES {
        let mut rng = Rng::seeded(seed);
        // Budgets from below the smallest artifact up to just under the
        // oversized one, skewed small so eviction is frequent.
        let u = rng.uniform_f64();
        let budget = ((u * u * big as f64) as u64).clamp(1, big - 1);
        let mut store = TieredDeltaStore::new(registry.clone(), budget);
        let mut model = Model {
            ids: ids.clone(),
            sizes: sizes.clone(),
            lru: RefLru {
                budget,
                ..RefLru::default()
            },
            stats: BTreeMap::new(),
            decodes: 0,
        };
        let ops = 16 + rng.below(32);
        for step in 0..ops {
            let i = rng.below(ids.len());
            let ctx = format!("seed {seed} step {step} budget {budget}");
            match rng.below(5) {
                0 | 1 => {
                    let tier = model.expect_tier(&store, i);
                    let out = store.fetch(&ids[i]).expect("fetch");
                    assert_eq!(out.tier, tier, "{ctx}: fetch tier");
                    assert_eq!(out.bytes, sizes[i], "{ctx}");
                    assert_eq!(out.data.len() as u64, sizes[i], "{ctx}");
                    model.record(i, tier);
                    model.lru.fetch(i, &sizes);
                }
                2 | 3 => {
                    let tier = model.expect_tier(&store, i);
                    let reuse = tier == FetchTier::HostHit && model.lru.decoded(i);
                    let out = store.fetch_decoded(&ids[i]).expect("fetch_decoded");
                    assert_eq!(out.tier, tier, "{ctx}: fetch_decoded tier");
                    assert_eq!(out.bytes, sizes[i], "{ctx}");
                    assert_eq!(*out.delta, deltas[i], "{ctx}: decoded delta");
                    assert_eq!(out.decode.is_none(), reuse, "{ctx}: decode reuse");
                    assert!(out.raw_bytes > 0, "{ctx}");
                    if out.decode.is_some() {
                        model.decodes += 1;
                    } else {
                        decode_free += 1;
                    }
                    model.record(i, tier);
                    model.lru.fetch_decoded(i, out.raw_bytes, &sizes);
                }
                _ => {
                    store.evict(&ids[i]);
                    model.lru.evict(i, &sizes);
                }
            }
            model.check(&store, &oversized, &ctx);
        }
        let t = store.total_stats();
        hits += t.host_hits;
        misses += t.disk_loads;
    }
    // The sequences reached every branch the invariants speak about.
    assert!(hits > 0 && misses > 0 && decode_free > 0);
    std::fs::remove_dir_all(&dir).ok();
}
