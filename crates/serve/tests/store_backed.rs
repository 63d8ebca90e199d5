//! The DeltaZip engine bound to a real artifact store: load charges must
//! come from actual `.dza` byte sizes, with host hits strictly cheaper
//! than disk misses.

use dz_compress::codec::{CodecId, PackedLayer};
use dz_compress::pack::CompressedMatrix;
use dz_compress::pipeline::{CompressedDelta, DeltaCompressConfig, SizeReport};
use dz_compress::quant::{quantize_slice, QuantSpec};
use dz_gpusim::shapes::ModelShape;
use dz_gpusim::spec::NodeSpec;
use dz_serve::{CostModel, DeltaStoreBinding, DeltaZipConfig, Engine, EngineBuilder};
use dz_store::{sha256, ArtifactId, FetchTier, Registry, TieredDeltaStore};
use dz_tensor::{Matrix, Rng};
use dz_workload::{PopularityDist, Request, Trace, TraceSpec};
use std::collections::BTreeMap;
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dz-serve-store-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn tiny_delta(seed: u64, d: usize) -> CompressedDelta {
    let mut rng = Rng::seeded(seed);
    let spec = QuantSpec::new(4, 8);
    let wt = Matrix::randn(d, d, 0.05, &mut rng);
    let mut levels = Vec::new();
    let mut scales = Vec::new();
    for r in 0..d {
        let (l, s) = quantize_slice(wt.row(r), spec);
        levels.extend(l);
        scales.extend(s);
    }
    let cm = CompressedMatrix::from_dense(d, d, &levels, scales, spec);
    let packed = cm.packed_bytes();
    let mut layers = BTreeMap::new();
    layers.insert("w".to_string(), PackedLayer::Quant(cm));
    CompressedDelta {
        layers,
        rest: BTreeMap::new(),
        codec: CodecId::SparseGptStar,
        config: DeltaCompressConfig::starred(4),
        report: SizeReport {
            compressed_linear_bytes: packed,
            uncompressed_rest_bytes: 0,
            full_fp16_bytes: d * d * 2,
            lossless_linear_bytes: None,
        },
    }
}

fn publish_zoo(registry: &Registry, n: usize) -> Vec<ArtifactId> {
    (0..n)
        .map(|i| {
            registry
                .publish_delta(
                    &format!("variant-{i}"),
                    sha256(b"base"),
                    &tiny_delta(100 + i as u64, 16),
                )
                .expect("publish")
        })
        .collect()
}

fn trace(n_models: usize, rate: f64, seed: u64) -> Trace {
    Trace::generate(TraceSpec {
        n_models,
        arrival_rate: rate,
        duration_s: 30.0,
        popularity: PopularityDist::Zipf { alpha: 1.5 },
        seed,
    })
}

fn cost() -> CostModel {
    CostModel::new(NodeSpec::a800_node(4), ModelShape::llama13b())
}

#[test]
fn store_backed_engine_charges_real_artifact_bytes() {
    let dir = temp_dir("charge");
    let registry = Registry::open(&dir).expect("open");
    let artifacts = publish_zoo(&registry, 4);
    let sizes: Vec<u64> = artifacts
        .iter()
        .map(|id| registry.size_of(id).expect("size"))
        .collect();
    let store = TieredDeltaStore::new(registry, 1 << 30);
    let t = trace(4, 1.0, 5);
    let mut engine = EngineBuilder::new(cost())
        .store(DeltaStoreBinding::new(store, artifacts.clone()))
        .build();
    let metrics = engine.run(&t);
    assert_eq!(metrics.len(), t.len());

    let binding = engine.delta_store.as_ref().expect("binding");
    let total = binding.store().total_stats();
    // Every model that received traffic was loaded from disk exactly once
    // (the cache fits everything), then hit in host memory on re-loads.
    let models_used: std::collections::BTreeSet<usize> =
        t.requests.iter().map(|r| r.model).collect();
    assert_eq!(total.disk_loads as usize, models_used.len());
    let expected_disk: u64 = models_used.iter().map(|&m| sizes[m]).sum();
    assert_eq!(total.disk_bytes, expected_disk);
    // The per-request load waits are consistent with at least the
    // physical floor of each first-touched artifact's cold load: under
    // the measured pipeline model (max of transfer and decode), an
    // infinitely fast decoder still pays the disk + PCIe path.
    let cm = cost();
    let min_cold: f64 = models_used
        .iter()
        .map(|&m| {
            cm.delta_cold_load_profile_measured(sizes[m] as f64, Some(1e12))
                .solo_s()
        })
        .sum();
    let total_wait: f64 = metrics.records.iter().map(|r| r.load_s).sum();
    assert!(
        total_wait >= min_cold * 0.99,
        "observed load waits {total_wait} cannot be below the cold floor {min_cold}"
    );
    // The fetches ran the real decode pipeline, so the binding reports a
    // measured throughput the engine's charges were derived from.
    assert!(
        binding.measured_decode_gbps().is_some(),
        "store-backed loads must surface measured decode GB/s"
    );
    let decode = binding.store().decode_throughput();
    assert_eq!(decode.loads, models_used.len() as u64);
    assert!(decode.stats.wall_s > 0.0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn host_hits_are_strictly_cheaper_than_misses_end_to_end() {
    // Same trace, two cache budgets: a host cache that fits the whole zoo
    // vs one that fits a single artifact. The thrashing store must do more
    // disk loads, and the engine must accumulate more load wait.
    let dir_big = temp_dir("big");
    let dir_small = temp_dir("small");
    let t = trace(6, 2.0, 9);

    let run = |dir: &PathBuf, budget_artifacts: u64| {
        let registry = Registry::open(dir).expect("open");
        let artifacts = publish_zoo(&registry, 6);
        let max_size = artifacts
            .iter()
            .map(|id| registry.size_of(id).expect("size"))
            .max()
            .expect("nonempty");
        let store = TieredDeltaStore::new(registry, budget_artifacts * max_size);
        // A single small GPU: only ~N deltas stay GPU-resident, so evicted
        // deltas get re-fetched and the host tier actually matters.
        let tight_cost = CostModel::new(NodeSpec::rtx3090_node(1), ModelShape::llama13b());
        let mut engine = EngineBuilder::new(tight_cost)
            .scheduler(DeltaZipConfig {
                max_concurrent_deltas: 2,
                max_batch: 8,
                ..DeltaZipConfig::default()
            })
            .store(DeltaStoreBinding::new(store, artifacts))
            .build();
        let m = engine.run(&t);
        let stats = engine
            .delta_store
            .as_ref()
            .expect("binding")
            .store()
            .total_stats();
        let wait: f64 = m.records.iter().map(|r| r.load_s).sum();
        (m.len(), stats, wait)
    };

    let (n_big, stats_big, wait_big) = run(&dir_big, 16);
    let (n_small, stats_small, wait_small) = run(&dir_small, 1);
    assert_eq!(n_big, t.len());
    assert_eq!(n_small, t.len());
    assert!(
        stats_small.disk_loads > stats_big.disk_loads,
        "a one-artifact cache must thrash: {} vs {} disk loads",
        stats_small.disk_loads,
        stats_big.disk_loads
    );
    assert!(
        wait_small > wait_big,
        "more disk misses must mean more load wait: {wait_small} vs {wait_big}"
    );
    std::fs::remove_dir_all(&dir_big).ok();
    std::fs::remove_dir_all(&dir_small).ok();
}

#[test]
fn fetch_tiers_follow_store_residency() {
    let dir = temp_dir("tiers");
    let registry = Registry::open(&dir).expect("open");
    let artifacts = publish_zoo(&registry, 2);
    let mut store = TieredDeltaStore::new(registry, 1 << 30);
    assert_eq!(
        store.fetch(&artifacts[0]).expect("cold").tier,
        FetchTier::DiskMiss
    );
    assert_eq!(
        store.fetch(&artifacts[0]).expect("warm").tier,
        FetchTier::HostHit
    );
    std::fs::remove_dir_all(store.registry().root()).ok();
}

#[test]
fn serialized_decode_free_hit_is_charged_pcie_only() {
    // One delta at a time on a small GPU: model 0 is loaded, pushed off the
    // GPU by the next `capacity` models, then requested again. The store
    // still holds its decoded copy, so the serialized model must charge
    // the re-load as a raw PCIe transfer, with no decode stage — the same
    // profile the overlapped model uses for that fetch.
    let dir = temp_dir("decode-free");
    let registry = Registry::open(&dir).expect("open");
    let cost = CostModel::new(NodeSpec::rtx3090_node(1), ModelShape::llama7b());
    let capacity = cost.delta_resident_capacity().max(1);
    let artifacts = publish_zoo(&registry, capacity + 1);
    let store = TieredDeltaStore::new(registry, 1 << 30);
    let models = (0..=capacity).chain([0]);
    let requests = models
        .enumerate()
        .map(|(id, model)| Request {
            id,
            model,
            arrival: 10.0 * id as f64,
            prompt_tokens: 16,
            output_tokens: 4,
        })
        .collect::<Vec<_>>();
    let t = Trace {
        spec: TraceSpec {
            n_models: capacity + 1,
            arrival_rate: 0.1,
            duration_s: 10.0 * requests.len() as f64,
            popularity: PopularityDist::Uniform,
            seed: 0,
        },
        requests,
    };
    let mut engine = EngineBuilder::new(cost)
        .scheduler(DeltaZipConfig {
            max_concurrent_deltas: 1,
            overlap_swaps: false,
            ..DeltaZipConfig::default()
        })
        .store(DeltaStoreBinding::new(store, artifacts.clone()))
        .build();
    let m = engine.run(&t);
    assert_eq!(m.len(), t.len());
    let store = engine.delta_store.as_mut().expect("binding").store_mut();
    assert_eq!(store.total_stats().disk_loads as usize, capacity + 1);
    assert_eq!(store.total_stats().host_hits, 1);
    let again = store.fetch_decoded(&artifacts[0]).expect("fetch");
    assert!(again.decode.is_none(), "the decoded copy stayed resident");
    let want = cost
        .decoded_load_profile_bytes(again.raw_bytes as f64)
        .solo_s();
    let got = m.records.last().expect("records").load_s;
    assert!(
        (got - want).abs() <= 1e-12 * want,
        "decode-free re-load charged {got} s, PCIe-only profile is {want} s"
    );
    std::fs::remove_dir_all(&dir).ok();
}
