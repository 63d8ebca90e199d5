//! Cluster routing over store-bound replicas: each replica owns a
//! `TieredDeltaStore` budget, and placement-aware routing must turn the
//! fleet's disjoint host caches into fewer disk loads than spraying
//! requests round-robin.

use dz_compress::codec::{CodecId, PackedLayer};
use dz_compress::pack::CompressedMatrix;
use dz_compress::pipeline::{CompressedDelta, DeltaCompressConfig, SizeReport};
use dz_compress::quant::{quantize_slice, QuantSpec};
use dz_gpusim::shapes::ModelShape;
use dz_gpusim::spec::NodeSpec;
use dz_serve::cluster::{
    ClusterConfig, ClusterSim, PlacementAwareRouter, PlacementPlan, RoundRobinRouter, Router,
};
use dz_serve::{CostModel, DeltaStoreBinding, DeltaZipConfig};
use dz_store::{sha256, ArtifactId, LoadStats, Registry, TieredDeltaStore};
use dz_tensor::{Matrix, Rng};
use dz_workload::{PopularityDist, Trace, TraceSpec};
use std::collections::BTreeMap;
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dz-cluster-{tag}-{}", std::process::id()));
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

/// Aggregate host-cache hit rate across replica stores: host hits /
/// (host hits + disk loads).
fn host_hit_rate(stats: &[LoadStats]) -> f64 {
    let (hits, loads) = stats.iter().fold((0u64, 0u64), |(h, l), s| {
        (h + s.host_hits, l + s.host_hits + s.disk_loads)
    });
    dz_trace::stats::ratio_or(hits as f64, loads as f64, 1.0)
}

/// Runs a 3-replica store-bound cluster under `router`; returns
/// (served, total disk loads, aggregate cache hit rate).
fn run_store_cluster(dir: &PathBuf, router: Box<dyn Router>, trace: &Trace) -> (usize, u64, f64) {
    const N_MODELS: usize = 12;
    const N_REPLICAS: usize = 3;
    let registry = Registry::open(dir).expect("open registry");
    let artifacts = publish_zoo(&registry, N_MODELS);
    let max_size = artifacts
        .iter()
        .map(|id| registry.size_of(id).expect("size"))
        .max()
        .expect("nonempty zoo");
    // Each replica's host cache holds ~5 of the 12 artifacts.
    let bindings: Vec<DeltaStoreBinding> = (0..N_REPLICAS)
        .map(|_| {
            let store = TieredDeltaStore::new(registry.clone(), 5 * max_size);
            DeltaStoreBinding::new(store, artifacts.clone())
        })
        .collect();
    let cost = CostModel::new(NodeSpec::rtx3090_node(1), ModelShape::llama13b());
    let config = ClusterConfig {
        n_replicas: N_REPLICAS,
        engine: DeltaZipConfig {
            max_concurrent_deltas: 2,
            max_batch: 8,
            ..DeltaZipConfig::default()
        },
        ..ClusterConfig::default()
    };
    let mut sim = ClusterSim::new(vec![cost; N_REPLICAS], config, router).with_stores(bindings);
    let report = sim.run(trace);
    assert!(
        sim.bindings().is_some_and(|b| b.len() == N_REPLICAS),
        "bindings must be retrievable after the run"
    );
    let stats = report.store_stats.as_ref().expect("store-bound run");
    assert_eq!(stats.len(), N_REPLICAS);
    let disk: u64 = stats.iter().map(|s| s.disk_loads).sum();
    (report.merged.len(), disk, host_hit_rate(stats))
}

#[test]
fn store_stats_are_per_run_while_bindings_accumulate() {
    // Two runs of the same trace on one sim: the second report must only
    // carry the second run's loads (mostly host hits, caches warm), while
    // the bindings' cumulative totals equal the sum of both reports.
    let trace = Trace::generate(TraceSpec {
        n_models: 6,
        arrival_rate: 1.0,
        duration_s: 20.0,
        popularity: PopularityDist::Zipf { alpha: 1.5 },
        seed: 43,
    });
    let dir = temp_dir("per-run");
    let registry = Registry::open(&dir).expect("open registry");
    let artifacts = publish_zoo(&registry, 6);
    let bindings = vec![DeltaStoreBinding::new(
        TieredDeltaStore::new(registry, 1 << 30),
        artifacts,
    )];
    let cost = CostModel::new(NodeSpec::rtx3090_node(1), ModelShape::llama13b());
    let mut sim = ClusterSim::new(
        vec![cost],
        ClusterConfig::replicas(1),
        Box::new(RoundRobinRouter::new()),
    )
    .with_stores(bindings);
    let first = sim.run(&trace);
    let second = sim.run(&trace);
    let s1 = first.store_stats.as_ref().expect("store-bound")[0];
    let s2 = second.store_stats.as_ref().expect("store-bound")[0];
    assert!(s1.disk_loads > 0, "first run must touch disk");
    assert_eq!(s2.disk_loads, 0, "second run is fully host-warm");
    assert!(s2.host_hits > 0);
    let cumulative = sim.bindings().expect("bound")[0].store().total_stats();
    assert_eq!(cumulative.disk_loads, s1.disk_loads + s2.disk_loads);
    assert_eq!(cumulative.host_hits, s1.host_hits + s2.host_hits);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn routing_prefetch_hints_move_real_bytes_in_store_bound_clusters() {
    // Placement-aware routing with cluster prefetch enabled: hints must
    // prewarm artifacts through the stores' budgeted prefetch API, and
    // the prewarms must be visible in the stores' own accounting.
    let trace = Trace::generate(TraceSpec {
        n_models: 12,
        arrival_rate: 2.0,
        duration_s: 40.0,
        popularity: PopularityDist::Zipf { alpha: 1.5 },
        seed: 47,
    });
    const N_REPLICAS: usize = 3;
    let dir = temp_dir("hint");
    let registry = Registry::open(&dir).expect("open registry");
    let artifacts = publish_zoo(&registry, 12);
    let max_size = artifacts
        .iter()
        .map(|id| registry.size_of(id).expect("size"))
        .max()
        .expect("nonempty zoo");
    let bindings: Vec<DeltaStoreBinding> = (0..N_REPLICAS)
        .map(|_| {
            let store = TieredDeltaStore::new(registry.clone(), 5 * max_size);
            DeltaStoreBinding::new(store, artifacts.clone())
        })
        .collect();
    let cost = CostModel::new(NodeSpec::rtx3090_node(1), ModelShape::llama13b());
    let config = ClusterConfig {
        n_replicas: N_REPLICAS,
        engine: DeltaZipConfig {
            max_concurrent_deltas: 2,
            max_batch: 8,
            ..DeltaZipConfig::default()
        },
        prefetch: true,
        ..ClusterConfig::default()
    };
    let plan = PlacementPlan::from_popularity(trace.spec.popularity, 12, N_REPLICAS);
    let mut sim = ClusterSim::new(
        vec![cost; N_REPLICAS],
        config,
        Box::new(PlacementAwareRouter::new(plan)),
    )
    .with_stores(bindings);
    let report = sim.run(&trace);
    assert_eq!(report.merged.len(), trace.len());
    assert!(report.routing.prefetch_hints > 0, "hints must be emitted");
    assert!(report.routing.prefetch_issued > 0, "hints must prewarm");
    let store_prefetches: u64 = sim
        .bindings()
        .expect("bound")
        .iter()
        .map(|b| b.store().total_stats().prefetch_loads)
        .sum();
    assert!(
        store_prefetches > 0,
        "hint prewarms must move real bytes through the stores"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn placement_aware_store_cluster_does_fewer_disk_loads_than_round_robin() {
    let trace = Trace::generate(TraceSpec {
        n_models: 12,
        arrival_rate: 2.0,
        duration_s: 40.0,
        popularity: PopularityDist::Zipf { alpha: 1.5 },
        seed: 41,
    });
    let dir_rr = temp_dir("rr");
    let dir_pa = temp_dir("pa");
    let (served_rr, disk_rr, hit_rr) =
        run_store_cluster(&dir_rr, Box::new(RoundRobinRouter::new()), &trace);
    let plan = PlacementPlan::from_popularity(trace.spec.popularity, 12, 3);
    let (served_pa, disk_pa, hit_pa) =
        run_store_cluster(&dir_pa, Box::new(PlacementAwareRouter::new(plan)), &trace);
    assert_eq!(served_rr, trace.len());
    assert_eq!(served_pa, trace.len());
    assert!(
        disk_pa <= disk_rr,
        "placement-aware routing must not cause more disk loads: {disk_pa} vs {disk_rr}"
    );
    assert!(
        hit_pa >= hit_rr,
        "placement-aware cache hit rate {hit_pa} must be at least round-robin's {hit_rr}"
    );
    std::fs::remove_dir_all(&dir_rr).ok();
    std::fs::remove_dir_all(&dir_pa).ok();
}
