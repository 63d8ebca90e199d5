//! Criterion benches for the artifact store: `.dza` write/read, registry
//! publish, and tiered-cache fetch paths.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dz_compress::codec::{CodecId, PackedLayer};
use dz_compress::pack::CompressedMatrix;
use dz_compress::pipeline::{CompressedDelta, DeltaCompressConfig, SizeReport};
use dz_compress::quant::{quantize_slice, QuantSpec};
use dz_store::dza::{write_delta, ArtifactReader};
use dz_store::{sha256, Registry, TieredDeltaStore};
use dz_tensor::{Matrix, Rng};
use std::collections::BTreeMap;
use std::io::Cursor;

fn fixture_delta(d: usize, seed: u64) -> CompressedDelta {
    let mut rng = Rng::seeded(seed);
    let spec = QuantSpec::new(4, 16);
    let mut layers = BTreeMap::new();
    for layer in 0..4 {
        let wt = Matrix::randn(d, d, 0.05, &mut rng);
        let mut levels = Vec::new();
        let mut scales = Vec::new();
        for r in 0..d {
            let (l, s) = quantize_slice(wt.row(r), spec);
            levels.extend(l);
            scales.extend(s);
        }
        layers.insert(
            format!("layers.{layer}.w"),
            PackedLayer::Quant(CompressedMatrix::from_dense(d, d, &levels, scales, spec)),
        );
    }
    let compressed: usize = layers.values().map(|c| c.packed_bytes()).sum();
    CompressedDelta {
        layers,
        rest: BTreeMap::new(),
        codec: CodecId::SparseGptStar,
        config: DeltaCompressConfig::starred(4),
        report: SizeReport {
            compressed_linear_bytes: compressed,
            uncompressed_rest_bytes: 0,
            full_fp16_bytes: 4 * d * d * 2,
            lossless_linear_bytes: None,
        },
    }
}

fn container(delta: &CompressedDelta) -> Vec<u8> {
    write_delta(Cursor::new(Vec::new()), "bench", sha256(b"base"), delta)
        .expect("write")
        .into_inner()
}

fn bench_dza(c: &mut Criterion) {
    let mut group = c.benchmark_group("dza");
    group.sample_size(10);
    for d in [64usize, 128] {
        let delta = fixture_delta(d, d as u64);
        let bytes = container(&delta);
        group.throughput(Throughput::Bytes(bytes.len() as u64));
        group.bench_with_input(BenchmarkId::new("write", d), &delta, |b, delta| {
            b.iter(|| container(delta));
        });
        group.bench_with_input(BenchmarkId::new("read_delta", d), &bytes, |b, bytes| {
            b.iter(|| {
                ArtifactReader::open(Cursor::new(bytes))
                    .expect("open")
                    .read_delta()
                    .expect("read")
            });
        });
    }
    group.finish();
}

fn bench_registry_and_tiered(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("dz-store-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let registry = Registry::open(&dir).expect("open");
    let delta = fixture_delta(96, 9);

    let mut group = c.benchmark_group("registry");
    group.sample_size(10);
    group.bench_function("publish", |b| {
        b.iter(|| {
            registry
                .publish_delta("bench-variant", sha256(b"base"), &delta)
                .expect("publish")
        });
    });
    let id = registry
        .publish_delta("bench-variant", sha256(b"base"), &delta)
        .expect("publish");
    group.bench_function("load_delta", |b| {
        b.iter(|| {
            registry
                .open_artifact(&id)
                .and_then(|mut reader| reader.read_delta())
                .expect("load")
        });
    });

    let mut store = TieredDeltaStore::new(registry, 1 << 30);
    store.fetch(&id).expect("prime");
    group.bench_function("tiered_host_hit", |b| {
        b.iter(|| store.fetch(&id).expect("hit"));
    });
    group.bench_function("tiered_disk_miss", |b| {
        b.iter(|| {
            store.evict(&id);
            store.fetch(&id).expect("miss")
        });
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, bench_dza, bench_registry_and_tiered);
criterion_main!(benches);
