//! Criterion benches for the GDeflate-substitute codec (Step 4 trade-off).
//!
//! The decode benches compare the retained tree-walk reference against
//! the LUT fast path, on both a packed-delta-like (repetitive) corpus and
//! an incompressible one — the acceptance gate for the fast-path pipeline
//! is ≥3× decode throughput over the reference on both.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
// One corpus definition shared with the `bench-lossless` experiment, so
// these numbers and BENCH_lossless.json always measure the same data.
use dz_bench::experiments::codec::{incompressible, packed_delta_like};

fn bench_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("lossless");
    for &n in &[64usize * 1024, 512 * 1024] {
        let data = packed_delta_like(n, 7);
        group.throughput(Throughput::Bytes(n as u64));
        group.bench_with_input(BenchmarkId::new("compress", n), &data, |b, d| {
            b.iter(|| dz_lossless::compress(d))
        });
        let compressed = dz_lossless::compress(&data);
        group.bench_with_input(BenchmarkId::new("decompress", n), &compressed, |b, d| {
            b.iter(|| dz_lossless::decompress(d).unwrap())
        });
    }
    group.finish();
}

fn bench_decode_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("lossless-decode");
    let n = 4usize << 20;
    for (corpus, data) in [
        ("packed-delta", packed_delta_like(n, 7)),
        ("incompressible", incompressible(n, 11)),
    ] {
        let compressed = dz_lossless::compress(&data);
        group.throughput(Throughput::Bytes(n as u64));
        group.bench_with_input(
            BenchmarkId::new("reference", corpus),
            &compressed,
            |b, d| b.iter(|| dz_lossless::decompress_reference(d).unwrap()),
        );
        group.bench_with_input(BenchmarkId::new("lut", corpus), &compressed, |b, d| {
            b.iter(|| dz_lossless::decompress(d).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_codec, bench_decode_paths);
criterion_main!(benches);
